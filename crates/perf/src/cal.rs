//! Host-speed calibration.
//!
//! The sandbox's CPU does not run at one speed: a fixed integer loop takes
//! 9.6 µs in one second and 12 µs in the next, and every timing of the
//! program drifts with it, by the same factor. A client therefore times
//! that loop between its units of work (every few milliseconds), and each
//! timing it takes is divided by how much slower than [`REFERENCE_NS`] the
//! loop has just run. What is reported is the time the work takes on a
//! host that runs the loop in exactly `REFERENCE_NS`; the run's overall
//! factor is printed beside the results.

use std::hint::black_box;
use std::time::Instant;

const ITERATIONS: u64 = 40_000;

/// What the loop takes on the reference box at its usual speed.
pub const REFERENCE_NS: f64 = 10_000.0;

/// Runs the calibration loop once and returns its nanoseconds.
fn spin_ns() -> u64 {
    let started = Instant::now();
    let mut x = 0u64;
    for i in 0..ITERATIONS {
        x = x.wrapping_add(black_box(i).wrapping_mul(i));
    }
    black_box(x);
    started.elapsed().as_nanos() as u64
}

/// Tracks how much slower than the reference the host is running now: the
/// median of the last few loops, so that one interrupted loop does not
/// distort the timings that follow it.
pub struct Calibrator {
    recent: [f64; 5],
    ticks: usize,
    factor: f64,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut cal = Calibrator {
            recent: [0.0; 5],
            ticks: 0,
            factor: 1.0,
        };
        for _ in 0..cal.recent.len() {
            cal.tick();
        }
        cal
    }
}

impl Calibrator {
    /// Times the loop once more.
    pub fn tick(&mut self) {
        self.recent[self.ticks % self.recent.len()] = spin_ns() as f64;
        self.ticks += 1;
        let mut window = self.recent[..self.ticks.min(self.recent.len())].to_vec();
        window.sort_by(f64::total_cmp);
        self.factor = window[window.len() / 2] / REFERENCE_NS;
    }

    /// Divide a time by it, multiply a rate.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// `nanos` as they would read at reference speed.
    pub fn scale(&self, nanos: u64) -> u64 {
        (nanos as f64 / self.factor).round() as u64
    }
}

/// The factor right now, from a fresh burst of loops.
pub fn factor_now() -> f64 {
    Calibrator::default().factor()
}
