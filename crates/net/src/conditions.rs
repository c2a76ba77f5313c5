//! Network condition presets.
//!
//! The paper's evaluation ran on a 10 Mb/s LAN (§4); its motivation targets
//! wireless links of the era (Wi-Fi, GPRS). These presets make both easily
//! available, calibrated so that one remote method invocation on
//! [`paper_lan`] costs ≈ 2.8 ms round trip — the constant §4.1 reports.

use crate::link::LinkModel;
use std::time::Duration;

/// The paper's testbed: 10 Mb/s LAN.
///
/// One-way latency is calibrated at 1 ms so that a small request/response
/// pair plus dispatch overhead lands at the reported 2.8 ms RMI cost.
pub fn paper_lan() -> LinkModel {
    LinkModel::new(Duration::from_micros(1000), 10_000_000)
}

/// 802.11b-era Wi-Fi: 5 Mb/s effective, 3 ms one-way, light jitter and loss.
pub fn wifi() -> LinkModel {
    LinkModel::new(Duration::from_millis(3), 5_000_000)
        .with_jitter(Duration::from_millis(2))
        .with_loss(0.005)
}

/// GPRS-era cellular: 40 kb/s, 300 ms one-way, heavy jitter, 2% loss.
///
/// This is the "info-appliance in a taxi" environment from the paper's
/// introduction — the regime where replication beats RMI by orders of
/// magnitude.
pub fn gprs() -> LinkModel {
    LinkModel::new(Duration::from_millis(300), 40_000)
        .with_jitter(Duration::from_millis(100))
        .with_loss(0.02)
}

/// A wide-area Internet path: 10 Mb/s, 40 ms one-way, small jitter.
pub fn wan() -> LinkModel {
    LinkModel::new(Duration::from_millis(40), 10_000_000)
        .with_jitter(Duration::from_millis(5))
        .with_loss(0.001)
}

/// Free local loopback: zero latency, infinite bandwidth. Useful in tests
/// that want protocol behaviour without timing.
pub fn loopback() -> LinkModel {
    LinkModel::ideal()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_util::DetRng;

    #[test]
    fn presets_are_ordered_by_quality() {
        let mut rng = DetRng::new(1);
        let frame = 256usize;
        let lo = loopback().transfer_time(frame, &mut rng);
        let pl = paper_lan().transfer_time(frame, &mut rng);
        let wa = wan().transfer_time(frame, &mut rng);
        let gp = gprs().transfer_time(frame, &mut rng);
        assert!(lo < pl);
        assert!(pl < wa);
        assert!(wa < gp);
    }

    #[test]
    fn paper_lan_round_trip_is_about_2_8_ms() {
        // A small RMI: ~120-byte request, ~40-byte reply.
        let mut rng = DetRng::new(1);
        let link = paper_lan();
        let rtt = link.transfer_time(120, &mut rng) + link.transfer_time(40, &mut rng);
        // Network alone ≈ 2.1 ms; dispatch overhead (cost model) brings the
        // full RMI to ≈ 2.8 ms. Assert the network component's window.
        assert!(rtt > Duration::from_micros(2000), "rtt = {rtt:?}");
        assert!(rtt < Duration::from_micros(2600), "rtt = {rtt:?}");
    }

    #[test]
    fn gprs_is_lossy_and_slow() {
        let g = gprs();
        assert!(g.loss > 0.0);
        assert!(g.latency >= Duration::from_millis(100));
        // 1 KB at 40 kb/s is 200 ms of serialization delay alone.
        assert!(g.serialization_delay(1024) >= Duration::from_millis(200));
    }
}
