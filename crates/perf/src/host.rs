//! Two settings of the host that the `perf` binary makes before it starts
//! a thread, so that the same code reads the same from run to run. Both
//! were measured; without them a timing's run-to-run spread is several
//! times any bound the benchmark could set.
//!
//! **One CPU.** In this sandbox a vCPU takes some 20 µs to leave idle.
//! Whether a message between the client's thread and the server's pays that
//! depends on where the scheduler happens to have put the two, and that
//! flips between runs and within them: a 64-byte TCP ping-pong reads 4 µs
//! or 40 µs. On one CPU every hand-over is a context switch, and the
//! numbers repeat. The price is that no two threads ever run at once, so
//! `rpc_fanin` measures two clients contending for the provider, not a
//! parallel speed-up.
//!
//! **No memory handed back.** A 16 KiB-payload reply is an 800 KB buffer.
//! By default glibc either maps such a buffer afresh each time or trims it
//! off the heap's top when freed, and then every reply pays its page faults
//! again; or the buffer sits lower in the heap and is reused for free.
//! Which one happens follows from the heap's layout, which differs from run
//! to run (`walk_large`'s `get` read 631 µs or 848 µs). Raising both
//! thresholds keeps freed memory in the process.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod imp {
    const WORDS: usize = 16;
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;

    // All three are in the C library `std` already links.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn mallopt(param: i32, value: i32) -> i32;
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut allowed = [0u64; WORDS];
        let size = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is `size` writable bytes; pid 0 is this thread.
        if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = allowed.iter().position(|w| *w != 0)?;
        let bit = allowed[word].trailing_zeros() as usize;
        let mut one = [0u64; WORDS];
        one[word] = 1 << bit;
        // SAFETY: `one` is `size` readable bytes; pid 0 is this thread.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(word * 64 + bit)
    }

    pub fn keep_freed_memory() -> bool {
        // SAFETY: `mallopt` takes two integers and touches only the
        // allocator's own settings; no other thread exists yet.
        unsafe {
            // The largest threshold glibc accepts, and never trim.
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod imp {
    pub fn pin_to_one_cpu() -> Option<usize> {
        None
    }

    pub fn keep_freed_memory() -> bool {
        false
    }
}

/// Restricts the calling thread, and every thread it later spawns, to the
/// lowest CPU it may run on. Returns that CPU, or `None` where the
/// platform offers no way to do it.
pub fn pin_to_one_cpu() -> Option<usize> {
    imp::pin_to_one_cpu()
}

/// Tells the allocator to keep freed memory. Returns whether it did.
pub fn keep_freed_memory() -> bool {
    imp::keep_freed_memory()
}
