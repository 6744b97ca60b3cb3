//! Real-kernel baselines: `sched_yield(2)` between PThreads (Table IV rows
//! 2–3) and the real `getpid(2)` (Table V's "Linux" row).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pin the calling thread to `core`; returns whether it stuck.
fn crate_pin(core: usize) -> bool {
    #[cfg(target_os = "linux")]
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_SET(core % libc::CPU_SETSIZE as usize, &mut set);
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = core;
        false
    }
}

/// Number of CPUs visible to this process.
pub fn n_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Result of a `sched_yield` baseline run.
#[derive(Debug, Clone, Copy)]
pub struct YieldBaseline {
    /// ns per yield (total elapsed / total yields).
    pub ns_per_yield: f64,
    /// Whether both threads were successfully pinned as requested.
    pub pinned: bool,
}

/// Two PThreads calling `sched_yield` `iters` times each, pinned to one
/// core or to two cores (Table IV's two baseline rows). On a host with a
/// single CPU the two-core variant degrades to one core (reported via
/// `pinned`).
pub fn sched_yield_ns(two_cores: bool, iters: usize) -> YieldBaseline {
    let cores = if two_cores { [0usize, 1] } else { [0, 0] };
    let can_pin = !two_cores || n_cpus() >= 2;
    let start = Arc::new(AtomicBool::new(false));
    let pin_ok = Arc::new(AtomicBool::new(true));

    let worker = |core: usize, start: Arc<AtomicBool>, pin_ok: Arc<AtomicBool>| {
        std::thread::spawn(move || {
            if !crate_pin(core) {
                pin_ok.store(false, Ordering::Relaxed);
            }
            while !start.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            for _ in 0..iters {
                #[cfg(target_os = "linux")]
                unsafe {
                    libc::sched_yield();
                }
                #[cfg(not(target_os = "linux"))]
                std::thread::yield_now();
            }
        })
    };

    let t1 = worker(cores[0], start.clone(), pin_ok.clone());
    let t2 = worker(cores[1], start.clone(), pin_ok.clone());
    // Give both threads a moment to pin and reach the start gate.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let t = Instant::now();
    start.store(true, Ordering::Release);
    t1.join().unwrap();
    t2.join().unwrap();
    let elapsed = t.elapsed().as_nanos() as f64;
    YieldBaseline {
        ns_per_yield: elapsed / (2 * iters) as f64,
        pinned: can_pin && pin_ok.load(Ordering::Relaxed),
    }
}

/// The real `getpid(2)`, ns per call (min-of-runs protocol).
pub fn real_getpid_ns(iters: usize) -> f64 {
    crate::measure_min(iters, || {
        #[cfg(target_os = "linux")]
        unsafe {
            std::hint::black_box(libc::getpid());
        }
        #[cfg(not(target_os = "linux"))]
        std::hint::black_box(std::process::id());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_getpid_is_submicrosecond() {
        let ns = real_getpid_ns(5_000);
        assert!(ns > 0.0 && ns < 100_000.0, "getpid {ns} ns");
    }

    #[test]
    fn sched_yield_completes() {
        let r = sched_yield_ns(false, 2_000);
        assert!(r.ns_per_yield > 0.0);
    }

    #[test]
    fn two_core_request_reports_pin_state() {
        let r = sched_yield_ns(true, 500);
        if n_cpus() < 2 {
            assert!(
                !r.pinned,
                "cannot truly pin to two cores on {} cpu",
                n_cpus()
            );
        }
    }

    #[test]
    fn n_cpus_positive() {
        assert!(n_cpus() >= 1);
    }
}
