//! Raw Linux futex wrapper and a futex-based counting semaphore.
//!
//! The paper idles a decoupled kernel context either by busy-waiting or by
//! blocking on "the Linux semaphore (implemented by using futex)" (§VI-C).
//! This module provides exactly that primitive: [`futex_wait`]/[`futex_wake`]
//! over an `AtomicU32`, and [`Semaphore`] built on top of them, following the
//! construction in *Rust Atomics and Locks*, ch. 8–9.

use crate::errno::Errno;
use crate::fault::{self, FaultKind};
use crate::trace::{self, SyscallPhase, Sysno};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// Block until `*atom != expected` (or a spurious wake). Returns immediately
/// if the value already differs.
///
/// Emits a `futex_wait` span through the syscall observer hook: with tracing
/// on, every KC sleep (the BLOCKING idle primitive) shows up on the merged
/// timeline. `futex_wake` is deliberately *not* instrumented — it sits on
/// the couple/notify hot path and never blocks.
#[inline]
pub fn futex_wait(atom: &AtomicU32, expected: u32) {
    trace::emit(Sysno::FutexWait, SyscallPhase::Enter);
    // Injected spurious wake: return as if woken without sleeping. POSIX
    // allows this at any time, so callers must loop on their predicate.
    if !fault::fire(FaultKind::SpuriousWake) {
        futex_sleep(atom, expected, None);
    }
    trace::emit(Sysno::FutexWait, SyscallPhase::Exit { errno: 0 });
}

/// Block until `*atom != expected`, a wake-up, or `timeout`. Returns `false`
/// on timeout.
///
/// Emits a `futex_wait` span like [`futex_wait`]; a timed-out wait exits
/// with `errno == ETIMEDOUT`.
pub fn futex_wait_timeout(atom: &AtomicU32, expected: u32, timeout: Duration) -> bool {
    trace::emit(Sysno::FutexWait, SyscallPhase::Enter);
    // An injected spurious wake reports `woken` — indistinguishable from a
    // real wake, exactly as the futex man page warns.
    let woken = fault::fire(FaultKind::SpuriousWake) || futex_sleep(atom, expected, Some(timeout));
    let errno = if woken { 0 } else { Errno::ETIMEDOUT.as_raw() };
    trace::emit(Sysno::FutexWait, SyscallPhase::Exit { errno });
    woken
}

/// The host's compare-and-sleep alone: no span, no injected fault. Blocks
/// until `*atom != expected`, a wake-up, or `timeout` (`None`: none), and
/// returns `false` only on the timeout. A kernel wait queue sleeps here
/// because its call's own blocking span is already open (`wait.rs`).
pub(crate) fn futex_sleep(atom: &AtomicU32, expected: u32, timeout: Option<Duration>) -> bool {
    #[cfg(target_os = "linux")]
    // SAFETY: `atom` is a live `AtomicU32` for the whole call, and `ts`, when
    // passed, outlives it.
    unsafe {
        let ts = timeout.map(|t| libc::timespec {
            tv_sec: t.as_secs() as libc::time_t,
            tv_nsec: t.subsec_nanos() as libc::c_long,
        });
        let r = libc::syscall(
            libc::SYS_futex,
            atom.as_ptr(),
            libc::FUTEX_WAIT | libc::FUTEX_PRIVATE_FLAG,
            expected,
            ts.as_ref()
                .map_or(std::ptr::null(), |ts| ts as *const libc::timespec),
        );
        r != -1 || *libc::__errno_location() != libc::ETIMEDOUT
    }
    #[cfg(not(target_os = "linux"))]
    {
        // Portable fallback: yield-spin.
        if timeout.is_none() && atom.load(Ordering::Acquire) == expected {
            std::thread::yield_now();
        }
        timeout.is_none() || atom.load(Ordering::Acquire) != expected
    }
}

/// Wake at most `n` waiters blocked on `atom`. Returns how many were woken.
#[inline]
pub fn futex_wake(atom: &AtomicU32, n: i32) -> i32 {
    // Injected wakeup delay: widen the sleeper/waker race window so
    // protocols that only work because wakes are "fast enough" break.
    if fault::fire(FaultKind::DelayWake) {
        fault::wake_delay();
    }
    #[cfg(target_os = "linux")]
    unsafe {
        libc::syscall(
            libc::SYS_futex,
            atom.as_ptr(),
            libc::FUTEX_WAKE | libc::FUTEX_PRIVATE_FLAG,
            n,
        ) as i32
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (atom, n);
        0
    }
}

/// A counting semaphore backed by a futex — the paper's BLOCKING idle
/// primitive.
///
/// `wait()` makes the calling *OS thread* sleep in the kernel when the count
/// is zero; this is precisely what makes the blocking variant of ULP-PiP
/// slower than the busy-waiting variant in Table V (two extra futex system
/// calls per couple/decouple round trip) while consuming no CPU.
#[derive(Debug)]
pub struct Semaphore {
    /// Available permits.
    count: AtomicU32,
    /// Number of threads (possibly) asleep in `wait`.
    waiters: AtomicU32,
    /// Wake-edge attribution: stamped by `post` before its `futex_wake`,
    /// consumed by a waiter whose sleep it ended. A spurious wake re-loops
    /// on the permit count without consuming — no permit means no post,
    /// and an unarmed cell emits no edge.
    wake: crate::trace::WakeCell,
}

impl Semaphore {
    /// A semaphore holding `permits` initial permits.
    pub fn new(permits: u32) -> Semaphore {
        Semaphore {
            count: AtomicU32::new(permits),
            waiters: AtomicU32::new(0),
            wake: crate::trace::WakeCell::new(),
        }
    }

    /// Take one permit, blocking the OS thread until one is available.
    pub fn wait(&self) {
        // Fast path: grab a permit without sleeping.
        let mut slept = false;
        let mut current = self.count.load(Ordering::Relaxed);
        loop {
            while current == 0 {
                self.waiters.fetch_add(1, Ordering::Relaxed);
                futex_wait(&self.count, 0);
                slept = true;
                self.waiters.fetch_sub(1, Ordering::Relaxed);
                current = self.count.load(Ordering::Relaxed);
            }
            match self.count.compare_exchange_weak(
                current,
                current - 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    if slept {
                        self.wake.consume(crate::trace::WakeSite::FutexWake);
                    }
                    return;
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// Take one permit if immediately available.
    pub fn try_wait(&self) -> bool {
        let mut current = self.count.load(Ordering::Relaxed);
        while current > 0 {
            match self.count.compare_exchange_weak(
                current,
                current - 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => current = seen,
            }
        }
        false
    }

    /// Release one permit, waking a sleeper if any.
    pub fn post(&self) {
        // Stamp before the Release store publishing the permit: a waiter
        // that observes the permit also observes the stamp.
        self.wake.stamp();
        self.count.fetch_add(1, Ordering::Release);
        if self.waiters.load(Ordering::Relaxed) > 0 {
            futex_wake(&self.count, 1);
        }
    }

    /// Current permit count (racy; diagnostics only).
    pub fn permits(&self) -> u32 {
        self.count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Instant;

    #[test]
    fn semaphore_fast_path() {
        let s = Semaphore::new(2);
        s.wait();
        s.wait();
        assert!(!s.try_wait());
        s.post();
        assert!(s.try_wait());
    }

    #[test]
    fn semaphore_blocks_and_wakes() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = s.clone();
        let t = thread::spawn(move || {
            s2.wait();
            42
        });
        thread::sleep(Duration::from_millis(20));
        s.post();
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn semaphore_many_producers_consumers() {
        let s = Arc::new(Semaphore::new(0));
        let consumed = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = s.clone();
            let consumed = consumed.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..100 {
                    s.wait();
                    consumed.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for _ in 0..4 {
            let s = s.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..100 {
                    s.post();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::Relaxed), 400);
        assert_eq!(s.permits(), 0);
    }

    #[test]
    fn futex_wait_returns_when_value_differs() {
        let a = AtomicU32::new(1);
        let t = Instant::now();
        futex_wait(&a, 0); // value != expected -> immediate return
        assert!(t.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn futex_wake_unblocks_waiter() {
        let a = Arc::new(AtomicU32::new(0));
        let a2 = a.clone();
        let t = thread::spawn(move || {
            while a2.load(Ordering::Acquire) == 0 {
                futex_wait(&a2, 0);
            }
        });
        thread::sleep(Duration::from_millis(10));
        a.store(1, Ordering::Release);
        futex_wake(&a, 1);
        t.join().unwrap();
    }

    #[test]
    fn futex_wait_times_out() {
        let a = AtomicU32::new(0);
        let t = Instant::now();
        let woken = futex_wait_timeout(&a, 0, Duration::from_millis(30));
        assert!(!woken, "should have timed out");
        assert!(t.elapsed() >= Duration::from_millis(20));
    }
}
