//! Deterministic kernel fault injection.
//!
//! Real kernels are adversarial in ways a clean simulation never is: futexes
//! wake spuriously, blocking calls return `EINTR` mid-wait, `read(2)` hands
//! back one byte when sixty-four were available, and wakeups arrive late.
//! POSIX permits all of it, and the paper's coupling protocol must tolerate
//! all of it. This module lets the `ulp-torture` harness switch those
//! behaviors on, reproducibly, inside the simulated kernel:
//!
//! - **spurious futex wakes** — `futex_wait`/`futex_wait_timeout` return
//!   immediately as if woken; callers that don't re-check their predicate
//!   (the classic lost-wakeup bug) break instantly;
//! - **`EINTR`** on blocking pipe `read`/`write`, before any bytes move;
//! - **`EAGAIN`** on the non-blocking `try_read`/`try_write` paths;
//! - **short reads** — a pipe read is truncated to a single byte even when
//!   more is buffered;
//! - **delayed wakeups** — `futex_wake` stalls briefly before waking, so
//!   sleepers and their wakers race over a widened window.
//!
//! Decisions come from [`splitmix64`] — the function `ulp_core::chaos`
//! re-exports and draws from — keyed by `(kind, currently bound pid)` with a per-key
//! opportunity counter, so each process's fault stream replays identically
//! regardless of how other threads interleave. A disarmed layer costs one
//! relaxed atomic load per hook.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A seeded fault recipe: how often (per 1024 opportunities) each fault
/// fires. All-zero rates make an armed plan a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the decision stream; same seed + same workload = same
    /// faults.
    pub seed: u64,
    /// Rate (per 1024) of spurious `futex_wait` returns.
    pub spurious_wake_per_1024: u16,
    /// Rate (per 1024) of `EINTR` on blocking pipe reads/writes.
    pub eintr_per_1024: u16,
    /// Rate (per 1024) of `EAGAIN` on non-blocking pipe reads/writes.
    pub eagain_per_1024: u16,
    /// Rate (per 1024) of pipe reads truncated to one byte.
    pub short_read_per_1024: u16,
    /// Rate (per 1024) of delayed `futex_wake` calls.
    pub delay_wake_per_1024: u16,
}

impl FaultPlan {
    /// A gentle plan: rare faults, suitable for long runs.
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            spurious_wake_per_1024: 16,
            eintr_per_1024: 16,
            eagain_per_1024: 16,
            short_read_per_1024: 32,
            delay_wake_per_1024: 8,
        }
    }

    /// An aggressive plan: roughly one in eight opportunities faulted.
    pub fn aggressive(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            spurious_wake_per_1024: 128,
            eintr_per_1024: 128,
            eagain_per_1024: 128,
            short_read_per_1024: 256,
            delay_wake_per_1024: 64,
        }
    }
}

/// Which fault a hook is asking about (also indexes [`injected_counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FaultKind {
    /// Spurious return from `futex_wait`/`futex_wait_timeout`.
    SpuriousWake = 0,
    /// `EINTR` from a blocking pipe read/write.
    Eintr = 1,
    /// `EAGAIN` from a non-blocking pipe read/write.
    Eagain = 2,
    /// Pipe read truncated to a single byte.
    ShortRead = 3,
    /// `futex_wake` delayed before delivering the wake.
    DelayWake = 4,
}

/// The number of [`FaultKind`] variants (size of [`injected_counts`]).
pub const FAULT_KINDS: usize = 5;

struct FaultState {
    plan: FaultPlan,
    /// Per-(kind, pid-key) opportunity counters: each process's stream for
    /// each kind is independent and interleaving-proof.
    counters: HashMap<(u8, u64), u64>,
    injected: [u64; FAULT_KINDS],
}

static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<FaultState>> = Mutex::new(None);

/// splitmix64's finalizer: a high-quality 64-bit mix. Defined here, in the
/// lowest crate that draws decisions; `ulp_core::chaos` re-exports it, and
/// the torture harness derives its per-run and per-stream seeds from it.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string — the stable key for name-derived chaos
/// streams and the torture harness's run digest.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Install `plan` process-wide and reset all decision counters. Fault state
/// is global (the hooks sit below any `Kernel` handle), so harness
/// iterations must serialize arm/disarm.
pub fn arm(plan: FaultPlan) {
    let mut st = STATE.lock().expect("fault state poisoned");
    *st = Some(FaultState {
        plan,
        counters: HashMap::new(),
        injected: [0; FAULT_KINDS],
    });
    ARMED.store(true, Ordering::Release);
}

/// Remove the installed plan; every hook returns to its one-load fast path.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    *STATE.lock().expect("fault state poisoned") = None;
}

/// Whether a plan is currently installed.
#[inline]
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// How many faults of each [`FaultKind`] were actually injected since
/// [`arm`].
pub fn injected_counts() -> [u64; FAULT_KINDS] {
    STATE
        .lock()
        .expect("fault state poisoned")
        .as_ref()
        .map_or([0; FAULT_KINDS], |s| s.injected)
}

/// Hook: should this opportunity inject `kind`? Keyed by the calling
/// thread's currently bound pid (0 when unbound) so each simulated process
/// draws an independent, replayable stream. One relaxed load when disarmed.
#[inline]
pub(crate) fn fire(kind: FaultKind) -> bool {
    if !is_armed() {
        return false;
    }
    fire_slow(kind)
}

#[cold]
fn fire_slow(kind: FaultKind) -> bool {
    let key = crate::kernel::any_bound_pid().map_or(0, |p| u64::from(p.0) + 1);
    let mut guard = STATE.lock().expect("fault state poisoned");
    let Some(st) = guard.as_mut() else {
        return false;
    };
    let rate = match kind {
        FaultKind::SpuriousWake => st.plan.spurious_wake_per_1024,
        FaultKind::Eintr => st.plan.eintr_per_1024,
        FaultKind::Eagain => st.plan.eagain_per_1024,
        FaultKind::ShortRead => st.plan.short_read_per_1024,
        FaultKind::DelayWake => st.plan.delay_wake_per_1024,
    };
    if rate == 0 {
        return false;
    }
    let n = st.counters.entry((kind as u8, key)).or_insert(0);
    *n += 1;
    let draw = splitmix64(st.plan.seed ^ splitmix64(key ^ ((kind as u64) << 56)) ^ splitmix64(*n));
    let fire = (draw & 1023) < u64::from(rate);
    if fire {
        st.injected[kind as usize] += 1;
    }
    fire
}

/// Fault-induced wake delay: long enough to widen sleeper/waker races, short
/// enough that even a fault-heavy run stays fast.
pub(crate) fn wake_delay() {
    std::thread::sleep(std::time::Duration::from_micros(50));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault state is process-global; tests that arm it serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_hooks_are_inert() {
        let _g = TEST_LOCK.lock().unwrap();
        disarm();
        assert!(!is_armed());
        assert!(!fire(FaultKind::Eintr));
        assert_eq!(injected_counts(), [0; FAULT_KINDS]);
    }

    #[test]
    fn decisions_replay_across_arms() {
        let _g = TEST_LOCK.lock().unwrap();
        let plan = FaultPlan::aggressive(0xDECAF);
        arm(plan);
        let run1: Vec<bool> = (0..128).map(|_| fire(FaultKind::ShortRead)).collect();
        arm(plan);
        let run2: Vec<bool> = (0..128)
            .map(|i| {
                // Interleave draws of another kind: must not disturb the
                // ShortRead stream.
                if i % 3 == 0 {
                    fire(FaultKind::DelayWake);
                }
                fire(FaultKind::ShortRead)
            })
            .collect();
        disarm();
        assert_eq!(run1, run2, "per-kind streams must be interleaving-proof");
        assert!(run1.iter().any(|&f| f), "aggressive plan never fired");
        assert!(run1.iter().any(|&f| !f), "aggressive plan always fired");
    }

    #[test]
    fn injected_counts_track_fires() {
        let _g = TEST_LOCK.lock().unwrap();
        arm(FaultPlan {
            seed: 1,
            spurious_wake_per_1024: 1024,
            eintr_per_1024: 0,
            eagain_per_1024: 0,
            short_read_per_1024: 0,
            delay_wake_per_1024: 0,
        });
        for _ in 0..7 {
            assert!(fire(FaultKind::SpuriousWake));
        }
        assert!(!fire(FaultKind::Eintr), "zero rate never fires");
        let injected = injected_counts();
        disarm();
        assert_eq!(injected[FaultKind::SpuriousWake as usize], 7);
        assert_eq!(injected[FaultKind::Eintr as usize], 0);
    }

    #[test]
    fn unbound_thread_draws_key_zero_stream() {
        let _g = TEST_LOCK.lock().unwrap();
        let plan = FaultPlan::aggressive(42);
        arm(plan);
        let a: Vec<bool> = (0..64).map(|_| fire(FaultKind::Eagain)).collect();
        arm(plan);
        let b: Vec<bool> = (0..64).map(|_| fire(FaultKind::Eagain)).collect();
        disarm();
        assert_eq!(a, b);
    }
}
