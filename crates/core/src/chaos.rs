//! Schedule chaos: deterministic, seeded perturbation of the switch path.
//!
//! The Table-I protocol is only as correct as its worst interleaving, and
//! the interleavings the OS scheduler happens to produce on a quiet CI box
//! are a vanishingly thin slice of the reachable ones. This module lets a
//! stress harness (the `ulp-torture` crate) *widen* that slice on demand:
//!
//! - **forced yields** at the couple/decouple entry points — a decoupled UC
//!   is made to take a detour through the run queue right before it would
//!   transition, which exercises the request-published-after-save race
//!   (Table I race point 1) and UC migration across scheduler KCs;
//! - **biased run-queue pops** — the global FIFO is popped from the tail,
//!   so dispatch order degenerates away from the common case;
//! - **idle-policy flips** — individual `park()` calls behave as if the
//!   opposite idle policy were configured, shaking out wakeup protocols
//!   that only work because a spinner happened to re-check in time.
//!
//! All decisions come from a [`splitmix64`] stream seeded once at
//! [`arm`] time. Forced-yield decisions are keyed by the *name* of the
//! current UC plus a per-key counter, not by `BltId` — names are chosen by
//! the harness and stable across runs, while id allocation races with
//! scheduler-thread startup. A disarmed chaos layer costs one relaxed
//! atomic load at each hook; the armed path takes a mutex and is
//! deliberately not optimized (a torture run is not a benchmark).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A seeded chaos recipe: how often (per 1024 opportunities) each
/// perturbation fires. All-zero rates make an armed plan a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed for the decision stream. Two runs with the same seed, plan and
    /// (deterministic) workload draw identical decisions.
    pub seed: u64,
    /// Rate (per 1024) of forced `yield_now()` detours at `couple()` /
    /// `decouple()` entry.
    pub forced_yield_per_1024: u16,
    /// Rate (per 1024) of biased run-queue pops (FIFO tail pop / slot
    /// bypass).
    pub biased_pop_per_1024: u16,
    /// Rate (per 1024) of single-call idle-policy inversions in
    /// `Parker::park` — schedulers, trampolines and pool KCs alike.
    pub idle_flip_per_1024: u16,
}

impl ChaosPlan {
    /// A gentle plan: rare perturbations, suitable for long runs.
    pub fn quiet(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            forced_yield_per_1024: 16,
            biased_pop_per_1024: 32,
            idle_flip_per_1024: 8,
        }
    }

    /// An aggressive plan: roughly one in four opportunities perturbed.
    pub fn aggressive(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            forced_yield_per_1024: 256,
            biased_pop_per_1024: 256,
            idle_flip_per_1024: 64,
        }
    }
}

/// Which hook consulted the chaos stream (also indexes [`fired_counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ChaosSite {
    /// Forced yield at `couple()` entry.
    Couple = 0,
    /// Forced yield at `decouple()` entry.
    Decouple = 1,
    /// Biased run-queue pop.
    Pop = 2,
    /// Idle-policy flip in `Parker::park` (every idle loop).
    Park = 3,
}

/// The number of [`ChaosSite`] variants (size of [`fired_counts`]).
pub const CHAOS_SITES: usize = 4;

struct ChaosState {
    plan: ChaosPlan,
    /// Per-(site, key) opportunity counters: the n-th opportunity of a
    /// given key always draws the same decision, independent of how other
    /// keys interleave with it.
    counters: HashMap<(u8, u64), u64>,
    fired: [u64; CHAOS_SITES],
}

/// One relaxed load on every hook when chaos is disarmed.
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<ChaosState>> = Mutex::new(None);

/// The mix and the name hash every decision stream draws from, shared with
/// the kernel's fault layer (and the torture harness's seeds and digests).
pub use ulp_kernel::fault::{fnv1a, splitmix64};

/// Install `plan` process-wide and reset all decision counters. Chaos
/// state is global (the hooks sit below any `Runtime` handle), so tests
/// and harness iterations must serialize arm/disarm.
pub fn arm(plan: ChaosPlan) {
    let mut st = STATE.lock().expect("chaos state poisoned");
    *st = Some(ChaosState {
        plan,
        counters: HashMap::new(),
        fired: [0; CHAOS_SITES],
    });
    ARMED.store(true, Ordering::Release);
}

/// Remove the installed plan; every hook returns to its one-load fast path.
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    *STATE.lock().expect("chaos state poisoned") = None;
}

/// Whether a plan is currently installed.
#[inline]
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// How many times each [`ChaosSite`] actually fired since [`arm`].
pub fn fired_counts() -> [u64; CHAOS_SITES] {
    STATE
        .lock()
        .expect("chaos state poisoned")
        .as_ref()
        .map_or([0; CHAOS_SITES], |s| s.fired)
}

/// Draw the next decision for `(site, key)`: true = perturb.
fn decide(site: ChaosSite, key: u64) -> bool {
    let mut guard = STATE.lock().expect("chaos state poisoned");
    let Some(st) = guard.as_mut() else {
        return false;
    };
    let rate = match site {
        ChaosSite::Couple | ChaosSite::Decouple => st.plan.forced_yield_per_1024,
        ChaosSite::Pop => st.plan.biased_pop_per_1024,
        ChaosSite::Park => st.plan.idle_flip_per_1024,
    };
    if rate == 0 {
        return false;
    }
    let n = st.counters.entry((site as u8, key)).or_insert(0);
    *n += 1;
    let draw = splitmix64(st.plan.seed ^ splitmix64(key ^ ((site as u64) << 56)) ^ splitmix64(*n));
    let fire = (draw & 1023) < rate as u64;
    if fire {
        st.fired[site as usize] += 1;
    }
    fire
}

/// Chaos hook at a couple/decouple entry: possibly detour the current UC
/// through `yield_now()` before the transition proceeds. Keyed by the UC's
/// name so each ULP owns an independent, replayable decision stream. No-op
/// (one relaxed load) when disarmed, when off-ULP, or for scheduler UCs.
#[inline]
pub(crate) fn preempt_point(site: ChaosSite) {
    if !is_armed() {
        return;
    }
    preempt_point_slow(site);
}

#[cold]
fn preempt_point_slow(site: ChaosSite) {
    let key = crate::current::with_thread(|b| {
        b.ulp().and_then(|u| {
            if u.kind == crate::uc::UcKind::Scheduler {
                None
            } else {
                Some(fnv1a(u.name.as_bytes()))
            }
        })
    });
    let Some(key) = key else { return };
    if decide(site, key) {
        // A forced yield from a coupled UC degrades to an OS yield, and so
        // does one from a UC at home on a young stretch; from a decoupled UC
        // on a scheduler — or at home past the break-even, or with a sibling
        // waiting for the KC — it takes a real detour through the run queue.
        // Either way yield_now() has no chaos hook of its own, so no
        // recursion.
        crate::couple::yield_now();
    }
}

/// Chaos hook in the run-queue pop path: true = use the biased order
/// (FIFO tail). Global stream (key 0) — pop interleaving is inherently
/// racy, so per-caller keys buy nothing.
#[inline]
pub(crate) fn bias_pop() -> bool {
    if !is_armed() {
        return false;
    }
    decide(ChaosSite::Pop, 0)
}

/// Chaos hook in `Parker::park`, the one park every idle loop (scheduler,
/// trampoline, pool KC) goes through: true = behave as the opposite idle
/// policy for this one call.
#[inline]
pub(crate) fn flip_idle() -> bool {
    if !is_armed() {
        return false;
    }
    decide(ChaosSite::Park, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chaos state is process-global; tests that arm it serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_hooks_are_inert() {
        let _g = TEST_LOCK.lock().unwrap();
        disarm();
        assert!(!is_armed());
        assert!(!bias_pop());
        assert!(!flip_idle());
        assert_eq!(fired_counts(), [0; CHAOS_SITES]);
    }

    #[test]
    fn decisions_replay_per_key() {
        let _g = TEST_LOCK.lock().unwrap();
        let plan = ChaosPlan::aggressive(0xDECAF);
        let key_a = fnv1a(b"worker-a");
        let key_b = fnv1a(b"worker-b");

        arm(plan);
        let run1: Vec<bool> = (0..64).map(|_| decide(ChaosSite::Couple, key_a)).collect();
        // Interleave draws from another key: must not disturb key_a's
        // stream on replay.
        arm(plan);
        let run2: Vec<bool> = (0..64)
            .map(|i| {
                if i % 3 == 0 {
                    decide(ChaosSite::Couple, key_b);
                }
                decide(ChaosSite::Couple, key_a)
            })
            .collect();
        disarm();
        assert_eq!(run1, run2, "per-key streams must be interleaving-proof");
        assert!(run1.iter().any(|&f| f), "aggressive plan never fired");
        assert!(run1.iter().any(|&f| !f), "aggressive plan always fired");
    }

    #[test]
    fn sites_draw_independent_streams() {
        let _g = TEST_LOCK.lock().unwrap();
        let plan = ChaosPlan {
            seed: 7,
            forced_yield_per_1024: 512,
            biased_pop_per_1024: 512,
            idle_flip_per_1024: 512,
        };
        arm(plan);
        let couple: Vec<bool> = (0..32).map(|_| decide(ChaosSite::Couple, 1)).collect();
        arm(plan);
        let dec: Vec<bool> = (0..32).map(|_| decide(ChaosSite::Decouple, 1)).collect();
        disarm();
        assert_ne!(couple, dec, "same key, different sites, same stream");
    }

    #[test]
    fn fired_counts_track_decisions() {
        let _g = TEST_LOCK.lock().unwrap();
        arm(ChaosPlan {
            seed: 1,
            forced_yield_per_1024: 1024,
            biased_pop_per_1024: 0,
            idle_flip_per_1024: 0,
        });
        for _ in 0..5 {
            assert!(decide(ChaosSite::Couple, 9));
        }
        assert!(!bias_pop(), "zero rate never fires");
        let fired = fired_counts();
        disarm();
        assert_eq!(fired[ChaosSite::Couple as usize], 5);
        assert_eq!(fired[ChaosSite::Pop as usize], 0);
    }

    #[test]
    fn splitmix_and_fnv_are_stable() {
        // Pin the constants: replayability across builds depends on them.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
