//! Canonical trace digests for replay checking.
//!
//! "Reproducible from a single seed" is only a claim until two runs of the
//! same seed can be compared mechanically. The obstacle is that a raw
//! trace is *not* byte-stable across runs even when the schedule is:
//! timestamps differ, shard assignment differs, and the global sort by
//! timestamp can interleave *independent* BLTs' events differently when
//! wall-clock durations wobble.
//!
//! The canonical form removes exactly the unstable parts and nothing else:
//!
//! - **Timestamps and shard ids are dropped** (`at_ns`, `kc`).
//! - **Only workload BLTs' events are kept**, each event attributed to the
//!   BLT that *performs* it (a `Yield` to its `from` side, a `Dispatch` to
//!   the dispatched UC). Scheduler identities, the root thread and parked
//!   trampolines (`BltId(0)`) carry timing-dependent events — idle parks,
//!   futex spans — that say nothing about the workload schedule.
//! - **Events are grouped into per-BLT subsequences** in spawn order, not
//!   the global interleaving: one BLT's events are causally ordered by its
//!   own execution, so its subsequence is schedule-stable, while the
//!   relative order of two independent BLTs' events is an accident of the
//!   clock.
//! - **BLT ids are relabelled densely by spawn order** (runtime-global id
//!   allocation may be perturbed by scheduler startup); ids that never
//!   spawned map to `0`.
//!
//! Two runs of the same seed must produce byte-identical canonical forms —
//! [`bytes`] — and therefore equal [`canonical`] hashes. The chain cell
//! (single worker, single scheduler) is the harness's designated replay
//! cell; multi-worker cells race workload against workload, which no
//! seeding can pin down.

use std::collections::HashMap;
use ulp_core::chaos::fnv1a;
use ulp_core::{BltId, TraceEvent, TraceRecord};

/// The BLT an event is attributed to, or `None` for events that never
/// enter the canonical form (KC idle markers).
fn primary(event: &TraceEvent) -> Option<BltId> {
    match *event {
        TraceEvent::Spawn(b)
        | TraceEvent::Decouple(b)
        | TraceEvent::CoupleRequest(b)
        | TraceEvent::Coupled(b)
        | TraceEvent::Wait(b)
        | TraceEvent::Terminate(b) => Some(b),
        TraceEvent::Dispatch { uc, .. } => Some(uc),
        TraceEvent::Yield { from, .. } => Some(from),
        TraceEvent::Signal { uc, .. } => Some(uc),
        TraceEvent::SyscallEnter { uc, .. } => Some(uc),
        TraceEvent::SyscallExit { uc, .. } => Some(uc),
        TraceEvent::KcBlocked(_) => None,
        // Handoff vs. queued dispatch is a *timing* accident (whether a
        // waiter had already parked in `pending` when the decouple ran),
        // not schedule-relevant state: the same seed may take either path
        // between replays while the Decouple/Coupled bracket stays fixed.
        // Keeping it out of the canonical form keeps replay digests stable.
        TraceEvent::CoupleHandoff { .. } => None,
        // Likewise staying home: whether a `decouple()` found its last
        // stretch short is timing, and only `Adaptive` — which no replay
        // cell runs — ever stays. A home dispatch is a `Dispatch` like any
        // other; the `Requeue` of a `yield_now()` at home stays out.
        TraceEvent::Requeue(_) => None,
        // Wake edges are pure timing attribution (who happened to end a
        // wait, and how long it took) layered on the schedule the other
        // events already pin down — same exclusion rationale as handoffs.
        TraceEvent::Wake { .. } => None,
    }
}

/// Flatten one event to fixed canonical words: a tag plus its
/// schedule-relevant payload, with every BLT id already relabelled.
fn words(event: &TraceEvent, relabel: &HashMap<BltId, u64>) -> [u64; 4] {
    let r = |b: BltId| relabel.get(&b).copied().unwrap_or(0);
    match *event {
        TraceEvent::Spawn(b) => [0, r(b), 0, 0],
        TraceEvent::Dispatch { uc, .. } => [1, r(uc), 0, 0],
        TraceEvent::Decouple(b) => [2, r(b), 0, 0],
        TraceEvent::CoupleRequest(b) => [3, r(b), 0, 0],
        TraceEvent::Coupled(b) => [4, r(b), 0, 0],
        TraceEvent::Yield { from, to } => [5, r(from), r(to), 0],
        TraceEvent::Terminate(b) => [6, r(b), 0, 0],
        TraceEvent::KcBlocked(b) => [7, r(b), 0, 0],
        TraceEvent::Signal { uc, signal } => [8, r(uc), u64::from(signal), 0],
        TraceEvent::SyscallEnter { uc, sysno, coupled } => {
            [9, r(uc), sysno as u64, u64::from(coupled)]
        }
        TraceEvent::SyscallExit {
            uc,
            sysno,
            coupled,
            errno,
        } => [
            10,
            r(uc),
            sysno as u64,
            (u64::from(coupled) << 32) | (errno as u32 as u64),
        ],
        // Unreachable through bytes() — primary() filters handoffs out —
        // but the match stays exhaustive for when the policy changes.
        TraceEvent::CoupleHandoff { from, to } => [11, r(from), r(to), 0],
        TraceEvent::Requeue(b) => [13, r(b), 0, 0],
        TraceEvent::Wait(b) => [14, r(b), 0, 0],
        TraceEvent::Wake {
            waker, wakee, site, ..
        } => [12, r(waker), r(wakee), site as u64],
    }
}

/// The canonical byte string of a trace: per-BLT event subsequences in
/// spawn order, each event as little-endian canonical words. Two replays
/// of the same seed in the replay cell must produce *byte-equal* output.
pub fn bytes(trace: &[TraceRecord]) -> Vec<u8> {
    // Dense relabelling by spawn order.
    let mut relabel: HashMap<BltId, u64> = HashMap::new();
    for rec in trace {
        if let TraceEvent::Spawn(b) = rec.event {
            let next = relabel.len() as u64 + 1;
            relabel.entry(b).or_insert(next);
        }
    }
    // Per-BLT subsequences, keyed by dense label so output order is
    // spawn order.
    let mut seqs: Vec<Vec<u8>> = vec![Vec::new(); relabel.len()];
    for rec in trace {
        let Some(p) = primary(&rec.event) else {
            continue;
        };
        let Some(&label) = relabel.get(&p) else {
            continue; // scheduler / root / vacated-KC event
        };
        let w = words(&rec.event, &relabel);
        let seq = &mut seqs[(label - 1) as usize];
        for x in w {
            seq.extend_from_slice(&x.to_le_bytes());
        }
    }
    let mut out = Vec::new();
    for (i, seq) in seqs.iter().enumerate() {
        // Length-prefix each subsequence so concatenation is injective.
        out.extend_from_slice(&(i as u64 + 1).to_le_bytes());
        out.extend_from_slice(&(seq.len() as u64).to_le_bytes());
        out.extend_from_slice(seq);
    }
    out
}

/// FNV-1a hash of [`bytes`] — the run digest reported by the harness.
pub fn canonical(trace: &[TraceRecord]) -> u64 {
    fnv1a(&bytes(trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ns: u64, kc: u32, event: TraceEvent) -> TraceRecord {
        TraceRecord { at_ns, kc, event }
    }

    #[test]
    fn timestamps_and_shards_do_not_matter() {
        let a = [
            rec(10, 0, TraceEvent::Spawn(BltId(7))),
            rec(20, 0, TraceEvent::Decouple(BltId(7))),
        ];
        let b = [
            rec(999, 3, TraceEvent::Spawn(BltId(7))),
            rec(1234, 1, TraceEvent::Decouple(BltId(7))),
        ];
        assert_eq!(canonical(&a), canonical(&b));
    }

    #[test]
    fn raw_ids_are_relabelled_by_spawn_order() {
        let a = [
            rec(1, 0, TraceEvent::Spawn(BltId(5))),
            rec(2, 0, TraceEvent::Terminate(BltId(5))),
        ];
        let b = [
            rec(1, 0, TraceEvent::Spawn(BltId(9))),
            rec(2, 0, TraceEvent::Terminate(BltId(9))),
        ];
        assert_eq!(canonical(&a), canonical(&b));
    }

    #[test]
    fn independent_blt_interleaving_does_not_matter() {
        // Same per-BLT subsequences, different global interleaving.
        let a = [
            rec(1, 0, TraceEvent::Spawn(BltId(1))),
            rec(2, 0, TraceEvent::Spawn(BltId(2))),
            rec(3, 0, TraceEvent::Decouple(BltId(1))),
            rec(4, 0, TraceEvent::Decouple(BltId(2))),
            rec(5, 0, TraceEvent::Terminate(BltId(1))),
            rec(6, 0, TraceEvent::Terminate(BltId(2))),
        ];
        let b = [
            rec(1, 0, TraceEvent::Spawn(BltId(1))),
            rec(2, 0, TraceEvent::Spawn(BltId(2))),
            rec(3, 0, TraceEvent::Decouple(BltId(2))),
            rec(4, 0, TraceEvent::Decouple(BltId(1))),
            rec(5, 0, TraceEvent::Terminate(BltId(2))),
            rec(6, 0, TraceEvent::Terminate(BltId(1))),
        ];
        assert_eq!(canonical(&a), canonical(&b));
    }

    #[test]
    fn event_order_within_one_blt_matters() {
        let a = [
            rec(1, 0, TraceEvent::Spawn(BltId(1))),
            rec(2, 0, TraceEvent::Decouple(BltId(1))),
            rec(
                3,
                0,
                TraceEvent::Dispatch {
                    uc: BltId(1),
                    scheduler: BltId(99),
                },
            ),
        ];
        let b = [
            rec(1, 0, TraceEvent::Spawn(BltId(1))),
            rec(
                2,
                0,
                TraceEvent::Dispatch {
                    uc: BltId(1),
                    scheduler: BltId(99),
                },
            ),
            rec(3, 0, TraceEvent::Decouple(BltId(1))),
        ];
        assert_ne!(canonical(&a), canonical(&b));
    }

    #[test]
    fn scheduler_noise_is_invisible() {
        let a = [
            rec(1, 0, TraceEvent::Spawn(BltId(1))),
            rec(2, 0, TraceEvent::Terminate(BltId(1))),
        ];
        let b = [
            rec(1, 0, TraceEvent::Spawn(BltId(1))),
            rec(2, 1, TraceEvent::KcBlocked(BltId(42))),
            rec(
                3,
                1,
                TraceEvent::SyscallEnter {
                    uc: BltId(0),
                    sysno: ulp_core::Sysno::Getpid,
                    coupled: true,
                },
            ),
            rec(4, 0, TraceEvent::Terminate(BltId(1))),
        ];
        assert_eq!(canonical(&a), canonical(&b));
    }

    #[test]
    fn errno_differences_matter() {
        // An injected EINTR must show up in the digest: same schedule,
        // different kernel behaviour, different run.
        let mk = |errno| {
            [
                rec(1, 0, TraceEvent::Spawn(BltId(1))),
                rec(
                    2,
                    0,
                    TraceEvent::SyscallExit {
                        uc: BltId(1),
                        sysno: ulp_core::Sysno::Read,
                        coupled: true,
                        errno,
                    },
                ),
            ]
        };
        assert_ne!(canonical(&mk(0)), canonical(&mk(4)));
    }
}
