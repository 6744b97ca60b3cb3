//! The run queue of decoupled user contexts.
//!
//! One global FIFO — the paper prototype's shape: a `ParkQueue` of runnable
//! UCs and the `Parker` (both in `park.rs`) on which idle scheduler KCs
//! sleep instead of spinning (unless the runtime is configured for
//! BUSYWAIT). Every scheduler KC of the runtime pops from this one queue,
//! so dispatch order is enqueue order and a yielding UC always goes behind
//! everything already runnable — the fairness the yield-based locks of
//! `sync.rs` assume.
//!
//! ## The hot path
//!
//! Every `yield`/`decouple` pushes here, and Table IV's yield latency budget
//! is ~150 ns. A push or a pop is one lock acquisition — a single RMW —
//! that links or unlinks the UC; the push also reads the parker's sleeper
//! count inside it. A yield is one such pop and one such push: two locked
//! instructions, no fence, no allocation. [`RunQueue::len`] reads the
//! queue's length mirror: one load, no lock.
//!
//! ## Wake protocol
//!
//! The one in `park.rs`: a push reads `sleepers` inside the queue's
//! critical section; an idle scheduler announces itself and then re-checks
//! the queue under its lock ([`RunQueue::is_empty`]) before it sleeps.
//! Either the push's critical section came first and the re-check sees the
//! UC, or the re-check came first and the push sees the announce and
//! wakes. The version word moves only then, and on [`RunQueue::wake_all`].

use crate::park::{IdleTally, Idled, ParkQueue, Parker};
use crate::uc::{IdlePolicy, UcInner};
use std::sync::Arc;
use std::time::Duration;

/// Longest single sleep of an idle scheduler (it re-checks shutdown and
/// runs the stack scavenger once per pass).
const PARK_TIMEOUT: Duration = Duration::from_millis(20);

/// The queue of decoupled UCs awaiting dispatch by scheduler KCs, and the
/// parker idle schedulers sleep on.
#[derive(Debug)]
pub struct RunQueue {
    /// Runnable UCs, in the order they became runnable.
    queue: ParkQueue,
    /// What idle schedulers sleep on.
    parker: Parker,
    /// The owning runtime's trace gate: when tracing is on, a push stamps
    /// the UC's `wait_since` so the dispatcher can histogram the queue
    /// delay. `None` (standalone queues) means no stamping.
    gate: Option<Arc<crate::trace::TraceGate>>,
}

impl RunQueue {
    /// An empty queue whose idle schedulers wait per `idle_policy`.
    pub fn new(idle_policy: IdlePolicy) -> RunQueue {
        RunQueue {
            queue: ParkQueue::default(),
            parker: Parker::new(idle_policy, PARK_TIMEOUT),
            gate: None,
        }
    }

    /// Attach the runtime's trace gate (called once, while the runtime is
    /// still under construction and the queue has no other users).
    pub(crate) fn set_trace_gate(&mut self, gate: Arc<crate::trace::TraceGate>) {
        self.gate = Some(gate);
    }

    /// Make a UC schedulable: it goes to the back of the queue, and a
    /// scheduler announced asleep is woken.
    pub fn push(&self, uc: Arc<UcInner>) {
        if let Some(g) = &self.gate {
            if g.is_on() {
                // Open the enqueue→dispatch span (one relaxed load when
                // tracing is off — the `gate` Option is a plain field).
                uc.stamp_enqueued(crate::trace::now_ns());
            }
        }
        self.queue.push(uc, &self.parker);
    }

    /// Pop the next runnable UC, if any: the one that has waited longest.
    pub fn pop(&self) -> Option<Arc<UcInner>> {
        // Torture hook: a biased pop drains from the "wrong" end of the
        // queue, so dispatch order degenerates away from FIFO (no-op unless
        // chaos armed).
        self.queue.pop(crate::chaos::bias_pop())
    }

    /// The parker's version word; read *before* the emptiness check that
    /// precedes a [`RunQueue::park`].
    #[inline]
    pub fn version(&self) -> u32 {
        self.parker.version()
    }

    /// Idle until woken (bounded; callers re-check in a loop): announce,
    /// re-check the queue under its lock, sleep — or spin one pass, per the
    /// idle policy (`Parker::park`). `idle` is the caller's idle period.
    pub fn park(&self, seen: u32, idle: &mut IdleTally) -> Idled {
        self.parker.park(seen, idle, || self.is_empty())
    }

    /// Bump the version word and wake every parked scheduler (used on
    /// shutdown so sleepers re-check the shutdown flag).
    pub fn wake_all(&self) {
        self.parker.poke();
    }

    /// Whether no UC is runnable, checked under the queue's lock: this is
    /// the re-check an idle scheduler makes before it sleeps.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty_locked()
    }

    /// Runnable UCs currently queued, from the queue's length mirror — no
    /// lock taken.
    pub fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::uc::{BltId, KcShared, UcKind};
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use ulp_kernel::process::Pid;

    pub(crate) fn dummy_uc(id: u64) -> Arc<UcInner> {
        UcInner::new(
            BltId(id),
            format!("uc{id}"),
            UcKind::Primary,
            Arc::new(KcShared::new(IdlePolicy::BusyWait)),
            Pid(0),
            std::sync::Weak::new(),
            None,
        )
    }

    #[test]
    fn fifo_order_single_consumer() {
        let q = RunQueue::new(IdlePolicy::BusyWait);
        for i in 0..10 {
            q.push(dummy_uc(i));
        }
        assert_eq!(q.len(), 10);
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().id, BltId(i));
        }
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    /// The version word is a wake-up ticket, not a push counter: it moves
    /// when a push finds a scheduler announced asleep, and on `wake_all`.
    #[test]
    fn version_moves_only_for_a_sleeper_or_wake_all() {
        let q = Arc::new(RunQueue::new(IdlePolicy::Blocking));
        let v = q.version();
        q.push(dummy_uc(1));
        assert_eq!(q.version(), v, "nobody announced: the push is silent");
        assert_eq!(q.pop().unwrap().id, BltId(1));
        q.wake_all();
        assert_eq!(q.version(), v + 1, "wake_all always bumps");

        let q2 = q.clone();
        let sleeper = std::thread::spawn(move || {
            let mut idle = IdleTally::default();
            loop {
                let seen = q2.version();
                if let Some(uc) = q2.pop() {
                    return uc.id;
                }
                q2.park(seen, &mut idle);
            }
        });
        while q.parker.announced() == 0 {
            std::thread::yield_now();
        }
        let v = q.version();
        q.push(dummy_uc(2));
        assert!(q.version() > v, "an announced sleeper gets a ticket");
        assert_eq!(sleeper.join().unwrap(), BltId(2));
    }

    #[test]
    fn park_returns_promptly_when_queue_non_empty() {
        let q = RunQueue::new(IdlePolicy::Blocking);
        let seen = q.version();
        q.push(dummy_uc(1)); // silent, but the locked re-check sees it
        let t = std::time::Instant::now();
        q.park(seen, &mut IdleTally::default());
        assert!(t.elapsed() < PARK_TIMEOUT / 2);
    }

    #[test]
    fn blocking_park_woken_by_push() {
        let q = Arc::new(RunQueue::new(IdlePolicy::Blocking));
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            let seen = q2.version();
            if q2.pop().is_none() {
                q2.park(seen, &mut IdleTally::default());
            }
            // Either we were woken or timed out; the UC must be visible now.
            q2.pop()
        });
        std::thread::sleep(Duration::from_millis(10));
        q.push(dummy_uc(7));
        let got = t.join().unwrap();
        assert_eq!(got.unwrap().id, BltId(7));
    }

    #[test]
    fn concurrent_producers_consumers_drain_exactly() {
        let q = Arc::new(RunQueue::new(IdlePolicy::BusyWait));
        let total = 1000u64;
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..(total / 4) {
                        q.push(dummy_uc(p * 1000 + i));
                    }
                })
            })
            .collect();
        let drained = Arc::new(AtomicU32::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                let drained = drained.clone();
                std::thread::spawn(move || loop {
                    if q.pop().is_some() {
                        if drained.fetch_add(1, Ordering::AcqRel) + 1 == total as u32 {
                            return;
                        }
                    } else if drained.load(Ordering::Acquire) >= total as u32 {
                        return;
                    } else {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(drained.load(Ordering::Acquire), total as u32);
        assert!(q.is_empty());
    }
    /// 4 producers × 2 consumers under `Blocking`: every UC
    /// popped exactly once, each producer's UCs in the order it pushed them
    /// (as seen by any one consumer), and every producer descheduled inside
    /// each of its critical sections, so the consumers — and the other
    /// producers — wait on a lock whose holder is not running.
    #[test]
    fn hammer_exactly_once_in_producer_order() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 5_000;
        let q = Arc::new(RunQueue::new(IdlePolicy::Blocking));
        let done = Arc::new(AtomicBool::new(false));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (q, done) = (q.clone(), done.clone());
                std::thread::spawn(move || {
                    let (mut got, mut idle) = (Vec::new(), IdleTally::default());
                    loop {
                        let seen = q.version();
                        if let Some(uc) = q.pop() {
                            got.push(uc.id.0);
                        } else if done.load(Ordering::SeqCst) {
                            return got;
                        } else {
                            q.park(seen, &mut idle);
                        }
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    crate::park::tests::yield_as_lock_holder(true);
                    for i in 0..PER {
                        q.push(dummy_uc(p << 32 | i));
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        done.store(true, Ordering::SeqCst);
        q.wake_all();
        let mut all = Vec::new();
        for c in consumers {
            let got = c.join().unwrap();
            for p in 0..PRODUCERS {
                let mine: Vec<u64> = got.iter().copied().filter(|id| id >> 32 == p).collect();
                assert!(
                    mine.windows(2).all(|w| w[0] < w[1]),
                    "producer {p}'s UCs overtook each other"
                );
            }
            all.extend(got);
        }
        all.sort_unstable();
        let want: Vec<u64> = (0..PRODUCERS)
            .flat_map(|p| (0..PER).map(move |i| p << 32 | i))
            .collect();
        assert_eq!(all, want, "lost or duplicated UCs");
        assert!(q.is_empty());
    }
}
