//! Staying home (`park.rs`, "Staying home"; DESIGN.md §4): a `decouple()`
//! whose last decoupled stretch was shorter than a hand-over keeps the UC on
//! its own KC instead, whoever else is awake — it clears the UC's flag and
//! switches nothing, as the `couple()` that follows sets it — and a
//! `yield_now()` there is the kernel's yield until the stretch outlives the
//! break-even.
//!
//! A binary of its own, and every test takes [`SERIAL`]: three tests arm the
//! kernel's process-global fault plan with `delay_wake_per_1024: 1024` —
//! which makes *every* `futex_wake` cost 50 µs plus timer slack, and makes
//! `injected_counts()[DelayWake]` an exact count of the calls — and the
//! exact-count ones want the machine to themselves.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ulp_core::ulp_kernel::fault::{self, FaultKind, FaultPlan};
use ulp_core::{
    couple, coupled_scope, decouple, is_coupled, pending_couplers, sys, yield_now, IdlePolicy,
    Runtime, StatsSnapshot, TraceEvent,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// The runtime's stats, from inside a ULP.
fn my_stats() -> StatsSnapshot {
    ulp_core::current::current_runtime()
        .expect("inside a runtime")
        .stats
        .snapshot()
}

/// Twice `park.rs`'s `HOME_BREAK_EVEN_NS`: a stretch this old has outlived it.
const PAST_THE_BREAK_EVEN: Duration = Duration::from_micros(100);

/// From a decoupled UC: run coupled scopes — long enough for the scheduler to
/// fall asleep behind them, which the tests that count `futex_wake` calls
/// want — until a `decouple()` stays home, and return the number of scopes
/// that took. The first may leave by rule (the stretch before it gave no
/// evidence yet, or a long one).
fn go_home() -> u32 {
    for scopes in 1..=200 {
        let homes = my_stats().decouple_homes;
        coupled_scope(|| sys::sleep(Duration::from_micros(300)).unwrap()).unwrap();
        if my_stats().decouple_homes > homes {
            return scopes;
        }
    }
    panic!("no decouple() stayed home in 200 scopes: {:?}", my_stats());
}

/// Every `futex_wake` delayed (and thereby counted) from here on.
fn count_futex_wakes() -> impl Drop {
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            fault::disarm();
        }
    }
    fault::arm(FaultPlan {
        seed: 1,
        spurious_wake_per_1024: 0,
        eintr_per_1024: 0,
        eagain_per_1024: 0,
        short_read_per_1024: 0,
        delay_wake_per_1024: 1024,
    });
    Disarm
}

fn futex_wakes() -> u64 {
    fault::injected_counts()[FaultKind::DelayWake as usize]
}

/// A lone BLT's round trip from home is a state change, not a trip: 1
/// couple, 1 decouple that stays, 1 dispatch — its own KC's — and no context
/// switch, no TLS load, no KC sleep and nobody in the process woken.
#[test]
fn home_round_trip_switches_nothing_and_wakes_nobody() {
    const PAIRS: u64 = 8;
    let _serial = serial();
    let _counted = count_futex_wakes();
    let rt = Runtime::new();
    assert_eq!(rt.config().idle_policy, IdlePolicy::Adaptive);
    let h = rt.spawn("lone", move || {
        decouple().unwrap();
        // A stall that makes one stretch look long sends that round through
        // a scheduler: measure again — the claim is about round trips that
        // stay.
        for _attempt in 0..50 {
            go_home();
            let (before, wakes) = (my_stats(), futex_wakes());
            for _ in 0..PAIRS {
                coupled_scope(|| sys::getpid().unwrap()).unwrap();
            }
            let d = my_stats().delta(&before);
            assert_eq!((d.couples, d.decouples), (PAIRS, PAIRS));
            assert_eq!(d.scheduler_dispatches, PAIRS, "{d:?}");
            assert_eq!((d.yields, d.couple_handoffs), (0, 0));
            if d.decouple_homes == PAIRS {
                assert_eq!((d.context_switches, d.tls_loads), (0, 0), "{d:?}");
                assert_eq!(d.kc_blocks, 0, "the KC slept at home: {d:?}");
                assert_eq!(futex_wakes() - wakes, 0, "somebody was woken: {d:?}");
                return 0;
            }
        }
        panic!("never saw {PAIRS} round trips in a row stay home");
    });
    assert_eq!(h.wait(), 0);
    assert!(rt.violations().is_empty());
}

/// A signal cannot be missed at home: sent by another thread while the UC is
/// at home and decoupled, it waits — the UC's flag says decoupled, so no
/// safe point runs — and its handler runs exactly once, at the next
/// `couple()`, which is a home one.
#[test]
fn a_signal_sent_to_a_ulp_at_home_runs_once_at_its_next_couple() {
    use ulp_core::ulp_kernel::Signal;
    let _serial = serial();
    let rt = Runtime::new();
    let (home, sent) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let fired = Arc::new(AtomicU32::new(0));
    let (at_home, was_sent, handled) = (home.clone(), sent.clone(), fired.clone());
    let h = rt.spawn("signalled", move || {
        let count = handled.clone();
        ulp_core::on_signal(Signal::SigUsr1, move |_| {
            count.fetch_add(1, Ordering::AcqRel);
        });
        let kc = std::thread::current().id();
        decouple().unwrap();
        go_home();
        at_home.store(true, Ordering::Release);
        // Mid-stretch, at home (an OS yield is not a `yield_now()`).
        while !was_sent.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        assert_eq!(std::thread::current().id(), kc, "left home");
        assert_eq!(is_coupled(), Some(false));
        assert_eq!(handled.load(Ordering::Acquire), 0, "ran while decoupled");
        let before = my_stats();
        couple().unwrap();
        let d = my_stats().delta(&before);
        assert_eq!(
            (d.couples, d.context_switches),
            (1, 0),
            "not a home couple: {d:?}"
        );
        assert_eq!(handled.load(Ordering::Acquire), 1, "not run at the couple");
        decouple().unwrap();
        for _ in 0..4 {
            coupled_scope(|| sys::getpid().unwrap()).unwrap();
        }
        assert_eq!(handled.load(Ordering::Acquire), 1, "run twice");
        0
    });
    while !home.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    rt.kernel().sys_kill(h.pid(), Signal::SigUsr1).unwrap();
    sent.store(true, Ordering::Release);
    assert_eq!(h.wait(), 0);
    assert_eq!(fired.load(Ordering::Acquire), 1);
}

/// A masked signal stays pending across round trips from home, and the
/// first `couple()` after the unmask delivers it.
#[test]
fn a_masked_signal_waits_at_home_for_the_unmask() {
    use ulp_core::ulp_kernel::{MaskHow, SigSet, Signal};
    let _serial = serial();
    let rt = Runtime::new();
    let h = rt.spawn("masked", || {
        let fired = Arc::new(AtomicU32::new(0));
        let count = fired.clone();
        ulp_core::on_signal(Signal::SigUsr2, move |_| {
            count.fetch_add(1, Ordering::AcqRel);
        });
        let usr2 = SigSet::with(&[Signal::SigUsr2]);
        sys::sigprocmask(MaskHow::Block, usr2).unwrap();
        sys::kill(sys::getpid().unwrap(), Signal::SigUsr2).unwrap();
        decouple().unwrap();
        go_home();
        let before = my_stats();
        for _ in 0..8 {
            let pending = coupled_scope(|| sys::sigpending().unwrap()).unwrap();
            assert!(pending.contains(Signal::SigUsr2), "{pending:?}");
            assert_eq!(fired.load(Ordering::Acquire), 0, "delivered while masked");
        }
        let d = my_stats().delta(&before);
        assert!(d.decouple_homes > 0, "no round trip stayed home: {d:?}");
        coupled_scope(|| sys::sigprocmask(MaskHow::Unblock, usr2).unwrap()).unwrap();
        assert_eq!(
            fired.load(Ordering::Acquire),
            0,
            "no couple since the unmask"
        );
        couple().unwrap();
        assert_eq!(
            fired.load(Ordering::Acquire),
            1,
            "not delivered at the couple"
        );
        assert!(sys::sigpending().unwrap().is_empty());
        decouple().unwrap();
        0
    });
    assert_eq!(h.wait(), 0);
}

/// The evidence for staying must not contain the wake-up it is meant to
/// save. Here every `futex_wake` takes 50 µs and more before it wakes
/// anybody, so a stretch timed from `decouple()` — all of `ult_gap` — never
/// gets under its 50 µs bound as long as the UC keeps leaving, and a stay
/// decided on it would never happen. Less `queued`, the part before the
/// scheduler's dispatch, the first stretch after a slow wake already says
/// "came straight back".
#[test]
fn evidence_bootstraps_when_a_scheduler_wake_is_slow() {
    let _serial = serial();
    let _delayed = count_futex_wakes();
    let rt = Runtime::new();
    // The scheduler is asleep by the time the BLT leaves for it.
    std::thread::sleep(Duration::from_millis(5));
    let h = rt.spawn("slow-wakes", || {
        decouple().unwrap();
        assert!(futex_wakes() > 0, "leaving woke (slowly) the scheduler");
        let scopes = go_home();
        assert!(scopes <= 3, "took {scopes} scopes to come home");
        0
    });
    assert_eq!(h.wait(), 0);
}

/// No history, no stay: the very first `decouple()` leaves even though the
/// scheduler has been asleep for 20 ms and nothing is queued.
#[test]
fn first_decouple_never_stays() {
    let _serial = serial();
    let rt = Runtime::new();
    std::thread::sleep(Duration::from_millis(20));
    let h = rt.spawn("first", || {
        let kc = std::thread::current().id();
        decouple().unwrap();
        assert_eq!(my_stats().decouple_homes, 0);
        assert_ne!(std::thread::current().id(), kc, "still on the own KC");
        0
    });
    assert_eq!(h.wait(), 0);
}

/// BLOCKING and BUSYWAIT are the paper's rows: they never stay, whatever
/// the evidence.
#[test]
fn blocking_and_busywait_never_stay() {
    let _serial = serial();
    for idle in [IdlePolicy::Blocking, IdlePolicy::BusyWait] {
        let rt = Runtime::builder().idle_policy(idle).build();
        let h = rt.spawn("paper", || {
            decouple().unwrap();
            for _ in 0..20 {
                coupled_scope(|| sys::sleep(Duration::from_micros(300)).unwrap()).unwrap();
                assert!(!yield_now(), "alone on the scheduler");
            }
            0
        });
        assert_eq!(h.wait(), 0);
        let s = rt.stats().snapshot();
        assert_eq!(s.decouple_homes, 0, "{idle:?}: {s:?}");
        assert_eq!(s.yield_homes, 0, "{idle:?}: {s:?}");
        assert_eq!(s.scheduler_dispatches, 21, "{idle:?}: {s:?}");
    }
}

/// `yield_now()` at home on a young stretch, with nobody else for the KC to
/// serve, is the kernel's yield, as a coupled BLT's is: `false`, the same OS
/// thread, nothing switched, loaded or dispatched, no `Requeue` on the trace
/// and nobody in the process woken.
#[test]
fn yield_at_home_with_nobody_to_serve_is_the_kernels_yield() {
    let _serial = serial();
    let _counted = count_futex_wakes();
    let rt = Runtime::new();
    rt.trace_enable();
    let h = rt.spawn("yielder", || {
        let kc = std::thread::current().id();
        decouple().unwrap();
        // A stall between the `decouple()` that stayed and the yield makes
        // the stretch old and the yield a `Requeue` (the next test): measure
        // again — the claim is about a yield that finds the stretch young.
        for left in 0..50 {
            go_home();
            let (before, wakes) = (my_stats(), futex_wakes());
            if yield_now() {
                continue;
            }
            let d = my_stats().delta(&before);
            assert_eq!(std::thread::current().id(), kc, "left the own KC");
            assert_eq!(is_coupled(), Some(false), "decoupled all the same");
            assert_eq!(d.yield_homes, 1, "{d:?}");
            assert_eq!(
                (d.context_switches, d.tls_loads, d.scheduler_dispatches),
                (0, 0, 0),
                "{d:?}"
            );
            assert_eq!((d.yields, d.couples, d.decouples), (0, 0, 0), "{d:?}");
            assert_eq!(futex_wakes() - wakes, 0, "somebody was woken: {d:?}");
            return left;
        }
        panic!("never saw a yield_now() at home find its stretch young");
    });
    let left = h.wait();
    let requeues = rt
        .take_trace()
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Requeue(_)))
        .count();
    assert_eq!(requeues as i32, left, "only a yield that left is a Requeue");
}

/// A stretch that has outlived the break-even gives the KC up at its next
/// `yield_now()`: it returns `true` with the UC on a scheduler — one
/// `Requeue` — and the next scope works from there.
#[test]
fn a_stretch_past_the_break_even_leaves_at_its_next_yield() {
    let _serial = serial();
    let rt = Runtime::new();
    rt.trace_enable();
    let h = rt.spawn("overstayer", || {
        let kc = std::thread::current().id();
        let pid = sys::getpid().unwrap();
        decouple().unwrap();
        go_home();
        assert_eq!(std::thread::current().id(), kc, "home is the own KC");
        assert_eq!(is_coupled(), Some(false), "and decoupled all the same");
        ulp_core::ulp_kernel::cost::spin_for(PAST_THE_BREAK_EVEN);
        assert!(yield_now(), "a switch happened");
        assert_ne!(std::thread::current().id(), kc, "still on the own KC");
        assert!(!yield_now(), "alone on the scheduler: nothing to switch to");
        assert_eq!(my_stats().yield_homes, 0, "no yield found it young");
        assert_eq!(coupled_scope(|| sys::getpid().unwrap()).unwrap(), pid);
        0
    });
    assert_eq!(h.wait(), 0);
    // On the trace: home dispatch, the one Requeue, then a scheduler's dispatch.
    let id = h.id();
    let hosts: Vec<_> = rt
        .take_trace()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Dispatch { uc, scheduler } if uc == id => Some(Some(scheduler)),
            TraceEvent::Requeue(uc) if uc == id => Some(None),
            _ => None,
        })
        .collect();
    assert_eq!(hosts.iter().filter(|h| h.is_none()).count(), 1, "{hosts:?}");
    let requeue = hosts.iter().position(Option::is_none).unwrap();
    assert_eq!(
        hosts[requeue - 1],
        Some(id),
        "the Requeue leaves a home dispatch"
    );
    assert!(
        matches!(hosts[requeue + 1], Some(host) if host != id),
        "and a scheduler's dispatch answers it: {hosts:?}"
    );
}

/// A system call from a UC at home hits the right kernel context — by a
/// scheduling decision the program cannot count on, so the auditor flags it
/// exactly as it would from a scheduler.
#[test]
fn syscall_at_home_is_still_a_violation() {
    let _serial = serial();
    let rt = Runtime::new();
    let h = rt.spawn("careless", || {
        let pid = sys::getpid().unwrap();
        decouple().unwrap();
        go_home();
        assert_eq!(
            sys::getpid().unwrap(),
            pid,
            "home is the own kernel context"
        );
        0
    });
    assert_eq!(h.wait(), 0);
    assert_eq!(rt.violations().len(), 1, "{:?}", rt.violations());
}

/// A KC that serves a sibling goes idle behind every `decouple()`, and a
/// pool KC behind every pooled ULP's: neither ever stays.
#[test]
fn sibling_bearing_kcs_and_pooled_ulps_never_stay() {
    let _serial = serial();
    let rt = Runtime::builder().pool_kcs(1).build();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_sib = stop.clone();
    let scopes = || {
        for _ in 0..30 {
            coupled_scope(|| sys::sleep(Duration::from_micros(300)).unwrap()).unwrap();
        }
    };
    let primary = rt.spawn("primary", move || {
        decouple().unwrap();
        scopes();
        stop.store(true, Ordering::Release);
        0
    });
    // Mostly asleep on the shared KC, so the scheduler sleeps too.
    let sibling = primary
        .spawn_sibling("sibling", move || {
            while !stop_sib.load(Ordering::Acquire) {
                coupled_scope(|| sys::sleep(Duration::from_micros(300)).unwrap()).unwrap();
            }
            0
        })
        .unwrap();
    assert_eq!(sibling.wait(), 0);
    assert_eq!(primary.wait(), 0);
    let pooled = rt
        .spawn_pooled("pooled", move || {
            scopes();
            0
        })
        .unwrap();
    assert_eq!(pooled.wait(), 0);
    let s = rt.stats().snapshot();
    assert_eq!(s.decouple_homes, 0, "{s:?}");
}

/// A sibling registered while the primary is at home finds the KC busy, as
/// if the primary were coupled: its request waits in `pending` and is served
/// — first, the queue is FIFO — at the primary's next `couple()` or
/// `yield_now()`.
#[test]
fn sibling_registered_while_primary_is_home_is_served_next() {
    let _serial = serial();
    for leave_by_yield in [false, true] {
        let rt = Runtime::new();
        let home = Arc::new(AtomicBool::new(false));
        let order = Arc::new(AtomicU32::new(0));
        let (at_home, turn) = (home.clone(), order.clone());
        let primary = rt.spawn("primary", move || {
            decouple().unwrap();
            go_home();
            at_home.store(true, Ordering::Release);
            // Stay put (an OS yield is not a `yield_now()`) until the
            // sibling's request is parked on this KC.
            while pending_couplers() != Some(1) {
                std::thread::yield_now();
            }
            if leave_by_yield {
                assert!(yield_now());
            }
            couple().unwrap();
            let mine = turn.fetch_add(1, Ordering::AcqRel);
            decouple().unwrap();
            mine as i32
        });
        while !home.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let turn = order.clone();
        let sibling = primary
            .spawn_sibling("late", move || {
                couple().unwrap();
                let mine = turn.fetch_add(1, Ordering::AcqRel);
                decouple().unwrap();
                mine as i32
            })
            .unwrap();
        assert_eq!(sibling.wait(), 0, "the sibling's request was first in");
        assert_eq!(primary.wait(), 1);
    }
}

/// Staying is decided from the UC's own evidence, not from who is asleep:
/// four BLTs loop `coupled_scope(getpid); yield_now()` while a fifth keeps
/// the one scheduler busy in a `yield_now()` loop of its own — so no
/// `decouple()` ever finds the scheduler asleep — and they stay home all
/// the same, their KCs never sleeping, without starving the fifth.
#[test]
fn staying_needs_no_sleeping_scheduler() {
    const BLTS: u64 = 4;
    const OPS: u64 = 2_000;
    let _serial = serial();
    let rt = Runtime::new();
    let stop = Arc::new(AtomicBool::new(false));
    let spins = Arc::new(AtomicU64::new(0));
    let (stopped, spun) = (stop.clone(), spins.clone());
    let ring = rt.spawn("ring", move || {
        decouple().unwrap();
        while !stopped.load(Ordering::Acquire) {
            ulp_core::stall();
            spun.fetch_add(1, Ordering::Relaxed);
        }
        0
    });
    // A failed assertion below must end the ring too, or the runtime's drop
    // waits for it for ever.
    struct Stop(Arc<AtomicBool>);
    impl Drop for Stop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let _stop = Stop(stop);
    while spins.load(Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }
    // In a minute when the host has one core to give, a looper's stretch —
    // it contains the other four threads' turns — runs to the break-even by
    // itself: measure again. With the sleepers gate back no attempt passes.
    for attempt in 1..=5 {
        let before = (rt.stats().snapshot(), spins.load(Ordering::Relaxed));
        let loopers: Vec<_> = (0..BLTS)
            .map(|i| {
                rt.spawn(&format!("looper{i}"), || {
                    let pid = sys::getpid().unwrap();
                    decouple().unwrap();
                    for _ in 0..OPS {
                        assert_eq!(coupled_scope(|| sys::getpid().unwrap()).unwrap(), pid);
                        yield_now();
                    }
                    0
                })
            })
            .collect();
        for h in &loopers {
            assert_eq!(h.wait(), 0);
        }
        let d = rt.stats().snapshot().delta(&before.0);
        let ring_turns = spins.load(Ordering::Relaxed) - before.1;
        eprintln!(
            "beside an awake scheduler, attempt {attempt}: {} of {} decouples stayed home, \
             {} KC blocks, {ring_turns} ring turns",
            d.decouple_homes, d.decouples, d.kc_blocks
        );
        // Each looper's first `decouple()` has no history and leaves by rule.
        assert_eq!(d.decouples, BLTS * (OPS + 1), "{d:?}");
        assert!(ring_turns > 0, "the scheduler's own UC starved: {d:?}");
        assert!(rt.violations().is_empty());
        if d.decouple_homes * 10 >= BLTS * OPS * 9 && d.kc_blocks * 20 < BLTS * OPS {
            drop(_stop);
            assert_eq!(ring.wait(), 0);
            return;
        }
    }
    panic!("never saw 90 % of the decouples stay home with under 0.05 KC blocks per op");
}

/// The valve: a UC that *waits* on `yield_now()` does not wait at home. 16
/// BLTs come home and meet at a barrier they poll with `yield_now()`, held
/// shut for 5 ms: each hands its KC back once its stretch has outlived the
/// break-even (one `Requeue`) and waits in the scheduled pool, where one
/// scheduler thread runs the ring — not 16 OS threads yielding at each other
/// on two cores.
#[test]
fn yield_waiters_at_home_rejoin_the_pool() {
    const BLTS: usize = 16;
    let _serial = serial();
    let rt = Runtime::new();
    let open = Arc::new(AtomicBool::new(false));
    let (arrived, left) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
    let waiters: Vec<_> = (0..BLTS)
        .map(|i| {
            let (open, arrived, left) = (open.clone(), arrived.clone(), left.clone());
            rt.spawn(&format!("waiter{i}"), move || {
                let kc = std::thread::current().id();
                let pid = sys::getpid().unwrap();
                decouple().unwrap();
                // (`go_home()` reads the runtime's counter: another's stay.)
                while std::thread::current().id() != kc {
                    coupled_scope(|| sys::sleep(Duration::from_micros(300)).unwrap()).unwrap();
                }
                arrived.fetch_add(1, Ordering::AcqRel);
                // At home the only switch `yield_now()` makes is the Requeue.
                let mut requeues = 0;
                while !open.load(Ordering::Acquire) {
                    let was_home = std::thread::current().id() == kc;
                    if yield_now() && was_home {
                        assert_ne!(std::thread::current().id(), kc);
                        requeues += 1;
                    }
                }
                assert_eq!(coupled_scope(|| sys::getpid().unwrap()).unwrap(), pid);
                left.fetch_add(1, Ordering::AcqRel);
                requeues
            })
        })
        .collect();
    // The watchdog: a waiter that never comes back fails the test, not the job.
    let deadline = Instant::now() + Duration::from_secs(60);
    let all = |count: &AtomicU32| {
        while count.load(Ordering::Acquire) != BLTS as u32 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        count.load(Ordering::Acquire) == BLTS as u32
    };
    let all_arrived = all(&arrived);
    std::thread::sleep(Duration::from_millis(5));
    open.store(true, Ordering::Release);
    assert!(all_arrived, "not every waiter came home in 60 s");
    assert!(
        all(&left),
        "waiters still at the barrier 60 s after they set out: {:?}",
        rt.stats().snapshot()
    );
    for (i, h) in waiters.iter().enumerate() {
        let requeues = h.wait();
        assert!(
            requeues >= 1,
            "waiter{i} polled the barrier from home for 5 ms ({requeues} requeues)"
        );
    }
    assert!(rt.violations().is_empty());
}

/// A UC at home that waits on an event gives its KC back to the trampoline
/// — one context switch, no yield, as a wait away gives back its scheduler
/// — and the `set()` puts it on the run queue, so a scheduler resumes it:
/// two switches in all. The setter sets once the departure is counted.
#[test]
fn an_event_wait_at_home_leaves_through_the_trampoline() {
    let _serial = serial();
    let rt = Runtime::new();
    let go = Arc::new(ulp_core::UlpEvent::new());
    let (waiting, switches) = std::sync::mpsc::channel();
    let h = rt.spawn("home-waiter", {
        let go = go.clone();
        move || {
            let kc = std::thread::current().id();
            let pid = sys::getpid().unwrap();
            decouple().unwrap();
            go_home();
            assert_eq!(std::thread::current().id(), kc, "at home");
            let before = my_stats();
            waiting.send(before.context_switches).unwrap();
            go.wait();
            let d = my_stats().delta(&before);
            assert_ne!(std::thread::current().id(), kc, "resumed at home");
            assert_eq!((d.context_switches, d.yields), (2, 0), "{d:?}");
            assert_eq!(coupled_scope(|| sys::getpid().unwrap()).unwrap(), pid);
            0
        }
    });
    let before = switches.recv().unwrap();
    while rt.stats().snapshot().context_switches == before {
        std::thread::sleep(Duration::from_millis(1));
    }
    go.set();
    assert_eq!(h.wait(), 0);
}
