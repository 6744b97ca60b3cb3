//! Integration tests for the BLT/ULP runtime: lifecycle, the
//! couple/decouple protocol of Table I, system-call consistency, yielding,
//! sibling UCs (M:N), the paper's two idle policies and the default one's
//! idle decision (`idle_decision_*`; the three policies and the handoff
//! fast path get exact-count coverage in `hot_path.rs` and chaos coverage
//! in `ulp-torture`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;
use ulp_core::ulp_kernel::{Errno, OpenFlags};
use ulp_core::{
    couple, coupled_scope, decouple, is_coupled, sys, yield_now, ConsistencyMode, IdlePolicy,
    Runtime, UcKind, UlpLocal,
};

/// The `idle_decision_*` tests measure how idle KCs wait — spin hits, spin
/// periods, KC blocks per couple — and a spin hits only while the threads
/// handing work over have a CPU each. On a 2-vCPU host a neighbouring test
/// in this binary (a couple loop spinning its own two KCs, a burst of BLTs)
/// takes them away and pushes the sibling orbit from 0.002 KC blocks per
/// couple, run alone, up past 0.05. So those tests run alone, the others
/// beside each other.
static CPUS: RwLock<()> = RwLock::new(());

/// Hold the CPUs for a test that measures idle waits.
fn alone() -> RwLockWriteGuard<'static, ()> {
    CPUS.write().unwrap_or_else(PoisonError::into_inner)
}

/// Run beside every test but the ones that measure idle waits.
fn shared() -> RwLockReadGuard<'static, ()> {
    CPUS.read().unwrap_or_else(PoisonError::into_inner)
}

fn rt_with(policy: IdlePolicy, scheds: usize) -> Runtime {
    Runtime::builder()
        .schedulers(scheds)
        .idle_policy(policy)
        .build()
}

#[test]
fn blt_runs_as_klt_and_exits() {
    let _cpu = shared();
    let rt = Runtime::new();
    let h = rt.spawn("plain", || 7);
    assert_eq!(h.wait(), 7);
}

#[test]
fn blt_panic_is_contained() {
    let _cpu = shared();
    let rt = Runtime::new();
    let h = rt.spawn("crasher", || panic!("deliberate"));
    assert_eq!(h.wait(), ulp_core::PANIC_EXIT_STATUS);
    // Runtime still serviceable afterwards.
    let h2 = rt.spawn("after", || 1);
    assert_eq!(h2.wait(), 1);
}

#[test]
fn many_blts_concurrently() {
    let _cpu = shared();
    let rt = Runtime::new();
    let handles: Vec<_> = (0..16)
        .map(|i| rt.spawn(&format!("w{i}"), move || i))
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.wait(), i as i32);
    }
}

#[test]
fn decouple_then_finish() {
    let _cpu = shared();
    // A BLT that decouples and never explicitly couples: the termination
    // path must couple it back (rule 7) and the thread must exit cleanly.
    let rt = rt_with(IdlePolicy::Blocking, 1);
    let h = rt.spawn("roamer", || {
        assert_eq!(is_coupled(), Some(true));
        decouple().unwrap();
        assert_eq!(is_coupled(), Some(false));
        21
    });
    assert_eq!(h.wait(), 21);
}

#[test]
fn couple_restores_original_kc_identity() {
    let _cpu = shared();
    let rt = rt_with(IdlePolicy::Blocking, 1);
    let h = rt.spawn("ident", || {
        let home_pid = sys::getpid().unwrap();
        decouple().unwrap();
        // While decoupled we run on a scheduler KC: its pid differs.
        let foreign_pid = sys::getpid().unwrap();
        assert_ne!(home_pid, foreign_pid, "decoupled UC must see foreign KC");
        couple().unwrap();
        assert_eq!(sys::getpid().unwrap(), home_pid);
        decouple().unwrap();
        // coupled_scope: the paper's enclosing idiom.
        let pid = coupled_scope(|| sys::getpid().unwrap()).unwrap();
        assert_eq!(pid, home_pid);
        assert_eq!(is_coupled(), Some(false), "scope restored decoupled state");
        0
    });
    assert_eq!(h.wait(), 0);
    // The two bare getpid calls while decoupled are violations; the
    // coupled ones are not.
    let violations = rt.violations();
    assert_eq!(
        violations.len(),
        1,
        "exactly one decoupled getpid: {violations:?}"
    );
}

#[test]
fn fd_consistency_demo() {
    let _cpu = shared();
    // The motivating example from §I: open on one KC, write via another.
    let rt = Runtime::builder()
        .schedulers(1)
        .consistency(ConsistencyMode::Record)
        .build();
    let h = rt.spawn("fd-demo", || {
        let fd = sys::open("/data", OpenFlags::WRONLY | OpenFlags::CREAT).unwrap();
        decouple().unwrap();
        // Decoupled: the scheduler KC's FD table does not know `fd`.
        assert_eq!(sys::write(fd, b"lost").unwrap_err(), Errno::EBADF);
        // Properly enclosed, the write succeeds.
        let n = coupled_scope(|| sys::write(fd, b"kept").unwrap()).unwrap();
        assert_eq!(n, 4);
        coupled_scope(|| sys::close(fd).unwrap()).unwrap();
        0
    });
    assert_eq!(h.wait(), 0);
    assert_eq!(rt.kernel().tmpfs().stat("/", "/data").unwrap().size, 4);
}

#[test]
fn consistency_mode_off_records_nothing() {
    let _cpu = shared();
    let rt = Runtime::builder()
        .schedulers(1)
        .consistency(ConsistencyMode::Off)
        .build();
    let h = rt.spawn("quiet", || {
        decouple().unwrap();
        let _ = sys::getpid().unwrap();
        0
    });
    h.wait();
    assert!(rt.violations().is_empty());
}

#[test]
fn yield_ping_pong_two_ulps() {
    let _cpu = shared();
    // Table IV's scenario: two decoupled ULPs yielding to each other on one
    // scheduler.
    let rt = rt_with(IdlePolicy::BusyWait, 1);
    let counter = Arc::new(AtomicUsize::new(0));
    let ready = Arc::new(AtomicUsize::new(0));
    let mk = |name: &str, c: Arc<AtomicUsize>, r: Arc<AtomicUsize>| {
        rt.spawn(name, move || {
            decouple().unwrap();
            // Rendezvous in ULP context so the ping-pong provably overlaps:
            // the second ULP can only announce itself once dispatched, and
            // with one scheduler that dispatch takes a real user-level
            // yield from the first. Without this, one ULP can run all its
            // iterations against an empty run queue before the other even
            // decouples, and no switch ever happens.
            r.fetch_add(1, Ordering::AcqRel);
            while r.load(Ordering::Acquire) < 2 {
                yield_now();
            }
            for _ in 0..1000 {
                c.fetch_add(1, Ordering::Relaxed);
                yield_now();
            }
            0
        })
    };
    let a = mk("ping", counter.clone(), ready.clone());
    let b = mk("pong", counter.clone(), ready.clone());
    assert_eq!(a.wait(), 0);
    assert_eq!(b.wait(), 0);
    assert_eq!(counter.load(Ordering::Relaxed), 2000);
    // Real user-level switches must have happened.
    assert!(rt.stats().snapshot().yields > 0);
}

#[test]
fn yield_alone_is_noop() {
    let _cpu = shared();
    let rt = rt_with(IdlePolicy::Blocking, 1);
    let h = rt.spawn("alone", || {
        decouple().unwrap();
        for _ in 0..100 {
            // No other UC: yield must return false and not hang.
            assert!(!yield_now());
        }
        0
    });
    assert_eq!(h.wait(), 0);
}

#[test]
fn blocking_syscall_does_not_block_other_ulps() {
    let _cpu = shared();
    // The paper's core claim (contribution 2): a BLT in a blocking system
    // call (coupled on its own KC) must not prevent other ULTs from being
    // scheduled.
    let rt = rt_with(IdlePolicy::Blocking, 1);
    let progressed = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));

    let p2 = progressed.clone();
    let blocker = rt.spawn("blocker", move || {
        decouple().unwrap();
        // Enter a long blocking sleep *coupled*: only our own KC sleeps.
        coupled_scope(|| sys::sleep(Duration::from_millis(300)).unwrap()).unwrap();
        // By the time the sleep is done, the runner must have progressed.
        assert!(p2.load(Ordering::Acquire) >= 100);
        0
    });

    let p3 = progressed.clone();
    let r2 = release.clone();
    let runner = rt.spawn("runner", move || {
        decouple().unwrap();
        for _ in 0..100 {
            p3.fetch_add(1, Ordering::Release);
            yield_now();
        }
        r2.store(true, Ordering::Release);
        0
    });

    assert_eq!(runner.wait(), 0);
    assert_eq!(blocker.wait(), 0);
    assert!(release.load(Ordering::Acquire));
}

#[test]
fn busywait_policy_works_end_to_end() {
    let _cpu = shared();
    let rt = rt_with(IdlePolicy::BusyWait, 1);
    let h = rt.spawn("busy", || {
        decouple().unwrap();
        let pid = coupled_scope(|| sys::getpid().unwrap()).unwrap();
        assert!(pid.0 > 1);
        0
    });
    assert_eq!(h.wait(), 0);
    // BUSYWAIT KCs never futex-block.
    assert_eq!(rt.stats().snapshot().kc_blocks, 0);
}

#[test]
fn blocking_policy_blocks_kcs() {
    let _cpu = shared();
    let rt = rt_with(IdlePolicy::Blocking, 1);
    let h = rt.spawn("sleepy", || {
        decouple().unwrap();
        // Stay decoupled long enough for the KC to block at least once.
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(30));
            yield_now();
        }
        coupled_scope(|| 0).unwrap()
    });
    assert_eq!(h.wait(), 0);
    assert!(
        rt.stats().snapshot().kc_blocks > 0,
        "KC should have futex-slept"
    );
}

#[test]
fn couple_decouple_cost_accounting() {
    let _cpu = shared();
    // The paper: one couple+decouple pair = 4 context switches + 2 TLS
    // loads (§VI-C). Verify the counters agree.
    let rt = rt_with(IdlePolicy::BusyWait, 1);
    let h = rt.spawn("acct", || {
        decouple().unwrap();
        0
    });
    h.wait();
    let before = rt.stats().snapshot();
    let h = rt.spawn("acct2", || {
        decouple().unwrap();
        coupled_scope(|| ()).unwrap();
        0
    });
    h.wait();
    let delta = rt.stats().snapshot().delta(&before);
    // coupled_scope's couple + the implicit terminal couple (rule 7: a BLT
    // always terminates coupled with its original KC).
    assert_eq!(delta.couples, 2);
    // decouple() in the body + the one inside coupled_scope.
    assert_eq!(delta.decouples, 2);
    // Each couple costs 2 switches (UC→host, TC→UC) and each decouple 2
    // (UC→TC, host→UC); plus spawn/teardown switches. At minimum:
    assert!(delta.context_switches >= 4, "saw {delta:?}");
    assert!(delta.tls_loads >= 2, "saw {delta:?}");
}

#[test]
fn ulp_local_privatizes_state() {
    let _cpu = shared();
    static COUNTER: UlpLocal<u64> = UlpLocal::new(|| 0);
    let rt = rt_with(IdlePolicy::Blocking, 2);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            rt.spawn(&format!("tls{i}"), move || {
                decouple().unwrap();
                for _ in 0..50 {
                    COUNTER.with(|c| *c += 1);
                    yield_now();
                }
                // Each ULP saw only its own increments despite migrating
                // across kernel contexts.
                COUNTER.with(|c| *c as i32)
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.wait(), 50);
    }
}

#[test]
fn errno_is_per_ulp() {
    let _cpu = shared();
    let rt = rt_with(IdlePolicy::Blocking, 1);
    let h1 = rt.spawn("err1", || {
        let e = sys::open("/missing", OpenFlags::RDONLY).unwrap_err();
        assert_eq!(e, Errno::ENOENT);
        assert_eq!(ulp_core::errno(), Errno::ENOENT.as_raw());
        // A succeeding call clears errno.
        sys::getpid().unwrap();
        assert_eq!(ulp_core::errno(), 0);
        0
    });
    assert_eq!(h1.wait(), 0);
}

#[test]
fn siblings_share_kernel_identity() {
    let _cpu = shared();
    let rt = rt_with(IdlePolicy::Blocking, 1);
    let h = rt.spawn("primary", || {
        let me = sys::getpid().unwrap();
        decouple().unwrap();
        // Hand the KC back eventually; meanwhile record our pid.
        coupled_scope(|| assert_eq!(sys::getpid().unwrap(), me)).unwrap();
        0
    });
    let sib = h
        .spawn_sibling("sibling", {
            let expected = h.pid();
            move || {
                // Coupled system calls from the sibling observe the *same*
                // kernel identity as the primary (§VII: same original KC ->
                // same kernel information).
                let pid = coupled_scope(|| sys::getpid().unwrap()).unwrap();
                assert_eq!(pid, expected);
                5
            }
        })
        .unwrap();
    assert_eq!(sib.wait(), 5);
    assert_eq!(h.wait(), 0);
}

#[test]
fn many_siblings_drain_before_primary_exits() {
    let _cpu = shared();
    let rt = rt_with(IdlePolicy::Blocking, 2);
    let h = rt.spawn("hub", || 0);
    let sibs: Vec<_> = (0..8)
        .map(|i| {
            h.spawn_sibling(&format!("s{i}"), move || {
                for _ in 0..10 {
                    yield_now();
                }
                coupled_scope(|| ()).unwrap();
                i
            })
            .unwrap()
        })
        .collect();
    for (i, s) in sibs.iter().enumerate() {
        assert_eq!(s.wait(), i as i32);
    }
    assert_eq!(h.wait(), 0);
}

#[test]
fn sibling_panic_is_contained() {
    let _cpu = shared();
    let rt = rt_with(IdlePolicy::Blocking, 1);
    let h = rt.spawn("primary", || 0);
    let sib = h.spawn_sibling("bad", || panic!("sibling crash")).unwrap();
    assert_eq!(sib.wait(), ulp_core::PANIC_EXIT_STATUS);
    assert_eq!(h.wait(), 0);
}

/// A sibling's exit status is published last, as a pooled ULP's is: once
/// `wait()` returns, the sibling's stack is already back in the pool.
#[test]
fn sibling_wait_returns_after_its_stack_is_back() {
    let _cpu = shared();
    let rt = rt_with(IdlePolicy::Blocking, 1);
    let h = rt.spawn("hub", || 0);
    // The hub's trampoline serves every sibling's final couple; its stack
    // is taken before the first sibling can terminate, so this one warms it.
    assert_eq!(h.spawn_sibling("warm", || 0).unwrap().wait(), 0);
    let pool = rt.stack_pool();
    let mut early = 0;
    for round in 0..1000 {
        let before = pool.outstanding();
        let sib = h.spawn_sibling("s", move || round).unwrap();
        assert_eq!(sib.wait(), round);
        if pool.outstanding() != before {
            early += 1;
        }
    }
    assert_eq!(
        early, 0,
        "{early} of 1000 sibling waits returned before the stack was back"
    );
    assert_eq!(h.wait(), 0);
}

#[test]
fn oversubscription_many_ulps_few_schedulers() {
    let _cpu = shared();
    // Fig. 6's over-subscription scenario: many more BLTs than scheduler
    // cores, all doing couple/decouple cycles.
    let rt = Runtime::builder()
        .schedulers(2)
        .idle_policy(IdlePolicy::Blocking)
        .build();
    let total = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..12)
        .map(|i| {
            let total = total.clone();
            rt.spawn(&format!("o{i}"), move || {
                decouple().unwrap();
                for _ in 0..20 {
                    coupled_scope(|| {
                        sys::getpid().unwrap();
                    })
                    .unwrap();
                    total.fetch_add(1, Ordering::Relaxed);
                    yield_now();
                }
                0
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.wait(), 0);
    }
    assert_eq!(total.load(Ordering::Relaxed), 240);
}

#[test]
fn self_info_reports_kind() {
    let _cpu = shared();
    let rt = Runtime::new();
    let h = rt.spawn("who", || {
        let (_, pid, kind) = ulp_core::self_info().unwrap();
        assert_eq!(kind, UcKind::Primary);
        assert_eq!(pid, sys::getpid().unwrap());
        0
    });
    assert_eq!(h.wait(), 0);
    assert!(ulp_core::self_id().is_none(), "root thread is not a ULP");
}

#[test]
fn topology_equations() {
    let _cpu = shared();
    let t = ulp_core::Topology {
        nc_prog: 6,
        nc_syscall: 2,
        oversubscription: 3,
    };
    assert_eq!(t.total_cores(), 8); // eq. (1)
    assert_eq!(t.n_blts(), 24); // eq. (2)
}

#[test]
fn decouple_twice_is_noop() {
    let _cpu = shared();
    let rt = rt_with(IdlePolicy::Blocking, 1);
    let h = rt.spawn("dd", || {
        assert!(decouple().unwrap());
        assert!(!decouple().unwrap(), "second decouple is a no-op");
        assert!(couple().unwrap());
        assert!(!couple().unwrap(), "second couple is a no-op");
        0
    });
    assert_eq!(h.wait(), 0);
}

#[test]
fn stress_couple_decouple_under_contention() {
    let _cpu = shared();
    let rt = Runtime::builder()
        .schedulers(2)
        .idle_policy(IdlePolicy::BusyWait)
        .build();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            rt.spawn(&format!("stress{i}"), move || {
                decouple().unwrap();
                let mut acc = 0i32;
                for k in 0..200 {
                    if k % 3 == 0 {
                        yield_now();
                    }
                    acc = coupled_scope(|| acc + 1).unwrap();
                }
                acc
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.wait(), 200);
    }
}

#[test]
fn runtime_shutdown_is_clean() {
    let _cpu = shared();
    let rt = Runtime::new();
    let h = rt.spawn("quickie", || 3);
    assert_eq!(h.wait(), 3);
    rt.shutdown();
    // Second shutdown (and the implicit one in Drop) must be harmless.
    rt.shutdown();
}

/// A ring of 64 decoupled BLTs that only `yield_now()`: member 0 ends the
/// run after `laps` yields of its own, and everybody reports how many
/// yields it got in. The run queue is one FIFO, so a yielding UC goes
/// behind everything already runnable — what `ulpbench`'s `ring_is_fair`
/// check and the yield-based locks of `sync.rs` assume. Returns the
/// per-member counts; panics if the ring had to be stopped from outside
/// (member 0 starved).
fn yield_ring_counts(schedulers: usize, laps: u64) -> Vec<u64> {
    const RING: usize = 64;
    let rt = Runtime::builder().schedulers(schedulers).build();
    let arrived = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..RING)
        .map(|i| {
            let (arrived, stop) = (arrived.clone(), stop.clone());
            let (tx, rx) = std::sync::mpsc::channel();
            let h = rt.spawn(&format!("ring{i}"), move || {
                decouple().unwrap();
                // Count only once the whole ring is on the schedulers.
                arrived.fetch_add(1, Ordering::AcqRel);
                while arrived.load(Ordering::Acquire) < RING && !stop.load(Ordering::Relaxed) {
                    yield_now();
                }
                let mut yields = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    yields += yield_now() as u64;
                    if i == 0 && yields == laps {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                tx.send(yields).unwrap();
                0
            });
            (h, rx)
        })
        .collect();
    // A ring that starves member 0 never stops itself: end it, then fail.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !stop.load(Ordering::Relaxed) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let starved = !stop.swap(true, Ordering::Relaxed);
    let counts: Vec<u64> = handles
        .into_iter()
        .map(|(h, rx)| {
            assert_eq!(h.wait(), 0);
            rx.recv().unwrap()
        })
        .collect();
    assert!(!starved, "member 0 never finished {laps} laps: {counts:?}");
    counts
}

/// One scheduler runs the ring strictly in queue order, so when member 0
/// stops it every member is on the same lap or the next one.
#[test]
fn yield_ring_is_fair_on_one_scheduler() {
    let _cpu = shared();
    let counts = yield_ring_counts(1, 2_000);
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    assert!(max - min <= 1, "min {min} max {max}: {counts:?}");
}

/// Two schedulers pop the one queue concurrently — the first test of
/// `yield_now()` with both awake. An OS preemption of either stalls the one
/// member it was running, so the counts spread, but nobody starves and
/// nobody gets more than twice anybody else's share.
#[test]
fn yield_ring_is_fair_on_two_schedulers() {
    let _cpu = shared();
    let counts = yield_ring_counts(2, 20_000);
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    assert!(
        *min > 0 && *max as f64 / *min as f64 <= 2.0,
        "min {min} max {max}: {counts:?}"
    );
}

#[test]
fn signal_caveat_fcontext_mode() {
    let _cpu = shared();
    // §VII: with fcontext-style switching (default), the signal mask a ULP
    // sets while coupled stays with *its own* kernel context; while the UC
    // runs decoupled, the scheduling KC's process does not carry it —
    // "the signal is delivered to the scheduling KC".
    use ulp_core::ulp_kernel::{MaskHow, SigSet, Signal};
    let rt = Runtime::builder().schedulers(1).build();
    let h = rt.spawn("masker", || {
        // Block SIGUSR1 while coupled: applies to our own process.
        sys::sigprocmask(MaskHow::Block, SigSet::with(&[Signal::SigUsr1])).unwrap();
        let my_pid = sys::getpid().unwrap();
        decouple().unwrap();
        // Decoupled: the executing (scheduler) process's mask is empty, so
        // a signal "to us" delivered at the current KC is NOT blocked.
        let sched_pid = sys::getpid().unwrap(); // scheduler identity
        assert_ne!(sched_pid, my_pid);
        sys::kill(sched_pid, Signal::SigUsr1).unwrap();
        let got = sys::take_signal().unwrap();
        assert_eq!(got, Some(Signal::SigUsr1), "scheduler KC caught the signal");
        // Whereas our own process still blocks it.
        coupled_scope(|| {
            sys::kill(my_pid, Signal::SigUsr1).unwrap();
            assert_eq!(sys::take_signal().unwrap(), None, "masked on our own KC");
        })
        .unwrap();
        0
    });
    assert_eq!(h.wait(), 0);
}

#[test]
fn signal_mask_travels_in_ucontext_mode() {
    let _cpu = shared();
    // The §VII remedy: ucontext-style switching installs the UC's mask on
    // whatever kernel context runs it (at system-call cost).
    use ulp_core::ulp_kernel::{MaskHow, SigSet, Signal};
    let rt = Runtime::builder().schedulers(1).save_sigmask(true).build();
    let h = rt.spawn("carrier", || {
        sys::sigprocmask(MaskHow::Block, SigSet::with(&[Signal::SigUsr2])).unwrap();
        decouple().unwrap();
        // Force a dispatch so install_ulp runs with our recorded mask.
        yield_now();
        let sched_pid = sys::getpid().unwrap();
        sys::kill(sched_pid, Signal::SigUsr2).unwrap();
        // The scheduler KC now carries our mask: the signal stays pending.
        assert_eq!(sys::take_signal().unwrap(), None);
        0
    });
    assert_eq!(h.wait(), 0);
}

/// Idle periods in which any KC of `rt` spun at all.
fn spun_periods(rt: &Runtime) -> u64 {
    let s = rt.stats().snapshot();
    s.park_spin_hits + s.park_spin_misses
}

/// Four BLTs looping `coupled_scope(getpid)` + `yield_now()` on one
/// scheduler: KC futex blocks per operation over 10 000 operations, after
/// 1 000 of warm-up.
fn couple_loop_blocks_per_op(rt: Runtime) -> f64 {
    let ops = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let (ops, stop) = (ops.clone(), stop.clone());
            rt.spawn(&format!("looper{i}"), move || {
                decouple().unwrap();
                while !stop.load(Ordering::Relaxed) {
                    coupled_scope(|| sys::getpid().unwrap()).unwrap();
                    ops.fetch_add(1, Ordering::Relaxed);
                    yield_now();
                }
                0
            })
        })
        .collect();
    let at = |n: usize| {
        while ops.load(Ordering::Relaxed) < n {
            std::thread::sleep(Duration::from_micros(200));
        }
        (ops.load(Ordering::Relaxed), rt.stats().snapshot().kc_blocks)
    };
    let (ops0, blocks0) = at(1_000);
    let (ops1, blocks1) = at(ops0 + 10_000);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        assert_eq!(h.wait(), 0);
    }
    (blocks1 - blocks0) as f64 / (ops1 - ops0) as f64
}

/// The default policy keeps a couple/decouple loop awake: every coupled
/// scope and every decoupled stretch here is short, so the loopers stay home
/// — or, when one has left, scheduler and trampoline spin for each other —
/// and most operations go by without a futex sleep, where BLOCKING pays one
/// per `couple()` (0.00–0.01 against 0.99 on the reference host).
#[test]
fn idle_decision_couple_loop_spins_where_blocking_sleeps() {
    let _cpu = alone();
    assert_eq!(Runtime::new().config().idle_policy, IdlePolicy::Adaptive);
    let adaptive = couple_loop_blocks_per_op(Runtime::new());
    assert!(
        adaptive < 0.5,
        "default policy: {adaptive:.2} KC blocks per couple"
    );
    let blocking = couple_loop_blocks_per_op(rt_with(IdlePolicy::Blocking, 1));
    eprintln!("KC blocks per couple: default {adaptive:.3}, BLOCKING {blocking:.3}");
    assert!(
        blocking > 0.5,
        "BLOCKING must sleep per couple (Table V): {blocking:.2}"
    );
}

/// A primary and its sibling orbit one KC: with two UCs to serve it never
/// keeps either at home, so every scope is a couple request to the KC and
/// every stretch a turn on the scheduler — the hand-over regime no gated
/// workload runs. Those waits are short, so under the default policy the
/// trampoline and the scheduler spin for each other and the KC hardly ever
/// sleeps: 0.0001–0.0002 KC blocks per couple on the reference host in a
/// release build, 0.0004–0.005 in a debug one, 0.5 with `Adaptive`'s spin
/// arm deleted.
#[test]
fn idle_decision_sibling_orbit_spins() {
    let _cpu = alone();
    let rt = Runtime::new();
    ulp_core::sibling_orbit(&rt, 20_000);
    assert!(rt.violations().is_empty());
    let s = rt.stats().snapshot();
    let per_couple = s.kc_blocks as f64 / s.couples as f64;
    eprintln!(
        "sibling orbit: {} KC blocks in {} couples = {per_couple:.4}",
        s.kc_blocks, s.couples
    );
    assert!(per_couple <= 0.05, "{s:?}");
}

/// A UC that has never coupled has no phase history, and nobody spins on a
/// guess: 16 BLTs decouple into a yield ring and their 16 trampolines (and
/// the scheduler, before the first arrives) go straight to sleep. Spinning
/// here is what doubled `yield_ring`'s set-up time under the old streak.
#[test]
fn idle_decision_no_history_no_spin() {
    let _cpu = alone();
    let rt = Runtime::new();
    let handles: Vec<_> = (0..16)
        .map(|i| {
            rt.spawn(&format!("ring{i}"), || {
                decouple().unwrap();
                let t = std::time::Instant::now();
                while t.elapsed() < Duration::from_millis(50) {
                    yield_now();
                }
                0
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.wait(), 0);
    }
    assert_eq!(spun_periods(&rt), 0, "{:?}", rt.stats().snapshot());
    assert!(rt.stats().snapshot().park_sleeps >= 16);
}

/// A scope that blocks in the kernel leads no KC to spin: the wait it ends
/// is timed long, and a short wait timed before it is stale by the time the
/// KC idles again (a 2 ms `read` outlives a sample's millisecond), so the
/// scheduler and the trampoline sleep at once — while the UC sits in its
/// `read`, and when it leaves home after one.
#[test]
fn idle_decision_blocking_scope_announces_nothing() {
    let _cpu = alone();
    const ROUNDS: usize = 8;
    let rt = Runtime::new();
    let (fds_tx, fds) = std::sync::mpsc::channel();
    let round_tx = Arc::new(AtomicUsize::new(0));
    let round_rx = round_tx.clone();
    let reader = rt.spawn("reader", move || {
        let (r, w) = sys::pipe().unwrap();
        fds_tx.send(w).unwrap();
        decouple().unwrap();
        let mut byte = [0u8];
        for round in 1..=ROUNDS {
            // The byte is written 2 ms after this: the read below blocks.
            round_tx.store(round, Ordering::Release);
            assert_eq!(coupled_scope(|| sys::read(r, &mut byte)).unwrap(), Ok(1));
            yield_now();
        }
        0
    });
    // Thread mode: the writer shares the reader's FD table.
    let w = fds.recv().unwrap();
    let writer = rt.spawn_with_identity("writer", reader.pid(), move || {
        for round in 1..=ROUNDS {
            while round_rx.load(Ordering::Acquire) < round {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(2));
            assert_eq!(sys::write(w, b"x"), Ok(1));
        }
        0
    });
    assert_eq!(reader.wait(), 0);
    assert_eq!(writer.wait(), 0);
    assert_eq!(spun_periods(&rt), 0, "{:?}", rt.stats().snapshot());
}

/// Every way a coupled scope can end, under the default policy, with the
/// idle KCs spinning for short waits: a scope that ends in `decouple()`, a
/// primary and a sibling terminating coupled, a panic unwinding through
/// `coupled_scope`, pooled ULPs, and shutdown with a UC coupled. Nothing is
/// registered anywhere, so nothing has to be taken back: the runtime winds
/// down from each.
#[test]
fn idle_decision_survives_every_way_a_scope_ends() {
    let _cpu = alone();
    fn orbit(n: usize) {
        for _ in 0..n {
            coupled_scope(|| ()).unwrap();
        }
    }
    let rt = Runtime::builder().schedulers(1).pool_kcs(2).build();
    // `decouple()`, and a primary that terminates coupled (rule 7).
    let plain = rt.spawn("plain", || {
        decouple().unwrap();
        orbit(200);
        0
    });
    // A primary and a sibling on one KC: direct handoffs between the two,
    // and a sibling that terminates coupled.
    let primary = rt.spawn("primary", || {
        decouple().unwrap();
        orbit(200);
        0
    });
    let sibling = primary
        .spawn_sibling("sibling", || {
            orbit(200);
            0
        })
        .unwrap();
    // A panic unwinding through `coupled_scope` decouples on its way out.
    let panics = rt.spawn("panics", || {
        decouple().unwrap();
        orbit(50);
        let r = std::panic::catch_unwind(|| coupled_scope(|| panic!("deliberate")));
        assert!(r.is_err());
        assert_eq!(is_coupled(), Some(false));
        0
    });
    for status in [plain.wait(), sibling.wait(), primary.wait(), panics.wait()] {
        assert_eq!(status, 0);
    }
    // Pooled ULPs terminate coupled, every one of them.
    for _ in 0..8 {
        let batch: Vec<_> = (0..250)
            .map(|_| {
                rt.spawn_pooled("churn", || {
                    orbit(3);
                    0
                })
                .unwrap()
            })
            .collect();
        for h in batch {
            assert_eq!(h.wait(), 0);
        }
    }
    let s = rt.stats().snapshot();
    assert!(
        s.park_spin_hits > 0,
        "no scheduler ever spun, so nothing above was counted: {s:?}"
    );
    // Shutdown with a UC coupled: it ends coupled, afterwards.
    let (parked_tx, parked) = std::sync::mpsc::channel();
    let (go, go_rx) = std::sync::mpsc::channel::<()>();
    let coupled = rt.spawn("coupled-at-shutdown", move || {
        decouple().unwrap();
        orbit(50);
        couple().unwrap();
        parked_tx.send(()).unwrap();
        go_rx.recv().unwrap();
        0
    });
    parked.recv().unwrap();
    rt.shutdown();
    go.send(()).unwrap();
    assert_eq!(coupled.wait(), 0);
}

#[test]
fn syscall_core_topology_is_accepted() {
    let _cpu = shared();
    // On a 1-CPU host pinning degrades gracefully; the topology plumbing
    // must still deliver correct execution.
    let rt = Runtime::builder()
        .schedulers(1)
        .pin_schedulers(true)
        .syscall_cores(vec![0, 1])
        .build();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            rt.spawn(&format!("pinned{i}"), || {
                decouple().unwrap();
                coupled_scope(|| sys::getpid().unwrap()).unwrap();
                0
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.wait(), 0);
    }
}

#[test]
fn trace_records_the_table_one_sequence() {
    let _cpu = shared();
    use ulp_core::TraceEvent;
    let rt = rt_with(IdlePolicy::Blocking, 1);
    rt.trace_enable();
    let h = rt.spawn("traced", || {
        decouple().unwrap();
        coupled_scope(|| sys::getpid().unwrap()).unwrap();
        0
    });
    assert_eq!(h.wait(), 0);
    rt.trace_disable();
    let trace = rt.take_trace();
    let id = h.id();
    let pos = |needle: &TraceEvent| trace.iter().position(|r| r.event == *needle);

    let spawn = pos(&TraceEvent::Spawn(id)).expect("spawn traced");
    let decouple_at = pos(&TraceEvent::Decouple(id)).expect("decouple traced");
    let dispatch = trace
        .iter()
        .position(|r| matches!(r.event, TraceEvent::Dispatch { uc, .. } if uc == id))
        .expect("dispatch traced");
    let request = pos(&TraceEvent::CoupleRequest(id)).expect("couple request traced");
    let coupled = pos(&TraceEvent::Coupled(id)).expect("coupled traced");
    let term = pos(&TraceEvent::Terminate(id)).expect("terminate traced");

    // The protocol order of Table I, end to end:
    assert!(spawn < decouple_at, "spawn before decouple");
    assert!(decouple_at < dispatch, "decouple publishes before dispatch");
    assert!(
        dispatch < request,
        "UC runs as ULT before requesting couple"
    );
    assert!(request < coupled, "request published before resume on KC0");
    assert!(coupled < term, "terminates after coupling");
}

#[test]
fn trace_disabled_by_default_and_cheap() {
    let _cpu = shared();
    let rt = rt_with(IdlePolicy::Blocking, 1);
    let h = rt.spawn("quiet", || {
        decouple().unwrap();
        0
    });
    h.wait();
    assert!(rt.take_trace().is_empty(), "tracing must be opt-in");
}

#[test]
fn signal_handlers_run_at_couple_safe_points() {
    let _cpu = shared();
    use ulp_core::ulp_kernel::Signal;
    let rt = rt_with(IdlePolicy::Blocking, 1);
    let fired = Arc::new(AtomicUsize::new(0));
    let f2 = fired.clone();
    let h = rt.spawn("handler", move || {
        let f3 = f2.clone();
        ulp_core::on_signal(Signal::SigUsr1, move |_| {
            f3.fetch_add(1, Ordering::SeqCst);
        });
        let my_pid = sys::getpid().unwrap();
        decouple().unwrap();
        // Signal our own process while decoupled: it stays pending (our KC
        // is parked) and nothing runs yet.
        coupled_scope(|| ()).unwrap(); // couple cycle to reach a safe point
                                       // Send while decoupled, then observe at the next safe point.
        sys::kill(my_pid, Signal::SigUsr1).ok(); // decoupled send: scheduler's gate records it
        let before = f2.load(Ordering::SeqCst);
        coupled_scope(|| {
            sys::kill(sys::getpid().unwrap(), Signal::SigUsr1).unwrap();
        })
        .unwrap();
        // coupled_scope's inner kill targeted our own process; the safe
        // point at the *next* couple dispatches it.
        coupled_scope(|| ()).unwrap();
        (f2.load(Ordering::SeqCst) > before) as i32 - 1
    });
    assert_eq!(h.wait(), 0);
    assert!(fired.load(Ordering::SeqCst) >= 1);
}

#[test]
fn poll_signals_is_consistency_aware() {
    let _cpu = shared();
    use ulp_core::ulp_kernel::Signal;
    let rt = rt_with(IdlePolicy::Blocking, 1);
    let h = rt.spawn("poller", move || {
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = hits.clone();
        ulp_core::on_signal(Signal::SigUsr2, move |_| {
            h2.fetch_add(1, Ordering::SeqCst);
        });
        let my_pid = sys::getpid().unwrap();
        sys::kill(my_pid, Signal::SigUsr2).unwrap();
        // Coupled: poll dispatches.
        assert!(ulp_core::poll_signals() >= 1);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        decouple().unwrap();
        // Decoupled: poll refuses to touch the scheduler's queue.
        assert_eq!(ulp_core::poll_signals(), 0);
        0
    });
    assert_eq!(h.wait(), 0);
}

// ---------------------------------------------------------------------------
// Pooled (oversubscribed) ULPs: many kernel identities on a handful of
// shared pool KCs, with recycled slab stacks.
// ---------------------------------------------------------------------------

#[test]
fn pooled_ulp_runs_and_reports_status() {
    let _cpu = shared();
    let rt = Runtime::builder().schedulers(1).pool_kcs(2).build();
    let h = rt.spawn_pooled("pooled", || 42).unwrap();
    assert_eq!(h.wait(), 42);
    assert_eq!(rt.stats().snapshot().pooled_spawned, 1);
}

#[test]
fn pooled_ulp_panic_is_contained() {
    let _cpu = shared();
    let rt = Runtime::builder().schedulers(1).pool_kcs(1).build();
    let h = rt.spawn_pooled("crasher", || panic!("deliberate")).unwrap();
    assert_eq!(h.wait(), ulp_core::PANIC_EXIT_STATUS);
    let h2 = rt.spawn_pooled("after", || 5).unwrap();
    assert_eq!(h2.wait(), 5);
}

#[test]
fn pooled_ulps_own_their_kernel_identity() {
    let _cpu = shared();
    // Many pooled ULPs share one pool KC, but each carries its own pid:
    // a coupled system call must observe the ULP's own process, even when
    // the serve arrived via the decouple direct-handoff path (which must
    // rebind the kernel identity when the pids differ).
    let rt = Runtime::builder()
        .schedulers(1)
        .pool_kcs(1)
        .idle_policy(IdlePolicy::Blocking)
        .build();
    let handles: Vec<_> = (0..32)
        .map(|i| {
            rt.spawn_pooled(&format!("ident-{i}"), move || {
                let observed = coupled_scope(|| sys::getpid().unwrap()).unwrap();
                observed.0 as i32
            })
            .unwrap()
        })
        .collect();
    for h in handles {
        let expect = h.pid();
        assert_eq!(h.wait(), expect.0 as i32, "pooled ULP saw a foreign pid");
    }
}

#[test]
fn pooled_shards_track_kernel_contexts_not_ulps() {
    let _cpu = shared();
    // Regression: stats/trace shards are per KC. The seed-era runtime had
    // one KC per BLT so the distinction was invisible; with pooling, a
    // shard per *spawn* would grow the snapshot fold without bound.
    let rt = Runtime::builder().schedulers(2).pool_kcs(2).build();
    let before_threads = 1 + 2; // builder thread + schedulers
    let handles: Vec<_> = (0..64)
        .map(|i| rt.spawn_pooled(&format!("p{i}"), || 0).unwrap())
        .collect();
    for h in handles {
        assert_eq!(h.wait(), 0);
    }
    let shards = rt.stats().shard_count();
    assert!(
        shards <= before_threads + 2,
        "shard count {shards} grew past thread count (pooled spawns must not register shards)"
    );
    assert_eq!(rt.stats().snapshot().pooled_spawned, 64);
}

#[test]
fn pooled_stacks_recycle_instead_of_accumulating() {
    let _cpu = shared();
    let rt = Runtime::builder().schedulers(1).pool_kcs(1).build();
    for wave in 0..4 {
        let handles: Vec<_> = (0..16)
            .map(|i| rt.spawn_pooled(&format!("w{wave}-{i}"), || 0).unwrap())
            .collect();
        for h in handles {
            assert_eq!(h.wait(), 0);
        }
    }
    let pool = rt.stack_pool();
    // 64 ULPs ran; the high-water mark counts simultaneously-live stacks
    // (sibling/TC stacks included), which waves of 16 keep far below 64.
    assert!(
        pool.peak_outstanding() < 64,
        "peak {} suggests stacks never recycled",
        pool.peak_outstanding()
    );
    assert!(
        pool.stats().0 > 0,
        "later waves must be served the stacks terminated ULPs returned"
    );
    assert_eq!(pool.outstanding(), 0, "all pooled stacks returned");
}
