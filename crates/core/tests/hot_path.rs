//! Hot-path accounting invariants and panic-safety of `coupled_scope`.
//!
//! Table V of the paper prices one `getpid` enclosed in couple()/decouple()
//! at exactly **4 user-level context switches and 2 TLS loads**:
//!
//! 1. couple: UC → host scheduler (the host's TLS register reloads — load 1)
//! 2. the original KC's trampoline resumes the UC (TC↔UC exemption, no load)
//! 3. decouple: UC → trampoline (exempt again)
//! 4. a scheduler dispatches the UC (the UC's TLS register reloads — load 2)
//!
//! A lone BLT under `Adaptive` stays home instead (`park.rs`, "Staying
//! home"): its round trip is Table I with KC₁ = KC₀ on its own stack — **0
//! switches and 0 TLS loads**, one dispatch by its own KC.
//!
//! These tests pin the *exact* counts — not `>=` — under every idle
//! policy, so any stray switch, double count, or lost count introduced in
//! the switch path fails loudly. The counters are sharded per KC; the
//! exactness also proves the shard aggregation loses nothing.

use ulp_core::ulp_kernel::ArchProfile;
use ulp_core::{
    couple, coupled_scope, decouple, pending_couplers, sys, IdlePolicy, Runtime, StatsSnapshot,
    PANIC_EXIT_STATUS,
};

/// Snapshot the runtime's stats from inside a ULP.
fn my_stats() -> StatsSnapshot {
    ulp_core::current::current_runtime()
        .expect("inside a runtime")
        .stats
        .snapshot()
}

fn assert_table5_invariant(idle: IdlePolicy) {
    const PAIRS: u64 = 8;
    let rt = Runtime::builder()
        .schedulers(1)
        .idle_policy(idle)
        .profile(ArchProfile::Native)
        .build();
    let h = rt.spawn("table5", move || {
        decouple().unwrap();
        // One warm-up pair so the trampoline exists and the measurement
        // starts from the steady "decoupled, just dispatched" state.
        coupled_scope(|| ()).unwrap();
        let before = my_stats();
        for _ in 0..PAIRS {
            coupled_scope(|| {
                let _ = sys::getpid().unwrap();
            })
            .unwrap();
        }
        let d = my_stats().delta(&before);
        assert_eq!(
            d.context_switches,
            4 * PAIRS,
            "Table V: exactly 4 switches per couple+decouple pair ({idle:?}), got {d:?}"
        );
        assert_eq!(
            d.tls_loads,
            2 * PAIRS,
            "Table V: exactly 2 TLS loads per pair ({idle:?}), got {d:?}"
        );
        assert_eq!(d.couples, PAIRS);
        assert_eq!(d.decouples, PAIRS);
        assert_eq!(d.scheduler_dispatches, PAIRS);
        assert_eq!(d.yields, 0);
        // BUSYWAIT and BLOCKING are the paper's rows: every decouple leaves
        // for a scheduler.
        assert_eq!(d.decouple_homes, 0, "{idle:?}: {d:?}");
        0
    });
    assert_eq!(h.wait(), 0);
}

/// From a decoupled UC under `Adaptive`: run empty coupled scopes until one's
/// `decouple()` stays home, so the next `couple()` starts from home.
fn come_home() {
    for _ in 0..200 {
        let homes = my_stats().decouple_homes;
        coupled_scope(|| ()).unwrap();
        if my_stats().decouple_homes > homes {
            return;
        }
    }
    panic!("no decouple() stayed home in 200 scopes: {:?}", my_stats());
}

/// Rounds [`assert_home_rounds`] measures in a row.
const HOME_PAIRS: u64 = 8;

/// Under `Adaptive`, `f` runs [`HOME_PAIRS`] times from home with exactly the
/// counts a round trip that stays has — 1 couple, 1 decouple, 1 dispatch by
/// the UC's own KC, and no switch, TLS load, yield, handoff or KC block —
/// plus whatever `check` asks of the delta. A stall that makes one stretch
/// look long sends that round through a scheduler: measure again — the row
/// is about rounds that stay.
fn assert_home_rounds(name: &str, f: fn(), check: fn(&StatsSnapshot) -> bool) {
    let rt = Runtime::builder()
        .schedulers(1)
        .idle_policy(IdlePolicy::Adaptive)
        .profile(ArchProfile::Native)
        .build();
    let h = rt.spawn(name, move || {
        decouple().unwrap();
        for _attempt in 0..50 {
            come_home();
            let before = my_stats();
            for _ in 0..HOME_PAIRS {
                f();
            }
            let d = my_stats().delta(&before);
            if d.decouple_homes != HOME_PAIRS || !check(&d) {
                continue;
            }
            assert_eq!((d.context_switches, d.tls_loads), (0, 0), "{d:?}");
            assert_eq!(d.scheduler_dispatches, HOME_PAIRS, "{d:?}");
            assert_eq!((d.couples, d.decouples), (HOME_PAIRS, HOME_PAIRS));
            assert_eq!((d.yields, d.couple_handoffs, d.kc_blocks), (0, 0, 0));
            return 0;
        }
        panic!(
            "never saw {HOME_PAIRS} rounds in a row stay home: {:?}",
            my_stats()
        );
    });
    assert_eq!(h.wait(), 0);
}

fn getpid_scope() {
    coupled_scope(|| {
        let _ = sys::getpid().unwrap();
    })
    .unwrap();
}

/// Spin (OS-yielding, so a single-core host can run the peer) until the
/// calling UC's KC has a couple requester parked in its pending queue.
/// Bounded so a broken handoff protocol fails loudly instead of hanging.
fn wait_for_pending_coupler() {
    let mut spins = 0u64;
    while pending_couplers() != Some(1) {
        std::thread::yield_now();
        spins += 1;
        if spins > 2_000_000 {
            panic!(
                "wait_for_pending_coupler stuck: pending_couplers()={:?} stats={:?}",
                pending_couplers(),
                my_stats()
            );
        }
    }
}

/// Exact counts for the **direct-handoff fast path**: two UCs sharing one
/// original KC ping-pong couples, so every decouple finds the peer's couple
/// request already parked in `pending` and switches straight into it.
///
/// Per pair, the coupling round trip itself collapses from 4 switches to 2
/// — couple's swap to the host plus the peer's single handoff swap replace
/// couple → TC-wake → TC-pop → TC→UC dispatch — and the KC's trampoline
/// never runs at all (not even lazily: every decouple, including the very
/// first, waits for the peer's parked request before it fires), so the
/// futex wake on request publication is elided (the sleepers gate sees no
/// sleeper) and the KC never futex-blocks. Global counters per round (one
/// pair per UC, both UCs):
///
/// - 6 context switches (2 couples + 2 handoff decouples + 2 run-queue
///   dispatches of the departed UCs) — the slow path takes 8 (two extra
///   TC→UC dispatches);
/// - 4 TLS loads (couple's host install + scheduler dispatch, per UC —
///   the handoff install is KC-local and exempt, like TC→UC);
/// - 2 handoffs: hit rate is exactly 100%;
/// - 0 yields, and 0 KC futex blocks under *every* idle policy.
///
/// The wait-before-decouple discipline makes the schedule deterministic:
/// each side transitions only once the peer's request is parked, so the
/// counts are exact in every interleaving the OS scheduler picks.
fn assert_handoff_invariant(idle: IdlePolicy) {
    const WARMUP: u64 = 2;
    const PAIRS: u64 = 8;
    let rt = Runtime::builder()
        .schedulers(1)
        .idle_policy(idle)
        .profile(ArchProfile::Native)
        .build();
    let h = rt.spawn("handoff-a", move || {
        // Primaries start coupled; the sibling's first couple request
        // anchors the orbit before our first decouple, so *every* decouple
        // in this body — warm-up, measured, and releasing — hands off.
        for _ in 0..WARMUP {
            wait_for_pending_coupler();
            decouple().unwrap();
            couple().unwrap();
        }
        wait_for_pending_coupler();
        let before = my_stats();
        for _ in 0..PAIRS {
            decouple().unwrap();
            couple().unwrap();
            wait_for_pending_coupler();
        }
        let d = my_stats().delta(&before);
        assert_eq!(
            d.context_switches,
            6 * PAIRS,
            "handoff: 6 switches per round, not the slow path's 8 ({idle:?}): {d:?}"
        );
        assert_eq!(
            d.tls_loads,
            4 * PAIRS,
            "handoff installs are KC-local and TLS-exempt ({idle:?}): {d:?}"
        );
        assert_eq!(d.couples, 2 * PAIRS);
        assert_eq!(d.decouples, 2 * PAIRS);
        assert_eq!(
            d.couple_handoffs,
            2 * PAIRS,
            "every decouple must hit the handoff fast path ({idle:?}): {d:?}"
        );
        assert_eq!(d.scheduler_dispatches, 2 * PAIRS);
        assert_eq!(d.yields, 0);
        assert_eq!(
            d.decouple_homes, 0,
            "a KC that serves a sibling never keeps its UC home ({idle:?}): {d:?}"
        );
        assert_eq!(
            d.kc_blocks, 0,
            "the TC never runs on the fast path, so the KC never futex-blocks \
             ({idle:?}): {d:?}"
        );
        // Release the peer, whose last couple request is still parked.
        decouple().unwrap();
        0
    });
    let sib = h
        .spawn_sibling("handoff-b", move || {
            // One more couple than the primary's rounds: the final one is
            // completed by the primary's releasing decouple, after which we
            // terminate coupled (paper rule 7).
            for i in 0..(WARMUP + PAIRS + 1) {
                couple().unwrap();
                if i < WARMUP + PAIRS {
                    wait_for_pending_coupler();
                    decouple().unwrap();
                }
            }
            0
        })
        .unwrap();
    assert_eq!(sib.wait(), 0);
    assert_eq!(h.wait(), 0);
}

#[test]
fn handoff_counts_global_fifo_busywait() {
    assert_handoff_invariant(IdlePolicy::BusyWait);
}

#[test]
fn handoff_counts_global_fifo_blocking() {
    assert_handoff_invariant(IdlePolicy::Blocking);
}

#[test]
fn handoff_counts_global_fifo_adaptive() {
    assert_handoff_invariant(IdlePolicy::Adaptive);
}

#[test]
fn table5_counts_global_fifo_busywait() {
    assert_table5_invariant(IdlePolicy::BusyWait);
}

#[test]
fn table5_counts_global_fifo_blocking() {
    assert_table5_invariant(IdlePolicy::Blocking);
}

/// ADAPTIVE's Table V row: a lone BLT stays home, and its round trip is no
/// trip at all.
#[test]
fn table5_counts_global_fifo_adaptive() {
    assert_home_rounds("table5", getpid_scope, |_| true);
}

/// A round trip from home followed by a `yield_now()` at home costs what the
/// round trip costs — nothing switched or loaded, 1 dispatch — because the
/// yield is the kernel's: no `Requeue` switch, no scheduler dispatch to
/// answer it.
#[test]
fn home_round_trip_plus_home_yield_counts() {
    assert_home_rounds(
        "home-yield",
        || {
            getpid_scope();
            ulp_core::yield_now();
        },
        |d| d.yield_homes == HOME_PAIRS,
    );
}

/// With the tracer compiled in but **off** (the default), every event site
/// is one relaxed flag load and nothing else: the Table V counts stay
/// exact, no trace records exist, and no histogram sample was taken. Any
/// stray switch, allocation-triggered couple, or accidental recording on
/// the disabled path breaks one of these equalities.
#[test]
fn tracer_off_costs_only_the_flag_check() {
    const PAIRS: u64 = 8;
    let rt = Runtime::builder()
        .schedulers(1)
        .idle_policy(IdlePolicy::BusyWait)
        .profile(ArchProfile::Native)
        .build();
    assert!(!rt.trace_enabled());
    let h = rt.spawn("untraced", move || {
        decouple().unwrap();
        coupled_scope(|| ()).unwrap();
        let before = my_stats();
        for _ in 0..PAIRS {
            coupled_scope(|| {
                let _ = sys::getpid().unwrap();
            })
            .unwrap();
        }
        let d = my_stats().delta(&before);
        assert_eq!(
            d.context_switches,
            4 * PAIRS,
            "tracer-off perturbs switches: {d:?}"
        );
        assert_eq!(
            d.tls_loads,
            2 * PAIRS,
            "tracer-off perturbs TLS loads: {d:?}"
        );
        assert_eq!(d.couples, PAIRS);
        assert_eq!(d.decouples, PAIRS);
        assert_eq!(d.scheduler_dispatches, PAIRS);
        0
    });
    assert_eq!(h.wait(), 0);
    assert!(
        rt.take_trace().is_empty(),
        "disabled tracer must record nothing"
    );
    let lat = rt.latency_snapshot();
    assert_eq!(lat.queue_delay.count, 0);
    assert_eq!(lat.couple_resume.count, 0);
    assert_eq!(lat.yield_interval.count, 0);
    assert_eq!(lat.kc_block.count, 0);
}

/// Turning tracing **on** must not change the Table V protocol counts —
/// the per-KC ring write is off the switch-count books — while the trace
/// and the latency histograms actually fill.
#[test]
fn tracing_on_does_not_perturb_table5_counts() {
    const PAIRS: u64 = 8;
    let rt = Runtime::builder()
        .schedulers(1)
        .idle_policy(IdlePolicy::BusyWait)
        .profile(ArchProfile::Native)
        .build();
    rt.trace_enable();
    let h = rt.spawn("traced", move || {
        decouple().unwrap();
        coupled_scope(|| ()).unwrap();
        let before = my_stats();
        for _ in 0..PAIRS {
            coupled_scope(|| {
                let _ = sys::getpid().unwrap();
            })
            .unwrap();
        }
        let d = my_stats().delta(&before);
        assert_eq!(
            d.context_switches,
            4 * PAIRS,
            "tracing-on perturbs switches: {d:?}"
        );
        assert_eq!(
            d.tls_loads,
            2 * PAIRS,
            "tracing-on perturbs TLS loads: {d:?}"
        );
        assert_eq!(d.couples, PAIRS);
        assert_eq!(d.decouples, PAIRS);
        assert_eq!(d.scheduler_dispatches, PAIRS);
        0
    });
    assert_eq!(h.wait(), 0);
    let trace = rt.take_trace();
    let coupleds = trace
        .iter()
        .filter(|r| matches!(r.event, ulp_core::TraceEvent::Coupled(_)))
        .count() as u64;
    assert!(
        coupleds > PAIRS,
        "expected the couple protocol in the trace"
    );
    let lat = rt.latency_snapshot();
    assert!(
        lat.couple_resume.count >= PAIRS,
        "couple-resume spans: {lat:?}"
    );
    assert!(lat.queue_delay.count >= PAIRS, "queue-delay spans: {lat:?}");
}

/// A panic inside `coupled_scope` must not leak the UC in the coupled
/// state: the scope catches the unwind, restores the previous coupling
/// state, and re-raises. (Regression: the scope used to `?`-return early
/// on the panic path, skipping the decouple, so a caught panic left the
/// caller silently coupled and every later "decoupled" assumption wrong.)
#[test]
fn coupled_scope_panic_restores_decoupled_state() {
    let rt = Runtime::builder().schedulers(1).build();
    let h = rt.spawn("panicky", || {
        decouple().unwrap();
        assert_eq!(ulp_core::is_coupled(), Some(false));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = coupled_scope(|| -> i32 { panic!("boom inside scope") });
        }));
        assert!(caught.is_err(), "the panic must propagate out of the scope");
        assert_eq!(
            ulp_core::is_coupled(),
            Some(false),
            "a panicking scope must restore the decoupled state"
        );
        // The runtime is still fully functional afterwards.
        let pid = coupled_scope(|| sys::getpid().unwrap()).unwrap();
        assert_eq!(coupled_scope(|| sys::getpid().unwrap()).unwrap(), pid);
        0
    });
    assert_eq!(h.wait(), 0);
}

/// An uncaught panic crossing a `coupled_scope` still terminates the BLT
/// with the crash status — the scope's catch/decouple/re-raise must not
/// swallow the unwind.
#[test]
fn coupled_scope_panic_propagates_to_exit_status() {
    let rt = Runtime::builder().schedulers(1).build();
    let h = rt.spawn("dies-in-scope", || {
        decouple().unwrap();
        coupled_scope(|| panic!("unhandled")).unwrap();
        0
    });
    assert_eq!(h.wait(), PANIC_EXIT_STATUS);
}

/// Siblings of a crashed-in-scope primary still drain correctly (the
/// panic-unwind path must not corrupt the shared KC's bookkeeping).
#[test]
fn coupled_scope_panic_leaves_kc_serviceable() {
    let rt = Runtime::builder().schedulers(1).build();
    let h = rt.spawn("host-blt", || {
        decouple().unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = coupled_scope(|| -> i32 { panic!("scoped crash") });
        }));
        assert!(caught.is_err());
        0
    });
    // The primary's KC must still serve a sibling spawned after the crash.
    let sib = h.spawn_sibling("post-crash-sib", || 7).unwrap();
    assert_eq!(sib.wait(), 7);
    assert_eq!(h.wait(), 0);
}

/// A sibling spawned through a still-open handle is served even if the
/// primary's body finished long before — the KC must not retire while the
/// handle could still register siblings. (Regression: the primary used to
/// check `sibling_count` once and exit its OS thread; a sibling registering
/// in that window coupled into a queue nobody would ever serve, hanging
/// `wait()` forever.)
#[test]
fn sibling_after_primary_body_finished_is_served() {
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let rt = Runtime::builder().schedulers(1).build();
    let h = rt.spawn("short-lived", move || {
        tx.send(()).unwrap();
        0
    });
    // The primary's body has provably returned (or is about to); give its
    // thread every chance to win the old race before we register.
    rx.recv().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    let sib = h
        .spawn_sibling("late-registrant", || {
            coupled_scope(|| {
                sys::getpid().unwrap();
            })
            .unwrap();
            42
        })
        .unwrap();
    assert_eq!(sib.wait(), 42);
    assert_eq!(h.wait(), 0);
}

/// After `wait()` the handle is closed and the KC has retired: a late
/// `spawn_sibling` fails cleanly instead of parking forever.
#[test]
fn sibling_after_wait_fails_cleanly() {
    let rt = Runtime::builder().schedulers(1).build();
    let h = rt.spawn("done", || 0);
    assert_eq!(h.wait(), 0);
    let err = h.spawn_sibling("too-late", || 0).unwrap_err();
    assert_eq!(err, ulp_core::UlpError::PrimaryExited);
}

/// An oversubscribed barrier costs each waiter two context switches a phase
/// — leaving the run queue onto the barrier's wait list, and the dispatch
/// that resumes it — and no yield: 64 decoupled ULTs on one scheduler run 10
/// phases. The leaders of phase 0 and phase 10 take the counts, each before
/// any waiter it released runs again (there is one scheduler, and the leader
/// holds it), so the window holds phase 0's 63 resumptions, phases 1–9 whole
/// and phase 10's 63 departures: 2 × 63 × 10 switches.
#[test]
fn an_oversubscribed_barrier_switches_twice_per_waiter_and_phase() {
    use std::sync::{Arc, Mutex};
    const ULTS: usize = 64;
    const PHASES: usize = 10;
    let rt = Runtime::builder().schedulers(1).build();
    let barrier = Arc::new(ulp_core::UlpBarrier::new(ULTS));
    let counts = Arc::new(Mutex::new(Vec::new()));
    let ults: Vec<_> = (0..ULTS)
        .map(|i| {
            let (barrier, counts) = (barrier.clone(), counts.clone());
            rt.spawn(&format!("party{i}"), move || {
                decouple().unwrap();
                for phase in 0..=PHASES {
                    if barrier.wait() && (phase == 0 || phase == PHASES) {
                        counts.lock().unwrap().push(my_stats());
                    }
                }
                0
            })
        })
        .collect();
    for h in ults {
        assert_eq!(h.wait(), 0);
    }
    let counts = counts.lock().unwrap();
    let d = counts[1].delta(&counts[0]);
    let waits = ((ULTS - 1) * PHASES) as u64;
    assert_eq!(d.yields, 0, "a waiter yielded: {d:?}");
    assert_eq!(
        d.context_switches,
        2 * waits,
        "{waits} waits should switch twice each: {d:?}"
    );
}
