//! Bounded torture smoke for CI: a few fixed-seed cells through the full
//! run → oracle pipeline, plus the replay-determinism guarantee.
//!
//! Chaos/fault state is process-global; `run_cell` serializes internally,
//! so these tests are safe under the default parallel test runner.

use ulp_core::IdlePolicy;
use ulp_torture::{digest, matrix, run_cell, run_seed, Cell, Scenario};

/// Fixed master seed for CI determinism (same default as the binary).
const MASTER: u64 = 0xDECAF;

#[test]
fn full_matrix_one_pass_is_violation_free() {
    if cfg!(torture_mutation) {
        // The planted bug makes multi-worker cells meaningless (and the
        // mutation run is asserted separately below).
        return;
    }
    for (i, cell) in matrix().into_iter().enumerate() {
        let report = run_cell(cell, run_seed(MASTER, i as u64));
        println!(
            "{cell}: fullest trace ring {}/{}",
            report.ring_peak, report.ring_capacity
        );
        assert!(
            report.violations.is_empty(),
            "{cell} seed {:#018x}: {:?}",
            report.seed,
            report.violations
        );
        assert_eq!(report.dropped, 0, "{cell}: trace records dropped");
        assert!(
            !report.trace.is_empty(),
            "{cell}: empty trace — tracing was off?"
        );
    }
}

#[test]
fn chain_cell_replays_byte_identically() {
    if cfg!(torture_mutation) {
        return;
    }
    let cell = Cell {
        scenario: Scenario::Chain,
        idle: IdlePolicy::Blocking,
    };
    let seed = run_seed(MASTER, 777);
    let a = run_cell(cell, seed);
    let b = run_cell(cell, seed);
    assert_eq!(
        digest::bytes(&a.trace),
        digest::bytes(&b.trace),
        "canonical traces diverged for one seed"
    );
    assert_eq!(a.digest, b.digest);
    // NB: raw trace lengths may differ — scheduler-side noise (KcBlocked,
    // idle futex spans) is timing-dependent by design and only the
    // canonical form is replay-stable.
}

#[test]
fn chaos_and_faults_actually_fire() {
    if cfg!(torture_mutation) {
        return;
    }
    let cell = Cell {
        scenario: Scenario::Chain,
        idle: IdlePolicy::Blocking,
    };
    let report = run_cell(cell, run_seed(MASTER, 1));
    assert!(
        report.chaos_fired.iter().sum::<u64>() > 0,
        "aggressive chaos plan never fired: {:?}",
        report.chaos_fired
    );
    assert!(
        report.faults_injected.iter().sum::<u64>() > 0,
        "aggressive fault plan never injected: {:?}",
        report.faults_injected
    );
}

/// Every decoupled stretch a UC spent at home: the UC and the record range
/// from its home `Dispatch` (host = the UC's own KC) to the record that ends
/// the stay.
fn home_stays(trace: &[ulp_core::TraceRecord]) -> Vec<(ulp_core::BltId, std::ops::Range<usize>)> {
    use ulp_core::TraceEvent as E;
    let mut stays = Vec::new();
    for (i, rec) in trace.iter().enumerate() {
        let E::Dispatch { uc, scheduler } = rec.event else {
            continue;
        };
        if uc != scheduler {
            continue;
        }
        let end = trace[i + 1..]
            .iter()
            .position(|r| match r.event {
                E::CoupleRequest(b) | E::Requeue(b) => b == uc,
                _ => false,
            })
            .map_or(trace.len(), |n| i + 1 + n);
        stays.push((uc, i..end));
    }
    stays
}

/// `home_stay` reaches what it is there for: under `Adaptive` some
/// decouples stay home, one of the stays sees a `yield_now()` that is the
/// kernel's yield and one ends in a `Requeue` (the two yields mid-stream,
/// either side of the break-even), and the oracle — which checks every home
/// dispatch against the `decouple_homes` counter — has nothing to say.
#[test]
fn home_stay_cell_reaches_the_home_path() {
    if cfg!(torture_mutation) {
        return;
    }
    use ulp_core::TraceEvent as E;
    let cell = Cell {
        scenario: Scenario::HomeStay,
        idle: IdlePolicy::Adaptive,
    };
    let report = run_cell(cell, run_seed(MASTER, 20));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let stays = home_stays(&report.trace);
    assert_eq!(stays.len() as u64, report.stats.homes);
    assert!(report.stats.homes > 0, "no decouple stayed home");
    let requeues = report
        .trace
        .iter()
        .filter(|r| matches!(r.event, E::Requeue(_)))
        .count();
    eprintln!(
        "home_stay: {} of {} decouples stayed home, {} yield_now() stayed too, {requeues} left",
        report.stats.homes, report.stats.decouples, report.stats.yield_homes
    );
    assert!(
        report.stats.yield_homes > 0,
        "no yield_now() ever found its UC at home on a young stretch"
    );
    assert!(
        requeues > 0,
        "no yield_now() at home ever outlived the break-even"
    );
}

/// The whole reason the harness exists: with the consistency bug planted
/// (`RUSTFLAGS="--cfg torture_mutation"`), the oracle MUST fail the run.
#[cfg(torture_mutation)]
#[test]
fn planted_mutation_is_caught_by_the_oracle() {
    let cell = Cell {
        scenario: Scenario::Chain,
        idle: IdlePolicy::Blocking,
    };
    let report = run_cell(cell, run_seed(MASTER, 0));
    assert!(
        !report.violations.is_empty(),
        "oracle passed a run whose coupled_scope never couples"
    );
    assert!(
        report.violations.iter().any(|v| v.starts_with("[B]")),
        "mutation must surface as invariant-B (syscall consistency) violations: {:?}",
        report.violations
    );
}

/// … also when the decoupled system call comes from a UC that stayed *home*:
/// it runs on the right kernel context by luck, so only the coupling state —
/// what family B and the runtime's auditor go by — gives it away.
#[cfg(torture_mutation)]
#[test]
fn planted_mutation_is_caught_at_home_too() {
    use ulp_core::TraceEvent as E;
    let cell = Cell {
        scenario: Scenario::HomeStay,
        idle: IdlePolicy::Adaptive,
    };
    let report = run_cell(cell, run_seed(MASTER, 20));
    let at_home = home_stays(&report.trace)
        .into_iter()
        .flat_map(|(uc, stay)| report.trace[stay].iter().map(move |r| (uc, r)))
        .filter(|(home, r)| {
            matches!(r.event, E::SyscallEnter { uc, coupled: false, .. } if uc == *home)
        })
        .count();
    assert!(at_home > 0, "the mutation never hit a UC at home");
    assert!(
        report.violations.iter().any(|v| v.starts_with("[B]")),
        "{:?}",
        report.violations
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.contains("runtime consistency audit")),
        "the veneer gate let a decoupled call through at home: {:?}",
        report.violations
    );
}
