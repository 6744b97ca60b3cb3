//! # ulp-torture — schedule fuzzing with a machine-checked trace oracle
//!
//! The repository's unit tests exercise the Table-I coupling protocol under
//! whatever interleavings a quiet machine happens to produce. This crate
//! attacks the protocol instead:
//!
//! - **Schedule chaos** (`ulp_core::chaos`): seeded forced yields at the
//!   couple/decouple entry points, biased run-queue pops, and per-call
//!   idle-policy inversions.
//! - **Kernel fault injection** (`ulp_kernel::fault`): spurious futex
//!   wakes, `EINTR`/`EAGAIN` on pipe system calls, short reads, delayed
//!   wakeups.
//! - **A trace oracle** ([`oracle`]): every run records the full scheduling
//!   trace and the oracle re-derives the paper's Table-I invariants from it
//!   — per-BLT couple/decouple state machines, coupled-only system calls,
//!   spawn/terminate balance, and conservation between trace events,
//!   runtime counters and latency histograms. A dropped trace record is a
//!   *hard failure*, never a silent gap.
//!
//! Everything is driven by one `u64` seed: per-iteration seeds, chaos
//! decisions and fault draws all derive from it through splitmix64, so any
//! failing iteration replays from its printed seed alone (see
//! `EXPERIMENTS.md`, "Torture harness").

#![warn(missing_docs)]

pub mod digest;
pub mod oracle;
pub mod scenario;

pub use scenario::Scenario;

use std::sync::Mutex;
use ulp_core::chaos::{self, splitmix64, ChaosPlan};
use ulp_core::{ConsistencyMode, IdlePolicy, Runtime, StatsSnapshot, TraceRecord, UlpError};
use ulp_kernel::fault::{self, FaultPlan};

/// Domain-separation salts so one run seed derives independent streams.
const SALT_CHAOS: u64 = 0x43_48_41_4F_53; // "CHAOS"
const SALT_FAULT: u64 = 0x46_41_55_4C_54; // "FAULT"

/// One cell of the torture matrix: a workload scenario under an idle
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The workload.
    pub scenario: Scenario,
    /// Idle-KC policy.
    pub idle: IdlePolicy,
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{:?}", self.scenario.name(), self.idle)
    }
}

/// The full matrix: every scenario × the two paper idle policies (§VI-C)
/// plus the runtime's default, `Adaptive` —
/// whose spin arm serves requests without the futex wake the other two
/// rely on, so it gets chaos coverage too.
pub fn matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for &scenario in Scenario::ALL {
        for idle in [
            IdlePolicy::Blocking,
            IdlePolicy::BusyWait,
            IdlePolicy::Adaptive,
        ] {
            cells.push(Cell { scenario, idle });
        }
    }
    cells
}

/// Everything one torture run produced, for reporting and artifacts.
#[derive(Debug)]
pub struct RunReport {
    /// The cell that ran.
    pub cell: Cell,
    /// The per-run seed (replays this exact run).
    pub seed: u64,
    /// Oracle + workload violations; empty = the run passed.
    pub violations: Vec<String>,
    /// The full recorded trace (for Perfetto artifacts on failure).
    pub trace: Vec<TraceRecord>,
    /// Canonical replay digest of the trace (see [`digest`]).
    pub digest: u64,
    /// Trace records lost (nonzero is itself a violation).
    pub dropped: u64,
    /// The most records any one trace ring kept: set against
    /// `ring_capacity`, the margin the run had before it would drop one.
    pub ring_peak: usize,
    /// The per-KC trace-ring capacity the run recorded into.
    pub ring_capacity: usize,
    /// How many times each chaos site fired.
    pub chaos_fired: [u64; chaos::CHAOS_SITES],
    /// How many faults of each kind were injected.
    pub faults_injected: [u64; fault::FAULT_KINDS],
    /// Runtime counter deltas over the run.
    pub stats: StatsDelta,
}

/// Runtime counter deltas between the pre-workload baseline and the end of
/// the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsDelta {
    /// `couples` delta.
    pub couples: u64,
    /// `decouples` delta.
    pub decouples: u64,
    /// `yields` delta.
    pub yields: u64,
    /// `scheduler_dispatches` delta.
    pub dispatches: u64,
    /// `blts_spawned` + `siblings_spawned` + `pooled_spawned` delta —
    /// every flavor of spawn records the same `Spawn` trace event, so the
    /// oracle's family-E conservation compares against their sum.
    pub spawned: u64,
    /// `couple_handoffs` delta (fast-path couples).
    pub handoffs: u64,
    /// `decouple_homes` delta (decouples that stayed on their own KC).
    pub homes: u64,
    /// `yield_homes` delta (`yield_now()` calls at home that stayed there).
    pub yield_homes: u64,
}

impl StatsDelta {
    /// What the counters moved from `before` to `after`.
    pub fn between(before: &StatsSnapshot, after: &StatsSnapshot) -> StatsDelta {
        StatsDelta {
            couples: after.couples - before.couples,
            decouples: after.decouples - before.decouples,
            yields: after.yields - before.yields,
            dispatches: after.scheduler_dispatches - before.scheduler_dispatches,
            spawned: (after.blts_spawned + after.siblings_spawned + after.pooled_spawned)
                - (before.blts_spawned + before.siblings_spawned + before.pooled_spawned),
            handoffs: after.couple_handoffs - before.couple_handoffs,
            homes: after.decouple_homes - before.decouple_homes,
            yield_homes: after.yield_homes - before.yield_homes,
        }
    }
}

/// Chaos and fault state are process-global: concurrent runs (e.g. `cargo
/// test` threads) must serialize. [`run_cell`] takes this internally.
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// Execute one torture run: build a runtime for `cell`, arm chaos + faults
/// from `seed`, run the scenario, then verify the recorded trace against
/// the Table-I oracle. Panics only on harness bugs — protocol violations
/// come back in [`RunReport::violations`].
pub fn run_cell(cell: Cell, seed: u64) -> RunReport {
    let _g = RUN_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let rt = Runtime::builder()
        .schedulers(cell.scenario.schedulers())
        .idle_policy(cell.idle)
        // Pool KC threads start lazily on the first `spawn_pooled`, so
        // pinning the pool size costs nothing for scenarios that never
        // spawn a pooled ULP — and makes c1m_storm oversubscribe the same
        // way on every host regardless of core count.
        .pool_kcs(2)
        .trace_capacity(cell.scenario.trace_capacity())
        .consistency(ConsistencyMode::Record)
        .build();
    // PID allocation must not race scheduler startup: fault streams are
    // keyed by pid, so replay needs the schedulers' processes registered
    // before the first workload spawn.
    wait_for_schedulers(&rt, cell.scenario.schedulers());

    rt.trace_enable();
    let stats0 = rt.stats().snapshot();
    chaos::arm(ChaosPlan::aggressive(splitmix64(seed ^ SALT_CHAOS)));
    fault::arm(FaultPlan::aggressive(splitmix64(seed ^ SALT_FAULT)));

    let mut violations = cell.scenario.run(&rt);

    let chaos_fired = chaos::fired_counts();
    let faults_injected = fault::injected_counts();
    chaos::disarm();
    fault::disarm();

    rt.trace_disable();
    let trace = rt.take_trace();
    let dropped = rt.trace_dropped();
    let stats = StatsDelta::between(&stats0, &rt.stats().snapshot());
    let latency = rt.latency_snapshot();
    let syscalls = rt.syscall_snapshot();
    let consistency: Vec<UlpError> = rt.violations();
    rt.shutdown();

    violations.extend(oracle::check(&oracle::OracleInput {
        trace: &trace,
        dropped,
        consistency: &consistency,
        stats,
        latency: &latency,
        syscalls: &syscalls,
        // Under the planted mutation, syscalls legitimately (well,
        // "legitimately") run decoupled; the oracle must still flag them —
        // that is the whole point of the mutation check.
        expect_coupled_syscalls: true,
    }));
    let digest = digest::canonical(&trace);
    let ring_peak = ring_peak(&trace);

    RunReport {
        cell,
        seed,
        violations,
        trace,
        digest,
        dropped,
        ring_peak,
        // Rounded up as the tracer rounds it.
        ring_capacity: cell.scenario.trace_capacity().next_power_of_two(),
        chaos_fired,
        faults_injected,
        stats,
    }
}

/// The most records one trace ring (one `kc`, the fallback ring's 0
/// included) contributed to `trace`.
fn ring_peak(trace: &[TraceRecord]) -> usize {
    let mut per_ring = std::collections::HashMap::<u32, usize>::new();
    for r in trace {
        *per_ring.entry(r.kc).or_default() += 1;
    }
    per_ring.into_values().max().unwrap_or(0)
}

/// Derive iteration `i`'s run seed from the master seed.
pub fn run_seed(master: u64, i: u64) -> u64 {
    splitmix64(master ^ splitmix64(i))
}

fn wait_for_schedulers(rt: &Runtime, n: usize) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    // Root process + one process per scheduler.
    while rt.kernel().process_count() < 1 + n {
        assert!(
            std::time::Instant::now() < deadline,
            "schedulers failed to start within 10s"
        );
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}
