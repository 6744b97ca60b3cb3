//! CI perf smoke: a low-iteration couple-RTT check against the committed
//! `results/BENCH_1.json`.
//!
//! Re-measures the bare couple()/decouple() round trip (BUSYWAIT and
//! BLOCKING) and fails — exit code 1 — if either regresses more than 25%
//! over the committed "after" figure. Also runs the direct-handoff
//! ping-pong and fails if the handoff hit rate drops to 90% or below, or
//! if the fast path stops beating the committed slow-path RTT: both are
//! structural properties of the handoff protocol, not timing noise. The
//! handoff check runs under BUSYWAIT, where the fast path's margin over
//! the slow path is widest (wake batching pulled the BLOCKING slow path
//! close enough to the handoff figure that a short run could flap).
//!
//! Also gates the oversubscribed-KC-pool scale path: re-churns the 100k
//! pooled-ULP row and fails if the spawn rate drops below half the
//! committed figure (throughput on shared runners jitters more than
//! latency, hence the wider margin) or if peak RSS stops being
//! wave-bounded — a broken stack free-list turns ~10 MiB into gigabytes,
//! so the RSS ceiling is structural, not a timing gate.
//!
//! Also gates the simulated-syscall path's scaling: the `syscall_mix` op mix
//! on two bare bound threads sharing no object must complete at least 1.3×
//! the calls per second of one such thread — both rates from this run, on
//! this host, so the gate is a ratio and not a constant. Two unrelated
//! processes' file calls serialising on a filesystem-wide lock read 0.65
//! here. Skipped, with a message, on a host with fewer than two CPUs.
//!
//! Also gates the run queue's yield path against itself: a 2-ULP yield
//! under `GlobalFifo` (one locked pop + one locked push on the injector)
//! may cost at most 1.5× the same yield under `WorkStealing` (thread-local
//! slot handoff, no lock at all) — both from this run, best of three. The
//! switch and the bookkeeping are common to both, so the ratio isolates what
//! the shared queue adds; a fence, a second lock or an unconditional futex
//! word bump back on the push path reads ≈ 1.9.
//!
//! Iteration counts are deliberately tiny (the min-of-runs protocol keeps
//! even short runs stable on the fast paths measured here); the 25% margin
//! absorbs shared-runner jitter.

use ulp_core::{IdlePolicy, SchedPolicy};
use ulp_kernel::ArchProfile;

const ITERS: usize = 400;
const MAX_REGRESSION: f64 = 1.25;
/// Pooled ULPs for the churn gate — the committed 100k row, full size
/// (the rate is stable because the run amortizes over the whole churn).
const CHURN_ULPS: usize = 100_000;
/// Minimum fraction of the committed spawn rate the gate accepts.
const MIN_CHURN_FRACTION: f64 = 0.5;
/// Structural RSS ceiling for the churn (MiB): generous over the ~10 MiB
/// a recycling pool needs, far under the gigabytes a leak produces.
const CHURN_RSS_CEILING_MIB: f64 = 512.0;
/// Ceiling on slots the scavenger trimmed ÷ ULPs churned.
const CHURN_TRIM_CEILING: f64 = 0.25;

/// Yields per measurement of the `GlobalFifo` ÷ `WorkStealing` yield gate.
const YIELD_ITERS: usize = 20_000;
/// Ceiling on `GlobalFifo` yield ns ÷ `WorkStealing` slot-handoff yield ns.
const MAX_FIFO_OVER_SLOT: f64 = 1.5;

/// Draws of the `syscall_mix` op mix per thread and measurement.
const MIX_ENTRIES: usize = 400_000;
/// Floor on two-thread ÷ one-thread `syscall_mix` calls per second.
const MIN_MIX_SCALING: f64 = 1.3;

/// Pull `"<field>": <num>` out of the committed BENCH_1.json row named
/// `key` (hand-rolled: the build environment has no serde).
fn committed_field(json: &str, key: &str, field: &str) -> Option<f64> {
    let row = json.lines().find(|l| l.contains(&format!("\"{key}\"")))?;
    let tail = row.split(&format!("\"{field}\": ")).nth(1)?;
    let num: String = tail
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

fn committed_after(json: &str, key: &str) -> Option<f64> {
    committed_field(json, key, "after")
}

fn main() {
    let path = ulp_bench::report::results_dir().join("BENCH_1.json");
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perf-smoke: cannot read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let mut failed = false;
    let mut gate = |label: &str, key: &str, measured: f64| {
        let Some(reference) = committed_after(&json, key) else {
            eprintln!(
                "perf-smoke: FAIL {label}: no \"{key}\" row in {}",
                path.display()
            );
            failed = true;
            return;
        };
        let limit = reference * MAX_REGRESSION;
        let verdict = if measured <= limit { "ok" } else { "FAIL" };
        println!(
            "perf-smoke: {verdict} {label}: {measured:.1} ns (committed {reference:.1} ns, limit {limit:.1})"
        );
        if measured > limit {
            failed = true;
        }
    };

    gate(
        "couple RTT busywait",
        "couple_decouple_rtt_busywait",
        ulp_bench::workloads::couple_rtt_ns(IdlePolicy::BusyWait, ArchProfile::Native, ITERS),
    );
    gate(
        "couple RTT blocking",
        "couple_decouple_rtt_blocking",
        ulp_bench::workloads::couple_rtt_ns(IdlePolicy::Blocking, ArchProfile::Native, ITERS),
    );

    // Structural handoff checks: the deterministic ping-pong must hand off
    // on essentially every decouple and beat the committed slow-path RTT.
    let h =
        ulp_bench::workloads::couple_handoff_rtt(IdlePolicy::BusyWait, ArchProfile::Native, ITERS);
    println!(
        "perf-smoke: {} handoff hit rate: {:.4}",
        if h.hit_rate > 0.9 { "ok" } else { "FAIL" },
        h.hit_rate
    );
    if h.hit_rate <= 0.9 {
        failed = true;
    }
    if let Some(slow) = committed_after(&json, "couple_decouple_rtt_busywait") {
        let verdict = if h.rtt_ns < slow { "ok" } else { "FAIL" };
        println!(
            "perf-smoke: {verdict} handoff RTT: {:.1} ns (committed slow path {slow:.1} ns)",
            h.rtt_ns
        );
        if h.rtt_ns >= slow {
            failed = true;
        }
    }

    // Yield-path structural gate: the shared injector against the lock-free
    // slot handoff, best of three per side.
    let best_yield = |sched| {
        (0..3)
            .map(|_| {
                ulp_bench::workloads::ulp_yield_ns_sched(
                    IdlePolicy::BusyWait,
                    sched,
                    ArchProfile::Native,
                    YIELD_ITERS,
                )
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (fifo, slot) = (
        best_yield(SchedPolicy::GlobalFifo),
        best_yield(SchedPolicy::WorkStealing),
    );
    let ratio = fifo / slot;
    println!(
        "perf-smoke: {} yield GlobalFifo {fifo:.1} ns ÷ WorkStealing slot handoff {slot:.1} ns = {ratio:.2} (ceiling {MAX_FIFO_OVER_SLOT})",
        if ratio <= MAX_FIFO_OVER_SLOT { "ok" } else { "FAIL" },
    );
    if ratio > MAX_FIFO_OVER_SLOT {
        failed = true;
    }

    // Oversubscribed-pool scale gate: churn the committed 100k row and
    // hold the spawn rate to half the committed figure, peak RSS to a
    // structural ceiling, and the stack free-list to zero leaks.
    let churn = ulp_bench::workloads::pooled_churn(
        CHURN_ULPS,
        ulp_bench::bench1::CHURN_WAVE,
        ulp_bench::bench1::POOL_KCS,
    );
    match committed_field(&json, "pooled_churn_100k", "spawn_per_sec") {
        Some(reference) => {
            let floor = reference * MIN_CHURN_FRACTION;
            let verdict = if churn.spawn_per_sec >= floor {
                "ok"
            } else {
                "FAIL"
            };
            println!(
                "perf-smoke: {verdict} pooled churn rate: {:.1} ULPs/sec (committed {reference:.1}, floor {floor:.1})",
                churn.spawn_per_sec
            );
            if churn.spawn_per_sec < floor {
                failed = true;
            }
        }
        None => {
            eprintln!(
                "perf-smoke: FAIL pooled churn: no \"pooled_churn_100k\" row in {}",
                path.display()
            );
            failed = true;
        }
    }
    let rss_verdict = if churn.peak_rss_mib < CHURN_RSS_CEILING_MIB {
        "ok"
    } else {
        "FAIL"
    };
    println!(
        "perf-smoke: {rss_verdict} pooled churn peak RSS: {:.1} MiB (ceiling {CHURN_RSS_CEILING_MIB:.0})",
        churn.peak_rss_mib
    );
    if churn.peak_rss_mib >= CHURN_RSS_CEILING_MIB {
        failed = true;
    }
    let recycle_ok = churn.stack_recycled > 0 && churn.stack_peak < CHURN_ULPS;
    println!(
        "perf-smoke: {} pooled churn stacks: peak {} recycled {}",
        if recycle_ok { "ok" } else { "FAIL" },
        churn.stack_peak,
        churn.stack_recycled
    );
    if !recycle_ok {
        failed = true;
    }
    // Count gate: a busy churn cycles its free list warm, so the scavenger
    // may `madvise` only the slots a subsiding wave leaves idle — a small
    // fraction of the lifecycles (1.0 when every release trimmed).
    let trim_ratio = churn.stack_trimmed as f64 / churn.ulps as f64;
    println!(
        "perf-smoke: {} pooled churn slots trimmed per ULP: {trim_ratio:.3} (ceiling {CHURN_TRIM_CEILING}), {} warm at end",
        if trim_ratio <= CHURN_TRIM_CEILING { "ok" } else { "FAIL" },
        churn.stack_warm
    );
    if trim_ratio > CHURN_TRIM_CEILING {
        failed = true;
    }

    // Wake-to-run structural gate: a traced socket ping-pong must attribute
    // its blocked reads to the peer's writes — nonzero `sock_read` edges
    // with a sane percentile ordering. Structure, not timing: no nanosecond
    // thresholds, just "the attribution layer is alive".
    let wake = ulp_bench::workloads::wake_to_run_snapshot(4, 64);
    let sock_read = *wake.get("sock_read").expect("sock_read is a wake site");
    let (p50, p99) = (sock_read.p50(), sock_read.p99());
    let wake_ok = wake.total_count() > 0
        && wake.total_sum() > 0
        && sock_read.count > 0
        && p50.is_finite()
        && p99.is_finite()
        && p99 >= p50;
    println!(
        "perf-smoke: {} wake-to-run sock_read: p50 {p50:.1} ns p99 {p99:.1} ns ({} edges, {} total across sites)",
        if wake_ok { "ok" } else { "FAIL" },
        sock_read.count,
        wake.total_count(),
    );
    if !wake_ok {
        failed = true;
    }

    // Syscall-path scaling gate: best of three per side, so a neighbour's
    // burst has to hit all three to move the ratio.
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        println!("perf-smoke: skip syscall_mix scaling: fewer than 2 CPUs available");
    } else {
        let best = |threads| {
            (0..3)
                .map(|_| ulp_bench::workloads::syscall_mix_calls_per_sec(threads, MIX_ENTRIES))
                .fold(0.0, f64::max)
        };
        let (one, two) = (best(1), best(2));
        let scaling = two / one;
        println!(
            "perf-smoke: {} syscall_mix scaling: 2 threads {:.2} M calls/s ÷ 1 thread {:.2} M calls/s = {scaling:.2} (floor {MIN_MIX_SCALING})",
            if scaling >= MIN_MIX_SCALING { "ok" } else { "FAIL" },
            two / 1e6,
            one / 1e6,
        );
        if scaling < MIN_MIX_SCALING {
            failed = true;
        }
    }

    if failed {
        eprintln!("perf-smoke: regression gate FAILED");
        std::process::exit(1);
    }
    println!("perf-smoke: all gates passed");
}
