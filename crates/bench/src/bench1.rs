//! Machine-readable hot-path metrics: `BENCH_1.json`.
//!
//! Emitted by `repro_all` (and the standalone `bench1` binary). Reports the
//! switch-path numbers the hot-path overhaul targets — yield latency under
//! both scheduling disciplines, the bare couple()/decouple() round trip,
//! and aggregate switch throughput under 4-KC over-subscription — next to
//! the pre-overhaul baseline measured on the same machine at the commit
//! where the switch path still took the global-atomics / per-switch-Arc
//! route (see [`baseline`]).

use crate::workloads;
use ulp_core::{HistSummary, IdlePolicy, SchedPolicy};
use ulp_kernel::ArchProfile;

/// Pre-overhaul numbers, measured with the seed-equivalent switch path
/// (global `Stats` atomics, per-switch `Arc`/`RefCell` TLS traffic,
/// mutex-guarded sigmask) on this host. Regenerate with
/// `cargo run --release -p ulp-bench --bin bench1 -- --print-raw` at the
/// baseline commit. Figures are the best (fastest) of two baseline runs on
/// the reference host — the conservative comparison point for the
/// improvement numbers.
pub mod baseline {
    /// ns per yield, global FIFO (baseline).
    pub const YIELD_FIFO_NS: f64 = 207.9;
    /// ns per yield, work stealing (baseline).
    pub const YIELD_WS_NS: f64 = 174.0;
    /// ns per couple/decouple round trip, BUSYWAIT (baseline).
    pub const COUPLE_RTT_BUSYWAIT_NS: f64 = 4325.1;
    /// ns per couple/decouple round trip, BLOCKING (baseline).
    pub const COUPLE_RTT_BLOCKING_NS: f64 = 2881.6;
    /// ns per couple/decouple round trip, ADAPTIVE. The adaptive idle
    /// policy was never part of the baseline campaign (it postdates the
    /// pre-overhaul commit), so the Blocking figure — the regime Adaptive
    /// falls back to once its spin streak runs dry — is reused as the
    /// nearest slow-path reference point.
    pub const COUPLE_RTT_ADAPTIVE_NS: f64 = COUPLE_RTT_BLOCKING_NS;
    /// Aggregate switches/sec, 8 ULPs over 4 KCs (baseline).
    pub const OVERSUB4_SWITCHES_PER_SEC: f64 = 3075197.7;
}

/// One full switch-path measurement sweep (the numbers the hot-path
/// overhaul is judged by).
#[derive(Debug, Clone, Copy)]
pub struct Bench1 {
    /// ns per yield, 2 ULPs / 1 scheduler, BUSYWAIT, global FIFO.
    pub yield_fifo_ns: f64,
    /// ns per yield, 2 ULPs / 1 scheduler, BUSYWAIT, work stealing.
    pub yield_ws_ns: f64,
    /// ns per bare couple()+decouple() round trip, BUSYWAIT.
    pub couple_rtt_busywait_ns: f64,
    /// ns per bare couple()+decouple() round trip, BLOCKING.
    pub couple_rtt_blocking_ns: f64,
    /// ns per bare couple()+decouple() round trip, ADAPTIVE (spin a
    /// bounded streak on the idle KC before falling back to the futex).
    pub couple_rtt_adaptive_ns: f64,
    /// Aggregate switches/sec: 8 yield-looping ULPs over 4 scheduler KCs.
    pub oversub4_switches_per_sec: f64,
    /// Yield-to-yield interval distribution (BUSYWAIT, global FIFO), from
    /// the runtime's latency histograms — a traced run separate from the
    /// mean measurements above.
    pub yield_interval: HistSummary,
    /// Couple-request→resume distribution (BLOCKING), traced run.
    pub couple_resume: HistSummary,
    /// Run-queue enqueue→dispatch distribution (BLOCKING), traced run.
    pub queue_delay: HistSummary,
    /// Kernel `getpid` enter→exit span distribution (coupled, traced run)
    /// from the per-syscall latency histograms — the same series the
    /// metrics endpoint exports as `ulp_syscall_latency_ns{call="getpid"}`.
    pub syscall_getpid: HistSummary,
    /// 100k pooled ULPs churned through [`POOL_KCS`] pool KCs in waves.
    pub churn_100k: workloads::PooledChurn,
    /// 1M pooled ULPs churned the same way — the oversubscription scale
    /// claim: RSS stays wave-bounded while a million ULPs live and die.
    pub churn_1m: workloads::PooledChurn,
    /// 100k simultaneously-runnable pooled ULPs yield-storming: aggregate
    /// switch throughput once the sharded run queues carry the load.
    pub yield_storm_100k: workloads::PooledStorm,
}

/// Pool KCs the scale rows run on — "a handful", pinned so the rows are
/// comparable across hosts regardless of core count.
pub const POOL_KCS: usize = 4;
/// Wave size for the churn rows (reaped before the next wave spawns, so
/// the stack free-list's high-water mark is bounded by it).
pub const CHURN_WAVE: usize = 4096;

/// Run the BENCH_1 measurements (scale-aware, same min-of-ten protocol as
/// every other artifact).
pub fn measure() -> Bench1 {
    let iters = 5_000 * crate::repro::scale();
    let couple_hists = workloads::couple_latency_summaries(IdlePolicy::Blocking, iters / 5);
    Bench1 {
        yield_fifo_ns: workloads::ulp_yield_ns_sched(
            IdlePolicy::BusyWait,
            SchedPolicy::GlobalFifo,
            ArchProfile::Native,
            iters,
        ),
        yield_ws_ns: workloads::ulp_yield_ns_sched(
            IdlePolicy::BusyWait,
            SchedPolicy::WorkStealing,
            ArchProfile::Native,
            iters,
        ),
        couple_rtt_busywait_ns: workloads::couple_rtt_ns(
            IdlePolicy::BusyWait,
            ArchProfile::Native,
            iters / 5,
        ),
        couple_rtt_blocking_ns: workloads::couple_rtt_ns(
            IdlePolicy::Blocking,
            ArchProfile::Native,
            iters / 5,
        ),
        couple_rtt_adaptive_ns: workloads::couple_rtt_ns(
            IdlePolicy::Adaptive,
            ArchProfile::Native,
            iters / 5,
        ),
        oversub4_switches_per_sec: workloads::oversub_switches_per_sec(
            4,
            SchedPolicy::GlobalFifo,
            8,
            iters,
        ),
        yield_interval: workloads::yield_interval_summary(
            IdlePolicy::BusyWait,
            SchedPolicy::GlobalFifo,
            iters,
        ),
        couple_resume: couple_hists.0,
        queue_delay: couple_hists.1,
        syscall_getpid: workloads::syscall_getpid_summary(iters / 5),
        churn_100k: workloads::pooled_churn(100_000, CHURN_WAVE, POOL_KCS),
        churn_1m: workloads::pooled_churn(1_000_000, CHURN_WAVE, POOL_KCS),
        yield_storm_100k: workloads::pooled_yield_storm(100_000, 4, POOL_KCS),
    }
}

fn pct_faster(before: f64, after: f64) -> f64 {
    if before.is_finite() && before > 0.0 {
        100.0 * (before - after) / before
    } else {
        f64::NAN
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_string()
    }
}

/// Hand-rolled JSON (the build environment is offline; no serde).
pub fn to_json(b: &Bench1) -> String {
    let metric = |name: &str, unit: &str, before: f64, after: f64, improvement: f64| {
        format!(
            "    \"{name}\": {{\"unit\": \"{unit}\", \"before\": {}, \"after\": {}, \"improvement_pct\": {}}}",
            json_num(before),
            json_num(after),
            json_num(improvement),
        )
    };
    let rows = [
        metric(
            "yield_latency_global_fifo",
            "ns",
            baseline::YIELD_FIFO_NS,
            b.yield_fifo_ns,
            pct_faster(baseline::YIELD_FIFO_NS, b.yield_fifo_ns),
        ),
        metric(
            "yield_latency_work_stealing",
            "ns",
            baseline::YIELD_WS_NS,
            b.yield_ws_ns,
            pct_faster(baseline::YIELD_WS_NS, b.yield_ws_ns),
        ),
        metric(
            "couple_decouple_rtt_busywait",
            "ns",
            baseline::COUPLE_RTT_BUSYWAIT_NS,
            b.couple_rtt_busywait_ns,
            pct_faster(baseline::COUPLE_RTT_BUSYWAIT_NS, b.couple_rtt_busywait_ns),
        ),
        metric(
            "couple_decouple_rtt_blocking",
            "ns",
            baseline::COUPLE_RTT_BLOCKING_NS,
            b.couple_rtt_blocking_ns,
            pct_faster(baseline::COUPLE_RTT_BLOCKING_NS, b.couple_rtt_blocking_ns),
        ),
        metric(
            "couple_decouple_rtt_adaptive",
            "ns",
            baseline::COUPLE_RTT_ADAPTIVE_NS,
            b.couple_rtt_adaptive_ns,
            pct_faster(baseline::COUPLE_RTT_ADAPTIVE_NS, b.couple_rtt_adaptive_ns),
        ),
        metric(
            "oversub_4kc_switch_throughput",
            "switches/sec",
            baseline::OVERSUB4_SWITCHES_PER_SEC,
            b.oversub4_switches_per_sec,
            // Throughput: higher is better — report the relative gain over
            // the baseline, positive for an improvement.
            -pct_faster(
                baseline::OVERSUB4_SWITCHES_PER_SEC,
                b.oversub4_switches_per_sec,
            ),
        ),
    ];
    let pct_row = |name: &str, s: &HistSummary| {
        format!(
            "    \"{name}\": {{\"unit\": \"ns\", \"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"mean\": {}}}",
            s.count,
            json_num(s.p50_ns),
            json_num(s.p95_ns),
            json_num(s.p99_ns),
            s.max_ns,
            json_num(s.mean_ns),
        )
    };
    let pct_rows = [
        pct_row("yield_interval", &b.yield_interval),
        pct_row("couple_resume", &b.couple_resume),
        pct_row("queue_delay", &b.queue_delay),
        pct_row("syscall_getpid_latency", &b.syscall_getpid),
    ];
    let churn_row = |name: &str, c: &workloads::PooledChurn| {
        format!(
            "    \"{name}\": {{\"ulps\": {}, \"pool_kcs\": {POOL_KCS}, \"wave\": {CHURN_WAVE}, \"spawn_per_sec\": {}, \"peak_rss_mib\": {}, \"stack_peak\": {}, \"stack_recycled\": {}, \"stack_trimmed\": {}}}",
            c.ulps,
            json_num(c.spawn_per_sec),
            json_num(c.peak_rss_mib),
            c.stack_peak,
            c.stack_recycled,
            c.stack_trimmed,
        )
    };
    let scale_rows = [
        churn_row("pooled_churn_100k", &b.churn_100k),
        churn_row("pooled_churn_1m", &b.churn_1m),
        format!(
            "    \"pooled_yield_storm_100k\": {{\"ulps\": {}, \"pool_kcs\": {POOL_KCS}, \"switches_per_sec\": {}, \"peak_rss_mib\": {}}}",
            b.yield_storm_100k.ulps,
            json_num(b.yield_storm_100k.switches_per_sec),
            json_num(b.yield_storm_100k.peak_rss_mib),
        ),
    ];
    format!(
        "{{\n  \"bench\": \"ulp-rs hot-path overhaul\",\n  \"protocol\": \"min of {} runs, warm-up loop per run\",\n  \"metrics\": {{\n{}\n  }},\n  \"percentiles\": {{\n{}\n  }},\n  \"scale\": {{\n{}\n  }}\n}}\n",
        crate::RUNS,
        rows.join(",\n"),
        pct_rows.join(",\n"),
        scale_rows.join(",\n"),
    )
}

/// Measure, print, and drop `BENCH_1.json` in the results directory.
pub fn run_and_save() {
    let b = measure();
    let json = to_json(&b);
    print!("{json}");
    let dir = crate::report::results_dir();
    let path = dir.join("BENCH_1.json");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[json] failed to create {}: {e}", dir.display());
        return;
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary() -> HistSummary {
        HistSummary {
            count: 1000,
            p50_ns: 150.0,
            p95_ns: 300.0,
            p99_ns: 450.0,
            max_ns: 900,
            mean_ns: 180.0,
        }
    }

    fn sample_churn(n: usize) -> workloads::PooledChurn {
        workloads::PooledChurn {
            ulps: n,
            spawn_per_sec: 250_000.0,
            peak_rss_mib: 120.5,
            stack_peak: 4096,
            stack_recycled: n.saturating_sub(4096),
            stack_trimmed: n / 16,
            stack_warm: 0,
        }
    }

    fn sample_storm() -> workloads::PooledStorm {
        workloads::PooledStorm {
            ulps: 100_000,
            switches_per_sec: 3.0e6,
            peak_rss_mib: 800.0,
        }
    }

    #[test]
    fn json_shape_is_parseable_enough() {
        let b = Bench1 {
            yield_fifo_ns: 123.4,
            yield_ws_ns: 100.0,
            couple_rtt_busywait_ns: 1500.0,
            couple_rtt_blocking_ns: 2900.0,
            couple_rtt_adaptive_ns: 2900.0,
            oversub4_switches_per_sec: 1.0e6,
            yield_interval: sample_summary(),
            couple_resume: sample_summary(),
            queue_delay: sample_summary(),
            syscall_getpid: sample_summary(),
            churn_100k: sample_churn(100_000),
            churn_1m: sample_churn(1_000_000),
            yield_storm_100k: sample_storm(),
        };
        let s = to_json(&b);
        assert!(s.contains("\"yield_latency_global_fifo\""));
        assert!(s.contains("\"after\": 123.4"));
        // Balanced braces — crude but catches truncation.
        assert_eq!(
            s.matches('{').count(),
            s.matches('}').count(),
            "unbalanced JSON: {s}"
        );
    }

    #[test]
    fn json_has_percentile_rows() {
        let b = Bench1 {
            yield_fifo_ns: 100.0,
            yield_ws_ns: 100.0,
            couple_rtt_busywait_ns: 1000.0,
            couple_rtt_blocking_ns: 1000.0,
            couple_rtt_adaptive_ns: 1000.0,
            oversub4_switches_per_sec: 1.0e6,
            yield_interval: sample_summary(),
            couple_resume: sample_summary(),
            queue_delay: sample_summary(),
            syscall_getpid: sample_summary(),
            churn_100k: sample_churn(100_000),
            churn_1m: sample_churn(1_000_000),
            yield_storm_100k: sample_storm(),
        };
        let s = to_json(&b);
        for row in [
            "\"yield_interval\"",
            "\"couple_resume\"",
            "\"queue_delay\"",
            "\"syscall_getpid_latency\"",
        ] {
            assert!(s.contains(row), "missing percentile row {row} in {s}");
        }
        assert!(s.contains("\"p50\": 150.0"));
        assert!(s.contains("\"p95\": 300.0"));
        assert!(s.contains("\"p99\": 450.0"));
        assert!(s.contains("\"max\": 900"));
        // An unmeasured summary still renders as valid JSON (NaN
        // percentiles become null via json_num).
        let empty = Bench1 {
            yield_interval: HistSummary::default(),
            ..b
        };
        let s = to_json(&empty);
        assert!(s.contains("\"count\": 0"));
        assert!(s.matches('{').count() == s.matches('}').count());
    }

    #[test]
    fn measured_percentiles_are_ordered() {
        // A tiny traced run: the folded histogram must produce ordered,
        // populated percentiles (p50 <= p95 <= p99 <= max).
        let s =
            workloads::yield_interval_summary(IdlePolicy::BusyWait, SchedPolicy::GlobalFifo, 2_000);
        assert!(s.count > 0, "traced yields must land samples: {s:?}");
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns, "{s:?}");
        assert!(s.p99_ns <= s.max_ns as f64 + 1e-9, "{s:?}");
    }

    #[test]
    fn pct_faster_sign() {
        assert!((pct_faster(200.0, 100.0) - 50.0).abs() < 1e-9);
        assert!(pct_faster(f64::NAN, 100.0).is_nan());
    }

    #[test]
    fn throughput_gain_is_positive() {
        // Throughput doubled → the JSON must report a positive gain.
        let b = Bench1 {
            yield_fifo_ns: 100.0,
            yield_ws_ns: 100.0,
            couple_rtt_busywait_ns: 1000.0,
            couple_rtt_blocking_ns: 1000.0,
            couple_rtt_adaptive_ns: 1000.0,
            oversub4_switches_per_sec: 2.0 * baseline::OVERSUB4_SWITCHES_PER_SEC,
            yield_interval: sample_summary(),
            couple_resume: sample_summary(),
            queue_delay: sample_summary(),
            syscall_getpid: sample_summary(),
            churn_100k: sample_churn(100_000),
            churn_1m: sample_churn(1_000_000),
            yield_storm_100k: sample_storm(),
        };
        let s = to_json(&b);
        let row = s
            .lines()
            .find(|l| l.contains("oversub_4kc_switch_throughput"))
            .unwrap();
        assert!(row.contains("\"improvement_pct\": 100.0"), "row: {row}");
    }
}
