//! The benchmark's metric names, units and directions — the one table the
//! output code, `compare` and the self-tests agree on. `BENCHMARK.json`
//! repeats it (plus the regression bounds, which live only there); a test
//! below keeps the two in step.

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the runtime sees; each is defined on every workload and
/// is the median over the measured repetitions.
pub const END_TO_END: [Def; 5] = [
    def("ops_per_s", "1/s", "higher"),
    def("op_p50_us", "us", "lower"),
    def("cpu_us_per_op", "us", "lower"),
    def("peak_rss_mib", "MiB", "lower"),
    def("setup_s", "s", "lower"),
];

/// Measured like an end-to-end metric (median over the repetitions, every
/// workload) but **demoted to per-layer**, so reported and not gated: on
/// the host this was built on the tail percentile is set by how often the
/// host interrupts a thread, and its spread between runs of one commit
/// (13–24 %) cannot be held inside a bound (README, "Seed run").
pub const DEMOTED: [Def; 1] = [def("op_p99_us", "us", "lower")];

/// Counts per operation read from the runtime's public counters over the
/// untraced windows.
pub const COUNTS: [Def; 11] = [
    def("core.couple.switches_per_op", "1/op", "lower"),
    def("core.couple.tls_loads_per_op", "1/op", "lower"),
    def("core.couple.couples_per_op", "1/op", "lower"),
    def("core.couple.handoff_ratio", "ratio", "higher"),
    def("core.runqueue.dispatches_per_op", "1/op", "lower"),
    def("core.runqueue.yields_per_op", "1/op", "lower"),
    def("core.kc.blocks_per_op", "1/op", "lower"),
    def("kernel.syscall.calls_per_op", "1/op", "lower"),
    def("fcontext.stack_recycle_ratio", "ratio", "higher"),
    def("fcontext.stack_peak", "count", "lower"),
    def("core.sys.violations", "count", "lower"),
];

/// From the traced repetition. `ns_log2` marks a median read from the
/// runtime's own log2-bucketed histograms (factor-of-two resolution). A
/// metric that a workload does not exercise reads 0 there.
pub const TRACED: [Def; 33] = [
    def("core.couple.couple_call_ns_p50", "ns", "lower"),
    def("core.couple.decouple_call_ns_p50", "ns", "lower"),
    def("core.sys.write_call_ns_p50", "ns", "lower"),
    def("core.sys.read_call_ns_p50", "ns", "lower"),
    def("core.sys.epoll_wait_call_ns_p50", "ns", "lower"),
    def("kernel.socket.c2s_wake_ns_p50", "ns", "lower"),
    def("kernel.socket.s2c_wake_ns_p50", "ns", "lower"),
    def("kernel.poll.server_busy_ratio", "ratio", "lower"),
    def("core.runqueue.queue_delay_ns_p50", "ns_log2", "lower"),
    def("core.couple.resume_ns_p50", "ns_log2", "lower"),
    def("core.kc.block_ns_p50", "ns_log2", "lower"),
    def("core.runqueue.wake_enqueue_ns_p50", "ns_log2", "lower"),
    def("core.runqueue.wake_enqueue_per_op", "1/op", "lower"),
    def("core.couple.wake_couple_resume_ns_p50", "ns_log2", "lower"),
    def("core.couple.wake_couple_resume_per_op", "1/op", "lower"),
    def("core.kc.wake_kc_notify_ns_p50", "ns_log2", "lower"),
    def("core.kc.wake_kc_notify_per_op", "1/op", "lower"),
    def("kernel.socket.wake_sock_read_ns_p50", "ns_log2", "lower"),
    def("kernel.socket.wake_sock_read_per_op", "1/op", "lower"),
    def("kernel.poll.wake_epoll_wait_ns_p50", "ns_log2", "lower"),
    def("kernel.poll.wake_epoll_wait_per_op", "1/op", "lower"),
    def("kernel.syscall.open_ns_p50", "ns_log2", "lower"),
    def("kernel.syscall.close_ns_p50", "ns_log2", "lower"),
    def("kernel.syscall.read_ns_p50", "ns_log2", "lower"),
    def("kernel.syscall.write_ns_p50", "ns_log2", "lower"),
    def("kernel.syscall.pread_ns_p50", "ns_log2", "lower"),
    def("kernel.syscall.pwrite_ns_p50", "ns_log2", "lower"),
    def("kernel.syscall.stat_ns_p50", "ns_log2", "lower"),
    def("kernel.syscall.epoll_wait_ns_p50", "ns_log2", "lower"),
    def("core.trace.overhead_pct", "%", "lower"),
    def("core.trace.dropped_records", "count", "lower"),
    def("budget.span_residual_pct", "%", "lower"),
    def("budget.model_residual_pct", "%", "lower"),
];

/// Every per-layer metric, in the order it is printed: demoted, ladder,
/// counts, traced.
pub fn per_layer() -> Vec<Def> {
    let rungs = crate::ladder::RUNGS
        .iter()
        .map(|&(name, unit)| def(name, unit, "lower"));
    DEMOTED
        .into_iter()
        .chain(rungs)
        .chain(COUNTS)
        .chain(TRACED)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly these workloads and metrics, with these
    /// units and directions, and stays inside the contract's limits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v = serde_json::from_str(&text).expect("valid JSON");
        let keys: Vec<_> = v.as_object().unwrap().keys().cloned().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let workloads: Vec<_> = v["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| (w["name"].as_str().unwrap(), w["why"].as_str().unwrap()))
            .collect();
        let ours: Vec<_> = crate::workloads::ALL
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(workloads, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let listed = |key: &str| -> Vec<(String, String, String)> {
            v[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                        m["better"].as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let expect = |defs: &[Def]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), expect(&END_TO_END));
        assert_eq!(listed("per_layer"), expect(&per_layer()));
        assert!(per_layer().len() <= 128);
        for m in v["end_to_end"].as_array().unwrap() {
            let b = m["bound"].as_f64().unwrap();
            assert!(b > 0.0 && b <= 0.25, "{m}");
        }
        for (name, unit, better) in listed("end_to_end").into_iter().chain(listed("per_layer")) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(better == "higher" || better == "lower");
        }
        let secs = v["run_seconds"].as_u64().unwrap();
        assert!((1..=60).contains(&secs));
        assert_eq!(v["paths"].as_array().unwrap().len(), 1);
        assert!(text.len() <= 64 * 1024);
    }
}
