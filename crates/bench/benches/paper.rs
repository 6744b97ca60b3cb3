//! Harness-free ablations of the design choices DESIGN.md calls out: TLS
//! register switching on/off, ucontext-style signal-mask saving, and eager
//! vs lazy trampoline creation. The paper's own tables, and
//! over-subscription, are `repro`'s job.
//!
//! The build environment is offline, so instead of criterion this uses the
//! paper's protocol (warm-up loop, then minimum of ten measured runs). Run:
//! `cargo bench -p ulp-bench --bench paper [-- <filter>]`.

use ulp_bench::{min_of_runs, sci, workloads};
use ulp_core::{decouple, IdlePolicy, Runtime};

fn report(group: &str, name: &str, ns_per_op: f64) {
    println!("{group}/{name}: {ns_per_op:.1} ns/op ({})", sci(ns_per_op));
}

/// Yield cost (Table IV's workload) with one design choice flipped at a time.
fn bench_yield() {
    let busywait = || Runtime::builder().idle_policy(IdlePolicy::BusyWait);
    let configs = [
        ("busywait/fifo", busywait()),
        ("ablate-no-tls", busywait().tls_switch(false)),
        ("ablate-save-sigmask", busywait().save_sigmask(true)),
    ];
    for (name, builder) in configs {
        let ns = workloads::ulp_yield_ns(builder, 10_000);
        report("ablate_yield", name, ns);
    }
}

/// Ablation: eager vs lazy trampoline-context creation (spawn+decouple
/// latency).
fn bench_tc_creation() {
    for (name, eager) in [("lazy_tc", false), ("eager_tc", true)] {
        let rt = Runtime::builder()
            .schedulers(1)
            .idle_policy(IdlePolicy::Blocking)
            .eager_tc(eager)
            .build();
        let ns = min_of_runs(|| {
            let t = std::time::Instant::now();
            for _ in 0..16 {
                let h = rt.spawn("tc-bench", || {
                    decouple().unwrap();
                    0
                });
                h.wait();
            }
            t.elapsed().as_nanos() as f64 / 16.0
        });
        report("ablate_tc", name, ns);
    }
}

fn main() {
    // `cargo bench` passes `--bench` ahead of any filter of the user's.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    let filter = filter.unwrap_or_default();
    let groups: &[(&str, fn())] = &[
        ("ablate_yield", bench_yield),
        ("ablate_tc", bench_tc_creation),
    ];
    for (name, f) in groups {
        if filter.is_empty() || name.contains(&filter) {
            f();
        }
    }
}
