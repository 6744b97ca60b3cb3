//! The runtime side of `/proc`: a provider that renders runtime state for
//! the simulated kernel's procfs (see `ulp_kernel::fs::procfs`).
//!
//! The kernel crate owns the *filesystem* — mount dispatch, open/read
//! semantics, content freezing — but knows nothing about runtimes, BLTs or
//! Prometheus. This module closes the loop the same way the trace observer
//! does: an entry of the one process-global `ulp_kernel::KernelHooks` table,
//! installed at `Runtime` construction, that routes through the calling
//! thread's *thread-local* runtime. Several runtimes in one process each see their own state in
//! `/proc`, because the provider resolves `current_runtime()` at open time
//! — on the thread executing the ULP's `open(2)`, which by the coupling
//! protocol is a kernel context of the runtime that owns the ULP.
//!
//! The headline invariant (asserted in tests): a ULP reading
//! `/proc/ulp/metrics` from the inside sees **byte-for-byte** the same
//! exposition text an external scraper gets from the HTTP `/metrics`
//! endpoint at the same quiesced instant. Both funnel into
//! [`RuntimeInner::prometheus_render`], and the kernel commits syscall
//! counters at syscall *exit*, so the open that fetches the body does not
//! perturb what the body reports.

use crate::runtime::RuntimeInner;
use crate::uc::UcState;
use std::fmt::Write;
use std::sync::Arc;
use ulp_kernel::ProcSource;

/// The `proc` hook registered with the kernel: render `source` from the
/// calling thread's runtime, or `None` when no runtime is attached (the
/// kernel substitutes a placeholder body).
pub(crate) fn provider(source: ProcSource) -> Option<String> {
    let rt = crate::current::current_runtime()?;
    Some(match source {
        ProcSource::Metrics => rt.prometheus_render(),
        ProcSource::Profile => rt.profile_collapsed(),
        ProcSource::RuntimeStat => runtime_stat_text(&rt),
        ProcSource::PidExtra(pid) => return pid_extra(&rt, pid.0),
    })
}

/// Body of `/proc/ulp/stat`: one `name value` line per row of the counter
/// table (`stats.rs`), in declaration order, then the stack pool's warm
/// gauge. Plain `cut`/`awk` fodder — the Prometheus exposition lives next
/// door in `/proc/ulp/metrics`.
fn runtime_stat_text(rt: &Arc<RuntimeInner>) -> String {
    let mut out = String::new();
    for c in rt.stats.snapshot().counters() {
        let _ = writeln!(out, "{} {}", c.name, c.value);
    }
    let _ = writeln!(out, "stack_warm {}", rt.stack_pool.warm());
    out
}

/// Runtime enrichment appended to `/proc/<pid>/stat`: the Table-I view of
/// the UC carrying that kernel identity (BLT id, lifecycle state, couple
/// state, original-KC thread, spawn time). `None` when the pid has no
/// registered UC — e.g. the root process or a scheduler of *another*
/// runtime — in which case the kernel serves its own fields only.
fn pid_extra(rt: &Arc<RuntimeInner>, pid: u32) -> Option<String> {
    let uc = rt.uc_for_pid(pid)?;
    let state = match uc.state() {
        UcState::Created => "created",
        UcState::Running => "running",
        UcState::Terminated => "terminated",
    };
    let couple = if uc.is_coupled() {
        "coupled"
    } else {
        "decoupled"
    };
    let kc = match uc.kc.thread_id.get() {
        Some(id) => format!("{id:?}"),
        None => "unbound".to_string(),
    };
    Some(format!(
        "blt={} ulp_state={state} couple={couple} kc={kc} spawn_ns={}",
        uc.id.0, uc.spawn_ns
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_text_has_one_line_per_counter() {
        let rt = crate::Runtime::new();
        let text = runtime_stat_text(rt.inner());
        let counters = rt.stats().snapshot().counters().count();
        assert_eq!(text.lines().count(), counters + 1);
        for missing_at_pr_23 in ["pooled_spawned", "yield_homes", "park_sleeps"] {
            assert!(text.contains(&format!("{missing_at_pr_23} 0\n")), "{text}");
        }
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap();
            let value = parts.next().unwrap();
            assert!(parts.next().is_none(), "extra field in {line:?}");
            assert!(!name.is_empty());
            value.parse::<u64>().expect("numeric value");
        }
    }

    #[test]
    fn pid_extra_unknown_pid_is_none() {
        let rt = crate::Runtime::new();
        assert_eq!(pid_extra(rt.inner(), 9999), None);
    }
}
