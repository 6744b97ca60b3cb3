//! The five workloads. Each is a closed loop generated inside one process
//! by the workload's own ULPs, on a default `Config` unless its module says
//! otherwise, and each stresses a different part of the
//! switch → couple → syscall → wake stack (the `WHY` strings, repeated in
//! `BENCHMARK.json` and the README, say which and why).

pub mod couple_io;
pub mod echo;
pub mod pooled_churn;
pub mod syscall_mix;
pub mod yield_ring;

use crate::hist::LogHist;
use crate::rep::{check, Check, Driven, RepCfg, RepOut, UlpOut};
use crate::span::{Name, SpanBuf};
use crate::traced::{derive, EchoView};
use std::time::Instant;
use ulp_core::{couple, coupled_scope, decouple, Runtime, UlpError};

/// A finished repetition plus the span buffers it filled (empty untraced).
pub struct Rep {
    pub out: RepOut,
    pub spans: Vec<SpanBuf>,
}

pub struct Workload {
    pub name: &'static str,
    /// Why it is in the benchmark, in one line.
    pub why: &'static str,
    /// One repetition; `started` is when the process began (for `setup_s`).
    pub run: fn(&RepCfg, Instant) -> Rep,
    /// Digest of the inputs a seed generates — the self-tests' handle on
    /// "same seed, same inputs".
    pub input_digest: fn(u64) -> u64,
}

macro_rules! workload {
    ($m:ident) => {
        Workload {
            name: $m::NAME,
            why: $m::WHY,
            run: $m::run,
            input_digest: $m::input_digest,
        }
    };
}

/// The workloads, in the order they are run and printed.
pub const ALL: [Workload; 5] = [
    workload!(yield_ring),
    workload!(couple_io),
    workload!(syscall_mix),
    workload!(echo),
    workload!(pooled_churn),
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Run `f` coupled with the original KC. Untraced this is the paper's
/// `coupled_scope`; traced, the scope is spelled out as `couple()` …
/// `decouple()` so that each transition gets a span of its own (the
/// decouple span runs from the call until the ULP is running again, so it
/// contains the run-queue delay and any scheduler wake).
fn coupled<R>(
    sp: &mut SpanBuf,
    rid: u64,
    f: impl FnOnce(&mut SpanBuf) -> R,
) -> Result<R, UlpError> {
    if sp.is_on() {
        sp.call(Name::Couple, rid, couple)?;
        let r = f(sp);
        sp.call(Name::Decouple, rid, decouple)?;
        Ok(r)
    } else {
        coupled_scope(|| f(sp))
    }
}

/// What a ULP-driven workload hands to [`finish`].
struct Finished<'a> {
    rt: &'a Runtime,
    cfg: &'a RepCfg,
    driven: Driven,
    outs: Vec<UlpOut>,
    /// Exit status of every ULP, 0 expected.
    statuses: Vec<i32>,
    /// Operations one latency sample spans.
    ops_per_sample: f64,
    checks: Vec<Check>,
    echo: Option<EchoView>,
}

/// Fold the ULPs' outputs and the checks every workload shares into the
/// repetition's result.
fn finish(f: Finished<'_>) -> Rep {
    let Finished {
        rt,
        cfg,
        driven,
        outs,
        statuses,
        ops_per_sample,
        mut checks,
        echo,
    } = f;
    let mut hist = LogHist::default();
    let mut problems = Vec::new();
    let mut spans = Vec::new();
    for o in outs {
        if let Some(h) = &o.hist {
            hist.merge(h);
        }
        problems.extend(o.problems.iter().map(|p| format!("ulp {}: {p}", o.index)));
        if o.spans.traced() {
            spans.push(o.spans);
        }
    }
    checks.push(check(
        "ulps_exit_clean",
        statuses.iter().all(|&s| s == 0) && problems.is_empty(),
        format!("statuses {statuses:?}; {}", problems.join("; ")),
    ));
    checks.extend(common_checks(rt, cfg, driven.tracer_was_on, &spans));
    let traced = cfg
        .traced
        .then(|| derive(rt, &spans, &driven.window, echo.as_ref()));
    Rep {
        out: RepOut {
            setup_s: driven.setup_s,
            op_ns: hist.mean() / ops_per_sample.max(1.0),
            window: driven.window,
            peak_rss_mib: driven.peak_rss_mib,
            hist,
            stack_peak: rt.stack_pool().peak_outstanding(),
            violations: rt.violations().len(),
            checks,
            traced,
        },
        spans,
    }
}

/// Checks that hold for every workload: no system call was issued
/// decoupled, and the tracer state is what the repetition asked for — an
/// untraced window really is untraced (runtime tracer off, no span memory).
fn common_checks(rt: &Runtime, cfg: &RepCfg, tracer_was_on: bool, spans: &[SpanBuf]) -> Vec<Check> {
    let violations = rt.violations();
    vec![
        check(
            "no_consistency_violations",
            violations.is_empty(),
            format!(
                "{} recorded, first: {:?}",
                violations.len(),
                violations.first()
            ),
        ),
        check(
            "tracer_state",
            tracer_was_on == cfg.traced && spans.is_empty() != cfg.traced,
            format!(
                "traced={} runtime tracer on={} span buffers={}",
                cfg.traced,
                tracer_was_on,
                spans.len()
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed, same generated inputs; another seed, other inputs — for
    /// every workload.
    #[test]
    fn inputs_depend_on_the_seed_and_on_nothing_else() {
        for w in &ALL {
            let d = w.input_digest;
            assert_eq!(d(1), d(1), "{}", w.name);
            assert_eq!(d(u64::MAX), d(u64::MAX), "{}", w.name);
            assert_ne!(d(1), d(2), "{}", w.name);
            assert_ne!(d(0), d(u64::MAX), "{}", w.name);
        }
        assert!(find("no_such_workload").is_none());
        assert!(find("echo").is_some_and(|w| !w.why.is_empty()));
    }
}
