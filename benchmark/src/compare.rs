//! `ulpbench compare A.json B.json` — judge run B against run A with the
//! bounds `BENCHMARK.json` fixes: one row per (end-to-end metric, workload),
//! plus a check that the host did not change between the two runs.
//!
//! * `better` / `worse` — B's median is better / worse than A's by more
//!   than the bound, and the two runs' min–max ranges do not overlap.
//! * `unresolved` — the medians differ by more than the bound but the
//!   ranges overlap: the spread is wider than the bound, so the difference
//!   cannot be called either way.
//! * `within` — the medians differ by no more than the bound.
//!
//! Exits non-zero on any `worse`. Run it on two runs of the same commit
//! (A/A) to see what the benchmark can resolve on this host.

use crate::args::Args;
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

/// Two runs whose `kernel.futex.wake_to_run_ns` differ by more than this
/// share were not taken on the same host in the same state.
const HOST_TOLERANCE: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

/// One run's median and range of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// How much worse `b` is than `a` as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn judge(a: Stat, b: Stat, higher_is_better: bool, bound: f64) -> Verdict {
    let w = worsening(a.median, b.median, higher_is_better);
    if w.abs() <= bound {
        return Verdict::Within;
    }
    if a.min <= b.max && b.min <= a.max {
        return Verdict::Unresolved;
    }
    if w > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn stat(run: &Value, workload: &str, metric: &str) -> Option<Stat> {
    let m = &run["workloads"][workload]["end_to_end"][metric];
    Some(Stat {
        median: m["median"].as_f64()?,
        min: m["min"].as_f64()?,
        max: m["max"].as_f64()?,
    })
}

pub fn main(args: &Args) -> Result<ExitCode, String> {
    let pos = args.positional();
    let [_, a_path, b_path] = pos[..] else {
        return Err("usage: ulpbench compare A.json B.json [--bench BENCHMARK.json]".to_string());
    };
    let default_bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench = load(
        args.value("--bench")
            .unwrap_or(&default_bench.to_string_lossy()),
    )?;
    let (a, b) = (load(a_path)?, load(b_path)?);

    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let mut worse = 0;
    for w in bench["workloads"].as_array().into_iter().flatten() {
        let w = w["name"]
            .as_str()
            .ok_or("BENCHMARK.json: workload without name")?;
        for m in bench["end_to_end"].as_array().into_iter().flatten() {
            let name = m["name"]
                .as_str()
                .ok_or("BENCHMARK.json: metric without name")?;
            let bound = m["bound"]
                .as_f64()
                .ok_or("BENCHMARK.json: metric without bound")?;
            let higher = m["better"].as_str() == Some("higher");
            let (Some(sa), Some(sb)) = (stat(&a, w, name), stat(&b, w, name)) else {
                return Err(format!("{w}/{name} missing from one of the runs"));
            };
            let v = judge(sa, sb, higher, bound);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<14} {:<14} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}",
                w,
                name,
                sa.median,
                sb.median,
                100.0 * worsening(sa.median, sb.median, higher),
                100.0 * bound,
                format!("{v:?}").to_lowercase()
            );
        }
    }

    let futex = |run: &Value| run["ladder"]["kernel.futex.wake_to_run_ns"]["value"].as_f64();
    match (futex(&a), futex(&b)) {
        (Some(fa), Some(fb)) if fa > 0.0 => {
            let off = (fb - fa).abs() / fa;
            println!(
                "host check: kernel.futex.wake_to_run_ns {fa:.0} ns vs {fb:.0} ns ({:+.1}%): {}",
                100.0 * (fb - fa) / fa,
                if off <= HOST_TOLERANCE {
                    "same host state"
                } else {
                    "HOST CHANGED between the runs - the comparison is void"
                }
            );
        }
        _ => println!("host check: kernel.futex.wake_to_run_ns missing - cannot tell"),
    }
    Ok(if worse > 0 {
        println!("{worse} metric(s) worse than the bound allows");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, min: f64, max: f64) -> Stat {
        Stat { median, min, max }
    }

    #[test]
    fn verdicts() {
        let a = s(100.0, 95.0, 105.0);
        // Lower is better, bound 10 %.
        assert_eq!(
            judge(a, s(108.0, 100.0, 120.0), false, 0.10),
            Verdict::Within
        );
        assert_eq!(
            judge(a, s(125.0, 118.0, 130.0), false, 0.10),
            Verdict::Worse
        );
        assert_eq!(judge(a, s(80.0, 75.0, 85.0), false, 0.10), Verdict::Better);
        assert_eq!(
            judge(a, s(115.0, 101.0, 140.0), false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(a, s(85.0, 70.0, 96.0), false, 0.10),
            Verdict::Unresolved
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            judge(a, s(125.0, 118.0, 130.0), true, 0.10),
            Verdict::Better
        );
        assert_eq!(judge(a, s(80.0, 75.0, 85.0), true, 0.10), Verdict::Worse);
        assert_eq!(worsening(100.0, 90.0, true), 0.1);
    }
}
