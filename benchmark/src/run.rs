//! The parent side: plan the repetitions, run each as a child process,
//! reduce them to medians, print and write the results.
//!
//! Two front ends share it. `ulpbench run` is the full sweep (every
//! workload, repetitions interleaved round-robin so a noisy-neighbour burst
//! costs each workload one repetition instead of one workload all five, one
//! traced repetition per workload, the ladder, `out/results.json`).
//! `ulpbench --workload W --seed N --seconds S --trace T` is the form
//! `BENCHMARK.json`'s command takes: one workload, the measured time split
//! over the same repetitions, one JSON object as the last line.

use crate::args::Args;
use crate::child;
use crate::json::{num, obj, text};
use crate::metrics::{per_layer, Def, COUNTS, DEMOTED, END_TO_END, TRACED};
use crate::workloads;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Repetitions per workload whose median is reported.
const REPS: usize = 8;
/// Warm-up before each window: caches, lazy trampoline contexts, the pool
/// KC threads and the host's own adaptive idle behaviour settle in it.
const WARM: Duration = Duration::from_millis(300);
/// Extra set-ups after each repetition (children that set up and stop at
/// once). Set-up is milliseconds of thread creation and first wake-ups, the
/// noisiest thing measured here: its median rests on `REPS` × (1 + this
/// many) samples, spread over the whole run so that one bad stretch of the
/// host cannot colour them all.
const SETUPS_PER_REP: usize = 12;
/// Ladder passes whose per-rung median is reported.
const LADDER_PASSES: usize = 5;
/// Batches' worth of time one ladder pass takes.
const PASS_BATCHES: f64 = crate::ladder::MEASURED as f64 * (1.0 + crate::ladder::WARM_SHARE);

/// Rung name → measured cost.
type Ladder = BTreeMap<String, f64>;

#[derive(Debug, Clone)]
struct Plan {
    seed: u64,
    reps: usize,
    setups_per_rep: usize,
    /// One traced repetition per workload and the ladder, after the rest.
    traced: bool,
    warm: Duration,
    window: Duration,
    ladder_batch: Duration,
}

/// `benchmark/out/`, next to this package's manifest: inside the checkout
/// wherever the command is run from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn metric(value: f64, unit: &str) -> Value {
    obj([("value", num(value)), ("unit", text(unit))])
}

/// `(min, max)`; `(0, 0)` of nothing.
fn min_max(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn run_rep(workload: &str, plan: &Plan, traced: bool) -> Result<Value, String> {
    let mut args = vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        plan.seed.to_string(),
        "--warm-ms".to_string(),
        plan.warm.as_millis().to_string(),
        "--window-ms".to_string(),
        plan.window.as_millis().to_string(),
        "--trace".to_string(),
        u8::from(traced).to_string(),
    ];
    if traced {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        args.push("--spans-out".to_string());
        args.push(
            dir.join(format!("{workload}.spans.json"))
                .to_string_lossy()
                .into_owned(),
        );
    }
    child::spawn(&args, plan.warm + plan.window)
}

/// One more `setup_s` sample: a child that sets the workload up and stops.
fn run_setup(workload: &str, plan: &Plan) -> Result<Value, String> {
    let args = ["--workload", workload, "--seed", &plan.seed.to_string()]
        .into_iter()
        .chain(["--warm-ms", "0", "--window-ms", "0", "--setup-only"])
        .map(String::from)
        .collect::<Vec<_>>();
    child::spawn(&args, Duration::ZERO)
}

/// One ladder pass in a child.
fn run_ladder_pass(plan: &Plan) -> Result<Ladder, String> {
    let args = [
        "--ladder".to_string(),
        "--batch-ms".to_string(),
        plan.ladder_batch.as_millis().max(1).to_string(),
    ];
    let v = child::spawn(&args, plan.ladder_batch.mul_f64(PASS_BATCHES))?;
    let rungs = v.as_object().ok_or("ladder: not an object")?;
    Ok(rungs
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect())
}

/// Everything the children of one workload reported.
#[derive(Default)]
struct Runs {
    /// Untraced repetitions that ran to the end (passing or not).
    reps: Vec<Value>,
    traced: Option<Value>,
    /// `setup_s` of the set-up-only children.
    extra_setups: Vec<f64>,
    /// Repetitions that timed out, crashed or failed a check.
    failed_reps: usize,
    errors: Vec<String>,
}

impl Runs {
    fn add(&mut self, traced: bool, r: Result<Value, String>) {
        match r {
            Err(e) => {
                self.failed_reps += 1;
                self.errors.push(e);
            }
            Ok(v) => {
                if v["ok"].as_bool() != Some(true) {
                    self.failed_reps += 1;
                    for c in v["checks"].as_array().into_iter().flatten() {
                        if c["ok"].as_bool() != Some(true) {
                            self.errors
                                .push(format!("check {} failed: {}", c["name"], c["detail"]));
                        }
                    }
                    if v["ops_failed"].as_f64().unwrap_or(0.0) > 0.0 {
                        self.errors
                            .push(format!("{} operations failed", v["ops_failed"]));
                    }
                }
                if traced {
                    self.traced = Some(v);
                } else {
                    self.reps.push(v);
                }
            }
        }
    }

    fn add_setup(&mut self, r: Result<Value, String>) {
        match r.map(|v| v["setup_s"].as_f64()) {
            Ok(Some(s)) => self.extra_setups.push(s),
            Ok(None) => self.add(false, Err("set-up child printed no setup_s".to_string())),
            Err(e) => self.add(false, Err(e)),
        }
    }

    fn all(&self) -> impl Iterator<Item = &Value> {
        self.reps.iter().chain(&self.traced)
    }

    fn total(&self, key: &str) -> u64 {
        self.all().filter_map(|v| v[key].as_u64()).sum()
    }

    /// `[group][name]` of every untraced repetition.
    fn values(&self, group: &str, name: &str) -> Vec<f64> {
        self.reps
            .iter()
            .filter_map(|v| v[group][name].as_f64())
            .collect()
    }

    fn correct(&self) -> bool {
        self.failed_reps == 0 && self.total("ops_failed") == 0 && self.all().next().is_some()
    }
}

/// What one syscall of kind `call` costs according to the ladder — the cost
/// model's price list.
fn syscall_cost(call: &str, ladder: &Ladder) -> f64 {
    let l = |k: &str| ladder.get(k).copied().unwrap_or(0.0);
    match call {
        "getpid" => l("core.sys.getpid_ns"),
        "open" | "close" => l("kernel.fs.open_close_ns") / 2.0,
        "pread" => l("kernel.fs.pread_256_ns"),
        "pwrite" => l("kernel.fs.pwrite_256_ns"),
        "stat" => l("kernel.fs.stat_ns"),
        // Stream reads and writes: half a same-thread round trip.
        "read" | "write" => l("kernel.socket.rt_256_ns") / 2.0,
        "epoll_wait" => l("kernel.poll.epoll_ready_ns"),
        // Anything else is charged the bare entry cost.
        _ => l("kernel.syscall.getpid_ns"),
    }
}

/// Wake sites where an OS thread slept inside a simulated system call.
const KERNEL_SLEEPER_SITES: [&str; 7] = [
    "pipe_read",
    "pipe_write",
    "sock_read",
    "sock_write",
    "accept",
    "epoll_wait",
    "poll",
];

/// `|measured − model| ÷ measured`, %, where the model prices the events
/// one operation causes (counts from the untraced windows and the traced
/// repetition's wake and syscall counts) with the ladder's unit costs.
fn model_residual_pct(
    counts: &BTreeMap<&str, f64>,
    traced: &Value,
    ladder: &Ladder,
    op_ns: f64,
    pooled_per_op: f64,
) -> f64 {
    let c = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let l = |k: &str| ladder.get(k).copied().unwrap_or(0.0);
    let per_op = |group: &str| -> Vec<(String, f64)> {
        traced[group]
            .as_object()
            .into_iter()
            .flatten()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect()
    };
    let yields = c("core.runqueue.yields_per_op");
    let other_switches = (c("core.couple.switches_per_op") - yields).max(0.0);
    // The runtime also times the sleeps nested inside a call
    // (`sock_block_read`, `futex_wait`, …) as rows of their own; sleeping is
    // the wake term's business, not a call to price.
    let syscalls: f64 = per_op("syscalls_per_op")
        .iter()
        .filter(|(call, _)| !call.contains("block") && !call.starts_with("futex"))
        .map(|(call, n)| n * syscall_cost(call, ladder))
        .sum();
    let sleeper_wakes: f64 = per_op("wakes_per_op")
        .iter()
        .filter(|(site, _)| KERNEL_SLEEPER_SITES.contains(&site.as_str()))
        .map(|(_, n)| n)
        .sum();
    let model = yields * l("core.couple.yield_ns")
        + other_switches * l("fcontext.switch_ns")
        + syscalls
        + (c("core.kc.blocks_per_op") + sleeper_wakes) * l("kernel.futex.wake_to_run_ns")
        + pooled_per_op * l("fcontext.stack_cycle_ns");
    if op_ns > 0.0 {
        100.0 * (op_ns - model).abs() / op_ns
    } else {
        0.0
    }
}

/// One workload's reduced numbers.
struct Summary {
    /// End-to-end metric → values of the repetitions that ran.
    e2e: BTreeMap<&'static str, Vec<f64>>,
    /// Every per-layer metric (0 where the workload does not exercise it).
    layer: BTreeMap<&'static str, f64>,
}

fn summarize(runs: &Runs, ladder: &Ladder) -> Summary {
    let mut e2e = END_TO_END
        .iter()
        .map(|d| (d.name, runs.values("e2e", d.name)))
        .collect::<BTreeMap<_, _>>();
    e2e.entry("setup_s").or_default().extend(&runs.extra_setups);
    let counts: BTreeMap<&str, f64> = COUNTS
        .iter()
        .map(|d| (d.name, median(&runs.values("counts", d.name))))
        .collect();
    let mut layer: BTreeMap<&'static str, f64> =
        per_layer().iter().map(|d| (d.name, 0.0)).collect();
    for (name, _) in crate::ladder::RUNGS {
        layer.insert(name, ladder.get(name).copied().unwrap_or(0.0));
    }
    layer.extend(&counts);
    for d in &DEMOTED {
        layer.insert(d.name, median(&runs.values("e2e", d.name)));
    }
    if let Some(t) = &runs.traced {
        let tm = &t["traced_metrics"];
        for d in &TRACED {
            if let Some(v) = tm["metrics"][d.name].as_f64() {
                layer.insert(d.name, v);
            }
        }
        let untraced = median(&e2e["ops_per_s"]);
        if let (true, Some(traced)) = (untraced > 0.0, t["e2e"]["ops_per_s"].as_f64()) {
            layer.insert(
                "core.trace.overhead_pct",
                100.0 * (untraced - traced) / untraced,
            );
        }
        let med = |key: &str| {
            let values: Vec<f64> = runs.reps.iter().filter_map(|v| v[key].as_f64()).collect();
            median(&values)
        };
        layer.insert(
            "budget.model_residual_pct",
            model_residual_pct(&counts, tm, ladder, med("op_ns"), med("pooled_per_op")),
        );
    }
    Summary { e2e, layer }
}

fn print_summary(workload: &str, runs: &Runs, s: &Summary) {
    let why = workloads::find(workload).map_or("", |w| w.why);
    println!("\n== {workload} == {why}");
    for d in &END_TO_END {
        let v = &s.e2e[d.name];
        let (lo, hi) = min_max(v);
        println!(
            "{:<44} {:>14.4} {:<8} min {:.4} max {:.4} (median of {})",
            d.name,
            median(v),
            d.unit,
            lo,
            hi,
            v.len()
        );
    }
    let per_rep =
        |key: &str| -> Vec<u64> { runs.reps.iter().filter_map(|v| v[key].as_u64()).collect() };
    println!(
        "{:<44} samples per repetition {:?}, beyond p99 {:?}",
        "op_p50_us / op_p99_us",
        per_rep("samples"),
        per_rep("samples_beyond_p99")
    );
    println!(
        "{:<44} {:>14} count",
        "ops_attempted",
        runs.total("ops_attempted")
    );
    println!(
        "{:<44} {:>14} count",
        "ops_failed",
        runs.total("ops_failed")
    );
    println!("{:<44} {:>14} count", "failed_reps", runs.failed_reps);
    // Counts come from the untraced windows; the ladder and the traced
    // metrics only exist once those children have run.
    let have_rest = runs.traced.is_some();
    for d in per_layer() {
        if have_rest || COUNTS.iter().chain(&DEMOTED).any(|c| c.name == d.name) {
            println!("{:<44} {:>14.4} {}", d.name, s.layer[d.name], d.unit);
        }
    }
    for e in &runs.errors {
        println!("!! {e}");
    }
}

/// Each rung's median over the passes, plus the derived rung.
fn reduce_ladder(passes: &[Ladder]) -> Ladder {
    let mut ladder: Ladder = crate::ladder::RUNGS
        .iter()
        .map(|&(rung, _)| {
            let values: Vec<f64> = passes.iter().filter_map(|p| p.get(rung).copied()).collect();
            (rung.to_string(), median(&values))
        })
        .collect();
    let overhead = ladder["core.couple.yield_ns"] - ladder["fcontext.switch_ns"];
    ladder.insert("core.runqueue.overhead_ns".to_string(), overhead);
    ladder
}

/// Run the plan's children for `names`: the untraced repetitions
/// round-robin across the workloads, each followed by its share of extra
/// set-ups; for a traced plan also one traced repetition per workload and
/// `LADDER_PASSES` ladder passes, the passes spread between the rounds of
/// repetitions as far as there are rounds.
fn execute<'a>(
    plan: &Plan,
    names: &[&'a str],
) -> (BTreeMap<&'a str, Runs>, Result<Ladder, String>) {
    let mut runs: BTreeMap<&str, Runs> = names.iter().map(|&w| (w, Runs::default())).collect();
    let mut passes = Vec::new();
    let ladder_pass = |passes: &mut Vec<Result<Ladder, String>>| {
        if plan.traced && passes.len() < LADDER_PASSES {
            eprintln!(
                "[ulpbench] ladder pass {}/{LADDER_PASSES}",
                passes.len() + 1
            );
            passes.push(run_ladder_pass(plan));
        }
    };
    for rep in 0..plan.reps {
        for (&w, r) in runs.iter_mut() {
            eprintln!("[ulpbench] {w} repetition {}/{}", rep + 1, plan.reps);
            r.add(false, run_rep(w, plan, false));
            for _ in 0..plan.setups_per_rep {
                r.add_setup(run_setup(w, plan));
            }
        }
        ladder_pass(&mut passes);
    }
    if !plan.traced {
        return (runs, Ok(Ladder::new()));
    }
    for (&w, r) in runs.iter_mut() {
        eprintln!("[ulpbench] {w} traced repetition");
        r.add(true, run_rep(w, plan, true));
    }
    for _ in 0..LADDER_PASSES {
        ladder_pass(&mut passes);
    }
    let ladder = passes
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map(|p| reduce_ladder(&p));
    (runs, ladder)
}

/// `ulpbench --workload W --seed N --seconds S --trace T`.
pub fn contract(args: &Args) -> Result<ExitCode, String> {
    let workload = args.value("--workload").ok_or("--workload missing")?;
    let Some(workload) = workloads::find(workload).map(|w| w.name) else {
        let known: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?}; known: {known:?}"));
    };
    let seconds: f64 = args.num("--seconds", 2.0 * REPS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} out of range (0, 60]"));
    }
    let traced = args.num::<u8>("--trace", 0)? != 0;
    // Untraced: the measured time is REPS windows. Traced: one untraced
    // window (the tracer-off reference and the counts), one traced window
    // and ladder passes as long as the two together.
    let window = Duration::from_secs_f64(seconds / REPS as f64);
    let plan = Plan {
        seed: args.num("--seed", 1)?,
        reps: if traced { 1 } else { REPS },
        setups_per_rep: if traced { 0 } else { SETUPS_PER_REP },
        traced,
        warm: WARM.min(window / 4),
        window,
        ladder_batch: (window * 2).div_f64(LADDER_PASSES as f64 * PASS_BATCHES),
    };
    let (mut all_runs, ladder) = execute(&plan, &[workload]);
    let mut runs = all_runs.remove(workload).expect("the workload just run");
    let ladder = ladder.unwrap_or_else(|e| {
        runs.failed_reps += 1;
        runs.errors.push(e);
        BTreeMap::new()
    });
    let s = summarize(&runs, &ladder);
    print_summary(workload, &runs, &s);
    if runs.all().next().is_none() {
        return Err("no repetition produced a result".to_string());
    }
    let metrics = if traced {
        obj(per_layer()
            .iter()
            .map(|d| (d.name, metric(s.layer[d.name], d.unit))))
    } else {
        obj(END_TO_END
            .iter()
            .map(|d| (d.name, metric(median(&s.e2e[d.name]), d.unit))))
    };
    let failed = runs.total("ops_failed") + runs.failed_reps as u64;
    let line = obj([
        ("correct", Value::Bool(runs.correct())),
        ("attempted", num(runs.total("ops_attempted").max(1) as f64)),
        ("failed", num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn stat_json(d: &Def, values: &[f64]) -> Value {
    let (lo, hi) = min_max(values);
    obj([
        ("median", num(median(values))),
        ("min", num(lo)),
        ("max", num(hi)),
        ("unit", text(d.unit)),
        ("better", text(d.better)),
        (
            "values",
            Value::Array(values.iter().map(|&v| num(v)).collect()),
        ),
    ])
}

/// `ulpbench run [--seed N] [--out FILE] [--smoke]`.
pub fn full(args: &Args) -> Result<ExitCode, String> {
    let smoke = args.flag("--smoke");
    let plan = if smoke {
        Plan {
            seed: args.num("--seed", 1)?,
            reps: 1,
            setups_per_rep: 2,
            traced: true,
            warm: Duration::from_millis(50),
            window: Duration::from_millis(200),
            ladder_batch: Duration::from_millis(10),
        }
    } else {
        Plan {
            seed: args.num("--seed", 1)?,
            reps: REPS,
            setups_per_rep: SETUPS_PER_REP,
            traced: true,
            warm: WARM,
            window: Duration::from_secs(2),
            ladder_batch: Duration::from_millis(100),
        }
    };
    let out_path = args
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| out_dir().join("results.json"));

    let names = workloads::ALL.map(|w| w.name);
    let (runs, ladder) = execute(&plan, &names);
    let ladder_error = ladder.as_ref().err().cloned();
    let ladder = ladder.unwrap_or_default();

    let mut failed = ladder_error.is_some();
    let mut workloads_json = BTreeMap::new();
    for workload in &workloads::ALL {
        let w = workload.name;
        let r = &runs[w];
        let s = summarize(r, &ladder);
        print_summary(w, r, &s);
        failed |= !r.correct();
        let per_rep = |key: &str| Value::Array(r.reps.iter().map(|v| v[key].clone()).collect());
        workloads_json.insert(
            w.to_string(),
            obj([
                ("why", text(workload.why)),
                (
                    "input_digest",
                    r.all()
                        .next()
                        .map(|v| v["input_digest"].clone())
                        .unwrap_or(Value::Null),
                ),
                (
                    "end_to_end",
                    obj(END_TO_END
                        .iter()
                        .map(|d| (d.name, stat_json(d, &s.e2e[d.name])))),
                ),
                (
                    "per_layer",
                    obj(per_layer()
                        .iter()
                        .map(|d| (d.name, metric(s.layer[d.name], d.unit)))),
                ),
                ("ops_attempted", num(r.total("ops_attempted") as f64)),
                ("ops_failed", num(r.total("ops_failed") as f64)),
                ("failed_reps", num(r.failed_reps as f64)),
                ("samples", per_rep("samples")),
                ("samples_beyond_p99", per_rep("samples_beyond_p99")),
                ("errors", Value::Array(r.errors.iter().map(text).collect())),
                (
                    "checks",
                    r.all()
                        .last()
                        .map(|v| v["checks"].clone())
                        .unwrap_or(Value::Null),
                ),
            ]),
        );
    }
    if let Some(e) = &ladder_error {
        println!("!! ladder: {e}");
    }
    let host = obj(crate::host::host_block().into_iter().chain([
        ("seed", num(plan.seed as f64)),
        ("repetitions", num(plan.reps as f64)),
        ("setups_per_repetition", num(plan.setups_per_rep as f64)),
        ("warm_s", num(plan.warm.as_secs_f64())),
        ("window_s", num(plan.window.as_secs_f64())),
        (
            "ladder_batch_ms",
            num(plan.ladder_batch.as_secs_f64() * 1e3),
        ),
        ("smoke", Value::Bool(smoke)),
    ]));
    let results = obj([
        ("schema", text("ulpbench-results-1")),
        ("host", host),
        (
            "ladder",
            obj(crate::ladder::RUNGS
                .iter()
                .map(|&(n, unit)| (n, metric(ladder.get(n).copied().unwrap_or(0.0), unit)))),
        ),
        ("workloads", Value::Object(workloads_json)),
    ]);
    if let Some(dir) = out_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, format!("{results}\n"))
        .map_err(|e| format!("writing {}: {e}", out_path.display()))?;
    println!("\nresults written to {}", out_path.display());
    if failed {
        println!("FAILED: at least one repetition, operation or check failed (see !! lines)");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// The model on a hand-made operation: 2 yields, 3 other switches, one
    /// getpid, one blocked socket read, half a KC block.
    #[test]
    fn model_prices_events_with_ladder_costs() {
        let ladder: BTreeMap<String, f64> = [
            ("core.couple.yield_ns", 70.0),
            ("fcontext.switch_ns", 10.0),
            ("core.sys.getpid_ns", 50.0),
            ("kernel.socket.rt_256_ns", 1000.0),
            ("kernel.futex.wake_to_run_ns", 20_000.0),
        ]
        .map(|(k, v)| (k.to_string(), v))
        .into();
        let counts: BTreeMap<&str, f64> = [
            ("core.runqueue.yields_per_op", 2.0),
            ("core.couple.switches_per_op", 5.0),
            ("core.kc.blocks_per_op", 0.5),
        ]
        .into();
        let traced = serde_json::from_str(
            r#"{"syscalls_per_op": {"getpid": 1, "read": 1},
                "wakes_per_op": {"sock_read": 1, "enqueue": 3}}"#,
        )
        .unwrap();
        // 2×70 + 3×10 + 50 + 500 + 1.5×20000 = 30720
        let r = model_residual_pct(&counts, &traced, &ladder, 30_720.0 * 2.0, 0.0);
        assert!((r - 50.0).abs() < 1e-9, "{r}");
    }
}
