//! `torture` — drive the schedule-fuzzing matrix from the command line.
//!
//! ```text
//! torture [--iters N] [--seed HEX] [--exact-seed]
//!         [--scenario NAME] [--idle NAME]
//!         [--artifact-dir DIR] [--replay-check] [--expect-violations] [--list]
//! ```
//!
//! Iteration `i` runs matrix cell `i % cells` with the per-run seed
//! `run_seed(master, i)`. `--scenario`/`--idle` filter the matrix down to
//! one cell, and `--exact-seed` skips the per-iteration derivation (the
//! per-run seed IS `--seed`), which together make the `reproduce:` line in
//! a failure report replay the failing run exactly.
//! See `EXPERIMENTS.md`, "Torture harness".

use std::io::Write as _;
use std::process::ExitCode;
use ulp_torture::{matrix, run_cell, run_seed, Cell, RunReport, Scenario};

struct Options {
    iters: u64,
    master_seed: u64,
    exact_seed: bool,
    scenario: Option<Scenario>,
    idle: Option<ulp_core::IdlePolicy>,
    artifact_dir: Option<String>,
    replay_check: bool,
    expect_violations: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: torture [--iters N] [--seed HEX] [--exact-seed] [--scenario NAME] \
         [--idle blocking|busywait|adaptive] \
         [--artifact-dir DIR] [--replay-check] [--expect-violations] [--list]\n\
         scenarios: {}",
        Scenario::ALL
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_args() -> Options {
    let mut opts = Options {
        iters: 40,
        master_seed: std::env::var("ULP_TORTURE_SEED")
            .ok()
            .and_then(|v| parse_u64(&v))
            .unwrap_or(0xDECAF),
        exact_seed: false,
        scenario: None,
        idle: None,
        artifact_dir: None,
        replay_check: false,
        expect_violations: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iters" => {
                opts.iters = args
                    .next()
                    .and_then(|v| parse_u64(&v))
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                opts.master_seed = args
                    .next()
                    .and_then(|v| parse_u64(&v))
                    .unwrap_or_else(|| usage())
            }
            "--scenario" => {
                let name = args.next().unwrap_or_else(|| usage());
                match Scenario::by_name(&name) {
                    Some(s) => opts.scenario = Some(s),
                    None => {
                        eprintln!("unknown scenario {name:?}");
                        usage()
                    }
                }
            }
            "--idle" => {
                let name = args.next().unwrap_or_else(|| usage());
                opts.idle = Some(match name.to_ascii_lowercase().as_str() {
                    "blocking" => ulp_core::IdlePolicy::Blocking,
                    "busywait" => ulp_core::IdlePolicy::BusyWait,
                    "adaptive" => ulp_core::IdlePolicy::Adaptive,
                    _ => {
                        eprintln!("unknown idle policy {name:?}");
                        usage()
                    }
                });
            }
            "--exact-seed" => opts.exact_seed = true,
            "--artifact-dir" => opts.artifact_dir = Some(args.next().unwrap_or_else(|| usage())),
            "--replay-check" => opts.replay_check = true,
            "--expect-violations" => opts.expect_violations = true,
            "--list" => {
                for (i, cell) in matrix().iter().enumerate() {
                    println!("{i:2}  {cell}");
                }
                std::process::exit(0);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    opts
}

/// Write a failing run's artifacts: the Perfetto/Chrome trace, the
/// violation list, and a shell line that reproduces the run.
fn write_artifacts(dir: &str, iter: u64, report: &RunReport) {
    let base = format!(
        "{dir}/torture-{}-{:016x}",
        report.cell.scenario.name(),
        report.seed
    );
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("  (artifact dir {dir:?} unavailable: {e})");
        return;
    }
    let trace_path = format!("{base}.trace.json");
    let json = ulp_core::chrome_trace_json(&report.trace);
    if let Err(e) = std::fs::write(&trace_path, json) {
        eprintln!("  (could not write {trace_path}: {e})");
    } else {
        eprintln!("  trace artifact: {trace_path} (open in ui.perfetto.dev)");
    }
    let report_path = format!("{base}.report.txt");
    let mut text = format!(
        "cell: {}\nseed: {:#018x}\niteration: {iter}\ndigest: {:#018x}\n\
         dropped: {}\nfullest trace ring: {}/{}\nchaos fired: {:?}\n\
         faults injected: {:?}\n\nviolations:\n",
        report.cell,
        report.seed,
        report.digest,
        report.dropped,
        report.ring_peak,
        report.ring_capacity,
        report.chaos_fired,
        report.faults_injected,
    );
    for v in &report.violations {
        text.push_str("  - ");
        text.push_str(v);
        text.push('\n');
    }
    text.push_str(&format!(
        "\nreproduce:\n  cargo run -p ulp-torture -- --iters 1 --exact-seed --seed {:#x} \
         --scenario {} --idle {:?}\n",
        report.seed,
        report.cell.scenario.name(),
        report.cell.idle,
    ));
    if let Err(e) = std::fs::write(&report_path, text) {
        eprintln!("  (could not write {report_path}: {e})");
    } else {
        eprintln!("  failure report: {report_path}");
    }
}

/// Replay determinism check: run the designated replay cells twice from
/// the same seed and require byte-identical canonical traces.
fn replay_check(master: u64) -> bool {
    let mut ok = true;
    for (i, idle) in [
        ulp_core::IdlePolicy::Blocking,
        ulp_core::IdlePolicy::BusyWait,
    ]
    .into_iter()
    .enumerate()
    {
        let cell = Cell {
            scenario: Scenario::Chain,
            idle,
        };
        let seed = run_seed(master, 0x5EED + i as u64);
        let first = run_cell(cell, seed);
        let second = run_cell(cell, seed);
        let a = ulp_torture::digest::bytes(&first.trace);
        let b = ulp_torture::digest::bytes(&second.trace);
        if a == b && first.digest == second.digest {
            println!(
                "replay {cell} seed {seed:#018x}: {} canonical bytes, digest {:#018x} — identical",
                a.len(),
                first.digest
            );
        } else {
            println!(
                "replay {cell} seed {seed:#018x}: DIVERGED ({} vs {} bytes, {:#018x} vs {:#018x})",
                a.len(),
                b.len(),
                first.digest,
                second.digest
            );
            ok = false;
        }
    }
    ok
}

fn main() -> ExitCode {
    let opts = parse_args();
    let cells: Vec<Cell> = matrix()
        .into_iter()
        .filter(|c| opts.scenario.is_none_or(|s| c.scenario == s))
        .filter(|c| opts.idle.is_none_or(|p| c.idle == p))
        .collect();
    if cells.is_empty() {
        eprintln!("no matrix cells selected");
        return ExitCode::from(2);
    }

    println!(
        "torture: {} iterations over {} cells, master seed {:#018x}{}",
        opts.iters,
        cells.len(),
        opts.master_seed,
        if cfg!(torture_mutation) {
            " [MUTATION BUILD]"
        } else {
            ""
        }
    );

    let mut failures = 0u64;
    for i in 0..opts.iters {
        let cell = cells[(i % cells.len() as u64) as usize];
        let seed = if opts.exact_seed {
            opts.master_seed
        } else {
            run_seed(opts.master_seed, i)
        };
        let report = run_cell(cell, seed);
        let verdict = if report.violations.is_empty() {
            "ok"
        } else {
            "FAIL"
        };
        println!(
            "[{i:4}] {cell:<24} seed {seed:#018x}  {:5} events  ring {:>5}/{:<6} digest {:#018x}  {verdict}",
            report.trace.len(),
            report.ring_peak,
            report.ring_capacity,
            report.digest
        );
        let _ = std::io::stdout().flush();
        if !report.violations.is_empty() {
            failures += 1;
            for v in &report.violations {
                eprintln!("       {v}");
            }
            if let Some(dir) = &opts.artifact_dir {
                write_artifacts(dir, i, &report);
            }
        }
    }

    let mut ok = failures == 0;
    if opts.replay_check && !replay_check(opts.master_seed) {
        ok = false;
    }

    if opts.expect_violations {
        // Mutation-check mode: the planted bug MUST be caught. A clean run
        // means the oracle lost its teeth.
        if failures > 0 {
            println!("expected violations and found them in {failures} run(s) — oracle works");
            ExitCode::SUCCESS
        } else {
            eprintln!("expected the oracle to flag violations but every run passed");
            ExitCode::FAILURE
        }
    } else if ok {
        println!("all runs passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} failing run(s)");
        ExitCode::FAILURE
    }
}
