//! `ulpbench` — the repository's benchmark. See `README.md` beside this
//! package for what it measures and why.
//!
//! ```text
//! ulpbench run [--seed N] [--out FILE] [--smoke]      full sweep → out/results.json
//! ulpbench compare A.json B.json [--bench FILE]       judge B against A with BENCHMARK.json's bounds
//! ulpbench --workload W --seed N --seconds S --trace T   one workload, the form BENCHMARK.json's command takes
//! ```

mod args;
mod child;
mod compare;
mod hist;
mod host;
mod json;
mod ladder;
mod metrics;
mod rep;
mod rng;
mod run;
mod span;
mod traced;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    // A repetition's set-up time counts from here.
    let started = std::time::Instant::now();
    let args = args::Args::new(std::env::args().skip(1).collect());
    let result = match args.positional().first().copied() {
        Some("run") => run::full(&args),
        Some("compare") => compare::main(&args),
        Some("child") => child::main(&args, started),
        None if args.flag("--workload") => run::contract(&args),
        _ => Err(
            "usage: ulpbench run [--seed N] [--out FILE] [--smoke]\n       \
                  ulpbench compare A.json B.json [--bench BENCHMARK.json]\n       \
                  ulpbench --workload W --seed N --seconds S --trace 0|1"
                .to_string(),
        ),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ulpbench: {e}");
        ExitCode::from(2)
    })
}
