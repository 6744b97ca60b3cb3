//! `repro <table3|table4|table5|fig7|fig8|fig6|oversub|locks|all>` —
//! regenerate the paper's evaluation (and the two extensions) on this host.
//!
//! Prints the `host` block, every artifact's table and one line per shape
//! check, writes all rows in one schema to `results/repro_<subcommand>.csv`
//! (`ULP_RESULTS_DIR` redirects it), and exits 1 if a *gate* is violated — an
//! ordering of the paper's that holds on every host measured so far. Nothing
//! is compared against a committed number. `ULP_BENCH_SCALE=10` for
//! paper-grade iteration counts.

use ulp_bench::report::{host_block, results_dir, write_csv};
use ulp_bench::repro::{measure, names, scale, shape_checks};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted = match args.as_slice() {
        [one] if one == "all" || names().contains(&one.as_str()) => one.as_str(),
        _ => {
            eprintln!("usage: repro <{}|all>", names().join("|"));
            std::process::exit(2);
        }
    };
    println!("ULP-RS paper reproduction: {wanted} (scale={})", scale());
    for (k, v) in host_block() {
        println!("host.{k}: {v}");
    }
    let mut rows = Vec::new();
    for name in names()
        .into_iter()
        .filter(|n| wanted == "all" || *n == wanted)
    {
        let (measured, table) = measure(name);
        println!("{}", table.render());
        rows.extend(measured);
    }
    let path = results_dir().join(format!("repro_{wanted}.csv"));
    match write_csv(&rows, &path) {
        Ok(()) => println!("[csv] {}", path.display()),
        Err(e) => eprintln!("[csv] failed to write {}: {e}", path.display()),
    }
    let checks = shape_checks(&rows);
    for c in &checks {
        println!("{}", c.line());
    }
    if checks.iter().any(|c| c.fails()) {
        eprintln!("repro: a shape gate FAILED");
        std::process::exit(1);
    }
    println!("repro: every shape gate holds");
}
