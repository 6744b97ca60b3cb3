//! # ulp-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation (§VI): Table III (context switch & TLS load), Table IV
//! (yielding), Table V (`getpid`), Figure 7 (open-write-close slowdown vs
//! AIO) and Figure 8 (overlap ratios), plus the Fig. 6 scenario and two
//! extensions — all behind one binary, `cargo run -p ulp-bench --release
//! --bin repro -- <table3|…|all>`, whose exit code checks the tables' *shape*
//! ([`repro::shape_checks`]). `perf_smoke` gates structural ratios and
//! counts of the runtime from its own run. Speed-ups are judged elsewhere:
//! by `ulpbench` (`benchmark/`), parent against change.
//!
//! ## Measurement protocol
//!
//! Exactly the paper's (§VI-A): every measurement has "a warming up loop
//! followed by a measurement loop", and "all values are the minimum ones of
//! ten runs". [`measure_min`] implements that protocol.

#![warn(missing_docs)]

pub mod baselines;
pub mod report;
pub mod repro;
pub mod workloads;

use std::time::Instant;

/// Number of runs from which the minimum is taken (paper: ten).
pub const RUNS: usize = 10;

/// One timed measurement following the paper's protocol: per run, a warm-up
/// loop of `iters / 10 + 1` iterations, then `iters` measured iterations;
/// the reported value is the minimum per-iteration time (in nanoseconds)
/// over [`RUNS`] runs.
pub fn measure_min(iters: usize, mut op: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..RUNS {
        for _ in 0..(iters / 10 + 1) {
            op(); // warm-up
        }
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        let per_op = t.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(per_op);
    }
    best
}

/// Like [`measure_min`] but for operations that measure themselves (e.g. a
/// whole scenario returning its own duration): minimum of [`RUNS`] calls.
pub fn min_of_runs(mut scenario: impl FnMut() -> f64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..RUNS {
        best = best.min(scenario());
    }
    best
}

/// Format seconds in the paper's scientific notation (e.g. `3.34E-8`).
pub fn sci(ns: f64) -> String {
    let secs = ns * 1e-9;
    if secs == 0.0 {
        return "0".to_string();
    }
    let exp = secs.abs().log10().floor() as i32;
    let mantissa = secs / 10f64.powi(exp);
    format!("{mantissa:.2}E{exp}")
}

/// The write-buffer size sweep used by Figs. 7 and 8.
pub const BUFFER_SIZES: [usize; 9] = [
    256,
    1 << 10,
    4 << 10,
    16 << 10,
    32 << 10,
    64 << 10,
    256 << 10,
    512 << 10,
    1 << 20,
];

/// Pretty-print a byte size (for table headers).
pub fn human_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}MiB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}KiB", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_min_returns_positive_ns() {
        let ns = measure_min(1000, || {
            std::hint::black_box(1 + 1);
        });
        assert!((0.0..1e6).contains(&ns), "per-op {ns} ns");
    }

    #[test]
    fn measure_min_is_minimum() {
        // A scenario with occasional slow iterations: the min filters noise.
        let mut calls = 0u64;
        let ns = measure_min(100, || {
            calls += 1;
            if calls.is_multiple_of(97) {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        });
        // The minimum run should be well below the average-with-sleeps.
        assert!(ns < 40_000.0, "min filtered poorly: {ns}");
    }

    #[test]
    fn sci_matches_paper_format() {
        assert_eq!(sci(33.4), "3.34E-8");
        assert_eq!(sci(150.0), "1.50E-7");
        assert_eq!(sci(2910.0), "2.91E-6");
    }

    #[test]
    fn human_sizes() {
        assert_eq!(human_size(256), "256B");
        assert_eq!(human_size(4096), "4KiB");
        assert_eq!(human_size(1 << 20), "1MiB");
    }

    #[test]
    fn min_of_runs_takes_min() {
        let mut i = 0.0;
        let v = min_of_runs(|| {
            i += 1.0;
            10.0 - i
        });
        assert_eq!(v, 10.0 - RUNS as f64);
    }
}
