//! Golden renderings: three recorded traces under `tests/golden/`, each with
//! the folded profile (collapsed text, JSON, one windowed JSON) and the
//! Perfetto export the renderers produced when the fixture was recorded. A
//! change to `replay.rs`, `profile.rs` or `export.rs` that moves a byte of
//! any of them fails here, with the new output left under
//! `target/golden-actual/` and the `cp` line that accepts it printed — so an
//! intended difference is reviewed as a diff of the committed file.
//!
//! A fixture is one `at_ns kc tag a b c` line per record: the words
//! `Event::pack` puts in a ring slot. Re-record (only when the record format
//! itself changes) with
//! `cargo test -p ulp-torture --test golden -- --ignored record_traces`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use ulp_core::{chrome_trace_json, fold_profile, fold_profile_window, IdlePolicy};
use ulp_core::{TraceEvent, TraceRecord};
use ulp_torture::{run_cell, run_seed, Cell, Scenario};

/// The recorded cells: fixture stem, scenario, idle policy.
const CASES: [(&str, Scenario, IdlePolicy); 3] = [
    ("chain_blocking", Scenario::Chain, IdlePolicy::Blocking),
    (
        "home_stay_adaptive",
        Scenario::HomeStay,
        IdlePolicy::Adaptive,
    ),
    (
        "c1m_storm_adaptive",
        Scenario::C1mStorm,
        IdlePolicy::Adaptive,
    ),
];

/// Fixtures are cut to this many records. A prefix is as good an input as a
/// whole run, and it leaves spans open for the horizon rule to close.
const MAX_RECORDS: usize = 2000;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn actual_dir() -> PathBuf {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .parent()
        .expect("CARGO_TARGET_TMPDIR is <target>/tmp");
    target.join("golden-actual")
}

fn trace_text(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let (tag, a, b, c) = r.event.pack();
        let _ = writeln!(out, "{} {} {tag} {a} {b} {c}", r.at_ns, r.kc);
    }
    out
}

fn parse_trace(text: &str) -> Vec<TraceRecord> {
    text.lines()
        .map(|line| {
            let w: Vec<u64> = line
                .split(' ')
                .map(|w| w.parse().unwrap_or_else(|_| panic!("bad word in {line:?}")))
                .collect();
            let [at_ns, kc, tag, a, b, c] = w[..] else {
                panic!("want six words, got {line:?}");
            };
            let event = TraceEvent::unpack(tag, a, b, c)
                .unwrap_or_else(|| panic!("unknown event in {line:?}"));
            TraceRecord {
                at_ns,
                event,
                kc: kc as u32,
            }
        })
        .collect()
}

/// Compare `actual` with the committed `file`; on a difference (or a missing
/// golden) leave `actual` under `target/golden-actual/` and say how to
/// accept it.
fn matches_golden(file: &str, actual: &str) -> bool {
    let golden = golden_dir().join(file);
    if std::fs::read_to_string(&golden).is_ok_and(|want| want == actual) {
        return true;
    }
    let out = actual_dir().join(file);
    std::fs::create_dir_all(actual_dir()).expect("create target/golden-actual");
    std::fs::write(&out, actual).expect("write actual output");
    eprintln!(
        "golden mismatch: {file}\n  cp {} {}",
        out.display(),
        golden.display()
    );
    false
}

#[test]
fn renderings_match_the_committed_goldens() {
    let mut ok = true;
    for (stem, ..) in CASES {
        let text = std::fs::read_to_string(golden_dir().join(format!("{stem}.trace")))
            .unwrap_or_else(|e| panic!("{stem}.trace: {e}"));
        let trace = parse_trace(&text);
        assert!(!trace.is_empty() && trace.len() <= MAX_RECORDS);
        assert_eq!(trace_text(&trace), text, "{stem}: words do not round-trip");
        let profile = fold_profile(&trace);
        // The middle third of the recording: spans straddle both edges.
        let horizon = profile.horizon_ns;
        let window = Some((horizon / 3, 2 * (horizon / 3)));
        for (ext, actual) in [
            ("folded", profile.collapsed()),
            ("profile.json", profile.to_json()),
            ("window.json", fold_profile_window(&trace, window).to_json()),
            ("perfetto.json", chrome_trace_json(&trace)),
        ] {
            ok &= matches_golden(&format!("{stem}.{ext}"), &actual);
        }
    }
    assert!(ok, "see the `cp` lines above");
}

/// Record the three fixtures afresh into `target/golden-actual/`.
#[test]
#[ignore = "records new fixtures; run by hand"]
fn record_traces() {
    // Two waves of pooled ULPs, so the second recycles the first's stacks.
    std::env::set_var("ULP_C1M_N", "48");
    for (i, (stem, scenario, idle)) in CASES.into_iter().enumerate() {
        let report = run_cell(Cell { scenario, idle }, run_seed(0xDECAF, i as u64));
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let n = report.trace.len().min(MAX_RECORDS);
        matches_golden(&format!("{stem}.trace"), &trace_text(&report.trace[..n]));
    }
}
