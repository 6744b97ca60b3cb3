//! `ulpbench run --smoke` end to end, through the built binary: one
//! repetition per workload with 0.2 s windows, one traced repetition each,
//! and a ladder with batches a tenth as long. It must finish in seconds,
//! name every metric `BENCHMARK.json` lists, and pass every check.

use serde_json::Value;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| m["name"].as_str().expect("metric name").to_string())
        .collect()
}

#[test]
fn smoke_run_names_every_metric_and_passes_every_check() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-results.json");
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_ulpbench"))
        .args(["run", "--smoke", "--seed", "7", "--out"])
        .arg(&results)
        .output()
        .expect("start ulpbench");
    let took = started.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(took < Duration::from_secs(15), "smoke run took {took:?}");

    let bench: Value = serde_json::from_str(
        &std::fs::read_to_string(manifest_dir.join("../BENCHMARK.json")).unwrap(),
    )
    .expect("BENCHMARK.json");
    let run: Value =
        serde_json::from_str(&std::fs::read_to_string(&results).unwrap()).expect("results.json");

    for key in [
        "nproc",
        "cpu_model",
        "kernel_release",
        "rustc",
        "git_sha",
        "seed",
        "window_s",
        "repetitions",
    ] {
        assert!(!run["host"][key].is_null(), "host block lacks {key}");
    }
    assert_eq!(run["host"]["seed"].as_u64(), Some(7));

    for w in bench["workloads"].as_array().unwrap() {
        let w = w["name"].as_str().unwrap();
        let r = &run["workloads"][w];
        for m in names(&bench["end_to_end"]) {
            let median = r["end_to_end"][m.as_str()]["median"].as_f64();
            assert!(median.is_some_and(|v| v > 0.0), "{w}/{m}: {median:?}");
            assert!(stdout.contains(&m), "{m} not printed");
        }
        for m in names(&bench["per_layer"]) {
            assert!(
                r["per_layer"][m.as_str()]["value"].as_f64().is_some(),
                "{w}/{m} missing"
            );
            assert!(stdout.contains(&m), "{m} not printed");
        }
        assert_eq!(r["ops_failed"].as_u64(), Some(0), "{w}");
        assert_eq!(r["failed_reps"].as_u64(), Some(0), "{w}");
        assert!(r["ops_attempted"].as_u64().unwrap() > 0, "{w}");
        for c in r["checks"].as_array().expect("checks") {
            assert_eq!(c["ok"].as_bool(), Some(true), "{w}: {c}");
        }
        let spans = manifest_dir.join("out").join(format!("{w}.spans.json"));
        let trace: Value = serde_json::from_str(&std::fs::read_to_string(&spans).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", spans.display()));
        assert!(trace["traceEvents"].as_array().unwrap().len() > 10, "{w}");
    }
    for (rung, v) in run["ladder"].as_object().unwrap() {
        assert!(v["value"].as_f64().unwrap() > 0.0, "ladder rung {rung}");
    }
    // The sanity relations the issue pins on the seed run.
    let layer = |w: &str, m: &str| {
        run["workloads"][w]["per_layer"][m]["value"]
            .as_f64()
            .unwrap()
    };
    assert!((layer("yield_ring", "core.couple.switches_per_op") - 1.0).abs() < 0.001);
    assert_eq!(layer("yield_ring", "core.couple.couples_per_op"), 0.0);
    assert_eq!(layer("syscall_mix", "core.couple.couples_per_op"), 0.0);
    assert_eq!(layer("yield_ring", "kernel.syscall.calls_per_op"), 0.0);
}
