//! The child side: one repetition (or the ladder) in a process of its own,
//! reported as one line of JSON on stdout — and the parent-side helper that
//! starts such a child and turns a hang into an error.

use crate::args::Args;
use crate::rep::RepCfg;
use serde_json::Value;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A child that has not finished this long after its window should have
/// closed is hung — the historical failure mode of this runtime — and is
/// killed and counted in `failed_reps`.
pub const HANG_TIMEOUT: Duration = Duration::from_secs(30);

/// `ulpbench child …`: run what the parent asked for, print the result.
pub fn main(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let out = if args.flag("--ladder") {
        let batch = Duration::from_millis(args.num("--batch-ms", 50)?);
        let rungs = crate::ladder::measure(batch);
        crate::json::nums(rungs)
    } else {
        let workload = args
            .value("--workload")
            .ok_or("child: --workload missing")?;
        let cfg = RepCfg {
            seed: args.num("--seed", 1)?,
            warm: Duration::from_millis(args.num("--warm-ms", 300)?),
            window: Duration::from_millis(args.num("--window-ms", 2000)?),
            traced: args.num::<u8>("--trace", 0)? != 0,
        };
        let workload = crate::workloads::find(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let rep = (workload.run)(&cfg, started);
        if args.flag("--setup-only") {
            // An extra set-up sample: the caller passes an empty window, so
            // nothing else in the result means anything.
            println!("{{\"setup_s\":{}}}", rep.out.setup_s);
            return Ok(ExitCode::SUCCESS);
        }
        if let Some(path) = args.value("--spans-out") {
            std::fs::write(path, crate::span::chrome_trace(&rep.spans, workload.name))
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        // Which inputs the numbers belong to: equal digests, equal inputs.
        let digest = (workload.input_digest)(cfg.seed);
        rep.out.to_json(workload.name, &cfg, digest)
    };
    println!("{out}");
    Ok(ExitCode::SUCCESS)
}

/// Start `ulpbench child <args>` and return the JSON it printed. `expected`
/// is how long the child is meant to take; it gets [`HANG_TIMEOUT`] on top
/// before it is killed.
pub fn spawn(args: &[String], expected: Duration) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting child: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    // The reader ends when the child closes stdout (normally: exits), so
    // the parent sleeps in recv_timeout instead of polling.
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        let _ = tx.send(text);
    });
    let text = rx.recv_timeout(expected + HANG_TIMEOUT);
    if text.is_err() {
        let _ = child.kill();
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for child: {e}"))?;
    reader.join().map_err(|_| "stdout reader panicked")?;
    let text = text.map_err(|_| {
        format!(
            "child {args:?} timed out after {:.0} s and was killed",
            (expected + HANG_TIMEOUT).as_secs_f64()
        )
    })?;
    if !status.success() {
        return Err(format!("child {args:?} exited with {status}"));
    }
    let line = text.lines().last().unwrap_or("");
    serde_json::from_str(line).map_err(|e| format!("child {args:?} printed no result: {e}"))
}
