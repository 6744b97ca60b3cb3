//! What the numbers were measured on, and the process-level meters
//! (CPU time, peak RSS) read from procfs.

use crate::json::{num, text};
use serde_json::Value;

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name") || l.starts_with("Model"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `host` block stamped into every result file: a number without the
/// machine it came from cannot be compared with anything.
pub fn host_block() -> Vec<(&'static str, Value)> {
    let nproc = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    // The driver's checkout is not a git repository; "unknown" is then the
    // honest answer.
    let git_sha = first_line_of("git", &["rev-parse", "HEAD"]);
    vec![
        ("nproc", num(nproc as f64)),
        ("cpu_model", text(cpu_model())),
        ("kernel_release", text(kernel)),
        ("rustc", text(first_line_of("rustc", &["-V"]))),
        ("git_sha", text(git_sha)),
    ]
}

/// CPU seconds (user + system, every thread, dead ones included) this
/// process has consumed, from `/proc/self/stat`. The kernel derives the sum
/// from its precise per-thread run time; the tick only quantizes it (10 ms
/// against windows of seconds).
pub fn process_cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0; // USER_HZ, fixed by the Linux ABI
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs: /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat format") + 1..];
    let mut f = rest.split_whitespace().skip(11); // utime is field 14
    let utime: f64 = f.next().and_then(|v| v.parse().ok()).expect("utime");
    let stime: f64 = f.next().and_then(|v| v.parse().ok()).expect("stime");
    (utime + stime) / TICKS_PER_SECOND
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs: /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .expect("VmHWM")
        / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meters_read_and_move() {
        let c0 = process_cpu_seconds();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
        }
        assert!(
            process_cpu_seconds() - c0 >= 0.03,
            "60 ms of spinning shows"
        );
        assert!(peak_rss_mib() > 0.5);
        let h = crate::json::obj(host_block());
        assert!(h["nproc"].as_u64().unwrap() >= 1);
        assert!(h["rustc"].as_str().is_some());
    }
}
