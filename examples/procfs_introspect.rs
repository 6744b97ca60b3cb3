//! Procfs introspection demo: a ULP reads its runtime from the inside.
//!
//! The runtime mounts a read-only procfs at `/proc` in the simulated VFS,
//! so a ULP can observe the very runtime executing it through ordinary
//! `open`/`read` system calls — no host ambient authority involved. This
//! example validates the whole surface end to end:
//!
//! 1. `/proc/self/stat` names the calling ULP — pid, name, Table-I state,
//!    couple state, kernel-context id — resolved through the *executing*
//!    thread's binding (the §V-B consistency rule, applied to the VFS).
//! 2. `readdir("/proc")` enumerates live pids plus the `self` and `ulp`
//!    entries.
//! 3. `/proc/ulp/stat` serves the scheduler counters, one `name value`
//!    line each.
//! 4. `/proc/ulp/profile` serves collapsed flame stacks that parse.
//! 5. The headline reconciliation: under quiesce, `/proc/ulp/metrics`
//!    read from inside the simulation is **byte-identical** to a real
//!    HTTP `GET /metrics` scrape of the same runtime.
//!
//! Run: `cargo run --release --example procfs_introspect`

use std::io::{Read as _, Write as _};
use std::net::SocketAddr;
use std::sync::mpsc;
use ulp_repro::core::{coupled_scope, decouple, profile::parse_collapsed, sys, yield_now, Runtime};
use ulp_repro::kernel::OpenFlags;

/// One raw-TCP GET against the metrics listener — exactly what a
/// Prometheus scraper (or `curl`) does.
fn scrape(addr: SocketAddr, path: &str) -> String {
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    write!(conn, "GET {path} HTTP/1.0\r\nHost: ulp\r\n\r\n").unwrap();
    let mut resp = String::new();
    conn.read_to_string(&mut resp).unwrap();
    let (head, body) = resp.split_once("\r\n\r\n").expect("http response");
    assert!(
        head.starts_with("HTTP/1.0 200"),
        "unexpected status for {path}: {head}"
    );
    body.to_string()
}

/// Read a whole procfs file through the simulated syscall path. Content is
/// frozen at `open()`, so chunked reads reassemble one consistent snapshot.
fn read_proc(path: &str) -> String {
    let fd = sys::open(path, OpenFlags::RDONLY).expect(path);
    let mut out = Vec::new();
    let mut buf = [0u8; 256];
    loop {
        match sys::read(fd, &mut buf).expect(path) {
            0 => break,
            n => out.extend_from_slice(&buf[..n]),
        }
    }
    sys::close(fd).unwrap();
    String::from_utf8(out).expect("procfs bodies are UTF-8")
}

fn main() {
    let rt = Runtime::builder().schedulers(2).build();
    rt.trace_enable(); // histograms and the profile fold need the tracer
    let addr = rt.serve_metrics("127.0.0.1:0").expect("bind metrics port");
    println!("serving http://{addr}/metrics");

    // Some history first, so every counter and histogram is nonzero.
    let workers: Vec<_> = (0..3)
        .map(|i| {
            rt.spawn(&format!("worker{i}"), || {
                decouple().unwrap();
                for _ in 0..50 {
                    coupled_scope(|| {
                        sys::getpid().unwrap();
                    })
                    .unwrap();
                    yield_now();
                }
                0
            })
        })
        .collect();
    for h in workers {
        assert_eq!(h.wait(), 0);
    }

    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let (go_tx, go_rx) = mpsc::channel::<String>();
    let h = rt.spawn("introspector", move || {
        let my_pid = sys::getpid().unwrap();

        // 1 — identity from the inside.
        let stat = read_proc("/proc/self/stat");
        assert!(
            stat.starts_with(&format!("{} (introspector) R ", my_pid.0)),
            "stat line names someone else: {stat:?}"
        );
        assert!(stat.contains("couple=coupled"), "{stat:?}");
        assert!(stat.contains("spawn_ns="), "{stat:?}");
        println!("[ulp] /proc/self/stat: {}", stat.trim_end());

        // 2 — enumeration.
        let entries = sys::readdir("/proc").unwrap();
        assert!(entries.iter().any(|e| e.name == "self"));
        assert!(entries.iter().any(|e| e.name == "ulp"));
        assert!(entries.iter().any(|e| e.name == my_pid.0.to_string()));
        println!("[ulp] /proc lists {} entries", entries.len());

        // 3 — runtime-wide counters.
        let counters = read_proc("/proc/ulp/stat");
        // One line per row of the runtime's counter table, then `stack_warm`.
        let rows = ulp_repro::core::StatsSnapshot::default().counters().count();
        assert_eq!(counters.lines().count(), rows + 1, "{counters:?}");
        assert!(
            counters.lines().any(|l| {
                l.strip_prefix("couples ")
                    .is_some_and(|v| v.parse::<u64>().is_ok_and(|n| n > 0))
            }),
            "workload history missing from /proc/ulp/stat: {counters:?}"
        );

        // 4 — the profile fold.
        let folded = read_proc("/proc/ulp/profile");
        let rows = parse_collapsed(&folded).expect("/proc/ulp/profile parses");
        assert!(!rows.is_empty() && rows.iter().all(|(s, _)| s.starts_with("blt:")));
        println!("[ulp] /proc/ulp/profile: {} stacks", rows.len());

        // 5 — reconcile against the external scrape. Park *coupled* on a
        // host channel (an OS block, not a simulated syscall): the host
        // scrapes, hands us its bytes, and our subsequent open must freeze
        // the identical state — counters commit at syscall exit, so the
        // open itself cannot perturb what it reports. One wrinkle: idle
        // scheduler KCs re-arm their parking futex on a 20 ms timeout, and
        // every expiry commits one `futex_wait` exit. If an expiry lands
        // in the gap between the host's render and our open, the two
        // renderings straddle that syscall — so on a mismatch, hand the
        // baton back and rendezvous again. A real divergence is stable and
        // still fails every attempt.
        let mut last = (String::new(), String::new());
        for _ in 0..10 {
            ready_tx.send(()).unwrap();
            let external = go_rx.recv().unwrap();
            let internal = read_proc("/proc/ulp/metrics");
            if internal == external {
                println!(
                    "[ulp] /proc/ulp/metrics == GET /metrics ({} bytes, byte-identical)",
                    internal.len()
                );
                return 0;
            }
            last = (internal, external);
        }
        assert_eq!(
            last.0, last.1,
            "/proc/ulp/metrics must be byte-identical to GET /metrics"
        );
        0
    });

    // Quiesce: the introspector is parked coupled, the workers are gone.
    // Give idle schedulers a beat to finish parking (their final block
    // bumps a counter), then serve renders until one lands without an
    // idle-KC futex expiry in the gap (see the ULP-side comment); the
    // first attempt almost always matches.
    std::thread::sleep(std::time::Duration::from_millis(100));
    while ready_rx.recv().is_ok() {
        let _ = go_tx.send(scrape(addr, "/metrics"));
    }
    assert_eq!(h.wait(), 0);
    println!(
        "procfs introspection validated: identity, enumeration, profile, exact reconciliation"
    );
}
