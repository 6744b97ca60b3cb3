//! The procfs ↔ telemetry reconciliation contract: a ULP reading its
//! runtime's observability files *from the inside* (through the simulated
//! syscall path) sees exactly what the external surfaces export.
//!
//! The headline assertion is byte-for-byte equality between
//! `/proc/ulp/metrics` and `Runtime::prometheus_dump()` under quiesce. The
//! rendezvous makes "quiesce" precise: the ULP stays *coupled* and parks on
//! a host-side channel (an OS block, not a simulated syscall), the host
//! snapshots the exposition text, signals the ULP, and only then does the
//! ULP open the procfs file. Content is generated at `open()` before the
//! opening call commits to any counter (counters commit at syscall exit),
//! so the reading ULP moves nothing between the two renderings.
//!
//! One counter does move on its own: idle scheduler KCs re-arm their
//! parking futex on a timeout, and every expiry commits one `futex_wait`
//! exit. If an expiry lands in the gap between the host's render and the
//! ULP's open, the renderings straddle that syscall — so the rendezvous
//! retries on a mismatch (bounded). A real divergence is stable across
//! attempts and still fails.

use std::sync::mpsc;
use ulp_core::ulp_kernel::OpenFlags;
use ulp_core::{sys, Runtime};

/// Read a whole procfs file from inside a ULP.
fn read_all(path: &str) -> String {
    let fd = sys::open(path, OpenFlags::RDONLY).unwrap();
    let mut out = Vec::new();
    let mut buf = [0u8; 256];
    loop {
        let n = sys::read(fd, &mut buf).unwrap();
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    sys::close(fd).unwrap();
    String::from_utf8(out).unwrap()
}

#[test]
fn metrics_reconcile_global_fifo() {
    let rt = Runtime::builder().schedulers(2).build();
    rt.trace_enable();

    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let (go_tx, go_rx) = mpsc::channel::<String>();
    let h = rt.spawn("introspector", move || {
        // Generate some history first: scheduling events and syscalls so
        // the exposition has nonzero counters and histogram samples.
        ulp_core::decouple().unwrap();
        ulp_core::yield_now();
        ulp_core::couple().unwrap();
        for _ in 0..5 {
            sys::getpid().unwrap();
        }
        // Rendezvous: park *coupled* on a host channel. Receiving is an OS
        // block, not a simulated syscall — we move no counter while we
        // wait. Retry on mismatch: an idle-KC futex expiry may land in the
        // render-to-open gap (module docs); a real divergence is stable
        // and fails the final attempt.
        let mut last = (String::new(), String::new());
        for _ in 0..10 {
            ready_tx.send(()).unwrap();
            let external = go_rx.recv().unwrap();
            // The host has rendered; our open freezes the same state.
            let internal = read_all("/proc/ulp/metrics");
            if internal == external {
                return 0;
            }
            last = (internal, external);
        }
        assert_eq!(
            last.0, last.1,
            "in-simulation /proc/ulp/metrics must equal the external dump"
        );
        0
    });

    // Everything is quiesced: the only ULP is parked coupled, schedulers
    // idle on an empty queue. Render whenever the ULP asks, until it is
    // satisfied (it drops its end after the attempt that matches).
    while ready_rx.recv().is_ok() {
        let _ = go_tx.send(rt.prometheus_dump());
    }
    assert_eq!(h.wait(), 0);
}

/// `/proc/ulp/stat` serves the live `StatsSnapshot`, one `name value` line
/// per counter, and the values agree with the host-side snapshot under the
/// same rendezvous.
#[test]
fn runtime_stat_file_matches_stats_snapshot() {
    let rt = Runtime::new();
    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let (go_tx, go_rx) = mpsc::channel::<ulp_core::StatsSnapshot>();
    let h = rt.spawn("statreader", move || {
        ulp_core::decouple().unwrap();
        ulp_core::couple().unwrap();
        ready_tx.send(()).unwrap();
        let snap = go_rx.recv().unwrap();
        let body = read_all("/proc/ulp/stat");
        let get = |name: &str| -> u64 {
            body.lines()
                .find_map(|l| l.strip_prefix(&format!("{name} ")))
                .unwrap_or_else(|| panic!("{name} missing from {body:?}"))
                .parse()
                .unwrap()
        };
        assert_eq!(body.lines().count(), snap.counters().count() + 1);
        for c in snap.counters() {
            get(c.name);
        }
        get("stack_warm");
        assert_eq!(get("couples"), snap.couples);
        assert_eq!(get("decouples"), snap.decouples);
        assert_eq!(get("blts_spawned"), snap.blts_spawned);
        assert_eq!(get("context_switches"), snap.context_switches);
        assert_eq!(get("scheduler_dispatches"), snap.scheduler_dispatches);
        assert_eq!(get("couple_handoffs"), snap.couple_handoffs);
        assert!(get("decouples") >= 1);
        0
    });
    ready_rx.recv().unwrap();
    go_tx.send(rt.stats().snapshot()).unwrap();
    assert_eq!(h.wait(), 0);
}

/// `/proc/ulp/profile` is well-formed collapsed-stack text whose rows
/// parse and carry this runtime's BLT frames.
#[test]
fn profile_file_parses_as_collapsed_stacks() {
    let rt = Runtime::new();
    rt.trace_enable();
    let h = rt.spawn("profiled", || {
        ulp_core::decouple().unwrap();
        ulp_core::yield_now();
        ulp_core::couple().unwrap();
        sys::getpid().unwrap();
        let body = read_all("/proc/ulp/profile");
        let rows = ulp_core::parse_collapsed(&body).expect("folded text parses");
        assert!(!rows.is_empty(), "profile has stacks: {body:?}");
        assert!(rows.iter().all(|(s, _)| s.starts_with("blt:")));
        0
    });
    assert_eq!(h.wait(), 0);
}

/// `/proc/self/stat` carries the runtime enrichment: BLT id, lifecycle
/// state, couple state, kernel-context id and spawn time.
#[test]
fn pid_stat_carries_ulp_enrichment() {
    let rt = Runtime::new();
    let h = rt.spawn("enriched", || {
        let me = ulp_core::self_id().unwrap();
        let line = read_all("/proc/self/stat");
        assert!(line.contains("(enriched)"), "kernel name field: {line:?}");
        assert!(line.contains(&format!("blt={}", me.0)), "{line:?}");
        assert!(line.contains("ulp_state=running"), "{line:?}");
        assert!(line.contains("couple=coupled"), "{line:?}");
        assert!(line.contains("kc=ThreadId"), "{line:?}");
        assert!(line.contains("spawn_ns="), "{line:?}");
        // Scheduler identities are registered too: their pid rows exist and
        // are enriched with couple state — once the scheduler thread has
        // started, which nothing here waits for, so poll (bounded).
        let enriched = || {
            let dirs = sys::readdir("/proc").unwrap();
            dirs.iter()
                .filter(|e| e.name.parse::<u32>().is_ok())
                .map(|e| read_all(&format!("/proc/{}/stat", e.name)))
                .filter(|l| l.contains("blt="))
                .count()
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while enriched() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "self + at least one scheduler, within 5 s"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        0
    });
    assert_eq!(h.wait(), 0);
}

/// A decoupled open still works (procfs doesn't care which KC executes the
/// call) — but the §V-B hazard applies: `/proc/self` resolves through the
/// *executing* thread's binding, i.e. the scheduler's identity, not the
/// ULP's. The audit log records the violation; `coupled_scope` restores
/// self-consistency.
#[test]
fn decoupled_self_is_the_schedulers_not_yours() {
    let rt = Runtime::builder().schedulers(1).build();
    let h = rt.spawn("hazard", || {
        let my_pid = sys::getpid().unwrap();
        ulp_core::decouple().unwrap();
        let line = read_all("/proc/self/stat");
        let seen: u32 = line.split_whitespace().next().unwrap().parse().unwrap();
        assert_ne!(seen, my_pid.0, "decoupled self is the scheduler's pid");
        assert!(line.contains("(ulp-sched-"), "{line:?}");
        let back = ulp_core::coupled_scope(|| read_all("/proc/self/stat")).unwrap();
        let seen: u32 = back.split_whitespace().next().unwrap().parse().unwrap();
        assert_eq!(seen, my_pid.0, "coupled_scope restores identity");
        0
    });
    assert_eq!(h.wait(), 0);
    assert!(
        !rt.violations().is_empty(),
        "decoupled procfs traffic is audited like any other syscall"
    );
}
