//! Two live `Runtime`s in one process coexist.
//!
//! The kernel → runtime seam is one process-global `ulp_kernel::KernelHooks`
//! table that the first `Runtime` installs; every hook in it resolves the
//! *calling thread's* runtime. So a second runtime needs no table of its
//! own: its threads' syscall spans land in its tracer, its wake edges name
//! its BLTs, and its ULPs read its `/proc/ulp/*` — which is what this test
//! pins, with both runtimes doing traced pipe and socket traffic at once.

use std::sync::mpsc;
use std::sync::Arc;
use ulp_core::ulp_kernel::OpenFlags;
use ulp_core::{sys, BltId, Listener, Runtime, TraceEvent};

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

/// What the host keeps of one runtime's traffic.
struct Side {
    rt: Runtime,
    /// BLT ids of the two traffic ULPs.
    ids: [BltId; 2],
    /// The client asks for an external render…
    ready: mpsc::Receiver<()>,
    /// …and gets it here, to compare with its own `/proc/ulp/metrics`.
    go: mpsc::Sender<String>,
    handles: Vec<ulp_core::BltHandle>,
}

/// Start `rounds` socket round trips (a blocking `read` on each side of
/// every one, so every one is a wake edge) plus as many pipe round trips,
/// between two ULPs of a fresh traced runtime. `fillers` ULPs are spawned
/// first to push the traffic ULPs' BLT ids up.
fn start(fillers: usize, rounds: usize) -> Side {
    let rt = Runtime::builder()
        .schedulers(1)
        .trace_capacity(1 << 16)
        .build();
    rt.trace_enable();
    for _ in 0..fillers {
        assert_eq!(rt.spawn("filler", || 0).wait(), 0);
    }
    let listener = Listener::new();
    let server = {
        let listener: Arc<Listener> = listener.clone();
        rt.spawn("server", move || {
            let lfd = sys::listen(&listener).unwrap();
            let conn = sys::accept(lfd).unwrap();
            let mut buf = [0u8; 16];
            loop {
                let n = sys::read(conn, &mut buf).unwrap();
                if n == 0 {
                    return 0;
                }
                assert_eq!(sys::write(conn, &buf[..n]).unwrap(), n);
            }
        })
    };
    let (ready_tx, ready) = mpsc::channel::<()>();
    let (go, go_rx) = mpsc::channel::<String>();
    let client = rt.spawn("client", move || {
        let conn = sys::connect(&listener).unwrap();
        let (r, w) = sys::pipe().unwrap();
        let mut buf = [0u8; 16];
        for i in 0..rounds {
            let frame = (i as u64).to_le_bytes();
            assert_eq!(sys::write(conn, &frame).unwrap(), 8);
            assert_eq!(sys::read(conn, &mut buf).unwrap(), 8);
            assert_eq!(buf[..8], frame);
            assert_eq!(sys::write(w, &frame).unwrap(), 8);
            assert_eq!(sys::read(r, &mut buf).unwrap(), 8);
        }
        // The procfs_reconcile rendezvous: parked coupled on a host channel
        // (an OS block, not a simulated syscall) while the host renders;
        // retried because an idle KC's futex re-arm may land in the gap.
        let mut last = (String::new(), String::new());
        for _ in 0..10 {
            ready_tx.send(()).unwrap();
            let external = go_rx.recv().unwrap();
            let internal = read_all("/proc/ulp/metrics");
            if internal == external {
                sys::close(conn).unwrap();
                return 0;
            }
            last = (internal, external);
        }
        assert_eq!(last.0, last.1, "/proc/ulp/metrics is this runtime's own");
        1
    });
    Side {
        ids: [server.id(), client.id()],
        rt,
        ready,
        go,
        handles: vec![server, client],
    }
}

/// Syscall exits in the tracer vs. samples in the per-syscall histograms,
/// read while no count moved in between.
fn spans_and_samples(rt: &Runtime) -> (u64, u64) {
    loop {
        let before = rt.syscall_snapshot().total_count();
        let exits = rt
            .trace_snapshot()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::SyscallExit { .. }))
            .count() as u64;
        if rt.syscall_snapshot().total_count() == before {
            return (exits, before);
        }
    }
}

#[test]
fn two_live_runtimes_keep_metrics_wake_edges_and_spans_apart() {
    // Different amounts of traffic, so the two expositions differ; eight
    // fillers, so B's traffic ULPs carry ids A never hands out.
    let a = start(0, 20);
    let b = start(8, 50);
    let disjoint = a.ids.iter().all(|id| !b.ids.contains(id));
    assert!(
        disjoint,
        "ids must tell the runtimes apart: {:?} {:?}",
        a.ids, b.ids
    );

    // Serve both rendezvous until both clients are satisfied.
    let mut dumps = [String::new(), String::new()];
    let mut open = [true, true];
    while open.iter().any(|o| *o) {
        for (i, side) in [&a, &b].into_iter().enumerate() {
            if open[i] {
                match side.ready.recv() {
                    Ok(()) => {
                        dumps[i] = side.rt.prometheus_dump();
                        let _ = side.go.send(dumps[i].clone());
                    }
                    Err(_) => open[i] = false,
                }
            }
        }
    }
    for side in [&a, &b] {
        for h in &side.handles {
            assert_eq!(h.wait(), 0);
        }
    }
    assert_ne!(dumps[0], dumps[1], "each runtime rendered its own counters");

    for (side, other) in [(&a, &b), (&b, &a)] {
        assert_eq!(side.rt.trace_dropped(), 0, "the ring held the whole run");
        let (exits, samples) = spans_and_samples(&side.rt);
        assert_eq!(exits, samples, "every span this tracer holds is its own");

        // B's traffic ULPs carry ids A never handed out, so nothing A
        // recorded may name them. (A's small ids also number B's schedulers
        // and fillers, so the converse is checked on kernel-site edges only:
        // those name the two ULPs doing the traffic and nobody else.)
        let exclusive = other.ids.iter().all(|id| id.0 > 8);
        let mut kernel_edges = 0;
        for r in &side.rt.trace_snapshot() {
            let TraceEvent::Wake {
                waker, wakee, site, ..
            } = r.event
            else {
                continue;
            };
            if exclusive {
                let named = other.ids.contains(&waker) || other.ids.contains(&wakee);
                assert!(!named, "{r:?} names a BLT of the other runtime");
            }
            if site.blocking_span().is_some() {
                kernel_edges += 1;
                assert!(side.ids.contains(&wakee), "{r:?} wakes a stranger");
                let outside = waker == BltId(0);
                assert!(outside || side.ids.contains(&waker), "{r:?}: strange waker");
            }
        }
        assert!(kernel_edges > 0, "blocking reads were woken and attributed");
    }
}
