//! The cost ladder: each rung of the stack measured alone, from outside,
//! tracer off — the unit costs the per-workload event counts are multiplied
//! with, in ns (one rung in µs). One call of [`measure`] is one *pass*: one
//! timed batch per rung. The parent runs several passes, spread over the
//! run like the repetitions, and takes each rung's median — a bad stretch of
//! the host then costs a pass, not the ladder.
//!
//! `kernel.futex.wake_to_run_ns` is the odd one out: it measures the host
//! (one OS futex wake of a sleeping thread until that thread runs), which no
//! change to the repository should move. If it differs between two runs,
//! the host changed and the comparison is void.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ulp_core::{
    couple, coupled_scope, decouple, pending_couplers, sys, yield_now, EpollOp, PollEvents, Runtime,
};
use ulp_fcontext::{Fiber, StackPool};
use ulp_kernel::{Kernel, OpenFlags, Pid, Semaphore};

/// Rung names in ladder order, with units.
pub const RUNGS: [(&str, &str); 17] = [
    ("fcontext.switch_ns", "ns"),
    ("fcontext.stack_cycle_ns", "ns"),
    ("core.couple.yield_ns", "ns"),
    ("core.runqueue.overhead_ns", "ns"),
    ("core.couple.rtt_ns", "ns"),
    ("core.couple.handoff_rtt_ns", "ns"),
    ("core.sys.getpid_ns", "ns"),
    ("kernel.syscall.getpid_ns", "ns"),
    ("kernel.fs.open_close_ns", "ns"),
    ("kernel.fs.pread_256_ns", "ns"),
    ("kernel.fs.pwrite_256_ns", "ns"),
    ("kernel.fs.stat_ns", "ns"),
    ("kernel.pipe.rt_256_ns", "ns"),
    ("kernel.socket.rt_256_ns", "ns"),
    ("kernel.poll.epoll_ready_ns", "ns"),
    ("kernel.futex.wake_to_run_ns", "ns"),
    ("core.spawn.blt_cycle_us", "us"),
];

/// Share of a batch spent warming the rung up before the timed batch.
pub const WARM_SHARE: f64 = 0.2;

/// One timed batch of `op`, ns per call. A batch runs `op` in chunks of
/// `chunk` calls (so the clock is read once per chunk) until `batch` has
/// elapsed; a fifth of a batch is spent warming up first.
fn rung(batch: Duration, chunk: usize, mut op: impl FnMut()) -> f64 {
    let mut timed = |d: Duration| {
        let (t, mut n) = (Instant::now(), 0u64);
        loop {
            for _ in 0..chunk {
                op();
            }
            n += chunk as u64;
            let e = t.elapsed();
            if e >= d {
                return e.as_nanos() as f64 / n as f64;
            }
        }
    };
    timed(batch.mul_f64(WARM_SHARE));
    timed(batch)
}

/// Run `f` inside a fresh BLT of `rt` and hand its result back.
fn in_blt(rt: &Runtime, f: impl FnOnce() -> f64 + Send + 'static) -> f64 {
    let cell = Arc::new(Mutex::new(0.0));
    let c2 = cell.clone();
    let status = rt
        .spawn("rung", move || {
            *c2.lock().expect("rung result") = f();
            0
        })
        .wait();
    assert_eq!(status, 0, "ladder rung BLT failed");
    let v = *cell.lock().expect("rung result");
    v
}

fn switch_ns(batch: Duration) -> f64 {
    let mut fiber = Fiber::new(|sus, _| loop {
        sus.suspend(0);
    })
    .expect("fiber stack");
    // One resume is a switch in and a switch back out.
    rung(batch, 256, || {
        fiber.resume(0);
    }) / 2.0
}

fn stack_cycle_ns(batch: Duration) -> f64 {
    let pool = StackPool::new(128);
    rung(batch, 16, || {
        let s = pool.acquire_dense(64 * 1024).expect("slab slot");
        pool.release(s);
    })
}

/// Two decoupled ULPs yielding to each other on one scheduler.
fn yield_ns(batch: Duration) -> f64 {
    let rt = Runtime::new();
    let stop = Arc::new(AtomicBool::new(false));
    let s2 = stop.clone();
    let peer = rt.spawn("yield-peer", move || {
        decouple().expect("decouple");
        while !s2.load(Ordering::Acquire) {
            yield_now();
        }
        0
    });
    let ns = in_blt(&rt, move || {
        decouple().expect("decouple");
        // Wait until the peer is in the run queue: a yield that finds the
        // queue empty returns false.
        while !yield_now() {
            std::hint::spin_loop();
        }
        // One call here is a round trip: our yield and the peer's.
        let ns = rung(batch, 64, || {
            yield_now();
        }) / 2.0;
        stop.store(true, Ordering::Release);
        ns
    });
    assert_eq!(peer.wait(), 0);
    ns
}

/// A bare `coupled_scope(|| ())` from one decoupled ULP: the Table-I
/// protocol with nothing inside.
fn couple_rtt_ns(batch: Duration) -> f64 {
    let rt = Runtime::new();
    in_blt(&rt, move || {
        decouple().expect("decouple");
        rung(batch, 4, || {
            coupled_scope(|| ()).expect("couple");
        })
    })
}

/// Spin (yielding the OS thread, so a small host can run the peer) until
/// exactly one couple requester is parked on the calling UC's KC.
fn wait_for_pending_coupler() {
    let mut spins = 0u64;
    while pending_couplers() != Some(1) {
        std::thread::yield_now();
        spins += 1;
        assert!(spins <= 200_000_000, "handoff ping-pong wedged");
    }
}

/// The direct-handoff fast path: a primary and a sibling sharing one
/// original KC ping-pong couples, each transitioning only once the peer's
/// request is parked, so every decouple switches straight into the waiting
/// requester (port of `ulp-bench`'s `couple_handoff_rtt`, made time-bound).
fn handoff_rtt_ns(batch: Duration) -> f64 {
    let rt = Runtime::new();
    let stop = Arc::new(AtomicBool::new(false));
    let cell = Arc::new(Mutex::new(0.0));
    let (s2, c2) = (stop.clone(), cell.clone());
    let primary = rt.spawn("handoff-a", move || {
        wait_for_pending_coupler();
        // One round retires a couple()+decouple() pair on each side.
        let ns = rung(batch, 4, || {
            decouple().expect("decouple");
            couple().expect("couple");
            wait_for_pending_coupler();
        }) / 2.0;
        *c2.lock().expect("rung result") = ns;
        // Release the peer, whose last request is still parked.
        s2.store(true, Ordering::Release);
        decouple().expect("decouple");
        0
    });
    let sibling = primary
        .spawn_sibling("handoff-b", move || loop {
            couple().expect("couple");
            if stop.load(Ordering::Acquire) {
                return 0; // terminates coupled (paper rule 7)
            }
            wait_for_pending_coupler();
            decouple().expect("decouple");
        })
        .expect("sibling");
    assert_eq!(sibling.wait(), 0);
    assert_eq!(primary.wait(), 0);
    let v = *cell.lock().expect("rung result");
    v
}

fn sys_getpid_ns(batch: Duration) -> f64 {
    let rt = Runtime::new();
    in_blt(&rt, move || {
        rung(batch, 256, || {
            sys::getpid().expect("getpid");
        })
    })
}

/// The kernel rungs: `Kernel::sys_*` called directly on a bare bound
/// thread — no runtime, no veneer, no audit.
fn kernel_rungs(batch: Duration, out: &mut BTreeMap<&'static str, f64>) {
    let k = Kernel::native();
    let pid = k.spawn_process(Some(Pid(1)), "ladder");
    k.bind_current(pid);

    out.insert(
        "kernel.syscall.getpid_ns",
        rung(batch, 256, || {
            k.sys_getpid().expect("getpid");
        }),
    );

    let path = "/ladder.dat";
    let file = k
        .sys_open(path, OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::TRUNC)
        .expect("open");
    k.sys_pwrite(file, 0, &vec![0x5A; 64 * 1024]).expect("fill");
    out.insert(
        "kernel.fs.open_close_ns",
        rung(batch, 64, || {
            let fd = k.sys_open(path, OpenFlags::RDONLY).expect("open");
            k.sys_close(fd).expect("close");
        }),
    );
    let mut buf = [0u8; 256];
    let mut off = 0u64;
    let mut next_off = move || {
        off = (off + 4_352) % (64 * 1024 - 256);
        off
    };
    out.insert(
        "kernel.fs.pread_256_ns",
        rung(batch, 64, || {
            k.sys_pread(file, next_off(), &mut buf).expect("pread");
        }),
    );
    let data = [0xA5u8; 256];
    out.insert(
        "kernel.fs.pwrite_256_ns",
        rung(batch, 64, || {
            k.sys_pwrite(file, next_off(), &data).expect("pwrite");
        }),
    );
    out.insert(
        "kernel.fs.stat_ns",
        rung(batch, 64, || {
            k.sys_stat(path).expect("stat");
        }),
    );

    // Same-thread write → read: the data path with nobody to wake.
    let (pr, pw) = k.sys_pipe().expect("pipe");
    out.insert(
        "kernel.pipe.rt_256_ns",
        rung(batch, 32, || {
            k.sys_write(pw, &data).expect("pipe write");
            k.sys_read(pr, &mut buf).expect("pipe read");
        }),
    );
    let (sa, sb) = k.sys_socketpair().expect("socketpair");
    out.insert(
        "kernel.socket.rt_256_ns",
        rung(batch, 32, || {
            k.sys_write(sa, &data).expect("socket write");
            k.sys_read(sb, &mut buf).expect("socket read");
        }),
    );

    // epoll_wait on a descriptor that is already readable.
    k.sys_write(sa, &[1]).expect("make readable");
    let ep = k.sys_epoll_create().expect("epoll_create");
    k.sys_epoll_ctl(ep, EpollOp::Add, sb, PollEvents::IN)
        .expect("epoll_ctl");
    out.insert(
        "kernel.poll.epoll_ready_ns",
        rung(batch, 64, || {
            let ev = k.sys_epoll_wait(ep, 8, None).expect("epoll_wait");
            assert_eq!(ev.len(), 1);
        }),
    );
    k.unbind_current();
}

/// One OS futex wake until the woken thread runs: the main thread posts a
/// `Semaphore` a second thread sleeps on and spins until that thread has
/// stamped the clock; median over the batch. The waker stays busy, as a
/// waker does inside the workloads — a strict ping-pong, where both threads
/// sleep in turn, swings between 1 µs and 150 µs on a virtual machine with
/// the host's idle-state guesses and says little about either.
fn futex_wake_to_run_ns(batch: Duration) -> f64 {
    /// Long enough for the woken thread to be asleep again.
    const SETTLE: Duration = Duration::from_micros(30);
    let epoch = Instant::now();
    let now_ns = move || epoch.elapsed().as_nanos() as u64;
    let ping = Arc::new(Semaphore::new(0));
    let woke_at = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let (p2, w2, s2) = (ping.clone(), woke_at.clone(), stop.clone());
    let sleeper = std::thread::spawn(move || loop {
        p2.wait();
        if s2.load(Ordering::Acquire) {
            return;
        }
        w2.store(now_ns(), Ordering::Release);
    });
    let timed = |d: Duration| {
        let started = Instant::now();
        let mut samples = Vec::new();
        while started.elapsed() < d {
            let settle = Instant::now();
            while settle.elapsed() < SETTLE {
                std::hint::spin_loop();
            }
            woke_at.store(0, Ordering::Relaxed);
            let posted = now_ns();
            ping.post();
            let woke = loop {
                match woke_at.load(Ordering::Acquire) {
                    0 => std::hint::spin_loop(),
                    t => break t,
                }
            };
            samples.push(woke.saturating_sub(posted));
        }
        crate::span::median_u64(&mut samples)
    };
    timed(batch.mul_f64(WARM_SHARE));
    let ns = timed(batch);
    stop.store(true, Ordering::Release);
    ping.post();
    sleeper.join().expect("futex sleeper");
    ns
}

fn blt_cycle_us(batch: Duration) -> f64 {
    let rt = Runtime::new();
    rung(batch, 1, || {
        assert_eq!(rt.spawn("empty", || 0).wait(), 0);
    }) / 1e3
}

/// Rungs [`measure`] times (`core.runqueue.overhead_ns` is derived).
pub const MEASURED: usize = RUNGS.len() - 1;

/// One pass over every measured rung; each takes `(1 + WARM_SHARE) × batch`.
/// `core.runqueue.overhead_ns` is left to the caller, who derives it from
/// the medians.
pub fn measure(batch: Duration) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    out.insert("fcontext.switch_ns", switch_ns(batch));
    out.insert("fcontext.stack_cycle_ns", stack_cycle_ns(batch));
    out.insert("core.couple.yield_ns", yield_ns(batch));
    out.insert("core.couple.rtt_ns", couple_rtt_ns(batch));
    out.insert("core.couple.handoff_rtt_ns", handoff_rtt_ns(batch));
    out.insert("core.sys.getpid_ns", sys_getpid_ns(batch));
    kernel_rungs(batch, &mut out);
    out.insert("kernel.futex.wake_to_run_ns", futex_wake_to_run_ns(batch));
    out.insert("core.spawn.blt_cycle_us", blt_cycle_us(batch));
    debug_assert_eq!(out.len(), MEASURED);
    out
}
