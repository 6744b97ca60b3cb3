//! Workload implementations behind every table and figure.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ulp_core::{
    couple, coupled_scope, decouple, pending_couplers, sys, yield_now, IdlePolicy, RawUlpLock,
    Runtime, RuntimeBuilder, StatsSnapshot, Topology, UlpLock,
};
use ulp_fcontext::Fiber;
use ulp_kernel::{Aiocb, ArchProfile, IoModel, OpenFlags};

/// Run `f` on a fresh BLT of `rt` (coupled, as spawned) and hand back what it
/// returns.
fn in_blt<T: Send + 'static>(
    rt: &Runtime,
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let out = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let status = rt.spawn(name, move || {
        *out2.lock() = Some(f());
        0
    });
    assert_eq!(status.wait(), 0, "BLT {name} failed");
    let v = out.lock().take().expect("the BLT stored its result");
    v
}

// ---------------------------------------------------------------- Table III

/// One user-level context switch (half of a fiber round trip), ns.
pub fn ctx_switch_ns(iters: usize) -> f64 {
    let mut fiber = Fiber::new(move |sus, _| {
        loop {
            sus.suspend(0);
        }
        #[allow(unreachable_code)]
        0
    })
    .expect("fiber");
    crate::measure_min(iters, || {
        fiber.resume(0); // 2 swaps per resume (in + out)
    }) / 2.0
}

thread_local! {
    static EMULATED_TLS_REGISTER: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One TLS-register load under the given architecture profile, ns.
/// `Native` measures the emulated register write itself; `Wallaby` /
/// `Albireo` add the measured cost of the real operation (`arch_prctl`
/// system call vs. `tpidr_el0` write — Table III).
pub fn tls_load_ns(profile: ArchProfile, iters: usize) -> f64 {
    let mut v = 0usize;
    crate::measure_min(iters, || {
        v = v.wrapping_add(1);
        EMULATED_TLS_REGISTER.with(|r| r.set(v));
        ulp_kernel::spin_for(profile.tls_load());
    })
}

// ---------------------------------------------------------------- Table IV

/// Two decoupled ULPs yielding to each other on one scheduler of the
/// runtime `builder` describes, ns per yield (Table IV row 1; the ablation
/// comparisons pass other switches). The returned value is already
/// min-of-runs.
pub fn ulp_yield_ns(builder: RuntimeBuilder, iters: usize) -> f64 {
    let rt = builder.schedulers(1).build();
    let peer_up = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));

    // The partner yields forever until told to stop.
    let (p2, s2) = (peer_up.clone(), stop.clone());
    let partner = rt.spawn("yield-peer", move || {
        decouple().unwrap();
        p2.store(true, Ordering::Release);
        while !s2.load(Ordering::Acquire) {
            yield_now();
        }
        0
    });
    let best = in_blt(&rt, "yield-meas", move || {
        decouple().unwrap();
        while !peer_up.load(Ordering::Acquire) {
            yield_now();
        }
        // One measured iteration is a round trip = two yields.
        let best = crate::measure_min(iters, || {
            yield_now();
        }) / 2.0;
        stop.store(true, Ordering::Release);
        best
    });
    partner.wait();
    best
}

// ---------------------------------------------------------------- Table V

/// Plain `getpid` on a coupled BLT (the "Linux" row analogue against the
/// simulated kernel), ns.
pub fn getpid_plain_ns(profile: ArchProfile, iters: usize) -> f64 {
    let rt = Runtime::builder().schedulers(1).profile(profile).build();
    in_blt(&rt, "getpid-plain", move || {
        crate::measure_min(iters, || {
            sys::getpid().unwrap();
        })
    })
}

/// One `getpid` enclosed in `couple()`/`decouple()` from a decoupled ULP
/// (Table V's ULP-PiP rows): ns per enclosed call (min-of-runs protocol), and
/// what the runtime's own counters say the calls consisted of — the delta the
/// ULP itself reads around the whole measurement, warm-up iterations
/// included, so every count divides by `couples`. The paper: 4 context
/// switches and 2 TLS loads per call; `kc_blocks` is the futex blocks of the
/// original KC, the system calls BUSYWAIT and BLOCKING differ by.
pub fn getpid_coupled(
    policy: IdlePolicy,
    profile: ArchProfile,
    iters: usize,
) -> (f64, StatsSnapshot) {
    let rt = Runtime::builder()
        .schedulers(1)
        .idle_policy(policy)
        .profile(profile)
        .build();
    in_blt(&rt, "getpid-ulp", move || {
        decouple().unwrap();
        // One pair first, so the lazily created trampoline exists and the
        // counts start from the steady "decoupled, just dispatched" state.
        coupled_scope(|| ()).unwrap();
        let stats = || {
            let rt = ulp_core::current::current_runtime().expect("inside a runtime");
            rt.stats.snapshot()
        };
        let before = stats();
        let ns = crate::measure_min(iters, || {
            coupled_scope(|| {
                sys::getpid().unwrap();
            })
            .unwrap();
        });
        (ns, stats().delta(&before))
    })
}

/// `blts` BLTs on one scheduler, each looping `coupled_scope(getpid)` +
/// `yield_now()` for `window` — `couple_io`'s shape without the file calls,
/// where the idle policy decides whether every `couple()` pays a futex
/// sleep and whether a `decouple()` leaves at all. Returns completed scopes
/// per second, all BLTs together, and the runtime's own counters.
pub fn couple_loop(policy: IdlePolicy, blts: usize, window: Duration) -> (f64, StatsSnapshot) {
    let rt = Runtime::builder().schedulers(1).idle_policy(policy).build();
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..blts)
        .map(|i| {
            let stop = stop.clone();
            rt.spawn(&format!("couple-loop{i}"), move || {
                decouple().unwrap();
                let mut ops = 0i32;
                while !stop.load(Ordering::Relaxed) {
                    coupled_scope(|| sys::getpid().unwrap()).unwrap();
                    ops += 1;
                    yield_now();
                }
                ops
            })
        })
        .collect();
    let t = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let secs = t.elapsed().as_secs_f64();
    let ops: i64 = handles.iter().map(|h| i64::from(h.wait())).sum();
    (ops as f64 / secs, rt.stats().snapshot())
}

/// `clients` decoupled BLTs on the default runtime, each sending `requests`
/// one-byte requests over its own socketpair — `coupled_scope { write; read }`
/// — to a thread-mode replier that shares its FD table and never decouples:
/// `echo`'s shape, where every scope waits in the kernel and so every KC
/// and the scheduler sleep between requests. Returns, from the runtime's and
/// the kernel's own counters, per request: trampoline futex blocks — one
/// when every `decouple()` leaves for the sleeping scheduler, next to none
/// when it stays home — and kernel futex sleeps — two when every blocked
/// `read` sleeps, next to none when the short ones spin.
pub fn request_reply_sleeps(clients: usize, requests: usize) -> (f64, f64) {
    let rt = Runtime::new();
    let kernel_sleeps = ulp_kernel::wait_outcomes().sleeps;
    let (fds_tx, fds) = std::sync::mpsc::channel();
    let mut handles = Vec::new();
    for c in 0..clients {
        let fds_tx = fds_tx.clone();
        handles.push(rt.spawn(&format!("rr-client{c}"), move || {
            let (a, b) = sys::socketpair().unwrap();
            fds_tx.send((c, b)).unwrap();
            decouple().unwrap();
            let mut reply = [0u8; 1];
            for r in 0..requests {
                coupled_scope(|| {
                    assert_eq!(sys::write(a, &[r as u8]), Ok(1));
                    assert_eq!(sys::read(a, &mut reply), Ok(1));
                })
                .unwrap();
                assert_eq!(reply[0], r as u8);
            }
            // Hanging up is what lets the replier finish.
            coupled_scope(|| sys::close(a).unwrap()).unwrap();
            0
        }));
    }
    for _ in 0..clients {
        let (c, b) = fds.recv().expect("every client sends its peer end");
        let pid = handles[c].pid();
        handles.push(
            rt.spawn_with_identity(&format!("rr-replier{c}"), pid, move || {
                let mut byte = [0u8; 1];
                while sys::read(b, &mut byte) == Ok(1) {
                    assert_eq!(sys::write(b, &byte), Ok(1));
                }
                // The client's exit may have closed the shared table already.
                let _ = sys::close(b);
                0
            }),
        );
    }
    for h in &handles {
        assert_eq!(h.wait(), 0);
    }
    let kernel_sleeps = ulp_kernel::wait_outcomes().sleeps - kernel_sleeps;
    let per_request = |n: u64| n as f64 / (clients * requests) as f64;
    (
        per_request(rt.stats().snapshot().kc_blocks),
        per_request(kernel_sleeps),
    )
}

// --------------------------------------------------- direct-handoff coupling

/// Spin (OS-yielding, so a single-core host can run the peer) until the
/// calling UC's KC has exactly one couple requester parked. Bounded so a
/// broken handoff protocol aborts the bench instead of hanging it.
fn wait_for_pending_coupler() {
    let mut spins = 0u64;
    while pending_couplers() != Some(1) {
        std::thread::yield_now();
        spins += 1;
        assert!(spins <= 200_000_000, "handoff ping-pong wedged");
    }
}

/// `rounds` of the couple/decouple ping-pong on the **direct-handoff fast
/// path**: a primary and a sibling sharing one original KC, each
/// transitioning only once the peer's request is parked (the discipline of
/// the hot-path tests, which keeps the orbit deterministic), so every
/// decouple finds that request in `pending` and switches straight into it.
/// Returns, from the runtime's own counters, the fraction of decouples that
/// handed off and the context switches per couple()+decouple() round trip —
/// 3 on the fast path (the couple, the peer's handoff decouple, one run-queue
/// dispatch), 4 through the trampoline.
pub fn couple_handoff(policy: IdlePolicy, rounds: usize) -> (f64, f64) {
    let rt = Runtime::builder().schedulers(1).idle_policy(policy).build();
    let before = rt.stats().snapshot();
    let h = rt.spawn("handoff-a", move || {
        // The sibling's first parked request anchors the orbit; from here
        // on every decouple hands off.
        wait_for_pending_coupler();
        for _ in 0..rounds {
            decouple().unwrap();
            couple().unwrap();
            wait_for_pending_coupler();
        }
        // Release the peer, whose last couple request is still parked.
        decouple().unwrap();
        0
    });
    let sib = h
        .spawn_sibling("handoff-b", move || {
            // One more couple than the primary's rounds: the final one is
            // completed by the primary's releasing decouple, after which we
            // terminate coupled (paper rule 7).
            for i in 0..(rounds + 1) {
                couple().unwrap();
                if i < rounds {
                    wait_for_pending_coupler();
                    decouple().unwrap();
                }
            }
            0
        })
        .unwrap();
    assert_eq!(sib.wait(), 0);
    assert_eq!(h.wait(), 0);
    let d = rt.stats().snapshot().delta(&before);
    (
        d.couple_handoffs as f64 / d.decouples.max(1) as f64,
        d.context_switches as f64 / d.couples.max(1) as f64,
    )
}

// ---------------------------------------------------------------- lock suite

/// Throughput of one shared `R` lock under contention: `n_ulps` decoupled
/// ULPs over `n_scheds` scheduler KCs, each performing `iters_each`
/// lock/increment/unlock operations on a single [`UlpLock<u64, R>`].
/// Returns ns per acquire (wall time over total acquisitions) and the
/// fraction of the requested increments the counter ended with — 1.0 unless
/// the lock lost an update. Run with `n_ulps <= n_scheds` for the
/// undersubscribed regime and `n_ulps > n_scheds` for oversubscription,
/// where a spinning waiter can occupy the scheduler the holder needs — the
/// regime the cooperative `stall()` paths in the suite exist for.
pub fn contended_lock<R: RawUlpLock + 'static>(
    n_scheds: usize,
    n_ulps: usize,
    iters_each: usize,
) -> (f64, f64) {
    let rt = Runtime::builder()
        .schedulers(n_scheds)
        .idle_policy(IdlePolicy::Blocking)
        .build();
    let lock = Arc::new(UlpLock::<u64, R>::new(0));
    let go = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..n_ulps)
        .map(|i| {
            let l = lock.clone();
            let g = go.clone();
            rt.spawn(&format!("lock-{}-{i}", R::NAME), move || {
                decouple().unwrap();
                while !g.load(Ordering::Acquire) {
                    yield_now();
                }
                for _ in 0..iters_each {
                    *l.lock() += 1;
                }
                0
            })
        })
        .collect();
    let t = Instant::now();
    go.store(true, Ordering::Release);
    for h in handles {
        h.wait();
    }
    let total_ns = t.elapsed().as_nanos() as f64;
    let total_ops = (n_ulps * iters_each) as f64;
    let completed = *lock.lock() as f64 / total_ops;
    drop(rt);
    (total_ns / total_ops, completed)
}

// ------------------------------------------------ syscall-path scaling gate

/// Run `work(thread_index, start)` on `threads` OS threads and return the
/// summed operation counts they report per second of wall time. Each worker
/// sets itself up, waits on `start`, then does its operations; the clock
/// starts when the last of them (and this thread) has reached the barrier.
fn threads_ops_per_sec(
    threads: usize,
    work: impl Fn(usize, &std::sync::Barrier) -> u64 + Sync,
) -> f64 {
    let start = std::sync::Barrier::new(threads + 1);
    let (ops, secs) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (work, start) = (&work, &start);
                s.spawn(move || work(t, start))
            })
            .collect();
        start.wait();
        let t = Instant::now();
        let ops: u64 = workers
            .into_iter()
            .map(|w| w.join().expect("measured thread"))
            .sum();
        (ops, t.elapsed().as_secs_f64())
    });
    ops as f64 / secs
}

/// Aggregate increments per second of `threads` OS threads each spinning a
/// private counter `spins` times: what this host gives threads that share
/// nothing at all. Two threads ÷ one is the scaling available *right now* —
/// 2.0 on two free CPUs, nearer 1.0 while a neighbour holds the second —
/// which is what the `syscall_mix` scaling gate measures itself against.
pub fn private_counter_rate(threads: usize, spins: u64) -> f64 {
    threads_ops_per_sec(threads, |_, start| {
        start.wait();
        let mut n = 0u64;
        for _ in 0..spins {
            n = std::hint::black_box(n + 1);
        }
        n
    })
}

/// Aggregate simulated-syscall throughput (calls per second) of `threads`
/// bare bound threads — no runtime, `Kernel::sys_*` directly — each issuing
/// `entries` draws of `ulpbench`'s `syscall_mix` op mix (`getpid` 30 %,
/// `pread`/`pwrite` 256 B 15 % each, `stat` 10 %, `open`→`close` 10 %,
/// `lseek` 5 %, pipe and socketpair `write`→`read` 8 % and 7 %) against its
/// own process, 64 KiB file, pipe and socketpair. The threads share no
/// object, so the one-thread and two-thread rates differ by whatever
/// kernel-global state the calls still contend on — and by nothing else.
pub fn syscall_mix_calls_per_sec(threads: usize, entries: usize) -> f64 {
    const FILE_LEN: u64 = 64 * 1024;
    const IO: usize = 256;
    let k = ulp_kernel::Kernel::native();
    threads_ops_per_sec(threads, |t, start| {
        let pid = k.spawn_process(Some(ulp_kernel::Pid(1)), &format!("mix{t}"));
        k.bind_current(pid);
        let path = format!("/scaling_mix_{t}.dat");
        let flags = OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::TRUNC;
        let file = k.sys_open(&path, flags).expect("open");
        k.sys_pwrite(file, 0, &vec![0x5A; FILE_LEN as usize])
            .expect("fill");
        let (pr, pw) = k.sys_pipe().expect("pipe");
        let (sa, sb) = k.sys_socketpair().expect("socketpair");
        let (data, mut buf) = ([0xA5u8; IO], [0u8; IO]);
        let mut calls = 0u64;
        start.wait();
        for i in 0..entries as u64 {
            // One draw per entry chooses the op and the offset.
            let r = ulp_core::chaos::splitmix64((t as u64) << 48 | i);
            let off = (r >> 8) % (FILE_LEN - IO as u64 + 1);
            calls += match r % 100 {
                0..=29 => k.sys_getpid().map(|_| 1),
                30..=44 => k.sys_pread(file, off, &mut buf).map(|_| 1),
                45..=59 => k.sys_pwrite(file, off, &data).map(|_| 1),
                60..=69 => k.sys_stat(&path).map(|_| 1),
                70..=79 => k
                    .sys_open(&path, OpenFlags::RDONLY)
                    .and_then(|fd| k.sys_close(fd))
                    .map(|_| 2),
                80..=84 => k
                    .sys_lseek(file, off as i64, ulp_kernel::Whence::Set)
                    .map(|_| 1),
                85..=92 => k
                    .sys_write(pw, &data)
                    .and_then(|_| k.sys_read(pr, &mut buf))
                    .map(|_| 2),
                _ => k
                    .sys_write(sa, &data)
                    .and_then(|_| k.sys_read(sb, &mut buf))
                    .map(|_| 2),
            }
            .expect("syscall_mix call");
        }
        k.unbind_current();
        calls
    })
}

// ------------------------------------------------- Pooled-ULP scale rows

/// Current `VmRSS` of this process in MiB, from `/proc/self/status` (0.0
/// when the host exposes no procfs — the rows then read as unmeasured).
pub fn self_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

/// One high-cardinality pooled-churn measurement: `n` pooled ULPs spawned,
/// run and reaped in `wave`-sized waves over `pool_kcs` pool kernel
/// contexts. The interesting numbers are the full-lifecycle throughput
/// (spawn → dispatch → couple → terminate → reap) and the peak resident
/// set — the stack free-list recycles slab slots warm and its scavenger
/// trims the ones that stay free, so RSS must track the wave size, not `n`.
#[derive(Debug, Clone, Copy)]
pub struct PooledChurn {
    /// Full spawn→exit→reap lifecycles per second.
    pub spawn_per_sec: f64,
    /// Peak `VmRSS` sampled across the run, MiB.
    pub peak_rss_mib: f64,
    /// Stack free-list high-water mark (stacks outstanding at once).
    pub stack_peak: usize,
    /// Acquisitions served by recycling a previously-released stack.
    pub stack_recycled: usize,
    /// Free stacks the pool's scavenger `madvise`d away during the run.
    pub stack_trimmed: usize,
    /// Cached stacks still holding pages when the run ended.
    pub stack_warm: usize,
}

/// Churn `n` short-lived pooled ULPs through the runtime in waves of
/// `wave`, reaping each wave before the next starts.
pub fn pooled_churn(n: usize, wave: usize, pool_kcs: usize) -> PooledChurn {
    let rt = Runtime::builder()
        .schedulers(2)
        .pool_kcs(pool_kcs)
        .idle_policy(IdlePolicy::Blocking)
        .build();
    let mut peak_rss = self_rss_mib();
    let t0 = Instant::now();
    let mut spawned = 0usize;
    while spawned < n {
        let count = wave.min(n - spawned);
        let handles: Vec<_> = (0..count)
            .map(|_| rt.spawn_pooled("churn", || 0).expect("pooled spawn"))
            .collect();
        for h in &handles {
            h.wait();
        }
        spawned += count;
        peak_rss = peak_rss.max(self_rss_mib());
    }
    let secs = t0.elapsed().as_secs_f64();
    PooledChurn {
        spawn_per_sec: n as f64 / secs,
        peak_rss_mib: peak_rss,
        stack_peak: rt.stack_pool().peak_outstanding(),
        stack_recycled: rt.stack_pool().stats().0,
        stack_trimmed: rt.stack_pool().recycled(),
        stack_warm: rt.stack_pool().warm(),
    }
}

// ------------------------------------------------------------ Figs. 7 & 8

/// The five series of Figure 7 (and the I/O side of Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwcVariant {
    /// Synchronous `open`-`write`-`close` on a KLT — the slowdown baseline.
    Plain,
    /// The whole sequence enclosed in `couple()`/`decouple()` from a
    /// decoupled ULP (system-call consistency preserved, §VI-D).
    Ulp(IdlePolicy),
    /// glibc-style AIO: only the write is asynchronous; completion polled
    /// with `aio_error`/`aio_return` — "suitable for a ULT to use".
    AioReturn,
    /// Same, but completion awaited with the blocking `aio_suspend`.
    AioSuspend,
}

impl OwcVariant {
    /// Row label used in the Fig. 7 table and CSVs.
    pub fn label(&self) -> &'static str {
        match self {
            OwcVariant::Plain => "plain",
            OwcVariant::Ulp(IdlePolicy::BusyWait) => "ULP-BUSYWAIT",
            OwcVariant::Ulp(IdlePolicy::Blocking) => "ULP-BLOCKING",
            OwcVariant::Ulp(IdlePolicy::Adaptive) => "ULP-ADAPTIVE",
            OwcVariant::AioReturn => "AIO-return",
            OwcVariant::AioSuspend => "AIO-suspend",
        }
    }

    fn idle_policy(&self) -> IdlePolicy {
        match self {
            OwcVariant::Ulp(p) => *p,
            _ => IdlePolicy::Blocking,
        }
    }
}

fn owc_runtime(variant: OwcVariant, profile: ArchProfile, io: IoModel) -> Runtime {
    let rt = Runtime::builder()
        .schedulers(1)
        .idle_policy(variant.idle_policy())
        .profile(profile)
        .build();
    rt.kernel().tmpfs().set_io_model(io);
    rt
}

/// One open-write-close operation under `variant`, calling `meanwhile` at
/// the point where compute could overlap it: with the control block while an
/// AIO write is in flight, after the synchronous sequence otherwise. Assumes
/// the caller runs inside a BLT (decoupled for the ULP variants).
fn owc_with(variant: OwcVariant, buf: &Arc<Vec<u8>>, meanwhile: impl FnOnce(Option<&Aiocb>)) {
    let flags = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
    let open = || sys::open("/bench.dat", flags).unwrap();
    let synchronous = || {
        let fd = open();
        sys::write(fd, buf).unwrap();
        sys::close(fd).unwrap();
    };
    match variant {
        OwcVariant::Plain => synchronous(),
        // "the whole sequence must be done by a KLT otherwise the
        // system-call consistency is broken" (§VI-D).
        OwcVariant::Ulp(_) => coupled_scope(synchronous).unwrap(),
        OwcVariant::AioReturn | OwcVariant::AioSuspend => {
            let fd = open();
            let cb = sys::aio_write(fd, 0, buf.clone()).unwrap();
            meanwhile(Some(&cb));
            if variant == OwcVariant::AioSuspend {
                cb.suspend();
            }
            // The ULT-style completion loop: yield + poll aio_error.
            while cb.error() == Some(ulp_kernel::Errno::EINPROGRESS) {
                if !yield_now() {
                    std::hint::spin_loop();
                }
            }
            cb.aio_return().unwrap();
            sys::close(fd).unwrap();
            return;
        }
    }
    meanwhile(None)
}

fn owc_once(variant: OwcVariant, buf: &Arc<Vec<u8>>) {
    owc_with(variant, buf, |_| ())
}

/// Per-operation time of open-write-close under `variant` for a `size`-byte
/// buffer (min-of-runs protocol), ns.
pub fn owc_ns(
    variant: OwcVariant,
    size: usize,
    profile: ArchProfile,
    io: IoModel,
    iters: usize,
) -> f64 {
    let rt = owc_runtime(variant, profile, io);
    in_blt(&rt, "owc", move || {
        if matches!(variant, OwcVariant::Ulp(_)) {
            decouple().unwrap();
        }
        let buf = Arc::new(vec![0xA5u8; size]);
        crate::measure_min(iters, || owc_once(variant, &buf))
    })
}

// ------------------------------------------------------------------ compute

/// A compute chunk: enough floating-point work to take roughly `CHUNK_NS`.
/// Returned value prevents the optimizer from deleting the work.
#[inline(never)]
pub fn compute_chunk(iters: u64) -> f64 {
    let mut x = 1.000_000_1f64;
    for _ in 0..iters {
        x = x * 1.000_000_3 + 1e-12;
        x = std::hint::black_box(x);
    }
    x
}

/// One overlapped-compute slice: the chunk's flops plus a cooperative OS
/// yield. The yield stands in for the second core of the paper's testbed:
/// on a single-CPU host the fair scheduler will not preempt a pure compute
/// loop within a slice, so *no* async mechanism could make progress. Every
/// variant (AIO and ULP alike) computes through this same function, so the
/// comparison stays fair.
#[inline]
pub fn compute_slice(iters: u64) {
    std::hint::black_box(compute_chunk(iters));
    std::thread::yield_now();
}

/// Calibrate the iteration count whose `compute_chunk` takes ~`target_ns`.
pub fn calibrate_compute(target_ns: f64) -> u64 {
    let probe: u64 = 100_000;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(compute_chunk(probe));
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    let per_iter = best / probe as f64;
    ((target_ns / per_iter) as u64).max(1)
}

fn imb_ratio(pure_io: f64, pure_cpu: f64, ovl: f64) -> f64 {
    let denom = pure_io.min(pure_cpu);
    if denom <= 0.0 {
        return 0.0;
    }
    (100.0 * (pure_io + pure_cpu - ovl) / denom).clamp(0.0, 100.0)
}

/// The compute/I-O overlap ratio (%, in [0, 100]) of `variant` for
/// `size`-byte writes, "calculated in the way used in the Intel MPI
/// benchmarks" (§VI-D): `overlap = (t_io + t_cpu − t_ovl) / min(t_io, t_cpu)`,
/// with the compute workload calibrated to the pure-I/O time and each of the
/// three times the minimum of [`crate::RUNS`] trials.
pub fn overlap_pct(variant: OwcVariant, size: usize, profile: ArchProfile, io: IoModel) -> f64 {
    const OPS: usize = 8;
    let rt = owc_runtime(variant, profile, io);

    // --- pure I/O: OPS back-to-back operations on a coupled BLT.
    let pure_io = in_blt(&rt, "pure-io", move || {
        let buf = Arc::new(vec![0x5Au8; size]);
        crate::min_of_runs(|| {
            owc_once(OwcVariant::Plain, &buf); // warm-up
            let t = Instant::now();
            for _ in 0..OPS {
                owc_once(OwcVariant::Plain, &buf);
            }
            t.elapsed().as_nanos() as f64 / OPS as f64
        })
    });

    // --- compute calibrated to the pure-I/O time, in ~32 slices so the
    // AIO-return variant has polling points.
    let slices = 32u64;
    let slice_iters = calibrate_compute(pure_io / slices as f64);
    let pure_cpu = crate::min_of_runs(|| {
        let t = Instant::now();
        for _ in 0..slices {
            compute_slice(slice_iters);
        }
        t.elapsed().as_nanos() as f64
    });

    // --- one overlapped trial, time per operation.
    let overlapped = || match variant {
        OwcVariant::Ulp(_) => {
            // Two ULPs: one does the coupled I/O (its own KC blocks), the
            // other computes on the scheduler meanwhile. Completion is
            // timestamped inside each task so thread teardown/join costs do
            // not pollute the overlapped time.
            let go = Arc::new(AtomicBool::new(false));
            let ends: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));
            let (g2, e2) = (go.clone(), ends.clone());
            let io_task = rt.spawn("ovl-io", move || {
                decouple().unwrap();
                while !g2.load(Ordering::Acquire) {
                    yield_now();
                }
                let buf = Arc::new(vec![2u8; size]);
                // One couple()/decouple() pair around the whole series —
                // the paper's "enclose a series of system-calls" idiom
                // (§VII); the original KC executes all OPS operations while
                // the compute ULP keeps the scheduler busy.
                coupled_scope(|| {
                    for _ in 0..OPS {
                        owc_once(OwcVariant::Plain, &buf);
                    }
                })
                .unwrap();
                e2.lock().push(Instant::now());
                0
            });
            let (g3, e3) = (go.clone(), ends.clone());
            let cpu_task = rt.spawn("ovl-cpu", move || {
                decouple().unwrap();
                while !g3.load(Ordering::Acquire) {
                    yield_now();
                }
                for _ in 0..(OPS as u64 * slices) {
                    compute_slice(slice_iters);
                }
                e3.lock().push(Instant::now());
                0
            });
            let t = Instant::now();
            go.store(true, Ordering::Release);
            io_task.wait();
            cpu_task.wait();
            let last_end = ends.lock().iter().max().copied().expect("both tasks ended");
            last_end.duration_since(t).as_nanos() as f64 / OPS as f64
        }
        // One BLT: plain has no asynchronous mechanism (I/O, then compute);
        // AIO computes while the helper thread writes, `aio_error`-polling
        // between slices, as a ULT would, if that is how it will complete.
        _ => in_blt(&rt, "ovl-seq", move || {
            let buf = Arc::new(vec![1u8; size]);
            let t = Instant::now();
            for _ in 0..OPS {
                owc_with(variant, &buf, |cb| {
                    for _ in 0..slices {
                        compute_slice(slice_iters);
                        if variant == OwcVariant::AioReturn {
                            let _ = cb.map(Aiocb::error);
                        }
                    }
                });
            }
            t.elapsed().as_nanos() as f64 / OPS as f64
        }),
    };
    imb_ratio(pure_io, pure_cpu, crate::min_of_runs(overlapped))
}

// ------------------------------------------------- beyond the paper's tables

/// The paper's Fig. 6 usage scenario end to end: the host's CPUs split into
/// a program group and a system-call group (eq. 1: NC = NCprog + NCsyscall);
/// NB = NCprog × (O + 1) worker BLTs (eq. 2) are created, decoupled, and
/// scheduled by NCprog pinned scheduler KCs while their original KCs —
/// parked on the syscall cores — execute the enclosed open-write-close
/// bursts. Returns the topology, the wall time per compute + system-call
/// cycle (µs) and the runtime's counters; panics unless every worker finishes
/// its cycles (exit status 0) with no consistency violation recorded.
pub fn fig6_scenario(oversubscription: usize) -> (Topology, f64, StatsSnapshot) {
    const OPS_PER_BLT: usize = 200;
    let host_cpus = crate::baselines::n_cpus();
    // Split the host: at least one program core, the rest for syscalls.
    let nc_prog = (host_cpus / 2).max(1);
    let topo = Topology {
        nc_prog,
        nc_syscall: (host_cpus - nc_prog).max(1),
        oversubscription,
    };
    let rt = Runtime::builder()
        .schedulers(topo.nc_prog)
        .idle_policy(IdlePolicy::Adaptive)
        .pin_schedulers(true)
        .syscall_cores((topo.nc_prog..topo.total_cores()).collect())
        .build();
    let t = Instant::now();
    let handles: Vec<_> = (0..topo.n_blts())
        .map(|i| {
            rt.spawn(&format!("worker-{i}"), move || {
                decouple().unwrap();
                for k in 0..OPS_PER_BLT {
                    // Compute phase on the program cores...
                    std::hint::black_box(compute_chunk(2_000));
                    // ...system-call burst on our own (syscall-core) KC.
                    coupled_scope(|| {
                        let flags = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
                        let fd = sys::open(&format!("/w{i}.dat"), flags).unwrap();
                        sys::write(fd, &(k as u64).to_le_bytes()).unwrap();
                        sys::close(fd).unwrap();
                    })
                    .unwrap();
                    if k % 8 == 0 {
                        yield_now();
                    }
                }
                0
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.wait(), 0, "a Fig. 6 worker failed");
    }
    let us_per_cycle = t.elapsed().as_secs_f64() * 1e6 / (topo.n_blts() * OPS_PER_BLT) as f64;
    assert!(rt.violations().is_empty(), "all syscalls were enclosed");
    (topo, us_per_cycle, rt.stats().snapshot())
}

/// Wall time (µs) of a compute-carrying ring exchange among `ranks`
/// over-subscribed MPI ranks on one scheduler and a 2 µs network — ranks as
/// decoupled ULPs, or as one coupled KLT each. Quantifies the §III
/// motivation the paper leaves qualitative: "context switching overhead can
/// be problematic when using oversubscribed KLTs or processes".
pub fn oversub_ring_us(ranks: usize, decoupled: bool) -> f64 {
    const STEPS: usize = 40;
    let builder = ulp_mpi::UlpWorld::builder()
        .ranks(ranks)
        .schedulers(1)
        .net(ulp_mpi::NetModel::CLUSTER);
    let world = if decoupled {
        builder.build()
    } else {
        builder.coupled_ranks().build()
    };
    let t = Instant::now();
    let codes = world.run("ring", |ctx| {
        let (n, me) = (ctx.size(), ctx.rank());
        for step in 0..STEPS {
            ctx.send((me + 1) % n, step as i32, &[me as u8]);
            // A small compute slice per step, as a real stencil would have.
            std::hint::black_box(compute_chunk(5_000));
            let prev = (me + n - 1) % n;
            let got = ctx.recv(prev as i32, step as i32);
            debug_assert_eq!(got.data[0] as usize, prev);
        }
        let s = ctx.allreduce(ulp_mpi::ReduceOp::Sum, &[1.0]);
        (s[0] as usize == n) as i32 - 1
    });
    assert!(codes.iter().all(|&c| c == 0), "ring failed");
    t.elapsed().as_micros() as f64
}

// ---------------------------------------------------------------- wake edges

/// Run `pairs` socket ping-pong ULP pairs for `rounds` round trips each
/// with tracing on, and fold the wake-to-run distribution across every
/// site. Each pong side sits in blocking reads, so every round trip blocks
/// two reads that a peer write then ends — a run that records no
/// `sock_read` wake edges means the attribution layer fell off, however
/// fast it ran. This is what the perf-smoke structural gate reads.
pub fn wake_to_run_snapshot(pairs: usize, rounds: usize) -> ulp_core::WakeSnapshot {
    let rt = Runtime::builder()
        .schedulers(2)
        .idle_policy(IdlePolicy::Blocking)
        .build();
    rt.trace_enable();
    let mut handles = Vec::new();
    for p in 0..pairs {
        let listener = Arc::new(ulp_core::Listener::new());
        let l2 = listener.clone();
        handles.push(rt.spawn(&format!("wake-pong{p}"), move || {
            decouple().unwrap();
            coupled_scope(|| {
                let lfd = sys::listen(&l2).unwrap();
                let conn = sys::accept(lfd).unwrap();
                let mut buf = [0u8; 1];
                for _ in 0..rounds {
                    assert_eq!(sys::read(conn, &mut buf).unwrap(), 1);
                    assert_eq!(sys::write(conn, &buf).unwrap(), 1);
                }
                sys::close(conn).unwrap();
                sys::close(lfd).unwrap();
            })
            .unwrap();
            0
        }));
        handles.push(rt.spawn(&format!("wake-ping{p}"), move || {
            decouple().unwrap();
            coupled_scope(|| {
                let fd = sys::connect(&listener).unwrap();
                let mut buf = [0u8; 1];
                for _ in 0..rounds {
                    assert_eq!(sys::write(fd, b"x").unwrap(), 1);
                    assert_eq!(sys::read(fd, &mut buf).unwrap(), 1);
                }
                sys::close(fd).unwrap();
            })
            .unwrap();
            0
        }));
    }
    for h in handles {
        assert_eq!(h.wait(), 0);
    }
    rt.latency_snapshot().wake
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_switch_is_fast() {
        let ns = ctx_switch_ns(10_000);
        // Tens of ns expected; allow generous CI headroom.
        assert!(ns > 0.0 && ns < 5_000.0, "ctx switch {ns} ns");
    }

    #[test]
    fn tls_profiles_order() {
        let native = tls_load_ns(ArchProfile::Native, 2_000);
        let wallaby = tls_load_ns(ArchProfile::Wallaby, 2_000);
        assert!(
            wallaby > native,
            "wallaby ({wallaby}) must exceed native ({native})"
        );
    }

    #[test]
    fn calibration_roughly_hits_target() {
        let iters = calibrate_compute(200_000.0); // 200 µs
        let t = Instant::now();
        std::hint::black_box(compute_chunk(iters));
        let e = t.elapsed().as_nanos() as f64;
        assert!(e > 20_000.0 && e < 2_000_000.0, "calibrated chunk {e} ns");
    }

    #[test]
    fn imb_formula() {
        // Perfect overlap: t_ovl == max(io, cpu) -> 100%.
        assert_eq!(imb_ratio(100.0, 100.0, 100.0), 100.0);
        // No overlap: t_ovl == io + cpu -> 0%.
        assert_eq!(imb_ratio(100.0, 100.0, 200.0), 0.0);
        // Halfway.
        let r = imb_ratio(100.0, 100.0, 150.0);
        assert!((r - 50.0).abs() < 1e-9);
        // Clamped.
        assert_eq!(imb_ratio(100.0, 100.0, 500.0), 0.0);
        assert_eq!(imb_ratio(100.0, 100.0, 50.0), 100.0);
    }

    #[test]
    fn owc_plain_scales_with_size() {
        let small = owc_ns(
            OwcVariant::Plain,
            256,
            ArchProfile::Native,
            IoModel::MEMORY_BANDWIDTH,
            50,
        );
        let large = owc_ns(
            OwcVariant::Plain,
            1 << 20,
            ArchProfile::Native,
            IoModel::MEMORY_BANDWIDTH,
            20,
        );
        assert!(
            large > small * 5.0,
            "1MiB ({large}) should dwarf 256B ({small})"
        );
    }

    #[test]
    fn contended_lock_measures() {
        let (ns, completed) = contended_lock::<ulp_core::TasLock>(1, 2, 200);
        assert!(ns.is_finite() && ns > 0.0, "tas contended ns {ns}");
        assert_eq!(completed, 1.0);
    }
}
