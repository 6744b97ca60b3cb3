//! Workload implementations behind every table and figure.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ulp_core::{
    couple, coupled_scope, decouple, pending_couplers, sys, yield_now, IdlePolicy, RawUlpLock,
    Runtime, SchedPolicy, UlpLock,
};
use ulp_fcontext::Fiber;
use ulp_kernel::{ArchProfile, IoModel, OpenFlags};

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

/// Two decoupled ULPs yielding to each other on one scheduler, ns per
/// yield (Table IV row 1). The returned value is already min-of-runs.
pub fn ulp_yield_ns(policy: IdlePolicy, profile: ArchProfile, iters: usize) -> f64 {
    ulp_yield_ns_sched(policy, SchedPolicy::GlobalFifo, profile, iters)
}

/// [`ulp_yield_ns`] with an explicit scheduling discipline (the BENCH_1
/// hot-path metric is reported under both).
pub fn ulp_yield_ns_sched(
    policy: IdlePolicy,
    sched: SchedPolicy,
    profile: ArchProfile,
    iters: usize,
) -> f64 {
    let rt = Runtime::builder()
        .schedulers(1)
        .idle_policy(policy)
        .sched_policy(sched)
        .profile(profile)
        .build();
    let result = Arc::new(Mutex::new(f64::INFINITY));
    let peer_up = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));

    // The partner yields forever until told to stop.
    let p2 = peer_up.clone();
    let s2 = stop.clone();
    let partner = rt.spawn("yield-peer", move || {
        decouple().unwrap();
        p2.store(true, Ordering::Release);
        while !s2.load(Ordering::Acquire) {
            yield_now();
        }
        0
    });

    let r2 = result.clone();
    let p3 = peer_up.clone();
    let s3 = stop.clone();
    let measurer = rt.spawn("yield-meas", move || {
        decouple().unwrap();
        while !p3.load(Ordering::Acquire) {
            yield_now();
        }
        let mut best = f64::INFINITY;
        for _ in 0..crate::RUNS {
            for _ in 0..(iters / 10 + 1) {
                yield_now();
            }
            let t = Instant::now();
            for _ in 0..iters {
                yield_now();
            }
            // One measured iteration is a round trip = two yields.
            best = best.min(t.elapsed().as_nanos() as f64 / (2 * iters) as f64);
        }
        *r2.lock() = best;
        s3.store(true, Ordering::Release);
        0
    });

    measurer.wait();
    partner.wait();
    let best = *result.lock();
    drop(rt);
    best
}

// ---------------------------------------------------------------- Table V

/// Plain `getpid` on a coupled BLT (the "Linux" row analogue against the
/// simulated kernel), ns.
pub fn getpid_plain_ns(profile: ArchProfile, iters: usize) -> f64 {
    let rt = Runtime::builder().schedulers(1).profile(profile).build();
    let result = Arc::new(Mutex::new(f64::INFINITY));
    let r2 = result.clone();
    rt.spawn("getpid-plain", move || {
        *r2.lock() = crate::measure_min(iters, || {
            sys::getpid().unwrap();
        });
        0
    })
    .wait();
    let v = *result.lock();
    v
}

/// `getpid` enclosed in `couple()`/`decouple()` from a decoupled ULP
/// (Table V's ULP-PiP rows), ns per enclosed call.
pub fn getpid_coupled_ns(policy: IdlePolicy, profile: ArchProfile, iters: usize) -> f64 {
    let rt = Runtime::builder()
        .schedulers(1)
        .idle_policy(policy)
        .profile(profile)
        .build();
    let result = Arc::new(Mutex::new(f64::INFINITY));
    let r2 = result.clone();
    rt.spawn("getpid-ulp", move || {
        decouple().unwrap();
        *r2.lock() = crate::measure_min(iters, || {
            coupled_scope(|| {
                sys::getpid().unwrap();
            })
            .unwrap();
        });
        0
    })
    .wait();
    let v = *result.lock();
    v
}

/// A bare couple()+decouple() round trip (no enclosed system call) from a
/// decoupled ULP — the cost of the Table-I transition protocol itself, ns.
pub fn couple_rtt_ns(policy: IdlePolicy, profile: ArchProfile, iters: usize) -> f64 {
    let rt = Runtime::builder()
        .schedulers(1)
        .idle_policy(policy)
        .profile(profile)
        .build();
    let result = Arc::new(Mutex::new(f64::INFINITY));
    let r2 = result.clone();
    rt.spawn("couple-rtt", move || {
        decouple().unwrap();
        *r2.lock() = crate::measure_min(iters, || {
            coupled_scope(|| ()).unwrap();
        });
        0
    })
    .wait();
    let v = *result.lock();
    v
}

// --------------------------------------------------- direct-handoff coupling

/// Result of the direct-handoff ping-pong measurement.
#[derive(Debug, Clone, Copy)]
pub struct HandoffRtt {
    /// ns per couple()+decouple() round trip on the fast path.
    pub rtt_ns: f64,
    /// Fraction of decouples that hit the handoff fast path, in [0, 1],
    /// from the runtime's own `couple_handoffs` / `decouples` counters.
    pub hit_rate: f64,
    /// Context switches per couple()+decouple() round trip, from
    /// `context_switches / couples`: 3 on the fast path (the couple, the
    /// peer's handoff decouple, one run-queue dispatch), 4 through the
    /// trampoline.
    pub switches_per_rtt: f64,
    /// Futex blocks of the original KC per round trip (`kc_blocks /
    /// couples`): 0 on the fast path, which never runs the trampoline.
    pub kc_blocks_per_rtt: f64,
}

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

/// The couple/decouple round trip on the **direct-handoff fast path**: a
/// primary and a sibling sharing one original KC ping-pong couples, so
/// every decouple finds the peer's request already parked in `pending` and
/// switches straight into it — 2 switches per round trip instead of the
/// slow path's 4, the trampoline never runs, and no futex syscall fires.
///
/// The wait-before-decouple discipline from the hot-path tests keeps the
/// orbit deterministic: each side transitions only once the peer's request
/// is parked. One ping-pong round retires one couple()+decouple() pair *per
/// UC*, so the reported RTT is the round wall time halved (min-of-runs
/// protocol, like every other mean in the suite).
pub fn couple_handoff_rtt(policy: IdlePolicy, profile: ArchProfile, iters: usize) -> HandoffRtt {
    let rt = Runtime::builder()
        .schedulers(1)
        .idle_policy(policy)
        .profile(profile)
        .build();
    let warm = iters / 10 + 1;
    let rounds = crate::RUNS * (warm + iters);
    let before = rt.stats().snapshot();
    let result = Arc::new(Mutex::new(f64::INFINITY));
    let r2 = result.clone();
    let h = rt.spawn("handoff-rtt-a", move || {
        // The sibling's first parked request anchors the orbit; from here
        // on every decouple — warm-up and measured — hands off.
        wait_for_pending_coupler();
        let mut best = f64::INFINITY;
        for _ in 0..crate::RUNS {
            for _ in 0..warm {
                decouple().unwrap();
                couple().unwrap();
                wait_for_pending_coupler();
            }
            let t = Instant::now();
            for _ in 0..iters {
                decouple().unwrap();
                couple().unwrap();
                wait_for_pending_coupler();
            }
            // Each round retires two full RTTs (one per UC).
            best = best.min(t.elapsed().as_nanos() as f64 / (2 * iters) as f64);
        }
        *r2.lock() = best;
        // Release the peer, whose last couple request is still parked.
        decouple().unwrap();
        0
    });
    let sib = h
        .spawn_sibling("handoff-rtt-b", move || {
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
    let hit_rate = if d.decouples > 0 {
        d.couple_handoffs as f64 / d.decouples as f64
    } else {
        0.0
    };
    let per_rtt = |n: u64| n as f64 / d.couples.max(1) as f64;
    let rtt_ns = *result.lock();
    drop(rt);
    HandoffRtt {
        rtt_ns,
        hit_rate,
        switches_per_rtt: per_rtt(d.context_switches),
        kc_blocks_per_rtt: per_rtt(d.kc_blocks),
    }
}

// ---------------------------------------------------------------- lock suite

/// Throughput of one shared `R` lock under contention: `n_ulps` decoupled
/// ULPs over `n_scheds` scheduler KCs, each performing `iters_each`
/// lock/increment/unlock operations on a single [`UlpLock<u64, R>`].
/// Returns ns per acquire (wall time over total acquisitions). Run with
/// `n_ulps <= n_scheds` for the undersubscribed regime and
/// `n_ulps > n_scheds` for oversubscription, where a spinning waiter can
/// occupy the scheduler the holder needs — the regime the cooperative
/// `stall()` paths in the suite exist for.
pub fn contended_lock_ns<R: RawUlpLock + 'static>(
    n_scheds: usize,
    n_ulps: usize,
    iters_each: usize,
) -> f64 {
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
    let total_ops = (n_ulps * iters_each) as u64;
    assert_eq!(*lock.lock(), total_ops, "lock {} lost updates", R::NAME);
    drop(rt);
    total_ns / total_ops as f64
}

// ------------------------------------------------------- latency percentiles

/// Distribution of the yield-to-yield interval on a scheduler KC, from the
/// runtime's own latency histograms (ISSUE 2): the same two-ULP ping-pong
/// as [`ulp_yield_ns_sched`], but run with tracing enabled so every switch
/// lands a histogram sample, then folded into percentiles. Runs in a
/// *separate* runtime from the mean measurements so the ring writes never
/// pollute the min-of-runs numbers.
pub fn yield_interval_summary(
    policy: IdlePolicy,
    sched: SchedPolicy,
    iters: usize,
) -> ulp_core::HistSummary {
    let rt = Runtime::builder()
        .schedulers(1)
        .idle_policy(policy)
        .sched_policy(sched)
        .build();
    rt.trace_enable();
    let stop = Arc::new(AtomicBool::new(false));
    let s2 = stop.clone();
    let partner = rt.spawn("yield-hist-peer", move || {
        decouple().unwrap();
        while !s2.load(Ordering::Acquire) {
            yield_now();
        }
        0
    });
    let s3 = stop.clone();
    let driver = rt.spawn("yield-hist-meas", move || {
        decouple().unwrap();
        // Count only yields that switched: until the peer has decoupled the
        // run queue is empty, `yield_now()` returns `false` without
        // switching, and no interval is recorded — a fixed number of calls
        // can all land in that window and leave the histogram empty.
        let mut switched = 0;
        while switched < iters {
            if yield_now() {
                switched += 1;
            } else {
                std::thread::yield_now();
            }
        }
        s3.store(true, Ordering::Release);
        0
    });
    driver.wait();
    partner.wait();
    rt.trace_disable();
    rt.latency_snapshot().yield_interval.summary()
}

/// Distributions of the couple-path spans (ISSUE 2): repeated bare
/// couple()+decouple() round trips with tracing on, folded into
/// (couple-request→resume, enqueue→dispatch) percentile summaries.
pub fn couple_latency_summaries(
    policy: IdlePolicy,
    iters: usize,
) -> (ulp_core::HistSummary, ulp_core::HistSummary) {
    let rt = Runtime::builder().schedulers(1).idle_policy(policy).build();
    rt.trace_enable();
    rt.spawn("couple-hist", move || {
        decouple().unwrap();
        for _ in 0..iters {
            coupled_scope(|| ()).unwrap();
        }
        0
    })
    .wait();
    rt.trace_disable();
    let lat = rt.latency_snapshot();
    (lat.couple_resume.summary(), lat.queue_delay.summary())
}

/// Distribution of the kernel-side `getpid` enter→exit span: a coupled
/// getpid loop with tracing on, folded from the runtime's per-syscall
/// latency histograms — the same numbers the live metrics endpoint
/// exports as `ulp_syscall_latency_ns{call="getpid"}`. A coupled getpid
/// is the cheapest dispatch the simulated kernel has, so this row is the
/// floor of the syscall-span instrumentation overhead.
pub fn syscall_getpid_summary(iters: usize) -> ulp_core::HistSummary {
    let rt = Runtime::builder().schedulers(1).build();
    rt.trace_enable();
    rt.spawn("getpid-hist", move || {
        for _ in 0..iters {
            sys::getpid().unwrap();
        }
        0
    })
    .wait();
    rt.trace_disable();
    rt.syscall_snapshot()
        .get("getpid")
        .map(|d| d.summary())
        .unwrap_or_default()
}

/// Aggregate context-switch throughput under over-subscription: `n_blts`
/// yield-looping ULPs over `n_sched` scheduler KCs (switches per second).
pub fn oversub_switches_per_sec(
    n_sched: usize,
    sched: SchedPolicy,
    n_blts: usize,
    yields_each: usize,
) -> f64 {
    let rt = Runtime::builder()
        .schedulers(n_sched)
        .idle_policy(IdlePolicy::Blocking)
        .sched_policy(sched)
        .build();
    let go = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..n_blts)
        .map(|i| {
            let g = go.clone();
            rt.spawn(&format!("oversub{i}"), move || {
                decouple().unwrap();
                while !g.load(Ordering::Acquire) {
                    yield_now();
                }
                for _ in 0..yields_each {
                    yield_now();
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
    let secs = t.elapsed().as_secs_f64();
    (n_blts * yields_each) as f64 / secs
}

// ------------------------------------------------ syscall-path scaling gate

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
    let start = std::sync::Barrier::new(threads + 1);
    let (calls, secs) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (k, start) = (&k, &start);
                s.spawn(move || {
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
            })
            .collect();
        start.wait();
        let t = Instant::now();
        let calls: u64 = workers
            .into_iter()
            .map(|w| w.join().expect("syscall_mix thread"))
            .sum();
        (calls, t.elapsed().as_secs_f64())
    });
    calls as f64 / secs
}

// ------------------------------------------------- Pooled-ULP scale rows

/// Current `VmRSS` of this process in MiB, from `/proc/self/status` (0.0
/// when the host exposes no procfs — the rows then read as unmeasured).
pub fn self_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            if let Some(kib) = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
            {
                return kib / 1024.0;
            }
        }
    }
    0.0
}

/// One high-cardinality pooled-churn measurement: `n` pooled ULPs spawned,
/// run and reaped in `wave`-sized waves over `pool_kcs` pool kernel
/// contexts. The interesting numbers are the full-lifecycle throughput
/// (spawn → dispatch → couple → terminate → reap) and the peak resident
/// set — the stack free-list recycles slab slots warm and its scavenger
/// trims the ones that stay free, so RSS must track the wave size, not `n`.
#[derive(Debug, Clone, Copy)]
pub struct PooledChurn {
    /// ULPs churned through the runtime.
    pub ulps: usize,
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
        ulps: n,
        spawn_per_sec: n as f64 / secs,
        peak_rss_mib: peak_rss,
        stack_peak: rt.stack_pool().peak_outstanding(),
        stack_recycled: rt.stack_pool().stats().0,
        stack_trimmed: rt.stack_pool().recycled(),
        stack_warm: rt.stack_pool().warm(),
    }
}

/// Steady-state scheduling throughput with a high-cardinality runnable
/// set: every ULP live and yielding at once, so the run queues (not the
/// slot-handoff fast path) carry the load.
#[derive(Debug, Clone, Copy)]
pub struct PooledStorm {
    /// Simultaneously-runnable pooled ULPs.
    pub ulps: usize,
    /// Aggregate scheduler switches (yields + dispatches) per second.
    pub switches_per_sec: f64,
    /// Peak `VmRSS` sampled across the run, MiB.
    pub peak_rss_mib: f64,
}

/// `n` pooled ULPs all alive at once, each yielding `yields_each` times;
/// throughput is the runtime's own switch-counter delta over the wall
/// clock from first spawn to last reap (every counted switch actually
/// happened — ULPs also yield while the spawn loop is still filling the
/// queues, and those switches are part of the measured work).
pub fn pooled_yield_storm(n: usize, yields_each: usize, pool_kcs: usize) -> PooledStorm {
    let rt = Runtime::builder()
        .schedulers(2)
        .pool_kcs(pool_kcs)
        .idle_policy(IdlePolicy::Blocking)
        .build();
    let before = rt.stats().snapshot();
    let t0 = Instant::now();
    let handles: Vec<_> = (0..n)
        .map(|_| {
            rt.spawn_pooled("storm", move || {
                for _ in 0..yields_each {
                    yield_now();
                }
                0
            })
            .expect("pooled spawn")
        })
        .collect();
    let mid_rss = self_rss_mib();
    for h in &handles {
        h.wait();
    }
    let secs = t0.elapsed().as_secs_f64();
    let after = rt.stats().snapshot();
    let switches =
        (after.yields + after.scheduler_dispatches) - (before.yields + before.scheduler_dispatches);
    PooledStorm {
        ulps: n,
        switches_per_sec: switches as f64 / secs,
        peak_rss_mib: mid_rss.max(self_rss_mib()),
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

/// One open-write-close operation under `variant`. Assumes the caller runs
/// inside a BLT (decoupled for the ULP variants).
fn owc_once(variant: OwcVariant, buf: &Arc<Vec<u8>>) {
    let flags = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
    match variant {
        OwcVariant::Plain => {
            let fd = sys::open("/bench.dat", flags).unwrap();
            sys::write(fd, buf).unwrap();
            sys::close(fd).unwrap();
        }
        OwcVariant::Ulp(_) => {
            // "the whole sequence must be done by a KLT otherwise the
            // system-call consistency is broken" (§VI-D).
            coupled_scope(|| {
                let fd = sys::open("/bench.dat", flags).unwrap();
                sys::write(fd, buf).unwrap();
                sys::close(fd).unwrap();
            })
            .unwrap();
        }
        OwcVariant::AioReturn => {
            let fd = sys::open("/bench.dat", flags).unwrap();
            let cb = sys::aio_write(fd, 0, buf.clone()).unwrap();
            // The ULT-style completion loop: yield + poll aio_error.
            while cb.error() == Some(ulp_kernel::Errno::EINPROGRESS) {
                if !yield_now() {
                    std::hint::spin_loop();
                }
            }
            cb.aio_return().unwrap();
            sys::close(fd).unwrap();
        }
        OwcVariant::AioSuspend => {
            let fd = sys::open("/bench.dat", flags).unwrap();
            let cb = sys::aio_write(fd, 0, buf.clone()).unwrap();
            cb.suspend();
            cb.aio_return().unwrap();
            sys::close(fd).unwrap();
        }
    }
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
    let result = Arc::new(Mutex::new(f64::INFINITY));
    let r2 = result.clone();
    rt.spawn("owc", move || {
        if matches!(variant, OwcVariant::Ulp(_)) {
            decouple().unwrap();
        }
        let buf = Arc::new(vec![0xA5u8; size]);
        *r2.lock() = crate::measure_min(iters, || owc_once(variant, &buf));
        0
    })
    .wait();
    let v = *result.lock();
    v
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

/// Result of one overlap measurement (Fig. 8, IMB method).
#[derive(Debug, Clone, Copy)]
pub struct OverlapResult {
    /// Wall time of the I/O phase alone.
    pub pure_io_ns: f64,
    /// Wall time of the compute phase alone.
    pub pure_cpu_ns: f64,
    /// Wall time with both phases overlapped.
    pub overlapped_ns: f64,
    /// Percentage in [0, 100].
    pub ratio: f64,
}

fn imb_ratio(pure_io: f64, pure_cpu: f64, ovl: f64) -> f64 {
    let denom = pure_io.min(pure_cpu);
    if denom <= 0.0 {
        return 0.0;
    }
    (100.0 * (pure_io + pure_cpu - ovl) / denom).clamp(0.0, 100.0)
}

/// Measure the compute/I-O overlap ratio of `variant` for `size`-byte
/// writes, "calculated in the way used in the Intel MPI benchmarks" (§VI-D):
/// `overlap = (t_io + t_cpu − t_ovl) / min(t_io, t_cpu)`, with the compute
/// workload calibrated to the pure-I/O time.
pub fn overlap(
    variant: OwcVariant,
    size: usize,
    profile: ArchProfile,
    io: IoModel,
) -> OverlapResult {
    const OPS: usize = 8;
    let rt = owc_runtime(variant, profile, io);

    // --- pure I/O: OPS back-to-back operations on a coupled BLT.
    let pure_io_cell = Arc::new(Mutex::new(f64::INFINITY));
    let c2 = pure_io_cell.clone();
    rt.spawn("pure-io", move || {
        let buf = Arc::new(vec![0x5Au8; size]);
        let mut best = f64::INFINITY;
        for _ in 0..crate::RUNS {
            owc_once(OwcVariant::Plain, &buf); // warm-up
            let t = Instant::now();
            for _ in 0..OPS {
                owc_once(OwcVariant::Plain, &buf);
            }
            best = best.min(t.elapsed().as_nanos() as f64 / OPS as f64);
        }
        *c2.lock() = best;
        0
    })
    .wait();
    let pure_io = *pure_io_cell.lock();

    // --- compute calibrated to the pure-I/O time, in ~32 slices so the
    // AIO-return variant has polling points.
    let slices = 32u64;
    let slice_iters = calibrate_compute(pure_io / slices as f64);
    let mut pure_cpu = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..slices {
            compute_slice(slice_iters);
        }
        pure_cpu = pure_cpu.min(t.elapsed().as_nanos() as f64);
    }

    // --- overlapped run (minimum of three trials, like everything else).
    let one_overlapped_trial = |variant: OwcVariant| -> f64 {
        match variant {
            OwcVariant::Plain => {
                // No async mechanism: sequential I/O then compute.
                let cell = Arc::new(Mutex::new(0f64));
                let c2 = cell.clone();
                rt.spawn("ovl-plain", move || {
                    let buf = Arc::new(vec![1u8; size]);
                    let t = Instant::now();
                    for _ in 0..OPS {
                        owc_once(OwcVariant::Plain, &buf);
                        for _ in 0..slices {
                            compute_slice(slice_iters);
                        }
                    }
                    *c2.lock() = t.elapsed().as_nanos() as f64 / OPS as f64;
                    0
                })
                .wait();
                let v = *cell.lock();
                v
            }
            OwcVariant::Ulp(_) => {
                // Two ULPs: one does the coupled I/O (its own KC blocks), the
                // other computes on the scheduler meanwhile. Completion is
                // timestamped inside each task so thread teardown/join costs do
                // not pollute the overlapped time (the AIO arm also measures
                // inside its task).
                let go = Arc::new(AtomicBool::new(false));
                let ends: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));
                let g2 = go.clone();
                let e2 = ends.clone();
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
                        let flags = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
                        for _ in 0..OPS {
                            let fd = sys::open("/bench.dat", flags).unwrap();
                            sys::write(fd, &buf).unwrap();
                            sys::close(fd).unwrap();
                        }
                    })
                    .unwrap();
                    e2.lock().push(Instant::now());
                    0
                });
                let g3 = go.clone();
                let e3 = ends.clone();
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
                let last_end = ends
                    .lock()
                    .iter()
                    .max()
                    .copied()
                    .unwrap_or_else(Instant::now);
                last_end.duration_since(t).as_nanos() as f64 / OPS as f64
            }
            OwcVariant::AioReturn | OwcVariant::AioSuspend => {
                let cell = Arc::new(Mutex::new(0f64));
                let c2 = cell.clone();
                rt.spawn("ovl-aio", move || {
                    let buf = Arc::new(vec![3u8; size]);
                    let flags = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
                    let t = Instant::now();
                    for _ in 0..OPS {
                        let fd = sys::open("/bench.dat", flags).unwrap();
                        let cb = sys::aio_write(fd, 0, buf.clone()).unwrap();
                        // Compute while the helper writes.
                        for _ in 0..slices {
                            compute_slice(slice_iters);
                            if variant == OwcVariant::AioReturn {
                                // Poll between slices, as a ULT would.
                                let _ = cb.error();
                            }
                        }
                        match variant {
                            OwcVariant::AioReturn => {
                                while cb.error() == Some(ulp_kernel::Errno::EINPROGRESS) {
                                    std::hint::spin_loop();
                                }
                            }
                            _ => cb.suspend(),
                        }
                        cb.aio_return().unwrap();
                        sys::close(fd).unwrap();
                    }
                    *c2.lock() = t.elapsed().as_nanos() as f64 / OPS as f64;
                    0
                })
                .wait();
                let v = *cell.lock();
                v
            }
        }
    };
    let mut ovl = f64::INFINITY;
    for _ in 0..3 {
        ovl = ovl.min(one_overlapped_trial(variant));
    }

    OverlapResult {
        pure_io_ns: pure_io,
        pure_cpu_ns: pure_cpu,
        overlapped_ns: ovl,
        ratio: imb_ratio(pure_io, pure_cpu, ovl),
    }
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
}
