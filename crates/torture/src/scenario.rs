//! Torture workloads.
//!
//! Each scenario is a small program built from the primitives the paper's
//! protocol must keep consistent — couple/decouple round trips, blocking
//! pipes, M:N siblings, signals — written to *verify its own results*
//! (pids match, bytes round-trip, checksums hold) and report mismatches as
//! soft failures instead of panicking. Soft failures merge into the same
//! violation list as the trace oracle's findings, so a planted consistency
//! bug surfaces as a failed run either way.
//!
//! Workload sizes are deliberately small: every scenario must fit its
//! trace into its per-KC rings ([`Scenario::trace_capacity`], default
//! 4096 records, more for the scenarios whose waiting loops make a
//! schedule-dependent number of events), because a dropped record is
//! itself an oracle failure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use ulp_core::{
    coupled_scope, decouple, sys, yield_now, FutexLock, McsLock, RawUlpLock, Runtime, TasLock,
    TicketLock, UlpLock,
};
use ulp_core::{EpollOp, Listener, PollEvents};
use ulp_kernel::{Errno, Fd, FileLike, OpenFlags, Signal};

/// A torture workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// One worker ping-ponging between coupled system-call bursts and
    /// decoupled scheduling on a single scheduler. The *designated replay
    /// cell*: its trace digest is deterministic for a fixed seed, so it
    /// anchors the harness's replay check.
    Chain,
    /// Two workers exchanging tokens over crossed blocking pipes — every
    /// round trip blocks a kernel context both ways.
    PingPong,
    /// Two primaries each carrying three sibling UCs (§VII M:N): yield
    /// storms on the shared original KCs, with coupled pid checks.
    MnSiblings,
    /// Four writer/reader pairs pushing checksummed bulk data through
    /// tiny-capacity pipes: constant blocking, short reads and `EINTR`
    /// retries on both sides.
    PipeBlockers,
    /// Three workers handling a storm of `SIGUSR1` from the root while
    /// they couple and decouple.
    SignalStorm,
    /// Four decoupled ULPs over two scheduler KCs hammering every lock
    /// policy in the suite ([`ulp_core::RawUlpLock`]) in turn:
    /// oversubscribed mutual exclusion, where a waiter that fails to
    /// yield cooperatively starves the holder of a scheduler.
    LockStorm,
    /// Three workers concurrently introspecting the runtime through the
    /// procfs mount — `/proc/self/stat`, `/proc/ulp/stat`, the metrics
    /// exposition — with `EINTR` and short reads injected on every read,
    /// verifying identity, file shape and counter monotonicity hold.
    ProcStorm,
    /// One epoll-driven echo server and two clients over the in-kernel
    /// loopback sockets: `listen`/`connect`/`accept`, level-triggered
    /// `epoll_wait` and the blocking socket paths all under fault
    /// injection, with byte-exact echo verification and request/response
    /// conservation checks.
    ServerStorm,
    /// High-cardinality pooled spawn/exit churn: waves of short-lived
    /// pooled ULPs oversubscribing two pool KCs, each verifying its own
    /// kernel identity through a coupled `getpid`. Exercises the stack
    /// free-list (reuse across waves, full drain at the end) and the
    /// deferred terminate-on-pool-KC path under chaos yields and fault
    /// injection. `ULP_C1M_N` scales the ULP count beyond the in-matrix
    /// default.
    C1mStorm,
    /// One worker whose decoupled stretches come straight back — so under
    /// `Adaptive` its `decouple()` stays home, on its own KC — with two `yield_now()`s mid-stream (at home: the kernel's
    /// yield on a young stretch, a `Requeue` past the break-even) and a
    /// sibling spawned late, onto a KC whose primary may be at home. Fails
    /// under `Adaptive` if no decouple ever stayed, and under the paper's two
    /// policies if a decouple or a yield did.
    HomeStay,
}

impl Scenario {
    /// Every scenario, in matrix order.
    pub const ALL: &'static [Scenario] = &[
        Scenario::Chain,
        Scenario::PingPong,
        Scenario::MnSiblings,
        Scenario::PipeBlockers,
        Scenario::SignalStorm,
        Scenario::LockStorm,
        Scenario::ProcStorm,
        Scenario::ServerStorm,
        Scenario::C1mStorm,
        Scenario::HomeStay,
    ];

    /// Stable name (used in reports and for `--scenario` selection).
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Chain => "chain",
            Scenario::PingPong => "pingpong",
            Scenario::MnSiblings => "mn_siblings",
            Scenario::PipeBlockers => "pipe_blockers",
            Scenario::SignalStorm => "signal_storm",
            Scenario::LockStorm => "lock_storm",
            Scenario::ProcStorm => "proc_storm",
            Scenario::ServerStorm => "server_storm",
            Scenario::C1mStorm => "c1m_storm",
            Scenario::HomeStay => "home_stay",
        }
    }

    /// Look a scenario up by [`Scenario::name`].
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// How many scheduler KCs the scenario wants.
    pub fn schedulers(&self) -> usize {
        match self {
            Scenario::Chain => 1,
            Scenario::PingPong => 2,
            Scenario::MnSiblings => 2,
            Scenario::PipeBlockers => 2,
            Scenario::SignalStorm => 1,
            Scenario::LockStorm => 2,
            Scenario::ProcStorm => 2,
            Scenario::ServerStorm => 2,
            Scenario::C1mStorm => 2,
            Scenario::HomeStay => 1,
        }
    }

    /// Per-KC trace-ring capacity the scenario needs for a lossless
    /// history (oracle invariant A), sized from the scenario's own worst
    /// case with headroom. The ring is harness configuration: a run that
    /// overflows it is void (family A) whatever the system did.
    ///
    /// - `c1m_storm` scales with the ULP count it was asked for, since
    ///   every pooled ULP contributes a fixed handful of events plus chaos
    ///   yields.
    /// - `mn_siblings` and `lock_storm` wait by looping — the primaries
    ///   until their siblings finish, the lock policies' waiters until the
    ///   holder lets go — so their count is set by the schedule, not by
    ///   the workload. Under `Adaptive` a primary that stays home couples
    ///   and decouples at full speed while it waits: the fullest ring of
    ///   `mn_siblings` is ≈ 600 records in a typical run and was 14 844 in
    ///   the worst seen (one run in 40 overflows a 4096-record ring), and
    ///   `lock_storm`'s ≈ 120 typical, 4 940 worst. Their rings hold
    ///   about 4× and 6× that worst.
    /// - `signal_storm` runs a fixed 3 × 200 couple/yield rounds, but how
    ///   many of their records land on one KC's ring is the schedule's
    ///   doing: the fullest ring reads ≈ 3 300 records under `Blocking`,
    ///   and 3 438 in the worst of 1 200 runs (84 % of a 4096-record
    ///   ring). Its ring holds about 4.8× that worst.
    /// - Everything else fits the default 4096-record rings.
    ///
    /// A run reports its fullest ring against this capacity
    /// ([`crate::RunReport::ring_peak`]), so the margin stays visible.
    pub fn trace_capacity(&self) -> usize {
        match self {
            Scenario::C1mStorm => (c1m_count() * 32).clamp(4096, 1 << 20),
            Scenario::MnSiblings => 1 << 16,
            Scenario::LockStorm => 1 << 15,
            Scenario::SignalStorm => 1 << 14,
            _ => 4096,
        }
    }

    /// Run the workload to completion on `rt` (all BLTs joined on return)
    /// and report its soft failures.
    pub fn run(&self, rt: &Runtime) -> Vec<String> {
        let fails = Fails::default();
        match self {
            Scenario::Chain => chain(rt, &fails),
            Scenario::PingPong => pingpong(rt, &fails),
            Scenario::MnSiblings => mn_siblings(rt, &fails),
            Scenario::PipeBlockers => pipe_blockers(rt, &fails),
            Scenario::SignalStorm => signal_storm(rt, &fails),
            Scenario::LockStorm => lock_storm(rt, &fails),
            Scenario::ProcStorm => proc_storm(rt, &fails),
            Scenario::ServerStorm => server_storm(rt, &fails),
            Scenario::C1mStorm => c1m_storm(rt, &fails),
            Scenario::HomeStay => home_stay(rt, &fails),
        }
        fails.take()
    }
}

/// Shared soft-failure sink: scenarios *report* broken invariants instead
/// of panicking, so a planted bug flows into the oracle verdict (a panic
/// would take the harness down before the oracle ran).
#[derive(Clone, Default)]
struct Fails(Arc<Mutex<Vec<String>>>);

impl Fails {
    fn push(&self, msg: String) {
        self.0.lock().unwrap_or_else(|p| p.into_inner()).push(msg);
    }

    fn take(&self) -> Vec<String> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

/// Retry a system call through injected `EINTR`/`EAGAIN`, bounded so a
/// genuinely wedged call cannot hang the harness.
fn retrying<T>(mut f: impl FnMut() -> Result<T, Errno>) -> Result<T, Errno> {
    for _ in 0..10_000 {
        match f() {
            Err(Errno::EINTR) | Err(Errno::EAGAIN) => continue,
            other => return other,
        }
    }
    Err(Errno::EINTR)
}

/// The replay cell: one worker, one scheduler, a self-pipe. Each round is
/// one coupled burst — `getpid` plus a write-then-read round trip through
/// the worker's own FD table — between decoupled stretches. Every byte is
/// position-dependent, so a wrong FD table (the §V-B hazard) or a lost
/// write surfaces as a value mismatch.
fn chain(rt: &Runtime, fails: &Fails) {
    const ROUNDS: usize = 200;
    let f = fails.clone();
    let h = rt.spawn("chain-w", move || {
        let my_pid = sys::getpid();
        if decouple().is_err() {
            f.push("chain: decouple failed".into());
            return 1;
        }
        let fds = coupled_scope(sys::pipe);
        let (rfd, wfd) = match fds {
            Ok(Ok(p)) => p,
            other => {
                f.push(format!("chain: pipe setup failed: {other:?}"));
                return 1;
            }
        };
        for i in 0..ROUNDS {
            let f = &f;
            let round = coupled_scope(|| {
                if sys::getpid() != my_pid {
                    f.push(format!("chain: pid changed at round {i}"));
                }
                let byte = [i as u8];
                match retrying(|| sys::write(wfd, &byte)) {
                    Ok(1) => {}
                    other => f.push(format!("chain: write {i} -> {other:?}")),
                }
                let mut got = [0u8; 1];
                match retrying(|| sys::read(rfd, &mut got)) {
                    Ok(1) if got[0] == i as u8 => {}
                    other => f.push(format!("chain: read {i} -> {other:?} (byte {})", got[0])),
                }
            });
            if round.is_err() {
                f.push(format!("chain: coupled_scope failed at round {i}"));
            }
        }
        0
    });
    if h.wait() != 0 {
        fails.push("chain: worker exited nonzero".into());
    }
}

/// Two workers, two crossed kernel pipes. Each round, `pp-a` sends a token
/// and blocks reading the reply; `pp-b` does the mirror image. Raw pipe
/// ends (not FD-table entries: the two workers are different simulated
/// processes) — the blocking, fault-injected `read`/`write` paths are the
/// same ones the FD layer uses.
fn pingpong(rt: &Runtime, fails: &Fails) {
    const ROUNDS: usize = 64;
    let (a_rx, b_tx) = ulp_kernel::pipe_with_capacity(8);
    let (b_rx, a_tx) = ulp_kernel::pipe_with_capacity(8);

    let f = fails.clone();
    let a = rt.spawn("pp-a", move || {
        let my_pid = sys::getpid();
        let _ = decouple();
        for i in 0..ROUNDS {
            let f = &f;
            let ok = coupled_scope(|| {
                if sys::getpid() != my_pid {
                    f.push(format!("pp-a: pid changed at round {i}"));
                }
                if let Err(e) = retrying(|| a_tx.write(&[i as u8])) {
                    f.push(format!("pp-a: send {i}: {e:?}"));
                }
                let mut got = [0u8; 1];
                match retrying(|| a_rx.read(&mut got)) {
                    Ok(1) if got[0] == i as u8 => {}
                    other => f.push(format!("pp-a: reply {i} -> {other:?}")),
                }
            });
            if ok.is_err() {
                f.push(format!("pp-a: coupled_scope failed at round {i}"));
            }
            yield_now();
        }
        0
    });

    let f = fails.clone();
    let b = rt.spawn("pp-b", move || {
        let _ = decouple();
        for i in 0..ROUNDS {
            let f = &f;
            let ok = coupled_scope(|| {
                let mut got = [0u8; 1];
                match retrying(|| b_rx.read(&mut got)) {
                    Ok(1) => {
                        if got[0] != i as u8 {
                            f.push(format!("pp-b: token {i} got {}", got[0]));
                        }
                    }
                    other => f.push(format!("pp-b: recv {i} -> {other:?}")),
                }
                if let Err(e) = retrying(|| b_tx.write(&got)) {
                    f.push(format!("pp-b: echo {i}: {e:?}"));
                }
            });
            if ok.is_err() {
                f.push(format!("pp-b: coupled_scope failed at round {i}"));
            }
            yield_now();
        }
        0
    });

    a.wait();
    b.wait();
}

/// §VII M:N extension under stress: two primaries, three siblings each.
/// Siblings yield-storm on the shared original KC and periodically couple
/// to check they observe the *primary's* pid — the address-space-sharing
/// guarantee the whole design exists for.
fn mn_siblings(rt: &Runtime, fails: &Fails) {
    const YIELDS: usize = 48;
    let mut primaries = Vec::new();
    for p in 0..2 {
        let f = fails.clone();
        let barrier = Arc::new(AtomicU64::new(0));
        let gate = barrier.clone();
        let h = rt.spawn(&format!("mn-p{p}"), move || {
            let _ = decouple();
            // Hold the KC available until every sibling reports done.
            while gate.load(Ordering::Acquire) < 3 {
                let _ = coupled_scope(|| {});
                yield_now();
            }
            0
        });
        let my_pid = h.pid();
        for s in 0..3 {
            let f = f.clone();
            let done = barrier.clone();
            let sib = h.spawn_sibling(&format!("mn-p{p}s{s}"), move || {
                for i in 0..YIELDS {
                    yield_now();
                    if i % 4 == 3 {
                        match coupled_scope(sys::getpid) {
                            Ok(Ok(pid)) if pid == my_pid => {}
                            other => f.push(format!(
                                "mn-p{p}s{s}: pid at yield {i} -> {other:?} (want {my_pid})"
                            )),
                        }
                    }
                }
                done.fetch_add(1, Ordering::AcqRel);
                0
            });
            match sib {
                Ok(handle) => primaries.push(SibOrPrimary::Sib(handle)),
                Err(e) => fails.push(format!("mn-p{p}s{s}: spawn failed: {e}")),
            }
        }
        primaries.push(SibOrPrimary::Primary(h));
    }
    for h in &primaries {
        match h {
            SibOrPrimary::Sib(s) => {
                s.wait();
            }
            SibOrPrimary::Primary(p) => {
                p.wait();
            }
        }
    }
}

enum SibOrPrimary {
    Sib(ulp_core::SiblingHandle),
    Primary(ulp_core::BltHandle),
}

/// Bulk transfer through deliberately tiny pipes: four writer/reader
/// pairs, 1 KiB each in 96-byte chunks through capacity-64 pipes. Readers
/// verify a positional checksum, so reordered, duplicated or lost bytes
/// are all detected even through short reads and `EINTR` retries.
fn pipe_blockers(rt: &Runtime, fails: &Fails) {
    const BYTES: usize = 1024;
    const CHUNK: usize = 96;
    let mut handles = Vec::new();
    for pair in 0..4u8 {
        let (rx, tx) = ulp_kernel::pipe_with_capacity(64);
        let f = fails.clone();
        handles.push(rt.spawn(&format!("pb-w{pair}"), move || {
            let _ = decouple();
            let data: Vec<u8> = (0..BYTES).map(|i| (i as u8) ^ pair).collect();
            let mut sent = 0;
            while sent < BYTES {
                let end = (sent + CHUNK).min(BYTES);
                let r = coupled_scope(|| retrying(|| tx.write(&data[sent..end])));
                match r {
                    Ok(Ok(n)) => sent += n,
                    other => {
                        f.push(format!("pb-w{pair}: write at {sent}: {other:?}"));
                        return 1;
                    }
                }
                yield_now();
            }
            0
        }));
        let f = fails.clone();
        handles.push(rt.spawn(&format!("pb-r{pair}"), move || {
            let _ = decouple();
            let mut got = 0usize;
            let mut buf = [0u8; CHUNK];
            while got < BYTES {
                let r = coupled_scope(|| retrying(|| rx.read(&mut buf)));
                match r {
                    Ok(Ok(0)) => {
                        f.push(format!("pb-r{pair}: EOF at {got}"));
                        return 1;
                    }
                    Ok(Ok(n)) => {
                        for (k, &b) in buf[..n].iter().enumerate() {
                            let want = ((got + k) as u8) ^ pair;
                            if b != want {
                                f.push(format!("pb-r{pair}: byte {} is {b}, want {want}", got + k));
                                return 1;
                            }
                        }
                        got += n;
                    }
                    other => {
                        f.push(format!("pb-r{pair}: read at {got}: {other:?}"));
                        return 1;
                    }
                }
                yield_now();
            }
            0
        }));
    }
    for h in &handles {
        h.wait();
    }
}

/// Signal storm: three workers alternate coupled bursts (where the
/// runtime's safe points deliver pending signals to their handlers) with
/// decoupled yields, while the root thread `kill(2)`s them repeatedly.
/// Checks that handlers only ever run for the *targeted* process and that
/// delivery doesn't corrupt the couple protocol (the oracle sees to the
/// latter).
fn signal_storm(rt: &Runtime, fails: &Fails) {
    const KILLS: usize = 24;
    // Round-bounded, NOT wall-time-bounded: a busy-wait idle policy spins
    // workers through couple/yield cycles far faster than a blocking one,
    // and a time-based stop flag would let the event count scale with
    // scheduler throughput until the trace ring overflows (invariant A).
    const ROUNDS: usize = 200;
    let mut handles = Vec::new();
    let mut done_flags = Vec::new();
    for w in 0..3 {
        let f = fails.clone();
        let done = Arc::new(AtomicU64::new(0));
        done_flags.push(done.clone());
        handles.push(rt.spawn(&format!("sig-w{w}"), move || {
            let my_pid = sys::getpid();
            let hits = Arc::new(AtomicU64::new(0));
            let h2 = hits.clone();
            ulp_core::on_signal(Signal::SigUsr1, move |_| {
                h2.fetch_add(1, Ordering::Relaxed);
            });
            let _ = decouple();
            for _round in 0..ROUNDS {
                // Couple: the safe point inside delivers pending signals.
                let ok = coupled_scope(|| {
                    if sys::getpid() != my_pid {
                        f.push(format!("sig-w{w}: pid changed"));
                    }
                });
                if ok.is_err() {
                    f.push(format!("sig-w{w}: coupled_scope failed"));
                    break;
                }
                yield_now();
            }
            // Published strictly before the worker's process can die, so
            // the kill loop below can tell "exited as planned" from
            // "vanished unexpectedly".
            done.store(1, Ordering::Release);
            hits.load(Ordering::Relaxed) as i32
        }));
    }
    for _round in 0..KILLS {
        let mut live = 0;
        for (h, done) in handles.iter().zip(&done_flags) {
            if done.load(Ordering::Acquire) != 0 {
                continue;
            }
            live += 1;
            if let Err(e) = rt.kernel().sys_kill(h.pid(), Signal::SigUsr1) {
                // The worker may finish its rounds between the flag check
                // and the kill; only an error with the flag STILL unset
                // means it vanished mid-run.
                if done.load(Ordering::Acquire) == 0 {
                    fails.push(format!("storm: kill {:?} failed: {e:?}", h.pid()));
                }
            }
        }
        if live == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(300));
    }
    for h in &handles {
        h.wait();
    }
}

/// One lock policy's storm: `ulps` decoupled workers over the cell's two
/// scheduler KCs, each looping lock/increment/unlock on one shared
/// [`UlpLock`]. Mutual exclusion is verified by the final counter value
/// (a torn increment under a broken lock shows up as a shortfall), and
/// the periodic coupled pid check keeps the Table-I protocol in the loop
/// while the lock churns — under chaos, some of those couples land as
/// direct handoffs, which the oracle's conservation families then audit.
fn lock_storm_one<R: RawUlpLock + 'static>(rt: &Runtime, fails: &Fails, ulps: usize, iters: u64) {
    let lock = Arc::new(UlpLock::<u64, R>::new(0));
    let mut handles = Vec::new();
    for w in 0..ulps {
        let l = lock.clone();
        let f = fails.clone();
        handles.push(rt.spawn(&format!("ls-{}-{w}", R::NAME), move || {
            let my_pid = sys::getpid();
            let _ = decouple();
            for i in 0..iters {
                *l.lock() += 1;
                if i % 8 == 7 {
                    match coupled_scope(sys::getpid) {
                        Ok(pid) if pid == my_pid => {}
                        other => {
                            f.push(format!("ls-{}-{w}: pid -> {other:?}", R::NAME));
                        }
                    }
                }
                yield_now();
            }
            0
        }));
    }
    for h in &handles {
        h.wait();
    }
    let total = *lock.lock();
    let want = ulps as u64 * iters;
    if total != want {
        fails.push(format!(
            "lock_storm[{}]: counter {total}, want {want}",
            R::NAME
        ));
    }
}

/// Oversubscribed contention across the whole lock suite: four ULPs, two
/// scheduler KCs, every [`RawUlpLock`] policy in turn. Iteration counts
/// are small (trace-ring budget — see the module docs), but chaos yields
/// and biased pops scramble the handover order plenty.
fn lock_storm(rt: &Runtime, fails: &Fails) {
    const ULPS: usize = 4;
    const ITERS: u64 = 24;
    lock_storm_one::<TasLock>(rt, fails, ULPS, ITERS);
    lock_storm_one::<TicketLock>(rt, fails, ULPS, ITERS);
    lock_storm_one::<McsLock>(rt, fails, ULPS, ITERS);
    lock_storm_one::<FutexLock>(rt, fails, ULPS, ITERS);
}

/// Read a whole procfs file through the fault-injected syscall path. Body
/// content is frozen at `open()`, so `EINTR` retries and 1-byte short
/// reads must still reassemble the exact snapshot — any tearing shows up
/// in the callers' content checks. Must run coupled.
fn read_proc(path: &str) -> Result<String, String> {
    let fd = retrying(|| sys::open(path, OpenFlags::RDONLY))
        .map_err(|e| format!("open {path}: {e:?}"))?;
    let mut out = Vec::new();
    let mut buf = [0u8; 512];
    let body = loop {
        match retrying(|| sys::read(fd, &mut buf)) {
            Ok(0) => break Ok(std::mem::take(&mut out)),
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) => break Err(format!("read {path} at byte {}: {e:?}", out.len())),
        }
    };
    let _ = sys::close(fd);
    body.and_then(|b| String::from_utf8(b).map_err(|e| format!("read {path}: {e}")))
}

/// Observability under fire: three workers concurrently read the runtime's
/// own procfs files while the fault layer injects `EINTR` and 1-byte short
/// reads into every `read(2)`. Checks per round: `/proc/self/stat` names
/// *this* worker (pid and name — the §V-B identity guarantee, through the
/// VFS), `/proc/ulp/stat` keeps its `name value` shape with the global
/// couple counter monotone across rounds, and dead pids stay `ENOENT`.
/// One full metrics-exposition read per worker keeps the big-body
/// reassembly path in the storm without risking the trace-ring budget
/// (invariant A counts every chunked read as a syscall span).
fn proc_storm(rt: &Runtime, fails: &Fails) {
    const ROUNDS: usize = 24;
    const WORKERS: usize = 3;
    // One line per row of the runtime's counter table, then `stack_warm`.
    let stat_lines = rt.stats().snapshot().counters().count() + 1;
    let mut handles = Vec::new();
    for w in 0..WORKERS {
        let f = fails.clone();
        handles.push(rt.spawn(&format!("proc-w{w}"), move || {
            let my_pid = match sys::getpid() {
                Ok(p) => p,
                Err(e) => {
                    f.push(format!("proc-w{w}: getpid: {e:?}"));
                    return 1;
                }
            };
            if decouple().is_err() {
                f.push(format!("proc-w{w}: decouple failed"));
                return 1;
            }
            let mut last_couples = 0u64;
            for i in 0..ROUNDS {
                let f = &f;
                let last = &mut last_couples;
                let round = coupled_scope(|| {
                    match read_proc("/proc/self/stat") {
                        Ok(line) => {
                            let seen = line
                                .split_whitespace()
                                .next()
                                .and_then(|t| t.parse::<u32>().ok());
                            if seen != Some(my_pid.0) {
                                f.push(format!(
                                    "proc-w{w}: /proc/self/stat pid {seen:?}, want {} (round {i})",
                                    my_pid.0
                                ));
                            }
                            if !line.contains(&format!("(proc-w{w})")) {
                                f.push(format!("proc-w{w}: stat names someone else: {line:?}"));
                            }
                        }
                        Err(e) => f.push(format!("proc-w{w} round {i}: {e}")),
                    }
                    match read_proc("/proc/ulp/stat") {
                        Ok(body) => {
                            let mut couples = None;
                            for l in body.lines() {
                                match l.split_once(' ').map(|(n, v)| (n, v.parse::<u64>())) {
                                    Some(("couples", Ok(n))) => couples = Some(n),
                                    Some((_, Ok(_))) => {}
                                    _ => f.push(format!(
                                        "proc-w{w}: /proc/ulp/stat line {l:?} is not `name value`"
                                    )),
                                }
                            }
                            if body.lines().count() != stat_lines {
                                f.push(format!(
                                    "proc-w{w}: /proc/ulp/stat has {} lines, want {stat_lines}",
                                    body.lines().count()
                                ));
                            }
                            match couples {
                                Some(c) if c >= *last => *last = c,
                                got => f.push(format!(
                                    "proc-w{w}: couples went {last} -> {got:?} (round {i})"
                                )),
                            }
                        }
                        Err(e) => f.push(format!("proc-w{w} round {i}: {e}")),
                    }
                    if i % 8 == 3 {
                        match retrying(|| sys::open("/proc/424242/stat", OpenFlags::RDONLY)) {
                            Err(Errno::ENOENT) => {}
                            Err(e) => f.push(format!("proc-w{w}: dead pid open -> {e:?}")),
                            Ok(fd) => {
                                f.push(format!("proc-w{w}: dead pid 424242 opened as {fd:?}"));
                                let _ = sys::close(fd);
                            }
                        }
                    }
                    if i == ROUNDS / 2 {
                        match read_proc("/proc/ulp/metrics") {
                            Ok(m) if m.contains("# TYPE") && m.ends_with('\n') => {}
                            Ok(m) => f.push(format!(
                                "proc-w{w}: metrics exposition malformed: {:?}…",
                                &m[..m.len().min(64)]
                            )),
                            Err(e) => f.push(format!("proc-w{w}: {e}")),
                        }
                    }
                });
                if round.is_err() {
                    f.push(format!("proc-w{w}: coupled_scope failed at round {i}"));
                    break;
                }
                yield_now();
            }
            0
        }));
    }
    for h in &handles {
        h.wait();
    }
}

/// Readiness layer under fire: one server ULP multiplexing its listener
/// and both accepted connections through a single level-triggered epoll
/// descriptor, two client ULPs issuing fixed-frame echo requests — all of
/// `listen`/`connect`/`accept`/`epoll_wait` plus the blocking socket
/// `read`/`write` paths running through injected `EINTR`, `EAGAIN` and
/// short reads. Clients verify every reply byte-exact; the server's echoed
/// byte count must conserve the request bytes exactly (a dropped wakeup
/// shows up as a hang caught by the bounded loops, a duplicated one as a
/// byte-count mismatch). Sizes are small: every syscall span (retries
/// included) must fit the 4096-record trace rings.
fn server_storm(rt: &Runtime, fails: &Fails) {
    const CLIENTS: usize = 2;
    const REQUESTS: usize = 12;
    const FRAME: usize = 8;
    let listener = Listener::new();
    let echoed = Arc::new(AtomicU64::new(0));

    let f = fails.clone();
    let (l, e) = (listener.clone(), echoed.clone());
    let server = rt.spawn("srv-s", move || {
        let _ = decouple();
        let ok = coupled_scope(|| {
            let lfd = match retrying(|| sys::listen(&l)) {
                Ok(fd) => fd,
                Err(e) => {
                    f.push(format!("srv-s: listen: {e:?}"));
                    return;
                }
            };
            let ep = match retrying(sys::epoll_create) {
                Ok(fd) => fd,
                Err(e) => {
                    f.push(format!("srv-s: epoll_create: {e:?}"));
                    return;
                }
            };
            if let Err(e) = retrying(|| sys::epoll_ctl(ep, EpollOp::Add, lfd, PollEvents::IN)) {
                f.push(format!("srv-s: epoll_ctl add listener: {e:?}"));
                return;
            }
            let mut closed = 0usize;
            let mut buf = [0u8; FRAME];
            // Bounded: a lost wakeup must surface as a soft failure, not a
            // wedged harness.
            for _round in 0..10_000 {
                if closed >= CLIENTS {
                    break;
                }
                let events = match retrying(|| {
                    sys::epoll_wait(ep, 8, Some(std::time::Duration::from_millis(50)))
                }) {
                    Ok(ev) => ev,
                    Err(e) => {
                        f.push(format!("srv-s: epoll_wait: {e:?}"));
                        break;
                    }
                };
                for (fd, ev) in events {
                    if fd == lfd {
                        // Level-triggered IN: the backlog is non-empty and
                        // this is the only consumer, so accept can't hang.
                        match retrying(|| sys::accept(lfd)) {
                            Ok(conn) => {
                                if let Err(e) = retrying(|| {
                                    sys::epoll_ctl(ep, EpollOp::Add, conn, PollEvents::IN)
                                }) {
                                    f.push(format!("srv-s: epoll_ctl add conn: {e:?}"));
                                }
                            }
                            Err(e) => f.push(format!("srv-s: accept: {e:?}")),
                        }
                    } else if ev.intersects(PollEvents::IN | PollEvents::HUP) {
                        match retrying(|| sys::read(fd, &mut buf)) {
                            Ok(0) => {
                                if let Err(e) = retrying(|| {
                                    sys::epoll_ctl(ep, EpollOp::Del, fd, PollEvents::NONE)
                                }) {
                                    f.push(format!("srv-s: epoll_ctl del: {e:?}"));
                                }
                                let _ = sys::close(fd);
                                closed += 1;
                            }
                            Ok(n) => {
                                if write_all(fd, &buf[..n]).is_err() {
                                    f.push(format!("srv-s: echo write on {fd:?} failed"));
                                } else {
                                    e.fetch_add(n as u64, Ordering::Relaxed);
                                }
                            }
                            Err(e) => f.push(format!("srv-s: read on {fd:?}: {e:?}")),
                        }
                    }
                }
            }
            if closed < CLIENTS {
                f.push(format!("srv-s: only {closed}/{CLIENTS} connections closed"));
            }
            let _ = sys::close(ep);
            let _ = sys::close(lfd);
        });
        if ok.is_err() {
            f.push("srv-s: coupled_scope failed".into());
        }
        0
    });

    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let f = fails.clone();
        let l = listener.clone();
        clients.push(rt.spawn(&format!("srv-c{c}"), move || {
            let _ = decouple();
            let fd = match coupled_scope(|| retrying(|| sys::connect(&l))) {
                Ok(Ok(fd)) => fd,
                other => {
                    f.push(format!("srv-c{c}: connect: {other:?}"));
                    return 1;
                }
            };
            let mut req = [0u8; FRAME];
            let mut reply = [0u8; FRAME];
            for r in 0..REQUESTS {
                for (i, b) in req.iter_mut().enumerate() {
                    *b = (c.wrapping_mul(31) ^ r.wrapping_mul(7) ^ i) as u8;
                }
                let f = &f;
                let round = coupled_scope(|| {
                    if write_all(fd, &req).is_err() {
                        f.push(format!("srv-c{c}: request {r} write failed"));
                        return;
                    }
                    match read_all(fd, &mut reply) {
                        Ok(()) if reply == req => {}
                        Ok(()) => {
                            f.push(format!("srv-c{c}: request {r} reply {reply:?} != {req:?}"))
                        }
                        Err(e) => f.push(format!("srv-c{c}: request {r} read: {e}")),
                    }
                });
                if round.is_err() {
                    f.push(format!("srv-c{c}: coupled_scope failed at request {r}"));
                    return 1;
                }
                yield_now();
            }
            let _ = coupled_scope(|| sys::close(fd));
            0
        }));
    }

    for h in &clients {
        h.wait();
    }
    server.wait();
    let want = (CLIENTS * REQUESTS * FRAME) as u64;
    let got = echoed.load(Ordering::Relaxed);
    if got != want {
        fails.push(format!("server_storm: echoed {got} bytes, want {want}"));
    }
}

/// Write all of `data` through injected faults (short writes only happen
/// when the socket buffer fills, which these frame sizes never do).
fn write_all(fd: Fd, data: &[u8]) -> Result<(), Errno> {
    let mut sent = 0;
    while sent < data.len() {
        sent += retrying(|| sys::write(fd, &data[sent..]))?;
    }
    Ok(())
}

/// How many pooled ULPs `c1m_storm` churns through. The in-matrix default
/// is small enough that all 30 cells stay fast; local/CI scale runs raise
/// it (`ULP_C1M_N=10000` and beyond) and [`Scenario::trace_capacity`]
/// grows the rings to match.
fn c1m_count() -> usize {
    std::env::var("ULP_C1M_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(96)
}

/// Oversubscription storm: `c1m_count()` pooled ULPs churned through two
/// pool KCs in bounded waves. Each ULP couples once to check it observes
/// *its own* simulated pid (the pool serves many pids from one OS thread,
/// so a stale kernel binding shows up here), returns that pid as its exit
/// status, and terminates on the pool KC via the deferred stack-release
/// path. After every wave has been reaped the stack free-list must have
/// fully drained, never have held more stacks than one wave outstanding,
/// and — once the first wave has died — be serving recycled stacks.
fn c1m_storm(rt: &Runtime, fails: &Fails) {
    const WAVE: usize = 24;
    let n = c1m_count();
    let mut spawned = 0usize;
    while spawned < n {
        let count = WAVE.min(n - spawned);
        let mut handles = Vec::with_capacity(count);
        for k in 0..count {
            let f = fails.clone();
            let idx = spawned + k;
            match rt.spawn_pooled(&format!("c1m-{idx}"), move || {
                match coupled_scope(sys::getpid) {
                    Ok(Ok(pid)) => pid.0 as i32,
                    other => {
                        f.push(format!("c1m-{idx}: coupled getpid -> {other:?}"));
                        -1
                    }
                }
            }) {
                Ok(h) => handles.push(h),
                Err(e) => fails.push(format!("c1m-{idx}: spawn failed: {e}")),
            }
        }
        for h in &handles {
            let want = h.pid().0 as i32;
            let got = h.wait();
            if got != want {
                fails.push(format!(
                    "c1m: ULP {:?} observed pid {got}, want {want}",
                    h.id()
                ));
            }
        }
        spawned += count;
    }
    // Waves are fully reaped before the next starts, and `wait()` returns
    // only after the deferred terminate released the stack — so the pool
    // must be drained and its high-water mark bounded by one wave.
    let pool = rt.stack_pool();
    if pool.outstanding() != 0 {
        fails.push(format!(
            "c1m: {} stacks still outstanding after reaping all ULPs",
            pool.outstanding()
        ));
    }
    if pool.peak_outstanding() > WAVE {
        fails.push(format!(
            "c1m: stack high-water {} exceeds wave size {WAVE}",
            pool.peak_outstanding()
        ));
    }
    if n > WAVE && pool.stats().0 == 0 {
        fails.push("c1m: second wave never recycled a first-wave stack".into());
    }
}

/// Staying home under fire. Every round of `home-w` is an explicit
/// `couple()` / `decouple()` pair around 100 µs asleep in the kernel — so
/// every last wait reads long and the lone scheduler sleeps as well — followed
/// by a short `coupled_scope` probe. Each `decouple()` after the first finds
/// the gates of `park.rs`, "Staying home", open unless chaos shut one (a
/// forced yield that left made the last stretch long), so the probe usually
/// couples *from home*; under the planted `torture_mutation` its `getpid` is
/// the decoupled system call of a UC at home, which family B must flag.
/// Every eighth round yields twice — at home the first, on a young stretch,
/// is the kernel's yield, and the second, after a spin past the break-even,
/// a `Requeue` through the trampoline — and half way the root spawns a
/// sibling onto the KC: from then on the primary must leave every time, and
/// a request the sibling parks while the primary is still at home is served
/// at the primary's next `couple()`. The oracle replays all of it (families
/// C/D/E know a home dispatch); the scenario itself checks pids and that the
/// path was (not) reached.
fn home_stay(rt: &Runtime, fails: &Fails) {
    const ROUNDS: u64 = 64;
    const SIB_ROUNDS: usize = 12;
    let round = Arc::new(AtomicU64::new(0));
    let sib_done = Arc::new(AtomicU64::new(0));
    let homes0 = rt.stats().snapshot().decouple_homes;

    let (f, at, done) = (fails.clone(), round.clone(), sib_done.clone());
    let h = rt.spawn("home-w", move || {
        let my_pid = sys::getpid();
        let _ = decouple();
        // The sibling needs this KC for as long as it runs.
        let mut i = 0;
        while i < ROUNDS || done.load(Ordering::Acquire) == 0 {
            if ulp_core::couple().is_err() {
                f.push(format!("home-w: couple failed at round {i}"));
                return 1;
            }
            if sys::getpid() != my_pid {
                f.push(format!("home-w: pid changed at round {i}"));
            }
            let _ = sys::sleep(std::time::Duration::from_micros(100));
            let _ = decouple();
            match coupled_scope(sys::getpid) {
                Ok(pid) if pid == my_pid => {}
                other => f.push(format!("home-w: probe at round {i} -> {other:?}")),
            }
            i += 1;
            at.store(i, Ordering::Release);
            if i % 8 == 0 {
                yield_now();
                // Past `park.rs`'s `HOME_BREAK_EVEN_NS` (50 µs).
                ulp_kernel::cost::spin_for(std::time::Duration::from_micros(60));
                yield_now();
            }
        }
        0
    });

    while round.load(Ordering::Acquire) < ROUNDS / 2 && !h.is_finished() {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let (f, my_pid, done) = (fails.clone(), h.pid(), sib_done.clone());
    let sib = h.spawn_sibling("home-s", move || {
        for i in 0..SIB_ROUNDS {
            match coupled_scope(sys::getpid) {
                Ok(Ok(pid)) if pid == my_pid => {}
                other => f.push(format!("home-s: pid at round {i} -> {other:?}")),
            }
            yield_now();
        }
        done.store(1, Ordering::Release);
        0
    });
    match sib {
        Ok(s) => {
            s.wait();
        }
        Err(e) => {
            fails.push(format!("home-s: spawn failed: {e}"));
            sib_done.store(1, Ordering::Release);
        }
    }
    if h.wait() != 0 {
        fails.push("home_stay: worker exited nonzero".into());
    }
    let stats = rt.stats().snapshot();
    let homes = stats.decouple_homes - homes0;
    let adaptive = rt.config().idle_policy == ulp_core::IdlePolicy::Adaptive;
    if adaptive && homes == 0 {
        fails.push(format!(
            "home_stay: no decouple stayed home in {ROUNDS}+ rounds"
        ));
    }
    if !adaptive && (homes, stats.yield_homes) != (0, 0) {
        fails.push(format!(
            "home_stay: {homes} decouples and {} yields stayed home under {:?}",
            stats.yield_homes,
            rt.config().idle_policy
        ));
    }
}

/// Read exactly `buf.len()` bytes through injected short reads.
fn read_all(fd: Fd, buf: &mut [u8]) -> Result<(), String> {
    let mut got = 0;
    while got < buf.len() {
        match retrying(|| sys::read(fd, &mut buf[got..])) {
            Ok(0) => return Err(format!("EOF after {got} bytes")),
            Ok(n) => got += n,
            Err(e) => return Err(format!("{e:?} after {got} bytes")),
        }
    }
    Ok(())
}
