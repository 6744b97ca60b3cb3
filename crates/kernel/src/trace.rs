//! The kernel → runtime seam: one hook table, and the names it speaks in.
//!
//! The simulated kernel sits *below* `ulp-core` in the crate graph, so it
//! cannot write into the runtime's per-KC trace shards or render runtime
//! state itself. Instead it exposes one process-global [`KernelHooks`]
//! table, installed once by the runtime at construction:
//!
//! - `syscall` — while a tracer records, every simulated system call emits
//!   an `Enter`/`Exit` pair through it. The runtime's observer routes the
//!   pair onto the calling OS thread's trace shard (same rings, same
//!   process-wide clock as the couple/decouple protocol events), which is
//!   what lets the merged Perfetto timeline interleave syscall spans with
//!   BLT state tracks and makes system-call-consistency violations
//!   visually obvious.
//! - `wake_stamp` / `wake_emit` — the two ends of a wake edge (see
//!   [`WakeCell`]).
//! - `proc` — the runtime-sourced bodies of `/proc/ulp/*` (see
//!   [`crate::fs::ProcFs`]).
//!
//! The first installation wins. Every hook resolves the *calling thread's*
//! runtime, so several runtimes in one process install the same table and
//! each sees only its own threads.
//!
//! The observation hooks — `syscall`, `wake_stamp`, `wake_emit` — run only
//! while some tracer records: one process-wide count of recording tracers
//! ([`start_recording`] / [`stop_recording`], read by [`recording`]) is the
//! first thing every such site loads, once and relaxed, and while it reads
//! zero the site returns before it even looks the table up. An untraced
//! system call therefore pays that one load per event site and no indirect
//! call; a traced one reaches its hooks exactly as before, and the observer
//! still filters by the calling thread's own shard. `proc` always runs: a
//! procfs body is content, not an observation. `tools/loc.sh --check` fails
//! on a `HOOKS.get()` anywhere else in the crate, so a new site cannot skip
//! the count. With no table installed (the kernel crate used standalone)
//! the kernel keeps working all the same.

use crate::fs::ProcSource;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Declare a dense `#[repr(u16)]` name table once: the enum, its `ALL`
/// array, `COUNT`, `name()` and `from_u16()` all come from the one list of
/// `Variant => "name"` rows, so they cannot disagree.
macro_rules! name_table {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $($(#[$doc:meta])* $variant:ident => $name:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u16)]
        pub enum $ty {
            $($(#[$doc])* $variant,)+
        }

        impl $ty {
            /// Every value, in discriminant order (`ALL[i] as u16 == i`).
            pub const ALL: [$ty; $ty::COUNT] = [$($ty::$variant,)+];

            /// Number of distinct values — the length of per-value tables.
            pub const COUNT: usize = [$($name,)+].len();

            /// Stable lower-case name.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }

            /// Inverse of `self as u16`; `None` for out-of-range values
            /// (e.g. a corrupt trace slot).
            pub fn from_u16(v: u16) -> Option<$ty> {
                $ty::ALL.get(v as usize).copied()
            }
        }
    };
}

name_table! {
    /// Identity of a simulated system call, used to label trace spans and to
    /// index the per-syscall latency histograms.
    ///
    /// Discriminants are dense (`0..COUNT`) so the value round-trips through
    /// the packed trace-slot encoding via [`Sysno::from_u16`] and can index a
    /// `[_; Sysno::COUNT]` table directly. The name is the Perfetto span label
    /// and the `call="…"` Prometheus label.
    pub enum Sysno {
        /// `getpid(2)` — the paper's Table V consistency microbenchmark.
        Getpid => "getpid",
        /// `getppid(2)`.
        Getppid => "getppid",
        /// `getcwd(2)`.
        Getcwd => "getcwd",
        /// `chdir(2)`.
        Chdir => "chdir",
        /// `open(2)`.
        Open => "open",
        /// `close(2)`.
        Close => "close",
        /// `write(2)` (tmpfs or pipe; the pipe case may block).
        Write => "write",
        /// `read(2)` (tmpfs or pipe; the pipe case may block).
        Read => "read",
        /// `pwrite(2)`.
        Pwrite => "pwrite",
        /// `pread(2)`.
        Pread => "pread",
        /// `lseek(2)`.
        Lseek => "lseek",
        /// `ftruncate(2)`.
        Ftruncate => "ftruncate",
        /// `dup(2)`.
        Dup => "dup",
        /// `dup2(2)`.
        Dup2 => "dup2",
        /// `pipe(2)`.
        Pipe => "pipe",
        /// `unlink(2)`.
        Unlink => "unlink",
        /// `mkdir(2)`.
        Mkdir => "mkdir",
        /// `rmdir(2)`.
        Rmdir => "rmdir",
        /// `link(2)`.
        Link => "link",
        /// `rename(2)`.
        Rename => "rename",
        /// `stat(2)`.
        Stat => "stat",
        /// `readdir(3)`.
        Readdir => "readdir",
        /// `kill(2)`.
        Kill => "kill",
        /// `sigprocmask(2)`.
        Sigprocmask => "sigprocmask",
        /// `sigpending(2)`.
        Sigpending => "sigpending",
        /// Signal-delivery dequeue (the simulated return-to-userspace point).
        TakeSignal => "take_signal",
        /// `nanosleep(2)` — blocks the calling OS thread.
        Nanosleep => "nanosleep",
        /// Blocking `waitpid(2)`.
        Waitpid => "waitpid",
        /// `futex(FUTEX_WAIT)` — the BLOCKING idle primitive (§VI-C).
        FutexWait => "futex_wait",
        /// `aio_write(3)` submission.
        AioWrite => "aio_write",
        /// `aio_read(3)` submission.
        AioRead => "aio_read",
        /// `aio_suspend(3)` — blocks until an AIO request completes.
        AioSuspend => "aio_suspend",
        /// The in-kernel sleep of a `read(2)` on an empty pipe.
        PipeBlockRead => "pipe_block_read",
        /// The in-kernel sleep of a `write(2)` on a full pipe.
        PipeBlockWrite => "pipe_block_write",
        /// `socketpair(2)` — create a connected loopback stream pair.
        Socketpair => "socketpair",
        /// `listen(2)`-ish: install a listener in the caller's FD table.
        Listen => "listen",
        /// `connect(2)` against an in-kernel listener.
        Connect => "connect",
        /// `accept(2)` — may block until a client connects.
        Accept => "accept",
        /// `poll(2)` — readiness wait over an explicit fd set.
        Poll => "poll",
        /// `epoll_create(2)`.
        EpollCreate => "epoll_create",
        /// `epoll_ctl(2)` — add/modify/delete one interest-list entry.
        EpollCtl => "epoll_ctl",
        /// `epoll_wait(2)` — may block until a watched fd becomes ready.
        EpollWait => "epoll_wait",
        /// The in-kernel sleep of an `epoll_wait`/`poll` with nothing ready.
        EpollBlockWait => "epoll_block_wait",
        /// The in-kernel sleep of a `read(2)` on an empty socket direction.
        SockBlockRead => "sock_block_read",
        /// The in-kernel sleep of a `write(2)` on a full socket direction.
        SockBlockWrite => "sock_block_write",
        /// The in-kernel sleep of an `accept(2)` on an empty accept queue.
        AcceptBlock => "accept_block",
        /// The in-kernel sleep of a `waitpid(2)` with no zombie to reap.
        WaitpidBlock => "waitpid_block",
    }
}

/// Which edge of a syscall span an observation marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallPhase {
    /// The call is about to execute (after the calling thread's process
    /// binding was resolved).
    Enter,
    /// The call returned.
    Exit {
        /// Raw errno of the result: `0` on success.
        errno: i32,
    },
}

/// Everything the kernel asks of the runtime above it. Plain `fn` pointers,
/// each called synchronously on the thread concerned; each resolves that
/// thread's runtime itself, must be cheap, and must not call back into the
/// kernel. The three observation hooks are called only while
/// [`recording`] is nonzero; `proc` is called whenever a body is read.
#[derive(Debug, Clone, Copy)]
pub struct KernelHooks {
    /// Both edges of every simulated system call, on the issuing thread,
    /// while some tracer records.
    pub syscall: fn(Sysno, SyscallPhase),
    /// Waker side of a wake edge, while some tracer records:
    /// `(waker_blt_id, now_ns)` of the current thread at the moment a stamp
    /// is armed. `(0, 0)` when the calling thread's own tracer is off (the
    /// stamp is then suppressed entirely); a waker id of `0` with a nonzero
    /// timestamp means "a thread outside the runtime" (BLT ids start at 1).
    pub wake_stamp: fn() -> (u64, u64),
    /// Sleeper side, while some tracer records: called on the *woken*
    /// thread when a claimed stamp proves a real block-ending edge, with
    /// `(waker_blt_id, armed_ns, site)`. Resolves the wakee from its own
    /// thread state.
    pub wake_emit: fn(u64, u64, WakeSite),
    /// Runtime-sourced procfs bodies, always consulted; `None` when the
    /// calling thread has no runtime (or no ULP matching a
    /// [`ProcSource::PidExtra`]). Called under no procfs lock — it may take
    /// runtime-internal locks.
    pub proc: fn(ProcSource) -> Option<String>,
}

static HOOKS: OnceLock<KernelHooks> = OnceLock::new();

/// How many tracers in the process are recording. The observation hooks are
/// called only while it is nonzero (module docs).
static RECORDING: AtomicUsize = AtomicUsize::new(0);

impl KernelHooks {
    /// Install the process-global table. The first installation wins; later
    /// calls are no-ops (every `Runtime` construction installs the same
    /// per-thread routers).
    pub fn install(self) {
        let _ = HOOKS.set(self);
    }
}

/// Count one more recording tracer: from now on the observation hooks are
/// called. A tracer calls it before its own gate opens, so the first event
/// it records finds its hooks live.
pub fn start_recording() {
    RECORDING.fetch_add(1, Ordering::Release);
}

/// Count one recording tracer out, after its own gate has closed; the
/// hooks stop being called when the last one has. Balances exactly one
/// earlier [`start_recording`].
pub fn stop_recording() {
    let was = RECORDING.fetch_sub(1, Ordering::Release);
    debug_assert!(was != 0, "stop_recording without a start_recording");
}

/// How many tracers are recording now: the one relaxed load every
/// observation site makes before anything else.
#[inline]
pub fn recording() -> usize {
    RECORDING.load(Ordering::Relaxed)
}

/// Emit one syscall observation (no-op unless some tracer records).
#[inline]
pub fn emit(no: Sysno, phase: SyscallPhase) {
    if recording() == 0 {
        return;
    }
    if let Some(h) = HOOKS.get() {
        (h.syscall)(no, phase);
    }
}

/// Emit one wake edge (no-op unless some tracer records and a table is
/// installed).
#[inline]
pub fn wake_emit(waker: u64, armed_ns: u64, site: WakeSite) {
    if recording() == 0 {
        return;
    }
    if let Some(h) = HOOKS.get() {
        (h.wake_emit)(waker, armed_ns, site);
    }
}

/// Ask the runtime for a procfs body; `None` with no table installed or no
/// runtime on the calling thread.
pub(crate) fn proc_provide(source: ProcSource) -> Option<String> {
    HOOKS.get().and_then(|h| (h.proc)(source))
}

name_table! {
    /// Origin of a wake edge — which kind of event made a blocked or queued
    /// BLT runnable again.
    ///
    /// Discriminants are dense (`0..COUNT`) so the value round-trips through
    /// the packed trace-slot encoding via [`WakeSite::from_u16`] and can index
    /// a `[_; WakeSite::COUNT]` histogram table directly. The name is the
    /// Perfetto flow label and the `site="…"` Prometheus label.
    pub enum WakeSite {
        /// Run-queue enqueue after a voluntary decouple/yield (the ULP made
        /// itself runnable again; waker == wakee).
        Enqueue => "enqueue",
        /// First enqueue of a freshly spawned ULP (waker = the spawning ULP).
        Spawn => "spawn",
        /// A parked couple request was granted by the TC loop (waker == wakee:
        /// the requester's own earlier request matured).
        CoupleResume => "couple_resume",
        /// `decouple()` handed its KC straight to a parked couple requester
        /// (waker = the decoupling ULP).
        CoupleHandoff => "couple_handoff",
        /// A couple request landing on an idle KC's pending queue woke the KC's
        /// trampoline loop (wakee = the KC's primary identity).
        KcNotify => "kc_notify",
        /// `futex_wake` released a sleeper parked in `futex_wait`.
        FutexWake => "futex_wake",
        /// A pipe write (or writer hang-up) ended a blocked pipe `read(2)`.
        PipeRead => "pipe_read",
        /// A pipe read (or reader hang-up) ended a blocked pipe `write(2)`.
        PipeWrite => "pipe_write",
        /// A socket send (or peer hang-up) ended a blocked socket `read(2)`.
        SockRead => "sock_read",
        /// A socket receive (or peer hang-up) ended a blocked socket `write(2)`.
        SockWrite => "sock_write",
        /// A `connect(2)` rendezvous ended a blocked `accept(2)`.
        Accept => "accept",
        /// A `PollWaker` fire ended a blocked `epoll_wait(2)`.
        EpollWait => "epoll_wait",
        /// A `PollWaker` fire ended a blocked `poll(2)`.
        Poll => "poll",
        /// A posted signal was dequeued at the simulated return-to-userspace
        /// point.
        Signal => "signal",
        /// A child's exit (or reaping elsewhere) ended a blocked `waitpid(2)`.
        ChildExit => "child_exit",
        /// The AIO helper's completion ended a blocked `aio_suspend(3)`.
        AioDone => "aio_done",
        /// A wait list's setter — a UC's exit, an event's `set`, a barrier's
        /// last arrival — put a ULT that waited on it back on the run queue
        /// (waker = the setter).
        WaitList => "wait_list",
    }
}

impl WakeSite {
    /// The nested blocking span a wake edge of this site ends — the span the
    /// woken call opened when it went to sleep, and the one the edge must
    /// land inside. `None` for sites that sleep outside any syscall span:
    /// the run-queue sites, `kc_notify`, `futex_wake` and `signal`.
    pub fn blocking_span(self) -> Option<Sysno> {
        match self {
            WakeSite::PipeRead => Some(Sysno::PipeBlockRead),
            WakeSite::PipeWrite => Some(Sysno::PipeBlockWrite),
            WakeSite::SockRead => Some(Sysno::SockBlockRead),
            WakeSite::SockWrite => Some(Sysno::SockBlockWrite),
            WakeSite::Accept => Some(Sysno::AcceptBlock),
            WakeSite::EpollWait | WakeSite::Poll => Some(Sysno::EpollBlockWait),
            WakeSite::ChildExit => Some(Sysno::WaitpidBlock),
            WakeSite::AioDone => Some(Sysno::AioSuspend),
            _ => None,
        }
    }
}

/// A one-slot wake stamp shared between a waker and the sleeper it releases.
///
/// The waker calls [`WakeCell::stamp`] immediately *before* its notify; the
/// sleeper calls [`WakeCell::consume`] after it actually slept and the wait
/// predicate finally held. `consume` clears the cell (swap to 0), so a stamp
/// is attributed at most once — a later unblock with no fresh stamp (EOF
/// drain, spurious wake) emits nothing. Validity is carried by `armed_ns !=
/// 0`; `waker == 0` means "stamped by a thread outside the runtime".
///
/// Publication rides on the sleeper's own wait protocol: every call site
/// stamps under the same lock (or before the same Release store) that the
/// sleeper re-checks its predicate under, so a sleeper that observes the
/// state change also observes the stamp.
#[derive(Debug, Default)]
pub struct WakeCell {
    waker: AtomicU64,
    armed_ns: AtomicU64,
}

impl WakeCell {
    /// A fresh, unarmed cell.
    pub const fn new() -> WakeCell {
        WakeCell {
            waker: AtomicU64::new(0),
            armed_ns: AtomicU64::new(0),
        }
    }

    /// Arm the cell with the current thread's identity and clock. No-op when
    /// no tracer records, or the calling thread's is off (the hook returns
    /// `now == 0`). Later stamps overwrite earlier unconsumed ones — the
    /// *last* wake before the sleeper runs is the one that actually ended
    /// its wait.
    #[inline]
    pub fn stamp(&self) {
        if recording() == 0 {
            return;
        }
        let (waker, now) = HOOKS.get().map_or((0, 0), |h| (h.wake_stamp)());
        if now != 0 {
            self.stamp_as(waker, now);
        }
    }

    /// Arm the cell with an explicit waker identity and timestamp (for call
    /// sites that already resolved both).
    #[inline]
    pub fn stamp_as(&self, waker: u64, now: u64) {
        self.waker.store(waker, Ordering::Relaxed);
        self.armed_ns.store(now, Ordering::Release);
    }

    /// Take the stamp without emitting: `Some((waker, armed_ns))` if one
    /// was armed. Clears the cell, so a stamp is attributed (or discarded)
    /// at most once. For consumers that resolve the wakee themselves.
    #[inline]
    pub fn take(&self) -> Option<(u64, u64)> {
        let armed = self.armed_ns.swap(0, Ordering::Acquire);
        if armed != 0 {
            Some((self.waker.load(Ordering::Relaxed), armed))
        } else {
            None
        }
    }

    /// Consume the stamp, emitting a wake edge for `site` if one was armed.
    /// Clears the cell so the stamp cannot be attributed twice.
    #[inline]
    pub fn consume(&self, site: WakeSite) {
        if let Some((waker, armed)) = self.take() {
            wake_emit(waker, armed, site);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_table_matches_discriminants() {
        for (i, no) in Sysno::ALL.iter().enumerate() {
            assert_eq!(*no as u16 as usize, i);
            assert_eq!(Sysno::from_u16(i as u16), Some(*no));
        }
        assert_eq!(Sysno::from_u16(Sysno::COUNT as u16), None);
        assert_eq!(Sysno::ALL.len(), Sysno::COUNT);
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = Sysno::ALL.iter().map(|n| n.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Sysno::COUNT);
        assert_eq!(Sysno::Getpid.name(), "getpid");
        assert_eq!(Sysno::PipeBlockWrite.name(), "pipe_block_write");
    }

    #[test]
    fn emit_without_observer_is_a_noop() {
        // Must not panic or allocate; just exercises the cold path.
        emit(Sysno::Getpid, SyscallPhase::Enter);
        emit(Sysno::Getpid, SyscallPhase::Exit { errno: 0 });
    }

    #[test]
    fn wake_site_table_matches_discriminants() {
        for (i, site) in WakeSite::ALL.iter().enumerate() {
            assert_eq!(*site as u16 as usize, i);
            assert_eq!(WakeSite::from_u16(i as u16), Some(*site));
        }
        assert_eq!(WakeSite::from_u16(WakeSite::COUNT as u16), None);
        assert_eq!(WakeSite::ALL.len(), WakeSite::COUNT);
    }

    #[test]
    fn wake_site_names_are_unique() {
        let mut names: Vec<&str> = WakeSite::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WakeSite::COUNT);
        assert_eq!(WakeSite::CoupleHandoff.name(), "couple_handoff");
    }

    #[test]
    fn wake_cell_unarmed_consume_is_a_noop() {
        // No hook installed in this test binary's default state; the cell
        // logic alone must be correct: consuming an unarmed cell is a no-op
        // and an explicit stamp survives exactly one consume.
        let cell = WakeCell::new();
        cell.consume(WakeSite::PipeRead);
        cell.stamp_as(7, 123);
        assert_eq!(cell.armed_ns.swap(0, Ordering::Acquire), 123);
        assert_eq!(cell.armed_ns.load(Ordering::Relaxed), 0);
    }
}
