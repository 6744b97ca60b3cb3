//! The simulated kernel: process table, thread↔process binding, lifecycle.
//!
//! ## Why a simulated kernel
//!
//! The paper's ULPs are real Linux processes sharing one address space via
//! PiP; their PIDs, FD tables and signal state live in the real kernel,
//! keyed by the *kernel context* executing the system call. Our ULPs are
//! contexts inside one Rust process, so this module supplies the same
//! keying: every **OS thread** (the runtime's kernel context) is *bound* to
//! at most one simulated process per kernel instance, and every simulated
//! system call executes against the binding of the OS thread that invokes
//! it — not against any notion of "current user context". A user context
//! migrated to a foreign kernel context therefore observes foreign kernel
//! state, which is precisely the system-call-consistency hazard the paper's
//! `couple()`/`decouple()` protocol exists to fix (§V-B).
//!
//! ## Handles and names
//!
//! A process's lifecycle goes through its handle, an `Arc<Process>`:
//! [`Kernel::spawn_child`] hands it back, and [`Kernel::bind_process`],
//! [`Kernel::exit`] and [`Kernel::reap_child`] take it, so the process table's
//! lock is taken once to insert a process and once to remove it, both by the
//! spawner. The pid forms (`spawn_process`, `exit_process`, `waitpid`,
//! `try_waitpid`, `bind_current`) resolve the name once and call the same
//! bodies. They are for callers that hold only a name — system calls that
//! name another pid (`kill`, `waitpid`, `/proc/<pid>`) — and for tests.
//!
//! A `waitpid` sleeps on its parent's `child_exit` `WaitQueue` under the
//! parent's `children` lock, which an exit (after marking its zombie) and
//! a reap (as it removes the child) take to wake it: a sleeper re-scans
//! and reaps, or finds its target (or last child) reaped elsewhere.

use crate::cost::ArchProfile;
use crate::errno::{Errno, KResult};
use crate::fs::{MountTable, ProcFs, Tmpfs};
use crate::process::{Pid, ProcState, Process};
use crate::signal::Signal;
use crate::trace::{self, SyscallPhase, Sysno};
use parking_lot::{Mutex, MutexGuard};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared handle to a simulated kernel.
pub type KernelRef = Arc<Kernel>;

static NEXT_KERNEL_ID: AtomicU64 = AtomicU64::new(1);

/// One OS thread's binding in one kernel instance.
struct Binding {
    kernel: u64,
    pid: Pid,
    /// The bound process: given by [`Kernel::bind_process`], or looked up in
    /// the process table by the first system call after
    /// [`Kernel::bind_current`], and reused by every later call (pids are
    /// never reused, so the handle cannot go stale; a reaped process is
    /// flagged, see [`Process::reaped`]). `None` until then — binding by pid
    /// may precede the process's creation.
    proc: Option<Arc<Process>>,
}

thread_local! {
    /// The current OS thread's bindings. A thread can be bound in several
    /// kernel instances at once (tests do this), but in at most one process
    /// per instance.
    static BINDINGS: RefCell<Vec<Binding>> = const { RefCell::new(Vec::new()) };
}

/// The most recent pid bound on the calling thread in *any* kernel
/// instance, if one exists. Used by the fault-injection layer
/// ([`crate::fault`]) to key per-process fault streams without a kernel
/// handle in scope.
pub(crate) fn any_bound_pid() -> Option<Pid> {
    BINDINGS.with(|b| b.borrow().last().map(|e| e.pid))
}

/// The simulated kernel: process table, shared tmpfs, PID allocation and
/// per-thread process bindings. Usually handled through [`KernelRef`].
#[derive(Debug)]
pub struct Kernel {
    id: u64,
    profile: ArchProfile,
    /// The root filesystem — one tmpfs per kernel, shared by all its
    /// processes, mirroring how PiP processes share the host's tmpfs.
    pub(crate) fs: Arc<Tmpfs>,
    /// Mounted filesystems: the tmpfs at `/`, a read-only procfs at
    /// `/proc`. Path syscalls dispatch on the longest mounted prefix.
    pub(crate) mounts: MountTable,
    /// The process table, keyed by pid. Only lookups by name take its lock
    /// (see [`Kernel::table`]): a process's own lifecycle takes it twice, to
    /// insert and to remove it.
    procs: Mutex<HashMap<Pid, Arc<Process>>>,
    next_pid: AtomicU64,
    /// AIO service, lazily created on the first AIO call (exactly like
    /// glibc, which spawns its helper thread on first use — §II).
    pub(crate) aio: std::sync::OnceLock<crate::aio::AioService>,
    /// System calls completed by processes that have since been reaped;
    /// written only under the `procs` lock (see [`Kernel::total_syscalls`]).
    retired_syscalls: AtomicU64,
}

impl Kernel {
    /// Boot a fresh kernel with PID 1 ("init", auto-created) and the given
    /// architecture cost profile. The mount table starts with the tmpfs at
    /// `/` and a read-only [`ProcFs`] at `/proc`; the procfs holds only a
    /// [`std::sync::Weak`] back-reference (hence `new_cyclic`), so it never
    /// keeps its own kernel alive.
    pub fn new(profile: ArchProfile) -> KernelRef {
        let kernel = Arc::new_cyclic(|weak: &std::sync::Weak<Kernel>| {
            let fs = Arc::new(Tmpfs::new());
            let mut mounts = MountTable::new(fs.clone());
            mounts.mount(
                vec!["proc".to_string()],
                Arc::new(ProcFs::new(weak.clone())),
            );
            Kernel {
                id: NEXT_KERNEL_ID.fetch_add(1, Ordering::Relaxed),
                profile,
                fs,
                mounts,
                procs: Mutex::new(HashMap::new()),
                next_pid: AtomicU64::new(1),
                aio: std::sync::OnceLock::new(),
                retired_syscalls: AtomicU64::new(0),
            }
        });
        let init = kernel.spawn_process(None, "init");
        debug_assert_eq!(init, Pid(1));
        kernel
    }

    /// Boot with no cost injection (host-native speed).
    pub fn native() -> KernelRef {
        Kernel::new(ArchProfile::Native)
    }

    /// The architecture cost profile this kernel was built with.
    pub fn profile(&self) -> ArchProfile {
        self.profile
    }

    /// Run one system call body against the process bound to the calling
    /// OS thread, inside an observed span. `ESRCH` — before anything is
    /// observed or counted — when the thread is unbound or its process does
    /// not exist (never created, or reaped).
    ///
    /// Once the binding has cached its process, finding it is a thread-local
    /// read plus one load of the `reaped` flag: no process-table lock and no
    /// reference count, so calls by different processes share nothing here.
    /// The body runs under a shared borrow of the thread's binding table: it
    /// may issue further system calls on this thread (procfs does, rendering
    /// a file inside `open`), but rebinding the thread from inside a system
    /// call is a bug and panics.
    ///
    /// The span charges the architectural syscall-entry cost, emits the
    /// `Enter`/`Exit` pair through the global observer hook (see
    /// [`crate::trace`]), and forwards the result. The `Exit` record carries
    /// the raw errno (`0` on success) so the span shows up in the merged
    /// timeline with its outcome.
    ///
    /// The process's syscall counter is bumped **after the body returns**,
    /// matching where the trace observer records the span's latency. This
    /// exit-time commit is what lets a procfs file body generated *inside*
    /// an `open()` (`/proc/ulp/metrics`, `/proc/self/stat`) agree exactly
    /// with an external snapshot taken just before the open: the in-flight
    /// open itself is not yet counted anywhere when the content is frozen.
    /// There is no kernel-wide counter to bump — [`Kernel::total_syscalls`]
    /// sums the per-process ones — so a call writes no line that another
    /// process's calls write.
    #[inline]
    pub(crate) fn syscall<T>(
        &self,
        no: Sysno,
        f: impl FnOnce(&Process) -> KResult<T>,
    ) -> KResult<T> {
        let span = |proc: &Process| {
            trace::emit(no, SyscallPhase::Enter);
            crate::cost::spin_for(self.profile.syscall_entry());
            let out = f(proc);
            proc.syscalls.fetch_add(1, Ordering::Relaxed);
            trace::emit(
                no,
                SyscallPhase::Exit {
                    errno: errno_of(&out),
                },
            );
            out
        };
        self.with_bound_process(span).unwrap_or(Err(Errno::ESRCH))
    }

    /// Run `f` on the process bound to the calling OS thread, found as
    /// `Kernel::syscall` finds it: through the binding's cached handle —
    /// a thread-local read and one load of the `reaped` flag, no
    /// process-table lock, no reference count. `None` when the thread is
    /// unbound or its process does not exist (never created, or reaped).
    /// `f` runs under a shared borrow of the thread's binding table, so it
    /// must not rebind the thread.
    #[inline]
    pub fn with_bound_process<R>(&self, f: impl FnOnce(&Process) -> R) -> Option<R> {
        let id = self.id;
        BINDINGS.with(|cell| {
            let pid = {
                let bindings = cell.borrow();
                match bindings.iter().find(|e| e.kernel == id)? {
                    Binding {
                        proc: Some(proc), ..
                    } => {
                        if proc.reaped.load(Ordering::Acquire) {
                            return None;
                        }
                        return Some(f(proc));
                    }
                    unresolved => unresolved.pid,
                }
            };
            // First lookup since `bind_current`: resolve through the table
            // and cache the handle for the lookups that follow.
            let proc = self.process(pid)?;
            if let Some(entry) = cell.borrow_mut().iter_mut().find(|e| e.kernel == id) {
                entry.proc = Some(proc.clone());
            }
            Some(f(&proc))
        })
    }

    // ----- process lifecycle (module docs: handles and names) ----------------

    /// The process table, the one place that takes its lock (tests count
    /// the acquisitions per thread).
    #[inline]
    pub(crate) fn table(&self) -> MutexGuard<'_, HashMap<Pid, Arc<Process>>> {
        #[cfg(test)]
        tests::TABLE_LOCKS.with(|n| n.set(n.get() + 1));
        self.procs.lock()
    }

    /// Create a child of `parent` (the kernel half of spawning a ULP): the
    /// one table insert, plus the parent's child set. The caller binds an OS
    /// thread to the handle it gets back ([`Kernel::bind_process`]).
    pub fn spawn_child(&self, parent: &Arc<Process>, name: &str) -> Arc<Process> {
        self.insert(Some(parent), name)
    }

    fn insert(&self, parent: Option<&Arc<Process>>, name: &str) -> Arc<Process> {
        let pid = Pid(self.next_pid.fetch_add(1, Ordering::Relaxed) as u32);
        let proc = Arc::new(Process::new(pid, parent, name.to_string()));
        self.table().insert(pid, proc.clone());
        if let Some(parent) = parent {
            parent.children.lock().insert(pid, proc.clone());
        }
        proc
    }

    /// [`Kernel::spawn_child`] by the parent's pid; `None` makes a root
    /// process, and so does a parent that does not exist.
    pub fn spawn_process(&self, ppid: Option<Pid>, name: &str) -> Pid {
        let parent = ppid.and_then(|p| self.process(p));
        self.insert(parent.as_ref(), name).pid
    }

    /// Look up a live or zombie process.
    pub fn process(&self, pid: Pid) -> Option<Arc<Process>> {
        self.table().get(&pid).cloned()
    }

    /// Number of processes currently in the table (incl. zombies).
    pub fn process_count(&self) -> usize {
        self.table().len()
    }

    /// Terminate `proc`: close its descriptors, mark it a zombie, post
    /// SIGCHLD to the parent it holds and wake its `waitpid` sleepers — if
    /// that parent is still there. `ESRCH` if it already exited.
    pub fn exit(&self, proc: &Process, status: i32) -> KResult<()> {
        {
            let mut st = proc.state.lock();
            if matches!(*st, ProcState::Zombie(_)) {
                return Err(Errno::ESRCH);
            }
            *st = ProcState::Zombie(status);
        }
        // Close all descriptors. A description a call is still using lives
        // until that call returns; everything else is released here.
        let drained = proc.fds.lock().drain();
        drop(drained);
        if let Some(parent) = proc.parent.upgrade() {
            if !parent.reaped.load(Ordering::Acquire) {
                parent.signals.post(Signal::SigChld);
            }
            // A waiter that scanned before the zombie was marked is asleep
            // once this lock is free; one that scans after sees it.
            parent.child_exit.wake_all(&parent.children.lock());
        }
        Ok(())
    }

    /// [`Kernel::exit`] by pid.
    pub fn exit_process(&self, pid: Pid, status: i32) -> KResult<()> {
        let proc = self.process(pid).ok_or(Errno::ESRCH)?;
        self.exit(&proc, status)
    }

    /// Reap `child`, a zombie child of `parent`: the one table removal.
    /// Under the table lock the child is flagged reaped — a thread still
    /// bound to it gets `ESRCH` from its next system call — and its syscall
    /// count moves into the retired sum, so [`Kernel::total_syscalls`]
    /// counts it exactly once at every instant. The exit status if this call
    /// reaped it; `None` if it is still running or is not (or no longer)
    /// `parent`'s child.
    pub fn reap_child(&self, parent: &Process, child: &Process) -> Option<i32> {
        let status = claim(parent, &mut parent.children.lock(), child)?;
        self.retire(child);
        Some(status)
    }

    /// The one table removal, of a child [`claim`]ed (no child set locked).
    fn retire(&self, child: &Process) {
        let mut procs = self.table();
        procs.remove(&child.pid);
        child.reaped.store(true, Ordering::Release);
        self.retired_syscalls
            .fetch_add(child.syscall_count(), Ordering::Relaxed);
    }

    /// Blocking `waitpid`: reap a zombie child of `parent`. With
    /// `Some(target)`, wait for that child specifically. Blocks the calling
    /// OS thread — a *blocking system call* in the paper's sense — inside a
    /// `waitpid_block` span. `ECHILD` once no candidate is left.
    pub fn waitpid(&self, parent: Pid, target: Option<Pid>) -> KResult<(Pid, i32)> {
        trace::emit(Sysno::Waitpid, SyscallPhase::Enter);
        let out = self.waitpid_inner(parent, target);
        trace::emit(
            Sysno::Waitpid,
            SyscallPhase::Exit {
                errno: errno_of(&out),
            },
        );
        out
    }

    fn waitpid_inner(&self, parent: Pid, target: Option<Pid>) -> KResult<(Pid, i32)> {
        let parent = self.process(parent).ok_or(Errno::ESRCH)?;
        let mut kids = parent.children.lock();
        let mut wait = parent.child_exit.wait(None);
        let res = loop {
            match claim_any(&parent, &mut kids, target).transpose() {
                Some(done) => break done,
                None => wait.sleep(&mut kids),
            };
        };
        drop(kids);
        wait.finish(&res, res.is_ok());
        let (child, status) = res?;
        self.retire(&child);
        Ok((child.pid, status))
    }

    /// Non-blocking variant (`WNOHANG`).
    pub fn try_waitpid(&self, parent: Pid, target: Option<Pid>) -> KResult<Option<(Pid, i32)>> {
        let parent = self.process(parent).ok_or(Errno::ESRCH)?;
        let claimed = claim_any(&parent, &mut parent.children.lock(), target)?;
        Ok(claimed.map(|(child, status)| {
            self.retire(&child);
            (child.pid, status)
        }))
    }

    // ----- thread ↔ process binding ----------------------------------------

    /// Bind the calling OS thread to `proc`: subsequent system calls from
    /// this thread execute against that process, through the handle — no
    /// table lookup, now or later. Replaces any previous binding of this
    /// thread in this kernel. A thread-local update only.
    #[inline]
    pub fn bind_process(&self, proc: &Arc<Process>) {
        self.bind(proc.pid, Some(proc));
    }

    /// [`Kernel::bind_process`] by pid. Binding may precede the process's
    /// creation, so the name is resolved by the first system call that needs
    /// it, and cached for the calls that follow.
    pub fn bind_current(&self, pid: Pid) {
        self.bind(pid, None);
    }

    fn bind(&self, pid: Pid, proc: Option<&Arc<Process>>) {
        let id = self.id;
        BINDINGS.with(|b| {
            let mut b = b.borrow_mut();
            match b.iter_mut().find(|e| e.kernel == id) {
                // A handle cached for the same pid stays: pids are not reused.
                Some(entry) if entry.pid == pid && entry.proc.is_some() => {}
                Some(entry) => {
                    entry.pid = pid;
                    entry.proc = proc.cloned();
                }
                None => b.push(Binding {
                    kernel: id,
                    pid,
                    proc: proc.cloned(),
                }),
            }
        });
    }

    /// Remove the calling OS thread's binding in this kernel.
    pub fn unbind_current(&self) {
        let id = self.id;
        BINDINGS.with(|b| b.borrow_mut().retain(|e| e.kernel != id));
    }

    /// The process bound to the calling OS thread, if any.
    pub fn current_pid(&self) -> Option<Pid> {
        let id = self.id;
        BINDINGS.with(|b| b.borrow().iter().find(|e| e.kernel == id).map(|e| e.pid))
    }

    /// Bind for the duration of a scope.
    pub fn bind_scope(self: &Arc<Self>, pid: Pid) -> BindGuard {
        let prev = self.current_pid();
        self.bind_current(pid);
        BindGuard {
            kernel: self.clone(),
            prev,
        }
    }

    // ----- accounting -------------------------------------------------------

    /// Total system calls completed since boot: the live processes' own
    /// counters plus the counts reaped processes left behind. Exact whenever
    /// no call is in flight (a call that exits while this sums may or may
    /// not be included) — which is what `/proc/ulp/metrics` ≡ `GET /metrics`
    /// compares under quiesce.
    pub fn total_syscalls(&self) -> u64 {
        let procs = self.table();
        self.retired_syscalls.load(Ordering::Relaxed)
            + procs.values().map(|p| p.syscall_count()).sum::<u64>()
    }

    /// The shared filesystem.
    pub fn tmpfs(&self) -> &Tmpfs {
        &self.fs
    }
}

/// A parent's child set, locked.
type Children<'a> = MutexGuard<'a, HashMap<Pid, Arc<Process>>>;

/// Claim `child` if it is a zombie in `kids`, `parent`'s child set: leaving
/// the set is the claim (of two reapers, one wins), and it wakes `parent`'s
/// waiters, as one may wait for this child. The caller then retires it.
fn claim(parent: &Process, kids: &mut Children<'_>, child: &Process) -> Option<i32> {
    let ProcState::Zombie(status) = child.state() else {
        return None;
    };
    kids.remove(&child.pid)?;
    parent.child_exit.wake_all(kids);
    Some(status)
}

/// One `waitpid` scan of `parent`'s locked child set: claim a zombie child
/// — `target` only, when given, found by key — if there is one; `ECHILD`
/// if there are no candidates.
fn claim_any(
    parent: &Process,
    kids: &mut Children<'_>,
    target: Option<Pid>,
) -> KResult<Option<(Arc<Process>, i32)>> {
    let found = match target {
        Some(t) => Some(kids.get(&t).ok_or(Errno::ECHILD)?),
        None if kids.is_empty() => return Err(Errno::ECHILD),
        None => kids.values().find(|c| c.is_zombie()),
    };
    let Some(child) = found.cloned() else {
        return Ok(None);
    };
    Ok(claim(parent, kids, &child).map(|status| (child, status)))
}

/// Raw errno of a syscall result: `0` on success.
#[inline]
pub(crate) fn errno_of<T>(r: &KResult<T>) -> i32 {
    match r {
        Ok(_) => 0,
        Err(e) => e.as_raw(),
    }
}

/// RAII guard restoring the previous thread binding.
pub struct BindGuard {
    kernel: KernelRef,
    prev: Option<Pid>,
}

impl Drop for BindGuard {
    fn drop(&mut self) {
        match self.prev {
            Some(pid) => self.kernel.bind_current(pid),
            None => self.kernel.unbind_current(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Process-table lock acquisitions by the calling thread.
        pub(super) static TABLE_LOCKS: Cell<u64> = const { Cell::new(0) };
    }

    fn table_locks() -> u64 {
        TABLE_LOCKS.with(Cell::get)
    }

    #[test]
    fn boot_creates_init() {
        let k = Kernel::native();
        assert_eq!(k.process_count(), 1);
        let init = k.process(Pid(1)).unwrap();
        assert_eq!(*init.name.lock(), "init");
        assert_eq!(init.ppid, None);
    }

    #[test]
    fn spawn_links_parent_child() {
        let k = Kernel::native();
        let child = k.spawn_process(Some(Pid(1)), "child");
        assert_eq!(child, Pid(2));
        assert_eq!(k.process(Pid(1)).unwrap().children(), vec![child]);
        assert_eq!(k.process(child).unwrap().ppid, Some(Pid(1)));
    }

    #[test]
    fn binding_is_per_thread_and_per_kernel() {
        let k1 = Kernel::native();
        let k2 = Kernel::native();
        let p1 = k1.spawn_process(Some(Pid(1)), "a");
        let p2 = k2.spawn_process(Some(Pid(1)), "b");
        k1.bind_current(p1);
        k2.bind_current(p2);
        assert_eq!(k1.current_pid(), Some(p1));
        assert_eq!(k2.current_pid(), Some(p2));
        // Another thread sees no binding.
        let k1c = k1.clone();
        std::thread::spawn(move || assert_eq!(k1c.current_pid(), None))
            .join()
            .unwrap();
        k1.unbind_current();
        assert_eq!(k1.current_pid(), None);
        assert_eq!(k2.current_pid(), Some(p2));
        k2.unbind_current();
    }

    #[test]
    fn bind_scope_restores() {
        let k = Kernel::native();
        let a = k.spawn_process(Some(Pid(1)), "a");
        let b = k.spawn_process(Some(Pid(1)), "b");
        k.bind_current(a);
        {
            let _g = k.bind_scope(b);
            assert_eq!(k.current_pid(), Some(b));
        }
        assert_eq!(k.current_pid(), Some(a));
        k.unbind_current();
    }

    #[test]
    fn exit_and_waitpid_reap() {
        let k = Kernel::native();
        let child = k.spawn_process(Some(Pid(1)), "c");
        k.exit_process(child, 7).unwrap();
        let (reaped, status) = k.waitpid(Pid(1), None).unwrap();
        assert_eq!(reaped, child);
        assert_eq!(status, 7);
        assert!(k.process(child).is_none(), "zombie reaped");
        assert_eq!(k.waitpid(Pid(1), None).unwrap_err(), Errno::ECHILD);
    }

    /// Run `f` on a thread of its own; the closure returned waits for its
    /// result, and panics naming `what` if 10 s pass first (a lost wake
    /// hangs, with no time-out left to ride).
    pub(crate) fn watchdog<T: Send + 'static>(
        what: &'static str,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> impl FnOnce() -> T {
        let (done, result) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || done.send(f()).unwrap());
        move || {
            let out = (result.recv_timeout(std::time::Duration::from_secs(10)))
                .unwrap_or_else(|e| panic!("{what}: no return in 10 s ({e})"));
            thread.join().unwrap();
            out
        }
    }

    /// Wait until somebody sleeps on `parent`'s `child_exit` queue.
    fn asleep_on(parent: &Process) {
        while parent.child_exit.waiters.counted() & crate::wait::SLEEPERS == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn waitpid_blocks_until_exit() {
        let k = Kernel::native();
        let root = k.process(Pid(1)).unwrap();
        let child = k.spawn_child(&root, "c");
        let pid = child.pid;
        let waiter = {
            let k = k.clone();
            watchdog("waitpid", move || k.waitpid(Pid(1), Some(pid)))
        };
        asleep_on(&root);
        k.exit(&child, 3).unwrap();
        assert_eq!(waiter(), Ok((pid, 3)));
    }

    /// An exit marks its zombie before it takes the parent's child-set lock
    /// to wake the waiters, so a waiter whose scan comes after that lock —
    /// the exit found nobody asleep and woke nobody — sees the zombie on
    /// that scan. The test plays that exit: it holds the lock while the
    /// waiter is on its way to its scan, marks the zombie, wakes nobody, and
    /// lets go. Every waiter returns: there is no time-out left to ride.
    #[test]
    fn waitpid_racing_exit_is_not_left_to_the_time_out() {
        let k = Kernel::native();
        let root = k.process(Pid(1)).unwrap();
        for _ in 0..5 {
            let child = k.spawn_child(&root, "c");
            let pid = child.pid;
            let held = root.children.lock();
            let waiter = {
                let k = k.clone();
                watchdog("waitpid after an exit that woke nobody", move || {
                    k.waitpid(Pid(1), Some(pid))
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(5));
            *child.state.lock() = ProcState::Zombie(0);
            assert_eq!(
                root.child_exit.waiters.counted(),
                0,
                "the exit wakes nobody"
            );
            drop(held);
            assert_eq!(waiter(), Ok((pid, 0)));
        }
    }

    /// A `waitpid` asleep for one child, or for any child, while another
    /// caller reaps that child — the last one — returns `ECHILD`: the reap
    /// wakes it, and its next scan finds no candidate.
    #[test]
    fn waitpid_whose_child_is_reaped_elsewhere_returns_echild() {
        let k = Kernel::native();
        let root = k.process(Pid(1)).unwrap();
        for target in [true, false] {
            // A fresh parent: a queue with no history sleeps at once.
            let parent = k.spawn_child(&root, "parent");
            let child = k.spawn_child(&parent, "c");
            let waiter = {
                let (k, ppid) = (k.clone(), parent.pid);
                let target = target.then_some(child.pid);
                watchdog("waitpid whose child was reaped", move || {
                    k.waitpid(ppid, target)
                })
            };
            asleep_on(&parent);
            // An exit that wakes nobody, so the reap below is what ends it.
            *child.state.lock() = ProcState::Zombie(4);
            assert_eq!(k.reap_child(&parent, &child), Some(4));
            assert_eq!(waiter(), Err(Errno::ECHILD), "target {target}");
        }
    }

    #[test]
    fn try_waitpid_wnohang() {
        let k = Kernel::native();
        let child = k.spawn_process(Some(Pid(1)), "c");
        assert_eq!(k.try_waitpid(Pid(1), None).unwrap(), None);
        k.exit_process(child, 0).unwrap();
        assert_eq!(k.try_waitpid(Pid(1), None).unwrap(), Some((child, 0)));
    }

    #[test]
    fn exit_posts_sigchld() {
        let k = Kernel::native();
        let child = k.spawn_process(Some(Pid(1)), "c");
        k.exit_process(child, 0).unwrap();
        assert!(k
            .process(Pid(1))
            .unwrap()
            .signals
            .pending()
            .contains(Signal::SigChld));
    }

    /// A process named once: spawn, bind, a system call, exit and reap
    /// through the handle take the process-table lock twice — the insert and
    /// the removal, both on the spawner's thread — and the bound thread
    /// never takes it. (By pid the same life took it 8 times: 2 to spawn, 1
    /// to resolve the binding, 2 to exit, 3 to reap.)
    #[test]
    fn a_life_through_handles_takes_the_table_twice() {
        let k = Kernel::native();
        let root = k.process(Pid(1)).unwrap();
        let start = table_locks();
        let child = k.spawn_child(&root, "c");
        let on_bound = {
            let (k, child) = (k.clone(), child.clone());
            std::thread::spawn(move || {
                let start = table_locks();
                k.bind_process(&child);
                assert_eq!(k.sys_getpid(), Ok(child.pid));
                k.exit(&child, 5).unwrap();
                k.unbind_current();
                table_locks() - start
            })
            .join()
            .unwrap()
        };
        assert_eq!(on_bound, 0, "the bound thread took the table lock");
        assert_eq!(k.reap_child(&root, &child), Some(5));
        assert_eq!(table_locks() - start, 2);
        assert!(k.process(child.pid).is_none(), "reaped");
        assert_eq!(k.process_count(), 1);
    }

    #[test]
    fn exit_through_a_handle_posts_sigchld_to_a_live_parent() {
        let k = Kernel::native();
        let root = k.process(Pid(1)).unwrap();
        let parent = k.spawn_child(&root, "parent");
        let child = k.spawn_child(&parent, "child");
        assert_eq!(child.ppid, Some(parent.pid));
        k.exit(&child, 0).unwrap();
        assert!(parent.signals.pending().contains(Signal::SigChld));
        assert_eq!(parent.signals.total_posted(), 1);
        assert_eq!(k.exit(&child, 0), Err(Errno::ESRCH), "exits once");
    }

    /// A child that outlives its parent exits quietly: nothing is posted to
    /// a parent that has been reaped — held or dropped — nor to anyone else.
    #[test]
    fn an_orphan_exits_without_a_post() {
        let k = Kernel::native();
        let root = k.process(Pid(1)).unwrap();
        for drop_parent in [false, true] {
            let parent = k.spawn_child(&root, "parent");
            let child = k.spawn_child(&parent, "child");
            k.exit(&parent, 0).unwrap();
            assert_eq!(k.reap_child(&root, &parent), Some(0));
            let (root_posts, parent_posts) =
                (root.signals.total_posted(), parent.signals.total_posted());
            let parent = (!drop_parent).then_some(parent);
            assert_eq!(k.exit(&child, 3), Ok(()));
            assert_eq!(root.signals.total_posted(), root_posts);
            if let Some(parent) = parent {
                assert_eq!(parent.signals.total_posted(), parent_posts);
            } else {
                assert!(child.parent.upgrade().is_none(), "the parent is gone");
            }
        }
    }

    #[test]
    fn a_thread_bound_to_a_reaped_handle_gets_esrch() {
        let k = Kernel::native();
        let root = k.process(Pid(1)).unwrap();
        let child = k.spawn_child(&root, "c");
        k.bind_process(&child);
        assert_eq!(k.sys_getpid(), Ok(child.pid));
        k.exit(&child, 0).unwrap();
        assert_eq!(k.sys_getpid(), Ok(child.pid), "a zombie still answers");
        assert_eq!(k.reap_child(&root, &child), Some(0));
        assert_eq!(k.sys_getpid(), Err(Errno::ESRCH));
        assert_eq!(k.current_pid(), Some(child.pid), "still bound by name");
        k.unbind_current();
    }

    /// Reaping claims the child once: a running child, a second reap and a
    /// reap by a process that is not the parent all leave the table alone.
    #[test]
    fn reap_child_claims_a_zombie_once() {
        let k = Kernel::native();
        let root = k.process(Pid(1)).unwrap();
        let other = k.spawn_child(&root, "other");
        let child = k.spawn_child(&root, "c");
        assert_eq!(k.reap_child(&root, &child), None, "still running");
        k.exit(&child, 9).unwrap();
        assert_eq!(k.reap_child(&other, &child), None, "not its child");
        assert_eq!(k.reap_child(&root, &child), Some(9));
        assert_eq!(k.reap_child(&root, &child), None, "reaped once");
        assert_eq!(k.process_count(), 2);
        assert_eq!(k.try_waitpid(Pid(1), Some(child.pid)), Err(Errno::ECHILD));
    }

    #[test]
    fn double_exit_is_esrch() {
        let k = Kernel::native();
        let child = k.spawn_process(Some(Pid(1)), "c");
        k.exit_process(child, 0).unwrap();
        assert_eq!(k.exit_process(child, 0).unwrap_err(), Errno::ESRCH);
    }
}
