//! The simulated system-call surface.
//!
//! Every function here follows the same contract: it resolves the **calling
//! OS thread's** bound process (the kernel context's identity) and runs its
//! body against it inside `Kernel::syscall` — which charges the architectural
//! syscall-entry cost and emits an `Enter`/`Exit` span pair (syscall number
//! plus errno) through the observer hook in [`crate::trace`], so the runtime
//! can interleave syscall spans with its couple/decouple timeline. None of
//! these functions know anything about user contexts — which is exactly why
//! a migrated UC that calls them without `couple()` observes the wrong
//! process (paper §I: "the returned PID may vary depending on the scheduling
//! KLT").

use crate::errno::{Errno, KResult};
use crate::fault::{self, FaultKind};
use crate::fd::{Description, DescriptionRef, Fd};
use crate::fs::{normalize, DirEntry, FileLike, FileStat, OpenFlags, Whence};
use crate::kernel::Kernel;
use crate::pipe;
use crate::poll::{EpollEntry, EpollObject, EpollOp, PollEvents, PollWaker};
use crate::process::{Pid, Process};
use crate::signal::{MaskHow, SigSet, Signal};
use crate::socket::{self, Listener};
use crate::trace::{Sysno, WakeSite};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Normalize `path` for `proc` and run `f` on its components (borrowed from
/// `path`: nothing is allocated for an absolute path of ordinary depth). An
/// absolute path never reads the working directory; a relative one resolves
/// against a *copy* of it — `proc.cwd` must not be held while `f` runs,
/// because the filesystem may take it itself (procfs renders `cwd=` while
/// serving `open("/proc/self/stat")`).
fn with_path<T>(proc: &Process, path: &str, f: impl FnOnce(&[&str]) -> T) -> T {
    if path.starts_with('/') {
        f(&normalize("", path))
    } else {
        let cwd = proc.cwd.lock().clone();
        f(&normalize(&cwd, path))
    }
}

/// Install a fresh description of `file` in `proc`'s descriptor table.
fn install(proc: &Process, file: Arc<dyn FileLike>, flags: OpenFlags) -> KResult<Fd> {
    proc.fds.lock().install(Description::new(file, flags))
}

/// The description `fd` names in `proc`'s table — a clone of its own, so the
/// call runs (and may sleep) outside the table's lock.
fn description(proc: &Process, fd: Fd) -> KResult<DescriptionRef> {
    proc.fds.lock().get(fd)
}

impl Kernel {
    // ----- identity ---------------------------------------------------------

    /// `getpid(2)` — the paper's Table V microbenchmark.
    pub fn sys_getpid(&self) -> KResult<Pid> {
        self.syscall(Sysno::Getpid, |proc| Ok(proc.pid))
    }

    /// `getppid(2)`.
    pub fn sys_getppid(&self) -> KResult<Pid> {
        self.syscall(Sysno::Getppid, |proc| Ok(proc.ppid.unwrap_or(Pid(0))))
    }

    /// `getcwd(2)`.
    pub fn sys_getcwd(&self) -> KResult<String> {
        self.syscall(Sysno::Getcwd, |proc| Ok(proc.cwd.lock().clone()))
    }

    /// `chdir(2)`.
    pub fn sys_chdir(&self, path: &str) -> KResult<()> {
        self.syscall(Sysno::Chdir, |proc| {
            with_path(proc, path, |comps| {
                let (fs, rel) = self.mounts.resolve(comps);
                if !fs.stat_rel(rel)?.is_dir {
                    return Err(Errno::ENOTDIR);
                }
                *proc.cwd.lock() = format!("/{}", comps.join("/"));
                Ok(())
            })
        })
    }

    // ----- files ------------------------------------------------------------

    /// `open(2)` against the mounted filesystems (tmpfs at `/`, procfs at
    /// `/proc`); the descriptor lands in the *calling thread's* process FD
    /// table, its description holding the handle the filesystem returned.
    pub fn sys_open(&self, path: &str, flags: OpenFlags) -> KResult<Fd> {
        self.syscall(Sysno::Open, |proc| {
            with_path(proc, path, |comps| {
                let (fs, rel) = self.mounts.resolve(comps);
                install(proc, fs.open_rel(rel, flags)?, flags)
            })
        })
    }

    /// `close(2)`: the descriptor goes now; the description, and what it
    /// holds, when the last `dup` and the last call in flight on it are done.
    pub fn sys_close(&self, fd: Fd) -> KResult<()> {
        self.syscall(Sysno::Close, |proc| {
            let desc = proc.fds.lock().remove(fd)?;
            drop(desc); // outside the table's lock
            Ok(())
        })
    }

    /// `write(2)`: file writes advance the shared offset; pipe and socket
    /// writes may block the calling OS thread.
    pub fn sys_write(&self, fd: Fd, data: &[u8]) -> KResult<usize> {
        self.syscall(Sysno::Write, |proc| description(proc, fd)?.write(data))
    }

    /// `read(2)`: file reads advance the shared offset; pipe and socket
    /// reads may block the calling OS thread.
    pub fn sys_read(&self, fd: Fd, buf: &mut [u8]) -> KResult<usize> {
        self.syscall(Sysno::Read, |proc| description(proc, fd)?.read(buf))
    }

    /// `pwrite(2)`: positional, does not move the shared offset.
    pub fn sys_pwrite(&self, fd: Fd, offset: u64, data: &[u8]) -> KResult<usize> {
        self.syscall(Sysno::Pwrite, |proc| {
            description(proc, fd)?.pwrite(offset, data)
        })
    }

    /// `pread(2)`.
    pub fn sys_pread(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> KResult<usize> {
        self.syscall(Sysno::Pread, |proc| {
            description(proc, fd)?.pread(offset, buf)
        })
    }

    /// `lseek(2)`.
    pub fn sys_lseek(&self, fd: Fd, offset: i64, whence: Whence) -> KResult<u64> {
        self.syscall(Sysno::Lseek, |proc| {
            description(proc, fd)?.seek(offset, whence)
        })
    }

    /// `ftruncate(2)`.
    pub fn sys_ftruncate(&self, fd: Fd, len: u64) -> KResult<()> {
        self.syscall(Sysno::Ftruncate, |proc| {
            description(proc, fd)?.truncate(len)
        })
    }

    /// `dup(2)`.
    pub fn sys_dup(&self, fd: Fd) -> KResult<Fd> {
        self.syscall(Sysno::Dup, |proc| proc.fds.lock().dup(fd))
    }

    /// `dup2(2)`.
    pub fn sys_dup2(&self, fd: Fd, newfd: Fd) -> KResult<Fd> {
        self.syscall(Sysno::Dup2, |proc| {
            let old = proc.fds.lock().dup2(fd, newfd)?;
            drop(old); // what `newfd` was, outside the table's lock
            Ok(newfd)
        })
    }

    /// `pipe(2)`: returns (read end, write end).
    pub fn sys_pipe(&self) -> KResult<(Fd, Fd)> {
        self.syscall(Sysno::Pipe, |proc| {
            let (r, w) = pipe::pipe();
            Ok((
                install(proc, Arc::new(r), OpenFlags::RDONLY)?,
                install(proc, Arc::new(w), OpenFlags::WRONLY)?,
            ))
        })
    }

    // ----- sockets & readiness ----------------------------------------------

    /// `socketpair(2)`: a connected bidirectional loopback stream pair.
    /// Both descriptors land in the calling thread's process, opened
    /// read/write.
    pub fn sys_socketpair(&self) -> KResult<(Fd, Fd)> {
        self.syscall(Sysno::Socketpair, |proc| {
            let (a, b) = socket::socketpair();
            Ok((
                install(proc, Arc::new(a), OpenFlags::RDWR)?,
                install(proc, Arc::new(b), OpenFlags::RDWR)?,
            ))
        })
    }

    /// `listen(2)`-ish: install `listener` into the calling process's FD
    /// table so it can be `accept`ed from and watched with epoll. The
    /// listener object itself is created raw ([`Listener::new`]) and shared
    /// between client and server ULPs by `Arc`, the same way raw pipe ends
    /// are plumbed across processes in this simulation.
    pub fn sys_listen(&self, listener: &Arc<Listener>) -> KResult<Fd> {
        self.syscall(Sysno::Listen, |proc| {
            // Read/write like any socket: `read`/`write` on it get the
            // object's `EINVAL`, not the access mode's `EBADF`.
            install(proc, listener.clone(), OpenFlags::RDWR)
        })
    }

    /// `connect(2)` against an in-kernel listener: manufactures a fresh
    /// socketpair, queues the server half on the listener's accept queue
    /// (firing its readiness edge) and installs the client half in the
    /// calling process. `EAGAIN` when the backlog is full.
    pub fn sys_connect(&self, listener: &Arc<Listener>) -> KResult<Fd> {
        self.syscall(Sysno::Connect, |proc| {
            install(proc, Arc::new(listener.connect()?), OpenFlags::RDWR)
        })
    }

    /// `accept(2)`: pop the next queued connection from a listener
    /// descriptor, blocking the calling OS thread while the queue is empty
    /// (the sleep appears as a nested `accept_block` span). `EINVAL` if the
    /// descriptor is not a listener.
    pub fn sys_accept(&self, fd: Fd) -> KResult<Fd> {
        self.syscall(Sysno::Accept, |proc| {
            // Blocks outside any FD-table lock: other threads must be able
            // to install/close descriptors while this accept sleeps.
            let end = description(proc, fd)?.file.accept()?;
            install(proc, Arc::new(end), OpenFlags::RDWR)
        })
    }

    /// `epoll_create(2)`: a fresh epoll instance with an empty interest
    /// list.
    pub fn sys_epoll_create(&self) -> KResult<Fd> {
        self.syscall(Sysno::EpollCreate, |proc| {
            install(proc, Arc::new(EpollObject::default()), OpenFlags::RDWR)
        })
    }

    /// `epoll_ctl(2)`: add, modify or delete one interest-list entry.
    ///
    /// Registration is keyed by the *fd number* (what `epoll_wait` reports)
    /// but identifies the watched object by open file description — so it
    /// survives `dup2` shuffles of the original slot and auto-deregisters
    /// when the last descriptor to the description closes, as on Linux.
    ///
    /// Errors: `EBADF` if `epfd` or `fd` is not open; `EINVAL` if `epfd` is
    /// not an epoll descriptor, `fd` is an epoll descriptor (this kernel
    /// does not nest epoll instances), or `epfd == fd`; `EPERM` if the
    /// target is a regular file (always ready, unwatchable — Linux returns
    /// the same); `EEXIST` on `Add` of an already-registered descriptor;
    /// `ENOENT` on `Mod`/`Del` of an unregistered one.
    pub fn sys_epoll_ctl(&self, epfd: Fd, op: EpollOp, fd: Fd, events: PollEvents) -> KResult<()> {
        self.syscall(Sysno::EpollCtl, |proc| {
            if epfd == fd {
                return Err(Errno::EINVAL);
            }
            let epd = description(proc, epfd)?;
            let ep = epd.file.as_epoll().ok_or(Errno::EINVAL)?;
            let target = description(proc, fd)?;
            if target.file.as_epoll().is_some() {
                return Err(Errno::EINVAL);
            }
            let watch = target.file.watch().ok_or(Errno::EPERM)?;
            let mut interest = ep.interest.lock();
            let existing_is_live = interest
                .get(&fd.0)
                .and_then(|e| e.target.upgrade())
                .is_some_and(|d| Arc::ptr_eq(&d, &target));
            match op {
                EpollOp::Add => {
                    if existing_is_live {
                        return Err(Errno::EEXIST);
                    }
                    // A dead or stale entry under this fd number is
                    // replaced: the old description is gone (or the slot
                    // was reused), so this is a fresh registration.
                    watch.subscribe(&ep.waker);
                    interest.insert(
                        fd.0,
                        EpollEntry {
                            target: Arc::downgrade(&target),
                            interest: events,
                        },
                    );
                    // The new target may already be ready: force sleeping
                    // epoll_wait callers to rescan.
                    ep.waker.wake();
                }
                EpollOp::Mod => {
                    if !existing_is_live {
                        return Err(Errno::ENOENT);
                    }
                    interest
                        .get_mut(&fd.0)
                        .expect("liveness checked above")
                        .interest = events;
                    ep.waker.wake();
                }
                EpollOp::Del => {
                    if !existing_is_live {
                        return Err(Errno::ENOENT);
                    }
                    interest.remove(&fd.0);
                }
            }
            Ok(())
        })
    }

    /// `epoll_wait(2)`: report up to `max_events` ready descriptors from
    /// the interest list, blocking the calling OS thread (nested
    /// `epoll_block_wait` span) until an edge fires, `timeout` elapses
    /// (returning an empty set), or the fault plan injects `EINTR`.
    ///
    /// Level-triggered: every call re-scans the watched objects' current
    /// state; nothing is consumed by reporting. Entries whose description
    /// has died (every descriptor to it closed) are pruned during the scan.
    pub fn sys_epoll_wait(
        &self,
        epfd: Fd,
        max_events: usize,
        timeout: Option<Duration>,
    ) -> KResult<Vec<(Fd, PollEvents)>> {
        self.syscall(Sysno::EpollWait, |proc| {
            if max_events == 0 {
                return Err(Errno::EINVAL);
            }
            let epd = description(proc, epfd)?;
            let ep = epd.file.as_epoll().ok_or(Errno::EINVAL)?;
            wait_ready(&ep.waker, timeout, || {
                let mut ready = Vec::new();
                ep.interest.lock().retain(|fdnum, entry| {
                    // A dead target means the last descriptor to the
                    // description closed: auto-deregister, as Linux does.
                    let Some(desc) = entry.target.upgrade() else {
                        return false;
                    };
                    let ev = revents(&desc, entry.interest);
                    if !ev.is_empty() && ready.len() < max_events {
                        ready.push((Fd(*fdnum), ev));
                    }
                    true
                });
                let any = !ready.is_empty();
                (ready, any)
            })
        })
    }

    /// `poll(2)`: readiness wait over an explicit descriptor set. Returns
    /// the revents for each requested entry, in order; an entry whose fd is
    /// not open reports `NVAL` (POSIX: not an error for the call). Regular
    /// files are always readable and writable. Blocks (nested
    /// `epoll_block_wait` span — one sleep primitive serves both families)
    /// until something is ready, `timeout` elapses, or the fault plan
    /// injects `EINTR`.
    pub fn sys_poll(
        &self,
        fds: &[(Fd, PollEvents)],
        timeout: Option<Duration>,
    ) -> KResult<Vec<PollEvents>> {
        self.syscall(Sysno::Poll, |proc| {
            // One throwaway waker subscribed to every watchable target for
            // the duration of the call, and unsubscribed on the way out.
            let waker = Arc::new(PollWaker::new(WakeSite::Poll));
            let targets: Vec<Option<DescriptionRef>> = {
                let table = proc.fds.lock();
                fds.iter().map(|(fd, _)| table.get(*fd).ok()).collect()
            };
            let watches = || targets.iter().flatten().filter_map(|d| d.file.watch());
            watches().for_each(|w| w.subscribe(&waker));
            let res = wait_ready(&waker, timeout, || {
                let revents: Vec<PollEvents> = (targets.iter().zip(fds))
                    .map(|(target, (_, interest))| match target {
                        Some(desc) => revents(desc, *interest),
                        None => PollEvents::NVAL,
                    })
                    .collect();
                let any = revents.iter().any(|ev| !ev.is_empty());
                (revents, any)
            });
            watches().for_each(|w| w.unsubscribe(&waker));
            res
        })
    }

    // ----- namespace --------------------------------------------------------

    /// `unlink(2)`.
    pub fn sys_unlink(&self, path: &str) -> KResult<()> {
        self.syscall(Sysno::Unlink, |proc| {
            with_path(proc, path, |comps| {
                let (fs, rel) = self.mounts.resolve(comps);
                fs.unlink_rel(rel)
            })
        })
    }

    /// `mkdir(2)`.
    pub fn sys_mkdir(&self, path: &str) -> KResult<()> {
        self.syscall(Sysno::Mkdir, |proc| {
            with_path(proc, path, |comps| {
                let (fs, rel) = self.mounts.resolve(comps);
                fs.mkdir_rel(rel).map(|_| ())
            })
        })
    }

    /// `rmdir(2)`.
    pub fn sys_rmdir(&self, path: &str) -> KResult<()> {
        self.syscall(Sysno::Rmdir, |proc| {
            with_path(proc, path, |comps| {
                let (fs, rel) = self.mounts.resolve(comps);
                fs.rmdir_rel(rel)
            })
        })
    }

    /// `link(2)`. Both names must resolve inside one mount — a hard link
    /// across filesystems is `EXDEV`, as on Linux.
    pub fn sys_link(&self, existing: &str, new: &str) -> KResult<()> {
        self.syscall(Sysno::Link, |proc| {
            self.on_one_mount(proc, existing, new, |fs, rel_a, rel_b| {
                fs.link_rel(rel_a, rel_b)
            })
        })
    }

    /// `rename(2)`. Cross-mount renames are `EXDEV` (userspace `mv` would
    /// fall back to copy+unlink; this kernel does not).
    pub fn sys_rename(&self, from: &str, to: &str) -> KResult<()> {
        self.syscall(Sysno::Rename, |proc| {
            self.on_one_mount(proc, from, to, |fs, rel_a, rel_b| {
                fs.rename_rel(rel_a, rel_b)
            })
        })
    }

    /// Resolve two paths and run `f` on the one filesystem serving both;
    /// `EXDEV` when they lie on different mounts.
    fn on_one_mount(
        &self,
        proc: &Process,
        a: &str,
        b: &str,
        f: impl FnOnce(&dyn crate::fs::FileSystem, &[&str], &[&str]) -> KResult<()>,
    ) -> KResult<()> {
        with_path(proc, a, |a| {
            with_path(proc, b, |b| {
                let (fs_a, rel_a) = self.mounts.resolve(a);
                let (fs_b, rel_b) = self.mounts.resolve(b);
                if !same_fs(fs_a, fs_b) {
                    return Err(Errno::EXDEV);
                }
                f(fs_a.as_ref(), rel_a, rel_b)
            })
        })
    }

    /// `stat(2)`.
    pub fn sys_stat(&self, path: &str) -> KResult<FileStat> {
        self.syscall(Sysno::Stat, |proc| {
            with_path(proc, path, |comps| {
                let (fs, rel) = self.mounts.resolve(comps);
                fs.stat_rel(rel)
            })
        })
    }

    /// `readdir(3)`-ish: whole directory listing. Mount points that sit
    /// directly under the listed directory are synthesized into the result
    /// (the tmpfs root has no `proc` entry of its own), the way the real
    /// VFS overlays mounted roots onto the underlying directory.
    pub fn sys_readdir(&self, path: &str) -> KResult<Vec<DirEntry>> {
        self.syscall(Sysno::Readdir, |proc| {
            with_path(proc, path, |comps| {
                let (fs, rel) = self.mounts.resolve(comps);
                let mut entries = fs.readdir_rel(rel)?;
                for name in self.mounts.child_mounts(comps) {
                    if !entries.iter().any(|e| e.name == name) {
                        let mut mp = comps.to_vec();
                        mp.push(&name);
                        let (mfs, mrel) = self.mounts.resolve(&mp);
                        let ino = mfs
                            .stat_rel(mrel)
                            .map(|st| st.ino)
                            .unwrap_or(crate::fs::Ino(0));
                        entries.push(DirEntry {
                            name,
                            ino,
                            is_dir: true,
                        });
                    }
                }
                Ok(entries)
            })
        })
    }

    // ----- signals ----------------------------------------------------------

    /// `kill(2)`: post a signal to a process.
    pub fn sys_kill(&self, target: Pid, sig: Signal) -> KResult<()> {
        self.syscall(Sysno::Kill, |_proc| {
            let t = self.process(target).ok_or(Errno::ESRCH)?;
            t.signals.post(sig);
            Ok(())
        })
    }

    /// `sigprocmask(2)` on the calling thread's bound process.
    pub fn sys_sigprocmask(&self, how: MaskHow, set: SigSet) -> KResult<SigSet> {
        self.syscall(Sysno::Sigprocmask, |proc| {
            Ok(proc.signals.set_mask(how, set))
        })
    }

    /// `sigpending(2)`.
    pub fn sys_sigpending(&self) -> KResult<SigSet> {
        self.syscall(Sysno::Sigpending, |proc| Ok(proc.signals.pending()))
    }

    /// Dequeue one deliverable signal for the bound process (the simulated
    /// kernel's "return to userspace" delivery point).
    pub fn sys_take_signal(&self) -> KResult<Option<Signal>> {
        self.syscall(Sysno::TakeSignal, |proc| {
            Ok(proc.signals.take_deliverable())
        })
    }

    // ----- blocking helpers ---------------------------------------------------

    /// `nanosleep(2)`-style blocking sleep: blocks the calling OS thread.
    pub fn sys_sleep(&self, d: std::time::Duration) -> KResult<()> {
        self.syscall(Sysno::Nanosleep, |_proc| {
            std::thread::sleep(d);
            Ok(())
        })
    }
}

/// Same mounted filesystem? Compares the data pointers of the two handles
/// (not the fat-pointer vtables, which may legally differ per codegen unit).
fn same_fs(a: &Arc<dyn crate::fs::FileSystem>, b: &Arc<dyn crate::fs::FileSystem>) -> bool {
    std::ptr::eq(Arc::as_ptr(a) as *const (), Arc::as_ptr(b) as *const ())
}

/// What a readiness waiter interested in `interest` hears of `desc` right
/// now: the object's level-triggered snapshot, cut down to the interest plus
/// the always-reported `ERR`/`HUP`.
fn revents(desc: &Description, interest: PollEvents) -> PollEvents {
    desc.file.poll_events() & (interest | PollEvents::ERR | PollEvents::HUP)
}

/// The one readiness loop behind `epoll_wait` and `poll`: scan, and sleep on
/// `waker` until a scan finds something, `timeout` elapses (the last, empty
/// scan is the result) or the fault plan injects `EINTR`. `scan` returns
/// what it found and whether that counts as ready.
///
/// The generation is read before each scan, so an edge firing between scan
/// and sleep ends the sleep at once. The waker's queue opens the
/// `epoll_block_wait` span on the first real sleep and, at the end,
/// attributes the edge that ended the last one — but only to a wait that
/// ended ready: a timeout or an injected `EINTR` claims no edge.
fn wait_ready<R>(
    waker: &PollWaker,
    timeout: Option<Duration>,
    mut scan: impl FnMut() -> (R, bool),
) -> KResult<R> {
    let deadline = timeout.map(|t| Instant::now() + t);
    let mut wait = waker.queue.wait(deadline);
    let res = loop {
        let gen = waker.generation();
        let (found, ready) = scan();
        if ready || deadline.is_some_and(|d| Instant::now() >= d) {
            break Ok((found, ready));
        }
        // A signal may interrupt the wait before anything is ready.
        if fault::fire(FaultKind::Eintr) {
            break Err(Errno::EINTR);
        }
        waker.wait_in(&mut wait, gen);
    };
    wait.finish(&res, matches!(res, Ok((_, true))));
    res.map(|(found, _)| found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelRef;

    fn boot() -> (KernelRef, Pid) {
        let k = Kernel::native();
        let pid = k.spawn_process(Some(Pid(1)), "test");
        k.bind_current(pid);
        (k, pid)
    }

    fn wflags() -> OpenFlags {
        OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC
    }

    #[test]
    fn getpid_returns_bound_process() {
        let (k, pid) = boot();
        assert_eq!(k.sys_getpid().unwrap(), pid);
        k.unbind_current();
        assert_eq!(k.sys_getpid().unwrap_err(), Errno::ESRCH);
    }

    #[test]
    fn getppid_and_cwd() {
        let (k, _) = boot();
        assert_eq!(k.sys_getppid().unwrap(), Pid(1));
        assert_eq!(k.sys_getcwd().unwrap(), "/");
        k.sys_mkdir("/work").unwrap();
        k.sys_chdir("/work").unwrap();
        assert_eq!(k.sys_getcwd().unwrap(), "/work");
        // Relative resolution now uses the new cwd.
        let fd = k.sys_open("data.bin", wflags()).unwrap();
        k.sys_close(fd).unwrap();
        assert!(k.sys_stat("/work/data.bin").is_ok());
        k.unbind_current();
    }

    #[test]
    fn open_write_read_via_fds() {
        let (k, _) = boot();
        let fd = k
            .sys_open("/f", OpenFlags::RDWR | OpenFlags::CREAT)
            .unwrap();
        assert_eq!(k.sys_write(fd, b"abcdef").unwrap(), 6);
        // Offset advanced; reading now hits EOF.
        let mut buf = [0u8; 6];
        assert_eq!(k.sys_read(fd, &mut buf).unwrap(), 0);
        k.sys_lseek(fd, 0, Whence::Set).unwrap();
        assert_eq!(k.sys_read(fd, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"abcdef");
        k.sys_close(fd).unwrap();
        k.unbind_current();
    }

    #[test]
    fn fds_are_per_process() {
        // The system-call-consistency hazard, distilled: an fd opened while
        // bound to process A is EBADF when the same OS thread is bound to B.
        let (k, _a) = boot();
        let fd = k.sys_open("/shared", wflags()).unwrap();
        let b = k.spawn_process(Some(Pid(1)), "other");
        {
            let _g = k.bind_scope(b);
            assert_eq!(k.sys_write(fd, b"x").unwrap_err(), Errno::EBADF);
        }
        // Back under A the descriptor works again.
        assert_eq!(k.sys_write(fd, b"x").unwrap(), 1);
        k.unbind_current();
    }

    #[test]
    fn append_mode_appends() {
        let (k, _) = boot();
        let fd = k.sys_open("/log", wflags()).unwrap();
        k.sys_write(fd, b"one").unwrap();
        k.sys_close(fd).unwrap();
        let fd = k
            .sys_open("/log", OpenFlags::WRONLY | OpenFlags::APPEND)
            .unwrap();
        k.sys_write(fd, b"two").unwrap();
        k.sys_close(fd).unwrap();
        assert_eq!(k.sys_stat("/log").unwrap().size, 6);
        k.unbind_current();
    }

    #[test]
    fn lseek_whences() {
        let (k, _) = boot();
        let fd = k
            .sys_open("/s", OpenFlags::RDWR | OpenFlags::CREAT)
            .unwrap();
        k.sys_write(fd, b"0123456789").unwrap();
        assert_eq!(k.sys_lseek(fd, -4, Whence::End).unwrap(), 6);
        assert_eq!(k.sys_lseek(fd, 2, Whence::Cur).unwrap(), 8);
        assert_eq!(
            k.sys_lseek(fd, -100, Whence::Cur).unwrap_err(),
            Errno::EINVAL
        );
        k.unbind_current();
    }

    #[test]
    fn pwrite_pread_do_not_move_offset() {
        let (k, _) = boot();
        let fd = k
            .sys_open("/p", OpenFlags::RDWR | OpenFlags::CREAT)
            .unwrap();
        k.sys_pwrite(fd, 3, b"xyz").unwrap();
        let mut buf = [0u8; 3];
        assert_eq!(k.sys_pread(fd, 3, &mut buf).unwrap(), 3);
        assert_eq!(&buf, b"xyz");
        assert_eq!(k.sys_lseek(fd, 0, Whence::Cur).unwrap(), 0);
        k.unbind_current();
    }

    #[test]
    fn huge_offsets_are_efbig_and_leave_the_file_alone() {
        use crate::fs::MAX_FILE_SIZE;
        let (k, _) = boot();
        let fd = k
            .sys_open("/big", OpenFlags::RDWR | OpenFlags::CREAT)
            .unwrap();
        k.sys_write(fd, b"abc").unwrap();
        // `offset + len` wraps: used to index out of bounds.
        assert_eq!(
            k.sys_pwrite(fd, u64::MAX - 4, b"12345678").unwrap_err(),
            Errno::EFBIG
        );
        // A terabyte of zero fill inside the simulation's own process.
        assert_eq!(k.sys_pwrite(fd, 1 << 40, b"x").unwrap_err(), Errno::EFBIG);
        assert_eq!(k.sys_ftruncate(fd, 1 << 40).unwrap_err(), Errno::EFBIG);
        assert_eq!(
            k.sys_pwrite(fd, MAX_FILE_SIZE, b"x").unwrap_err(),
            Errno::EFBIG
        );
        assert_eq!(
            k.sys_ftruncate(fd, MAX_FILE_SIZE + 1).unwrap_err(),
            Errno::EFBIG
        );
        // Seeking out there is legal; writing there is not, and a failed
        // write moves nothing.
        let far = i64::MAX as u64;
        assert_eq!(k.sys_lseek(fd, i64::MAX, Whence::Set).unwrap(), far);
        assert_eq!(k.sys_write(fd, b"x").unwrap_err(), Errno::EFBIG);
        assert_eq!(k.sys_lseek(fd, 0, Whence::Cur).unwrap(), far);
        assert_eq!(k.sys_lseek(fd, 1, Whence::Cur).unwrap_err(), Errno::EINVAL);
        let mut buf = [0u8; 4];
        assert_eq!(k.sys_read(fd, &mut buf).unwrap(), 0, "far past EOF");
        // The file is what it was.
        assert_eq!(k.sys_stat("/big").unwrap().size, 3);
        assert_eq!(k.sys_pread(fd, 0, &mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"abc");
        k.unbind_current();
    }

    #[test]
    fn dup_shares_offset() {
        let (k, _) = boot();
        let fd = k
            .sys_open("/d", OpenFlags::RDWR | OpenFlags::CREAT)
            .unwrap();
        let dup = k.sys_dup(fd).unwrap();
        k.sys_write(fd, b"abc").unwrap();
        assert_eq!(k.sys_lseek(dup, 0, Whence::Cur).unwrap(), 3);
        k.sys_close(fd).unwrap();
        // Description still alive via dup: writes continue at the offset.
        k.sys_write(dup, b"def").unwrap();
        assert_eq!(k.sys_stat("/d").unwrap().size, 6);
        k.unbind_current();
    }

    #[test]
    fn pipe_syscalls_roundtrip() {
        let (k, _) = boot();
        let (r, w) = k.sys_pipe().unwrap();
        assert_eq!(k.sys_write(w, b"ping").unwrap(), 4);
        let mut buf = [0u8; 8];
        assert_eq!(k.sys_read(r, &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        // Wrong-direction operations fail.
        assert_eq!(k.sys_write(r, b"x").unwrap_err(), Errno::EBADF);
        assert_eq!(k.sys_read(w, &mut buf).unwrap_err(), Errno::EBADF);
        k.unbind_current();
    }

    #[test]
    fn socketpair_syscalls_roundtrip() {
        let (k, _) = boot();
        let (a, b) = k.sys_socketpair().unwrap();
        assert_eq!(k.sys_write(a, b"ping").unwrap(), 4);
        let mut buf = [0u8; 8];
        assert_eq!(k.sys_read(b, &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        // Bidirectional: the other direction is independent.
        assert_eq!(k.sys_write(b, b"pong!").unwrap(), 5);
        assert_eq!(k.sys_read(a, &mut buf).unwrap(), 5);
        k.sys_close(a).unwrap();
        // Peer close → EOF then EPIPE.
        assert_eq!(k.sys_read(b, &mut buf).unwrap(), 0);
        assert_eq!(k.sys_write(b, b"x").unwrap_err(), Errno::EPIPE);
        k.unbind_current();
    }

    #[test]
    fn listen_connect_accept_via_syscalls() {
        let (k, _) = boot();
        let l = crate::socket::Listener::new();
        let lfd = k.sys_listen(&l).unwrap();
        let cfd = k.sys_connect(&l).unwrap();
        let sfd = k.sys_accept(lfd).unwrap();
        assert_eq!(k.sys_write(cfd, b"req").unwrap(), 3);
        let mut buf = [0u8; 8];
        assert_eq!(k.sys_read(sfd, &mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"req");
        // accept on a non-listener is EINVAL.
        assert_eq!(k.sys_accept(cfd).unwrap_err(), Errno::EINVAL);
        k.unbind_current();
    }

    #[test]
    fn epoll_reports_pipe_and_listener_readiness() {
        let (k, _) = boot();
        let ep = k.sys_epoll_create().unwrap();
        let (r, w) = k.sys_pipe().unwrap();
        let l = crate::socket::Listener::new();
        let lfd = k.sys_listen(&l).unwrap();
        k.sys_epoll_ctl(ep, EpollOp::Add, r, PollEvents::IN)
            .unwrap();
        k.sys_epoll_ctl(ep, EpollOp::Add, lfd, PollEvents::IN)
            .unwrap();
        // Nothing ready: a zero-ish timeout returns empty.
        let got = k
            .sys_epoll_wait(ep, 8, Some(Duration::from_millis(1)))
            .unwrap();
        assert!(got.is_empty());
        k.sys_write(w, b"x").unwrap();
        k.sys_connect(&l).unwrap();
        let mut got = k.sys_epoll_wait(ep, 8, None).unwrap();
        got.sort_by_key(|(fd, _)| fd.0);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, r);
        assert!(got[0].1.contains(PollEvents::IN));
        assert_eq!(got[1].0, lfd);
        assert!(got[1].1.contains(PollEvents::IN));
        // Level-triggered: unconsumed state reports again.
        let again = k.sys_epoll_wait(ep, 8, None).unwrap();
        assert_eq!(again.len(), 2);
        k.unbind_current();
    }

    #[test]
    fn poll_reports_nval_for_bad_fd() {
        let (k, _) = boot();
        let (r, w) = k.sys_pipe().unwrap();
        k.sys_write(w, b"x").unwrap();
        let revents = k
            .sys_poll(
                &[(r, PollEvents::IN), (Fd(99), PollEvents::IN)],
                Some(Duration::from_millis(1)),
            )
            .unwrap();
        assert!(revents[0].contains(PollEvents::IN));
        assert_eq!(revents[1], PollEvents::NVAL);
        k.unbind_current();
    }

    #[test]
    fn epoll_on_regular_file_is_eperm() {
        let (k, _) = boot();
        let ep = k.sys_epoll_create().unwrap();
        let fd = k.sys_open("/f", wflags()).unwrap();
        assert_eq!(
            k.sys_epoll_ctl(ep, EpollOp::Add, fd, PollEvents::IN)
                .unwrap_err(),
            Errno::EPERM
        );
        // But poll on one reports always-ready.
        let revents = k.sys_poll(&[(fd, PollEvents::OUT)], None).unwrap();
        assert!(revents[0].contains(PollEvents::OUT));
        k.unbind_current();
    }

    #[test]
    fn readonly_fd_cannot_write() {
        let (k, _) = boot();
        let fd = k.sys_open("/ro", wflags()).unwrap();
        k.sys_close(fd).unwrap();
        let fd = k.sys_open("/ro", OpenFlags::RDONLY).unwrap();
        assert_eq!(k.sys_write(fd, b"x").unwrap_err(), Errno::EBADF);
        k.unbind_current();
    }

    #[test]
    fn kill_and_masks() {
        let (k, pid) = boot();
        let other = k.spawn_process(Some(Pid(1)), "victim");
        k.sys_kill(other, Signal::SigUsr1).unwrap();
        assert!(k
            .process(other)
            .unwrap()
            .signals
            .pending()
            .contains(Signal::SigUsr1));
        // Self-delivery path with masking.
        k.sys_sigprocmask(MaskHow::Block, SigSet::with(&[Signal::SigUsr2]))
            .unwrap();
        k.sys_kill(pid, Signal::SigUsr2).unwrap();
        assert_eq!(k.sys_take_signal().unwrap(), None);
        k.sys_sigprocmask(MaskHow::Unblock, SigSet::with(&[Signal::SigUsr2]))
            .unwrap();
        assert_eq!(k.sys_take_signal().unwrap(), Some(Signal::SigUsr2));
        k.unbind_current();
    }

    #[test]
    fn close_releases_inode_once_dups_gone() {
        let (k, _) = boot();
        let fd = k.sys_open("/once", wflags()).unwrap();
        let dup = k.sys_dup(fd).unwrap();
        k.sys_unlink("/once").unwrap();
        let before = k.tmpfs().inode_count();
        k.sys_close(fd).unwrap();
        assert_eq!(k.tmpfs().inode_count(), before, "dup still holds the file");
        k.sys_close(dup).unwrap();
        assert_eq!(k.tmpfs().inode_count(), before - 1);
        k.unbind_current();
    }
}
