//! System-call veneers for ULPs.
//!
//! Each veneer forwards to the simulated kernel **through the calling OS
//! thread's binding** — i.e. through whatever kernel context currently runs
//! this UC. That reproduces the paper's hazard precisely (§I): from a
//! decoupled UC, `sys::getpid()` returns the *scheduler's* PID and
//! `sys::write()` hits the *scheduler's* FD table. The veneers therefore
//! run a consistency gate first: depending on
//! [`crate::runtime::ConsistencyMode`] a violation is ignored, recorded in
//! the runtime's audit log, or turned into a panic. The correct idiom is
//! the paper's: enclose the calls in [`crate::coupled_scope`] (or a manual
//! [`crate::couple()`] / [`crate::decouple()`] pair).
//!
//! The veneers also maintain the per-ULP [`crate::tls::errno`], as libc
//! would.

use crate::current::with_thread;
use crate::error::UlpError;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use ulp_kernel::fd::Fd;
use ulp_kernel::fs::{DirEntry, FileStat, OpenFlags, Whence};
use ulp_kernel::process::Pid;
use ulp_kernel::signal::{MaskHow, SigSet, Signal};
use ulp_kernel::{Aiocb, EpollOp, Errno, KResult, KernelRef, Listener, PollEvents};

/// Run one veneer: the consistency gate (when `call` names a gated system
/// call), the call itself against this thread's kernel, then `errno`.
///
/// Everything resolves through the thread block's borrow-free mirrors, so a
/// veneer clones no `Arc` and writes nothing another thread's calls write.
/// The borrows are held across `f` — across a *blocking* call, even — which
/// the mirrors' contract allows because `f` cannot context-switch: the
/// simulated kernel knows nothing of user contexts (the kernel crate does
/// not depend on this one), so the UC that enters `f` leaves it on the same
/// OS thread with the same runtime and the same TLS register installed.
#[inline]
fn veneer<T>(call: Option<&'static str>, f: impl FnOnce(&KernelRef) -> KResult<T>) -> KResult<T> {
    with_thread(|b| {
        let rt = b.rt().ok_or(Errno::ESRCH)?;
        let me = b.ulp();
        // The gate: flag system calls issued while decoupled — from an OS
        // thread that is not the calling UC's original kernel context, or
        // from the right one only because this `decouple()` happened to stay
        // home, which no program can count on.
        if let (Some(call), Some(me)) = (call, me) {
            if !me.is_coupled() {
                rt.report_violation(UlpError::ConsistencyViolation { ulp: me.id.0, call });
            }
        }
        let r = f(&rt.kernel);
        if let Some(me) = me {
            let errno = r.as_ref().err().map_or(0, Errno::as_raw);
            me.errno.store(errno, Ordering::Relaxed);
        }
        r
    })
}

/// A gated veneer (every real system call).
#[inline]
fn syscall<T>(call: &'static str, f: impl FnOnce(&KernelRef) -> KResult<T>) -> KResult<T> {
    veneer(Some(call), f)
}

/// `getpid()` — Table V's microbenchmark. From a decoupled UC this returns
/// the scheduling KC's PID, which is exactly the inconsistency the paper
/// describes.
pub fn getpid() -> KResult<Pid> {
    syscall("getpid", |k| k.sys_getpid())
}

/// `getppid()`.
pub fn getppid() -> KResult<Pid> {
    syscall("getppid", |k| k.sys_getppid())
}

/// `getcwd()`.
pub fn getcwd() -> KResult<String> {
    syscall("getcwd", |k| k.sys_getcwd())
}

/// `chdir(2)`.
pub fn chdir(path: &str) -> KResult<()> {
    syscall("chdir", |k| k.sys_chdir(path))
}

/// `open(2)`.
pub fn open(path: &str, flags: OpenFlags) -> KResult<Fd> {
    syscall("open", |k| k.sys_open(path, flags))
}

/// `close(2)`.
pub fn close(fd: Fd) -> KResult<()> {
    syscall("close", |k| k.sys_close(fd))
}

/// `read(2)` — blocking on pipes: the calling kernel context sleeps.
pub fn read(fd: Fd, buf: &mut [u8]) -> KResult<usize> {
    syscall("read", |k| k.sys_read(fd, buf))
}

/// `write(2)`.
pub fn write(fd: Fd, data: &[u8]) -> KResult<usize> {
    syscall("write", |k| k.sys_write(fd, data))
}

/// `pread(2)`.
pub fn pread(fd: Fd, offset: u64, buf: &mut [u8]) -> KResult<usize> {
    syscall("pread", |k| k.sys_pread(fd, offset, buf))
}

/// `pwrite(2)`.
pub fn pwrite(fd: Fd, offset: u64, data: &[u8]) -> KResult<usize> {
    syscall("pwrite", |k| k.sys_pwrite(fd, offset, data))
}

/// `lseek(2)`.
pub fn lseek(fd: Fd, offset: i64, whence: Whence) -> KResult<u64> {
    syscall("lseek", |k| k.sys_lseek(fd, offset, whence))
}

/// `ftruncate(2)`.
pub fn ftruncate(fd: Fd, len: u64) -> KResult<()> {
    syscall("ftruncate", |k| k.sys_ftruncate(fd, len))
}

/// `dup(2)`.
pub fn dup(fd: Fd) -> KResult<Fd> {
    syscall("dup", |k| k.sys_dup(fd))
}

/// `dup2(2)`.
pub fn dup2(fd: Fd, newfd: Fd) -> KResult<Fd> {
    syscall("dup2", |k| k.sys_dup2(fd, newfd))
}

/// `pipe(2)`.
pub fn pipe() -> KResult<(Fd, Fd)> {
    syscall("pipe", |k| k.sys_pipe())
}

/// `socketpair(2)`: a connected bidirectional loopback stream pair.
pub fn socketpair() -> KResult<(Fd, Fd)> {
    syscall("socketpair", |k| k.sys_socketpair())
}

/// `listen(2)`-ish: install a shared [`Listener`] in the calling ULP's FD
/// table so it can be `accept`ed from and watched with epoll.
pub fn listen(listener: &Arc<Listener>) -> KResult<Fd> {
    syscall("listen", |k| k.sys_listen(listener))
}

/// `connect(2)` against an in-kernel listener: returns the client end of a
/// fresh connection.
pub fn connect(listener: &Arc<Listener>) -> KResult<Fd> {
    syscall("connect", |k| k.sys_connect(listener))
}

/// `accept(2)` — blocking: the calling kernel context sleeps until a client
/// connects.
pub fn accept(fd: Fd) -> KResult<Fd> {
    syscall("accept", |k| k.sys_accept(fd))
}

/// `epoll_create(2)`.
pub fn epoll_create() -> KResult<Fd> {
    syscall("epoll_create", |k| k.sys_epoll_create())
}

/// `epoll_ctl(2)`: add/modify/delete one interest-list entry.
pub fn epoll_ctl(epfd: Fd, op: EpollOp, fd: Fd, events: PollEvents) -> KResult<()> {
    syscall("epoll_ctl", |k| k.sys_epoll_ctl(epfd, op, fd, events))
}

/// `epoll_wait(2)` — blocking: the calling kernel context sleeps until a
/// watched descriptor becomes ready or `timeout` elapses (`None` waits
/// indefinitely). Returns `(registered fd, revents)` pairs.
pub fn epoll_wait(
    epfd: Fd,
    max_events: usize,
    timeout: Option<Duration>,
) -> KResult<Vec<(Fd, PollEvents)>> {
    syscall("epoll_wait", |k| {
        k.sys_epoll_wait(epfd, max_events, timeout)
    })
}

/// `poll(2)` — blocking readiness wait over an explicit descriptor set.
/// Returns revents aligned with the request order.
pub fn poll(fds: &[(Fd, PollEvents)], timeout: Option<Duration>) -> KResult<Vec<PollEvents>> {
    syscall("poll", |k| k.sys_poll(fds, timeout))
}

/// `unlink(2)`.
pub fn unlink(path: &str) -> KResult<()> {
    syscall("unlink", |k| k.sys_unlink(path))
}

/// `mkdir(2)`.
pub fn mkdir(path: &str) -> KResult<()> {
    syscall("mkdir", |k| k.sys_mkdir(path))
}

/// `rmdir(2)`.
pub fn rmdir(path: &str) -> KResult<()> {
    syscall("rmdir", |k| k.sys_rmdir(path))
}

/// `link(2)`.
pub fn link(existing: &str, new: &str) -> KResult<()> {
    syscall("link", |k| k.sys_link(existing, new))
}

/// `rename(2)`.
pub fn rename(from: &str, to: &str) -> KResult<()> {
    syscall("rename", |k| k.sys_rename(from, to))
}

/// `stat(2)`.
pub fn stat(path: &str) -> KResult<FileStat> {
    syscall("stat", |k| k.sys_stat(path))
}

/// `readdir(3)`.
pub fn readdir(path: &str) -> KResult<Vec<DirEntry>> {
    syscall("readdir", |k| k.sys_readdir(path))
}

/// `kill(2)`.
pub fn kill(target: Pid, sig: Signal) -> KResult<()> {
    syscall("kill", |k| k.sys_kill(target, sig))
}

/// `sigprocmask(2)`. The resulting mask is also recorded on the calling
/// UC so `Config::save_sigmask` (ucontext-style switching) can carry it
/// across kernel contexts.
pub fn sigprocmask(how: MaskHow, set: SigSet) -> KResult<SigSet> {
    let (old, mask) = syscall("sigprocmask", |k| {
        let old = k.sys_sigprocmask(how, set)?;
        // Re-read the effective mask from the executing process.
        Ok((old, k.with_bound_process(|p| p.signals.mask())))
    })?;
    if let Some(mask) = mask {
        with_thread(|b| {
            if let Some(me) = b.ulp() {
                // Note it as installed on this kernel context so the lazy
                // carry in the switch path doesn't redundantly re-install
                // it.
                me.sigmask.set(mask);
                b.set_installed_mask(Some(mask.bits()));
            }
        });
    }
    Ok(old)
}

/// `sigpending(2)`.
pub fn sigpending() -> KResult<SigSet> {
    syscall("sigpending", |k| k.sys_sigpending())
}

/// Dequeue one deliverable signal for the bound process.
pub fn take_signal() -> KResult<Option<Signal>> {
    syscall("take_signal", |k| k.sys_take_signal())
}

/// `nanosleep(2)` — a blocking system call that parks the kernel context.
pub fn sleep(d: Duration) -> KResult<()> {
    syscall("nanosleep", |k| k.sys_sleep(d))
}

/// `aio_write(3)` (submission is a library call in glibc, so no gate: the
/// helper thread performs the actual system call under the submitter's
/// identity).
pub fn aio_write(fd: Fd, offset: u64, data: Arc<Vec<u8>>) -> KResult<Aiocb> {
    veneer(None, |k| k.aio_write(fd, offset, data))
}

/// `aio_read(3)`.
pub fn aio_read(fd: Fd, offset: u64, len: usize) -> KResult<Aiocb> {
    veneer(None, |k| k.aio_read(fd, offset, len))
}

/// `waitpid(2)` for the calling ULP's children.
pub fn waitpid(child: Option<Pid>) -> KResult<(Pid, i32)> {
    syscall("waitpid", |k| {
        let me = k.sys_getpid()?;
        k.waitpid(me, child)
    })
}
