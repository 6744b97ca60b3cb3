//! POSIX AIO, reimplemented the way glibc implements it.
//!
//! This is the baseline the paper compares ULP against (§II, §VI-D): "the
//! current Linux AIO implementation works as follows; 1) a PThread is
//! created at the first call of `aio_read()` or `aio_write()`, 2) the main
//! thread delegates the I/O operation to the created thread, and 3) it waits
//! for the completion of the I/O by calling `aio_return()` or
//! `aio_suspend()`." We reproduce exactly that: a helper OS thread spawned
//! lazily on first use, a submission queue, and completion observed either
//! by polling (`Aiocb::error` / `Aiocb::aio_return` — the ULT-friendly way)
//! or by blocking (`Aiocb::suspend`).

use crate::errno::{Errno, KResult};
use crate::fd::Fd;
use crate::kernel::{Kernel, KernelRef};
use crate::process::Pid;
use crate::trace::{self, SyscallPhase, Sysno};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use std::sync::{Arc, Weak};
use std::time::Duration;

#[derive(Debug)]
enum AioOp {
    Write { offset: u64, data: Arc<Vec<u8>> },
    Read { offset: u64, len: usize },
}

struct AioJob {
    pid: Pid,
    fd: Fd,
    op: AioOp,
    cb: Arc<AiocbInner>,
}

#[derive(Debug)]
enum AioState {
    InProgress,
    Done {
        res: KResult<usize>,
        data: Option<Vec<u8>>,
    },
    Consumed,
}

#[derive(Debug)]
struct AiocbInner {
    state: Mutex<AioState>,
    done: Condvar,
}

/// An asynchronous I/O control block — the handle `aio_write`/`aio_read`
/// return, mirroring `struct aiocb`.
#[derive(Clone, Debug)]
pub struct Aiocb {
    inner: Arc<AiocbInner>,
}

impl Aiocb {
    fn new() -> Aiocb {
        Aiocb {
            inner: Arc::new(AiocbInner {
                state: Mutex::new(AioState::InProgress),
                done: Condvar::new(),
            }),
        }
    }

    /// `aio_error(3)`: `Some(EINPROGRESS)` while the request runs, `None`
    /// once it completed successfully, `Some(e)` if it failed.
    pub fn error(&self) -> Option<Errno> {
        match &*self.inner.state.lock() {
            AioState::InProgress => Some(Errno::EINPROGRESS),
            AioState::Done { res: Ok(_), .. } => None,
            AioState::Done { res: Err(e), .. } => Some(*e),
            AioState::Consumed => None,
        }
    }

    /// `aio_return(3)`: fetch (and consume) the final byte count. Calling it
    /// while the request is in flight is `EINPROGRESS`; calling it twice is
    /// `EINVAL` (as with glibc, whose behaviour is undefined — we pick the
    /// strict reading).
    pub fn aio_return(&self) -> KResult<usize> {
        let mut st = self.inner.state.lock();
        match &*st {
            AioState::InProgress => Err(Errno::EINPROGRESS),
            AioState::Consumed => Err(Errno::EINVAL),
            AioState::Done { res, .. } => {
                let r = *res;
                *st = AioState::Consumed;
                r
            }
        }
    }

    /// `aio_suspend(3)` for a single control block: put the calling OS
    /// thread to sleep until completion. The sleep (if any) is bracketed by
    /// an `aio_suspend` span through the syscall observer hook.
    pub fn suspend(&self) {
        let mut st = self.inner.state.lock();
        if !matches!(*st, AioState::InProgress) {
            return;
        }
        trace::emit(Sysno::AioSuspend, SyscallPhase::Enter);
        while matches!(*st, AioState::InProgress) {
            self.inner.done.wait(&mut st);
        }
        trace::emit(Sysno::AioSuspend, SyscallPhase::Exit { errno: 0 });
    }

    /// `aio_suspend` with a timeout; `false` on `EAGAIN` (timed out). A
    /// timed-out sleep exits its `aio_suspend` span with `errno == EAGAIN`.
    pub fn suspend_timeout(&self, timeout: Duration) -> bool {
        let mut st = self.inner.state.lock();
        if !matches!(*st, AioState::InProgress) {
            return true;
        }
        trace::emit(Sysno::AioSuspend, SyscallPhase::Enter);
        self.inner.done.wait_for(&mut st, timeout);
        let done = !matches!(*st, AioState::InProgress);
        let errno = if done { 0 } else { Errno::EAGAIN.as_raw() };
        trace::emit(Sysno::AioSuspend, SyscallPhase::Exit { errno });
        done
    }

    /// Whether the request has completed (success or failure).
    pub fn is_complete(&self) -> bool {
        !matches!(*self.inner.state.lock(), AioState::InProgress)
    }

    /// For reads: take the data buffer filled by the helper thread. `None`
    /// for writes, unfinished requests, or if already taken.
    pub fn take_data(&self) -> Option<Vec<u8>> {
        match &mut *self.inner.state.lock() {
            AioState::Done { data, .. } => data.take(),
            _ => None,
        }
    }
}

/// The per-kernel AIO service: submission queue + one helper thread.
pub struct AioService {
    tx: Sender<AioJob>,
}

impl std::fmt::Debug for AioService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AioService").finish_non_exhaustive()
    }
}

impl AioService {
    fn start(kernel: Weak<Kernel>) -> AioService {
        let (tx, rx) = unbounded::<AioJob>();
        std::thread::Builder::new()
            .name("ulp-aio-helper".to_string())
            .spawn(move || {
                // The helper services requests until the kernel (and with it
                // the sender) is dropped.
                for job in rx.iter() {
                    let Some(kernel) = kernel.upgrade() else {
                        break;
                    };
                    // Execute with the *requesting* process's identity, as
                    // glibc's helper implicitly does by sharing the process.
                    let _bind = kernel.bind_scope(job.pid);
                    let (res, data) = match job.op {
                        AioOp::Write { offset, data } => {
                            (kernel.sys_pwrite(job.fd, offset, &data), None)
                        }
                        AioOp::Read { offset, len } => {
                            let mut buf = vec![0u8; len];
                            let res = kernel.sys_pread(job.fd, offset, &mut buf);
                            if let Ok(n) = res {
                                buf.truncate(n);
                            }
                            (res, Some(buf))
                        }
                    };
                    let mut st = job.cb.state.lock();
                    *st = AioState::Done { res, data };
                    job.cb.done.notify_all();
                }
            })
            .expect("spawn aio helper");
        AioService { tx }
    }
}

impl Kernel {
    fn aio_service(self: &Arc<Self>) -> &AioService {
        self.aio
            .get_or_init(|| AioService::start(Arc::downgrade(self)))
    }

    /// `aio_write(3)`: positional asynchronous write of `data` at `offset`.
    /// The buffer is shared, not copied — like glibc, which reads the user's
    /// buffer from the helper thread (submission is O(1) regardless of size).
    pub fn aio_write(self: &Arc<Self>, fd: Fd, offset: u64, data: Arc<Vec<u8>>) -> KResult<Aiocb> {
        self.syscall(Sysno::AioWrite, |proc| {
            let cb = Aiocb::new();
            self.aio_service()
                .tx
                .send(AioJob {
                    pid: proc.pid,
                    fd,
                    op: AioOp::Write { offset, data },
                    cb: cb.inner.clone(),
                })
                .map_err(|_| Errno::EIO)?;
            Ok(cb)
        })
    }

    /// `aio_read(3)`: positional asynchronous read of `len` bytes.
    pub fn aio_read(self: &Arc<Self>, fd: Fd, offset: u64, len: usize) -> KResult<Aiocb> {
        self.syscall(Sysno::AioRead, |proc| {
            let cb = Aiocb::new();
            self.aio_service()
                .tx
                .send(AioJob {
                    pid: proc.pid,
                    fd,
                    op: AioOp::Read { offset, len },
                    cb: cb.inner.clone(),
                })
                .map_err(|_| Errno::EIO)?;
            Ok(cb)
        })
    }
}

/// `aio_suspend(3)` over a set of control blocks: returns the index of the
/// first completed one, blocking until some request completes.
pub fn aio_suspend_any(cbs: &[Aiocb]) -> Option<usize> {
    if cbs.is_empty() {
        return None;
    }
    loop {
        for (i, cb) in cbs.iter().enumerate() {
            if cb.is_complete() {
                return Some(i);
            }
        }
        // Park on the first incomplete cb; completion of any other will be
        // caught on the next scan (bounded by this cb's completion or a
        // short timeout to avoid missed-wakeup hangs).
        if let Some(first) = cbs.iter().find(|cb| !cb.is_complete()) {
            first.suspend_timeout(Duration::from_millis(1));
        }
    }
}

pub(crate) fn _require_kernelref_is_send(k: KernelRef) -> impl Send {
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::OpenFlags;

    fn boot() -> (KernelRef, Pid) {
        let k = Kernel::native();
        let pid = k.spawn_process(Some(Pid(1)), "aio-test");
        k.bind_current(pid);
        (k, pid)
    }

    fn wflags() -> OpenFlags {
        OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::TRUNC
    }

    #[test]
    fn aio_write_completes_and_returns_count() {
        let (k, _) = boot();
        let fd = k.sys_open("/a", wflags()).unwrap();
        let data = Arc::new(vec![7u8; 4096]);
        let cb = k.aio_write(fd, 0, data).unwrap();
        cb.suspend();
        assert_eq!(cb.error(), None);
        assert_eq!(cb.aio_return().unwrap(), 4096);
        assert_eq!(k.sys_stat("/a").unwrap().size, 4096);
        k.unbind_current();
    }

    #[test]
    fn aio_return_twice_is_einval() {
        let (k, _) = boot();
        let fd = k.sys_open("/b", wflags()).unwrap();
        let cb = k.aio_write(fd, 0, Arc::new(vec![1u8; 16])).unwrap();
        cb.suspend();
        cb.aio_return().unwrap();
        assert_eq!(cb.aio_return().unwrap_err(), Errno::EINVAL);
        k.unbind_current();
    }

    #[test]
    fn aio_error_polling_protocol() {
        // The ULT usage pattern from the paper: poll aio_error in a loop.
        let (k, _) = boot();
        let fd = k.sys_open("/c", wflags()).unwrap();
        let cb = k.aio_write(fd, 0, Arc::new(vec![2u8; 1 << 20])).unwrap();
        let mut polls = 0u64;
        while cb.error() == Some(Errno::EINPROGRESS) {
            polls += 1;
            std::hint::spin_loop();
        }
        assert_eq!(cb.error(), None);
        assert_eq!(cb.aio_return().unwrap(), 1 << 20);
        let _ = polls; // may legitimately be 0 on a fast machine
        k.unbind_current();
    }

    #[test]
    fn aio_read_roundtrip() {
        let (k, _) = boot();
        let fd = k.sys_open("/d", wflags()).unwrap();
        k.sys_pwrite(fd, 0, b"async read me").unwrap();
        let cb = k.aio_read(fd, 6, 7).unwrap();
        cb.suspend();
        // Fetch the buffer before aio_return consumes the control block.
        assert_eq!(cb.take_data().unwrap(), b"read me");
        assert!(cb.take_data().is_none(), "data taken once");
        assert_eq!(cb.aio_return().unwrap(), 7);
        k.unbind_current();
    }

    #[test]
    fn aio_on_bad_fd_reports_error() {
        let (k, _) = boot();
        let cb = k.aio_write(Fd(99), 0, Arc::new(vec![0u8; 8])).unwrap();
        cb.suspend();
        assert_eq!(cb.error(), Some(Errno::EBADF));
        assert_eq!(cb.aio_return().unwrap_err(), Errno::EBADF);
        k.unbind_current();
    }

    #[test]
    fn aio_runs_under_requesters_identity() {
        // Even though the helper thread executes the write, it must do so
        // against the *submitting* process's FD table.
        let (k, _) = boot();
        let fd = k.sys_open("/mine", wflags()).unwrap();
        let other = k.spawn_process(Some(Pid(1)), "other");
        let cb = k.aio_write(fd, 0, Arc::new(vec![9u8; 64])).unwrap();
        // Rebinding *this* thread mid-flight must not affect the helper.
        let _g = k.bind_scope(other);
        cb.suspend();
        assert_eq!(cb.aio_return().unwrap(), 64);
        k.unbind_current();
    }

    #[test]
    fn many_outstanding_requests_complete_in_order_of_submission() {
        let (k, _) = boot();
        let fd = k.sys_open("/many", wflags()).unwrap();
        let cbs: Vec<Aiocb> = (0..32)
            .map(|i| k.aio_write(fd, i * 8, Arc::new(vec![i as u8; 8])).unwrap())
            .collect();
        for cb in &cbs {
            cb.suspend();
            assert_eq!(cb.aio_return().unwrap(), 8);
        }
        assert_eq!(k.sys_stat("/many").unwrap().size, 32 * 8);
        k.unbind_current();
    }

    #[test]
    fn suspend_any_finds_completion() {
        let (k, _) = boot();
        let fd = k.sys_open("/any", wflags()).unwrap();
        let cbs: Vec<Aiocb> = (0..4)
            .map(|i| k.aio_write(fd, i * 16, Arc::new(vec![0u8; 16])).unwrap())
            .collect();
        let idx = aio_suspend_any(&cbs).unwrap();
        assert!(idx < 4);
        for cb in &cbs {
            cb.suspend();
        }
        k.unbind_current();
    }

    #[test]
    fn suspend_timeout_reports_completion() {
        let (k, _) = boot();
        let fd = k.sys_open("/st", wflags()).unwrap();
        let cb = k.aio_write(fd, 0, Arc::new(vec![0u8; 8])).unwrap();
        assert!(cb.suspend_timeout(Duration::from_secs(5)));
        k.unbind_current();
    }
}
