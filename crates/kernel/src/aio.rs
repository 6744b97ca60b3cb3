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
//! or by blocking (`Aiocb::suspend`). A blocking suspend sleeps on the
//! control block's `WaitQueue`, the kernel's one attributed sleep
//! (`crate::wait`): inside an `aio_suspend` span, ended by an `aio_done`
//! wake edge from the helper. A fresh control block has no wait history, so
//! its first suspend sleeps at once — the paper's blocking baseline.

use crate::errno::{Errno, KResult};
use crate::fd::Fd;
use crate::kernel::Kernel;
use crate::process::Pid;
use crate::trace::{Sysno, WakeSite};
use crate::wait::WaitQueue;
use parking_lot::Mutex;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

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
    /// `suspend` callers waiting for the helper to complete the request.
    done: WaitQueue,
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
                done: WaitQueue::new(WakeSite::AioDone),
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
    /// thread to sleep until completion. The sleep (if any) is an
    /// `aio_suspend` span ended by an `aio_done` wake edge.
    pub fn suspend(&self) {
        self.wait(None);
    }

    /// `aio_suspend` with a timeout; `false` on `EAGAIN` (timed out). A
    /// timed-out sleep exits its `aio_suspend` span with `errno == EAGAIN`.
    pub fn suspend_timeout(&self, timeout: Duration) -> bool {
        self.wait(Some(Instant::now() + timeout))
    }

    /// Wait on the control block's queue until the request completes or
    /// `deadline` passes; whether it completed.
    fn wait(&self, deadline: Option<Instant>) -> bool {
        let mut st = self.inner.state.lock();
        let mut wait = self.inner.done.wait(deadline);
        while matches!(*st, AioState::InProgress) && wait.sleep(&mut st) {}
        let done = !matches!(*st, AioState::InProgress);
        drop(st);
        let res = if done { Ok(()) } else { Err(Errno::EAGAIN) };
        wait.finish(&res, done);
        done
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
        let (tx, rx) = channel::<AioJob>();
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
                    job.cb.done.wake_all(&st);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::OpenFlags;
    use crate::kernel::KernelRef;

    fn boot() -> (KernelRef, Pid) {
        let k = Kernel::native();
        let pid = k.spawn_process(Some(Pid(1)), "aio-test");
        k.bind_current(pid);
        (k, pid)
    }

    fn wflags() -> OpenFlags {
        OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::TRUNC
    }

    /// `cb.suspend()` behind the 10 s watchdog: a lost completion wake fails
    /// the test instead of hanging it.
    fn suspend(cb: &Aiocb) {
        let cb = cb.clone();
        crate::kernel::tests::watchdog("aio_suspend", move || cb.suspend())();
    }

    #[test]
    fn aio_write_completes_and_returns_count() {
        let (k, _) = boot();
        let fd = k.sys_open("/a", wflags()).unwrap();
        let data = Arc::new(vec![7u8; 4096]);
        let cb = k.aio_write(fd, 0, data).unwrap();
        suspend(&cb);
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
        suspend(&cb);
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
        suspend(&cb);
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
        suspend(&cb);
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
        suspend(&cb);
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
            suspend(cb);
            assert_eq!(cb.aio_return().unwrap(), 8);
        }
        assert_eq!(k.sys_stat("/many").unwrap().size, 32 * 8);
        k.unbind_current();
    }

    /// A suspend that sleeps is woken by the helper's completion: the test
    /// holds the submitter's descriptor table, which the helper's `pwrite`
    /// needs, through a timed-out suspend and until a second suspender is
    /// asleep. A lost wake fails the 10 s watchdog instead of hanging.
    #[test]
    fn suspend_sleeps_until_the_helper_completes() {
        let (k, pid) = boot();
        let fd = k.sys_open("/slept", wflags()).unwrap();
        let proc = k.process(pid).unwrap();
        let fds = proc.fds.lock();
        let cb = k.aio_write(fd, 0, Arc::new(vec![5u8; 8])).unwrap();
        assert!(!cb.suspend_timeout(Duration::from_millis(5)), "EAGAIN");
        let suspender = {
            let cb = cb.clone();
            crate::kernel::tests::watchdog("a suspend the helper completed", move || cb.suspend())
        };
        while cb.inner.done.waiters.counted() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(fds);
        suspender();
        assert_eq!(cb.aio_return(), Ok(8));
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
