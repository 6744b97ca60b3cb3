//! Every kind of object a descriptor can name × every call that takes a
//! descriptor: the exact result or errno, as one table.
//!
//! The table is data — one row per kind, one column per call — and pins
//! what the syscall layer answers *whatever* it dispatches through. Each
//! cell runs against a fresh kernel, process and object, so no cell sees
//! another's offset, buffered bytes or registrations.
//!
//! Cell values: `Ok(n)` is the call's own number where it has one (bytes
//! moved, resulting offset, ready-list length) and `Ok(0)` where it returns
//! a descriptor or nothing; `poll` is the revents bits of an *idle* object
//! asked for `IN | OUT`.

use std::time::Duration;
use ulp_kernel::poll::EpollOp;
use ulp_kernel::{Errno, Fd, Kernel, KernelRef, Listener, OpenFlags, Pid, PollEvents, Whence};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A six-byte tmpfs file, opened with the given access mode.
    File(OpenFlags),
    /// A tmpfs directory (directories open read-only).
    Dir,
    /// `/proc/self/stat`.
    ProcFile,
    /// Read end of a pipe holding six bytes (idle for `poll`).
    PipeRead,
    PipeWrite,
    /// A socketpair end whose peer has sent six bytes (idle for `poll`).
    Socket,
    /// A listener with one connection queued (none for `poll`).
    Listener,
    Epoll,
}

type Cell = Result<u64, Errno>;

struct Row {
    kind: Kind,
    read: Cell,
    write: Cell,
    pread: Cell,
    pwrite: Cell,
    /// `lseek(0, SEEK_END)`, capped at 6: how long a procfs body is is the
    /// process's business, that the seek lands past its start the kernel's.
    lseek: Cell,
    ftruncate: Cell,
    accept: Cell,
    /// `epoll_ctl(ADD)` with the object as `epfd` and a pipe as target.
    ctl_as_epfd: Cell,
    /// `epoll_ctl(ADD)` with a fresh epoll instance and the object as target.
    ctl_as_target: Cell,
    epoll_wait: Cell,
    poll: PollEvents,
    dup_close: Cell,
}

use Errno::{EBADF, EINVAL, EISDIR, EPERM, ESPIPE};

const IN_OUT: PollEvents = PollEvents(PollEvents::IN.0 | PollEvents::OUT.0);

#[rustfmt::skip]
const TABLE: [Row; 10] = [
    Row { kind: Kind::File(OpenFlags::RDONLY),
          read: Ok(4), write: Err(EBADF), pread: Ok(4), pwrite: Err(EBADF), lseek: Ok(6), ftruncate: Err(EBADF),
          accept: Err(EINVAL), ctl_as_epfd: Err(EINVAL), ctl_as_target: Err(EPERM), epoll_wait: Err(EINVAL),
          poll: IN_OUT, dup_close: Ok(0) },
    Row { kind: Kind::File(OpenFlags::WRONLY),
          read: Err(EBADF), write: Ok(2), pread: Err(EBADF), pwrite: Ok(2), lseek: Ok(6), ftruncate: Ok(0),
          accept: Err(EINVAL), ctl_as_epfd: Err(EINVAL), ctl_as_target: Err(EPERM), epoll_wait: Err(EINVAL),
          poll: IN_OUT, dup_close: Ok(0) },
    Row { kind: Kind::File(OpenFlags::RDWR),
          read: Ok(4), write: Ok(2), pread: Ok(4), pwrite: Ok(2), lseek: Ok(6), ftruncate: Ok(0),
          accept: Err(EINVAL), ctl_as_epfd: Err(EINVAL), ctl_as_target: Err(EPERM), epoll_wait: Err(EINVAL),
          poll: IN_OUT, dup_close: Ok(0) },
    Row { kind: Kind::Dir,
          read: Err(EISDIR), write: Err(EBADF), pread: Err(EISDIR), pwrite: Err(EBADF), lseek: Err(EISDIR), ftruncate: Err(EBADF),
          accept: Err(EINVAL), ctl_as_epfd: Err(EINVAL), ctl_as_target: Err(EPERM), epoll_wait: Err(EINVAL),
          poll: IN_OUT, dup_close: Ok(0) },
    Row { kind: Kind::ProcFile,
          read: Ok(4), write: Err(EBADF), pread: Ok(4), pwrite: Err(EBADF), lseek: Ok(6), ftruncate: Err(EBADF),
          accept: Err(EINVAL), ctl_as_epfd: Err(EINVAL), ctl_as_target: Err(EPERM), epoll_wait: Err(EINVAL),
          poll: IN_OUT, dup_close: Ok(0) },
    Row { kind: Kind::PipeRead,
          read: Ok(4), write: Err(EBADF), pread: Err(ESPIPE), pwrite: Err(ESPIPE), lseek: Err(ESPIPE), ftruncate: Err(EINVAL),
          accept: Err(EINVAL), ctl_as_epfd: Err(EINVAL), ctl_as_target: Ok(0), epoll_wait: Err(EINVAL),
          poll: PollEvents::NONE, dup_close: Ok(0) },
    Row { kind: Kind::PipeWrite,
          read: Err(EBADF), write: Ok(2), pread: Err(ESPIPE), pwrite: Err(ESPIPE), lseek: Err(ESPIPE), ftruncate: Err(EINVAL),
          accept: Err(EINVAL), ctl_as_epfd: Err(EINVAL), ctl_as_target: Ok(0), epoll_wait: Err(EINVAL),
          poll: PollEvents::OUT, dup_close: Ok(0) },
    Row { kind: Kind::Socket,
          read: Ok(4), write: Ok(2), pread: Err(ESPIPE), pwrite: Err(ESPIPE), lseek: Err(ESPIPE), ftruncate: Err(EINVAL),
          accept: Err(EINVAL), ctl_as_epfd: Err(EINVAL), ctl_as_target: Ok(0), epoll_wait: Err(EINVAL),
          poll: PollEvents::OUT, dup_close: Ok(0) },
    Row { kind: Kind::Listener,
          read: Err(EINVAL), write: Err(EINVAL), pread: Err(ESPIPE), pwrite: Err(ESPIPE), lseek: Err(ESPIPE), ftruncate: Err(EINVAL),
          accept: Ok(0), ctl_as_epfd: Err(EINVAL), ctl_as_target: Ok(0), epoll_wait: Err(EINVAL),
          poll: PollEvents::NONE, dup_close: Ok(0) },
    Row { kind: Kind::Epoll,
          read: Err(EINVAL), write: Err(EINVAL), pread: Err(ESPIPE), pwrite: Err(ESPIPE), lseek: Err(ESPIPE), ftruncate: Err(EINVAL),
          accept: Err(EINVAL), ctl_as_epfd: Ok(0), ctl_as_target: Err(EINVAL), epoll_wait: Ok(0),
          poll: PollEvents::NONE, dup_close: Ok(0) },
];

fn boot() -> (KernelRef, Pid) {
    let k = Kernel::native();
    let pid = k.spawn_process(Some(Pid(1)), "object-matrix");
    k.bind_current(pid);
    (k, pid)
}

/// A fresh descriptor of `kind` in the calling thread's process. `loaded`
/// puts something there for `read`/`accept` to take without blocking; an
/// unloaded object is idle.
fn open(k: &KernelRef, kind: Kind, loaded: bool) -> Fd {
    match kind {
        Kind::File(mode) => {
            let fd = k
                .sys_open("/f", OpenFlags::WRONLY | OpenFlags::CREAT)
                .unwrap();
            assert_eq!(k.sys_write(fd, b"abcdef").unwrap(), 6);
            k.sys_close(fd).unwrap();
            k.sys_open("/f", mode).unwrap()
        }
        Kind::Dir => {
            k.sys_mkdir("/d").unwrap();
            k.sys_open("/d", OpenFlags::RDONLY).unwrap()
        }
        Kind::ProcFile => k.sys_open("/proc/self/stat", OpenFlags::RDONLY).unwrap(),
        Kind::PipeRead | Kind::PipeWrite => {
            let (r, w) = k.sys_pipe().unwrap();
            if loaded {
                assert_eq!(k.sys_write(w, b"abcdef").unwrap(), 6);
            }
            if kind == Kind::PipeRead {
                r
            } else {
                w
            }
        }
        Kind::Socket => {
            let (a, b) = k.sys_socketpair().unwrap();
            if loaded {
                assert_eq!(k.sys_write(b, b"abcdef").unwrap(), 6);
            }
            a
        }
        Kind::Listener => {
            let l = Listener::new();
            let fd = k.sys_listen(&l).unwrap();
            if loaded {
                k.sys_connect(&l).unwrap();
            }
            fd
        }
        Kind::Epoll => k.sys_epoll_create().unwrap(),
    }
}

/// Run `call` on a fresh kernel with a fresh object of `kind`.
fn cell(kind: Kind, loaded: bool, call: impl FnOnce(&KernelRef, Fd) -> Cell) -> Cell {
    let (k, _) = boot();
    let fd = open(&k, kind, loaded);
    let got = call(&k, fd);
    k.unbind_current();
    got
}

fn unit<T>(r: Result<T, Errno>) -> Cell {
    r.map(|_| 0)
}

#[test]
fn every_object_kind_answers_every_fd_call_as_tabled() {
    for row in &TABLE {
        let kind = row.kind;
        let check = |call: &str, want: Cell, got: Cell| {
            assert_eq!(got, want, "{call} on {kind:?}");
        };
        check(
            "read",
            row.read,
            cell(kind, true, |k, fd| {
                k.sys_read(fd, &mut [0u8; 4]).map(|n| n as u64)
            }),
        );
        check(
            "write",
            row.write,
            cell(kind, false, |k, fd| {
                k.sys_write(fd, b"xy").map(|n| n as u64)
            }),
        );
        check(
            "pread",
            row.pread,
            cell(kind, true, |k, fd| {
                k.sys_pread(fd, 0, &mut [0u8; 4]).map(|n| n as u64)
            }),
        );
        check(
            "pwrite",
            row.pwrite,
            cell(kind, false, |k, fd| {
                k.sys_pwrite(fd, 0, b"xy").map(|n| n as u64)
            }),
        );
        check(
            "lseek",
            row.lseek,
            cell(kind, false, |k, fd| {
                k.sys_lseek(fd, 0, Whence::End).map(|end| end.min(6))
            }),
        );
        check(
            "ftruncate",
            row.ftruncate,
            cell(kind, false, |k, fd| unit(k.sys_ftruncate(fd, 1))),
        );
        check(
            "accept",
            row.accept,
            cell(kind, true, |k, fd| unit(k.sys_accept(fd))),
        );
        check(
            "epoll_ctl as epfd",
            row.ctl_as_epfd,
            cell(kind, false, |k, fd| {
                let (r, _w) = k.sys_pipe().unwrap();
                unit(k.sys_epoll_ctl(fd, EpollOp::Add, r, PollEvents::IN))
            }),
        );
        check(
            "epoll_ctl as target",
            row.ctl_as_target,
            cell(kind, false, |k, fd| {
                let ep = k.sys_epoll_create().unwrap();
                unit(k.sys_epoll_ctl(ep, EpollOp::Add, fd, PollEvents::IN))
            }),
        );
        check(
            "epoll_wait",
            row.epoll_wait,
            cell(kind, false, |k, fd| {
                k.sys_epoll_wait(fd, 8, Some(Duration::ZERO))
                    .map(|ready| ready.len() as u64)
            }),
        );
        check(
            "poll (idle)",
            Ok(row.poll.0 as u64),
            cell(kind, false, |k, fd| {
                k.sys_poll(&[(fd, IN_OUT)], Some(Duration::ZERO))
                    .map(|revents| revents[0].0 as u64)
            }),
        );
        check(
            "dup + close",
            row.dup_close,
            cell(kind, false, |k, fd| {
                let dup = k.sys_dup(fd)?;
                k.sys_close(fd)?;
                k.sys_close(dup)?;
                assert_eq!(k.sys_close(dup), Err(EBADF), "{kind:?}: closed twice");
                Ok(0)
            }),
        );
    }
}
