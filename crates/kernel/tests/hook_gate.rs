//! The kernel calls its observation hooks only while a tracer records.
//!
//! The hook table is process-global (first install wins) and `ulp-core`
//! never loads in this binary, so this test owns it and installs hooks that
//! count every call. The same workload — `getpid`s, a blocking pipe `read`
//! woken by a writer thread, a blocking `poll` woken the same way, a
//! `waitpid` woken by its child's exit and an `aio_suspend` woken by the AIO
//! helper's completion — runs three times: with no recorder counted in it
//! must reach no hook at all; with one it must reach the syscall hook
//! exactly twice per call, plus each blocking span's pair, and emit exactly
//! one wake edge per blocking wait; with the recorder counted out again it
//! must reach none. Each blocking call is woken only once it sleeps.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use ulp_kernel::trace::{self, SyscallPhase};
use ulp_kernel::{
    wait_outcomes, Fd, Kernel, KernelHooks, KernelRef, OpenFlags, Pid, PollEvents, Sysno, WakeSite,
};

static SYSCALLS: Mutex<Vec<(Sysno, SyscallPhase)>> = Mutex::new(Vec::new());
static STAMPS: AtomicU64 = AtomicU64::new(0);
static EDGES: Mutex<Vec<WakeSite>> = Mutex::new(Vec::new());
static PROCS: AtomicU64 = AtomicU64::new(0);

fn install_counting_hooks() {
    KernelHooks {
        syscall: |no, phase| SYSCALLS.lock().unwrap().push((no, phase)),
        wake_stamp: || (7, 1 + STAMPS.fetch_add(1, Relaxed)),
        wake_emit: |_, _, site| EDGES.lock().unwrap().push(site),
        proc: |_| {
            PROCS.fetch_add(1, Relaxed);
            None
        },
    }
    .install();
}

/// Everything the hooks saw since the last call: syscall observations,
/// wake stamps, wake edges.
fn drain() -> (Vec<(Sysno, SyscallPhase)>, u64, Vec<WakeSite>) {
    (
        std::mem::take(&mut *SYSCALLS.lock().unwrap()),
        STAMPS.swap(0, Relaxed),
        std::mem::take(&mut *EDGES.lock().unwrap()),
    )
}

const GETPIDS: usize = 1000;

/// Write one byte to `w` from a fresh thread bound to `pid`, once a kernel
/// sleep after the first `sleeps` has begun: the caller's.
fn write_once_asleep(k: &KernelRef, pid: Pid, w: Fd, sleeps: u64) -> std::thread::JoinHandle<()> {
    let k = k.clone();
    std::thread::spawn(move || {
        k.bind_current(pid);
        asleep_after(sleeps);
        assert_eq!(k.sys_write(w, b"x").unwrap(), 1);
        k.unbind_current();
    })
}

/// Wait until a kernel sleep after the first `sleeps` has begun.
fn asleep_after(sleeps: u64) {
    while wait_outcomes().sleeps == sleeps {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Run the blocking call `f` on a thread of its own, then `wake` once that
/// thread sleeps in the kernel; `f`'s result, or a panic naming it if it has
/// not returned 10 s later (a lost wake hangs, with no time-out to ride).
fn woken<T: Send + 'static>(
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
    wake: impl FnOnce(),
) -> T {
    let sleeps = wait_outcomes().sleeps;
    let (done, result) = mpsc::channel();
    let sleeper = std::thread::spawn(move || done.send(f()).unwrap());
    asleep_after(sleeps);
    wake();
    let out = (result.recv_timeout(Duration::from_secs(10)))
        .unwrap_or_else(|_| panic!("{what}: no return 10 s after its wake"));
    sleeper.join().unwrap();
    out
}

/// The workload; returns how many system calls it issued on every thread.
fn workload(k: &KernelRef, pid: Pid) -> usize {
    for _ in 0..GETPIDS {
        assert_eq!(k.sys_getpid().unwrap(), pid);
    }
    let (r, w) = k.sys_pipe().unwrap();
    let mut buf = [0u8; 1];

    // A pipe read that sleeps until a writer thread writes.
    let writer = write_once_asleep(k, pid, w, wait_outcomes().sleeps);
    assert_eq!(k.sys_read(r, &mut buf).unwrap(), 1);
    writer.join().unwrap();

    // A poll that sleeps until a writer thread writes.
    let writer = write_once_asleep(k, pid, w, wait_outcomes().sleeps);
    let revents = k.sys_poll(&[(r, PollEvents::IN)], None).unwrap();
    assert!(revents[0].contains(PollEvents::IN), "{revents:?}");
    writer.join().unwrap();
    assert_eq!(k.sys_read(r, &mut buf).unwrap(), 1);

    k.sys_close(r).unwrap();
    k.sys_close(w).unwrap();

    // A waitpid that sleeps until its child exits.
    let child = k.spawn_process(Some(pid), "hook-gate-child");
    let reaped = {
        let k2 = k.clone();
        woken(
            "waitpid",
            move || k2.waitpid(pid, Some(child)),
            || k.exit_process(child, 6).unwrap(),
        )
    };
    assert_eq!(reaped, Ok((child, 6)));

    // An aio_suspend that sleeps until the helper completes: the helper's
    // pwrite needs this process's descriptor table, held until then.
    let fd = k
        .sys_open("/hook-gate", OpenFlags::RDWR | OpenFlags::CREAT)
        .unwrap();
    let proc = k.process(pid).unwrap();
    let fds = proc.fds.lock();
    let cb = k.aio_write(fd, 0, Arc::new(vec![1u8; 8])).unwrap();
    let suspended = cb.clone();
    woken("aio_suspend", move || suspended.suspend(), || drop(fds));
    assert_eq!(cb.aio_return(), Ok(8));
    k.sys_close(fd).unwrap();

    // getpids, pipe, read, write, poll, read, write, close, close, waitpid,
    // open, aio_write, the helper's pwrite, close.
    GETPIDS + 13
}

fn count(seen: &[(Sysno, SyscallPhase)], no: Sysno) -> (usize, usize) {
    let enters = seen
        .iter()
        .filter(|(n, p)| *n == no && *p == SyscallPhase::Enter)
        .count();
    let exits = seen
        .iter()
        .filter(|(n, p)| *n == no && matches!(p, SyscallPhase::Exit { .. }))
        .count();
    (enters, exits)
}

#[test]
fn hooks_are_called_only_while_a_recorder_is_counted_in() {
    install_counting_hooks();
    let k = Kernel::native();
    let pid = k.spawn_process(Some(Pid(1)), "hook-gate");
    k.bind_current(pid);
    assert_eq!(trace::recording(), 0, "nothing in this binary records yet");

    // Untraced: no hook call at all.
    drain();
    workload(&k, pid);
    let (seen, stamps, edges) = drain();
    assert!(
        seen.is_empty(),
        "untraced syscall hook calls: {}",
        seen.len()
    );
    assert_eq!(stamps, 0, "untraced wake stamps");
    assert!(edges.is_empty(), "untraced wake edges: {edges:?}");

    // Traced: every call's pair, each blocking span's pair, one edge each.
    trace::start_recording();
    assert_eq!(trace::recording(), 1);
    let calls = workload(&k, pid);
    let (seen, stamps, edges) = drain();
    assert_eq!(
        seen.len(),
        2 * calls + 4 * 2,
        "two per call, two per blocking span"
    );
    assert_eq!(count(&seen, Sysno::Getpid), (GETPIDS, GETPIDS));
    assert_eq!(count(&seen, Sysno::PipeBlockRead), (1, 1));
    assert_eq!(count(&seen, Sysno::EpollBlockWait), (1, 1));
    assert_eq!(count(&seen, Sysno::Waitpid), (1, 1));
    assert_eq!(count(&seen, Sysno::WaitpidBlock), (1, 1));
    assert_eq!(count(&seen, Sysno::AioSuspend), (1, 1));
    // The exit's SIGCHLD post stamps nothing: the untraced run left that
    // signal pending, and a standard signal does not queue.
    assert_eq!(stamps, 4, "one stamp per event that ended a sleep");
    assert_eq!(
        edges,
        [
            WakeSite::PipeRead,
            WakeSite::Poll,
            WakeSite::ChildExit,
            WakeSite::AioDone
        ]
    );

    // Stopped: silent again.
    trace::stop_recording();
    assert_eq!(trace::recording(), 0);
    workload(&k, pid);
    let (seen, stamps, edges) = drain();
    assert!(
        seen.is_empty(),
        "syscall hook calls after stop: {}",
        seen.len()
    );
    assert_eq!(stamps, 0, "wake stamps after stop");
    assert!(edges.is_empty(), "wake edges after stop: {edges:?}");

    // The procfs bodies are content, not observations: always asked.
    let before = PROCS.load(Relaxed);
    let fd = k.sys_open("/proc/ulp/metrics", OpenFlags::RDONLY).unwrap();
    k.sys_close(fd).unwrap();
    assert!(PROCS.load(Relaxed) > before, "the proc hook runs untraced");
    k.unbind_current();
}
