//! The simulated-syscall fast path, pinned exactly.
//!
//! Three things are fixed here. First, what a call costs in heap allocations
//! once its objects exist — counted by a per-thread counting allocator, so
//! the numbers are exact and the other tests in this binary cannot disturb
//! them. Second, what a file call locks: the tmpfs namespace exclusively,
//! never, unless it changes a name. Third, the semantics of the pieces that
//! make the path cheap: the per-thread binding's cached process, the
//! per-process syscall counters summed on demand, and the watch set's
//! nobody-subscribed shortcut.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use ulp_kernel::{
    Errno, Kernel, KernelRef, OpenFlags, Pid, PollWaker, ProcState, WaitEnd, WakeSite, WatchSet,
    Whence,
};

thread_local! {
    /// Allocations (and reallocations) made by the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a bump of a const-init,
// destructor-free thread-local `Cell`, which neither allocates nor unwinds
// (`try_with` covers threads already tearing their locals down).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: as in `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn boot(name: &str) -> (KernelRef, Pid) {
    let k = Kernel::native();
    let pid = k.spawn_process(Some(Pid(1)), name);
    k.bind_current(pid);
    (k, pid)
}

/// Assert that `call`, once warm, allocates at most `allowed` times per
/// call (so exactly never for `allowed == 0`).
fn assert_allocations(name: &str, allowed: u64, mut call: impl FnMut()) {
    const CALLS: u64 = 100;
    call(); // first use may size a table
    let got = allocations(|| (0..CALLS).for_each(|_| call()));
    assert!(
        got <= allowed * CALLS,
        "{name}: {got} allocations in {CALLS} calls, {allowed} per call allowed"
    );
}

#[test]
fn steady_state_allocations_per_call() {
    let (k, pid) = boot("allocs");
    let path = "/fast_path.dat";
    let file = k
        .sys_open(path, OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::TRUNC)
        .unwrap();
    k.sys_pwrite(file, 0, &[0x5A; 4096]).unwrap();
    let (pr, pw) = k.sys_pipe().unwrap();
    let (sa, sb) = k.sys_socketpair().unwrap();
    let data = [0xA5u8; 256];
    let mut buf = [0u8; 256];

    assert_allocations("getpid", 0, || {
        assert_eq!(k.sys_getpid().unwrap(), pid);
    });
    assert_allocations("lseek", 0, || {
        assert_eq!(k.sys_lseek(file, 128, Whence::Set).unwrap(), 128);
    });
    assert_allocations("pwrite 256 B in place", 0, || {
        assert_eq!(k.sys_pwrite(file, 512, &data).unwrap(), 256);
    });
    assert_allocations("pread 256 B", 0, || {
        assert_eq!(k.sys_pread(file, 512, &mut buf).unwrap(), 256);
    });
    assert_eq!(buf, data);
    assert_allocations("stat of an absolute path", 0, || {
        assert_eq!(k.sys_stat(path).unwrap().size, 4096);
    });
    assert_allocations("pipe write + read 256 B", 0, || {
        assert_eq!(k.sys_write(pw, &data).unwrap(), 256);
        assert_eq!(k.sys_read(pr, &mut buf).unwrap(), 256);
    });
    assert_allocations("socketpair write + read 256 B", 0, || {
        assert_eq!(k.sys_write(sa, &data).unwrap(), 256);
        assert_eq!(k.sys_read(sb, &mut buf).unwrap(), 256);
    });
    // The one allocation is the open file description.
    assert_allocations("open + close of an existing file", 1, || {
        let fd = k.sys_open(path, OpenFlags::RDONLY).unwrap();
        k.sys_close(fd).unwrap();
    });
    k.unbind_current();
}

#[test]
fn steady_state_file_calls_never_take_the_namespace_exclusively() {
    const ROUNDS: u64 = 10_000;
    let (k, _) = boot("shared");
    let path = "/shared_only.dat";
    let file = k
        .sys_open(path, OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::TRUNC)
        .unwrap();
    k.sys_pwrite(file, 0, &[0x5A; 4096]).unwrap();
    let creating = OpenFlags::WRONLY | OpenFlags::CREAT;
    let mut buf = [0u8; 256];

    let before = k.tmpfs().exclusive_acquisitions();
    for round in 0..ROUNDS {
        let off = round * 13 % 3_000;
        // `O_CREAT` of a name that exists creates nothing.
        let flags = [OpenFlags::RDONLY, creating][round as usize % 2];
        let fd = k.sys_open(path, flags).unwrap();
        k.sys_close(fd).unwrap();
        assert!(!k.sys_stat(path).unwrap().is_dir);
        assert_eq!(k.sys_pwrite(file, off, &buf).unwrap(), 256);
        assert_eq!(k.sys_pread(file, off, &mut buf).unwrap(), 256);
        // `lseek(END)` and the append after it: the file grows a byte a round.
        assert_eq!(k.sys_lseek(file, 0, Whence::End).unwrap(), 4096 + round);
        assert_eq!(k.sys_write(file, b"x").unwrap(), 1);
        assert_eq!(k.sys_open("/absent", OpenFlags::RDONLY), Err(Errno::ENOENT));
    }
    assert_eq!(k.tmpfs().exclusive_acquisitions(), before);

    // The counter does count: each name change is one acquisition.
    k.sys_rename(path, "/renamed.dat").unwrap();
    k.sys_unlink("/renamed.dat").unwrap();
    assert_eq!(k.tmpfs().exclusive_acquisitions(), before + 2);
    k.unbind_current();
}

#[test]
fn thread_bound_to_a_reaped_pid_gets_esrch() {
    let k = Kernel::native();
    let child = k.spawn_process(Some(Pid(1)), "doomed");
    let (to_thread, from_main) = mpsc::channel::<()>();
    let (to_main, from_thread) = mpsc::channel::<()>();
    let bound = {
        let k = k.clone();
        std::thread::spawn(move || {
            k.bind_current(child);
            // The first call resolves and caches the process...
            assert_eq!(k.sys_getpid().unwrap(), child);
            to_main.send(()).unwrap();
            from_main.recv().unwrap();
            // ...and the cache must not outlive the reap.
            let after = k.sys_getpid();
            k.unbind_current();
            after
        })
    };
    from_thread.recv().unwrap();
    k.exit_process(child, 3).unwrap();
    assert_eq!(k.waitpid(Pid(1), Some(child)).unwrap(), (child, 3));
    to_thread.send(()).unwrap();
    assert_eq!(bound.join().unwrap().unwrap_err(), Errno::ESRCH);

    // Binding to a pid that is already gone, or not there yet, is no
    // different: ESRCH until the process exists.
    k.bind_current(child);
    assert_eq!(k.sys_getpid().unwrap_err(), Errno::ESRCH);
    let unborn = Pid(child.0 + 1);
    k.bind_current(unborn);
    assert_eq!(k.sys_getpid().unwrap_err(), Errno::ESRCH);
    assert_eq!(k.spawn_process(Some(Pid(1)), "late"), unborn);
    assert_eq!(k.sys_getpid().unwrap(), unborn);
    k.unbind_current();
}

#[test]
fn rebinding_a_thread_switches_pid_and_fd_table() {
    // What a pool KC does per serve: one OS thread, a different process
    // each time. The cached process must follow the binding.
    let (k, a) = boot("a");
    let b = k.spawn_process(Some(Pid(1)), "b");
    let fd = k
        .sys_open("/rebind.dat", OpenFlags::WRONLY | OpenFlags::CREAT)
        .unwrap();
    assert_eq!(k.sys_write(fd, b"a").unwrap(), 1);
    for round in 0..3 {
        k.bind_current(b);
        assert_eq!(k.sys_getpid().unwrap(), b, "round {round}");
        assert_eq!(k.sys_write(fd, b"b").unwrap_err(), Errno::EBADF);
        k.bind_current(a);
        assert_eq!(k.sys_getpid().unwrap(), a, "round {round}");
        assert_eq!(k.sys_write(fd, b"a").unwrap(), 1);
    }
    assert_eq!(k.sys_stat("/rebind.dat").unwrap().size, 4);
    k.unbind_current();
}

#[test]
fn total_syscalls_counts_every_call_and_survives_a_reap() {
    const CALLS: u64 = 10_000;
    let k = Kernel::native();
    let before = k.total_syscalls();
    let pids: Vec<Pid> = (0..2)
        .map(|i| k.spawn_process(Some(Pid(1)), &format!("counter{i}")))
        .collect();
    std::thread::scope(|s| {
        for &pid in &pids {
            let k = &k;
            s.spawn(move || {
                k.bind_current(pid);
                for _ in 0..CALLS {
                    k.sys_getpid().unwrap();
                }
                k.unbind_current();
            });
        }
    });
    assert_eq!(k.total_syscalls() - before, 2 * CALLS);
    for &pid in &pids {
        assert_eq!(k.process(pid).unwrap().syscall_count(), CALLS);
    }
    // Reaping moves a process's count into the retired sum: the total is
    // the same before, between and after.
    for &pid in &pids {
        k.exit_process(pid, 0).unwrap();
        assert_eq!(k.process(pid).unwrap().state(), ProcState::Zombie(0));
        assert_eq!(k.waitpid(Pid(1), Some(pid)).unwrap(), (pid, 0));
        assert!(k.process(pid).is_none());
        assert_eq!(k.total_syscalls() - before, 2 * CALLS);
    }
}

#[test]
fn watch_set_subscribe_racing_notify_never_loses_an_edge() {
    // The waiter's protocol is the one `epoll_wait` and `poll` follow:
    // subscribe, read the generation, scan the object's state under its
    // lock, sleep only if nothing was ready. The notifier's is the one
    // every waitable object follows: change the state under the lock, then
    // notify. A fresh watch set per round starts with nobody subscribed, so
    // every round races `subscribe` against the notify shortcut.
    const ROUNDS: usize = 20_000;
    let rounds: Vec<(WatchSet, Mutex<bool>)> = (0..ROUNDS)
        .map(|_| (WatchSet::new(), Mutex::new(false)))
        .collect();
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            for (watch, ready) in &rounds {
                start.wait();
                *ready.lock().unwrap() = true;
                watch.notify();
            }
        });
        // A lost edge is recorded, not asserted, inside the loop: the
        // notifier must be kept company at the barrier to the last round.
        let mut lost = None;
        for (round, (watch, ready)) in rounds.iter().enumerate() {
            let waker = Arc::new(PollWaker::new(WakeSite::Poll));
            start.wait();
            if lost.is_some() {
                continue;
            }
            watch.subscribe(&waker);
            let seen = waker.generation();
            if *ready.lock().unwrap() {
                continue;
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            if waker.wait(seen, Some(deadline)) == WaitEnd::TimedOut {
                lost = Some(round);
            }
        }
        assert_eq!(lost, None, "a subscriber slept through the edge");
    });
}
