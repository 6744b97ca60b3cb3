//! Closing a descriptor while a call on the same description is in flight.
//!
//! Every file call holds a clone of the open file description while it runs,
//! so "was that the last descriptor?" cannot be answered by whoever closes:
//! the description — and the inode handle it holds — has to go when the last
//! of the descriptors *and* the calls is done with it. Each test leaves an
//! unlinked file's inode to exactly that moment and then counts inodes.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use ulp_kernel::{Fd, IoModel, Kernel, KernelRef, OpenFlags, Pid};

const PAYLOAD: &[u8] = b"still here";

/// Reads take 50 ms (off-CPU): long enough to close underneath one.
const SLOW_READS: IoModel = IoModel {
    fixed_ns: 50_000_000,
    ns_per_byte: 0.0,
    spin_threshold_ns: 0,
};

/// A kernel, a process the calling thread is bound to, and `path` holding
/// [`PAYLOAD`]; returns the inode count from before the file existed.
fn boot(path: &str) -> (KernelRef, Pid, usize) {
    let k = Kernel::native();
    let pid = k.spawn_process(Some(Pid(1)), "racer");
    k.bind_current(pid);
    let baseline = k.tmpfs().inode_count();
    let fd = k
        .sys_open(path, OpenFlags::WRONLY | OpenFlags::CREAT)
        .unwrap();
    assert_eq!(k.sys_write(fd, PAYLOAD).unwrap(), PAYLOAD.len());
    k.sys_close(fd).unwrap();
    (k, pid, baseline)
}

/// Return once a call on `fd` is in flight: its description is held by the
/// descriptor table, by this probe, and by somebody else.
fn wait_for_a_call_on(k: &Kernel, pid: Pid, fd: Fd) {
    let probe = k.process(pid).unwrap().fds.lock().get(fd).unwrap();
    while Arc::strong_count(&probe) < 3 {
        std::thread::yield_now();
    }
}

/// Run `pread(fd)` on a second thread bound to `pid`, call `closer` once that
/// read is in flight, and report whether `closer` returned before the read
/// did. The read itself must succeed either way.
fn close_under_a_read(k: &KernelRef, pid: Pid, fd: Fd, closer: impl FnOnce()) -> bool {
    let read_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            k.bind_current(pid);
            let mut buf = [0u8; 16];
            let got = k.sys_pread(fd, 0, &mut buf).map(|n| buf[..n].to_vec());
            read_done.store(true, Ordering::SeqCst);
            k.unbind_current();
            got
        });
        wait_for_a_call_on(k, pid, fd);
        closer();
        let raced = !read_done.load(Ordering::SeqCst);
        assert_eq!(reader.join().unwrap().unwrap(), PAYLOAD);
        raced
    })
}

#[test]
fn close_under_an_in_flight_read_still_releases_the_inode() {
    let path = "/close_race.dat";
    let (k, pid, baseline) = boot(path);
    k.tmpfs().set_io_model(SLOW_READS);
    // A host hiccup longer than the read makes an attempt prove nothing;
    // the outcome is the same, so try again.
    let raced = (0..5).any(|_| {
        let fd = k.sys_open(path, OpenFlags::RDONLY).unwrap();
        close_under_a_read(&k, pid, fd, || k.sys_close(fd).unwrap())
    });
    assert!(raced, "no close ever landed inside a 50 ms read");
    k.sys_unlink(path).unwrap();
    assert_eq!(k.tmpfs().inode_count(), baseline);
    k.unbind_current();
}

#[test]
fn dup2_over_a_descriptor_with_a_read_in_flight_still_releases_the_inode() {
    let path = "/dup2_race.dat";
    let (k, pid, baseline) = boot(path);
    let other = k.sys_pipe().unwrap().0;
    k.tmpfs().set_io_model(SLOW_READS);
    let raced = (0..5).any(|_| {
        let fd = k.sys_open(path, OpenFlags::RDONLY).unwrap();
        let raced = close_under_a_read(&k, pid, fd, || {
            k.sys_dup2(other, fd).unwrap();
        });
        k.sys_close(fd).unwrap();
        raced
    });
    assert!(raced, "no dup2 ever landed inside a 50 ms read");
    k.sys_unlink(path).unwrap();
    assert_eq!(k.tmpfs().inode_count(), baseline);
    k.unbind_current();
}

#[test]
fn process_exit_under_an_in_flight_read_still_releases_the_inode() {
    let path = "/exit_race.dat";
    let (k, _, baseline) = boot(path);
    k.tmpfs().set_io_model(SLOW_READS);
    let raced = (0..5).any(|_| {
        let doomed = k.spawn_process(Some(Pid(1)), "doomed");
        let fd = {
            let _bound = k.bind_scope(doomed);
            k.sys_open(path, OpenFlags::RDONLY).unwrap()
        };
        close_under_a_read(&k, doomed, fd, || k.exit_process(doomed, 0).unwrap())
    });
    assert!(raced, "no exit ever landed inside a 50 ms read");
    k.sys_unlink(path).unwrap();
    assert_eq!(k.tmpfs().inode_count(), baseline);
    k.unbind_current();
}

#[test]
fn dup_ed_descriptors_closed_from_two_threads_release_the_inode_once_both_are_gone() {
    const ROUNDS: usize = 20_000;
    let path = "/dup_race.dat";
    let (k, pid, baseline) = boot(path);
    k.sys_unlink(path).unwrap();
    // A barrier releases its waiters microseconds apart; the two closes have
    // to start within the few dozen nanoseconds one takes. So the helper
    // spins on the round number, and the main thread, having published it,
    // idles a round-dependent moment to sweep the skew between the two.
    let go = AtomicUsize::new(0);
    let closed = AtomicUsize::new(0);
    let (to_helper, from_main) = mpsc::channel::<Fd>();
    std::thread::scope(|s| {
        let (k, go, closed) = (&k, &go, &closed);
        s.spawn(move || {
            k.bind_current(pid);
            for (round, fd) in (1..).zip(from_main) {
                while go.load(Ordering::Acquire) != round {
                    std::hint::spin_loop();
                }
                k.sys_close(fd).unwrap();
                closed.store(round, Ordering::Release);
            }
            k.unbind_current();
        });
        for round in 1..=ROUNDS {
            let fd = k
                .sys_open(path, OpenFlags::RDWR | OpenFlags::CREAT)
                .unwrap();
            let dup = k.sys_dup(fd).unwrap();
            k.sys_unlink(path).unwrap();
            assert_eq!(k.tmpfs().inode_count(), baseline + 1, "round {round}");
            to_helper.send(dup).unwrap();
            go.store(round, Ordering::Release);
            for _ in 0..round % 64 {
                std::hint::spin_loop();
            }
            k.sys_close(fd).unwrap();
            while closed.load(Ordering::Acquire) != round {
                std::hint::spin_loop();
            }
            assert_eq!(k.tmpfs().inode_count(), baseline, "round {round}");
        }
        drop(to_helper);
    });
    k.unbind_current();
}
