//! Readiness-layer edge cases: `poll` timeouts, `epoll_ctl` error paths,
//! registration lifetime across `dup2`, fault-plan `EINTR` injection, and
//! peer-close HUP edges.
//!
//! The fault-injection layer is process-global, so every test takes the
//! file-local lock — the one armed test must not leak `EINTR` into its
//! neighbors (same discipline as the torture harness's run lock).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};
use ulp_kernel::fault::{self, FaultPlan};
use ulp_kernel::poll::EpollOp;
use ulp_kernel::{Errno, Fd, Kernel, KernelRef, Pid, PollEvents, Semaphore, WakeSite};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn boot() -> (KernelRef, Pid) {
    let k = Kernel::native();
    let pid = k.spawn_process(Some(Pid(1)), "readiness-test");
    k.bind_current(pid);
    (k, pid)
}

#[test]
fn poll_on_never_ready_fd_times_out() {
    let _g = serial();
    let (k, _) = boot();
    let (r, _w) = k.sys_pipe().unwrap();
    let started = Instant::now();
    let revents = k
        .sys_poll(&[(r, PollEvents::IN)], Some(Duration::from_millis(40)))
        .unwrap();
    assert!(
        started.elapsed() >= Duration::from_millis(35),
        "returned {}ms before the timeout",
        started.elapsed().as_millis()
    );
    assert_eq!(revents.len(), 1);
    assert!(revents[0].is_empty(), "nothing was ready: {:?}", revents[0]);
    k.unbind_current();
}

#[test]
fn epoll_ctl_error_paths() {
    let _g = serial();
    let (k, _) = boot();
    let ep = k.sys_epoll_create().unwrap();
    let (r, w) = k.sys_pipe().unwrap();

    // EBADF: the target descriptor is not open.
    assert_eq!(
        k.sys_epoll_ctl(ep, EpollOp::Add, Fd(321), PollEvents::IN)
            .unwrap_err(),
        Errno::EBADF
    );
    // ENOENT: Mod/Del before any registration.
    assert_eq!(
        k.sys_epoll_ctl(ep, EpollOp::Mod, r, PollEvents::IN)
            .unwrap_err(),
        Errno::ENOENT
    );
    assert_eq!(
        k.sys_epoll_ctl(ep, EpollOp::Del, r, PollEvents::IN)
            .unwrap_err(),
        Errno::ENOENT
    );
    // EEXIST: double Add of a live registration.
    k.sys_epoll_ctl(ep, EpollOp::Add, r, PollEvents::IN)
        .unwrap();
    assert_eq!(
        k.sys_epoll_ctl(ep, EpollOp::Add, r, PollEvents::IN)
            .unwrap_err(),
        Errno::EEXIST
    );
    // EINVAL: epfd is not an epoll descriptor / watching an epoll / self.
    assert_eq!(
        k.sys_epoll_ctl(w, EpollOp::Add, r, PollEvents::IN)
            .unwrap_err(),
        Errno::EINVAL
    );
    let ep2 = k.sys_epoll_create().unwrap();
    assert_eq!(
        k.sys_epoll_ctl(ep, EpollOp::Add, ep2, PollEvents::IN)
            .unwrap_err(),
        Errno::EINVAL
    );
    assert_eq!(
        k.sys_epoll_ctl(ep, EpollOp::Add, ep, PollEvents::IN)
            .unwrap_err(),
        Errno::EINVAL
    );
    // Mod/Del on the live registration succeed.
    k.sys_epoll_ctl(ep, EpollOp::Mod, r, PollEvents::IN)
        .unwrap();
    k.sys_epoll_ctl(ep, EpollOp::Del, r, PollEvents::IN)
        .unwrap();
    k.unbind_current();
}

/// Registration identifies the open file description, not the fd slot: a
/// `dup2` shuffle that closes the original slot leaves the registration
/// live (reported under the fd number used at `Add` time), and only the
/// death of the description itself deregisters.
#[test]
fn readiness_survives_dup2() {
    let _g = serial();
    let (k, _) = boot();
    let ep = k.sys_epoll_create().unwrap();
    let (r, w) = k.sys_pipe().unwrap();
    k.sys_epoll_ctl(ep, EpollOp::Add, r, PollEvents::IN)
        .unwrap();

    // Move the read end elsewhere, then close the registered slot.
    let spare = k
        .sys_open(
            "/spare",
            ulp_kernel::OpenFlags::CREAT | ulp_kernel::OpenFlags::WRONLY,
        )
        .unwrap();
    let moved = k.sys_dup2(r, spare).unwrap();
    k.sys_close(r).unwrap();

    k.sys_write(w, b"x").unwrap();
    let got = k
        .sys_epoll_wait(ep, 8, Some(Duration::from_millis(200)))
        .unwrap();
    assert_eq!(got.len(), 1, "registration must survive the dup2 shuffle");
    assert_eq!(got[0].0, r, "reported under the fd used at Add time");
    assert!(got[0].1.contains(PollEvents::IN));

    // Death of the description (last descriptor closed) auto-deregisters.
    k.sys_close(moved).unwrap();
    let got = k
        .sys_epoll_wait(ep, 8, Some(Duration::from_millis(10)))
        .unwrap();
    assert!(got.is_empty(), "dead description must be pruned: {got:?}");
    k.unbind_current();
}

#[test]
fn eintr_mid_epoll_wait_under_fault_plan() {
    let _g = serial();
    let (k, _) = boot();
    let ep = k.sys_epoll_create().unwrap();
    let (r, _w) = k.sys_pipe().unwrap();
    k.sys_epoll_ctl(ep, EpollOp::Add, r, PollEvents::IN)
        .unwrap();
    // Every EINTR opportunity fires: the wait must be interrupted long
    // before its generous timeout.
    fault::arm(FaultPlan {
        seed: 7,
        spurious_wake_per_1024: 0,
        eintr_per_1024: 1024,
        eagain_per_1024: 0,
        short_read_per_1024: 0,
        delay_wake_per_1024: 0,
    });
    let started = Instant::now();
    let err = k
        .sys_epoll_wait(ep, 8, Some(Duration::from_secs(10)))
        .unwrap_err();
    fault::disarm();
    assert_eq!(err, Errno::EINTR);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "EINTR must preempt the timeout"
    );
    k.unbind_current();
}

#[test]
fn writer_close_wakes_blocked_epoll_with_hup() {
    let _g = serial();
    let (k, pid) = boot();
    let ep = k.sys_epoll_create().unwrap();
    let (r, w) = k.sys_pipe().unwrap();
    k.sys_epoll_ctl(ep, EpollOp::Add, r, PollEvents::IN)
        .unwrap();

    let k2 = k.clone();
    let closer = std::thread::spawn(move || {
        k2.bind_current(pid);
        std::thread::sleep(Duration::from_millis(30));
        k2.sys_close(w).unwrap();
        k2.unbind_current();
    });
    let started = Instant::now();
    let got = k.sys_epoll_wait(ep, 8, None).unwrap();
    closer.join().unwrap();
    assert!(
        started.elapsed() >= Duration::from_millis(20),
        "epoll_wait returned before the close"
    );
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0, r);
    assert!(
        got[0].1.contains(PollEvents::HUP),
        "revents: {:?}",
        got[0].1
    );
    assert!(
        got[0].1.contains(PollEvents::IN),
        "EOF is readable (a read returns 0 at once): {:?}",
        got[0].1
    );
    // And the woken reader indeed observes EOF without blocking.
    let mut buf = [0u8; 4];
    assert_eq!(k.sys_read(r, &mut buf).unwrap(), 0);
    k.unbind_current();
}

// ---------------------------------------------------------------------------
// Wake-edge fault coverage: an interrupted or spurious unblock must not emit
// a wake edge, while the genuine wake that finally ends the wait emits
// exactly one. The kernel's wake hooks are process-global (first install
// wins) and `ulp-core` never loads in this binary, so these tests own them;
// the hooks are called only while a recorder is counted in, so the first
// capture counts one in for the rest of the binary. Every wake test drains
// the capture buffer under the serial lock before the phase it asserts on,
// so edges leaked by neighboring tests are inert.

static WAKE_CLOCK: AtomicU64 = AtomicU64::new(1);
static CAPTURED: Mutex<Vec<(u64, u64, WakeSite)>> = Mutex::new(Vec::new());

fn capture_wake_edges() {
    ulp_kernel::KernelHooks {
        syscall: |_, _| {},
        wake_stamp: || (7, WAKE_CLOCK.fetch_add(1, Ordering::Relaxed)),
        wake_emit: |waker, armed_ns, site| {
            CAPTURED
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((waker, armed_ns, site));
        },
        proc: |_| None,
    }
    .install();
    static RECORDING: Once = Once::new();
    RECORDING.call_once(ulp_kernel::trace::start_recording);
}

fn drain_wake_edges() -> Vec<(u64, u64, WakeSite)> {
    std::mem::take(&mut *CAPTURED.lock().unwrap_or_else(|e| e.into_inner()))
}

/// An `EINTR` that preempts the sleep ends no wait that a waker caused, so
/// it must not manufacture a wake edge — only the later genuine readiness
/// fire may, and exactly once.
#[test]
fn eintr_epoll_wait_emits_no_wake_edge() {
    let _g = serial();
    capture_wake_edges();
    let (k, pid) = boot();
    let ep = k.sys_epoll_create().unwrap();
    let (r, w) = k.sys_pipe().unwrap();
    k.sys_epoll_ctl(ep, EpollOp::Add, r, PollEvents::IN)
        .unwrap();

    drain_wake_edges();
    fault::arm(FaultPlan {
        seed: 13,
        spurious_wake_per_1024: 0,
        eintr_per_1024: 1024,
        eagain_per_1024: 0,
        short_read_per_1024: 0,
        delay_wake_per_1024: 0,
    });
    let err = k
        .sys_epoll_wait(ep, 8, Some(Duration::from_secs(10)))
        .unwrap_err();
    fault::disarm();
    assert_eq!(err, Errno::EINTR);
    let edges = drain_wake_edges();
    assert!(
        edges.is_empty(),
        "an EINTR'd epoll_wait attributed a wake it never got: {edges:?}"
    );

    // The genuine wake that ends a real sleep emits exactly one edge.
    let k2 = k.clone();
    let writer = std::thread::spawn(move || {
        k2.bind_current(pid);
        std::thread::sleep(Duration::from_millis(30));
        k2.sys_write(w, b"x").unwrap();
        k2.unbind_current();
    });
    let got = k.sys_epoll_wait(ep, 8, None).unwrap();
    writer.join().unwrap();
    assert_eq!(got.len(), 1);
    let edges = drain_wake_edges();
    let epoll_edges: Vec<_> = edges
        .iter()
        .filter(|(_, _, site)| *site == WakeSite::EpollWait)
        .collect();
    assert_eq!(
        epoll_edges.len(),
        1,
        "one blocked epoll_wait, one edge: {edges:?}"
    );
    let (waker, armed_ns, _) = epoll_edges[0];
    assert_eq!(*waker, 7, "edge must carry the stamping thread's identity");
    assert_ne!(*armed_ns, 0, "an armed stamp always has a nonzero clock");
    k.unbind_current();
}

/// Two threads asleep in `epoll_wait` on one epoll descriptor are woken by
/// one edge. Both report the readable pipe (level-triggered), the edge is
/// attributed exactly once, and a later call that finds the pipe readable
/// without sleeping inherits nothing from them.
#[test]
fn two_waiters_on_one_epoll_fd_share_one_edge() {
    let _g = serial();
    capture_wake_edges();
    let (k, pid) = boot();
    let ep = k.sys_epoll_create().unwrap();
    let (r, w) = k.sys_pipe().unwrap();
    k.sys_epoll_ctl(ep, EpollOp::Add, r, PollEvents::IN)
        .unwrap();
    drain_wake_edges();

    let waiters: Vec<_> = (0..2)
        .map(|_| {
            let k = k.clone();
            std::thread::spawn(move || {
                k.bind_current(pid);
                let got = k.sys_epoll_wait(ep, 8, None).unwrap();
                k.unbind_current();
                got
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    k.sys_write(w, b"x").unwrap();
    for waiter in waiters {
        assert_eq!(waiter.join().unwrap(), vec![(r, PollEvents::IN)]);
    }
    assert_eq!(
        k.sys_epoll_wait(ep, 8, None).unwrap(),
        vec![(r, PollEvents::IN)]
    );
    let edges = drain_wake_edges();
    let epoll_edges = edges
        .iter()
        .filter(|(_, _, site)| *site == WakeSite::EpollWait)
        .count();
    assert_eq!(epoll_edges, 1, "one stamped edge, one claim: {edges:?}");
    k.unbind_current();
}

/// A spurious `futex_wait` return re-loops on the permit count without
/// consuming the wake stamp: no permit means no post, and an unarmed cell
/// emits nothing. Only the post that actually supplies the permit is
/// attributed — exactly one edge despite every sleep returning spuriously.
#[test]
fn spurious_futex_wakes_emit_no_edge() {
    let _g = serial();
    capture_wake_edges();
    let sem = Arc::new(Semaphore::new(0));
    drain_wake_edges();
    fault::arm(FaultPlan {
        seed: 11,
        spurious_wake_per_1024: 1024,
        eintr_per_1024: 0,
        eagain_per_1024: 0,
        short_read_per_1024: 0,
        delay_wake_per_1024: 0,
    });
    let poster = {
        let sem = sem.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            sem.post();
        })
    };
    sem.wait();
    poster.join().unwrap();
    fault::disarm();
    let edges = drain_wake_edges();
    assert_eq!(
        edges.len(),
        1,
        "every spurious return must stay unattributed: {edges:?}"
    );
    assert_eq!(edges[0].2, WakeSite::FutexWake);
    assert_eq!(edges[0].0, 7, "the edge belongs to the posting thread");
}

/// Peer close on a socket end wakes a blocked `poll` with `HUP` too — the
/// socket and pipe paths share one wait-queue discipline.
#[test]
fn socket_peer_close_wakes_poll_with_hup() {
    let _g = serial();
    let (k, pid) = boot();
    let (a, b) = k.sys_socketpair().unwrap();
    let k2 = k.clone();
    let closer = std::thread::spawn(move || {
        k2.bind_current(pid);
        std::thread::sleep(Duration::from_millis(30));
        k2.sys_close(a).unwrap();
        k2.unbind_current();
    });
    let revents = k.sys_poll(&[(b, PollEvents::IN)], None).unwrap();
    closer.join().unwrap();
    assert!(revents[0].contains(PollEvents::HUP), "{:?}", revents[0]);
    k.unbind_current();
}

// ---------------------------------------------------------------------------
// The watch list is bounded: at most one entry per live waker, none for a
// `poll` that has returned. (At the parent of the PR that added these,
// `subscribe` pushed unconditionally and only a later notify pruned.)

/// Entries in the watch list of the object behind `fd`, dead ones included.
fn watch_list_len(k: &KernelRef, pid: Pid, fd: Fd) -> usize {
    let desc = k.process(pid).unwrap().fds.lock().get(fd).unwrap();
    desc.file.watch().expect("watchable").watcher_count()
}

/// Generation of the epoll instance behind `epfd`.
fn epoll_generation(k: &KernelRef, pid: Pid, epfd: Fd) -> u64 {
    let desc = k.process(pid).unwrap().fds.lock().get(epfd).unwrap();
    desc.file.as_epoll().expect("epoll").waker.generation()
}

#[test]
fn returned_polls_leave_no_watch_list_entry() {
    let _g = serial();
    let (k, pid) = boot();
    let (r, w) = k.sys_pipe().unwrap();
    for _ in 0..10_000 {
        let revents = k
            .sys_poll(&[(r, PollEvents::IN)], Some(Duration::ZERO))
            .unwrap();
        assert!(revents[0].is_empty());
    }
    assert_eq!(watch_list_len(&k, pid, r), 0, "timed-out polls");

    // The ready and the EINTR exits unsubscribe too.
    k.sys_write(w, b"x").unwrap();
    let revents = k.sys_poll(&[(r, PollEvents::IN)], None).unwrap();
    assert!(revents[0].contains(PollEvents::IN));
    assert_eq!(watch_list_len(&k, pid, r), 0, "ready poll");
    k.sys_read(r, &mut [0u8; 1]).unwrap();
    fault::arm(FaultPlan {
        seed: 5,
        spurious_wake_per_1024: 0,
        eintr_per_1024: 1024,
        eagain_per_1024: 0,
        short_read_per_1024: 0,
        delay_wake_per_1024: 0,
    });
    let err = k.sys_poll(&[(r, PollEvents::IN)], None).unwrap_err();
    fault::disarm();
    assert_eq!(err, Errno::EINTR);
    assert_eq!(watch_list_len(&k, pid, r), 0, "interrupted poll");
    k.unbind_current();
}

#[test]
fn add_del_cycles_leave_one_subscription() {
    let _g = serial();
    let (k, pid) = boot();
    let ep = k.sys_epoll_create().unwrap();
    let (r, w) = k.sys_pipe().unwrap();
    for _ in 0..1_000 {
        k.sys_epoll_ctl(ep, EpollOp::Add, r, PollEvents::IN)
            .unwrap();
        k.sys_epoll_ctl(ep, EpollOp::Del, r, PollEvents::NONE)
            .unwrap();
    }
    let before = epoll_generation(&k, pid, ep);
    k.sys_write(w, b"x").unwrap();
    assert_eq!(
        epoll_generation(&k, pid, ep) - before,
        1,
        "one write is one edge, however often the pipe was registered"
    );
    assert!(watch_list_len(&k, pid, r) <= 1, "one live waker, one entry");
    k.unbind_current();
}

/// Deleting one registration of a description must not silence another
/// registration of the same description in the same epoll instance
/// (over-notify is allowed, under-notify is not).
#[test]
fn deleting_a_sibling_registration_keeps_the_other_woken() {
    let _g = serial();
    let (k, pid) = boot();
    let ep = k.sys_epoll_create().unwrap();
    let (r, w) = k.sys_pipe().unwrap();
    let r2 = k.sys_dup(r).unwrap();
    k.sys_epoll_ctl(ep, EpollOp::Add, r, PollEvents::IN)
        .unwrap();
    k.sys_epoll_ctl(ep, EpollOp::Add, r2, PollEvents::IN)
        .unwrap();
    k.sys_epoll_ctl(ep, EpollOp::Del, r2, PollEvents::NONE)
        .unwrap();
    let k2 = k.clone();
    let writer = std::thread::spawn(move || {
        k2.bind_current(pid);
        std::thread::sleep(Duration::from_millis(30));
        k2.sys_write(w, b"x").unwrap();
        k2.unbind_current();
    });
    let started = Instant::now();
    let got = k
        .sys_epoll_wait(ep, 8, Some(Duration::from_secs(10)))
        .unwrap();
    writer.join().unwrap();
    assert_eq!(got.len(), 1, "the surviving registration fired: {got:?}");
    assert_eq!(got[0].0, r);
    // Woken by the write, not rescued by the timeout's last scan.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "slept through the edge"
    );
    k.unbind_current();
}
