//! Hang-up must wake the peer it strands.
//!
//! A reader asleep on an empty stream whose last writer goes away has to see
//! EOF; a writer asleep on a full one whose last reader goes away has to see
//! `EPIPE`. The hang-up is the only wake-up either will ever get, so it must
//! not slip into the window between the sleeper's check of the peer count
//! and its going to sleep — which it could while the drop paths notified
//! without taking the buffer lock. Each round releases the sleeper and the
//! hang-up together from a barrier; a sleeper still asleep five seconds
//! later fails the test (instead of hanging it). A peer whose queue's last
//! wait was short is spinning rather than asleep when the hang-up lands, and
//! must be reached all the same.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};
use ulp_kernel::{
    pipe, pipe_with_capacity, socketpair, socketpair_with_capacity, wait_outcomes, Errno, FileLike,
    KResult,
};

const ROUNDS: usize = 2_000;
const LIMIT: Duration = Duration::from_secs(5);

/// One round: `sleeper` runs on a thread of its own, `hang_up` on this one,
/// both released together. Returns what the sleeper's call returned.
fn race(
    sleeper: impl FnOnce() -> KResult<usize> + Send + 'static,
    hang_up: impl FnOnce(),
) -> KResult<usize> {
    let start = Arc::new(Barrier::new(2));
    let (done, result) = mpsc::channel();
    let thread = {
        let start = start.clone();
        std::thread::spawn(move || {
            start.wait();
            let _ = done.send(sleeper());
        })
    };
    start.wait();
    hang_up();
    let out = result
        .recv_timeout(LIMIT)
        .expect("still asleep 5 s after the hang-up: the wake-up was lost");
    thread.join().expect("sleeper panicked");
    out
}

#[test]
fn pipe_hang_up_wakes_the_blocked_peer() {
    for round in 0..ROUNDS {
        let (r, w) = pipe();
        let got = race(move || r.read(&mut [0u8; 8]), move || drop(w));
        assert_eq!(got, Ok(0), "round {round}: reader must see EOF");

        let (r, w) = pipe_with_capacity(4);
        assert_eq!(w.write(b"full"), Ok(4));
        let got = race(move || w.write(b"x"), move || drop(r));
        assert_eq!(
            got,
            Err(Errno::EPIPE),
            "round {round}: writer must see EPIPE"
        );
    }
}

#[test]
fn socketpair_hang_up_wakes_the_blocked_peer() {
    for round in 0..ROUNDS {
        let (a, b) = socketpair();
        let got = race(move || a.read(&mut [0u8; 8]), move || drop(b));
        assert_eq!(got, Ok(0), "round {round}: reader must see EOF");

        let (a, b) = socketpair_with_capacity(4);
        assert_eq!(a.write(b"full"), Ok(4));
        let got = race(move || a.write(b"x"), move || drop(b));
        assert_eq!(
            got,
            Err(Errno::EPIPE),
            "round {round}: writer must see EPIPE"
        );
    }
}

/// One round with a spinning peer: the peer's thread runs `warm` — one
/// wait that `feed` from this side ends a few µs in, leaving the queue with a
/// short last wait — and then `last`, whose wait is a spin when this side
/// hangs up a few µs after it began. Returns what `last` returned.
fn spinning_race(
    peer: Box<dyn FileLike>,
    warm: fn(&dyn FileLike),
    last: fn(&dyn FileLike) -> KResult<usize>,
    this: Box<dyn FileLike>,
    feed: fn(&dyn FileLike),
) -> KResult<usize> {
    let stage = Arc::new(AtomicU32::new(0));
    // Until the peer is about to wait for the `n`th time, and then a little.
    let waiting = |n| {
        while stage.load(Ordering::Acquire) < n {
            std::hint::spin_loop();
        }
        let t = Instant::now();
        while t.elapsed() < Duration::from_micros(3) {
            std::hint::spin_loop();
        }
    };
    let peer_stage = stage.clone();
    race(
        move || {
            peer_stage.store(1, Ordering::Release);
            warm(&*peer);
            peer_stage.store(2, Ordering::Release);
            last(&*peer)
        },
        move || {
            waiting(1);
            feed(&*this);
            waiting(2);
            drop(this);
        },
    )
}

#[test]
fn hang_up_wakes_a_spinning_peer() {
    let before = wait_outcomes();
    for round in 0..ROUNDS {
        let read = |r: Box<dyn FileLike>, w: Box<dyn FileLike>| {
            let got = spinning_race(
                r,
                |r| assert_eq!(r.read(&mut [0u8; 1]), Ok(1)),
                |r| r.read(&mut [0u8; 8]),
                w,
                |w| assert_eq!(w.write(b"x"), Ok(1)),
            );
            assert_eq!(got, Ok(0), "round {round}: reader must see EOF");
        };
        // Capacity 4, full: each write waits for room.
        let write = |w: Box<dyn FileLike>, r: Box<dyn FileLike>| {
            assert_eq!(w.write(b"full"), Ok(4));
            let got = spinning_race(
                w,
                |w| assert_eq!(w.write(b"x"), Ok(1)),
                |w| w.write(b"y"),
                r,
                |r| assert_eq!(r.read(&mut [0u8; 1]), Ok(1)),
            );
            assert_eq!(
                got,
                Err(Errno::EPIPE),
                "round {round}: writer must see EPIPE"
            );
        };
        let (r, w) = pipe();
        read(Box::new(r), Box::new(w));
        let (r, w) = pipe_with_capacity(4);
        write(Box::new(w), Box::new(r));
        let (a, b) = socketpair();
        read(Box::new(a), Box::new(b));
        let (a, b) = socketpair_with_capacity(4);
        write(Box::new(a), Box::new(b));
    }
    // The other tests here wait on fresh queues, which sleep at once: the
    // spins are this test's.
    let after = wait_outcomes();
    let spun = after.spin_hits + after.spin_misses - before.spin_hits - before.spin_misses;
    assert!(
        spun as usize >= ROUNDS,
        "{spun} spinning waits in {} races: the peers were asleep",
        4 * ROUNDS
    );
}
