//! Hang-up must wake the peer it strands.
//!
//! A reader asleep on an empty stream whose last writer goes away has to see
//! EOF; a writer asleep on a full one whose last reader goes away has to see
//! `EPIPE`. The hang-up is the only wake-up either will ever get, so it must
//! not slip into the window between the sleeper's check of the peer count
//! and its going to sleep — which it could while the drop paths notified
//! without taking the buffer lock. Each round releases the sleeper and the
//! hang-up together from a barrier; a sleeper still asleep five seconds
//! later fails the test (instead of hanging it).

use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;
use ulp_kernel::{
    pipe, pipe_with_capacity, socketpair, socketpair_with_capacity, Errno, FileLike, KResult,
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
