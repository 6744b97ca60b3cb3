//! In-kernel loopback stream sockets and listeners.
//!
//! A socket pair (see [`socketpair`]) is the loopback analogue of
//! `socketpair(AF_UNIX, SOCK_STREAM)`: two independent byte-stream directions
//! between two ends, each direction a bounded buffer with the same blocking
//! discipline as [`mod@crate::pipe`] — `read` on an empty direction and `write` on a full one
//! park the calling OS thread, which is exactly the class of call the
//! paper's `couple()`/`decouple()` protocol exists to make safe (§V-B).
//!
//! On top of it, a [`Listener`] gives client and server ULPs a rendezvous
//! point: `connect` manufactures a fresh socketpair, queues the server half
//! on the listener's accept queue, and hands the client half back — the
//! server's `accept` (usually driven by an epoll readiness edge on the
//! listener) pops its half. This is the minimal shape of the classic
//! threaded-server runtime the SR port describes: one acceptor multiplexing
//! many per-connection streams. Behind a descriptor both are [`FileLike`]s
//! (`read`/`write`, `accept`), and every sleep is on a `wait.rs` queue.
//!
//! ## Backpressure watermark
//!
//! Write *readiness* is gated by a low watermark ([`SOCK_LOWAT`] fraction of
//! capacity): `POLLOUT` is reported only when at least that much space is
//! free. Blocking writes still proceed whenever *any* space exists — the
//! watermark shapes what epoll reports, not what `write` does — so a
//! readiness-driven writer coalesces its wakeups into watermark-sized
//! batches instead of being woken once per drained byte.

use crate::errno::{Errno, KResult};
use crate::fault::{self, FaultKind};
use crate::fs::FileLike;
use crate::poll::{PollEvents, WatchSet};
use crate::stream::ByteStream;
use crate::trace::WakeSite;
use crate::wait::WaitQueue;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Default per-direction buffer capacity (half a pipe: sockets carry
/// request/response frames, not bulk streams).
pub const SOCK_CAPACITY: usize = 32 * 1024;

/// Low-watermark divisor for write readiness: `POLLOUT` is reported when at
/// least `capacity / SOCK_LOWAT` bytes are free.
pub const SOCK_LOWAT: usize = 4;

/// The shared state of a connected socketpair. `streams[side]` carries bytes
/// *written by* end `side` (read by the peer), so a handle to end `side` is
/// a write handle of `streams[side]` and a read handle of the other — which
/// is how either end detects peer close.
#[derive(Debug)]
struct SockPair {
    streams: [ByteStream; 2],
    /// `watches[side]` holds the readiness watchers of end `side`, and only
    /// the edges that change that end's readiness reach it: the peer's
    /// writes (`IN`), the peer's reads draining what this end wrote
    /// (`OUT`) and the peer going (`IN|HUP`). An end's own reads and writes
    /// fire nothing at its own watchers — the two ends of one pair share an
    /// event kind, so one set for both would wake a server that watches its
    /// end for `IN` on every reply it writes and every drain of it.
    watches: [WatchSet; 2],
}

/// One end of a connected socketpair. `Clone` duplicates the handle (like
/// `dup(2)` on the raw object); dropping the last handle to an end is what
/// the peer observes as EOF/EPIPE/HUP.
#[derive(Debug)]
pub struct SocketEnd {
    pair: Arc<SockPair>,
    side: usize,
}

/// Create a connected socketpair with the given per-direction capacity.
pub fn socketpair_with_capacity(capacity: usize) -> (SocketEnd, SocketEnd) {
    let capacity = capacity.max(SOCK_LOWAT);
    let stream = || ByteStream::new(capacity, WakeSite::SockRead, WakeSite::SockWrite);
    let pair = Arc::new(SockPair {
        streams: [stream(), stream()],
        watches: [WatchSet::new(), WatchSet::new()],
    });
    (
        SocketEnd {
            pair: pair.clone(),
            side: 0,
        },
        SocketEnd { pair, side: 1 },
    )
}

/// Create a connected socketpair with the default capacity.
pub fn socketpair() -> (SocketEnd, SocketEnd) {
    socketpair_with_capacity(SOCK_CAPACITY)
}

impl Clone for SocketEnd {
    fn clone(&self) -> Self {
        self.tx().add_writer();
        self.rx().add_reader();
        SocketEnd {
            pair: self.pair.clone(),
            side: self.side,
        }
    }
}

impl Drop for SocketEnd {
    fn drop(&mut self) {
        // Last handle to this end gone: the peer must observe EOF (its
        // reads) and EPIPE (its writes) — both directions wake their
        // sleepers, and the peer's readiness waiters hear `IN|HUP`. (An end
        // holds one handle on each of its two streams, so both counts reach
        // zero together.)
        self.rx().drop_reader();
        if self.tx().drop_writer() {
            self.peer_watch().notify(PollEvents::IN | PollEvents::HUP);
        }
    }
}

impl SocketEnd {
    /// Bytes this end has written go into its own stream...
    fn tx(&self) -> &ByteStream {
        &self.pair.streams[self.side]
    }

    /// ...and bytes it reads come from the peer's.
    fn rx(&self) -> &ByteStream {
        &self.pair.streams[1 - self.side]
    }

    /// Every edge this end fires is the peer's: its writes make the peer
    /// readable, its reads make the peer writable.
    fn peer_watch(&self) -> &WatchSet {
        &self.pair.watches[1 - self.side]
    }
}

impl FileLike for SocketEnd {
    /// Blocking read from the peer direction: waits for at least one byte,
    /// returns 0 at EOF (peer closed, buffer drained). Sleeps are bracketed
    /// by a `sock_block_read` span, mirroring the pipe path; the same
    /// fault-plan hooks apply (`EINTR` before any bytes move, short reads
    /// truncated to one byte).
    fn read(&self, out: &mut [u8]) -> KResult<usize> {
        self.rx().read(out, true, self.peer_watch())
    }

    /// Blocking write of the whole buffer into this end's direction; sleeps
    /// whenever the direction is full, `EPIPE` once the peer is gone and
    /// nothing was written. Sleeps are bracketed by a `sock_block_write`
    /// span.
    fn write(&self, data: &[u8]) -> KResult<usize> {
        self.tx().write(data, true, self.peer_watch())
    }

    /// Current readiness of this end (level-triggered snapshot):
    /// - `IN` — peer-direction bytes buffered, or peer closed (EOF is
    ///   readable);
    /// - `OUT` — at least the low watermark of this direction is free and
    ///   the peer is alive;
    /// - `HUP` — peer closed.
    fn poll_events(&self) -> PollEvents {
        let mut ev = PollEvents::NONE;
        let rx = self.rx().status();
        let peer_gone = rx.writers == 0;
        if rx.len > 0 || peer_gone {
            ev = ev | PollEvents::IN;
        }
        if peer_gone {
            ev = ev | PollEvents::HUP;
        } else {
            let capacity = self.tx().capacity;
            let lowat = capacity / SOCK_LOWAT;
            if capacity - self.tx().status().len >= lowat.max(1) {
                ev = ev | PollEvents::OUT;
            }
        }
        ev
    }

    /// This end's own watch set: the peer fires it.
    fn watch(&self) -> Option<&WatchSet> {
        Some(&self.pair.watches[self.side])
    }
}

/// Default accept-queue depth (mirrors a typical `listen(2)` backlog).
pub const LISTEN_BACKLOG: usize = 128;

/// A rendezvous point between connecting clients and an accepting server.
///
/// Created raw (like [`crate::pipe::pipe`]'s ends) and shared across ULPs
/// by `Arc`; `Kernel::sys_listen` installs it into a process FD table so a
/// server can watch it with epoll, and `Kernel::sys_connect` resolves it
/// directly from the client's `Arc`.
#[derive(Debug)]
pub struct Listener {
    queue: Mutex<VecDeque<SocketEnd>>,
    /// Blocked acceptors, woken one per connecting client.
    acceptors: WaitQueue,
    backlog: usize,
    watch: WatchSet,
}

impl Listener {
    /// A fresh listener with the default backlog.
    pub fn new() -> Arc<Listener> {
        Listener::with_backlog(LISTEN_BACKLOG)
    }

    /// A fresh listener with an explicit backlog bound.
    pub fn with_backlog(backlog: usize) -> Arc<Listener> {
        Arc::new(Listener {
            queue: Mutex::new(VecDeque::new()),
            acceptors: WaitQueue::new(WakeSite::Accept),
            backlog: backlog.max(1),
            watch: WatchSet::new(),
        })
    }

    /// Client half of connection establishment: manufacture a socketpair,
    /// queue the server half, return the client half. `EAGAIN` when the
    /// backlog is full (the simulated kernel refuses rather than blocks,
    /// like a non-blocking `connect` against a saturated listen queue).
    pub fn connect(&self) -> KResult<SocketEnd> {
        let (client, server) = socketpair();
        let mut q = self.queue.lock();
        if q.len() >= self.backlog {
            return Err(Errno::EAGAIN);
        }
        q.push_back(server);
        self.acceptors.wake_one(&q);
        drop(q);
        self.watch.notify(PollEvents::IN);
        Ok(client)
    }
}

/// `read`/`write` on a listener stay the trait's `EINVAL`.
impl FileLike for Listener {
    /// Blocking accept: pop the next queued connection, parking the calling
    /// OS thread while the queue is empty. Sleeps are bracketed by an
    /// `accept_block` span; the fault plan may inject `EINTR` before a
    /// connection is taken.
    fn accept(&self) -> KResult<SocketEnd> {
        if fault::fire(FaultKind::Eintr) {
            return Err(Errno::EINTR);
        }
        let mut q = self.queue.lock();
        let mut wait = self.acceptors.wait(None);
        let res = loop {
            if let Some(end) = q.pop_front() {
                break Ok(end);
            }
            wait.sleep(&mut q);
        };
        drop(q);
        wait.finish(&res, true);
        res
    }

    /// `IN` when a connection is queued.
    fn poll_events(&self) -> PollEvents {
        if self.queue.lock().is_empty() {
            PollEvents::NONE
        } else {
            PollEvents::IN
        }
    }

    /// Readiness edges fire on connect.
    fn watch(&self) -> Option<&WatchSet> {
        Some(&self.watch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn byte_stream_roundtrip_both_directions() {
        let (a, b) = socketpair();
        assert_eq!(a.write(b"ping").unwrap(), 4);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        assert_eq!(b.write(b"pong!").unwrap(), 5);
        assert_eq!(a.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"pong!");
    }

    #[test]
    fn directions_are_independent() {
        let (a, b) = socketpair_with_capacity(4);
        assert_eq!(a.write(b"abcd").unwrap(), 4); // a→b full
        assert_eq!(b.write(b"wxyz").unwrap(), 4); // b→a unaffected
        let mut buf = [0u8; 4];
        assert_eq!(a.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"wxyz");
    }

    #[test]
    fn read_blocks_until_peer_writes() {
        let (a, b) = socketpair();
        let t = thread::spawn(move || {
            let mut buf = [0u8; 4];
            let n = a.read(&mut buf).unwrap();
            (n, buf)
        });
        thread::sleep(Duration::from_millis(20));
        b.write(b"ok").unwrap();
        let (n, buf) = t.join().unwrap();
        assert_eq!(n, 2);
        assert_eq!(&buf[..2], b"ok");
    }

    #[test]
    fn write_blocks_when_direction_full() {
        let (a, b) = socketpair_with_capacity(4);
        assert_eq!(a.write(b"abcd").unwrap(), 4);
        let t = thread::spawn(move || a.write(b"ef").unwrap());
        thread::sleep(Duration::from_millis(20));
        let mut buf = [0u8; 4];
        assert_eq!(b.read(&mut buf).unwrap(), 4);
        assert_eq!(t.join().unwrap(), 2);
        assert_eq!(b.read(&mut buf).unwrap(), 2);
    }

    #[test]
    fn eof_and_epipe_after_peer_drop() {
        let (a, b) = socketpair();
        a.write(b"tail").unwrap();
        drop(a);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 4);
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF expected");
        assert_eq!(b.write(b"x").unwrap_err(), Errno::EPIPE);
    }

    #[test]
    fn clone_keeps_end_alive() {
        let (a, b) = socketpair();
        let a2 = a.clone();
        drop(a);
        a2.write(b"via clone").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(b.read(&mut buf).unwrap(), 9);
        drop(a2);
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn readiness_tracks_buffer_and_peer() {
        let (a, b) = socketpair_with_capacity(8);
        assert_eq!(a.poll_events(), PollEvents::OUT, "idle end: writable only");
        b.write(b"hi").unwrap();
        assert!(a.poll_events().contains(PollEvents::IN));
        drop(b);
        let ev = a.poll_events();
        assert!(ev.contains(PollEvents::IN), "EOF is readable");
        assert!(ev.contains(PollEvents::HUP));
        assert!(!ev.contains(PollEvents::OUT));
    }

    #[test]
    fn out_readiness_respects_watermark() {
        let (a, _b) = socketpair_with_capacity(8);
        // lowat = 2; fill to 7/8 → 1 byte free < lowat → not writable.
        a.write(b"1234567").unwrap();
        assert!(!a.poll_events().contains(PollEvents::OUT));
    }

    #[test]
    fn listener_connect_accept_roundtrip() {
        let l = Listener::new();
        assert_eq!(l.poll_events(), PollEvents::NONE);
        let client = l.connect().unwrap();
        assert_eq!(l.poll_events(), PollEvents::IN);
        let server = l.accept().unwrap();
        client.write(b"hello").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
    }

    #[test]
    fn listener_backlog_refuses_overflow() {
        let l = Listener::with_backlog(2);
        let _c1 = l.connect().unwrap();
        let _c2 = l.connect().unwrap();
        assert_eq!(l.connect().unwrap_err(), Errno::EAGAIN);
        let _s = l.accept().unwrap();
        assert!(l.connect().is_ok(), "accept frees a backlog slot");
    }

    #[test]
    fn accept_blocks_until_connect() {
        let l = Listener::new();
        let l2 = l.clone();
        let t = thread::spawn(move || l2.accept().unwrap());
        thread::sleep(Duration::from_millis(20));
        let client = l.connect().unwrap();
        let server = t.join().unwrap();
        client.write(b"x").unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(server.read(&mut buf).unwrap(), 1);
    }
}
