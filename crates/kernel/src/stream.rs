//! The bounded blocking byte stream behind pipes and socketpairs.
//!
//! A pipe is one [`ByteStream`]; a socketpair is two, one per direction.
//! `read` on an empty stream and `write` on a full one make the calling **OS
//! thread** wait — a short spin when the queue's last wait was short, a
//! condvar sleep otherwise — until the other side moves bytes or hangs up.
//!
//! Everything a waker needs to decide whether anybody must be woken lives
//! under the one lock it already holds to move the bytes: the buffer and the
//! live handle counts of both sides, with the two [`WaitQueue`]s (blocked
//! readers, blocked writers) riding the same lock. A transfer that finds no
//! waiter makes no host system call and stamps nothing — the queue's
//! sleeper gate, argued in [`crate::wait`] — and the hang-up paths
//! ([`ByteStream::drop_reader`] / [`ByteStream::drop_writer`]) take the lock
//! so that the gate holds for them too.

use crate::errno::{Errno, KResult};
use crate::fault::{self, FaultKind};
use crate::poll::WatchSet;
use crate::trace::WakeSite;
use crate::wait::WaitQueue;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Largest buffer allocated up front; a stream with a larger capacity grows
/// into it on demand.
const PREALLOC_MAX: usize = 64 * 1024;

/// What [`ByteStream::status`] reports: one consistent look at the stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Status {
    /// Bytes buffered.
    pub(crate) len: usize,
    /// Live handles to the read side.
    pub(crate) readers: usize,
    /// Live handles to the write side.
    pub(crate) writers: usize,
}

#[derive(Debug)]
struct State {
    buf: VecDeque<u8>,
    readers: usize,
    writers: usize,
}

/// One direction of bytes: a bounded buffer with a read side and a write
/// side, each held through any number of handles. Created with one handle
/// on each side.
#[derive(Debug)]
pub(crate) struct ByteStream {
    state: Mutex<State>,
    /// Blocked readers: woken by whoever makes the stream readable (bytes,
    /// or the last write handle going).
    readable: WaitQueue,
    /// Blocked writers: woken by whoever frees space or drops the last read
    /// handle.
    writable: WaitQueue,
    pub(crate) capacity: usize,
}

impl ByteStream {
    /// A stream whose blocked readers and writers are attributed to the
    /// given wake sites (and sleep inside those sites' blocking spans).
    pub(crate) fn new(capacity: usize, read: WakeSite, write: WakeSite) -> ByteStream {
        ByteStream {
            state: Mutex::new(State {
                buf: VecDeque::with_capacity(capacity.min(PREALLOC_MAX)),
                readers: 1,
                writers: 1,
            }),
            readable: WaitQueue::new(read),
            writable: WaitQueue::new(write),
            capacity,
        }
    }

    pub(crate) fn status(&self) -> Status {
        let st = self.state.lock();
        Status {
            len: st.buf.len(),
            readers: st.readers,
            writers: st.writers,
        }
    }

    /// Read at least one byte into `out`; 0 at EOF (every write handle gone,
    /// buffer drained). On an empty stream a `block`ing read sleeps —
    /// bracketed by the read site's blocking span, nested inside the
    /// surrounding `read(2)` span — and a non-blocking one returns `EAGAIN`.
    /// `watch` hears about the freed space.
    ///
    /// Fault plan: a blocking read may be interrupted (`EINTR`, before any
    /// bytes move) or truncated to one byte; a non-blocking one may get a
    /// spurious `EAGAIN`.
    pub(crate) fn read(&self, out: &mut [u8], block: bool, watch: &WatchSet) -> KResult<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let out = if !block {
            if fault::fire(FaultKind::Eagain) {
                return Err(Errno::EAGAIN);
            }
            out
        } else {
            if fault::fire(FaultKind::Eintr) {
                return Err(Errno::EINTR);
            }
            if out.len() > 1 && fault::fire(FaultKind::ShortRead) {
                &mut out[..1]
            } else {
                out
            }
        };
        let mut st = self.state.lock();
        let mut wait = self.readable.wait(None);
        let res = loop {
            if !st.buf.is_empty() {
                let n = out.len().min(st.buf.len());
                let (front, back) = st.buf.as_slices();
                let from_front = n.min(front.len());
                out[..from_front].copy_from_slice(&front[..from_front]);
                out[from_front..n].copy_from_slice(&back[..n - from_front]);
                st.buf.drain(..n);
                self.writable.wake_all(&st);
                break Ok(n);
            }
            if st.writers == 0 {
                break Ok(0); // EOF
            }
            if !block {
                break Err(Errno::EAGAIN);
            }
            wait.sleep(&mut st);
        };
        drop(st);
        if matches!(res, Ok(n) if n > 0) {
            watch.notify();
        }
        // Whatever ended a sleep here was a wake: bytes, or the last writer
        // going. (An EINTR fires before the first sleep.)
        wait.finish(&res, true);
        res
    }

    /// Write `data`. A `block`ing write sleeps whenever the stream is full
    /// (inside the write site's blocking span) until all of it is written;
    /// a non-blocking one writes what fits, `EAGAIN` if nothing does.
    /// `EPIPE` once every read handle is gone and nothing was written.
    /// `watch` hears about the new bytes — before this thread sleeps on
    /// them being drained, not only on return.
    ///
    /// Fault plan: `EINTR` on a blocking write, only before any bytes are
    /// written (once data moved, a real kernel returns the partial count
    /// instead); a spurious `EAGAIN` on a non-blocking one.
    pub(crate) fn write(&self, data: &[u8], block: bool, watch: &WatchSet) -> KResult<usize> {
        let (fault, errno) = if block {
            (FaultKind::Eintr, Errno::EINTR)
        } else {
            (FaultKind::Eagain, Errno::EAGAIN)
        };
        if fault::fire(fault) {
            return Err(errno);
        }
        let mut written = 0;
        // Bytes `watch` has been told about.
        let mut announced = 0;
        let mut st = self.state.lock();
        let mut wait = self.writable.wait(None);
        let res = loop {
            if written >= data.len() {
                break Ok(written);
            }
            // What stops a write short: the partial count if any bytes
            // moved, the reason otherwise.
            let cut_short = |why| if written > 0 { Ok(written) } else { Err(why) };
            if st.readers == 0 {
                break cut_short(Errno::EPIPE);
            }
            let space = self.capacity.saturating_sub(st.buf.len());
            if space == 0 {
                if !block {
                    break cut_short(Errno::EAGAIN);
                }
                if announced < written {
                    // A reader driven by readiness must learn of these
                    // bytes now: it is what will make room.
                    announced = written;
                    drop(st);
                    watch.notify();
                    st = self.state.lock();
                    continue;
                }
                wait.sleep(&mut st);
                continue;
            }
            let n = space.min(data.len() - written);
            st.buf.extend(&data[written..written + n]);
            written += n;
            self.readable.wake_all(&st);
        };
        drop(st);
        if announced < written {
            watch.notify();
        }
        wait.finish(&res, true);
        res
    }

    /// One more handle to the read side.
    pub(crate) fn add_reader(&self) {
        self.state.lock().readers += 1;
    }

    /// One more handle to the write side.
    pub(crate) fn add_writer(&self) {
        self.state.lock().writers += 1;
    }

    /// A read handle is gone. Returns whether it was the last one, in which
    /// case blocked writers have been woken to observe `EPIPE` (and the
    /// caller owes the watch set a notify).
    pub(crate) fn drop_reader(&self) -> bool {
        let mut st = self.state.lock();
        st.readers -= 1;
        if st.readers > 0 {
            return false;
        }
        self.writable.wake_all(&st);
        true
    }

    /// A write handle is gone. Returns whether it was the last one, in
    /// which case blocked readers have been woken to observe EOF.
    pub(crate) fn drop_writer(&self) -> bool {
        let mut st = self.state.lock();
        st.writers -= 1;
        if st.writers > 0 {
            return false;
        }
        self.readable.wake_all(&st);
        true
    }
}
