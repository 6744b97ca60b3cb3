//! Blocking pipes.
//!
//! A pipe is the canonical *blocking* system call pair: `read` on an empty
//! pipe and `write` on a full pipe both put the calling **OS thread** to
//! sleep in the (simulated) kernel. These are the calls that stall an entire
//! user-level-thread scheduler in a conventional ULT library — and the calls
//! that BLT's `couple()`/`decouple()` makes harmless (paper §I, §V-B).

use crate::errno::KResult;
use crate::fs::FileLike;
use crate::poll::{PollEvents, WatchSet};
use crate::stream::ByteStream;
use crate::trace::WakeSite;
use std::sync::Arc;

/// Default pipe capacity (Linux: 64 KiB).
pub const PIPE_CAPACITY: usize = 64 * 1024;

#[derive(Debug)]
struct PipeInner {
    stream: ByteStream,
    /// Readiness watchers (`poll`/`epoll` sleepers) of both ends. Fired at
    /// exactly the sites that wake the stream's blocked readers and writers
    /// — one wait-queue discipline for both kinds of waiter (see
    /// [`crate::poll`]). One set serves both ends because they never share
    /// an event kind: the reader's edges are `IN`/`HUP`, the writer's
    /// `OUT`/`ERR`, so the interest filter already tells them apart.
    watch: WatchSet,
}

/// Read end of a pipe. Cloning shares the same endpoint (like `dup`).
#[derive(Debug)]
pub struct PipeReader(Arc<PipeInner>);

/// Write end of a pipe.
#[derive(Debug)]
pub struct PipeWriter(Arc<PipeInner>);

/// Create a connected pipe pair with the given capacity.
pub fn pipe_with_capacity(capacity: usize) -> (PipeReader, PipeWriter) {
    let inner = Arc::new(PipeInner {
        stream: ByteStream::new(capacity.max(1), WakeSite::PipeRead, WakeSite::PipeWrite),
        watch: WatchSet::new(),
    });
    (PipeReader(inner.clone()), PipeWriter(inner))
}

/// Create a connected pipe pair with the default capacity.
pub fn pipe() -> (PipeReader, PipeWriter) {
    pipe_with_capacity(PIPE_CAPACITY)
}

impl Clone for PipeReader {
    fn clone(&self) -> Self {
        self.0.stream.add_reader();
        PipeReader(self.0.clone())
    }
}

impl Clone for PipeWriter {
    fn clone(&self) -> Self {
        self.0.stream.add_writer();
        PipeWriter(self.0.clone())
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        // Last reader gone: writers must observe EPIPE.
        if self.0.stream.drop_reader() {
            self.0.watch.notify(PollEvents::ERR);
        }
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        // Last writer gone: readers must observe EOF.
        if self.0.stream.drop_writer() {
            self.0.watch.notify(PollEvents::IN | PollEvents::HUP);
        }
    }
}

impl PipeReader {
    /// Non-blocking read: `EAGAIN` instead of sleeping.
    pub fn try_read(&self, out: &mut [u8]) -> KResult<usize> {
        self.0.stream.read(out, false, &self.0.watch)
    }
}

impl PipeWriter {
    /// Non-blocking write: writes what fits, `EAGAIN` if nothing fits.
    pub fn try_write(&self, data: &[u8]) -> KResult<usize> {
        self.0.stream.write(data, false, &self.0.watch)
    }
}

impl FileLike for PipeReader {
    /// Blocking read: waits for at least one byte (or EOF). Returns 0 at
    /// EOF (all writers gone, buffer drained).
    ///
    /// When the calling thread actually sleeps, the sleep is bracketed by a
    /// `pipe_block_read` span through the syscall hook — nested inside the
    /// surrounding `read(2)` span, so the timeline distinguishes "read that
    /// returned at once" from "read that stalled its KC".
    fn read(&self, out: &mut [u8]) -> KResult<usize> {
        self.0.stream.read(out, true, &self.0.watch)
    }

    /// `IN` when bytes are buffered or every writer is gone (EOF is readable
    /// — a read returns 0 at once), plus `HUP` in the latter case.
    fn poll_events(&self) -> PollEvents {
        let st = self.0.stream.status();
        let mut ev = PollEvents::NONE;
        if st.len > 0 || st.writers == 0 {
            ev = ev | PollEvents::IN;
        }
        if st.writers == 0 {
            ev = ev | PollEvents::HUP;
        }
        ev
    }

    /// The pipe's readiness watch set (shared by both ends).
    fn watch(&self) -> Option<&WatchSet> {
        Some(&self.0.watch)
    }
}

impl FileLike for PipeWriter {
    /// Blocking write of the whole buffer; sleeps whenever the pipe is full
    /// (inside a `pipe_block_write` span). `EPIPE` if all readers are gone.
    fn write(&self, data: &[u8]) -> KResult<usize> {
        self.0.stream.write(data, true, &self.0.watch)
    }

    /// `OUT` while space remains and a reader exists; `ERR` once every
    /// reader is gone (the pipe-writer analogue of `POLLERR` on Linux).
    fn poll_events(&self) -> PollEvents {
        let st = self.0.stream.status();
        if st.readers == 0 {
            PollEvents::ERR
        } else if st.len < self.0.stream.capacity {
            PollEvents::OUT
        } else {
            PollEvents::NONE
        }
    }

    fn watch(&self) -> Option<&WatchSet> {
        Some(&self.0.watch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errno::Errno;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn write_then_read() {
        let (r, w) = pipe();
        assert_eq!(w.write(b"hello").unwrap(), 5);
        let mut buf = [0u8; 8];
        assert_eq!(r.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
    }

    #[test]
    fn read_blocks_until_data() {
        let (r, w) = pipe();
        let t = thread::spawn(move || {
            let mut buf = [0u8; 4];
            let n = r.read(&mut buf).unwrap();
            (n, buf)
        });
        thread::sleep(Duration::from_millis(20));
        w.write(b"ok").unwrap();
        let (n, buf) = t.join().unwrap();
        assert_eq!(n, 2);
        assert_eq!(&buf[..2], b"ok");
    }

    #[test]
    fn write_blocks_when_full() {
        let (r, w) = pipe_with_capacity(4);
        assert_eq!(w.write(b"abcd").unwrap(), 4);
        let t = thread::spawn(move || w.write(b"ef").unwrap());
        thread::sleep(Duration::from_millis(20));
        let mut buf = [0u8; 4];
        assert_eq!(r.read(&mut buf).unwrap(), 4);
        assert_eq!(t.join().unwrap(), 2);
        assert_eq!(r.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"ef");
    }

    #[test]
    fn eof_after_writer_drop() {
        let (r, w) = pipe();
        w.write(b"tail").unwrap();
        drop(w);
        let mut buf = [0u8; 8];
        assert_eq!(r.read(&mut buf).unwrap(), 4);
        assert_eq!(r.read(&mut buf).unwrap(), 0, "EOF expected");
    }

    #[test]
    fn epipe_after_reader_drop() {
        let (r, w) = pipe();
        drop(r);
        assert_eq!(w.write(b"x").unwrap_err(), Errno::EPIPE);
    }

    #[test]
    fn try_read_eagain_when_empty() {
        let (r, _w) = pipe();
        let mut buf = [0u8; 1];
        assert_eq!(r.try_read(&mut buf).unwrap_err(), Errno::EAGAIN);
    }

    #[test]
    fn try_write_eagain_when_full() {
        let (_r, w) = pipe_with_capacity(2);
        assert_eq!(w.try_write(b"abc").unwrap(), 2);
        assert_eq!(w.try_write(b"d").unwrap_err(), Errno::EAGAIN);
    }

    #[test]
    fn cloned_ends_keep_pipe_alive() {
        let (r, w) = pipe();
        let w2 = w.clone();
        drop(w);
        w2.write(b"via clone").unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(r.read(&mut buf).unwrap(), 9);
        drop(w2);
        assert_eq!(r.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn bulk_transfer_is_lossless() {
        let (r, w) = pipe_with_capacity(256);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let expect = data.clone();
        let t = thread::spawn(move || w.write(&data).unwrap());
        let mut got = Vec::new();
        let mut buf = [0u8; 333];
        loop {
            let n = r.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
            if got.len() == expect.len() {
                break;
            }
        }
        assert_eq!(t.join().unwrap(), expect.len());
        assert_eq!(got, expect);
    }
}
