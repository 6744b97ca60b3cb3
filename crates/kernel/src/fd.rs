//! Per-process file-descriptor tables.
//!
//! The FD table is the piece of kernel state at the heart of the paper's
//! *system-call consistency* argument (§I): "If the `open()` system-call is
//! called, then the opened file descriptor is only valid if the KC calling
//! `open()` and the KC calling `read()` are the same." In this simulated
//! kernel each process owns its own table, so a descriptor opened under one
//! kernel context is meaningless (EBADF) under another — exactly the failure
//! mode `couple()`/`decouple()` exists to prevent.

use crate::errno::{Errno, KResult};
use crate::fs::{FileLike, OpenFlags};
use crate::pipe::{PipeReader, PipeWriter};
use crate::poll::EpollObject;
use crate::socket::{Listener, SocketEnd};
use parking_lot::Mutex;
use std::sync::Arc;

/// A file descriptor index, per-process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub i32);

/// What a descriptor refers to.
///
/// The pipe variants are the descriptors whose `read(2)`/`write(2)` can put
/// the calling kernel context to sleep; those sleeps show up as nested
/// `pipe_block_read`/`pipe_block_write` spans on the trace timeline (see
/// [`crate::trace`]).
#[derive(Debug)]
pub enum FileObject {
    /// A file or directory on a mounted filesystem (tmpfs, procfs, …): the
    /// handle `open` returned. File calls go straight to it, and dropping it
    /// with the description is all the filesystem ever sees of a close.
    File(Arc<dyn FileLike>),
    /// Read end of a pipe (blocking reads may sleep the calling KC).
    PipeRead(PipeReader),
    /// Write end of a pipe (blocking writes may sleep the calling KC).
    PipeWrite(PipeWriter),
    /// One end of a connected loopback socketpair (bidirectional
    /// byte-stream; blocking reads/writes may sleep the calling KC).
    Socket(SocketEnd),
    /// A listening socket: `accept` pops queued connections, readiness
    /// fires when a client connects.
    Listener(Arc<Listener>),
    /// An epoll instance: an interest list over other descriptors plus the
    /// waker its `epoll_wait` sleeps on.
    Epoll(Arc<EpollObject>),
}

/// An *open file description* (POSIX term): shared offset + flags. `dup`ed
/// descriptors share one description, as on Linux, and a call in flight
/// holds a clone of its own, so the object is released exactly when the last
/// of the descriptors *and* calls using it is done — by `Drop`, not by
/// anybody counting.
#[derive(Debug)]
pub struct Description {
    /// What the description refers to (tmpfs file, pipe end, …).
    pub object: FileObject,
    /// Shared file offset (`lseek`/sequential I/O state).
    pub offset: Mutex<u64>,
    /// The flags the description was opened with.
    pub flags: OpenFlags,
}

/// Shared handle to an open file description (`dup` clones the `Arc`).
pub type DescriptionRef = Arc<Description>;

/// Default per-process descriptor limit (mirrors a typical RLIMIT_NOFILE).
pub const DEFAULT_FD_LIMIT: usize = 1024;

/// A per-process descriptor table.
#[derive(Debug)]
pub struct FdTable {
    slots: Vec<Option<DescriptionRef>>,
    limit: usize,
}

impl FdTable {
    /// An empty table with the default descriptor limit.
    pub fn new() -> FdTable {
        FdTable {
            slots: Vec::new(),
            limit: DEFAULT_FD_LIMIT,
        }
    }

    /// Install a description in the lowest free slot (POSIX allocation rule).
    pub fn install(&mut self, desc: DescriptionRef) -> KResult<Fd> {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(desc);
                return Ok(Fd(i as i32));
            }
        }
        if self.slots.len() >= self.limit {
            return Err(Errno::EMFILE);
        }
        self.slots.push(Some(desc));
        Ok(Fd((self.slots.len() - 1) as i32))
    }

    /// Resolve `fd` to its description (`EBADF` for empty/invalid slots).
    pub fn get(&self, fd: Fd) -> KResult<DescriptionRef> {
        if fd.0 < 0 {
            return Err(Errno::EBADF);
        }
        self.slots
            .get(fd.0 as usize)
            .and_then(|s| s.clone())
            .ok_or(Errno::EBADF)
    }

    /// Remove a descriptor, returning its description.
    pub fn remove(&mut self, fd: Fd) -> KResult<DescriptionRef> {
        if fd.0 < 0 {
            return Err(Errno::EBADF);
        }
        self.slots
            .get_mut(fd.0 as usize)
            .and_then(|s| s.take())
            .ok_or(Errno::EBADF)
    }

    /// `dup(2)`: new descriptor sharing the same description.
    pub fn dup(&mut self, fd: Fd) -> KResult<Fd> {
        let desc = self.get(fd)?;
        self.install(desc)
    }

    /// `dup2(2)`: duplicate onto a specific slot, closing what was there.
    /// Returns the previous occupant (if any), to be dropped outside the
    /// table's lock.
    pub fn dup2(&mut self, fd: Fd, newfd: Fd) -> KResult<Option<DescriptionRef>> {
        if newfd.0 < 0 || newfd.0 as usize >= self.limit {
            return Err(Errno::EBADF);
        }
        let desc = self.get(fd)?;
        if fd == newfd {
            return Ok(None);
        }
        let idx = newfd.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].take();
        self.slots[idx] = Some(desc);
        Ok(old)
    }

    /// Number of live descriptors.
    pub fn open_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Drain every descriptor (process exit). Returns the descriptions, to
    /// be dropped outside the table's lock.
    pub fn drain(&mut self) -> Vec<DescriptionRef> {
        self.slots.iter_mut().filter_map(|s| s.take()).collect()
    }
}

impl Default for FdTable {
    fn default() -> Self {
        FdTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_desc() -> DescriptionRef {
        let file = crate::fs::Tmpfs::new()
            .open("/", "/f", OpenFlags::RDWR | OpenFlags::CREAT)
            .unwrap();
        Arc::new(Description {
            object: FileObject::File(file),
            offset: Mutex::new(0),
            flags: OpenFlags::RDWR,
        })
    }

    #[test]
    fn lowest_free_slot_allocation() {
        let mut t = FdTable::new();
        let a = t.install(file_desc()).unwrap();
        let b = t.install(file_desc()).unwrap();
        let c = t.install(file_desc()).unwrap();
        assert_eq!((a, b, c), (Fd(0), Fd(1), Fd(2)));
        t.remove(b).unwrap();
        let d = t.install(file_desc()).unwrap();
        assert_eq!(d, Fd(1), "freed slot must be reused first");
    }

    #[test]
    fn get_after_remove_is_ebadf() {
        let mut t = FdTable::new();
        let fd = t.install(file_desc()).unwrap();
        t.remove(fd).unwrap();
        assert_eq!(t.get(fd).unwrap_err(), Errno::EBADF);
        assert_eq!(t.remove(fd).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn negative_fd_is_ebadf() {
        let t = FdTable::new();
        assert_eq!(t.get(Fd(-1)).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn dup_shares_description() {
        let mut t = FdTable::new();
        let fd = t.install(file_desc()).unwrap();
        let dup = t.dup(fd).unwrap();
        assert_ne!(fd, dup);
        let a = t.get(fd).unwrap();
        let b = t.get(dup).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Offset is shared through the description.
        *a.offset.lock() = 77;
        assert_eq!(*b.offset.lock(), 77);
    }

    #[test]
    fn dup2_replaces_and_returns_old() {
        let mut t = FdTable::new();
        let a = t.install(file_desc()).unwrap();
        let second = file_desc();
        let b = t.install(second.clone()).unwrap();
        let old = t.dup2(a, b).unwrap().expect("b was occupied");
        assert!(Arc::ptr_eq(&old, &second));
        let now = t.get(b).unwrap();
        assert!(Arc::ptr_eq(&now, &t.get(a).unwrap()));
    }

    #[test]
    fn dup2_same_fd_is_noop() {
        let mut t = FdTable::new();
        let a = t.install(file_desc()).unwrap();
        assert!(t.dup2(a, a).unwrap().is_none());
        assert!(t.get(a).is_ok());
    }

    #[test]
    fn dup2_extends_table() {
        let mut t = FdTable::new();
        let a = t.install(file_desc()).unwrap();
        t.dup2(a, Fd(10)).unwrap();
        assert!(t.get(Fd(10)).is_ok());
        assert_eq!(t.open_count(), 2);
    }

    #[test]
    fn drain_empties_table() {
        let mut t = FdTable::new();
        for _ in 0..5 {
            t.install(file_desc()).unwrap();
        }
        let drained = t.drain();
        assert_eq!(drained.len(), 5);
        assert_eq!(t.open_count(), 0);
    }

    #[test]
    fn fd_limit_enforced() {
        let mut t = FdTable::new();
        t.limit = 3;
        t.install(file_desc()).unwrap();
        t.install(file_desc()).unwrap();
        t.install(file_desc()).unwrap();
        assert_eq!(t.install(file_desc()).unwrap_err(), Errno::EMFILE);
    }
}
