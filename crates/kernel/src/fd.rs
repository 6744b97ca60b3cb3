//! Per-process file-descriptor tables.
//!
//! The FD table is the piece of kernel state at the heart of the paper's
//! *system-call consistency* argument (§I): "If the `open()` system-call is
//! called, then the opened file descriptor is only valid if the KC calling
//! `open()` and the KC calling `read()` are the same." In this simulated
//! kernel each process owns its own table, so a descriptor opened under one
//! kernel context is meaningless (EBADF) under another — exactly the failure
//! mode `couple()`/`decouple()` exists to prevent.
//!
//! A descriptor names an *open file description* ([`Description`]): one
//! `Arc<dyn FileLike>` — a tmpfs file, a procfs snapshot, a pipe end, a
//! socket end, a listener, an epoll instance; the table does not know which
//! — plus the access mode it was opened with and, for a seekable object,
//! the shared offset. The access-mode check and the offset arithmetic live
//! here, once; everything else is the object's answer.

use crate::errno::{Errno, KResult};
use crate::fault::{self, FaultKind};
use crate::fs::{FileLike, OpenFlags, Whence};
use parking_lot::Mutex;
use std::sync::Arc;

/// A file descriptor index, per-process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub i32);

/// An *open file description* (POSIX term): object + shared offset + flags.
/// `dup`ed descriptors share one description, as on Linux, and a call in
/// flight holds a clone of its own, so the object is released exactly when
/// the last of the descriptors *and* calls using it is done — by `Drop`, not
/// by anybody counting.
///
/// The alignment keeps the allocation in the size class it had before the
/// object became one pointer: two KLTs running `syscall_mix` are sensitive to
/// where each thread's buffers land (tens of bytes move it ±15 % on the
/// reference host) and the smaller class was a bad spot. Kept, not explained.
#[derive(Debug)]
#[repr(align(16))]
pub struct Description {
    /// What the description refers to. Dropping it with the description is
    /// all the object ever sees of a close.
    pub file: Arc<dyn FileLike>,
    /// Shared file offset (`lseek`/sequential I/O state of a seekable
    /// object; unused by a stream).
    pub offset: Mutex<u64>,
    /// The flags the description was opened with.
    pub flags: OpenFlags,
    /// `file.seekable()`, asked once.
    seekable: bool,
}

impl Description {
    /// A fresh description of `file` at offset 0.
    pub fn new(file: Arc<dyn FileLike>, flags: OpenFlags) -> DescriptionRef {
        Arc::new(Description {
            seekable: file.seekable(),
            file,
            offset: Mutex::new(0),
            flags,
        })
    }

    /// The object, if the description was opened for reading (`EBADF`).
    fn readable(&self) -> KResult<&dyn FileLike> {
        (self.flags.readable().then_some(&*self.file)).ok_or(Errno::EBADF)
    }

    /// The object, if the description was opened for writing (`EBADF`).
    fn writable(&self) -> KResult<&dyn FileLike> {
        (self.flags.writable().then_some(&*self.file)).ok_or(Errno::EBADF)
    }

    /// The description, if its object has a position (`errno` otherwise) —
    /// checked before the access mode, so a positional call on the wrong
    /// end of a pipe is still `ESPIPE`.
    fn seekable(&self, errno: Errno) -> KResult<&Description> {
        self.seekable.then_some(self).ok_or(errno)
    }

    /// `read(2)`: a stream reads itself (and may sleep); a seekable object
    /// is read at the shared offset, which advances. Seekable reads share
    /// the streams' fault-injection hooks: an armed [`crate::fault`] plan
    /// may interrupt a read (`EINTR`, before any bytes move) or truncate it
    /// to a single byte — POSIX-legal behaviors readers must tolerate (the
    /// `proc_storm` torture scenario leans on this to prove procfs reads
    /// re-assemble cleanly).
    pub fn read(&self, buf: &mut [u8]) -> KResult<usize> {
        let file = self.readable()?;
        if !self.seekable {
            return file.read(buf);
        }
        if fault::fire(FaultKind::Eintr) {
            return Err(Errno::EINTR);
        }
        let want = if !buf.is_empty() && fault::fire(FaultKind::ShortRead) {
            1
        } else {
            buf.len()
        };
        let mut off = self.offset.lock();
        let n = file.read_at(*off, &mut buf[..want])?;
        *off = off.checked_add(n as u64).ok_or(Errno::EFBIG)?;
        Ok(n)
    }

    /// `write(2)`: a stream writes itself (and may sleep); a seekable object
    /// is written at the shared offset — at its end under `O_APPEND` — which
    /// advances. A failed write moves nothing.
    pub fn write(&self, data: &[u8]) -> KResult<usize> {
        let file = self.writable()?;
        if !self.seekable {
            return file.write(data);
        }
        let mut off = self.offset.lock();
        let pos = if self.flags.contains(OpenFlags::APPEND) {
            file.size()?
        } else {
            *off
        };
        let n = file.write_at(pos, data)?;
        *off = pos.checked_add(n as u64).ok_or(Errno::EFBIG)?;
        Ok(n)
    }

    /// `pread(2)`: positional, does not move the shared offset.
    pub fn pread(&self, offset: u64, buf: &mut [u8]) -> KResult<usize> {
        self.seekable(Errno::ESPIPE)?
            .readable()?
            .read_at(offset, buf)
    }

    /// `pwrite(2)`: positional, does not move the shared offset.
    pub fn pwrite(&self, offset: u64, data: &[u8]) -> KResult<usize> {
        self.seekable(Errno::ESPIPE)?
            .writable()?
            .write_at(offset, data)
    }

    /// `ftruncate(2)`.
    pub fn truncate(&self, len: u64) -> KResult<()> {
        self.seekable(Errno::EINVAL)?.writable()?.truncate(len)
    }

    /// `lseek(2)`. `off_t` arithmetic: a negative or unrepresentable result
    /// is `EINVAL`. Seeking past the largest file size is legal — the write
    /// that follows gets `EFBIG`.
    pub fn seek(&self, offset: i64, whence: Whence) -> KResult<u64> {
        let file = &self.seekable(Errno::ESPIPE)?.file;
        let mut off = self.offset.lock();
        let base = match whence {
            Whence::Set => 0,
            Whence::Cur => *off,
            Whence::End => file.size()?,
        };
        let new = i64::try_from(base)
            .ok()
            .and_then(|base| base.checked_add(offset))
            .filter(|new| *new >= 0)
            .ok_or(Errno::EINVAL)?;
        *off = new as u64;
        Ok(*off)
    }
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
        Description::new(file, OpenFlags::RDWR)
    }

    #[test]
    fn a_description_stays_in_its_allocation_size_class() {
        // 16 bytes of counts + this: the 80-byte malloc class (see the type).
        assert_eq!(std::mem::size_of::<Description>(), 48);
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
