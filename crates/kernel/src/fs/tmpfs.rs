//! The tmpfs proper: an inode table behind a lock, file data in `Vec<u8>`.

use super::{normalize, split_parent, FileSystem, OpenFlags};
use crate::errno::{Errno, KResult};
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// Inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ino(pub u64);

/// Root directory inode.
pub const ROOT_INO: Ino = Ino(0);

/// Largest size a tmpfs file may reach: `write_at`/`truncate` past it fail
/// with `EFBIG` instead of zero-filling up to whatever offset the caller
/// named — the data lives in the simulation's own address space.
pub const MAX_FILE_SIZE: u64 = 1 << 30;

#[derive(Debug)]
enum InodeKind {
    File { data: Vec<u8> },
    Dir { entries: BTreeMap<String, Ino> },
}

#[derive(Debug)]
struct Inode {
    kind: InodeKind,
    /// Link count; an unlinked-but-open file keeps its data until the last
    /// descriptor closes (handled by the FD layer holding `Ino` plus the
    /// tmpfs only reclaiming in `release`).
    nlink: u32,
    /// Open descriptor count (managed by the FD layer via `acquire`/`release`).
    open_count: u32,
}

/// Metadata snapshot returned by `stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// Inode number.
    pub ino: Ino,
    /// File size in bytes (entry count for directories).
    pub size: u64,
    /// Whether the inode is a directory.
    pub is_dir: bool,
    /// Hard-link count.
    pub nlink: u32,
}

/// One directory entry returned by `readdir`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (final path component).
    pub name: String,
    /// The inode the entry points at.
    pub ino: Ino,
    /// Whether that inode is a directory.
    pub is_dir: bool,
}

/// Additional modeled transfer cost applied to tmpfs reads/writes, outside
/// the inode lock.
///
/// On the paper's testbeds a tmpfs write is a memcpy performed by the
/// calling core. On a single-core reproduction host that makes genuine
/// compute/I-O overlap (Fig. 8) physically impossible — *everything* is CPU
/// work. With an [`IoModel`], the memcpy still happens (data correctness),
/// and the remaining modeled transfer time is spent **off-CPU** (a
/// `nanosleep`) when large enough, so another thread can run — the behavior
/// a DMA-capable storage path or a second core would give. Durations below
/// `spin_threshold_ns` are busy-spun (a sleep that short is not schedulable
/// anyway).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoModel {
    /// Fixed per-operation cost in nanoseconds.
    pub fixed_ns: u64,
    /// Per-byte cost in nanoseconds (e.g. 0.25 ≈ 4 GB/s).
    pub ns_per_byte: f64,
    /// Below this, spin instead of sleeping.
    pub spin_threshold_ns: u64,
}

impl IoModel {
    /// No modeled cost: raw memcpy speed (the default).
    pub const RAW: IoModel = IoModel {
        fixed_ns: 0,
        ns_per_byte: 0.0,
        spin_threshold_ns: 5_000,
    };

    /// A storage-transfer model: ~1 GB/s plus a small fixed cost, spent
    /// off-CPU when large enough. Used by the Fig. 7/8 harness. The rate is
    /// deliberately below memcpy speed so the *transfer* dominates the
    /// (unavoidable, CPU-bound) copy — on a single-core host that is what
    /// makes compute/I-O overlap observable at all.
    pub const MEMORY_BANDWIDTH: IoModel = IoModel {
        fixed_ns: 500,
        ns_per_byte: 1.0,
        spin_threshold_ns: 5_000,
    };

    fn cost_ns(&self, bytes: usize) -> u64 {
        self.fixed_ns + (bytes as f64 * self.ns_per_byte) as u64
    }

    fn charge(&self, bytes: usize) {
        let ns = self.cost_ns(bytes);
        if ns == 0 {
            return;
        }
        if ns <= self.spin_threshold_ns {
            crate::cost::spin_for(std::time::Duration::from_nanos(ns));
        } else {
            // Linux's default 50 µs timer slack would dominate mid-size
            // transfers; request precise wakeups once per thread.
            #[cfg(target_os = "linux")]
            {
                thread_local! {
                    static SLACK_SET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
                }
                SLACK_SET.with(|s| {
                    if !s.get() {
                        unsafe { libc::prctl(libc::PR_SET_TIMERSLACK, 1usize) };
                        s.set(true);
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        }
    }
}

/// An in-memory filesystem shared by every process of a simulated kernel.
#[derive(Debug)]
pub struct Tmpfs {
    inner: RwLock<TmpfsInner>,
    /// io model, stored as (fixed_ns, ns_per_byte bits, spin_threshold).
    io_fixed: std::sync::atomic::AtomicU64,
    io_per_byte_bits: std::sync::atomic::AtomicU64,
    io_spin_threshold: std::sync::atomic::AtomicU64,
}

#[derive(Debug)]
struct TmpfsInner {
    inodes: Vec<Option<Inode>>,
    free: Vec<usize>,
}

impl TmpfsInner {
    fn get(&self, ino: Ino) -> KResult<&Inode> {
        self.inodes
            .get(ino.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or(Errno::ENOENT)
    }

    fn get_mut(&mut self, ino: Ino) -> KResult<&mut Inode> {
        self.inodes
            .get_mut(ino.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(Errno::ENOENT)
    }

    fn alloc(&mut self, inode: Inode) -> Ino {
        if let Some(slot) = self.free.pop() {
            self.inodes[slot] = Some(inode);
            Ino(slot as u64)
        } else {
            self.inodes.push(Some(inode));
            Ino((self.inodes.len() - 1) as u64)
        }
    }

    /// Walk `comps` down from the root directory.
    fn resolve(&self, comps: &[&str]) -> KResult<Ino> {
        let mut cur = ROOT_INO;
        for comp in comps {
            match &self.get(cur)?.kind {
                InodeKind::Dir { entries } => {
                    cur = *entries.get(*comp).ok_or(Errno::ENOENT)?;
                }
                InodeKind::File { .. } => return Err(Errno::ENOTDIR),
            }
        }
        Ok(cur)
    }

    /// Resolve the directory holding `comps`' final name; `EINVAL` for the
    /// root, which has none.
    fn resolve_parent<'a>(&self, comps: &[&'a str]) -> KResult<(Ino, &'a str)> {
        let (parent, name) = split_parent(comps).ok_or(Errno::EINVAL)?;
        Ok((self.resolve(parent)?, name))
    }

    /// The entries of the directory `ino` (`ENOTDIR` for a file).
    fn dir_mut(&mut self, ino: Ino) -> KResult<&mut BTreeMap<String, Ino>> {
        match &mut self.get_mut(ino)?.kind {
            InodeKind::Dir { entries } => Ok(entries),
            InodeKind::File { .. } => Err(Errno::ENOTDIR),
        }
    }

    /// The inode `name` refers to inside the directory `dir`.
    fn lookup(&self, dir: Ino, name: &str) -> KResult<Ino> {
        match &self.get(dir)?.kind {
            InodeKind::Dir { entries } => entries.get(name).copied().ok_or(Errno::ENOENT),
            InodeKind::File { .. } => Err(Errno::ENOTDIR),
        }
    }

    /// Drop an inode if it has neither links nor open descriptors.
    fn maybe_reclaim(&mut self, ino: Ino) {
        if ino == ROOT_INO {
            return;
        }
        if let Ok(node) = self.get(ino) {
            if node.nlink == 0 && node.open_count == 0 {
                self.inodes[ino.0 as usize] = None;
                self.free.push(ino.0 as usize);
            }
        }
    }
}

impl Tmpfs {
    /// An empty filesystem containing only the root directory.
    pub fn new() -> Tmpfs {
        let root = Inode {
            kind: InodeKind::Dir {
                entries: BTreeMap::new(),
            },
            nlink: 1,
            open_count: 0,
        };
        Tmpfs {
            inner: RwLock::new(TmpfsInner {
                inodes: vec![Some(root)],
                free: Vec::new(),
            }),
            io_fixed: std::sync::atomic::AtomicU64::new(0),
            io_per_byte_bits: std::sync::atomic::AtomicU64::new(0f64.to_bits()),
            io_spin_threshold: std::sync::atomic::AtomicU64::new(5_000),
        }
    }

    /// Install a modeled transfer cost for reads and writes.
    pub fn set_io_model(&self, model: IoModel) {
        use std::sync::atomic::Ordering;
        self.io_fixed.store(model.fixed_ns, Ordering::Relaxed);
        self.io_per_byte_bits
            .store(model.ns_per_byte.to_bits(), Ordering::Relaxed);
        self.io_spin_threshold
            .store(model.spin_threshold_ns, Ordering::Relaxed);
    }

    /// The current transfer-cost model.
    pub fn io_model(&self) -> IoModel {
        use std::sync::atomic::Ordering;
        IoModel {
            fixed_ns: self.io_fixed.load(Ordering::Relaxed),
            ns_per_byte: f64::from_bits(self.io_per_byte_bits.load(Ordering::Relaxed)),
            spin_threshold_ns: self.io_spin_threshold.load(Ordering::Relaxed),
        }
    }

    // ----- string API: `(cwd, path)` wrappers over the component API ---------

    /// Resolve `path` (relative to `cwd`) to an inode.
    pub fn resolve(&self, cwd: &str, path: &str) -> KResult<Ino> {
        self.resolve_rel(&normalize(cwd, path))
    }

    /// Open (and possibly create/truncate) a file; returns its inode with
    /// the open count already incremented.
    pub fn open(&self, cwd: &str, path: &str, flags: OpenFlags) -> KResult<Ino> {
        self.open_rel(&normalize(cwd, path), flags)
    }

    /// `stat(2)`: metadata snapshot of the inode at `path`.
    pub fn stat(&self, cwd: &str, path: &str) -> KResult<FileStat> {
        self.stat_rel(&normalize(cwd, path))
    }

    /// `mkdir(2)`: create a directory (`EEXIST` if the path exists).
    pub fn mkdir(&self, cwd: &str, path: &str) -> KResult<Ino> {
        self.mkdir_rel(&normalize(cwd, path))
    }

    /// `unlink(2)`: remove a file link (`EISDIR` for directories).
    pub fn unlink(&self, cwd: &str, path: &str) -> KResult<()> {
        self.unlink_rel(&normalize(cwd, path))
    }

    /// `rmdir(2)`: remove an *empty* directory.
    pub fn rmdir(&self, cwd: &str, path: &str) -> KResult<()> {
        self.rmdir_rel(&normalize(cwd, path))
    }

    /// `link(2)`: add a second name for a file (directories refused).
    pub fn link(&self, cwd: &str, existing: &str, new: &str) -> KResult<()> {
        self.link_rel(&normalize(cwd, existing), &normalize(cwd, new))
    }

    /// `rename(2)`: atomically move a name, replacing a non-directory
    /// target if present.
    pub fn rename(&self, cwd: &str, from: &str, to: &str) -> KResult<()> {
        self.rename_rel(&normalize(cwd, from), &normalize(cwd, to))
    }

    /// `readdir(3)`: list a directory's entries in name order.
    pub fn readdir(&self, cwd: &str, path: &str) -> KResult<Vec<DirEntry>> {
        self.readdir_rel(&normalize(cwd, path))
    }

    // ----- inode operations --------------------------------------------------

    /// Drop one open reference (close); reclaims unlinked inodes.
    pub fn release(&self, ino: Ino) {
        let mut inner = self.inner.write();
        if let Ok(node) = inner.get_mut(ino) {
            node.open_count = node.open_count.saturating_sub(1);
        }
        inner.maybe_reclaim(ino);
    }

    /// Read up to `buf.len()` bytes at `offset`. Returns bytes read (0 at EOF).
    pub fn read_at(&self, ino: Ino, offset: u64, buf: &mut [u8]) -> KResult<usize> {
        let n = {
            let inner = self.inner.read();
            match &inner.get(ino)?.kind {
                InodeKind::Dir { .. } => return Err(Errno::EISDIR),
                InodeKind::File { data } => {
                    // An offset that does not fit `usize` is past any EOF.
                    let off = usize::try_from(offset).unwrap_or(usize::MAX);
                    if off >= data.len() {
                        return Ok(0);
                    }
                    let n = buf.len().min(data.len() - off);
                    buf[..n].copy_from_slice(&data[off..off + n]);
                    n
                }
            }
        };
        // Modeled transfer time is charged outside the inode lock so it
        // does not serialize unrelated filesystem traffic.
        self.io_model().charge(n);
        Ok(n)
    }

    /// Write `src` at `offset`, extending (zero-filling a gap) as needed;
    /// `EFBIG`, with the file untouched, if that would grow it past
    /// [`MAX_FILE_SIZE`]. This is the memcpy whose duration Figs. 7–8
    /// measure (plus the optional modeled transfer time, charged outside
    /// the lock).
    pub fn write_at(&self, ino: Ino, offset: u64, src: &[u8]) -> KResult<usize> {
        let end = offset
            .checked_add(src.len() as u64)
            .filter(|&end| end <= MAX_FILE_SIZE)
            .ok_or(Errno::EFBIG)? as usize;
        {
            let mut inner = self.inner.write();
            match &mut inner.get_mut(ino)?.kind {
                InodeKind::Dir { .. } => return Err(Errno::EISDIR),
                InodeKind::File { data } => {
                    if end > data.len() {
                        data.resize(end, 0);
                    }
                    data[end - src.len()..end].copy_from_slice(src);
                }
            }
        }
        self.io_model().charge(src.len());
        Ok(src.len())
    }

    /// Current size of a file (used by `lseek(SEEK_END)` and `O_APPEND`).
    pub fn size(&self, ino: Ino) -> KResult<u64> {
        let inner = self.inner.read();
        match &inner.get(ino)?.kind {
            InodeKind::Dir { .. } => Err(Errno::EISDIR),
            InodeKind::File { data } => Ok(data.len() as u64),
        }
    }

    /// Truncate or extend a file to `len`; `EFBIG`, with the file untouched,
    /// past [`MAX_FILE_SIZE`].
    pub fn truncate(&self, ino: Ino, len: u64) -> KResult<()> {
        if len > MAX_FILE_SIZE {
            return Err(Errno::EFBIG);
        }
        let mut inner = self.inner.write();
        match &mut inner.get_mut(ino)?.kind {
            InodeKind::Dir { .. } => Err(Errno::EISDIR),
            InodeKind::File { data } => {
                data.resize(len as usize, 0);
                Ok(())
            }
        }
    }

    /// Number of live inodes (diagnostics / leak tests).
    pub fn inode_count(&self) -> usize {
        self.inner.read().inodes.iter().flatten().count()
    }
}

impl Default for Tmpfs {
    fn default() -> Self {
        Tmpfs::new()
    }
}

/// The path operations walk the borrowed components straight down the inode
/// table — no string is rebuilt or re-parsed — and the inode operations
/// forward to the inherent methods above.
impl FileSystem for Tmpfs {
    fn fs_name(&self) -> &'static str {
        "tmpfs"
    }

    fn open_rel(&self, rel: &[&str], flags: OpenFlags) -> KResult<Ino> {
        let mut inner = self.inner.write();
        let ino = match inner.resolve(rel) {
            Ok(ino) => {
                if flags.contains(OpenFlags::CREAT) && flags.contains(OpenFlags::EXCL) {
                    return Err(Errno::EEXIST);
                }
                match &mut inner.get_mut(ino)?.kind {
                    InodeKind::Dir { .. } => {
                        if flags.writable() {
                            return Err(Errno::EISDIR);
                        }
                    }
                    InodeKind::File { data } => {
                        if flags.contains(OpenFlags::TRUNC) && flags.writable() {
                            data.clear();
                        }
                    }
                }
                ino
            }
            Err(Errno::ENOENT) if flags.contains(OpenFlags::CREAT) => {
                let (parent, name) = inner.resolve_parent(rel)?;
                inner.dir_mut(parent)?;
                let ino = inner.alloc(Inode {
                    kind: InodeKind::File { data: Vec::new() },
                    nlink: 1,
                    open_count: 0,
                });
                inner.dir_mut(parent)?.insert(name.to_string(), ino);
                ino
            }
            Err(e) => return Err(e),
        };
        inner.get_mut(ino)?.open_count += 1;
        Ok(ino)
    }

    fn resolve_rel(&self, rel: &[&str]) -> KResult<Ino> {
        self.inner.read().resolve(rel)
    }

    fn stat_rel(&self, rel: &[&str]) -> KResult<FileStat> {
        let inner = self.inner.read();
        let ino = inner.resolve(rel)?;
        let node = inner.get(ino)?;
        Ok(FileStat {
            ino,
            size: match &node.kind {
                InodeKind::File { data } => data.len() as u64,
                InodeKind::Dir { entries } => entries.len() as u64,
            },
            is_dir: matches!(node.kind, InodeKind::Dir { .. }),
            nlink: node.nlink,
        })
    }

    fn mkdir_rel(&self, rel: &[&str]) -> KResult<Ino> {
        let mut inner = self.inner.write();
        if inner.resolve(rel).is_ok() {
            return Err(Errno::EEXIST);
        }
        let (parent, name) = inner.resolve_parent(rel)?;
        inner.dir_mut(parent)?;
        let ino = inner.alloc(Inode {
            kind: InodeKind::Dir {
                entries: BTreeMap::new(),
            },
            nlink: 1,
            open_count: 0,
        });
        inner.dir_mut(parent)?.insert(name.to_string(), ino);
        Ok(ino)
    }

    fn unlink_rel(&self, rel: &[&str]) -> KResult<()> {
        let mut inner = self.inner.write();
        let (parent, name) = inner.resolve_parent(rel)?;
        let ino = inner.lookup(parent, name)?;
        // POSIX unlink(2) refuses directories (rmdir is separate).
        if let InodeKind::Dir { .. } = inner.get(ino)?.kind {
            return Err(Errno::EISDIR);
        }
        inner.dir_mut(parent)?.remove(name);
        inner.get_mut(ino)?.nlink -= 1;
        inner.maybe_reclaim(ino);
        Ok(())
    }

    fn rmdir_rel(&self, rel: &[&str]) -> KResult<()> {
        let mut inner = self.inner.write();
        let (parent, name) = inner.resolve_parent(rel)?;
        let ino = inner.lookup(parent, name)?;
        match &inner.get(ino)?.kind {
            InodeKind::File { .. } => return Err(Errno::ENOTDIR),
            InodeKind::Dir { entries } => {
                if !entries.is_empty() {
                    return Err(Errno::ENOTEMPTY);
                }
            }
        }
        inner.dir_mut(parent)?.remove(name);
        inner.get_mut(ino)?.nlink -= 1;
        inner.maybe_reclaim(ino);
        Ok(())
    }

    fn link_rel(&self, existing: &[&str], new: &[&str]) -> KResult<()> {
        let mut inner = self.inner.write();
        let ino = inner.resolve(existing)?;
        if matches!(inner.get(ino)?.kind, InodeKind::Dir { .. }) {
            return Err(Errno::EPERM);
        }
        if inner.resolve(new).is_ok() {
            return Err(Errno::EEXIST);
        }
        let (parent, name) = inner.resolve_parent(new)?;
        inner.dir_mut(parent)?.insert(name.to_string(), ino);
        inner.get_mut(ino)?.nlink += 1;
        Ok(())
    }

    fn rename_rel(&self, from: &[&str], to: &[&str]) -> KResult<()> {
        let mut inner = self.inner.write();
        let (from_parent, from_name) = inner.resolve_parent(from)?;
        let ino = inner.lookup(from_parent, from_name)?;
        let (to_parent, to_name) = inner.resolve_parent(to)?;
        // Replace target if it exists (refuse replacing directories).
        let replaced = match inner.lookup(to_parent, to_name) {
            Ok(target) => Some(target),
            Err(Errno::ENOENT) => None,
            Err(e) => return Err(e),
        };
        if let Some(target) = replaced {
            if target == ino {
                return Ok(()); // rename to itself (same inode): no-op
            }
            if matches!(inner.get(target)?.kind, InodeKind::Dir { .. }) {
                return Err(Errno::EISDIR);
            }
        }
        inner.dir_mut(from_parent)?.remove(from_name);
        inner.dir_mut(to_parent)?.insert(to_name.to_string(), ino);
        if let Some(target) = replaced {
            inner.get_mut(target)?.nlink -= 1;
            inner.maybe_reclaim(target);
        }
        Ok(())
    }

    fn readdir_rel(&self, rel: &[&str]) -> KResult<Vec<DirEntry>> {
        let inner = self.inner.read();
        let ino = inner.resolve(rel)?;
        match &inner.get(ino)?.kind {
            InodeKind::File { .. } => Err(Errno::ENOTDIR),
            InodeKind::Dir { entries } => Ok(entries
                .iter()
                .map(|(name, &ino)| DirEntry {
                    name: name.clone(),
                    ino,
                    is_dir: matches!(inner.get(ino).map(|n| &n.kind), Ok(InodeKind::Dir { .. })),
                })
                .collect()),
        }
    }

    fn read_at(&self, ino: Ino, offset: u64, buf: &mut [u8]) -> KResult<usize> {
        Tmpfs::read_at(self, ino, offset, buf)
    }

    fn write_at(&self, ino: Ino, offset: u64, src: &[u8]) -> KResult<usize> {
        Tmpfs::write_at(self, ino, offset, src)
    }

    fn size(&self, ino: Ino) -> KResult<u64> {
        Tmpfs::size(self, ino)
    }

    fn truncate(&self, ino: Ino, len: u64) -> KResult<()> {
        Tmpfs::truncate(self, ino, len)
    }

    fn release(&self, ino: Ino) {
        Tmpfs::release(self, ino)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wflags() -> OpenFlags {
        OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC
    }

    #[test]
    fn create_write_read_roundtrip() {
        let fs = Tmpfs::new();
        let ino = fs.open("/", "/hello.txt", wflags()).unwrap();
        assert_eq!(fs.write_at(ino, 0, b"hello world").unwrap(), 11);
        let mut buf = [0u8; 5];
        assert_eq!(fs.read_at(ino, 6, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"world");
        fs.release(ino);
    }

    #[test]
    fn read_past_eof_returns_zero() {
        let fs = Tmpfs::new();
        let ino = fs.open("/", "/f", wflags()).unwrap();
        fs.write_at(ino, 0, b"abc").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(fs.read_at(ino, 3, &mut buf).unwrap(), 0);
        assert_eq!(fs.read_at(ino, 100, &mut buf).unwrap(), 0);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let fs = Tmpfs::new();
        let ino = fs.open("/", "/s", wflags()).unwrap();
        fs.write_at(ino, 4, b"xy").unwrap();
        let mut buf = [9u8; 6];
        assert_eq!(fs.read_at(ino, 0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, &[0, 0, 0, 0, b'x', b'y']);
    }

    #[test]
    fn trunc_on_open_clears() {
        let fs = Tmpfs::new();
        let a = fs.open("/", "/t", wflags()).unwrap();
        fs.write_at(a, 0, b"0123456789").unwrap();
        fs.release(a);
        let b = fs.open("/", "/t", wflags()).unwrap();
        assert_eq!(fs.size(b).unwrap(), 0);
    }

    #[test]
    fn excl_refuses_existing() {
        let fs = Tmpfs::new();
        let a = fs
            .open(
                "/",
                "/x",
                OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::EXCL,
            )
            .unwrap();
        fs.release(a);
        assert_eq!(
            fs.open(
                "/",
                "/x",
                OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::EXCL
            )
            .unwrap_err(),
            Errno::EEXIST
        );
    }

    #[test]
    fn open_missing_without_creat_fails() {
        let fs = Tmpfs::new();
        assert_eq!(
            fs.open("/", "/nope", OpenFlags::RDONLY).unwrap_err(),
            Errno::ENOENT
        );
    }

    #[test]
    fn directories_nest_and_resolve_relative() {
        let fs = Tmpfs::new();
        fs.mkdir("/", "/a").unwrap();
        fs.mkdir("/", "/a/b").unwrap();
        let ino = fs.open("/a/b", "c.txt", wflags()).unwrap();
        assert_eq!(fs.resolve("/", "/a/b/c.txt").unwrap(), ino);
        let entries = fs.readdir("/", "/a/b").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "c.txt");
        assert!(!entries[0].is_dir);
    }

    #[test]
    fn unlink_removes_and_reclaims() {
        let fs = Tmpfs::new();
        let ino = fs.open("/", "/gone", wflags()).unwrap();
        fs.release(ino);
        let before = fs.inode_count();
        fs.unlink("/", "/gone").unwrap();
        assert_eq!(fs.inode_count(), before - 1);
        assert_eq!(fs.resolve("/", "/gone").unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn unlinked_open_file_survives_until_close() {
        let fs = Tmpfs::new();
        let ino = fs.open("/", "/tmpf", wflags()).unwrap();
        fs.write_at(ino, 0, b"still here").unwrap();
        fs.unlink("/", "/tmpf").unwrap();
        // Name is gone but data is reachable through the inode.
        assert_eq!(fs.resolve("/", "/tmpf").unwrap_err(), Errno::ENOENT);
        let mut buf = [0u8; 10];
        assert_eq!(fs.read_at(ino, 0, &mut buf).unwrap(), 10);
        let before = fs.inode_count();
        fs.release(ino);
        assert_eq!(fs.inode_count(), before - 1);
    }

    #[test]
    fn unlink_refuses_directories() {
        let fs = Tmpfs::new();
        fs.mkdir("/", "/d").unwrap();
        assert_eq!(fs.unlink("/", "/d").unwrap_err(), Errno::EISDIR);
        fs.rmdir("/", "/d").unwrap();
        assert_eq!(fs.resolve("/", "/d").unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn rmdir_refuses_nonempty() {
        let fs = Tmpfs::new();
        fs.mkdir("/", "/d").unwrap();
        let ino = fs.open("/", "/d/f", wflags()).unwrap();
        fs.release(ino);
        assert_eq!(fs.rmdir("/", "/d").unwrap_err(), Errno::ENOTEMPTY);
    }

    #[test]
    fn stat_reports_sizes() {
        let fs = Tmpfs::new();
        let ino = fs.open("/", "/s", wflags()).unwrap();
        fs.write_at(ino, 0, &[7u8; 1234]).unwrap();
        let st = fs.stat("/", "/s").unwrap();
        assert_eq!(st.size, 1234);
        assert!(!st.is_dir);
        assert_eq!(st.ino, ino);
        assert!(fs.stat("/", "/").unwrap().is_dir);
    }

    #[test]
    fn truncate_shrinks_and_grows() {
        let fs = Tmpfs::new();
        let ino = fs.open("/", "/t", wflags()).unwrap();
        fs.write_at(ino, 0, b"abcdef").unwrap();
        fs.truncate(ino, 3).unwrap();
        assert_eq!(fs.size(ino).unwrap(), 3);
        fs.truncate(ino, 8).unwrap();
        let mut buf = [1u8; 8];
        fs.read_at(ino, 0, &mut buf).unwrap();
        assert_eq!(&buf, &[b'a', b'b', b'c', 0, 0, 0, 0, 0]);
    }

    #[test]
    fn growth_past_the_size_limit_is_efbig() {
        let fs = Tmpfs::new();
        let ino = fs.open("/", "/t", wflags()).unwrap();
        fs.write_at(ino, 0, b"abc").unwrap();
        for offset in [MAX_FILE_SIZE - 1, MAX_FILE_SIZE, 1 << 40, u64::MAX - 1] {
            assert_eq!(fs.write_at(ino, offset, b"xy").unwrap_err(), Errno::EFBIG);
        }
        for len in [MAX_FILE_SIZE + 1, 1 << 40, u64::MAX] {
            assert_eq!(fs.truncate(ino, len).unwrap_err(), Errno::EFBIG);
        }
        assert_eq!(fs.size(ino).unwrap(), 3, "refused calls change nothing");
        let mut buf = [0u8; 2];
        assert_eq!(fs.read_at(ino, u64::MAX, &mut buf).unwrap(), 0);
    }

    #[test]
    fn path_through_file_is_enotdir() {
        let fs = Tmpfs::new();
        let ino = fs.open("/", "/f", wflags()).unwrap();
        fs.release(ino);
        assert_eq!(fs.resolve("/", "/f/x").unwrap_err(), Errno::ENOTDIR);
    }

    #[test]
    fn link_creates_second_name() {
        let fs = Tmpfs::new();
        let ino = fs.open("/", "/orig", wflags()).unwrap();
        fs.write_at(ino, 0, b"shared").unwrap();
        fs.release(ino);
        fs.link("/", "/orig", "/alias").unwrap();
        assert_eq!(fs.resolve("/", "/alias").unwrap(), ino);
        assert_eq!(fs.stat("/", "/alias").unwrap().nlink, 2);
        // Unlinking one name keeps the data reachable via the other.
        fs.unlink("/", "/orig").unwrap();
        let mut buf = [0u8; 6];
        let alias = fs.resolve("/", "/alias").unwrap();
        assert_eq!(fs.read_at(alias, 0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"shared");
    }

    #[test]
    fn link_refuses_dirs_and_existing() {
        let fs = Tmpfs::new();
        fs.mkdir("/", "/d").unwrap();
        assert_eq!(fs.link("/", "/d", "/d2").unwrap_err(), Errno::EPERM);
        let a = fs.open("/", "/a", wflags()).unwrap();
        fs.release(a);
        let b = fs.open("/", "/b", wflags()).unwrap();
        fs.release(b);
        assert_eq!(fs.link("/", "/a", "/b").unwrap_err(), Errno::EEXIST);
    }

    #[test]
    fn rename_moves_and_replaces() {
        let fs = Tmpfs::new();
        let a = fs.open("/", "/a", wflags()).unwrap();
        fs.write_at(a, 0, b"A").unwrap();
        fs.release(a);
        let b = fs.open("/", "/b", wflags()).unwrap();
        fs.release(b);
        let before = fs.inode_count();
        fs.rename("/", "/a", "/b").unwrap();
        assert_eq!(fs.resolve("/", "/a").unwrap_err(), Errno::ENOENT);
        assert_eq!(fs.resolve("/", "/b").unwrap(), a);
        assert_eq!(fs.inode_count(), before - 1, "old /b reclaimed");
        // Across directories too.
        fs.mkdir("/", "/sub").unwrap();
        fs.rename("/", "/b", "/sub/c").unwrap();
        assert_eq!(fs.resolve("/", "/sub/c").unwrap(), a);
    }

    #[test]
    fn rename_refuses_dir_target() {
        let fs = Tmpfs::new();
        let a = fs.open("/", "/f", wflags()).unwrap();
        fs.release(a);
        fs.mkdir("/", "/d").unwrap();
        assert_eq!(fs.rename("/", "/f", "/d").unwrap_err(), Errno::EISDIR);
    }

    #[test]
    fn ino_reuse_after_reclaim() {
        let fs = Tmpfs::new();
        let a = fs.open("/", "/a", wflags()).unwrap();
        fs.release(a);
        fs.unlink("/", "/a").unwrap();
        let b = fs.open("/", "/b", wflags()).unwrap();
        assert_eq!(a, b, "freed inode slot should be reused");
    }
}
