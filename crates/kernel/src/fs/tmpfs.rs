//! The tmpfs proper: inodes as `Arc` handles, file data in `Vec<u8>`.
//!
//! An inode is an `Arc<Inode>`, kept alive by the names that link it and by
//! the open file descriptions that hold it as their [`FileLike`] handle — an
//! unlinked-but-open file lives exactly as long as a description does, and
//! nothing counts opens or reclaims. What a call shares follows from that:
//!
//! - A call on an **open file** (`pread`, `pwrite`, `read`, `write`,
//!   `lseek(END)`, `ftruncate`, `close`) goes to the handle: the file's own
//!   data lock and reference count, no filesystem-wide state.
//! - A call that **looks a name up** (`stat`, `open` of an existing name,
//!   `readdir`) takes the namespace — the directory tree, owned top-down
//!   from the root — *shared*: one shard of a [`ShardedLock`], the calling
//!   thread's, so two threads resolving paths write no common cache line.
//! - Only a call that **changes a name** (`open` that creates, `mkdir`,
//!   `unlink`, `rmdir`, `link`, `rename`) takes it *exclusive*
//!   ([`Tmpfs::exclusive_acquisitions`] counts them).

use super::vfs::read_slice_at;
use super::{normalize, split_parent, FileLike, FileSystem, OpenFlags};
use crate::errno::{Errno, KResult};
use crossbeam::sync::{ShardedLock, ShardedLockReadGuard, ShardedLockWriteGuard};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Inode number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ino(pub u64);

/// Largest size a tmpfs file may reach: `write_at`/`truncate` past it fail
/// with `EFBIG` instead of zero-filling up to whatever offset the caller
/// named — the data lives in the simulation's own address space.
pub const MAX_FILE_SIZE: u64 = 1 << 30;

/// Metadata snapshot returned by `stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
/// the file's data lock.
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

/// What the inodes of one tmpfs share; may outlive the [`Tmpfs`] value (an
/// open description keeps its inode, the inode keeps this).
#[derive(Debug)]
struct Shared {
    /// io model, stored as (fixed_ns, ns_per_byte bits, spin_threshold).
    io_fixed: AtomicU64,
    io_per_byte_bits: AtomicU64,
    io_spin_threshold: AtomicU64,
    /// Inodes alive: up in [`Inode::new`], down in its `Drop`.
    live: AtomicUsize,
    /// The next inode number; numbers are never reused.
    next_ino: AtomicU64,
}

impl Shared {
    fn io_model(&self) -> IoModel {
        IoModel {
            fixed_ns: self.io_fixed.load(Ordering::Relaxed),
            ns_per_byte: f64::from_bits(self.io_per_byte_bits.load(Ordering::Relaxed)),
            spin_threshold_ns: self.io_spin_threshold.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug)]
enum Kind {
    /// A file's bytes, behind the file's own lock.
    File(RwLock<Vec<u8>>),
    /// A directory. Its entries live in the namespace tree (see [`Dir`]).
    Dir,
}

/// A file or directory: the object names link to and open descriptions
/// hold. Freed when the last of either lets go.
#[derive(Debug)]
struct Inode {
    ino: Ino,
    /// Names linking this inode (the root counts as named). Written only
    /// under the exclusive namespace lock, by [`Dir::insert`]/[`Dir::remove`].
    nlink: AtomicU32,
    /// A file's length, a directory's entry count: what `stat` reports,
    /// without a lock of the inode's. Stored inside the lock that guards the
    /// change (data lock, exclusive namespace lock); that lock, not this
    /// value, publishes the bytes, hence `Relaxed`.
    size: AtomicU64,
    kind: Kind,
    shared: Arc<Shared>,
}

impl Inode {
    fn new(shared: &Arc<Shared>, kind: Kind) -> Arc<Inode> {
        shared.live.fetch_add(1, Ordering::Relaxed);
        Arc::new(Inode {
            ino: Ino(shared.next_ino.fetch_add(1, Ordering::Relaxed)),
            nlink: AtomicU32::new(0),
            size: AtomicU64::new(0),
            kind,
            shared: shared.clone(),
        })
    }

    /// Change the file's bytes under its data lock (`EISDIR` for a
    /// directory) and record the new length.
    fn update(&self, change: impl FnOnce(&mut Vec<u8>)) -> KResult<()> {
        let Kind::File(data) = &self.kind else {
            return Err(Errno::EISDIR);
        };
        let mut data = data.write();
        change(&mut data);
        self.size.store(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for Inode {
    fn drop(&mut self) {
        self.shared.live.fetch_sub(1, Ordering::Relaxed);
    }
}

impl FileLike for Inode {
    fn seekable(&self) -> bool {
        true
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> KResult<usize> {
        let Kind::File(data) = &self.kind else {
            return Err(Errno::EISDIR);
        };
        let n = read_slice_at(&data.read(), offset, buf);
        // Modeled transfer time is charged outside the data lock so it
        // does not serialize other users of the file.
        self.shared.io_model().charge(n);
        Ok(n)
    }

    /// Extends the file (zero-filling a gap) as needed; `EFBIG`, with the
    /// file untouched, if that would grow it past [`MAX_FILE_SIZE`]. This is
    /// the memcpy whose duration Figs. 7–8 measure (plus the optional
    /// modeled transfer time, charged outside the lock).
    fn write_at(&self, offset: u64, src: &[u8]) -> KResult<usize> {
        let end = offset
            .checked_add(src.len() as u64)
            .filter(|&end| end <= MAX_FILE_SIZE)
            .ok_or(Errno::EFBIG)? as usize;
        self.update(|data| {
            if end > data.len() {
                data.resize(end, 0);
            }
            data[end - src.len()..end].copy_from_slice(src);
        })?;
        self.shared.io_model().charge(src.len());
        Ok(src.len())
    }

    fn size(&self) -> KResult<u64> {
        match self.kind {
            Kind::File(_) => Ok(self.size.load(Ordering::Relaxed)),
            Kind::Dir => Err(Errno::EISDIR),
        }
    }

    /// `EFBIG`, with the file untouched, past [`MAX_FILE_SIZE`].
    fn truncate(&self, len: u64) -> KResult<()> {
        if len > MAX_FILE_SIZE {
            return Err(Errno::EFBIG);
        }
        self.update(|data| data.resize(len as usize, 0))
    }

    fn stat(&self) -> FileStat {
        FileStat {
            ino: self.ino,
            size: self.size.load(Ordering::Relaxed),
            is_dir: matches!(self.kind, Kind::Dir),
            nlink: self.nlink.load(Ordering::Relaxed),
        }
    }
}

/// What a name refers to.
#[derive(Debug)]
enum Node {
    /// A file: shared with its other hard links and its open descriptions.
    File(Arc<Inode>),
    /// A directory, owned by this entry — directories have one name, so the
    /// namespace is a tree.
    Dir(Dir),
}

impl Node {
    fn inode(&self) -> &Arc<Inode> {
        match self {
            Node::File(inode) => inode,
            Node::Dir(dir) => &dir.inode,
        }
    }
}

/// A directory in the namespace tree: its own inode (what `open` hands out
/// and `stat` reports) and its entries.
#[derive(Debug)]
struct Dir {
    inode: Arc<Inode>,
    entries: BTreeMap<String, Node>,
}

impl Dir {
    fn new(shared: &Arc<Shared>) -> Dir {
        Dir {
            inode: Inode::new(shared, Kind::Dir),
            entries: BTreeMap::new(),
        }
    }

    /// Walk `comps` down from this directory; each must name a directory.
    fn dir(&self, comps: &[&str]) -> KResult<&Dir> {
        let mut cur = self;
        for comp in comps {
            cur = match cur.entries.get(*comp).ok_or(Errno::ENOENT)? {
                Node::Dir(dir) => dir,
                Node::File(_) => return Err(Errno::ENOTDIR),
            };
        }
        Ok(cur)
    }

    fn dir_mut(&mut self, comps: &[&str]) -> KResult<&mut Dir> {
        let mut cur = self;
        for comp in comps {
            cur = match cur.entries.get_mut(*comp).ok_or(Errno::ENOENT)? {
                Node::Dir(dir) => dir,
                Node::File(_) => return Err(Errno::ENOTDIR),
            };
        }
        Ok(cur)
    }

    /// The directory holding `comps`' final name, and that name; `EINVAL`
    /// for the root, which has none.
    fn parent_mut<'a>(&mut self, comps: &[&'a str]) -> KResult<(&mut Dir, &'a str)> {
        let (parent, name) = split_parent(comps).ok_or(Errno::EINVAL)?;
        Ok((self.dir_mut(parent)?, name))
    }

    /// What `comps` names below this directory (itself, for no components).
    fn inode(&self, comps: &[&str]) -> KResult<&Arc<Inode>> {
        match split_parent(comps) {
            None => Ok(&self.inode),
            Some((parent, name)) => self
                .dir(parent)?
                .entries
                .get(name)
                .map(Node::inode)
                .ok_or(Errno::ENOENT),
        }
    }

    /// Link `node` under `name`, replacing (and unlinking) what was there.
    fn insert(&mut self, name: &str, node: Node) {
        node.inode().nlink.fetch_add(1, Ordering::Relaxed);
        if let Some(old) = self.entries.insert(name.to_string(), node) {
            old.inode().nlink.fetch_sub(1, Ordering::Relaxed);
        }
        self.record_len();
    }

    /// Unlink and return what `name` refers to.
    fn remove(&mut self, name: &str) -> Option<Node> {
        let node = self.entries.remove(name)?;
        node.inode().nlink.fetch_sub(1, Ordering::Relaxed);
        self.record_len();
        Some(node)
    }

    fn record_len(&self) {
        let len = self.entries.len() as u64;
        self.inode.size.store(len, Ordering::Relaxed);
    }
}

/// What the namespace lock guards.
#[derive(Debug)]
struct Namespace {
    root: Dir,
    /// Exclusive acquisitions so far.
    exclusive: u64,
}

/// An in-memory filesystem shared by every process of a simulated kernel.
#[derive(Debug)]
pub struct Tmpfs {
    namespace: ShardedLock<Namespace>,
    shared: Arc<Shared>,
}

impl Tmpfs {
    /// An empty filesystem containing only the root directory.
    pub fn new() -> Tmpfs {
        let shared = Arc::new(Shared {
            io_fixed: AtomicU64::new(IoModel::RAW.fixed_ns),
            io_per_byte_bits: AtomicU64::new(IoModel::RAW.ns_per_byte.to_bits()),
            io_spin_threshold: AtomicU64::new(IoModel::RAW.spin_threshold_ns),
            live: AtomicUsize::new(0),
            next_ino: AtomicU64::new(0),
        });
        let root = Dir::new(&shared);
        root.inode.nlink.store(1, Ordering::Relaxed);
        Tmpfs {
            namespace: ShardedLock::new(Namespace { root, exclusive: 0 }),
            shared,
        }
    }

    /// The namespace for lookups: one shard of the lock, the caller's own.
    fn lookup(&self) -> ShardedLockReadGuard<'_, Namespace> {
        self.namespace
            .read()
            .expect("a thread panicked while changing tmpfs names")
    }

    /// The namespace for a call that changes a name.
    fn change(&self) -> ShardedLockWriteGuard<'_, Namespace> {
        let mut namespace = self
            .namespace
            .write()
            .expect("a thread panicked while changing tmpfs names");
        namespace.exclusive += 1;
        namespace
    }

    /// Install a modeled transfer cost for reads and writes.
    pub fn set_io_model(&self, model: IoModel) {
        let shared = &self.shared;
        shared.io_fixed.store(model.fixed_ns, Ordering::Relaxed);
        shared
            .io_per_byte_bits
            .store(model.ns_per_byte.to_bits(), Ordering::Relaxed);
        shared
            .io_spin_threshold
            .store(model.spin_threshold_ns, Ordering::Relaxed);
    }

    /// The current transfer-cost model.
    pub fn io_model(&self) -> IoModel {
        self.shared.io_model()
    }

    // ----- string API: `(cwd, path)` wrappers over the component API ---------

    /// Resolve `path` (relative to `cwd`) to an inode number.
    pub fn resolve(&self, cwd: &str, path: &str) -> KResult<Ino> {
        Ok(self.stat(cwd, path)?.ino)
    }

    /// Open (and possibly create/truncate) a file; the returned handle keeps
    /// the inode alive, whatever happens to its names, until it is dropped.
    pub fn open(&self, cwd: &str, path: &str, flags: OpenFlags) -> KResult<Arc<dyn FileLike>> {
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

    // ----- diagnostics -------------------------------------------------------

    /// Number of live inodes — named, or held open (leak tests).
    pub fn inode_count(&self) -> usize {
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Exclusive acquisitions of the namespace lock so far: one per call
    /// that changed (or set out to change) a name, none for anything else.
    pub fn exclusive_acquisitions(&self) -> u64 {
        self.lookup().exclusive
    }
}

impl Default for Tmpfs {
    fn default() -> Self {
        Tmpfs::new()
    }
}

/// Open what `rel` already names, applying `flags`' checks and truncation.
fn open_existing(root: &Dir, rel: &[&str], flags: OpenFlags) -> KResult<Arc<dyn FileLike>> {
    let inode = root.inode(rel)?;
    if flags.contains(OpenFlags::CREAT) && flags.contains(OpenFlags::EXCL) {
        return Err(Errno::EEXIST);
    }
    if flags.writable() {
        match inode.kind {
            Kind::Dir => return Err(Errno::EISDIR),
            Kind::File(_) if flags.contains(OpenFlags::TRUNC) => inode.update(Vec::clear)?,
            Kind::File(_) => {}
        }
    }
    Ok(inode.clone())
}

/// The path operations walk the borrowed components straight down the
/// directory tree — no string is rebuilt or re-parsed.
impl FileSystem for Tmpfs {
    fn fs_name(&self) -> &'static str {
        "tmpfs"
    }

    fn open_rel(&self, rel: &[&str], flags: OpenFlags) -> KResult<Arc<dyn FileLike>> {
        // An existing name opens under the shared lock, released before the
        // creating path asks for the exclusive one.
        let found = open_existing(&self.lookup().root, rel, flags);
        if !matches!(found, Err(Errno::ENOENT)) || !flags.contains(OpenFlags::CREAT) {
            return found;
        }
        let mut namespace = self.change();
        // Somebody may have created the name in between.
        match open_existing(&namespace.root, rel, flags) {
            Err(Errno::ENOENT) => {}
            found => return found,
        }
        let (dir, name) = namespace.root.parent_mut(rel)?;
        let inode = Inode::new(&self.shared, Kind::File(RwLock::new(Vec::new())));
        dir.insert(name, Node::File(inode.clone()));
        Ok(inode)
    }

    fn stat_rel(&self, rel: &[&str]) -> KResult<FileStat> {
        Ok(self.lookup().root.inode(rel)?.stat())
    }

    fn mkdir_rel(&self, rel: &[&str]) -> KResult<Ino> {
        let mut namespace = self.change();
        if namespace.root.inode(rel).is_ok() {
            return Err(Errno::EEXIST);
        }
        let (dir, name) = namespace.root.parent_mut(rel)?;
        let new = Dir::new(&self.shared);
        let ino = new.inode.ino;
        dir.insert(name, Node::Dir(new));
        Ok(ino)
    }

    fn unlink_rel(&self, rel: &[&str]) -> KResult<()> {
        let mut namespace = self.change();
        let (dir, name) = namespace.root.parent_mut(rel)?;
        // POSIX unlink(2) refuses directories (rmdir is separate).
        if let Node::Dir(_) = dir.entries.get(name).ok_or(Errno::ENOENT)? {
            return Err(Errno::EISDIR);
        }
        dir.remove(name);
        Ok(())
    }

    fn rmdir_rel(&self, rel: &[&str]) -> KResult<()> {
        let mut namespace = self.change();
        let (dir, name) = namespace.root.parent_mut(rel)?;
        match dir.entries.get(name).ok_or(Errno::ENOENT)? {
            Node::File(_) => return Err(Errno::ENOTDIR),
            Node::Dir(target) if !target.entries.is_empty() => return Err(Errno::ENOTEMPTY),
            Node::Dir(_) => {}
        }
        dir.remove(name);
        Ok(())
    }

    fn link_rel(&self, existing: &[&str], new: &[&str]) -> KResult<()> {
        let mut namespace = self.change();
        let inode = namespace.root.inode(existing)?.clone();
        if matches!(inode.kind, Kind::Dir) {
            return Err(Errno::EPERM);
        }
        if namespace.root.inode(new).is_ok() {
            return Err(Errno::EEXIST);
        }
        let (dir, name) = namespace.root.parent_mut(new)?;
        dir.insert(name, Node::File(inode));
        Ok(())
    }

    fn rename_rel(&self, from: &[&str], to: &[&str]) -> KResult<()> {
        let mut namespace = self.change();
        let root = &mut namespace.root;
        let (from_parent, from_name) = split_parent(from).ok_or(Errno::EINVAL)?;
        let moved = root.dir(from_parent)?.entries.get(from_name);
        let moved = moved.ok_or(Errno::ENOENT)?;
        let (to_parent, to_name) = split_parent(to).ok_or(Errno::EINVAL)?;
        match root.dir(to_parent)?.entries.get(to_name) {
            // Onto itself, or onto another link to the same inode: no-op.
            Some(target) if Arc::ptr_eq(target.inode(), moved.inode()) => return Ok(()),
            // A non-directory target is replaced; a directory is refused.
            Some(Node::Dir(_)) => return Err(Errno::EISDIR),
            _ => {}
        }
        if matches!(moved, Node::Dir(_)) && to.starts_with(from) {
            return Err(Errno::EINVAL); // a directory cannot move below itself
        }
        const CHECKED: &str = "resolved above, under the same exclusive acquisition";
        let from_dir = root.dir_mut(from_parent).expect(CHECKED);
        let node = from_dir.remove(from_name).expect(CHECKED);
        let to_dir = root.dir_mut(to_parent).expect(CHECKED);
        to_dir.insert(to_name, node);
        Ok(())
    }

    fn readdir_rel(&self, rel: &[&str]) -> KResult<Vec<DirEntry>> {
        let namespace = self.lookup();
        Ok(namespace
            .root
            .dir(rel)?
            .entries
            .iter()
            .map(|(name, node)| DirEntry {
                name: name.clone(),
                ino: node.inode().ino,
                is_dir: matches!(node, Node::Dir(_)),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wflags() -> OpenFlags {
        OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC
    }

    /// Create (or truncate) `path` and close it again.
    fn touch(fs: &Tmpfs, path: &str) {
        fs.open("/", path, wflags()).unwrap();
    }

    #[test]
    fn create_write_read_roundtrip() {
        let fs = Tmpfs::new();
        let file = fs.open("/", "/hello.txt", wflags()).unwrap();
        assert_eq!(file.write_at(0, b"hello world").unwrap(), 11);
        let mut buf = [0u8; 5];
        assert_eq!(file.read_at(6, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"world");
    }

    #[test]
    fn read_past_eof_returns_zero() {
        let fs = Tmpfs::new();
        let file = fs.open("/", "/f", wflags()).unwrap();
        file.write_at(0, b"abc").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(file.read_at(3, &mut buf).unwrap(), 0);
        assert_eq!(file.read_at(100, &mut buf).unwrap(), 0);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let fs = Tmpfs::new();
        let file = fs.open("/", "/s", wflags()).unwrap();
        file.write_at(4, b"xy").unwrap();
        let mut buf = [9u8; 6];
        assert_eq!(file.read_at(0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, &[0, 0, 0, 0, b'x', b'y']);
    }

    #[test]
    fn trunc_on_open_clears() {
        let fs = Tmpfs::new();
        let a = fs.open("/", "/t", wflags()).unwrap();
        a.write_at(0, b"0123456789").unwrap();
        drop(a);
        let b = fs.open("/", "/t", wflags()).unwrap();
        assert_eq!(b.size().unwrap(), 0);
    }

    #[test]
    fn excl_refuses_existing() {
        let fs = Tmpfs::new();
        let excl = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::EXCL;
        fs.open("/", "/x", excl).unwrap();
        assert_eq!(fs.open("/", "/x", excl).unwrap_err(), Errno::EEXIST);
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
        let file = fs.open("/a/b", "c.txt", wflags()).unwrap();
        assert_eq!(fs.resolve("/", "/a/b/c.txt").unwrap(), file.stat().ino);
        let entries = fs.readdir("/", "/a/b").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "c.txt");
        assert!(!entries[0].is_dir);
        assert_eq!(fs.stat("/", "/a").unwrap().size, 1, "entries of /a");
    }

    #[test]
    fn an_open_directory_is_a_handle_that_refuses_file_io() {
        let fs = Tmpfs::new();
        fs.mkdir("/", "/d").unwrap();
        assert_eq!(
            fs.open("/", "/d", OpenFlags::RDWR).unwrap_err(),
            Errno::EISDIR
        );
        let dir = fs.open("/", "/d", OpenFlags::RDONLY).unwrap();
        assert_eq!(dir.read_at(0, &mut [0u8; 4]).unwrap_err(), Errno::EISDIR);
        assert_eq!(dir.write_at(0, b"x").unwrap_err(), Errno::EISDIR);
        assert_eq!(dir.size().unwrap_err(), Errno::EISDIR);
        assert_eq!(dir.truncate(0).unwrap_err(), Errno::EISDIR);
        assert_eq!(dir.stat(), fs.stat("/", "/d").unwrap());
        // Removed while open: alive, nameless, until the handle goes.
        let before = fs.inode_count();
        fs.rmdir("/", "/d").unwrap();
        assert_eq!(dir.stat().nlink, 0);
        assert_eq!(fs.inode_count(), before);
        drop(dir);
        assert_eq!(fs.inode_count(), before - 1);
    }

    #[test]
    fn unlink_removes_and_reclaims() {
        let fs = Tmpfs::new();
        touch(&fs, "/gone");
        let before = fs.inode_count();
        fs.unlink("/", "/gone").unwrap();
        assert_eq!(fs.inode_count(), before - 1);
        assert_eq!(fs.resolve("/", "/gone").unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn unlinked_open_file_survives_until_close() {
        let fs = Tmpfs::new();
        let file = fs.open("/", "/tmpf", wflags()).unwrap();
        file.write_at(0, b"still here").unwrap();
        fs.unlink("/", "/tmpf").unwrap();
        // Name is gone but data is reachable through the handle.
        assert_eq!(fs.resolve("/", "/tmpf").unwrap_err(), Errno::ENOENT);
        let mut buf = [0u8; 10];
        assert_eq!(file.read_at(0, &mut buf).unwrap(), 10);
        assert_eq!(file.stat().nlink, 0);
        let before = fs.inode_count();
        drop(file);
        assert_eq!(fs.inode_count(), before - 1);
    }

    #[test]
    fn a_handle_outlives_the_filesystem_value() {
        let fs = Tmpfs::new();
        let file = fs.open("/", "/f", wflags()).unwrap();
        drop(fs);
        assert_eq!(file.write_at(0, b"abc").unwrap(), 3);
        assert_eq!(file.size().unwrap(), 3);
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
        touch(&fs, "/d/f");
        assert_eq!(fs.rmdir("/", "/d").unwrap_err(), Errno::ENOTEMPTY);
        assert_eq!(fs.rmdir("/", "/d/f").unwrap_err(), Errno::ENOTDIR);
    }

    #[test]
    fn stat_reports_sizes() {
        let fs = Tmpfs::new();
        let file = fs.open("/", "/s", wflags()).unwrap();
        file.write_at(0, &[7u8; 1234]).unwrap();
        let st = fs.stat("/", "/s").unwrap();
        assert_eq!(st.size, 1234);
        assert!(!st.is_dir);
        assert_eq!(st, file.stat());
        assert!(fs.stat("/", "/").unwrap().is_dir);
    }

    #[test]
    fn truncate_shrinks_and_grows() {
        let fs = Tmpfs::new();
        let file = fs.open("/", "/t", wflags()).unwrap();
        file.write_at(0, b"abcdef").unwrap();
        file.truncate(3).unwrap();
        assert_eq!(file.size().unwrap(), 3);
        file.truncate(8).unwrap();
        let mut buf = [1u8; 8];
        file.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, &[b'a', b'b', b'c', 0, 0, 0, 0, 0]);
    }

    #[test]
    fn growth_past_the_size_limit_is_efbig() {
        let fs = Tmpfs::new();
        let file = fs.open("/", "/t", wflags()).unwrap();
        file.write_at(0, b"abc").unwrap();
        for offset in [MAX_FILE_SIZE - 1, MAX_FILE_SIZE, 1 << 40, u64::MAX - 1] {
            assert_eq!(file.write_at(offset, b"xy").unwrap_err(), Errno::EFBIG);
        }
        for len in [MAX_FILE_SIZE + 1, 1 << 40, u64::MAX] {
            assert_eq!(file.truncate(len).unwrap_err(), Errno::EFBIG);
        }
        assert_eq!(file.size().unwrap(), 3, "refused calls change nothing");
        let mut buf = [0u8; 2];
        assert_eq!(file.read_at(u64::MAX, &mut buf).unwrap(), 0);
    }

    #[test]
    fn path_through_file_is_enotdir() {
        let fs = Tmpfs::new();
        touch(&fs, "/f");
        assert_eq!(fs.resolve("/", "/f/x").unwrap_err(), Errno::ENOTDIR);
        assert_eq!(fs.open("/", "/f/x", wflags()).unwrap_err(), Errno::ENOTDIR);
        assert_eq!(fs.open("/", "/no/x", wflags()).unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn link_creates_second_name() {
        let fs = Tmpfs::new();
        let file = fs.open("/", "/orig", wflags()).unwrap();
        file.write_at(0, b"shared").unwrap();
        let ino = file.stat().ino;
        drop(file);
        fs.link("/", "/orig", "/alias").unwrap();
        assert_eq!(fs.resolve("/", "/alias").unwrap(), ino);
        assert_eq!(fs.stat("/", "/alias").unwrap().nlink, 2);
        // Unlinking one name keeps the data reachable via the other.
        fs.unlink("/", "/orig").unwrap();
        let mut buf = [0u8; 6];
        let alias = fs.open("/", "/alias", OpenFlags::RDONLY).unwrap();
        assert_eq!(alias.read_at(0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"shared");
        assert_eq!(alias.stat().nlink, 1);
    }

    #[test]
    fn link_refuses_dirs_and_existing() {
        let fs = Tmpfs::new();
        fs.mkdir("/", "/d").unwrap();
        assert_eq!(fs.link("/", "/d", "/d2").unwrap_err(), Errno::EPERM);
        touch(&fs, "/a");
        touch(&fs, "/b");
        assert_eq!(fs.link("/", "/a", "/b").unwrap_err(), Errno::EEXIST);
    }

    #[test]
    fn rename_moves_and_replaces() {
        let fs = Tmpfs::new();
        let a = fs.open("/", "/a", wflags()).unwrap();
        a.write_at(0, b"A").unwrap();
        let a = a.stat().ino;
        touch(&fs, "/b");
        let before = fs.inode_count();
        fs.rename("/", "/a", "/b").unwrap();
        assert_eq!(fs.resolve("/", "/a").unwrap_err(), Errno::ENOENT);
        assert_eq!(fs.resolve("/", "/b").unwrap(), a);
        assert_eq!(fs.inode_count(), before - 1, "old /b reclaimed");
        assert_eq!(fs.stat("/", "/b").unwrap().nlink, 1);
        // Across directories too.
        fs.mkdir("/", "/sub").unwrap();
        fs.rename("/", "/b", "/sub/c").unwrap();
        assert_eq!(fs.resolve("/", "/sub/c").unwrap(), a);
        // Onto itself, and onto another link to the same inode: nothing moves.
        fs.rename("/", "/sub/c", "/sub/c").unwrap();
        fs.link("/", "/sub/c", "/twin").unwrap();
        fs.rename("/", "/twin", "/sub/c").unwrap();
        assert_eq!(fs.stat("/", "/twin").unwrap().nlink, 2);
    }

    #[test]
    fn rename_refuses_dir_target() {
        let fs = Tmpfs::new();
        touch(&fs, "/f");
        fs.mkdir("/", "/d").unwrap();
        assert_eq!(fs.rename("/", "/f", "/d").unwrap_err(), Errno::EISDIR);
    }

    #[test]
    fn rename_moves_a_directory_with_its_contents_but_not_below_itself() {
        let fs = Tmpfs::new();
        fs.mkdir("/", "/d").unwrap();
        fs.mkdir("/", "/d/sub").unwrap();
        touch(&fs, "/d/sub/f");
        assert_eq!(fs.rename("/", "/d", "/d/sub/d").unwrap_err(), Errno::EINVAL);
        fs.mkdir("/", "/e").unwrap();
        fs.rename("/", "/d", "/e/d").unwrap();
        assert!(!fs.stat("/", "/e/d/sub/f").unwrap().is_dir);
        assert_eq!(fs.stat("/", "/d").unwrap_err(), Errno::ENOENT);
        assert_eq!(fs.stat("/", "/e").unwrap().size, 1);
    }

    #[test]
    fn inode_numbers_are_never_reused() {
        let fs = Tmpfs::new();
        let a = fs.open("/", "/a", wflags()).unwrap().stat().ino;
        fs.unlink("/", "/a").unwrap();
        let b = fs.open("/", "/b", wflags()).unwrap().stat().ino;
        assert!(b > a, "{b:?} after {a:?}");
    }

    #[test]
    fn only_name_changes_take_the_namespace_exclusively() {
        let fs = Tmpfs::new();
        touch(&fs, "/f");
        let before = fs.exclusive_acquisitions();
        let file = fs.open("/", "/f", wflags()).unwrap();
        file.write_at(0, b"abc").unwrap();
        fs.stat("/", "/f").unwrap();
        fs.readdir("/", "/").unwrap();
        assert_eq!(
            fs.open("/", "/nope", OpenFlags::RDONLY).unwrap_err(),
            Errno::ENOENT
        );
        drop(file);
        assert_eq!(fs.exclusive_acquisitions(), before);
        fs.unlink("/", "/f").unwrap();
        assert_eq!(fs.exclusive_acquisitions(), before + 1);
    }
}
