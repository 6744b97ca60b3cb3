//! The mount seam: a [`FileSystem`] trait for names, a [`FileLike`] trait
//! for what a name opens to, and a small longest-prefix [`MountTable`].
//!
//! - [`FileSystem`] is the *path* half: operations take **normalized
//!   component slices relative to the mount root** (the `_rel` suffix). The
//!   kernel normalizes `(cwd, path)` once, the mount table strips the mount
//!   prefix, and the filesystem never sees absolute strings it would have to
//!   re-parse. [`FileSystem::open_rel`] turns a name into a handle.
//! - [`FileLike`] is the *handle* half: an open object, held as an `Arc` by
//!   the open file description. It is the one interface behind a descriptor
//!   — what `open` returns for a file or directory, and equally what `pipe`,
//!   `socketpair`, `listen` and `epoll_create` install — so the syscall
//!   layer checks the access mode and dispatches, never asking what kind of
//!   thing it holds. Reads and writes go straight to it — no
//!   filesystem-wide structure stands between a descriptor and its bytes —
//!   and closing is dropping it, so what must outlive its last name (an
//!   unlinked tmpfs file, a procfs snapshot, a pipe with one end gone)
//!   lives exactly as long as a description does.
//! - [`MountTable`] dispatches a normalized component list to the mount
//!   with the longest matching prefix ([`strip_prefix`]); the root mount
//!   (empty prefix) always matches, so resolution can't fail to find *a*
//!   filesystem. Operations that would span two mounts (`link`, `rename`)
//!   are refused with `EXDEV` by the kernel before either side runs.
//!
//! Components are borrowed (`&[&str]`, pointing into the caller's path
//! strings), so dispatching a path allocates nothing and — because
//! [`MountTable::resolve`] lends the filesystem instead of cloning it —
//! touches no reference count.

use super::tmpfs::{DirEntry, FileStat, Ino};
use super::{path::strip_prefix, OpenFlags};
use crate::errno::{Errno, KResult};
use crate::poll::{EpollObject, PollEvents, WatchSet};
use crate::socket::SocketEnd;
use std::sync::Arc;

/// An open object: what an open file description holds, whatever kind of
/// thing it names. Dropping the last `Arc` is the close.
///
/// The trait has two halves and every object implements the one it is. A
/// *seekable* object (tmpfs file or directory, procfs snapshot) answers the
/// positional calls; the description keeps the offset and turns `read(2)` /
/// `write(2)` into [`read_at`](FileLike::read_at) /
/// [`write_at`](FileLike::write_at). A *stream* object (pipe end, socket end,
/// listener, epoll instance) answers [`read`](FileLike::read) /
/// [`write`](FileLike::write) itself and is what `poll`/`epoll` can watch.
/// Every default is the answer the call gets on the wrong kind of object.
pub trait FileLike: Send + Sync + std::fmt::Debug {
    /// Whether the object has a position: `false` sends `pread`/`pwrite`/
    /// `lseek` to `ESPIPE` and `ftruncate` to `EINVAL`.
    fn seekable(&self) -> bool {
        false
    }
    /// Read up to `buf.len()` bytes at `offset`; 0 at or past end-of-file.
    fn read_at(&self, _offset: u64, _buf: &mut [u8]) -> KResult<usize> {
        Err(Errno::ESPIPE)
    }
    /// Write `src` at `offset`, extending the object as needed.
    fn write_at(&self, _offset: u64, _src: &[u8]) -> KResult<usize> {
        Err(Errno::ESPIPE)
    }
    /// Current size in bytes (`lseek(SEEK_END)`, `O_APPEND`).
    fn size(&self) -> KResult<u64> {
        Err(Errno::ESPIPE)
    }
    /// Truncate or extend to `len`.
    fn truncate(&self, _len: u64) -> KResult<()> {
        Err(Errno::EINVAL)
    }
    /// Metadata snapshot of the opened object itself, whatever names it
    /// still has. An object that never had a name reports inode 0 with no
    /// links.
    fn stat(&self) -> FileStat {
        FileStat::default()
    }

    /// `read(2)` on a stream object; may put the calling OS thread to sleep.
    fn read(&self, _buf: &mut [u8]) -> KResult<usize> {
        Err(Errno::EINVAL)
    }
    /// `write(2)` on a stream object; may put the calling OS thread to sleep.
    fn write(&self, _data: &[u8]) -> KResult<usize> {
        Err(Errno::EINVAL)
    }
    /// `accept(2)`: the next queued connection of a listener.
    fn accept(&self) -> KResult<SocketEnd> {
        Err(Errno::EINVAL)
    }
    /// The epoll instance behind the descriptor, if it is one
    /// (`epoll_ctl`/`epoll_wait` answer `EINVAL` otherwise).
    fn as_epoll(&self) -> Option<&EpollObject> {
        None
    }
    /// Level-triggered readiness snapshot. An object that never blocks is
    /// permanently readable and writable (POSIX `poll` on a regular file).
    fn poll_events(&self) -> PollEvents {
        PollEvents::IN | PollEvents::OUT
    }
    /// The watch set a readiness waiter subscribes to; `None` for an object
    /// whose readiness never changes (`epoll_ctl` answers `EPERM`).
    fn watch(&self) -> Option<&WatchSet> {
        None
    }
}

/// `read_at` over bytes held in memory: copy what `content` has at `offset`
/// into `buf`; 0 at or past its end.
pub(super) fn read_slice_at(content: &[u8], offset: u64, buf: &mut [u8]) -> usize {
    // An offset that does not fit `usize` is past any EOF.
    let off = usize::try_from(offset).unwrap_or(usize::MAX);
    let Some(rest) = content.get(off..) else {
        return 0;
    };
    let n = buf.len().min(rest.len());
    buf[..n].copy_from_slice(&rest[..n]);
    n
}

/// A mountable filesystem: the seam between the syscall layer and a
/// concrete file store.
///
/// Path-taking methods receive components already normalized (no `.`/`..`,
/// no empty segments) and already stripped of the mount prefix — an empty
/// slice is the mount root itself.
pub trait FileSystem: Send + Sync + std::fmt::Debug {
    /// Short filesystem-type name (diagnostics: `tmpfs`, `proc`).
    fn fs_name(&self) -> &'static str;

    /// Open (and possibly create/truncate) the file or directory at `rel`.
    fn open_rel(&self, rel: &[&str], flags: OpenFlags) -> KResult<Arc<dyn FileLike>>;
    /// `stat(2)` for the inode at `rel`.
    fn stat_rel(&self, rel: &[&str]) -> KResult<FileStat>;
    /// Create a directory at `rel`.
    fn mkdir_rel(&self, rel: &[&str]) -> KResult<Ino>;
    /// Remove the file link at `rel`.
    fn unlink_rel(&self, rel: &[&str]) -> KResult<()>;
    /// Remove the empty directory at `rel`.
    fn rmdir_rel(&self, rel: &[&str]) -> KResult<()>;
    /// Add a second name `new` for the file at `existing` (same mount —
    /// the kernel refuses cross-mount links with `EXDEV` before calling).
    fn link_rel(&self, existing: &[&str], new: &[&str]) -> KResult<()>;
    /// Atomically move `from` to `to` (same mount, as with links).
    fn rename_rel(&self, from: &[&str], to: &[&str]) -> KResult<()>;
    /// List the directory at `rel` in name order.
    fn readdir_rel(&self, rel: &[&str]) -> KResult<Vec<DirEntry>>;
}

/// One mounted filesystem: where it hangs and what serves it.
#[derive(Debug, Clone)]
pub struct Mount {
    /// Normalized mount-point components (`["proc"]` for `/proc`; the root
    /// mount's prefix is empty).
    pub prefix: Vec<String>,
    /// The filesystem serving paths under the prefix.
    pub fs: Arc<dyn FileSystem>,
}

/// The mount table: a root filesystem plus zero or more prefix mounts,
/// dispatched longest-prefix-first.
#[derive(Debug)]
pub struct MountTable {
    /// All mounts; `mounts[0]` is the root (empty prefix). Kept sorted by
    /// descending prefix length so the first match is the longest.
    mounts: Vec<Mount>,
}

impl MountTable {
    /// A table with only the root mount.
    pub fn new(root: Arc<dyn FileSystem>) -> MountTable {
        MountTable {
            mounts: vec![Mount {
                prefix: Vec::new(),
                fs: root,
            }],
        }
    }

    /// Mount `fs` at the normalized prefix `prefix` (e.g. `["proc"]`).
    /// Mounting again at the same prefix replaces the previous filesystem.
    pub fn mount(&mut self, prefix: Vec<String>, fs: Arc<dyn FileSystem>) {
        self.mounts.retain(|m| m.prefix != prefix);
        self.mounts.push(Mount { prefix, fs });
        self.mounts
            .sort_by_key(|m| std::cmp::Reverse(m.prefix.len()));
    }

    /// Dispatch a normalized absolute component list to the longest-prefix
    /// mount; returns the serving filesystem and the mount-relative
    /// remainder. Always succeeds — the root mount matches everything.
    pub fn resolve<'c, 'a>(&self, comps: &'c [&'a str]) -> (&Arc<dyn FileSystem>, &'c [&'a str]) {
        for m in &self.mounts {
            if let Some(rest) = strip_prefix(comps, &m.prefix) {
                return (&m.fs, rest);
            }
        }
        unreachable!("the root mount's empty prefix matches every path");
    }

    /// Names of mount points living *directly inside* the directory at
    /// `comps` — used by `readdir` to synthesize entries (like `proc` in a
    /// listing of `/`) that the underlying filesystem knows nothing about.
    pub fn child_mounts(&self, comps: &[&str]) -> Vec<String> {
        let mut names: Vec<String> = self
            .mounts
            .iter()
            .filter(|m| m.prefix.len() == comps.len() + 1)
            .filter(|m| m.prefix.iter().zip(comps).all(|(p, c)| p == c))
            .map(|m| m.prefix.last().expect("non-root prefix").clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// The root filesystem (the empty-prefix mount).
    pub fn root(&self) -> &Arc<dyn FileSystem> {
        &self
            .mounts
            .iter()
            .find(|m| m.prefix.is_empty())
            .expect("a root mount always exists")
            .fs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{normalize, Tmpfs};

    fn prefix(p: &str) -> Vec<String> {
        normalize("/", p).iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn tmpfs_serves_through_the_trait() {
        let fs = Tmpfs::new();
        let file = fs
            .open_rel(
                &["f"],
                OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC,
            )
            .unwrap();
        assert_eq!(file.write_at(0, b"abc").unwrap(), 3);
        let mut buf = [0u8; 3];
        assert_eq!(file.read_at(0, &mut buf).unwrap(), 3);
        assert_eq!(&buf, b"abc");
        assert_eq!(file.size().unwrap(), 3);
        assert_eq!(fs.stat_rel(&["f"]).unwrap(), file.stat());
        assert_eq!(file.stat().size, 3);
        // The mount root resolves as the tmpfs root directory.
        assert!(fs.stat_rel(&[]).unwrap().is_dir);
        assert_eq!(fs.fs_name(), "tmpfs");
    }

    #[test]
    fn longest_prefix_wins() {
        let root: Arc<dyn FileSystem> = Arc::new(Tmpfs::new());
        let proc_fs: Arc<dyn FileSystem> = Arc::new(Tmpfs::new());
        let deep: Arc<dyn FileSystem> = Arc::new(Tmpfs::new());
        let mut table = MountTable::new(root.clone());
        table.mount(prefix("/proc"), proc_fs.clone());
        table.mount(prefix("/proc/deep"), deep.clone());

        let (fs, rest) = table.resolve(&["proc", "deep", "x"]);
        assert!(Arc::ptr_eq(fs, &deep));
        assert_eq!(rest, ["x"]);

        let (fs, rest) = table.resolve(&["proc", "self", "stat"]);
        assert!(Arc::ptr_eq(fs, &proc_fs));
        assert_eq!(rest, ["self", "stat"]);

        let (fs, rest) = table.resolve(&["etc", "passwd"]);
        assert!(Arc::ptr_eq(fs, &root));
        assert_eq!(rest, ["etc", "passwd"]);

        // The mount point itself dispatches to the mounted fs root.
        let (fs, rest) = table.resolve(&["proc"]);
        assert!(Arc::ptr_eq(fs, &proc_fs));
        assert!(rest.is_empty());
    }

    #[test]
    fn child_mounts_lists_direct_children_only() {
        let mut table = MountTable::new(Arc::new(Tmpfs::new()) as Arc<dyn FileSystem>);
        table.mount(prefix("/proc"), Arc::new(Tmpfs::new()));
        table.mount(prefix("/dev"), Arc::new(Tmpfs::new()));
        table.mount(prefix("/dev/shm"), Arc::new(Tmpfs::new()));
        assert_eq!(table.child_mounts(&[]), vec!["dev", "proc"]);
        assert_eq!(table.child_mounts(&["dev"]), vec!["shm"]);
        assert!(table.child_mounts(&["proc"]).is_empty());
    }

    #[test]
    fn root_accessor_returns_the_empty_prefix_mount() {
        let root: Arc<dyn FileSystem> = Arc::new(Tmpfs::new());
        let mut table = MountTable::new(root.clone());
        table.mount(prefix("/proc"), Arc::new(Tmpfs::new()));
        assert!(Arc::ptr_eq(table.root(), &root));
    }
}
