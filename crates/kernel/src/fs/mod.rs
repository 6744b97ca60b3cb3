//! Filesystems for the simulated kernel: tmpfs, procfs, and the mount seam.
//!
//! The paper's AIO-vs-ULP evaluation (Figs. 7–8) opens, writes and closes
//! files "on the tmpfs file system to exclude the variation of actual disk
//! access" (§VI-D). A Linux tmpfs write is, at its core, a memcpy into page
//! cache pages; this module reproduces that: file data lives in anonymous
//! memory and `write` really copies the caller's buffer, so the measured
//! duration scales with buffer size exactly as on the paper's testbed, minus
//! the (injected) syscall-entry cost.
//!
//! Since PR 7, the tmpfs is just the `/` implementation behind a minimal
//! mount seam ([`FileSystem`] + [`MountTable`], see [`vfs`](self)): path
//! resolution dispatches on the longest mounted prefix, and a read-only
//! [`ProcFs`] is mounted at `/proc` to expose the live runtime to its own
//! ULPs. What `open` returns is a [`FileLike`] handle that the open file
//! description holds; file calls go to it, not back through the mount.

mod path;
mod procfs;
mod tmpfs;
mod vfs;

pub use path::{normalize, split_parent, strip_prefix, Components};
pub use procfs::{ProcFs, ProcSource};
pub use tmpfs::{DirEntry, FileStat, Ino, IoModel, Tmpfs, MAX_FILE_SIZE};
pub use vfs::{FileLike, FileSystem, Mount, MountTable};

/// Open flags, mirroring the POSIX `O_*` constants the paper's benchmark
/// uses (`open(O_CREAT|O_WRONLY|O_TRUNC)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFlags(pub u32);

impl OpenFlags {
    /// Read-only access mode.
    pub const RDONLY: OpenFlags = OpenFlags(0);
    /// Write-only access mode.
    pub const WRONLY: OpenFlags = OpenFlags(1);
    /// Read/write access mode.
    pub const RDWR: OpenFlags = OpenFlags(2);
    /// Create the file if it does not exist.
    pub const CREAT: OpenFlags = OpenFlags(0o100);
    /// With [`OpenFlags::CREAT`]: fail if the file already exists.
    pub const EXCL: OpenFlags = OpenFlags(0o200);
    /// Truncate to zero length on open.
    pub const TRUNC: OpenFlags = OpenFlags(0o1000);
    /// Every write lands at end-of-file.
    pub const APPEND: OpenFlags = OpenFlags(0o2000);

    /// Whether `other`'s access mode / flag bits are all present in `self`.
    #[inline]
    pub fn contains(&self, other: OpenFlags) -> bool {
        // Access mode (low 2 bits) is a value, not a bitmask.
        if other.0 <= 2 {
            (self.0 & 0b11) == other.0
        } else {
            self.0 & other.0 == other.0
        }
    }

    /// May this descriptor read?
    #[inline]
    pub fn readable(&self) -> bool {
        let mode = self.0 & 0b11;
        mode == Self::RDONLY.0 || mode == Self::RDWR.0
    }

    /// May this descriptor write?
    #[inline]
    pub fn writable(&self) -> bool {
        let mode = self.0 & 0b11;
        mode == Self::WRONLY.0 || mode == Self::RDWR.0
    }
}

impl std::ops::BitOr for OpenFlags {
    type Output = OpenFlags;
    fn bitor(self, rhs: OpenFlags) -> OpenFlags {
        OpenFlags(self.0 | rhs.0)
    }
}

/// Seek origin for `lseek`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// Absolute offset (`SEEK_SET`).
    Set,
    /// Relative to the current offset (`SEEK_CUR`).
    Cur,
    /// Relative to end-of-file (`SEEK_END`).
    End,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_composition() {
        let f = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
        assert!(f.writable());
        assert!(!f.readable());
        assert!(f.contains(OpenFlags::CREAT));
        assert!(f.contains(OpenFlags::TRUNC));
        assert!(!f.contains(OpenFlags::APPEND));
    }

    #[test]
    fn rdwr_is_both() {
        let f = OpenFlags::RDWR;
        assert!(f.readable() && f.writable());
    }

    #[test]
    fn rdonly_is_not_wronly() {
        // O_RDONLY == 0, so containment must treat the access mode as a
        // value; a WRONLY descriptor does not "contain" RDONLY.
        assert!(!OpenFlags::WRONLY.contains(OpenFlags::RDONLY));
        assert!(OpenFlags::RDONLY.contains(OpenFlags::RDONLY));
    }
}
