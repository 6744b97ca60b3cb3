//! POSIX-style error codes returned by the simulated kernel.

use std::fmt;

/// Result type of every simulated system call.
pub type KResult<T> = Result<T, Errno>;

/// The subset of POSIX `errno` values the simulated kernel can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(i32)]
pub enum Errno {
    /// Operation not permitted.
    EPERM = 1,
    /// No such file or directory.
    ENOENT = 2,
    /// No such process.
    ESRCH = 3,
    /// Interrupted system call.
    EINTR = 4,
    /// I/O error.
    EIO = 5,
    /// Bad file descriptor.
    EBADF = 9,
    /// No child processes.
    ECHILD = 10,
    /// Try again (non-blocking operation would block).
    EAGAIN = 11,
    /// Out of memory.
    ENOMEM = 12,
    /// Permission denied.
    EACCES = 13,
    /// Bad address.
    EFAULT = 14,
    /// File exists.
    EEXIST = 17,
    /// Cross-device link (the operation would span two mounts).
    EXDEV = 18,
    /// Not a directory.
    ENOTDIR = 20,
    /// Is a directory.
    EISDIR = 21,
    /// Invalid argument.
    EINVAL = 22,
    /// Too many open files in system.
    ENFILE = 23,
    /// Too many open files.
    EMFILE = 24,
    /// File too large.
    EFBIG = 27,
    /// No space left on device.
    ENOSPC = 28,
    /// Illegal seek.
    ESPIPE = 29,
    /// Read-only file system.
    EROFS = 30,
    /// Broken pipe.
    EPIPE = 32,
    /// Directory not empty.
    ENOTEMPTY = 39,
    /// Operation timed out.
    ETIMEDOUT = 110,
    /// Operation now in progress (AIO request still running).
    EINPROGRESS = 115,
    /// Operation canceled.
    ECANCELED = 125,
}

impl Errno {
    /// Stable text name (matches `errno.h`).
    pub fn name(&self) -> &'static str {
        match self {
            Errno::EPERM => "EPERM",
            Errno::ENOENT => "ENOENT",
            Errno::ESRCH => "ESRCH",
            Errno::EINTR => "EINTR",
            Errno::EIO => "EIO",
            Errno::EBADF => "EBADF",
            Errno::ECHILD => "ECHILD",
            Errno::EAGAIN => "EAGAIN",
            Errno::ENOMEM => "ENOMEM",
            Errno::EACCES => "EACCES",
            Errno::EFAULT => "EFAULT",
            Errno::EEXIST => "EEXIST",
            Errno::EXDEV => "EXDEV",
            Errno::ENOTDIR => "ENOTDIR",
            Errno::EISDIR => "EISDIR",
            Errno::EINVAL => "EINVAL",
            Errno::ENFILE => "ENFILE",
            Errno::EMFILE => "EMFILE",
            Errno::EFBIG => "EFBIG",
            Errno::ENOSPC => "ENOSPC",
            Errno::ESPIPE => "ESPIPE",
            Errno::EROFS => "EROFS",
            Errno::EPIPE => "EPIPE",
            Errno::ENOTEMPTY => "ENOTEMPTY",
            Errno::ETIMEDOUT => "ETIMEDOUT",
            Errno::EINPROGRESS => "EINPROGRESS",
            Errno::ECANCELED => "ECANCELED",
        }
    }

    /// Numeric value as it would appear in C `errno`.
    #[inline]
    pub fn as_raw(&self) -> i32 {
        *self as i32
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name(), self.as_raw())
    }
}

impl std::error::Error for Errno {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_values_match_linux() {
        assert_eq!(Errno::ENOENT.as_raw(), 2);
        assert_eq!(Errno::EBADF.as_raw(), 9);
        assert_eq!(Errno::EAGAIN.as_raw(), 11);
        assert_eq!(Errno::EINPROGRESS.as_raw(), 115);
    }

    #[test]
    fn display_includes_name_and_value() {
        assert_eq!(Errno::EINVAL.to_string(), "EINVAL (22)");
    }
}
