//! # ulp-kernel
//!
//! A user-space **simulated OS kernel** providing the substrate the paper's
//! user-level processes run against: a process table with PIDs and
//! parent/child relations, per-process file-descriptor tables, a tmpfs-like
//! in-memory filesystem, blocking pipes, futexes and semaphores, POSIX-style
//! signals, and a glibc-faithful POSIX AIO implementation (the paper's
//! baseline in Figs. 7–8).
//!
//! ## The one design rule
//!
//! Every system call executes against the process **bound to the calling OS
//! thread** ([`Kernel::bind_current`]) — the simulated equivalent of the
//! kernel context (KC) owning kernel state in the real kernel. This is what
//! makes the paper's *system-call consistency* problem (§I, §V-B) observable
//! in this reproduction instead of merely asserted: a user context running
//! on the wrong kernel context sees the wrong PID and the wrong FD table.
//!
//! ## Architecture cost models
//!
//! [`ArchProfile`] injects the two architecture-specific costs the paper's
//! evaluation identifies (TLS-register load, syscall entry) so that both
//! evaluation machines — Wallaby (x86_64) and Albireo (AArch64) — can be
//! modeled on one host. `ArchProfile::Native` injects nothing.

#![warn(missing_docs)]

pub mod aio;
pub mod cost;
pub mod errno;
pub mod fault;
pub mod fd;
pub mod fs;
pub mod futex;
pub mod kernel;
pub mod pipe;
pub mod poll;
pub mod process;
pub mod signal;
pub mod socket;
mod stream;
pub mod syscall;
pub mod trace;
mod wait;

pub use aio::Aiocb;
pub use cost::{cycles, cycles_per_ns, cycles_to_ns, now_ns, spin_for, ArchProfile};
pub use errno::{Errno, KResult};
pub use fault::{FaultKind, FaultPlan, FAULT_KINDS};
pub use fd::{Fd, FdTable};
pub use fs::{
    DirEntry, FileLike, FileStat, FileSystem, IoModel, MountTable, OpenFlags, ProcFs, ProcSource,
    Tmpfs, Whence,
};
pub use futex::{futex_wait, futex_wait_timeout, futex_wake, Semaphore};
pub use kernel::{BindGuard, Kernel, KernelRef};
pub use pipe::{pipe, pipe_with_capacity, PipeReader, PipeWriter};
pub use poll::{EpollObject, EpollOp, PollEvents, PollWaker, WaitEnd, WatchSet};
pub use process::{Pid, ProcState, Process};
pub use signal::{Disposition, MaskHow, SigSet, Signal, SignalState};
pub use socket::{socketpair, socketpair_with_capacity, Listener, SocketEnd};
pub use trace::{KernelHooks, SyscallPhase, Sysno, WakeCell, WakeSite};
pub use wait::{wait_outcomes, WaitOutcomes, Waiters, SLEEPERS, SPINNER, SPIN_BREAK_EVEN_NS};
