//! Simulated processes: the per-KC kernel state ("kernel context" in the
//! paper's terminology — "A KC is the reference for accessing resources
//! maintained by an OS kernel", §I).

use crate::fd::FdTable;
use crate::signal::SignalState;
use crate::trace::WakeSite;
use crate::wait::WaitQueue;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Process identifier in the simulated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// Lifecycle state of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Alive (running or schedulable).
    Running,
    /// Exited with a status, not yet reaped by `waitpid`.
    Zombie(i32),
}

/// One simulated process: the kernel-side identity a ULP carries.
#[derive(Debug)]
pub struct Process {
    /// The process ID.
    pub pid: Pid,
    /// Parent PID (`None` for the root process).
    pub ppid: Option<Pid>,
    /// The parent itself, for the SIGCHLD an exit posts without a table
    /// lookup. Weak: a child never keeps its parent alive, and a parent
    /// that is gone has no one to tell.
    pub(crate) parent: Weak<Process>,
    /// Human-readable name (the "program" this ULP was spawned from).
    pub name: Mutex<String>,
    /// The per-process descriptor table (the §V-B consistency stakes).
    pub fds: Mutex<FdTable>,
    /// Current working directory.
    pub cwd: Mutex<String>,
    /// Pending/masked signals and dispositions.
    pub signals: SignalState,
    /// Completed system calls charged to this process (committed at syscall
    /// exit; surfaced in `/proc/<pid>/stat`).
    pub syscalls: AtomicU64,
    /// Set (under the process-table lock) when `waitpid` removes the process
    /// from the table. Threads still bound to the pid hold a cached handle
    /// and never look the table up again, so this flag is how their next
    /// system call learns the process is gone (`ESRCH`).
    pub(crate) reaped: AtomicBool,
    pub(crate) state: Mutex<ProcState>,
    /// The unreaped children. Its lock orders exits and reaps against the
    /// `waitpid` callers on `child_exit` (Linux's `signal->wait_chldexit`).
    pub(crate) children: Mutex<HashMap<Pid, Arc<Process>>>,
    pub(crate) child_exit: WaitQueue,
}

impl Process {
    pub(crate) fn new(pid: Pid, parent: Option<&Arc<Process>>, name: String) -> Process {
        Process {
            pid,
            ppid: parent.map(|p| p.pid),
            parent: parent.map_or_else(Weak::new, Arc::downgrade),
            name: Mutex::new(name),
            fds: Mutex::new(FdTable::new()),
            cwd: Mutex::new("/".to_string()),
            signals: SignalState::new(),
            syscalls: AtomicU64::new(0),
            reaped: AtomicBool::new(false),
            state: Mutex::new(ProcState::Running),
            children: Mutex::new(HashMap::new()),
            child_exit: WaitQueue::new(WakeSite::ChildExit),
        }
    }

    /// Completed system calls charged to this process.
    pub fn syscall_count(&self) -> u64 {
        self.syscalls.load(Ordering::Relaxed)
    }

    /// The process's lifecycle state.
    pub fn state(&self) -> ProcState {
        *self.state.lock()
    }

    /// Whether the process has exited but not been reaped.
    pub fn is_zombie(&self) -> bool {
        matches!(self.state(), ProcState::Zombie(_))
    }

    /// Snapshot of currently registered children, sorted by pid. The set
    /// representation keeps child registration and targeted reaping O(1)
    /// even for a root process with a million pooled children.
    pub fn children(&self) -> Vec<Pid> {
        let mut v: Vec<Pid> = self.children.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_process_defaults() {
        let init = Arc::new(Process::new(Pid(1), None, "init".into()));
        let p = Process::new(Pid(7), Some(&init), "prog".into());
        assert_eq!(p.pid, Pid(7));
        assert_eq!(p.ppid, Some(Pid(1)));
        assert!(Arc::ptr_eq(&p.parent.upgrade().unwrap(), &init));
        assert_eq!(p.state(), ProcState::Running);
        assert_eq!(*p.cwd.lock(), "/");
        assert_eq!(p.fds.lock().open_count(), 0);
        assert!(!p.is_zombie());
    }

    #[test]
    fn pid_display() {
        assert_eq!(Pid(42).to_string(), "pid:42");
    }
}
