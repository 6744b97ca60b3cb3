//! PiP tasks and the context their programs run with.

use crate::namespace::Namespace;
use crate::root::RootShared;
use std::sync::Arc;
use std::time::Duration;
use ulp_core::{BltHandle, BltId};
use ulp_kernel::process::Pid;

/// The context a [`crate::Program`] entry receives: its rank, its link
/// namespace, and the root's shared services.
pub struct TaskCtx {
    pub(crate) rank: usize,
    pub(crate) namespace: Arc<Namespace>,
    pub(crate) shared: Arc<RootShared>,
}

impl TaskCtx {
    /// This task's rank (PiP task number / MPI-rank analogue).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total tasks spawned so far (PiP's `pip_get_ntasks` analogue at
    /// spawn-completion time).
    pub fn ntasks(&self) -> usize {
        self.shared.ntasks()
    }

    /// This task's link namespace (simulated `dlmopen` handle).
    pub fn namespace(&self) -> &Arc<Namespace> {
        &self.namespace
    }

    /// The root-wide shared heap.
    pub fn heap(&self) -> &Arc<crate::heap::SharedHeap> {
        &self.shared.heap
    }

    /// Publish an object under a name (`pip_named_export`).
    pub fn export<T: std::any::Any + Send + Sync>(&self, name: &str, value: Arc<T>) {
        self.shared.exports.export(name, value);
    }

    /// Import a peer's published object (`pip_named_import`), waiting
    /// cooperatively for the exporter if needed.
    pub fn import<T: std::any::Any + Send + Sync>(&self, name: &str) -> Option<Arc<T>> {
        self.shared
            .exports
            .import_wait(name, Duration::from_secs(10))
    }

    /// A named barrier across `parties` tasks (created on first use; all
    /// users must agree on the party count).
    pub fn barrier(&self, name: &str, parties: usize) -> Arc<crate::barrier::PipBarrier> {
        self.shared.barrier(name, parties)
    }
}

/// Handle to a spawned PiP task — the root's side of `pip_wait`.
#[derive(Debug)]
pub struct PipTask {
    pub(crate) handle: BltHandle,
    pub(crate) rank: usize,
    pub(crate) program: String,
}

impl PipTask {
    /// The task's PiP rank (spawn order under this root).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Name of the program the task was spawned from.
    pub fn program(&self) -> &str {
        &self.program
    }

    /// The task's BLT id.
    pub fn id(&self) -> BltId {
        self.handle.id()
    }

    /// The task's kernel PID (distinct per task in process mode, the
    /// root's PID in thread mode).
    pub fn pid(&self) -> Pid {
        self.handle.pid()
    }

    /// Wait for the task to terminate (PiP's `pip_wait`, backed by the
    /// BLT termination rule: tasks always terminate as KLTs on their
    /// original KC, whose last act publishes the status this joins on the
    /// exit cell every UC has, and a process-mode task's pid is reaped).
    /// A decoupled caller leaves the run queue meanwhile; a second call
    /// returns the same status.
    pub fn wait(&self) -> i32 {
        self.handle.wait()
    }

    /// Whether the task is done with user code (non-blocking `wait` probe):
    /// its body has returned and no sibling UC of it is live, so
    /// [`PipTask::wait`] waits on no user code. Its KC retires at that
    /// `wait` ([`BltHandle::is_finished`]).
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// Access the underlying BLT handle (e.g. to spawn sibling UCs).
    pub fn blt(&self) -> &BltHandle {
        &self.handle
    }
}
