//! # ulp-core — Bi-Level Threads and User-Level Processes
//!
//! A from-scratch Rust implementation of the execution model from
//! *"An Implementation of User-Level Processes using Address Space
//! Sharing"* (Hori, Gerofi, Ishikawa — IPDPS Workshops 2020):
//!
//! - **Bi-Level Threads (BLT)**: every spawned task starts as a
//!   kernel-level thread (an OS thread — its *original kernel context*),
//!   can [`decouple`] into a user-level thread scheduled cooperatively by
//!   scheduler kernel contexts, and can [`couple()`] back whenever it needs
//!   its own kernel identity.
//! - **User-Level Processes (ULP)**: each BLT carries a private
//!   simulated-kernel *process* (PID, FD table, signal state, cwd) and a
//!   private TLS region ([`UlpLocal`]), making it a process-like execution
//!   entity that is context-switched at user level in tens of nanoseconds.
//! - **System-call consistency**: system calls resolve kernel state through
//!   the *executing OS thread*, so a decoupled UC observes foreign kernel
//!   state. Enclosing system calls in [`coupled_scope`] (the paper's
//!   `couple()` … `decouple()` idiom) restores consistency; the runtime can
//!   record or trap violations ([`ConsistencyMode`]).
//!
//! ## Quickstart
//!
//! ```
//! use ulp_core::{Runtime, coupled_scope, decouple, sys};
//!
//! let rt = Runtime::builder().schedulers(1).build();
//! let blt = rt.spawn("worker", || {
//!     // Starts as a KLT: system calls are trivially consistent.
//!     let my_pid = sys::getpid().unwrap();
//!     // Become a ULT: cheap cooperative scheduling from here on.
//!     decouple().unwrap();
//!     // Blocking system calls go back to the original kernel context.
//!     let pid_again = coupled_scope(|| sys::getpid().unwrap()).unwrap();
//!     assert_eq!(my_pid, pid_again);
//!     0
//! });
//! assert_eq!(blt.wait(), 0);
//! ```
//!
//! ## Observability
//!
//! The runtime records its own behavior without external dependencies — see
//! `OBSERVABILITY.md` at the repository root for the end-to-end recipe:
//!
//! - **Tracing** ([`trace`]): per-KC lock-free shards record scheduling
//!   events *and* the simulated kernel's syscall enter/exit spans;
//!   [`chrome_trace_json`] renders the merged trace for Perfetto
//!   (`ULP_TRACE=<path>` dumps at shutdown).
//! - **Histograms** ([`hist`]): log2-bucketed latency distributions for
//!   scheduling edges ([`LatencySnapshot`]) and per-syscall enter→exit
//!   times ([`SyscallSnapshot`]).
//! - **Metrics** ([`prometheus_text`]): counters + histograms in Prometheus
//!   text exposition format; `ULP_METRICS_ADDR=host:port` (or
//!   `Runtime::serve_metrics`) serves it live over HTTP for scrapers.
//! - **Profiling** ([`profile`]): the trace folded into per-BLT wall-clock
//!   attribution across the Table-I states with per-syscall self time —
//!   collapsed-stack ("folded") text for flamegraph tooling plus a
//!   structured [`ProfileSnapshot`] (`ULP_PROFILE=<path>` dumps at
//!   shutdown; the metrics endpoint serves `/profile`, `/profile.json`
//!   and a non-destructive mid-run `/trace`).

#![warn(missing_docs)]

pub mod chaos;
pub mod couple;
pub mod current;
pub mod error;
pub mod export;
pub mod hist;
pub mod kc;
mod metrics_server;
mod park;
mod proc;
pub mod profile;
mod replay;
pub mod runqueue;
pub mod runtime;
pub mod signals;
pub mod spawn;
pub mod stats;
pub mod sync;
pub mod sys;
pub mod tls;
pub mod trace;
pub mod uc;

pub use chaos::ChaosPlan;
pub use couple::{couple, coupled_scope, decouple, is_coupled, pending_couplers, stall, yield_now};
pub use error::UlpError;
pub use export::{chrome_trace_json, prometheus_text, PoolMetrics};
pub use hist::{HistData, HistSummary, LatencySnapshot, SyscallSnapshot, WakeSnapshot};
pub use profile::{
    diff_folded, fold_profile, fold_profile_window, parse_collapsed, BltProfile, ProfileSnapshot,
    ProfileState,
};
pub use runtime::{Config, ConsistencyMode, Runtime, RuntimeBuilder, Topology};
pub use signals::{clear_handler, handled_count, on_signal, poll_signals};
pub use spawn::{BltHandle, PooledHandle, SiblingHandle, UlpHandle, PANIC_EXIT_STATUS};
pub use stats::{Stats, StatsSnapshot};
pub use sync::{
    FutexLock, McsLock, RawUlpLock, TasLock, TicketLock, UlpBarrier, UlpEvent, UlpLock,
    UlpLockGuard, UlpMutex, UlpMutexGuard,
};
pub use tls::{errno, set_errno, UlpLocal};
pub use trace::{Event as TraceEvent, TraceRecord, Tracer};
pub use uc::{BltId, IdlePolicy, UcKind, UcState};

// Re-export the substrate types users interact with through the veneers.
pub use ulp_fcontext;
pub use ulp_kernel;
// Syscall identity/phase types appearing in trace events and snapshots.
pub use ulp_kernel::{SyscallPhase, Sysno};
// Wake-edge site identity appearing in `Wake` trace events and snapshots.
pub use ulp_kernel::WakeSite;
// Readiness-layer types used by the `sys::poll`/`sys::epoll_*` veneers.
pub use ulp_kernel::{EpollOp, Listener, PollEvents};

/// Identity of the calling ULP: (runtime-local id, simulated PID, kind),
/// or `None` on a thread that is not running a ULP.
pub fn self_info() -> Option<(BltId, ulp_kernel::Pid, UcKind)> {
    current::current_ulp().map(|u| (u.id, u.pid, u.kind))
}

/// The calling ULP's runtime-local id.
pub fn self_id() -> Option<BltId> {
    current::current_ulp().map(|u| u.id)
}

/// A primary and one sibling on `rt`, each running `scopes`
/// `coupled_scope(getpid)`s: their KC keeps neither at home, so every scope
/// and every stretch is a hand-over. Shared by this crate's tests and
/// `perf_smoke`; not part of the API.
#[doc(hidden)]
pub fn sibling_orbit(rt: &Runtime, scopes: usize) {
    let orbit = move || {
        for _ in 0..scopes {
            coupled_scope(|| sys::getpid().unwrap()).unwrap();
        }
        0
    };
    let primary = rt.spawn("orbit-primary", move || {
        decouple().unwrap();
        orbit()
    });
    let sibling = primary
        .spawn_sibling("orbit-sibling", orbit)
        .expect("a live primary takes a sibling");
    assert_eq!(sibling.wait(), 0);
    assert_eq!(primary.wait(), 0);
}
