//! Per-OS-thread runtime state and the deferred-action mechanism.
//!
//! ## The two race points of Table I
//!
//! The paper identifies two synchronization points in the couple/decouple
//! procedure: a context saved by one KC must not be loaded by another KC
//! until the save is complete (Seq. 3/4 and Seq. 8/9). The classic
//! user-level-threading solution — used here — is to *defer publication*:
//! the suspending context records what should happen to it (enqueue on the
//! run queue, hand to a KC, terminate) in a thread-local slot, switches
//! away, and the context that gains control on the same OS thread executes
//! the action *after* the switch has completed. Since `ulp_ctx_swap` only
//! transfers control after the full register file is on the suspended
//! stack, the action — and hence any other KC's ability to resume the
//! context — strictly follows the save.
//!
//! ## The emulated TLS register
//!
//! The thread block's `ulp` anchor doubles as the paper's TLS register
//! (§V-B): a per-KC pointer to the ULP whose context is installed, switched
//! on every UC↔UC transition and left alone on TC↔UC transitions.
//!
//! ## The thread block
//!
//! All per-thread state lives in one `Cell`-based `ThreadBlock` so a
//! context switch touches thread-local storage *once*: `Arc` anchors keep
//! the runtime / current ULP / host identity / stats shard alive, and raw
//! pointer mirrors beside them give the hot path borrow-free access with no
//! reference-count traffic. The cells also cache the switch-relevant
//! `Config` knobs (TLS-switch emulation, sigmask carrying) and the signal
//! mask currently installed on this kernel context, which makes the
//! ucontext-style mask carry lazy: the `sigprocmask` system call fires only
//! when the incoming UC's mask differs from the installed one.
//!
//! Safety contract for the raw mirrors: each pointer is written together
//! with its anchor and is non-null only while the anchor is `Some`;
//! borrows derived from them (via `ThreadBlock::rt` etc.) must stay
//! inside a single `with_thread` closure and must never be held across a
//! context switch — a UC may resume on a different OS thread, where this
//! thread's block would be the wrong one.

use crate::park::ParkQueue;
use crate::runtime::RuntimeInner;
use crate::stats::StatsShard;
use crate::trace::TraceShard;
use crate::uc::{BltId, KcShared, UcInner, UcKind};
use std::cell::Cell;
use std::ptr::{self, NonNull};
use std::sync::Arc;
use std::time::Duration;

/// An action to perform on behalf of a context *after* it has been fully
/// suspended.
pub enum Deferred {
    /// Make the UC schedulable: push it on the runtime's run queue
    /// (decouple Seq. 6–9, and the `Requeue` of a yield at home).
    Enqueue(Arc<UcInner>),
    /// A yield switched here with the run queue's lock held, the yielder
    /// already linked at its tail (`RunQueue::yield_to`): release the lock
    /// — the yielder's context is saved now — wake the scheduler the yield
    /// counted asleep, if any, and finish installing this thread's UC: its
    /// TLS load and signal-mask carry, which may not run under the lock.
    Release {
        /// The yield's critical section counted a sleeping scheduler.
        sleeper: bool,
    },
    /// Hand the UC to its original KC and wake it (couple Seq. 1–4).
    CoupleRequest(Arc<UcInner>),
    /// A decoupled UC switched here with a wait list's lock held, itself
    /// already linked on the list (`park.rs`, `WaitList`): release the lock
    /// — its context is saved now, so a setter may take it — and, on a
    /// scheduler, finish installing the scheduler's identity as
    /// [`Deferred::Release`] does.
    Unlock(NonNull<ParkQueue>),
    /// A secondary UC (sibling or pooled ULP) finished coupled on its KC:
    /// push its stack back on the pool's warm free list, uninstall it, drop
    /// a sibling's slot in the KC's `sibling_count`, and *then* publish its
    /// exit status — so a waiter that wakes on the status observes all of
    /// that and every hot-path counter bump already landed.
    Terminate {
        /// The terminated UC.
        uc: Arc<UcInner>,
        /// Exit status to publish on the UC's exit cell.
        status: i32,
    },
}

impl std::fmt::Debug for Deferred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Deferred::Enqueue(u) => write!(f, "Enqueue({})", u.id),
            Deferred::Release { sleeper } => write!(f, "Release(sleeper: {sleeper})"),
            Deferred::CoupleRequest(u) => write!(f, "CoupleRequest({})", u.id),
            Deferred::Unlock(_) => write!(f, "Unlock"),
            Deferred::Terminate { uc, status } => write!(f, "Terminate({}, {status})", uc.id),
        }
    }
}

/// The one-per-OS-thread state block (see the module docs for the layout
/// rationale and the safety contract on the pointer mirrors).
pub(crate) struct ThreadBlock {
    /// The runtime this OS thread belongs to (set on runtime threads and on
    /// the thread that created the runtime) + its borrow-free mirror.
    rt: Cell<Option<Arc<RuntimeInner>>>,
    rt_ptr: Cell<*const RuntimeInner>,
    /// The ULP whose context is currently installed — the emulated TLS
    /// register — + mirror.
    ulp: Cell<Option<Arc<UcInner>>>,
    ulp_ptr: Cell<*const UcInner>,
    /// On scheduler threads: the scheduler's own identity, i.e. where a
    /// hosted UC must switch back to when it relinquishes the KC; + mirror.
    host: Cell<Option<Arc<UcInner>>>,
    host_ptr: Cell<*const UcInner>,
    /// This kernel context's private stats shard + mirror.
    shard: Cell<Option<Arc<StatsShard>>>,
    shard_ptr: Cell<*const StatsShard>,
    /// This kernel context's private trace shard + mirror.
    trace: Cell<Option<Arc<TraceShard>>>,
    trace_ptr: Cell<*const TraceShard>,
    /// The pending deferred action, executed right after the next switch.
    deferred: Cell<Option<Deferred>>,
    /// Cached `Config::tls_switch` / `ArchProfile::tls_load` / parts of
    /// `Config::save_sigmask`, loaded once in [`set_runtime`] so the switch
    /// path never chases the runtime's config.
    tls_switch: Cell<bool>,
    tls_spin: Cell<Duration>,
    save_sigmask: Cell<bool>,
    /// Raw bits of the signal mask currently installed on this kernel
    /// context's bound process; `None` = unknown (forces the next carrying
    /// install to issue the system call).
    installed_mask: Cell<Option<u32>>,
}

impl ThreadBlock {
    /// This thread's runtime, borrow-free. The reference must not outlive
    /// the enclosing [`with_thread`] closure nor cross a context switch.
    #[inline]
    pub(crate) fn rt(&self) -> Option<&RuntimeInner> {
        let p = self.rt_ptr.get();
        if p.is_null() {
            None
        } else {
            // SAFETY: non-null mirrors always have a live anchor (module
            // docs), and the anchor cannot be cleared while `&self` borrows
            // from this thread's block.
            Some(unsafe { &*p })
        }
    }

    /// The emulated TLS register, borrow-free (same contract as `rt`).
    #[inline]
    pub(crate) fn ulp(&self) -> Option<&UcInner> {
        let p = self.ulp_ptr.get();
        if p.is_null() {
            None
        } else {
            // SAFETY: as in `rt`.
            Some(unsafe { &*p })
        }
    }

    /// This kernel context's stats shard, borrow-free (as `rt`).
    #[inline]
    pub(crate) fn shard(&self) -> Option<&StatsShard> {
        let p = self.shard_ptr.get();
        if p.is_null() {
            None
        } else {
            // SAFETY: as in `rt`.
            Some(unsafe { &*p })
        }
    }

    /// This kernel context's trace shard, borrow-free (as `rt`).
    #[inline]
    pub(crate) fn trace(&self) -> Option<&TraceShard> {
        let p = self.trace_ptr.get();
        if p.is_null() {
            None
        } else {
            // SAFETY: as in `rt`.
            Some(unsafe { &*p })
        }
    }

    /// Clone the runtime anchor (cold paths that need owned handles).
    #[inline]
    pub(crate) fn rt_arc(&self) -> Option<Arc<RuntimeInner>> {
        let rt = self.rt.take();
        let out = rt.clone();
        self.rt.set(rt);
        out
    }

    /// Clone the TLS-register anchor (cold paths that need owned handles).
    #[inline]
    pub(crate) fn ulp_arc(&self) -> Option<Arc<UcInner>> {
        let u = self.ulp.take();
        let out = u.clone();
        self.ulp.set(u);
        out
    }

    /// Clone the host-identity anchor. The couple path pays this one clone
    /// at the dispatch boundary (the host's reference is re-materialized
    /// when a hosted UC hands the KC back).
    #[inline]
    pub(crate) fn host_arc(&self) -> Option<Arc<UcInner>> {
        let h = self.host.take();
        let out = h.clone();
        self.host.set(h);
        out
    }

    /// Whether the decoupled UC installed on this thread is *at home*: on its
    /// own KC, which — unlike a scheduler — has no UC identity to switch back
    /// to. (A decoupled UC runs on a scheduler or at home, nowhere else.)
    #[inline]
    pub(crate) fn at_home(&self) -> bool {
        self.host_ptr.get().is_null()
    }

    /// Store the emulated TLS register, returning the displaced occupant.
    /// The yield path threads `Arc` ownership through here (incoming UC in,
    /// outgoing UC back out onto the run queue's tail) so a yield moves
    /// reference counts instead of touching them.
    #[inline]
    pub(crate) fn swap_ulp(&self, new: Option<Arc<UcInner>>) -> Option<Arc<UcInner>> {
        let p = new.as_ref().map_or(ptr::null(), Arc::as_ptr);
        self.ulp_ptr.set(p);
        self.ulp.replace(new)
    }

    #[inline]
    pub(crate) fn put_deferred(&self, d: Deferred) {
        #[cfg(debug_assertions)]
        {
            let prev = self.deferred.take();
            debug_assert!(prev.is_none(), "deferred action overwritten: {prev:?}");
        }
        self.deferred.set(Some(d));
    }

    #[inline]
    pub(crate) fn tls_switch(&self) -> bool {
        self.tls_switch.get()
    }

    #[inline]
    pub(crate) fn tls_spin(&self) -> Duration {
        self.tls_spin.get()
    }

    #[inline]
    pub(crate) fn save_sigmask(&self) -> bool {
        self.save_sigmask.get()
    }

    #[inline]
    pub(crate) fn installed_mask(&self) -> Option<u32> {
        self.installed_mask.get()
    }

    #[inline]
    pub(crate) fn set_installed_mask(&self, bits: Option<u32>) {
        self.installed_mask.set(bits);
    }
}

thread_local! {
    static BLOCK: ThreadBlock = const {
        ThreadBlock {
            rt: Cell::new(None),
            rt_ptr: Cell::new(ptr::null()),
            ulp: Cell::new(None),
            ulp_ptr: Cell::new(ptr::null()),
            host: Cell::new(None),
            host_ptr: Cell::new(ptr::null()),
            shard: Cell::new(None),
            shard_ptr: Cell::new(ptr::null()),
            trace: Cell::new(None),
            trace_ptr: Cell::new(ptr::null()),
            deferred: Cell::new(None),
            tls_switch: Cell::new(false),
            tls_spin: Cell::new(Duration::ZERO),
            save_sigmask: Cell::new(false),
            installed_mask: Cell::new(None),
        }
    };
}

thread_local! {
    /// The kernel context this OS thread *is*, set once when a KC thread
    /// starts. An identity token only — compared, never dereferenced — so
    /// it needs no anchor. Kept out of [`ThreadBlock`]: the system-call
    /// veneers read it, the switch path never does, and the block the
    /// switch path lives in keeps its layout.
    static THIS_KC: Cell<*const KcShared> = const { Cell::new(ptr::null()) };
}

/// Is this OS thread the kernel context `kc`? One thread-local load and a
/// pointer compare — the system-call veneers ask on every call.
#[inline]
pub(crate) fn is_kc(kc: &KcShared) -> bool {
    THIS_KC.with(|c| ptr::eq(c.get(), kc))
}

/// Run `f` with this thread's block — the hot path's single TLS access.
#[inline]
pub(crate) fn with_thread<R>(f: impl FnOnce(&ThreadBlock) -> R) -> R {
    BLOCK.with(f)
}

/// Install the runtime on this OS thread: anchors the runtime, caches the
/// switch-relevant config knobs, and registers this kernel context's
/// private stats shard with the runtime.
///
/// Idempotent per (thread, runtime): re-installing the runtime already on
/// this thread refreshes the cached config knobs but keeps the existing
/// stats/trace shards. Shards are per *kernel context*, not per ULP — the
/// seed-era 1-KC-per-BLT runtime made the two equivalent, but a pooled KC
/// hosting many ULPs must not grow the shard registries (and the snapshot
/// fold) with every spawn.
pub fn set_runtime(rt: Arc<RuntimeInner>) {
    BLOCK.with(|b| {
        b.tls_switch.set(rt.config.tls_switch);
        b.tls_spin.set(rt.config.profile.tls_load());
        b.save_sigmask.set(rt.config.save_sigmask);
        b.installed_mask.set(None);
        if b.rt_ptr.get() == Arc::as_ptr(&rt) && !b.shard_ptr.get().is_null() {
            return;
        }
        let shard = rt.stats.register_shard();
        b.shard_ptr.set(Arc::as_ptr(&shard));
        b.shard.set(Some(shard));
        let trace = rt.tracer.register_shard();
        b.trace_ptr.set(Arc::as_ptr(&trace));
        b.trace.set(Some(trace));
        b.rt_ptr.set(Arc::as_ptr(&rt));
        b.rt.set(Some(rt));
    });
}

/// Take `rt` off this thread if the thread anchors it without being one of
/// its kernel contexts — the thread that built it (`Runtime::from_parts`
/// installs the builder). Without this the builder keeps the whole runtime
/// alive past the last handle, until it exits or builds another runtime; a
/// runtime built later on the same thread has replaced the anchor and keeps
/// it.
pub(crate) fn release_runtime(rt: &Arc<RuntimeInner>) {
    let builder = BLOCK.with(|b| b.rt_ptr.get() == Arc::as_ptr(rt) && b.host_ptr.get().is_null());
    if builder {
        clear_thread_state();
    }
}

/// The runtime this OS thread belongs to.
pub fn current_runtime() -> Option<Arc<RuntimeInner>> {
    BLOCK.with(|b| {
        let rt = b.rt.take();
        let out = rt.clone();
        b.rt.set(rt);
        out
    })
}

/// Load the emulated TLS register.
pub fn current_ulp() -> Option<Arc<UcInner>> {
    BLOCK.with(|b| {
        let u = b.ulp.take();
        let out = u.clone();
        b.ulp.set(u);
        out
    })
}

/// The id of the ULP installed on this OS thread; `BltId(0)` on a thread
/// running none (a plain thread, an idle KC), as trace records name it.
pub(crate) fn current_id() -> BltId {
    with_thread(|b| b.ulp().map_or(BltId(0), |u| u.id))
}

/// Store the emulated TLS register (cost accounting is the switch code's
/// responsibility).
pub fn set_current_ulp(u: Option<Arc<UcInner>>) {
    BLOCK.with(|b| {
        b.swap_ulp(u);
    });
}

/// The scheduler identity hosting UCs on this thread, if any.
pub fn current_host() -> Option<Arc<UcInner>> {
    BLOCK.with(|b| {
        let h = b.host.take();
        let out = h.clone();
        b.host.set(h);
        out
    })
}

/// Mark this OS thread as a scheduler hosting UCs.
pub fn set_host(u: Option<Arc<UcInner>>) {
    BLOCK.with(|b| {
        let p = u.as_ref().map_or(ptr::null(), Arc::as_ptr);
        b.host_ptr.set(p);
        b.host.set(u);
    });
}

/// Declare this OS thread to be the kernel context `kc` (called once, as a
/// KC thread starts; cleared by [`clear_thread_state`] as it leaves).
pub(crate) fn set_kc(kc: &KcShared) {
    THIS_KC.with(|c| c.set(kc));
}

/// Record the action to run after the next context switch completes.
/// Panics (debug) if an action is already pending — that would mean a
/// context switched away without the successor draining the slot.
pub fn set_deferred(d: Deferred) {
    BLOCK.with(|b| b.put_deferred(d));
}

/// Execute the pending deferred action, if any. Called immediately after
/// every context switch lands, and at the top of every fresh context.
pub fn run_deferred() {
    BLOCK.with(|b| {
        let Some(action) = b.deferred.take() else {
            return;
        };
        match action {
            Deferred::Enqueue(uc) => {
                // Prefer this thread's runtime (borrow-free); off runtime
                // threads fall back to the UC's weak handle, dropping the
                // UC silently if the runtime is gone (shutdown path). The
                // push consumes the Arc — the yield path's only refcount
                // "operation" is this move.
                if let Some(rt) = b.rt() {
                    rt.runq.push(uc);
                } else if let Some(rt) = uc.rt.upgrade() {
                    rt.runq.push(uc);
                }
            }
            Deferred::Release { sleeper } => {
                let rt = b.rt().expect("a yield runs on a runtime thread");
                // SAFETY: the yield that left this action took the lock on
                // this thread and switched straight here.
                unsafe { rt.runq.release(sleeper) };
                crate::couple::finish_install(b);
            }
            Deferred::CoupleRequest(uc) => {
                crate::couple::note_couple_request(b, &uc);
                KcShared::request(uc);
            }
            Deferred::Unlock(list) => {
                // SAFETY: the waiter that left this action took the lock on
                // this thread, linked itself and switched straight here; no
                // setter can resume it — and let the list go — before this.
                unsafe { ParkQueue::release_held(list) };
                // A trampoline hosts nobody: a UC at home left as its
                // `yield_now()` does, TLS-exempt.
                if b.ulp().is_some() {
                    crate::couple::finish_install(b);
                }
            }
            Deferred::Terminate { uc, status } => {
                // The UC's context will never be resumed, and we run on its
                // KC's trampoline (a pool KC's native stack), never on its
                // own: recycle the stack — a warm push, the pool's scavenger
                // trims it later.
                if let Some(stack) = uc.sib_stack.lock().take() {
                    if let Some(rt) = b.rt() {
                        rt.stack_pool.release(stack);
                    } else if let Some(rt) = uc.rt.upgrade() {
                        rt.stack_pool.release(stack);
                    }
                }
                // The dead UC must not linger as this thread's installed
                // ULP: the KC idles on this thread next, and an idle futex
                // block would be traced as a syscall span of a terminated
                // BLT (left unclosed if the trace is captured mid-park).
                if b.ulp_ptr.get() == Arc::as_ptr(&uc) {
                    let _ = b.swap_ulp(None);
                }
                // A sibling's slot holds its primary's KC back from retiring.
                // The TC loop re-checks right after this, but wake anyway in
                // case the primary's exit condition now holds on a blocked KC.
                if uc.kind == UcKind::Sibling {
                    uc.kc
                        .sibling_count
                        .fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
                    uc.kc.parker.poke();
                }
                uc.exit.set(status, uc.id);
            }
        }
    });
}

/// Test/diagnostic helper: is a deferred action pending on this thread?
pub fn has_deferred() -> bool {
    BLOCK.with(|b| {
        let d = b.deferred.take();
        let pending = d.is_some();
        b.deferred.set(d);
        pending
    })
}

/// Clear all thread state (used when an OS thread leaves the runtime).
pub fn clear_thread_state() {
    BLOCK.with(|b| {
        debug_assert!(
            {
                let d = b.deferred.take();
                let pending = d.is_some();
                b.deferred.set(d);
                !pending
            },
            "leaving runtime with pending deferred"
        );
        b.deferred.set(None);
        b.rt_ptr.set(ptr::null());
        b.rt.set(None);
        b.ulp_ptr.set(ptr::null());
        b.ulp.set(None);
        b.host_ptr.set(ptr::null());
        b.host.set(None);
        b.shard_ptr.set(ptr::null());
        b.shard.set(None);
        b.trace_ptr.set(ptr::null());
        b.trace.set(None);
        THIS_KC.with(|c| c.set(ptr::null()));
        b.tls_switch.set(false);
        b.tls_spin.set(Duration::ZERO);
        b.save_sigmask.set(false);
        b.installed_mask.set(None);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_state_is_empty_by_default() {
        std::thread::spawn(|| {
            assert!(current_runtime().is_none());
            assert!(current_ulp().is_none());
            assert!(current_host().is_none());
            assert!(!has_deferred());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn run_deferred_without_action_is_noop() {
        std::thread::spawn(|| {
            run_deferred();
            assert!(!has_deferred());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn deferred_enqueue_survives_dead_runtime() {
        // A UC whose runtime is gone: the deferred enqueue must drop the
        // UC silently instead of crashing (shutdown path).
        std::thread::spawn(|| {
            let uc = crate::runqueue::tests::dummy_uc(42);
            set_deferred(Deferred::Enqueue(uc));
            assert!(has_deferred());
            run_deferred(); // rt.upgrade() fails -> dropped
            assert!(!has_deferred());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn clear_thread_state_resets_everything() {
        std::thread::spawn(|| {
            let uc = crate::runqueue::tests::dummy_uc(1);
            set_current_ulp(Some(uc));
            clear_thread_state();
            assert!(current_ulp().is_none());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn deferred_debug_formats() {
        let uc = crate::runqueue::tests::dummy_uc(3);
        let d = Deferred::Enqueue(uc.clone());
        assert!(format!("{d:?}").contains("Enqueue(blt:3)"));
        let d = Deferred::CoupleRequest(uc.clone());
        assert!(format!("{d:?}").contains("CoupleRequest"));
        let d = Deferred::Terminate { uc, status: 7 };
        assert!(format!("{d:?}").contains("Terminate(blt:3, 7)"));
        let d = Deferred::Release { sleeper: true };
        assert_eq!(format!("{d:?}"), "Release(sleeper: true)");
    }

    #[test]
    fn ulp_anchor_and_mirror_stay_in_sync() {
        std::thread::spawn(|| {
            let uc = crate::runqueue::tests::dummy_uc(7);
            set_current_ulp(Some(uc.clone()));
            with_thread(|b| {
                assert_eq!(b.ulp().map(|u| u.id), Some(uc.id));
            });
            // swap returns the displaced occupant without net refcounting
            let displaced = with_thread(|b| b.swap_ulp(None));
            assert_eq!(displaced.map(|u| u.id), Some(uc.id));
            assert!(current_ulp().is_none());
            with_thread(|b| assert!(b.ulp().is_none()));
        })
        .join()
        .unwrap();
    }
}
