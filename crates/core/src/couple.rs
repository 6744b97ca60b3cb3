//! `couple()` / `decouple()` / `yield_now()` — the paper's contribution.
//!
//! State model (paper §II, Fig. 3): a BLT is a KLT while its UC runs on its
//! original KC ("coupled") and a ULT while its UC is scheduled by some other
//! KC ("decoupled"). The full procedure, including both synchronization
//! points, is the paper's Table I; the mapping here is:
//!
//! | Table I step | This module | At home (KC₁ = KC₀) |
//! |---|---|---|
//! | Seq.1–2 `enqueue(UC₀,KC₀)`, `unblock(KC₀)` | `Deferred::CoupleRequest` executed by the host scheduler *after* the UC is saved (race point 1 resolved) | [`couple`] publishes its own request |
//! | Seq.3–4 `swap_ctx(UC₀,UCᵢ)` / `swap_ctx(TC₀,UC₀)` | [`couple`]'s switch to the host + the TC idle loop's dispatch | no switch: [`couple`] sets the flag |
//! | Seq.5 `system_call()` | user code, now on the original KC | the same |
//! | Seq.6–7 `enqueue(UC₀,KC₁)`, `swap_ctx(UC₀,TC₀)` | [`decouple`]'s switch to the TC with `Deferred::Enqueue` (race point 2 resolved) | no switch: [`decouple`] clears the flag |
//! | Seq.8–9 `dequeue()` / `swap_ctx(UCᵢ,UC₀)` | the scheduler loop / direct `yield` switch | [`decouple`] counts its own dispatch |
//!
//! Away, a round trip is Table V's 4 switches and 2 TLS loads; at home, none.
//!
//! Table I never says KC₁ ≠ KC₀. A [`decouple`] whose last decoupled stretch
//! was shorter than the two hand-overs leaving costs — out to a scheduler,
//! and back through its own [`couple`] — *stays home* instead (`park.rs`,
//! "Staying home", has the decision; whether a scheduler happens to be awake
//! is not part of it). At home the UC is its KC's KLT in all but its flag, so
//! staying is a state, not a trip: Seq. 6–9 collapse into [`decouple`]
//! clearing the flag and counting the dispatch on its own stack, and Seq. 1–4
//! into [`couple`] setting it again — unless a sibling's request is already
//! queued on the KC, which is then served first, through the trampoline, so
//! the queue stays FIFO. No switch, no TLS load and no wake-up: no other
//! context is involved, and the UC is published to nobody. At home
//! [`yield_now`] is the kernel's yield while the stretch is young; past that
//! it hands the KC back to rejoin the pool.
//!
//! ## Hot-path structure
//!
//! Every transition does all of its bookkeeping — deferred-action slot,
//! sharded stats, tracer, TLS-cost emulation, lazy sigmask carry, TLS
//! register swap — inside a *single* `with_thread` access that returns the
//! `(save, target)` context pair, and only then performs the actual
//! `ulp_fcontext::swap` *outside* the closure: a UC may resume on a
//! different OS thread, so no thread-block borrow may be live across the
//! swap. The context that lands runs [`run_deferred`] (its own single
//! access). `Arc` ownership moves instead of being counted: the run queue's
//! popped `Arc` moves into the TLS register and the displaced yielder moves
//! straight to the queue's tail, in the one critical section that popped —
//! a yield performs no refcount operation at all, and takes the run queue's
//! lock once. That section stays open across the swap (the yielder's
//! context is not saved yet) and the landing context's `Deferred::Release`
//! closes it, then pays the install's TLS load and mask carry.

use crate::current::{run_deferred, with_thread, Deferred, ThreadBlock};
use crate::error::UlpError;
use crate::park::ParkQueueGuard;
use crate::uc::{UcInner, UcKind};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use ulp_fcontext::RawContext;

/// One reload of the emulated TLS register at the profiled cost (§V-B),
/// counted.
#[inline]
fn charge_tls_load(b: &ThreadBlock) {
    if b.tls_switch() {
        ulp_kernel::cost::spin_for(b.tls_spin());
        if let Some(s) = b.shard() {
            s.bump_tls_loads();
        }
    }
}

/// Install `uc` as the current ULP at the profiled UC↔UC cost: reload the
/// emulated TLS register (§V-B) and lazily carry the signal mask. Returns
/// the displaced occupant of the TLS register so callers can thread its
/// ownership into a deferred action.
#[inline]
pub(crate) fn install_on(b: &ThreadBlock, uc: Arc<UcInner>) -> Option<Arc<UcInner>> {
    let displaced = b.swap_ulp(Some(uc));
    finish_install(b);
    displaced
}

/// The rest of a UC↔UC install once the TLS anchor holds the incoming UC:
/// reload the emulated TLS register at the profiled cost and lazily carry the
/// signal mask. A yield runs it on the incoming side, after the run-queue
/// lock is released: one spins, the other may enter the kernel.
#[inline]
pub(crate) fn finish_install(b: &ThreadBlock) {
    charge_tls_load(b);
    if b.save_sigmask() {
        let bits = b.ulp().expect("a UC is installed").sigmask.bits();
        // ucontext-style mask carry (§VII), made lazy: the system call —
        // the "non-negligible overhead" the paper warns about — fires only
        // when the incoming UC's mask differs from the one this kernel
        // context last installed.
        if b.installed_mask() != Some(bits) {
            if let Some(rt) = b.rt() {
                let _ = rt.kernel.sys_sigprocmask(
                    ulp_kernel::MaskHow::SetMask,
                    ulp_kernel::SigSet::from_bits(bits),
                );
                b.set_installed_mask(Some(bits));
            }
        }
    }
}

/// A scheduler KC dispatches the decoupled `uc` (Table I Seq. 8–9, KC₁
/// column): count it, close its enqueue→dispatch span on the trace, and load
/// its TLS register at the UC↔UC cost. `host` names the dispatching KC.
/// Returns the context to switch to.
pub(crate) fn host_dispatch(
    b: &ThreadBlock,
    uc: Arc<UcInner>,
    host: crate::uc::BltId,
) -> RawContext {
    if let Some(s) = b.shard() {
        s.bump_dispatches();
    }
    // A primary's own run as a ULT starts here, whatever it waited for
    // before: the evidence for staying home next time (`park.rs`), which
    // only a primary ever does. (A `decouple()` that stays does the same.)
    let timed = uc.kind == UcKind::Primary;
    let tracing = b.trace().filter(|t| t.is_on());
    if timed || tracing.is_some() {
        let now = crate::trace::now_ns();
        if timed {
            uc.phases.hosted(now);
        }
        if let Some(t) = tracing {
            t.note_dispatch(now, &uc, host);
        }
    }
    let target = unsafe { *uc.ctx.get() };
    // The queue's Arc moves into the TLS register; the displaced occupant —
    // the scheduler's identity clone, re-materialized when the UC couples
    // away — is dropped here: the dispatch boundary is where the switch
    // path's Arc traffic lives.
    let _displaced = install_on(b, uc);
    target
}

/// The context-switch primitive used by the scheduler/TC call sites:
/// optionally record a deferred action, count the switch, swap, and drain
/// whatever action the context that later resumes us left behind.
/// (`couple`/`decouple`/`yield_now` inline this structure themselves so
/// their whole prep shares one thread-block access.)
///
/// # Safety
/// `save` must point to the running context's save slot; `target` must be a
/// validly suspended context that no other thread can resume concurrently.
pub(crate) unsafe fn raw_switch(
    save: *mut RawContext,
    target: RawContext,
    deferred: Option<Deferred>,
) {
    with_thread(|b| {
        if let Some(d) = deferred {
            b.put_deferred(d);
        }
        if let Some(s) = b.shard() {
            s.bump_context_switches();
        }
    });
    ulp_fcontext::swap(&mut *save, target, 0);
    run_deferred();
}

/// Install `uc` without charging the TLS cost (TC↔UC switches are exempt).
pub(crate) fn install_ulp_no_charge(uc: Arc<UcInner>) {
    with_thread(|b| {
        let _displaced = b.swap_ulp(Some(uc));
    });
}

/// What a transition's prep phase decided (computed under a single
/// thread-block access; the swap itself happens after the access ends).
enum Prep {
    /// Nothing user-level to do; the OS scheduler may be yielded to.
    OsYield,
    /// No runnable UC / no transition necessary.
    NoSwitch,
    /// [`couple`] / [`decouple`] only: the transition completed on this
    /// thread without a switch (a UC at home). A variant of its own, not a
    /// payload on `NoSwitch`, which reshaped the enum and cost the yield path
    /// that matches on it 2–7 % on `yield_ring`.
    Stayed,
    /// Perform `swap(save, target)`.
    Switch {
        save: *mut RawContext,
        target: RawContext,
    },
}

/// Detach the calling UC from its original kernel context and enter the
/// scheduled pool: the BLT becomes a ULT (paper rule 3).
///
/// Returns `Ok(true)` if a transition happened, `Ok(false)` if the UC was
/// already decoupled.
pub fn decouple() -> Result<bool, UlpError> {
    crate::chaos::preempt_point(crate::chaos::ChaosSite::Decouple);
    let prep = with_thread(|b| -> Result<Prep, UlpError> {
        if b.rt().is_none() {
            return Err(UlpError::NoRuntime);
        }
        let Some(me) = b.ulp() else {
            return Err(UlpError::NotAUlp);
        };
        if me.kind == UcKind::Scheduler {
            return Err(UlpError::SchedulerCannotDecouple);
        }
        if !me.is_coupled() {
            return Ok(Prep::NoSwitch);
        }
        debug_assert!(
            me.kc.is_current_thread(),
            "coupled UC executing off its original KC"
        );
        if !me.kc.tc_started.load(std::sync::atomic::Ordering::Acquire) {
            // Cold path, once per KC: materialize the trampoline. Needs
            // owned handles, so it pays two clones — never again after.
            let me_arc = b.ulp_arc().expect("checked above");
            let rt_arc = b.rt_arc().expect("checked above");
            crate::kc::ensure_tc(&me_arc, &rt_arc)?;
        }
        if let Some(s) = b.shard() {
            s.bump_decouples();
        }
        if let Some(t) = b.trace() {
            t.record(crate::trace::Event::Decouple(me.id));
        }
        me.coupled
            .store(false, std::sync::atomic::Ordering::Release);
        let save = me.ctx.get();
        // The decoupled stretch begins (`park.rs`, "Staying home").
        let now = crate::trace::now_ns();
        let rt = b.rt().expect("checked above");
        let policy = rt.config.idle_policy;
        // Direct-handoff fast path: a couple requester already waits in
        // this KC's pending queue, so switch straight into it instead of
        // detouring through the trampoline — the requester resumes on its
        // original KC in one switch, and the enqueue→pop→futex-wake round
        // trip of the slow path never happens. Popping under the pending
        // lock IS the claim: the TC idle loop (the only other dispatcher
        // of this queue) runs exclusively on this same OS thread, which is
        // busy executing us — so handoff and idle loop can never pop the
        // same waiter. The waiter's context is fully saved: its
        // CoupleRequest was published by the host scheduler only after the
        // requester's registers landed (Table I race point 1). With nobody
        // waiting the probe is one load of the queue's length.
        if let Some(waiter) = me.kc.pending.pop(false) {
            me.phases.decoupling(now, policy);
            if let Some(s) = b.shard() {
                s.bump_couple_handoffs();
                s.bump_context_switches();
            }
            if let Some(t) = b.trace() {
                t.record(crate::trace::Event::CoupleHandoff {
                    from: me.id,
                    to: waiter.id,
                });
                if t.is_on() {
                    // Refine the waiter's wake attribution: the generic
                    // couple-resume stamped at request publication becomes a
                    // direct handoff from us, the decoupling UC. The waiter
                    // consumes this when it records `Coupled`.
                    waiter.wake_from.store(
                        crate::uc::encode_wake_from(me.id, ulp_kernel::WakeSite::CoupleHandoff),
                        std::sync::atomic::Ordering::Relaxed,
                    );
                    // The request also armed this KC's notify cell for a
                    // park that never happened (we served the waiter while
                    // running); discard it so a later unrelated park exit
                    // cannot claim it.
                    let _ = me.kc.wake.take();
                }
            }
            let target = unsafe { *waiter.ctx.get() };
            // On a *pool* KC the waiter may carry a different kernel
            // identity than we do (pooled UCs share the KC but own their
            // pids); rebind so its system calls hit the right process.
            // Siblings share our pid, so established BLT workloads never
            // pay this branch. Handoffs bypass the pool idle loop, which
            // is why the loop rebinds unconditionally on its next serve.
            if !Arc::ptr_eq(&waiter.proc, &me.proc) {
                rt.kernel.bind_process(&waiter.proc);
            }
            // KC-local install: the waiter lands on its own original KC,
            // so like the TC→UC dispatch this is exempt from the TLS
            // charge (§V-B) and carries no sigmask.
            let me_owned = b.swap_ulp(Some(waiter)).expect("me is installed");
            b.put_deferred(Deferred::Enqueue(me_owned));
            return Ok(Prep::Switch { save, target });
        }
        // Stay home (module docs) iff the UC's own evidence says so — the
        // policy is `Adaptive` and the last decoupled stretch came straight
        // back — and this KC serves nobody else (a sibling's couple request
        // needs it idle). Whether a scheduler is awake is not asked: leaving
        // buys nothing for a stretch shorter than the two hand-overs it
        // costs. A heuristic on racy reads: either answer is always correct.
        let siblings = &me.kc.sibling_count;
        let stay = me.phases.decoupling(now, policy)
            && me.kind == UcKind::Primary
            && siblings.load(std::sync::atomic::Ordering::Relaxed) == 0;
        if stay {
            // Seq. 6–9 with KC₁ = KC₀, on our own stack: the KC hosts us by
            // running us, so its dispatch is counted and traced here, at the
            // `now` the stretch began — a zero queue delay, which is the
            // `Phases::queued` that `decoupling` left. Race point 2 has
            // nothing to order: nobody else can load our context.
            if let Some(s) = b.shard() {
                s.bump_decouple_homes();
                s.bump_dispatches();
            }
            if let Some(t) = b.trace().filter(|t| t.is_on()) {
                me.stamp_enqueued(now);
                t.note_dispatch(now, me, me.id);
            }
            return Ok(Prep::Stayed);
        }
        if let Some(s) = b.shard() {
            s.bump_context_switches();
        }
        let target = unsafe { *me.kc.tc_ctx.get() };
        // Vacate the TLS register and move our own reference into the
        // deferred enqueue: it runs on the TC only after our registers are
        // saved — Table I race point 2.
        let me_owned = b.swap_ulp(None).expect("me is installed");
        b.put_deferred(Deferred::Enqueue(me_owned));
        Ok(Prep::Switch { save, target })
    })?;
    let stayed = matches!(prep, Prep::Stayed);
    let Prep::Switch { save, target } = prep else {
        return Ok(stayed);
    };
    unsafe {
        ulp_fcontext::swap(&mut *save, target, 0);
    }
    // We are back: some scheduler KC picked us up. We now run as a ULT.
    run_deferred();
    Ok(true)
}

/// Re-attach the calling UC to its original kernel context: the ULT becomes
/// a KLT again (paper rule 4), after which system calls execute against the
/// right kernel state.
///
/// Returns `Ok(true)` if a transition happened, `Ok(false)` if the UC was
/// already coupled.
pub fn couple() -> Result<bool, UlpError> {
    crate::chaos::preempt_point(crate::chaos::ChaosSite::Couple);
    let prep = with_thread(|b| -> Result<Prep, UlpError> {
        if b.rt().is_none() {
            return Err(UlpError::NoRuntime);
        }
        let Some(me) = b.ulp() else {
            return Err(UlpError::NotAUlp);
        };
        if me.is_coupled() {
            return Ok(Prep::NoSwitch);
        }
        // Running as a ULT: by construction we are hosted — on a scheduler
        // KC, or at home on our own.
        let at_home = b.at_home();
        if at_home && !me.kc.is_current_thread() {
            return Err(UlpError::NotAUlp);
        }
        if let Some(s) = b.shard() {
            s.bump_couples();
        }
        if at_home && me.kc.pending.len() == 0 {
            // Seq. 1–4 with KC₁ = KC₀ and nobody queued ahead of us: the
            // request is published and served on the spot, by us.
            note_couple_request(b, me);
            now_coupled(b, me);
            return Ok(Prep::Stayed);
        }
        if let Some(s) = b.shard() {
            s.bump_context_switches();
        }
        let save = me.ctx.get();
        // Switching back into the host's context is a UC↔UC switch: the
        // host's TLS register is reloaded at cost — also at home, where a
        // request queued ahead of ours sends us through the trampoline (the
        // TC↔UC exemption is for a KC resuming its own coupled UC). Our own
        // reference is displaced out of the register and moves into the
        // couple request — the host publishes us to our original KC only
        // after our registers are saved (race point 1), behind that request.
        let (target, me_owned) = if at_home {
            charge_tls_load(b);
            (unsafe { *me.kc.tc_ctx.get() }, b.swap_ulp(None))
        } else {
            let host = b.host_arc().expect("a UC away from home is hosted");
            (unsafe { *host.ctx.get() }, install_on(b, host))
        };
        b.put_deferred(Deferred::CoupleRequest(me_owned.expect("me is installed")));
        Ok(Prep::Switch { save, target })
    })?;
    match prep {
        Prep::Switch { save, target } => {
            unsafe {
                ulp_fcontext::swap(&mut *save, target, 0);
            }
            // We are back, resumed by our original KC's trampoline (or a
            // handoff): we are a KLT.
            run_deferred();
            with_thread(|b| now_coupled(b, b.ulp().expect("reinstalled by the KC")));
        }
        Prep::Stayed => {}
        _ => return Ok(false),
    }
    // Safe point: deliverable signals of our own process run now that we
    // are back on the kernel context that owns them.
    crate::signals::safe_point();
    Ok(true)
}

/// `uc`'s couple request is published on its original KC (Table I Seq.
/// 1–2): by its host once `uc` is saved, or by `uc` itself at home. Its
/// decoupled stretch ends here (`park.rs`, "Staying home"), and the trace
/// opens the request→resume span that [`now_coupled`] closes.
pub(crate) fn note_couple_request(b: &ThreadBlock, uc: &UcInner) {
    let now = crate::trace::now_ns();
    uc.phases.publishing(now);
    if let Some(t) = b.trace() {
        if t.is_on() {
            t.record_at(now, crate::trace::Event::CoupleRequest(uc.id));
            // The wake attribution defaults to a plain couple resume — the
            // direct-handoff fast path refines it, and the resumer consumes
            // it at the `Coupled` record.
            uc.wait_since
                .store(now, std::sync::atomic::Ordering::Relaxed);
            uc.wake_from.store(
                crate::uc::encode_wake_from(uc.id, ulp_kernel::WakeSite::CoupleResume),
                std::sync::atomic::Ordering::Relaxed,
            );
            // If the original KC is parked, the push is what unblocks it:
            // arm its wake cell so the trampoline can attribute the
            // KC-blocked exit to this request. On the KC's own thread
            // nothing is parked.
            if !b.at_home() {
                uc.kc.wake.stamp_as(uc.id.0, now);
            }
        }
    } else if let Some(rt) = uc.rt.upgrade() {
        rt.tracer.record(crate::trace::Event::CoupleRequest(uc.id));
    }
}

/// The calling UC runs on its original KC again (Table I Seq. 4): mark it
/// coupled, and close on the trace the span [`note_couple_request`] opened,
/// emitting the wake edge that ended it first so the causal order survives
/// the stable sort.
fn now_coupled(b: &ThreadBlock, me: &UcInner) {
    debug_assert!(me.kc.is_current_thread());
    me.coupled.store(true, std::sync::atomic::Ordering::Release);
    if let Some(t) = b.trace() {
        if t.is_on() {
            let now = crate::trace::now_ns();
            let since = me.wait_since.swap(0, std::sync::atomic::Ordering::Relaxed);
            let wake = me.wake_from.swap(0, std::sync::atomic::Ordering::Relaxed);
            if let Some((waker, site)) = crate::uc::decode_wake_from(wake) {
                t.emit_wake(now, waker.0, me.id.0, site, since);
            }
            t.record_at(now, crate::trace::Event::Coupled(me.id));
            if since != 0 {
                t.hist_couple_resume.record(now.saturating_sub(since));
            }
        }
    }
}

/// A decoupled UC's wait on a [`WaitList`](crate::park::WaitList) whose lock
/// `q` holds and whose condition the caller found false under it: link the
/// UC on the list and switch to its host as [`couple`] does — a scheduler,
/// or at home the trampoline. The lock stays held across the switch, so no
/// setter can take the UC before its registers are saved, and the host's
/// `Deferred::Unlock` releases it. Returns once a setter's run-queue push
/// has had the UC dispatched again: one context switch to leave and the
/// dispatch's to come back, no yield. The trace shows a `Wait`, which that
/// dispatch answers.
pub(crate) fn leave_onto(mut q: ParkQueueGuard<'_>) {
    let (save, target) = with_thread(|b| {
        let me = b.ulp().expect("a decoupled UC is installed");
        if let Some(s) = b.shard() {
            s.bump_context_switches();
        }
        if let Some(t) = b.trace() {
            t.record(crate::trace::Event::Wait(me.id));
        }
        let save = me.ctx.get();
        // The host's TLS load and mask carry wait for the release.
        let (target, me_owned) = if b.at_home() {
            (unsafe { *me.kc.tc_ctx.get() }, b.swap_ulp(None))
        } else {
            let host = b.host_arc().expect("a UC away from home is hosted");
            (unsafe { *host.ctx.get() }, b.swap_ulp(Some(host)))
        };
        q.push_back(me_owned.expect("me is installed"));
        b.put_deferred(Deferred::Unlock(q.hold()));
        (save, target)
    });
    unsafe {
        ulp_fcontext::swap(&mut *save, target, 0);
    }
    run_deferred();
}

/// Cooperatively yield to the next runnable UC, if any (direct UC→UC
/// switch, the paper's `swap_ctx(UC₀, UCᵢ)`). Returns `true` if a switch
/// happened.
///
/// A `false` comes in two kinds. A coupled BLT, a scheduler or a plain thread
/// delegates to the OS scheduler — a KLT's yield is the kernel's business —
/// and this call **has already** yielded to it. So has a UC hosted *at home*
/// by its own KC's trampoline while that KC has nobody else to serve (no
/// sibling, no pending couple request) and the decoupled stretch is younger
/// than the hand-over leaving would cost (`park.rs`, "Staying home"). Only a
/// decoupled UC on a scheduler that finds the run queue empty returns `false`
/// without having yielded anything; waiters call [`stall`].
///
/// A UC at home whose stretch has outlived that break-even, or whose KC a
/// sibling is waiting for, hands the KC back, moves to a scheduler (a
/// `Requeue` on the trace) and returns `true`: whatever waits on `yield_now()`
/// for longer than a wake costs rejoins the scheduled pool.
pub fn yield_now() -> bool {
    yield_or(false)
}

/// One cooperative back-off step for a waiter: switch to a runnable UC, else
/// yield to the OS scheduler — exactly once, whichever [`yield_now`]'s `false`.
pub fn stall() {
    yield_or(true);
}

/// [`yield_now`]; `os_fallback`: with nothing to switch to, yield to the OS.
#[inline(always)]
fn yield_or(os_fallback: bool) -> bool {
    let prep = with_thread(|b| {
        let Some(rt) = b.rt() else {
            return Prep::OsYield;
        };
        let Some(me) = b.ulp() else {
            return Prep::OsYield;
        };
        if me.kind == UcKind::Scheduler || me.is_coupled() {
            // A KLT's yield is the kernel's business (Table IV's
            // sched_yield rows); nothing user-level to do.
            return Prep::OsYield;
        }
        if b.at_home() {
            // No other user-level context may run on this KC. While it has
            // nobody else to serve and the stretch is young we are its KLT in
            // all but name, and the yield is the kernel's (DESIGN.md §4).
            if me
                .kc
                .sibling_count
                .load(std::sync::atomic::Ordering::Relaxed)
                == 0
                && me.kc.pending.len() == 0
                && me.phases.home_stretch_is_young(crate::trace::now_ns())
            {
                if let Some(s) = b.shard() {
                    s.bump_yield_homes();
                }
                return Prep::OsYield;
            }
            // Otherwise give the KC up and rejoin the scheduled pool through
            // the trampoline: `decouple()`'s Seq. 6–7 once more, TLS-exempt.
            if let Some(s) = b.shard() {
                s.bump_context_switches();
            }
            if let Some(t) = b.trace() {
                t.record(crate::trace::Event::Requeue(me.id));
            }
            let save = me.ctx.get();
            let target = unsafe { *me.kc.tc_ctx.get() };
            let me_owned = b.swap_ulp(None).expect("me is installed");
            b.put_deferred(Deferred::Enqueue(me_owned));
            return Prep::Switch { save, target };
        }
        let save = me.ctx.get();
        // One critical section: pop, install, link ourselves at the tail.
        // The popped Arc moves into the TLS register and our displaced self
        // into the queue; no refcount is touched.
        let Some((target, sleeper)) = rt.runq.yield_to(|next| {
            if let Some(t) = b.trace() {
                if t.is_on() {
                    note_yield(t, me, &next);
                }
            }
            // SAFETY: `next` came off the run queue, so its context is
            // saved, and popping it made it ours alone.
            let target = unsafe { *next.ctx.get() };
            (b.swap_ulp(Some(next)).expect("me is installed"), target)
        }) else {
            return Prep::NoSwitch;
        };
        if let Some(s) = b.shard() {
            s.bump_yields();
            s.bump_context_switches();
        }
        // The lock stays held until the incoming context has us saved.
        b.put_deferred(Deferred::Release { sleeper });
        Prep::Switch { save, target }
    });
    match prep {
        Prep::OsYield => std::thread::yield_now(),
        Prep::NoSwitch if os_fallback => std::thread::yield_now(),
        Prep::NoSwitch | Prep::Stayed => {}
        Prep::Switch { save, target } => {
            unsafe {
                ulp_fcontext::swap(&mut *save, target, 0);
            }
            run_deferred();
            return true;
        }
    }
    false
}

/// Trace a yield from `me` to `next`: close `next`'s enqueue→dispatch span
/// (stamped by the run-queue push that made it runnable), emitting its wake
/// edge before the Yield record so the causal order survives the stable
/// sort.
fn note_yield(t: &crate::trace::TraceShard, me: &UcInner, next: &UcInner) {
    let now = crate::trace::now_ns();
    let since = next
        .wait_since
        .swap(0, std::sync::atomic::Ordering::Relaxed);
    let wake = next.wake_from.swap(0, std::sync::atomic::Ordering::Relaxed);
    if let Some((waker, site)) = crate::uc::decode_wake_from(wake) {
        t.emit_wake(now, waker.0, next.id.0, site, since);
    }
    t.record_at(
        now,
        crate::trace::Event::Yield {
            from: me.id,
            to: next.id,
        },
    );
    t.note_yield(now);
    if since != 0 {
        t.hist_queue_delay.record(now.saturating_sub(since));
    }
}

/// Run `f` coupled with the original kernel context — the paper's
/// "enclosing the system call(s) with `couple()` and `decouple()`" idiom
/// (§V-B: "This is all that a user has to do"). Restores the previous
/// coupling state afterwards: a UC that entered decoupled leaves decoupled,
/// *even when `f` panics* — the unwind is caught, the coupling state
/// restored, and the panic resumed, so a panicking scope cannot leak its UC
/// in the coupled state (which would wedge every later caller expecting the
/// scheduled pool to get the UC back).
pub fn coupled_scope<R>(f: impl FnOnce() -> R) -> Result<R, UlpError> {
    if cfg!(torture_mutation) {
        // Planted consistency bug for the torture harness's mutation check
        // (`RUSTFLAGS="--cfg torture_mutation"`): skip the coupling
        // entirely, so `f`'s system calls run against whatever kernel
        // context happens to host the UC — exactly the §V-B hazard. The
        // trace oracle must flag the decoupled syscall enters.
        return Ok(f());
    }
    let transitioned = couple()?;
    // AssertUnwindSafe: the closure either completes or its panic is
    // re-raised below after the coupling state is restored, so no broken
    // invariant escapes. Each raise/catch pair runs entirely on one OS
    // thread (a context switch never happens mid-unwind; the decouple
    // switch below runs strictly between the catch and the resume).
    let result = catch_unwind(AssertUnwindSafe(f));
    let restored = if transitioned { decouple() } else { Ok(false) };
    match result {
        Ok(value) => restored.map(|_| value),
        Err(payload) => resume_unwind(payload),
    }
}

/// Is the calling UC currently coupled with its original kernel context?
/// `None` when not running inside a ULP.
pub fn is_coupled() -> Option<bool> {
    with_thread(|b| b.ulp().map(|u| u.is_coupled()))
}

/// Number of couple requesters currently parked in the calling UC's
/// original kernel context's pending queue. `None` when not running inside
/// a ULP.
///
/// A coupled UC that decouples while this is nonzero takes the
/// direct-handoff fast path (it switches straight into the waiting
/// requester), so cooperative workloads can use this as a "someone is
/// waiting for my KC" hint.
pub fn pending_couplers() -> Option<usize> {
    with_thread(|b| b.ulp().map(|u| u.kc.pending.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::park::{CacheLine, ParkQueue, Parker};
    use std::mem::{align_of, size_of};

    /// The switch path's layouts, pinned: a reshape moves `yield_ring` by
    /// several per cent (one `bool` on `Prep` cost 2–7 %), so a change here
    /// is a deliberate diff, measured before it lands. `UcInner` grew from
    /// 248 to 256 bytes when its 4-byte pid became the 8-byte process handle
    /// (`yield_ring` and `echo` measured in pairs against the 248-byte
    /// layout, CHANGES.md).
    #[test]
    fn hot_layouts_are_pinned() {
        fn layout<T>() -> (usize, usize) {
            (size_of::<T>(), align_of::<T>())
        }
        let layouts = [
            ("Deferred", layout::<Deferred>()),
            ("Prep", layout::<Prep>()),
            ("CacheLine<ParkQueue>", layout::<CacheLine<ParkQueue>>()),
            ("Parker", layout::<Parker>()),
            ("UcInner", layout::<UcInner>()),
            ("ThreadBlock", layout::<ThreadBlock>()),
        ];
        assert_eq!(
            layouts,
            [
                ("Deferred", (16, 8)),
                ("Prep", (24, 8)),
                ("CacheLine<ParkQueue>", (64, 64)),
                ("Parker", (56, 8)),
                ("UcInner", (256, 8)),
                ("ThreadBlock", (128, 8)),
            ]
        );
        assert_eq!(
            size_of::<Option<Deferred>>(),
            16,
            "the slot keeps its niche"
        );
    }
}
