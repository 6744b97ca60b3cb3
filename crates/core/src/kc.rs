//! The trampoline context (TC) and the kernel context's idle loop.
//!
//! §V-A: when a KLT decouples, its KC cannot idle on the UC's own stack —
//! if the UC migrates and runs elsewhere, the stack under the idling KC
//! changes and neither side can safely resume (the paper's Fig. 4). The TC
//! is a separate, very small context on which the KC idles; its stack is
//! touched by nobody else, so coupling back is always safe (Fig. 5).
//!
//! The idle loop implements rules 5–7 of the paper's BLT summary:
//! an idle KC blocks or busy-waits; an idle KC given a UC wakes and runs it;
//! a UC terminates coupled with its original KC.

use crate::couple::{install_ulp_no_charge, raw_switch};
use crate::current::run_deferred;
use crate::error::UlpError;
use crate::park::{IdleTally, Idled};
use crate::runtime::RuntimeInner;
use crate::uc::{KcShared, UcInner};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use ulp_fcontext::{prepare, TRAMPOLINE_STACK_SIZE};

/// Boot record handed to a fresh trampoline context. Owned by the
/// `KcShared` so it outlives every activation of the TC.
#[derive(Debug)]
pub struct TcBoot {
    /// The kernel context this trampoline serves.
    pub kc: Arc<KcShared>,
    /// The owning runtime.
    pub rt: Arc<RuntimeInner>,
    /// The BLT's primary UC — resumed one last time when the primary has
    /// finished and all siblings have drained, so the OS thread can exit.
    pub primary: Arc<UcInner>,
}

/// Create the trampoline context for `primary`'s original KC if it does not
/// exist yet. Must be called on the KC's own thread (it is: only `decouple`
/// and the spawn path call it).
pub fn ensure_tc(primary: &Arc<UcInner>, rt: &Arc<RuntimeInner>) -> Result<(), UlpError> {
    let kc = &primary.kc;
    if kc.tc_started.load(Ordering::Acquire) {
        return Ok(());
    }
    debug_assert!(kc.is_current_thread(), "TC created off-thread");
    let stack = rt
        .stack_pool
        .acquire(TRAMPOLINE_STACK_SIZE)
        .map_err(|e| UlpError::StackAlloc(e.to_string()))?;
    let boot = Box::new(TcBoot {
        kc: kc.clone(),
        rt: rt.clone(),
        primary: primary.clone(),
    });
    let boot_ptr = &*boot as *const TcBoot as *mut u8;
    let ctx = unsafe { prepare(stack.top(), tc_entry, boot_ptr) };
    unsafe {
        *kc.tc_ctx.get() = ctx;
    }
    *kc.tc_stack.lock() = Some(stack);
    *kc.tc_boot.lock() = Some(boot);
    kc.tc_started.store(true, Ordering::Release);
    Ok(())
}

extern "C" fn tc_entry(_arg: usize, data: *mut u8) -> ! {
    // The context that switched here (the decoupling UC) deferred its own
    // enqueue; publish it now that its registers are safely on its stack.
    run_deferred();
    let boot: &TcBoot = unsafe { &*(data as *const TcBoot) };
    tc_loop(boot)
}

/// The KC's idle loop popped a couple request and is about to run its UC:
/// the idle period is over. If the request woke the KC from a park, that
/// park's exit already consumed the `kc_notify` stamp the request armed; if
/// it was served without one — the KC was spinning, or between two passes —
/// the stamp is dropped here, or a later park that merely timed out would
/// claim it.
fn serve(kc: &KcShared, tally: &mut IdleTally) {
    tally.found_work();
    crate::current::with_thread(|b| {
        if b.trace().is_some_and(|t| t.is_on()) {
            let _ = kc.wake.take();
        }
    });
}

/// The KC idle loop (paper Fig. 5 right half + §V-B Table I, KC₀ column).
fn tc_loop(boot: &TcBoot) -> ! {
    let kc = &boot.kc;
    let rt = &boot.rt;
    let mut tally = IdleTally::default();
    loop {
        // The version read precedes the work checks (park protocol).
        let seen = kc.parker.version();

        // The UC that just decoupled stayed home (`Deferred::Home`): Table
        // I's KC₁ column, played by KC₀. Dispatch it exactly as a scheduler
        // does, and it runs as a ULT on this thread until it switches back
        // here to couple (`Deferred::CoupleRequest`, onto our own `pending`)
        // or to yield (`Deferred::Enqueue`, to the schedulers).
        if let Some(target) = crate::current::with_thread(|b| {
            let uc = b.take_home()?;
            Some(crate::couple::host_dispatch(b, uc, boot.primary.id))
        }) {
            unsafe { raw_switch(kc.tc_ctx.get(), target, None) };
            continue;
        }

        // Rule 6: an idle KC given a UC starts running it. Couple requests
        // are served strictly in arrival order.
        if let Some(uc) = kc.pending.pop(false) {
            serve(kc, &mut tally);
            // TC→UC switch: the TLS register is restored but NOT reloaded
            // at cost — the §V-B exemption ("excepting the context switch
            // between TC and UC"). The pending queue's Arc moves straight
            // into the TLS register.
            let target = unsafe { *uc.ctx.get() };
            install_ulp_no_charge(uc);
            unsafe { raw_switch(kc.tc_ctx.get(), target, None) };
            // Back on the TC: the UC decoupled again (its enqueue ran via
            // the deferred hook inside raw_switch) or a sibling terminated.
            continue;
        }

        // Rule 7 (extended for siblings): once the primary has finished and
        // no sibling still needs this KC, hand control back to the primary
        // context so the OS thread can exit.
        if kc.primary_waiting.load(Ordering::Acquire)
            && kc.sibling_count.load(Ordering::Acquire) == 0
        {
            let target = unsafe { *boot.primary.ctx.get() };
            install_ulp_no_charge(boot.primary.clone());
            unsafe { raw_switch(kc.tc_ctx.get(), target, None) };
            // The primary exits the thread; we are never resumed. If we
            // ever are (defensive), fall through and idle again.
            continue;
        }

        // Rule 5: idle by busy-waiting or blocking. When tracing, time the
        // futex block→wake span through this thread's trace shard (this
        // thread registered one in `set_runtime` at worker start).
        let t0 = crate::current::with_thread(|b| match b.trace() {
            Some(t) if t.is_on() => crate::trace::now_ns(),
            _ => 0,
        });
        rt.stack_pool.scavenge();
        let how = kc
            .parker
            .park(seen, &mut tally, || kc.pending.is_empty_locked());
        if how.blocked() {
            rt.stats.fallback().bump_kc_blocks();
            crate::current::with_thread(|b| {
                if let Some(t) = b.trace() {
                    if t.is_on() {
                        let now = crate::trace::now_ns();
                        // The notify that ended this futex block: attribute
                        // it to the couple requester that armed the KC's
                        // wake cell (other notifies — sibling registration,
                        // handle close — leave the cell unarmed and emit no
                        // edge, as do spurious futex wakes). A block that
                        // nobody ended leaves the cell alone: whatever is
                        // in it belongs to a request still on its way.
                        let stamp = if how == Idled::Woken {
                            kc.wake.take()
                        } else {
                            None
                        };
                        if let Some((waker, armed)) = stamp {
                            t.emit_wake(
                                now,
                                waker,
                                boot.primary.id.0,
                                ulp_kernel::WakeSite::KcNotify,
                                armed,
                            );
                        }
                        t.record_at(now, crate::trace::Event::KcBlocked(boot.primary.id));
                        if t0 != 0 {
                            t.hist_kc_block.record(now.saturating_sub(t0));
                        }
                    }
                }
            });
        }
    }
}

/// Main loop of a *pool* kernel context (oversubscription mode).
///
/// Unlike a BLT's original KC, a pool KC has no primary UC and no kernel
/// process of its own: it lends its OS thread to many pooled ULPs in turn,
/// rebinding its kernel identity to each ULP's pid as it serves it (the
/// binding is a thread-local pointer swap, so the rebind costs nothing that
/// scales with the ULP count). The thread's native context doubles as the
/// TC — `tc_started` is pre-set and `tc_ctx` is filled by the first
/// `raw_switch` away — so a pool KC needs no trampoline stack at all.
///
/// Exits when the runtime shuts down and the pending queue has drained.
pub(crate) fn pool_main(rt: Arc<RuntimeInner>, kc: Arc<KcShared>) {
    kc.adopt_current_thread();
    // The native context is the trampoline: mark it live so nothing tries
    // to build one, and so `ensure_tc` (never called for pool KCs, but
    // defensively) is a no-op.
    kc.tc_started.store(true, Ordering::Release);
    crate::current::set_runtime(rt.clone());
    let mut tally = IdleTally::starting();
    loop {
        // The version read precedes the work checks (park protocol).
        let seen = kc.parker.version();

        if let Some(uc) = kc.pending.pop(false) {
            serve(&kc, &mut tally);
            // Rebind unconditionally: a direct decouple→couple handoff on
            // this KC may have left the thread bound to a different pooled
            // pid than the last one this loop served, so a cached "last
            // bound" pid would go stale. `bind_current` is a TLS update.
            rt.kernel.bind_current(uc.pid);
            let target = unsafe { *uc.ctx.get() };
            install_ulp_no_charge(uc);
            unsafe { raw_switch(kc.tc_ctx.get(), target, None) };
            // Back on the native stack: the pooled ULP terminated (its
            // stack recycled via the deferred hook) or decoupled again.
            continue;
        }

        if rt.shutdown.load(Ordering::Acquire) && kc.pending.is_empty_locked() {
            break;
        }

        // Rule 5: idle. Pool KCs have no primary BltId to tag a KcBlocked
        // event with, so blocks surface in stats (`kc_blocks`) only.
        rt.stack_pool.scavenge();
        if kc
            .parker
            .park(seen, &mut tally, || kc.pending.is_empty_locked())
            .blocked()
        {
            rt.stats.fallback().bump_kc_blocks();
        }
    }
    rt.kernel.unbind_current();
    crate::current::clear_thread_state();
}
