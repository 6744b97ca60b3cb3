//! Per-ULP signal handlers, delivered at safe points.
//!
//! The simulated kernel queues signals per *process* ([`ulp_kernel::signal`]);
//! this module adds the user-level half: a ULP registers handler closures
//! ([`on_signal`]) and deliverable signals are dispatched at well-defined
//! safe points — explicitly via [`poll_signals`], and implicitly whenever a
//! UC (re-)couples with its original kernel context. Delivery only happens
//! while **coupled**: a decoupled UC's kernel context is parked, so its
//! pending signals wait — and a signal sent "to the UC" while it runs
//! decoupled lands at the scheduling KC instead, which is precisely the
//! §VII caveat this reproduction keeps observable.

use crate::current::with_thread;
use std::collections::HashMap;
use std::sync::Arc;
use ulp_kernel::Signal;

type Handler = Arc<dyn Fn(Signal) + Send + Sync + 'static>;

/// Per-ULP handler table, stored in ULP-local storage so each user-level
/// process has its own dispositions (as real processes do).
static HANDLERS: crate::tls::UlpLocal<HashMap<u8, Handler>> =
    crate::tls::UlpLocal::new(HashMap::new);

/// Count of signals each ULP has handled (diagnostics / tests).
static HANDLED: crate::tls::UlpLocal<u64> = crate::tls::UlpLocal::new(|| 0);

/// Register a handler for `sig` on the calling ULP (the `sigaction(2)`
/// analogue). Returns the previously registered handler, if any.
///
/// The registration is mirrored into the disposition table of the process
/// bound to this kernel context when that is the ULP's own — it runs on its
/// original KC. A decoupled caller on a scheduler would reach the
/// scheduler's process (§V-B), so its registration is not mirrored.
pub fn on_signal(sig: Signal, f: impl Fn(Signal) + Send + Sync + 'static) -> Option<()> {
    let prev = HANDLERS.try_with(|h| h.insert(sig as u8, Arc::new(f)).map(|_| ()))?;
    with_thread(|b| {
        let (Some(rt), Some(me)) = (b.rt(), b.ulp()) else {
            return;
        };
        if me.kc.is_current_thread() {
            rt.kernel.with_bound_process(|proc| {
                proc.signals
                    .set_disposition(sig, ulp_kernel::Disposition::Handler(me.id.0))
            });
        }
    });
    prev
}

/// Remove the calling ULP's handler for `sig`.
pub fn clear_handler(sig: Signal) {
    let _ = HANDLERS.try_with(|h| h.remove(&(sig as u8)));
}

/// Number of signals this ULP's handlers have processed.
pub fn handled_count() -> u64 {
    HANDLED.try_with(|c| *c).unwrap_or(0)
}

/// Drain and dispatch every deliverable signal of the calling ULP's **own**
/// process. Returns how many were dispatched. Only effective on the ULP's
/// original kernel context (the paper's consistency rule applies to signals
/// too): on a scheduler this returns 0 without touching the scheduler's
/// signal queue.
pub fn poll_signals() -> usize {
    let mut dispatched = 0;
    // One signal per thread-block access: a handler is user code and may
    // switch, so none runs inside one.
    while let Some(sig) = with_thread(|b| {
        let (rt, me) = (b.rt()?, b.ulp()?);
        if !me.kc.is_current_thread() {
            // Decoupled: our own process's signals are not reachable from
            // this kernel context; do NOT steal the scheduler's.
            return None;
        }
        let sig = rt
            .kernel
            .with_bound_process(|proc| proc.signals.take_deliverable())??;
        rt.tracer.record(crate::trace::Event::Signal {
            uc: me.id,
            signal: sig as u8,
        });
        Some(sig)
    }) {
        let handler = HANDLERS
            .try_with(|h| h.get(&(sig as u8)).cloned())
            .flatten();
        if let Some(handler) = handler {
            handler(sig);
            let _ = HANDLED.try_with(|c| *c += 1);
        }
        // Unhandled signals follow the default disposition: for this
        // simulation, they are simply consumed (recorded by the kernel's
        // pending/posted counters).
        dispatched += 1;
    }
    dispatched
}

/// Safe-point hook invoked by the runtime after each successful couple: one
/// load of the bound process's deliverable word, and the drain only when it
/// is non-zero.
pub(crate) fn safe_point() {
    let deliverable = with_thread(|b| {
        b.rt().is_some_and(|rt| {
            rt.kernel
                .with_bound_process(|proc| proc.signals.any_deliverable())
                == Some(true)
        })
    });
    if deliverable {
        poll_signals();
    }
}

/// A guard that polls signals when dropped — used to wrap coupled regions.
pub struct SignalScope;

impl Drop for SignalScope {
    fn drop(&mut self) {
        safe_point();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_outside_ulp_is_zero() {
        assert_eq!(poll_signals(), 0);
        assert_eq!(handled_count(), 0);
    }
}
