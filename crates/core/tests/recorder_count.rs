//! A tracer counts itself into the kernel's recorder count exactly while its
//! gate is open.
//!
//! The kernel calls its observation hooks only while that process-wide
//! count is nonzero, so a tracer that leaks a count keeps every untraced
//! system call paying for hooks, and one that loses a count silences another
//! runtime's trace. The count is process-wide, so this binary holds the one
//! test that moves it.

use ulp_core::ulp_kernel::trace::recording;
use ulp_core::{sys, Runtime, Tracer};

fn traced_runtime() -> Runtime {
    let rt = Runtime::builder().schedulers(1).build();
    rt.trace_enable();
    rt
}

/// A few system calls on a ULP of `rt`, so its hooks really run.
fn some_calls(rt: &Runtime) {
    let h = rt.spawn("calls", || {
        for _ in 0..16 {
            sys::getpid().unwrap();
        }
        0
    });
    assert_eq!(h.wait(), 0);
}

#[test]
fn tracer_transitions_balance_the_kernel_recorder_count() {
    let base = recording();

    // Re-enables and repeated disables are no transitions.
    let t = Tracer::new(16);
    t.enable();
    assert_eq!(recording(), base + 1);
    t.enable();
    assert_eq!(recording(), base + 1, "a restart counts nothing");
    t.disable();
    assert_eq!(recording(), base);
    t.disable();
    assert_eq!(recording(), base, "a second disable counts nothing");
    t.enable();
    drop(t);
    assert_eq!(recording(), base, "a tracer dropped while recording");
    drop(Tracer::new(16));
    assert_eq!(recording(), base, "a tracer dropped while off");

    // A runtime dropped while its tracer records.
    let rt = traced_runtime();
    assert_eq!(recording(), base + 1);
    some_calls(&rt);
    drop(rt);
    assert_eq!(recording(), base, "a runtime dropped while recording");

    // Two runtimes at once: each counts for itself.
    let a = traced_runtime();
    let b = traced_runtime();
    assert_eq!(recording(), base + 2);
    some_calls(&a);
    some_calls(&b);
    a.trace_disable();
    assert_eq!(recording(), base + 1);
    some_calls(&b);
    drop(b);
    assert_eq!(recording(), base);
    a.trace_enable();
    assert_eq!(recording(), base + 1);
    drop(a);
    assert_eq!(recording(), base);
}
