//! A decoupled UC's wait on a wait list, on the trace: the `Wait` record
//! that leaves its host, the `wait_list` wake edge naming the setter, the
//! profile that counts the wait off the running (`decoupled`) time, and the
//! oracle that accepts it. Its own binary: no torture run arms chaos beside
//! it.

use std::sync::Arc;
use std::time::Duration;
use ulp_core::{
    couple, decouple, ConsistencyMode, ProfileState, Runtime, TraceEvent as E, UlpEvent, WakeSite,
};
use ulp_torture::oracle::{check, OracleInput};
use ulp_torture::StatsDelta;

/// A ULT waits 50 ms on a `UlpEvent` that a KLT sets: the wait shows as
/// one `Wait`, answered by the dispatch its `wait_list` edge precedes, and
/// less than 5 ms of the waiter's life is `decoupled`.
#[test]
fn a_ult_waiting_on_an_event_is_not_running() {
    let rt = Runtime::builder()
        .schedulers(1)
        .consistency(ConsistencyMode::Record)
        .build();
    rt.trace_enable();
    let stats0 = rt.stats().snapshot();
    let event = Arc::new(UlpEvent::new());
    let waiter = rt.spawn("waiter", {
        let event = event.clone();
        move || {
            decouple().unwrap();
            event.wait();
            couple().unwrap();
            0
        }
    });
    let setter = rt.spawn("setter", move || {
        std::thread::sleep(Duration::from_millis(50));
        event.set();
        0
    });
    assert_eq!(setter.wait(), 0);
    assert_eq!(waiter.wait(), 0);
    let (w, s) = (waiter.id(), setter.id());

    let profile = rt.profile_snapshot();
    rt.trace_disable();
    let trace = rt.take_trace();
    let waits = trace.iter().filter(|r| r.event == E::Wait(w)).count();
    assert_eq!(waits, 1, "one Wait record for one wait");
    let edge = trace.iter().find_map(|r| match r.event {
        E::Wake {
            waker,
            wakee,
            site: WakeSite::WaitList,
            ..
        } if wakee == w => Some(waker),
        _ => None,
    });
    assert_eq!(edge, Some(s), "the wake edge names the setter");
    let running = profile
        .get(w)
        .expect("the waiter's profile")
        .state(ProfileState::Decoupled);
    assert!(
        running.total_ns < 5_000_000,
        "{} ns of a 50 ms wait counted as running",
        running.total_ns
    );

    let consistency = rt.violations();
    let violations = check(&OracleInput {
        trace: &trace,
        dropped: rt.trace_dropped(),
        consistency: &consistency,
        stats: StatsDelta::between(&stats0, &rt.stats().snapshot()),
        latency: &rt.latency_snapshot(),
        syscalls: &rt.syscall_snapshot(),
        expect_coupled_syscalls: true,
    });
    assert!(violations.is_empty(), "{violations:?}");
}
