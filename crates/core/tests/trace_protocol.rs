//! Table-I protocol orderings, asserted on real traces (ISSUE 2, satellite).
//!
//! The paper's Table I fixes the couple/decouple protocol: a UC may only
//! *request* coupling after it has decoupled, and the `Coupled` transition
//! happens on the UC's **original** kernel context — never on a scheduler.
//! These tests drive a contended workload on two schedulers and check those
//! orderings on the merged per-KC trace, which also exercises the timestamp
//! merge across shards.

use ulp_core::{coupled_scope, decouple, yield_now, IdlePolicy, Runtime, TraceEvent, TraceRecord};

const BLTS: usize = 3;
const ITERS: usize = 5;

fn traced_workload() -> Vec<TraceRecord> {
    let rt = Runtime::builder()
        .schedulers(2)
        .idle_policy(IdlePolicy::Blocking)
        .build();
    rt.trace_enable();
    let handles: Vec<_> = (0..BLTS)
        .map(|i| {
            rt.spawn(&format!("w{i}"), || {
                decouple().unwrap();
                for _ in 0..ITERS {
                    yield_now();
                    coupled_scope(|| ()).unwrap();
                }
                0
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.wait(), 0);
    }
    rt.trace_disable();
    rt.take_trace()
}

fn assert_protocol_orderings(trace: &[TraceRecord]) {
    assert!(!trace.is_empty(), "workload should produce a trace");

    // The merge across per-KC shards must deliver a time-sorted stream.
    for w in trace.windows(2) {
        assert!(
            w[0].at_ns <= w[1].at_ns,
            "merged trace out of order: {:?} then {:?}",
            w[0],
            w[1]
        );
    }

    // Per-BLT prefix invariants over the merged stream. At every prefix a
    // UC can only have requested coupling after decoupling (Table I row
    // "CoupleRequest": only valid from the decoupled state), and can only
    // have completed coupling after requesting it.
    use std::collections::HashMap;
    let mut decouples: HashMap<u64, u64> = HashMap::new();
    let mut requests: HashMap<u64, u64> = HashMap::new();
    let mut coupleds: HashMap<u64, u64> = HashMap::new();
    // Coupled/Decouple/Terminate run on the UC's original KC: all such
    // records for one BLT must come from a single shard (same kc id).
    let mut origin_kc: HashMap<u64, u32> = HashMap::new();

    for r in trace {
        match r.event {
            TraceEvent::Decouple(u) => {
                *decouples.entry(u.0).or_default() += 1;
                let kc = origin_kc.entry(u.0).or_insert(r.kc);
                assert_eq!(*kc, r.kc, "Decouple({u:?}) off the original KC");
            }
            TraceEvent::CoupleRequest(u) => {
                let d = decouples.get(&u.0).copied().unwrap_or(0);
                let q = requests.entry(u.0).or_default();
                *q += 1;
                assert!(
                    *q <= d,
                    "CoupleRequest({u:?}) #{q} before matching Decouple (seen {d})"
                );
            }
            TraceEvent::Coupled(u) => {
                let q = requests.get(&u.0).copied().unwrap_or(0);
                let c = coupleds.entry(u.0).or_default();
                *c += 1;
                assert!(
                    *c <= q,
                    "Coupled({u:?}) #{c} before matching CoupleRequest (seen {q})"
                );
                let kc = origin_kc.entry(u.0).or_insert(r.kc);
                assert_eq!(
                    *kc, r.kc,
                    "Coupled({u:?}) recorded on kc {} but original is {}",
                    r.kc, *kc
                );
            }
            TraceEvent::Terminate(u) => {
                if let Some(kc) = origin_kc.get(&u.0) {
                    assert_eq!(*kc, r.kc, "Terminate({u:?}) off the original KC");
                }
            }
            _ => {}
        }
    }

    // Every worker actually exercised the protocol, on a real shard.
    assert_eq!(decouples.len(), BLTS, "every BLT decoupled");
    for (blt, n) in &requests {
        assert!(
            *n >= ITERS as u64,
            "BLT {blt} made only {n} couple requests"
        );
    }
    for kc in origin_kc.values() {
        assert_ne!(*kc, 0, "protocol events must come from per-KC shards");
    }
}

#[test]
fn table_one_orderings_hold_under_global_fifo() {
    assert_protocol_orderings(&traced_workload());
}

/// A `kc_notify` wake edge belongs to the couple request whose push ended
/// the trampoline's park. A request served *without* a park — the KC was
/// spinning, or between two passes of its loop — arms the same stamp, and
/// must take it along: left behind, it is claimed by the next park that
/// merely rides out its 50 ms time-out, and lands in
/// `ulp_wake_to_run_ns{site="kc_notify"}` as a wake that took that long.
#[test]
fn kc_notify_edge_does_not_outlive_its_request() {
    use std::time::{Duration, Instant};
    use ulp_core::{couple, WakeSite};
    let rt = Runtime::builder()
        .schedulers(1)
        .idle_policy(IdlePolicy::Adaptive)
        .build();
    rt.trace_enable();
    let h = rt.spawn("orbit-then-roam", || {
        decouple().unwrap();
        for _ in 0..50 {
            couple().unwrap();
            decouple().unwrap();
        }
        // Long enough for the idle KC to time out of several parks.
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(400) {
            yield_now();
        }
        0
    });
    assert_eq!(h.wait(), 0);
    rt.trace_disable();
    assert_eq!(rt.trace_dropped(), 0);
    let trace = rt.take_trace();
    for (i, r) in trace.iter().enumerate() {
        let TraceEvent::Wake {
            waker,
            site: WakeSite::KcNotify,
            delay_ns,
            ..
        } = r.event
        else {
            continue;
        };
        // The request that armed the edge was published `delay_ns` ago; it
        // cannot have been served in between.
        let armed_at = r.at_ns.saturating_sub(delay_ns);
        let served = trace[..i]
            .iter()
            .rev()
            .take_while(|p| p.at_ns > armed_at)
            .find(|p| p.event == TraceEvent::Coupled(waker));
        assert!(
            served.is_none(),
            "kc_notify delay_ns = {delay_ns}: the edge at {} ns claims a request armed at \
             {armed_at} ns that was already served at {} ns",
            r.at_ns,
            served.map_or(0, |p| p.at_ns),
        );
    }
}
