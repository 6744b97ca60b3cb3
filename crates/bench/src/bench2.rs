//! Direct-handoff coupling and lock-suite metrics: `BENCH_2.json`.
//!
//! Emitted by `repro_all` (and the standalone `bench2` binary). Two
//! families of rows:
//!
//! - **Handoff**: the couple()/decouple() round trip on the direct-handoff
//!   fast path (two UCs ping-ponging over one original KC, every decouple
//!   switching straight into the parked requester), per idle policy, next
//!   to the pre-handoff slow-path baseline from
//!   [`crate::bench1::baseline`] — plus the hit rate observed by the
//!   runtime's own counters.
//! - **Locks**: ns per acquire of every [`RawUlpLock`] implementation
//!   under contention, in both the undersubscribed regime (contenders ≤
//!   scheduler KCs) and oversubscribed (contenders > scheduler KCs, where
//!   a spinning waiter can sit on the scheduler the holder needs).

use crate::bench1::baseline;
use crate::workloads::{self, HandoffRtt};
use ulp_core::{FutexLock, IdlePolicy, McsLock, RawUlpLock, TasLock, TicketLock};
use ulp_kernel::ArchProfile;

/// Contended-lock timings for one lock implementation.
#[derive(Debug, Clone, Copy)]
pub struct LockRow {
    /// The implementation's `RawUlpLock::NAME`.
    pub name: &'static str,
    /// ns per acquire, contenders ≤ scheduler KCs.
    pub undersub_ns: f64,
    /// ns per acquire, contenders > scheduler KCs.
    pub oversub_ns: f64,
}

/// One full BENCH_2 sweep.
#[derive(Debug, Clone)]
pub struct Bench2 {
    /// Handoff RTT + hit rate, BUSYWAIT idle.
    pub handoff_busywait: HandoffRtt,
    /// Handoff RTT + hit rate, BLOCKING idle.
    pub handoff_blocking: HandoffRtt,
    /// Handoff RTT + hit rate, ADAPTIVE idle.
    pub handoff_adaptive: HandoffRtt,
    /// One row per lock implementation, in suite order.
    pub locks: Vec<LockRow>,
}

/// Undersubscribed regime: as many contenders as scheduler KCs.
const UNDERSUB: (usize, usize) = (2, 2);
/// Oversubscribed regime: 4× more contenders than scheduler KCs.
const OVERSUB: (usize, usize) = (2, 8);

fn lock_row<R: RawUlpLock + 'static>(iters_each: usize) -> LockRow {
    LockRow {
        name: R::NAME,
        undersub_ns: workloads::contended_lock_ns::<R>(UNDERSUB.0, UNDERSUB.1, iters_each),
        oversub_ns: workloads::contended_lock_ns::<R>(OVERSUB.0, OVERSUB.1, iters_each),
    }
}

/// Run the BENCH_2 measurements (scale-aware, same min-of-ten protocol
/// where a min is meaningful; the lock rows are aggregate wall time — a
/// min over contenders would hide the convoying the rows exist to show).
pub fn measure() -> Bench2 {
    let iters = 1_000 * crate::repro::scale();
    Bench2 {
        handoff_busywait: workloads::couple_handoff_rtt(
            IdlePolicy::BusyWait,
            ArchProfile::Native,
            iters,
        ),
        handoff_blocking: workloads::couple_handoff_rtt(
            IdlePolicy::Blocking,
            ArchProfile::Native,
            iters,
        ),
        handoff_adaptive: workloads::couple_handoff_rtt(
            IdlePolicy::Adaptive,
            ArchProfile::Native,
            iters,
        ),
        locks: vec![
            lock_row::<TasLock>(iters),
            lock_row::<TicketLock>(iters),
            lock_row::<McsLock>(iters),
            lock_row::<FutexLock>(iters),
        ],
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_string()
    }
}

/// Hand-rolled JSON (the build environment is offline; no serde).
pub fn to_json(b: &Bench2) -> String {
    let handoff = |name: &str, slow_path_ns: f64, h: &HandoffRtt| {
        let speedup = if h.rtt_ns > 0.0 && h.rtt_ns.is_finite() {
            slow_path_ns / h.rtt_ns
        } else {
            f64::NAN
        };
        format!(
            "    \"{name}\": {{\"unit\": \"ns\", \"slow_path_baseline\": {}, \"after\": {}, \"speedup\": {}, \"hit_rate\": {}}}",
            json_num(slow_path_ns),
            json_num(h.rtt_ns),
            if speedup.is_finite() {
                format!("{speedup:.2}")
            } else {
                "null".to_string()
            },
            if h.hit_rate.is_finite() {
                format!("{:.4}", h.hit_rate)
            } else {
                "null".to_string()
            },
        )
    };
    let handoff_rows = [
        handoff(
            "couple_rtt_handoff_busywait",
            baseline::COUPLE_RTT_BUSYWAIT_NS,
            &b.handoff_busywait,
        ),
        handoff(
            "couple_rtt_handoff_blocking",
            baseline::COUPLE_RTT_BLOCKING_NS,
            &b.handoff_blocking,
        ),
        handoff(
            "couple_rtt_handoff_adaptive",
            baseline::COUPLE_RTT_ADAPTIVE_NS,
            &b.handoff_adaptive,
        ),
    ];
    let lock_rows: Vec<String> = b
        .locks
        .iter()
        .map(|l| {
            format!(
                "    \"{}\": {{\"unit\": \"ns/acquire\", \"undersubscribed\": {}, \"oversubscribed\": {}}}",
                l.name,
                json_num(l.undersub_ns),
                json_num(l.oversub_ns),
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"ulp-rs direct-handoff coupling + lock suite\",\n  \"protocol\": \"handoff: min of {} runs, warm-up per run; locks: {}v{} and {}v{} ULPs-vs-KCs aggregate wall time\",\n  \"handoff\": {{\n{}\n  }},\n  \"locks\": {{\n{}\n  }}\n}}\n",
        crate::RUNS,
        UNDERSUB.1,
        UNDERSUB.0,
        OVERSUB.1,
        OVERSUB.0,
        handoff_rows.join(",\n"),
        lock_rows.join(",\n"),
    )
}

/// Measure, print, and drop `BENCH_2.json` in the results directory.
pub fn run_and_save() {
    let b = measure();
    let json = to_json(&b);
    print!("{json}");
    let dir = crate::report::results_dir();
    let path = dir.join("BENCH_2.json");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[json] failed to create {}: {e}", dir.display());
        return;
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handoff(rtt_ns: f64, hit_rate: f64) -> HandoffRtt {
        HandoffRtt {
            rtt_ns,
            hit_rate,
            switches_per_rtt: 3.0,
            kc_blocks_per_rtt: 0.0,
        }
    }

    #[test]
    fn json_shape_is_parseable_enough() {
        let b = Bench2 {
            handoff_busywait: handoff(500.0, 1.0),
            handoff_blocking: handoff(600.0, 0.999),
            handoff_adaptive: handoff(550.0, 1.0),
            locks: vec![
                LockRow {
                    name: "tas",
                    undersub_ns: 100.0,
                    oversub_ns: 200.0,
                },
                LockRow {
                    name: "futex2l",
                    undersub_ns: 150.0,
                    oversub_ns: 120.0,
                },
            ],
        };
        let s = to_json(&b);
        assert!(s.contains("\"couple_rtt_handoff_busywait\""));
        assert!(s.contains("\"hit_rate\": 1.0000"));
        assert!(s.contains("\"tas\""));
        assert!(s.contains("\"oversubscribed\": 200.0"));
        assert_eq!(
            s.matches('{').count(),
            s.matches('}').count(),
            "unbalanced JSON: {s}"
        );
        // An unmeasured sweep still renders valid JSON.
        let empty = Bench2 {
            handoff_busywait: handoff(f64::INFINITY, f64::NAN),
            locks: vec![],
            ..b
        };
        let s = to_json(&empty);
        assert!(s.contains("\"after\": null"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn handoff_hits_and_beats_slow_path() {
        // A tiny measured run: the deterministic ping-pong must hand off on
        // (essentially) every decouple. "Beats the slow path" is judged on
        // what makes it faster — a switch fewer, and an original KC that
        // never blocks (the trampoline, which is what would block under
        // BLOCKING, never runs) — not on two wall-clock timings taken at
        // different moments of a parallel test binary.
        for policy in [IdlePolicy::BusyWait, IdlePolicy::Blocking] {
            let h = workloads::couple_handoff_rtt(policy, ArchProfile::Native, 200);
            assert!(
                h.hit_rate > 0.9,
                "{policy:?}: handoff hit rate {:.4} <= 0.9",
                h.hit_rate
            );
            assert!(h.rtt_ns.is_finite() && h.rtt_ns > 0.0, "rtt {}", h.rtt_ns);
            assert!(
                h.switches_per_rtt < 3.5,
                "{policy:?}: {:.3} switches per round trip (slow path: 4)",
                h.switches_per_rtt
            );
            assert!(
                h.kc_blocks_per_rtt < 0.1,
                "{policy:?}: {:.3} KC blocks per round trip (slow path under BLOCKING: 1)",
                h.kc_blocks_per_rtt
            );
        }
    }

    #[test]
    fn contended_lock_measures() {
        let ns = workloads::contended_lock_ns::<TasLock>(1, 2, 200);
        assert!(ns.is_finite() && ns > 0.0, "tas contended ns {ns}");
    }
}
