//! Export surfaces for the observability layer.
//!
//! Two text formats, both dependency-free:
//!
//! - [`chrome_trace_json`] renders a drained trace as Chrome trace-event
//!   JSON (the JSON Array/Object format Perfetto's `ui.perfetto.dev` opens
//!   directly): each BLT is a track, and its lifecycle shows as back-to-back
//!   spans — `coupled` / `queued` / `decoupled` / `coupling` — as
//!   `replay.rs` derives them from the Table-I protocol events (this
//!   module only draws the items it is handed, so the timeline and the
//!   folded profile cannot disagree about a span), with KC blocks and signal
//!   deliveries as instant markers. Each BLT additionally gets a **syscall
//!   track** right below its state track (`thread_sort_index` keeps them
//!   adjacent) carrying
//!   the simulated kernel's enter/exit spans — nested where a call sleeps
//!   in-kernel (`read` around `pipe_block_read`) — and a
//!   `syscall_violation` instant wherever a call was issued decoupled, so
//!   system-call-consistency hazards are visible at a glance.
//! - [`prometheus_text`] renders the runtime's counters and latency
//!   histograms in the Prometheus text exposition format, cumulative
//!   `le`-bucketed as scrapers expect, including the per-syscall
//!   `ulp_syscall_latency_ns{call="…"}` family. The counters are the rows of
//!   the table in `stats.rs`; every bucket line comes from one function.

use crate::hist::{bucket_le, HistData, LatencySnapshot, SyscallSnapshot};
use crate::profile::ProfileState;
use crate::replay::{replay, Item, Mark, Window};
use crate::stats::StatsSnapshot;
use crate::trace::TraceRecord;
use std::collections::BTreeSet;
use std::fmt::Write;
use ulp_kernel::WaitOutcomes;

/// Render one half of a wake flow arrow (`ph:"s"` start on the waker's
/// track, `ph:"f"` finish on the wakee's track). Chrome flow events bind to
/// the enclosing slice on the target track at `ts`; matching `cat`+`id`
/// pairs the halves. The finish half carries `bp:"e"` so Perfetto attaches
/// it to the slice *enclosing* the timestamp rather than the next one.
fn push_flow(
    out: &mut Vec<String>,
    half: char,
    id: u64,
    site: ulp_kernel::WakeSite,
    tid: u64,
    at_ns: u64,
) {
    let bp = if half == 'f' { ",\"bp\":\"e\"" } else { "" };
    out.push(format!(
        "{{\"name\":\"wake:{}\",\"ph\":\"{half}\",\"cat\":\"wake\",\"id\":{id},\"pid\":1,\"tid\":{tid},\"ts\":{}{bp}}}",
        site.name(),
        us(at_ns),
    ));
}

/// Offset separating a BLT's syscall track id from its state track id. BLT
/// ids are sequential and small, so the two ranges can't collide.
const SYSCALL_TID_BASE: u64 = 1_000_000;

/// Microsecond timestamp with the sub-µs part kept (Chrome traces use µs;
/// our spans are tens of ns wide, so the decimals matter).
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// A complete span (`ph:"X"`) of `ns` nanoseconds on track `tid`; `args` is
/// the span's detail-pane object (`""` for none).
fn push_span(out: &mut Vec<String>, tid: u64, name: &str, at_ns: u64, ns: u64, args: &str) {
    out.push(format!(
        "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{}{args}}}",
        us(at_ns),
        us(ns),
    ));
}

fn push_instant(out: &mut Vec<String>, tid: u64, name: &str, at_ns: u64) {
    out.push(format!(
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"s\":\"t\"}}",
        us(at_ns),
    ));
}

/// Render a drained trace as Chrome trace-event JSON (Perfetto-loadable).
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    chrome_trace_json_window(records, None)
}

/// [`chrome_trace_json`] of the trace window `[t0, t1)` (`None`: all of it).
/// The window is the replay's, so it is `/profile?t0=..`'s too: a span that
/// straddles an edge is drawn clipped to it, one that lies outside is not
/// drawn, and a track is declared only if something was drawn on it.
pub(crate) fn chrome_trace_json_window(records: &[TraceRecord], window: Window) -> String {
    // tid = BltId; the sets keep track order stable in the output.
    let mut tids: BTreeSet<u64> = BTreeSet::new();
    // A BLT's syscalls render on tid BASE + id.
    let mut sys_tids: BTreeSet<u64> = BTreeSet::new();
    let mut events: Vec<String> = Vec::new();
    // Sequential flow-arrow ids (Chrome pairs `s`/`f` halves by cat+id).
    let mut flow_id = 0u64;

    replay(records, window, |item| match item {
        // `kc_blocked` is drawn as the instant the park began, not a span.
        Item::Span { cut, state, .. } if !cut.counted || state == ProfileState::KcBlocked => {}
        Item::Span {
            blt,
            state,
            host,
            cut,
        } => {
            tids.insert(blt.0);
            // `decoupled` spans carry the dispatching KC as an argument.
            let args = host.map_or(String::new(), |h| {
                tids.insert(h.0);
                format!(",\"args\":{{\"scheduler\":\"blt:{}\"}}", h.0)
            });
            push_span(&mut events, blt.0, state.name(), cut.at_ns, cut.ns, &args);
        }
        Item::Mark { blt, mark, at_ns } => {
            let name = match mark {
                Mark::KcBlocked => "kc_blocked".to_string(),
                Mark::CoupleHandoff => "couple_handoff".to_string(),
                Mark::Signal(signal) => format!("signal:{signal}"),
                // §V-B hazard: a syscall issued while decoupled may land on
                // the wrong kernel context's state.
                Mark::SyscallViolation => "syscall_violation".to_string(),
            };
            let tid = if mark == Mark::SyscallViolation {
                sys_tids.insert(blt.0);
                SYSCALL_TID_BASE + blt.0
            } else {
                tids.insert(blt.0);
                blt.0
            };
            push_instant(&mut events, tid, &name, at_ns);
        }
        Item::Syscall {
            blt,
            path,
            cut,
            errno,
            coupled,
            ..
        } if cut.counted => {
            // `errno`/`coupled` land in `args` so Perfetto's detail pane
            // shows the outcome on click; errno 0 is a placeholder for a
            // call that had not returned by the horizon.
            sys_tids.insert(blt.0);
            let no = path.last().expect("a path ends in its own call");
            let args = format!(
                ",\"args\":{{\"errno\":{},\"coupled\":{coupled}}}",
                errno.unwrap_or(0)
            );
            let tid = SYSCALL_TID_BASE + blt.0;
            push_span(&mut events, tid, no.name(), cut.at_ns, cut.ns, &args);
        }
        Item::Wake {
            waker,
            wakee,
            site,
            delay_ns,
            at_ns,
            counted: true,
        } => {
            // Causality arrow: start on the waker's track at the moment the
            // wake was armed, finish on the wakee's track when it ran
            // again. Waker 0 (a thread outside the runtime) still gets a
            // track so the arrow has somewhere to start.
            tids.insert(waker.0);
            tids.insert(wakee.0);
            flow_id += 1;
            let armed = at_ns.saturating_sub(delay_ns);
            push_flow(&mut events, 's', flow_id, site, waker.0, armed);
            push_flow(&mut events, 'f', flow_id, site, wakee.0, at_ns);
        }
        _ => {}
    });

    // Metadata: one process, one named state track per BLT, plus its syscall
    // track; sort indices interleave them (state above, syscalls just below).
    let mut meta: Vec<String> = Vec::with_capacity(2 * (tids.len() + sys_tids.len()) + 1);
    meta.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"ulp-runtime\"}}"
            .to_string(),
    );
    for tid in &tids {
        meta.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"blt:{tid}\"}}}}",
        ));
        meta.push(format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"sort_index\":{}}}}}",
            2 * tid,
        ));
    }
    for uc in &sys_tids {
        let tid = SYSCALL_TID_BASE + uc;
        meta.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"syscalls blt:{uc}\"}}}}",
        ));
        meta.push(format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"sort_index\":{}}}}}",
            2 * uc + 1,
        ));
    }
    meta.extend(events);

    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
        meta.join(",\n")
    )
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Stack-pool counters and gauges for the exporter, decoupled from the
/// `StackPool` type so tests can fabricate values.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolMetrics {
    /// Acquisitions served from the free list / a recycled slab slot.
    pub hits: u64,
    /// Acquisitions that had to map or carve fresh memory.
    pub misses: u64,
    /// Stacks currently handed out and not yet released.
    pub outstanding: u64,
    /// High-water mark of simultaneously outstanding stacks.
    pub peak_outstanding: u64,
    /// Free stacks whose pages the scavenger dropped with `MADV_DONTNEED`.
    pub recycled: u64,
    /// Stacks currently cached for reuse.
    pub cached: u64,
    /// Cached stacks still holding their pages.
    pub warm: u64,
}

impl PoolMetrics {
    /// Snapshot a live pool's counters.
    pub fn from_pool(pool: &ulp_fcontext::StackPool) -> PoolMetrics {
        let (hits, misses) = pool.stats();
        PoolMetrics {
            hits: hits as u64,
            misses: misses as u64,
            outstanding: pool.outstanding() as u64,
            peak_outstanding: pool.peak_outstanding() as u64,
            recycled: pool.recycled() as u64,
            cached: pool.cached() as u64,
            warm: pool.warm() as u64,
        }
    }
}

/// One histogram series, cumulative `le`-bucketed up to the last occupied
/// bucket and then `+Inf`, carrying `label` (`("call", "read")`) when its
/// family is a labelled one. The only place a bucket line is written.
fn hist_series(out: &mut String, name: &str, label: Option<(&str, &str)>, d: &HistData) {
    let (lead, alone) = match label {
        Some((k, v)) => (format!("{k}=\"{v}\","), format!("{{{k}=\"{v}\"}}")),
        None => Default::default(),
    };
    let occupied = d.buckets.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    let mut cum = 0u64;
    let finite = d.buckets[..occupied]
        .iter()
        .enumerate()
        .filter_map(|(i, &c)| {
            cum += c;
            bucket_le(i).map(|le| (le.to_string(), cum))
        });
    for (le, n) in finite.chain([("+Inf".to_string(), d.count)]) {
        let _ = writeln!(out, "{name}_bucket{{{lead}le=\"{le}\"}} {n}");
    }
    let _ = writeln!(out, "{name}_sum{alone} {}", d.sum);
    let _ = writeln!(out, "{name}_count{alone} {}", d.count);
}

/// One-series families: `(kind, name, help, value)` each.
fn scalar_families(out: &mut String, rows: &[(&str, &str, &str, u64)]) {
    for (kind, name, help, value) in rows {
        header(out, name, help, kind);
        let _ = writeln!(out, "{name} {value}");
    }
}

/// A `label`-keyed counter family and the histogram family beside it (the
/// per-syscall and per-wake-site pairs). Zero-count rows are omitted
/// (standard practice for labelled families — absent series, not zero
/// series), but the HELP/TYPE headers are always present so scrapers see the
/// families exist.
fn labelled_families(
    out: &mut String,
    label: &str,
    (total, total_help): (&str, &str),
    (hist, hist_help): (&str, &str),
    rows: &[(&str, &HistData)],
) {
    header(out, total, total_help, "counter");
    for (value, d) in rows {
        let _ = writeln!(out, "{total}{{{label}=\"{value}\"}} {}", d.count);
    }
    header(out, hist, hist_help, "histogram");
    for (value, d) in rows {
        hist_series(out, hist, Some((label, value)), d);
    }
}

/// Render counters + latency histograms in the Prometheus text exposition
/// format (scrape-ready; also a convenient stable diff format for tests).
///
/// `sys` supplies the per-syscall latency families,
/// `kernel_syscalls_total` the kernel's all-time dispatch counter (counted
/// even when tracing is off, so it is passed separately from the snapshot),
/// `kernel_waits` how the waits of blocking kernel calls ended (process-wide,
/// likewise counted untraced), `violations_total` the runtime's recorded
/// system-call-consistency violations (the audit log's length — also
/// independent of tracing),
/// `trace_dropped` the tracer's lost-record count for the current recording
/// run (a gauge: `Tracer::enable` resets it) and `runqueue_depth` the
/// runnable UCs queued right now (a gauge).
#[allow(clippy::too_many_arguments)]
pub fn prometheus_text(
    stats: &StatsSnapshot,
    lat: &LatencySnapshot,
    sys: &SyscallSnapshot,
    kernel_syscalls_total: u64,
    kernel_waits: &WaitOutcomes,
    violations_total: u64,
    pool: &PoolMetrics,
    trace_dropped: u64,
    runqueue_depth: u64,
) -> String {
    let mut out = String::new();
    for c in stats.counters() {
        if !c.help.is_empty() {
            let family = c
                .series
                .split('{')
                .next()
                .expect("split yields a first piece");
            header(&mut out, family, c.help, "counter");
        }
        let _ = writeln!(out, "{} {}", c.series, c.value);
    }
    scalar_families(
        &mut out,
        &[
            (
                "gauge",
                "ulp_runqueue_depth",
                "Decoupled UCs queued for a scheduler right now.",
                runqueue_depth,
            ),
            (
                "counter",
                "ulp_kernel_syscalls_total",
                "System calls dispatched by the simulated kernel (all processes).",
                kernel_syscalls_total,
            ),
        ],
    );
    header(
        &mut out,
        "ulp_kernel_wait_total",
        "How blocking kernel calls that had to wait ended: spin_hit = satisfied while spinning \
         (an OS-thread sleep saved), spin_miss = spun, then slept or gave up anyway (CPU wasted), \
         sleep = every futex sleep.",
        "counter",
    );
    for (outcome, n) in kernel_waits.rows() {
        let _ = writeln!(out, "ulp_kernel_wait_total{{outcome=\"{outcome}\"}} {n}");
    }
    scalar_families(
        &mut out,
        &[
            (
                "counter",
                "ulp_syscall_violations_total",
                "System-call-consistency violations recorded by the audit log (§V-B hazards).",
                violations_total,
            ),
            (
                "counter",
                "ulp_stack_pool_hits_total",
                "Stack acquisitions served from the free list or a recycled slab slot.",
                pool.hits,
            ),
            (
                "counter",
                "ulp_stack_pool_misses_total",
                "Stack acquisitions that mapped or carved fresh memory.",
                pool.misses,
            ),
            (
                "counter",
                "ulp_stack_recycled_total",
                "Free stacks whose pages the pool's scavenger dropped with MADV_DONTNEED.",
                pool.recycled,
            ),
            (
                "gauge",
                "ulp_stack_warm",
                "Cached stacks still holding their pages (not yet trimmed by the scavenger).",
                pool.warm,
            ),
            (
                "gauge",
                "ulp_stack_outstanding",
                "Stacks currently handed out (live ULP/sibling/TC stacks).",
                pool.outstanding,
            ),
            (
                "gauge",
                "ulp_stack_outstanding_peak",
                "High-water mark of simultaneously outstanding stacks.",
                pool.peak_outstanding,
            ),
            (
                "gauge",
                "ulp_stack_cached",
                "Stacks currently cached for reuse in the pool.",
                pool.cached,
            ),
            (
                "gauge",
                "ulp_trace_dropped_total",
                "Trace records lost since the current recording run began (ring overflow).",
                trace_dropped,
            ),
        ],
    );
    labelled_families(
        &mut out,
        "call",
        (
            "ulp_syscall_total",
            "Simulated system calls completed, by call name.",
        ),
        (
            "ulp_syscall_latency_ns",
            "Syscall enter-to-exit latency, nanoseconds, by call name.",
        ),
        &sys.nonzero().collect::<Vec<_>>(),
    );
    labelled_families(
        &mut out,
        "site",
        (
            "ulp_wake_total",
            "Wake edges recorded, by the site that ended the wait.",
        ),
        (
            "ulp_wake_to_run_ns",
            "Wake armed to wakee running again, nanoseconds, by wake site.",
        ),
        &lat.wake.nonzero().collect::<Vec<_>>(),
    );
    for (name, help, d) in [
        (
            "ulp_queue_delay_ns",
            "Run-queue enqueue to scheduler dispatch, nanoseconds.",
            &lat.queue_delay,
        ),
        (
            "ulp_couple_resume_ns",
            "Couple request published to resume on the original KC, nanoseconds.",
            &lat.couple_resume,
        ),
        (
            "ulp_yield_interval_ns",
            "Interval between consecutive yields on one kernel context, nanoseconds.",
            &lat.yield_interval,
        ),
        (
            "ulp_kc_block_ns",
            "Kernel-context futex block to wake, nanoseconds.",
            &lat.kc_block,
        ),
    ] {
        header(&mut out, name, help, "histogram");
        hist_series(&mut out, name, None, d);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Event;
    use crate::uc::BltId;
    use ulp_kernel::Sysno;

    fn rec(at_ns: u64, event: Event) -> TraceRecord {
        TraceRecord {
            at_ns,
            event,
            kc: 1,
        }
    }

    fn fig6_records() -> Vec<TraceRecord> {
        vec![
            rec(0, Event::Spawn(BltId(4))),
            rec(100, Event::Decouple(BltId(4))),
            rec(
                250,
                Event::Dispatch {
                    uc: BltId(4),
                    scheduler: BltId(1),
                },
            ),
            rec(400, Event::CoupleRequest(BltId(4))),
            rec(600, Event::Coupled(BltId(4))),
            rec(650, Event::KcBlocked(BltId(4))),
            rec(
                700,
                Event::Signal {
                    uc: BltId(4),
                    signal: 10,
                },
            ),
            rec(800, Event::Terminate(BltId(4))),
        ]
    }

    #[test]
    fn chrome_trace_round_trips_through_serde_json() {
        let json = chrome_trace_json(&fig6_records());
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["displayTimeUnit"].as_str(), Some("ns"));
        let events = v["traceEvents"].as_array().expect("traceEvents array");
        assert!(!events.is_empty());
        // Every BLT lifecycle phase shows up as a complete span.
        let span_names: Vec<&str> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .filter_map(|e| e["name"].as_str())
            .collect();
        for expected in ["coupled", "queued", "decoupled", "coupling"] {
            assert!(span_names.contains(&expected), "missing span {expected}");
        }
        // Instants and metadata are present and well-formed.
        assert!(events
            .iter()
            .any(|e| e["ph"].as_str() == Some("i") && e["name"].as_str() == Some("kc_blocked")));
        assert!(events
            .iter()
            .any(|e| e["ph"].as_str() == Some("M") && e["name"].as_str() == Some("thread_name")));
        // Spans must not extend past the trace horizon (0.8 µs).
        for e in events.iter().filter(|e| e["ph"].as_str() == Some("X")) {
            let ts = e["ts"].as_f64().unwrap();
            let dur = e["dur"].as_f64().unwrap();
            assert!(ts + dur <= 0.8 + 1e-9, "span escapes horizon: {e:?}");
        }
    }

    #[test]
    fn chrome_trace_of_empty_input_is_valid() {
        let json = chrome_trace_json(&[]);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(v["traceEvents"].as_array().is_some());
    }

    #[test]
    fn dispatch_span_carries_scheduler_arg() {
        let json = chrome_trace_json(&fig6_records());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let decoupled = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e["name"].as_str() == Some("decoupled"))
            .expect("decoupled span");
        assert_eq!(decoupled["args"]["scheduler"].as_str(), Some("blt:1"));
    }

    /// A home dispatch names the BLT's own KC as the host, and the
    /// `Requeue` of a `yield_now()` at home puts it back in the queue.
    #[test]
    fn home_dispatch_and_requeue_render_as_states() {
        let json = chrome_trace_json(&[
            rec(0, Event::Spawn(BltId(4))),
            rec(100, Event::Decouple(BltId(4))),
            rec(
                110,
                Event::Dispatch {
                    uc: BltId(4),
                    scheduler: BltId(4),
                },
            ),
            rec(200, Event::Requeue(BltId(4))),
            rec(300, Event::Terminate(BltId(4))),
        ]);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let spans: Vec<(&str, f64)> = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .map(|e| (e["name"].as_str().unwrap(), e["ts"].as_f64().unwrap()))
            .collect();
        assert_eq!(
            spans,
            [
                ("coupled", 0.0),
                ("queued", 0.1),
                ("decoupled", 0.11),
                ("queued", 0.2)
            ]
        );
        let hosted = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e["name"].as_str() == Some("decoupled"))
            .expect("decoupled span");
        assert_eq!(hosted["args"]["scheduler"].as_str(), Some("blt:4"));
    }

    #[test]
    fn prometheus_text_shape() {
        let stats = StatsSnapshot {
            context_switches: 42,
            yields: 7,
            ..Default::default()
        };
        let mut lat = LatencySnapshot::default();
        // Two samples: bucket(100)=8, bucket(300)=10.
        lat.queue_delay.buckets[crate::hist::bucket_index(100)] += 1;
        lat.queue_delay.buckets[crate::hist::bucket_index(300)] += 1;
        lat.queue_delay.count = 2;
        lat.queue_delay.sum = 400;
        lat.queue_delay.max = 300;
        let pool = PoolMetrics {
            hits: 9,
            misses: 4,
            outstanding: 2,
            peak_outstanding: 6,
            recycled: 7,
            cached: 3,
            warm: 1,
        };
        let waits = WaitOutcomes {
            spin_hits: 11,
            spin_misses: 1,
            sleeps: 4,
        };
        let sys = SyscallSnapshot::new();
        let text = prometheus_text(&stats, &lat, &sys, 0, &waits, 3, &pool, 5, 7);
        assert!(text.contains("# TYPE ulp_kernel_wait_total counter"));
        assert!(text.contains(
            "ulp_kernel_wait_total{outcome=\"spin_hit\"} 11\n\
             ulp_kernel_wait_total{outcome=\"spin_miss\"} 1\n\
             ulp_kernel_wait_total{outcome=\"sleep\"} 4\n"
        ));
        assert!(text.contains("ulp_context_switches_total 42\n"));
        assert!(text.contains("ulp_decouple_home_total 0\n"));
        assert!(text.contains("ulp_yield_home_total 0\n"));
        assert!(text.contains("# TYPE ulp_runqueue_depth gauge"));
        assert!(text.contains("ulp_runqueue_depth 7\n"));
        assert!(text.contains("# TYPE ulp_trace_dropped_total gauge"));
        assert!(text.contains("ulp_trace_dropped_total 5\n"));
        assert!(text.contains("# TYPE ulp_park_total counter"));
        assert!(text.contains("ulp_park_total{outcome=\"spin_miss\"} 0\n"));
        assert!(text.contains("# TYPE ulp_stack_outstanding gauge"));
        assert!(text.contains("ulp_stack_pool_hits_total 9\n"));
        assert!(text.contains("ulp_stack_pool_misses_total 4\n"));
        assert!(text.contains("ulp_stack_outstanding 2\n"));
        assert!(text.contains("ulp_stack_outstanding_peak 6\n"));
        assert!(text.contains("ulp_stack_recycled_total 7\n"));
        assert!(text.contains("# TYPE ulp_stack_warm gauge"));
        assert!(text.contains("ulp_stack_warm 1\n"));
        assert!(text.contains("ulp_stack_cached 3\n"));
        assert!(text.contains("ulp_pooled_spawned_total 0\n"));
        assert!(text.contains("# TYPE ulp_syscall_violations_total counter"));
        assert!(text.contains("ulp_syscall_violations_total 3\n"));
        assert!(text.contains("ulp_yields_total 7\n"));
        assert!(text.contains("# TYPE ulp_queue_delay_ns histogram"));
        // Cumulative buckets: the 100-ns sample is <= 127, both are <= 511.
        assert!(text.contains("ulp_queue_delay_ns_bucket{le=\"127\"} 1"));
        assert!(text.contains("ulp_queue_delay_ns_bucket{le=\"511\"} 2"));
        assert!(text.contains("ulp_queue_delay_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("ulp_queue_delay_ns_sum 400"));
        assert!(text.contains("ulp_queue_delay_ns_count 2"));
        // Empty histograms still expose the +Inf bucket.
        assert!(text.contains("ulp_kc_block_ns_bucket{le=\"+Inf\"} 0"));
    }

    #[test]
    fn syscall_spans_render_on_their_own_track() {
        // A coupled `read` that sleeps in `pipe_block_read`, then a
        // decoupled `getpid` — the consistency violation the timeline is
        // supposed to make obvious.
        let records = vec![
            rec(0, Event::Spawn(BltId(4))),
            rec(
                100,
                Event::SyscallEnter {
                    uc: BltId(4),
                    sysno: Sysno::Read,
                    coupled: true,
                },
            ),
            rec(
                150,
                Event::SyscallEnter {
                    uc: BltId(4),
                    sysno: Sysno::PipeBlockRead,
                    coupled: true,
                },
            ),
            rec(
                400,
                Event::SyscallExit {
                    uc: BltId(4),
                    sysno: Sysno::PipeBlockRead,
                    coupled: true,
                    errno: 0,
                },
            ),
            rec(
                450,
                Event::SyscallExit {
                    uc: BltId(4),
                    sysno: Sysno::Read,
                    coupled: true,
                    errno: 0,
                },
            ),
            rec(500, Event::Decouple(BltId(4))),
            rec(
                600,
                Event::SyscallEnter {
                    uc: BltId(4),
                    sysno: Sysno::Getpid,
                    coupled: false,
                },
            ),
            rec(
                650,
                Event::SyscallExit {
                    uc: BltId(4),
                    sysno: Sysno::Getpid,
                    coupled: false,
                    errno: 0,
                },
            ),
            rec(800, Event::Terminate(BltId(4))),
        ];
        let json = chrome_trace_json(&records);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v["traceEvents"].as_array().unwrap();
        let sys_tid = (SYSCALL_TID_BASE + 4) as f64;

        // Syscall spans live on their own track, nested read > pipe_block_read.
        let span = |name: &str| {
            events
                .iter()
                .find(|e| e["ph"].as_str() == Some("X") && e["name"].as_str() == Some(name))
                .unwrap_or_else(|| panic!("missing span {name}"))
        };
        for name in ["read", "pipe_block_read", "getpid"] {
            assert_eq!(span(name)["tid"].as_f64(), Some(sys_tid));
        }
        assert!(span("read")["dur"].as_f64() > span("pipe_block_read")["dur"].as_f64());
        assert_eq!(span("getpid")["args"]["coupled"].as_bool(), Some(false));
        assert_eq!(span("read")["args"]["errno"].as_i64(), Some(0));

        // The decoupled getpid left a violation instant on the same track.
        assert!(events.iter().any(|e| {
            e["ph"].as_str() == Some("i")
                && e["name"].as_str() == Some("syscall_violation")
                && e["tid"].as_f64() == Some(sys_tid)
        }));

        // Both tracks are named and sorted adjacent (state 8, syscalls 9).
        let sort_of = |tid: f64| {
            events
                .iter()
                .find(|e| {
                    e["name"].as_str() == Some("thread_sort_index")
                        && e["tid"].as_f64() == Some(tid)
                })
                .and_then(|e| e["args"]["sort_index"].as_i64())
        };
        assert_eq!(sort_of(4.0), Some(8));
        assert_eq!(sort_of(sys_tid), Some(9));
        assert!(events.iter().any(|e| {
            e["name"].as_str() == Some("thread_name")
                && e["args"]["name"].as_str() == Some("syscalls blt:4")
        }));
    }

    #[test]
    fn unbalanced_syscall_records_still_render_sanely() {
        // Exit with no enter (tracing enabled mid-call) draws nothing; an
        // enter with no exit is closed at the trace horizon.
        let records = vec![
            rec(
                100,
                Event::SyscallExit {
                    uc: BltId(2),
                    sysno: Sysno::Close,
                    coupled: true,
                    errno: 0,
                },
            ),
            rec(
                200,
                Event::SyscallEnter {
                    uc: BltId(2),
                    sysno: Sysno::FutexWait,
                    coupled: true,
                },
            ),
            rec(900, Event::KcBlocked(BltId(2))),
        ];
        let json = chrome_trace_json(&records);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v["traceEvents"].as_array().unwrap();
        assert!(!events.iter().any(|e| e["name"].as_str() == Some("close")));
        let futex = events
            .iter()
            .find(|e| e["name"].as_str() == Some("futex_wait"))
            .expect("open span closed at horizon");
        assert_eq!(futex["ts"].as_f64(), Some(0.2));
        assert_eq!(futex["dur"].as_f64(), Some(0.7));
    }

    fn sys(at_ns: u64, kc: u32, uc: u64, sysno: Sysno, exit: bool) -> TraceRecord {
        let (uc, coupled) = (BltId(uc), true);
        let event = if exit {
            Event::SyscallExit {
                uc,
                sysno,
                coupled,
                errno: 0,
            }
        } else {
            Event::SyscallEnter { uc, sysno, coupled }
        };
        TraceRecord { at_ns, event, kc }
    }

    fn spans(json: &str) -> Vec<(String, u64, f64, f64)> {
        let v: serde_json::Value = serde_json::from_str(json).expect("valid JSON");
        v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .map(|e| {
                (
                    e["name"].as_str().unwrap().to_string(),
                    e["tid"].as_f64().unwrap() as u64,
                    e["ts"].as_f64().unwrap(),
                    e["dur"].as_f64().unwrap(),
                )
            })
            .collect()
    }

    /// Two unbound threads (both report `BltId(0)`) sleep in overlapping
    /// `futex_wait`s on their own shards: each exit closes its own shard's
    /// enter, so each span keeps its own duration.
    #[test]
    fn blt0_syscall_streams_pair_by_shard() {
        let json = chrome_trace_json(&[
            sys(100, 1, 0, Sysno::FutexWait, false),
            sys(200, 2, 0, Sysno::FutexWait, false),
            sys(300, 1, 0, Sysno::FutexWait, true),
            sys(900, 2, 0, Sysno::FutexWait, true),
        ]);
        let tid = SYSCALL_TID_BASE;
        assert_eq!(
            spans(&json),
            [
                ("futex_wait".to_string(), tid, 0.1, 0.2),
                ("futex_wait".to_string(), tid, 0.2, 0.7)
            ]
        );
    }

    /// A sibling records `Spawn` and then a `Dispatch`: it was born into the
    /// run queue, and the timeline says so like the flamegraph does.
    #[test]
    fn sibling_birth_span_renders_queued() {
        let json = chrome_trace_json(&[
            rec(0, Event::Spawn(BltId(9))),
            rec(
                300,
                Event::Dispatch {
                    uc: BltId(9),
                    scheduler: BltId(1),
                },
            ),
            rec(500, Event::Terminate(BltId(9))),
        ]);
        assert_eq!(
            spans(&json),
            [
                ("queued".to_string(), 9, 0.0, 0.3),
                ("decoupled".to_string(), 9, 0.3, 0.2)
            ]
        );
    }

    /// A mismatched exit clears the shard's stack, as in the live recorder
    /// and the fold: the `open` it would otherwise have left behind is not
    /// paired with a later exit. And a BLT whose only syscall record is an
    /// orphan exit has nothing drawn, so no syscall track is declared.
    #[test]
    fn mismatched_exit_clears_the_stack_and_orphans_declare_no_track() {
        let json = chrome_trace_json(&[
            sys(100, 1, 4, Sysno::Open, false),
            sys(200, 1, 4, Sysno::Close, true),
            sys(300, 1, 4, Sysno::Open, true),
            sys(400, 1, 4, Sysno::Getpid, false),
            sys(450, 1, 4, Sysno::Getpid, true),
            sys(500, 1, 7, Sysno::Close, true),
        ]);
        let tid = SYSCALL_TID_BASE + 4;
        assert_eq!(spans(&json), [("getpid".to_string(), tid, 0.4, 0.05)]);
        assert!(json.contains("\"syscalls blt:4\""));
        assert!(!json.contains("\"syscalls blt:7\""), "{json}");
    }

    /// A window is the fold's window: spans are clipped to it at both edges,
    /// what lies outside is neither drawn nor given a track.
    #[test]
    fn windowed_export_clips_spans_to_the_window() {
        // fig6 (blt 4): coupled [0,100] queued [100,250] decoupled [250,400]
        // coupling [400,600] coupled [600,800]; instants at 650 and 700.
        let json = chrome_trace_json_window(&fig6_records(), Some((300, 450)));
        assert_eq!(
            spans(&json),
            [
                ("decoupled".to_string(), 4, 0.3, 0.1),
                ("coupling".to_string(), 4, 0.4, 0.05)
            ]
        );
        assert!(!json.contains("kc_blocked") && !json.contains("signal:10"));
        // Wholly inside one span: that span, the window's width.
        let json = chrome_trace_json_window(&fig6_records(), Some((300, 350)));
        assert_eq!(spans(&json), [("decoupled".to_string(), 4, 0.3, 0.05)]);
        // Before anything happened on another BLT's clock: nothing at all.
        let json = chrome_trace_json_window(&fig6_records(), Some((900, 950)));
        assert!(spans(&json).is_empty() && !json.contains("blt:4"));
    }

    #[test]
    fn prometheus_syscall_series() {
        let mut sys = SyscallSnapshot::new();
        {
            let row = sys
                .calls
                .iter_mut()
                .find(|(n, _)| *n == "read")
                .expect("read row");
            row.1.buckets[crate::hist::bucket_index(100)] += 2;
            row.1.count = 2;
            row.1.sum = 200;
            row.1.max = 100;
        }
        let text = prometheus_text(
            &StatsSnapshot::default(),
            &LatencySnapshot::default(),
            &sys,
            17,
            &WaitOutcomes::default(),
            0,
            &PoolMetrics::default(),
            0,
            0,
        );
        assert!(text.contains("ulp_kernel_syscalls_total 17\n"));
        assert!(text.contains("ulp_syscall_violations_total 0\n"));
        assert!(text.contains("# TYPE ulp_syscall_total counter"));
        assert!(text.contains("ulp_syscall_total{call=\"read\"} 2\n"));
        assert!(text.contains("# TYPE ulp_syscall_latency_ns histogram"));
        assert!(text.contains("ulp_syscall_latency_ns_bucket{call=\"read\",le=\"127\"} 2"));
        assert!(text.contains("ulp_syscall_latency_ns_bucket{call=\"read\",le=\"+Inf\"} 2"));
        assert!(text.contains("ulp_syscall_latency_ns_sum{call=\"read\"} 200"));
        assert!(text.contains("ulp_syscall_latency_ns_count{call=\"read\"} 2"));
        // Zero-count calls are absent series, not zero series.
        assert!(!text.contains("call=\"getpid\""));
    }

    #[test]
    fn wake_events_render_as_paired_flow_arrows() {
        use ulp_kernel::WakeSite;
        let records = vec![
            rec(0, Event::Spawn(BltId(3))),
            rec(0, Event::Spawn(BltId(4))),
            rec(100, Event::Decouple(BltId(4))),
            rec(
                500,
                Event::Wake {
                    waker: BltId(3),
                    wakee: BltId(4),
                    site: WakeSite::PipeRead,
                    delay_ns: 300,
                },
            ),
            rec(
                500,
                Event::Dispatch {
                    uc: BltId(4),
                    scheduler: BltId(1),
                },
            ),
            rec(800, Event::Terminate(BltId(4))),
        ];
        let json = chrome_trace_json(&records);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v["traceEvents"].as_array().unwrap();
        let start = events
            .iter()
            .find(|e| e["ph"].as_str() == Some("s"))
            .expect("flow start");
        let finish = events
            .iter()
            .find(|e| e["ph"].as_str() == Some("f"))
            .expect("flow finish");
        // Paired by cat+id, labelled with the site, waker → wakee.
        assert_eq!(start["cat"].as_str(), Some("wake"));
        assert_eq!(start["id"], finish["id"]);
        assert_eq!(start["name"].as_str(), Some("wake:pipe_read"));
        assert_eq!(finish["name"].as_str(), Some("wake:pipe_read"));
        assert_eq!(start["tid"].as_f64(), Some(3.0));
        assert_eq!(finish["tid"].as_f64(), Some(4.0));
        // Start sits delay_ns before the finish (0.2 µs vs 0.5 µs).
        assert_eq!(start["ts"].as_f64(), Some(0.2));
        assert_eq!(finish["ts"].as_f64(), Some(0.5));
        assert_eq!(finish["bp"].as_str(), Some("e"));
    }

    #[test]
    fn prometheus_wake_series() {
        use ulp_kernel::WakeSite;
        let mut lat = LatencySnapshot::default();
        let d = &mut lat.wake.sites[WakeSite::EpollWait as usize];
        d.buckets[crate::hist::bucket_index(100)] += 3;
        d.count = 3;
        d.sum = 300;
        d.max = 100;
        let text = prometheus_text(
            &StatsSnapshot::default(),
            &lat,
            &SyscallSnapshot::new(),
            0,
            &WaitOutcomes::default(),
            0,
            &PoolMetrics::default(),
            0,
            0,
        );
        assert!(text.contains("# TYPE ulp_wake_total counter"));
        assert!(text.contains("ulp_wake_total{site=\"epoll_wait\"} 3\n"));
        assert!(text.contains("# TYPE ulp_wake_to_run_ns histogram"));
        assert!(text.contains("ulp_wake_to_run_ns_bucket{site=\"epoll_wait\",le=\"127\"} 3"));
        assert!(text.contains("ulp_wake_to_run_ns_bucket{site=\"epoll_wait\",le=\"+Inf\"} 3"));
        assert!(text.contains("ulp_wake_to_run_ns_sum{site=\"epoll_wait\"} 300"));
        assert!(text.contains("ulp_wake_to_run_ns_count{site=\"epoll_wait\"} 3"));
        // Zero-count sites are absent series, not zero series.
        assert!(!text.contains("site=\"futex_wake\""));
    }

    #[test]
    fn prometheus_cumulative_buckets_are_monotone() {
        let mut lat = LatencySnapshot::default();
        for (i, b) in lat.couple_resume.buckets.iter_mut().enumerate().take(20) {
            *b = (i % 3) as u64;
            lat.couple_resume.count += (i % 3) as u64;
        }
        let text = prometheus_text(
            &StatsSnapshot::default(),
            &lat,
            &SyscallSnapshot::new(),
            0,
            &WaitOutcomes::default(),
            0,
            &PoolMetrics::default(),
            0,
            0,
        );
        let mut prev = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("ulp_couple_resume_ns_bucket") && !l.contains("+Inf"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "non-monotone cumulative bucket: {line}");
            prev = v;
        }
    }
}
