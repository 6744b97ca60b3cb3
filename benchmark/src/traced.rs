//! Per-layer metrics of the traced repetition: what the harness spans and
//! the runtime's own telemetry (`Runtime::latency_snapshot`,
//! `syscall_snapshot`, `trace_dropped`) say about where an operation's time
//! went.
//!
//! The runtime's histograms are log2-bucketed, so a `*_ns_p50` taken from
//! them resolves a factor of two at best; those metrics carry the unit
//! `ns_log2` to say so. Span-derived ones are exact to the clock.

use crate::json::{num, nums, obj};
use crate::rep::Window;
use crate::span::{median_u64, p50_of, self_times, Name, SpanBuf};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
use ulp_core::{HistData, Runtime, WakeSite};

/// Wake sites reported as `<prefix>_ns_p50` + `<prefix>_per_op`.
const WAKE_SITES: [(WakeSite, &str); 5] = [
    (WakeSite::Enqueue, "core.runqueue.wake_enqueue"),
    (WakeSite::CoupleResume, "core.couple.wake_couple_resume"),
    (WakeSite::KcNotify, "core.kc.wake_kc_notify"),
    (WakeSite::SockRead, "kernel.socket.wake_sock_read"),
    (WakeSite::EpollWait, "kernel.poll.wake_epoll_wait"),
];

/// Simulated system calls reported as `kernel.syscall.<name>_ns_p50`.
const SYSCALLS: [&str; 8] = [
    "open",
    "close",
    "read",
    "write",
    "pread",
    "pwrite",
    "stat",
    "epoll_wait",
];

pub struct TracedOut {
    /// Metric name → value, for every traced metric a child can compute by
    /// itself (the parent adds the ones that need a second repetition or
    /// the ladder).
    pub metrics: BTreeMap<String, f64>,
    /// Simulated system calls per operation, by call name — the cost
    /// model's syscall term.
    pub syscalls_per_op: BTreeMap<String, f64>,
    /// Wake edges per operation, by site name — the model's sleeper term.
    pub wakes_per_op: BTreeMap<String, f64>,
    pub spans_recorded: u64,
    pub spans_dropped: u64,
}

fn p50(h: &HistData) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.p50()
    }
}

/// What the echo workload knows that the spans alone do not.
pub struct EchoView {
    /// Track of the server ULP: its `read`/`write` spans are the far side
    /// of the clients' `write`/`read`.
    pub server_track: u32,
    /// Nanoseconds of the window the server spent inside `epoll_wait`.
    pub server_epoll_ns: u64,
}

/// Client-write-end → server-read-start and server-write-end →
/// client-read-end medians, joined on the request id the server reads out
/// of the frame.
fn wake_latencies(bufs: &[SpanBuf], server_track: u32) -> (f64, f64) {
    let mut client_write_end = HashMap::new();
    let mut client_read_end = HashMap::new();
    for s in bufs
        .iter()
        .filter(|b| b.track != server_track)
        .flat_map(|b| b.spans())
        .filter(|s| s.rid != 0)
    {
        if s.name == Name::Write as u16 {
            client_write_end.insert(s.rid, s.end_ns);
        } else if s.name == Name::Read as u16 {
            client_read_end.insert(s.rid, s.end_ns);
        }
    }
    let (mut c2s, mut s2c) = (Vec::new(), Vec::new());
    for s in bufs
        .iter()
        .filter(|b| b.track == server_track)
        .flat_map(|b| b.spans())
        .filter(|s| s.rid != 0)
    {
        if s.name == Name::Read as u16 {
            if let Some(&w) = client_write_end.get(&s.rid) {
                c2s.push(s.start_ns.saturating_sub(w));
            }
        } else if s.name == Name::Write as u16 {
            if let Some(&r) = client_read_end.get(&s.rid) {
                s2c.push(r.saturating_sub(s.end_ns));
            }
        }
    }
    (median_u64(&mut c2s), median_u64(&mut s2c))
}

/// Share of the request spans' time that no child span accounts for, %.
fn span_residual_pct(bufs: &[SpanBuf]) -> f64 {
    let (mut own, mut total) = (0u64, 0u64);
    for b in bufs {
        let spans = b.spans();
        let st = self_times(spans);
        for (s, own_ns) in spans.iter().zip(st) {
            if s.name == Name::Request as u16 && s.end_ns != 0 {
                own += own_ns;
                total += s.dur();
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * own as f64 / total as f64
    }
}

pub fn derive(rt: &Runtime, bufs: &[SpanBuf], w: &Window, echo: Option<&EchoView>) -> TracedOut {
    let ops = w.ops.max(1) as f64;
    let mut m = BTreeMap::new();
    // On echo, `write`/`read` medians are the clients' (the read is the one
    // that sleeps); the server's far side shows in the c2s/s2c metrics.
    let server = echo.map(|e| e.server_track);
    let callers = |b: &&SpanBuf| Some(b.track) != server;
    for (metric, name) in [
        ("core.couple.couple_call_ns_p50", Name::Couple),
        ("core.couple.decouple_call_ns_p50", Name::Decouple),
        ("core.sys.write_call_ns_p50", Name::Write),
        ("core.sys.read_call_ns_p50", Name::Read),
    ] {
        m.insert(
            metric.to_string(),
            p50_of(bufs.iter().filter(callers), name),
        );
    }
    m.insert(
        "core.sys.epoll_wait_call_ns_p50".to_string(),
        p50_of(bufs, Name::EpollWait),
    );
    if let Some(e) = echo {
        let (c2s, s2c) = wake_latencies(bufs, e.server_track);
        m.insert("kernel.socket.c2s_wake_ns_p50".to_string(), c2s);
        m.insert("kernel.socket.s2c_wake_ns_p50".to_string(), s2c);
        m.insert(
            "kernel.poll.server_busy_ratio".to_string(),
            (1.0 - e.server_epoll_ns as f64 / (w.secs * 1e9)).clamp(0.0, 1.0),
        );
    }
    m.insert(
        "budget.span_residual_pct".to_string(),
        span_residual_pct(bufs),
    );

    let lat = rt.latency_snapshot();
    m.insert(
        "core.runqueue.queue_delay_ns_p50".to_string(),
        p50(&lat.queue_delay),
    );
    m.insert(
        "core.couple.resume_ns_p50".to_string(),
        p50(&lat.couple_resume),
    );
    m.insert("core.kc.block_ns_p50".to_string(), p50(&lat.kc_block));
    for (site, prefix) in WAKE_SITES {
        let h = lat.wake.site(site);
        m.insert(format!("{prefix}_ns_p50"), p50(h));
        m.insert(format!("{prefix}_per_op"), h.count as f64 / ops);
    }
    let sys = rt.syscall_snapshot();
    for name in SYSCALLS {
        let v = sys.get(name).map(p50).unwrap_or(0.0);
        m.insert(format!("kernel.syscall.{name}_ns_p50"), v);
    }
    // Losses are counted when the rings are drained.
    drop(rt.take_trace());
    m.insert(
        "core.trace.dropped_records".to_string(),
        rt.trace_dropped() as f64,
    );

    TracedOut {
        metrics: m,
        syscalls_per_op: sys
            .nonzero()
            .map(|(n, h)| (n.to_string(), h.count as f64 / ops))
            .collect(),
        wakes_per_op: lat
            .wake
            .nonzero()
            .map(|(n, h)| (n.to_string(), h.count as f64 / ops))
            .collect(),
        spans_recorded: bufs.iter().map(|b| b.spans().len() as u64).sum(),
        spans_dropped: bufs.iter().map(SpanBuf::dropped).sum(),
    }
}

impl TracedOut {
    pub fn to_json(&self) -> Value {
        let map = |m: &BTreeMap<String, f64>| nums(m.iter().map(|(k, v)| (k.as_str(), *v)));
        obj([
            ("metrics", map(&self.metrics)),
            ("syscalls_per_op", map(&self.syscalls_per_op)),
            ("wakes_per_op", map(&self.wakes_per_op)),
            ("spans_recorded", num(self.spans_recorded as f64)),
            ("spans_dropped", num(self.spans_dropped as f64)),
        ])
    }
}
