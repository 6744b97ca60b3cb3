//! Smoke tests for the live Prometheus endpoint.
//!
//! `ULP_METRICS_ADDR=127.0.0.1:0` (or `Runtime::serve_metrics`) starts a
//! tiny blocking HTTP/1.0 listener on a dedicated thread; a scrape must
//! return parseable Prometheus text exposition including the per-syscall
//! `ulp_syscall_*` families. These tests speak raw HTTP over a
//! `TcpStream` — exactly what `curl` and a Prometheus scraper do.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One GET against the endpoint; returns (status line, body).
fn scrape(addr: SocketAddr, path: &str, method: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect to metrics endpoint");
    write!(conn, "{method} {path} HTTP/1.0\r\nHost: ulp\r\n\r\n").unwrap();
    let mut resp = String::new();
    conn.read_to_string(&mut resp).unwrap();
    let (head, body) = resp.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Minimal exposition-format check: every non-comment, non-blank line is
/// `name[{labels}] <number>`, and every `# TYPE` names a known metric type.
fn assert_parses_as_exposition(body: &str) {
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let kind = rest.split_whitespace().nth(1).expect("TYPE has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram" | "summary"),
                "unknown metric type: {line}"
            );
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value: {line}"
        );
        let name = name_part.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name: {line}"
        );
    }
}

/// The env-var path: `ULP_METRICS_ADDR=127.0.0.1:0` binds a free port,
/// implies tracing (so the syscall families fill), and a scrape returns the
/// `ulp_syscall_*` series for the workload that ran.
#[test]
fn env_var_endpoint_serves_syscall_families() {
    std::env::set_var("ULP_METRICS_ADDR", "127.0.0.1:0");
    let rt = ulp_core::Runtime::builder().schedulers(1).build();
    std::env::remove_var("ULP_METRICS_ADDR");
    let addr = rt.metrics_addr().expect("endpoint must have started");
    assert!(rt.trace_enabled(), "metrics endpoint implies tracing");

    let h = rt.spawn("workload", || {
        for _ in 0..10 {
            ulp_core::sys::getpid().unwrap();
        }
        0
    });
    assert_eq!(h.wait(), 0);

    let (status, body) = scrape(addr, "/metrics", "GET");
    assert!(status.contains("200"), "bad status: {status}");
    assert_parses_as_exposition(&body);
    assert!(body.contains("ulp_kernel_syscalls_total "));
    assert!(body.contains("ulp_context_switches_total "));
    assert!(
        body.contains("ulp_syscall_total{call=\"getpid\"}"),
        "per-call counter missing:\n{body}"
    );
    assert!(
        body.contains("ulp_syscall_latency_ns_bucket{call=\"getpid\",le=\""),
        "per-call latency buckets missing:\n{body}"
    );
    assert!(body.contains("ulp_syscall_latency_ns_count{call=\"getpid\"}"));

    // The getpid sample count is at least the workload's 10 calls.
    let count: u64 = body
        .lines()
        .find(|l| l.starts_with("ulp_syscall_total{call=\"getpid\"}"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("getpid counter sample");
    assert!(count >= 10, "expected >= 10 getpid calls, saw {count}");
}

/// The programmatic path plus HTTP edge cases: `/` aliases `/metrics`,
/// unknown paths 404, non-GET methods 405, and shutdown closes the
/// listener.
#[test]
fn serve_metrics_api_and_http_edge_cases() {
    let rt = ulp_core::Runtime::builder().schedulers(1).build();
    assert!(rt.metrics_addr().is_none(), "no endpoint until asked");
    let addr = rt.serve_metrics("127.0.0.1:0").expect("bind a free port");
    assert_eq!(rt.metrics_addr(), Some(addr));

    let (status, body) = scrape(addr, "/", "GET");
    assert!(status.contains("200"), "bad status: {status}");
    assert_parses_as_exposition(&body);

    let (status, _) = scrape(addr, "/nope", "GET");
    assert!(status.contains("404"), "bad status: {status}");
    let (status, _) = scrape(addr, "/metrics", "POST");
    assert!(status.contains("405"), "bad status: {status}");

    rt.shutdown();
    assert!(
        rt.metrics_addr().is_none(),
        "endpoint dies with the runtime"
    );
    // The port is released: either connects are refused outright or the
    // socket is gone; a fresh connect must not produce a 200 scrape.
    if let Ok(mut conn) = TcpStream::connect(addr) {
        let _ = write!(conn, "GET /metrics HTTP/1.0\r\n\r\n");
        let mut resp = String::new();
        let _ = conn.read_to_string(&mut resp);
        assert!(
            !resp.contains("200 OK"),
            "listener answered after shutdown: {resp}"
        );
    }
}

/// Prometheus typically isn't the only scraper (a dashboard, a human with
/// `curl`). Connections are answered on capped worker threads — both
/// clients must get complete, parseable responses, and neither may
/// deadlock the other.
#[test]
fn concurrent_scrapes_are_both_served() {
    let rt = ulp_core::Runtime::builder().schedulers(1).build();
    let addr = rt.serve_metrics("127.0.0.1:0").expect("bind a free port");

    // Open both connections and send both requests BEFORE reading either
    // response, so the second request queues behind the first inside the
    // server rather than being serialized by the client.
    let mut a = TcpStream::connect(addr).expect("first client");
    let mut b = TcpStream::connect(addr).expect("second client");
    write!(a, "GET /metrics HTTP/1.0\r\nHost: ulp\r\n\r\n").unwrap();
    write!(b, "GET /metrics HTTP/1.0\r\nHost: ulp\r\n\r\n").unwrap();

    // Read in the opposite order from connection setup: if the server
    // wedged on client `a`, reading `b` first would hang here.
    for (name, conn) in [("b", &mut b), ("a", &mut a)] {
        conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp)
            .unwrap_or_else(|e| panic!("client {name} never got a response: {e}"));
        let (head, body) = resp
            .split_once("\r\n\r\n")
            .unwrap_or_else(|| panic!("client {name}: no header/body split"));
        assert!(
            head.lines().next().unwrap_or("").contains("200"),
            "client {name}: bad status: {head}"
        );
        assert_parses_as_exposition(body);
        // Content-Length must match what actually arrived — a truncated
        // body would parse line-by-line yet still be half a scrape.
        let declared: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("client {name}: no Content-Length"));
        assert_eq!(declared, body.len(), "client {name}: truncated body");
    }
}

/// Concurrency, not just fairness: a stalled client must not serialize the
/// endpoint. Client A opens a connection and sends an *incomplete* request
/// (its worker blocks in `read` for up to the 2-second timeout); client B's
/// complete scrape must be answered while A is still stalled — on the old
/// serial accept loop this took the full 2 seconds, now it overlaps.
#[test]
fn stalled_client_does_not_serialize_scrapes() {
    let rt = ulp_core::Runtime::builder().schedulers(1).build();
    let addr = rt.serve_metrics("127.0.0.1:0").expect("bind a free port");

    let mut stalled = TcpStream::connect(addr).expect("stalled client");
    write!(stalled, "GET /metrics HTTP/1.0\r\nHost:").unwrap(); // no terminator
    stalled.flush().unwrap();

    let t0 = std::time::Instant::now();
    let (status, body) = scrape(addr, "/metrics", "GET");
    let waited = t0.elapsed();
    assert!(status.contains("200"), "bad status: {status}");
    assert_parses_as_exposition(&body);
    assert!(
        waited < std::time::Duration::from_millis(1500),
        "scrape waited {waited:?} behind a stalled client — connections \
         are being serialized"
    );

    // The stalled client is not abandoned either: completing its request
    // (within its worker's read timeout) still yields a full response.
    write!(stalled, " ulp\r\n\r\n").unwrap();
    let mut resp = String::new();
    stalled.read_to_string(&mut resp).unwrap();
    assert!(
        resp.lines().next().unwrap_or("").contains("200"),
        "stalled client never served: {resp}"
    );
}

/// The live profiling routes. `/profile` must return collapsed-stack text
/// that parses and agrees exactly with `Runtime::profile_snapshot` (the
/// acceptance contract), `/profile.json` valid JSON of the same numbers,
/// and `/trace` parseable Chrome-trace JSON — all *without* draining the
/// rings or stopping the tracer.
#[test]
fn profile_and_trace_routes_serve_live_views() {
    let rt = ulp_core::Runtime::builder().schedulers(1).build();
    let addr = rt.serve_metrics("127.0.0.1:0").expect("bind a free port");
    rt.trace_enable();

    let h = rt.spawn("workload", || {
        ulp_core::decouple().unwrap();
        for _ in 0..5 {
            ulp_core::yield_now();
            ulp_core::coupled_scope(|| ulp_core::sys::getpid().unwrap()).unwrap();
        }
        0
    });
    assert_eq!(h.wait(), 0);

    // Mid-run semantics: the tracer stays on and nothing is consumed.
    let (status, trace_body) = scrape(addr, "/trace", "GET");
    assert!(status.contains("200"), "bad status: {status}");
    let v: serde_json::Value = serde_json::from_str(&trace_body).expect("/trace is valid JSON");
    assert!(
        !v["traceEvents"].as_array().expect("traceEvents").is_empty(),
        "no events in the /trace body"
    );
    assert!(rt.trace_enabled(), "/trace must not stop the tracer");
    let n_records = rt.trace_snapshot().len();
    assert!(n_records > 0, "workload recorded nothing");

    // Freeze the rings so the scrape and the API fold identical records,
    // then check the acceptance contract: equal text, and parsed per-BLT
    // sums equal to the snapshot's flame totals.
    rt.trace_disable();
    let (status, profile_body) = scrape(addr, "/profile", "GET");
    assert!(status.contains("200"), "bad status: {status}");
    let snap = rt.profile_snapshot();
    assert_eq!(
        profile_body,
        snap.collapsed(),
        "/profile and profile_snapshot() disagree"
    );
    let rows = ulp_core::profile::parse_collapsed(&profile_body).expect("folded text parses");
    assert!(!rows.is_empty(), "empty /profile for a traced workload");
    for b in &snap.blts {
        let prefix = format!("blt:{};", b.id.0);
        let sum: u64 = rows
            .iter()
            .filter(|(s, _)| s.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(sum, b.flame_ns(), "per-BLT total mismatch for {prefix}");
    }
    // The workload's coupled_scope syscall shows up as a nested frame.
    assert!(
        profile_body.contains(";coupled;syscall:getpid "),
        "missing coupled getpid stack:\n{profile_body}"
    );

    let (status, json_body) = scrape(addr, "/profile.json", "GET");
    assert!(status.contains("200"), "bad status: {status}");
    let v: serde_json::Value =
        serde_json::from_str(&json_body).expect("/profile.json is valid JSON");
    assert_eq!(
        v["blts"].as_array().map(|a| a.len()),
        Some(snap.blts.len()),
        "profile.json BLT count"
    );

    // Everything above was non-destructive: the full history is still
    // there for whoever owns the drain (a scheduler may have added an idle
    // event between snapshot and drain, so at-least).
    let drained = rt.take_trace();
    assert!(drained.len() >= n_records, "the scrapes consumed records");
    assert_eq!(rt.trace_dropped(), 0);
}

/// The time-windowed profile route: `/profile?t0=..&t1=..` folds only the
/// given trace window. An unbounded window is byte-identical to the plain
/// route, unknown query keys are ignored, malformed values are a 400 —
/// and splitting the trace at an interior timestamp yields two windows
/// whose per-stack self-times sum back exactly to the full fold (the
/// clipping is additive, not approximate).
#[test]
fn profile_route_honors_time_windows() {
    let rt = ulp_core::Runtime::builder().schedulers(1).build();
    let addr = rt.serve_metrics("127.0.0.1:0").expect("bind a free port");
    rt.trace_enable();

    let h = rt.spawn("windowed", || {
        ulp_core::decouple().unwrap();
        for _ in 0..5 {
            ulp_core::yield_now();
            ulp_core::coupled_scope(|| ulp_core::sys::getpid().unwrap()).unwrap();
        }
        0
    });
    assert_eq!(h.wait(), 0);
    rt.trace_disable(); // freeze the rings so every scrape folds the same records

    let (status, full) = scrape(addr, "/profile", "GET");
    assert!(status.contains("200"), "bad status: {status}");
    let (status, unbounded) = scrape(addr, &format!("/profile?t0=0&t1={}", u64::MAX), "GET");
    assert!(status.contains("200"), "bad status: {status}");
    assert_eq!(full, unbounded, "unbounded window must equal the full fold");
    let (status, cachebusted) = scrape(addr, "/profile?refresh=1", "GET");
    assert!(status.contains("200"), "bad status: {status}");
    assert_eq!(full, cachebusted, "unknown query keys must be ignored");

    let (status, err) = scrape(addr, "/profile?t0=abc", "GET");
    assert!(
        status.contains("400"),
        "bad status for bad window: {status}"
    );
    assert!(err.contains("t0"), "error names the bad key: {err}");

    // Split at an interior trace timestamp and check additivity.
    let records = rt.trace_snapshot();
    let mid = records[records.len() / 2].at_ns;
    let (status, before) = scrape(addr, &format!("/profile?t1={mid}"), "GET");
    assert!(status.contains("200"), "bad status: {status}");
    let (status, after) = scrape(addr, &format!("/profile?t0={mid}"), "GET");
    assert!(status.contains("200"), "bad status: {status}");

    let mut summed = std::collections::HashMap::new();
    for body in [&before, &after] {
        for (stack, v) in ulp_core::profile::parse_collapsed(body).expect("window parses") {
            *summed.entry(stack).or_insert(0u64) += v;
        }
    }
    let full_rows = ulp_core::profile::parse_collapsed(&full).expect("full fold parses");
    assert!(!full_rows.is_empty(), "traced workload folded to nothing");
    for (stack, v) in full_rows {
        assert_eq!(
            summed.get(&stack).copied().unwrap_or(0),
            v,
            "window halves do not sum to the full fold for {stack:?}"
        );
    }
}

/// The time-windowed trace route: `/trace?t0=..&t1=..` renders only what
/// happened inside the window, with the same query grammar and 400
/// behavior as `/profile`.
#[test]
fn trace_route_honors_time_windows() {
    let rt = ulp_core::Runtime::builder().schedulers(1).build();
    let addr = rt.serve_metrics("127.0.0.1:0").expect("bind a free port");
    rt.trace_enable();

    let h = rt.spawn("windowed", || {
        ulp_core::decouple().unwrap();
        for _ in 0..5 {
            ulp_core::yield_now();
            ulp_core::coupled_scope(|| ulp_core::sys::getpid().unwrap()).unwrap();
        }
        0
    });
    assert_eq!(h.wait(), 0);
    rt.trace_disable(); // freeze the rings so every scrape sees the same records

    // Count non-metadata events (metadata like process_name renders even
    // for an empty window).
    let event_count = |body: &str| {
        let v: serde_json::Value = serde_json::from_str(body).expect("/trace is valid JSON");
        v["traceEvents"]
            .as_array()
            .expect("traceEvents")
            .iter()
            .filter(|e| e["ph"].as_str() != Some("M"))
            .count()
    };

    let (status, full) = scrape(addr, "/trace", "GET");
    assert!(status.contains("200"), "bad status: {status}");
    let full_events = event_count(&full);
    assert!(full_events > 0, "traced workload rendered no events");

    let (status, unbounded) = scrape(addr, &format!("/trace?t0=0&t1={}", u64::MAX), "GET");
    assert!(status.contains("200"), "bad status: {status}");
    assert_eq!(
        full, unbounded,
        "unbounded window must equal the full render"
    );
    let (status, cachebusted) = scrape(addr, "/trace?refresh=1", "GET");
    assert!(status.contains("200"), "bad status: {status}");
    assert_eq!(full, cachebusted, "unknown query keys must be ignored");

    let (status, err) = scrape(addr, "/trace?t1=xyz", "GET");
    assert!(
        status.contains("400"),
        "bad status for bad window: {status}"
    );
    assert!(err.contains("t1"), "error names the bad key: {err}");

    // A window clipped at an interior timestamp renders strictly fewer
    // events than the full trace, and an empty window renders none.
    let records = rt.trace_snapshot();
    let mid = records[records.len() / 2].at_ns;
    let (status, before) = scrape(addr, &format!("/trace?t1={mid}"), "GET");
    assert!(status.contains("200"), "bad status: {status}");
    assert!(
        event_count(&before) < full_events,
        "interior window did not clip anything"
    );
    let (status, empty) = scrape(addr, "/trace?t0=0&t1=1", "GET");
    assert!(status.contains("200"), "bad status: {status}");
    assert_eq!(event_count(&empty), 0, "sub-nanosecond window at the epoch");
}

/// `/trace?t0=..&t1=..` clips like `/profile?t0=..&t1=..`: a UC that was
/// `decoupled` from before `t0` until after `t1` has no record of its own
/// inside the window, and is still drawn — one `decoupled` span, the window's width.
#[test]
fn trace_route_clips_spans_that_straddle_the_window() {
    use ulp_core::TraceEvent as E;
    let rt = ulp_core::Runtime::builder().schedulers(1).build();
    let addr = rt.serve_metrics("127.0.0.1:0").expect("bind a free port");
    rt.trace_enable();
    let h = rt.spawn("roamer", || {
        ulp_core::decouple().unwrap();
        // Decoupled and silent for a while: no record of its own falls in here.
        let until = std::time::Instant::now() + std::time::Duration::from_millis(2);
        while std::time::Instant::now() < until {
            std::hint::spin_loop();
        }
        ulp_core::couple().unwrap();
        0
    });
    let id = h.id();
    assert_eq!(h.wait(), 0);
    rt.trace_disable();

    let records = rt.trace_snapshot();
    let at = |want: &dyn Fn(&E) -> bool| {
        let r = records.iter().find(|r| want(&r.event));
        r.expect("the roamer's record").at_ns
    };
    let dispatched = at(&|e| matches!(e, E::Dispatch { uc, .. } if *uc == id));
    let requested = at(&|e| matches!(e, E::CoupleRequest(uc) if *uc == id));
    let quarter = (requested - dispatched) / 4;
    let (t0, t1) = (dispatched + quarter, dispatched + 2 * quarter);

    let (status, body) = scrape(addr, &format!("/trace?t0={t0}&t1={t1}"), "GET");
    assert!(status.contains("200"), "bad status: {status}");
    let v: serde_json::Value = serde_json::from_str(&body).expect("/trace is valid JSON");
    let spans: Vec<_> = v["traceEvents"]
        .as_array()
        .expect("traceEvents")
        .iter()
        .filter(|e| e["ph"].as_str() == Some("X") && e["tid"].as_f64() == Some(id.0 as f64))
        .collect();
    assert_eq!(spans.len(), 1, "want the one straddling span: {spans:?}");
    assert_eq!(spans[0]["name"].as_str(), Some("decoupled"));
    let us = |ns: u64| format!("{:.3}", ns as f64 / 1000.0).parse::<f64>().unwrap();
    assert_eq!(spans[0]["ts"].as_f64(), Some(us(t0)));
    assert_eq!(spans[0]["dur"].as_f64(), Some(us(t1 - t0)));
}

/// The syscall-latency snapshot must survive runtime shutdown: a harness
/// reports *after* tearing the runtime down, and the observability docs
/// promise the snapshot is a plain value with no live dependencies.
#[test]
fn syscall_snapshot_survives_shutdown() {
    let rt = ulp_core::Runtime::builder().schedulers(1).build();
    rt.trace_enable();
    let h = rt.spawn("workload", || {
        for _ in 0..10 {
            ulp_core::sys::getpid().unwrap();
        }
        0
    });
    assert_eq!(h.wait(), 0);
    let before = rt.syscall_snapshot();
    let getpid_before = before.get("getpid").expect("getpid row exists").count;
    assert!(getpid_before >= 10, "workload recorded {getpid_before}");

    rt.shutdown();

    // After shutdown: still callable, still carries the recorded samples.
    let after = rt.syscall_snapshot();
    let getpid_after = after
        .get("getpid")
        .expect("getpid row after shutdown")
        .count;
    assert!(
        getpid_after >= getpid_before,
        "samples lost across shutdown: {getpid_before} -> {getpid_after}"
    );
    // And the aggregate latency snapshot is equally safe to take.
    let _ = rt.latency_snapshot();
}
