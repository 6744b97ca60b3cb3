//! A minimal blocking HTTP/1.0 endpoint serving the observability surfaces.
//!
//! Deliberately tiny and dependency-free: one dedicated kernel-level thread
//! (`ulp-metrics`) blocks in `accept()` on a std [`TcpListener`]; each
//! accepted connection is answered on a short-lived worker thread (capped at
//! [`MAX_CONCURRENT`]; at the cap the acceptor answers inline, which
//! backpressures new connects instead of queueing unboundedly). A slow or
//! stalled client therefore cannot wedge other scrapers — and is itself
//! bounded by the 2-second read timeout. The server holds only a [`Weak`]
//! reference to the runtime, so it can never keep a shut-down runtime alive;
//! after shutdown it answers `503`.
//!
//! Routes (all `GET`, HTTP/1.0 close-delimited):
//!
//! - `/metrics` (or `/`) — [`prometheus_text`] rendering.
//! - `/profile` — collapsed-stack ("folded") profile text, ready for
//!   inferno/flamegraph.pl/speedscope (see [`crate::profile`]); an optional
//!   `?t0=..&t1=..` query restricts the fold to that trace window
//!   (nanoseconds on the trace clock, end-exclusive, either edge omittable).
//! - `/profile.json` — the structured [`crate::profile::ProfileSnapshot`].
//! - `/trace` — Chrome-trace/Perfetto JSON of the current ring contents;
//!   accepts the same `?t0=..&t1=..` window as `/profile`, and clips spans
//!   to it the same way.
//!
//! The profile and trace routes read the rings through the tracer's
//! non-destructive snapshot path: scraping mid-run consumes nothing, so the
//! shutdown `ULP_TRACE`/`ULP_PROFILE` dumps (and any oracle draining the
//! trace) still see the full history.
//!
//! Enabled via `ULP_METRICS_ADDR=host:port` (port `0` picks a free port) or
//! programmatically through `Runtime::serve_metrics`.
//!
//! [`prometheus_text`]: crate::export::prometheus_text

use crate::runtime::RuntimeInner;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on connections being answered concurrently. Above it the
/// accept loop answers inline — the listener's backlog, not a thread herd,
/// absorbs bursts.
const MAX_CONCURRENT: usize = 8;

/// Handle to the background metrics listener. Dropping it (or calling
/// [`MetricsServer::stop`]) shuts the thread down.
pub(crate) struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` and start the accept loop on a dedicated thread.
    pub(crate) fn start(addr: &str, rt: Weak<RuntimeInner>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("ulp-metrics".to_string())
            .spawn(move || serve(listener, rt, flag))?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port `0`).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the acceptor thread. The accept loop is
    /// unblocked by a throwaway self-connection — `accept()` has no portable
    /// timeout. In-flight worker threads are not joined; they hold only the
    /// [`Weak`] runtime reference and die within the read timeout.
    pub(crate) fn stop(&mut self) {
        if let Some(h) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve(listener: TcpListener, rt: Weak<RuntimeInner>, stop: Arc<AtomicBool>) {
    let active = Arc::new(AtomicUsize::new(0));
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        // Claim a worker slot optimistically; at the cap, give it back and
        // serve inline (backpressure, not an unbounded thread herd).
        if active.fetch_add(1, Ordering::AcqRel) < MAX_CONCURRENT {
            let rt2 = rt.clone();
            let active2 = active.clone();
            let spawned = std::thread::Builder::new()
                .name("ulp-metrics-conn".to_string())
                .spawn(move || {
                    let _ = answer(&mut stream, &rt2);
                    active2.fetch_sub(1, Ordering::AcqRel);
                });
            if spawned.is_err() {
                // Thread exhaustion: the failed spawn consumed (and closed)
                // the connection; release the never-used slot.
                active.fetch_sub(1, Ordering::AcqRel);
            }
        } else {
            active.fetch_sub(1, Ordering::AcqRel);
            let _ = answer(&mut stream, &rt);
        }
    }
}

/// A route's renderer: content type + body from a live runtime. The second
/// argument is the parsed `?t0=..&t1=..` trace window; routes without a
/// time dimension ignore it.
type Render = fn(&RuntimeInner, Option<(u64, u64)>) -> (&'static str, String);

/// Parse `t0`/`t1` (nanoseconds on the trace clock) out of a query string.
/// No window keys → `None` (full window); one key → the other edge is
/// unbounded; unknown keys are ignored (scrapers love cache-busters);
/// non-numeric values are an error the caller turns into a 400.
fn parse_window(query: &str) -> Result<Option<(u64, u64)>, String> {
    let (mut t0, mut t1) = (None, None);
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let Some((k, v)) = pair.split_once('=') else {
            continue;
        };
        let slot = match k {
            "t0" => &mut t0,
            "t1" => &mut t1,
            _ => continue,
        };
        *slot = Some(
            v.parse::<u64>()
                .map_err(|_| format!("{k} must be an integer nanosecond offset, got {v:?}\n"))?,
        );
    }
    Ok(match (t0, t1) {
        (None, None) => None,
        (a, b) => Some((a.unwrap_or(0), b.unwrap_or(u64::MAX))),
    })
}

/// Read enough of the request to see the method + path, then respond and
/// close (HTTP/1.0 semantics — no keep-alive, no chunking).
fn answer(stream: &mut TcpStream, rt: &Weak<RuntimeInner>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 1024];
    let mut len = 0;
    while len < buf.len() && !buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => len += n,
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    const UNAVAILABLE: (&str, &str) = ("503 Service Unavailable", "text/plain");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            String::from("only GET is supported\n"),
        )
    } else {
        let (route, query) = path.split_once('?').unwrap_or((path, ""));
        let render: Option<Render> = match route {
            // Prometheus text exposition format version 0.0.4.
            "/metrics" | "/" => Some(|rt, _| ("text/plain; version=0.0.4", rt.prometheus_render())),
            // `/profile?t0=..&t1=..` folds only the given trace window
            // (nanoseconds on the trace clock, end-exclusive).
            "/profile" => Some(|rt, w| ("text/plain", rt.profile_collapsed_window(w))),
            "/profile.json" => Some(|rt, _| ("application/json", rt.profile_json())),
            // `/trace?t0=..&t1=..` draws the same window `/profile` folds:
            // spans clipped to it, nothing outside it.
            "/trace" => Some(|rt, w| ("application/json", rt.trace_json_window(w))),
            _ => None,
        };
        match (render, parse_window(query)) {
            (Some(_), Err(e)) => ("400 Bad Request", "text/plain", e),
            (Some(render), Ok(window)) => match rt.upgrade() {
                Some(rt) => {
                    let (content_type, body) = render(&rt, window);
                    ("200 OK", content_type, body)
                }
                None => (
                    UNAVAILABLE.0,
                    UNAVAILABLE.1,
                    String::from("runtime has shut down\n"),
                ),
            },
            (None, _) => (
                "404 Not Found",
                "text/plain",
                String::from("try /metrics, /profile, /profile.json or /trace\n"),
            ),
        }
    };

    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
