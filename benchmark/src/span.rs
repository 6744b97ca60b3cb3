//! Harness-side spans: one `{name, start, end, parent, request id}` record
//! around every call the benchmark makes into a layer.
//!
//! The program under test is not instrumented for this — spans are taken
//! from outside, in the benchmark's own files. Each ULP owns one
//! preallocated, pre-touched buffer (a ULP migrates between OS threads, so
//! the buffer travels in its closure, not in a thread-local); nothing is
//! allocated or written out until the repetition is over. An untraced
//! repetition carries [`SpanBuf::off`], which holds no memory and whose
//! hooks reduce to one predictable branch.

use std::time::Instant;

/// The layer boundary a span was taken at. The discriminant indexes
/// [`NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Name {
    Request,
    Batch,
    Couple,
    Decouple,
    YieldNow,
    Getpid,
    Open,
    Close,
    Read,
    Write,
    Pread,
    Pwrite,
    Stat,
    Lseek,
    EpollWait,
    Accept,
    SpawnPooled,
    Wait,
}

/// `layer.call` labels, by [`Name`] discriminant: what Perfetto shows.
pub const NAMES: [&str; 18] = [
    "bench.request",
    "bench.batch",
    "core.couple.couple",
    "core.couple.decouple",
    "core.couple.yield_now",
    "core.sys.getpid",
    "core.sys.open",
    "core.sys.close",
    "core.sys.read",
    "core.sys.write",
    "core.sys.pread",
    "core.sys.pwrite",
    "core.sys.stat",
    "core.sys.lseek",
    "core.sys.epoll_wait",
    "core.sys.accept",
    "core.spawn.spawn_pooled",
    "core.spawn.wait",
];

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: u16,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Request id shared by every span of one request, across ULPs; 0 when
    /// the call belongs to no request.
    pub rid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    const ZERO: Span = Span {
        name: 0,
        parent: NO_PARENT,
        rid: 0,
        start_ns: 0,
        end_ns: 0,
    };

    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`SpanBuf::enter`] and consumed by [`SpanBuf::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Tok {
    idx: u32,
    outer: u32,
}

/// One ULP's span buffer. Keeps the first `cap` spans of the window; later
/// ones still pay the two clock reads (so the tracing overhead stays what it
/// was) but land in a scratch slot and are counted in [`SpanBuf::dropped`].
pub struct SpanBuf {
    on: bool,
    slots: Box<[Span]>,
    len: usize,
    open: u32,
    dropped: u64,
    epoch: Instant,
    /// Chrome-trace thread id: the ULP's index within its workload.
    pub track: u32,
    pub label: String,
}

impl SpanBuf {
    /// The untraced buffer: no memory, hooks compile to a not-taken branch.
    pub fn off() -> SpanBuf {
        SpanBuf {
            on: false,
            slots: Box::new([]),
            len: 0,
            open: NO_PARENT,
            dropped: 0,
            epoch: Instant::now(),
            track: 0,
            label: String::new(),
        }
    }

    /// A buffer for `cap` spans timed against `epoch` (shared by every ULP
    /// of the repetition, so spans of different ULPs are comparable).
    pub fn new(cap: usize, epoch: Instant, track: u32, label: &str) -> SpanBuf {
        SpanBuf {
            on: false,
            // One extra slot: the scratch span overflow lands in.
            slots: vec![Span::ZERO; cap + 1].into_boxed_slice(),
            len: 0,
            open: NO_PARENT,
            dropped: 0,
            epoch,
            track,
            label: label.to_string(),
        }
    }

    /// `SpanBuf::new` when `traced`, else `SpanBuf::off`.
    pub fn maybe(traced: bool, cap: usize, epoch: Instant, track: u32, label: &str) -> SpanBuf {
        if traced {
            SpanBuf::new(cap, epoch, track, label)
        } else {
            SpanBuf::off()
        }
    }

    /// Whether this buffer can record at all (a traced repetition).
    pub fn traced(&self) -> bool {
        !self.slots.is_empty()
    }

    /// Start or stop recording; workloads switch it with the measured
    /// window. A no-op on an untraced buffer.
    pub fn set_on(&mut self, on: bool) {
        self.on = on && self.traced();
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    #[inline]
    pub fn enter(&mut self, name: Name, rid: u64) -> Option<Tok> {
        if !self.on {
            return None;
        }
        let cap = self.slots.len() - 1;
        let idx = if self.len < cap {
            self.len += 1;
            self.len - 1
        } else {
            self.dropped += 1;
            cap
        };
        let outer = self.open;
        self.slots[idx] = Span {
            name: name as u16,
            parent: outer,
            rid,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        };
        self.open = idx as u32;
        Some(Tok {
            idx: idx as u32,
            outer,
        })
    }

    /// Close the span; returns its duration (0 when not recording).
    #[inline]
    pub fn exit(&mut self, tok: Option<Tok>) -> u64 {
        let Some(tok) = tok else { return 0 };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let s = &mut self.slots[tok.idx as usize];
        s.end_ns = now;
        self.open = tok.outer;
        now - s.start_ns
    }

    /// Attach a request id learnt after the span began (the echo server
    /// reads it out of the frame its `read` returned).
    #[inline]
    pub fn set_rid(&mut self, tok: Option<Tok>, rid: u64) {
        if let Some(tok) = tok {
            self.slots[tok.idx as usize].rid = rid;
        }
    }

    /// Time one call into a layer.
    #[inline]
    pub fn call<R>(&mut self, name: Name, rid: u64, f: impl FnOnce() -> R) -> R {
        let tok = self.enter(name, rid);
        let r = f();
        self.exit(tok);
        r
    }

    /// The recorded (complete) spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.slots[..self.len]
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (two
/// concurrent calls under one request) and may stick out of the parent;
/// the covered part is the union of the children clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<u32> = (0..spans.len() as u32)
        .filter(|&i| (spans[i as usize].parent as usize) < spans.len())
        .collect();
    order.sort_unstable_by_key(|&i| (spans[i as usize].parent, spans[i as usize].start_ns));
    let mut out: Vec<u64> = spans.iter().map(Span::dur).collect();
    let mut i = 0;
    while i < order.len() {
        let parent = spans[order[i] as usize].parent;
        let p = &spans[parent as usize];
        let (mut covered, mut reach) = (0u64, p.start_ns);
        while i < order.len() && spans[order[i] as usize].parent == parent {
            let c = &spans[order[i] as usize];
            let lo = c.start_ns.max(reach);
            let hi = c.end_ns.min(p.end_ns);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
            i += 1;
        }
        out[parent as usize] = p.dur().saturating_sub(covered);
    }
    out
}

/// Median of the durations of every span called `name` across `bufs`, ns;
/// 0 when there is none.
pub fn p50_of<'a>(bufs: impl IntoIterator<Item = &'a SpanBuf>, name: Name) -> f64 {
    let mut d: Vec<u64> = bufs
        .into_iter()
        .flat_map(|b| b.spans())
        .filter(|s| s.name == name as u16)
        .map(Span::dur)
        .collect();
    median_u64(&mut d)
}

pub fn median_u64(v: &mut [u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    *v.select_nth_unstable(mid).1 as f64
}

/// Upper bound on events written per trace file, split evenly between the
/// ULP tracks: the metrics are derived from every span in memory, the file
/// is for looking at, and Perfetto is happier with megabytes than hundreds.
const MAX_FILE_EVENTS: usize = 60_000;

/// Chrome-trace JSON (`X` complete events, µs timestamps) — open it in
/// <https://ui.perfetto.dev> or chrome://tracing. One track per ULP; `args`
/// carries the request id and the parent span's index.
pub fn chrome_trace(bufs: &[SpanBuf], workload: &str) -> String {
    let per_track = MAX_FILE_EVENTS / bufs.len().max(1);
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"ulpbench {workload}\"}}}}"
    ));
    for b in bufs {
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            b.track, b.label
        ));
        for (i, s) in b.spans().iter().take(per_track).enumerate() {
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"rid\":{},\"idx\":{},\"parent\":{}}}}}",
                NAMES[s.name as usize],
                b.track,
                s.start_ns as f64 / 1e3,
                s.dur() as f64 / 1e3,
                s.rid,
                i,
                if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: 0,
            parent,
            rid: 1,
            start_ns,
            end_ns,
        }
    }

    /// A hand-built tree:
    ///
    /// ```text
    /// 0 root      [0 ............................ 100)
    /// 1   child   [10 ...... 40)
    /// 2   child        [30 ........ 60)      overlaps child 1
    /// 3     grandchild [35 . 45)             under child 2
    /// 4   child                      [80 ......... 120)  sticks out
    /// 5 other root                                  [200 . 250)
    /// ```
    #[test]
    fn self_time_with_overlapping_children() {
        let spans = [
            span(NO_PARENT, 0, 100),
            span(0, 10, 40),
            span(0, 30, 60),
            span(2, 35, 45),
            span(0, 80, 120),
            span(NO_PARENT, 200, 250),
        ];
        let st = self_times(&spans);
        // Root: children cover [10,60) ∪ [80,100) = 70 of 100.
        assert_eq!(st[0], 30);
        assert_eq!(st[1], 30, "a leaf's self time is its duration");
        assert_eq!(st[2], 20, "30 long minus a 10 ns grandchild");
        assert_eq!(st[3], 10);
        assert_eq!(st[4], 40);
        assert_eq!(st[5], 50);
    }

    #[test]
    fn children_given_out_of_start_order_are_sorted_first() {
        let spans = [span(NO_PARENT, 0, 100), span(0, 50, 70), span(0, 10, 60)];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn buffer_nests_keeps_first_spans_and_counts_overflow() {
        let mut b = SpanBuf::new(3, Instant::now(), 0, "t");
        assert!(b.enter(Name::Request, 1).is_none(), "off until set_on");
        b.set_on(true);
        let outer = b.enter(Name::Request, 7);
        b.call(Name::Write, 7, || ());
        let read = b.enter(Name::Read, 0);
        b.set_rid(read, 9);
        b.exit(read);
        b.call(Name::Close, 7, || ()); // fourth span: over capacity
        b.exit(outer);
        let s = b.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(b.dropped(), 1);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[2].parent), (0, 0));
        assert_eq!(s[2].rid, 9);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let json = chrome_trace(&[b], "test");
        let v = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["traceEvents"].as_array().unwrap().len(), 2 + 3);
    }

    #[test]
    fn untraced_buffer_holds_nothing() {
        let mut b = SpanBuf::off();
        b.set_on(true);
        assert!(!b.is_on() && !b.traced());
        assert_eq!(b.call(Name::Getpid, 0, || 5), 5);
        assert!(b.spans().is_empty());
    }
}
