//! Runtime event tracing: per-KC SPSC rings + a shared on/off gate.
//!
//! ## Why not a global ring
//!
//! The seed tracer was a `Mutex<VecDeque>`: correct, but enabling it
//! serialized every kernel context through one lock on the very switch path
//! it was measuring. This version gives each kernel context its own
//! **single-writer ring** inside a cache-line-padded `TraceShard`
//! (registered next to the stats shard in `set_runtime`), so recording an
//! event is a handful of plain stores with no shared-line contention, and
//! the disabled path costs exactly one relaxed atomic load of the shared
//! `TraceGate` — the same discipline as `StatsShard`.
//!
//! ## Ring protocol (seqlock-per-slot SPSC)
//!
//! Each slot carries a sequence word encoding the *global* write index
//! `i` of its current occupant: `0` = never written, `2i+1` = write `i` in
//! progress, `2i+2` = write `i` complete. The single writer claims the next
//! index, marks the slot in-progress, fills the payload, then publishes
//! `DONE(i)` with release ordering and bumps `head`. The drain side (any
//! thread, under the tracer's shard list lock) walks
//! `[max(taken, head − capacity), head)` and accepts a slot only when the
//! sequence word reads `DONE(i)` before *and* after the payload loads —
//! a lap-encoded seqlock, so a concurrently overwriting writer can only
//! cause a record to be *skipped* (its seq shows a different lap), never
//! torn. Records from all shards are merge-sorted by their global-clock
//! timestamp on drain.
//!
//! Events recorded from threads that never registered a shard (or whose
//! shard belongs to a different runtime's tracer) take a mutex-guarded
//! fallback ring — cold by construction, and what keeps `Tracer` usable
//! standalone in unit tests.
//!
//! Tests use the trace to assert *orderings* the Table-I protocol
//! guarantees — e.g. a UC's couple request is always published after its
//! decouple, and its `Coupled` record always lands on its original KC's
//! shard (see `tests/trace_protocol.rs`).

use crate::hist::{HistData, LatencyHist, LatencySnapshot, SyscallSnapshot};
use crate::uc::BltId;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use ulp_kernel::{SyscallPhase, Sysno, WakeSite};

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A BLT was spawned (as a KLT).
    Spawn(BltId),
    /// A host dispatched a decoupled UC: a scheduler KC — or, with
    /// `scheduler == uc`, the UC's own original KC, which kept it at home
    /// (Table I with KC₁ = KC₀, recorded by the `decouple()` that stayed; a
    /// KC is named by its primary's id, as in [`Event::KcBlocked`]).
    Dispatch {
        /// The UC being dispatched.
        uc: BltId,
        /// The KC doing the dispatching.
        scheduler: BltId,
    },
    /// A UC decoupled from its original KC.
    Decouple(BltId),
    /// A UC's couple request was published to its original KC.
    CoupleRequest(BltId),
    /// A UC resumed on its original KC (couple completed).
    Coupled(BltId),
    /// A decoupling UC switched *directly* into a couple requester waiting
    /// in its KC's pending queue — the fast path that skips the run-queue
    /// enqueue → idle-loop pop → futex wake round trip. Always bracketed by
    /// `Decouple(from)` before and `Coupled(to)` after.
    CoupleHandoff {
        /// The UC departing the kernel context (it decouples).
        from: BltId,
        /// The waiting couple requester handed the kernel context.
        to: BltId,
    },
    /// A direct UC→UC yield switch.
    Yield {
        /// The UC giving up the kernel context.
        from: BltId,
        /// The UC taking it over.
        to: BltId,
    },
    /// A UC at home gave its own KC up and re-entered the run queue through
    /// the trampoline (`yield_now()` at home): an enqueue with no UC taking
    /// over, which a scheduler's `Dispatch` answers.
    Requeue(BltId),
    /// A UC terminated.
    Terminate(BltId),
    /// An idle KC went to sleep (BLOCKING/Adaptive).
    KcBlocked(BltId),
    /// A simulated-kernel signal was delivered to a UC.
    Signal {
        /// The receiving UC.
        uc: BltId,
        /// The signal number.
        signal: u8,
    },
    /// A simulated system call began on this KC. `coupled` records whether
    /// the issuing UC ran on its original KC at that moment — `false` marks
    /// a system-call-consistency hazard (§V-B) right on the timeline.
    SyscallEnter {
        /// The issuing UC (`BltId(0)` when no ULP is bound).
        uc: BltId,
        /// Which system call.
        sysno: Sysno,
        /// Whether the issuer ran coupled at the enter edge.
        coupled: bool,
    },
    /// The matching system-call return; `errno` is `0` on success.
    SyscallExit {
        /// The issuing UC (`BltId(0)` when no ULP is bound).
        uc: BltId,
        /// Which system call.
        sysno: Sysno,
        /// Whether the issuer ran coupled at the exit edge.
        coupled: bool,
        /// The call's errno; `0` on success.
        errno: i32,
    },
    /// A wake edge: the event that ended `wakee`'s blocked/queued wait.
    /// Recorded on the *wakee's* shard at the instant the wait ended, so
    /// on a given shard it always precedes the `Dispatch`/`Coupled`/`Yield`
    /// record that resumes the wakee (same clock sample, stable sort).
    Wake {
        /// The BLT whose action armed the wake (`BltId(0)` = a thread
        /// outside the runtime, e.g. an external writer).
        waker: BltId,
        /// The BLT made runnable (never `BltId(0)`).
        wakee: BltId,
        /// Which kind of event ended the wait.
        site: WakeSite,
        /// Nanoseconds from the wake being armed to the wakee running
        /// again — the wake-to-run latency the per-site histograms fold.
        delay_ns: u64,
    },
}

impl Event {
    /// Flatten into the ring's fixed `(tag, a, b, c)` payload words. Only
    /// [`Event::Wake`] uses the fourth word (`site` in the low byte, the
    /// wake-to-run delay — saturated to 2^56−1 ns — above it). Public only so
    /// the golden trace fixtures (`crates/torture/tests/golden/`) can store a
    /// record as the words the ring holds.
    #[doc(hidden)]
    pub fn pack(self) -> (u64, u64, u64, u64) {
        match self {
            Event::Spawn(u) => (0, u.0, 0, 0),
            Event::Dispatch { uc, scheduler } => (1, uc.0, scheduler.0, 0),
            Event::Decouple(u) => (2, u.0, 0, 0),
            Event::CoupleRequest(u) => (3, u.0, 0, 0),
            Event::Coupled(u) => (4, u.0, 0, 0),
            Event::Yield { from, to } => (5, from.0, to.0, 0),
            Event::Terminate(u) => (6, u.0, 0, 0),
            Event::KcBlocked(u) => (7, u.0, 0, 0),
            Event::Signal { uc, signal } => (8, uc.0, signal as u64, 0),
            Event::SyscallEnter { uc, sysno, coupled } => {
                (9, uc.0, sysno as u64 | (coupled as u64) << 16, 0)
            }
            Event::SyscallExit {
                uc,
                sysno,
                coupled,
                errno,
            } => (
                10,
                uc.0,
                sysno as u64 | (coupled as u64) << 16 | (errno as u32 as u64) << 32,
                0,
            ),
            Event::CoupleHandoff { from, to } => (11, from.0, to.0, 0),
            Event::Requeue(u) => (13, u.0, 0, 0),
            Event::Wake {
                waker,
                wakee,
                site,
                delay_ns,
            } => (
                12,
                waker.0,
                wakee.0,
                site as u64 | delay_ns.min((1 << 56) - 1) << 8,
            ),
        }
    }

    /// Inverse of [`Event::pack`]; `None` for a corrupt/unknown tag.
    #[doc(hidden)]
    pub fn unpack(tag: u64, a: u64, b: u64, c: u64) -> Option<Event> {
        Some(match tag {
            0 => Event::Spawn(BltId(a)),
            1 => Event::Dispatch {
                uc: BltId(a),
                scheduler: BltId(b),
            },
            2 => Event::Decouple(BltId(a)),
            3 => Event::CoupleRequest(BltId(a)),
            4 => Event::Coupled(BltId(a)),
            5 => Event::Yield {
                from: BltId(a),
                to: BltId(b),
            },
            6 => Event::Terminate(BltId(a)),
            7 => Event::KcBlocked(BltId(a)),
            8 => Event::Signal {
                uc: BltId(a),
                signal: b as u8,
            },
            9 => Event::SyscallEnter {
                uc: BltId(a),
                sysno: Sysno::from_u16(b as u16)?,
                coupled: (b >> 16) & 1 == 1,
            },
            10 => Event::SyscallExit {
                uc: BltId(a),
                sysno: Sysno::from_u16(b as u16)?,
                coupled: (b >> 16) & 1 == 1,
                errno: (b >> 32) as u32 as i32,
            },
            11 => Event::CoupleHandoff {
                from: BltId(a),
                to: BltId(b),
            },
            12 => Event::Wake {
                waker: BltId(a),
                wakee: BltId(b),
                site: WakeSite::from_u16(c as u8 as u16)?,
                delay_ns: c >> 8,
            },
            13 => Event::Requeue(BltId(a)),
            _ => return None,
        })
    }
}

/// One trace record: nanoseconds since the tracer was enabled, the event,
/// and the trace shard (≈ kernel context) it was recorded on (`0` = the
/// fallback ring, i.e. a thread without a registered shard).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Nanoseconds since the tracer's clock epoch.
    pub at_ns: u64,
    /// What happened.
    pub event: Event,
    /// The trace shard (≈ kernel context) the record was captured on.
    pub kc: u32,
}

/// The trace clock is the process's one clock, so timestamps from different
/// kernel contexts — and the kernel's own wait stamps — are comparable.
pub(crate) use ulp_kernel::now_ns;

/// The shared on/off switch every event site loads (once, relaxed) before
/// doing anything else. Also carries the enable-time epoch so shards can
/// rebase raw clock reads without touching the tracer.
#[derive(Debug, Default)]
pub(crate) struct TraceGate {
    enabled: AtomicBool,
    epoch_ns: AtomicU64,
}

impl TraceGate {
    #[inline]
    pub(crate) fn is_on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    #[inline]
    fn epoch(&self) -> u64 {
        self.epoch_ns.load(Ordering::Relaxed)
    }
}

/// Sequence word states for write index `i` (see module docs).
#[inline]
fn seq_writing(i: u64) -> u64 {
    2 * i + 1
}

#[inline]
fn seq_done(i: u64) -> u64 {
    2 * i + 2
}

/// One ring slot. All-atomic so the drain side may race the writer; the
/// lap-encoded `seq` word makes torn payloads detectable (module docs).
struct Slot {
    seq: AtomicU64,
    at_ns: AtomicU64,
    tag: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

fn new_ring(capacity: usize) -> Box<[Slot]> {
    (0..capacity)
        .map(|_| Slot {
            seq: AtomicU64::new(0),
            at_ns: AtomicU64::new(0),
            tag: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            c: AtomicU64::new(0),
        })
        .collect()
}

/// One kernel context's private trace state: the SPSC event ring plus the
/// four switch-path latency histograms. Padded so neighboring shards never
/// share a cache line (same rationale as `StatsShard`).
///
/// Single-writer: only the owning OS thread records; any thread may drain
/// (serialized by the owning [`Tracer`]'s shard-list lock).
#[repr(align(128))]
pub(crate) struct TraceShard {
    gate: Arc<TraceGate>,
    /// Shard id reported in [`TraceRecord::kc`] (1-based; 0 = fallback).
    id: u32,
    capacity: usize,
    /// Next global write index (monotonic; slot = `head % capacity`).
    head: AtomicU64,
    /// Drain cursor: records below this index were already taken.
    taken: AtomicU64,
    /// Records lost since the last enable: slots the writer lapped before a
    /// drain reached them, plus any seqlock-invalidated or unpackable slot.
    /// A drain that skips data *counts* it here instead of silently
    /// overwriting history — oracles turn nonzero into a hard failure.
    dropped: AtomicU64,
    /// Lazily allocated so a tracer that is never enabled costs no memory.
    ring: OnceLock<Box<[Slot]>>,
    /// Timestamp of this KC's previous yield (yield-to-yield interval).
    last_yield_ns: AtomicU64,
    /// Decouple/yield enqueue → dispatch.
    pub(crate) hist_queue_delay: LatencyHist,
    /// Couple request published → resumed on the original KC.
    pub(crate) hist_couple_resume: LatencyHist,
    /// Consecutive yields on this KC.
    pub(crate) hist_yield: LatencyHist,
    /// KC futex block → wake.
    pub(crate) hist_kc_block: LatencyHist,
    /// Per-syscall enter→exit latency, indexed by `Sysno`. Lazily allocated
    /// with the ring so a never-enabled tracer costs no memory.
    sys_hists: OnceLock<Box<[LatencyHist]>>,
    /// Per-site wake-to-run latency, indexed by `WakeSite`. Fed in
    /// [`TraceShard::emit_wake`] in the same breath as the `Wake` trace
    /// record, so on a loss-free trace the histogram count per site equals
    /// the `Wake` event count per site exactly.
    wake_hists: OnceLock<Box<[LatencyHist]>>,
    /// Enter-timestamp stack for nested syscall spans (a blocked pipe read
    /// nests `pipe_block_read` inside `read`). Single-writer, like the ring.
    sys_stack_no: [AtomicU64; SYS_STACK_DEPTH],
    sys_stack_at: [AtomicU64; SYS_STACK_DEPTH],
    sys_depth: AtomicU64,
}

/// Maximum syscall-span nesting tracked per KC. Depth 2 is the common case
/// (dispatch span + in-kernel sleep span); deeper frames are counted but
/// not timed. Shared with the profile fold (`profile.rs`), which must
/// mirror the cap exactly for its counts to reconcile with the histograms.
pub(crate) const SYS_STACK_DEPTH: usize = 8;

impl std::fmt::Debug for TraceShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceShard")
            .field("id", &self.id)
            .field("head", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceShard {
    fn new(gate: Arc<TraceGate>, id: u32, capacity: usize) -> TraceShard {
        TraceShard {
            gate,
            id,
            capacity,
            head: AtomicU64::new(0),
            taken: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ring: OnceLock::new(),
            last_yield_ns: AtomicU64::new(0),
            hist_queue_delay: LatencyHist::default(),
            hist_couple_resume: LatencyHist::default(),
            hist_yield: LatencyHist::default(),
            hist_kc_block: LatencyHist::default(),
            sys_hists: OnceLock::new(),
            wake_hists: OnceLock::new(),
            sys_stack_no: [const { AtomicU64::new(0) }; SYS_STACK_DEPTH],
            sys_stack_at: [const { AtomicU64::new(0) }; SYS_STACK_DEPTH],
            sys_depth: AtomicU64::new(0),
        }
    }

    /// Allocate the lazily-created recording buffers (ring + per-syscall
    /// histograms). Idempotent; called on enable and for late-joining KCs.
    fn alloc_buffers(&self, capacity: usize) {
        self.ring.get_or_init(|| new_ring(capacity));
        self.sys_hists
            .get_or_init(|| (0..Sysno::COUNT).map(|_| LatencyHist::default()).collect());
        self.wake_hists.get_or_init(|| {
            (0..WakeSite::COUNT)
                .map(|_| LatencyHist::default())
                .collect()
        });
    }

    /// The one load every event site pays when tracing is off.
    #[inline]
    pub(crate) fn is_on(&self) -> bool {
        self.gate.is_on()
    }

    /// Identity of the gate this shard publishes through (used to verify a
    /// thread's cached shard belongs to the recording tracer).
    #[inline]
    pub(crate) fn gate_ptr(&self) -> *const TraceGate {
        Arc::as_ptr(&self.gate)
    }

    /// Record an event now (gate-checked convenience).
    #[inline]
    pub(crate) fn record(&self, event: Event) {
        if self.is_on() {
            self.record_at(now_ns(), event);
        }
    }

    /// Record an event with an already-sampled clock value (event sites
    /// that also feed a histogram sample the clock once). Caller has
    /// checked the gate.
    pub(crate) fn record_at(&self, now: u64, event: Event) {
        // Ring not allocated ⇒ the tracer was never enabled; nothing to do.
        let Some(ring) = self.ring.get() else {
            return;
        };
        let at_ns = now.saturating_sub(self.gate.epoch());
        let (tag, a, b, c) = event.pack();
        let i = self.head.load(Ordering::Relaxed);
        let slot = &ring[(i as usize) & (self.capacity - 1)];
        slot.seq.store(seq_writing(i), Ordering::Relaxed);
        slot.at_ns.store(at_ns, Ordering::Relaxed);
        slot.tag.store(tag, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.c.store(c, Ordering::Relaxed);
        // Release-publish the payload, then the new head.
        slot.seq.store(seq_done(i), Ordering::Release);
        self.head.store(i + 1, Ordering::Release);
    }

    /// Feed the yield-to-yield histogram and remember this yield's
    /// timestamp. Caller has checked the gate.
    #[inline]
    pub(crate) fn note_yield(&self, now: u64) {
        let last = self.last_yield_ns.load(Ordering::Relaxed);
        self.last_yield_ns.store(now, Ordering::Relaxed);
        if last != 0 && now > last {
            self.hist_yield.record(now - last);
        }
    }

    /// Push a syscall-enter timestamp for span timing. Caller has checked
    /// the gate. Frames beyond [`SYS_STACK_DEPTH`] are counted (so exits
    /// stay balanced) but not timed.
    pub(crate) fn note_syscall_enter(&self, now: u64, sysno: Sysno) {
        let d = self.sys_depth.load(Ordering::Relaxed);
        if let Some(slot) = self.sys_stack_no.get(d as usize) {
            slot.store(sysno as u64, Ordering::Relaxed);
            self.sys_stack_at[d as usize].store(now, Ordering::Relaxed);
        }
        self.sys_depth.store(d + 1, Ordering::Relaxed);
    }

    /// Pop the matching enter frame and feed this syscall's latency
    /// histogram; returns whether the exit closed a frame this shard saw
    /// open. An unbalanced exit (tracing enabled mid-span, or a
    /// mismatched syscall number) clears the stack and drops the sample
    /// rather than attributing a bogus duration.
    pub(crate) fn note_syscall_exit(&self, now: u64, sysno: Sysno) -> bool {
        let d = self.sys_depth.load(Ordering::Relaxed);
        if d == 0 {
            return false;
        }
        self.sys_depth.store(d - 1, Ordering::Relaxed);
        let Some(slot) = self.sys_stack_no.get((d - 1) as usize) else {
            return true; // overflowed frame: balanced, but never timed
        };
        if slot.load(Ordering::Relaxed) != sysno as u64 {
            self.sys_depth.store(0, Ordering::Relaxed);
            return false;
        }
        let at = self.sys_stack_at[(d - 1) as usize].load(Ordering::Relaxed);
        // A zero-width span (clock granularity) still counts as a sample:
        // the histogram count is the span count, and the profile fold
        // reconciles against it one-for-one.
        if let Some(hists) = self.sys_hists.get() {
            hists[sysno as usize].record(now.saturating_sub(at));
        }
        true
    }

    /// Drain everything between the cursor and `head` (seqlock-validated;
    /// slots the writer lapped are skipped, not torn — and every skipped
    /// record is added to the shard's `dropped` counter).
    ///
    /// Loss accounting is exact, not best-effort: `head` is Acquire-loaded
    /// *after* the writer's Release publish, so a slot below `head` whose
    /// seq does not read `seq_done(i)` can only have been lapped by a later
    /// write — "still being written" is impossible for an index the writer
    /// already moved past. Both seqlock rejections are therefore genuine
    /// losses, as is the cursor gap when the writer outran a full ring.
    fn drain_into(&self, out: &mut Vec<TraceRecord>) {
        self.collect_into(out, true);
    }

    /// Read everything between the cursor and `head` without consuming it:
    /// the cursor stays put and nothing is charged to `dropped`, so a
    /// subsequent [`TraceShard::drain_into`] still returns (and accounts
    /// for) every record. This is the read-only path behind the live
    /// `/trace` and `/profile` endpoints — a scrape mid-run must not eat
    /// the history the shutdown dump (or the torture oracle) will want.
    fn snapshot_into(&self, out: &mut Vec<TraceRecord>) {
        self.collect_into(out, false);
    }

    fn collect_into(&self, out: &mut Vec<TraceRecord>, advance: bool) {
        let Some(ring) = self.ring.get() else {
            return;
        };
        let head = self.head.load(Ordering::Acquire);
        let taken = self.taken.load(Ordering::Relaxed);
        let lo = taken.max(head.saturating_sub(self.capacity as u64));
        // Records between the cursor and the oldest surviving slot were
        // overwritten before any drain saw them.
        let mut dropped = lo - taken;
        for i in lo..head {
            let slot = &ring[(i as usize) & (self.capacity - 1)];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != seq_done(i) {
                dropped += 1;
                continue;
            }
            let at_ns = slot.at_ns.load(Ordering::Relaxed);
            let tag = slot.tag.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let c = slot.c.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                dropped += 1;
                continue;
            }
            if let Some(event) = Event::unpack(tag, a, b, c) {
                out.push(TraceRecord {
                    at_ns,
                    event,
                    kc: self.id,
                });
            } else {
                dropped += 1;
            }
        }
        if !advance {
            return;
        }
        if dropped > 0 {
            self.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
        self.taken.store(head, Ordering::Relaxed);
    }

    /// Reset for a fresh recording run (drain cursor to head, clear span
    /// state and histograms). The ring contents need no clearing: the
    /// cursor skips them and the lap-encoded seq invalidates stale slots.
    fn reset_for_enable(&self) {
        self.taken
            .store(self.head.load(Ordering::Relaxed), Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
        self.last_yield_ns.store(0, Ordering::Relaxed);
        self.hist_queue_delay.reset();
        self.hist_couple_resume.reset();
        self.hist_yield.reset();
        self.hist_kc_block.reset();
        self.sys_depth.store(0, Ordering::Relaxed);
        if let Some(hists) = self.sys_hists.get() {
            for h in hists.iter() {
                h.reset();
            }
        }
        if let Some(hists) = self.wake_hists.get() {
            for h in hists.iter() {
                h.reset();
            }
        }
    }

    /// A host is dispatching `uc` at `now`: close the enqueue→dispatch span
    /// opened when it became runnable, emitting the wake edge that ended it
    /// *before* the `Dispatch` record so the causal order survives the stable
    /// by-timestamp sort. The caller checked [`TraceShard::is_on`].
    pub(crate) fn note_dispatch(&self, now: u64, uc: &crate::uc::UcInner, host: BltId) {
        let since = uc.wait_since.swap(0, Ordering::Relaxed);
        let wake = uc.wake_from.swap(0, Ordering::Relaxed);
        if let Some((waker, site)) = crate::uc::decode_wake_from(wake) {
            self.emit_wake(now, waker.0, uc.id.0, site, since);
        }
        self.record_at(
            now,
            Event::Dispatch {
                uc: uc.id,
                scheduler: host,
            },
        );
        if since != 0 {
            self.hist_queue_delay.record(now.saturating_sub(since));
        }
    }

    /// Record a wake edge *and* its per-site wake-to-run histogram sample —
    /// always both or neither, so trace event counts and histogram counts
    /// per site stay equal on loss-free traces (that exact equality is what
    /// oracle family J and `ProfileSnapshot::reconcile` check).
    ///
    /// `armed_ns` is the raw stamp clock; a stamp armed before this
    /// recording run's epoch is a stale leftover from a previous run and is
    /// dropped. A zero wakee (no ULP installed on the consuming thread)
    /// cannot be attributed and is dropped too.
    pub(crate) fn emit_wake(
        &self,
        now: u64,
        waker: u64,
        wakee: u64,
        site: WakeSite,
        armed_ns: u64,
    ) {
        if wakee == 0 || armed_ns == 0 || armed_ns < self.gate.epoch() {
            return;
        }
        let Some(hists) = self.wake_hists.get() else {
            return;
        };
        let delay_ns = now.saturating_sub(armed_ns);
        self.record_at(
            now,
            Event::Wake {
                waker: BltId(waker),
                wakee: BltId(wakee),
                site,
                delay_ns,
            },
        );
        hists[site as usize].record(delay_ns);
    }
}

/// The runtime-wide tracer: a gate, the registered per-KC shards, and the
/// cold fallback ring for unregistered threads.
pub struct Tracer {
    gate: Arc<TraceGate>,
    capacity: usize,
    shards: Mutex<Vec<Arc<TraceShard>>>,
    fallback: Mutex<VecDeque<TraceRecord>>,
    /// Records evicted from the full fallback ring (the shard analogue is
    /// counted per shard in [`TraceShard::drain_into`]).
    fallback_dropped: AtomicU64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("shards", &self.shards.lock().len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Tracer {
    /// `capacity` is per shard, clamped to `[16, 2^20]` and rounded up to a
    /// power of two (the ring indexes with a mask); the clamped value is
    /// used for both allocation and enforcement. High-cardinality runs
    /// (100k+ pooled ULPs emit ~5 events each) need the large end —
    /// configure it via `Config::trace_capacity`.
    pub fn new(capacity: usize) -> Tracer {
        let capacity = capacity.clamp(16, 1 << 20).next_power_of_two();
        Tracer {
            gate: Arc::new(TraceGate::default()),
            capacity,
            shards: Mutex::new(Vec::new()),
            fallback: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            fallback_dropped: AtomicU64::new(0),
        }
    }

    /// The effective (clamped) per-shard ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Shared gate handle (run-queue stamping checks it without a shard).
    pub(crate) fn gate(&self) -> Arc<TraceGate> {
        self.gate.clone()
    }

    /// Register the calling kernel context's shard (called from
    /// `set_runtime`, next to the stats shard registration).
    pub(crate) fn register_shard(&self) -> Arc<TraceShard> {
        let mut shards = self.shards.lock();
        let id = shards.len() as u32 + 1;
        let shard = Arc::new(TraceShard::new(self.gate.clone(), id, self.capacity));
        if self.is_enabled() {
            // Late joiner while recording: allocate its buffers now.
            shard.alloc_buffers(self.capacity);
        }
        shards.push(shard.clone());
        shard
    }

    /// Start recording (clears previous contents and histograms; allocates
    /// shard rings on first use).
    pub fn enable(&self) {
        let shards = self.shards.lock();
        for s in shards.iter() {
            s.alloc_buffers(self.capacity);
            s.reset_for_enable();
        }
        self.fallback.lock().clear();
        self.fallback_dropped.store(0, Ordering::Relaxed);
        self.gate.epoch_ns.store(now_ns(), Ordering::Release);
        // The kernel calls its hooks only while some tracer records: count
        // this one in before its gate opens, and back out if it was open
        // already (a restart is no transition).
        ulp_kernel::trace::start_recording();
        if self.gate.enabled.swap(true, Ordering::AcqRel) {
            ulp_kernel::trace::stop_recording();
        }
    }

    /// Stop recording (contents are kept until the next [`Tracer::enable`]
    /// or [`Tracer::take`]).
    pub fn disable(&self) {
        if self.gate.enabled.swap(false, Ordering::AcqRel) {
            ulp_kernel::trace::stop_recording();
        }
    }

    /// Whether recording is currently on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.gate.is_on()
    }

    /// Record an event (one relaxed load when disabled). Hot event sites
    /// inside the runtime go through their thread's `TraceShard`
    /// directly; this entry point routes to it when possible and otherwise
    /// falls back to the shared ring, so it is safe from any thread.
    #[inline]
    pub fn record(&self, event: Event) {
        if !self.is_enabled() {
            return;
        }
        self.record_slow(event);
    }

    #[cold]
    fn record_slow(&self, event: Event) {
        let gate = Arc::as_ptr(&self.gate);
        let routed = crate::current::with_thread(|b| match b.trace() {
            // Only trust the thread's cached shard if it publishes through
            // *this* tracer's gate (the thread may still anchor a shard
            // from a previous runtime).
            Some(t) if std::ptr::eq(t.gate_ptr(), gate) => {
                t.record_at(now_ns(), event);
                true
            }
            _ => false,
        });
        if routed {
            return;
        }
        let at_ns = now_ns().saturating_sub(self.gate.epoch());
        let mut ring = self.fallback.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.fallback_dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(TraceRecord {
            at_ns,
            event,
            kc: 0,
        });
    }

    /// Drain the recorded events from every shard and the fallback ring,
    /// merge-sorted by timestamp (stable, so same-shard order is kept).
    pub fn take(&self) -> Vec<TraceRecord> {
        let shards = self.shards.lock();
        let mut out: Vec<TraceRecord> = self.fallback.lock().drain(..).collect();
        for s in shards.iter() {
            s.drain_into(&mut out);
        }
        out.sort_by_key(|r| r.at_ns);
        out
    }

    /// Copy out the recorded events without consuming them: shard cursors
    /// stay put, the fallback ring keeps its contents, and nothing is
    /// charged as dropped — a later [`Tracer::take`] still returns the full
    /// history. Safe to call while recording is live (writers are never
    /// blocked; a record being overwritten mid-read is simply skipped by
    /// the seqlock check). Powers the mid-run `/trace` and `/profile`
    /// endpoints and the `ULP_PROFILE` shutdown dump.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let shards = self.shards.lock();
        let mut out: Vec<TraceRecord> = self.fallback.lock().iter().cloned().collect();
        for s in shards.iter() {
            s.snapshot_into(&mut out);
        }
        out.sort_by_key(|r| r.at_ns);
        out
    }

    /// Records lost since the last [`Tracer::enable`]: shard-ring laps
    /// (counted at drain time) plus fallback-ring evictions. A nonzero
    /// value means [`Tracer::take`] returned an *incomplete* history —
    /// trace-based invariant checking must treat it as fatal rather than
    /// reason from a silently truncated event stream.
    pub fn dropped_records(&self) -> u64 {
        let shards = self.shards.lock();
        let from_shards: u64 = shards
            .iter()
            .map(|s| s.dropped.load(Ordering::Relaxed))
            .sum();
        from_shards + self.fallback_dropped.load(Ordering::Relaxed)
    }

    /// Fold every shard's per-syscall latency histograms into one snapshot,
    /// one `(name, histogram)` row per syscall in [`Sysno`] order.
    pub fn syscall_snapshot(&self) -> SyscallSnapshot {
        let shards = self.shards.lock();
        let mut snap = SyscallSnapshot::new();
        for s in shards.iter() {
            if let Some(hists) = s.sys_hists.get() {
                for (i, h) in hists.iter().enumerate() {
                    h.fold_into(&mut snap.calls[i].1);
                }
            }
        }
        snap
    }

    /// Fold every shard's latency histograms into one snapshot.
    pub fn latency_snapshot(&self) -> LatencySnapshot {
        let shards = self.shards.lock();
        let mut snap = LatencySnapshot::default();
        let fold = |acc: &mut HistData, h: &LatencyHist| h.fold_into(acc);
        for s in shards.iter() {
            fold(&mut snap.queue_delay, &s.hist_queue_delay);
            fold(&mut snap.couple_resume, &s.hist_couple_resume);
            fold(&mut snap.yield_interval, &s.hist_yield);
            fold(&mut snap.kc_block, &s.hist_kc_block);
            if let Some(hists) = s.wake_hists.get() {
                for (i, h) in hists.iter().enumerate() {
                    h.fold_into(&mut snap.wake.sites[i]);
                }
            }
        }
        snap
    }

    /// Render as human-readable lines.
    pub fn render(records: &[TraceRecord]) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for r in records {
            let _ = writeln!(out, "{:>12} ns  kc:{:<3} {:?}", r.at_ns, r.kc, r.event);
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(4096)
    }
}

impl Drop for Tracer {
    /// A tracer dropped while recording stops, so the kernel's count of
    /// recording tracers stays balanced.
    fn drop(&mut self) {
        self.disable();
    }
}

/// Route one simulated-kernel syscall observation onto the calling thread's
/// trace shard — the `syscall` entry of the `ulp_kernel::KernelHooks` table
/// `Runtime` construction installs, the glue between the kernel and
/// the runtime's rings. Kernel contexts without a registered shard (e.g.
/// the AIO helper thread) and disabled gates cost one TLS access and drop
/// the observation; everything else lands on the same per-KC ring and
/// process-wide clock as the couple/decouple protocol events.
pub(crate) fn kernel_syscall_observer(sysno: Sysno, phase: SyscallPhase) {
    crate::current::with_thread(|b| {
        let Some(shard) = b.trace() else {
            return;
        };
        if !shard.is_on() {
            return;
        }
        let now = now_ns();
        // Identify the issuing UC and whether it sits on its original KC.
        // No UC (scheduler/main thread running kernel code directly) reads
        // as the anonymous BLT 0, trivially consistent.
        let (uc, coupled) = b.ulp().map_or((BltId(0), true), |u| (u.id, u.is_coupled()));
        match phase {
            SyscallPhase::Enter => {
                shard.note_syscall_enter(now, sysno);
                shard.record_at(now, Event::SyscallEnter { uc, sysno, coupled });
            }
            // An exit whose enter this shard never saw — the span began
            // before the gate opened, e.g. an idle KC's futex wait — is
            // dropped with its sample, so the ring holds no exit the
            // latency histograms did not count.
            SyscallPhase::Exit { errno } => {
                if !shard.note_syscall_exit(now, sysno) {
                    return;
                }
                shard.record_at(
                    now,
                    Event::SyscallExit {
                        uc,
                        sysno,
                        coupled,
                        errno,
                    },
                );
            }
        }
    });
}

/// Resolve the current thread for a wake *stamp*: `(waker_blt_id, now_ns)`
/// when its shard is recording, `(0, 0)` otherwise — so `WakeCell::stamp`
/// is a no-op whenever tracing is off, and wakes from threads outside the
/// runtime (no shard, no ULP) read as the anonymous waker 0.
pub(crate) fn wake_stamp_hook() -> (u64, u64) {
    crate::current::with_thread(|b| match b.trace() {
        Some(t) if t.is_on() => (b.ulp().map_or(0, |u| u.id.0), now_ns()),
        _ => (0, 0),
    })
}

/// Consume side of a kernel wake edge: runs on the *woken* thread, resolves
/// the wakee from its installed ULP, and records the edge + histogram
/// sample on its shard. Threads without a shard or ULP drop the edge (it
/// cannot be attributed to a BLT track).
pub(crate) fn wake_emit_hook(waker: u64, armed_ns: u64, site: WakeSite) {
    crate::current::with_thread(|b| {
        let Some(shard) = b.trace() else {
            return;
        };
        if !shard.is_on() {
            return;
        }
        let wakee = b.ulp().map_or(0, |u| u.id.0);
        shard.emit_wake(now_ns(), waker, wakee, site, armed_ns);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(16);
        t.record(Event::Spawn(BltId(1)));
        assert!(t.take().is_empty());
    }

    #[test]
    fn enabled_tracer_records_in_order() {
        let t = Tracer::new(16);
        t.enable();
        t.record(Event::Spawn(BltId(1)));
        t.record(Event::Decouple(BltId(1)));
        let recs = t.take();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].event, Event::Spawn(BltId(1)));
        assert_eq!(recs[1].event, Event::Decouple(BltId(1)));
        assert!(recs[0].at_ns <= recs[1].at_ns);
    }

    #[test]
    fn ring_drops_oldest_at_capacity() {
        let t = Tracer::new(16); // min capacity is 16
        t.enable();
        for i in 0..20 {
            t.record(Event::Spawn(BltId(i)));
        }
        let recs = t.take();
        assert_eq!(recs.len(), 16);
        assert_eq!(recs[0].event, Event::Spawn(BltId(4)), "oldest dropped");
    }

    #[test]
    fn enable_clears_previous_run() {
        let t = Tracer::new(16);
        t.enable();
        t.record(Event::Spawn(BltId(1)));
        t.enable();
        assert!(t.take().is_empty());
    }

    #[test]
    fn render_is_line_per_event() {
        let t = Tracer::new(16);
        t.enable();
        t.record(Event::Terminate(BltId(9)));
        let s = Tracer::render(&t.take());
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("Terminate"));
    }

    #[test]
    fn capacity_is_clamped_once_and_consistently() {
        assert_eq!(Tracer::new(8).capacity(), 16, "floor");
        assert_eq!(Tracer::new(20).capacity(), 32, "power-of-two round-up");
        assert_eq!(Tracer::new(1 << 24).capacity(), 1 << 20, "ceiling");
        // The enforced drop-oldest bound equals the clamped capacity.
        let t = Tracer::new(8);
        t.enable();
        for i in 0..40 {
            t.record(Event::Spawn(BltId(i)));
        }
        assert_eq!(t.take().len(), 16);
    }

    #[test]
    fn event_pack_unpack_roundtrip() {
        let events = [
            Event::Spawn(BltId(7)),
            Event::Dispatch {
                uc: BltId(1),
                scheduler: BltId(2),
            },
            Event::Decouple(BltId(3)),
            Event::CoupleRequest(BltId(4)),
            Event::Coupled(BltId(5)),
            Event::Yield {
                from: BltId(6),
                to: BltId(7),
            },
            Event::Terminate(BltId(8)),
            Event::KcBlocked(BltId(9)),
            Event::Signal {
                uc: BltId(10),
                signal: 12,
            },
            Event::CoupleHandoff {
                from: BltId(11),
                to: BltId(12),
            },
            Event::Requeue(BltId(15)),
            Event::Wake {
                waker: BltId(13),
                wakee: BltId(14),
                site: WakeSite::PipeRead,
                delay_ns: 123_456_789,
            },
            Event::Wake {
                waker: BltId(0),
                wakee: BltId(2),
                site: WakeSite::Signal,
                delay_ns: 0,
            },
        ];
        for e in events {
            let (tag, a, b, c) = e.pack();
            assert_eq!(Event::unpack(tag, a, b, c), Some(e));
        }
        assert_eq!(Event::unpack(99, 0, 0, 0), None);
        // A corrupt wake-site byte drops the record instead of panicking.
        assert_eq!(Event::unpack(12, 1, 2, 0xFF), None);
    }

    #[test]
    fn syscall_event_pack_unpack_roundtrip() {
        for sysno in [Sysno::Getpid, Sysno::FutexWait, Sysno::PipeBlockWrite] {
            for coupled in [true, false] {
                for errno in [0i32, 11, 110] {
                    let enter = Event::SyscallEnter {
                        uc: BltId(42),
                        sysno,
                        coupled,
                    };
                    let exit = Event::SyscallExit {
                        uc: BltId(42),
                        sysno,
                        coupled,
                        errno,
                    };
                    for e in [enter, exit] {
                        let (tag, a, b, c) = e.pack();
                        assert_eq!(Event::unpack(tag, a, b, c), Some(e));
                    }
                }
            }
        }
        // A corrupt sysno word drops the record instead of panicking.
        assert_eq!(Event::unpack(9, 1, u16::MAX as u64, 0), None);
    }

    #[test]
    fn syscall_spans_time_nested_frames() {
        let t = Tracer::new(16);
        let s = t.register_shard();
        t.enable();
        let base = now_ns();
        // read { pipe_block_read } nesting: both frames get their own time.
        s.note_syscall_enter(base, Sysno::Read);
        s.note_syscall_enter(base + 10, Sysno::PipeBlockRead);
        s.note_syscall_exit(base + 500, Sysno::PipeBlockRead);
        s.note_syscall_exit(base + 600, Sysno::Read);
        let snap = t.syscall_snapshot();
        let read = snap.get("read").unwrap();
        let block = snap.get("pipe_block_read").unwrap();
        assert_eq!(read.count, 1);
        assert_eq!(read.max, 600);
        assert_eq!(block.count, 1);
        assert_eq!(block.max, 490);
        assert_eq!(snap.get("getpid").unwrap().count, 0);
        assert!(snap.get("no_such_call").is_none());
    }

    #[test]
    fn syscall_exit_without_enter_is_dropped() {
        let t = Tracer::new(16);
        let s = t.register_shard();
        t.enable();
        // Tracing flipped on mid-span: the exit has no matching frame.
        assert!(!s.note_syscall_exit(now_ns(), Sysno::Getpid));
        assert_eq!(t.syscall_snapshot().get("getpid").unwrap().count, 0);
        // Mismatched frame: sample dropped, stack cleared.
        let base = now_ns();
        s.note_syscall_enter(base, Sysno::Open);
        assert!(!s.note_syscall_exit(base + 5, Sysno::Close));
        assert_eq!(t.syscall_snapshot().get("open").unwrap().count, 0);
        assert_eq!(t.syscall_snapshot().get("close").unwrap().count, 0);
    }

    #[test]
    fn shard_records_merge_sorted_across_kcs() {
        let t = Tracer::new(16);
        let s1 = t.register_shard();
        let s2 = t.register_shard();
        t.enable();
        let base = now_ns();
        s1.record_at(base + 300, Event::Spawn(BltId(1)));
        s2.record_at(base + 100, Event::Spawn(BltId(2)));
        s1.record_at(base + 200, Event::Decouple(BltId(1)));
        let recs = t.take();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].event, Event::Spawn(BltId(2)));
        assert_eq!(recs[0].kc, 2);
        assert_eq!(recs[1].event, Event::Decouple(BltId(1)));
        assert_eq!(recs[2].event, Event::Spawn(BltId(1)));
        assert_eq!(recs[2].kc, 1);
        assert!(recs.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn shard_ring_wrap_keeps_latest() {
        let t = Tracer::new(16);
        let s = t.register_shard();
        t.enable();
        let base = now_ns();
        for i in 0..20u64 {
            s.record_at(base + i, Event::Spawn(BltId(i)));
        }
        let recs = t.take();
        assert_eq!(recs.len(), 16);
        assert_eq!(recs[0].event, Event::Spawn(BltId(4)), "writer lapped 0–3");
        assert_eq!(recs[15].event, Event::Spawn(BltId(19)));
    }

    #[test]
    fn shard_drain_cursor_does_not_redeliver() {
        let t = Tracer::new(16);
        let s = t.register_shard();
        t.enable();
        s.record_at(now_ns(), Event::Spawn(BltId(1)));
        assert_eq!(t.take().len(), 1);
        assert!(t.take().is_empty(), "cursor advanced");
        s.record_at(now_ns(), Event::Terminate(BltId(1)));
        assert_eq!(t.take().len(), 1);
    }

    #[test]
    fn concurrent_writer_and_drain_never_tear() {
        let t = Arc::new(Tracer::new(16));
        let s = t.register_shard();
        t.enable();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let writer = std::thread::spawn(move || {
            // At least one record is written even if `stop` wins the race
            // to the first check, so the post-quiesce drain below always
            // has something to find.
            let mut i = 0u64;
            loop {
                s.record_at(
                    now_ns(),
                    Event::Yield {
                        from: BltId(i),
                        to: BltId(i + 1),
                    },
                );
                i += 1;
                if stop2.load(Ordering::Relaxed) {
                    break;
                }
            }
            i
        });
        // Every drained record must have unpacked cleanly (unpack
        // returning None would have dropped it) and carry this shard's
        // id — the seqlock skipped anything the writer was lapping.
        let check = |r: TraceRecord| {
            assert_eq!(r.kc, 1);
            assert!(matches!(r.event, Event::Yield { .. }));
        };
        let mut drained = 0usize;
        for _ in 0..200 {
            for r in t.take() {
                check(r);
                drained += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        let written = writer.join().unwrap();
        // With the writer quiesced the remaining window is stable: unless
        // the concurrent drains already took everything, this final drain
        // must deliver records (no false seqlock rejections at rest).
        for r in t.take() {
            check(r);
            drained += 1;
        }
        assert!(written > 0);
        assert!(drained as u64 <= written);
        assert!(drained > 0, "drained nothing although records were written");
        // Loss accounting is exact: every written record was either
        // delivered or counted as dropped — none vanished silently.
        assert_eq!(drained as u64 + t.dropped_records(), written);
    }

    #[test]
    fn shard_overflow_counts_dropped_records() {
        let t = Tracer::new(16);
        let s = t.register_shard();
        t.enable();
        assert_eq!(t.dropped_records(), 0);
        let base = now_ns();
        for i in 0..20u64 {
            s.record_at(base + i, Event::Spawn(BltId(i)));
        }
        // The writer lapped 4 records before this drain reached them.
        assert_eq!(t.take().len(), 16);
        assert_eq!(t.dropped_records(), 4);
        // A loss-free follow-up run adds nothing.
        s.record_at(now_ns(), Event::Terminate(BltId(19)));
        assert_eq!(t.take().len(), 1);
        assert_eq!(t.dropped_records(), 4);
    }

    #[test]
    fn fallback_eviction_counts_dropped_records() {
        // No shard registered: records from this thread land in the
        // fallback ring, whose evictions must be counted too.
        let t = Tracer::new(16);
        t.enable();
        for i in 0..20 {
            t.record(Event::Spawn(BltId(i)));
        }
        assert_eq!(t.take().len(), 16);
        assert_eq!(t.dropped_records(), 4);
    }

    #[test]
    fn enable_resets_dropped_records() {
        let t = Tracer::new(16);
        let s = t.register_shard();
        t.enable();
        let base = now_ns();
        for i in 0..40u64 {
            s.record_at(base + i, Event::Spawn(BltId(i)));
            t.record(Event::Terminate(BltId(i)));
        }
        t.take();
        assert!(t.dropped_records() > 0);
        t.enable();
        assert_eq!(t.dropped_records(), 0, "enable() starts the count fresh");
    }

    #[test]
    fn snapshot_is_non_destructive() {
        let t = Tracer::new(16);
        let s = t.register_shard();
        t.enable();
        let base = now_ns();
        s.record_at(base, Event::Spawn(BltId(1)));
        s.record_at(base + 10, Event::Decouple(BltId(1)));
        // Fallback path too: this thread has no registered shard.
        t.record(Event::Terminate(BltId(1)));

        let snap = t.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(t.dropped_records(), 0, "snapshot charges no losses");

        // Snapshotting twice sees the same history...
        assert_eq!(t.snapshot().len(), 3);
        // ...and the destructive drain still gets everything afterwards.
        assert_eq!(t.take().len(), 3);
        assert!(t.take().is_empty());
        assert_eq!(t.dropped_records(), 0);
    }

    #[test]
    fn snapshot_then_record_then_snapshot_grows() {
        let t = Tracer::new(16);
        let s = t.register_shard();
        t.enable();
        s.record_at(now_ns(), Event::Spawn(BltId(5)));
        assert_eq!(t.snapshot().len(), 1);
        s.record_at(now_ns(), Event::Terminate(BltId(5)));
        assert_eq!(t.snapshot().len(), 2, "later records join the snapshot");
        // A lapped ring still snapshots only the surviving window, without
        // touching the dropped accounting (that stays the drain's job).
        let base = now_ns();
        for i in 0..20u64 {
            s.record_at(base + i, Event::Spawn(BltId(i)));
        }
        assert_eq!(t.snapshot().len(), 16);
        assert_eq!(t.dropped_records(), 0);
        assert_eq!(t.take().len(), 16);
        assert_eq!(t.dropped_records(), 6, "drain charges the 4+2 lapped");
    }

    #[test]
    fn emit_wake_records_event_and_histogram_together() {
        let t = Tracer::new(16);
        let s = t.register_shard();
        t.enable();
        let armed = now_ns();
        s.emit_wake(armed + 250, 3, 4, WakeSite::FutexWake, armed);
        let recs = t.snapshot();
        assert_eq!(recs.len(), 1);
        assert_eq!(
            recs[0].event,
            Event::Wake {
                waker: BltId(3),
                wakee: BltId(4),
                site: WakeSite::FutexWake,
                delay_ns: 250,
            }
        );
        let snap = t.latency_snapshot();
        assert_eq!(snap.wake.site(WakeSite::FutexWake).count, 1);
        assert_eq!(snap.wake.site(WakeSite::FutexWake).max, 250);
        assert_eq!(snap.wake.total_count(), 1);
        // Unattributable or stale stamps emit neither record nor sample.
        s.emit_wake(armed + 300, 3, 0, WakeSite::FutexWake, armed);
        s.emit_wake(armed + 300, 3, 4, WakeSite::FutexWake, 0);
        assert_eq!(t.snapshot().len(), 1);
        assert_eq!(t.latency_snapshot().wake.total_count(), 1);
        // enable() resets the per-site wake histograms.
        t.enable();
        assert_eq!(t.latency_snapshot().wake.total_count(), 0);
    }

    #[test]
    fn latency_snapshot_folds_shards() {
        let t = Tracer::new(16);
        let s1 = t.register_shard();
        let s2 = t.register_shard();
        t.enable();
        s1.hist_queue_delay.record(100);
        s2.hist_queue_delay.record(300);
        s1.hist_kc_block.record(50);
        let snap = t.latency_snapshot();
        assert_eq!(snap.queue_delay.count, 2);
        assert_eq!(snap.queue_delay.max, 300);
        assert_eq!(snap.kc_block.count, 1);
        assert_eq!(snap.couple_resume.count, 0);
        // enable() starts the next run clean.
        t.enable();
        assert_eq!(t.latency_snapshot().queue_delay.count, 0);
    }
}
