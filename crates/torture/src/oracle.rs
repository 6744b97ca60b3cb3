//! The Table-I trace oracle.
//!
//! Every torture run records the full scheduling trace; this module
//! re-derives the paper's coupling-protocol invariants from that trace
//! *machine-checkably* instead of eyeballing timelines. The invariants,
//! lettered for reference in violation messages:
//!
//! - **A — complete history.** Zero trace records dropped. Everything
//!   below reasons from the trace, so a gap voids the run.
//! - **B — system-call consistency (§V-B).** Every `SyscallEnter` by a
//!   workload BLT carries `coupled == true`, and the runtime's own
//!   consistency auditor recorded nothing. This is the invariant the
//!   planted `torture_mutation` bug violates.
//! - **C — per-BLT coupling state machine (Table I).** Replaying each
//!   BLT's events: `Decouple` only from coupled, `CoupleRequest` only from
//!   decoupled, `Coupled` only answers a pending request, `Dispatch` and
//!   `Yield` only move decoupled UCs, signals deliver only while coupled,
//!   and nothing follows `Terminate`. Table I never says KC₁ ≠ KC₀: a
//!   `Dispatch` whose host is the UC's own KC (`scheduler == uc`) is a
//!   *home* dispatch, legal like any other — but a UC at home has no
//!   neighbour to `Yield` to or from, and only a UC at home may `Requeue`.
//!   Only a decoupled UC (at home or not) may `Wait` on a wait list.
//! - **D — request/completion and queue balance.** Per BLT, couple
//!   requests equal couple completions, and resumptions (`Dispatch` +
//!   `Yield`-to) equal enqueues (`Decouple` + `Yield`-from + `Requeue` +
//!   `Wait`, plus the birth enqueue of a decoupled-born sibling) — a home
//!   dispatch answers its `Decouple` exactly as a scheduler's would, and a
//!   scheduler's dispatch answers a `Wait` once the setter has queued it.
//! - **E — counter conservation.** Trace-event totals equal the runtime's
//!   independent statistics counters (events and counters are bumped by
//!   different code paths; drift means one of them lies): home dispatches
//!   are the trace records, `decouple_homes` the shard counts, of the
//!   `decouple()` that decided to stay.
//! - **F — histogram conservation.** The couple-resume histogram holds
//!   exactly one sample per `Coupled` event; the queue-delay histogram one
//!   per `Dispatch`/`Yield`.
//! - **G — spawn/terminate balance (rules 1 & 7).** Every spawned BLT
//!   terminates exactly once, on the trace.
//! - **H — system-call span balance.** Per BLT and system call, every
//!   exit has a prior enter (checked as a running prefix) and the counts
//!   match at end-of-run.
//! - **I — profile reconciliation.** Folding the same trace through
//!   [`ulp_core::fold_profile`] must (I1) partition each terminated BLT's
//!   lifetime exactly across the four lifecycle states, (I2/I3) agree
//!   with the per-syscall and switch-path histogram sample counts
//!   one-for-one, and (I4) render collapsed-stack text that parses and
//!   whose per-BLT line sums equal the snapshot's own totals — the profile
//!   layer may summarize the telemetry, never contradict it. Skipped when
//!   A already voided the run (a lossy trace folds to a lossy profile).
//! - **J — wake-edge causality.** Every `Dispatch`/`Yield`-to of a
//!   previously-enqueued BLT is preceded by exactly one unconsumed
//!   run-queue wake edge (`enqueue`/`spawn`/`wait_list`), and every `Coupled` by
//!   exactly one couple wake edge (`couple_resume`/`couple_handoff`) —
//!   (J1); a kernel-site wake (`pipe_read`, `sock_write`, `accept`,
//!   `epoll_wait`, …) lands strictly inside the wakee's still-open
//!   matching blocking-syscall span, so an EINTR'd or timed-out wait can
//!   never claim an edge (J2); and per-site edge counts and delay totals
//!   equal the wake-to-run histograms exactly (J3). `kc_notify`, `signal`
//!   and `futex_wake` are exempt from pairing/containment: their consume
//!   points sit outside any per-BLT span by construction (the futex
//!   predicate re-check runs after the `futex_wait` span closes).

use crate::StatsDelta;
use std::collections::{HashMap, HashSet};
use ulp_core::profile::parse_collapsed;
use ulp_core::{
    fold_profile, BltId, LatencySnapshot, SyscallSnapshot, Sysno, TraceEvent, TraceRecord,
    UlpError, WakeSite,
};

/// Everything the oracle looks at for one run.
pub struct OracleInput<'a> {
    /// The full recorded trace, in timestamp order ([`ulp_core::Runtime::take_trace`]).
    pub trace: &'a [TraceRecord],
    /// Records lost to ring laps ([`ulp_core::Runtime::trace_dropped`]).
    pub dropped: u64,
    /// The runtime's own consistency audit (`ConsistencyMode::Record`).
    pub consistency: &'a [UlpError],
    /// Runtime counter deltas over the traced window.
    pub stats: StatsDelta,
    /// Switch-path latency histograms accumulated over the traced window.
    pub latency: &'a LatencySnapshot,
    /// Per-syscall latency histograms accumulated over the traced window
    /// ([`ulp_core::Runtime::syscall_snapshot`]).
    pub syscalls: &'a SyscallSnapshot,
    /// Enforce invariant B. Always true in the harness — the planted
    /// mutation must *fail* the oracle, not be excused by it.
    pub expect_coupled_syscalls: bool,
}

/// Where the coupling state machine believes a BLT is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoupleState {
    /// No scheduling event seen yet; birth mode not yet inferred.
    Unknown,
    /// Coupled with its original KC (running as a KLT).
    Coupled,
    /// In the scheduled pool or running as a ULT on a foreign KC.
    Decoupled,
    /// Couple request published, not yet resumed by the original KC.
    PendingCouple,
    /// Terminated; nothing may follow.
    Terminated,
}

/// Per-BLT bookkeeping accumulated in one pass over the trace.
#[derive(Debug)]
struct BltTrack {
    /// Dense index by spawn order (for messages).
    state: CoupleState,
    /// Inferred from the first post-spawn scheduling event: a sibling is
    /// born decoupled (its birth *is* a run-queue push), a primary coupled.
    born_decoupled: bool,
    decouples: u64,
    requests: u64,
    coupleds: u64,
    yields_from: u64,
    yields_to: u64,
    dispatches: u64,
    requeues: u64,
    waits: u64,
    /// On its own KC, decoupled, since its last `Dispatch`.
    at_home: bool,
    terminates: u64,
    /// Running (enter − exit) per system call; final value must be zero.
    spans: HashMap<Sysno, i64>,
    /// Unconsumed run-queue wake edge (`enqueue`/`spawn`), consumed by the
    /// next `Dispatch`/`Yield`-to (J1).
    pending_runnable: Option<WakeSite>,
    /// Unconsumed couple wake edge (`couple_resume`/`couple_handoff`),
    /// consumed by the next `Coupled` (J1).
    pending_couple: Option<WakeSite>,
}

impl BltTrack {
    fn new() -> Self {
        BltTrack {
            state: CoupleState::Unknown,
            born_decoupled: false,
            decouples: 0,
            requests: 0,
            coupleds: 0,
            yields_from: 0,
            yields_to: 0,
            dispatches: 0,
            requeues: 0,
            waits: 0,
            at_home: false,
            terminates: 0,
            spans: HashMap::new(),
            pending_runnable: None,
            pending_couple: None,
        }
    }
}

/// Collects violations with per-category caps so one systemic failure
/// (say, every syscall decoupled under the mutation) doesn't bury the
/// others in thousands of lines.
struct Report {
    out: Vec<String>,
    per_cat: HashMap<&'static str, u64>,
}

const CAT_CAP: u64 = 8;

impl Report {
    fn new() -> Self {
        Report {
            out: Vec::new(),
            per_cat: HashMap::new(),
        }
    }

    fn push(&mut self, cat: &'static str, msg: String) {
        let n = self.per_cat.entry(cat).or_insert(0);
        *n += 1;
        match *n {
            n if n < CAT_CAP => self.out.push(format!("[{cat}] {msg}")),
            n if n == CAT_CAP => self
                .out
                .push(format!("[{cat}] {msg} (further {cat} violations elided)")),
            _ => {}
        }
    }

    fn finish(mut self) -> Vec<String> {
        for (cat, n) in self.per_cat.iter() {
            if *n > CAT_CAP {
                self.out.push(format!("[{cat}] {} violations total", *n));
            }
        }
        self.out
    }
}

/// Verify one run's trace against invariants A–I. Returns one message per
/// violation (empty = the run upheld Table I).
pub fn check(input: &OracleInput<'_>) -> Vec<String> {
    let mut r = Report::new();

    // A — complete history.
    if input.dropped > 0 {
        r.push(
            "A",
            format!(
                "{} trace records dropped: history incomplete, run void",
                input.dropped
            ),
        );
    }

    // B — the runtime's own auditor.
    for v in input.consistency {
        r.push("B", format!("runtime consistency audit: {v}"));
    }

    // The spawned set: oracle invariants apply to workload BLTs. Scheduler
    // identities and the root thread never record `Spawn` and only appear
    // as `Dispatch.scheduler`, `KcBlocked` or (always-coupled) syscall
    // spans, which the per-BLT machinery below deliberately skips.
    let spawned: HashSet<BltId> = input
        .trace
        .iter()
        .filter_map(|rec| match rec.event {
            TraceEvent::Spawn(b) => Some(b),
            _ => None,
        })
        .collect();
    let mut track: HashMap<BltId, BltTrack> = HashMap::new();
    let mut totals_spawn = 0u64;
    let mut totals_terminate = 0u64;
    let mut totals_decouple = 0u64;
    let mut totals_coupled = 0u64;
    let mut totals_yield = 0u64;
    let mut totals_dispatch = 0u64;
    let mut totals_home = 0u64;
    let mut totals_handoff = 0u64;
    let mut decoupled_enters = 0u64;
    let mut first_decoupled_enter: Option<(BltId, Sysno)> = None;
    let mut wake_counts = [0u64; WakeSite::COUNT];
    let mut wake_delays = [0u64; WakeSite::COUNT];
    // J pairing/containment only means anything on a complete history: a
    // dropped Wake record would falsely convict the Dispatch it preceded.
    let wake_checks = input.dropped == 0;

    for rec in input.trace {
        match rec.event {
            TraceEvent::Spawn(b) => {
                totals_spawn += 1;
                let t = track.entry(b).or_insert_with(BltTrack::new);
                if t.state == CoupleState::Terminated {
                    r.push("C", format!("{b:?}: Spawn after Terminate"));
                }
            }
            TraceEvent::Decouple(b) => {
                totals_decouple += 1;
                if !spawned.contains(&b) {
                    r.push("C", format!("{b:?}: Decouple by a never-spawned BLT"));
                    continue;
                }
                let t = track.entry(b).or_insert_with(BltTrack::new);
                t.decouples += 1;
                match t.state {
                    // First event: the BLT ran coupled since birth (a
                    // primary in its KLT phase).
                    CoupleState::Unknown | CoupleState::Coupled => {
                        t.state = CoupleState::Decoupled;
                    }
                    s => r.push("C", format!("{b:?}: Decouple while {s:?}")),
                }
            }
            TraceEvent::CoupleRequest(b) => {
                if !spawned.contains(&b) {
                    r.push("C", format!("{b:?}: CoupleRequest by a never-spawned BLT"));
                    continue;
                }
                let t = track.entry(b).or_insert_with(BltTrack::new);
                t.requests += 1;
                t.at_home = false;
                match t.state {
                    CoupleState::Decoupled => t.state = CoupleState::PendingCouple,
                    s => r.push("C", format!("{b:?}: CoupleRequest while {s:?}")),
                }
            }
            TraceEvent::Coupled(b) => {
                totals_coupled += 1;
                if !spawned.contains(&b) {
                    r.push("C", format!("{b:?}: Coupled by a never-spawned BLT"));
                    continue;
                }
                let t = track.entry(b).or_insert_with(BltTrack::new);
                t.coupleds += 1;
                // J1 — a completed couple consumes its resume/handoff edge.
                let woken = t.pending_couple.take();
                if wake_checks && woken.is_none() {
                    r.push(
                        "J",
                        format!("{b:?}: Coupled with no unconsumed couple wake edge"),
                    );
                }
                match t.state {
                    CoupleState::PendingCouple => t.state = CoupleState::Coupled,
                    s => r.push(
                        "C",
                        format!("{b:?}: Coupled without a pending request ({s:?})"),
                    ),
                }
            }
            TraceEvent::Dispatch { uc, scheduler } => {
                totals_dispatch += 1;
                totals_home += u64::from(scheduler == uc);
                if !spawned.contains(&uc) {
                    r.push("C", format!("{uc:?}: Dispatch of a never-spawned BLT"));
                    continue;
                }
                let t = track.entry(uc).or_insert_with(BltTrack::new);
                t.dispatches += 1;
                t.at_home = scheduler == uc;
                // J1 — the run-queue stay this dispatch ends must have
                // been opened by exactly one wake edge.
                let woken = t.pending_runnable.take();
                if wake_checks && woken.is_none() {
                    r.push(
                        "J",
                        format!("{uc:?}: Dispatch with no unconsumed run-queue wake edge"),
                    );
                }
                match t.state {
                    // First event: born straight into the scheduled pool
                    // (a sibling — its registration is a run-queue push).
                    CoupleState::Unknown => {
                        t.born_decoupled = true;
                        t.state = CoupleState::Decoupled;
                    }
                    CoupleState::Decoupled => {}
                    s => r.push("C", format!("{uc:?}: Dispatch while {s:?}")),
                }
            }
            TraceEvent::Yield { from, to } => {
                totals_yield += 1;
                for (b, incoming) in [(from, false), (to, true)] {
                    if !spawned.contains(&b) {
                        r.push("C", format!("{b:?}: Yield by/to a never-spawned BLT"));
                        continue;
                    }
                    let t = track.entry(b).or_insert_with(BltTrack::new);
                    if incoming {
                        t.yields_to += 1;
                        // J1 — the incoming side is a resumption, paired
                        // with a run-queue wake edge like a Dispatch.
                        let woken = t.pending_runnable.take();
                        if wake_checks && woken.is_none() {
                            r.push(
                                "J",
                                format!("{b:?}: Yield-to with no unconsumed run-queue wake edge"),
                            );
                        }
                    } else {
                        t.yields_from += 1;
                    }
                    let side = if incoming { "to" } else { "from" };
                    if t.at_home {
                        r.push("C", format!("{b:?}: Yield {side} while at home"));
                    }
                    match t.state {
                        CoupleState::Unknown => {
                            t.born_decoupled = true;
                            t.state = CoupleState::Decoupled;
                        }
                        CoupleState::Decoupled => {}
                        s => r.push("C", format!("{b:?}: Yield {side} while {s:?}")),
                    }
                }
            }
            TraceEvent::Requeue(b) => {
                if !spawned.contains(&b) {
                    r.push("C", format!("{b:?}: Requeue by a never-spawned BLT"));
                    continue;
                }
                let t = track.entry(b).or_insert_with(BltTrack::new);
                t.requeues += 1;
                // Only a running UC at home on its own KC gives the KC up
                // this way; on a scheduler it would `Yield` to a
                // neighbour or not switch at all.
                if t.state != CoupleState::Decoupled || !t.at_home {
                    r.push(
                        "C",
                        format!(
                            "{b:?}: Requeue while {:?}, {} home",
                            t.state,
                            if t.at_home { "at" } else { "not at" }
                        ),
                    );
                }
                t.at_home = false;
            }
            TraceEvent::Wait(b) => {
                if !spawned.contains(&b) {
                    r.push("C", format!("{b:?}: Wait by a never-spawned BLT"));
                    continue;
                }
                let t = track.entry(b).or_insert_with(BltTrack::new);
                t.waits += 1;
                // A KLT waits on its own OS thread, off the trace.
                if t.state != CoupleState::Decoupled {
                    r.push("C", format!("{b:?}: Wait while {:?}", t.state));
                }
                t.at_home = false;
            }
            TraceEvent::Terminate(b) => {
                totals_terminate += 1;
                if !spawned.contains(&b) {
                    r.push("C", format!("{b:?}: Terminate of a never-spawned BLT"));
                    continue;
                }
                let t = track.entry(b).or_insert_with(BltTrack::new);
                t.terminates += 1;
                match t.state {
                    // Rule 7: terminate as a KLT, i.e. never with a couple
                    // request in flight and never twice. `Unknown` is a
                    // primary that neither decoupled nor syscalled.
                    CoupleState::PendingCouple => r.push(
                        "C",
                        format!("{b:?}: Terminate with couple request in flight"),
                    ),
                    CoupleState::Terminated => r.push("C", format!("{b:?}: Terminate twice")),
                    _ => {}
                }
                t.state = CoupleState::Terminated;
            }
            TraceEvent::Signal { uc, signal } => {
                if !spawned.contains(&uc) {
                    continue;
                }
                let t = track.entry(uc).or_insert_with(BltTrack::new);
                // Delivery happens at the post-couple safe point or an
                // explicit poll while coupled; `Unknown` is the KLT phase.
                match t.state {
                    CoupleState::Coupled | CoupleState::Unknown => {}
                    s => r.push(
                        "C",
                        format!("{uc:?}: signal {signal} delivered while {s:?}"),
                    ),
                }
            }
            TraceEvent::KcBlocked(_) => {}
            TraceEvent::CoupleHandoff { from, to } => {
                totals_handoff += 1;
                if !spawned.contains(&from) {
                    r.push(
                        "C",
                        format!("{from:?}: CoupleHandoff from a never-spawned BLT"),
                    );
                    continue;
                }
                if !spawned.contains(&to) {
                    r.push("C", format!("{to:?}: CoupleHandoff to a never-spawned BLT"));
                    continue;
                }
                // A handoff sits between Decouple(from) and Coupled(to):
                // the departing BLT must already be off its KC, and the
                // receiver must have a couple request in flight — the
                // handoff answers that request, so the existing family-D
                // requests==coupleds conservation covers fast-path couples
                // with no extra bookkeeping.
                let tf = track.entry(from).or_insert_with(BltTrack::new);
                if tf.state != CoupleState::Decoupled {
                    r.push(
                        "C",
                        format!("{from:?}: CoupleHandoff from while {:?}", tf.state),
                    );
                }
                let tt = track.entry(to).or_insert_with(BltTrack::new);
                if tt.state != CoupleState::PendingCouple {
                    r.push(
                        "C",
                        format!(
                            "{to:?}: CoupleHandoff to without a pending request ({:?})",
                            tt.state
                        ),
                    );
                }
            }
            TraceEvent::SyscallEnter { uc, sysno, coupled } => {
                if !coupled && input.expect_coupled_syscalls && spawned.contains(&uc) {
                    decoupled_enters += 1;
                    first_decoupled_enter.get_or_insert((uc, sysno));
                    r.push(
                        "B",
                        format!("{uc:?}: {sysno:?} entered DECOUPLED (§V-B hazard)"),
                    );
                }
                if spawned.contains(&uc) {
                    let t = track.entry(uc).or_insert_with(BltTrack::new);
                    *t.spans.entry(sysno).or_insert(0) += 1;
                }
            }
            TraceEvent::SyscallExit { uc, sysno, .. } => {
                if spawned.contains(&uc) {
                    let t = track.entry(uc).or_insert_with(BltTrack::new);
                    let n = t.spans.entry(sysno).or_insert(0);
                    *n -= 1;
                    if *n < 0 {
                        r.push("H", format!("{uc:?}: {sysno:?} exit without enter"));
                        *n = 0;
                    }
                }
            }
            TraceEvent::Wake {
                wakee,
                site,
                delay_ns,
                ..
            } => {
                // J3 bookkeeping counts every edge, spawned wakee or not
                // (the histograms do too).
                wake_counts[site as usize] += 1;
                wake_delays[site as usize] = wake_delays[site as usize].saturating_add(delay_ns);
                if !spawned.contains(&wakee) {
                    continue;
                }
                let t = track.entry(wakee).or_insert_with(BltTrack::new);
                match site {
                    WakeSite::Enqueue | WakeSite::Spawn | WakeSite::WaitList => {
                        // J1 — at most one edge per run-queue stay.
                        let prev = t.pending_runnable.replace(site);
                        if wake_checks && prev.is_some() {
                            r.push(
                                "J",
                                format!(
                                    "{wakee:?}: second run-queue wake edge ({}) before a \
                                     resumption consumed the first",
                                    site.name()
                                ),
                            );
                        }
                    }
                    WakeSite::CoupleResume | WakeSite::CoupleHandoff => {
                        let prev = t.pending_couple.replace(site);
                        if wake_checks && prev.is_some() {
                            r.push(
                                "J",
                                format!(
                                    "{wakee:?}: second couple wake edge ({}) before a \
                                     Coupled consumed the first",
                                    site.name()
                                ),
                            );
                        }
                    }
                    _ => {
                        // J2 — a kernel-site edge is only legal while the
                        // wakee's matching blocking span is still open:
                        // EINTR'd, timed-out or spuriously-woken waits
                        // never reach the consume point inside the span.
                        // (`None` = exempt: run-queue sites pair with
                        // scheduling events instead (J1), and `kc_notify`/
                        // `signal`/`futex_wake` consume outside any span.)
                        if let Some(sysno) = site.blocking_span() {
                            if wake_checks && t.spans.get(&sysno).copied().unwrap_or(0) <= 0 {
                                r.push(
                                    "J",
                                    format!(
                                        "{wakee:?}: {} wake edge outside any open {sysno:?} span",
                                        site.name()
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // Per-BLT end-of-run balances.
    for (b, t) in track.iter() {
        // G — terminate exactly once.
        if t.terminates != 1 {
            r.push(
                "G",
                format!("{b:?}: {} Terminate events (want 1)", t.terminates),
            );
        }
        // D — every couple request answered.
        if t.requests != t.coupleds {
            r.push(
                "D",
                format!(
                    "{b:?}: {} couple requests vs {} completions",
                    t.requests, t.coupleds
                ),
            );
        }
        // D — queue conservation: each enqueue (decouple, yield-away,
        // requeue, wait, decoupled birth) is consumed by exactly one
        // resumption.
        let enqueues =
            t.decouples + t.yields_from + t.requeues + t.waits + u64::from(t.born_decoupled);
        let resumptions = t.dispatches + t.yields_to;
        if enqueues != resumptions {
            r.push(
                "D",
                format!("{b:?}: {enqueues} enqueues vs {resumptions} resumptions"),
            );
        }
        // H — all spans closed.
        for (sysno, n) in t.spans.iter() {
            if *n != 0 {
                r.push("H", format!("{b:?}: {sysno:?} has {n} unclosed spans"));
            }
        }
        // J1 — no wake edge may outlive the run unconsumed: every BLT has
        // terminated (G), so a leftover edge promised a resumption that
        // never happened.
        if wake_checks {
            if let Some(site) = t.pending_runnable {
                r.push(
                    "J",
                    format!("{b:?}: unconsumed {} wake edge at end of run", site.name()),
                );
            }
            if let Some(site) = t.pending_couple {
                r.push(
                    "J",
                    format!("{b:?}: unconsumed {} wake edge at end of run", site.name()),
                );
            }
        }
    }

    // G — global spawn/terminate balance.
    if totals_spawn != totals_terminate {
        r.push(
            "G",
            format!("{totals_spawn} Spawn events vs {totals_terminate} Terminate events"),
        );
    }

    // E — trace totals vs the runtime's independent counters.
    let e = [
        ("Spawn", totals_spawn, input.stats.spawned, "spawned"),
        (
            "Decouple",
            totals_decouple,
            input.stats.decouples,
            "decouples",
        ),
        ("Coupled", totals_coupled, input.stats.couples, "couples"),
        ("Yield", totals_yield, input.stats.yields, "yields"),
        (
            "Dispatch",
            totals_dispatch,
            input.stats.dispatches,
            "dispatches",
        ),
        (
            "CoupleHandoff",
            totals_handoff,
            input.stats.handoffs,
            "handoffs",
        ),
        ("home Dispatch", totals_home, input.stats.homes, "homes"),
    ];
    for (event, traced, counted, counter) in e {
        if traced != counted {
            r.push(
                "E",
                format!("{traced} {event} events vs stats.{counter} = {counted}"),
            );
        }
    }

    // F — histogram sample conservation.
    if input.latency.couple_resume.count != totals_coupled {
        r.push(
            "F",
            format!(
                "couple_resume histogram has {} samples vs {} Coupled events",
                input.latency.couple_resume.count, totals_coupled
            ),
        );
    }
    let switches = totals_dispatch + totals_yield;
    if input.latency.queue_delay.count != switches {
        r.push(
            "F",
            format!(
                "queue_delay histogram has {} samples vs {} Dispatch+Yield events",
                input.latency.queue_delay.count, switches
            ),
        );
    }

    // J3 — wake conservation: `emit_wake` records the trace event and the
    // per-site histogram sample together, so on a loss-free trace the edge
    // counts and delay totals must agree exactly.
    if wake_checks {
        for site in WakeSite::ALL {
            let hist = input.latency.wake.site(site);
            if wake_counts[site as usize] != hist.count {
                r.push(
                    "J",
                    format!(
                        "{} Wake events at site {} vs {} histogram samples",
                        wake_counts[site as usize],
                        site.name(),
                        hist.count
                    ),
                );
            }
            if wake_delays[site as usize] != hist.sum {
                r.push(
                    "J",
                    format!(
                        "site {} wake delays sum to {} ns vs histogram sum {} ns",
                        site.name(),
                        wake_delays[site as usize],
                        hist.sum
                    ),
                );
            }
        }
    }

    if decoupled_enters > 0 {
        let (uc, sysno) = first_decoupled_enter.expect("counted above");
        r.push(
            "B",
            format!("{decoupled_enters} decoupled syscall enters total (first: {uc:?} {sysno:?})"),
        );
    }

    // I — the profile fold is accountable to the raw telemetry. Only
    // meaningful on a complete history: A already voided lossy runs.
    if input.dropped == 0 {
        let profile = fold_profile(input.trace);

        // I1 — per-BLT lifetime partition: for every BLT whose whole life
        // is on the trace, the four lifecycle state totals sum to exactly
        // `end - start` (the fold closes and opens spans at the same
        // timestamps, so not a nanosecond may leak or double-count).
        for b in &profile.blts {
            if !spawned.contains(&b.id) {
                continue;
            }
            if let Some(end) = b.end_ns {
                let lifetime = end.saturating_sub(b.start_ns);
                if b.lifecycle_ns() != lifetime {
                    r.push(
                        "I",
                        format!(
                            "{:?}: lifecycle states sum to {} ns over a {} ns lifetime",
                            b.id,
                            b.lifecycle_ns(),
                            lifetime
                        ),
                    );
                }
            }
        }

        // I2 + I3 — folded span counts vs the independent histograms
        // (per-syscall counts, decoupled spans vs queue-delay samples,
        // coupled resumes vs couple-resume samples).
        for msg in profile.reconcile(input.latency, input.syscalls) {
            r.push("I", msg);
        }

        // I4 — the collapsed rendering round-trips and adds up: every line
        // parses, and per BLT the self-time leaves sum back to the
        // snapshot's own flame total.
        match parse_collapsed(&profile.collapsed()) {
            Err(e) => r.push("I", format!("collapsed text does not parse: {e}")),
            Ok(rows) => {
                let mut per_blt: HashMap<String, u64> = HashMap::new();
                for (stack, v) in &rows {
                    let blt = stack.split(';').next().unwrap_or("").to_string();
                    *per_blt.entry(blt).or_insert(0) += v;
                }
                for b in &profile.blts {
                    let rendered = per_blt
                        .get(&format!("blt:{}", b.id.0))
                        .copied()
                        .unwrap_or(0);
                    if rendered != b.flame_ns() {
                        r.push(
                            "I",
                            format!(
                                "{:?}: collapsed lines sum to {} ns vs flame total {} ns",
                                b.id,
                                rendered,
                                b.flame_ns()
                            ),
                        );
                    }
                }
            }
        }
    }

    r.finish()
}
