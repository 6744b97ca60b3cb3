//! What a recorded trace *means*, worked out once for the renderers that
//! draw it.
//!
//! [`replay`] walks a drained (or snapshotted) record stream in timestamp
//! order and owns everything a [`TraceRecord`] does to a BLT: the Table-I
//! lifecycle state with its host, the birth inference (a BLT whose first
//! scheduling record is a resumption was born `queued`, not `coupled`), the
//! original KC's park windows, the per-`(BLT, shard)` syscall nesting with
//! the live recorder's depth cap and mismatch rule, closing whatever is
//! still open at the horizon, and the `[t0, t1)` window — both how much of a
//! stretch falls inside it and whether the stretch counts at all. It hands
//! the result to a sink as typed [`Item`]s, in record order.
//!
//! The two consumers keep only what is theirs: `export::chrome_trace_json`
//! turns items into Chrome trace events and declares the tracks it drew on;
//! `profile::fold_profile_window` aggregates them per BLT and owns the wake
//! *chains* (who woke the waker), which are a property of the aggregation,
//! not of a record. Both therefore agree by construction on what a span is,
//! where it starts and what a window keeps.
//!
//! ## The item contract
//!
//! - [`Item::Born`] precedes every other item about a BLT, at the BLT's
//!   first record of any kind in which it is the subject (a host, a waker, a
//!   signal's target and a handoff's two ends are not subjects).
//! - [`Item::Span`] is emitted when a stretch *ends* — so it already carries
//!   its final label — and every stretch ends: at the record that moves the
//!   BLT on, or at the horizon (the last record's timestamp). The four
//!   lifecycle states partition `[Born, Terminated)`; `KcBlocked` spans run
//!   in parallel to them.
//! - [`Item::Syscall`] is emitted at the exit record, innermost first when
//!   several frames are in flight at the horizon (`errno: None`).
//! - An item ahead of another in the trace is ahead of it in the sink; a
//!   [`Item::Wake`] therefore reaches the sink before the [`Item::Span`] of
//!   the blocked stretch the same-stamped `Dispatch`/`Coupled` ends.
//! - Every time on an item is clipped to the window; `counted` says the
//!   thing intersects it. Point items outside the window are not emitted,
//!   except [`Item::Wake`], whose causality outlives the window.
//!
//! The torture oracle and the replay digest are deliberately *not*
//! consumers: the oracle is the reference the fold is checked against
//! (family I), and a reference that shared this code would agree with it.

use crate::profile::ProfileState;
use crate::trace::{Event, TraceRecord, SYS_STACK_DEPTH};
use crate::uc::BltId;
use std::collections::BTreeMap;
use ulp_kernel::{Sysno, WakeSite};

/// A trace window `[t0, t1)` in nanoseconds on the trace clock; `None` is
/// the whole recording.
pub(crate) type Window = Option<(u64, u64)>;

/// What the window leaves of a stretch `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cut {
    /// Where the stretch starts inside the window.
    pub at_ns: u64,
    /// How long it lasts inside the window (its full length when
    /// unwindowed).
    pub ns: u64,
    /// Whether it intersects the window: `ns > 0`, or a zero-length stretch
    /// inside `[t0, t1)`.
    pub counted: bool,
}

impl Cut {
    fn new((t0, t1): (u64, u64), start: u64, end: u64) -> Cut {
        Cut {
            at_ns: start.max(t0),
            ns: end.min(t1).saturating_sub(start.max(t0)),
            counted: start < t1 && (end > t0 || (start == end && start >= t0)),
        }
    }
}

/// An instant on a BLT's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mark {
    /// The BLT's original KC went to sleep.
    KcBlocked,
    /// The BLT, decoupling, handed its KC straight to a couple requester.
    CoupleHandoff,
    /// A signal was delivered to the BLT.
    Signal(u8),
    /// The BLT entered a system call while decoupled (§V-B hazard).
    SyscallViolation,
}

/// One thing the trace says happened, as the renderers need it.
#[derive(Debug)]
pub(crate) enum Item<'a> {
    /// `blt`'s first record: its profile starts here.
    Born {
        /// The BLT.
        blt: BltId,
        /// The record's raw timestamp.
        at_ns: u64,
    },
    /// A stretch in one state ended.
    Span {
        /// The BLT.
        blt: BltId,
        /// The state it was in; `KcBlocked` is a park window of its
        /// original KC, parallel to the lifecycle.
        state: ProfileState,
        /// The KC that hosted a `Decoupled` stretch, when a `Dispatch`
        /// opened it (the BLT's own id = at home).
        host: Option<BltId>,
        /// The stretch inside the window.
        cut: Cut,
    },
    /// A couple request completed (`Coupled`).
    Resumed {
        /// The BLT.
        blt: BltId,
        /// Whether the completion is inside the window.
        counted: bool,
    },
    /// The BLT terminated.
    Terminated {
        /// The BLT.
        blt: BltId,
        /// The record's raw timestamp.
        at_ns: u64,
    },
    /// A system call returned, or was still in flight at the horizon.
    Syscall {
        /// The issuing BLT (`BltId(0)`: a thread with no ULP bound).
        blt: BltId,
        /// The lifecycle state it was issued from — the open span's state
        /// at the enter edge, else what the record's `coupled` flag says.
        state: ProfileState,
        /// The call chain on its shard, outermost first, ending in this
        /// call.
        path: &'a [Sysno],
        /// Enter to exit (or horizon) inside the window.
        cut: Cut,
        /// `cut.ns` less the time in nested calls that returned.
        self_ns: u64,
        /// No enclosing call: the time comes out of `state`'s own.
        top_level: bool,
        /// Entered beyond the live recorder's nesting cap: balanced, but
        /// the latency histograms never timed it.
        deep: bool,
        /// The exit record's errno; `None` while in flight.
        errno: Option<i32>,
        /// Whether the issuer was coupled, at the exit edge (the enter edge
        /// while in flight).
        coupled: bool,
    },
    /// An instant inside the window.
    Mark {
        /// The BLT whose timeline it sits on.
        blt: BltId,
        /// What happened.
        mark: Mark,
        /// When.
        at_ns: u64,
    },
    /// A wake edge: `waker` ended `wakee`'s wait.
    Wake {
        /// The BLT whose action armed the wake (`BltId(0)`: outside the
        /// runtime).
        waker: BltId,
        /// The BLT made runnable.
        wakee: BltId,
        /// The kind of event that ended the wait.
        site: WakeSite,
        /// Wake armed to wakee running again.
        delay_ns: u64,
        /// When the wakee ran again.
        at_ns: u64,
        /// Whether `at_ns` is inside the window.
        counted: bool,
    },
}

/// The replay's view of one BLT.
#[derive(Default)]
struct Life {
    /// The open lifecycle span: start, state, host.
    open: Option<(u64, ProfileState, Option<BltId>)>,
    /// The open span began at `Spawn` and no scheduling record has yet said
    /// whether the BLT was born coupled (a primary) or into the run queue (a
    /// sibling or pooled ULP, whose registration is an enqueue).
    birth_unresolved: bool,
    /// Since when the original KC has been parked.
    parked: Option<u64>,
}

/// One system call in flight on a shard.
struct Frame {
    /// The enter record's timestamp.
    start_ns: u64,
    /// The call.
    sysno: Sysno,
    /// The issuing BLT's state at the enter edge.
    state: ProfileState,
    /// The enter record's `coupled` flag.
    coupled: bool,
    /// Window time of the nested calls that have returned.
    child_ns: u64,
    /// Entered at depth [`SYS_STACK_DEPTH`] or beyond.
    deep: bool,
}

/// Replay `records` (any order; sorted stably by timestamp here) through the
/// Table-I state machine, handing every [`Item`] inside `window` to `sink`.
/// Returns the horizon: the last record's timestamp, where open spans close.
pub(crate) fn replay(records: &[TraceRecord], window: Window, sink: impl FnMut(Item<'_>)) -> u64 {
    let mut recs: Vec<&TraceRecord> = records.iter().collect();
    recs.sort_by_key(|r| r.at_ns);
    let horizon_ns = recs.last().map_or(0, |r| r.at_ns);
    let mut replay = Replay {
        // No window is the widest one: no stamp reaches `u64::MAX`.
        window: window.unwrap_or((0, u64::MAX)),
        lives: BTreeMap::new(),
        stacks: BTreeMap::new(),
        path: Vec::new(),
        sink,
    };
    for r in recs {
        replay.step(r);
    }
    replay.close(horizon_ns);
    horizon_ns
}

/// The state [`replay`] carries from record to record.
struct Replay<F> {
    /// The window every time is clipped to.
    window: (u64, u64),
    /// Per-BLT lifecycle, by id (closing order at the horizon).
    lives: BTreeMap<u64, Life>,
    /// In-flight system calls by (BLT, recording shard). A call runs on one
    /// kernel context from enter to exit, so the shard keeps the streams of
    /// distinct unbound threads — all `BltId(0)` — out of each other's
    /// nesting.
    stacks: BTreeMap<(u64, u32), Vec<Frame>>,
    /// Scratch for [`Item::Syscall::path`].
    path: Vec<Sysno>,
    /// Where the items go.
    sink: F,
}

impl<F: FnMut(Item<'_>)> Replay<F> {
    /// `blt`'s entry, announced with [`Item::Born`] when this is its first
    /// record.
    fn life(&mut self, blt: BltId, at_ns: u64) -> &mut Life {
        if !self.lives.contains_key(&blt.0) {
            (self.sink)(Item::Born { blt, at_ns });
        }
        self.lives.entry(blt.0).or_default()
    }

    fn span(&mut self, blt: BltId, state: ProfileState, host: Option<BltId>, start: u64, end: u64) {
        let cut = Cut::new(self.window, start, end);
        (self.sink)(Item::Span {
            blt,
            state,
            host,
            cut,
        });
    }

    /// A scheduling record moves `blt` on: end its open span at `at_ns` and
    /// open `next`. `resumed` is what the record says about the birth span,
    /// if that is still the open one: a resumption (`Dispatch`, incoming
    /// `Yield`) can only follow an enqueue, so the BLT was born queued.
    fn turn(
        &mut self,
        blt: BltId,
        at_ns: u64,
        resumed: bool,
        next: Option<(ProfileState, Option<BltId>)>,
    ) {
        let life = self.life(blt, at_ns);
        if std::mem::take(&mut life.birth_unresolved) && resumed {
            if let Some((_, state @ ProfileState::Coupled, _)) = &mut life.open {
                *state = ProfileState::Queued;
            }
        }
        let next = next.map(|(state, host)| (at_ns, state, host));
        if let Some((start, state, host)) = std::mem::replace(&mut life.open, next) {
            self.span(blt, state, host, start, at_ns);
        }
    }

    /// End `blt`'s original KC's park window, if one is open.
    fn unpark(&mut self, blt: BltId, at_ns: u64) {
        if let Some(start) = self.life(blt, at_ns).parked.take() {
            self.span(blt, ProfileState::KcBlocked, None, start, at_ns);
        }
    }

    /// Is a point event inside the window?
    fn in_point(&self, at_ns: u64) -> bool {
        at_ns >= self.window.0 && at_ns < self.window.1
    }

    fn mark(&mut self, blt: BltId, mark: Mark, at_ns: u64) {
        if self.in_point(at_ns) {
            (self.sink)(Item::Mark { blt, mark, at_ns });
        }
    }

    fn step(&mut self, r: &TraceRecord) {
        use ProfileState::{Coupled, Coupling, Decoupled, Queued};
        let at = r.at_ns;
        match r.event {
            Event::Spawn(u) => {
                self.turn(u, at, false, Some((Coupled, None)));
                self.life(u, at).birth_unresolved = true;
            }
            // `Requeue`: a UC at home re-entering the run queue is queued
            // again, exactly as after its `Decouple`; so is a `Wait`, off
            // every KC until its setter queues it and a dispatch resumes it.
            Event::Decouple(u) | Event::Requeue(u) | Event::Wait(u) => {
                self.turn(u, at, false, Some((Queued, None)))
            }
            Event::Dispatch { uc, scheduler } => {
                self.turn(uc, at, true, Some((Decoupled, Some(scheduler))))
            }
            Event::Yield { from, to } => {
                // The yielding UC re-enters the queue; the incoming UC runs.
                self.turn(from, at, false, Some((Queued, None)));
                self.turn(to, at, true, Some((Decoupled, None)));
            }
            Event::CoupleRequest(u) => self.turn(u, at, false, Some((Coupling, None))),
            Event::Coupled(u) => {
                let counted = self.in_point(at);
                self.life(u, at);
                (self.sink)(Item::Resumed { blt: u, counted });
                self.unpark(u, at);
                self.turn(u, at, false, Some((Coupled, None)));
            }
            Event::Terminate(u) => {
                self.turn(u, at, false, None);
                self.unpark(u, at);
                (self.sink)(Item::Terminated { blt: u, at_ns: at });
            }
            Event::KcBlocked(u) => {
                // A re-park without an intervening `Coupled` (spurious futex
                // wake) ends the previous window here — the wake itself is
                // not traced, so the awake gap is charged to the blocked
                // track rather than invented.
                self.unpark(u, at);
                self.life(u, at).parked = Some(at);
                self.mark(u, Mark::KcBlocked, at);
            }
            // The handoff carries no lifetime of its own: the bracketing
            // Decouple(from) and Coupled(to) records drive the states.
            Event::CoupleHandoff { from, .. } => self.mark(from, Mark::CoupleHandoff, at),
            Event::Signal { uc, signal } => self.mark(uc, Mark::Signal(signal), at),
            Event::Wake {
                waker,
                wakee,
                site,
                delay_ns,
            } => {
                self.life(wakee, at);
                let counted = self.in_point(at);
                (self.sink)(Item::Wake {
                    waker,
                    wakee,
                    site,
                    delay_ns,
                    at_ns: at,
                    counted,
                });
            }
            Event::SyscallEnter { uc, sysno, coupled } => {
                // No lifecycle track (BLT 0, scheduler identities): go by
                // the consistency flag the record itself carries.
                let by_flag = if coupled { Coupled } else { Decoupled };
                let state = self.life(uc, at).open.map_or(by_flag, |(_, s, _)| s);
                if !coupled {
                    self.mark(uc, Mark::SyscallViolation, at);
                }
                let stack = self.stacks.entry((uc.0, r.kc)).or_default();
                stack.push(Frame {
                    start_ns: at,
                    sysno,
                    state,
                    coupled,
                    child_ns: 0,
                    deep: stack.len() >= SYS_STACK_DEPTH,
                });
            }
            Event::SyscallExit {
                uc,
                sysno,
                coupled,
                errno,
            } => {
                let Some(stack) = self.stacks.get_mut(&(uc.0, r.kc)) else {
                    return; // tracing came on mid-call: no enter edge
                };
                match stack.pop() {
                    None => {}
                    // A mismatched exit: the live recorder clears its whole
                    // stack here, and so must any count that reconciles
                    // with its histograms.
                    Some(top) if top.sysno != sysno => stack.clear(),
                    Some(frame) => {
                        let cut = Cut::new(self.window, frame.start_ns, at);
                        if let (false, Some(parent)) = (frame.deep, stack.last_mut()) {
                            parent.child_ns += cut.ns;
                        }
                        self.path.clear();
                        self.path.extend(stack.iter().map(|f| f.sysno));
                        self.path.push(sysno);
                        (self.sink)(Item::Syscall {
                            blt: uc,
                            state: frame.state,
                            path: &self.path,
                            cut,
                            self_ns: cut.ns.saturating_sub(frame.child_ns),
                            top_level: stack.is_empty(),
                            deep: frame.deep,
                            errno: Some(errno),
                            coupled,
                        });
                    }
                }
            }
        }
    }

    /// Close whatever is still open at the horizon: per BLT its lifecycle
    /// span and park window, then the in-flight system calls, innermost
    /// first.
    fn close(&mut self, horizon_ns: u64) {
        for (id, life) in std::mem::take(&mut self.lives) {
            if let Some((start, state, host)) = life.open {
                self.span(BltId(id), state, host, start, horizon_ns);
            }
            if let Some(start) = life.parked {
                self.span(BltId(id), ProfileState::KcBlocked, None, start, horizon_ns);
            }
        }
        for ((uc, _), stack) in std::mem::take(&mut self.stacks) {
            let path: Vec<Sysno> = stack.iter().map(|f| f.sysno).collect();
            for (depth, frame) in stack.iter().enumerate().rev() {
                let cut = Cut::new(self.window, frame.start_ns, horizon_ns);
                (self.sink)(Item::Syscall {
                    blt: BltId(uc),
                    state: frame.state,
                    path: &path[..=depth],
                    cut,
                    self_ns: cut.ns.saturating_sub(frame.child_ns),
                    top_level: depth == 0,
                    deep: frame.deep,
                    errno: None,
                    coupled: frame.coupled,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ns: u64, event: Event) -> TraceRecord {
        TraceRecord {
            at_ns,
            event,
            kc: 1,
        }
    }

    fn sys(at_ns: u64, sysno: Sysno, exit: bool) -> TraceRecord {
        let (uc, coupled) = (BltId(2), true);
        rec(
            at_ns,
            if exit {
                Event::SyscallExit {
                    uc,
                    sysno,
                    coupled,
                    errno: 0,
                }
            } else {
                Event::SyscallEnter { uc, sysno, coupled }
            },
        )
    }

    /// One line per item: enough to read the order and the clipping.
    fn items(records: &[TraceRecord], window: Window) -> Vec<String> {
        let mut out = Vec::new();
        replay(records, window, |item| {
            out.push(match item {
                Item::Born { blt, at_ns } => format!("born {} @{at_ns}", blt.0),
                Item::Span {
                    blt, state, cut, ..
                } => format!(
                    "{} {} @{}+{}{}",
                    state.name(),
                    blt.0,
                    cut.at_ns,
                    cut.ns,
                    if cut.counted { "" } else { " uncounted" }
                ),
                Item::Resumed { blt, .. } => format!("resumed {}", blt.0),
                Item::Terminated { blt, at_ns } => format!("terminated {} @{at_ns}", blt.0),
                Item::Syscall {
                    path, errno, deep, ..
                } => {
                    let path: Vec<_> = path.iter().map(|no| no.name()).collect();
                    let how = match (errno, deep) {
                        (None, _) => " in flight",
                        (_, true) => " deep",
                        _ => "",
                    };
                    format!("syscall {}{how}", path.join(">"))
                }
                Item::Mark { blt, mark, at_ns } => format!("{mark:?} {} @{at_ns}", blt.0),
                Item::Wake { waker, wakee, .. } => format!("wake {}>{}", waker.0, wakee.0),
            })
        });
        out
    }

    #[test]
    fn born_comes_first_and_a_wake_precedes_the_span_it_ends() {
        let trace = [
            rec(0, Event::Spawn(BltId(4))),
            rec(100, Event::Decouple(BltId(4))),
            rec(
                250,
                Event::Wake {
                    waker: BltId(3),
                    wakee: BltId(4),
                    site: WakeSite::Enqueue,
                    delay_ns: 150,
                },
            ),
            rec(
                250,
                Event::Dispatch {
                    uc: BltId(4),
                    scheduler: BltId(1),
                },
            ),
            rec(800, Event::Terminate(BltId(4))),
        ];
        assert_eq!(
            items(&trace, None),
            [
                "born 4 @0",
                "coupled 4 @0+100",
                "wake 3>4",
                "queued 4 @100+150",
                "decoupled 4 @250+550",
                "terminated 4 @800"
            ]
        );
        // Windowed: times are clipped, a span outside is handed over
        // uncounted, and the wake edge still arrives (its chain outlives
        // the window).
        assert_eq!(
            items(&trace, Some((300, 400))),
            [
                "born 4 @0",
                "coupled 4 @300+0 uncounted",
                "wake 3>4",
                "queued 4 @300+0 uncounted",
                "decoupled 4 @300+100",
                "terminated 4 @800"
            ]
        );
    }

    #[test]
    fn a_window_keeps_what_intersects_it() {
        let cut = |start, end| Cut::new((200, 500), start, end);
        assert_eq!((cut(100, 250).at_ns, cut(100, 250).ns), (200, 50));
        assert_eq!((cut(450, 900).at_ns, cut(450, 900).ns), (450, 50));
        assert_eq!((cut(0, 900).ns, cut(0, 900).counted), (300, true));
        assert!(!cut(0, 200).counted && !cut(500, 600).counted);
        // A zero-length stretch counts inside `[t0, t1)` only.
        assert!(cut(200, 200).counted && cut(499, 499).counted);
        assert!(!cut(199, 199).counted && !cut(500, 500).counted);
        // No window is the widest one.
        let all = (0, u64::MAX);
        assert!(Cut::new(all, 0, 0).counted && Cut::new(all, 7, 7).counted);
        assert_eq!((Cut::new(all, 7, 9).at_ns, Cut::new(all, 7, 9).ns), (7, 2));
    }

    #[test]
    fn open_stretches_close_at_the_horizon_innermost_first() {
        let trace = [
            sys(10, Sysno::Read, false),
            sys(20, Sysno::PipeBlockRead, false),
            rec(30, Event::KcBlocked(BltId(2))),
            rec(
                90,
                Event::Signal {
                    uc: BltId(9),
                    signal: 10,
                },
            ),
        ];
        assert_eq!(
            items(&trace, None),
            [
                "born 2 @10",
                "KcBlocked 2 @30",
                "Signal(10) 9 @90",
                "kc_blocked 2 @30+60",
                "syscall read>pipe_block_read in flight",
                "syscall read in flight"
            ]
        );
    }

    #[test]
    fn frames_beyond_the_recorders_cap_are_flagged_not_timed() {
        let mut trace: Vec<TraceRecord> = (0..=SYS_STACK_DEPTH as u64)
            .map(|d| sys(d, Sysno::Getpid, false))
            .collect();
        trace.extend((0..=SYS_STACK_DEPTH as u64).map(|d| sys(100 + d, Sysno::Getpid, true)));
        let got = items(&trace, None);
        let deep: Vec<_> = got.iter().filter(|l| l.ends_with(" deep")).collect();
        assert_eq!(deep.len(), 1, "{got:?}");
        // The deep frame (entered at 8, out at 100) is not taken out of its
        // parent's (7 to 101) self time.
        let mut self_ns = Vec::new();
        replay(&trace, None, |item| {
            if let Item::Syscall { self_ns: ns, .. } = item {
                self_ns.push(ns);
            }
        });
        assert_eq!(self_ns[..2], [92, 94]);
    }
}
