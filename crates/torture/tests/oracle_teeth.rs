//! The oracle's own teeth: one minimal hand-written trace per message of
//! invariant families C, D, G, H and J, each differing from a legal
//! neighbour by one record (or one field), so a check that stops firing is
//! a red row here rather than a torture matrix that quietly passes more.
//! Family B is covered by the planted `torture_mutation`; E, F and I compare
//! the trace against the runtime's own counters and histograms, which the
//! harness below *derives from the trace* so that only the family under test
//! can speak.

use ulp_core::{BltId, LatencySnapshot, SyscallSnapshot, Sysno, TraceRecord, WakeSite};
use ulp_core::{TraceEvent as E, UlpError};
use ulp_torture::oracle::{check, OracleInput};
use ulp_torture::StatsDelta;

const S: BltId = BltId(1); // a scheduler KC: never spawned
const A: BltId = BltId(4);
const B: BltId = BltId(5);

fn rec(at_ns: u64, event: E) -> TraceRecord {
    TraceRecord {
        at_ns,
        event,
        kc: 1,
    }
}

fn wake(at_ns: u64, wakee: BltId, site: WakeSite) -> TraceRecord {
    rec(
        at_ns,
        E::Wake {
            waker: wakee,
            wakee,
            site,
            delay_ns: 10,
        },
    )
}

fn dispatch(at_ns: u64, uc: BltId, scheduler: BltId) -> TraceRecord {
    rec(at_ns, E::Dispatch { uc, scheduler })
}

fn enter(at_ns: u64, uc: BltId, sysno: Sysno) -> TraceRecord {
    rec(
        at_ns,
        E::SyscallEnter {
            uc,
            sysno,
            coupled: true,
        },
    )
}

fn exit(at_ns: u64, uc: BltId, sysno: Sysno) -> TraceRecord {
    rec(
        at_ns,
        E::SyscallExit {
            uc,
            sysno,
            coupled: true,
            errno: 0,
        },
    )
}

/// Fig. 6 for one BLT, every resumption announced by its wake edge; the
/// decoupled stretch is hosted by `host` (`A` itself = at home).
fn life(host: BltId) -> Vec<TraceRecord> {
    vec![
        rec(0, E::Spawn(A)),
        rec(10, E::Decouple(A)),
        wake(20, A, WakeSite::Enqueue),
        dispatch(20, A, host),
        rec(30, E::CoupleRequest(A)),
        wake(40, A, WakeSite::CoupleResume),
        rec(40, E::Coupled(A)),
        rec(50, E::Terminate(A)),
    ]
}

/// `A` and `B` on one scheduler; `A`, hosted by `host`, yields to `B`.
fn pair(host: BltId) -> Vec<TraceRecord> {
    vec![
        rec(0, E::Spawn(A)),
        rec(1, E::Spawn(B)),
        rec(10, E::Decouple(A)),
        rec(11, E::Decouple(B)),
        wake(20, A, WakeSite::Enqueue),
        dispatch(20, A, host),
        wake(30, B, WakeSite::Enqueue),
        rec(30, E::Yield { from: A, to: B }),
        rec(40, E::CoupleRequest(B)),
        wake(50, B, WakeSite::CoupleResume),
        rec(50, E::Coupled(B)),
        rec(55, E::Terminate(B)),
        wake(60, A, WakeSite::Enqueue),
        dispatch(60, A, S),
        rec(70, E::CoupleRequest(A)),
        wake(80, A, WakeSite::CoupleResume),
        rec(80, E::Coupled(A)),
        rec(90, E::Terminate(A)),
    ]
}

/// `life(host)` with a `yield_now()` that gave the KC up at 24 and a
/// scheduler's dispatch answering it.
fn requeued(host: BltId) -> Vec<TraceRecord> {
    let mut t = life(host);
    t.splice(
        4..4,
        [
            rec(24, E::Requeue(A)),
            wake(26, A, WakeSite::Enqueue),
            dispatch(26, A, S),
        ],
    );
    t
}

/// `life(host)` with a wait on a wait list at 24, whose setter's edge
/// precedes the scheduler's dispatch that answers it.
fn waited(host: BltId) -> Vec<TraceRecord> {
    let mut t = life(host);
    t.splice(
        4..4,
        [
            rec(24, E::Wait(A)),
            wake(26, A, WakeSite::WaitList),
            dispatch(26, A, S),
        ],
    );
    t
}

/// `life(S)` with a blocking `call` while coupled at the end: its sleep is
/// `site`'s blocking span, from 42 to 45, and the `site` edge lands at
/// `edge_at`.
fn blocking(call: Sysno, site: WakeSite, edge_at: u64) -> Vec<TraceRecord> {
    let span = site.blocking_span().expect("a kernel site");
    let mut t = life(S);
    t.pop();
    t.extend([
        enter(41, A, call),
        enter(42, A, span),
        exit(45, A, span),
        exit(46, A, call),
        rec(50, E::Terminate(A)),
    ]);
    t.push(wake(edge_at, A, site));
    t.sort_by_key(|r| r.at_ns);
    t
}

fn without(mut t: Vec<TraceRecord>, drop: impl Fn(&E) -> bool) -> Vec<TraceRecord> {
    let before = t.len();
    t.retain(|r| !drop(&r.event));
    assert!(t.len() < before, "the row removed nothing");
    t
}

fn with(mut t: Vec<TraceRecord>, extra: TraceRecord) -> Vec<TraceRecord> {
    t.push(extra);
    t.sort_by_key(|r| r.at_ns); // stable: a same-stamp record goes last
    t
}

/// Run the oracle with counters and histograms that agree with `trace` by
/// construction (families E, F, J3 and I2/I3 have nothing to compare).
fn violations(trace: &[TraceRecord]) -> Vec<String> {
    let mut stats = StatsDelta::default();
    let mut latency = LatencySnapshot::default();
    let mut syscalls = SyscallSnapshot::new();
    for r in trace {
        match r.event {
            E::Spawn(_) => stats.spawned += 1,
            E::Decouple(_) => stats.decouples += 1,
            E::Coupled(_) => {
                stats.couples += 1;
                latency.couple_resume.count += 1;
            }
            E::Yield { .. } => {
                stats.yields += 1;
                latency.queue_delay.count += 1;
            }
            E::Dispatch { uc, scheduler } => {
                stats.dispatches += 1;
                stats.homes += u64::from(uc == scheduler);
                latency.queue_delay.count += 1;
            }
            E::CoupleHandoff { .. } => stats.handoffs += 1,
            E::Wake { site, delay_ns, .. } => {
                latency.wake.sites[site as usize].count += 1;
                latency.wake.sites[site as usize].sum += delay_ns;
            }
            E::SyscallEnter { sysno, .. } => {
                let row = syscalls.calls.iter_mut().find(|(n, _)| *n == sysno.name());
                row.expect("every Sysno has a row").1.count += 1;
            }
            _ => {}
        }
    }
    let consistency: [UlpError; 0] = [];
    check(&OracleInput {
        trace,
        dropped: 0,
        consistency: &consistency,
        stats,
        latency: &latency,
        syscalls: &syscalls,
        expect_coupled_syscalls: true,
    })
}

/// One row: the message wanted, the trace that must draw it and the legal
/// neighbour that must draw nothing.
struct Row {
    family: &'static str,
    needle: &'static str,
    bad: Vec<TraceRecord>,
    legal: Vec<TraceRecord>,
}

fn rows() -> Vec<Row> {
    let row = |family, needle, bad, legal| Row {
        family,
        needle,
        bad,
        legal,
    };
    // `life(S)` whose couple request is never granted.
    let unanswered = || {
        without(life(S), |e| {
            matches!(e, E::Coupled(_))
                || matches!(e, E::Wake { site, .. } if *site == WakeSite::CoupleResume)
        })
    };
    let a_getpid = || {
        with(
            with(life(S), enter(5, A, Sysno::Getpid)),
            exit(6, A, Sysno::Getpid),
        )
    };
    vec![
        row(
            "C",
            "Decouple while Decoupled",
            with(life(S), rec(15, E::Decouple(A))),
            life(S),
        ),
        row(
            "C",
            "Coupled without a pending request",
            without(life(S), |e| matches!(e, E::CoupleRequest(_))),
            life(S),
        ),
        row("C", "Yield from while at home", pair(A), pair(S)),
        row(
            "C",
            "Requeue while Decoupled, not at home",
            requeued(S),
            requeued(A),
        ),
        row(
            "C",
            "Wait while Coupled",
            with(life(S), rec(45, E::Wait(A))),
            waited(A),
        ),
        row(
            "D",
            "2 enqueues vs 1 resumptions",
            {
                // The setter's edge and the dispatch that answers the wait.
                let mut t = waited(S);
                t.retain(|r| r.at_ns != 26);
                t
            },
            waited(S),
        ),
        row(
            "C",
            "Decouple while Terminated",
            with(life(S), rec(60, E::Decouple(A))),
            life(S),
        ),
        row(
            "C",
            "Terminate with couple request in flight",
            unanswered(),
            life(S),
        ),
        row(
            "C",
            "signal 10 delivered while Decoupled",
            with(life(S), rec(25, E::Signal { uc: A, signal: 10 })),
            with(life(S), rec(45, E::Signal { uc: A, signal: 10 })),
        ),
        row(
            "D",
            "1 couple requests vs 0 completions",
            unanswered(),
            life(S),
        ),
        row(
            "D",
            "1 enqueues vs 0 resumptions",
            without(life(S), |e| {
                matches!(e, E::Dispatch { .. })
                    || matches!(e, E::Wake { site, .. } if *site == WakeSite::Enqueue)
            }),
            life(S),
        ),
        row(
            "G",
            "2 Terminate events (want 1)",
            with(life(S), rec(60, E::Terminate(A))),
            life(S),
        ),
        row(
            "G",
            "0 Terminate events (want 1)",
            without(life(S), |e| matches!(e, E::Terminate(_))),
            life(S),
        ),
        row(
            "H",
            "Getpid exit without enter",
            without(a_getpid(), |e| matches!(e, E::SyscallEnter { .. })),
            a_getpid(),
        ),
        row(
            "H",
            "Getpid has 1 unclosed spans",
            without(a_getpid(), |e| matches!(e, E::SyscallExit { .. })),
            a_getpid(),
        ),
        row(
            "J",
            "Dispatch with no unconsumed run-queue wake edge",
            without(
                life(S),
                |e| matches!(e, E::Wake { site, .. } if *site == WakeSite::Enqueue),
            ),
            life(S),
        ),
        row(
            "J",
            "Coupled with no unconsumed couple wake edge",
            without(
                life(S),
                |e| matches!(e, E::Wake { site, .. } if *site == WakeSite::CoupleResume),
            ),
            life(S),
        ),
        row(
            "J",
            "Yield-to with no unconsumed run-queue wake edge",
            {
                let mut t = pair(S);
                t.remove(6); // B's enqueue edge
                t
            },
            pair(S),
        ),
        row(
            "J",
            "second run-queue wake edge (enqueue)",
            with(life(S), wake(15, A, WakeSite::Enqueue)),
            life(S),
        ),
        row(
            "J",
            "second couple wake edge (couple_resume)",
            with(life(S), wake(35, A, WakeSite::CoupleResume)),
            life(S),
        ),
        row(
            "J",
            "unconsumed enqueue wake edge at end of run",
            with(life(S), wake(45, A, WakeSite::Enqueue)),
            life(S),
        ),
        row(
            "J",
            "pipe_read wake edge outside any open PipeBlockRead span",
            blocking(Sysno::Read, WakeSite::PipeRead, 47),
            blocking(Sysno::Read, WakeSite::PipeRead, 44),
        ),
        row(
            "J",
            "child_exit wake edge outside any open WaitpidBlock span",
            blocking(Sysno::Waitpid, WakeSite::ChildExit, 47),
            blocking(Sysno::Waitpid, WakeSite::ChildExit, 44),
        ),
    ]
}

#[test]
fn every_row_draws_its_message_and_its_neighbour_draws_none() {
    for r in rows() {
        let clean = violations(&r.legal);
        assert!(
            clean.is_empty(),
            "{}: the legal neighbour is not clean: {clean:?}",
            r.needle
        );
        let got = violations(&r.bad);
        let tag = format!("[{}]", r.family);
        assert!(
            got.iter()
                .any(|v| v.starts_with(&tag) && v.contains(r.needle)),
            "want a {tag} violation containing {:?}, got {got:?}",
            r.needle
        );
    }
}

/// J3 is the one J check that reads the histograms: an edge the histograms
/// never saw, and a delay they summed differently.
#[test]
fn wake_edges_must_match_the_histograms() {
    let trace = life(S);
    let mut latency = LatencySnapshot::default();
    latency.couple_resume.count = 1;
    latency.queue_delay.count = 1;
    latency.wake.sites[WakeSite::Enqueue as usize].count = 1;
    latency.wake.sites[WakeSite::Enqueue as usize].sum = 11;
    let got = check(&OracleInput {
        trace: &trace,
        dropped: 0,
        consistency: &[],
        stats: StatsDelta {
            couples: 1,
            decouples: 1,
            dispatches: 1,
            spawned: 1,
            ..StatsDelta::default()
        },
        latency: &latency,
        syscalls: &SyscallSnapshot::new(),
        expect_coupled_syscalls: true,
    });
    for needle in [
        "1 Wake events at site couple_resume vs 0 histogram samples",
        "site enqueue wake delays sum to 10 ns vs histogram sum 11 ns",
    ] {
        assert!(
            got.iter()
                .any(|v| v.starts_with("[J]") && v.contains(needle)),
            "want a [J] violation containing {needle:?}, got {got:?}"
        );
    }
}
