//! Exhaustive small-schedule check of the parking protocol (`park.rs`
//! module docs): 2 producers × 1 consumer, one queue, every interleaving of
//! the atomic steps, sequentially consistent memory.
//!
//! Each thread is a program counter over the steps the real code performs
//! in the same order — [`ParkQueue::push`](super::ParkQueue::push) then
//! [`Parker::poke`](super::Parker::poke) for a producer, the idle loop
//! (`version()`, [`ParkQueue::pop`](super::ParkQueue::pop),
//! [`Parker::park`](super::Parker::park)) for the consumer — and the futex
//! has no time-out, so a lost wake-up is a deadlock: a reachable state in
//! which the consumer sleeps, nobody can step, and a UC is still queued.
//!
//! `Adaptive`'s spin arm is in the model, with the count it shares with the
//! sleepers: the parker's count is one word, sleepers in its low half and
//! spinners in its high half ([`SPINNER`]). A spinner counts in before its
//! pass and out after; a producer reads the whole word inside its critical
//! section, times the wait if the word is non-zero, and wakes only if the
//! sleepers' half is. The consumer spins while the parker's last wait was
//! short and its idle period is younger than the break-even — a budget of
//! [`SPIN_PASSES`], since model time only advances when the consumer runs,
//! refilled by every pop. A producer's timing sets "short" from that budget;
//! both starting values are explored. (A short sample gone stale makes the
//! consumer sleep where it would have spun — a state the model reaches
//! anyway, when a period's budget runs out.) Besides the deadlock check, every
//! reachable state must let the consumer, running alone, come to rest —
//! asleep, done, or waiting for the lock — within [`REST_STEPS`] of its own
//! steps (spinning is bounded whatever the evidence says), and get hold of a
//! UC that is already visible in the queue within [`POP_STEPS`] (a spinner
//! looks at its queue every pass).
//!
//! The enumerator only interleaves; it cannot reorder one thread's steps.
//! What it checks is therefore the *order* of the steps (each mutant below
//! swaps, drops or mis-masks one). That this order is also enough on real
//! hardware — the count read inside the critical section, no fence — is the
//! happens-before argument in the module docs, not something a sequentially
//! consistent model can show.

use std::collections::HashSet;

const PRODUCERS: usize = 2;

/// One spinner in the parker's count (the model's `wait::SPINNER`: the high
/// half of an 8-bit word).
const SPINNER: u8 = 1 << 4;

/// The sleepers' half of the count.
const SLEEPERS: u8 = SPINNER - 1;

/// Spin passes an idle period is worth (the model's `SPIN_BREAK_EVEN_NS`).
const SPIN_PASSES: u8 = 4;

/// Consumer steps from anywhere to a UC that is already visible: the
/// longest way round is a park that has just decided to sleep — announce,
/// version check, the three steps of the locked re-check, un-announce, then
/// `ReadSeen`, `ProbeLen` and the pop's lock and unlink.
const POP_STEPS: usize = 10;

/// Consumer steps from anywhere to rest: every pass of an idle period's
/// budget (`Decide`, `SpinIn`, `SpinPass`, `SpinOut`, `ReadSeen`,
/// `ProbeLen`) in each of the periods the pops start, a pop of each UC in
/// between, and the park that follows.
const REST_STEPS: usize = (PRODUCERS + 1) * 6 * SPIN_PASSES as usize + 5 * PRODUCERS + POP_STEPS;

/// Which protocol runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// announce → locked re-check → wait, spin passes that go back to the
    /// top of the idle loop, wakes for the sleepers' half (the real code).
    Shipped,
    /// locked re-check → announce → wait (mutant).
    RecheckThenAnnounce,
    /// A spin pass that goes straight to the next pass without looking at
    /// the queue (mutant).
    SpinWithoutRecheck,
    /// A producer that masks the wrong half of the count, and so wakes for
    /// spinners and not for sleepers (mutant).
    WakeOnSpinners,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum P {
    Lock,
    Link,
    StoreLen,
    ReadCount,
    Time,
    Unlock,
    Bump,
    RereadSleepers,
    Wake,
    Done,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum C {
    ReadSeen,
    ProbeLen,
    Decide,
    SpinIn,
    SpinPass,
    SpinOut,
    PopLock,
    PopUnlink,
    PopUnlock,
    Announce,
    ReadVersion,
    RecheckLock,
    RecheckRead,
    RecheckUnlock,
    FutexWait,
    Asleep,
    Unannounce,
    Done,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    /// Lock holder: 0..PRODUCERS are producers, PRODUCERS the consumer.
    locked: Option<usize>,
    /// UCs linked in the list (touched under the lock only).
    list: u8,
    /// The lock-free length mirror.
    len: u8,
    /// The parker's count: sleepers + spinners × [`SPINNER`].
    count: u8,
    version: u8,
    /// The parker's last wait was short.
    short: bool,
    /// Spin passes in the consumer's idle period (its `IdleTally`).
    passes: u8,
    p: [P; PRODUCERS],
    /// Each producer's in-critical-section read of the count.
    p_saw: [u8; PRODUCERS],
    c: C,
    seen: u8,
    recheck_empty: bool,
    popped: u8,
}

const CONSUMER: usize = PRODUCERS;

impl State {
    /// `short`: the parker's history before anything runs.
    fn new(short: bool) -> State {
        State {
            locked: None,
            list: 0,
            len: 0,
            count: 0,
            version: 0,
            short,
            passes: 0,
            p: [P::Lock; PRODUCERS],
            p_saw: [0; PRODUCERS],
            c: C::ReadSeen,
            seen: 0,
            recheck_empty: false,
            popped: 0,
        }
    }

    fn finished(&self) -> bool {
        self.c == C::Done && self.p.iter().all(|&p| p == P::Done)
    }

    /// Thread `t` takes its next atomic step; `None` if it cannot (done,
    /// waiting for the lock, or asleep).
    fn step(&self, t: usize, variant: Variant) -> Option<State> {
        let mut s = self.clone();
        if t < PRODUCERS {
            s.p[t] = match self.p[t] {
                P::Lock => {
                    if s.locked.is_some() {
                        return None;
                    }
                    s.locked = Some(t);
                    P::Link
                }
                P::Link => {
                    s.list += 1;
                    P::StoreLen
                }
                P::StoreLen => {
                    s.len = s.list;
                    P::ReadCount
                }
                P::ReadCount => {
                    s.p_saw[t] = s.count;
                    P::Time
                }
                // The wait ends now; how long it took is how far into its
                // idle period the consumer is.
                P::Time => {
                    if s.p_saw[t] != 0 {
                        s.short = s.passes < SPIN_PASSES;
                    }
                    P::Unlock
                }
                P::Unlock => {
                    s.locked = None;
                    let half = match variant {
                        Variant::WakeOnSpinners => !SLEEPERS,
                        _ => SLEEPERS,
                    };
                    if s.p_saw[t] & half != 0 {
                        P::Bump
                    } else {
                        P::Done
                    }
                }
                P::Bump => {
                    s.version += 1;
                    P::RereadSleepers
                }
                P::RereadSleepers => {
                    if s.count & SLEEPERS != 0 {
                        P::Wake
                    } else {
                        P::Done
                    }
                }
                P::Wake => {
                    if s.c == C::Asleep {
                        s.c = C::Unannounce;
                    }
                    P::Done
                }
                P::Done => return None,
            };
            return Some(s);
        }
        let (park_entry, after_announce, after_recheck) = match variant {
            Variant::RecheckThenAnnounce => (C::ReadVersion, C::FutexWait, C::Announce),
            _ => (C::Announce, C::ReadVersion, C::FutexWait),
        };
        // Leaving the park without sleeping: un-announce if announced (the
        // mutant may give up before it ever was; one consumer, so the count
        // says which).
        let give_up = if s.count & SLEEPERS != 0 {
            C::Unannounce
        } else {
            C::ReadSeen
        };
        s.c = match self.c {
            C::ReadSeen => {
                if s.popped as usize == PRODUCERS {
                    C::Done
                } else {
                    s.seen = s.version;
                    C::ProbeLen
                }
            }
            C::ProbeLen => {
                if s.len == 0 {
                    C::Decide
                } else {
                    C::PopLock
                }
            }
            // `Parker::park`'s decision: spin, or take the blocking arm.
            C::Decide => {
                if s.short && s.passes < SPIN_PASSES {
                    C::SpinIn
                } else {
                    park_entry
                }
            }
            C::SpinIn => {
                s.count += SPINNER;
                C::SpinPass
            }
            C::SpinPass => {
                s.passes += 1;
                C::SpinOut
            }
            // Counted out, then back to the caller's loop — which starts by
            // re-reading the version and the queue.
            C::SpinOut => {
                s.count -= SPINNER;
                if variant == Variant::SpinWithoutRecheck {
                    C::Decide
                } else {
                    C::ReadSeen
                }
            }
            C::PopLock => {
                if s.locked.is_some() {
                    return None;
                }
                s.locked = Some(CONSUMER);
                C::PopUnlink
            }
            // A UC popped ends the idle period (`IdleTally::found_work`).
            C::PopUnlink => {
                if s.list != 0 {
                    s.list -= 1;
                    s.len = s.list;
                    s.popped += 1;
                    s.passes = 0;
                }
                C::PopUnlock
            }
            C::PopUnlock => {
                s.locked = None;
                C::ReadSeen
            }
            C::Announce => {
                s.count += 1;
                after_announce
            }
            C::ReadVersion => {
                if s.version == s.seen {
                    C::RecheckLock
                } else {
                    give_up
                }
            }
            C::RecheckLock => {
                if s.locked.is_some() {
                    return None;
                }
                s.locked = Some(CONSUMER);
                C::RecheckRead
            }
            C::RecheckRead => {
                s.recheck_empty = s.list == 0;
                C::RecheckUnlock
            }
            C::RecheckUnlock => {
                s.locked = None;
                if s.recheck_empty {
                    after_recheck
                } else {
                    give_up
                }
            }
            // The kernel's compare-and-sleep is one step.
            C::FutexWait => {
                if s.version == s.seen {
                    C::Asleep
                } else {
                    give_up
                }
            }
            C::Asleep | C::Done => return None,
            C::Unannounce => {
                s.count -= 1;
                C::ReadSeen
            }
        };
        Some(s)
    }
}

impl State {
    /// Whether the consumer has come to rest: asleep, done, or waiting for a
    /// lock somebody else holds.
    fn consumer_rests(&self) -> bool {
        matches!(self.c, C::Asleep | C::Done)
            || (matches!(self.c, C::PopLock | C::RecheckLock) && self.locked.is_some())
    }
}

/// What the exhaustive search can find wrong.
#[derive(Debug)]
enum Flaw {
    /// The consumer sleeps, nobody can step, a UC is queued.
    LostWakeup,
    /// Running alone, the consumer took more than [`POP_STEPS`] to get hold
    /// of a UC that was visible all along.
    SlowPop,
    /// Running alone, the consumer took more than [`REST_STEPS`] to rest.
    NoRest,
}

/// Run the consumer alone from `s`: steps until it holds a UC (if one is
/// visible in `s`) and until it rests, each capped one past its bound.
fn solo(s: &State, variant: Variant) -> Result<(), Flaw> {
    let visible = s.len != 0 && s.locked.is_none();
    let (mut cur, mut steps) = (s.clone(), 0);
    while !cur.consumer_rests() {
        if visible && cur.popped == s.popped && steps > POP_STEPS {
            return Err(Flaw::SlowPop);
        }
        if steps > REST_STEPS {
            return Err(Flaw::NoRest);
        }
        cur = cur
            .step(CONSUMER, variant)
            .expect("a consumer not at rest can step");
        steps += 1;
    }
    Ok(())
}

/// Explore every reachable state depth-first, from either history. `Err`
/// carries the flaw and the schedule (which thread executed which step) that
/// leads to it.
fn explore(variant: Variant) -> Result<usize, (Flaw, Vec<String>)> {
    fn dfs(
        s: &State,
        variant: Variant,
        seen: &mut HashSet<State>,
        path: &mut Vec<String>,
    ) -> Result<(), (Flaw, Vec<String>)> {
        if !seen.insert(s.clone()) {
            return Ok(());
        }
        solo(s, variant).map_err(|flaw| (flaw, path.clone()))?;
        let mut stepped = false;
        for t in 0..=PRODUCERS {
            if let Some(next) = s.step(t, variant) {
                stepped = true;
                path.push(if t < PRODUCERS {
                    format!("P{t}:{:?}", s.p[t])
                } else {
                    format!("C:{:?}", s.c)
                });
                dfs(&next, variant, seen, path)?;
                path.pop();
            }
        }
        if !stepped && !s.finished() {
            assert_eq!(s.c, C::Asleep, "only the futex can block for good");
            return Err((Flaw::LostWakeup, path.clone()));
        }
        Ok(())
    }
    let mut seen = HashSet::new();
    for short in [false, true] {
        dfs(&State::new(short), variant, &mut seen, &mut Vec::new())?;
    }
    Ok(seen.len())
}

#[test]
fn no_interleaving_loses_a_wakeup() {
    let states = explore(Variant::Shipped)
        .unwrap_or_else(|(flaw, schedule)| panic!("{flaw:?}:\n{}", schedule.join("\n")));
    // The space is small but not trivial; a collapse means a step went
    // missing from the model.
    assert!(states > 1_000, "only {states} states explored");
}

/// The enumerator can see a lost wake-up: re-checking emptiness *before*
/// announcing lets a push's critical section fit between the two, silent.
#[test]
fn recheck_before_announce_is_caught() {
    let (flaw, schedule) =
        explore(Variant::RecheckThenAnnounce).expect_err("the mutant must deadlock");
    eprintln!("mutant schedule: {}", schedule.join(" "));
    assert!(matches!(flaw, Flaw::LostWakeup), "{flaw:?}");
    assert_eq!(schedule.last().map(String::as_str), Some("C:FutexWait"));
    let last = |what: &str| schedule.iter().rposition(|s| s == what);
    let recheck = last("C:RecheckRead").expect("the consumer re-checked");
    let announce = last("C:Announce").expect("the consumer announced");
    let silent = (0..PRODUCERS).any(|p| {
        let link = last(&format!("P{p}:Link")).expect("every producer pushed");
        let read = last(&format!("P{p}:ReadCount")).expect("every producer pushed");
        recheck < link && read < announce
    });
    assert!(
        silent,
        "expected a push linked after the re-check whose count read precedes the announce"
    );
}

/// The enumerator can see a spinner that has stopped looking: a UC pushed
/// while passes remain sits in the queue until the budget runs out. (Only a
/// spinner can overrun the pop bound; here the first schedule found is a
/// push that times a short wait, after which the consumer, alone, spins.)
#[test]
fn spin_without_queue_recheck_is_caught() {
    let (flaw, schedule) =
        explore(Variant::SpinWithoutRecheck).expect_err("the mutant must overrun the pop bound");
    eprintln!("mutant schedule: {}", schedule.join(" "));
    assert!(matches!(flaw, Flaw::SlowPop), "{flaw:?}");
}

/// The enumerator can see a push that reads the wrong half of the count: it
/// finds the consumer announced, takes the sleeper for a spinner that will
/// look again, and leaves it asleep with the UC queued.
#[test]
fn push_masking_the_wrong_half_is_caught() {
    let (flaw, schedule) = explore(Variant::WakeOnSpinners).expect_err("the mutant must deadlock");
    eprintln!("mutant schedule: {}", schedule.join(" "));
    assert!(matches!(flaw, Flaw::LostWakeup), "{flaw:?}");
    let last = |what: &str| schedule.iter().rposition(|s| s == what);
    let announce = last("C:Announce").expect("the consumer announced");
    let unannounce = last("C:Unannounce");
    let skipped = (0..PRODUCERS).any(|p| {
        let read = last(&format!("P{p}:ReadCount")).expect("every producer pushed");
        read > announce
            && unannounce.is_none_or(|u| u < announce)
            && last(&format!("P{p}:Bump")).is_none_or(|b| b < read)
    });
    assert!(
        skipped,
        "expected a push that read the announced sleeper and never bumped"
    );
}
