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
//! `Adaptive`'s spin arm is in the model: a producer may
//! [`expect`](super::Parker::expect) before it pushes and — like a UC that
//! blocks in the kernel mid-scope — never `unexpect`, and the consumer
//! spins instead of announcing while something is expected and the deadline
//! has not passed. The deadline is a budget of [`SPIN_PASSES`] that every
//! `expect` refills and every pass draws on: model time only advances when
//! the consumer runs. Besides the deadlock check, every reachable state must
//! let the consumer, running alone, come to rest — asleep, done, or waiting
//! for the lock — within [`REST_STEPS`] of its own steps (spinning is
//! bounded whatever was expected), and get hold of a UC that is already
//! visible in the queue within [`POP_STEPS`] (a spinner looks at its queue
//! every pass).
//!
//! The enumerator only interleaves; it cannot reorder one thread's steps.
//! What it checks is therefore the *order* of the steps (each mutant below
//! swaps or drops one). That this order is also enough on real hardware —
//! the `sleepers` read inside the critical section, no fence — is the
//! happens-before argument in the module docs, not something a
//! sequentially consistent model can show.

use std::collections::HashSet;

const PRODUCERS: usize = 2;

/// Spin passes one `expect` is worth (the model's `SPIN_DEADLINE_NS`).
const SPIN_PASSES: u8 = 4;

/// Consumer steps from anywhere to a UC that is already visible: the
/// longest way round is a park that has just decided to sleep — announce,
/// version check, the three steps of the locked re-check, un-announce, then
/// `ReadSeen`, `ProbeLen` and the pop's lock and unlink.
const POP_STEPS: usize = 10;

/// Consumer steps from anywhere to rest: every pass of the budget
/// (`SpinCheck`, `SpinPass`, `ReadSeen`, `ProbeLen`), a pop of each UC in
/// between, and the park that follows.
const REST_STEPS: usize = 4 * SPIN_PASSES as usize + 5 * PRODUCERS + POP_STEPS;

/// Which consumer runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Park {
    /// announce → locked re-check → wait, spin passes that go back to the
    /// top of the idle loop (the real code).
    AnnounceThenRecheck,
    /// locked re-check → announce → wait (mutant).
    RecheckThenAnnounce,
    /// A spin pass that goes straight to the next pass without looking at
    /// the queue (mutant).
    SpinWithoutRecheck,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum P {
    Expect,
    Lock,
    Link,
    StoreLen,
    ReadSleepers,
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
    SpinCheck,
    SpinPass,
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
    sleepers: u8,
    version: u8,
    /// `Parker::expected`, and the passes left before the deadline.
    expected: u8,
    spin_budget: u8,
    p: [P; PRODUCERS],
    /// Each producer's in-critical-section `sleepers` read.
    p_saw: [bool; PRODUCERS],
    c: C,
    seen: u8,
    recheck_empty: bool,
    popped: u8,
}

const CONSUMER: usize = PRODUCERS;

impl State {
    /// Bit `i` of `expecters`: producer `i` announces its push with an
    /// `expect` it never takes back.
    fn new(expecters: usize) -> State {
        State {
            locked: None,
            list: 0,
            len: 0,
            sleepers: 0,
            version: 0,
            expected: 0,
            spin_budget: 0,
            p: std::array::from_fn(|i| {
                if expecters >> i & 1 == 1 {
                    P::Expect
                } else {
                    P::Lock
                }
            }),
            p_saw: [false; PRODUCERS],
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
    fn step(&self, t: usize, park: Park) -> Option<State> {
        let mut s = self.clone();
        if t < PRODUCERS {
            s.p[t] = match self.p[t] {
                P::Expect => {
                    s.expected += 1;
                    s.spin_budget = SPIN_PASSES;
                    P::Lock
                }
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
                    P::ReadSleepers
                }
                P::ReadSleepers => {
                    s.p_saw[t] = s.sleepers != 0;
                    P::Unlock
                }
                P::Unlock => {
                    s.locked = None;
                    if s.p_saw[t] {
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
                    if s.sleepers != 0 {
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
        let (park_entry, after_announce, after_recheck) = match park {
            Park::RecheckThenAnnounce => (C::ReadVersion, C::FutexWait, C::Announce),
            _ => (C::Announce, C::ReadVersion, C::FutexWait),
        };
        // Leaving the park without sleeping: un-announce if announced (the
        // mutant may give up before it ever was; one consumer, so the count
        // says which).
        let give_up = if s.sleepers != 0 {
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
                    C::SpinCheck
                } else {
                    C::PopLock
                }
            }
            // `Parker::park`'s decision: spin, or take the blocking arm.
            C::SpinCheck => {
                if s.expected != 0 && s.spin_budget != 0 {
                    C::SpinPass
                } else {
                    park_entry
                }
            }
            // One pass, then back to the caller's loop — which starts by
            // re-reading the version and the queue.
            C::SpinPass => {
                s.spin_budget -= 1;
                if park == Park::SpinWithoutRecheck {
                    C::SpinCheck
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
            C::PopUnlink => {
                if s.list != 0 {
                    s.list -= 1;
                    s.len = s.list;
                    s.popped += 1;
                }
                C::PopUnlock
            }
            C::PopUnlock => {
                s.locked = None;
                C::ReadSeen
            }
            C::Announce => {
                s.sleepers += 1;
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
                s.sleepers -= 1;
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
fn solo(s: &State, park: Park) -> Result<(), Flaw> {
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
            .step(CONSUMER, park)
            .expect("a consumer not at rest can step");
        steps += 1;
    }
    Ok(())
}

/// Explore every reachable state depth-first, for every choice of which
/// producers `expect`. `Err` carries the flaw and the schedule (which thread
/// executed which step) that leads to it.
fn explore(park: Park) -> Result<usize, (Flaw, Vec<String>)> {
    fn dfs(
        s: &State,
        park: Park,
        seen: &mut HashSet<State>,
        path: &mut Vec<String>,
    ) -> Result<(), (Flaw, Vec<String>)> {
        if !seen.insert(s.clone()) {
            return Ok(());
        }
        solo(s, park).map_err(|flaw| (flaw, path.clone()))?;
        let mut stepped = false;
        for t in 0..=PRODUCERS {
            if let Some(next) = s.step(t, park) {
                stepped = true;
                path.push(if t < PRODUCERS {
                    format!("P{t}:{:?}", s.p[t])
                } else {
                    format!("C:{:?}", s.c)
                });
                dfs(&next, park, seen, path)?;
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
    for expecters in 0..1 << PRODUCERS {
        dfs(&State::new(expecters), park, &mut seen, &mut Vec::new())?;
    }
    Ok(seen.len())
}

#[test]
fn no_interleaving_loses_a_wakeup() {
    let states = explore(Park::AnnounceThenRecheck)
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
        explore(Park::RecheckThenAnnounce).expect_err("the mutant must deadlock");
    eprintln!("mutant schedule: {}", schedule.join(" "));
    assert!(matches!(flaw, Flaw::LostWakeup), "{flaw:?}");
    assert_eq!(schedule.last().map(String::as_str), Some("C:FutexWait"));
    let last = |what: &str| schedule.iter().rposition(|s| s == what);
    let recheck = last("C:RecheckRead").expect("the consumer re-checked");
    let announce = last("C:Announce").expect("the consumer announced");
    let silent = (0..PRODUCERS).any(|p| {
        let link = last(&format!("P{p}:Link")).expect("every producer pushed");
        let read = last(&format!("P{p}:ReadSleepers")).expect("every producer pushed");
        recheck < link && read < announce
    });
    assert!(
        silent,
        "expected a push linked after the re-check whose sleepers read precedes the announce"
    );
}

/// The enumerator can see a spinner that has stopped looking: a UC pushed
/// while passes remain sits in the queue until the budget runs out.
#[test]
fn spin_without_queue_recheck_is_caught() {
    let (flaw, schedule) =
        explore(Park::SpinWithoutRecheck).expect_err("the mutant must overrun the pop bound");
    eprintln!("mutant schedule: {}", schedule.join(" "));
    assert!(matches!(flaw, Flaw::SlowPop), "{flaw:?}");
    assert!(
        schedule.iter().any(|s| s.ends_with(":Expect")),
        "only an expectation makes the consumer spin"
    );
}
