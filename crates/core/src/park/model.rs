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
//! The enumerator only interleaves; it cannot reorder one thread's steps.
//! What it checks is therefore the *order* of the steps (the mutant below
//! swaps two of them). That this order is also enough on real hardware —
//! the `sleepers` read inside the critical section, no fence — is the
//! happens-before argument in the module docs, not something a
//! sequentially consistent model can show.

use std::collections::HashSet;

const PRODUCERS: usize = 2;

/// Which way round the consumer's park runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Park {
    /// announce → locked re-check → wait (the real code).
    AnnounceThenRecheck,
    /// locked re-check → announce → wait (the mutant).
    RecheckThenAnnounce,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum P {
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
    fn new() -> State {
        State {
            locked: None,
            list: 0,
            len: 0,
            sleepers: 0,
            version: 0,
            p: [P::Lock; PRODUCERS],
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
            Park::AnnounceThenRecheck => (C::Announce, C::ReadVersion, C::FutexWait),
            Park::RecheckThenAnnounce => (C::ReadVersion, C::FutexWait, C::Announce),
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
                    park_entry
                } else {
                    C::PopLock
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

/// Explore every reachable state depth-first. `Err` carries the schedule
/// (which thread executed which step) that ends in a lost wake-up.
fn explore(park: Park) -> Result<usize, Vec<String>> {
    fn dfs(
        s: &State,
        park: Park,
        seen: &mut HashSet<State>,
        path: &mut Vec<String>,
    ) -> Result<(), Vec<String>> {
        if !seen.insert(s.clone()) {
            return Ok(());
        }
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
            return Err(path.clone());
        }
        Ok(())
    }
    let mut seen = HashSet::new();
    dfs(&State::new(), park, &mut seen, &mut Vec::new()).map(|()| seen.len())
}

#[test]
fn no_interleaving_loses_a_wakeup() {
    let states = explore(Park::AnnounceThenRecheck)
        .unwrap_or_else(|schedule| panic!("lost wake-up:\n{}", schedule.join("\n")));
    // The space is small but not trivial; a collapse means a step went
    // missing from the model.
    assert!(states > 1_000, "only {states} states explored");
}

/// The enumerator can see a lost wake-up: re-checking emptiness *before*
/// announcing lets a push's critical section fit between the two, silent.
#[test]
fn recheck_before_announce_is_caught() {
    let schedule = explore(Park::RecheckThenAnnounce).expect_err("the mutant must deadlock");
    eprintln!("mutant schedule: {}", schedule.join(" "));
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
