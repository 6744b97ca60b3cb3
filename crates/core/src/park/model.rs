//! Exhaustive small-schedule check of the parking protocol (`park.rs`
//! module docs): 2 producers × 1 yielder × 1 consumer, one queue, every
//! interleaving of the atomic steps, sequentially consistent memory.
//!
//! Each thread is a program counter over the steps the real code performs
//! in the same order — [`ParkQueue::push`](super::ParkQueue::push) then
//! [`Parker::poke`](super::Parker::poke) for a producer, the idle loop
//! (`version()`, [`ParkQueue::pop`](super::ParkQueue::pop),
//! [`Parker::park`](super::Parker::park)) for the consumer — and the futex
//! has no time-out, so a lost wake-up is a deadlock: a reachable state in
//! which the consumer sleeps, nobody can step, and a UC is still queued.
//!
//! The yielder is a UC's `yield_now()` on another scheduler
//! ([`ParkQueue::pop_and_link`](super::ParkQueue::pop_and_link), then the
//! switch, then [`ParkQueue::release`](super::ParkQueue::release) on the
//! incoming side): it probes the length, pops the next UC, links its own UC
//! at the tail, reads the count, and only then is its context *saved* — the
//! switch — before the lock is dropped and a counted sleeper poked. The
//! consumer races it as the other scheduler, and must never pop the
//! yielder's UC before that save (Table I race point 2). The queue starts
//! with no UC or with one the yielder may switch to; either way the consumer
//! ends up popping one UC per producer plus that one or the yielder's.
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
//!
//! The second model below is the wait list (`WaitList`, the one list
//! `OneShot`, `UlpEvent` and `UlpBarrier` wait on): two waiters and one
//! setter. The UC waiter is a decoupled ULT: it checks the condition under
//! the list's lock, links itself, is *saved* by its switch to the host, and
//! only then does the host release the lock; a setter's run-queue push is
//! the only thing that resumes it, so a lost wake-up leaves it off the run
//! queue for good. The parker waiter is an OS thread: it reads its version,
//! checks and registers under the lock, then parks as the consumer above
//! does, its locked re-check reading the condition. The setter stores the
//! value, takes the UC and reads the registered parker's count in one
//! critical section, then pushes the UC and pokes a sleeper. A lost wake-up
//! is a waiter off the run queue or asleep with nobody left to step; the
//! mutants read the count before the setter's lock, take the list before the
//! store, and link the UC waiter before its context is saved.

use std::collections::HashSet;

const PRODUCERS: usize = 2;

/// Producers and the yielder: the threads that link a UC and may wake.
const PUSHERS: usize = PRODUCERS + 1;

/// The yielder's thread index, after the producers'.
const YIELDER: usize = PRODUCERS;

/// Most UCs the consumer pops: one per producer, and the queue's first UC
/// or the yielder's, whichever the yielder left queued.
const UCS: usize = PRODUCERS + 1;

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
const REST_STEPS: usize = (UCS + 1) * 6 * SPIN_PASSES as usize + 5 * UCS + POP_STEPS;

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
    /// A yielder that drops the lock before its switch has saved it — what
    /// queueing itself without deferring to the incoming context does
    /// (mutant).
    ReleaseBeforeSwitch,
}

/// A pusher's steps; `ProbeLen`, `Pop` and `Save` are the yielder's only.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum P {
    ProbeLen,
    Lock,
    Pop,
    Link,
    StoreLen,
    ReadCount,
    Time,
    Save,
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
    /// Lock holder: 0..PRODUCERS are producers, then [`YIELDER`] and
    /// [`CONSUMER`].
    locked: Option<usize>,
    /// UCs linked in the list (touched under the lock only).
    list: u8,
    /// Where in the list the yielder's UC is (0: the head), if linked.
    yielder_at: Option<u8>,
    /// The yielder's switch has saved its context.
    saved: bool,
    /// The consumer popped the yielder's UC before it was saved.
    popped_unsaved: bool,
    /// The lock-free length mirror.
    len: u8,
    /// The parker's count: sleepers + spinners × [`SPINNER`].
    count: u8,
    version: u8,
    /// The parker's last wait was short.
    short: bool,
    /// Spin passes in the consumer's idle period (its `IdleTally`).
    passes: u8,
    p: [P; PUSHERS],
    /// Each pusher's in-critical-section read of the count.
    p_saw: [u8; PUSHERS],
    c: C,
    seen: u8,
    recheck_empty: bool,
    popped: u8,
    /// UCs the consumer pops before it is done: the producers' and the
    /// queue's first, if any (or the yielder's, if it switched to that one).
    ucs: u8,
}

const CONSUMER: usize = PUSHERS;

impl State {
    /// `short`: the parker's history before anything runs; `queued`: UCs
    /// runnable before anything runs (0 or 1).
    fn new(short: bool, queued: u8) -> State {
        let mut p = [P::Lock; PUSHERS];
        p[YIELDER] = P::ProbeLen;
        State {
            locked: None,
            list: queued,
            yielder_at: None,
            saved: false,
            popped_unsaved: false,
            len: queued,
            count: 0,
            version: 0,
            short,
            passes: 0,
            p,
            p_saw: [0; PUSHERS],
            c: C::ReadSeen,
            seen: 0,
            recheck_empty: false,
            popped: 0,
            ucs: PRODUCERS as u8 + queued,
        }
    }

    fn finished(&self) -> bool {
        self.c == C::Done && self.p.iter().all(|&p| p == P::Done)
    }

    /// Thread `t` takes its next atomic step; `None` if it cannot (done,
    /// waiting for the lock, or asleep).
    fn step(&self, t: usize, variant: Variant) -> Option<State> {
        let mut s = self.clone();
        if t < PUSHERS {
            // After the unlock: poke iff the count read saw the half woken.
            let half = match variant {
                Variant::WakeOnSpinners => !SLEEPERS,
                _ => SLEEPERS,
            };
            let poke = if s.p_saw[t] & half != 0 {
                P::Bump
            } else {
                P::Done
            };
            let early = t == YIELDER && variant == Variant::ReleaseBeforeSwitch;
            s.p[t] = match self.p[t] {
                // Nothing runnable: no switch, nothing locked.
                P::ProbeLen => {
                    if s.len == 0 {
                        P::Done
                    } else {
                        P::Lock
                    }
                }
                P::Lock => {
                    if s.locked.is_some() {
                        return None;
                    }
                    s.locked = Some(t);
                    if t == YIELDER {
                        P::Pop
                    } else {
                        P::Link
                    }
                }
                // The length probe raced a pop: unlock, no switch.
                P::Pop if s.list == 0 => {
                    s.locked = None;
                    P::Done
                }
                P::Pop => {
                    s.list -= 1;
                    s.len = s.list;
                    P::Link
                }
                P::Link => {
                    if t == YIELDER {
                        s.yielder_at = Some(s.list);
                    }
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
                    if t == YIELDER && !early {
                        P::Save
                    } else {
                        P::Unlock
                    }
                }
                // The yielder's switch: its registers are on its stack.
                P::Save => {
                    s.saved = true;
                    if early {
                        poke
                    } else {
                        P::Unlock
                    }
                }
                // The yielder's runs in the context it switched to
                // (`Deferred::Release`).
                P::Unlock => {
                    s.locked = None;
                    if early {
                        P::Save
                    } else {
                        poke
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
                if s.popped == s.ucs {
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
                    s.yielder_at = match s.yielder_at {
                        Some(0) => {
                            s.popped_unsaved |= !s.saved;
                            None
                        }
                        at => at.map(|i| i - 1),
                    };
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
    /// The consumer popped the yielder's UC before its switch saved it.
    UnsavedPop,
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
        if s.popped_unsaved {
            return Err((Flaw::UnsavedPop, path.clone()));
        }
        solo(s, variant).map_err(|flaw| (flaw, path.clone()))?;
        let mut stepped = false;
        for t in 0..=CONSUMER {
            if let Some(next) = s.step(t, variant) {
                stepped = true;
                path.push(match t {
                    YIELDER => format!("Y:{:?}", s.p[t]),
                    CONSUMER => format!("C:{:?}", s.c),
                    _ => format!("P{t}:{:?}", s.p[t]),
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
        for queued in [0, 1] {
            dfs(
                &State::new(short, queued),
                variant,
                &mut seen,
                &mut Vec::new(),
            )?;
        }
    }
    Ok(seen.len())
}

/// The labels a schedule gives each pusher's steps: `P0`, `P1`, …, `Y`.
fn pushers() -> impl Iterator<Item = String> {
    (0..PRODUCERS)
        .map(|p| format!("P{p}"))
        .chain(["Y".to_string()])
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
    let silent =
        pushers().any(
            |p| match (last(&format!("{p}:Link")), last(&format!("{p}:ReadCount"))) {
                (Some(link), Some(read)) => recheck < link && read < announce,
                _ => false,
            },
        );
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
    let skipped = pushers().any(|p| {
        last(&format!("{p}:ReadCount")).is_some_and(|read| {
            read > announce
                && unannounce.is_none_or(|u| u < announce)
                && last(&format!("{p}:Bump")).is_none_or(|b| b < read)
        })
    });
    assert!(
        skipped,
        "expected a push that read the announced sleeper and never bumped"
    );
}

/// The enumerator can see the yield's hand-over go wrong: a yielder that
/// releases the lock before its switch lets the other scheduler pop a UC
/// whose registers are not yet saved (Table I race point 2).
#[test]
fn release_before_the_switch_is_caught() {
    let (flaw, schedule) = explore(Variant::ReleaseBeforeSwitch)
        .expect_err("the mutant must hand out an unsaved context");
    eprintln!("mutant schedule: {}", schedule.join(" "));
    assert!(matches!(flaw, Flaw::UnsavedPop), "{flaw:?}");
    let last = |what: &str| schedule.iter().rposition(|s| s == what);
    let unlock = last("Y:Unlock").expect("the yielder unlocked");
    let pop = last("C:PopUnlink").expect("the consumer popped");
    assert!(unlock < pop, "the pop came after the early unlock");
    assert!(last("Y:Save").is_none(), "the yielder was not saved yet");
}

// ---------------------------------------------------------------------------
// The wait list (`WaitList`): one decoupled UC and one OS thread's parker
// wait for the condition, one setter makes it true.
// ---------------------------------------------------------------------------

/// The UC waiter's thread index; the parker's is [`PARKED`], the setter's
/// [`SETTER`].
const UC: usize = 0;
const PARKED: usize = 1;
const SETTER: usize = 2;

/// Which wait-list protocol runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ListVariant {
    /// The setter stores the value, takes the list and reads the parker's
    /// count in one critical section; the UC waiter's lock is released by
    /// its host after the switch has saved it (the real code).
    Shipped,
    /// A setter that reads the counts before it takes the lock (mutant).
    CountBeforeLock,
    /// A setter that takes the list in one critical section and stores the
    /// value after it (mutant).
    TakeBeforeStore,
    /// A UC waiter that links itself and unlocks before its switch has saved
    /// it — a deferred-free leave (mutant).
    LinkBeforeSave,
}

/// The UC waiter's steps: `WaitList::wait`'s lock-free look, then
/// `couple.rs`'s `leave_onto` and the host's `Deferred::Unlock`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum U {
    Peek,
    Lock,
    Check,
    CheckedUnlock,
    Link,
    Save,
    Unlock,
    /// Off the run queue: steps again only once a setter pushed it.
    Away,
    Done,
}

/// The setter's steps: `WaitList::wake_all`. `Count` reads the registered
/// parker's count (and times its wait), `Take` unlinks the UC and — unless
/// `Count` already did — reads the count, `Push` puts the UC it took on the
/// run queue.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum S {
    Count,
    Lock,
    Store,
    Take,
    Unlock,
    Push,
    Bump,
    RereadSleepers,
    Wake,
    Done,
}

/// A parker waiter's steps: `WaitList::wait`'s loop around `Parker::park`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum J {
    ReadSeen,
    CheckLock,
    CheckRead,
    CheckUnlock,
    Decide,
    SpinIn,
    SpinPass,
    SpinOut,
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

impl S {
    /// The setter's critical-section steps, in the order `variant` takes
    /// them; `Push` and the poke follow.
    fn order(variant: ListVariant) -> &'static [S] {
        match variant {
            ListVariant::CountBeforeLock => &[S::Count, S::Lock, S::Store, S::Take, S::Unlock],
            ListVariant::TakeBeforeStore => &[S::Lock, S::Take, S::Unlock, S::Store],
            _ => &[S::Lock, S::Store, S::Take, S::Unlock],
        }
    }

    fn after(self, variant: ListVariant) -> S {
        let order = S::order(variant);
        let at = order
            .iter()
            .position(|&s| s == self)
            .expect("a listed step");
        order.get(at + 1).copied().unwrap_or(S::Push)
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct List {
    /// Lock holder: [`UC`], [`PARKED`] or [`SETTER`].
    locked: Option<usize>,
    value: bool,
    /// The UC is linked on the list.
    linked: bool,
    /// The UC's context is saved, since it last ran.
    saved: bool,
    /// The UC is on the run queue, pushed by the setter.
    runnable: bool,
    /// The setter pushed the UC before its context was saved.
    pushed_unsaved: bool,
    /// The parker is on the list.
    registered: bool,
    u: U,
    s: S,
    /// The setter took the UC off the list and has yet to push it.
    took_uc: bool,
    /// What the setter's count read saw (`None`: the parker was not on the
    /// list).
    s_saw: Option<u8>,
    j: J,
    /// The parker's count: sleepers + spinners × [`SPINNER`].
    count: u8,
    version: u8,
    seen: u8,
    /// The parker's last wait was short.
    short: bool,
    passes: u8,
    /// What the parker's locked read saw: the value (check) or its absence
    /// (re-check).
    read: bool,
}

impl List {
    fn new(short: bool, variant: ListVariant) -> List {
        List {
            locked: None,
            value: false,
            linked: false,
            saved: false,
            runnable: false,
            pushed_unsaved: false,
            registered: false,
            u: U::Peek,
            s: S::order(variant)[0],
            took_uc: false,
            s_saw: None,
            j: J::ReadSeen,
            count: 0,
            version: 0,
            seen: 0,
            short,
            passes: 0,
            read: false,
        }
    }

    fn finished(&self) -> bool {
        self.u == U::Done && self.s == S::Done && self.j == J::Done
    }

    /// The setter's count read: `ended()` on the parker, if it is on the list.
    fn count_read(&mut self) {
        if self.registered {
            self.s_saw = Some(self.count);
            if self.count != 0 {
                self.short = self.passes < SPIN_PASSES;
            }
        }
    }

    /// After the push: poke iff the count read saw a sleeper.
    fn poke_or_done(&self) -> S {
        if self.s_saw.is_some_and(|c| c & SLEEPERS != 0) {
            S::Bump
        } else {
            S::Done
        }
    }

    /// Thread `t` takes its next atomic step; `None` if it cannot (done,
    /// waiting for the lock, asleep, or off the run queue).
    fn step(&self, t: usize, variant: ListVariant) -> Option<List> {
        let mut s = self.clone();
        let lock = |s: &mut List| {
            if s.locked.is_some() {
                return false;
            }
            s.locked = Some(t);
            true
        };
        match t {
            UC => {
                s.u = match self.u {
                    U::Peek => {
                        if s.value {
                            U::Done
                        } else {
                            U::Lock
                        }
                    }
                    U::Lock => {
                        if !lock(&mut s) {
                            return None;
                        }
                        U::Check
                    }
                    U::Check => {
                        if s.value {
                            U::CheckedUnlock
                        } else {
                            U::Link
                        }
                    }
                    U::CheckedUnlock => {
                        s.locked = None;
                        U::Done
                    }
                    U::Link => {
                        s.linked = true;
                        if variant == ListVariant::LinkBeforeSave {
                            U::Unlock
                        } else {
                            U::Save
                        }
                    }
                    // The switch to the host: the registers are on the stack.
                    U::Save => {
                        s.saved = true;
                        if variant == ListVariant::LinkBeforeSave {
                            U::Away
                        } else {
                            U::Unlock
                        }
                    }
                    // The host's `Deferred::Unlock`.
                    U::Unlock => {
                        s.locked = None;
                        if variant == ListVariant::LinkBeforeSave {
                            U::Save
                        } else {
                            U::Away
                        }
                    }
                    // A scheduler dispatches it: back to its loop's check.
                    U::Away if s.runnable => {
                        s.runnable = false;
                        s.saved = false;
                        U::Lock
                    }
                    U::Away | U::Done => return None,
                };
            }
            SETTER => {
                s.s = match self.s {
                    S::Count => {
                        s.count_read();
                        S::Count.after(variant)
                    }
                    S::Lock => {
                        if !lock(&mut s) {
                            return None;
                        }
                        S::Lock.after(variant)
                    }
                    S::Store => {
                        s.value = true;
                        S::Store.after(variant)
                    }
                    // The whole list goes: the UC, and the parker (its count
                    // read here unless `Count` read it already).
                    S::Take => {
                        if variant != ListVariant::CountBeforeLock {
                            s.count_read();
                        }
                        s.registered = false;
                        s.took_uc = std::mem::take(&mut s.linked);
                        S::Take.after(variant)
                    }
                    S::Unlock => {
                        s.locked = None;
                        S::Unlock.after(variant)
                    }
                    S::Push => {
                        if std::mem::take(&mut s.took_uc) {
                            s.pushed_unsaved |= !s.saved;
                            s.runnable = true;
                        }
                        s.poke_or_done()
                    }
                    S::Bump => {
                        s.version += 1;
                        S::RereadSleepers
                    }
                    S::RereadSleepers => {
                        if s.count & SLEEPERS != 0 {
                            S::Wake
                        } else {
                            S::Done
                        }
                    }
                    S::Wake => {
                        if s.j == J::Asleep {
                            s.j = J::Unannounce;
                        }
                        S::Done
                    }
                    S::Done => return None,
                };
            }
            _ => {
                let give_up = if s.count & SLEEPERS != 0 {
                    J::Unannounce
                } else {
                    J::ReadSeen
                };
                s.j = match self.j {
                    J::ReadSeen => {
                        s.seen = s.version;
                        J::CheckLock
                    }
                    J::CheckLock => {
                        if !lock(&mut s) {
                            return None;
                        }
                        J::CheckRead
                    }
                    // Found the value, or register (if not on the list).
                    J::CheckRead => {
                        s.read = s.value;
                        if !s.value {
                            s.registered = true;
                        }
                        J::CheckUnlock
                    }
                    J::CheckUnlock => {
                        s.locked = None;
                        if s.read {
                            J::Done
                        } else {
                            J::Decide
                        }
                    }
                    J::Decide => {
                        if s.short && s.passes < SPIN_PASSES {
                            J::SpinIn
                        } else {
                            J::Announce
                        }
                    }
                    J::SpinIn => {
                        s.count += SPINNER;
                        J::SpinPass
                    }
                    J::SpinPass => {
                        s.passes += 1;
                        J::SpinOut
                    }
                    J::SpinOut => {
                        s.count -= SPINNER;
                        J::ReadSeen
                    }
                    J::Announce => {
                        s.count += 1;
                        J::ReadVersion
                    }
                    J::ReadVersion => {
                        if s.version == s.seen {
                            J::RecheckLock
                        } else {
                            give_up
                        }
                    }
                    J::RecheckLock => {
                        if !lock(&mut s) {
                            return None;
                        }
                        J::RecheckRead
                    }
                    J::RecheckRead => {
                        s.read = !s.value;
                        J::RecheckUnlock
                    }
                    J::RecheckUnlock => {
                        s.locked = None;
                        if s.read {
                            J::FutexWait
                        } else {
                            give_up
                        }
                    }
                    J::FutexWait => {
                        if s.version == s.seen {
                            J::Asleep
                        } else {
                            give_up
                        }
                    }
                    J::Asleep | J::Done => return None,
                    J::Unannounce => {
                        s.count -= 1;
                        J::ReadSeen
                    }
                };
            }
        }
        Some(s)
    }
}

/// What the wait-list search can find wrong.
#[derive(Debug)]
enum ListFlaw {
    /// A waiter is off the run queue or asleep, the value is published, and
    /// nobody can step.
    LostWakeup,
    /// The setter put the UC on the run queue before its switch saved it.
    UnsavedPush,
}

/// Explore every interleaving of the wait list from either parker history.
/// `Err` carries the flaw and the schedule that leads to it.
fn explore_list(variant: ListVariant) -> Result<usize, (ListFlaw, Vec<String>)> {
    fn dfs(
        s: &List,
        variant: ListVariant,
        seen: &mut HashSet<List>,
        path: &mut Vec<String>,
    ) -> Result<(), (ListFlaw, Vec<String>)> {
        if !seen.insert(s.clone()) {
            return Ok(());
        }
        if s.pushed_unsaved {
            return Err((ListFlaw::UnsavedPush, path.clone()));
        }
        let mut stepped = false;
        for t in [UC, PARKED, SETTER] {
            if let Some(next) = s.step(t, variant) {
                stepped = true;
                path.push(match t {
                    UC => format!("U:{:?}", s.u),
                    SETTER => format!("S:{:?}", s.s),
                    _ => format!("J:{:?}", s.j),
                });
                dfs(&next, variant, seen, path)?;
                path.pop();
            }
        }
        if !stepped && !s.finished() {
            assert!(
                s.value && (s.u == U::Away || s.j == J::Asleep),
                "only a waiter off the run queue or asleep can block for good"
            );
            return Err((ListFlaw::LostWakeup, path.clone()));
        }
        Ok(())
    }
    let mut seen = HashSet::new();
    for short in [false, true] {
        dfs(
            &List::new(short, variant),
            variant,
            &mut seen,
            &mut Vec::new(),
        )?;
    }
    Ok(seen.len())
}

#[test]
fn no_wait_list_interleaving_loses_a_wakeup() {
    let states = explore_list(ListVariant::Shipped)
        .unwrap_or_else(|(flaw, schedule)| panic!("{flaw:?}:\n{}", schedule.join("\n")));
    assert!(states > 1_000, "only {states} states explored");
}

/// The enumerator can see a setter that reads the counts before its critical
/// section: the parker registers, the setter reads its count as 0, the
/// parker announces and re-checks before the value is stored, and sleeps
/// unpoked.
#[test]
fn a_setter_counting_before_its_lock_is_caught() {
    let (flaw, schedule) =
        explore_list(ListVariant::CountBeforeLock).expect_err("the mutant must deadlock");
    eprintln!("mutant schedule: {}", schedule.join(" "));
    assert!(matches!(flaw, ListFlaw::LostWakeup), "{flaw:?}");
    let at = |what: &str| schedule.iter().rposition(|s| s == what);
    let count = at("S:Count").expect("the setter read the counts");
    let store = at("S:Store").expect("the setter stored the value");
    assert!(
        matches!(
            (at("J:Announce"), at("J:RecheckRead"), at("J:CheckRead")),
            (Some(a), Some(r), Some(c)) if c < count && count < a && r < store
        ),
        "expected a registered parker that announced after the count read and re-checked before the store"
    );
}

/// The enumerator can see a setter that takes the list before it stores the
/// value: a waiter checks or re-checks in between, finds no value, and waits
/// on a list nobody will take again (or sleeps on a count read before it
/// announced).
#[test]
fn a_setter_taking_the_list_before_its_store_is_caught() {
    let (flaw, schedule) =
        explore_list(ListVariant::TakeBeforeStore).expect_err("the mutant must deadlock");
    eprintln!("mutant schedule: {}", schedule.join(" "));
    assert!(matches!(flaw, ListFlaw::LostWakeup), "{flaw:?}");
    let at = |what: &str| schedule.iter().rposition(|s| s == what);
    let take = at("S:Take").expect("the setter took the list");
    let store = at("S:Store").expect("the setter stored the value");
    let between = |i: Option<usize>| i.is_some_and(|i| take < i && i < store);
    assert!(
        ["U:Check", "J:CheckRead", "J:RecheckRead"]
            .iter()
            .any(|check| between(at(check))),
        "expected a waiter's check between the take and the store"
    );
}

/// The enumerator can see a UC waiter published before it is saved: one that
/// links itself and lets the lock go before its switch lets the setter push
/// a context whose registers are not on its stack yet (Table I race point
/// 2, on a wait list).
#[test]
fn a_waiter_linked_before_its_save_is_caught() {
    let (flaw, schedule) = explore_list(ListVariant::LinkBeforeSave)
        .expect_err("the mutant must push an unsaved context");
    eprintln!("mutant schedule: {}", schedule.join(" "));
    assert!(matches!(flaw, ListFlaw::UnsavedPush), "{flaw:?}");
    let at = |what: &str| schedule.iter().rposition(|s| s == what);
    let unlock = at("U:Unlock").expect("the waiter unlocked");
    let take = at("S:Take").expect("the setter took the list");
    assert!(
        unlock < take,
        "the setter took the UC after the early unlock"
    );
    assert!(at("U:Save").is_none(), "the waiter was not saved yet");
}
