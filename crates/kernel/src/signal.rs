//! Per-process signal state.
//!
//! The paper's §VII notes a system-call-consistency gap in ULP-PiP:
//! fcontext does not save/restore signal masks, so "if one tries to send a
//! signal to a UC, then the signal is delivered to the scheduling KC". This
//! module models the per-process mask/pending machinery so that gap is
//! *observable* in tests, and so the `ucontext`-style opt-in (saving masks on
//! every switch, at extra cost) can be implemented and measured.

use crate::errno::{Errno, KResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};

/// The small signal vocabulary the simulation needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Signal {
    /// Interrupt (Ctrl-C "via a terminal" — the paper's example of a signal
    /// that cannot be intercepted by wrapping `kill()`).
    SigInt = 2,
    /// User-defined signal 1.
    SigUsr1 = 10,
    /// User-defined signal 2.
    SigUsr2 = 12,
    /// Termination request.
    SigTerm = 15,
    /// Child stopped or terminated.
    SigChld = 17,
}

/// Every signal the simulated kernel models, in delivery-priority order.
pub const ALL_SIGNALS: [Signal; 5] = [
    Signal::SigInt,
    Signal::SigUsr1,
    Signal::SigUsr2,
    Signal::SigTerm,
    Signal::SigChld,
];

impl Signal {
    #[inline]
    fn bit(self) -> u32 {
        1u32 << (self as u8)
    }
}

/// A signal set (mask or pending set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SigSet(u32);

impl SigSet {
    /// The empty set.
    pub const EMPTY: SigSet = SigSet(0);

    /// Build a set containing exactly `signals`.
    pub fn with(signals: &[Signal]) -> SigSet {
        let mut s = SigSet::EMPTY;
        for &sig in signals {
            s.add(sig);
        }
        s
    }

    /// Add `sig` to the set.
    #[inline]
    pub fn add(&mut self, sig: Signal) {
        self.0 |= sig.bit();
    }

    /// Remove `sig` from the set.
    #[inline]
    pub fn remove(&mut self, sig: Signal) {
        self.0 &= !sig.bit();
    }

    /// Whether `sig` is in the set.
    #[inline]
    pub fn contains(&self, sig: Signal) -> bool {
        self.0 & sig.bit() != 0
    }

    /// Whether no signal is in the set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterate the member signals in [`ALL_SIGNALS`] order.
    pub fn iter(&self) -> impl Iterator<Item = Signal> + '_ {
        ALL_SIGNALS.iter().copied().filter(|s| self.contains(*s))
    }

    /// Raw bit representation — lets callers store a mask in an atomic and
    /// compare masks without interpreting them.
    #[inline]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Rebuild a set from [`SigSet::bits`].
    #[inline]
    pub const fn from_bits(bits: u32) -> SigSet {
        SigSet(bits)
    }
}

/// How `sigprocmask` modifies the mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskHow {
    /// Add the set to the mask (`SIG_BLOCK`).
    Block,
    /// Remove the set from the mask (`SIG_UNBLOCK`).
    Unblock,
    /// Replace the mask with the set (`SIG_SETMASK`).
    SetMask,
}

/// What a process does with a delivered signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Disposition {
    /// Default action (terminate for most; ignore for SIGCHLD).
    #[default]
    Default,
    /// Discard the signal (`SIG_IGN`).
    Ignore,
    /// A registered handler; the u64 is an opaque handler token the runtime
    /// maps back to a closure.
    Handler(u64),
}

/// Per-process signal state.
#[derive(Debug, Default)]
pub struct SignalState {
    inner: Mutex<SignalInner>,
    /// `pending & !mask`, republished under `inner`'s lock by every change
    /// to either: a safe point that finds it zero — nearly every one — is
    /// one load and takes no lock. The `Release` store pairs with the
    /// `Acquire` load in [`SignalState::any_deliverable`], so a thread that
    /// saw a `kill` return, or synchronized with one that did, sees its bit.
    deliverable: AtomicU32,
    /// Wake-edge attribution: stamped by `post` (the sender), consumed
    /// when `take_deliverable` actually delivers — a masked signal keeps
    /// the cell armed until the unblock that lets it through, so the edge
    /// spans the whole pending-to-delivery interval.
    wake: crate::trace::WakeCell,
}

#[derive(Debug, Default)]
struct SignalInner {
    mask: SigSet,
    pending: SigSet,
    dispositions: [(u8, Disposition); 5],
    /// Total signals ever posted (diagnostics).
    posted: u64,
}

impl SignalState {
    /// Fresh state: empty mask, nothing pending, default dispositions.
    pub fn new() -> SignalState {
        SignalState::default()
    }

    /// Republish the deliverable set; the caller holds `inner`'s lock.
    fn publish(&self, inner: &SignalInner) {
        self.deliverable
            .store(inner.pending.0 & !inner.mask.0, Ordering::Release);
    }

    /// Whether a signal is pending and unblocked — what
    /// [`SignalState::take_deliverable`] would find, as of the last change.
    #[inline]
    pub fn any_deliverable(&self) -> bool {
        self.deliverable.load(Ordering::Acquire) != 0
    }

    /// Post a signal (sender side of `kill`). A standard signal does not
    /// queue: a post that finds it already pending ends no wait, so only the
    /// post that makes it pending stamps the wake cell.
    pub fn post(&self, sig: Signal) {
        let mut inner = self.inner.lock();
        inner.posted += 1;
        if inner.pending.contains(sig) {
            return;
        }
        inner.pending.add(sig);
        self.publish(&inner);
        self.wake.stamp();
    }

    /// `sigprocmask(2)`. Returns the previous mask.
    pub fn set_mask(&self, how: MaskHow, set: SigSet) -> SigSet {
        let mut inner = self.inner.lock();
        let old = inner.mask;
        inner.mask = match how {
            MaskHow::Block => SigSet(old.0 | set.0),
            MaskHow::Unblock => SigSet(old.0 & !set.0),
            MaskHow::SetMask => set,
        };
        self.publish(&inner);
        old
    }

    /// The current blocked-signal mask.
    pub fn mask(&self) -> SigSet {
        self.inner.lock().mask
    }

    /// Signals posted but not yet taken (`sigpending(2)`).
    pub fn pending(&self) -> SigSet {
        self.inner.lock().pending
    }

    /// Take one deliverable (pending and unblocked) signal, if any.
    pub fn take_deliverable(&self) -> Option<Signal> {
        let mut inner = self.inner.lock();
        let deliverable = SigSet(inner.pending.0 & !inner.mask.0);
        let sig = deliverable.iter().next()?;
        inner.pending.remove(sig);
        self.publish(&inner);
        self.wake.consume(crate::trace::WakeSite::Signal);
        Some(sig)
    }

    /// `sigaction(2)`: set `sig`'s disposition, returning the previous one.
    pub fn set_disposition(&self, sig: Signal, disp: Disposition) -> KResult<Disposition> {
        let mut inner = self.inner.lock();
        for entry in inner.dispositions.iter_mut() {
            if entry.0 == sig as u8 || entry.0 == 0 {
                let was_set = entry.0 != 0;
                let old = if was_set {
                    entry.1
                } else {
                    Disposition::Default
                };
                *entry = (sig as u8, disp);
                return Ok(old);
            }
        }
        Err(Errno::EINVAL)
    }

    /// The current disposition for `sig` ([`Disposition::Default`] if never set).
    pub fn disposition(&self, sig: Signal) -> Disposition {
        let inner = self.inner.lock();
        inner
            .dispositions
            .iter()
            .find(|(s, _)| *s == sig as u8)
            .map(|(_, d)| *d)
            .unwrap_or_default()
    }

    /// Total signals ever posted to this process (diagnostics).
    pub fn total_posted(&self) -> u64 {
        self.inner.lock().posted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigset_ops() {
        let mut s = SigSet::EMPTY;
        assert!(s.is_empty());
        s.add(Signal::SigUsr1);
        s.add(Signal::SigTerm);
        assert!(s.contains(Signal::SigUsr1));
        assert!(!s.contains(Signal::SigInt));
        s.remove(Signal::SigUsr1);
        assert!(!s.contains(Signal::SigUsr1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Signal::SigTerm]);
    }

    #[test]
    fn post_then_take() {
        let st = SignalState::new();
        assert!(st.take_deliverable().is_none());
        st.post(Signal::SigUsr1);
        assert_eq!(st.take_deliverable(), Some(Signal::SigUsr1));
        assert!(st.take_deliverable().is_none(), "pending bit consumed");
    }

    #[test]
    fn masked_signals_stay_pending() {
        let st = SignalState::new();
        st.set_mask(MaskHow::Block, SigSet::with(&[Signal::SigUsr1]));
        st.post(Signal::SigUsr1);
        assert!(st.take_deliverable().is_none());
        assert!(st.pending().contains(Signal::SigUsr1));
        st.set_mask(MaskHow::Unblock, SigSet::with(&[Signal::SigUsr1]));
        assert_eq!(st.take_deliverable(), Some(Signal::SigUsr1));
    }

    #[test]
    fn setmask_replaces_whole_mask() {
        let st = SignalState::new();
        st.set_mask(
            MaskHow::Block,
            SigSet::with(&[Signal::SigUsr1, Signal::SigInt]),
        );
        let old = st.set_mask(MaskHow::SetMask, SigSet::with(&[Signal::SigTerm]));
        assert!(old.contains(Signal::SigUsr1) && old.contains(Signal::SigInt));
        assert_eq!(st.mask(), SigSet::with(&[Signal::SigTerm]));
    }

    #[test]
    fn dispositions_round_trip() {
        let st = SignalState::new();
        assert_eq!(st.disposition(Signal::SigUsr2), Disposition::Default);
        st.set_disposition(Signal::SigUsr2, Disposition::Handler(42))
            .unwrap();
        assert_eq!(st.disposition(Signal::SigUsr2), Disposition::Handler(42));
        let old = st
            .set_disposition(Signal::SigUsr2, Disposition::Ignore)
            .unwrap();
        assert_eq!(old, Disposition::Handler(42));
    }

    #[test]
    fn the_deliverable_word_follows_every_change() {
        let st = SignalState::new();
        let (usr1, usr2) = (Signal::SigUsr1, Signal::SigUsr2);
        let steps: [&dyn Fn(&SignalState); 9] = [
            &|st| st.post(usr1),
            &|st| {
                st.set_mask(MaskHow::Block, SigSet::with(&[usr1]));
            },
            &|st| st.post(usr2),
            &|st| assert_eq!(st.take_deliverable(), Some(usr2)),
            &|st| assert_eq!(st.take_deliverable(), None),
            &|st| {
                st.set_mask(MaskHow::SetMask, SigSet::with(&[usr2]));
            },
            &|st| st.post(usr2),
            &|st| assert_eq!(st.take_deliverable(), Some(usr1)),
            &|st| {
                st.set_mask(MaskHow::Unblock, SigSet::with(&[usr2]));
            },
        ];
        let expect = |st: &SignalState| {
            let open = SigSet(st.pending().0 & !st.mask().0);
            assert_eq!(st.any_deliverable(), !open.is_empty(), "{st:?}");
        };
        expect(&st);
        for step in steps {
            step(&st);
            expect(&st);
        }
        assert_eq!(st.take_deliverable(), Some(usr2));
        expect(&st);
        assert!(!st.any_deliverable());
    }

    #[test]
    fn duplicate_posts_collapse() {
        // Like real POSIX signals, pending is a set, not a queue.
        let st = SignalState::new();
        st.post(Signal::SigUsr1);
        st.post(Signal::SigUsr1);
        assert_eq!(st.total_posted(), 2);
        assert_eq!(st.take_deliverable(), Some(Signal::SigUsr1));
        assert!(st.take_deliverable().is_none());
    }
}
