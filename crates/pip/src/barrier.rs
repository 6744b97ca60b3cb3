//! ULP-aware barrier (PiP's `pip_barrier_t`).
//!
//! A classic sense-reversing barrier whose waiters *cooperatively yield*:
//! a decoupled ULP waiting here lets its scheduler run the stragglers —
//! essential under over-subscription, where blocking the OS thread would
//! starve the very tasks the barrier waits for.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A sense-reversing barrier whose waiters yield through the ULP
/// scheduler instead of blocking their kernel context.
#[derive(Debug)]
pub struct PipBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl PipBarrier {
    /// A barrier for `parties` tasks.
    pub fn new(parties: usize) -> PipBarrier {
        assert!(parties > 0, "barrier needs at least one party");
        PipBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// How many tasks the barrier waits for.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Wait until all parties arrive. Returns `true` for the task that
    /// released the barrier (the "leader", as `pthread_barrier_wait`'s
    /// SERIAL_THREAD).
    pub fn wait(&self) -> bool {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
            true
        } else {
            while self.generation.load(Ordering::Acquire) == gen {
                // Run other ULPs while we wait; degrade to an OS yield when
                // nothing is runnable (or we're not a ULT).
                ulp_core::stall();
            }
            false
        }
    }

    /// How many tasks are currently waiting (racy; diagnostics).
    pub fn waiting(&self) -> usize {
        self.arrived.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_party_never_blocks() {
        let b = PipBarrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        let b = Arc::new(PipBarrier::new(4));
        let leaders = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = b.clone();
                let leaders = leaders.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::AcqRel);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::Acquire), 50);
    }

    #[test]
    fn barrier_actually_synchronizes() {
        let b = Arc::new(PipBarrier::new(2));
        let flag = Arc::new(AtomicUsize::new(0));
        let (b2, f2) = (b.clone(), flag.clone());
        let t = std::thread::spawn(move || {
            f2.store(1, Ordering::Release);
            b2.wait();
        });
        b.wait();
        assert_eq!(
            flag.load(Ordering::Acquire),
            1,
            "peer arrived before release"
        );
        t.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_parties_panics() {
        let _ = PipBarrier::new(0);
    }
}
