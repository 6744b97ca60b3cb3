//! ULP-aware barrier (PiP's `pip_barrier_t`): [`ulp_core::UlpBarrier`]
//! under PiP's name.
//!
//! A classic sense-reversing barrier whose waiters *cooperatively yield*:
//! a decoupled ULP waiting here lets its scheduler run the stragglers —
//! essential under over-subscription, where blocking the OS thread would
//! starve the very tasks the barrier waits for.

pub use ulp_core::UlpBarrier as PipBarrier;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
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
