//! Offline stand-in for `crossbeam`.
//!
//! One part of crossbeam is provided, the one this workspace uses:
//! `sync::ShardedLock`, the tmpfs namespace lock.

pub mod sync {
    use std::cell::{Cell, UnsafeCell};
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{LockResult, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    const NUM_SHARDS: usize = 8;

    /// One shard, alone on its cache lines (two, for adjacent-line prefetch).
    #[repr(align(128))]
    struct Shard(RwLock<()>);

    /// A reader-writer lock whose read side scales: a reader locks only the
    /// shard its thread is assigned to, so readers on different threads write
    /// no common cache line; a writer locks every shard, in index order.
    /// Reads are as cheap as one uncontended `RwLock`, writes cost
    /// `NUM_SHARDS` of them. Poisoning is `std`'s: a writer that panics
    /// poisons the lock for everybody after it.
    pub struct ShardedLock<T: ?Sized> {
        shards: [Shard; NUM_SHARDS],
        value: UnsafeCell<T>,
    }

    // SAFETY: as for `std::sync::RwLock`. `shards` is `Send + Sync` by itself.
    // `value` moves with the lock (`T: Send`); other threads reach `&T`
    // through read guards (`T: Sync`) and `&mut T`, or a drop, through the
    // write guard (`T: Send`).
    unsafe impl<T: ?Sized + Send> Send for ShardedLock<T> {}
    // SAFETY: see `Send` above.
    unsafe impl<T: ?Sized + Send + Sync> Sync for ShardedLock<T> {}

    /// The calling thread's shard: handed out round-robin at a thread's first
    /// lock, fixed for its lifetime.
    fn current_shard() -> usize {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
        }
        SHARD.with(|shard| {
            if shard.get() == usize::MAX {
                shard.set(NEXT.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS);
            }
            shard.get()
        })
    }

    impl<T> ShardedLock<T> {
        pub fn new(value: T) -> ShardedLock<T> {
            ShardedLock {
                shards: std::array::from_fn(|_| Shard(RwLock::new(()))),
                value: UnsafeCell::new(value),
            }
        }
    }

    /// A shard's guard, poisoned or not; `poisoned` remembers if it was.
    fn recover<G>(locked: LockResult<G>, poisoned: &mut bool) -> G {
        locked.unwrap_or_else(|e| {
            *poisoned = true;
            e.into_inner()
        })
    }

    /// `guard`, as `Err` if a shard under it was poisoned.
    fn checked<G>(guard: G, poisoned: bool) -> LockResult<G> {
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }

    impl<T: ?Sized> ShardedLock<T> {
        /// Shared access: locks the calling thread's shard only.
        pub fn read(&self) -> LockResult<ShardedLockReadGuard<'_, T>> {
            let mut poisoned = false;
            let shard = recover(self.shards[current_shard()].0.read(), &mut poisoned);
            let guard = ShardedLockReadGuard {
                lock: self,
                _shard: shard,
            };
            checked(guard, poisoned)
        }

        /// Exclusive access: locks every shard, lowest index first, so two
        /// writers cannot each hold what the other waits for.
        // The guard carries one `std` guard per shard, and the signature is
        // the real crate's: `Err` is the same guard, handed over on poison.
        #[allow(clippy::result_large_err)]
        pub fn write(&self) -> LockResult<ShardedLockWriteGuard<'_, T>> {
            let mut poisoned = false;
            let shards = std::array::from_fn(|i| recover(self.shards[i].0.write(), &mut poisoned));
            let guard = ShardedLockWriteGuard {
                lock: self,
                _shards: shards,
            };
            checked(guard, poisoned)
        }
    }

    impl<T: ?Sized> fmt::Debug for ShardedLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("ShardedLock").finish_non_exhaustive()
        }
    }

    /// Shared access to a [`ShardedLock`]'s value; unlocks its shard on drop.
    pub struct ShardedLockReadGuard<'a, T: ?Sized> {
        lock: &'a ShardedLock<T>,
        _shard: RwLockReadGuard<'a, ()>,
    }

    impl<T: ?Sized> Deref for ShardedLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // SAFETY: this guard holds one shard shared, and a writer needs
            // every shard exclusively, so no `&mut T` exists while it lives.
            unsafe { &*self.lock.value.get() }
        }
    }

    /// Exclusive access to a [`ShardedLock`]'s value; unlocks every shard on
    /// drop.
    pub struct ShardedLockWriteGuard<'a, T: ?Sized> {
        lock: &'a ShardedLock<T>,
        _shards: [RwLockWriteGuard<'a, ()>; NUM_SHARDS],
    }

    impl<T: ?Sized> Deref for ShardedLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // SAFETY: as in `deref_mut`.
            unsafe { &*self.lock.value.get() }
        }
    }

    impl<T: ?Sized> DerefMut for ShardedLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // SAFETY: this guard holds every shard exclusively: no reader and
            // no other writer holds any, and `&mut self` makes the returned
            // borrow the only one through this guard.
            unsafe { &mut *self.lock.value.get() }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::mpsc;

        #[test]
        fn writer_excludes_readers_on_every_shard() {
            let lock = ShardedLock::new(0u32);
            let mut w = lock.write().unwrap();
            *w += 1;
            for shard in &lock.shards {
                assert!(shard.0.try_read().is_err(), "a shard is open to readers");
            }
            drop(w);
            for shard in &lock.shards {
                assert!(shard.0.try_write().is_ok(), "a shard stayed locked");
            }
            assert_eq!(*lock.read().unwrap(), 1);
        }

        #[test]
        fn readers_on_different_threads_do_not_exclude_each_other() {
            let lock = ShardedLock::new(7u32);
            let (held_tx, held_rx) = mpsc::channel();
            let (done_tx, done_rx) = mpsc::channel::<()>();
            let lock = &lock;
            std::thread::scope(|s| {
                s.spawn(move || {
                    let r = lock.read().unwrap();
                    held_tx.send(current_shard()).unwrap();
                    done_rx.recv().unwrap();
                    assert_eq!(*r, 7);
                });
                // The other thread's guard is live: reading here must not
                // wait for it, and it occupies its own shard, nobody else's.
                let theirs = held_rx.recv().unwrap();
                assert_eq!(*lock.read().unwrap(), 7);
                for (i, shard) in lock.shards.iter().enumerate() {
                    assert_eq!(shard.0.try_write().is_err(), i == theirs, "shard {i}");
                }
                done_tx.send(()).unwrap();
            });
        }

        #[test]
        fn guards_drop_in_any_order() {
            let lock = ShardedLock::new(vec![1, 2, 3]);
            let a = lock.read().unwrap();
            let b = lock.read().unwrap();
            assert!(lock.shards[current_shard()].0.try_write().is_err());
            drop(a);
            assert_eq!(b.len(), 3, "the later guard outlives the earlier");
            assert!(lock.shards[current_shard()].0.try_write().is_err());
            drop(b);
            lock.write().unwrap().push(4);
            // A write guard released, the next writer gets every shard again.
            lock.write().unwrap().push(5);
            assert_eq!(*lock.read().unwrap(), [1, 2, 3, 4, 5]);
        }

        #[test]
        fn writers_from_many_threads_lose_no_update() {
            let lock = ShardedLock::new(0u64);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for _ in 0..2_000 {
                            *lock.write().unwrap() += 1;
                            let _ = *lock.read().unwrap();
                        }
                    });
                }
            });
            assert_eq!(*lock.read().unwrap(), 8_000);
        }

        #[test]
        fn a_panicking_writer_poisons_the_lock() {
            let lock = ShardedLock::new(0u32);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _w = lock.write().unwrap();
                panic!("poison");
            }));
            assert!(caught.is_err());
            assert!(lock.read().is_err());
            assert!(lock.write().is_err());
        }
    }
}
