//! Offline stand-in for `parking_lot`.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the `parking_lot` API surface the workspace uses — non-poisoning
//! `Mutex`/`RwLock` guards and [`MutexGuard::unlocked`] — implemented over
//! `std::sync`. Poisoned std locks are recovered silently, matching
//! parking_lot's "no poisoning" contract. There is no `Condvar`: every
//! sleep in the workspace is a futex sleep, most of them on a
//! `ulp_kernel::Waiters` word.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Non-poisoning mutual exclusion lock (parking_lot-compatible surface).
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// Acquire a std lock, recovering it from poisoning.
fn lock_std<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            mutex: &self.inner,
            inner: Some(lock_std(&self.inner)),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let g = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            mutex: &self.inner,
            inner: Some(g),
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(e) => e.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// Guard for [`Mutex`]. The inner `Option` is only `None` transiently while
/// [`MutexGuard::unlocked`] has taken the std guard; it is always `Some`
/// when user code can observe it.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a std::sync::Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// Release the lock, run `f`, and take the lock again before returning
    /// — also when `f` unwinds (parking_lot 0.12's `MutexGuard::unlocked`).
    pub fn unlocked<F, U>(s: &mut Self, f: F) -> U
    where
        F: FnOnce() -> U,
    {
        struct Relock<'g, 'a, T: ?Sized>(&'g mut MutexGuard<'a, T>);
        impl<T: ?Sized> Drop for Relock<'_, '_, T> {
            fn drop(&mut self) {
                self.0.inner = Some(lock_std(self.0.mutex));
            }
        }
        drop(s.inner.take());
        let _relock = Relock(s);
        f()
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Non-poisoning reader-writer lock (parking_lot-compatible surface).
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn unlocked_releases_and_retakes() {
        let m = Mutex::new(1);
        let mut g = m.lock();
        let seen = MutexGuard::unlocked(&mut g, || {
            *m.try_lock().expect("released while f runs") += 1;
            7
        });
        assert_eq!((seen, *g), (7, 2));
        assert!(m.try_lock().is_none(), "held again");
        drop(g);
        let mut g = m.lock();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MutexGuard::unlocked(&mut g, || panic!("inside unlocked"))
        }));
        assert!(unwound.is_err());
        assert_eq!(*g, 2, "re-taken on unwind");
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(7);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 14);
        }
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }
}
