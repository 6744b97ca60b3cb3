//! Per-ULP thread-local storage.
//!
//! Each process in a ULP system has its own TLS region, and "TLS regions
//! must also be switched when switching a UC to another" (§V-B). The real
//! mechanism — rewriting the FS segment register via `arch_prctl`, or
//! `tpidr_el0` on AArch64 — cannot be used here without destroying the host
//! runtime's own TLS, so the register is emulated: the runtime keeps a
//! per-OS-thread pointer to the current ULP (see [`crate::current`]), every
//! UC↔UC switch updates it (charging the profiled cost of the real
//! instruction/system call), and [`UlpLocal`] resolves through it.
//!
//! [`UlpLocal<T>`] is the `thread_local!` analogue: one instance of `T` per
//! ULP. [`errno`]/[`set_errno`] resolve through the same register.

use crate::current::{current_ulp, with_thread};
use parking_lot::Mutex;
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-UC storage backing every [`UlpLocal`] slot.
#[derive(Debug, Default)]
pub struct TlsStorage {
    slots: Mutex<Vec<Option<Box<dyn Any + Send>>>>,
}

impl TlsStorage {
    /// Empty storage with no slots populated.
    pub fn new() -> TlsStorage {
        TlsStorage::default()
    }

    /// Access slot `key`, initializing it with `init` on first touch.
    ///
    /// The closure must not context-switch (same restriction real TLS
    /// imposes de facto: the slot is addressed through the current thread).
    pub fn with_slot<T: Send + 'static, R>(
        &self,
        key: usize,
        init: fn() -> T,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        let mut slots = self.slots.lock();
        if slots.len() <= key {
            slots.resize_with(key + 1, || None);
        }
        let slot = &mut slots[key];
        if slot.is_none() {
            *slot = Some(Box::new(init()));
        }
        let value = slot
            .as_mut()
            .expect("just initialized")
            .downcast_mut::<T>()
            .expect("UlpLocal key collision: two locals share a key");
        f(value)
    }

    /// Number of initialized slots (diagnostics).
    pub fn initialized_count(&self) -> usize {
        self.slots.lock().iter().filter(|s| s.is_some()).count()
    }
}

static NEXT_KEY: AtomicUsize = AtomicUsize::new(1);

/// A ULP-local value: every user-level process sees its own instance,
/// regardless of which kernel context currently runs it.
///
/// ```ignore
/// static COUNTER: UlpLocal<u64> = UlpLocal::new(|| 0);
/// COUNTER.with(|c| *c += 1);
/// ```
pub struct UlpLocal<T: Send + 'static> {
    /// Lazily assigned globally unique slot key (0 = unassigned).
    key: AtomicUsize,
    init: fn() -> T,
}

impl<T: Send + 'static> UlpLocal<T> {
    /// Const-constructible so `UlpLocal` can live in a `static`.
    pub const fn new(init: fn() -> T) -> UlpLocal<T> {
        UlpLocal {
            key: AtomicUsize::new(0),
            init,
        }
    }

    fn key(&self) -> usize {
        let k = self.key.load(Ordering::Acquire);
        if k != 0 {
            return k;
        }
        let fresh = NEXT_KEY.fetch_add(1, Ordering::Relaxed);
        match self
            .key
            .compare_exchange(0, fresh, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => fresh,
            Err(existing) => existing,
        }
    }

    /// Access this ULP's instance.
    ///
    /// # Panics
    /// If called from a thread that is not running a ULP.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let ulp = current_ulp().expect("UlpLocal accessed outside a ULP context");
        ulp.tls.with_slot(self.key(), self.init, f)
    }

    /// Like [`UlpLocal::with`], returning `None` outside a ULP.
    pub fn try_with<R>(&self, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let ulp = current_ulp()?;
        Some(ulp.tls.with_slot(self.key(), self.init, f))
    }

    /// Copy the current value out.
    pub fn get(&self) -> T
    where
        T: Copy,
    {
        self.with(|v| *v)
    }

    /// Replace the current value.
    pub fn set(&self, v: T) {
        self.with(|slot| *slot = v);
    }
}

/// This ULP's `errno` — the most famous TLS variable (§V-B footnote: "The
/// most well-known TLS variable is errno"): one per ULP, set by the
/// system-call veneers. It lives in a field of the UC itself
/// ([`crate::uc::UcInner::errno`]) rather than a [`UlpLocal`] slot, because
/// every veneer writes it.
pub fn errno() -> i32 {
    with_thread(|b| b.ulp().map_or(0, |u| u.errno.load(Ordering::Relaxed)))
}

/// Set this ULP's `errno` (no-op outside a ULP).
pub fn set_errno(v: i32) {
    with_thread(|b| {
        if let Some(u) = b.ulp() {
            u.errno.store(v, Ordering::Relaxed);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_initializes_lazily() {
        let s = TlsStorage::new();
        assert_eq!(s.initialized_count(), 0);
        let v = s.with_slot(
            3,
            || 41,
            |v: &mut i32| {
                *v += 1;
                *v
            },
        );
        assert_eq!(v, 42);
        assert_eq!(s.initialized_count(), 1);
        // Second access sees the mutated value, not a fresh init.
        assert_eq!(s.with_slot(3, || 0, |v: &mut i32| *v), 42);
    }

    #[test]
    fn storage_separates_keys() {
        let s = TlsStorage::new();
        s.with_slot(0, || 1u8, |v| *v = 10);
        s.with_slot(1, || 2u8, |v| *v = 20);
        assert_eq!(s.with_slot(0, || 0u8, |v| *v), 10);
        assert_eq!(s.with_slot(1, || 0u8, |v| *v), 20);
    }

    #[test]
    fn local_keys_are_distinct() {
        static A: UlpLocal<u32> = UlpLocal::new(|| 0);
        static B: UlpLocal<u32> = UlpLocal::new(|| 0);
        assert_ne!(A.key(), B.key());
        assert_eq!(A.key(), A.key(), "key stable across calls");
    }

    #[test]
    fn errno_outside_ulp_is_zero_and_ignored() {
        assert_eq!(errno(), 0);
        set_errno(42); // silently ignored outside a ULP
        assert_eq!(errno(), 0);
    }

    #[test]
    fn try_with_outside_ulp_is_none() {
        static L: UlpLocal<u32> = UlpLocal::new(|| 7);
        assert!(L.try_with(|v| *v).is_none());
    }
}
