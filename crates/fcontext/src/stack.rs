//! Guard-paged execution stacks and the recycling stack pool.
//!
//! Stacks are `mmap`ed with an inaccessible guard page at the low end (stacks
//! grow downward), so runaway recursion in a user context faults instead of
//! silently corrupting a neighbouring allocation. A small size-classed pool
//! amortizes the `mmap`/`munmap` cost of frequent context creation, the same
//! optimization ULT libraries such as Argobots and MassiveThreads apply.
//!
//! ## Two backings
//!
//! - **Owned** stacks ([`Stack::new`], [`StackPool::acquire`]): one `mmap`
//!   per stack, one guard page per stack. Two VMAs each — fine for the
//!   hundreds of sibling/trampoline stacks the classic paths create.
//! - **Slab** stacks ([`StackPool::acquire_dense`]): carved out of large
//!   shared mappings ([`SLAB_TARGET_BYTES`] of virtual space each, one
//!   leading guard page per slab). At 100k–1M pooled ULPs the per-stack
//!   guard page is unaffordable — `vm.max_map_count` defaults to 65530 and
//!   every PROT_NONE page splits a VMA in two — so dense slots trade the
//!   interior guards for a bounded VMA count (~2 per slab, thousands of
//!   stacks per slab). Slot 0 still abuts the slab's guard page; interior
//!   slots abut their neighbour's top.
//!
//! ## RSS tracks *live* stacks
//!
//! [`StackPool::release`] calls `madvise(MADV_DONTNEED)` on the usable
//! region before caching it. For anonymous private memory the kernel drops
//! the backing pages immediately and refaults zero pages on next touch, so
//! resident memory follows the number of *live* ULPs instead of the
//! high-water mark of ever-spawned ones. The freed slot stays mapped (no
//! VMA churn) and is handed out again LIFO.

use parking_lot::Mutex;
use std::io;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default usable stack size for a user context (512 KiB, matching the
/// paper's prototype default for PiP tasks' coroutine stacks).
pub const DEFAULT_STACK_SIZE: usize = 512 * 1024;

/// Default usable stack size for a trampoline context. The paper notes "the
/// stack region of a trampoline context can be very small" (§V-A); one page
/// of usable space is plenty for the idle loop.
pub const TRAMPOLINE_STACK_SIZE: usize = 16 * 1024;

/// Virtual size budget of one dense slab mapping (the slot count is derived
/// from this and the stride). 32 MiB ≈ 512 slots of 64 KiB: a 1M-ULP run
/// needs ~2k slabs → ~4k VMAs, comfortably under `vm.max_map_count`.
pub const SLAB_TARGET_BYTES: usize = 32 * 1024 * 1024;

fn page_size() -> usize {
    static PAGE: AtomicUsize = AtomicUsize::new(0);
    let cached = PAGE.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let sz = unsafe { libc::sysconf(libc::_SC_PAGESIZE) } as usize;
    let sz = if sz == 0 { 4096 } else { sz };
    PAGE.store(sz, Ordering::Relaxed);
    sz
}

fn round_up(n: usize, to: usize) -> usize {
    n.div_ceil(to) * to
}

/// One dense mapping serving many fixed-stride stack slots.
///
/// Layout: `[guard page][slot 0][slot 1]…[slot n-1]`, all from a single
/// `mmap`. Slots are carved in address order (`carved` counts them) and
/// recycled through an internal LIFO free list; the whole mapping is
/// `munmap`ed when the last reference (pool entry or outstanding slot
/// stack) drops.
#[derive(Debug)]
struct SlabInner {
    base: *mut u8,
    total: usize,
    stride: usize,
    slots: u32,
    /// Slots handed out at least once (slots >= carved are untouched).
    carved: Mutex<u32>,
    /// Recycled slot indices, LIFO.
    free: Mutex<Vec<u32>>,
}

unsafe impl Send for SlabInner {}
unsafe impl Sync for SlabInner {}

impl SlabInner {
    fn new(stride: usize) -> io::Result<Arc<SlabInner>> {
        let page = page_size();
        let slots = (SLAB_TARGET_BYTES / stride).clamp(8, 4096) as u32;
        let total = page + stride * slots as usize;
        let base = unsafe {
            libc::mmap(
                ptr::null_mut(),
                total,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_STACK,
                -1,
                0,
            )
        };
        if base == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        let base = base as *mut u8;
        if unsafe { libc::mprotect(base as *mut libc::c_void, page, libc::PROT_NONE) } != 0 {
            let err = io::Error::last_os_error();
            unsafe { libc::munmap(base as *mut libc::c_void, total) };
            return Err(err);
        }
        Ok(Arc::new(SlabInner {
            base,
            total,
            stride,
            slots,
            carved: Mutex::new(0),
            free: Mutex::new(Vec::new()),
        }))
    }

    /// Low address of `slot`'s usable region (just above the guard page for
    /// slot 0, just above the previous slot otherwise).
    fn slot_base(&self, slot: u32) -> *mut u8 {
        unsafe { self.base.add(page_size() + slot as usize * self.stride) }
    }

    /// Pop a recycled slot or carve a fresh one; `None` when full.
    fn take_slot(self: &Arc<Self>) -> Option<Stack> {
        let slot = match self.free.lock().pop() {
            Some(s) => s,
            None => {
                let mut carved = self.carved.lock();
                if *carved >= self.slots {
                    return None;
                }
                let s = *carved;
                *carved += 1;
                s
            }
        };
        let base = self.slot_base(slot);
        Some(Stack {
            base,
            total: self.stride,
            usable: self.stride,
            backing: Backing::Slab {
                slab: self.clone(),
                slot,
            },
        })
    }

    /// Every carved slot is back on the free list (nothing outstanding).
    fn is_idle(&self) -> bool {
        self.free.lock().len() as u32 == *self.carved.lock()
    }
}

impl Drop for SlabInner {
    fn drop(&mut self) {
        unsafe {
            libc::munmap(self.base as *mut libc::c_void, self.total);
        }
    }
}

/// Where a [`Stack`]'s memory comes from.
#[derive(Debug)]
enum Backing {
    /// A dedicated `mmap` with its own guard page; `munmap`ed on drop.
    Owned,
    /// A slot in a shared slab; returned to the slab's free list on drop.
    Slab { slab: Arc<SlabInner>, slot: u32 },
}

/// An owned, guard-paged stack region.
#[derive(Debug)]
pub struct Stack {
    /// Base of the whole region (guard page included for owned stacks;
    /// slab slots start directly at their usable bottom).
    base: *mut u8,
    /// Total region length.
    total: usize,
    /// Usable bytes above the guard page.
    usable: usize,
    /// Dedicated mapping or slab slot.
    backing: Backing,
}

// The stack is plain memory; it is sound to hand it to another thread as
// long as only one context executes on it at a time, which the runtime
// guarantees by construction.
unsafe impl Send for Stack {}

impl Stack {
    /// Allocate a stack with at least `usable` usable bytes plus a guard
    /// page at the low end.
    pub fn new(usable: usize) -> io::Result<Stack> {
        let page = page_size();
        let usable = round_up(usable.max(page), page);
        let total = usable + page;
        // MAP_STACK is advisory on Linux but communicates intent.
        let base = unsafe {
            libc::mmap(
                ptr::null_mut(),
                total,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_STACK,
                -1,
                0,
            )
        };
        if base == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        let base = base as *mut u8;
        if unsafe { libc::mprotect(base as *mut libc::c_void, page, libc::PROT_NONE) } != 0 {
            let err = io::Error::last_os_error();
            unsafe { libc::munmap(base as *mut libc::c_void, total) };
            return Err(err);
        }
        Ok(Stack {
            base,
            total,
            usable,
            backing: Backing::Owned,
        })
    }

    /// One past the highest usable address; initial stack pointers are
    /// derived from this.
    #[inline]
    pub fn top(&self) -> *mut u8 {
        unsafe { self.base.add(self.total) }
    }

    /// Lowest usable address (just above the guard page).
    #[inline]
    pub fn bottom(&self) -> *mut u8 {
        unsafe { self.base.add(self.total - self.usable) }
    }

    /// Usable capacity in bytes.
    #[inline]
    pub fn usable_size(&self) -> usize {
        self.usable
    }

    /// Whether `addr` falls inside the usable region of this stack.
    #[inline]
    pub fn contains(&self, addr: *const u8) -> bool {
        let a = addr as usize;
        a >= self.bottom() as usize && a < self.top() as usize
    }

    /// Whether this stack is a dense slab slot (no interior guard page).
    #[inline]
    pub fn is_slab_slot(&self) -> bool {
        matches!(self.backing, Backing::Slab { .. })
    }

    /// Drop the usable region's backing pages (`madvise(MADV_DONTNEED)`):
    /// resident memory is released immediately and the region reads as
    /// zeroes on next touch. The mapping itself is untouched.
    pub fn dont_need(&self) {
        unsafe {
            libc::madvise(
                self.bottom() as *mut libc::c_void,
                self.usable,
                libc::MADV_DONTNEED,
            );
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        match &self.backing {
            Backing::Owned => unsafe {
                libc::munmap(self.base as *mut libc::c_void, self.total);
            },
            Backing::Slab { slab, slot } => {
                slab.free.lock().push(*slot);
                // The slab mapping itself lives until its Arc count drains.
            }
        }
    }
}

/// A recycling stack pool: size-classed freelists of owned stacks plus
/// dense slab slots for high-cardinality use.
///
/// `acquire` prefers a cached stack of the exact class; `release` returns a
/// stack to the pool (after `MADV_DONTNEED`, unless disabled) or drops it
/// when the class is at capacity. The pool tracks outstanding stacks and
/// their high-water mark so callers can assert it never caches more than
/// was ever live.
#[derive(Debug)]
pub struct StackPool {
    classes: Mutex<Vec<(usize, Vec<Stack>)>>,
    /// Dense slabs, keyed by stride; newest last. Slots recycle through
    /// each slab's internal free list.
    slabs: Mutex<Vec<Arc<SlabInner>>>,
    max_per_class: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Stacks handed out and not yet released.
    outstanding: AtomicUsize,
    /// High-water mark of `outstanding`.
    peak_outstanding: AtomicUsize,
    /// Releases that dropped backing pages with `MADV_DONTNEED`.
    recycled: AtomicUsize,
    /// Whether `release` calls `madvise(MADV_DONTNEED)` (default on).
    dontneed: AtomicBool,
}

impl StackPool {
    /// An empty pool retaining at most `max_per_class` free stacks per
    /// size class.
    pub fn new(max_per_class: usize) -> StackPool {
        StackPool {
            classes: Mutex::new(Vec::new()),
            slabs: Mutex::new(Vec::new()),
            max_per_class,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(0),
            peak_outstanding: AtomicUsize::new(0),
            recycled: AtomicUsize::new(0),
            dontneed: AtomicBool::new(true),
        }
    }

    /// Enable/disable `MADV_DONTNEED` on release (on by default; benches
    /// that want to measure raw reuse can turn it off).
    pub fn set_dontneed(&self, on: bool) {
        self.dontneed.store(on, Ordering::Relaxed);
    }

    fn charge_out(&self) {
        let now = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_outstanding.fetch_max(now, Ordering::Relaxed);
    }

    /// Fetch a pooled stack of at least `usable` bytes or allocate a new one.
    pub fn acquire(&self, usable: usize) -> io::Result<Stack> {
        let page = page_size();
        let class = round_up(usable.max(page), page);
        {
            let mut classes = self.classes.lock();
            if let Some((_, list)) = classes.iter_mut().find(|(sz, _)| *sz == class) {
                if let Some(stack) = list.pop() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.charge_out();
                    return Ok(stack);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let s = Stack::new(class)?;
        self.charge_out();
        Ok(s)
    }

    /// Fetch a dense slab slot of at least `usable` bytes (page-rounded to
    /// a stride class), carving a new slab when every existing one of the
    /// class is full. Reuse of a recycled slot counts as a pool hit; a
    /// fresh carve (or a fresh slab) counts as a miss.
    pub fn acquire_dense(&self, usable: usize) -> io::Result<Stack> {
        let page = page_size();
        let stride = round_up(usable.max(page), page);
        let mut slabs = self.slabs.lock();
        // Prefer recycled slots (LIFO within a slab, newest slab first —
        // the warmest memory), then carve from the newest slab of the
        // class, then map a new slab.
        for slab in slabs.iter().rev() {
            if slab.stride != stride {
                continue;
            }
            if let Some(s) = slab.free.lock().pop() {
                let base = slab.slot_base(s);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.charge_out();
                return Ok(Stack {
                    base,
                    total: stride,
                    usable: stride,
                    backing: Backing::Slab {
                        slab: slab.clone(),
                        slot: s,
                    },
                });
            }
        }
        for slab in slabs.iter().rev() {
            if slab.stride != stride {
                continue;
            }
            if let Some(stack) = slab.take_slot() {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.charge_out();
                return Ok(stack);
            }
        }
        let slab = SlabInner::new(stride)?;
        let stack = slab.take_slot().expect("fresh slab has slots");
        slabs.push(slab);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.charge_out();
        Ok(stack)
    }

    /// Return a stack to the pool. The usable region's backing pages are
    /// dropped with `MADV_DONTNEED` (unless disabled), so cached stacks
    /// cost no resident memory; slab slots go back to their slab's free
    /// list, owned stacks to the size-classed freelist (dropped if the
    /// class is full).
    pub fn release(&self, stack: Stack) {
        if self.dontneed.load(Ordering::Relaxed) {
            stack.dont_need();
            self.recycled.fetch_add(1, Ordering::Relaxed);
        }
        if stack.is_slab_slot() {
            // Drop runs the slab-slot return path.
            drop(stack);
        } else {
            let class = stack.usable_size();
            let mut classes = self.classes.lock();
            match classes.iter_mut().find(|(sz, _)| *sz == class) {
                Some((_, list)) if list.len() < self.max_per_class => list.push(stack),
                Some(_) => {}
                None => classes.push((class, vec![stack])),
            }
        }
        // The stack stops counting as outstanding only once it is back on a
        // free list. Decrementing first would let an acquire that runs
        // during the `madvise` above find the list still empty, carve a
        // fresh stack, and leave two cached behind a high-water mark of one
        // — `cached() <= peak_outstanding()` must hold at every instant.
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
    }

    /// (pool hits, pool misses) since creation.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Stacks currently handed out and not yet released.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// High-water mark of simultaneously outstanding stacks.
    pub fn peak_outstanding(&self) -> usize {
        self.peak_outstanding.load(Ordering::Relaxed)
    }

    /// Releases whose backing pages were dropped with `MADV_DONTNEED`.
    pub fn recycled(&self) -> usize {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Number of stacks currently cached (owned freelist entries plus
    /// recycled slab slots).
    pub fn cached(&self) -> usize {
        let owned: usize = self.classes.lock().iter().map(|(_, l)| l.len()).sum();
        let dense: usize = self.slabs.lock().iter().map(|s| s.free.lock().len()).sum();
        owned + dense
    }

    /// Shrink the cache: truncate each owned size class to `max_cached`
    /// entries (`munmap`ing the excess) and unmap slabs whose every carved
    /// slot is free. Returns the number of cached stacks freed.
    pub fn shrink(&self, max_cached: usize) -> usize {
        let mut freed = 0;
        {
            let mut classes = self.classes.lock();
            for (_, list) in classes.iter_mut() {
                while list.len() > max_cached {
                    drop(list.pop());
                    freed += 1;
                }
            }
        }
        {
            let mut slabs = self.slabs.lock();
            slabs.retain(|slab| {
                if slab.is_idle() {
                    freed += slab.free.lock().len();
                    false // Arc drops; munmap runs (nothing outstanding).
                } else {
                    true
                }
            });
        }
        freed
    }
}

impl Default for StackPool {
    fn default() -> Self {
        StackPool::new(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_has_requested_capacity() {
        let s = Stack::new(64 * 1024).unwrap();
        assert!(s.usable_size() >= 64 * 1024);
        assert_eq!(s.top() as usize - s.bottom() as usize, s.usable_size());
    }

    #[test]
    fn stack_is_writable_to_the_bottom() {
        let s = Stack::new(32 * 1024).unwrap();
        unsafe {
            // Touch first and last usable bytes.
            s.bottom().write_volatile(0xAB);
            s.top().sub(1).write_volatile(0xCD);
            assert_eq!(s.bottom().read_volatile(), 0xAB);
            assert_eq!(s.top().sub(1).read_volatile(), 0xCD);
        }
    }

    #[test]
    fn contains_matches_bounds() {
        let s = Stack::new(16 * 1024).unwrap();
        assert!(s.contains(s.bottom()));
        assert!(s.contains(unsafe { s.top().sub(1) }));
        assert!(!s.contains(s.top()));
        assert!(!s.contains(unsafe { s.bottom().sub(1) }));
    }

    #[test]
    fn sizes_round_up_to_pages() {
        let s = Stack::new(1).unwrap();
        assert_eq!(s.usable_size() % page_size(), 0);
        assert!(s.usable_size() >= page_size());
    }

    #[test]
    fn pool_reuses_stacks() {
        let pool = StackPool::new(4);
        let a = pool.acquire(64 * 1024).unwrap();
        let a_base = a.bottom() as usize;
        pool.release(a);
        let b = pool.acquire(64 * 1024).unwrap();
        assert_eq!(
            b.bottom() as usize,
            a_base,
            "expected the cached stack back"
        );
        let (hits, misses) = pool.stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
    }

    #[test]
    fn pool_caps_per_class() {
        let pool = StackPool::new(1);
        let a = pool.acquire(16 * 1024).unwrap();
        let b = pool.acquire(16 * 1024).unwrap();
        pool.release(a);
        pool.release(b); // dropped: class already holds one
        assert_eq!(pool.cached(), 1);
    }

    #[test]
    fn pool_separates_classes() {
        let pool = StackPool::new(4);
        let a = pool.acquire(16 * 1024).unwrap();
        let b = pool.acquire(64 * 1024).unwrap();
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.cached(), 2);
        let c = pool.acquire(64 * 1024).unwrap();
        assert!(c.usable_size() >= 64 * 1024);
    }

    #[test]
    fn freelist_reuse_is_lifo() {
        // Satellite: the most recently released stack (warmest memory)
        // comes back first — for owned classes and dense slots alike.
        let pool = StackPool::new(8);
        let a = pool.acquire(16 * 1024).unwrap();
        let b = pool.acquire(16 * 1024).unwrap();
        let (a_base, b_base) = (a.bottom() as usize, b.bottom() as usize);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.acquire(16 * 1024).unwrap().bottom() as usize, b_base);
        assert_eq!(pool.acquire(16 * 1024).unwrap().bottom() as usize, a_base);

        let da = pool.acquire_dense(16 * 1024).unwrap();
        let db = pool.acquire_dense(16 * 1024).unwrap();
        let (da_base, db_base) = (da.bottom() as usize, db.bottom() as usize);
        pool.release(da);
        pool.release(db);
        // Hold the reacquired slots: a dropped slab slot would go straight
        // back onto the free list and be handed out again.
        let first = pool.acquire_dense(16 * 1024).unwrap();
        let second = pool.acquire_dense(16 * 1024).unwrap();
        assert_eq!(first.bottom() as usize, db_base);
        assert_eq!(second.bottom() as usize, da_base);
    }

    #[test]
    fn guard_page_intact_after_recycle() {
        // Satellite: recycling must not disturb the PROT_NONE guard. A
        // fork probes the page below the recycled stack's bottom and must
        // die on the fault; the parent observes the signal-death exit.
        let pool = StackPool::new(4);
        let s = pool.acquire(16 * 1024).unwrap();
        pool.release(s);
        let s = pool.acquire(16 * 1024).unwrap();
        let guard_addr = unsafe { s.bottom().sub(1) } as usize;
        let probe = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "stack::tests::guard_probe_child", "--nocapture"])
            .env("ULP_GUARD_PROBE_ADDR", format!("{guard_addr}"))
            .output()
            .expect("spawn guard probe");
        assert!(
            !probe.status.success(),
            "writing the guard page must fault, got: {probe:?}"
        );
    }

    #[test]
    fn guard_probe_child() {
        // Helper target for `guard_page_intact_after_recycle`: when the env
        // var is set (only in the re-exec), dereference the guard address.
        // The parent's mapping is not shared, so the child allocates a
        // stack at the same deterministic flow and probes its own guard.
        if std::env::var("ULP_GUARD_PROBE_ADDR").is_err() {
            return;
        }
        let pool = StackPool::new(4);
        let s = pool.acquire(16 * 1024).unwrap();
        pool.release(s);
        let s = pool.acquire(16 * 1024).unwrap();
        let below = unsafe { s.bottom().sub(1) };
        unsafe { below.write_volatile(1) }; // must SIGSEGV
        unreachable!("guard page was writable");
    }

    #[test]
    fn dontneed_zeroes_on_touch() {
        // Satellite: after release (which MADV_DONTNEEDs), the recycled
        // stack reads as zeroes — the dirtied pages were truly dropped.
        let pool = StackPool::new(4);
        let s = pool.acquire(32 * 1024).unwrap();
        unsafe {
            s.bottom().write_volatile(0x5A);
            s.top().sub(1).write_volatile(0xA5);
        }
        let base = s.bottom() as usize;
        pool.release(s);
        let s = pool.acquire(32 * 1024).unwrap();
        assert_eq!(s.bottom() as usize, base, "same stack back");
        unsafe {
            assert_eq!(s.bottom().read_volatile(), 0, "low byte zeroed");
            assert_eq!(s.top().sub(1).read_volatile(), 0, "high byte zeroed");
        }
        assert!(pool.recycled() >= 1);
    }

    #[test]
    fn dense_slots_share_a_slab() {
        let pool = StackPool::new(4);
        let a = pool.acquire_dense(16 * 1024).unwrap();
        let b = pool.acquire_dense(16 * 1024).unwrap();
        assert!(a.is_slab_slot() && b.is_slab_slot());
        // Adjacent carves are stride apart in one mapping.
        assert_eq!(
            b.bottom() as usize - a.bottom() as usize,
            a.usable_size(),
            "slots are densely packed"
        );
        unsafe {
            a.top().sub(1).write_volatile(1);
            b.top().sub(1).write_volatile(2);
        }
    }

    #[test]
    fn pool_shrinks_under_cap() {
        // Satellite: shrink() truncates owned classes to the cap and
        // unmaps fully-idle slabs.
        let pool = StackPool::new(16);
        let stacks: Vec<_> = (0..6).map(|_| pool.acquire(16 * 1024).unwrap()).collect();
        let dense: Vec<_> = (0..4)
            .map(|_| pool.acquire_dense(16 * 1024).unwrap())
            .collect();
        for s in stacks {
            pool.release(s);
        }
        for s in dense {
            pool.release(s);
        }
        assert_eq!(pool.cached(), 10);
        let freed = pool.shrink(2);
        assert_eq!(freed, 8, "4 owned above cap + 4 idle slab slots");
        assert_eq!(pool.cached(), 2);
        // The pool still works after shrinking.
        let s = pool.acquire_dense(16 * 1024).unwrap();
        unsafe { s.top().sub(1).write_volatile(3) };
        pool.release(s);
    }

    #[test]
    fn outstanding_high_water_tracks_live_stacks() {
        let pool = StackPool::new(8);
        let a = pool.acquire_dense(16 * 1024).unwrap();
        let b = pool.acquire_dense(16 * 1024).unwrap();
        assert_eq!(pool.outstanding(), 2);
        assert_eq!(pool.peak_outstanding(), 2);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.peak_outstanding(), 2);
        assert!(pool.cached() <= pool.peak_outstanding());
    }
}
