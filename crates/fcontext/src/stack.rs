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
//! ## Warm free lists, trimmed by a low-water scavenger
//!
//! [`StackPool::release`] is a user-level push: the stack goes back on its
//! LIFO free list *warm* (pages intact), so a churn that cycles its free
//! list never enters the host kernel. Only [`StackPool::scavenge`] calls
//! `madvise`, on the entries that stayed free through a whole interval.
//! Each free list keeps two marks: the bottom `clean` entries hold no pages
//! (already trimmed), and `low` is the smallest length since the last pass.
//! A pop lowers both to the new length; a push moves neither. A pass holds
//! the list's lock, `MADV_DONTNEED`s entries `clean..low` (adjacent slab
//! slots in one call), then sets `clean = low`, `low = len`. So `clean <=
//! low <= len` always, an outstanding stack (on no list) is never trimmed,
//! and a stack is trimmed at most once per stay. Passes are at least 10 ms
//! apart; the runtime attempts one whenever a kernel context is about to
//! idle, `release` on every 64th call.
//!
//! The memory contract: resident stack pages ≤ (live stacks + stacks reused
//! within the last two intervals) × the pages each user touched, and the
//! live stacks' alone after two quiet intervals. A trimmed stack stays
//! mapped (no VMA churn) and reads as zeroes on its next use; a warm one
//! comes back with its previous user's bytes.

use parking_lot::Mutex;
use std::io;
use std::ptr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

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

/// Minimum spacing of two scavenger passes (10 ms; see the module docs).
const SCAVENGE_INTERVAL_NS: u64 = 10_000_000;

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

/// A LIFO free list with the scavenger's two marks (see the module docs).
#[derive(Debug)]
struct FreeList<T> {
    items: Vec<T>,
    /// `items[..clean]` hold no pages.
    clean: usize,
    /// Smallest `items.len()` since the last pass.
    low: usize,
}

impl<T> FreeList<T> {
    fn new(items: Vec<T>) -> Self {
        FreeList {
            items,
            clean: 0,
            low: 0,
        }
    }

    fn pop(&mut self) -> Option<T> {
        let item = self.items.pop()?;
        let len = self.items.len();
        self.low = self.low.min(len);
        self.clean = self.clean.min(len);
        Some(item)
    }

    /// Entries still holding pages.
    fn warm(&self) -> usize {
        self.items.len() - self.clean
    }

    /// One scavenger pass: hand the entries nothing popped since the last
    /// pass to `trim`, mark them clean and open the next interval. Returns
    /// how many were trimmed.
    fn pass(&mut self, trim: impl FnOnce(&mut [T])) -> usize {
        let stale = self.low - self.clean;
        if stale > 0 {
            trim(&mut self.items[self.clean..self.low]);
        }
        self.clean = self.low;
        self.low = self.items.len();
        stale
    }
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
    /// Recycled slot indices.
    free: Mutex<FreeList<u32>>,
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
            free: Mutex::new(FreeList::new(Vec::new())),
        }))
    }

    /// Low address of `slot`'s usable region (just above the guard page for
    /// slot 0, just above the previous slot otherwise).
    fn slot_base(&self, slot: u32) -> *mut u8 {
        unsafe { self.base.add(page_size() + slot as usize * self.stride) }
    }

    fn slot_stack(self: &Arc<Self>, slot: u32) -> Stack {
        Stack {
            base: self.slot_base(slot),
            total: self.stride,
            usable: self.stride,
            backing: Backing::Slab {
                slab: self.clone(),
                slot,
            },
        }
    }

    /// Pop a recycled slot; with `warm_only`, only one still holding pages.
    fn pop_free(self: &Arc<Self>, warm_only: bool) -> Option<Stack> {
        let mut free = self.free.lock();
        if warm_only && free.warm() == 0 {
            return None;
        }
        free.pop().map(|slot| self.slot_stack(slot))
    }

    /// Pop a recycled slot or carve a fresh one; `None` when full. The free
    /// list stays locked across the carve: a slot is carved only while no
    /// recycled one exists (see `StackPool::charge_out`).
    fn take_slot(self: &Arc<Self>) -> Option<Stack> {
        let mut free = self.free.lock();
        let slot = match free.pop() {
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
        Some(self.slot_stack(slot))
    }

    /// Every carved slot is back on the free list (nothing outstanding).
    fn is_idle(&self) -> bool {
        self.free.lock().items.len() as u32 == *self.carved.lock()
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
}

impl Drop for Stack {
    fn drop(&mut self) {
        match &self.backing {
            Backing::Owned => unsafe {
                libc::munmap(self.base as *mut libc::c_void, self.total);
            },
            Backing::Slab { slab, slot } => {
                slab.free.lock().items.push(*slot);
                // The slab mapping itself lives until its Arc count drains.
            }
        }
    }
}

/// A recycling stack pool: size-classed freelists of owned stacks plus
/// dense slab slots for high-cardinality use.
///
/// `acquire` prefers a cached stack of the exact class; `release` pushes a
/// stack back warm (or drops it when its class is at capacity) and
/// `scavenge` later gives idle stacks' pages back to the host. The pool
/// tracks outstanding stacks and their high-water mark so callers can
/// assert it never caches more than was ever live.
#[derive(Debug)]
pub struct StackPool {
    classes: Mutex<Vec<(usize, FreeList<Stack>)>>,
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
    /// Stacks whose backing pages the scavenger dropped.
    recycled: AtomicUsize,
    /// `release` calls so far (every 64th attempts a pass).
    releases: AtomicUsize,
    /// Clock origin of `last_pass`.
    epoch: Instant,
    /// When the latest scavenger pass began, in nanoseconds since `epoch`.
    last_pass: AtomicU64,
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
            releases: AtomicUsize::new(0),
            epoch: Instant::now(),
            last_pass: AtomicU64::new(0),
        }
    }

    /// Acquires count a stack *before* they look at a free list, `release`
    /// uncounts it only *after* its push: a stack is always listed or
    /// counted, so whoever finds its class empty and makes a fresh stack has
    /// every earlier one in `outstanding` — `cached() <= peak_outstanding()`.
    fn charge_out(&self) {
        let now = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_outstanding.fetch_max(now, Ordering::Relaxed);
    }

    fn uncharge(&self) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
    }

    /// Fetch a pooled stack of at least `usable` bytes or allocate a new one.
    pub fn acquire(&self, usable: usize) -> io::Result<Stack> {
        let page = page_size();
        let class = round_up(usable.max(page), page);
        self.charge_out();
        {
            let mut classes = self.classes.lock();
            if let Some((_, list)) = classes.iter_mut().find(|(sz, _)| *sz == class) {
                if let Some(stack) = list.pop() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(stack);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Stack::new(class).inspect_err(|_| self.uncharge())
    }

    /// Fetch a dense slab slot of at least `usable` bytes (page-rounded to
    /// a stride class), carving a new slab when every existing one of the
    /// class is full. Reuse of a recycled slot counts as a pool hit; a
    /// fresh carve (or a fresh slab) counts as a miss.
    pub fn acquire_dense(&self, usable: usize) -> io::Result<Stack> {
        let page = page_size();
        let stride = round_up(usable.max(page), page);
        self.charge_out();
        let mut slabs = self.slabs.lock();
        let of_class = || slabs.iter().rev().filter(|s| s.stride == stride);
        // Prefer a warm recycled slot (LIFO within a slab, newest slab
        // first), then a trimmed one, then carve from the newest slab of
        // the class, then map a new slab.
        let recycled = of_class()
            .find_map(|s| s.pop_free(true))
            .or_else(|| of_class().find_map(|s| s.pop_free(false)));
        if let Some(stack) = recycled {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(stack);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(stack) = of_class().find_map(|s| s.take_slot()) {
            return Ok(stack);
        }
        let slab = SlabInner::new(stride).inspect_err(|_| self.uncharge())?;
        let stack = slab.take_slot().expect("fresh slab has slots");
        slabs.push(slab);
        Ok(stack)
    }

    /// Return a stack to the pool, pages intact and without entering the
    /// host kernel: slab slots go back to their slab's free list, owned
    /// stacks to the size-classed freelist. (An owned stack released into a
    /// full class is dropped, which unmaps it.)
    pub fn release(&self, stack: Stack) {
        if stack.is_slab_slot() {
            // Drop runs the slab-slot return path.
            drop(stack);
        } else {
            let class = stack.usable_size();
            let mut classes = self.classes.lock();
            match classes.iter_mut().find(|(sz, _)| *sz == class) {
                Some((_, list)) if list.items.len() < self.max_per_class => list.items.push(stack),
                Some(_) => {}
                None => classes.push((class, FreeList::new(vec![stack]))),
            }
        }
        // Only now that it is back on a free list (see `charge_out`).
        self.uncharge();
        // A churn that never idles still gives its high-water pages back.
        if self.releases.fetch_add(1, Ordering::Relaxed) % 64 == 63 {
            self.scavenge();
        }
    }

    /// Attempt a scavenger pass (see the module docs): a no-op unless the
    /// previous one began at least 10 ms ago. Returns the number of stacks
    /// whose pages were dropped.
    pub fn scavenge(&self) -> usize {
        use Ordering::Relaxed;
        let now = self.epoch.elapsed().as_nanos() as u64;
        let due = |last| (now.saturating_sub(last) >= SCAVENGE_INTERVAL_NS).then_some(now);
        // Relaxed: the stamp guards no data (each list's lock does), it
        // only elects one caller per interval.
        match self.last_pass.fetch_update(Relaxed, Relaxed, due) {
            Ok(_) => self.pass(),
            Err(_) => 0,
        }
    }

    /// One pass over every free list, one list's lock at a time.
    fn pass(&self) -> usize {
        let drop_pages = |lo: *mut u8, len: usize| {
            // SAFETY: `lo..lo + len` is mapped and covers only stacks on a
            // free list whose lock is held: nothing runs on or reads them.
            unsafe { libc::madvise(lo.cast(), len, libc::MADV_DONTNEED) };
        };
        let mut trimmed = 0;
        for (_, list) in self.classes.lock().iter_mut() {
            trimmed += list.pass(|stacks| {
                for s in stacks {
                    drop_pages(s.bottom(), s.usable);
                }
            });
        }
        let slabs = self.slabs.lock().clone();
        for slab in &slabs {
            trimmed += slab.free.lock().pass(|slots| {
                // Trimmed entries are interchangeable, so their order is
                // free to make adjacent slots adjacent.
                slots.sort_unstable();
                for run in slots.chunk_by(|a, b| a + 1 == *b) {
                    drop_pages(slab.slot_base(run[0]), run.len() * slab.stride);
                }
            });
        }
        self.recycled.fetch_add(trimmed, Ordering::Relaxed);
        trimmed
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

    /// Free stacks whose backing pages the scavenger dropped with
    /// `MADV_DONTNEED`, since creation.
    pub fn recycled(&self) -> usize {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Number of stacks currently cached (owned freelist entries plus
    /// recycled slab slots).
    pub fn cached(&self) -> usize {
        let owned: usize = self.classes.lock().iter().map(|(_, l)| l.items.len()).sum();
        let dense: usize = self
            .slabs
            .lock()
            .iter()
            .map(|s| s.free.lock().items.len())
            .sum();
        owned + dense
    }

    /// Cached stacks still holding their pages (`cached()` minus the ones
    /// the scavenger has trimmed).
    pub fn warm(&self) -> usize {
        let owned: usize = self.classes.lock().iter().map(|(_, l)| l.warm()).sum();
        let dense: usize = self.slabs.lock().iter().map(|s| s.free.lock().warm()).sum();
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
                while list.items.len() > max_cached {
                    drop(list.pop());
                    freed += 1;
                }
            }
        }
        {
            let mut slabs = self.slabs.lock();
            slabs.retain(|slab| {
                if slab.is_idle() {
                    freed += slab.free.lock().items.len();
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

    /// Dirty both ends of a stack.
    fn dirty(s: &Stack) {
        unsafe {
            s.bottom().write_volatile(0x5A);
            s.top().sub(1).write_volatile(0xA5);
        }
    }

    fn ends(s: &Stack) -> (u8, u8) {
        unsafe { (s.bottom().read_volatile(), s.top().sub(1).read_volatile()) }
    }

    /// A pool whose own `scavenge` attempts never fire, so a test decides
    /// where every pass falls.
    fn manual_pool() -> StackPool {
        StackPool {
            last_pass: AtomicU64::new(u64::MAX),
            ..StackPool::new(4)
        }
    }

    #[test]
    fn dontneed_zeroes_on_touch() {
        // A stack left free across two passes is trimmed exactly once and
        // reads as zeroes afterwards — owned classes and dense slots alike.
        let pool = manual_pool();
        let acquire: [fn(&StackPool) -> Stack; 2] = [
            |p| p.acquire(32 * 1024).unwrap(),
            |p| p.acquire_dense(32 * 1024).unwrap(),
        ];
        for (i, acquire) in acquire.into_iter().enumerate() {
            let s = acquire(&pool);
            dirty(&s);
            let base = s.bottom() as usize;
            pool.release(s);
            assert_eq!(pool.warm(), 1);
            assert_eq!(pool.pass(), 0, "released inside this interval");
            assert_eq!(pool.pass(), 1, "free through a whole interval");
            assert_eq!(pool.pass(), 0, "already clean");
            assert_eq!((pool.warm(), pool.recycled()), (0, i + 1));
            let s = acquire(&pool);
            assert_eq!(s.bottom() as usize, base, "same stack back");
            assert_eq!(ends(&s), (0, 0), "pages were dropped");
            // Hold nothing over to the next round.
            pool.release(s);
            pool.shrink(0);
        }
    }

    #[test]
    fn cycled_stack_is_never_trimmed() {
        // A stack popped and pushed back inside every interval keeps its
        // pages however the passes fall between the pops and pushes.
        let pool = manual_pool();
        for i in 0..10_000 {
            let (o, d) = (
                pool.acquire(16 * 1024).unwrap(),
                pool.acquire_dense(16 * 1024).unwrap(),
            );
            if i > 0 {
                assert_eq!((ends(&o), ends(&d)), ((0x5A, 0xA5), (0x5A, 0xA5)));
            }
            dirty(&o);
            dirty(&d);
            if i % 2 == 0 {
                pool.pass();
            }
            pool.release(o);
            pool.release(d);
            pool.pass();
        }
        assert_eq!(pool.recycled(), 0);
        assert_eq!(pool.warm(), 2);
    }

    #[test]
    fn free_list_marks_stay_ordered() {
        // Random pops, pushes and passes against a model: `clean <= low <=
        // len` always; a pass trims only entries that sat on the list
        // through the whole previous interval, each once per stay; and the
        // bottom `clean` entries are exactly the trimmed ones.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut list = FreeList::<u32>::new(Vec::new());
        let mut out: Vec<u32> = (0..32).collect();
        // Per entry on the list: passes completed when it was pushed.
        let mut pushed_at = [0usize; 32];
        let mut trimmed = [false; 32];
        let mut passes = 0usize;
        for _ in 0..20_000 {
            match next() % 5 {
                0 | 1 if !out.is_empty() => {
                    let id = out.swap_remove(next() as usize % out.len());
                    pushed_at[id as usize] = passes;
                    list.items.push(id);
                }
                2 | 3 => {
                    if let Some(id) = list.pop() {
                        trimmed[id as usize] = false;
                        out.push(id);
                    }
                }
                _ => {
                    let n = list.pass(|stale| {
                        for &mut id in stale {
                            assert!(pushed_at[id as usize] < passes, "trimmed too early");
                            assert!(!trimmed[id as usize], "trimmed twice in one stay");
                            trimmed[id as usize] = true;
                        }
                    });
                    passes += 1;
                    assert!(n <= list.items.len());
                }
            }
            assert!(list.clean <= list.low && list.low <= list.items.len());
            for (at, &id) in list.items.iter().enumerate() {
                assert_eq!(trimmed[id as usize], at < list.clean);
            }
        }
        assert!(passes > 1000 && list.clean > 0);
    }

    #[test]
    fn scavenger_never_trims_an_outstanding_slot() {
        // Four threads take 1–3 dense slots, fill them with their own
        // pattern, verify and release, while a fifth runs passes back to
        // back (no interval). A pass that trimmed a slot somebody holds
        // would zero a filled page under its owner.
        const ROUNDS: usize = 1500;
        let pool = &StackPool::new(4);
        std::thread::scope(|sc| {
            let workers = (0..4u8).map(|t| {
                sc.spawn(move || {
                    for round in 0..ROUNDS {
                        let held: Vec<Stack> = (0..1 + round % 3)
                            .map(|_| pool.acquire_dense(16 * 1024).unwrap())
                            .collect();
                        let byte = 0x10 + t;
                        for s in &held {
                            unsafe { s.bottom().write_bytes(byte, s.usable_size()) };
                        }
                        std::thread::yield_now();
                        for s in held {
                            let bytes =
                                unsafe { std::slice::from_raw_parts(s.bottom(), s.usable_size()) };
                            assert!(bytes.iter().all(|&b| b == byte), "slot trimmed in use");
                            pool.release(s);
                        }
                    }
                })
            });
            let workers: Vec<_> = workers.collect();
            // A worker that failed its check has finished too: the scope
            // re-raises its panic once this loop ends.
            while !workers.iter().all(|w| w.is_finished()) {
                pool.pass();
                assert!(pool.cached() <= pool.peak_outstanding());
            }
        });
        assert_eq!(pool.outstanding(), 0);
        assert!(pool.recycled() > 0, "the passes found nothing to trim");
        assert!(pool.cached() <= pool.peak_outstanding());
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
