//! Runtime counters.
//!
//! Every hot-path event the paper's evaluation reasons about (context
//! switches, TLS-register loads, couple/decouple round trips) is counted so
//! tests and benchmarks can assert *how many* of each operation a scenario
//! performed — e.g. Table V's claim that one couple+decouple pair costs four
//! context switches and two TLS loads.
//!
//! ## Sharding
//!
//! Counting must not perturb what it counts. A single set of shared
//! `fetch_add` counters puts one contended cache line in the middle of every
//! context switch — with several scheduler KCs ping-ponging that line, the
//! bookkeeping can cost more than the switch it measures. So the counters
//! are *sharded*: every kernel context registers its own cache-line-aligned
//! [`StatsShard`] and bumps it with single-writer increments (a plain
//! load/add/store — no `lock xadd`, no sharing). [`Stats::snapshot`] folds
//! the shards together at read time, which is rare and cold.
//!
//! Threads that never registered a shard (tests poking [`Stats`] directly,
//! early spawn bookkeeping) fall back to a shared shard with the same API.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// One kernel context's private block of event counters.
///
/// `align(128)` keeps each shard on its own cache line pair (two lines
/// covers adjacent-line prefetchers), so two KCs bumping their own shards
/// never false-share. The fields are atomics only so the aggregator may read
/// them concurrently; each counter has exactly one writer (the registering
/// thread), which lets `StatsShard::bump` use a load+store instead of an
/// interlocked read-modify-write.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct StatsShard {
    /// User-level context switches, all kinds (couple, decouple, yield,
    /// dispatch — Table V counts four per couple+decouple pair).
    pub context_switches: AtomicU64,
    /// Emulated TLS-register reloads on UC-to-UC switches (§V-B).
    pub tls_loads: AtomicU64,
    /// `couple()` transitions — ULT back to KLT.
    pub couples: AtomicU64,
    /// `decouple()` transitions — KLT to ULT.
    pub decouples: AtomicU64,
    /// Direct UC-to-UC yield switches.
    pub yields: AtomicU64,
    /// BLTs spawned (each starts as a kernel-level thread).
    pub blts_spawned: AtomicU64,
    /// Sibling UCs spawned (the M:N extension).
    pub siblings_spawned: AtomicU64,
    /// Pooled ULPs spawned (oversubscription mode: own kernel identity,
    /// shared pool KC, recycled stack).
    pub pooled_spawned: AtomicU64,
    /// Decoupled UCs popped and run by scheduler KCs — or dispatched at
    /// home by their own KC's trampoline (`decouple_homes` of them).
    pub scheduler_dispatches: AtomicU64,
    /// Idle kernel contexts that blocked on a futex (BLOCKING idle policy).
    pub kc_blocks: AtomicU64,
    /// Couples completed by direct handoff from a decoupling UC (the fast
    /// path that skipped the run queue and the idle-loop futex wake).
    pub couple_handoffs: AtomicU64,
    /// Decouples that stayed home: the UC's own trampoline hosted it
    /// because its last decoupled stretch was shorter than a hand-over.
    pub decouple_homes: AtomicU64,
    /// `yield_now()` calls at home that were the kernel's yield: the UC stayed.
    pub yield_homes: AtomicU64,
    /// Idle periods that spun and were ended by work arriving: a futex
    /// sleep and wake saved (`park.rs`, "The idle decision").
    pub park_spin_hits: AtomicU64,
    /// Idle periods that spun to the deadline and slept anyway: the spin
    /// was wasted CPU.
    pub park_spin_misses: AtomicU64,
    /// Idle passes that took the blocking arm — schedulers, trampolines
    /// and pool KCs alike (`kc_blocks` counts the last two only).
    pub park_sleeps: AtomicU64,
}

/// Single-writer increment: plain load + store, never a `lock` prefix.
/// Sound because only the shard's owning thread writes it; concurrent
/// snapshot readers may observe a value one bump stale, which is fine for
/// diagnostics counters.
#[inline]
fn bump(counter: &AtomicU64) {
    let v = counter.load(Ordering::Relaxed);
    counter.store(v + 1, Ordering::Relaxed);
}

/// Incrementers, named after the field they bump. These are what the switch
/// hot path calls (through the cached per-thread shard pointer).
impl StatsShard {
    /// Count one user-level context switch.
    #[inline]
    pub fn bump_context_switches(&self) {
        bump(&self.context_switches);
    }
    /// Count one emulated TLS-register reload.
    #[inline]
    pub fn bump_tls_loads(&self) {
        bump(&self.tls_loads);
    }
    /// Count one `couple()` transition.
    #[inline]
    pub fn bump_couples(&self) {
        bump(&self.couples);
    }
    /// Count one `decouple()` transition.
    #[inline]
    pub fn bump_decouples(&self) {
        bump(&self.decouples);
    }
    /// Count one UC-to-UC yield.
    #[inline]
    pub fn bump_yields(&self) {
        bump(&self.yields);
    }
    /// Count one BLT spawn.
    #[inline]
    pub fn bump_blts(&self) {
        bump(&self.blts_spawned);
    }
    /// Count one sibling-UC spawn.
    #[inline]
    pub fn bump_siblings(&self) {
        bump(&self.siblings_spawned);
    }
    /// Count one pooled-ULP spawn.
    #[inline]
    pub fn bump_pooled(&self) {
        bump(&self.pooled_spawned);
    }
    /// Count one scheduler dispatch of a decoupled UC.
    #[inline]
    pub fn bump_dispatches(&self) {
        bump(&self.scheduler_dispatches);
    }
    /// Count one kernel context blocking idle.
    #[inline]
    pub fn bump_kc_blocks(&self) {
        bump(&self.kc_blocks);
    }
    /// Count one direct-handoff couple completion.
    #[inline]
    pub fn bump_couple_handoffs(&self) {
        bump(&self.couple_handoffs);
    }
    /// Count one decouple that stayed home.
    #[inline]
    pub fn bump_decouple_homes(&self) {
        bump(&self.decouple_homes);
    }
    /// Count one `yield_now()` at home that was the kernel's yield.
    #[inline]
    pub fn bump_yield_homes(&self) {
        bump(&self.yield_homes);
    }
    /// Count one idle period whose spin was ended by work.
    #[inline]
    pub fn bump_park_spin_hits(&self) {
        bump(&self.park_spin_hits);
    }
    /// Count one idle period whose spin ran out and slept.
    #[inline]
    pub fn bump_park_spin_misses(&self) {
        bump(&self.park_spin_misses);
    }
    /// Count one idle pass through the blocking arm.
    #[inline]
    pub fn bump_park_sleeps(&self) {
        bump(&self.park_sleeps);
    }

    /// Fold this shard into an accumulating snapshot.
    fn add_into(&self, acc: &mut StatsSnapshot) {
        acc.context_switches += self.context_switches.load(Ordering::Relaxed);
        acc.tls_loads += self.tls_loads.load(Ordering::Relaxed);
        acc.couples += self.couples.load(Ordering::Relaxed);
        acc.decouples += self.decouples.load(Ordering::Relaxed);
        acc.yields += self.yields.load(Ordering::Relaxed);
        acc.blts_spawned += self.blts_spawned.load(Ordering::Relaxed);
        acc.siblings_spawned += self.siblings_spawned.load(Ordering::Relaxed);
        acc.pooled_spawned += self.pooled_spawned.load(Ordering::Relaxed);
        acc.scheduler_dispatches += self.scheduler_dispatches.load(Ordering::Relaxed);
        acc.kc_blocks += self.kc_blocks.load(Ordering::Relaxed);
        acc.couple_handoffs += self.couple_handoffs.load(Ordering::Relaxed);
        acc.decouple_homes += self.decouple_homes.load(Ordering::Relaxed);
        acc.yield_homes += self.yield_homes.load(Ordering::Relaxed);
        acc.park_spin_hits += self.park_spin_hits.load(Ordering::Relaxed);
        acc.park_spin_misses += self.park_spin_misses.load(Ordering::Relaxed);
        acc.park_sleeps += self.park_sleeps.load(Ordering::Relaxed);
    }
}

/// Aggregated runtime event counters (diagnostics only).
///
/// Writers go through per-KC shards (see [`Stats::register_shard`]); the
/// legacy `bump_*` methods on `Stats` itself hit a shared fallback shard and
/// remain for callers without a registered shard.
#[derive(Debug, Default)]
pub struct Stats {
    /// Catch-all shard for threads that never registered one. Unlike the
    /// per-KC shards this one can have multiple writers, but the callers
    /// are cold paths where an extra stale count is acceptable — hot paths
    /// always go through a registered shard.
    fallback: StatsShard,
    /// Every shard ever registered. Shards are kept for the lifetime of the
    /// `Stats` (a terminated KC's counts must stay visible), so this only
    /// grows — by one small allocation per KC.
    shards: Mutex<Vec<Arc<StatsShard>>>,
}

impl Stats {
    /// Hand out a fresh private shard; the caller caches the `Arc` (and
    /// typically a raw pointer to it) and bumps it without synchronization.
    ///
    /// Shards are per *kernel context* (OS thread), never per BLT: the
    /// seed-era runtime spawned one KC per BLT, which made the two
    /// indistinguishable, but under the pooled design thousands of ULPs
    /// share a handful of KCs and a shard per ULP would both bloat this
    /// registry (it grows forever by design) and break the single-writer
    /// increment contract. `crate::current::set_runtime` enforces this by
    /// registering at most one shard per OS thread per runtime; see
    /// [`Stats::shard_count`] for the observable invariant.
    pub fn register_shard(&self) -> Arc<StatsShard> {
        let shard = Arc::new(StatsShard::default());
        self.shards.lock().push(shard.clone());
        shard
    }

    /// Number of registered per-KC shards. Scales with kernel contexts
    /// (threads), *not* with spawned ULPs — the regression guard for the
    /// KC-id == BLT-id assumption the pooled runtime broke.
    pub fn shard_count(&self) -> usize {
        self.shards.lock().len()
    }

    /// Count one context switch on the fallback shard.
    #[inline]
    pub fn bump_context_switches(&self) {
        self.fallback.bump_context_switches();
    }
    /// Count one TLS reload on the fallback shard.
    #[inline]
    pub fn bump_tls_loads(&self) {
        self.fallback.bump_tls_loads();
    }
    /// Count one `couple()` on the fallback shard.
    #[inline]
    pub fn bump_couples(&self) {
        self.fallback.bump_couples();
    }
    /// Count one `decouple()` on the fallback shard.
    #[inline]
    pub fn bump_decouples(&self) {
        self.fallback.bump_decouples();
    }
    /// Count one yield on the fallback shard.
    #[inline]
    pub fn bump_yields(&self) {
        self.fallback.bump_yields();
    }
    /// Count one BLT spawn on the fallback shard.
    #[inline]
    pub fn bump_blts(&self) {
        self.fallback.bump_blts();
    }
    /// Count one sibling spawn on the fallback shard.
    #[inline]
    pub fn bump_siblings(&self) {
        self.fallback.bump_siblings();
    }
    /// Count one pooled-ULP spawn on the fallback shard.
    #[inline]
    pub fn bump_pooled(&self) {
        self.fallback.bump_pooled();
    }
    /// Count one dispatch on the fallback shard.
    #[inline]
    pub fn bump_dispatches(&self) {
        self.fallback.bump_dispatches();
    }
    /// Count one KC idle-block on the fallback shard.
    #[inline]
    pub fn bump_kc_blocks(&self) {
        self.fallback.bump_kc_blocks();
    }
    /// Count one direct-handoff couple on the fallback shard.
    #[inline]
    pub fn bump_couple_handoffs(&self) {
        self.fallback.bump_couple_handoffs();
    }

    /// Point-in-time snapshot for reporting: the fallback shard plus every
    /// registered per-KC shard, summed. Not atomic across counters (each
    /// counter is read individually), which diagnostics tolerate; quiescent
    /// reads (the usual case in tests: snapshot while the scenario's BLTs
    /// are parked or joined) are exact.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut acc = StatsSnapshot::default();
        self.fallback.add_into(&mut acc);
        for shard in self.shards.lock().iter() {
            shard.add_into(&mut acc);
        }
        acc
    }
}

/// Plain-data snapshot of [`Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// User-level context switches, all kinds.
    pub context_switches: u64,
    /// Emulated TLS-register reloads on UC-to-UC switches.
    pub tls_loads: u64,
    /// `couple()` transitions (ULT back to KLT).
    pub couples: u64,
    /// `decouple()` transitions (KLT to ULT).
    pub decouples: u64,
    /// Direct UC-to-UC yield switches.
    pub yields: u64,
    /// BLTs spawned.
    pub blts_spawned: u64,
    /// Sibling UCs spawned (M:N extension).
    pub siblings_spawned: u64,
    /// Pooled ULPs spawned (oversubscription mode).
    pub pooled_spawned: u64,
    /// Decoupled UCs dispatched by scheduler KCs.
    pub scheduler_dispatches: u64,
    /// Idle kernel contexts that blocked on a futex.
    pub kc_blocks: u64,
    /// Couples completed by direct handoff (fast path).
    pub couple_handoffs: u64,
    /// Decouples that stayed home, hosted by the UC's own trampoline.
    pub decouple_homes: u64,
    /// `yield_now()` calls at home that were the kernel's yield.
    pub yield_homes: u64,
    /// Idle periods whose spin was ended by work arriving (a sleep saved).
    pub park_spin_hits: u64,
    /// Idle periods whose spin ran to the deadline and slept (CPU wasted).
    pub park_spin_misses: u64,
    /// Idle passes through the blocking arm, every kind of KC.
    pub park_sleeps: u64,
}

impl StatsSnapshot {
    /// Difference against an earlier snapshot (for per-scenario accounting).
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            context_switches: self.context_switches - earlier.context_switches,
            tls_loads: self.tls_loads - earlier.tls_loads,
            couples: self.couples - earlier.couples,
            decouples: self.decouples - earlier.decouples,
            yields: self.yields - earlier.yields,
            blts_spawned: self.blts_spawned - earlier.blts_spawned,
            siblings_spawned: self.siblings_spawned - earlier.siblings_spawned,
            pooled_spawned: self.pooled_spawned - earlier.pooled_spawned,
            scheduler_dispatches: self.scheduler_dispatches - earlier.scheduler_dispatches,
            kc_blocks: self.kc_blocks - earlier.kc_blocks,
            couple_handoffs: self.couple_handoffs - earlier.couple_handoffs,
            decouple_homes: self.decouple_homes - earlier.decouple_homes,
            yield_homes: self.yield_homes - earlier.yield_homes,
            park_spin_hits: self.park_spin_hits - earlier.park_spin_hits,
            park_spin_misses: self.park_spin_misses - earlier.park_spin_misses,
            park_sleeps: self.park_sleeps - earlier.park_sleeps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = Stats::default();
        s.bump_couples();
        s.bump_couples();
        s.bump_tls_loads();
        let snap = s.snapshot();
        assert_eq!(snap.couples, 2);
        assert_eq!(snap.tls_loads, 1);
        assert_eq!(snap.decouples, 0);
    }

    #[test]
    fn delta_subtracts() {
        let s = Stats::default();
        s.bump_yields();
        let a = s.snapshot();
        s.bump_yields();
        s.bump_yields();
        let b = s.snapshot();
        assert_eq!(b.delta(&a).yields, 2);
    }

    #[test]
    fn shards_fold_into_snapshot() {
        let s = Stats::default();
        let shard_a = s.register_shard();
        let shard_b = s.register_shard();
        shard_a.bump_context_switches();
        shard_a.bump_context_switches();
        shard_b.bump_context_switches();
        s.bump_context_switches(); // fallback
        shard_b.bump_tls_loads();
        let snap = s.snapshot();
        assert_eq!(snap.context_switches, 4);
        assert_eq!(snap.tls_loads, 1);
    }

    #[test]
    fn shard_counts_survive_owner_drop() {
        let s = Stats::default();
        let shard = s.register_shard();
        shard.bump_yields();
        drop(shard); // KC exits; its Arc goes away but the registry's stays
        assert_eq!(s.snapshot().yields, 1);
    }

    #[test]
    fn pooled_counter_folds_and_deltas() {
        let s = Stats::default();
        let shard = s.register_shard();
        s.bump_pooled(); // fallback
        shard.bump_pooled();
        let a = s.snapshot();
        assert_eq!(a.pooled_spawned, 2);
        shard.bump_pooled();
        assert_eq!(s.snapshot().delta(&a).pooled_spawned, 1);
    }

    #[test]
    fn shard_count_tracks_registrations_only() {
        let s = Stats::default();
        assert_eq!(s.shard_count(), 0);
        let _a = s.register_shard();
        let _b = s.register_shard();
        assert_eq!(s.shard_count(), 2);
        // Fallback bumps (what per-ULP spawn accounting uses) never
        // register shards.
        for _ in 0..100 {
            s.bump_pooled();
        }
        assert_eq!(s.shard_count(), 2);
    }

    #[test]
    fn shard_is_cache_line_isolated() {
        assert!(std::mem::align_of::<StatsShard>() >= 128);
        assert!(std::mem::size_of::<StatsShard>() >= 128);
    }

    #[test]
    fn concurrent_shard_writers_do_not_interfere() {
        let s = Arc::new(Stats::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let shard = s.register_shard();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    shard.bump_yields();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Each shard is single-writer, so no increments may be lost.
        assert_eq!(s.snapshot().yields, 40_000);
    }
}
