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

/// Single-writer increment: plain load + store, never a `lock` prefix.
/// Sound because only the shard's owning thread writes it; concurrent
/// snapshot readers may observe a value one bump stale, which is fine for
/// diagnostics counters.
#[inline]
fn bump(counter: &AtomicU64) {
    let v = counter.load(Ordering::Relaxed);
    counter.store(v + 1, Ordering::Relaxed);
}

/// One row of the counter table as the exporters see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// The [`StatsSnapshot`] field, which is also the `/proc/ulp/stat` name.
    pub name: &'static str,
    /// The Prometheus series: a family name, with its label when several
    /// rows share one family.
    pub series: &'static str,
    /// The family's `# HELP` text; empty on a row that continues the family
    /// of the row above it.
    pub help: &'static str,
    /// The counter's value in this snapshot.
    pub value: u64,
}

/// Declare the runtime's counters once: each `field, bump_fn => "series":
/// "help"` row becomes a [`StatsShard`] atomic with its incrementer, a
/// [`StatsSnapshot`] field that `add_into` folds and `delta` subtracts, and a
/// [`Counter`] that `/metrics` and `/proc/ulp/stat` render — so a counter
/// cannot reach one of them and miss another.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident, $bump:ident => $series:literal: $help:literal,)+) => {
        /// One kernel context's private block of event counters.
        ///
        /// `align(128)` keeps each shard on its own cache line pair (two lines
        /// covers adjacent-line prefetchers), so two KCs bumping their own
        /// shards never false-share. The fields are atomics only so the
        /// aggregator may read them concurrently; each counter has exactly one
        /// writer (the registering thread), which lets the `bump_*`
        /// incrementers — what the switch hot path calls, through the cached
        /// per-thread shard pointer — use a load+store instead of an
        /// interlocked read-modify-write.
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub struct StatsShard {
            $($(#[$doc])* pub $field: AtomicU64,)+
        }

        impl StatsShard {
            $(
                #[doc = concat!("Count one `", stringify!($field), "` event.")]
                #[inline]
                pub fn $bump(&self) {
                    bump(&self.$field);
                }
            )+

            /// Fold this shard into an accumulating snapshot.
            fn add_into(&self, acc: &mut StatsSnapshot) {
                $(acc.$field += self.$field.load(Ordering::Relaxed);)+
            }
        }

        /// Plain-data snapshot of [`Stats`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl StatsSnapshot {
            /// Difference against an earlier snapshot (for per-scenario accounting).
            pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($field: self.$field - earlier.$field,)+
                }
            }

            /// Every counter with its names and help text, in declaration order.
            pub fn counters(&self) -> impl Iterator<Item = Counter> {
                [$(Counter {
                    name: stringify!($field),
                    series: $series,
                    help: $help,
                    value: self.$field,
                },)+]
                .into_iter()
            }
        }
    };
}

counters! {
    /// User-level context switches, all kinds (couple, decouple, yield,
    /// dispatch — Table V counts four per couple+decouple pair).
    context_switches, bump_context_switches => "ulp_context_switches_total":
        "User-level context switches (all kinds).",
    /// Emulated TLS-register reloads on UC-to-UC switches (§V-B).
    tls_loads, bump_tls_loads => "ulp_tls_loads_total":
        "Emulated TLS-register reloads on UC-to-UC switches.",
    /// `couple()` transitions — ULT back to KLT.
    couples, bump_couples => "ulp_couples_total":
        "couple() transitions (ULT back to KLT).",
    /// `decouple()` transitions — KLT to ULT.
    decouples, bump_decouples => "ulp_decouples_total":
        "decouple() transitions (KLT to ULT).",
    /// Direct UC-to-UC yield switches.
    yields, bump_yields => "ulp_yields_total":
        "Direct UC-to-UC yield switches.",
    /// BLTs spawned (each starts as a kernel-level thread).
    blts_spawned, bump_blts => "ulp_blts_spawned_total":
        "BLTs spawned.",
    /// Sibling UCs spawned (the M:N extension).
    siblings_spawned, bump_siblings => "ulp_siblings_spawned_total":
        "Sibling UCs spawned (M:N extension).",
    /// Pooled ULPs spawned (oversubscription mode: own kernel identity,
    /// shared pool KC, recycled stack).
    pooled_spawned, bump_pooled => "ulp_pooled_spawned_total":
        "Pooled ULPs spawned (oversubscription mode: shared pool KCs).",
    /// Decoupled UCs popped and run by scheduler KCs — or kept at home by
    /// their own KC (`decouple_homes` of them).
    scheduler_dispatches, bump_dispatches => "ulp_scheduler_dispatches_total":
        "Decoupled UCs dispatched by scheduler KCs, or kept at home by their own KC.",
    /// Idle kernel contexts that blocked on a futex (BLOCKING idle policy).
    kc_blocks, bump_kc_blocks => "ulp_kc_blocks_total":
        "Idle kernel contexts that blocked on a futex.",
    /// Couples completed by direct handoff from a decoupling UC (the fast
    /// path that skipped the run queue and the idle-loop futex wake).
    couple_handoffs, bump_couple_handoffs => "ulp_couple_handoff_total":
        "Couples completed by direct handoff from a decoupling UC (fast path).",
    /// Decouples that stayed home: the UC stayed on its own KC because its
    /// last decoupled stretch was shorter than a hand-over.
    decouple_homes, bump_decouple_homes => "ulp_decouple_home_total":
        "Decouples that stayed home: on the UC's own KC, because its last \
         decoupled stretch was shorter than a hand-over.",
    /// `yield_now()` calls at home that were the kernel's yield: the UC stayed.
    yield_homes, bump_yield_homes => "ulp_yield_home_total":
        "yield_now() calls at home that were the kernel's yield: no Requeue, the UC stayed.",
    /// Idle periods that spun and were ended by work arriving: a futex
    /// sleep and wake saved (`park.rs`, "The idle decision").
    park_spin_hits, bump_park_spin_hits => "ulp_park_total{outcome=\"spin_hit\"}":
        "How idle periods of kernel contexts and joins ended: spin_hit = work arrived \
         while spinning (a sleep saved), spin_miss = the spin ran out and the KC slept anyway \
         (CPU wasted), sleep = every pass through the blocking arm.",
    /// Idle periods that spun to the deadline and slept anyway: the spin
    /// was wasted CPU.
    park_spin_misses, bump_park_spin_misses => "ulp_park_total{outcome=\"spin_miss\"}": "",
    /// Idle passes that took the blocking arm — schedulers, trampolines
    /// and pool KCs alike (`kc_blocks` counts the last two only).
    park_sleeps, bump_park_sleeps => "ulp_park_total{outcome=\"sleep\"}": "",
}

/// Aggregated runtime event counters (diagnostics only).
///
/// Writers go through per-KC shards (see [`Stats::register_shard`]); callers
/// without a registered shard bump the shared [`Stats::fallback`] shard.
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

    /// The shared shard for threads that never registered one (spawn
    /// bookkeeping on the caller's thread, an idle KC's block count).
    #[inline]
    pub fn fallback(&self) -> &StatsShard {
        &self.fallback
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = Stats::default();
        s.fallback().bump_couples();
        s.fallback().bump_couples();
        s.fallback().bump_tls_loads();
        let snap = s.snapshot();
        assert_eq!(snap.couples, 2);
        assert_eq!(snap.tls_loads, 1);
        assert_eq!(snap.decouples, 0);
    }

    #[test]
    fn delta_subtracts() {
        let s = Stats::default();
        s.fallback().bump_yields();
        let a = s.snapshot();
        s.fallback().bump_yields();
        s.fallback().bump_yields();
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
        s.fallback().bump_context_switches(); // fallback
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
        s.fallback().bump_pooled(); // fallback
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
            s.fallback().bump_pooled();
        }
        assert_eq!(s.shard_count(), 2);
    }

    #[test]
    fn shard_is_cache_line_isolated() {
        assert_eq!(std::mem::align_of::<StatsShard>(), 128);
        assert_eq!(std::mem::size_of::<StatsShard>(), 128);
        // The table generates the fields in row order and the compiler keeps
        // them there (the hot counters stay on the first line): word `i` of
        // the shard is counter `i` of the table.
        let shard = StatsShard::default();
        // SAFETY: 128 bytes of `AtomicU64` fields, as just asserted.
        let words = unsafe { &*(&shard as *const StatsShard).cast::<[AtomicU64; 16]>() };
        for (i, w) in words.iter().enumerate() {
            w.store(i as u64 + 1, Ordering::Relaxed);
        }
        let mut snap = StatsSnapshot::default();
        shard.add_into(&mut snap);
        let in_order: Vec<u64> = snap.counters().map(|c| c.value).collect();
        assert_eq!(in_order, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn table_rows_reach_snapshot_delta_and_exporters() {
        let s = Stats::default();
        s.fallback().bump_park_sleeps();
        let zero = StatsSnapshot::default();
        let rows: Vec<Counter> = s.snapshot().delta(&zero).counters().collect();
        assert_eq!(rows.len(), 16);
        assert_eq!(rows[0].name, "context_switches");
        assert_eq!(rows[0].series, "ulp_context_switches_total");
        let last = rows.last().unwrap();
        assert_eq!((last.name, last.value), ("park_sleeps", 1));
        assert_eq!(last.series, "ulp_park_total{outcome=\"sleep\"}");
        // Only a labelled row may leave its help to the row above it.
        assert!(!rows[0].help.is_empty());
        assert!(rows
            .iter()
            .filter(|r| r.help.is_empty())
            .all(|r| r.series.contains('{')));
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
