//! The stack pool's memory contract, end to end: a burst of ULPs leaves its
//! stacks on the free lists *warm* (no `madvise` on the exit path), and once
//! the burst subsides the idle kernel contexts' scavenger passes give every
//! page back — `StackPool::warm()` returns to zero and `VmRSS` to where a
//! pool that trimmed on every release would have left it.
//!
//! Both free-list users are covered: dense slab slots (pooled ULPs) and the
//! owned size classes (sibling stacks). `VmRSS` is process-wide, so the two
//! tests take turns.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use ulp_core::{yield_now, Runtime};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Stack bytes every ULP of a burst dirties.
const DIRTY: usize = 16 * 1024;
/// Longer than two scavenger intervals plus the idle KCs' 50 ms re-park.
const QUIET: Duration = Duration::from_millis(300);

fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line");
    kib / 1024.0
}

/// A burst's rendezvous: every ULP dirties `DIRTY` bytes of the stack it
/// runs on, checks in, and stays alive (yielding) until the host has seen
/// the whole burst live at once and lets it go.
#[derive(Default)]
struct Burst {
    dirtied: AtomicUsize,
    go: AtomicBool,
}

impl Burst {
    fn body(self: &Arc<Self>) -> impl FnOnce() -> i32 + Send + 'static {
        let burst = self.clone();
        move || {
            let mut page = [0u8; DIRTY];
            for (i, b) in page.iter_mut().enumerate().step_by(512) {
                *b = i as u8;
            }
            std::hint::black_box(&mut page);
            burst.dirtied.fetch_add(1, Ordering::AcqRel);
            while !burst.go.load(Ordering::Acquire) {
                yield_now();
            }
            0
        }
    }

    /// Wait until `n` ULPs are live on dirtied stacks, sample `VmRSS`, then
    /// let them all exit.
    fn rss_with_all_live(&self, n: usize) -> f64 {
        while self.dirtied.load(Ordering::Acquire) < n {
            std::thread::sleep(Duration::from_millis(1));
        }
        let rss = rss_mib();
        self.go.store(true, Ordering::Release);
        rss
    }
}

#[test]
fn pooled_burst_gives_its_pages_back_after_a_quiet_period() {
    const BURST: usize = 4096;
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let rt = Runtime::builder().schedulers(1).pool_kcs(1).build();
    // Start the pool KC and fault in the runtime before the baseline.
    assert_eq!(rt.spawn_pooled("warm-up", || 0).unwrap().wait(), 0);
    let before = rss_mib();

    let burst = Arc::new(Burst::default());
    let handles: Vec<_> = (0..BURST)
        .map(|_| rt.spawn_pooled("burst", burst.body()).unwrap())
        .collect();
    let live = burst.rss_with_all_live(BURST);
    for h in handles {
        assert_eq!(h.wait(), 0);
    }
    let pool = rt.stack_pool();
    let (at_wait, warm_at_wait) = (rss_mib(), pool.warm());
    assert_eq!(pool.outstanding(), 0);

    std::thread::sleep(QUIET);
    let after = rss_mib();
    eprintln!(
        "pooled burst: VmRSS {before:.1} -> {live:.1} -> {at_wait:.1} -> {after:.1} MiB, \
         warm {warm_at_wait} -> {}, trimmed {}",
        pool.warm(),
        pool.recycled()
    );
    assert_eq!(pool.warm(), 0, "idle KCs must trim every free stack");
    assert!(live > before + 60.0, "the burst never dirtied its stacks");
    // A pool that `madvise`s on every release ends this burst ~4 MiB above
    // the baseline (handles, process table, the slabs' page tables).
    assert!(
        after < before + 6.0,
        "VmRSS {after:.1} MiB after the quiet period, {before:.1} before the burst"
    );
}

#[test]
fn sibling_burst_gives_its_pages_back_after_a_quiet_period() {
    // The owned size class caches at most 128 stacks; the rest of a larger
    // burst is unmapped on release, as it always was.
    const BURST: usize = 128;
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let rt = Runtime::builder().schedulers(1).pool_kcs(1).build();
    let hub = rt.spawn("hub", || 0);
    let before = rss_mib();

    let burst = Arc::new(Burst::default());
    let sibs: Vec<_> = (0..BURST)
        .map(|_| hub.spawn_sibling("burst", burst.body()).unwrap())
        .collect();
    let live = burst.rss_with_all_live(BURST);
    for s in &sibs {
        assert_eq!(s.wait(), 0);
    }
    assert_eq!(hub.wait(), 0);
    let pool = rt.stack_pool();
    let (at_wait, warm_at_wait) = (rss_mib(), pool.warm());

    std::thread::sleep(QUIET);
    let after = rss_mib();
    eprintln!(
        "sibling burst: VmRSS {before:.1} -> {live:.1} -> {at_wait:.1} -> {after:.1} MiB, \
         warm {warm_at_wait} -> {}, trimmed {}",
        pool.warm(),
        pool.recycled()
    );
    assert_eq!(pool.warm(), 0, "idle KCs must trim every free stack");
    assert!(pool.recycled() >= BURST, "owned stacks were never trimmed");
    // 128 x 16 KiB is too little to compare against a baseline the other
    // test's heap may still be draining from; compare against the burst.
    assert!(
        after < live - 1.5,
        "VmRSS {after:.1} MiB after the quiet period, {live:.1} with the burst live"
    );
}
