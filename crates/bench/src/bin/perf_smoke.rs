//! CI perf smoke: structural properties of the runtime, judged by ratios and
//! counts taken from this run on this host (each gate is described where it
//! is taken, below). Nothing here compares against a committed number, so no
//! gate can rot with the host; speed itself is judged by `ulpbench`, parent
//! against change. Exit code 1 if a gate fails.

use std::time::Duration;
use ulp_bench::workloads;
use ulp_core::{IdlePolicy, Runtime};

/// Rounds of the handoff ping-pong.
const HANDOFF_ROUNDS: usize = 4_000;
/// Yields (and bare switches) per measurement of the yield ÷ switch gate,
/// and the fresh runtimes / fibers the best is taken over.
const YIELD_ITERS: usize = 20_000;
const YIELD_INSTANCES: usize = 8;
/// Ceiling on 2-ULP yield ns ÷ bare context-switch ns of the same run.
const MAX_YIELD_OVER_SWITCH: f64 = 4.5;

/// BLTs and window of the couple-loop gates, the ceiling on KC futex blocks
/// per scope under `Adaptive` (≈ 0.01) and the floor under `Blocking` (≈ 1),
/// and the floor on decouples that stay home under `Adaptive` (≈ 0.99).
const COUPLE_LOOP_BLTS: usize = 4;
const COUPLE_LOOP_WINDOW: Duration = Duration::from_millis(150);
const MAX_ADAPTIVE_KC_BLOCKS: f64 = 0.05;
const MIN_BLOCKING_KC_BLOCKS: f64 = 0.5;
const MIN_ADAPTIVE_HOME_RATIO: f64 = 0.9;
/// Tolerance on the paper's policies' switches and TLS loads per round trip
/// (exactly Table V's 4 and 2 but for a few start-up and exit switches), and
/// the ceiling on either per round trip that stays home (0 but for the
/// `Requeue`s of stalled stretches; 4 and 2 with the trampoline detour).
const TABLE_V_SLACK: f64 = 0.01;
const MAX_HOME_TRIP_COST: f64 = 0.1;

/// Scopes per UC of the sibling-orbit gate, and the ceiling on KC futex
/// blocks per couple (≈ 0.0002 with `Adaptive`'s spin arm, ≈ 0.5 without).
const ORBIT_SCOPES: usize = 20_000;
const MAX_ORBIT_KC_BLOCKS: f64 = 0.05;

/// Clients and requests per client of the request/reply gates, the ceiling
/// on trampoline futex blocks per request (≈ 0.95 when every `decouple()`
/// wakes the sleeping scheduler, ≈ 0.01 when it stays home) and the ceiling
/// on kernel futex sleeps per request (≈ 2 when every blocked `read`
/// sleeps, ≈ 0.001 when the short ones spin).
const RR_CLIENTS: usize = 4;
const RR_REQUESTS: usize = 2_000;
const MAX_RR_KC_BLOCKS: f64 = 0.1;
const MAX_RR_KERNEL_SLEEPS: f64 = 0.1;

/// Pooled ULPs the churn gate spawns, the wave they are reaped in (so the
/// stack free list's high-water mark is bounded by it), and the pool KCs.
const CHURN_ULPS: usize = 100_000;
const CHURN_WAVE: usize = 4096;
const POOL_KCS: usize = 4;
/// Structural RSS ceiling for the churn (MiB): generous over the ~10 MiB
/// a recycling pool needs, far under the gigabytes a leak produces.
const CHURN_RSS_CEILING_MIB: f64 = 512.0;
/// Ceiling on slots the scavenger trimmed ÷ ULPs churned.
const CHURN_TRIM_CEILING: f64 = 0.25;

/// Draws of the `syscall_mix` op mix per thread and measurement, and the
/// private-counter increments that take about as long.
const MIX_ENTRIES: usize = 400_000;
const HOST_SPINS: u64 = 40_000_000;
/// Host two-thread scaling below which a round cannot judge anything.
const MIN_HOST_SCALING: f64 = 1.5;
/// Floor on `syscall_mix` scaling ÷ host scaling of the same round.
const MIN_MIX_OVER_HOST: f64 = 0.75;

fn main() {
    let mut failed = false;
    let mut gate = |ok: bool, line: String| {
        println!("perf-smoke: {} {line}", if ok { "ok" } else { "FAIL" });
        failed |= !ok;
    };

    // Direct handoff: the deterministic couple ping-pong must hand off on
    // nearly every decouple, by the runtime's own counters.
    let (hit_rate, switches) = workloads::couple_handoff(IdlePolicy::BusyWait, HANDOFF_ROUNDS);
    gate(
        hit_rate > 0.9,
        format!(
            "handoff hit rate: {hit_rate:.4} (floor 0.9; {switches:.2} switches per round trip)"
        ),
    );

    // The run queue against the switch it wraps: a 2-ULP yield (one locked
    // pop, one locked push, the switch, the bookkeeping) against the bare
    // `fcontext` switch, the best of eight fresh runtimes and fibers each
    // (one instance reads up to 25 % over the floor by where its memory
    // landed). Both scale with the host's clock, so the ratio is what the
    // yield path adds: 2.4–3.7 here, ≈ 6 with the eventcount and two-RMW
    // lock PR 15 removed — the class of change the ceiling is for. One
    // unconditional futex-word bump on the push path is +4 ns (≈ 3.4), under
    // this host's noise; `version_moves_only_for_a_sleeper_or_wake_all` in
    // `runqueue.rs` catches that one by counting.
    let (mut yield_ns, mut switch_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..YIELD_INSTANCES {
        let builder = Runtime::builder().idle_policy(IdlePolicy::BusyWait);
        yield_ns = yield_ns.min(workloads::ulp_yield_ns(builder, YIELD_ITERS));
        switch_ns = switch_ns.min(workloads::ctx_switch_ns(YIELD_ITERS));
    }
    let ratio = yield_ns / switch_ns;
    gate(
        ratio <= MAX_YIELD_OVER_SWITCH,
        format!("yield {yield_ns:.1} ns ÷ context switch {switch_ns:.1} ns = {ratio:.2} (ceiling {MAX_YIELD_OVER_SWITCH})"),
    );

    // The idle decision against the policy it replaced as the default: four
    // BLTs in a `scope; yield_now()` loop keep their KCs awake under
    // `Adaptive`, where `Blocking` pays a futex sleep and an OS-thread wake
    // per `couple()`. Judged by the sleeps the runtime counted — what they
    // cost is the host's mood (a wake is ≈ 2 µs in some minutes and ≈ 40 µs
    // in others), so the throughput ratio is only shown.
    let run = |policy| workloads::couple_loop(policy, COUPLE_LOOP_BLTS, COUPLE_LOOP_WINDOW);
    let (adaptive, a) = run(IdlePolicy::Adaptive);
    let (blocking, b) = run(IdlePolicy::Blocking);
    let (busywait, w) = run(IdlePolicy::BusyWait);
    let adaptive_blocks = a.kc_blocks as f64 / a.couples as f64;
    let blocking_blocks = b.kc_blocks as f64 / b.couples as f64;
    gate(
        adaptive_blocks < MAX_ADAPTIVE_KC_BLOCKS && blocking_blocks > MIN_BLOCKING_KC_BLOCKS,
        format!(
            "couple loop KC blocks per op: Adaptive {adaptive_blocks:.3} (ceiling {MAX_ADAPTIVE_KC_BLOCKS}), Blocking {blocking_blocks:.3} (floor {MIN_BLOCKING_KC_BLOCKS}); {adaptive:.0}/s ÷ {blocking:.0}/s = {:.2}",
            adaptive / blocking
        ),
    );
    // The same loops, by who hosted the stretches: these come straight back,
    // so under `Adaptive` they stay on their own KCs whoever is awake, and
    // the paper's two policies hand every one of them to a scheduler.
    let home_ratio = a.decouple_homes as f64 / a.decouples as f64;
    gate(
        home_ratio >= MIN_ADAPTIVE_HOME_RATIO && (b.decouple_homes, w.decouple_homes) == (0, 0),
        format!(
            "couple loop decouples that stayed home: Adaptive {home_ratio:.3} (floor {MIN_ADAPTIVE_HOME_RATIO}), Blocking {} and BusyWait {} (exactly 0; BusyWait {busywait:.0}/s)",
            b.decouple_homes, w.decouple_homes
        ),
    );

    // What one round trip consisted of, by the same counters, leaving out the
    // yields (one switch and one TLS load each, on a scheduler): the paper's
    // policies pay Table V's 4 switches and 2 TLS loads for every one, and a
    // round trip that stays home is a flag flipped on the UC's own thread —
    // what is left once each decouple that left is charged Table V's.
    let home_trip = |d: &ulp_core::StatsSnapshot| {
        let left = (d.decouples - d.decouple_homes) as f64;
        let homes = d.decouple_homes.max(1) as f64;
        let per = |n: u64, table_v: f64| ((n - d.yields) as f64 - table_v * left) / homes;
        (per(d.context_switches, 4.0), per(d.tls_loads, 2.0))
    };
    let trip = |d: &ulp_core::StatsSnapshot| {
        let per = |n: u64| (n - d.yields) as f64 / d.decouples as f64;
        (per(d.context_switches), per(d.tls_loads))
    };
    let (home_sw, home_tls) = home_trip(&a);
    let paper = [trip(&b), trip(&w)];
    gate(
        home_sw <= MAX_HOME_TRIP_COST
            && home_tls <= MAX_HOME_TRIP_COST
            && paper.iter().all(|(sw, tls)| {
                (sw - 4.0).abs() <= TABLE_V_SLACK && (tls - 2.0).abs() <= TABLE_V_SLACK
            }),
        format!(
            "couple loop switches + TLS loads per round trip: Adaptive at home {home_sw:.3} + {home_tls:.3} (ceiling {MAX_HOME_TRIP_COST}), Blocking {:.3} + {:.3} and BusyWait {:.3} + {:.3} (4 + 2 ± {TABLE_V_SLACK})",
            paper[0].0, paper[0].1, paper[1].0, paper[1].1
        ),
    );

    // The hand-over regime the loops above stay out of: a primary and its
    // sibling share a KC, so neither stays home, and under `Adaptive` the
    // trampoline and the scheduler spin for each other's short waits — the
    // one place the spin arm shows, since no gated workload hands over.
    let orbit = {
        let rt = Runtime::new();
        ulp_core::sibling_orbit(&rt, ORBIT_SCOPES);
        rt.stats().snapshot()
    };
    let orbit_blocks = orbit.kc_blocks as f64 / orbit.couples as f64;
    gate(
        orbit_blocks <= MAX_ORBIT_KC_BLOCKS,
        format!(
            "sibling orbit KC blocks per couple: {orbit_blocks:.4} (ceiling {MAX_ORBIT_KC_BLOCKS}; {} couples)",
            orbit.couples
        ),
    );

    // Staying home: when every scope sleeps in the kernel the scheduler
    // sleeps too, and a `decouple()` that left for it would pay an OS-thread
    // wake-up there and another — the KC having gone idle behind it — on the
    // way back. By the runtime's own counters the KCs must hardly ever sleep.
    let (blocks, kernel_sleeps) = workloads::request_reply_sleeps(RR_CLIENTS, RR_REQUESTS);
    gate(
        blocks < MAX_RR_KC_BLOCKS,
        format!("request/reply KC blocks per request: {blocks:.3} (ceiling {MAX_RR_KC_BLOCKS}; {RR_CLIENTS} clients over socketpairs)"),
    );
    // The kernel's wait decision on the same run: each blocked `read` waits
    // out one hand-over to the peer, a few µs, so the queues' last waits are
    // short and the waits spin instead of sleeping. By the kernel's own
    // counters the readers must hardly ever sleep on their queue's word.
    gate(
        kernel_sleeps <= MAX_RR_KERNEL_SLEEPS,
        format!("request/reply kernel sleeps per request: {kernel_sleeps:.3} (ceiling {MAX_RR_KERNEL_SLEEPS})"),
    );

    // Pooled churn: RSS must track the wave, not the ULPs ever spawned (a
    // broken stack free list turns ~10 MiB into gigabytes), and stacks must
    // be recycled.
    let churn = workloads::pooled_churn(CHURN_ULPS, CHURN_WAVE, POOL_KCS);
    gate(
        churn.peak_rss_mib < CHURN_RSS_CEILING_MIB,
        format!(
            "pooled churn peak RSS: {:.1} MiB (ceiling {CHURN_RSS_CEILING_MIB:.0}; {:.0} ULPs/s)",
            churn.peak_rss_mib, churn.spawn_per_sec
        ),
    );
    gate(
        churn.stack_recycled > 0 && churn.stack_peak < CHURN_ULPS,
        format!(
            "pooled churn stacks: peak {} recycled {}",
            churn.stack_peak, churn.stack_recycled
        ),
    );
    // A busy churn cycles its free list warm, so the scavenger may `madvise`
    // only the slots a subsiding wave leaves idle — a small fraction of the
    // lifecycles (1.0 when every release trimmed).
    let trim_ratio = churn.stack_trimmed as f64 / CHURN_ULPS as f64;
    gate(
        trim_ratio <= CHURN_TRIM_CEILING,
        format!(
            "pooled churn slots trimmed per ULP: {trim_ratio:.3} (ceiling {CHURN_TRIM_CEILING}), {} warm at end",
            churn.stack_warm
        ),
    );

    // Structure, not timing: no nanosecond thresholds, just "the attribution
    // layer is alive" — nonzero `sock_read` edges, sanely ordered.
    let wake = workloads::wake_to_run_snapshot(4, 64);
    let sock_read = *wake.get("sock_read").expect("sock_read is a wake site");
    let (p50, p99) = (sock_read.p50(), sock_read.p99());
    gate(
        wake.total_sum() > 0 && sock_read.count > 0 && p50.is_finite() && p99 >= p50,
        format!(
            "wake-to-run sock_read: p50 {p50:.1} ns p99 {p99:.1} ns ({} edges, {} total across sites)",
            sock_read.count,
            wake.total_count()
        ),
    );

    // Syscall-path scaling: the `syscall_mix` op mix on two bare bound threads
    // sharing no object, ÷ one such thread, against what two threads spinning
    // private counters ÷ one reach in the same round — the scaling the host
    // had to give at that moment, so a neighbour holding the second CPU
    // cannot fail the gate. Two unrelated processes' file calls serialising
    // on a filesystem-wide lock read 0.65 against a host 2.0, and do so in
    // every round, so the verdict is the best mix ÷ host among the rounds in
    // which the host itself scaled enough to judge; `skip` if none did.
    let rounds: Vec<(f64, f64)> = (0..3)
        .map(|_| {
            let host1 = workloads::private_counter_rate(1, HOST_SPINS);
            let mix1 = workloads::syscall_mix_calls_per_sec(1, MIX_ENTRIES);
            let host2 = workloads::private_counter_rate(2, HOST_SPINS);
            let mix2 = workloads::syscall_mix_calls_per_sec(2, MIX_ENTRIES);
            (host2 / host1, mix2 / mix1)
        })
        .collect();
    let shown: Vec<String> = rounds
        .iter()
        .map(|(host, mix)| format!("{mix:.2} vs host {host:.2}"))
        .collect();
    let best = rounds
        .iter()
        .filter(|(host, _)| *host >= MIN_HOST_SCALING)
        .map(|(host, mix)| mix / host)
        .reduce(f64::max);
    match best {
        None => println!(
            "perf-smoke: skip syscall_mix scaling: two spinning threads ÷ one never reached {MIN_HOST_SCALING} on this host; 2 threads ÷ 1 per round: {}",
            shown.join(", ")
        ),
        Some(relative) => gate(
            relative >= MIN_MIX_OVER_HOST,
            format!(
                "syscall_mix scaling ÷ host scaling: {relative:.2} (floor {MIN_MIX_OVER_HOST}); 2 threads ÷ 1 per round: {}",
                shown.join(", ")
            ),
        ),
    }

    if failed {
        eprintln!("perf-smoke: a structural gate FAILED");
        std::process::exit(1);
    }
    println!("perf-smoke: all gates passed");
}
