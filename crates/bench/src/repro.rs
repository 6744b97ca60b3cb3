//! The paper's evaluation as data: one function per artifact, each emitting
//! [`Row`]s, and the **shape checks** that turn the paper's orderings into
//! the `repro` binary's exit code.
//!
//! A check is a *gate* (its violation fails the run) only where the ordering
//! holds with margin on every host this repo has been measured on; an
//! ordering that depends on how many free CPUs the host has is *advisory*:
//! printed as `deviates (reason)` and never part of the exit status. Which
//! is which was decided from measurements (EXPERIMENTS.md), not by an option.

use crate::baselines;
use crate::report::{pivot, Row, Table};
use crate::workloads::{self, OwcVariant};
use crate::{human_size, BUFFER_SIZES};
use ulp_core::{FutexLock, IdlePolicy, McsLock, RawUlpLock, Runtime, TasLock, TicketLock};
use ulp_kernel::{ArchProfile, IoModel};

/// Iteration scale knob `ULP_BENCH_SCALE`: 1 = quick, 10 = paper-grade.
pub fn scale() -> usize {
    parse_scale(std::env::var("ULP_BENCH_SCALE").ok().as_deref())
}

/// Unset or unparsable reads 1; so does 0, which would otherwise make every
/// iteration count 0 and every per-iteration time a division by zero.
fn parse_scale(var: Option<&str>) -> usize {
    var.and_then(|s| s.trim().parse().ok()).unwrap_or(1).max(1)
}

const PROFILES: [ArchProfile; 3] = [
    ArchProfile::Native,
    ArchProfile::Wallaby,
    ArchProfile::Albireo,
];

const POLICIES: [(&str, IdlePolicy); 3] = [
    ("ULP-PiP BUSYWAIT", IdlePolicy::BusyWait),
    ("ULP-PiP BLOCKING", IdlePolicy::Blocking),
    ("ULP-PiP ADAPTIVE", IdlePolicy::Adaptive),
];

const FIG_VARIANTS: [OwcVariant; 5] = [
    OwcVariant::Plain,
    OwcVariant::AioReturn,
    OwcVariant::AioSuspend,
    OwcVariant::Ulp(IdlePolicy::BusyWait),
    OwcVariant::Ulp(IdlePolicy::Blocking),
];

/// A row of the artifact being measured; [`measure`] stamps `artifact`.
fn row(
    series: &str,
    profile: &str,
    x: &str,
    (metric, value, unit): (&'static str, f64, &'static str),
) -> Row {
    Row {
        artifact: "",
        series: series.into(),
        profile: profile.into(),
        x: x.into(),
        metric,
        value,
        unit,
    }
}

fn time_ns(ns: f64) -> (&'static str, f64, &'static str) {
    ("time", ns, "ns")
}

fn ratio(metric: &'static str, value: f64) -> (&'static str, f64, &'static str) {
    (metric, value, "ratio")
}

/// What the runtime's counters say one couple()/decouple() pair consisted of.
fn per_pair(d: &ulp_core::StatsSnapshot) -> [(&'static str, f64, &'static str); 3] {
    let per = |n: u64| n as f64 / d.couples as f64;
    [
        ("switches_per_op", per(d.context_switches), "1/op"),
        ("tls_loads_per_op", per(d.tls_loads), "1/op"),
        ("kc_blocks_per_op", per(d.kc_blocks), "1/op"),
    ]
}

/// Table III — context switch and TLS-register load.
fn table3() -> Vec<Row> {
    let iters = 20_000 * scale();
    let ctx = workloads::ctx_switch_ns(iters);
    let mut rows = vec![row("Context Sw.", "native", "", time_ns(ctx))];
    for p in PROFILES {
        let tls = workloads::tls_load_ns(p, iters);
        rows.push(row("Load TLS", p.name(), "", time_ns(tls)));
    }
    rows
}

const ONE_CORE: &str = "sched_yield() 1 core";

/// Table IV — yielding two ULPs vs `sched_yield`. Where the two-core row's
/// threads could not be pinned to two CPUs (a 1-CPU host), its label says so.
fn table4() -> Vec<Row> {
    let iters = 5_000 * scale();
    let mut rows = Vec::new();
    for p in PROFILES {
        let builder = Runtime::builder()
            .idle_policy(IdlePolicy::BusyWait)
            .profile(p);
        let ns = workloads::ulp_yield_ns(builder, iters);
        rows.push(row("ULP yield", p.name(), "", time_ns(ns)));
    }
    let one = baselines::sched_yield_ns(false, iters).ns_per_yield;
    rows.push(row(ONE_CORE, "host", "", time_ns(one)));
    let two = baselines::sched_yield_ns(true, iters);
    let label = if two.pinned {
        "sched_yield() 2 cores"
    } else {
        "sched_yield() 2 cores (not pinned apart)"
    };
    rows.push(row(label, "host", "", time_ns(two.ns_per_yield)));
    rows
}

/// Table V — `getpid()` plain vs enclosed in couple()/decouple(), with the
/// runtime's own count of what each enclosed call consisted of.
fn table5() -> Vec<Row> {
    let iters = 2_000 * scale();
    let real = baselines::real_getpid_ns(iters);
    let mut rows = vec![row("Linux getpid(2)", "host", "", time_ns(real))];
    for p in PROFILES {
        let plain = workloads::getpid_plain_ns(p, iters);
        rows.push(row("simkernel getpid", p.name(), "", time_ns(plain)));
    }
    for (label, policy) in POLICIES {
        for p in PROFILES {
            let (ns, d) = workloads::getpid_coupled(policy, p, iters / 2);
            let metrics = [time_ns(ns)].into_iter().chain(per_pair(&d));
            rows.extend(metrics.map(|m| row(label, p.name(), "", m)));
        }
    }
    rows
}

/// Figure 7 — slowdown of open-write-close relative to plain system calls,
/// over the write-buffer size sweep, per profile.
fn fig7() -> Vec<Row> {
    let io = IoModel::MEMORY_BANDWIDTH;
    let mut rows = Vec::new();
    for p in PROFILES {
        for &size in &BUFFER_SIZES {
            // 64 per scale step, capped at ~20 MB written per run, never
            // fewer than 4.
            let iters = (64 * scale()).clamp(4, (20_000_000 / size).max(4));
            let x = human_size(size);
            let plain = workloads::owc_ns(OwcVariant::Plain, size, p, io, iters);
            rows.push(row("plain", p.name(), &x, ("time", plain / 1e3, "us")));
            for v in &FIG_VARIANTS[1..] {
                let slowdown = workloads::owc_ns(*v, size, p, io, iters) / plain;
                rows.push(row(v.label(), p.name(), &x, ratio("slowdown", slowdown)));
            }
        }
    }
    rows
}

/// The sizes Figure 8 sweeps: overlap needs operations long enough to hide
/// compute in, so the larger half of [`BUFFER_SIZES`].
const FIG8_SIZES: &[usize] = BUFFER_SIZES.split_at(3).1;

/// Sweep position of Figure 8's summary line: each curve's median over the
/// three largest sizes, which is what the shape gates read — about one cell
/// in twenty-five strays by 10–20 points when a neighbour lands on the host.
const LARGE_MEDIAN: &str = "median of 3 largest";

/// Figure 8 — overlap ratios by the Intel MPI Benchmarks method.
fn fig8() -> Vec<Row> {
    let io = IoModel::MEMORY_BANDWIDTH;
    let mut rows = Vec::new();
    for p in PROFILES {
        for v in &FIG_VARIANTS {
            let overlap = |x: &str, pct: f64| row(v.label(), p.name(), x, ("overlap", pct, "%"));
            let mut pcts = Vec::new();
            for &size in FIG8_SIZES {
                pcts.push(workloads::overlap_pct(*v, size, p, io));
                rows.push(overlap(&human_size(size), pcts[pcts.len() - 1]));
            }
            let largest = &mut pcts[FIG8_SIZES.len() - 3..];
            largest.sort_by(f64::total_cmp);
            rows.push(overlap(LARGE_MEDIAN, largest[1]));
        }
    }
    rows
}

/// Fig. 6 — the usage scenario (core split + over-subscription) run live.
fn fig6() -> Vec<Row> {
    let (topo, us_per_cycle, stats) = workloads::fig6_scenario(3);
    let x = format!(
        "NCprog={} NCsyscall={} O={} NB={}",
        topo.nc_prog,
        topo.nc_syscall,
        topo.oversubscription,
        topo.n_blts()
    );
    // ≈ 4 switches and 2 TLS loads per pair, plus the workers' yields.
    let metrics = [("time", us_per_cycle, "us")]
        .into_iter()
        .chain(per_pair(&stats));
    let series = "compute + open-write-close cycle";
    metrics.map(|m| row(series, "native", &x, m)).collect()
}

/// Extension — over-subscribed MPI ranks, ULP vs one KLT per rank.
fn oversub() -> Vec<Row> {
    let mut rows = Vec::new();
    for ranks in [2usize, 4, 8, 16, 32, 48] {
        // Min of three trials each, interleaved to share the host's noise.
        let (mut ulp, mut klt) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            ulp = ulp.min(workloads::oversub_ring_us(ranks, true));
            klt = klt.min(workloads::oversub_ring_us(ranks, false));
        }
        let x = format!("{ranks} ranks");
        rows.push(row("ULP", "native", &x, ("time", ulp, "us")));
        rows.push(row("KLT", "native", &x, ("time", klt, "us")));
        rows.push(row("KLT/ULP", "native", &x, ratio("speedup", klt / ulp)));
    }
    rows
}

/// Extension — every [`RawUlpLock`] policy under contention, with as many
/// contenders as scheduler KCs and with 4× more (where a spinning waiter can
/// sit on the scheduler the holder needs). Aggregate wall time: a minimum
/// over contenders would hide the convoying the rows exist to show.
fn locks() -> Vec<Row> {
    fn policy<R: RawUlpLock + 'static>(rows: &mut Vec<Row>) {
        for (scheds, ulps) in [(2, 2), (2, 8)] {
            let (ns, completed) = workloads::contended_lock::<R>(scheds, ulps, 1_000 * scale());
            let x = format!("{ulps} ULPs on {scheds} KCs");
            rows.push(row(R::NAME, "native", &x, time_ns(ns)));
            rows.push(row(R::NAME, "native", &x, ratio("completed", completed)));
        }
    }
    let mut rows = Vec::new();
    policy::<TasLock>(&mut rows);
    policy::<TicketLock>(&mut rows);
    policy::<McsLock>(&mut rows);
    policy::<FutexLock>(&mut rows);
    rows
}

/// One `repro` subcommand: name (also its rows' `artifact`), console heading
/// (with the paper's reference figures), measurement, and whether its rows
/// read best as a sweep (a line per profile × position, a column per series)
/// or as a list (a line per series × profile, a column per metric).
type Artifact = (&'static str, &'static str, fn() -> Vec<Row>, bool);

/// Every artifact, in the order `repro all` runs them.
const ARTIFACTS: [Artifact; 8] = [
    ("table3", "Table III: Context Switch and Load TLS (paper: Wallaby 3.34E-8 s/86 cyc & 1.09E-7 s/284 cyc; Albireo 2.45E-8 s & 2.50E-9 s)", table3, false),
    ("table4", "Table IV: Yielding Time, 2 ULPs or PThreads (paper Wallaby: ULP 1.50E-7 s, 1 core 2.66E-7 s, 2 cores 7.79E-8 s)", table4, false),
    ("table5", "Table V: Time of getpid() (paper Wallaby: Linux 6.71E-8 s, BUSYWAIT 1.33E-6 s, BLOCKING 2.91E-6 s)", table5, false),
    ("fig7", "Figure 7: open-write-close slowdown vs plain (paper: ULP < AIO on Wallaby at all sizes; slowdown decreases with size)", fig7, true),
    ("fig8", "Figure 8: overlap ratio, IMB method (paper: ULP > 70 % on Wallaby / > 80 % on Albireo; all AIO < 70 %)", fig8, true),
    ("fig6", "Fig. 6 scenario: NC = NCprog + NCsyscall, NB = NCprog x (O + 1) worker BLTs", fig6, false),
    ("oversub", "Extension: over-subscribed ring exchange, 1 scheduler core, 2 us network", oversub, true),
    ("locks", "Extension: contended lock suite, ns per acquire (aggregate wall time)", locks, false),
];

/// The subcommand names, in `repro all` order.
pub fn names() -> Vec<&'static str> {
    ARTIFACTS.iter().map(|a| a.0).collect()
}

/// Measure artifact `name` (one of [`names`]): its rows, and the same laid
/// out for reading.
pub fn measure(name: &str) -> (Vec<Row>, Table) {
    let &(artifact, title, measure, sweep) = ARTIFACTS
        .iter()
        .find(|a| a.0 == name)
        .expect("a subcommand name");
    let mut rows = measure();
    rows.iter_mut().for_each(|r| r.artifact = artifact);
    let table = if sweep {
        let column = |r: &Row| match r.metric {
            "time" => format!("{} [{}]", r.series, r.unit),
            _ => r.series.clone(),
        };
        let line = |r: &Row| vec![r.profile.clone(), r.x.clone()];
        pivot(title, &["profile", "x"], &rows, line, column)
    } else {
        let line = |r: &Row| vec![r.series.clone(), r.profile.clone(), r.x.clone()];
        let column = |r: &Row| format!("{} [{}]", r.metric, r.unit);
        pivot(title, &["series", "profile", "x"], &rows, line, column)
    };
    (rows, table)
}

// ------------------------------------------------------------ shape checks

/// The verdict on one of the paper's orderings.
#[derive(Debug)]
pub struct Check {
    name: &'static str,
    /// Why a violation is expected on some hosts; `None` makes it a gate.
    advisory: Option<&'static str>,
    /// The comparisons that did not hold (empty: the shape reproduces), and
    /// one that did, for the `ok` line.
    violations: Vec<String>,
    example: String,
}

impl Check {
    /// Whether this check fails the run.
    pub fn fails(&self) -> bool {
        self.advisory.is_none() && !self.violations.is_empty()
    }

    /// The line `repro` prints for it.
    pub fn line(&self) -> String {
        let mut violations = self.violations[..self.violations.len().min(3)].join("; ");
        if self.violations.len() > 3 {
            violations += &format!("; … and {} more", self.violations.len() - 3);
        }
        match (self.violations.is_empty(), self.advisory) {
            (true, _) => format!("repro: ok {}: {}", self.name, self.example),
            (false, None) => format!("repro: FAIL {}: {violations}", self.name),
            (false, Some(why)) => format!("repro: deviates {} ({violations}; {why})", self.name),
        }
    }
}

const BUSYWAIT_TIME_WHY: &str = "the paper gives the spinning KC a core of its own; here it shares the host's CPUs with the scheduler KC and the host's other tenants";
const KC_BLOCKS_WHY: &str = "where a round trip ends before the idle KC has gone to sleep, its re-check finds the next request and skips the futex";
const WAKE_BOUND_WHY: &str = "both pay one OS-thread wake per operation, and on a few timeshared CPUs that wake, not the mechanism, sets the order";

/// Evaluate every shape check whose artifact has rows in `rows`.
///
/// Each check is "every row of `artifact` that `lhs` selects stands in
/// relation `op` to `rhs(row)`". Gates are the orderings that held with margin
/// in every run on the 2-vCPU and 1-CPU hosts of EXPERIMENTS.md; the advisory
/// ones flipped between runs or hosts there.
pub fn shape_checks(rows: &[Row]) -> Vec<Check> {
    use std::cmp::Ordering::{self, Equal, Greater, Less};
    let mut out = Vec::new();
    let mut check = |artifact: &str,
                     name: &'static str,
                     advisory: Option<&'static str>,
                     lhs: &dyn Fn(&Row) -> bool,
                     op: Ordering,
                     rhs: &dyn Fn(&Row) -> f64| {
        let of_artifact = || rows.iter().filter(|r| r.artifact == artifact);
        if of_artifact().next().is_none() {
            return;
        }
        let (mut violations, mut example) = (Vec::new(), String::new());
        for r in of_artifact().filter(|r| lhs(r)) {
            let (a, b, sign) = (r.value, rhs(r), ["<", "=", ">"][(op as i8 + 1) as usize]);
            let at = format!("{} {} {} {}", r.series, r.profile, r.x, r.metric);
            let at = at.replace("  ", " ");
            if a.partial_cmp(&b) != Some(op) {
                violations.push(format!("{at}: {a:.3} is not {sign} {b:.3}"));
            } else if example.is_empty() {
                example = format!("{at}: {a:.3} {sign} {b:.3}");
            }
        }
        if violations.is_empty() && example.is_empty() {
            violations.push("no row to compare".into());
        }
        out.push(Check {
            name,
            advisory,
            violations,
            example,
        });
    };
    // The value measured where `r` was but for `edit`; NaN, which fails every
    // comparison, if the artifact emitted no such row.
    let peer = |r: &Row, edit: &dyn Fn(&mut Row)| {
        let mut k = r.clone();
        edit(&mut k);
        let same = |o: &&Row| o.key() == k.key();
        rows.iter().find(same).map_or(f64::NAN, |o| o.value)
    };
    let [busy, blocking, adaptive] = POLICIES.map(|p| p.0);
    let is = |r: &Row, series: &str, metric: &str| r.series == series && r.metric == metric;

    check(
        "table3",
        "Table III: Wallaby TLS load > Albireo",
        None,
        &|r| is(r, "Load TLS", "time") && r.profile == ArchProfile::Wallaby.name(),
        Greater,
        &|r| peer(r, &|k| k.profile = ArchProfile::Albireo.name().into()),
    );
    check(
        "table4",
        "Table IV: ULP yield < sched_yield on one core, every profile",
        None,
        &|r| r.series == "ULP yield",
        Less,
        &|r| {
            peer(r, &|k| {
                (k.series, k.profile) = (ONE_CORE.into(), "host".into())
            })
        },
    );
    let round_trip = |r: &Row| ["switches_per_op", "tls_loads_per_op"].contains(&r.metric);
    check(
        "table5",
        "Table V: a coupled getpid is exactly 4 context switches + 2 TLS loads under BUSYWAIT and BLOCKING",
        None,
        &|r| round_trip(r) && r.series != adaptive,
        Equal,
        &|r| {
            if r.metric == "switches_per_op" {
                4.0
            } else {
                2.0
            }
        },
    );
    check(
        "table5",
        "Table V: under ADAPTIVE a lone BLT's coupled getpid switches nothing: it stays home",
        None,
        &|r| round_trip(r) && r.series == adaptive,
        Less,
        &|_| 0.5,
    );
    check(
        "table5",
        "Table V: the original KC never blocks under BUSYWAIT",
        None,
        &|r| is(r, busy, "kc_blocks_per_op"),
        Equal,
        &|_| 0.0,
    );
    check(
        "table5",
        "Table V: the original KC blocks in most round trips under BLOCKING",
        Some(KC_BLOCKS_WHY),
        &|r| is(r, blocking, "kc_blocks_per_op"),
        Greater,
        &|_| 0.5,
    );
    check(
        "table5",
        "Table V: BUSYWAIT faster than BLOCKING",
        Some(BUSYWAIT_TIME_WHY),
        &|r| is(r, busy, "time"),
        Less,
        &|r| peer(r, &|k| k.series = blocking.into()),
    );
    check(
        "table5",
        "Table V: in a couple/decouple loop the original KC never sleeps under ADAPTIVE",
        None,
        &|r| is(r, adaptive, "kc_blocks_per_op"),
        Less,
        &|_| 0.05,
    );
    check(
        "table5",
        "Table V: ADAPTIVE, which keeps a lone BLT home, faster than BUSYWAIT",
        None,
        &|r| is(r, adaptive, "time"),
        Less,
        &|r| peer(r, &|k| k.series = busy.into()),
    );
    check(
        "fig7",
        "Figure 7: slowdown falls from 256 B to 1 MiB, every variant and profile",
        None,
        &|r| r.metric == "slowdown" && r.x == "1MiB",
        Less,
        &|r| peer(r, &|k| k.x = "256B".into()),
    );
    check(
        "fig7",
        "Figure 7: ULP-BLOCKING below AIO-return up to 4 KiB",
        Some(WAKE_BOUND_WHY),
        &|r| r.series == "ULP-BLOCKING" && ["256B", "1KiB", "4KiB"].contains(&r.x.as_str()),
        Less,
        &|r| peer(r, &|k| k.series = "AIO-return".into()),
    );
    check(
        "fig8",
        "Figure 8: plain system calls overlap < 10 % at the large sizes",
        None,
        &|r| r.series == "plain" && r.x == LARGE_MEDIAN,
        Less,
        &|_| 10.0,
    );
    check(
        "fig8",
        "Figure 8: ULP-BLOCKING overlaps > 70 % at the large sizes",
        None,
        &|r| r.series == "ULP-BLOCKING" && r.x == LARGE_MEDIAN,
        Greater,
        &|_| 70.0,
    );
    check(
        "fig8",
        "Figure 8: ULP-BLOCKING overlaps more than AIO-suspend at every size",
        Some(WAKE_BOUND_WHY),
        &|r| r.series == "ULP-BLOCKING" && r.x != LARGE_MEDIAN,
        Greater,
        &|r| peer(r, &|k| k.series = "AIO-suspend".into()),
    );
    check(
        "locks",
        "Locks: every policy completes all its acquisitions",
        None,
        &|r| r.metric == "completed",
        Equal,
        &|_| 1.0,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_at_least_one() {
        assert_eq!(parse_scale(None), 1);
        assert_eq!(parse_scale(Some("0")), 1);
        assert_eq!(parse_scale(Some(" 00 ")), 1);
        assert_eq!(parse_scale(Some("ten")), 1);
        assert_eq!(parse_scale(Some("10")), 10);
    }

    /// Rows of every artifact the checks read, in the CSV's schema, holding
    /// the figures ISSUE 17 quotes from the 2-vCPU host where it quotes one.
    const SYNTHETIC: &str = "\
table3,Load TLS,wallaby(x86_64),,time,150.1
table3,Load TLS,albireo(aarch64),,time,38.5
table4,ULP yield,native,,time,40
table4,ULP yield,wallaby(x86_64),,time,195
table4,sched_yield() 1 core,host,,time,546
table5,ULP-PiP BUSYWAIT,native,,time,2820
table5,ULP-PiP BLOCKING,native,,time,2200
table5,ULP-PiP BUSYWAIT,native,,switches_per_op,4
table5,ULP-PiP BUSYWAIT,native,,tls_loads_per_op,2
table5,ULP-PiP BUSYWAIT,native,,kc_blocks_per_op,0
table5,ULP-PiP BLOCKING,native,,switches_per_op,4
table5,ULP-PiP BLOCKING,native,,tls_loads_per_op,2
table5,ULP-PiP BLOCKING,native,,kc_blocks_per_op,0.9
table5,ULP-PiP ADAPTIVE,native,,time,350
table5,ULP-PiP ADAPTIVE,native,,switches_per_op,0
table5,ULP-PiP ADAPTIVE,native,,tls_loads_per_op,0
table5,ULP-PiP ADAPTIVE,native,,kc_blocks_per_op,0
fig7,AIO-return,native,256B,slowdown,5.7
fig7,ULP-BLOCKING,native,256B,slowdown,2.9
fig7,AIO-return,native,4KiB,slowdown,2.0
fig7,ULP-BLOCKING,native,4KiB,slowdown,1.4
fig7,AIO-return,native,1MiB,slowdown,0.99
fig7,ULP-BLOCKING,native,1MiB,slowdown,1.05
fig8,plain,native,1MiB,overlap,0
fig8,AIO-suspend,native,1MiB,overlap,87.0
fig8,ULP-BLOCKING,native,1MiB,overlap,86.8
fig8,plain,native,median of 3 largest,overlap,0
fig8,AIO-suspend,native,median of 3 largest,overlap,87.0
fig8,ULP-BLOCKING,native,median of 3 largest,overlap,87.3
locks,tas,native,8 ULPs on 2 KCs,completed,1";

    fn synthetic() -> Vec<Row> {
        let parse = |line: &'static str| {
            let f: Vec<&'static str> = line.split(',').collect();
            let value = f[5].parse().expect("a number");
            Row {
                artifact: f[0],
                value,
                ..row(f[1], f[2], f[3], (f[4], 0.0, ""))
            }
        };
        SYNTHETIC.lines().map(parse).collect()
    }

    /// [`synthetic`] with the values of the rows `a` and `b` name
    /// (`series,profile,x,metric`) exchanged.
    fn swapped(a: &str, b: &str) -> Vec<Row> {
        let mut rows = synthetic();
        let at = |key: &str| {
            let line = SYNTHETIC
                .lines()
                .position(|l| l.split_once(',').unwrap().1.starts_with(key));
            line.expect("a synthetic row")
        };
        let (i, j) = (at(a), at(b));
        (rows[i].value, rows[j].value) = (rows[j].value, rows[i].value);
        rows
    }

    #[test]
    fn quoted_numbers_pass_every_gate_and_deviate_where_the_host_does() {
        let checks = shape_checks(&synthetic());
        assert_eq!(checks.len(), 15, "every check found its artifact");
        assert!(!checks.iter().any(Check::fails));
        // BUSYWAIT 2.82 us > BLOCKING 2.20 us, and AIO-suspend 87.0 % > ULP
        // 86.8 % at 1 MiB: reported with the reason, and not failed.
        let lines: Vec<String> = checks.iter().map(Check::line).collect();
        let odd: Vec<&str> = lines
            .iter()
            .filter(|l| !l.starts_with("repro: ok"))
            .map(|l| l.as_str())
            .collect();
        assert_eq!(odd.len(), 2, "{lines:#?}");
        assert!(
            odd[0].starts_with("repro: deviates Table V: BUSYWAIT faster"),
            "{odd:?}"
        );
        assert!(
            odd[0].contains("2820.000 is not < 2200.000; the paper gives"),
            "{odd:?}"
        );
        assert!(odd[1].starts_with("repro: deviates Figure 8"), "{odd:?}");
    }

    #[test]
    fn each_gate_fails_when_its_rows_are_swapped() {
        let (plain, ulp) = ("plain,native,median", "ULP-BLOCKING,native,median");
        let cases = [
            ("Table III", "Load TLS,wallaby", "Load TLS,albireo"),
            ("Table IV", "ULP yield,wallaby", "sched_yield() 1 core"),
            (
                "Table V: a coupled getpid",
                "ULP-PiP BUSYWAIT,native,,switches",
                "ULP-PiP BUSYWAIT,native,,tls",
            ),
            (
                "Table V: under ADAPTIVE",
                "ULP-PiP ADAPTIVE,native,,switches",
                "ULP-PiP BUSYWAIT,native,,switches",
            ),
            (
                "Table V: the original KC never",
                "ULP-PiP BUSYWAIT,native,,kc_blocks",
                "ULP-PiP BLOCKING,native,,kc_blocks",
            ),
            (
                "Table V: in a couple/decouple loop",
                "ULP-PiP ADAPTIVE,native,,kc_blocks",
                "ULP-PiP BLOCKING,native,,kc_blocks",
            ),
            (
                "Table V: ADAPTIVE, which keeps",
                "ULP-PiP ADAPTIVE,native,,time",
                "ULP-PiP BUSYWAIT,native,,time",
            ),
            (
                "Figure 7: slowdown falls",
                "ULP-BLOCKING,native,256B",
                "ULP-BLOCKING,native,1MiB,slowdown",
            ),
            ("Figure 8: plain", plain, ulp),
            ("Figure 8: ULP-BLOCKING overlaps > 70", plain, ulp),
            ("Locks", "tas,native", "plain,native,1MiB"),
        ];
        for (gate, a, b) in cases {
            let checks = shape_checks(&swapped(a, b));
            let failing: Vec<&str> = checks
                .iter()
                .filter(|c| c.fails())
                .map(|c| c.name)
                .collect();
            assert!(
                failing.iter().any(|n| n.starts_with(gate)),
                "{gate}: only {failing:?}"
            );
        }
    }

    #[test]
    fn a_deviating_advisory_check_never_fails_the_run() {
        // Make all four advisory orderings as wrong as they can be.
        let mut rows = synthetic();
        for r in &mut rows {
            match (r.series.as_str(), r.metric) {
                ("ULP-PiP BUSYWAIT", "time") => r.value *= 100.0,
                ("ULP-PiP BLOCKING", "kc_blocks_per_op") => r.value = 0.0,
                ("AIO-suspend", _) => r.value = 100.0,
                ("AIO-return", _) => r.value *= 0.1,
                _ => {}
            }
        }
        let checks = shape_checks(&rows);
        let deviating = checks.iter().filter(|c| !c.violations.is_empty());
        assert_eq!(deviating.count(), 4);
        assert!(!checks.iter().any(Check::fails));
        // An artifact that did not run is not checked; one that ran without
        // the row a gate reads fails that gate.
        assert!(shape_checks(&[]).is_empty());
        rows.retain(|r| r.series != ONE_CORE);
        let failing = |c: &Check| c.fails() && c.name.starts_with("Table IV");
        assert!(shape_checks(&rows).iter().any(failing));
    }

    #[test]
    fn every_artifact_heading_in_experiments_md_names_a_subcommand() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let mut named = Vec::new();
        for heading in doc.lines().filter(|l| l.starts_with("## ")) {
            let is_artifact = ["## Table", "## Fig", "## Extension"]
                .iter()
                .any(|p| heading.starts_with(p));
            let sub = heading
                .split("`repro ")
                .nth(1)
                .and_then(|rest| rest.split('`').next());
            assert_eq!(is_artifact, sub.is_some(), "{heading}");
            named.extend(sub);
        }
        let mut expected = names();
        named.sort_unstable();
        expected.sort_unstable();
        assert_eq!(named, expected, "one heading per subcommand, and no other");
    }
}
