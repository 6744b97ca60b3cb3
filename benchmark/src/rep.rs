//! One repetition: set-up, warm-up, one measured window, checks.
//!
//! A repetition runs in a child process of its own (fresh `Runtime`, clean
//! `VmHWM`, killable when it hangs). The workload's ULPs generate the load —
//! closed loops, each ULP issuing its next operation when the previous one
//! returned — and publish progress in per-ULP cache-line-padded counters; the
//! controller thread brackets the window by reading those counters, the
//! runtime's public counters and the process meters at both ends. Nothing
//! inside the runtime is touched.

use crate::hist::LogHist;
use crate::json::{num, nums, obj, text};
use crate::span::SpanBuf;
use serde_json::Value;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use ulp_core::{Runtime, StatsSnapshot};

#[derive(Debug, Clone)]
pub struct RepCfg {
    pub seed: u64,
    pub warm: Duration,
    pub window: Duration,
    /// Harness spans on and `Runtime::trace_enable()` for the window.
    pub traced: bool,
}

/// Phases the controller steps the workload's ULPs through. ULPs run
/// operations from the moment they are ready until `Stop` (`Run` before and
/// after the window); they record latency samples and spans only in
/// `Measure`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    Run = 0,
    Measure = 1,
    Stop = 2,
}

/// Per-ULP progress counters, alone on their cache lines: the owner stores
/// (no read-modify-write), the controller loads.
#[derive(Default)]
#[repr(align(128))]
pub struct Slot {
    /// Operations completed since the ULP started.
    pub ops: AtomicU64,
    /// Operations whose check failed or that returned `Err`.
    pub failed: AtomicU64,
}

pub struct Ctl {
    phase: AtomicU8,
    ready: Mutex<usize>,
    ready_cv: Condvar,
    pub slots: Vec<Slot>,
    /// Time base of every span in the repetition.
    pub epoch: Instant,
}

impl Ctl {
    pub fn new(n_ulps: usize) -> Ctl {
        Ctl {
            phase: AtomicU8::new(Phase::Run as u8),
            ready: Mutex::new(0),
            ready_cv: Condvar::new(),
            slots: (0..n_ulps).map(|_| Slot::default()).collect(),
            epoch: Instant::now(),
        }
    }

    #[inline]
    pub fn phase(&self) -> Phase {
        match self.phase.load(Ordering::Relaxed) {
            0 => Phase::Run,
            1 => Phase::Measure,
            _ => Phase::Stop,
        }
    }

    pub fn set_phase(&self, p: Phase) {
        self.phase.store(p as u8, Ordering::Release);
    }

    /// Called once by each ULP when its set-up is done.
    pub fn ready(&self) {
        *self.ready.lock().expect("ready lock") += 1;
        self.ready_cv.notify_all();
    }

    fn wait_ready(&self, n: usize) {
        let mut g = self.ready.lock().expect("ready lock");
        while *g < n {
            g = self.ready_cv.wait(g).expect("ready lock");
        }
    }
}

/// Everything read at one end of the window.
#[derive(Debug, Clone)]
pub struct Meter {
    at: Instant,
    cpu_s: f64,
    stats: StatsSnapshot,
    syscalls: u64,
    pool_hits: usize,
    pool_misses: usize,
    ops: Vec<u64>,
    failed: u64,
}

impl Meter {
    /// Read every counter and the clock as one snapshot. The readings are
    /// not atomic with each other, and the controller can lose the CPU
    /// between two of them for milliseconds — at 10 M ops/s enough to break
    /// a ±0.001 relation between a runtime counter and the harness's own.
    /// So the reads are bracketed by the clock and repeated until one pass
    /// went through undisturbed.
    pub fn take(rt: &Runtime, ctl: &Ctl) -> Meter {
        const UNDISTURBED: Duration = Duration::from_micros(30);
        let cpu_s = crate::host::process_cpu_seconds();
        let mut tries = 0;
        loop {
            let at = Instant::now();
            let stats = rt.stats().snapshot();
            let ops: Vec<u64> = ctl
                .slots
                .iter()
                .map(|s| s.ops.load(Ordering::Relaxed))
                .collect();
            let failed = ctl
                .slots
                .iter()
                .map(|s| s.failed.load(Ordering::Relaxed))
                .sum();
            let syscalls = rt.kernel().total_syscalls();
            let (pool_hits, pool_misses) = rt.stack_pool().stats();
            tries += 1;
            if at.elapsed() <= UNDISTURBED || tries == 100 {
                return Meter {
                    at,
                    cpu_s,
                    stats,
                    syscalls,
                    pool_hits,
                    pool_misses,
                    ops,
                    failed,
                };
            }
        }
    }
}

/// What happened between two [`Meter`]s.
#[derive(Debug, Clone)]
pub struct Window {
    pub secs: f64,
    pub cpu_s: f64,
    pub stats: StatsSnapshot,
    pub syscalls: u64,
    pub pool_hits: usize,
    pub pool_misses: usize,
    pub ops: u64,
    /// The same, per ULP (fairness checks).
    pub ops_by_ulp: Vec<u64>,
    pub failed: u64,
}

impl Window {
    pub fn between(a: &Meter, b: &Meter) -> Window {
        let ops_by_ulp: Vec<u64> = b.ops.iter().zip(&a.ops).map(|(b, a)| b - a).collect();
        Window {
            secs: b.at.duration_since(a.at).as_secs_f64(),
            cpu_s: b.cpu_s - a.cpu_s,
            stats: b.stats.delta(&a.stats),
            syscalls: b.syscalls - a.syscalls,
            pool_hits: b.pool_hits - a.pool_hits,
            pool_misses: b.pool_misses - a.pool_misses,
            ops: ops_by_ulp.iter().sum(),
            ops_by_ulp,
            failed: b.failed - a.failed,
        }
    }
}

/// Result of the controller's part of a ULP-driven repetition.
pub struct Driven {
    pub setup_s: f64,
    pub window: Window,
    pub peak_rss_mib: f64,
    /// `Runtime::trace_enabled()` as seen inside the window.
    pub tracer_was_on: bool,
}

/// Controller for the four workloads whose ULPs drive themselves: wait until
/// all `n_ulps` are ready (that is `setup_s`, counted from `started`), let
/// them warm up, bracket the window, then tell them to stop. The caller
/// joins the ULPs afterwards.
pub fn drive(rt: &Runtime, ctl: &Ctl, cfg: &RepCfg, n_ulps: usize, started: Instant) -> Driven {
    ctl.wait_ready(n_ulps);
    let setup_s = started.elapsed().as_secs_f64();
    std::thread::sleep(cfg.warm);
    if cfg.traced {
        rt.trace_enable();
    }
    let a = Meter::take(rt, ctl);
    ctl.set_phase(Phase::Measure);
    std::thread::sleep(cfg.window);
    let tracer_was_on = rt.trace_enabled();
    ctl.set_phase(Phase::Run);
    let b = Meter::take(rt, ctl);
    rt.trace_disable();
    let peak_rss_mib = crate::host::peak_rss_mib();
    ctl.set_phase(Phase::Stop);
    Driven {
        setup_s,
        window: Window::between(&a, &b),
        peak_rss_mib,
        tracer_was_on,
    }
}

/// One named pass/fail fact about the repetition's outputs.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// What a ULP hands back when it returns.
pub struct UlpOut {
    pub index: usize,
    /// Latency samples, from the ULPs that take them.
    pub hist: Option<LogHist>,
    pub spans: SpanBuf,
    /// End-of-run check failures this ULP found, in words.
    pub problems: Vec<String>,
}

/// Where ULPs deposit their [`UlpOut`] (pushed once, at exit, so the lock
/// is never contended inside the window).
pub type Outbox = std::sync::Arc<Mutex<Vec<UlpOut>>>;

/// Called once by each ULP as it returns.
pub fn deposit(outbox: &Outbox, out: UlpOut) {
    outbox.lock().expect("outbox lock").push(out);
}

pub fn collect(outbox: &Outbox) -> Vec<UlpOut> {
    let mut outs = std::mem::take(&mut *outbox.lock().expect("outbox lock"));
    outs.sort_by_key(|o| o.index);
    outs
}

/// Everything one repetition measured, before it is turned into metrics.
pub struct RepOut {
    pub setup_s: f64,
    pub window: Window,
    pub peak_rss_mib: f64,
    /// Latency samples of the window, merged over the sampling ULPs.
    pub hist: LogHist,
    /// Nanoseconds one operation takes on its critical path: the sample
    /// mean divided by the operations a sample spans (or wall time per
    /// operation where samples overlap) — what the cost model is held to.
    pub op_ns: f64,
    pub stack_peak: usize,
    pub violations: usize,
    pub checks: Vec<Check>,
    /// Span- and telemetry-derived metrics of a traced repetition.
    pub traced: Option<crate::traced::TracedOut>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl RepOut {
    /// The repetition as the one-line JSON the child prints: the six
    /// end-to-end metrics, the per-op counts, the failure accounting and,
    /// for a traced repetition, the traced metrics.
    pub fn to_json(&self, workload: &str, cfg: &RepCfg, input_digest: u64) -> Value {
        let w = &self.window;
        let ops = w.ops as f64;
        let e2e = [
            ("ops_per_s", ratio(ops, w.secs)),
            ("op_p50_us", self.hist.quantile(0.50) / 1e3),
            ("op_p99_us", self.hist.quantile(0.99) / 1e3),
            ("cpu_us_per_op", ratio(w.cpu_s * 1e6, ops)),
            ("peak_rss_mib", self.peak_rss_mib),
            ("setup_s", self.setup_s),
        ];
        let s = &w.stats;
        let acquired = (w.pool_hits + w.pool_misses) as f64;
        let counts = [
            (
                "core.couple.switches_per_op",
                ratio(s.context_switches as f64, ops),
            ),
            (
                "core.couple.tls_loads_per_op",
                ratio(s.tls_loads as f64, ops),
            ),
            ("core.couple.couples_per_op", ratio(s.couples as f64, ops)),
            (
                "core.couple.handoff_ratio",
                ratio(s.couple_handoffs as f64, s.decouples as f64),
            ),
            (
                "core.runqueue.dispatches_per_op",
                ratio(s.scheduler_dispatches as f64, ops),
            ),
            ("core.runqueue.yields_per_op", ratio(s.yields as f64, ops)),
            ("core.kc.blocks_per_op", ratio(s.kc_blocks as f64, ops)),
            ("kernel.syscall.calls_per_op", ratio(w.syscalls as f64, ops)),
            (
                "fcontext.stack_recycle_ratio",
                ratio(w.pool_hits as f64, acquired),
            ),
            ("fcontext.stack_peak", self.stack_peak as f64),
            ("core.sys.violations", self.violations as f64),
        ];
        let checks = self.checks.iter().map(|c| {
            obj([
                ("name", text(c.name)),
                ("ok", Value::Bool(c.ok)),
                ("detail", text(c.detail.as_str())),
            ])
        });
        let mut top = vec![
            ("workload", text(workload)),
            ("seed", num(cfg.seed as f64)),
            ("input_digest", text(format!("{input_digest:016x}"))),
            ("traced", Value::Bool(cfg.traced)),
            ("window_s", num(w.secs)),
            ("ops_attempted", num((w.ops + w.failed) as f64)),
            ("ops_failed", num(w.failed as f64)),
            ("samples", num(self.hist.count() as f64)),
            (
                "samples_beyond_p99",
                num(self.hist.samples_beyond(0.99) as f64),
            ),
            ("op_mean_ns", num(self.hist.mean())),
            ("op_max_ns", num(self.hist.max() as f64)),
            ("op_ns", num(self.op_ns)),
            ("pooled_per_op", num(ratio(s.pooled_spawned as f64, ops))),
            (
                "ok",
                Value::Bool(w.failed == 0 && self.checks.iter().all(|c| c.ok)),
            ),
            ("checks", Value::Array(checks.collect())),
            ("e2e", nums(e2e)),
            ("counts", nums(counts)),
        ];
        if let Some(t) = &self.traced {
            top.push(("traced_metrics", t.to_json()));
        }
        obj(top)
    }
}
