//! `pooled_churn` — schedulers 1, `pool_kcs` 2; the controller thread keeps
//! 256 pooled ULPs outstanding (`spawn_pooled` until 256 are in flight, then
//! `wait()` the oldest and replace it). A ULP's body is a seeded 0–7
//! `yield_now()` calls, then it returns a seeded exit code 0–127.
//!
//! * **op** — one lifecycle (spawn → run → exit → reap).
//! * **sample** — the `spawn_pooled` call → that ULP's `wait()` returning,
//!   so with 256 in flight a sample is ~256 lifecycles long.
//!
//! The only workload where `core.spawn`, `fcontext.stack` (dense slabs,
//! `MADV_DONTNEED` recycling) and the pool KCs do the work, and the one
//! where `peak_rss_mib` is a product property: RSS must track the 256 live
//! ULPs, not the hundreds of thousands spawned.

use super::{common_checks, Rep};
use crate::hist::LogHist;
use crate::rep::{check, Ctl, Meter, Phase, RepCfg, RepOut, Window};
use crate::rng::{Digest, Rng};
use crate::span::{Name, SpanBuf};
use crate::traced::derive;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::Instant;
use ulp_core::{yield_now, PooledHandle, Runtime};

pub const NAME: &str = "pooled_churn";
pub const WHY: &str = "spawn/exit churn of pooled ULPs with 256 in flight: the only workload where core.spawn, dense recycled slab stacks and the pool KCs do the work; RSS must track live ULPs, not spawned ones";

const IN_FLIGHT: usize = 256;
const SPAN_CAP: usize = 512 * 1024;

/// One lifecycle's seeded inputs.
#[derive(Debug, Clone, Copy)]
struct Life {
    yields: u32,
    code: i32,
}

fn next_life(rng: &mut Rng) -> Life {
    Life {
        yields: rng.below(8) as u32,
        code: rng.below(128) as i32,
    }
}

pub fn input_digest(seed: u64) -> u64 {
    let mut rng = Rng::new(seed, NAME, 0);
    let mut d = Digest::default();
    for _ in 0..4096 {
        let l = next_life(&mut rng);
        d.u64(u64::from(l.yields) << 32 | l.code as u64);
    }
    d.finish()
}

struct Flight {
    handle: PooledHandle,
    spawned: Instant,
    code: i32,
}

pub fn run(cfg: &RepCfg, started: Instant) -> Rep {
    let rt = Runtime::builder().schedulers(1).pool_kcs(2).build();
    let ctl = Ctl::new(1);
    let slot = &ctl.slots[0];
    let mut rng = Rng::new(cfg.seed, NAME, 0);
    let mut sp = SpanBuf::maybe(cfg.traced, SPAN_CAP, ctl.epoch, 0, "controller");
    let mut hist = LogHist::default();
    let mut flights: VecDeque<Flight> = VecDeque::with_capacity(IN_FLIGHT);
    let (mut ops, mut failed, mut seq) = (0u64, 0u64, 0u64);

    let mut spawn = |sp: &mut SpanBuf, flights: &mut VecDeque<Flight>, failed: &mut u64| {
        let Life { yields, code } = next_life(&mut rng);
        seq += 1;
        let spawned = Instant::now();
        let r = sp.call(Name::SpawnPooled, seq, || {
            rt.spawn_pooled("churn", move || {
                for _ in 0..yields {
                    yield_now();
                }
                code
            })
        });
        match r {
            Ok(handle) => flights.push_back(Flight {
                handle,
                spawned,
                code,
            }),
            Err(_) => *failed += 1,
        }
    };

    while flights.len() < IN_FLIGHT && failed == 0 {
        spawn(&mut sp, &mut flights, &mut failed);
    }
    let setup_s = started.elapsed().as_secs_f64();

    // The controller is this workload's load generator, so it steps the
    // phases itself, by the clock it reads per lifecycle anyway.
    let warm_until = Instant::now() + cfg.warm;
    let mut window: Option<(Meter, Instant)> = None;
    let mut result: Option<(Window, f64, bool)> = None;
    while let Some(f) = flights.pop_front() {
        let status = sp.call(Name::Wait, 0, || f.handle.wait());
        let now = Instant::now();
        if status == f.code {
            ops += 1;
            slot.ops.store(ops, Ordering::Relaxed);
        } else {
            failed += 1;
            slot.failed.store(failed, Ordering::Relaxed);
        }
        match ctl.phase() {
            Phase::Run if now >= warm_until => {
                if cfg.traced {
                    rt.trace_enable();
                }
                window = Some((Meter::take(&rt, &ctl), now + cfg.window));
                ctl.set_phase(Phase::Measure);
                sp.set_on(true);
            }
            Phase::Measure => {
                hist.record(now.duration_since(f.spawned).as_nanos() as u64);
                let (a, until) = window.as_ref().expect("window open");
                if now >= *until {
                    let tracer_was_on = rt.trace_enabled();
                    let b = Meter::take(&rt, &ctl);
                    rt.trace_disable();
                    sp.set_on(false);
                    result = Some((
                        Window::between(a, &b),
                        crate::host::peak_rss_mib(),
                        tracer_was_on,
                    ));
                    ctl.set_phase(Phase::Stop);
                }
            }
            _ => {}
        }
        // After the window the remaining flights are only reaped.
        if ctl.phase() != Phase::Stop {
            spawn(&mut sp, &mut flights, &mut failed);
            slot.failed.store(failed, Ordering::Relaxed);
        }
    }

    let (w, peak_rss_mib, tracer_was_on) = result.unwrap_or_else(|| {
        // Spawning failed before the window closed; report an empty one.
        let m = Meter::take(&rt, &ctl);
        (Window::between(&m, &m), crate::host::peak_rss_mib(), false)
    });
    let recycle = w.pool_hits as f64 / (w.pool_hits + w.pool_misses).max(1) as f64;
    let outstanding = rt.stack_pool().outstanding();
    let spans = if sp.traced() { vec![sp] } else { Vec::new() };
    let mut checks = vec![
        check(
            "no_stack_leaked",
            outstanding == 0,
            format!("StackPool::outstanding() = {outstanding} after the last wait()"),
        ),
        // The first use of a slab slot is a miss by definition, and there
        // are at most IN_FLIGHT slots to use first: a window must not see
        // more misses than that, and one long enough to drown them (any
        // real window; the smoke run's is not) must recycle > 99 %.
        check(
            "stacks_recycled",
            w.pool_misses <= IN_FLIGHT
                && (recycle > 0.99 || w.pool_hits + w.pool_misses < 100 * IN_FLIGHT),
            format!(
                "fcontext.stack_recycle_ratio = {recycle:.5} ({} hits, {} misses)",
                w.pool_hits, w.pool_misses
            ),
        ),
        check(
            "every_spawn_succeeded",
            failed == 0,
            format!("{failed} failed spawn_pooled/wait"),
        ),
    ];
    checks.extend(common_checks(&rt, cfg, tracer_was_on, &spans));
    let traced = cfg.traced.then(|| derive(&rt, &spans, &w, None));
    Rep {
        out: RepOut {
            setup_s,
            // Samples overlap 256-fold; the critical path of one lifecycle
            // is the wall time the churn needs per lifecycle.
            op_ns: w.secs * 1e9 / w.ops.max(1) as f64,
            window: w,
            peak_rss_mib,
            hist,
            stack_peak: rt.stack_pool().peak_outstanding(),
            violations: rt.violations().len(),
            checks,
            traced,
        },
        spans,
    }
}
