//! `yield_ring` — 64 BLTs `decouple()` once and `yield_now()` forever on
//! the one scheduler.
//!
//! * **op** — one `yield_now()` returning after a switch, summed over ULPs.
//! * **sample** — the time between two consecutive returns of ULP 0's
//!   `yield_now()`: one lap of the ring, 64 yields. Only ULP 0 reads the
//!   clock (once per lap, under 1 % perturbation).
//!
//! 100 % `fcontext` + `core.runqueue` + `core.current`: zero couples, zero
//! system calls, and a run queue that is never empty.

use super::{finish, Finished, Rep};
use crate::hist::LogHist;
use crate::rep::{check, collect, deposit, drive, Ctl, Outbox, Phase, RepCfg, UlpOut};
use crate::rng::{Digest, Rng};
use crate::span::{Name, SpanBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use ulp_core::{decouple, yield_now, Runtime};

pub const NAME: &str = "yield_ring";
pub const WHY: &str = "the paper's headline (Table IV): pure switch + run-queue path, no couples, no syscalls, queue never empty; catches any check sneaking onto the yield path";

const RING: usize = 64;
/// Spans kept per ULP in a traced repetition (a yield is ~75 ns, so this
/// is the first fraction of a millisecond; the overhead figure comes from
/// the whole window).
const SPAN_CAP: usize = 8 * 1024;

/// The ring takes no data inputs; the seed only picks which member each
/// BLT name maps to, so the digest is over that permutation.
fn order(seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, NAME, 0);
    let mut v: Vec<usize> = (0..RING).collect();
    for i in (1..RING).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

pub fn input_digest(seed: u64) -> u64 {
    let mut d = Digest::default();
    for i in order(seed) {
        d.u64(i as u64);
    }
    d.finish()
}

fn member(i: usize, ctl: &Ctl, mut sp: SpanBuf, outbox: &Outbox) -> i32 {
    let mut problems = Vec::new();
    if let Err(e) = decouple() {
        problems.push(format!("decouple: {e}"));
    }
    ctl.ready();
    let slot = &ctl.slots[i];
    let mut hist = (i == 0).then(LogHist::default);
    let mut ops = 0u64;
    let mut last = Instant::now();
    loop {
        let phase = ctl.phase();
        if phase == Phase::Stop {
            break;
        }
        sp.set_on(phase == Phase::Measure);
        let tok = sp.enter(Name::YieldNow, 0);
        let switched = yield_now();
        sp.exit(tok);
        if switched {
            ops += 1;
            slot.ops.store(ops, Ordering::Relaxed);
        }
        if let Some(h) = &mut hist {
            let now = Instant::now();
            if phase == Phase::Measure {
                h.record(now.duration_since(last).as_nanos() as u64);
            }
            last = now;
        }
    }
    deposit(
        outbox,
        UlpOut {
            index: i,
            hist,
            spans: sp,
            problems,
        },
    );
    0
}

pub fn run(cfg: &RepCfg, started: Instant) -> Rep {
    let rt = Runtime::new();
    let ctl = Arc::new(Ctl::new(RING));
    let outbox = Outbox::default();
    let handles: Vec<_> = order(cfg.seed)
        .into_iter()
        .enumerate()
        .map(|(spawned, i)| {
            let (ctl, outbox) = (ctl.clone(), outbox.clone());
            let sp = SpanBuf::maybe(
                cfg.traced,
                SPAN_CAP,
                ctl.epoch,
                i as u32,
                &format!("ring{i}"),
            );
            rt.spawn(&format!("ring{spawned}"), move || {
                member(i, &ctl, sp, &outbox)
            })
        })
        .collect();
    let driven = drive(&rt, &ctl, cfg, RING, started);
    let statuses = handles.iter().map(|h| h.wait()).collect();

    let w = &driven.window;
    let switches_per_op = w.stats.context_switches as f64 / w.ops.max(1) as f64;
    let (min, max) = (
        w.ops_by_ulp.iter().copied().min().unwrap_or(0),
        w.ops_by_ulp.iter().copied().max().unwrap_or(0),
    );
    let checks = vec![
        check(
            "one_switch_per_yield",
            (switches_per_op - 1.0).abs() <= 0.001,
            format!("core.couple.switches_per_op = {switches_per_op:.5}"),
        ),
        check(
            "ring_is_fair",
            min > 0 && max as f64 / min as f64 <= 1.01,
            format!("per-ULP yields min {min} max {max}"),
        ),
    ];
    finish(Finished {
        rt: &rt,
        cfg,
        driven,
        outs: collect(&outbox),
        statuses,
        ops_per_sample: RING as f64,
        checks,
        echo: None,
    })
}
