//! `couple_io` — 4 decoupled BLTs each loop
//! `coupled_scope { getpid; open(O_WRONLY|O_CREAT|O_TRUNC) own file; write
//! 256 seeded bytes; close }` and then one `yield_now()`.
//!
//! * **op / sample** — one scope, clock from before it to after it.
//!
//! The paper's Table V / Fig. 7 idiom and its central claim: every op
//! asserts that `getpid()` inside the scope is the BLT's own pid
//! (system-call consistency). Dominated by the Table-I protocol and KC
//! idling, with the run queue oscillating between empty and a few entries —
//! the scheduler park/wake regime, the opposite of `yield_ring`.

use super::{coupled, finish, Finished, Rep};
use crate::hist::LogHist;
use crate::rep::{collect, deposit, drive, Ctl, Outbox, Phase, RepCfg, UlpOut};
use crate::rng::{payload_pool, Digest, Rng};
use crate::span::{Name, SpanBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use ulp_core::{coupled_scope, decouple, sys, yield_now, Runtime};
use ulp_kernel::{Errno, KResult, OpenFlags, Pid};

pub const NAME: &str = "couple_io";
pub const WHY: &str = "the paper's Table V / Fig 7 idiom: couple, getpid+open+write+close on the own KC, decouple; asserts system-call consistency per op; scheduler park/wake regime";

const WORKERS: usize = 4;
const PAYLOAD: usize = 256;
const POOL: usize = 64;
const SPAN_CAP: usize = 256 * 1024;

/// One worker's seeded inputs: a pool of payloads and the stream that picks
/// one per operation.
struct Inputs {
    pool: Vec<Vec<u8>>,
    rng: Rng,
}

impl Inputs {
    fn new(seed: u64, worker: usize) -> Inputs {
        let mut rng = Rng::new(seed, NAME, worker as u64);
        Inputs {
            pool: payload_pool(&mut rng, POOL, PAYLOAD),
            rng,
        }
    }

    fn next_payload(&mut self) -> usize {
        self.rng.below(POOL as u64) as usize
    }
}

pub fn input_digest(seed: u64) -> u64 {
    let mut d = Digest::default();
    for w in 0..WORKERS {
        let mut inp = Inputs::new(seed, w);
        inp.pool.iter().for_each(|p| d.bytes(p));
        (0..1024).for_each(|_| d.u64(inp.next_payload() as u64));
    }
    d.finish()
}

/// The body of one scope; runs coupled.
fn scope_body(sp: &mut SpanBuf, rid: u64, path: &str, payload: &[u8]) -> KResult<Pid> {
    let pid = sp.call(Name::Getpid, rid, sys::getpid)?;
    let flags = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
    let fd = sp.call(Name::Open, rid, || sys::open(path, flags))?;
    let wrote = sp.call(Name::Write, rid, || sys::write(fd, payload));
    sp.call(Name::Close, rid, || sys::close(fd))?;
    if wrote? != payload.len() {
        return Err(Errno::EIO);
    }
    Ok(pid)
}

/// End-of-run check, coupled: the file holds exactly the last payload.
fn verify_file(path: &str, expect: &[u8]) -> Result<(), String> {
    let st = sys::stat(path).map_err(|e| format!("stat: {e:?}"))?;
    if st.size != PAYLOAD as u64 {
        return Err(format!("{path} is {} bytes, expected {PAYLOAD}", st.size));
    }
    let fd = sys::open(path, OpenFlags::RDONLY).map_err(|e| format!("open: {e:?}"))?;
    let mut got = vec![0u8; PAYLOAD];
    let n = sys::read(fd, &mut got).map_err(|e| format!("read: {e:?}"))?;
    sys::close(fd).map_err(|e| format!("close: {e:?}"))?;
    if n != PAYLOAD || got != expect {
        return Err(format!(
            "{path} does not read back the last payload written"
        ));
    }
    Ok(())
}

fn worker(i: usize, seed: u64, ctl: &Ctl, mut sp: SpanBuf, outbox: &Outbox) -> i32 {
    let mut problems = Vec::new();
    let mut inp = Inputs::new(seed, i);
    let path = format!("/couple_io_{i}.dat");
    // Still a KLT here, so this is the BLT's own pid by construction.
    let my_pid = sys::getpid();
    if let Err(e) = decouple() {
        problems.push(format!("decouple: {e}"));
    }
    ctl.ready();
    let slot = &ctl.slots[i];
    let mut hist = LogHist::default();
    let (mut ops, mut failed, mut last) = (0u64, 0u64, None);
    loop {
        let phase = ctl.phase();
        if phase == Phase::Stop {
            break;
        }
        sp.set_on(phase == Phase::Measure);
        let k = inp.next_payload();
        let rid = ((i as u64 + 1) << 48) | (ops + failed + 1);
        let t0 = Instant::now();
        let req = sp.enter(Name::Request, rid);
        let r = coupled(&mut sp, rid, |sp| scope_body(sp, rid, &path, &inp.pool[k]));
        sp.exit(req);
        let dt = t0.elapsed().as_nanos() as u64;
        // The consistency assert: the pid seen inside the scope is ours.
        if matches!(r, Ok(Ok(pid)) if Ok(pid) == my_pid) {
            ops += 1;
            slot.ops.store(ops, Ordering::Relaxed);
            last = Some(k);
        } else {
            failed += 1;
            slot.failed.store(failed, Ordering::Relaxed);
        }
        if phase == Phase::Measure {
            hist.record(dt);
        }
        sp.call(Name::YieldNow, 0, yield_now);
    }
    match last {
        Some(k) => match coupled_scope(|| verify_file(&path, &inp.pool[k])) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => problems.push(e),
            Err(e) => problems.push(format!("couple for verification: {e}")),
        },
        None => problems.push("no operation succeeded".to_string()),
    }
    deposit(
        outbox,
        UlpOut {
            index: i,
            hist: Some(hist),
            spans: sp,
            problems,
        },
    );
    0
}

pub fn run(cfg: &RepCfg, started: Instant) -> Rep {
    let rt = Runtime::new();
    let ctl = Arc::new(Ctl::new(WORKERS));
    let outbox = Outbox::default();
    let handles: Vec<_> = (0..WORKERS)
        .map(|i| {
            let (ctl, outbox, seed) = (ctl.clone(), outbox.clone(), cfg.seed);
            let sp = SpanBuf::maybe(
                cfg.traced,
                SPAN_CAP,
                ctl.epoch,
                i as u32,
                &format!("worker{i}"),
            );
            rt.spawn(&format!("couple-io{i}"), move || {
                worker(i, seed, &ctl, sp, &outbox)
            })
        })
        .collect();
    let driven = drive(&rt, &ctl, cfg, WORKERS, started);
    let statuses = handles.iter().map(|h| h.wait()).collect();
    finish(Finished {
        rt: &rt,
        cfg,
        driven,
        outs: collect(&outbox),
        statuses,
        ops_per_sample: 1.0,
        checks: Vec::new(),
        echo: None,
    })
}
