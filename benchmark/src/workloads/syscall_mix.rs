//! `syscall_mix` — 2 BLTs that never decouple (KLTs), each with its own
//! 64 KiB tmpfs file, pipe and socketpair, issue seeded batches of 64 calls:
//! `getpid` 30 %, `pread` 256 B 15 %, `pwrite` 256 B 15 %, `stat` 10 %,
//! `open`→`close` 10 %, `lseek` 5 %, pipe `write`→`read` 256 B 8 %,
//! socketpair `write`→`read` 256 B 7 %.
//!
//! * **op** — one system call (the three paired entries count two).
//! * **sample** — one 64-entry batch, so the percentiles are µs per batch.
//!
//! 100 % `core.sys` veneer + `kernel.syscall` entry + the `kernel.fs` /
//! `kernel.pipe` / `kernel.socket` data paths with **no sleeper ever**, no
//! switches, no couples. The two threads share no object, so only
//! kernel-global state can make them interfere. Reads sit beside writes and
//! path calls beside fd calls in one mix so that a gain for one that costs
//! another shows.

use super::{finish, Finished, Rep};
use crate::hist::LogHist;
use crate::rep::{collect, deposit, drive, Ctl, Outbox, Phase, RepCfg, UlpOut};
use crate::rng::{payload_pool, Digest, Rng};
use crate::span::{Name, SpanBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use ulp_core::{sys, Runtime};
use ulp_kernel::{Errno, Fd, KResult, OpenFlags, Whence};

pub const NAME: &str = "syscall_mix";
pub const WHY: &str = "two KLTs sharing no object issue a seeded syscall mix: veneer + syscall entry + fs/pipe/socket data paths with no sleeper, so only kernel-global state can make them interfere";

const THREADS: usize = 2;
const FILE_LEN: usize = 64 * 1024;
const IO: usize = 256;
const BATCH: usize = 64;
const POOL: usize = 64;
const SPAN_CAP: usize = 512 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Getpid,
    Pread { off: u64 },
    Pwrite { off: u64, payload: usize },
    Stat,
    OpenClose,
    Lseek { off: u64 },
    PipeRt { payload: usize },
    SockRt { payload: usize },
}

struct Inputs {
    /// Initial file content, and what `pwrite` payloads are drawn from.
    initial: Vec<u8>,
    pool: Vec<Vec<u8>>,
    rng: Rng,
}

impl Inputs {
    fn new(seed: u64, thread: usize) -> Inputs {
        let mut rng = Rng::new(seed, NAME, thread as u64);
        let mut initial = vec![0u8; FILE_LEN];
        rng.fill(&mut initial);
        Inputs {
            initial,
            pool: payload_pool(&mut rng, POOL, IO),
            rng,
        }
    }

    fn next_op(&mut self) -> Op {
        let off = self.rng.below((FILE_LEN - IO + 1) as u64);
        let payload = self.rng.below(POOL as u64) as usize;
        match self.rng.below(100) {
            0..=29 => Op::Getpid,
            30..=44 => Op::Pread { off },
            45..=59 => Op::Pwrite { off, payload },
            60..=69 => Op::Stat,
            70..=79 => Op::OpenClose,
            80..=84 => Op::Lseek { off },
            85..=92 => Op::PipeRt { payload },
            _ => Op::SockRt { payload },
        }
    }
}

pub fn input_digest(seed: u64) -> u64 {
    let mut d = Digest::default();
    for t in 0..THREADS {
        let mut inp = Inputs::new(seed, t);
        d.bytes(&inp.initial);
        inp.pool.iter().for_each(|p| d.bytes(p));
        for _ in 0..4096 {
            d.bytes(format!("{:?}", inp.next_op()).as_bytes());
        }
    }
    d.finish()
}

/// One thread's kernel objects plus the harness's shadow of the file.
struct Objects {
    path: String,
    file: Fd,
    pipe: (Fd, Fd),
    sock: (Fd, Fd),
    shadow: Vec<u8>,
}

impl Objects {
    fn create(thread: usize, initial: &[u8]) -> KResult<Objects> {
        let path = format!("/syscall_mix_{thread}.dat");
        let file = sys::open(&path, OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::TRUNC)?;
        if sys::pwrite(file, 0, initial)? != initial.len() {
            return Err(Errno::EIO);
        }
        Ok(Objects {
            path,
            file,
            pipe: sys::pipe()?,
            sock: sys::socketpair()?,
            shadow: initial.to_vec(),
        })
    }

    /// `write` on `tx`, `read` on `rx`, byte-exact.
    fn round_trip(sp: &mut SpanBuf, tx: Fd, rx: Fd, data: &[u8]) -> KResult<()> {
        let mut back = [0u8; IO];
        if sp.call(Name::Write, 0, || sys::write(tx, data))? != IO
            || sp.call(Name::Read, 0, || sys::read(rx, &mut back))? != IO
            || back != data
        {
            return Err(Errno::EIO);
        }
        Ok(())
    }

    /// Issue `op` and check its result; returns the system calls it made.
    fn issue(&mut self, sp: &mut SpanBuf, op: Op, pool: &[Vec<u8>]) -> KResult<u64> {
        match op {
            Op::Getpid => {
                sp.call(Name::Getpid, 0, sys::getpid)?;
            }
            Op::Pread { off } => {
                let mut buf = [0u8; IO];
                let n = sp.call(Name::Pread, 0, || sys::pread(self.file, off, &mut buf))?;
                // Every read is compared with the harness's shadow copy.
                if n != IO || buf != self.shadow[off as usize..off as usize + IO] {
                    return Err(Errno::EIO);
                }
            }
            Op::Pwrite { off, payload } => {
                let data = &pool[payload];
                if sp.call(Name::Pwrite, 0, || sys::pwrite(self.file, off, data))? != IO {
                    return Err(Errno::EIO);
                }
                self.shadow[off as usize..off as usize + IO].copy_from_slice(data);
            }
            Op::Stat => {
                if sp.call(Name::Stat, 0, || sys::stat(&self.path))?.size != FILE_LEN as u64 {
                    return Err(Errno::EIO);
                }
            }
            Op::OpenClose => {
                let fd = sp.call(Name::Open, 0, || sys::open(&self.path, OpenFlags::RDONLY))?;
                sp.call(Name::Close, 0, || sys::close(fd))?;
                return Ok(2);
            }
            Op::Lseek { off } => {
                let at = sp.call(Name::Lseek, 0, || {
                    sys::lseek(self.file, off as i64, Whence::Set)
                })?;
                if at != off {
                    return Err(Errno::EIO);
                }
            }
            Op::PipeRt { payload } => {
                Objects::round_trip(sp, self.pipe.1, self.pipe.0, &pool[payload])?;
                return Ok(2);
            }
            Op::SockRt { payload } => {
                Objects::round_trip(sp, self.sock.0, self.sock.1, &pool[payload])?;
                return Ok(2);
            }
        }
        Ok(1)
    }

    /// End-of-run check: the whole file equals the shadow.
    fn verify(&self) -> Result<(), String> {
        let mut got = vec![0u8; FILE_LEN];
        match sys::pread(self.file, 0, &mut got) {
            Ok(FILE_LEN) if got == self.shadow => Ok(()),
            other => Err(format!("file differs from shadow copy (pread: {other:?})")),
        }
    }
}

fn thread(i: usize, seed: u64, ctl: &Ctl, mut sp: SpanBuf, outbox: &Outbox) -> i32 {
    let mut problems = Vec::new();
    let mut inp = Inputs::new(seed, i);
    let mut hist = LogHist::default();
    match Objects::create(i, &inp.initial) {
        Err(e) => {
            problems.push(format!("set-up: {e:?}"));
            ctl.ready();
        }
        Ok(mut objs) => {
            ctl.ready();
            let slot = &ctl.slots[i];
            let (mut calls, mut failed) = (0u64, 0u64);
            loop {
                let phase = ctl.phase();
                if phase == Phase::Stop {
                    break;
                }
                sp.set_on(phase == Phase::Measure);
                let t0 = Instant::now();
                let batch = sp.enter(Name::Batch, 0);
                for _ in 0..BATCH {
                    match objs.issue(&mut sp, inp.next_op(), &inp.pool) {
                        Ok(n) => calls += n,
                        Err(_) => failed += 1,
                    }
                }
                sp.exit(batch);
                let dt = t0.elapsed().as_nanos() as u64;
                slot.ops.store(calls, Ordering::Relaxed);
                slot.failed.store(failed, Ordering::Relaxed);
                if phase == Phase::Measure {
                    hist.record(dt);
                }
            }
            if let Err(e) = objs.verify() {
                problems.push(e);
            }
        }
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
    let ctl = Arc::new(Ctl::new(THREADS));
    let outbox = Outbox::default();
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let (ctl, outbox, seed) = (ctl.clone(), outbox.clone(), cfg.seed);
            let sp = SpanBuf::maybe(
                cfg.traced,
                SPAN_CAP,
                ctl.epoch,
                i as u32,
                &format!("klt{i}"),
            );
            rt.spawn(&format!("syscall-mix{i}"), move || {
                thread(i, seed, &ctl, sp, &outbox)
            })
        })
        .collect();
    let driven = drive(&rt, &ctl, cfg, THREADS, started);
    let statuses = handles.iter().map(|h| h.wait()).collect();
    // Paired entries make two calls, so a batch spans a little over 64 ops;
    // take the ratio the window actually saw.
    let outs = collect(&outbox);
    let samples: u64 = outs
        .iter()
        .filter_map(|o| o.hist.as_ref())
        .map(LogHist::count)
        .sum();
    let ops_per_sample = driven.window.ops as f64 / samples.max(1) as f64;
    finish(Finished {
        rt: &rt,
        cfg,
        driven,
        outs,
        statuses,
        ops_per_sample,
        checks: Vec::new(),
        echo: None,
    })
}
