//! `echo` — 1 server ULP × 4 client ULPs over the in-kernel loopback
//! sockets.
//!
//! The server decouples once and holds one `coupled_scope` around an epoll
//! loop over its listener and connections (the idiom of
//! `examples/echo_server.rs`). Each client is decoupled and, per request,
//! runs `coupled_scope { write 32-byte frame; read full reply }`. A frame is
//! an 8-byte request id followed by 24 seeded bytes.
//!
//! * **op / sample** — one request, clock from before the scope to after it.
//!
//! The serving path end to end — couple, socket write, sleeper wake through
//! the `kernel.socket` / `kernel.poll` wait queues, epoll fire, decouple —
//! i.e. the same byte streams as `syscall_mix`, used the other way round:
//! here there is always a sleeper to wake.

use super::{coupled, finish, Finished, Rep};
use crate::hist::LogHist;
use crate::rep::{collect, deposit, drive, Ctl, Outbox, Phase, RepCfg, UlpOut};
use crate::rng::{payload_pool, Digest, Rng};
use crate::span::{Name, SpanBuf};
use crate::traced::EchoView;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ulp_core::{coupled_scope, decouple, sys, EpollOp, Listener, PollEvents, Runtime};
use ulp_kernel::{Errno, Fd, KResult};

pub const NAME: &str = "echo";
pub const WHY: &str = "the serving path end to end: couple, socket write, sleeper wake through socket/poll wait queues, epoll fire, decouple; the same byte streams as syscall_mix but always with a sleeper to wake";

const CLIENTS: usize = 4;
/// The server is ULP (and span track) number `CLIENTS`.
const SERVER: usize = CLIENTS;
const FRAME: usize = 32;
const BODY: usize = FRAME - 8;
const POOL: usize = 64;
const CLIENT_SPAN_CAP: usize = 256 * 1024;
const SERVER_SPAN_CAP: usize = 512 * 1024;

struct Inputs {
    pool: Vec<Vec<u8>>,
    rng: Rng,
}

impl Inputs {
    fn new(seed: u64, client: usize) -> Inputs {
        let mut rng = Rng::new(seed, NAME, client as u64);
        Inputs {
            pool: payload_pool(&mut rng, POOL, BODY),
            rng,
        }
    }

    fn next_frame(&mut self, rid: u64) -> [u8; FRAME] {
        let mut f = [0u8; FRAME];
        f[..8].copy_from_slice(&rid.to_le_bytes());
        f[8..].copy_from_slice(&self.pool[self.rng.below(POOL as u64) as usize]);
        f
    }
}

pub fn input_digest(seed: u64) -> u64 {
    let mut d = Digest::default();
    for c in 0..CLIENTS {
        let mut inp = Inputs::new(seed, c);
        (1..=1024).for_each(|rid| d.bytes(&inp.next_frame(rid)));
    }
    d.finish()
}

/// Read exactly `buf.len()` bytes (a stream may deliver a reply in pieces).
fn read_full(fd: Fd, buf: &mut [u8]) -> KResult<()> {
    let mut got = 0;
    while got < buf.len() {
        match sys::read(fd, &mut buf[got..])? {
            0 => return Err(Errno::EPIPE),
            n => got += n,
        }
    }
    Ok(())
}

fn write_full(fd: Fd, data: &[u8]) -> KResult<()> {
    let mut sent = 0;
    while sent < data.len() {
        sent += sys::write(fd, &data[sent..])?;
    }
    Ok(())
}

/// The serving loop; runs coupled. Returns once every client has hung up.
fn serve(listener: &Arc<Listener>, ctl: &Ctl, sp: &mut SpanBuf, epoll_ns: &mut u64) -> KResult<()> {
    let lfd = sys::listen(listener)?;
    let ep = sys::epoll_create()?;
    sys::epoll_ctl(ep, EpollOp::Add, lfd, PollEvents::IN)?;
    ctl.ready();
    let mut closed = 0;
    let mut buf = [0u8; FRAME];
    while closed < CLIENTS {
        sp.set_on(ctl.phase() == Phase::Measure);
        let tok = sp.enter(Name::EpollWait, 0);
        let events = sys::epoll_wait(ep, 32, Some(Duration::from_millis(500)));
        *epoll_ns += sp.exit(tok);
        for (fd, ev) in events? {
            if fd == lfd {
                // Level-triggered IN on the listener: the backlog is
                // non-empty, so this accept cannot block.
                let conn = sp.call(Name::Accept, 0, || sys::accept(lfd))?;
                sys::epoll_ctl(ep, EpollOp::Add, conn, PollEvents::IN)?;
            } else if ev.intersects(PollEvents::IN | PollEvents::HUP) {
                let tok = sp.enter(Name::Read, 0);
                let n = sys::read(fd, &mut buf);
                // The request id travels in the frame, so the server's
                // spans join the client's.
                let rid = match n {
                    Ok(n) if n >= 8 => u64::from_le_bytes(buf[..8].try_into().expect("8 bytes")),
                    _ => 0,
                };
                sp.set_rid(tok, rid);
                sp.exit(tok);
                match n? {
                    0 => {
                        sys::epoll_ctl(ep, EpollOp::Del, fd, PollEvents::NONE)?;
                        sys::close(fd)?;
                        closed += 1;
                    }
                    n => sp.call(Name::Write, rid, || write_full(fd, &buf[..n]))?,
                }
            }
        }
    }
    sys::close(ep)?;
    sys::close(lfd)
}

fn server(
    listener: &Arc<Listener>,
    ctl: &Ctl,
    mut sp: SpanBuf,
    outbox: &Outbox,
    epoll_ns_out: &AtomicU64,
) -> i32 {
    let mut problems = Vec::new();
    let mut epoll_ns = 0;
    let served =
        decouple().and_then(|_| coupled_scope(|| serve(listener, ctl, &mut sp, &mut epoll_ns)));
    match served {
        Ok(Ok(())) => {}
        Ok(Err(e)) => problems.push(format!("serving loop: {e:?}")),
        Err(e) => problems.push(format!("server coupling: {e}")),
    }
    epoll_ns_out.store(epoll_ns, Ordering::Relaxed);
    deposit(
        outbox,
        UlpOut {
            index: SERVER,
            hist: None,
            spans: sp,
            problems,
        },
    );
    0
}

fn client(
    i: usize,
    seed: u64,
    listener: &Arc<Listener>,
    ctl: &Ctl,
    mut sp: SpanBuf,
    outbox: &Outbox,
) -> i32 {
    let mut problems = Vec::new();
    let mut inp = Inputs::new(seed, i);
    let mut hist = LogHist::default();
    let conn = decouple().and_then(|_| coupled_scope(|| sys::connect(listener)));
    ctl.ready();
    match conn {
        Ok(Ok(fd)) => {
            let slot = &ctl.slots[i];
            let (mut ops, mut failed) = (0u64, 0u64);
            loop {
                let phase = ctl.phase();
                if phase == Phase::Stop {
                    break;
                }
                sp.set_on(phase == Phase::Measure);
                let rid = ((i as u64 + 1) << 48) | (ops + failed + 1);
                let frame = inp.next_frame(rid);
                let mut reply = [0u8; FRAME];
                let t0 = Instant::now();
                let req = sp.enter(Name::Request, rid);
                let r = coupled(&mut sp, rid, |sp| {
                    sp.call(Name::Write, rid, || write_full(fd, &frame))?;
                    sp.call(Name::Read, rid, || read_full(fd, &mut reply))
                });
                sp.exit(req);
                let dt = t0.elapsed().as_nanos() as u64;
                // Byte-exact reply, every request.
                if matches!(r, Ok(Ok(()))) && reply == frame {
                    ops += 1;
                    slot.ops.store(ops, Ordering::Relaxed);
                } else {
                    failed += 1;
                    slot.failed.store(failed, Ordering::Relaxed);
                    if !matches!(r, Ok(Ok(()))) {
                        // The stream is out of step; a retry would hang.
                        problems.push(format!("request {rid:#x}: {r:?}"));
                        break;
                    }
                }
                if phase == Phase::Measure {
                    hist.record(dt);
                }
            }
            // Hanging up is what lets the server finish.
            if !matches!(coupled_scope(|| sys::close(fd)), Ok(Ok(()))) {
                problems.push("close failed".to_string());
            }
        }
        other => problems.push(format!("connect: {other:?}")),
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
    let ctl = Arc::new(Ctl::new(CLIENTS + 1));
    let outbox = Outbox::default();
    let listener = Listener::new();
    let epoll_ns = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    {
        let (ctl, outbox, listener, epoll_ns) = (
            ctl.clone(),
            outbox.clone(),
            listener.clone(),
            epoll_ns.clone(),
        );
        let sp = SpanBuf::maybe(
            cfg.traced,
            SERVER_SPAN_CAP,
            ctl.epoch,
            SERVER as u32,
            "server",
        );
        handles.push(rt.spawn("echo-server", move || {
            server(&listener, &ctl, sp, &outbox, &epoll_ns)
        }));
    }
    for i in 0..CLIENTS {
        let (ctl, outbox, listener, seed) =
            (ctl.clone(), outbox.clone(), listener.clone(), cfg.seed);
        let sp = SpanBuf::maybe(
            cfg.traced,
            CLIENT_SPAN_CAP,
            ctl.epoch,
            i as u32,
            &format!("client{i}"),
        );
        handles.push(rt.spawn(&format!("echo-client{i}"), move || {
            client(i, seed, &listener, &ctl, sp, &outbox)
        }));
    }
    let driven = drive(&rt, &ctl, cfg, CLIENTS + 1, started);
    let statuses = handles.iter().map(|h| h.wait()).collect();
    finish(Finished {
        rt: &rt,
        cfg,
        driven,
        outs: collect(&outbox),
        statuses,
        ops_per_sample: 1.0,
        checks: Vec::new(),
        echo: Some(EchoView {
            server_track: SERVER as u32,
            server_epoll_ns: epoll_ns.load(Ordering::Relaxed),
        }),
    })
}
