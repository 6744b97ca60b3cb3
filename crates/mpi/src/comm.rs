//! The world: mailboxes, point-to-point operations, cooperative blocking.

use crate::msg::{matches, Envelope, Rank, Received, Tag, ANY_SOURCE, ANY_TAG};
use crate::net::NetModel;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One rank's incoming-message queue.
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    queue: Mutex<VecDeque<Envelope>>,
}

impl Mailbox {
    fn deposit(&self, env: Envelope) {
        self.queue.lock().push_back(env);
    }

    /// Take the first *delivered* envelope matching `(src, tag)`.
    /// Non-overtaking: among messages from the same source, earlier
    /// sequence numbers match first (MPI ordering guarantee).
    fn take_match(&self, src: i32, tag: Tag) -> Option<Envelope> {
        let now = Instant::now();
        let mut q = self.queue.lock();
        // Find the matching envelope with the smallest sequence number that
        // has been "delivered" by the simulated network.
        let mut best: Option<(usize, u64)> = None;
        for (i, env) in q.iter().enumerate() {
            if env.deliver_at <= now
                && matches(env, src, tag)
                && best.map(|(_, seq)| env.seq < seq).unwrap_or(true)
            {
                best = Some((i, env.seq));
            }
        }
        best.and_then(|(i, _)| q.remove(i))
    }

    /// Is a matching (possibly undelivered) message present? (For probe.)
    fn probe(&self, src: i32, tag: Tag) -> Option<(Rank, Tag, usize)> {
        let now = Instant::now();
        let q = self.queue.lock();
        q.iter()
            .find(|e| e.deliver_at <= now && matches(e, src, tag))
            .map(|e| (e.src, e.tag, e.data.len()))
    }

    pub(crate) fn len(&self) -> usize {
        self.queue.lock().len()
    }
}

/// Shared state of a world of ranks.
#[derive(Debug)]
pub struct WorldShared {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) net: NetModel,
    seq: AtomicU64,
    pub(crate) barrier: ulp_pip::PipBarrier,
}

impl WorldShared {
    /// Mailboxes and a rendezvous barrier for `size` ranks under `net`.
    pub fn new(size: usize, net: NetModel) -> Arc<WorldShared> {
        Arc::new(WorldShared {
            mailboxes: (0..size).map(|_| Mailbox::default()).collect(),
            net,
            seq: AtomicU64::new(0),
            barrier: ulp_pip::PipBarrier::new(size),
        })
    }

    /// The world size (number of ranks).
    pub fn size(&self) -> usize {
        self.mailboxes.len()
    }
}

/// The communicator handle a rank computes with.
#[derive(Clone)]
pub struct RankCtx {
    pub(crate) rank: Rank,
    pub(crate) world: Arc<WorldShared>,
}

/// Handle for a non-blocking receive.
pub struct RecvRequest {
    ctx: RankCtx,
    src: i32,
    tag: Tag,
    done: Option<Received>,
}

impl RankCtx {
    /// The communicator for `rank` within `world`.
    pub fn new(rank: Rank, world: Arc<WorldShared>) -> RankCtx {
        RankCtx { rank, world }
    }

    /// This rank's number.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// Cooperative wait step used by every blocking operation: run another
    /// ULP if one is runnable, otherwise let the OS scheduler run someone.
    /// This is the latency-hiding primitive — a ULT/ULP rank stalls without
    /// stalling its kernel context.
    #[inline]
    pub(crate) fn stall(&self) {
        ulp_core::stall();
    }

    /// Eager (buffered) send: deposits the message with its simulated
    /// delivery time and returns immediately — `MPI_Send` with a buffered
    /// protocol, which is what small-message paths do in practice.
    pub fn send(&self, dest: Rank, tag: Tag, data: &[u8]) {
        assert!(dest < self.world.size(), "send to nonexistent rank {dest}");
        let env = Envelope {
            src: self.rank,
            tag,
            data: data.to_vec(),
            deliver_at: self.world.net.deliver_at(data.len()),
            seq: self.world.seq.fetch_add(1, Ordering::Relaxed),
        };
        self.world.mailboxes[dest].deposit(env);
    }

    /// Blocking receive with wildcard support (`ANY_SOURCE`/`ANY_TAG`).
    /// Cooperative: yields to other ULPs while waiting.
    pub fn recv(&self, src: i32, tag: Tag) -> Received {
        loop {
            if let Some(env) = self.world.mailboxes[self.rank].take_match(src, tag) {
                return Received {
                    src: env.src,
                    tag: env.tag,
                    data: env.data,
                };
            }
            self.stall();
        }
    }

    /// Non-blocking receive: returns a request to `test`/`wait` on —
    /// `MPI_Irecv`.
    pub fn irecv(&self, src: i32, tag: Tag) -> RecvRequest {
        RecvRequest {
            ctx: self.clone(),
            src,
            tag,
            done: None,
        }
    }

    /// Non-blocking probe: is a matching message available right now?
    pub fn iprobe(&self, src: i32, tag: Tag) -> Option<(Rank, Tag, usize)> {
        self.world.mailboxes[self.rank].probe(src, tag)
    }

    /// Send-and-receive in one call (deadlock-free pairwise exchange).
    pub fn sendrecv(
        &self,
        dest: Rank,
        send_tag: Tag,
        data: &[u8],
        src: i32,
        recv_tag: Tag,
    ) -> Received {
        self.send(dest, send_tag, data);
        self.recv(src, recv_tag)
    }

    /// Pending messages in this rank's mailbox (diagnostics).
    pub fn pending(&self) -> usize {
        self.world.mailboxes[self.rank].len()
    }
}

impl RecvRequest {
    /// Poll for completion.
    pub fn test(&mut self) -> bool {
        if self.done.is_some() {
            return true;
        }
        if let Some(env) = self.ctx.world.mailboxes[self.ctx.rank].take_match(self.src, self.tag) {
            self.done = Some(Received {
                src: env.src,
                tag: env.tag,
                data: env.data,
            });
            true
        } else {
            false
        }
    }

    /// Cooperative blocking wait.
    pub fn wait(mut self) -> Received {
        while !self.test() {
            self.ctx.stall();
        }
        self.done.expect("test() returned true")
    }
}

/// Re-exported wildcard constants on the context for ergonomics.
impl RankCtx {
    /// [`ANY_SOURCE`], re-exported on the context.
    pub const ANY_SOURCE: i32 = ANY_SOURCE;
    /// [`ANY_TAG`], re-exported on the context.
    pub const ANY_TAG: Tag = ANY_TAG;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_same_thread() {
        let w = WorldShared::new(2, NetModel::INSTANT);
        let a = RankCtx::new(0, w.clone());
        let b = RankCtx::new(1, w);
        a.send(1, 5, b"hello");
        let got = b.recv(0, 5);
        assert_eq!(got.data, b"hello");
        assert_eq!(got.src, 0);
        assert_eq!(got.tag, 5);
    }

    #[test]
    fn non_overtaking_order_per_pair() {
        let w = WorldShared::new(2, NetModel::INSTANT);
        let a = RankCtx::new(0, w.clone());
        let b = RankCtx::new(1, w);
        for i in 0..5u8 {
            a.send(1, 1, &[i]);
        }
        for i in 0..5u8 {
            assert_eq!(b.recv(0, 1).data, vec![i]);
        }
    }

    #[test]
    fn tag_selective_matching() {
        let w = WorldShared::new(2, NetModel::INSTANT);
        let a = RankCtx::new(0, w.clone());
        let b = RankCtx::new(1, w);
        a.send(1, 1, b"one");
        a.send(1, 2, b"two");
        assert_eq!(b.recv(0, 2).data, b"two");
        assert_eq!(b.recv(0, 1).data, b"one");
    }

    #[test]
    fn wildcard_source() {
        let w = WorldShared::new(3, NetModel::INSTANT);
        let a = RankCtx::new(0, w.clone());
        let c = RankCtx::new(2, w.clone());
        let b = RankCtx::new(1, w);
        a.send(1, 9, b"from0");
        c.send(1, 9, b"from2");
        let first = b.recv(ANY_SOURCE, 9);
        let second = b.recv(ANY_SOURCE, 9);
        let mut srcs = [first.src, second.src];
        srcs.sort();
        assert_eq!(srcs, [0, 2]);
    }

    #[test]
    fn network_latency_delays_delivery() {
        let w = WorldShared::new(2, NetModel::WAN);
        let a = RankCtx::new(0, w.clone());
        let b = RankCtx::new(1, w);
        let t0 = Instant::now();
        a.send(1, 0, &[0u8; 1024]);
        // Immediately after the send nothing is deliverable yet.
        assert!(b.iprobe(0, 0).is_none());
        let got = b.recv(0, 0);
        assert!(t0.elapsed() >= NetModel::WAN.latency, "recv returned early");
        assert_eq!(got.data.len(), 1024);
    }

    #[test]
    fn irecv_test_and_wait() {
        let w = WorldShared::new(2, NetModel::INSTANT);
        let a = RankCtx::new(0, w.clone());
        let b = RankCtx::new(1, w);
        let mut req = b.irecv(0, 3);
        assert!(!req.test());
        a.send(1, 3, b"later");
        let got = req.wait();
        assert_eq!(got.data, b"later");
    }

    #[test]
    fn sendrecv_pairwise() {
        let w = WorldShared::new(2, NetModel::INSTANT);
        let a = RankCtx::new(0, w.clone());
        let b = RankCtx::new(1, w);
        b.send(0, 7, b"pong");
        let got = a.sendrecv(1, 7, b"ping", 1, 7);
        assert_eq!(got.data, b"pong");
        assert_eq!(b.recv(0, 7).data, b"ping");
    }

    #[test]
    #[should_panic(expected = "nonexistent rank")]
    fn send_out_of_range_panics() {
        let w = WorldShared::new(1, NetModel::INSTANT);
        let a = RankCtx::new(0, w);
        a.send(5, 0, b"x");
    }
}
