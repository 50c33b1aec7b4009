//! Communicators and two-sided point-to-point operations.
//!
//! A [`Comm`] is a group of global ranks with its own rank numbering and a
//! private tag namespace (the communicator id is folded into the wire tag,
//! so traffic on different communicators can never match — including under
//! `ANY_SOURCE`/`ANY_TAG`). WL-LSMS uses this structure directly: a world
//! communicator for the Wang–Landau master plus one sub-communicator per
//! LSMS instance.

use std::sync::Arc;

use bytes::Bytes;
use netsim::{CostModel, RankCtx, RecvDone, RecvRequest, SendRequest, SrcSel, TagSel};

use crate::pod::{as_bytes, copy_from_bytes, Pod};

/// Number of tag bits available to users within a communicator.
pub const TAG_BITS: u32 = 20;
/// Maximum user tag value (exclusive).
pub const MAX_USER_TAG: i32 = 1 << TAG_BITS;

/// A communicator: an ordered group of global ranks plus a tag namespace.
#[derive(Clone, Debug)]
pub struct Comm {
    /// `ranks[local] = global`; ascending is not required, but ranks must be
    /// distinct.
    ranks: Arc<Vec<usize>>,
    /// Namespace id folded into wire tags. World is 0.
    id: i32,
}

impl Comm {
    /// The world communicator over all ranks of the machine.
    pub fn world(ctx: &RankCtx) -> Comm {
        Comm {
            ranks: Arc::new((0..ctx.nranks()).collect()),
            id: 0,
        }
    }

    /// Build a sub-communicator from *local* ranks of this communicator.
    /// Every member must call with identical arguments; `id` must be unique
    /// per live communicator (1..=2047) and is the caller's responsibility —
    /// deterministic SPMD code assigns these statically (e.g. LSMS instance
    /// index + 1).
    pub fn subset(&self, id: i32, locals: &[usize]) -> Comm {
        assert!(id > 0 && id < (1 << 11), "communicator id out of range");
        let globals: Vec<usize> = locals.iter().map(|&l| self.ranks[l]).collect();
        let mut dedup = globals.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), globals.len(), "duplicate ranks in subset");
        Comm {
            ranks: Arc::new(globals),
            id,
        }
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// The local rank of the calling context, if it is a member.
    pub fn maybe_rank(&self, ctx: &RankCtx) -> Option<usize> {
        self.ranks.iter().position(|&g| g == ctx.rank())
    }

    /// The local rank of the calling context; panics if not a member.
    pub fn rank(&self, ctx: &RankCtx) -> usize {
        self.maybe_rank(ctx)
            .unwrap_or_else(|| panic!("rank {} not in communicator", ctx.rank()))
    }

    /// Translate a local rank to a global rank.
    pub fn global(&self, local: usize) -> usize {
        self.ranks[local]
    }

    /// The member global ranks, ascending (for barriers/segments).
    pub fn sorted_globals(&self) -> Vec<usize> {
        let mut g = self.ranks.as_ref().clone();
        g.sort_unstable();
        g
    }

    /// Whether the calling context is a member.
    pub fn contains(&self, ctx: &RankCtx) -> bool {
        self.maybe_rank(ctx).is_some()
    }

    fn wire_tag(&self, user: i32) -> i32 {
        assert!(
            (0..MAX_USER_TAG).contains(&user),
            "user tag {user} out of range 0..{MAX_USER_TAG}"
        );
        (self.id << TAG_BITS) | user
    }

    fn tag_sel(&self, user: Option<i32>) -> TagSel {
        match user {
            Some(t) => TagSel::Exact(self.wire_tag(t)),
            None => TagSel::Range {
                lo: self.id << TAG_BITS,
                hi: (self.id + 1) << TAG_BITS,
            },
        }
    }

    fn src_sel(&self, src: Option<usize>) -> SrcSel {
        match src {
            Some(local) => SrcSel::Exact(self.global(local)),
            None => SrcSel::Any,
        }
    }

    /// The MPI cost model of the machine.
    pub fn model(&self, ctx: &RankCtx) -> CostModel {
        ctx.machine().mpi
    }

    // -- raw-byte operations -------------------------------------------------

    /// Non-blocking send of raw bytes to local rank `dst` (`MPI_Isend`).
    pub fn isend(&self, ctx: &mut RankCtx, dst: usize, tag: i32, data: &[u8]) -> SendRequest {
        let m = self.model(ctx);
        ctx.isend(self.global(dst), self.wire_tag(tag), data, &m)
    }

    /// Non-blocking send taking ownership of the payload.
    pub fn isend_bytes(&self, ctx: &mut RankCtx, dst: usize, tag: i32, data: Bytes) -> SendRequest {
        let m = self.model(ctx);
        ctx.isend_bytes(self.global(dst), self.wire_tag(tag), data, &m)
    }

    /// Coalesced non-blocking send: charge `MPI_Pack` for copying the
    /// framed batch into the wire buffer, then post one send for the whole
    /// batch. This is the engine entry point for the directive layer's
    /// small-message aggregation (tuning overlays); the per-batch pack
    /// charge is what makes `packed_bytes` observable for coalesced runs.
    pub fn isend_packed(
        &self,
        ctx: &mut RankCtx,
        dst: usize,
        tag: i32,
        data: Bytes,
    ) -> SendRequest {
        let m = self.model(ctx);
        ctx.charge_pack(data.len(), &m);
        ctx.isend_bytes(self.global(dst), self.wire_tag(tag), data, &m)
    }

    /// Non-blocking receive (`MPI_Irecv`). `src`/`tag` of `None` mean
    /// `ANY_SOURCE`/`ANY_TAG` (scoped to this communicator).
    pub fn irecv(&self, ctx: &mut RankCtx, src: Option<usize>, tag: Option<i32>) -> RecvRequest {
        let m = self.model(ctx);
        ctx.irecv(self.src_sel(src), self.tag_sel(tag), &m)
    }

    /// Blocking send (`MPI_Send`).
    pub fn send(&self, ctx: &mut RankCtx, dst: usize, tag: i32, data: &[u8]) {
        let req = self.isend(ctx, dst, tag, data);
        self.wait_send(ctx, &req);
    }

    /// Blocking receive (`MPI_Recv`); returns payload and envelope info.
    pub fn recv(&self, ctx: &mut RankCtx, src: Option<usize>, tag: Option<i32>) -> RecvOut {
        let req = self.irecv(ctx, src, tag);
        self.wait_recv(ctx, &req)
    }

    /// `MPI_Wait` on a send request (per-call overhead).
    pub fn wait_send(&self, ctx: &mut RankCtx, req: &SendRequest) {
        let m = self.model(ctx);
        ctx.wait_send(req, &m);
    }

    /// `MPI_Wait` on a receive request (per-call overhead).
    pub fn wait_recv(&self, ctx: &mut RankCtx, req: &RecvRequest) -> RecvOut {
        let m = self.model(ctx);
        let done = ctx.wait_recv(req, &m);
        self.recv_out(done)
    }

    /// `MPI_Waitall` over mixed requests (consolidated overhead).
    pub fn waitall(
        &self,
        ctx: &mut RankCtx,
        sends: &[SendRequest],
        recvs: &[RecvRequest],
    ) -> Vec<RecvOut> {
        let m = self.model(ctx);
        ctx.waitall(sends, recvs, &m)
            .into_iter()
            .map(|d| self.recv_out(d))
            .collect()
    }

    fn recv_out(&self, done: RecvDone) -> RecvOut {
        let src_local = self
            .ranks
            .iter()
            .position(|&g| g == done.src)
            .expect("message from outside communicator matched inside it");
        RecvOut {
            data: done.payload,
            src: src_local,
            tag: done.tag & (MAX_USER_TAG - 1),
            unexpected: done.unexpected,
        }
    }

    // -- typed convenience ----------------------------------------------------

    /// Non-blocking send of a `Pod` slice.
    pub fn isend_slice<T: Pod>(
        &self,
        ctx: &mut RankCtx,
        dst: usize,
        tag: i32,
        data: &[T],
    ) -> SendRequest {
        self.isend(ctx, dst, tag, as_bytes(data))
    }

    /// Blocking send of a `Pod` slice.
    pub fn send_slice<T: Pod>(&self, ctx: &mut RankCtx, dst: usize, tag: i32, data: &[T]) {
        self.send(ctx, dst, tag, as_bytes(data));
    }

    /// Blocking receive into a `Pod` slice (length must match exactly).
    pub fn recv_into<T: Pod>(
        &self,
        ctx: &mut RankCtx,
        src: Option<usize>,
        tag: Option<i32>,
        out: &mut [T],
    ) -> RecvOut {
        let r = self.recv(ctx, src, tag);
        copy_from_bytes(out, &r.data);
        r
    }

    /// Barrier over this communicator (`MPI_Barrier`), reconciling clocks.
    pub fn barrier(&self, ctx: &mut RankCtx) {
        let m = self.model(ctx);
        if self.size() == ctx.nranks() {
            ctx.barrier(&m);
        } else {
            ctx.barrier_group(&self.sorted_globals(), &m);
        }
    }

    /// `MPI_Sendrecv`: a combined send/receive with one consolidated
    /// completion — the deadlock-free shift primitive.
    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Sendrecv signature
    pub fn sendrecv<T: Pod>(
        &self,
        ctx: &mut RankCtx,
        dst: usize,
        send_tag: i32,
        send: &[T],
        src: usize,
        recv_tag: i32,
        recv: &mut [T],
    ) {
        let sreq = self.isend(ctx, dst, send_tag, as_bytes(send));
        let rreq = self.irecv(ctx, Some(src), Some(recv_tag));
        let outs = self.waitall(ctx, &[sreq], std::slice::from_ref(&rreq));
        copy_from_bytes(recv, &outs[0].data);
    }
}

/// Result of a completed receive, in communicator-local terms.
#[derive(Clone, Debug)]
pub struct RecvOut {
    /// The payload bytes.
    pub data: Bytes,
    /// Local rank of the sender.
    pub src: usize,
    /// User tag.
    pub tag: i32,
    /// Whether the unexpected-message copy was paid.
    pub unexpected: bool,
}

impl RecvOut {
    /// Decode the payload as a `Pod` vector.
    pub fn to_vec<T: Pod>(&self) -> Vec<T> {
        crate::pod::vec_from_bytes(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{run, SimConfig};

    #[test]
    fn world_membership() {
        run(SimConfig::new(3), |ctx| {
            let w = Comm::world(ctx);
            assert_eq!(w.size(), 3);
            assert_eq!(w.rank(ctx), ctx.rank());
            assert_eq!(w.global(2), 2);
        });
    }

    #[test]
    fn typed_ping_pong() {
        run(SimConfig::new(2), |ctx| {
            let w = Comm::world(ctx);
            if w.rank(ctx) == 0 {
                w.send_slice(ctx, 1, 5, &[1.5f64, 2.5, 3.5]);
                let mut back = [0f64; 1];
                w.recv_into(ctx, Some(1), Some(6), &mut back);
                assert_eq!(back[0], 7.5);
            } else {
                let r = w.recv(ctx, Some(0), Some(5));
                let v: Vec<f64> = r.to_vec();
                assert_eq!(v, vec![1.5, 2.5, 3.5]);
                w.send_slice(ctx, 0, 6, &[v.iter().sum::<f64>()]);
            }
        });
    }

    #[test]
    fn sub_communicator_renumbers_and_isolates_tags() {
        run(SimConfig::new(4), |ctx| {
            let w = Comm::world(ctx);
            // Two disjoint sub-communicators with the same user tags.
            let a = w.subset(1, &[0, 1]);
            let b = w.subset(2, &[2, 3]);
            let my = ctx.rank();
            if a.contains(ctx) {
                let r = a.rank(ctx);
                assert_eq!(r, my);
                if r == 0 {
                    a.send_slice(ctx, 1, 9, &[my as i64]);
                } else {
                    let got = a.recv(ctx, None, None);
                    assert_eq!(got.to_vec::<i64>(), vec![0i64]);
                    assert_eq!(got.src, 0);
                    assert_eq!(got.tag, 9);
                }
            } else {
                let r = b.rank(ctx);
                assert_eq!(r, my - 2);
                if r == 0 {
                    b.send_slice(ctx, 1, 9, &[my as i64]);
                } else {
                    let got = b.recv(ctx, None, None);
                    // Must receive 2's message, never rank 0's (same tag,
                    // different communicator).
                    assert_eq!(got.to_vec::<i64>(), vec![2i64]);
                }
            }
        });
    }

    #[test]
    fn waitall_returns_in_request_order() {
        run(SimConfig::new(3), |ctx| {
            let w = Comm::world(ctx);
            match w.rank(ctx) {
                0 => {
                    let r2 = w.irecv(ctx, Some(2), Some(0));
                    let r1 = w.irecv(ctx, Some(1), Some(0));
                    let outs = w.waitall(ctx, &[], &[r2, r1]);
                    assert_eq!(outs[0].src, 2);
                    assert_eq!(outs[1].src, 1);
                }
                r => {
                    w.send_slice(ctx, 0, 0, &[r as i32]);
                }
            }
        });
    }

    #[test]
    fn ring_shift() {
        let n = 8;
        let res = run(SimConfig::new(n), |ctx| {
            let w = Comm::world(ctx);
            let me = w.rank(ctx);
            let next = (me + 1) % n;
            let prev = (me + n - 1) % n;
            let sreq = w.isend_slice(ctx, next, 0, &[me as i32]);
            let rreq = w.irecv(ctx, Some(prev), Some(0));
            let outs = w.waitall(ctx, &[sreq], &[rreq]);
            outs[0].to_vec::<i32>()[0]
        });
        for (r, &got) in res.per_rank.iter().enumerate() {
            assert_eq!(got as usize, (r + n - 1) % n);
        }
    }

    #[test]
    fn sendrecv_ring_no_deadlock() {
        let n = 6;
        let res = run(SimConfig::new(n), move |ctx| {
            let w = Comm::world(ctx);
            let me = w.rank(ctx);
            let send = [me as i64; 3];
            let mut recv = [0i64; 3];
            w.sendrecv(ctx, (me + 1) % n, 4, &send, (me + n - 1) % n, 4, &mut recv);
            recv[0]
        });
        for (r, &v) in res.per_rank.iter().enumerate() {
            assert_eq!(v as usize, (r + n - 1) % n);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_tag_rejected() {
        run(SimConfig::new(1), |ctx| {
            let w = Comm::world(ctx);
            w.isend(ctx, 0, MAX_USER_TAG, b"x");
        });
    }
}
