//! Property tests for tuning overlays: an all-`Keep` overlay is
//! behaviorally inert (bit-identical results across engines, identical to
//! running with no overlay at all), and coalescing overlays preserve
//! per-rank delivered-byte totals and payload content on randomized p2p
//! workloads — batching changes *when* bytes move, never *what* arrives.

use commint::prelude::*;
use commint::{Decision, Overlay, SiteDecision};
use mpisim::Comm;
use netsim::{run, ExecPolicy, SimConfig};
use proptest::prelude::*;

/// One directive region: rank 0 streams `iters` pieces of `count` i64s to
/// `dst` under `target`. Sites are unique per round (staging is per-site).
#[derive(Clone, Debug)]
struct Round {
    dst: usize,
    iters: usize,
    count: usize,
    shmem: bool,
    batch: Option<usize>,
}

fn round_strategy() -> impl Strategy<Value = Round> {
    (
        1..5usize,
        1..8usize,
        1..5usize,
        any::<bool>(),
        prop_oneof![Just(None), (2..6usize).prop_map(Some)],
    )
        .prop_map(|(dst, iters, count, shmem, batch)| Round {
            dst,
            iters,
            count,
            shmem,
            batch,
        })
}

/// Overlay for the script: per-round coalesce decisions (when enabled),
/// plus explicit keeps so every site is covered by a decision.
fn overlay_for(rounds: &[Round], coalesce: bool) -> Overlay {
    let mut ov = Overlay::default();
    for (k, r) in rounds.iter().enumerate() {
        let site = 100 + k as u32;
        let decision = match r.batch {
            Some(b) if coalesce => Decision::Coalesce { batch: b },
            _ => Decision::Keep,
        };
        ov.set(SiteDecision::new(site, decision));
    }
    ov
}

/// Run the script; returns per-rank (delivered bytes, content checksum,
/// final virtual time ns).
fn run_script(
    nranks: usize,
    rounds: &[Round],
    exec: ExecPolicy,
    overlay: Option<Overlay>,
) -> Vec<(u64, u64, u64)> {
    let rounds = rounds.to_vec();
    let res = run(SimConfig::new(nranks).with_exec(exec), move |ctx| {
        let comm = Comm::world(ctx);
        let mut session = CommSession::new(ctx, comm).without_ir();
        if let Some(ov) = overlay.clone() {
            session = session.with_overlay(ov);
        }
        let me = session.rank();
        let n = session.size();
        let mut delivered: u64 = 0;
        let mut check: u64 = 0;
        let mix = |v: u64, check: &mut u64| {
            *check = check.wrapping_mul(1099511628211).wrapping_add(v);
        };
        // Buffers live for the whole run and are reused across iterations:
        // buffer-reuse conflict syncs must fire on the same iterations in
        // every engine, which heap churn (allocator address recycling)
        // would make nondeterministic.
        let mut sbufs: Vec<Vec<i64>> = rounds.iter().map(|r| vec![0i64; r.count]).collect();
        let mut dbufs: Vec<Vec<i64>> = rounds.iter().map(|r| vec![0i64; r.count]).collect();
        for (k, r) in rounds.iter().enumerate() {
            let dst = r.dst % n;
            if dst == 0 {
                continue; // self-sends are rejected by validation
            }
            let site = 100 + k as u32;
            let sb = &mut sbufs[k];
            let db = &mut dbufs[k];
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(dst as i64))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(dst as i64)))
                .target(if r.shmem {
                    Target::Shmem
                } else {
                    Target::Mpi2Side
                })
                .max_comm_iter(r.iters as i64);
            session
                .region(&params, |reg| {
                    for i in 0..r.iters {
                        for (j, v) in sb.iter_mut().enumerate() {
                            *v = (k * 1000 + i * 10 + j) as i64;
                        }
                        reg.p2p()
                            .site(site)
                            .sbuf(Prim::new("src", &sb[..]))
                            .rbuf(PrimMut::new("dbuf", &mut db[..]))
                            .run()
                            .unwrap();
                        if me == dst {
                            delivered += (db.len() * 8) as u64;
                            for v in db.iter() {
                                mix(*v as u64, &mut check);
                            }
                        }
                    }
                })
                .unwrap();
        }
        session.flush();
        (delivered, check, ctx.now().as_nanos())
    });
    res.per_rank
        .into_iter()
        .zip(res.final_times)
        .map(|((d, c, _), t)| (d, c, t.as_nanos()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An overlay of all-`Keep` decisions reproduces bit-identical results
    /// (payloads AND virtual times) vs no overlay, across engines.
    #[test]
    fn keep_overlay_is_bit_identical(
        nranks in 2usize..=5,
        rounds in proptest::collection::vec(round_strategy(), 1..5),
    ) {
        let ncpu = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
        let reference = run_script(nranks, &rounds, ExecPolicy::default(), None);
        let keep = overlay_for(&rounds, false);
        for workers in [0usize, 1, ncpu] {
            let exec = if workers == 0 { ExecPolicy::default() } else { ExecPolicy::bounded(workers) };
            let got = run_script(nranks, &rounds, exec, Some(keep.clone()));
            prop_assert_eq!(
                &reference, &got,
                "all-keep overlay diverged (workers={}) on {:?}", workers, rounds
            );
        }
    }

    /// Coalescing overlays preserve per-rank delivered-byte totals and
    /// payload content; the coalesced run itself is engine-invariant.
    #[test]
    fn coalescing_preserves_payloads(
        nranks in 2usize..=5,
        rounds in proptest::collection::vec(round_strategy(), 1..5),
    ) {
        let baseline = run_script(nranks, &rounds, ExecPolicy::default(), None);
        let ov = overlay_for(&rounds, true);
        let tuned = run_script(nranks, &rounds, ExecPolicy::default(), Some(ov.clone()));
        for (r, (b, t)) in baseline.iter().zip(&tuned).enumerate() {
            prop_assert_eq!(b.0, t.0, "rank {} delivered bytes changed on {:?}", r, rounds);
            prop_assert_eq!(b.1, t.1, "rank {} payload content changed on {:?}", r, rounds);
        }
        let ncpu = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
        for workers in [1usize, ncpu] {
            let got = run_script(nranks, &rounds, ExecPolicy::bounded(workers), Some(ov.clone()));
            prop_assert_eq!(
                &tuned, &got,
                "coalesced run diverged under bounded({}) on {:?}", workers, rounds
            );
        }
    }
}
