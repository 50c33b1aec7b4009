//! Property tests: randomized mixed workloads (two-sided p2p, collectives,
//! one-sided signalled puts) produce identical virtual results under the
//! default engine (one execution slot per rank) and at every smaller slot
//! count. This is the scheduler's core contract: scheduling order may
//! change wall-clock execution, never the simulation.

use netsim::{run, ExecPolicy, RankStats, SimConfig, SrcSel, TagSel};
use proptest::prelude::*;

/// One communication round every rank executes (rounds are matched by
/// construction, so any script is deadlock-free).
#[derive(Clone, Debug)]
enum Round {
    /// Non-blocking ring shift: isend to the right, recv from the left.
    RingShift { tag: i32, len: usize },
    /// Workers send to rank 0; the root drains wildcard receives together.
    FanIn { len: usize },
    /// Communicator-wide barrier.
    Barrier,
    /// Signalled put to the right neighbour over a fresh symmetric segment.
    PutRing { len: usize },
}

fn round_strategy() -> impl Strategy<Value = Round> {
    prop_oneof![
        (0..4i32, 1..96usize).prop_map(|(tag, len)| Round::RingShift { tag, len }),
        (1..64usize).prop_map(|len| Round::FanIn { len }),
        Just(Round::Barrier),
        (1..48usize).prop_map(|len| Round::PutRing { len }),
    ]
}

/// Engine-independent per-rank counters (physical counters excluded).
fn det(s: &RankStats) -> [usize; 12] {
    [
        s.sends,
        s.recvs,
        s.bytes_sent,
        s.waits,
        s.waitalls,
        s.puts,
        s.bytes_put,
        s.gets,
        s.barriers,
        s.quiets,
        s.packed_bytes,
        s.datatype_commits,
    ]
}

/// Run the script under `exec`; return every virtual observable — final
/// clocks, per-rank payload checksums, per-rank deterministic counters.
fn run_script(
    nranks: usize,
    rounds: &[Round],
    exec: ExecPolicy,
) -> (Vec<u64>, Vec<u64>, Vec<[usize; 12]>) {
    let rounds = rounds.to_vec();
    let res = run(SimConfig::new(nranks).with_exec(exec), move |ctx| {
        let model = ctx.machine().mpi;
        let me = ctx.rank();
        let n = ctx.nranks();
        let mut check: u64 = 0;
        let mix = |v: u64, check: &mut u64| {
            *check = check.wrapping_mul(1099511628211).wrapping_add(v);
        };
        for (k, round) in rounds.iter().enumerate() {
            match round {
                Round::RingShift { tag, len } => {
                    let payload: Vec<u8> = (0..*len).map(|i| (me + i + k) as u8).collect();
                    let req = ctx.isend((me + 1) % n, *tag, &payload, &model);
                    let done =
                        ctx.recv(SrcSel::Exact((me + n - 1) % n), TagSel::Exact(*tag), &model);
                    ctx.wait_send(&req, &model);
                    mix(
                        done.payload.iter().map(|&b| b as u64).sum::<u64>(),
                        &mut check,
                    );
                }
                Round::FanIn { len } => {
                    // A fresh tag per round keeps rounds from cross-matching.
                    // Which sender binds to which wildcard receive is an
                    // application-level race (as in real MPI), so fold the
                    // fan-in set commutatively: the *set* of arrivals is
                    // deterministic even though the binding order is not.
                    let tag = 1000 + k as i32;
                    if me == 0 {
                        let reqs: Vec<_> = (1..n)
                            .map(|_| ctx.irecv(SrcSel::Any, TagSel::Exact(tag), &model))
                            .collect();
                        let fold: u64 = ctx
                            .waitall(&[], &reqs, &model)
                            .iter()
                            .map(|d| d.src as u64 + ((d.payload.len() as u64) << 8))
                            .sum();
                        mix(fold, &mut check);
                    } else {
                        ctx.send(0, tag, &vec![me as u8; *len], &model);
                    }
                }
                Round::Barrier => ctx.barrier(&model),
                Round::PutRing { len } => {
                    let group: Vec<usize> = (0..n).collect();
                    let seg = ctx.sym_alloc(&group, *len, &model);
                    let payload: Vec<u8> = (0..*len).map(|i| (me * 3 + i + k) as u8).collect();
                    ctx.put(seg, (me + 1) % n, 0, &payload, &model, true);
                    ctx.quiet(&model);
                    let t = ctx.wait_signals_raw(seg, 1);
                    ctx.advance_to(t);
                    let mut buf = vec![0u8; *len];
                    ctx.read_local(seg, 0, &mut buf);
                    mix(buf.iter().map(|&b| b as u64).sum::<u64>(), &mut check);
                    // Keep rounds apart so the next collective is uniform.
                    ctx.barrier(&model);
                }
            }
        }
        check
    });
    (
        res.final_times.iter().map(|t| t.as_nanos()).collect(),
        res.per_rank,
        res.stats.iter().map(det).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_random_workloads(
        nranks in 2usize..=5,
        rounds in proptest::collection::vec(round_strategy(), 1..6),
    ) {
        let ncpu = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
        let reference = run_script(nranks, &rounds, ExecPolicy::default());
        for workers in [1usize, 2, ncpu] {
            let got = run_script(nranks, &rounds, ExecPolicy::bounded(workers));
            prop_assert_eq!(
                &reference, &got,
                "bounded({}) diverged from the default on {:?}", workers, rounds
            );
        }
    }
}
