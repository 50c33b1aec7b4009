//! Property tests for the commscope wait-state analysis: on randomized
//! mixed workloads, the per-rank blame attribution sums exactly to each
//! rank's measured wait, the wait-kind buckets partition it, the critical
//! path is well-formed, and the serialized profile is identical under every
//! execution engine.

use commscope::{analyze, profile_json, validate_profile, Analysis};
use netsim::{run, ExecPolicy, RankMetrics, SimConfig, SrcSel, TagSel, Time, TraceEvent};
use proptest::prelude::*;

/// One communication round every rank executes (rounds are matched by
/// construction, so any script is deadlock-free).
#[derive(Clone, Debug)]
enum Round {
    /// Non-blocking ring shift: isend to the right, recv from the left.
    RingShift { tag: i32, len: usize },
    /// Workers send to rank 0; the root drains the receives in a Waitall.
    /// Receives match by exact source: wildcard binding is an application
    /// -level race (engine-dependent by design), and this suite asserts
    /// engine-invariance of the profile.
    FanIn { len: usize },
    /// Communicator-wide barrier.
    Barrier,
    /// Local computation skewed by rank to create genuine late senders.
    Skew { ns: u64 },
}

fn round_strategy() -> impl Strategy<Value = Round> {
    prop_oneof![
        (0..4i32, 1..96usize).prop_map(|(tag, len)| Round::RingShift { tag, len }),
        (1..64usize).prop_map(|len| Round::FanIn { len }),
        Just(Round::Barrier),
        (1..5000u64).prop_map(|ns| Round::Skew { ns }),
    ]
}

fn run_observed(
    nranks: usize,
    rounds: &[Round],
    exec: ExecPolicy,
) -> (Vec<TraceEvent>, Vec<RankMetrics>, Vec<Time>) {
    let rounds = rounds.to_vec();
    let res = run(
        SimConfig::new(nranks)
            .with_exec(exec)
            .with_trace()
            .with_metrics(),
        move |ctx| {
            let model = ctx.machine().mpi;
            let me = ctx.rank();
            let n = ctx.nranks();
            for (k, round) in rounds.iter().enumerate() {
                match round {
                    Round::RingShift { tag, len } => {
                        let payload = vec![(me + k) as u8; *len];
                        let req = ctx.isend((me + 1) % n, *tag, &payload, &model);
                        ctx.recv(SrcSel::Exact((me + n - 1) % n), TagSel::Exact(*tag), &model);
                        ctx.wait_send(&req, &model);
                    }
                    Round::FanIn { len } => {
                        let tag = 1000 + k as i32;
                        if me == 0 {
                            let reqs: Vec<_> = (1..n)
                                .map(|src| {
                                    ctx.irecv(SrcSel::Exact(src), TagSel::Exact(tag), &model)
                                })
                                .collect();
                            ctx.waitall(&[], &reqs, &model);
                        } else {
                            ctx.send(0, tag, &vec![me as u8; *len], &model);
                        }
                    }
                    Round::Barrier => ctx.barrier(&model),
                    Round::Skew { ns } => {
                        ctx.compute(Time::from_nanos(ns * (me as u64 + 1)));
                    }
                }
            }
        },
    );
    (
        res.trace.expect("trace enabled"),
        res.metrics.expect("metrics enabled"),
        res.final_times,
    )
}

/// The analysis invariants that must hold on any trace.
fn check_invariants(a: &Analysis, nranks: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.ranks.len(), nranks);
    for p in &a.ranks {
        // The wait-kind buckets partition the measured wait...
        let buckets =
            p.late_sender_ns + p.late_receiver_ns + p.barrier_ns + p.quiet_ns + p.overhead_ns;
        prop_assert_eq!(
            buckets,
            p.total_wait_ns,
            "rank {}: kind buckets {} != total wait {}",
            p.rank,
            buckets,
            p.total_wait_ns
        );
        // ...and so does the per-culprit blame vector.
        let blamed: u64 = p.blame.iter().sum();
        prop_assert_eq!(
            blamed,
            p.total_wait_ns,
            "rank {}: blame sum {} != total wait {}",
            p.rank,
            blamed,
            p.total_wait_ns
        );
    }
    // Interval decomposition re-aggregates to the same totals.
    for r in 0..nranks {
        let from_intervals: u64 = a
            .intervals
            .iter()
            .filter(|iv| iv.rank == r)
            .map(|iv| iv.blocked_ns + iv.overhead_ns)
            .sum();
        prop_assert_eq!(from_intervals, a.ranks[r].total_wait_ns);
    }
    // The critical path is inside the run, ordered, and ends at the makespan.
    for s in &a.critical_path {
        prop_assert!(s.start <= s.end);
        prop_assert!(s.end <= a.makespan);
    }
    for w in a.critical_path.windows(2) {
        prop_assert!(w[0].end <= w[1].end, "path ends not monotone");
    }
    if a.makespan > Time::ZERO {
        prop_assert!(!a.critical_path.is_empty());
        prop_assert_eq!(a.critical_path.last().expect("non-empty").end, a.makespan);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn blame_partitions_wait_and_profiles_agree_across_engines(
        nranks in 2usize..=5,
        rounds in proptest::collection::vec(round_strategy(), 1..6),
    ) {
        let (trace, metrics, finals) = run_observed(nranks, &rounds, ExecPolicy::default());
        let analysis = analyze(&trace, nranks, &finals);
        check_invariants(&analysis, nranks)?;
        // The backward walk consumes each event at most once.
        prop_assert!(analysis.critical_path.len() <= trace.len() + nranks + 1);

        // The serialized profile passes its own validator (which re-derives
        // the blame invariant from the document).
        let doc = profile_json("prop", &[], &analysis, &metrics);
        let problems = validate_profile(&doc);
        prop_assert!(problems.is_empty(), "profile invalid: {:?}", problems);
        let rendered = doc.render();

        // Engine invariance: the whole observability pipeline is a pure
        // function of virtual time, so the rendered profile is identical
        // under the bounded scheduler at any width.
        for workers in [1usize, 3] {
            let (t2, m2, f2) = run_observed(nranks, &rounds, ExecPolicy::bounded(workers));
            let a2 = analyze(&t2, nranks, &f2);
            let r2 = profile_json("prop", &[], &a2, &m2).render();
            prop_assert_eq!(&rendered, &r2, "profile differs under bounded({})", workers);
        }
    }
}
