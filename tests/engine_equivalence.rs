//! Engine equivalence: every virtual quantity — makespans, per-step times,
//! operation counters — must be bit-identical between the default engine
//! (one execution slot per rank) and any smaller slot count. Only wall time
//! may differ; completion times are computed from virtual clocks alone, so
//! the slot count is unobservable in the results.

use netsim::ExecPolicy;
use wl_lsms::{
    fig3_single_atom_exec, fig4_spin_exec, fig5_overlap_exec, AtomCommVariant, AtomSizes,
    CoreStateParams, Measurement, SpinVariant, Topology,
};

/// The deterministic face of a measurement: virtual time plus the
/// engine-independent operation counters. Physical counters (unexpected
/// -queue depth, matcher scan steps, lock counts) legitimately vary with
/// wall-clock interleaving and are excluded.
fn det(m: &Measurement) -> (u64, bool, [usize; 14]) {
    let s = &m.stats;
    (
        m.time.as_nanos(),
        m.correct,
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
            s.race_checks,
            s.conflicts_found,
        ],
    )
}

fn engines() -> Vec<(&'static str, ExecPolicy)> {
    vec![
        ("bounded(1)", ExecPolicy::bounded(1)),
        ("bounded(2)", ExecPolicy::bounded(2)),
        ("bounded(auto)", ExecPolicy::bounded(0)),
        ("bounded(all)", ExecPolicy::bounded(usize::MAX)),
    ]
}

#[test]
fn fig4_identical_across_engines_at_paper_counts() {
    for m in [2usize, 5] {
        let topo = Topology::paper(m);
        for variant in [
            SpinVariant::Original,
            SpinVariant::OriginalWaitall,
            SpinVariant::DirectiveMpi2,
            SpinVariant::DirectiveShmem,
        ] {
            let reference = det(&fig4_spin_exec(&topo, variant, 2, ExecPolicy::default()));
            assert!(reference.1, "{variant:?} failed validation at m={m}");
            for (name, exec) in engines() {
                let got = det(&fig4_spin_exec(&topo, variant, 2, exec));
                assert_eq!(
                    reference, got,
                    "engine {name} diverged for {variant:?} at m={m}"
                );
            }
        }
    }
}

#[test]
fn fig3_identical_across_engines() {
    let topo = Topology::paper(3);
    for variant in [
        AtomCommVariant::Original,
        AtomCommVariant::DirectiveMpi2,
        AtomCommVariant::DirectiveShmem,
    ] {
        let reference = det(&fig3_single_atom_exec(
            &topo,
            variant,
            AtomSizes::default(),
            ExecPolicy::default(),
        ));
        assert!(reference.1, "{variant:?} failed validation");
        for (name, exec) in engines() {
            let got = det(&fig3_single_atom_exec(
                &topo,
                variant,
                AtomSizes::default(),
                exec,
            ));
            assert_eq!(reference, got, "engine {name} diverged for {variant:?}");
        }
    }
}

#[test]
fn fig5_identical_across_engines() {
    let topo = Topology::paper(2);
    let cparams = CoreStateParams::default().gpu();
    for directive in [false, true] {
        let reference = det(&fig5_overlap_exec(
            &topo,
            directive,
            cparams,
            AtomSizes::default(),
            2,
            ExecPolicy::default(),
        ));
        for (name, exec) in engines() {
            let got = det(&fig5_overlap_exec(
                &topo,
                directive,
                cparams,
                AtomSizes::default(),
                2,
                exec,
            ));
            assert_eq!(
                reference, got,
                "engine {name} diverged for directive={directive}"
            );
        }
    }
}

#[test]
fn bounded_engine_runs_2048_ranks() {
    // The scale-out smoke: a paper-shaped 2049-rank topology must complete
    // under the bounded engine with small stacks — the configuration the
    // fig_scale sweep uses past the paper's 337-process ceiling.
    let topo = Topology::paper(128);
    assert_eq!(topo.total_ranks(), 2049);
    let exec = ExecPolicy::bounded(0).with_stack_size(256 << 10);
    let meas = fig4_spin_exec(&topo, SpinVariant::OriginalWaitall, 1, exec);
    assert!(meas.correct, "2049-rank spin validation failed");
    assert!(meas.time.as_nanos() > 0);
}
