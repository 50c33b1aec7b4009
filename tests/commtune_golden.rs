//! Golden-file tests for the commtune feedback loop: a committed fig4
//! profile → overlay fixture (regenerate with `BLESS=1`), the stale-schema
//! gate (exit code 3 from the CLI), and a small-scale A/B sanity check —
//! the tuned run must beat the untuned directive run with bit-identical
//! payloads, across execution engines.
//!
//! Regenerate goldens after an intentional output change with
//! `BLESS=1 cargo test -p integration --test commtune_golden`.

use std::path::PathBuf;

use commint::json::{self, Json};
use commscope::{analyze, profile_json, validate_profile};
use commtune::{overlay_from_json, overlay_to_json, tune, TuneOptions};
use netsim::ExecPolicy;
use wl_lsms::{fig4_spin_observed, fig4_spin_tuned, SpinVariant, Topology};

const STEPS: usize = 2;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/tune_golden")
}

/// Same off-sweep topology as the commscope goldens: 2 instances x 4 ranks
/// + WL master = 9 ranks.
fn topo() -> Topology {
    Topology::new(2, 4)
}

fn check_golden(name: &str, text: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read golden {name}: {e} (run with BLESS=1 to create)"));
    assert_eq!(
        text, want,
        "{name}: output drifted from golden (run with BLESS=1 after intentional changes)"
    );
}

fn fig4_profile(exec: ExecPolicy) -> Json {
    let obs = fig4_spin_observed(&topo(), SpinVariant::DirectiveMpi2, STEPS, exec);
    let nranks = obs.final_times.len();
    let analysis = analyze(&obs.trace, nranks, &obs.final_times);
    let doc = profile_json(
        "fig4",
        &[("steps".to_string(), STEPS as i64)],
        &analysis,
        &obs.metrics,
    );
    assert!(validate_profile(&doc).is_empty());
    doc
}

#[test]
fn fig4_profile_to_overlay_matches_golden() {
    let profile = fig4_profile(ExecPolicy::default());
    let overlay = tune(&profile, &TuneOptions::default()).expect("tune fig4 profile");

    // The WL→privileged scatter (site 11, 4 pieces of 24B per receiver per
    // step at this topology) must coalesce; the privileged→worker
    // forwarding (site 12, one piece per receiver per step) must not.
    assert_eq!(
        overlay.coalesce_batch_for(11),
        Some(4),
        "site 11 coalesces at the per-receiver piece count"
    );
    use commint::Decision;
    assert_eq!(
        overlay.decision_for(12).map(|d| d.decision),
        Some(Decision::Keep),
        "site 12 has nothing to batch"
    );

    let rendered = format!("{}\n", overlay_to_json(&overlay).render());
    check_golden("fig4.overlay.json", &rendered);

    // The committed fixture round-trips through the schema gate.
    let back = overlay_from_json(&json::parse(&rendered).unwrap()).unwrap();
    assert_eq!(back, overlay);

    // Profiles (and therefore overlays) are engine-invariant.
    let ncpu = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    for workers in [1usize, ncpu] {
        let p = fig4_profile(ExecPolicy::bounded(workers));
        let ov = tune(&p, &TuneOptions::default()).unwrap();
        assert_eq!(ov, overlay, "overlay differs under bounded({workers})");
    }
}

#[test]
fn stale_overlay_rejected_with_exit_3() {
    let dir = std::env::temp_dir().join(format!("commtune_stale_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // A current-schema overlay validates cleanly (exit 0).
    let profile = fig4_profile(ExecPolicy::default());
    let overlay = tune(&profile, &TuneOptions::default()).unwrap();
    let good = dir.join("good.overlay.json");
    std::fs::write(&good, overlay_to_json(&overlay).render()).unwrap();
    assert_eq!(
        commtune::cli_main(&["--validate".into(), good.display().to_string()]),
        0
    );

    // Tamper: bump the recorded schema — the gate must refuse with exit 3.
    let mut doc = overlay_to_json(&overlay);
    if let Json::Obj(fields) = &mut doc {
        for (k, v) in fields.iter_mut() {
            if k == "schema" {
                *v = Json::Int(commint::OVERLAY_SCHEMA + 1);
            }
        }
    }
    let stale = dir.join("stale.overlay.json");
    std::fs::write(&stale, doc.render()).unwrap();
    assert_eq!(
        commtune::cli_main(&["--validate".into(), stale.display().to_string()]),
        3,
        "stale-schema overlay must exit 3"
    );

    // Unparseable input is a plain input error (exit 2), not a schema gate.
    let junk = dir.join("junk.overlay.json");
    std::fs::write(&junk, "not json").unwrap();
    assert_eq!(
        commtune::cli_main(&["--validate".into(), junk.display().to_string()]),
        2
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tuned_fig4_beats_untuned_with_identical_physics() {
    let profile = fig4_profile(ExecPolicy::default());
    let overlay = tune(&profile, &TuneOptions::default()).unwrap();

    let base = fig4_spin_tuned(
        &topo(),
        SpinVariant::DirectiveMpi2,
        STEPS,
        ExecPolicy::default(),
        None,
    );
    let tuned = fig4_spin_tuned(
        &topo(),
        SpinVariant::DirectiveMpi2,
        STEPS,
        ExecPolicy::default(),
        Some(&overlay),
    );
    assert!(base.correct, "baseline payloads verified");
    assert!(
        tuned.correct,
        "tuned payloads verified (bit-identical spins)"
    );
    assert!(
        tuned.time < base.time,
        "coalescing must improve the directive run ({} vs {} ns/step)",
        tuned.time.as_nanos(),
        base.time.as_nanos()
    );
    assert!(
        tuned.stats.packed_bytes > 0,
        "the coalescing path counts packed bytes"
    );
    assert!(
        tuned.stats.sends < base.stats.sends,
        "batched sends shrink the send count ({} vs {})",
        tuned.stats.sends,
        base.stats.sends
    );

    // Engine invariance of the tuned run itself.
    let ncpu = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    for workers in [1usize, ncpu] {
        let t = fig4_spin_tuned(
            &topo(),
            SpinVariant::DirectiveMpi2,
            STEPS,
            ExecPolicy::bounded(workers),
            Some(&overlay),
        );
        assert!(t.correct);
        assert_eq!(
            t.time, tuned.time,
            "tuned virtual time differs under bounded({workers})"
        );
    }
}
