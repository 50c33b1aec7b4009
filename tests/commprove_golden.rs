//! Golden-certificate tests for `commprove`.
//!
//! Each fixture under `tests/prove_fixtures/` is proved and its certificate
//! byte-compared against `tests/prove_fixtures/golden/<name>.cert.json`.
//! Regenerate with `BLESS=1 cargo test -p integration --test commprove_golden`.
//! Beyond the byte diffs, the tests assert the semantic content the golden
//! files encode: quantified verdicts on the clean fixtures, a concrete
//! `(N, rank)` counterexample on the broken one that `commlint`'s sweep
//! reproduces, and checker acceptance of every honest certificate.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use commint::clause::Severity;
use commint::diag::{LintCode, Verification};
use commlint::LintOptions;
use commprove::cert::{Certificate, Verdict};
use commprove::check::{check_cert_bytes, check_source, parse_certificate};
use commprove::{prove_source, render_prove_text, ProveReport, PROVED_CODES};
use pragma_front::SymbolTable;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/prove_fixtures")
}

fn read_fixture(name: &str) -> String {
    let path = fixture_dir().join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn prove_fixture(name: &str) -> (String, ProveReport) {
    let src = read_fixture(name);
    let rep = prove_source(name, &src, &SymbolTable::new(), &LintOptions::default())
        .unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
    (src, rep)
}

/// Byte-compare the certificate against its golden file (or regenerate
/// under `BLESS=1`), then return the parsed report for semantic checks.
fn check_golden(name: &str) -> (String, ProveReport) {
    let (src, rep) = prove_fixture(name);
    let stem = name.trim_end_matches(".comm");
    let golden_path = fixture_dir()
        .join("golden")
        .join(format!("{stem}.cert.json"));
    let rendered = rep.certificate.to_json();
    if std::env::var("BLESS").is_ok() {
        fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        fs::write(&golden_path, &rendered).unwrap();
    } else {
        let want = fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run with BLESS=1 to generate",
                golden_path.display()
            )
        });
        assert_eq!(
            rendered, want,
            "{name}: certificate drifted from golden; re-bless if intended"
        );
    }
    (src, rep)
}

/// Round-trip the golden file through the independent checker: parse the
/// committed JSON (not the in-memory cert) and replay it against source.
fn checker_accepts(name: &str, src: &str) -> Certificate {
    let stem = name.trim_end_matches(".comm");
    let golden_path = fixture_dir()
        .join("golden")
        .join(format!("{stem}.cert.json"));
    let doc = fs::read_to_string(&golden_path).unwrap();
    let cert = parse_certificate(&doc).unwrap_or_else(|e| panic!("{name}: parse cert: {e}"));
    let errs = check_source(src, &SymbolTable::new(), &LintOptions::default(), &cert);
    assert!(
        errs.is_empty(),
        "{name}: checker rejected honest cert: {errs:?}"
    );
    cert
}

#[test]
fn ring_is_proved_for_all_n() {
    let (src, rep) = check_golden("ring.comm");
    let region = &rep.certificate.regions[0];
    assert!(region.eligible, "ring must be in the decidable class");

    // Every engine-level property gets a region-wide absence claim, except
    // the advisory cycle note, which is proved present for every N.
    for code in PROVED_CODES {
        let claims: Vec<_> = region.claims.iter().filter(|c| c.code == code).collect();
        assert!(!claims.is_empty(), "no claim for {}", code.code());
        if code == LintCode::BlockingDeadlockCycle {
            assert!(
                claims
                    .iter()
                    .any(|c| matches!(c.verdict, Verdict::Present { from: 2 })),
                "ring cycle note should be present for all N >= 2"
            );
        } else {
            assert!(
                claims
                    .iter()
                    .all(|c| matches!(c.verdict, Verdict::Absent { from: 2 })),
                "{} should be absent for all N >= 2",
                code.code()
            );
        }
    }

    // The one diagnostic is the note, stamped with a quantified verdict.
    assert_eq!(rep.report.diags.len(), 1);
    let d = &rep.report.diags[0];
    assert_eq!(d.code, LintCode::BlockingDeadlockCycle);
    assert_eq!(d.severity, Severity::Note);
    assert_eq!(d.verification, Some(Verification::Proved { from: 2 }));
    assert!(!rep.report.gate_fails());

    let text = render_prove_text("ring.comm", &rep);
    assert!(text.contains("affine-congruence class"), "text: {text}");
    assert!(text.contains("proved ∀N≥2"), "text: {text}");

    checker_accepts("ring.comm", &src);
}

#[test]
fn broken_ring_yields_concrete_counterexample() {
    let (src, rep) = check_golden("broken_ring.comm");
    let region = &rep.certificate.regions[0];
    assert!(region.eligible, "broken ring still normalizes");

    // The mismatch is proved, not merely observed: CI001 carries a
    // Present/PresentCongruent claim quantified over all N.
    let ci001: Vec<_> = region
        .claims
        .iter()
        .filter(|c| c.code == LintCode::UnmatchedSend && c.severity.is_some())
        .collect();
    assert!(!ci001.is_empty(), "expected a quantified CI001 claim");
    assert!(ci001.iter().all(|c| matches!(
        c.verdict,
        Verdict::Present { .. } | Verdict::PresentCongruent { .. }
    )));

    // And the report names a concrete (N, rank) counterexample...
    let diag = rep
        .report
        .diags
        .iter()
        .find(|d| d.code == LintCode::UnmatchedSend)
        .expect("CI001 diagnostic");
    let witness = diag.witness.as_ref().expect("concrete witness");
    assert!(witness.nranks >= 2);
    assert!(!witness.ranks.is_empty(), "witness must name failing ranks");
    assert!(rep.report.gate_fails());

    // ...which commlint's plain concrete sweep (same `@ranks` window)
    // reproduces: same finding identity, witnessed at the same first
    // failing rank count, implicating the same ranks there.
    let swept = commlint::lint_source(&src, &SymbolTable::new(), &LintOptions::default()).unwrap();
    let same = swept
        .diags
        .iter()
        .find(|d| d.code == diag.code && d.site == diag.site && d.key == diag.key)
        .expect("sweep at the witness count reproduces the finding");
    let sw = same.witness.as_ref().expect("sweep witness");
    assert_eq!(sw.nranks, witness.nranks);
    let sweep_ranks: BTreeSet<_> = sw.ranks.iter().collect();
    assert!(witness.ranks.iter().all(|r| sweep_ranks.contains(r)));

    checker_accepts("broken_ring.comm", &src);
}

#[test]
fn parity_gate_is_proved_congruent() {
    let (src, rep) = check_golden("parity_gate.comm");
    let region = &rep.certificate.regions[0];
    assert!(region.eligible);
    assert_eq!(
        region.lcm % 2,
        0,
        "case split must include the parity period"
    );

    // The unmatched send fires exactly at odd N: a congruence claim with
    // odd residues only, and no plain Present claim for CI001.
    let ci001 = region
        .claims
        .iter()
        .find(|c| c.code == LintCode::UnmatchedSend && c.severity.is_some())
        .expect("CI001 claim");
    match &ci001.verdict {
        Verdict::PresentCongruent {
            modulus, residues, ..
        } => {
            assert_eq!(modulus % 2, 0);
            assert!(!residues.is_empty());
            assert!(
                residues.iter().all(|r| r % 2 == 1),
                "CI001 must fire only at odd N, got residues {residues:?}"
            );
        }
        other => panic!("expected congruent CI001 verdict, got {other}"),
    }

    // Stamped through to the user-facing diagnostic.
    let diag = rep
        .report
        .diags
        .iter()
        .find(|d| d.code == LintCode::UnmatchedSend)
        .expect("CI001 diagnostic");
    assert!(matches!(
        diag.verification,
        Some(Verification::ProvedCongruent { .. })
    ));

    checker_accepts("parity_gate.comm", &src);
}

#[test]
fn unbound_variable_degrades_to_sweep() {
    let (src, rep) = check_golden("swept_unbound.comm");
    let region = &rep.certificate.regions[0];
    assert!(!region.eligible);
    let reason = region.reason.as_deref().unwrap_or("");
    assert!(
        reason.contains('k'),
        "reason should name the unbound var: {reason}"
    );
    assert!(
        region
            .claims
            .iter()
            .all(|c| matches!(c.verdict, Verdict::Swept { min: 2, max: 8 })),
        "ineligible region must only carry swept claims"
    );
    // The degraded result is exactly commlint's sweep, stamp for stamp.
    let swept = commlint::lint_source(&src, &SymbolTable::new(), &LintOptions::default()).unwrap();
    assert_eq!(rep.report.diags, swept.diags);

    checker_accepts("swept_unbound.comm", &src);
}

#[test]
fn tampered_golden_certificates_are_rejected() {
    // Take the honest ring certificate and forge the cycle-note presence
    // claim into an absence claim: the checker must notice the outcomes
    // (and replay) contradict it.
    let src = read_fixture("ring.comm");
    let doc = fs::read_to_string(fixture_dir().join("golden/ring.cert.json")).unwrap();
    let mut cert = parse_certificate(&doc).unwrap();
    for claim in &mut cert.regions[0].claims {
        if claim.code == LintCode::BlockingDeadlockCycle && claim.severity.is_some() {
            claim.verdict = Verdict::Absent { from: 2 };
            claim.severity = None;
            claim.key = "*".into();
        }
    }
    cert.regions[0].outcomes.clear();
    let errs = check_source(&src, &SymbolTable::new(), &LintOptions::default(), &cert);
    assert!(!errs.is_empty(), "forged certificate must be rejected");

    // The schema has no floats: an integer field rewritten as `1.0` or
    // `1e0` parses as JSON but is refused by the schema layer.
    let opts = LintOptions::default();
    assert!(check_cert_bytes(&src, &SymbolTable::new(), &opts, doc.as_bytes()).is_ok());
    for float in ["1.0", "1e0"] {
        let forged = doc.replacen("\"lcm\": 1,", &format!("\"lcm\": {float},"), 1);
        assert_ne!(forged, doc);
        let errs = check_cert_bytes(&src, &SymbolTable::new(), &opts, forged.as_bytes())
            .expect_err("float in an integer field must be rejected");
        assert_eq!(
            errs,
            ["region[0]: `lcm` is not a non-negative integer"],
            "{float}"
        );
    }
}
