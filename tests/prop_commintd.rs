//! Property tests for the `commintd` incremental engine: under random
//! edit sequences the daemon's responses must stay byte-identical to the
//! batch CLIs, touching one region must never invalidate disjoint
//! regions, and concurrent clients sharing one engine must all receive
//! the same artifacts. Hostile frames (truncated, mutated, non-UTF-8 or
//! deeply nested) must always get a JSON response frame, never a crash.

use std::path::PathBuf;
use std::sync::Arc;

use commintd::proto::{handle, request_json};
use commintd::Engine;
use commlint::json::render_json;
use commlint::{lint_source, LintOptions};
use commprove::prove_source;
use pragma_front::SymbolTable;
use proptest::prelude::*;

/// Number of buffers declared in every generated spec.
const BUFS: usize = 4;

/// Render a spec with one region per entry of `counts`. Region `i` is
/// structurally distinct from every other region regardless of the count
/// values (different shift, different buffer pairing), so two regions
/// never collide on a structural hash and `dirty` assertions are exact.
fn spec_src(counts: &[u32], fmt_lines: usize) -> String {
    let mut src = String::new();
    for _ in 0..fmt_lines {
        src.push_str("// formatting-only touch\n");
    }
    for b in 0..BUFS {
        src.push_str(&format!("// @decl b{b}: double[64]\n"));
    }
    src.push_str("// @ranks 2..=10\n");
    for (i, c) in counts.iter().enumerate() {
        let shift = i + 1;
        let sbuf = i % BUFS;
        let rbuf = (i + 1) % BUFS;
        src.push_str(&format!(
            "#pragma comm_parameters sender((rank-{shift}+nprocs)%nprocs) \
             receiver((rank+{shift})%nprocs)\n{{\n  #pragma comm_p2p \
             sbuf(b{sbuf}) rbuf(b{rbuf}) count({c})\n  {{ }}\n}}\n"
        ));
    }
    src
}

fn batch_lint_json(file: &str, src: &str) -> String {
    let report = lint_source(src, &SymbolTable::new(), &LintOptions::default()).expect("lints");
    render_json(&[(file.to_string(), report)])
}

fn batch_prove(file: &str, src: &str) -> (String, String) {
    let rep =
        prove_source(file, src, &SymbolTable::new(), &LintOptions::default()).expect("proves");
    (
        render_json(&[(file.to_string(), rep.report.clone())]),
        rep.certificate.to_json(),
    )
}

/// One step of an edit sequence.
#[derive(Clone, Debug)]
enum Edit {
    /// Change region `k`'s count clause (a semantic, single-region edit).
    Count(usize, u32),
    /// Prepend a comment line (formatting-only; every hash survives).
    Fmt,
}

fn edits(regions: usize) -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec(
        prop_oneof![
            (0..regions, 1u32..=64).prop_map(|(k, c)| Edit::Count(k, c)),
            (0..regions, 1u32..=64).prop_map(|(k, c)| Edit::Count(k, c)),
            (0..regions, 1u32..=64).prop_map(|(k, c)| Edit::Count(k, c)),
            Just(Edit::Fmt),
        ],
        1..=5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After every step of a random edit sequence, warm daemon output ==
    /// cold batch output, for both verbs, byte for byte.
    #[test]
    fn random_edit_sequences_stay_byte_identical(
        mut counts in proptest::collection::vec(1u32..=64, 2..=4),
        seq in edits(4),
    ) {
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        let mut fmt_lines = 0usize;
        let check = |counts: &[u32], fmt_lines: usize| {
            let src = spec_src(counts, fmt_lines);
            let a = engine.analyze("p.comm", &src).unwrap();
            prop_assert_eq!(&a.report_json, &batch_lint_json("p.comm", &src));
            let p = engine.prove("p.comm", &src).unwrap();
            let (want_report, want_cert) = batch_prove("p.comm", &src);
            prop_assert_eq!(&p.report_json, &want_report);
            prop_assert_eq!(&p.cert_json, &want_cert);
            Ok(())
        };
        check(&counts, fmt_lines)?;
        for e in seq {
            match e {
                Edit::Count(k, c) => {
                    let k = k % counts.len();
                    counts[k] = c;
                }
                Edit::Fmt => fmt_lines += 1,
            }
            check(&counts, fmt_lines)?;
        }
    }

    /// A count edit to region `k` dirties exactly `{k}`: every disjoint
    /// region's artifacts are reused, never invalidated.
    #[test]
    fn touching_one_region_never_invalidates_disjoint_regions(
        mut counts in proptest::collection::vec(1u32..=64, 2..=4),
        k in 0usize..4,
        new_count in 1u32..=64,
    ) {
        let k = k % counts.len();
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        engine.analyze("p.comm", &spec_src(&counts, 0)).unwrap();
        // Force a real change: a replay of identical bytes dirties nothing.
        counts[k] = if new_count == counts[k] {
            (new_count % 64) + 1
        } else {
            new_count
        };
        let warm = engine.analyze("p.comm", &spec_src(&counts, 0)).unwrap();
        prop_assert_eq!(&warm.dirty, &vec![k]);
        prop_assert_eq!(warm.reused, counts.len() - 1);
        prop_assert!(warm.evicted > 0, "the superseded cohort must be evicted");
        // And a formatting-only touch after the edit dirties nothing at all.
        let touched = engine.analyze("p.comm", &spec_src(&counts, 1)).unwrap();
        prop_assert!(touched.dirty.is_empty());
        prop_assert_eq!(touched.reused, counts.len());
    }

    /// Concurrent clients racing both verbs against one engine all get
    /// responses byte-identical to the batch CLIs — the single-flight
    /// store never hands out a partially built or divergent artifact.
    #[test]
    fn concurrent_clients_get_identical_artifacts(
        counts in proptest::collection::vec(1u32..=64, 2..=3),
    ) {
        let src = spec_src(&counts, 0);
        let want_lint = batch_lint_json("p.comm", &src);
        let (want_report, want_cert) = batch_prove("p.comm", &src);
        let engine = Arc::new(Engine::new(
            SymbolTable::new(),
            LintOptions::default(),
            None,
        ));
        let outcomes: Vec<(String, String, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    let src = src.clone();
                    scope.spawn(move || {
                        let a = engine.analyze("p.comm", &src).unwrap();
                        let p = engine.prove("p.comm", &src).unwrap();
                        (a.report_json, p.report_json, p.cert_json)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (lint, report, cert) in &outcomes {
            prop_assert_eq!(lint, &want_lint);
            prop_assert_eq!(report, &want_report);
            prop_assert_eq!(cert, &want_cert);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every frame, however mangled, gets a response that is itself JSON:
    /// garbage is answered with an `ok: false` frame, never a panic or a
    /// stack overflow. Each edit is (kind, position, byte, depth); kind 4
    /// turns the frame into a valid analyze request whose source carries a
    /// `depth`-deep pragma expression.
    #[test]
    fn hostile_frames_always_get_a_json_response(
        seed in any::<usize>(),
        edits in proptest::collection::vec(
            (0u8..5, any::<usize>(), any::<u8>(), 1usize..=200_000),
            1..=3,
        ),
    ) {
        let corpus = frame_corpus();
        let mut frame = corpus[seed % corpus.len()].clone();
        for (kind, at, byte, depth) in edits {
            let at = at % (frame.len() + 1);
            match kind {
                0 => frame.truncate(at),
                1 => frame.insert(at, 0xff), // never valid UTF-8
                2 => {
                    if let Some(b) = frame.get_mut(at) {
                        *b = byte;
                    }
                }
                3 => {
                    let open: &[u8] = if byte % 2 == 0 { b"[" } else { b"{\"a\":" };
                    frame.splice(at..at, open.repeat(depth));
                }
                _ => {
                    // Nested parens, a flat `+` chain, or nested `!(`.
                    let (open, close) = [("(", ")"), ("rank+", ""), ("!(", ")")][byte as usize % 3];
                    let src = format!(
                        "{}#pragma comm_p2p sendwhen({}rank==0{}) receivewhen(rank==1) \
                         sender(rank) receiver(rank)\n",
                        spec_src(&[8], 0),
                        open.repeat(depth),
                        close.repeat(depth)
                    );
                    frame = request_json("analyze", 7, "p.comm", &src).into_bytes();
                }
            }
        }
        let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
        let resp = handle(&engine, &frame);
        prop_assert!(commint::json::parse(&resp).is_ok(), "{resp}");
    }
}

/// Seed frames: the pinned protocol goldens plus one request per verb.
fn frame_corpus() -> Vec<Vec<u8>> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/intd_golden/golden");
    let mut frames: Vec<Vec<u8>> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| std::fs::read(e.unwrap().path()).unwrap())
        .collect();
    frames.sort();
    let src = spec_src(&[8, 16], 0);
    for op in ["analyze", "prove", "diag", "stats"] {
        frames.push(request_json(op, 7, "p.comm", &src).into_bytes());
    }
    frames
}
