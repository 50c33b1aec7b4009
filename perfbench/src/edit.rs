//! The `analyze_edit` workload: one editor client driving the analysis
//! service as a closed loop, in process.
//!
//! Each request is the analyze + prove pair an editor sends for one
//! version of a file, served by `commintd::proto::handle` on one
//! `Engine`. Only that pair is timed. Every response is then
//! byte-compared, outside the timed window, with the batch renderings of
//! `lint_source` and `prove_source` for the same source.

use std::collections::HashMap;
use std::time::Instant;

use commintd::proto::{handle, parse_request, request_json};
use commintd::Engine;
use commlint::json::render_json;
use commlint::{lint_source, LintOptions};
use commprove::jsonv::{self, JValue};
use commprove::prove_source;
use pragma_front::SymbolTable;

use crate::calib;
use crate::gen::{self, Inputs, Kind};
use crate::stats::Samples;
use crate::trace::span;

// Sizes, not a mix: they set how long set-up and a pass take, not the
// share of each request kind. Ten of each shipped shape are analysed
// cold in set-up; one request in five opens a new file, so a pass never
// runs out of files to open. A pass is the same every time, so it is
// long enough that which files its edits land on averages out.
/// Base files analysed cold before the schedule starts.
pub const CORPUS: usize = 50;
/// Requests in one pass of the schedule.
pub const STEPS: usize = 1000;
/// Files the schedule may open.
pub const OPENS: usize = STEPS / 5;

/// Batch-truth documents for one exact source version.
struct Truth {
    lint: String,
    report: String,
    cert: String,
}

fn truth_for(file: &str, src: &str) -> Option<Truth> {
    let symbols = SymbolTable::new();
    let opts = LintOptions::default();
    let report = lint_source(src, &symbols, &opts).ok()?;
    let prove = prove_source(file, src, &symbols, &opts).ok()?;
    Some(Truth {
        lint: render_json(&[(file.to_string(), report)]),
        report: render_json(&[(file.to_string(), prove.report.clone())]),
        cert: prove.certificate.to_json(),
    })
}

/// Checks responses against the batch libraries, remembering the truth
/// of every source version it has seen.
#[derive(Default)]
pub struct Verifier {
    memo: HashMap<(String, String), Option<Truth>>,
    pub attempted: u64,
    pub failed: u64,
}

fn field<'a>(v: &'a JValue, name: &str) -> Option<&'a str> {
    v.get(name).and_then(|f| f.as_str())
}

impl Verifier {
    fn check(&mut self, file: &str, src: &str, analyze: &str, prove: &str) {
        let truth = self
            .memo
            .entry((file.to_string(), src.to_string()))
            .or_insert_with(|| truth_for(file, src));
        let ok = match (truth, jsonv::parse(analyze), jsonv::parse(prove)) {
            (Some(t), Ok(a), Ok(p)) => {
                field(&a, "report") == Some(&t.lint)
                    && field(&p, "report") == Some(&t.report)
                    && field(&p, "cert") == Some(&t.cert)
            }
            _ => false,
        };
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Serve one analyze + prove pair; returns both responses.
fn roundtrip(engine: &Engine, id: i64, kind: Kind, file: &str, src: &str) -> (String, String) {
    let a_req = request_json("analyze", id, file, src);
    let p_req = request_json("prove", id + 1, file, src);
    let name = match kind {
        Kind::Write => "commintd.request.edit",
        Kind::Read => "commintd.request.read",
        Kind::Open => "commintd.request.open",
    };
    span(name, id, || {
        (
            span("commintd.proto.handle", id, || {
                handle(engine, a_req.as_bytes())
            }),
            span("commintd.proto.handle", id + 1, || {
                handle(engine, p_req.as_bytes())
            }),
        )
    })
}

/// A fresh engine with the base corpus analysed and proved cold.
pub fn primed_engine(inputs: &Inputs, verifier: Option<&mut Verifier>) -> Engine {
    let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
    let mut responses = Vec::with_capacity(inputs.corpus);
    for (i, f) in inputs.files[..inputs.corpus].iter().enumerate() {
        let src = f.render(&f.fresh_state());
        let (a, p) = roundtrip(&engine, -2 * (i as i64 + 1), Kind::Open, &f.name, &src);
        responses.push((src, a, p));
    }
    if let Some(v) = verifier {
        for (f, (src, a, p)) in inputs.files.iter().zip(&responses) {
            v.check(&f.name, src, a, p);
        }
    }
    engine
}

/// Latencies of one or more passes, per request kind, in ms.
#[derive(Default)]
pub struct Latencies {
    pub edit: Samples,
    pub read: Samples,
    pub open: Samples,
}

impl Latencies {
    fn of(&mut self, kind: Kind) -> &mut Samples {
        match kind {
            Kind::Write => &mut self.edit,
            Kind::Read => &mut self.read,
            Kind::Open => &mut self.open,
        }
    }

    pub fn requests(&self) -> usize {
        self.edit.len() + self.read.len() + self.open.len()
    }

    /// Sum of all request latencies, in ms.
    pub fn served_ms(&self) -> f64 {
        self.edit.sum() + self.read.sum() + self.open.sum()
    }
}

/// Run the schedule once on `engine`, stopping early at `deadline`, and
/// add each request's host latency to `lat`. With `scaled`, one
/// calibration pass runs before every request and the latency times its
/// host factor goes there. Returns the source of every request.
pub fn pass(
    engine: &Engine,
    inputs: &Inputs,
    verifier: &mut Verifier,
    lat: &mut Latencies,
    mut scaled: Option<&mut Latencies>,
    deadline: Option<Instant>,
) -> Vec<(usize, String)> {
    let mut states: Vec<_> = inputs.files.iter().map(|f| f.fresh_state()).collect();
    let mut stream = Vec::with_capacity(inputs.schedule.len());
    for (i, &step) in inputs.schedule.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let src = gen::apply(&inputs.files, &mut states, step);
        let file = &inputs.files[step.file].name;
        let factor = scaled
            .is_some()
            .then(|| calib::factor(calib::Calib::OneThread, 1));
        let t0 = Instant::now();
        let (a, p) = roundtrip(engine, 2 * i as i64, step.kind, file, &src);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        lat.of(step.kind).push(ms);
        if let (Some(s), Some(f)) = (scaled.as_deref_mut(), factor) {
            s.of(step.kind).push(ms * f);
        }
        verifier.check(file, &src, &a, &p);
        stream.push((step.file, src));
    }
    stream
}

/// Call each analysis layer's public entry on a stream of sources, one
/// span per call: the protocol parser and the engine (on a fresh engine,
/// as `handle` would call it), then the batch libraries. A call that
/// fails counts as a failed operation.
pub fn replay_layers(inputs: &Inputs, stream: &[(usize, String)], verifier: &mut Verifier) {
    let engine = Engine::new(SymbolTable::new(), LintOptions::default(), None);
    let symbols = SymbolTable::new();
    let opts = LintOptions::default();
    for (i, (f, src)) in stream.iter().enumerate() {
        let id = i as i64;
        let file = &inputs.files[*f].name;
        let frame = request_json("analyze", id, file, src);
        let ann = commlint::scan_annotations(src);
        let mut syms = symbols.clone();
        commlint::apply_decls(&mut syms, &ann);
        let ok = span("commintd.proto.parse_request", id, || {
            parse_request(frame.as_bytes())
        })
        .is_ok()
            && span("commintd.engine.analyze", id, || engine.analyze(file, src)).is_ok()
            && span("commintd.engine.prove", id, || engine.prove(file, src)).is_ok()
            && span("pragma_front.parse", id, || pragma_front::parse(src, &syms)).is_ok()
            && !span("commlint.hash", id, || {
                commlint::hash::region_hashes(src, &opts.vars, opts.ranks)
            })
            .is_empty()
            && span("commlint.lint", id, || lint_source(src, &symbols, &opts)).is_ok()
            && span("commprove.prove", id, || {
                prove_source(file, src, &symbols, &opts)
            })
            .is_ok();
        verifier.attempted += 1;
        verifier.failed += u64::from(!ok);
    }
}
