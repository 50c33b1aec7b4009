//! Host-cost benchmark of simulating and analysing communication intent.
//!
//! Usage: `perfbench --workload <spin_scale|atom_payload|analyze_edit>
//!                   --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a table of every metric (name, unit, value, sample count), then
//! one JSON result line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` records spans around every layer call and reports the
//! per-layer metrics, writing a per-layer summary and a Chrome trace
//! under `perfbench/out/`. See `perfbench/README.md`.

mod calib;
mod edit;
mod gen;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use calib::Calib;
use edit::{Latencies, Verifier};
use sim::{Case, Outcome};
use stats::{result_json, MetricDef, Samples, END_TO_END, PER_LAYER};
use trace::{LayerSum, Span};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Calibration passes (or hand-off turns) before each timed set-up or
/// simulation.
const CAL_PASSES: usize = 50;
/// Spawn and barrier probes of a traced simulation run.
const PROBES: usize = 3;
/// Requests of the fixed per-layer replay of `analyze_edit`.
const REPLAY: usize = 120;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds".to_string())?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Opts {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "bad --seed".to_string())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

/// What a workload measured.
struct Report {
    attempted: u64,
    failed: u64,
    /// Run-level checks beyond the per-operation ones.
    consistent: bool,
    values: Vec<(&'static str, f64)>,
    /// Sample count or note per metric, for the table.
    notes: BTreeMap<&'static str, String>,
    /// Table-only lines.
    extra: Vec<String>,
    /// Every span recorded, for the trace files.
    spans: Vec<Span>,
}

impl Report {
    fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            consistent: true,
            values: Vec::new(),
            notes: BTreeMap::new(),
            extra: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.values.push((name, value));
        self.notes.insert(name, note.into());
    }

    fn put_median(&mut self, name: &'static str, s: &mut Samples) {
        let n = s.len();
        self.put(name, s.median().unwrap_or(f64::NAN), format!("n={n}"));
    }

    /// The median of raw samples times the run's host factor, noting the
    /// raw median.
    fn put_scaled(&mut self, name: &'static str, raw: &mut Samples, factor: f64) {
        let (n, m) = (raw.len(), raw.median().unwrap_or(f64::NAN));
        self.put(name, m * factor, format!("n={n}; raw {m:.4}"));
    }

    /// The median of per-operation scaled samples, noting the raw median.
    fn put_paired(&mut self, name: &'static str, scaled: &mut Samples, raw: &mut Samples) {
        let note = format!(
            "n={}; raw {:.4}",
            scaled.len(),
            raw.median().unwrap_or(f64::NAN)
        );
        self.put(name, scaled.median().unwrap_or(f64::NAN), note);
    }

    /// `n` operations over `served_ms` of their own time, as operations
    /// per second scaled by the run's host factor.
    fn put_rate(&mut self, n: usize, served_ms: f64, factor: f64, what: &str) {
        let raw = n as f64 * 1e3 / served_ms;
        self.put(
            "ops_per_s",
            raw / factor,
            format!("{n} {what}; raw {raw:.4}"),
        );
        self.extra.push(format!("host_factor  ratio  {factor:.4}"));
    }

    /// Table line with the highest tail percentile the samples support.
    fn tail_line(&mut self, label: &str, s: &mut Samples) {
        let line = match s.highest_tail() {
            Some((p, v)) => format!("{label}_p{p}_ms  ms  {v:.4}  n={}; raw", s.len()),
            None => format!("{label}_tail_ms  ms  -  n={} (too few for a tail)", s.len()),
        };
        self.extra.push(line);
    }

    /// Take the spans recorded since the last call; keep them for the
    /// trace files and return their per-layer sums.
    fn phase(&mut self) -> BTreeMap<&'static str, LayerSum> {
        let spans = trace::take();
        let sums = trace::summarize(&spans);
        self.spans.extend(spans);
        sums
    }

    /// Put the metrics `names` of span `span` — each ends in `.calls`,
    /// `.busy_ns` or `.wait_ns` — divided by `per`.
    fn put_layer(
        &mut self,
        sums: &BTreeMap<&'static str, LayerSum>,
        span: &str,
        names: &[&'static str],
        per: f64,
        note: &str,
    ) {
        let s = sums.get(span).copied().unwrap_or_default();
        for &name in names {
            let v = if name.ends_with(".calls") {
                s.calls as f64
            } else if name.ends_with(".busy_ns") {
                s.busy_ns as f64
            } else {
                s.wait_ns as f64
            };
            self.put(name, v / per.max(1.0), note);
        }
    }
}

fn deadline_in(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

// ---------------------------------------------------------------------------
// Simulation workloads
// ---------------------------------------------------------------------------

/// Repeat the set-up: the library's own run of the problem, which warms
/// the process and is the reference every later simulation must equal.
fn sim_setup(case: &Case, rep: &mut Report) -> Outcome {
    let mut setups = Samples::new();
    let mut factors = Samples::new();
    let mut reference = None;
    for _ in 0..SETUP_REPS {
        factors.push(calib::factor(Calib::HandOff, CAL_PASSES));
        let t0 = Instant::now();
        reference = Some(case.reference());
        setups.push(t0.elapsed().as_secs_f64());
    }
    let reference = reference.expect("at least one set-up");
    let factor = factors.median().unwrap_or(1.0);
    rep.put_scaled("setup_s", &mut setups, factor);
    rep.extra.push(format!(
        "virt_step_ns  ns  {}  deterministic; every simulation must reproduce it",
        reference.virt_ns
    ));
    rep.consistent &= reference.correct;
    reference
}

/// Run one simulation with `run` ([`Case::library`] or [`Case::mirror`])
/// and check it against `reference`. Returns its host seconds and the
/// outcome if it passed.
fn sim_sample(
    case: &Case,
    reference: &Outcome,
    rep: &mut Report,
    run: fn(&Case) -> Option<Outcome>,
) -> (f64, Option<Outcome>) {
    let t0 = Instant::now();
    let out = run(case);
    let wall = t0.elapsed().as_secs_f64();
    rep.attempted += 1;
    let good = out.filter(|o| o.correct && o.same_virtual(reference));
    rep.failed += u64::from(good.is_none());
    (wall, good)
}

/// Time one no-op `netsim::run` at the case's rank count, in seconds.
fn spawn_probe(case: &Case, rep: &mut Report) -> f64 {
    let t0 = Instant::now();
    let ok = trace::span("netsim.run", case.ranks() as i64, || case.spawn_noop());
    rep.attempted += 1;
    rep.failed += u64::from(!ok);
    t0.elapsed().as_secs_f64()
}

fn sim_workload(case: &Case, o: &Opts) -> Report {
    let mut rep = Report::new();
    let reference = sim_setup(case, &mut rep);
    if o.trace {
        sim_traced(case, &reference, o.seconds * 0.8, &mut rep, true);
        edit_traced(
            &edit_probe_inputs(o.seed),
            1,
            40,
            o.seconds * 0.15,
            &mut rep,
            false,
        );
        return rep;
    }
    let deadline = deadline_in(o.seconds);
    let (mut sim, mut spawn, mut rss) = (Samples::new(), Samples::new(), Samples::new());
    let mut factors = Samples::new();
    while sim.is_empty() || Instant::now() < deadline {
        factors.push(calib::factor(Calib::HandOff, CAL_PASSES));
        trace::reset_peak_rss();
        spawn.push(spawn_probe(case, &mut rep) * 1e3);
        sim.push(sim_sample(case, &reference, &mut rep, Case::library).0 * 1e3);
        rss.push(trace::peak_rss_mb());
    }
    let factor = factors.median().unwrap_or(1.0);
    rep.put_median("peak_rss_mb", &mut rss);
    rep.put_rate(sim.len(), sim.sum(), factor, "simulations");
    rep.put_scaled("op_p50_ms", &mut sim, factor);
    rep.put_scaled("light_p50_ms", &mut spawn, factor);
    rep
}

/// The traced half of a simulation run, on the mirrored rank program:
/// untraced simulations, then traced ones that must agree with them, the
/// spawn probe and the scale pair.
/// Puts every simulation-layer metric; when `main` the tracing overhead
/// too.
fn sim_traced(case: &Case, reference: &Outcome, budget: f64, rep: &mut Report, main: bool) {
    let (mut plain, mut traced) = (Samples::new(), Samples::new());
    let until = deadline_in(budget * 0.4);
    while plain.is_empty() || Instant::now() < until {
        plain.push(sim_sample(case, reference, rep, Case::mirror).0);
    }
    // The scale pair: the same problem at about half the ranks.
    let half = case.halved();
    let half_ref = half.reference();
    let mut half_wall = Samples::new();
    for _ in 0..2 {
        half_wall.push(sim_sample(&half, &half_ref, rep, Case::mirror).0);
    }

    trace::enable();
    let mut outs = Vec::new();
    let until = deadline_in(budget * 0.4);
    while traced.is_empty() || Instant::now() < until {
        let (s, good) = sim_sample(case, reference, rep, Case::mirror);
        traced.push(s);
        outs.extend(good);
    }
    let sums = rep.phase();
    let mut spawn = Samples::new();
    for _ in 0..PROBES {
        spawn.push(spawn_probe(case, rep));
        rep.attempted += 1;
        rep.failed += u64::from(!case.barrier_probe());
    }
    let probes = rep.phase();
    trace::disable();

    let per = traced.len() as f64;
    let note = format!("per simulation, summed over ranks, n={per}");
    rep.put_layer(
        &probes,
        "netsim.barrier",
        &[
            "netsim.barrier.calls",
            "netsim.barrier.busy_ns",
            "netsim.barrier.wait_ns",
        ],
        PROBES as f64,
        &format!("per barrier probe, summed over ranks, n={PROBES}"),
    );
    rep.put_layer(
        &sums,
        "core.scope.directive",
        &[
            "core.scope.directive.calls",
            "core.scope.directive.busy_ns",
            "core.scope.directive.wait_ns",
        ],
        per,
        &note,
    );
    rep.put_layer(
        &sums,
        "wl_lsms.build_comms",
        &[
            "wl_lsms.build_comms.calls",
            "wl_lsms.build_comms.busy_ns",
            "wl_lsms.build_comms.wait_ns",
        ],
        per,
        &note,
    );
    rep.put_median("netsim.run.spawn_s", &mut spawn);
    let ratio_of = |a: &mut Samples, b: &mut Samples| {
        a.median().unwrap_or(f64::NAN) / b.median().unwrap_or(f64::NAN)
    };
    rep.put(
        "netsim.scale_ratio",
        ratio_of(&mut plain, &mut half_wall),
        format!("wall {} ranks / {} ranks", case.ranks(), half.ranks()),
    );
    if main {
        rep.put(
            "trace.overhead_frac",
            ratio_of(&mut traced, &mut plain) - 1.0,
            format!("n={}+{}", plain.len(), traced.len()),
        );
    }
    put_stats(rep, &outs);
}

/// Per-simulation figures of the fabric, the scheduler and the datatype
/// layer, from the counters of traced simulations.
fn put_stats(rep: &mut Report, outs: &[Outcome]) {
    let n = outs.len().max(1) as f64;
    let mut st = netsim::RankStats::default();
    let (mut grants, mut parks) = (0u64, 0u64);
    for o in outs {
        st.merge(&o.stats);
        if let Some(s) = &o.sched {
            grants += s.grants;
            parks += s.parks;
        }
    }
    let per = |x: usize| x as f64 / n;
    let note = format!("per simulation, n={}", outs.len());
    rep.put("netsim.sched.grants", grants as f64 / n, note.clone());
    rep.put("netsim.sched.parks", parks as f64 / n, note.clone());
    rep.put(
        "netsim.sched.park_ratio",
        ratio(parks as f64, grants as f64),
        "",
    );
    rep.put("netsim.fabric.sends", per(st.sends), note.clone());
    rep.put("netsim.fabric.puts", per(st.puts), note.clone());
    rep.put(
        "netsim.fabric.bytes",
        per(st.bytes_sent + st.bytes_put),
        note.clone(),
    );
    rep.put("netsim.fabric.barriers", per(st.barriers), note.clone());
    rep.put("netsim.fabric.quiets", per(st.quiets), note.clone());
    rep.put(
        "netsim.fabric.match_scan_steps",
        per(st.match_scan_steps),
        note.clone(),
    );
    rep.put(
        "netsim.fabric.match_steps_per_recv",
        ratio(st.match_scan_steps as f64, st.recvs as f64),
        "",
    );
    rep.put(
        "netsim.fabric.uq_high_water",
        st.uq_high_water as f64,
        "max over ranks",
    );
    rep.put(
        "netsim.fabric.mailbox_locks",
        per(st.mailbox_locks),
        note.clone(),
    );
    rep.put("mpisim.packed_bytes", per(st.packed_bytes), note.clone());
    rep.put("mpisim.datatype_commits", per(st.datatype_commits), note);
    rep.put(
        "mpisim.dtype_cache_hit_ratio",
        ratio(
            st.dtype_cache_hits as f64,
            (st.dtype_cache_hits + st.datatype_commits) as f64,
        ),
        "",
    );
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// Analysis workload
// ---------------------------------------------------------------------------

fn edit_inputs(seed: u64) -> gen::Inputs {
    gen::inputs(seed, edit::CORPUS, edit::OPENS, edit::STEPS)
}

/// The short editor session every simulation workload's traced run adds,
/// so the analysis layers' figures stay defined there.
fn edit_probe_inputs(seed: u64) -> gen::Inputs {
    gen::inputs(seed, 5, 8, 40)
}

/// Set-up: generate the inputs, build the engine and analyse and prove
/// the whole base corpus cold. Repeated; the last engine is kept.
fn edit_setup(
    seed: u64,
    rep: &mut Report,
    verifier: &mut Verifier,
) -> (gen::Inputs, commintd::Engine) {
    let (mut setups, mut scaled) = (Samples::new(), Samples::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let factor = calib::factor(Calib::OneThread, CAL_PASSES);
        let t0 = Instant::now();
        let inputs = edit_inputs(seed);
        let engine = edit::primed_engine(&inputs, None);
        let secs = t0.elapsed().as_secs_f64();
        setups.push(secs);
        scaled.push(secs * factor);
        last = Some((inputs, engine));
    }
    rep.put_paired("setup_s", &mut scaled, &mut setups);
    let (inputs, engine) = last.expect("at least one set-up");
    // Check the cold responses outside the timed set-up.
    drop(edit::primed_engine(&inputs, Some(verifier)));
    (inputs, engine)
}

fn edit_workload(o: &Opts) -> Report {
    trace::pin_mmap_threshold();
    let mut rep = Report::new();
    let mut verifier = Verifier::default();
    let (inputs, first) = edit_setup(o.seed, &mut rep, &mut verifier);
    if o.trace {
        drop(first);
        edit_traced(&inputs, 3, REPLAY, o.seconds * 0.75, &mut rep, true);
        let probe = Case::spin(2, 2);
        let reference = probe.reference();
        sim_traced(&probe, &reference, o.seconds * 0.1, &mut rep, false);
        rep.attempted += verifier.attempted;
        rep.failed += verifier.failed;
        return rep;
    }
    // Learn the truth of every source version of the schedule before the
    // measured passes, so the truth memo is complete and the same in
    // every peak_rss_mb sample.
    let warm = edit::primed_engine(&inputs, None);
    edit::pass(
        &warm,
        &inputs,
        &mut verifier,
        &mut Latencies::default(),
        None,
        None,
    );
    drop(warm);
    let deadline = deadline_in(o.seconds);
    let (mut lat, mut scaled) = (Latencies::default(), Latencies::default());
    let (mut rss, mut owned) = (Samples::new(), Samples::new());
    let mut engine = first;
    loop {
        trace::reset_peak_rss();
        edit::pass(
            &engine,
            &inputs,
            &mut verifier,
            &mut lat,
            Some(&mut scaled),
            Some(deadline),
        );
        // Leave out what the process holds with no engine alive: the
        // binary, the inputs, the truth memo and the samples.
        let peak = trace::peak_rss_mb();
        drop(engine);
        trace::reset_peak_rss();
        let base = trace::rss_mb();
        rss.push(peak - base);
        owned.push(base);
        if Instant::now() >= deadline {
            break;
        }
        engine = edit::primed_engine(&inputs, None);
    }
    rep.put_median("peak_rss_mb", &mut rss);
    rep.extra.push(format!(
        "bench_owned_rss_mb  MB  {:.4}  n={}; resident with no engine alive, not in peak_rss_mb",
        owned.median().unwrap_or(f64::NAN),
        owned.len(),
    ));
    rep.attempted += verifier.attempted;
    rep.failed += verifier.failed;
    // Each request is scaled by the factor measured just before it.
    let factor = scaled.served_ms() / lat.served_ms();
    rep.put_rate(lat.requests(), lat.served_ms(), factor, "requests");
    rep.put_paired("op_p50_ms", &mut scaled.edit, &mut lat.edit);
    rep.put_paired("light_p50_ms", &mut scaled.read, &mut lat.read);
    rep.extra.push(format!(
        "open_p50_ms  ms  {:.4}  n={}; raw",
        lat.open.median().unwrap_or(f64::NAN),
        lat.open.len(),
    ));
    rep.tail_line("edit", &mut lat.edit);
    rep.tail_line("read", &mut lat.read);
    rep.tail_line("open", &mut lat.open);
    rep
}

/// The traced run of the analysis layers on `inputs`: pairs of untraced
/// and traced passes of the schedule (at least `min_pairs`, then until
/// `budget` seconds are spent), then one traced call of every layer's
/// public entry on the first `replay` sources of the stream. When `main`,
/// the passes' overhead is the run's tracing overhead.
fn edit_traced(
    inputs: &gen::Inputs,
    min_pairs: usize,
    replay: usize,
    budget: f64,
    rep: &mut Report,
    main: bool,
) {
    let mut verifier = Verifier::default();
    let until = deadline_in(budget * 0.7);
    // Fill the truth memo first, so verification costs the same in both
    // halves of every pair.
    let warm = edit::primed_engine(inputs, Some(&mut verifier));
    let stream = edit::pass(
        &warm,
        inputs,
        &mut verifier,
        &mut Latencies::default(),
        None,
        None,
    );
    drop(warm);
    let (mut plain, mut traced) = (Latencies::default(), Latencies::default());
    let mut pairs = 0usize;
    let mut cas = None;
    let mut sums: BTreeMap<&'static str, LayerSum> = BTreeMap::new();
    while pairs < min_pairs || Instant::now() < until {
        let engine = edit::primed_engine(inputs, None);
        edit::pass(&engine, inputs, &mut verifier, &mut plain, None, None);
        let engine = edit::primed_engine(inputs, None);
        trace::enable();
        edit::pass(&engine, inputs, &mut verifier, &mut traced, None, None);
        trace::disable();
        for (k, v) in rep.phase() {
            let e = sums.entry(k).or_default();
            e.calls += v.calls;
            e.busy_ns += v.busy_ns;
        }
        cas = Some(engine.stats());
        pairs += 1;
    }
    trace::enable();
    edit::replay_layers(inputs, &stream[..replay.min(stream.len())], &mut verifier);
    trace::disable();
    let layers = rep.phase();
    rep.attempted += verifier.attempted;
    rep.failed += verifier.failed;

    rep.put_median("commintd.request.edit_p50_ms", &mut traced.edit);
    rep.put_median("commintd.request.read_p50_ms", &mut traced.read);
    rep.put_median("commintd.request.open_p50_ms", &mut traced.open);
    let per_pass = format!(
        "per schedule pass of {} requests, n={pairs}",
        inputs.schedule.len()
    );
    rep.put_layer(
        &sums,
        "commintd.proto.handle",
        &[
            "commintd.proto.handle.calls",
            "commintd.proto.handle.busy_ns",
        ],
        pairs as f64,
        &per_pass,
    );
    let note = format!("summed over {} replayed sources", replay.min(stream.len()));
    for (span, names) in [
        (
            "commintd.proto.parse_request",
            &["commintd.proto.parse_request.busy_ns"][..],
        ),
        (
            "commintd.engine.analyze",
            &[
                "commintd.engine.analyze.calls",
                "commintd.engine.analyze.busy_ns",
            ],
        ),
        (
            "commintd.engine.prove",
            &[
                "commintd.engine.prove.calls",
                "commintd.engine.prove.busy_ns",
            ],
        ),
        ("pragma_front.parse", &["pragma_front.parse.busy_ns"]),
        ("commlint.hash", &["commlint.hash.busy_ns"]),
        ("commlint.lint", &["commlint.lint.busy_ns"]),
        ("commprove.prove", &["commprove.prove.busy_ns"]),
    ] {
        rep.put_layer(&layers, span, names, 1.0, &note);
    }
    let cas = cas.unwrap_or_default();
    let note = "engine of the last traced pass";
    rep.put("core.cas.hits", cas.hits as f64, note);
    rep.put("core.cas.misses", cas.misses as f64, note);
    rep.put("core.cas.invalidations", cas.invalidations as f64, note);
    rep.put("core.cas.hit_ratio", cas.hit_rate(), note);
    rep.put("core.cas.entries", cas.entries as f64, note);
    if main {
        rep.put(
            "trace.overhead_frac",
            traced.served_ms() / plain.served_ms() - 1.0,
            format!("{pairs} pass pairs"),
        );
    }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

fn print_table(o: &Opts, rep: &Report, defs: &[MetricDef]) {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    for d in defs {
        let v = rep
            .values
            .iter()
            .find(|(n, _)| *n == d.name)
            .map_or(f64::NAN, |x| x.1);
        let note = rep.notes.get(d.name).map_or("", String::as_str);
        println!("{}  {}  {v:.6}  {note}", d.name, d.unit);
    }
    for line in &rep.extra {
        println!("{line}");
    }
    println!(
        "fail_frac  ratio  {:.6}  {}/{} operations failed",
        ratio(rep.failed as f64, rep.attempted as f64),
        rep.failed,
        rep.attempted
    );
}

fn write_trace_files(o: &Opts, rep: &Report) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}", o.workload, o.seed);
    let sums = trace::summarize(&rep.spans);
    std::fs::write(
        dir.join(format!("{stem}.layers.json")),
        trace::summary_json(&sums),
    )?;
    std::fs::write(
        dir.join(format!("{stem}.trace.json")),
        trace::chrome_json(&rep.spans),
    )?;
    eprintln!(
        "perfbench: {} spans; wrote {}/{stem}.{{layers,trace}}.json",
        rep.spans.len(),
        dir.display()
    );
    Ok(())
}

fn main() {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <spin_scale|atom_payload|analyze_edit> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let wall0 = Instant::now();
    let cpu0 = trace::process_cpu_ns();
    let mut rep = match o.workload.as_str() {
        "spin_scale" => sim_workload(&Case::spin(64, 2), &o),
        "atom_payload" => sim_workload(&Case::atom(21), &o),
        "analyze_edit" => edit_workload(&o),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let defs = if o.trace {
        let cpu_s = (trace::process_cpu_ns() - cpu0) as f64 / 1e9;
        let wall_s = wall0.elapsed().as_secs_f64();
        rep.put("process.cpu_s", cpu_s, "whole run");
        rep.put("process.cpu_util", cpu_s / wall_s, "CPU s per wall s");
        if let Err(e) = write_trace_files(&o, &rep) {
            eprintln!("perfbench: cannot write trace files: {e}");
            rep.consistent = false;
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    print_table(&o, &rep, defs);
    let correct = rep.consistent && rep.failed == 0;
    println!(
        "{}",
        result_json(correct, rep.attempted.max(1), rep.failed, defs, &rep.values)
    );
}
