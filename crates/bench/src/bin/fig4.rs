//! Figure 4: experimental results for communication of random spin
//! configurations (`setEvec`), plus the §IV-B speedup table and the
//! profile-guided tuning loop (coalesced series + A/B gate).
//!
//! Usage: `fig4 [--stride K] [--steps N] [--jobs J] [--workers W]
//!              [--eager-threshold B] [--sanitize] [--overlay FILE] [--ab]
//!              [--min-factor F] [--stats] [--watch SECS] [--json]
//!              [--baseline FILE] [--ledger FILE] [--diff-out FILE]
//!              [--trace-out FILE] [--profile FILE]`
//! (stride thins the process sweep; jobs bounds the sweep worker pool;
//! `--workers` gates each run to W execution slots, 0 = auto, default one
//! per rank;
//! `--eager-threshold` overrides the cost model's eager/rendezvous protocol
//! switch, in bytes; `--sanitize` runs every point under the one-sided race
//! sanitizer, filling the `race_checks`/`conflicts_found` counters the JSON
//! report's baseline gate refuses to pass when non-zero;
//! stats appends merged per-variant operation counters;
//! `--json` emits the machine-readable report instead of the table;
//! `--baseline` gates virtual times against a committed report;
//! `--trace-out`/`--profile` re-run the largest sweep point with the
//! directive-MPI variant under full observability and write a Chrome trace
//! / commscope profile).
//!
//! The tuning loop: the coalesced series applies a commtune overlay to the
//! directive-MPI variant. `--overlay FILE` loads the overlay from a file
//! (exit 3 on a stale overlay schema, exit 2 on unreadable input) and also
//! records its provenance in `--profile` exports; without the flag the
//! binary self-tunes from a profile of the smallest sweep point. `--ab`
//! turns the run into an A/B gate: exit 2 if any tuned point is slower than
//! its untuned directive-MPI counterpart, or if the mean speedup of the
//! tuned series over "Original Communication" falls below `--min-factor`
//! (default 1.3). The gate also attaches a site-attributed explanation: it
//! profiles the untuned and tuned directive runs at the largest sweep
//! point, diffs them with commdiff, prints the per-site report to stderr,
//! and writes the diff JSON next to the overlay (`<overlay>.diff.json`, or
//! `--diff-out FILE`).
//!
//! `--watch SECS` runs the stall watchdog (stderr only; stdout and all
//! artifacts stay bit-identical). `--ledger FILE` appends the `--json`
//! report to the run-history ledger.

use std::time::Instant;

use bench::{
    arg_str, arg_usize, default_jobs, emit_json_report, emit_observability, paper_ms, render_stats,
    sweep, BenchReport, SeriesReport, SeriesTable,
};
use commtune::{overlay_from_json, overlay_provenance, tune, TuneOptions};
use netsim::{ExecPolicy, RankStats, WatchCfg};
use wl_lsms::{
    fig4_spin_exec, fig4_spin_observed, fig4_spin_tuned, fig4_spin_tuned_observed, SpinVariant,
    Topology,
};

/// Label of the profile-guided coalesced series.
const COALESCED_LABEL: &str = "MPI Target w/ Directive Communication (coalesced)";

fn arg_f64(args: &[String], name: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let stride = arg_usize(&args, "--stride").unwrap_or(1);
    let steps = arg_usize(&args, "--steps").unwrap_or(4);
    let jobs = arg_usize(&args, "--jobs").unwrap_or_else(default_jobs);
    let stats = args.iter().any(|a| a == "--stats");
    let json = args.iter().any(|a| a == "--json");
    let ab = args.iter().any(|a| a == "--ab");
    let baseline = arg_str(&args, "--baseline");
    let trace_out = arg_str(&args, "--trace-out");
    let profile = arg_str(&args, "--profile");
    let overlay_path = arg_str(&args, "--overlay");
    let min_factor = arg_f64(&args, "--min-factor").unwrap_or(1.3);
    let workers = arg_usize(&args, "--workers");
    let eager = arg_usize(&args, "--eager-threshold");
    let sanitize = args.iter().any(|a| a == "--sanitize");
    let mut exec = ExecPolicy {
        workers,
        ..ExecPolicy::default()
    };
    if let Some(b) = eager {
        exec = exec.with_eager_threshold(b);
    }
    if sanitize {
        // Shadow-state race sanitizer: charges no virtual time, only fills
        // the race_checks / conflicts_found counters the report gates on.
        exec = exec.with_sanitize();
    }
    if let Some(secs) = arg_usize(&args, "--watch") {
        // Stall watchdog: progress/stall lines on stderr only; snapshots
        // read state and never touch virtual time, so stdout and every
        // artifact stay bit-identical.
        exec = exec.with_watch(WatchCfg::stall_secs(secs as u64));
    }

    let ms = paper_ms(stride);
    let xs: Vec<usize> = ms
        .iter()
        .map(|&m| Topology::paper(m).total_ranks())
        .collect();
    let mut table = SeriesTable::new(xs.clone());

    // Resolve the tuning overlay: from a file when given, otherwise
    // self-tuned from a profile of the smallest sweep point (the full
    // profile → commtune → apply loop inside one process).
    let overlay = match overlay_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("[overlay] cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            let doc = match commint::json::parse(&text) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("[overlay] cannot parse {path}: {e}");
                    std::process::exit(2);
                }
            };
            match overlay_from_json(&doc) {
                Ok(ov) => ov,
                Err(e) => {
                    eprintln!("[overlay] rejected {path}: {e}");
                    std::process::exit(if e.contains("schema") { 3 } else { 2 });
                }
            }
        }
        None => {
            let m = ms[0];
            let obs =
                fig4_spin_observed(&Topology::paper(m), SpinVariant::DirectiveMpi2, steps, exec);
            let nranks = obs.final_times.len();
            let analysis = commscope::analyze(&obs.trace, nranks, &obs.final_times);
            let doc = commscope::profile_json(
                "fig4",
                &[("m".into(), m as i64), ("steps".into(), steps as i64)],
                &analysis,
                &obs.metrics,
            );
            let opts = TuneOptions {
                eager_threshold: eager,
                ..TuneOptions::default()
            };
            tune(&doc, &opts).expect("self-tune from fig4 profile")
        }
    };
    for d in &overlay.decisions {
        eprintln!("  [tune] site {}: {}", d.site, d.rationale);
    }

    let variants = [
        SpinVariant::Original,
        SpinVariant::OriginalWaitall,
        SpinVariant::DirectiveMpi2,
        SpinVariant::DirectiveShmem,
    ];
    // One work item per (variant, m) point; the pool drains them in any
    // order but results come back in input order, so the table (and the
    // stdout golden) is identical to the sequential nested loop.
    let points: Vec<(SpinVariant, usize)> = variants
        .iter()
        .flat_map(|&v| ms.iter().map(move |&m| (v, m)))
        .collect();
    let t0 = Instant::now();
    let results = sweep(&points, jobs, |&(variant, m)| {
        let topo = Topology::paper(m);
        let meas = fig4_spin_exec(&topo, variant, steps, exec);
        assert!(meas.correct, "spin validation failed for {variant:?}");
        meas
    });
    // The tuned series: the directive-MPI variant under the overlay.
    let tuned = sweep(&ms, jobs, |&m| {
        let topo = Topology::paper(m);
        let meas = fig4_spin_tuned(
            &topo,
            SpinVariant::DirectiveMpi2,
            steps,
            exec,
            Some(&overlay),
        );
        assert!(
            meas.correct,
            "spin validation failed for tuned run at m={m}"
        );
        meas
    });
    let wall_s = t0.elapsed().as_secs_f64();

    if trace_out.is_some() || profile.is_some() {
        // Observability re-run at the largest sweep point. With an explicit
        // overlay the tuned run is observed and the profile records the
        // overlay's provenance; otherwise this stays the plain directive-MPI
        // run (the profile a tuning pass would consume).
        let m = *ms.last().expect("non-empty sweep");
        let topo = Topology::paper(m);
        let fig_args = [
            ("m".to_string(), m as i64),
            ("steps".to_string(), steps as i64),
        ];
        if overlay_path.is_some() {
            let obs = fig4_spin_tuned_observed(
                &topo,
                SpinVariant::DirectiveMpi2,
                steps,
                exec,
                Some(&overlay),
            );
            let prov = overlay_provenance(&overlay);
            emit_observability("fig4", &fig_args, &obs, trace_out, profile, Some(&prov));
        } else {
            let obs = fig4_spin_observed(&topo, SpinVariant::DirectiveMpi2, steps, exec);
            emit_observability("fig4", &fig_args, &obs, trace_out, profile, None);
        }
    }

    let mut stat_lines = Vec::new();
    let mut series = Vec::new();
    for (vi, variant) in variants.iter().enumerate() {
        let runs = &results[vi * ms.len()..(vi + 1) * ms.len()];
        table.push(variant.label(), runs.iter().map(|r| r.time).collect());
        let mut total = RankStats::default();
        for r in runs {
            total.merge(&r.stats);
        }
        series.push(SeriesReport::new(
            variant.label(),
            runs.iter().map(|r| r.time.as_nanos()).collect(),
            &total,
        ));
        if stats {
            stat_lines.push(render_stats(variant.label(), &total));
        }
        eprintln!("  [done] {}", variant.label());
    }
    table.push(COALESCED_LABEL, tuned.iter().map(|r| r.time).collect());
    let mut tuned_total = RankStats::default();
    for r in &tuned {
        tuned_total.merge(&r.stats);
    }
    series.push(SeriesReport::new(
        COALESCED_LABEL,
        tuned.iter().map(|r| r.time.as_nanos()).collect(),
        &tuned_total,
    ));
    if stats {
        stat_lines.push(render_stats(COALESCED_LABEL, &tuned_total));
    }
    eprintln!("  [done] {COALESCED_LABEL}");

    // A/B gate: every tuned point must hold its own against the untuned
    // directive run (a tuning decision must never regress), and the tuned
    // series must beat "Original Communication" by at least `min_factor`.
    if ab {
        // Site-attributed explanation artifact: profile the untuned and
        // tuned directive runs at the largest sweep point and diff them, so
        // the gate's verdict comes with per-site blame deltas instead of a
        // bare factor. Written next to the overlay so rationale (overlay)
        // and measured outcome (diff) land in one place.
        let m = *ms.last().expect("non-empty sweep");
        let topo = Topology::paper(m);
        let fig_args = [
            ("m".to_string(), m as i64),
            ("steps".to_string(), steps as i64),
        ];
        let base_obs = fig4_spin_observed(&topo, SpinVariant::DirectiveMpi2, steps, exec);
        let base_analysis = commscope::analyze(
            &base_obs.trace,
            base_obs.final_times.len(),
            &base_obs.final_times,
        );
        let base_doc =
            commscope::profile_json("fig4", &fig_args, &base_analysis, &base_obs.metrics);
        let cand_obs = fig4_spin_tuned_observed(
            &topo,
            SpinVariant::DirectiveMpi2,
            steps,
            exec,
            Some(&overlay),
        );
        let cand_analysis = commscope::analyze(
            &cand_obs.trace,
            cand_obs.final_times.len(),
            &cand_obs.final_times,
        );
        let prov = overlay_provenance(&overlay);
        let cand_doc = commscope::profile_json_tuned(
            "fig4",
            &fig_args,
            &cand_analysis,
            &cand_obs.metrics,
            Some(&prov),
        );
        let diff = commscope::diff_profiles(&base_doc, &cand_doc).expect("diff own profiles");
        eprint!("{}", commscope::render_diff_text(&diff));
        let diff_path = arg_str(&args, "--diff-out")
            .map(String::from)
            .or_else(|| overlay_path.map(|p| format!("{p}.diff.json")));
        if let Some(path) = &diff_path {
            std::fs::write(path, diff.render()).expect("write A/B diff artifact");
            eprintln!("[ab] wrote site-attributed diff to {path}");
        }

        let dir_runs = &results[2 * ms.len()..3 * ms.len()];
        let orig_runs = &results[..ms.len()];
        let mut failed = false;
        for (i, (t, b)) in tuned.iter().zip(dir_runs).enumerate() {
            if t.time > b.time {
                eprintln!(
                    "[ab] REGRESSION at {} ranks: tuned {} ns > untuned {} ns",
                    xs[i],
                    t.time.as_nanos(),
                    b.time.as_nanos()
                );
                failed = true;
            }
        }
        let mut factor = 0.0;
        for (t, o) in tuned.iter().zip(orig_runs) {
            factor += o.time.as_nanos() as f64 / t.time.as_nanos() as f64;
        }
        factor /= ms.len() as f64;
        if factor < min_factor {
            eprintln!(
                "[ab] FAILED: mean speedup over Original Communication is {factor:.3}x, \
                 below the {min_factor:.3}x gate"
            );
            failed = true;
        } else {
            eprintln!("[ab] ok: tuned series beats Original Communication by {factor:.3}x (gate {min_factor:.3}x)");
        }
        if failed {
            std::process::exit(2);
        }
    }

    if json {
        let report = BenchReport {
            bench: "fig4".into(),
            args: vec![
                ("stride".into(), stride as i64),
                ("steps".into(), steps as i64),
                ("workers".into(), workers.map_or(-1, |w| w as i64)),
                ("eager_threshold".into(), eager.map_or(-1, |b| b as i64)),
            ],
            ranks: xs,
            series,
            wall_s,
        };
        bench::ledger::maybe_record(&args, &report, &bench::ledger::engine_label(workers));
        std::process::exit(emit_json_report(&report, baseline));
    }

    println!(
        "{}",
        table.render("Fig. 4 — Random spin configuration communication (s per WL step)")
    );
    println!("# Speedups vs original (paper: Waitall-mod ~2.6x, MPI directive ~4x, SHMEM directive ~38x)");
    println!(
        "original/waitall-modified      = {:6.2}x",
        table.avg_speedup(0, 1)
    );
    println!(
        "original/directive-MPI-2sided  = {:6.2}x",
        table.avg_speedup(0, 2)
    );
    println!(
        "original/directive-SHMEM       = {:6.2}x",
        table.avg_speedup(0, 3)
    );
    println!(
        "waitall-mod/directive-MPI      = {:6.2}x  (paper ~1.4x)",
        table.avg_speedup(1, 2)
    );
    println!(
        "waitall-mod/directive-SHMEM    = {:6.2}x  (paper ~14.5x)",
        table.avg_speedup(1, 3)
    );
    println!(
        "original/directive-MPI-coalesced = {:6.2}x  (profile-guided overlay)",
        table.avg_speedup(0, 4)
    );
    for line in stat_lines {
        println!("{line}");
    }
}
