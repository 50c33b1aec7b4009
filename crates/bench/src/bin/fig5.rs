//! Figure 5: execution time for directive communication/computation
//! overlap — spin communication plus the first `calculateCoreStates` slice,
//! under the paper's projected 10x GPU speedup of the computation.
//!
//! Usage: `fig5 [--stride K] [--steps N] [--jobs J] [--workers W]
//!              [--eager-threshold B] [--stats] [--json] [--baseline FILE]
//!              [--ledger FILE] [--trace-out FILE] [--profile FILE]`
//! (`--eager-threshold` overrides the cost model's eager/rendezvous
//! protocol switch, in bytes; `--ledger` appends the `--json` report to the
//! run-history ledger read by `commscope trend`).

use std::time::Instant;

use bench::{
    arg_str, arg_usize, default_jobs, emit_json_report, emit_observability, paper_ms, render_stats,
    sweep, BenchReport, SeriesReport, SeriesTable,
};
use netsim::{ExecPolicy, RankStats};
use wl_lsms::{fig5_overlap_exec, fig5_overlap_observed, AtomSizes, CoreStateParams, Topology};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let stride = arg_usize(&args, "--stride").unwrap_or(1);
    let steps = arg_usize(&args, "--steps").unwrap_or(3);
    let jobs = arg_usize(&args, "--jobs").unwrap_or_else(default_jobs);
    let stats = args.iter().any(|a| a == "--stats");
    let json = args.iter().any(|a| a == "--json");
    let baseline = arg_str(&args, "--baseline");
    let trace_out = arg_str(&args, "--trace-out");
    let profile = arg_str(&args, "--profile");
    let workers = arg_usize(&args, "--workers");
    let eager = arg_usize(&args, "--eager-threshold");
    let mut exec = ExecPolicy {
        workers,
        ..ExecPolicy::default()
    };
    if let Some(b) = eager {
        exec = exec.with_eager_threshold(b);
    }

    let ms = paper_ms(stride);
    let xs: Vec<usize> = ms
        .iter()
        .map(|&m| Topology::paper(m).total_ranks())
        .collect();
    let mut table = SeriesTable::new(xs.clone());

    // The paper's projection: core-state computation accelerated 10x.
    let cparams = CoreStateParams::default().gpu();
    let sizes = AtomSizes::default();

    let modes = [false, true];
    let points: Vec<(bool, usize)> = modes
        .iter()
        .flat_map(|&d| ms.iter().map(move |&m| (d, m)))
        .collect();
    let t0 = Instant::now();
    let results = sweep(&points, jobs, |&(directive, m)| {
        let topo = Topology::paper(m);
        fig5_overlap_exec(&topo, directive, cparams, sizes, steps, exec)
    });
    let wall_s = t0.elapsed().as_secs_f64();

    if trace_out.is_some() || profile.is_some() {
        // Observability re-run: the overlapped directive path at the
        // largest sweep point.
        let m = *ms.last().expect("non-empty sweep");
        let obs = fig5_overlap_observed(&Topology::paper(m), true, cparams, sizes, steps, exec);
        emit_observability(
            "fig5",
            &[("m".into(), m as i64), ("steps".into(), steps as i64)],
            &obs,
            trace_out,
            profile,
            None,
        );
    }

    let mut stat_lines = Vec::new();
    let mut series = Vec::new();
    for (di, &directive) in modes.iter().enumerate() {
        let label = if directive {
            "Directive Communication w/ Overlapped Computation"
        } else {
            "Original Communication + Optimized Computation"
        };
        let runs = &results[di * ms.len()..(di + 1) * ms.len()];
        table.push(label, runs.iter().map(|r| r.time).collect());
        let mut total = RankStats::default();
        for r in runs {
            total.merge(&r.stats);
        }
        series.push(SeriesReport::new(
            label,
            runs.iter().map(|r| r.time.as_nanos()).collect(),
            &total,
        ));
        if stats {
            stat_lines.push(render_stats(label, &total));
        }
        eprintln!("  [done] {label}");
    }

    if json {
        let report = BenchReport {
            bench: "fig5".into(),
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
        table
            .render("Fig. 5 — Spin comm + core-state computation per step (s), 10x GPU projection")
    );
    println!("# The overlap hides communication behind computation (bounded by compute).");
    println!(
        "original/overlap speedup = {:5.2}x",
        table.avg_speedup(0, 1)
    );
    for line in stat_lines {
        println!("{line}");
    }
}
