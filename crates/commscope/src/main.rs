//! `commscope` — profile a figure workload and export its observability.
//!
//! Usage:
//!   commscope <fig3|fig4|fig5> [--m M] [--steps N] [--workers W]
//!             [--variant original|waitall|mpi|shmem]
//!             [--trace-out FILE] [--profile FILE] [--folded FILE] [--check]
//!   commscope diff <baseline.json> <candidate.json>
//!             [--json-out FILE] [--text-out FILE] [--check] [--expect-zero]
//!   commscope trend <LEDGER.jsonl> [--last K] [--tolerance PCT] [--check]
//!
//! The figure form runs the selected WL-LSMS workload at one sweep point
//! (`--m` LSMS instances) with tracing and metrics enabled, prints a
//! wait-state report, and optionally writes a Perfetto-loadable Chrome
//! trace (`--trace-out`), a stable profile JSON (`--profile`), and
//! flamegraph folded stacks (`--folded`). `--check` re-parses and
//! schema-validates everything that was produced (used by the CI smoke
//! job). All outputs are pure functions of virtual time: byte-identical
//! for any `--workers` setting.
//!
//! `diff` joins two profile JSONs on the SiteId namespace and reports
//! per-site deltas with exact accounting (see [`commscope::diff`]);
//! `--expect-zero` makes a nonzero diff fail (the identical-run CI gate).
//! `trend` renders the run-history trajectory from the bench ledger and
//! flags regressions against the mean of the last K prior entries.

use commint::json::{self, Json};
use commscope::{
    analyze, chrome_trace, diff_is_zero, diff_profiles, folded_stacks, parse_ledger, profile_json,
    render_diff_text, render_trend_text, trend, validate_diff, validate_profile,
};
use netsim::ExecPolicy;
use wl_lsms::{
    fig3_single_atom_observed, fig4_spin_observed, fig5_overlap_observed, AtomCommVariant,
    AtomSizes, CoreStateParams, Observed, SpinVariant, Topology,
};

fn arg_usize(args: &[String], name: &str) -> Option<usize> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn arg_str<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage() -> ! {
    eprintln!(
        "usage: commscope <fig3|fig4|fig5> [--m M] [--steps N] [--workers W]\n\
         \x20                [--variant original|waitall|mpi|shmem]\n\
         \x20                [--trace-out FILE] [--profile FILE] [--folded FILE] [--check]\n\
         \x20      commscope diff <baseline.json> <candidate.json>\n\
         \x20                [--json-out FILE] [--text-out FILE] [--check] [--expect-zero]\n\
         \x20      commscope trend <LEDGER.jsonl> [--last K] [--tolerance PCT] [--check]"
    );
    std::process::exit(2);
}

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: invalid JSON: {e}");
        std::process::exit(2);
    })
}

/// `commscope diff <baseline.json> <candidate.json>`: returns the exit code.
fn cmd_diff(args: &[String]) -> i32 {
    let (Some(base_path), Some(cand_path)) = (args.get(2), args.get(3)) else {
        usage();
    };
    if base_path.starts_with("--") || cand_path.starts_with("--") {
        usage();
    }
    let baseline = read_json(base_path);
    let candidate = read_json(cand_path);
    let doc = match diff_profiles(&baseline, &candidate) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("diff failed: {e}");
            return 2;
        }
    };
    let text = render_diff_text(&doc);
    print!("{text}");
    if let Some(path) = arg_str(args, "--json-out") {
        std::fs::write(path, doc.render()).expect("write --json-out file");
        eprintln!("[diff] wrote {path}");
    }
    if let Some(path) = arg_str(args, "--text-out") {
        std::fs::write(path, &text).expect("write --text-out file");
        eprintln!("[diff] wrote {path}");
    }
    let mut failures = 0;
    if args.iter().any(|a| a == "--check") {
        let problems = validate_diff(&doc);
        for p in &problems {
            eprintln!("[check] diff: {p}");
        }
        failures += problems.len();
    }
    if args.iter().any(|a| a == "--expect-zero") && !diff_is_zero(&doc) {
        eprintln!("[check] diff is not zero (expected identical runs)");
        failures += 1;
    }
    if failures > 0 {
        eprintln!("[check] {failures} problem(s)");
        3
    } else {
        0
    }
}

/// `commscope trend <LEDGER.jsonl>`: returns the exit code.
fn cmd_trend(args: &[String]) -> i32 {
    let Some(path) = args.get(2).filter(|p| !p.starts_with("--")) else {
        usage();
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let entries = match parse_ledger(&text) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 2;
        }
    };
    let last_k = arg_usize(args, "--last").unwrap_or(5);
    let tolerance = arg_str(args, "--tolerance")
        .and_then(|t| t.parse::<f64>().ok())
        .unwrap_or(10.0);
    let trends = trend(&entries, last_k, tolerance);
    print!("{}", render_trend_text(&trends, last_k, tolerance));
    if args.iter().any(|a| a == "--check") && trends.iter().any(|t| t.regressed) {
        return 3;
    }
    0
}

fn run_workload(
    workload: &str,
    variant: &str,
    m: usize,
    steps: usize,
    exec: ExecPolicy,
) -> Observed {
    let topo = Topology::paper(m);
    match workload {
        "fig3" => {
            let v = match variant {
                "original" => AtomCommVariant::Original,
                "mpi" => AtomCommVariant::DirectiveMpi2,
                "shmem" => AtomCommVariant::DirectiveShmem,
                other => {
                    eprintln!("fig3 has no variant '{other}' (original|mpi|shmem)");
                    std::process::exit(2);
                }
            };
            fig3_single_atom_observed(&topo, v, AtomSizes::default(), exec)
        }
        "fig4" => {
            let v = match variant {
                "original" => SpinVariant::Original,
                "waitall" => SpinVariant::OriginalWaitall,
                "mpi" => SpinVariant::DirectiveMpi2,
                "shmem" => SpinVariant::DirectiveShmem,
                other => {
                    eprintln!("fig4 has no variant '{other}' (original|waitall|mpi|shmem)");
                    std::process::exit(2);
                }
            };
            fig4_spin_observed(&topo, v, steps, exec)
        }
        "fig5" => {
            let directive = match variant {
                "original" => false,
                "mpi" => true,
                other => {
                    eprintln!("fig5 has no variant '{other}' (original|mpi)");
                    std::process::exit(2);
                }
            };
            let cparams = CoreStateParams {
                base_ns_per_atom: 200_000,
                speedup: 10.0,
                iterations: 2,
            };
            fig5_overlap_observed(&topo, directive, cparams, AtomSizes::default(), steps, exec)
        }
        _ => usage(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload = match args.get(1).map(String::as_str) {
        Some("diff") => std::process::exit(cmd_diff(&args)),
        Some("trend") => std::process::exit(cmd_trend(&args)),
        Some(w @ ("fig3" | "fig4" | "fig5")) => w,
        _ => usage(),
    };
    let m = arg_usize(&args, "--m").unwrap_or(2);
    let steps = arg_usize(&args, "--steps").unwrap_or(2);
    let variant = arg_str(&args, "--variant").unwrap_or("mpi");
    let workers = arg_usize(&args, "--workers");
    let exec = ExecPolicy {
        workers,
        ..ExecPolicy::default()
    };
    let check = args.iter().any(|a| a == "--check");

    let obs = run_workload(workload, variant, m, steps, exec);
    let nranks = obs.final_times.len();
    let analysis = analyze(&obs.trace, nranks, &obs.final_times);

    // ---- human-readable report ------------------------------------------
    println!("# commscope {workload} --variant {variant} --m {m} ({nranks} ranks)");
    println!(
        "measured: {}   makespan: {}   events: {}",
        obs.measurement.time,
        analysis.makespan,
        obs.trace.len()
    );
    let total_wait: u64 = analysis.ranks.iter().map(|p| p.total_wait_ns).sum();
    let ls: u64 = analysis.ranks.iter().map(|p| p.late_sender_ns).sum();
    let lr: u64 = analysis.ranks.iter().map(|p| p.late_receiver_ns).sum();
    let ba: u64 = analysis.ranks.iter().map(|p| p.barrier_ns).sum();
    let qu: u64 = analysis.ranks.iter().map(|p| p.quiet_ns).sum();
    let ov: u64 = analysis.ranks.iter().map(|p| p.overhead_ns).sum();
    println!(
        "wait-state: total {total_wait}ns = late_sender {ls} + late_receiver {lr} \
         + barrier {ba} + quiet {qu} + overhead {ov}"
    );

    // Most-blamed ranks across the whole job.
    let mut blamed = vec![0u64; nranks];
    for p in &analysis.ranks {
        for (r, ns) in p.blame.iter().enumerate() {
            blamed[r] += ns;
        }
    }
    let mut order: Vec<usize> = (0..nranks).collect();
    order.sort_by_key(|&r| std::cmp::Reverse(blamed[r]));
    print!("most blamed:");
    for &r in order.iter().take(5).filter(|&&r| blamed[r] > 0) {
        print!(" rank {r} ({}ns)", blamed[r]);
    }
    println!();

    // Critical-path composition.
    let mut on_path: std::collections::BTreeMap<&str, u64> = Default::default();
    for s in &analysis.critical_path {
        *on_path.entry(s.label).or_insert(0) += s.end.saturating_sub(s.start).as_nanos();
    }
    print!(
        "critical path: {} segments, ends on rank {};",
        analysis.critical_path.len(),
        analysis.critical_path.last().map_or(0, |s| s.rank)
    );
    for (label, ns) in &on_path {
        print!(" {label}={ns}ns");
    }
    println!();

    // Per-site totals (merged over ranks).
    let mut site_totals = netsim::RankMetrics::default();
    for rm in &obs.metrics {
        site_totals.merge(rm);
    }
    for s in &site_totals.sites {
        println!(
            "site {:>3}: sent {} msgs / {} B, recvd {} msgs / {} B, dwell {}ns",
            s.site, s.msgs_sent, s.bytes_sent, s.msgs_recvd, s.bytes_recvd, s.dwell_ns
        );
    }

    // ---- exports ---------------------------------------------------------
    let cli_args = vec![
        ("m".to_string(), m as i64),
        ("steps".to_string(), steps as i64),
    ];
    let mut failures = 0;

    if let Some(path) = arg_str(&args, "--trace-out") {
        let text = chrome_trace(&obs.trace, nranks);
        if check {
            match json::parse(&text) {
                Ok(doc) if doc.get("traceEvents").and_then(|v| v.as_arr()).is_some() => {}
                Ok(_) => {
                    eprintln!("[check] trace JSON missing traceEvents array");
                    failures += 1;
                }
                Err(e) => {
                    eprintln!("[check] trace JSON invalid: {e}");
                    failures += 1;
                }
            }
        }
        std::fs::write(path, &text).expect("write trace");
        eprintln!("[trace] wrote {path} ({} bytes)", text.len());
    }

    if let Some(path) = arg_str(&args, "--profile") {
        let doc = profile_json(workload, &cli_args, &analysis, &obs.metrics);
        if check {
            let problems = validate_profile(&doc);
            for p in &problems {
                eprintln!("[check] profile: {p}");
            }
            failures += problems.len();
        }
        let text = doc.render();
        std::fs::write(path, &text).expect("write profile");
        eprintln!("[profile] wrote {path} ({} bytes)", text.len());
    }

    if let Some(path) = arg_str(&args, "--folded") {
        let text = folded_stacks(&obs.trace);
        std::fs::write(path, &text).expect("write folded");
        eprintln!("[folded] wrote {path} ({} stacks)", text.lines().count());
    }

    if failures > 0 {
        eprintln!("[check] {failures} problem(s)");
        std::process::exit(3);
    }
}
