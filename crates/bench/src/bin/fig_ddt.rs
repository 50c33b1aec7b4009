//! Layout-engine benchmark: pack vs derived datatype vs typed put, swept
//! over payload shape × lowering strategy × backend.
//!
//! Usage: `fig_ddt [--ranks N] [--iters I] [--jobs J] [--workers W]
//!                 [--ab] [--min-factor F] [--diff-out FILE] [--stats]
//!                 [--json] [--baseline FILE] [--ledger FILE]`
//!
//! Each point runs a ring exchange of one shaped payload — contiguous,
//! strided, struct, struct-of-arrays, or one-level-nested composite —
//! under a fixed lowering policy (`pack` = the Listing-4 baseline that
//! stages everything through pack/unpack, `ddt` = always derived
//! datatypes, `auto` = the cost-model chooser) on both the MPI two-sided
//! and SHMEM backends. The element-count axis (reported in the JSON
//! `ranks` field) crosses the chooser's split-vs-pack crossover, so `auto`
//! must switch strategies mid-sweep to win everywhere.
//!
//! `--ab` turns the run into a gate: for at least one backend, the `auto`
//! series must be no slower than `pack` at EVERY (shape, count) point and
//! its mean speedup over `pack` must reach `--min-factor` (default 1.3),
//! else exit 2. Virtual times are exact integers, identical across
//! engines and hosts, so `--baseline` diffs are byte-precise.
//!
//! The gate also attaches a site-attributed explanation: each shape runs
//! as its own directive site, so profiling one observed run of all five
//! shapes under `pack` and one under `auto` (MPI two-sided backend, the
//! largest element count) and diffing them with commdiff shows exactly
//! which shapes the chooser won or lost on. The per-site report goes to
//! stderr and the diff JSON to `--diff-out FILE` (default
//! `fig_ddt.ab.diff.json`). `--ledger` appends the `--json` report to the
//! run-history ledger read by `commscope trend`.

use std::time::Instant;

use bench::{
    arg_str, arg_usize, default_jobs, emit_json_report, render_stats, sweep, BenchReport, Json,
    SeriesReport,
};
use commint::buffer::{CompositeLayout, Described, FieldDef, NestedField};
use commint::prelude::*;

use mpisim::dtype::BasicType;
use mpisim::Comm;
use netsim::{run, ExecPolicy, RankStats, SimConfig, Time};

/// Element counts swept per series; the largest crosses the ~5.8 KB
/// struct-of-arrays split-vs-pack crossover on the Gemini MPI model.
const COUNTS: [usize; 3] = [64, 512, 4096];

/// Payload shapes under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Contig,
    Strided,
    Struct,
    Soa,
    Nested,
}

impl Shape {
    const ALL: [Shape; 5] = [
        Shape::Contig,
        Shape::Strided,
        Shape::Struct,
        Shape::Soa,
        Shape::Nested,
    ];

    fn label(self) -> &'static str {
        match self {
            Shape::Contig => "contig",
            Shape::Strided => "strided",
            Shape::Struct => "struct",
            Shape::Soa => "soa",
            Shape::Nested => "nested",
        }
    }

    /// Directive site id carried by this shape's `comm_p2p`: distinct per
    /// shape so traces, profiles, and the A/B diff attribute each shape's
    /// cost to its own row.
    fn site(self) -> u32 {
        match self {
            Shape::Contig => 1,
            Shape::Strided => 2,
            Shape::Struct => 3,
            Shape::Soa => 4,
            Shape::Nested => 5,
        }
    }
}

fn policy_label(p: LoweringPolicy) -> &'static str {
    match p {
        LoweringPolicy::AlwaysPack => "pack",
        LoweringPolicy::AlwaysDatatype => "ddt",
        LoweringPolicy::Auto => "auto",
    }
}

fn backend_label(t: Target) -> &'static str {
    match t {
        Target::Mpi2Side => "mpi2",
        Target::Mpi1Side => "mpi1",
        Target::Shmem => "shmem",
    }
}

commint::comm_datatype! {
    /// The struct shape: a particle-like record with a vector member.
    struct Cell {
        id: i32,
        pos: [f64; 3],
        charge: f64,
    }
}

commint::comm_datatype! {
    /// Inner composite embedded by the nested shape.
    struct Moment {
        m: [f64; 2],
        weight: f64,
    }
}

/// The one-level-nested shape: a composite embedding [`Moment`], flattened
/// by [`CompositeLayout::nested`] into an ordinary struct datatype.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq)]
struct Site {
    tag: i32,
    moment: Moment,
    energy: f64,
}

unsafe impl Described for Site {
    fn layout() -> CompositeLayout {
        CompositeLayout::nested::<Site>(
            "Site",
            vec![
                NestedField::Prim(FieldDef {
                    name: "tag".into(),
                    offset: std::mem::offset_of!(Site, tag),
                    ty: BasicType::I32,
                    blocklen: 1,
                }),
                NestedField::Nested {
                    name: "moment".into(),
                    offset: std::mem::offset_of!(Site, moment),
                    layout: Moment::layout(),
                },
                NestedField::Prim(FieldDef {
                    name: "energy".into(),
                    offset: std::mem::offset_of!(Site, energy),
                    ty: BasicType::F64,
                    blocklen: 1,
                }),
            ],
        )
    }
}

fn ring_params(target: Target) -> CommParams {
    CommParams::new()
        .sender((RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks())
        .receiver((RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks())
        .target(target)
}

/// One ring exchange of `count` elements of `shape` inside an open
/// session. Each shape's `comm_p2p` carries its own site id
/// ([`Shape::site`]), so attribution stays per-shape even though every
/// shape shares this lexical callsite.
fn exchange(session: &mut CommSession<'_>, params: &CommParams, shape: Shape, count: usize) {
    let me = session.rank() as i64;
    let nranks = session.size();
    let prev = (session.rank() + nranks - 1) % nranks;
    match shape {
        Shape::Contig => {
            let src = vec![me as f64; count];
            let mut dst = vec![0f64; count];
            session
                .region(params, |reg| {
                    reg.p2p()
                        .site(shape.site())
                        .count(RankExpr::lit(count as i64))
                        .sbuf(Prim::new("s", &src))
                        .rbuf(PrimMut::new("r", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            session.flush();
            assert_eq!(dst[0] as usize, prev, "contig payload corrupted");
        }
        Shape::Strided => {
            // blocklen-2 blocks every 4: half the memory moves.
            let src = vec![me as f64; count * 4];
            let mut dst = vec![-1f64; count * 4];
            session
                .region(params, |reg| {
                    reg.p2p()
                        .site(shape.site())
                        .count(RankExpr::lit(count as i64))
                        .sbuf(PrimStrided::new("s", &src, 2, 4))
                        .rbuf(PrimStridedMut::new("r", &mut dst, 2, 4))
                        .run()
                        .unwrap();
                })
                .unwrap();
            session.flush();
            assert_eq!(dst[0] as usize, prev, "strided payload corrupted");
            assert_eq!(dst[2], -1.0, "strided gap overwritten");
        }
        Shape::Struct => {
            let src = vec![
                Cell {
                    id: me as i32,
                    pos: [me as f64; 3],
                    charge: 1.0,
                };
                count
            ];
            let mut dst = vec![
                Cell {
                    id: -1,
                    pos: [0.0; 3],
                    charge: 0.0,
                };
                count
            ];
            session
                .region(params, |reg| {
                    reg.p2p()
                        .site(shape.site())
                        .count(RankExpr::lit(count as i64))
                        .sbuf(Struc::new("s", &src))
                        .rbuf(StrucMut::new("r", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            session.flush();
            assert_eq!(dst[0].id as usize, prev, "struct payload corrupted");
        }
        Shape::Soa => {
            let a = vec![me; count];
            let b = vec![me as f64; count];
            let c = vec![me as i32; count * 2];
            let mut ra = vec![0i64; count];
            let mut rb = vec![0f64; count];
            let mut rc = vec![0i32; count * 2];
            session
                .region(params, |reg| {
                    reg.p2p()
                        .site(shape.site())
                        .count(RankExpr::lit(count as i64))
                        .sbuf(
                            Soa::new("s")
                                .field("a", &a)
                                .field("b", &b)
                                .field_blocks("c", &c, 2),
                        )
                        .rbuf(
                            SoaMut::new("r")
                                .field("a", &mut ra)
                                .field("b", &mut rb)
                                .field_blocks("c", &mut rc, 2),
                        )
                        .run()
                        .unwrap();
                })
                .unwrap();
            session.flush();
            assert_eq!(ra[0] as usize, prev, "soa payload corrupted");
        }
        Shape::Nested => {
            let src = vec![
                Site {
                    tag: me as i32,
                    moment: Moment {
                        m: [me as f64; 2],
                        weight: 0.5,
                    },
                    energy: 2.0,
                };
                count
            ];
            let mut dst = vec![
                Site {
                    tag: -1,
                    moment: Moment {
                        m: [0.0; 2],
                        weight: 0.0,
                    },
                    energy: 0.0,
                };
                count
            ];
            session
                .region(params, |reg| {
                    reg.p2p()
                        .site(shape.site())
                        .count(RankExpr::lit(count as i64))
                        .sbuf(Struc::new("s", &src))
                        .rbuf(StrucMut::new("r", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            session.flush();
            assert_eq!(dst[0].tag as usize, prev, "nested payload corrupted");
        }
    }
}

/// Run `iters` ring exchanges of `count` elements of `shape` under the
/// given lowering policy and return (makespan, merged stats).
fn measure(
    shape: Shape,
    policy: LoweringPolicy,
    target: Target,
    count: usize,
    nranks: usize,
    iters: usize,
    exec: ExecPolicy,
) -> (Time, RankStats) {
    let res = run(SimConfig::new(nranks).with_exec(exec), move |ctx| {
        let comm = Comm::world(ctx);
        let mut session = CommSession::new(ctx, comm).with_lowering(policy);
        let params = ring_params(target);
        for _ in 0..iters {
            exchange(&mut session, &params, shape, count);
        }
    });
    (res.makespan(), res.total_stats())
}

/// Observed run for the A/B diff artifact: all five shapes in ONE
/// simulation (each on its own directive site) under `policy`, traced and
/// metered, returned as a commscope profile document.
fn profile_observed(
    policy: LoweringPolicy,
    target: Target,
    count: usize,
    nranks: usize,
    iters: usize,
    exec: ExecPolicy,
) -> Json {
    let res = run(
        SimConfig::new(nranks)
            .with_exec(exec)
            .with_trace()
            .with_metrics(),
        move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).with_lowering(policy);
            let params = ring_params(target);
            for &shape in &Shape::ALL {
                for _ in 0..iters {
                    exchange(&mut session, &params, shape, count);
                }
            }
        },
    );
    let trace = res.trace.as_deref().expect("trace enabled");
    let metrics = res.metrics.as_deref().expect("metrics enabled");
    let analysis = commscope::analyze(trace, nranks, &res.final_times);
    commscope::profile_json(
        "fig_ddt",
        &[
            ("ranks".to_string(), nranks as i64),
            ("iters".to_string(), iters as i64),
            ("count".to_string(), count as i64),
        ],
        &analysis,
        metrics,
    )
}

fn arg_f64(args: &[String], name: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nranks = arg_usize(&args, "--ranks").unwrap_or(8);
    let iters = arg_usize(&args, "--iters").unwrap_or(8);
    let jobs = arg_usize(&args, "--jobs").unwrap_or_else(default_jobs);
    let stats = args.iter().any(|a| a == "--stats");
    let json = args.iter().any(|a| a == "--json");
    let ab = args.iter().any(|a| a == "--ab");
    let baseline = arg_str(&args, "--baseline");
    let min_factor = arg_f64(&args, "--min-factor").unwrap_or(1.3);
    let workers = arg_usize(&args, "--workers");
    let exec = ExecPolicy {
        workers,
        ..ExecPolicy::default()
    };

    let backends = [Target::Mpi2Side, Target::Shmem];
    let policies = [
        LoweringPolicy::AlwaysPack,
        LoweringPolicy::AlwaysDatatype,
        LoweringPolicy::Auto,
    ];
    // One work item per (backend, policy, shape, count) point; results come
    // back in input order, so series assembly below is deterministic.
    let points: Vec<(Target, LoweringPolicy, Shape, usize)> = backends
        .iter()
        .flat_map(|&t| {
            policies.iter().flat_map(move |&p| {
                Shape::ALL
                    .iter()
                    .flat_map(move |&s| COUNTS.iter().map(move |&c| (t, p, s, c)))
            })
        })
        .collect();
    let t0 = Instant::now();
    let results = sweep(&points, jobs, |&(t, p, s, c)| {
        measure(s, p, t, c, nranks, iters, exec)
    });
    let wall_s = t0.elapsed().as_secs_f64();

    // Assemble one series per (backend, policy, shape) with COUNTS as x.
    let mut series = Vec::new();
    let mut stat_lines = Vec::new();
    let mut idx = 0usize;
    for &t in &backends {
        for &p in &policies {
            for &s in &Shape::ALL {
                let runs = &results[idx..idx + COUNTS.len()];
                idx += COUNTS.len();
                let label = format!("{}/{}/{}", s.label(), policy_label(p), backend_label(t));
                let mut total = RankStats::default();
                for (_, st) in runs {
                    total.merge(st);
                }
                series.push(SeriesReport::new(
                    label.clone(),
                    runs.iter().map(|(time, _)| time.as_nanos()).collect(),
                    &total,
                ));
                if stats {
                    stat_lines.push(render_stats(&label, &total));
                }
            }
        }
    }

    // A/B gate: per backend, `auto` must hold every point against `pack`
    // and beat it by `min_factor` on average; one conforming backend
    // passes the gate (the chooser is per-target, so the other backend's
    // margin may legitimately differ).
    if ab {
        let by_label: std::collections::HashMap<&str, &SeriesReport> =
            series.iter().map(|s| (s.label.as_str(), s)).collect();
        let mut any_backend_ok = false;
        for &t in &backends {
            let mut regressed = false;
            let mut factor = 0.0;
            let mut npoints = 0usize;
            for &s in &Shape::ALL {
                let auto = by_label[format!("{}/auto/{}", s.label(), backend_label(t)).as_str()];
                let pack = by_label[format!("{}/pack/{}", s.label(), backend_label(t)).as_str()];
                for (i, (&at, &pt)) in auto.time_ns.iter().zip(&pack.time_ns).enumerate() {
                    if at > pt {
                        eprintln!(
                            "[ab] {}: auto slower than pack for {} at count {}: {} ns > {} ns",
                            backend_label(t),
                            s.label(),
                            COUNTS[i],
                            at,
                            pt
                        );
                        regressed = true;
                    }
                    factor += pt as f64 / at as f64;
                    npoints += 1;
                }
            }
            factor /= npoints as f64;
            let ok = !regressed && factor >= min_factor;
            eprintln!(
                "[ab] {}: mean auto-vs-pack speedup {factor:.3}x over {npoints} points, \
                 regressions: {} (gate {min_factor:.3}x)",
                backend_label(t),
                if regressed { "yes" } else { "no" },
            );
            any_backend_ok |= ok;
        }
        // Site-attributed explanation: one observed run of all five shapes
        // under pack vs auto (MPI two-sided, largest count); each shape is
        // its own directive site, so the diff rows name the shapes the
        // chooser won or lost on.
        let count = *COUNTS.last().expect("non-empty count axis");
        let base = profile_observed(
            LoweringPolicy::AlwaysPack,
            Target::Mpi2Side,
            count,
            nranks,
            iters,
            exec,
        );
        let cand = profile_observed(
            LoweringPolicy::Auto,
            Target::Mpi2Side,
            count,
            nranks,
            iters,
            exec,
        );
        let diff = commscope::diff_profiles(&base, &cand).expect("diff own profiles");
        eprint!("{}", commscope::render_diff_text(&diff));
        let diff_path = arg_str(&args, "--diff-out").unwrap_or("fig_ddt.ab.diff.json");
        std::fs::write(diff_path, diff.render()).expect("write A/B diff artifact");
        eprintln!("[ab] wrote site-attributed diff to {diff_path}");

        if !any_backend_ok {
            eprintln!("[ab] FAILED: no backend is regression-free with mean >= {min_factor:.3}x");
            std::process::exit(2);
        }
        eprintln!("[ab] ok");
    }

    if json {
        let report = BenchReport {
            bench: "fig_ddt".into(),
            args: vec![
                ("ranks".into(), nranks as i64),
                ("iters".into(), iters as i64),
                ("workers".into(), workers.map_or(-1, |w| w as i64)),
            ],
            ranks: COUNTS.to_vec(),
            series,
            wall_s,
        };
        bench::ledger::maybe_record(&args, &report, &bench::ledger::engine_label(workers));
        std::process::exit(emit_json_report(&report, baseline));
    }

    println!(
        "Fig. DDT — layout lowering sweep (virtual ns, ring of {nranks} ranks x {iters} iters)"
    );
    println!(
        "{:<20} {:>14} {:>14} {:>14}",
        "series", COUNTS[0], COUNTS[1], COUNTS[2]
    );
    for s in &series {
        println!(
            "{:<20} {:>14} {:>14} {:>14}",
            s.label, s.time_ns[0], s.time_ns[1], s.time_ns[2]
        );
    }
    for line in stat_lines {
        println!("{line}");
    }
}
