//! Per-primitive wall-cost microbenchmark for the execution engine.
//!
//! Usage: `microbench [--workers W]` (omit `--workers` for one slot per
//! rank).
//! Prints wall time per simulated operation for a few synthetic workloads;
//! used to attribute engine overhead, not to produce paper figures.

use std::time::Instant;

use netsim::{run, ExecPolicy, SimConfig, SrcSel, TagSel};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workers = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let exec = ExecPolicy {
        workers,
        ..ExecPolicy::default()
    };

    // (a) spawn/teardown only: n ranks that do nothing.
    for n in [64usize, 337] {
        let t0 = Instant::now();
        let reps = 20;
        for _ in 0..reps {
            run(SimConfig::new(n).with_exec(exec), |_ctx| ());
        }
        let dt = t0.elapsed();
        println!(
            "spawn-only        n={n:4}  {:8.1} us/run  ({reps} runs in {dt:?})",
            dt.as_secs_f64() * 1e6 / reps as f64
        );
    }

    // (b) ping-pong: 2 ranks, K round trips (4K blocking ops total).
    {
        let k = 20_000usize;
        let t0 = Instant::now();
        run(SimConfig::new(2).with_exec(exec), move |ctx| {
            let mpi = ctx.machine().mpi;
            let peer = 1 - ctx.rank();
            for _ in 0..k {
                if ctx.rank() == 0 {
                    ctx.send(peer, 0, b"x", &mpi);
                    ctx.recv(SrcSel::Exact(peer), TagSel::Exact(0), &mpi);
                } else {
                    ctx.recv(SrcSel::Exact(peer), TagSel::Exact(0), &mpi);
                    ctx.send(peer, 0, b"x", &mpi);
                }
            }
        });
        let dt = t0.elapsed();
        println!(
            "ping-pong         2 ranks  {:8.0} ns/msg   ({} msgs in {dt:?})",
            dt.as_secs_f64() * 1e9 / (2 * k) as f64,
            2 * k
        );
    }

    // (c) fan-in: master posts n-1 receives, walkers send (the fig4 shape).
    for n in [64usize, 337] {
        let reps = 40usize;
        let t0 = Instant::now();
        run(SimConfig::new(n).with_exec(exec), move |ctx| {
            let mpi = ctx.machine().mpi;
            for _ in 0..reps {
                if ctx.rank() == 0 {
                    for _ in 1..n {
                        ctx.recv(SrcSel::Any, TagSel::Exact(0), &mpi);
                    }
                } else {
                    ctx.send(0, 0, b"spin-mesg-24-bytes-here!", &mpi);
                }
                ctx.barrier(&mpi);
            }
        });
        let dt = t0.elapsed();
        let msgs = reps * (n - 1);
        println!(
            "fan-in+barrier    n={n:4}  {:8.0} ns/msg   ({msgs} msgs in {dt:?})",
            dt.as_secs_f64() * 1e9 / msgs as f64
        );
    }

    // (d) barrier storm: n ranks, K group barriers, no messages.
    for n in [64usize, 337] {
        let k = 200usize;
        let t0 = Instant::now();
        run(SimConfig::new(n).with_exec(exec), move |ctx| {
            let mpi = ctx.machine().mpi;
            for _ in 0..k {
                ctx.barrier(&mpi);
            }
        });
        let dt = t0.elapsed();
        println!(
            "barrier           n={n:4}  {:8.0} ns/rank-entry ({k} barriers in {dt:?})",
            dt.as_secs_f64() * 1e9 / (k * n) as f64
        );
    }
}
