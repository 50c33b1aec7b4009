//! The two simulation workloads.
//!
//! The end-to-end run times the library's own entry points,
//! `wl_lsms::fig4_spin_exec` (SHMEM target) and
//! `wl_lsms::fig3_single_atom_exec` (MPI two-sided target). The traced
//! run needs spans around each layer call inside a rank, so it runs a
//! mirror of those directive paths, step for step; every mirrored
//! simulation must reproduce the library's measurement, counters
//! included.

use std::panic::{catch_unwind, AssertUnwindSafe};

use commint::{CommSession, Target};
use netsim::{run, ExecPolicy, RankStats, SchedStats, SimConfig, Time};
use wl_lsms::atom_comm::{transfer_atom_directive, transfer_atom_original};
use wl_lsms::spin::{generate_spins, set_evec_directive, spin_at};
use wl_lsms::{AtomCommVariant, AtomData, AtomSizes, SpinState, SpinVariant, Topology};

use crate::trace::span;

/// Which rank program a simulation runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Program {
    /// Fig. 4 `setEvec`, directive version, SHMEM target: warm-up step,
    /// clock-aligning barrier, then `steps` measured steps.
    Spin { steps: usize },
    /// Fig. 3 single-atom distribution: Listing 4 from the WL master to
    /// the privileged ranks, then Listing 5 (MPI two-sided) in every LIZ.
    Atom,
}

/// A fixed simulation problem.
#[derive(Clone, Debug)]
pub struct Case {
    pub program: Program,
    pub topo: Topology,
    pub exec: ExecPolicy,
}

/// What one simulation produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Virtual ns per measured step (spin) or per distribution (atom).
    pub virt_ns: u64,
    /// Every rank's payload check passed.
    pub correct: bool,
    pub stats: RankStats,
    pub sched: Option<SchedStats>,
}

impl Outcome {
    /// Whether two runs of one problem agree on everything virtual: the
    /// virtual time and every counter except the unexpected-queue high
    /// water, which depends on the physical order of arrivals.
    pub fn same_virtual(&self, other: &Outcome) -> bool {
        let virtual_only = |s: &RankStats| RankStats {
            uq_high_water: 0,
            ..*s
        };
        self.virt_ns == other.virt_ns && virtual_only(&self.stats) == virtual_only(&other.stats)
    }
}

impl Case {
    pub fn spin(instances: usize, steps: usize) -> Case {
        Case {
            program: Program::Spin { steps },
            topo: Topology::new(instances, 16),
            exec: ExecPolicy::bounded(0).with_stack_size(256 << 10),
        }
    }

    pub fn atom(instances: usize) -> Case {
        Case {
            program: Program::Atom,
            topo: Topology::paper(instances),
            exec: ExecPolicy::bounded(0),
        }
    }

    pub fn ranks(&self) -> usize {
        self.topo.total_ranks()
    }

    /// The same problem at about half the ranks.
    pub fn halved(&self) -> Case {
        Case {
            topo: Topology::new((self.topo.instances / 2).max(1), self.topo.ranks_per_lsms),
            ..self.clone()
        }
    }

    /// The library's own measurement of this problem.
    pub fn reference(&self) -> Outcome {
        let m = match self.program {
            Program::Spin { steps } => {
                wl_lsms::fig4_spin_exec(&self.topo, SpinVariant::DirectiveShmem, steps, self.exec)
            }
            Program::Atom => wl_lsms::fig3_single_atom_exec(
                &self.topo,
                AtomCommVariant::DirectiveMpi2,
                AtomSizes::default(),
                self.exec,
            ),
        };
        Outcome {
            virt_ns: m.time.as_nanos(),
            correct: m.correct,
            stats: m.stats,
            sched: None,
        }
    }

    /// Run the library's entry point once. A panicking rank makes the
    /// simulation fail instead of ending the benchmark.
    pub fn library(&self) -> Option<Outcome> {
        catch_unwind(AssertUnwindSafe(|| self.reference())).ok()
    }

    /// Run the mirrored rank program once, with spans around the layer
    /// calls. A panicking rank makes the simulation fail instead of
    /// ending the benchmark.
    pub fn mirror(&self) -> Option<Outcome> {
        catch_unwind(AssertUnwindSafe(|| match self.program {
            Program::Spin { steps } => spin(&self.topo, steps, self.exec),
            Program::Atom => atom(&self.topo, self.exec),
        }))
        .ok()
    }

    /// One full-group barrier per rank in a `netsim::run` at this
    /// problem's rank count and engine, each timed as a span.
    pub fn barrier_probe(&self) -> bool {
        let n = self.ranks();
        let res = run(SimConfig::new(n).with_exec(self.exec), |ctx| {
            let model = ctx.machine().mpi;
            span("netsim.barrier", ctx.rank() as i64, || ctx.barrier(&model));
            ctx.rank()
        });
        res.per_rank.iter().copied().eq(0..n)
    }

    /// A no-op `netsim::run` at this problem's rank count and engine:
    /// thread start-up, scheduling and teardown only.
    pub fn spawn_noop(&self) -> bool {
        let n = self.ranks();
        let res = run(SimConfig::new(n).with_exec(self.exec), |ctx| ctx.rank());
        res.per_rank.iter().copied().eq(0..n)
    }
}

fn spin(topo: &Topology, steps: usize, exec: ExecPolicy) -> Outcome {
    let t = topo.clone();
    let natoms = t.instances * t.ranks_per_lsms;
    let res = run(SimConfig::new(t.total_ranks()).with_exec(exec), |ctx| {
        let me = ctx.rank();
        let comms = span("wl_lsms.build_comms", me as i64, || t.build_comms(ctx));
        let mut state = SpinState::new(&t, me);
        let mut correct = true;
        let mut phase_start = Time::ZERO;
        let mut session = CommSession::new(ctx, comms.world.clone()).without_ir();
        for step in 0..steps as u64 + 1 {
            if me == t.wl_rank() {
                state.ev = generate_spins(step, natoms);
            }
            span("core.scope.directive", me as i64, || {
                set_evec_directive(&mut session, &t, &mut state, Target::Shmem, None)
            })
            .expect("directive setEvec");
            correct &= match t.instance_of(me) {
                None => true,
                Some(m) => {
                    let local = me - t.privileged_rank(m);
                    state.my_spin == spin_at(step, m * t.ranks_per_lsms + local)
                }
            };
            if step == 0 {
                span("core.scope.directive", me as i64, || session.flush());
                let cx = session.ctx();
                let model = cx.machine().mpi;
                span("netsim.barrier", me as i64, || cx.barrier(&model));
                phase_start = cx.now();
            }
        }
        span("core.scope.directive", me as i64, || session.flush());
        drop(session);
        (ctx.now() - phase_start, correct)
    });
    let phase = res
        .per_rank
        .iter()
        .map(|&(t, _)| t)
        .max()
        .unwrap_or(Time::ZERO);
    Outcome {
        virt_ns: phase.as_nanos() / steps as u64,
        correct: res.per_rank.iter().all(|&(_, ok)| ok),
        stats: res.total_stats(),
        sched: res.sched,
    }
}

#[allow(clippy::needless_range_loop)] // worker loops index rank-shaped arrays
fn atom(topo: &Topology, exec: ExecPolicy) -> Outcome {
    let t = topo.clone();
    let sizes = AtomSizes::default();
    let res = run(SimConfig::new(t.total_ranks()).with_exec(exec), |ctx| {
        let me = ctx.rank();
        let comms = span("wl_lsms.build_comms", me as i64, || t.build_comms(ctx));
        let n = t.ranks_per_lsms;
        // Stage A: the WL master sends every instance's atoms to its
        // privileged rank with the original pack path.
        let mut received: Vec<AtomData> = Vec::new();
        if me == t.wl_rank() {
            for inst in 0..t.instances {
                let dest = t.privileged_rank(inst);
                for a in 0..n {
                    let mut atom = AtomData::synthetic_fe(inst * n + a, sizes);
                    transfer_atom_original(ctx, &comms.world, 0, dest, &mut atom);
                }
            }
        } else if t.is_privileged(me) {
            for _ in 0..n {
                let mut atom = AtomData::new(sizes);
                transfer_atom_original(ctx, &comms.world, 0, me, &mut atom);
                received.push(atom);
            }
        }
        // Stage B: the directive transfer within each LIZ.
        let mut correct = true;
        if let (Some(lsms), Some(inst)) = (comms.lsms.clone(), comms.instance) {
            let local = lsms.rank(ctx);
            let mut session = CommSession::new(ctx, lsms).without_ir();
            let mut my_atom = AtomData::new(sizes);
            for w in 1..n {
                let atom_ref: &mut AtomData = if local == 0 {
                    &mut received[w]
                } else {
                    &mut my_atom
                };
                span("core.scope.directive", me as i64, || {
                    transfer_atom_directive(&mut session, 0, w, Target::Mpi2Side, atom_ref)
                })
                .expect("directive transfer");
            }
            span("core.scope.directive", me as i64, || session.flush());
            drop(session);
            if local != 0 {
                correct = my_atom == AtomData::synthetic_fe(inst * n + local, sizes);
            } else {
                correct = received[0] == AtomData::synthetic_fe(inst * n, sizes);
            }
        }
        (ctx.now(), correct)
    });
    Outcome {
        virt_ns: res.makespan().as_nanos(),
        correct: res.per_rank.iter().all(|&(_, ok)| ok),
        stats: res.total_stats(),
        sched: res.sched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_programs_match_the_library() {
        for case in [Case::spin(3, 2), Case::atom(2)] {
            let want = case.reference();
            let got = case.mirror().expect("simulation runs");
            assert!(want.correct && got.correct, "{:?}", case.program);
            assert!(
                got.same_virtual(&want),
                "{:?}: {got:?} vs {want:?}",
                case.program
            );
            assert!(case.spawn_noop());
        }
    }
}
