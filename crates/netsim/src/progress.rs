//! Live progress telemetry: an opt-in snapshot channel over the running
//! simulation, driving the `--watch` stall watchdog on long runs.
//!
//! Design rules, mirroring the metrics registry:
//!
//! * **Single branch when disabled.** Each rank context holds an
//!   `Option<Arc<ProgressBoard>>`; every hook is one branch plus (when
//!   enabled) a handful of `Relaxed` atomic stores. No locks, no
//!   allocation.
//! * **Snapshots read state, they never write it.** The watcher thread only
//!   loads atomics (and the scheduler's stats, which take a mutex
//!   the rank threads also take — but only around *physical* bookkeeping).
//!   Virtual time is owned by the rank threads and never touched from the
//!   watcher, so enabling `--watch` cannot perturb any virtual-time
//!   quantity: traces, profiles, and bench outputs stay bit-identical.
//! * **The final snapshot is deterministic.** Every cell field is a pure
//!   function of program structure and virtual time once the ranks have
//!   quiesced: `lvt_ns` is the rank's final clock, `blocks` counts the
//!   blocking-operation *entries* (a property of the program, not of the
//!   interleaving), and `puts_inflight` is the flow-control queue depth at
//!   the last blocking entry. [`Snapshot`]s taken *mid-run* by the watchdog
//!   are physical observations and go to stderr only.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::metrics::SchedStats;

/// Rank execution state as last observed by the hooks.
pub const STATE_RUNNING: u8 = 0;
/// The rank entered an operation that may physically park.
pub const STATE_BLOCKED: u8 = 1;
/// The rank's body returned.
pub const STATE_DONE: u8 = 2;

/// Watchdog configuration, carried on [`crate::ExecPolicy`] (hence `Copy`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchCfg {
    /// Wall-clock milliseconds between progress lines.
    pub interval_ms: u64,
    /// Flag a rank as stalled when its LVT has not advanced for this many
    /// wall-clock milliseconds.
    pub stall_ms: u64,
}

impl WatchCfg {
    /// A watchdog that prints every second and flags ranks stalled for
    /// `secs` wall-seconds (the `--watch <secs>` CLI form).
    pub fn stall_secs(secs: u64) -> Self {
        WatchCfg {
            interval_ms: 1000,
            stall_ms: secs.max(1) * 1000,
        }
    }
}

struct Cell {
    /// Last virtual clock reported by this rank, ns.
    lvt: AtomicU64,
    /// Number of blocking-operation entries so far.
    blocks: AtomicU64,
    /// Outstanding-put queue depth at the last blocking entry.
    puts_inflight: AtomicU64,
    /// One of the `STATE_*` constants.
    state: AtomicU8,
}

/// Shared progress table: one cell per rank, written by the rank threads
/// through the hooks below and read by the watchdog / final snapshot.
pub struct ProgressBoard {
    cells: Vec<Cell>,
}

impl ProgressBoard {
    pub fn new(nranks: usize) -> Self {
        ProgressBoard {
            cells: (0..nranks)
                .map(|_| Cell {
                    lvt: AtomicU64::new(0),
                    blocks: AtomicU64::new(0),
                    puts_inflight: AtomicU64::new(0),
                    state: AtomicU8::new(STATE_RUNNING),
                })
                .collect(),
        }
    }

    /// Hook: rank `rank` is entering an operation that may physically park,
    /// with virtual clock `lvt_ns` and `puts` outstanding puts.
    #[inline]
    pub fn on_block(&self, rank: usize, lvt_ns: u64, puts: usize) {
        let c = &self.cells[rank];
        c.lvt.store(lvt_ns, Ordering::Relaxed);
        c.blocks.fetch_add(1, Ordering::Relaxed);
        c.puts_inflight.store(puts as u64, Ordering::Relaxed);
        c.state.store(STATE_BLOCKED, Ordering::Relaxed);
    }

    /// Hook: rank `rank` advanced its clock locally (compute).
    #[inline]
    pub fn on_advance(&self, rank: usize, lvt_ns: u64) {
        let c = &self.cells[rank];
        c.lvt.store(lvt_ns, Ordering::Relaxed);
        c.state.store(STATE_RUNNING, Ordering::Relaxed);
    }

    /// Hook: rank `rank`'s body returned with final clock `lvt_ns`.
    #[inline]
    pub fn on_finish(&self, rank: usize, lvt_ns: u64) {
        let c = &self.cells[rank];
        c.lvt.store(lvt_ns, Ordering::Relaxed);
        c.state.store(STATE_DONE, Ordering::Relaxed);
    }

    /// Read a consistent-enough snapshot (per-cell loads are individually
    /// atomic; cross-rank skew is inherent and fine for a watchdog).
    pub fn snapshot(&self, sched: SchedStats) -> Snapshot {
        Snapshot {
            ranks: self
                .cells
                .iter()
                .enumerate()
                .map(|(rank, c)| RankProgress {
                    rank,
                    lvt_ns: c.lvt.load(Ordering::Relaxed),
                    blocks: c.blocks.load(Ordering::Relaxed),
                    puts_inflight: c.puts_inflight.load(Ordering::Relaxed),
                    state: c.state.load(Ordering::Relaxed),
                })
                .collect(),
            sched,
        }
    }
}

/// One rank's progress observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankProgress {
    pub rank: usize,
    /// Last reported virtual clock, ns. Equals the rank's final clock in
    /// the post-run snapshot.
    pub lvt_ns: u64,
    /// Blocking-operation entries so far (deterministic: one per blocking
    /// call in the program).
    pub blocks: u64,
    /// Outstanding puts at the last blocking entry.
    pub puts_inflight: u64,
    /// `STATE_RUNNING` / `STATE_BLOCKED` / `STATE_DONE`.
    pub state: u8,
}

/// A progress snapshot: per-rank observations plus the scheduler's
/// physical slot-occupancy counters. The `ranks` vector of the post-run
/// snapshot is deterministic and invariant across slot counts; `sched` is
/// physical and excluded from any determinism claim.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub ranks: Vec<RankProgress>,
    pub sched: SchedStats,
}

impl Snapshot {
    /// Lowest LVT over unfinished ranks, or over all ranks when done.
    pub fn min_lvt(&self) -> (usize, u64) {
        self.ranks
            .iter()
            .filter(|r| r.state != STATE_DONE)
            .chain(self.ranks.iter())
            .map(|r| (r.rank, r.lvt_ns))
            .min_by_key(|&(_, t)| t)
            .unwrap_or((0, 0))
    }
}

/// The `--watch` stall watchdog. Runs on its own thread for the duration of
/// a simulation; call [`WatchState::tick`] periodically with a fresh
/// snapshot. All output goes to **stderr** — stdout is reserved for the
/// deterministic artifacts.
pub struct WatchState {
    cfg: WatchCfg,
    started: std::time::Instant,
    /// Per rank: (last seen LVT, wall time it last changed).
    last: Vec<(u64, std::time::Instant)>,
    /// Ranks already reported as stalled (report once per stall episode).
    flagged: Vec<bool>,
}

impl WatchState {
    pub fn new(nranks: usize, cfg: WatchCfg) -> Self {
        let now = std::time::Instant::now();
        WatchState {
            cfg,
            started: now,
            last: vec![(0, now); nranks],
            flagged: vec![false; nranks],
        }
    }

    /// Ingest a snapshot: print one progress line and flag newly stalled
    /// ranks (LVT unchanged for longer than the configured stall window).
    pub fn tick(&mut self, snap: &Snapshot) {
        let now = std::time::Instant::now();
        let mut done = 0usize;
        let mut blocked = 0usize;
        for r in &snap.ranks {
            match r.state {
                STATE_DONE => done += 1,
                STATE_BLOCKED => blocked += 1,
                _ => {}
            }
            let cell = &mut self.last[r.rank];
            if r.lvt_ns != cell.0 {
                *cell = (r.lvt_ns, now);
                self.flagged[r.rank] = false;
            }
        }
        let (min_rank, min_lvt) = snap.min_lvt();
        let max_lvt = snap.ranks.iter().map(|r| r.lvt_ns).max().unwrap_or(0);
        let s = snap.sched;
        eprintln!(
            "[watch {:6.1}s] lvt min={}ns (rank {}) max={}ns done={}/{} blocked={} slots={}/{} parks={}",
            self.started.elapsed().as_secs_f64(),
            min_lvt,
            min_rank,
            max_lvt,
            done,
            snap.ranks.len(),
            blocked,
            s.max_occupied,
            s.slots,
            s.parks,
        );
        for r in &snap.ranks {
            if r.state == STATE_DONE || self.flagged[r.rank] {
                continue;
            }
            let since = now.duration_since(self.last[r.rank].1);
            if since.as_millis() as u64 >= self.cfg.stall_ms {
                self.flagged[r.rank] = true;
                eprintln!(
                    "[watch] STALL rank {}: lvt={}ns unchanged for {:.1}s (blocks={}, puts_inflight={})",
                    r.rank,
                    r.lvt_ns,
                    since.as_secs_f64(),
                    r.blocks,
                    r.puts_inflight,
                );
            }
        }
    }
}

/// Spawn the watchdog loop (used by [`crate::run`]); returns a handle the
/// caller signals through `stop` and then joins.
pub(crate) fn spawn_watcher(
    board: Arc<ProgressBoard>,
    sched: Arc<crate::sched::Scheduler>,
    cfg: WatchCfg,
    stop: Arc<std::sync::atomic::AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("netsim-watch".into())
        .spawn(move || {
            let mut state = WatchState::new(board.cells.len(), cfg);
            let tick = std::time::Duration::from_millis(50.min(cfg.interval_ms.max(1)));
            let mut since_line = std::time::Duration::ZERO;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(tick);
                since_line += tick;
                if since_line.as_millis() as u64 >= cfg.interval_ms {
                    since_line = std::time::Duration::ZERO;
                    state.tick(&board.snapshot(sched.stats()));
                }
            }
        })
        .expect("failed to spawn watch thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_tracks_hooks_and_final_state() {
        let b = ProgressBoard::new(2);
        b.on_block(0, 100, 3);
        b.on_advance(1, 50);
        b.on_block(0, 200, 0);
        b.on_finish(0, 250);
        b.on_finish(1, 80);
        let s = b.snapshot(SchedStats::default());
        assert_eq!(s.ranks[0].lvt_ns, 250);
        assert_eq!(s.ranks[0].blocks, 2);
        assert_eq!(s.ranks[0].state, STATE_DONE);
        assert_eq!(s.ranks[1].lvt_ns, 80);
        assert_eq!(s.ranks[1].blocks, 0);
        assert_eq!(s.min_lvt(), (1, 80));
    }

    #[test]
    fn watch_state_flags_stalls_once() {
        let b = ProgressBoard::new(1);
        b.on_block(0, 10, 0);
        let mut w = WatchState::new(
            1,
            WatchCfg {
                interval_ms: 1,
                stall_ms: 0,
            },
        );
        // stall_ms=0: the rank is immediately "stalled"; the flag latches.
        w.tick(&b.snapshot(SchedStats::default()));
        assert!(w.flagged[0]);
        // LVT advance clears the flag.
        b.on_block(0, 20, 0);
        w.tick(&b.snapshot(SchedStats::default()));
        assert!(w.flagged[0], "re-flagged at stall_ms=0 after reset");
    }
}
