//! The SPMD rank runtime: spawns one OS thread per simulated rank, each
//! owning a virtual clock and a handle to the shared [`Fabric`], and runs
//! them through the scheduler's execution slots ([`crate::sched`]).
//!
//! Clock-charging policy lives here. Crucially, the *physical* completion of
//! an operation (data delivered) is decoupled from the *virtual* cost of
//! waiting for it: `wait_raw` on a request blocks the thread but does not
//! touch the clock, and the `charge_*` family implements the different
//! synchronization-cost policies (`MPI_Wait` loop vs. `MPI_Waitall` vs. the
//! directive layer's consolidated region sync) whose comparison is the
//! subject of the paper's Figure 4.

use std::sync::Arc;

use bytes::Bytes;

use crate::fabric::{Fabric, SegId};
use crate::metrics::{RankMetrics, SchedStats};
use crate::model::{CostModel, MachineModel};
use crate::msg::{RecvDone, RecvRequest, SendRequest, SrcSel, TagSel, WireCosts};
use crate::progress::{ProgressBoard, Snapshot, WatchCfg};
use crate::sanitize::{SanitizeReport, Sanitizer};
use crate::sched::Scheduler;
use crate::splitmix::{mix64, SplitMix64};
use crate::time::Time;
use crate::trace::{EventKind, RankStats, SiteId, TraceEvent, TraceSink};

/// Simulation configuration.
#[derive(Clone)]
pub struct SimConfig {
    /// Number of SPMD ranks.
    pub nranks: usize,
    /// The machine's per-library cost models.
    pub machine: MachineModel,
    /// Record a full event trace (tests/examples; off for benches).
    pub trace: bool,
    /// Collect per-rank/per-site metrics (deterministic, virtual-time
    /// based; see [`crate::metrics`]). Off by default: every hook is a
    /// single branch when disabled.
    pub metrics: bool,
    /// Collect live progress telemetry ([`crate::progress`]) and attach the
    /// deterministic post-run snapshot to [`SimResult::progress`]. Off by
    /// default: every hook is a single branch when disabled.
    pub progress: bool,
    /// Engine and protocol settings: execution slots, rank stack size,
    /// eager threshold, race sanitizer, stall watchdog.
    pub exec: ExecPolicy,
}

impl SimConfig {
    /// A Gemini-like machine with `nranks` ranks, tracing off, and the
    /// default [`ExecPolicy`].
    pub fn new(nranks: usize) -> Self {
        SimConfig {
            nranks,
            machine: MachineModel::default(),
            trace: false,
            metrics: false,
            progress: false,
            exec: ExecPolicy::default(),
        }
    }

    /// Enable event tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enable the per-rank/per-site metrics registry.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Use a specific machine model.
    pub fn with_machine(mut self, machine: MachineModel) -> Self {
        self.machine = machine;
        self
    }

    /// Collect progress telemetry (deterministic post-run snapshot, no
    /// watchdog thread).
    pub fn with_progress(mut self) -> Self {
        self.progress = true;
        self
    }

    /// Run under `exec` (engine + stack size + protocol knobs).
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }
}

/// Engine and protocol settings a caller can thread through higher layers
/// (experiment drivers, bench binaries) without rebuilding a [`SimConfig`]
/// by hand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Execution slots of the scheduler ([`crate::sched`]): `None` (the
    /// default) gives every rank its own slot; `Some(n)` gates execution
    /// to `n` slots (`0` = auto: `min(nranks, available_parallelism)`).
    /// Results are bit-identical at any slot count — virtual time, not
    /// execution order, defines the output.
    pub workers: Option<usize>,
    /// Per-rank stack size in bytes (`None`: 1 MiB).
    pub stack_size: Option<usize>,
    /// MPI eager-vs-rendezvous threshold override in bytes (`None` keeps
    /// the machine model's): larger messages pay the rendezvous handshake.
    /// SHMEM puts never rendezvous, so the SHMEM model is left untouched.
    pub eager_threshold: Option<usize>,
    /// Run the one-sided race sanitizer ([`crate::sanitize`]). Off by
    /// default: every hook is a single branch when disabled.
    pub sanitize: bool,
    /// Run the `--watch` stall watchdog ([`crate::progress`]); implies
    /// [`SimConfig::progress`]. It only reads state, so every deterministic
    /// output is bit-identical with it on.
    pub watch: Option<WatchCfg>,
}

impl ExecPolicy {
    /// Gate execution to `n` worker slots (`0` = auto).
    pub fn bounded(workers: usize) -> Self {
        ExecPolicy {
            workers: Some(workers),
            ..ExecPolicy::default()
        }
    }

    /// Override the per-rank stack size in bytes.
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = Some(bytes);
        self
    }

    /// Override the MPI eager-vs-rendezvous threshold in bytes.
    pub fn with_eager_threshold(mut self, bytes: usize) -> Self {
        self.eager_threshold = Some(bytes);
        self
    }

    /// Enable the one-sided race sanitizer.
    pub fn with_sanitize(mut self) -> Self {
        self.sanitize = true;
        self
    }

    /// Run the `--watch` stall watchdog alongside the simulation.
    pub fn with_watch(mut self, cfg: WatchCfg) -> Self {
        self.watch = Some(cfg);
        self
    }
}

/// Result of a simulation: per-rank return values, final virtual clocks,
/// per-rank statistics, and (optionally) the event trace.
#[derive(Debug)]
pub struct SimResult<T> {
    /// Value returned by each rank's closure, indexed by rank.
    pub per_rank: Vec<T>,
    /// Final virtual clock of each rank.
    pub final_times: Vec<Time>,
    /// Per-rank operation counters.
    pub stats: Vec<RankStats>,
    /// Per-rank deterministic metrics, if enabled.
    pub metrics: Option<Vec<RankMetrics>>,
    /// Scheduler slot-occupancy counters (physical, interleaving-
    /// dependent). Always present.
    pub sched: Option<SchedStats>,
    /// The event trace, if enabled.
    pub trace: Option<Vec<TraceEvent>>,
    /// The race sanitizer's report, if enabled.
    pub sanitize: Option<SanitizeReport>,
    /// The deterministic post-run progress snapshot, if progress telemetry
    /// (or `--watch`) was enabled. `ranks` is invariant across slot
    /// counts; `sched` is physical.
    pub progress: Option<Snapshot>,
}

impl<T> SimResult<T> {
    /// The job's makespan: the maximum final clock over all ranks.
    pub fn makespan(&self) -> Time {
        self.final_times.iter().copied().max().unwrap_or(Time::ZERO)
    }

    /// Whole-job operation totals.
    pub fn total_stats(&self) -> RankStats {
        let mut total = RankStats::default();
        for s in &self.stats {
            total.merge(s);
        }
        total
    }
}

/// Run an SPMD program: `body` is executed once per rank, in parallel.
///
/// Panics in any rank are propagated (with the rank id) after all other
/// ranks have been joined or also panicked.
pub fn run<T, F>(mut cfg: SimConfig, body: F) -> SimResult<T>
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    assert!(cfg.nranks > 0, "need at least one rank");
    let exec = cfg.exec;
    if let Some(bytes) = exec.eager_threshold {
        cfg.machine.mpi.eager_threshold = bytes;
    }
    let fabric = Fabric::new(cfg.nranks);
    let sink = cfg.trace.then(|| Arc::new(TraceSink::new()));
    let sanitizer = exec.sanitize.then(|| Arc::new(Sanitizer::new(cfg.nranks)));
    let slots = match exec.workers {
        None => cfg.nranks,
        Some(0) => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        Some(w) => w,
    };
    let sched = Scheduler::new(cfg.nranks, slots);
    let board =
        (cfg.progress || exec.watch.is_some()).then(|| Arc::new(ProgressBoard::new(cfg.nranks)));
    let watch_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = exec.watch.map(|wcfg| {
        crate::progress::spawn_watcher(
            Arc::clone(board.as_ref().expect("watch implies board")),
            Arc::clone(&sched),
            wcfg,
            Arc::clone(&watch_stop),
        )
    });
    let body = &body;

    type RankOut<T> = (T, Time, RankStats, Option<Box<RankMetrics>>);
    let mut outputs: Vec<Option<RankOut<T>>> = (0..cfg.nranks).map(|_| None).collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.nranks);
        for rank in 0..cfg.nranks {
            let fabric = Arc::clone(&fabric);
            let sink = sink.clone();
            let sched = Arc::clone(&sched);
            let machine = cfg.machine;
            let nranks = cfg.nranks;
            let metrics_on = cfg.metrics;
            let san = sanitizer.clone();
            let board = board.clone();
            let builder = std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .stack_size(exec.stack_size.unwrap_or(1 << 20));
            let handle = builder
                .spawn_scoped(scope, move || {
                    // Acquire an execution slot before running the body and
                    // release it on drop (even on unwind, so a panicking
                    // rank can't strand the pool).
                    let _slot = crate::sched::RankSlot::enter(sched, rank);
                    let mut ctx = RankCtx {
                        rank,
                        nranks,
                        clock: Time::ZERO,
                        fabric,
                        machine,
                        outstanding_puts: Vec::new(),
                        stats: RankStats::default(),
                        sink,
                        cur_site: None,
                        metrics: metrics_on.then(Box::default),
                        san,
                        progress: board,
                    };
                    let out = body(&mut ctx);
                    if let Some(p) = &ctx.progress {
                        p.on_finish(rank, ctx.clock.as_nanos());
                    }
                    (out, ctx.clock, ctx.stats, ctx.metrics)
                })
                .expect("failed to spawn rank thread");
            handles.push(handle);
        }
        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(triple) => outputs[rank] = Some(triple),
                Err(e) => {
                    let msg = e
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| e.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic>");
                    panic!("rank {rank} panicked: {msg}");
                }
            }
        }
    });

    let mut per_rank = Vec::with_capacity(cfg.nranks);
    let mut final_times = Vec::with_capacity(cfg.nranks);
    let mut stats = Vec::with_capacity(cfg.nranks);
    let mut metrics = cfg.metrics.then(|| Vec::with_capacity(cfg.nranks));
    for (rank, slot) in outputs.into_iter().enumerate() {
        let (out, t, mut s, m) = slot.expect("every rank produced output");
        // The matching engine's hot-path counters live in the rank's
        // mailbox; fold them in now that all threads are quiescent.
        s.absorb_mailbox(&fabric.mailbox(rank).hot_stats());
        if let Some(san) = &sanitizer {
            let (checks, conflicts) = san.rank_counters(rank);
            s.race_checks = checks as usize;
            s.conflicts_found = conflicts as usize;
        }
        per_rank.push(out);
        final_times.push(t);
        stats.push(s);
        if let Some(v) = &mut metrics {
            v.push(*m.expect("metrics enabled on every rank"));
        }
    }
    // All ranks have quiesced: stop the watchdog, then take the final
    // (deterministic) snapshot.
    watch_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(h) = watcher {
        let _ = h.join();
    }
    let sched_stats = sched.stats();
    let progress = board.map(|b| b.snapshot(sched_stats));

    SimResult {
        per_rank,
        final_times,
        stats,
        metrics,
        sched: Some(sched_stats),
        trace: sink.map(|s| s.take()),
        sanitize: sanitizer.map(|s| {
            Arc::into_inner(s)
                .expect("all rank threads joined")
                .into_report()
        }),
        progress,
    }
}

/// Deterministic per-message jitter source (splitmix64 over the message
/// identity) — reproducible non-uniform latencies.
fn deterministic_jitter(a: u64, b: u64, c: u64, d: u64) -> u64 {
    mix64(
        a.wrapping_mul(SplitMix64::GAMMA)
            .wrapping_add(b.rotate_left(17))
            .wrapping_add(c.rotate_left(33))
            .wrapping_add(d.rotate_left(49)),
    )
}

/// Per-rank execution context: identity, virtual clock, fabric access, and
/// clock-charging policy helpers.
pub struct RankCtx {
    rank: usize,
    nranks: usize,
    clock: Time,
    fabric: Arc<Fabric>,
    machine: MachineModel,
    outstanding_puts: Vec<Time>,
    /// Operation counters for this rank.
    pub stats: RankStats,
    sink: Option<Arc<TraceSink>>,
    cur_site: Option<SiteId>,
    metrics: Option<Box<RankMetrics>>,
    san: Option<Arc<Sanitizer>>,
    progress: Option<Arc<ProgressBoard>>,
}

impl RankCtx {
    /// This rank's global id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks in the job.
    #[inline]
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The machine's library cost models.
    #[inline]
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Current virtual clock.
    #[inline]
    pub fn now(&self) -> Time {
        self.clock
    }

    /// The shared fabric (escape hatch for substrate layers).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Report the current clock to the scheduler (slot-queue
    /// priority hint) ahead of an operation that may physically park.
    #[inline]
    fn note_block(&self) {
        crate::sched::note_clock(self.clock);
        if let Some(p) = &self.progress {
            p.on_block(
                self.rank,
                self.clock.as_nanos(),
                self.outstanding_puts.len(),
            );
        }
    }

    fn trace(&self, start: Time, kind: EventKind) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                rank: self.rank,
                time: self.clock,
                start,
                site: self.cur_site,
                kind,
            });
        }
    }

    /// Emit a free-form trace marker at the current clock.
    pub fn marker(&self, label: impl Into<String>) {
        self.trace(self.clock, EventKind::Marker(label.into()));
    }

    // -- observability --------------------------------------------------------

    /// Attribute subsequent operations to the directive call site `site`
    /// (or clear the attribution with `None`). Returns the previous value
    /// so nested scopes can restore it.
    #[inline]
    pub fn set_site(&mut self, site: Option<SiteId>) -> Option<SiteId> {
        std::mem::replace(&mut self.cur_site, site)
    }

    /// The current site attribution, if any.
    #[inline]
    pub fn current_site(&self) -> Option<SiteId> {
        self.cur_site
    }

    /// Record a trace event on behalf of a higher layer spanning
    /// `start..end` in virtual time, without touching the clock. Substrate
    /// engines that implement their own charging policies use this to keep
    /// the trace complete (e.g. the directive layer's region sync).
    pub fn emit_event(&self, start: Time, end: Time, kind: EventKind) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                rank: self.rank,
                time: end,
                start,
                site: self.cur_site,
                kind,
            });
        }
    }

    /// Record a synchronization span `start..end` in the metrics registry
    /// on behalf of a higher layer (no clock change).
    #[inline]
    pub fn note_sync_span(&mut self, start: Time, end: Time) {
        if let Some(m) = &mut self.metrics {
            m.on_sync(start, end);
        }
    }

    /// Record a consolidated completion of width `n` in the metrics
    /// registry on behalf of a higher layer.
    #[inline]
    pub fn note_waitall_width(&mut self, n: usize) {
        if let Some(m) = &mut self.metrics {
            m.on_waitall(n);
        }
    }

    /// Record the completion of a receive whose physical wait was performed
    /// by a higher layer (the directive engine completes receives eagerly
    /// and defers the clock charge): emits the `RecvDone` trace event and
    /// feeds the metrics registry. No clock change.
    pub fn note_recv_completion(&mut self, req: &RecvRequest, done: &RecvDone) {
        self.trace(
            self.clock,
            EventKind::RecvDone {
                src: done.src,
                tag: done.tag,
                bytes: done.payload.len(),
                unexpected: done.unexpected,
                completion: done.completion,
            },
        );
        if let Some(m) = &mut self.metrics {
            m.on_recv_complete(
                done.payload.len(),
                req.posted,
                done.completion,
                self.cur_site,
            );
        }
    }

    // -- computation --------------------------------------------------------

    /// Model a block of local computation costing `t` of virtual time.
    pub fn compute(&mut self, t: Time) {
        let t0 = self.clock;
        self.clock += t;
        self.trace(t0, EventKind::Compute { ns: t.as_nanos() });
        if let Some(p) = &self.progress {
            p.on_advance(self.rank, self.clock.as_nanos());
        }
    }

    /// Charge an arbitrary local overhead without a trace event.
    pub fn charge(&mut self, t: Time) {
        self.clock += t;
    }

    /// Force the clock forward to at least `t` (used by substrate layers for
    /// custom reconciliation). Never moves the clock backwards.
    pub fn advance_to(&mut self, t: Time) {
        self.clock = self.clock.max(t);
    }

    // -- two-sided ----------------------------------------------------------

    /// Initiate a non-blocking send of `payload` to `dst` under `model`.
    /// Charges `o_send` and departs at the resulting clock.
    pub fn isend(
        &mut self,
        dst: usize,
        tag: i32,
        payload: &[u8],
        model: &CostModel,
    ) -> SendRequest {
        self.isend_bytes(dst, tag, Bytes::copy_from_slice(payload), model)
    }

    /// Like [`RankCtx::isend`] but takes ownership of the payload without a
    /// copy.
    pub fn isend_bytes(
        &mut self,
        dst: usize,
        tag: i32,
        payload: Bytes,
        model: &CostModel,
    ) -> SendRequest {
        let t0 = self.clock;
        self.clock += Time::from_nanos(model.o_send);
        let bytes = payload.len();
        self.stats.sends += 1;
        self.stats.bytes_sent += bytes;
        self.trace(t0, EventKind::SendPost { dst, tag, bytes });
        if let Some(m) = &mut self.metrics {
            m.on_send(bytes, self.cur_site);
        }
        let mut costs = WireCosts::for_message(model, bytes);
        if model.latency_jitter_ns > 0 {
            costs.latency += deterministic_jitter(
                self.rank as u64,
                dst as u64,
                tag as u64,
                self.stats.sends as u64,
            ) % (model.latency_jitter_ns + 1);
        }
        self.fabric
            .send(self.rank, dst, tag, payload, self.clock, costs)
    }

    /// Post a non-blocking receive. Charges `o_recv`; the post time is the
    /// resulting clock.
    pub fn irecv(&mut self, src: SrcSel, tag: TagSel, model: &CostModel) -> RecvRequest {
        let t0 = self.clock;
        self.clock += Time::from_nanos(model.o_recv);
        self.stats.recvs += 1;
        self.trace(
            t0,
            EventKind::RecvPost {
                src: match src {
                    SrcSel::Exact(r) => Some(r),
                    SrcSel::Any => None,
                },
                tag: match tag {
                    TagSel::Exact(t) => Some(t),
                    TagSel::Range { .. } | TagSel::Any => None,
                },
            },
        );
        self.fabric.recv(self.rank, src, tag, self.clock)
    }

    /// Blocking send: initiate and wait with a single-request charge.
    pub fn send(&mut self, dst: usize, tag: i32, payload: &[u8], model: &CostModel) {
        let req = self.isend(dst, tag, payload, model);
        self.wait_send(&req, model);
    }

    /// Blocking receive: post and wait with a single-request charge.
    pub fn recv(&mut self, src: SrcSel, tag: TagSel, model: &CostModel) -> RecvDone {
        let req = self.irecv(src, tag, model);
        self.wait_recv(&req, model)
    }

    /// Wait for a single send request, charging `o_wait` (the expensive
    /// per-call pattern).
    pub fn wait_send(&mut self, req: &SendRequest, model: &CostModel) {
        self.note_block();
        let t0 = self.clock;
        let done = req.wait_raw();
        self.clock = self.clock.max(done) + Time::from_nanos(model.o_wait);
        self.stats.waits += 1;
        self.trace(t0, EventKind::Wait { horizon: done });
        if let Some(m) = &mut self.metrics {
            m.on_sync(t0, self.clock);
        }
    }

    /// Wait for a single receive request, charging `o_wait`.
    pub fn wait_recv(&mut self, req: &RecvRequest, model: &CostModel) -> RecvDone {
        self.note_block();
        let t0 = self.clock;
        let done = req.wait_raw();
        self.clock = self.clock.max(done.completion) + Time::from_nanos(model.o_wait);
        self.stats.waits += 1;
        self.trace(
            t0,
            EventKind::Wait {
                horizon: done.completion,
            },
        );
        self.trace(
            self.clock,
            EventKind::RecvDone {
                src: done.src,
                tag: done.tag,
                bytes: done.payload.len(),
                unexpected: done.unexpected,
                completion: done.completion,
            },
        );
        if let Some(m) = &mut self.metrics {
            m.on_sync(t0, self.clock);
            m.on_recv_complete(
                done.payload.len(),
                req.posted,
                done.completion,
                self.cur_site,
            );
        }
        done
    }

    /// Consolidated completion over a mixed set of requests (`MPI_Waitall`):
    /// the clock advances to the max completion plus one amortized charge.
    /// Returns the receive results in request order.
    pub fn waitall(
        &mut self,
        sends: &[SendRequest],
        recvs: &[RecvRequest],
        model: &CostModel,
    ) -> Vec<RecvDone> {
        self.note_block();
        let t0 = self.clock;
        let mut max_t = self.clock;
        for s in sends {
            max_t = max_t.max(s.wait_raw());
        }
        let mut dones = Vec::with_capacity(recvs.len());
        for r in recvs {
            let d = r.wait_raw();
            max_t = max_t.max(d.completion);
            dones.push(d);
        }
        let n = sends.len() + recvs.len();
        // User-level Waitall fills per-request status objects.
        self.clock = max_t + model.waitall_cost(n) + Time::from_nanos(model.o_status * n as u64);
        self.stats.waitalls += 1;
        for (r, d) in recvs.iter().zip(&dones) {
            self.trace(
                self.clock,
                EventKind::RecvDone {
                    src: d.src,
                    tag: d.tag,
                    bytes: d.payload.len(),
                    unexpected: d.unexpected,
                    completion: d.completion,
                },
            );
            if let Some(m) = &mut self.metrics {
                m.on_recv_complete(d.payload.len(), r.posted, d.completion, self.cur_site);
            }
        }
        self.trace(t0, EventKind::Waitall { n, horizon: max_t });
        if let Some(m) = &mut self.metrics {
            m.on_sync(t0, self.clock);
            m.on_waitall(n);
        }
        dones
    }

    /// Fold a set of pre-collected virtual completion times into the clock
    /// as one consolidated sync (the directive layer's deferred region
    /// sync). `n` is the number of requests covered.
    pub fn charge_consolidated(&mut self, completions: &[Time], n: usize, model: &CostModel) {
        let t0 = self.clock;
        let max_t = completions.iter().copied().fold(self.clock, Time::max);
        self.clock = max_t + model.waitall_cost(n);
        self.stats.waitalls += 1;
        self.trace(t0, EventKind::Waitall { n, horizon: max_t });
        if let Some(m) = &mut self.metrics {
            m.on_sync(t0, self.clock);
            m.on_waitall(n);
        }
    }

    // -- one-sided -----------------------------------------------------------

    /// Collective symmetric allocation over `group` (ascending global
    /// ranks; must include this rank). Synchronizes the group like
    /// `shmalloc` does.
    pub fn sym_alloc(&mut self, group: &[usize], bytes: usize, model: &CostModel) -> SegId {
        self.sym_alloc_windowed(group, bytes, u64::MAX, model)
    }

    /// [`RankCtx::sym_alloc`] with a flow-control window: a signalled put
    /// physically blocks while `window` deliveries are unconsumed at the
    /// destination (staging-slot reuse safety for layered engines).
    pub fn sym_alloc_windowed(
        &mut self,
        group: &[usize],
        bytes: usize,
        window: u64,
        model: &CostModel,
    ) -> SegId {
        self.note_block();
        let id = self.fabric.segments().alloc(group, bytes, window);
        // shmalloc implies a barrier across the participants.
        self.barrier_group(group, model);
        id
    }

    /// Release flow-controlled senders: mark `count` signalled deliveries
    /// into this rank's copy of `seg` as consumed.
    pub fn mark_consumed(&self, seg: SegId, count: u64) {
        self.fabric.segments().mark_consumed(seg, self.rank, count);
        if let Some(san) = &self.san {
            san.on_consumed(self.rank, seg, count);
        }
    }

    /// One-sided put of `data` into `target`'s copy of segment `seg` at
    /// `offset`. Charges `o_put`; the remote data is signalled with its
    /// virtual arrival time so receivers can (physically) wait for it.
    /// Returns the arrival time; it is also recorded as an outstanding put
    /// for [`RankCtx::quiet`].
    pub fn put(
        &mut self,
        seg: SegId,
        target: usize,
        offset: usize,
        data: &[u8],
        model: &CostModel,
        signal: bool,
    ) -> Time {
        let t0 = self.clock;
        self.clock += Time::from_nanos(model.o_put);
        self.note_block(); // a signalled put may park on flow control
        let mut arrival = self.clock + model.wire_time(data.len());
        if model.latency_jitter_ns > 0 {
            arrival += Time::from_nanos(
                deterministic_jitter(
                    self.rank as u64,
                    target as u64,
                    seg.0 as u64,
                    self.stats.puts as u64,
                ) % (model.latency_jitter_ns + 1),
            );
        }
        let ordinal =
            self.fabric
                .segments()
                .put(seg, target, offset, data, signal.then_some(arrival));
        if let Some(san) = &self.san {
            let window = self.fabric.segments().window_of(seg);
            san.on_put_data(
                self.rank,
                seg,
                window,
                target,
                offset,
                data.len(),
                ordinal,
                self.cur_site,
            );
        }
        self.outstanding_puts.push(arrival);
        self.stats.puts += 1;
        self.stats.bytes_put += data.len();
        self.trace(
            t0,
            EventKind::Put {
                dst: target,
                bytes: data.len(),
            },
        );
        if let Some(m) = &mut self.metrics {
            m.on_put(data.len(), self.cur_site);
        }
        arrival
    }

    /// [`RankCtx::put`] whose source bytes come from this rank's own copy
    /// of `seg` at `src_offset` (the staged-slot idiom). The sanitizer
    /// additionally tracks the source read so reuse of the source region
    /// before a `quiet` is diagnosed (CI011).
    #[allow(clippy::too_many_arguments)]
    pub fn put_from(
        &mut self,
        seg: SegId,
        target: usize,
        offset: usize,
        src_offset: usize,
        len: usize,
        model: &CostModel,
        signal: bool,
    ) -> Time {
        let mut data = vec![0u8; len];
        self.fabric
            .segments()
            .read(seg, self.rank, src_offset, &mut data);
        if let Some(san) = &self.san {
            let window = self.fabric.segments().window_of(seg);
            san.on_put_src(self.rank, seg, window, src_offset, len, self.cur_site);
        }
        self.put(seg, target, offset, &data, model, signal)
    }

    /// Blocking one-sided get from `target`'s copy of `seg` into `out`.
    /// Charges the full software + wire round trip.
    pub fn get(
        &mut self,
        seg: SegId,
        target: usize,
        offset: usize,
        out: &mut [u8],
        model: &CostModel,
    ) {
        self.fabric.segments().read(seg, target, offset, out);
        if let Some(san) = &self.san {
            let window = self.fabric.segments().window_of(seg);
            san.on_get(
                self.rank,
                seg,
                window,
                target,
                offset,
                out.len(),
                self.cur_site,
            );
        }
        let t0 = self.clock;
        self.clock += Time::from_nanos(model.o_get)
            + Time::from_nanos(model.latency)
            + model.wire_time(out.len());
        self.stats.gets += 1;
        self.trace(
            t0,
            EventKind::Get {
                src: target,
                bytes: out.len(),
            },
        );
    }

    /// Read this rank's own copy of a segment (free: local load).
    pub fn read_local(&self, seg: SegId, offset: usize, out: &mut [u8]) {
        self.fabric.segments().read(seg, self.rank, offset, out);
        if let Some(san) = &self.san {
            let window = self.fabric.segments().window_of(seg);
            san.on_local_read(self.rank, seg, window, offset, out.len(), self.cur_site);
        }
    }

    /// Write this rank's own copy of a segment (free: local store).
    pub fn write_local(&self, seg: SegId, offset: usize, data: &[u8]) {
        self.fabric
            .segments()
            .put(seg, self.rank, offset, data, None);
        if let Some(san) = &self.san {
            let window = self.fabric.segments().window_of(seg);
            san.on_local_write(self.rank, seg, window, offset, data.len(), self.cur_site);
        }
    }

    /// Physically wait until at least `count` signalled deliveries landed in
    /// this rank's copy of `seg`; returns the `count`-th arrival time.
    /// Does **not** advance the clock — pair with [`RankCtx::advance_to`] or
    /// a consolidated charge.
    pub fn wait_signals_raw(&self, seg: SegId, count: usize) -> Time {
        self.note_block();
        let t = self.fabric.segments().wait_signals(seg, self.rank, count);
        if let Some(san) = &self.san {
            san.on_wait(self.rank, seg, count as u64);
        }
        t
    }

    /// Complete all outstanding puts (`shmem_quiet`): clock advances to the
    /// latest arrival plus `o_quiet`.
    pub fn quiet(&mut self, model: &CostModel) {
        let t0 = self.clock;
        let outstanding = self.outstanding_puts.len();
        let max_arrival = self.outstanding_puts.drain(..).fold(self.clock, Time::max);
        self.clock = max_arrival + Time::from_nanos(model.o_quiet);
        if let Some(san) = &self.san {
            san.on_quiet(self.rank);
        }
        self.stats.quiets += 1;
        self.trace(
            t0,
            EventKind::Quiet {
                outstanding,
                horizon: max_arrival,
            },
        );
        if let Some(m) = &mut self.metrics {
            m.on_sync(t0, self.clock);
        }
    }

    /// Completion time of the latest outstanding put without charging
    /// (used by the directive engine for deferred syncs).
    pub fn outstanding_put_horizon(&self) -> Option<Time> {
        self.outstanding_puts.iter().copied().max()
    }

    /// Drain the outstanding-put list, returning the arrival times.
    pub fn take_outstanding_puts(&mut self) -> Vec<Time> {
        std::mem::take(&mut self.outstanding_puts)
    }

    // -- collectives ----------------------------------------------------------

    /// Barrier over all ranks.
    pub fn barrier(&mut self, model: &CostModel) {
        self.enter_barrier(None, model);
    }

    /// Barrier over an arbitrary ascending group containing this rank.
    pub fn barrier_group(&mut self, group: &[usize], model: &CostModel) {
        debug_assert!(group.contains(&self.rank), "barrier group excludes caller");
        self.enter_barrier(Some(group), model);
    }

    /// Barrier over `group`, or over all ranks when `None`.
    fn enter_barrier(&mut self, group: Option<&[usize]>, model: &CostModel) {
        self.note_block();
        let t0 = self.clock;
        let group_len = group.map_or(self.nranks, <[usize]>::len);
        let cost = model.barrier_cost(group_len);
        let exit = match group {
            Some(g) => self.fabric.barrier(g, self.clock, cost),
            None => self.fabric.barrier_world(self.clock, cost),
        };
        self.clock = exit;
        if group_len == self.nranks {
            if let Some(san) = &self.san {
                san.on_full_barrier(self.rank);
            }
        }
        self.stats.barriers += 1;
        self.trace(t0, EventKind::Barrier { group_len });
        if let Some(m) = &mut self.metrics {
            m.on_sync(t0, self.clock);
        }
    }

    // -- explicit data handling costs ----------------------------------------

    /// Charge an explicit pack/unpack copy of `bytes` (`MPI_Pack` path).
    pub fn charge_pack(&mut self, bytes: usize, model: &CostModel) {
        let t0 = self.clock;
        self.clock += model.byte_cost(model.pack_per_byte, bytes);
        self.stats.packed_bytes += bytes;
        self.trace(t0, EventKind::Pack { bytes });
    }

    /// Charge a derived-datatype build + commit.
    pub fn charge_datatype_commit(&mut self, model: &CostModel) {
        let t0 = self.clock;
        self.clock += Time::from_nanos(model.datatype_commit);
        self.stats.datatype_commits += 1;
        self.trace(t0, EventKind::DatatypeCommit);
    }

    /// Record a datatype-cache hit: the layout was already committed, so the
    /// commit cost is elided. Counter only — the virtual clock does not move.
    pub fn note_dtype_cache_hit(&mut self) {
        self.stats.dtype_cache_hits += 1;
    }

    /// Charge a local staging copy of `bytes`.
    pub fn charge_memcpy(&mut self, bytes: usize, model: &CostModel) {
        self.clock += model.byte_cost(model.memcpy_per_byte, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MachineModel;

    fn uniform_cfg(n: usize) -> SimConfig {
        SimConfig::new(n).with_machine(MachineModel::uniform(1_000, 1.0))
    }

    #[test]
    fn single_rank_compute() {
        let res = run(uniform_cfg(1), |ctx| {
            ctx.compute(Time::from_micros(5));
            ctx.now()
        });
        assert_eq!(res.per_rank[0], Time::from_micros(5));
        assert_eq!(res.makespan(), Time::from_micros(5));
    }

    #[test]
    fn ping_message_clock_charges() {
        let res = run(uniform_cfg(2), |ctx| {
            let m = ctx.machine().mpi;
            if ctx.rank() == 0 {
                ctx.send(1, 0, &[7u8; 100], &m);
            } else {
                let d = ctx.recv(SrcSel::Exact(0), TagSel::Exact(0), &m);
                assert_eq!(d.payload.len(), 100);
            }
            ctx.now()
        });
        // Sender: o_send(100) + wait: completion=depart(100) => max(100,100)+o_wait(100)=200
        assert_eq!(res.per_rank[0], Time(200));
        // Receiver: o_recv(100) posts at 100; arrival = 100 + 1000 + 100 = 1200;
        // wait => max(100,1200)+100 = 1300.
        assert_eq!(res.per_rank[1], Time(1300));
        assert_eq!(res.total_stats().sends, 1);
        assert_eq!(res.total_stats().recvs, 1);
    }

    #[test]
    fn waitall_vs_wait_loop_ordering() {
        // With n requests, a wait loop charges n*o_wait while waitall charges
        // o_waitall + n*o_req_poll; verify end-to-end through the runtime.
        let n_msgs = 8usize;
        let run_one = |consolidated: bool| {
            let res = run(SimConfig::new(2), move |ctx| {
                let m = ctx.machine().mpi;
                if ctx.rank() == 0 {
                    let reqs: Vec<_> = (0..n_msgs)
                        .map(|i| ctx.isend(1, i as i32, &[0u8; 24], &m))
                        .collect();
                    if consolidated {
                        ctx.waitall(&reqs, &[], &m);
                    } else {
                        for r in &reqs {
                            ctx.wait_send(r, &m);
                        }
                    }
                } else {
                    let reqs: Vec<_> = (0..n_msgs)
                        .map(|i| ctx.irecv(SrcSel::Exact(0), TagSel::Exact(i as i32), &m))
                        .collect();
                    if consolidated {
                        ctx.waitall(&[], &reqs, &m);
                    } else {
                        for r in &reqs {
                            ctx.wait_recv(r, &m);
                        }
                    }
                }
                ctx.now()
            });
            res.makespan()
        };
        let loop_time = run_one(false);
        let all_time = run_one(true);
        assert!(
            all_time < loop_time,
            "waitall ({all_time}) should beat wait loop ({loop_time})"
        );
    }

    #[test]
    fn barrier_all_ranks_same_exit() {
        let res = run(uniform_cfg(4), |ctx| {
            ctx.compute(Time::from_nanos(100 * (ctx.rank() as u64 + 1)));
            let m = ctx.machine().mpi;
            ctx.barrier(&m);
            ctx.now()
        });
        let t0 = res.per_rank[0];
        assert!(res.per_rank.iter().all(|&t| t == t0));
        assert!(t0 > Time(400));
    }

    #[test]
    fn one_sided_put_and_signal() {
        let res = run(uniform_cfg(2), |ctx| {
            let m = ctx.machine().shmem;
            let seg = ctx.sym_alloc(&[0, 1], 64, &m);
            if ctx.rank() == 0 {
                let arrival = ctx.put(seg, 1, 0, &[42u8; 8], &m, true);
                ctx.quiet(&m);
                assert!(ctx.now() >= arrival);
            } else {
                let arrival = ctx.wait_signals_raw(seg, 1);
                ctx.advance_to(arrival);
                let mut out = [0u8; 8];
                ctx.read_local(seg, 0, &mut out);
                assert_eq!(out, [42u8; 8]);
            }
            ctx.now()
        });
        assert!(res.per_rank[1] > Time::ZERO);
        assert_eq!(res.total_stats().puts, 1);
    }

    #[test]
    fn sanitizer_clean_on_signalled_put_wait_read() {
        let res = run(
            uniform_cfg(2).with_exec(ExecPolicy::default().with_sanitize()),
            |ctx| {
                let m = ctx.machine().shmem;
                let seg = ctx.sym_alloc(&[0, 1], 64, &m);
                if ctx.rank() == 0 {
                    ctx.put(seg, 1, 0, &[42u8; 8], &m, true);
                    ctx.quiet(&m);
                } else {
                    let arrival = ctx.wait_signals_raw(seg, 1);
                    ctx.advance_to(arrival);
                    let mut out = [0u8; 8];
                    ctx.read_local(seg, 0, &mut out);
                }
            },
        );
        let report = res.sanitize.as_ref().expect("sanitizer enabled");
        assert_eq!(report.conflicts_found(), 0);
        assert!(report.race_checks >= 2, "put + read were both checked");
        assert_eq!(res.total_stats().conflicts_found, 0);
        assert_eq!(res.total_stats().race_checks, report.race_checks as usize);
        report.assert_clean();
    }

    #[test]
    fn sanitizer_flags_overlapping_unordered_puts() {
        let res = run(
            uniform_cfg(3).with_exec(ExecPolicy::default().with_sanitize()),
            |ctx| {
                let m = ctx.machine().shmem;
                let seg = ctx.sym_alloc(&[0, 1, 2], 64, &m);
                if ctx.rank() < 2 {
                    // Both rank 0 and rank 1 blindly put into rank 2's window.
                    ctx.put(seg, 2, 0, &[ctx.rank() as u8; 8], &m, false);
                    ctx.quiet(&m);
                }
                ctx.barrier(&m);
            },
        );
        let report = res.sanitize.as_ref().expect("sanitizer enabled");
        assert_eq!(report.conflicts_found(), 1);
        assert!(
            report.codes().contains("CI009"),
            "codes: {:?}",
            report.codes()
        );
        assert_eq!(res.total_stats().conflicts_found, 1);
        let c = &report.conflicts[0];
        assert_eq!(c.owner, 2);
        assert_eq!(c.ranks, (0, 1));
    }

    #[test]
    fn sanitizer_flags_unwaited_read_and_put_from_source_reuse() {
        // Rank 0 rewrites its staged source before quiet (CI011); rank 1
        // reads the landing zone without waiting for the signal (CI012).
        let res = run(
            uniform_cfg(2).with_exec(ExecPolicy::default().with_sanitize()),
            |ctx| {
                let m = ctx.machine().shmem;
                let seg = ctx.sym_alloc(&[0, 1], 64, &m);
                if ctx.rank() == 0 {
                    ctx.write_local(seg, 32, &[7u8; 8]);
                    ctx.put_from(seg, 1, 0, 32, 8, &m, true);
                    ctx.write_local(seg, 32, &[9u8; 8]); // before quiet: CI011
                    ctx.quiet(&m);
                } else {
                    let mut out = [0u8; 8];
                    ctx.read_local(seg, 0, &mut out); // no wait: CI012
                    ctx.wait_signals_raw(seg, 1);
                }
            },
        );
        let report = res.sanitize.as_ref().expect("sanitizer enabled");
        let codes = report.codes();
        assert!(codes.contains("CI011"), "codes: {codes:?}");
        assert!(codes.contains("CI012"), "codes: {codes:?}");
    }

    #[test]
    fn trace_records_events() {
        let res = run(uniform_cfg(2).with_trace(), |ctx| {
            let m = ctx.machine().mpi;
            if ctx.rank() == 0 {
                ctx.send(1, 0, b"x", &m);
            } else {
                ctx.recv(SrcSel::Exact(0), TagSel::Exact(0), &m);
            }
        });
        let trace = res.trace.expect("trace enabled");
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, EventKind::SendPost { dst: 1, .. })));
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, EventKind::RecvDone { src: 0, .. })));
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn rank_panic_propagates_with_id() {
        run(uniform_cfg(2), |ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn pack_and_datatype_charges() {
        let res = run(SimConfig::new(1), |ctx| {
            let m = ctx.machine().mpi;
            let before = ctx.now();
            ctx.charge_pack(1_000, &m);
            let after_pack = ctx.now();
            ctx.charge_datatype_commit(&m);
            (before, after_pack, ctx.now())
        });
        let (a, b, c) = res.per_rank[0];
        assert!(b > a);
        assert!(c > b);
        assert_eq!(res.stats[0].packed_bytes, 1_000);
        assert_eq!(res.stats[0].datatype_commits, 1);
    }

    #[test]
    fn charge_consolidated_folds_completions() {
        let res = run(SimConfig::new(1), |ctx| {
            let m = ctx.machine().mpi;
            ctx.compute(Time(500));
            ctx.charge_consolidated(&[Time(10_000), Time(2_000)], 2, &m);
            ctx.now()
        });
        let m = crate::model::CostModel::gemini_mpi();
        assert_eq!(res.per_rank[0], Time(10_000) + m.waitall_cost(2));
    }

    #[test]
    fn bounded_engine_matches_default() {
        // A mixed workload (p2p, barrier, one-sided put/signal) must produce
        // bit-identical results at every slot count.
        let body = |ctx: &mut RankCtx| {
            let m = ctx.machine().mpi;
            let shm = ctx.machine().shmem;
            let n = ctx.nranks();
            let right = (ctx.rank() + 1) % n;
            let left = (ctx.rank() + n - 1) % n;
            let s = ctx.isend(right, 1, &[ctx.rank() as u8; 64], &m);
            let r = ctx.irecv(SrcSel::Exact(left), TagSel::Exact(1), &m);
            ctx.waitall(&[s], &[r], &m);
            ctx.barrier(&m);
            let group: Vec<usize> = (0..n).collect();
            let seg = ctx.sym_alloc(&group, 16, &shm);
            ctx.put(seg, right, 0, &[7u8; 16], &shm, true);
            ctx.quiet(&shm);
            let arrival = ctx.wait_signals_raw(seg, 1);
            ctx.advance_to(arrival);
            ctx.barrier(&m);
            ctx.now()
        };
        let reference = run(uniform_cfg(6), body);
        for workers in [1usize, 2, 5, 64] {
            let res = run(uniform_cfg(6).with_exec(ExecPolicy::bounded(workers)), body);
            assert_eq!(res.final_times, reference.final_times, "workers={workers}");
            assert_eq!(res.per_rank, reference.per_rank, "workers={workers}");
        }
    }

    #[test]
    fn flow_control_and_back_to_back_allocs_match_across_slot_counts() {
        // Rank 0's signalled puts into rank 1's window-1 segment park until
        // rank 1 consumes; every rank makes back-to-back symmetric allocs.
        // Both waits must terminate on one slot and on the default, with
        // identical clocks and counters.
        const PUTS: usize = 6;
        let body = |ctx: &mut RankCtx| {
            let shm = ctx.machine().shmem;
            let group: Vec<usize> = (0..ctx.nranks()).collect();
            let seg = ctx.sym_alloc_windowed(&group, 8, 1, &shm);
            let more: Vec<SegId> = (0..3).map(|_| ctx.sym_alloc(&group, 8, &shm)).collect();
            if ctx.rank() == 0 {
                for k in 0..PUTS {
                    ctx.put(seg, 1, 0, &[k as u8; 8], &shm, true);
                }
                ctx.quiet(&shm);
            } else if ctx.rank() == 1 {
                for k in 1..=PUTS {
                    let arrival = ctx.wait_signals_raw(seg, k);
                    ctx.advance_to(arrival);
                    ctx.mark_consumed(seg, 1);
                }
            }
            ctx.barrier(&shm);
            (ctx.now(), seg, more)
        };
        let reference = run(uniform_cfg(3), body);
        let one = run(uniform_cfg(3).with_exec(ExecPolicy::bounded(1)), body);
        assert_eq!(one.final_times, reference.final_times);
        assert_eq!(one.per_rank, reference.per_rank);
        assert_eq!(one.stats, reference.stats);
        assert_eq!(reference.stats[0].puts, PUTS);
    }

    #[test]
    fn bounded_engine_single_worker_no_deadlock_rendezvous() {
        // Rendezvous sends block until matched; with one worker slot the
        // sender must yield so the receiver can run.
        let mut machine = MachineModel::default();
        machine.mpi.eager_threshold = 0; // force rendezvous for every message
        let cfg = SimConfig::new(4)
            .with_machine(machine)
            .with_exec(ExecPolicy::bounded(1));
        let res = run(cfg, |ctx| {
            let m = ctx.machine().mpi;
            if ctx.rank() == 0 {
                for dst in 1..ctx.nranks() {
                    ctx.send(dst, 0, &[1u8; 4096], &m);
                }
            } else {
                ctx.recv(SrcSel::Exact(0), TagSel::Exact(0), &m);
            }
            ctx.now()
        });
        assert!(res.makespan() > Time::ZERO);
    }

    #[test]
    fn eager_threshold_config_overrides_model() {
        // The same 4 KiB message is eager under the default Gemini model
        // (threshold 8 KiB) and pays the rendezvous handshake once the
        // ExecPolicy knob pulls the threshold below the message size.
        let elapsed = |cfg: SimConfig| {
            run(cfg, |ctx| {
                let m = ctx.machine().mpi;
                if ctx.rank() == 0 {
                    ctx.send(1, 0, &[9u8; 4096], &m);
                } else {
                    ctx.recv(SrcSel::Exact(0), TagSel::Exact(0), &m);
                }
                ctx.now()
            })
            .makespan()
        };
        let eager = elapsed(SimConfig::new(2));
        let rdv =
            elapsed(SimConfig::new(2).with_exec(ExecPolicy::default().with_eager_threshold(1024)));
        assert!(
            rdv > eager,
            "rendezvous {rdv:?} must cost more than {eager:?}"
        );
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn bounded_engine_panic_releases_slot() {
        // The panicking rank's slot must be released so the others finish
        // and the panic propagates instead of deadlocking the pool.
        run(uniform_cfg(4).with_exec(ExecPolicy::bounded(1)), |ctx| {
            let m = ctx.machine().mpi;
            ctx.barrier(&m);
            if ctx.rank() == 1 {
                panic!("boom");
            }
            ctx.barrier_group(&[0, 2, 3], &m);
        });
    }

    #[test]
    fn many_ranks_scale() {
        // Smoke test that the default one-slot-per-rank engine handles
        // Fig-3-scale rank counts.
        let res = run(SimConfig::new(97), |ctx| {
            let m = ctx.machine().mpi;
            ctx.barrier(&m);
            ctx.rank()
        });
        assert_eq!(res.per_rank.len(), 97);
        assert!(res.per_rank.iter().enumerate().all(|(i, &r)| i == r));
    }
}
