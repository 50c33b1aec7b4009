//! The runtime directive engine: `comm_parameters` regions and `comm_p2p`
//! instances executing against a chosen target library, with the paper's
//! automatic behaviours — data-type handling, count inference,
//! synchronization consolidation and placement, communication/computation
//! overlap, and symmetric staging-buffer reuse.
//!
//! ## Timing semantics
//!
//! Data movement is physical (the receive buffer really is filled), but the
//! *cost* of waiting is deferred: a `comm_p2p` records virtual completion
//! times, and the region's synchronization point folds them into the rank's
//! clock as one consolidated charge ("for every set of adjacent comm_p2p
//! directives with independent buffers, synchronization is consolidated and
//! reduced in most cases to one call at the end"). Computation overlapped
//! via [`P2pCall::overlap`] therefore advances the clock concurrently with
//! the in-flight transfer, exactly like the generated overlap code.

use std::collections::HashMap;

use mpisim::dtype::DtypeCache;
use mpisim::Comm;
use netsim::{RankCtx, SegId, SendRequest, Time};

use crate::buffer::{BufMeta, ElemKind, RecvBuf, RecvSlot, SendBuf, SendSlot};
use crate::clause::{ClauseSet, Diagnostic, DirectiveKind, PlaceSync, Target};
use crate::dir::{P2pSpec, ParamsSpec};
use crate::expr::{CondExpr, EvalEnv, ExprError, RankExpr};
use crate::lower::{Lowering, LoweringPolicy};
use crate::overlay::{Decision, Overlay};

/// Base user tag reserved for directive-generated messages.
const DIR_TAG_BASE: i32 = 1 << 18;

/// User-tag base for coalesced (batched) directive messages — disjoint
/// from [`DIR_TAG_BASE`] so packed and per-instance traffic for the same
/// site can never cross-match. Still inside mpisim's user-tag space.
const COAL_TAG_BASE: i32 = DIR_TAG_BASE + (1 << 17);

/// Errors from directive execution.
#[derive(Debug)]
pub enum DirectiveError {
    /// Clause/buffer validation failed.
    Invalid(Vec<Diagnostic>),
    /// A clause expression failed to evaluate.
    Expr(ExprError),
    /// An evaluated rank was outside the communicator.
    RankOutOfRange {
        clause: &'static str,
        value: i64,
        size: usize,
    },
    /// A site executed more times than `max_comm_iter` allows.
    MaxIterExceeded { site: u32, bound: i64 },
    /// A later execution's payload exceeded the staging capacity fixed at
    /// first execution (increase `max_comm_iter` or keep counts uniform).
    StagingOverflow { site: u32, need: usize, have: usize },
}

impl std::fmt::Display for DirectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectiveError::Invalid(diags) => {
                writeln!(f, "directive validation failed:")?;
                for d in diags {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
            DirectiveError::Expr(e) => write!(f, "clause expression error: {e}"),
            DirectiveError::RankOutOfRange {
                clause,
                value,
                size,
            } => write!(
                f,
                "`{clause}` evaluated to {value}, outside communicator of size {size}"
            ),
            DirectiveError::MaxIterExceeded { site, bound } => write!(
                f,
                "comm_p2p site {site} executed more than max_comm_iter={bound} times"
            ),
            DirectiveError::StagingOverflow { site, need, have } => write!(
                f,
                "comm_p2p site {site}: payload {need}B exceeds staging capacity {have}B"
            ),
        }
    }
}

impl std::error::Error for DirectiveError {}

impl From<ExprError> for DirectiveError {
    fn from(e: ExprError) -> Self {
        DirectiveError::Expr(e)
    }
}

/// Builder for the `comm_parameters` directive's clause list.
#[derive(Clone, Debug, Default)]
pub struct CommParams {
    /// The clause payload.
    pub clauses: ClauseSet,
}

impl CommParams {
    /// Empty clause list.
    pub fn new() -> Self {
        Self::default()
    }

    /// `sender(expr)`.
    pub fn sender(mut self, e: impl Into<RankExpr>) -> Self {
        self.clauses.sender = Some(e.into());
        self
    }

    /// `receiver(expr)`.
    pub fn receiver(mut self, e: impl Into<RankExpr>) -> Self {
        self.clauses.receiver = Some(e.into());
        self
    }

    /// `sendwhen(cond)`.
    pub fn sendwhen(mut self, c: CondExpr) -> Self {
        self.clauses.sendwhen = Some(c);
        self
    }

    /// `receivewhen(cond)`.
    pub fn receivewhen(mut self, c: CondExpr) -> Self {
        self.clauses.receivewhen = Some(c);
        self
    }

    /// `count(expr)`.
    pub fn count(mut self, e: impl Into<RankExpr>) -> Self {
        self.clauses.count = Some(e.into());
        self
    }

    /// `target(keyword)`.
    pub fn target(mut self, t: Target) -> Self {
        self.clauses.target = Some(t);
        self
    }

    /// `place_sync(keyword)`.
    pub fn place_sync(mut self, p: PlaceSync) -> Self {
        self.clauses.place_sync = Some(p);
        self
    }

    /// `max_comm_iter(expr)`.
    pub fn max_comm_iter(mut self, e: impl Into<RankExpr>) -> Self {
        self.clauses.max_comm_iter = Some(e.into());
        self
    }
}

/// Deferred synchronization state accumulated by directive executions.
#[derive(Default)]
struct PendingSync {
    /// Outstanding non-blocking sends (MPI two-sided).
    send_reqs: Vec<SendRequest>,
    /// Completion times of already-delivered receives (MPI two-sided).
    recv_completions: Vec<Time>,
    /// Put arrival times by library, sender side.
    put_arrivals_mpi: Vec<Time>,
    put_arrivals_shmem: Vec<Time>,
    /// Incoming put arrival times, receiver side.
    recv_arrivals_mpi: Vec<Time>,
    recv_arrivals_shmem: Vec<Time>,
    /// Whether any directive in scope used each one-sided target (uniform
    /// across ranks, so the collective fence/barrier is safe).
    used_mpi1: bool,
    used_shmem: bool,
}

impl PendingSync {
    fn is_empty(&self) -> bool {
        self.send_reqs.is_empty()
            && self.recv_completions.is_empty()
            && !self.used_mpi1
            && !self.used_shmem
    }

    fn absorb(&mut self, mut other: PendingSync) {
        self.send_reqs.append(&mut other.send_reqs);
        self.recv_completions.append(&mut other.recv_completions);
        self.put_arrivals_mpi.append(&mut other.put_arrivals_mpi);
        self.put_arrivals_shmem
            .append(&mut other.put_arrivals_shmem);
        self.recv_arrivals_mpi.append(&mut other.recv_arrivals_mpi);
        self.recv_arrivals_shmem
            .append(&mut other.recv_arrivals_shmem);
        self.used_mpi1 |= other.used_mpi1;
        self.used_shmem |= other.used_shmem;
    }
}

/// A per-site symmetric staging allocation for one-sided targets.
struct StagingSite {
    seg: SegId,
    /// Byte offset of each buffer within one slot.
    buf_offsets: Vec<usize>,
    /// Bytes per slot (one directive execution).
    slot_bytes: usize,
    /// Number of slots (`max_comm_iter` at first execution, else 1).
    slots: usize,
    /// Per-destination send counts (slot selection on the sender).
    send_counts: HashMap<usize, u64>,
    /// Receive count (slot selection + signal indexing on the receiver).
    recv_count: u64,
}

/// Sender-side accumulator for one (site, destination) coalescing stream.
struct CoalesceOut {
    site: u32,
    dest: usize,
    target: Target,
    batch: usize,
    /// Directive instances accumulated since the last flush.
    instances: usize,
    /// Length-framed pieces awaiting one packed send.
    buf: Vec<u8>,
    /// Latest data-dependency horizon among the accumulated pieces: the
    /// packed send departs no earlier than its newest piece's data.
    horizon: Time,
}

/// Receiver-side buffer of one packed message being peeled piece by piece.
struct CoalesceIn {
    site: u32,
    src: usize,
    payload: bytes::Bytes,
    pos: usize,
    /// Virtual completion time of the packed message that carried `payload`.
    completion: Time,
}

/// Per-site symmetric staging for SHMEM-coalesced flushes: one slot holds
/// one packed flush (`[u32 total][framed pieces...]`).
struct CoalStaging {
    seg: SegId,
    slot_bytes: usize,
    slots: usize,
    /// Per-destination flush counts (slot selection on the sender).
    send_flushes: HashMap<usize, u64>,
    /// Flushes consumed (slot selection + signal indexing on the receiver).
    recv_flushes: u64,
}

/// Runtime state of an installed tuning overlay: the decisions plus the
/// coalescing accumulators they drive.
struct OverlayState {
    overlay: Overlay,
    out: Vec<CoalesceOut>,
    inbox: Vec<CoalesceIn>,
    shmem_staging: Vec<(u32, CoalStaging)>,
}

/// A directive session: binds a rank context to a communicator and holds
/// the cross-region state — the per-scope datatype cache, carried
/// synchronizations (`place_sync` deferral), symmetric staging sites, and
/// the recorded IR of every region executed (for analysis).
pub struct CommSession<'a> {
    ctx: &'a mut RankCtx,
    comm: Comm,
    /// Cached evaluation environment (rank/size are session constants; the
    /// variable bindings are updated in place by `set_var`). Kept ready so
    /// the directive hot path never clones a variable map per instance.
    env: EvalEnv,
    dtype_cache: DtypeCache,
    carried_next: PendingSync,
    carried_adj: PendingSync,
    /// Per-site staging allocations, linear-scanned by site id: a session
    /// has a handful of one-sided sites but the lookup runs on every
    /// directive instance, where a short scan beats hashing.
    staging: Vec<(u32, StagingSite)>,
    /// Arrival horizons of physically-received-but-unsynced buffers, keyed
    /// by address range. A later send reading such a buffer is forced to
    /// depart no earlier than the data's virtual arrival (causality under
    /// deferred synchronization — the "relaxed" sync stays legal).
    recv_horizons: Vec<((usize, usize), Time)>,
    /// Recorded region IR (first instance per call order), for analysis.
    program: Vec<ParamsSpec>,
    record_ir: bool,
    /// Installed tuning overlay plus its coalescing state. `None` (the
    /// untuned hot path) costs a single branch per directive instance.
    overlay: Option<Box<OverlayState>>,
    /// Marshalling strategy policy: `Auto` runs the layout engine's
    /// per-site chooser; the fixed policies exist for A/B benchmarking.
    lowering: LoweringPolicy,
}

impl<'a> CommSession<'a> {
    /// Create a session over `comm`.
    pub fn new(ctx: &'a mut RankCtx, comm: Comm) -> Self {
        let env = EvalEnv::new(comm.rank(ctx), comm.size());
        CommSession {
            ctx,
            comm,
            env,
            dtype_cache: DtypeCache::new(),
            carried_next: PendingSync::default(),
            carried_adj: PendingSync::default(),
            staging: Vec::new(),
            recv_horizons: Vec::new(),
            program: Vec::new(),
            record_ir: true,
            overlay: None,
            lowering: LoweringPolicy::default(),
        }
    }

    /// Override the marshalling-strategy policy (default `Auto`). The
    /// fixed policies (`AlwaysPack`, `AlwaysDatatype`) exist to benchmark
    /// the layout engine's chooser against what it replaces.
    pub fn with_lowering(mut self, policy: LoweringPolicy) -> Self {
        self.lowering = policy;
        self
    }

    /// Install a tuning overlay (profile-guided decisions from `commtune`).
    /// Decisions apply to every directive executed afterwards; `Keep`
    /// decisions are behaviorally inert by construction, so an all-keep
    /// overlay reproduces the untuned run bit for bit.
    pub fn with_overlay(mut self, overlay: Overlay) -> Self {
        self.overlay = Some(Box::new(OverlayState {
            overlay,
            out: Vec::new(),
            inbox: Vec::new(),
            shmem_staging: Vec::new(),
        }));
        self
    }

    /// The installed tuning overlay, if any.
    pub fn overlay(&self) -> Option<&Overlay> {
        self.overlay.as_deref().map(|s| &s.overlay)
    }

    /// The latest arrival horizon of received data overlapping `range`
    /// (data-dependency fence for sends under deferred sync).
    fn data_horizon(&self, range: (usize, usize)) -> Option<Time> {
        self.recv_horizons
            .iter()
            .filter(|((lo, hi), _)| *lo < range.1 && range.0 < *hi)
            .map(|&(_, t)| t)
            .max()
    }

    /// `data_horizon` over a buffer's exact constituent ranges when it
    /// exposes them (struct-of-arrays), else its summary range. The summary
    /// hull of unrelated heap arrays is allocator-dependent, so dependence
    /// decisions must never consult it where exact ranges exist — engines
    /// could otherwise diverge on identical programs.
    fn buf_data_horizon(
        &self,
        ranges: Option<&[(usize, usize)]>,
        addr: (usize, usize),
    ) -> Option<Time> {
        match ranges {
            Some(rs) => rs.iter().filter_map(|&r| self.data_horizon(r)).max(),
            None => self.data_horizon(addr),
        }
    }

    /// Record an arrival horizon per exact constituent range (see
    /// `buf_data_horizon`), else on the summary range.
    fn push_recv_horizon(
        &mut self,
        ranges: Option<&[(usize, usize)]>,
        addr: (usize, usize),
        t: Time,
    ) {
        match ranges {
            Some(rs) => {
                for &r in rs {
                    self.recv_horizons.push((r, t));
                }
            }
            None => self.recv_horizons.push((addr, t)),
        }
    }

    /// Disable IR recording (hot loops in benches).
    pub fn without_ir(mut self) -> Self {
        self.record_ir = false;
        self
    }

    /// Bind a clause variable.
    pub fn set_var(&mut self, name: &str, value: i64) {
        self.env.set(name, value);
    }

    /// The underlying rank context.
    pub fn ctx(&mut self) -> &mut RankCtx {
        self.ctx
    }

    /// The session's communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// This rank's communicator-local id.
    pub fn rank(&self) -> usize {
        self.comm.rank(self.ctx)
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// Recorded directive IR so far.
    pub fn program(&self) -> &[ParamsSpec] {
        &self.program
    }

    fn env(&self) -> &EvalEnv {
        &self.env
    }

    fn staging_mut(&mut self, site: u32) -> Option<&mut StagingSite> {
        self.staging
            .iter_mut()
            .find(|(s, _)| *s == site)
            .map(|(_, st)| st)
    }

    /// Execute a `comm_parameters` region: validates the clause list,
    /// applies any synchronization deferred to the region's beginning, runs
    /// `body`, then places this region's synchronization per `place_sync`.
    pub fn region<R>(
        &mut self,
        params: &CommParams,
        body: impl FnOnce(&mut Region<'_, 'a>) -> R,
    ) -> Result<R, DirectiveError> {
        let diags = params.clauses.validate(DirectiveKind::CommParameters, None);
        let errors: Vec<Diagnostic> = diags
            .iter()
            .filter(|d| d.severity == crate::clause::Severity::Error)
            .cloned()
            .collect();
        // A region's sender/receiver may be supplied by its p2ps; only the
        // pairing rule and params-only placement apply here.
        let hard: Vec<Diagnostic> = errors
            .into_iter()
            .filter(|d| d.message.contains("both"))
            .collect();
        if !hard.is_empty() {
            return Err(DirectiveError::Invalid(hard));
        }

        // BEGIN_NEXT_PARAM_REGION syncs land here.
        let carried = std::mem::take(&mut self.carried_next);
        self.apply_sync(carried);

        let max_iter = match &params.clauses.max_comm_iter {
            Some(e) => Some(e.eval(self.env())?),
            None => None,
        };

        let mut region = Region {
            session: self,
            clauses: params.clauses.clone(),
            pending: PendingSync::default(),
            spec: ParamsSpec {
                clauses: params.clauses.clone(),
                body: Vec::new(),
                spans: Default::default(),
            },
            iter_counts: Vec::new(),
            max_iter,
            error: None,
            used_bufs: Vec::new(),
            split_syncs: 0,
        };
        let out = body(&mut region);
        let Region {
            mut pending,
            spec,
            error,
            ..
        } = region;
        if let Some(e) = error {
            // Abandon half-built coalescing batches; the receiver side of
            // this region is aborting too, so nothing will wait for them.
            if let Some(ov) = self.overlay.as_deref_mut() {
                ov.out.clear();
            }
            return Err(e);
        }

        // Region-end flush: coalesced batches never outlive their region,
        // keeping the flush rule a pure function of the instance schedule.
        flush_coalesced(self, &mut pending, None);

        // Overlay `place_sync` decisions override the written placement for
        // any region executing that site.
        let mut placement = spec.place_sync();
        if let Some(ov) = self.overlay.as_deref() {
            for p in &spec.body {
                if let Some(p2) = ov.overlay.place_sync_for(p.site) {
                    placement = p2;
                }
            }
        }
        match placement {
            PlaceSync::EndParamRegion => {
                let adj = std::mem::take(&mut self.carried_adj);
                self.apply_sync(adj);
                self.apply_sync(pending);
            }
            PlaceSync::BeginNextParamRegion => {
                self.carried_next.absorb(pending);
            }
            PlaceSync::EndAdjParamRegions => {
                self.carried_adj.absorb(pending);
            }
        }
        if self.record_ir {
            self.program.push(spec);
        }
        Ok(out)
    }

    /// Execute a standalone `comm_p2p` (outside any region): synchronizes
    /// immediately after the instance (plus any overlap body).
    pub fn p2p<'r, 'data>(&'r mut self) -> P2pCall<'r, 'r, 'a, 'data> {
        P2pCall {
            region: RegionRef::Standalone {
                session: self,
                pending: PendingSync::default(),
            },
            clauses: None,
            site: 0,
            sbufs: BufList::new(),
            rbufs: BufList::new(),
        }
    }

    /// Force application of all deferred synchronizations (the end of a run
    /// of adjacent regions, or program end).
    pub fn flush(&mut self) {
        // Coalesced leftovers exist only if a region was abandoned without
        // its end-of-region flush; drain them so no packed send is lost.
        let mut extra = PendingSync::default();
        flush_coalesced(self, &mut extra, None);
        self.apply_sync(extra);
        let next = std::mem::take(&mut self.carried_next);
        self.apply_sync(next);
        let adj = std::mem::take(&mut self.carried_adj);
        self.apply_sync(adj);
    }

    /// Flush and return the recorded IR.
    pub fn finish(mut self) -> Vec<ParamsSpec> {
        self.flush();
        std::mem::take(&mut self.program)
    }

    fn apply_sync(&mut self, pending: PendingSync) {
        if pending.is_empty() {
            return;
        }
        let mpi = self.ctx.machine().mpi;
        let shmem = self.ctx.machine().shmem;

        // MPI two-sided: one consolidated Waitall over sends + receives.
        let n2 = pending.send_reqs.len() + pending.recv_completions.len();
        if n2 > 0 {
            let mut completions = pending.recv_completions;
            for req in &pending.send_reqs {
                completions.push(req.wait_raw());
            }
            self.ctx.charge_consolidated(&completions, n2, &mpi);
        }

        // MPI one-sided: fence = quiet + barrier over the communicator.
        if pending.used_mpi1 {
            let horizon = pending
                .put_arrivals_mpi
                .iter()
                .chain(&pending.recv_arrivals_mpi)
                .copied()
                .fold(Time::ZERO, Time::max);
            let t0 = self.ctx.now();
            let outstanding = self.ctx.take_outstanding_puts().len();
            self.ctx.advance_to(horizon);
            self.ctx.charge(Time::from_nanos(mpi.o_quiet));
            self.ctx.emit_event(
                t0,
                self.ctx.now(),
                netsim::EventKind::Quiet {
                    outstanding,
                    horizon,
                },
            );
            self.ctx.note_sync_span(t0, self.ctx.now());
            self.comm.barrier(self.ctx);
        }

        // SHMEM: quiet (sender-side put completion) plus point-wise
        // completion of incoming signalled deliveries (`shmem_wait`-style).
        // No collective barrier: SHMEM's one-sided model needs none, which
        // is precisely why it scales on small frequent transfers (paper
        // §IV-B and refs [13][14]).
        if pending.used_shmem {
            let horizon = pending
                .put_arrivals_shmem
                .iter()
                .chain(&pending.recv_arrivals_shmem)
                .copied()
                .fold(Time::ZERO, Time::max);
            let t0 = self.ctx.now();
            let outstanding = self.ctx.take_outstanding_puts().len();
            self.ctx.advance_to(horizon);
            self.ctx.charge(Time::from_nanos(shmem.o_quiet));
            self.ctx.stats.quiets += 1;
            self.ctx.emit_event(
                t0,
                self.ctx.now(),
                netsim::EventKind::Quiet {
                    outstanding,
                    horizon,
                },
            );
            self.ctx.note_sync_span(t0, self.ctx.now());
        }

        // Horizons covered by the charges above are no longer needed.
        let now = self.ctx.now();
        self.recv_horizons.retain(|&(_, t)| t > now);
    }
}

/// An open `comm_parameters` region.
pub struct Region<'s, 'a> {
    session: &'s mut CommSession<'a>,
    clauses: ClauseSet,
    pending: PendingSync,
    spec: ParamsSpec,
    /// Executions seen per `comm_p2p` site, linear-scanned by site id (a
    /// region has a few lexical sites; this is read on every instance).
    iter_counts: Vec<(u32, u64)>,
    max_iter: Option<i64>,
    error: Option<DirectiveError>,
    /// Address ranges touched by pending (unsynced) directives in this
    /// region: `(lo, hi, written)`. A new directive whose buffers conflict
    /// (write-write or read-write overlap) forces an intermediate sync —
    /// the paper consolidates only "adjacent comm_p2p directives with
    /// independent buffers".
    used_bufs: Vec<(usize, usize, bool)>,
    /// Number of intermediate syncs forced by buffer dependences.
    pub split_syncs: usize,
}

impl<'s, 'a> Region<'s, 'a> {
    /// Start a `comm_p2p` instance in this region.
    pub fn p2p<'r, 'data>(&'r mut self) -> P2pCall<'r, 's, 'a, 'data> {
        P2pCall {
            region: RegionRef::InRegion(self),
            clauses: None,
            site: 0,
            sbufs: BufList::new(),
            rbufs: BufList::new(),
        }
    }

    /// The rank context (for computation between directives).
    pub fn ctx(&mut self) -> &mut RankCtx {
        self.session.ctx
    }

    /// Bind a clause variable mid-region.
    pub fn set_var(&mut self, name: &str, value: i64) {
        self.session.set_var(name, value);
    }

    /// The first error raised by a p2p in this region, if any (errors also
    /// abort the enclosing [`CommSession::region`] call).
    pub fn error(&self) -> Option<&DirectiveError> {
        self.error.as_ref()
    }
}

enum RegionRef<'r, 's, 'a> {
    InRegion(&'r mut Region<'s, 'a>),
    Standalone {
        session: &'r mut CommSession<'a>,
        pending: PendingSync,
    },
}

/// A buffer list with two inline slots, heap beyond that. A `comm_p2p`
/// overwhelmingly carries one send and one receive buffer, and the builder
/// is constructed on every directive instance of every rank — keeping the
/// common case off the allocator is worth the slightly larger move.
pub(crate) struct BufList<T> {
    inline: [Option<T>; 2],
    rest: Vec<T>,
}

impl<T> BufList<T> {
    fn new() -> Self {
        BufList {
            inline: [None, None],
            rest: Vec::new(),
        }
    }

    fn push(&mut self, v: T) {
        for slot in &mut self.inline {
            if slot.is_none() {
                *slot = Some(v);
                return;
            }
        }
        self.rest.push(v);
    }

    pub(crate) fn len(&self) -> usize {
        self.inline.iter().filter(|s| s.is_some()).count() + self.rest.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.inline[0].is_none() && self.rest.is_empty()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline.iter().flatten().chain(self.rest.iter())
    }

    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.inline.iter_mut().flatten().chain(self.rest.iter_mut())
    }
}

/// A `comm_p2p` call under construction. Finish with [`P2pCall::run`] or
/// [`P2pCall::overlap`].
pub struct P2pCall<'r, 's, 'a, 'data> {
    region: RegionRef<'r, 's, 'a>,
    /// Per-call clause overrides; boxed lazily because the hot path (clauses
    /// inherited wholesale from the region) never overrides any.
    clauses: Option<Box<ClauseSet>>,
    site: u32,
    sbufs: BufList<SendSlot<'data>>,
    rbufs: BufList<RecvSlot<'data>>,
}

impl<'r, 's, 'a, 'data> P2pCall<'r, 's, 'a, 'data> {
    fn clauses_mut(&mut self) -> &mut ClauseSet {
        self.clauses.get_or_insert_with(Default::default)
    }

    /// Distinguish lexical `comm_p2p` sites sharing a region (the macro
    /// passes `line!()`; manual callers pass any stable id).
    pub fn site(mut self, site: u32) -> Self {
        self.site = site;
        self
    }

    /// `sender(expr)` override.
    pub fn sender(mut self, e: impl Into<RankExpr>) -> Self {
        self.clauses_mut().sender = Some(e.into());
        self
    }

    /// `receiver(expr)` override.
    pub fn receiver(mut self, e: impl Into<RankExpr>) -> Self {
        self.clauses_mut().receiver = Some(e.into());
        self
    }

    /// `sendwhen(cond)` override.
    pub fn sendwhen(mut self, c: CondExpr) -> Self {
        self.clauses_mut().sendwhen = Some(c);
        self
    }

    /// `receivewhen(cond)` override.
    pub fn receivewhen(mut self, c: CondExpr) -> Self {
        self.clauses_mut().receivewhen = Some(c);
        self
    }

    /// `count(expr)` override.
    pub fn count(mut self, e: impl Into<RankExpr>) -> Self {
        self.clauses_mut().count = Some(e.into());
        self
    }

    /// `target(keyword)` override.
    pub fn target(mut self, t: Target) -> Self {
        self.clauses_mut().target = Some(t);
        self
    }

    /// Add a send buffer (`sbuf` list element).
    pub fn sbuf(mut self, b: impl SendBuf + 'data) -> Self {
        self.sbufs.push(b.into_slot());
        self
    }

    /// Add a receive buffer (`rbuf` list element).
    pub fn rbuf(mut self, b: impl RecvBuf + 'data) -> Self {
        self.rbufs.push(b.into_slot());
        self
    }

    /// Execute with an empty body.
    pub fn run(self) -> Result<(), DirectiveError> {
        self.execute(|_| {})
    }

    /// Execute with a computation body overlapped with the communication.
    pub fn overlap(self, f: impl FnOnce(&mut RankCtx)) -> Result<(), DirectiveError> {
        self.execute(f)
    }

    fn execute(mut self, body: impl FnOnce(&mut RankCtx)) -> Result<(), DirectiveError> {
        let no_overrides = ClauseSet::default();
        let own_clauses: &ClauseSet = self.clauses.as_deref().unwrap_or(&no_overrides);
        let result = match &mut self.region {
            RegionRef::InRegion(r) => {
                // Borrow the region's fields individually so the enclosing
                // clauses can be passed by reference (this runs once per
                // directive instance — no clones on the hot path).
                let Region {
                    session,
                    clauses,
                    pending,
                    spec,
                    iter_counts,
                    max_iter,
                    error: _,
                    used_bufs,
                    split_syncs,
                } = &mut **r;
                execute_p2p(
                    session,
                    pending,
                    Some(&*clauses),
                    *max_iter,
                    Some(iter_counts),
                    Some(spec),
                    Some((used_bufs, split_syncs)),
                    own_clauses,
                    self.site,
                    &self.sbufs,
                    &mut self.rbufs,
                    body,
                )
            }
            RegionRef::Standalone { session, pending } => {
                let mut spec = ParamsSpec::default();
                let r = execute_p2p(
                    session,
                    pending,
                    None,
                    None,
                    None,
                    Some(&mut spec),
                    None,
                    own_clauses,
                    self.site,
                    &self.sbufs,
                    &mut self.rbufs,
                    body,
                );
                // Standalone p2p: synchronize immediately and record IR.
                if r.is_ok() {
                    session.apply_sync(std::mem::take(pending));
                    if session.record_ir {
                        session.program.push(spec);
                    }
                }
                r
            }
        };
        match result {
            Ok(()) => Ok(()),
            Err(e) => {
                if let RegionRef::InRegion(r) = &mut self.region {
                    if r.error.is_none() {
                        r.error = Some(DirectiveError::Invalid(vec![Diagnostic::error(format!(
                            "{e}"
                        ))]));
                    }
                }
                Err(e)
            }
        }
    }
}

/// Buffer-dependence tracking borrowed from the enclosing region: the
/// `(lo, hi, written)` address ranges touched by pending directives plus
/// the split-sync counter.
type UsedBufs<'a> = (&'a mut Vec<(usize, usize, bool)>, &'a mut usize);

#[allow(clippy::too_many_arguments)]
fn execute_p2p(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    outer: Option<&ClauseSet>,
    max_iter: Option<i64>,
    iter_counts: Option<&mut Vec<(u32, u64)>>,
    spec: Option<&mut ParamsSpec>,
    used_bufs: Option<UsedBufs<'_>>,
    clauses: &ClauseSet,
    site: u32,
    sbufs: &BufList<SendSlot<'_>>,
    rbufs: &mut BufList<RecvSlot<'_>>,
    body: impl FnOnce(&mut RankCtx),
) -> Result<(), DirectiveError> {
    // Count this execution of the site (and enforce `max_comm_iter`).
    let in_region = iter_counts.is_some();
    let mut first_execution_of_site = true;
    if let Some(counts) = iter_counts {
        let c = match counts.iter_mut().find(|(s, _)| *s == site) {
            Some((_, c)) => {
                first_execution_of_site = false;
                c
            }
            None => {
                counts.push((site, 0));
                &mut counts.last_mut().expect("just pushed").1
            }
        };
        *c += 1;
        if let Some(bound) = max_iter {
            if *c as i64 > bound {
                return Err(DirectiveError::MaxIterExceeded { site, bound });
            }
        }
    }

    // -- validation ----------------------------------------------------------
    // Checked over name-free descriptors built on the fly; full diagnostics
    // (with buffer names) are materialized only when something is wrong.
    // The clause set and the buffer list shape at a site are call-site
    // constants (the builder chain is the same code every iteration), so
    // validation runs on the first execution only; later iterations of the
    // directive loop would merely re-confirm the first result.
    if first_execution_of_site {
        let clause_diags = clauses.validate(DirectiveKind::CommP2p, outer);
        let bufs_ok = !sbufs.is_empty()
            && !rbufs.is_empty()
            && sbufs.len() == rbufs.len()
            && sbufs
                .iter()
                .zip(rbufs.iter())
                .all(|(s, r)| s.desc().elem.compatible(&r.desc().elem));
        if ClauseSet::has_errors(&clause_diags) || !bufs_ok {
            let sb_meta: Vec<BufMeta> = sbufs.iter().map(|b| b.meta()).collect();
            let rb_meta: Vec<BufMeta> = rbufs.iter().map(|b| b.meta()).collect();
            return Err(DirectiveError::Invalid(
                crate::dir::validate_p2p_call(clauses, outer, &sb_meta, &rb_meta)
                    .into_iter()
                    .filter(|d| d.severity == crate::clause::Severity::Error)
                    .collect(),
            ));
        }
        // Record the region IR from this first instance.
        if let Some(spec) = spec {
            spec.body.push(P2pSpec {
                clauses: clauses.clone(),
                sbuf: sbufs.iter().map(|b| b.meta()).collect(),
                rbuf: rbufs.iter().map(|b| b.meta()).collect(),
                has_overlap_body: true, // unknown statically; body may be empty
                site,
                spans: Default::default(),
            });
        }
    }

    // -- clause resolution -----------------------------------------------------
    // The p2p's own assertions win; missing ones are inherited from the
    // enclosing region. Resolved by reference — this path runs for every
    // rank on every loop iteration, participant or not.
    let env = session.env();
    let is_sender = match clauses
        .sendwhen
        .as_ref()
        .or_else(|| outer.and_then(|o| o.sendwhen.as_ref()))
    {
        Some(c) => c.eval(env)?,
        None => true,
    };
    let is_receiver = match clauses
        .receivewhen
        .as_ref()
        .or_else(|| outer.and_then(|o| o.receivewhen.as_ref()))
    {
        Some(c) => c.eval(env)?,
        None => true,
    };
    // A written count is evaluated (and checked) on every instance; the
    // inferred one reads the buffers, so it waits until they are used.
    let count = match clauses
        .count
        .as_ref()
        .or_else(|| outer.and_then(|o| o.count.as_ref()))
    {
        Some(e) => {
            let v = e.eval(env)?;
            if v < 0 {
                return Err(DirectiveError::RankOutOfRange {
                    clause: "count",
                    value: v,
                    size: usize::MAX,
                });
            }
            Some(v as usize)
        }
        None => None,
    };
    let mut target = clauses
        .target
        .or_else(|| outer.and_then(|o| o.target))
        .unwrap_or_default();

    // -- overlay application -----------------------------------------------------
    // Profile-guided decisions resolve here, after the written clauses: the
    // source states intent, the overlay refines mechanism. A single branch
    // when no overlay is installed (the untuned hot path). Coalescing only
    // applies inside regions — a standalone p2p synchronizes immediately,
    // so batching it could never elide anything.
    let mut coalesce = None;
    if let Some(ov) = session.overlay.as_deref() {
        if let Some(d) = ov.overlay.decision_for(site) {
            match d.decision {
                Decision::Retarget(t) => target = t,
                Decision::Coalesce { batch } if batch >= 2 && in_region => {
                    coalesce = Some(batch);
                }
                _ => {}
            }
        }
    }
    let size = session.comm.size();

    let dest = if is_sender {
        let e = clauses
            .receiver
            .as_ref()
            .or_else(|| outer.and_then(|o| o.receiver.as_ref()))
            .expect("validated");
        let v = e.eval(env)?;
        if v < 0 || v >= size as i64 {
            return Err(DirectiveError::RankOutOfRange {
                clause: "receiver",
                value: v,
                size,
            });
        }
        Some(v as usize)
    } else {
        None
    };
    let src = if is_receiver {
        let e = clauses
            .sender
            .as_ref()
            .or_else(|| outer.and_then(|o| o.sender.as_ref()))
            .expect("validated");
        let v = e.eval(env)?;
        if v < 0 || v >= size as i64 {
            return Err(DirectiveError::RankOutOfRange {
                clause: "sender",
                value: v,
                size,
            });
        }
        Some(v as usize)
    } else {
        None
    };

    // -- non-participant fast path -------------------------------------------------
    // Every rank runs every instance, and on most of them it neither sends
    // nor receives. Once the site has run in this region (validated, IR
    // recorded) and its symmetric staging exists (allocated collectively),
    // such an instance touches no buffer and issues no operation, so the
    // guard and the dispatch below would change nothing. Of the dispatch's
    // effects only two remain: marking the one-sided target, so the
    // region-end quiet or fence still runs on this rank, and running the
    // overlap body under the site's attribution. Coalesced sites keep the
    // full path.
    if dest.is_none()
        && src.is_none()
        && !first_execution_of_site
        && coalesce.is_none()
        && (target == Target::Mpi2Side || session.staging.iter().any(|(s, _)| *s == site))
    {
        match target {
            Target::Mpi1Side => pending.used_mpi1 = true,
            Target::Shmem => pending.used_shmem = true,
            Target::Mpi2Side => {}
        }
        let prev_site = session.ctx.set_site(Some(site));
        body(session.ctx);
        session.ctx.set_site(prev_site);
        return Ok(());
    }
    let count = count.unwrap_or_else(|| p2p_specless_inferred_count(sbufs, rbufs));

    // -- buffer-independence guard -----------------------------------------------
    // Consolidation is legal only across independent buffers (paper
    // §III-A). A directive that writes memory an unsynced directive touched
    // (or reads memory one wrote) forces the generated code to synchronize
    // first; the engine models exactly that split.
    if let Some((used, splits)) = used_bufs {
        let mut current: Vec<(usize, usize, bool)> = Vec::new();
        // Exact constituent ranges where the buffer has them (struct-of-
        // arrays): the summary hull spans whatever the allocator placed
        // between the member arrays, and a guard decision based on it
        // would be allocator-dependent.
        if is_sender {
            for b in sbufs.iter() {
                match b.sub_ranges() {
                    Some(rs) => current.extend(rs.iter().map(|&(lo, hi)| (lo, hi, false))),
                    None => {
                        let a = b.desc().addr;
                        current.push((a.0, a.1, false));
                    }
                }
            }
        }
        if is_receiver {
            for b in rbufs.iter() {
                match b.sub_ranges() {
                    Some(rs) => current.extend(rs.iter().map(|&(lo, hi)| (lo, hi, true))),
                    None => {
                        let a = b.desc().addr;
                        current.push((a.0, a.1, true));
                    }
                }
            }
        }
        let conflict = current.iter().any(|&(lo, hi, w)| {
            lo < hi
                && used
                    .iter()
                    .any(|&(ulo, uhi, uw)| ulo < hi && lo < uhi && (w || uw))
        });
        if conflict {
            let mut p = std::mem::take(pending);
            // A forced split is a flush point: in-flight coalesced batches
            // belong to the synchronization that the dependence demands.
            flush_coalesced(session, &mut p, None);
            session.apply_sync(p);
            used.clear();
            *splits += 1;
        }
        used.extend(current.into_iter().filter(|&(lo, hi, _)| lo < hi));
    }

    // -- dispatch ---------------------------------------------------------------
    // Attribute every runtime operation issued below (including by the
    // overlap body) to this directive's call site, so fabric-level trace
    // events and metrics join back to the `comm_p2p` clause that caused
    // them. The previous attribution is restored even on error.
    let prev_site = session.ctx.set_site(Some(site));
    let dispatched = match (target, coalesce) {
        (Target::Mpi2Side, Some(batch)) => exec_mpi2_coalesced(
            session, pending, site, sbufs, rbufs, count, dest, src, batch,
        ),
        (Target::Shmem, Some(batch)) => exec_shmem_coalesced(
            session, pending, site, sbufs, rbufs, count, dest, src, batch, max_iter,
        ),
        (Target::Mpi2Side, None) => {
            exec_mpi2(session, pending, site, sbufs, rbufs, count, dest, src)
        }
        // MPI one-sided flushes through a collective fence; batching puts
        // under it would change nothing, so Coalesce degrades to Keep.
        (Target::Mpi1Side | Target::Shmem, _) => exec_onesided(
            session, pending, site, sbufs, rbufs, count, dest, src, target, max_iter,
        ),
    };

    // -- overlapped computation --------------------------------------------------
    if dispatched.is_ok() {
        body(session.ctx);
    }
    session.ctx.set_site(prev_site);
    dispatched
}

fn p2p_specless_inferred_count(sb: &BufList<SendSlot<'_>>, rb: &BufList<RecvSlot<'_>>) -> usize {
    sb.iter()
        .map(|b| b.desc().len)
        .chain(rb.iter().map(|b| b.desc().len))
        .min()
        .unwrap_or(0)
}

/// MPI two-sided lowering: non-blocking Isend/Irecv through automatic
/// datatypes; completion deferred to the region sync.
#[allow(clippy::too_many_arguments)]
fn exec_mpi2(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    site: u32,
    sbufs: &BufList<SendSlot<'_>>,
    rbufs: &mut BufList<RecvSlot<'_>>,
    count: usize,
    dest: Option<usize>,
    src: Option<usize>,
) -> Result<(), DirectiveError> {
    let tag = DIR_TAG_BASE + site as i32;
    if let Some(dest) = dest {
        let mpi = session.ctx.machine().mpi;
        for sb in sbufs.iter() {
            let meta = sb.meta();
            let n = count.min(meta.len);
            // Causality under deferred sync: reading a buffer that was
            // filled by an unsynced receive fences the departure to the
            // data's arrival (no software overhead charged — this is the
            // data dependency, not a wait call).
            if let Some(h) = session.buf_data_horizon(sb.sub_ranges(), meta.addr) {
                session.ctx.advance_to(h);
            }
            let mut payload = Vec::with_capacity(n * meta.elem.packed_size());
            sb.gather(n, &mut payload);
            // The layout engine's per-site decision (chooser under `Auto`,
            // fixed strategy otherwise; SPMD-uniform inputs, so both ends
            // agree without negotiation).
            match session
                .lowering
                .resolve(&meta.elem, count, Target::Mpi2Side, &mpi)
            {
                // Contiguous memory (or a constituent split): the transfer
                // engine reads the user buffer in place, no marshalling
                // charge. A split of n constituents pays the (n-1) extra
                // per-message send overheads its generated code issues.
                Lowering::Direct => {}
                Lowering::Split { n: parts } => {
                    session.ctx.charge(Time::from_nanos(
                        parts.saturating_sub(1) as u64 * mpi.o_send,
                    ));
                }
                // Derived-datatype path (struct or vector): one-time commit
                // per layout, cheap per-byte gather (instead of an explicit
                // MPI_Pack copy).
                Lowering::Datatype => {
                    let dt = meta.elem.to_datatype();
                    session.dtype_cache.ensure_committed(session.ctx, &dt, &mpi);
                    session
                        .ctx
                        .charge(mpi.byte_cost(mpi.datatype_per_byte, payload.len()));
                }
                // Listing-4 shape: an explicit pack copy of every byte.
                Lowering::Pack => session.ctx.charge_pack(payload.len(), &mpi),
            }
            let req = session
                .comm
                .isend_bytes(session.ctx, dest, tag, bytes::Bytes::from(payload));
            pending.send_reqs.push(req);
        }
    }
    if let Some(src) = src {
        let mpi = session.ctx.machine().mpi;
        for rb in rbufs.iter_mut() {
            let meta = rb.meta();
            let n = count.min(meta.len);
            let req = session.comm.irecv(session.ctx, Some(src), Some(tag));
            // Physically complete now (data lands in the user buffer); the
            // virtual wait cost is deferred to the region sync point.
            let done = req.wait_raw();
            match session
                .lowering
                .resolve(&meta.elem, count, Target::Mpi2Side, &mpi)
            {
                Lowering::Direct => {}
                // The split's extra messages cost receive-side software
                // overhead too (one post + one completion poll each).
                Lowering::Split { n: parts } => {
                    session.ctx.charge(Time::from_nanos(
                        parts.saturating_sub(1) as u64 * (mpi.o_recv + mpi.o_req_poll),
                    ));
                }
                Lowering::Datatype => {
                    let dt = meta.elem.to_datatype();
                    session.dtype_cache.ensure_committed(session.ctx, &dt, &mpi);
                    session
                        .ctx
                        .charge(mpi.byte_cost(mpi.datatype_per_byte, done.payload.len()));
                }
                // The receiver of a packed message pays the unpack copy.
                Lowering::Pack => session.ctx.charge_pack(done.payload.len(), &mpi),
            }
            rb.scatter(n, &done.payload);
            // The physical wait happened above; record the completion so the
            // trace still carries a site-attributed RecvDone (the virtual
            // charge lands later, in the consolidated region sync).
            session.ctx.note_recv_completion(&req, &done);
            session.push_recv_horizon(rb.sub_ranges(), meta.addr, done.completion);
            pending.recv_completions.push(done.completion);
        }
    }
    Ok(())
}

/// Find or create the (site, dest) coalescing accumulator.
fn coalesce_out(
    out: &mut Vec<CoalesceOut>,
    site: u32,
    dest: usize,
    target: Target,
    batch: usize,
) -> &mut CoalesceOut {
    if let Some(i) = out.iter().position(|a| a.site == site && a.dest == dest) {
        return &mut out[i];
    }
    out.push(CoalesceOut {
        site,
        dest,
        target,
        batch,
        instances: 0,
        buf: Vec::new(),
        horizon: Time::ZERO,
    });
    out.last_mut().expect("just pushed")
}

/// Peel the next piece for (site, src) out of the receive-side buffer.
/// `None` means the buffered packed message (if any) is exhausted and a new
/// one must be received.
fn coalesce_next_piece(ov: &mut OverlayState, site: u32, src: usize) -> Option<(Vec<u8>, Time)> {
    let entry = ov
        .inbox
        .iter_mut()
        .find(|e| e.site == site && e.src == src)?;
    let mut pos = entry.pos;
    let piece = mpisim::pack::peel_piece(&entry.payload, &mut pos)?.to_vec();
    entry.pos = pos;
    Some((piece, entry.completion))
}

/// Replace (or create) the receive-side buffer for (site, src).
fn coalesce_store_inbox(
    ov: &mut OverlayState,
    site: u32,
    src: usize,
    payload: bytes::Bytes,
    completion: Time,
) {
    let fresh = CoalesceIn {
        site,
        src,
        payload,
        pos: 0,
        completion,
    };
    match ov.inbox.iter_mut().find(|e| e.site == site && e.src == src) {
        Some(e) => *e = fresh,
        None => ov.inbox.push(fresh),
    }
}

/// Flush coalesced accumulators into `pending` as packed sends. `which` of
/// `None` flushes everything — the region-end rule, a dependence-forced
/// sync, or a receiver about to physically block (so a rank can never wait
/// on a peer whose pieces it is itself still holding); `Some((site, dest))`
/// flushes one full batch. Every flush point is a pure function of the
/// per-rank instance schedule, never of engine interleaving, which is what
/// keeps coalesced runs bit-identical across execution engines.
fn flush_coalesced(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    which: Option<(u32, usize)>,
) {
    let Some(ov) = session.overlay.as_deref_mut() else {
        return;
    };
    let mut work: Vec<(u32, usize, Target, Vec<u8>, Time)> = Vec::new();
    for acc in ov.out.iter_mut() {
        if acc.buf.is_empty() {
            continue;
        }
        if let Some((s, d)) = which {
            if acc.site != s || acc.dest != d {
                continue;
            }
        }
        acc.instances = 0;
        work.push((
            acc.site,
            acc.dest,
            acc.target,
            std::mem::take(&mut acc.buf),
            std::mem::replace(&mut acc.horizon, Time::ZERO),
        ));
    }
    for (site, dest, target, payload, horizon) in work {
        // The packed message departs no earlier than its newest piece's
        // data (the same causality fence the per-instance path applies).
        session.ctx.advance_to(horizon);
        match target {
            Target::Mpi2Side => {
                let tag = COAL_TAG_BASE + site as i32;
                let req =
                    session
                        .comm
                        .isend_packed(session.ctx, dest, tag, bytes::Bytes::from(payload));
                pending.send_reqs.push(req);
            }
            Target::Shmem => {
                let model = session.ctx.machine().shmem;
                let (seg, slot_base) = {
                    let ov = session.overlay.as_deref_mut().expect("checked above");
                    let st = ov
                        .shmem_staging
                        .iter_mut()
                        .find(|(s, _)| *s == site)
                        .map(|(_, st)| st)
                        .expect("staging created at first coalesced execution");
                    let k = st.send_flushes.entry(dest).or_insert(0);
                    let slot = (*k % st.slots as u64) as usize;
                    *k += 1;
                    (st.seg, slot * st.slot_bytes)
                };
                let mut wire = Vec::with_capacity(4 + payload.len());
                wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                wire.extend_from_slice(&payload);
                let global_dest = session.comm.global(dest);
                // Pack charge + one signalled putmem of the whole batch
                // (shmemsim's `put_packed`, inlined over the raw context
                // because the engine talks to `netsim` directly).
                session.ctx.charge_pack(wire.len(), &model);
                let arrival = session
                    .ctx
                    .put(seg, global_dest, slot_base, &wire, &model, true);
                pending.put_arrivals_shmem.push(arrival);
                pending.used_shmem = true;
                session.ctx.take_outstanding_puts();
            }
            Target::Mpi1Side => unreachable!("coalescing never targets MPI one-sided"),
        }
    }
}

/// Coalesced two-sided lowering: each instance's payload is gathered and
/// length-framed into a per-(site, destination) batch; one packed Isend
/// per flush replaces `batch` per-piece sends, and the receiver peels
/// pieces back out of one packed Irecv — fewer software overheads on both
/// sides and a smaller consolidated Waitall.
#[allow(clippy::too_many_arguments)]
fn exec_mpi2_coalesced(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    site: u32,
    sbufs: &BufList<SendSlot<'_>>,
    rbufs: &mut BufList<RecvSlot<'_>>,
    count: usize,
    dest: Option<usize>,
    src: Option<usize>,
    batch: usize,
) -> Result<(), DirectiveError> {
    if let Some(dest) = dest {
        let mpi = session.ctx.machine().mpi;
        let mut framed = Vec::new();
        let mut horizon = Time::ZERO;
        for sb in sbufs.iter() {
            let meta = sb.meta();
            let n = count.min(meta.len);
            if let Some(h) = session.buf_data_horizon(sb.sub_ranges(), meta.addr) {
                horizon = horizon.max(h);
            }
            let mut piece = Vec::with_capacity(n * meta.elem.packed_size());
            sb.gather(n, &mut piece);
            if !matches!(meta.elem, ElemKind::Prim(_)) {
                let dt = meta.elem.to_datatype();
                session.dtype_cache.ensure_committed(session.ctx, &dt, &mpi);
                session
                    .ctx
                    .charge(mpi.byte_cost(mpi.datatype_per_byte, piece.len()));
            }
            mpisim::pack::frame_piece(&mut framed, &piece);
        }
        let full = {
            let ov = session
                .overlay
                .as_deref_mut()
                .expect("coalescing implies an installed overlay");
            let acc = coalesce_out(&mut ov.out, site, dest, Target::Mpi2Side, batch);
            acc.buf.append(&mut framed);
            acc.horizon = acc.horizon.max(horizon);
            acc.instances += 1;
            acc.instances >= acc.batch
        };
        if full {
            flush_coalesced(session, pending, Some((site, dest)));
        }
    }
    if let Some(src) = src {
        let mpi = session.ctx.machine().mpi;
        for rb in rbufs.iter_mut() {
            let meta = rb.meta();
            let n = count.min(meta.len);
            let ov = session.overlay.as_deref_mut().expect("overlay installed");
            let piece = match coalesce_next_piece(ov, site, src) {
                Some(p) => p,
                None => {
                    // About to physically block for the next packed
                    // message: flush our own batches first, so a rank
                    // never waits on a peer while holding pieces that
                    // peer (or a cycle through it) needs.
                    flush_coalesced(session, pending, None);
                    let tag = COAL_TAG_BASE + site as i32;
                    let req = session.comm.irecv(session.ctx, Some(src), Some(tag));
                    let done = req.wait_raw();
                    session.ctx.note_recv_completion(&req, &done);
                    // One deferred completion per packed message — the
                    // receiver's share of the Waitall shrinks with the
                    // batch factor.
                    pending.recv_completions.push(done.completion);
                    let ov = session.overlay.as_deref_mut().expect("overlay installed");
                    coalesce_store_inbox(ov, site, src, done.payload, done.completion);
                    coalesce_next_piece(ov, site, src)
                        .expect("freshly received packed message has a piece")
                }
            };
            let (piece, completion) = piece;
            if !matches!(meta.elem, ElemKind::Prim(_)) {
                let dt = meta.elem.to_datatype();
                session.dtype_cache.ensure_committed(session.ctx, &dt, &mpi);
                session
                    .ctx
                    .charge(mpi.byte_cost(mpi.datatype_per_byte, piece.len()));
            }
            // MPI_Unpack out of the packed wire buffer into the user buffer.
            session.ctx.charge_pack(piece.len(), &mpi);
            rb.scatter(n, &piece);
            session.push_recv_horizon(rb.sub_ranges(), meta.addr, completion);
        }
    }
    Ok(())
}

/// Coalesced SHMEM lowering: framed batches land in a dedicated symmetric
/// staging slot via one signalled `shmem_putmem` per flush; the receiver
/// waits one signal per flush and peels pieces locally.
#[allow(clippy::too_many_arguments)]
fn exec_shmem_coalesced(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    site: u32,
    sbufs: &BufList<SendSlot<'_>>,
    rbufs: &mut BufList<RecvSlot<'_>>,
    count: usize,
    dest: Option<usize>,
    src: Option<usize>,
    batch: usize,
    max_iter: Option<i64>,
) -> Result<(), DirectiveError> {
    let model = session.ctx.machine().shmem;
    pending.used_shmem = true;

    // Lazily create the per-site coalesce staging (collective: every rank
    // of the communicator executes the directive, participant or not). One
    // slot holds one packed flush; `max_comm_iter` bounds flushes per
    // region, so slots never wrap within a region.
    let have_staging = session
        .overlay
        .as_deref()
        .map(|ov| ov.shmem_staging.iter().any(|(s, _)| *s == site))
        .unwrap_or(false);
    if !have_staging {
        let per_instance: usize = sbufs
            .iter()
            .map(|b| 4 + count * b.meta().elem.packed_size())
            .sum();
        let slot_bytes = (4 + batch * per_instance).max(8);
        let slots = max_iter.map(|m| m.max(1) as usize).unwrap_or(1);
        let group = session.comm.sorted_globals();
        let seg = session
            .ctx
            .sym_alloc_windowed(&group, slot_bytes * slots, slots as u64, &model);
        session
            .overlay
            .as_deref_mut()
            .expect("coalescing implies an installed overlay")
            .shmem_staging
            .push((
                site,
                CoalStaging {
                    seg,
                    slot_bytes,
                    slots,
                    send_flushes: HashMap::new(),
                    recv_flushes: 0,
                },
            ));
    }

    if let Some(dest) = dest {
        let mut framed = Vec::new();
        let mut horizon = Time::ZERO;
        for sb in sbufs.iter() {
            let meta = sb.meta();
            let n = count.min(meta.len);
            if let Some(h) = session.buf_data_horizon(sb.sub_ranges(), meta.addr) {
                horizon = horizon.max(h);
            }
            let mut piece = Vec::with_capacity(n * meta.elem.packed_size());
            sb.gather(n, &mut piece);
            if !matches!(meta.elem, ElemKind::Prim(_)) {
                // SHMEM has no datatype engine: composites are packed by
                // generated code (the frame copy below is charged at pack
                // rate already, so only note nothing extra here).
                session
                    .ctx
                    .charge(model.byte_cost(model.pack_per_byte, piece.len()));
            }
            mpisim::pack::frame_piece(&mut framed, &piece);
        }
        let (full, overflow) = {
            let ov = session
                .overlay
                .as_deref_mut()
                .expect("coalescing implies an installed overlay");
            let slot_bytes = ov
                .shmem_staging
                .iter()
                .find(|(s, _)| *s == site)
                .map(|(_, st)| st.slot_bytes)
                .expect("staging created above");
            let acc = coalesce_out(&mut ov.out, site, dest, Target::Shmem, batch);
            let need = 4 + acc.buf.len() + framed.len();
            if need > slot_bytes {
                (false, Some((need, slot_bytes)))
            } else {
                acc.buf.append(&mut framed);
                acc.horizon = acc.horizon.max(horizon);
                acc.instances += 1;
                (acc.instances >= acc.batch, None)
            }
        };
        if let Some((need, have)) = overflow {
            return Err(DirectiveError::StagingOverflow { site, need, have });
        }
        if full {
            flush_coalesced(session, pending, Some((site, dest)));
        }
    }

    if let Some(src) = src {
        for rb in rbufs.iter_mut() {
            let meta = rb.meta();
            let n = count.min(meta.len);
            let ov = session.overlay.as_deref_mut().expect("overlay installed");
            let piece = match coalesce_next_piece(ov, site, src) {
                Some(p) => p,
                None => {
                    // Flush-before-wait (see the two-sided path).
                    flush_coalesced(session, pending, None);
                    let (seg, slot_base, expect) = {
                        let ov = session.overlay.as_deref_mut().expect("overlay installed");
                        let st = ov
                            .shmem_staging
                            .iter_mut()
                            .find(|(s, _)| *s == site)
                            .map(|(_, st)| st)
                            .expect("staging created above");
                        let slot = (st.recv_flushes % st.slots as u64) as usize;
                        st.recv_flushes += 1;
                        (st.seg, slot * st.slot_bytes, st.recv_flushes)
                    };
                    let arrival = session.ctx.wait_signals_raw(seg, expect as usize);
                    let mut hdr = [0u8; 4];
                    session.ctx.read_local(seg, slot_base, &mut hdr);
                    let total = u32::from_le_bytes(hdr) as usize;
                    let mut payload = vec![0u8; total];
                    session.ctx.read_local(seg, slot_base + 4, &mut payload);
                    // Bounce the whole flush out of the symmetric slot at
                    // memcpy rate and free it for flow-controlled senders.
                    session.ctx.charge_memcpy(total, &model);
                    session.ctx.mark_consumed(seg, 1);
                    pending.recv_arrivals_shmem.push(arrival);
                    let ov = session.overlay.as_deref_mut().expect("overlay installed");
                    coalesce_store_inbox(ov, site, src, bytes::Bytes::from(payload), arrival);
                    coalesce_next_piece(ov, site, src)
                        .expect("freshly received packed flush has a piece")
                }
            };
            let (piece, completion) = piece;
            rb.scatter(n, &piece);
            session.push_recv_horizon(rb.sub_ranges(), meta.addr, completion);
        }
    }
    Ok(())
}

/// One-sided lowering (MPI_Put or shmem_put): symmetric staging slots sized
/// by `max_comm_iter`, signalled deliveries, sync deferred to the region
/// fence/barrier.
#[allow(clippy::too_many_arguments)]
fn exec_onesided(
    session: &mut CommSession<'_>,
    pending: &mut PendingSync,
    site: u32,
    sbufs: &BufList<SendSlot<'_>>,
    rbufs: &mut BufList<RecvSlot<'_>>,
    count: usize,
    dest: Option<usize>,
    src: Option<usize>,
    target: Target,
    max_iter: Option<i64>,
) -> Result<(), DirectiveError> {
    let model = match target {
        Target::Mpi1Side => session.ctx.machine().mpi,
        _ => session.ctx.machine().shmem,
    };
    match target {
        Target::Mpi1Side => pending.used_mpi1 = true,
        Target::Shmem => pending.used_shmem = true,
        Target::Mpi2Side => unreachable!(),
    }

    // Lazily create the per-site staging segment (collective: every rank of
    // the communicator executes the directive, participant or not).
    if session.staging_mut(site).is_none() {
        let metas: Vec<BufMeta> = sbufs.iter().map(|b| b.meta()).collect();
        let mut buf_offsets = Vec::with_capacity(metas.len());
        let mut off = 0usize;
        for m in &metas {
            buf_offsets.push(off);
            // Sized by the SPMD-uniform count, NOT the local buffer length:
            // non-participating ranks may pass empty placeholder buffers,
            // but the collective symmetric allocation must agree everywhere.
            off += count * m.elem.packed_size();
        }
        let slot_bytes = off.max(1);
        let slots = max_iter.map(|m| m.max(1) as usize).unwrap_or(1);
        let group = session.comm.sorted_globals();
        // Windowed staging: a sender physically blocks (no virtual charge)
        // rather than overwrite a slot the receiver has not drained —
        // `max_comm_iter` sizes the in-flight window, as the paper intends
        // ("facilitate code generation for synchronizations").
        let window = (slots * sbufs.len().max(1)) as u64;
        let seg = session
            .ctx
            .sym_alloc_windowed(&group, slot_bytes * slots, window, &model);
        session.staging.push((
            site,
            StagingSite {
                seg,
                buf_offsets,
                slot_bytes,
                slots,
                send_counts: HashMap::new(),
                recv_count: 0,
            },
        ));
    }

    // Sender: put each buffer's packed payload into the destination's slot.
    if let Some(dest) = dest {
        let global_dest = session.comm.global(dest);
        let (seg, slot_base, slot_bytes) = {
            let st = session.staging_mut(site).expect("staging created");
            let k = st.send_counts.entry(dest).or_insert(0);
            let slot = (*k % st.slots as u64) as usize;
            *k += 1;
            (st.seg, slot * st.slot_bytes, st.slot_bytes)
        };
        let mut payload = Vec::new();
        let mut used = 0usize;
        for (i, sb) in sbufs.iter().enumerate() {
            let meta = sb.meta();
            let n = count.min(meta.len);
            // Data-dependency fence (see the two-sided path).
            if let Some(h) = session.buf_data_horizon(sb.sub_ranges(), meta.addr) {
                session.ctx.advance_to(h);
            }
            payload.clear();
            sb.gather(n, &mut payload);
            used += payload.len();
            if used > slot_bytes {
                return Err(DirectiveError::StagingOverflow {
                    site,
                    need: used,
                    have: slot_bytes,
                });
            }
            match session.lowering.resolve(&meta.elem, count, target, &model) {
                // Zero-copy put straight out of the user buffer. A split
                // of n constituents (per-array or strided typed puts in
                // the generated code) pays its (n-1) extra put overheads;
                // the payload bytes move copy-free either way.
                Lowering::Direct => {}
                Lowering::Split { n: parts } => {
                    session.ctx.charge(Time::from_nanos(
                        parts.saturating_sub(1) as u64 * model.o_put,
                    ));
                }
                // MPI_Put through a derived datatype: the library's gather
                // engine walks the layout (never reached on SHMEM, which
                // has no datatype engine — the policy degrades to Pack).
                Lowering::Datatype => session
                    .ctx
                    .charge(model.byte_cost(model.datatype_per_byte, payload.len())),
                // Generated code packs into a contiguous bounce buffer
                // before the put; the receiver's staging drain below is the
                // unpack under every strategy, so only the sender side
                // pays here.
                Lowering::Pack => session.ctx.charge_pack(payload.len(), &model),
            }
            let offset = session
                .staging_mut(site)
                .expect("staging created")
                .buf_offsets[i];
            let arrival =
                session
                    .ctx
                    .put(seg, global_dest, slot_base + offset, &payload, &model, true);
            match target {
                Target::Mpi1Side => pending.put_arrivals_mpi.push(arrival),
                _ => pending.put_arrivals_shmem.push(arrival),
            }
        }
        // The engine tracks arrivals itself; drain the ctx list so a later
        // unrelated `quiet` doesn't double-count.
        session.ctx.take_outstanding_puts();
    }

    // Receiver: wait (physically) for this execution's deliveries, copy the
    // staged bytes into the user buffers, record the arrival horizon.
    if src.is_some() {
        let (seg, slot_base, expect_base) = {
            let st = session.staging_mut(site).expect("staging created");
            let slot = (st.recv_count % st.slots as u64) as usize;
            let expect_base = st.recv_count * sbufs.len() as u64;
            st.recv_count += 1;
            (st.seg, slot * st.slot_bytes, expect_base)
        };
        for (i, rb) in rbufs.iter_mut().enumerate() {
            let meta = rb.meta();
            let n = count.min(meta.len);
            let bytes = n * meta.elem.packed_size();
            let arrival = session
                .ctx
                .wait_signals_raw(seg, (expect_base + i as u64 + 1) as usize);
            let offset = session
                .staging_mut(site)
                .and_then(|st| st.buf_offsets.get(i).copied())
                .unwrap_or(0);
            let mut staged = vec![0u8; bytes];
            session.ctx.read_local(seg, slot_base + offset, &mut staged);
            rb.scatter(n, &staged);
            // Bounce copy out of the symmetric staging buffer; the slot is
            // now reusable by flow-controlled senders.
            session.ctx.charge_memcpy(bytes, &model);
            session.ctx.mark_consumed(seg, 1);
            session.push_recv_horizon(rb.sub_ranges(), meta.addr, arrival);
            match target {
                Target::Mpi1Side => pending.recv_arrivals_mpi.push(arrival),
                _ => pending.recv_arrivals_shmem.push(arrival),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Prim, PrimMut};
    use crate::overlay::SiteDecision;
    use netsim::{run, RankCtx, SimConfig};

    fn ring_params(n: usize) -> CommParams {
        let _ = n;
        CommParams::new()
            .sender((RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks())
            .receiver((RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks())
    }

    fn run_ring(target: Target, n: usize) -> Vec<i64> {
        let res = run(SimConfig::new(n), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let me = session.rank() as i64;
            let src = [me; 4];
            let mut dst = [0i64; 4];
            let params = ring_params(n).target(target);
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            session.flush();
            dst[0]
        });
        res.per_rank
    }

    #[test]
    fn ring_all_targets_deliver() {
        for target in Target::ALL {
            let n = 6;
            let got = run_ring(target, n);
            for (r, &v) in got.iter().enumerate() {
                assert_eq!(
                    v as usize,
                    (r + n - 1) % n,
                    "target {target}: rank {r} got {v}"
                );
            }
        }
    }

    #[test]
    fn count_inference_uses_smallest_buffer() {
        run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let src = [7.0f64; 10];
            let mut dst = [0.0f64; 3]; // smallest => count 3
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)));
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            if session.rank() == 1 {
                assert_eq!(dst, [7.0; 3]);
            }
        });
    }

    #[test]
    fn even_odd_grouping() {
        // Listing 2: even ranks send to rank+1; odd ranks receive.
        let n = 8;
        let res = run(SimConfig::new(n), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let me = session.rank() as i64;
            let src = [me * 100];
            let mut dst = [-1i64];
            let params = CommParams::new()
                .sender(RankExpr::rank() - RankExpr::lit(1))
                .receiver(RankExpr::rank() + RankExpr::lit(1))
                .sendwhen((RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(0)))
                .receivewhen((RankExpr::rank() % RankExpr::lit(2)).eq(RankExpr::lit(1)));
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            dst[0]
        });
        for (r, &v) in res.per_rank.iter().enumerate() {
            if r % 2 == 1 {
                assert_eq!(v, (r as i64 - 1) * 100);
            } else {
                assert_eq!(v, -1);
            }
        }
    }

    #[test]
    fn consolidated_sync_beats_per_message_wait() {
        // Three adjacent p2ps with independent buffers must produce exactly
        // one consolidated waitall charge on each participating rank.
        let res = run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let a = [1.0f64; 8];
            let b = [2.0f64; 8];
            let c = [3.0f64; 8];
            let (mut ra, mut rb, mut rc) = ([0.0f64; 8], [0.0f64; 8], [0.0f64; 8]);
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)));
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .site(1)
                        .sbuf(Prim::new("a", &a))
                        .rbuf(PrimMut::new("ra", &mut ra))
                        .run()
                        .unwrap();
                    reg.p2p()
                        .site(2)
                        .sbuf(Prim::new("b", &b))
                        .rbuf(PrimMut::new("rb", &mut rb))
                        .run()
                        .unwrap();
                    reg.p2p()
                        .site(3)
                        .sbuf(Prim::new("c", &c))
                        .rbuf(PrimMut::new("rc", &mut rc))
                        .run()
                        .unwrap();
                })
                .unwrap();
            if session.rank() == 1 {
                assert_eq!(ra, [1.0; 8]);
                assert_eq!(rb, [2.0; 8]);
                assert_eq!(rc, [3.0; 8]);
            }
            ctx.stats.waitalls
        });
        assert_eq!(res.per_rank, vec![1, 1], "one consolidated sync per rank");
    }

    #[test]
    fn max_comm_iter_enforced() {
        run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let src = [1i32];
            let mut dst = [0i32];
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
                .max_comm_iter(2);
            let err = session.region(&params, |reg| {
                for i in 0..3 {
                    let r = reg
                        .p2p()
                        .site(9)
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run();
                    if i < 2 {
                        assert!(r.is_ok(), "iteration {i} should pass");
                    } else {
                        assert!(matches!(
                            r,
                            Err(DirectiveError::MaxIterExceeded { bound: 2, .. })
                        ));
                    }
                }
            });
            assert!(err.is_err(), "region must surface the iteration overflow");
        });
    }

    #[test]
    fn deferred_sync_to_next_region() {
        let res = run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let src = [5i64; 4];
            let mut dst = [0i64; 4];
            let params1 = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
                .place_sync(PlaceSync::BeginNextParamRegion);
            session
                .region(&params1, |reg| {
                    reg.p2p()
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            let w1 = session.ctx().stats.waitalls;
            // Second region: carried sync applies at its beginning.
            let params2 = CommParams::new()
                .sender(RankExpr::lit(1))
                .receiver(RankExpr::lit(0));
            let src2 = [1i64];
            let mut dst2 = [0i64];
            session
                .region(&params2, |reg| {
                    reg.p2p()
                        .site(2)
                        .sendwhen(RankExpr::rank().eq(RankExpr::lit(1)))
                        .receivewhen(RankExpr::rank().eq(RankExpr::lit(0)))
                        .sbuf(Prim::new("src2", &src2))
                        .rbuf(PrimMut::new("dst2", &mut dst2))
                        .run()
                        .unwrap();
                })
                .unwrap();
            session.flush();
            (w1, ctx.stats.waitalls)
        });
        // No sync inside/after region 1; both syncs complete by the end.
        for (w1, w2) in res.per_rank {
            assert_eq!(w1, 0, "region 1 sync was deferred");
            assert!(w2 >= 1);
        }
    }

    #[test]
    fn standalone_p2p_syncs_immediately() {
        let res = run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let me = session.rank() as i64;
            let src = [me + 10];
            let mut dst = [0i64];
            session
                .p2p()
                .sender(
                    (RankExpr::rank() - RankExpr::lit(1) + RankExpr::nranks()) % RankExpr::nranks(),
                )
                .receiver((RankExpr::rank() + RankExpr::lit(1)) % RankExpr::nranks())
                .sbuf(Prim::new("src", &src))
                .rbuf(PrimMut::new("dst", &mut dst))
                .run()
                .unwrap();
            (dst[0], ctx.stats.waitalls)
        });
        assert_eq!(res.per_rank[0].0, 11); // rank 0 got rank 1's value
        assert_eq!(res.per_rank[1].0, 10);
        assert!(res.per_rank.iter().all(|&(_, w)| w == 1));
    }

    #[test]
    fn invalid_clauses_rejected_at_execution() {
        run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let src = [0u8; 4];
            let mut dst = [0u8; 4];
            // Missing receiver clause.
            let r = session
                .p2p()
                .sender(RankExpr::lit(0))
                .sbuf(Prim::new("s", &src))
                .rbuf(PrimMut::new("r", &mut dst))
                .run();
            assert!(matches!(r, Err(DirectiveError::Invalid(_))));
        });
    }

    #[test]
    fn rank_out_of_range_detected() {
        run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let src = [0u8; 4];
            let mut dst = [0u8; 4];
            let r = session
                .p2p()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(7)) // no rank 7 of 2
                .sbuf(Prim::new("s", &src))
                .rbuf(PrimMut::new("r", &mut dst))
                .run();
            assert!(matches!(
                r,
                Err(DirectiveError::RankOutOfRange {
                    clause: "receiver",
                    value: 7,
                    ..
                })
            ));
        });
    }

    #[test]
    fn overlap_advances_clock_concurrently() {
        // The overlapped computation must not delay the recorded message
        // completion: total time ≈ max(comm, compute) + sync, not sum.
        let compute = Time::from_micros(300);
        let run_one = |with_overlap: bool| {
            let res = run(SimConfig::new(2), move |ctx| {
                let comm = Comm::world(ctx);
                let mut session = CommSession::new(ctx, comm);
                let src = [1.0f64; 512];
                let mut dst = [0.0f64; 512];
                let params = CommParams::new()
                    .sender(RankExpr::lit(0))
                    .receiver(RankExpr::lit(1))
                    .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                    .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)));
                session
                    .region(&params, |reg| {
                        let call = reg
                            .p2p()
                            .sbuf(Prim::new("src", &src))
                            .rbuf(PrimMut::new("dst", &mut dst));
                        if with_overlap {
                            call.overlap(|ctx| ctx.compute(compute)).unwrap();
                        } else {
                            call.run().unwrap();
                        }
                    })
                    .unwrap();
                if !with_overlap {
                    // Sequential version: compute after the region sync.
                    ctx.compute(compute);
                }
                ctx.now()
            });
            res.final_times[1]
        };
        let overlapped = run_one(true);
        let sequential = run_one(false);
        assert!(
            overlapped < sequential,
            "overlap ({overlapped}) must beat sequential ({sequential})"
        );
    }

    #[test]
    fn shmem_loop_reuses_staging_with_max_iter_slots() {
        // A loop of puts within one region: distinct slots prevent
        // overwrite before the receiver drains them.
        let iters = 4usize;
        let res = run(SimConfig::new(2), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let mut got = Vec::new();
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
                .target(Target::Shmem)
                .max_comm_iter(iters as i64);
            session
                .region(&params, |reg| {
                    for i in 0..iters {
                        let src = [i as i64; 2];
                        let mut dst = [0i64; 2];
                        reg.p2p()
                            .site(5)
                            .sbuf(Prim::new("src", &src))
                            .rbuf(PrimMut::new("dst", &mut dst))
                            .run()
                            .unwrap();
                        got.push(dst[0]);
                    }
                })
                .unwrap();
            session.flush();
            got
        });
        assert_eq!(res.per_rank[1], vec![0, 1, 2, 3]);
        assert!(res.per_rank[0].iter().all(|&v| v == 0));
    }

    /// Run an `iters`-deep pairwise loop (rank 0 → rank 1, `count` i64s per
    /// instance) under an optional overlay; returns (received values,
    /// sends, recvs, packed_bytes, final time of rank 1).
    fn run_pair_loop(
        target: Target,
        iters: usize,
        overlay: Option<Overlay>,
    ) -> (Vec<i64>, usize, usize, usize, Time) {
        let res = run(SimConfig::new(2), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            if let Some(ov) = overlay.clone() {
                session = session.with_overlay(ov);
            }
            let mut got = Vec::new();
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
                .target(target)
                .max_comm_iter(iters as i64);
            session
                .region(&params, |reg| {
                    for i in 0..iters {
                        let src = [i as i64 * 3, i as i64 * 3 + 1];
                        let mut dst = [0i64; 2];
                        reg.p2p()
                            .site(9)
                            .sbuf(Prim::new("src", &src))
                            .rbuf(PrimMut::new("dst", &mut dst))
                            .run()
                            .unwrap();
                        got.extend_from_slice(&dst);
                    }
                })
                .unwrap();
            session.flush();
            (
                got,
                ctx.stats.sends,
                ctx.stats.recvs,
                ctx.stats.packed_bytes,
                ctx.now(),
            )
        });
        res.per_rank.into_iter().nth(1).unwrap()
    }

    fn coalesce_overlay(batch: usize) -> Overlay {
        let mut ov = Overlay::default();
        ov.set(SiteDecision::new(9, Decision::Coalesce { batch }));
        ov
    }

    #[test]
    fn coalesced_mpi2_delivers_and_batches() {
        let iters = 8;
        let (base_vals, _, base_recvs, base_packed, base_t) =
            run_pair_loop(Target::Mpi2Side, iters, None);
        let (vals, _, recvs, packed, t) =
            run_pair_loop(Target::Mpi2Side, iters, Some(coalesce_overlay(4)));
        assert_eq!(vals, base_vals, "coalescing must not change payloads");
        assert_eq!(base_recvs, iters);
        assert_eq!(recvs, iters / 4, "one packed receive per full batch");
        assert_eq!(base_packed, 0, "uncoalesced small sends never pack");
        assert!(packed > 0, "coalesced path must count packed bytes");
        assert!(
            t < base_t,
            "batching 4x must beat per-instance sends ({t} vs {base_t})"
        );
    }

    #[test]
    fn coalesced_partial_batch_flushes_at_region_end() {
        // 5 instances at batch 4: one full flush mid-region, the 5th
        // piece rides the deterministic region-end flush.
        let (base_vals, ..) = run_pair_loop(Target::Mpi2Side, 5, None);
        let (vals, _, recvs, _, _) = run_pair_loop(Target::Mpi2Side, 5, Some(coalesce_overlay(4)));
        assert_eq!(vals, base_vals);
        assert_eq!(recvs, 2, "full batch + region-end remainder");
    }

    #[test]
    fn coalesced_shmem_delivers_and_batches() {
        let iters = 8;
        let (base_vals, ..) = run_pair_loop(Target::Shmem, iters, None);
        let (vals, ..) = run_pair_loop(Target::Shmem, iters, Some(coalesce_overlay(4)));
        assert_eq!(vals, base_vals, "shmem coalescing must not change payloads");
        let res = run(SimConfig::new(2), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).with_overlay(coalesce_overlay(4));
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
                .target(Target::Shmem)
                .max_comm_iter(iters as i64);
            session
                .region(&params, |reg| {
                    for i in 0..iters {
                        let src = [i as i64, i as i64];
                        let mut dst = [0i64; 2];
                        reg.p2p()
                            .site(9)
                            .sbuf(Prim::new("src", &src))
                            .rbuf(PrimMut::new("dst", &mut dst))
                            .run()
                            .unwrap();
                    }
                })
                .unwrap();
            session.flush();
            ctx.stats.puts
        });
        assert_eq!(res.per_rank[0], 2, "one signalled put per full batch");
    }

    #[test]
    fn keep_overlay_is_behaviorally_inert() {
        let base = run_pair_loop(Target::Mpi2Side, 6, None);
        let mut ov = Overlay::default();
        ov.set(SiteDecision::new(9, Decision::Keep));
        ov.set(SiteDecision::new(12, Decision::Coalesce { batch: 1 }));
        let kept = run_pair_loop(Target::Mpi2Side, 6, Some(ov));
        assert_eq!(base, kept, "all-keep overlay must be bit-identical");
    }

    #[test]
    fn overlay_retarget_switches_mechanism() {
        let mut ov = Overlay::default();
        ov.set(SiteDecision::new(9, Decision::Retarget(Target::Shmem)));
        let res = run(SimConfig::new(2), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).with_overlay(ov.clone());
            let src = [41i64, 42];
            let mut dst = [0i64; 2];
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
                .max_comm_iter(1);
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .site(9)
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            session.flush();
            (dst, ctx.stats.sends, ctx.stats.puts)
        });
        let (dst1, sends1, _) = res.per_rank[1];
        let (_, _, puts0) = res.per_rank[0];
        assert_eq!(dst1, [41, 42]);
        assert_eq!(sends1, 0, "retargeted site must not use two-sided sends");
        assert_eq!(puts0, 1, "retargeted site delivers via a put");
    }

    #[test]
    fn overlay_place_sync_defers_region_sync() {
        let mut ov = Overlay::default();
        ov.set(SiteDecision::new(
            9,
            Decision::PlaceSync(PlaceSync::BeginNextParamRegion),
        ));
        let res = run(SimConfig::new(2), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).with_overlay(ov.clone());
            let src = [1i64; 2];
            let mut dst = [0i64; 2];
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)));
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .site(9)
                        .sbuf(Prim::new("src", &src))
                        .rbuf(PrimMut::new("dst", &mut dst))
                        .run()
                        .unwrap();
                })
                .unwrap();
            let deferred = session.ctx().stats.waitalls;
            session.flush();
            (deferred, ctx.stats.waitalls)
        });
        for (w1, w2) in res.per_rank {
            assert_eq!(w1, 0, "overlay deferred the region-end sync");
            assert!(w2 >= 1, "flush applies the carried sync");
        }
    }

    #[test]
    fn coalesced_bidirectional_exchange_does_not_deadlock() {
        // Both ranks send AND receive at the coalesced site: the
        // flush-before-wait rule must prevent each rank blocking on the
        // other's unflushed batch.
        let iters = 4usize;
        let res = run(SimConfig::new(2), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).with_overlay(coalesce_overlay(8));
            let me = session.rank() as i64;
            let mut got = Vec::new();
            let params = CommParams::new()
                .sender(RankExpr::lit(1) - RankExpr::rank())
                .receiver(RankExpr::lit(1) - RankExpr::rank())
                .target(Target::Mpi2Side)
                .max_comm_iter(iters as i64);
            session
                .region(&params, |reg| {
                    for i in 0..iters {
                        let src = [me * 100 + i as i64];
                        let mut dst = [0i64];
                        reg.p2p()
                            .site(9)
                            .sbuf(Prim::new("src", &src))
                            .rbuf(PrimMut::new("dst", &mut dst))
                            .run()
                            .unwrap();
                        got.push(dst[0]);
                    }
                })
                .unwrap();
            session.flush();
            got
        });
        // Batch 8 > iters, so nothing flushes until a receiver is about to
        // block — which forces its own accumulator out first.
        assert_eq!(res.per_rank[0], vec![100, 101, 102, 103]);
        assert_eq!(res.per_rank[1], vec![0, 1, 2, 3]);
    }

    #[test]
    fn ir_recorded_for_analysis() {
        run(SimConfig::new(2), |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm);
            let src = [1i32; 3];
            let mut dst = [0i32; 3];
            let params = CommParams::new()
                .sender(RankExpr::lit(0))
                .receiver(RankExpr::lit(1))
                .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)));
            session
                .region(&params, |reg| {
                    for _ in 0..3 {
                        let s = [0i32; 3];
                        let mut d = [0i32; 3];
                        let _ = (&src, &dst);
                        reg.p2p()
                            .site(1)
                            .sbuf(Prim::new("s", &s))
                            .rbuf(PrimMut::new("d", &mut d))
                            .run()
                            .unwrap();
                    }
                })
                .unwrap();
            let _ = (&mut dst, &src);
            let program = session.finish();
            assert_eq!(program.len(), 1);
            // Loop iterations collapse to one recorded site.
            assert_eq!(program[0].body.len(), 1);
            assert_eq!(program[0].body[0].site, 1);
        });
    }

    // -- non-participant fast path ------------------------------------------
    //
    // Listing-7 shape on 3 ranks: rank 0 sends `n` i64s to rank 1 at site
    // 21 on every instance; rank 2 runs every instance and never
    // participates, so from its second instance on it takes the fast path.
    // Every instance receives into its own slice of `dst`, so no buffer
    // dependence forces a split sync (under MPI one-sided a split is a
    // fence that only the receiver would enter).

    const FAST_SITE: u32 = 21;

    fn fast_path_engines() -> [netsim::ExecPolicy; 2] {
        [
            netsim::ExecPolicy::default(),
            netsim::ExecPolicy::bounded(1),
        ]
    }

    fn listing7_params(target: Target, bound: i64) -> CommParams {
        CommParams::new()
            .sender(RankExpr::var("src"))
            .receiver(RankExpr::var("dst"))
            .sendwhen(RankExpr::rank().eq(RankExpr::var("src")))
            .receivewhen(RankExpr::rank().eq(RankExpr::var("dst")))
            .count(RankExpr::var("n"))
            .max_comm_iter(bound)
            .target(target)
    }

    fn listing7_session<'a>(ctx: &'a mut RankCtx) -> CommSession<'a> {
        let comm = Comm::world(ctx);
        let mut session = CommSession::new(ctx, comm);
        session.set_var("src", 0);
        session.set_var("dst", 1);
        session.set_var("n", 2);
        session
    }

    /// Run `iters` instances with `count` `n_at(i)`, stopping at the first
    /// error; returns the index and error of that instance, if any.
    fn listing7_loop(
        reg: &mut Region<'_, '_>,
        iters: usize,
        n_at: impl Fn(usize) -> i64,
    ) -> Option<(usize, DirectiveError)> {
        let src = [7i64; 2];
        let mut dst = vec![0i64; 2 * iters];
        for (i, d) in dst.chunks_mut(2).enumerate() {
            reg.set_var("n", n_at(i));
            let r = reg
                .p2p()
                .site(FAST_SITE)
                .sbuf(Prim::new("src", &src))
                .rbuf(PrimMut::new("dst", d))
                .run();
            if let Err(e) = r {
                return Some((i, e));
            }
        }
        None
    }

    #[test]
    fn nonparticipant_fast_path_raises_max_iter_at_bound_plus_one() {
        for exec in fast_path_engines() {
            for target in Target::ALL {
                let res = run(SimConfig::new(3).with_exec(exec), move |ctx| {
                    let mut session = listing7_session(ctx);
                    let mut failed = None;
                    let out = session.region(&listing7_params(target, 3), |reg| {
                        failed = listing7_loop(reg, 5, |_| 2);
                    });
                    out.is_err()
                        && matches!(
                            failed,
                            Some((
                                3,
                                DirectiveError::MaxIterExceeded {
                                    site: FAST_SITE,
                                    bound: 3
                                }
                            ))
                        )
                });
                assert_eq!(res.per_rank, vec![true; 3], "{exec:?} {target}");
            }
        }
    }

    #[test]
    fn nonparticipant_fast_path_still_rejects_negative_count() {
        for exec in fast_path_engines() {
            for target in Target::ALL {
                let res = run(SimConfig::new(3).with_exec(exec), move |ctx| {
                    let mut session = listing7_session(ctx);
                    let mut failed = None;
                    let out = session.region(&listing7_params(target, 8), |reg| {
                        failed = listing7_loop(reg, 4, |i| if i == 2 { -1 } else { 2 });
                    });
                    out.is_err()
                        && matches!(
                            failed,
                            Some((
                                2,
                                DirectiveError::RankOutOfRange {
                                    clause: "count",
                                    value: -1,
                                    ..
                                }
                            ))
                        )
                });
                assert_eq!(res.per_rank, vec![true; 3], "{exec:?} {target}");
            }
        }
    }

    /// Per rank: (quiets, barriers, final clock) after one region of
    /// `iters` instances, of which rank 2 runs `iters_rank2`.
    fn listing7_sync_profile(
        exec: netsim::ExecPolicy,
        target: Target,
        iters: usize,
        iters_rank2: usize,
    ) -> Vec<(usize, usize, Time)> {
        run(SimConfig::new(3).with_exec(exec), move |ctx| {
            let mut session = listing7_session(ctx);
            let mine = if session.rank() == 2 {
                iters_rank2
            } else {
                iters
            };
            session
                .region(&listing7_params(target, iters as i64), |reg| {
                    assert!(listing7_loop(reg, mine, |_| 2).is_none());
                })
                .unwrap();
            session.flush();
            (ctx.stats.quiets, ctx.stats.barriers, ctx.now())
        })
        .per_rank
    }

    #[test]
    fn nonparticipant_fast_path_keeps_region_end_quiet_and_fence() {
        for exec in fast_path_engines() {
            for target in [Target::Shmem, Target::Mpi1Side] {
                // Rank 2 running only its first (full-path) instance is the
                // reference: the fast-path instances add nothing to its
                // clock, and its region-end quiet or fence still happens.
                let fast = listing7_sync_profile(exec, target, 6, 6);
                let reference = listing7_sync_profile(exec, target, 6, 1);
                assert_eq!(fast, reference, "{exec:?} {target}");
                let (quiets, barriers, _) = fast[2];
                match target {
                    // Staging allocation barrier, then one quiet.
                    Target::Shmem => assert_eq!((quiets, barriers), (1, 1)),
                    // Staging allocation barrier, then the fence's barrier.
                    _ => assert_eq!((quiets, barriers), (0, 2)),
                }
            }
        }
    }

    #[test]
    fn nonparticipant_fast_path_marks_the_one_sided_target() {
        // Site 21 has SHMEM staging from region 1. In region 2 its first
        // instance is retargeted per call to MPI two-sided, so only the
        // fast-path instances after it tell rank 2 that the region used
        // SHMEM: they must, or rank 2 skips the region-end quiet.
        for exec in fast_path_engines() {
            let res = run(SimConfig::new(3).with_exec(exec), move |ctx| {
                let mut session = listing7_session(ctx);
                let params = listing7_params(Target::Shmem, 4);
                session
                    .region(&params, |reg| {
                        assert!(listing7_loop(reg, 1, |_| 2).is_none());
                    })
                    .unwrap();
                let src = [7i64; 2];
                let mut dst = [0i64; 8];
                session
                    .region(&params, |reg| {
                        for (i, d) in dst.chunks_mut(2).enumerate() {
                            let target = if i == 0 {
                                Target::Mpi2Side
                            } else {
                                Target::Shmem
                            };
                            reg.p2p()
                                .site(FAST_SITE)
                                .target(target)
                                .sbuf(Prim::new("src", &src))
                                .rbuf(PrimMut::new("dst", d))
                                .run()
                                .unwrap();
                        }
                    })
                    .unwrap();
                session.flush();
                ctx.stats.quiets
            });
            assert_eq!(res.per_rank, vec![2; 3], "{exec:?}: one quiet per region");
        }
    }

    #[test]
    fn nonparticipant_fast_path_runs_overlap_body_and_restores_site() {
        const ITERS: usize = 5;
        let compute = Time::from_nanos(700);
        for exec in fast_path_engines() {
            for target in Target::ALL {
                let res = run(SimConfig::new(3).with_exec(exec), move |ctx| {
                    let mut session = listing7_session(ctx);
                    let src = [7i64; 2];
                    let mut dst = [0i64; 2 * ITERS];
                    let (mut bodies, mut restored) = (0, true);
                    let mut t_before = Time::ZERO;
                    let mut t_after = Time::ZERO;
                    session
                        .region(&listing7_params(target, ITERS as i64), |reg| {
                            reg.ctx().set_site(Some(77));
                            t_before = reg.ctx().now();
                            for d in dst.chunks_mut(2) {
                                reg.p2p()
                                    .site(FAST_SITE)
                                    .sbuf(Prim::new("src", &src))
                                    .rbuf(PrimMut::new("dst", d))
                                    .overlap(|ctx| {
                                        bodies +=
                                            usize::from(ctx.current_site() == Some(FAST_SITE));
                                        ctx.compute(compute);
                                    })
                                    .unwrap();
                                restored &= reg.ctx().current_site() == Some(77);
                            }
                            t_after = reg.ctx().now();
                        })
                        .unwrap();
                    session.flush();
                    (bodies, restored, t_after - t_before)
                });
                let (bodies, restored, elapsed) = res.per_rank[2];
                assert_eq!(bodies, ITERS, "{exec:?} {target}: body under the site");
                assert!(restored, "{exec:?} {target}: previous site restored");
                assert!(elapsed >= Time::from_nanos(700 * ITERS as u64));
            }
        }
    }

    /// Ring of a 3-array struct-of-arrays payload, delivered intact on
    /// every target and both lowering extremes.
    fn run_soa_ring(target: Target, policy: crate::lower::LoweringPolicy, n: usize) -> Vec<i64> {
        use crate::buffer::{Soa, SoaMut};
        let res = run(SimConfig::new(n), move |ctx| {
            let comm = Comm::world(ctx);
            let mut session = CommSession::new(ctx, comm).with_lowering(policy);
            let me = session.rank() as i64;
            let a = vec![me; 64];
            let b = vec![me as f64 + 0.5; 64];
            let c = vec![me as i32; 128];
            let mut ra = vec![0i64; 64];
            let mut rb = vec![0f64; 64];
            let mut rc = vec![0i32; 128];
            let params = ring_params(n).target(target);
            session
                .region(&params, |reg| {
                    reg.p2p()
                        .count(RankExpr::lit(64))
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
            assert!(rb.iter().all(|&v| v == ra[0] as f64 + 0.5));
            assert!(rc.iter().all(|&v| v as i64 == ra[0]));
            ra[0]
        });
        res.per_rank
    }

    #[test]
    fn soa_ring_all_targets_and_policies_deliver() {
        use crate::lower::LoweringPolicy;
        for target in Target::ALL {
            for policy in [
                LoweringPolicy::Auto,
                LoweringPolicy::AlwaysPack,
                LoweringPolicy::AlwaysDatatype,
            ] {
                let n = 4;
                let got = run_soa_ring(target, policy, n);
                for (r, &v) in got.iter().enumerate() {
                    assert_eq!(
                        v as usize,
                        (r + n - 1) % n,
                        "target {target}, policy {policy:?}: rank {r} got {v}"
                    );
                }
            }
        }
    }

    /// The chooser's zero-copy split beats the Listing-4 always-pack
    /// baseline on a large struct-of-arrays transfer, and the pack
    /// baseline actually records packed bytes (observability).
    #[test]
    fn auto_lowering_beats_always_pack_on_large_soa() {
        use crate::buffer::{Soa, SoaMut};
        use crate::lower::LoweringPolicy;
        let time_with = |policy: LoweringPolicy| {
            let res = run(SimConfig::new(2), move |ctx| {
                let comm = Comm::world(ctx);
                let mut session = CommSession::new(ctx, comm).with_lowering(policy);
                let a = vec![1i64; 4096];
                let b = vec![2i64; 4096];
                let c = vec![3i64; 4096];
                let mut ra = vec![0i64; 4096];
                let mut rb = vec![0i64; 4096];
                let mut rc = vec![0i64; 4096];
                let params = CommParams::new()
                    .sender(RankExpr::lit(0))
                    .receiver(RankExpr::lit(1))
                    .sendwhen(RankExpr::rank().eq(RankExpr::lit(0)))
                    .receivewhen(RankExpr::rank().eq(RankExpr::lit(1)))
                    .target(Target::Mpi2Side);
                session
                    .region(&params, |reg| {
                        reg.p2p()
                            .count(RankExpr::lit(4096))
                            .sbuf(Soa::new("s").field("a", &a).field("b", &b).field("c", &c))
                            .rbuf(
                                SoaMut::new("r")
                                    .field("a", &mut ra)
                                    .field("b", &mut rb)
                                    .field("c", &mut rc),
                            )
                            .run()
                            .unwrap();
                    })
                    .unwrap();
                session.flush();
                assert_eq!(ra[4095], if session.rank() == 1 { 1 } else { 0 });
            });
            (
                res.final_times.iter().max().copied().unwrap(),
                res.total_stats().packed_bytes,
            )
        };
        let (auto_t, auto_packed) = time_with(LoweringPolicy::Auto);
        let (pack_t, pack_packed) = time_with(LoweringPolicy::AlwaysPack);
        assert!(
            auto_t < pack_t,
            "auto {auto_t:?} should beat always-pack {pack_t:?}"
        );
        // 3 arrays x 4096 x 8B, packed on the send side and unpacked on
        // the receive side under the baseline; never copied under auto.
        assert_eq!(auto_packed, 0);
        assert_eq!(pack_packed, 2 * 3 * 4096 * 8);
    }
}
