//! The shared machine state: per-rank mailboxes (tag matching), group
//! barriers with clock reconciliation, and the one-sided symmetric segment
//! store with per-delivery signals.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::msg::{
    match_timing, Completion, Envelope, RecvDone, RecvRequest, RecvSlot, SendRequest, SrcSel,
    TagSel, WireCosts,
};
use crate::time::Time;
use crate::trace::MailboxHotStats;

// ---------------------------------------------------------------------------
// Mailboxes / tag matching
// ---------------------------------------------------------------------------

struct PostedRecv {
    tag: TagSel,
    post_time: Time,
    /// Global posting-order stamp across both lanes; MPI requires receives
    /// to match in posting order regardless of selector shape.
    post_seq: u64,
    slot: Arc<RecvSlot>,
}

/// Indexed matching state. Instead of one flat unexpected queue scanned (and
/// a `HashMap` rebuilt) on every post, both sides of the match are indexed by
/// source rank:
///
/// * `unexpected[src]` — parked envelopes from `src`, in arrival order. A
///   source's messages enter the mailbox in program order, so the front-most
///   tag match in its lane *is* that source's oldest eligible candidate
///   (MPI non-overtaking), found without touching other sources' traffic.
/// * `posted_exact[src]` — posted receives pinned to `SrcSel::Exact(src)`.
/// * `posted_any` — the wildcard lane (`SrcSel::Any` receives).
///
/// The exact-source/exact-tag fast path is O(1); wildcard posts are
/// O(active sources); deliveries scan one exact lane plus the wildcard lane.
/// `active_srcs` keeps the set of non-empty unexpected lanes sorted so
/// wildcard scans are deterministic and skip idle sources.
struct MailboxInner {
    unexpected: Vec<VecDeque<Envelope>>,
    /// Sources with a non-empty `unexpected` lane, ascending.
    active_srcs: Vec<usize>,
    unexpected_total: usize,
    posted_exact: Vec<VecDeque<PostedRecv>>,
    posted_any: VecDeque<PostedRecv>,
    posted_total: usize,
    stats: MailboxHotStats,
}

/// One rank's incoming-message matching engine.
pub struct Mailbox {
    inner: Mutex<MailboxInner>,
    /// Posting-order stamp, taken outside the matching lock. Only the owning
    /// rank posts receives to its own mailbox, so an atomic fetch-add
    /// preserves program order exactly.
    post_seq: AtomicU64,
}

impl MailboxInner {
    fn note_parked(&mut self, src: usize) {
        if self.unexpected[src].len() == 1 {
            // Lane just became non-empty.
            let pos = self.active_srcs.partition_point(|&s| s < src);
            self.active_srcs.insert(pos, src);
        }
        self.unexpected_total += 1;
        if self.unexpected_total > self.stats.uq_high_water {
            self.stats.uq_high_water = self.unexpected_total;
        }
    }

    fn take_unexpected(&mut self, src: usize, idx: usize) -> Envelope {
        let env = self.unexpected[src].remove(idx).expect("index valid");
        if self.unexpected[src].is_empty() {
            if let Ok(pos) = self.active_srcs.binary_search(&src) {
                self.active_srcs.remove(pos);
            }
        }
        self.unexpected_total -= 1;
        env
    }

    /// Front-most tag match in `src`'s unexpected lane: the oldest eligible
    /// candidate from that source under non-overtaking.
    fn oldest_match(&mut self, src: usize, tag: TagSel) -> Option<usize> {
        let mut steps = 0;
        let mut hit = None;
        for (i, e) in self.unexpected[src].iter().enumerate() {
            steps += 1;
            if tag.matches(e.tag) {
                hit = Some(i);
                break;
            }
        }
        self.stats.match_scan_steps += steps;
        hit
    }
}

impl Mailbox {
    fn new(nranks: usize) -> Self {
        Mailbox {
            inner: Mutex::new(MailboxInner {
                unexpected: (0..nranks).map(|_| VecDeque::new()).collect(),
                active_srcs: Vec::new(),
                unexpected_total: 0,
                posted_exact: (0..nranks).map(|_| VecDeque::new()).collect(),
                posted_any: VecDeque::new(),
                posted_total: 0,
                stats: MailboxHotStats::default(),
            }),
            post_seq: AtomicU64::new(0),
        }
    }

    /// Deliver an envelope: match against posted receives (in posting order)
    /// or park it in the per-source unexpected lane.
    fn deliver(&self, env: Envelope) {
        let mut g = self.inner.lock();
        g.stats.lock_acquisitions += 1;
        // Earliest-posted matching receive: the front-most tag match in the
        // sender's exact lane vs. the front-most match in the wildcard
        // lane, whichever was posted first. Each lane is in posting order,
        // so the two lane-firsts bracket every candidate.
        let mut steps = 0;
        let mut exact_hit: Option<(usize, u64)> = None;
        for (i, p) in g.posted_exact[env.src].iter().enumerate() {
            steps += 1;
            if p.tag.matches(env.tag) {
                exact_hit = Some((i, p.post_seq));
                break;
            }
        }
        let mut any_hit: Option<(usize, u64)> = None;
        for (i, p) in g.posted_any.iter().enumerate() {
            steps += 1;
            if p.tag.matches(env.tag) {
                any_hit = Some((i, p.post_seq));
                break;
            }
        }
        g.stats.match_scan_steps += steps;
        let winner = match (exact_hit, any_hit) {
            (Some((i, a)), Some((_, b))) if a < b => Some((true, i)),
            (Some(_), Some((j, _))) => Some((false, j)),
            (Some((i, _)), None) => Some((true, i)),
            (None, Some((j, _))) => Some((false, j)),
            (None, None) => None,
        };
        match winner {
            Some((in_exact, idx)) => {
                let posted = if in_exact {
                    g.posted_exact[env.src].remove(idx).expect("index valid")
                } else {
                    g.posted_any.remove(idx).expect("index valid")
                };
                g.posted_total -= 1;
                drop(g);
                complete_match(env, posted.post_time, &posted.slot);
            }
            None => {
                // Eager messages complete the sender immediately; rendezvous
                // sends stay pending until matched.
                if env.costs.eager {
                    env.send_done.set(env.depart, env.depart);
                }
                let src = env.src;
                g.unexpected[src].push_back(env);
                g.note_parked(src);
            }
        }
    }

    /// Post a receive at virtual time `post_time`. If a matching message is
    /// already parked, the receive completes immediately; otherwise it is
    /// queued for the next matching delivery.
    fn post(&self, src: SrcSel, tag: TagSel, post_time: Time, slot: Arc<RecvSlot>) {
        let seq = self.post_seq.fetch_add(1, Ordering::Relaxed);
        let mut g = self.inner.lock();
        g.stats.lock_acquisitions += 1;
        // MPI non-overtaking: per source, messages match in send order, so
        // only each source's *oldest* parked candidate is eligible — the
        // front-most tag match in its lane. Among eligible candidates from
        // different sources, pick the earliest virtual arrival, tie-broken
        // by source rank. Both key components are virtual quantities, so the
        // choice is independent of the physical order in which the parked
        // messages were delivered — and therefore of the execution engine.
        let best: Option<(usize, usize)> = match src {
            SrcSel::Exact(s) => g.oldest_match(s, tag).map(|i| (s, i)),
            SrcSel::Any => {
                let active = std::mem::take(&mut g.active_srcs);
                let mut best: Option<(usize, usize, (Time, usize))> = None;
                for &s in &active {
                    if let Some(i) = g.oldest_match(s, tag) {
                        let e = &g.unexpected[s][i];
                        let key = (e.costs.eager_arrival(e.depart, e.payload.len()), s);
                        if best.map(|(_, _, k)| key < k).unwrap_or(true) {
                            best = Some((s, i, key));
                        }
                    }
                }
                g.active_srcs = active;
                best.map(|(s, i, _)| (s, i))
            }
        };
        match best {
            Some((s, i)) => {
                let env = g.take_unexpected(s, i);
                drop(g);
                complete_match(env, post_time, &slot);
            }
            None => {
                let posted = PostedRecv {
                    tag,
                    post_time,
                    post_seq: seq,
                    slot,
                };
                match src {
                    SrcSel::Exact(s) => g.posted_exact[s].push_back(posted),
                    SrcSel::Any => g.posted_any.push_back(posted),
                }
                g.posted_total += 1;
            }
        }
    }

    /// Number of parked unexpected messages (diagnostics).
    pub fn unexpected_len(&self) -> usize {
        self.inner.lock().unexpected_total
    }

    /// Number of outstanding posted receives (diagnostics).
    pub fn posted_len(&self) -> usize {
        self.inner.lock().posted_total
    }

    /// Snapshot of the hot-path contention counters.
    pub fn hot_stats(&self) -> MailboxHotStats {
        self.inner.lock().stats
    }
}

fn complete_match(env: Envelope, post_time: Time, slot: &RecvSlot) {
    let bytes = env.payload.len();
    let timing = match_timing(&env.costs, bytes, env.depart, post_time);
    env.send_done
        .set(timing.send_complete, timing.send_complete);
    let done = RecvDone {
        payload: env.payload,
        completion: timing.recv_complete,
        unexpected: timing.unexpected,
        src: env.src,
        tag: env.tag,
    };
    let first = slot.set(done, timing.recv_complete);
    debug_assert!(first, "receive completed twice");
}

// ---------------------------------------------------------------------------
// Group barriers with clock reconciliation
// ---------------------------------------------------------------------------

#[derive(Default)]
struct BarrierInner {
    arrived: usize,
    max_entry: Time,
    exit_time: Time,
    /// Single-wake registrations: ranks parked in this generation, woken
    /// through the scheduler by the last arriver.
    waiters: Vec<crate::sched::Waiter>,
}

/// A reusable barrier over a fixed group size that also reconciles virtual
/// clocks: every participant leaves with `max(entry clocks) + cost`.
pub struct GroupBarrier {
    size: usize,
    inner: Mutex<BarrierInner>,
}

impl GroupBarrier {
    fn new(size: usize) -> Self {
        GroupBarrier {
            size,
            inner: Mutex::new(BarrierInner::default()),
        }
    }

    /// Enter with local clock `entry`; returns the reconciled exit clock.
    /// `cost` is charged once on top of the max entry time (the last
    /// arriver's model decides it; all participants pass the same value in
    /// practice since they use the same library for the barrier).
    pub fn enter(&self, entry: Time, cost: Time) -> Time {
        let mut g = self.inner.lock();
        g.max_entry = g.max_entry.max(entry);
        g.arrived += 1;
        if g.arrived < self.size {
            g.waiters.push(crate::sched::yield_slot());
            drop(g);
            crate::sched::park_self();
            // Woken ⇒ our generation completed. The next generation cannot
            // finish (and overwrite `exit_time`) before we re-enter.
            return self.inner.lock().exit_time;
        }
        let exit = g.max_entry + cost;
        g.exit_time = exit;
        g.arrived = 0;
        g.max_entry = Time::ZERO;
        let waiters = std::mem::take(&mut g.waiters);
        drop(g);
        // Each parked rank is queued at the reconciled exit clock and
        // granted a slot LVT-first.
        for w in waiters {
            w.wake(exit);
        }
        exit
    }
}

// ---------------------------------------------------------------------------
// Sharded group-keyed registries
// ---------------------------------------------------------------------------

/// Shard count for group-keyed registry maps (power of two).
const MAP_SHARDS: usize = 16;

/// A group-keyed registry (`group: Vec<usize>` → shared state) split over
/// fixed shards, so concurrent lookups for unrelated groups — e.g. disjoint
/// subcommunicator barriers entered from many rank threads at once — do not
/// serialize on one global mutex. Entries are never removed: groups are
/// stable for a simulation's lifetime.
struct ShardedMap<V> {
    shards: Vec<Mutex<HashMap<Vec<usize>, V>>>,
}

impl<V> Default for ShardedMap<V> {
    fn default() -> Self {
        ShardedMap {
            shards: (0..MAP_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }
}

impl<V: Clone> ShardedMap<V> {
    fn shard_of(key: &[usize]) -> usize {
        // FNV-1a over the group members; cheap and stable.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &k in key {
            h ^= k as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (h as usize) & (MAP_SHARDS - 1)
    }

    fn get_or_insert_with(&self, key: &[usize], make: impl FnOnce() -> V) -> V {
        let mut g = self.shards[Self::shard_of(key)].lock();
        g.entry(key.to_vec()).or_insert_with(make).clone()
    }
}

// ---------------------------------------------------------------------------
// Symmetric segments (one-sided memory)
// ---------------------------------------------------------------------------

/// Identifier of a symmetric segment, valid on every participating rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SegId(pub usize);

struct SlotInner {
    data: Vec<u8>,
    /// Virtual arrival times of signalled deliveries, in delivery order.
    signals: Vec<Time>,
    /// Number of signalled deliveries the owner has consumed (flow control).
    consumed: u64,
    /// Single-wake registration: the owner parked until the `.0`-th
    /// (1-based) signal lands; the delivering put wakes it.
    waiting: Option<(usize, crate::sched::Waiter)>,
    /// Senders parked on a full flow-control window; the owner's
    /// `mark_consumed` wakes them all and each re-checks the window.
    blocked_senders: Vec<crate::sched::Waiter>,
}

/// A symmetric allocation: `bytes` of memory on each rank of `group`.
pub struct Segment {
    bytes: usize,
    /// Participating global ranks, ascending.
    group: Vec<usize>,
    /// One slot per participating rank, indexed by position in `group`.
    slots: Vec<Mutex<SlotInner>>,
    /// Flow-control window: a signalled put physically blocks while
    /// `signals - consumed >= window` (staging-slot reuse safety).
    window: u64,
}

impl Segment {
    fn slot_of(&self, rank: usize) -> &Mutex<SlotInner> {
        let idx = self
            .group
            .binary_search(&rank)
            .unwrap_or_else(|_| panic!("rank {rank} not in segment group {:?}", self.group));
        &self.slots[idx]
    }

    /// Size in bytes of the per-rank allocation.
    pub fn len(&self) -> usize {
        self.bytes
    }

    /// Whether the allocation is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }
}

#[derive(Default)]
struct AllocRendezvous {
    arrived: usize,
    bytes: usize,
    window: u64,
    /// The segment of the latest completed generation. Not reset when the
    /// next generation starts: that one cannot complete (and overwrite it)
    /// before every woken member has read it.
    result: Option<SegId>,
    /// Single-wake registrations: ranks parked in this generation.
    waiters: Vec<crate::sched::Waiter>,
}

/// The one-sided memory store: symmetric segments plus the collective
/// allocation rendezvous per group.
#[derive(Default)]
pub struct SegmentStore {
    segments: RwLock<Vec<Arc<Segment>>>,
    allocs: ShardedMap<Arc<Mutex<AllocRendezvous>>>,
}

impl SegmentStore {
    /// Collective symmetric allocation over `group` (ascending global
    /// ranks). Every rank in the group must call with identical arguments;
    /// all receive the same [`SegId`]. Mirrors `shmalloc` semantics (which
    /// synchronizes all PEs). `window` bounds outstanding signalled
    /// deliveries per destination (use `u64::MAX` for none).
    pub fn alloc(&self, group: &[usize], bytes: usize, window: u64) -> SegId {
        debug_assert!(
            group.windows(2).all(|w| w[0] < w[1]),
            "group must be sorted"
        );
        let state = self.allocs.get_or_insert_with(group, Arc::default);
        let mut g = state.lock();
        if g.arrived == 0 {
            g.bytes = bytes;
            g.window = window;
        } else {
            assert_eq!(
                g.bytes, bytes,
                "symmetric alloc size mismatch across ranks in group {group:?}"
            );
            assert_eq!(
                g.window, window,
                "symmetric alloc window mismatch across ranks in group {group:?}"
            );
        }
        g.arrived += 1;
        if g.arrived < group.len() {
            g.waiters.push(crate::sched::yield_slot());
            drop(g);
            crate::sched::park_self();
            return state
                .lock()
                .result
                .expect("alloc result set by last arriver");
        }
        let seg = Arc::new(Segment {
            bytes,
            group: group.to_vec(),
            window,
            slots: group
                .iter()
                .map(|_| {
                    Mutex::new(SlotInner {
                        data: vec![0u8; bytes],
                        signals: Vec::new(),
                        consumed: 0,
                        waiting: None,
                        blocked_senders: Vec::new(),
                    })
                })
                .collect(),
        });
        let id = {
            let mut segs = self.segments.write();
            segs.push(seg);
            SegId(segs.len() - 1)
        };
        g.result = Some(id);
        g.arrived = 0;
        let waiters = std::mem::take(&mut g.waiters);
        drop(g);
        for w in waiters {
            w.wake_at_own_clock();
        }
        id
    }

    fn seg(&self, id: SegId) -> Arc<Segment> {
        Arc::clone(&self.segments.read()[id.0])
    }

    /// Flow-control window of a segment (deliveries that may be in flight
    /// before the owner consumes; `u64::MAX` = unbounded).
    pub fn window_of(&self, id: SegId) -> u64 {
        self.seg(id).window
    }

    /// Write `data` into `target`'s copy of the segment at `offset`.
    /// If `signal_arrival` is set, appends a delivery signal with that
    /// virtual arrival time and wakes waiters; returns the signal's
    /// 1-based ordinal on the target's copy (the race sanitizer keys its
    /// signal-wait edge on it).
    pub fn put(
        &self,
        id: SegId,
        target: usize,
        offset: usize,
        data: &[u8],
        signal_arrival: Option<Time>,
    ) -> Option<u64> {
        let seg = self.seg(id);
        let slot = seg.slot_of(target);
        let mut g = slot.lock();
        // Flow control: do not overwrite a staging slot the owner has not
        // consumed yet. Purely physical (no virtual-time charge): models
        // adequately-sized staging on the critical path.
        while signal_arrival.is_some()
            && (g.signals.len() as u64).saturating_sub(g.consumed) >= seg.window
        {
            g.blocked_senders.push(crate::sched::yield_slot());
            drop(g);
            crate::sched::park_self();
            g = slot.lock();
        }
        assert!(
            offset + data.len() <= g.data.len(),
            "put out of bounds: {}+{} > {}",
            offset,
            data.len(),
            g.data.len()
        );
        g.data[offset..offset + data.len()].copy_from_slice(data);
        let mut waker = None;
        let mut ordinal = None;
        if let Some(t) = signal_arrival {
            g.signals.push(t);
            ordinal = Some(g.signals.len() as u64);
            if let Some((need, _)) = g.waiting.as_ref() {
                if g.signals.len() >= *need {
                    let (need, w) = g.waiting.take().unwrap();
                    waker = Some((w, g.signals[need - 1]));
                }
            }
        }
        drop(g);
        if let Some((w, t)) = waker {
            // Single-wake handoff to the parked owner, queued at the
            // virtual arrival time of the signal it was waiting for.
            w.wake(t);
        }
        ordinal
    }

    /// Mark `count` additional signalled deliveries as consumed by `rank`
    /// (releases flow-controlled senders).
    pub fn mark_consumed(&self, id: SegId, rank: usize, count: u64) {
        let seg = self.seg(id);
        let mut g = seg.slot_of(rank).lock();
        g.consumed += count;
        let senders = std::mem::take(&mut g.blocked_senders);
        drop(g);
        for w in senders {
            w.wake_at_own_clock();
        }
    }

    /// Read `out.len()` bytes from `target`'s copy at `offset`.
    pub fn read(&self, id: SegId, target: usize, offset: usize, out: &mut [u8]) {
        let seg = self.seg(id);
        let slot = seg.slot_of(target);
        let g = slot.lock();
        assert!(
            offset + out.len() <= g.data.len(),
            "read out of bounds: {}+{} > {}",
            offset,
            out.len(),
            g.data.len()
        );
        out.copy_from_slice(&g.data[offset..offset + out.len()]);
    }

    /// Physically block until at least `count` signalled deliveries have
    /// landed in `rank`'s copy of the segment; returns the virtual arrival
    /// time of the `count`-th (1-based) delivery.
    pub fn wait_signals(&self, id: SegId, rank: usize, count: usize) -> Time {
        assert!(count >= 1, "must wait for at least one signal");
        let seg = self.seg(id);
        let slot = seg.slot_of(rank);
        let mut g = slot.lock();
        if g.signals.len() < count {
            debug_assert!(g.waiting.is_none(), "two waiters on one slot");
            g.waiting = Some((count, crate::sched::yield_slot()));
            drop(g);
            crate::sched::park_self();
            // Woken ⇒ the count-th signal landed (signals only grow).
            g = slot.lock();
        }
        g.signals[count - 1]
    }

    /// Number of signalled deliveries so far on `rank`'s copy.
    pub fn signal_count(&self, id: SegId, rank: usize) -> usize {
        let seg = self.seg(id);
        let slot = seg.slot_of(rank);
        let n = slot.lock().signals.len();
        n
    }
}

// ---------------------------------------------------------------------------
// Fabric: everything a rank reaches through
// ---------------------------------------------------------------------------

/// The shared interconnect + memory fabric of one simulated machine.
pub struct Fabric {
    nranks: usize,
    mailboxes: Vec<Mailbox>,
    /// The full-group barrier, built up front: world barriers, the common
    /// case, neither hash nor copy a member list.
    world: GroupBarrier,
    /// Subgroup barriers, keyed by member list.
    barriers: ShardedMap<Arc<GroupBarrier>>,
    segments: SegmentStore,
}

impl Fabric {
    pub fn new(nranks: usize) -> Arc<Self> {
        Arc::new(Fabric {
            nranks,
            mailboxes: (0..nranks).map(|_| Mailbox::new(nranks)).collect(),
            world: GroupBarrier::new(nranks),
            barriers: ShardedMap::default(),
            segments: SegmentStore::default(),
        })
    }

    /// Total number of ranks on the machine.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The one-sided segment store.
    pub fn segments(&self) -> &SegmentStore {
        &self.segments
    }

    /// Mailbox of `rank` (diagnostics).
    pub fn mailbox(&self, rank: usize) -> &Mailbox {
        &self.mailboxes[rank]
    }

    /// Initiate a non-blocking two-sided send. `depart` is the sender's
    /// clock after charging `o_send`.
    pub fn send(
        &self,
        src: usize,
        dst: usize,
        tag: i32,
        payload: Bytes,
        depart: Time,
        costs: WireCosts,
    ) -> SendRequest {
        assert!(dst < self.nranks, "send to nonexistent rank {dst}");
        let done = Completion::new();
        let bytes = payload.len();
        let env = Envelope {
            src,
            dst,
            tag,
            payload,
            depart,
            costs,
            send_done: Arc::clone(&done),
        };
        self.mailboxes[dst].deliver(env);
        SendRequest { done, bytes }
    }

    /// Post a non-blocking receive on `rank`'s mailbox. `post_time` is the
    /// receiver's clock after charging `o_recv`.
    pub fn recv(&self, rank: usize, src: SrcSel, tag: TagSel, post_time: Time) -> RecvRequest {
        let slot = RecvSlot::new();
        self.mailboxes[rank].post(src, tag, post_time, Arc::clone(&slot));
        RecvRequest {
            slot,
            posted: post_time,
        }
    }

    /// Barrier over `group` (ascending global ranks), reconciling clocks.
    pub fn barrier(&self, group: &[usize], entry: Time, cost: Time) -> Time {
        debug_assert!(
            group.windows(2).all(|w| w[0] < w[1]),
            "group must be sorted"
        );
        // Distinct ranks, as many as the machine has: the world group.
        if group.len() == self.nranks {
            return self.barrier_world(entry, cost);
        }
        let b = self
            .barriers
            .get_or_insert_with(group, || Arc::new(GroupBarrier::new(group.len())));
        b.enter(entry, cost)
    }

    /// Barrier over every rank of the machine, reconciling clocks. The
    /// same barrier as [`Fabric::barrier`] over the full group.
    pub fn barrier_world(&self, entry: Time, cost: Time) -> Time {
        self.world.enter(entry, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{RankSlot, Scheduler};
    use std::thread;

    /// Register the calling thread as a rank (of a one-rank scheduler of
    /// its own), so its blocking waits park as they do under `run`.
    fn as_rank() -> RankSlot {
        RankSlot::enter(Scheduler::new(1, 1), 0)
    }

    /// Spawn `f` on a thread registered as a rank.
    fn spawn_rank<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> thread::JoinHandle<T> {
        thread::spawn(|| {
            let _slot = as_rank();
            f()
        })
    }

    fn eager_costs() -> WireCosts {
        WireCosts {
            latency: 1_000,
            byte_time_ns: 1.0,
            handshake: 0,
            unexpected_per_byte: 0.5,
            eager: true,
        }
    }

    #[test]
    fn send_then_recv_matches() {
        let f = Fabric::new(2);
        let req = f.send(
            0,
            1,
            7,
            Bytes::from_static(b"abcd"),
            Time(100),
            eager_costs(),
        );
        assert_eq!(f.mailbox(1).unexpected_len(), 1);
        let r = f.recv(1, SrcSel::Exact(0), TagSel::Exact(7), Time(0));
        let done = r.wait_raw();
        assert_eq!(&done.payload[..], b"abcd");
        // depart 100 + L 1000 + 4 bytes = 1104; post at 0 => arrival wins.
        assert_eq!(done.completion, Time(1_104));
        // Virtual arrival (1104) is after the post (0), so even though the
        // message physically sat in the unexpected queue, no copy is charged.
        assert!(!done.unexpected);
        assert_eq!(req.wait_raw(), Time(100));
    }

    #[test]
    fn recv_then_send_matches() {
        let f = Fabric::new(2);
        let r = f.recv(1, SrcSel::Exact(0), TagSel::Exact(3), Time(50));
        assert_eq!(f.mailbox(1).posted_len(), 1);
        f.send(0, 1, 3, Bytes::from_static(b"xy"), Time(0), eager_costs());
        let done = r.wait_raw();
        assert_eq!(&done.payload[..], b"xy");
        assert!(!done.unexpected);
        assert_eq!(done.completion, Time(1_002)); // max(50, 0+1000+2)
    }

    #[test]
    fn unexpected_flag_on_late_post() {
        let f = Fabric::new(2);
        f.send(0, 1, 1, Bytes::from_static(b"zz"), Time(0), eager_costs());
        // Virtual arrival = 1002; post at 10_000 => unexpected.
        let r = f.recv(1, SrcSel::Exact(0), TagSel::Exact(1), Time(10_000));
        let done = r.wait_raw();
        assert!(done.unexpected);
        assert_eq!(done.completion, Time(10_001)); // 10_000 + 0.5*2
    }

    #[test]
    fn tag_and_source_selective_matching() {
        let f = Fabric::new(3);
        f.send(0, 2, 5, Bytes::from_static(b"A"), Time(0), eager_costs());
        f.send(1, 2, 6, Bytes::from_static(b"B"), Time(0), eager_costs());
        let r6 = f.recv(2, SrcSel::Any, TagSel::Exact(6), Time(0));
        assert_eq!(&r6.wait_raw().payload[..], b"B");
        let r5 = f.recv(2, SrcSel::Exact(0), TagSel::Any, Time(0));
        let d5 = r5.wait_raw();
        assert_eq!(&d5.payload[..], b"A");
        assert_eq!(d5.src, 0);
        assert_eq!(d5.tag, 5);
    }

    #[test]
    fn wildcard_prefers_earliest_virtual_arrival() {
        let f = Fabric::new(3);
        // Physically delivered first but departs later virtually.
        f.send(
            0,
            2,
            1,
            Bytes::from_static(b"late"),
            Time(9_000),
            eager_costs(),
        );
        f.send(
            1,
            2,
            1,
            Bytes::from_static(b"early"),
            Time(0),
            eager_costs(),
        );
        let r = f.recv(2, SrcSel::Any, TagSel::Exact(1), Time(20_000));
        assert_eq!(&r.wait_raw().payload[..], b"early");
    }

    #[test]
    fn same_source_fifo_order() {
        let f = Fabric::new(2);
        for (i, t) in [(0u8, 0u64), (1, 10), (2, 20)] {
            f.send(
                0,
                1,
                9,
                Bytes::copy_from_slice(&[i]),
                Time(t),
                eager_costs(),
            );
        }
        for expect in 0u8..3 {
            let r = f.recv(1, SrcSel::Exact(0), TagSel::Exact(9), Time(0));
            assert_eq!(r.wait_raw().payload[0], expect);
        }
    }

    #[test]
    fn rendezvous_send_completion_requires_match() {
        let mut costs = eager_costs();
        costs.eager = false;
        costs.handshake = 500;
        let f = Fabric::new(2);
        let s = f.send(0, 1, 2, Bytes::from_static(&[0u8; 16]), Time(0), costs);
        assert!(s.poll().is_none(), "rendezvous send pending until matched");
        let r = f.recv(1, SrcSel::Exact(0), TagSel::Exact(2), Time(4_000));
        let d = r.wait_raw();
        // xfer_start = max(0+1000, 4000) + 500 = 4500; arrival = +1000+16
        assert_eq!(d.completion, Time(5_516));
        assert_eq!(s.wait_raw(), d.completion);
    }

    #[test]
    fn cross_thread_blocking_wait() {
        let f = Fabric::new(2);
        let f2 = Arc::clone(&f);
        let h = spawn_rank(move || {
            let r = f2.recv(1, SrcSel::Exact(0), TagSel::Exact(0), Time(0));
            r.wait_raw().payload.to_vec()
        });
        thread::sleep(std::time::Duration::from_millis(20));
        f.send(0, 1, 0, Bytes::from_static(b"ping"), Time(5), eager_costs());
        assert_eq!(h.join().unwrap(), b"ping");
    }

    #[test]
    fn barrier_reconciles_clocks() {
        let f = Fabric::new(4);
        let group = [0usize, 1, 2, 3];
        let mut handles = Vec::new();
        for r in 0..4usize {
            let f = Arc::clone(&f);
            handles.push(spawn_rank(move || {
                f.barrier(&group[..], Time(100 * (r as u64 + 1)), Time(50))
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), Time(450)); // max entry 400 + 50
        }
    }

    #[test]
    fn barrier_reusable_across_generations() {
        let f = Fabric::new(2);
        let group = [0usize, 1];
        let _me = as_rank();
        for round in 0..3u64 {
            let f0 = Arc::clone(&f);
            let g = group;
            let h = spawn_rank(move || f0.barrier(&g[..], Time(round * 10), Time(1)));
            let me = f.barrier(&group[..], Time(round * 10 + 5), Time(1));
            assert_eq!(me, Time(round * 10 + 6));
            assert_eq!(h.join().unwrap(), me);
        }
    }

    #[test]
    fn subgroup_barriers_are_independent() {
        let f = Fabric::new(4);
        let a = [0usize, 1];
        let b = [2usize, 3];
        let _me = as_rank();
        let fa = Arc::clone(&f);
        let ha = spawn_rank(move || fa.barrier(&a[..], Time(10), Time(1)));
        let fb = Arc::clone(&f);
        let hb = spawn_rank(move || fb.barrier(&b[..], Time(100), Time(1)));
        assert_eq!(f.barrier(&a[..], Time(20), Time(1)), Time(21));
        assert_eq!(f.barrier(&b[..], Time(200), Time(1)), Time(201));
        ha.join().unwrap();
        hb.join().unwrap();
    }

    #[test]
    fn world_and_subgroup_barriers_interleave_across_generations() {
        // Ranks 0..4; every round is a world barrier (entered both through
        // the full member list and through `barrier_world`), then a barrier
        // of {0, 1} and one of {2, 3}. Each generation reconciles only the
        // clocks of its own members.
        let f = Fabric::new(4);
        let world = [0usize, 1, 2, 3];
        let mut handles = Vec::new();
        for r in 0..4usize {
            let f = Arc::clone(&f);
            handles.push(spawn_rank(move || {
                let pair: [usize; 2] = if r < 2 { [0, 1] } else { [2, 3] };
                let mut clock = Time(r as u64);
                let mut exits = Vec::new();
                for round in 0..5u64 {
                    clock = if (r + round as usize).is_multiple_of(2) {
                        f.barrier(&world[..], clock + Time(round), Time(10))
                    } else {
                        f.barrier_world(clock + Time(round), Time(10))
                    };
                    exits.push(clock);
                    clock = f.barrier(&pair[..], clock + Time(r as u64 * 100), Time(1));
                    exits.push(clock);
                }
                exits
            }));
        }
        let exits: Vec<Vec<Time>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Replay the rounds sequentially to get the expected clocks: the
        // pair {0, 1} enters at +0 and +100, the pair {2, 3} at +200, +300.
        let mut clock = [0u64, 1, 2, 3];
        for round in 0..5usize {
            let w = clock.iter().max().unwrap() + round as u64 + 10;
            let (lo, hi) = (w + 100 + 1, w + 300 + 1);
            for (r, ex) in exits.iter().enumerate() {
                assert_eq!(ex[2 * round], Time(w), "world, round {round}");
                let pair = if r < 2 { lo } else { hi };
                assert_eq!(ex[2 * round + 1], Time(pair), "pair, round {round}");
            }
            clock = [lo, lo, hi, hi];
        }
    }

    #[test]
    fn symmetric_alloc_and_put_get() {
        let f = Fabric::new(2);
        let group = [0usize, 1];
        let _me = as_rank();
        let f2 = Arc::clone(&f);
        let h = spawn_rank(move || f2.segments().alloc(&[0, 1], 64, u64::MAX));
        let id = f.segments().alloc(&group[..], 64, u64::MAX);
        assert_eq!(h.join().unwrap(), id);

        f.segments().put(id, 1, 8, b"hello", None);
        let mut out = [0u8; 5];
        f.segments().read(id, 1, 8, &mut out);
        assert_eq!(&out, b"hello");
        // Rank 0's copy untouched.
        f.segments().read(id, 0, 8, &mut out);
        assert_eq!(&out, &[0u8; 5]);
    }

    #[test]
    fn signalled_puts_wake_waiters_in_order() {
        let f = Fabric::new(2);
        let _me = as_rank();
        let f2 = Arc::clone(&f);
        let ha = spawn_rank(move || f2.segments().alloc(&[0, 1], 16, u64::MAX));
        let id = f.segments().alloc(&[0, 1], 16, u64::MAX);
        ha.join().unwrap();

        let f3 = Arc::clone(&f);
        let waiter = spawn_rank(move || {
            let t1 = f3.segments().wait_signals(id, 1, 1);
            let t2 = f3.segments().wait_signals(id, 1, 2);
            (t1, t2)
        });
        thread::sleep(std::time::Duration::from_millis(10));
        f.segments().put(id, 1, 0, &[1u8; 4], Some(Time(111)));
        f.segments().put(id, 1, 4, &[2u8; 4], Some(Time(222)));
        let (t1, t2) = waiter.join().unwrap();
        assert_eq!((t1, t2), (Time(111), Time(222)));
        assert_eq!(f.segments().signal_count(id, 1), 2);
        assert_eq!(f.segments().signal_count(id, 0), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn put_out_of_bounds_panics() {
        let f = Fabric::new(1);
        let id = f.segments().alloc(&[0], 4, u64::MAX);
        f.segments().put(id, 0, 2, &[0u8; 4], None);
    }

    #[test]
    fn flow_control_blocks_until_consumed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let f = Fabric::new(2);
        let _me = as_rank();
        let fa = Arc::clone(&f);
        let h = spawn_rank(move || fa.segments().alloc(&[0, 1], 8, 2));
        let id = f.segments().alloc(&[0, 1], 8, 2);
        h.join().unwrap();

        let done = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&f);
        let d2 = Arc::clone(&done);
        let sender = spawn_rank(move || {
            for k in 0..4u8 {
                f2.segments().put(id, 1, 0, &[k], Some(Time(k as u64)));
                d2.fetch_add(1, Ordering::SeqCst);
            }
        });
        // Window = 2: the third put must block until a consumption.
        thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(done.load(Ordering::SeqCst), 2, "third put blocked");
        f.segments().mark_consumed(id, 1, 1);
        thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(done.load(Ordering::SeqCst), 3, "one slot freed one put");
        f.segments().mark_consumed(id, 1, 3);
        sender.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 4);
        assert_eq!(f.segments().signal_count(id, 1), 4);
    }

    #[test]
    fn unsignalled_puts_ignore_flow_control() {
        let f = Fabric::new(1);
        let id = f.segments().alloc(&[0], 8, 1);
        // Plain memory writes (no signal) never block.
        for k in 0..10u8 {
            f.segments().put(id, 0, 0, &[k], None);
        }
        let mut out = [0u8; 1];
        f.segments().read(id, 0, 0, &mut out);
        assert_eq!(out[0], 9);
    }
}
