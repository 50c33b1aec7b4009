//! The execution engine: an admission gate that multiplexes rank bodies
//! over a pool of execution slots.
//!
//! Every rank runs on its own OS thread (each rank body needs its own stack
//! — it may block anywhere inside user code), but *execution* is gated: at
//! most `workers` ranks hold a slot at any instant. The default gives every
//! rank a slot; fewer slots keep a run of thousands of ranks from making
//! the kernel round-robin threads that mostly contend fabric locks and park
//! again. Slots are granted least-virtual-time-first, the conservative-PDES
//! order: the rank whose clock is furthest behind is the one most likely to
//! unblock others.
//!
//! Every blocking point in the fabric uses one *single-wake* protocol: the
//! waiter yields its slot ([`yield_slot`]), registers the returned
//! [`Waiter`] handle in the fabric object it is waiting on, and parks once
//! ([`park_self`]). The completing rank hands the handle back to the
//! scheduler ([`Waiter::wake`]) with the completion's virtual time, which
//! marks the rank runnable LVT-first. The parked thread wakes exactly once,
//! already holding an execution slot. A blocked rank is therefore always
//! parked in the scheduler, never on a fabric-private condvar.
//!
//! Two invariants make this safe and deterministic:
//!
//! * **Runnable-set invariant**: `free > 0` implies the ready-queue is
//!   empty. A releasing rank hands its slot directly to the lowest-clock
//!   waiter (no thundering herd); the free count only grows when nobody is
//!   waiting. Both transitions happen under one lock, so a rank can never
//!   park while a slot sits idle.
//! * **Lock discipline**: [`yield_slot`] (slot release — never blocks) may
//!   be called while holding a fabric lock, and must be, so the waiter is
//!   registered under the same lock hold that saw the wait predicate false.
//!   [`park_self`] (may park) must only be called with no fabric lock held.
//!   Plain mutex holders never park, so a slot-holder can always make
//!   progress: no cycle between the admission gate and fabric locks is
//!   possible.
//!
//! Determinism is *not* a property of the schedule: completion times are
//! computed from virtual quantities only (see `msg::match_timing`), so any
//! interleaving — one slot, a few, or one per rank — produces bit-identical
//! results. LVT-first is purely a wall-clock optimization.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::metrics::SchedStats;
use crate::time::Time;

struct SchedInner {
    /// Unheld execution slots. Invariant: `free > 0` ⇒ `ready` is empty.
    free: usize,
    /// Ranks waiting for a slot, ordered by (virtual clock, rank).
    ready: BinaryHeap<Reverse<(Time, usize)>>,
    /// Peak simultaneous slot holders (physical; for tuning reports only).
    max_occupied: usize,
    /// Total slot grants (fast-path acquisitions + handoffs + wakeups).
    grants: u64,
    /// Times a rank queued for a slot.
    parks: u64,
}

impl SchedInner {
    /// Account one slot assignment out of the free pool (caller already
    /// decremented `free`). Must run under the inner lock.
    #[inline]
    fn on_grant_from_free(&mut self, workers: usize) {
        self.grants += 1;
        self.max_occupied = self.max_occupied.max(workers - self.free);
    }
}

/// Per-rank wakeup cell: a dedicated condvar per rank avoids waking the
/// whole pool to grant one slot.
#[derive(Default)]
struct Parker {
    granted: Mutex<bool>,
    cv: Condvar,
}

/// The admission gate: `workers` execution slots over `nranks` rank threads.
pub struct Scheduler {
    inner: Mutex<SchedInner>,
    parkers: Vec<Parker>,
    workers: usize,
}

impl Scheduler {
    /// A gate with `workers` slots (clamped to `1..=nranks`).
    pub fn new(nranks: usize, workers: usize) -> Arc<Self> {
        let workers = workers.clamp(1, nranks.max(1));
        Arc::new(Scheduler {
            inner: Mutex::new(SchedInner {
                free: workers,
                ready: BinaryHeap::new(),
                max_occupied: 0,
                grants: 0,
                parks: 0,
            }),
            parkers: (0..nranks).map(|_| Parker::default()).collect(),
            workers,
        })
    }

    /// Number of execution slots.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot of the occupancy counters. Physical (wall-clock
    /// interleaving dependent) — reported for tuning, never folded into
    /// deterministic profile output.
    pub fn stats(&self) -> SchedStats {
        let g = self.inner.lock();
        SchedStats {
            slots: self.workers,
            max_occupied: g.max_occupied,
            grants: g.grants,
            parks: g.parks,
        }
    }

    /// Acquire an execution slot for `rank`, parking LVT-first if the pool
    /// is saturated. Must not be called while holding any fabric lock.
    pub fn acquire(&self, rank: usize, clock: Time) {
        {
            let mut g = self.inner.lock();
            if g.free > 0 {
                g.free -= 1;
                g.on_grant_from_free(self.workers);
                return;
            }
            g.parks += 1;
            g.ready.push(Reverse((clock, rank)));
        }
        self.park(rank);
    }

    /// Release the caller's slot, handing it directly to the waiting rank
    /// with the lowest virtual clock (if any). Never blocks.
    pub fn release(&self) {
        let next = {
            let mut g = self.inner.lock();
            match g.ready.pop() {
                Some(Reverse((_, rank))) => {
                    // Direct handoff: occupancy unchanged, one more grant.
                    g.grants += 1;
                    Some(rank)
                }
                None => {
                    g.free += 1;
                    None
                }
            }
        };
        if let Some(rank) = next {
            self.grant(rank);
        }
    }

    /// Mark `rank` runnable at virtual time `clock` after it yielded its
    /// slot and parked: grant a free slot directly, else queue LVT-first.
    /// Called from the *completing* thread; never blocks, and safe to call
    /// with fabric locks held.
    fn make_ready(&self, rank: usize, clock: Time) {
        let grant = {
            let mut g = self.inner.lock();
            if g.free > 0 {
                debug_assert!(g.ready.is_empty(), "free slot with queued ranks");
                g.free -= 1;
                g.on_grant_from_free(self.workers);
                true
            } else {
                g.parks += 1;
                g.ready.push(Reverse((clock, rank)));
                false
            }
        };
        if grant {
            self.grant(rank);
        }
    }

    /// Wake `rank`'s parker with a slot grant.
    fn grant(&self, rank: usize) {
        let p = &self.parkers[rank];
        let mut granted = p.granted.lock();
        *granted = true;
        p.cv.notify_one();
    }

    /// Park the calling rank thread until a slot grant arrives (a grant may
    /// already be pending, in which case this returns immediately).
    fn park(&self, rank: usize) {
        let p = &self.parkers[rank];
        let mut granted = p.granted.lock();
        while !*granted {
            p.cv.wait(&mut granted);
        }
        *granted = false;
    }
}

/// Identity of a rank that yielded its slot to wait for a completion.
/// The completing thread hands it back to the scheduler via [`Waiter::wake`]
/// so the parked rank wakes exactly once — already holding a slot.
pub(crate) struct Waiter {
    sched: Arc<Scheduler>,
    rank: usize,
    /// The rank's last noted clock when it yielded: its slot-queue priority
    /// for completers that carry no virtual time of their own.
    clock: Time,
}

impl Waiter {
    /// Completer side: mark the parked rank runnable at virtual time
    /// `clock` (its slot-queue priority). Never blocks.
    pub(crate) fn wake(self, clock: Time) {
        self.sched.make_ready(self.rank, clock);
    }

    /// [`Waiter::wake`] at the clock the rank noted before it parked, for
    /// completions that are not timed (allocations, flow-control credit).
    pub(crate) fn wake_at_own_clock(self) {
        let clock = self.clock;
        self.wake(clock);
    }
}

impl std::fmt::Debug for Waiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Waiter(rank {})", self.rank)
    }
}

/// Thread-local identity of the rank driving this OS thread. Blocking
/// primitives anywhere in the crate consult this to yield/reacquire their
/// slot — including raw request waits issued by layers above `RankCtx`.
struct Current {
    sched: Arc<Scheduler>,
    rank: usize,
    /// Latest virtual clock reported by the rank (slot-queue priority hint;
    /// staleness affects only wall-clock order, never results).
    clock: Cell<Time>,
}

thread_local! {
    static CURRENT: RefCell<Option<Current>> = const { RefCell::new(None) };
}

/// RAII registration of a rank thread with its scheduler: acquires the
/// initial slot, installs the thread-local gate, and on drop (including
/// unwinds) releases the slot so a panicking rank never strands the pool.
pub(crate) struct RankSlot;

impl RankSlot {
    pub(crate) fn enter(sched: Arc<Scheduler>, rank: usize) -> RankSlot {
        sched.acquire(rank, Time::ZERO);
        CURRENT.with(|c| {
            *c.borrow_mut() = Some(Current {
                sched,
                rank,
                clock: Cell::new(Time::ZERO),
            })
        });
        RankSlot
    }
}

impl Drop for RankSlot {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            if let Some(cur) = c.borrow_mut().take() {
                cur.sched.release();
            }
        });
    }
}

/// Record the rank's current virtual clock for slot-queue priority.
#[inline]
pub(crate) fn note_clock(t: Time) {
    CURRENT.with(|c| {
        if let Some(cur) = &*c.borrow() {
            cur.clock.set(t);
        }
    });
}

/// Run `f` on the calling thread's rank registration. A wait only reaches
/// here once its predicate is false, so outside a rank it could never be
/// woken: fail loudly instead of hanging.
fn with_current<R>(f: impl FnOnce(&Current) -> R) -> R {
    CURRENT.with(|c| match &*c.borrow() {
        Some(cur) => f(cur),
        None => panic!(
            "netsim: a blocking wait on a thread that is not a simulated rank \
             (block only inside netsim::run)"
        ),
    })
}

/// Begin a single-wake wait: yield the caller's slot and return the handle
/// a completer must later [`Waiter::wake`]. Safe to call with fabric locks
/// held (never blocks). Panics on a thread that is not a rank.
///
/// The caller must register the handle (under the same lock hold that
/// established the wait predicate is false), drop its locks, and then
/// [`park_self`]. Registering under one continuous lock hold is what makes
/// the protocol race-free: the completer cannot observe-and-miss the waiter.
#[inline]
pub(crate) fn yield_slot() -> Waiter {
    with_current(|cur| {
        cur.sched.release();
        Waiter {
            sched: Arc::clone(&cur.sched),
            rank: cur.rank,
            clock: cur.clock.get(),
        }
    })
}

/// Complete a single-wake wait: park until a completer wakes this rank via
/// [`Waiter::wake`]. On return the rank holds an execution slot and the
/// awaited predicate is true. Must be called with **no** fabric lock held.
#[inline]
pub(crate) fn park_self() {
    with_current(|cur| cur.sched.park(cur.rank));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn slots_bound_concurrency() {
        let sched = Scheduler::new(8, 2);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for rank in 0..8 {
                let sched = Arc::clone(&sched);
                let running = Arc::clone(&running);
                let peak = Arc::clone(&peak);
                s.spawn(move || {
                    sched.acquire(rank, Time(rank as u64));
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(std::time::Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                    sched.release();
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn release_hands_off_to_lowest_clock() {
        let sched = Scheduler::new(3, 1);
        sched.acquire(0, Time(0));
        let order = Arc::new(Mutex::new(Vec::new()));
        thread::scope(|s| {
            for (rank, clock) in [(1usize, Time(500)), (2usize, Time(100))] {
                let sched = Arc::clone(&sched);
                let order = Arc::clone(&order);
                s.spawn(move || {
                    sched.acquire(rank, clock);
                    order.lock().push(rank);
                    sched.release();
                });
            }
            // Let both waiters queue before releasing the only slot.
            thread::sleep(std::time::Duration::from_millis(20));
            sched.release();
        });
        // Rank 2 (clock 100) must be granted before rank 1 (clock 500).
        assert_eq!(*order.lock(), vec![2, 1]);
    }

    #[test]
    fn workers_clamped() {
        assert_eq!(Scheduler::new(4, 0).workers(), 1);
        assert_eq!(Scheduler::new(4, 99).workers(), 4);
    }
}
