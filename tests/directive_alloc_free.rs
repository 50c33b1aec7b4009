//! A `comm_p2p` instance on a rank that neither sends nor receives performs
//! no heap allocation.
//!
//! Every rank runs every directive instance and `sendwhen`/`receivewhen`
//! pick the few that communicate (the paper's Listing 7), so instances grow
//! as ranks × iterations and nearly all of them belong to ranks that do
//! nothing. This suite pins the mechanism that keeps those cheap: a
//! counting global allocator tallies allocations per thread, and after
//! warm-up the non-participating ranks' instances must allocate exactly
//! zero times, on every target and at two execution slot counts. Counts,
//! not timings, so the check is deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use commint::prelude::*;
use mpisim::Comm;
use netsim::{run, ExecPolicy, SimConfig};

/// Forwards to the system allocator, counting allocations made by the
/// calling thread (each simulated rank runs on a thread of its own).
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: touching it never
    // allocates, so the allocator itself can use it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller's guarantees for `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RANKS: usize = 4;
/// Instances before counting starts: the first one validates the site,
/// records its IR and allocates the symmetric staging.
const WARMUP: usize = 2;
/// Counted instances.
const K: usize = 64;

/// Allocations made by each rank during its `K` counted instances of a
/// Listing-7-shaped region: rank 0 sends three doubles to rank 1 on every
/// instance, ranks 2 and 3 never participate.
fn counted_allocs(target: Target, exec: ExecPolicy) -> Vec<u64> {
    let res = run(SimConfig::new(RANKS).with_exec(exec), move |ctx| {
        let comm = Comm::world(ctx);
        let mut session = CommSession::new(ctx, comm).without_ir();
        let me = session.rank();
        session.set_var("sp_src", 0);
        session.set_var("sp_dst", 1);
        let params = CommParams::new()
            .sender(RankExpr::var("sp_src"))
            .receiver(RankExpr::var("sp_dst"))
            .sendwhen(RankExpr::rank().eq(RankExpr::var("sp_src")))
            .receivewhen(RankExpr::rank().eq(RankExpr::var("sp_dst")))
            .count(3)
            .max_comm_iter((WARMUP + K) as i64)
            .target(target);
        let ev = [1.0f64, 2.0, 3.0];
        // Receivers get a fresh slice per instance, so no buffer
        // dependence splits the region's synchronization.
        let mut staged = vec![0.0f64; 3 * (WARMUP + K)];
        let mut counted = 0;
        session
            .region(&params, |reg| {
                let empty: [f64; 0] = [];
                let mut before = 0;
                for (i, slot) in staged.chunks_mut(3).enumerate() {
                    if i == WARMUP {
                        before = allocs_on_this_thread();
                    }
                    // As in `set_evec_directive`: ranks that take no part
                    // pass empty placeholder buffers.
                    let src: &[f64] = if me == 0 { &ev } else { &empty };
                    let dst: &mut [f64] = if me == 1 { slot } else { &mut [] };
                    reg.set_var("sp_dst", 1);
                    reg.p2p()
                        .site(11)
                        .sbuf(Prim::new("ev", src))
                        .rbuf(PrimMut::new("staged", dst))
                        .run()
                        .expect("instance runs");
                }
                counted = allocs_on_this_thread() - before;
            })
            .expect("region runs");
        session.flush();
        if me == 1 {
            assert!(staged.iter().all(|&v| v != 0.0), "rank 1 got every payload");
        }
        counted
    });
    res.per_rank
}

fn assert_nonparticipants_alloc_free(exec: ExecPolicy) {
    for target in Target::ALL {
        let counts = counted_allocs(target, exec);
        assert_eq!(
            &counts[2..],
            &[0, 0],
            "{target} under {exec:?}: non-participant instances allocated \
             (per-rank counts {counts:?})"
        );
    }
}

#[test]
fn nonparticipant_instances_allocate_nothing_default() {
    assert_nonparticipants_alloc_free(ExecPolicy::default());
}

#[test]
fn nonparticipant_instances_allocate_nothing_bounded() {
    assert_nonparticipants_alloc_free(ExecPolicy::bounded(1));
}
