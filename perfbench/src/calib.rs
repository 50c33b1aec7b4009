//! Host-speed calibration.
//!
//! On a shared virtual machine the same code runs up to a third slower
//! for minutes at a time (clock, cache and scheduling contention from
//! neighbours), which would swamp any change worth gating. A fixed kernel
//! that uses none of the repository's code is timed next to the measured
//! operations, and each timing gives a host factor
//! `reference / kernel time`. Scaling a time by the factor measured with
//! it cancels host drift while a change in the program's own cost passes
//! through unchanged: scaled times are in *reference* ms, what the
//! operation would take on a host where the kernel takes its reference
//! time. The table printed before the result line keeps the raw medians.
//!
//! A kernel only cancels drift it shares with the workload, so each
//! workload uses the one that tracked it in repeated runs (see
//! `perfbench/README.md`).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Which kernel scales a workload's times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Calib {
    /// One thread runs `passes` kernel passes (the analysis workload).
    OneThread,
    /// Two threads take `passes` turns each, handing the turn over
    /// through a mutex and condition variable as the bounded scheduler
    /// does (the simulations).
    HandOff,
}

/// Reference time of one kernel pass, in ms.
const REF_PASS_MS: f64 = 0.04;
/// Reference time of one hand-off turn (a pass plus the hand-off), in ms.
const REF_TURN_MS: f64 = 0.06;

/// One pass: format, hash and sort a few hundred short strings, the mix
/// of allocation, hashing and branching the measured layers also do.
fn kernel() {
    let mut map: HashMap<String, u64> = HashMap::with_capacity(256);
    let mut keys: Vec<String> = Vec::with_capacity(200);
    for i in 0..200u64 {
        let mut s = String::with_capacity(8);
        let _ = write!(s, "k{}", i.wrapping_mul(2_654_435_761) % 10_007);
        keys.push(s.clone());
        map.insert(s, i);
    }
    keys.sort_unstable();
    black_box((map.len(), keys.len()));
}

/// Two threads alternate `turns` times each, running one kernel pass per
/// turn. Returns ms per turn.
fn hand_off(turns: usize) -> f64 {
    let turn = Mutex::new(0usize);
    let cv = Condvar::new();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for me in 0..2 {
            let (turn, cv) = (&turn, &cv);
            s.spawn(move || {
                for _ in 0..turns {
                    let mut t = turn.lock().expect("hand-off lock poisoned");
                    while *t % 2 != me {
                        t = cv.wait(t).expect("hand-off lock poisoned");
                    }
                    drop(t);
                    kernel();
                    *turn.lock().expect("hand-off lock poisoned") += 1;
                    cv.notify_all();
                }
            });
        }
    });
    t0.elapsed().as_secs_f64() * 1e3 / (2 * turns) as f64
}

/// The factor that turns host time measured now into reference time.
pub fn factor(cal: Calib, passes: usize) -> f64 {
    match cal {
        Calib::OneThread => {
            let t0 = Instant::now();
            for _ in 0..passes {
                kernel();
            }
            REF_PASS_MS / (t0.elapsed().as_secs_f64() * 1e3 / passes as f64)
        }
        Calib::HandOff => REF_TURN_MS / hand_off(passes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_are_positive_and_finite() {
        for cal in [Calib::OneThread, Calib::HandOff] {
            let f = factor(cal, 2);
            assert!(f.is_finite() && f > 0.0, "{cal:?}: {f}");
        }
    }
}
