//! The metrics registry: per-rank and per-site counters and histograms,
//! collected inside the rank runtime when enabled via
//! [`crate::SimConfig::with_metrics`].
//!
//! Two design rules, both load-bearing:
//!
//! * **Near-zero overhead when disabled.** Each rank context holds an
//!   `Option<Box<RankMetrics>>`; every hook is a single branch on `None`.
//!   No locks, no allocation, no atomic traffic on the hot path.
//! * **Deterministic when enabled.** Every recorded quantity is a pure
//!   function of *virtual* time and workload structure (post/completion
//!   clocks, message sizes, waitall widths), never of thread interleaving —
//!   so a metrics dump is bit-identical at any execution slot count (the
//!   default one per rank or `ExecPolicy::bounded(w)` for any `w`) and any
//!   sweep-pool width. The
//!   interleaving-dependent *physical* counters (unexpected-queue high
//!   water, matcher scan steps, mailbox locks, scheduler slot occupancy)
//!   live in [`crate::RankStats`] / [`SchedStats`] instead and are never
//!   folded into metric dumps that promise byte equality.

use crate::time::Time;
use crate::trace::SiteId;

/// Number of power-of-two buckets in a [`Hist`]. Bucket `i` counts values
/// `v` with `2^(i-1) < v <= 2^i` (bucket 0 counts zero).
pub const HIST_BUCKETS: usize = 40;

/// A deterministic log2 histogram over `u64` samples, with exact count,
/// sum, and max so means are reconstructible without bucket error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Power-of-two buckets; see [`HIST_BUCKETS`].
    pub buckets: [u64; HIST_BUCKETS],
    /// Number of recorded samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Largest recorded sample.
    pub max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Hist {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// The `p`-th percentile (0–100), resolved at bucket granularity: the
    /// upper bound of the first bucket whose cumulative count covers the
    /// percentile rank, clamped to the exact recorded max. A pure function
    /// of the (deterministic) bucket counts, so it is byte-stable across
    /// execution engines. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (((p / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let upper = if i == 0 { 0 } else { 1u64 << i.min(63) };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Per-directive-site counters on one rank. Sites appear in first-touch
/// (program) order, which is deterministic per rank.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteMetrics {
    /// The directive call site.
    pub site: SiteId,
    /// Two-sided messages initiated at this site.
    pub msgs_sent: u64,
    /// Bytes moved by sends and puts at this site.
    pub bytes_sent: u64,
    /// Receives completed at this site.
    pub msgs_recvd: u64,
    /// Bytes received at this site.
    pub bytes_recvd: u64,
    /// Total posted-receive dwell (completion - post) at this site, ns.
    pub dwell_ns: u64,
}

/// Per-rank metrics, owned by the rank thread (no synchronization) and
/// collected into [`crate::SimResult::metrics`] after the run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankMetrics {
    /// Two-sided messages initiated.
    pub msgs_sent: u64,
    /// Bytes moved by two-sided sends.
    pub bytes_sent: u64,
    /// Receives completed.
    pub msgs_recvd: u64,
    /// Bytes delivered to this rank's receives.
    pub bytes_recvd: u64,
    /// One-sided puts initiated / bytes put.
    pub puts: u64,
    /// Bytes moved by puts.
    pub bytes_put: u64,
    /// Virtual ns spent in synchronization operations (wait, waitall,
    /// barrier, quiet), including their software overhead.
    pub wait_ns: u64,
    /// Posted-receive dwell times (completion - post), ns.
    pub recv_dwell: Hist,
    /// Widths of consolidated completions (waitall / region sync).
    pub waitall_width: Hist,
    /// Per-site breakdown, first-touch order.
    pub sites: Vec<SiteMetrics>,
}

impl RankMetrics {
    /// The per-site slot for `site`, created on first touch.
    #[inline]
    pub fn site_mut(&mut self, site: SiteId) -> &mut SiteMetrics {
        // Linear scan: directive programs have a handful of sites, and the
        // vec stays cache-resident (same shape as the engine's site tables).
        let idx = match self.sites.iter().position(|s| s.site == site) {
            Some(i) => i,
            None => {
                self.sites.push(SiteMetrics {
                    site,
                    ..Default::default()
                });
                self.sites.len() - 1
            }
        };
        &mut self.sites[idx]
    }

    /// Record a send of `bytes` attributed to `site` (if any).
    #[inline]
    pub fn on_send(&mut self, bytes: usize, site: Option<SiteId>) {
        self.msgs_sent += 1;
        self.bytes_sent += bytes as u64;
        if let Some(s) = site {
            let sm = self.site_mut(s);
            sm.msgs_sent += 1;
            sm.bytes_sent += bytes as u64;
        }
    }

    /// Record a put of `bytes` attributed to `site` (if any).
    #[inline]
    pub fn on_put(&mut self, bytes: usize, site: Option<SiteId>) {
        self.puts += 1;
        self.bytes_put += bytes as u64;
        if let Some(s) = site {
            let sm = self.site_mut(s);
            sm.msgs_sent += 1;
            sm.bytes_sent += bytes as u64;
        }
    }

    /// Record a completed receive: `bytes` delivered, posted at `posted`,
    /// complete at `completion` (both virtual).
    #[inline]
    pub fn on_recv_complete(
        &mut self,
        bytes: usize,
        posted: Time,
        completion: Time,
        site: Option<SiteId>,
    ) {
        self.msgs_recvd += 1;
        self.bytes_recvd += bytes as u64;
        let dwell = completion.saturating_sub(posted).as_nanos();
        self.recv_dwell.record(dwell);
        if let Some(s) = site {
            let sm = self.site_mut(s);
            sm.msgs_recvd += 1;
            sm.bytes_recvd += bytes as u64;
            sm.dwell_ns += dwell;
        }
    }

    /// Record a synchronization span `start..end` (virtual).
    #[inline]
    pub fn on_sync(&mut self, start: Time, end: Time) {
        self.wait_ns += end.saturating_sub(start).as_nanos();
    }

    /// Record a consolidated completion over `n` requests.
    #[inline]
    pub fn on_waitall(&mut self, n: usize) {
        self.waitall_width.record(n as u64);
    }

    /// Merge another rank's metrics (for whole-job aggregates). Per-site
    /// entries merge by site id; the union keeps the callee's first-touch
    /// order, then the other's unseen sites.
    pub fn merge(&mut self, other: &RankMetrics) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_recvd += other.msgs_recvd;
        self.bytes_recvd += other.bytes_recvd;
        self.puts += other.puts;
        self.bytes_put += other.bytes_put;
        self.wait_ns += other.wait_ns;
        self.recv_dwell.merge(&other.recv_dwell);
        self.waitall_width.merge(&other.waitall_width);
        for os in &other.sites {
            let sm = self.site_mut(os.site);
            sm.msgs_sent += os.msgs_sent;
            sm.bytes_sent += os.bytes_sent;
            sm.msgs_recvd += os.msgs_recvd;
            sm.bytes_recvd += os.bytes_recvd;
            sm.dwell_ns += os.dwell_ns;
        }
    }
}

/// Physical occupancy counters from the scheduler. These depend on
/// wall-clock interleaving and are reported for tuning only — never part of
/// deterministic profile output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Configured worker slots.
    pub slots: usize,
    /// Peak number of simultaneously held slots.
    pub max_occupied: usize,
    /// Total slot grants (initial acquisitions + wakeups with handoff).
    pub grants: u64,
    /// Times a rank parked waiting for a slot.
    pub parks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_and_moments() {
        let mut h = Hist::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(1024);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1027);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 1); // zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 1); // 2
        assert_eq!(h.buckets[11], 1); // 1024 = 2^10, ceil bucket
        assert!((h.mean() - 1027.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn site_attribution_first_touch_order() {
        let mut m = RankMetrics::default();
        m.on_send(10, Some(7));
        m.on_send(20, Some(3));
        m.on_recv_complete(5, Time(100), Time(400), Some(7));
        assert_eq!(m.sites.len(), 2);
        assert_eq!(m.sites[0].site, 7);
        assert_eq!(m.sites[1].site, 3);
        assert_eq!(m.sites[0].bytes_sent, 10);
        assert_eq!(m.sites[0].dwell_ns, 300);
        assert_eq!(m.msgs_sent, 2);
        assert_eq!(m.bytes_recvd, 5);
    }

    #[test]
    fn merge_folds_sites_by_id() {
        let mut a = RankMetrics::default();
        a.on_send(10, Some(1));
        a.on_sync(Time(0), Time(50));
        let mut b = RankMetrics::default();
        b.on_send(30, Some(1));
        b.on_put(4, Some(9));
        a.merge(&b);
        assert_eq!(a.sites.len(), 2);
        assert_eq!(a.sites[0].bytes_sent, 40);
        assert_eq!(a.wait_ns, 50);
        assert_eq!(a.puts, 1);
    }
}
