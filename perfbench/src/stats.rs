//! Sample statistics and the metric catalogue.

/// A set of timing samples. Every statistic reports the count it rests on.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    v: Vec<f64>,
    sorted: bool,
}

/// The fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, x: f64) {
        self.v.push(x);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.v.iter().sum()
    }

    fn sorted(&mut self) -> &[f64] {
        if !self.sorted {
            self.v.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        &self.v
    }

    /// The median (mean of the two middle samples for an even count), or
    /// `None` without samples.
    pub fn median(&mut self) -> Option<f64> {
        let v = self.sorted();
        let n = v.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(v[n / 2]),
            _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
        }
    }

    /// Samples strictly beyond the `p`-th percentile's rank.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.v.len();
        n - ((p / 100.0 * n as f64).ceil() as usize).min(n)
    }

    /// The `p`-th percentile (nearest rank) with the sample count, refused
    /// when fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&mut self, p: f64) -> Result<(f64, usize), String> {
        let n = self.v.len();
        let beyond = self.beyond(p);
        if beyond < MIN_BEYOND {
            return Err(format!(
                "p{p} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}"
            ));
        }
        let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
        Ok((self.sorted()[rank - 1], n))
    }

    /// The highest of the usual tail percentiles that [`Self::percentile`]
    /// accepts.
    pub fn highest_tail(&mut self) -> Option<(f64, f64)> {
        [99.9, 99.0, 95.0, 90.0, 75.0]
            .into_iter()
            .find_map(|p| self.percentile(p).ok().map(|(v, _)| (p, v)))
    }
}

/// Kinds of a metric value, with the unit it prints under.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Reported by every workload with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("op_p50_ms", "ms"),
    m("light_p50_ms", "ms"),
    m("ops_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
];

/// Reported by every workload with tracing on.
pub const PER_LAYER: &[MetricDef] = &[
    m("netsim.run.spawn_s", "s"),
    m("netsim.barrier.calls", "count"),
    m("netsim.barrier.busy_ns", "ns"),
    m("netsim.barrier.wait_ns", "ns"),
    m("netsim.sched.grants", "count"),
    m("netsim.sched.parks", "count"),
    m("netsim.sched.park_ratio", "ratio"),
    m("netsim.scale_ratio", "ratio"),
    m("netsim.fabric.sends", "count"),
    m("netsim.fabric.puts", "count"),
    m("netsim.fabric.bytes", "bytes"),
    m("netsim.fabric.barriers", "count"),
    m("netsim.fabric.quiets", "count"),
    m("netsim.fabric.match_scan_steps", "count"),
    m("netsim.fabric.match_steps_per_recv", "ratio"),
    m("netsim.fabric.uq_high_water", "count"),
    m("netsim.fabric.mailbox_locks", "count"),
    m("mpisim.packed_bytes", "bytes"),
    m("mpisim.datatype_commits", "count"),
    m("mpisim.dtype_cache_hit_ratio", "ratio"),
    m("core.scope.directive.calls", "count"),
    m("core.scope.directive.busy_ns", "ns"),
    m("core.scope.directive.wait_ns", "ns"),
    m("wl_lsms.build_comms.calls", "count"),
    m("wl_lsms.build_comms.busy_ns", "ns"),
    m("wl_lsms.build_comms.wait_ns", "ns"),
    m("commintd.request.edit_p50_ms", "ms"),
    m("commintd.request.read_p50_ms", "ms"),
    m("commintd.request.open_p50_ms", "ms"),
    m("commintd.proto.parse_request.busy_ns", "ns"),
    m("commintd.proto.handle.calls", "count"),
    m("commintd.proto.handle.busy_ns", "ns"),
    m("commintd.engine.analyze.calls", "count"),
    m("commintd.engine.analyze.busy_ns", "ns"),
    m("commintd.engine.prove.calls", "count"),
    m("commintd.engine.prove.busy_ns", "ns"),
    m("core.cas.hits", "count"),
    m("core.cas.misses", "count"),
    m("core.cas.invalidations", "count"),
    m("core.cas.hit_ratio", "ratio"),
    m("core.cas.entries", "count"),
    m("pragma_front.parse.busy_ns", "ns"),
    m("commlint.hash.busy_ns", "ns"),
    m("commlint.lint.busy_ns", "ns"),
    m("commprove.prove.busy_ns", "ns"),
    m("process.cpu_s", "s"),
    m("process.cpu_util", "ratio"),
    m("trace.overhead_frac", "ratio"),
];

/// Render the result line for the metrics `defs`, each taken from
/// `values`. A metric that is missing or not finite is printed as `null`
/// and counted as an attempted and failed operation, so the run is not
/// correct.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &[(&str, f64)],
) -> String {
    let mut bad = 0u64;
    let body: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|x| x.1)
                .filter(|v| v.is_finite());
            let v = v.map_or_else(
                || {
                    bad += 1;
                    "null".to_string()
                },
                |v| v.to_string(),
            );
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && bad == 0,
        attempted + bad,
        failed + bad,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: a letter or digit first, then
    /// letters, digits, `_`, `.` and `-`, at most 64 in all.
    pub fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
    /// `%`, `.` and `-`.
    pub fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn percentile_reports_count_and_refuses_thin_tails() {
        let mut s = Samples::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(90.0), Ok((90.0, 100)));
        assert_eq!(s.percentile(50.0), Ok((50.0, 100)));
        // p99 of 100 samples has 1 beyond it; p95 has 5.
        assert!(s.percentile(99.0).is_err());
        assert!(s.percentile(95.0).is_err());
        assert_eq!(s.highest_tail(), Some((90.0, 90.0)));
        assert_eq!(s.median(), Some(50.5));

        let mut few = Samples::new();
        for i in 0..19 {
            few.push(i as f64);
        }
        // 19 samples: only 9 lie beyond the median's rank.
        assert!(few.percentile(50.0).is_err());
        assert_eq!(few.highest_tail(), None);
        assert_eq!(few.median(), Some(9.0));
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let mut s = Samples::new();
        for i in 0..999 {
            s.push(i as f64);
        }
        assert!(s.percentile(99.0).is_err());
        s.push(999.0);
        assert_eq!(s.percentile(99.0), Ok((989.0, 1000)));
    }

    #[test]
    fn metric_names_and_units_are_within_limits() {
        assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
        assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "metric {} named twice", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let named = doc.matches("\"name\":").count();
        let workloads = doc.matches("\"why\":").count();
        assert_eq!(named, workloads + END_TO_END.len() + PER_LAYER.len());
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_has_every_metric() {
        let defs = &END_TO_END[..2];
        let line = result_json(true, 3, 0, defs, &[("op_p50_ms", 1.5), ("setup_s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.25, \"unit\": \"s\"}, \"op_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn unmeasured_metric_fails_the_run() {
        let defs = &END_TO_END[..2];
        let line = result_json(true, 3, 0, defs, &[("setup_s", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 5, \"failed\": 2, \"metrics\": {\"setup_s\": \
             {\"value\": null, \"unit\": \"s\"}, \"op_p50_ms\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
