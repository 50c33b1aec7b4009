//! Machine-readable benchmark reports: the `--json` report schema shared by
//! the figure binaries and baseline comparison for the CI perf-smoke gate.
//! The JSON value type itself is the workspace codec, [`commint::json`],
//! re-exported here.
//!
//! Schema (stable; bump `schema` on breaking changes):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "bench": "fig4",
//!   "args": {"stride": 4, "steps": 4, "workers": -1},
//!   "ranks": [33, 97],
//!   "series": [
//!     {"label": "...", "time_ns": [123, 456],
//!      "stats": {"sends": 1, "recvs": 1, "...": 0},
//!      "contention": [3, 120, 240]}
//!   ],
//!   "wall_s": 1.25
//! }
//! ```
//!
//! `time_ns` are per-step virtual times — pure functions of the workload,
//! identical across engines, worker counts and hosts, so a baseline diff on
//! them is exact (integer equality). `stats` carries only the *virtual*
//! operation counters. `contention` is the physical hot-path triple
//! `[uq_high_water, match_scan_steps, mailbox_locks]`: interleaving-
//! dependent, so baseline comparison only *warns* on drift (like `wall_s`,
//! which is compared with a slack factor) — it never fails the gate, and
//! the CI engine byte-diff filters the line out.

use netsim::RankStats;

pub use commint::json::Json;

/// The deterministic (virtual-quantity) subset of [`RankStats`] that goes
/// into reports; order is the schema's field order.
const STAT_FIELDS: [&str; 15] = [
    "sends",
    "recvs",
    "bytes_sent",
    "waits",
    "waitalls",
    "puts",
    "bytes_put",
    "gets",
    "barriers",
    "quiets",
    "packed_bytes",
    "datatype_commits",
    "race_checks",
    "conflicts_found",
    "dtype_cache_hits",
];

/// Index of `conflicts_found` in [`STAT_FIELDS`] (the hard race gate).
const CONFLICTS_IDX: usize = 13;

fn stat_values(s: &RankStats) -> [usize; 15] {
    [
        s.sends,
        s.recvs,
        s.bytes_sent,
        s.waits,
        s.waitalls,
        s.puts,
        s.bytes_put,
        s.gets,
        s.barriers,
        s.quiets,
        s.packed_bytes,
        s.datatype_commits,
        s.race_checks,
        s.conflicts_found,
        s.dtype_cache_hits,
    ]
}

/// One series of a benchmark report.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesReport {
    pub label: String,
    /// Per-x virtual times in ns (exact integers).
    pub time_ns: Vec<u64>,
    /// Merged deterministic operation counters across the series' runs.
    pub stats: [usize; 15],
    /// Physical contention counters `[uq_high_water, match_scan_steps,
    /// mailbox_locks]` merged across the series' runs. Interleaving-
    /// dependent: recorded for tuning, soft-gated only.
    pub contention: [usize; 3],
}

impl SeriesReport {
    pub fn new(label: impl Into<String>, time_ns: Vec<u64>, stats: &RankStats) -> Self {
        SeriesReport {
            label: label.into(),
            time_ns,
            stats: stat_values(stats),
            contention: [
                stats.uq_high_water,
                stats.match_scan_steps,
                stats.mailbox_locks,
            ],
        }
    }
}

/// A `--json` benchmark report: everything above `wall_s` except
/// `contention` is a pure function of the workload and engine-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    pub bench: String,
    /// Flat integer arguments (`workers` is `-1` for thread-per-rank).
    pub args: Vec<(String, i64)>,
    pub ranks: Vec<usize>,
    pub series: Vec<SeriesReport>,
    pub wall_s: f64,
}

impl BenchReport {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Int(1)),
            ("bench".into(), Json::Str(self.bench.clone())),
            (
                "args".into(),
                Json::Obj(
                    self.args
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v)))
                        .collect(),
                ),
            ),
            (
                "ranks".into(),
                Json::Arr(self.ranks.iter().map(|&r| Json::Int(r as i64)).collect()),
            ),
            (
                "series".into(),
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("label".into(), Json::Str(s.label.clone())),
                                (
                                    "time_ns".into(),
                                    Json::Arr(
                                        s.time_ns.iter().map(|&t| Json::Int(t as i64)).collect(),
                                    ),
                                ),
                                (
                                    "stats".into(),
                                    Json::Obj(
                                        STAT_FIELDS
                                            .iter()
                                            .zip(s.stats)
                                            .map(|(k, v)| ((*k).into(), Json::Int(v as i64)))
                                            .collect(),
                                    ),
                                ),
                                (
                                    "contention".into(),
                                    Json::Arr(
                                        s.contention.iter().map(|&c| Json::Int(c as i64)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("wall_s".into(), Json::Num(self.wall_s)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<BenchReport, String> {
        let need = |k: &str| j.get(k).ok_or_else(|| format!("missing field '{k}'"));
        let schema = need("schema")?.as_i64().ok_or("schema not an int")?;
        if schema != 1 {
            return Err(format!("unsupported schema {schema}"));
        }
        let bench = need("bench")?.as_str().ok_or("bench not a string")?.into();
        let args = match need("args")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| v.as_i64().map(|v| (k.clone(), v)).ok_or("bad arg value"))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("args not an object".into()),
        };
        let ranks = need("ranks")?
            .as_arr()
            .ok_or("ranks not an array")?
            .iter()
            .map(|v| v.as_i64().map(|i| i as usize).ok_or("bad rank"))
            .collect::<Result<Vec<_>, _>>()?;
        let series = need("series")?
            .as_arr()
            .ok_or("series not an array")?
            .iter()
            .map(|s| {
                let label = s
                    .get("label")
                    .and_then(Json::as_str)
                    .ok_or("series missing label")?
                    .to_string();
                let time_ns = s
                    .get("time_ns")
                    .and_then(Json::as_arr)
                    .ok_or("series missing time_ns")?
                    .iter()
                    .map(|v| v.as_i64().map(|i| i as u64).ok_or("bad time_ns"))
                    .collect::<Result<Vec<_>, _>>()?;
                let stats_obj = s.get("stats").ok_or("series missing stats")?;
                let mut stats = [0usize; 15];
                for (i, (slot, key)) in stats.iter_mut().zip(STAT_FIELDS).enumerate() {
                    match stats_obj.get(key).and_then(Json::as_i64) {
                        Some(v) => *slot = v as usize,
                        // The sanitizer and datatype-cache counters
                        // postdate the first reports; older baselines read
                        // back as zeros (like the contention triple below).
                        None if i >= 12 => *slot = 0,
                        None => return Err(format!("stats missing '{key}'")),
                    }
                }
                // Reports written before the contention triple existed (and
                // hand-trimmed baselines) read back as zeros.
                let mut contention = [0usize; 3];
                if let Some(arr) = s.get("contention").and_then(Json::as_arr) {
                    for (slot, v) in contention.iter_mut().zip(arr) {
                        *slot = v.as_i64().ok_or("bad contention value")? as usize;
                    }
                }
                Ok::<SeriesReport, String>(SeriesReport {
                    label,
                    time_ns,
                    stats,
                    contention,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let wall_s = need("wall_s")?.as_f64().ok_or("wall_s not a number")?;
        Ok(BenchReport {
            bench,
            args,
            ranks,
            series,
            wall_s,
        })
    }
}

/// Outcome of diffing a fresh report against a committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineDiff {
    /// Exact-match failures (virtual times, ranks, labels, counters) —
    /// these fail the CI gate.
    pub errors: Vec<String>,
    /// Soft signals (wall-time regression, physical contention drift) —
    /// these only warn.
    pub warnings: Vec<String>,
}

/// Wall-clock regression factor that triggers a warning.
pub const WALL_SLACK: f64 = 1.5;

/// Contention-counter growth factor that triggers a warning. Physical
/// counters jitter with interleaving; a doubling is a real signal (e.g. a
/// matching-engine regression), smaller drift is noise.
pub const CONTENTION_SLACK: f64 = 2.0;

/// Compare `report` against the baseline file contents (a JSON object with
/// a `benches` array of [`BenchReport`]s). The baseline entry is selected
/// by bench name + identical args; a missing entry is an error (the gate
/// must notice schema/arg drift, not silently pass).
pub fn compare_with_baseline(report: &BenchReport, baseline_text: &str) -> BaselineDiff {
    let mut diff = BaselineDiff {
        errors: Vec::new(),
        warnings: Vec::new(),
    };
    let parsed = match commint::json::parse(baseline_text) {
        Ok(p) => p,
        Err(e) => {
            diff.errors.push(format!("baseline unparsable: {e}"));
            return diff;
        }
    };
    let benches = match parsed.get("benches").and_then(Json::as_arr) {
        Some(b) => b,
        None => {
            diff.errors.push("baseline has no 'benches' array".into());
            return diff;
        }
    };
    let base = benches
        .iter()
        .filter_map(|b| BenchReport::from_json(b).ok())
        .find(|b| b.bench == report.bench && b.args == report.args);
    let base = match base {
        Some(b) => b,
        None => {
            diff.errors.push(format!(
                "no baseline entry for bench '{}' with args {:?}",
                report.bench, report.args
            ));
            return diff;
        }
    };
    if base.ranks != report.ranks {
        diff.errors.push(format!(
            "rank axis changed: baseline {:?} vs current {:?}",
            base.ranks, report.ranks
        ));
    }
    // Hard race gate, independent of the baseline's contents: a run whose
    // shadow-state sanitizer attributed any conflicting access pair must
    // never pass, even if someone blesses a racy baseline.
    for rs in &report.series {
        if rs.stats[CONFLICTS_IDX] != 0 {
            diff.errors.push(format!(
                "series '{}': sanitizer found {} one-sided race conflict(s) (must be 0)",
                rs.label, rs.stats[CONFLICTS_IDX]
            ));
        }
    }
    for (bs, rs) in base.series.iter().zip(&report.series) {
        if bs.label != rs.label {
            diff.errors
                .push(format!("series label '{}' -> '{}'", bs.label, rs.label));
            continue;
        }
        for (i, (bt, rt)) in bs.time_ns.iter().zip(&rs.time_ns).enumerate() {
            if bt != rt {
                diff.errors.push(format!(
                    "series '{}' x={} time_ns {} -> {}",
                    bs.label,
                    report.ranks.get(i).copied().unwrap_or(i),
                    bt,
                    rt
                ));
            }
        }
        if bs.stats != rs.stats {
            diff.errors.push(format!(
                "series '{}' op counters changed: {:?} -> {:?}",
                bs.label, bs.stats, rs.stats
            ));
        }
        // Physical counters: soft gate. Warn only on substantial growth,
        // and only when the baseline actually recorded them (non-zero).
        for (name, bc, rc) in [
            ("uq_high_water", bs.contention[0], rs.contention[0]),
            ("match_scan_steps", bs.contention[1], rs.contention[1]),
            ("mailbox_locks", bs.contention[2], rs.contention[2]),
        ] {
            if bc > 0 && rc as f64 > bc as f64 * CONTENTION_SLACK {
                diff.warnings.push(format!(
                    "series '{}' contention counter {name} grew {bc} -> {rc} \
                     (>{CONTENTION_SLACK}x; physical, interleaving-dependent)",
                    bs.label
                ));
            }
        }
    }
    if base.series.len() != report.series.len() {
        diff.errors.push(format!(
            "series count {} -> {}",
            base.series.len(),
            report.series.len()
        ));
    }
    if report.wall_s > base.wall_s * WALL_SLACK {
        diff.warnings.push(format!(
            "wall time {:.2}s exceeds baseline {:.2}s by more than {WALL_SLACK}x",
            report.wall_s, base.wall_s
        ));
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            bench: "fig4".into(),
            args: vec![("stride".into(), 4), ("steps".into(), 4)],
            ranks: vec![33, 97],
            series: vec![SeriesReport {
                label: "Original Communication".into(),
                time_ns: vec![1_234_567_890_123, 42],
                stats: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0, 14],
                contention: [3, 120, 240],
            }],
            wall_s: 1.5,
        }
    }

    #[test]
    fn report_roundtrip_is_exact() {
        let r = sample_report();
        let text = r.to_json().render();
        let back = BenchReport::from_json(&commint::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn contention_renders_on_one_line_and_tolerates_absence() {
        let r = sample_report();
        let text = r.to_json().render();
        // One-line scalar array, so CI's engine byte-diff can grep it out.
        assert!(text.contains("\"contention\": [3, 120, 240]"));
        // Pre-contention reports parse with zeros.
        let legacy = text.replace(",\n      \"contention\": [3, 120, 240]", "");
        let back = BenchReport::from_json(&commint::json::parse(&legacy).unwrap());
        match back {
            Ok(b) => assert_eq!(b.series[0].contention, [0, 0, 0]),
            Err(e) => panic!("legacy report rejected: {e}"),
        }
    }

    #[test]
    fn baseline_identical_passes() {
        let r = sample_report();
        let baseline = Json::Obj(vec![
            ("schema".into(), Json::Int(1)),
            ("benches".into(), Json::Arr(vec![r.to_json()])),
        ])
        .render();
        let diff = compare_with_baseline(&r, &baseline);
        assert!(diff.errors.is_empty(), "{:?}", diff.errors);
        assert!(diff.warnings.is_empty());
    }

    #[test]
    fn baseline_flags_time_change_and_wall_regression() {
        let r = sample_report();
        let baseline = Json::Obj(vec![("benches".into(), Json::Arr(vec![r.to_json()]))]).render();
        let mut changed = r.clone();
        changed.series[0].time_ns[1] = 43;
        changed.wall_s = 100.0;
        let diff = compare_with_baseline(&changed, &baseline);
        assert_eq!(diff.errors.len(), 1);
        assert!(diff.errors[0].contains("time_ns 42 -> 43"));
        assert_eq!(diff.warnings.len(), 1);
    }

    #[test]
    fn contention_drift_warns_but_never_fails() {
        let r = sample_report();
        let baseline = Json::Obj(vec![("benches".into(), Json::Arr(vec![r.to_json()]))]).render();
        let mut noisy = r.clone();
        noisy.series[0].contention = [3, 500, 240]; // >2x scan steps
        let diff = compare_with_baseline(&noisy, &baseline);
        assert!(diff.errors.is_empty(), "{:?}", diff.errors);
        assert_eq!(diff.warnings.len(), 1);
        assert!(diff.warnings[0].contains("match_scan_steps"));
        // Small jitter stays silent.
        let mut jitter = r.clone();
        jitter.series[0].contention = [4, 150, 300];
        let diff = compare_with_baseline(&jitter, &baseline);
        assert!(diff.warnings.is_empty(), "{:?}", diff.warnings);
    }

    #[test]
    fn sanitizer_counters_tolerate_pre_race_reports() {
        let r = sample_report();
        let text = r.to_json().render();
        assert!(text.contains("\"race_checks\": 13"));
        assert!(text.contains("\"conflicts_found\": 0"));
        // A report written before the sanitizer counters existed parses
        // with zeros, exactly like the contention triple.
        let legacy = text
            .replace(",\n        \"race_checks\": 13", "")
            .replace(",\n        \"conflicts_found\": 0", "");
        assert!(!legacy.contains("race_checks"), "replace missed: {legacy}");
        let back = BenchReport::from_json(&commint::json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(back.series[0].stats[12], 0);
        assert_eq!(back.series[0].stats[13], 0);
    }

    #[test]
    fn nonzero_conflicts_fail_the_gate_even_with_matching_baseline() {
        let mut r = sample_report();
        r.series[0].stats[13] = 2;
        // Baseline blessed with the same racy counters: the gate must still
        // refuse — conflicts_found is an absolute invariant, not a diff.
        let baseline = Json::Obj(vec![("benches".into(), Json::Arr(vec![r.to_json()]))]).render();
        let diff = compare_with_baseline(&r, &baseline);
        assert_eq!(diff.errors.len(), 1, "{:?}", diff.errors);
        assert!(
            diff.errors[0].contains("race conflict"),
            "{:?}",
            diff.errors
        );
    }

    #[test]
    fn baseline_missing_entry_is_error() {
        let r = sample_report();
        let baseline = r#"{"benches": []}"#;
        let diff = compare_with_baseline(&r, baseline);
        assert_eq!(diff.errors.len(), 1);
        assert!(diff.errors[0].contains("no baseline entry"));
    }
}
