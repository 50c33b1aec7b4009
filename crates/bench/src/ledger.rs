//! The run-history ledger: every `--json` bench run can append one compact
//! JSON line to `results/LEDGER.jsonl`, making the repo's performance
//! trajectory self-recording. `commscope trend` is the reader.
//!
//! One entry records the identity of the run (bench name, args, git
//! revision, execution engine) plus the measured series (virtual `time_ns`
//! and the deterministic counters) and the physical wall time. Everything
//! except `git_rev`, `engine`, and `wall_s` is a pure function of virtual
//! time — two entries for the same workload under different engines differ
//! only in those three fields, which the determinism suite checks.

use std::io::Write as _;
use std::path::Path;

use crate::json::{BenchReport, Json};

/// Schema version of one ledger line (`commscope::LEDGER_SCHEMA` mirrors
/// this on the reader side).
pub const LEDGER_SCHEMA: i64 = 1;

/// Short git revision of the working tree, `"unknown"` outside a checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Human label for the execution slots a run used (`None`: one per rank).
pub fn engine_label(workers: Option<usize>) -> String {
    match workers {
        None => "bounded(all)".into(),
        Some(0) => "bounded(auto)".into(),
        Some(w) => format!("bounded({w})"),
    }
}

/// Build one ledger entry from a finished report. `git_rev` is a parameter
/// (rather than sampled here) so tests can pin it.
pub fn entry_json(report: &BenchReport, engine: &str, git_rev: &str) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Int(LEDGER_SCHEMA)),
        ("bench".into(), Json::Str(report.bench.clone())),
        ("git_rev".into(), Json::Str(git_rev.into())),
        ("engine".into(), Json::Str(engine.into())),
        (
            "args".into(),
            Json::Obj(
                report
                    .args
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Int(*v)))
                    .collect(),
            ),
        ),
        (
            "ranks".into(),
            Json::Arr(report.ranks.iter().map(|&r| Json::Int(r as i64)).collect()),
        ),
        (
            "series".into(),
            Json::Arr(
                report
                    .series
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("label".into(), Json::Str(s.label.clone())),
                            (
                                "time_ns".into(),
                                Json::Arr(s.time_ns.iter().map(|&t| Json::Int(t as i64)).collect()),
                            ),
                            (
                                // The scalar the trend report tracks: total
                                // virtual time across the sweep.
                                "total_ns".into(),
                                Json::Int(s.time_ns.iter().map(|&t| t as i64).sum()),
                            ),
                            (
                                "stats".into(),
                                Json::Arr(s.stats.iter().map(|&v| Json::Int(v as i64)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("wall_s".into(), Json::Num(report.wall_s)),
    ])
}

/// Append one entry to the ledger at `path` (parent directories are
/// created; the file is created on first use).
pub fn append(path: &Path, report: &BenchReport, engine: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let line = entry_json(report, engine, &git_rev()).render_compact();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// Honor a `--ledger PATH` flag: append the report, warning (never failing
/// the bench) on I/O errors.
pub fn maybe_record(cli: &[String], report: &BenchReport, engine: &str) {
    let Some(path) = crate::arg_str(cli, "--ledger") else {
        return;
    };
    match append(Path::new(path), report, engine) {
        Ok(()) => eprintln!("[ledger] appended {} run to {path}", report.bench),
        Err(e) => eprintln!("[ledger] cannot append to {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::SeriesReport;
    use netsim::RankStats;

    fn report() -> BenchReport {
        let stats = RankStats {
            sends: 3,
            ..Default::default()
        };
        BenchReport {
            bench: "demo".into(),
            args: vec![("steps".into(), 2)],
            ranks: vec![4],
            series: vec![SeriesReport::new("run", vec![100, 200], &stats)],
            wall_s: 0.5,
        }
    }

    #[test]
    fn entry_is_one_line_and_reader_compatible() {
        let entry = entry_json(&report(), "threads", "abc1234");
        let line = entry.render_compact();
        assert!(!line.contains('\n'));
        let entries = commscope::parse_ledger(&line).unwrap();
        assert_eq!(entries.len(), 1);
        let trends = commscope::trend(&entries, 3, 5.0);
        assert_eq!(trends.len(), 1);
        assert_eq!(trends[0].bench, "demo");
        assert_eq!(trends[0].latest_rev, "abc1234");
    }

    #[test]
    fn append_creates_and_appends() {
        let dir = std::env::temp_dir().join("commdiff-ledger-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("LEDGER.jsonl");
        append(&path, &report(), "threads").unwrap();
        append(&path, &report(), "bounded(2)").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        let entries = commscope::parse_ledger(&text).unwrap();
        assert_eq!(
            entries[1].get("engine").and_then(|v| v.as_str()),
            Some("bounded(2)")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
