//! Comparing `BENCH_*.json` performance snapshots.
//!
//! A snapshot is what the bench harness writes under `--save`: a versioned
//! record of `{bench, median_ns, p95_ns, iters}` per benchmark. [`diff`]
//! compares an old (baseline) snapshot against a new one and classifies
//! every shared bench as regressed, warned, improved, or unchanged.
//!
//! Two timings are comparable only when the same instrument took both, so
//! the thresholds apply only when the two snapshots name the same `host`
//! (CPU model x cores, written by the harness). Across hosts every row is
//! still printed, none is judged, and only a bench missing from the new
//! snapshot fails.
//!
//! On one host the thresholds are the constants [`FAIL`] and [`WARN`],
//! the same for every bench. A snapshot's `p95_ns` records how bursty the
//! host was while that bench was measured; it is not folded into the
//! threshold, or a baseline taken during a burst could let the bench
//! double unnoticed.

use serde_json::Value;

/// A `BENCH_*.json` file as written by the bench harness's `--save`.
#[derive(Debug, Clone)]
pub struct BenchSnapshot {
    /// Schema version; only version 1 is understood.
    pub version: u32,
    /// The machine the snapshot was measured on: `<CPU model> x <cores>`,
    /// or `"unknown"`.
    pub host: String,
    /// One entry per measured benchmark.
    pub benches: Vec<BenchEntry>,
}

/// One benchmark's measurements within a snapshot.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Full bench name (`group/bench`).
    pub bench: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// 95th-percentile nanoseconds per iteration.
    pub p95_ns: f64,
    /// Iterations per timed sample.
    pub iters: u64,
}

impl BenchSnapshot {
    /// Parses a snapshot from JSON, rejecting unknown schema versions. A
    /// field that is missing or of another type is an error naming it.
    pub fn from_json(raw: &str) -> Result<BenchSnapshot, String> {
        let json = serde_json::from_str(raw).map_err(|e| format!("invalid snapshot JSON: {e}"))?;
        let version = field(&json, "version", Value::as_u64)?;
        if version != 1 {
            return Err(format!(
                "unsupported snapshot version {version} (expected 1)"
            ));
        }
        let benches = field(&json, "benches", Value::as_array)?
            .iter()
            .map(|entry| {
                Ok(BenchEntry {
                    bench: field(entry, "bench", Value::as_str)?.to_string(),
                    median_ns: field(entry, "median_ns", Value::as_f64)?,
                    p95_ns: field(entry, "p95_ns", Value::as_f64)?,
                    iters: field(entry, "iters", Value::as_u64)?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(BenchSnapshot {
            version: 1,
            host: field(&json, "host", Value::as_str)?.to_string(),
            benches,
        })
    }
}

/// `json[name]` as `read` takes it, or an error naming the field.
fn field<'a, T>(
    json: &'a Value,
    name: &str,
    read: impl Fn(&'a Value) -> Option<T>,
) -> Result<T, String> {
    json.get(name)
        .and_then(read)
        .ok_or_else(|| format!("invalid snapshot JSON: field `{name}` is missing or mistyped"))
}

/// How one bench moved between two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Slower than [`FAIL`] — gate fails.
    Regressed,
    /// Slower than the warn threshold but within the fail threshold.
    Warned,
    /// Faster than the warn threshold (in the improving direction).
    Improved,
    /// Within the warn band either way.
    Unchanged,
    /// Measured on a different host than the baseline: not judged.
    OtherHost,
}

/// One bench's comparison between baseline and new snapshots.
#[derive(Debug, Clone)]
pub struct BenchDelta {
    /// Full bench name.
    pub bench: String,
    /// Baseline median ns/iter.
    pub old_ns: f64,
    /// New median ns/iter.
    pub new_ns: f64,
    /// Relative change: `new/old - 1` (positive = slower).
    pub change: f64,
    /// Classification under [`FAIL`] and [`WARN`].
    pub verdict: Verdict,
}

/// Result of comparing two snapshots.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// `(baseline host, new host)` when the two differ or either is
    /// unknown, in which case no delta was judged.
    pub other_host: Option<(String, String)>,
    /// Per-bench deltas for benches present in both snapshots.
    pub deltas: Vec<BenchDelta>,
    /// Benches only in the baseline (removed).
    pub removed: Vec<String>,
    /// Benches only in the new snapshot (added).
    pub added: Vec<String>,
}

impl DiffReport {
    /// True when every baseline bench is present in the new snapshot — one
    /// that silently vanished can never regress — and none regressed past
    /// [`FAIL`].
    pub fn passed(&self) -> bool {
        self.removed.is_empty() && self.regressions() == 0
    }

    /// Number of regressions.
    pub fn regressions(&self) -> usize {
        self.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Regressed)
            .count()
    }
}

/// A bench this share slower than its baseline median fails the gate.
/// Above every excursion seen on the reference host (DESIGN.md "The perf
/// record": +40 % for a single-thread row, +65 % for the two-thread
/// `study/*` rows when the host steals a core) and below the doubling the
/// suite exists to catch — a lost fast path, a clock read on a disabled
/// instrument.
pub const FAIL: f64 = 0.75;

/// A bench this share slower (faster) is reported as warned (improved);
/// most rows stay within it from run to run.
pub const WARN: f64 = 0.15;

/// Compares `old` (baseline) and `new` snapshots.
///
/// Snapshots of different hosts, or of an unknown one, are not judged.
pub fn diff(old: &BenchSnapshot, new: &BenchSnapshot) -> DiffReport {
    let same_host = old.host == new.host && old.host != "unknown";
    let mut report = DiffReport {
        other_host: (!same_host).then(|| (old.host.clone(), new.host.clone())),
        ..DiffReport::default()
    };
    for entry in &old.benches {
        let Some(fresh) = new.benches.iter().find(|b| b.bench == entry.bench) else {
            report.removed.push(entry.bench.clone());
            continue;
        };
        let change = if entry.median_ns > 0.0 {
            fresh.median_ns / entry.median_ns - 1.0
        } else {
            0.0
        };
        let verdict = if !same_host {
            Verdict::OtherHost
        } else if change > FAIL {
            Verdict::Regressed
        } else if change > WARN {
            Verdict::Warned
        } else if change < -WARN {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        report.deltas.push(BenchDelta {
            bench: entry.bench.clone(),
            old_ns: entry.median_ns,
            new_ns: fresh.median_ns,
            change,
            verdict,
        });
    }
    for entry in &new.benches {
        if !old.benches.iter().any(|b| b.bench == entry.bench) {
            report.added.push(entry.bench.clone());
        }
    }
    report
}

/// Renders the report as an aligned human-readable table.
pub fn render(report: &DiffReport) -> String {
    let mut out = String::new();
    if let Some((old, new)) = &report.other_host {
        out.push_str(&format!(
            "measured on a different host (baseline: {old}; new: {new}): \
             timings are listed, not judged\n"
        ));
    }
    for d in &report.deltas {
        let judged = match d.verdict {
            Verdict::Regressed => "REGRESSED",
            Verdict::Warned => "warn",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "ok",
            Verdict::OtherHost => "",
        };
        let row = format!(
            "{:<50} {:>12.3} -> {:>12.3} ns/iter  {:>+7.1}%  {judged}",
            d.bench,
            d.old_ns,
            d.new_ns,
            d.change * 100.0,
        );
        out.push_str(row.trim_end());
        out.push('\n');
    }
    for name in &report.removed {
        out.push_str(&format!("{name:<50} removed (present only in baseline)\n"));
    }
    for name in &report.added {
        out.push_str(&format!("{name:<50} added (absent from baseline)\n"));
    }
    let regressions = report.regressions();
    out.push_str(&format!(
        "{} benches compared, {} regression{} (fail at +{:.0}%)\n",
        report.deltas.len(),
        regressions,
        if regressions == 1 { "" } else { "s" },
        FAIL * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(entries: &[(&str, f64, f64)]) -> BenchSnapshot {
        BenchSnapshot {
            version: 1,
            host: "test".to_string(),
            benches: entries
                .iter()
                .map(|(name, median, p95)| BenchEntry {
                    bench: name.to_string(),
                    median_ns: *median,
                    p95_ns: *p95,
                    iters: 100,
                })
                .collect(),
        }
    }

    #[test]
    fn identical_snapshots_pass() {
        let base = snapshot(&[("a/x", 1000.0, 1050.0), ("a/y", 2000.0, 2100.0)]);
        let report = diff(&base, &base.clone());
        assert!(report.passed());
        assert_eq!(report.regressions(), 0);
        assert!(report
            .deltas
            .iter()
            .all(|d| d.verdict == Verdict::Unchanged));
    }

    /// `a/x` against itself `slowdown` slower, the baseline's own p95 at
    /// twice its median.
    fn slowed(slowdown: f64) -> DiffReport {
        let base = snapshot(&[("a/x", 1000.0, 2000.0)]);
        let new = snapshot(&[("a/x", 1000.0 * (1.0 + slowdown), 0.0)]);
        diff(&base, &new)
    }

    #[test]
    fn a_slowdown_past_fail_regresses_however_noisy_the_baseline() {
        let report = slowed(FAIL + 0.05);
        assert!(!report.passed());
        assert_eq!(report.regressions(), 1);
        assert_eq!(report.deltas[0].verdict, Verdict::Regressed);
    }

    #[test]
    fn a_slowdown_between_warn_and_fail_warns_but_passes() {
        let report = slowed((WARN + FAIL) / 2.0);
        assert!(report.passed());
        assert_eq!(report.deltas[0].verdict, Verdict::Warned);
    }

    #[test]
    fn improvements_and_membership_changes_are_reported() {
        let base = snapshot(&[("a/x", 1000.0, 1050.0), ("a/gone", 500.0, 510.0)]);
        let new = snapshot(&[("a/x", 800.0, 840.0), ("a/new", 100.0, 105.0)]);
        let report = diff(&base, &new);
        assert_eq!(report.regressions(), 0);
        assert_eq!(report.deltas[0].verdict, Verdict::Improved);
        assert_eq!(report.removed, vec!["a/gone".to_string()]);
        assert_eq!(report.added, vec!["a/new".to_string()]);
        let table = render(&report);
        assert!(table.contains("improved"));
        assert!(table.contains("a/gone"));
        assert!(table.contains("a/new"));
        assert!(table.contains("1 benches compared, 0 regressions (fail at +75%)"));
    }

    #[test]
    fn a_missing_baseline_bench_fails_whatever_the_host() {
        // A bench present in the baseline but absent from the candidate
        // can never regress: a gate that ignored it would wave through a
        // deleted benchmark.
        let base = snapshot(&[
            ("wire_x/encode", 1000.0, 1050.0),
            ("span/enabled", 300.0, 310.0),
        ]);
        let mut new = snapshot(&[("span/enabled", 305.0, 315.0)]);
        for host in ["test", "elsewhere"] {
            new.host = host.to_string();
            let report = diff(&base, &new);
            assert_eq!(report.regressions(), 0, "no shared bench regressed");
            assert_eq!(report.removed, vec!["wire_x/encode".to_string()]);
            assert!(!report.passed());
        }
    }

    #[test]
    fn another_host_is_listed_but_not_judged() {
        let base = snapshot(&[("a/x", 1000.0, 1050.0)]);
        let mut new = snapshot(&[("a/x", 2000.0, 2100.0)]);
        assert!(!diff(&base, &new).passed(), "same host: 2x slower fails");
        new.host = "elsewhere".to_string();
        let report = diff(&base, &new);
        assert!(report.passed());
        assert_eq!(report.deltas[0].verdict, Verdict::OtherHost);
        assert!((report.deltas[0].change - 1.0).abs() < 1e-12);
        assert!(render(&report).contains("measured on a different host"));
        // Two unknown instruments are not known to be the same one.
        let mut unknown = base.clone();
        unknown.host = "unknown".to_string();
        assert!(diff(&unknown, &unknown.clone()).other_host.is_some());
    }

    #[test]
    fn snapshot_parser_accepts_harness_output_and_rejects_bad_versions() {
        let raw = r#"{
  "version": 1,
  "host": "ci",
  "benches": [
    {"bench": "telemetry/span", "median_ns": 120.5, "p95_ns": 130.1, "iters": 1000}
  ]
}"#;
        let snap = BenchSnapshot::from_json(raw).expect("valid snapshot");
        assert_eq!(snap.host, "ci");
        assert_eq!(snap.benches.len(), 1);
        assert_eq!(snap.benches[0].bench, "telemetry/span");
        assert!(BenchSnapshot::from_json(r#"{"version": 2, "host": "x", "benches": []}"#).is_err());
        assert!(BenchSnapshot::from_json("not json").is_err());
        let with = |entry: &str| format!(r#"{{"version": 1, "host": "x", "benches": [{entry}]}}"#);
        for (raw, named) in [
            (r#"{"host": "x", "benches": []}"#.to_string(), "version"),
            (
                r#"{"version": 1, "host": 7, "benches": []}"#.to_string(),
                "host",
            ),
            (r#"{"version": 1, "host": "x"}"#.to_string(), "benches"),
            (
                with(r#"{"median_ns": 1, "p95_ns": 2, "iters": 3}"#),
                "bench",
            ),
            (
                with(r#"{"bench": "b", "median_ns": 1, "p95_ns": "2", "iters": 3}"#),
                "p95_ns",
            ),
            (
                with(r#"{"bench": "b", "median_ns": 1, "p95_ns": 2, "iters": -3}"#),
                "iters",
            ),
        ] {
            let err = BenchSnapshot::from_json(&raw).expect_err(&raw);
            assert!(err.contains(&format!("field `{named}`")), "{raw}: {err}");
        }
        let raw = with(r#"{"bench": "b", "median_ns": 1, "p95_ns": 2.5, "iters": 3}"#);
        let snap = BenchSnapshot::from_json(&raw).expect("an integer median reads as f64");
        assert_eq!((snap.benches[0].median_ns, snap.benches[0].iters), (1.0, 3));
    }
}
