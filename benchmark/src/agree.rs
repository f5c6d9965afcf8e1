//! `benchmark agree A.json B.json`: do two result sets of one commit tell
//! the same story?
//!
//! Every end-to-end metric must agree within the bound `BENCHMARK.json`
//! fixes for it — a metric whose own reruns differ by more than its bound
//! cannot gate anything and is reported as unresolved — and every count
//! that is a pure function of the seed must repeat exactly.

use serde_json::Value;

use crate::ledger::{END_TO_END, PER_LAYER};

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// The bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds(spec: &Value) -> Result<Vec<(String, f64)>, String> {
    spec["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|entry| {
            let name = entry["name"]
                .as_str()
                .ok_or("end_to_end entry without a name")?;
            let bound = entry["bound"]
                .as_f64()
                .ok_or("end_to_end entry without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

fn metric(results: &Value, workload: &str, name: &str) -> Option<f64> {
    results["workloads"][workload]["metrics"][name]["value"].as_f64()
}

/// Difference of `b` from `a` as a share of `a`.
fn relative_difference(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs()
    }
}

/// Compares two result sets against `spec`; returns the report and whether
/// everything agreed.
pub fn compare(spec: &Value, a: &Value, b: &Value) -> Result<(String, bool), String> {
    let bounds = bounds(spec)?;
    let same_seed = a["provenance"]["seed"] == b["provenance"]["seed"];
    let mut report = String::new();
    let mut ok = true;
    for workload in crate::workloads::NAMES {
        report.push_str(&format!("{workload}\n"));
        for side in [a, b] {
            if side["workloads"][workload]["correct"].as_bool() != Some(true) {
                report.push_str("  INCORRECT or missing in one result set\n");
                ok = false;
            }
        }
        for def in END_TO_END {
            let bound = bounds
                .iter()
                .find(|(name, _)| name == def.name)
                .map(|(_, bound)| *bound)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
            let (Some(x), Some(y)) = (metric(a, workload, def.name), metric(b, workload, def.name))
            else {
                report.push_str(&format!("  {:<36} MISSING\n", def.name));
                ok = false;
                continue;
            };
            let difference = relative_difference(x, y);
            let verdict = if difference <= bound {
                "agree"
            } else {
                "UNRESOLVED"
            };
            ok &= difference <= bound;
            report.push_str(&format!(
                "  {:<36} {x:>14.4} vs {y:>14.4} {:<5} differ {:>6.2} % of the first, bound {:>5.1} %  {verdict}\n",
                def.name,
                def.unit,
                difference * 100.0,
                bound * 100.0,
            ));
        }
        for def in PER_LAYER.iter().filter(|def| def.repeats && same_seed) {
            let (x, y) = (metric(a, workload, def.name), metric(b, workload, def.name));
            if x != y {
                report.push_str(&format!(
                    "  {:<36} {x:?} vs {y:?}: a count that must repeat exactly DIFFERS\n",
                    def.name
                ));
                ok = false;
            }
        }
    }
    if !same_seed {
        report.push_str("seeds differ: counts were not compared\n");
    }
    report.push_str(if ok {
        "every end-to-end metric agrees within its bound; every count repeats\n"
    } else {
        "the result sets do NOT agree\n"
    });
    Ok((report, ok))
}

/// Loads `BENCHMARK.json` from the working directory and both result files,
/// prints the comparison, and returns whether they agree.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let spec = load("BENCHMARK.json")?;
    let (report, ok) = compare(&spec, &load(a_path)?, &load(b_path)?)?;
    print!("{report}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn spec() -> Value {
        let end_to_end: Vec<Value> = END_TO_END
            .iter()
            .map(|d| json!({"name": d.name, "unit": d.unit, "better": "lower", "bound": 0.1}))
            .collect();
        json!({ "end_to_end": end_to_end })
    }

    fn results(latency: f64, word_ops: f64) -> Value {
        let mut workloads = serde_json::Map::new();
        for name in crate::workloads::NAMES {
            let mut metrics = serde_json::Map::new();
            for def in END_TO_END {
                metrics.insert(
                    def.name.to_string(),
                    json!({"value": latency, "unit": def.unit}),
                );
            }
            metrics.insert(
                "index.hamming_word_ops".to_string(),
                json!({"value": word_ops, "unit": "count"}),
            );
            workloads.insert(
                name.to_string(),
                json!({"correct": true, "metrics": Value::Object(metrics)}),
            );
        }
        json!({"provenance": {"seed": 1}, "workloads": Value::Object(workloads)})
    }

    #[test]
    fn within_bound_agrees_and_beyond_is_unresolved() {
        let (_, ok) = compare(&spec(), &results(10.0, 5.0), &results(10.9, 5.0)).unwrap();
        assert!(ok);
        let (report, ok) = compare(&spec(), &results(10.0, 5.0), &results(11.1, 5.0)).unwrap();
        assert!(!ok);
        assert!(report.contains("UNRESOLVED"));
    }

    #[test]
    fn counts_must_repeat_exactly() {
        let (report, ok) = compare(&spec(), &results(10.0, 5.0), &results(10.0, 6.0)).unwrap();
        assert!(!ok);
        assert!(report.contains("index.hamming_word_ops"));
    }
}
