//! The metric ledger: the one list of every metric the benchmark reports
//! (mirrored by `BENCHMARK.json`; a test keeps the two equal), the values a
//! run recorded for them, and the run's failure tally.

use std::collections::BTreeMap;

use serde_json::{json, Value};

/// Name and unit of one reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// A count that is a pure function of the seed and the sizes: two runs
    /// of one commit at one seed must report it identically.
    pub repeats: bool,
}

/// A measured metric.
const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        repeats: false,
    }
}

/// A count that repeats exactly.
const fn c(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        repeats: true,
    }
}

/// Metrics a user of the system sees, from the untraced pass. Every
/// workload reports every one; README.md says what the operation is on each.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("throughput_per_s", "1/s"),
    m("latency_p50_ms", "ms"),
    m("latency_p95_ms", "ms"),
    m("peak_rss_mb", "MB"),
];

/// Metrics of single layers (layer = crate name), from the traced pass. A
/// workload that never calls a layer reports its metrics as 0, which is how
/// "study_matrix makes no index, serve or store calls" shows in the output.
pub const PER_LAYER: &[MetricDef] = &[
    m("synth.population_ms", "ms"),
    m("sensor.capture_us", "us"),
    c("sensor.minutiae_per_template.d0", "count"),
    c("sensor.minutiae_per_template.d1", "count"),
    c("sensor.minutiae_per_template.d2", "count"),
    c("sensor.minutiae_per_template.d3", "count"),
    c("sensor.minutiae_per_template.d4", "count"),
    m("quality.assess_us", "us"),
    m("match.prepare_us", "us"),
    m("match.compare_genuine_us", "us"),
    m("match.compare_impostor_us", "us"),
    c("match.comparisons", "count"),
    m("stats.reports_ms", "ms"),
    m("study.dataset_ms", "ms"),
    m("study.scores_ms", "ms"),
    m("study.parallel_speedup", "ratio"),
    m("index.untraced_search_p50_ms", "ms"),
    m("index.stage1_ms", "ms"),
    m("index.stage1_codes_ms", "ms"),
    m("index.stage1_other_ms", "ms"),
    m("index.fuse_merge_ms", "ms"),
    m("index.stage2_ms", "ms"),
    m("index.layer_sum_ratio", "ratio"),
    m("index.enroll_us_per_template", "us"),
    c("index.hamming_word_ops", "count"),
    c("index.bucket_hits", "count"),
    c("index.rerank_comparisons", "count"),
    c("index.arena_bytes", "B"),
    m("index.rank1.mated", "fraction"),
    m("index.rank1.same_device", "fraction"),
    m("index.rank1.cross_device", "fraction"),
    m("index.rank1.ink_like", "fraction"),
    m("index.rank1.d0", "fraction"),
    m("index.rank1.d1", "fraction"),
    m("index.rank1.d2", "fraction"),
    m("index.rank1.d3", "fraction"),
    m("index.rank1.d4", "fraction"),
    m("serve.search_p50_ms", "ms"),
    m("serve.rpc_stage1_ms", "ms"),
    m("serve.rpc_rerank_ms", "ms"),
    m("serve.server_work_ms", "ms"),
    m("serve.queue_wait_ms", "ms"),
    m("serve.queue_wait_p95_ms", "ms"),
    m("serve.wire_overhead_ms", "ms"),
    m("serve.encode_stage1ok_us", "us"),
    m("serve.decode_stage1ok_us", "us"),
    m("serve.bytes_per_search", "B"),
    m("serve.offered", "count"),
    m("serve.accepted", "count"),
    m("serve.shed", "count"),
    m("serve.retries", "count"),
    m("serve.peak_in_flight", "count"),
    m("serve.shard_rss_mb", "MB"),
    m("store.enroll_per_s", "1/s"),
    m("store.append_ms", "ms"),
    m("store.save_mb_per_s", "MB/s"),
    m("store.open_manifest_ms", "ms"),
    m("store.open_index_ms", "ms"),
    m("store.first_search_ms", "ms"),
    m("store.open_to_first_result_ms", "ms"),
    m("store.warm_search_ms", "ms"),
    m("store.table_load_us", "us"),
    m("store.tombstone_us", "us"),
    m("store.compact_ms", "ms"),
    m("store.compact_mb_per_s", "MB/s"),
    c("store.segment_bytes", "B"),
    c("store.disk_bytes_per_entry", "B"),
    c("store.bytes_read_on_open", "B"),
    c("store.compact_bytes_rewritten", "B"),
    m("telemetry.enabled_overhead_ratio", "ratio"),
];

/// The two passes of a run and the metric table each reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Untraced: end-to-end metrics.
    EndToEnd,
    /// Traced: per-layer metrics.
    PerLayer,
}

impl Pass {
    pub fn defs(self) -> &'static [MetricDef] {
        match self {
            Pass::EndToEnd => END_TO_END,
            Pass::PerLayer => PER_LAYER,
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted in the measured section.
    pub attempted: u64,
    /// Operations that failed: typed errors, and every operation of the run
    /// once an output check fails (see [`Outcome::check`]).
    pub failed: u64,
    /// Why output checks failed, for the log.
    pub failures: Vec<String>,
    /// Free-form `key = value` lines for the log (RUNFP chains, sample
    /// counts, workload sizes).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Records `value` for metric `name`.
    ///
    /// # Panics
    ///
    /// If `name` is in neither metric table: a typo must not silently drop
    /// a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric `{name}` is not in the ledger"
        );
        self.values.insert(name, value);
    }

    /// Records an output check; a failed one makes the whole run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds a `key = value` line to the log.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Whether every operation succeeded and every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The result object the driver reads, with every metric of `pass`
    /// (per-layer metrics the workload never touched read 0). A failed
    /// output check counts every operation as failed.
    ///
    /// # Panics
    ///
    /// If an end-to-end metric was never set.
    pub fn result_json(&self, pass: Pass) -> Value {
        let mut metrics = serde_json::Map::new();
        for def in pass.defs() {
            let value = match self.values.get(def.name) {
                Some(v) => *v,
                None if pass == Pass::PerLayer => 0.0,
                None => panic!("end-to-end metric `{}` was never measured", def.name),
            };
            metrics.insert(
                def.name.to_string(),
                json!({"value": value, "unit": def.unit}),
            );
        }
        let attempted = self.attempted.max(1);
        let failed = if self.failures.is_empty() {
            self.failed
        } else {
            attempted
        };
        json!({
            "correct": self.correct(),
            "attempted": attempted,
            "failed": failed,
            "metrics": Value::Object(metrics),
        })
    }

    /// Human-readable report: every metric of `pass` that was measured, by
    /// name with its unit, then notes and failed checks.
    pub fn render(&self, pass: Pass) -> String {
        let mut out = String::new();
        for def in pass.defs() {
            if let Some(v) = self.values.get(def.name) {
                out.push_str(&format!("  {:<36} {:>16.4} {}\n", def.name, v, def.unit));
            }
        }
        for (key, value) in &self.notes {
            out.push_str(&format!("  # {key} = {value}\n"));
        }
        for failure in &self.failures {
            out.push_str(&format!("  FAILED CHECK: {failure}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads and this module is what the
    /// binary prints; they must name the same metrics with the same units.
    #[test]
    fn ledger_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = spec[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|e| {
                    (
                        e["name"].as_str().expect("name").to_string(),
                        e["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from the ledger");
        }
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            spec["run_seconds"].as_u64(),
            Some(crate::workloads::RUN_SECONDS)
        );
        assert_eq!(spec["paths"][0].as_str(), Some("benchmark"));
    }

    #[test]
    fn failed_check_fails_every_operation() {
        let mut outcome = Outcome::default();
        for def in END_TO_END {
            outcome.set(def.name, 1.5);
        }
        outcome.attempted = 40;
        assert!(outcome.correct());
        assert_eq!(
            outcome.result_json(Pass::EndToEnd)["failed"].as_u64(),
            Some(0)
        );
        outcome.check(false, || "chains differ".to_string());
        assert!(!outcome.correct());
        let result = outcome.result_json(Pass::EndToEnd);
        assert_eq!(result["failed"].as_u64(), Some(40));
        assert_eq!(result["correct"].as_bool(), Some(false));
    }

    #[test]
    fn untouched_layers_read_zero() {
        let outcome = Outcome::default();
        let result = outcome.result_json(Pass::PerLayer);
        assert_eq!(
            result["metrics"]["store.compact_ms"]["value"].as_f64(),
            Some(0.0)
        );
        assert_eq!(result["attempted"].as_u64(), Some(1));
    }
}
