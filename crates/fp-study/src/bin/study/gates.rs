//! The smoke gates, one row each: the only place a gate's recipe is
//! written. `study gate [name…]` runs rows, `scripts/check.sh` and CI call
//! that, and `study check-<name> PATH` applies a row's checker to a results
//! file that already exists.
//!
//! A row's producer is spelled as the `study` subcommand lines that used to
//! be script arguments — the smoke scale (200 subjects, 2 remote shards,
//! …) is a constant of the row. The runner executes each line in
//! process, once per invocation however many rows name it, then hands the
//! row's first artifact to the row's checker.

use serde_json::Value;

/// Audits a results payload; every returned message is one failure and an
/// empty list is a pass.
pub type Checker = fn(&Value) -> Vec<String>;

/// The pass line of a payload its [`Checker`] accepted.
pub type Summary = fn(&Value) -> String;

/// One smoke gate.
pub struct Gate {
    /// `study gate <name>`; the file form is `study check-<name> PATH`.
    pub name: &'static str,
    /// What a pass proves, in one line.
    pub proves: &'static str,
    /// Producer: `study` command lines at the pinned smoke scale. `{out}`
    /// stands for the runner's `--out DIR`.
    pub steps: &'static [&'static str],
    /// Files the steps leave under `{out}`; the first is the payload the
    /// checker reads.
    pub artifacts: &'static [&'static str],
    /// Wall-clock budget in seconds; a slower run fails the gate.
    pub budget_secs: u64,
    /// The audit.
    pub check: Checker,
    /// The pass line.
    pub summary: Summary,
    /// Flags of the file form `check-<name> PATH`. `None`: the row has no
    /// file form because `check-<name>` is its producer, which takes the
    /// scale from its own flags.
    pub file_flags: Option<&'static str>,
    /// The file form's audit when its flag is not given, where that is
    /// laxer than the row's own.
    pub lax: Option<(Checker, Summary)>,
}

/// The `--remote-shards 2` ladder; `serve` and `fingerprint` both read it.
const SERVE_SMOKE: &str = "ext-scaling --subjects 200 --remote-shards 2 \
    --json {out}/serve.json --metrics {out}/serve-metrics.json";

/// Every gate, in the order `study gate` runs them.
pub static GATES: &[Gate] = &[
    Gate {
        name: "telemetry",
        proves: "a full study run records comparison and index work, cell spans and stage timings",
        steps: &["all --subjects 12 --json {out}/telemetry.json \
            --metrics {out}/telemetry-metrics.json --trace {out}/telemetry-trace.json \
            --events {out}/telemetry-events.jsonl"],
        artifacts: &[
            "telemetry.json",
            "telemetry-metrics.json",
            "telemetry-trace.json",
            "telemetry-events.jsonl",
        ],
        budget_secs: 600,
        check: check_telemetry,
        summary: |_| "telemetry section ok".to_string(),
        file_flags: Some(""),
        lax: None,
    },
    Gate {
        name: "scaling",
        proves: "shortlist recall >= 0.98 and brute-force agreement on the 200/1000/2000 ladder",
        steps: &["ext-scaling --subjects 200 --json {out}/scaling.json"],
        artifacts: &["scaling.json"],
        budget_secs: 600,
        check: check_scaling,
        summary: scaling_summary,
        file_flags: Some(""),
        lax: None,
    },
    Gate {
        name: "serve",
        proves: "two serve-shard processes at exact parity with the unsharded index, with real \
                 wire traffic and every shard metering its searches",
        steps: &[SERVE_SMOKE],
        artifacts: &["serve.json", "serve-metrics.json"],
        budget_secs: 600,
        check: check_serve,
        summary: serve_summary,
        file_flags: Some(""),
        lax: None,
    },
    Gate {
        name: "load",
        proves: "concurrent clients byte-identical to a sequential baseline (lists and RUNFP), an \
                 8-deep pipeline, an exact admission ledger and monotone latency percentiles",
        steps: &["load --subjects 200 --json {out}/load.json"],
        artifacts: &["load.json"],
        budget_secs: 600,
        check: check_load,
        summary: load_summary,
        file_flags: Some(""),
        lax: None,
    },
    Gate {
        name: "fingerprint",
        proves: "one RUNFP chain across the unsharded and cross-process rungs (deep audit); \
                 publishes the manifest",
        steps: &[
            SERVE_SMOKE,
            "fingerprint {out}/serve.json --json {out}/fingerprint-manifest.json",
        ],
        artifacts: &["serve.json", "fingerprint-manifest.json"],
        budget_secs: 600,
        check: |payload| fingerprint_audit(payload, true),
        summary: |payload| fingerprint_summary(payload, true),
        file_flags: Some("--deep"),
        // Without `--deep`: the remote chains must agree with the top
        // rung, but the ladder's own rungs are not audited for distinctness.
        lax: Some((
            |payload| fingerprint_audit(payload, false),
            |payload| fingerprint_summary(payload, false),
        )),
    },
    Gate {
        name: "dist-trace",
        proves: "traced == untraced == in-process (lists and RUNFP), one connected multi-process \
                 trace tree with no dropped spans, slow-log exemplars naming the delayed shard",
        steps: &[
            "check-dist-trace --subjects 16 --remote-shards 2 --delay-ms 25 \
            --trace {out}/dist-trace.json --slowlog {out}/dist-slowlog.jsonl \
            --json {out}/dist-trace-report.json",
        ],
        artifacts: &[
            "dist-trace-report.json",
            "dist-trace.json",
            "dist-slowlog.jsonl",
        ],
        budget_secs: 600,
        check: check_own_verdict,
        summary: own_verdict_summary,
        file_flags: None,
        lax: None,
    },
    Gate {
        name: "kernel",
        proves: "every coded entry LANE_WORDS wide, enrolled and store-opened; stage-1 arena \
                 kernel bitwise equal to the scalar reference; one RUNFP chain across the \
                 unsharded index and two serve-shard processes",
        steps: &["check-kernel --subjects 20 --remote-shards 2 --json {out}/kernel.json"],
        artifacts: &["kernel.json"],
        budget_secs: 600,
        check: check_own_verdict,
        summary: own_verdict_summary,
        file_flags: None,
        lax: None,
    },
    Gate {
        name: "store",
        proves: "open, serve-from-store with kill+restart, churn and compaction each \
                 byte-identical to fresh enrollment; every section CRC ok",
        steps: &[
            "check-store --subjects 200 --remote-shards 1 --gallery-dir {out}/store-gallery \
             --json {out}/store.json",
            "gallery inspect {out}/store-gallery --json {out}/store-inspect.json",
        ],
        artifacts: &["store.json", "store-inspect.json", "store-gallery"],
        budget_secs: 600,
        check: check_own_verdict,
        summary: own_verdict_summary,
        file_flags: None,
        lax: None,
    },
];

/// Every gate name, comma-separated, in table order.
pub fn names() -> String {
    let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
    names.join(", ")
}

/// The row named `name`, or an error listing every gate there is.
pub fn find(name: &str) -> Result<&'static Gate, String> {
    GATES
        .iter()
        .find(|g| g.name == name)
        .ok_or_else(|| format!("unknown gate '{name}' (known: {})", names()))
}

/// The row whose file form is the subcommand `check-<name>`.
pub fn file_form(subcommand: &str) -> Option<&'static Gate> {
    let name = subcommand.strip_prefix("check-")?;
    GATES
        .iter()
        .find(|g| g.name == name && g.file_flags.is_some())
}

/// The `study` usage alternatives the table contributes: the runner and
/// every file form.
pub fn usage() -> String {
    let mut usage = "gate [NAME…]".to_string();
    for gate in GATES.iter().filter(|g| g.file_flags.is_some()) {
        usage.push_str(&format!("|check-{} PATH", gate.name));
    }
    usage
}

/// The `values` of the report `id` in a `--json` results payload.
pub fn report_values<'a>(payload: &'a Value, id: &str) -> Result<&'a Value, String> {
    payload["reports"]
        .as_array()
        .into_iter()
        .flatten()
        .find(|r| r["id"] == id)
        .map(|r| &r["values"])
        .ok_or_else(|| format!("no {id} report in results file"))
}

/// [`report_values`] for summaries, which only see accepted payloads.
fn self_report<'a>(payload: &'a Value, id: &str) -> &'a Value {
    report_values(payload, id).unwrap_or(&Value::Null)
}

/// Length of a JSON array; 0 for anything else.
fn len(rows: &Value) -> usize {
    rows.as_array().map_or(0, Vec::len)
}

fn non_empty(rows: &Value) -> Option<&Vec<Value>> {
    rows.as_array().filter(|r| !r.is_empty())
}

/// A well-formed run fingerprint: exactly 16 lowercase hex digits.
fn is_runfp_hex(s: &str) -> bool {
    s.len() == 16
        && s.chars()
            .all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c))
}

/// `ext-scaling --json`: every rung must hold shortlist recall >= 0.98 and
/// full brute-force audit agreement on a non-empty audit sample.
fn check_scaling(payload: &Value) -> Vec<String> {
    let values = match report_values(payload, "ext-scaling") {
        Ok(v) => v,
        Err(e) => return vec![e],
    };
    let Some(rows) = non_empty(&values["rows"]) else {
        return vec!["ext-scaling report has no rows".to_string()];
    };
    let mut failures = Vec::new();
    for row in rows {
        let recall = row["recall"].as_f64().unwrap_or(0.0);
        if recall < 0.98 {
            failures.push(format!(
                "shortlist recall regressed (row={row}, recall={recall})"
            ));
        }
        if row["audit_sampled"].as_u64().unwrap_or(0) == 0
            || row["audit_agreed"] != row["audit_sampled"]
        {
            failures.push(format!("brute-force audit mismatch (row={row})"));
        }
    }
    failures
}

fn scaling_summary(payload: &Value) -> String {
    let rungs = len(&self_report(payload, "ext-scaling")["rows"]);
    format!("ext-scaling smoke ok ({rungs} rungs)")
}

/// `ext-scaling --remote-shards --json`: the cross-process rung must have
/// run, every audited probe must show full candidate-list parity with the
/// unsharded index, recall must equal
/// the top unsharded rung exactly, the `serve.*` transport counters must
/// show real wire traffic, and every shard's scraped
/// `shard<k>.remote.index.searches` gauge must be non-zero.
fn check_serve(payload: &Value) -> Vec<String> {
    let values = match report_values(payload, "ext-scaling") {
        Ok(v) => v,
        Err(e) => return vec![e],
    };
    let mut failures = Vec::new();
    if !values["remote_error"].is_null() {
        failures.push(format!(
            "cross-process rung failed (error={})",
            values["remote_error"]
        ));
    }
    let Some(remote_rows) = non_empty(&values["remote_rows"]) else {
        failures.push("no remote rows (run ext-scaling with --remote-shards N)".to_string());
        return failures;
    };
    let top_recall = values["rows"]
        .as_array()
        .and_then(|rows| rows.last())
        .and_then(|row| row["recall"].as_f64());
    // Every shard must report the searches it served: a shard whose own
    // `index.searches` reads zero is either idle or not metering its work.
    let gauges = &payload["telemetry"]["gauges"];
    for row in remote_rows {
        if row["parity_checked"].as_u64().unwrap_or(0) == 0
            || row["parity_agreed"] != row["parity_checked"]
        {
            failures.push(format!(
                "remote search diverged from the unsharded index (row={row})"
            ));
        }
        // Remote sharded search is provably identical to the unsharded
        // index, so recall must match the top rung exactly — same probes,
        // same budget, not a tolerance check.
        if row["recall"].as_f64() != top_recall {
            failures.push(format!(
                "remote recall differs from the unsharded top rung (row={row})"
            ));
        }
        for k in 0..row["shards"].as_u64().unwrap_or(0) {
            let key = format!("shard{k}.remote.index.searches");
            if gauges[key.as_str()].as_f64().unwrap_or(0.0) <= 0.0 {
                failures.push(format!("shard reports no served searches (gauge={key})"));
            }
        }
    }
    let counters = &payload["telemetry"]["counters"];
    for key in ["serve.requests", "serve.bytes_tx", "serve.bytes_rx"] {
        if counters[key].as_u64().unwrap_or(0) == 0 {
            failures.push(format!("serve counter is zero or missing (counter={key})"));
        }
    }
    failures
}

fn serve_summary(payload: &Value) -> String {
    let counter = |key: &str| payload["telemetry"]["counters"][key].as_u64().unwrap_or(0);
    format!(
        "serve smoke ok ({} remote row(s) at exact parity, {} rpcs, {} bytes on the wire)",
        len(&self_report(payload, "ext-scaling")["remote_rows"]),
        counter("serve.requests"),
        counter("serve.bytes_tx") + counter("serve.bytes_rx"),
    )
}

/// `load --json`: the concurrent pass must show byte-identical candidate
/// lists and an equal RUNFP chain vs the sequential in-process baseline,
/// the deterministic pipeline probe must have carried at least 4 concurrent
/// requests on one connection with responses equal to sequential replies,
/// the shards' admission ledger must balance exactly (offered == accepted +
/// overloaded — a silently dropped request breaks it), and every latency
/// rung must have answered every one of its searches with monotone
/// percentiles.
fn check_load(payload: &Value) -> Vec<String> {
    let values = match report_values(payload, "ext-load") {
        Ok(v) => v,
        Err(e) => return vec![e],
    };
    let mut failures = Vec::new();
    if !values["error"].is_null() {
        failures.push(format!("load rung failed (error={})", values["error"]));
    }
    if values["parity_checked"].as_u64().unwrap_or(0) == 0
        || values["parity_agreed"] != values["parity_checked"]
    {
        failures.push(format!(
            "concurrent results diverged from the sequential baseline (agreed={}, checked={})",
            values["parity_agreed"], values["parity_checked"]
        ));
    }
    if !is_runfp_hex(values["runfp_remote"].as_str().unwrap_or(""))
        || values["runfp_remote"] != values["runfp_baseline"]
    {
        failures.push(format!(
            "run fingerprint diverged from the sequential baseline (remote={}, baseline={})",
            values["runfp_remote"], values["runfp_baseline"]
        ));
    }
    let pipeline = &values["pipeline"];
    if pipeline["peak_in_flight"].as_u64().unwrap_or(0) < 4 || pipeline["responses_match"] != true {
        failures.push(format!(
            "pipeline probe failed (need >= 4 in flight with sequential-equal responses) \
             (pipeline={pipeline})"
        ));
    }
    let admission = &values["admission"];
    let ledger = |key: &str| admission[key].as_u64().unwrap_or(0);
    if ledger("offered") == 0 || ledger("offered") != ledger("accepted") + ledger("overloaded") {
        failures.push(format!(
            "admission ledger broken: a request was dropped without a typed answer \
             (admission={admission})"
        ));
    }
    let Some(rungs) = non_empty(&values["rungs"]) else {
        failures.push("ext-load report has no latency rungs".to_string());
        return failures;
    };
    for rung in rungs {
        if rung["searches"].as_u64().unwrap_or(0) == 0 || rung["answered"] != rung["searches"] {
            failures.push(format!("latency rung dropped searches (rung={rung})"));
        }
        let p = |key: &str| rung[key].as_u64().unwrap_or(0);
        if !(p("p50_ns") <= p("p95_ns")
            && p("p95_ns") <= p("p99_ns")
            && p("p99_ns") <= p("p999_ns"))
        {
            failures.push(format!(
                "latency percentiles are not monotone (rung={rung})"
            ));
        }
        if rung["throughput_per_s"].as_f64().unwrap_or(0.0) <= 0.0 {
            failures.push(format!("latency rung reports no throughput (rung={rung})"));
        }
    }
    failures
}

fn load_summary(payload: &Value) -> String {
    let values = self_report(payload, "ext-load");
    let admission = &values["admission"];
    let top = values["rungs"]
        .as_array()
        .and_then(|rungs| rungs.last())
        .unwrap_or(&Value::Null);
    let us = |key: &str| top[key].as_u64().unwrap_or(0) as f64 / 1e3;
    format!(
        "load smoke ok ({} probes at exact parity, pipeline depth {}, \
         offered {} = accepted {} + overloaded {}; {} clients: \
         p50 {:.1}us p95 {:.1}us p99 {:.1}us p999 {:.1}us)",
        values["parity_checked"],
        values["pipeline"]["peak_in_flight"],
        admission["offered"],
        admission["accepted"],
        admission["overloaded"],
        top["clients"],
        us("p50_ns"),
        us("p95_ns"),
        us("p99_ns"),
        us("p999_ns"),
    )
}

/// Fingerprint parity in an `ext-scaling --json` payload: the unsharded top
/// rung and every cross-process rung ran the same probes under the same
/// seed, so their RUNFP chains must be *equal*.
/// One flipped score bit anywhere in a multi-thousand-search run changes
/// the chain — this is the O(1) behavioral-parity proof.
///
/// At least one remote rung must be present. `deep` additionally audits the
/// unsharded ladder itself: different gallery sizes must produce
/// *different* chains (equal values across different workloads signal a
/// pinned or forged constant).
fn fingerprint_audit(payload: &Value, deep: bool) -> Vec<String> {
    let values = match report_values(payload, "ext-scaling") {
        Ok(v) => v,
        Err(e) => return vec![e],
    };
    let Some(rows) = non_empty(&values["rows"]) else {
        return vec!["ext-scaling report has no rows".to_string()];
    };
    let mut failures = Vec::new();
    for row in rows {
        if !is_runfp_hex(row["runfp"].as_str().unwrap_or("")) {
            failures.push(format!(
                "rung carries no well-formed run fingerprint (row={row})"
            ));
        }
    }
    let top = rows.last().expect("non-empty")["runfp"]
        .as_str()
        .unwrap_or("");
    if !values["remote_error"].is_null() {
        failures.push(format!(
            "cross-process rung failed; its fingerprint is unverifiable (error={})",
            values["remote_error"]
        ));
    }
    match non_empty(&values["remote_rows"]) {
        None => failures
            .push("nothing to cross-check: run ext-scaling with --remote-shards N".to_string()),
        Some(remote_rows) => {
            for row in remote_rows {
                if row["runfp"].as_str().unwrap_or("") != top {
                    failures.push(format!(
                        "run fingerprint diverged from the unsharded top rung \
                         (expected={top}, row={row})"
                    ));
                }
            }
        }
    }
    if deep {
        // Different gallery sizes are different workloads: their chains
        // must differ, or someone pinned a constant.
        let mut seen = std::collections::BTreeMap::new();
        for row in rows {
            if let Some(prev) = seen.insert(row["runfp"].as_str().unwrap_or(""), &row["gallery"]) {
                failures.push(format!(
                    "distinct rungs report identical fingerprints (gallery_a={prev}, gallery_b={})",
                    row["gallery"]
                ));
            }
        }
    }
    failures
}

fn fingerprint_summary(payload: &Value, deep: bool) -> String {
    let values = self_report(payload, "ext-scaling");
    let top = values["rows"]
        .as_array()
        .and_then(|rows| rows.last())
        .and_then(|row| row["runfp"].as_str())
        .unwrap_or("");
    format!(
        "fingerprint parity ok (top rung {top}, {} remote rung(s) equal{})",
        len(&values["remote_rows"]),
        if deep { ", deep audit passed" } else { "" }
    )
}

/// A study `--json` payload's embedded telemetry section: the run must have
/// done real comparison and index work and recorded cell spans and stage
/// timings.
fn check_telemetry(payload: &Value) -> Vec<String> {
    let snap = &payload["telemetry"];
    let mut failures = Vec::new();
    for key in ["scores.comparisons.genuine", "index.searches"] {
        if snap["counters"][key].as_u64().unwrap_or(0) == 0 {
            failures.push(format!(
                "expected counter is zero or missing (counter={key})"
            ));
        }
    }
    let has_cells = snap["durations"]
        .as_object()
        .is_some_and(|d| d.keys().any(|k| k.starts_with("scores.cell.")));
    if !has_cells {
        failures.push("no scores.cell.* duration histograms".to_string());
    }
    if non_empty(&snap["stages"]).is_none() {
        failures.push("no stage records".to_string());
    }
    failures
}

/// The payload of a producer that reaches its own verdict (`check-kernel`,
/// `check-store`, `check-dist-trace`): it must hold a report, and no report
/// may carry an error.
fn check_own_verdict(payload: &Value) -> Vec<String> {
    let Some(reports) = non_empty(&payload["reports"]) else {
        return vec!["results file holds no report".to_string()];
    };
    reports
        .iter()
        .filter(|r| !r["values"]["error"].is_null())
        .map(|r| format!("{} failed (error={})", r["id"], r["values"]["error"]))
        .collect()
}

fn own_verdict_summary(payload: &Value) -> String {
    let report = &payload["reports"][0];
    format!(
        "{} ok ({})",
        report["id"].as_str().unwrap_or(""),
        report["title"].as_str().unwrap_or("")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn rows_are_fully_registered() {
        let table: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        let mut unique = table.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), table.len(), "duplicate gate name");

        assert_eq!(names().split(", ").collect::<Vec<_>>(), table);
        assert!(find("nope")
            .err()
            .unwrap()
            .ends_with(&format!("(known: {})", names())));
        let file_forms: Vec<String> = GATES
            .iter()
            .filter(|g| g.file_flags.is_some())
            .map(|g| format!("check-{} PATH", g.name))
            .collect();
        assert_eq!(usage(), format!("gate [NAME…]|{}", file_forms.join("|")));

        for gate in GATES {
            assert!(
                !(gate.check)(&json!({})).is_empty(),
                "{}: an empty payload must not pass",
                gate.name
            );
            assert!(std::ptr::eq(find(gate.name).unwrap(), gate));
            assert!(!gate.steps.is_empty() && !gate.artifacts.is_empty());
            // The payload is something a step of this row writes.
            let payload = format!("{{out}}/{}", gate.artifacts[0]);
            assert!(
                gate.steps.iter().any(|s| s.contains(&payload)),
                "{}: no step writes {payload}",
                gate.name
            );
            assert_eq!(
                file_form(&format!("check-{}", gate.name)).is_some(),
                gate.file_flags.is_some()
            );
        }
    }
}
