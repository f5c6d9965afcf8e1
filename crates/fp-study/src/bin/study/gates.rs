//! The smoke gates, one row each: the only place a gate's recipe is
//! written. `study gate [name…]` runs rows, and `scripts/check.sh` and CI
//! call that.
//!
//! A row's producer is spelled as the `study` subcommand lines that used to
//! be script arguments — the smoke scale (200 subjects, 2 remote shards,
//! …) is a constant of the row. Every producer judges its own run and
//! exits non-zero when its verdict fails, so the runner executes each line
//! in process and a row passes when every line exits 0, every artifact
//! exists and the row stayed inside [`BUDGET_SECS`]. The runner reads no
//! results file.

/// Wall-clock budget of every row, in seconds; a slower row fails.
pub const BUDGET_SECS: u64 = 600;

/// One smoke gate.
pub struct Gate {
    /// `study gate <name>`.
    pub name: &'static str,
    /// What a pass proves, in one line.
    pub proves: &'static str,
    /// Producer: `study` command lines at the pinned smoke scale. `{out}`
    /// stands for the runner's `--out DIR`.
    pub steps: &'static [&'static str],
    /// Files the steps leave under `{out}`.
    pub artifacts: &'static [&'static str],
}

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
    },
    Gate {
        name: "ladder",
        proves: "shortlist recall >= 0.98 and brute-force agreement on the 200/1000/2000 ladder, \
                 distinct chains per rung; two serve-shard processes at exact parity with the \
                 top rung (lists, recall and RUNFP), with real wire traffic and every shard \
                 metering its searches; publishes the manifest",
        steps: &[
            "ext-scaling --subjects 200 --remote-shards 2 \
             --json {out}/ladder.json --metrics {out}/ladder-metrics.json",
            "fingerprint {out}/ladder.json --json {out}/fingerprint-manifest.json",
        ],
        artifacts: &[
            "ladder.json",
            "ladder-metrics.json",
            "fingerprint-manifest.json",
        ],
    },
    Gate {
        name: "load",
        proves: "concurrent clients byte-identical to a sequential baseline (lists and RUNFP), an \
                 8-deep pipeline and an exact admission ledger",
        steps: &["load --subjects 200 --json {out}/load.json"],
        artifacts: &["load.json"],
    },
    Gate {
        name: "dist-trace",
        proves: "traced == untraced == in-process (lists and RUNFP), one connected multi-process \
                 trace tree with no dropped spans, slow-log exemplars naming the delayed shard",
        steps: &["check-dist-trace --subjects 16 --delay-ms 25 \
            --trace {out}/dist-trace.json --slowlog {out}/dist-slowlog.jsonl \
            --json {out}/dist-trace-report.json"],
        artifacts: &[
            "dist-trace-report.json",
            "dist-trace.json",
            "dist-slowlog.jsonl",
        ],
    },
    Gate {
        name: "kernel",
        proves: "every coded entry LANE_WORDS wide, enrolled and store-opened; stage-1 arena \
                 kernel bitwise equal to the scalar reference",
        steps: &["check-kernel --subjects 20 --json {out}/kernel.json"],
        artifacts: &["kernel.json"],
    },
    Gate {
        name: "store",
        proves: "open, serve-from-store with kill+restart, churn and compaction each \
                 byte-identical to fresh enrollment; every section CRC ok",
        steps: &[
            "check-store --subjects 200 --gallery-dir {out}/store-gallery \
             --json {out}/store.json",
            "gallery inspect {out}/store-gallery --json {out}/store-inspect.json",
        ],
        artifacts: &["store.json", "store-inspect.json", "store-gallery"],
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

#[cfg(test)]
mod tests {
    use super::*;

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
        for gate in GATES {
            assert!(std::ptr::eq(find(gate.name).unwrap(), gate));
            assert!(!gate.steps.is_empty() && !gate.artifacts.is_empty());
            // Every artifact is something a step of this row writes.
            for artifact in gate.artifacts {
                let path = format!("{{out}}/{artifact}");
                assert!(
                    gate.steps.iter().any(|s| s.contains(&path)),
                    "{}: no step writes {path}",
                    gate.name
                );
            }
        }
    }

    /// The runner runs every line it meets: two rows naming one line would
    /// run it twice.
    #[test]
    fn no_two_rows_share_a_step_line() {
        let mut lines: Vec<String> = GATES
            .iter()
            .flat_map(|g| g.steps)
            .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect();
        let all = lines.len();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), all, "a step line appears in two rows");
    }
}
