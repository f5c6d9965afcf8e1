//! Snapshotting the registry and rendering the one-screen ASCII summary.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use serde::Serialize;

use fp_stats::summary::Summary;

use crate::hist::HistogramSnapshot;
use crate::stage::StageStats;
use crate::Inner;

/// A consistent, serializable copy of every instrument.
///
/// `counters` and `values` are deterministic for a fixed seed (they measure
/// work); `durations`, `gauges` and `stages` measure time and vary run to
/// run. Keys are sorted (`BTreeMap`), so serialized output has a stable
/// field order.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges, by name.
    pub gauges: BTreeMap<String, f64>,
    /// Wall-time histograms (nanoseconds), by span path.
    pub durations: BTreeMap<String, HistogramSnapshot>,
    /// Work-size histograms, by name.
    pub values: BTreeMap<String, HistogramSnapshot>,
    /// Parallel-stage thread statistics, in completion order.
    pub stages: Vec<StageStats>,
    /// Flight-recorder health: how much of the trace was truncated.
    pub trace: TraceHealth,
}

/// Flight-recorder truncation counters.
///
/// The span/event slot buffers are bounded and never block: overflow is
/// counted, not stored. Non-zero numbers here mean the trace export is
/// incomplete and span-derived figures undercount.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Default)]
pub struct TraceHealth {
    /// Spans discarded because the span buffer was full.
    pub dropped_spans: u64,
    /// Events discarded because the event buffer was full.
    pub dropped_events: u64,
}

pub(crate) fn take(inner: Option<&Inner>) -> MetricsSnapshot {
    let Some(inner) = inner else {
        return MetricsSnapshot::default();
    };
    MetricsSnapshot {
        counters: inner
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect(),
        gauges: inner
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect(),
        durations: inner
            .durations
            .lock()
            .expect("duration registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect(),
        values: inner
            .values
            .lock()
            .expect("value registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect(),
        stages: inner
            .stages
            .lock()
            .expect("stage registry poisoned")
            .clone(),
        trace: {
            let (dropped_spans, dropped_events) = inner.trace.dropped_counts();
            TraceHealth {
                dropped_spans,
                dropped_events,
            }
        },
    }
}

fn format_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Renders a one-screen summary: the five slowest spans by total time,
/// worker utilization per parallel stage, and the work counters.
pub fn render_summary(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("telemetry summary\n");

    // Top spans by total wall time.
    let mut spans: Vec<(&String, &HistogramSnapshot)> = snapshot.durations.iter().collect();
    spans.sort_by_key(|(_, h)| std::cmp::Reverse(h.sum));
    if !spans.is_empty() {
        out.push_str("  slowest spans (by total time):\n");
        for (name, h) in spans.iter().take(5) {
            out.push_str(&format!(
                "    {:<36} {:>9} total  {:>8} p50  {:>8} p95  x{}\n",
                name,
                format_ns(h.sum),
                format_ns(h.p50),
                format_ns(h.p95),
                h.count,
            ));
        }
    }

    // Thread utilization per parallel stage.
    if !snapshot.stages.is_empty() {
        out.push_str("  parallel stages:\n");
        for stage in &snapshot.stages {
            let utils: Vec<f64> = stage.threads.iter().map(|t| t.utilization).collect();
            let summary = Summary::of(&utils);
            let (mean, min) = summary.map(|s| (s.mean, s.min)).unwrap_or((0.0, 0.0));
            out.push_str(&format!(
                "    {:<36} {:>9} wall  {:>3} threads  util mean {:>4.0}% min {:>4.0}%  {} items\n",
                stage.stage,
                format_ns(stage.wall_ns),
                stage.threads.len(),
                mean * 100.0,
                min * 100.0,
                stage.items,
            ));
        }
    }

    // Trace truncation: only worth a line when something was lost.
    if snapshot.trace != TraceHealth::default() {
        out.push_str(&format!(
            "  trace truncated: {} spans dropped, {} events dropped\n",
            snapshot.trace.dropped_spans, snapshot.trace.dropped_events,
        ));
    }

    // Deterministic work counters.
    if !snapshot.counters.is_empty() {
        out.push_str("  counters:\n");
        for (name, value) in &snapshot.counters {
            out.push_str(&format!("    {name:<44} {value:>12}\n"));
        }
    }

    // Work-size distributions, largest mean first.
    if !snapshot.values.is_empty() {
        out.push_str("  work sizes:\n");
        let mut values: Vec<(&String, &HistogramSnapshot)> = snapshot.values.iter().collect();
        values.sort_by(|a, b| {
            b.1.mean()
                .partial_cmp(&a.1.mean())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for (name, h) in values {
            out.push_str(&format!(
                "    {:<36} mean {:>10.1}  p50 {:>8}  p95 {:>8}  max {:>8}  x{}\n",
                name,
                h.mean(),
                h.p50,
                h.p95,
                h.max,
                h.count,
            ));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn snapshot_serializes_to_json_with_sorted_sections() {
        let t = Telemetry::enabled();
        t.counter("b.count").add(2);
        t.counter("a.count").add(1);
        t.gauge("load").set(0.5);
        t.duration("stage")
            .record(std::time::Duration::from_micros(100));
        t.value("sizes").record(40);

        let json = serde_json::to_value(t.snapshot()).expect("serializes");
        assert_eq!(json["counters"]["a.count"], 1);
        assert_eq!(json["counters"]["b.count"], 2);
        assert_eq!(json["gauges"]["load"].as_f64(), Some(0.5));
        assert_eq!(json["durations"]["stage"]["count"], 1);
        assert_eq!(json["values"]["sizes"]["sum"], 40);
        // Sorted key order in the serialized map.
        let keys: Vec<&String> = json["counters"]
            .as_object()
            .expect("object")
            .keys()
            .collect();
        assert_eq!(keys, ["a.count", "b.count"]);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let t = Telemetry::enabled();
        t.counter("n").add(3);
        t.value("sizes").record(7);
        let snapshot = t.snapshot();
        let json = serde_json::to_string(&snapshot).expect("serializes");
        let back = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, serde_json::to_value(&snapshot).expect("serializes"));
        assert_eq!(back["counters"]["n"], 3);
        assert_eq!(back["values"]["sizes"]["p999"], 7);
    }

    #[test]
    fn forced_drops_surface_in_snapshot_and_json() {
        let t = Telemetry::with_trace_capacity(2, 1);
        for i in 0..5 {
            let _span = t.trace_span("work", &[]);
            t.event(crate::Level::Info, &format!("e{i}"));
        }
        let snapshot = t.snapshot();
        assert_eq!(snapshot.trace.dropped_spans, 3);
        assert_eq!(snapshot.trace.dropped_events, 4);
        let json = serde_json::to_value(&snapshot).expect("serializes");
        assert_eq!(json["trace"]["dropped_spans"], 3);
        assert_eq!(json["trace"]["dropped_events"], 4);
        let text = render_summary(&snapshot);
        assert!(text.contains("3 spans dropped"), "{text}");
    }

    #[test]
    fn summary_mentions_spans_stages_and_counters() {
        let t = Telemetry::enabled();
        t.counter("match.comparisons").add(100);
        t.duration("study.scores")
            .record(std::time::Duration::from_millis(2));
        {
            let recorder = crate::stage::StageRecorder::start(&t, "scores.genuine");
            let mut w = crate::stage::WorkerStats::default();
            w.record(std::time::Duration::from_micros(50));
            recorder.finish(vec![w]);
        }
        let text = render_summary(&t.snapshot());
        assert!(text.contains("study.scores"), "{text}");
        assert!(text.contains("scores.genuine"), "{text}");
        assert!(text.contains("match.comparisons"), "{text}");
        assert!(text.contains("util"), "{text}");
    }
}
