//! Outside-in tracing for the traced pass.
//!
//! The benchmark's own code opens an `fp_telemetry` span (name, start, end,
//! parent) around each call into a layer's public seam; spans stay in
//! memory until the pass ends, then the per-layer medians are read back
//! from them and the whole tree is written as a Chrome trace. Spans inside
//! the libraries are a later change that will be checked against these.

use std::collections::BTreeMap;
use std::path::Path;

use fp_telemetry::{Span, Telemetry};

use crate::stats;

/// Room for every span of the longest traced pass; overflow would be
/// counted as dropped and fail the tree check rather than block.
const SPAN_CAPACITY: usize = 1 << 18;

/// The traced pass's span recorder.
pub struct Tracer {
    telemetry: Telemetry,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            telemetry: Telemetry::with_trace_capacity(SPAN_CAPACITY, 16),
        }
    }

    /// Opens a span; it nests under the innermost live span on this thread.
    pub fn span(&self, name: &str) -> Span {
        self.telemetry.trace_span(name, &[])
    }

    /// Opens the root span of one operation. `trace_id` is shared by every
    /// span opened beneath it (they are linked to it by parent id).
    pub fn root(&self, name: &str, trace_id: u64) -> Span {
        self.telemetry
            .trace_span(name, &[("trace_id", trace_id.to_string())])
    }

    /// Checks the span tree, writes it to `path` in Chrome trace-event
    /// format, and returns the durations grouped by span name.
    pub fn finish(&self, path: &Path) -> Result<TraceSummary, String> {
        let snapshot = self.telemetry.trace_snapshot();
        if snapshot.dropped_spans > 0 {
            return Err(format!(
                "{} spans dropped: raise SPAN_CAPACITY",
                snapshot.dropped_spans
            ));
        }
        snapshot.validate_tree()?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let text = serde_json::to_string(&snapshot.to_chrome_trace())
            .map_err(|e| format!("serialize trace: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        let mut durations_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for span in &snapshot.spans {
            durations_ms
                .entry(span.name.clone())
                .or_default()
                .push(span.dur_ns as f64 / 1e6);
        }
        Ok(TraceSummary {
            durations_ms,
            spans: snapshot.spans.len(),
        })
    }
}

/// Span durations of a finished traced pass, by span name.
pub struct TraceSummary {
    durations_ms: BTreeMap<String, Vec<f64>>,
    /// All spans recorded.
    pub spans: usize,
}

impl TraceSummary {
    /// Durations (ms) of every span called `name`.
    pub fn samples_ms(&self, name: &str) -> &[f64] {
        self.durations_ms.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median duration (ms) of the spans called `name`; 0 when there are none.
    pub fn median_ms(&self, name: &str) -> f64 {
        match self.samples_ms(name) {
            [] => 0.0,
            samples => stats::median(samples),
        }
    }
}
