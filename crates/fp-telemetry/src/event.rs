//! Structured log events with severity levels.
//!
//! The study harness used to narrate itself with bare `eprintln!`; those
//! diagnostics vanished the moment the terminal scrolled. Events recorded
//! here land in the flight recorder's bounded buffer — exported alongside
//! the span tree (`--trace`) or as JSON Lines (`--events`) — *and* are
//! mirrored to stderr so interactive runs read exactly as before. A
//! disabled handle skips the recording but keeps the mirror: diagnostics
//! are never silently lost.

use serde::Serialize;

use crate::trace::thread_lane;
use crate::Telemetry;

/// Event severity. `Debug` is recorded but not mirrored to stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Level {
    /// Verbose diagnostics; recorded, not mirrored.
    Debug,
    /// Normal progress narration.
    Info,
    /// Something degraded but the run continues.
    Warn,
    /// The operation failed.
    Error,
}

impl Level {
    /// Lower-case name, as used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured log event.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EventRecord {
    /// Nanoseconds since the telemetry handle was created.
    pub ts_ns: u64,
    /// Trace lane of the emitting thread.
    pub thread: u64,
    /// Severity.
    pub level: Level,
    /// Human-readable message.
    pub message: String,
    /// Structured key-value payload.
    pub fields: Vec<(String, String)>,
}

impl Telemetry {
    /// Emits a structured event: recorded in the flight recorder when
    /// enabled, mirrored to stderr at `Info` and above either way.
    pub fn event(&self, level: Level, message: &str) {
        self.event_with(level, message, &[]);
    }

    /// [`Telemetry::event`] with structured fields.
    pub fn event_with(&self, level: Level, message: &str, fields: &[(&str, String)]) {
        if let Some(inner) = &self.inner {
            inner.trace.push_event(EventRecord {
                ts_ns: inner.trace.now_ns(),
                thread: thread_lane(),
                level,
                message: message.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            });
        }
        if level >= Level::Info {
            if fields.is_empty() {
                eprintln!("{message}");
            } else {
                let payload: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
                eprintln!("{message} ({})", payload.join(", "));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_recorded_in_order_with_levels() {
        let t = Telemetry::enabled();
        t.event(Level::Debug, "setup");
        t.event_with(Level::Warn, "cell slow", &[("cell", "g0p4".to_string())]);
        let trace = t.trace_snapshot();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].level, Level::Debug);
        assert_eq!(trace.events[1].message, "cell slow");
        assert_eq!(
            trace.events[1].fields,
            vec![("cell".to_string(), "g0p4".to_string())]
        );
        assert!(trace.events[0].ts_ns <= trace.events[1].ts_ns);
    }

    #[test]
    fn disabled_handle_records_nothing_but_does_not_panic() {
        let t = Telemetry::disabled();
        t.event(Level::Error, "mirrored to stderr only");
        assert!(t.trace_snapshot().events.is_empty());
    }

    #[test]
    fn events_jsonl_is_one_parseable_line_per_event() {
        let t = Telemetry::enabled();
        t.event(Level::Info, "first");
        t.event_with(Level::Error, "second", &[("k", "v".to_string())]);
        let jsonl = t.trace_snapshot().events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let parsed = serde_json::from_str(line).expect("valid json line");
            assert!(!parsed["message"].as_str().expect("a message").is_empty());
        }
        let second = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second["level"], "Error");
        assert_eq!(second["fields"], serde_json::json!([["k", "v"]]));
    }

    #[test]
    fn level_order_supports_filtering() {
        assert!(Level::Error > Level::Warn);
        assert!(Level::Warn > Level::Info);
        assert!(Level::Info > Level::Debug);
        assert_eq!(Level::Warn.to_string(), "warn");
    }
}
