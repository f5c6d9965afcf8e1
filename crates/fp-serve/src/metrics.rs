//! The `serve.*` instrument bundle shared by the coordinator's remote
//! shards.
//!
//! Everything lives under one prefix so a remote run's transport cost sits
//! next to the `index.*` metrics it wraps in the same
//! [`MetricsSnapshot`](fp_telemetry::MetricsSnapshot):
//!
//! * `serve.requests` — RPCs issued (including retried attempts);
//! * `serve.bytes_tx` / `serve.bytes_rx` — wire bytes written / read;
//! * `serve.retries` — attempts beyond the first;
//! * `serve.timeouts` — attempts that died on the per-request deadline;
//! * `serve.shed` — typed `OVERLOADED` responses observed (the shard's
//!   admission control refusing work; retried like a transport failure);
//! * `serve.drift` — fingerprint-chain mismatches between a shard's
//!   scraped chain and the coordinator's mirror (each one also surfaced
//!   as a typed `ShardError::FingerprintDrift`);
//! * `serve.search.failed` — coordinator searches that returned an error
//!   (an unreachable shard, or a typed error frame such as a rotten
//!   table's);
//! * `serve.rpc.<kind>` — one latency histogram per request frame type
//!   (`enroll`, `stage1`, `rerank`, `health`, `shutdown`), timing the full
//!   round trip including encode/decode.

use std::time::Duration;

use fp_telemetry::{Counter, DurationHistogram, Telemetry};

/// Instruments of the remote-shard transport. Cheap to clone; a bundle
/// built from [`Telemetry::disabled`] (the [`Default`]) is inert.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    pub(crate) telemetry: Telemetry,
    pub(crate) requests: Counter,
    pub(crate) bytes_tx: Counter,
    pub(crate) bytes_rx: Counter,
    pub(crate) retries: Counter,
    pub(crate) timeouts: Counter,
    pub(crate) shed: Counter,
    pub(crate) drift: Counter,
    pub(crate) search_failed: Counter,
}

impl ServeMetrics {
    /// Registers the `serve.*` instruments on `telemetry`.
    pub fn new(telemetry: &Telemetry) -> ServeMetrics {
        ServeMetrics {
            telemetry: telemetry.clone(),
            requests: telemetry.counter("serve.requests"),
            bytes_tx: telemetry.counter("serve.bytes_tx"),
            bytes_rx: telemetry.counter("serve.bytes_rx"),
            retries: telemetry.counter("serve.retries"),
            timeouts: telemetry.counter("serve.timeouts"),
            shed: telemetry.counter("serve.shed"),
            drift: telemetry.counter("serve.drift"),
            search_failed: telemetry.counter("serve.search.failed"),
        }
    }

    /// Records one completed round trip of the given frame kind.
    pub(crate) fn record_rpc(&self, kind: &'static str, elapsed: Duration) {
        self.rpc_time(kind).record(elapsed);
    }

    /// The per-frame-type round-trip latency histogram (`serve.rpc.<kind>`;
    /// get-or-create, so it is as cheap as a map lookup).
    pub fn rpc_time(&self, kind: &str) -> DurationHistogram {
        self.telemetry.duration(&format!("serve.rpc.{kind}"))
    }
}
