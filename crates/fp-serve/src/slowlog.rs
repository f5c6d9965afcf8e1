//! Tail-latency exemplars: one structured record per slow search.
//!
//! Aggregate histograms say *that* the p99 moved; an exemplar says *why*:
//! which shard was slow, whether the time went to queue wait or work,
//! whether the request was retried or shed. The coordinator offers every
//! completed search to a [`SlowLog`]; searches whose end-to-end latency
//! exceeds the threshold keep their full per-shard breakdown as one JSONL
//! line (`study load --slowlog PATH`).
//!
//! # Threshold
//!
//! An explicit nanosecond threshold can be configured; the default is the
//! **running p99** of the end-to-end latencies observed so far, read from
//! the same [`fp_telemetry::HistogramSnapshot`] machinery the rest of the harness uses.
//! The first [`SlowLog::WARMUP`] searches never emit (a p99 estimated from
//! a handful of samples is the sample max — see `fp_telemetry::hist` — so
//! every early search would "exceed" it); after warm-up a search is an
//! exemplar iff `total_ns > threshold`. The log is capacity-bounded:
//! once full, new exemplars are counted as dropped, never blocking.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use fp_telemetry::DurationHistogram;

/// Default exemplar capacity: enough for any check gate or load run while
/// bounding memory on a pathological configuration (threshold 0).
pub const DEFAULT_SLOWLOG_CAPACITY: usize = 4096;

/// Per-shard timing breakdown of one search, as observed by the
/// coordinator (round-trip times, bytes) and echoed by the shard
/// ([`crate::wire::ServerTiming`] queue-wait/work split).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardBreakdown {
    /// Shard index in the coordinator's round-robin mapping.
    pub shard: usize,
    /// Stage-1 round trip (ns), as timed by the coordinator.
    pub stage1_ns: u64,
    /// Re-rank round trip (ns); 0 when the shard's slice was empty.
    pub rerank_ns: u64,
    /// Admission-to-dispatch wait in the shard's worker pool (ns), summed
    /// over the search's RPCs. Only present on traced (sampled) runs.
    pub queue_wait_ns: u64,
    /// Shard-side compute time (ns), summed over the search's RPCs.
    pub work_ns: u64,
    /// Wire bytes written to this shard for this search.
    pub bytes_tx: u64,
    /// Wire bytes read from this shard for this search.
    pub bytes_rx: u64,
    /// Whether any RPC fell back to the retrying path.
    pub retried: bool,
    /// Whether any attempt was shed by the shard's admission control.
    pub shed: bool,
}

/// One retained exemplar: a search that exceeded the threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowLogEntry {
    /// 1-based sequence number of the search (coordinator search counter).
    pub seq: u64,
    /// End-to-end latency of the search (ns).
    pub total_ns: u64,
    /// The threshold the search exceeded (ns) — the running p99 at the
    /// time, or the configured explicit threshold.
    pub threshold_ns: u64,
    /// Per-shard breakdown, in shard order.
    pub shards: Vec<ShardBreakdown>,
}

impl SlowLogEntry {
    /// The shard that contributed the most round-trip time (stage-1 plus
    /// re-rank), if any — "which shard made this search slow".
    pub fn slowest_shard(&self) -> Option<usize> {
        self.shards
            .iter()
            .max_by_key(|b| b.stage1_ns + b.rerank_ns)
            .map(|b| b.shard)
    }

    /// The exemplar as one JSON object (one JSONL line when joined with
    /// newlines).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "seq": self.seq,
            "total_ns": self.total_ns,
            "threshold_ns": self.threshold_ns,
            "slowest_shard": self.slowest_shard(),
            "shards": self.shards.iter().map(|b| serde_json::json!({
                "shard": b.shard,
                "stage1_ns": b.stage1_ns,
                "rerank_ns": b.rerank_ns,
                "queue_wait_ns": b.queue_wait_ns,
                "work_ns": b.work_ns,
                "bytes_tx": b.bytes_tx,
                "bytes_rx": b.bytes_rx,
                "retried": b.retried,
                "shed": b.shed,
            })).collect::<Vec<_>>(),
        })
    }
}

/// The tail-latency exemplar log. Thread-safe; `observe` is called by
/// every search, exemplars are kept under a mutex the hot path only takes
/// for a push.
#[derive(Debug)]
pub struct SlowLog {
    /// Explicit threshold (ns); `None` uses the running p99.
    threshold_ns: Option<u64>,
    capacity: usize,
    /// End-to-end search latencies; its snapshot's p99 is the default
    /// threshold. Registered as `serve.search.e2e` when built from a live
    /// telemetry handle, private otherwise.
    e2e: DurationHistogram,
    entries: Mutex<Vec<SlowLogEntry>>,
    dropped: AtomicU64,
}

impl SlowLog {
    /// Searches observed before the running-p99 threshold arms. Chosen so
    /// the p99 estimate has left the near-empty regime (where it equals
    /// the sample max) well behind.
    pub const WARMUP: u64 = 32;

    /// A log using the running p99 of observed latencies as threshold.
    ///
    /// A disabled telemetry handle's histograms are inert, which would
    /// leave the threshold unarmed forever — so the log falls back to a
    /// private live handle when given one; the histogram is then only
    /// visible through the log itself.
    pub fn running_p99(telemetry: &fp_telemetry::Telemetry) -> SlowLog {
        let host = if telemetry.is_enabled() {
            telemetry.clone()
        } else {
            fp_telemetry::Telemetry::enabled()
        };
        SlowLog {
            threshold_ns: None,
            capacity: DEFAULT_SLOWLOG_CAPACITY,
            e2e: host.duration("serve.search.e2e"),
            entries: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// A log with a fixed nanosecond threshold (no warm-up: the first slow
    /// search is already an exemplar).
    pub fn with_threshold_ns(telemetry: &fp_telemetry::Telemetry, threshold_ns: u64) -> SlowLog {
        SlowLog {
            threshold_ns: Some(threshold_ns),
            ..SlowLog::running_p99(telemetry)
        }
    }

    /// Overrides the exemplar capacity (clamped to at least 1).
    pub fn with_capacity(mut self, capacity: usize) -> SlowLog {
        self.capacity = capacity.max(1);
        self
    }

    /// Offers one completed search. Records the latency, then keeps the
    /// full breakdown iff it exceeded the threshold in force.
    pub fn observe(&self, seq: u64, total_ns: u64, shards: Vec<ShardBreakdown>) {
        self.e2e.record(std::time::Duration::from_nanos(total_ns));
        let threshold_ns = match self.threshold_ns {
            Some(t) => t,
            None => {
                let snapshot = self.e2e.snapshot();
                if snapshot.count <= Self::WARMUP {
                    return;
                }
                snapshot.p99
            }
        };
        if total_ns <= threshold_ns {
            return;
        }
        let mut entries = self.retained();
        if entries.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        entries.push(SlowLogEntry {
            seq,
            total_ns,
            threshold_ns,
            shards,
        });
    }

    /// The retained exemplars. Nothing panics while holding the lock: it
    /// is held to push, clone or serialize the list.
    fn retained(&self) -> MutexGuard<'_, Vec<SlowLogEntry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exemplars retained so far, in observation order.
    pub fn entries(&self) -> Vec<SlowLogEntry> {
        self.retained().clone()
    }

    /// Exemplars that arrived after the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The whole log as JSONL (one exemplar per line), ready for
    /// `--slowlog PATH`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in self.retained().iter() {
            out.push_str(&entry.to_json().to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_telemetry::Telemetry;

    fn breakdown(shard: usize, stage1_ns: u64) -> ShardBreakdown {
        ShardBreakdown {
            shard,
            stage1_ns,
            ..ShardBreakdown::default()
        }
    }

    #[test]
    fn explicit_threshold_keeps_only_exceeding_searches() {
        let log = SlowLog::with_threshold_ns(&Telemetry::disabled(), 1_000);
        log.observe(1, 500, vec![breakdown(0, 400)]);
        log.observe(2, 1_500, vec![breakdown(0, 200), breakdown(1, 1_200)]);
        let entries = log.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].seq, 2);
        assert_eq!(entries[0].threshold_ns, 1_000);
        assert_eq!(entries[0].slowest_shard(), Some(1));
    }

    #[test]
    fn running_p99_threshold_stays_quiet_through_warmup() {
        let log = SlowLog::running_p99(&Telemetry::disabled());
        // Every warm-up sample is a new max; none may become an exemplar.
        for i in 0..SlowLog::WARMUP {
            log.observe(i + 1, (i + 1) * 1_000, vec![]);
        }
        assert!(log.entries().is_empty());
        // Far beyond the observed range: exceeds any p99 estimate.
        log.observe(
            SlowLog::WARMUP + 1,
            10_000_000,
            vec![breakdown(0, 9_000_000)],
        );
        let entries = log.entries();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].threshold_ns < 10_000_000);
    }

    #[test]
    fn capacity_bounds_the_log_and_counts_drops() {
        let log = SlowLog::with_threshold_ns(&Telemetry::disabled(), 0).with_capacity(2);
        for seq in 1..=5 {
            log.observe(seq, 100, vec![]);
        }
        assert_eq!(log.entries().len(), 2);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn jsonl_round_trips_per_shard_fields() {
        let log = SlowLog::with_threshold_ns(&Telemetry::disabled(), 10);
        log.observe(
            7,
            99,
            vec![ShardBreakdown {
                shard: 1,
                stage1_ns: 40,
                rerank_ns: 30,
                queue_wait_ns: 5,
                work_ns: 60,
                bytes_tx: 123,
                bytes_rx: 456,
                retried: true,
                shed: false,
            }],
        );
        let jsonl = log.to_jsonl();
        let line: serde_json::Value =
            serde_json::from_str(jsonl.lines().next().expect("one line")).expect("valid json");
        assert_eq!(line["seq"], 7);
        assert_eq!(line["slowest_shard"], 1);
        assert_eq!(line["shards"][0]["queue_wait_ns"], 5);
        assert_eq!(line["shards"][0]["retried"], true);
        assert_eq!(line["shards"][0]["bytes_rx"], 456);
    }
}
