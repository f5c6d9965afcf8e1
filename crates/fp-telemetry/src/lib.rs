//! # fp-telemetry
//!
//! Std-only observability for the study harness: spans, counters, gauges,
//! lock-free histograms, a throttled progress reporter and per-stage thread
//! utilization — exported as one JSON tree so `study --json` output gains a
//! `"telemetry"` section that can be diffed across runs.
//!
//! The paper's pipeline runs ~616k comparisons behind a single `Instant`;
//! this crate opens that black box without a `tracing` dependency (the
//! build environment is offline and the approved dependency list is small).
//!
//! ## Design
//!
//! Everything hangs off a [`Telemetry`] handle — a cheap-to-clone
//! `Option<Arc<...>>`. [`Telemetry::disabled`] (the `Default`) carries
//! `None`: every counter increment, histogram record and span is a no-op
//! that never allocates, locks, or reads the clock, so tests and benches
//! pay nothing unless they opt in via [`Telemetry::enabled`]. There is no
//! global registry; the handle is threaded explicitly through the pipeline
//! (`StudyData::generate_with` and friends).
//!
//! Hot paths never lock: [`Counter`], [`Gauge`] and the histograms hand out
//! `Arc`s of atomics at registration time, so a matcher can pre-register
//! its instruments once and bump them 600k times with relaxed atomics.
//!
//! Determinism: counters and value histograms measure *work* (pair-table
//! entries, cluster sizes, comparisons), which is a pure function of the
//! seed — two same-seed runs report identical values. Durations and stage
//! utilization measure *time* and naturally vary; they live in separate
//! sections of the snapshot so consumers can diff the deterministic parts.
//!
//! ```
//! use fp_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::enabled();
//! let items = telemetry.counter("pipeline.items");
//! {
//!     let _span = telemetry.span("pipeline");
//!     for _ in 0..10 {
//!         items.incr();
//!     }
//! }
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.counters["pipeline.items"], 10);
//! assert_eq!(snapshot.durations["pipeline"].count, 1);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

mod event;
mod hist;
mod progress;
mod runfp;
mod snapshot;
mod span;
mod stage;
mod trace;

pub use event::{EventRecord, Level};
pub use hist::{DurationHistogram, HistogramSnapshot, ValueHistogram};
pub use progress::Progress;
pub use runfp::{
    FingerprintChain, FingerprintSnapshot, Fingerprinted, RunFingerprint, RUNFP_VERSION,
};
pub use snapshot::{render_summary, MetricsSnapshot, TraceHealth};
pub use span::{DetachedSpan, Span};
pub use stage::{StageRecorder, StageStats, ThreadStats, WorkerStats};
pub use trace::{
    CtxGuard, SelfTime, SpanRecord, TraceCtx, TraceSnapshot, DEFAULT_EVENT_CAPACITY,
    DEFAULT_SPAN_CAPACITY, LOCAL_PID, REMOTE_PARENT_ATTR,
};

use hist::HistogramCore;
use trace::TraceBuffer;

/// The telemetry handle: all instruments are created through it.
///
/// Cloning is cheap (an `Arc` bump, or nothing when disabled) and all
/// clones share the same registry.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    /// Gauges store `f64::to_bits`.
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    /// Wall-time histograms, recorded in nanoseconds.
    durations: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    /// Work-size histograms (pair-table entries, cluster sizes, ...).
    values: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    /// Per-stage thread statistics from instrumented `parallel_map` runs.
    stages: Mutex<Vec<StageStats>>,
    /// The flight recorder: span tree + structured event log.
    trace: TraceBuffer,
}

impl Telemetry {
    /// A live handle: instruments record into a shared registry.
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A live handle whose flight-recorder buffers hold at most `spans`
    /// spans and `events` events (see [`DEFAULT_SPAN_CAPACITY`]). Overflow
    /// is counted, never blocking.
    pub fn with_trace_capacity(spans: usize, events: usize) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                trace: TraceBuffer::with_capacity(spans, events),
                ..Inner::default()
            })),
        }
    }

    /// A no-op handle: every instrument is inert and free.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or retrieves) a named monotonic counter.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    inner
                        .counters
                        .lock()
                        .expect("counter registry poisoned")
                        .entry(name.to_string())
                        .or_default(),
                )
            }),
        }
    }

    /// Registers (or retrieves) a named gauge holding one `f64`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|inner| {
                Arc::clone(
                    inner
                        .gauges
                        .lock()
                        .expect("gauge registry poisoned")
                        .entry(name.to_string())
                        .or_default(),
                )
            }),
        }
    }

    /// Registers (or retrieves) a named wall-time histogram.
    pub fn duration(&self, name: &str) -> DurationHistogram {
        DurationHistogram::new(self.core(name, |inner| &inner.durations))
    }

    /// Registers (or retrieves) a named work-size histogram.
    pub fn value(&self, name: &str) -> ValueHistogram {
        ValueHistogram::new(self.core(name, |inner| &inner.values))
    }

    fn core(
        &self,
        name: &str,
        table: impl Fn(&Inner) -> &Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    ) -> Option<Arc<HistogramCore>> {
        self.inner.as_ref().map(|inner| {
            Arc::clone(
                table(inner)
                    .lock()
                    .expect("histogram registry poisoned")
                    .entry(name.to_string())
                    .or_default(),
            )
        })
    }

    pub(crate) fn push_stage(&self, stats: StageStats) {
        if let Some(inner) = &self.inner {
            inner
                .stages
                .lock()
                .expect("stage registry poisoned")
                .push(stats);
        }
    }

    /// A consistent copy of every instrument's current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        snapshot::take(self.inner.as_deref())
    }
}

/// A counter, monotonic unless its owner settles provisional adds with
/// [`sub`](Self::sub). Updates are relaxed atomic ops; a disabled counter
/// is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Takes back `n` of an earlier provisional [`add`](Self::add) — for a
    /// total that is only settled by a later step the adder may never hear
    /// about. Saturates at zero, so an unmatched call cannot wrap the
    /// counter.
    #[inline]
    pub fn sub(&self, n: u64) {
        if let Some(cell) = &self.cell {
            let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
        }
    }

    /// The current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// A gauge holding the most recently set `f64`.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current value (0.0 when disabled).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        let c = t.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let snapshot = t.snapshot();
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.durations.is_empty());
    }

    #[test]
    fn counters_share_state_by_name() {
        let t = Telemetry::enabled();
        let a = t.counter("hits");
        let b = t.counter("hits");
        a.add(2);
        b.incr();
        assert_eq!(a.get(), 3);
        assert_eq!(t.snapshot().counters["hits"], 3);
    }

    #[test]
    fn gauges_hold_last_value() {
        let t = Telemetry::enabled();
        let g = t.gauge("utilization");
        g.set(0.75);
        g.set(0.5);
        assert_eq!(t.snapshot().gauges["utilization"], 0.5);
    }

    #[test]
    fn clones_share_the_registry() {
        let t = Telemetry::enabled();
        let clone = t.clone();
        clone.counter("n").add(7);
        assert_eq!(t.snapshot().counters["n"], 7);
    }

    #[test]
    fn counter_adds_are_atomic_across_threads() {
        let t = Telemetry::enabled();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let counter = t.counter("parallel");
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        counter.incr();
                    }
                });
            }
        });
        assert_eq!(t.snapshot().counters["parallel"], threads * per_thread);
    }
}
