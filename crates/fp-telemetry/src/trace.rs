//! The flight recorder: a hierarchical span tree in a bounded lock-free
//! buffer, exportable as Chrome trace-event JSON.
//!
//! Where the duration histograms answer "how long does this stage take on
//! average", the trace answers "what did this *particular* run do, when,
//! and on which thread" — a replayable timeline for the 616k-comparison
//! study. Every span carries an id, its parent's id, the thread lane it ran
//! on, and free-form attributes (device pair, experiment, subject), so the
//! tree can be reassembled after the fact and loaded into
//! `chrome://tracing` / Perfetto.
//!
//! ## Parenting
//!
//! Within a thread, parents come from the same thread-local stack the
//! dotted histogram paths use. Across threads the link is explicit: the
//! spawning side captures a [`TraceCtx`] (the current span's id) and each
//! worker adopts it with [`Telemetry::in_ctx`], so spans opened on worker
//! threads parent to the span that launched the stage. `fp-study`'s
//! `parallel_map_metered` does this automatically.
//!
//! ## The buffer
//!
//! Records land in a fixed-capacity slot buffer: a `fetch_add` claims a
//! slot, the record is written once, and a per-slot release flag publishes
//! it. No locks, no reallocation, no unbounded growth — when the buffer is
//! full further records are counted as dropped, never blocking the
//! pipeline. Span ids keep incrementing, so a truncated trace still has a
//! consistent tree among the records it retained.
//!
//! ## Time
//!
//! Timestamps are nanoseconds since the handle's creation (`Instant`-based,
//! monotonic). They vary run to run; the *structure* — span names, parents,
//! attributes, per-name counts — is a pure function of the seed, mirroring
//! the counters/durations determinism split.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crate::event::EventRecord;
use crate::span;
use crate::Telemetry;

/// Default capacity of the span buffer (records, not bytes).
pub const DEFAULT_SPAN_CAPACITY: usize = 16 * 1024;
/// Default capacity of the event buffer.
pub const DEFAULT_EVENT_CAPACITY: usize = 8 * 1024;
/// Process lane of spans recorded by this process. Remote spans merged via
/// [`TraceSnapshot::merge_remote`] get `shard + 1 + LOCAL_PID`.
pub const LOCAL_PID: u64 = 1;

/// Stable small integer identifying the current OS thread's trace lane.
pub(crate) fn thread_lane() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static LANE: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|lane| *lane)
}

/// One finished span, as stored in the flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within this telemetry handle (creation order).
    pub id: u64,
    /// Parent span id; `None` for a root.
    pub parent: Option<u64>,
    /// Span name (no dotted path — the tree carries the structure).
    pub name: String,
    /// Process lane: [`LOCAL_PID`] for spans recorded by this process;
    /// spans merged from a remote shard k carry `k + 1 +` [`LOCAL_PID`]
    /// (see [`TraceSnapshot::merge_remote`]). Chrome exports use it as the
    /// `pid`, giving each shard process its own lane group.
    pub pid: u64,
    /// Trace lane of the thread that ran the span.
    pub thread: u64,
    /// Start, in nanoseconds since the telemetry handle was created.
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
    /// Free-form attributes (device pair, experiment, subject batch, ...).
    pub attrs: Vec<(String, String)>,
}

/// A bounded multi-producer slot buffer: lock-free claims, write-once
/// slots, drop counting when full.
#[derive(Debug)]
pub(crate) struct SlotBuffer<T> {
    slots: Box<[Slot<T>]>,
    head: AtomicUsize,
    dropped: AtomicU64,
}

#[derive(Debug)]
struct Slot<T> {
    ready: AtomicBool,
    value: UnsafeCell<Option<T>>,
}

// SAFETY: each slot is written exactly once, by the thread that claimed its
// index via `head.fetch_add`, before `ready` is released; readers only
// dereference after acquiring `ready`.
unsafe impl<T: Send> Sync for Slot<T> {}

impl<T> SlotBuffer<T> {
    fn new(capacity: usize) -> SlotBuffer<T> {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || Slot {
            ready: AtomicBool::new(false),
            value: UnsafeCell::new(None),
        });
        SlotBuffer {
            slots: slots.into_boxed_slice(),
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends `value`; returns false (and counts a drop) when full.
    pub(crate) fn push(&self, value: T) -> bool {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        if i >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // SAFETY: index `i` was claimed exclusively by this thread.
        unsafe { *self.slots[i].value.get() = Some(value) };
        self.slots[i].ready.store(true, Ordering::Release);
        true
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> Vec<T>
    where
        T: Clone,
    {
        let n = self.head.load(Ordering::Relaxed).min(self.slots.len());
        (0..n)
            .filter(|&i| self.slots[i].ready.load(Ordering::Acquire))
            .map(|i| {
                // SAFETY: `ready` was acquired, so the write has happened
                // and no further writes can touch this slot.
                unsafe {
                    (*self.slots[i].value.get())
                        .clone()
                        .expect("ready slot is filled")
                }
            })
            .collect()
    }
}

/// The per-handle flight recorder state.
#[derive(Debug)]
pub(crate) struct TraceBuffer {
    pub(crate) epoch: Instant,
    next_span_id: AtomicU64,
    spans: SlotBuffer<SpanRecord>,
    events: SlotBuffer<EventRecord>,
}

impl Default for TraceBuffer {
    fn default() -> TraceBuffer {
        TraceBuffer::with_capacity(DEFAULT_SPAN_CAPACITY, DEFAULT_EVENT_CAPACITY)
    }
}

impl TraceBuffer {
    pub(crate) fn with_capacity(spans: usize, events: usize) -> TraceBuffer {
        TraceBuffer {
            epoch: Instant::now(),
            next_span_id: AtomicU64::new(0),
            spans: SlotBuffer::new(spans),
            events: SlotBuffer::new(events),
        }
    }

    /// Nanoseconds since the handle was created.
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    pub(crate) fn next_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn push_span(&self, record: SpanRecord) {
        self.spans.push(record);
    }

    pub(crate) fn push_event(&self, record: EventRecord) {
        self.events.push(record);
    }

    pub(crate) fn snapshot(&self) -> TraceSnapshot {
        let mut spans = self.spans.snapshot();
        // Completion order is non-deterministic across threads; sort by
        // (thread, start) so exports and diffs are stable.
        spans.sort_by_key(|s| (s.thread, s.start_ns, s.id));
        let mut events = self.events.snapshot();
        events.sort_by_key(|e| (e.ts_ns, e.thread));
        TraceSnapshot {
            spans,
            events,
            dropped_spans: self.spans.dropped(),
            dropped_events: self.events.dropped(),
        }
    }

    /// `(dropped spans, dropped events)` without materializing a snapshot
    /// — feeds the metrics snapshot's trace-health section.
    pub(crate) fn dropped_counts(&self) -> (u64, u64) {
        (self.spans.dropped(), self.events.dropped())
    }
}

/// Captured parent context for handing span parenting across threads.
///
/// Capture it on the spawning thread with [`Telemetry::trace_ctx`], move it
/// into the worker (it is `Send + Sync`), and adopt it there with
/// [`Telemetry::in_ctx`]: spans the worker opens while the guard lives are
/// parented to the span that was live at capture time.
#[derive(Debug, Clone, Default)]
pub struct TraceCtx {
    pub(crate) parent: Option<u64>,
    pub(crate) live: bool,
}

impl TraceCtx {
    /// A context that adopts an explicit span id — the seam the shard
    /// server uses to nest its worker-side spans under the span it opened
    /// for a request (whose id only exists at dispatch time, not on any
    /// thread's stack).
    pub fn adopted(span_id: u64) -> TraceCtx {
        TraceCtx {
            parent: Some(span_id),
            live: true,
        }
    }

    /// The captured span id, if the context is live and has one.
    pub fn span_id(&self) -> Option<u64> {
        if self.live {
            self.parent
        } else {
            None
        }
    }
}

/// Guard returned by [`Telemetry::in_ctx`]; restores the thread's previous
/// adopted parent on drop. `!Send` — it manages this thread's state.
#[derive(Debug)]
pub struct CtxGuard {
    live: bool,
    prev: Option<u64>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        if self.live {
            span::set_adopted_parent(self.prev);
        }
    }
}

impl Telemetry {
    /// Captures the current span as a context that can be handed to worker
    /// threads ([`TraceCtx`] is `Send`). Inert when disabled.
    pub fn trace_ctx(&self) -> TraceCtx {
        if !self.is_enabled() {
            return TraceCtx::default();
        }
        TraceCtx {
            parent: span::current_parent(),
            live: true,
        }
    }

    /// Adopts `ctx` on this thread: until the guard drops, spans opened
    /// while no local span is live are parented to the context's span.
    pub fn in_ctx(&self, ctx: &TraceCtx) -> CtxGuard {
        if !ctx.live || !self.is_enabled() {
            return CtxGuard {
                live: false,
                prev: None,
                _not_send: std::marker::PhantomData,
            };
        }
        CtxGuard {
            live: true,
            prev: span::swap_adopted_parent(ctx.parent),
            _not_send: std::marker::PhantomData,
        }
    }

    /// A consistent copy of the flight recorder: every retained span and
    /// event, plus drop counts. Empty when disabled.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.inner
            .as_deref()
            .map(|inner| inner.trace.snapshot())
            .unwrap_or_default()
    }

    /// Nanoseconds since this handle's trace epoch (0 when disabled) — the
    /// clock every [`SpanRecord`] timestamp is measured on. Exposed so
    /// cross-process protocols can exchange clock readings and estimate the
    /// offset between two handles' epochs.
    pub fn trace_now_ns(&self) -> u64 {
        self.inner
            .as_deref()
            .map(|inner| inner.trace.now_ns())
            .unwrap_or(0)
    }
}

/// Everything the flight recorder retained: spans sorted by
/// (thread, start), events sorted by time, and drop counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Finished spans, sorted by (thread, start_ns, id).
    pub spans: Vec<SpanRecord>,
    /// Structured log events, sorted by (ts_ns, thread).
    pub events: Vec<EventRecord>,
    /// Spans lost to buffer exhaustion.
    pub dropped_spans: u64,
    /// Events lost to buffer exhaustion.
    pub dropped_events: u64,
}

/// Aggregated timing of one span name across the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Total wall time (ns) spent inside spans of this name.
    pub total_ns: u64,
    /// Total time (ns) minus time attributed to same-thread child spans —
    /// the work this name did itself rather than delegated.
    pub self_ns: u64,
}

/// Attribute naming the coordinator span id a remote span should parent
/// under once merged (set by the shard server from the wire trace context,
/// consumed by [`TraceSnapshot::merge_remote`]). The value is the decimal
/// span id.
pub const REMOTE_PARENT_ATTR: &str = "remote_parent";

/// Id stride separating each merged remote process's span ids from local
/// ones (and from each other). Local handles allocate ids from 0, so a
/// collision would need a single process to record 2^40 spans.
const REMOTE_ID_STRIDE: u64 = 1 << 40;

impl TraceSnapshot {
    /// Stitches spans drained from remote shard `shard` into this snapshot
    /// as process lane `shard + 1 + `[`LOCAL_PID`].
    ///
    /// Three rewrites make the merged tree connected and time-aligned:
    ///
    /// * **ids** shift by a per-shard stride so they cannot collide with
    ///   local ids (intra-shard parent links shift with them);
    /// * **cross-process parents**: a remote span carrying
    ///   [`REMOTE_PARENT_ATTR`] re-parents under that *local* span id — the
    ///   coordinator rpc span that issued the request — turning two
    ///   process-local trees into one;
    /// * **timestamps** shift by `clock_offset_ns`, the estimate of
    ///   (remote epoch clock − local epoch clock), so remote spans land on
    ///   the local timeline. The estimate is the caller's (midpoint of the
    ///   drain's send/receive times); record it as a span attribute on the
    ///   collecting span so skew stays visible rather than hidden.
    ///
    /// Returns the number of spans merged. Remote drop counts accumulate
    /// into `dropped_spans` so `validate_tree` stays truncation-aware.
    pub fn merge_remote(
        &mut self,
        shard: usize,
        spans: Vec<SpanRecord>,
        clock_offset_ns: i64,
        remote_dropped: u64,
    ) -> usize {
        let base = (shard as u64 + 1).saturating_mul(REMOTE_ID_STRIDE);
        let merged = spans.len();
        for mut s in spans {
            let remote_parent = s
                .attrs
                .iter()
                .find(|(k, _)| k == REMOTE_PARENT_ATTR)
                .and_then(|(_, v)| v.parse::<u64>().ok());
            s.parent = match remote_parent {
                Some(local_id) => Some(local_id),
                None => s.parent.map(|p| base + p),
            };
            s.id += base;
            s.pid = shard as u64 + 1 + LOCAL_PID;
            s.start_ns =
                (s.start_ns as i128 - clock_offset_ns as i128).clamp(0, u64::MAX as i128) as u64;
            self.spans.push(s);
        }
        self.dropped_spans += remote_dropped;
        self.spans.sort_by(|a, b| {
            (a.pid, a.thread, a.start_ns, a.id).cmp(&(b.pid, b.thread, b.start_ns, b.id))
        });
        merged
    }

    /// Self-time vs child-time attribution, aggregated by span name.
    ///
    /// A span's self time is its duration minus the durations of its
    /// *same-thread* children (children handed off to worker threads run in
    /// parallel with their parent, so they don't consume the parent's
    /// time), clamped at zero. On any one thread the self times telescope:
    /// they sum exactly to the durations of that thread's root spans.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        let thread_of: BTreeMap<u64, u64> = self.spans.iter().map(|s| (s.id, s.thread)).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                if thread_of.get(&parent) == Some(&s.thread) {
                    *child_ns.entry(parent).or_default() += s.dur_ns;
                }
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for s in &self.spans {
            let spent_in_children = child_ns.get(&s.id).copied().unwrap_or(0);
            let entry = out.entry(s.name.clone()).or_default();
            entry.count += 1;
            entry.total_ns += s.dur_ns;
            entry.self_ns += s.dur_ns.saturating_sub(spent_in_children);
        }
        out
    }

    /// Self time (ns) of one span by id (same-thread children subtracted).
    pub fn span_self_ns(&self, id: u64) -> Option<u64> {
        let span = self.spans.iter().find(|s| s.id == id)?;
        let spent: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id) && c.thread == span.thread)
            .map(|c| c.dur_ns)
            .sum();
        Some(span.dur_ns.saturating_sub(spent))
    }

    /// Checks the span tree is well-formed: every non-root parent id refers
    /// to a retained span, and no span is its own ancestor. Returns the
    /// root count. (A truncated buffer can legitimately orphan spans — the
    /// error message distinguishes that case.)
    pub fn validate_tree(&self) -> Result<usize, String> {
        let ids: std::collections::BTreeSet<u64> = self.spans.iter().map(|s| s.id).collect();
        let mut roots = 0;
        for s in &self.spans {
            match s.parent {
                None => roots += 1,
                Some(p) => {
                    if !ids.contains(&p) {
                        return Err(if self.dropped_spans > 0 {
                            format!(
                                "span {} `{}` orphaned (parent {p} lost to {} dropped spans)",
                                s.id, s.name, self.dropped_spans
                            )
                        } else {
                            format!("span {} `{}` has unknown parent {p}", s.id, s.name)
                        });
                    }
                    if p == s.id {
                        return Err(format!("span {} `{}` is its own parent", s.id, s.name));
                    }
                }
            }
        }
        Ok(roots)
    }

    /// Exports the trace in Chrome trace-event JSON (the object form with a
    /// `traceEvents` array) — loadable in `chrome://tracing` and Perfetto.
    ///
    /// Spans become complete (`"ph": "X"`) events with microsecond
    /// timestamps, sorted by (pid, tid, ts) so per-thread timestamps are
    /// monotonically non-decreasing; log events become instant (`"ph": "i"`)
    /// events. Each span's `pid` is its process lane — [`LOCAL_PID`] for
    /// this process, one lane per merged shard — and metadata records name
    /// every process and thread lane, so a merged multi-process run renders
    /// as one lane group per shard in Perfetto.
    pub fn to_chrome_trace(&self) -> serde_json::Value {
        let mut events: Vec<serde_json::Value> = Vec::new();
        let mut pids: Vec<u64> = self.spans.iter().map(|s| s.pid).collect();
        if !self.events.is_empty() {
            pids.push(LOCAL_PID); // events are always local
        }
        pids.sort_unstable();
        pids.dedup();
        for pid in &pids {
            let name = if *pid == LOCAL_PID {
                "coordinator".to_string()
            } else {
                format!("shard-{}", pid - LOCAL_PID - 1)
            };
            events.push(serde_json::json!({
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }));
        }
        let mut lanes: Vec<(u64, u64)> = self.spans.iter().map(|s| (s.pid, s.thread)).collect();
        lanes.extend(self.events.iter().map(|e| (LOCAL_PID, e.thread)));
        lanes.sort_unstable();
        lanes.dedup();
        for (pid, lane) in &lanes {
            events.push(serde_json::json!({
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": lane,
                "args": {"name": format!("lane-{lane}")},
            }));
        }
        // `spans` is already sorted by (thread, start_ns).
        for s in &self.spans {
            let mut args = serde_json::Map::new();
            args.insert("id".into(), serde_json::json!(s.id));
            if let Some(p) = s.parent {
                args.insert("parent".into(), serde_json::json!(p));
            }
            if let Some(self_ns) = self.span_self_ns(s.id) {
                args.insert("self_us".into(), serde_json::json!(self_ns as f64 / 1e3));
            }
            for (k, v) in &s.attrs {
                args.insert(k.clone(), serde_json::json!(v));
            }
            events.push(serde_json::json!({
                "ph": "X",
                "name": s.name,
                "cat": "span",
                "pid": s.pid,
                "tid": s.thread,
                "ts": s.start_ns as f64 / 1e3,
                "dur": s.dur_ns as f64 / 1e3,
                "args": serde_json::Value::Object(args),
            }));
        }
        for e in &self.events {
            let mut args = serde_json::Map::new();
            args.insert("level".into(), serde_json::json!(e.level.as_str()));
            for (k, v) in &e.fields {
                args.insert(k.clone(), serde_json::json!(v));
            }
            events.push(serde_json::json!({
                "ph": "i",
                "name": e.message,
                "cat": "event",
                "s": "t",
                "pid": LOCAL_PID,
                "tid": e.thread,
                "ts": e.ts_ns as f64 / 1e3,
                "args": serde_json::Value::Object(args),
            }));
        }
        serde_json::json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "dropped_spans": self.dropped_spans,
                "dropped_events": self.dropped_events,
            },
        })
    }

    /// Exports the structured event log as JSON Lines (one serialized
    /// [`EventRecord`] per line), ready for `grep`/`jq`.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&serde_json::to_string(e).expect("event serializes"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Level;

    #[test]
    fn slot_buffer_accepts_up_to_capacity_then_counts_drops() {
        let buffer: SlotBuffer<u32> = SlotBuffer::new(3);
        assert!(buffer.push(1));
        assert!(buffer.push(2));
        assert!(buffer.push(3));
        assert!(!buffer.push(4));
        assert!(!buffer.push(5));
        assert_eq!(buffer.snapshot(), vec![1, 2, 3]);
        assert_eq!(buffer.dropped(), 2);
    }

    #[test]
    fn concurrent_pushes_never_lose_or_duplicate() {
        let buffer: std::sync::Arc<SlotBuffer<u64>> = std::sync::Arc::new(SlotBuffer::new(4096));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let buffer = std::sync::Arc::clone(&buffer);
                scope.spawn(move || {
                    for i in 0..512u64 {
                        buffer.push(t * 512 + i);
                    }
                });
            }
        });
        let mut got = buffer.snapshot();
        got.sort_unstable();
        let want: Vec<u64> = (0..4096).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn spans_nest_into_a_tree_with_ids() {
        let t = Telemetry::enabled();
        {
            let _outer = t.span("outer");
            let _inner = t.span("inner");
        }
        let trace = t.trace_snapshot();
        assert_eq!(trace.spans.len(), 2);
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(trace.validate_tree().unwrap(), 1);
    }

    #[test]
    fn ctx_handoff_parents_worker_spans() {
        let t = Telemetry::enabled();
        {
            let _stage = t.span("stage");
            let ctx = t.trace_ctx();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let t = t.clone();
                    let ctx = ctx.clone();
                    scope.spawn(move || {
                        let _adopt = t.in_ctx(&ctx);
                        let _span = t.span("worker-item");
                    });
                }
            });
        }
        let trace = t.trace_snapshot();
        let stage = trace.spans.iter().find(|s| s.name == "stage").unwrap();
        let items: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "worker-item")
            .collect();
        assert_eq!(items.len(), 2);
        for item in items {
            assert_eq!(item.parent, Some(stage.id), "worker span not adopted");
            assert_ne!(item.thread, stage.thread);
        }
        assert_eq!(trace.validate_tree().unwrap(), 1);
    }

    #[test]
    fn self_time_telescopes_on_one_thread() {
        let t = Telemetry::enabled();
        {
            let _root = t.span("root");
            {
                let _a = t.span("a");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _b = t.span("b");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let trace = t.trace_snapshot();
        let times = trace.self_times();
        let root = trace.spans.iter().find(|s| s.name == "root").unwrap();
        let summed: u64 = times.values().map(|v| v.self_ns).sum();
        // Same-thread children telescope exactly (no clamping possible:
        // child intervals are disjoint sub-intervals of the parent).
        assert_eq!(summed, root.dur_ns);
        assert!(times["a"].self_ns >= 2_000_000);
        assert_eq!(times["root"].count, 1);
        assert!(times["root"].self_ns < root.dur_ns);
    }

    #[test]
    fn disabled_handle_records_no_trace() {
        let t = Telemetry::disabled();
        {
            let _span = t.span("ghost");
            let ctx = t.trace_ctx();
            let _adopt = t.in_ctx(&ctx);
            t.event(Level::Warn, "nobody home");
        }
        let trace = t.trace_snapshot();
        assert!(trace.spans.is_empty());
        assert!(trace.events.is_empty());
        assert_eq!(trace.dropped_spans, 0);
    }

    #[test]
    fn chrome_trace_round_trips_with_monotonic_ts_per_thread() {
        let t = Telemetry::enabled();
        {
            let _outer = t.span("outer");
            for _ in 0..3 {
                let _inner = t.span("inner");
            }
            t.event(Level::Info, "midpoint");
        }
        let json = t.trace_snapshot().to_chrome_trace();
        let text = serde_json::to_string(&json).expect("serializes");
        let back: serde_json::Value = serde_json::from_str(&text).expect("parses");
        let events = back["traceEvents"].as_array().expect("array");
        assert!(!events.is_empty());
        let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
        let mut complete = 0;
        for e in events {
            match e["ph"].as_str().unwrap() {
                "X" => {
                    complete += 1;
                    let tid = e["tid"].as_u64().expect("tid");
                    let ts = e["ts"].as_f64().expect("ts");
                    if let Some(prev) = last_ts.insert(tid, ts) {
                        assert!(ts >= prev, "ts regressed on lane {tid}: {prev} -> {ts}");
                    }
                    assert!(e["dur"].as_f64().expect("dur") >= 0.0);
                }
                "i" => assert_eq!(e["args"]["level"], "info"),
                "M" => assert!(
                    e["name"] == "thread_name" || e["name"] == "process_name",
                    "unexpected metadata record {}",
                    e["name"]
                ),
                other => panic!("unexpected phase {other}"),
            }
        }
        assert_eq!(complete, 4);
    }

    fn remote_span(
        id: u64,
        parent: Option<u64>,
        name: &str,
        start_ns: u64,
        attrs: Vec<(String, String)>,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            pid: LOCAL_PID,
            thread: 0,
            start_ns,
            dur_ns: 10,
            attrs,
        }
    }

    #[test]
    fn merge_remote_stitches_one_connected_tree_across_processes() {
        let t = Telemetry::enabled();
        let rpc_id;
        {
            let _search = t.span("index.search");
            let rpc = t.detached_span("serve.rpc", &[]);
            rpc_id = rpc.id().unwrap();
            rpc.finish();
        }
        let mut merged = t.trace_snapshot();
        // The shard recorded a request span pointing back at the rpc span,
        // with its own child underneath.
        let shard_spans = vec![
            remote_span(
                5,
                None,
                "server.request",
                100,
                vec![(REMOTE_PARENT_ATTR.to_string(), rpc_id.to_string())],
            ),
            remote_span(6, Some(5), "server.queue_wait", 100, Vec::new()),
        ];
        assert_eq!(merged.merge_remote(0, shard_spans, 0, 2), 2);
        assert_eq!(merged.spans.len(), 4);
        assert_eq!(merged.dropped_spans, 2);
        let request = merged
            .spans
            .iter()
            .find(|s| s.name == "server.request")
            .unwrap();
        let wait = merged
            .spans
            .iter()
            .find(|s| s.name == "server.queue_wait")
            .unwrap();
        // Cross-process link: the request re-parents under the local rpc
        // span; the intra-shard link shifts with the id stride.
        assert_eq!(request.parent, Some(rpc_id));
        assert_eq!(wait.parent, Some(request.id));
        assert_eq!(request.pid, LOCAL_PID + 1);
        // One connected tree, rooted at index.search.
        assert_eq!(merged.validate_tree().unwrap(), 1);
    }

    #[test]
    fn merge_remote_shifts_timestamps_by_the_clock_offset() {
        let mut snap = TraceSnapshot::default();
        snap.merge_remote(
            1,
            vec![remote_span(0, None, "late", 1_000, Vec::new())],
            400,
            0,
        );
        assert_eq!(snap.spans[0].start_ns, 600);
        assert_eq!(snap.spans[0].pid, LOCAL_PID + 2);
        // A negative offset (remote clock behind) shifts forward; clamps at 0.
        let mut snap = TraceSnapshot::default();
        snap.merge_remote(
            0,
            vec![remote_span(0, None, "early", 100, Vec::new())],
            -50,
            0,
        );
        assert_eq!(snap.spans[0].start_ns, 150);
        let mut snap = TraceSnapshot::default();
        snap.merge_remote(
            0,
            vec![remote_span(0, None, "clamped", 100, Vec::new())],
            500,
            0,
        );
        assert_eq!(snap.spans[0].start_ns, 0);
    }

    #[test]
    fn merged_chrome_trace_has_one_process_lane_per_shard() {
        let t = Telemetry::enabled();
        {
            let _root = t.span("root");
        }
        let mut merged = t.trace_snapshot();
        for shard in 0..2usize {
            merged.merge_remote(
                shard,
                vec![remote_span(0, None, "server.request", 0, Vec::new())],
                0,
                0,
            );
        }
        let json = merged.to_chrome_trace();
        let events = json["traceEvents"].as_array().unwrap();
        let mut process_names: Vec<(u64, String)> = events
            .iter()
            .filter(|e| e["ph"] == "M" && e["name"] == "process_name")
            .map(|e| {
                (
                    e["pid"].as_u64().unwrap(),
                    e["args"]["name"].as_str().unwrap().to_string(),
                )
            })
            .collect();
        process_names.sort();
        assert_eq!(
            process_names,
            vec![
                (LOCAL_PID, "coordinator".to_string()),
                (LOCAL_PID + 1, "shard-0".to_string()),
                (LOCAL_PID + 2, "shard-1".to_string()),
            ]
        );
        let span_pids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter(|e| e["ph"] == "X")
            .map(|e| e["pid"].as_u64().unwrap())
            .collect();
        assert_eq!(span_pids.len(), 3);
    }

    #[test]
    fn adopted_ctx_parents_spans_under_an_explicit_id() {
        let t = Telemetry::enabled();
        let req = t.detached_span("server.request", &[]);
        let req_id = req.id().unwrap();
        {
            let _adopt = t.in_ctx(&TraceCtx::adopted(req_id));
            let _work = t.span("work");
        }
        req.finish();
        let trace = t.trace_snapshot();
        let work = trace.spans.iter().find(|s| s.name == "work").unwrap();
        assert_eq!(work.parent, Some(req_id));
        assert_eq!(TraceCtx::adopted(7).span_id(), Some(7));
        assert_eq!(TraceCtx::default().span_id(), None);
    }

    #[test]
    fn span_buffer_overflow_drops_quietly_and_reports() {
        let t = Telemetry::with_trace_capacity(4, 4);
        for _ in 0..10 {
            let _span = t.span("s");
        }
        let trace = t.trace_snapshot();
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.dropped_spans, 6);
    }
}
