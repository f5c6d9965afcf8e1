//! The std-only binary wire format of the shard protocol.
//!
//! # Frame layout
//!
//! ```text
//! +----------+----------+---------+-------------+--------------+===========+----------+
//! |  magic   | version  |  type   | request_id  | payload_len  |  payload  |  crc32   |
//! |  4 bytes |  u16 LE  |  u8     |  u32 LE     |  u32 LE      |  bytes    |  u32 LE  |
//! +----------+----------+---------+-------------+--------------+===========+----------+
//! ```
//!
//! Every multi-byte integer is little-endian; every `f64` travels as its
//! IEEE-754 bit pattern (`to_bits`/`from_bits`), so scores and coordinates
//! cross the process boundary **bit-exact** — the property the whole
//! cross-process sharding design rests on. The CRC32 (IEEE, reflected)
//! covers the request id, the length prefix and the payload bytes — a
//! flipped bit in the request id would re-route a response to the wrong
//! caller, so it must be under the checksum; magic and version corruption
//! is caught by their own checks before the length prefix is trusted.
//!
//! # Multiplexing
//!
//! The `request_id` field lets a client keep many requests in flight on
//! one connection: the server answers each request with a frame carrying
//! the *same* id, in whatever order the work completes, and the client
//! rejoins responses to callers by id (see `crate::mux`). Id 0 is the
//! conventional id of un-multiplexed traffic — [`encode_frame`] /
//! [`decode_frame`] use it so single-request-at-a-time peers never have to
//! think about ids.
//!
//! There is no serde and no schema compiler: encode and decode are written
//! out by hand against the workspace's one byte codec
//! ([`fp_core::codec`]: little-endian [`Enc`]/[`Dec`] cursors and the
//! streaming CRC32 the on-disk store also uses). Decoding is total — every
//! malformed input maps to a typed [`WireError`], never a panic and never a
//! partially decoded frame.
//!
//! # Frames
//!
//! Requests: [`Frame::EnrollBatch`] (carries the [`IndexConfig`] so a shard
//! can never silently score under the wrong tuning), [`Frame::StageOne`],
//! [`Frame::Rerank`], [`Frame::Health`], [`Frame::Fingerprint`],
//! [`Frame::Stats`], [`Frame::Shutdown`]. Each has a paired `*Ok`
//! response; any request can instead be answered by [`Frame::Error`] with
//! a typed error code.
//!
//! The introspection plane: [`Frame::Fingerprint`] scrapes the shard's
//! cumulative RUNFP chain (the coordinator verifies it against its own
//! mirror — O(1) behavioral parity per scrape), [`Frame::Stats`] scrapes a
//! remote snapshot of the shard's counters and histograms, and
//! [`Frame::Trace`] drains its flight recorder.

use std::fmt;
use std::io::{Read, Write};

use fp_core::codec::{Crc32, Dec, DecodeError, DecodeErrorKind, Enc};
use fp_core::geometry::{Direction, Point, Rect};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::template::Template;
use fp_core::MatchScore;
use fp_index::{Candidate, IndexConfig, StageOneScores};
use fp_telemetry::{HistogramSnapshot, SpanRecord};

/// Frame magic: "FPSH" (FingerPrint SHard).
pub const MAGIC: [u8; 4] = *b"FPSH";

/// The one protocol version this build speaks. Bump on any layout change;
/// a frame at any other version is rejected with
/// [`WireError::VersionMismatch`] before a single payload byte is
/// interpreted — every process of a deployment is built from this
/// workspace, so there is no negotiation window.
pub const VERSION: u16 = 4;

/// Upper bound on a frame payload (64 MiB): large enough for a 100k-entry
/// enroll batch, small enough that a corrupted length prefix cannot ask the
/// reader to allocate the machine.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Frame header size: magic + version + type + request id + payload length.
pub const HEADER_LEN: usize = 4 + 2 + 1 + 4 + 4;

/// The artifact label every wire [`Dec`] carries.
const WHAT: &str = "frame";

/// Typed error codes carried by [`Frame::Error`].
pub mod code {
    /// The shard is already enrolled under a different [`super::IndexConfig`].
    pub const CONFIG_MISMATCH: u8 = 1;
    /// The request was structurally valid but unserviceable (e.g. re-rank
    /// ids out of range).
    pub const BAD_REQUEST: u8 = 2;
    /// The shard failed internally.
    pub const INTERNAL: u8 = 3;
    /// The shard's admission queue is at its watermark; the request was
    /// shed *before* any work started. Retryable by construction.
    pub const OVERLOADED: u8 = 4;
}

/// Everything that can go wrong turning bytes into a [`Frame`].
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (connection reset, timeout, ...).
    Io(std::io::Error),
    /// The stream ended (or the payload ran out) before a complete frame.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The first four bytes were not [`MAGIC`] — not a shard-protocol peer.
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Version advertised by the peer.
        got: u16,
        /// Version this build speaks ([`VERSION`]).
        want: u16,
    },
    /// Unknown frame-type byte.
    BadFrameType(u8),
    /// The payload checksum did not match — corruption in transit.
    BadCrc {
        /// Checksum carried by the frame.
        got: u32,
        /// Checksum computed over the received payload.
        want: u32,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// The payload decoded to something structurally invalid (bad minutia
    /// kind, trailing bytes, a template the validator rejects, ...).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Truncated { context } => {
                write!(f, "truncated frame while reading {context}")
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?} (want {MAGIC:02x?})"),
            WireError::VersionMismatch { got, want } => {
                write!(
                    f,
                    "protocol version mismatch: peer speaks v{got}, we speak v{want}"
                )
            }
            WireError::BadFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::BadCrc { got, want } => {
                write!(
                    f,
                    "payload checksum mismatch: frame says {got:#010x}, computed {want:#010x}"
                )
            }
            WireError::Oversize(len) => {
                write!(f, "payload length {len} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::Malformed(detail) => write!(f, "malformed payload: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated { context: "stream" }
        } else {
            WireError::Io(e)
        }
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> WireError {
        let context = e.context;
        match e.kind {
            DecodeErrorKind::Truncated => WireError::Truncated { context },
            DecodeErrorKind::Overflow(v) => {
                WireError::Malformed(format!("{context} value {v} does not fit usize"))
            }
            DecodeErrorKind::Trailing(n) => {
                WireError::Malformed(format!("{n} trailing payload bytes after {context}"))
            }
        }
    }
}

impl WireError {
    /// Whether the error came from a blocking-read deadline expiring (the
    /// per-request timeout the coordinator sets on its sockets).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

/// Distributed-tracing context carried by request frames (CRC-covered
/// like everything after the type byte). The coordinator stamps each RPC
/// with the id of the span that issued it; the shard opens its own spans
/// recording that id, so the two process-local trees can be stitched into
/// one connected tree after a `Trace` drain. Absent (`None`) whenever the
/// sender's telemetry is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Id of the root span of the originating operation (the coordinator's
    /// `index.search` / `index.enroll_all` span) — correlates all RPCs of
    /// one logical request.
    pub trace_id: u64,
    /// Id of the coordinator span that issued this RPC (its `serve.rpc`
    /// span) — the parent the shard's spans nest under once merged.
    pub parent_span_id: u64,
    /// Whether the shard should record spans for this request. Always true
    /// when the context is present today; carried explicitly so a future
    /// sampling coordinator can propagate a negative decision.
    pub sampled: bool,
}

/// Server-side timing echoed on stage-1/re-rank responses whose request
/// carried a sampled [`TraceContext`] — the per-shard queue-wait/work split
/// the slow log needs without a second RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTiming {
    /// Admission-to-dispatch time in the shard's bounded worker pool (ns).
    pub queue_wait_ns: u64,
    /// Time spent computing the response once dispatched (ns).
    pub work_ns: u64,
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Enroll `templates` (in order) into the shard's gallery under
    /// `config`. The config rides along so a shard can reject a coordinator
    /// tuned differently instead of silently scoring under the wrong
    /// parameters.
    EnrollBatch {
        /// The index tuning both sides must agree on.
        config: IndexConfig,
        /// Templates to enroll, dealt by the coordinator.
        templates: Vec<Template>,
        /// Optional tracing context.
        trace: Option<TraceContext>,
    },
    /// Enrollment succeeded.
    EnrollOk {
        /// Number of templates enrolled by this request.
        enrolled: u32,
        /// Shard-local gallery size after the batch.
        shard_len: u32,
    },
    /// Compute stage-1 channel scores of the whole local gallery against
    /// `probe`.
    StageOne {
        /// The probe template (features are recomputed shard-side —
        /// bit-identical, they are pure functions of probe and config).
        probe: Template,
        /// Optional tracing context.
        trace: Option<TraceContext>,
    },
    /// Stage-1 scores (the shard-invariant seam).
    StageOneOk {
        /// Per-entry channel scores plus work tallies.
        scores: StageOneScores,
        /// Server-side timing, echoed when the request was sampled.
        timing: Option<ServerTiming>,
    },
    /// Exactly score the selected local ids against `probe`.
    Rerank {
        /// The probe template.
        probe: Template,
        /// Shard-local candidate ids, in global selection order.
        selected: Vec<u32>,
        /// Optional tracing context.
        trace: Option<TraceContext>,
    },
    /// Exact stage-2 scores, in request order (ids still shard-local).
    RerankOk {
        /// One candidate per requested id.
        candidates: Vec<Candidate>,
        /// Server-side timing, echoed when the request was sampled.
        timing: Option<ServerTiming>,
    },
    /// Liveness / state probe.
    Health,
    /// The shard is alive.
    HealthOk {
        /// Shard-local gallery size.
        shard_len: u32,
    },
    /// Ask the shard process to exit cleanly.
    Shutdown,
    /// Acknowledged; the server stops accepting after sending this.
    ShutdownOk,
    /// Scrape the shard's cumulative stage-2 run-fingerprint chain.
    Fingerprint,
    /// The shard's RUNFP chain state. The coordinator compares `value`
    /// (and `searches`) against its own mirror of the stage-2 responses it
    /// received — inequality means the shard recorded something different
    /// from what it served: behavioral drift.
    FingerprintOk {
        /// Cumulative chain value.
        value: u64,
        /// Number of stage-2 parts folded into the chain.
        searches: u64,
    },
    /// Scrape a remote snapshot of the shard's telemetry.
    Stats,
    /// The shard's counters and histograms (empty when the shard runs with
    /// telemetry disabled). Entries are sorted by name — snapshots come
    /// from `BTreeMap`s — so encoding is deterministic.
    StatsOk {
        /// Monotonic counters, by name.
        counters: Vec<(String, u64)>,
        /// Wall-time histograms (nanoseconds), by name.
        durations: Vec<(String, HistogramSnapshot)>,
        /// Work-size histograms, by name.
        values: Vec<(String, HistogramSnapshot)>,
    },
    /// Drain the shard's flight recorder: every retained span whose id is
    /// at least `since_span_id`.
    Trace {
        /// High-water mark from the previous drain; 0 fetches everything.
        since_span_id: u64,
    },
    /// The drained spans, plus the shard's current clock reading so the
    /// coordinator can estimate the inter-process clock offset from the
    /// send/receive midpoint of this very exchange.
    TraceOk {
        /// Shard-side nanoseconds since its telemetry epoch, read while
        /// building this response.
        now_ns: u64,
        /// Spans lost to the shard's buffer capacity (cumulative).
        dropped_spans: u64,
        /// Retained spans with `id >= since_span_id`, shard-local ids.
        spans: Vec<SpanRecord>,
    },
    /// Typed failure answering any request.
    Error {
        /// One of the [`code`] constants.
        code: u8,
        /// Human-readable diagnostics.
        detail: String,
    },
}

impl Frame {
    /// Stable label of the frame type, for metrics and span attributes.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::EnrollBatch { .. } => "enroll",
            Frame::EnrollOk { .. } => "enroll_ok",
            Frame::StageOne { .. } => "stage1",
            Frame::StageOneOk { .. } => "stage1_ok",
            Frame::Rerank { .. } => "rerank",
            Frame::RerankOk { .. } => "rerank_ok",
            Frame::Health => "health",
            Frame::HealthOk { .. } => "health_ok",
            Frame::Shutdown => "shutdown",
            Frame::ShutdownOk => "shutdown_ok",
            Frame::Fingerprint => "fingerprint",
            Frame::FingerprintOk { .. } => "fingerprint_ok",
            Frame::Stats => "stats",
            Frame::StatsOk { .. } => "stats_ok",
            Frame::Trace { .. } => "trace",
            Frame::TraceOk { .. } => "trace_ok",
            Frame::Error { .. } => "error",
        }
    }

    fn type_byte(&self) -> u8 {
        match self {
            Frame::EnrollBatch { .. } => 1,
            Frame::EnrollOk { .. } => 2,
            Frame::StageOne { .. } => 3,
            Frame::StageOneOk { .. } => 4,
            Frame::Rerank { .. } => 5,
            Frame::RerankOk { .. } => 6,
            Frame::Health => 7,
            Frame::HealthOk { .. } => 8,
            Frame::Shutdown => 9,
            Frame::ShutdownOk => 10,
            Frame::Error { .. } => 11,
            Frame::Fingerprint => 12,
            Frame::FingerprintOk { .. } => 13,
            Frame::Stats => 14,
            Frame::StatsOk { .. } => 15,
            Frame::Trace { .. } => 16,
            Frame::TraceOk { .. } => 17,
        }
    }
}

/// The frame checksum: CRC32 over request id + payload length + payload
/// (the two header fields are fed as their little-endian bytes, exactly as
/// they appear on the wire), streamed so the stream reader never has to
/// splice its header and body buffers together.
fn frame_crc(request_id: u32, payload_len: u32, payload: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(&request_id.to_le_bytes());
    crc.update(&payload_len.to_le_bytes());
    crc.update(payload);
    crc.value()
}

// ---------------------------------------------------------------------------
// Payload pieces: one `put_*` writer and one `get_*` reader per compound
// type, over the shared `Enc` / `Dec` cursors. Readers refuse element
// counts that cannot possibly fit in the remaining bytes, so a corrupted
// count cannot trigger a huge allocation.
// ---------------------------------------------------------------------------

fn put_str(enc: &mut Enc, s: &str) {
    enc.u32(s.len() as u32);
    enc.raw(s.as_bytes());
}

fn get_string(dec: &mut Dec<'_>) -> Result<String, WireError> {
    let len = dec.u32()? as usize;
    String::from_utf8(dec.bytes(len)?.to_vec())
        .map_err(|_| WireError::Malformed("string is not UTF-8".to_string()))
}

/// An optional-section presence flag (or any other wire boolean): exactly
/// 0 or 1 — a corrupted flag must never be half-adopted.
fn get_flag(dec: &mut Dec<'_>, what: &str) -> Result<bool, WireError> {
    match dec.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(WireError::Malformed(format!(
            "{what} flag must be 0 or 1, got {other}"
        ))),
    }
}

/// A `u32`-counted sequence of items of at least `min_bytes` each; the
/// count is checked against the bytes that remain before anything is
/// allocated for it.
fn get_vec<T>(
    dec: &mut Dec<'_>,
    min_bytes: usize,
    mut item: impl FnMut(&mut Dec<'_>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let raw_count = dec.u32()? as u64;
    let count = dec.checked_count(raw_count, min_bytes)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(item(dec)?);
    }
    Ok(items)
}

/// Minimum encoded size of a template (no minutiae).
const TEMPLATE_MIN: usize = 8 + 4 * 8 + 4;
/// Encoded size of one minutia.
const MINUTIA_BYTES: usize = 3 * 8 + 1 + 8;

fn put_template(enc: &mut Enc, t: &Template) {
    enc.f64_bits(t.resolution_dpi());
    let w = t.capture_window();
    enc.f64_bits(w.min().x);
    enc.f64_bits(w.min().y);
    enc.f64_bits(w.max().x);
    enc.f64_bits(w.max().y);
    enc.u32(t.len() as u32);
    for m in t.minutiae() {
        enc.f64_bits(m.pos.x);
        enc.f64_bits(m.pos.y);
        enc.f64_bits(m.direction.radians());
        enc.u8(match m.kind {
            MinutiaKind::RidgeEnding => 0,
            MinutiaKind::Bifurcation => 1,
        });
        enc.f64_bits(m.reliability);
    }
}

fn get_template(dec: &mut Dec<'_>) -> Result<Template, WireError> {
    let dpi = dec.f64_bits()?;
    let min = Point::new(dec.f64_bits()?, dec.f64_bits()?);
    let max = Point::new(dec.f64_bits()?, dec.f64_bits()?);
    let minutiae = get_vec(dec, MINUTIA_BYTES, |dec| {
        let pos = Point::new(dec.f64_bits()?, dec.f64_bits()?);
        let direction = Direction::from_radians(dec.f64_bits()?);
        let kind = match dec.u8()? {
            0 => MinutiaKind::RidgeEnding,
            1 => MinutiaKind::Bifurcation,
            other => {
                return Err(WireError::Malformed(format!(
                    "unknown minutia kind {other}"
                )))
            }
        };
        Ok(Minutia::new(pos, direction, kind, dec.f64_bits()?))
    })?;
    Template::from_minutiae(minutiae, dpi, Rect::from_corners(min, max))
        .map_err(|e| WireError::Malformed(format!("invalid template: {e}")))
}

/// Minimum encoded size of a named histogram entry (empty name).
const HISTOGRAM_ENTRY_MIN: usize = 4 + 8 * 8;

fn put_histograms(enc: &mut Enc, entries: &[(String, HistogramSnapshot)]) {
    enc.u32(entries.len() as u32);
    for (name, h) in entries {
        put_str(enc, name);
        for v in [h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99, h.p999] {
            enc.u64(v);
        }
    }
}

fn get_histograms(dec: &mut Dec<'_>) -> Result<Vec<(String, HistogramSnapshot)>, WireError> {
    get_vec(dec, HISTOGRAM_ENTRY_MIN, |dec| {
        let name = get_string(dec)?;
        let h = HistogramSnapshot {
            count: dec.u64()?,
            sum: dec.u64()?,
            min: dec.u64()?,
            max: dec.u64()?,
            p50: dec.u64()?,
            p95: dec.u64()?,
            p99: dec.u64()?,
            p999: dec.u64()?,
        };
        Ok((name, h))
    })
}

/// Optional trace context: a presence flag, then the triple.
fn put_trace(enc: &mut Enc, trace: &Option<TraceContext>) {
    enc.u8(trace.is_some() as u8);
    if let Some(t) = trace {
        enc.u64(t.trace_id);
        enc.u64(t.parent_span_id);
        enc.u8(t.sampled as u8);
    }
}

fn get_trace(dec: &mut Dec<'_>) -> Result<Option<TraceContext>, WireError> {
    if !get_flag(dec, "trace-context presence")? {
        return Ok(None);
    }
    Ok(Some(TraceContext {
        trace_id: dec.u64()?,
        parent_span_id: dec.u64()?,
        sampled: get_flag(dec, "trace-context sampled")?,
    }))
}

/// Optional server timing: a presence flag, then the two durations.
fn put_timing(enc: &mut Enc, timing: &Option<ServerTiming>) {
    enc.u8(timing.is_some() as u8);
    if let Some(t) = timing {
        enc.u64(t.queue_wait_ns);
        enc.u64(t.work_ns);
    }
}

fn get_timing(dec: &mut Dec<'_>) -> Result<Option<ServerTiming>, WireError> {
    if !get_flag(dec, "server-timing presence")? {
        return Ok(None);
    }
    Ok(Some(ServerTiming {
        queue_wait_ns: dec.u64()?,
        work_ns: dec.u64()?,
    }))
}

/// Minimum encoded size of a span record (empty name, no parent, no attrs).
const SPAN_RECORD_MIN: usize = 8 + 1 + 4 + 8 + 8 + 8 + 4;

fn put_span(enc: &mut Enc, s: &SpanRecord) {
    enc.u64(s.id);
    enc.u8(s.parent.is_some() as u8);
    if let Some(p) = s.parent {
        enc.u64(p);
    }
    put_str(enc, &s.name);
    enc.u64(s.thread);
    enc.u64(s.start_ns);
    enc.u64(s.dur_ns);
    enc.u32(s.attrs.len() as u32);
    for (k, v) in &s.attrs {
        put_str(enc, k);
        put_str(enc, v);
    }
}

fn get_span(dec: &mut Dec<'_>) -> Result<SpanRecord, WireError> {
    let id = dec.u64()?;
    let parent = if get_flag(dec, "span parent")? {
        Some(dec.u64()?)
    } else {
        None
    };
    let name = get_string(dec)?;
    let thread = dec.u64()?;
    let start_ns = dec.u64()?;
    let dur_ns = dec.u64()?;
    let attrs = get_vec(dec, 8, |dec| Ok((get_string(dec)?, get_string(dec)?)))?;
    Ok(SpanRecord {
        id,
        parent,
        name,
        // Spans cross the wire process-local; the coordinator assigns
        // process lanes when it merges.
        pid: 0,
        thread,
        start_ns,
        dur_ns,
        attrs,
    })
}

// ---------------------------------------------------------------------------
// Frame encode / decode.
// ---------------------------------------------------------------------------

fn encode_payload(enc: &mut Enc, frame: &Frame) {
    match frame {
        Frame::EnrollBatch {
            config,
            templates,
            trace,
        } => {
            config.encode(enc);
            enc.u32(templates.len() as u32);
            for t in templates {
                put_template(enc, t);
            }
            put_trace(enc, trace);
        }
        Frame::EnrollOk {
            enrolled,
            shard_len,
        } => {
            enc.u32(*enrolled);
            enc.u32(*shard_len);
        }
        Frame::StageOne { probe, trace } => {
            put_template(enc, probe);
            put_trace(enc, trace);
        }
        Frame::StageOneOk { scores, timing } => {
            enc.u32(scores.vote_scores.len() as u32);
            for &v in &scores.vote_scores {
                enc.f64_bits(v);
            }
            for &c in &scores.cyl_scores {
                enc.f64_bits(c);
            }
            enc.u64(scores.bucket_hits);
            enc.u64(scores.hamming_word_ops);
            put_timing(enc, timing);
        }
        Frame::Rerank {
            probe,
            selected,
            trace,
        } => {
            put_template(enc, probe);
            enc.u32(selected.len() as u32);
            for &id in selected {
                enc.u32(id);
            }
            put_trace(enc, trace);
        }
        Frame::RerankOk { candidates, timing } => {
            enc.u32(candidates.len() as u32);
            for c in candidates {
                enc.u32(c.id);
                enc.f64_bits(c.score.value());
            }
            put_timing(enc, timing);
        }
        Frame::Trace { since_span_id } => enc.u64(*since_span_id),
        Frame::TraceOk {
            now_ns,
            dropped_spans,
            spans,
        } => {
            enc.u64(*now_ns);
            enc.u64(*dropped_spans);
            enc.u32(spans.len() as u32);
            for s in spans {
                put_span(enc, s);
            }
        }
        Frame::Health | Frame::Shutdown | Frame::ShutdownOk | Frame::Fingerprint | Frame::Stats => {
        }
        Frame::HealthOk { shard_len } => enc.u32(*shard_len),
        Frame::FingerprintOk { value, searches } => {
            enc.u64(*value);
            enc.u64(*searches);
        }
        Frame::StatsOk {
            counters,
            durations,
            values,
        } => {
            enc.u32(counters.len() as u32);
            for (name, value) in counters {
                put_str(enc, name);
                enc.u64(*value);
            }
            put_histograms(enc, durations);
            put_histograms(enc, values);
        }
        Frame::Error { code, detail } => {
            enc.u8(*code);
            put_str(enc, detail);
        }
    }
}

fn decode_payload(frame_type: u8, payload: &[u8]) -> Result<Frame, WireError> {
    // Each arm names its structure on its first read; the frames that read
    // nothing keep the label they start with.
    let dec = &mut Dec::new(payload, WHAT, "payload-less frame");
    let frame = match frame_type {
        1 => Frame::EnrollBatch {
            config: IndexConfig::decode(dec.at("enroll batch"))?,
            templates: get_vec(dec, TEMPLATE_MIN, get_template)?,
            trace: get_trace(dec)?,
        },
        2 => Frame::EnrollOk {
            enrolled: dec.at("enroll ack").u32()?,
            shard_len: dec.u32()?,
        },
        3 => Frame::StageOne {
            probe: get_template(dec.at("stage-1 request"))?,
            trace: get_trace(dec)?,
        },
        4 => {
            // One vote score and one cylinder score per gallery entry.
            let count = dec.at("stage-1 scores").u32()? as u64;
            Frame::StageOneOk {
                scores: StageOneScores {
                    vote_scores: dec.f64_slice(count)?,
                    cyl_scores: dec.f64_slice(count)?,
                    bucket_hits: dec.u64()?,
                    hamming_word_ops: dec.u64()?,
                },
                timing: get_timing(dec)?,
            }
        }
        5 => {
            let probe = get_template(dec.at("re-rank request"))?;
            let count = dec.u32()? as u64;
            Frame::Rerank {
                probe,
                selected: dec.u32_slice(count)?,
                trace: get_trace(dec)?,
            }
        }
        6 => {
            let candidates = get_vec(dec.at("re-rank candidates"), 12, |dec| {
                let id = dec.u32()?;
                let score = dec.f64_bits()?;
                if score.is_nan() || score < 0.0 {
                    return Err(WireError::Malformed(format!(
                        "candidate score {score} is not a valid MatchScore"
                    )));
                }
                let score = MatchScore::new(score);
                Ok(Candidate { id, score })
            })?;
            Frame::RerankOk {
                candidates,
                timing: get_timing(dec)?,
            }
        }
        7 => Frame::Health,
        8 => Frame::HealthOk {
            shard_len: dec.at("health ack").u32()?,
        },
        9 => Frame::Shutdown,
        10 => Frame::ShutdownOk,
        11 => Frame::Error {
            code: dec.at("error frame").u8()?,
            detail: get_string(dec)?,
        },
        12 => Frame::Fingerprint,
        13 => Frame::FingerprintOk {
            value: dec.at("fingerprint chain").u64()?,
            searches: dec.u64()?,
        },
        14 => Frame::Stats,
        15 => Frame::StatsOk {
            counters: get_vec(dec.at("stats snapshot"), 12, |dec| {
                Ok((get_string(dec)?, dec.u64()?))
            })?,
            durations: get_histograms(dec)?,
            values: get_histograms(dec)?,
        },
        16 => Frame::Trace {
            since_span_id: dec.at("trace drain request").u64()?,
        },
        17 => Frame::TraceOk {
            now_ns: dec.at("trace drain response").u64()?,
            dropped_spans: dec.u64()?,
            spans: get_vec(dec, SPAN_RECORD_MIN, get_span)?,
        },
        other => return Err(WireError::BadFrameType(other)),
    };
    // Every frame type consumes its payload exactly.
    dec.finish()?;
    Ok(frame)
}

/// Encodes `frame` under `request_id`, or returns the payload length when
/// it exceeds [`MAX_PAYLOAD`].
fn encode_checked(request_id: u32, frame: &Frame) -> Result<Vec<u8>, usize> {
    let mut enc = Enc::new();
    enc.raw(&MAGIC);
    enc.u16(VERSION);
    enc.u8(frame.type_byte());
    enc.u32(request_id);
    enc.u32(0); // payload length, patched below
    encode_payload(&mut enc, frame);
    let mut buf = enc.into_bytes();
    let payload_len = buf.len() - HEADER_LEN;
    if payload_len as u64 > MAX_PAYLOAD as u64 {
        return Err(payload_len);
    }
    buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let crc = frame_crc(request_id, payload_len as u32, &buf[HEADER_LEN..]);
    buf.extend_from_slice(&crc.to_le_bytes());
    Ok(buf)
}

/// Encodes `frame` under `request_id`. Panics (programmer error) when the
/// payload exceeds [`MAX_PAYLOAD`] — chunk the request instead;
/// [`write_frame_with`] returns an error there.
pub fn encode_frame_with(request_id: u32, frame: &Frame) -> Vec<u8> {
    encode_checked(request_id, frame)
        .unwrap_or_else(|len| panic!("{}; chunk the request", oversize(len)))
}

/// What an unsendable frame is: its payload length against the cap.
fn oversize(payload_len: usize) -> String {
    format!("frame payload of {payload_len} bytes exceeds the {MAX_PAYLOAD}-byte cap")
}

/// Encodes `frame` under request id 0 (un-multiplexed traffic).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    encode_frame_with(0, frame)
}

/// The validated fixed-size part of a frame.
struct Header {
    frame_type: u8,
    request_id: u32,
    payload_len: u32,
}

/// Parses and validates the 15 header bytes at the cursor: magic and
/// version are checked before the length prefix is trusted, and the length
/// is capped at [`MAX_PAYLOAD`] before anyone allocates for it.
fn parse_header(dec: &mut Dec<'_>) -> Result<Header, WireError> {
    let magic = dec.u32()?.to_le_bytes();
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = dec.u16()?;
    if version != VERSION {
        return Err(WireError::VersionMismatch {
            got: version,
            want: VERSION,
        });
    }
    let header = Header {
        frame_type: dec.u8()?,
        request_id: dec.u32()?,
        payload_len: dec.u32()?,
    };
    if header.payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversize(header.payload_len));
    }
    Ok(header)
}

/// Checks the CRC (which covers the request id) over `body` = payload +
/// checksum, before decoding a single payload byte.
fn decode_body(header: &Header, body: &[u8]) -> Result<Frame, WireError> {
    let mut dec = Dec::new(body, WHAT, "frame payload");
    let payload = dec.bytes(header.payload_len as usize)?;
    let got = dec.at("frame checksum").u32()?;
    let want = frame_crc(header.request_id, header.payload_len, payload);
    if got != want {
        return Err(WireError::BadCrc { got, want });
    }
    decode_payload(header.frame_type, payload)
}

/// Decodes one complete wire frame from `buf` (header through CRC),
/// returning the request id with the frame. The inverse of
/// [`encode_frame_with`]; rejects trailing bytes.
pub fn decode_frame_with(buf: &[u8]) -> Result<(u32, Frame), WireError> {
    let mut dec = Dec::new(buf, WHAT, "frame header");
    let header = parse_header(&mut dec)?;
    if dec.remaining() != header.payload_len as usize + 4 {
        return Err(WireError::Truncated {
            context: "frame payload",
        });
    }
    let body = dec.bytes(dec.remaining())?;
    Ok((header.request_id, decode_body(&header, body)?))
}

/// Decodes one complete wire frame, discarding the request id.
pub fn decode_frame(buf: &[u8]) -> Result<Frame, WireError> {
    decode_frame_with(buf).map(|(_, frame)| frame)
}

/// Writes one frame under `request_id`, returning the number of bytes put
/// on the wire. A frame whose payload exceeds [`MAX_PAYLOAD`] is an
/// [`std::io::ErrorKind::InvalidInput`] error naming its size, and nothing
/// is written.
pub fn write_frame_with(
    w: &mut impl Write,
    request_id: u32,
    frame: &Frame,
) -> std::io::Result<usize> {
    let bytes = encode_checked(request_id, frame)
        .map_err(|len| std::io::Error::new(std::io::ErrorKind::InvalidInput, oversize(len)))?;
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

/// Reads one complete frame from `r`, returning its request id, the frame
/// and the number of bytes consumed. Validates magic and version before
/// trusting the length prefix, caps the payload at [`MAX_PAYLOAD`], and
/// checks the CRC (which covers the request id) before decoding a single
/// payload byte.
pub fn read_frame_with(r: &mut impl Read) -> Result<(u32, Frame, usize), WireError> {
    let mut head = [0u8; HEADER_LEN];
    r.read_exact(&mut head)?;
    let header = parse_header(&mut Dec::new(&head, WHAT, "frame header"))?;
    let mut body = vec![0u8; header.payload_len as usize + 4];
    r.read_exact(&mut body)?;
    let frame = decode_body(&header, &body)?;
    Ok((header.request_id, frame, HEADER_LEN + body.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_core::codec::crc32;

    /// Byte offset of the request id within the header — also where the
    /// CRC-covered region starts (request id + payload length + payload).
    const CRC_START: usize = 4 + 2 + 1;

    #[test]
    fn empty_frames_round_trip() {
        for frame in [
            Frame::Health,
            Frame::Shutdown,
            Frame::ShutdownOk,
            Frame::Fingerprint,
            Frame::Stats,
        ] {
            let bytes = encode_frame(&frame);
            assert_eq!(decode_frame(&bytes).unwrap(), frame);
            let (id, via_reader, n) = read_frame_with(&mut &bytes[..]).unwrap();
            assert_eq!((id, via_reader), (0, frame));
            assert_eq!(n, bytes.len());
        }
    }

    #[test]
    fn error_frame_round_trips() {
        let frame = Frame::Error {
            code: code::BAD_REQUEST,
            detail: "id 99 out of range".to_string(),
        };
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
    }

    #[test]
    fn fingerprint_ok_round_trips() {
        let frame = Frame::FingerprintOk {
            value: 0xDEAD_BEEF_0BAD_F00D,
            searches: 96,
        };
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
    }

    #[test]
    fn stats_ok_round_trips() {
        let h = HistogramSnapshot {
            count: 3,
            sum: 300,
            min: 50,
            max: 150,
            p50: 100,
            p95: 150,
            p99: 150,
            p999: 150,
        };
        let frame = Frame::StatsOk {
            counters: vec![
                ("index.searches".to_string(), 96),
                ("serve.requests".to_string(), 200),
            ],
            durations: vec![("index.search.seconds".to_string(), h)],
            values: vec![("index.shortlist".to_string(), h)],
        };
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
        // Empty snapshot (telemetry-disabled shard) round-trips too.
        let empty = Frame::StatsOk {
            counters: Vec::new(),
            durations: Vec::new(),
            values: Vec::new(),
        };
        let bytes = encode_frame(&empty);
        assert_eq!(decode_frame(&bytes).unwrap(), empty);
    }

    #[test]
    fn stats_ok_rejects_lying_counts() {
        // A counter count that cannot fit the remaining payload must be
        // rejected before any allocation.
        let mut bytes = encode_frame(&Frame::StatsOk {
            counters: Vec::new(),
            durations: Vec::new(),
            values: Vec::new(),
        });
        // Payload starts at HEADER_LEN: first u32 is the counter count.
        bytes[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        // Re-seal the checksum over the CRC-covered region (id + len +
        // payload) so the corruption reaches the payload decoder.
        let crc_at = bytes.len() - 4;
        let fixed = crc32(&bytes[CRC_START..crc_at]);
        bytes[crc_at..].copy_from_slice(&fixed.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn trace_context_rides_enroll() {
        let frame = Frame::EnrollBatch {
            config: IndexConfig::default(),
            templates: Vec::new(),
            trace: Some(TraceContext {
                trace_id: 0xAAAA_BBBB_CCCC_DDDD,
                parent_span_id: 42,
                sampled: true,
            }),
        };
        let bytes = encode_frame_with(7, &frame);
        assert_eq!(decode_frame_with(&bytes).unwrap(), (7, frame));
    }

    #[test]
    fn malformed_trace_context_is_rejected_without_panicking() {
        let frame = Frame::EnrollBatch {
            config: IndexConfig::default(),
            templates: Vec::new(),
            trace: Some(TraceContext {
                trace_id: 1,
                parent_span_id: 2,
                sampled: true,
            }),
        };
        let bytes = encode_frame(&frame);
        // Payload: config (40) + template count (4) + presence flag + triple.
        let flag_at = HEADER_LEN + 44;
        let crc_at = bytes.len() - 4;
        for (offset, bad) in [(flag_at, 2u8), (crc_at - 1, 7u8)] {
            let mut corrupt = bytes.clone();
            corrupt[offset] = bad; // presence flag / sampled byte out of 0..=1
            let fixed = crc32(&corrupt[CRC_START..crc_at]);
            corrupt[crc_at..].copy_from_slice(&fixed.to_le_bytes());
            assert!(
                matches!(decode_frame(&corrupt), Err(WireError::Malformed(_))),
                "byte {offset} = {bad} must be Malformed"
            );
        }
    }

    #[test]
    fn server_timing_round_trips() {
        let frame = Frame::RerankOk {
            candidates: Vec::new(),
            timing: Some(ServerTiming {
                queue_wait_ns: 12_345,
                work_ns: 678_900,
            }),
        };
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
        let bare = Frame::RerankOk {
            candidates: Vec::new(),
            timing: None,
        };
        assert_eq!(decode_frame(&encode_frame(&bare)).unwrap(), bare);
    }

    #[test]
    fn trace_drain_frames_round_trip_spans() {
        let frame = Frame::TraceOk {
            now_ns: 99_000,
            dropped_spans: 3,
            spans: vec![
                SpanRecord {
                    id: 10,
                    parent: None,
                    name: "server.request".to_string(),
                    pid: 0,
                    thread: 2,
                    start_ns: 100,
                    dur_ns: 500,
                    attrs: vec![("remote_parent".to_string(), "42".to_string())],
                },
                SpanRecord {
                    id: 11,
                    parent: Some(10),
                    name: "server.queue_wait".to_string(),
                    pid: 0,
                    thread: 2,
                    start_ns: 100,
                    dur_ns: 40,
                    attrs: Vec::new(),
                },
            ],
        };
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
        let req = Frame::Trace { since_span_id: 10 };
        assert_eq!(decode_frame(&encode_frame(&req)).unwrap(), req);
    }

    #[test]
    fn versions_3_and_5_are_both_rejected() {
        let bytes = encode_frame(&Frame::Health);
        assert_eq!(VERSION, 4);
        for bad in [3u16, 5] {
            let mut corrupt = bytes.clone();
            corrupt[4..6].copy_from_slice(&bad.to_le_bytes());
            for result in [
                decode_frame(&corrupt),
                read_frame_with(&mut &corrupt[..]).map(|(_, frame, _)| frame),
            ] {
                assert!(
                    matches!(
                        result,
                        Err(WireError::VersionMismatch { got, want }) if got == bad && want == VERSION
                    ),
                    "version {bad} must be rejected"
                );
            }
        }
    }

    #[test]
    fn header_is_exactly_fifteen_bytes() {
        let bytes = encode_frame(&Frame::Health);
        assert_eq!(HEADER_LEN, 15);
        assert_eq!(bytes.len(), HEADER_LEN + 4); // empty payload + crc
        assert_eq!(&bytes[..4], &MAGIC);
    }

    #[test]
    fn request_ids_round_trip_in_any_order() {
        for id in [0u32, 1, 7, u32::MAX] {
            let bytes = encode_frame_with(id, &Frame::HealthOk { shard_len: id % 97 });
            let (got_id, frame) = decode_frame_with(&bytes).unwrap();
            assert_eq!(got_id, id);
            assert_eq!(frame, Frame::HealthOk { shard_len: id % 97 });
            let (via_reader, reader_frame, n) = read_frame_with(&mut &bytes[..]).unwrap();
            assert_eq!((via_reader, reader_frame), (id, frame));
            assert_eq!(n, bytes.len());
        }
    }

    #[test]
    fn flipped_request_id_bit_is_caught_by_the_crc() {
        // A request id outside the CRC would silently re-route a response
        // to the wrong caller — the exact failure multiplexing cannot
        // tolerate. Prove every bit of the id field is covered.
        let bytes = encode_frame_with(0x0102_0304, &Frame::Health);
        for byte in CRC_START..CRC_START + 4 {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    matches!(decode_frame_with(&corrupt), Err(WireError::BadCrc { .. })),
                    "flip of header byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn default_entry_points_use_request_id_zero() {
        let bytes = encode_frame(&Frame::Fingerprint);
        let (id, frame) = decode_frame_with(&bytes).unwrap();
        assert_eq!(id, 0);
        assert_eq!(frame, Frame::Fingerprint);
    }
}
