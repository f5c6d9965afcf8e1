//! The coordinator: the search spine over TCP shards.
//!
//! [`Coordinator`] runs [`fp_index::search_backends`]'s sequence — round-robin
//! enrollment and the same [`fp_index::search_spine`] — but each shard is a
//! [`RemoteShard`] connection instead of an in-process
//! [`fp_index::CandidateIndex`], and the spine's two fan-outs are pipelined
//! RPC rounds instead of thread lanes. A remote search is therefore
//! byte-identical to the in-process sharded search, which is itself
//! byte-identical to the unsharded index (`study gate ladder` audits the
//! whole chain).
//!
//! # Pipelining, not fan-out/join
//!
//! Each shard connection is a [`MuxConn`]: requests carry wire request ids, so
//! the coordinator writes stage-1 requests to **every** shard before
//! awaiting the first response — the shards compute concurrently without
//! the coordinator spawning a thread per shard per search. Because the
//! connections multiplex, `search` takes `&self` and is thread-safe: N
//! client threads can drive one coordinator at once, their requests
//! interleaving on the same shard connections (`MuxConn::peak_in_flight`
//! counts how deep that interleaving actually got).
//!
//! # Failure semantics
//!
//! Every RPC runs under a per-request deadline and a bounded retry budget
//! with deterministic exponential backoff (jitter comes from a seeded
//! splitmix64, so reruns behave identically). A typed `OVERLOADED` frame —
//! the server shedding at its admission watermark — is retryable like a
//! transport error (backoff gives the queue room to drain); a shard that
//! stays dead or saturated after the budget surfaces as
//! [`ShardError::Unavailable`] and fails the whole search: a truncated
//! candidate list would silently shift rank-1 / FNIR numbers, which is
//! strictly worse than a loud error.

use std::cell::RefCell;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use fp_core::rng::splitmix64;
use fp_core::template::Template;
use fp_index::shard::check_deal;
use fp_index::{search_spine, IndexConfig, SearchResult, ShardBackend, ShardError, StageOneScores};
use fp_telemetry::{
    Counter, DetachedSpan, FingerprintChain, FingerprintSnapshot, HistogramSnapshot,
    RunFingerprint, SpanRecord, Telemetry, TraceSnapshot,
};

use crate::metrics::ServeMetrics;
use crate::mux::{MuxConn, MuxError, Ticket};
use crate::slowlog::{ShardBreakdown, SlowLog};
use crate::wire::{code, Frame, ServerTiming, TraceContext};

/// Templates per [`Frame::EnrollBatch`]: keeps every frame far below
/// [`crate::wire::MAX_PAYLOAD`] while amortizing round trips.
const ENROLL_CHUNK: usize = 2048;

/// Bounded retry with deterministic exponential backoff.
///
/// Sleep before attempt `a` (1-based, attempt 0 never sleeps) is
/// `min(base * 2^(a-1), cap)` plus up to 25% seeded jitter. Determinism
/// matters here the way it does everywhere else in the study: a rerun of a
/// flaky experiment must behave identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per RPC (first try included). 1 disables retries.
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Jitter seed; mixed with (shard, attempt) via splitmix64.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(1),
            seed: 0x5eed_f00d,
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep before retry attempt `attempt` (1-based) on
    /// shard `shard`. Pure function of (policy, shard, attempt).
    pub fn backoff(&self, shard: usize, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.cap);
        let jitter_frac =
            (splitmix64(self.seed ^ (shard as u64) << 32 ^ attempt as u64) % 1000) as f64 / 1000.0;
        exp + exp.mul_f64(0.25 * jitter_frac)
    }
}

/// One multiplexed TCP connection to a shard server, with reconnection,
/// deadlines, bounded retry, and `serve.*` metrics. Implements
/// [`ShardBackend`], so it plugs into the same fusion/merge driver as an
/// in-process shard.
pub struct RemoteShard {
    shard: usize,
    conn: MuxConn,
    /// Cached gallery size, refreshed by enroll acks and health checks
    /// (the [`ShardBackend::shard_len`] accessor is infallible).
    len: AtomicUsize,
    retry: RetryPolicy,
    metrics: ServeMetrics,
    /// The coordinator's mirror of this shard's served-part fingerprint
    /// chain: every decoded re-rank response is folded here exactly as the
    /// shard folds what it serves (local ids, selection order), so scraping
    /// the shard's chain with [`Frame::Fingerprint`] and comparing detects
    /// any divergence between what the shard computed and what arrived.
    mirror: RunFingerprint,
    /// Exclusive upper bound of the last [`Frame::Trace`] drain: the next
    /// drain only fetches spans with `id >= trace_high_water`.
    trace_high_water: AtomicU64,
}

impl RemoteShard {
    /// Creates a (not yet connected) handle to the shard at `addr`.
    /// `shard` is this shard's index in the coordinator's round-robin
    /// mapping; it salts backoff jitter and labels errors and spans.
    pub fn new(addr: SocketAddr, shard: usize, deadline: Duration, retry: RetryPolicy) -> Self {
        RemoteShard {
            shard,
            conn: MuxConn::new(addr, deadline),
            len: AtomicUsize::new(0),
            retry,
            metrics: ServeMetrics::default(),
            mirror: RunFingerprint::new(IndexConfig::default().fingerprint_base(0)),
            trace_high_water: AtomicU64::new(0),
        }
    }

    /// Attaches the `serve.*` instrument bundle.
    pub fn with_metrics(mut self, metrics: ServeMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Re-bases the mirror chain. The coordinator calls this with its
    /// config's fingerprint base so the mirror starts from the same state
    /// as the shard's own part chain.
    pub fn with_fingerprint_base(mut self, base: FingerprintChain) -> Self {
        self.mirror = RunFingerprint::new(base);
        self
    }

    /// The mirror chain built from this connection's decoded re-rank
    /// responses.
    pub fn mirror_fingerprint(&self) -> FingerprintSnapshot {
        self.mirror.snapshot()
    }

    /// This shard's index in the round-robin id mapping.
    pub fn shard_index(&self) -> usize {
        self.shard
    }

    /// The deepest concurrent-request interleaving this shard's connection
    /// has ever carried (see [`MuxConn::peak_in_flight`]).
    pub fn peak_in_flight(&self) -> usize {
        self.conn.peak_in_flight()
    }

    fn unavailable(&self, detail: String) -> ShardError {
        ShardError::Unavailable {
            shard: self.shard,
            detail,
        }
    }

    fn protocol(&self, detail: String) -> ShardError {
        ShardError::Protocol {
            shard: self.shard,
            detail,
        }
    }

    fn map_mux(&self, e: MuxError) -> CallError {
        match e {
            MuxError::Transport { detail, timeout } => CallError::Transport(detail, timeout),
            MuxError::Protocol { detail } => CallError::Fatal(self.protocol(detail)),
        }
    }

    /// One request/response exchange with deadline, reconnection and
    /// bounded retry. Transport failures — and typed `OVERLOADED` sheds,
    /// which mean "try again once the queue drains" — are retried with
    /// backoff; protocol-invalid replies (including other typed
    /// [`Frame::Error`]s) fail immediately — resending the same bytes
    /// cannot fix those.
    pub fn call(&self, request: &Frame) -> Result<Frame, ShardError> {
        let kind = request.kind();
        let mut last_io = String::new();
        for attempt in 0..self.retry.attempts {
            if attempt > 0 {
                self.metrics.retries.incr();
                std::thread::sleep(self.retry.backoff(self.shard, attempt));
            }
            let outcome = self
                .begin_rpc(request)
                .and_then(|pending| self.finish_rpc(pending, kind));
            match outcome {
                Ok((response, _observation)) => return Ok(response),
                Err(CallError::Transport(detail, timed_out)) => {
                    if timed_out {
                        self.metrics.timeouts.incr();
                    }
                    last_io = detail;
                }
                Err(CallError::Shed(detail)) => last_io = format!("shed by shard: {detail}"),
                Err(CallError::Fatal(e)) => return Err(e),
            }
        }
        Err(self.unavailable(format!(
            "{} attempts exhausted; last error: {last_io}",
            self.retry.attempts
        )))
    }

    /// Puts `request` on the wire without waiting for the response — the
    /// pipelining half. Pair with [`finish_rpc`](Self::finish_rpc).
    ///
    /// When telemetry is live, a detached `serve.rpc` span opens *here*
    /// (so it covers serialization, the write, and the whole pipelined
    /// wait) and the request is stamped with a [`TraceContext`] carrying
    /// that span's id — the id the shard's `server.request` span records
    /// as `remote_parent`, which is what lets the post-drain merge stitch
    /// the two process-local trees into one.
    pub(crate) fn begin_rpc(&self, request: &Frame) -> Result<PendingRpc, CallError> {
        self.metrics.requests.incr();
        let telemetry = &self.metrics.telemetry;
        let span = telemetry.is_enabled().then(|| {
            telemetry.detached_span(
                "serve.rpc",
                &[
                    ("kind", request.kind().to_string()),
                    ("shard", self.shard.to_string()),
                ],
            )
        });
        // Stamp a copy only when there is a context to carry — untraced
        // runs put the caller's frame on the wire untouched.
        let stamped = span.as_ref().and_then(|s| s.id()).and_then(|rpc_id| {
            let ctx = TraceContext {
                trace_id: telemetry.trace_ctx().span_id().unwrap_or(rpc_id),
                parent_span_id: rpc_id,
                sampled: true,
            };
            let mut request = request.clone();
            match &mut request {
                Frame::EnrollBatch { trace, .. }
                | Frame::StageOne { trace, .. }
                | Frame::Rerank { trace, .. } => {
                    *trace = Some(ctx);
                    Some(request)
                }
                _ => None, // this frame type has no context section
            }
        });
        let (ticket, tx) = self
            .conn
            .begin(stamped.as_ref().unwrap_or(request))
            .map_err(|e| self.map_mux(e))?;
        self.metrics.bytes_tx.add(tx as u64);
        Ok(PendingRpc {
            ticket,
            start: Instant::now(),
            tx_bytes: tx as u64,
            span,
        })
    }

    /// Awaits the response for a [`begin_rpc`](Self::begin_rpc), mapping
    /// typed error frames: `OVERLOADED` is retryable (the `serve.shed`
    /// counter records each shed observed), everything else is fatal.
    /// Closes the rpc span opened at begin (failed exchanges record it
    /// too) and returns what the exchange observed — round-trip time,
    /// bytes, and any [`ServerTiming`] the shard echoed — as slow-log raw
    /// material.
    pub(crate) fn finish_rpc(
        &self,
        pending: PendingRpc,
        kind: &'static str,
    ) -> Result<(Frame, RpcObservation), CallError> {
        let PendingRpc {
            ticket,
            start,
            tx_bytes,
            span,
        } = pending;
        // On a transport/protocol error `span` drops right here, recording
        // the failed attempt with its true duration.
        let (response, rx) = self.conn.finish(ticket).map_err(|e| self.map_mux(e))?;
        let elapsed = start.elapsed();
        self.metrics.bytes_rx.add(rx as u64);
        self.metrics.record_rpc(kind, elapsed);
        if let Frame::Error { code: c, detail } = response {
            if c == code::OVERLOADED {
                self.metrics.shed.incr();
                return Err(CallError::Shed(detail));
            }
            let name = match c {
                code::CONFIG_MISMATCH => "config mismatch",
                code::BAD_REQUEST => "bad request",
                code::INTERNAL => "internal shard error",
                _ => "unknown error code",
            };
            return Err(CallError::Fatal(self.protocol(format!("{name}: {detail}"))));
        }
        let timing = match &response {
            Frame::StageOneOk { timing, .. } | Frame::RerankOk { timing, .. } => *timing,
            _ => None,
        };
        if let Some(mut span) = span {
            if let Some(t) = timing {
                span.add_attr("server_queue_wait_ns", t.queue_wait_ns.to_string());
                span.add_attr("server_work_ns", t.work_ns.to_string());
            }
            span.finish();
        }
        let observation = RpcObservation {
            elapsed_ns: elapsed.as_nanos().min(u64::MAX as u128) as u64,
            bytes_tx: tx_bytes,
            bytes_rx: rx as u64,
            timing,
        };
        Ok((response, observation))
    }

    /// Checks a stage-1 response's shape against the cached shard length.
    fn validate_stage_one(&self, response: Frame) -> Result<StageOneScores, ShardError> {
        let scores = match response {
            Frame::StageOneOk { scores, timing: _ } => scores,
            other => {
                return Err(self.protocol(format!("expected stage1_ok, got '{}'", other.kind())))
            }
        };
        let want = self.shard_len();
        if scores.vote_scores.len() != want || scores.cyl_scores.len() != want {
            return Err(self.protocol(format!(
                "stage-1 scored {} entries, shard holds {want}",
                scores.vote_scores.len()
            )));
        }
        Ok(scores)
    }

    /// Checks a re-rank response echoes the requested ids in order, then
    /// folds it into the mirror chain exactly as the shard folds what it
    /// serves.
    fn validate_stage_two(
        &self,
        selected_local: &[u32],
        response: Frame,
    ) -> Result<Vec<fp_index::Candidate>, ShardError> {
        let candidates = match response {
            Frame::RerankOk {
                candidates,
                timing: _,
            } => candidates,
            other => {
                return Err(self.protocol(format!("expected rerank_ok, got '{}'", other.kind())))
            }
        };
        if candidates.len() != selected_local.len()
            || candidates
                .iter()
                .zip(selected_local)
                .any(|(c, &id)| c.id != id)
        {
            return Err(self.protocol(format!(
                "re-rank returned {} candidates for {} requested ids (or ids differ)",
                candidates.len(),
                selected_local.len()
            )));
        }
        // Mirror-fold the decoded part exactly as the shard folds what it
        // serves (local ids, selection order) before the ids are
        // globalized, so the two chains agree iff shard and wire agree.
        self.mirror.record_item(&candidates[..]);
        Ok(candidates)
    }

    /// Enrolls `templates` on this shard in chunked batches, carrying
    /// `config` so the server can reject a tuning mismatch.
    pub fn enroll(&self, config: &IndexConfig, templates: &[Template]) -> Result<(), ShardError> {
        for chunk in templates.chunks(ENROLL_CHUNK.max(1)) {
            let request = Frame::EnrollBatch {
                config: *config,
                templates: chunk.to_vec(),
                trace: None,
            };
            match self.call(&request)? {
                Frame::EnrollOk { shard_len, .. } => {
                    self.len.store(shard_len as usize, Ordering::Relaxed);
                }
                other => {
                    return Err(self.protocol(format!("expected enroll_ok, got '{}'", other.kind())))
                }
            }
        }
        Ok(())
    }

    /// Health round trip; refreshes the cached shard length.
    pub fn health(&self) -> Result<usize, ShardError> {
        match self.call(&Frame::Health)? {
            Frame::HealthOk { shard_len } => {
                self.len.store(shard_len as usize, Ordering::Relaxed);
                Ok(shard_len as usize)
            }
            other => Err(self.protocol(format!("expected health_ok, got '{}'", other.kind()))),
        }
    }

    /// Scrapes the shard's served-part fingerprint chain and compares it
    /// with this connection's mirror. A mismatch means the shard's recorded
    /// chain disagrees with the responses the coordinator actually decoded
    /// — behavioral drift that a candidate-list diff could only catch by
    /// re-scoring — and surfaces as [`ShardError::FingerprintDrift`] with
    /// the `serve.drift` counter bumped.
    pub fn verify_fingerprint(&self) -> Result<FingerprintSnapshot, ShardError> {
        let expected = self.mirror.snapshot();
        match self.call(&Frame::Fingerprint)? {
            Frame::FingerprintOk { value, searches } => {
                if value != expected.value {
                    self.metrics.drift.incr();
                    return Err(ShardError::FingerprintDrift {
                        shard: self.shard,
                        expected: expected.value,
                        reported: value,
                    });
                }
                Ok(FingerprintSnapshot { value, searches })
            }
            other => Err(self.protocol(format!("expected fingerprint_ok, got '{}'", other.kind()))),
        }
    }

    /// Fetches the shard process's telemetry snapshot (counters plus
    /// duration and value histograms) over [`Frame::Stats`].
    #[allow(clippy::type_complexity)]
    pub fn fetch_stats(
        &self,
    ) -> Result<
        (
            Vec<(String, u64)>,
            Vec<(String, HistogramSnapshot)>,
            Vec<(String, HistogramSnapshot)>,
        ),
        ShardError,
    > {
        match self.call(&Frame::Stats)? {
            Frame::StatsOk {
                counters,
                durations,
                values,
            } => Ok((counters, durations, values)),
            other => Err(self.protocol(format!("expected stats_ok, got '{}'", other.kind()))),
        }
    }

    /// Best-effort clean shutdown of the shard process.
    pub fn shutdown(&self) -> Result<(), ShardError> {
        match self.call(&Frame::Shutdown)? {
            Frame::ShutdownOk => Ok(()),
            other => Err(self.protocol(format!("expected shutdown_ok, got '{}'", other.kind()))),
        }
    }

    /// Drains the shard's flight recorder — spans newer than the previous
    /// drain's high-water mark — and estimates the offset between the
    /// shard's trace clock and `telemetry`'s.
    ///
    /// The shard reads its clock while building the response; the
    /// coordinator brackets the RPC with its own clock reads and assumes
    /// the shard's read happened at the bracket midpoint. The estimate and
    /// the bracket width are recorded on the `serve.collect_trace` span,
    /// so skew is visible in the merged trace instead of silently folded
    /// into the shifted timestamps.
    pub fn collect_trace(&self, telemetry: &Telemetry) -> Result<RemoteTrace, ShardError> {
        let mut span = telemetry.is_enabled().then(|| {
            telemetry.detached_span("serve.collect_trace", &[("shard", self.shard.to_string())])
        });
        let since = self.trace_high_water.load(Ordering::Relaxed);
        let t_send = telemetry.trace_now_ns();
        let response = self.call(&Frame::Trace {
            since_span_id: since,
        })?;
        let t_recv = telemetry.trace_now_ns();
        let (now_ns, dropped_spans, spans) = match response {
            Frame::TraceOk {
                now_ns,
                dropped_spans,
                spans,
            } => (now_ns, dropped_spans, spans),
            other => {
                return Err(self.protocol(format!("expected trace_ok, got '{}'", other.kind())))
            }
        };
        let bracket_ns = t_recv.saturating_sub(t_send);
        let midpoint = t_send + bracket_ns / 2;
        let clock_offset_ns =
            (now_ns as i128 - midpoint as i128).clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        if let Some(next) = spans.iter().map(|s| s.id).max().map(|max| max + 1) {
            self.trace_high_water.fetch_max(next, Ordering::Relaxed);
        }
        if let Some(span) = &mut span {
            span.add_attr("clock_offset_ns", clock_offset_ns.to_string());
            span.add_attr("bracket_ns", bracket_ns.to_string());
            span.add_attr("spans", spans.len().to_string());
        }
        Ok(RemoteTrace {
            shard: self.shard,
            spans,
            clock_offset_ns,
            dropped_spans,
        })
    }
}

/// Spans drained from one shard by [`RemoteShard::collect_trace`], with
/// the clock-offset estimate used to place them on the coordinator's
/// timeline at merge time.
#[derive(Debug, Clone)]
pub struct RemoteTrace {
    /// The shard they came from (= the merged trace's process lane).
    pub shard: usize,
    /// Drained span records (shard-local ids).
    pub spans: Vec<SpanRecord>,
    /// Estimated `shard clock − coordinator clock` (ns).
    pub clock_offset_ns: i64,
    /// Spans the shard lost to buffer capacity (cumulative).
    pub dropped_spans: u64,
}

/// What one completed RPC observed — the per-shard raw material of a
/// slow-log exemplar.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RpcObservation {
    pub(crate) elapsed_ns: u64,
    pub(crate) bytes_tx: u64,
    pub(crate) bytes_rx: u64,
    pub(crate) timing: Option<ServerTiming>,
}

/// An RPC whose request is on the wire but whose response has not been
/// awaited yet.
pub(crate) struct PendingRpc {
    ticket: Ticket,
    start: Instant,
    /// Wire bytes the request put on the socket.
    tx_bytes: u64,
    /// The detached `serve.rpc` span opened at begin; finished (or dropped,
    /// on failure) at finish. `None` when telemetry is disabled.
    span: Option<DetachedSpan>,
}

pub(crate) enum CallError {
    /// Retryable transport trouble (detail, was-a-timeout).
    Transport(String, bool),
    /// Retryable: the shard shed the request with a typed `OVERLOADED`
    /// frame (its detail).
    Shed(String),
    /// Non-retryable: protocol violation or any other typed error frame.
    Fatal(ShardError),
}

impl ShardBackend for RemoteShard {
    fn shard_len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn stage_one(&self, probe: &Template) -> Result<StageOneScores, ShardError> {
        let response = self.call(&Frame::StageOne {
            probe: probe.clone(),
            trace: None,
        })?;
        self.validate_stage_one(response)
    }

    fn stage_two(
        &self,
        probe: &Template,
        selected_local: &[u32],
    ) -> Result<Vec<fp_index::Candidate>, ShardError> {
        let response = self.call(&Frame::Rerank {
            probe: probe.clone(),
            selected: selected_local.to_vec(),
            trace: None,
        })?;
        self.validate_stage_two(selected_local, response)
    }
}

/// The total gallery size behind `shards`' cached lengths, which must be a
/// round-robin deal — the id mapping every search stitches by is undefined
/// otherwise (two `serve-shard --gallery-dir` processes opened on unrelated
/// stores, say).
fn dealt_len(shards: &[RemoteShard]) -> Result<usize, ShardError> {
    let lens: Vec<usize> = shards.iter().map(|shard| shard.shard_len()).collect();
    check_deal(&lens)
}

/// Nanoseconds elapsed since `start`, saturating.
fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// A cross-process sharded 1:N index: the drop-in remote counterpart of
/// the unsharded index, returning byte-identical [`SearchResult`]s.
/// Searches take `&self` and are thread-safe — N client threads may drive
/// one coordinator concurrently, multiplexing on the shard connections.
pub struct Coordinator {
    shards: Vec<RemoteShard>,
    config: IndexConfig,
    enrolled: usize,
    telemetry: Telemetry,
    /// Canonical run fingerprint, folded over merged results in
    /// global-fusion order — the same chain an unsharded
    /// [`fp_index::CandidateIndex`] builds for the same probes. The
    /// accumulator is commutative, so concurrent searches reach the same
    /// cumulative value regardless of interleaving.
    runfp: RunFingerprint,
    /// Searches completed: the slow log's search number.
    searches: AtomicU64,
    /// Tail-latency exemplar log; every search is offered when attached.
    slowlog: Option<Arc<SlowLog>>,
    /// Remote spans drained by [`collect_traces`](Self::collect_traces),
    /// waiting to be merged into an export by
    /// [`merged_trace`](Self::merged_trace).
    collected: Mutex<Vec<RemoteTrace>>,
    /// `serve.search.failed`: searches that returned an error.
    failed: Counter,
}

impl Coordinator {
    /// Connects to one shard server per address (shard k = `addrs[k]` in
    /// the round-robin id mapping) and health-checks each.
    pub fn connect(
        addrs: &[SocketAddr],
        config: IndexConfig,
        deadline: Duration,
        retry: RetryPolicy,
    ) -> Result<Coordinator, ShardError> {
        assert!(!addrs.is_empty(), "need at least one shard address");
        let shards: Vec<RemoteShard> = addrs
            .iter()
            .enumerate()
            .map(|(k, &addr)| {
                RemoteShard::new(addr, k, deadline, retry)
                    .with_fingerprint_base(config.fingerprint_base(0))
            })
            .collect();
        for shard in &shards {
            shard.health()?;
        }
        let enrolled = dealt_len(&shards)?;
        Ok(Coordinator {
            shards,
            runfp: RunFingerprint::new(config.fingerprint_base(0)),
            config,
            enrolled,
            telemetry: Telemetry::disabled(),
            searches: AtomicU64::new(0),
            slowlog: None,
            collected: Mutex::new(Vec::new()),
            failed: Counter::default(),
        })
    }

    /// Re-seeds the canonical run fingerprint (the per-shard mirror chains
    /// keep seed 0 — shard servers have no notion of the run seed).
    pub fn with_run_seed(mut self, seed: u64) -> Self {
        self.runfp = RunFingerprint::new(self.config.fingerprint_base(seed));
        self
    }

    /// Registers `serve.*` instruments and the trace-span source on
    /// `telemetry`.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        let metrics = ServeMetrics::new(telemetry);
        self.failed = metrics.search_failed.clone();
        self.shards = self
            .shards
            .into_iter()
            .map(|shard| shard.with_metrics(metrics.clone()))
            .collect();
        self
    }

    /// Attaches a tail-latency exemplar log: every completed search is
    /// offered; those exceeding the threshold keep their full per-shard
    /// breakdown (see [`SlowLog`]).
    pub fn with_slowlog(mut self, slowlog: Arc<SlowLog>) -> Self {
        self.slowlog = Some(slowlog);
        self
    }

    /// The attached slow log, if any.
    pub fn slowlog(&self) -> Option<&Arc<SlowLog>> {
        self.slowlog.as_ref()
    }

    /// Number of remote shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total enrolled templates across all shards.
    pub fn len(&self) -> usize {
        self.enrolled
    }

    /// Whether the distributed gallery is empty.
    pub fn is_empty(&self) -> bool {
        self.enrolled == 0
    }

    /// The config every shard must score under.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The deepest concurrent-request interleaving observed on any shard
    /// connection — how many requests were actually in flight at once on
    /// one socket. Sequential callers keep this at 1; N threads driving
    /// [`search`](Self::search) concurrently push it toward N × the
    /// per-search RPC overlap.
    pub fn peak_in_flight(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.peak_in_flight())
            .max()
            .unwrap_or(0)
    }

    /// Enrolls a batch: templates are dealt round-robin (continuing from
    /// previous batches) and each shard enrolls its share on its own
    /// thread — the same global id assignment as [`fp_index::search_backends`]
    /// and, transitively, the unsharded index.
    pub fn enroll_all(&mut self, templates: &[Template]) -> Result<(), ShardError> {
        let s = self.shards.len();
        let _span = self.telemetry.trace_span(
            "index.enroll_all",
            &[
                ("batch", templates.len().to_string()),
                ("shards", s.to_string()),
                ("transport", "tcp".to_string()),
            ],
        );
        let mut per_shard: Vec<Vec<Template>> = vec![Vec::new(); s];
        for (offset, template) in templates.iter().enumerate() {
            per_shard[(self.enrolled + offset) % s].push(template.clone());
        }
        let config = &self.config;
        let ctx = self.telemetry.trace_ctx();
        let telemetry = &self.telemetry;
        // Each worker fills its own slot; the scope joins them all (and
        // re-raises a worker's panic) before the slots are read.
        let mut results: Vec<Result<(), ShardError>> = per_shard.iter().map(|_| Ok(())).collect();
        std::thread::scope(|scope| {
            for ((shard, batch), slot) in self.shards.iter().zip(&per_shard).zip(&mut results) {
                let ctx = &ctx;
                scope.spawn(move || {
                    let _adopt = telemetry.in_ctx(ctx);
                    *slot = shard.enroll(config, batch);
                });
            }
        });
        results.into_iter().collect::<Result<(), ShardError>>()?;
        // The enroll acks refreshed every shard's cached length.
        self.enrolled = dealt_len(&self.shards)?;
        Ok(())
    }

    /// Searches with the configured shortlist budget.
    pub fn search(&self, probe: &Template) -> Result<SearchResult, ShardError> {
        self.search_with_budget(probe, self.config.shortlist)
    }

    /// Searches with an explicit **total** shortlist budget:
    /// [`search_spine`] with each fan-out one pipelined RPC round — only
    /// the transport differs from
    /// [`fp_index::search_backends`].
    pub fn search_with_budget(
        &self,
        probe: &Template,
        shortlist: usize,
    ) -> Result<SearchResult, ShardError> {
        let s = self.shards.len();
        let n = self.enrolled;
        let search_start = Instant::now();
        let _span = self.telemetry.trace_span(
            "index.search",
            &[
                ("gallery", n.to_string()),
                ("shards", s.to_string()),
                ("transport", "tcp".to_string()),
            ],
        );
        // Per-shard observations of this one search — becomes a slow-log
        // exemplar iff the search ends up over the threshold.
        let breakdown = RefCell::new(
            (0..s)
                .map(|k| ShardBreakdown {
                    shard: k,
                    ..ShardBreakdown::default()
                })
                .collect::<Vec<_>>(),
        );

        let result = search_spine(
            s,
            n,
            shortlist,
            Some(&self.runfp),
            || {
                let requests = (0..s).map(|k| {
                    let request = Frame::StageOne {
                        probe: probe.clone(),
                        trace: None,
                    };
                    (k, request)
                });
                self.pipelined_round(
                    requests.collect(),
                    &breakdown,
                    |b| &mut b.stage1_ns,
                    |job, response| self.shards[job].validate_stage_one(response),
                )
            },
            |jobs| {
                let requests = jobs.iter().map(|(k, selected)| {
                    let request = Frame::Rerank {
                        probe: probe.clone(),
                        selected: selected.clone(),
                        trace: None,
                    };
                    (*k, request)
                });
                self.pipelined_round(
                    requests.collect(),
                    &breakdown,
                    |b| &mut b.rerank_ns,
                    |job, response| {
                        let (k, selected) = &jobs[job];
                        self.shards[*k].validate_stage_two(selected, response)
                    },
                )
            },
        )
        .inspect_err(|_| self.failed.incr())?;

        let done = self.searches.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(slowlog) = &self.slowlog {
            slowlog.observe(done, elapsed_ns(search_start), breakdown.into_inner());
        }
        Ok(result)
    }

    /// One pipelined round of a search: `requests[job]` goes on the wire to
    /// its shard for **every** job before the first response is awaited, so
    /// the shards compute concurrently. Each response is checked by
    /// `validate(job, response)` as it arrives; results come back in job
    /// order. A shard whose pipelined exchange hits a retryable failure
    /// falls back to the full retrying [`RemoteShard::call`] path. What
    /// each exchange observed is absorbed into the shard's `breakdown`
    /// entry, its round-trip time into the field `stage_ns` picks.
    fn pipelined_round<T>(
        &self,
        requests: Vec<(usize, Frame)>,
        breakdown: &RefCell<Vec<ShardBreakdown>>,
        stage_ns: impl Fn(&mut ShardBreakdown) -> &mut u64,
        validate: impl Fn(usize, Frame) -> Result<T, ShardError>,
    ) -> Result<Vec<T>, ShardError> {
        let pending: Vec<Result<PendingRpc, CallError>> = requests
            .iter()
            .map(|(k, request)| self.shards[*k].begin_rpc(request))
            .collect();
        let mut breakdown = breakdown.borrow_mut();
        let mut results = Vec::with_capacity(requests.len());
        for (job, ((k, request), begun)) in requests.iter().zip(pending).enumerate() {
            let (shard, b) = (&self.shards[*k], &mut breakdown[*k]);
            let response = match begun.and_then(|p| shard.finish_rpc(p, request.kind())) {
                Ok((response, observation)) => {
                    *stage_ns(b) = observation.elapsed_ns;
                    b.bytes_tx += observation.bytes_tx;
                    b.bytes_rx += observation.bytes_rx;
                    if let Some(t) = observation.timing {
                        b.queue_wait_ns += t.queue_wait_ns;
                        b.work_ns += t.work_ns;
                    }
                    response
                }
                Err(CallError::Fatal(e)) => return Err(e),
                Err(retryable) => {
                    b.retried = true;
                    b.shed |= matches!(retryable, CallError::Shed(_));
                    let retry_start = Instant::now();
                    let response = shard.call(request)?;
                    *stage_ns(b) = elapsed_ns(retry_start);
                    response
                }
            };
            results.push(validate(job, response)?);
        }
        Ok(results)
    }

    /// The canonical run fingerprint over every search served so far —
    /// equal to the unsharded index's chain for the same config, seed and
    /// probe sequence.
    pub fn run_fingerprint(&self) -> FingerprintSnapshot {
        self.runfp.snapshot()
    }

    /// The per-shard mirror chains (what the coordinator decoded), in
    /// shard order.
    pub fn shard_fingerprints(&self) -> Vec<FingerprintSnapshot> {
        self.shards
            .iter()
            .map(|shard| shard.mirror_fingerprint())
            .collect()
    }

    /// Scrapes every shard's served-part chain over [`Frame::Fingerprint`]
    /// and compares it with this coordinator's mirror of the responses it
    /// decoded. The first drifting shard fails the call with
    /// [`ShardError::FingerprintDrift`] (after bumping `serve.drift`);
    /// otherwise returns the verified snapshots in shard order.
    pub fn verify_fingerprints(&self) -> Result<Vec<FingerprintSnapshot>, ShardError> {
        let _span = self.telemetry.trace_span(
            "serve.fingerprint",
            &[("shards", self.shards.len().to_string())],
        );
        self.shards
            .iter()
            .map(|shard| shard.verify_fingerprint())
            .collect()
    }

    /// Fetches every shard process's telemetry snapshot over
    /// [`Frame::Stats`] and merges it into this coordinator's telemetry as
    /// gauges under `shard<k>.remote.*` (counters as their value,
    /// histograms as `<name>.count` / `<name>.sum`). Gauges make re-scrapes
    /// idempotent: each scrape overwrites the last.
    pub fn scrape_stats(&self) -> Result<(), ShardError> {
        let _span = self
            .telemetry
            .trace_span("serve.stats", &[("shards", self.shards.len().to_string())]);
        for shard in &self.shards {
            let (counters, durations, values) = shard.fetch_stats()?;
            let k = shard.shard_index();
            for (name, value) in counters {
                self.telemetry
                    .gauge(&format!("shard{k}.remote.{name}"))
                    .set(value as f64);
            }
            for (name, h) in durations.into_iter().chain(values) {
                self.telemetry
                    .gauge(&format!("shard{k}.remote.{name}.count"))
                    .set(h.count as f64);
                self.telemetry
                    .gauge(&format!("shard{k}.remote.{name}.sum"))
                    .set(h.sum as f64);
            }
        }
        Ok(())
    }

    /// The drained remote traces. Nothing panics while holding the lock: it
    /// is held to push a drain or to read the list.
    fn collected(&self) -> MutexGuard<'_, Vec<RemoteTrace>> {
        self.collected
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Drains every shard's flight recorder over [`Frame::Trace`] and
    /// retains the spans for [`merged_trace`](Self::merged_trace).
    /// Incremental: each round only fetches spans newer than the shard's
    /// previous high-water mark, so periodic collection is cheap. Returns
    /// how many spans arrived in this round.
    pub fn collect_traces(&self) -> Result<usize, ShardError> {
        let mut fetched = 0;
        for shard in &self.shards {
            let remote = shard.collect_trace(&self.telemetry)?;
            fetched += remote.spans.len();
            self.collected().push(remote);
        }
        Ok(fetched)
    }

    /// The coordinator's own trace with every collected drain merged in:
    /// one Chrome-trace process lane per shard, remote spans re-parented
    /// under the `serve.rpc` spans that issued them, timestamps shifted
    /// onto the coordinator's timeline by each drain's clock-offset
    /// estimate (see [`TraceSnapshot::merge_remote`]).
    pub fn merged_trace(&self) -> TraceSnapshot {
        let mut snapshot = self.telemetry.trace_snapshot();
        for remote in self.collected().iter() {
            snapshot.merge_remote(
                remote.shard,
                remote.spans.clone(),
                remote.clock_offset_ns,
                remote.dropped_spans,
            );
        }
        snapshot
    }

    /// Sends every shard a clean shutdown. Returns the first error, but
    /// attempts all shards regardless.
    pub fn shutdown_all(&self) -> Result<(), ShardError> {
        let mut first_err = None;
        for shard in &self.shards {
            if let Err(e) = shard.shutdown() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values taken with the private `splitmix64` this file used to carry:
    /// the jitter stream, hence every retry schedule, is unchanged.
    #[test]
    fn default_backoff_is_pinned() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff(0, 1), Duration::from_nanos(53_837_500));
        assert_eq!(policy.backoff(3, 2), Duration::from_nanos(118_175_000));
        // Past the cap: 1 s plus jitter.
        assert_eq!(policy.backoff(1, 6), Duration::from_nanos(1_185_750_000));
    }
}
