//! The shard server: one process, one [`CandidateIndex`], one TCP listener.
//!
//! Concurrency model: each connection gets a **reader thread**
//! that decodes frames and dispatches them — tagged with their request id
//! — into a bounded, server-wide **worker pool**. Workers execute requests
//! against the `RwLock`-guarded index (stage-1/stage-2 under the read
//! lock, enrollment under the write lock) and write each response back
//! under the request's id, in whatever order the work completes; a client
//! may therefore keep many requests in flight on one connection (see
//! `crate::mux` for the client half).
//!
//! # Admission control
//!
//! Admission is decided by a queue-depth counter against a configured
//! watermark: a request arriving while `watermark` jobs are already
//! queued (not yet picked up by a worker) is shed immediately with a
//! typed [`code::OVERLOADED`] error frame instead of letting the queue
//! (and every caller's latency) grow without bound.
//! Nothing is ever dropped silently — every offered request is either
//! accepted (and answered by a worker) or shed (and answered with
//! `OVERLOADED` by the reader), and the `serve.offered` /
//! `serve.accepted` / `serve.overloaded` counters account for exactly
//! that: offered = accepted + overloaded. [`Frame::Shutdown`] bypasses the
//! queue entirely — overload must never make a server unstoppable.
//!
//! # Distributed tracing
//!
//! A request may carry a sampled [`TraceContext`]. The worker that
//! dispatches it opens a `server.request` span back-dated to the admission
//! timestamp (recording the coordinator's issuing span id as the
//! `remote_parent` attribute), records a retroactive `server.queue_wait`
//! child covering admission→dispatch, and adopts the request span via
//! [`fp_telemetry::TraceCtx::adopted`] so every span the index opens nests
//! under it. Stage responses to sampled requests echo the
//! queue-wait/work split as [`ServerTiming`]; a [`Frame::Trace`] drain
//! hands the retained spans to the coordinator for merging.
//!
//! # Config adoption
//!
//! The first [`Frame::EnrollBatch`] carries the coordinator's
//! [`IndexConfig`]; an **empty** shard adopts it wholesale. Once enrolled,
//! any batch carrying a *different* config is rejected with
//! [`code::CONFIG_MISMATCH`] — stage-1 scores depend on the tuning, and a
//! shard silently scoring under different parameters would break the
//! byte-identical guarantee in the quietest possible way.

use std::collections::HashSet;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Duration;

use fp_core::template::Template;
use fp_index::{CandidateIndex, IndexConfig, ShardBackend, ShardError};
use fp_match::PairTableMatcher;
use fp_telemetry::{Counter, Telemetry, TraceCtx, ValueHistogram, REMOTE_PARENT_ATTR};

use crate::wire::{
    code, read_frame_with, write_frame_with, Frame, ServerTiming, TraceContext, WireError,
};

/// How long the accept loop and idle connections sleep between stop-flag
/// polls. Bounds shutdown latency.
const POLL: Duration = Duration::from_millis(100);

/// Read deadline once a frame has started arriving. Loopback frames land in
/// microseconds; this only bounds how long a half-written frame from a
/// dying peer can pin a connection thread.
const FRAME_DEADLINE: Duration = Duration::from_secs(10);

/// Default worker-pool size when [`ShardServer::with_pool`] is not called.
pub const DEFAULT_WORKERS: usize = 4;

/// Default admission-queue capacity (the overload watermark).
pub const DEFAULT_QUEUE: usize = 64;

/// Admission-control instruments. The invariant the overload fault test
/// pins down: `offered == accepted + overloaded`, always.
struct Admission {
    offered: Counter,
    accepted: Counter,
    overloaded: Counter,
    /// Queue depth observed at each admission decision (before enqueue).
    queue_depth: ValueHistogram,
    /// Jobs currently queued but not yet picked up by a worker.
    depth: AtomicUsize,
}

impl Admission {
    fn new(telemetry: &Telemetry) -> Admission {
        Admission {
            offered: telemetry.counter("serve.offered"),
            accepted: telemetry.counter("serve.accepted"),
            overloaded: telemetry.counter("serve.overloaded"),
            queue_depth: telemetry.value("serve.queue.depth"),
            depth: AtomicUsize::new(0),
        }
    }
}

struct State {
    index: RwLock<CandidateIndex>,
    stop: Arc<AtomicBool>,
    /// Instruments the [`Frame::Stats`] snapshot is taken from; inert
    /// unless [`ShardServer::with_telemetry`] was called.
    telemetry: Telemetry,
    admission: Admission,
    /// Fault-injection hook: XORed into every reported
    /// [`Frame::FingerprintOk`] value. Zero (the default) is a no-op; the
    /// loopback e2e suite sets it non-zero to prove a drifting shard is
    /// caught by the coordinator's mirror comparison.
    skew: Arc<AtomicU64>,
    /// Fault-injection hook: milliseconds every stage-1/re-rank request
    /// sleeps before touching the index. Zero (the default) is a no-op;
    /// the soak suite sets it non-zero to prove correctness holds when a
    /// shard answers slowly and out of order.
    delay_ms: Arc<AtomicU64>,
    /// Live connection-reader threads, as maintained by the accept loop's
    /// reaping pass (the churn test watches this to prove handles don't
    /// accumulate).
    connections: Arc<AtomicUsize>,
}

/// One unit of work: a decoded request, the id to answer under, and the
/// connection plumbing to answer through.
struct Job {
    request_id: u32,
    request: Frame,
    /// Trace context the request carried, if any.
    trace: Option<TraceContext>,
    /// Admission timestamp on the telemetry trace clock (0 when disabled);
    /// the worker back-dates the request span to it and derives the
    /// `server.queue_wait` span from it.
    admitted_ns: u64,
    writer: Arc<Mutex<TcpStream>>,
    /// Ids in flight on the job's connection; the worker clears its id
    /// *before* writing the response (once the client has the response it
    /// may legally reuse the id).
    in_flight: Arc<Mutex<HashSet<u32>>>,
    state: Arc<State>,
}

/// A TCP server exposing one gallery shard over the wire protocol.
///
/// `study serve-shard` wraps this in a binary; tests drive it in-process
/// via [`ShardServer::spawn`].
pub struct ShardServer {
    listener: TcpListener,
    index: CandidateIndex,
    telemetry: Telemetry,
    stop: Arc<AtomicBool>,
    skew: Arc<AtomicU64>,
    delay_ms: Arc<AtomicU64>,
    connections: Arc<AtomicUsize>,
    workers: usize,
    queue: usize,
}

/// Handle to a server running on a background thread (see
/// [`ShardServer::spawn`]).
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// Asks the accept loop and every connection thread to wind down.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Stops the server and waits for the accept loop to exit.
    pub fn join(self) {
        self.stop();
        let _ = self.thread.join();
    }
}

impl ShardServer {
    /// Binds a listener (use port 0 for an OS-assigned port) around an
    /// empty index over `matcher` with the default config; the first
    /// enroll batch brings the coordinator's config.
    pub fn bind(matcher: PairTableMatcher, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(ShardServer {
            listener,
            index: CandidateIndex::new(matcher),
            telemetry: Telemetry::disabled(),
            stop: Arc::new(AtomicBool::new(false)),
            skew: Arc::new(AtomicU64::new(0)),
            delay_ms: Arc::new(AtomicU64::new(0)),
            connections: Arc::new(AtomicUsize::new(0)),
            workers: DEFAULT_WORKERS,
            queue: DEFAULT_QUEUE,
        })
    }

    /// Attaches a telemetry handle: the index registers its `index.*`
    /// instruments on it, admission control its `serve.*` instruments, and
    /// [`Frame::Stats`] answers with a snapshot of it. The index keeps its
    /// entries, so this and [`with_index`](Self::with_index) go in either
    /// order.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.index = self.index.with_telemetry(telemetry);
        self.telemetry = telemetry.clone();
        self
    }

    /// Installs a pre-built index in place of the empty one — the
    /// `--gallery-dir` path: `study serve-shard` opens a persisted
    /// gallery via `fp-store` and serves it without a single enroll
    /// round-trip. The index registers its instruments on the attached
    /// telemetry.
    pub fn with_index(mut self, index: CandidateIndex) -> Self {
        self.index = index.with_telemetry(&self.telemetry);
        self
    }

    /// Sizes the worker pool: `workers` threads executing requests,
    /// `queue` slots of admission buffer (the overload watermark — a
    /// request arriving with the queue full is shed with a typed
    /// [`code::OVERLOADED`] frame). Both are clamped to at least 1.
    pub fn with_pool(mut self, workers: usize, queue: usize) -> Self {
        self.workers = workers.max(1);
        self.queue = queue.max(1);
        self
    }

    /// Fault-injection handle for tests: any non-zero word stored here is
    /// XORed into every [`Frame::FingerprintOk`] value this server reports,
    /// simulating a shard whose recorded chain disagrees with what it
    /// actually served (bit rot, version skew, a forged score).
    pub fn skew_fingerprint(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.skew)
    }

    /// Fault-injection handle for tests: any non-zero value stored here
    /// makes every stage-1 and re-rank request sleep that many
    /// milliseconds before touching the index — a deterministically slow
    /// shard, for proving multiplexed correctness under skewed completion
    /// order.
    pub fn delay_stage(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.delay_ms)
    }

    /// Live connection-thread count, as seen by the accept loop's reaping
    /// pass. A churn of short-lived connections must return this to 0.
    pub fn tracked_connections(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.connections)
    }

    /// The bound address (the port to advertise when bound to port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a [`Frame::Shutdown`] arrives (or [`ServerHandle::stop`]
    /// flips the flag). Blocking; each connection gets a reader thread and
    /// all connections share the bounded worker pool.
    pub fn run(self) -> std::io::Result<()> {
        let ShardServer {
            listener,
            index,
            telemetry,
            stop,
            skew,
            delay_ms,
            connections,
            workers,
            queue,
        } = self;
        listener.set_nonblocking(true)?;
        let state = Arc::new(State {
            index: RwLock::new(index),
            stop,
            admission: Admission::new(&telemetry),
            telemetry,
            skew,
            delay_ms,
            connections,
        });

        // The worker pool, shared by every connection. The channel itself
        // is unbounded; boundedness comes from the admission check in
        // `serve_connection` (shedding keeps the bookkeeping exact, which
        // a full `sync_channel` could not).
        let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                std::thread::spawn(move || worker_loop(job_rx))
            })
            .collect();

        let watermark = queue;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !state.stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&state);
                    let job_tx = job_tx.clone();
                    conns.push(std::thread::spawn(move || {
                        serve_connection(stream, state, job_tx, watermark)
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(_) => std::thread::sleep(POLL),
            }
            // Reap finished connection readers so a long-lived server does
            // not accumulate one dead JoinHandle per connection it ever
            // served.
            let mut i = 0;
            while i < conns.len() {
                if conns[i].is_finished() {
                    let _ = conns.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            state.connections.store(conns.len(), Ordering::Relaxed);
        }
        for conn in conns {
            let _ = conn.join();
        }
        state.connections.store(0, Ordering::Relaxed);
        // Readers are gone; dropping the last sender lets the workers
        // drain whatever was queued and exit.
        drop(job_tx);
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }

    /// Runs the server on a background thread, returning a stop/join
    /// handle. Used by in-process tests; the `serve-shard` binary calls
    /// [`run`](Self::run) directly.
    pub fn spawn(self) -> ServerHandle {
        let stop = Arc::clone(&self.stop);
        let thread = std::thread::spawn(move || {
            let _ = self.run();
        });
        ServerHandle { stop, thread }
    }
}

/// Locks a mutex that guards no invariant a panic could break. The server
/// has three: the job queue (held across `recv` alone), a connection's
/// in-flight id set (`insert` / `remove` alone) and its writer (a frame is
/// encoded whole before its first byte is written).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pops jobs until every sender is gone (server shutdown), executing each
/// and answering under its request id. The `Mutex<Receiver>` is the
/// standard shared-consumer pattern: the lock is held across the blocking
/// `recv`, so idle workers queue on the mutex instead of the channel.
fn worker_loop(job_rx: Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = match lock(&job_rx).recv() {
            Ok(job) => job,
            Err(_) => return, // all senders dropped: server is done
        };
        job.state.admission.depth.fetch_sub(1, Ordering::Relaxed);
        let telemetry = job.state.telemetry.clone();
        let dispatched_ns = telemetry.trace_now_ns();
        let queue_wait_ns = dispatched_ns.saturating_sub(job.admitted_ns);
        // A sampled trace context opens the adoption seam: the request gets
        // a root span back-dated to admission (carrying the coordinator's
        // issuing span id as `remote_parent`, which is what lets the merge
        // stitch the two process-local trees), plus a retroactive
        // `server.queue_wait` child covering admission→dispatch.
        let sampled = job.trace.filter(|t| t.sampled && telemetry.is_enabled());
        let span = sampled.map(|ctx| {
            let mut span = telemetry.detached_span(
                "server.request",
                &[
                    ("trace_id", ctx.trace_id.to_string()),
                    (REMOTE_PARENT_ATTR, ctx.parent_span_id.to_string()),
                    ("kind", job.request.kind().to_string()),
                ],
            );
            span.set_parent(None); // a root of this process's local tree
            span.set_start_ns(job.admitted_ns);
            let mut queue_wait = telemetry.detached_span("server.queue_wait", &[]);
            queue_wait.set_parent(span.id());
            queue_wait.set_start_ns(job.admitted_ns);
            queue_wait.finish();
            span
        });
        // Adopt the request span so the spans the index opens while
        // handling the request nest under it.
        let adopted = span
            .as_ref()
            .and_then(|s| s.id())
            .map(TraceCtx::adopted)
            .unwrap_or_default();
        let ctx_guard = telemetry.in_ctx(&adopted);
        let response = handle_request(job.request, &job.state).unwrap_or_else(|error| error);
        drop(ctx_guard);
        let work_ns = telemetry.trace_now_ns().saturating_sub(dispatched_ns);
        if let Some(span) = span {
            span.finish();
        }
        // Echo the queue-wait/work split on sampled stage responses.
        let timing = Some(ServerTiming {
            queue_wait_ns,
            work_ns,
        });
        let response = match response {
            Frame::StageOneOk { scores, .. } if sampled.is_some() => {
                Frame::StageOneOk { scores, timing }
            }
            Frame::RerankOk { candidates, .. } if sampled.is_some() => {
                Frame::RerankOk { candidates, timing }
            }
            other => other,
        };
        // Release the id before the response can reach the client: once
        // the client sees the answer it may legally reuse the id.
        lock(&job.in_flight).remove(&job.request_id);
        send_response(&mut *lock(&job.writer), job.request_id, &response);
    }
}

/// Writes a worker's answer. A response too large for one frame is
/// refused before a byte is written, and the client gets a typed
/// `INTERNAL` error naming its size instead. Any other failed write means
/// the client is gone; its reader thread notices.
fn send_response(writer: &mut impl Write, request_id: u32, response: &Frame) {
    if let Err(e) = write_frame_with(writer, request_id, response) {
        if e.kind() == std::io::ErrorKind::InvalidInput {
            let refusal = Frame::Error {
                code: code::INTERNAL,
                detail: e.to_string(),
            };
            let _ = write_frame_with(writer, request_id, &refusal);
        }
    }
}

/// Reads frames off one client connection until it closes, errors, or the
/// server stops, dispatching each into the worker pool (or shedding it
/// with [`code::OVERLOADED`] when the pool's queue is at the watermark).
/// Peeks with a short read deadline so the stop flag is honoured on idle
/// connections, then reads whole frames under a longer deadline.
fn serve_connection(stream: TcpStream, state: Arc<State>, job_tx: Sender<Job>, watermark: usize) {
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let in_flight: Arc<Mutex<HashSet<u32>>> = Arc::new(Mutex::new(HashSet::new()));
    // Best effort: a peer that cannot be answered is about to be dropped.
    let answer = |id: u32, frame: &Frame| {
        let _ = write_frame_with(&mut *lock(&writer), id, frame);
    };
    let mut stream = stream;
    let mut peek = [0u8; 1];
    loop {
        if state.stop.load(Ordering::Relaxed) {
            return;
        }
        let _ = stream.set_read_timeout(Some(POLL));
        match stream.peek(&mut peek) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => return,
        }
        let _ = stream.set_read_timeout(Some(FRAME_DEADLINE));
        let (request_id, request) = match read_frame_with(&mut stream) {
            Ok((id, frame, _bytes)) => (id, frame),
            Err(WireError::Io(_)) | Err(WireError::Truncated { .. }) => return,
            Err(e) => {
                // Decodable-but-invalid bytes (a version mismatch
                // included): answer with a typed error. Framing may be out
                // of sync afterwards, so close.
                answer(
                    0,
                    &Frame::Error {
                        code: code::BAD_REQUEST,
                        detail: e.to_string(),
                    },
                );
                return;
            }
        };
        // Shutdown is handled inline: it must work even when the pool is
        // saturated, and it ends this connection anyway.
        if matches!(request, Frame::Shutdown) {
            answer(request_id, &Frame::ShutdownOk);
            state.stop.store(true, Ordering::Relaxed);
            return;
        }
        // A request id already in flight on this connection cannot be
        // dispatched — its response would be indistinguishable from the
        // first one's. Typed error, connection stays up.
        if !lock(&in_flight).insert(request_id) {
            answer(
                request_id,
                &Frame::Error {
                    code: code::BAD_REQUEST,
                    detail: format!("request id {request_id} is already in flight"),
                },
            );
            continue;
        }
        state.admission.offered.incr();
        let depth_before = state.admission.depth.fetch_add(1, Ordering::Relaxed);
        state.admission.queue_depth.record(depth_before as u64);
        if depth_before >= watermark {
            // Admission control: shed *now*, loudly, with a typed frame —
            // the caller learns within its deadline instead of queueing
            // into the dark.
            state.admission.depth.fetch_sub(1, Ordering::Relaxed);
            state.admission.overloaded.incr();
            lock(&in_flight).remove(&request_id);
            answer(
                request_id,
                &Frame::Error {
                    code: code::OVERLOADED,
                    detail: format!("admission queue at watermark ({watermark}); retry later"),
                },
            );
            continue;
        }
        // Counted *before* the send so any later snapshot — including one
        // taken by the worker answering this very request — already sees
        // it: offered == accepted + overloaded holds at every quiescent
        // point.
        state.admission.accepted.incr();
        let job = Job {
            request_id,
            trace: request_trace(&request),
            admitted_ns: state.telemetry.trace_now_ns(),
            request,
            writer: Arc::clone(&writer),
            in_flight: Arc::clone(&in_flight),
            state: Arc::clone(&state),
        };
        if job_tx.send(job).is_err() {
            return; // server is down
        }
    }
}

/// Executes one request: `Ok` holds the response, `Err` the typed error
/// frame that answers it instead.
fn handle_request(request: Frame, state: &State) -> Result<Frame, Frame> {
    match request {
        Frame::EnrollBatch {
            config,
            templates,
            trace: _,
        } => enroll(config, templates, state),
        Frame::StageOne { probe, trace: _ } => {
            stage_delay(state);
            let index = state.index.read().map_err(poisoned)?;
            stage_answer(index.stage_one(&probe), |scores| Frame::StageOneOk {
                scores,
                timing: None,
            })
        }
        Frame::Rerank {
            probe,
            selected,
            trace: _,
        } => {
            stage_delay(state);
            let index = state.index.read().map_err(poisoned)?;
            let len = index.len() as u32;
            if let Some(&bad) = selected.iter().find(|&&id| id >= len) {
                return Err(Frame::Error {
                    code: code::BAD_REQUEST,
                    detail: format!("re-rank id {bad} out of range (shard holds {len})"),
                });
            }
            stage_answer(index.stage_two(&probe, &selected), |candidates| {
                Frame::RerankOk {
                    candidates,
                    timing: None,
                }
            })
        }
        Frame::Health => Ok(Frame::HealthOk {
            shard_len: state.index.read().map_err(poisoned)?.len() as u32,
        }),
        Frame::Fingerprint => {
            let snapshot = state.index.read().map_err(poisoned)?.part_fingerprint();
            Ok(Frame::FingerprintOk {
                value: snapshot.value ^ state.skew.load(Ordering::Relaxed),
                searches: snapshot.searches,
            })
        }
        Frame::Stats => {
            let snapshot = state.telemetry.snapshot();
            Ok(Frame::StatsOk {
                counters: snapshot.counters.into_iter().collect(),
                durations: snapshot.durations.into_iter().collect(),
                values: snapshot.values.into_iter().collect(),
            })
        }
        Frame::Trace { since_span_id } => {
            // Read the clock while building the response: the coordinator
            // brackets the RPC with its own clock reads and estimates the
            // offset between the two trace epochs from the midpoint.
            let now_ns = state.telemetry.trace_now_ns();
            let snapshot = state.telemetry.trace_snapshot();
            let spans = snapshot
                .spans
                .into_iter()
                .filter(|s| s.id >= since_span_id)
                .collect();
            Ok(Frame::TraceOk {
                now_ns,
                dropped_spans: snapshot.dropped_spans,
                spans,
            })
        }
        Frame::Shutdown => Ok(Frame::ShutdownOk),
        // Response frames arriving as requests are a client bug.
        other => Err(Frame::Error {
            code: code::BAD_REQUEST,
            detail: format!("frame '{}' is not a request", other.kind()),
        }),
    }
}

/// The answer to a request that finds the index lock poisoned (by a panic
/// inside an earlier enrollment): a typed `INTERNAL` frame, not a second
/// panic.
fn poisoned<T>(_: PoisonError<T>) -> Frame {
    Frame::Error {
        code: code::INTERNAL,
        detail: "shard index lock poisoned by an earlier panic".to_string(),
    }
}

/// A stage's response frame: `ok` of its result, or an `INTERNAL` error.
fn stage_answer<T>(
    result: Result<T, ShardError>,
    ok: impl FnOnce(T) -> Frame,
) -> Result<Frame, Frame> {
    result.map(ok).map_err(|e| Frame::Error {
        code: code::INTERNAL,
        detail: e.to_string(),
    })
}

/// The trace context a request frame carried, if any.
fn request_trace(request: &Frame) -> Option<TraceContext> {
    match request {
        Frame::EnrollBatch { trace, .. }
        | Frame::StageOne { trace, .. }
        | Frame::Rerank { trace, .. } => *trace,
        _ => None,
    }
}

/// Applies the injected-slowness fault hook (no-op when unset).
fn stage_delay(state: &State) {
    let ms = state.delay_ms.load(Ordering::Relaxed);
    if ms > 0 {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

fn enroll(config: IndexConfig, templates: Vec<Template>, state: &State) -> Result<Frame, Frame> {
    let mut index = state.index.write().map_err(poisoned)?;
    if index.is_empty() {
        if *index.config() != config {
            // Rebuilding on config adoption resets the part-fingerprint
            // chain too — correct, since the new chain must start from the
            // adopted config's base. Re-attach the telemetry handle the
            // rebuild would otherwise lose. The wire config is untrusted:
            // a structurally invalid one is a typed error frame, never a
            // server panic.
            let rebuilt = match CandidateIndex::try_with_config(index.matcher().clone(), config) {
                Ok(rebuilt) => rebuilt,
                Err(err) => {
                    return Err(Frame::Error {
                        code: code::CONFIG_MISMATCH,
                        detail: format!("coordinator sent invalid config: {err}"),
                    })
                }
            };
            *index = rebuilt.with_telemetry(&state.telemetry);
        }
    } else if *index.config() != config {
        return Err(Frame::Error {
            code: code::CONFIG_MISMATCH,
            detail: format!(
                "shard enrolled under {:?}, coordinator sent {:?}",
                index.config(),
                config
            ),
        });
    }
    index.enroll_all(&templates);
    Ok(Frame::EnrollOk {
        enrolled: templates.len() as u32,
        shard_len: index.len() as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_frame_with, MAX_PAYLOAD};

    /// A response one byte past the payload cap (a shard's `StageOneOk`
    /// over ~4 M entries is one) writes nothing and is answered with a
    /// typed error naming its size; the worker does not panic.
    #[test]
    fn an_oversize_response_is_answered_with_an_error_frame() {
        let response = Frame::Error {
            code: code::BAD_REQUEST,
            detail: "x".repeat(MAX_PAYLOAD as usize),
        };
        let mut wire = Vec::new();
        let refused = write_frame_with(&mut wire, 9, &response).unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
        assert!(wire.is_empty(), "nothing of a refused frame is written");

        send_response(&mut wire, 9, &response);
        let (id, frame) = decode_frame_with(&wire).unwrap();
        assert_eq!(id, 9);
        match frame {
            Frame::Error { code: c, detail } => {
                assert_eq!(c, code::INTERNAL);
                let size = (MAX_PAYLOAD as usize + 5).to_string();
                assert!(detail.contains(&size), "detail names the size: {detail}");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }
}
