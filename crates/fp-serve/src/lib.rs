//! # fp-serve
//!
//! Cross-process sharded 1:N search: the scaling seam of `fp-index` (stage-1
//! channel scores in, one global fusion, exact per-shard re-rank out)
//! stretched over a process boundary, byte-identical to the in-process
//! result.
//!
//! The crate has four layers:
//!
//! * [`wire`] — a std-only, versioned, length-prefixed binary protocol
//!   (magic + version + frame type + request id + CRC32) with explicit
//!   little-endian encode/decode for templates, stage-1 score arrays and
//!   re-ranked candidates. Every `f64` travels as its IEEE-754 bit pattern,
//!   so remote scores are **bit-exact** copies of what the shard computed.
//!   No serde. The `request_id` header field lets many requests ride one
//!   connection concurrently.
//! * [`mux`] — [`mux::MuxConn`]: the client half of multiplexing. Callers
//!   `begin` requests (fresh id, frame written) and `finish` them later;
//!   any number of begin/finish pairs from any number of threads overlap
//!   on one socket, and responses rejoin their callers by id no matter
//!   what order the server answers in.
//! * [`server`] — [`ShardServer`]: one process owning one
//!   [`fp_index::CandidateIndex`] behind a TCP listener. Each connection
//!   gets a reader thread; requests execute on a bounded server-wide
//!   worker pool with admission control — past the queue watermark a
//!   request is shed immediately with a typed `OVERLOADED` frame, never
//!   queued into the dark.
//! * [`coordinator`] — [`Coordinator`]: holds one multiplexed connection
//!   per shard, implements the same [`fp_index::ShardBackend`] seam as an
//!   in-process shard, pipelines stage-1 across shards (every request on
//!   the wire before the first response is awaited), runs the single
//!   global best-rank fusion locally, pipelines per-shard re-rank slices,
//!   and S-way merges under the same strict `(score desc, id asc)` order
//!   as [`fp_index::search_spine`]. Per-request deadlines, bounded
//!   deterministic retry with exponential backoff, and typed
//!   [`fp_index::ShardError`]s: a dead shard fails the search loudly —
//!   truncated results are never returned. `&self` searches are
//!   thread-safe, so N client threads can drive one coordinator at once.
//!
//! [`proc`] rounds it out with child-process plumbing (`spawn_shard` /
//! [`proc::ShardChild`]) used by `study ext-scaling --remote-shards N`.
//!
//! ## Why byte-identical is cheap here
//!
//! Stage-1 channel scores are pure functions of (probe, entry, config);
//! features are recomputed shard-side from the probe template, and both
//! sides run the same code on the same bits. The only cross-shard
//! computation — best-rank fusion over the stitched global score arrays and
//! the final merge — happens exactly once, on the coordinator, using the
//! very same `fp_index::shard` helpers the in-process
//! [`fp_index::search_backends`] uses. Equality of results is therefore structural, not a numerical
//! accident; `study check-serve` audits it end-to-end anyway.

pub mod coordinator;
pub mod metrics;
pub mod mux;
pub mod proc;
pub mod server;
pub mod slowlog;
pub mod wire;

pub use coordinator::{Coordinator, RemoteShard, RemoteTrace, RetryPolicy};
pub use metrics::ServeMetrics;
pub use mux::{MuxConn, MuxError, Ticket};
pub use server::ShardServer;
pub use slowlog::{ShardBreakdown, SlowLog, SlowLogEntry};
pub use wire::{decode_frame, encode_frame, Frame, ServerTiming, TraceContext, WireError};
