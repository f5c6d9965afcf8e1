//! The cross-process score seam: [`ShardBackend`].
//!
//! The one seam along which a two-stage 1:N search can be split without
//! changing a single byte of the result (shard.rs module docs) is **per-entry stage-1 channel scores** plus
//! **per-entry exact stage-2 scores** — both pure functions of (probe,
//! entry), bit-identical whatever gallery the entry shares. This module
//! names that seam as a trait, so anything that can answer the two calls
//! for its slice of the gallery is a shard:
//!
//! * [`CandidateIndex`] implements it directly — the in-process shard;
//! * `fp-serve`'s `RemoteShard` implements it over a length-prefixed
//!   binary wire protocol — the cross-process shard.
//!
//! Everything above the seam (stitching shard score arrays into global
//! ones, the single global best-rank fusion, dealing the selected ids back
//! to their owning shards, and the final total-order merge) is
//! [`crate::shard::search_spine`]; the reference driver
//! [`search_backends`] is that spine over sequential trait calls.
//!
//! In-process backends cannot fail, so their impl is infallible in
//! practice; remote backends surface [`ShardError`] — a search over a dead
//! shard must fail loudly, never silently return a truncated candidate
//! list (a truncated list would look like a clean miss and quietly shift
//! the study's rank-1/FNMR numbers).

use std::fmt;

use fp_core::template::Template;
use fp_match::PreparableMatcher;

use crate::index::{Candidate, CandidateIndex, StageOneScores};
use crate::lanes;

/// Why a shard backend could not serve its part of a search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The shard cannot be reached: dead process, refused or reset
    /// connection, or an exhausted retry budget. The whole search fails —
    /// results must never silently omit a shard's gallery slice.
    Unavailable {
        /// Index of the failing shard.
        shard: usize,
        /// Human-readable transport diagnostics (last error, attempts).
        detail: String,
    },
    /// The shard answered, but with something protocol-invalid: a frame of
    /// the wrong type, a score array of the wrong length, or a typed error
    /// frame. Retrying cannot help; the search fails immediately.
    Protocol {
        /// Index of the offending shard.
        shard: usize,
        /// What was wrong with the reply.
        detail: String,
    },
    /// The shard's scraped run-fingerprint chain disagrees with the
    /// coordinator's mirror of the responses it actually received: the
    /// shard computed (or recorded) something different from what it
    /// served. Behavioral drift — corrupted state, a version skew, a
    /// forged score — that a candidate-list diff could only catch by
    /// re-scoring the gallery.
    FingerprintDrift {
        /// Index of the drifting shard.
        shard: usize,
        /// The coordinator's mirror chain value.
        expected: u64,
        /// The value the shard reported.
        reported: u64,
    },
}

impl ShardError {
    /// The shard the error originated from.
    pub fn shard(&self) -> usize {
        match self {
            ShardError::Unavailable { shard, .. }
            | ShardError::Protocol { shard, .. }
            | ShardError::FingerprintDrift { shard, .. } => *shard,
        }
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Unavailable { shard, detail } => {
                write!(f, "shard {shard} unavailable: {detail}")
            }
            ShardError::Protocol { shard, detail } => {
                write!(f, "shard {shard} protocol error: {detail}")
            }
            ShardError::FingerprintDrift {
                shard,
                expected,
                reported,
            } => {
                write!(
                    f,
                    "shard {shard} fingerprint drift: expected {expected:016x}, \
                     shard reported {reported:016x}"
                )
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// One shard of a sharded 1:N gallery, behind any transport.
///
/// Both methods take the raw probe [`Template`]: probe-side features are
/// pure functions of (probe, config), so a remote shard recomputing them
/// from the template sees bit-identical features to an in-process shard
/// handed a precomputed copy. Local ids are dense per shard; callers own
/// the `global = local * shards + shard` mapping.
pub trait ShardBackend {
    /// Number of templates enrolled on this shard.
    fn shard_len(&self) -> usize;

    /// Stage 1: per-entry channel scores of this shard's gallery against
    /// `probe` (shard-invariant — see the shard.rs module docs).
    fn stage_one(&self, probe: &Template) -> Result<StageOneScores, ShardError>;

    /// Stage 2: exact matcher scores for the selected **local** ids, in
    /// selection order (callers globalize the ids and sort).
    fn stage_two(
        &self,
        probe: &Template,
        selected_local: &[u32],
    ) -> Result<Vec<Candidate>, ShardError>;
}

impl<M: PreparableMatcher> ShardBackend for CandidateIndex<M> {
    fn shard_len(&self) -> usize {
        self.len()
    }

    fn stage_one(&self, probe: &Template) -> Result<StageOneScores, ShardError> {
        Ok(self.stage1(&self.probe_features(probe), lanes::cores()))
    }

    fn stage_two(
        &self,
        probe: &Template,
        selected_local: &[u32],
    ) -> Result<Vec<Candidate>, ShardError> {
        Ok(self.serve_part(selected_local, &self.prepare_probe(probe), lanes::cores()))
    }
}

/// The reference driver: a full two-stage search over any set of shard
/// backends, byte-identical to [`CandidateIndex::search_with_budget`] on
/// the round-robin-concatenated gallery.
///
/// This is [`search_spine`](crate::shard::search_spine) with the plainest
/// possible fan-out — one trait call after another, no threads of its own
/// (an in-process backend splits each call into lanes inside itself), no
/// telemetry, no run fingerprint — so tests can pin transport-independent
/// correctness and new transports have a model to diff against.
///
/// Backends whose sizes are not a round-robin deal of their total
/// ([`check_deal`](crate::shard::check_deal)) are refused with a
/// [`ShardError::Protocol`] before any stage runs.
pub fn search_backends<B: ShardBackend>(
    backends: &[B],
    probe: &Template,
    shortlist: usize,
) -> Result<crate::SearchResult, ShardError> {
    assert!(!backends.is_empty(), "need at least one shard backend");
    let lens: Vec<usize> = backends.iter().map(|b| b.shard_len()).collect();
    crate::shard::search_spine(
        backends.len(),
        crate::shard::check_deal(&lens)?,
        shortlist,
        None,
        || backends.iter().map(|b| b.stage_one(probe)).collect(),
        |jobs| {
            jobs.iter()
                .map(|(k, selected)| backends[*k].stage_two(probe, selected))
                .collect()
        },
    )
}
