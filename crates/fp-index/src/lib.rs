//! # fp-index
//!
//! Candidate indexing for 1:N identification at full-cohort scale.
//!
//! The study's identification experiments must search a probe against every
//! enrolled subject. Brute force is O(gallery) exact comparisons per probe —
//! the scaling wall that capped the original closed-set experiment at 150 of
//! the 494 subjects. This crate removes the wall with a classic two-stage
//! design:
//!
//! 1. **Shortlist (cheap, approximate).** Two independent feature channels,
//!    both derived from structures `fp-match` already computes:
//!    * **per-minutia binarized-MCC cylinder codes** — each reliable
//!      minutia's cylinder is binarized at its own mean into a packed `u64`
//!      code, and templates are compared by local similarity sort over
//!      per-cylinder Hamming matches ([`CylinderCodes`]);
//!    * a **pair-table geometric hash** — every gallery pair-table entry is
//!      registered under its quantized `(distance, beta1, beta2)` key, and a
//!      probe accumulates compatibility votes by bucket lookup, never
//!      touching individual gallery templates.
//!
//!    Each channel ranks the gallery independently; best-rank fusion
//!    (an entry's fused key is the better of its two channel ranks) selects
//!    the top-K shortlist, so a genuine mate only needs to surface in one
//!    channel. Both channels are deliberately robust to the study's hardest
//!    probe device — ink-card scans whose spurious extra minutiae would
//!    drown any pooled whole-template descriptor or max-normalized vote.
//! 2. **Re-rank (exact).** The shortlist is scored with the pair-table
//!    matcher's [`fp_match::PreparableMatcher::compare_prepared`], so every
//!    reported score equals what brute force would produce. With
//!    `shortlist >= gallery` the result is *identical* to brute force — the
//!    exactness property the test harness pins down. One pair-table
//!    matcher serves both stages: a template or probe is prepared once.
//!
//! Recall is the only approximation: a genuine mate can fail to make the
//! shortlist. The property tests require shortlist recall ≥ 0.98 at the
//! default budget on seeded data; `study ext-scaling` reports it per run.
//!
//! A gallery can also be split round-robin across S shards and searched
//! byte-identically to the unsharded index at the same total budget
//! (per-entry stage-1 scores are shard-invariant; fusion runs once,
//! globally — see `shard.rs` for the argument). The seam is named by the
//! [`ShardBackend`] trait (`backend.rs`): anything that can answer stage-1
//! scores and stage-2 exact scores for its slice of the gallery — an
//! in-process [`CandidateIndex`] or `fp-serve`'s remote shard connection —
//! is a shard. The sequence above the seam is written once, in
//! [`search_spine`]: the unsharded index, the reference driver
//! [`search_backends`] and `fp-serve`'s coordinator all run it and differ
//! only in how they fan the two stages out, so they produce the same
//! bytes.
//!
//! A table record of a store-opened gallery that rotted after the open is
//! a typed [`TableLoadError`] on the shard route ([`ShardError::Table`]);
//! only the in-process [`CandidateIndex::search`] panics with its text.
//!
//! ```
//! use fp_index::{CandidateIndex, IndexConfig};
//! use fp_match::PairTableMatcher;
//! use fp_core::template::Template;
//!
//! # fn main() -> Result<(), fp_core::Error> {
//! let mut index = CandidateIndex::new(PairTableMatcher::default());
//! let empty = Template::builder(500.0).build()?;
//! index.enroll(&empty);
//! let result = index.search(&empty);
//! assert_eq!(result.gallery_len(), 1);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arena;
pub mod backend;
pub mod config;
pub mod geohash;
pub mod index;
mod lanes;
pub mod metrics;
pub mod shard;
pub mod signature;

pub use arena::{lane_body_name, CodeArena, LANE_WORDS};
pub use backend::{search_backends, ShardBackend, ShardError};
pub use config::{IndexConfig, IndexConfigError};
pub use geohash::FlatBuckets;
pub use index::TableLoadError;
pub use index::{Candidate, CandidateIndex, SearchResult, StageOneScores, TableLoader};
#[doc(hidden)]
pub use lanes::MIN_LANE_ENTRIES;
pub use metrics::IndexMetrics;
pub use shard::search_spine;
pub use signature::{CodeView, CylinderCodes, Stage1Scratch};
