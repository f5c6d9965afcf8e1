//! Pre-registered telemetry instruments for the candidate index.
//!
//! Mirrors the matcher-metrics pattern in `fp-match`: one bundle of
//! counters and histograms registered via `with_telemetry`, every record a
//! relaxed atomic op, and the `Default` bundle fully inert. Counters and
//! work-size histograms measure *work* (pure functions of the enrolled
//! templates and probes, identical across same-seed runs); the duration
//! histograms measure wall time and vary with the machine.
//!
//! Work is metered where it is done: the [`crate::CandidateIndex`] that
//! runs a stage-1 or stage-2 pass records it, whichever route reached the
//! pass — a top-level search or the [`crate::ShardBackend`] calls a shard
//! process serves — so a shard process's `index.search.*` counters show
//! its share of every search.

use fp_telemetry::{Counter, DurationHistogram, Telemetry, ValueHistogram};

/// Instruments for [`crate::CandidateIndex`].
#[derive(Debug, Clone, Default)]
pub struct IndexMetrics {
    /// `index.enrolled` — gallery templates enrolled.
    pub(crate) enrolled: Counter,
    /// `index.searches` — 1:N searches served.
    pub(crate) searches: Counter,
    /// `index.search.hamming_ops` — packed-`u64` Hamming word comparisons
    /// performed by the stage-1 kernel (the full cylinder-pair x word
    /// fan-out, not one op per gallery entry).
    pub(crate) hamming_ops: Counter,
    /// `index.search.bucket_hits` — geometric-hash votes cast (weighted
    /// bucket hits, not ids read).
    pub(crate) bucket_hits: Counter,
    /// `index.search.rerank_comparisons` — exact matcher comparisons spent
    /// re-ranking shortlists.
    pub(crate) rerank_comparisons: Counter,
    /// `index.search.candidates_pruned` — gallery entries excluded from
    /// exact re-ranking by the prefilter stages. Provisional between an
    /// index's two passes of one search: stage 1 counts every entry it
    /// scored, stage 2 takes the re-ranked ones back out — so an index
    /// whose slice of the selection came back empty, and which therefore
    /// never hears about stage 2, is already right.
    pub(crate) candidates_pruned: Counter,
    /// `index.search.shortlist` — entries re-ranked per stage-2 pass.
    pub(crate) shortlist: ValueHistogram,
    /// `index.search.hamming_ops_per_search` — stage-1 Hamming word
    /// comparisons per probe. The global counter hides outliers; this
    /// distribution shows when one probe paid far more than the median.
    pub(crate) hamming_per_search: ValueHistogram,
    /// `index.search.bucket_hits_per_search` — geometric-hash votes cast
    /// per probe (shortlist-quality outliers per search).
    pub(crate) bucket_hits_per_search: ValueHistogram,
    /// `index.build.seconds` — wall time per enrolled template, in both the
    /// sequential and the batch path (the batch path records each
    /// template's preparation time individually, so percentiles are not
    /// skewed by whole-batch samples).
    pub(crate) build_time: DurationHistogram,
    /// `index.build.batch_seconds` — wall time of each whole
    /// `enroll_all` batch.
    pub(crate) build_batch_time: DurationHistogram,
    /// `index.search.seconds` — wall time per search.
    pub(crate) search_time: DurationHistogram,
    /// Handle for flight-recorder spans around enroll/search batches.
    pub(crate) telemetry: Telemetry,
}

impl IndexMetrics {
    /// Registers the index instruments on `telemetry` under the canonical
    /// `index` prefix.
    pub fn new(telemetry: &Telemetry) -> IndexMetrics {
        IndexMetrics {
            enrolled: telemetry.counter("index.enrolled"),
            searches: telemetry.counter("index.searches"),
            hamming_ops: telemetry.counter("index.search.hamming_ops"),
            bucket_hits: telemetry.counter("index.search.bucket_hits"),
            rerank_comparisons: telemetry.counter("index.search.rerank_comparisons"),
            candidates_pruned: telemetry.counter("index.search.candidates_pruned"),
            shortlist: telemetry.value("index.search.shortlist"),
            hamming_per_search: telemetry.value("index.search.hamming_ops_per_search"),
            bucket_hits_per_search: telemetry.value("index.search.bucket_hits_per_search"),
            build_time: telemetry.duration("index.build.seconds"),
            build_batch_time: telemetry.duration("index.build.batch_seconds"),
            search_time: telemetry.duration("index.search.seconds"),
            telemetry: telemetry.clone(),
        }
    }

    /// One stage-1 pass: a search served, `scored` entries scored (all
    /// provisionally pruned), and the two channels' work.
    pub(crate) fn record_stage_one(&self, scored: usize, bucket_hits: u64, hamming_word_ops: u64) {
        self.searches.incr();
        self.bucket_hits.add(bucket_hits);
        self.bucket_hits_per_search.record(bucket_hits);
        self.hamming_ops.add(hamming_word_ops);
        self.hamming_per_search.record(hamming_word_ops);
        self.candidates_pruned.add(scored as u64);
    }

    /// One stage-2 pass: `reranked` of the entries the matching stage-1
    /// pass scored were compared exactly, so they were not pruned after
    /// all.
    pub(crate) fn record_stage_two(&self, reranked: usize) {
        self.rerank_comparisons.add(reranked as u64);
        self.candidates_pruned.sub(reranked as u64);
        self.shortlist.record(reranked as u64);
    }
}
