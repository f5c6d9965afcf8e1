//! The two-stage candidate index.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use fp_core::template::Template;
use fp_core::MatchScore;
use fp_match::{MccMatcher, PairTableMatcher, PreparableMatcher, PreparedPairTable};
use fp_telemetry::{
    FingerprintChain, FingerprintSnapshot, Fingerprinted, RunFingerprint, Telemetry,
};

use crate::arena::CodeArena;
use crate::config::{IndexConfig, IndexConfigError};
use crate::geohash::{BucketIndex, FlatBuckets};
use crate::lanes;
use crate::metrics::IndexMetrics;
use crate::shard::search_spine;
use crate::signature::{CylinderCodes, Stage1Scratch};

/// One enrolled gallery template. The entry's binarized cylinder codes do
/// not live here: they are packed into the index's shared [`CodeArena`]
/// at the same dense id, so stage-1 streams one contiguous slab instead of
/// chasing per-entry allocations.
#[derive(Debug, Clone)]
struct GalleryEntry {
    /// The entry's pair table. Enrollment fills the slot at construction;
    /// a store open leaves it empty for the index's [`TableLoader`] to
    /// fill on first stage-2 touch. Only shortlisted entries are ever
    /// re-ranked, so an opened gallery decodes a handful of tables per
    /// search instead of all of them at open — the decoded value is
    /// bit-identical to the enrolled one, so searches are too.
    prepared: OnceLock<PreparedPairTable>,
    /// The table's pair-feature count: the vote-normalization denominator.
    pair_count: u32,
}

/// A table a [`TableLoader`] could not produce: the entry's record failed
/// to read, check or decode after the gallery was opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableLoadError {
    /// The segment holding the record (`fp-store`: `segment <seq> (<file>)`).
    pub segment: String,
    /// The entry's index within that segment (not its dense gallery id).
    pub entry: u32,
    /// What failed, and why.
    pub detail: String,
}

impl std::fmt::Display for TableLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let TableLoadError {
            segment,
            entry,
            detail,
        } = self;
        write!(f, "{segment}: entry {entry} table {detail}")
    }
}

impl std::error::Error for TableLoadError {}

/// Demand-loader for a store-opened index's entries: maps a dense gallery
/// id to its pair table (`fp-store` reads, checksums, and decodes the
/// entry's table record from its open segment file), or says which record
/// failed. Must be pure — the value is cached in the entry's slot and must
/// equal what enrollment would have produced, bit for bit.
#[derive(Clone)]
pub struct TableLoader(Arc<dyn Fn(u32) -> Result<PreparedPairTable, TableLoadError> + Send + Sync>);

impl TableLoader {
    /// Wraps a demand-load function.
    pub fn new(
        load: impl Fn(u32) -> Result<PreparedPairTable, TableLoadError> + Send + Sync + 'static,
    ) -> TableLoader {
        TableLoader(Arc::new(load))
    }
}

impl std::fmt::Debug for TableLoader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TableLoader")
    }
}

/// Everything one template contributes at enrollment, prepared off the
/// index (possibly on a worker thread) and committed by `insert` in id
/// order: the entry itself, the geometric-hash bucket key of each of its
/// pair features, and the cylinder codes destined for the arena.
struct PreparedEnrollment {
    entry: GalleryEntry,
    keys: Vec<u64>,
    codes: CylinderCodes,
}

/// One exactly-scored candidate of a search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The gallery id assigned at enrollment (dense, in enrollment order).
    pub id: u32,
    /// The exact matcher score against the probe.
    pub score: MatchScore,
}

impl Fingerprinted for Candidate {
    /// `(id, score)` — the score as raw `f64` bits, so a single flipped
    /// mantissa bit changes the fingerprint.
    fn fold_into(&self, chain: &mut FingerprintChain) {
        chain.fold_u64(u64::from(self.id));
        chain.fold_f64(self.score.value());
    }
}

/// The outcome of one 1:N search: the shortlist, re-ranked exactly.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Shortlisted candidates, sorted by exact score descending (ties by id
    /// ascending, so results are fully deterministic).
    candidates: Vec<Candidate>,
    gallery_len: usize,
}

impl SearchResult {
    /// Assembles a result from an already-sorted candidate list (used by
    /// the search spine's merge, which produces the same
    /// `(score desc, id asc)` order by construction — callers are
    /// responsible for that invariant).
    pub fn from_parts(candidates: Vec<Candidate>, gallery_len: usize) -> SearchResult {
        SearchResult {
            candidates,
            gallery_len,
        }
    }

    /// The re-ranked shortlist, best candidate first.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// The best candidate, if the gallery was non-empty.
    pub fn best(&self) -> Option<&Candidate> {
        self.candidates.first()
    }

    /// Number of gallery entries at search time.
    pub fn gallery_len(&self) -> usize {
        self.gallery_len
    }

    /// Number of gallery entries the prefilter excluded from exact scoring.
    pub fn pruned(&self) -> usize {
        self.gallery_len - self.candidates.len()
    }

    /// Rank of gallery entry `id` among the exactly-scored candidates,
    /// 1-based, with the same pessimistic tie handling as
    /// `fp_stats::cmc::genuine_rank` (tied impostors rank ahead). `None`
    /// when `id` did not make the shortlist — an identification miss.
    pub fn genuine_rank(&self, id: u32) -> Option<usize> {
        let own = self
            .candidates
            .iter()
            .find(|c| c.id == id)
            .map(|c| c.score)?;
        Some(
            1 + self
                .candidates
                .iter()
                .filter(|c| c.id != id && c.score >= own)
                .count(),
        )
    }
}

impl Fingerprinted for SearchResult {
    /// The canonical per-search fold: gallery size, shortlist length, then
    /// every candidate as `(id, score bits, rank)` in global-fusion order
    /// (score desc, id asc). Sharded and unsharded searches produce the
    /// same merged list, so they fold identically.
    fn fold_into(&self, chain: &mut FingerprintChain) {
        chain.fold_u64(self.gallery_len as u64);
        chain.fold_u64(self.candidates.len() as u64);
        for (rank, candidate) in self.candidates.iter().enumerate() {
            candidate.fold_into(chain);
            chain.fold_u64(rank as u64);
        }
    }
}

/// The probe-side features of one search, computed once per probe: its
/// pair table (whose features stage 1 hashes and which stage 2 scores) and
/// its binarized cylinder codes. The features depend only on the probe and
/// the (shard-invariant) matcher and extraction configs, so every shard
/// computing them sees bit-identical probe features.
pub(crate) struct ProbeFeatures {
    table: PreparedPairTable,
    codes: CylinderCodes,
}

/// Per-entry stage-1 channel scores over one (sub)gallery, plus the work
/// the pass performed. Both score vectors are *pure per-entry functions* of
/// (probe, entry): an entry's vote score counts only its own registered
/// pair features against the probe, and its code score compares only its
/// own cylinders — neither depends on which other entries share the
/// gallery. This is the property that makes sharded search exact: scores
/// computed shard-locally are bit-identical to the unsharded ones —
/// whether the shard lives in this process or answers over `fp-serve`'s
/// wire protocol, which is why this struct is public: it *is* the
/// cross-process score seam.
#[derive(Debug, Clone, PartialEq)]
pub struct StageOneScores {
    /// Min-support-normalized geometric-hash votes per entry.
    pub vote_scores: Vec<f64>,
    /// Local-similarity-sort cylinder-code score per entry.
    pub cyl_scores: Vec<f64>,
    /// Geometric-hash votes cast: a bucket reached by `w` probe features
    /// counts `w` times its length, however often its ids were read.
    pub bucket_hits: u64,
    /// Packed-`u64` Hamming word comparisons performed.
    pub hamming_word_ops: u64,
}

/// A two-stage candidate index for 1:N identification.
///
/// **Stage 1 (shortlist):** every gallery template is summarized at
/// enrollment into (a) per-minutia binarized-MCC cylinder codes, compared by
/// local-similarity-sort over packed `u64` Hamming words, and (b) its
/// pair-table features, registered in a geometric-hash bucket index that
/// lets a probe accumulate compatibility votes without touching individual
/// gallery templates. Each channel ranks the gallery independently and the
/// two rankings are fused by *best rank* — an entry's fused key is the
/// better of its two channel ranks — so a genuine mate only needs to
/// surface in one channel. The top-K fused entries survive.
///
/// **Stage 2 (re-rank):** the shortlist is scored *exactly* with the
/// pair-table matcher's [`PreparableMatcher::compare_prepared`], so every
/// score the index reports is identical to what a brute-force scan would
/// have produced for that candidate; with `shortlist >= gallery` the whole
/// result is identical to brute force.
///
/// One pair-table matcher serves both stages. `M` is always its default,
/// [`PairTableMatcher`], kept so `CandidateIndex<PairTableMatcher>` names it.
#[derive(Debug, Clone)]
pub struct CandidateIndex<M = PairTableMatcher> {
    matcher: M,
    mcc: MccMatcher,
    config: IndexConfig,
    entries: Vec<GalleryEntry>,
    /// Fills empty entry slots on first stage-2 touch; `None` on indexes
    /// whose slots were all filled at construction.
    loader: Option<TableLoader>,
    /// Every enrolled entry's packed cylinder codes, structure-of-arrays,
    /// indexed by the same dense ids as `entries`.
    arena: CodeArena,
    buckets: BucketIndex,
    metrics: IndexMetrics,
    /// Canonical run fingerprint: folds every [`search`](Self::search)'s
    /// merged candidate list. Clones of the index share it.
    runfp: RunFingerprint,
    /// Stage-2 part fingerprint: folds the candidate parts this index
    /// serves as a *shard backend* (`ShardBackend::stage_two`), in
    /// selection order with shard-local ids — the chain a coordinator
    /// mirrors and verifies over the wire.
    pub(crate) part_fp: RunFingerprint,
}

impl CandidateIndex {
    /// Creates an empty index around `matcher` with the default config.
    pub fn new(matcher: PairTableMatcher) -> CandidateIndex {
        CandidateIndex::with_config(matcher, IndexConfig::default())
    }

    /// Creates an empty index with an explicit config.
    ///
    /// # Panics
    ///
    /// If `config` is structurally invalid (see
    /// [`IndexConfig::validate`]); use
    /// [`try_with_config`](Self::try_with_config) to handle that as a
    /// typed error instead (boundaries adopting untrusted configs — e.g.
    /// `fp-serve`'s wire enroll — do).
    pub fn with_config(matcher: PairTableMatcher, config: IndexConfig) -> CandidateIndex {
        match CandidateIndex::try_with_config(matcher, config) {
            Ok(index) => index,
            Err(err) => panic!("invalid IndexConfig: {err}"),
        }
    }

    /// Creates an empty index with an explicit config, rejecting invalid
    /// configs with a typed error. The config is validated against
    /// `matcher`'s config: stage 1 hashes its pair features.
    pub fn try_with_config(
        matcher: PairTableMatcher,
        config: IndexConfig,
    ) -> Result<CandidateIndex, IndexConfigError> {
        config.validate(matcher.config())?;
        Ok(CandidateIndex {
            matcher,
            mcc: MccMatcher::default(),
            config,
            entries: Vec::new(),
            loader: None,
            arena: CodeArena::new(),
            buckets: BucketIndex::new(config.distance_bin, config.angle_bins),
            metrics: IndexMetrics::default(),
            runfp: RunFingerprint::new(config.fingerprint_base(0)),
            part_fp: RunFingerprint::new(config.fingerprint_base(0)),
        })
    }

    /// Re-seeds the canonical run fingerprint (default seed 0). Call
    /// before the first search: the cumulative chain restarts from the
    /// new `(seed, config)` base. The stage-2 part chain keeps seed 0 —
    /// it must match a coordinator's mirror, which has no run seed.
    pub fn with_run_seed(mut self, seed: u64) -> Self {
        self.runfp = RunFingerprint::new(self.config.fingerprint_base(seed));
        self
    }

    /// Snapshot of the canonical run fingerprint: `(seed, config)` plus
    /// every search's merged candidate list, combined commutatively (so
    /// concurrent searches reach a thread-order-independent value).
    pub fn run_fingerprint(&self) -> FingerprintSnapshot {
        self.runfp.snapshot()
    }

    /// Snapshot of the stage-2 part chain this index accumulated while
    /// serving as a shard backend.
    pub fn part_fingerprint(&self) -> FingerprintSnapshot {
        self.part_fp.snapshot()
    }

    /// Registers the index's work counters and timing histograms on
    /// `telemetry` (candidates pruned, Hamming word ops, bucket hits,
    /// re-rank comparisons, build/search wall time).
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.metrics = IndexMetrics::new(telemetry);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The pair-table matcher both stages use.
    pub fn matcher(&self) -> &PairTableMatcher {
        &self.matcher
    }

    /// Number of enrolled gallery templates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the gallery is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Prepares a template once: its pair table gives the bucket keys and
    /// the pair count, and fills the stage-2 slot.
    fn make_entry(&self, template: &Template) -> PreparedEnrollment {
        let table = self.matcher.prepare(template);
        let keys = self.buckets.keys(table.pair_features());
        let codes = CylinderCodes::extract(&self.mcc, template, self.config.max_cylinders);
        PreparedEnrollment {
            entry: GalleryEntry {
                prepared: OnceLock::from(table),
                pair_count: keys.len() as u32,
            },
            keys,
            codes,
        }
    }

    /// The pair table of gallery entry `id`, demand-loading (and caching)
    /// it through the table loader if its slot is still empty.
    fn prepared(&self, id: u32) -> Result<&PreparedPairTable, TableLoadError> {
        let slot = &self.entries[id as usize].prepared;
        if let Some(table) = slot.get() {
            return Ok(table);
        }
        // Only `from_store_parts` leaves slots empty, and it installs the
        // loader. Lanes racing on a slot load equal tables; one is kept.
        let loader = self.loader.as_ref().expect("empty table slot has a loader");
        let table = (loader.0)(id)?;
        Ok(slot.get_or_init(|| table))
    }

    /// Commits a prepared batch in slice order, returning its first id.
    fn insert(&mut self, batch: Vec<PreparedEnrollment>) -> u32 {
        let first = self.entries.len() as u32;
        self.buckets
            .append(first, batch.iter().map(|p| p.keys.as_slice()));
        self.metrics.enrolled.add(batch.len() as u64);
        for prepared in batch {
            self.arena.push(&prepared.codes);
            self.entries.push(prepared.entry);
        }
        first
    }

    /// Enrolls one gallery template, returning its dense id (enrollment
    /// order, starting at 0).
    ///
    /// Each call moves the whole bucket table, O(gallery): enroll more than
    /// a few dozen templates with [`enroll_all`](Self::enroll_all).
    pub fn enroll(&mut self, template: &Template) -> u32 {
        let start = Instant::now();
        let prepared = self.make_entry(template);
        let id = self.insert(vec![prepared]);
        self.metrics.build_time.record(start.elapsed());
        id
    }

    /// Enrolls a batch, preparing templates in parallel across the
    /// machine's cores (ids are still assigned in slice order, and the
    /// resulting index is identical to sequential [`enroll`](Self::enroll)
    /// calls). Returns the id of the first enrolled template.
    pub fn enroll_all(&mut self, templates: &[Template]) -> u32 {
        let _span = self.metrics.telemetry.trace_span(
            "index.enroll_all",
            &[("batch", templates.len().to_string())],
        );
        let start = Instant::now();
        let prepared = parallel_make(self, templates);
        let first = self.insert(prepared);
        // Per-template preparation timings were recorded inside
        // `parallel_make`; the whole-batch wall time gets its own
        // histogram so build-time percentiles are not skewed by mixing
        // batch samples in with per-template ones.
        self.metrics.build_batch_time.record(start.elapsed());
        first
    }

    /// Computes the probe-side features (pair table + cylinder codes) once
    /// for a search.
    pub(crate) fn probe_features(&self, probe: &Template) -> ProbeFeatures {
        let table = self.matcher.prepare(probe);
        let codes = CylinderCodes::extract(&self.mcc, probe, self.config.max_cylinders);
        ProbeFeatures { table, codes }
    }

    /// Stage 1: per-entry channel scores over this index's gallery.
    ///
    /// **Votes:** geometric-hash votes, normalized by the *smaller* pair
    /// count of the two templates (min-support). Card-scan probes carry
    /// ~2.5x more (mostly spurious) pairs than their live-scan gallery
    /// mates; dividing by the larger count would bury exactly those genuine
    /// matches.
    ///
    /// **Codes:** per-minutia cylinder codes scored by local similarity
    /// sort — robust to the same spurious-minutiae asymmetry because only
    /// the strongest local agreements count.
    ///
    /// Every search route reaches this pass, so this is where the index
    /// meters its stage-1 work. Both channels run on up to `max_lanes`
    /// lanes (`crate::lanes`); the scores and counts are the one-lane
    /// pass's, bit for bit.
    pub(crate) fn stage1(&self, probe: &ProbeFeatures, max_lanes: usize) -> StageOneScores {
        let n = self.entries.len();
        let mut votes = vec![0u32; n];
        let pairs: Vec<_> = probe.table.pair_features().collect();
        let bucket_hits = self.buckets.accumulate(&pairs, &mut votes, max_lanes);
        let probe_pairs = pairs.len() as u32;
        let vote_scores: Vec<f64> = self
            .entries
            .iter()
            .enumerate()
            .map(|(id, entry)| {
                f64::from(votes[id]) / f64::from(probe_pairs.min(entry.pair_count).max(1))
            })
            .collect();

        // The arena kernel. Byte-identical to scoring each entry with
        // `CylinderCodes::reference_similarity` (the scalar oracle) —
        // `tests/kernel.rs` and `study check-kernel` pin the equivalence —
        // including the exact `hamming_word_ops` count.
        let mut scratch = Stage1Scratch::new();
        let mut cyl_scores = vec![0.0f64; n];
        let hamming_word_ops = self.arena.score_on_lanes(
            max_lanes,
            &probe.codes,
            self.config.lss_depth,
            &mut scratch,
            &mut cyl_scores,
        );

        self.metrics
            .record_stage_one(n, bucket_hits, hamming_word_ops);
        StageOneScores {
            vote_scores,
            cyl_scores,
            bucket_hits,
            hamming_word_ops,
        }
    }

    /// The packed code arena backing stage-1 (read-only).
    pub fn arena(&self) -> &CodeArena {
        &self.arena
    }

    /// Persistence view of the gallery: every entry's pair table plus its
    /// pair-feature count (the vote-normalization denominator), in
    /// dense-id order. Together with [`arena`](Self::arena)'s entry views
    /// and [`buckets`](Self::buckets) this is the complete state `fp-store`
    /// writes into a segment — per-entry scores are pure functions of
    /// (probe, entry, config), so an index rebuilt from these parts
    /// searches byte-identically. A lazily opened index loads its
    /// remaining tables here, and yields a [`TableLoadError`] for a record
    /// that fails to load.
    pub fn store_entries(
        &self,
    ) -> impl Iterator<Item = Result<(&PreparedPairTable, u32), TableLoadError>> + '_ {
        (0..self.entries.len() as u32)
            .map(|id| Ok((self.prepared(id)?, self.entries[id as usize].pair_count)))
    }

    /// The geometric-hash table, exactly as a segment's BUCKETS section
    /// holds it: keys ascending, each bucket's ids in ascending gallery
    /// id order — a canonical order, so save → open → save is byte-stable.
    pub fn buckets(&self) -> &FlatBuckets {
        &self.buckets.table
    }

    /// Reassembles an index from persisted parts — the open path of
    /// `fp-store`'s segment format. `pair_counts` holds every entry's
    /// pair-feature count in dense-id order (stage 1 needs them all on
    /// every search); `tables` loads an entry's pair table the first time
    /// stage 2 touches it — since only shortlisted entries
    /// are ever re-ranked, an open skips reading the dominant share of a
    /// persisted gallery's bytes. `arena` and `buckets` must describe the
    /// same entries (the arena packs one span per entry, bucket ids are
    /// dense gallery ids); the table is adopted as it is. The result is
    /// indistinguishable from an index grown by [`enroll`](Self::enroll)
    /// calls in the same order — same candidate lists, same RUNFP chain —
    /// provided the loader returns exactly what enrollment produced.
    ///
    /// # Panics
    ///
    /// If `arena` does not hold exactly one entry per pair count, or a
    /// bucket id is not below `pair_counts.len()`. Untrusted
    /// inputs are validated *before* this point, by
    /// [`CodeArena::from_raw_parts`] and by [`FlatBuckets::from_raw_parts`]
    /// against the decoded entry count; these asserts are last-line
    /// programming-error checks — a table a caller remapped, appended or
    /// dealt wrongly fails here, not at the first search's `votes[id]`.
    pub fn from_store_parts(
        matcher: PairTableMatcher,
        config: IndexConfig,
        pair_counts: Vec<u32>,
        tables: TableLoader,
        arena: CodeArena,
        buckets: FlatBuckets,
    ) -> Result<CandidateIndex, IndexConfigError> {
        let mut index = CandidateIndex::try_with_config(matcher, config)?;
        assert_eq!(
            arena.len(),
            pair_counts.len(),
            "arena must pack exactly one span per entry"
        );
        if let Some(id) = buckets.stray_id(pair_counts.len()) {
            panic!("bucket id {id} names no entry of {}", pair_counts.len());
        }
        index.loader = Some(tables);
        index.entries = pair_counts
            .into_iter()
            .map(|pair_count| GalleryEntry {
                prepared: OnceLock::new(),
                pair_count,
            })
            .collect();
        index.arena = arena;
        index.buckets.table = buckets;
        index.metrics.enrolled.add(index.entries.len() as u64);
        Ok(index)
    }

    /// Stage-1 cylinder-code scores of `probe` against every enrolled
    /// entry via the **arena kernel** — `(per-entry scores,
    /// hamming word ops)`. Public for the kernel parity gate
    /// (`study check-kernel`) and the stage-1 benches; not metered.
    pub fn stage1_cylinder_scores(&self, probe: &Template) -> (Vec<f64>, u64) {
        let codes = CylinderCodes::extract(&self.mcc, probe, self.config.max_cylinders);
        let mut scratch = Stage1Scratch::new();
        let mut scores = vec![0.0f64; self.entries.len()];
        let ops = self
            .arena
            .score_into(&codes, self.config.lss_depth, &mut scratch, &mut scores);
        (scores, ops)
    }

    /// Same scores via the **scalar reference kernel**
    /// (entry-at-a-time [`CylinderCodes::reference_similarity`] semantics).
    /// The parity gate holds this bitwise equal to
    /// [`stage1_cylinder_scores`](Self::stage1_cylinder_scores).
    pub fn stage1_cylinder_scores_reference(&self, probe: &Template) -> (Vec<f64>, u64) {
        let codes = CylinderCodes::extract(&self.mcc, probe, self.config.max_cylinders);
        let mut scratch = Stage1Scratch::new();
        let mut scores = vec![0.0f64; self.entries.len()];
        let ops = self.arena.score_into_reference(
            &codes,
            self.config.lss_depth,
            &mut scratch,
            &mut scores,
        );
        (scores, ops)
    }

    /// Stage 2: exact scores for the selected entry ids (local ids of this
    /// index), in selection order — the spine sorts. Every search route
    /// reaches this pass, so this is where the index meters its stage-2
    /// work. Up to `max_lanes` lanes (`crate::lanes`) take the comparisons
    /// one at a time as they go, and the scores are joined in selection
    /// order; an empty slot is demand-loaded by whichever lane reaches it
    /// first, and a table that fails to load fails the pass.
    pub(crate) fn rerank(
        &self,
        selected: &[u32],
        probe: &PreparedPairTable,
        max_lanes: usize,
    ) -> Result<Vec<Candidate>, TableLoadError> {
        self.metrics.record_stage_two(selected.len());
        let lanes = lanes::count(selected.len() * lanes::COMPARISON_ENTRIES, max_lanes);
        lanes::share(selected.to_vec(), vec![(); lanes], |(), id| {
            Ok(Candidate {
                id,
                score: self.matcher.compare_prepared(self.prepared(id)?, probe),
            })
        })
        .into_iter()
        .collect()
    }

    /// [`ShardBackend::stage_one`](crate::ShardBackend::stage_one) on at
    /// most `max_lanes` lanes instead of one per core — how the tests hold
    /// every lane count to the one-lane pass. Metered like a search's.
    #[doc(hidden)]
    pub fn stage_one_on_lanes(&self, probe: &Template, max_lanes: usize) -> StageOneScores {
        self.stage1(&self.probe_features(probe), max_lanes)
    }

    /// The re-rank of `selected` on at most `max_lanes` lanes, in selection
    /// order, folded into no chain — the tests' counterpart of
    /// [`stage_one_on_lanes`](Self::stage_one_on_lanes).
    #[doc(hidden)]
    pub fn stage_two_on_lanes(
        &self,
        probe: &Template,
        selected: &[u32],
        max_lanes: usize,
    ) -> Vec<Candidate> {
        loaded(self.rerank(selected, &self.matcher.prepare(probe), max_lanes))
    }

    /// Searches the gallery with the configured shortlist budget.
    ///
    /// # Panics
    ///
    /// As [`search_with_budget`](Self::search_with_budget).
    pub fn search(&self, probe: &Template) -> SearchResult {
        self.search_with_budget(probe, self.config.shortlist)
    }

    /// Searches with an explicit shortlist budget; `shortlist >= len()`
    /// degenerates to an exact brute-force ranking. This is
    /// [`search_spine`] with one shard and no part chain; the probe is
    /// prepared once for both stages, and stage 1 and the re-rank each run
    /// one lane per core.
    ///
    /// # Panics
    ///
    /// With the [`TableLoadError`]'s text, if a store-opened gallery cannot
    /// load a shortlisted entry's table; the shard route
    /// ([`search_backends`](crate::search_backends)) returns it typed.
    pub fn search_with_budget(&self, probe: &Template, shortlist: usize) -> SearchResult {
        let start = Instant::now();
        let n = self.entries.len();
        let _span = self
            .metrics
            .telemetry
            .trace_span("index.search", &[("gallery", n.to_string())]);
        let features = self.probe_features(probe);
        let result = loaded(search_spine(
            1,
            n,
            shortlist,
            Some(&self.runfp),
            || Ok(vec![self.stage1(&features, lanes::cores())]),
            |jobs| {
                jobs.iter()
                    .map(|(_, selected)| self.rerank(selected, &features.table, lanes::cores()))
                    .collect()
            },
        ));
        self.metrics.search_time.record(start.elapsed());
        result
    }

    /// Exact brute-force ranking of the whole gallery — the reference the
    /// index's results are validated against, sharing the prepared gallery
    /// and the same deterministic ordering. Not metered as a search.
    pub fn brute_force(&self, probe: &Template) -> SearchResult {
        let probe_prepared = self.matcher.prepare(probe);
        let mut candidates: Vec<Candidate> = (0..self.entries.len() as u32)
            .map(|id| Candidate {
                id,
                score: self
                    .matcher
                    .compare_prepared(loaded(self.prepared(id)), &probe_prepared),
            })
            .collect();
        candidates.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.id.cmp(&b.id)));
        SearchResult {
            candidates,
            gallery_len: self.entries.len(),
        }
    }
}

/// The in-process routes' answer to a table that failed to load: a panic.
fn loaded<T>(result: Result<T, TableLoadError>) -> T {
    result.unwrap_or_else(|err| panic!("{err}"))
}

/// Best-rank fusion under a strict total order: each channel ranks the
/// gallery independently (score desc, id asc) and an entry's fused key is
/// `(better rank, worse rank, id)` ascending. A genuine mate only needs to
/// surface in ONE channel; the channels fail on disjoint probe
/// populations, so the union covers both. Returns the ids of the
/// `min(k, n)` smallest fused keys, ordered by the key with every rank of
/// k or more read as k.
///
/// The gallery is selected from, never ranked: O(n + k log k).
/// - Each channel's top k holds only entries of better rank < k, the two
///   hold at least k of them, and every other entry has better rank ≥ k:
///   the k smallest keys all lie in their union.
/// - In the union the better rank is exact. The worse rank is exact for an
///   entry in both lists; for the rest it is only known to be ≥ k.
/// - Two entries share a better rank only as the r-th of one channel and
///   the r-th of the other, so unknown worse ranks decide the set only when
///   two such entries straddle the cut. Those two are counted exactly, one
///   O(n) pass each; equal worse ranks fall to the id.
///
/// Below the cut an unknown worse rank reads as k, so two entries tied on
/// better rank that both lie outside the other channel's top k come in id
/// order: ordering them exactly would cost a counting pass per pair.
pub(crate) fn fuse_select(vote_scores: &[f64], cyl_scores: &[f64], k: usize) -> Vec<u32> {
    debug_assert_eq!(vote_scores.len(), cyl_scores.len());
    let n = vote_scores.len();
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    let channels = [vote_scores, cyl_scores];
    let [vote_top, cyl_top] = channels.map(|scores| channel_top(scores, k));
    // Every entry's rank in each channel, `beyond` for "k or more".
    let beyond = k as u32;
    let mut ranks = [vec![beyond; n], vec![beyond; n]];
    for (ranks, top) in ranks.iter_mut().zip([&vote_top, &cyl_top]) {
        for (rank, &id) in (0u32..).zip(top) {
            ranks[id as usize] = rank;
        }
    }
    let mut fused: Vec<(u32, u32, u32)> = vote_top
        .iter()
        .chain(
            cyl_top
                .iter()
                .filter(|&&id| ranks[0][id as usize] == beyond),
        )
        .map(|&id| {
            let (v, c) = (ranks[0][id as usize], ranks[1][id as usize]);
            (v.min(c), v.max(c), id)
        })
        .collect();
    fused.sort_unstable();
    if let (Some(&last), Some(&next)) = (fused.get(k - 1), fused.get(k)) {
        if last.0 == next.0 && last.1 == beyond && next.1 == beyond {
            // Each is in one channel's top k; count its rank in the other.
            let exact = |id: u32| {
                let other = usize::from(ranks[0][id as usize] != beyond);
                (channel_rank(channels[other], id), id)
            };
            if exact(next.2) < exact(last.2) {
                fused[k - 1] = next;
            }
        }
    }
    fused.truncate(k);
    fused.into_iter().map(|(_, _, id)| id).collect()
}

/// One channel's order: score descending, ties by id ascending (rank 0 is
/// best). The deterministic tie-break makes fused shortlists identical
/// across runs. `total_cmp` (identical to `partial_cmp` on the finite
/// scores both channels produce) so a NaN from a future scoring kernel
/// degrades a rank instead of aborting the search.
fn channel_order((a_score, a): (f64, u32), (b_score, b): (f64, u32)) -> std::cmp::Ordering {
    b_score.total_cmp(&a_score).then(a.cmp(&b))
}

/// The ids of one channel's `k` best entries (`1 <= k <= n`), best first:
/// a selection, then a sort of the k.
fn channel_top(scores: &[f64], k: usize) -> Vec<u32> {
    let by_rank =
        |&a: &u32, &b: &u32| channel_order((scores[a as usize], a), (scores[b as usize], b));
    let mut ids: Vec<u32> = (0..scores.len() as u32).collect();
    if k < ids.len() {
        ids.select_nth_unstable_by(k - 1, by_rank);
        ids.truncate(k);
    }
    ids.sort_unstable_by(by_rank);
    ids
}

/// The exact rank of `id` in one channel: how many entries it orders ahead.
fn channel_rank(scores: &[f64], id: u32) -> u32 {
    let own = (scores[id as usize], id);
    (0u32..)
        .zip(scores)
        .filter(|&(entry, &score)| channel_order((score, entry), own).is_lt())
        .count() as u32
}

/// Prepares gallery entries for a batch in parallel (one template a job,
/// shared over the lanes by `lanes::share`), preserving slice order in the
/// result and recording each template's preparation time in the
/// `index.build.seconds` histogram when telemetry is live.
fn parallel_make(index: &CandidateIndex, templates: &[Template]) -> Vec<PreparedEnrollment> {
    let timed = index.metrics.telemetry.is_enabled();
    let make_timed = |t: &Template| {
        if timed {
            let start = Instant::now();
            let made = index.make_entry(t);
            index.metrics.build_time.record(start.elapsed());
            made
        } else {
            index.make_entry(t)
        }
    };
    lanes::share(
        templates.iter().collect(),
        vec![(); lanes::cores()],
        |(), t| make_timed(t),
    )
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The two-sort fusion [`fuse_select`] replaced, kept verbatim as its
    /// oracle: both channels ranked in full, the fused keys selected.
    fn fuse_select_reference(vote_scores: &[f64], cyl_scores: &[f64], k: usize) -> Vec<u32> {
        let n = vote_scores.len();
        debug_assert_eq!(n, cyl_scores.len());
        let vote_ranks = channel_ranks(vote_scores);
        let cyl_ranks = channel_ranks(cyl_scores);
        let mut fused: Vec<(u32, u32, u32)> = (0..n as u32)
            .map(|id| {
                let (v, c) = (vote_ranks[id as usize], cyl_ranks[id as usize]);
                (v.min(c), v.max(c), id)
            })
            .collect();

        let k = k.min(n);
        if k > 0 && k < n {
            fused.select_nth_unstable_by(k - 1, |a, b| a.cmp(b));
        }
        fused.truncate(k);
        fused.into_iter().map(|(_, _, id)| id).collect()
    }

    /// Ranks one shortlist channel: position of every gallery id when sorted
    /// by score descending, ties broken by id ascending (rank 0 is best).
    fn channel_ranks(scores: &[f64]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..scores.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            scores[b as usize]
                .total_cmp(&scores[a as usize])
                .then(a.cmp(&b))
        });
        let mut ranks = vec![0u32; scores.len()];
        for (rank, &id) in order.iter().enumerate() {
            ranks[id as usize] = rank as u32;
        }
        ranks
    }

    /// The oracle's selection ordered by the fused key with ranks of k or
    /// more read as k: the one answer [`fuse_select`] may give, set and
    /// order.
    fn expected(vote_scores: &[f64], cyl_scores: &[f64], k: usize) -> Vec<u32> {
        let (vote_ranks, cyl_ranks) = (channel_ranks(vote_scores), channel_ranks(cyl_scores));
        let beyond = k.min(vote_scores.len()) as u32;
        let mut selected = fuse_select_reference(vote_scores, cyl_scores, k);
        selected.sort_unstable_by_key(|&id| {
            let (v, c) = (vote_ranks[id as usize], cyl_ranks[id as usize]);
            (v.min(c), v.max(c).min(beyond), id)
        });
        selected
    }

    /// One channel of `n` scores: a few shared levels, so the channel ties,
    /// mixed with NaN, −NaN, ±∞, ±0.0 and arbitrary values.
    fn channel(n: usize) -> impl Strategy<Value = Vec<f64>> {
        (1u8..5, prop::collection::vec((0u8..16, -2.0f64..2.0), n)).prop_map(|(levels, picks)| {
            picks
                .into_iter()
                .map(|(pick, any)| match pick {
                    p if p < levels => f64::from(p) * 0.5,
                    8 => f64::NAN,
                    9 => -f64::NAN,
                    10 => f64::INFINITY,
                    11 => f64::NEG_INFINITY,
                    12 => -0.0,
                    13 => 0.0,
                    _ => any,
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        /// The selection picks the oracle's ids in its defined order, at
        /// every budget from empty through past the gallery.
        #[test]
        fn selection_equals_the_two_sort_oracle(
            (votes, codes, pick) in (0usize..=300).prop_flat_map(|n| (channel(n), channel(n), 0..=n)),
        ) {
            let n = votes.len();
            for k in [0, 1, pick, n.saturating_sub(1), n, n + 5] {
                prop_assert_eq!(
                    fuse_select(&votes, &codes, k),
                    expected(&votes, &codes, k),
                    "n={} k={}",
                    n,
                    k
                );
            }
        }
    }

    /// Entries 0 and 1 share better rank 0, each first in one channel and
    /// outside the other's top k. At k = 1 they straddle the cut: their
    /// worse ranks (5 and 2) have to be counted, and the lower one beats
    /// the lower id. Below the cut (k = 2) both are in, in id order; with
    /// every rank known (k = 6) the order is the full fused order.
    #[test]
    fn the_cut_counts_worse_ranks_beyond_the_top_k() {
        let votes = [9.0, 7.0, 8.0, 5.0, 4.0, 3.0];
        let codes = [1.0, 9.0, 8.0, 7.0, 6.0, 5.0];
        assert_eq!(fuse_select(&votes, &codes, 1), vec![1]);
        assert_eq!(fuse_select(&votes, &codes, 2), vec![0, 1]);
        assert_eq!(fuse_select(&votes, &codes, 6), vec![1, 0, 2, 3, 4, 5]);
        for k in 0..=7 {
            assert_eq!(fuse_select(&votes, &codes, k), expected(&votes, &codes, k));
        }
    }

    /// Entries 0 and 1 share better rank 0 and worse rank 3 — entry 1 leads
    /// the votes, entry 0 the codes — so the id decides, not the channel.
    #[test]
    fn equal_worse_ranks_fall_to_the_id() {
        let votes = [5.0, 9.0, 8.0, 7.0, 1.0];
        let codes = [9.0, 5.0, 8.0, 7.0, 1.0];
        assert_eq!(fuse_select(&votes, &codes, 1), vec![0]);
        assert_eq!(fuse_select(&votes, &codes, 2), vec![0, 1]);
        for k in 0..=6 {
            assert_eq!(fuse_select(&votes, &codes, k), expected(&votes, &codes, k));
        }
    }
}
