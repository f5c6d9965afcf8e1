//! Sharded gallery: one logical 1:N index split across S thread-parallel
//! shards, exactly equivalent to the unsharded [`CandidateIndex`].
//!
//! # Id mapping
//!
//! Templates are distributed round-robin by enrollment order: the g-th
//! enrolled template lands on shard `g % S` as that shard's local id
//! `g / S`, so `global_id = local_id * S + shard` recovers exactly the
//! dense enrollment-order id the unsharded index would have assigned.
//!
//! # Why this is *provably* identical, not just approximately
//!
//! Naively running the whole two-stage search per shard and merging the
//! per-shard shortlists is **not** equivalent to the unsharded index: the
//! stage-1 channels are fused by *rank*, and ranks computed inside a shard
//! (against only that shard's entries) differ from global ranks — an entry
//! whose global channel ranks are (5, 100) beats one at (6, 7) globally but
//! can lose to it inside a small shard. Rank fusion is not monotone under
//! entry removal, so per-shard fusion can select a different shortlist and
//! the merged result can miss candidates the unsharded index would return.
//!
//! The sharded search therefore splits along the one seam that *is*
//! shard-invariant: **per-entry channel scores**. An entry's vote score
//! (its own bucket votes over min pair support) and its cylinder-code score
//! are pure functions of (probe, entry) — bit-identical whether the entry
//! shares a gallery with 10 or 10 million others — and so, trivially, is
//! its exact stage-2 score. Shards return scores; **one** global rank
//! fusion runs over the same score arrays the unsharded index would see;
//! and because global ids are unique, `(score desc, global id asc)` is a
//! strict total order, so merging the shards' sorted parts equals sorting
//! their concatenation — byte-identical to the unsharded [`SearchResult`].
//!
//! The sequence itself is written once, in [`search_spine`]; the unsharded
//! index runs it too, with one shard.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fp_core::template::Template;
use fp_telemetry::{FingerprintSnapshot, RunFingerprint, Telemetry};

use crate::backend::ShardError;
use crate::config::IndexConfig;
use crate::index::{fuse_select, Candidate, CandidateIndex, SearchResult, StageOneScores};
use crate::lanes;
use crate::metrics::IndexMetrics;

/// A gallery sharded across S thread-parallel [`CandidateIndex`] shards.
///
/// Searches return [`SearchResult`]s byte-identical to an unsharded index
/// enrolled in the same order with the same budget; shards buy wall-clock
/// parallelism (stage 1 and stage 2 both fan out across shard threads) and
/// are the in-process rehearsal for the ROADMAP's cross-process sharding.
pub struct ShardedIndex<M: fp_match::PreparableMatcher> {
    shards: Vec<CandidateIndex<M>>,
    /// Roll-up instruments under the canonical `index` prefix, comparable
    /// 1:1 with an unsharded index serving the same gallery.
    rollup: IndexMetrics,
    config: IndexConfig,
    enrolled: usize,
    /// Canonical run fingerprint over merged (global-fusion-order) results
    /// — byte-for-byte comparable with an unsharded index's, because the
    /// merged candidate lists are byte-identical.
    runfp: RunFingerprint,
}

impl<M: fp_match::PreparableMatcher + Clone> ShardedIndex<M> {
    /// Creates an empty index of `shard_count` shards around `matcher`
    /// with the default config.
    pub fn new(matcher: M, shard_count: usize) -> ShardedIndex<M> {
        ShardedIndex::with_config(matcher, IndexConfig::default(), shard_count)
    }

    /// Creates an empty sharded index with an explicit config.
    pub fn with_config(matcher: M, config: IndexConfig, shard_count: usize) -> ShardedIndex<M> {
        assert!(shard_count >= 1, "need at least one shard");
        ShardedIndex {
            shards: (0..shard_count)
                .map(|_| CandidateIndex::with_config(matcher.clone(), config))
                .collect(),
            rollup: IndexMetrics::default(),
            config,
            enrolled: 0,
            runfp: RunFingerprint::new(config.fingerprint_base(0)),
        }
    }
}

impl<M: fp_match::PreparableMatcher> ShardedIndex<M> {
    /// Assembles a sharded index from pre-built shards under the
    /// round-robin id mapping (shard `k` holds global ids `≡ k (mod S)`,
    /// global id `g` at local id `g / S`). This is `fp-store`'s sharded
    /// open path: a persisted gallery's entries are dealt into per-shard
    /// [`CandidateIndex::from_store_parts`] indexes and installed here,
    /// producing an index byte-identical to one grown by
    /// [`enroll`](Self::enroll) calls in global-id order.
    ///
    /// # Panics
    ///
    /// If `shards` is empty, the shards disagree on config, or the shard
    /// lengths violate the round-robin deal ([`check_deal`]).
    pub fn from_shards(shards: Vec<CandidateIndex<M>>) -> ShardedIndex<M> {
        assert!(!shards.is_empty(), "need at least one shard");
        let config = *shards[0].config();
        for (k, shard) in shards.iter().enumerate() {
            assert_eq!(shard.config(), &config, "shard {k} config differs");
        }
        let lens: Vec<usize> = shards.iter().map(|shard| shard.len()).collect();
        let total = check_deal(&lens).unwrap_or_else(|err| panic!("{err}"));
        ShardedIndex {
            shards,
            rollup: IndexMetrics::default(),
            config,
            enrolled: total,
            runfp: RunFingerprint::new(config.fingerprint_base(0)),
        }
    }

    /// Registers the roll-up instruments under the canonical `index` prefix
    /// (so dashboards compare sharded and unsharded runs 1:1) plus one
    /// per-shard bundle under `index.shard<k>` for work attribution.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.rollup = IndexMetrics::new(telemetry);
        self.shards = self
            .shards
            .into_iter()
            .enumerate()
            .map(|(k, shard)| {
                shard.with_metrics(IndexMetrics::with_prefix(
                    telemetry,
                    &format!("index.shard{k}"),
                ))
            })
            .collect();
        self
    }

    /// Re-seeds the canonical run fingerprint (default seed 0). Call
    /// before the first search. Equal seeds, configs, galleries and probe
    /// sequences give a value equal to an unsharded
    /// [`CandidateIndex::run_fingerprint`] — for any shard count.
    pub fn with_run_seed(mut self, seed: u64) -> Self {
        self.runfp = RunFingerprint::new(self.config.fingerprint_base(seed));
        self
    }

    /// Snapshot of the canonical run fingerprint (see
    /// [`CandidateIndex::run_fingerprint`]).
    pub fn run_fingerprint(&self) -> FingerprintSnapshot {
        self.runfp.snapshot()
    }

    /// Per-shard stage-2 part chains, in shard order — what a remote
    /// coordinator would scrape from each shard process.
    pub fn shard_fingerprints(&self) -> Vec<FingerprintSnapshot> {
        self.shards
            .iter()
            .map(|shard| shard.part_fingerprint())
            .collect()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total enrolled gallery templates across all shards.
    pub fn len(&self) -> usize {
        self.enrolled
    }

    /// Whether the gallery is empty.
    pub fn is_empty(&self) -> bool {
        self.enrolled == 0
    }

    /// The active configuration (shared by every shard).
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Enrolls one template, returning its dense global id (enrollment
    /// order, starting at 0 — identical to the unsharded assignment).
    ///
    /// Each call moves its shard's whole bucket table, O(gallery / shards):
    /// enroll more than a few dozen templates with
    /// [`enroll_all`](Self::enroll_all).
    pub fn enroll(&mut self, template: &Template) -> u32 {
        let s = self.shards.len();
        let global = self.enrolled as u32;
        let shard = self.enrolled % s;
        let local = self.shards[shard].enroll(template);
        debug_assert_eq!(global, local * s as u32 + shard as u32);
        self.rollup.enrolled.incr();
        self.enrolled += 1;
        global
    }

    /// Enrolls a batch: templates are dealt round-robin to the shards and
    /// each shard prepares its share on its own thread (dividing the
    /// machine's cores across shards). The resulting index is identical to
    /// sequential [`enroll`](Self::enroll) calls in slice order. Returns
    /// the global id of the first enrolled template.
    pub fn enroll_all(&mut self, templates: &[Template]) -> u32
    where
        M: Sync,
        M::Prepared: Send,
    {
        let telemetry = self.rollup.telemetry.clone();
        let _span = telemetry.trace_span(
            "index.enroll_all",
            &[
                ("batch", templates.len().to_string()),
                ("shards", self.shards.len().to_string()),
            ],
        );
        let start = Instant::now();
        let s = self.shards.len();
        let first = self.enrolled as u32;
        let mut per_shard: Vec<Vec<&Template>> = vec![Vec::new(); s];
        for (offset, template) in templates.iter().enumerate() {
            per_shard[(self.enrolled + offset) % s].push(template);
        }
        let threads_per_shard = lanes::cores().div_ceil(s);
        let ctx = telemetry.trace_ctx();
        std::thread::scope(|scope| {
            for (k, (shard, batch)) in self.shards.iter_mut().zip(&per_shard).enumerate() {
                let (ctx, telemetry) = (&ctx, &telemetry);
                scope.spawn(move || {
                    let _adopt = telemetry.in_ctx(ctx);
                    let _lane = telemetry.trace_span(
                        "index.shard.enroll",
                        &[("shard", k.to_string()), ("batch", batch.len().to_string())],
                    );
                    shard.enroll_all_bounded(batch, threads_per_shard);
                });
            }
        });
        self.rollup.enrolled.add(templates.len() as u64);
        self.rollup.build_batch_time.record(start.elapsed());
        self.enrolled += templates.len();
        first
    }

    /// Searches every shard with the configured shortlist budget.
    pub fn search(&self, probe: &Template) -> SearchResult
    where
        M: Sync,
    {
        self.search_with_budget(probe, self.config.shortlist)
    }

    /// Searches with an explicit **total** shortlist budget (the budget is
    /// global, applied at the single global fusion — not per shard).
    /// Returns a result byte-identical to
    /// [`CandidateIndex::search_with_budget`] on the same gallery: this is
    /// [`search_spine`] fanned out on one thread per shard.
    pub fn search_with_budget(&self, probe: &Template, shortlist: usize) -> SearchResult
    where
        M: Sync,
    {
        let start = Instant::now();
        let n = self.enrolled;
        let s = self.shards.len();
        let _span = self.rollup.telemetry.trace_span(
            "index.search",
            &[("gallery", n.to_string()), ("shards", s.to_string())],
        );

        // Probe-side features are pure functions of (probe, config); every
        // shard shares one read-only copy computed on shard 0's extractors.
        let probe_features = self.shards[0].probe_features(probe);
        let probe_prepared = self.shards[0].prepare_probe(probe);
        // The cores are divided across the shards, as at enrollment.
        let lanes_per_shard = lanes::cores().div_ceil(s);
        // Lane wall time (ns) per shard, summed over both stages: every
        // shard owes one `search.seconds` sample per search, re-ranked or
        // not.
        let busy: Vec<AtomicU64> = (0..s).map(|_| AtomicU64::new(0)).collect();

        let Ok(result) = search_spine(
            s,
            n,
            shortlist,
            Some(&self.runfp),
            || {
                let stage1 = self.lanes(
                    "index.shard.search",
                    (0..s).map(|k| (k, ())),
                    &busy,
                    |shard, ()| shard.stage1(&probe_features, lanes_per_shard),
                );
                self.rollup.record_stage_one(
                    n,
                    stage1.iter().map(|scores| scores.bucket_hits).sum(),
                    stage1.iter().map(|scores| scores.hamming_word_ops).sum(),
                );
                Ok::<_, Infallible>(stage1)
            },
            |jobs| {
                Ok(self.lanes(
                    "index.shard.rerank",
                    jobs.iter().map(|(k, selected)| (*k, selected)),
                    &busy,
                    |shard, selected| shard.serve_part(selected, &probe_prepared, lanes_per_shard),
                ))
            },
        );

        // The shards metered their own passes; only the roll-up is left.
        self.rollup.record_stage_two(result.candidates().len());
        for (shard, busy) in self.shards.iter().zip(busy) {
            let busy = Duration::from_nanos(busy.into_inner());
            shard.metrics().search_time.record(busy);
        }
        self.rollup.search_time.record(start.elapsed());
        result
    }

    /// Runs `f` once per `(shard, job)` on [`lanes::run`] — one thread per
    /// job but the last, which runs inline — collecting results in job
    /// order. Lanes adopt the calling span so `name` spans nest under it;
    /// each lane's wall time is added to its shard's `busy` slot.
    fn lanes<J: Send, T: Send>(
        &self,
        name: &str,
        jobs: impl Iterator<Item = (usize, J)>,
        busy: &[AtomicU64],
        f: impl Fn(&CandidateIndex<M>, J) -> T + Sync,
    ) -> Vec<T>
    where
        M: Sync,
    {
        let telemetry = &self.rollup.telemetry;
        let ctx = telemetry.trace_ctx();
        lanes::run(jobs.collect(), |(k, job)| {
            let _adopt = telemetry.in_ctx(&ctx);
            let _lane = telemetry.trace_span(name, &[("shard", k.to_string())]);
            let t0 = Instant::now();
            let out = f(&self.shards[k], job);
            busy[k].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            out
        })
    }
}

// ---------------------------------------------------------------------------
// The search spine, and under it its steps: four pure functions, public so
// a transport or a benchmark can time them one by one.
// ---------------------------------------------------------------------------

/// The two-stage 1:N search over `shards` round-robin shards holding
/// `gallery_len` entries in total — the one place the sequence is written:
/// stage 1 on every shard → stitch → ONE global best-rank fusion at the
/// `shortlist` budget → deal the selection back to its owning shards →
/// stage 2 on the shards that got any → globalize + sort each part →
/// total-order merge → fold the result into `runfp`. [`CandidateIndex`],
/// [`ShardedIndex`], [`crate::search_backends`] and `fp-serve`'s coordinator
/// all run it and differ only in the two closures they hand it, which is
/// how their results stay byte-identical.
///
/// Callers supply only *how* to fan out. `stage_one` returns every shard's
/// [`StageOneScores`] in shard order. `stage_two` receives one `(shard,
/// local ids)` job per shard with a **non-empty** slice of the selection
/// and returns one part per job, in job order, ids and order as given.
/// That is the empty-selection rule, and this function alone owns it: an
/// empty selection costs no stage-2 call (for a remote shard, no round
/// trip) and folds nothing into a part chain — every driver's per-shard
/// chains agree because none of them decides this for itself.
///
/// The shards' sizes must be a round-robin deal of `gallery_len`
/// ([`check_deal`]); boundaries that adopt shard sizes they did not deal
/// themselves check that first, for a typed error instead of a panic here.
pub fn search_spine<E>(
    shards: usize,
    gallery_len: usize,
    shortlist: usize,
    runfp: Option<&RunFingerprint>,
    stage_one: impl FnOnce() -> Result<Vec<StageOneScores>, E>,
    stage_two: impl FnOnce(&[(usize, Vec<u32>)]) -> Result<Vec<Vec<Candidate>>, E>,
) -> Result<SearchResult, E> {
    let (vote_scores, cyl_scores) = stitch_stage_one(&stage_one()?, gallery_len);
    let jobs: Vec<(usize, Vec<u32>)> =
        select_per_shard(&vote_scores, &cyl_scores, shortlist, shards)
            .into_iter()
            .enumerate()
            .filter(|(_, selected)| !selected.is_empty())
            .collect();

    let mut parts = stage_two(&jobs)?;
    assert_eq!(parts.len(), jobs.len(), "one stage-2 part per job");
    for (part, (k, _)) in parts.iter_mut().zip(&jobs) {
        globalize_and_sort(part, *k, shards);
    }
    let result = SearchResult::from_parts(merge_sorted_parts(&parts), gallery_len);
    if let Some(runfp) = runfp {
        runfp.record_item(&result);
    }
    Ok(result)
}

/// Checks that `lens` — per-shard gallery sizes, in shard order — are what
/// dealing their total round-robin produces: shard `k` of `S` over `n`
/// entries holds exactly `(n + S - 1 - k) / S`. The id mapping
/// `global = local * S + k` (and with it [`stitch_stage_one`]) is only
/// defined over such a deal. Returns the total, or a
/// [`ShardError::Protocol`] naming the first shard that holds the wrong
/// number.
pub fn check_deal(lens: &[usize]) -> Result<usize, ShardError> {
    let s = lens.len();
    let total: usize = lens.iter().sum();
    for (shard, &holds) in lens.iter().enumerate() {
        let dealt = (total + s - 1 - shard) / s;
        if holds != dealt {
            return Err(ShardError::Protocol {
                shard,
                detail: format!(
                    "holds {holds} entries, the round-robin deal of {total} over {s} shards gives it {dealt}"
                ),
            });
        }
    }
    Ok(total)
}

/// Stitches per-shard stage-1 score arrays into global score arrays via the
/// round-robin id mapping `global = local * shards + shard`. `total` is the
/// full gallery size (must equal the sum of the per-shard lengths).
pub fn stitch_stage_one(per_shard: &[StageOneScores], total: usize) -> (Vec<f64>, Vec<f64>) {
    let s = per_shard.len();
    debug_assert_eq!(
        total,
        per_shard.iter().map(|p| p.vote_scores.len()).sum::<usize>()
    );
    let mut vote_scores = vec![0.0f64; total];
    let mut cyl_scores = vec![0.0f64; total];
    for (k, scores) in per_shard.iter().enumerate() {
        for (local, (&v, &c)) in scores
            .vote_scores
            .iter()
            .zip(&scores.cyl_scores)
            .enumerate()
        {
            let global = local * s + k;
            vote_scores[global] = v;
            cyl_scores[global] = c;
        }
    }
    (vote_scores, cyl_scores)
}

/// Runs the ONE global best-rank fusion over stitched global score arrays
/// and deals the selected global ids back to their owning shards as local
/// ids. Each shard's slice is in ascending fused-key order — the order its
/// part is re-ranked and folded into a part chain in; the merged result
/// does not depend on it, because parts are sorted afterwards.
pub fn select_per_shard(
    vote_scores: &[f64],
    cyl_scores: &[f64],
    shortlist: usize,
    shards: usize,
) -> Vec<Vec<u32>> {
    let selected = fuse_select(vote_scores, cyl_scores, shortlist);
    let mut selected_local: Vec<Vec<u32>> = vec![Vec::new(); shards];
    for global in selected {
        selected_local[global as usize % shards].push(global / shards as u32);
    }
    selected_local
}

/// Maps one shard's stage-2 part from local to global ids and sorts it by
/// the final `(score desc, id asc)` comparator, making it a mergeable run.
pub fn globalize_and_sort(part: &mut [Candidate], shard: usize, shards: usize) {
    for candidate in part.iter_mut() {
        candidate.id = candidate.id * shards as u32 + shard as u32;
    }
    part.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.id.cmp(&b.id)));
}

/// S-way merge of sorted per-shard parts by (score desc, global id asc).
/// Ids are unique, so the comparator is a strict total order and the merge
/// equals sorting the concatenation — i.e. the unsharded final sort.
pub fn merge_sorted_parts(parts: &[Vec<Candidate>]) -> Vec<Candidate> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut candidates = Vec::with_capacity(total);
    let mut heads = vec![0usize; parts.len()];
    for _ in 0..total {
        let mut best: Option<(usize, &Candidate)> = None;
        for (k, part) in parts.iter().enumerate() {
            if let Some(c) = part.get(heads[k]) {
                let better = match best {
                    None => true,
                    Some((_, b)) => (c.score, std::cmp::Reverse(c.id))
                        .cmp(&(b.score, std::cmp::Reverse(b.id)))
                        .is_gt(),
                };
                if better {
                    best = Some((k, c));
                }
            }
        }
        let (k, c) = best.expect("total counts every remaining candidate");
        candidates.push(*c);
        heads[k] += 1;
    }
    candidates
}
