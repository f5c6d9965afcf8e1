//! The search spine: one logical 1:N search over S round-robin shards,
//! exactly equivalent to the unsharded [`CandidateIndex`](crate::CandidateIndex).
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
//! The spine therefore splits along the one seam that *is*
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

use fp_telemetry::RunFingerprint;

use crate::backend::ShardError;
use crate::index::{fuse_select, Candidate, SearchResult, StageOneScores};

// ---------------------------------------------------------------------------
// The search spine, and under it its steps: four pure functions, public so
// a transport or a benchmark can time them one by one.
// ---------------------------------------------------------------------------

/// The two-stage 1:N search over `shards` round-robin shards holding
/// `gallery_len` entries in total — the one place the sequence is written:
/// stage 1 on every shard → stitch → ONE global best-rank fusion at the
/// `shortlist` budget → deal the selection back to its owning shards →
/// stage 2 on the shards that got any → globalize + sort each part →
/// total-order merge → fold the result into `runfp`.
/// [`CandidateIndex`](crate::CandidateIndex), [`crate::search_backends`]
/// and `fp-serve`'s coordinator all run it and differ only in the two
/// closures they hand it, which is how their results stay byte-identical.
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
    loop {
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
        let Some((k, c)) = best else {
            return candidates;
        };
        candidates.push(*c);
        heads[k] += 1;
    }
}
