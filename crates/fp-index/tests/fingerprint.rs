//! Avalanche and determinism properties of the RUNFP run fingerprint.
//!
//! The fingerprint's whole value is that two executions agree on one u64
//! exactly when they agreed on every behavior-relevant bit. That claim has
//! two halves, and each gets a property suite here:
//!
//! * **Sensitivity** — any single perturbation of what a search returned
//!   (one flipped score bit, one changed candidate id, two swapped ranks)
//!   or of what configured the run (any `IndexConfig` field, the seed)
//!   must change the fingerprint.
//! * **Determinism** — re-running the same searches must reproduce the
//!   value bit-for-bit: across shard counts (a search over round-robin
//!   shards merges the same lists as the unsharded one) and across
//!   threads (the cumulative combine is commutative, so completion order
//!   is irrelevant).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fp_core::geometry::{Direction, Point, RigidMotion, Vector};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_core::MatchScore;
use fp_index::{search_backends, Candidate, CandidateIndex, IndexConfig, SearchResult};
use fp_match::PairTableMatcher;
use fp_telemetry::{FingerprintChain, RunFingerprint};
use proptest::prelude::*;
use rand::Rng;

fn synthetic_template(seed: u64, n: usize) -> Template {
    let mut rng = SeedTree::new(seed).child(&[0x5D]).rng();
    let mut minutiae: Vec<Minutia> = Vec::new();
    let mut attempts = 0;
    while minutiae.len() < n && attempts < 10_000 {
        attempts += 1;
        let pos = Point::new(
            rng.gen::<f64>() * 16.0 - 8.0,
            rng.gen::<f64>() * 20.0 - 10.0,
        );
        if minutiae.iter().any(|m| m.pos.distance(&pos) < 1.4) {
            continue;
        }
        let kind = if rng.gen::<bool>() {
            MinutiaKind::RidgeEnding
        } else {
            MinutiaKind::Bifurcation
        };
        minutiae.push(Minutia::new(
            pos,
            Direction::from_radians(rng.gen::<f64>() * std::f64::consts::TAU),
            kind,
            rng.gen::<f64>() * 0.5 + 0.5,
        ));
    }
    Template::builder(500.0)
        .capture_window_mm(20.0, 24.0)
        .extend(minutiae)
        .build()
        .unwrap()
}

fn second_capture(template: &Template, seed: u64) -> Template {
    let mut rng = SeedTree::new(seed).child(&[0x5E]).rng();
    let mut minutiae: Vec<Minutia> = Vec::new();
    for m in template.minutiae() {
        if rng.gen::<f64>() <= 0.08 {
            continue;
        }
        minutiae.push(Minutia::new(
            Point::new(
                m.pos.x + fp_core::dist::normal(&mut rng, 0.0, 0.12),
                m.pos.y + fp_core::dist::normal(&mut rng, 0.0, 0.12),
            ),
            m.direction
                .rotated(fp_core::dist::normal(&mut rng, 0.0, 0.05)),
            m.kind,
            m.reliability,
        ));
    }
    let motion = RigidMotion::new(
        Direction::from_radians(fp_core::dist::normal(&mut rng, 0.0, 0.15)),
        Vector::new(
            fp_core::dist::normal(&mut rng, 0.0, 1.0),
            fp_core::dist::normal(&mut rng, 0.0, 1.0),
        ),
    );
    Template::builder(500.0)
        .capture_window_mm(20.0, 24.0)
        .extend(minutiae)
        .build()
        .unwrap()
        .transformed(&motion)
}

fn gallery(seed: u64, n: usize) -> Vec<Template> {
    (0..n)
        .map(|i| synthetic_template(seed * 1_000 + i as u64, 16 + (i * 7) % 16))
        .collect()
}

/// A synthetic shortlist: distinct ids, strictly positive finite scores.
/// (Sort order does not matter for the fold — the chain hashes whatever
/// sequence it is given — so perturbation tests need not re-sort.)
fn shortlist(ids: &[u32], scores: &[f64], gallery_len: usize) -> SearchResult {
    let candidates: Vec<Candidate> = ids
        .iter()
        .zip(scores)
        .map(|(&id, &s)| Candidate {
            id,
            score: MatchScore::new(s),
        })
        .collect();
    SearchResult::from_parts(candidates, gallery_len)
}

fn fold_value(result: &SearchResult, base: FingerprintChain) -> u64 {
    let mut chain = base;
    chain.fold(result);
    chain.value()
}

/// Strategy: 1..12 `(id, score)` pairs with positive finite scores.
fn candidate_lists() -> impl Strategy<Value = Vec<(u32, f64)>> {
    prop::collection::vec((0u32..10_000, 0.5f64..100.0), 1..12)
}

/// Drops duplicate ids and splits into parallel id/score vectors.
fn distinct(mut pairs: Vec<(u32, f64)>) -> (Vec<u32>, Vec<f64>) {
    pairs.sort_by_key(|p| p.0);
    pairs.dedup_by_key(|p| p.0);
    pairs.into_iter().unzip()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any single mantissa bit of any candidate's score changes
    /// the fingerprint: scores are folded as raw IEEE-754 bits, so the
    /// chain sees exactly the bit that drifted. (Mantissa bits 0..52 keep
    /// the perturbed score positive and finite, so `MatchScore::new`
    /// cannot clamp the perturbation away.)
    #[test]
    fn single_score_bit_flip_changes_the_fingerprint(
        pairs in candidate_lists(),
        pick in 0usize..12,
        bit in 0u32..52,
        seed in 0u64..1_000,
    ) {
        let (ids, scores) = distinct(pairs);
        let base = IndexConfig::default().fingerprint_base(seed);
        let genuine = shortlist(&ids, &scores, 10_000);

        let victim = pick % ids.len();
        let mut forged_scores = scores.clone();
        forged_scores[victim] = f64::from_bits(scores[victim].to_bits() ^ (1u64 << bit));
        let forged = shortlist(&ids, &forged_scores, 10_000);

        prop_assert!(
            fold_value(&genuine, base) != fold_value(&forged, base),
            "score bit {} of candidate {} flipped undetected",
            bit,
            victim
        );
    }

    /// Changing any single candidate id changes the fingerprint.
    #[test]
    fn candidate_id_change_changes_the_fingerprint(
        pairs in candidate_lists(),
        pick in 0usize..12,
        delta in 1u32..1_000,
        seed in 0u64..1_000,
    ) {
        let (ids, scores) = distinct(pairs);
        let base = IndexConfig::default().fingerprint_base(seed);
        let genuine = shortlist(&ids, &scores, 10_000);

        let victim = pick % ids.len();
        let mut forged_ids = ids.clone();
        forged_ids[victim] = forged_ids[victim].wrapping_add(delta);
        let forged = shortlist(&forged_ids, &scores, 10_000);

        prop_assert_ne!(fold_value(&genuine, base), fold_value(&forged, base));
    }

    /// Swapping two distinct candidates' ranks changes the fingerprint:
    /// the fold is order-dependent and each candidate is folded with its
    /// rank, so the same multiset in a different order is a different run.
    #[test]
    fn rank_swap_changes_the_fingerprint(
        pairs in candidate_lists(),
        pick in 0usize..12,
        seed in 0u64..1_000,
    ) {
        let (ids, scores) = distinct(pairs);
        prop_assume!(ids.len() >= 2);
        let base = IndexConfig::default().fingerprint_base(seed);
        let genuine = shortlist(&ids, &scores, 10_000);

        let a = pick % (ids.len() - 1);
        // ids are distinct by construction, so swapping adjacent
        // candidates always changes the folded sequence.
        let mut swapped_ids = ids.clone();
        swapped_ids.swap(a, a + 1);
        let mut swapped_scores = scores.clone();
        swapped_scores.swap(a, a + 1);
        let swapped = shortlist(&swapped_ids, &swapped_scores, 10_000);

        prop_assert_ne!(fold_value(&genuine, base), fold_value(&swapped, base));
    }

    /// Every `IndexConfig` field and the run seed are load-bearing: a
    /// perturbation of any one of them moves the base chain, so two runs
    /// configured differently can never share a fingerprint by accident.
    #[test]
    fn every_config_field_and_the_seed_move_the_base_chain(
        seed in 0u64..10_000,
        bump in 1usize..64,
        f64_bump in 0.01f64..2.0,
    ) {
        let config = IndexConfig::default();
        let genuine = config.fingerprint_base(seed).value();

        let variants = [
            IndexConfig { shortlist: config.shortlist + bump, ..config },
            IndexConfig { max_cylinders: config.max_cylinders + bump, ..config },
            IndexConfig { lss_depth: config.lss_depth + bump, ..config },
            IndexConfig { distance_bin: config.distance_bin + f64_bump, ..config },
            IndexConfig { angle_bins: config.angle_bins + bump, ..config },
        ];
        for (i, variant) in variants.iter().enumerate() {
            prop_assert!(
                variant.fingerprint_base(seed).value() != genuine,
                "config field {} perturbed undetected",
                i
            );
        }
        prop_assert_ne!(config.fingerprint_base(seed ^ 1).value(), genuine);
    }
}

/// Fold-order determinism across shard counts: the search spine merges
/// per-shard parts into the global-fusion order, so for every S (including
/// an S exceeding the gallery, leaving shards empty) the results of
/// `search_backends` over round-robin-dealt backends, folded into a chain
/// with the run's base, equal the unsharded run fingerprint after the same
/// probes at the same budgets.
#[test]
fn sharded_run_fingerprints_equal_unsharded_for_every_shard_count() {
    const N: usize = 12;
    const SEED: u64 = 2013;
    let templates = gallery(9, N);
    let config = IndexConfig::default();

    let mut unsharded =
        CandidateIndex::with_config(PairTableMatcher::default(), config).with_run_seed(SEED);
    unsharded.enroll_all(&templates);

    let probes: Vec<Template> = (0..3)
        .map(|p| second_capture(&templates[p * 4], 31 + p as u64))
        .collect();
    for probe in &probes {
        for budget in [0usize, N / 2, N] {
            let _ = unsharded.search_with_budget(probe, budget);
        }
    }
    let reference = unsharded.run_fingerprint();
    assert_eq!(reference.searches, (probes.len() * 3) as u64);

    for s in [1usize, 2, 3, 7] {
        let mut backends: Vec<CandidateIndex<PairTableMatcher>> = (0..s)
            .map(|_| CandidateIndex::with_config(PairTableMatcher::default(), config))
            .collect();
        for (g, t) in templates.iter().enumerate() {
            backends[g % s].enroll(t);
        }
        let chain = RunFingerprint::new(config.fingerprint_base(SEED));
        for probe in &probes {
            for budget in [0usize, N / 2, N] {
                chain.record_item(&search_backends(&backends, probe, budget).expect("in-process"));
            }
        }
        let snapshot = chain.snapshot();
        assert_eq!(
            snapshot, reference,
            "S={s}: sharded run fingerprint diverged from unsharded"
        );
    }
}

/// Thread determinism: eight workers draining a shared queue of searches
/// in whatever order the scheduler picks reach the same cumulative
/// fingerprint as a single thread folding them sequentially — the
/// accumulator combines per-search chains commutatively.
#[test]
fn eight_threads_reach_the_single_thread_fingerprint() {
    const WORKERS: usize = 8;
    const SEARCHES: usize = 64;
    let base = IndexConfig::default().fingerprint_base(77);

    // Synthetic per-search results: cheap, distinct, deterministic.
    let results: Vec<SearchResult> = (0..SEARCHES)
        .map(|i| {
            let ids: Vec<u32> = (0..(1 + i % 5) as u32).map(|k| k * 7 + i as u32).collect();
            let scores: Vec<f64> = ids.iter().map(|&id| 50.0 - f64::from(id) * 0.25).collect();
            shortlist(&ids, &scores, 1_000)
        })
        .collect();

    let sequential = RunFingerprint::new(base);
    for result in &results {
        sequential.record_item(result);
    }

    for round in 0..4 {
        let concurrent = RunFingerprint::new(base);
        let next = Arc::new(AtomicUsize::new(0));
        let results = Arc::new(results.clone());
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                let runfp = concurrent.clone();
                let next = Arc::clone(&next);
                let results = Arc::clone(&results);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= results.len() {
                        break;
                    }
                    runfp.record_item(&results[i]);
                });
            }
        });
        assert_eq!(
            concurrent.snapshot(),
            sequential.snapshot(),
            "round {round}: thread interleaving changed the cumulative fingerprint"
        );
    }
}
