//! Exactness and recall guarantees of the candidate index.
//!
//! * With a shortlist budget of K = N the index must return rank lists
//!   *identical* to brute-force `compare_prepared` over the whole gallery —
//!   property-tested over random small templates.
//! * At the default budget, shortlist recall on seeded genuine probes must
//!   stay ≥ 0.98: pruning may only ever touch impostors, rarely mates.

use fp_core::geometry::{Direction, Point, RigidMotion, Vector};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_index::{CandidateIndex, IndexConfig};
use fp_match::{PairTableMatcher, PreparableMatcher};
use proptest::prelude::*;
use rand::Rng;

/// A deterministic synthetic template with `n` well-spread minutiae.
fn synthetic_template(seed: u64, n: usize) -> Template {
    let mut rng = SeedTree::new(seed).child(&[0xF1]).rng();
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
            1.0,
        ));
    }
    Template::builder(500.0)
        .capture_window_mm(20.0, 24.0)
        .extend(minutiae)
        .build()
        .unwrap()
}

/// A "second capture" of `template`: jittered minutiae, a small rigid
/// motion, and a few drops — the perturbation scale the matcher tests use
/// for graceful-degradation checks.
fn second_capture(template: &Template, seed: u64) -> Template {
    let mut rng = SeedTree::new(seed).child(&[0xF2]).rng();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// K = N: the shortlist covers the whole gallery, so the candidate list
    /// (ids *and* exact scores, in order) must equal brute force over all
    /// entries, and the genuine rank must match a hand-rolled count.
    #[test]
    fn full_budget_search_equals_brute_force(
        gallery_seed in 0u64..1_000,
        n in 4usize..14,
        probe_pick in 0usize..14,
    ) {
        let templates: Vec<Template> = (0..n)
            .map(|i| synthetic_template(gallery_seed * 1_000 + i as u64, 18 + (i * 5) % 18))
            .collect();
        let matcher = PairTableMatcher::default();
        let mut index = CandidateIndex::with_config(
            PairTableMatcher::default(),
            IndexConfig {
                shortlist: n,
                ..IndexConfig::default()
            },
        );
        index.enroll_all(&templates);

        let pick = probe_pick % n;
        let probe = second_capture(&templates[pick], gallery_seed ^ 0xABCD);

        let result = index.search(&probe);
        let reference = index.brute_force(&probe);
        prop_assert_eq!(result.candidates(), reference.candidates());
        prop_assert_eq!(result.pruned(), 0);

        // Against a fully independent brute force too (fresh prepares).
        let probe_prepared = matcher.prepare(&probe);
        let mut expected: Vec<(u32, f64)> = templates
            .iter()
            .enumerate()
            .map(|(id, t)| {
                (
                    id as u32,
                    matcher
                        .compare_prepared(&matcher.prepare(t), &probe_prepared)
                        .value(),
                )
            })
            .collect();
        expected.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("scores are finite")
                .then(a.0.cmp(&b.0))
        });
        let got: Vec<(u32, f64)> = result
            .candidates()
            .iter()
            .map(|c| (c.id, c.score.value()))
            .collect();
        prop_assert_eq!(got, expected);

        // Rank semantics match fp-stats' pessimistic tie handling.
        let own = result
            .candidates()
            .iter()
            .find(|c| c.id == pick as u32)
            .expect("full budget includes everyone")
            .score;
        let hand_rank = 1 + result
            .candidates()
            .iter()
            .filter(|c| c.id != pick as u32 && c.score >= own)
            .count();
        prop_assert_eq!(result.genuine_rank(pick as u32), Some(hand_rank));
    }
}

#[test]
fn default_budget_recall_is_high_on_seeded_data() {
    const GALLERY: usize = 400;
    const PROBES: usize = 150;
    let templates: Vec<Template> = (0..GALLERY)
        .map(|i| synthetic_template(7_000 + i as u64, 22 + i % 14))
        .collect();
    let mut index =
        CandidateIndex::with_config(PairTableMatcher::default(), IndexConfig::scaled(GALLERY));
    index.enroll_all(&templates);

    let mut in_shortlist = 0usize;
    let mut rank1_agree = 0usize;
    for (p, template) in templates.iter().enumerate().take(PROBES) {
        let probe = second_capture(template, 90_000 + p as u64);
        let result = index.search(&probe);
        if result.genuine_rank(p as u32).is_some() {
            in_shortlist += 1;
        }
        let reference = index.brute_force(&probe);
        if result.best().map(|c| c.id) == reference.best().map(|c| c.id) {
            rank1_agree += 1;
        }
    }
    let recall = in_shortlist as f64 / PROBES as f64;
    assert!(
        recall >= 0.98,
        "shortlist recall {recall:.3} ({in_shortlist}/{PROBES}) below 0.98"
    );
    assert!(
        rank1_agree as f64 / PROBES as f64 >= 0.98,
        "rank-1 agreement with brute force too low: {rank1_agree}/{PROBES}"
    );
}

#[test]
fn batch_and_sequential_enrollment_build_identical_indexes() {
    let templates: Vec<Template> = (0..40)
        .map(|i| synthetic_template(3_000 + i, 20 + i as usize % 12))
        .collect();
    let mut batch = CandidateIndex::new(PairTableMatcher::default());
    batch.enroll_all(&templates);
    let mut sequential = CandidateIndex::new(PairTableMatcher::default());
    for t in &templates {
        sequential.enroll(t);
    }
    for p in [0usize, 7, 23] {
        let probe = second_capture(&templates[p], 555 + p as u64);
        let a = batch.search(&probe);
        let b = sequential.search(&probe);
        assert_eq!(a.candidates(), b.candidates());
    }
}

#[test]
fn telemetry_does_not_change_results_and_counts_work() {
    let telemetry = fp_telemetry::Telemetry::enabled();
    let templates: Vec<Template> = (0..60)
        .map(|i| synthetic_template(11_000 + i, 24))
        .collect();
    let mut plain = CandidateIndex::new(PairTableMatcher::default());
    plain.enroll_all(&templates);
    let mut metered = CandidateIndex::new(PairTableMatcher::default()).with_telemetry(&telemetry);
    metered.enroll_all(&templates);

    let probe = second_capture(&templates[31], 4_242);
    assert_eq!(
        plain.search(&probe).candidates(),
        metered.search(&probe).candidates()
    );

    let snap = telemetry.snapshot();
    assert_eq!(snap.counters["index.enrolled"], 60);
    assert_eq!(snap.counters["index.searches"], 1);

    // hamming_ops meters the true packed-u64 word comparisons —
    // recompute the expectation through the public scalar oracle (one
    // similarity per gallery entry).
    let mcc = fp_match::MccMatcher::default();
    let cap = plain.config().max_cylinders;
    let depth = plain.config().lss_depth;
    let probe_codes = fp_index::CylinderCodes::extract(&mcc, &probe, cap);
    let mut scratch = fp_index::Stage1Scratch::new();
    let expected_word_ops: u64 = templates
        .iter()
        .map(|t| {
            let codes = fp_index::CylinderCodes::extract(&mcc, t, cap);
            probe_codes
                .reference_similarity(&codes, depth, &mut scratch)
                .1
        })
        .sum();
    assert!(expected_word_ops > 60, "word ops must exceed one-per-entry");
    assert_eq!(snap.counters["index.search.hamming_ops"], expected_word_ops);

    let k = snap.counters["index.search.rerank_comparisons"];
    assert_eq!(k, plain.config().shortlist as u64);
    assert_eq!(snap.counters["index.search.candidates_pruned"], 60 - k);
    assert!(snap.counters["index.search.bucket_hits"] > 0);
    // The batch path records one build sample per template plus one
    // whole-batch sample in its own histogram — no mixing.
    assert_eq!(snap.durations["index.build.seconds"].count, 60);
    assert_eq!(snap.durations["index.build.batch_seconds"].count, 1);
    assert_eq!(snap.durations["index.search.seconds"].count, 1);
}
