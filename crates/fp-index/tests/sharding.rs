//! Search over round-robin shards must be *byte-identical* to the
//! unsharded index.
//!
//! The claim is exactness (DESIGN.md, "The search spine"): per-entry
//! stage-1 channel scores are shard-invariant, fusion runs once globally,
//! and the per-shard exact re-ranks merge under the same strict total
//! order. These tests pin that claim for `search_backends` over
//! round-robin-dealt `CandidateIndex` backends — what a set of shard
//! processes holds — across shard counts (including more shards than
//! templates, so some shards are empty), gallery sizes not divisible by S,
//! and shortlist budgets from 0 through past the gallery size; plus the
//! work meters' partition and the deal check.

use fp_core::geometry::{Direction, Point, RigidMotion, Vector};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_index::{search_backends, CandidateIndex, IndexConfig, ShardBackend, ShardError};
use fp_match::PairTableMatcher;
use fp_telemetry::Telemetry;
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

/// `s` empty indexes under `config`.
fn empty(s: usize, config: IndexConfig) -> Vec<CandidateIndex<PairTableMatcher>> {
    (0..s)
        .map(|_| CandidateIndex::with_config(PairTableMatcher::default(), config))
        .collect()
}

/// `templates` enrolled round-robin into `shards` — template `g` on shard
/// `g % S` as its local id `g / S`, the deal a coordinator makes.
fn dealt(
    templates: &[Template],
    mut shards: Vec<CandidateIndex<PairTableMatcher>>,
) -> Vec<CandidateIndex<PairTableMatcher>> {
    let s = shards.len();
    for (g, t) in templates.iter().enumerate() {
        shards[g % s].enroll(t);
    }
    shards
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The central claim: for every shard count (1, 2, 3, and a 7 that
    /// exceeds small galleries, leaving shards empty), every budget
    /// (empty, single, partial, exact, and over-full), and gallery sizes
    /// that do not divide evenly, the candidate list over dealt backends —
    /// ids AND scores, in order — equals the unsharded one; and at full
    /// budget both equal brute force.
    #[test]
    fn sharded_equals_unsharded_equals_brute_force(
        seed in 0u64..500,
        n in 1usize..15,
        probe_pick in 0usize..15,
    ) {
        let templates = gallery(seed, n);
        let probe = second_capture(&templates[probe_pick % n], seed ^ 0x51AD);
        let config = IndexConfig::default();

        let mut unsharded = CandidateIndex::with_config(PairTableMatcher::default(), config);
        unsharded.enroll_all(&templates);

        for s in [1usize, 2, 3, 7] {
            let backends = dealt(&templates, empty(s, config));
            for budget in [0usize, 1, n / 2, n, n + 5] {
                let a = unsharded.search_with_budget(&probe, budget);
                let b = search_backends(&backends, &probe, budget).expect("in-process");
                prop_assert_eq!(
                    a.candidates(),
                    b.candidates(),
                    "shards={} budget={} n={}",
                    s,
                    budget,
                    n
                );
                prop_assert_eq!(a.gallery_len(), b.gallery_len());
                prop_assert_eq!(a.pruned(), b.pruned());
            }

            // Full budget degenerates to exact brute force.
            let full = search_backends(&backends, &probe, n).expect("in-process");
            let reference = unsharded.brute_force(&probe);
            prop_assert_eq!(full.candidates(), reference.candidates());
        }
    }
}

#[test]
fn empty_sharded_gallery_returns_empty_result() {
    let backends = empty(4, IndexConfig::default());
    let probe = synthetic_template(1, 20);
    let result = search_backends(&backends, &probe, 10).expect("in-process");
    assert!(result.candidates().is_empty());
    assert_eq!(result.gallery_len(), 0);
}

/// `search_backends` adopts shard sizes it did not deal itself, so it
/// checks them first: backends holding 3 and 0 entries, or 1 and 2, are
/// not a round-robin deal of their total and are refused with a typed
/// error naming the first shard that holds the wrong number — not an
/// out-of-bounds panic while stitching stage 1.
#[test]
fn search_backends_refuses_backends_that_are_not_a_round_robin_deal() {
    let templates = gallery(61, 3);
    let probe = second_capture(&templates[0], 6_100);
    for lens in [[3usize, 0], [1, 2]] {
        let mut backends = empty(2, IndexConfig::default());
        let mut next = templates.iter();
        for (backend, &len) in backends.iter_mut().zip(&lens) {
            for t in next.by_ref().take(len) {
                backend.enroll(t);
            }
        }
        match search_backends(&backends, &probe, 3) {
            Err(ShardError::Protocol { shard: 0, detail }) => assert!(
                detail.contains("round-robin deal of 3 over 2 shards"),
                "{detail}"
            ),
            other => panic!("lens {lens:?}: expected a protocol error on shard 0, got {other:?}"),
        }
    }
}

/// The transport-independent reference driver (`search_backends` over the
/// `ShardBackend` trait) produces the same bytes as the unsharded index on
/// a larger gallery: round-robin-dealt `CandidateIndex` backends are
/// exactly what a set of remote shard servers holds.
#[test]
fn backend_driver_matches_unsharded() {
    const N: usize = 26;
    let templates = gallery(77, N);
    let config = IndexConfig::default();

    let mut unsharded = CandidateIndex::with_config(PairTableMatcher::default(), config);
    unsharded.enroll_all(&templates);

    for s in [1usize, 2, 3, 5] {
        let backends = dealt(&templates, empty(s, config));
        for p in [0usize, 7, 19] {
            let probe = second_capture(&templates[p], 4_400 + p as u64);
            for budget in [0usize, 1, N / 2, N, N + 3] {
                let via_trait = search_backends(&backends, &probe, budget).expect("in-process");
                let via_plain = unsharded.search_with_budget(&probe, budget);
                assert_eq!(via_trait.candidates(), via_plain.candidates(), "s={s}");
                assert_eq!(via_trait.gallery_len(), N);
            }
        }
    }
}

/// Every entry's fused key `(better rank, worse rank, id)`, from both
/// channels ranked in full (score desc by `total_cmp`, id asc).
fn fused_keys(vote_scores: &[f64], cyl_scores: &[f64]) -> Vec<(u32, u32, u32)> {
    let ranks = |scores: &[f64]| {
        let mut order: Vec<u32> = (0..scores.len() as u32).collect();
        order.sort_by(|&a, &b| {
            scores[b as usize]
                .total_cmp(&scores[a as usize])
                .then(a.cmp(&b))
        });
        let mut ranks = vec![0u32; scores.len()];
        for (rank, &id) in (0u32..).zip(&order) {
            ranks[id as usize] = rank;
        }
        ranks
    };
    let (votes, codes) = (ranks(vote_scores), ranks(cyl_scores));
    (0..vote_scores.len())
        .map(|id| {
            let (v, c) = (votes[id], codes[id]);
            (v.min(c), v.max(c), id as u32)
        })
        .collect()
}

/// The one global fusion selects one set whatever the shard count: S ∈
/// {1, 2, 3, 7} deal out the same global ids, the k smallest fused keys.
/// Every shard's slice arrives in ascending fused-key order with ranks of
/// k or more read as k — the order its part is re-ranked and folded into
/// the shard's part chain in. Scores are a real probe's stage 1, and a
/// coarsened copy of it that ties often.
#[test]
fn every_shard_count_selects_one_set_in_fused_order() {
    use fp_index::shard::select_per_shard;

    const N: usize = 40;
    let templates = gallery(515, N);
    let mut index = CandidateIndex::new(PairTableMatcher::default());
    index.enroll_all(&templates);
    for p in [0usize, 13, 31] {
        let probe = second_capture(&templates[p], 8_800 + p as u64);
        let scores = index.stage_one(&probe).expect("in-process");
        let coarse =
            |scores: &[f64]| -> Vec<f64> { scores.iter().map(|x| (x * 4.0).round()).collect() };
        for (votes, codes) in [
            (scores.vote_scores.clone(), scores.cyl_scores.clone()),
            (coarse(&scores.vote_scores), coarse(&scores.cyl_scores)),
        ] {
            let keys = fused_keys(&votes, &codes);
            let mut by_key = keys.clone();
            by_key.sort_unstable();
            for budget in [0usize, 1, N / 3, N - 1, N, N + 5] {
                let mut expected: Vec<u32> =
                    by_key.iter().take(budget).map(|&(_, _, id)| id).collect();
                let beyond = budget.min(N) as u32;
                let order_key = |id: u32| {
                    let (better, worse, _) = keys[id as usize];
                    (better, worse.min(beyond), id)
                };
                let mut in_order = expected.clone();
                in_order.sort_unstable_by_key(|&id| order_key(id));
                expected.sort_unstable();
                for s in [1usize, 2, 3, 7] {
                    let slices = select_per_shard(&votes, &codes, budget, s);
                    assert_eq!(slices.len(), s);
                    let mut dealt = Vec::new();
                    for (k, slice) in slices.iter().enumerate() {
                        let global: Vec<u32> = slice
                            .iter()
                            .map(|&local| local * s as u32 + k as u32)
                            .collect();
                        assert!(
                            global.windows(2).all(|w| order_key(w[0]) < order_key(w[1])),
                            "shard {k} of {s}, budget {budget}: {global:?} not in fused order"
                        );
                        dealt.extend(global);
                    }
                    if s == 1 {
                        assert_eq!(dealt, in_order, "budget={budget}");
                    }
                    dealt.sort_unstable();
                    assert_eq!(dealt, expected, "s={s} budget={budget}");
                }
            }
        }
    }
}

/// The empty-selection rule — a shard whose slice of the selection is empty
/// gets no stage-2 call and folds nothing into its part chain — is the one
/// place search drivers could drift apart, so pin it where it bites: three
/// entries over seven shards (four shards hold nothing) at budgets that
/// select none, one and all of them. Candidates and the canonical RUNFP
/// chain must agree between the unsharded index and standalone backends
/// driven by `search_backends`, and each backend's part chain holds only
/// the parts it served.
#[test]
fn empty_selections_fold_nothing_in_any_driver() {
    use fp_telemetry::RunFingerprint;

    const N: usize = 3;
    const S: usize = 7;
    let templates = gallery(313, N);
    let config = IndexConfig::default();

    let mut unsharded = CandidateIndex::with_config(PairTableMatcher::default(), config);
    unsharded.enroll_all(&templates);
    let backends = dealt(&templates, empty(S, config));
    // `search_backends` keeps no chain of its own; fold its results here.
    let via_trait_chain = RunFingerprint::new(config.fingerprint_base(0));

    let mut served = 0;
    for budget in [0usize, 1, N] {
        let probe = second_capture(&templates[budget % N], 5_150 + budget as u64);
        let via_trait = search_backends(&backends, &probe, budget).expect("in-process");
        let via_plain = unsharded.search_with_budget(&probe, budget);
        assert_eq!(via_trait.candidates().len(), budget);
        assert_eq!(via_trait.candidates(), via_plain.candidates());
        via_trait_chain.record_item(&via_trait);
        served += budget as u64;
    }

    assert_eq!(unsharded.run_fingerprint(), via_trait_chain.snapshot());
    let standalone: Vec<_> = backends.iter().map(|b| b.part_fingerprint()).collect();
    // Only non-empty parts were folded: one per selected entry here (each
    // occupied shard holds a single entry), none on the four empty shards.
    assert_eq!(standalone.iter().map(|fp| fp.searches).sum::<u64>(), served);
    for fp in &standalone[N..] {
        assert_eq!(fp.searches, 0);
    }
}

/// Work is metered by the index that does it, on every route — and an
/// index whose slice of the selection came back empty (so it never hears
/// about stage 2) still accounts for its pruned entries. Standalone
/// backends, each metering on its own registry, partition the unsharded
/// index's work exactly: the work counters are pure functions of
/// probe x entries.
#[test]
fn every_route_meters_its_work_and_empty_selections_still_settle() {
    const N: usize = 3;
    const S: usize = 7;
    let templates = gallery(414, N);
    let probe = second_capture(&templates[1], 6_001);

    // The `ShardBackend` route — what a shard process serves.
    let telemetry = Telemetry::enabled();
    let mut served = CandidateIndex::new(PairTableMatcher::default()).with_telemetry(&telemetry);
    served.enroll_all(&templates);
    served.stage_one(&probe).unwrap();
    served.stage_two(&probe, &[2]).unwrap();
    // The top-level route, selecting nothing.
    served.search_with_budget(&probe, 0);
    let snap = telemetry.snapshot();
    assert_eq!(snap.counters["index.searches"], 2);
    assert_eq!(snap.counters["index.search.rerank_comparisons"], 1);
    assert_eq!(
        snap.counters["index.search.candidates_pruned"],
        (N - 1 + N) as u64
    );
    assert!(snap.counters["index.search.hamming_ops"] > 0);
    assert_eq!(snap.durations["index.search.seconds"].count, 1);

    // `search_backends` over seven standalone backends: at budget 1 six of
    // seven sit stage 2 out — four of them hold nothing at all.
    let plain_telemetry = Telemetry::enabled();
    let mut plain =
        CandidateIndex::new(PairTableMatcher::default()).with_telemetry(&plain_telemetry);
    plain.enroll_all(&templates);
    let registries: Vec<Telemetry> = (0..S).map(|_| Telemetry::enabled()).collect();
    let backends = dealt(
        &templates,
        registries
            .iter()
            .map(|t| CandidateIndex::new(PairTableMatcher::default()).with_telemetry(t))
            .collect(),
    );
    for budget in [0usize, 1, N] {
        assert_eq!(
            search_backends(&backends, &probe, budget)
                .expect("in-process")
                .candidates(),
            plain.search_with_budget(&probe, budget).candidates()
        );
    }
    let whole = plain_telemetry.snapshot().counters;
    let parts: Vec<_> = registries.iter().map(|t| t.snapshot().counters).collect();
    for key in [
        "index.enrolled",
        "index.search.hamming_ops",
        "index.search.bucket_hits",
        "index.search.rerank_comparisons",
        "index.search.candidates_pruned",
    ] {
        let sum: u64 = parts.iter().map(|counters| counters[key]).sum();
        assert_eq!(sum, whole[key], "backends partition {key}");
    }
    // `index.searches` fans out: every backend served every search.
    for counters in &parts {
        assert_eq!(counters["index.searches"], whole["index.searches"]);
    }
}
