//! Stage-1 kernel equivalence: the SoA arena kernel, on whichever lane
//! body the host runs, must be **byte-identical** to the scalar reference
//! path, not merely close.
//!
//! * Over random packed code sets (random widths, cylinder counts,
//!   sparsity, `lss_depth`), `CodeArena::score_into` must produce bitwise
//!   the same per-entry scores and exactly the same `hamming_ops` count as
//!   the entry-at-a-time scalar oracle (`reference_similarity`).
//! * Mixed-width code sets (templates prepared under different MCC grids)
//!   must follow `hamming`'s excess-word tail rule in both kernels.
//! * On real extracted templates, the enrolled index's kernel scores must
//!   be bitwise reproducible from freshly extracted codes — pinning the
//!   arena packing itself, not just the arithmetic.
//! * `lss_depth == 0` is rejected at config validation with a typed error
//!   (regression: it used to be silently clamped to 1 deep in the kernel).
//! * A bucket table whose ids name no entry is refused when an index
//!   adopts it, not at the first search's vote.

use fp_core::geometry::{Direction, Point};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_index::{
    CandidateIndex, CodeArena, CylinderCodes, IndexConfig, IndexConfigError, Stage1Scratch,
    TableLoader, LANE_WORDS,
};
use fp_match::{MccMatcher, PairTableConfig, PairTableMatcher, PreparableMatcher};
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
        minutiae.push(Minutia::new(
            pos,
            Direction::from_radians(rng.gen::<f64>() * std::f64::consts::TAU),
            MinutiaKind::RidgeEnding,
            rng.gen::<f64>() * 0.5 + 0.5,
        ));
    }
    Template::builder(500.0)
        .capture_window_mm(20.0, 24.0)
        .extend(minutiae)
        .build()
        .unwrap()
}

/// Builds a code set of `cylinders` cylinders x `words_per` words, drawing
/// words from `pool` (cycling); cylinders at `i % zero_every == 0` are
/// forced all-zero so the mass-0 skip rule is exercised on every case.
fn draw_codes(
    pool: &[u64],
    cursor: &mut usize,
    cylinders: usize,
    words_per: usize,
    zero_every: usize,
) -> CylinderCodes {
    let mut words = Vec::with_capacity(cylinders * words_per);
    let mut ones = Vec::with_capacity(cylinders);
    for i in 0..cylinders {
        let mut set = 0u32;
        for _ in 0..words_per {
            let word = if i % zero_every == 0 {
                0
            } else {
                let w = pool[*cursor % pool.len()];
                *cursor += 1;
                w
            };
            set += word.count_ones();
            words.push(word);
        }
        ones.push(set);
    }
    CylinderCodes::from_raw(words, ones, words_per)
}

/// Scores every arena entry twice — arena kernel and scalar reference —
/// and asserts bitwise score identity plus exact op-count identity.
fn assert_kernels_agree(
    arena: &CodeArena,
    probe: &CylinderCodes,
    lss_depth: usize,
) -> Result<(), TestCaseError> {
    let mut scratch = Stage1Scratch::new();
    let mut blocked = vec![0.0f64; arena.len()];
    let mut reference = vec![0.0f64; arena.len()];
    let ops_blocked = arena.score_into(probe, lss_depth, &mut scratch, &mut blocked);
    let ops_reference = arena.score_into_reference(probe, lss_depth, &mut scratch, &mut reference);
    prop_assert_eq!(ops_blocked, ops_reference);
    for (i, (b, r)) in blocked.iter().zip(&reference).enumerate() {
        prop_assert_eq!(
            b.to_bits(),
            r.to_bits(),
            "entry {} diverged: blocked {} vs reference {}",
            i,
            b,
            r
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scalar ≡ kernel over random code sets, widths 1..=9 (the general
    /// body, and the lane body at width 5), random cylinder counts
    /// (including empty entries and an empty probe), random sparsity, and
    /// random `lss_depth`.
    #[test]
    fn arena_kernel_is_byte_identical_to_scalar(
        words_per in 1usize..=9,
        entry_cyls in prop::collection::vec(0usize..10, 1..7),
        probe_cyls in 0usize..10,
        lss_depth in 1usize..20,
        pool in prop::collection::vec(0u64..u64::MAX, 64),
        zero_every in 2usize..5,
    ) {
        let mut cursor = 0usize;
        let mut arena = CodeArena::new();
        let mut entries = Vec::new();
        for &cyls in &entry_cyls {
            let codes = draw_codes(&pool, &mut cursor, cyls, words_per, zero_every);
            arena.push(&codes);
            entries.push(codes);
        }
        let probe = draw_codes(&pool, &mut cursor, probe_cyls, words_per, zero_every);

        assert_kernels_agree(&arena, &probe, lss_depth)?;

        // The reference driver itself must equal the per-entry oracle.
        let mut scratch = Stage1Scratch::new();
        let mut via_arena = vec![0.0f64; arena.len()];
        let mut total_ops = 0u64;
        let ops = arena.score_into(&probe, lss_depth, &mut scratch, &mut via_arena);
        for (entry, &score) in entries.iter().zip(&via_arena) {
            let (expected, entry_ops) = probe.reference_similarity(entry, lss_depth, &mut scratch);
            prop_assert_eq!(expected.to_bits(), score.to_bits());
            total_ops += entry_ops;
        }
        prop_assert_eq!(ops, total_ops, "hamming_ops metering must agree exactly");
    }

    /// The lane body at the shapes it ships on and past them: both sides
    /// `LANE_WORDS` wide, 0..=40 cylinders per side, so a probe fills up
    /// to five groups of the vector body and ends before, on and after a
    /// group edge, with zero cylinders on both sides at once.
    #[test]
    fn lane_body_is_byte_identical_to_scalar(
        entry_cyls in prop::collection::vec(0usize..=40, 1..7),
        probe_cyls in 0usize..=40,
        lss_depth in 1usize..48,
        pool in prop::collection::vec(0u64..u64::MAX, 64),
        zero_every in 2usize..5,
    ) {
        let mut cursor = 0usize;
        let mut arena = CodeArena::new();
        for &cyls in &entry_cyls {
            arena.push(&draw_codes(&pool, &mut cursor, cyls, LANE_WORDS, zero_every));
        }
        let probe = draw_codes(&pool, &mut cursor, probe_cyls, LANE_WORDS, zero_every);
        assert_kernels_agree(&arena, &probe, lss_depth)?;
    }

    /// Mixed widths: gallery packed under one MCC width, probe under
    /// another. Both kernels must apply the excess-word tail rule and
    /// charge `max(width_p, width_g)` ops per unskipped pair.
    #[test]
    fn mixed_width_codes_agree_between_kernels(
        probe_width in 1usize..=6,
        gallery_width in 1usize..=6,
        entry_cyls in prop::collection::vec(1usize..8, 1..5),
        probe_cyls in 1usize..8,
        lss_depth in 1usize..16,
        pool in prop::collection::vec(0u64..u64::MAX, 64),
        zero_every in 2usize..5,
    ) {
        let mut cursor = 0usize;
        let mut arena = CodeArena::new();
        for &cyls in &entry_cyls {
            arena.push(&draw_codes(&pool, &mut cursor, cyls, gallery_width, zero_every));
        }
        let probe = draw_codes(&pool, &mut cursor, probe_cyls, probe_width, zero_every);
        assert_kernels_agree(&arena, &probe, lss_depth)?;
    }

    /// The `hamming` tail rule itself: excess words of the longer side
    /// count every set bit (an absent word reads as all-zero), and the
    /// distance is symmetric.
    #[test]
    fn hamming_tail_counts_excess_set_bits(
        a in prop::collection::vec(0u64..u64::MAX, 0..7),
        b in prop::collection::vec(0u64..u64::MAX, 0..7),
    ) {
        let common = a.len().min(b.len());
        let expected: u32 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum::<u32>()
            + a[common..].iter().map(|w| w.count_ones()).sum::<u32>()
            + b[common..].iter().map(|w| w.count_ones()).sum::<u32>();
        prop_assert_eq!(fp_index::signature::hamming(&a, &b), expected);
        prop_assert_eq!(
            fp_index::signature::hamming(&a, &b),
            fp_index::signature::hamming(&b, &a)
        );
    }

    /// Real extracted templates end to end: the enrolled index's kernel
    /// stage-1 scores must be bitwise reproducible from freshly extracted
    /// cylinder codes — this pins the arena *packing* (enroll-time
    /// `push` order and layout), not just the scoring arithmetic.
    #[test]
    fn enrolled_index_scores_match_fresh_extraction(
        gallery_seed in 0u64..500,
        n in 3usize..9,
        probe_pick in 0usize..9,
    ) {
        let config = IndexConfig::default();
        let templates: Vec<Template> = (0..n)
            .map(|i| synthetic_template(gallery_seed * 1_000 + i as u64, 14 + (i * 7) % 16))
            .collect();
        let mut index = CandidateIndex::with_config(PairTableMatcher::default(), config);
        index.enroll_all(&templates);
        let probe = synthetic_template(gallery_seed ^ 0x5EED, 14 + probe_pick);

        let (blocked, ops_blocked) = index.stage1_cylinder_scores(&probe);
        let (reference, ops_reference) = index.stage1_cylinder_scores_reference(&probe);
        prop_assert_eq!(ops_blocked, ops_reference);
        prop_assert_eq!(blocked.len(), n);

        let mcc = MccMatcher::default();
        let probe_codes = CylinderCodes::extract(&mcc, &probe, config.max_cylinders);
        let mut expected_ops = 0u64;
        let mut scratch = Stage1Scratch::new();
        for (i, template) in templates.iter().enumerate() {
            let entry_codes = CylinderCodes::extract(&mcc, template, config.max_cylinders);
            let (expected, ops) =
                probe_codes.reference_similarity(&entry_codes, config.lss_depth, &mut scratch);
            prop_assert_eq!(blocked[i].to_bits(), expected.to_bits());
            prop_assert_eq!(reference[i].to_bits(), expected.to_bits());
            expected_ops += ops;
        }
        prop_assert_eq!(ops_blocked, expected_ops);
    }
}

#[test]
fn zero_lss_depth_is_rejected_at_construction() {
    let bad = IndexConfig {
        lss_depth: 0,
        ..IndexConfig::default()
    };
    assert_eq!(
        bad.validate(PairTableMatcher::default().config()),
        Err(IndexConfigError::ZeroLssDepth)
    );
    let err = match CandidateIndex::try_with_config(PairTableMatcher::default(), bad) {
        Ok(_) => panic!("lss_depth == 0 must be rejected"),
        Err(err) => err,
    };
    assert_eq!(err, IndexConfigError::ZeroLssDepth);
    assert!(err.to_string().contains("lss_depth"));
}

/// Stage 1 hashes the pair features of the index's own matcher: under an
/// 8 mm pair-distance limit every entry's vote denominator counts the
/// pairs of the table stage 2 scores, not those of the default 12 mm
/// config. A limit whose longest pair's distance bin overflows the bucket
/// key is refused when the index is built.
#[test]
fn stage_one_counts_the_pairs_of_the_index_matcher() {
    let short = |max_pair_distance| {
        PairTableMatcher::new(PairTableConfig {
            max_pair_distance,
            ..PairTableConfig::default()
        })
        .unwrap()
    };
    let mut index = CandidateIndex::new(short(8.0));
    index.enroll_all(
        &(0..6)
            .map(|i| synthetic_template(90 + i, 24))
            .collect::<Vec<_>>(),
    );
    let default_pairs = PairTableMatcher::default();
    for (id, entry) in index.store_entries().enumerate() {
        let (table, pair_count) = entry.unwrap();
        assert_eq!(
            pair_count as usize,
            table.pair_features().count(),
            "entry {id}"
        );
        let twelve_mm = default_pairs.prepare(&synthetic_template(90 + id as u64, 24));
        assert!(
            twelve_mm.len() > table.len(),
            "entry {id}: 8 mm must drop pairs"
        );
    }

    let overflowing = 0.5 * f64::from(1u32 << 21);
    match CandidateIndex::try_with_config(short(overflowing), IndexConfig::default()) {
        Err(err) => assert_eq!(err, IndexConfigError::BadDistanceBin),
        Ok(_) => panic!("a {overflowing} mm pair limit must overflow the 0.5 mm bucket key"),
    }
}

#[test]
#[should_panic(expected = "invalid IndexConfig")]
fn with_config_panics_on_zero_lss_depth() {
    let bad = IndexConfig {
        lss_depth: 0,
        ..IndexConfig::default()
    };
    let _ = CandidateIndex::with_config(PairTableMatcher::default(), bad);
}

#[test]
#[should_panic(expected = "names no entry")]
fn adopting_a_bucket_table_with_a_stray_id_panics_at_construction() {
    let mut index = CandidateIndex::new(PairTableMatcher::default());
    index.enroll_all(&[synthetic_template(1, 20), synthetic_template(2, 20)]);
    let pair_counts = index
        .store_entries()
        .map(|entry| entry.unwrap().1)
        .collect();
    // Shifted past the two entries: valid shape, ids naming no entry.
    let stray = index.buckets().remap(|id| Some(id + 2));
    let _ = CandidateIndex::from_store_parts(
        PairTableMatcher::default(),
        *index.config(),
        pair_counts,
        TableLoader::new(|_| unreachable!("construction loads no table")),
        index.arena().clone(),
        stray,
    );
}
