//! Lanes ≡ one lane, bitwise.
//!
//! A search splits stage 1's two channels and the re-rank into lanes, one
//! per core. Every score is a pure function of (probe, entry) and every
//! meter an integer sum, so any lane count must return what one lane
//! returns: `vote_scores` and `cyl_scores` to the bit, `bucket_hits` and
//! `hamming_word_ops` to the integer, re-rank parts in selection order —
//! whether a pass finds its tables loaded or loads them on its lanes.
//! Gallery sizes straddle
//! the inline minimum (`MIN_LANE_ENTRIES` entries per lane), from the
//! empty gallery up to seven full lanes; the gallery holds empty-code
//! entries, and some probes have no pairs at all.

use std::sync::{Arc, OnceLock};

use fp_core::geometry::{Direction, Point};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_index::{
    Candidate, CandidateIndex, CodeArena, FlatBuckets, IndexConfig, StageOneScores, TableLoader,
    MIN_LANE_ENTRIES,
};
use fp_match::{PairTableMatcher, PreparedPairTable};
use proptest::prelude::*;
use rand::Rng;

/// Lane counts every pass is held to the one-lane pass at.
const LANES: [usize; 3] = [2, 3, 7];

fn synthetic_template(seed: u64, n: usize) -> Template {
    let mut rng = SeedTree::new(seed).child(&[0x1A]).rng();
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

/// 40 distinct enrolled templates; every fifth has at most one minutia, so
/// no cylinder code and no pair.
fn base() -> &'static CandidateIndex<PairTableMatcher> {
    static BASE: OnceLock<CandidateIndex<PairTableMatcher>> = OnceLock::new();
    BASE.get_or_init(|| {
        let templates: Vec<Template> = (0..40u64)
            .map(|i| {
                let minutiae = if i % 5 == 0 {
                    i as usize % 2
                } else {
                    12 + i as usize % 24
                };
                synthetic_template(0x1A_00 + i, minutiae)
            })
            .collect();
        let mut index = CandidateIndex::new(PairTableMatcher::default());
        index.enroll_all(&templates);
        index
    })
}

/// The parts of an `n`-entry gallery whose entry `i` is base entry
/// `i % 40`: what enrolling the base templates over and over would build,
/// without paying for the enrollments.
struct Parts {
    pair_counts: Vec<u32>,
    tables: Vec<PreparedPairTable>,
    arena: CodeArena,
    buckets: FlatBuckets,
}

fn parts(n: usize) -> Parts {
    let base = base();
    let b = base.len();
    let entries: Vec<(&PreparedPairTable, u32)> =
        base.store_entries().map(Result::unwrap).collect();
    let mut arena = CodeArena::new();
    for i in 0..n {
        arena.push_view(base.arena().entry(i % b));
    }
    let (mut keys, mut lens, mut ids) = (Vec::new(), Vec::new(), Vec::new());
    for (key, owners) in base.buckets().iter() {
        let mut copies: Vec<u32> = owners
            .iter()
            .flat_map(|&owner| (owner as usize..n).step_by(b).map(|i| i as u32))
            .collect();
        if !copies.is_empty() {
            copies.sort_unstable();
            keys.push(key);
            lens.push(copies.len() as u32);
            ids.extend(copies);
        }
    }
    Parts {
        pair_counts: (0..n).map(|i| entries[i % b].1).collect(),
        tables: (0..n).map(|i| entries[i % b].0.clone()).collect(),
        arena,
        buckets: FlatBuckets::from_raw_parts(keys, lens, ids, n).unwrap(),
    }
}

/// Two indexes over `parts`, each loading its tables on first touch: the
/// first serves the one-lane passes, so the second loads its tables on
/// several lanes at once.
fn indexes(parts: &Parts) -> [CandidateIndex<PairTableMatcher>; 2] {
    let shared = Arc::new(parts.tables.clone());
    [(); 2].map(|()| {
        let shared = Arc::clone(&shared);
        CandidateIndex::from_store_parts(
            PairTableMatcher::default(),
            IndexConfig::default(),
            parts.pair_counts.clone(),
            TableLoader::new(move |id| Ok(shared[id as usize].clone())),
            parts.arena.clone(),
            parts.buckets.clone(),
        )
        .unwrap()
    })
}

fn score_bits(scores: &StageOneScores) -> (Vec<u64>, Vec<u64>, u64, u64) {
    let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect();
    (
        bits(&scores.vote_scores),
        bits(&scores.cyl_scores),
        scores.bucket_hits,
        scores.hamming_word_ops,
    )
}

fn part_bits(part: &[Candidate]) -> Vec<(u32, u64)> {
    part.iter()
        .map(|c| (c.id, c.score.value().to_bits()))
        .collect()
}

/// Gallery sizes on both sides of one, two, three and seven full lanes.
fn sizes() -> Vec<usize> {
    let m = MIN_LANE_ENTRIES;
    vec![0, 1, 2, m - 1, m, 2 * m - 1, 2 * m, 3 * m + 1, 7 * m + 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_lane_count_scores_like_one_lane(
        size_at in 0usize..9,
        probe_seed in 0u64..1 << 20,
        probe_minutiae in 0usize..40,
        picks in prop::collection::vec(0u32..1 << 16, 0..40),
    ) {
        let n = sizes()[size_at];
        let parts = parts(n);
        let [one_lane, lanes_first] = indexes(&parts);
        // One probe in three has at most one minutia: no pairs, no codes.
        let probe_minutiae = if probe_minutiae < 13 { probe_minutiae % 2 } else { probe_minutiae };
        let probe = synthetic_template(probe_seed, probe_minutiae);

        let one = one_lane.stage_one_on_lanes(&probe, 1);
        prop_assert_eq!(one.vote_scores.len(), n);
        for lanes in LANES {
            let split = one_lane.stage_one_on_lanes(&probe, lanes);
            prop_assert_eq!(score_bits(&split), score_bits(&one), "{} lanes, {} entries", lanes, n);
        }

        // A selection in no particular order, each id once, as fusion
        // hands it to the re-rank.
        let mut selected: Vec<u32> = Vec::new();
        if n > 0 {
            for pick in picks {
                let id = pick % n as u32;
                if !selected.contains(&id) {
                    selected.push(id);
                }
            }
        }
        let one = part_bits(&one_lane.stage_two_on_lanes(&probe, &selected, 1));
        prop_assert_eq!(one.iter().map(|&(id, _)| id).collect::<Vec<_>>(), selected.clone());
        for lanes in LANES {
            for index in [&lanes_first, &one_lane] {
                let split = part_bits(&index.stage_two_on_lanes(&probe, &selected, lanes));
                prop_assert_eq!(&split, &one, "{} lanes, {} selected", lanes, selected.len());
            }
        }
    }
}

/// The search itself, on the host's lane count: at a full budget it is
/// brute force, whether its tables load during the search or before it.
#[test]
fn a_search_on_the_hosts_lanes_equals_brute_force() {
    let parts = parts(3 * MIN_LANE_ENTRIES + 1);
    let [loaded, loading] = indexes(&parts);
    for seed in 0..3 {
        let probe = synthetic_template(0x2B_00 + seed, 30);
        let brute = loaded.brute_force(&probe);
        for index in [&loading, &loaded] {
            let full = index.search_with_budget(&probe, index.len());
            assert_eq!(full.candidates(), brute.candidates());
        }
    }
}
