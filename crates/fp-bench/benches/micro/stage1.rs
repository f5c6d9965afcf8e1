//! Stage-1 cylinder scoring over a 2,000-entry gallery whose arena fits in
//! cache: `CodeArena::score_into` (`arena_2k`: the lane body the host's
//! CPU selects, `fp_index::lane_body_name()`, on one entry range per core)
//! beside the serial scalar oracle it is held bitwise equal to
//! (`reference_2k`; pinned by fp-index's kernel proptest suite and `study
//! check-kernel`). `arena_2k` therefore reads slower whenever the host
//! lends the process fewer cores than it reports. The pair is the
//! kernel's quick check; the 10k rung, where the arena outgrows L2, is the
//! benchmark's `identify_10k` (`index.stage1_codes_ms`).

use fp_bench::harness::Harness;
use std::hint::black_box;

use fp_index::{CandidateIndex, IndexConfig};
use fp_match::PairTableMatcher;

pub fn benches(c: &mut Harness) {
    let cohort = crate::cohort(2_000);
    let probe = cohort.probe(0).1;
    let mut index = CandidateIndex::with_config(
        PairTableMatcher::default(),
        IndexConfig::scaled(cohort.pool().len()),
    );
    index.enroll_all(cohort.pool());
    let mut group = c.benchmark_group("stage1");
    group.bench_function("arena_2k", |b| {
        b.iter(|| black_box(index.stage1_cylinder_scores(black_box(&probe))))
    });
    group.bench_function("reference_2k", |b| {
        b.iter(|| black_box(index.stage1_cylinder_scores_reference(black_box(&probe))))
    });
}
