//! Matcher comparison latency: genuine vs impostor pairs, direct vs
//! prepared paths, pair-table vs Hough — one table per matcher, as
//! Kayaoglu et al. (PAPERS.md) report them. The benchmark's `match.*`
//! metrics time the pair-table matcher only, inside `study_matrix`.

use fp_bench::harness::Harness;
use std::hint::black_box;

use fp_core::ids::{DeviceId, Finger, SessionId};
use fp_core::template::Template;
use fp_core::Matcher;
use fp_match::{HoughMatcher, PairTableMatcher, PreparableMatcher, ScoreCalibration};
use fp_sensor::CaptureProtocol;
use fp_synth::population::{Population, PopulationConfig};

/// Real captures: a subject's D0 session-0 and session-1 impressions (the
/// genuine pair), another subject's D0 session-1 impression (the impostor),
/// and the first subject's session-1 ink card (D4: about twice the
/// minutiae, four times the pair table — the cell the cohort's tail is
/// made of).
fn matcher_fixtures() -> (Template, Template, Template, Template) {
    let population = Population::generate(&PopulationConfig::new(0xBE7C, 2));
    let protocol = CaptureProtocol::new();
    let capture = |subject: usize, device: u8, session: u8| {
        protocol
            .capture(
                &population.subjects()[subject],
                Finger::RIGHT_INDEX,
                DeviceId(device),
                SessionId(session),
            )
            .template()
            .clone()
    };
    (
        capture(0, 0, 0),
        capture(0, 0, 1),
        capture(1, 0, 1),
        capture(0, 4, 1),
    )
}

pub fn benches(c: &mut Harness) {
    let (gallery, probe, impostor, ink_probe) = matcher_fixtures();

    let mut group = c.benchmark_group("pair_table");
    let matcher = PairTableMatcher::default();
    group.bench_function("genuine_direct", |b| {
        b.iter(|| black_box(matcher.compare(black_box(&gallery), black_box(&probe))))
    });
    group.bench_function("impostor_direct", |b| {
        b.iter(|| black_box(matcher.compare(black_box(&gallery), black_box(&impostor))))
    });
    group.bench_function("prepare", |b| {
        b.iter(|| black_box(matcher.prepare(black_box(&gallery))))
    });
    let pg = matcher.prepare(&gallery);
    let pp = matcher.prepare(&probe);
    let pi = matcher.prepare(&impostor);
    group.bench_function("genuine_prepared", |b| {
        b.iter(|| black_box(matcher.compare_prepared(black_box(&pg), black_box(&pp))))
    });
    group.bench_function("impostor_prepared", |b| {
        b.iter(|| black_box(matcher.compare_prepared(black_box(&pg), black_box(&pi))))
    });
    let pd4 = matcher.prepare(&ink_probe);
    group.bench_function("genuine_prepared_d4", |b| {
        b.iter(|| black_box(matcher.compare_prepared(black_box(&pg), black_box(&pd4))))
    });

    let mut group = c.benchmark_group("hough");
    let hough = HoughMatcher::default();
    group.bench_function("genuine", |b| {
        b.iter(|| black_box(hough.compare(black_box(&gallery), black_box(&probe))))
    });
    group.bench_function("impostor", |b| {
        b.iter(|| black_box(hough.compare(black_box(&gallery), black_box(&impostor))))
    });

    let mut group = c.benchmark_group("calibration");
    let calibrated = ScoreCalibration::default().wrap(PairTableMatcher::default());
    group.bench_function("calibrated_genuine", |b| {
        b.iter(|| black_box(calibrated.compare(black_box(&gallery), black_box(&probe))))
    });
}
