//! Telemetry overhead: the disabled instruments must cost next to nothing
//! (no clock reads, no allocation), and the enabled ones only a relaxed
//! atomic or a clock read — cheap against a ~1 ms template comparison.

use criterion::Criterion;
use std::hint::black_box;

use fp_core::MatchScore;
use fp_index::{Candidate, IndexConfig, SearchResult};
use fp_telemetry::{RunFingerprint, Telemetry};

pub fn benches(c: &mut Criterion) {
    let disabled = Telemetry::disabled();
    let enabled = Telemetry::enabled();

    let mut group = c.benchmark_group("counter");
    let off = disabled.counter("bench.counter");
    let on = enabled.counter("bench.counter");
    group.bench_function("disabled_add", |b| b.iter(|| off.add(black_box(3))));
    group.bench_function("enabled_add", |b| b.iter(|| on.add(black_box(3))));
    group.finish();

    let mut group = c.benchmark_group("value_histogram");
    let off = disabled.value("bench.value");
    let on = enabled.value("bench.value");
    group.bench_function("disabled_record", |b| b.iter(|| off.record(black_box(42))));
    group.bench_function("enabled_record", |b| b.iter(|| on.record(black_box(42))));
    group.finish();

    let mut group = c.benchmark_group("span");
    group.bench_function("disabled", |b| {
        b.iter(|| {
            let _span = disabled.span(black_box("bench.span"));
        })
    });
    group.bench_function("enabled", |b| {
        b.iter(|| {
            let _span = enabled.span(black_box("bench.span"));
        })
    });
    group.finish();

    // RUNFP cost: what every search pays to maintain the run fingerprint.
    // `fold_shortlist48` is one full per-search chain (a default-shortlist
    // result folded candidate by candidate); `record_shortlist48` adds the
    // commutative combine into the shared accumulator — the whole
    // per-search overhead, which must stay trivial against a ~25 ms
    // 2000-entry search.
    let shortlist: Vec<Candidate> = (0..48)
        .map(|i| Candidate {
            id: i * 41 % 2000,
            score: MatchScore::new(30.0 - f64::from(i) * 0.37),
        })
        .collect();
    let result = SearchResult::from_parts(shortlist, 2_000);
    let base = IndexConfig::default().fingerprint_base(7);
    let runfp = RunFingerprint::new(base);
    let mut group = c.benchmark_group("fingerprint");
    group.bench_function("fold_shortlist48", |b| {
        b.iter(|| {
            let mut chain = base;
            chain.fold(black_box(&result));
            black_box(chain.value())
        })
    });
    group.bench_function("record_shortlist48", |b| {
        b.iter(|| black_box(runfp.record_item(black_box(&result))))
    });
    group.finish();

    // End to end: the whole pipeline with and without instrumentation. The
    // two must be within noise of each other when telemetry is disabled.
    use fp_study::config::StudyConfig;
    use fp_study::scores::StudyData;
    let config = StudyConfig::builder()
        .subjects(4)
        .seed(11)
        .impostors_per_cell(8)
        .build();
    let mut group = c.benchmark_group("study");
    group.sample_size(10);
    group.bench_function("uninstrumented", |b| {
        b.iter(|| black_box(StudyData::generate(black_box(&config))))
    });
    group.bench_function("instrumented", |b| {
        b.iter(|| {
            let telemetry = Telemetry::enabled();
            black_box(StudyData::generate_with(black_box(&config), &telemetry))
        })
    });
    group.finish();
}
