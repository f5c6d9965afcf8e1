//! `identify_10k` and `identify_cohort`: one closed-loop client searching an
//! in-process `CandidateIndex`.
//!
//! The two differ only in their inputs. `identify_10k` searches a 10,000-entry
//! synthetic gallery whose code arena is far larger than L2, so ~70 % of a
//! search is the stage-1 kernel: it is the workload on which cache blocking,
//! pruning and SIMD must show. `identify_cohort` searches the 494 real
//! `fp-sensor` captures with probes from all five devices; its gallery is
//! small, so ~75 % of a search is the exact stage-2 re-rank: it bypasses
//! stage-1 kernel work and exercises `fp-match`, and its ink-card probes
//! (D4) give the heavy tail that synthetic probes only approximate.

use std::hint::black_box;

use fp_core::ids::{DeviceId, Finger, SessionId, SubjectId};
use fp_core::template::Template;
use fp_index::shard::{globalize_and_sort, merge_sorted_parts, select_per_shard, stitch_stage_one};
use fp_index::{
    CandidateIndex, CylinderCodes, IndexConfig, SearchResult, ShardBackend, Stage1Scratch,
    StageOneScores,
};
use fp_match::{MccMatcher, PairTableMatcher, PreparableMatcher};
use fp_sensor::CaptureProtocol;
use fp_study::{Dataset, StudyConfig};
use fp_synth::population::{Population, PopulationConfig};
use fp_telemetry::{FingerprintChain, RunFingerprint, Telemetry};

use super::{closed_loop, peak_rss_mb, trace_path, RunArgs, SetupClock, Sizes};
use crate::gen::{self, ProbeKind};
use crate::ledger::Outcome;
use crate::stats;
use crate::trace::Tracer;

/// Which inputs the workload searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Synthetic10k,
    Cohort,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Synthetic10k => "identify_10k",
            Kind::Cohort => "identify_cohort",
        }
    }

    /// Per-class rank-1 metrics, indexed by [`Case::class`].
    fn class_metrics(self) -> &'static [&'static str] {
        match self {
            Kind::Synthetic10k => &[
                "index.rank1.same_device",
                "index.rank1.cross_device",
                "index.rank1.ink_like",
            ],
            Kind::Cohort => &[
                "index.rank1.d0",
                "index.rank1.d1",
                "index.rank1.d2",
                "index.rank1.d3",
                "index.rank1.d4",
            ],
        }
    }

    fn inputs(self, seed: u64, sizes: &Sizes) -> Inputs {
        match self {
            Kind::Synthetic10k => synthetic_inputs(seed, sizes),
            Kind::Cohort => cohort_inputs(seed, sizes),
        }
    }
}

/// One probe and the right answer to it.
pub(crate) struct Case {
    pub template: Template,
    /// Gallery id of the same finger's enrolled capture, if it has one.
    pub mate: Option<u32>,
    /// Probe class (capture profile or probe device); class 0 is a second
    /// capture on the enrolment device.
    pub class: usize,
}

pub(crate) struct Inputs {
    pub gallery: Vec<Template>,
    pub cases: Vec<Case>,
}

/// Rank-1 floor of class 0 (same-device probes), applied once the class has
/// [`FLOOR_MIN_SAMPLES`]: a mated same-device probe that is not ranked
/// first is an index or matcher defect, not sampling noise.
const SAME_DEVICE_RANK1_FLOOR: f64 = 0.98;
const FLOOR_MIN_SAMPLES: u64 = 50;

/// The synthetic gallery and probe list shared by `identify_10k` and
/// `serve_10k`.
pub(crate) fn synthetic_inputs(seed: u64, sizes: &Sizes) -> Inputs {
    let gallery = gen::gallery(seed, sizes.gallery);
    let cases = gen::probes(seed, &gallery, sizes.probes)
        .into_iter()
        .map(|p| Case {
            template: p.template,
            mate: p.mate,
            class: match p.kind {
                ProbeKind::SameDevice => 0,
                ProbeKind::CrossDevice => 1,
                ProbeKind::InkLike => 2,
                ProbeKind::NonMated => 3,
            },
        })
        .collect();
    Inputs { gallery, cases }
}

/// D0 session-0 captures of the whole cohort as gallery; session-1 captures
/// of the first subjects on all five devices as probes, device-interleaved.
fn cohort_inputs(seed: u64, sizes: &Sizes) -> Inputs {
    let config = StudyConfig::builder()
        .subjects(sizes.subjects)
        .seed(seed)
        .build();
    let dataset = Dataset::generate(&config);
    let gallery = (0..sizes.subjects)
        .map(|s| {
            let captures = dataset.captures(SubjectId(s as u32), DeviceId(0));
            captures.gallery.template().clone()
        })
        .collect();
    let mut cases = Vec::new();
    for s in 0..sizes.cohort_probe_subjects.min(sizes.subjects) {
        for device in DeviceId::ALL {
            let captures = dataset.captures(SubjectId(s as u32), device);
            cases.push(Case {
                template: captures.probe.template().clone(),
                mate: Some(s as u32),
                class: device.0 as usize,
            });
        }
    }
    Inputs { gallery, cases }
}

/// The cohort inputs again, built through the public seams of `fp-synth`
/// and `fp-sensor` with a span around each call.
fn cohort_inputs_traced(seed: u64, sizes: &Sizes, tracer: &Tracer) -> Inputs {
    let population = {
        let _span = tracer.span("synth.population");
        Population::generate(&PopulationConfig::new(seed, sizes.subjects))
    };
    let protocol = CaptureProtocol::new();
    let capture = |s: usize, device: DeviceId, session: u8| {
        let _span = tracer.span("sensor.capture");
        let subject = &population.subjects()[s];
        protocol
            .capture(subject, Finger::RIGHT_INDEX, device, SessionId(session))
            .template()
            .clone()
    };
    let gallery = (0..sizes.subjects)
        .map(|s| capture(s, DeviceId(0), 0))
        .collect();
    let mut cases = Vec::new();
    for s in 0..sizes.cohort_probe_subjects.min(sizes.subjects) {
        for device in DeviceId::ALL {
            cases.push(Case {
                template: capture(s, device, 1),
                mate: Some(s as u32),
                class: device.0 as usize,
            });
        }
    }
    Inputs { gallery, cases }
}

pub(crate) fn build_index(gallery: &[Template], seed: u64) -> CandidateIndex<PairTableMatcher> {
    let mut index = CandidateIndex::with_config(
        PairTableMatcher::default(),
        IndexConfig::scaled(gallery.len()),
    )
    .with_run_seed(seed);
    index.enroll_all(gallery);
    index
}

/// A search's canonical fold — `(id, score bits, rank)` of every candidate —
/// as one number: equal digests mean byte-identical candidate lists.
pub(crate) fn result_digest(result: &SearchResult) -> u64 {
    let mut chain = FingerprintChain::new(0);
    chain.fold(result);
    chain.value()
}

/// Rank-1 tallies per probe class, plus the shape and repeatability checks
/// every search result must pass.
pub(crate) struct Verifier {
    gallery_len: usize,
    shortlist: usize,
    hits: Vec<u64>,
    tried: Vec<u64>,
    /// First digest seen for each probe: a repeated probe must reproduce it.
    digests: Vec<Option<u64>>,
}

impl Verifier {
    pub fn new(gallery_len: usize, shortlist: usize, classes: usize, cases: usize) -> Verifier {
        Verifier {
            gallery_len,
            shortlist: shortlist.min(gallery_len),
            hits: vec![0; classes],
            tried: vec![0; classes],
            digests: vec![None; cases],
        }
    }

    /// Checks one result and tallies it. Returns whether the search counts
    /// as succeeded.
    pub fn observe(&mut self, at: usize, case: &Case, result: &SearchResult) -> bool {
        let candidates = result.candidates();
        let shaped = result.gallery_len() == self.gallery_len
            && candidates.len() == self.shortlist
            && candidates.windows(2).all(|w| w[0].score >= w[1].score);
        let digest = result_digest(result);
        let repeatable = *self.digests[at].get_or_insert(digest) == digest;
        if let Some(mate) = case.mate {
            self.tried[case.class] += 1;
            if result.genuine_rank(mate) == Some(1) {
                self.hits[case.class] += 1;
            }
        }
        shaped && repeatable
    }

    /// Adds another verifier's rank-1 tallies (client threads each keep
    /// their own).
    pub fn absorb(&mut self, other: &Verifier) {
        for class in 0..self.hits.len() {
            self.hits[class] += other.hits[class];
            self.tried[class] += other.tried[class];
        }
    }

    /// Rank-1 rate of one probe class.
    pub fn rate(&self, class: usize) -> f64 {
        self.hits[class] as f64 / self.tried[class].max(1) as f64
    }

    /// Rank-1 rate over every mated probe searched.
    pub fn mated_rate(&self) -> f64 {
        self.hits.iter().sum::<u64>() as f64 / self.tried.iter().sum::<u64>().max(1) as f64
    }

    /// Holds the run to the same-device floor and notes every class's rate.
    pub fn conclude(&self, outcome: &mut Outcome, class_metrics: &[&'static str]) {
        for (class, name) in class_metrics.iter().enumerate() {
            outcome.note(
                name,
                format!(
                    "{:.4} ({}/{})",
                    self.rate(class),
                    self.hits[class],
                    self.tried[class]
                ),
            );
        }
        let (rate, tried) = (self.rate(0), self.tried[0]);
        outcome.check(
            tried < FLOOR_MIN_SAMPLES || rate >= SAME_DEVICE_RANK1_FLOOR,
            || format!("same-device rank-1 rate {rate:.4} over {tried} probes is below {SAME_DEVICE_RANK1_FLOOR}"),
        );
    }
}

/// The RUNFP chain over `results`, folded the way an index (or coordinator)
/// seeded with `seed` folds its own searches.
pub(crate) fn parity_chain(
    config: &IndexConfig,
    seed: u64,
    results: impl Iterator<Item = SearchResult>,
) -> String {
    let chain = RunFingerprint::new(config.fingerprint_base(seed));
    for result in results {
        chain.record_item(&result);
    }
    chain.snapshot().hex()
}

pub fn run(kind: Kind, args: &RunArgs) -> Result<Outcome, String> {
    if args.trace {
        traced(kind, args)
    } else {
        untraced(kind, args)
    }
}

fn untraced(kind: Kind, args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let setup = || {
        let inputs = kind.inputs(args.seed, args.sizes);
        let index = build_index(&inputs.gallery, args.seed);
        Ok((inputs, index))
    };
    let mut clock = SetupClock::default();
    let (inputs, index) = clock.time(setup)?;
    let cases = &inputs.cases;
    outcome.note("gallery", index.len());
    outcome.note("distinct_probes", cases.len());
    outcome.note("shortlist", index.config().shortlist);

    // Warm-up; its first searches also give the chain `serve_10k` must match.
    let first = args.sizes.warmup.max(args.sizes.parity_probes);
    let mut warm: Vec<SearchResult> = cases[..first.min(cases.len())]
        .iter()
        .map(|case| index.search(&case.template))
        .collect();
    warm.truncate(args.sizes.parity_probes);
    outcome.note(
        "runfp_parity",
        parity_chain(index.config(), args.seed, warm.into_iter()),
    );

    let classes = kind.class_metrics();
    let mut verifier = Verifier::new(
        index.len(),
        index.config().shortlist,
        classes.len(),
        cases.len(),
    );
    let timed = closed_loop(
        args.seconds,
        &mut outcome,
        |i| index.search(&cases[i % cases.len()].template),
        |i, result| verifier.observe(i % cases.len(), &cases[i % cases.len()], &result),
    );
    timed.report(&mut outcome, timed.latencies_ms.len() as f64);
    outcome.set("peak_rss_mb", peak_rss_mb(std::process::id())?);
    verifier.conclude(&mut outcome, classes);
    drop((inputs, index));
    outcome.set("setup_s", clock.finish(args.sizes.setup_repeats, setup)?);
    Ok(outcome)
}

/// Span names of one seam-driven search: the root, and the two calls into
/// each shard backend.
pub(crate) struct SeamSpans {
    pub root: &'static str,
    pub stage_one: &'static str,
    pub stage_two: &'static str,
}

/// One search driven layer by layer through the public `ShardBackend` seam —
/// the sequence `fp_index::search_backends` runs, over in-process indexes or
/// remote shards alike — with a span around each call. Returns the result
/// and every backend's stage-1 scores.
pub(crate) fn search_by_seam<B: ShardBackend>(
    tracer: &Tracer,
    backends: &[B],
    shortlist: usize,
    probe: &Template,
    trace_id: u64,
    spans: &SeamSpans,
) -> Result<(SearchResult, Vec<StageOneScores>), String> {
    let s = backends.len();
    let total: usize = backends.iter().map(|backend| backend.shard_len()).sum();
    let _root = tracer.root(spans.root, trace_id);
    let mut per_shard = Vec::with_capacity(s);
    for backend in backends {
        let _span = tracer.span(spans.stage_one);
        per_shard.push(backend.stage_one(probe).map_err(|e| e.to_string())?);
    }
    let selected = {
        let _span = tracer.span("index.fuse");
        let (votes, codes) = stitch_stage_one(&per_shard, total);
        select_per_shard(&votes, &codes, shortlist, s)
    };
    let mut parts = Vec::with_capacity(s);
    for (backend, selected) in backends.iter().zip(&selected) {
        let _span = tracer.span(spans.stage_two);
        let part = backend.stage_two(probe, selected);
        parts.push(part.map_err(|e| e.to_string())?);
    }
    let result = {
        let _span = tracer.span("index.merge");
        for (k, part) in parts.iter_mut().enumerate() {
            globalize_and_sort(part, k, s);
        }
        SearchResult::from_parts(merge_sorted_parts(&parts), total)
    };
    Ok((result, per_shard))
}

const INDEX_SPANS: SeamSpans = SeamSpans {
    root: "search",
    stage_one: "index.stage1",
    stage_two: "index.stage2",
};

fn traced(kind: Kind, args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let tracer = Tracer::new();
    let inputs = match kind {
        Kind::Synthetic10k => synthetic_inputs(args.seed, args.sizes),
        Kind::Cohort => cohort_inputs_traced(args.seed, args.sizes, &tracer),
    };
    let index = {
        let _span = tracer.span("index.enroll_all");
        build_index(&inputs.gallery, args.seed)
    };
    let cases = &inputs.cases;
    for case in &cases[..args.sizes.warmup.min(cases.len())] {
        black_box(index.search(&case.template));
    }

    // Reference: the untraced top-level search, for a quarter of the run.
    // The probes it got through are then re-driven, the same ones, through
    // each measured variant, so every ratio below compares like with like.
    let mut reference_digests = Vec::new();
    let reference = closed_loop(
        args.seconds * 0.25,
        &mut outcome,
        |i| index.search(&cases[i % cases.len()].template),
        |_, result| {
            reference_digests.push(result_digest(&result));
            true
        },
    );
    let driven = reference_digests.len();
    let reference_p50 = stats::median(&reference.latencies_ms);

    let classes = kind.class_metrics();
    let mut verifier = Verifier::new(
        index.len(),
        index.config().shortlist,
        classes.len(),
        cases.len(),
    );
    let (mut word_ops, mut bucket_hits, mut reranked) = (Vec::new(), Vec::new(), Vec::new());
    let mut parity_ok = true;
    for (i, &reference_digest) in reference_digests.iter().enumerate() {
        let at = i % cases.len();
        let (result, scores) = search_by_seam(
            &tracer,
            std::slice::from_ref(&index),
            index.config().shortlist,
            &cases[at].template,
            i as u64,
            &INDEX_SPANS,
        )?;
        outcome.attempted += 1;
        if !verifier.observe(at, &cases[at], &result) {
            outcome.failed += 1;
        }
        parity_ok &= result_digest(&result) == reference_digest;
        // Counts are medians over a fixed prefix of the probe list, however
        // many searches the run had time for, so that they repeat exactly.
        if i < args.sizes.parity_probes {
            word_ops.push(scores[0].hamming_word_ops as f64);
            bucket_hits.push(scores[0].bucket_hits as f64);
            reranked.push(result.candidates().len() as f64);
        }
    }
    outcome.check(parity_ok, || {
        "a search driven layer by layer returned other candidates than CandidateIndex::search"
            .to_string()
    });

    // The same searches on an index whose in-program telemetry is on.
    let instrumented = index.clone().with_telemetry(&Telemetry::enabled());
    let instrumented_ms: Vec<f64> = (0..driven)
        .map(|i| {
            let start = std::time::Instant::now();
            black_box(instrumented.search(&cases[i % cases.len()].template));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    drop(instrumented);

    // The stage-1 arena kernel alone, and the probe's stage-2 preparation
    // alone: parts of `index.stage1` and `index.stage2` that no seam of the
    // search itself separates.
    let config = *index.config();
    let mcc = MccMatcher::default();
    let mut scratch = Stage1Scratch::new();
    let mut scores = vec![0.0f64; index.len()];
    for i in 0..driven {
        let probe = &cases[i % cases.len()].template;
        let _root = tracer.root("probe_parts", i as u64);
        let codes = CylinderCodes::extract(&mcc, probe, config.max_cylinders);
        {
            let _span = tracer.span("index.stage1_codes");
            black_box(index.arena().score_into(
                &codes,
                config.lss_depth,
                &mut scratch,
                &mut scores,
            ));
        }
        let _span = tracer.span("match.prepare");
        black_box(index.matcher().prepare(probe));
    }

    let summary = tracer.finish(&trace_path(args.out_dir, kind.name()))?;
    outcome.note("traced_searches", driven);
    outcome.note("trace_spans", summary.spans);
    outcome.check(summary.samples_ms("search").len() == driven, || {
        "the trace does not hold one `search` tree per traced search".to_string()
    });

    let stage1 = summary.median_ms("index.stage1");
    let stage1_codes = summary.median_ms("index.stage1_codes");
    let fuse_merge = summary.median_ms("index.fuse") + summary.median_ms("index.merge");
    let stage2 = summary.median_ms("index.stage2");
    outcome.set("index.untraced_search_p50_ms", reference_p50);
    outcome.set("index.stage1_ms", stage1);
    outcome.set("index.stage1_codes_ms", stage1_codes);
    outcome.set("index.stage1_other_ms", stage1 - stage1_codes);
    outcome.set("index.fuse_merge_ms", fuse_merge);
    outcome.set("index.stage2_ms", stage2);
    outcome.set(
        "index.layer_sum_ratio",
        (stage1 + fuse_merge + stage2) / reference_p50,
    );
    outcome.set(
        "index.enroll_us_per_template",
        summary.median_ms("index.enroll_all") * 1e3 / index.len() as f64,
    );
    outcome.set("index.hamming_word_ops", stats::median(&word_ops));
    outcome.set("index.bucket_hits", stats::median(&bucket_hits));
    outcome.set("index.rerank_comparisons", stats::median(&reranked));
    outcome.set("index.arena_bytes", index.arena().packed_bytes() as f64);
    outcome.set("index.rank1.mated", verifier.mated_rate());
    for (class, name) in classes.iter().enumerate() {
        outcome.set(name, verifier.rate(class));
    }
    outcome.set("match.prepare_us", summary.median_ms("match.prepare") * 1e3);
    outcome.set(
        "telemetry.enabled_overhead_ratio",
        stats::median(&instrumented_ms) / reference_p50,
    );
    if kind == Kind::Cohort {
        outcome.set("synth.population_ms", summary.median_ms("synth.population"));
        outcome.set(
            "sensor.capture_us",
            summary.median_ms("sensor.capture") * 1e3,
        );
        super::study::set_minutiae_means(&mut outcome, |device| {
            let of_device = cases.iter().filter(move |c| c.class == device);
            of_device.map(|c| c.template.len())
        });
    }
    verifier.conclude(&mut outcome, classes);
    Ok(outcome)
}
