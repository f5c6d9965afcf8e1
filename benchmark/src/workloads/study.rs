//! `study_matrix`: the paper's own pipeline — 494 subjects x 5 devices, the
//! 25-cell genuine/impostor score matrix, and the nine artefacts (Figures
//! 1-5, Tables 3-6) derived from it.
//!
//! It is ~100 % `fp-match` and touches no index, wire or store code, so it
//! is the bypass workload for every 1:N optimisation (prediction: no
//! change) and the target for pair-table matcher work. One operation is one
//! round: `ScoreMatrix::compute` over the whole cohort plus the nine
//! reports; throughput is matcher comparisons per second.

use std::hint::black_box;

use fp_core::ids::{DeviceId, Finger, SessionId, SubjectId};
use fp_core::rng::SeedTree;
use fp_match::{PairTableMatcher, PreparableMatcher};
use fp_quality::QualityAssessor;
use fp_sensor::CaptureProtocol;
use fp_study::{experiments, Dataset, ScoreMatrix, StudyConfig, StudyData};
use fp_synth::population::{Population, PopulationConfig};
use fp_telemetry::{FingerprintChain, Telemetry};
use rand::Rng;

use super::{closed_loop, peak_rss_mb, trace_path, RunArgs, SetupClock};
use crate::ledger::Outcome;
use crate::trace::Tracer;

/// The nine artefacts of the paper.
const ARTEFACTS: [&str; 9] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "table3", "table4", "table5", "table6",
];

/// Mean minutiae per probe template, by probe device.
const MINUTIAE_METRICS: [&str; 5] = [
    "sensor.minutiae_per_template.d0",
    "sensor.minutiae_per_template.d1",
    "sensor.minutiae_per_template.d2",
    "sensor.minutiae_per_template.d3",
    "sensor.minutiae_per_template.d4",
];

/// Sets the five [`MINUTIAE_METRICS`] to the mean length of the probe
/// templates `lens_of(device)` yields.
pub(crate) fn set_minutiae_means<I: Iterator<Item = usize>>(
    outcome: &mut Outcome,
    lens_of: impl Fn(usize) -> I,
) {
    for (device, name) in MINUTIAE_METRICS.iter().enumerate() {
        let (sum, count) = lens_of(device).fold((0, 0), |(sum, count), len| (sum + len, count + 1));
        outcome.set(name, sum as f64 / count.max(1) as f64);
    }
}

/// Subjects the traced pass re-drives call by call: enough calls for steady
/// per-call medians without a span per call over the whole cohort.
const REDRIVEN_SUBJECTS: usize = 100;

const DEVICES: usize = DeviceId::COUNT;

fn config(args: &RunArgs) -> StudyConfig {
    StudyConfig::builder()
        .subjects(args.sizes.subjects)
        .seed(args.seed)
        .impostors_per_cell(args.sizes.impostors_per_cell)
        .build()
}

/// Every score of the matrix, bit for bit, as one number.
fn checksum(scores: &ScoreMatrix) -> u64 {
    let mut chain = FingerprintChain::new(0);
    for g in DeviceId::ALL {
        for p in DeviceId::ALL {
            for score in scores.genuine_cell(g, p) {
                chain.fold_f64(score.score);
            }
            for &score in scores.impostor_cell(g, p) {
                chain.fold_f64(score);
            }
        }
    }
    chain.value()
}

/// What one round produced, for checking outside the timed interval.
struct Round {
    checksum: u64,
    /// Set sizes in Table 3's order: DMG, DDMG, DMI, DDMI.
    set_sizes: [usize; 4],
    reports: usize,
}

/// One round: the score matrix, then the nine artefacts.
fn round(dataset: &mut Option<Dataset>, matcher: &PairTableMatcher) -> Round {
    let owned = dataset
        .take()
        .expect("dataset is put back after every round");
    let scores = ScoreMatrix::compute(&owned, matcher);
    let data = StudyData {
        dataset: owned,
        scores,
    };
    let reports = ARTEFACTS
        .iter()
        .filter_map(|id| experiments::run(id, &data))
        .filter(|report| !report.body.is_empty())
        .count();
    let round = Round {
        checksum: checksum(&data.scores),
        set_sizes: [
            data.scores.dmg().len(),
            data.scores.ddmg().len(),
            data.scores.dmi().len(),
            data.scores.ddmi().len(),
        ],
        reports,
    };
    *dataset = Some(data.dataset);
    round
}

fn expected_set_sizes(config: &StudyConfig) -> [usize; 4] {
    [
        config.expected_dmg(),
        config.expected_ddmg(),
        config.expected_dmi(),
        config.expected_ddmi(),
    ]
}

fn comparisons_per_round(config: &StudyConfig) -> usize {
    DEVICES * DEVICES * (config.subjects + config.impostors_per_cell)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let config = config(args);
    let mut clock = SetupClock::default();
    let dataset = clock.time(|| Ok(Dataset::generate(&config)))?;
    outcome.note("subjects", config.subjects);
    outcome.note("impostors_per_cell", config.impostors_per_cell);
    outcome.note("comparisons_per_round", comparisons_per_round(&config));
    outcome.note("worker_threads", super::cores());

    let matcher = PairTableMatcher::default();
    let mut dataset = Some(dataset);
    let mut first_checksum = None;
    let expected = expected_set_sizes(&config);
    let timed = closed_loop(
        args.seconds,
        &mut outcome,
        |_| round(&mut dataset, &matcher),
        |_, round| {
            round.set_sizes == expected
                && round.reports == ARTEFACTS.len()
                && *first_checksum.get_or_insert(round.checksum) == round.checksum
        },
    );
    let rounds = timed.latencies_ms.len();
    timed.report(
        &mut outcome,
        (rounds * comparisons_per_round(&config)) as f64,
    );
    outcome.set("peak_rss_mb", peak_rss_mb(std::process::id())?);
    outcome.note(
        "score_checksum",
        format!("{:016x}", first_checksum.unwrap_or(0)),
    );
    drop(dataset);
    let setup_s = clock.finish(args.sizes.setup_repeats, || Ok(Dataset::generate(&config)))?;
    outcome.set("setup_s", setup_s);
    Ok(outcome)
}

fn traced(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let tracer = Tracer::new();
    let config = config(args);
    let matcher = PairTableMatcher::default();

    // The top-level entry points, as the untraced pass calls them.
    let dataset = {
        let _span = tracer.span("study.dataset");
        Dataset::generate(&config)
    };
    let mut scores = None;
    closed_loop(
        args.seconds * 0.5,
        &mut outcome,
        |i| {
            let _root = tracer.root("study.scores", i as u64);
            ScoreMatrix::compute(&dataset, &matcher)
        },
        |_, computed| {
            scores = Some(computed);
            true
        },
    );
    let scores = scores.expect("the timed section runs at least one round");
    let reference = checksum(&scores);

    // Traced must equal untraced, bitwise: the same matrix with the
    // libraries' own telemetry recording.
    let telemetry = Telemetry::enabled();
    let instrumented = ScoreMatrix::compute_with(
        &dataset,
        &PairTableMatcher::default().with_telemetry(&telemetry),
        &telemetry,
    );
    outcome.check(checksum(&instrumented) == reference, || {
        "score checksum differs between the untraced and the instrumented matrix".to_string()
    });
    drop(instrumented);
    outcome.check(
        [
            scores.dmg().len(),
            scores.ddmg().len(),
            scores.dmi().len(),
            scores.ddmi().len(),
        ] == expected_set_sizes(&config),
        || "score-set sizes differ from Table 3's formulas".to_string(),
    );

    let data = StudyData { dataset, scores };
    {
        let _span = tracer.span("stats.reports");
        for id in ARTEFACTS {
            black_box(experiments::run(id, &data));
        }
    }
    let (dataset, scores) = (data.dataset, data.scores);

    // The same pipeline again, call by call through each crate's public
    // seam, over the first subjects.
    let subjects = REDRIVEN_SUBJECTS.min(config.subjects);
    let population = {
        let _span = tracer.span("synth.population");
        Population::generate(&PopulationConfig::new(config.seed, config.subjects))
    };
    let protocol = CaptureProtocol::new();
    let assessor = QualityAssessor::default();
    // prepared[subject][device] = (session-0 gallery, session-1 probe).
    let mut prepared = Vec::with_capacity(subjects);
    for subject in &population.subjects()[..subjects] {
        let _root = tracer.root("subject", u64::from(subject.id().0));
        let mut row = Vec::with_capacity(DEVICES);
        for device in DeviceId::ALL {
            let mut pair = Vec::with_capacity(2);
            for session in [SessionId(0), SessionId(1)] {
                let impression = {
                    let _span = tracer.span("sensor.capture");
                    protocol.capture(subject, Finger::RIGHT_INDEX, device, session)
                };
                {
                    let _span = tracer.span("quality.assess");
                    black_box(assessor.assess(&impression));
                }
                let _span = tracer.span("match.prepare");
                pair.push(matcher.prepare(impression.template()));
            }
            row.push(pair);
        }
        prepared.push(row);
    }
    let mut genuine_ok = true;
    for g in 0..DEVICES {
        for p in 0..DEVICES {
            let _root = tracer.root("cell", (g * DEVICES + p) as u64);
            let cell = scores.genuine_cell(DeviceId(g as u8), DeviceId(p as u8));
            {
                let _span = tracer.span("match.compare_genuine");
                for (s, row) in prepared.iter().enumerate() {
                    let raw = matcher.compare_prepared(&row[g][0], &row[p][1]);
                    let score = config.calibration.apply(raw).value();
                    genuine_ok &= score.to_bits() == cell[s].score.to_bits();
                }
            }
            // The benchmark's own impostor draw: what is timed is the cost
            // of an impostor comparison, not the study's sampling.
            let mut rng = SeedTree::new(config.seed)
                .child(&[0xB1, g as u64, p as u64])
                .rng();
            let pairs: Vec<(usize, usize)> = (0..config.impostors_per_cell.min(subjects * 2))
                .map(|_| {
                    let a = rng.gen_range(0..subjects);
                    let b = (a + rng.gen_range(1..subjects.max(2))) % subjects;
                    (a, b)
                })
                .collect();
            let _span = tracer.span("match.compare_impostor");
            for &(a, b) in &pairs {
                black_box(matcher.compare_prepared(&prepared[a][g][0], &prepared[b][p][1]));
            }
        }
    }
    outcome.check(genuine_ok, || {
        "genuine scores re-driven through fp-match differ from ScoreMatrix's".to_string()
    });
    outcome.check(subjects < 2 || population.len() == dataset.len(), || {
        "re-driven population size differs from the dataset's".to_string()
    });

    let summary = tracer.finish(&trace_path(args.out_dir, "study_matrix"))?;
    outcome.note("trace_spans", summary.spans);
    let impostor_pairs = config.impostors_per_cell.min(subjects * 2).max(1);
    let prepare_us = summary.median_ms("match.prepare") * 1e3;
    let genuine_us = summary.median_ms("match.compare_genuine") * 1e3 / subjects as f64;
    let impostor_us = summary.median_ms("match.compare_impostor") * 1e3 / impostor_pairs as f64;
    let scores_ms = summary.median_ms("study.scores");
    let cells = (DEVICES * DEVICES) as f64;
    let serial_ms = (cells * config.subjects as f64 * genuine_us
        + cells * config.impostors_per_cell as f64 * impostor_us
        + (2 * DEVICES * config.subjects) as f64 * prepare_us)
        / 1e3;
    outcome.set("synth.population_ms", summary.median_ms("synth.population"));
    outcome.set(
        "sensor.capture_us",
        summary.median_ms("sensor.capture") * 1e3,
    );
    outcome.set(
        "quality.assess_us",
        summary.median_ms("quality.assess") * 1e3,
    );
    outcome.set("match.prepare_us", prepare_us);
    outcome.set("match.compare_genuine_us", genuine_us);
    outcome.set("match.compare_impostor_us", impostor_us);
    outcome.set("match.comparisons", comparisons_per_round(&config) as f64);
    outcome.set("stats.reports_ms", summary.median_ms("stats.reports"));
    outcome.set("study.dataset_ms", summary.median_ms("study.dataset"));
    outcome.set("study.scores_ms", scores_ms);
    outcome.set("study.parallel_speedup", serial_ms / scores_ms);
    outcome.note("worker_threads", super::cores());
    set_minutiae_means(&mut outcome, |device| {
        let dataset = &dataset;
        (0..dataset.len()).map(move |s| {
            let captures = dataset.captures(SubjectId(s as u32), DeviceId(device as u8));
            captures.probe.template().len()
        })
    });
    outcome.note("score_checksum", format!("{reference:016x}"));
    Ok(outcome)
}
