//! The full score matrices: DMG, DDMG, DMI, DDMI in the paper's notation.

use std::ops::Range;

use fp_core::ids::{DeviceId, SubjectId};
use fp_core::rng::SeedTree;
use fp_match::{PairTableMatcher, PreparableMatcher};
use fp_quality::NfiqLevel;
use fp_stats::roc::ScoreSet;
use fp_telemetry::{Span, Telemetry};
use rand::Rng;

use crate::config::{StudyConfig, DEVICE_COUNT};
use crate::dataset::Dataset;
use crate::parallel::parallel_map_metered;

/// The (gallery device, probe device) cells of a score matrix.
const CELLS: usize = DEVICE_COUNT * DEVICE_COUNT;

/// Comparisons per work item of [`ScoreMatrix::compute_with`]: a cell's
/// genuine subjects and its impostor pairs are scored in runs of this
/// many, so the workers end within one short run of each other however
/// uneven the cells' costs (the ink cells are the heaviest and come last).
const RUN: usize = 32;

/// Cells in row-major order as rows by gallery device.
fn by_gallery<T>(cells: Vec<Vec<T>>) -> Vec<Vec<Vec<T>>> {
    let mut cells = cells.into_iter();
    (0..DEVICE_COUNT)
        .map(|_| cells.by_ref().take(DEVICE_COUNT).collect())
        .collect()
}

/// Runs `score(cell, run)` over every cell's items `0..lens[cell]` in
/// runs of [`RUN`] on [`parallel_map_metered`]'s workers (stage `stage`,
/// one item per run), and returns each cell's scores in item order.
fn score_in_runs<T, F>(telemetry: &Telemetry, stage: &str, lens: &[usize], score: F) -> Vec<Vec<T>>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> Vec<T> + Sync,
{
    let runs: Vec<(usize, Range<usize>)> = lens
        .iter()
        .enumerate()
        .flat_map(|(cell, &len)| {
            (0..len)
                .step_by(RUN)
                .map(move |start| (cell, start..len.min(start + RUN)))
        })
        .collect();
    let scored = parallel_map_metered(runs.len(), telemetry, stage, |at| {
        let (cell, run) = runs[at].clone();
        score(cell, run)
    });
    let mut cells: Vec<Vec<T>> = lens.iter().map(|&len| Vec::with_capacity(len)).collect();
    for ((cell, _), scores) in runs.into_iter().zip(scored) {
        cells[cell].extend(scores);
    }
    cells
}

/// The `scores.cell.g<g>p<p>` span of one run of cell `(g, p)`'s `pass`,
/// with the pass's size as the attribute `size.0` — or no span at all with
/// telemetry off, where its name and attribute strings would be built for
/// nothing.
fn run_span(
    telemetry: &Telemetry,
    (g, p): (usize, usize),
    pass: &str,
    size: (&str, usize),
) -> Option<Span> {
    telemetry.is_enabled().then(|| {
        telemetry.span_with(
            &format!("scores.cell.g{g}p{p}"),
            &[
                ("gallery", g.to_string()),
                ("probe", p.to_string()),
                ("pass", pass.to_string()),
                (size.0, size.1.to_string()),
            ],
        )
    })
}

/// One genuine comparison outcome, annotated for the quality analyses
/// (Figure 5, Table 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenuineScore {
    /// The subject both templates belong to.
    pub subject: SubjectId,
    /// Calibrated similarity score.
    pub score: f64,
    /// NFIQ level of the gallery impression.
    pub gallery_quality: NfiqLevel,
    /// NFIQ level of the probe impression.
    pub probe_quality: NfiqLevel,
}

/// Genuine and impostor score matrices over all 25 (gallery device, probe
/// device) cells. Scores are calibrated onto the paper's scale.
#[derive(Debug, Clone)]
pub struct ScoreMatrix {
    genuine: Vec<Vec<Vec<GenuineScore>>>,
    impostor: Vec<Vec<Vec<f64>>>,
}

impl ScoreMatrix {
    /// Computes the full matrix for `dataset` with `matcher`.
    ///
    /// Genuine cells hold one score per subject (gallery session 0 vs probe
    /// session 1); impostor cells hold
    /// [`StudyConfig::impostors_per_cell`](crate::config::StudyConfig)
    /// sampled ordered subject pairs. Sampling and therefore every score is
    /// deterministic in the dataset's seed.
    pub fn compute<M>(dataset: &Dataset, matcher: &M) -> ScoreMatrix
    where
        M: PreparableMatcher,
    {
        ScoreMatrix::compute_with(dataset, matcher, &Telemetry::disabled())
    }

    /// [`ScoreMatrix::compute`] with telemetry: records preparation and
    /// matching wall time (one `scores.cell.g<g>p<p>` span per run of a
    /// cell's comparisons), comparison counters, per-stage thread
    /// utilization, and throttled progress lines on stderr. The scores are
    /// identical to the uninstrumented computation.
    pub fn compute_with<M>(dataset: &Dataset, matcher: &M, telemetry: &Telemetry) -> ScoreMatrix
    where
        M: PreparableMatcher,
    {
        let n = dataset.len();
        let config = dataset.config();
        // Impostor pairs need two distinct subjects; a degenerate one-subject
        // study produces no impostor scores at all.
        let impostors_per_cell = if n >= 2 { config.impostors_per_cell } else { 0 };
        let progress = telemetry.progress("scores", (CELLS * (n + impostors_per_cell)) as u64);
        let genuine_counter = telemetry.counter("scores.comparisons.genuine");
        let impostor_counter = telemetry.counter("scores.comparisons.impostor");

        // Prepare every template once (2 sessions x 5 devices x n subjects).
        let prepared: Vec<[(M::Prepared, M::Prepared); DEVICE_COUNT]> =
            parallel_map_metered(n, telemetry, "scores.prepare", |s| {
                std::array::from_fn(|d| {
                    let c = dataset.captures(SubjectId(s as u32), DeviceId(d as u8));
                    (
                        matcher.prepare(c.gallery.template()),
                        matcher.prepare(c.probe.template()),
                    )
                })
            });

        // Genuine: 25 cells x n subjects, in runs of `RUN` subjects.
        let genuine = score_in_runs(telemetry, "scores.genuine", &[n; CELLS], |cell, run| {
            let (g, p) = (cell / DEVICE_COUNT, cell % DEVICE_COUNT);
            let _run = run_span(telemetry, (g, p), "genuine", ("subjects", n));
            let scores = run
                .map(|s| {
                    let score = config
                        .calibration
                        .apply(matcher.compare_prepared(&prepared[s][g].0, &prepared[s][p].1));
                    let caps_g = dataset.captures(SubjectId(s as u32), DeviceId(g as u8));
                    let caps_p = dataset.captures(SubjectId(s as u32), DeviceId(p as u8));
                    GenuineScore {
                        subject: SubjectId(s as u32),
                        score: score.value(),
                        gallery_quality: caps_g.gallery_quality,
                        probe_quality: caps_p.probe_quality,
                    }
                })
                .collect::<Vec<_>>();
            genuine_counter.add(scores.len() as u64);
            progress.inc(scores.len() as u64);
            scores
        });

        // Impostor: 25 cells x impostors_per_cell sampled ordered pairs,
        // each cell's drawn from its own stream, then scored in runs.
        let pairs: Vec<Vec<(usize, usize)>> = (0..CELLS)
            .map(|cell| {
                let (g, p) = (cell / DEVICE_COUNT, cell % DEVICE_COUNT);
                let mut rng = SeedTree::new(config.seed)
                    .child(&[0x1A, g as u64, p as u64])
                    .rng();
                (0..impostors_per_cell)
                    .map(|_| {
                        let a = rng.gen_range(0..n);
                        let mut b = rng.gen_range(0..n - 1);
                        if b >= a {
                            b += 1;
                        }
                        (a, b)
                    })
                    .collect()
            })
            .collect();
        let lens: [usize; CELLS] = std::array::from_fn(|cell| pairs[cell].len());
        let impostor = score_in_runs(telemetry, "scores.impostor", &lens, |cell, run| {
            let (g, p) = (cell / DEVICE_COUNT, cell % DEVICE_COUNT);
            let _run = run_span(telemetry, (g, p), "impostor", ("pairs", impostors_per_cell));
            let scores = pairs[cell][run]
                .iter()
                .map(|&(a, b)| {
                    let score = config
                        .calibration
                        .apply(matcher.compare_prepared(&prepared[a][g].0, &prepared[b][p].1));
                    score.value()
                })
                .collect::<Vec<_>>();
            impostor_counter.add(scores.len() as u64);
            progress.inc(scores.len() as u64);
            scores
        });
        progress.finish();

        let (genuine, impostor) = (by_gallery(genuine), by_gallery(impostor));
        ScoreMatrix { genuine, impostor }
    }

    /// The genuine scores of cell `(gallery, probe)`, one per subject.
    pub fn genuine_cell(&self, gallery: DeviceId, probe: DeviceId) -> &[GenuineScore] {
        &self.genuine[gallery.0 as usize][probe.0 as usize]
    }

    /// The sampled impostor scores of cell `(gallery, probe)`.
    pub fn impostor_cell(&self, gallery: DeviceId, probe: DeviceId) -> &[f64] {
        &self.impostor[gallery.0 as usize][probe.0 as usize]
    }

    /// Genuine score values of a cell.
    pub fn genuine_values(&self, gallery: DeviceId, probe: DeviceId) -> Vec<f64> {
        self.genuine_cell(gallery, probe)
            .iter()
            .map(|g| g.score)
            .collect()
    }

    /// Builds the [`ScoreSet`] of a cell for FMR/FNMR analysis.
    pub fn score_set(&self, gallery: DeviceId, probe: DeviceId) -> ScoreSet {
        ScoreSet::new(
            self.genuine_values(gallery, probe),
            self.impostor_cell(gallery, probe).to_vec(),
        )
    }

    /// All same-device genuine scores over live-scan devices — the paper's
    /// **DMG** set (D4 excluded: the card contributes no second live
    /// capture session; see DESIGN.md).
    pub fn dmg(&self) -> Vec<f64> {
        (0..4)
            .flat_map(|d| self.genuine_values(DeviceId(d), DeviceId(d)))
            .collect()
    }

    /// All cross-device genuine scores — the paper's **DDMG** set.
    pub fn ddmg(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for g in 0..DEVICE_COUNT as u8 {
            for p in 0..DEVICE_COUNT as u8 {
                if g != p {
                    out.extend(self.genuine_values(DeviceId(g), DeviceId(p)));
                }
            }
        }
        out
    }

    /// All same-device impostor scores — the paper's **DMI** set.
    pub fn dmi(&self) -> Vec<f64> {
        (0..DEVICE_COUNT as u8)
            .flat_map(|d| self.impostor_cell(DeviceId(d), DeviceId(d)).to_vec())
            .collect()
    }

    /// All cross-device impostor scores — the paper's **DDMI** set.
    pub fn ddmi(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for g in 0..DEVICE_COUNT as u8 {
            for p in 0..DEVICE_COUNT as u8 {
                if g != p {
                    out.extend_from_slice(self.impostor_cell(DeviceId(g), DeviceId(p)));
                }
            }
        }
        out
    }
}

/// The shared input of every experiment: the dataset plus the computed
/// score matrix.
#[derive(Debug, Clone)]
pub struct StudyData {
    /// The captured dataset.
    pub dataset: Dataset,
    /// The calibrated score matrices.
    pub scores: ScoreMatrix,
}

impl StudyData {
    /// Generates the dataset and computes all scores with the default
    /// pair-table matcher.
    pub fn generate(config: &StudyConfig) -> StudyData {
        StudyData::generate_with(config, &Telemetry::disabled())
    }

    /// [`StudyData::generate`] with telemetry: instruments the whole
    /// pipeline — synthesis and capture work, matcher counters, per-cell
    /// timing and parallel-stage utilization — into `telemetry`. The data
    /// is identical to the uninstrumented run.
    pub fn generate_with(config: &StudyConfig, telemetry: &Telemetry) -> StudyData {
        let dataset = {
            let _span = telemetry.span("study.dataset");
            Dataset::generate_with(config, telemetry)
        };
        let matcher = PairTableMatcher::default().with_telemetry(telemetry);
        let scores = {
            let _span = telemetry.span("study.scores");
            ScoreMatrix::compute_with(&dataset, &matcher, telemetry)
        };
        StudyData { dataset, scores }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> StudyData {
        StudyData::generate(
            &StudyConfig::builder()
                .subjects(12)
                .seed(7)
                .impostors_per_cell(40)
                .build(),
        )
    }

    #[test]
    fn matrix_has_expected_counts() {
        let d = data();
        assert_eq!(d.scores.dmg().len(), 12 * 4);
        assert_eq!(d.scores.ddmg().len(), 12 * 20);
        assert_eq!(d.scores.dmi().len(), 40 * 5);
        assert_eq!(d.scores.ddmi().len(), 40 * 20);
        for g in DeviceId::ALL {
            for p in DeviceId::ALL {
                assert_eq!(d.scores.genuine_cell(g, p).len(), 12);
                assert_eq!(d.scores.impostor_cell(g, p).len(), 40);
            }
        }
    }

    #[test]
    fn genuine_scores_beat_impostor_scores_on_average() {
        let d = data();
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean(&d.scores.dmg()) > mean(&d.scores.dmi()) + 5.0);
        assert!(mean(&d.scores.ddmg()) > mean(&d.scores.ddmi()) + 5.0);
    }

    #[test]
    fn computation_is_deterministic() {
        let a = data();
        let b = data();
        assert_eq!(
            a.scores.genuine_values(DeviceId(0), DeviceId(3)),
            b.scores.genuine_values(DeviceId(0), DeviceId(3))
        );
        assert_eq!(
            a.scores.impostor_cell(DeviceId(2), DeviceId(4)),
            b.scores.impostor_cell(DeviceId(2), DeviceId(4))
        );
    }

    #[test]
    fn score_set_builds_with_both_classes() {
        let d = data();
        let set = d.scores.score_set(DeviceId(1), DeviceId(2));
        assert_eq!(set.genuine().len(), 12);
        assert_eq!(set.impostor().len(), 40);
    }

    #[test]
    fn single_subject_study_yields_no_impostor_scores() {
        // A one-subject cohort cannot form impostor pairs: every impostor
        // cell must stay empty, and the progress/counter accounting must
        // reflect the zero scores actually produced (not the configured
        // per-cell sample size).
        let telemetry = Telemetry::enabled();
        let config = StudyConfig::builder()
            .subjects(1)
            .seed(3)
            .impostors_per_cell(40)
            .build();
        let dataset = Dataset::generate(&config);
        let matcher = PairTableMatcher::default();
        let scores = ScoreMatrix::compute_with(&dataset, &matcher, &telemetry);
        for g in DeviceId::ALL {
            for p in DeviceId::ALL {
                assert!(scores.impostor_cell(g, p).is_empty());
                assert_eq!(scores.genuine_cell(g, p).len(), 1);
            }
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.counters["scores.comparisons.impostor"], 0);
        assert_eq!(snap.counters["scores.comparisons.genuine"], 25);
    }

    /// Computes the matrix of `subjects` subjects in runs, and asserts
    /// every score equals a serial pair-by-pair recomputation (the
    /// impostor pairs drawn in the same order) and that each cell records
    /// one span per run.
    fn assert_runs_score_like_a_serial_loop(subjects: usize, impostors: usize) {
        let config = StudyConfig::builder()
            .subjects(subjects)
            .seed(11)
            .impostors_per_cell(impostors)
            .build();
        let dataset = Dataset::generate(&config);
        let matcher = PairTableMatcher::default();
        let telemetry = Telemetry::enabled();
        let scores = ScoreMatrix::compute_with(&dataset, &matcher, &telemetry);

        let tables: Vec<Vec<_>> = (0..subjects)
            .map(|s| {
                DeviceId::ALL
                    .iter()
                    .map(|&d| {
                        let c = dataset.captures(SubjectId(s as u32), d);
                        (
                            matcher.prepare(c.gallery.template()),
                            matcher.prepare(c.probe.template()),
                        )
                    })
                    .collect()
            })
            .collect();
        let score = |a: usize, g: DeviceId, b: usize, p: DeviceId| {
            let raw =
                matcher.compare_prepared(&tables[a][g.0 as usize].0, &tables[b][p.0 as usize].1);
            config.calibration.apply(raw).value().to_bits()
        };
        let impostors = if subjects >= 2 { impostors } else { 0 };
        for g in DeviceId::ALL {
            for p in DeviceId::ALL {
                let genuine: Vec<(SubjectId, u64)> = scores
                    .genuine_cell(g, p)
                    .iter()
                    .map(|s| (s.subject, s.score.to_bits()))
                    .collect();
                let serial: Vec<(SubjectId, u64)> = (0..subjects)
                    .map(|s| (SubjectId(s as u32), score(s, g, s, p)))
                    .collect();
                assert_eq!(genuine, serial, "genuine g{g:?} p{p:?}");

                let mut rng = SeedTree::new(config.seed)
                    .child(&[0x1A, u64::from(g.0), u64::from(p.0)])
                    .rng();
                let serial: Vec<u64> = (0..impostors)
                    .map(|_| {
                        let a = rng.gen_range(0..subjects);
                        let mut b = rng.gen_range(0..subjects - 1);
                        if b >= a {
                            b += 1;
                        }
                        score(a, g, b, p)
                    })
                    .collect();
                let impostor: Vec<u64> = scores
                    .impostor_cell(g, p)
                    .iter()
                    .map(|s| s.to_bits())
                    .collect();
                assert_eq!(impostor, serial, "impostor g{g:?} p{p:?}");
            }
        }

        // One span per run: the genuine runs, then the impostor runs.
        let runs = |len: usize| len.div_ceil(RUN);
        let snap = telemetry.snapshot();
        let trace = telemetry.trace_snapshot();
        for g in 0..DEVICE_COUNT {
            for p in 0..DEVICE_COUNT {
                let name = format!("scores.cell.g{g}p{p}");
                let expected = runs(subjects) + runs(impostors);
                assert_eq!(snap.durations[&name].count, expected as u64, "{name}");
                let spans = trace.spans.iter().filter(|s| s.name == name).count();
                assert_eq!(spans, expected, "{name}");
            }
        }
        let items = |stage: &str| {
            snap.stages
                .iter()
                .find(|s| s.stage == stage)
                .map_or(0, |s| s.items)
        };
        assert_eq!(items("scores.genuine"), (CELLS * runs(subjects)) as u64);
        assert_eq!(items("scores.impostor"), (CELLS * runs(impostors)) as u64);
        assert_eq!(
            snap.counters["scores.comparisons.genuine"],
            (CELLS * subjects) as u64
        );
        assert_eq!(
            snap.counters["scores.comparisons.impostor"],
            (CELLS * impostors) as u64
        );
    }

    #[test]
    fn runs_score_like_a_serial_loop_across_several_runs_a_cell() {
        // 70 subjects: runs of 32, 32 and 6; 75 impostor pairs: 32, 32, 11.
        assert_runs_score_like_a_serial_loop(70, 75);
    }

    #[test]
    fn runs_score_like_a_serial_loop_at_one_and_two_subjects() {
        // One subject: one genuine run a cell, no impostor pair (and so no
        // impostor item). Two subjects: every impostor pair is (0, 1) or
        // (1, 0).
        assert_runs_score_like_a_serial_loop(1, 40);
        assert_runs_score_like_a_serial_loop(2, 40);
    }

    #[test]
    fn quality_annotations_are_consistent_with_dataset() {
        let d = data();
        for g in d.scores.genuine_cell(DeviceId(0), DeviceId(2)) {
            let caps_g = d.dataset.captures(g.subject, DeviceId(0));
            let caps_p = d.dataset.captures(g.subject, DeviceId(2));
            assert_eq!(g.gallery_quality, caps_g.gallery_quality);
            assert_eq!(g.probe_quality, caps_p.probe_quality);
        }
    }
}
