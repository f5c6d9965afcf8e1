//! Per-minutia binarized cylinder codes for the shortlist prefilter.
//!
//! Each template keeps one packed binary code per MCC cylinder (binarized at
//! the cylinder's *own* mean activation, so dense and sparse impressions
//! binarize comparably), restricted to the template's most reliable
//! minutiae. Two templates are compared by **local similarity sort**: every
//! probe cylinder finds its best Dice-style match among the gallery
//! cylinders, and only the strongest `lss_depth` local agreements are
//! averaged. A card-scan probe carrying hundreds of spurious minutiae still
//! scores its genuine live-scan mate highly — the spurious cylinders simply
//! never make the sorted prefix — where any pooled whole-template descriptor
//! would drown the overlap.
//!
//! The cylinders live in each minutia's own rotated frame, so the codes
//! inherit the MCC rotation/translation invariance; comparing a cylinder
//! pair is a handful of XOR+popcount words.
//!
//! Extraction builds a cylinder only for the minutiae it keeps, in minutia
//! order, through [`MccMatcher::cylinder_into`] into one reused cell
//! buffer: no cylinder is built to be discarded and none allocates.
//!
//! Every cylinder is packed into [`LANE_WORDS`] words, whatever the
//! matcher's grid (cells past it read zero), so the width is a fact of the
//! types: a cylinder is a `[u64; LANE_WORDS]`, in [`CylinderCodes`], in
//! [`CodeView`] and so in every arena entry.

use fp_core::template::Template;
use fp_match::MccMatcher;

use crate::arena::{ProbeGroup, LANE_WORDS};

/// The packed per-cylinder binary codes of one template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CylinderCodes {
    /// One packed cylinder per coded minutia, in minutia order.
    words: Box<[[u64; LANE_WORDS]]>,
    /// Set-bit count per cylinder.
    ones: Box<[u32]>,
}

/// A borrowed, layout-agnostic view of one template's packed cylinder
/// codes: one [`LANE_WORDS`]-word cylinder each (little-endian `u64`
/// words) plus the per-cylinder set-bit counts. Both [`CylinderCodes`] and
/// the structure-of-arrays [`crate::CodeArena`] expose their codes through
/// this view, so the scalar reference scorer and the arena kernel are
/// provably reading the same bytes — and it is the unit `fp-store`
/// persists and moves between arenas.
#[derive(Debug, Clone, Copy)]
pub struct CodeView<'a> {
    pub(crate) words: &'a [[u64; LANE_WORDS]],
    pub(crate) ones: &'a [u32],
}

impl<'a> CodeView<'a> {
    /// Number of coded cylinders.
    pub fn len(&self) -> usize {
        self.ones.len()
    }

    /// Whether the view holds no codes.
    pub fn is_empty(&self) -> bool {
        self.ones.is_empty()
    }

    /// Every cylinder's packed words, cylinder-major: [`LANE_WORDS`] a
    /// cylinder.
    pub fn words(&self) -> &'a [u64] {
        self.words.as_flattened()
    }

    /// The per-cylinder set-bit counts.
    pub fn ones(&self) -> &'a [u32] {
        self.ones
    }
}

/// Reusable scratch for one stage-1 scoring pass: the per-probe-cylinder
/// local bests that local similarity sort selects from, and the probe
/// transposed into groups of eight cylinders for the arena's vector lane
/// body (empty on every other body). Callers allocate one per search and
/// reuse it across every gallery entry, so neither the scalar reference
/// path nor the arena kernel allocates per entry.
#[derive(Debug, Default)]
pub struct Stage1Scratch {
    pub(crate) bests: Vec<f64>,
    pub(crate) groups: Vec<ProbeGroup>,
}

impl Stage1Scratch {
    /// An empty scratch; buffers grow to the probe's cylinder count on
    /// first use and are reused afterwards.
    pub fn new() -> Stage1Scratch {
        Stage1Scratch::default()
    }
}

impl CylinderCodes {
    /// Extracts codes for the `max_cylinders` most reliable minutiae of
    /// `template` (ties broken by minutia order) that produced a valid
    /// cylinder; the other minutiae get no cylinder at all. Every valid
    /// cylinder is binarized at its own mean cell activation and packed
    /// into [`LANE_WORDS`] words. Empty and very sparse templates yield no
    /// codes; their [`reference_similarity`](Self::reference_similarity)
    /// against anything is zero, so the shortlist falls back to the
    /// bucket-vote channel alone.
    ///
    /// # Panics
    ///
    /// If `mcc`'s grid has more than `64 · LANE_WORDS` cells, which cannot
    /// be packed. `MccMatcher::default()`'s 8 x 8 x 5 grid fills exactly
    /// [`LANE_WORDS`] words, and it is the grid every index extracts with.
    pub fn extract(mcc: &MccMatcher, template: &Template, max_cylinders: usize) -> CylinderCodes {
        assert!(
            mcc.cell_count() <= 64 * LANE_WORDS,
            "an MCC grid of {} cells does not pack into LANE_WORDS = {LANE_WORDS} words",
            mcc.cell_count()
        );
        let minutiae = template.minutiae();
        let mut order: Vec<usize> = (0..minutiae.len()).collect();
        // `total_cmp`: `reliability` is a `pub` field no constructor of
        // `Template` checks, so a NaN can arrive; it must rank, not panic.
        order.sort_unstable_by(|&a, &b| {
            minutiae[b]
                .reliability
                .total_cmp(&minutiae[a].reliability)
                .then(a.cmp(&b))
        });
        let mut keep = vec![false; minutiae.len()];
        for &i in order.iter().take(max_cylinders) {
            keep[i] = true;
        }

        let mut cells = vec![0.0f32; mcc.cell_count()];
        let mut words: Vec<[u64; LANE_WORDS]> = Vec::new();
        let mut ones: Vec<u32> = Vec::new();
        for centre in (0..minutiae.len()).filter(|&i| keep[i]) {
            if !mcc.cylinder_into(template, centre, &mut cells).1 {
                continue;
            }
            let mut packed = [0u64; LANE_WORDS];
            let mut set = 0u32;
            let mean: f32 = cells.iter().sum::<f32>() / cells.len() as f32;
            for (cell, &v) in cells.iter().enumerate() {
                if v > mean {
                    packed[cell / 64] |= 1u64 << (cell % 64);
                    set += 1;
                }
            }
            words.push(packed);
            ones.push(set);
        }
        CylinderCodes {
            words: words.into_boxed_slice(),
            ones: ones.into_boxed_slice(),
        }
    }

    /// Reassembles codes from their raw packed parts: `ones.len()`
    /// cylinders of [`LANE_WORDS`] little-endian words each,
    /// cylinder-major. Intended for tests, benches and (de)serialization —
    /// [`extract`](Self::extract) is the production constructor.
    ///
    /// Panics unless `words.len() == ones.len() * LANE_WORDS` and every
    /// `ones[i]` equals the popcount of its cylinder's words — the
    /// invariant both scoring kernels rely on (a pair is skipped exactly
    /// when its combined set-bit mass is zero).
    pub fn from_raw(words: Vec<u64>, ones: Vec<u32>) -> CylinderCodes {
        let (cylinders, rest) = words.as_chunks::<LANE_WORDS>();
        assert!(
            rest.is_empty() && cylinders.len() == ones.len(),
            "words must hold exactly LANE_WORDS words per cylinder"
        );
        for (i, (cylinder, &set)) in cylinders.iter().zip(&ones).enumerate() {
            let actual: u32 = cylinder.iter().map(|w| w.count_ones()).sum();
            assert_eq!(set, actual, "ones[{i}] must equal its cylinder's popcount");
        }
        CylinderCodes {
            words: cylinders.into(),
            ones: ones.into_boxed_slice(),
        }
    }

    /// Number of coded cylinders.
    pub fn len(&self) -> usize {
        self.ones.len()
    }

    /// Whether the template produced no codes.
    pub fn is_empty(&self) -> bool {
        self.ones.is_empty()
    }

    /// A borrowed view of the packed codes (the common currency of the
    /// scalar reference scorer and the [`crate::CodeArena`] kernel).
    pub fn view(&self) -> CodeView<'_> {
        CodeView {
            words: &self.words,
            ones: &self.ones,
        }
    }

    /// **The scalar stage-1 oracle**: local-similarity-sort score of this
    /// (probe) code set against a gallery code set, plus the number of
    /// packed-`u64` Hamming word comparisons performed. Each probe cylinder
    /// takes its best Dice-style similarity `1 - hamming / (ones_p +
    /// ones_g)` over all gallery cylinders, and the strongest `max(1,
    /// min(len_p, len_g, lss_depth))` of those local bests are averaged —
    /// note the clamp: `lss_depth == 0` is treated as depth 1
    /// ([`crate::IndexConfig`] rejects `lss_depth == 0` outright). The
    /// score is in `[0, 1]`; 0 when either side is empty.
    ///
    /// The word count is [`LANE_WORDS`] per cylinder pair actually
    /// XOR+popcounted (pairs whose combined set-bit mass is zero are
    /// skipped before touching any word) — the true work measure the
    /// `index.search.hamming_ops` counter meters.
    ///
    /// The [`crate::CodeArena`] kernel is required (and property-
    /// tested) to be byte-identical to this function; nothing on the
    /// search path calls it. `scratch` is reused across calls so scoring a
    /// whole gallery performs zero per-entry allocations.
    pub fn reference_similarity(
        &self,
        gallery: &CylinderCodes,
        lss_depth: usize,
        scratch: &mut Stage1Scratch,
    ) -> (f64, u64) {
        reference_similarity(&self.view(), &gallery.view(), lss_depth, scratch)
    }
}

/// The scalar reference scorer over borrowed code views — one probe code
/// set against one gallery code set (see
/// [`CylinderCodes::reference_similarity`] for the definition). Every
/// optimized kernel is validated against this function bit for bit.
pub(crate) fn reference_similarity(
    probe: &CodeView<'_>,
    gallery: &CodeView<'_>,
    lss_depth: usize,
    scratch: &mut Stage1Scratch,
) -> (f64, u64) {
    if probe.is_empty() || gallery.is_empty() {
        return (0.0, 0);
    }
    let mut word_ops = 0u64;
    let bests = &mut scratch.bests;
    bests.clear();
    for (pw, &po) in probe.words.iter().zip(probe.ones) {
        let mut best = 0.0f64;
        for (gw, &go) in gallery.words.iter().zip(gallery.ones) {
            let mass = po + go;
            if mass == 0 {
                continue;
            }
            word_ops += LANE_WORDS as u64;
            let sim = 1.0 - f64::from(hamming(pw, gw)) / f64::from(mass);
            if sim > best {
                best = sim;
            }
        }
        bests.push(best);
    }
    let depth = probe.len().min(gallery.len()).min(lss_depth).max(1);
    sort_bests_desc(bests);
    (bests[..depth].iter().sum::<f64>() / depth as f64, word_ops)
}

/// Sorts local bests descending under [`f64::total_cmp`]. Real kernels
/// only ever produce finite bests (`1 - h/mass` over non-negative
/// integers, mass > 0), but a defective future kernel emitting a NaN must
/// degrade a score, never abort the search mid-run the way the previous
/// `partial_cmp(..).expect(..)` comparator did. `total_cmp` is a total
/// order agreeing with `partial_cmp` on all finite values, so this is
/// byte-identical on every input the shipping kernels can produce.
pub(crate) fn sort_bests_desc(bests: &mut [f64]) {
    bests.sort_unstable_by(|a, b| b.total_cmp(a));
}

/// Hamming distance between two packed cylinders.
fn hamming(a: &[u64; LANE_WORDS], b: &[u64; LANE_WORDS]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_core::geometry::{Direction, Point};
    use fp_core::minutia::{Minutia, MinutiaKind};
    use fp_core::rng::SeedTree;
    use fp_core::template::Template;
    use proptest::prelude::*;
    use rand::Rng;

    fn template(seed: u64, n: usize) -> Template {
        let mut rng = SeedTree::new(seed).rng();
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

    fn codes(seed: u64, n: usize, cap: usize) -> CylinderCodes {
        CylinderCodes::extract(&MccMatcher::default(), &template(seed, n), cap)
    }

    /// The oracle at the default depth with a throwaway scratch.
    fn similarity(probe: &CylinderCodes, gallery: &CylinderCodes) -> (f64, u64) {
        probe.reference_similarity(gallery, 12, &mut Stage1Scratch::new())
    }

    #[test]
    fn self_similarity_is_one() {
        let c = codes(1, 30, 24);
        assert!(!c.is_empty());
        assert!(c.ones.iter().all(|&o| o > 0));
        assert_eq!(similarity(&c, &c).0, 1.0);
    }

    #[test]
    fn distinct_templates_score_below_one() {
        let a = codes(2, 30, 24);
        let b = codes(3, 30, 24);
        assert!(similarity(&a, &b).0 < 1.0);
    }

    #[test]
    fn genuine_mate_outranks_an_impostor() {
        // A rigidly moved copy of the template re-codes to (nearly) the same
        // cylinders; an unrelated template does not.
        let base = template(4, 30);
        let moved = base.transformed(&fp_core::geometry::RigidMotion::new(
            Direction::from_radians(0.3),
            fp_core::geometry::Vector::new(1.0, -0.5),
        ));
        let mcc = MccMatcher::default();
        let a = CylinderCodes::extract(&mcc, &base, 24);
        let b = CylinderCodes::extract(&mcc, &moved, 24);
        let imp = codes(5, 30, 24);
        assert!(similarity(&a, &b).0 > similarity(&a, &imp).0);
    }

    #[test]
    fn max_cylinders_caps_the_code_count() {
        let full = codes(6, 30, usize::MAX);
        let capped = codes(6, 30, 8);
        assert!(full.len() > 8);
        assert_eq!(capped.len(), 8);
    }

    #[test]
    fn empty_template_has_no_codes_and_scores_zero() {
        let mcc = MccMatcher::default();
        let empty = Template::builder(500.0).build().unwrap();
        let zero = CylinderCodes::extract(&mcc, &empty, 24);
        assert!(zero.is_empty());
        assert_eq!(similarity(&zero, &zero).0, 0.0);
        assert_eq!(similarity(&zero, &codes(7, 25, 24)).0, 0.0);
        assert_eq!(similarity(&codes(7, 25, 24), &zero).0, 0.0);
    }

    #[test]
    fn similarity_meters_word_ops() {
        let a = codes(2, 30, 24);
        let b = codes(3, 30, 24);
        let (_, ops) = similarity(&a, &b);
        // Every cylinder pair with nonzero combined mass compares
        // `LANE_WORDS` packed words.
        assert!(a.ones.iter().all(|&o| o > 0) && b.ones.iter().all(|&o| o > 0));
        assert_eq!(
            ops,
            (a.len() * b.len() * LANE_WORDS) as u64,
            "word ops must count the full cylinder-pair fan-out"
        );
        // Empty sides never touch a word.
        let empty = CylinderCodes::extract(
            &MccMatcher::default(),
            &Template::builder(500.0).build().unwrap(),
            24,
        );
        assert_eq!(similarity(&a, &empty), (0.0, 0));
        assert_eq!(similarity(&empty, &a), (0.0, 0));
    }

    #[test]
    fn nan_reliability_ranks_instead_of_panicking() {
        // `Minutia::new` clamps, but the field is `pub` and no `Template`
        // constructor checks it: a struct-literal NaN reaches `extract`.
        let mut minutiae = template(12, 30).minutiae().to_vec();
        minutiae[3].reliability = f64::NAN;
        let poisoned = Template::builder(500.0)
            .capture_window_mm(20.0, 24.0)
            .extend(minutiae)
            .build()
            .unwrap();

        let mut index = crate::CandidateIndex::new(fp_match::PairTableMatcher::default());
        index.enroll(&poisoned);
        index.enroll(&template(13, 30));
        assert_eq!(index.search(&poisoned).candidates()[0].id, 0);
        let (scores, ops) = index.stage1_cylinder_scores(&poisoned);
        let (reference, ops_reference) = index.stage1_cylinder_scores_reference(&poisoned);
        assert_eq!(ops, ops_reference);
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scores), bits(&reference));
        assert_eq!(scores[0], 1.0);
    }

    #[test]
    fn bests_sort_survives_nan_without_aborting() {
        // A defective kernel emitting NaN must never panic the sort (the
        // old partial_cmp comparator aborted the whole search). total_cmp
        // orders +NaN above +inf, so the ordering stays deterministic.
        let mut bests = vec![0.25, f64::NAN, 1.0, 0.0];
        sort_bests_desc(&mut bests);
        assert!(bests[0].is_nan());
        assert_eq!(&bests[1..], &[1.0, 0.25, 0.0]);
        // Finite-only inputs sort exactly as partial_cmp did.
        let mut finite = vec![0.25, 1.0, 0.0, 0.75];
        sort_bests_desc(&mut finite);
        assert_eq!(finite, vec![1.0, 0.75, 0.25, 0.0]);
    }

    #[test]
    fn from_raw_round_trips_extracted_codes() {
        let c = codes(11, 30, 24);
        let rebuilt = CylinderCodes::from_raw(c.view().words().to_vec(), c.ones.to_vec());
        assert_eq!(rebuilt, c);
        assert_eq!(similarity(&rebuilt, &c).0, 1.0);
    }

    #[test]
    #[should_panic(expected = "popcount")]
    fn from_raw_rejects_inconsistent_ones() {
        let _ = CylinderCodes::from_raw(vec![0b111, 0, 0, 0, 0], vec![2]);
    }

    /// A 16 x 16 x 6 grid is 1,536 cells, 24 words: no code of it fits
    /// the lane, so extraction refuses before it builds a cylinder.
    #[test]
    #[should_panic(expected = "does not pack into LANE_WORDS")]
    fn extract_refuses_a_grid_wider_than_the_lane() {
        let mcc = MccMatcher::new(fp_match::MccConfig {
            spatial_cells: 16,
            angular_cells: 6,
            ..fp_match::MccConfig::default()
        })
        .unwrap();
        let _ = CylinderCodes::extract(&mcc, &template(1, 30), 24);
    }

    /// The parent's extraction, kept as the oracle: the per-cell cylinder
    /// loop (verbatim, as `fp-match`'s `build_cylinders_reference` keeps it;
    /// a `#[cfg(test)]` item of another crate cannot be called) over
    /// **every** minutia, then only the `max_cylinders` most reliable valid
    /// ones binarized at their own mean.
    fn extract_reference(
        mcc: &MccMatcher,
        template: &Template,
        max_cylinders: usize,
    ) -> CylinderCodes {
        let cfg = mcc.config();
        let ms = template.minutiae();
        let n_cells = mcc.cell_count();
        let cell_size = 2.0 * cfg.radius / cfg.spatial_cells as f64;
        let ang_size = std::f64::consts::TAU / cfg.angular_cells as f64;
        let cylinders: Vec<(Vec<f32>, bool)> = ms
            .iter()
            .map(|centre| {
                let mut cells = vec![0.0f32; n_cells];
                let mut neighbours = 0usize;
                let frame = centre.direction;
                let (fc, fs) = (frame.radians().cos(), frame.radians().sin());
                for other in ms {
                    if std::ptr::eq(centre, other) {
                        continue;
                    }
                    let d = other.pos - centre.pos;
                    if d.norm() > cfg.radius {
                        continue;
                    }
                    neighbours += 1;
                    let lx = d.x * fc + d.y * fs;
                    let ly = -d.x * fs + d.y * fc;
                    let rel_dir = other.direction.signed_delta(frame);
                    let cx = ((lx + cfg.radius) / cell_size).floor() as isize;
                    let cy = ((ly + cfg.radius) / cell_size).floor() as isize;
                    let ca = ((rel_dir + std::f64::consts::PI) / ang_size).floor() as isize;
                    for dz in -1..=1isize {
                        for dy in -1..=1isize {
                            for dx in -1..=1isize {
                                let gx = cx + dx;
                                let gy = cy + dy;
                                let ga = (ca + dz).rem_euclid(cfg.angular_cells as isize);
                                if gx < 0
                                    || gy < 0
                                    || gx >= cfg.spatial_cells as isize
                                    || gy >= cfg.spatial_cells as isize
                                {
                                    continue;
                                }
                                let ccx = (gx as f64 + 0.5) * cell_size - cfg.radius;
                                let ccy = (gy as f64 + 0.5) * cell_size - cfg.radius;
                                let cca = (ga as f64 + 0.5) * ang_size - std::f64::consts::PI;
                                let ds2 = (lx - ccx).powi(2) + (ly - ccy).powi(2);
                                let mut da = (rel_dir - cca).rem_euclid(std::f64::consts::TAU);
                                if da > std::f64::consts::PI {
                                    da -= std::f64::consts::TAU;
                                }
                                let mass = (-ds2 / (2.0 * cfg.sigma_s * cfg.sigma_s)
                                    - da * da / (2.0 * cfg.sigma_d * cfg.sigma_d))
                                    .exp() as f32;
                                let idx = (ga as usize * cfg.spatial_cells + gy as usize)
                                    * cfg.spatial_cells
                                    + gx as usize;
                                cells[idx] += mass;
                            }
                        }
                    }
                }
                for c in &mut cells {
                    *c = c.min(1.0);
                }
                let norm = cells.iter().map(|c| c * c).sum::<f32>().sqrt();
                (cells, neighbours >= cfg.min_neighbours && norm > 1e-6)
            })
            .collect();

        let mut order: Vec<usize> = (0..ms.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            ms[b]
                .reliability
                .total_cmp(&ms[a].reliability)
                .then(a.cmp(&b))
        });
        let mut keep = vec![false; ms.len()];
        for &i in order.iter().take(max_cylinders) {
            keep[i] = true;
        }
        let mut words: Vec<u64> = Vec::new();
        let mut ones: Vec<u32> = Vec::new();
        for (i, (cells, valid)) in cylinders.iter().enumerate() {
            if !valid || !keep[i] {
                continue;
            }
            let base = words.len();
            words.resize(base + LANE_WORDS, 0);
            let mut set = 0u32;
            let mean: f32 = cells.iter().sum::<f32>() / cells.len() as f32;
            for (cell, &v) in cells.iter().enumerate() {
                if v > mean {
                    words[base + cell / 64] |= 1u64 << (cell % 64);
                    set += 1;
                }
            }
            ones.push(set);
        }
        CylinderCodes::from_raw(words, ones)
    }

    /// A template from raw `(x, y, direction, reliability class)` draws,
    /// spread by `spread` (large spreads leave minutiae with fewer than
    /// `min_neighbours` neighbours). Class 0 is a NaN reliability, which
    /// `Minutia::new` would clamp away; classes 1–3 share one value, so
    /// ranks tie. The first `coincide` minutiae are repeated at the same
    /// position with another direction.
    fn drawn_template(draws: &[(f64, f64, f64, u8)], spread: f64, coincide: usize) -> Template {
        let mut minutiae: Vec<Minutia> = draws
            .iter()
            .map(|&(x, y, dir, class)| {
                let mut m = Minutia::new(
                    Point::new(x * spread, y * spread),
                    Direction::from_radians(dir),
                    MinutiaKind::RidgeEnding,
                    1.0,
                );
                m.reliability = match class {
                    0 => f64::NAN,
                    1..=3 => 0.75,
                    c => c as f64 / 10.0,
                };
                m
            })
            .collect();
        let twins: Vec<Minutia> = minutiae
            .iter()
            .take(coincide)
            .map(|m| Minutia {
                direction: m.direction.rotated(1.0),
                ..*m
            })
            .collect();
        minutiae.extend(twins);
        Template::builder(500.0).extend(minutiae).build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Cylinders for the kept minutiae only give the codes of oracle
        /// cylinders for every minutia, filtered afterwards.
        #[test]
        fn kept_only_extraction_equals_the_every_minutia_oracle(
            draws in prop::collection::vec(
                (-8.0..8.0f64, -10.0..10.0f64, 0.0..std::f64::consts::TAU, 0u8..=9),
                0..61,
            ),
            spread in 0.25..3.0f64,
            coincide in 0usize..=4,
            cap in 0usize..=40,
        ) {
            let t = drawn_template(&draws, spread, coincide);
            let mcc = MccMatcher::default();
            for max_cylinders in [cap, 24, usize::MAX] {
                prop_assert_eq!(
                    CylinderCodes::extract(&mcc, &t, max_cylinders),
                    extract_reference(&mcc, &t, max_cylinders),
                    "n={} max_cylinders={}",
                    t.len(),
                    max_cylinders
                );
            }
        }
    }

    /// The cases the property must cover, fixed: more minutiae than the
    /// cap, no valid cylinder (two minutiae, one neighbour each), and the
    /// empty template.
    #[test]
    fn edge_cases_equal_the_oracle() {
        let mcc = MccMatcher::default();
        let lone = drawn_template(&[(0.0, 0.0, 0.0, 5), (1.0, 0.0, 1.0, 0)], 1.0, 0);
        assert!(CylinderCodes::extract(&mcc, &lone, 24).is_empty());
        let empty = Template::builder(500.0).build().unwrap();
        for t in [template(20, 40), lone, empty] {
            assert_eq!(
                CylinderCodes::extract(&mcc, &t, 24),
                extract_reference(&mcc, &t, 24)
            );
        }
    }
}
