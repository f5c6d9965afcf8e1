//! A Minutia-Cylinder-Code–style local-descriptor matcher (Cappelli,
//! Ferrara & Maltoni, 2010 — simplified).
//!
//! Each minutia gets a **cylinder**: a fixed-size descriptor over a local
//! spatial grid (in the minutia's own rotated frame, so the descriptor is
//! rotation/translation invariant by construction) crossed with a
//! directional grid. Every neighbouring minutia contributes Gaussian mass
//! to the cells near its relative position and relative direction; it
//! computes its angular and spatial terms once, then one `exp` per cell
//! ([`MccMatcher::cylinder_into`], the one cylinder body, held bit-equal to
//! the retained per-cell oracle `build_cylinders_reference`).
//! Matching compares cylinders with a normalized Euclidean similarity,
//! extracts the best one-to-one pairs (local-similarity-sort), and scores
//! by their mean similarity weighted by the number of confident pairs.
//!
//! This matcher is algorithmically independent of both the pair-table
//! matcher (global relative geometry) and the Hough matcher (explicit
//! alignment), which is exactly what the paper's "diverse matchers"
//! future-work question needs.

use fp_core::template::Template;
use fp_core::{MatchScore, Matcher};

use crate::PreparableMatcher;

/// Tuning parameters for [`MccMatcher`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MccConfig {
    /// Cylinder radius (mm): how far neighbours contribute.
    pub radius: f64,
    /// Spatial grid resolution per axis (cells across the cylinder).
    pub spatial_cells: usize,
    /// Number of directional cells over the full circle.
    pub angular_cells: usize,
    /// Spatial Gaussian bandwidth (mm).
    pub sigma_s: f64,
    /// Directional Gaussian bandwidth (radians).
    pub sigma_d: f64,
    /// Minimum neighbours inside the cylinder for it to be *valid*;
    /// descriptors built from fewer carry no evidence.
    pub min_neighbours: usize,
    /// Fraction of the smaller template's minutiae used as the number of
    /// top pairs averaged into the score.
    pub top_pair_fraction: f64,
    /// Scale applied to the mean similarity so MCC raw scores live on
    /// roughly the same axis as the other matchers.
    pub score_scale: f64,
}

impl Default for MccConfig {
    fn default() -> Self {
        MccConfig {
            radius: 5.0,
            spatial_cells: 8,
            angular_cells: 5,
            sigma_s: 1.0,
            sigma_d: 0.5,
            min_neighbours: 2,
            top_pair_fraction: 0.4,
            score_scale: 40.0,
        }
    }
}

/// An [`MccConfig`] the matcher cannot build cylinders with, rejected when
/// the matcher is built ([`MccMatcher::new`]) instead of at the first
/// cylinder.
///
/// The other fields cannot panic: a zero `sigma_s` or `sigma_d` divides
/// into infinite or `NaN` cell mass, which the clamp to 1 saturates, and a
/// non-positive `radius` leaves every neighbour out or at the centre cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MccConfigError {
    /// `angular_cells == 0`: a neighbour's directional cell is taken
    /// modulo `angular_cells`, which panics at zero.
    ZeroAngularCells,
    /// `spatial_cells == 0`: a cylinder would have no cells, so every one
    /// is invalid and every score `0`.
    ZeroSpatialCells,
}

impl std::fmt::Display for MccConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MccConfigError::ZeroAngularCells => write!(
                f,
                "angular_cells must be >= 1 (directional cells wrap modulo it)"
            ),
            MccConfigError::ZeroSpatialCells => write!(
                f,
                "spatial_cells must be >= 1 (a cylinder without cells is never valid)"
            ),
        }
    }
}

impl std::error::Error for MccConfigError {}

/// One minutia's cylinder descriptor.
#[derive(Debug, Clone)]
struct Cylinder {
    cells: Vec<f32>,
    norm: f32,
    valid: bool,
}

/// A template pre-processed into its cylinder set.
#[derive(Debug, Clone)]
pub struct PreparedCylinders {
    cylinders: Vec<Cylinder>,
    minutia_count: usize,
}

impl PreparedCylinders {
    /// Number of valid cylinders.
    pub fn valid_count(&self) -> usize {
        self.cylinders.iter().filter(|c| c.valid).count()
    }

    /// Number of minutiae in the originating template.
    pub fn minutia_count(&self) -> usize {
        self.minutia_count
    }
}

/// The MCC-style matcher. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct MccMatcher {
    config: MccConfig,
    metrics: crate::metrics::MccMetrics,
}

impl MccMatcher {
    /// Creates a matcher with explicit tuning parameters, or says why it
    /// cannot build cylinders with them.
    pub fn new(config: MccConfig) -> Result<Self, MccConfigError> {
        if config.angular_cells == 0 {
            return Err(MccConfigError::ZeroAngularCells);
        }
        if config.spatial_cells == 0 {
            return Err(MccConfigError::ZeroSpatialCells);
        }
        Ok(MccMatcher {
            config,
            metrics: Default::default(),
        })
    }

    /// Registers this matcher's work counters (comparisons, valid
    /// descriptors per template) on `telemetry`.
    pub fn with_telemetry(mut self, telemetry: &fp_telemetry::Telemetry) -> Self {
        self.metrics = crate::metrics::MccMetrics::new(telemetry);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &MccConfig {
        &self.config
    }

    /// Cells in one cylinder: `spatial_cells² × angular_cells`, laid out
    /// angular-major, then y, then x.
    pub fn cell_count(&self) -> usize {
        self.config.spatial_cells * self.config.spatial_cells * self.config.angular_cells
    }

    /// Builds the cylinder of minutia `centre` of `template` into `cells`
    /// (`cell_count()` long, overwritten) and returns its norm and whether
    /// it is *valid* (at least `min_neighbours` neighbours and a non-zero
    /// norm; an invalid cylinder carries no evidence).
    ///
    /// This is the one cylinder body: [`PreparableMatcher::prepare`] maps it
    /// over every minutia, and `fp-index` calls it for the minutiae it keeps
    /// codes for, into one reused buffer. Each neighbour computes its three
    /// angular terms and its three x and three y spatial squares once; each
    /// of the (up to) 27 cells around it then costs one `exp`, added in
    /// (angle, y, x) order, so every cell holds the same `f32` sum as a
    /// loop that recomputes the terms per cell.
    ///
    /// Panics unless `centre < template.len()` and `cells.len() ==
    /// cell_count()`.
    pub fn cylinder_into(
        &self,
        template: &Template,
        centre: usize,
        cells: &mut [f32],
    ) -> (f32, bool) {
        use std::f64::consts::{PI, TAU};
        assert_eq!(cells.len(), self.cell_count(), "one cylinder's cells");
        let cfg = &self.config;
        let ms = template.minutiae();
        let side = cfg.spatial_cells;
        let cell_size = 2.0 * cfg.radius / side as f64;
        let ang_size = TAU / cfg.angular_cells as f64;
        let spatial_scale = 2.0 * cfg.sigma_s * cfg.sigma_s;
        let angular_scale = 2.0 * cfg.sigma_d * cfg.sigma_d;
        // The in-grid cells of one axis around coordinate `v`: index and
        // squared distance to the cell centre, in ascending index order.
        let axis = |v: f64| {
            let c = ((v + cfg.radius) / cell_size).floor() as isize;
            let mut out = [(0usize, 0.0f64); 3];
            let mut len = 0;
            for g in c - 1..=c + 1 {
                if g >= 0 && g < side as isize {
                    let mid = (g as f64 + 0.5) * cell_size - cfg.radius;
                    out[len] = (g as usize, (v - mid).powi(2));
                    len += 1;
                }
            }
            (out, len)
        };

        cells.fill(0.0);
        let mut neighbours = 0usize;
        let origin = &ms[centre];
        let frame = origin.direction;
        let (fc, fs) = (frame.radians().cos(), frame.radians().sin());
        for (j, other) in ms.iter().enumerate() {
            if j == centre {
                continue;
            }
            let d = other.pos - origin.pos;
            if d.norm() > cfg.radius {
                continue;
            }
            neighbours += 1;
            // Rotate into the centre minutia's frame.
            let lx = d.x * fc + d.y * fs;
            let ly = -d.x * fs + d.y * fc;
            let rel_dir = other.direction.signed_delta(frame);
            // Gaussian mass over the 3x3x3 cell neighbourhood of the
            // contribution point: the terms of each axis first.
            let ca = ((rel_dir + PI) / ang_size).floor() as isize;
            let mut angular = [(0usize, 0.0f64); 3];
            for (slot, dz) in angular.iter_mut().zip(-1..=1isize) {
                let ga = (ca + dz).rem_euclid(cfg.angular_cells as isize);
                let cca = (ga as f64 + 0.5) * ang_size - PI;
                let mut da = (rel_dir - cca).rem_euclid(TAU);
                if da > PI {
                    da -= TAU;
                }
                *slot = (ga as usize, da * da / angular_scale);
            }
            let (xs, nx) = axis(lx);
            let (ys, ny) = axis(ly);
            for &(ga, ang) in &angular {
                for &(gy, sy) in &ys[..ny] {
                    let row = (ga * side + gy) * side;
                    for &(gx, sx) in &xs[..nx] {
                        let ds2 = sx + sy;
                        cells[row + gx] += (-ds2 / spatial_scale - ang).exp() as f32;
                    }
                }
            }
        }
        // Saturate cell mass (MCC uses a sigmoid; a clamp is enough).
        for c in cells.iter_mut() {
            *c = c.min(1.0);
        }
        let norm = cells.iter().map(|c| c * c).sum::<f32>().sqrt();
        (norm, neighbours >= cfg.min_neighbours && norm > 1e-6)
    }

    fn build_cylinders(&self, template: &Template) -> PreparedCylinders {
        let cylinders = (0..template.len())
            .map(|centre| {
                let mut cells = vec![0.0f32; self.cell_count()];
                let (norm, valid) = self.cylinder_into(template, centre, &mut cells);
                Cylinder { cells, norm, valid }
            })
            .collect();
        let prepared = PreparedCylinders {
            cylinders,
            minutia_count: template.len(),
        };
        self.metrics
            .valid_cylinders
            .record(prepared.valid_count() as u64);
        prepared
    }

    /// Normalized Euclidean similarity between two cylinders, in `[0, 1]`.
    fn similarity(a: &Cylinder, b: &Cylinder) -> f32 {
        if !a.valid || !b.valid {
            return 0.0;
        }
        let dist: f32 = a
            .cells
            .iter()
            .zip(&b.cells)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt();
        let denom = a.norm + b.norm;
        if denom <= 1e-6 {
            0.0
        } else {
            (1.0 - dist / denom).max(0.0)
        }
    }

    fn score_cylinders(
        &self,
        gallery: &PreparedCylinders,
        probe: &PreparedCylinders,
    ) -> MatchScore {
        self.metrics.comparisons.incr();
        let ng = gallery.cylinders.len();
        let np = probe.cylinders.len();
        if ng == 0 || np == 0 {
            return MatchScore::ZERO;
        }
        // Local similarity matrix; keep the best pairs, one-to-one.
        let mut pairs: Vec<(f32, usize, usize)> = Vec::new();
        for (i, a) in gallery.cylinders.iter().enumerate() {
            for (j, b) in probe.cylinders.iter().enumerate() {
                let s = Self::similarity(a, b);
                if s > 0.05 {
                    pairs.push((s, i, j));
                }
            }
        }
        if pairs.is_empty() {
            return MatchScore::ZERO;
        }
        // Every similarity kept is above 0.05, so `total_cmp` orders them as
        // `partial_cmp` did; the sort is stable, so ties keep pair order.
        pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
        let top = ((ng.min(np) as f64 * self.config.top_pair_fraction).ceil() as usize).max(3);
        let mut g_used = vec![false; ng];
        let mut p_used = vec![false; np];
        let mut taken = 0usize;
        let mut total = 0.0f64;
        for (s, i, j) in pairs {
            if taken >= top {
                break;
            }
            if g_used[i] || p_used[j] {
                continue;
            }
            g_used[i] = true;
            p_used[j] = true;
            taken += 1;
            total += s as f64;
        }
        if taken < 3 {
            return MatchScore::ZERO;
        }
        // Mean of the selected local similarities, weighted by how many of
        // the requested top pairs were actually found.
        let mean = total / taken as f64;
        let coverage = taken as f64 / top as f64;
        MatchScore::new(mean * coverage * self.config.score_scale)
    }
}

impl Matcher for MccMatcher {
    fn compare(&self, gallery: &Template, probe: &Template) -> MatchScore {
        self.score_cylinders(&self.build_cylinders(gallery), &self.build_cylinders(probe))
    }

    fn name(&self) -> &str {
        "mcc"
    }
}

impl PreparableMatcher for MccMatcher {
    type Prepared = PreparedCylinders;

    fn prepare(&self, template: &Template) -> PreparedCylinders {
        self.build_cylinders(template)
    }

    fn compare_prepared(
        &self,
        gallery: &PreparedCylinders,
        probe: &PreparedCylinders,
    ) -> MatchScore {
        self.score_cylinders(gallery, probe)
    }
}

#[cfg(test)]
impl MccMatcher {
    /// **The cylinder oracle**: the per-cell builder `cylinder_into`
    /// replaced, kept verbatim. Every cell recomputes its neighbour's
    /// angular and spatial terms.
    fn build_cylinders_reference(&self, template: &Template) -> Vec<Cylinder> {
        let cfg = &self.config;
        let ms = template.minutiae();
        let n_cells = self.cell_count();
        let cell_size = 2.0 * cfg.radius / cfg.spatial_cells as f64;
        let ang_size = std::f64::consts::TAU / cfg.angular_cells as f64;

        ms.iter()
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
                    // Rotate into the centre minutia's frame.
                    let lx = d.x * fc + d.y * fs;
                    let ly = -d.x * fs + d.y * fc;
                    let rel_dir = other.direction.signed_delta(frame);
                    // Gaussian mass over the 3x3x3 cell neighbourhood of the
                    // contribution point.
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
                                // Cell centre in local coordinates.
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
                // Saturate cell mass (MCC uses a sigmoid; a clamp is enough).
                for c in &mut cells {
                    *c = c.min(1.0);
                }
                let norm = cells.iter().map(|c| c * c).sum::<f32>().sqrt();
                Cylinder {
                    cells,
                    norm,
                    valid: neighbours >= cfg.min_neighbours && norm > 1e-6,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_core::geometry::{Direction, Point, RigidMotion, Vector};
    use fp_core::minutia::{Minutia, MinutiaKind};
    use fp_core::rng::SeedTree;
    use rand::Rng;

    fn synthetic_template(seed: u64, n: usize) -> Template {
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
                1.0,
            ));
        }
        Template::builder(500.0)
            .capture_window_mm(20.0, 24.0)
            .extend(minutiae)
            .build()
            .unwrap()
    }

    #[test]
    fn self_match_beats_impostor() {
        let m = MccMatcher::default();
        let a = synthetic_template(1, 32);
        let b = synthetic_template(2, 32);
        let self_score = m.compare(&a, &a).value();
        let impostor = m.compare(&a, &b).value();
        assert!(
            self_score > impostor + 5.0,
            "self {self_score:.1} vs impostor {impostor:.1}"
        );
    }

    #[test]
    fn descriptor_is_rotation_invariant() {
        let m = MccMatcher::default();
        let t = synthetic_template(3, 30);
        let moved = t.transformed(&RigidMotion::new(
            Direction::from_radians(1.1),
            Vector::new(4.0, -3.0),
        ));
        let self_score = m.compare(&t, &t).value();
        let moved_score = m.compare(&t, &moved).value();
        assert!(
            (self_score - moved_score).abs() < self_score * 0.05 + 0.5,
            "self {self_score:.1} vs moved {moved_score:.1}"
        );
    }

    #[test]
    fn empty_and_sparse_templates_score_zero() {
        let m = MccMatcher::default();
        let empty = Template::builder(500.0).build().unwrap();
        let sparse = synthetic_template(4, 2);
        let full = synthetic_template(5, 30);
        assert_eq!(m.compare(&empty, &full).value(), 0.0);
        assert_eq!(m.compare(&full, &empty).value(), 0.0);
        // Two isolated minutiae: no cylinder reaches min_neighbours.
        assert_eq!(m.compare(&sparse, &sparse).value(), 0.0);
    }

    #[test]
    fn prepared_path_matches_direct() {
        let m = MccMatcher::default();
        let a = synthetic_template(6, 28);
        let b = synthetic_template(7, 28);
        let pa = m.prepare(&a);
        let pb = m.prepare(&b);
        assert_eq!(m.compare(&a, &b), m.compare_prepared(&pa, &pb));
    }

    #[test]
    fn jitter_degrades_gracefully() {
        let m = MccMatcher::default();
        let t = synthetic_template(8, 32);
        let mut rng = SeedTree::new(80).rng();
        let jittered: Vec<Minutia> = t
            .minutiae()
            .iter()
            .map(|mi| {
                Minutia::new(
                    Point::new(
                        mi.pos.x + fp_core::dist::normal(&mut rng, 0.0, 0.12),
                        mi.pos.y + fp_core::dist::normal(&mut rng, 0.0, 0.12),
                    ),
                    mi.direction
                        .rotated(fp_core::dist::normal(&mut rng, 0.0, 0.06)),
                    mi.kind,
                    mi.reliability,
                )
            })
            .collect();
        let jt = Template::builder(500.0)
            .capture_window_mm(20.0, 24.0)
            .extend(jittered)
            .build()
            .unwrap();
        let self_score = m.compare(&t, &t).value();
        let jitter_score = m.compare(&t, &jt).value();
        let impostor = m.compare(&t, &synthetic_template(9, 32)).value();
        assert!(
            jitter_score > self_score * 0.55,
            "jitter {jitter_score:.1} self {self_score:.1}"
        );
        assert!(
            jitter_score > impostor,
            "jitter {jitter_score:.1} impostor {impostor:.1}"
        );
    }

    #[test]
    fn valid_count_reflects_neighbourhoods() {
        let m = MccMatcher::default();
        let dense = m.prepare(&synthetic_template(10, 35));
        assert!(dense.valid_count() > dense.minutia_count() / 2);
        let sparse = m.prepare(&synthetic_template(11, 3));
        assert!(sparse.valid_count() <= sparse.minutia_count());
    }

    /// `prepare` against `build_cylinders_reference` on `t`: every cell's
    /// bits, every norm's bits and every validity flag.
    fn assert_prepare_equals_reference(m: &MccMatcher, t: &Template) {
        let new = m.prepare(t).cylinders;
        let old = m.build_cylinders_reference(t);
        assert_eq!(new.len(), old.len());
        let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (i, (a, b)) in new.iter().zip(&old).enumerate() {
            assert_eq!(bits(&a.cells), bits(&b.cells), "cells of cylinder {i}");
            assert_eq!(a.norm.to_bits(), b.norm.to_bits(), "norm of cylinder {i}");
            assert_eq!(a.valid, b.valid, "validity of cylinder {i}");
        }
    }

    #[test]
    fn prepare_equals_the_reference_bit_for_bit() {
        use fp_core::ids::{DeviceId, Finger, SessionId};

        // Real captures: six subjects on every device (D4 is the ink card,
        // about twice the minutiae), both sessions.
        let population = fp_synth::population::Population::generate(
            &fp_synth::population::PopulationConfig::new(0xC71, 6),
        );
        let protocol = fp_sensor::CaptureProtocol::new();
        let mut templates = Vec::new();
        for subject in population.subjects() {
            for device in DeviceId::ALL {
                for session in [SessionId(0), SessionId(1)] {
                    let capture = protocol.capture(subject, Finger::RIGHT_INDEX, device, session);
                    templates.push(capture.template().clone());
                }
            }
        }
        // Synthetic ones from empty to 60 minutiae, and one whose minutiae
        // all sit twice at the same place.
        templates.extend((0..=60).map(|n| synthetic_template(900 + n, n as usize)));
        let doubled = synthetic_template(990, 20).minutiae().repeat(2);
        templates.push(
            Template::builder(500.0)
                .capture_window_mm(20.0, 24.0)
                .extend(doubled)
                .build()
                .unwrap(),
        );
        // The default grid, and coarse ones where the three angular cells
        // around a neighbour alias (two and one directional cells), most
        // of the 3 x 3 spatial block falls off the grid, and the Gaussian
        // denominators are not powers of two.
        let configs = [
            MccConfig::default(),
            MccConfig {
                spatial_cells: 3,
                angular_cells: 2,
                radius: 7.0,
                sigma_s: 0.7,
                sigma_d: 0.3,
                ..MccConfig::default()
            },
            MccConfig {
                spatial_cells: 1,
                angular_cells: 1,
                sigma_s: 0.7,
                sigma_d: 0.3,
                ..MccConfig::default()
            },
        ];
        for config in configs {
            let m = MccMatcher::new(config).unwrap();
            for t in &templates {
                assert_prepare_equals_reference(&m, t);
            }
        }
    }

    #[test]
    fn zero_cell_counts_are_rejected_at_construction() {
        let zero_angular = MccConfig {
            angular_cells: 0,
            ..MccConfig::default()
        };
        let err = MccMatcher::new(zero_angular).unwrap_err();
        assert_eq!(err, MccConfigError::ZeroAngularCells);
        assert!(err.to_string().contains("angular_cells"), "{err}");
        let zero_spatial = MccConfig {
            spatial_cells: 0,
            ..MccConfig::default()
        };
        assert_eq!(
            MccMatcher::new(zero_spatial).unwrap_err(),
            MccConfigError::ZeroSpatialCells
        );
        let m = MccMatcher::new(MccConfig::default()).unwrap();
        let t = synthetic_template(1, 30);
        assert!(m.compare(&t, &t).value() > 0.0);
    }
}
