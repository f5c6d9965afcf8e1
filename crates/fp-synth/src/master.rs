//! Master prints: the complete anatomical ground truth for one finger.

use rand::Rng;

use fp_core::dist;
use fp_core::geometry::{Direction, Point};
use fp_core::ids::Digit;
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;

use crate::field::OrientationField;
use crate::pattern::PatternClass;
use crate::region::FingerRegion;

/// Target minutiae density on the ridge-bearing pad (per mm²). Forensic
/// literature reports 0.15–0.25 minutiae/mm² on adult fingers.
pub const MINUTIA_DENSITY_PER_MM2: f64 = 0.20;

/// Minimum separation between master minutiae (mm); real minutiae almost
/// never sit closer than about three ridge widths.
pub const MIN_MINUTIA_SPACING_MM: f64 = 1.35;

/// Fraction of minutiae that are ridge endings (the rest are bifurcations).
pub const ENDING_FRACTION: f64 = 0.55;

/// The full anatomical ground truth of a finger: pattern, ridge geometry, and
/// the master minutiae that every acquisition is a degraded view of.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterPrint {
    class: PatternClass,
    field: OrientationField,
    region: FingerRegion,
    minutiae: Vec<Minutia>,
}

impl MasterPrint {
    /// Generates the master print for one finger.
    ///
    /// `seed` must be unique per `(subject, finger)`; `size_factor` carries
    /// subject-level hand size (1.0 = average).
    pub fn generate(seed: &SeedTree, digit: Digit, size_factor: f64) -> Self {
        Self::generate_metered(
            seed,
            digit,
            size_factor,
            &crate::metrics::SynthMetrics::default(),
        )
    }

    /// [`MasterPrint::generate`] with telemetry: records the generation
    /// into `metrics` (master count, ground-truth minutiae count).
    pub fn generate_metered(
        seed: &SeedTree,
        digit: Digit,
        size_factor: f64,
        metrics: &crate::metrics::SynthMetrics,
    ) -> Self {
        let mut class_rng = seed.child(&[0]).rng();
        let class = PatternClass::sample(&mut class_rng);

        let mut field_rng = seed.child(&[1]).rng();
        let field = OrientationField::generate(class, &mut field_rng);

        // Stream 2 is unused (it drew a ridge-frequency map): renumbering
        // the streams below would move every region and minutia draw.
        let mut region_rng = seed.child(&[3]).rng();
        let region = FingerRegion::generate(digit, size_factor, &mut region_rng);

        let mut minutiae_rng = seed.child(&[4]).rng();
        let minutiae = sample_minutiae(&field, &region, &mut minutiae_rng);
        metrics.record_master(minutiae.len());

        MasterPrint {
            class,
            field,
            region,
            minutiae,
        }
    }

    /// The Henry pattern class.
    pub fn class(&self) -> PatternClass {
        self.class
    }

    /// The ridge orientation field.
    pub fn field(&self) -> &OrientationField {
        &self.field
    }

    /// The ridge-bearing pad region.
    pub fn region(&self) -> &FingerRegion {
        &self.region
    }

    /// The master minutiae (ground truth, before any acquisition
    /// degradation).
    pub fn minutiae(&self) -> &[Minutia] {
        &self.minutiae
    }
}

/// Poisson-disc (dart-throwing with grid acceleration) sampling of master
/// minutiae inside the pad, directions aligned with local ridge flow.
fn sample_minutiae<R: Rng + ?Sized>(
    field: &OrientationField,
    region: &FingerRegion,
    rng: &mut R,
) -> Vec<Minutia> {
    let target = (region.area_mm2() * MINUTIA_DENSITY_PER_MM2).round() as usize;
    let spacing = MIN_MINUTIA_SPACING_MM;
    let bb = region.bounding_box();
    let cell = spacing / std::f64::consts::SQRT_2;
    let cols = (bb.width() / cell).ceil() as usize + 1;
    let rows = (bb.height() / cell).ceil() as usize + 1;
    let mut grid: Vec<Option<Point>> = vec![None; cols * rows];
    let cell_of = |p: &Point| -> (usize, usize) {
        let cx = ((p.x - bb.min().x) / cell) as usize;
        let cy = ((p.y - bb.min().y) / cell) as usize;
        (cx.min(cols - 1), cy.min(rows - 1))
    };

    let mut accepted: Vec<Point> = Vec::with_capacity(target);
    let max_attempts = target * 40;
    let mut attempts = 0;
    while accepted.len() < target && attempts < max_attempts {
        attempts += 1;
        let cand = region.sample_point(rng);
        let (cx, cy) = cell_of(&cand);
        let mut ok = true;
        'scan: for gy in cy.saturating_sub(2)..=(cy + 2).min(rows - 1) {
            for gx in cx.saturating_sub(2)..=(cx + 2).min(cols - 1) {
                if let Some(existing) = grid[gy * cols + gx] {
                    if existing.distance(&cand) < spacing {
                        ok = false;
                        break 'scan;
                    }
                }
            }
        }
        if ok {
            grid[cy * cols + cx] = Some(cand);
            accepted.push(cand);
        }
    }

    accepted
        .into_iter()
        .map(|pos| {
            let orient = field.orientation_at(pos);
            // Lift the undirected ridge orientation to a direction with a
            // random polarity — endings/bifurcations point either way along
            // the ridge in real prints.
            let flip = if rng.gen::<bool>() {
                std::f64::consts::PI
            } else {
                0.0
            };
            let direction = Direction::from_radians(orient.radians() + flip);
            let kind = if rng.gen::<f64>() < ENDING_FRACTION {
                MinutiaKind::RidgeEnding
            } else {
                MinutiaKind::Bifurcation
            };
            let reliability = dist::truncated_normal(rng, 0.95, 0.04, 0.75, 1.0);
            Minutia::new(pos, direction, kind, reliability)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn master(seed: u64) -> MasterPrint {
        MasterPrint::generate(&SeedTree::new(seed), Digit::Index, 1.0)
    }

    #[test]
    fn minutiae_count_matches_density() {
        for seed in 0..8 {
            let m = master(seed);
            let expected = m.region().area_mm2() * MINUTIA_DENSITY_PER_MM2;
            let n = m.minutiae().len() as f64;
            assert!(
                (n - expected).abs() <= expected * 0.2 + 3.0,
                "seed {seed}: {n} minutiae, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn minutiae_respect_minimum_spacing() {
        let m = master(5);
        let pts = m.minutiae();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let d = pts[i].distance(&pts[j]);
                assert!(
                    d >= MIN_MINUTIA_SPACING_MM - 1e-9,
                    "minutiae {i},{j} only {d} mm apart"
                );
            }
        }
    }

    #[test]
    fn minutiae_lie_on_the_pad() {
        let m = master(2);
        for minutia in m.minutiae() {
            assert!(m.region().contains(&minutia.pos));
        }
    }

    #[test]
    fn minutia_directions_follow_ridge_flow() {
        let m = master(7);
        for minutia in m.minutiae() {
            let flow = m.field().orientation_at(minutia.pos);
            let sep = fp_core::geometry::Orientation::from_radians(minutia.direction.radians())
                .separation(flow);
            assert!(sep < 1e-9, "direction deviates from flow by {sep}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = master(9);
        let b = master(9);
        assert_eq!(a.minutiae(), b.minutiae());
        assert_eq!(a.class(), b.class());
    }

    #[test]
    fn different_fingers_are_different() {
        let a = master(1);
        let b = master(2);
        assert_ne!(a.minutiae(), b.minutiae());
    }

    #[test]
    fn both_minutia_kinds_occur() {
        let m = master(11);
        let endings = m
            .minutiae()
            .iter()
            .filter(|x| x.kind == MinutiaKind::RidgeEnding)
            .count();
        assert!(endings > 0 && endings < m.minutiae().len());
    }
}
