//! Ridge frequency (inverse ridge period) maps.
//!
//! Human ridge period averages ≈ 0.46 mm on adult index fingers (≈ 9 ridges
//! per 500 dpi centimetre), tightening slightly around the core and
//! coarsening toward the pad edges. The period scales with finger size and
//! varies between subjects; both effects matter to interoperability because
//! resolution mismatches between sensors interact with ridge period when
//! minutiae are quantized to pixels.

use rand::Rng;

use fp_core::dist;
use fp_core::geometry::Point;

/// Mean adult ridge period in millimetres.
pub const MEAN_RIDGE_PERIOD_MM: f64 = 0.46;

/// A smooth per-finger ridge frequency map.
#[derive(Debug, Clone, PartialEq)]
pub struct RidgeFrequencyMap {
    /// Base ridge period for this finger (mm).
    base_period: f64,
    /// Centre of the fine-ridge (core) region.
    core: Point,
    /// Fractional tightening at the core (e.g. 0.1 = 10% shorter period).
    core_tightening: f64,
    /// Decay scale of the core effect (mm).
    core_sigma: f64,
    /// Fractional coarsening per mm of distance beyond the pad centre.
    edge_coarsening: f64,
}

impl RidgeFrequencyMap {
    /// Generates a frequency map for a finger whose core region sits at
    /// `core`; subject-level variation comes from `rng`.
    pub fn generate<R: Rng + ?Sized>(core: Point, rng: &mut R) -> Self {
        RidgeFrequencyMap {
            base_period: dist::truncated_normal(rng, MEAN_RIDGE_PERIOD_MM, 0.04, 0.34, 0.60),
            core,
            core_tightening: dist::truncated_normal(rng, 0.10, 0.03, 0.0, 0.2),
            core_sigma: dist::truncated_normal(rng, 5.0, 0.8, 3.0, 8.0),
            edge_coarsening: dist::truncated_normal(rng, 0.004, 0.001, 0.0, 0.01),
        }
    }

    /// Local ridge period (mm) at a point.
    pub fn period_at(&self, p: Point) -> f64 {
        let d_core = p.distance(&self.core);
        let tighten = self.core_tightening * (-(d_core / self.core_sigma).powi(2)).exp();
        let d_centre = p.distance(&Point::ORIGIN);
        let coarsen = self.edge_coarsening * d_centre;
        self.base_period * (1.0 - tighten + coarsen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_core::rng::SeedTree;

    fn map(seed: u64) -> RidgeFrequencyMap {
        let mut rng = SeedTree::new(seed).rng();
        RidgeFrequencyMap::generate(Point::new(0.0, 1.5), &mut rng)
    }

    #[test]
    fn period_is_tighter_at_core_than_at_edge() {
        let m = map(1);
        let at_core = m.period_at(Point::new(0.0, 1.5));
        let at_edge = m.period_at(Point::new(8.0, -10.0));
        assert!(at_core < at_edge, "core {at_core} vs edge {at_edge}");
    }

    #[test]
    fn period_stays_in_anatomical_range() {
        for seed in 0..20 {
            let m = map(seed);
            for (x, y) in [(0.0, 0.0), (0.0, 1.5), (9.0, 12.0), (-9.0, -12.0)] {
                let p = m.period_at(Point::new(x, y));
                assert!(
                    (0.25..0.8).contains(&p),
                    "seed {seed}: period {p} at ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn subjects_differ_in_period() {
        let p = Point::ORIGIN;
        assert_ne!(map(1).period_at(p), map(2).period_at(p));
    }
}
