//! Ridge orientation fields.
//!
//! Loops, whorls and tented arches use the **Sherlock–Monro zero-pole
//! model**: the orientation at a point `z` in the complex plane is
//!
//! ```text
//! theta(z) = theta_bg + 1/2 * [ sum_cores arg(z - c_i) - sum_deltas arg(z - d_j) ]
//! ```
//!
//! Cores are zeros and deltas are poles of the underlying quadratic
//! differential; the 1/2 factor produces the half-integral Poincaré indices
//! characteristic of fingerprint singularities. Plain arches have no
//! singularities and use a smooth analytic arch flow instead.
//!
//! A low-frequency sinusoidal perturbation de-idealizes the field so no two
//! fingers are exactly alike even within a class.

use rand::Rng;

use fp_core::dist;
use fp_core::geometry::{Orientation, Point};

use crate::pattern::PatternClass;

/// One low-frequency sinusoidal perturbation component of the field.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ripple {
    amplitude: f64,
    fx: f64,
    fy: f64,
    phase: f64,
}

impl Ripple {
    fn eval(&self, p: Point) -> f64 {
        self.amplitude * (self.fx * p.x + self.fy * p.y + self.phase).cos()
    }
}

/// The underlying analytic model of the field.
#[derive(Debug, Clone, PartialEq)]
enum FieldModel {
    /// Smooth singular-point-free arch flow.
    Arch {
        /// Peak ridge slope (radians) at the flanks of the arch.
        amplitude: f64,
        /// Horizontal scale of the flanks (mm).
        width: f64,
        /// Height of the arch crest (mm above pad centre).
        crest_y: f64,
        /// Vertical decay scale (mm).
        sigma: f64,
    },
    /// Sherlock–Monro zero-pole field.
    ZeroPole {
        cores: Vec<Point>,
        deltas: Vec<Point>,
        /// Far-field background orientation (radians).
        background: f64,
    },
}

/// A continuous ridge-flow orientation field over the finger pad.
#[derive(Debug, Clone, PartialEq)]
pub struct OrientationField {
    model: FieldModel,
    ripples: Vec<Ripple>,
}

impl OrientationField {
    /// Builds the orientation field for a pattern class, with per-finger
    /// randomness in singularity placement and perturbation drawn from `rng`.
    pub fn generate<R: Rng + ?Sized>(class: PatternClass, rng: &mut R) -> Self {
        let jitter = |rng: &mut R, sd: f64| dist::normal(rng, 0.0, sd);
        let model = match class {
            PatternClass::Arch => FieldModel::Arch {
                amplitude: dist::truncated_normal(rng, 0.45, 0.08, 0.2, 0.8),
                width: dist::truncated_normal(rng, 6.0, 1.0, 3.5, 9.0),
                crest_y: jitter(rng, 1.5),
                sigma: dist::truncated_normal(rng, 7.0, 1.0, 4.0, 10.0),
            },
            PatternClass::TentedArch => {
                let x = jitter(rng, 0.8);
                FieldModel::ZeroPole {
                    cores: vec![Point::new(x, 0.8 + jitter(rng, 0.7))],
                    deltas: vec![Point::new(x + jitter(rng, 0.5), -4.5 + jitter(rng, 0.8))],
                    background: jitter(rng, 0.05),
                }
            }
            PatternClass::LeftLoop => FieldModel::ZeroPole {
                cores: vec![Point::new(-0.8 + jitter(rng, 0.8), 1.8 + jitter(rng, 0.9))],
                deltas: vec![Point::new(4.5 + jitter(rng, 1.0), -5.5 + jitter(rng, 1.0))],
                background: jitter(rng, 0.05),
            },
            PatternClass::RightLoop => FieldModel::ZeroPole {
                cores: vec![Point::new(0.8 + jitter(rng, 0.8), 1.8 + jitter(rng, 0.9))],
                deltas: vec![Point::new(-4.5 + jitter(rng, 1.0), -5.5 + jitter(rng, 1.0))],
                background: jitter(rng, 0.05),
            },
            PatternClass::Whorl => {
                let spread = 1.0 + jitter(rng, 0.25).abs();
                FieldModel::ZeroPole {
                    cores: vec![
                        Point::new(-spread + jitter(rng, 0.3), 1.5 + jitter(rng, 0.6)),
                        Point::new(spread + jitter(rng, 0.3), 1.2 + jitter(rng, 0.6)),
                    ],
                    deltas: vec![
                        Point::new(-5.0 + jitter(rng, 0.8), -5.5 + jitter(rng, 0.8)),
                        Point::new(5.0 + jitter(rng, 0.8), -5.5 + jitter(rng, 0.8)),
                    ],
                    background: jitter(rng, 0.05),
                }
            }
        };
        let ripples = (0..3)
            .map(|_| Ripple {
                amplitude: dist::truncated_normal(rng, 0.06, 0.02, 0.0, 0.15),
                fx: dist::normal(rng, 0.0, 0.25),
                fy: dist::normal(rng, 0.0, 0.25),
                phase: rng.gen::<f64>() * std::f64::consts::TAU,
            })
            .collect();
        OrientationField { model, ripples }
    }

    /// The ridge-flow orientation at a point of the pad.
    pub fn orientation_at(&self, p: Point) -> Orientation {
        let base = match &self.model {
            FieldModel::Arch {
                amplitude,
                width,
                crest_y,
                sigma,
            } => {
                // Ridges run mostly horizontally; they slope up on the left
                // flank and down on the right, with the effect decaying away
                // from the crest line.
                let lateral = -(p.x / width).tanh();
                let vertical = (-((p.y - crest_y) / sigma).powi(2)).exp();
                amplitude * lateral * vertical
            }
            FieldModel::ZeroPole {
                cores,
                deltas,
                background,
            } => {
                let mut theta = *background;
                for c in cores {
                    theta += 0.5 * (p.y - c.y).atan2(p.x - c.x);
                }
                for d in deltas {
                    theta -= 0.5 * (p.y - d.y).atan2(p.x - d.x);
                }
                theta
            }
        };
        let ripple: f64 = self.ripples.iter().map(|r| r.eval(p)).sum();
        Orientation::from_radians(base + ripple)
    }

    /// Poincaré index of the field around a closed circular path, in
    /// half-turns. A core contributes +1/2, a delta −1/2; this is the
    /// standard singularity detector used to validate the field.
    pub fn poincare_index(&self, centre: Point, radius: f64, samples: usize) -> f64 {
        assert!(samples >= 8, "need at least 8 samples on the circle");
        let mut total = 0.0;
        let mut prev = self
            .orientation_at(Point::new(centre.x + radius, centre.y))
            .radians();
        for i in 1..=samples {
            let angle = std::f64::consts::TAU * i as f64 / samples as f64;
            let p = Point::new(
                centre.x + radius * angle.cos(),
                centre.y + radius * angle.sin(),
            );
            let cur = self.orientation_at(p).radians();
            let mut delta = cur - prev;
            // Orientations live on [0, pi): unwrap modulo pi.
            while delta > std::f64::consts::FRAC_PI_2 {
                delta -= std::f64::consts::PI;
            }
            while delta < -std::f64::consts::FRAC_PI_2 {
                delta += std::f64::consts::PI;
            }
            total += delta;
            prev = cur;
        }
        total / std::f64::consts::PI
    }
}

/// The type of a detected singular point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SingularityKind {
    /// Poincaré index +1/2.
    Core,
    /// Poincaré index −1/2.
    Delta,
}

/// A singular point detected in an orientation field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Singularity {
    /// Estimated position (grid-cell centre).
    pub position: Point,
    /// Core or delta.
    pub kind: SingularityKind,
}

impl OrientationField {
    /// Detects singular points by scanning the Poincaré index over a grid —
    /// the standard detector applied to *any* orientation field, ground
    /// truth or estimated. Grid cells whose index magnitude exceeds 0.25
    /// half-turns are clustered (adjacent detections merge to their
    /// centroid).
    ///
    /// `bounds` limits the scan; `step` is the grid pitch in mm.
    pub fn detect_singularities(
        &self,
        bounds: fp_core::geometry::Rect,
        step: f64,
    ) -> Vec<Singularity> {
        assert!(step > 0.0, "step must be positive");
        let mut raw: Vec<(Point, SingularityKind)> = Vec::new();
        let mut y = bounds.min().y + step / 2.0;
        while y < bounds.max().y {
            let mut x = bounds.min().x + step / 2.0;
            while x < bounds.max().x {
                let p = Point::new(x, y);
                let idx = self.poincare_index(p, step * 0.6, 48);
                if idx > 0.25 {
                    raw.push((p, SingularityKind::Core));
                } else if idx < -0.25 {
                    raw.push((p, SingularityKind::Delta));
                }
                x += step;
            }
            y += step;
        }
        // Cluster adjacent detections of the same kind (within 2 steps).
        let mut clusters: Vec<(Point, SingularityKind, usize)> = Vec::new();
        for (p, kind) in raw {
            if let Some((centre, _, count)) = clusters
                .iter_mut()
                .find(|(c, k, _)| *k == kind && c.distance(&p) < 2.0 * step)
            {
                let n = *count as f64;
                *centre = Point::new(
                    (centre.x * n + p.x) / (n + 1.0),
                    (centre.y * n + p.y) / (n + 1.0),
                );
                *count += 1;
            } else {
                clusters.push((p, kind, 1));
            }
        }
        clusters
            .into_iter()
            .map(|(position, kind, _)| Singularity { position, kind })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_core::rng::SeedTree;

    fn field(class: PatternClass, seed: u64) -> OrientationField {
        // The class's core count picks the seed path.
        let cores = match class {
            PatternClass::Arch => 0,
            PatternClass::Whorl => 2,
            _ => 1,
        };
        let mut rng = SeedTree::new(seed).child(&[cores]).rng();
        OrientationField::generate(class, &mut rng)
    }

    /// The field's core and delta singular points (none for plain arches).
    fn singular_points(f: &OrientationField) -> (&[Point], &[Point]) {
        match &f.model {
            FieldModel::Arch { .. } => (&[], &[]),
            FieldModel::ZeroPole { cores, deltas, .. } => (cores, deltas),
        }
    }

    #[test]
    fn loop_core_has_positive_half_index() {
        for seed in 0..5 {
            let f = field(PatternClass::LeftLoop, seed);
            let core = singular_points(&f).0[0];
            let idx = f.poincare_index(core, 1.0, 720);
            assert!((idx - 1.0).abs() < 0.15, "seed {seed}: index {idx}");
        }
    }

    #[test]
    fn loop_delta_has_negative_half_index() {
        for seed in 0..5 {
            let f = field(PatternClass::RightLoop, seed);
            let delta = singular_points(&f).1[0];
            let idx = f.poincare_index(delta, 1.0, 720);
            assert!((idx + 1.0).abs() < 0.15, "seed {seed}: index {idx}");
        }
    }

    #[test]
    fn whorl_has_two_cores_two_deltas() {
        let f = field(PatternClass::Whorl, 3);
        assert_eq!(singular_points(&f).0.len(), 2);
        assert_eq!(singular_points(&f).1.len(), 2);
    }

    #[test]
    fn arch_field_is_singularity_free() {
        let f = field(PatternClass::Arch, 4);
        assert!(singular_points(&f).0.is_empty());
        assert!(singular_points(&f).1.is_empty());
        // Poincaré index around any point should be ~0.
        for (x, y) in [(0.0, 0.0), (2.0, 3.0), (-3.0, -2.0)] {
            let idx = f.poincare_index(Point::new(x, y), 1.5, 720);
            assert!(idx.abs() < 0.1, "index at ({x},{y}) = {idx}");
        }
    }

    #[test]
    fn field_is_smooth_away_from_singularities() {
        let f = field(PatternClass::LeftLoop, 7);
        let p = Point::new(6.0, 6.0);
        let q = Point::new(6.05, 6.0);
        let sep = f.orientation_at(p).separation(f.orientation_at(q));
        assert!(sep < 0.1, "orientation jumped by {sep}");
    }

    #[test]
    fn same_seed_same_field_different_seed_different_field() {
        let a = field(PatternClass::Whorl, 5);
        let b = field(PatternClass::Whorl, 5);
        assert_eq!(a, b);
        let c = field(PatternClass::Whorl, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn detector_finds_the_loop_core_and_delta() {
        use fp_core::geometry::Rect;
        for seed in 0..3 {
            let f = field(PatternClass::LeftLoop, seed);
            let bounds = Rect::centred(Point::new(0.0, -1.0), 22.0, 26.0).unwrap();
            let found = f.detect_singularities(bounds, 1.2);
            let cores: Vec<_> = found
                .iter()
                .filter(|s| s.kind == SingularityKind::Core)
                .collect();
            let deltas: Vec<_> = found
                .iter()
                .filter(|s| s.kind == SingularityKind::Delta)
                .collect();
            assert!(!cores.is_empty(), "seed {seed}: no core found");
            assert!(!deltas.is_empty(), "seed {seed}: no delta found");
            let truth_core = singular_points(&f).0[0];
            assert!(
                cores.iter().any(|c| c.position.distance(&truth_core) < 2.5),
                "seed {seed}: detected cores {cores:?} far from truth {truth_core:?}"
            );
        }
    }

    #[test]
    fn detector_is_silent_on_arches() {
        use fp_core::geometry::Rect;
        let f = field(PatternClass::Arch, 5);
        let bounds = Rect::centred(Point::ORIGIN, 18.0, 22.0).unwrap();
        assert!(f.detect_singularities(bounds, 1.2).is_empty());
    }

    #[test]
    fn whorl_has_more_cores_than_loop() {
        use fp_core::geometry::Rect;
        let bounds = Rect::centred(Point::new(0.0, -1.0), 22.0, 26.0).unwrap();
        let whorl = field(PatternClass::Whorl, 8);
        let cores = whorl
            .detect_singularities(bounds, 1.0)
            .into_iter()
            .filter(|s| s.kind == SingularityKind::Core)
            .count();
        assert!(cores >= 1, "whorl cores {cores}");
    }

    #[test]
    fn arch_flanks_slope_toward_the_crest() {
        let f = OrientationField {
            model: FieldModel::Arch {
                amplitude: 0.5,
                width: 6.0,
                crest_y: 0.0,
                sigma: 7.0,
            },
            ripples: Vec::new(),
        };
        // Left flank slopes up (positive orientation), right flank down.
        let left = f.orientation_at(Point::new(-6.0, 0.0)).radians();
        let right = f.orientation_at(Point::new(6.0, 0.0)).radians();
        assert!(left > 0.05 && left < std::f64::consts::FRAC_PI_2);
        assert!(right > std::f64::consts::FRAC_PI_2, "right = {right}");
    }
}
