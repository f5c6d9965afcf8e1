//! Generalized-Hough alignment matcher — the baseline matcher.
//!
//! Classical minutiae matching (Ratha et al.): every (gallery minutia, probe
//! minutia) pair whose directions differ by `dtheta` votes for the rigid
//! transform `(dtheta, dx, dy)` that would map the gallery minutia onto the
//! probe minutia. The modal cell of the vote space is taken as the
//! alignment; the gallery is transformed and minutiae are paired greedily by
//! nearest neighbour under distance/angle tolerances.
//!
//! Provides an algorithmically independent second opinion next to
//! [`crate::PairTableMatcher`], which the paper's "diverse matchers"
//! extension analysis exploits.

use std::collections::HashMap;

use fp_core::geometry::{Direction, RigidMotion, Vector};
use fp_core::template::Template;
use fp_core::{MatchScore, Matcher};

use crate::PreparableMatcher;

/// Tuning parameters for [`HoughMatcher`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoughConfig {
    /// Rotation quantization step (radians) of the vote space.
    pub rotation_step: f64,
    /// Translation quantization step (mm) of the vote space.
    pub translation_step: f64,
    /// Distance tolerance (mm) when pairing aligned minutiae.
    pub pairing_distance: f64,
    /// Direction tolerance (radians) when pairing aligned minutiae.
    pub pairing_angle: f64,
}

impl Default for HoughConfig {
    fn default() -> Self {
        HoughConfig {
            rotation_step: 0.18,
            translation_step: 1.6,
            pairing_distance: 1.1,
            pairing_angle: 0.35,
        }
    }
}

/// The generalized-Hough alignment matcher. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct HoughMatcher {
    config: HoughConfig,
    metrics: crate::metrics::HoughMetrics,
}

impl HoughMatcher {
    /// Creates a matcher with explicit tuning parameters.
    pub fn new(config: HoughConfig) -> Self {
        HoughMatcher {
            config,
            metrics: Default::default(),
        }
    }

    /// Registers this matcher's work counters (comparisons, occupied vote
    /// cells, winning vote mass) on `telemetry`.
    pub fn with_telemetry(mut self, telemetry: &fp_telemetry::Telemetry) -> Self {
        self.metrics = crate::metrics::HoughMetrics::new(telemetry);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &HoughConfig {
        &self.config
    }

    fn score_templates(&self, gallery: &Template, probe: &Template) -> MatchScore {
        self.metrics.comparisons.incr();
        let gs = gallery.minutiae();
        let ps = probe.minutiae();
        if gs.is_empty() || ps.is_empty() {
            return MatchScore::ZERO;
        }
        let cfg = &self.config;

        // Vote for (rotation, dx, dy) cells. Each vote also lands in the
        // neighbouring cells (± half step via double-resolution keys would
        // be costlier; instead we accumulate in a sparse map and scan a
        // 3x3x3 neighbourhood around the best cell at the end).
        let mut votes: HashMap<(i32, i32, i32), u32> = HashMap::new();
        for g in gs {
            for p in ps {
                let dtheta = p.direction.signed_delta(g.direction);
                let rot = Direction::from_radians(dtheta);
                let moved = g.pos.rotated(rot);
                let dx = p.pos.x - moved.x;
                let dy = p.pos.y - moved.y;
                let key = (
                    (dtheta / cfg.rotation_step).round() as i32,
                    (dx / cfg.translation_step).round() as i32,
                    (dy / cfg.translation_step).round() as i32,
                );
                *votes.entry(key).or_insert(0) += 1;
            }
        }
        self.metrics.vote_cells.record(votes.len() as u64);
        let Some((&best_key, _)) = votes.iter().max_by_key(|(k, v)| (**v, k.0, k.1, k.2)) else {
            return MatchScore::ZERO;
        };
        // Neighbourhood-refined vote mass and centroid transform.
        let mut mass = 0u32;
        let mut sum_r = 0.0;
        let mut sum_x = 0.0;
        let mut sum_y = 0.0;
        for dr in -1..=1 {
            for dx in -1..=1 {
                for dy in -1..=1 {
                    let k = (best_key.0 + dr, best_key.1 + dx, best_key.2 + dy);
                    if let Some(&v) = votes.get(&k) {
                        mass += v;
                        sum_r += v as f64 * k.0 as f64 * cfg.rotation_step;
                        sum_x += v as f64 * k.1 as f64 * cfg.translation_step;
                        sum_y += v as f64 * k.2 as f64 * cfg.translation_step;
                    }
                }
            }
        }
        self.metrics.peak_votes.record(mass as u64);
        if mass == 0 {
            return MatchScore::ZERO;
        }
        let rotation = Direction::from_radians(sum_r / mass as f64);
        let translation = Vector::new(sum_x / mass as f64, sum_y / mass as f64);
        let transform = RigidMotion::new(rotation, translation);

        // Align the gallery and pair greedily by distance.
        let aligned: Vec<_> = gs.iter().map(|m| m.transformed(&transform)).collect();
        let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
        for (i, a) in aligned.iter().enumerate() {
            for (j, p) in ps.iter().enumerate() {
                let d = a.pos.distance(&p.pos);
                if d <= cfg.pairing_distance
                    && a.direction.separation(p.direction) <= cfg.pairing_angle
                {
                    candidates.push((d, i, j));
                }
            }
        }
        // Every distance kept is in `[+0.0, pairing_distance]`, so
        // `total_cmp` orders them as `partial_cmp` did; the sort is stable,
        // so ties keep pair order.
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut g_used = vec![false; gs.len()];
        let mut p_used = vec![false; ps.len()];
        let mut matched = 0usize;
        let mut closeness = 0.0;
        for (d, i, j) in candidates {
            if g_used[i] || p_used[j] {
                continue;
            }
            g_used[i] = true;
            p_used[j] = true;
            matched += 1;
            closeness += 1.0 - d / cfg.pairing_distance;
        }
        if matched < 3 {
            // Fewer than three consistent minutiae is indistinguishable from
            // chance alignment.
            return MatchScore::ZERO;
        }
        MatchScore::new(matched as f64 * 0.7 + closeness * 0.3)
    }
}

impl Matcher for HoughMatcher {
    fn compare(&self, gallery: &Template, probe: &Template) -> MatchScore {
        self.score_templates(gallery, probe)
    }

    fn name(&self) -> &str {
        "hough"
    }
}

impl PreparableMatcher for HoughMatcher {
    // The Hough matcher has no meaningful per-template preparation; the
    // prepared form is the template itself, so the fast path degenerates to
    // the direct path.
    type Prepared = Template;

    fn prepare(&self, template: &Template) -> Template {
        template.clone()
    }

    fn compare_prepared(&self, gallery: &Template, probe: &Template) -> MatchScore {
        self.score_templates(gallery, probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_core::geometry::Point;
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
    fn self_match_scores_high() {
        let m = HoughMatcher::default();
        let t = synthetic_template(1, 30);
        assert!(m.compare(&t, &t).value() > 18.0);
    }

    #[test]
    fn impostor_scores_low() {
        let m = HoughMatcher::default();
        let a = synthetic_template(2, 30);
        let b = synthetic_template(3, 30);
        let s = m.compare(&a, &b).value();
        assert!(s < 8.0, "impostor score = {s}");
    }

    #[test]
    fn recovers_rigid_motion() {
        let m = HoughMatcher::default();
        let t = synthetic_template(4, 30);
        let moved = t.transformed(&RigidMotion::new(
            Direction::from_radians(-0.4),
            Vector::new(3.0, 5.0),
        ));
        let self_score = m.compare(&t, &t).value();
        let moved_score = m.compare(&t, &moved).value();
        assert!(
            moved_score > self_score * 0.7,
            "self {self_score} vs moved {moved_score}"
        );
    }

    #[test]
    fn empty_inputs_are_zero() {
        let m = HoughMatcher::default();
        let e = Template::builder(500.0).build().unwrap();
        let t = synthetic_template(5, 10);
        assert_eq!(m.compare(&e, &t).value(), 0.0);
        assert_eq!(m.compare(&t, &e).value(), 0.0);
    }

    #[test]
    fn prepared_path_is_identical() {
        let m = HoughMatcher::default();
        let a = synthetic_template(6, 25);
        let b = synthetic_template(7, 25);
        assert_eq!(
            m.compare(&a, &b),
            m.compare_prepared(&m.prepare(&a), &m.prepare(&b))
        );
    }

    #[test]
    fn tiny_overlap_below_three_minutiae_scores_zero() {
        let m = HoughMatcher::default();
        let two = Template::builder(500.0)
            .capture_window_mm(10.0, 10.0)
            .push(Minutia::new(
                Point::new(0.0, 0.0),
                Direction::ZERO,
                MinutiaKind::RidgeEnding,
                1.0,
            ))
            .push(Minutia::new(
                Point::new(3.0, 0.0),
                Direction::ZERO,
                MinutiaKind::RidgeEnding,
                1.0,
            ))
            .build()
            .unwrap();
        assert_eq!(m.compare(&two, &two).value(), 0.0);
    }
}
