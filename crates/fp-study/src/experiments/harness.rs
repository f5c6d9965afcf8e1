//! The synthetic [`Cohort`] (gallery pool + jittered probes) every 1:N
//! harness outside the paper's own dataset draws from: the `study` binary's
//! scaling ladder and cross-process producers, and `fp-bench`.
//!
//! Gallery templates come from a cheap direct minutiae sampler rather than
//! the full synthesis/render/capture pipeline: the index only sees
//! minutiae, and a 10x ladder through the image pipeline would swamp the
//! harnesses with rendering cost that has nothing to do with search.
//!
//! Every harness keeps its own seed-tree child and probe cap, so the
//! templates, candidate lists and RUNFP chains of each are pure functions
//! of `(seed, child, size, cap)` — sharing the code shares no state.

use fp_core::dist::normal;
use fp_core::geometry::{Direction, Point, RigidMotion, Vector};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_telemetry::Telemetry;
use rand::Rng;

use crate::parallel::parallel_map_metered;

/// A deterministic synthetic template with `n` well-spread minutiae.
pub fn synthetic_template(seeds: &SeedTree, id: u64, n: usize) -> Template {
    let mut rng = seeds.child(&[0x5C, id]).rng();
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
        let kind = if rng.gen::<bool>() {
            MinutiaKind::RidgeEnding
        } else {
            MinutiaKind::Bifurcation
        };
        minutiae.push(Minutia::new(
            pos,
            Direction::from_radians(rng.gen::<f64>() * std::f64::consts::TAU),
            kind,
            1.0,
        ));
    }
    Template::builder(500.0)
        .capture_window_mm(20.0, 24.0)
        .extend(minutiae)
        .build()
        .expect("synthetic template is valid")
}

/// Perturbation profile of a probe capture.
#[derive(Clone, Copy)]
struct Profile {
    drop: f64,
    jitter_mm: f64,
    jitter_rad: f64,
    motion_mm: f64,
    motion_rad: f64,
}

/// Roughly a second capture on the same device.
const SAME_DEVICE: Profile = Profile {
    drop: 0.06,
    jitter_mm: 0.10,
    jitter_rad: 0.04,
    motion_mm: 0.8,
    motion_rad: 0.10,
};

/// Roughly a capture on a different device (heavier loss and distortion).
const CROSS_DEVICE: Profile = Profile {
    drop: 0.14,
    jitter_mm: 0.20,
    jitter_rad: 0.09,
    motion_mm: 1.4,
    motion_rad: 0.16,
};

/// A jittered re-capture of `template` under `profile`.
fn recapture(template: &Template, seeds: &SeedTree, id: u64, profile: Profile) -> Template {
    let mut rng = seeds.child(&[0x5D, id]).rng();
    let mut minutiae: Vec<Minutia> = Vec::new();
    for m in template.minutiae() {
        if rng.gen::<f64>() < profile.drop {
            continue;
        }
        minutiae.push(Minutia::new(
            Point::new(
                m.pos.x + normal(&mut rng, 0.0, profile.jitter_mm),
                m.pos.y + normal(&mut rng, 0.0, profile.jitter_mm),
            ),
            m.direction
                .rotated(normal(&mut rng, 0.0, profile.jitter_rad)),
            m.kind,
            m.reliability,
        ));
    }
    let motion = RigidMotion::new(
        Direction::from_radians(normal(&mut rng, 0.0, profile.motion_rad)),
        Vector::new(
            normal(&mut rng, 0.0, profile.motion_mm),
            normal(&mut rng, 0.0, profile.motion_mm),
        ),
    );
    Template::builder(500.0)
        .capture_window_mm(20.0, 24.0)
        .extend(minutiae)
        .build()
        .expect("recaptured template is valid")
        .transformed(&motion)
}

/// A synthetic gallery pool plus the probes searched against it.
///
/// Entry `i` has `22 + i % 14` minutiae. Probes are spread evenly over the
/// gallery and alternate the two perturbation profiles (same-device-like
/// on even `p`, cross-device-like on odd `p`).
pub struct Cohort {
    seeds: SeedTree,
    pool: Vec<Template>,
    max_probes: usize,
}

impl Cohort {
    /// Builds `size` gallery entries under `seeds`; at most `max_probes`
    /// probes are drawn per gallery.
    pub fn new(seeds: SeedTree, size: usize, max_probes: usize) -> Cohort {
        Cohort::metered(seeds, size, max_probes, &Telemetry::disabled())
    }

    /// [`Cohort::new`] with the pool build recorded as the `scaling.pool`
    /// stage of `telemetry`.
    pub fn metered(
        seeds: SeedTree,
        size: usize,
        max_probes: usize,
        telemetry: &Telemetry,
    ) -> Cohort {
        let pool = parallel_map_metered(size, telemetry, "scaling.pool", |i| {
            synthetic_template(&seeds, i as u64, 22 + i % 14)
        });
        Cohort {
            seeds,
            pool,
            max_probes,
        }
    }

    /// The seed-tree node every template of the cohort derives from.
    pub fn seeds(&self) -> &SeedTree {
        &self.seeds
    }

    /// The gallery entries, in enrollment order.
    pub fn pool(&self) -> &[Template] {
        &self.pool
    }

    /// Probes drawn over the whole pool.
    pub fn probes(&self) -> usize {
        self.probes_over(self.pool.len())
    }

    /// Probe `p` over the whole pool: `(mated gallery id, capture)`.
    pub fn probe(&self, p: usize) -> (usize, Template) {
        self.probe_over(self.pool.len(), p)
    }

    /// Probes drawn when only the first `gallery` entries are enrolled
    /// (a ladder rung over a pool prefix).
    pub fn probes_over(&self, gallery: usize) -> usize {
        gallery.min(self.max_probes)
    }

    /// Probe `p` of a `gallery`-entry prefix. The capture id folds the
    /// gallery size in, so rungs of one ladder see different captures.
    pub fn probe_over(&self, gallery: usize, p: usize) -> (usize, Template) {
        let subject = p * (gallery / self.probes_over(gallery));
        let profile = if p.is_multiple_of(2) {
            SAME_DEVICE
        } else {
            CROSS_DEVICE
        };
        let capture = recapture(
            &self.pool[subject],
            &self.seeds,
            (gallery + subject) as u64,
            profile,
        );
        (subject, capture)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_spread_over_the_gallery_and_repeat_exactly() {
        let cohort = Cohort::new(SeedTree::new(7).child(&[0xE5]), 40, 8);
        assert_eq!(cohort.pool().len(), 40);
        assert_eq!(cohort.probes(), 8);
        assert_eq!(cohort.probes_over(5), 5);
        let subjects: Vec<usize> = (0..8).map(|p| cohort.probe(p).0).collect();
        assert_eq!(subjects, vec![0, 5, 10, 15, 20, 25, 30, 35]);
        // Same coordinates, same bytes; a different rung, a different capture.
        assert_eq!(cohort.probe(3).1, cohort.probe(3).1);
        assert_eq!(cohort.probe_over(20, 0).0, cohort.probe(0).0);
        assert_ne!(cohort.probe_over(20, 0).1, cohort.probe(0).1);
        assert_eq!(cohort.pool()[9], synthetic_template(cohort.seeds(), 9, 31));
    }
}
