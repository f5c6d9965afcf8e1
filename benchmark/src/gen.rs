//! The seeded workload generator.
//!
//! Every synthetic input of the benchmark comes from here and is a pure
//! function of `--seed`: the libraries under test only ever see the
//! generated templates. `fp-study` has a similar direct sampler, but it is
//! `pub(crate)` and has no ink-like or non-mated probes, which this
//! benchmark needs: the paper's ink device (D4) produces ~1.8x the minutiae
//! of a live-scan capture, which doubles search latency, so a probe mix
//! without it would hide the tail.

use fp_core::dist::normal;
use fp_core::geometry::{Direction, Point, RigidMotion, Vector};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::Template;
use rand::Rng;

/// Capture window of every synthetic template (mm).
const WINDOW_MM: (f64, f64) = (20.0, 24.0);
/// Minutiae are sampled inside this centred box (mm), leaving a margin so
/// jitter rarely leaves the window.
const FIELD_MM: (f64, f64) = (16.0, 20.0);
/// Minimum spacing between sampled minutiae (mm).
const MIN_SPACING_MM: f64 = 1.4;

/// How a probe capture differs from the enrolled capture of the same finger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Probability that a minutia is missing from the probe.
    pub drop: f64,
    /// Positional jitter (mm, standard deviation per axis).
    pub jitter_mm: f64,
    /// Direction jitter (radians, standard deviation).
    pub jitter_rad: f64,
    /// Placement translation (mm, standard deviation per axis).
    pub motion_mm: f64,
    /// Placement rotation (radians, standard deviation).
    pub motion_rad: f64,
    /// Target minutiae count relative to the enrolled template; above 1 the
    /// difference is made up with spurious minutiae.
    pub count_ratio: f64,
}

/// Roughly a second capture on the same device.
pub const SAME_DEVICE: Profile = Profile {
    drop: 0.06,
    jitter_mm: 0.10,
    jitter_rad: 0.04,
    motion_mm: 0.8,
    motion_rad: 0.10,
    count_ratio: 1.0,
};

/// Roughly a capture on a different live-scan device.
pub const CROSS_DEVICE: Profile = Profile {
    drop: 0.14,
    jitter_mm: 0.20,
    jitter_rad: 0.09,
    motion_mm: 1.4,
    motion_rad: 0.16,
    count_ratio: 1.0,
};

/// Roughly a scanned ink card: cross-device distortion plus spurious
/// minutiae up to 1.8x the enrolled count (the paper's D4 averages 54.8
/// minutiae against ~30 on live-scan devices).
pub const INK_LIKE: Profile = Profile {
    count_ratio: 1.8,
    ..CROSS_DEVICE
};

/// What a probe is, and therefore what the right answer to it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKind {
    SameDevice,
    CrossDevice,
    InkLike,
    /// A finger that was never enrolled: every candidate is an impostor.
    NonMated,
}

/// One probe of a synthetic workload.
#[derive(Debug, Clone)]
pub struct Probe {
    pub template: Template,
    pub kind: ProbeKind,
    /// Gallery id of the enrolled capture of the same finger.
    pub mate: Option<u32>,
}

/// The probe mix, as a repeating pattern of 20: 10 same-device, 5
/// cross-device, 2 ink-like and 3 non-mated. A fixed pattern (not a draw)
/// keeps the shares exact at every probe count that is a multiple of 20.
const MIX: [ProbeKind; 20] = {
    use ProbeKind::{CrossDevice as C, InkLike as I, NonMated as N, SameDevice as S};
    [S, C, S, N, S, C, S, I, S, C, S, N, S, C, S, I, S, C, S, N]
};

fn build(minutiae: Vec<Minutia>) -> Template {
    Template::builder(500.0)
        .capture_window_mm(WINDOW_MM.0, WINDOW_MM.1)
        .extend(minutiae)
        .build()
        .expect("finite synthetic minutiae form a valid template")
}

fn random_minutia<R: Rng>(rng: &mut R, reliability: f64) -> Minutia {
    let pos = Point::new(
        (rng.gen::<f64>() - 0.5) * FIELD_MM.0,
        (rng.gen::<f64>() - 0.5) * FIELD_MM.1,
    );
    let kind = if rng.gen::<bool>() {
        MinutiaKind::RidgeEnding
    } else {
        MinutiaKind::Bifurcation
    };
    let direction = Direction::from_radians(rng.gen::<f64>() * std::f64::consts::TAU);
    Minutia::new(pos, direction, kind, reliability)
}

/// Samples minutiae into `minutiae` until it holds `target`, rejecting any
/// closer than `spacing` to one already there.
fn fill<R: Rng>(
    rng: &mut R,
    minutiae: &mut Vec<Minutia>,
    target: usize,
    spacing: f64,
    reliability: impl Fn(&mut R) -> f64,
) {
    let mut attempts = 0;
    while minutiae.len() < target && attempts < 10_000 {
        attempts += 1;
        let r = reliability(rng);
        let candidate = random_minutia(rng, r);
        if minutiae
            .iter()
            .all(|m| m.pos.distance(&candidate.pos) >= spacing)
        {
            minutiae.push(candidate);
        }
    }
}

/// A synthetic enrolled template with `n` well-spread minutiae.
pub fn synthetic_template(seeds: &SeedTree, id: u64, n: usize) -> Template {
    let mut rng = seeds.child(&[0x6A, id]).rng();
    let mut minutiae = Vec::with_capacity(n);
    fill(&mut rng, &mut minutiae, n, MIN_SPACING_MM, |_| 1.0);
    build(minutiae)
}

/// Template sizes cycle through this many classes: 22 to 35 minutiae.
const SIZE_CLASSES: usize = 14;

/// Minutiae count of gallery entry `i`: 22 to 35, cycling, so the gallery's
/// size distribution is the same at every seed.
fn gallery_count(i: usize) -> usize {
    22 + i % SIZE_CLASSES
}

/// Size class of the finger behind probe `p`. Search cost grows with the
/// square of the probe's minutiae count, so the class is a function of the
/// probe's position and not of the seed: every seed searches the same
/// sequence of probe sizes, and what differs between two runs is the
/// geometry and the machine, not the luck of the size draw. 5 is coprime to
/// the class count, so consecutive probes step through every size.
fn probe_size_class(p: usize) -> usize {
    p * 5 % SIZE_CLASSES
}

/// `n` synthetic enrolled templates.
pub fn gallery(seed: u64, n: usize) -> Vec<Template> {
    let seeds = SeedTree::new(seed).child(&[0xBE, 0x01]);
    (0..n)
        .map(|i| synthetic_template(&seeds, i as u64, gallery_count(i)))
        .collect()
}

/// A second capture of `template` under `profile`.
pub fn recapture(template: &Template, seeds: &SeedTree, id: u64, profile: Profile) -> Template {
    let mut rng = seeds.child(&[0x6B, id]).rng();
    let spurious = profile.count_ratio > 1.0;
    let mut minutiae: Vec<Minutia> = Vec::new();
    for m in template.minutiae() {
        if rng.gen::<f64>() < profile.drop {
            continue;
        }
        // With spurious minutiae in the probe, reliabilities are spread so
        // that true and spurious minutiae compete for the index's
        // most-reliable-cylinders cut, as they do on a real card scan.
        let reliability = if spurious {
            0.6 + 0.4 * rng.gen::<f64>()
        } else {
            m.reliability
        };
        minutiae.push(Minutia::new(
            Point::new(
                m.pos.x + normal(&mut rng, 0.0, profile.jitter_mm),
                m.pos.y + normal(&mut rng, 0.0, profile.jitter_mm),
            ),
            m.direction
                .rotated(normal(&mut rng, 0.0, profile.jitter_rad)),
            m.kind,
            reliability,
        ));
    }
    if spurious {
        let target = (template.len() as f64 * profile.count_ratio).round() as usize;
        fill(&mut rng, &mut minutiae, target, 1.0, |rng| {
            0.6 + 0.4 * rng.gen::<f64>()
        });
    }
    let motion = RigidMotion::new(
        Direction::from_radians(normal(&mut rng, 0.0, profile.motion_rad)),
        Vector::new(
            normal(&mut rng, 0.0, profile.motion_mm),
            normal(&mut rng, 0.0, profile.motion_mm),
        ),
    );
    build(minutiae).transformed(&motion)
}

/// `count` probes against `gallery` in the fixed [`MIX`]; each mate is drawn
/// uniformly among the gallery entries of the probe's size class.
pub fn probes(seed: u64, gallery: &[Template], count: usize) -> Vec<Probe> {
    assert!(!gallery.is_empty(), "probes need a gallery to mate with");
    let seeds = SeedTree::new(seed).child(&[0xBE, 0x02]);
    (0..count)
        .map(|p| {
            let kind = MIX[p % MIX.len()];
            let mut rng = seeds.child(&[0x6C, p as u64]).rng();
            let class = probe_size_class(p);
            let mate = match gallery.len() / SIZE_CLASSES {
                0 => rng.gen_range(0..gallery.len()),
                groups => rng.gen_range(0..groups) * SIZE_CLASSES + class,
            };
            let profile = match kind {
                ProbeKind::SameDevice => SAME_DEVICE,
                ProbeKind::CrossDevice => CROSS_DEVICE,
                ProbeKind::InkLike => INK_LIKE,
                ProbeKind::NonMated => {
                    let id = (gallery.len() + p) as u64;
                    let stranger = synthetic_template(&seeds, id, gallery_count(class));
                    return Probe {
                        template: recapture(&stranger, &seeds, p as u64, SAME_DEVICE),
                        kind,
                        mate: None,
                    };
                }
            };
            Probe {
                template: recapture(&gallery[mate], &seeds, p as u64, profile),
                kind,
                mate: Some(mate as u32),
            }
        })
        .collect()
}

/// FNV-1a over every bit of every minutia, in order: two template lists
/// with the same digest are byte-identical inputs.
pub fn digest<'a>(templates: impl IntoIterator<Item = &'a Template>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for template in templates {
        fold(template.len() as u64);
        for m in template.minutiae() {
            fold(m.pos.x.to_bits());
            fold(m.pos.y.to_bits());
            fold(m.direction.radians().to_bits());
            fold(m.kind as u64);
            fold(m.reliability.to_bits());
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(seed: u64) -> (Vec<Template>, Vec<Probe>) {
        let gallery = gallery(seed, 200);
        let probes = probes(seed, &gallery, 200);
        (gallery, probes)
    }

    fn digest_of(gallery: &[Template], probes: &[Probe]) -> u64 {
        digest(gallery.iter().chain(probes.iter().map(|p| &p.template)))
    }

    #[test]
    fn same_seed_reproduces_byte_identical_inputs() {
        let (g1, p1) = inputs(2013);
        let (g2, p2) = inputs(2013);
        assert_eq!(digest_of(&g1, &p1), digest_of(&g2, &p2));
    }

    #[test]
    fn different_seed_changes_inputs() {
        let (g1, p1) = inputs(2013);
        let (g2, p2) = inputs(2014);
        assert_ne!(digest(&g1), digest(&g2));
        assert_ne!(digest_of(&g1, &p1), digest_of(&g2, &p2));
    }

    #[test]
    fn probe_mix_shares_are_exact() {
        let (_, probes) = inputs(7);
        let share = |kind| probes.iter().filter(|p| p.kind == kind).count() as f64 / 200.0;
        assert_eq!(share(ProbeKind::SameDevice), 0.50);
        assert_eq!(share(ProbeKind::CrossDevice), 0.25);
        assert_eq!(share(ProbeKind::InkLike), 0.10);
        assert_eq!(share(ProbeKind::NonMated), 0.15);
        for p in &probes {
            assert_eq!(p.mate.is_none(), p.kind == ProbeKind::NonMated);
        }
    }

    #[test]
    fn ink_probes_carry_about_1_8x_the_enrolled_minutiae() {
        let (gallery, probes) = inputs(7);
        let (mut ink, mut enrolled) = (0usize, 0usize);
        for p in probes.iter().filter(|p| p.kind == ProbeKind::InkLike) {
            ink += p.template.len();
            enrolled += gallery[p.mate.unwrap() as usize].len();
        }
        let ratio = ink as f64 / enrolled as f64;
        assert!((1.7..=1.9).contains(&ratio), "ink ratio {ratio}");
        // Live-scan recaptures only lose minutiae.
        for p in probes.iter().filter(|p| p.kind == ProbeKind::SameDevice) {
            assert!(p.template.len() <= gallery[p.mate.unwrap() as usize].len());
        }
    }
}
