//! The acquisition engine: master print → impression.
//!
//! The capture chain, in order:
//!
//! 1. sample the presentation [`CaptureCondition`] from the subject's skin;
//! 2. determine the **contact region** (pressure-dependent pad fraction for
//!    flat placement; nail-to-nail for rolled ink);
//! 3. sample the **placement** of the finger on the platen (translation +
//!    rotation; tight for operator-guided ink rolling, loose for walk-up
//!    live-scan use);
//! 4. add per-capture **skin elasticity warp** (low-frequency random
//!    distortion scaled by the subject's elasticity and the pressure);
//! 5. apply the device's fixed **distortion signature**;
//! 6. apply sensor **noise**: position jitter, direction jitter,
//!    condition-dependent dropout, spurious minutiae;
//! 7. **crop** to the device capture window and **quantize** to the pixel
//!    grid;
//! 8. derive the [`ImpressionFeatures`] consumed by the NFIQ-like quality
//!    assessor.

use rand::Rng;

use fp_core::dist;
use fp_core::geometry::{Direction, Point, RigidMotion, Vector};
use fp_core::ids::{DeviceId, Finger, SessionId, SubjectId};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::{Template, MAX_MINUTIAE};
use fp_synth::master::MasterPrint;
use fp_synth::population::SkinProfile;

use crate::condition::CaptureCondition;
use crate::device::Device;

/// Quality-relevant features of an impression, consumed by `fp-quality`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpressionFeatures {
    /// Number of minutiae that survived capture.
    pub minutia_count: usize,
    /// Mean extraction reliability of the captured minutiae.
    pub mean_reliability: f64,
    /// Fraction of the contact region that landed inside the capture window.
    pub captured_area_fraction: f64,
    /// Ridge clarity implied by the presentation condition and device.
    pub clarity: f64,
    /// Presentation extremity (how far from ideal moisture/pressure).
    pub condition_extremity: f64,
    /// Device-specific quality bias (NFIQ levels), carried to the assessor.
    pub quality_bias: f64,
}

/// One captured fingerprint impression: the extracted template plus all
/// capture metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Impression {
    subject: SubjectId,
    finger: Finger,
    device: DeviceId,
    session: SessionId,
    template: Template,
    condition: CaptureCondition,
    features: ImpressionFeatures,
}

impl Impression {
    /// The subject the finger belongs to.
    pub fn subject(&self) -> SubjectId {
        self.subject
    }

    /// Which finger was captured.
    pub fn finger(&self) -> Finger {
        self.finger
    }

    /// The capture device.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The capture session.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The extracted minutiae template.
    pub fn template(&self) -> &Template {
        &self.template
    }

    /// The presentation condition during capture.
    pub fn condition(&self) -> CaptureCondition {
        self.condition
    }

    /// Quality-relevant features.
    pub fn features(&self) -> ImpressionFeatures {
        self.features
    }

    /// A re-digitization of the *same physical impression* — models taking a
    /// second flat-bed scan of an ink ten-print card: the geometry is the
    /// card's, only scanner sampling and extraction instability differ
    /// (small positional jitter, re-quantization, a few percent of minutiae
    /// gained/lost by the extractor).
    pub fn rescanned(&self, session: SessionId, seed: &SeedTree) -> Impression {
        use rand::Rng;
        let mut rng = seed.rng();
        // Use the template's own capture dpi rather than the device
        // registry: impressions may come from custom Device values whose id
        // merely reuses a registry slot.
        let dpi = self.template.resolution_dpi();
        let pitch = 25.4 / dpi;
        let window = self.template.capture_window();
        let mut minutiae: Vec<Minutia> = Vec::with_capacity(self.template.len());
        for m in self.template.minutiae() {
            if rng.gen::<f64>() < 0.02 {
                continue; // extraction instability between scans
            }
            let jittered = Point::new(
                m.pos.x + dist::normal(&mut rng, 0.0, 0.05),
                m.pos.y + dist::normal(&mut rng, 0.0, 0.05),
            );
            let quantized = Point::new(
                (jittered.x / pitch).round() * pitch,
                (jittered.y / pitch).round() * pitch,
            );
            let direction = m.direction.rotated(dist::von_mises(&mut rng, 0.0, 400.0));
            if window.contains(&quantized) {
                minutiae.push(Minutia::new(quantized, direction, m.kind, m.reliability));
            }
        }
        let mean_reliability = if minutiae.is_empty() {
            0.0
        } else {
            minutiae.iter().map(|m| m.reliability).sum::<f64>() / minutiae.len() as f64
        };
        let features = ImpressionFeatures {
            minutia_count: minutiae.len(),
            mean_reliability,
            ..self.features
        };
        let template = Template::from_minutiae(minutiae, dpi, window)
            .expect("rescan preserves template invariants");
        Impression {
            session,
            template,
            features,
            ..self.clone()
        }
    }
}

/// Per-capture random elastic skin warp: two low-frequency sinusoidal
/// components whose amplitude grows with poor elasticity and hard pressure.
#[derive(Debug, Clone, Copy)]
struct SkinWarp {
    ax: f64,
    ay: f64,
    fx: f64,
    fy: f64,
    px: f64,
    py: f64,
}

impl SkinWarp {
    fn sample<R: Rng + ?Sized>(
        skin: &SkinProfile,
        condition: &CaptureCondition,
        rng: &mut R,
    ) -> Self {
        let amplitude =
            (1.0 - skin.elasticity) * 0.10 + (2.0 * (condition.pressure - 0.5)).abs() * 0.05;
        SkinWarp {
            ax: amplitude * (0.6 + 0.4 * rng.gen::<f64>()),
            ay: amplitude * (0.6 + 0.4 * rng.gen::<f64>()),
            fx: 0.20 + 0.20 * rng.gen::<f64>(),
            fy: 0.20 + 0.20 * rng.gen::<f64>(),
            px: rng.gen::<f64>() * std::f64::consts::TAU,
            py: rng.gen::<f64>() * std::f64::consts::TAU,
        }
    }

    fn displace(&self, p: Point) -> Vector {
        Vector::new(
            self.ax * (self.fx * p.y + self.px).sin(),
            self.ay * (self.fy * p.x + self.py).sin(),
        )
    }
}

/// Per-capture swipe-reconstruction artifacts: the finger is dragged over a
/// line sensor, and speed variation between reconstruction bands leaves
/// band-wise lateral offsets plus a cumulative vertical stretch error.
#[derive(Debug, Clone)]
struct SwipeStitch {
    /// Height of one reconstruction band (mm).
    band_mm: f64,
    /// Lateral offset per band (mm).
    offsets: Vec<f64>,
    /// Cumulative vertical scale error per band (1.0 = true speed).
    stretch: Vec<f64>,
}

impl SwipeStitch {
    const BANDS: usize = 40;

    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut offsets = Vec::with_capacity(Self::BANDS);
        let mut stretch = Vec::with_capacity(Self::BANDS);
        let mut drift = 0.0;
        for _ in 0..Self::BANDS {
            // Lateral offsets random-walk slightly (the finger wanders
            // sideways during the swipe).
            drift += dist::normal(rng, 0.0, 0.05);
            drift *= 0.9;
            offsets.push(drift);
            stretch.push(1.0 + dist::normal(rng, 0.0, 0.035));
        }
        SwipeStitch {
            band_mm: 1.4,
            offsets,
            stretch,
        }
    }

    /// Applies the stitch artifacts to a platen-coordinate point.
    fn displace(&self, q: Point) -> Point {
        let band_f = q.y / self.band_mm + Self::BANDS as f64 / 2.0;
        let band = (band_f.floor().max(0.0) as usize).min(Self::BANDS - 1);
        Point::new(q.x + self.offsets[band], q.y * self.stretch[band])
    }
}

/// The acquisition engine. Stateless; all randomness flows from the seed
/// tree so captures are exactly reproducible.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acquisition;

impl Acquisition {
    /// Captures `master` on `device`.
    ///
    /// `habituation` in `[0, 1]` models presentation experience (see
    /// [`CaptureCondition::sample`]); pass `0.0` for first-session captures.
    /// `seed` must be unique per `(subject, finger, device, session)`.
    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        &self,
        master: &MasterPrint,
        skin: &SkinProfile,
        device: &Device,
        subject: SubjectId,
        finger: Finger,
        session: SessionId,
        habituation: f64,
        seed: &SeedTree,
    ) -> Impression {
        self.capture_with_seeds(
            master,
            skin,
            device,
            subject,
            finger,
            session,
            habituation,
            &seed.child(&[0]),
            &seed.child(&[1]),
        )
    }

    /// Captures with separate seed streams for the *presentation* (skin
    /// condition, placement, elastic warp) and the *sensing noise* (jitter,
    /// dropout, spurious minutiae).
    ///
    /// The split models ink ten-print cards faithfully: the finger is inked
    /// and rolled **once**, and both study samples are read off the same
    /// physical card — so the protocol reuses the presentation seed across
    /// the two D4 sessions while the scan/extraction noise stays
    /// independent.
    #[allow(clippy::too_many_arguments)]
    pub fn capture_with_seeds(
        &self,
        master: &MasterPrint,
        skin: &SkinProfile,
        device: &Device,
        subject: SubjectId,
        finger: Finger,
        session: SessionId,
        habituation: f64,
        setup_seed: &SeedTree,
        noise_seed: &SeedTree,
    ) -> Impression {
        self.capture_with_seeds_metered(
            master,
            skin,
            device,
            subject,
            finger,
            session,
            habituation,
            setup_seed,
            noise_seed,
            &crate::metrics::CaptureMetrics::default(),
        )
    }

    /// [`Acquisition::capture_with_seeds`] with telemetry: tallies the loss
    /// channels of this capture (dropout, vignette, window clipping) and
    /// the spurious detections into `metrics`.
    #[allow(clippy::too_many_arguments)]
    pub fn capture_with_seeds_metered(
        &self,
        master: &MasterPrint,
        skin: &SkinProfile,
        device: &Device,
        subject: SubjectId,
        finger: Finger,
        session: SessionId,
        habituation: f64,
        setup_seed: &SeedTree,
        noise_seed: &SeedTree,
        metrics: &crate::metrics::CaptureMetrics,
    ) -> Impression {
        let mut setup_rng = setup_seed.rng();
        let mut rng = noise_seed.rng();
        let condition = CaptureCondition::sample(skin, habituation, &mut setup_rng);
        let clarity = (condition.clarity() - device.noise.quality_bias * 0.08).clamp(0.05, 1.0);

        // Contact region on the finger pad.
        let contact = if device.is_ink() {
            master.region().scaled(0.95)
        } else {
            master.region().scaled(condition.flat_contact_scale())
        };

        // Placement on the platen: walk-up use is sloppy, operator-guided
        // ink rolling is tight.
        let (trans_sd, rot_sd) = if device.is_ink() {
            (1.2, 0.04)
        } else {
            (4.5, 0.10)
        };
        let placement = RigidMotion::new(
            Direction::from_radians(dist::truncated_normal(
                &mut setup_rng,
                0.0,
                rot_sd,
                -0.3,
                0.3,
            )),
            Vector::new(
                dist::truncated_normal(&mut setup_rng, 0.0, trans_sd, -11.0, 11.0),
                dist::truncated_normal(&mut setup_rng, 0.0, trans_sd, -11.0, 11.0),
            ),
        );
        let skin_warp = SkinWarp::sample(skin, &condition, &mut setup_rng);
        let stitch = if device.is_swipe() {
            Some(SwipeStitch::sample(&mut setup_rng))
        } else {
            None
        };

        let window = device.capture_window();
        let pitch = device.pixel_pitch_mm();
        let jitter_sd = device.noise.position_jitter * (1.0 + 0.4 * (1.0 - clarity));
        let kappa = (device.noise.direction_kappa * clarity.max(0.3)).max(2.0);
        let dropout = (device.noise.base_dropout + (1.0 - clarity) * 0.22).clamp(0.0, 0.95);

        let project = |p: Point, warp: &SkinWarp| -> Point {
            let placed = placement.apply(&p) + warp.displace(p);
            let warped = device.distortion.apply(placed);
            match &stitch {
                Some(s) => s.displace(warped),
                None => warped,
            }
        };

        let mut minutiae: Vec<Minutia> = Vec::new();
        let (mut lost_dropout, mut lost_vignette, mut lost_clipped) = (0u64, 0u64, 0u64);
        for m in master.minutiae() {
            // Contact test in finger coordinates, with the edge band suffering
            // extra dropout (partial ridge contact near the boundary).
            let dxn = (m.pos.x - contact.centre.x) / contact.semi_x;
            let dyn_ = (m.pos.y - contact.centre.y) / contact.semi_y;
            let u = (dxn * dxn + dyn_ * dyn_).sqrt();
            if u > 1.0 {
                continue;
            }
            let edge_penalty = if u > 0.82 {
                0.35 * ((u - 0.82) / 0.18)
            } else {
                0.0
            };
            if rng.gen::<f64>() < dropout + edge_penalty {
                lost_dropout += 1;
                continue;
            }
            let projected = project(m.pos, &skin_warp);
            let jittered = Point::new(
                projected.x + dist::normal(&mut rng, 0.0, jitter_sd),
                projected.y + dist::normal(&mut rng, 0.0, jitter_sd),
            );
            if !window.contains(&jittered) {
                lost_clipped += 1;
                continue;
            }
            // Illumination vignette: sensitivity falls off toward the window
            // edge, eating minutiae in the boundary band. This is the
            // dominant loss channel for the small-window handheld D3.
            let edge_dist =
                (window.max().x - jittered.x.abs()).min(window.max().y - jittered.y.abs());
            let band = device.noise.vignette_band_mm;
            if edge_dist < band && rng.gen::<f64>() < 0.6 * (1.0 - edge_dist / band) {
                lost_vignette += 1;
                continue;
            }
            let quantized = Point::new(
                (jittered.x / pitch).round() * pitch,
                (jittered.y / pitch).round() * pitch,
            );
            let direction = placement
                .apply_direction(m.direction)
                .rotated(dist::von_mises(&mut rng, 0.0, kappa));
            let reliability = m.reliability
                * clarity.sqrt()
                * (1.0 - edge_penalty)
                * (0.85 + 0.15 * rng.gen::<f64>());
            // Extraction occasionally confuses endings with bifurcations
            // (broken ridges under dry skin look like endings, bridged
            // valleys under wet skin look like bifurcations).
            let kind = if rng.gen::<f64>() < 0.06 {
                match m.kind {
                    MinutiaKind::RidgeEnding => MinutiaKind::Bifurcation,
                    MinutiaKind::Bifurcation => MinutiaKind::RidgeEnding,
                }
            } else {
                m.kind
            };
            minutiae.push(Minutia::new(quantized, direction, kind, reliability));
        }

        // Spurious minutiae from dirt, ink blobs, scars, bridged valleys.
        let contact_area = contact.area_mm2();
        let spurious_lambda =
            device.noise.spurious_rate * contact_area * (1.0 + 2.0 * (1.0 - clarity));
        let spurious_count = dist::poisson(&mut rng, spurious_lambda) as usize;
        let mut spurious_added = 0u64;
        for _ in 0..spurious_count {
            let p = contact.sample_point(&mut rng);
            let projected = project(p, &skin_warp);
            if !window.contains(&projected) {
                continue;
            }
            spurious_added += 1;
            let quantized = Point::new(
                (projected.x / pitch).round() * pitch,
                (projected.y / pitch).round() * pitch,
            );
            let kind = if rng.gen::<bool>() {
                MinutiaKind::RidgeEnding
            } else {
                MinutiaKind::Bifurcation
            };
            minutiae.push(Minutia::new(
                quantized,
                Direction::from_radians(rng.gen::<f64>() * std::f64::consts::TAU),
                kind,
                0.2 + 0.3 * rng.gen::<f64>(),
            ));
        }
        minutiae.truncate(MAX_MINUTIAE);
        metrics.record_losses(lost_dropout, lost_vignette, lost_clipped, spurious_added);

        // Captured-area fraction by Monte Carlo over the contact region.
        let samples = 128;
        let mut effective = 0.0;
        for _ in 0..samples {
            let p = contact.sample_point(&mut rng);
            let q = project(p, &skin_warp);
            if !window.contains(&q) {
                continue;
            }
            let edge_dist = (window.max().x - q.x.abs()).min(window.max().y - q.y.abs());
            let band = device.noise.vignette_band_mm;
            effective += if edge_dist < band {
                1.0 - 0.6 * (1.0 - edge_dist / band)
            } else {
                1.0
            };
        }
        let captured_area_fraction = effective / samples as f64;

        let mean_reliability = if minutiae.is_empty() {
            0.0
        } else {
            minutiae.iter().map(|m| m.reliability).sum::<f64>() / minutiae.len() as f64
        };
        let features = ImpressionFeatures {
            minutia_count: minutiae.len(),
            mean_reliability,
            captured_area_fraction,
            clarity,
            condition_extremity: condition.extremity(),
            quality_bias: device.noise.quality_bias,
        };

        let template = Template::from_minutiae(minutiae, device.resolution_dpi, window)
            .expect("capture respects template invariants");
        Impression {
            subject,
            finger,
            device: device.id,
            session,
            template,
            condition,
            features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DEVICES;
    use fp_core::ids::Digit;
    use fp_synth::population::{Population, PopulationConfig};

    fn fixture() -> (MasterPrint, SkinProfile) {
        let pop = Population::generate(&PopulationConfig::new(77, 2));
        let s = &pop.subjects()[0];
        (s.master_print(Finger::RIGHT_INDEX), s.skin())
    }

    fn capture(device_idx: usize, session: u8, seed: u64) -> Impression {
        let (master, skin) = fixture();
        Acquisition.capture(
            &master,
            &skin,
            &DEVICES[device_idx],
            SubjectId(0),
            Finger::RIGHT_INDEX,
            SessionId(session),
            0.0,
            &SeedTree::new(seed),
        )
    }

    #[test]
    fn capture_is_deterministic() {
        let a = capture(0, 0, 42);
        let b = capture(0, 0, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_impressions() {
        let a = capture(0, 0, 1);
        let b = capture(0, 0, 2);
        assert_ne!(a.template(), b.template());
    }

    #[test]
    fn captures_have_plausible_minutiae_counts() {
        for d in 0..5usize {
            let imp = capture(d, 0, 7);
            let n = imp.template().len();
            assert!((8..=90).contains(&n), "device {d}: {n} minutiae");
        }
    }

    #[test]
    fn minutiae_are_inside_the_window_and_quantized() {
        let imp = capture(3, 0, 9);
        let dev = &DEVICES[3];
        let pitch = dev.pixel_pitch_mm();
        for m in imp.template().minutiae() {
            assert!(dev.capture_window().contains(&m.pos));
            let rx = (m.pos.x / pitch).round() * pitch;
            assert!((m.pos.x - rx).abs() < 1e-9, "x not on pixel grid");
        }
    }

    #[test]
    fn ink_has_larger_contact_than_flat_on_average() {
        let mut ink_counts = 0usize;
        let mut flat_counts = 0usize;
        for seed in 0..20u64 {
            // D4 has a 40x40 window; compare against the similarly-small D3
            // to isolate the rolled-contact effect from window size.
            ink_counts += capture(4, 0, seed).template().len();
            flat_counts += capture(3, 0, seed).template().len();
        }
        assert!(
            ink_counts > flat_counts,
            "ink {ink_counts} vs flat {flat_counts}"
        );
    }

    #[test]
    fn features_are_in_valid_ranges() {
        for d in 0..5usize {
            for seed in 0..5u64 {
                let f = capture(d, 0, seed).features();
                assert!((0.0..=1.0).contains(&f.mean_reliability));
                assert!((0.0..=1.0).contains(&f.captured_area_fraction));
                assert!((0.0..=1.0).contains(&f.clarity));
                assert!((0.0..=1.0).contains(&f.condition_extremity));
                assert_eq!(f.minutia_count, {
                    let imp = capture(d, 0, seed);
                    imp.template().len()
                });
            }
        }
    }

    #[test]
    fn small_window_device_captures_less_area() {
        let mut d0_area = 0.0;
        let mut d3_area = 0.0;
        for seed in 0..20u64 {
            d0_area += capture(0, 0, seed).features().captured_area_fraction;
            d3_area += capture(3, 0, seed).features().captured_area_fraction;
        }
        assert!(
            d3_area < d0_area,
            "D3 area {d3_area} not smaller than D0 area {d0_area}"
        );
    }

    #[test]
    fn metadata_is_propagated() {
        let (master, skin) = fixture();
        let imp = Acquisition.capture(
            &master,
            &skin,
            &DEVICES[2],
            SubjectId(9),
            Finger::new(fp_core::ids::Hand::Left, Digit::Middle),
            SessionId(1),
            0.5,
            &SeedTree::new(5),
        );
        assert_eq!(imp.subject(), SubjectId(9));
        assert_eq!(imp.device(), fp_core::ids::DeviceId(2));
        assert_eq!(imp.session(), SessionId(1));
        assert_eq!(imp.finger().digit, Digit::Middle);
    }
}
