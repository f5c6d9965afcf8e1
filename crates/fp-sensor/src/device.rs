//! The five capture devices of the study (paper Table 1).

use fp_core::geometry::{Point, Rect};
use fp_core::ids::DeviceId;

use crate::distortion::DistortionSignature;

/// The sensing technology family of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensingTechnology {
    /// Optical frustrated-total-internal-reflection live scan (glass platen,
    /// laser source, CCD/CMOS camera) — D0 through D3.
    OpticalFtir,
    /// Ink on a ten-print card, scanned on a flat-bed scanner — D4.
    InkTenPrint,
    /// Touch capacitive solid-state sensor (the finger is the upper
    /// electrode of a capacitor array). Not fielded in the study, but part
    /// of the paper's §I technology taxonomy; available for extension
    /// scenarios such as `examples/us_visit.rs`.
    CapacitiveTouch,
    /// Swipe capacitive sensor: the finger is dragged across a one-line
    /// array and the image is reconstructed from slices. Swipe-speed
    /// variation leaves per-capture *stitching* artifacts (band-wise
    /// lateral offsets and vertical stretch) that no other technology has.
    CapacitiveSwipe,
}

/// Stochastic imperfection parameters of a device's capture chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseProfile {
    /// Standard deviation (mm) of minutia position jitter.
    pub position_jitter: f64,
    /// Von Mises concentration of minutia direction jitter (higher =
    /// cleaner).
    pub direction_kappa: f64,
    /// Baseline probability that a true minutia is missed under ideal skin
    /// condition.
    pub base_dropout: f64,
    /// Spurious minutiae per mm² of captured contact area under ideal
    /// condition.
    pub spurious_rate: f64,
    /// Additive NFIQ bias (levels): positive values push quality toward the
    /// poor end. Ink cards and cheap sensors image ridges less crisply at
    /// identical geometry.
    pub quality_bias: f64,
    /// Width (mm) of the low-sensitivity band along the capture-window edge.
    /// Illumination falls off toward the platen boundary, so minutiae landing
    /// in the band are increasingly likely to be missed. Large for the
    /// handheld D3, whose small window puts much of the finger in the band.
    pub vignette_band_mm: f64,
}

/// A capture device: identity, paper Table 1 characteristics, distortion
/// signature, and noise profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Stable identifier (D0..D4).
    pub id: DeviceId,
    /// Commercial model name from the paper.
    pub model: &'static str,
    /// Technology family.
    pub technology: SensingTechnology,
    /// Native resolution in dpi (paper Table 1).
    pub resolution_dpi: f64,
    /// Image size in pixels (paper Table 1).
    pub image_px: (u32, u32),
    /// Capture area in mm (paper Table 1).
    pub capture_mm: (f64, f64),
    /// The device's fixed geometric distortion signature.
    pub distortion: DistortionSignature,
    /// The device's noise profile.
    pub noise: NoiseProfile,
}

impl Device {
    /// The capture window as a centred rectangle in platen coordinates.
    pub fn capture_window(&self) -> Rect {
        Rect::from_corners(
            Point::new(-self.capture_mm.0 / 2.0, -self.capture_mm.1 / 2.0),
            Point::new(self.capture_mm.0 / 2.0, self.capture_mm.1 / 2.0),
        )
    }

    /// Pixel pitch in mm (25.4 / dpi).
    pub fn pixel_pitch_mm(&self) -> f64 {
        25.4 / self.resolution_dpi
    }

    /// Whether this device produces rolled ink impressions.
    pub fn is_ink(&self) -> bool {
        self.technology == SensingTechnology::InkTenPrint
    }

    /// Whether this device reconstructs the image from swipe slices.
    pub fn is_swipe(&self) -> bool {
        self.technology == SensingTechnology::CapacitiveSwipe
    }

    /// Looks up a device by id.
    ///
    /// ```
    /// use fp_core::ids::DeviceId;
    /// use fp_sensor::Device;
    ///
    /// let d3 = Device::by_id(DeviceId(3));
    /// assert_eq!(d3.model, "Cross Match Seek II");
    /// assert_eq!(d3.capture_mm, (40.6, 38.1)); // the paper's Table 1
    /// ```
    pub fn by_id(id: DeviceId) -> &'static Device {
        &DEVICES[id.0 as usize]
    }
}

/// The study's five devices, indexed as in the paper's Table 1.
///
/// Physical characteristics (resolution, image size, capture area) are taken
/// verbatim from the paper. Distortion signatures and noise profiles are our
/// models, chosen so that the *relative* behaviour matches the paper's
/// findings (see crate docs); the absolute values are not measurements of
/// the real devices.
pub static DEVICES: [Device; 5] = [
    // D0 — Cross Match Guardian R2: flagship ten-print livescan; clean
    // optics, big platen.
    Device {
        id: DeviceId(0),
        model: "Cross Match Guardian R2",
        technology: SensingTechnology::OpticalFtir,
        resolution_dpi: 500.0,
        image_px: (800, 750),
        capture_mm: (81.0, 76.0),
        distortion: DistortionSignature {
            scale: 1.000,
            k_radial: 0.30,
            shear_x: 0.004,
            shear_y: -0.003,
            wave_amp: 0.07,
            wave_freq: 0.45,
            wave_phase: 0.3,
            roll_stretch: 0.0,
        },
        noise: NoiseProfile {
            position_jitter: 0.085,
            direction_kappa: 90.0,
            base_dropout: 0.055,
            spurious_rate: 0.0035,
            quality_bias: 0.0,
            vignette_band_mm: 2.0,
        },
    },
    // D1 — i3 digID Mini: compact/cheap unit; optics similar to D0's family
    // but a markedly higher noise floor (drives the paper's {D1,D1}
    // diagonal anomaly).
    Device {
        id: DeviceId(1),
        model: "i3 digID Mini",
        technology: SensingTechnology::OpticalFtir,
        resolution_dpi: 500.0,
        image_px: (752, 750),
        capture_mm: (81.0, 76.0),
        distortion: DistortionSignature {
            scale: 0.992,
            k_radial: 0.22,
            shear_x: 0.008,
            shear_y: 0.002,
            wave_amp: 0.11,
            wave_freq: 0.52,
            wave_phase: 1.1,
            roll_stretch: 0.0,
        },
        noise: NoiseProfile {
            position_jitter: 0.125,
            direction_kappa: 55.0,
            base_dropout: 0.10,
            spurious_rate: 0.007,
            quality_bias: 0.45,
            vignette_band_mm: 3.0,
        },
    },
    // D2 — L1 Identity Solutions TouchPrint 5300: high-end booking station;
    // clean but with the opposite radial sign to the Cross Match optics.
    Device {
        id: DeviceId(2),
        model: "L1 Identity Solutions TouchPrint 5300",
        technology: SensingTechnology::OpticalFtir,
        resolution_dpi: 500.0,
        image_px: (800, 750),
        capture_mm: (81.0, 76.0),
        distortion: DistortionSignature {
            scale: 1.011,
            k_radial: -0.27,
            shear_x: -0.005,
            shear_y: 0.004,
            wave_amp: 0.10,
            wave_freq: 0.40,
            wave_phase: 2.3,
            roll_stretch: 0.0,
        },
        noise: NoiseProfile {
            position_jitter: 0.090,
            direction_kappa: 80.0,
            base_dropout: 0.058,
            spurious_rate: 0.005,
            quality_bias: 0.1,
            vignette_band_mm: 2.0,
        },
    },
    // D3 — Cross Match Seek II: ruggedized handheld; decent optics but a
    // much smaller window (40.6 x 38.1 mm — drives the {D3,D3} anomaly).
    Device {
        id: DeviceId(3),
        model: "Cross Match Seek II",
        technology: SensingTechnology::OpticalFtir,
        resolution_dpi: 500.0,
        image_px: (800, 750),
        capture_mm: (40.6, 38.1),
        distortion: DistortionSignature {
            scale: 0.997,
            k_radial: 0.40,
            shear_x: 0.009,
            shear_y: -0.007,
            wave_amp: 0.14,
            wave_freq: 0.60,
            wave_phase: 4.0,
            roll_stretch: 0.0,
        },
        noise: NoiseProfile {
            position_jitter: 0.12,
            direction_kappa: 60.0,
            base_dropout: 0.08,
            spurious_rate: 0.007,
            quality_bias: 0.25,
            vignette_band_mm: 6.5,
        },
    },
    // D4 — ink ten-print card, flat-bed scanned at 500 dpi. The rolled
    // impression covers nail-to-nail (large area, operator-guided placement)
    // but ink spread and the rolling motion give it by far the largest
    // distortion signature — the least interoperable source in the paper.
    Device {
        id: DeviceId(4),
        model: "ink ten-print card (flat-bed scan)",
        technology: SensingTechnology::InkTenPrint,
        resolution_dpi: 500.0,
        image_px: (800, 800),
        capture_mm: (40.0, 40.0),
        distortion: DistortionSignature {
            scale: 1.028,
            k_radial: -0.55,
            shear_x: 0.018,
            shear_y: -0.014,
            wave_amp: 0.30,
            wave_freq: 0.35,
            wave_phase: 5.2,
            roll_stretch: 0.068,
        },
        noise: NoiseProfile {
            position_jitter: 0.115,
            direction_kappa: 45.0,
            base_dropout: 0.062,
            spurious_rate: 0.012,
            quality_bias: 0.9,
            vignette_band_mm: 3.0,
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_characteristics_are_verbatim() {
        assert_eq!(DEVICES[0].model, "Cross Match Guardian R2");
        assert_eq!(DEVICES[0].image_px, (800, 750));
        assert_eq!(DEVICES[0].capture_mm, (81.0, 76.0));
        assert_eq!(DEVICES[1].image_px, (752, 750));
        assert_eq!(DEVICES[3].capture_mm, (40.6, 38.1));
        for d in &DEVICES {
            assert_eq!(d.resolution_dpi, 500.0);
        }
    }

    #[test]
    fn ids_match_indices() {
        for (i, d) in DEVICES.iter().enumerate() {
            assert_eq!(d.id.0 as usize, i);
            assert_eq!(Device::by_id(d.id).model, d.model);
        }
    }

    #[test]
    fn pixel_pitch_is_50_microns_at_500dpi() {
        assert!((DEVICES[0].pixel_pitch_mm() - 0.0508).abs() < 1e-4);
    }

    #[test]
    fn only_d4_is_ink() {
        for d in &DEVICES {
            assert_eq!(d.is_ink(), d.id.0 == 4, "{}", d.model);
        }
    }

    #[test]
    fn capture_window_is_centred_with_table1_size() {
        let w = DEVICES[3].capture_window();
        assert!((w.width() - 40.6).abs() < 1e-9);
        assert!((w.height() - 38.1).abs() < 1e-9);
        assert_eq!(w.centre(), Point::ORIGIN);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // device indices are the subject here
    fn cross_device_warp_residuals_exceed_same_device() {
        // The residual between any two distinct optical devices must be
        // larger than within a device (which is zero), and D4's residual to
        // any optical device must be the largest in its row.
        for a in 0..4usize {
            let mut to_ink = 0.0;
            for b in 0..5usize {
                let rms = DEVICES[a]
                    .distortion
                    .rms_difference(&DEVICES[b].distortion, 9.0);
                if a == b {
                    assert_eq!(rms, 0.0);
                } else {
                    assert!(rms > 0.05, "D{a} vs D{b} rms = {rms}");
                    if b == 4 {
                        to_ink = rms;
                    }
                }
            }
            for b in 0..4usize {
                if a != b {
                    let rms = DEVICES[a]
                        .distortion
                        .rms_difference(&DEVICES[b].distortion, 9.0);
                    assert!(
                        to_ink > rms,
                        "D{a}: ink residual {to_ink} not larger than D{b} residual {rms}"
                    );
                }
            }
        }
    }

    #[test]
    fn d1_is_the_noisiest_optical_device() {
        for i in [0usize, 2, 3] {
            assert!(DEVICES[1].noise.position_jitter > DEVICES[i].noise.position_jitter);
            assert!(DEVICES[1].noise.base_dropout > DEVICES[i].noise.base_dropout);
        }
    }
}
