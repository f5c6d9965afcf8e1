//! Per-device geometric distortion signatures.
//!
//! Every capture device imposes a fixed smooth warp on the print it sees:
//! lens radial distortion and platen geometry for optical sensors, paper
//! stretch, ink spread and the rolling motion for ink cards. The warp is a
//! property of the *device*, not of the capture — that is what makes
//! interoperability an issue: a matcher can rigidly align two prints but
//! cannot undo the first-order *difference* between two devices' warps
//! (Ross & Nadgir model this same residual with thin-plate splines).

use fp_core::geometry::{Point, Vector};

/// A fixed smooth nonlinear warp of platen coordinates.
///
/// Displacement model (all lengths in mm, `q` in platen coordinates):
///
/// ```text
/// w(q) = (scale - 1) * q                            // calibration error
///      + k_radial * (|q|^2 / 100) * unit(q)          // barrel / pincushion
///      + (shear_x * q.y, shear_y * q.x)              // platen shear
///      + wave_amp * (sin(f*q.y + phase), cos(f*q.x + phase))  // flatness ripple
///      + (roll_stretch * q.x, 0)                     // ink roll stretch
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistortionSignature {
    /// Global scale factor (1.0 = perfectly calibrated dpi).
    pub scale: f64,
    /// Radial distortion coefficient: displacement in mm at 10 mm radius.
    pub k_radial: f64,
    /// Horizontal shear coefficient (mm of x-displacement per mm of y).
    pub shear_x: f64,
    /// Vertical shear coefficient (mm of y-displacement per mm of x).
    pub shear_y: f64,
    /// Amplitude (mm) of the platen-flatness ripple.
    pub wave_amp: f64,
    /// Spatial frequency (rad/mm) of the ripple.
    pub wave_freq: f64,
    /// Phase (rad) of the ripple.
    pub wave_phase: f64,
    /// Lateral stretch from rolling the finger (ink cards only; 0 for
    /// live-scan).
    pub roll_stretch: f64,
}

impl DistortionSignature {
    /// The identity signature (an ideal device).
    pub const IDENTITY: DistortionSignature = DistortionSignature {
        scale: 1.0,
        k_radial: 0.0,
        shear_x: 0.0,
        shear_y: 0.0,
        wave_amp: 0.0,
        wave_freq: 0.0,
        wave_phase: 0.0,
        roll_stretch: 0.0,
    };

    /// Displacement vector at platen position `q`.
    pub fn displacement(&self, q: Point) -> Vector {
        let mut w = Vector::new((self.scale - 1.0) * q.x, (self.scale - 1.0) * q.y);
        let r = q.x.hypot(q.y);
        if r > 1e-9 {
            let radial = self.k_radial * (r * r / 100.0) / r;
            w += Vector::new(radial * q.x, radial * q.y);
        }
        w += Vector::new(self.shear_x * q.y, self.shear_y * q.x);
        w += Vector::new(
            self.wave_amp * (self.wave_freq * q.y + self.wave_phase).sin(),
            self.wave_amp * (self.wave_freq * q.x + self.wave_phase).cos(),
        );
        w += Vector::new(self.roll_stretch * q.x, 0.0);
        w
    }

    /// The warped position of `q`.
    pub fn apply(&self, q: Point) -> Point {
        q + self.displacement(q)
    }

    /// Root-mean-square displacement *difference* between two signatures over
    /// a centred disc of the given radius — the residual a rigid-alignment
    /// matcher cannot remove (up to its own rigid re-fit). Useful for
    /// reasoning about interoperability in tests and ablations.
    pub fn rms_difference(&self, other: &DistortionSignature, radius: f64) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        let steps = 12;
        for i in 0..steps {
            for j in 0..steps {
                let x = -radius + 2.0 * radius * (i as f64 + 0.5) / steps as f64;
                let y = -radius + 2.0 * radius * (j as f64 + 0.5) / steps as f64;
                if x * x + y * y > radius * radius {
                    continue;
                }
                let q = Point::new(x, y);
                let d = self.displacement(q) - other.displacement(q);
                sum += d.x * d.x + d.y * d.y;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            (sum / count as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_does_not_move_points() {
        let id = DistortionSignature::IDENTITY;
        for (x, y) in [(0.0, 0.0), (5.0, -3.0), (-10.0, 10.0)] {
            let p = Point::new(x, y);
            assert_eq!(id.apply(p), p);
        }
    }

    #[test]
    fn radial_term_grows_quadratically() {
        let sig = DistortionSignature {
            k_radial: 0.3,
            ..DistortionSignature::IDENTITY
        };
        let near = sig.displacement(Point::new(5.0, 0.0)).norm();
        let far = sig.displacement(Point::new(10.0, 0.0)).norm();
        assert!((far / near - 4.0).abs() < 1e-9, "ratio = {}", far / near);
        assert!((far - 0.3).abs() < 1e-9);
    }

    #[test]
    fn rms_difference_is_zero_for_same_signature() {
        let sig = DistortionSignature {
            k_radial: 0.2,
            shear_x: 0.01,
            wave_amp: 0.1,
            wave_freq: 0.5,
            ..DistortionSignature::IDENTITY
        };
        assert_eq!(sig.rms_difference(&sig, 10.0), 0.0);
    }

    #[test]
    fn rms_difference_is_symmetric_and_positive() {
        let a = DistortionSignature {
            k_radial: 0.25,
            ..DistortionSignature::IDENTITY
        };
        let b = DistortionSignature {
            k_radial: -0.25,
            ..DistortionSignature::IDENTITY
        };
        let ab = a.rms_difference(&b, 10.0);
        let ba = b.rms_difference(&a, 10.0);
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab > 0.1, "rms = {ab}");
    }

    #[test]
    fn roll_stretch_widens_only_x() {
        let sig = DistortionSignature {
            roll_stretch: 0.05,
            ..DistortionSignature::IDENTITY
        };
        let p = sig.apply(Point::new(10.0, 7.0));
        assert!((p.x - 10.5).abs() < 1e-12);
        assert!((p.y - 7.0).abs() < 1e-12);
    }

    #[test]
    fn scale_term_is_isotropic() {
        let sig = DistortionSignature {
            scale: 1.01,
            ..DistortionSignature::IDENTITY
        };
        let p = sig.apply(Point::new(10.0, -10.0));
        assert!((p.x - 10.1).abs() < 1e-12);
        assert!((p.y + 10.1).abs() < 1e-12);
    }
}
