//! Minutiae: the level-2 fingerprint features all matching is based on.

use std::fmt;

use crate::geometry::{Direction, Point, RigidMotion};

/// The type of a minutia point.
///
/// Real extraction pipelines report many exotic types (lakes, spurs,
/// crossovers); matchers — including NIST's Bozorth3 and the commercial SDK
/// used in the paper — collapse them to endings and bifurcations, so we model
/// exactly those.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MinutiaKind {
    /// A ridge terminates.
    RidgeEnding,
    /// A ridge splits in two.
    Bifurcation,
}

impl MinutiaKind {
    /// Both kinds, endings first.
    pub const ALL: [MinutiaKind; 2] = [MinutiaKind::RidgeEnding, MinutiaKind::Bifurcation];
}

impl fmt::Display for MinutiaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinutiaKind::RidgeEnding => write!(f, "ending"),
            MinutiaKind::Bifurcation => write!(f, "bifurcation"),
        }
    }
}

/// A single minutia: position, direction of the ridge flow at the point, the
/// feature kind, and an extraction-reliability estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Minutia {
    /// Position in finger-centred millimetres.
    pub pos: Point,
    /// Ridge direction at the minutia (directed; endings point along the
    /// terminating ridge, bifurcations along the valley between branches).
    pub direction: Direction,
    /// Feature kind.
    pub kind: MinutiaKind,
    /// Extraction reliability in `[0, 1]`; 1 means certain. Sensors reduce
    /// this with noise, and quality assessment aggregates it.
    pub reliability: f64,
}

impl Minutia {
    /// Creates a minutia, clamping `reliability` into `[0, 1]` (NaN maps
    /// to 0: no evidence of reliability is zero reliability).
    pub fn new(pos: Point, direction: Direction, kind: MinutiaKind, reliability: f64) -> Self {
        let reliability = if reliability.is_nan() {
            0.0
        } else {
            reliability.clamp(0.0, 1.0)
        };
        Minutia {
            pos,
            direction,
            kind,
            reliability,
        }
    }

    /// Applies a rigid motion to the minutia (position and direction).
    pub fn transformed(&self, motion: &RigidMotion) -> Minutia {
        Minutia {
            pos: motion.apply(&self.pos),
            direction: motion.apply_direction(self.direction),
            kind: self.kind,
            reliability: self.reliability,
        }
    }

    /// Distance in millimetres to another minutia.
    pub fn distance(&self, other: &Minutia) -> f64 {
        self.pos.distance(&other.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Vector;

    #[test]
    fn reliability_is_clamped() {
        let m = Minutia::new(
            Point::ORIGIN,
            Direction::ZERO,
            MinutiaKind::RidgeEnding,
            2.0,
        );
        assert_eq!(m.reliability, 1.0);
        let m = Minutia::new(
            Point::ORIGIN,
            Direction::ZERO,
            MinutiaKind::RidgeEnding,
            -0.5,
        );
        assert_eq!(m.reliability, 0.0);
        let m = Minutia::new(
            Point::ORIGIN,
            Direction::ZERO,
            MinutiaKind::RidgeEnding,
            f64::NAN,
        );
        assert_eq!(m.reliability, 0.0, "NaN reliability must not propagate");
    }

    #[test]
    fn transform_moves_position_and_direction_consistently() {
        let m = Minutia::new(
            Point::new(1.0, 0.0),
            Direction::ZERO,
            MinutiaKind::Bifurcation,
            0.8,
        );
        let quarter = RigidMotion::new(
            Direction::from_radians(std::f64::consts::FRAC_PI_2),
            Vector::ZERO,
        );
        let t = m.transformed(&quarter);
        assert!(t.pos.distance(&Point::new(0.0, 1.0)) < 1e-12);
        assert!((t.direction.radians() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert_eq!(t.kind, m.kind);
        assert_eq!(t.reliability, m.reliability);
    }

    #[test]
    fn kind_display_is_stable() {
        assert_eq!(MinutiaKind::RidgeEnding.to_string(), "ending");
        assert_eq!(MinutiaKind::Bifurcation.to_string(), "bifurcation");
    }
}
