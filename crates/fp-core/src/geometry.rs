//! Planar geometry in physical units (millimetres) plus circular arithmetic.
//!
//! Two distinct angular types prevent the classic fingerprint-code bug of
//! mixing directed quantities (minutia directions, `mod 2*pi`) with undirected
//! ones (ridge-flow orientations, `mod pi`):
//!
//! * [`Direction`] — a point on the full circle, stored in `(-pi, pi]`.
//! * [`Orientation`] — a point on the half circle, stored in `[0, pi)`.

use std::f64::consts::PI;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

const TAU: f64 = 2.0 * PI;

/// A point in the finger-centred plane, in millimetres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (mm), `+x` toward the right edge of the finger.
    pub x: f64,
    /// Vertical coordinate (mm), `+y` toward the fingertip.
    pub y: f64,
}

impl Point {
    /// The origin (centre of the finger pad).
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from millimetre coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other` in millimetres.
    pub fn distance(&self, other: &Point) -> f64 {
        (*self - *other).norm()
    }

    /// Direction of the ray from `self` to `other`.
    ///
    /// Returns [`Direction::ZERO`] when the points coincide.
    pub fn direction_to(&self, other: &Point) -> Direction {
        let d = *other - *self;
        if d.x == 0.0 && d.y == 0.0 {
            Direction::ZERO
        } else {
            Direction::from_radians(d.y.atan2(d.x))
        }
    }

    /// Linear interpolation: `t = 0` gives `self`, `t = 1` gives `other`.
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Rotates the point about the origin by `angle`.
    pub fn rotated(&self, angle: Direction) -> Point {
        let (s, c) = angle.radians().sin_cos();
        Point::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }
}

/// A displacement between two [`Point`]s, in millimetres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector {
    /// Horizontal component (mm).
    pub x: f64,
    /// Vertical component (mm).
    pub y: f64,
}

impl Vector {
    /// The zero displacement.
    pub const ZERO: Vector = Vector { x: 0.0, y: 0.0 };

    /// Creates a vector from millimetre components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vector { x, y }
    }

    /// A unit vector pointing along `direction`.
    pub fn unit(direction: Direction) -> Self {
        let (s, c) = direction.radians().sin_cos();
        Vector::new(c, s)
    }

    /// Euclidean length in millimetres.
    pub fn norm(&self) -> f64 {
        self.x.hypot(self.y)
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    pub fn cross(&self, other: &Vector) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// The direction this vector points in; [`Direction::ZERO`] for the zero
    /// vector.
    pub fn direction(&self) -> Direction {
        if self.x == 0.0 && self.y == 0.0 {
            Direction::ZERO
        } else {
            Direction::from_radians(self.y.atan2(self.x))
        }
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    fn add(self, rhs: Vector) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vector> for Point {
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vector> for Point {
    type Output = Point;
    fn sub(self, rhs: Vector) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Sub for Point {
    type Output = Vector;
    fn sub(self, rhs: Point) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vector {
    type Output = Vector;
    fn add(self, rhs: Vector) -> Vector {
        Vector::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vector {
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vector {
    type Output = Vector;
    fn sub(self, rhs: Vector) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vector {
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        Vector::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vector {
    type Output = Vector;
    fn div(self, rhs: f64) -> Vector {
        Vector::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        Vector::new(-self.x, -self.y)
    }
}

/// Wraps an angle in radians into `(-pi, pi]`.
fn wrap_direction(radians: f64) -> f64 {
    // rem_euclid maps to [0, tau); shift to (-pi, pi].
    let r = radians.rem_euclid(TAU);
    if r > PI {
        r - TAU
    } else {
        r
    }
}

/// Wraps an angle in radians into `[0, pi)`.
fn wrap_orientation(radians: f64) -> f64 {
    let r = radians.rem_euclid(PI);
    // rem_euclid can return PI itself due to rounding when radians is a tiny
    // negative number; fold it back.
    if r >= PI {
        0.0
    } else {
        r
    }
}

/// A directed angle on the full circle, canonicalized to `(-pi, pi]` radians.
///
/// Use for minutia directions and any quantity where "this way" differs from
/// "the opposite way". Arithmetic wraps around the circle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Direction(f64);

impl Direction {
    /// The zero direction (pointing along `+x`).
    pub const ZERO: Direction = Direction(0.0);

    /// Creates a direction from radians; any finite value is wrapped.
    pub fn from_radians(radians: f64) -> Self {
        Direction(wrap_direction(radians))
    }

    /// Reconstructs a direction from an already-canonical radian value —
    /// one previously obtained from [`radians`](Self::radians) — preserving
    /// it **bit-for-bit**. [`from_radians`](Self::from_radians) re-wraps,
    /// and wrapping is not bit-idempotent (`x.rem_euclid(TAU)` followed by
    /// the `±TAU` shift rounds for negative `x`), so deserializers that
    /// must reproduce stored directions exactly use this instead. Returns
    /// `None` when `radians` is outside the canonical `(-pi, pi]` range,
    /// so hostile inputs surface as a typed error at the caller instead of
    /// a direction that silently violates the wrapping invariant.
    pub fn try_from_canonical_radians(radians: f64) -> Option<Self> {
        if radians > -PI && radians <= PI {
            Some(Direction(radians))
        } else {
            None
        }
    }

    /// The canonical radian value in `(-pi, pi]`.
    pub fn radians(&self) -> f64 {
        self.0
    }

    /// The canonical value converted to degrees, in `(-180, 180]`.
    pub fn degrees(&self) -> f64 {
        self.0.to_degrees()
    }

    /// The direction pointing the opposite way.
    pub fn opposite(&self) -> Direction {
        Direction::from_radians(self.0 + PI)
    }

    /// Signed smallest rotation taking `other` to `self`, in `(-pi, pi]`.
    pub fn signed_delta(&self, other: Direction) -> f64 {
        wrap_direction(self.0 - other.0)
    }

    /// Absolute angular separation in `[0, pi]`.
    pub fn separation(&self, other: Direction) -> f64 {
        self.signed_delta(other).abs()
    }

    /// Rotates by `radians` (wrapping).
    pub fn rotated(&self, radians: f64) -> Direction {
        Direction::from_radians(self.0 + radians)
    }
}

impl Add<f64> for Direction {
    type Output = Direction;
    fn add(self, rhs: f64) -> Direction {
        self.rotated(rhs)
    }
}

impl Sub<f64> for Direction {
    type Output = Direction;
    fn sub(self, rhs: f64) -> Direction {
        self.rotated(-rhs)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}°", self.degrees())
    }
}

/// An undirected ridge-flow orientation, canonicalized to `[0, pi)` radians.
///
/// Ridge flow has no arrow: flowing "northeast" and "southwest" are the same
/// orientation. Angular differences therefore live in `[0, pi/2]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Orientation(f64);

impl Orientation {
    /// Horizontal ridge flow.
    pub const HORIZONTAL: Orientation = Orientation(0.0);

    /// Creates an orientation from radians; any finite value is wrapped into
    /// `[0, pi)`.
    pub fn from_radians(radians: f64) -> Self {
        Orientation(wrap_orientation(radians))
    }

    /// The canonical radian value in `[0, pi)`.
    pub fn radians(&self) -> f64 {
        self.0
    }

    /// Smallest angular separation between two orientations, in
    /// `[0, pi/2]`.
    pub fn separation(&self, other: Orientation) -> f64 {
        let d = (self.0 - other.0).abs();
        d.min(PI - d)
    }

    /// Rotates by `radians` (wrapping on the half-circle).
    pub fn rotated(&self, radians: f64) -> Orientation {
        Orientation::from_radians(self.0 + radians)
    }
}

impl fmt::Display for Orientation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}°", self.0.to_degrees())
    }
}

/// An axis-aligned rectangle in millimetres, used for capture windows and
/// finger extents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from opposite corners; coordinates are sorted so
    /// argument order does not matter.
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle centred on `centre` with the given width and
    /// height (mm).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`](crate::Error::InvalidParameter)
    /// when width or height is not strictly positive and finite.
    pub fn centred(centre: Point, width: f64, height: f64) -> crate::Result<Self> {
        if !(width.is_finite() && width > 0.0) {
            return Err(crate::Error::invalid(
                "width",
                format!("{width} must be positive"),
            ));
        }
        if !(height.is_finite() && height > 0.0) {
            return Err(crate::Error::invalid(
                "height",
                format!("{height} must be positive"),
            ));
        }
        let half = Vector::new(width / 2.0, height / 2.0);
        Ok(Rect {
            min: centre - half,
            max: centre + half,
        })
    }

    /// Lower-left corner.
    pub fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width in millimetres.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height in millimetres.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Centre point.
    pub fn centre(&self) -> Point {
        self.min.lerp(&self.max, 0.5)
    }

    /// Area in square millimetres.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Whether `p` lies inside (inclusive of edges).
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The smallest rectangle containing both operands.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }
}

/// A rigid motion of the plane: rotation about the origin followed by a
/// translation.
///
/// Used to model finger placement on a platen and to test matcher invariance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigidMotion {
    rotation: Direction,
    translation: Vector,
}

impl RigidMotion {
    /// The identity motion.
    pub const IDENTITY: RigidMotion = RigidMotion {
        rotation: Direction::ZERO,
        translation: Vector::ZERO,
    };

    /// Creates a motion that rotates by `rotation` and then translates by
    /// `translation`.
    pub fn new(rotation: Direction, translation: Vector) -> Self {
        RigidMotion {
            rotation,
            translation,
        }
    }

    /// Pure rotation about the origin.
    pub fn rotation(rotation: Direction) -> Self {
        RigidMotion::new(rotation, Vector::ZERO)
    }

    /// Pure translation.
    pub fn translation(translation: Vector) -> Self {
        RigidMotion::new(Direction::ZERO, translation)
    }

    /// Applies the motion to a point.
    pub fn apply(&self, p: &Point) -> Point {
        p.rotated(self.rotation) + self.translation
    }

    /// Applies the motion to a direction (rotation only; translation does not
    /// affect angles).
    pub fn apply_direction(&self, d: Direction) -> Direction {
        d.rotated(self.rotation.radians())
    }

    /// Composition: `self.then(&g)` applies `self` first, then `g`.
    pub fn then(&self, g: &RigidMotion) -> RigidMotion {
        // g(f(p)) = R_g (R_f p + t_f) + t_g = (R_g R_f) p + (R_g t_f + t_g)
        let rotated_t = Point::new(self.translation.x, self.translation.y).rotated(g.rotation);
        RigidMotion {
            rotation: self.rotation.rotated(g.rotation.radians()),
            translation: Vector::new(rotated_t.x, rotated_t.y) + g.translation,
        }
    }

    /// The inverse motion: `m.inverse().apply(&m.apply(&p)) == p` up to
    /// floating-point error.
    pub fn inverse(&self) -> RigidMotion {
        let inv_rot = Direction::from_radians(-self.rotation.radians());
        let t = Point::new(-self.translation.x, -self.translation.y).rotated(inv_rot);
        RigidMotion {
            rotation: inv_rot,
            translation: Vector::new(t.x, t.y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn direction_wraps_into_canonical_interval() {
        for k in -5..=5 {
            let d = Direction::from_radians(1.0 + TAU * k as f64);
            assert!(
                (d.radians() - 1.0).abs() < 1e-9,
                "k={k} got {}",
                d.radians()
            );
        }
        assert!(Direction::from_radians(PI).radians() > 0.0);
        assert!(Direction::from_radians(-PI).radians() > 0.0);
    }

    #[test]
    fn direction_signed_delta_is_shortest_rotation() {
        let a = Direction::from_radians(3.0);
        let b = Direction::from_radians(-3.0);
        // going from -3 to 3 the short way crosses pi
        assert!(a.signed_delta(b) < 0.0);
        assert!(a.signed_delta(b).abs() < 1.0);
    }

    #[test]
    fn direction_opposite_is_involution() {
        let d = Direction::from_radians(0.4);
        assert!((d.opposite().opposite().radians() - d.radians()).abs() < EPS);
    }

    #[test]
    fn orientation_separation_max_is_right_angle() {
        let a = Orientation::from_radians(0.0);
        let b = Orientation::from_radians(PI / 2.0);
        assert!((a.separation(b) - PI / 2.0).abs() < EPS);
        let c = Orientation::from_radians(PI - 0.01);
        assert!(a.separation(c) < 0.02);
    }

    #[test]
    fn rect_union() {
        let a = Rect::from_corners(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let b = Rect::from_corners(Point::new(1.0, 1.0), Point::new(3.0, 3.0));
        let u = a.union(&b);
        assert!((u.area() - 9.0).abs() < EPS);
    }

    #[test]
    fn rect_centred_rejects_bad_dimensions() {
        assert!(Rect::centred(Point::ORIGIN, 0.0, 1.0).is_err());
        assert!(Rect::centred(Point::ORIGIN, 1.0, -1.0).is_err());
        assert!(Rect::centred(Point::ORIGIN, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn rigid_motion_inverse_roundtrip() {
        let m = RigidMotion::new(Direction::from_radians(0.7), Vector::new(3.0, -2.0));
        let p = Point::new(1.5, 2.5);
        let q = m.inverse().apply(&m.apply(&p));
        assert!(p.distance(&q) < 1e-9);
    }

    #[test]
    fn rigid_motion_preserves_distances() {
        let m = RigidMotion::new(Direction::from_radians(-1.2), Vector::new(8.0, 1.0));
        let a = Point::new(0.0, 1.0);
        let b = Point::new(4.0, -3.0);
        assert!((m.apply(&a).distance(&m.apply(&b)) - a.distance(&b)).abs() < 1e-9);
    }

    #[test]
    fn point_direction_to_matches_atan2() {
        let a = Point::ORIGIN;
        let b = Point::new(0.0, 2.0);
        assert!((a.direction_to(&b).radians() - PI / 2.0).abs() < EPS);
        assert_eq!(a.direction_to(&a), Direction::ZERO);
    }
}
