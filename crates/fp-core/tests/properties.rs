//! Property-based tests of the core geometry and template invariants.

use fp_core::geometry::{Direction, Orientation, Point, Rect, RigidMotion, Vector};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::template::Template;
use proptest::prelude::*;

const PI: f64 = std::f64::consts::PI;

fn finite_angle() -> impl Strategy<Value = f64> {
    -50.0..50.0f64
}

fn point() -> impl Strategy<Value = Point> {
    (-40.0..40.0f64, -40.0..40.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn motion() -> impl Strategy<Value = RigidMotion> {
    (finite_angle(), -20.0..20.0f64, -20.0..20.0f64)
        .prop_map(|(r, x, y)| RigidMotion::new(Direction::from_radians(r), Vector::new(x, y)))
}

proptest! {
    // ---- Direction: circle-group laws -------------------------------------

    #[test]
    fn direction_is_canonical(a in finite_angle()) {
        let d = Direction::from_radians(a);
        prop_assert!(d.radians() > -PI && d.radians() <= PI);
    }

    #[test]
    fn direction_rotation_composes(a in finite_angle(), b in finite_angle(), c in finite_angle()) {
        let d = Direction::from_radians(a);
        let once = d.rotated(b).rotated(c);
        let combined = d.rotated(b + c);
        prop_assert!(once.separation(combined) < 1e-9);
    }

    #[test]
    fn signed_delta_is_antisymmetric(a in finite_angle(), b in finite_angle()) {
        let x = Direction::from_radians(a);
        let y = Direction::from_radians(b);
        let forward = x.signed_delta(y);
        let backward = y.signed_delta(x);
        // Antisymmetric except at the boundary value pi (its own negation
        // wraps back to pi).
        if forward.abs() < PI - 1e-9 {
            prop_assert!((forward + backward).abs() < 1e-9);
        }
    }

    #[test]
    fn separation_is_a_metric_on_the_circle(a in finite_angle(), b in finite_angle(), c in finite_angle()) {
        let x = Direction::from_radians(a);
        let y = Direction::from_radians(b);
        let z = Direction::from_radians(c);
        prop_assert!(x.separation(y) >= 0.0);
        prop_assert!((x.separation(y) - y.separation(x)).abs() < 1e-12);
        prop_assert!(x.separation(z) <= x.separation(y) + y.separation(z) + 1e-9);
    }

    // ---- Orientation: half-circle laws -------------------------------------

    #[test]
    fn orientation_is_canonical(a in finite_angle()) {
        let o = Orientation::from_radians(a);
        prop_assert!(o.radians() >= 0.0 && o.radians() < PI);
    }

    #[test]
    fn orientation_is_pi_periodic(a in finite_angle()) {
        let o1 = Orientation::from_radians(a);
        let o2 = Orientation::from_radians(a + PI);
        prop_assert!(o1.separation(o2) < 1e-9);
    }

    #[test]
    fn orientation_separation_bounded_by_right_angle(a in finite_angle(), b in finite_angle()) {
        let s = Orientation::from_radians(a).separation(Orientation::from_radians(b));
        prop_assert!((0.0..=PI / 2.0 + 1e-12).contains(&s));
    }

    // ---- RigidMotion: group action ------------------------------------------

    #[test]
    fn motion_preserves_distances(m in motion(), p in point(), q in point()) {
        let before = p.distance(&q);
        let after = m.apply(&p).distance(&m.apply(&q));
        prop_assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn motion_inverse_is_identity(m in motion(), p in point()) {
        let back = m.inverse().apply(&m.apply(&p));
        prop_assert!(p.distance(&back) < 1e-9);
    }

    #[test]
    fn motion_composition_matches_sequential_application(
        m1 in motion(), m2 in motion(), p in point()
    ) {
        let sequential = m2.apply(&m1.apply(&p));
        let composed = m1.then(&m2).apply(&p);
        prop_assert!(sequential.distance(&composed) < 1e-9);
    }

    #[test]
    fn motion_rotates_directions_consistently(
        r in finite_angle(), x in -20.0..20.0f64, y in -20.0..20.0f64, a in finite_angle()
    ) {
        let rotation = Direction::from_radians(r);
        let m = RigidMotion::new(rotation, Vector::new(x, y));
        let d = Direction::from_radians(a);
        let rotated = m.apply_direction(d);
        prop_assert!(
            (rotated.signed_delta(d) - rotation.signed_delta(Direction::ZERO)).abs() < 1e-9
        );
    }

    // ---- Rect ---------------------------------------------------------------

    #[test]
    fn rect_union_contains_both(p1 in point(), p2 in point(), p3 in point(), p4 in point()) {
        let a = Rect::from_corners(p1, p2);
        let b = Rect::from_corners(p3, p4);
        let u = a.union(&b);
        prop_assert!(u.contains(&a.min()) && u.contains(&a.max()));
        prop_assert!(u.contains(&b.min()) && u.contains(&b.max()));
    }

    // ---- Template -----------------------------------------------------------

    #[test]
    fn template_transform_preserves_minutiae_count_and_reliability(
        m in motion(),
        points in prop::collection::vec((point(), finite_angle(), 0.0..1.0f64), 0..40)
    ) {
        let minutiae: Vec<Minutia> = points
            .iter()
            .map(|(p, a, r)| Minutia::new(*p, Direction::from_radians(*a), MinutiaKind::RidgeEnding, *r))
            .collect();
        let t = Template::builder(500.0)
            .capture_window_mm(100.0, 100.0)
            .extend(minutiae)
            .build()
            .unwrap();
        let moved = t.transformed(&m);
        prop_assert_eq!(moved.len(), t.len());
        prop_assert!((moved.mean_reliability() - t.mean_reliability()).abs() < 1e-12);
    }
}
