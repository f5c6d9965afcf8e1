//! Minutiae templates — the unit of enrollment and verification.

use crate::geometry::{Point, Rect, RigidMotion};
use crate::minutia::Minutia;
use crate::{Error, Result};

/// Maximum plausible number of minutiae in a single impression. Templates
/// larger than this indicate a synthesis or extraction bug, so construction
/// rejects them rather than letting quadratic matchers blow up downstream.
pub const MAX_MINUTIAE: usize = 512;

/// A fingerprint template: the extracted minutiae plus the physical capture
/// geometry they were extracted from.
///
/// Templates are immutable after construction; use [`Template::builder`] or
/// [`Template::from_minutiae`] to create them.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    minutiae: Vec<Minutia>,
    resolution_dpi: f64,
    capture_window: Rect,
}

impl Template {
    /// Starts building a template captured at `resolution_dpi`.
    pub fn builder(resolution_dpi: f64) -> TemplateBuilder {
        TemplateBuilder {
            minutiae: Vec::new(),
            resolution_dpi,
            capture_window: None,
        }
    }

    /// Creates a template directly from parts.
    ///
    /// # Errors
    ///
    /// Returns an error when `resolution_dpi` is not positive/finite, when
    /// there are more than [`MAX_MINUTIAE`] minutiae, or when any minutia has
    /// a non-finite coordinate.
    pub fn from_minutiae(
        minutiae: Vec<Minutia>,
        resolution_dpi: f64,
        capture_window: Rect,
    ) -> Result<Self> {
        if !(resolution_dpi.is_finite() && resolution_dpi > 0.0) {
            return Err(Error::invalid(
                "resolution_dpi",
                format!("{resolution_dpi} must be positive and finite"),
            ));
        }
        if minutiae.len() > MAX_MINUTIAE {
            return Err(Error::invalid(
                "minutiae",
                format!("{} exceeds MAX_MINUTIAE = {MAX_MINUTIAE}", minutiae.len()),
            ));
        }
        for (i, m) in minutiae.iter().enumerate() {
            if !(m.pos.x.is_finite() && m.pos.y.is_finite()) {
                return Err(Error::invalid(
                    "minutiae",
                    format!("minutia {i} has non-finite position {:?}", m.pos),
                ));
            }
            if !m.direction.radians().is_finite() {
                return Err(Error::invalid(
                    "minutiae",
                    format!("minutia {i} has a non-finite direction"),
                ));
            }
        }
        Ok(Template {
            minutiae,
            resolution_dpi,
            capture_window,
        })
    }

    /// The minutiae, in construction order.
    pub fn minutiae(&self) -> &[Minutia] {
        &self.minutiae
    }

    /// Number of minutiae.
    pub fn len(&self) -> usize {
        self.minutiae.len()
    }

    /// Whether the template contains no minutiae (e.g. a failed capture).
    pub fn is_empty(&self) -> bool {
        self.minutiae.is_empty()
    }

    /// Capture resolution in dots per inch.
    pub fn resolution_dpi(&self) -> f64 {
        self.resolution_dpi
    }

    /// The physical capture window the minutiae live in.
    pub fn capture_window(&self) -> Rect {
        self.capture_window
    }

    /// Mean extraction reliability over the template's minutiae, 0 for an
    /// empty template.
    pub fn mean_reliability(&self) -> f64 {
        if self.minutiae.is_empty() {
            return 0.0;
        }
        self.minutiae.iter().map(|m| m.reliability).sum::<f64>() / self.minutiae.len() as f64
    }

    /// Centroid of the minutiae; `None` for an empty template.
    pub fn centroid(&self) -> Option<Point> {
        if self.minutiae.is_empty() {
            return None;
        }
        let n = self.minutiae.len() as f64;
        let (sx, sy) = self
            .minutiae
            .iter()
            .fold((0.0, 0.0), |(sx, sy), m| (sx + m.pos.x, sy + m.pos.y));
        Some(Point::new(sx / n, sy / n))
    }

    /// A copy of the template with every minutia (and the capture window)
    /// moved by a rigid motion. Used by placement simulation and invariance
    /// tests.
    pub fn transformed(&self, motion: &RigidMotion) -> Template {
        let corners = [
            self.capture_window.min(),
            Point::new(self.capture_window.max().x, self.capture_window.min().y),
            Point::new(self.capture_window.min().x, self.capture_window.max().y),
            self.capture_window.max(),
        ];
        let moved: Vec<Point> = corners.iter().map(|c| motion.apply(c)).collect();
        let (mut min_x, mut min_y, mut max_x, mut max_y) = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        for p in &moved {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        Template {
            minutiae: self
                .minutiae
                .iter()
                .map(|m| m.transformed(motion))
                .collect(),
            resolution_dpi: self.resolution_dpi,
            capture_window: Rect::from_corners(Point::new(min_x, min_y), Point::new(max_x, max_y)),
        }
    }
}

/// Incremental constructor for [`Template`].
#[derive(Debug, Clone)]
pub struct TemplateBuilder {
    minutiae: Vec<Minutia>,
    resolution_dpi: f64,
    capture_window: Option<Rect>,
}

impl TemplateBuilder {
    /// Sets the capture window as a centred rectangle of the given size.
    pub fn capture_window_mm(mut self, width: f64, height: f64) -> Self {
        self.capture_window = Rect::centred(Point::ORIGIN, width, height).ok();
        self
    }

    /// Sets an explicit capture window.
    pub fn capture_window(mut self, window: Rect) -> Self {
        self.capture_window = Some(window);
        self
    }

    /// Appends one minutia.
    pub fn push(mut self, m: Minutia) -> Self {
        self.minutiae.push(m);
        self
    }

    /// Appends many minutiae.
    pub fn extend<I: IntoIterator<Item = Minutia>>(mut self, items: I) -> Self {
        self.minutiae.extend(items);
        self
    }

    /// Builds the template.
    ///
    /// # Errors
    ///
    /// Returns an error when no capture window was set (and the default
    /// cannot be derived), when the resolution is invalid, or when the
    /// minutiae fail validation — see [`Template::from_minutiae`].
    pub fn build(self) -> Result<Template> {
        let window = match self.capture_window {
            Some(w) => w,
            None => {
                // Default: tight bounding box with a 1 mm margin, or a unit
                // window for empty templates.
                if self.minutiae.is_empty() {
                    Rect::centred(Point::ORIGIN, 1.0, 1.0)?
                } else {
                    let (mut min_x, mut min_y, mut max_x, mut max_y) = (
                        f64::INFINITY,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        f64::NEG_INFINITY,
                    );
                    for m in &self.minutiae {
                        min_x = min_x.min(m.pos.x);
                        min_y = min_y.min(m.pos.y);
                        max_x = max_x.max(m.pos.x);
                        max_y = max_y.max(m.pos.y);
                    }
                    Rect::from_corners(
                        Point::new(min_x - 1.0, min_y - 1.0),
                        Point::new(max_x + 1.0, max_y + 1.0),
                    )
                }
            }
        };
        Template::from_minutiae(self.minutiae, self.resolution_dpi, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Direction, Vector};
    use crate::minutia::MinutiaKind;

    fn sample_minutia(x: f64, y: f64) -> Minutia {
        Minutia::new(
            Point::new(x, y),
            Direction::from_radians(0.3),
            MinutiaKind::RidgeEnding,
            0.9,
        )
    }

    #[test]
    fn builder_derives_bounding_window() {
        let t = Template::builder(500.0)
            .push(sample_minutia(0.0, 0.0))
            .push(sample_minutia(4.0, 6.0))
            .build()
            .unwrap();
        assert!(t.capture_window().contains(&Point::new(4.0, 6.0)));
        assert!((t.capture_window().width() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_resolution() {
        assert!(Template::builder(0.0).build().is_err());
        assert!(Template::builder(f64::NAN).build().is_err());
        assert!(Template::builder(-500.0).build().is_err());
    }

    #[test]
    fn rejects_oversized_templates() {
        let minutiae: Vec<Minutia> = (0..MAX_MINUTIAE + 1)
            .map(|i| sample_minutia(i as f64 * 0.1, 0.0))
            .collect();
        let window = Rect::centred(Point::ORIGIN, 100.0, 100.0).unwrap();
        assert!(Template::from_minutiae(minutiae, 500.0, window).is_err());
    }

    #[test]
    fn rejects_non_finite_positions() {
        let window = Rect::centred(Point::ORIGIN, 10.0, 10.0).unwrap();
        let bad = vec![sample_minutia(f64::NAN, 0.0)];
        assert!(Template::from_minutiae(bad, 500.0, window).is_err());
    }

    #[test]
    fn transform_preserves_cardinality_and_density_scale() {
        let t = Template::builder(500.0)
            .capture_window_mm(10.0, 10.0)
            .extend((0..20).map(|i| sample_minutia((i % 5) as f64, (i / 5) as f64)))
            .build()
            .unwrap();
        let moved = t.transformed(&RigidMotion::new(
            Direction::from_radians(1.0),
            Vector::new(5.0, -3.0),
        ));
        assert_eq!(moved.len(), t.len());
        // area grows for a rotated bounding box but must stay within sqrt(2)^2
        let (area, moved_area) = (t.capture_window().area(), moved.capture_window().area());
        assert!(moved_area >= area - 1e-9);
        assert!(moved_area <= area * 2.0 + 1e-9);
    }

    #[test]
    fn centroid_and_reliability_of_empty_template() {
        let t = Template::builder(500.0).build().unwrap();
        assert!(t.is_empty());
        assert_eq!(t.centroid(), None);
        assert_eq!(t.mean_reliability(), 0.0);
    }
}
