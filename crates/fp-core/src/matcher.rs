//! The matcher abstraction and the score type shared by all matchers.

use std::fmt;

use crate::template::Template;

/// A similarity score between two templates.
///
/// Higher means more similar. The study calibrates scores onto the scale used
/// by the paper's commercial matcher, where impostor comparisons essentially
/// never exceed 7 and genuine scores below 10 are considered "low".
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MatchScore(f64);

impl MatchScore {
    /// The zero score (no similarity evidence).
    pub const ZERO: MatchScore = MatchScore(0.0);

    /// Creates a score, clamping negatives and NaN to zero.
    ///
    /// Similarity evidence cannot be negative; mapping NaN to zero keeps
    /// score sets totally ordered, which the threshold search relies on.
    pub fn new(value: f64) -> Self {
        if value.is_nan() || value < 0.0 {
            MatchScore(0.0)
        } else {
            MatchScore(value)
        }
    }

    /// The raw score value (non-negative, finite unless +inf was passed in).
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl From<MatchScore> for f64 {
    fn from(s: MatchScore) -> f64 {
        s.0
    }
}

impl fmt::Display for MatchScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}", self.0)
    }
}

impl Eq for MatchScore {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for MatchScore {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Construction forbids NaN, so total order is safe.
        self.0
            .partial_cmp(&other.0)
            .expect("MatchScore is never NaN")
    }
}

/// A fingerprint matcher: produces a similarity score for a (gallery, probe)
/// template pair.
///
/// Implementations must be deterministic — the same pair always yields the
/// same score — and must not assume the two templates come from the same
/// device: differing resolutions and capture areas are the whole point of the
/// interoperability study.
pub trait Matcher: Send + Sync {
    /// Compares an enrolled `gallery` template with a verification `probe`
    /// template, returning a non-negative similarity score.
    fn compare(&self, gallery: &Template, probe: &Template) -> MatchScore;

    /// Short human-readable matcher name for reports.
    fn name(&self) -> &str;
}

impl<M: Matcher + ?Sized> Matcher for &M {
    fn compare(&self, gallery: &Template, probe: &Template) -> MatchScore {
        (**self).compare(gallery, probe)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<M: Matcher + ?Sized> Matcher for Box<M> {
    fn compare(&self, gallery: &Template, probe: &Template) -> MatchScore {
        (**self).compare(gallery, probe)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_clamps_negative_and_nan() {
        assert_eq!(MatchScore::new(-3.0).value(), 0.0);
        assert_eq!(MatchScore::new(f64::NAN).value(), 0.0);
        assert_eq!(MatchScore::new(12.5).value(), 12.5);
    }

    #[test]
    fn scores_sort_totally() {
        let mut v = [
            MatchScore::new(3.0),
            MatchScore::new(1.0),
            MatchScore::new(2.0),
        ];
        v.sort();
        assert_eq!(v[0].value(), 1.0);
        assert_eq!(v[2].value(), 3.0);
    }

    #[test]
    fn matcher_is_object_safe() {
        struct Constant;
        impl Matcher for Constant {
            fn compare(&self, _: &Template, _: &Template) -> MatchScore {
                MatchScore::new(1.0)
            }
            fn name(&self) -> &str {
                "constant"
            }
        }
        let boxed: Box<dyn Matcher> = Box::new(Constant);
        let t = Template::builder(500.0).build().unwrap();
        assert_eq!(boxed.compare(&t, &t).value(), 1.0);
        assert_eq!(boxed.name(), "constant");
    }
}
