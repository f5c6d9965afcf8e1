//! Score-level fusion of diverse matchers.
//!
//! The paper's future-work list asks how *diverse matchers* affect
//! interoperability ("we especially want to explore examples where diverse
//! matchers improve the detection rates"). These are the classical fixed
//! score-fusion rules (Kittler et al.) over two matchers' scores.

use fp_core::MatchScore;

/// The fixed score-combination rule to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusionRule {
    /// Arithmetic mean of the two scores.
    Sum,
    /// The smaller score (conservative: both matchers must agree).
    Min,
    /// The larger score (liberal: either matcher suffices).
    Max,
    /// Product re-scaled by square root (geometric mean).
    Product,
}

impl FusionRule {
    /// All rules, for sweep experiments.
    pub const ALL: [FusionRule; 4] = [
        FusionRule::Sum,
        FusionRule::Min,
        FusionRule::Max,
        FusionRule::Product,
    ];

    /// Applies the rule to two scores.
    pub fn combine(&self, a: MatchScore, b: MatchScore) -> MatchScore {
        let (x, y) = (a.value(), b.value());
        let v = match self {
            FusionRule::Sum => (x + y) / 2.0,
            FusionRule::Min => x.min(y),
            FusionRule::Max => x.max(y),
            FusionRule::Product => (x * y).sqrt(),
        };
        MatchScore::new(v)
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FusionRule::Sum => "sum",
            FusionRule::Min => "min",
            FusionRule::Max => "max",
            FusionRule::Product => "product",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_combine_as_documented() {
        let a = MatchScore::new(4.0);
        let b = MatchScore::new(16.0);
        assert_eq!(FusionRule::Sum.combine(a, b).value(), 10.0);
        assert_eq!(FusionRule::Min.combine(a, b).value(), 4.0);
        assert_eq!(FusionRule::Max.combine(a, b).value(), 16.0);
        assert_eq!(FusionRule::Product.combine(a, b).value(), 8.0);
    }

    #[test]
    fn rules_are_symmetric() {
        let a = MatchScore::new(3.0);
        let b = MatchScore::new(5.0);
        for rule in FusionRule::ALL {
            assert_eq!(rule.combine(a, b), rule.combine(b, a), "{}", rule.label());
        }
    }
}
