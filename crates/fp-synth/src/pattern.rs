//! Fingerprint pattern classes and their empirical frequencies.

use std::fmt;

use rand::Rng;

/// The five Henry pattern classes used by essentially all fingerprint
/// taxonomies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternClass {
    /// Plain arch: ridges enter one side, rise, exit the other. No singular
    /// points.
    Arch,
    /// Tented arch: a steep arch with a core/delta pair stacked vertically.
    TentedArch,
    /// Loop whose ridges enter and exit on the left.
    LeftLoop,
    /// Loop whose ridges enter and exit on the right.
    RightLoop,
    /// Whorl: concentric ridge flow with two cores and two deltas.
    Whorl,
}

impl PatternClass {
    /// All classes, in a stable order.
    pub const ALL: [PatternClass; 5] = [
        PatternClass::Arch,
        PatternClass::TentedArch,
        PatternClass::LeftLoop,
        PatternClass::RightLoop,
        PatternClass::Whorl,
    ];

    /// Empirical class frequencies over human index fingers (Wilson et al.,
    /// NIST: arch 3.7%, tented arch 2.9%, left loop 33.8%, right loop 31.7%,
    /// whorl 27.9%).
    pub const FREQUENCIES: [f64; 5] = [0.037, 0.029, 0.338, 0.317, 0.279];

    /// Draws a pattern class from the empirical distribution.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> PatternClass {
        let idx = fp_core::dist::weighted_index(rng, &Self::FREQUENCIES)
            .expect("FREQUENCIES is a fixed valid distribution");
        Self::ALL[idx]
    }

    /// Number of core singular points for the class.
    pub fn core_count(&self) -> usize {
        match self {
            PatternClass::Arch => 0,
            PatternClass::TentedArch => 1,
            PatternClass::LeftLoop | PatternClass::RightLoop => 1,
            PatternClass::Whorl => 2,
        }
    }

    /// Number of delta singular points for the class.
    pub fn delta_count(&self) -> usize {
        match self {
            PatternClass::Arch => 0,
            PatternClass::TentedArch => 1,
            PatternClass::LeftLoop | PatternClass::RightLoop => 1,
            PatternClass::Whorl => 2,
        }
    }
}

impl fmt::Display for PatternClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PatternClass::Arch => "arch",
            PatternClass::TentedArch => "tented arch",
            PatternClass::LeftLoop => "left loop",
            PatternClass::RightLoop => "right loop",
            PatternClass::Whorl => "whorl",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_core::rng::SeedTree;
    use std::collections::HashMap;

    #[test]
    fn frequencies_sum_to_one() {
        let total: f64 = PatternClass::FREQUENCIES.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn sampling_tracks_empirical_distribution() {
        let mut rng = SeedTree::new(11).rng();
        let mut counts: HashMap<PatternClass, usize> = HashMap::new();
        let n = 40_000;
        for _ in 0..n {
            *counts.entry(PatternClass::sample(&mut rng)).or_default() += 1;
        }
        for (class, expected) in PatternClass::ALL.iter().zip(PatternClass::FREQUENCIES) {
            let observed = *counts.get(class).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.02,
                "{class}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn singularity_counts_follow_topology() {
        // Poincaré index: cores - deltas is 0 for every flat-capturable class.
        for class in PatternClass::ALL {
            assert_eq!(class.core_count(), class.delta_count(), "{class}");
        }
        assert_eq!(PatternClass::Whorl.core_count(), 2);
        assert_eq!(PatternClass::Arch.core_count(), 0);
    }
}
