//! Special functions: erf/erfc and normal tail probabilities, including
//! log-space evaluation for extreme tails.
//!
//! The Kendall tests in the paper's Table 4 have z-statistics around 33,
//! whose two-sided normal p-values (~1e-242) underflow any direct
//! `exp`-based computation path that isn't careful. We therefore expose both
//! a standard double-precision `erfc` and `ln_erfc`, the natural log of the
//! complementary error function, valid for large arguments via the
//! asymptotic series.

use std::f64::consts::PI;

/// Complementary error function, accurate to ~1.2e-7 relative error
/// (Numerical Recipes rational Chebyshev approximation), with exact values
/// at 0 and correct symmetry `erfc(-x) = 2 - erfc(x)`.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.5 * x);
    let poly = -1.26551223
        + t * (1.00002368
            + t * (0.37409196
                + t * (0.09678418
                    + t * (-0.18628806
                        + t * (0.27886807
                            + t * (-1.13520398
                                + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277))))))));
    t * (-x * x + poly).exp()
}

/// Error function, `erf(x) = 1 - erfc(x)`.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Natural logarithm of `erfc(x)`, valid for all `x` and accurate deep into
/// the tail where `erfc` itself underflows.
///
/// For `x > 8` uses the asymptotic expansion
/// `erfc(x) = exp(-x²) / (x√π) · Σ_k (-1)^k (2k-1)!! / (2x²)^k`.
pub fn ln_erfc(x: f64) -> f64 {
    if x <= 8.0 {
        let v = erfc(x);
        if v > 0.0 {
            return v.ln();
        }
    }
    // Asymptotic series; for x > 8 the first few terms give full double
    // precision of the log.
    let inv2x2 = 1.0 / (2.0 * x * x);
    let mut term = 1.0;
    let mut series = 1.0;
    for k in 1..=6u32 {
        term *= -((2 * k - 1) as f64) * inv2x2;
        series += term;
    }
    -x * x - (x * PI.sqrt()).ln() + series.ln()
}

/// Two-sided normal tail probability `P(|Z| ≥ |z|)` as a (possibly
/// underflowing) `f64`.
pub fn two_sided_p(z: f64) -> f64 {
    erfc(z.abs() / std::f64::consts::SQRT_2)
}

/// Base-10 logarithm of the two-sided normal tail probability; representable
/// even when [`two_sided_p`] underflows to zero.
pub fn two_sided_log10_p(z: f64) -> f64 {
    ln_erfc(z.abs() / std::f64::consts::SQRT_2) / std::f64::consts::LN_10
}

/// Formats a p-value given its base-10 log, matching the paper's Table 4
/// notation (e.g. `5.42e-242`). Values above 1e-3 are printed plainly.
pub fn format_p(log10_p: f64) -> String {
    if log10_p >= -3.0 {
        format!("{:.3}", 10f64.powf(log10_p))
    } else {
        let exponent = log10_p.floor();
        let mantissa = 10f64.powf(log10_p - exponent);
        format!("{:.2}e{}", mantissa, exponent as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        // Reference values from Abramowitz & Stegun tables.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.4795001),
            (1.0, 0.1572992),
            (2.0, 0.0046777),
            (3.0, 2.209e-5),
        ];
        for (x, expected) in cases {
            let got = erfc(x);
            assert!(
                (got - expected).abs() < 2e-6 * (1.0 + expected),
                "erfc({x}) = {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn erfc_symmetry() {
        for x in [0.1, 0.7, 1.5, 3.0] {
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn ln_erfc_agrees_with_erfc_in_overlap() {
        for x in [0.5, 1.0, 2.0, 4.0, 6.0, 7.9] {
            let direct = erfc(x).ln();
            let logged = ln_erfc(x);
            assert!(
                (direct - logged).abs() < 1e-5 * direct.abs().max(1.0),
                "x={x}: direct {direct}, logged {logged}"
            );
        }
    }

    #[test]
    fn ln_erfc_tracks_asymptotic_in_deep_tail() {
        // erfc(23.5) ≈ exp(-552.2)/(23.5*sqrt(pi)): check the log against the
        // leading term within the series correction.
        let x = 23.5_f64;
        let leading = -x * x - (x * PI.sqrt()).ln();
        let got = ln_erfc(x);
        assert!((got - leading).abs() < 0.01, "got {got}, leading {leading}");
    }

    #[test]
    fn paper_scale_p_value_is_reachable() {
        // z ≈ 33.2 (Kendall tau = 1 at n = 494) must give p ≈ 1e-242, the
        // magnitude on the diagonal of the paper's Table 4.
        let log10 = two_sided_log10_p(33.2);
        assert!(
            (-243.0..=-240.0).contains(&log10),
            "log10 p = {log10}, expected ≈ -242"
        );
    }

    #[test]
    fn format_p_matches_paper_notation() {
        assert_eq!(format_p(-241.266), "5.42e-242");
        assert_eq!(format_p(-0.2204), "0.602");
    }

    #[test]
    fn two_sided_p_is_consistent_with_log_version() {
        for z in [0.5, 1.0, 2.5, 5.0] {
            let p = two_sided_p(z);
            let lp = two_sided_log10_p(z);
            assert!((p.log10() - lp).abs() < 1e-5, "z={z}");
        }
    }
}
