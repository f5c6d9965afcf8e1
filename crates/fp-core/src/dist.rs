//! Small, self-contained samplers for the distributions the simulation needs.
//!
//! `rand` 0.8 ships only uniform-style primitives; rather than pull in
//! `rand_distr` we implement the handful of distributions used by the
//! synthesis and sensing models. All samplers take `&mut impl Rng` so any
//! deterministic stream from [`crate::rng`] works.

use std::f64::consts::PI;

use rand::Rng;

/// Samples a standard normal deviate using the Marsaglia polar method.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = rng.gen::<f64>() * 2.0 - 1.0;
        let v = rng.gen::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Samples `N(mean, sd^2)`.
///
/// # Panics
///
/// Panics in debug builds when `sd` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    debug_assert!(sd >= 0.0, "standard deviation must be non-negative");
    mean + sd * standard_normal(rng)
}

/// Samples `N(mean, sd^2)` truncated to `[lo, hi]` by rejection, falling back
/// to clamping after 64 rejections (only relevant for pathological bounds).
pub fn truncated_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "truncation interval must be ordered");
    for _ in 0..64 {
        let x = normal(rng, mean, sd);
        if x >= lo && x <= hi {
            return x;
        }
    }
    normal(rng, mean, sd).clamp(lo, hi)
}

/// Samples from the von Mises distribution `VM(mu, kappa)` on `(-pi, pi]`
/// using the Best–Fisher (1979) rejection algorithm.
///
/// `kappa = 0` reduces to the uniform distribution on the circle; large
/// `kappa` concentrates around `mu`. Used for angular jitter of minutia
/// directions under sensor noise.
pub fn von_mises<R: Rng + ?Sized>(rng: &mut R, mu: f64, kappa: f64) -> f64 {
    debug_assert!(kappa >= 0.0, "kappa must be non-negative");
    if kappa < 1e-9 {
        return rng.gen::<f64>() * 2.0 * PI - PI;
    }
    let tau = 1.0 + (1.0 + 4.0 * kappa * kappa).sqrt();
    let rho = (tau - (2.0 * tau).sqrt()) / (2.0 * kappa);
    let r = (1.0 + rho * rho) / (2.0 * rho);
    loop {
        let u1: f64 = rng.gen();
        let z = (PI * u1).cos();
        let f = (1.0 + r * z) / (r + z);
        let c = kappa * (r - f);
        let u2: f64 = rng.gen();
        if c * (2.0 - c) - u2 > 0.0 || (c / u2).ln() + 1.0 - c >= 0.0 {
            let u3: f64 = rng.gen();
            let sign = if u3 > 0.5 { 1.0 } else { -1.0 };
            let theta = mu + sign * f.acos();
            // wrap to (-pi, pi]
            let w = theta.rem_euclid(2.0 * PI);
            return if w > PI { w - 2.0 * PI } else { w };
        }
    }
}

/// Samples a Poisson deviate.
///
/// Uses Knuth's product-of-uniforms method for `lambda < 30` and a clamped
/// normal approximation above (adequate for the minutiae-count use case).
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    debug_assert!(lambda >= 0.0, "lambda must be non-negative");
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let x = normal(rng, lambda, lambda.sqrt());
        x.max(0.0).round() as u64
    }
}

/// Draws an index from a discrete distribution given non-negative weights.
///
/// # Errors
///
/// Returns [`crate::Error`] when `weights` is empty, contains a negative or
/// non-finite entry, or sums to zero.
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> crate::Result<usize> {
    if weights.is_empty() {
        return Err(crate::Error::empty("weights"));
    }
    let mut total = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w < 0.0 {
            return Err(crate::Error::invalid(
                "weights",
                format!("weight {i} is {w}; weights must be finite and non-negative"),
            ));
        }
        total += w;
    }
    if total <= 0.0 {
        return Err(crate::Error::invalid(
            "weights",
            "weights must not all be zero",
        ));
    }
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target < 0.0 {
            return Ok(i);
        }
    }
    Ok(weights.len() - 1) // floating-point leftovers land on the last bucket
}

/// Samples a point uniformly from the unit disc (rejection-free, via polar
/// coordinates with sqrt-radius correction).
pub fn unit_disc<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let r = rng.gen::<f64>().sqrt();
    let theta = rng.gen::<f64>() * 2.0 * PI;
    (r * theta.cos(), r * theta.sin())
}

/// Samples `Beta(a, b)` via the ratio of gamma deviates (Marsaglia–Tsang for
/// the gamma components). Used for skin-condition factors in `[0, 1]`.
pub fn beta<R: Rng + ?Sized>(rng: &mut R, a: f64, b: f64) -> f64 {
    debug_assert!(a > 0.0 && b > 0.0, "beta parameters must be positive");
    let x = gamma(rng, a);
    let y = gamma(rng, b);
    if x + y == 0.0 {
        0.5
    } else {
        x / (x + y)
    }
}

/// Samples `Gamma(shape, 1)` using Marsaglia–Tsang (2000), with the boosting
/// trick for `shape < 1`.
pub fn gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    debug_assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) * U^{1/a}
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen();
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedTree;

    fn rng() -> crate::rng::StreamRng {
        SeedTree::new(0xD157_0001).rng()
    }

    const N: usize = 20_000;

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..N).map(|_| normal(&mut r, 2.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / N as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / N as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean = {mean}");
        assert!((var - 9.0).abs() < 0.5, "var = {var}");
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut r = rng();
        for _ in 0..2000 {
            let x = truncated_normal(&mut r, 0.0, 5.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn von_mises_concentrates_with_large_kappa() {
        let mut r = rng();
        let mu = 1.0;
        let spread: f64 = (0..2000)
            .map(|_| (von_mises(&mut r, mu, 50.0) - mu).abs())
            .sum::<f64>()
            / 2000.0;
        assert!(spread < 0.2, "spread = {spread}");
    }

    #[test]
    fn von_mises_zero_kappa_is_uniformish() {
        let mut r = rng();
        let mean: f64 = (0..N).map(|_| von_mises(&mut r, 0.0, 0.0)).sum::<f64>() / N as f64;
        assert!(mean.abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn von_mises_stays_on_circle() {
        let mut r = rng();
        for kappa in [0.0, 0.5, 4.0, 100.0] {
            for _ in 0..500 {
                let x = von_mises(&mut r, 3.0, kappa);
                assert!(x > -PI - 1e-12 && x <= PI + 1e-12, "x = {x}");
            }
        }
    }

    #[test]
    fn poisson_mean_matches_lambda() {
        let mut r = rng();
        for lambda in [0.5, 4.0, 12.0, 45.0] {
            let mean: f64 = (0..N).map(|_| poisson(&mut r, lambda) as f64).sum::<f64>() / N as f64;
            assert!(
                (mean - lambda).abs() < 0.15 * lambda.max(1.0),
                "lambda={lambda} mean={mean}"
            );
        }
    }

    #[test]
    fn weighted_index_tracks_weights() {
        let mut r = rng();
        let weights = [1.0, 3.0, 6.0];
        let mut counts = [0usize; 3];
        for _ in 0..N {
            counts[weighted_index(&mut r, &weights).unwrap()] += 1;
        }
        let f2 = counts[2] as f64 / N as f64;
        assert!((f2 - 0.6).abs() < 0.03, "f2 = {f2}");
    }

    #[test]
    fn weighted_index_validates() {
        let mut r = rng();
        assert!(weighted_index(&mut r, &[]).is_err());
        assert!(weighted_index(&mut r, &[0.0, 0.0]).is_err());
        assert!(weighted_index(&mut r, &[-1.0, 2.0]).is_err());
        assert!(weighted_index(&mut r, &[f64::NAN]).is_err());
    }

    #[test]
    fn unit_disc_stays_inside() {
        let mut r = rng();
        for _ in 0..2000 {
            let (x, y) = unit_disc(&mut r);
            assert!(x * x + y * y <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn beta_mean_is_a_over_a_plus_b() {
        let mut r = rng();
        let mean: f64 = (0..N).map(|_| beta(&mut r, 2.0, 6.0)).sum::<f64>() / N as f64;
        assert!((mean - 0.25).abs() < 0.02, "mean = {mean}");
        for _ in 0..1000 {
            let x = beta(&mut r, 0.5, 0.5);
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut r = rng();
        for shape in [0.5, 1.0, 3.0, 9.0] {
            let mean: f64 = (0..N).map(|_| gamma(&mut r, shape)).sum::<f64>() / N as f64;
            assert!(
                (mean - shape).abs() < 0.12 * shape.max(1.0),
                "shape={shape} mean={mean}"
            );
        }
    }
}
