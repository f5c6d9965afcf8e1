//! # fp-stats
//!
//! Statistics for biometric evaluation, implemented from scratch on `std`:
//!
//! * [`summary`] — descriptive statistics and quantiles,
//! * [`histogram`] — fixed-bin histograms (the paper's Figures 2–5),
//! * [`roc`] — FMR/FNMR curves, thresholds at fixed FMR, EER (Tables 5–6),
//! * [`kendall`] — Kendall's τ-b rank correlation with log-space p-values
//!   (the paper's Table 4 needs p ≈ 1e-242, far below what naive
//!   `erfc` evaluation can produce),
//! * [`special`] — erf/erfc including asymptotic log-tail evaluation,
//! * [`bootstrap`] — percentile bootstrap confidence intervals.
//!
//! ```
//! use fp_stats::roc::ScoreSet;
//!
//! let scores = ScoreSet::new(vec![20.0, 25.0, 9.0], vec![0.5, 1.0, 2.0, 3.0]);
//! let threshold = scores.threshold_at_fmr(0.25);
//! assert!(scores.fmr_at(threshold) <= 0.25);
//! ```

pub mod bootstrap;
pub mod cmc;
pub mod histogram;
pub mod kendall;
pub mod roc;
pub mod special;
pub mod summary;
