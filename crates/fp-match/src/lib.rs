//! # fp-match
//!
//! From-scratch minutiae matchers standing in for the proprietary Identix
//! BioEngine SDK used in the DSN'13 study.
//!
//! Two independent matcher families are provided:
//!
//! * [`PairTableMatcher`] — the primary matcher, in the **Bozorth3** family:
//!   rotation- and translation-invariant intra-template *pair tables*
//!   (inter-minutia distance plus the two angles each minutia direction makes
//!   with the connecting line), inter-template compatibility association,
//!   rotation-consistency clustering, and greedy extraction of a one-to-one
//!   correspondence set.
//! * [`HoughMatcher`] — a classical generalized-Hough alignment baseline:
//!   vote for the rigid transform, align, pair by nearest neighbour under
//!   tolerance.
//!
//! Raw scores are mapped onto the paper's commercial-matcher scale (impostor
//! scores essentially never above 7, genuine scores mostly well above 10) by
//! [`ScoreCalibration`]; [`fusion`] adds the multi-matcher combination rules
//! used by the paper's "diverse matchers" future-work analysis.
//!
//! ```
//! use fp_core::{Matcher, template::Template};
//! use fp_match::PairTableMatcher;
//!
//! # fn main() -> Result<(), fp_core::Error> {
//! let matcher = PairTableMatcher::default();
//! let empty = Template::builder(500.0).build()?;
//! assert_eq!(matcher.compare(&empty, &empty).value(), 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod calibrate;
pub mod fusion;
pub mod hough;
pub mod mcc;
pub mod metrics;
pub mod pairtable;

pub use calibrate::ScoreCalibration;
pub use hough::{HoughConfig, HoughMatcher};
pub use mcc::{MccConfig, MccConfigError, MccMatcher, PreparedCylinders};
pub use pairtable::{
    scan_body_name, PairFeature, PairTableConfig, PairTableConfigError, PairTableMatcher,
    PreparedPairTable,
};

use fp_core::template::Template;
use fp_core::MatchScore;

/// Matchers that can pre-process a template once and reuse the preparation
/// across many comparisons.
///
/// The study harness compares every gallery template against hundreds of
/// probes; preparing pair tables once per template cuts the dominant
/// quadratic set-up cost out of the inner loop.
pub trait PreparableMatcher: fp_core::Matcher {
    /// The pre-processed form of a template.
    type Prepared: Send + Sync;

    /// Pre-processes a template.
    fn prepare(&self, template: &Template) -> Self::Prepared;

    /// Compares two pre-processed templates; must equal
    /// `self.compare(gallery, probe)` on the originating templates.
    fn compare_prepared(&self, gallery: &Self::Prepared, probe: &Self::Prepared) -> MatchScore;
}
