//! # fp-synth
//!
//! Synthetic fingerprint identities ("master prints") for the
//! interoperability study.
//!
//! The DSN'13 paper collected prints from 494 human participants — data that
//! was never released. This crate substitutes a parametric generative model in
//! the spirit of SFinGe (Cappelli et al.): each `(subject, finger)` pair owns
//! a deterministic [`MasterPrint`] consisting of
//!
//! * a **pattern class** drawn from the empirical distribution of human
//!   fingerprint classes ([`pattern::PatternClass`]),
//! * a **ridge orientation field** built from the Sherlock–Monro zero-pole
//!   model (loops/whorls/tented arches) or a smooth analytic arch model
//!   ([`field::OrientationField`]),
//! * a **finger-pad region** (an ellipse with per-finger shape variation,
//!   [`region::FingerRegion`]), and
//! * a set of **master minutiae** sampled by Poisson-disc rejection inside
//!   the pad, with directions that follow the local ridge flow
//!   ([`master::MasterPrint`]).
//!
//! [`population::Population`] wraps this into a study-ready cohort with the
//! demographics reported in the paper's Figure 1.
//!
//! Everything is a pure function of a seed, so the full 494-subject cohort is
//! reproducible bit-for-bit.
//!
//! ```
//! use fp_synth::population::{Population, PopulationConfig};
//! use fp_core::ids::Finger;
//!
//! let pop = Population::generate(&PopulationConfig::new(42, 10));
//! let subject = &pop.subjects()[3];
//! let master = subject.master_print(Finger::RIGHT_INDEX);
//! assert!(master.minutiae().len() > 20);
//! ```

pub mod field;
pub mod master;
pub mod metrics;
pub mod pattern;
pub mod population;
pub mod region;

pub use master::MasterPrint;
pub use pattern::PatternClass;
pub use population::{Population, PopulationConfig, Subject};
