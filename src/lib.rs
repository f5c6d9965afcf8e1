//! # fingerprint-interop
//!
//! A complete, from-scratch Rust reproduction of the measurement system behind
//! *"Interoperability in Fingerprint Recognition: A Large-Scale Empirical
//! Study"* (Lugini, Marasco, Cukic & Gashi, DSN 2013).
//!
//! The paper studied how fingerprint match scores and error rates degrade when
//! the *gallery* (enrollment) and *probe* (verification) images come from
//! different capture devices. Its pipeline — human subjects, commercial
//! sensors, the Identix BioEngine matcher, NIST NFIQ — is entirely closed, so
//! this workspace rebuilds each stage as an explicit, testable model:
//!
//! | stage | crate |
//! |-------|-------|
//! | finger identities (synthetic master prints) | [`fp_synth`] |
//! | capture devices D0–D4 and acquisition physics | [`fp_sensor`] |
//! | NFIQ-like quality levels 1–5 | [`fp_quality`] |
//! | minutiae matchers (pair-table + Hough baseline) | [`fp_match`] |
//! | 1:N candidate indexing (shortlist + exact re-rank) | [`fp_index`] |
//! | biometric statistics (FMR/FNMR, Kendall τ, bootstrap) | [`fp_stats`] |
//! | spans, counters & pipeline metrics | [`fp_telemetry`] |
//! | the study harness reproducing every table & figure | [`fp_study`] |
//!
//! This facade crate re-exports all of them so applications can depend on a
//! single package.
//!
//! ## Quickstart
//!
//! ```
//! use fingerprint_interop::prelude::*;
//!
//! // A miniature version of the paper's study: enroll with one device,
//! // verify with another, and observe the genuine score drop.
//! let config = StudyConfig::builder().subjects(8).seed(7).build();
//! let dataset = Dataset::generate(&config);
//! let matcher = PairTableMatcher::default();
//!
//! let same = dataset.genuine_score(&matcher, SubjectId(0), DeviceId(0), DeviceId(0));
//! let cross = dataset.genuine_score(&matcher, SubjectId(0), DeviceId(0), DeviceId(4));
//! assert!(same.value() >= 0.0 && cross.value() >= 0.0);
//! ```

pub use fp_core;
pub use fp_index;
pub use fp_match;
pub use fp_quality;
pub use fp_sensor;
pub use fp_stats;
pub use fp_study;
pub use fp_synth;
pub use fp_telemetry;

/// Convenience re-exports of the types used by nearly every application.
pub mod prelude {
    pub use fp_core::geometry::{Direction, Orientation, Point, Rect, RigidMotion, Vector};
    pub use fp_core::ids::{DeviceId, Digit, Finger, Hand, SessionId, SubjectId};
    pub use fp_core::minutia::{Minutia, MinutiaKind};
    pub use fp_core::template::Template;
    pub use fp_core::{MatchScore, Matcher};
    pub use fp_index::{CandidateIndex, IndexConfig};
    pub use fp_match::{HoughMatcher, PairTableMatcher};
    pub use fp_quality::{NfiqLevel, QualityAssessor};
    pub use fp_sensor::{Acquisition, Device, Impression};
    pub use fp_stats::roc::ScoreSet;
    pub use fp_study::config::StudyConfig;
    pub use fp_study::dataset::Dataset;
    pub use fp_telemetry::Telemetry;
}
