//! # fp-study
//!
//! The paper library: everything needed to regenerate every table and
//! figure of *"Interoperability in Fingerprint Recognition: A Large-Scale
//! Empirical Study"* (Lugini et al., DSN 2013) on the synthetic substrate.
//!
//! * [`config::StudyConfig`] — cohort size, seed, impostor sampling, score
//!   calibration; `StudyConfig::paper_scale()` reproduces the paper's
//!   494-subject design with its exact score-set sizes (Table 3).
//! * [`dataset::Dataset`] — the captured impressions: two sessions on each
//!   of the five devices for every subject's right index finger, plus
//!   NFIQ-like quality levels.
//! * [`scores::ScoreMatrix`] — the full genuine/impostor score matrices
//!   (DMG / DDMG / DMI / DDMI in the paper's notation), computed in
//!   parallel with the pair-table matcher's prepared fast path.
//! * [`experiments`] — one module per paper artifact (Figures 1–5, Tables
//!   3–6) plus the future-work extensions (matcher diversity, habituation,
//!   FNM prediction, multi-finger fusion, score normalization, closed-set
//!   identification). Each returns a [`report::Report`].
//! * [`findings`] — the paper's findings as machine checks.
//!
//! It is not the operations harness. The smoke gates, the scaling ladder
//! and the cross-process producers (`load`, `check-kernel`, `check-store`,
//! `check-dist-trace`, `serve-shard`) are private modules of the `study`
//! binary under `src/bin/study/`, and nothing here names the serving or
//! store crates. The benchmark links this library for `study_matrix` and
//! `identify_cohort`, so what it contains changes only when the paper's
//! code does (DESIGN.md "Gates").
//!
//! The `study` binary drives everything:
//!
//! ```sh
//! cargo run --release -p fp-study --bin study -- all --subjects 150
//! cargo run --release -p fp-study --bin study -- table5 --subjects 494
//! ```

pub mod config;
pub mod dataset;
pub mod experiments;
pub mod findings;
pub mod parallel;
pub mod report;
pub mod scores;

pub use config::StudyConfig;
pub use dataset::Dataset;
pub use report::Report;
pub use scores::{GenuineScore, ScoreMatrix, StudyData};
