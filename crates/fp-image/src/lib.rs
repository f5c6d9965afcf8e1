//! # fp-image
//!
//! An empty package. The raster path it held (ridge rendering and the
//! classic minutiae-extraction chain) reached no report, gate or benchmark
//! and was deleted; EXPERIMENTS.md records the one measurement it was built
//! for, the extractor row. The package stays only so that the benchmark's
//! lock file keeps its entry until the benchmark is next re-locked.
