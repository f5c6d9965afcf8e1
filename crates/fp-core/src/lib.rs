//! # fp-core
//!
//! Shared vocabulary for the fingerprint-interoperability study: geometry in
//! physical units, angular arithmetic, minutiae and templates, identifier
//! newtypes, deterministic random-number utilities, the [`Matcher`]
//! abstraction implemented by the matching crates, and the byte [`codec`]
//! (little-endian cursors + CRC32) under every wire and on-disk format.
//!
//! Everything downstream (synthesis, sensing, matching, statistics, the study
//! harness) is built on the types defined here, so this crate is deliberately
//! dependency-light and heavily validated.
//!
//! ## Coordinate conventions
//!
//! * Physical positions are expressed in **millimetres** in a finger-centred
//!   frame: the origin is the centre of the finger pad, `+x` points toward the
//!   right edge of the finger, `+y` toward the fingertip.
//! * **Directions** (minutia orientation, ridge tangents pointing a specific
//!   way) live on the circle `(-pi, pi]` — see [`geometry::Direction`].
//! * **Orientations** (undirected ridge flow) live on the half-circle
//!   `[0, pi)` — see [`geometry::Orientation`].
//!
//! ## Example
//!
//! ```
//! use fp_core::geometry::{Direction, Point};
//! use fp_core::minutia::{Minutia, MinutiaKind};
//! use fp_core::template::Template;
//!
//! # fn main() -> Result<(), fp_core::Error> {
//! let m = Minutia::new(
//!     Point::new(1.5, -2.0),
//!     Direction::from_radians(0.7),
//!     MinutiaKind::RidgeEnding,
//!     0.9,
//! );
//! let template = Template::builder(500.0)
//!     .capture_window_mm(20.0, 25.0)
//!     .push(m)
//!     .build()?;
//! assert_eq!(template.len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod codec;
pub mod dist;
pub mod error;
pub mod geometry;
pub mod ids;
pub mod matcher;
pub mod minutia;
pub mod rng;
pub mod template;

pub use error::Error;
pub use matcher::{MatchScore, Matcher};

/// Crate-wide result alias.
pub type Result<T, E = Error> = std::result::Result<T, E>;
