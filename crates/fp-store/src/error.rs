//! Typed errors for every way an on-disk gallery can be wrong.
//!
//! The decode paths never panic and never silently accept damaged bytes:
//! any byte flip, truncation, or hostile header lands in exactly one of
//! these variants. `what` names the artifact (`"segment"` or
//! `"manifest"`) so a gallery-level error message can point at the
//! offending file.

use std::fmt;

use fp_core::codec::{DecodeError, DecodeErrorKind};

/// Everything that can go wrong opening, validating, or writing a store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem-level failure (open, read, write, rename, remove).
    Io(std::io::Error),
    /// The file does not start with the expected magic.
    BadMagic {
        /// `"segment"` or `"manifest"`.
        what: &'static str,
    },
    /// The format version is newer (or older) than this build understands.
    /// Layout changes bump the version; an unknown version must never be
    /// decoded with the wrong layout.
    UnsupportedVersion {
        /// `"segment"` or `"manifest"`.
        what: &'static str,
        /// The version found in the header.
        version: u16,
    },
    /// The file ends before a declared structure does.
    Truncated {
        /// `"segment"` or `"manifest"`.
        what: &'static str,
        /// Which structure ran off the end (e.g. `"section table"`).
        context: &'static str,
    },
    /// A CRC32 over a header or section payload does not match the stored
    /// checksum — the canonical symptom of a flipped byte.
    CrcMismatch {
        /// `"segment"` or `"manifest"`.
        what: &'static str,
        /// Which checksummed region failed (e.g. `"header"`, `"tables"`).
        section: &'static str,
    },
    /// The bytes checksum fine but violate a structural invariant (bad
    /// section layout, out-of-range id, unsorted keys, non-canonical
    /// float, ...). Carries a human-readable detail.
    Corrupt {
        /// `"segment"` or `"manifest"`.
        what: &'static str,
        /// What exactly was violated.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "store i/o error: {err}"),
            StoreError::BadMagic { what } => write!(f, "{what}: bad magic"),
            StoreError::UnsupportedVersion { what, version } => {
                write!(f, "{what}: unsupported format version {version}")
            }
            StoreError::Truncated { what, context } => {
                write!(f, "{what}: truncated while reading {context}")
            }
            StoreError::CrcMismatch { what, section } => {
                write!(f, "{what}: CRC mismatch in {section}")
            }
            StoreError::Corrupt { what, detail } => write!(f, "{what}: corrupt: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> StoreError {
        StoreError::Io(err)
    }
}

impl From<DecodeError> for StoreError {
    fn from(err: DecodeError) -> StoreError {
        let DecodeError {
            what,
            context,
            kind,
        } = err;
        let detail = match kind {
            DecodeErrorKind::Truncated => return StoreError::Truncated { what, context },
            DecodeErrorKind::Overflow(v) => format!("{context} value {v} does not fit usize"),
            DecodeErrorKind::Trailing(n) => format!("{context}: {n} trailing bytes"),
        };
        StoreError::Corrupt { what, detail }
    }
}
