//! The gallery manifest: which segments are live and which entries are
//! dead.
//!
//! LSM-flavored lifecycle: segments are immutable, so mutation is
//! manifest-only. Deleting an entry appends a tombstone `(segment seq,
//! entry index)`; re-enrollment writes a *new* segment; `compact` merges
//! the survivors into one fresh segment and resets the tombstone set.
//! The manifest is rewritten atomically (`MANIFEST.tmp` + rename) so a
//! crash mid-update leaves either the old or the new view, never a torn
//! one.
//!
//! # Layout (version 1, all little-endian)
//!
//! ```text
//! magic b"FPSTMAN\0" | version u16 | reserved u16 | next_seq u32
//! segment_count u32 | tombstone_count u32
//! segments:   segment_count x { seq u32, entry_count u32 }  (seq ascending)
//! tombstones: tombstone_count x { seq u32, index u32 }      (sorted, unique)
//! crc32 over everything above
//! ```

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use fp_core::codec::{crc32, Dec, Enc};

use crate::error::StoreError;

/// Manifest file magic.
pub const MANIFEST_MAGIC: &[u8; 8] = b"FPSTMAN\0";
/// Current manifest format version.
pub const MANIFEST_VERSION: u16 = 1;
/// Manifest file name inside a gallery directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

const WHAT: &str = "manifest";

fn corrupt(detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        what: WHAT,
        detail: detail.into(),
    }
}

/// Validates a manifest image end to end (framing, CRC, ascending seqs,
/// in-range tombstones). The public fsck surface for the corruption
/// test-suite — hostile bytes must produce a typed error, never a panic.
pub fn check_manifest(bytes: &[u8]) -> Result<(), StoreError> {
    Manifest::decode(bytes).map(|_| ())
}

/// One live segment as the manifest records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Monotonic segment sequence number (also its file name).
    pub seq: u32,
    /// Entries packed in the segment (live and tombstoned alike).
    pub entry_count: u32,
}

/// The mutable root of a gallery directory.
#[derive(Debug, Clone, Default)]
pub(crate) struct Manifest {
    /// Next segment sequence number to hand out.
    pub(crate) next_seq: u32,
    /// Live segments, seq ascending.
    pub(crate) segments: Vec<SegmentMeta>,
    /// Dead entries as `(segment seq, entry index)`. A `BTreeSet` keeps
    /// them sorted and unique, which the wire layout requires.
    pub(crate) tombstones: BTreeSet<(u32, u32)>,
}

impl Manifest {
    /// File name for segment `seq` inside the gallery directory.
    pub(crate) fn segment_file(seq: u32) -> String {
        format!("seg-{seq:08}.fpseg")
    }

    pub(crate) fn segment_path(dir: &Path, seq: u32) -> PathBuf {
        dir.join(Manifest::segment_file(seq))
    }

    /// Live entries: total packed minus tombstoned.
    pub(crate) fn live_len(&self) -> usize {
        let total: u64 = self.segments.iter().map(|s| s.entry_count as u64).sum();
        total as usize - self.tombstones.len()
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.raw(MANIFEST_MAGIC);
        enc.u16(MANIFEST_VERSION);
        enc.u16(0); // reserved
        enc.u32(self.next_seq);
        enc.u32(self.segments.len() as u32);
        enc.u32(self.tombstones.len() as u32);
        for seg in &self.segments {
            enc.u32(seg.seq);
            enc.u32(seg.entry_count);
        }
        for &(seq, index) in &self.tombstones {
            enc.u32(seq);
            enc.u32(index);
        }
        enc.u32(crc32(enc.as_bytes()));
        enc.into_bytes()
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Manifest, StoreError> {
        let mut dec = Dec::new(bytes, WHAT, "header");
        if dec.bytes(8)? != MANIFEST_MAGIC {
            return Err(StoreError::BadMagic { what: WHAT });
        }
        // Version before CRC: an unsupported version should say so even
        // though its checksum (computed by a future layout) may differ.
        let version = dec.u16()?;
        if version != MANIFEST_VERSION {
            return Err(StoreError::UnsupportedVersion {
                what: WHAT,
                version,
            });
        }
        let _reserved = dec.u16()?;
        let next_seq = dec.u32()?;
        let segment_count = dec.u32()? as u64;
        let tombstone_count = dec.u32()? as u64;
        // Everything up to the trailing checksum is covered by it; nothing
        // read above is trusted until it matches.
        let records = dec.bytes(dec.remaining().saturating_sub(4))?;
        let stored = dec.u32()?;
        if crc32(&bytes[..bytes.len() - 4]) != stored {
            return Err(StoreError::CrcMismatch {
                what: WHAT,
                section: "body",
            });
        }

        let mut dec = Dec::new(records, WHAT, "segments");
        let segment_count = dec.checked_count(segment_count, 8)?;
        let mut segments = Vec::with_capacity(segment_count);
        let mut prev_seq: Option<u32> = None;
        for _ in 0..segment_count {
            let seq = dec.u32()?;
            let entry_count = dec.u32()?;
            if let Some(prev) = prev_seq {
                if seq <= prev {
                    return Err(corrupt(format!(
                        "segment seqs not strictly ascending ({prev} then {seq})"
                    )));
                }
            }
            if seq >= next_seq {
                return Err(corrupt(format!("segment seq {seq} >= next_seq {next_seq}")));
            }
            prev_seq = Some(seq);
            segments.push(SegmentMeta { seq, entry_count });
        }
        dec.at("tombstones");
        let tombstone_count = dec.checked_count(tombstone_count, 8)?;
        let mut tombstones = BTreeSet::new();
        let mut prev: Option<(u32, u32)> = None;
        for _ in 0..tombstone_count {
            let seq = dec.u32()?;
            let index = dec.u32()?;
            let stone = (seq, index);
            if let Some(p) = prev {
                if stone <= p {
                    return Err(corrupt(format!(
                        "tombstones not strictly ascending ({p:?} then {stone:?})"
                    )));
                }
            }
            let Some(seg) = segments.iter().find(|s| s.seq == seq) else {
                return Err(corrupt(format!(
                    "tombstone references unknown segment {seq}"
                )));
            };
            if index >= seg.entry_count {
                return Err(corrupt(format!(
                    "tombstone index {index} out of range for segment {seq} ({} entries)",
                    seg.entry_count
                )));
            }
            prev = Some(stone);
            tombstones.insert(stone);
        }
        dec.finish()?;

        Ok(Manifest {
            next_seq,
            segments,
            tombstones,
        })
    }

    /// Reads `dir/MANIFEST`.
    pub(crate) fn read(dir: &Path) -> Result<Manifest, StoreError> {
        let bytes = fs::read(dir.join(MANIFEST_NAME))?;
        Manifest::decode(&bytes)
    }

    /// Atomically replaces `dir/MANIFEST` (write tmp, rename over).
    pub(crate) fn save(&self, dir: &Path) -> Result<(), StoreError> {
        let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
        fs::write(&tmp, self.encode())?;
        fs::rename(&tmp, dir.join(MANIFEST_NAME))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            next_seq: 7,
            segments: vec![
                SegmentMeta {
                    seq: 2,
                    entry_count: 40,
                },
                SegmentMeta {
                    seq: 5,
                    entry_count: 12,
                },
            ],
            tombstones: [(2, 0), (2, 39), (5, 3)].into_iter().collect(),
        }
    }

    #[test]
    fn round_trips() {
        let m = sample();
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded.next_seq, m.next_seq);
        assert_eq!(decoded.segments, m.segments);
        assert_eq!(decoded.tombstones, m.tombstones);
        assert_eq!(decoded.live_len(), 40 + 12 - 3);
    }

    #[test]
    fn rejects_flips_truncation_and_hostile_references() {
        let bytes = sample().encode();
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(
                Manifest::decode(&bad).is_err(),
                "flip at {at} must not decode"
            );
        }
        for len in 0..bytes.len() {
            assert!(Manifest::decode(&bytes[..len]).is_err());
        }

        // Structurally valid encodings with hostile semantics.
        let mut m = sample();
        m.next_seq = 3; // seq 5 >= next_seq
        assert!(matches!(
            Manifest::decode(&m.encode()),
            Err(StoreError::Corrupt {
                what: "manifest",
                ..
            })
        ));

        let mut m = sample();
        m.tombstones.insert((9, 0)); // unknown segment
        assert!(Manifest::decode(&m.encode()).is_err());

        let mut m = sample();
        m.tombstones.insert((5, 12)); // index == entry_count
        assert!(Manifest::decode(&m.encode()).is_err());
    }

    #[test]
    fn save_is_atomic_rename() {
        let dir = std::env::temp_dir().join(format!("fp-store-man-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = sample();
        m.save(&dir).unwrap();
        assert!(!dir.join("MANIFEST.tmp").exists());
        let loaded = Manifest::read(&dir).unwrap();
        assert_eq!(loaded.segments, m.segments);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
