//! Tuning parameters for the candidate index.

use fp_core::codec::{Dec, DecodeError, Enc};
use fp_match::PairTableConfig;
use fp_telemetry::{FingerprintChain, Fingerprinted};

/// Tuning parameters for [`CandidateIndex`](crate::CandidateIndex).
///
/// The defaults are tuned on the study cohort: shortlist recall stays above
/// 0.98 from hundreds to tens of thousands of gallery subjects while
/// re-ranking only a small, bounded slice of the gallery — including the
/// hostile card-scan probe device, whose impressions carry ~2.5x more
/// (mostly spurious) minutiae than their live-scan gallery mates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexConfig {
    /// Number of shortlisted candidates re-ranked exactly per search.
    /// `shortlist >= gallery size` degenerates to brute force (useful for
    /// exactness tests).
    pub shortlist: usize,
    /// Cylinder codes are kept only for this many minutiae per template
    /// (the most reliable ones). Caps the quadratic cylinder-pair cost and
    /// sheds the least trustworthy minutiae first.
    pub max_cylinders: usize,
    /// Local-similarity-sort depth: how many of the strongest per-cylinder
    /// agreements are averaged into the code-channel score. Small enough
    /// that spurious extra minutiae cannot dilute a genuine overlap, large
    /// enough that one lucky cylinder cannot carry an impostor.
    pub lss_depth: usize,
    /// Distance-bin width (mm) of the geometric hash. Chosen near the
    /// matcher's own distance tolerance so a genuine pair lands at most one
    /// bin away from its mate.
    pub distance_bin: f64,
    /// Number of angular bins per relative angle (full circle).
    pub angle_bins: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            shortlist: 48,
            max_cylinders: 24,
            lss_depth: 12,
            distance_bin: 0.5,
            angle_bins: 16,
        }
    }
}

/// A structurally invalid [`IndexConfig`], rejected before any index is
/// built from it.
///
/// Validation happens at index construction
/// ([`CandidateIndex::try_with_config`](crate::CandidateIndex::try_with_config)),
/// when `fp-serve` adopts a wire config at enroll time, and when
/// `fp-store` decodes a segment's META section, so an invalid config
/// surfaces as a typed error at the boundary instead of silently changing
/// scoring semantics — or tripping an assertion — deep in the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexConfigError {
    /// `lss_depth == 0`. The local-similarity-sort average is over the
    /// strongest `max(1, min(len_p, len_g, lss_depth))` cylinder
    /// agreements, so depth 0 would be silently clamped to 1 — reject it
    /// outright rather than let a config mean something other than what
    /// it says.
    ZeroLssDepth,
    /// `distance_bin` is zero, negative, NaN or infinite (the geometric
    /// hash divides every pair distance by it), or so fine that the bin of
    /// the longest pair the index's matcher extracts
    /// ([`PairTableConfig::max_pair_distance`]), plus one, overflows the
    /// bucket key's 21-bit distance field.
    BadDistanceBin,
    /// `angle_bins` outside `[2, MAX_ANGLE_BINS]`: one bin cannot separate
    /// directions at all, and the bucket key packs each angular bin into
    /// 21 bits.
    BadAngleBins {
        /// The rejected bin count.
        angle_bins: usize,
    },
}

/// Largest angular bin count the geometric-hash key packing supports
/// (21 bits per dimension).
const MAX_ANGLE_BINS: usize = 1 << 21;

impl std::fmt::Display for IndexConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexConfigError::ZeroLssDepth => write!(
                f,
                "lss_depth must be >= 1 (depth 0 would be silently clamped to 1)"
            ),
            IndexConfigError::BadDistanceBin => {
                write!(f, "distance_bin must be finite, positive and not too fine")
            }
            IndexConfigError::BadAngleBins { angle_bins } => {
                write!(f, "angle_bins {angle_bins} outside [2, {MAX_ANGLE_BINS}]")
            }
        }
    }
}

impl std::error::Error for IndexConfigError {}

impl IndexConfig {
    /// Checks structural validity for an index whose pair features come
    /// from a matcher configured by `pairs`. See [`IndexConfigError`] for
    /// the rules.
    pub fn validate(&self, pairs: &PairTableConfig) -> Result<(), IndexConfigError> {
        if self.lss_depth == 0 {
            return Err(IndexConfigError::ZeroLssDepth);
        }
        let longest = pairs.max_pair_distance;
        let bin = self.distance_bin;
        if !(bin.is_finite() && bin > 0.0 && longest / bin < ((1 << 21) - 1) as f64) {
            return Err(IndexConfigError::BadDistanceBin);
        }
        if !(2..=MAX_ANGLE_BINS).contains(&self.angle_bins) {
            return Err(IndexConfigError::BadAngleBins {
                angle_bins: self.angle_bins,
            });
        }
        Ok(())
    }

    /// Appends the five fields in declaration order (40 bytes; `usize`s
    /// as `u64`, `distance_bin` as raw `f64` bits). This is the one place
    /// the field order is written down: ENROLL wire frames and the
    /// segment META section both call it.
    pub fn encode(&self, enc: &mut Enc) {
        enc.u64(self.shortlist as u64);
        enc.u64(self.max_cylinders as u64);
        enc.u64(self.lss_depth as u64);
        enc.f64_bits(self.distance_bin);
        enc.u64(self.angle_bins as u64);
    }

    /// The inverse of [`encode`](Self::encode). Structure only — the
    /// result is untrusted until [`validate`](Self::validate) (or
    /// `CandidateIndex::try_with_config`) has accepted it.
    pub fn decode(dec: &mut Dec<'_>) -> Result<IndexConfig, DecodeError> {
        Ok(IndexConfig {
            shortlist: dec.usize()?,
            max_cylinders: dec.usize()?,
            lss_depth: dec.usize()?,
            distance_bin: dec.f64_bits()?,
            angle_bins: dec.usize()?,
        })
    }

    /// A config whose shortlist is scaled to the gallery: a fixed small
    /// budget for modest galleries, growing sub-linearly (~N/10, capped) for
    /// large ones so the re-rank stage stays a vanishing fraction of brute
    /// force.
    pub fn scaled(gallery_len: usize) -> IndexConfig {
        IndexConfig {
            shortlist: (gallery_len / 10).clamp(48, 128),
            ..IndexConfig::default()
        }
    }

    /// The base RUNFP chain every per-search fingerprint of a run starts
    /// from: `seed` plus this config, folded in declaration order. Two
    /// runs differing in any behavior-relevant parameter diverge before
    /// the first candidate is folded.
    pub fn fingerprint_base(&self, seed: u64) -> FingerprintChain {
        let mut chain = FingerprintChain::new(seed);
        chain.fold(self);
        chain
    }
}

impl Fingerprinted for IndexConfig {
    /// Folds every behavior-relevant field in declaration order. All five
    /// parameters change scores or shortlists, so all five are folded;
    /// `distance_bin` goes in as raw `f64` bits.
    fn fold_into(&self, chain: &mut FingerprintChain) {
        chain.fold_u64(self.shortlist as u64);
        chain.fold_u64(self.max_cylinders as u64);
        chain.fold_u64(self.lss_depth as u64);
        chain.fold_f64(self.distance_bin);
        chain.fold_u64(self.angle_bins as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Validity for the default matcher's pair features.
    fn valid(config: IndexConfig) -> Result<(), IndexConfigError> {
        config.validate(&PairTableConfig::default())
    }

    #[test]
    fn scaled_shortlist_is_clamped() {
        assert_eq!(IndexConfig::scaled(100).shortlist, 48);
        assert_eq!(IndexConfig::scaled(1_000).shortlist, 100);
        assert_eq!(IndexConfig::scaled(1_000_000).shortlist, 128);
    }

    #[test]
    fn zero_lss_depth_is_a_typed_error() {
        let bad = IndexConfig {
            lss_depth: 0,
            ..IndexConfig::default()
        };
        assert_eq!(valid(bad), Err(IndexConfigError::ZeroLssDepth));
        assert!(valid(bad).unwrap_err().to_string().contains("lss_depth"));
        assert_eq!(valid(IndexConfig::default()), Ok(()));
    }

    #[test]
    fn unhashable_geometry_is_a_typed_error() {
        let with_bin = |distance_bin| IndexConfig {
            distance_bin,
            ..IndexConfig::default()
        };
        let with_angles = |angle_bins| IndexConfig {
            angle_bins,
            ..IndexConfig::default()
        };
        // 12 mm / 2^21 puts the longest pair in bin 2^21 - 1, whose +1
        // neighbour no longer fits; a hair wider and it does.
        let wide_enough = 12.0 / f64::from((1u32 << 21) - 2);
        let just_under = 12.0 / f64::from(1u32 << 21);
        for distance_bin in [0.0, -0.5, f64::NAN, f64::INFINITY, 1e-300, just_under] {
            let err = valid(with_bin(distance_bin));
            assert_eq!(err, Err(IndexConfigError::BadDistanceBin), "{distance_bin}");
        }
        assert_eq!(valid(with_bin(wide_enough)), Ok(()));
        for angle_bins in [0, 1, MAX_ANGLE_BINS + 1] {
            let err = valid(with_angles(angle_bins));
            assert_eq!(err, Err(IndexConfigError::BadAngleBins { angle_bins }));
        }
        assert_eq!(valid(with_angles(2)), Ok(()));
        assert_eq!(valid(with_angles(MAX_ANGLE_BINS)), Ok(()));
    }

    #[test]
    fn encode_decode_round_trips_without_validating() {
        let config = IndexConfig {
            lss_depth: 0, // invalid on purpose: decode is structure-only
            distance_bin: -0.0,
            ..IndexConfig::default()
        };
        let mut enc = Enc::new();
        config.encode(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(bytes.len(), 40);
        let decoded = IndexConfig::decode(&mut Dec::new(&bytes, "frame", "config")).unwrap();
        assert_eq!(
            decoded.distance_bin.to_bits(),
            config.distance_bin.to_bits()
        );
        assert_eq!(decoded, config);
        assert!(IndexConfig::decode(&mut Dec::new(&bytes[..39], "frame", "config")).is_err());
    }
}
