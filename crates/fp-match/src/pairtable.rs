//! The Bozorth3-family pair-table matcher.
//!
//! ## Algorithm
//!
//! 1. **Pair tables** (per template, rotation/translation invariant): for
//!    every minutiae pair `(i, j)` with inter-point distance in
//!    `[min_pair_distance, max_pair_distance]`, record the distance `d` and
//!    the two relative angles `beta1`/`beta2` between each minutia direction
//!    and the connecting line. The table is sorted by distance.
//! 2. **Compatibility association**: a gallery pair and a probe pair are
//!    compatible when their distances agree within a (distance-dependent)
//!    tolerance and both relative angles agree within an angular tolerance.
//!    Each compatible pair supports two minutia correspondences and implies
//!    a global rotation estimate (the direction difference of corresponding
//!    minutiae).
//! 3. **Rotation clustering**: association votes are histogrammed by implied
//!    rotation; only associations within a window around the modal rotation
//!    survive. This is what crushes impostor scores — random geometry
//!    produces compatible pairs, but their implied rotations do not agree.
//! 4. **Greedy correspondence extraction**: correspondences are ranked by
//!    support (number of surviving associations that imply them) and
//!    accepted greedily under a one-to-one constraint.
//!
//! The raw score blends the number of matched minutiae with their support
//! depth. [`crate::ScoreCalibration`] then maps raw scores onto the paper's
//! commercial scale.
//!
//! ## Where a comparison's time goes
//!
//! Over the study's 494-subject matrix (seed 2013) on a 2-core 2.1 GHz
//! Xeon, one thread, `avx512bw` body, a genuine call takes about 33 µs:
//! 4 µs laying out the probe's columns, 21 µs in step 2's scan (pass 1a,
//! below: ~229 chunk tests), 3 µs in its scalar tail (pass 1b: implied
//! rotation and vote for the ~175 orientations that reach it, each one an
//! association) and 5 µs in steps 3–4 (pass 2). An impostor call takes
//! about 21 µs: 4, 15 (~77 chunk tests), 1 (~49 orientations) and 1.
//! Pass 2 counts the rotation cluster's correspondence keys
//! `(g << 16) | p` in an open-addressing table (`Support`) sized from the
//! cluster, never from the templates' minutia counts, and ranks the keys
//! with at least `min_support` votes as packed `u64`s,
//! `(u32::MAX - count) << 32 | key`, by one unstable sort: count
//! descending, then `(g, p)` ascending, the order the oracle's `HashMap`
//! and sort give.
//!
//! Step 1 (`prepare`, about 65-75 µs a template on the same host: ~35 µs
//! in the pair loop, `atan2` ~15 of them, and ~28 µs in the sort) builds
//! its entries in the thread's `Scratch` and returns an exact-capacity
//! copy. Each entry carries its minutiae's kinds as a kind-pair code,
//! `kind(i) | kind(j) << 1`, in bytes the entry's layout pads anyway. A
//! squared-distance band, widened by `2^-30` relative, skips `hypot` for
//! pairs that cannot pass the distance bounds; angles wrap without `fmod`
//! where that is bit-equal to
//! [`Direction::signed_delta`]; the sort is unstable on (total-order `d`,
//! `i`, `j`), which is the stable distance sort's order. Every stored bit
//! equals the retained `build_table_reference`'s.
//!
//! ## The association scan
//!
//! Step 2 is the largest part: two ~520-entry tables offer
//! ~22,000 entry pairs within distance tolerance, each tested in both
//! orientations. In the study's genuine calls ~375 orientations agree in
//! both angles, and ~175 of those in both minutiae's kinds as well. It
//! runs as a scan:
//!
//! * the probe's angles are laid out once per call as columns of
//!   `LANES` = 8 entries (`ProbeChunk`): `beta1`, `beta2` and the two
//!   swapped angles `wrap(beta2 + pi)`, `wrap(beta1 + pi)`, `NaN`-padded;
//!   its kind-pair codes go into a byte column beside them;
//! * both tables are sorted by distance, so the probe entries within
//!   tolerance of a gallery entry are a window whose two ends only move
//!   forward;
//! * a chunk goes through one branch-free predicate (`Scan::test_chunk`)
//!   that answers for eight probe entries at once, direct and swapped. For
//!   the angles, `ProbeChunk::close_to`: for angles in `(-pi, pi]` a
//!   difference lies in `[-2pi, 2pi]`, where `x % TAU` is `x`, so `wrap` is
//!   a conditional add and a conditional subtract with the roundings of
//!   the `rem_euclid` form it replaces — the same accept/reject decision
//!   on every pair. For the kinds, `KindKey::lanes`: the chunk's eight
//!   codes, read as one `u64`, against the gallery's code (direct) and its
//!   bit-swapped code (swapped), byte by byte, under a mask that is `0`
//!   when `require_kind_match` is off. A lane's orientation passes when
//!   both tests pass it;
//! * only chunks with a passing lane reach the scalar tail (implied
//!   rotation, vote), in the order a pair-at-a-time loop visits them, and
//!   every orientation that reaches the tail associates.
//!
//! ### Bodies
//!
//! `ScanBody::detect` picks the widest body the CPU runs by
//! `is_x86_feature_detected!` alone (there is no option; [`scan_body_name`]
//! says which):
//!
//! * `avx512bw` (`avx512f` + `avx512bw`) runs a **byte-angle prefilter**
//!   ahead of the predicate. It first writes each probe entry's angles as
//!   bytes, `q(x) = ⌊(x + pi)·256/TAU⌋ mod 256` (eight angles a step, from
//!   the chunks), and its distances as a column. Per gallery entry the window's ends advance eight
//!   distances a compare, and the window is tested 64 entries a step, from
//!   the chunk boundary at or below its start: four circular byte distances
//!   `min(a - b, b - a)` (`_mm512_sub_epi8`, `_mm512_min_epu8`) against `T`
//!   (`_mm512_cmple_epu8_mask`) — `q(beta1)` against the gallery's, and
//!   `q(beta2)`; `q(beta2)` against the gallery's `q(beta1) ^ 0x80`, and
//!   `q(beta1)` against `q(beta2) ^ 0x80` — each orientation ANDed with an
//!   exact `_mm512_cmpeq_epi8_mask` of the probe's masked kind-pair codes
//!   against the gallery's code, or its swapped code, give one `u64` of
//!   survivors. Only the chunks holding a survivor go through the chunk
//!   predicate: a study genuine call tests ~229 chunks (impostor ~77)
//!   where the other bodies test ~3,270 (~3,040). The mask intrinsic is
//!   the point: the same test as a plain-Rust 64-lane byte loop, storing a
//!   flag per lane and reading the flags back as words, runs no faster
//!   than the `f64` predicate on every chunk.
//! * `avx2` and `baseline` run the predicate on every chunk of the window:
//!   plain Rust compiled under `avx2` and at the build's baseline.
//!
//! `f64` arithmetic is the same at every width and the prefilter rejects
//! only orientations the chunk predicate rejects, so every body produces
//! the same hits; the tests hold every body the host can run bit-equal —
//! scores, association and cluster counts — to `score_tables_reference`,
//! the pair-at-a-time scoring function kept verbatim as the oracle.
//!
//! ### Why the prefilter loses no pair
//!
//! The threshold is `T = ⌊tol·256/TAU⌋ + 2`, `128` (every circular byte
//! distance) when `tol·256/TAU` is `NaN` or `>= 126`. Take a pair
//! `close_to` accepts: `|wrap(g - p)| <= tol` as computed in `f64`, with `g`
//! and `p` canonical (swapped: `p` is `wrap(beta + pi)`). In real numbers,
//! scale angles by `s = 256/TAU`, so `u = (g + pi)·s` and `v = (p + pi)·s`
//! lie in `[0, 256]` and their distance on the circle of length 256 is at
//! most `c = tol·s + δ`, where `δ` gathers the roundings of the `f64`
//! predicate, of `pi` and `TAU`, and of `wrap(beta + pi)` — a few ulps of
//! `TAU` times `s`, under `1e-12`. The bytes are `⌊u'⌋` and `⌊v'⌋` mod 256
//! for the computed `u'`, `v'`, each within `1e-13` of `u`, `v`; for reals
//! `⌊x⌋ - ⌊y⌋` is an integer within `1` of `x - y`, so the circular byte
//! distance is at most `⌈c + 2e-13⌉`. With `t` the computed `tol·s`
//! (within `1e-13` of the real product), that is at most
//! `⌈t + 2e-12⌉ <= ⌊t⌋ + 2 = T`: the `+ 2` is one step for the floors and
//! one for the roundings. The swapped side needs no third column:
//! `q(wrap(beta + pi))` is `q(beta) + 128 mod 256` up to the same
//! rounding, and `^ 0x80` adds 128 mod 256 to the gallery's byte instead,
//! which leaves every circular distance the same. A negative tolerance
//! accepts nothing, so any `T` is safe there (it saturates to `0`), and
//! `T = 128` passes every lane. The test
//! `byte_prefilter_passes_every_pair_close_to_passes` sweeps every byte
//! step's boundary, probes at `±tol` a few ulps either side, edge
//! tolerances and jittered tables.
//!
//! The kinds test needs no margin: it is an exact equality of small
//! integers, made per orientation, the same in the prefilter and in the
//! chunk predicate. A probe pair `(k, l)` agrees with a gallery pair
//! `(i, j)` directly when `kind(i) = kind(k)` and `kind(j) = kind(l)`,
//! which is `code(k, l) = code(i, j)`; swapped when `kind(i) = kind(l)`
//! and `kind(j) = kind(k)`, which is `code(k, l) = code(j, i)`, the
//! gallery's code with its two bits swapped. That is the oracle's kinds
//! test, so the scan drops exactly the orientations the oracle drops: the
//! hits keep the oracle's order, and the association list is the
//! oracle's, element for element. With `require_kind_match` off both
//! sides are masked to `0`, which is equal everywhere. The test
//! `kinds_are_tested_per_orientation_on_every_body` holds every body to
//! the oracle on pairs where only the direct orientation agrees in kinds,
//! only the swapped one, lanes of one chunk differ, or no kinds agree; a
//! mask per lane (kinds agree one way round or the other) or an unswapped
//! code fails it.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::f64::consts::{PI, TAU};

use fp_core::geometry::Direction;
use fp_core::minutia::MinutiaKind;
use fp_core::template::Template;
use fp_core::{MatchScore, Matcher};

use crate::PreparableMatcher;

/// Tuning parameters for [`PairTableMatcher`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairTableConfig {
    /// Ignore minutiae pairs closer than this (mm); very short pairs carry
    /// almost no relative-angle information.
    pub min_pair_distance: f64,
    /// Ignore minutiae pairs farther apart than this (mm); long pairs are
    /// the first casualties of nonlinear cross-device distortion and cost
    /// quadratic table space.
    pub max_pair_distance: f64,
    /// Absolute distance tolerance (mm) for pair compatibility.
    pub distance_tolerance: f64,
    /// Additional distance tolerance per mm of pair length
    /// (dimensionless); absorbs smooth relative stretch.
    pub relative_distance_tolerance: f64,
    /// Tolerance (radians) on each of the two relative angles.
    pub angle_tolerance: f64,
    /// Half-width (radians) of the rotation-consistency window around the
    /// modal rotation.
    pub rotation_window: f64,
    /// Number of rotation histogram bins over the full circle.
    pub rotation_bins: usize,
    /// Support depth at which a correspondence earns its full weight.
    pub full_support: u32,
    /// Minimum number of surviving pair associations a correspondence needs
    /// before it may be accepted; shallow accidental matches are discarded.
    pub min_support: u32,
    /// Whether pair compatibility additionally requires the minutia kinds
    /// (ending vs bifurcation) of both endpoints to agree. Cuts accidental
    /// impostor associations roughly fourfold at a modest genuine cost
    /// (extraction flips kinds on a few percent of minutiae).
    pub require_kind_match: bool,
    /// Template size (minutiae) above which the score is scaled down:
    /// large templates accumulate correspondences in proportion to their
    /// size, which would otherwise inflate both genuine and impostor scores
    /// of minutiae-rich sources such as rolled ink prints.
    pub size_cap: usize,
}

impl Default for PairTableConfig {
    fn default() -> Self {
        PairTableConfig {
            min_pair_distance: 1.5,
            max_pair_distance: 12.0,
            distance_tolerance: 0.32,
            relative_distance_tolerance: 0.010,
            angle_tolerance: 0.20,
            rotation_window: 0.17,
            rotation_bins: 48,
            full_support: 8,
            min_support: 4,
            require_kind_match: true,
            size_cap: 34,
        }
    }
}

/// A [`PairTableConfig`] the matcher cannot score with, rejected when the
/// matcher is built ([`PairTableMatcher::new`]) instead of failing at the
/// first comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairTableConfigError {
    /// `rotation_bins == 0`: every association votes into one bin of the
    /// rotation histogram, so the histogram needs at least one.
    ZeroRotationBins,
    /// `full_support == 0`: a correspondence's depth is its support over
    /// `full_support`, so every raw score would be `NaN`, which
    /// [`MatchScore::new`] silently reads as `0`.
    ZeroFullSupport,
}

impl std::fmt::Display for PairTableConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PairTableConfigError::ZeroRotationBins => {
                write!(
                    f,
                    "rotation_bins must be >= 1 (each association votes into a bin)"
                )
            }
            PairTableConfigError::ZeroFullSupport => write!(
                f,
                "full_support must be >= 1 (depth 0/0 would make every score NaN)"
            ),
        }
    }
}

impl std::error::Error for PairTableConfigError {}

impl PairTableConfig {
    /// Checks structural validity. See [`PairTableConfigError`] for the
    /// rules.
    pub fn validate(&self) -> Result<(), PairTableConfigError> {
        if self.rotation_bins == 0 {
            return Err(PairTableConfigError::ZeroRotationBins);
        }
        if self.full_support == 0 {
            return Err(PairTableConfigError::ZeroFullSupport);
        }
        Ok(())
    }
}

/// One entry of a template's pair table.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PairEntry {
    /// Inter-minutia distance (mm).
    d: f64,
    /// Angle between minutia `i`'s direction and the `i -> j` line.
    beta1: f64,
    /// Angle between minutia `j`'s direction and the `i -> j` line.
    beta2: f64,
    i: u16,
    j: u16,
    /// The kinds of minutiae `i` and `j` as one code ([`kind_code`]). It
    /// lives in the entry's padding: an entry is 32 bytes with or without
    /// it.
    kinds: u8,
}

const _: () = assert!(std::mem::size_of::<PairEntry>() == 32);

/// A minutia kind as a bit: `0` for a ridge ending, `1` for a bifurcation.
fn kind_bit(kind: MinutiaKind) -> u8 {
    match kind {
        MinutiaKind::RidgeEnding => 0,
        MinutiaKind::Bifurcation => 1,
    }
}

/// The kind-pair code of a pair whose first minutia has kind `first` and
/// second `second`: `kind(first) | kind(second) << 1`. Two pairs agree in
/// kinds, end for end, exactly when their codes are equal.
fn kind_code(first: MinutiaKind, second: MinutiaKind) -> u8 {
    kind_bit(first) | kind_bit(second) << 1
}

/// The code of the same pair traversed the other way: its two bits
/// swapped. A probe pair agrees with a gallery pair in the swapped
/// orientation exactly when its code equals the gallery's, swapped.
fn swapped_code(code: u8) -> u8 {
    (code >> 1 & 1) | (code & 1) << 1
}

/// A template pre-processed into its sorted pair table.
#[derive(Debug, Clone)]
pub struct PreparedPairTable {
    entries: Vec<PairEntry>,
    directions: Vec<Direction>,
    kinds: Vec<MinutiaKind>,
    minutia_count: usize,
}

/// The rotation/translation-invariant features of one pair-table entry,
/// exposed for geometric-hash indexing (`fp-index` quantizes these into
/// bucket keys). Same quantities the matcher itself associates on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairFeature {
    /// Inter-minutia distance (mm).
    pub d: f64,
    /// Angle between the first minutia's direction and the connecting line.
    pub beta1: f64,
    /// Angle between the second minutia's direction and the connecting line.
    pub beta2: f64,
}

impl PreparedPairTable {
    /// Number of pair-table entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (fewer than two in-range minutiae).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of minutiae in the originating template.
    pub fn minutia_count(&self) -> usize {
        self.minutia_count
    }

    /// The invariant features of every pair-table entry, in distance order.
    pub fn pair_features(&self) -> impl Iterator<Item = PairFeature> + '_ {
        self.entries.iter().map(|e| PairFeature {
            d: e.d,
            beta1: e.beta1,
            beta2: e.beta2,
        })
    }

    /// The raw fields of every pair-table entry in stored (distance)
    /// order — `(d, beta1, beta2, i, j)` — for persistence. Round-trips
    /// bit-exactly through [`from_raw_parts`](Self::from_raw_parts).
    pub fn raw_entries(&self) -> impl Iterator<Item = (f64, f64, f64, u16, u16)> + '_ {
        self.entries
            .iter()
            .map(|e| (e.d, e.beta1, e.beta2, e.i, e.j))
    }

    /// The canonical radians of every minutia direction, in minutia order
    /// (`directions.len() == minutia_count`).
    pub fn raw_directions(&self) -> impl Iterator<Item = f64> + '_ {
        self.directions.iter().map(|d| d.radians())
    }

    /// Every minutia kind, in minutia order.
    pub fn raw_kinds(&self) -> impl Iterator<Item = MinutiaKind> + '_ {
        self.kinds.iter().copied()
    }

    /// Reassembles a prepared table from its raw parts (the inverse of the
    /// `raw_*` accessors), validating every structural invariant
    /// `score_tables` relies on before constructing anything:
    ///
    /// * `directions` and `kinds` must each hold exactly `minutia_count`
    ///   values (scoring indexes both arrays by minutia id);
    /// * every entry's `i` and `j` must be `< minutia_count` (they index
    ///   `kinds`/`directions` and the one-to-one bitmaps unchecked);
    /// * every direction must already be canonical, in `(-pi, pi]` — the
    ///   value [`Direction::radians`] produces — so reconstruction is
    ///   bit-exact (re-wrapping is not);
    /// * distances must be finite and non-decreasing (the association scan
    ///   is a two-pointer walk over distance-sorted tables);
    /// * every entry's `beta1` and `beta2` must be canonical too, in
    ///   `(-pi, pi]` — all `prepare` can produce
    ///   ([`Direction::signed_delta`]) — because the scan wraps differences
    ///   of them without an `fmod`, which is exact only for differences
    ///   inside `[-2pi, 2pi]`.
    ///
    /// Violations come back as a typed description, never a panic — this
    /// is the boundary that makes hostile serialized tables safe to load.
    pub fn from_raw_parts(
        entries: Vec<(f64, f64, f64, u16, u16)>,
        directions: Vec<f64>,
        kinds: Vec<MinutiaKind>,
        minutia_count: usize,
    ) -> Result<PreparedPairTable, String> {
        if directions.len() != minutia_count {
            return Err(format!(
                "directions holds {} values for {minutia_count} minutiae",
                directions.len()
            ));
        }
        if kinds.len() != minutia_count {
            return Err(format!(
                "kinds holds {} values for {minutia_count} minutiae",
                kinds.len()
            ));
        }
        let directions = directions
            .into_iter()
            .enumerate()
            .map(|(at, radians)| {
                Direction::try_from_canonical_radians(radians)
                    .ok_or_else(|| format!("direction {at} ({radians}) is not canonical"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut prev = f64::NEG_INFINITY;
        let entries = entries
            .into_iter()
            .enumerate()
            .map(|(at, (d, beta1, beta2, i, j))| {
                if usize::from(i) >= minutia_count || usize::from(j) >= minutia_count {
                    return Err(format!(
                        "entry {at} references minutiae ({i}, {j}) of {minutia_count}"
                    ));
                }
                if !d.is_finite() || d < prev {
                    return Err(format!("entry {at} breaks the distance sort ({d})"));
                }
                prev = d;
                for (name, beta) in [("beta1", beta1), ("beta2", beta2)] {
                    if Direction::try_from_canonical_radians(beta).is_none() {
                        return Err(format!("entry {at} {name} ({beta}) is not canonical"));
                    }
                }
                Ok(PairEntry {
                    d,
                    beta1,
                    beta2,
                    i,
                    j,
                    kinds: kind_code(kinds[usize::from(i)], kinds[usize::from(j)]),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PreparedPairTable {
            entries,
            directions,
            kinds,
            minutia_count,
        })
    }
}

/// The Bozorth3-family pair-table matcher. See the module docs for the
/// algorithm.
#[derive(Debug, Clone, Default)]
pub struct PairTableMatcher {
    config: PairTableConfig,
    metrics: crate::metrics::PairTableMetrics,
}

impl PairTableMatcher {
    /// Creates a matcher with explicit tuning parameters, or says why it
    /// cannot score with them.
    pub fn new(config: PairTableConfig) -> Result<Self, PairTableConfigError> {
        config.validate()?;
        Ok(PairTableMatcher {
            config,
            metrics: Default::default(),
        })
    }

    /// Registers this matcher's work counters (comparisons, table entries,
    /// association counts, rotation-cluster sizes) on `telemetry`.
    pub fn with_telemetry(mut self, telemetry: &fp_telemetry::Telemetry) -> Self {
        self.metrics = crate::metrics::PairTableMetrics::new(telemetry);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &PairTableConfig {
        &self.config
    }

    /// Builds the template's pair table in the thread's [`Scratch`] and
    /// returns an exact-size copy, bit for bit `build_table_reference`'s
    /// (module docs). The sort is unstable on `(d, i, j)`: pairs are unique
    /// and generated in `(i, j)` order, so that is the reference's stable
    /// sort on `d`.
    fn build_table(&self, template: &Template) -> PreparedPairTable {
        let ms = template.minutiae();
        let (min, max) = (self.config.min_pair_distance, self.config.max_pair_distance);
        let (lo_sq, hi_sq) = distance_screen(min, max);
        let entries = SCRATCH.with_borrow_mut(|scratch| {
            let entries = &mut scratch.entries;
            entries.clear();
            for (i, a) in ms.iter().enumerate() {
                for (j, b) in ms.iter().enumerate().skip(i + 1) {
                    // `Point::direction_to`'s displacement.
                    let (dx, dy) = (b.pos.x - a.pos.x, b.pos.y - a.pos.y);
                    let d_sq = dx * dx + dy * dy;
                    if d_sq < lo_sq || d_sq > hi_sq {
                        continue;
                    }
                    let d = a.pos.distance(&b.pos);
                    if d < min || d > max {
                        continue;
                    }
                    let line = if dx == 0.0 && dy == 0.0 {
                        Direction::ZERO.radians()
                    } else {
                        wrap_stored(dy.atan2(dx))
                    };
                    entries.push(PairEntry {
                        d,
                        beta1: wrap_stored(a.direction.radians() - line),
                        beta2: wrap_stored(b.direction.radians() - line),
                        i: i as u16,
                        j: j as u16,
                        kinds: kind_code(a.kind, b.kind),
                    });
                }
            }
            entries.sort_unstable_by(|a, b| a.d.total_cmp(&b.d).then((a.i, a.j).cmp(&(b.i, b.j))));
            entries.to_vec()
        });
        self.metrics.table_entries.record(entries.len() as u64);
        PreparedPairTable {
            entries,
            directions: ms.iter().map(|m| m.direction).collect(),
            kinds: ms.iter().map(|m| m.kind).collect(),
            minutia_count: ms.len(),
        }
    }

    fn score_tables(&self, gallery: &PreparedPairTable, probe: &PreparedPairTable) -> MatchScore {
        self.score_with(ScanBody::detect(), gallery, probe)
    }

    fn score_with(
        &self,
        body: ScanBody,
        gallery: &PreparedPairTable,
        probe: &PreparedPairTable,
    ) -> MatchScore {
        self.metrics.comparisons.incr();
        if gallery.is_empty() || probe.is_empty() {
            return MatchScore::ZERO;
        }
        SCRATCH.with_borrow_mut(|scratch| self.score_in(scratch, body, gallery, probe))
    }

    fn score_in(
        &self,
        scratch: &mut Scratch,
        body: ScanBody,
        gallery: &PreparedPairTable,
        probe: &PreparedPairTable,
    ) -> MatchScore {
        let cfg = &self.config;
        let Scratch {
            scan,
            assocs,
            rotation_votes,
            keys,
            support,
            g_used,
            p_used,
            entries: _,
        } = scratch;

        // Pass 1a, the scan: which (gallery entry, probe entry) pairs agree
        // in distance, in both relative angles and (under
        // `require_kind_match`) in both minutiae's kinds, either way round.
        scan.load_probe(&probe.entries);
        body.run(cfg, &gallery.entries, &probe.entries, scan);

        // Pass 1b, the tail: the hits' implied rotation and vote, in
        // gallery-then-probe order, direct before swapped.
        //
        // An association is (gallery entry, probe entry, orientation flag):
        // direct maps (i->k, j->l), swapped maps (i->l, j->k) — the probe
        // pair traversed the other way flips the connecting line by pi, so
        // the relative angles swap roles and rotate by pi.
        assocs.clear();
        rotation_votes.clear();
        rotation_votes.resize(cfg.rotation_bins, 0);
        let bin_of = |rot: f64| -> usize {
            let frac = (rot + PI) / TAU;
            ((frac * cfg.rotation_bins as f64) as usize).min(cfg.rotation_bins - 1)
        };
        let mut associate = |g: &PairEntry, p_i: u16, p_j: u16| {
            let rotation = wrap(
                probe.directions[p_i as usize].radians()
                    - gallery.directions[g.i as usize].radians(),
            );
            rotation_votes[bin_of(rotation)] += 1;
            assocs.push(Assoc {
                g_i: g.i,
                g_j: g.j,
                p_i,
                p_j,
                rotation,
            });
        };
        for hit in &scan.hits {
            let g = &gallery.entries[hit.gallery];
            let mut flags = hit.flags;
            while flags != 0 {
                let lane = flags.trailing_zeros() as usize / 8;
                let lane_flags = (flags >> (8 * lane)) as u8;
                flags &= !(0xFF << (8 * lane));
                let p = &probe.entries[hit.chunk * LANES + lane];
                if lane_flags & DIRECT != 0 {
                    associate(g, p.i, p.j);
                }
                if lane_flags & SWAPPED != 0 {
                    associate(g, p.j, p.i);
                }
            }
        }
        self.metrics.associations.record(assocs.len() as u64);
        if assocs.is_empty() {
            return MatchScore::ZERO;
        }

        // Modal rotation via the vote histogram (wrap-aware pairwise sum of
        // adjacent bins smooths bin-edge splits).
        let mut best_bin = 0usize;
        let mut best_votes = 0u32;
        for b in 0..cfg.rotation_bins {
            let v = rotation_votes[b] + rotation_votes[(b + 1) % cfg.rotation_bins];
            if v > best_votes {
                best_votes = v;
                best_bin = b;
            }
        }
        let bin_width = TAU / cfg.rotation_bins as f64;
        let modal_rotation = -PI + bin_width * (best_bin as f64 + 1.0); // boundary of the smoothed pair

        // Pass 2: correspondences supported by rotation-consistent
        // associations, two keys per association. (`modal_rotation` is a
        // bin boundary, at most an ulp of `TAU` past `pi`, so the
        // difference stays in `wrap`'s domain.)
        let window = cfg.rotation_window + bin_width / 2.0;
        keys.clear();
        for a in assocs.iter() {
            if wrap(a.rotation - modal_rotation).abs() > window {
                continue;
            }
            keys.push(u32::from(a.g_i) << 16 | u32::from(a.p_i));
            keys.push(u32::from(a.g_j) << 16 | u32::from(a.p_j));
        }
        self.metrics.cluster_size.record(keys.len() as u64 / 2);
        if keys.is_empty() {
            return MatchScore::ZERO;
        }

        // Greedy one-to-one extraction by support depth. A correspondence
        // below `min_support` is never accepted, so it is never ranked.
        g_used.clear();
        g_used.resize(gallery.minutia_count, false);
        p_used.clear();
        p_used.resize(probe.minutia_count, false);
        let mut raw = 0.0;
        for &ranked in support.rank(keys, cfg.min_support) {
            let s = u32::MAX - (ranked >> 32) as u32;
            let (gi, pi) = (
                usize::from((ranked >> 16) as u16),
                usize::from(ranked as u16),
            );
            if g_used[gi] || p_used[pi] {
                continue;
            }
            g_used[gi] = true;
            p_used[pi] = true;
            let depth = (s.min(cfg.full_support) as f64) / cfg.full_support as f64;
            raw += 0.4 + 0.6 * depth;
        }
        // Size normalization (see `PairTableConfig::size_cap`).
        let smaller = gallery.minutia_count.min(probe.minutia_count);
        if smaller > cfg.size_cap {
            raw *= cfg.size_cap as f64 / smaller as f64;
        }
        MatchScore::new(raw)
    }
}

/// Wraps `x` into `(-pi, pi]`, for `x` in `[-TAU, TAU]`: every difference
/// `a - b` and every sum `a + PI` of angles in `(-pi, pi]`, rounding
/// included (`PI - (-PI + ulp)` ties to `TAU` itself).
///
/// On that domain `x % TAU == x` exactly, so `rem_euclid` — `x % TAU`, plus
/// `TAU` when negative — is the first line, and the result has the same
/// roundings as the `rem_euclid` form ([`Direction::signed_delta`] uses):
/// bit-equal everywhere but at `x == -TAU`, where this gives `+0.0` for
/// `-0.0`, which no caller can tell apart (each takes `abs` or adds to it).
/// `NaN` stays `NaN`. No `fmod` call and no branch once inlined: two
/// compares, two selects.
#[inline(always)]
fn wrap(x: f64) -> f64 {
    let r = if x < 0.0 { x + TAU } else { x };
    if r > PI {
        r - TAU
    } else {
        r
    }
}

/// [`Direction::from_radians`]'s wrap into `(-pi, pi]`, bit for bit,
/// without its `fmod`, for `x` in `[-TAU, TAU]`: `build_table`'s `atan2`
/// of a finite displacement, and differences of canonical angles. That is
/// [`wrap`] but at `-TAU`, where `rem_euclid` gives `-0.0` and `wrap`
/// gives `+0.0`: a stored angle keeps its sign bit.
#[inline(always)]
fn wrap_stored(x: f64) -> f64 {
    if x == -TAU {
        -0.0
    } else {
        wrap(x)
    }
}

/// The squared-distance band `[lo, hi]` outside which a pair's `hypot`
/// cannot lie in `[min, max]`: the bounds squared and widened by `2^-30`
/// relative, far more than the few ulps `dx*dx + dy*dy` and `hypot` can
/// differ by. A bound screens only where its square is a normal number,
/// `1e-100 ..= 1e100` (a subnormal square has no relative precision), and
/// only when `min >= 0` and both bounds are finite; otherwise the band is
/// `[0, inf]` and the exact test decides alone. A `NaN` squared distance
/// passes the band too.
fn distance_screen(min: f64, max: f64) -> (f64, f64) {
    const WIDEN: f64 = 1.0 / (1u64 << 30) as f64;
    if !(min >= 0.0 && min.is_finite() && max.is_finite()) {
        return (0.0, f64::INFINITY);
    }
    let normal = |bound: f64| (1e-100..=1e100).contains(&bound);
    let lo = if normal(min) {
        min * min * (1.0 - WIDEN)
    } else {
        0.0
    };
    let hi = if normal(max) {
        max * max * (1.0 + WIDEN)
    } else {
        f64::INFINITY
    };
    (lo, hi)
}

/// An association: gallery pair `(g_i, g_j)` onto probe minutiae
/// `(p_i, p_j)` in that order, and the rotation it implies.
struct Assoc {
    g_i: u16,
    g_j: u16,
    p_i: u16,
    p_j: u16,
    rotation: f64,
}

/// Probe entries per step of the association scan: the `f64` lanes of one
/// 512-bit vector. Fixed, not the slice length: a loop over a ~42-entry
/// window leaves the compiler a scalar remainder nearly as long as the
/// window.
const LANES: usize = 8;

/// [`LANES`] consecutive probe entries' angles as columns: `beta1` and
/// `beta2` for the direct orientation, `swap1 = wrap(beta2 + pi)` and
/// `swap2 = wrap(beta1 + pi)` for the swapped one — computed once per call
/// here, not once per entry pair. Lanes past the probe's last entry hold
/// `NaN`, which fails every comparison.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct ProbeChunk {
    beta1: [f64; LANES],
    beta2: [f64; LANES],
    swap1: [f64; LANES],
    swap2: [f64; LANES],
}

impl ProbeChunk {
    /// Which lanes agree with a gallery entry's `(beta1, beta2)` within
    /// `tol` on both angles: `flags[lane]` gets [`DIRECT`] and/or
    /// [`SWAPPED`]. This is the oracle's `angles_close(g.beta, p.beta)`
    /// four times over, eight probe entries at a time with no branch.
    ///
    /// The result goes to memory, a byte per lane, because that is the
    /// form the compiler vectorises whole: eight adjacent byte stores seed
    /// one eight-wide tree. Folded into a bitmask in registers instead
    /// (`mask |= hit << lane`), the same source compiles to two-, four-
    /// and one-lane fragments and runs no faster than scalar code.
    #[inline(always)]
    fn close_to(&self, beta1: f64, beta2: f64, tol: f64, flags: &mut [u8; LANES]) {
        #[inline(always)]
        fn off(g: f64, p: &[f64; LANES]) -> [f64; LANES] {
            p.map(|p| wrap(g - p).abs())
        }
        let (direct1, direct2) = (off(beta1, &self.beta1), off(beta2, &self.beta2));
        let (swapped1, swapped2) = (off(beta1, &self.swap1), off(beta2, &self.swap2));
        for lane in 0..LANES {
            let direct = (direct1[lane] <= tol) & (direct2[lane] <= tol);
            let swapped = (swapped1[lane] <= tol) & (swapped2[lane] <= tol);
            flags[lane] = (u8::from(direct) * DIRECT) | (u8::from(swapped) * SWAPPED);
        }
    }
}

/// Flag of a lane whose probe entry agrees as `(i->k, j->l)`.
const DIRECT: u8 = 1;
/// Flag of a lane whose probe entry agrees as `(i->l, j->k)`.
const SWAPPED: u8 = 2;

/// A step of the scan in which some lane passed: gallery entry `gallery`
/// against probe entries `chunk * LANES + lane`, for each lane whose byte
/// of `flags` (little-endian) is non-zero.
#[derive(Debug, PartialEq, Eq)]
struct ChunkHit {
    gallery: usize,
    chunk: usize,
    flags: u64,
}

/// The bytes of a chunk's flag word for lanes `first..end`.
#[inline(always)]
fn lane_bytes(first: usize, end: usize) -> u64 {
    let below = |lane: usize| match lane {
        LANES.. => u64::MAX,
        _ => (1 << (8 * lane)) - 1,
    };
    below(end) & !below(first)
}

/// Probe entries per step of the byte prefilter: the `u8` lanes of one
/// 512-bit vector, and the padding `load_columns` puts after each byte
/// column so a step that starts inside the probe reads inside the column.
const BYTE_LANES: usize = 64;

/// Byte angles per radian.
const BYTE_SCALE: f64 = 256.0 / TAU;

/// A canonical angle as a byte: `q(x) = ⌊(x + pi)·256/TAU⌋ mod 256`, the
/// 256th of the circle it falls in. (`x + pi` is in `[0, TAU]`, so the
/// conversion truncates a value in `[0, 256]`, and `as u8` takes it mod
/// 256.)
#[inline(always)]
fn byte_angle(x: f64) -> u8 {
    ((x + PI) * BYTE_SCALE) as u32 as u8
}

/// The prefilter's threshold for angle tolerance `tol`:
/// `T = ⌊tol·256/TAU⌋ + 2`; `128`, the largest circular byte distance (so
/// every lane passes), when `tol·256/TAU` is `NaN` or `>= 126`; `0` when
/// it is below `-2` (a negative tolerance accepts no pair). See the module
/// docs for why `T` never rejects a pair [`ProbeChunk::close_to`] accepts.
fn byte_tolerance(tol: f64) -> u8 {
    let t = (tol * BYTE_SCALE).floor() + 2.0;
    if t.is_nan() || t >= 128.0 {
        128
    } else {
        t as u8
    }
}

/// A gallery entry's angles as the byte prefilter tests them: `direct`
/// against the probe's `(q(beta1), q(beta2))`, `swapped` against
/// `(q(beta2), q(beta1))`. A probe entry's swapped angle
/// `wrap(beta + pi)` is half a turn from `beta`, which in bytes is
/// `q(beta) ^ 0x80`; the half turn is added on the gallery side instead,
/// so the probe needs one byte column per angle.
#[derive(Debug)]
struct ByteKey {
    direct: [u8; 2],
    swapped: [u8; 2],
}

impl ByteKey {
    #[inline(always)]
    fn of(beta1: f64, beta2: f64) -> ByteKey {
        let direct = [byte_angle(beta1), byte_angle(beta2)];
        ByteKey {
            direct,
            swapped: direct.map(|q| q ^ 0x80),
        }
    }
}

/// A gallery entry's kind-pair code as the chunk predicate tests it: a
/// probe lane agrees in the direct orientation when its code equals
/// `direct`, in the swapped one when it equals `swapped` (the gallery's code
/// with its bits swapped), both under `mask`. The mask is `0b11` when the
/// configuration requires kinds to match and `0` (every lane agrees) when
/// it does not. Each field holds its byte once per lane of a [`LANES`]
/// chunk, so it also broadcasts to the 64 lanes of a prefilter step.
#[derive(Debug, Clone, Copy)]
struct KindKey {
    mask: u64,
    direct: u64,
    swapped: u64,
}

/// A `u64` with each byte `1`.
const BYTE_ONES: u64 = 0x0101_0101_0101_0101;

impl KindKey {
    #[inline(always)]
    fn of(cfg: &PairTableConfig, code: u8) -> KindKey {
        let mask = if cfg.require_kind_match { 0b11 } else { 0 };
        KindKey {
            mask: BYTE_ONES * u64::from(mask),
            direct: BYTE_ONES * u64::from(code & mask),
            swapped: BYTE_ONES * u64::from(swapped_code(code) & mask),
        }
    }

    /// Which lanes of a chunk agree in kinds, as a flag word: byte `lane`
    /// of `codes` is probe entry `lane`'s code, and byte `lane` of the
    /// result holds [`DIRECT`] and/or [`SWAPPED`] for the orientations it
    /// agrees in. A masked byte differs from the key's by at most `3`, so
    /// adding `0x7F` sets the byte's top bit exactly when they differ, and
    /// no carry leaves the byte.
    #[inline(always)]
    fn lanes(self, codes: u64) -> u64 {
        let codes = codes & self.mask;
        let agree = |key: u64| !((codes ^ key) + BYTE_ONES * 0x7F) & (BYTE_ONES * 0x80);
        (agree(self.direct) >> 7) | (agree(self.swapped) >> 6)
    }
}

/// The association scan's working set.
#[derive(Default)]
struct Scan {
    /// The probe table's angles, rebuilt per call by
    /// [`load_probe`](Self::load_probe).
    chunks: Vec<ProbeChunk>,
    /// The probe's distances and [`LANES`] `NaN`s, rebuilt per call by
    /// the `avx512bw` body (`load_columns`).
    distances: Vec<f64>,
    /// The probe's `q(beta1)` and `q(beta2)` ([`byte_angle`]), one byte per
    /// entry and [`BYTE_LANES`] bytes of padding, rebuilt with `distances`.
    bytes: [Vec<u8>; 2],
    /// The probe's kind-pair codes, one byte per entry and [`BYTE_LANES`]
    /// zero bytes of padding, rebuilt per call with `chunks`:
    /// [`test_chunk`](Self::test_chunk) reads a chunk's as one word, the
    /// `avx512bw` body 64 at a time.
    kinds: Vec<u8>,
    /// Where [`ProbeChunk::close_to`] leaves one step's flags.
    flags: [u8; LANES],
    /// The steps in which some lane passed, in scan order.
    hits: Vec<ChunkHit>,
}

impl Scan {
    /// Sets `chunks` to the probe table's angle columns, `NaN`-padding
    /// the last chunk, and `kinds` to its kind-pair codes, and empties
    /// `hits`.
    fn load_probe(&mut self, probe: &[PairEntry]) {
        self.hits.clear();
        self.kinds.clear();
        self.kinds.extend(probe.iter().map(|p| p.kinds));
        self.kinds.extend([0; BYTE_LANES]);
        self.chunks.clear();
        self.chunks.extend(probe.chunks(LANES).map(|entries| {
            let (mut beta1, mut beta2) = ([f64::NAN; LANES], [f64::NAN; LANES]);
            for (lane, p) in entries.iter().enumerate() {
                beta1[lane] = p.beta1;
                beta2[lane] = p.beta2;
            }
            ProbeChunk {
                beta1,
                beta2,
                swap1: beta2.map(|beta| wrap(beta + PI)),
                swap2: beta1.map(|beta| wrap(beta + PI)),
            }
        }));
    }

    /// The chunk predicate: tests gallery entry `g` (number `at_gallery`,
    /// kinds `kinds`) against chunk `chunk` of the probe, in angles with
    /// [`ProbeChunk::close_to`] and in kinds with [`KindKey::lanes`],
    /// orientation by orientation, and records a hit if a lane inside the
    /// distance window `[lo, hi)` passes.
    #[inline(always)]
    fn test_chunk(
        &mut self,
        tol: f64,
        at_gallery: usize,
        (g, kinds): (&PairEntry, KindKey),
        chunk: usize,
        (lo, hi): (usize, usize),
    ) {
        self.chunks[chunk].close_to(g.beta1, g.beta2, tol, &mut self.flags);
        let at = chunk * LANES;
        let mut codes = [0; LANES];
        codes.copy_from_slice(&self.kinds[at..at + LANES]);
        let lanes = u64::from_le_bytes(self.flags) & kinds.lanes(u64::from_le_bytes(codes));
        if lanes == 0 {
            return;
        }
        // Lanes of this chunk outside `[lo, hi)` are out of distance
        // tolerance, whatever their angles and kinds say.
        let lanes = lanes & lane_bytes(lo.saturating_sub(at), hi - at);
        if lanes != 0 {
            self.hits.push(ChunkHit {
                gallery: at_gallery,
                chunk,
                flags: lanes,
            });
        }
    }
}

/// What one comparison or one table build would otherwise allocate, kept
/// per thread. Tens of KB. Long-lived threads (`ScoreMatrix::compute_with`'s
/// workers, the shard pool) grow it once; `CandidateIndex::rerank` runs its
/// helper lanes on threads spawned per search, so each helper's first
/// comparison grows a fresh one, once per lane and search. On a 2-core
/// 2.1 GHz Xeon a warm call of 30 against 50 minutiae (378 x 931 entries,
/// `avx512bw` body) took 20-36 µs and a first call on a fresh thread
/// 25-38 µs: the growth is lost in the host's noise.
#[derive(Default)]
struct Scratch {
    scan: Scan,
    assocs: Vec<Assoc>,
    rotation_votes: Vec<u32>,
    /// Pass 2's correspondence keys `(g << 16) | p`, two per association
    /// in the rotation cluster.
    keys: Vec<u32>,
    support: Support,
    g_used: Vec<bool>,
    p_used: Vec<bool>,
    /// `build_table`'s pair entries before the exact-size copy it returns.
    entries: Vec<PairEntry>,
}

/// Pass 2's counter: how many of the cluster's keys name each
/// correspondence, in an open-addressing table (linear probing) with at
/// least twice as many slots as keys offered. Its size follows the
/// cluster, never the templates' minutia counts, so a table that declares
/// 65,535 minutiae costs nothing extra here.
#[derive(Default)]
struct Support {
    /// `count << 32 | key`; `0` is an empty slot (a counted key has
    /// `count >= 1`).
    slots: Vec<u64>,
    /// The ranked correspondences, `(u32::MAX - count) << 32 | key`.
    ranked: Vec<u64>,
}

impl Support {
    /// Counts `keys` and returns the keys counted at least `min_support`
    /// times as `(u32::MAX - count) << 32 | key`, ascending: count
    /// descending, then key ascending, which is `(g, p)` ascending. Keys
    /// are unique, so the order is total.
    fn rank(&mut self, keys: &[u32], min_support: u32) -> &[u64] {
        let bits = (2 * keys.len()).next_power_of_two().trailing_zeros();
        let mask = (1usize << bits) - 1;
        self.slots.clear();
        self.slots.resize(mask + 1, 0);
        for &key in keys {
            // Fibonacci hashing: the product's top `bits` bits.
            let mut at =
                (u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize;
            loop {
                let slot = &mut self.slots[at];
                if *slot == 0 {
                    *slot = 1 << 32 | u64::from(key);
                    break;
                }
                if *slot as u32 == key {
                    *slot += 1 << 32;
                    break;
                }
                at = (at + 1) & mask;
            }
        }
        self.ranked.clear();
        self.ranked.extend(self.slots.iter().filter_map(|&slot| {
            let count = (slot >> 32) as u32;
            (slot != 0 && count >= min_support)
                .then(|| u64::from(u32::MAX - count) << 32 | (slot & 0xFFFF_FFFF))
        }));
        self.ranked.sort_unstable();
        &self.ranked
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::default();
}

/// The association scan's bodies, widest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanBody {
    /// The byte prefilter, 64 probe entries per instruction, then the exact
    /// predicate on the chunks it leaves.
    Avx512Bw,
    /// The exact predicate on every chunk of the window, four probe
    /// entries per instruction.
    Avx2,
    /// The same at the build's baseline features (two on x86-64: SSE2).
    Baseline,
}

impl ScanBody {
    const ALL: [ScanBody; 3] = [ScanBody::Avx512Bw, ScanBody::Avx2, ScanBody::Baseline];

    /// Whether this CPU can run the body.
    fn runs_here(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            ScanBody::Avx512Bw => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            #[cfg(target_arch = "x86_64")]
            ScanBody::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            ScanBody::Baseline => true,
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every body this CPU can run, widest first.
    fn available() -> impl Iterator<Item = ScanBody> {
        ScanBody::ALL.into_iter().filter(|body| body.runs_here())
    }

    /// The body `score_tables` runs on this CPU.
    fn detect() -> ScanBody {
        ScanBody::available().next().unwrap_or(ScanBody::Baseline)
    }

    fn name(self) -> &'static str {
        match self {
            ScanBody::Avx512Bw => "avx512bw",
            ScanBody::Avx2 => "avx2",
            ScanBody::Baseline => "baseline",
        }
    }

    /// Runs the scan of `gallery` against `probe`, which `scan` has
    /// loaded, leaving the hits in `scan.hits`.
    fn run(
        self,
        cfg: &PairTableConfig,
        gallery: &[PairEntry],
        probe: &[PairEntry],
        scan: &mut Scan,
    ) {
        match self {
            #[cfg(target_arch = "x86_64")]
            ScanBody::Avx512Bw => {
                // SAFETY: `runs_here` verified `avx512f` and `avx512bw`
                // before `available` or `detect` yielded this body.
                unsafe { scan_avx512bw(cfg, gallery, probe, scan) }
            }
            #[cfg(target_arch = "x86_64")]
            ScanBody::Avx2 => {
                // SAFETY: `runs_here` verified `avx2` before `available` or
                // `detect` yielded this body.
                unsafe { scan_avx2(cfg, gallery, probe, scan) }
            }
            _ => scan_body(cfg, gallery, probe, scan),
        }
    }
}

/// Name of the association-scan body [`PairTableMatcher`] runs on this
/// CPU — `"avx512bw"`, `"avx2"` or `"baseline"` — for gate reports and
/// logs, so a host that fell back to a narrower body says so.
pub fn scan_body_name() -> &'static str {
    ScanBody::detect().name()
}

/// The byte-prefiltered scan. Per gallery entry, the distance window's
/// ends advance as in [`for_each_window`], eight distances a compare
/// ([`skip_while`]); the window goes through [`ByteKey`]'s four circular
/// byte distances and [`KindKey`]'s two code compares, 64 probe entries a
/// step starting at a chunk boundary, into one `u64` of survivors; only
/// the chunks holding a survivor go through [`Scan::test_chunk`], in
/// order. The prefilter passes every orientation the chunk predicate
/// passes (module docs), so the hits are [`scan_body`]'s.
///
/// # Safety
///
/// Callers must have verified the CPU supports `avx512f` and `avx512bw`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn scan_avx512bw(
    cfg: &PairTableConfig,
    gallery: &[PairEntry],
    probe: &[PairEntry],
    scan: &mut Scan,
) {
    use std::arch::x86_64::*;

    load_columns(scan, probe);
    let limit = _mm512_set1_epi8(byte_tolerance(cfg.angle_tolerance) as i8);
    let near = |a: __m512i, b: __m512i| {
        let distance = _mm512_min_epu8(_mm512_sub_epi8(a, b), _mm512_sub_epi8(b, a));
        _mm512_cmple_epu8_mask(distance, limit)
    };
    let (mut lo, mut hi) = (0usize, 0usize);
    for (at_gallery, g) in gallery.iter().enumerate() {
        // `for_each_window`'s walk, its forward loops eight distances a
        // step.
        let tol = cfg.distance_tolerance + cfg.relative_distance_tolerance * g.d;
        let in_reach = |d: f64| d <= g.d + tol;
        lo = skip_while::<_CMP_LT_OQ>(&scan.distances, lo, g.d - tol);
        hi = skip_while::<_CMP_LE_OQ>(&scan.distances, hi.max(lo), g.d + tol);
        while hi > lo && !in_reach(scan.distances[hi - 1]) {
            hi -= 1;
        }
        if lo == hi {
            continue;
        }
        let key = ByteKey::of(g.beta1, g.beta2);
        let [g1, g2] = key.direct.map(|q| _mm512_set1_epi8(q as i8));
        let [s1, s2] = key.swapped.map(|q| _mm512_set1_epi8(q as i8));
        let kinds = KindKey::of(cfg, g.kinds);
        let [mask, direct, swapped] =
            [kinds.mask, kinds.direct, kinds.swapped].map(|word| _mm512_set1_epi64(word as i64));
        let mut at = lo / LANES * LANES;
        while at < hi {
            let (q1, q2) = (
                load_bytes(&scan.bytes[0], at),
                load_bytes(&scan.bytes[1], at),
            );
            let codes = _mm512_and_si512(load_bytes(&scan.kinds, at), mask);
            let pass = (near(q1, g1) & near(q2, g2) & _mm512_cmpeq_epi8_mask(codes, direct))
                | (near(q2, s1) & near(q1, s2) & _mm512_cmpeq_epi8_mask(codes, swapped));
            let mut survivors = pass & lane_bits(lo.saturating_sub(at), hi - at);
            while survivors != 0 {
                let chunk = (at + survivors.trailing_zeros() as usize) / LANES;
                scan.test_chunk(cfg.angle_tolerance, at_gallery, (g, kinds), chunk, (lo, hi));
                survivors &= !(0xFF << (chunk * LANES - at));
            }
            at += BYTE_LANES;
        }
    }
}

/// Sets `scan.distances` to the probe's distances and [`LANES`] `NaN`s,
/// and `scan.bytes` to the [`byte_angle`]s of the loaded chunks' `beta1`
/// and `beta2` and [`BYTE_LANES`] bytes of padding. Eight angles a step:
/// the add and multiply round as the scalar ones do, and a truncating
/// convert then a truncating narrow are `as u32 as u8` on `[0, 256]`. (A
/// pad lane's `NaN` gives byte 0, never read: it lies outside every
/// window.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn load_columns(scan: &mut Scan, probe: &[PairEntry]) {
    use std::arch::x86_64::*;

    scan.distances.clear();
    scan.distances.extend(probe.iter().map(|p| p.d));
    scan.distances.extend([f64::NAN; LANES]);
    let (pi, scale) = (_mm512_set1_pd(PI), _mm512_set1_pd(BYTE_SCALE));
    let quantise = |angles: &[f64; LANES], out: &mut [u8]| {
        // SAFETY: `angles` is 64 readable bytes; `loadu` asks no alignment.
        let x = unsafe { _mm512_loadu_pd(angles.as_ptr()) };
        let q = _mm512_cvttpd_epi32(_mm512_mul_pd(_mm512_add_pd(x, pi), scale));
        let bytes = _mm512_cvtepi32_epi8(_mm512_zextsi256_si512(q));
        out.copy_from_slice(&_mm_cvtsi128_si64(bytes).to_le_bytes());
    };
    let [bytes1, bytes2] = &mut scan.bytes;
    for column in [&mut *bytes1, &mut *bytes2] {
        column.clear();
        column.resize(probe.len() + BYTE_LANES, 0);
    }
    let bytes = bytes1
        .chunks_exact_mut(LANES)
        .zip(bytes2.chunks_exact_mut(LANES));
    for (chunk, (q1, q2)) in scan.chunks.iter().zip(bytes) {
        quantise(&chunk.beta1, q1);
        quantise(&chunk.beta2, q2);
    }
}

/// The first index from `at` on whose distance fails `d PREDICATE bound`
/// (`_CMP_LT_OQ` or `_CMP_LE_OQ`), eight distances a step. The `NaN`s
/// `load_columns` puts past the probe's end fail either compare, so this is
/// `for_each_window`'s scalar loop, `at < n` test included.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn skip_while<const PREDICATE: i32>(distances: &[f64], mut at: usize, bound: f64) -> usize {
    use std::arch::x86_64::*;

    let bound = _mm512_set1_pd(bound);
    loop {
        debug_assert!(at + LANES <= distances.len());
        // SAFETY: `at` is at most the probe's length, and `load_columns` pads
        // the distance column with `LANES` values past it, so the eight from
        // `at` are in the column; `loadu` asks no alignment.
        let d = unsafe { _mm512_loadu_pd(distances.as_ptr().add(at)) };
        let run = (!_mm512_cmp_pd_mask::<PREDICATE>(d, bound)).trailing_zeros() as usize;
        at += run;
        if run < LANES {
            return at;
        }
    }
}

/// The 64 bytes of a byte column from `at` on.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn load_bytes(column: &[u8], at: usize) -> std::arch::x86_64::__m512i {
    debug_assert!(at + BYTE_LANES <= column.len());
    // SAFETY: `at` is below the probe's length, and `load_columns` pads each
    // byte column with `BYTE_LANES` bytes past it, so the 64 bytes from
    // `at` are in the column; `loadu` asks no alignment.
    unsafe { std::arch::x86_64::_mm512_loadu_si512(column.as_ptr().add(at).cast()) }
}

/// The bits of a prefilter step's survivor word for lanes `first..end`.
#[inline(always)]
fn lane_bits(first: usize, end: usize) -> u64 {
    let below = |lane: usize| match lane {
        BYTE_LANES.. => u64::MAX,
        _ => (1 << lane) - 1,
    };
    below(end) & !below(first)
}

/// [`scan_body`] compiled with 256-bit vectors.
///
/// # Safety
///
/// Callers must have verified the CPU supports `avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_avx2(
    cfg: &PairTableConfig,
    gallery: &[PairEntry],
    probe: &[PairEntry],
    scan: &mut Scan,
) {
    scan_body(cfg, gallery, probe, scan)
}

/// The exact scan: every chunk of each distance window goes through
/// [`Scan::test_chunk`] — in gallery order, then probe order, the
/// oracle's order. Plain arithmetic on `f64`s, so every compilation
/// computes the same bits.
#[inline(always)]
fn scan_body(cfg: &PairTableConfig, gallery: &[PairEntry], probe: &[PairEntry], scan: &mut Scan) {
    for_each_window(cfg, gallery, probe, |at_gallery, g, (lo, hi)| {
        let kinds = KindKey::of(cfg, g.kinds);
        for chunk in lo / LANES..=(hi - 1) / LANES {
            scan.test_chunk(cfg.angle_tolerance, at_gallery, (g, kinds), chunk, (lo, hi));
        }
    });
}

/// Calls `visit(at, g, (lo, hi))` for each gallery entry `g` (number `at`)
/// whose distance window in `probe` is not empty. Both tables are sorted
/// by distance, so the probe entries within tolerance of a gallery entry's
/// distance are a window `[lo, hi)` whose ends only move forward as the
/// gallery entry advances.
#[inline(always)]
fn for_each_window(
    cfg: &PairTableConfig,
    gallery: &[PairEntry],
    probe: &[PairEntry],
    mut visit: impl FnMut(usize, &PairEntry, (usize, usize)),
) {
    let n = probe.len();
    let (mut lo, mut hi) = (0usize, 0usize);
    for (at_gallery, g) in gallery.iter().enumerate() {
        let tol = cfg.distance_tolerance + cfg.relative_distance_tolerance * g.d;
        let too_short = |d: f64| d < g.d - tol;
        let in_reach = |d: f64| d <= g.d + tol;
        while lo < n && too_short(probe[lo].d) {
            lo += 1;
        }
        // `hi` is the first index at or after `lo` not `in_reach`. The last
        // loop runs only under a configuration whose upper bound is not
        // monotone in `g.d` (a negative relative tolerance, a NaN), where
        // the oracle's rescan from `lo` stops early too.
        hi = hi.max(lo);
        while hi < n && in_reach(probe[hi].d) {
            hi += 1;
        }
        while hi > lo && !in_reach(probe[hi - 1].d) {
            hi -= 1;
        }
        if lo < hi {
            visit(at_gallery, g, (lo, hi));
        }
    }
}

impl Matcher for PairTableMatcher {
    fn compare(&self, gallery: &Template, probe: &Template) -> MatchScore {
        self.score_tables(&self.build_table(gallery), &self.build_table(probe))
    }

    fn name(&self) -> &str {
        "pair-table"
    }
}

impl PreparableMatcher for PairTableMatcher {
    type Prepared = PreparedPairTable;

    fn prepare(&self, template: &Template) -> PreparedPairTable {
        self.build_table(template)
    }

    fn compare_prepared(
        &self,
        gallery: &PreparedPairTable,
        probe: &PreparedPairTable,
    ) -> MatchScore {
        self.score_tables(gallery, probe)
    }
}

/// The oracle: the matcher's scoring function as it stood before the
/// association scan was vectorised — `rem_euclid` wraps, the kinds branch
/// first, one entry pair at a time, a fresh allocation for everything —
/// kept verbatim so every [`ScanBody`] is proven against it bit for bit.
#[cfg(test)]
impl PairTableMatcher {
    /// The table builder as it stood before it built in [`Scratch`] and
    /// screened on squared distances, kept verbatim as `build_table`'s
    /// oracle.
    fn build_table_reference(&self, template: &Template) -> PreparedPairTable {
        let ms = template.minutiae();
        let mut entries = Vec::new();
        for i in 0..ms.len() {
            for j in (i + 1)..ms.len() {
                let d = ms[i].pos.distance(&ms[j].pos);
                if d < self.config.min_pair_distance || d > self.config.max_pair_distance {
                    continue;
                }
                let line = ms[i].pos.direction_to(&ms[j].pos);
                let beta1 = ms[i].direction.signed_delta(line);
                let beta2 = ms[j].direction.signed_delta(line);
                entries.push(PairEntry {
                    d,
                    beta1,
                    beta2,
                    i: i as u16,
                    j: j as u16,
                    kinds: kind_code(ms[i].kind, ms[j].kind),
                });
            }
        }
        // A total order, so no input can make the sort panic; on the
        // distances of finite positions (`+0.0` and up) it is the order
        // `partial_cmp` gave, and the sort is stable, so ties keep `(i, j)`
        // order.
        entries.sort_by(|a, b| a.d.total_cmp(&b.d));
        self.metrics.table_entries.record(entries.len() as u64);
        PreparedPairTable {
            entries,
            directions: ms.iter().map(|m| m.direction).collect(),
            kinds: ms.iter().map(|m| m.kind).collect(),
            minutia_count: ms.len(),
        }
    }

    /// Wraps an angle difference into `(-pi, pi]`.
    #[inline]
    fn wrap_reference(a: f64) -> f64 {
        let r = a.rem_euclid(std::f64::consts::TAU);
        if r > std::f64::consts::PI {
            r - std::f64::consts::TAU
        } else {
            r
        }
    }

    #[inline]
    fn angles_close_reference(a: f64, b: f64, tol: f64) -> bool {
        Self::wrap_reference(a - b).abs() <= tol
    }

    fn score_tables_reference(
        &self,
        gallery: &PreparedPairTable,
        probe: &PreparedPairTable,
    ) -> MatchScore {
        self.metrics.comparisons.incr();
        if gallery.is_empty() || probe.is_empty() {
            return MatchScore::ZERO;
        }
        let cfg = &self.config;

        // Pass 1: find compatible pair associations with the two-pointer
        // distance window, clustering their implied rotations.
        //
        // An association is (gallery entry, probe entry, orientation flag):
        // direct maps (i->k, j->l), swapped maps (i->l, j->k).
        struct Assoc {
            g_i: u16,
            g_j: u16,
            p_i: u16,
            p_j: u16,
            rotation: f64,
        }
        let mut assocs: Vec<Assoc> = Vec::new();
        let mut rotation_votes = vec![0u32; cfg.rotation_bins];
        let bin_of = |rot: f64| -> usize {
            let frac = (rot + std::f64::consts::PI) / std::f64::consts::TAU;
            ((frac * cfg.rotation_bins as f64) as usize).min(cfg.rotation_bins - 1)
        };

        let mut lo = 0usize;
        for g in &gallery.entries {
            let tol = cfg.distance_tolerance + cfg.relative_distance_tolerance * g.d;
            while lo < probe.entries.len() && probe.entries[lo].d < g.d - tol {
                lo += 1;
            }
            let mut idx = lo;
            while idx < probe.entries.len() && probe.entries[idx].d <= g.d + tol {
                let p = &probe.entries[idx];
                idx += 1;
                // Direct orientation: i->k, j->l.
                let kinds_direct = !cfg.require_kind_match
                    || (gallery.kinds[g.i as usize] == probe.kinds[p.i as usize]
                        && gallery.kinds[g.j as usize] == probe.kinds[p.j as usize]);
                if kinds_direct
                    && Self::angles_close_reference(g.beta1, p.beta1, cfg.angle_tolerance)
                    && Self::angles_close_reference(g.beta2, p.beta2, cfg.angle_tolerance)
                {
                    let rotation = Self::wrap_reference(
                        probe.directions[p.i as usize].radians()
                            - gallery.directions[g.i as usize].radians(),
                    );
                    rotation_votes[bin_of(rotation)] += 1;
                    assocs.push(Assoc {
                        g_i: g.i,
                        g_j: g.j,
                        p_i: p.i,
                        p_j: p.j,
                        rotation,
                    });
                }
                // Swapped orientation: i->l, j->k (the probe pair traversed
                // the other way flips the connecting line by pi, so the
                // relative angles swap roles and rotate by pi).
                let kinds_swapped = !cfg.require_kind_match
                    || (gallery.kinds[g.i as usize] == probe.kinds[p.j as usize]
                        && gallery.kinds[g.j as usize] == probe.kinds[p.i as usize]);
                if kinds_swapped
                    && Self::angles_close_reference(
                        g.beta1,
                        Self::wrap_reference(p.beta2 + std::f64::consts::PI),
                        cfg.angle_tolerance,
                    )
                    && Self::angles_close_reference(
                        g.beta2,
                        Self::wrap_reference(p.beta1 + std::f64::consts::PI),
                        cfg.angle_tolerance,
                    )
                {
                    let rotation = Self::wrap_reference(
                        probe.directions[p.j as usize].radians()
                            - gallery.directions[g.i as usize].radians(),
                    );
                    rotation_votes[bin_of(rotation)] += 1;
                    assocs.push(Assoc {
                        g_i: g.i,
                        g_j: g.j,
                        p_i: p.j,
                        p_j: p.i,
                        rotation,
                    });
                }
            }
        }
        self.metrics.associations.record(assocs.len() as u64);
        if assocs.is_empty() {
            return MatchScore::ZERO;
        }

        // Modal rotation via the vote histogram (wrap-aware pairwise sum of
        // adjacent bins smooths bin-edge splits).
        let mut best_bin = 0usize;
        let mut best_votes = 0u32;
        for b in 0..cfg.rotation_bins {
            let v = rotation_votes[b] + rotation_votes[(b + 1) % cfg.rotation_bins];
            if v > best_votes {
                best_votes = v;
                best_bin = b;
            }
        }
        let bin_width = std::f64::consts::TAU / cfg.rotation_bins as f64;
        let modal_rotation = -std::f64::consts::PI + bin_width * (best_bin as f64 + 1.0); // boundary of the smoothed pair

        // Pass 2: correspondences supported by rotation-consistent
        // associations.
        let mut support: std::collections::HashMap<(u16, u16), u32> =
            std::collections::HashMap::new();
        let mut cluster_size = 0u64;
        for a in &assocs {
            if Self::wrap_reference(a.rotation - modal_rotation).abs()
                > cfg.rotation_window + bin_width / 2.0
            {
                continue;
            }
            cluster_size += 1;
            *support.entry((a.g_i, a.p_i)).or_insert(0) += 1;
            *support.entry((a.g_j, a.p_j)).or_insert(0) += 1;
        }
        self.metrics.cluster_size.record(cluster_size);
        if support.is_empty() {
            return MatchScore::ZERO;
        }

        // Greedy one-to-one extraction by support depth.
        let mut ranked: Vec<((u16, u16), u32)> = support.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut g_used = vec![false; gallery.minutia_count];
        let mut p_used = vec![false; probe.minutia_count];
        let mut raw = 0.0;
        for ((gi, pi), s) in ranked {
            if g_used[gi as usize] || p_used[pi as usize] {
                continue;
            }
            if s < cfg.min_support {
                continue;
            }
            g_used[gi as usize] = true;
            p_used[pi as usize] = true;
            let depth = (s.min(cfg.full_support) as f64) / cfg.full_support as f64;
            raw += 0.4 + 0.6 * depth;
        }
        // Size normalization (see `PairTableConfig::size_cap`).
        let smaller = gallery.minutia_count.min(probe.minutia_count);
        if smaller > cfg.size_cap {
            raw *= cfg.size_cap as f64 / smaller as f64;
        }
        MatchScore::new(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_core::geometry::{Point, RigidMotion, Vector};
    use fp_core::minutia::{Minutia, MinutiaKind};
    use fp_core::rng::SeedTree;
    use fp_telemetry::Telemetry;
    use proptest::prelude::*;
    use rand::Rng;

    /// A deterministic synthetic template with `n` well-spread minutiae.
    fn synthetic_template(seed: u64, n: usize) -> Template {
        let mut rng = SeedTree::new(seed).rng();
        let mut minutiae = Vec::new();
        let mut attempts = 0;
        while minutiae.len() < n && attempts < 10_000 {
            attempts += 1;
            let pos = Point::new(
                rng.gen::<f64>() * 16.0 - 8.0,
                rng.gen::<f64>() * 20.0 - 10.0,
            );
            if minutiae
                .iter()
                .any(|m: &Minutia| m.pos.distance(&pos) < 1.4)
            {
                continue;
            }
            let dir = Direction::from_radians(rng.gen::<f64>() * std::f64::consts::TAU);
            let kind = if rng.gen::<bool>() {
                MinutiaKind::RidgeEnding
            } else {
                MinutiaKind::Bifurcation
            };
            minutiae.push(Minutia::new(pos, dir, kind, 1.0));
        }
        Template::builder(500.0)
            .capture_window_mm(20.0, 24.0)
            .extend(minutiae)
            .build()
            .unwrap()
    }

    #[test]
    fn identical_templates_score_high() {
        let m = PairTableMatcher::default();
        let t = synthetic_template(1, 35);
        let s = m.compare(&t, &t).value();
        assert!(s > 20.0, "self-match score = {s}");
    }

    #[test]
    fn unrelated_templates_score_low() {
        let m = PairTableMatcher::default();
        let a = synthetic_template(2, 35);
        let b = synthetic_template(3, 35);
        let s = m.compare(&a, &b).value();
        assert!(s < 8.0, "impostor score = {s}");
    }

    #[test]
    fn score_is_invariant_under_rigid_motion() {
        let m = PairTableMatcher::default();
        let t = synthetic_template(4, 30);
        let moved = t.transformed(&RigidMotion::new(
            Direction::from_radians(0.5),
            Vector::new(4.0, -2.5),
        ));
        let self_score = m.compare(&t, &t).value();
        let moved_score = m.compare(&t, &moved).value();
        assert!(
            (self_score - moved_score).abs() < self_score * 0.15 + 1.0,
            "self {self_score} vs moved {moved_score}"
        );
    }

    #[test]
    fn empty_templates_score_zero() {
        let m = PairTableMatcher::default();
        let e = Template::builder(500.0).build().unwrap();
        let t = synthetic_template(5, 20);
        assert_eq!(m.compare(&e, &t).value(), 0.0);
        assert_eq!(m.compare(&t, &e).value(), 0.0);
        assert_eq!(m.compare(&e, &e).value(), 0.0);
    }

    #[test]
    fn prepared_path_matches_direct_path() {
        let m = PairTableMatcher::default();
        let a = synthetic_template(6, 28);
        let b = synthetic_template(7, 28);
        let pa = m.prepare(&a);
        let pb = m.prepare(&b);
        assert_eq!(m.compare(&a, &b), m.compare_prepared(&pa, &pb));
        assert_eq!(m.compare(&a, &a), m.compare_prepared(&pa, &pa));
    }

    #[test]
    fn partial_overlap_scores_between_self_and_impostor() {
        let m = PairTableMatcher::default();
        let t = synthetic_template(8, 36);
        // Keep only the lower half of the minutiae (simulates a small
        // capture window).
        let half: Vec<Minutia> = t
            .minutiae()
            .iter()
            .filter(|mi| mi.pos.y < 0.0)
            .copied()
            .collect();
        let partial = Template::builder(500.0)
            .capture_window_mm(20.0, 12.0)
            .extend(half)
            .build()
            .unwrap();
        let self_score = m.compare(&t, &t).value();
        let partial_score = m.compare(&t, &partial).value();
        let impostor = m.compare(&t, &synthetic_template(9, 36)).value();
        assert!(
            partial_score < self_score,
            "partial {partial_score} self {self_score}"
        );
        assert!(
            partial_score > impostor,
            "partial {partial_score} impostor {impostor}"
        );
    }

    #[test]
    fn jitter_degrades_score_gracefully() {
        let m = PairTableMatcher::default();
        let t = synthetic_template(10, 32);
        let mut rng = SeedTree::new(99).rng();
        let jittered: Vec<Minutia> = t
            .minutiae()
            .iter()
            .map(|mi| {
                Minutia::new(
                    Point::new(
                        mi.pos.x + fp_core::dist::normal(&mut rng, 0.0, 0.12),
                        mi.pos.y + fp_core::dist::normal(&mut rng, 0.0, 0.12),
                    ),
                    mi.direction
                        .rotated(fp_core::dist::normal(&mut rng, 0.0, 0.05)),
                    mi.kind,
                    mi.reliability,
                )
            })
            .collect();
        let jt = Template::builder(500.0)
            .capture_window_mm(20.0, 24.0)
            .extend(jittered)
            .build()
            .unwrap();
        let self_score = m.compare(&t, &t).value();
        let jitter_score = m.compare(&t, &jt).value();
        assert!(
            jitter_score > self_score * 0.5,
            "jitter {jitter_score} self {self_score}"
        );
    }

    #[test]
    fn raw_parts_round_trip_bit_exactly() {
        let m = PairTableMatcher::default();
        let table = m.prepare(&synthetic_template(12, 30));
        let rebuilt = PreparedPairTable::from_raw_parts(
            table.raw_entries().collect(),
            table.raw_directions().collect(),
            table.raw_kinds().collect(),
            table.minutia_count(),
        )
        .unwrap();
        assert_eq!(rebuilt.len(), table.len());
        assert_eq!(rebuilt.minutia_count(), table.minutia_count());
        for (a, b) in table.raw_entries().zip(rebuilt.raw_entries()) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1.to_bits(), b.1.to_bits());
            assert_eq!(a.2.to_bits(), b.2.to_bits());
            assert_eq!((a.3, a.4), (b.3, b.4));
        }
        for (a, b) in table.raw_directions().zip(rebuilt.raw_directions()) {
            assert_eq!(a.to_bits(), b.to_bits(), "directions must survive bitwise");
        }
        // The kind-pair codes are not stored: the rebuilt table derives
        // them from the kinds, and they must be the ones `prepare` made.
        let codes = |t: &PreparedPairTable| t.entries.iter().map(|e| e.kinds).collect::<Vec<_>>();
        assert_eq!(codes(&rebuilt), codes(&table));
        assert!(codes(&table).iter().any(|&c| c != codes(&table)[0]));
        // Same bytes in, same score bits out on every body, either side —
        // the property fp-store's parity gate rests on.
        let probe = m.prepare(&synthetic_template(13, 30));
        for body in ScanBody::available() {
            for (new, old) in [
                (
                    m.score_with(body, &rebuilt, &probe),
                    m.score_with(body, &table, &probe),
                ),
                (
                    m.score_with(body, &probe, &rebuilt),
                    m.score_with(body, &probe, &table),
                ),
            ] {
                assert_eq!(
                    new.value().to_bits(),
                    old.value().to_bits(),
                    "{}",
                    body.name()
                );
            }
        }
    }

    /// A star loaded through `from_raw_parts`: minutia 0 (kind `hub`,
    /// direction 0) paired with each of `spokes` (minutiae `1..`, direction
    /// 0), every pair 5 mm long with angles `(0.3, wrap(0.3 + pi))`. Two
    /// such entries agree in angles both ways round, so which orientations
    /// associate is up to the kinds alone.
    fn star(hub: MinutiaKind, spokes: &[MinutiaKind]) -> PreparedPairTable {
        let entries = (1..=spokes.len())
            .map(|spoke| (5.0, 0.3, wrap(0.3 + PI), 0, spoke as u16))
            .collect();
        let kinds: Vec<_> = std::iter::once(hub).chain(spokes.iter().copied()).collect();
        let n = kinds.len();
        PreparedPairTable::from_raw_parts(entries, vec![0.0; n], kinds, n).unwrap()
    }

    #[test]
    fn kinds_are_tested_per_orientation_on_every_body() {
        use MinutiaKind::{Bifurcation as B, RidgeEnding as E};
        // (case, gallery, probe, the oracle's associations with and
        // without `require_kind_match`). The swapped orientation maps the
        // gallery's hub onto a probe spoke and a spoke onto the hub.
        let cases = [
            (
                "only direct agrees",
                star(E, &[B; 5]),
                star(E, &[B; 5]),
                25,
                50,
            ),
            (
                "only swapped agrees",
                star(E, &[B; 5]),
                star(B, &[E; 5]),
                25,
                50,
            ),
            (
                "lanes of one chunk differ",
                star(E, &[B; 5]),
                star(E, &[B, E, B, E, B, E, B, E, B]),
                25,
                90,
            ),
            (
                "endings against bifurcations",
                star(E, &[E; 5]),
                star(B, &[B; 5]),
                0,
                50,
            ),
        ];
        let configs = [
            PairTableConfig::default(),
            PairTableConfig {
                require_kind_match: false,
                ..PairTableConfig::default()
            },
        ];
        for (case, gallery, probe, with_kinds, without_kinds) in &cases {
            for (config, expected) in configs.iter().zip([with_kinds, without_kinds]) {
                let matcher = || {
                    PairTableMatcher::new(*config)
                        .unwrap()
                        .with_telemetry(&Telemetry::enabled())
                };
                let oracle = matcher();
                let score = oracle.score_tables_reference(gallery, probe);
                let what = format!("{case}, require_kind_match {}", config.require_kind_match);
                assert_eq!(
                    oracle.metrics.associations.snapshot().sum,
                    *expected,
                    "{what}: the oracle"
                );
                for body in ScanBody::available() {
                    let m = matcher();
                    assert_eq!(
                        m.score_with(body, gallery, probe).value().to_bits(),
                        score.value().to_bits(),
                        "{what}, {} body",
                        body.name()
                    );
                    for (new, old) in [
                        (&m.metrics.associations, &oracle.metrics.associations),
                        (&m.metrics.cluster_size, &oracle.metrics.cluster_size),
                    ] {
                        assert_eq!(
                            new.snapshot(),
                            old.snapshot(),
                            "{what}, {} body",
                            body.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kind_codes_swap_end_for_end() {
        use MinutiaKind::{Bifurcation as B, RidgeEnding as E};
        for (first, second) in [(E, E), (E, B), (B, E), (B, B)] {
            assert_eq!(
                swapped_code(kind_code(first, second)),
                kind_code(second, first)
            );
        }
        assert_eq!([kind_code(E, B), kind_code(B, E)], [2, 1]);
        // Every lane of a chunk against every code, both orientations.
        for require_kind_match in [true, false] {
            let cfg = PairTableConfig {
                require_kind_match,
                ..PairTableConfig::default()
            };
            for gallery in 0..4u8 {
                let key = KindKey::of(&cfg, gallery);
                let codes: [u8; LANES] = std::array::from_fn(|lane| (lane % 4) as u8);
                let flags = key.lanes(u64::from_le_bytes(codes)).to_le_bytes();
                for (lane, &probe) in codes.iter().enumerate() {
                    let direct = !require_kind_match || probe == gallery;
                    let swapped = !require_kind_match || probe == swapped_code(gallery);
                    assert_eq!(
                        flags[lane],
                        (u8::from(direct) * DIRECT) | (u8::from(swapped) * SWAPPED),
                        "gallery {gallery}, probe {probe}, {cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn hostile_raw_parts_are_rejected_not_panicked() {
        let dirs = vec![0.0, 1.0];
        let kinds = vec![MinutiaKind::RidgeEnding, MinutiaKind::Bifurcation];
        let ok =
            |entries| PreparedPairTable::from_raw_parts(entries, dirs.clone(), kinds.clone(), 2);
        assert!(ok(vec![(2.0, 0.0, 0.0, 0, 1)]).is_ok());
        // Minutia reference out of range (would index kinds/directions OOB).
        assert!(ok(vec![(2.0, 0.0, 0.0, 0, 2)]).is_err());
        // Distance sort violated (two-pointer walk assumes sorted).
        assert!(ok(vec![(3.0, 0.0, 0.0, 0, 1), (2.0, 0.0, 0.0, 1, 0)]).is_err());
        // Non-finite distance.
        assert!(ok(vec![(f64::NAN, 0.0, 0.0, 0, 1)]).is_err());
        // Non-canonical relative angles (the scan's `wrap` is exact only on
        // differences of angles in `(-pi, pi]`); the ends of the interval.
        for beta in [f64::NAN, 4.0, -4.0, 1e300, f64::INFINITY, -PI] {
            let err = ok(vec![(2.0, beta, 0.0, 0, 1)]).unwrap_err();
            assert!(
                err.contains("beta1") && err.contains("not canonical"),
                "{err}"
            );
            let err = ok(vec![(2.0, 0.0, beta, 0, 1)]).unwrap_err();
            assert!(
                err.contains("beta2") && err.contains("not canonical"),
                "{err}"
            );
        }
        assert!(ok(vec![(2.0, PI, (-PI).next_up(), 0, 1)]).is_ok());
        // Length mismatches.
        assert!(
            PreparedPairTable::from_raw_parts(Vec::new(), dirs.clone(), kinds.clone(), 3).is_err()
        );
        assert!(PreparedPairTable::from_raw_parts(Vec::new(), vec![0.0], kinds, 2).is_err());
        // Non-canonical direction (4.0 > pi would break bit-exact storage).
        assert!(PreparedPairTable::from_raw_parts(
            Vec::new(),
            vec![0.0, 4.0],
            vec![MinutiaKind::RidgeEnding, MinutiaKind::Bifurcation],
            2
        )
        .is_err());
    }

    /// `wrap` against the `rem_euclid` form it replaced: the same bits —
    /// except at `-TAU`, the one point of the domain where `x % TAU` is not
    /// `x` (it is `-0.0`, which `rem_euclid` passes through and `wrap`
    /// returns as `+0.0`).
    fn assert_wraps_alike(x: f64) {
        let (new, old) = (wrap(x), PairTableMatcher::wrap_reference(x));
        if x == -TAU {
            assert_eq!((new, old.to_bits()), (0.0, (-0.0f64).to_bits()));
        } else {
            assert_eq!(
                new.to_bits(),
                old.to_bits(),
                "wrap({x:e}) = {new:e}, was {old:e}"
            );
        }
        assert!(new > -PI && new <= PI, "wrap({x:e}) = {new:e}");
    }

    #[test]
    fn wrap_equals_the_rem_euclid_form_on_its_domain() {
        let least = (-PI).next_up(); // the least canonical angle
        for x in [
            0.0,
            -0.0,
            PI,
            -PI,
            PI.next_up(),
            PI.next_down(),
            least,
            TAU.next_down(),
            -TAU.next_down(),
            TAU,
            -TAU,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            // Differences and `beta + PI` sums at both ends of `(-pi, pi]`.
            PI - least,
            least - PI,
            PI - PI,
            least - least,
            PI + PI,
            least + PI,
            -0.0 + PI,
        ] {
            assert_wraps_alike(x);
        }
        assert_eq!(
            PI - least,
            TAU,
            "the difference that rounds up to TAU itself"
        );
        assert!(wrap(f64::NAN).is_nan());
    }

    /// A canonical angle, the two ends of `(-pi, pi]` over-represented.
    fn canonical_angle() -> impl Strategy<Value = f64> {
        (0u8..8, -4.0..4.0f64).prop_map(|(pick, radians)| match pick {
            0 => PI,
            1 => (-PI).next_up(),
            _ => Direction::from_radians(radians).radians(),
        })
    }

    proptest! {
        #[test]
        fn wrap_equals_the_rem_euclid_form_on_canonical_differences(
            a in canonical_angle(),
            b in canonical_angle(),
        ) {
            assert_wraps_alike(a - b);
            assert_wraps_alike(a + PI);
            // What the scan compares: a gallery angle against a swapped
            // probe angle, itself a wrap.
            assert_wraps_alike(a - wrap(b + PI));
        }
    }

    /// `t` reflected in the y axis: positions and directions mirrored.
    fn mirrored(t: &Template) -> Template {
        let minutiae = t.minutiae().iter().map(|m| {
            Minutia::new(
                Point::new(-m.pos.x, m.pos.y),
                Direction::from_radians(PI - m.direction.radians()),
                m.kind,
                m.reliability,
            )
        });
        Template::builder(500.0).extend(minutiae).build().unwrap()
    }

    /// `t` with its first `extra` minutiae listed twice.
    fn with_duplicates(t: &Template, extra: usize) -> Template {
        let again = t.minutiae().iter().take(extra).copied();
        Template::builder(500.0)
            .extend(t.minutiae().iter().copied().chain(again))
            .build()
            .unwrap()
    }

    /// Template pairs covering what the scan's chunking can get wrong:
    /// every table size from empty to 60 minutiae (windows shorter than a
    /// chunk, one-entry tables, windows ending inside the NaN pad), ink-card
    /// sized 54 x 54, self-matches moved rigidly (windows full of hits),
    /// mirrored and duplicated minutiae (swapped hits, tied distances).
    fn oracle_pairs() -> Vec<(Template, Template)> {
        let mut rng = SeedTree::new(0x5CA9).rng();
        let mut pairs = Vec::new();
        for n in 0..=60 {
            let m = rng.gen_range(0..=60);
            pairs.push((
                synthetic_template(100 + n, n as usize),
                synthetic_template(200 + n, m),
            ));
        }
        for seed in 0..6 {
            pairs.push((
                synthetic_template(300 + seed, 54),
                synthetic_template(400 + seed, 54),
            ));
        }
        for (seed, n) in [(500, 2), (501, 3), (502, 5), (503, 9), (504, 30), (505, 54)] {
            let t = synthetic_template(seed, n);
            let moved = t.transformed(&RigidMotion::new(
                Direction::from_radians(rng.gen::<f64>() * TAU),
                Vector::new(3.0, -1.5),
            ));
            pairs.push((t.clone(), t.clone()));
            pairs.push((t.clone(), moved));
            pairs.push((t.clone(), mirrored(&t)));
            pairs.push((with_duplicates(&t, n / 2), t.clone()));
            pairs.push((t.clone(), with_duplicates(&t, n)));
        }
        pairs
    }

    #[test]
    fn every_scan_body_equals_the_oracle_bit_for_bit() {
        let configs = [
            PairTableConfig::default(),
            PairTableConfig {
                require_kind_match: false,
                ..PairTableConfig::default()
            },
            PairTableConfig {
                angle_tolerance: 0.45,
                distance_tolerance: 0.9,
                ..PairTableConfig::default()
            },
            // An upper distance bound that falls as the gallery distance
            // rises: the scan's window end has to move backwards.
            PairTableConfig {
                relative_distance_tolerance: -1.5,
                distance_tolerance: 14.0,
                ..PairTableConfig::default()
            },
        ]
        .into_iter()
        // Degenerate angle tolerances: each of the prefilter threshold's
        // branches (negative, `NaN`, saturated) on every body.
        .chain(
            [0.0, -0.0, -0.1, f64::NAN, PI, TAU, f64::INFINITY].map(|angle_tolerance| {
                PairTableConfig {
                    angle_tolerance,
                    ..PairTableConfig::default()
                }
            }),
        );
        let pairs = oracle_pairs();
        assert_eq!(ScanBody::available().last(), Some(ScanBody::Baseline));
        let mut associations = 0;
        for config in configs {
            let oracle = PairTableMatcher::new(config)
                .unwrap()
                .with_telemetry(&Telemetry::enabled());
            let tables: Vec<_> = pairs
                .iter()
                .map(|(g, p)| (oracle.prepare(g), oracle.prepare(p)))
                .collect();
            let expected: Vec<u64> = tables
                .iter()
                .map(|(g, p)| oracle.score_tables_reference(g, p).value().to_bits())
                .collect();
            associations += oracle.metrics.associations.snapshot().sum;
            for body in ScanBody::available() {
                let matcher = PairTableMatcher::new(config)
                    .unwrap()
                    .with_telemetry(&Telemetry::enabled());
                for (at, (g, p)) in tables.iter().enumerate() {
                    assert_eq!(
                        matcher.score_with(body, g, p).value().to_bits(),
                        expected[at],
                        "{} body, pair {at} ({} x {} entries)",
                        body.name(),
                        g.len(),
                        p.len()
                    );
                }
                // Histograms of exact values: equal sums, counts and
                // extremes over the same calls.
                for (new, old) in [
                    (&matcher.metrics.associations, &oracle.metrics.associations),
                    (&matcher.metrics.cluster_size, &oracle.metrics.cluster_size),
                ] {
                    assert_eq!(new.snapshot(), old.snapshot(), "{} body", body.name());
                }
                assert_eq!(
                    matcher.metrics.comparisons.get(),
                    oracle.metrics.comparisons.get()
                );
            }
        }
        assert!(
            associations > 10_000,
            "the pairs exercise the tail: {associations}"
        );
    }

    /// What `body` leaves in `scan.hits` for `gallery` against `probe`;
    /// asserts on the way that the `avx512bw` body's byte columns are the
    /// scalar [`byte_angle`]s.
    fn hits_of(
        body: ScanBody,
        cfg: &PairTableConfig,
        gallery: &[PairEntry],
        probe: &[PairEntry],
    ) -> Vec<ChunkHit> {
        let mut scan = Scan::default();
        scan.load_probe(probe);
        body.run(cfg, gallery, probe, &mut scan);
        if body == ScanBody::Avx512Bw {
            for (at, p) in probe.iter().enumerate() {
                assert_eq!(
                    [scan.bytes[0][at], scan.bytes[1][at]],
                    [byte_angle(p.beta1), byte_angle(p.beta2)],
                    "probe ({:e}, {:e})",
                    p.beta1,
                    p.beta2
                );
            }
        }
        scan.hits
    }

    /// Asserts that the byte prefilter passes every pair of `gallery` and
    /// `probe` entries that `close_to` passes under `tol`, direct and
    /// swapped, on the scalar byte angles (`hits_of` holds the `avx512bw`
    /// body's columns to them) and the threshold and keys that body uses;
    /// and that every body the host runs finds the baseline body's hits. Returns how many orientations `close_to`
    /// passed.
    fn assert_prefilter_is_conservative(
        tol: f64,
        gallery: &[PairEntry],
        probe: &[PairEntry],
    ) -> usize {
        let mut scan = Scan::default();
        scan.load_probe(probe);
        let limit = byte_tolerance(tol);
        let near = |a: u8, b: u8| a.wrapping_sub(b).min(b.wrapping_sub(a)) <= limit;
        let mut passed = 0;
        for g in gallery {
            let key = ByteKey::of(g.beta1, g.beta2);
            for (at, p) in probe.iter().enumerate() {
                let mut flags = [0; LANES];
                scan.chunks[at / LANES].close_to(g.beta1, g.beta2, tol, &mut flags);
                let flags = flags[at % LANES];
                let (q1, q2) = (byte_angle(p.beta1), byte_angle(p.beta2));
                let case = || {
                    format!(
                        "tol {tol:e} (T = {limit}): gallery ({:e}, {:e}) {key:?}, \
                         probe ({:e}, {:e}) = bytes ({q1}, {q2})",
                        g.beta1, g.beta2, p.beta1, p.beta2
                    )
                };
                if flags & DIRECT != 0 {
                    passed += 1;
                    assert!(
                        near(q1, key.direct[0]) && near(q2, key.direct[1]),
                        "direct pair lost: {}",
                        case()
                    );
                }
                if flags & SWAPPED != 0 {
                    passed += 1;
                    assert!(
                        near(q2, key.swapped[0]) && near(q1, key.swapped[1]),
                        "swapped pair lost: {}",
                        case()
                    );
                }
            }
        }
        let cfg = PairTableConfig {
            angle_tolerance: tol,
            ..PairTableConfig::default()
        };
        let expected = hits_of(ScanBody::Baseline, &cfg, gallery, probe);
        for body in ScanBody::available() {
            assert_eq!(
                hits_of(body, &cfg, gallery, probe),
                expected,
                "{} body, tol {tol:e}",
                body.name()
            );
        }
        passed
    }

    /// `x` moved by `ulps` representable steps.
    fn step_ulps(x: f64, ulps: i32) -> f64 {
        (0..ulps.abs()).fold(x, |x, _| if ulps > 0 { x.next_up() } else { x.next_down() })
    }

    /// A table entry at distance `d` with angles `beta1`, `beta2`.
    fn entry(d: f64, beta1: f64, beta2: f64) -> PairEntry {
        PairEntry {
            d,
            beta1,
            beta2,
            i: 0,
            j: 1,
            kinds: 0,
        }
    }

    fn is_canonical(x: f64) -> bool {
        x > -PI && x <= PI
    }

    #[test]
    fn byte_prefilter_passes_every_pair_close_to_passes() {
        // Every byte step's lower boundary `k·TAU/256 - pi`, and its
        // neighbours at one and two ulps.
        let boundaries: Vec<f64> = (0..=256)
            .flat_map(|k| {
                let x = f64::from(k) * (TAU / 256.0) - PI;
                (-2..=2).map(move |ulps| step_ulps(x, ulps))
            })
            .filter(|&x| is_canonical(x))
            .collect();
        // Tolerances at zero, a step of the byte grid either side of
        // whole steps, the default, and half a turn.
        let tolerances: Vec<f64> = [1.0, 5.0, 8.0, 13.0, 64.0]
            .into_iter()
            .flat_map(|k| {
                let t = k * (TAU / 256.0);
                [t.next_down(), t, t.next_up()]
            })
            .chain([0.0, 0.20, PI])
            .collect();
        let mut passed = 0;
        for &tol in &tolerances {
            for &g in &boundaries {
                // Probe angles at `±tol` from `g` (direct) and from `g + pi`
                // (swapped: `wrap(p + pi)` lands at `g ± tol`), a few ulps
                // either side; both angles of an entry alike, so each
                // orientation passes exactly when one angle does.
                let probe: Vec<PairEntry> = [-tol, tol]
                    .into_iter()
                    .flat_map(|off| [wrap(g + off), wrap(wrap(g + off) + PI)])
                    .flat_map(|p| (-3..=3).map(move |ulps| step_ulps(p, ulps)))
                    .filter(|&p| is_canonical(p))
                    .map(|p| entry(5.0, p, p))
                    .collect();
                passed += assert_prefilter_is_conservative(tol, &[entry(5.0, g, g)], &probe);
            }
        }
        assert!(
            passed > 100_000,
            "the edge cases reach close_to's accepts: {passed}"
        );

        // Jittered tables, after Grosz et al.: a template against itself
        // with every relative angle moved to `±tol`, a few ulps either
        // side, and against a copy with minutiae jittered in place.
        let m = PairTableMatcher::default();
        let tol = m.config().angle_tolerance;
        let mut rng = SeedTree::new(0xB17E).rng();
        for seed in 0..4 {
            let t = synthetic_template(600 + seed, 40);
            let table = m.prepare(&t);
            let edged: Vec<PairEntry> = table
                .entries
                .iter()
                .map(|e| {
                    let mut jitter = |beta: f64| {
                        let off = if rng.gen::<bool>() { tol } else { -tol };
                        let p = step_ulps(wrap(beta + off), rng.gen_range(-3..=3));
                        if is_canonical(p) {
                            p
                        } else {
                            beta
                        }
                    };
                    entry(e.d, jitter(e.beta1), jitter(e.beta2))
                })
                .collect();
            let jittered = t
                .minutiae()
                .iter()
                .map(|mi| {
                    Minutia::new(
                        Point::new(
                            mi.pos.x + fp_core::dist::normal(&mut rng, 0.0, 0.1),
                            mi.pos.y + fp_core::dist::normal(&mut rng, 0.0, 0.1),
                        ),
                        mi.direction
                            .rotated(fp_core::dist::normal(&mut rng, 0.0, 0.1)),
                        mi.kind,
                        mi.reliability,
                    )
                })
                .collect::<Vec<_>>();
            let jittered = m.prepare(&Template::builder(500.0).extend(jittered).build().unwrap());
            for probe in [&edged, &jittered.entries] {
                assert!(assert_prefilter_is_conservative(tol, &table.entries, probe) > 0);
            }
        }
    }

    #[test]
    fn byte_threshold_saturates_at_its_edges() {
        assert_eq!(byte_tolerance(0.20), 10);
        assert_eq!(byte_tolerance(0.0), 2);
        assert_eq!(byte_tolerance(-0.0), 2);
        assert_eq!(byte_tolerance(-0.1), 0);
        assert_eq!(byte_tolerance(f64::NEG_INFINITY), 0);
        // The least tolerance whose scaled value is 126.
        let mut edge = 126.0 / BYTE_SCALE;
        while edge * BYTE_SCALE < 126.0 {
            edge = edge.next_up();
        }
        for tol in [f64::NAN, PI, TAU, f64::INFINITY, edge] {
            assert_eq!(byte_tolerance(tol), 128, "{tol:e}");
        }
        assert_eq!(byte_tolerance(edge.next_down()), 127);
        assert_eq!(byte_angle(PI), 0, "pi is the circle's end, byte 256 = 0");
        assert_eq!(byte_angle((-PI).next_up()), 0);
        assert_eq!(byte_angle(0.0), 128);
    }

    #[test]
    fn zero_rotation_bins_are_rejected_at_construction() {
        let config = PairTableConfig {
            rotation_bins: 0,
            ..PairTableConfig::default()
        };
        assert_eq!(
            PairTableMatcher::new(config).unwrap_err(),
            PairTableConfigError::ZeroRotationBins
        );
        assert_eq!(
            config.validate(),
            Err(PairTableConfigError::ZeroRotationBins)
        );
        let one = PairTableConfig {
            rotation_bins: 1,
            ..PairTableConfig::default()
        };
        let m = PairTableMatcher::new(one).unwrap();
        let t = synthetic_template(1, 30);
        assert!(m.compare(&t, &t).value() > 0.0);
    }

    #[test]
    fn zero_full_support_is_rejected_at_construction() {
        let config = PairTableConfig {
            full_support: 0,
            ..PairTableConfig::default()
        };
        let err = PairTableMatcher::new(config).unwrap_err();
        assert_eq!(err, PairTableConfigError::ZeroFullSupport);
        assert!(err.to_string().contains("full_support"), "{err}");
        assert!(PairTableMatcher::new(PairTableConfig::default()).is_ok());
    }

    /// `build_table` against `build_table_reference` on `t`: every stored
    /// bit, and a table of exactly its length.
    fn assert_builds_like_the_reference(m: &PairTableMatcher, t: &Template, what: &str) {
        let (new, old) = (m.build_table(t), m.build_table_reference(t));
        let bits = |table: &PreparedPairTable| -> Vec<_> {
            table
                .entries
                .iter()
                .map(|e| {
                    (
                        e.d.to_bits(),
                        e.beta1.to_bits(),
                        e.beta2.to_bits(),
                        e.i,
                        e.j,
                    )
                })
                .collect()
        };
        assert_eq!(bits(&new), bits(&old), "{what}: {:?}", m.config());
        let directions = |table: &PreparedPairTable| -> Vec<u64> {
            table.raw_directions().map(f64::to_bits).collect()
        };
        assert_eq!(directions(&new), directions(&old), "{what}");
        assert_eq!(new.kinds, old.kinds, "{what}");
        assert_eq!(new.minutia_count, old.minutia_count, "{what}");
        assert_eq!(new.entries.capacity(), new.entries.len(), "{what}");
    }

    fn minutia(x: f64, y: f64, radians: f64) -> Minutia {
        let direction = Direction::try_from_canonical_radians(radians).expect("canonical");
        Minutia::new(Point::new(x, y), direction, MinutiaKind::RidgeEnding, 1.0)
    }

    fn template_of(minutiae: Vec<Minutia>) -> Template {
        Template::builder(500.0).extend(minutiae).build().unwrap()
    }

    fn with_bounds(min_pair_distance: f64, max_pair_distance: f64) -> PairTableMatcher {
        PairTableMatcher::new(PairTableConfig {
            min_pair_distance,
            max_pair_distance,
            ..PairTableConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn build_table_equals_the_reference_bit_for_bit() {
        use fp_core::ids::{DeviceId, Finger, SessionId};

        // Real captures: six subjects on every device, both sessions.
        let population = fp_synth::population::Population::generate(
            &fp_synth::population::PopulationConfig::new(0xB17, 6),
        );
        let protocol = fp_sensor::CaptureProtocol::new();
        let mut templates = Vec::new();
        for subject in population.subjects() {
            for device in DeviceId::ALL {
                for session in [SessionId(0), SessionId(1)] {
                    let capture = protocol.capture(subject, Finger::RIGHT_INDEX, device, session);
                    templates.push(capture.template().clone());
                }
            }
        }
        // Synthetic ones, from empty to 60 minutiae, and duplicated
        // (coincident) minutiae.
        templates.extend((0..=60).map(|n| synthetic_template(600 + n, n as usize)));
        let t = synthetic_template(700, 30);
        templates.push(with_duplicates(&t, 30));
        // A connecting line at exactly +pi (`dy = +0`, `dx < 0`) and -pi
        // (`dy = -0`), against directions at pi and -pi + ulp: `dir - line`
        // rounds to -TAU, where the stored beta is -0.0.
        let edge = (-PI).next_up();
        templates.push(template_of(vec![
            minutia(3.0, 0.0, PI),
            minutia(0.0, 0.0, edge),
            minutia(-3.0, -0.0, edge),
            minutia(0.0, -0.0, PI),
            minutia(0.0, 0.0, 0.0),
            minutia(3.0, 0.0, -0.0),
        ]));
        // Coincident minutiae with different directions.
        templates.push(template_of(vec![
            minutia(1.0, 2.0, edge),
            minutia(1.0, 2.0, PI),
            minutia(1.0, 2.0, 1.0),
        ]));

        let mut matchers = vec![PairTableMatcher::default()];
        for (min, max) in [
            (0.0, 12.0),
            (-0.0, 12.0),
            (0.0, f64::INFINITY),
            (13.0, 2.0),
            (-1.0, 12.0),
            (f64::NEG_INFINITY, 5.0),
            (f64::NAN, 12.0),
            (1.5, f64::NAN),
            (f64::NAN, f64::NAN),
            (f64::INFINITY, f64::INFINITY),
            (1e-200, 1e200),
        ] {
            matchers.push(with_bounds(min, max));
        }
        for m in &matchers {
            for (at, t) in templates.iter().enumerate() {
                assert_builds_like_the_reference(m, t, &format!("template {at}"));
            }
        }

        // The stored sign of zero at the ±pi line is what the reference
        // stores: both zeros occur.
        let signs: Vec<bool> = matchers[1]
            .build_table(&templates[templates.len() - 2])
            .entries
            .iter()
            .flat_map(|e| [e.beta1, e.beta2])
            .filter(|beta| *beta == 0.0)
            .map(f64::is_sign_negative)
            .collect();
        assert!(signs.contains(&true) && signs.contains(&false), "{signs:?}");
    }

    #[test]
    fn build_table_keeps_pairs_at_the_distance_bounds_as_the_reference_does() {
        // Pairs at exactly a bound and one ulp either side, with the bound
        // taken from a real pair's `hypot`. `tight` counts the pairs at a
        // bound whose `dx*dx + dy*dy` lies beyond the bound squared: an
        // unwidened screen would drop them.
        let t = synthetic_template(800, 40);
        let reference = PairTableMatcher::default().build_table_reference(&t);
        let ms = t.minutiae();
        let mut tight = 0;
        for e in reference.entries.iter().step_by(3) {
            let (a, b) = (ms[e.i as usize].pos, ms[e.j as usize].pos);
            let (dx, dy) = (b.x - a.x, b.y - a.y);
            let d_sq = dx * dx + dy * dy;
            tight += usize::from(d_sq > e.d * e.d) + usize::from(d_sq < e.d * e.d);
            for bound in [e.d.next_down(), e.d, e.d.next_up()] {
                for m in [with_bounds(bound, 12.0), with_bounds(1.5, bound)] {
                    assert_builds_like_the_reference(&m, &t, &format!("bound {bound:e}"));
                }
            }
        }
        assert!(tight > 0, "no pair tests the screen's widening");
    }

    #[test]
    fn table_respects_distance_limits() {
        let m = PairTableMatcher::default();
        let t = synthetic_template(11, 25);
        let table = m.prepare(&t);
        for e in &table.entries {
            assert!(e.d >= m.config().min_pair_distance);
            assert!(e.d <= m.config().max_pair_distance);
        }
    }
}
