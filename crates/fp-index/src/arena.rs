//! Structure-of-arrays code arena: the stage-1 slab and its kernel.
//!
//! [`CodeArena`] holds every enrolled entry's packed cylinder codes as one
//! structure of arrays, and this module is the only code that knows how
//! that slab is laid out or how it is scored:
//!
//! * `words`  — every entry's cylinder words, entry-major then
//!   cylinder-major, one contiguous little-endian `u64` slab of exactly
//!   [`LANE_WORDS`] words a cylinder;
//! * `ones`   — the per-cylinder set-bit counts, in the same order;
//! * `spans`  — per-entry `(off, cylinders)`: the entry's first cylinder,
//!   which is its index into `ones` and, times [`LANE_WORDS`], into
//!   `words`.
//!
//! Entries go in through [`CodeArena::push`] / [`CodeArena::push_view`]
//! or, from persisted bytes, through the validating
//! [`CodeArena::from_raw_parts`], and come out as [`CodeView`]s
//! ([`CodeArena::entry`]). `fp-store` saves, reopens, compacts and deals
//! arenas through those alone; it never computes an offset into the slab.
//!
//! [`CodeArena::score_into`] is one pass over the entries in order, cut
//! into runs of 64 entries that one lane per core takes as it goes
//! (`crate::lanes`; an entry's score depends on no other entry, so the cut
//! changes no bit). Every non-empty entry runs the **lane body**: every
//! code is [`LANE_WORDS`] wide by type (`CylinderCodes::extract` packs the
//! default MCC grid, 8 x 8 x 5 = 320 cells, into exactly that), so there is
//! no other width to score.
//!
//! The lane body exists in three compilations. `LaneBody::detect` picks
//! the first the CPU can run, once per call, by `is_x86_feature_detected!`
//! alone (there is no option; [`lane_body_name`] says which, and the
//! `kernel` gate proves every one the host can run):
//!
//! * `avx512-vpopcntq` (`avx512f` + `avx512vpopcntdq`): the probe is
//!   transposed once per call into groups of eight cylinders (`ProbeGroup`:
//!   five `[u64; 8]` word planes and one of `ones`), and each gallery
//!   cylinder's five words are broadcast against a group's planes — `XOR`,
//!   `VPOPCNTQ`, add — giving eight distances per pass. The running best is
//!   the integer pair `(d_b, m_b)` under `RowBest`'s cross-multiplied
//!   filter, updated by masked move: no float and no branch inside the
//!   loop, `1 - d_b/m_b` once per row at the end;
//! * `popcnt`: XOR+popcount over `[u64; LANE_WORDS]` arrays, fully
//!   unrolled, one cylinder pair at a time, compiled under the `popcnt`
//!   target feature, `RowBest` per pair;
//! * `portable`: the same source without the target feature — the body of
//!   every non-x86 target.
//!
//! [`CodeArena::score_into_reference`] is the oracle: entry-at-a-time
//! `reference_similarity`, no filter, no lanes.
//!
//! **Byte identity, argued once:** for one (probe, entry) pair the kernel
//! and the oracle agree on three points.
//!
//! 1. *Which pairs count.* Both skip exactly the cylinder pairs whose
//!    combined set-bit mass is zero — no ops, no compare — and charge
//!    every other pair its width. The scalar bodies count as they go; the
//!    vector body cannot branch per lane, so it computes the same number:
//!    `LANE_WORDS · (C_p·C_g − Z_p·Z_g)`, `Z` = cylinders with `ones == 0`
//!    per side (a pair has mass zero iff both sides do).
//! 2. *Each probe cylinder's best.* The oracle takes `max(0, max_j fl(1 −
//!    fl(d_j/m_j)))` by float compare in gallery order. `hamming` is a sum
//!    of u32 popcounts, so lane order cannot change `d_j`. `fl(1 −
//!    fl(d/m))` is antitone in the exact rational `d/m` and a function of
//!    it alone (correctly rounded division, then correctly rounded
//!    subtraction), so that max is attained at the pair of least rational,
//!    which integer cross-multiplication finds exactly. `RowBest` uses the
//!    integers as a filter and keeps the float compare on survivors; the
//!    vector body keeps only the integers and divides once, which
//!    `distinct_ratios_give_strictly_ordered_floats` licenses exhaustively:
//!    on this domain distinct rationals never collide as floats, so the
//!    integer winner *is* the float winner, not merely tied with it. A
//!    mass-zero pair needs no branch there: `0·m_b < d_b·0` is false.
//! 3. *The entry's score.* Both clamp the identical depth, sort the
//!    identically-valued bests with the identical comparator, and sum the
//!    identical prefix left to right.
//!
//! `tests/kernel.rs` pins this with a proptest equivalence suite over
//! random code sets and depths; `study check-kernel` re-proves it
//! on every CI run against the enrolled index, once per available body.

#![deny(clippy::undocumented_unsafe_blocks)]

use crate::lanes;
use crate::signature::{
    reference_similarity, sort_bests_desc, CodeView, CylinderCodes, Stage1Scratch,
};

/// Packed words per cylinder, the one code width: 320 cells
/// (`MccMatcher::default()`'s 8 x 8 x 5 grid) in 64-bit words.
pub const LANE_WORDS: usize = 5;

/// Probe cylinders per [`ProbeGroup`]: the `u64` lanes of one 512-bit
/// vector.
const GROUP: usize = 8;

/// The compilations of the lane body, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneBody {
    /// Eight probe cylinders per gallery word under `VPOPCNTQ`.
    Avx512Vpopcnt,
    /// One cylinder pair at a time under hardware `POPCNT`.
    Popcnt,
    /// The same source at the build's baseline features.
    Portable,
}

impl LaneBody {
    const ALL: [LaneBody; 3] = [
        LaneBody::Avx512Vpopcnt,
        LaneBody::Popcnt,
        LaneBody::Portable,
    ];

    /// Whether this CPU can run the body.
    fn runs_here(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            LaneBody::Avx512Vpopcnt => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(target_arch = "x86_64")]
            LaneBody::Popcnt => std::arch::is_x86_feature_detected!("popcnt"),
            LaneBody::Portable => true,
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every body this CPU can run, fastest first.
    fn available() -> impl Iterator<Item = LaneBody> {
        LaneBody::ALL.into_iter().filter(|body| body.runs_here())
    }

    /// The body [`CodeArena::score_into`] runs on this CPU.
    fn detect() -> LaneBody {
        LaneBody::available().next().unwrap_or(LaneBody::Portable)
    }

    fn name(self) -> &'static str {
        match self {
            LaneBody::Avx512Vpopcnt => "avx512-vpopcntq",
            LaneBody::Popcnt => "popcnt",
            LaneBody::Portable => "portable",
        }
    }
}

/// Name of the lane body [`CodeArena::score_into`] runs on this CPU —
/// `"avx512-vpopcntq"`, `"popcnt"` or `"portable"` — for gate reports and
/// logs, so a host that fell back to a slower body says so.
pub fn lane_body_name() -> &'static str {
    LaneBody::detect().name()
}

/// [`GROUP`] consecutive probe cylinders transposed for the vector lane
/// body: `planes[k][lane]` is word `k` of the group's `lane`-th cylinder
/// and `ones[lane]` its set-bit count. Lanes past the probe's last
/// cylinder are all-zero; against any gallery cylinder such a lane reads
/// `d == m` (or mass zero), never passes the filter, and is not emitted.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
pub(crate) struct ProbeGroup {
    planes: [[u64; GROUP]; LANE_WORDS],
    ones: [u64; GROUP],
}

/// Transposes a probe into `groups`.
fn transpose_probe(probe: &CodeView<'_>, groups: &mut Vec<ProbeGroup>) {
    groups.clear();
    groups.resize(
        probe.len().div_ceil(GROUP),
        ProbeGroup {
            planes: [[0; GROUP]; LANE_WORDS],
            ones: [0; GROUP],
        },
    );
    for (c, (pw, &po)) in probe.words.iter().zip(probe.ones).enumerate() {
        let group = &mut groups[c / GROUP];
        for (plane, &word) in group.planes.iter_mut().zip(pw) {
            plane[c % GROUP] = word;
        }
        group.ones[c % GROUP] = u64::from(po);
    }
}

/// Running max of `1 - distance/mass` over one probe cylinder's row,
/// updated with almost no float ops: alongside the f64 `best` it tracks
/// the winning `(distance, mass)` pair, and a candidate only reaches the
/// float path when its **exact rational** `d/m` is strictly below the
/// incumbent's (integer cross-multiplication). That filter is lossless:
/// `d/m >= d_b/m_b` exactly implies `fl(d/m) >= fl(d_b/m_b)` (correctly
/// rounded division is monotone) implies `fl(1 - fl(d/m)) <= fl(1 -
/// fl(d_b/m_b)) = best` (rounded subtraction is antitone), so the skipped
/// candidate could never have won the original `sim > best` compare. The
/// float compare is kept on the survivors, so the stored `best` is
/// bit-for-bit the value the reference kernel computes. The initial
/// sentinel `(d, m) = (1, 1)` *is* `best = 0.0` (`1 - 1/1`), making the
/// first filter test `d < m` — exactly `sim > 0.0` for these small
/// integers.
#[derive(Clone, Copy)]
struct RowBest {
    best: f64,
    d: u64,
    m: u64,
}

impl RowBest {
    #[inline(always)]
    fn new() -> RowBest {
        RowBest {
            best: 0.0,
            d: 1,
            m: 1,
        }
    }

    #[inline(always)]
    fn offer(&mut self, distance: u32, mass: u32) {
        if u64::from(distance) * self.m < self.d * u64::from(mass) {
            let sim = 1.0 - f64::from(distance) / f64::from(mass);
            if sim > self.best {
                self.best = sim;
                self.d = u64::from(distance);
                self.m = u64::from(mass);
            }
        }
    }
}

/// Where one entry's codes live inside the arena: its first cylinder and
/// how many it has.
#[derive(Debug, Clone, Copy)]
struct EntrySpan {
    off: usize,
    cylinders: usize,
}

/// One contiguous structure-of-arrays slab of every enrolled entry's
/// packed cylinder codes, plus the stage-1 scoring kernel over it.
#[derive(Debug, Clone, Default)]
pub struct CodeArena {
    words: Vec<u64>,
    ones: Vec<u32>,
    spans: Vec<EntrySpan>,
}

impl CodeArena {
    /// An empty arena.
    pub fn new() -> CodeArena {
        CodeArena::default()
    }

    /// Number of packed entries.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no entries are packed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Bytes of packed cylinder words (the slab the kernel streams).
    pub fn packed_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Rebuilds an arena from persisted parts: the word slab, the
    /// per-cylinder set-bit counts, and per-entry `(cylinders, width)` in
    /// entry order. Offsets are not persisted — entries are packed
    /// back-to-back, so they are the running sums of the spans and a
    /// segment cannot claim overlapping or out-of-order ones. Validates the
    /// invariants both scoring kernels rely on before constructing
    /// anything: a coded span is [`LANE_WORDS`] wide and an empty one 0
    /// (what [`CodeArena::push`] records for them), the spans must tile
    /// `words` and `ones` exactly (no gap, no overhang, no overflow), and
    /// every `ones` count must equal its cylinder's actual popcount (the
    /// mass-zero skip rule reads it as truth). Violations come back as a
    /// typed description, never a panic.
    pub fn from_raw_parts(
        words: Vec<u64>,
        ones: Vec<u32>,
        spans: impl IntoIterator<Item = (u32, u32)>,
    ) -> Result<CodeArena, String> {
        let mut off = 0usize;
        let spans = spans.into_iter();
        let mut built = Vec::with_capacity(spans.size_hint().0);
        for (at, (cylinders, width)) in spans.enumerate() {
            let lane = if cylinders == 0 { 0 } else { LANE_WORDS as u32 };
            if width != lane {
                return Err(format!(
                    "entry {at} of {cylinders} cylinders is {width} words wide, not {lane}"
                ));
            }
            let cylinders = cylinders as usize;
            built.push(EntrySpan { off, cylinders });
            off = off
                .checked_add(cylinders)
                .ok_or_else(|| format!("entry {at} overflows the slab"))?;
        }
        if off != ones.len() {
            return Err(format!(
                "spans cover {off} cylinders but ones holds {}",
                ones.len()
            ));
        }
        let (cylinders, rest) = words.as_chunks::<LANE_WORDS>();
        if cylinders.len() != off || !rest.is_empty() {
            return Err(format!(
                "spans cover {off} cylinders of {LANE_WORDS} words but the slab holds {} words",
                words.len()
            ));
        }
        for (c, (cylinder, &set)) in cylinders.iter().zip(&ones).enumerate() {
            let actual: u32 = cylinder.iter().map(|w| w.count_ones()).sum();
            if set != actual {
                return Err(format!(
                    "ones[{c}] is {set} but its cylinder popcount is {actual}"
                ));
            }
        }
        Ok(CodeArena {
            words,
            ones,
            spans: built,
        })
    }

    /// Appends one entry's codes to the slab. Entries keep their append
    /// order: entry `i` here is gallery entry `i` of the owning index.
    pub fn push(&mut self, codes: &CylinderCodes) {
        self.push_view(codes.view());
    }

    /// Appends one entry through its view — how `fp-store` moves survivors
    /// from one arena ([`entry`](Self::entry)) to another.
    pub fn push_view(&mut self, view: CodeView<'_>) {
        self.spans.push(EntrySpan {
            off: self.ones.len(),
            cylinders: view.len(),
        });
        self.words.extend_from_slice(view.words());
        self.ones.extend_from_slice(view.ones);
    }

    /// A borrowed view of entry `i`'s codes.
    pub fn entry(&self, i: usize) -> CodeView<'_> {
        let EntrySpan { off, cylinders } = self.spans[i];
        let (words, _) = self.words.as_chunks::<LANE_WORDS>();
        CodeView {
            words: &words[off..off + cylinders],
            ones: &self.ones[off..off + cylinders],
        }
    }

    /// The kernel: local-similarity-sort scores of `probe` against
    /// **every** packed entry, written to `out[i]` (which must hold
    /// exactly [`len`](Self::len) slots). Returns the packed-`u64` Hamming
    /// word comparisons performed — the exact quantity
    /// `index.search.hamming_ops` meters, byte-identical to summing the
    /// scalar reference over every entry.
    ///
    /// One pass over the entries in order: per entry, the lane body this
    /// CPU runs (see the module header), then the depth clamp, sort and
    /// prefix mean the oracle shares. The pass is cut into runs of
    /// `JOB_ENTRIES` entries, each scored into its own slice of `out` by
    /// whichever lane (one per core, `crate::lanes`) takes it; `scratch`
    /// serves the lane on the calling thread and every other gets a fresh
    /// one. The op count is the sum over runs.
    pub fn score_into(
        &self,
        probe: &CylinderCodes,
        lss_depth: usize,
        scratch: &mut Stage1Scratch,
        out: &mut [f64],
    ) -> u64 {
        self.score_on_lanes(lanes::cores(), probe, lss_depth, scratch, out)
    }

    /// [`score_into`](Self::score_into) over at most `max_lanes` lanes.
    pub(crate) fn score_on_lanes(
        &self,
        max_lanes: usize,
        probe: &CylinderCodes,
        lss_depth: usize,
        scratch: &mut Stage1Scratch,
        out: &mut [f64],
    ) -> u64 {
        let body = LaneBody::detect();
        self.score_with(body, max_lanes, probe, lss_depth, scratch, out)
    }

    /// [`score_into`](Self::score_into) once per lane body this CPU can
    /// run, fastest first: each body's name, its scores and its op count.
    /// The `kernel` gate proves every body through this, so the ones
    /// `score_into` does not pick on the host stay proven on it.
    #[doc(hidden)]
    pub fn score_with_each_lane_body(
        &self,
        probe: &CylinderCodes,
        lss_depth: usize,
    ) -> Vec<(&'static str, Vec<f64>, u64)> {
        let mut scratch = Stage1Scratch::new();
        LaneBody::available()
            .map(|body| {
                let mut scores = vec![0.0; self.len()];
                let ops = self.score_with(
                    body,
                    lanes::cores(),
                    probe,
                    lss_depth,
                    &mut scratch,
                    &mut scores,
                );
                (body.name(), scores, ops)
            })
            .collect()
    }

    /// [`score_into`](Self::score_into) on `body` over at most `max_lanes`
    /// lanes.
    fn score_with(
        &self,
        body: LaneBody,
        max_lanes: usize,
        probe: &CylinderCodes,
        lss_depth: usize,
        scratch: &mut Stage1Scratch,
        out: &mut [f64],
    ) -> u64 {
        assert_eq!(out.len(), self.spans.len(), "out must cover every entry");
        let probe = probe.view();
        if probe.is_empty() {
            out.fill(0.0);
            return 0;
        }
        let lanes = lanes::count(out.len(), max_lanes);
        let mut helpers: Vec<Stage1Scratch> = (1..lanes).map(|_| Stage1Scratch::new()).collect();
        let scratches = helpers.iter_mut().chain(std::iter::once(scratch)).collect();
        let jobs = out.chunks_mut(lanes::JOB_ENTRIES).enumerate().collect();
        lanes::share(jobs, scratches, |scratch, (k, out)| {
            let first = k * lanes::JOB_ENTRIES;
            self.score_range(body, probe, lss_depth, scratch, first, out)
        })
        .into_iter()
        .sum()
    }

    /// One job of [`score_with`](Self::score_with): entries `first..`,
    /// one per slot of `out`.
    fn score_range(
        &self,
        body: LaneBody,
        probe: CodeView<'_>,
        lss_depth: usize,
        scratch: &mut Stage1Scratch,
        first: usize,
        out: &mut [f64],
    ) -> u64 {
        let Stage1Scratch { bests, groups } = scratch;
        let vector = body == LaneBody::Avx512Vpopcnt;
        let mut probe_zeros = 0;
        if vector {
            transpose_probe(&probe, groups);
            probe_zeros = zero_cylinders(&probe);
        }
        let mut word_ops = 0u64;
        for (i, slot) in out.iter_mut().enumerate() {
            let entry = self.entry(first + i);
            if entry.is_empty() {
                *slot = 0.0;
                continue;
            }
            bests.clear();
            match body {
                #[cfg(target_arch = "x86_64")]
                LaneBody::Avx512Vpopcnt => {
                    // SAFETY: `runs_here` verified `avx512f` and
                    // `avx512vpopcntdq` before `available` or `detect`
                    // yielded this body.
                    unsafe { best_rows_lanes_avx512(groups, probe.len(), &entry, bests) }
                }
                #[cfg(target_arch = "x86_64")]
                LaneBody::Popcnt => {
                    // SAFETY: `runs_here` verified `popcnt` before
                    // `available` or `detect` yielded this body.
                    unsafe { best_rows_lanes_popcnt(&probe, &entry, bests, &mut word_ops) }
                }
                _ => best_rows_lanes_body(&probe, &entry, bests, &mut word_ops),
            }
            if vector {
                // The vector body cannot count as it goes; the same
                // number, computed: every pair but the mass-zero ones
                // (both sides `ones == 0`).
                let mut pairs = probe.len() * entry.len();
                if probe_zeros > 0 {
                    pairs -= probe_zeros * zero_cylinders(&entry);
                }
                word_ops += (LANE_WORDS * pairs) as u64;
            }
            let depth = probe.len().min(entry.len()).min(lss_depth).max(1);
            sort_bests_desc(bests);
            *slot = bests[..depth].iter().sum::<f64>() / depth as f64;
        }
        word_ops
    }

    /// The scalar reference over the same arena: entry-at-a-time
    /// [`CylinderCodes::reference_similarity`], sharing one scratch (so
    /// oracle and kernel are benchmarked on equal allocator footing).
    /// `study check-kernel` and the proptest equivalence suite hold
    /// [`score_into`](Self::score_into) byte-identical to this.
    pub fn score_into_reference(
        &self,
        probe: &CylinderCodes,
        lss_depth: usize,
        scratch: &mut Stage1Scratch,
        out: &mut [f64],
    ) -> u64 {
        assert_eq!(out.len(), self.spans.len(), "out must cover every entry");
        let pv = probe.view();
        let mut word_ops = 0u64;
        for (i, slot) in out.iter_mut().enumerate() {
            let (score, ops) = reference_similarity(&pv, &self.entry(i), lss_depth, scratch);
            *slot = score;
            word_ops += ops;
        }
        word_ops
    }
}

/// Cylinders of `codes` with no set bit.
fn zero_cylinders(codes: &CodeView<'_>) -> usize {
    codes.ones.iter().filter(|&&ones| ones == 0).count()
}

/// The vector lane body: per group of eight probe cylinders, one pass per
/// gallery cylinder. Five broadcast words against the group's planes
/// (`XOR`, `VPOPCNTQ`, add) give eight distances; `RowBest`'s filter `d ·
/// m_b < d_b · m` is two 32 x 32 -> 64-bit multiplies (`d <= 320`, `m <=
/// 640`) and one unsigned compare; the running best moves under the
/// resulting mask. A mass-zero lane has `d = m = 0`, so the compare is
/// false without a branch. Each row's best is `1 - d_b/m_b`, divided once
/// per group; the `(1, 1)` start is `RowBest`'s `0.0`.
///
/// A lane keeps its pair as one word, `m_b << 32 | d_b`: `mul_epu32` reads
/// the low half as it stands, and the update is one masked move. (Kept as
/// two vectors, LLVM proves `d_b`'s high half zero across the loop, drops
/// the mask the multiply needs, and then lowers it to three multiplies on
/// the loop's dependency chain: about a quarter more time per pass.)
///
/// # Safety
///
/// Callers must have verified the CPU supports `avx512f` and
/// `avx512vpopcntdq`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn best_rows_lanes_avx512(
    groups: &[ProbeGroup],
    probe_len: usize,
    entry: &CodeView<'_>,
    bests: &mut Vec<f64>,
) {
    use std::arch::x86_64::*;

    for (g, group) in groups.iter().enumerate() {
        let planes = group.planes.map(|plane| load_lanes(&plane));
        let ones = load_lanes(&group.ones);
        let mut best = _mm512_set1_epi64(1 << 32 | 1);
        for (gw, &go) in entry.words.iter().zip(entry.ones) {
            let mut distance = _mm512_setzero_si512();
            for (&plane, &word) in planes.iter().zip(gw) {
                let differing = _mm512_xor_si512(plane, _mm512_set1_epi64(word as i64));
                distance = _mm512_add_epi64(distance, _mm512_popcnt_epi64(differing));
            }
            let mass = _mm512_add_epi64(ones, _mm512_set1_epi64(i64::from(go)));
            let wins = _mm512_cmplt_epu64_mask(
                _mm512_mul_epu32(distance, _mm512_srli_epi64(best, 32)),
                _mm512_mul_epu32(best, mass),
            );
            let offer = _mm512_or_si512(_mm512_slli_epi64(mass, 32), distance);
            best = _mm512_mask_mov_epi64(best, wins, offer);
        }
        // Both halves are <= 640, so they survive the narrowing that lets
        // `avx512f` alone convert them; per lane the divide and subtract
        // round exactly as their scalar forms do.
        let d = _mm512_cvtepi32_pd(_mm512_cvtepi64_epi32(best));
        let m = _mm512_cvtepi32_pd(_mm512_cvtepi64_epi32(_mm512_srli_epi64(best, 32)));
        let sims = _mm512_sub_pd(_mm512_set1_pd(1.0), _mm512_div_pd(d, m));
        let mut row = [0.0f64; GROUP];
        // SAFETY: `row` is 64 writable bytes; `storeu` asks no alignment.
        unsafe { _mm512_storeu_pd(row.as_mut_ptr(), sims) };
        // The last group's lanes past the probe's end are padding.
        let live = (probe_len - g * GROUP).min(GROUP);
        bests.extend_from_slice(&row[..live]);
    }
}

/// Eight `u64`s as one vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn load_lanes(lanes: &[u64; GROUP]) -> std::arch::x86_64::__m512i {
    // SAFETY: `lanes` is 64 readable bytes; `loadu` asks no alignment.
    unsafe { std::arch::x86_64::_mm512_loadu_si512(lanes.as_ptr().cast()) }
}

/// [`best_rows_lanes_body`] compiled with the `popcnt` instruction
/// available, so every `count_ones()` in the inlined lane loop lowers to
/// one `POPCNT`.
///
/// # Safety
///
/// Callers must have verified the CPU supports `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn best_rows_lanes_popcnt(
    probe: &CodeView<'_>,
    entry: &CodeView<'_>,
    bests: &mut Vec<f64>,
    word_ops: &mut u64,
) {
    best_rows_lanes_body(probe, entry, bests, word_ops)
}

/// The scalar lane body: the XOR + popcount reduction over `[u64;
/// LANE_WORDS]` arrays, fully unrolled, one cylinder pair at a time. On
/// the plain x86-64 build baseline `count_ones()` lowers to a ~12-op
/// bit-twiddling sequence per word, which is why x86 hosts run it through
/// [`best_rows_lanes_popcnt`]; elsewhere it already lowers well (e.g.
/// AArch64 `CNT`). Population count is an exact integer op, so every
/// compilation is bit-identical.
#[inline(always)]
fn best_rows_lanes_body(
    probe: &CodeView<'_>,
    entry: &CodeView<'_>,
    bests: &mut Vec<f64>,
    word_ops: &mut u64,
) {
    for (pw, &po) in probe.words.iter().zip(probe.ones) {
        let mut row = RowBest::new();
        for (gw, &go) in entry.words.iter().zip(entry.ones) {
            let mass = po + go;
            if mass == 0 {
                continue;
            }
            *word_ops += LANE_WORDS as u64;
            let mut distance = 0u32;
            for k in 0..LANE_WORDS {
                distance += (pw[k] ^ gw[k]).count_ones();
            }
            row.offer(distance, mass);
        }
        bests.push(row.best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Codes with explicit raw words (ones derived), one cylinder per row,
    /// each row zero-padded to `LANE_WORDS`.
    fn raw_codes(rows: &[&[u64]]) -> CylinderCodes {
        let mut words = Vec::new();
        let mut ones = Vec::new();
        for row in rows {
            let mut cylinder = [0u64; LANE_WORDS];
            cylinder[..row.len()].copy_from_slice(row);
            words.extend_from_slice(&cylinder);
            ones.push(row.iter().map(|w| w.count_ones()).sum());
        }
        CylinderCodes::from_raw(words, ones)
    }

    #[test]
    fn arena_scores_match_reference_on_handmade_codes() {
        let a = raw_codes(&[&[0b1011, 0x55], &[0xFF00, 0x0F]]);
        let b = raw_codes(&[&[0b1001, 0x54], &[0, 0]]);
        let probe = raw_codes(&[&[0b1111, 0xAA], &[0, 0]]);
        let mut arena = CodeArena::new();
        arena.push(&a);
        arena.push(&b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.packed_bytes(), 2 * 2 * LANE_WORDS * 8);

        let mut scratch = Stage1Scratch::new();
        let mut scores = vec![0.0; 2];
        let mut reference = vec![0.0; 2];
        let ops_b = arena.score_into(&probe, 2, &mut scratch, &mut scores);
        let ops_r = arena.score_into_reference(&probe, 2, &mut scratch, &mut reference);
        assert_eq!(scores, reference);
        assert_eq!(ops_b, ops_r);
        // Entry b's second cylinder and the probe's second cylinder are
        // both all-zero: that one pair has mass 0 and must be skipped
        // unpriced; every other pair (7 of 8) charges LANE_WORDS.
        assert_eq!(ops_b, 7 * LANE_WORDS as u64);
    }

    #[test]
    fn empty_probe_and_empty_entries_score_zero() {
        let empty = CylinderCodes::from_raw(Vec::new(), Vec::new());
        let some = raw_codes(&[&[1, 2, 3]]);
        let mut arena = CodeArena::new();
        arena.push(&empty);
        arena.push(&some);

        let mut scratch = Stage1Scratch::new();
        let mut out = vec![9.0; 2];
        assert_eq!(arena.score_into(&empty, 4, &mut scratch, &mut out), 0);
        assert_eq!(out, vec![0.0, 0.0]);

        let mut out = vec![9.0; 2];
        let ops = arena.score_into(&some, 4, &mut scratch, &mut out);
        assert_eq!(out[0], 0.0, "empty entry scores zero");
        assert_eq!(out[1], 1.0, "self-similarity is one");
        assert_eq!(ops, LANE_WORDS as u64);
    }

    #[test]
    fn raw_parts_round_trip_and_reject_hostile_shapes() {
        let a = raw_codes(&[&[0b1011, 0x55], &[0xFF00, 0x0F]]);
        let b = raw_codes(&[&[!0u64], &[0], &[0xF0F0]]);
        let mut arena = CodeArena::new();
        arena.push(&a);
        arena.push(&CylinderCodes::from_raw(Vec::new(), Vec::new()));
        arena.push(&b);

        // The persisted parts are the slab, the popcounts and each entry's
        // shape; moving entries view by view rebuilds the same arena.
        let lane = LANE_WORDS as u32;
        let spans = [(2, lane), (0, 0), (3, lane)];
        let rebuilt =
            CodeArena::from_raw_parts(arena.words.clone(), arena.ones.clone(), spans).unwrap();
        let mut moved = CodeArena::new();
        for i in 0..arena.len() {
            moved.push_view(arena.entry(i));
        }
        let probe = raw_codes(&[&[0b1111, 0xAA]]);
        let mut scratch = Stage1Scratch::new();
        let mut expected = vec![0.0; 3];
        let ops = arena.score_into(&probe, 2, &mut scratch, &mut expected);
        for other in [&rebuilt, &moved] {
            assert_eq!(other.words, arena.words);
            assert_eq!(other.ones, arena.ones);
            let mut out = vec![0.0; 3];
            assert_eq!(other.score_into(&probe, 2, &mut scratch, &mut out), ops);
            assert_eq!(out, expected);
        }

        // Hostile shapes: spans that under- or over-cover the slab, wrong
        // popcounts, and counts that overflow all come back as errors,
        // never panics.
        let (words, ones) = (arena.words.clone(), arena.ones.clone());
        let parts = |spans: &[(u32, u32)]| {
            CodeArena::from_raw_parts(words.clone(), ones.clone(), spans.iter().copied())
        };
        assert!(parts(&[(2, lane)]).is_err());
        assert!(parts(&[(2, lane), (0, 0), (3, lane), (1, lane)]).is_err());
        assert!(parts(&[(u32::MAX, lane), (u32::MAX, lane)]).is_err());
        let mut bad_ones = ones.clone();
        bad_ones[0] ^= 1;
        assert!(CodeArena::from_raw_parts(words.clone(), bad_ones, spans).is_err());
        assert!(CodeArena::from_raw_parts(Vec::new(), Vec::new(), []).is_ok());

        // A span of any other width is refused by entry and width: a coded
        // entry not LANE_WORDS wide, an empty one not 0 wide.
        let error = parts(&[(2, 3), (0, 0), (3, lane)]).unwrap_err();
        assert!(
            error.contains("entry 0 of 2 cylinders is 3 words wide"),
            "{error}"
        );
        let error = parts(&[(2, lane), (0, 7), (3, lane)]).unwrap_err();
        assert!(
            error.contains("entry 1 of 0 cylinders is 7 words wide"),
            "{error}"
        );
    }

    /// Fowler–Noll–Vo 1a over a byte stream — a stable digest for the
    /// golden-layout test below, independent of everything else in the
    /// workspace.
    fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// **Golden layout pin.** `fp-store` serializes every entry's view
    /// verbatim (words as little-endian `u64`s), so any change to how
    /// [`CylinderCodes::extract`] binarizes or how [`CodeArena::push`]
    /// packs — bit order within a word, cylinder order, words-per-cylinder,
    /// the mean-threshold tie rule, the reliability-ranked minutia cut —
    /// silently invalidates every already-written segment. This test pins
    /// the exact packed bytes for a fixed template; if it fails, DO NOT
    /// update the constants in place: bump `fp-store`'s `SEGMENT_VERSION`
    /// first so old segments are rejected as unsupported instead of being
    /// decoded under the new layout, then re-pin.
    #[test]
    fn packed_layout_is_pinned_for_persistence() {
        use fp_core::geometry::{Direction, Point};
        use fp_core::minutia::{Minutia, MinutiaKind};
        use fp_core::rng::SeedTree;
        use fp_core::template::Template;
        use fp_match::MccMatcher;
        use rand::Rng;

        let mut rng = SeedTree::new(0x90_1D).child(&[0x60]).rng();
        let mut minutiae = Vec::new();
        while minutiae.len() < 30 {
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
            minutiae.push(Minutia::new(
                pos,
                Direction::from_radians(rng.gen::<f64>() * std::f64::consts::TAU),
                if rng.gen::<bool>() {
                    MinutiaKind::RidgeEnding
                } else {
                    MinutiaKind::Bifurcation
                },
                rng.gen::<f64>(),
            ));
        }
        let template = Template::builder(500.0)
            .capture_window_mm(20.0, 24.0)
            .extend(minutiae)
            .build()
            .unwrap();

        let codes = CylinderCodes::extract(&MccMatcher::default(), &template, 24);
        let mut arena = CodeArena::new();
        arena.push(&codes);

        let entry = arena.entry(0);
        let width = entry.words().len() / entry.len();
        assert_eq!(
            (entry.len() as u32, width as u32),
            (GOLDEN_CYLINDERS, GOLDEN_WORDS_PER)
        );
        assert_eq!(
            fnv1a(entry.words().iter().flat_map(|w| w.to_le_bytes())),
            GOLDEN_WORDS_FNV,
            "packed word bytes changed — bump the fp-store segment version"
        );
        assert_eq!(
            fnv1a(entry.ones().iter().flat_map(|o| o.to_le_bytes())),
            GOLDEN_ONES_FNV,
            "popcount bytes changed — bump the fp-store segment version"
        );
        assert_eq!(&entry.words()[..4], GOLDEN_FIRST_WORDS);
    }

    const GOLDEN_CYLINDERS: u32 = 22;
    const GOLDEN_WORDS_PER: u32 = 5;
    const GOLDEN_WORDS_FNV: u64 = 0x3e57_7bf4_5f22_a40b;
    const GOLDEN_ONES_FNV: u64 = 0x7b39_0d84_d8e2_f892;
    const GOLDEN_FIRST_WORDS: &[u64] = &[
        943_200_256,
        247_256_852_256_768,
        105_968_666_935_296,
        137_975_824_384,
    ];

    /// Codes of `cylinders` cylinders from a fixed stream;
    /// every `zero_every`-th cylinder is all-zero (`ones == 0`).
    fn lane_codes(seed: u64, cylinders: usize, zero_every: usize) -> CylinderCodes {
        let rows: Vec<Vec<u64>> = (0..cylinders as u64)
            .map(|c| {
                (0..LANE_WORDS as u64)
                    .map(|w| {
                        if c as usize % zero_every == zero_every - 1 {
                            0
                        } else {
                            (seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ (c * 31 + w))
                        }
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[u64]> = rows.iter().map(|r| r.as_slice()).collect();
        raw_codes(&refs)
    }

    /// Every lane body this CPU can run against the oracle, in one lane:
    /// bitwise scores, equal op counts.
    fn assert_every_body_matches_reference(arena: &CodeArena, probe: &CylinderCodes, depth: usize) {
        let mut scratch = Stage1Scratch::new();
        let mut reference = vec![0.0; arena.len()];
        let ops_r = arena.score_into_reference(probe, depth, &mut scratch, &mut reference);
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        for body in LaneBody::available() {
            let mut scores = vec![9.0; arena.len()];
            let ops = arena.score_with(body, 1, probe, depth, &mut scratch, &mut scores);
            assert_eq!(ops, ops_r, "{body:?}, probe of {}", probe.len());
            assert_eq!(
                bits(&scores),
                bits(&reference),
                "{body:?}, probe of {}",
                probe.len()
            );
        }
    }

    #[test]
    fn large_arenas_score_like_the_reference() {
        // 600 entries on a slab long enough that a slip in the running
        // offsets would land on another entry's words.
        let mut arena = CodeArena::new();
        let entries: Vec<CylinderCodes> = (0..600).map(|e| lane_codes(e, 8, usize::MAX)).collect();
        for codes in &entries {
            arena.push(codes);
        }

        let probe = entries[17].clone();
        let mut scratch = Stage1Scratch::new();
        let mut scores = vec![0.0; arena.len()];
        let mut reference = vec![0.0; arena.len()];
        let ops = arena.score_into(&probe, 5, &mut scratch, &mut scores);
        let ops_r = arena.score_into_reference(&probe, 5, &mut scratch, &mut reference);
        assert_eq!(ops, ops_r);
        assert_eq!(scores, reference);
        assert_eq!(scores[17], 1.0);
        assert_every_body_matches_reference(&arena, &probe, 5);
    }

    #[test]
    fn every_lane_body_matches_the_reference_across_the_group_edge() {
        assert_eq!(LaneBody::available().last(), Some(LaneBody::Portable));

        // Entries of 0, 1, 23 and 64 cylinders, with and without zero
        // cylinders, against probes that end before, on and after a
        // `GROUP` boundary. Probe and entries carry zero cylinders at
        // once, so the op meter's `Z_p · Z_g` term is exercised.
        let mut arena = CodeArena::new();
        for (e, &cylinders) in [0, 1, 23, 64, 1, 23, 64].iter().enumerate() {
            let zero_every = if e < 4 { 3 } else { usize::MAX };
            arena.push(&lane_codes(100 + e as u64, cylinders, zero_every));
        }
        for probe_cylinders in [0, 1, 7, 8, 9, 16, 24, 25, 40] {
            for zero_every in [1, 2, 5, usize::MAX] {
                let probe = lane_codes(7, probe_cylinders, zero_every);
                for depth in [1, 12, 64] {
                    assert_every_body_matches_reference(&arena, &probe, depth);
                }
            }
        }
    }

    /// **The vector body's licence.** It keeps a row's best as the
    /// integer pair of least exact rational `d/m` and divides once;
    /// `RowBest` and the oracle compare `fl(1 - fl(d/m))`. Over every pair
    /// a lane-width row can produce — `1 <= m <= 640` (two 320-cell
    /// cylinders), `0 <= d <= min(320, m)` — equal rationals give equal
    /// bits and distinct rationals strictly ordered floats, so the integer
    /// winner is the float winner, first-seen tie-break included.
    #[test]
    fn distinct_ratios_give_strictly_ordered_floats() {
        let cells = 64 * LANE_WORDS as u64;
        let mut pairs: Vec<(u64, u64)> = (1..=2 * cells)
            .flat_map(|m| (0..=cells.min(m)).map(move |d| (d, m)))
            .collect();
        // Ascending exact rational d/m.
        pairs.sort_by(|a, b| (a.0 * b.1).cmp(&(b.0 * a.1)));
        let sim = |(d, m): (u64, u64)| 1.0 - d as f64 / m as f64;
        let mut distinct = 1;
        for pair in pairs.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            if lo.0 * hi.1 == hi.0 * lo.1 {
                assert_eq!(sim(lo).to_bits(), sim(hi).to_bits(), "{lo:?} = {hi:?}");
            } else {
                assert!(sim(lo) > sim(hi), "{lo:?} < {hi:?} but floats do not order");
                distinct += 1;
            }
        }
        assert_eq!(distinct, 93_502);
    }
}
