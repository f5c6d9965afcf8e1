//! The immutable on-disk segment format.
//!
//! A segment is one write-once file holding a batch of enrolled gallery
//! entries in *index-native* form: the exact prepared pair tables,
//! packed cylinder-code arena slices, per-cylinder popcounts, and
//! geometric-hash buckets a [`fp_index::CandidateIndex`] holds in memory.
//! Opening a segment is pure parsing — no template re-preparation, no
//! cylinder re-extraction — which is why a gallery loads in milliseconds
//! where re-enrollment takes minutes.
//!
//! # Layout (version 1, all little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"FPSTSEG\0"
//!      8     2  version (= 1)
//!     10     2  section count (= 5)
//!     12     4  entry count
//!     16   120  section table: 5 x { id u32, offset u64, len u64, crc u32 }
//!    136     4  header CRC32 over bytes [0, 136)
//!    140     -  section payloads, contiguous, in table order
//! ```
//!
//! The five sections appear in fixed order and tile the rest of the file
//! exactly — `META(1)`, `SPANS(2)`, `TABLES(3)`, `ARENA(4)`,
//! `BUCKETS(5)`. Because the header CRC covers the section table and each
//! section CRC covers its payload, **every byte of a segment is covered
//! by exactly one checksum**: flipping any bit anywhere yields a typed
//! [`StoreError`], never a silently different gallery.
//!
//! Each SPANS record is 24 bytes per entry — `cylinders u32, words_per
//! u32, table_bytes u64, table_crc u32, pair_count u32` — carrying
//! everything stage-1 and the arena need about an entry *plus* the length
//! and CRC32 of that entry's variable-length TABLES record. That is what
//! makes the fast open path possible: a reader that has verified the tiny
//! SPANS section can leave the TABLES section (the dominant share of the
//! file) on disk and slice, checksum, and decode individual records on
//! demand.
//!
//! Decoding validates semantics, not just framing: pair distances must be
//! finite and sorted, directions and pair angles canonical, minutia
//! references in range, bucket ids dense, bucket keys strictly ascending,
//! each entry registered in BUCKETS as often as its SPANS pair count says —
//! each the exact precondition some downstream kernel relies on without
//! re-checking.

use fp_core::codec::{crc32, Dec, Enc};
use fp_core::minutia::MinutiaKind;
use fp_index::{CodeArena, CodeView, FlatBuckets, IndexConfig};
use fp_match::PreparedPairTable;
use serde::Serialize;

use crate::error::StoreError;

/// Segment file magic.
pub const SEGMENT_MAGIC: &[u8; 8] = b"FPSTSEG\0";
/// Current segment format version. Any change to the section layouts *or*
/// to the in-memory packing they mirror (see the pinned-layout golden
/// test on `fp_index::CodeArena`) must bump this.
pub const SEGMENT_VERSION: u16 = 1;

const SECTION_COUNT: usize = 5;
const SECTION_IDS: [u32; SECTION_COUNT] = [1, 2, 3, 4, 5];
const SECTION_NAMES: [&str; SECTION_COUNT] = ["meta", "spans", "tables", "arena", "buckets"];
const HEADER_BYTES: usize = 16 + SECTION_COUNT * 24;
pub(crate) const SECTIONS_START: usize = HEADER_BYTES + 4;
const WHAT: &str = "segment";

fn corrupt(detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        what: WHAT,
        detail: detail.into(),
    }
}

/// One entry's persistence view, borrowed from a live index.
pub(crate) struct EntrySource<'a> {
    pub(crate) table: &'a PreparedPairTable,
    /// Vote-normalization denominator ([`fp_index`]'s feature count for
    /// this entry — not in general derivable from `table`).
    pub(crate) pair_count: u32,
    /// This entry's packed cylinder codes, as its arena hands them out.
    pub(crate) codes: CodeView<'a>,
}

impl<'a> EntrySource<'a> {
    /// Pairs each `(table, pair count)` with its entry of `arena`, in
    /// entry order.
    pub(crate) fn zip_arena(
        tables: impl Iterator<Item = (&'a PreparedPairTable, u32)>,
        arena: &'a CodeArena,
    ) -> Vec<EntrySource<'a>> {
        tables
            .enumerate()
            .map(|(i, (table, pair_count))| EntrySource {
                table,
                pair_count,
                codes: arena.entry(i),
            })
            .collect()
    }
}

/// Everything a segment persists, borrowed from a live index (or from
/// decoded segments during compaction).
pub(crate) struct SegmentSource<'a> {
    pub(crate) config: IndexConfig,
    pub(crate) entries: Vec<EntrySource<'a>>,
    pub(crate) buckets: &'a FlatBuckets,
}

/// One entry decoded from a segment; its codes are entry `i` of the
/// segment's arena.
#[derive(Debug)]
pub(crate) struct DecodedEntry {
    pub(crate) table: PreparedPairTable,
    pub(crate) pair_count: u32,
}

/// One decoded SPANS record: the fixed-size per-entry facts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanRec {
    pub(crate) cylinders: u32,
    pub(crate) words_per: u32,
    /// Length of this entry's TABLES record in bytes.
    pub(crate) table_bytes: u64,
    /// CRC32 of this entry's TABLES record — lets a lazy reader verify a
    /// single record without touching the rest of the section.
    pub(crate) table_crc: u32,
    pub(crate) pair_count: u32,
}

/// Byte size of one SPANS record.
pub(crate) const SPAN_RECORD_BYTES: usize = 24;

/// A fully validated decoded segment.
#[derive(Debug)]
pub(crate) struct DecodedSegment {
    pub(crate) config: IndexConfig,
    pub(crate) entries: Vec<DecodedEntry>,
    pub(crate) arena: CodeArena,
    pub(crate) buckets: FlatBuckets,
}

/// Per-section health as reported by [`inspect_segment`].
#[derive(Debug, Clone, Serialize)]
pub struct SectionInspect {
    /// Section name (`meta` / `spans` / `tables` / `arena` / `buckets`).
    pub name: &'static str,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Whether the stored CRC matches the payload.
    pub crc_ok: bool,
}

/// Structural summary of one segment file (`study gallery inspect`).
#[derive(Debug, Clone, Serialize)]
pub struct SegmentInspect {
    /// Format version from the header.
    pub version: u16,
    /// Entries packed in this segment (including tombstoned ones — the
    /// manifest, not the segment, knows which are dead).
    pub entry_count: u32,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Whether the header CRC (magic, version, counts, section table)
    /// matches.
    pub header_crc_ok: bool,
    /// Per-section sizes and CRC status.
    pub sections: Vec<SectionInspect>,
}

fn encode_table(entry: &EntrySource<'_>) -> Vec<u8> {
    let table = entry.table;
    let mut enc = Enc::new();
    enc.u32(table.minutia_count() as u32);
    enc.u32(table.len() as u32);
    for (d, beta1, beta2, i, j) in table.raw_entries() {
        enc.f64_bits(d);
        enc.f64_bits(beta1);
        enc.f64_bits(beta2);
        enc.u16(i);
        enc.u16(j);
    }
    for radians in table.raw_directions() {
        enc.f64_bits(radians);
    }
    for kind in table.raw_kinds() {
        enc.u8(match kind {
            MinutiaKind::RidgeEnding => 0,
            MinutiaKind::Bifurcation => 1,
        });
    }
    enc.into_bytes()
}

/// Serializes `source` into a complete segment file image.
pub(crate) fn encode_segment(source: &SegmentSource<'_>) -> Vec<u8> {
    let mut meta = Enc::new();
    source.config.encode(&mut meta);

    let mut spans = Enc::new();
    let mut tables = Enc::new();
    let mut words_len = 0usize;
    let mut ones_len = 0usize;
    for entry in &source.entries {
        let table_bytes = encode_table(entry);
        spans.u32(entry.codes.len() as u32);
        spans.u32(entry.codes.words_per() as u32);
        spans.u64(table_bytes.len() as u64);
        spans.u32(crc32(&table_bytes));
        spans.u32(entry.pair_count);
        tables.raw(&table_bytes);
        words_len += entry.codes.words().len();
        ones_len += entry.codes.len();
    }

    let mut arena = Enc::new();
    arena.u64(words_len as u64);
    arena.u64(ones_len as u64);
    for entry in &source.entries {
        for &w in entry.codes.words() {
            arena.u64(w);
        }
    }
    for entry in &source.entries {
        for &o in entry.codes.ones() {
            arena.u32(o);
        }
    }

    let mut buckets = Enc::new();
    let id_count: usize = source.buckets.iter().map(|(_, ids)| ids.len()).sum();
    buckets.u64(source.buckets.iter().count() as u64);
    buckets.u64(id_count as u64);
    for (key, _) in source.buckets.iter() {
        buckets.u64(key);
    }
    for (_, ids) in source.buckets.iter() {
        buckets.u32(ids.len() as u32);
    }
    for (_, ids) in source.buckets.iter() {
        for &id in ids {
            buckets.u32(id);
        }
    }

    let payloads = [
        meta.into_bytes(),
        spans.into_bytes(),
        tables.into_bytes(),
        arena.into_bytes(),
        buckets.into_bytes(),
    ];

    let mut header = Enc::new();
    header.raw(SEGMENT_MAGIC);
    header.u16(SEGMENT_VERSION);
    header.u16(SECTION_COUNT as u16);
    header.u32(source.entries.len() as u32);
    let mut offset = SECTIONS_START as u64;
    for (id, payload) in SECTION_IDS.iter().zip(&payloads) {
        header.u32(*id);
        header.u64(offset);
        header.u64(payload.len() as u64);
        header.u32(crc32(payload));
        offset += payload.len() as u64;
    }
    debug_assert_eq!(header.as_bytes().len(), HEADER_BYTES);

    header.u32(crc32(header.as_bytes()));
    let mut out = header.into_bytes();
    for payload in &payloads {
        out.extend_from_slice(payload);
    }
    out
}

/// The validated fixed-size frame of a segment: entry count plus the
/// section table, checked to tile `[SECTIONS_START, file_len)` exactly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) entry_count: u32,
    /// `(offset, len)` per section, in fixed section order.
    pub(crate) sections: [(u64, u64); SECTION_COUNT],
    /// Stored CRC32 per section payload.
    pub(crate) crcs: [u32; SECTION_COUNT],
}

/// Whether the CRC stored after the section table matches the header
/// bytes. `head` must hold at least [`SECTIONS_START`] bytes.
fn header_crc_ok(head: &[u8]) -> bool {
    let stored = Dec::new(&head[HEADER_BYTES..SECTIONS_START], WHAT, "header").u32();
    stored == Ok(crc32(&head[..HEADER_BYTES]))
}

/// Parses the header from a *prefix* of the file — `head` must hold the
/// first `min(file_len, SECTIONS_START)` bytes. This is the entry point
/// of the fast open path, which never maps the whole file into memory:
/// magic, version, counts, section tiling against `file_len`, and
/// (unless `check_crc` is off, for inspection) the header CRC are all
/// validated from the 140-byte prefix alone.
pub(crate) fn parse_header(
    head: &[u8],
    file_len: u64,
    check_crc: bool,
) -> Result<Frame, StoreError> {
    let mut dec = Dec::new(head, WHAT, "header");
    if dec.bytes(8)? != SEGMENT_MAGIC {
        return Err(StoreError::BadMagic { what: WHAT });
    }
    let version = dec.u16()?;
    if version != SEGMENT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            what: WHAT,
            version,
        });
    }
    let section_count = dec.u16()?;
    if section_count as usize != SECTION_COUNT {
        return Err(corrupt(format!(
            "expected {SECTION_COUNT} sections, header declares {section_count}"
        )));
    }
    let entry_count = dec.u32()?;
    if head.len() < SECTIONS_START {
        return Err(StoreError::Truncated {
            what: WHAT,
            context: "section table",
        });
    }
    if check_crc && !header_crc_ok(head) {
        return Err(StoreError::CrcMismatch {
            what: WHAT,
            section: "header",
        });
    }

    dec.at("section table");
    let mut sections = [(0u64, 0u64); SECTION_COUNT];
    let mut crcs = [0u32; SECTION_COUNT];
    let mut expected = SECTIONS_START as u64;
    for (k, &want_id) in SECTION_IDS.iter().enumerate() {
        let id = dec.u32()?;
        let offset = dec.u64()?;
        let len = dec.u64()?;
        crcs[k] = dec.u32()?;
        if id != want_id {
            return Err(corrupt(format!(
                "section {k} has id {id}, expected {want_id}"
            )));
        }
        if offset != expected {
            return Err(corrupt(format!(
                "section {} at offset {offset}, expected {expected}",
                SECTION_NAMES[k]
            )));
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| corrupt(format!("section {} length overflows", SECTION_NAMES[k])))?;
        if end > file_len {
            return Err(StoreError::Truncated {
                what: WHAT,
                context: "sections",
            });
        }
        sections[k] = (offset, len);
        expected = end;
    }
    if expected != file_len {
        return Err(corrupt(format!(
            "{} bytes after the last section",
            file_len - expected
        )));
    }

    Ok(Frame {
        entry_count,
        sections,
        crcs,
    })
}

/// Entry count, `(offset, len)` per section, and per-section CRC status —
/// the section table of a whole in-memory segment image.
type ParsedFrame = (u32, [(usize, usize); SECTION_COUNT], [bool; SECTION_COUNT]);

fn parse_frame(bytes: &[u8], check_crcs: bool) -> Result<ParsedFrame, StoreError> {
    let head = &bytes[..bytes.len().min(SECTIONS_START)];
    let frame = parse_header(head, bytes.len() as u64, check_crcs)?;
    let mut sections = [(0usize, 0usize); SECTION_COUNT];
    let mut crc_ok = [false; SECTION_COUNT];
    for (k, &(off, len)) in frame.sections.iter().enumerate() {
        let (off, len) = (off as usize, len as usize);
        sections[k] = (off, len);
        crc_ok[k] = crc32(&bytes[off..off + len]) == frame.crcs[k];
        if check_crcs && !crc_ok[k] {
            return Err(StoreError::CrcMismatch {
                what: WHAT,
                section: SECTION_NAMES[k],
            });
        }
    }
    Ok((frame.entry_count, sections, crc_ok))
}

pub(crate) fn decode_meta(payload: &[u8]) -> Result<IndexConfig, StoreError> {
    let mut dec = Dec::new(payload, WHAT, "meta");
    let config = IndexConfig::decode(&mut dec)?;
    dec.finish()?;
    config
        .validate()
        .map_err(|err| corrupt(format!("meta config invalid: {err}")))?;
    Ok(config)
}

/// Decodes and validates the SPANS section: `entry_count` fixed-size
/// records, word/popcount totals overflow-checked.
pub(crate) fn decode_spans(payload: &[u8], entry_count: usize) -> Result<Vec<SpanRec>, StoreError> {
    let mut dec = Dec::new(payload, WHAT, "spans");
    dec.checked_count(entry_count as u64, SPAN_RECORD_BYTES)?;
    let mut spans = Vec::with_capacity(entry_count);
    let mut words_total = 0u64;
    let mut ones_total = 0u64;
    for _ in 0..entry_count {
        let cylinders = dec.u32()?;
        let words_per = dec.u32()?;
        let table_bytes = dec.u64()?;
        let table_crc = dec.u32()?;
        let pair_count = dec.u32()?;
        words_total = (cylinders as u64)
            .checked_mul(words_per as u64)
            .and_then(|w| words_total.checked_add(w))
            .ok_or_else(|| corrupt("span word totals overflow".to_string()))?;
        ones_total = ones_total
            .checked_add(cylinders as u64)
            .ok_or_else(|| corrupt("span popcount totals overflow".to_string()))?;
        spans.push(SpanRec {
            cylinders,
            words_per,
            table_bytes,
            table_crc,
            pair_count,
        });
    }
    dec.finish()?;
    Ok(spans)
}

/// Decodes one TABLES record (`record` is exactly the span-declared byte
/// range) into a validated [`PreparedPairTable`]. `at` labels errors with
/// the entry index. Shared by the eager full decode and the lazy
/// per-record loads — both therefore produce bit-identical tables.
pub(crate) fn decode_table_record(
    record: &[u8],
    at: usize,
) -> Result<PreparedPairTable, StoreError> {
    let mut dec = Dec::new(record, WHAT, "tables");
    let minutia_count = dec.u32()? as usize;
    let table_len = dec.u32()? as u64;
    let f64_at = |c: &[u8; 28], off: usize| {
        f64::from_bits(u64::from_le_bytes(
            c[off..off + 8].try_into().expect("8 bytes"),
        ))
    };
    let raw_entries = dec
        .at("pair entries")
        .records::<28>(table_len)?
        .map(|c| {
            let i = u16::from_le_bytes([c[24], c[25]]);
            let j = u16::from_le_bytes([c[26], c[27]]);
            (f64_at(&c, 0), f64_at(&c, 8), f64_at(&c, 16), i, j)
        })
        .collect();
    let directions = dec.at("directions").f64_slice(minutia_count as u64)?;
    let kinds = dec
        .at("kinds")
        .bytes(minutia_count)?
        .iter()
        .map(|&b| match b {
            0 => Ok(MinutiaKind::RidgeEnding),
            1 => Ok(MinutiaKind::Bifurcation),
            other => Err(corrupt(format!("entry {at}: unknown minutia kind {other}"))),
        })
        .collect::<Result<Vec<_>, _>>()?;
    dec.at("tables").finish()?;
    PreparedPairTable::from_raw_parts(raw_entries, directions, kinds, minutia_count)
        .map_err(|detail| corrupt(format!("entry {at}: {detail}")))
}

/// Decodes the ARENA section against the span totals and reassembles the
/// arena, which re-validates the tiling and every popcount *value*
/// against its words (`CodeArena::from_raw_parts`) — nothing past this
/// point handles loose words.
pub(crate) fn decode_arena(payload: &[u8], spans: &[SpanRec]) -> Result<CodeArena, StoreError> {
    let words_total: u64 = spans
        .iter()
        .map(|s| s.cylinders as u64 * s.words_per as u64)
        .sum();
    let ones_total: u64 = spans.iter().map(|s| s.cylinders as u64).sum();
    let mut dec = Dec::new(payload, WHAT, "arena");
    let words_len = dec.u64()?;
    let ones_len = dec.u64()?;
    if words_len != words_total || ones_len != ones_total {
        return Err(corrupt(format!(
            "arena declares {words_len} words / {ones_len} popcounts, spans sum to {words_total} / {ones_total}"
        )));
    }
    let words = dec.at("arena words").u64_slice(words_len)?;
    let ones = dec.at("arena popcounts").u32_slice(ones_len)?;
    dec.at("arena").finish()?;
    CodeArena::from_raw_parts(
        words,
        ones,
        spans.iter().map(|s| (s.cylinders, s.words_per)),
    )
    .map_err(corrupt)
}

/// Decodes the BUCKETS section straight into the index's table, which
/// validates it against the entry count (`FlatBuckets::from_raw_parts`),
/// then checks that entry `i` is registered exactly `spans[i].pair_count`
/// times: enrollment registers one key per pair feature, and the vote
/// score divides by that count.
pub(crate) fn decode_buckets(payload: &[u8], spans: &[SpanRec]) -> Result<FlatBuckets, StoreError> {
    let mut dec = Dec::new(payload, WHAT, "buckets");
    let key_count = dec.u64()?;
    let id_count = dec.u64()?;
    let keys = dec.at("bucket keys").u64_slice(key_count)?;
    let lens = dec.at("bucket lengths").u32_slice(key_count)?;
    let ids = dec.at("bucket ids").u32_slice(id_count)?;
    dec.at("buckets").finish()?;
    let buckets = FlatBuckets::from_raw_parts(keys, lens, ids, spans.len()).map_err(corrupt)?;
    let mut registered = vec![0u64; spans.len()];
    for (_, ids) in buckets.iter() {
        for &id in ids {
            registered[id as usize] += 1;
        }
    }
    let lie = spans
        .iter()
        .zip(registered)
        .enumerate()
        .find(|(_, (span, n))| u64::from(span.pair_count) != *n);
    match lie {
        Some((at, (span, n))) => Err(corrupt(format!(
            "entry {at}: buckets register {n} ids, spans declare {} pairs",
            span.pair_count
        ))),
        None => Ok(buckets),
    }
}

/// Fully decodes and validates a segment file image, including every
/// per-record table CRC stored in SPANS (so a segment that passes here can
/// never fail a lazy per-record check later).
pub(crate) fn decode_segment(bytes: &[u8]) -> Result<DecodedSegment, StoreError> {
    let (entry_count, sections, _) = parse_frame(bytes, true)?;
    let entry_count = entry_count as usize;
    let payload = |k: usize| -> &[u8] {
        let (off, len) = sections[k];
        &bytes[off..off + len]
    };

    let config = decode_meta(payload(0))?;
    let spans = decode_spans(payload(1), entry_count)?;

    // TABLES: one variable-length record per entry, sliced by the span
    // declaration and cross-checked against the per-record CRC.
    let mut tables = Dec::new(payload(2), WHAT, "tables");
    let mut entries = Vec::with_capacity(entry_count);
    for (at, span) in spans.iter().enumerate() {
        let record = tables.bytes(usize::try_from(span.table_bytes).unwrap_or(usize::MAX))?;
        if crc32(record) != span.table_crc {
            return Err(StoreError::CrcMismatch {
                what: WHAT,
                section: "table record",
            });
        }
        let table = decode_table_record(record, at)?;
        entries.push(DecodedEntry {
            table,
            pair_count: span.pair_count,
        });
    }
    tables.finish()?;

    Ok(DecodedSegment {
        config,
        entries,
        arena: decode_arena(payload(3), &spans)?,
        buckets: decode_buckets(payload(4), &spans)?,
    })
}

/// Validates a segment image end to end — framing, every checksum, and
/// all semantic invariants (sorted pair distances, canonical directions
/// and pair angles, in-range minutia references and bucket ids, ascending
/// bucket keys, bucket registrations matching the pair counts) — without
/// assembling an index. Returns the entry count. This is the
/// public fsck surface the corruption test-suite drives: **no** byte
/// flip, truncation, or hostile header may get past it, and none may
/// panic.
pub fn check_segment(bytes: &[u8]) -> Result<u32, StoreError> {
    decode_segment(bytes).map(|decoded| decoded.entries.len() as u32)
}

/// Structural summary of a segment without requiring every checksum to
/// hold: framing errors (magic, version, truncation, hostile section
/// layout) are still typed errors, but CRC failures are *reported* per
/// section rather than aborting — `study gallery inspect` uses this to
/// show which section of a damaged file rotted.
pub fn inspect_segment(bytes: &[u8]) -> Result<SegmentInspect, StoreError> {
    let (entry_count, sections, crc_ok) = parse_frame(bytes, false)?;
    Ok(SegmentInspect {
        version: SEGMENT_VERSION,
        entry_count,
        file_bytes: bytes.len() as u64,
        header_crc_ok: header_crc_ok(bytes),
        sections: sections
            .iter()
            .zip(SECTION_NAMES)
            .zip(crc_ok)
            .map(|(((_, len), name), crc_ok)| SectionInspect {
                name,
                bytes: *len as u64,
                crc_ok,
            })
            .collect(),
    })
}
