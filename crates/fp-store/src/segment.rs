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
//! u32, table_bytes u64, table_crc u32, pair_count u32` (`words_per` is
//! `fp_index::LANE_WORDS` for a coded entry and 0 for an empty one, and
//! `CodeArena::from_raw_parts` refuses any other) — carrying
//! everything stage-1 and the arena need about an entry *plus* the length
//! and CRC32 of that entry's variable-length TABLES record. That is how
//! every reader works (`read_head`): having verified the tiny SPANS
//! section it leaves the TABLES section (the dominant share of the file)
//! on disk and slices, checksums, and decodes individual records on
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
use fp_index::{CodeArena, CodeView, FlatBuckets, IndexConfig, LANE_WORDS};
use fp_match::{PairTableConfig, PreparedPairTable};
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
const SECTIONS_START: usize = HEADER_BYTES + 4;
const WHAT: &str = "segment";

fn corrupt(detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        what: WHAT,
        detail: detail.into(),
    }
}

/// One entry as a segment persists it: its TABLES record, and its codes
/// borrowed from an arena.
pub(crate) struct EntrySource<'a> {
    /// The entry's TABLES record: [`encode_table`]'s bytes, or a record
    /// compaction read and checked.
    pub(crate) record: Vec<u8>,
    /// Vote-normalization denominator ([`fp_index`]'s feature count for
    /// this entry — not in general derivable from its table).
    pub(crate) pair_count: u32,
    /// This entry's packed cylinder codes, as its arena hands them out.
    pub(crate) codes: CodeView<'a>,
}

/// One decoded SPANS record: the fixed-size per-entry facts.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    cylinders: u32,
    words_per: u32,
    /// Length of this entry's TABLES record in bytes.
    table_bytes: u64,
    /// CRC32 of this entry's TABLES record — lets a reader verify a
    /// single record without touching the rest of the section.
    table_crc: u32,
    pair_count: u32,
}

/// Byte size of one SPANS record.
const SPAN_RECORD_BYTES: usize = 24;

/// Where one entry's TABLES record lies in its file, and its SPANS CRC.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TableRecord {
    pub(crate) offset: u64,
    pub(crate) len: usize,
    pub(crate) crc: u32,
}

/// A segment read and validated but for its TABLES records, which
/// [`read_head`] locates and leaves on disk.
#[derive(Debug)]
pub(crate) struct SegmentHead {
    pub(crate) config: IndexConfig,
    /// Each entry's SPANS pair count, in entry order.
    pub(crate) pair_counts: Vec<u32>,
    pub(crate) arena: CodeArena,
    pub(crate) buckets: FlatBuckets,
    /// Each entry's TABLES record, in entry order; together they tile the
    /// TABLES section.
    pub(crate) records: Vec<TableRecord>,
    pub(crate) frame: Frame,
    /// Bytes read: the file less its TABLES section.
    pub(crate) bytes_read: u64,
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

/// `table` as one TABLES record.
pub(crate) fn encode_table(table: &PreparedPairTable) -> Vec<u8> {
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

/// Serializes a complete segment file image: `entries` in entry order,
/// each taken once (so at most one record is held beside the image being
/// built), and the bucket table over them. The first entry that is an
/// error fails the image.
pub(crate) fn encode_segment<'a>(
    config: IndexConfig,
    entries: impl Iterator<Item = Result<EntrySource<'a>, StoreError>>,
    bucket_table: &FlatBuckets,
) -> Result<Vec<u8>, StoreError> {
    let mut meta = Enc::new();
    config.encode(&mut meta);

    let mut entry_count = 0u32;
    let mut spans = Enc::new();
    let mut tables = Enc::new();
    let (mut words, mut ones) = (Enc::new(), Enc::new());
    let (mut words_len, mut ones_len) = (0u64, 0u64);
    for entry in entries {
        let entry = entry?;
        entry_count += 1;
        spans.u32(entry.codes.len() as u32);
        let words_per = if entry.codes.is_empty() {
            0
        } else {
            LANE_WORDS
        };
        spans.u32(words_per as u32);
        spans.u64(entry.record.len() as u64);
        spans.u32(crc32(&entry.record));
        spans.u32(entry.pair_count);
        tables.raw(&entry.record);
        for &w in entry.codes.words() {
            words.u64(w);
        }
        for &o in entry.codes.ones() {
            ones.u32(o);
        }
        words_len += entry.codes.words().len() as u64;
        ones_len += entry.codes.len() as u64;
    }

    let mut arena = Enc::new();
    arena.u64(words_len);
    arena.u64(ones_len);
    arena.raw(words.as_bytes());
    arena.raw(ones.as_bytes());

    let mut buckets = Enc::new();
    let id_count: usize = bucket_table.iter().map(|(_, ids)| ids.len()).sum();
    buckets.u64(bucket_table.iter().count() as u64);
    buckets.u64(id_count as u64);
    for (key, _) in bucket_table.iter() {
        buckets.u64(key);
    }
    for (_, ids) in bucket_table.iter() {
        buckets.u32(ids.len() as u32);
    }
    for (_, ids) in bucket_table.iter() {
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
    header.u32(entry_count);
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
    out.reserve_exact(offset as usize - SECTIONS_START);
    for payload in &payloads {
        out.extend_from_slice(payload);
    }
    Ok(out)
}

/// The validated fixed-size frame of a segment: entry count plus the
/// section table, checked to tile `[SECTIONS_START, file_len)` exactly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) entry_count: u32,
    /// `(offset, len)` per section, in fixed section order.
    pub(crate) sections: [(u64, u64); SECTION_COUNT],
    /// Stored CRC32 per section payload.
    crcs: [u32; SECTION_COUNT],
}

impl Frame {
    /// Checks section `k`'s payload against its stored CRC32.
    fn check(&self, k: usize, payload: &[u8]) -> Result<(), StoreError> {
        if crc32(payload) == self.crcs[k] {
            Ok(())
        } else {
            Err(StoreError::CrcMismatch {
                what: WHAT,
                section: SECTION_NAMES[k],
            })
        }
    }
}

/// Whether the CRC stored after the section table matches the header
/// bytes. `head` must hold at least [`SECTIONS_START`] bytes.
fn header_crc_ok(head: &[u8]) -> bool {
    let stored = Dec::new(&head[HEADER_BYTES..SECTIONS_START], WHAT, "header").u32();
    stored == Ok(crc32(&head[..HEADER_BYTES]))
}

/// Parses the header from a *prefix* of the file — `head` must hold the
/// first `min(file_len, SECTIONS_START)` bytes. This is the entry point
/// of [`read_head`], which never reads the whole file: magic, version,
/// counts, section tiling against `file_len`, and (unless `check_crc` is
/// off, for inspection) the header CRC are all validated from the
/// 140-byte prefix alone.
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

/// Reads and validates a segment of `file_len` bytes but for its TABLES
/// records, through `read_at(buf, offset)`, which fills `buf` from the
/// file at `offset`: the header, then META+SPANS and ARENA+BUCKETS, each
/// run one read (the sections tile the file in order META, SPANS, TABLES,
/// ARENA, BUCKETS, as `parse_header` checked), each section checked
/// against its CRC and decoded. The TABLES records are located from SPANS
/// and must tile the section exactly, so a rotten span table cannot direct
/// a read past it.
pub(crate) fn read_head(
    file_len: u64,
    read_at: impl Fn(&mut [u8], u64) -> std::io::Result<()>,
) -> Result<SegmentHead, StoreError> {
    let mut head = vec![0u8; SECTIONS_START.min(file_len as usize)];
    read_at(&mut head, 0)?;
    let frame = parse_header(&head, file_len, true)?;
    let [meta, spans, tables, arena, buckets] = frame.sections;
    // Sections `lo` and `lo + 1`, read as one run and checked.
    let run = |lo: usize| -> Result<(Vec<u8>, usize), StoreError> {
        let (base, first) = frame.sections[lo];
        let mut run = vec![0u8; (first + frame.sections[lo + 1].1) as usize];
        read_at(&mut run, base)?;
        frame.check(lo, &run[..first as usize])?;
        frame.check(lo + 1, &run[first as usize..])?;
        Ok((run, first as usize))
    };
    let (meta_spans, at) = run(0)?;
    let (arena_buckets, split) = run(3)?;

    let config = decode_meta(&meta_spans[..at])?;
    let span_recs = decode_spans(&meta_spans[at..], frame.entry_count as usize)?;
    let arena_table = decode_arena(&arena_buckets[..split], &span_recs)?;
    let bucket_table = decode_buckets(&arena_buckets[split..], &span_recs)?;

    let tables_end = tables.0 + tables.1;
    let mut records = Vec::with_capacity(span_recs.len());
    let mut offset = tables.0;
    for span in &span_recs {
        let end = offset
            .checked_add(span.table_bytes)
            .filter(|&end| end <= tables_end)
            .ok_or(StoreError::Truncated {
                what: WHAT,
                context: "tables",
            })?;
        records.push(TableRecord {
            offset,
            len: span.table_bytes as usize,
            crc: span.table_crc,
        });
        offset = end;
    }
    if offset != tables_end {
        return Err(corrupt(format!(
            "tables: {} trailing bytes",
            tables_end - offset
        )));
    }
    Ok(SegmentHead {
        config,
        pair_counts: span_recs.iter().map(|s| s.pair_count).collect(),
        arena: arena_table,
        buckets: bucket_table,
        records,
        frame,
        bytes_read: head.len() as u64 + meta.1 + spans.1 + arena.1 + buckets.1,
    })
}

fn decode_meta(payload: &[u8]) -> Result<IndexConfig, StoreError> {
    let mut dec = Dec::new(payload, WHAT, "meta");
    let config = IndexConfig::decode(&mut dec)?;
    dec.finish()?;
    // Validated for the matcher every opened store searches with.
    config
        .validate(&PairTableConfig::default())
        .map_err(|err| corrupt(format!("meta config invalid: {err}")))?;
    Ok(config)
}

/// Decodes and validates the SPANS section: `entry_count` fixed-size
/// records, word/popcount totals overflow-checked.
fn decode_spans(payload: &[u8], entry_count: usize) -> Result<Vec<SpanRec>, StoreError> {
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

/// Checks one TABLES record (`record` is exactly the span-declared byte
/// range) against its SPANS CRC and decodes it into a validated
/// [`PreparedPairTable`]. `at` labels errors with the entry index. Every
/// table load, compaction's pass-through and [`check_segment`] come
/// through here.
pub(crate) fn decode_table_record(
    record: &[u8],
    crc: u32,
    at: usize,
) -> Result<PreparedPairTable, StoreError> {
    if crc32(record) != crc {
        return Err(StoreError::CrcMismatch {
            what: WHAT,
            section: "table record",
        });
    }
    let mut dec = Dec::new(record, WHAT, "tables");
    let minutia_count = dec.u32()? as usize;
    let table_len = dec.u32()? as u64;
    let f64_at = |c: &[u8; 28], off: usize| {
        f64::from_bits(u64::from_le_bytes(std::array::from_fn(|k| c[off + k])))
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
fn decode_arena(payload: &[u8], spans: &[SpanRec]) -> Result<CodeArena, StoreError> {
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
fn decode_buckets(payload: &[u8], spans: &[SpanRec]) -> Result<FlatBuckets, StoreError> {
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

/// Validates a segment image end to end — framing, every checksum, and
/// all semantic invariants (sorted pair distances, canonical directions
/// and pair angles, in-range minutia references and bucket ids, ascending
/// bucket keys, bucket registrations matching the pair counts) — without
/// assembling an index: `read_head`, the TABLES section's CRC, then
/// every record through `decode_table_record`, as an open and its table
/// loads would read them. Returns the entry count. This is the public
/// fsck surface the corruption test-suite drives: **no** byte flip,
/// truncation, or hostile header may get past it, and none may panic.
pub fn check_segment(bytes: &[u8]) -> Result<u32, StoreError> {
    let slice = |offset: u64, len: usize| &bytes[offset as usize..][..len];
    let head = read_head(bytes.len() as u64, |buf, offset| {
        buf.copy_from_slice(slice(offset, buf.len()));
        Ok(())
    })?;
    let (offset, len) = head.frame.sections[2];
    head.frame.check(2, slice(offset, len as usize))?;
    for (at, record) in head.records.iter().enumerate() {
        decode_table_record(slice(record.offset, record.len), record.crc, at)?;
    }
    Ok(head.frame.entry_count)
}

/// Structural summary of a segment without requiring every checksum to
/// hold: framing errors (magic, version, truncation, hostile section
/// layout) are still typed errors, but CRC failures are *reported* per
/// section rather than aborting — `study gallery inspect` uses this to
/// show which section of a damaged file rotted.
pub fn inspect_segment(bytes: &[u8]) -> Result<SegmentInspect, StoreError> {
    let head = &bytes[..bytes.len().min(SECTIONS_START)];
    let frame = parse_header(head, bytes.len() as u64, false)?;
    Ok(SegmentInspect {
        version: SEGMENT_VERSION,
        entry_count: frame.entry_count,
        file_bytes: bytes.len() as u64,
        header_crc_ok: header_crc_ok(bytes),
        sections: frame
            .sections
            .iter()
            .enumerate()
            .map(|(k, &(offset, len))| SectionInspect {
                name: SECTION_NAMES[k],
                bytes: len,
                crc_ok: frame
                    .check(k, &bytes[offset as usize..][..len as usize])
                    .is_ok(),
            })
            .collect(),
    })
}
