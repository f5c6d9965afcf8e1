//! The gallery store: a directory of immutable segments plus a manifest.
//!
//! ```text
//! gallery/
//!   MANIFEST          which segments are live, which entries are dead
//!   seg-00000000.fpseg
//!   seg-00000001.fpseg
//! ```
//!
//! # Parity contract
//!
//! Opening a store yields an index **byte-identical** to fresh in-memory
//! enrollment of the live entries in live order (segment order, then
//! entry order within a segment, tombstones skipped): same candidate
//! lists, same RUNFP chain. The argument: per-entry stage-1 and stage-2
//! scores are pure functions of `(probe, entry, config)`, segments
//! persist entries in index-native form (bit-exact prepared tables,
//! packed code words, popcounts, buckets), and the open path remaps ids
//! densely in the same order fresh enrollment would assign them — so
//! every array the search kernels read is bitwise equal to the
//! fresh-enrollment one. `study check-store` enforces this end to end.
//!
//! # Fast open
//!
//! A compacted store (one segment, no tombstones) needs no remapping, so
//! [`GalleryStore::open_index`] takes a lazy path: it preads only the
//! header, META, SPANS, ARENA, and BUCKETS sections (CRC-verified), and
//! defers the TABLES section — by far the largest — entirely. Stage 1
//! never touches prepared tables; stage 2 demand-loads each shortlisted
//! entry's table record by offset (from SPANS) with a per-record CRC
//! check. The shared `decode_table_record` guarantees a demand-loaded
//! table is bit-identical to the eagerly decoded one, so search results
//! (and the RUNFP chain) are unchanged; `check_segment` validates every
//! per-record CRC up front, so a segment that passes fsck can only fail a
//! lazy load if the file rots *after* open (reported by panic, the only
//! channel available mid-search). Multi-segment or tombstoned stores use
//! the eager whole-file path.

use std::fs;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fp_core::codec::crc32;
use fp_index::{
    CandidateIndex, CodeArena, FlatBuckets, IndexConfig, ShardedIndex, StoredTables, TableLoader,
};
use fp_match::{PairTableMatcher, PreparedPairTable};
use fp_telemetry::{Counter, DurationHistogram, Telemetry};
use serde::Serialize;

use crate::error::StoreError;
use crate::manifest::{Manifest, SegmentMeta, MANIFEST_NAME};
use crate::segment::{
    decode_arena, decode_buckets, decode_meta, decode_segment, decode_spans, decode_table_record,
    encode_segment, inspect_segment, parse_header, DecodedSegment, EntrySource, SegmentInspect,
    SegmentSource, SECTIONS_START,
};

fn corrupt(what: &'static str, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        what,
        detail: detail.into(),
    }
}

/// Pre-registered instruments for the store (all inert by default).
#[derive(Debug, Clone, Default)]
struct StoreMetrics {
    /// `store.segments.written` — segment files written (append + compact).
    segments_written: Counter,
    /// `store.segments.loaded` — segment files decoded on open paths.
    segments_loaded: Counter,
    /// `store.load.bytes` — segment bytes read and decoded.
    load_bytes: Counter,
    /// `store.tombstones` — tombstones appended.
    tombstones: Counter,
    /// `store.load.seconds` — wall time per open (index assembly included).
    load_time: DurationHistogram,
    /// `store.save.seconds` — wall time per segment append.
    save_time: DurationHistogram,
    /// `store.compact.runs` — compactions that actually rewrote segments.
    compactions: Counter,
    /// `store.compact.seconds` — wall time per compaction.
    compact_time: DurationHistogram,
    /// Handle for flight-recorder spans around load/save/compact.
    telemetry: Telemetry,
}

impl StoreMetrics {
    fn new(telemetry: &Telemetry) -> StoreMetrics {
        StoreMetrics {
            segments_written: telemetry.counter("store.segments.written"),
            segments_loaded: telemetry.counter("store.segments.loaded"),
            load_bytes: telemetry.counter("store.load.bytes"),
            tombstones: telemetry.counter("store.tombstones"),
            load_time: telemetry.duration("store.load.seconds"),
            save_time: telemetry.duration("store.save.seconds"),
            compactions: telemetry.counter("store.compact.runs"),
            compact_time: telemetry.duration("store.compact.seconds"),
            telemetry: telemetry.clone(),
        }
    }
}

/// What a [`GalleryStore::compact`] run did.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CompactStats {
    /// Segment files before / after (after is 0 when every entry was
    /// tombstoned, else 1).
    pub segments_before: usize,
    /// Segment files after compaction.
    pub segments_after: usize,
    /// Tombstoned entries physically reclaimed.
    pub entries_dropped: usize,
    /// Total segment bytes before.
    pub bytes_before: u64,
    /// Total segment bytes after.
    pub bytes_after: u64,
}

/// One segment file's health in a [`GalleryInspect`].
#[derive(Debug, Clone, Serialize)]
pub struct SegmentFileInspect {
    /// Segment sequence number.
    pub seq: u32,
    /// File name inside the gallery directory.
    pub file: String,
    /// Entry count the manifest records for this segment.
    pub manifest_entry_count: u32,
    /// Tombstones pointing into this segment.
    pub tombstones: u32,
    /// Structural summary decoded from the file itself.
    pub segment: SegmentInspect,
}

/// Full structural summary of a gallery directory
/// (`study gallery inspect`).
#[derive(Debug, Clone, Serialize)]
pub struct GalleryInspect {
    /// Next segment sequence number the manifest will hand out.
    pub next_seq: u32,
    /// Live (non-tombstoned) entries.
    pub live_entries: u64,
    /// Total tombstones across all segments.
    pub tombstone_count: u64,
    /// Per-segment detail.
    pub segments: Vec<SegmentFileInspect>,
}

impl GalleryInspect {
    /// Whether every CRC in every segment checks out.
    pub fn all_crc_ok(&self) -> bool {
        self.segments
            .iter()
            .all(|s| s.segment.header_crc_ok && s.segment.sections.iter().all(|sec| sec.crc_ok))
    }
}

/// The one seam every open path crosses into `fp-index`: hands the decoded
/// parts to [`CandidateIndex::from_store_parts`], which validates the
/// stored config (`decode_arena` validated the arena).
fn assemble_index(
    config: IndexConfig,
    pair_counts: Vec<u32>,
    tables: StoredTables<PreparedPairTable>,
    arena: CodeArena,
    buckets: FlatBuckets,
) -> Result<CandidateIndex<PairTableMatcher>, StoreError> {
    CandidateIndex::from_store_parts(
        PairTableMatcher::default(),
        config,
        pair_counts,
        tables,
        arena,
        buckets,
    )
    .map_err(|err| corrupt("segment", format!("stored config invalid: {err}")))
}

/// A persistent on-disk gallery: immutable segments + tombstone manifest.
#[derive(Debug)]
pub struct GalleryStore {
    dir: PathBuf,
    manifest: Manifest,
    metrics: StoreMetrics,
}

/// The survivors of every live segment, concatenated in live order with
/// densely remapped ids — exactly the arrays a fresh enrollment of the
/// survivors would have produced.
struct LoadedGallery {
    config: IndexConfig,
    tables: Vec<PreparedPairTable>,
    pair_counts: Vec<u32>,
    arena: CodeArena,
    buckets: FlatBuckets,
    bytes_read: u64,
    segments_read: u64,
}

impl GalleryStore {
    /// Creates a fresh gallery directory (the directory itself may exist;
    /// a manifest must not).
    pub fn create(dir: impl Into<PathBuf>) -> Result<GalleryStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        if dir.join(MANIFEST_NAME).exists() {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("{} already holds a gallery manifest", dir.display()),
            )));
        }
        let manifest = Manifest::default();
        manifest.save(&dir)?;
        Ok(GalleryStore {
            dir,
            manifest,
            metrics: StoreMetrics::default(),
        })
    }

    /// Opens an existing gallery directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<GalleryStore, StoreError> {
        let dir = dir.into();
        let manifest = Manifest::load(&dir)?;
        Ok(GalleryStore {
            dir,
            manifest,
            metrics: StoreMetrics::default(),
        })
    }

    /// Opens the gallery at `dir`, creating an empty one if no manifest
    /// exists yet.
    pub fn open_or_create(dir: impl Into<PathBuf>) -> Result<GalleryStore, StoreError> {
        let dir = dir.into();
        if dir.join(MANIFEST_NAME).exists() {
            GalleryStore::open(dir)
        } else {
            GalleryStore::create(dir)
        }
    }

    /// Registers the store's instruments (`store.*`) on `telemetry`.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.metrics = StoreMetrics::new(telemetry);
        self
    }

    /// The gallery directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Live segments, seq ascending.
    pub fn segments(&self) -> Vec<SegmentMeta> {
        self.manifest.segments.clone()
    }

    /// Live (non-tombstoned) entries across all segments.
    pub fn live_len(&self) -> usize {
        self.manifest.live_len()
    }

    /// Tombstones currently outstanding.
    pub fn tombstone_count(&self) -> usize {
        self.manifest.tombstones.len()
    }

    /// Persists the full state of `index` as one new immutable segment
    /// and registers it in the manifest. Returns the segment's sequence
    /// number.
    pub fn append_index(
        &mut self,
        index: &CandidateIndex<PairTableMatcher>,
    ) -> Result<u32, StoreError> {
        let start = Instant::now();
        let seq = self.manifest.next_seq;
        let _span = self.metrics.telemetry.trace_span(
            "store.save",
            &[
                ("seq", seq.to_string()),
                ("entries", index.len().to_string()),
            ],
        );

        let image = encode_segment(&SegmentSource {
            config: *index.config(),
            entries: EntrySource::zip_arena(index.store_entries(), index.arena()),
            buckets: index.buckets(),
        });

        self.write_segment_file(seq, &image)?;
        self.manifest.segments.push(SegmentMeta {
            seq,
            entry_count: index.len() as u32,
        });
        self.manifest.next_seq += 1;
        self.manifest.save(&self.dir)?;
        self.metrics.segments_written.incr();
        self.metrics.save_time.record(start.elapsed());
        Ok(seq)
    }

    fn write_segment_file(&self, seq: u32, image: &[u8]) -> Result<(), StoreError> {
        let path = Manifest::segment_path(&self.dir, seq);
        let tmp = path.with_extension("fpseg.tmp");
        fs::write(&tmp, image)?;
        fs::rename(&tmp, &path)?;
        Ok(())
    }

    /// Marks entry `index` of segment `seq` dead. Returns `false` if it
    /// was already tombstoned. The segment file is untouched — the entry
    /// is reclaimed physically by [`compact`](Self::compact).
    pub fn tombstone(&mut self, seq: u32, index: u32) -> Result<bool, StoreError> {
        let Some(seg) = self.manifest.segments.iter().find(|s| s.seq == seq) else {
            return Err(corrupt(
                "manifest",
                format!("tombstone targets unknown segment {seq}"),
            ));
        };
        if index >= seg.entry_count {
            return Err(corrupt(
                "manifest",
                format!(
                    "tombstone index {index} out of range for segment {seq} ({} entries)",
                    seg.entry_count
                ),
            ));
        }
        if !self.manifest.tombstones.insert((seq, index)) {
            return Ok(false);
        }
        self.manifest.save(&self.dir)?;
        self.metrics.tombstones.incr();
        Ok(true)
    }

    fn read_segment(&self, seq: u32) -> Result<(Vec<u8>, DecodedSegment), StoreError> {
        let bytes = fs::read(Manifest::segment_path(&self.dir, seq))?;
        let decoded = decode_segment(&bytes)?;
        Ok((bytes, decoded))
    }

    /// Decodes every live segment and concatenates the survivors in live
    /// order with dense ids.
    fn load(&self) -> Result<LoadedGallery, StoreError> {
        let mut config: Option<IndexConfig> = None;
        let mut tables = Vec::new();
        let mut pair_counts = Vec::new();
        let mut arena = CodeArena::new();
        let mut buckets = FlatBuckets::default();
        let mut bytes_read = 0u64;
        let mut next_id = 0u32;

        for seg in &self.manifest.segments {
            let (bytes, decoded) = self.read_segment(seg.seq)?;
            bytes_read += bytes.len() as u64;
            if decoded.entries.len() != seg.entry_count as usize {
                return Err(corrupt(
                    "manifest",
                    format!(
                        "segment {} packs {} entries, manifest declares {}",
                        seg.seq,
                        decoded.entries.len(),
                        seg.entry_count
                    ),
                ));
            }
            match config {
                None => config = Some(decoded.config),
                Some(ref first) if *first != decoded.config => {
                    return Err(corrupt(
                        "segment",
                        format!("segment {} config differs from the gallery's", seg.seq),
                    ));
                }
                Some(_) => {}
            }

            // Dense remap in live order: tombstoned entries get no id.
            let mut remap = vec![None; decoded.entries.len()];
            for (at, entry) in decoded.entries.iter().enumerate() {
                if self.manifest.tombstones.contains(&(seg.seq, at as u32)) {
                    continue;
                }
                remap[at] = Some(next_id);
                next_id += 1;
                arena.push_view(decoded.arena.entry(at));
                tables.push(entry.table.clone());
                pair_counts.push(entry.pair_count);
            }
            // Segments are processed in live order and ids assigned in the
            // same order, so this segment's survivors rank after every id
            // merged so far: appending them keeps each bucket in the
            // ascending-id order fresh enrollment would have produced.
            buckets.append(decoded.buckets.remap(|id| remap[id as usize]));
        }

        Ok(LoadedGallery {
            config: config.unwrap_or_default(),
            tables,
            pair_counts,
            arena,
            buckets,
            bytes_read,
            segments_read: self.manifest.segments.len() as u64,
        })
    }

    fn record_load(&self, segments_read: u64, bytes_read: u64, start: Instant) {
        self.metrics.segments_loaded.add(segments_read);
        self.metrics.load_bytes.add(bytes_read);
        self.metrics.load_time.record(start.elapsed());
    }

    /// Assembles the live view as one in-memory [`CandidateIndex`] —
    /// candidate lists and RUNFP chain byte-identical to fresh enrollment
    /// of the survivors in live order. An empty store opens as an empty
    /// index with the default config.
    ///
    /// A compacted store (exactly one segment, no tombstones) opens
    /// through the lazy fast path, deferring the TABLES section to
    /// demand-time per-record loads (see the module docs for the parity
    /// argument and failure policy).
    pub fn open_index(&self) -> Result<CandidateIndex<PairTableMatcher>, StoreError> {
        let start = Instant::now();
        let _span = self.metrics.telemetry.trace_span(
            "store.load",
            &[
                ("segments", self.manifest.segments.len().to_string()),
                ("live", self.live_len().to_string()),
            ],
        );
        if let [seg] = self.manifest.segments.as_slice() {
            if self.manifest.tombstones.is_empty() {
                let (index, bytes_read) = self.open_index_lazy(*seg)?;
                self.record_load(1, bytes_read, start);
                return Ok(index);
            }
        }
        let loaded = self.load()?;
        let index = assemble_index(
            loaded.config,
            loaded.pair_counts,
            StoredTables::Ready(loaded.tables),
            loaded.arena,
            loaded.buckets,
        )?;
        self.record_load(loaded.segments_read, loaded.bytes_read, start);
        Ok(index)
    }

    /// The fast open path for a compacted store: preads and CRC-verifies
    /// only the header + META + SPANS + ARENA + BUCKETS sections (a few
    /// percent of the file at study scale) and installs a
    /// [`TableLoader`] that demand-loads individual TABLES records by
    /// span offset, each verified against its per-record CRC from SPANS.
    /// Returns the index and the bytes actually read eagerly.
    fn open_index_lazy(
        &self,
        seg: SegmentMeta,
    ) -> Result<(CandidateIndex<PairTableMatcher>, u64), StoreError> {
        let path = Manifest::segment_path(&self.dir, seg.seq);
        let file = fs::File::open(&path)?;
        let file_len = file.metadata()?.len();

        let mut head = vec![0u8; SECTIONS_START.min(file_len as usize)];
        file.read_exact_at(&mut head, 0)?;
        let frame = parse_header(&head, file_len, true)?;
        if frame.entry_count != seg.entry_count {
            return Err(corrupt(
                "manifest",
                format!(
                    "segment {} packs {} entries, manifest declares {}",
                    seg.seq, frame.entry_count, seg.entry_count
                ),
            ));
        }
        let entry_count = frame.entry_count as usize;

        // Sections tile the file in order META, SPANS, TABLES, ARENA,
        // BUCKETS (parse_header validated the tiling), so the two eager
        // runs — META+SPANS and ARENA+BUCKETS — are each one contiguous
        // pread.
        let read_run = |lo: usize, hi: usize| -> Result<Vec<Vec<u8>>, StoreError> {
            let base = frame.sections[lo].0;
            let len: u64 = frame.sections[lo..=hi].iter().map(|&(_, len)| len).sum();
            let mut run = vec![0u8; len as usize];
            file.read_exact_at(&mut run, base)?;
            let mut out = Vec::with_capacity(hi - lo + 1);
            let mut cursor = 0usize;
            for k in lo..=hi {
                let len = frame.sections[k].1 as usize;
                let payload = run[cursor..cursor + len].to_vec();
                cursor += len;
                if crc32(&payload) != frame.crcs[k] {
                    return Err(StoreError::CrcMismatch {
                        what: "segment",
                        section: ["meta", "spans", "tables", "arena", "buckets"][k],
                    });
                }
                out.push(payload);
            }
            Ok(out)
        };
        let mut meta_spans = read_run(0, 1)?;
        let spans_payload = meta_spans.pop().unwrap();
        let meta_payload = meta_spans.pop().unwrap();
        let mut arena_buckets = read_run(3, 4)?;
        let buckets_payload = arena_buckets.pop().unwrap();
        let arena_payload = arena_buckets.pop().unwrap();
        let bytes_read = (head.len()
            + meta_payload.len()
            + spans_payload.len()
            + arena_payload.len()
            + buckets_payload.len()) as u64;

        let config = decode_meta(&meta_payload)?;
        let spans = decode_spans(&spans_payload, entry_count)?;
        let arena = decode_arena(&arena_payload, &spans)?;
        let buckets = decode_buckets(&buckets_payload, &spans)?;
        let pair_counts: Vec<u32> = spans.iter().map(|s| s.pair_count).collect();

        // (record offset, record length, stored CRC) per entry, offsets
        // absolute in the file. The sum telescopes to the TABLES length —
        // enforced so a rotten span table cannot direct preads past the
        // section.
        let tables_end = frame.sections[2].0 + frame.sections[2].1;
        let mut records = Vec::with_capacity(entry_count);
        let mut rec_off = frame.sections[2].0;
        for span in &spans {
            let end = rec_off
                .checked_add(span.table_bytes)
                .filter(|&e| e <= tables_end)
                .ok_or(StoreError::Truncated {
                    what: "segment",
                    context: "tables",
                })?;
            records.push((rec_off, span.table_bytes as usize, span.table_crc));
            rec_off = end;
        }
        if rec_off != tables_end {
            return Err(corrupt(
                "segment",
                format!("tables: {} trailing bytes", tables_end - rec_off),
            ));
        }

        let seq = seg.seq;
        let shared = Arc::new((file, records, path));
        let loader = TableLoader::new(move |id: u32| {
            let (file, records, path) = &*shared;
            let (off, len, crc) = records[id as usize];
            let mut record = vec![0u8; len];
            file.read_exact_at(&mut record, off).unwrap_or_else(|err| {
                panic!(
                    "segment {seq} ({}): entry {id} table read failed after open: {err}",
                    path.display()
                )
            });
            if crc32(&record) != crc {
                panic!(
                    "segment {seq} ({}): entry {id} table CRC mismatch after open \
                     (file changed under a live index)",
                    path.display()
                );
            }
            decode_table_record(&record, id as usize).unwrap_or_else(|err| {
                panic!(
                    "segment {seq} ({}): entry {id} table corrupt after open: {err}",
                    path.display()
                )
            })
        });

        let index = assemble_index(
            config,
            pair_counts,
            StoredTables::Lazy(loader),
            arena,
            buckets,
        )?;
        Ok((index, bytes_read))
    }

    /// Assembles the live view as a [`ShardedIndex`] over `shard_count`
    /// shards — the survivors are dealt round-robin by dense id, exactly
    /// as sequential [`ShardedIndex::enroll`] calls would have.
    pub fn open_sharded(
        &self,
        shard_count: usize,
    ) -> Result<ShardedIndex<PairTableMatcher>, StoreError> {
        assert!(shard_count >= 1, "need at least one shard");
        let start = Instant::now();
        let _span = self.metrics.telemetry.trace_span(
            "store.load",
            &[
                ("segments", self.manifest.segments.len().to_string()),
                ("live", self.live_len().to_string()),
                ("shards", shard_count.to_string()),
            ],
        );
        let loaded = self.load()?;
        let (segments_read, bytes_read) = (loaded.segments_read, loaded.bytes_read);

        #[derive(Default)]
        struct ShardParts {
            tables: Vec<PreparedPairTable>,
            pair_counts: Vec<u32>,
            arena: CodeArena,
        }
        let mut parts: Vec<ShardParts> = (0..shard_count).map(|_| ShardParts::default()).collect();

        let entries = loaded.tables.into_iter().zip(loaded.pair_counts);
        for (global, (table, pair_count)) in entries.enumerate() {
            let shard = &mut parts[global % shard_count];
            shard.arena.push_view(loaded.arena.entry(global));
            shard.tables.push(table);
            shard.pair_counts.push(pair_count);
        }

        let shards = parts
            .into_iter()
            .zip(loaded.buckets.deal(shard_count))
            .map(|(p, buckets)| {
                assemble_index(
                    loaded.config,
                    p.pair_counts,
                    StoredTables::Ready(p.tables),
                    p.arena,
                    buckets,
                )
            })
            .collect::<Result<Vec<_>, StoreError>>()?;
        self.record_load(segments_read, bytes_read, start);
        Ok(ShardedIndex::from_shards(shards))
    }

    /// Merges every live segment's survivors into one fresh segment,
    /// drops the tombstones, and deletes the old segment files. A no-op
    /// when the store already has at most one segment and no tombstones.
    /// The live view (and its search behavior) is unchanged.
    pub fn compact(&mut self) -> Result<CompactStats, StoreError> {
        let start = Instant::now();
        let bytes_before = self.segment_bytes()?;
        let segments_before = self.manifest.segments.len();
        let entries_dropped = self.manifest.tombstones.len();
        if segments_before <= 1 && entries_dropped == 0 {
            return Ok(CompactStats {
                segments_before,
                segments_after: segments_before,
                entries_dropped: 0,
                bytes_before,
                bytes_after: bytes_before,
            });
        }
        let _span = self.metrics.telemetry.trace_span(
            "store.compact",
            &[
                ("segments", segments_before.to_string()),
                ("tombstones", entries_dropped.to_string()),
            ],
        );

        // Decode everything, then re-encode the survivors with densely
        // remapped bucket ids — no template re-preparation anywhere.
        let loaded = self.load()?;
        let old_seqs: Vec<u32> = self.manifest.segments.iter().map(|s| s.seq).collect();
        let survivors = loaded.tables.len();
        let new_seq = self.manifest.next_seq;
        let mut bytes_after = 0u64;

        if survivors > 0 {
            let tables = loaded.tables.iter().zip(loaded.pair_counts.iter().copied());
            let image = encode_segment(&SegmentSource {
                config: loaded.config,
                entries: EntrySource::zip_arena(tables, &loaded.arena),
                buckets: &loaded.buckets,
            });
            bytes_after = image.len() as u64;
            self.write_segment_file(new_seq, &image)?;
            self.metrics.segments_written.incr();
        }

        self.manifest = Manifest {
            next_seq: new_seq + 1,
            segments: if survivors > 0 {
                vec![SegmentMeta {
                    seq: new_seq,
                    entry_count: survivors as u32,
                }]
            } else {
                Vec::new()
            },
            tombstones: Default::default(),
        };
        self.manifest.save(&self.dir)?;
        for seq in old_seqs {
            fs::remove_file(Manifest::segment_path(&self.dir, seq))?;
        }

        self.metrics.compactions.incr();
        self.metrics.compact_time.record(start.elapsed());
        Ok(CompactStats {
            segments_before,
            segments_after: self.manifest.segments.len(),
            entries_dropped,
            bytes_before,
            bytes_after,
        })
    }

    fn segment_bytes(&self) -> Result<u64, StoreError> {
        let mut total = 0u64;
        for seg in &self.manifest.segments {
            total += fs::metadata(Manifest::segment_path(&self.dir, seg.seq))?.len();
        }
        Ok(total)
    }

    /// Structural summary of the whole gallery: per-segment versions,
    /// entry counts, section sizes and CRC status. Framing damage is a
    /// typed error; mere checksum rot is *reported*, per section.
    pub fn inspect(&self) -> Result<GalleryInspect, StoreError> {
        let mut segments = Vec::with_capacity(self.manifest.segments.len());
        for seg in &self.manifest.segments {
            let bytes = fs::read(Manifest::segment_path(&self.dir, seg.seq))?;
            let tombstones = self
                .manifest
                .tombstones
                .range((seg.seq, 0)..=(seg.seq, u32::MAX))
                .count() as u32;
            segments.push(SegmentFileInspect {
                seq: seg.seq,
                file: Manifest::segment_file(seg.seq),
                manifest_entry_count: seg.entry_count,
                tombstones,
                segment: inspect_segment(&bytes)?,
            });
        }
        Ok(GalleryInspect {
            next_seq: self.manifest.next_seq,
            live_entries: self.live_len() as u64,
            tombstone_count: self.tombstone_count() as u64,
            segments,
        })
    }
}
