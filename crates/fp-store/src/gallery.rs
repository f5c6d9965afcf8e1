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
//! # Open
//!
//! Every read of a live segment goes through one reader, `SegmentFile`.
//! Opening a segment preads the header and two runs, META+SPANS and
//! ARENA+BUCKETS, checks each section's CRC, decodes the sections and
//! checks the entry count against the manifest. It keeps the open file
//! and where each entry's TABLES record lies; TABLES, by far the largest
//! section, stays on disk. [`GalleryStore::open_index`] merges the
//! survivors of every live segment in live order, whatever the store's
//! shape, and installs a [`TableLoader`] that reads an entry's record the
//! first time stage 2 touches it. [`GalleryStore::compact`] reads every survivor's record
//! the same way and writes its bytes unchanged. A reader checks a record
//! against its CRC from SPANS and decodes it before anything uses it;
//! `decode_table_record` is the record's only decoder, so a loaded table
//! is bit-identical to the enrolled one and searches are too.
//!
//! An open reads no TABLES record, so a record that rotted, before the
//! open or after it, is found when stage 2 first touches its entry. The
//! loader then panics, the only channel mid-search, naming the segment's
//! file and the entry's index within that segment (the index tombstones
//! and `inspect` use). [`GalleryStore::compact`],
//! [`check_segment`](crate::check_segment), [`GalleryStore::inspect`] and
//! `study check-store` find such a record up front, as typed errors.

use std::fs;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fp_index::{CandidateIndex, CodeArena, FlatBuckets, IndexConfig, TableLoader};
use fp_match::{PairTableMatcher, PreparedPairTable};
use fp_telemetry::{Counter, DurationHistogram, Telemetry};
use serde::Serialize;

use crate::error::StoreError;
use crate::manifest::{Manifest, SegmentMeta, MANIFEST_NAME};
use crate::segment::{
    decode_table_record, encode_segment, encode_table, inspect_segment, read_head, EntrySource,
    SegmentHead, SegmentInspect, TableRecord,
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
    /// `store.segments.loaded` — segment files opened by index opens.
    segments_loaded: Counter,
    /// `store.load.bytes` — bytes those opens read: each file less its
    /// TABLES section.
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

/// One live segment file, open: the store's one way to read a segment.
/// [`open`](Self::open) reads and checks everything but the TABLES
/// records; [`record`](Self::record) reads one of them.
#[derive(Debug)]
struct SegmentFile {
    seq: u32,
    path: PathBuf,
    file: fs::File,
    records: Vec<TableRecord>,
}

impl SegmentFile {
    /// Opens segment `seg` of the gallery at `dir`: `read_head` over the
    /// file, then its entry count against the manifest's. Returns the
    /// reader and the decoded rest of the segment.
    fn open(dir: &Path, seg: SegmentMeta) -> Result<(SegmentFile, SegmentHead), StoreError> {
        let path = Manifest::segment_path(dir, seg.seq);
        let file = fs::File::open(&path)?;
        let mut head = read_head(file.metadata()?.len(), |buf, offset| {
            file.read_exact_at(buf, offset)
        })?;
        if head.records.len() != seg.entry_count as usize {
            return Err(corrupt(
                "manifest",
                format!(
                    "segment {} packs {} entries, manifest declares {}",
                    seg.seq,
                    head.records.len(),
                    seg.entry_count
                ),
            ));
        }
        let records = std::mem::take(&mut head.records);
        let reader = SegmentFile {
            seq: seg.seq,
            path,
            file,
            records,
        };
        Ok((reader, head))
    }

    /// Entry `at`'s TABLES record, read, checked against its CRC and
    /// decoded: the bytes and the table they hold.
    fn record(&self, at: u32) -> Result<(Vec<u8>, PreparedPairTable), StoreError> {
        let TableRecord { offset, len, crc } = self.records[at as usize];
        let mut record = vec![0u8; len];
        self.file.read_exact_at(&mut record, offset)?;
        let table = decode_table_record(&record, crc, at as usize)?;
        Ok((record, table))
    }
}

/// The survivors' TABLES records, still on disk: every live segment open,
/// and where each dense id's record lies.
#[derive(Debug)]
struct LiveTables {
    files: Vec<SegmentFile>,
    /// Dense id -> (index into `files`, entry index within that segment).
    places: Vec<(usize, u32)>,
}

impl LiveTables {
    /// Survivor `id`'s record and table ([`SegmentFile::record`]).
    fn record(&self, id: usize) -> Result<(Vec<u8>, PreparedPairTable), StoreError> {
        let (file, at) = self.places[id];
        self.files[file].record(at)
    }

    /// The loader of the survivors' tables, by dense id. A record that
    /// fails to read or check panics, naming its file and its entry index
    /// within that segment.
    fn loader(self: &Arc<Self>) -> TableLoader<PreparedPairTable> {
        let tables = Arc::clone(self);
        TableLoader::new(move |id: u32| {
            let (file, at) = tables.places[id as usize];
            let file = &tables.files[file];
            file.record(at).map_or_else(
                |err| {
                    let what = match err {
                        StoreError::Io(_) => "read failed",
                        StoreError::CrcMismatch { .. } => "CRC mismatch",
                        _ => "corrupt",
                    };
                    panic!(
                        "segment {} ({}): entry {at} table {what} after open: {err}",
                        file.seq,
                        file.path.display()
                    )
                },
                |(_, table)| table,
            )
        })
    }
}

/// The live view, opened: the survivors of every live segment in live
/// order with dense ids — exactly the arrays a fresh enrollment of the
/// survivors would have produced — and their records on disk.
struct LiveView {
    config: IndexConfig,
    pair_counts: Vec<u32>,
    arena: CodeArena,
    buckets: FlatBuckets,
    tables: Arc<LiveTables>,
    bytes_read: u64,
}

/// A persistent on-disk gallery: immutable segments + tombstone manifest.
#[derive(Debug)]
pub struct GalleryStore {
    dir: PathBuf,
    manifest: Manifest,
    metrics: StoreMetrics,
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
        let manifest = Manifest::read(&dir)?;
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

    /// Makes `next` the store's manifest: on disk first, then in memory,
    /// so a failed save leaves the store as it was.
    fn commit(&mut self, next: Manifest) -> Result<(), StoreError> {
        next.save(&self.dir)?;
        self.manifest = next;
        Ok(())
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

        let arena = index.arena();
        let entries = index
            .store_entries()
            .enumerate()
            .map(|(id, (table, pair_count))| {
                Ok(EntrySource {
                    record: encode_table(table),
                    pair_count,
                    codes: arena.entry(id),
                })
            });
        let image = encode_segment(*index.config(), entries, index.buckets())?;

        self.write_segment_file(seq, &image)?;
        let mut next = self.manifest.clone();
        next.segments.push(SegmentMeta {
            seq,
            entry_count: index.len() as u32,
        });
        next.next_seq += 1;
        self.commit(next)?;
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
        let mut next = self.manifest.clone();
        if !next.tombstones.insert((seq, index)) {
            return Ok(false);
        }
        self.commit(next)?;
        self.metrics.tombstones.incr();
        Ok(true)
    }

    /// Opens every live segment and merges the survivors in live order
    /// with dense ids.
    fn open_live(&self) -> Result<LiveView, StoreError> {
        let mut config: Option<IndexConfig> = None;
        let mut pair_counts = Vec::new();
        let mut arena = CodeArena::new();
        let mut buckets = FlatBuckets::default();
        let mut files = Vec::new();
        let mut places = Vec::new();
        let mut bytes_read = 0u64;

        for seg in &self.manifest.segments {
            let (file, head) = SegmentFile::open(&self.dir, *seg)?;
            bytes_read += head.bytes_read;
            match config {
                None => config = Some(head.config),
                Some(ref first) if *first != head.config => {
                    return Err(corrupt(
                        "segment",
                        format!("segment {} config differs from the gallery's", seg.seq),
                    ));
                }
                Some(_) => {}
            }

            // Dense remap in live order: tombstoned entries get no id.
            let first = places.len();
            let mut remap = vec![None; head.pair_counts.len()];
            for (at, &pair_count) in head.pair_counts.iter().enumerate() {
                let at = at as u32;
                if !self.manifest.tombstones.contains(&(seg.seq, at)) {
                    remap[at as usize] = Some(places.len() as u32);
                    places.push((files.len(), at));
                    pair_counts.push(pair_count);
                }
            }
            if first == 0 && places.len() == remap.len() {
                // Nothing merged before and nothing dropped: every id
                // stays, so the arena and bucket table are adopted as
                // decoded.
                arena = head.arena;
                buckets = head.buckets;
            } else {
                for (at, id) in remap.iter().enumerate() {
                    if id.is_some() {
                        arena.push_view(head.arena.entry(at));
                    }
                }
                // Segments are processed in live order and ids assigned
                // in the same order, so this segment's survivors rank
                // after every id merged so far: appending them keeps each
                // bucket in the ascending-id order fresh enrollment would
                // have produced.
                buckets.append(head.buckets.remap(|id| remap[id as usize]));
            }
            files.push(file);
        }

        Ok(LiveView {
            config: config.unwrap_or_default(),
            pair_counts,
            arena,
            buckets,
            tables: Arc::new(LiveTables { files, places }),
            bytes_read,
        })
    }

    fn record_load(&self, bytes_read: u64, start: Instant) {
        self.metrics
            .segments_loaded
            .add(self.manifest.segments.len() as u64);
        self.metrics.load_bytes.add(bytes_read);
        self.metrics.load_time.record(start.elapsed());
    }

    /// Assembles the live view as one in-memory [`CandidateIndex`] —
    /// candidate lists and RUNFP chain byte-identical to fresh enrollment
    /// of the survivors in live order. An empty store opens as an empty
    /// index with the default config. Tables load on stage 2's first
    /// touch (see the module docs for the parity argument and failure
    /// policy). [`CandidateIndex::from_store_parts`] validates the stored
    /// config (`read_head` validated the arena).
    pub fn open_index(&self) -> Result<CandidateIndex<PairTableMatcher>, StoreError> {
        let start = Instant::now();
        let _span = self.metrics.telemetry.trace_span(
            "store.load",
            &[
                ("segments", self.manifest.segments.len().to_string()),
                ("live", self.live_len().to_string()),
            ],
        );
        let live = self.open_live()?;
        let index = CandidateIndex::from_store_parts(
            PairTableMatcher::default(),
            live.config,
            live.pair_counts,
            live.tables.loader(),
            live.arena,
            live.buckets,
        )
        .map_err(|err| corrupt("segment", format!("stored config invalid: {err}")))?;
        self.record_load(live.bytes_read, start);
        Ok(index)
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

        // Each survivor's record is read, checked and decoded, then
        // written as read; the buckets are remapped densely. Nothing is
        // re-prepared, cloned or encoded again.
        let live = self.open_live()?;
        let survivors = live.pair_counts.len();
        let new_seq = self.manifest.next_seq;
        let mut segments = Vec::new();
        let mut bytes_after = 0u64;
        if survivors > 0 {
            let entries = (0..survivors).map(|id| {
                let (record, _) = live.tables.record(id)?;
                Ok(EntrySource {
                    record,
                    pair_count: live.pair_counts[id],
                    codes: live.arena.entry(id),
                })
            });
            let image = encode_segment(live.config, entries, &live.buckets)?;
            bytes_after = image.len() as u64;
            self.write_segment_file(new_seq, &image)?;
            self.metrics.segments_written.incr();
            segments.push(SegmentMeta {
                seq: new_seq,
                entry_count: survivors as u32,
            });
        }

        let old = self.segments();
        self.commit(Manifest {
            next_seq: new_seq + 1,
            segments,
            tombstones: Default::default(),
        })?;
        for seg in old {
            fs::remove_file(Manifest::segment_path(&self.dir, seg.seq))?;
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
