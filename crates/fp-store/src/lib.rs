//! Persistent on-disk gallery segments for the 1:N candidate index.
//!
//! Enrolling a large gallery is the expensive step of every study run:
//! each template is prepared into a pair table, its cylinder codes
//! extracted and packed, its geometric features hashed. All of that work
//! is a pure function of the template and the [`fp_index::IndexConfig`] —
//! so `fp-store` does it **once**, persists the results in index-native
//! form, and reopens a gallery by parsing instead of re-enrolling
//! (milliseconds instead of minutes; see the `store/` benches).
//!
//! The design is a miniature LSM tree:
//!
//! - **Segments** ([`segment`]) are immutable, versioned, CRC'd files
//!   packing a batch of entries (pair tables, code arena slices,
//!   popcounts, buckets). Every byte is covered by a checksum; hostile or
//!   rotten files surface as typed [`StoreError`]s, never panics and
//!   never a silently different gallery.
//! - **The manifest** ([`manifest`]) lists the live segments and a
//!   tombstone set. Deletion appends a tombstone; re-enrollment writes a
//!   new segment; neither touches existing files.
//! - **Compaction** ([`GalleryStore::compact`]) merges survivors into one
//!   fresh segment and reclaims tombstoned space — pure byte shuffling:
//!   each survivor's table record is checked and copied as it is, never
//!   decoded into a new encoding, and nothing is re-prepared.
//!
//! The headline invariant, enforced end to end by `study check-store`:
//! search over an opened store (before or after churn and compaction) is
//! **byte-identical** — candidate lists and RUNFP
//! chain — to fresh in-memory enrollment of the live entries in live
//! order.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod gallery;
pub mod manifest;
pub mod segment;

pub use error::StoreError;
pub use gallery::{CompactStats, GalleryInspect, GalleryStore, SegmentFileInspect};
pub use manifest::{check_manifest, SegmentMeta};
pub use segment::{
    check_segment, inspect_segment, SectionInspect, SegmentInspect, SEGMENT_VERSION,
};

#[cfg(test)]
mod tests {
    use fp_core::geometry::{Direction, Point};
    use fp_core::minutia::{Minutia, MinutiaKind};
    use fp_core::rng::SeedTree;
    use fp_core::template::Template;
    use fp_index::{CandidateIndex, IndexConfig};
    use fp_match::PairTableMatcher;
    use fp_telemetry::Telemetry;
    use rand::Rng;

    use crate::segment::parse_header;
    use crate::GalleryStore;

    /// Deterministic synthetic template, same builder idiom as the
    /// fp-serve wire tests.
    fn synthetic_template(seed: &SeedTree, n: usize) -> Template {
        let mut rng = seed.rng();
        let mut minutiae = Vec::<Minutia>::new();
        while minutiae.len() < n {
            let pos = Point::new(
                rng.gen::<f64>() * 16.0 - 8.0,
                rng.gen::<f64>() * 20.0 - 10.0,
            );
            if minutiae.iter().any(|m| m.pos.distance(&pos) < 1.4) {
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
        Template::builder(500.0)
            .capture_window_mm(20.0, 24.0)
            .extend(minutiae)
            .build()
            .expect("synthetic template")
    }

    fn gallery(seed: &SeedTree, n: usize) -> Vec<Template> {
        (0..n)
            .map(|i| synthetic_template(&seed.child(&[i as u64]), 28))
            .collect()
    }

    fn enroll(config: IndexConfig, templates: &[Template]) -> CandidateIndex<PairTableMatcher> {
        let mut index = CandidateIndex::with_config(PairTableMatcher::default(), config);
        for t in templates {
            index.enroll(t);
        }
        index
    }

    fn assert_same_results(
        fresh: &CandidateIndex<PairTableMatcher>,
        opened: &CandidateIndex<PairTableMatcher>,
        probes: &[Template],
    ) {
        for probe in probes {
            let a = fresh.search(probe);
            let b = opened.search(probe);
            assert_eq!(a.candidates().len(), b.candidates().len());
            for (x, y) in a.candidates().iter().zip(b.candidates()) {
                assert_eq!(x.id, y.id);
                assert_eq!(
                    x.score.value().to_bits(),
                    y.score.value().to_bits(),
                    "score must be bitwise equal"
                );
            }
        }
        assert_eq!(
            fresh.run_fingerprint().hex(),
            opened.run_fingerprint().hex(),
            "RUNFP chains must match"
        );
    }

    fn load_bytes(telemetry: &Telemetry) -> u64 {
        let counters = telemetry.snapshot().counters;
        counters.get("store.load.bytes").copied().unwrap_or(0)
    }

    /// Runs `open` and asserts that it read, through `store.load.bytes`,
    /// each live segment's file less its TABLES section: every open reads
    /// no table record, whatever the store's shape.
    fn reads_no_tables<T>(
        store: &GalleryStore,
        telemetry: &Telemetry,
        open: impl FnOnce() -> T,
    ) -> T {
        let before = load_bytes(telemetry);
        let opened = open();
        let expected: u64 = store
            .segments()
            .iter()
            .map(|seg| {
                let path = store.dir().join(format!("seg-{:08}.fpseg", seg.seq));
                let bytes = std::fs::read(path).unwrap();
                let frame = parse_header(&bytes, bytes.len() as u64, true).unwrap();
                bytes.len() as u64 - frame.sections[2].1
            })
            .sum();
        assert_eq!(load_bytes(telemetry) - before, expected);
        opened
    }

    #[test]
    fn save_open_churn_compact_stays_byte_identical_to_fresh_enrollment() {
        let seed = SeedTree::new(0xF9_57);
        let config = IndexConfig {
            shortlist: 8,
            ..IndexConfig::default()
        };
        let pool = gallery(&seed.child(&[1]), 30);
        let probes = gallery(&seed.child(&[2]), 6);

        let dir = std::env::temp_dir().join(format!("fp-store-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let telemetry = Telemetry::enabled();
        let mut store = GalleryStore::create(&dir)
            .unwrap()
            .with_telemetry(&telemetry);

        // Two segments: 18 + 12 entries.
        let seg_a = store.append_index(&enroll(config, &pool[..18])).unwrap();
        store.append_index(&enroll(config, &pool[18..])).unwrap();
        assert_eq!(store.live_len(), 30);

        // Round trip: open == fresh enrollment of all 30.
        let fresh = enroll(config, &pool);
        let reopened = GalleryStore::open(&dir).unwrap().with_telemetry(&telemetry);
        let opened = reads_no_tables(&reopened, &telemetry, || reopened.open_index().unwrap());
        assert_eq!(opened.len(), 30);
        assert_same_results(&fresh, &opened, &probes);

        // Churn: tombstone every 5th entry of segment A, re-enroll two
        // replacements as a third segment.
        for at in (0..18u32).step_by(5) {
            assert!(store.tombstone(seg_a, at).unwrap());
            assert!(
                !store.tombstone(seg_a, at).unwrap(),
                "double tombstone is a no-op"
            );
        }
        // Two segments with tombstones merge to the bucket table a fresh
        // enrollment of the survivors builds.
        let survivors: Vec<Template> = pool
            .iter()
            .enumerate()
            .filter(|(at, _)| *at >= 18 || at % 5 != 0)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(
            reads_no_tables(&store, &telemetry, || store.open_index().unwrap()).buckets(),
            enroll(config, &survivors).buckets()
        );
        let replacements = gallery(&seed.child(&[3]), 2);
        store.append_index(&enroll(config, &replacements)).unwrap();

        // The live view: segment A survivors, all of segment B, then the
        // replacements — in that order.
        let mut live: Vec<Template> = pool[..18]
            .iter()
            .enumerate()
            .filter(|(at, _)| at % 5 != 0)
            .map(|(_, t)| t.clone())
            .collect();
        live.extend_from_slice(&pool[18..]);
        live.extend_from_slice(&replacements);
        let fresh = enroll(config, &live);
        let opened = reads_no_tables(&store, &telemetry, || store.open_index().unwrap());
        assert_eq!(opened.len(), live.len());
        assert_same_results(&fresh, &opened, &probes);

        // Compact: one segment, zero tombstones, same live view. An index
        // opened before, and not searched yet, keeps its segment files
        // open: it answers the same after compaction deletes them.
        let old_files: Vec<_> = store
            .segments()
            .iter()
            .map(|seg| dir.join(format!("seg-{:08}.fpseg", seg.seq)))
            .collect();
        let before = reads_no_tables(&store, &telemetry, || store.open_index().unwrap());
        let stats = store.compact().unwrap();
        assert!(old_files.iter().all(|path| !path.exists()));
        assert_same_results(&enroll(config, &live), &before, &probes);
        assert_eq!(stats.segments_before, 3);
        assert_eq!(stats.segments_after, 1);
        assert_eq!(stats.entries_dropped, 4);
        assert!(stats.bytes_after < stats.bytes_before);
        assert_eq!(store.live_len(), live.len());
        assert_eq!(store.tombstone_count(), 0);
        // Copying the survivors' records writes, byte for byte, the
        // segment a fresh enrollment of the survivors encodes.
        let mut twin = GalleryStore::create(dir.join("twin")).unwrap();
        let twin_seq = twin.append_index(&enroll(config, &live)).unwrap();
        let segment_file = |store: &GalleryStore, seq: u32| {
            std::fs::read(store.dir().join(format!("seg-{seq:08}.fpseg"))).unwrap()
        };
        assert!(
            segment_file(&store, store.segments()[0].seq) == segment_file(&twin, twin_seq),
            "compaction must write the fresh enrollment's segment"
        );
        let fresh = enroll(config, &live);
        let opened = reads_no_tables(&store, &telemetry, || store.open_index().unwrap());
        assert_same_results(&fresh, &opened, &probes);

        // Compacting again is a no-op.
        let stats = store.compact().unwrap();
        assert_eq!(stats.segments_before, 1);
        assert_eq!(stats.segments_after, 1);
        assert_eq!(stats.entries_dropped, 0);

        // Inspection: every checksum good, counts as expected.
        let inspect = store.inspect().unwrap();
        assert!(inspect.all_crc_ok());
        assert_eq!(inspect.live_entries, live.len() as u64);
        assert_eq!(inspect.tombstone_count, 0);
        assert_eq!(inspect.segments.len(), 1);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_fully_tombstoned_stores_open_cleanly() {
        let dir = std::env::temp_dir().join(format!("fp-store-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = GalleryStore::create(&dir).unwrap();
        assert_eq!(store.open_index().unwrap().len(), 0);

        let seed = SeedTree::new(0xE0_11);
        let config = IndexConfig::default();
        let pool = gallery(&seed.child(&[1]), 3);
        let seq = store.append_index(&enroll(config, &pool)).unwrap();
        for at in 0..3 {
            store.tombstone(seq, at).unwrap();
        }
        assert_eq!(store.live_len(), 0);
        assert_eq!(store.open_index().unwrap().len(), 0);
        let stats = store.compact().unwrap();
        assert_eq!(stats.segments_after, 0);
        assert_eq!(store.open_index().unwrap().len(), 0);

        // create() refuses to clobber an existing gallery.
        assert!(GalleryStore::create(&dir).is_err());

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
