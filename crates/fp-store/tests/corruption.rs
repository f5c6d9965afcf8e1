//! Corruption-safety contract for the on-disk store, mirroring the
//! fp-serve wire proptests: **decoding is total**. Any byte flip,
//! truncation, hostile section table, or plain random garbage must
//! produce a typed [`StoreError`] — never a panic, never an OOM-sized
//! allocation, and never a silently different gallery.
//!
//! The segment format makes the strongest version of this provable: the
//! header CRC covers the section table, each section CRC covers its
//! payload, and the sections must tile the file exactly — so *every*
//! byte of a segment is covered by exactly one checksum and every
//! single-bit flip is detectable. The proptests below exercise exactly
//! that guarantee.

use std::sync::OnceLock;

use fp_core::geometry::{Direction, Point};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_index::{search_backends, CandidateIndex, IndexConfig, ShardError, TableLoadError};
use fp_match::PairTableMatcher;
use fp_store::{check_manifest, check_segment, GalleryStore, SegmentMeta, StoreError};
use proptest::prelude::*;
use rand::Rng;

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
        .unwrap()
}

/// One real segment file plus one real manifest (with tombstones), built
/// once through the public store API and then attacked in-memory.
fn artifacts() -> &'static (Vec<u8>, Vec<u8>) {
    static ARTIFACTS: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let seed = SeedTree::new(0xC0_44);
        let dir = std::env::temp_dir().join(format!("fp-store-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = GalleryStore::create(&dir).unwrap();
        let mut index =
            CandidateIndex::with_config(PairTableMatcher::default(), IndexConfig::default());
        for i in 0..6u64 {
            index.enroll(&synthetic_template(&seed.child(&[i]), 24));
        }
        let seq = store.append_index(&index).unwrap();
        store.tombstone(seq, 1).unwrap();
        store.tombstone(seq, 4).unwrap();
        let segment = std::fs::read(dir.join(format!("seg-{seq:08}.fpseg"))).unwrap();
        let manifest = std::fs::read(dir.join("MANIFEST")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (segment, manifest)
    })
}

/// The pristine artifacts validate — and their bytes are **pinned**: the
/// `(length, FNV-1a)` pairs were taken from the segment and manifest
/// encoders as they stood before the codec was hoisted into
/// `fp_core::codec`. If a pin fails the on-disk layout changed: bump
/// `SEGMENT_VERSION` / `MANIFEST_VERSION` first, then re-pin.
#[test]
fn pristine_artifacts_check_clean_and_match_their_golden_bytes() {
    let (segment, manifest) = artifacts();
    assert_eq!(check_segment(segment).unwrap(), 6);
    check_manifest(manifest).unwrap();
    // Fowler–Noll–Vo 1a — a digest independent of the codec under test.
    let fnv1a = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    assert_eq!(
        (segment.len(), fnv1a(segment)),
        (56_124, 0xc746_7412_8bfc_ed1e)
    );
    assert_eq!(
        (manifest.len(), fnv1a(manifest)),
        (52, 0x9b2b_e442_e433_446a)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Every byte of a segment is covered by a checksum, so every
    /// single-bit flip anywhere in the file must be rejected.
    #[test]
    fn any_segment_bit_flip_is_rejected(at in 0usize..1 << 20, bit in 0u8..8) {
        let (segment, _) = artifacts();
        let at = at % segment.len();
        let mut bad = segment.clone();
        bad[at] ^= 1 << bit;
        prop_assert!(check_segment(&bad).is_err(), "flip of bit {bit} at byte {at} decoded");
    }

    /// Any strict prefix of a segment must be rejected.
    #[test]
    fn any_segment_truncation_is_rejected(len in 0usize..1 << 20) {
        let (segment, _) = artifacts();
        let len = len % segment.len();
        prop_assert!(check_segment(&segment[..len]).is_err());
    }

    /// Hostile section tables: magic and version are right, everything
    /// after is attacker-controlled — section counts, offsets, huge
    /// declared lengths. Must produce a typed error without attempting
    /// an allocation sized by the hostile header.
    #[test]
    fn hostile_segment_headers_are_rejected(body in prop::collection::vec(0u8..=255, 0..512)) {
        let mut bytes = b"FPSTSEG\0".to_vec();
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&body);
        prop_assert!(check_segment(&bytes).is_err());
    }

    /// Plain random garbage never panics and never decodes.
    #[test]
    fn random_bytes_never_decode_as_a_segment(bytes in prop::collection::vec(0u8..=255, 0..4096)) {
        prop_assert!(check_segment(&bytes).is_err());
    }

    /// Same three properties for the manifest.
    #[test]
    fn any_manifest_bit_flip_is_rejected(at in 0usize..1 << 20, bit in 0u8..8) {
        let (_, manifest) = artifacts();
        let at = at % manifest.len();
        let mut bad = manifest.clone();
        bad[at] ^= 1 << bit;
        prop_assert!(check_manifest(&bad).is_err(), "flip of bit {bit} at byte {at} decoded");
    }

    #[test]
    fn any_manifest_truncation_is_rejected(len in 0usize..1 << 20) {
        let (_, manifest) = artifacts();
        let len = len % manifest.len();
        prop_assert!(check_manifest(&manifest[..len]).is_err());
    }

    #[test]
    fn random_bytes_never_decode_as_a_manifest(bytes in prop::collection::vec(0u8..=255, 0..1024)) {
        prop_assert!(check_manifest(&bytes).is_err());
    }
}

/// Deterministic hostile headers that a random fuzzer is unlikely to hit:
/// structurally framed section tables with adversarial counts and
/// offsets.
#[test]
fn crafted_hostile_section_tables_are_typed_errors() {
    let (segment, _) = artifacts();

    // Declared section count != 5.
    let mut bad = segment.clone();
    bad[10..12].copy_from_slice(&999u16.to_le_bytes());
    assert!(matches!(
        check_segment(&bad),
        Err(StoreError::Corrupt {
            what: "segment",
            ..
        } | StoreError::CrcMismatch { .. })
    ));

    // Future version must be refused outright, not mis-decoded.
    let mut bad = segment.clone();
    bad[8..10].copy_from_slice(&2u16.to_le_bytes());
    assert!(matches!(
        check_segment(&bad),
        Err(StoreError::UnsupportedVersion {
            what: "segment",
            version: 2
        })
    ));

    // Hostile entry count in an otherwise intact file: the header CRC
    // catches the edit even before span validation could.
    let mut bad = segment.clone();
    bad[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(check_segment(&bad).is_err());

    // First section offset pointing past the file, CRC re-sealed so the
    // layout check itself must fire. Header layout: section table starts
    // at 16, each row is id u32 | offset u64 | len u64 | crc u32.
    let mut bad = segment.clone();
    bad[20..28].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
    let crc = fp_store_crc32(&bad[..136]);
    bad[136..140].copy_from_slice(&crc.to_le_bytes());
    match check_segment(&bad) {
        Err(StoreError::Corrupt {
            what: "segment", ..
        })
        | Err(StoreError::Truncated { .. }) => {}
        other => panic!("hostile offset produced {other:?}"),
    }

    // Huge declared section length: offset valid, len = u64::MAX.
    let mut bad = segment.clone();
    bad[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
    let crc = fp_store_crc32(&bad[..136]);
    bad[136..140].copy_from_slice(&crc.to_le_bytes());
    assert!(check_segment(&bad).is_err());

    // A popcount that lies about its cylinder, section and header CRCs
    // re-sealed: fsck itself must refuse it — the arena is validated
    // where the ARENA bytes are decoded, not first at open. ARENA is
    // table row 3 (at 16 + 3 * 24) and its payload ends with the last
    // entry's last popcount.
    let mut bad = segment.clone();
    let u64_at = |at: usize| u64::from_le_bytes(segment[at..at + 8].try_into().unwrap()) as usize;
    let (arena_off, arena_len) = (u64_at(92), u64_at(100));
    bad[arena_off + arena_len - 4] ^= 1;
    let crc = fp_store_crc32(&bad[arena_off..arena_off + arena_len]);
    bad[108..112].copy_from_slice(&crc.to_le_bytes());
    let crc = fp_store_crc32(&bad[..136]);
    bad[136..140].copy_from_slice(&crc.to_le_bytes());
    match check_segment(&bad) {
        Err(StoreError::Corrupt { detail, .. }) => assert!(detail.contains("popcount"), "{detail}"),
        other => panic!("lying popcount produced {other:?}"),
    }

    // A relative angle outside `(-pi, pi]` in the first TABLES record,
    // with the record CRC (in SPANS), both section CRCs and the header CRC
    // re-sealed: the matcher's scan wraps angle differences without an
    // `fmod`, so a table it would mis-score must not load. SPANS is table
    // row 1 (at 16 + 24), TABLES row 2; a SPANS record is `cylinders u32 |
    // words_per u32 | table_bytes u64 | table_crc u32 | pair_count u32`; a
    // TABLES record is `minutia_count u32 | entries u32`, then `d f64 |
    // beta1 f64 | beta2 f64 | i u16 | j u16` per entry.
    let mut bad = segment.clone();
    let (spans_off, spans_len) = (u64_at(44), u64_at(52));
    let (tables_off, tables_len) = (u64_at(68), u64_at(76));
    let record_len = u64_at(spans_off + 8);
    bad[tables_off + 16..tables_off + 24].copy_from_slice(&4.0f64.to_le_bytes());
    let crc = fp_store_crc32(&bad[tables_off..tables_off + record_len]);
    bad[spans_off + 16..spans_off + 20].copy_from_slice(&crc.to_le_bytes());
    let crc = fp_store_crc32(&bad[spans_off..spans_off + spans_len]);
    bad[60..64].copy_from_slice(&crc.to_le_bytes());
    let crc = fp_store_crc32(&bad[tables_off..tables_off + tables_len]);
    bad[84..88].copy_from_slice(&crc.to_le_bytes());
    let crc = fp_store_crc32(&bad[..136]);
    bad[136..140].copy_from_slice(&crc.to_le_bytes());
    match check_segment(&bad) {
        Err(StoreError::Corrupt { detail, .. }) => {
            assert!(detail.contains("beta1 (4) is not canonical"), "{detail}")
        }
        other => panic!("non-canonical beta1 produced {other:?}"),
    }

    // A pair count that disagrees with BUCKETS, SPANS and header CRCs
    // re-sealed: the vote score divides by it, so the shortlist would
    // reorder under a segment that opens cleanly.
    match check_segment(&with_span_field(segment, 0, PAIR_COUNT, 1)) {
        Err(StoreError::Corrupt { detail, .. }) => {
            assert!(detail.contains("entry 0: buckets register"), "{detail}")
        }
        other => panic!("lying pair count produced {other:?}"),
    }

    // Wrong magic.
    let mut bad = segment.clone();
    bad[0] = b'X';
    assert!(matches!(
        check_segment(&bad),
        Err(StoreError::BadMagic { what: "segment" })
    ));
}

/// A lazily opened gallery whose segment changes under it: the in-process
/// search, whose signature cannot carry an error, panics with the loader's
/// own message, whichever re-rank lane loaded entry 0: a full budget
/// re-ranks all 12 entries, two lanes' worth whenever the host has two
/// cores.
#[test]
#[should_panic(expected = "CRC mismatch after open")]
fn a_table_changed_after_a_lazy_open_fails_with_its_own_message() {
    use std::io::{Seek, SeekFrom, Write};

    let dir = Scratch::new("fp-store-lazy");
    let seed = SeedTree::new(0x1A_27);
    let templates: Vec<Template> = (0..12u64)
        .map(|i| synthetic_template(&seed.child(&[i]), 24))
        .collect();
    let mut index = CandidateIndex::new(PairTableMatcher::default());
    index.enroll_all(&templates);
    let mut store = GalleryStore::create(&dir.0).unwrap();
    let seq = store.append_index(&index).unwrap();
    let opened = GalleryStore::open(&dir.0).unwrap().open_index().unwrap();

    // TABLES is section-table row 2 (at 16 + 2 * 24): id u32 | offset u64
    // | len u64 | crc u32. Its first record is entry 0's table.
    let path = dir.0.join(format!("seg-{seq:08}.fpseg"));
    let segment = std::fs::read(&path).unwrap();
    let tables_off = u64::from_le_bytes(segment[68..76].try_into().unwrap());
    let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.seek(SeekFrom::Start(tables_off + 12)).unwrap();
    file.write_all(&[!segment[tables_off as usize + 12]])
        .unwrap();
    drop(file);

    opened.search_with_budget(&templates[3], templates.len());
}

/// A scratch directory, removed on every exit, an expected panic included.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A table record that rots before the open, in the second segment of a
/// two-segment store with tombstones in both. Compaction refuses it with a
/// typed error and leaves every file as it was; fsck and inspect report
/// it. The open reads no table record, so it succeeds. The first re-rank
/// of the entry through the shard route, and an append of the opened
/// index, return a typed error naming the file and the entry's index
/// within its segment (2), not its dense id (5); the failed append leaves
/// every file as it was too.
#[test]
fn a_record_rotten_before_open_fails_compaction_and_its_first_load() {
    let dir = Scratch::new("fp-store-rot");
    let seed = SeedTree::new(0x2D_07);
    let templates: Vec<Template> = (0..10u64)
        .map(|i| synthetic_template(&seed.child(&[i]), 24))
        .collect();
    let mut store = GalleryStore::create(&dir.0).unwrap();
    for half in templates.chunks(5) {
        let mut index = CandidateIndex::new(PairTableMatcher::default());
        index.enroll_all(half);
        store.append_index(&index).unwrap();
    }
    store.tombstone(0, 1).unwrap();
    store.tombstone(1, 0).unwrap();

    // Entry 2's record follows entries 0 and 1's. SPANS is section-table
    // row 1 (at 16 + 24), TABLES row 2; a SPANS record is 24 bytes, its
    // table length bytes 8..16.
    let path = dir.0.join("seg-00000001.fpseg");
    let mut segment = std::fs::read(&path).unwrap();
    let u64_at = |at: usize| u64::from_le_bytes(segment[at..at + 8].try_into().unwrap()) as usize;
    let (spans_off, tables_off) = (u64_at(44), u64_at(68));
    let record = tables_off + u64_at(spans_off + 8) + u64_at(spans_off + 24 + 8);
    segment[record + 12] ^= 0x10;
    std::fs::write(&path, &segment).unwrap();

    let files = || {
        let mut files: Vec<_> = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    };
    let on_disk = files();
    assert!(matches!(
        store.compact(),
        Err(StoreError::CrcMismatch { .. })
    ));
    assert!(files() == on_disk, "a failed compaction changed the store");
    assert!(check_segment(&segment).is_err());
    assert!(!store.inspect().unwrap().all_crc_ok());

    let opened = store.open_index().unwrap();
    assert_eq!(opened.len(), 8);
    let named = |err: &TableLoadError| {
        assert_eq!(err.segment, format!("segment 1 ({})", path.display()));
        assert_eq!(err.entry, 2);
        assert!(
            err.to_string()
                .contains("seg-00000001.fpseg): entry 2 table CRC mismatch after open"),
            "{err}"
        );
    };
    let backends = std::slice::from_ref(&opened);
    match search_backends(backends, &templates[6], opened.len()) {
        Err(ShardError::Table(err)) => named(&err),
        other => panic!("a rotten table record searched as {other:?}"),
    }
    match store.append_index(&opened) {
        Err(StoreError::TableLoad(err)) => named(&err),
        other => panic!("a rotten table record appended as {other:?}"),
    }
    assert!(files() == on_disk, "a failed append changed the store");
}

/// A manifest change reaches memory only once it is on disk. A directory
/// squatting on `MANIFEST.tmp` fails every save, even as root. After each
/// failed tombstone, append and compaction the store reads as before; the
/// retries succeed, and a reopen shows each change exactly once.
#[test]
fn a_failed_manifest_save_leaves_the_store_as_it_was() {
    let dir = Scratch::new("fp-store-save");
    let seed = SeedTree::new(0x5A_7E);
    let batch = |k: u64| {
        let mut index = CandidateIndex::new(PairTableMatcher::default());
        for i in 0..4u64 {
            index.enroll(&synthetic_template(&seed.child(&[k, i]), 20));
        }
        index
    };
    let view = |store: &GalleryStore| (store.live_len(), store.tombstone_count(), store.segments());
    let mut store = GalleryStore::create(&dir.0).unwrap();
    let a = store.append_index(&batch(0)).unwrap();
    let b = store.append_index(&batch(1)).unwrap();
    assert!(store.tombstone(a, 0).unwrap());
    let before = view(&store);

    let squat = dir.0.join("MANIFEST.tmp");
    std::fs::create_dir(&squat).unwrap();
    assert!(store.tombstone(b, 1).is_err());
    assert_eq!(view(&store), before, "after a failed tombstone");
    assert!(store.append_index(&batch(2)).is_err());
    assert_eq!(view(&store), before, "after a failed append");
    assert!(store.compact().is_err());
    assert_eq!(view(&store), before, "after a failed compaction");
    std::fs::remove_dir(&squat).unwrap();

    assert!(
        store.tombstone(b, 1).unwrap(),
        "the retried tombstone is new"
    );
    let c = store.append_index(&batch(2)).unwrap();
    let segment = |seq| SegmentMeta {
        seq,
        entry_count: 4,
    };
    let reopened = GalleryStore::open(&dir.0).unwrap();
    assert_eq!(
        view(&reopened),
        (10, 2, vec![segment(a), segment(b), segment(c)])
    );
    store.compact().unwrap();
    let reopened = GalleryStore::open(&dir.0).unwrap();
    assert_eq!((reopened.live_len(), reopened.tombstone_count()), (10, 0));
    assert_eq!(reopened.segments().len(), 1);
    assert_eq!(reopened.open_index().unwrap().len(), 10);
}

/// Byte offsets of a SPANS record's `u32` fields: the record is
/// `cylinders u32 | words_per u32 | table_bytes u64 | table_crc u32 |
/// pair_count u32`, 24 bytes.
const WORDS_PER: usize = 4;
const PAIR_COUNT: usize = 20;

/// `segment` with the `u32` at byte `field` of entry `at`'s SPANS record
/// set to `value`, the SPANS and header CRCs re-sealed. SPANS is
/// section-table row 1 (at 16 + 24): id u32 | offset u64 | len u64 | crc
/// u32.
fn with_span_field(segment: &[u8], at: usize, field: usize, value: u32) -> Vec<u8> {
    let u64_at = |at: usize| u64::from_le_bytes(segment[at..at + 8].try_into().unwrap()) as usize;
    let (spans_off, spans_len) = (u64_at(44), u64_at(52));
    let mut bad = segment.to_vec();
    let field = spans_off + 24 * at + field;
    bad[field..field + 4].copy_from_slice(&value.to_le_bytes());
    let crc = fp_store_crc32(&bad[spans_off..spans_off + spans_len]);
    bad[60..64].copy_from_slice(&crc.to_le_bytes());
    let crc = fp_store_crc32(&bad[..136]);
    bad[136..140].copy_from_slice(&crc.to_le_bytes());
    bad
}

/// The lazy open reads BUCKETS and SPANS without TABLES, and refuses a
/// pair count that disagrees with BUCKETS as the full decode does.
#[test]
fn a_lazy_open_refuses_a_pair_count_its_buckets_contradict() {
    let dir = std::env::temp_dir().join(format!("fp-store-pairs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let seed = SeedTree::new(0x5A_1D);
    let mut index = CandidateIndex::new(PairTableMatcher::default());
    for i in 0..4u64 {
        index.enroll(&synthetic_template(&seed.child(&[i]), 20));
    }
    let seq = GalleryStore::create(&dir)
        .unwrap()
        .append_index(&index)
        .unwrap();
    let path = dir.join(format!("seg-{seq:08}.fpseg"));
    let segment = std::fs::read(&path).unwrap();
    std::fs::write(&path, with_span_field(&segment, 3, PAIR_COUNT, 7)).unwrap();
    let opened = GalleryStore::open(&dir).unwrap().open_index();
    std::fs::remove_dir_all(&dir).unwrap();
    match opened {
        Err(StoreError::Corrupt { detail, .. }) => {
            assert!(detail.contains("entry 3: buckets register"), "{detail}")
        }
        other => panic!(
            "lying pair count opened: {:?}",
            other.map(|index| index.len())
        ),
    }
}

/// Every SPANS record says how many words a cylinder of its entry takes:
/// `LANE_WORDS` for a coded entry, 0 for an empty one. An empty entry
/// that claims 7, every CRC re-sealed, tiles the arena as well as 0 does;
/// the check and the open both refuse it, naming the entry and its width.
#[test]
fn a_span_of_another_width_is_refused() {
    let dir = Scratch::new("fp-store-width");
    let seed = SeedTree::new(0x71_D7);
    let mut index = CandidateIndex::new(PairTableMatcher::default());
    index.enroll(&synthetic_template(&seed.child(&[0]), 20));
    index.enroll(&Template::builder(500.0).build().unwrap());
    index.enroll(&synthetic_template(&seed.child(&[2]), 20));
    assert!(index.arena().entry(1).is_empty());
    let seq = GalleryStore::create(&dir.0)
        .unwrap()
        .append_index(&index)
        .unwrap();
    let path = dir.0.join(format!("seg-{seq:08}.fpseg"));
    let segment = std::fs::read(&path).unwrap();
    assert_eq!(check_segment(&segment).unwrap(), 3);

    let bad = with_span_field(&segment, 1, WORDS_PER, 7);
    std::fs::write(&path, &bad).unwrap();
    let opened = GalleryStore::open(&dir.0).unwrap().open_index();
    for result in [check_segment(&bad).map(|_| ()), opened.map(|_| ())] {
        match result {
            Err(StoreError::Corrupt { detail, .. }) => assert!(
                detail.contains("entry 1 of 0 cylinders is 7 words wide"),
                "{detail}"
            ),
            other => panic!("an empty entry 7 words wide produced {other:?}"),
        }
    }
}

/// CRC32 (IEEE) — reimplemented here so hostile-header tests can re-seal
/// their tampering exactly as the encoder would.
fn fp_store_crc32(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
        *slot = crc;
    }
    !bytes.iter().fold(0xFFFF_FFFFu32, |crc, &b| {
        (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize]
    })
}
