//! A table record that rots after a store-backed shard opened its gallery:
//! the shard answers the re-rank with a typed error frame, its coordinator
//! reports the segment file and the entry and counts the failed search, and
//! the shard keeps serving — even with one worker, which a panicking
//! re-rank would have killed.

use std::time::Duration;

use fp_core::geometry::{Direction, Point};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_index::{CandidateIndex, IndexConfig};
use fp_match::PairTableMatcher;
use fp_serve::{Coordinator, RemoteShard, RetryPolicy, ShardServer};
use fp_store::GalleryStore;
use fp_telemetry::Telemetry;
use rand::Rng;

fn synthetic_template(seed: u64, n: usize) -> Template {
    let mut rng = SeedTree::new(seed).child(&[0x7A]).rng();
    let mut minutiae: Vec<Minutia> = Vec::new();
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
            MinutiaKind::RidgeEnding,
            rng.gen::<f64>() * 0.5 + 0.5,
        ));
    }
    Template::builder(500.0)
        .capture_window_mm(20.0, 24.0)
        .extend(minutiae)
        .build()
        .unwrap()
}

/// A scratch directory, removed on every exit.
struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_rotten_table_on_a_one_worker_shard_is_a_typed_error_and_the_shard_lives() {
    let dir = Scratch(std::env::temp_dir().join(format!("fp-study-rot-{}", std::process::id())));
    let templates: Vec<Template> = (0..12u64).map(|i| synthetic_template(i, 24)).collect();
    let mut index = CandidateIndex::new(PairTableMatcher::default());
    index.enroll_all(&templates);
    let mut store = GalleryStore::create(&dir.0).unwrap();
    let seq = store.append_index(&index).unwrap();
    let opened = store.open_index().unwrap();

    // TABLES is section-table row 2 (at 16 + 2 * 24): id u32 | offset u64
    // | len u64 | crc u32. Its first record is entry 0's table.
    let file = format!("seg-{seq:08}.fpseg");
    let path = dir.0.join(&file);
    let mut segment = std::fs::read(&path).unwrap();
    let tables_off = u64::from_le_bytes(segment[68..76].try_into().unwrap()) as usize;
    segment[tables_off + 12] ^= 0x10;
    std::fs::write(&path, &segment).unwrap();

    let server = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0")
        .unwrap()
        .with_pool(1, 8)
        .with_index(opened);
    let addr = server.local_addr().unwrap();
    let handle = server.spawn();
    let retry = RetryPolicy {
        attempts: 2,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(20),
        seed: 3,
    };
    let deadline = Duration::from_secs(2);
    let telemetry = Telemetry::enabled();
    let remote = Coordinator::connect(&[addr], IndexConfig::default(), deadline, retry)
        .unwrap()
        .with_telemetry(&telemetry);

    // A full budget re-ranks every entry, entry 0 included.
    match remote.search_with_budget(&templates[3], templates.len()) {
        Err(err) => {
            let text = err.to_string();
            assert!(
                text.contains(&format!("{file}): entry 0 table CRC mismatch after open")),
                "{text}"
            );
        }
        Ok(_) => panic!("a rotten table record must fail the search"),
    }
    assert_eq!(telemetry.snapshot().counters["serve.search.failed"], 1);
    let shard = RemoteShard::new(addr, 0, deadline, retry);
    assert_eq!(shard.health().unwrap(), templates.len());
    handle.join();
}
