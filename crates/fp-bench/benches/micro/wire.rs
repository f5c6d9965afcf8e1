//! fp-serve wire-format throughput: encode and decode cost of the frames
//! that dominate a cross-process 1:N search. `StageOneOk` carries one score
//! pair per gallery entry (the per-probe hot path), `EnrollBatch` carries
//! whole templates (the build path), `RerankOk` a shortlist of candidates.
//! These costs bound how much of the in-process shard speedup survives the
//! hop onto a socket. The benchmark's `serve_10k` reports the codec cost of
//! one shard's `StageOneOk` from its traced pass and bounds none of it;
//! these rows are the gate, one pair per frame kind.

use fp_bench::harness::Harness;
use std::hint::black_box;

use fp_index::{IndexConfig, StageOneScores};
use fp_serve::{decode_frame, encode_frame, Frame};

fn stage1_frame(entries: usize) -> Frame {
    // Deterministic, irregular score patterns — no RNG needed for a size
    // benchmark, only non-trivial f64 bit patterns.
    Frame::StageOneOk {
        scores: StageOneScores {
            vote_scores: (0..entries).map(|i| (i as f64) * 0.37 + 0.11).collect(),
            cyl_scores: (0..entries).map(|i| 1.0 / (1.0 + i as f64)).collect(),
            bucket_hits: 0x5EED_1234,
            hamming_word_ops: 0xABCD_9876,
        },
        timing: None,
    }
}

fn enroll_frame(templates: usize) -> Frame {
    Frame::EnrollBatch {
        config: IndexConfig::default(),
        templates: crate::cohort(templates).pool().to_vec(),
        trace: None,
    }
}

fn rerank_ok_frame(entries: usize) -> Frame {
    Frame::RerankOk {
        candidates: (0..entries)
            .map(|i| fp_index::Candidate {
                id: i as u32,
                score: fp_core::MatchScore::new(1.0 / (1.0 + i as f64)),
            })
            .collect(),
        timing: None,
    }
}

pub fn benches(c: &mut Harness) {
    for (name, frame) in [
        ("stage1_ok_2000", stage1_frame(2_000)),
        ("enroll_64", enroll_frame(64)),
        ("rerank_ok_48", rerank_ok_frame(48)),
    ] {
        let bytes = encode_frame(&frame);
        let group_name = format!("wire_{name}");
        let mut group = c.benchmark_group(&group_name);
        group.bench_function("encode", |b| {
            b.iter(|| black_box(encode_frame(black_box(&frame))))
        });
        group.bench_function("decode", |b| {
            b.iter(|| black_box(decode_frame(black_box(&bytes)).expect("valid frame")))
        });
    }
}
