//! Distributed-tracing overhead: the per-request cost of carrying a wire
//! v4 trace context (paid by every sampled cross-process RPC) and the
//! per-drain cost of merging a shard's span records into the coordinator's
//! snapshot. Both sit on paths whose budget is owned elsewhere — the RPC
//! hot path and the trace-collection epilogue — so they live in the
//! committed baseline next to the `wire_*` groups they tax.

use criterion::Criterion;
use std::hint::black_box;

use fp_serve::{decode_frame, encode_frame, Frame, TraceContext};
use fp_telemetry::{SpanRecord, TraceSnapshot, LOCAL_PID, REMOTE_PARENT_ATTR};

/// A traced stage-1 request: what every sampled RPC pays on the wire.
fn traced_stage1() -> Frame {
    Frame::StageOne {
        probe: crate::cohort(1).probe(0).1,
        trace: Some(TraceContext {
            trace_id: 0x5EED_1234_ABCD_0042,
            parent_span_id: 0x0000_7777_0000_0001,
            sampled: true,
        }),
    }
}

/// One shard's drain worth of span records: a `server.request` root with a
/// remote-parent attribute plus its `server.queue_wait` child, repeated —
/// the exact shape `merge_remote` re-parents and re-lanes.
fn remote_spans(requests: u64) -> Vec<SpanRecord> {
    let mut spans = Vec::with_capacity(2 * requests as usize);
    for i in 0..requests {
        spans.push(SpanRecord {
            id: 2 * i + 1,
            parent: None,
            name: "server.request".to_string(),
            pid: LOCAL_PID,
            thread: i % 4,
            start_ns: 1_000 * i,
            dur_ns: 800,
            attrs: vec![
                ("trace_id".to_string(), "42".to_string()),
                (REMOTE_PARENT_ATTR.to_string(), (100 + i).to_string()),
            ],
        });
        spans.push(SpanRecord {
            id: 2 * i + 2,
            parent: Some(2 * i + 1),
            name: "server.queue_wait".to_string(),
            pid: LOCAL_PID,
            thread: i % 4,
            start_ns: 1_000 * i,
            dur_ns: 90,
            attrs: Vec::new(),
        });
    }
    spans
}

/// The local spans the drain merges into: one rpc span per request, ids
/// matching the remote-parent attributes above.
fn local_snapshot(requests: u64) -> TraceSnapshot {
    TraceSnapshot {
        spans: (0..requests)
            .map(|i| SpanRecord {
                id: 100 + i,
                parent: None,
                name: "serve.rpc".to_string(),
                pid: LOCAL_PID,
                thread: i % 4,
                start_ns: 1_000 * i,
                dur_ns: 1_200,
                attrs: Vec::new(),
            })
            .collect(),
        events: Vec::new(),
        dropped_spans: 0,
        dropped_events: 0,
    }
}

pub fn benches(c: &mut Criterion) {
    let frame = traced_stage1();
    let bytes = encode_frame(&frame);
    let mut group = c.benchmark_group("serve");
    group.bench_function("trace_context_encode_decode", |b| {
        b.iter(|| {
            let encoded = encode_frame(black_box(&frame));
            black_box(decode_frame(black_box(&encoded)).expect("valid frame"))
        })
    });
    group.finish();
    assert!(bytes.len() > 18, "traced frame carries the context section");

    const REQUESTS: u64 = 200;
    let base = local_snapshot(REQUESTS);
    let drained = remote_spans(REQUESTS);
    let mut group = c.benchmark_group("trace");
    group.bench_function("merge_remote_spans", |b| {
        b.iter(|| {
            let mut merged = base.clone();
            let n = merged.merge_remote(black_box(0), black_box(drained.clone()), 12_345, 0);
            black_box(n)
        })
    });
    group.finish();
}
