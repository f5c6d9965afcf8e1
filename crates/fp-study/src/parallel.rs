//! Tiny data-parallel helper on `std::thread::scope` — no extra runtime
//! dependency for the score-matrix computation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use fp_telemetry::{StageRecorder, Telemetry, WorkerStats};

/// Applies `f` to every index in `0..n`, in parallel across the machine's
/// cores, collecting results in index order.
///
/// `f` is called exactly once per index (work-stealing via an atomic
/// counter), so it may be expensive; it must be `Sync` because multiple
/// worker threads share it.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_metered(n, &Telemetry::disabled(), "", f)
}

/// [`parallel_map`] with telemetry: records the stage's wall time plus each
/// worker thread's item count, busy time and utilization under `stage`.
/// When `telemetry` is disabled the per-item clock reads are skipped and
/// nothing is recorded.
pub fn parallel_map_metered<T, F>(n: usize, telemetry: &Telemetry, stage: &str, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let recorder = StageRecorder::start(telemetry, stage);
    let timed = recorder.is_enabled();
    // Capture the spawning thread's span as the parent for worker-side
    // spans, so the trace tree stays connected across the thread hop.
    let ctx = telemetry.trace_ctx();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    if threads <= 1 {
        let _lane = if timed {
            Some(telemetry.worker_span(stage, &[("worker", "0".to_string())]))
        } else {
            None
        };
        let mut stats = WorkerStats::default();
        let out = (0..n)
            .map(|i| {
                if timed {
                    let start = Instant::now();
                    let value = f(i);
                    stats.record(start.elapsed());
                    value
                } else {
                    f(i)
                }
            })
            .collect();
        recorder.finish(vec![stats]);
        return out;
    }
    let counter = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    // Each worker collects its `(index, value)` pairs in a vector of its
    // own; the joined vectors are then scattered into `slots` by index.
    let results: Vec<(Vec<(usize, T)>, WorkerStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let (ctx, counter, f) = (&ctx, &counter, &f);
                scope.spawn(move || {
                    let _adopt = telemetry.in_ctx(ctx);
                    // Trace-only: shows each worker's lane on the timeline
                    // without adding a segment to the dotted histogram
                    // paths of the spans `f` opens.
                    let _lane = if timed {
                        Some(telemetry.worker_span(stage, &[("worker", w.to_string())]))
                    } else {
                        None
                    };
                    let mut local = Vec::new();
                    let mut stats = WorkerStats::default();
                    loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if timed {
                            let start = Instant::now();
                            local.push((i, f(i)));
                            stats.record(start.elapsed());
                        } else {
                            local.push((i, f(i)));
                        }
                    }
                    (local, stats)
                })
            })
            .collect();
        // A worker's panic re-raises its own payload, not a generic one.
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut workers = Vec::with_capacity(results.len());
    for (chunk, stats) in results {
        workers.push(stats);
        for (i, value) in chunk {
            slots[i] = Some(value);
        }
    }
    recorder.finish(workers);
    slots
        .into_iter()
        .map(|s| s.expect("every index visited exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_all_indices_in_order() {
        let out = parallel_map(1000, |i| i * 2);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        let out: Vec<u32> = parallel_map(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn each_index_visited_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let hits: Vec<AtomicU32> = (0..500).map(|_| AtomicU32::new(0)).collect();
        let _ = parallel_map(500, |i| hits[i].fetch_add(1, Ordering::SeqCst));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "item 37 has no score")]
    fn a_worker_panic_keeps_its_message() {
        let _ = parallel_map(64, |i| {
            assert_ne!(i, 37, "item {i} has no score");
            i
        });
    }

    #[test]
    fn metered_map_records_stage_with_all_items() {
        let t = Telemetry::enabled();
        let out = parallel_map_metered(300, &t, "demo", |i| i + 1);
        assert_eq!(out.len(), 300);
        let stages = t.snapshot().stages;
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].stage, "demo");
        assert_eq!(stages[0].items, 300);
        assert_eq!(stages[0].threads.iter().map(|w| w.items).sum::<u64>(), 300);
    }

    #[test]
    fn metered_map_connects_worker_spans_to_the_calling_span() {
        let t = Telemetry::enabled();
        {
            let _stage = t.span("stage");
            let _ = parallel_map_metered(64, &t, "stage.items", |i| {
                let _item = t.span_with("item", &[("i", i.to_string())]);
                i
            });
        }
        let trace = t.trace_snapshot();
        assert_eq!(trace.validate_tree().expect("well-formed"), 1);
        let stage = trace.spans.iter().find(|s| s.name == "stage").unwrap();
        let lanes: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "stage.items")
            .collect();
        assert!(!lanes.is_empty());
        for lane in &lanes {
            assert_eq!(lane.parent, Some(stage.id));
        }
        let items = trace.spans.iter().filter(|s| s.name == "item").count();
        assert_eq!(items, 64);
        // Worker lanes are trace-only: item histogram paths are unchanged.
        assert_eq!(t.snapshot().durations["item"].count, 64);
    }

    #[test]
    fn metered_map_with_disabled_telemetry_records_nothing() {
        let t = Telemetry::disabled();
        let out = parallel_map_metered(50, &t, "quiet", |i| i);
        assert_eq!(out.len(), 50);
        assert!(t.snapshot().stages.is_empty());
    }
}
