//! Per-stage thread statistics for instrumented `parallel_map` runs.

use std::time::{Duration, Instant};

use serde::Serialize;

use crate::Telemetry;

/// One worker thread's share of a parallel stage.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ThreadStats {
    /// Worker index within the stage.
    pub thread: usize,
    /// Items this worker processed.
    pub items: u64,
    /// Time spent inside the work closure, in nanoseconds.
    pub busy_ns: u64,
    /// `busy_ns` over the stage's wall time: 1.0 means the worker never
    /// waited on the work queue.
    pub utilization: f64,
}

/// A parallel stage: wall time plus each worker's items and busy time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageStats {
    /// Stage name (e.g. `"scores.genuine"`).
    pub stage: String,
    /// Total items processed across workers.
    pub items: u64,
    /// Stage wall time in nanoseconds.
    pub wall_ns: u64,
    /// Per-worker statistics, in worker order.
    pub threads: Vec<ThreadStats>,
}

/// Collects one stage's statistics; workers record into their own
/// [`WorkerStats`], and [`StageRecorder::finish`] files the stage into the
/// telemetry registry.
#[derive(Debug)]
pub struct StageRecorder {
    telemetry: Telemetry,
    stage: String,
    start: Instant,
}

/// One worker's accumulator; cheap plain fields, merged at `finish`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    items: u64,
    busy: Duration,
}

impl WorkerStats {
    /// Records one processed item and the time it took.
    #[inline]
    pub fn record(&mut self, elapsed: Duration) {
        self.items += 1;
        self.busy += elapsed;
    }
}

impl StageRecorder {
    /// Starts recording a named stage; inert when `telemetry` is disabled.
    pub fn start(telemetry: &Telemetry, stage: &str) -> StageRecorder {
        StageRecorder {
            telemetry: telemetry.clone(),
            stage: stage.to_string(),
            start: Instant::now(),
        }
    }

    /// Whether workers should bother timing their items.
    pub fn is_enabled(&self) -> bool {
        self.telemetry.is_enabled()
    }

    /// Completes the stage with each worker's accumulated stats.
    pub fn finish(self, workers: Vec<WorkerStats>) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let wall = self.start.elapsed();
        let wall_ns = wall.as_nanos().min(u64::MAX as u128) as u64;
        let threads: Vec<ThreadStats> = workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let busy_ns = w.busy.as_nanos().min(u64::MAX as u128) as u64;
                ThreadStats {
                    thread: i,
                    items: w.items,
                    busy_ns,
                    utilization: if wall_ns == 0 {
                        0.0
                    } else {
                        busy_ns as f64 / wall_ns as f64
                    },
                }
            })
            .collect();
        self.telemetry.push_stage(StageStats {
            stage: self.stage,
            items: workers.iter().map(|w| w.items).sum(),
            wall_ns,
            threads,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_stage_lands_in_snapshot() {
        let t = Telemetry::enabled();
        let recorder = StageRecorder::start(&t, "demo");
        let mut w0 = WorkerStats::default();
        let mut w1 = WorkerStats::default();
        w0.record(Duration::from_micros(10));
        w0.record(Duration::from_micros(20));
        w1.record(Duration::from_micros(5));
        recorder.finish(vec![w0, w1]);

        let stages = t.snapshot().stages;
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].stage, "demo");
        assert_eq!(stages[0].items, 3);
        assert_eq!(stages[0].threads.len(), 2);
        assert_eq!(stages[0].threads[0].items, 2);
        assert!(stages[0].threads[0].utilization >= 0.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let t = Telemetry::disabled();
        let recorder = StageRecorder::start(&t, "demo");
        assert!(!recorder.is_enabled());
        recorder.finish(vec![WorkerStats::default()]);
        assert!(t.snapshot().stages.is_empty());
    }
}
