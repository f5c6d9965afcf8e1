//! Lock-free log-linear histograms.
//!
//! Values land in one of 256 buckets: exact buckets for 0–15, then four
//! logarithmic sub-buckets per power of two (≤ ~19% relative width, so
//! reported percentiles are within ~10% of the true value). Recording is a
//! single relaxed `fetch_add` plus `fetch_min`/`fetch_max` maintenance —
//! safe to hammer from every worker thread at once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;

/// Exact buckets below this value.
const LINEAR: u64 = 16;
/// Log sub-buckets per power of two.
const SUBS: usize = 4;
/// Total bucket count: 16 linear + 4 × (octaves 4..=63).
pub(crate) const BUCKETS: usize = LINEAR as usize + SUBS * 60;

#[derive(Debug)]
pub(crate) struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index of `v`.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as usize; // 4..=63
    let sub = ((v >> (exp - 2)) & 0x3) as usize; // top two mantissa bits
    LINEAR as usize + (exp - 4) * SUBS + sub
}

/// Lower bound of bucket `index` (inverse of [`bucket_index`]).
fn bucket_floor(index: usize) -> u64 {
    if index < LINEAR as usize {
        return index as u64;
    }
    let exp = (index - LINEAR as usize) / SUBS + 4;
    let sub = ((index - LINEAR as usize) % SUBS) as u64;
    (1u64 << exp) | (sub << (exp - 2))
}

/// Representative value of bucket `index`: the midpoint of its range.
fn bucket_mid(index: usize) -> u64 {
    let lo = bucket_floor(index);
    let hi = if index + 1 < BUCKETS {
        bucket_floor(index + 1)
    } else {
        lo
    };
    lo + (hi - lo) / 2
}

impl HistogramCore {
    pub(crate) fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the q-quantile among `count` recorded values.
            let rank = ((q * (count - 1) as f64).round() as u64).min(count - 1);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen > rank {
                    // A bucket midpoint can overshoot the true maximum;
                    // the exact max is always a tighter bound.
                    return bucket_mid(i).min(max);
                }
            }
            max
        };
        // Tail percentiles need population: with fewer than 4 samples the
        // rank rounding collapses p99/p999 onto low ranks and the tail
        // under-reports (a single slow call would vanish from p99). The
        // exact max is the honest tail estimate until there is enough data.
        let tail = |q: f64| -> u64 {
            if count > 0 && count < 4 {
                max
            } else {
                percentile(q)
            }
        };
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max,
            p50: percentile(0.50),
            p95: percentile(0.95),
            p99: tail(0.99),
            p999: tail(0.999),
        }
    }
}

/// Aggregated view of one histogram. For duration histograms every figure
/// is in nanoseconds; for value histograms they are plain magnitudes.
/// `p50`/`p95`/`p99`/`p999` are bucket midpoints clamped to the exact
/// maximum (≤ ~10% relative error); `min`, `max` and `sum` are exact.
///
/// Near-empty semantics: with fewer than 4 recorded values the tail
/// percentiles `p99`/`p999` report the exact `max` instead of a rank
/// estimate — rank rounding over 1–3 samples lands on low ranks, which
/// would hide the only slow observation the histogram holds. An empty
/// histogram is all zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: u64,
    /// Exact minimum (0 when empty).
    pub min: u64,
    /// Exact maximum (0 when empty).
    pub max: u64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 95th percentile.
    pub p95: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Approximate 99.9th percentile (the tail the load harness lives on).
    pub p999: u64,
}

impl HistogramSnapshot {
    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Records wall-clock durations (as nanoseconds) into a shared histogram.
#[derive(Debug, Clone, Default)]
pub struct DurationHistogram {
    core: Option<Arc<HistogramCore>>,
}

impl DurationHistogram {
    pub(crate) fn new(core: Option<Arc<HistogramCore>>) -> DurationHistogram {
        DurationHistogram { core }
    }

    pub(crate) fn core(&self) -> Option<&Arc<HistogramCore>> {
        self.core.as_ref()
    }

    /// Records one duration.
    #[inline]
    pub fn record(&self, d: Duration) {
        if let Some(core) = &self.core {
            core.record(d.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// The current aggregate (zeros when disabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core
            .as_ref()
            .map(|c| c.snapshot())
            .unwrap_or(EMPTY_SNAPSHOT)
    }
}

/// Records work sizes (counts of pairs, clusters, votes, ...) into a shared
/// histogram.
#[derive(Debug, Clone, Default)]
pub struct ValueHistogram {
    core: Option<Arc<HistogramCore>>,
}

impl ValueHistogram {
    pub(crate) fn new(core: Option<Arc<HistogramCore>>) -> ValueHistogram {
        ValueHistogram { core }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.core {
            core.record(v);
        }
    }

    /// The current aggregate (zeros when disabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core
            .as_ref()
            .map(|c| c.snapshot())
            .unwrap_or(EMPTY_SNAPSHOT)
    }
}

const EMPTY_SNAPSHOT: HistogramSnapshot = HistogramSnapshot {
    count: 0,
    sum: 0,
    min: 0,
    max: 0,
    p50: 0,
    p95: 0,
    p99: 0,
    p999: 0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_floor_are_inverse() {
        for v in [0u64, 1, 15, 16, 17, 100, 1000, 1 << 20, u64::MAX / 2] {
            let idx = bucket_index(v);
            assert!(bucket_floor(idx) <= v, "floor({idx}) > {v}");
            if idx + 1 < BUCKETS {
                assert!(bucket_floor(idx + 1) > v, "next floor({}) <= {v}", idx + 1);
            }
        }
        for idx in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_floor(idx)), idx);
        }
    }

    #[test]
    fn exact_stats_are_exact() {
        let core = HistogramCore::default();
        for v in [3u64, 9, 200, 50, 7] {
            core.record(v);
        }
        let s = core.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 269);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 200);
    }

    #[test]
    fn percentiles_are_close_for_uniform_values() {
        let core = HistogramCore::default();
        for v in 1..=1000u64 {
            core.record(v);
        }
        let s = core.snapshot();
        let rel = |a: u64, b: u64| (a as f64 - b as f64).abs() / b as f64;
        assert!(rel(s.p50, 500) < 0.15, "p50 = {}", s.p50);
        assert!(rel(s.p95, 950) < 0.15, "p95 = {}", s.p95);
        assert!(rel(s.p99, 990) < 0.15, "p99 = {}", s.p99);
        assert!(rel(s.p999, 999) < 0.15, "p999 = {}", s.p999);
        // The tail is ordered by construction.
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.p999);
    }

    #[test]
    fn small_exact_values_give_exact_percentiles() {
        let core = HistogramCore::default();
        for v in [2u64, 2, 2, 2, 2, 2, 2, 2, 2, 12] {
            core.record(v);
        }
        let s = core.snapshot();
        assert_eq!(s.p50, 2);
    }

    #[test]
    fn near_empty_tail_percentiles_report_the_max() {
        // One slow call must not vanish from the tail.
        let core = HistogramCore::default();
        core.record(1_000_000);
        let s = core.snapshot();
        assert_eq!(s.p99, 1_000_000);
        assert_eq!(s.p999, 1_000_000);
        core.record(3);
        core.record(5);
        let s = core.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.p99, 1_000_000);
        assert_eq!(s.p999, 1_000_000);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.p999);
    }

    #[test]
    fn percentiles_never_exceed_the_exact_max() {
        let core = HistogramCore::default();
        for _ in 0..100 {
            core.record(1000); // bucket midpoint overshoots 1000
        }
        let s = core.snapshot();
        assert!(s.p50 <= s.max, "p50 = {} > max = {}", s.p50, s.max);
        assert!(s.p999 <= s.max, "p999 = {} > max = {}", s.p999, s.max);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = HistogramCore::default().snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p95: 0,
                p99: 0,
                p999: 0,
            }
        );
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn concurrent_records_lose_nothing() {
        let core = std::sync::Arc::new(HistogramCore::default());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let core = std::sync::Arc::clone(&core);
                scope.spawn(move || {
                    for i in 0..25_000u64 {
                        core.record(t * 25_000 + i);
                    }
                });
            }
        });
        assert_eq!(core.snapshot().count, 100_000);
    }
}
