//! Telemetry instruments for master-print synthesis.
//!
//! The `Default` bundle is disabled (every record is a no-op); construct
//! with [`SynthMetrics::new`] to record into a live
//! [`fp_telemetry::Telemetry`] registry. Everything counted
//! here is a pure function of the seed, so same-seed runs report identical
//! values.

use fp_telemetry::{Counter, Telemetry, ValueHistogram};

/// Instruments for [`crate::MasterPrint`] generation.
#[derive(Debug, Clone, Default)]
pub struct SynthMetrics {
    /// `synth.masters` — master prints generated.
    pub(crate) masters: Counter,
    /// `synth.minutiae_per_master` — ground-truth minutiae per master.
    pub(crate) minutiae_per_master: ValueHistogram,
}

impl SynthMetrics {
    /// Registers the synthesis instruments on `telemetry`.
    pub fn new(telemetry: &Telemetry) -> SynthMetrics {
        SynthMetrics {
            masters: telemetry.counter("synth.masters"),
            minutiae_per_master: telemetry.value("synth.minutiae_per_master"),
        }
    }

    /// Records one generated master with its minutiae count.
    pub(crate) fn record_master(&self, minutiae: usize) {
        self.masters.incr();
        self.minutiae_per_master.record(minutiae as u64);
    }
}
