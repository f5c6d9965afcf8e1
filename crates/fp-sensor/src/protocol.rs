//! The study's capture protocol.
//!
//! Each participant provided two sets of fingerprints on every live-scan
//! device plus one ink ten-print card (whose rolled and plain impressions
//! give the two D4 samples used by the intra-device analyses). Ink capture
//! happened last so it would not degrade live-scan quality — the order is
//! encoded here for fidelity even though the simulation has no carry-over
//! effect between devices.

use fp_core::ids::{DeviceId, Finger, SessionId};
use fp_core::rng::SeedTree;
use fp_synth::metrics::SynthMetrics;
use fp_synth::population::Subject;
use fp_telemetry::Telemetry;

use crate::acquisition::{Acquisition, Impression};
use crate::device::Device;
use crate::metrics::CaptureMetrics;

/// Number of capture sessions per device per participant.
pub const SESSIONS_PER_DEVICE: u8 = 2;

/// The fixed capture protocol of the study.
#[derive(Debug, Clone, Default)]
pub struct CaptureProtocol {
    acquisition: Acquisition,
    metrics: CaptureMetrics,
    synth_metrics: SynthMetrics,
}

impl CaptureProtocol {
    /// Creates the protocol engine.
    pub fn new() -> Self {
        CaptureProtocol::default()
    }

    /// Creates a protocol engine that records per-device impression counts,
    /// acquisition loss tallies and master-synthesis work into `telemetry`.
    pub fn with_telemetry(telemetry: &Telemetry) -> Self {
        CaptureProtocol {
            acquisition: Acquisition,
            metrics: CaptureMetrics::new(telemetry),
            synth_metrics: SynthMetrics::new(telemetry),
        }
    }

    /// The device capture order used in the study: all live-scan devices in
    /// index order, ink cards last.
    pub fn device_order() -> [DeviceId; 5] {
        [
            DeviceId(0),
            DeviceId(1),
            DeviceId(2),
            DeviceId(3),
            DeviceId(4), // ink last, to not affect live-scan quality
        ]
    }

    /// Captures one `(device, session)` impression of `finger` for
    /// `subject`. Deterministic in the subject's seed.
    pub fn capture(
        &self,
        subject: &Subject,
        finger: Finger,
        device: DeviceId,
        session: SessionId,
    ) -> Impression {
        let master = subject.master_print_metered(finger, &self.synth_metrics);
        let dev: &Device = Device::by_id(device);
        // Habituation grows with the subject's position in the protocol:
        // later devices and the second session see a more practiced user.
        let order_pos = Self::device_order()
            .iter()
            .position(|d| *d == device)
            .expect("device is in the protocol") as f64;
        let habituation =
            ((order_pos * SESSIONS_PER_DEVICE as f64 + session.0 as f64) / 10.0).min(1.0);
        // Ink cards: the finger is inked and rolled once, and both D4
        // samples of the study are *scans of that one card* — so session 1
        // is a re-digitization of the session-0 impression (scanner noise
        // only), not a fresh capture. Live-scan devices get a fresh
        // presentation and fresh sensor noise every session.
        if dev.is_ink() && session.0 > 0 {
            let base = self.capture(subject, finger, device, SessionId(0));
            let rescan_seed =
                subject
                    .seed()
                    .child(&[0xAC, device.0 as u64, session.0 as u64, finger.index(), 2]);
            let rescan = base.rescanned(session, &rescan_seed);
            self.metrics
                .record_impression(device, rescan.template().len());
            return rescan;
        }
        let setup_seed: SeedTree =
            subject
                .seed()
                .child(&[0xAC, device.0 as u64, session.0 as u64, finger.index(), 0]);
        let noise_seed: SeedTree =
            subject
                .seed()
                .child(&[0xAC, device.0 as u64, session.0 as u64, finger.index(), 1]);
        let impression = self.acquisition.capture_with_seeds_metered(
            &master,
            &subject.skin(),
            dev,
            subject.id(),
            finger,
            session,
            habituation,
            &setup_seed,
            &noise_seed,
            &self.metrics,
        );
        self.metrics
            .record_impression(device, impression.template().len());
        impression
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_synth::population::{Population, PopulationConfig};

    fn subject() -> Subject {
        Population::generate(&PopulationConfig::new(123, 1)).subjects()[0].clone()
    }

    #[test]
    fn ink_is_captured_last() {
        assert_eq!(
            *CaptureProtocol::device_order().last().unwrap(),
            DeviceId(4)
        );
    }

    #[test]
    fn capture_is_reproducible() {
        let s = subject();
        let p = CaptureProtocol::new();
        let a = p.capture(&s, Finger::RIGHT_INDEX, DeviceId(1), SessionId(0));
        let b = p.capture(&s, Finger::RIGHT_INDEX, DeviceId(1), SessionId(0));
        assert_eq!(a, b);
    }

    #[test]
    fn sessions_differ() {
        let s = subject();
        let p = CaptureProtocol::new();
        let a = p.capture(&s, Finger::RIGHT_INDEX, DeviceId(0), SessionId(0));
        let b = p.capture(&s, Finger::RIGHT_INDEX, DeviceId(0), SessionId(1));
        assert_ne!(a.template(), b.template());
    }

    #[test]
    fn devices_differ() {
        let s = subject();
        let p = CaptureProtocol::new();
        let a = p.capture(&s, Finger::RIGHT_INDEX, DeviceId(0), SessionId(0));
        let b = p.capture(&s, Finger::RIGHT_INDEX, DeviceId(2), SessionId(0));
        assert_ne!(a.template(), b.template());
    }
}
