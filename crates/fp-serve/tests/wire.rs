//! Wire-format contract tests.
//!
//! Two properties carry the whole protocol:
//!
//! 1. **Round trip is the identity** — `decode(encode(f)) == f` for every
//!    frame, with `f64` payloads compared *by bit pattern*, because the
//!    coordinator's byte-identical guarantee dies the moment a score is
//!    perturbed in transit.
//! 2. **Decoding is total** — corrupted, truncated, hostile or random
//!    bytes produce a typed [`WireError`], never a panic and never a
//!    silently wrong frame.

use fp_core::codec::crc32;
use fp_core::geometry::{Direction, Point};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_core::MatchScore;
use fp_index::{Candidate, IndexConfig, StageOneScores};
use fp_serve::wire::{
    code, decode_frame, decode_frame_with, encode_frame, encode_frame_with, read_frame_with,
    write_frame_with, Frame, ServerTiming, TraceContext, WireError, HEADER_LEN, MAGIC, MAX_PAYLOAD,
    VERSION,
};
use fp_telemetry::{HistogramSnapshot, SpanRecord};
use proptest::prelude::*;
use rand::Rng;

/// Re-signs a mutated frame the way the encoder would: the CRC covers the
/// request id and payload length (header bytes 7..15) plus the payload, so
/// hostile-payload tests must seal their tampering with the same formula.
fn reseal(header: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut bytes = header[..HEADER_LEN].to_vec();
    bytes.extend_from_slice(payload);
    let mut signed = header[7..HEADER_LEN].to_vec();
    signed.extend_from_slice(payload);
    bytes.extend_from_slice(&crc32(&signed).to_le_bytes());
    bytes
}

fn synthetic_template(seed: u64, n: usize) -> Template {
    let mut rng = SeedTree::new(seed).child(&[0x3E]).rng();
    let mut minutiae = Vec::new();
    for _ in 0..n {
        minutiae.push(Minutia::new(
            Point::new(
                rng.gen::<f64>() * 16.0 - 8.0,
                rng.gen::<f64>() * 20.0 - 10.0,
            ),
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

fn synthetic_scores(seed: u64, n: usize) -> StageOneScores {
    let mut rng = SeedTree::new(seed).child(&[0x3F]).rng();
    StageOneScores {
        vote_scores: (0..n).map(|_| rng.gen::<f64>() * 40.0).collect(),
        cyl_scores: (0..n).map(|_| rng.gen::<f64>()).collect(),
        bucket_hits: rng.gen::<u64>() >> 20,
        hamming_word_ops: rng.gen::<u64>() >> 20,
    }
}

/// Bit-level equality of templates: positions, directions and
/// reliabilities must survive the wire with their exact `f64` bits.
fn assert_template_bits(a: &Template, b: &Template) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.resolution_dpi().to_bits(), b.resolution_dpi().to_bits());
    for (ma, mb) in a.minutiae().iter().zip(b.minutiae()) {
        assert_eq!(ma.pos.x.to_bits(), mb.pos.x.to_bits());
        assert_eq!(ma.pos.y.to_bits(), mb.pos.y.to_bits());
        assert_eq!(
            ma.direction.radians().to_bits(),
            mb.direction.radians().to_bits()
        );
        assert_eq!(ma.kind, mb.kind);
        assert_eq!(ma.reliability.to_bits(), mb.reliability.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every request/response frame round-trips exactly through both the
    /// slice codec and the stream codec.
    #[test]
    fn frames_round_trip(seed in 0u64..10_000, n in 0usize..24, scores_n in 0usize..50) {
        let probe = synthetic_template(seed, n);
        let scores = synthetic_scores(seed, scores_n);
        let mut rng = SeedTree::new(seed).child(&[0x40]).rng();
        let candidates: Vec<Candidate> = (0..scores_n)
            .map(|i| Candidate { id: i as u32, score: MatchScore::new(rng.gen::<f64>() * 90.0) })
            .collect();
        let selected: Vec<u32> = (0..scores_n as u32).collect();
        let frames = vec![
            Frame::EnrollBatch {
                config: IndexConfig::default(),
                templates: vec![synthetic_template(seed ^ 1, n), probe.clone()],
                trace: None,
            },
            Frame::EnrollOk { enrolled: n as u32, shard_len: (n * 3) as u32 },
            Frame::StageOne { probe: probe.clone(), trace: None },
            Frame::StageOne {
                probe: probe.clone(),
                trace: Some(TraceContext { trace_id: seed, parent_span_id: seed ^ 0xA5A5, sampled: true }),
            },
            Frame::StageOneOk { scores: scores.clone(), timing: None },
            Frame::StageOneOk {
                scores,
                timing: Some(ServerTiming { queue_wait_ns: seed, work_ns: seed.wrapping_mul(3) }),
            },
            Frame::Rerank { probe: probe.clone(), selected: selected.clone(), trace: None },
            Frame::Rerank {
                probe: probe.clone(),
                selected,
                trace: Some(TraceContext { trace_id: 1, parent_span_id: 2, sampled: false }),
            },
            Frame::RerankOk { candidates: candidates.clone(), timing: None },
            Frame::RerankOk {
                candidates,
                timing: Some(ServerTiming { queue_wait_ns: 0, work_ns: u64::MAX }),
            },
            Frame::Trace { since_span_id: seed },
            Frame::Health,
            Frame::HealthOk { shard_len: 7 },
            Frame::Shutdown,
            Frame::ShutdownOk,
            Frame::Error { code: code::INTERNAL, detail: format!("seed {seed} détail") },
        ];
        for frame in frames {
            let bytes = encode_frame(&frame);
            let decoded = decode_frame(&bytes).expect("round trip decodes");
            prop_assert_eq!(&decoded, &frame);
            let (id, streamed, consumed) =
                read_frame_with(&mut &bytes[..]).expect("stream decodes");
            prop_assert_eq!((id, &streamed), (0, &frame));
            prop_assert_eq!(consumed, bytes.len());
        }
    }

    /// Templates survive the wire with exact f64 bit patterns, and so do
    /// stage-1 score arrays — the substrate of byte-identical results.
    #[test]
    fn payload_f64s_are_bit_exact(seed in 0u64..10_000, n in 1usize..30) {
        let probe = synthetic_template(seed, n);
        let bytes = encode_frame(&Frame::StageOne { probe: probe.clone(), trace: None });
        match decode_frame(&bytes).unwrap() {
            Frame::StageOne { probe: decoded, .. } => assert_template_bits(&probe, &decoded),
            other => panic!("wrong frame {}", other.kind()),
        }

        let scores = synthetic_scores(seed, n);
        let bytes = encode_frame(&Frame::StageOneOk { scores: scores.clone(), timing: None });
        match decode_frame(&bytes).unwrap() {
            Frame::StageOneOk { scores: decoded, .. } => {
                for (a, b) in scores.vote_scores.iter().zip(&decoded.vote_scores) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                for (a, b) in scores.cyl_scores.iter().zip(&decoded.cyl_scores) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                prop_assert_eq!(scores.bucket_hits, decoded.bucket_hits);
                prop_assert_eq!(scores.hamming_word_ops, decoded.hamming_word_ops);
            }
            other => panic!("wrong frame {}", other.kind()),
        }
    }

    /// Flipping any single payload byte is caught by the CRC (or, for a
    /// handful of length-prefix-internal flips, by another typed error) —
    /// never a clean decode of different content, never a panic.
    #[test]
    fn single_byte_payload_corruption_is_caught(seed in 0u64..5_000, flip in 0usize..200) {
        let frame = Frame::StageOneOk { scores: synthetic_scores(seed, 4), timing: None };
        let mut bytes = encode_frame(&frame);
        let payload_start = HEADER_LEN;
        let idx = payload_start + flip % (bytes.len() - payload_start);
        bytes[idx] ^= 0x40;
        match decode_frame(&bytes) {
            Err(_) => {}
            Ok(decoded) => prop_assert!(
                false,
                "corrupt byte {} decoded cleanly as {}",
                idx,
                decoded.kind()
            ),
        }
    }

    /// Every strict prefix of a valid frame fails with a typed error
    /// (truncation), never a panic — both codecs.
    #[test]
    fn truncated_frames_error(seed in 0u64..2_000, cut in 0usize..500) {
        let frame = Frame::Rerank {
            probe: synthetic_template(seed, 6),
            selected: vec![0, 1, 2],
            trace: None,
        };
        let bytes = encode_frame(&frame);
        let cut = cut % bytes.len(); // strict prefix
        prop_assert!(decode_frame(&bytes[..cut]).is_err());
        prop_assert!(read_frame_with(&mut &bytes[..cut]).is_err());
    }

    /// Any request id rides the header round trip unharmed, and
    /// the frame body decodes identically regardless of the id — through
    /// both the slice codec and the stream codec.
    #[test]
    fn request_ids_round_trip(seed in 0u64..10_000, id in 0u32..=u32::MAX, n in 0usize..12) {
        let frame = Frame::StageOne { probe: synthetic_template(seed, n), trace: None };
        let bytes = encode_frame_with(id, &frame);
        let (decoded_id, decoded) = decode_frame_with(&bytes).expect("decodes");
        prop_assert_eq!(decoded_id, id);
        prop_assert_eq!(&decoded, &frame);
        let (streamed_id, streamed, consumed) =
            read_frame_with(&mut &bytes[..]).expect("stream decodes");
        prop_assert_eq!(streamed_id, id);
        prop_assert_eq!(&streamed, &frame);
        prop_assert_eq!(consumed, bytes.len());
        // The id-0 compatibility surface sees the same body bytes.
        prop_assert_eq!(&bytes[..7], &encode_frame(&frame)[..7]);
    }

    /// Corrupting any bit of the request-id header field is caught
    /// by the frame CRC — a response can never rejoin the wrong caller via
    /// an undetected id flip.
    #[test]
    fn request_id_corruption_is_caught(seed in 0u64..5_000, id in 0u32..=u32::MAX, bit in 0usize..32) {
        let frame = Frame::HealthOk { shard_len: seed as u32 };
        let mut bytes = encode_frame_with(id, &frame);
        bytes[7 + bit / 8] ^= 1 << (bit % 8);
        match decode_frame_with(&bytes) {
            Err(WireError::BadCrc { .. }) => {}
            other => prop_assert!(false, "expected BadCrc, got {:?}", other),
        }
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn random_bytes_never_panic(seed in 0u64..20_000, len in 0usize..300) {
        let mut rng = SeedTree::new(seed).child(&[0x41]).rng();
        let bytes: Vec<u8> = (0..len).map(|_| (rng.gen::<u64>() & 0xFF) as u8).collect();
        let _ = decode_frame(&bytes);
        let _ = read_frame_with(&mut &bytes[..]);
    }

    /// Corrupting any byte of the trailing trace-context section
    /// — even under a valid (resealed) CRC — is either rejected with a
    /// typed error or decodes to a frame whose *non-trace* payload is
    /// untouched. The template can never be perturbed by context bytes,
    /// and nothing panics.
    #[test]
    fn trace_context_corruption_never_touches_the_probe(
        seed in 0u64..5_000,
        n in 1usize..8,
        offset in 0usize..18,
        flip in 1u8..=255,
    ) {
        let probe = synthetic_template(seed, n);
        let frame = Frame::StageOne {
            probe: probe.clone(),
            trace: Some(TraceContext {
                trace_id: seed.wrapping_mul(0x9E37),
                parent_span_id: !seed,
                sampled: seed % 2 == 0,
            }),
        };
        let bytes = encode_frame(&frame);
        // The context is the last 18 payload bytes: flag + 2×u64 + sampled.
        let payload_len = bytes.len() - HEADER_LEN - 4;
        let mut payload = bytes[HEADER_LEN..HEADER_LEN + payload_len].to_vec();
        let at = payload_len - 18 + offset % 18;
        payload[at] ^= flip;
        let hostile = reseal(&bytes, &payload);
        match decode_frame(&hostile) {
            Err(_) => {}
            Ok(Frame::StageOne { probe: decoded, .. }) => assert_template_bits(&probe, &decoded),
            Ok(other) => prop_assert!(false, "decoded as different frame {}", other.kind()),
        }
    }
}

#[test]
fn bad_magic_is_typed() {
    let mut bytes = encode_frame(&Frame::Health);
    bytes[0] = b'X';
    match decode_frame(&bytes) {
        Err(WireError::BadMagic(m)) => assert_eq!(m[0], b'X'),
        other => panic!("expected BadMagic, got {other:?}"),
    }
    match read_frame_with(&mut &bytes[..]) {
        Err(WireError::BadMagic(_)) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn version_mismatch_is_typed() {
    let mut bytes = encode_frame(&Frame::Health);
    bytes[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
    match decode_frame(&bytes) {
        Err(WireError::VersionMismatch { got, want }) => {
            assert_eq!(got, VERSION + 1);
            assert_eq!(want, VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn unknown_frame_type_is_typed() {
    let mut bytes = encode_frame(&Frame::Health);
    bytes[6] = 0xEE; // frame type byte; not covered by the payload CRC
    match decode_frame(&bytes) {
        Err(WireError::BadFrameType(0xEE)) => {}
        other => panic!("expected BadFrameType, got {other:?}"),
    }
}

#[test]
fn flipped_crc_is_typed() {
    let frame = Frame::Error {
        code: code::BAD_REQUEST,
        detail: "x".to_string(),
    };
    let mut bytes = encode_frame(&frame);
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    match decode_frame(&bytes) {
        Err(WireError::BadCrc { .. }) => {}
        other => panic!("expected BadCrc, got {other:?}"),
    }
}

#[test]
fn oversize_length_prefix_is_typed() {
    let mut bytes = encode_frame(&Frame::Health);
    bytes[11..15].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    match decode_frame(&bytes) {
        Err(WireError::Oversize(len)) => assert_eq!(len, MAX_PAYLOAD + 1),
        other => panic!("expected Oversize, got {other:?}"),
    }
    // The stream reader must reject it BEFORE allocating the payload.
    match read_frame_with(&mut &bytes[..]) {
        Err(WireError::Oversize(_)) => {}
        other => panic!("expected Oversize, got {other:?}"),
    }
}

/// A corrupted element count inside an otherwise CRC-valid payload must be
/// rejected without a giant allocation: re-sign the corrupted payload with
/// a fresh CRC so only the bounds check stands between us and a 16 GiB
/// `Vec::with_capacity`.
#[test]
fn hostile_count_with_valid_crc_is_rejected_cheaply() {
    let bytes = encode_frame(&Frame::StageOneOk {
        scores: StageOneScores {
            vote_scores: vec![1.0],
            cyl_scores: vec![2.0],
            bucket_hits: 0,
            hamming_word_ops: 0,
        },
        timing: None,
    });
    let payload_len = bytes.len() - HEADER_LEN - 4;
    let mut payload = bytes[HEADER_LEN..HEADER_LEN + payload_len].to_vec();
    payload[..4].copy_from_slice(&u32::MAX.to_le_bytes()); // count = 4 billion
    let hostile = reseal(&bytes, &payload);
    match decode_frame(&hostile) {
        Err(WireError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn trailing_payload_bytes_are_rejected() {
    // Append a byte to a Health payload and re-sign it: structurally valid
    // CRC, but the frame decodes to more bytes than the type consumes.
    let payload = vec![0u8];
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.push(7); // Health
    header.extend_from_slice(&0u32.to_le_bytes()); // request id
    header.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let bytes = reseal(&header, &payload);
    match decode_frame(&bytes) {
        Err(WireError::Malformed(_)) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn unknown_minutia_kind_is_rejected() {
    let probe = synthetic_template(9, 3);
    let bytes = encode_frame(&Frame::StageOne { probe, trace: None });
    // First minutia's kind byte: payload = dpi(8) + window(32) + count(4)
    // + pos(16) + dir(8), then the kind byte.
    let kind_at = HEADER_LEN + 8 + 32 + 4 + 16 + 8;
    let payload_len = bytes.len() - HEADER_LEN - 4;
    let mut payload = bytes[HEADER_LEN..HEADER_LEN + payload_len].to_vec();
    payload[kind_at - HEADER_LEN] = 9;
    let hostile = reseal(&bytes, &payload);
    match decode_frame(&hostile) {
        Err(WireError::Malformed(detail)) => assert!(detail.contains("minutia kind")),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn write_frame_reports_wire_bytes() {
    let frame = Frame::HealthOk { shard_len: 3 };
    let mut sink = Vec::new();
    let n = write_frame_with(&mut sink, 9, &frame).unwrap();
    assert_eq!(n, sink.len());
    assert_eq!(sink, encode_frame_with(9, &frame));
}

/// Fowler–Noll–Vo 1a — a digest independent of the codec under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// **Golden bytes pin.** One fixed instance of every payload-carrying
/// frame kind, encoded under request id 7; the `(length, FNV-1a)` pairs
/// were taken from the encoder as it stood before the codec was hoisted
/// into `fp_core::codec`. If this fails the v4 frame layout changed: bump
/// `VERSION` first, then re-pin.
#[test]
fn v4_frame_bytes_are_pinned() {
    let probe = synthetic_template(7, 2);
    let trace = Some(TraceContext {
        trace_id: 0x0102_0304_0506_0708,
        parent_span_id: 42,
        sampled: true,
    });
    let timing = Some(ServerTiming {
        queue_wait_ns: 12_345,
        work_ns: 678_900,
    });
    let h = HistogramSnapshot {
        count: 3,
        sum: 300,
        min: 50,
        max: 150,
        p50: 100,
        p95: 150,
        p99: 150,
        p999: 150,
    };
    let span = SpanRecord {
        id: 11,
        parent: Some(10),
        name: "server.request".to_string(),
        pid: 0,
        thread: 2,
        start_ns: 100,
        dur_ns: 500,
        attrs: vec![("remote_parent".to_string(), "42".to_string())],
    };
    let config = IndexConfig::default();
    let templates = vec![probe.clone()];
    let candidates = (0..2)
        .map(|id| Candidate {
            id,
            score: MatchScore::new(41.5 * f64::from(id)),
        })
        .collect();
    let stats = |name: &str| vec![(name.to_string(), h)];
    #[rustfmt::skip]
    let frames = [
        Frame::EnrollBatch { config, templates, trace },
        Frame::StageOne { probe: probe.clone(), trace },
        Frame::StageOneOk { scores: synthetic_scores(7, 2), timing },
        Frame::Rerank { probe, selected: vec![0, 5, 9], trace: None },
        Frame::RerankOk { candidates, timing: None },
        Frame::StatsOk { counters: vec![("index.searches".to_string(), 96)], durations: stats("index.search.seconds"), values: stats("index.shortlist") },
        Frame::TraceOk { now_ns: 99_000, dropped_spans: 3, spans: vec![span] },
        Frame::Error { code: code::CONFIG_MISMATCH, detail: "détail".to_string() },
    ];
    let pinned = frames.map(|frame| {
        let bytes = encode_frame_with(7, &frame);
        let pin = (frame.kind(), bytes.len(), fnv1a(&bytes));
        assert_eq!(decode_frame_with(&bytes).unwrap(), (7, frame));
        pin
    });
    #[rustfmt::skip]
    let golden = [
        ("enroll", 191, 0x8da9_201b_c48a_f5b4),
        ("stage1", 147, 0x25c8_d7c2_bb00_6a48),
        ("stage1_ok", 88, 0x91a7_aad6_1e40_b3d9),
        ("rerank", 146, 0xadb2_7190_1bf1_fb22),
        ("rerank_ok", 48, 0xb409_80c8_b13a_b4dd),
        ("stats_ok", 228, 0xb611_10b2_0cf2_8c03),
        ("trace_ok", 125, 0x81cb_138e_a08b_d444),
        ("error", 31, 0x581a_f7c3_52c0_d5ae),
    ];
    assert_eq!(pinned, golden, "v4 frame bytes changed");
}
