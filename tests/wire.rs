//! Wire-codec contract: every frame round-trips bit-exactly through
//! encode → decode over ragged payload shapes, and malformed input —
//! truncated prefixes, truncated payloads, oversized frames, unknown
//! opcodes, corrupt enum codes — produces a typed error instead of a
//! panic or a partial value.

use h3dfact::prelude::*;
use h3dfact::wire::{
    backend_code, decode_body, read_frame, Frame, ShedReason, WireError, WireRegistryStats,
    WireReport, WireResponse, WireShardStat, WireStats, WireTenantStat, MAX_FRAME_LEN,
};
use hdc::rng::rng_from_seed;
use proptest::prelude::*;

// ─── Strategies ─────────────────────────────────────────────────────────

/// Ragged hypervector dimensions: sub-word, word-boundary straddles, and
/// multi-word shapes.
fn arb_dim() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=4, 60usize..=68, 120usize..=130, Just(256)]
}

fn arb_vector() -> impl Strategy<Value = BipolarVector> {
    (arb_dim(), 0u64..1_000)
        .prop_map(|(dim, seed)| BipolarVector::random(dim, &mut rng_from_seed(seed)))
}

/// Tenant names incl. empty and non-ASCII.
fn arb_tenant() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("tenant-a".to_string()),
        Just("λ-tenant-𝛼".to_string()),
        proptest::collection::vec(0u8..26, 1usize..24)
            .prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect()),
    ]
}

fn arb_backend() -> impl Strategy<Value = BackendKind> {
    (0usize..BackendKind::ALL.len()).prop_map(|i| BackendKind::ALL[i])
}

fn arb_opt_f64() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        Just(None),
        (-1.0e12..1.0e12f64).prop_map(Some),
        Just(Some(0.0)),
        Just(Some(f64::MIN_POSITIVE)),
    ]
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..u64::MAX / 2).prop_map(Some)]
}

fn arb_indices() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..10_000, 0usize..8)
}

fn arb_report() -> impl Strategy<Value = WireReport> {
    (
        0u64..100_000,
        0u64..64,
        arb_opt_u64(),
        arb_opt_f64(),
        arb_opt_f64(),
        (arb_opt_u64(), arb_opt_u64(), arb_opt_u64()),
    )
        .prop_map(
            |(iterations, degenerate_events, cycles, latency_s, energy_j, (t, a, b))| WireReport {
                iterations,
                degenerate_events,
                cycles,
                latency_s,
                energy_j,
                tier_switches: t,
                adc_conversions: a,
                buffer_peak_bits: b,
            },
        )
}

fn arb_request() -> impl Strategy<Value = Frame> {
    (
        0u64..u64::MAX / 2,
        arb_tenant(),
        arb_backend(),
        arb_vector(),
        prop_oneof![Just(None), arb_indices().prop_map(Some)],
        arb_opt_u64(),
    )
        .prop_map(
            |(tag, tenant, backend, query, truth, deadline_us)| Frame::Request {
                tag,
                tenant,
                backend,
                query,
                truth,
                deadline_us,
            },
        )
}

fn arb_response() -> impl Strategy<Value = Frame> {
    (
        (0u64..1 << 40, 0u64..1 << 40, arb_backend(), 0u32..64),
        (0u64..1 << 40, 0usize..2, 0usize..2, 0u64..100_000),
        arb_opt_u64(),
        arb_indices(),
        arb_opt_f64(),
        prop_oneof![Just(None), arb_report().prop_map(Some)],
    )
        .prop_map(
            |(
                (tag, id, backend, shard),
                (cursor, solved, converged, iterations),
                solved_at,
                decoded,
                wall_latency_s,
                report,
            )| {
                Frame::Response(WireResponse {
                    tag,
                    id,
                    backend,
                    shard,
                    cursor,
                    solved: solved == 1,
                    converged: converged == 1,
                    iterations,
                    solved_at,
                    decoded,
                    wall_latency_s,
                    report,
                })
            },
        )
}

fn arb_stats() -> impl Strategy<Value = Frame> {
    (
        (0u64..1 << 40, 0.0..1e4f64, 0.0..1e4f64, 0.0..1e4f64),
        (0.0..1e4f64, 0u64..1 << 40, 0u64..1 << 40),
        (
            0u32..1 << 16,
            0u64..1 << 40,
            0u64..1 << 40,
            0u64..1 << 40,
            0u64..1 << 40,
        ),
        proptest::collection::vec(0u64..1 << 40, 5),
        proptest::collection::vec(0u64..1 << 40, 9),
        proptest::collection::vec((arb_backend(), 0u32..64, 0u64..1 << 40), 0usize..5),
        proptest::collection::vec(0u64..1 << 40, 9),
        proptest::collection::vec(
            (
                arb_tenant(),
                (0u64..1 << 30, 0u64..1 << 30, 0u32..100, 0u64..1 << 30),
                arb_opt_f64(),
                arb_opt_f64(),
            ),
            0usize..4,
        ),
    )
        .prop_map(
            |(
                (latency_samples, p50_ms, p95_ms, p99_ms),
                (p999_ms, accepted, completed),
                (
                    open_connections,
                    reaped_timeout,
                    version_rejected,
                    conn_rejected,
                    accounting_anomalies,
                ),
                shed,
                service,
                shards,
                registry,
                tenants,
            )| {
                Frame::StatsResponse(WireStats {
                    latency_samples,
                    p50_ms,
                    p95_ms,
                    p99_ms,
                    p999_ms,
                    accepted,
                    completed,
                    open_connections,
                    reaped_timeout,
                    version_rejected,
                    conn_rejected,
                    accounting_anomalies,
                    shed: shed.try_into().expect("5 shed counters"),
                    service: service.try_into().expect("9 service counters"),
                    shards: shards
                        .into_iter()
                        .map(|(kind, queue_depth, next_cursor)| WireShardStat {
                            kind,
                            queue_depth,
                            next_cursor,
                        })
                        .collect(),
                    registry: WireRegistryStats {
                        interned_sets: registry[0],
                        dedup_hits: registry[1],
                        resolves: registry[2],
                        hot_hits: registry[3],
                        promotions: registry[4],
                        materializations: registry[5],
                        demotions: registry[6],
                        hot_bytes: registry[7],
                        cold_bytes: registry[8],
                    },
                    tenants: tenants
                        .into_iter()
                        .map(
                            |(tenant, (requests, solved, in_flight, iterations), e, l)| {
                                WireTenantStat {
                                    tenant,
                                    requests,
                                    solved,
                                    in_flight,
                                    iterations,
                                    energy_j: e,
                                    latency_s: l,
                                }
                            },
                        )
                        .collect(),
                })
            },
        )
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        arb_request(),
        arb_response(),
        (0u64..1 << 40, 0usize..ShedReason::ALL.len()).prop_map(|(tag, r)| Frame::Shed {
            tag,
            reason: ShedReason::ALL[r],
        }),
        Just(Frame::StatsRequest),
        arb_stats(),
        arb_tenant().prop_map(|message| Frame::Error { message }),
        (0u8..=255).prop_map(|version| Frame::Hello { version }),
        (0u8..=255).prop_map(|version| Frame::HelloAck { version }),
    ]
}

fn round_trip(frame: &Frame) -> Frame {
    let bytes = frame.encode();
    let mut cursor = std::io::Cursor::new(&bytes);
    let back = read_frame(&mut cursor)
        .expect("decodes")
        .expect("one frame");
    assert!(
        read_frame(&mut cursor).expect("clean tail").is_none(),
        "exactly one frame per encode"
    );
    back
}

proptest! {
    #[test]
    fn every_frame_round_trips_bit_exactly(frame in arb_frame()) {
        prop_assert_eq!(round_trip(&frame), frame);
    }

    #[test]
    fn back_to_back_frames_parse_independently(a in arb_frame(), b in arb_frame()) {
        let mut bytes = a.encode();
        bytes.extend_from_slice(&b.encode());
        let mut cursor = std::io::Cursor::new(&bytes);
        prop_assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), a);
        prop_assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b);
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncating_any_frame_errors_cleanly(frame in arb_frame(), cut in 0usize..64) {
        let bytes = frame.encode();
        // Cut strictly inside the frame (any prefix, including inside the
        // 4-byte length header).
        let cut = 1 + cut % (bytes.len() - 1);
        let mut cursor = std::io::Cursor::new(&bytes[..cut]);
        match read_frame(&mut cursor) {
            Err(WireError::Truncated) => {}
            // Cutting inside a variable-length field can also leave a
            // structurally invalid (but complete-looking) prefix; either
            // typed error is acceptable, a panic or Ok is not.
            Err(WireError::Malformed(_)) => {}
            other => prop_assert!(false, "truncated frame must error, got {:?}", other),
        }
    }

    #[test]
    fn flipping_the_opcode_never_panics(frame in arb_frame(), opcode in 0u8..=255) {
        let bytes = frame.encode();
        let mut body = bytes[4..].to_vec();
        body[0] = opcode;
        // Any result is fine except a panic; unknown opcodes must say so.
        if let Err(WireError::UnknownOpcode(op)) = decode_body(&body) {
            prop_assert!(!(0x01..=0x08).contains(&op));
        }
    }
}

/// Arbitrary bytes, half of them drawn from `{0, 1}`: small values keep
/// decoded counts and lengths short, so random tails reach past the
/// first field often enough to decode.
fn arb_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(prop_oneof![0u8..=255, 0u8..=1], 0..max_len)
}

/// An encoded valid frame (length prefix included) with one byte flipped.
fn arb_flipped_frame() -> impl Strategy<Value = Vec<u8>> {
    (arb_frame(), 0usize..4096, 0u8..=255).prop_map(|(frame, pos, flip)| {
        let mut bytes = frame.encode();
        let i = pos % bytes.len();
        bytes[i] ^= flip;
        bytes
    })
}

/// Arbitrary byte streams: raw bytes, a small length prefix before raw
/// bytes (so the body decoder is reached instead of the oversize check),
/// or a valid frame with one byte flipped.
fn arb_stream() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_bytes(96),
        (0u32..48, arb_bytes(96)).prop_map(|(len, tail)| {
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.extend_from_slice(&tail);
            bytes
        }),
        arb_flipped_frame(),
    ]
}

/// Body tails after the opcode: raw bytes, or a valid frame's tail with
/// one byte flipped (which keeps most of the structure decodable).
fn arb_tail() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_bytes(48),
        arb_flipped_frame().prop_map(|bytes| bytes[5..].to_vec()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_streams_never_panic_the_reader(bytes in arb_stream()) {
        let mut cursor = std::io::Cursor::new(&bytes);
        // Read frames until a clean end or the first typed error.
        while let Ok(Some(_)) = read_frame(&mut cursor) {}
    }

    #[test]
    fn decoded_bodies_re_encode_to_their_input(
        opcode in 0u8..=9,
        tail in arb_tail(),
    ) {
        let mut body = vec![opcode];
        body.extend_from_slice(&tail);
        // Either a typed error, or a frame whose encoding is exactly the
        // input: the decoder accepts only canonical bodies.
        if let Ok(frame) = decode_body(&body) {
            prop_assert_eq!(&frame.encode()[4..], &body[..]);
        }
    }
}

// ─── Directed malformed-input cases ─────────────────────────────────────

#[test]
fn truncated_length_prefix_is_truncated_error() {
    let mut cursor = std::io::Cursor::new(&[0x05u8, 0x00][..]);
    match read_frame(&mut cursor) {
        Err(WireError::Truncated) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn empty_stream_is_clean_eof() {
    let mut cursor = std::io::Cursor::new(&[][..]);
    assert!(read_frame(&mut cursor).unwrap().is_none());
}

#[test]
fn zero_length_frame_is_malformed() {
    let zero_len = 0u32.to_le_bytes();
    let mut cursor = std::io::Cursor::new(&zero_len[..]);
    match read_frame(&mut cursor) {
        Err(WireError::Malformed(_)) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn oversized_frame_is_refused_before_reading_the_payload() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(MAX_FRAME_LEN + 7).to_le_bytes());
    // No payload follows — the length alone must trigger the refusal.
    let mut cursor = std::io::Cursor::new(&bytes);
    match read_frame(&mut cursor) {
        Err(WireError::Oversized { len }) => assert_eq!(len, MAX_FRAME_LEN + 7),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn unknown_opcode_is_reported_by_value() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.push(0x7F);
    let mut cursor = std::io::Cursor::new(&bytes);
    match read_frame(&mut cursor) {
        Err(WireError::UnknownOpcode(0x7F)) => {}
        other => panic!("expected UnknownOpcode(0x7F), got {other:?}"),
    }
}

#[test]
fn trailing_bytes_after_a_valid_payload_are_malformed() {
    let mut body = Frame::StatsRequest.encode()[4..].to_vec();
    body.push(0xEE);
    match decode_body(&body) {
        Err(WireError::Malformed(m)) => assert!(m.contains("trailing")),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn corrupt_backend_and_shed_codes_are_malformed() {
    let shed = Frame::Shed {
        tag: 9,
        reason: ShedReason::QueueFull,
    };
    let mut body = shed.encode()[4..].to_vec();
    *body.last_mut().unwrap() = 200; // shed-reason code out of range
    assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));

    let req = Frame::Request {
        tag: 1,
        tenant: "t".to_string(),
        backend: BackendKind::Baseline,
        query: BipolarVector::ones(8),
        truth: None,
        deadline_us: None,
    };
    let mut body = req.encode()[4..].to_vec();
    // The backend code sits right after the 2-byte... locate it: opcode
    // (1) + tag (8) + tenant len (4) + "t" (1) = offset 14.
    assert_eq!(body[14], backend_code(BackendKind::Baseline));
    body[14] = 99;
    assert!(matches!(decode_body(&body), Err(WireError::Malformed(_))));
}

#[test]
fn hello_frames_round_trip_and_mismatch_is_typed() {
    use h3dfact::wire::PROTOCOL_VERSION;
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
    };
    assert_eq!(round_trip(&hello), hello);
    let ack = Frame::HelloAck { version: 7 };
    assert_eq!(round_trip(&ack), ack);

    // The typed mismatch error names both versions so operators can see
    // which side is stale.
    let err = WireError::VersionMismatch {
        got: 1,
        expected: PROTOCOL_VERSION,
    };
    let msg = err.to_string();
    assert!(msg.contains("v1"), "{msg}");
    assert!(msg.contains(&format!("v{PROTOCOL_VERSION}")), "{msg}");
}

#[test]
fn declared_element_counts_beyond_the_payload_are_truncation() {
    // A truth list claiming u32::MAX entries inside a tiny frame must
    // fail fast (no allocation of u32::MAX elements).
    let req = Frame::Request {
        tag: 1,
        tenant: String::new(),
        backend: BackendKind::Baseline,
        query: BipolarVector::ones(8),
        truth: Some(vec![1, 2, 3]),
        deadline_us: None,
    };
    let mut body = req.encode()[4..].to_vec();
    // truth count sits 17 bytes from the end (4 count + 3×4 entries +
    // the trailing deadline presence byte).
    let count_at = body.len() - 17;
    body[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    match decode_body(&body) {
        Err(WireError::Truncated) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
}
