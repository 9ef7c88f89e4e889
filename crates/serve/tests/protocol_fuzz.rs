//! Protocol fuzz battery for the serve wire codec and its v2 framing.
//!
//! Arbitrary byte soup, truncated prefixes of valid encodings, single-byte
//! mutations and hostile frame headers are all fed through
//! [`Request::decode`], [`Response::decode`], [`read_frame`] and the v2
//! header codecs; the codec must never panic, must always answer with a
//! typed [`distserve::ProtocolError`], and must round-trip every valid
//! frame bit-for-bit. A second battery drives a *live* daemon with hostile
//! first frames (mutated handshakes), unknown graph ids, colliding request
//! ids and interleaved pipelined frames — the daemon must answer typed,
//! never panic, and keep serving fresh connections afterwards. Mirrors the
//! corruption-battery style of `crates/store/tests/snapshot_corruption.rs`.

use distserve::hist::LatencyHistogram;
use distserve::wire::{
    decode_v2_request, decode_v2_response, encode_v2_request, encode_v2_response, read_frame,
    write_frame, GraphInfo, LookupOutcome, MetricsReport, RejectCode, Request, Response,
    MAX_FRAME_LEN,
};
use distserve::{ProtocolError, WireError};
use proptest::prelude::*;
use std::io::Cursor;

/// Arbitrary raw payload bytes (possibly empty, possibly huge counts).
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, 0..160)
}

/// Hand-rolled request strategy: the compat proptest has no `prop_oneof`,
/// so a variant selector integer is elaborated with the test RNG.
#[derive(Debug, Clone)]
struct ArbRequest;

impl Strategy for ArbRequest {
    type Value = Request;

    fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> Request {
        use rand::Rng;
        match rng.gen_range(0..8usize) {
            7 => Request::Hello {
                version: rng.gen_range(0..u32::MAX),
            },
            0 => Request::Lookup {
                stable: rng.gen_range(0..u64::MAX),
            },
            1 => {
                let deletes = rng.gen_range(0..5usize);
                let inserts = rng.gen_range(0..5usize);
                Request::Submit {
                    delete: (0..deletes).map(|_| rng.gen_range(0..u64::MAX)).collect(),
                    insert: (0..inserts)
                        .map(|_| (rng.gen_range(0..u32::MAX), rng.gen_range(0..u32::MAX)))
                        .collect(),
                }
            }
            2 => Request::Metrics,
            3 => Request::Palette,
            4 => {
                let len = rng.gen_range(0..24usize);
                let path: String = (0..len)
                    .map(|_| char::from(rng.gen_range(32u8..127)))
                    .collect();
                Request::Swap { path }
            }
            5 => Request::Flush,
            _ => Request::Shutdown,
        }
    }
}

/// Hand-rolled response strategy covering every opcode and outcome shape.
#[derive(Debug, Clone)]
struct ArbResponse;

impl Strategy for ArbResponse {
    type Value = Response;

    fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> Response {
        use rand::Rng;
        let detail: String = {
            let len = rng.gen_range(0..24usize);
            (0..len)
                .map(|_| char::from(rng.gen_range(32u8..127)))
                .collect()
        };
        match rng.gen_range(0..12usize) {
            11 => {
                let graphs = (0..rng.gen_range(0..4usize))
                    .map(|id| GraphInfo {
                        id: id as u32,
                        name: detail.clone(),
                        n: rng.gen_range(0..u64::MAX),
                        m: rng.gen_range(0..u64::MAX),
                    })
                    .collect();
                Response::Welcome {
                    version: rng.gen_range(0..u32::MAX),
                    max_inflight: rng.gen_range(0..u32::MAX),
                    graphs,
                }
            }
            0 => {
                let outcome = match rng.gen_range(0..3usize) {
                    0 => LookupOutcome::Unknown,
                    1 => LookupOutcome::Colored {
                        color: rng.gen_range(0..u64::MAX),
                        u: rng.gen_range(0..u64::MAX),
                        v: rng.gen_range(0..u64::MAX),
                    },
                    _ => LookupOutcome::Uncolored {
                        u: rng.gen_range(0..u64::MAX),
                        v: rng.gen_range(0..u64::MAX),
                    },
                };
                Response::Color {
                    epoch: rng.gen_range(0..u64::MAX),
                    version: rng.gen_range(0..u64::MAX),
                    outcome,
                }
            }
            1 => Response::Submitted {
                ticket: rng.gen_range(0..u64::MAX),
                queued: rng.gen_range(0..u32::MAX),
            },
            2 => {
                let code = match rng.gen_range(0..6usize) {
                    0 => RejectCode::QueueFull,
                    1 => RejectCode::UnknownEdge,
                    2 => RejectCode::DuplicateEdge,
                    3 => RejectCode::NodeOutOfRange,
                    4 => RejectCode::SelfLoop,
                    _ => RejectCode::SwapInProgress,
                };
                Response::Rejected { code, detail }
            }
            3 => {
                fn arb_hist(rng: &mut proptest::test_runner::TestRng) -> LatencyHistogram {
                    use rand::Rng;
                    let mut h = LatencyHistogram::default();
                    for _ in 0..rng.gen_range(0..12usize) {
                        h.record_us(rng.gen_range(0..u64::MAX >> 20));
                    }
                    h
                }
                let m = MetricsReport {
                    epoch: rng.gen_range(0..u64::MAX),
                    lookups: rng.gen_range(0..u64::MAX),
                    repaired_edges: rng.gen_range(0..u64::MAX),
                    repair: arb_hist(rng),
                    lookup: arb_hist(rng),
                    ..MetricsReport::default()
                };
                Response::Metrics(Box::new(m))
            }
            4 => Response::Palette {
                epoch: rng.gen_range(0..u64::MAX),
                palette: rng.gen_range(0..u64::MAX),
                max_degree: rng.gen_range(0..u64::MAX),
                colors_used: rng.gen_range(0..u64::MAX),
            },
            5 => Response::Swapped {
                epoch: rng.gen_range(0..u64::MAX),
                n: rng.gen_range(0..u64::MAX),
                m: rng.gen_range(0..u64::MAX),
            },
            6 => Response::SwapRejected { detail },
            7 => Response::Flushed {
                epoch: rng.gen_range(0..u64::MAX),
                version: rng.gen_range(0..u64::MAX),
                ticks: rng.gen_range(0..u64::MAX),
            },
            8 => Response::ShuttingDown,
            9 => Response::ServerError { detail },
            _ => Response::ProtocolRejected { detail },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary payload bytes: the decoders must return `Ok` or a typed
    /// error — never panic, never allocate unbounded buffers.
    #[test]
    fn arbitrary_payloads_never_panic(bytes in arb_bytes()) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Every valid request encoding decodes back to itself.
    #[test]
    fn requests_round_trip(req in ArbRequest) {
        let encoded = req.encode();
        prop_assert_eq!(Request::decode(&encoded), Ok(req));
    }

    /// Every valid response encoding decodes back to itself (bit-exact,
    /// including the f64 fields carried as `to_bits`).
    #[test]
    fn responses_round_trip(resp in ArbResponse) {
        let encoded = resp.encode();
        prop_assert_eq!(Response::decode(&encoded), Ok(resp));
    }

    /// Every strict prefix of a valid encoding is an error, not a panic and
    /// not a silent partial decode: the payload grammar has no valid
    /// strict prefixes because `finish` demands full consumption.
    #[test]
    fn truncated_requests_yield_typed_errors(req in ArbRequest, cut in 0usize..4096) {
        let encoded = req.encode();
        let cut = cut % encoded.len(); // encode() is never empty (opcode byte)
        prop_assert!(Request::decode(&encoded[..cut]).is_err());
    }

    /// Same for responses.
    #[test]
    fn truncated_responses_yield_typed_errors(resp in ArbResponse, cut in 0usize..4096) {
        let encoded = resp.encode();
        let cut = cut % encoded.len();
        prop_assert!(Response::decode(&encoded[..cut]).is_err());
    }

    /// Single-byte mutations of a valid encoding never panic the decoder;
    /// they either still decode (the flip landed in a value) or fail typed.
    #[test]
    fn mutated_requests_never_panic(req in ArbRequest, pos in 0usize..4096, flip in 1u8..=255) {
        let mut encoded = req.encode();
        let pos = pos % encoded.len();
        encoded[pos] ^= flip;
        let _ = Request::decode(&encoded);
        let _ = Response::decode(&encoded);
    }

    /// Appending trailing garbage to a valid encoding is always rejected
    /// (`TrailingBytes`), keeping framing honest.
    #[test]
    fn trailing_bytes_are_rejected(req in ArbRequest, extra in 1usize..16) {
        let mut encoded = req.encode();
        encoded.extend(std::iter::repeat_n(0xAB, extra));
        prop_assert_eq!(
            Request::decode(&encoded),
            Err(ProtocolError::TrailingBytes { extra })
        );
    }

    /// Frame streams assembled from valid frames read back in order; the
    /// reader then reports a clean end-of-stream.
    #[test]
    fn frame_streams_round_trip(reqs in proptest::collection::vec(ArbRequest, 1..6)) {
        let mut stream = Vec::new();
        for req in &reqs {
            write_frame(&mut stream, &req.encode()).expect("valid frames write");
        }
        let mut cursor = Cursor::new(stream);
        for req in &reqs {
            let payload = read_frame(&mut cursor)
                .expect("frame reads")
                .expect("frame present");
            let decoded = Request::decode(&payload);
            prop_assert_eq!(decoded.as_ref(), Ok(req));
        }
        prop_assert!(matches!(read_frame(&mut cursor), Ok(None)));
    }

    /// Arbitrary bytes fed to the frame reader never panic: they surface as
    /// frames (whose payloads then decode or fail typed), framing errors,
    /// or clean EOF — and the reader never over-allocates on hostile
    /// length declarations.
    #[test]
    fn arbitrary_streams_never_panic_the_reader(bytes in arb_bytes()) {
        let mut cursor = Cursor::new(bytes);
        loop {
            match read_frame(&mut cursor) {
                Ok(Some(payload)) => {
                    let _ = Request::decode(&payload);
                }
                Ok(None) => break,
                Err(WireError::Protocol(_)) => break, // typed: desync, stop
                Err(WireError::Io(_)) => break,       // truncated mid-frame
            }
        }
    }

    /// A frame header declaring a hostile length (zero or beyond the cap)
    /// is rejected before any payload allocation happens.
    #[test]
    fn hostile_lengths_are_rejected(extra in 0u32..1024) {
        let oversize = (MAX_FRAME_LEN as u32).saturating_add(extra + 1);
        let mut stream = oversize.to_le_bytes().to_vec();
        stream.extend_from_slice(&[0u8; 8]);
        match read_frame(&mut Cursor::new(stream)) {
            Err(WireError::Protocol(ProtocolError::FrameTooLarge { len })) => {
                prop_assert_eq!(len, oversize as usize);
            }
            other => prop_assert!(false, "expected FrameTooLarge, got {:?}", other.map(|_| ())),
        }
        let zero = 0u32.to_le_bytes().to_vec();
        match read_frame(&mut Cursor::new(zero)) {
            Err(WireError::Protocol(ProtocolError::EmptyFrame)) => {}
            other => prop_assert!(false, "expected EmptyFrame, got {:?}", other.map(|_| ())),
        }
    }
}

/// A frame that ends mid-payload is `Truncated` — distinguishable from the
/// clean between-frames EOF (`Ok(None)`).
#[test]
fn eof_inside_a_frame_is_truncated() {
    let payload = Request::Metrics.encode();
    let mut stream = Vec::new();
    write_frame(&mut stream, &payload).unwrap();
    stream.truncate(stream.len() - 1);
    match read_frame(&mut Cursor::new(stream)) {
        Err(WireError::Protocol(ProtocolError::Truncated { expected, have })) => {
            assert_eq!(expected, payload.len());
            assert_eq!(have, payload.len() - 1);
        }
        other => panic!("expected Truncated, got {:?}", other.map(|_| ())),
    }
}

/// Unknown opcodes and tags surface as their own typed errors with the
/// offending byte, not as generic failures.
#[test]
fn unknown_opcodes_and_tags_are_typed() {
    assert_eq!(
        Request::decode(&[0x7F]),
        Err(ProtocolError::UnknownOpcode(0x7F))
    );
    assert_eq!(
        Response::decode(&[0x01]),
        Err(ProtocolError::UnknownOpcode(0x01))
    );
    // 0x83 = Rejected; tag 99 is not a RejectCode.
    let bad_tag = vec![0x83, 99, 0, 0, 0, 0];
    match Response::decode(&bad_tag) {
        Err(ProtocolError::UnknownTag { field, tag }) => {
            assert_eq!(field, "reject code");
            assert_eq!(tag, 99);
        }
        other => panic!("expected UnknownTag, got {other:?}"),
    }
}

/// A declared element count far beyond the remaining bytes is refused
/// before allocation (`CountTooLarge`), so hostile counts cannot OOM.
#[test]
fn hostile_counts_are_refused_before_allocation() {
    // Submit opcode + delete count u32::MAX with no element bytes.
    let mut payload = vec![0x02];
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    match Request::decode(&payload) {
        Err(ProtocolError::CountTooLarge { declared, .. }) => {
            assert_eq!(declared, u32::MAX as usize);
        }
        other => panic!("expected CountTooLarge, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// v2 codec properties: the routing headers obey the same contract as the
// bodies — bit-exact round trips, typed errors on truncation, no panics on
// mutation.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// v2 request frames round-trip with the request id and graph id intact.
    #[test]
    fn v2_requests_round_trip(req in ArbRequest, rid in 0u64..u64::MAX, gid in 0u32..u32::MAX) {
        let encoded = encode_v2_request(rid, gid, &req);
        prop_assert_eq!(decode_v2_request(&encoded), Ok((rid, gid, req)));
    }

    /// v2 response frames round-trip with the request id intact.
    #[test]
    fn v2_responses_round_trip(resp in ArbResponse, rid in 0u64..u64::MAX) {
        let encoded = encode_v2_response(rid, &resp);
        prop_assert_eq!(decode_v2_response(&encoded), Ok((rid, resp)));
    }

    /// Every strict prefix of a v2 frame is a typed error — whether the cut
    /// lands inside the routing header or inside the body.
    #[test]
    fn truncated_v2_frames_yield_typed_errors(req in ArbRequest, cut in 0usize..4096) {
        let encoded = encode_v2_request(7, 0, &req);
        let cut = cut % encoded.len();
        prop_assert!(decode_v2_request(&encoded[..cut]).is_err());
    }

    /// Single-byte mutations of v2 frames never panic either decoder.
    #[test]
    fn mutated_v2_frames_never_panic(req in ArbRequest, pos in 0usize..4096, flip in 1u8..=255) {
        let mut encoded = encode_v2_request(7, 0, &req);
        let pos = pos % encoded.len();
        encoded[pos] ^= flip;
        let _ = decode_v2_request(&encoded);
        let _ = decode_v2_response(&encoded);
    }
}

// ---------------------------------------------------------------------------
// Live-daemon hostile battery: mutated handshakes, unknown graph ids,
// request-id collisions and interleaved pipelined frames against a real
// listener. The daemon must answer typed, never panic, and keep serving
// fresh connections afterwards.
// ---------------------------------------------------------------------------

mod live {
    use super::*;
    use distgraph::generators;
    use distserve::{ClientBuilder, DaemonHandle, ServeConfig, ServerCore, Tenant};
    use std::net::TcpStream;
    use std::time::Duration;

    fn two_tenant_daemon() -> DaemonHandle {
        let cfg = ServeConfig::default();
        let a = Tenant::new("alpha", generators::grid_torus(5, 5), cfg.clone()).unwrap();
        let b = Tenant::new("beta", generators::grid_torus(4, 4), cfg).unwrap();
        DaemonHandle::spawn(ServerCore::from_tenants(vec![a, b])).unwrap()
    }

    fn open(daemon: &DaemonHandle) -> TcpStream {
        let stream = TcpStream::connect(daemon.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
    }

    /// Opens a raw v2 connection: headerless Hello out, headerless Welcome
    /// back.
    fn open_v2(daemon: &DaemonHandle) -> TcpStream {
        let mut stream = open(daemon);
        write_frame(
            &mut stream,
            &Request::Hello {
                version: distserve::PROTOCOL_VERSION,
            }
            .encode(),
        )
        .unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        match Response::decode(&payload) {
            Ok(Response::Welcome { version, .. }) => assert_eq!(version, 2),
            other => panic!("expected Welcome, got {other:?}"),
        }
        stream
    }

    /// The daemon still completes a handshake and answers typed — used
    /// after each hostile exchange to prove the listener survived.
    fn daemon_still_serves(daemon: &DaemonHandle) {
        let mut v2 = ClientBuilder::new()
            .connect(daemon.addr())
            .expect("v2 connect after hostile exchange");
        v2.metrics().expect("v2 metrics after hostile exchange");
    }

    /// Every single-byte mutation of a valid Hello first frame gets a
    /// `Welcome`, a typed reject or a clean close, and the daemon keeps
    /// serving afterwards.
    #[test]
    fn mutated_handshakes_never_kill_the_daemon() {
        let daemon = two_tenant_daemon();
        let hello = Request::Hello { version: 2 }.encode();
        for pos in 0..hello.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut frame = hello.clone();
                frame[pos] ^= flip;
                let mut stream = open(&daemon);
                write_frame(&mut stream, &frame).unwrap();
                // Welcome (the flip landed in a dead bit), ProtocolRejected
                // (bad version, or the opcode mutated into another request,
                // which a handshake-less first frame is), or clean EOF.
                match read_frame(&mut stream) {
                    Ok(None) => {}
                    Ok(Some(payload)) => match Response::decode(&payload) {
                        Ok(Response::Welcome { .. } | Response::ProtocolRejected { .. }) => {}
                        other => panic!("mutated Hello {frame:?} answered {other:?}"),
                    },
                    Err(e) => panic!("mutated Hello {frame:?} broke the stream: {e}"),
                }
                drop(stream);
            }
        }
        daemon_still_serves(&daemon);
        daemon.shutdown();
    }

    /// A graph id beyond the catalog is a typed `UnknownGraph` reject that
    /// echoes the request id and charges no tenant's counters.
    #[test]
    fn unknown_graph_ids_are_typed_rejects() {
        let daemon = two_tenant_daemon();
        let mut stream = open_v2(&daemon);
        write_frame(
            &mut stream,
            &encode_v2_request(99, 7, &Request::Lookup { stable: 0 }),
        )
        .unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let (rid, resp) = decode_v2_response(&payload).unwrap();
        assert_eq!(rid, 99);
        match resp {
            Response::Rejected {
                code: RejectCode::UnknownGraph,
                detail,
            } => assert!(detail.contains('7'), "detail names the bad id: {detail}"),
            other => panic!("expected UnknownGraph, got {other:?}"),
        }
        // Routing faults are connection-level: neither tenant was charged.
        for tenant in daemon.core().tenants() {
            assert_eq!(tenant.metrics(0).rejected, 0);
        }
        daemon_still_serves(&daemon);
        daemon.shutdown();
    }

    /// Request ids are opaque to the daemon: colliding ids are answered
    /// once per frame, all echoing the same id.
    #[test]
    fn request_id_collisions_are_answered_per_frame() {
        let daemon = two_tenant_daemon();
        let mut stream = open_v2(&daemon);
        for _ in 0..3 {
            write_frame(
                &mut stream,
                &encode_v2_request(5, 0, &Request::Lookup { stable: 1 }),
            )
            .unwrap();
        }
        for _ in 0..3 {
            let payload = read_frame(&mut stream).unwrap().unwrap();
            let (rid, resp) = decode_v2_response(&payload).unwrap();
            assert_eq!(rid, 5);
            assert!(matches!(resp, Response::Color { .. }), "got {resp:?}");
        }
        daemon.shutdown();
    }

    /// Interleaved frames for both graphs on one pipelined connection all
    /// complete, each answer tagged with its originating request id.
    #[test]
    fn interleaved_pipelined_frames_all_complete() {
        let daemon = two_tenant_daemon();
        let mut stream = open_v2(&daemon);
        let total = 10u64;
        for rid in 0..total {
            let gid = (rid % 2) as u32;
            write_frame(
                &mut stream,
                &encode_v2_request(rid, gid, &Request::Lookup { stable: rid }),
            )
            .unwrap();
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..total {
            let payload = read_frame(&mut stream).unwrap().unwrap();
            let (rid, resp) = decode_v2_response(&payload).unwrap();
            assert!(matches!(resp, Response::Color { .. }), "got {resp:?}");
            assert!(seen.insert(rid), "request id {rid} answered twice");
        }
        assert_eq!(seen, (0..total).collect());
        daemon.shutdown();
    }

    /// A malformed body under a well-formed v2 header is rejected typed,
    /// echoing the header's request id, and the connection stays usable.
    #[test]
    fn malformed_v2_bodies_echo_their_request_id() {
        let daemon = two_tenant_daemon();
        let mut stream = open_v2(&daemon);
        // Header rid=42 gid=0, body = unknown opcode 0x7F.
        let mut frame = encode_v2_request(42, 0, &Request::Metrics);
        *frame.last_mut().unwrap() = 0x7F;
        write_frame(&mut stream, &frame).unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let (rid, resp) = decode_v2_response(&payload).unwrap();
        assert_eq!(rid, 42);
        assert!(
            matches!(resp, Response::ProtocolRejected { .. }),
            "got {resp:?}"
        );
        // The connection survives the reject.
        write_frame(
            &mut stream,
            &encode_v2_request(43, 0, &Request::Lookup { stable: 0 }),
        )
        .unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let (rid, resp) = decode_v2_response(&payload).unwrap();
        assert_eq!(rid, 43);
        assert!(matches!(resp, Response::Color { .. }), "got {resp:?}");
        daemon.shutdown();
    }
}
