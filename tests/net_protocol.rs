//! Protocol robustness suite for the `xac-net` wire layer.
//!
//! Every malformed conversation — wrong magic, version mismatch,
//! unknown-role handshake, garbage/truncated/oversized frames, mid-frame
//! disconnects, clients slower than the read timeout — must be answered
//! with a typed error frame or a clean close. The server must never
//! panic, never hang past its read timeout, and stay healthy for the
//! next well-behaved client. Admission control and per-role rate
//! limiting are exercised over real sockets, and the frame codec is
//! fuzzed with the in-repo SplitMix64 stream.

use std::sync::Arc;
use std::time::Duration;
use xac_core::FaultPlan;
use xac_net::wire::{self, tag, Frame, WireError};
use xac_net::{raw_exchange, NetClient, NetServer, ServerConfig};
use xac_policy::policy::hospital_policy;
use xac_serve::{BackendKind, ErrorKind, Request, Response, Role, ServeEngine};
use xac_xmlgen::{figure2_document, hospital_schema, SplitMix64};

fn engine() -> Arc<ServeEngine> {
    let system = xac_core::System::builder(
        hospital_schema(),
        hospital_policy(),
        figure2_document(),
    )
    .build()
    .unwrap();
    Arc::new(ServeEngine::for_kind(Arc::new(system), BackendKind::Native).unwrap())
}

/// A server with a short read timeout so the slow-client tests finish
/// quickly.
fn server_with(config: ServerConfig) -> NetServer {
    NetServer::start(engine(), config).unwrap()
}

fn quick_server() -> NetServer {
    server_with(ServerConfig {
        read_timeout: Duration::from_millis(250),
        ..ServerConfig::default()
    })
}

/// Decode a raw server reply into frames; panics on undecodable bytes
/// (the server must only ever emit well-formed frames).
fn decode_frames(mut bytes: &[u8]) -> Vec<Frame> {
    let mut out = Vec::new();
    loop {
        match wire::read_frame(&mut bytes) {
            Ok(f) => out.push(f),
            Err(WireError::Closed) => return out,
            Err(e) => panic!("server emitted undecodable bytes: {e}"),
        }
    }
}

/// Hand-build a frame: header, tag, payload.
fn raw_frame(tag_byte: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.push(tag_byte);
    out.extend_from_slice(payload);
    out
}

/// Hand-build a hello frame for an arbitrary (possibly invalid) role.
fn raw_hello(role: &str) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(role.len() as u32).to_be_bytes());
    payload.extend_from_slice(role.as_bytes());
    raw_frame(tag::HELLO, &payload)
}

fn preamble() -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_preamble(&mut out).unwrap();
    out
}

const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(5);

#[test]
fn wrong_magic_gets_typed_protocol_error() {
    let server = quick_server();
    let reply =
        raw_exchange(server.local_addr(), b"GET / HTTP/1.1\r\n", EXCHANGE_TIMEOUT).unwrap();
    match &decode_frames(&reply)[..] {
        [Frame::Error { kind: ErrorKind::Protocol, message }] => {
            assert!(message.contains("bad magic"), "got: {message}");
        }
        other => panic!("expected one protocol error frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn version_mismatch_gets_typed_protocol_error() {
    let server = quick_server();
    let mut bytes = Vec::from(wire::MAGIC);
    bytes.extend_from_slice(&99u16.to_be_bytes());
    let reply = raw_exchange(server.local_addr(), &bytes, EXCHANGE_TIMEOUT).unwrap();
    match &decode_frames(&reply)[..] {
        [Frame::Error { kind: ErrorKind::Protocol, message }] => {
            assert!(message.contains("version 99"), "got: {message}");
        }
        other => panic!("expected one protocol error frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn unknown_role_handshake_gets_the_shared_error_shape() {
    let server = quick_server();
    let mut bytes = preamble();
    bytes.extend_from_slice(&raw_hello("root"));
    let reply = raw_exchange(server.local_addr(), &bytes, EXCHANGE_TIMEOUT).unwrap();
    match &decode_frames(&reply)[..] {
        [Frame::Error { kind: ErrorKind::Protocol, message }] => {
            assert!(
                message.contains(
                    "unknown role `root` (valid roles: reader, writer, admin)"
                ),
                "got: {message}"
            );
        }
        other => panic!("expected one protocol error frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn frame_instead_of_hello_is_a_protocol_error() {
    let server = quick_server();
    let mut bytes = preamble();
    bytes.extend_from_slice(&Frame::Request(Request::Status, None).to_bytes());
    let reply = raw_exchange(server.local_addr(), &bytes, EXCHANGE_TIMEOUT).unwrap();
    match &decode_frames(&reply)[..] {
        [Frame::Error { kind: ErrorKind::Protocol, message }] => {
            assert!(message.contains("expected a hello frame"), "got: {message}");
        }
        other => panic!("expected one protocol error frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn garbage_tag_after_handshake_is_a_protocol_error() {
    let server = quick_server();
    let mut bytes = preamble();
    bytes.extend_from_slice(&raw_hello("reader"));
    bytes.extend_from_slice(&raw_frame(0xAA, &[1, 2, 3]));
    let reply = raw_exchange(server.local_addr(), &bytes, EXCHANGE_TIMEOUT).unwrap();
    match &decode_frames(&reply)[..] {
        [Frame::Welcome { .. }, Frame::Error { kind: ErrorKind::Protocol, message }] => {
            assert!(message.contains("unknown frame tag"), "got: {message}");
        }
        other => panic!("expected welcome then protocol error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn truncated_frame_then_disconnect_is_answered_not_hung() {
    let server = quick_server();
    let mut bytes = preamble();
    bytes.extend_from_slice(&raw_hello("reader"));
    let whole = Frame::Request(Request::query("//patient/name"), None).to_bytes();
    bytes.extend_from_slice(&whole[..whole.len() / 2]);
    // raw_exchange closes its write side after sending: the server sees
    // a torn frame, not a slow client.
    let reply = raw_exchange(server.local_addr(), &bytes, EXCHANGE_TIMEOUT).unwrap();
    match &decode_frames(&reply)[..] {
        [Frame::Welcome { .. }, Frame::Error { kind: ErrorKind::Protocol, message }] => {
            assert!(message.contains("truncated"), "got: {message}");
        }
        other => panic!("expected welcome then protocol error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn oversized_frame_is_refused_from_the_header() {
    let server = quick_server();
    let plan = FaultPlan::parse("net_oversized_frame").unwrap();
    let mut client = NetClient::connect_with(
        server.local_addr(),
        Role::Reader,
        plan,
        Duration::from_millis(50),
    )
    .unwrap();
    match client.query("//patient/name").unwrap() {
        Response::Error { kind: ErrorKind::Protocol, message } => {
            assert!(message.contains("cap is"), "got: {message}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert!(client.is_dead(), "the session is over after a protocol error");
    // The server survives for the next client.
    let mut next = NetClient::connect(server.local_addr(), Role::Reader).unwrap();
    assert!(matches!(
        next.query("//patient/name").unwrap(),
        Response::Decision { granted: true, .. }
    ));
    next.close();
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_leaves_server_healthy() {
    let server = quick_server();
    let plan = FaultPlan::parse("net_mid_frame_disconnect").unwrap();
    let mut client = NetClient::connect_with(
        server.local_addr(),
        Role::Writer,
        plan,
        Duration::from_millis(50),
    )
    .unwrap();
    assert_eq!(client.delete("//regular"), Err(WireError::Closed));
    assert!(client.is_dead());
    // The torn delete never reached the engine; a fresh session still
    // sees the nodes and the server still answers.
    let mut next = NetClient::connect(server.local_addr(), Role::Reader).unwrap();
    match next.query("//regular").unwrap() {
        Response::Decision { nodes, .. } => assert!(nodes > 0),
        other => panic!("expected decision, got {other:?}"),
    }
    next.close();
    server.shutdown();
}

#[test]
fn slow_client_is_cut_off_by_the_read_timeout() {
    let server = server_with(ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let plan = FaultPlan::parse("net_slow_client").unwrap();
    let mut client = NetClient::connect_with(
        server.local_addr(),
        Role::Reader,
        plan,
        // Stall well past the server's timeout.
        Duration::from_millis(500),
    )
    .unwrap();
    match client.query("//patient/name").unwrap() {
        Response::Error { kind: ErrorKind::Protocol, message } => {
            assert!(message.contains("timed out"), "got: {message}");
        }
        other => panic!("expected timeout protocol error, got {other:?}"),
    }
    assert!(client.is_dead());
    server.shutdown();
}

#[test]
fn slow_client_within_the_timeout_is_served_normally() {
    let server = server_with(ServerConfig {
        read_timeout: Duration::from_millis(2_000),
        ..ServerConfig::default()
    });
    let plan = FaultPlan::parse("net_slow_client").unwrap();
    let mut client = NetClient::connect_with(
        server.local_addr(),
        Role::Reader,
        plan,
        // Stalls, but inside the server's patience.
        Duration::from_millis(50),
    )
    .unwrap();
    assert!(matches!(
        client.query("//patient/name").unwrap(),
        Response::Decision { granted: true, .. }
    ));
    server.shutdown();
}

#[test]
fn admission_control_refuses_connections_beyond_the_cap() {
    let server = server_with(ServerConfig {
        max_connections: 1,
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    let first = NetClient::connect(server.local_addr(), Role::Reader).unwrap();
    match NetClient::connect(server.local_addr(), Role::Reader) {
        Err(WireError::Rejected { kind: ErrorKind::RateLimited, message }) => {
            assert!(message.contains("connection limit"), "got: {message}");
        }
        other => panic!("expected admission refusal, got {other:?}"),
    }
    first.close();
    // The slot frees once the first session drains; retry until then.
    let mut admitted = None;
    for _ in 0..500 {
        match NetClient::connect(server.local_addr(), Role::Reader) {
            Ok(c) => {
                admitted = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    let mut admitted = admitted.expect("slot must free after the first session closes");
    assert!(matches!(
        admitted.query("//psn").unwrap(),
        Response::Decision { .. }
    ));
    admitted.close();
    server.shutdown();
}

/// A relative request path is a typed parse error on the wire, and the
/// sessions that sent it give their admission slots back: two readers
/// fill a two-slot server with `patient`, then a third client is
/// admitted.
#[test]
fn relative_read_is_a_parse_error_and_frees_its_slot() {
    let server = server_with(ServerConfig {
        max_connections: 2,
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    let mut clients: Vec<NetClient> = (0..2)
        .map(|_| NetClient::connect(server.local_addr(), Role::Reader).unwrap())
        .collect();
    for client in &mut clients {
        match client.query("patient") {
            Ok(Response::Error { kind: ErrorKind::Parse, message }) => {
                assert!(message.contains("must be absolute"), "got: {message}")
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
    for client in clients {
        client.close();
    }
    let mut third = None;
    for _ in 0..500 {
        match NetClient::connect(server.local_addr(), Role::Reader) {
            Ok(c) => {
                third = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    let mut third = third.expect("both slots must free once their sessions close");
    assert!(matches!(
        third.query("//patient").unwrap(),
        Response::Decision { nodes: 3, .. }
    ));
    third.close();
    server.shutdown();
}

#[test]
fn rate_limit_refuses_the_burst_overflow_but_keeps_the_session() {
    let server = server_with(ServerConfig {
        rate_limit: Some(2),
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    });
    let mut client = NetClient::connect(server.local_addr(), Role::Reader).unwrap();
    assert!(matches!(
        client.query("//psn").unwrap(),
        Response::Decision { .. }
    ));
    assert!(matches!(
        client.query("//psn").unwrap(),
        Response::Decision { .. }
    ));
    match client.query("//psn").unwrap() {
        Response::Error { kind: ErrorKind::RateLimited, message } => {
            assert!(message.contains("reader"), "got: {message}");
        }
        other => panic!("expected rate-limit refusal, got {other:?}"),
    }
    assert!(!client.is_dead(), "rate limiting must not end the session");
    // Waiting out the refill (2 tokens/sec) makes the same session work.
    std::thread::sleep(Duration::from_millis(700));
    assert!(matches!(
        client.query("//psn").unwrap(),
        Response::Decision { .. }
    ));
    client.close();
    server.shutdown();
}

#[test]
fn v1_client_is_served_by_the_v2_server() {
    // A legacy client: version-1 preamble, request frames with no
    // trailing trace context. The v2 server must serve it unchanged.
    let server = quick_server();
    let mut bytes = Vec::new();
    wire::write_preamble_versioned(&mut bytes, 1).unwrap();
    bytes.extend_from_slice(&raw_hello("reader"));
    bytes.extend_from_slice(&Frame::Request(Request::query("//patient/name"), None).to_bytes());
    let reply = raw_exchange(server.local_addr(), &bytes, EXCHANGE_TIMEOUT).unwrap();
    match &decode_frames(&reply)[..] {
        [Frame::Welcome { .. }, Frame::Response(Response::Decision { granted, .. })] => {
            assert!(granted, "v1 client must get the same decision");
        }
        other => panic!("expected welcome + decision, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn v2_trace_context_is_accepted_and_v3_preamble_refused() {
    let server = quick_server();
    // A v2 client sending the trailing trace context is served.
    let trace = wire::WireTrace { trace_id: 0xabcd, parent_span: 9 };
    let mut bytes = preamble();
    bytes.extend_from_slice(&raw_hello("reader"));
    bytes.extend_from_slice(&Frame::Request(Request::Status, Some(trace)).to_bytes());
    let reply = raw_exchange(server.local_addr(), &bytes, EXCHANGE_TIMEOUT).unwrap();
    match &decode_frames(&reply)[..] {
        [Frame::Welcome { .. }, Frame::Response(Response::Status { .. })] => {}
        other => panic!("expected welcome + status, got {other:?}"),
    }
    // A from-the-future preamble is refused with a typed error.
    let mut future = Vec::new();
    wire::write_preamble_versioned(&mut future, wire::VERSION + 1).unwrap();
    let reply = raw_exchange(server.local_addr(), &future, EXCHANGE_TIMEOUT).unwrap();
    match &decode_frames(&reply)[..] {
        [Frame::Error { kind: ErrorKind::Protocol, message }] => {
            assert!(message.contains("version"), "got: {message}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn truncated_trace_context_on_the_wire_is_a_protocol_error() {
    // A request frame whose declared length includes only *part* of the
    // 24-byte trace trailer: the server must answer with a typed
    // protocol error, never treat it as an untraced request.
    let server = quick_server();
    for keep in [4usize, 8, 12, 16, 23] {
        let full = Frame::Request(Request::Status, Some(wire::WireTrace {
            trace_id: 7,
            parent_span: 1,
        }))
        .to_bytes();
        // Rebuild the frame with the trailer cut to `keep` bytes and the
        // header re-declared to match (so it is a *complete* frame whose
        // payload ends mid-trailer, not a torn stream).
        let payload = &full[5..full.len() - (24 - keep)];
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.push(tag::REQUEST);
        frame.extend_from_slice(payload);
        let mut bytes = preamble();
        bytes.extend_from_slice(&raw_hello("reader"));
        bytes.extend_from_slice(&frame);
        let reply = raw_exchange(server.local_addr(), &bytes, EXCHANGE_TIMEOUT).unwrap();
        match &decode_frames(&reply)[..] {
            [Frame::Welcome { .. }, Frame::Error { kind: ErrorKind::Protocol, message }] => {
                assert!(
                    message.contains("malformed") || message.contains("truncated"),
                    "keep {keep}: got {message}"
                );
            }
            other => panic!("keep {keep}: expected welcome + protocol error, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_sessions() {
    let server = quick_server();
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr, Role::Reader).unwrap();
    assert!(matches!(
        client.query("//psn").unwrap(),
        Response::Decision { .. }
    ));
    server.shutdown();
    // The server half-closed our read side and exited; the next request
    // fails on the wire instead of hanging.
    assert!(client.query("//psn").is_err() || client.is_dead());
    // And nothing is listening anymore.
    assert!(NetClient::connect(addr, Role::Reader).is_err());
}

// ---- codec fuzzing ------------------------------------------------------

fn rand_string(rng: &mut SplitMix64) -> String {
    const ALPHABET: &[char] =
        &['a', 'b', '/', '[', ']', '=', '"', 'ß', '日', ' ', '\n', '\0'];
    let len = rng.gen_range(0..16usize);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

fn rand_request(rng: &mut SplitMix64) -> Request {
    match rng.gen_range(0..7u32) {
        0 => Request::query(rand_string(rng)),
        1 => Request::delete(rand_string(rng)),
        2 => Request::insert(
            rand_string(rng),
            rand_string(rng),
            rng.gen_bool(0.5).then(|| rand_string(rng)),
        ),
        3 => Request::Status,
        4 => Request::Scrape,
        5 => Request::tail(rng.next_u64() as u32),
        _ => Request::Metrics,
    }
}

fn rand_trace(rng: &mut SplitMix64) -> Option<wire::WireTrace> {
    rng.gen_bool(0.5).then(|| wire::WireTrace {
        trace_id: (rng.next_u64() as u128) << 64 | rng.next_u64() as u128,
        parent_span: rng.next_u64(),
    })
}

fn rand_response(rng: &mut SplitMix64) -> Response {
    match rng.gen_range(0..8u32) {
        0 => Response::Decision {
            granted: rng.gen_bool(0.5),
            nodes: rng.next_u64(),
            epoch: rng.next_u64(),
        },
        6 => Response::Update {
            applied: rng.gen_bool(0.5),
            removed: rng.next_u64(),
            inserted: rng.next_u64(),
            sign_writes: rng.next_u64(),
            denied_nodes: rng.next_u64(),
            epoch: rng.next_u64(),
        },
        2 => Response::Status {
            backend: rand_string(rng),
            epoch: rng.next_u64(),
            accessible: rng.next_u64(),
            quarantined: rng.gen_bool(0.5),
        },
        3 => Response::Metrics { rendered: rand_string(rng) },
        4 => Response::Scrape { exposition: rand_string(rng) },
        5 => Response::Tail {
            records: (0..rng.gen_range(0..4u32))
                .map(|_| xac_obs::FlightRecord {
                    trace_id: (rng.next_u64() as u128) << 64 | rng.next_u64() as u128,
                    verb: rand_string(rng),
                    backend: rand_string(rng),
                    outcome: rand_string(rng),
                    epoch: rng.next_u64(),
                    decode_us: rng.next_u64(),
                    queue_us: rng.next_u64(),
                    execute_us: rng.next_u64(),
                    total_us: rng.next_u64(),
                    seq: rng.next_u64(),
                })
                .collect(),
        },
        _ => Response::Error {
            kind: ErrorKind::ALL[rng.gen_range(0..ErrorKind::ALL.len())],
            message: rand_string(rng),
        },
    }
}

/// Property: every encodable frame round-trips bit-exactly, and
/// truncating it anywhere yields a typed decode error, never a panic.
#[test]
fn codec_round_trip_property() {
    let mut rng = SplitMix64::seed_from_u64(0x0e7_f2a3e);
    for i in 0..256 {
        let frame = if i % 2 == 0 {
            Frame::Request(rand_request(&mut rng), rand_trace(&mut rng))
        } else {
            Frame::Response(rand_response(&mut rng))
        };
        let bytes = frame.to_bytes();
        let mut r = &bytes[..];
        assert_eq!(wire::read_frame(&mut r).unwrap(), frame, "iteration {i}");
        assert!(r.is_empty());
        let cut = rng.gen_range(1..bytes.len());
        match wire::read_frame(&mut &bytes[..cut]) {
            Err(WireError::Malformed(_)) => {}
            other => panic!("iteration {i}, cut {cut}: got {other:?}"),
        }
    }
}

/// Property: random byte soup never panics the frame reader — it
/// decodes or fails with a typed error.
#[test]
fn codec_survives_byte_soup() {
    let mut rng = SplitMix64::seed_from_u64(0x0b17_50e7);
    for _ in 0..256 {
        let len = rng.gen_range(0..64usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        let _ = wire::read_frame(&mut &bytes[..]);
    }
}
