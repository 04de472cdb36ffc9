//! Server-side fault injection over real sockets.
//!
//! Pins the daemon's error policy: corrupt or hostile input yields a
//! typed wire error (or a byte-identical answer) — never a panic, never
//! a wedged connection, never a dead server. Each test starts a live
//! server on an OS-assigned port, injects its fault with raw socket
//! writes, then proves the server still answers a clean ping.

#![expect(
    clippy::expect_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use sj_server::wire::{self, put_str, WireError, HEADER_LEN};
use sj_server::{
    Client, ClientError, CompactReply, EstimateReply, Frame, MutationId, MutationReply, Opcode,
    RemoteOutcome, Server, ServerConfig, ServiceError, StatisticsService,
};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// Deterministic service stub: the tests here probe the wire layer, not
/// the estimator.
struct Stub;

impl StatisticsService for Stub {
    fn estimate(&self, a: &str, _b: &str) -> Result<EstimateReply, ServiceError> {
        if a == "missing" {
            return Err(ServiceError::new(wire::status::RUNTIME, "unknown table"));
        }
        Ok(EstimateReply {
            selectivity: 0.125,
            pairs: 1024.0,
        })
    }

    fn window_count(&self, _table: &str, w: &sj_geo::Rect) -> Result<f64, ServiceError> {
        Ok(w.area())
    }

    fn explain(&self, tables: &[String]) -> Result<String, ServiceError> {
        Ok(format!("plan over {}", tables.join(",")))
    }

    fn catalog_estimate(&self, _a: &str, _b: &str) -> Result<RemoteOutcome, ServiceError> {
        Ok(RemoteOutcome {
            pairs: 1024.0,
            selectivity: 0.125,
            tier_name: "primary".to_string(),
            tier_display: "primary (gh)".to_string(),
            degraded: false,
            skipped: Vec::new(),
        })
    }

    fn tables(&self) -> Vec<String> {
        vec!["a".to_string(), "b".to_string()]
    }

    fn insert_batch(
        &self,
        table: &str,
        rects: &[sj_geo::Rect],
        _id: MutationId,
    ) -> Result<MutationReply, ServiceError> {
        if table == "missing" {
            return Err(ServiceError::new(wire::status::RUNTIME, "unknown table"));
        }
        Ok(MutationReply {
            applied: u32::try_from(rects.len()).unwrap_or(u32::MAX),
            pending_tiers: 1,
            compacted: false,
            deduplicated: false,
        })
    }

    fn delete_batch(
        &self,
        table: &str,
        rects: &[sj_geo::Rect],
        _id: MutationId,
    ) -> Result<MutationReply, ServiceError> {
        if table == "missing" {
            return Err(ServiceError::new(
                wire::status::INVALID_DATA,
                "delete batch entry 0 matches no object",
            ));
        }
        Ok(MutationReply {
            applied: u32::try_from(rects.len()).unwrap_or(u32::MAX),
            pending_tiers: 0,
            compacted: true,
            deduplicated: false,
        })
    }

    fn compact(&self, table: &str) -> Result<CompactReply, ServiceError> {
        if table == "missing" {
            return Err(ServiceError::new(wire::status::RUNTIME, "unknown table"));
        }
        Ok(CompactReply {
            tiers_folded: 2,
            persisted: false,
        })
    }
}

/// Starts a daemon on an OS-assigned port; the returned closure joins it.
fn start() -> (SocketAddr, impl FnOnce()) {
    let server = Arc::new(Server::bind("127.0.0.1:0", Stub).expect("bind"));
    let addr = server.local_addr().expect("local_addr");
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };
    let stop = move || {
        let mut c = Client::connect(addr).expect("connect for shutdown");
        c.shutdown_server().expect("shutdown");
        handle.join().expect("join");
    };
    (addr, stop)
}

/// The server must still answer after a fault elsewhere.
fn assert_alive(addr: SocketAddr) {
    let mut c = Client::connect(addr).expect("connect after fault");
    c.ping().expect("ping after fault");
}

/// Reads the single error frame the server sends before closing a
/// corrupted connection, returning its status byte.
fn read_error_status(stream: &mut TcpStream) -> u8 {
    let frame = Frame::read_from(stream).expect("error frame");
    assert_eq!(frame.opcode, wire::ERROR_OPCODE, "{frame:?}");
    frame.payload.first().copied().expect("status byte")
}

fn valid_estimate_bytes() -> Vec<u8> {
    let mut p = Vec::new();
    put_str(&mut p, "x");
    put_str(&mut p, "y");
    Frame::request(Opcode::Estimate, p).to_bytes()
}

#[test]
fn truncated_frame_gets_typed_error_and_close() {
    let (addr, stop) = start();
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let bytes = valid_estimate_bytes();
        // Send only half the frame, then close our write side: the
        // server sees a mid-frame EOF.
        s.write_all(&bytes[..bytes.len() / 2]).expect("write");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        assert_eq!(read_error_status(&mut s), wire::status::CORRUPT);
        // The connection is closed afterwards: EOF, not a hang.
        let mut rest = Vec::new();
        assert_eq!(s.read_to_end(&mut rest).expect("read_to_end"), 0);
    }
    assert_alive(addr);
    stop();
}

#[test]
fn bit_flipped_payload_fails_the_checksum() {
    let (addr, stop) = start();
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut bytes = valid_estimate_bytes();
        let mid = HEADER_LEN + 1; // inside the payload
        bytes[mid] ^= 0x40;
        s.write_all(&bytes).expect("write");
        assert_eq!(read_error_status(&mut s), wire::status::CORRUPT);
    }
    assert_alive(addr);
    stop();
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let (addr, stop) = start();
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut header = Vec::new();
        header.extend_from_slice(&wire::MAGIC);
        header.extend_from_slice(&wire::WIRE_VERSION.to_le_bytes());
        header.push(Opcode::Ping.code());
        header.push(0);
        header.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        s.write_all(&header).expect("write");
        assert_eq!(read_error_status(&mut s), wire::status::CORRUPT);
    }
    assert_alive(addr);
    stop();
}

#[test]
fn bad_magic_and_bad_version_are_typed() {
    let (addr, stop) = start();
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut bytes = valid_estimate_bytes();
        bytes[0] = b'X'; // corrupt the magic
        s.write_all(&bytes).expect("write");
        assert_eq!(read_error_status(&mut s), wire::status::CORRUPT);
    }
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut bytes = valid_estimate_bytes();
        bytes[4] = 0xEE; // claim wire version 0xEE
        bytes[5] = 0x00;
        s.write_all(&bytes).expect("write");
        assert_eq!(read_error_status(&mut s), wire::status::MISMATCH);
    }
    assert_alive(addr);
    stop();
}

#[test]
fn mid_request_disconnect_leaves_the_server_healthy() {
    let (addr, stop) = start();
    for _ in 0..4 {
        let mut s = TcpStream::connect(addr).expect("connect");
        let bytes = valid_estimate_bytes();
        s.write_all(&bytes[..HEADER_LEN + 1]).expect("write");
        drop(s); // vanish mid-request
    }
    assert_alive(addr);
    stop();
}

#[test]
fn well_framed_bad_request_keeps_the_connection_open() {
    let (addr, stop) = start();
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        // A perfectly framed Estimate whose payload is garbage.
        let frame = Frame::request(Opcode::Estimate, vec![0xFF, 0xFF, 0xFF]);
        s.write_all(&frame.to_bytes()).expect("write");
        let resp = Frame::read_from(&mut s).expect("typed response");
        assert_eq!(resp.opcode, Opcode::Estimate.response());
        assert_eq!(resp.payload.first(), Some(&wire::status::CORRUPT));
        // Same connection, next request: still served.
        Frame::request(Opcode::Ping, Vec::new())
            .write_to(&mut s)
            .expect("write ping");
        let pong = Frame::read_from(&mut s).expect("pong");
        assert_eq!(pong.opcode, Opcode::Ping.response());
        assert_eq!(pong.payload, vec![wire::status::OK]);
    }
    assert_alive(addr);
    stop();
}

#[test]
fn unknown_opcode_answers_error_opcode_on_an_open_connection() {
    let (addr, stop) = start();
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        let frame = Frame {
            opcode: 0x6A,
            payload: Vec::new(),
        };
        s.write_all(&frame.to_bytes()).expect("write");
        let resp = Frame::read_from(&mut s).expect("typed response");
        assert_eq!(resp.opcode, wire::ERROR_OPCODE);
        assert_eq!(resp.payload.first(), Some(&wire::status::USAGE));
        // Well-framed, so the connection survives.
        Frame::request(Opcode::Ping, Vec::new())
            .write_to(&mut s)
            .expect("write ping");
        assert_eq!(
            Frame::read_from(&mut s).expect("pong").opcode,
            Opcode::Ping.response()
        );
    }
    assert_alive(addr);
    stop();
}

#[test]
fn client_surfaces_remote_errors_typed() {
    let (addr, stop) = start();
    let mut c = Client::connect(addr).expect("connect");
    let err = c.estimate("missing", "y").expect_err("remote failure");
    match err {
        ClientError::Remote { status, message } => {
            assert_eq!(status, wire::status::RUNTIME);
            assert!(message.contains("unknown table"), "{message}");
        }
        other => panic!("expected Remote, got {other:?}"),
    }
    // The connection survived the typed failure.
    c.ping().expect("ping after remote error");
    stop();
}

#[test]
fn list_requests_past_the_wire_count_are_refused_before_sending() {
    let (addr, stop) = start();
    let mut c = Client::connect(addr).expect("connect");
    let pairs = vec![("a".to_string(), "b".to_string()); usize::from(u16::MAX) + 1];
    let err = c.batch_estimate(&pairs).expect_err("65,536 pairs");
    assert!(
        matches!(err, ClientError::Wire(WireError::BadPayload(_))),
        "{err:?}"
    );
    let tables = vec!["a".to_string(); usize::from(u16::MAX) + 1];
    let err = c.explain(&tables).expect_err("65,536 tables");
    assert!(
        matches!(err, ClientError::Wire(WireError::BadPayload(_))),
        "{err:?}"
    );
    // Nothing was sent, so the same connection still answers, and the
    // largest batch the wire can carry comes back whole.
    c.ping().expect("ping after the refused requests");
    let items = c.batch_estimate(&pairs[1..]).expect("u16::MAX pairs");
    assert_eq!(items.len(), usize::from(u16::MAX));
    stop();
}

#[test]
fn a_batch_reply_with_the_wrong_item_count_is_a_protocol_error() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local_addr");
    let canned = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let request = Frame::read_from(&mut s).expect("request frame");
        assert_eq!(request.opcode, Opcode::BatchEstimate.code());
        // A well-formed OK reply carrying one item.
        let mut p = Vec::new();
        wire::put_u8(&mut p, wire::status::OK);
        wire::put_u16(&mut p, 1);
        wire::put_u8(&mut p, wire::status::OK);
        wire::put_f64(&mut p, 0.125);
        wire::put_f64(&mut p, 1024.0);
        let reply = Frame {
            opcode: Opcode::BatchEstimate.response(),
            payload: p,
        };
        reply.write_to(&mut s).expect("write reply");
    });
    let mut c = Client::connect(addr).expect("connect");
    let pairs = vec![("a".to_string(), "b".to_string()); 2];
    let err = c
        .batch_estimate(&pairs)
        .expect_err("one item for two pairs");
    assert!(matches!(err, ClientError::Protocol(_)), "{err:?}");
    canned.join().expect("join canned server");
}

#[test]
fn garbage_flood_never_wedges_the_server() {
    let (addr, stop) = start();
    for seed in 0u8..8 {
        let mut s = TcpStream::connect(addr).expect("connect");
        // Deterministic pseudo-random garbage, no magic prefix.
        let garbage: Vec<u8> = (0..512u32)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect();
        drop(s.write_all(&garbage));
        // The server answers one typed error (or just closes) — both
        // fine; what it must not do is hang or die.
        let mut sink = Vec::new();
        drop(s.read_to_end(&mut sink));
    }
    assert_alive(addr);
    stop();
}

#[test]
fn mutation_opcodes_round_trip_and_reject_typed() {
    let (addr, stop) = start();
    let mut c = Client::connect(addr).expect("connect");
    let rects = [
        sj_geo::Rect::new(0.0, 0.0, 0.1, 0.1),
        sj_geo::Rect::new(0.5, 0.5, 0.6, 0.6),
    ];
    let ins = c.insert_batch("a", &rects).expect("insert");
    assert_eq!(ins.applied, 2);
    assert_eq!(ins.pending_tiers, 1);
    assert!(!ins.compacted);
    let del = c.delete_batch("a", &rects[..1]).expect("delete");
    assert_eq!(del.applied, 1);
    assert!(del.compacted);
    let comp = c.compact("a").expect("compact");
    assert_eq!(comp.tiers_folded, 2);
    assert!(!comp.persisted);
    // Typed rejection leaves the connection serviceable.
    let err = c
        .delete_batch("missing", &rects[..1])
        .expect_err("typed delete failure");
    match err {
        ClientError::Remote { status, .. } => assert_eq!(status, wire::status::INVALID_DATA),
        other => panic!("expected Remote, got {other:?}"),
    }
    c.ping().expect("ping after typed mutation failure");
    stop();
}

#[test]
fn connect_with_retry_reaches_a_late_binding_server() {
    // Reserve a port, free it, then bind the real server only after the
    // client has already started retrying against the refused address.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = probe.local_addr().expect("probe addr");
    drop(probe);
    let server_thread = std::thread::spawn(move || {
        // Hold the port closed past the client's first attempt; the
        // fixed backoff schedule gives it 375 ms of patience in total.
        std::thread::sleep(std::time::Duration::from_millis(60));
        let server = Arc::new(Server::bind(addr, Stub).expect("late bind"));
        let run = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run().expect("run"))
        };
        run.join().expect("join run");
    });
    let mut c = Client::connect_with_retry(addr).expect("retry until the server appears");
    c.ping().expect("ping");
    c.shutdown_server().expect("shutdown");
    server_thread.join().expect("join server thread");
}

#[test]
fn connect_with_retry_still_fails_typed_with_no_server() {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let addr = probe.local_addr().expect("probe addr");
    drop(probe);
    let err = Client::connect_with_retry(addr).expect_err("no server ever binds");
    assert!(
        matches!(err, ClientError::Wire(_)),
        "expected a wire-level connect failure, got {err:?}"
    );
}

#[test]
fn overloaded_server_answers_typed_and_drops() {
    let server = Arc::new(
        Server::bind_with_config(
            "127.0.0.1:0",
            Stub,
            ServerConfig {
                max_connections: 1,
                io_timeout: None,
            },
        )
        .expect("bind"),
    );
    let addr = server.local_addr().expect("local_addr");
    let run = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };
    // Occupy the single slot; the ping round-trip guarantees the accept
    // loop has registered the connection before we try the second one.
    let mut first = Client::connect(addr).expect("first connect");
    first.ping().expect("first ping");
    // The second connection must get an Overloaded error frame, then EOF.
    let mut s = TcpStream::connect(addr).expect("second connect");
    let frame = Frame::read_from(&mut s).expect("overload frame");
    assert_eq!(frame.opcode, wire::ERROR_OPCODE);
    assert_eq!(frame.payload.first(), Some(&wire::status::OVERLOADED));
    let mut rest = Vec::new();
    assert_eq!(s.read_to_end(&mut rest).expect("read_to_end"), 0);
    // Releasing the slot restores service. The handler deregisters
    // asynchronously, so poll with fresh connections until a ping lands.
    drop(first);
    let mut served = false;
    for _ in 0..50 {
        if let Ok(mut again) = Client::connect(addr) {
            if again.ping().is_ok() {
                served = true;
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(served, "server never freed the connection slot");
    server.initiate_shutdown();
    run.join().expect("join");
}

#[test]
fn stalled_client_is_disconnected_by_the_io_deadline() {
    let server = Arc::new(
        Server::bind_with_config(
            "127.0.0.1:0",
            Stub,
            ServerConfig {
                max_connections: 4,
                io_timeout: Some(std::time::Duration::from_millis(100)),
            },
        )
        .expect("bind"),
    );
    let addr = server.local_addr().expect("local_addr");
    let run = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };
    // Connect and send nothing: the read deadline must close us out
    // instead of pinning the handler thread forever.
    let mut s = TcpStream::connect(addr).expect("connect");
    let mut sink = Vec::new();
    assert_eq!(s.read_to_end(&mut sink).expect("read_to_end"), 0);
    // A prompt client is still served afterwards.
    let mut c = Client::connect(addr).expect("connect after stall");
    c.ping().expect("ping after stall");
    drop(c);
    server.initiate_shutdown();
    run.join().expect("join");
}

#[test]
fn concurrent_clients_get_bitwise_identical_answers() {
    let (addr, stop) = start();
    let answers: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let mut last = (0u64, 0u64);
                    for _ in 0..50 {
                        let r = c.estimate("x", "y").expect("estimate");
                        last = (r.selectivity.to_bits(), r.pairs.to_bits());
                    }
                    last
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    let first = answers.first().copied().expect("at least one");
    assert!(
        answers.iter().all(|a| *a == first),
        "answers diverged across threads: {answers:?}"
    );
    assert_eq!(first, (0.125f64.to_bits(), 1024.0f64.to_bits()));
    stop();
}
