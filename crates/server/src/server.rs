//! The daemon side: a TCP listener, one handler thread per connection
//! on `std::thread::scope`, and a pure request dispatcher.
//!
//! Error policy, pinned by the fault-injection suite:
//!
//! * **Frame-level corruption** (bad magic, bad CRC, truncation,
//!   oversized length prefix, unsupported version) — the stream can no
//!   longer be trusted to be frame-aligned, so the server sends a
//!   best-effort [`wire::ERROR_OPCODE`] response and closes the
//!   connection.
//! * **Well-framed but bad requests** (unknown opcode, malformed
//!   payload, service errors) — a typed error response on the same
//!   connection, which stays open for the next request.
//! * Never a panic, never a wedged connection: a mid-request disconnect
//!   surfaces as a typed read error and ends only that handler thread.

#![warn(clippy::exhaustive_enums)]

use crate::service::{EstimateReply, ServiceError, StatisticsService};
use crate::wire::{self, status, Frame, Opcode, PayloadReader, WireError};
use sj_core::sync::{LockRank, OrderedMutex, SeqCstBool, SeqCstU64};
use sj_geo::Rect;
use sj_query::MutationId;
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Admission-control knobs for a [`Server`].
///
/// The defaults keep historical behavior for embedded test servers:
/// a generous connection ceiling and no socket deadlines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Hard ceiling on concurrently served connections. An accept past
    /// the ceiling is answered with a best-effort [`status::OVERLOADED`]
    /// error frame and closed immediately instead of pinning a handler
    /// thread.
    pub max_connections: usize,
    /// Per-connection read *and* write deadline. `None` (the default)
    /// means blocking sockets with no deadline; a stalled peer then pins
    /// its handler until shutdown.
    pub io_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            io_timeout: None,
        }
    }
}

/// Deterministic backoff schedule (milliseconds) for consecutive
/// transient accept failures, so a persistent error (fd exhaustion,
/// netns teardown) cannot spin the accept loop hot. Indexed by the
/// number of consecutive failures, saturating at the last entry; a
/// successful accept resets the index.
const ACCEPT_BACKOFF_MS: [u64; 6] = [1, 2, 5, 10, 25, 50];

/// Errors starting or running a server.
///
/// `#[non_exhaustive]`: future failure modes must not break matches.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServerError {
    /// Binding, accepting or introspecting the listener failed.
    Io(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(why) => write!(f, "server I/O error: {why}"),
        }
    }
}

impl std::error::Error for ServerError {}

// Public errors implement `Display` and `Error`; this fails to compile otherwise.
const _: fn(&ServerError) -> &dyn std::error::Error = |e| e;

/// A statistics daemon bound to a TCP address.
pub struct Server<S: StatisticsService> {
    listener: TcpListener,
    service: S,
    config: ServerConfig,
    shutdown: SeqCstBool,
    /// Cloned handles of live connections keyed by connection id, shut
    /// down to unpark blocked reader threads when the daemon stops.
    /// Handlers deregister their entry on exit — a lingering clone would
    /// keep the peer's socket half-open and leak one fd per connection.
    /// Doubles as the admission-control census: its length is the live
    /// connection count checked against `config.max_connections`.
    conns: OrderedMutex<Vec<(u64, TcpStream)>>,
    /// Monotonic connection id source.
    next_conn: SeqCstU64,
}

impl<S: StatisticsService> Server<S> {
    /// Binds to `addr` (use port 0 for an OS-assigned port) without
    /// accepting yet, with default admission control.
    ///
    /// # Errors
    /// [`ServerError::Io`] when the bind fails.
    pub fn bind(addr: impl ToSocketAddrs, service: S) -> Result<Self, ServerError> {
        Self::bind_with_config(addr, service, ServerConfig::default())
    }

    /// Binds with explicit admission-control settings.
    ///
    /// # Errors
    /// [`ServerError::Io`] when the bind fails.
    pub fn bind_with_config(
        addr: impl ToSocketAddrs,
        service: S,
        config: ServerConfig,
    ) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServerError::Io(e.to_string()))?;
        Ok(Self {
            listener,
            service,
            config,
            shutdown: SeqCstBool::new(false),
            conns: OrderedMutex::new(LockRank::ConnRegistry, "server.conns", Vec::new()),
            next_conn: SeqCstU64::new(0),
        })
    }

    /// The bound address (reports the OS-assigned port after a port-0
    /// bind).
    ///
    /// # Errors
    /// [`ServerError::Io`] when the socket cannot report its address.
    pub fn local_addr(&self) -> Result<SocketAddr, ServerError> {
        self.listener
            .local_addr()
            .map_err(|e| ServerError::Io(e.to_string()))
    }

    /// Serves until a client sends a `Shutdown` request. Each accepted
    /// connection is handled on its own scoped thread; the call returns
    /// only after every handler has finished.
    ///
    /// # Errors
    /// [`ServerError::Io`] when `local_addr` is unavailable; accept
    /// errors on individual connections are skipped, not fatal.
    pub fn run(&self) -> Result<(), ServerError> {
        // Needed for the self-connect that unblocks `accept` at shutdown.
        let addr = self.local_addr()?;
        std::thread::scope(|scope| {
            let mut accept_failures = 0usize;
            for stream in self.listener.incoming() {
                if self.shutdown.load() {
                    break;
                }
                let Ok(stream) = stream else {
                    // Transient accept failure: back off on a bounded
                    // deterministic schedule instead of spinning hot.
                    let slot = accept_failures.min(ACCEPT_BACKOFF_MS.len() - 1);
                    accept_failures = accept_failures.saturating_add(1);
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "slot is clamped to the last index"
                    )]
                    std::thread::sleep(Duration::from_millis(ACCEPT_BACKOFF_MS[slot]));
                    continue;
                };
                accept_failures = 0;
                let live = self.conns.lock().len();
                if live >= self.config.max_connections {
                    reject_overloaded(stream, self.config.max_connections);
                    continue;
                }
                if self.config.io_timeout.is_some() {
                    // A deadline miss surfaces as a read/write error in
                    // the handler, which closes the connection — exactly
                    // the "stalled peer cannot pin a thread" contract.
                    drop(stream.set_read_timeout(self.config.io_timeout));
                    drop(stream.set_write_timeout(self.config.io_timeout));
                }
                let id = self.next_conn.fetch_add(1);
                if let Ok(handle) = stream.try_clone() {
                    self.conns.lock().push((id, handle));
                }
                scope.spawn(move || {
                    self.handle_connection(stream, addr);
                    self.forget_connection(id);
                });
            }
        });
        Ok(())
    }

    /// Requests shutdown: stops accepting and unblocks every parked
    /// connection reader. Safe to call from any thread.
    pub fn initiate_shutdown(&self) {
        self.shutdown.store(true);
        if let Ok(addr) = self.local_addr() {
            // Wake the blocking accept; the loop re-checks the flag first.
            drop(TcpStream::connect(addr));
        }
        let conns = std::mem::take(&mut *self.conns.lock());
        for (_, conn) in conns {
            drop(conn.shutdown(std::net::Shutdown::Both));
        }
    }

    /// Drops the registry clone of a finished connection so the kernel
    /// can actually close the socket (and the fd is reclaimed).
    fn forget_connection(&self, id: u64) {
        self.conns.lock().retain(|(cid, _)| *cid != id);
    }

    /// Serves one connection until it closes, a frame-level corruption
    /// makes the stream untrustworthy, or the daemon shuts down. Frames
    /// are read through a per-connection buffer, so a request usually
    /// costs one `read`, and every reply is encoded into one reused
    /// buffer and written with one `write`.
    fn handle_connection(&self, stream: TcpStream, _addr: SocketAddr) {
        let mut stream = BufReader::new(stream);
        let mut out = Vec::new();
        loop {
            if self.shutdown.load() {
                return;
            }
            let frame = match Frame::read_from(&mut stream) {
                Ok(frame) => frame,
                Err(WireError::Io(_)) => return, // disconnect
                Err(e) => {
                    // Corrupt framing: answer best-effort, then close —
                    // the stream may no longer be frame-aligned.
                    let resp = error_frame(wire::ERROR_OPCODE, e.status(), &e.to_string());
                    drop(resp.write_to(stream.get_mut()));
                    return;
                }
            };
            let (resp, shutdown) = handle_request(&self.service, &frame);
            out.clear();
            resp.encode_into(&mut out);
            if stream.get_mut().write_all(&out).is_err() {
                return;
            }
            if shutdown {
                self.initiate_shutdown();
                return;
            }
        }
    }
}

/// Answers a connection past the admission ceiling: a best-effort
/// [`status::OVERLOADED`] error frame, then an immediate close. The
/// write is fire-and-forget — the peer may already be gone, and the
/// whole point is not to block the accept loop on a slow client.
fn reject_overloaded(mut stream: TcpStream, ceiling: usize) {
    drop(stream.set_write_timeout(Some(Duration::from_millis(100))));
    let resp = error_frame(
        wire::ERROR_OPCODE,
        status::OVERLOADED,
        &format!("server at connection limit ({ceiling})"),
    );
    drop(resp.write_to(&mut stream));
    drop(stream.flush());
}

/// Builds a non-OK response frame: `status + message`.
fn error_frame(opcode: u8, code: u8, message: &str) -> Frame {
    let mut payload = Vec::with_capacity(3 + message.len());
    wire::put_u8(&mut payload, code);
    wire::put_str(&mut payload, message);
    Frame { opcode, payload }
}

/// Dispatches one well-framed request to the service and renders the
/// response frame. Pure (no socket), so unit tests drive it directly.
/// The second return is `true` when the request asked for shutdown.
pub fn handle_request<S: StatisticsService>(service: &S, frame: &Frame) -> (Frame, bool) {
    let Some(op) = Opcode::from_code(frame.opcode) else {
        let e = WireError::UnknownOpcode(frame.opcode);
        return (
            error_frame(wire::ERROR_OPCODE, e.status(), &e.to_string()),
            false,
        );
    };
    // The OK status byte first; the result is encoded after it in place.
    let mut payload = Vec::with_capacity(ESTIMATE_ITEM_LEN);
    payload.push(status::OK);
    let resp = match serve_opcode(service, op, &frame.payload, &mut payload) {
        Ok(()) => Frame {
            opcode: op.response(),
            payload,
        },
        Err(RequestError::Wire(e)) => error_frame(op.response(), e.status(), &e.to_string()),
        Err(RequestError::Service(e)) => error_frame(op.response(), e.status, &e.message),
    };
    (resp, op == Opcode::Shutdown)
}

/// A request that could not produce a result payload.
enum RequestError {
    /// The payload did not parse.
    Wire(WireError),
    /// The service refused.
    Service(ServiceError),
}

impl From<WireError> for RequestError {
    fn from(e: WireError) -> Self {
        RequestError::Wire(e)
    }
}

impl From<ServiceError> for RequestError {
    fn from(e: ServiceError) -> Self {
        RequestError::Service(e)
    }
}

/// Bytes of one OK estimate item: status, selectivity, pairs.
const ESTIMATE_ITEM_LEN: usize = 1 + 8 + 8;

/// Appends an estimate's two numbers.
fn put_estimate(out: &mut Vec<u8>, est: &EstimateReply) {
    wire::put_f64(out, est.selectivity);
    wire::put_f64(out, est.pairs);
}

/// Serves one opcode: parses the request payload, calls the service,
/// and appends the OK result to `out` (which holds the status byte).
/// `Estimate` and `BatchEstimate` share one path: the single estimate
/// is a batch of one whose failure fails the whole reply.
fn serve_opcode<S: StatisticsService>(
    service: &S,
    op: Opcode,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), RequestError> {
    let mut r = PayloadReader::new(payload);
    match op {
        Opcode::Ping | Opcode::Shutdown => r.finish()?,
        Opcode::Estimate => {
            let pair = (r.str_ref()?, r.str_ref()?);
            r.finish()?;
            let answer = service.estimates(&[pair]).pop().unwrap_or_else(|| {
                Err(ServiceError::new(
                    status::RUNTIME,
                    "the service gave no answer",
                ))
            })?;
            put_estimate(out, &answer);
        }
        Opcode::BatchEstimate => {
            let n = usize::from(r.u16()?);
            // Each pair takes at least its two length prefixes, so a
            // lying count cannot size the list past the payload.
            let mut pairs = Vec::with_capacity(n.min(payload.len() / 4));
            for _ in 0..n {
                pairs.push((r.str_ref()?, r.str_ref()?));
            }
            r.finish()?;
            // One frame in, one frame out: each item is individually
            // status-wrapped so a bad table name fails that item only.
            let answers = service.estimates(&pairs);
            out.reserve(2 + answers.len() * ESTIMATE_ITEM_LEN);
            wire::put_u16(out, u16::try_from(answers.len()).unwrap_or(u16::MAX));
            for answer in &answers {
                match answer {
                    Ok(est) => {
                        wire::put_u8(out, status::OK);
                        put_estimate(out, est);
                    }
                    Err(e) => {
                        wire::put_u8(out, e.status);
                        wire::put_str(out, &e.message);
                    }
                }
            }
        }
        Opcode::WindowCount => {
            let table = r.str_ref()?;
            let (x0, y0, x1, y1) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
            r.finish()?;
            let count = service.window_count(table, &Rect::new(x0, y0, x1, y1))?;
            wire::put_f64(out, count);
        }
        Opcode::Explain => {
            let n = usize::from(r.u16()?);
            let mut tables = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                tables.push(r.str()?);
            }
            r.finish()?;
            let text = service.explain(&tables)?;
            wire::put_str(out, &text);
        }
        Opcode::CatalogEstimate => {
            let (a, b) = (r.str_ref()?, r.str_ref()?);
            r.finish()?;
            let outcome = service.catalog_estimate(a, b)?;
            out.extend_from_slice(&outcome.to_bytes());
        }
        Opcode::Tables => {
            r.finish()?;
            let names = service.tables();
            wire::put_u16(out, u16::try_from(names.len()).unwrap_or(u16::MAX));
            for name in names.iter().take(usize::from(u16::MAX)) {
                wire::put_str(out, name);
            }
        }
        Opcode::InsertBatch | Opcode::DeleteBatch => {
            let (table, id, rects) = read_mutation(&mut r)?;
            let reply = if op == Opcode::InsertBatch {
                service.insert_batch(table, &rects, id)?
            } else {
                service.delete_batch(table, &rects, id)?
            };
            wire::put_u32(out, reply.applied);
            wire::put_u16(out, reply.pending_tiers);
            wire::put_u8(out, u8::from(reply.compacted));
            wire::put_u8(out, u8::from(reply.deduplicated));
        }
        Opcode::Compact => {
            let table = r.str_ref()?;
            r.finish()?;
            let reply = service.compact(table)?;
            wire::put_u16(out, reply.tiers_folded);
            wire::put_u8(out, u8::from(reply.persisted));
        }
    }
    Ok(())
}

/// Parses the shared `insert-batch`/`delete-batch` request payload
/// (wire v3): table name, mutation-id token and sequence (all-zero =
/// unstamped, no dedup), rectangle count, then that many `(xlo, ylo,
/// xhi, yhi)` quadruples, kept raw (not normalized by [`Rect::new`]) so
/// the catalog's validation sees exactly what the peer sent. The 16 MiB
/// frame cap already bounds the count; the capacity pre-allocation is
/// clamped anyway so a lying prefix cannot balloon memory before the
/// reader hits truncation.
fn read_mutation<'a>(
    r: &mut PayloadReader<'a>,
) -> Result<(&'a str, MutationId, Vec<Rect>), RequestError> {
    let table = r.str_ref()?;
    let id = MutationId::new(r.u64()?, r.u64()?);
    let n = r.u32()? as usize;
    let mut rects = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let (xlo, ylo, xhi, yhi) = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
        rects.push(Rect { xlo, ylo, xhi, yhi });
    }
    r.finish()?;
    Ok((table, id, rects))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{CompactReply, EstimateReply, MutationReply, RemoteOutcome};

    /// A service stub with deterministic answers.
    struct Stub;

    impl StatisticsService for Stub {
        fn estimate(&self, a: &str, b: &str) -> Result<EstimateReply, ServiceError> {
            if a == "missing" || b == "missing" {
                return Err(ServiceError::new(status::RUNTIME, "unknown table"));
            }
            Ok(EstimateReply {
                selectivity: 0.25,
                pairs: 42.0,
            })
        }

        fn window_count(&self, _table: &str, w: &Rect) -> Result<f64, ServiceError> {
            Ok(w.area())
        }

        fn explain(&self, tables: &[String]) -> Result<String, ServiceError> {
            Ok(format!("plan over {}", tables.join(",")))
        }

        fn catalog_estimate(&self, _a: &str, _b: &str) -> Result<RemoteOutcome, ServiceError> {
            Err(ServiceError::new(status::EXHAUSTED, "all tiers off"))
        }

        fn tables(&self) -> Vec<String> {
            vec!["a".to_string(), "b".to_string()]
        }

        fn insert_batch(
            &self,
            table: &str,
            rects: &[Rect],
            id: MutationId,
        ) -> Result<MutationReply, ServiceError> {
            if table == "missing" {
                return Err(ServiceError::new(status::RUNTIME, "unknown table"));
            }
            Ok(MutationReply {
                applied: u32::try_from(rects.len()).unwrap_or(u32::MAX),
                pending_tiers: 1,
                compacted: false,
                // Lets wire tests observe that the id survived parsing.
                deduplicated: id == MutationId::new(7, 7),
            })
        }

        fn delete_batch(
            &self,
            table: &str,
            rects: &[Rect],
            _id: MutationId,
        ) -> Result<MutationReply, ServiceError> {
            if table == "missing" {
                return Err(ServiceError::new(status::INVALID_DATA, "no such object"));
            }
            Ok(MutationReply {
                applied: u32::try_from(rects.len()).unwrap_or(u32::MAX),
                pending_tiers: 2,
                compacted: true,
                deduplicated: false,
            })
        }

        fn compact(&self, table: &str) -> Result<CompactReply, ServiceError> {
            if table == "missing" {
                return Err(ServiceError::new(status::RUNTIME, "unknown table"));
            }
            Ok(CompactReply {
                tiers_folded: 3,
                persisted: true,
            })
        }
    }

    fn status_of(frame: &Frame) -> u8 {
        frame.payload.first().copied().unwrap_or(0xEE)
    }

    #[test]
    fn ping_round_trips() {
        let (resp, stop) = handle_request(&Stub, &Frame::request(Opcode::Ping, Vec::new()));
        assert_eq!(resp.opcode, Opcode::Ping.response());
        assert_eq!(resp.payload, vec![status::OK]);
        assert!(!stop);
    }

    #[test]
    fn estimate_encodes_result() {
        let mut p = Vec::new();
        wire::put_str(&mut p, "x");
        wire::put_str(&mut p, "y");
        let (resp, _) = handle_request(&Stub, &Frame::request(Opcode::Estimate, p));
        assert_eq!(status_of(&resp), status::OK);
        let mut r = PayloadReader::new(&resp.payload);
        r.u8().unwrap();
        assert_eq!(r.f64().unwrap(), 0.25);
        assert_eq!(r.f64().unwrap(), 42.0);
        r.finish().unwrap();
    }

    #[test]
    fn service_error_keeps_connection_semantics() {
        let mut p = Vec::new();
        wire::put_str(&mut p, "missing");
        wire::put_str(&mut p, "y");
        let (resp, stop) = handle_request(&Stub, &Frame::request(Opcode::Estimate, p));
        assert_eq!(resp.opcode, Opcode::Estimate.response());
        assert_eq!(status_of(&resp), status::RUNTIME);
        assert!(!stop);
    }

    #[test]
    fn malformed_payload_is_usage_or_corrupt_never_panic() {
        // Estimate with no strings at all: truncated payload.
        let (resp, _) = handle_request(&Stub, &Frame::request(Opcode::Estimate, Vec::new()));
        assert_eq!(status_of(&resp), status::CORRUPT);
        // Trailing garbage after a valid ping payload.
        let (resp, _) = handle_request(&Stub, &Frame::request(Opcode::Ping, vec![1, 2, 3]));
        assert_eq!(status_of(&resp), status::USAGE);
    }

    #[test]
    fn unknown_opcode_is_error_opcode() {
        let (resp, stop) = handle_request(
            &Stub,
            &Frame {
                opcode: 0x42,
                payload: Vec::new(),
            },
        );
        assert_eq!(resp.opcode, wire::ERROR_OPCODE);
        assert_eq!(status_of(&resp), status::USAGE);
        assert!(!stop);
    }

    #[test]
    fn batch_wraps_each_item() {
        let mut p = Vec::new();
        wire::put_u16(&mut p, 2);
        wire::put_str(&mut p, "x");
        wire::put_str(&mut p, "y");
        wire::put_str(&mut p, "missing");
        wire::put_str(&mut p, "y");
        let (resp, _) = handle_request(&Stub, &Frame::request(Opcode::BatchEstimate, p));
        let mut r = PayloadReader::new(&resp.payload);
        assert_eq!(r.u8().unwrap(), status::OK);
        assert_eq!(r.u16().unwrap(), 2);
        assert_eq!(r.u8().unwrap(), status::OK);
        r.f64().unwrap();
        r.f64().unwrap();
        assert_eq!(r.u8().unwrap(), status::RUNTIME);
        assert!(r.str().unwrap().contains("unknown table"));
        r.finish().unwrap();
    }

    fn mutation_payload(table: &str, id: MutationId, rects: &[(f64, f64, f64, f64)]) -> Vec<u8> {
        let mut p = Vec::new();
        wire::put_str(&mut p, table);
        wire::put_u64(&mut p, id.token);
        wire::put_u64(&mut p, id.seq);
        wire::put_u32(&mut p, u32::try_from(rects.len()).unwrap());
        for &(x0, y0, x1, y1) in rects {
            wire::put_f64(&mut p, x0);
            wire::put_f64(&mut p, y0);
            wire::put_f64(&mut p, x1);
            wire::put_f64(&mut p, y1);
        }
        p
    }

    #[test]
    fn insert_batch_encodes_receipt() {
        let p = mutation_payload(
            "a",
            MutationId::UNSTAMPED,
            &[(0.0, 0.0, 1.0, 1.0), (2.0, 2.0, 3.0, 3.0)],
        );
        let (resp, stop) = handle_request(&Stub, &Frame::request(Opcode::InsertBatch, p));
        assert!(!stop);
        let mut r = PayloadReader::new(&resp.payload);
        assert_eq!(r.u8().unwrap(), status::OK);
        assert_eq!(r.u32().unwrap(), 2); // applied
        assert_eq!(r.u16().unwrap(), 1); // pending tiers
        assert_eq!(r.u8().unwrap(), 0); // not compacted
        assert_eq!(r.u8().unwrap(), 0); // not deduplicated
        r.finish().unwrap();
    }

    #[test]
    fn mutation_id_reaches_the_service() {
        // The stub reports deduplicated only for id (7, 7): seeing the
        // flag back proves the token/seq pair survived payload parsing.
        let p = mutation_payload("a", MutationId::new(7, 7), &[(0.0, 0.0, 1.0, 1.0)]);
        let (resp, _) = handle_request(&Stub, &Frame::request(Opcode::InsertBatch, p));
        let mut r = PayloadReader::new(&resp.payload);
        assert_eq!(r.u8().unwrap(), status::OK);
        r.u32().unwrap();
        r.u16().unwrap();
        r.u8().unwrap();
        assert_eq!(r.u8().unwrap(), 1); // deduplicated echo
        r.finish().unwrap();
    }

    #[test]
    fn delete_batch_error_is_well_framed() {
        let p = mutation_payload("missing", MutationId::UNSTAMPED, &[(0.0, 0.0, 1.0, 1.0)]);
        let (resp, _) = handle_request(&Stub, &Frame::request(Opcode::DeleteBatch, p));
        assert_eq!(resp.opcode, Opcode::DeleteBatch.response());
        assert_eq!(status_of(&resp), status::INVALID_DATA);
    }

    /// Rectangles reach the catalog exactly as sent: a NaN, infinite,
    /// inverted or out-of-extent one is refused with INVALID_DATA, and
    /// the table's statistics and pair memo are left as they were.
    #[test]
    fn invalid_mutation_rectangles_are_refused_and_apply_nothing() {
        use crate::service::CatalogService;
        use sj_core::sync::OrderedRwLock;
        use sj_query::{Catalog, DegradationPolicy};
        let mut catalog = Catalog::with_level(3);
        let rects = vec![Rect::new(0.1, 0.1, 0.3, 0.3), Rect::new(0.5, 0.5, 0.7, 0.6)];
        catalog
            .register(sj_datagen::Dataset::new("t", sj_geo::Extent::unit(), rects))
            .unwrap();
        let catalog = std::sync::Arc::new(OrderedRwLock::new(LockRank::Catalog, "test", catalog));
        let service = CatalogService::new(
            std::sync::Arc::clone(&catalog),
            DegradationPolicy::default(),
        );
        service.estimate("t", "t").unwrap();
        let before = catalog.read().histogram("t").unwrap().to_bytes();
        for quad in [
            (f64::NAN, 0.1, 0.2, 0.2),
            (0.1, 0.1, f64::INFINITY, 0.2),
            (0.3, 0.1, 0.2, 0.2),
            (0.1, 0.3, 0.2, 0.2),
            (5.0, 5.0, 6.0, 6.0),
        ] {
            for op in [Opcode::InsertBatch, Opcode::DeleteBatch] {
                let p = mutation_payload("t", MutationId::UNSTAMPED, &[(0.1, 0.1, 0.2, 0.2), quad]);
                let (resp, _) = handle_request(&service, &Frame::request(op, p));
                assert_eq!(status_of(&resp), status::INVALID_DATA, "{op:?} {quad:?}");
            }
        }
        let after = catalog.read();
        assert_eq!(after.histogram("t").unwrap().to_bytes(), before);
        assert_eq!(after.table_len("t").unwrap(), 2);
        assert!(after.memo_holds("t", "t"), "the pair memo must survive");
    }

    #[test]
    fn truncated_mutation_payload_is_typed() {
        // Count claims 3 rects but only one follows: CORRUPT, no panic.
        let mut p = Vec::new();
        wire::put_str(&mut p, "a");
        wire::put_u64(&mut p, 0);
        wire::put_u64(&mut p, 0);
        wire::put_u32(&mut p, 3);
        for _ in 0..4 {
            wire::put_f64(&mut p, 0.5);
        }
        let (resp, _) = handle_request(&Stub, &Frame::request(Opcode::InsertBatch, p));
        assert_eq!(status_of(&resp), status::CORRUPT);
    }

    #[test]
    fn v2_mutation_payload_without_id_is_typed_not_applied() {
        // A v2-style payload (no token/seq) misparses deterministically:
        // the count and rect bytes are consumed as the id, leaving the
        // reader truncated or with trailing garbage — a typed error
        // either way, never a silent partial apply.
        let mut p = Vec::new();
        wire::put_str(&mut p, "a");
        wire::put_u32(&mut p, 1);
        for _ in 0..4 {
            wire::put_f64(&mut p, 0.5);
        }
        let (resp, _) = handle_request(&Stub, &Frame::request(Opcode::InsertBatch, p));
        let s = status_of(&resp);
        assert!(
            s == status::CORRUPT || s == status::USAGE,
            "expected typed parse error, got status {s}"
        );
    }

    #[test]
    fn compact_encodes_receipt() {
        let mut p = Vec::new();
        wire::put_str(&mut p, "a");
        let (resp, _) = handle_request(&Stub, &Frame::request(Opcode::Compact, p));
        let mut r = PayloadReader::new(&resp.payload);
        assert_eq!(r.u8().unwrap(), status::OK);
        assert_eq!(r.u16().unwrap(), 3); // tiers folded
        assert_eq!(r.u8().unwrap(), 1); // persisted
        r.finish().unwrap();
    }

    #[test]
    fn shutdown_is_signalled() {
        let (resp, stop) = handle_request(&Stub, &Frame::request(Opcode::Shutdown, Vec::new()));
        assert_eq!(status_of(&resp), status::OK);
        assert!(stop);
    }
}
