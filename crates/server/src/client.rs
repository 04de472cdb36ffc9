//! The in-process client library: a blocking TCP connection speaking
//! one request/response frame pair at a time.

#![warn(clippy::exhaustive_enums)]

use crate::service::{CompactReply, EstimateReply, MutationReply, RemoteOutcome};
use crate::wire::{self, status, Frame, Opcode, PayloadReader, WireError};
use sj_core::sync::SeqCstU64;
use sj_geo::Rect;
use sj_query::MutationId;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Distinguishes clients created in the same process: combined with the
/// process id and the socket's local port into the mutation-id token,
/// so two clients opened back-to-back never collide even if the OS
/// recycles a port.
static CLIENT_INSTANCES: SeqCstU64 = SeqCstU64::new(0);

/// The deterministic backoff schedule used by [`Client::connect_with_retry`]:
/// the pause taken before each re-attempt after a failed connect. Fixed
/// durations — no clocks, no jitter — so the retry behaviour is exactly
/// reproducible: at most `RETRY_BACKOFF.len() + 1` connect attempts and
/// at most 375 ms of sleeping before the final error surfaces.
pub const RETRY_BACKOFF: [Duration; 4] = [
    Duration::from_millis(25),
    Duration::from_millis(50),
    Duration::from_millis(100),
    Duration::from_millis(200),
];

/// Errors a client call can produce.
///
/// `#[non_exhaustive]`: the protocol will grow; downstream matches keep
/// a `_` arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClientError {
    /// The socket or the frame codec failed.
    Wire(WireError),
    /// The server answered with a non-OK status. The status byte reuses
    /// the `sjsel` exit-code taxonomy.
    Remote {
        /// The wire status code.
        status: u8,
        /// The server's message (the text the cold CLI would print).
        message: String,
    },
    /// The server broke protocol (unexpected response opcode).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Remote {
                status: code,
                message,
            } => {
                write!(f, "server error [{}]: {message}", status::name(*code))
            }
            ClientError::Protocol(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

// Public errors implement `Display` and `Error`; this fails to compile otherwise.
const _: fn(&ClientError) -> &dyn std::error::Error = |e| e;

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One failed item inside an otherwise-successful batch response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteFailure {
    /// The wire status code (`sjsel` exit-code taxonomy).
    pub status: u8,
    /// The server's message for this item.
    pub message: String,
}

/// A blocking connection to a running `sj-server`.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// The daemon's resolved address, kept so retry-safe mutations can
    /// reconnect after an ambiguous connection failure.
    addr: SocketAddr,
    /// Deterministic mutation-id namespace for this client instance:
    /// `pid << 32 | first local port << 16 | instance counter`. No
    /// clocks, no randomness — replayable and collision-free within the
    /// daemon's dedup window.
    token: u64,
    /// Next mutation sequence number; each stamped mutation consumes
    /// one, and a retry of the same logical mutation reuses it.
    next_seq: u64,
    /// Socket deadline re-applied after every reconnect.
    io_timeout: Option<Duration>,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    /// [`ClientError::Wire`] when the TCP connect fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(WireError::from)?;
        let addr = stream.peer_addr().map_err(WireError::from)?;
        let port = stream
            .local_addr()
            .map(|a| u64::from(a.port()))
            .unwrap_or(0);
        let instance = CLIENT_INSTANCES.fetch_add(1) & 0xFFFF;
        let token = (u64::from(std::process::id()) << 32) | (port << 16) | instance;
        Ok(Self {
            stream,
            addr,
            token,
            next_seq: 1,
            io_timeout: None,
        })
    }

    /// Sets (or clears) the read/write deadline on the underlying socket.
    /// Also re-applied after every retry reconnect.
    ///
    /// # Errors
    /// [`ClientError::Wire`] when the socket refuses the deadline.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(WireError::from)?;
        self.stream
            .set_write_timeout(timeout)
            .map_err(WireError::from)?;
        self.io_timeout = timeout;
        Ok(())
    }

    /// Overrides the mutation-id token, e.g. to make a test's ids
    /// predictable or to resume a logical client identity.
    pub fn set_mutation_token(&mut self, token: u64) {
        self.token = token;
    }

    /// Stamps the next mutation id in this client's sequence.
    fn next_mutation_id(&mut self) -> MutationId {
        let id = MutationId::new(self.token, self.next_seq);
        self.next_seq += 1;
        id
    }

    /// Replaces the connection after an ambiguous failure, re-applying
    /// the configured socket deadline.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = TcpStream::connect(self.addr).map_err(WireError::from)?;
        stream
            .set_read_timeout(self.io_timeout)
            .map_err(WireError::from)?;
        stream
            .set_write_timeout(self.io_timeout)
            .map_err(WireError::from)?;
        self.stream = stream;
        Ok(())
    }

    /// Connects like [`Client::connect`], but retries transient connect
    /// failures (a daemon still binding its socket) on the fixed
    /// [`RETRY_BACKOFF`] schedule before giving up. Bounded: one initial
    /// attempt plus one per schedule entry, then the last connect error
    /// surfaces unchanged — a permanently absent server still fails with
    /// the same [`ClientError::Wire`] a single attempt would produce.
    ///
    /// # Errors
    /// [`ClientError::Wire`] when every attempt fails.
    pub fn connect_with_retry(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let mut last: Option<ClientError> = None;
        for pause in std::iter::once(None).chain(RETRY_BACKOFF.iter().copied().map(Some)) {
            if let Some(pause) = pause {
                std::thread::sleep(pause);
            }
            match Self::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| ClientError::Protocol("empty retry schedule".to_string())))
    }

    /// Sends one request frame and returns the OK response payload with
    /// the status byte stripped, mapping non-OK statuses to
    /// [`ClientError::Remote`].
    fn call(&mut self, op: Opcode, payload: Vec<u8>) -> Result<Vec<u8>, ClientError> {
        Frame::request(op, payload).write_to(&mut self.stream)?;
        let resp = Frame::read_from(&mut self.stream)?;
        if resp.opcode != op.response() && resp.opcode != wire::ERROR_OPCODE {
            return Err(ClientError::Protocol(format!(
                "response opcode {:#04x} to request {:#04x}",
                resp.opcode,
                op.code()
            )));
        }
        let mut r = PayloadReader::new(&resp.payload);
        let code = r.u8()?;
        if code != status::OK {
            let message = r
                .str()
                .unwrap_or_else(|_| "malformed error response".to_string());
            return Err(ClientError::Remote {
                status: code,
                message,
            });
        }
        Ok(resp
            .payload
            .get(1..)
            .map(<[u8]>::to_vec)
            .unwrap_or_default())
    }

    /// Liveness check.
    ///
    /// # Errors
    /// [`ClientError`] on wire or remote failure.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let body = self.call(Opcode::Ping, Vec::new())?;
        expect_empty(&body)
    }

    /// Primary-statistics join estimate between two registered tables.
    ///
    /// # Errors
    /// [`ClientError`] on wire or remote failure.
    pub fn estimate(&mut self, a: &str, b: &str) -> Result<EstimateReply, ClientError> {
        let mut p = Vec::new();
        wire::put_str(&mut p, a);
        wire::put_str(&mut p, b);
        let body = self.call(Opcode::Estimate, p)?;
        let mut r = PayloadReader::new(&body);
        let reply = EstimateReply {
            selectivity: r.f64()?,
            pairs: r.f64()?,
        };
        r.finish()?;
        Ok(reply)
    }

    /// Estimated number of objects of `table` intersecting `window`.
    ///
    /// # Errors
    /// [`ClientError`] on wire or remote failure.
    pub fn window_count(&mut self, table: &str, window: &Rect) -> Result<f64, ClientError> {
        let mut p = Vec::new();
        wire::put_str(&mut p, table);
        wire::put_f64(&mut p, window.xlo);
        wire::put_f64(&mut p, window.ylo);
        wire::put_f64(&mut p, window.xhi);
        wire::put_f64(&mut p, window.yhi);
        let body = self.call(Opcode::WindowCount, p)?;
        let mut r = PayloadReader::new(&body);
        let count = r.f64()?;
        r.finish()?;
        Ok(count)
    }

    /// The optimizer's plan for a chain join, as text.
    ///
    /// # Errors
    /// [`ClientError`] on wire or remote failure;
    /// [`WireError::BadPayload`] before sending when `tables` has more
    /// than `u16::MAX` entries.
    pub fn explain(&mut self, tables: &[String]) -> Result<String, ClientError> {
        let mut p = Vec::new();
        wire::put_u16(&mut p, item_count(tables.len(), "tables")?);
        for t in tables {
            wire::put_str(&mut p, t);
        }
        let body = self.call(Opcode::Explain, p)?;
        let mut r = PayloadReader::new(&body);
        let text = r.str()?;
        r.finish()?;
        Ok(text)
    }

    /// Degradation-ladder estimate with full tier provenance.
    ///
    /// # Errors
    /// [`ClientError`] on wire or remote failure.
    pub fn catalog_estimate(&mut self, a: &str, b: &str) -> Result<RemoteOutcome, ClientError> {
        let mut p = Vec::new();
        wire::put_str(&mut p, a);
        wire::put_str(&mut p, b);
        let body = self.call(Opcode::CatalogEstimate, p)?;
        let mut r = PayloadReader::new(&body);
        let outcome = RemoteOutcome::from_bytes(&mut r)?;
        r.finish()?;
        Ok(outcome)
    }

    /// Batched primary estimates: one request frame, one response frame,
    /// each item individually status-wrapped.
    ///
    /// # Errors
    /// [`ClientError`] when the batch itself fails; per-item failures
    /// come back as `Err(RemoteFailure)` entries.
    /// [`WireError::BadPayload`] before sending when `pairs` has more
    /// than `u16::MAX` entries; [`ClientError::Protocol`] when the reply
    /// carries a different number of items than `pairs`.
    #[allow(clippy::type_complexity)]
    pub fn batch_estimate(
        &mut self,
        pairs: &[(String, String)],
    ) -> Result<Vec<Result<EstimateReply, RemoteFailure>>, ClientError> {
        let mut p = Vec::new();
        wire::put_u16(&mut p, item_count(pairs.len(), "pairs")?);
        for (a, b) in pairs {
            wire::put_str(&mut p, a);
            wire::put_str(&mut p, b);
        }
        let body = self.call(Opcode::BatchEstimate, p)?;
        let mut r = PayloadReader::new(&body);
        let n = usize::from(r.u16()?);
        if n != pairs.len() {
            return Err(ClientError::Protocol(format!(
                "batch reply carries {n} items for {} pairs",
                pairs.len()
            )));
        }
        let mut items = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let code = r.u8()?;
            if code == status::OK {
                items.push(Ok(EstimateReply {
                    selectivity: r.f64()?,
                    pairs: r.f64()?,
                }));
            } else {
                items.push(Err(RemoteFailure {
                    status: code,
                    message: r.str()?,
                }));
            }
        }
        r.finish()?;
        Ok(items)
    }

    /// Registered table names.
    ///
    /// # Errors
    /// [`ClientError`] on wire or remote failure.
    pub fn tables(&mut self) -> Result<Vec<String>, ClientError> {
        let body = self.call(Opcode::Tables, Vec::new())?;
        let mut r = PayloadReader::new(&body);
        let n = usize::from(r.u16()?);
        let mut names = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            names.push(r.str()?);
        }
        r.finish()?;
        Ok(names)
    }

    /// Inserts a batch of rectangles into a registered table; the daemon
    /// folds a signed histogram delta into its statistics without a
    /// restart. Stamped with a fresh mutation id so the daemon can
    /// recognize a duplicate, but does not retry on its own — see
    /// [`Client::insert_batch_with_retry`].
    ///
    /// # Errors
    /// [`ClientError`] on wire or remote failure.
    pub fn insert_batch(
        &mut self,
        table: &str,
        rects: &[Rect],
    ) -> Result<MutationReply, ClientError> {
        let id = self.next_mutation_id();
        let body = self.call(Opcode::InsertBatch, mutation_payload(table, id, rects))?;
        decode_mutation_reply(&body)
    }

    /// Deletes a batch of rectangles from a registered table. Every
    /// rectangle must match an object exactly or the daemon rejects the
    /// whole batch without mutating anything. Stamped like
    /// [`Client::insert_batch`].
    ///
    /// # Errors
    /// [`ClientError`] on wire or remote failure.
    pub fn delete_batch(
        &mut self,
        table: &str,
        rects: &[Rect],
    ) -> Result<MutationReply, ClientError> {
        let id = self.next_mutation_id();
        let body = self.call(Opcode::DeleteBatch, mutation_payload(table, id, rects))?;
        decode_mutation_reply(&body)
    }

    /// Like [`Client::insert_batch`], but survives ambiguous connection
    /// failures: the mutation id is stamped once, and on a wire error
    /// (connection died before, during, or after the server applied the
    /// batch) the client reconnects on the [`RETRY_BACKOFF`] schedule
    /// and resends the *same* id — the daemon's dedup window turns the
    /// resend into a no-op if the first attempt landed, so the mutation
    /// is applied exactly once. Remote (typed) errors are never retried.
    ///
    /// # Errors
    /// [`ClientError`] when every attempt fails, or immediately on a
    /// remote/protocol error.
    pub fn insert_batch_with_retry(
        &mut self,
        table: &str,
        rects: &[Rect],
    ) -> Result<MutationReply, ClientError> {
        self.mutate_with_retry(Opcode::InsertBatch, table, rects)
    }

    /// Like [`Client::delete_batch`], but retry-safe — see
    /// [`Client::insert_batch_with_retry`] for the exactly-once
    /// contract.
    ///
    /// # Errors
    /// [`ClientError`] when every attempt fails, or immediately on a
    /// remote/protocol error.
    pub fn delete_batch_with_retry(
        &mut self,
        table: &str,
        rects: &[Rect],
    ) -> Result<MutationReply, ClientError> {
        self.mutate_with_retry(Opcode::DeleteBatch, table, rects)
    }

    /// Shared retry loop: one stamped id across all attempts; only
    /// [`ClientError::Wire`] triggers a reconnect-and-resend.
    fn mutate_with_retry(
        &mut self,
        op: Opcode,
        table: &str,
        rects: &[Rect],
    ) -> Result<MutationReply, ClientError> {
        let id = self.next_mutation_id();
        let payload = mutation_payload(table, id, rects);
        let mut last = match self.call(op, payload.clone()) {
            Ok(body) => return decode_mutation_reply(&body),
            Err(e @ ClientError::Wire(_)) => e,
            Err(e) => return Err(e),
        };
        for pause in RETRY_BACKOFF {
            std::thread::sleep(pause);
            if let Err(e) = self.reconnect() {
                last = e;
                continue;
            }
            match self.call(op, payload.clone()) {
                Ok(body) => return decode_mutation_reply(&body),
                Err(e @ ClientError::Wire(_)) => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// Forces a compaction: the batches applied since the last one fold
    /// into the table's base statistics and the write-ahead log is
    /// truncated.
    ///
    /// # Errors
    /// [`ClientError`] on wire or remote failure.
    pub fn compact(&mut self, table: &str) -> Result<CompactReply, ClientError> {
        let mut p = Vec::new();
        wire::put_str(&mut p, table);
        let body = self.call(Opcode::Compact, p)?;
        let mut r = PayloadReader::new(&body);
        let reply = CompactReply {
            tiers_folded: r.u16()?,
            persisted: r.u8()? != 0,
        };
        r.finish()?;
        Ok(reply)
    }

    /// Asks the daemon to shut down gracefully.
    ///
    /// # Errors
    /// [`ClientError`] on wire or remote failure.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let body = self.call(Opcode::Shutdown, Vec::new())?;
        expect_empty(&body)
    }
}

/// Encodes the shared `insert-batch`/`delete-batch` request payload
/// (wire v3: table, mutation id, rects).
fn mutation_payload(table: &str, id: MutationId, rects: &[Rect]) -> Vec<u8> {
    let mut p = Vec::new();
    wire::put_str(&mut p, table);
    wire::put_u64(&mut p, id.token);
    wire::put_u64(&mut p, id.seq);
    wire::put_u32(&mut p, u32::try_from(rects.len()).unwrap_or(u32::MAX));
    for r in rects.iter().take(u32::MAX as usize) {
        wire::put_f64(&mut p, r.xlo);
        wire::put_f64(&mut p, r.ylo);
        wire::put_f64(&mut p, r.xhi);
        wire::put_f64(&mut p, r.yhi);
    }
    p
}

/// The `u16` item count of a list request. A longer list is refused
/// before anything is sent, never truncated to fit.
fn item_count(len: usize, what: &str) -> Result<u16, ClientError> {
    u16::try_from(len).map_err(|_| {
        ClientError::Wire(WireError::BadPayload(format!(
            "{len} {what} exceed the {} one request can carry",
            u16::MAX
        )))
    })
}

/// Decodes the shared `insert-batch`/`delete-batch` response payload.
fn decode_mutation_reply(body: &[u8]) -> Result<MutationReply, ClientError> {
    let mut r = PayloadReader::new(body);
    let reply = MutationReply {
        applied: r.u32()?,
        pending_tiers: r.u16()?,
        compacted: r.u8()? != 0,
        deduplicated: r.u8()? != 0,
    };
    r.finish()?;
    Ok(reply)
}

fn expect_empty(body: &[u8]) -> Result<(), ClientError> {
    if body.is_empty() {
        Ok(())
    } else {
        Err(ClientError::Protocol(format!(
            "{} unexpected byte(s) in an empty-bodied response",
            body.len()
        )))
    }
}
