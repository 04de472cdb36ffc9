//! The length-framed binary wire protocol.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SJWF"
//! 4       2     wire version (u16 LE, currently 3, `WIRE_VERSION`)
//! 6       1     opcode (request, or request | 0x80 for its response)
//! 7       1     reserved (must be 0)
//! 8       4     payload length (u32 LE, at most MAX_PAYLOAD)
//! 12      n     payload
//! 12+n    4     CRC32 (IEEE) over bytes [0, 12+n)  (u32 LE)
//! ```
//!
//! The envelope mirrors the v2 `.hist` persistence format: magic,
//! version, explicit length, CRC32 trailer — so a truncated stream, a
//! flipped bit, or an absurd length prefix all surface as a typed
//! [`WireError`] instead of a misread. Payload fields use the same
//! primitive encodings everywhere: integers little-endian, `f64` as its
//! LE bit pattern, strings as a u16 LE byte length followed by UTF-8.
//!
//! Response payloads open with one status byte from [`status`] (`0` =
//! OK); non-OK responses carry a message string after the status.

#![warn(clippy::exhaustive_enums)]

/// Magic bytes opening every frame (`b"SJWF"` — spatial-join wire frame).
pub const MAGIC: [u8; 4] = *b"SJWF";

/// Wire protocol version. Bump on any frame or payload layout change —
/// `crates/server/tests/format_golden.rs` pins every opcode's request and
/// reply frame to this number.
/// Version 2 added the mutation opcodes (`InsertBatch`, `DeleteBatch`,
/// `Compact`). Version 3 added the client-stamped mutation ID to the
/// `InsertBatch`/`DeleteBatch` payloads, the `deduplicated` flag to
/// their replies, and the `Overloaded` status.
pub const WIRE_VERSION: u16 = 3;

/// Upper bound on a frame payload (16 MiB). A length prefix above this
/// is treated as corruption, not an allocation request.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Fixed frame header length (magic + version + opcode + reserved + len).
pub const HEADER_LEN: usize = 12;

/// Length of the CRC32 trailer.
pub const TRAILER_LEN: usize = 4;

/// Bit set on a request opcode to form its response opcode.
pub const RESPONSE_BIT: u8 = 0x80;

/// Response opcode used when the request could not even be parsed far
/// enough to know what was asked (bad magic, bad CRC, unknown opcode).
pub const ERROR_OPCODE: u8 = 0xFF;

/// Wire status codes carried in the first payload byte of every
/// response. Nonzero codes reuse the `sjsel` process exit-code taxonomy
/// so `sjsel client` can exit with the remote failure's code unchanged.
pub mod status {
    /// The request succeeded; the result payload follows.
    pub const OK: u8 = 0;
    /// Generic runtime failure not covered by a more specific code.
    pub const RUNTIME: u8 = 1;
    /// Malformed request (unknown opcode, bad payload, unknown table
    /// would be RUNTIME — this is for requests the server cannot parse).
    pub const USAGE: u8 = 2;
    /// An I/O failure while serving.
    pub const IO: u8 = 3;
    /// Corrupt frame or statistics (bad checksum, truncation).
    pub const CORRUPT: u8 = 4;
    /// Histogram kind/grid mismatch (or unsupported wire version).
    pub const MISMATCH: u8 = 5;
    /// Invalid dataset.
    pub const INVALID_DATA: u8 = 6;
    /// Every estimation tier was disabled or failed.
    pub const EXHAUSTED: u8 = 7;
    /// The server refused the connection at its admission limit; retry
    /// later. Extends the exit-code taxonomy numerically (exit code 8).
    pub const OVERLOADED: u8 = 8;

    /// Human-readable name of a status code.
    #[must_use]
    pub fn name(code: u8) -> &'static str {
        match code {
            OK => "ok",
            RUNTIME => "runtime",
            USAGE => "usage",
            IO => "io",
            CORRUPT => "corrupt",
            MISMATCH => "mismatch",
            INVALID_DATA => "invalid-data",
            EXHAUSTED => "exhausted",
            OVERLOADED => "overloaded",
            _ => "unknown",
        }
    }
}

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[expect(
    clippy::exhaustive_enums,
    reason = "closed: the opcode set is fixed per WIRE_VERSION, and the dispatcher matches every opcode"
)]
pub enum Opcode {
    /// Liveness check; empty payload both ways.
    Ping,
    /// Primary-statistics estimate: `str a + str b` → `f64 selectivity +
    /// f64 pairs` (same numbers as `sjsel estimate` over the same files).
    Estimate,
    /// Window count: `str table + 4×f64 window` → `f64 count`.
    WindowCount,
    /// Plan explanation: `u16 n + n×str tables` → `str plan text`.
    Explain,
    /// Degradation-ladder estimate with provenance: `str a + str b` →
    /// a serialized [`crate::service::RemoteOutcome`].
    CatalogEstimate,
    /// Batched primary estimates amortizing one frame per N requests:
    /// `u16 n + n×(str a + str b)` → `u16 n + n×(status u8 + item)`,
    /// each item individually status-wrapped.
    BatchEstimate,
    /// Registered table names: empty → `u16 n + n×str`.
    Tables,
    /// Incremental insert batch: `str table + u64 id_token + u64
    /// id_seq + u32 n + n×4×f64 rects` → `u32 applied + u16
    /// pending_tiers + u8 compacted + u8 deduplicated`. The daemon
    /// updates the table's statistics exactly (byte-identical to a
    /// full rebuild) without restarting. A nonzero `(id_token, id_seq)`
    /// pair is the batch's [`MutationId`](sj_query::MutationId): the
    /// daemon applies each stamped ID at most once, so clients retry
    /// ambiguous failures safely.
    InsertBatch,
    /// Incremental delete batch; same payloads as [`Opcode::InsertBatch`].
    /// Every rectangle must currently exist in the table, or the whole
    /// batch is rejected without applying anything.
    DeleteBatch,
    /// Fold a table's pending delta tiers into its base envelope:
    /// `str table` → `u16 tiers_folded + u8 persisted`.
    Compact,
    /// Graceful server shutdown; empty payload both ways.
    Shutdown,
}

impl Opcode {
    /// Every request opcode.
    pub const ALL: [Opcode; 11] = [
        Opcode::Ping,
        Opcode::Estimate,
        Opcode::WindowCount,
        Opcode::Explain,
        Opcode::CatalogEstimate,
        Opcode::BatchEstimate,
        Opcode::Tables,
        Opcode::InsertBatch,
        Opcode::DeleteBatch,
        Opcode::Compact,
        Opcode::Shutdown,
    ];

    /// The opcode's byte on the wire.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Opcode::Ping => 0x01,
            Opcode::Estimate => 0x02,
            Opcode::WindowCount => 0x03,
            Opcode::Explain => 0x04,
            Opcode::CatalogEstimate => 0x05,
            Opcode::BatchEstimate => 0x06,
            Opcode::Tables => 0x07,
            Opcode::InsertBatch => 0x08,
            Opcode::DeleteBatch => 0x09,
            Opcode::Compact => 0x0A,
            Opcode::Shutdown => 0x0F,
        }
    }

    /// The response opcode paired with this request.
    #[must_use]
    pub fn response(self) -> u8 {
        self.code() | RESPONSE_BIT
    }

    /// Decodes a request opcode byte.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Opcode> {
        Opcode::ALL.into_iter().find(|op| op.code() == code)
    }
}

/// Errors raised by the frame and payload codecs.
///
/// `#[non_exhaustive]`: the protocol will grow; downstream matches keep
/// a `_` arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame's wire version is not [`WIRE_VERSION`].
    UnsupportedVersion(u16),
    /// The reserved header byte was nonzero.
    BadReserved(u8),
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: u32,
        /// The protocol's limit.
        max: u32,
    },
    /// The stream or buffer ended before the frame did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The CRC32 trailer does not match the frame bytes.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        expected: u32,
        /// Checksum computed over the received bytes.
        actual: u32,
    },
    /// The opcode byte names no known request.
    UnknownOpcode(u8),
    /// The frame parsed but its payload did not (bad UTF-8, trailing
    /// bytes, field out of range).
    BadPayload(String),
    /// The underlying socket failed.
    Io(String),
}

impl WireError {
    /// The wire status code this error maps to, mirroring the CLI
    /// exit-code taxonomy.
    #[must_use]
    pub fn status(&self) -> u8 {
        match self {
            WireError::BadMagic(_)
            | WireError::Truncated { .. }
            | WireError::ChecksumMismatch { .. }
            | WireError::Oversized { .. }
            | WireError::BadReserved(_) => status::CORRUPT,
            WireError::UnsupportedVersion(_) => status::MISMATCH,
            WireError::UnknownOpcode(_) | WireError::BadPayload(_) => status::USAGE,
            WireError::Io(_) => status::IO,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?} (expected \"SJWF\")"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::BadReserved(b) => write!(f, "nonzero reserved header byte {b:#04x}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame payload length {len} exceeds the {max}-byte limit")
            }
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch: trailer {expected:#010x}, computed {actual:#010x}"
            ),
            WireError::UnknownOpcode(op) => write!(f, "unknown request opcode {op:#04x}"),
            WireError::BadPayload(why) => write!(f, "malformed payload: {why}"),
            WireError::Io(why) => write!(f, "socket error: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

// Public errors implement `Display` and `Error`; this fails to compile otherwise.
const _: fn(&WireError) -> &dyn std::error::Error = |e| e;

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected 0xEDB88320) — same variant and same
// implementation as the .hist envelope: the workspace's single CRC32
// lives in `sj_histogram::crc` (re-exported as `sj_core::crc`).
// ---------------------------------------------------------------------

pub use sj_core::crc::crc32;

// ---------------------------------------------------------------------
// Frame
// ---------------------------------------------------------------------

/// One wire message: an opcode byte plus its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Raw opcode byte (a request code, `request | RESPONSE_BIT`, or
    /// [`ERROR_OPCODE`]).
    pub opcode: u8,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a request frame.
    #[must_use]
    pub fn request(op: Opcode, payload: Vec<u8>) -> Self {
        Self {
            opcode: op.code(),
            payload,
        }
    }

    /// Serializes the frame: header, payload, CRC32 trailer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len() + TRAILER_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.push(self.opcode);
        out.push(0); // reserved
        let len = u32::try_from(self.payload.len()).unwrap_or(u32::MAX);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&self.payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes one complete frame from `bytes`, which must contain the
    /// frame exactly (no trailing data).
    ///
    /// # Errors
    /// Every corruption mode is a distinct [`WireError`]: wrong magic,
    /// unsupported version, oversized or truncated length, checksum
    /// mismatch, trailing garbage.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let header = bytes.get(..HEADER_LEN).ok_or(WireError::Truncated {
            needed: HEADER_LEN,
            got: bytes.len(),
        })?;
        let (magic, version, opcode, reserved, len) = parse_header(header)?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        if reserved != 0 {
            return Err(WireError::BadReserved(reserved));
        }
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversized {
                len,
                max: MAX_PAYLOAD,
            });
        }
        let payload_len = len as usize;
        let total = HEADER_LEN + payload_len + TRAILER_LEN;
        if bytes.len() != total {
            return Err(WireError::Truncated {
                needed: total,
                got: bytes.len(),
            });
        }
        let body = bytes.get(..HEADER_LEN + payload_len).unwrap_or_default();
        let trailer = bytes.get(HEADER_LEN + payload_len..).unwrap_or_default();
        let expected = u32::from_le_bytes(le4(trailer)?);
        let actual = crc32(body);
        if expected != actual {
            return Err(WireError::ChecksumMismatch { expected, actual });
        }
        Ok(Self {
            opcode,
            payload: body.get(HEADER_LEN..).unwrap_or_default().to_vec(),
        })
    }

    /// Writes the frame to `w` and flushes.
    ///
    /// # Errors
    /// [`WireError::Io`] on write failure.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> Result<(), WireError> {
        w.write_all(&self.to_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Reads one complete frame from `r`.
    ///
    /// Reads the fixed header first, validates it (so an absurd length
    /// prefix is rejected before any allocation), then reads exactly the
    /// declared payload and trailer and runs the full [`Frame::from_bytes`]
    /// validation.
    ///
    /// # Errors
    /// A clean EOF before the first header byte is
    /// `WireError::Io("connection closed")`; everything else maps to the
    /// corruption taxonomy of [`Frame::from_bytes`].
    pub fn read_from(r: &mut impl std::io::Read) -> Result<Self, WireError> {
        let mut header = [0u8; HEADER_LEN];
        read_exact_or_truncated(r, &mut header, true)?;
        let (magic, version, _opcode, reserved, len) = parse_header(&header)?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        if reserved != 0 {
            return Err(WireError::BadReserved(reserved));
        }
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversized {
                len,
                max: MAX_PAYLOAD,
            });
        }
        let rest_len = len as usize + TRAILER_LEN;
        let mut frame = Vec::with_capacity(HEADER_LEN + rest_len);
        frame.extend_from_slice(&header);
        frame.resize(HEADER_LEN + rest_len, 0);
        #[expect(
            clippy::indexing_slicing,
            reason = "frame was just resized past HEADER_LEN"
        )]
        read_exact_or_truncated(r, &mut frame[HEADER_LEN..], false)?;
        Self::from_bytes(&frame)
    }
}

/// Splits a raw 12-byte header into its fields without validating them.
fn parse_header(header: &[u8]) -> Result<([u8; 4], u16, u8, u8, u32), WireError> {
    let magic = le4(header.get(0..4).unwrap_or_default())?;
    let version = u16::from_le_bytes(le2(header.get(4..6).unwrap_or_default())?);
    let opcode = header.get(6).copied().unwrap_or(0);
    let reserved = header.get(7).copied().unwrap_or(0);
    let len = u32::from_le_bytes(le4(header.get(8..12).unwrap_or_default())?);
    Ok((magic, version, opcode, reserved, len))
}

/// `read_exact` with the error vocabulary of this protocol: a clean EOF
/// at a frame boundary (`at_boundary`) is an I/O-level "connection
/// closed"; an EOF mid-frame is [`WireError::Truncated`].
fn read_exact_or_truncated(
    r: &mut impl std::io::Read,
    buf: &mut [u8],
    at_boundary: bool,
) -> Result<(), WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        #[expect(
            clippy::indexing_slicing,
            reason = "the loop runs while filled < buf.len()"
        )]
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if at_boundary && filled == 0 {
                    return Err(WireError::Io("connection closed".to_string()));
                }
                return Err(WireError::Truncated {
                    needed: buf.len(),
                    got: filled,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::from(e)),
        }
    }
    Ok(())
}

fn le2(bytes: &[u8]) -> Result<[u8; 2], WireError> {
    <[u8; 2]>::try_from(bytes).map_err(|_| WireError::Truncated {
        needed: 2,
        got: bytes.len(),
    })
}

fn le4(bytes: &[u8]) -> Result<[u8; 4], WireError> {
    <[u8; 4]>::try_from(bytes).map_err(|_| WireError::Truncated {
        needed: 4,
        got: bytes.len(),
    })
}

// ---------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u16` (LE).
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` (LE).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` (LE).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its LE bit pattern (exact round-trip).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a string as `u16 LE length + UTF-8 bytes`.
///
/// Strings longer than `u16::MAX` bytes are truncated at the limit (no
/// table name or reason string comes close).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(usize::from(u16::MAX));
    // Floor guarantees the cast: len <= u16::MAX.
    put_u16(out, u16::try_from(len).unwrap_or(u16::MAX));
    #[expect(clippy::indexing_slicing, reason = "len <= bytes.len()")]
    out.extend_from_slice(&bytes[..len]);
}

/// Sequential reader over a payload with typed, bounds-checked accessors.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Starts reading at the beginning of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated {
            needed: usize::MAX,
            got: self.buf.len(),
        })?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated {
            needed: end,
            got: self.buf.len(),
        })?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    /// [`WireError::Truncated`] past the end of the payload.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    /// Reads a `u16` (LE).
    ///
    /// # Errors
    /// [`WireError::Truncated`] past the end of the payload.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(le2(self.take(2)?)?))
    }

    /// Reads a `u32` (LE).
    ///
    /// # Errors
    /// [`WireError::Truncated`] past the end of the payload.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(le4(self.take(4)?)?))
    }

    /// Reads a `u64` (LE).
    ///
    /// # Errors
    /// [`WireError::Truncated`] past the end of the payload.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let raw = self.take(8)?;
        let bytes = <[u8; 8]>::try_from(raw).map_err(|_| WireError::Truncated {
            needed: 8,
            got: raw.len(),
        })?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads an `f64` from its LE bit pattern.
    ///
    /// # Errors
    /// [`WireError::Truncated`] past the end of the payload.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        let raw = self.take(8)?;
        let bits = <[u8; 8]>::try_from(raw).map_err(|_| WireError::Truncated {
            needed: 8,
            got: raw.len(),
        })?;
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    /// Reads a string (`u16 LE length + UTF-8`).
    ///
    /// # Errors
    /// [`WireError::Truncated`] past the end, [`WireError::BadPayload`]
    /// on invalid UTF-8.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::BadPayload(format!("invalid UTF-8 in string field: {e}")))
    }

    /// Asserts the payload was fully consumed.
    ///
    /// # Errors
    /// [`WireError::BadPayload`] when trailing bytes remain.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::BadPayload(format!(
                "{} trailing byte(s) after the last field",
                self.buf.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn frame_round_trips() {
        let f = Frame::request(Opcode::Estimate, b"hello".to_vec());
        let bytes = f.to_bytes();
        assert_eq!(Frame::from_bytes(&bytes).unwrap(), f);
        assert_eq!(bytes.len(), HEADER_LEN + 5 + TRAILER_LEN);
    }

    #[test]
    fn every_corruption_is_typed() {
        let clean = Frame::request(Opcode::Ping, vec![1, 2, 3]).to_bytes();

        let mut bad_magic = clean.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Frame::from_bytes(&bad_magic),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = clean.clone();
        bad_version[4] = 99;
        assert!(matches!(
            Frame::from_bytes(&bad_version),
            Err(WireError::UnsupportedVersion(_))
        ));

        let mut oversized = clean.clone();
        oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::from_bytes(&oversized),
            Err(WireError::Oversized { .. })
        ));

        let truncated = &clean[..clean.len() - 3];
        assert!(matches!(
            Frame::from_bytes(truncated),
            Err(WireError::Truncated { .. })
        ));

        let mut flipped = clean.clone();
        let mid = HEADER_LEN + 1;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            Frame::from_bytes(&flipped),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn read_from_rejects_oversized_before_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.push(Opcode::Ping.code());
        bytes.push(0);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = bytes.as_slice();
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn read_from_clean_eof_is_connection_closed() {
        let mut empty: &[u8] = &[];
        match Frame::read_from(&mut empty) {
            Err(WireError::Io(msg)) => assert!(msg.contains("closed"), "{msg}"),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn read_from_mid_frame_eof_is_truncated() {
        let full = Frame::request(Opcode::Tables, vec![7; 40]).to_bytes();
        let mut cut = &full[..HEADER_LEN + 10];
        assert!(matches!(
            Frame::read_from(&mut cut),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn payload_primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 9);
        put_u16(&mut buf, 513);
        put_f64(&mut buf, -0.125);
        put_str(&mut buf, "scrc with ünïcode");
        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 9);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.str().unwrap(), "scrc with ünïcode");
        r.finish().unwrap();
    }

    #[test]
    fn f64_bit_patterns_are_exact() {
        for v in [f64::NAN, f64::INFINITY, -0.0, 1.0e-300, 123.456] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let got = PayloadReader::new(&buf).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 1);
        put_u8(&mut buf, 2);
        let mut r = PayloadReader::new(&buf);
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(WireError::BadPayload(_))));
    }

    #[test]
    fn truncated_string_is_typed() {
        let mut buf = Vec::new();
        put_u16(&mut buf, 100); // claims 100 bytes, provides none
        let mut r = PayloadReader::new(&buf);
        assert!(matches!(r.str(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn opcodes_round_trip_and_stay_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_code(op.code()), Some(op));
            assert!(seen.insert(op.code()), "duplicate opcode byte");
            assert_eq!(op.response() & RESPONSE_BIT, RESPONSE_BIT);
        }
        assert_eq!(Opcode::from_code(0x42), None);
    }

    #[test]
    fn status_codes_have_names() {
        for code in 0..=8u8 {
            assert_ne!(status::name(code), "unknown", "code {code}");
        }
        assert_eq!(status::name(200), "unknown");
    }

    #[test]
    fn u64_round_trips() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX - 7);
        put_u64(&mut buf, 0);
        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.u64().unwrap(), 0);
        r.finish().unwrap();
        assert!(matches!(
            PayloadReader::new(&buf[..5]).u64(),
            Err(WireError::Truncated { .. })
        ));
    }
}
