//! The frame codec: length-prefixed, versioned binary frames.
//!
//! Wire layout (all integers big-endian):
//!
//! ```text
//! frame   := len:u32  payload            len = payload length in bytes
//! payload := version:u8  kind:u8  body   version is WIRE_VERSION (1)
//! string  := len:u32  utf8-bytes
//! ```
//!
//! The codec is *strict*: a frame longer than the negotiated maximum,
//! an unknown version or kind, a string that overruns the payload,
//! invalid UTF-8, and trailing bytes after the body are all decode
//! errors with stable [`ErrorCode`]s — never panics, and never silent
//! truncation. Because every frame is bounded by its length prefix up
//! front, a malformed body can only ever poison its own frame.

use std::io::{Read, Write};
use up_engine::{Column, Rows};
use up_server::ServerError;

/// Protocol version carried in every frame.
pub const WIRE_VERSION: u8 = 1;

/// Default cap on a single frame's payload (1 MiB).
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Stable wire error codes. The numeric values are the protocol
/// contract — never renumber, only append.
///
/// Codes 1–6 map the [`ServerError`] variants one-to-one; codes ≥ 10
/// are protocol/quota conditions produced by the wire layer itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Admission control bounced the query (`ServerError::Rejected`).
    Rejected = 1,
    /// The session is gone (`ServerError::UnknownSession`) — e.g. it
    /// was reaped while the query sat in the queue.
    UnknownSession = 2,
    /// The server-side wait deadline expired (`ServerError::Timeout`).
    Timeout = 3,
    /// The query was canceled before execution (`ServerError::Canceled`).
    Canceled = 4,
    /// The server shut down before answering (`ServerError::Shutdown`).
    Shutdown = 5,
    /// The engine executed the query and failed (`ServerError::Query`);
    /// the frame's message carries the engine error text.
    QueryFailed = 6,
    /// Executing the query panicked (`ServerError::Internal`); the
    /// worker survived and the frame's message carries the panic text.
    Internal = 7,

    /// Malformed frame: truncated body, trailing bytes, bad UTF-8, an
    /// unknown kind, or a length that overruns the payload.
    BadFrame = 10,
    /// The frame's version byte is not [`WIRE_VERSION`].
    BadVersion = 11,
    /// The length prefix exceeds the negotiated maximum frame size.
    FrameTooLarge = 12,
    /// The frame is not legal in the connection's current handshake
    /// state (e.g. `Query` before `Auth`).
    BadState = 13,
    /// Unknown tenant or wrong token.
    Unauthorized = 20,
    /// The connection already has the maximum in-flight queries.
    TooManyInflight = 21,
    /// The tenant's token-bucket rate limit is exhausted (throttled).
    RateLimited = 22,
    /// The tenant is at its max-concurrent-queries quota.
    TenantConcurrency = 23,
    /// The tenant's cumulative result-byte budget is spent.
    ByteBudgetExceeded = 24,
    /// The server is at its connection cap.
    ConnLimit = 25,
    /// The connection sat idle past the server's idle timeout.
    IdleTimeout = 26,
    /// The peer stopped reading: its bounded outbound queue overflowed
    /// ([`NetConfig::max_write_buf`](crate::NetConfig::max_write_buf)),
    /// so the server dropped the connection instead of buffering
    /// without bound.
    SlowConsumer = 27,
}

impl ErrorCode {
    /// The stable numeric code.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a numeric code; `None` for codes this build doesn't know
    /// (forward compatibility: treat as an opaque failure).
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match v {
            1 => Rejected,
            2 => UnknownSession,
            3 => Timeout,
            4 => Canceled,
            5 => Shutdown,
            6 => QueryFailed,
            7 => Internal,
            10 => BadFrame,
            11 => BadVersion,
            12 => FrameTooLarge,
            13 => BadState,
            20 => Unauthorized,
            21 => TooManyInflight,
            22 => RateLimited,
            23 => TenantConcurrency,
            24 => ByteBudgetExceeded,
            25 => ConnLimit,
            26 => IdleTimeout,
            27 => SlowConsumer,
            _ => return None,
        })
    }

    /// The wire code for a server-side failure. Exhaustive over
    /// [`ServerError`] — adding a variant there is a compile error here
    /// until it gets a stable code.
    pub fn from_server_error(e: &ServerError) -> ErrorCode {
        match e {
            ServerError::Rejected { .. } => ErrorCode::Rejected,
            ServerError::UnknownSession(_) => ErrorCode::UnknownSession,
            ServerError::Timeout { .. } => ErrorCode::Timeout,
            ServerError::Canceled => ErrorCode::Canceled,
            ServerError::Shutdown => ErrorCode::Shutdown,
            ServerError::Query(_) => ErrorCode::QueryFailed,
            ServerError::Internal(_) => ErrorCode::Internal,
        }
    }
}

impl core::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}({})", self.as_u16())
    }
}

/// One protocol frame. `id` fields correlate queries with their
/// replies: a connection may have several queries in flight and replies
/// arrive in completion order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Handshake opener; each side advertises its limits.
    Hello {
        /// Largest frame payload the sender will accept.
        max_frame: u32,
        /// Most in-flight queries the sender allows per connection.
        max_inflight: u32,
    },
    /// Tenant credentials (client → server, after `Hello`).
    Auth {
        /// Tenant name.
        tenant: String,
        /// Shared-secret token.
        token: String,
    },
    /// Successful auth (server → client); the connection is now bound
    /// to one `up-server` session.
    AuthOk {
        /// The server-side session id backing this connection.
        session: u64,
    },
    /// Submit a query (client → server).
    Query {
        /// Client-chosen correlation id (nonzero).
        id: u64,
        /// SQL text.
        sql: String,
    },
    /// Cancel an in-flight query by id (client → server, best-effort).
    Cancel {
        /// The id of the query to cancel.
        id: u64,
    },
    /// A successful result (server → client): column names plus rows of
    /// cells rendered exactly as `Value::render` — bit-identical to an
    /// in-process query's rendering. This is the *decoded* form a client
    /// holds; a server writes the same bytes with [`encode_rows`], from
    /// the result's columns, without building one.
    Rows {
        /// Correlation id of the query this answers.
        id: u64,
        /// Output column names.
        columns: Vec<String>,
        /// Rendered cells, one `Vec<String>` per row (rectangular).
        rows: Vec<Vec<String>>,
    },
    /// A failure (server → client). `id` is 0 for connection-level
    /// errors (bad frame, handshake violations, idle timeout).
    Error {
        /// Correlation id, or 0 for connection-level errors.
        id: u64,
        /// Stable [`ErrorCode`] value.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Metrics exchange: a client sends an empty report to request, the
    /// server replies with the rendered text report.
    Metrics {
        /// Empty in requests; the server's text report in replies.
        report: String,
    },
    /// Orderly close; each side sends one before disconnecting.
    Goodbye,
}

const KIND_HELLO: u8 = 1;
const KIND_AUTH: u8 = 2;
const KIND_AUTH_OK: u8 = 3;
const KIND_QUERY: u8 = 4;
const KIND_CANCEL: u8 = 5;
const KIND_ROWS: u8 = 6;
const KIND_ERROR: u8 = 7;
const KIND_METRICS: u8 = 8;
const KIND_GOODBYE: u8 = 9;

/// A decode failure: the stable code to answer with plus detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Which protocol error this is.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for DecodeError {}

fn bad(message: impl Into<String>) -> DecodeError {
    DecodeError { code: ErrorCode::BadFrame, message: message.into() }
}

/// Anything that can go wrong on a wire endpoint.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure (includes unexpected EOF mid-frame).
    Io(std::io::Error),
    /// The peer sent bytes this codec rejects.
    Decode(DecodeError),
    /// The peer answered with an `Error` frame.
    Remote {
        /// Correlation id the error answers (0 = connection-level).
        id: u64,
        /// The wire error code (decode with [`ErrorCode::from_u16`]).
        code: u16,
        /// The peer's message.
        message: String,
    },
    /// The peer sent a legal frame that makes no sense here (e.g. rows
    /// for a query never submitted).
    Protocol(String),
}

impl WireError {
    /// The remote [`ErrorCode`], when this is a decoded `Error` frame.
    pub fn remote_code(&self) -> Option<ErrorCode> {
        match self {
            WireError::Remote { code, .. } => ErrorCode::from_u16(*code),
            _ => None,
        }
    }
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Decode(e) => write!(f, "decode: {e}"),
            WireError::Remote { id, code, message } => match ErrorCode::from_u16(*code) {
                Some(c) => write!(f, "remote error for id {id}: {c}: {message}"),
                None => write!(f, "remote error for id {id}: code {code}: {message}"),
            },
            WireError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A `Rows` body up to its cells: kind, id, column names, row count.
fn put_rows_head(out: &mut Vec<u8>, id: u64, columns: &[String], nrows: usize) {
    out.push(KIND_ROWS);
    put_u64(out, id);
    put_u32(out, columns.len() as u32);
    for c in columns {
        put_str(out, c);
    }
    put_u32(out, nrows as u32);
}

/// Encodes the `Rows` reply to query `id` from a columnar result: byte for
/// byte `Frame::Rows { id, columns, rows }.to_bytes()` with every cell
/// rendered, but each cell's text is written once, into its place in one
/// buffer sized for the reply — a length slot, the digits appended from
/// the compact bytes, the slot back-patched.
///
/// Returns the frame and the summed cell text length (the tenant's result
/// bytes); or, once the payload passes `max_frame`, the size reached — the
/// peer's decoder would refuse that frame.
pub fn encode_rows(
    id: u64,
    columns: &[String],
    rows: &Rows,
    max_frame: u32,
) -> Result<(Vec<u8>, u64), usize> {
    let cols = rows.columns();
    let limit = max_frame as usize + 4;
    // A decimal cell is at most its precision plus sign, point and a
    // leading zero, and usually close to it.
    let cell = |c: &Column<'_>| match c {
        Column::Decimal { ty, .. } => 7 + ty.precision as usize,
        Column::Values(_) => 16,
    };
    let per_row: usize = cols.iter().map(cell).sum();
    let head = 22 + columns.iter().map(|c| 4 + c.len()).sum::<usize>();
    let mut out = Vec::with_capacity((head + rows.len() * per_row).min(limit));
    put_u32(&mut out, 0); // patched below
    out.push(WIRE_VERSION);
    put_rows_head(&mut out, id, columns, rows.len());
    let mut text = 0u64;
    for i in rows.row_ids() {
        if out.len() > limit {
            break; // refused below; render no further
        }
        for col in cols {
            let slot = out.len();
            put_u32(&mut out, 0);
            col.append_cell(i, &mut out);
            let len = out.len() - slot - 4;
            out[slot..slot + 4].copy_from_slice(&(len as u32).to_be_bytes());
            text += len as u64;
        }
    }
    if out.len() > limit {
        return Err(out.len() - 4);
    }
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_be_bytes());
    Ok((out, text))
}

/// Bounds-checked cursor over one frame's payload.
struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.b.len() - self.pos < n {
            return Err(bad(format!(
                "truncated body: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.b.len() - self.pos
            )));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string is not valid UTF-8"))
    }

    /// An element count, sanity-bounded by the bytes actually left
    /// (every element costs ≥ `min_elem` bytes) so a hostile count
    /// can't force a huge preallocation.
    fn count(&mut self, min_elem: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        let room = (self.b.len() - self.pos) / min_elem.max(1);
        if n > room {
            return Err(bad(format!("count {n} exceeds remaining payload (max {room})")));
        }
        Ok(n)
    }

    fn done(&self) -> Result<(), DecodeError> {
        if self.pos != self.b.len() {
            return Err(bad(format!("{} trailing bytes after body", self.b.len() - self.pos)));
        }
        Ok(())
    }
}

impl Frame {
    /// Appends the full frame (length prefix + payload) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        put_u32(out, 0); // patched below
        out.push(WIRE_VERSION);
        match self {
            Frame::Hello { max_frame, max_inflight } => {
                out.push(KIND_HELLO);
                put_u32(out, *max_frame);
                put_u32(out, *max_inflight);
            }
            Frame::Auth { tenant, token } => {
                out.push(KIND_AUTH);
                put_str(out, tenant);
                put_str(out, token);
            }
            Frame::AuthOk { session } => {
                out.push(KIND_AUTH_OK);
                put_u64(out, *session);
            }
            Frame::Query { id, sql } => {
                out.push(KIND_QUERY);
                put_u64(out, *id);
                put_str(out, sql);
            }
            Frame::Cancel { id } => {
                out.push(KIND_CANCEL);
                put_u64(out, *id);
            }
            Frame::Rows { id, columns, rows } => {
                put_rows_head(out, *id, columns, rows.len());
                for row in rows {
                    for cell in row {
                        put_str(out, cell);
                    }
                }
            }
            Frame::Error { id, code, message } => {
                out.push(KIND_ERROR);
                put_u64(out, *id);
                out.extend_from_slice(&code.to_be_bytes());
                put_str(out, message);
            }
            Frame::Metrics { report } => {
                out.push(KIND_METRICS);
                put_str(out, report);
            }
            Frame::Goodbye => out.push(KIND_GOODBYE),
        }
        let len = (out.len() - start - 4) as u32;
        out[start..start + 4].copy_from_slice(&len.to_be_bytes());
    }

    /// The encoded frame as a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes one payload (the bytes *after* the length prefix).
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, DecodeError> {
        let mut c = Cur { b: payload, pos: 0 };
        let version = c.u8().map_err(|_| bad("empty payload"))?;
        if version != WIRE_VERSION {
            return Err(DecodeError {
                code: ErrorCode::BadVersion,
                message: format!("version {version}, this end speaks {WIRE_VERSION}"),
            });
        }
        let kind = c.u8().map_err(|_| bad("payload has no kind byte"))?;
        let frame = match kind {
            KIND_HELLO => Frame::Hello { max_frame: c.u32()?, max_inflight: c.u32()? },
            KIND_AUTH => Frame::Auth { tenant: c.str()?, token: c.str()? },
            KIND_AUTH_OK => Frame::AuthOk { session: c.u64()? },
            KIND_QUERY => Frame::Query { id: c.u64()?, sql: c.str()? },
            KIND_CANCEL => Frame::Cancel { id: c.u64()? },
            KIND_ROWS => {
                let id = c.u64()?;
                let ncols = c.count(4)?;
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(c.str()?);
                }
                let nrows = c.count(4.max(4 * ncols))?;
                let mut rows = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    let mut row = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        row.push(c.str()?);
                    }
                    rows.push(row);
                }
                Frame::Rows { id, columns, rows }
            }
            KIND_ERROR => Frame::Error { id: c.u64()?, code: c.u16()?, message: c.str()? },
            KIND_METRICS => Frame::Metrics { report: c.str()? },
            KIND_GOODBYE => Frame::Goodbye,
            other => return Err(bad(format!("unknown frame kind {other}"))),
        };
        c.done()?;
        Ok(frame)
    }
}

/// Tries to parse one complete frame from the front of `buf`.
///
/// Returns `Ok(None)` when more bytes are needed, or `Ok(Some((consumed,
/// frame)))` — the caller drains `consumed` bytes. A length prefix over
/// `max_frame` or a payload that fails to decode is an error; the length
/// prefix itself stays trustworthy, so the caller can choose to answer
/// and resynchronize or close.
pub fn parse_frame(buf: &[u8], max_frame: u32) -> Result<Option<(usize, Frame)>, DecodeError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if len > max_frame as usize {
        return Err(DecodeError {
            code: ErrorCode::FrameTooLarge,
            message: format!("frame payload of {len} bytes exceeds limit {max_frame}"),
        });
    }
    if len < 2 {
        return Err(bad(format!("frame payload of {len} bytes is below the 2-byte header")));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let frame = Frame::decode_payload(&buf[4..4 + len])?;
    Ok(Some((4 + len, frame)))
}

/// Resumable frame decoder: feed it byte chunks as they arrive (in any
/// split — a nonblocking read may deliver half a length prefix), pull
/// complete frames off the front. This is the one reassembly path both
/// wire modes share, so a frame split across reads can never
/// desynchronize the stream in either.
///
/// After a [`DecodeError`] the stream is untrustworthy; the caller
/// answers with the stable code and closes (the assembler keeps
/// returning the same error).
#[derive(Debug, Default)]
pub struct FrameAssembler {
    acc: Vec<u8>,
}

impl FrameAssembler {
    /// New empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Appends newly-read bytes to the accumulator.
    pub fn push(&mut self, bytes: &[u8]) {
        self.acc.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are
    /// needed. Call in a loop — one `push` may complete several frames.
    pub fn next_frame(&mut self, max_frame: u32) -> Result<Option<Frame>, DecodeError> {
        match parse_frame(&self.acc, max_frame)? {
            None => Ok(None),
            Some((consumed, frame)) => {
                self.acc.drain(..consumed);
                Ok(Some(frame))
            }
        }
    }

    /// Bytes buffered but not yet forming a complete frame.
    pub fn pending(&self) -> usize {
        self.acc.len()
    }
}

/// Blocking read of exactly one frame. `Ok(None)` on clean EOF at a
/// frame boundary; EOF mid-frame is an [`WireError::Io`] error.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Option<Frame>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_frame as usize {
        return Err(WireError::Decode(DecodeError {
            code: ErrorCode::FrameTooLarge,
            message: format!("frame payload of {len} bytes exceeds limit {max_frame}"),
        }));
    }
    if len < 2 {
        return Err(WireError::Decode(bad(format!(
            "frame payload of {len} bytes is below the 2-byte header"
        ))));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(WireError::Io)?;
    Ok(Some(Frame::decode_payload(&payload)?))
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = f.to_bytes();
        let (consumed, got) = parse_frame(&bytes, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(got, f);
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip(Frame::Hello { max_frame: 1 << 20, max_inflight: 8 });
        roundtrip(Frame::Auth { tenant: "acme".into(), token: "s3cret".into() });
        roundtrip(Frame::AuthOk { session: 42 });
        roundtrip(Frame::Query { id: 7, sql: "SELECT x + x FROM t".into() });
        roundtrip(Frame::Cancel { id: 7 });
        roundtrip(Frame::Rows {
            id: 7,
            columns: vec!["a".into(), "b".into()],
            rows: vec![
                vec!["1.25".into(), "-3".into()],
                vec!["".into(), "µ-unicode".into()],
            ],
        });
        roundtrip(Frame::Error { id: 7, code: 22, message: "slow down".into() });
        roundtrip(Frame::Metrics { report: String::new() });
        roundtrip(Frame::Metrics { report: "== up-server metrics ==\n".into() });
        roundtrip(Frame::Goodbye);
    }

    #[test]
    fn partial_frames_ask_for_more_bytes() {
        let bytes = Frame::Query { id: 1, sql: "SELECT 1".into() }.to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                parse_frame(&bytes[..cut], DEFAULT_MAX_FRAME).unwrap(),
                None,
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn oversized_unknown_and_garbage_are_stable_errors() {
        // Length prefix over the cap.
        let mut b = Vec::new();
        put_u32(&mut b, 100);
        let err = parse_frame(&b, 64).unwrap_err();
        assert_eq!(err.code, ErrorCode::FrameTooLarge);
        // Undersized payload (below the version+kind header).
        let err = parse_frame(&[0, 0, 0, 1, 9], 64).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadFrame);
        // Garbage version byte.
        let err = Frame::decode_payload(&[99, KIND_GOODBYE]).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadVersion);
        // Unknown kind.
        let err = Frame::decode_payload(&[WIRE_VERSION, 200]).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadFrame);
        // Truncated string.
        let mut p = vec![WIRE_VERSION, KIND_METRICS];
        put_u32(&mut p, 10); // claims 10 bytes, has none
        assert_eq!(Frame::decode_payload(&p).unwrap_err().code, ErrorCode::BadFrame);
        // Trailing bytes.
        let mut p = vec![WIRE_VERSION, KIND_GOODBYE];
        p.push(0);
        assert_eq!(Frame::decode_payload(&p).unwrap_err().code, ErrorCode::BadFrame);
        // Hostile row count cannot force a huge preallocation.
        let mut p = vec![WIRE_VERSION, KIND_ROWS];
        put_u64(&mut p, 1);
        put_u32(&mut p, u32::MAX); // ncols
        assert_eq!(Frame::decode_payload(&p).unwrap_err().code, ErrorCode::BadFrame);
    }

    #[test]
    fn error_codes_are_stable_and_cover_every_server_error() {
        use up_engine::QueryError;
        // The numeric contract.
        for (code, v) in [
            (ErrorCode::Rejected, 1),
            (ErrorCode::UnknownSession, 2),
            (ErrorCode::Timeout, 3),
            (ErrorCode::Canceled, 4),
            (ErrorCode::Shutdown, 5),
            (ErrorCode::QueryFailed, 6),
            (ErrorCode::Internal, 7),
            (ErrorCode::BadFrame, 10),
            (ErrorCode::BadVersion, 11),
            (ErrorCode::FrameTooLarge, 12),
            (ErrorCode::BadState, 13),
            (ErrorCode::Unauthorized, 20),
            (ErrorCode::TooManyInflight, 21),
            (ErrorCode::RateLimited, 22),
            (ErrorCode::TenantConcurrency, 23),
            (ErrorCode::ByteBudgetExceeded, 24),
            (ErrorCode::ConnLimit, 25),
            (ErrorCode::IdleTimeout, 26),
            (ErrorCode::SlowConsumer, 27),
        ] {
            assert_eq!(code.as_u16(), v);
            assert_eq!(ErrorCode::from_u16(v), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(999), None);
        // Every ServerError variant maps.
        let errs = [
            ServerError::Rejected { queue_depth: 1, retry_after_s: 0.1 },
            ServerError::UnknownSession(up_server::SessionId(3)),
            ServerError::Timeout { after_s: 1.0 },
            ServerError::Canceled,
            ServerError::Shutdown,
            ServerError::Query(QueryError::Unsupported("x".into())),
            ServerError::Internal("x".into()),
        ];
        let codes: Vec<u16> =
            errs.iter().map(|e| ErrorCode::from_server_error(e).as_u16()).collect();
        assert_eq!(codes, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn assembler_resumes_across_arbitrary_splits() {
        let frames = [
            Frame::Hello { max_frame: 1 << 20, max_inflight: 8 },
            Frame::Query { id: 3, sql: "SELECT SUM(x) FROM t".into() },
            Frame::Goodbye,
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode(&mut bytes);
        }
        // Feed one byte at a time: every frame must still pop exactly
        // once, in order, with nothing left pending.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for b in &bytes {
            asm.push(std::slice::from_ref(b));
            while let Some(f) = asm.next_frame(DEFAULT_MAX_FRAME).unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(asm.pending(), 0);
        // A poisoned stream keeps returning the same stable error.
        let mut asm = FrameAssembler::new();
        asm.push(&u32::MAX.to_be_bytes());
        assert_eq!(asm.next_frame(64).unwrap_err().code, ErrorCode::FrameTooLarge);
        assert_eq!(asm.next_frame(64).unwrap_err().code, ErrorCode::FrameTooLarge);
    }

    #[test]
    fn read_frame_handles_eof_and_streams() {
        let mut bytes = Frame::Goodbye.to_bytes();
        bytes.extend(Frame::Cancel { id: 9 }.to_bytes());
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), Some(Frame::Goodbye));
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), Some(Frame::Cancel { id: 9 }));
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), None, "clean EOF");
        // EOF mid-frame is an IO error, not a hang or a panic.
        let mut cursor = std::io::Cursor::new(vec![0u8, 0, 0, 50, 1]);
        assert!(matches!(read_frame(&mut cursor, 64).unwrap_err(), WireError::Io(_)));
    }
}
