//! The wire protocol: length-prefixed binary frames.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by that many payload bytes. Payloads are encoded with the
//! bounds-checked [`Encoder`]/[`Decoder`] pair from `holistic-persist` —
//! the same codec the snapshot and WAL formats use — so a truncated or
//! corrupted frame decodes to a typed [`PersistError::Corrupt`], never a
//! garbage message. The first byte of every payload is a message tag.
//!
//! Client → server:
//!
//! | Tag | Message | Fields |
//! |----:|---------|--------|
//! | 1 | [`Request::Hello`] | `client: u64` — tenant identity for fair scheduling |
//! | 2 | [`Request::Query`] | see [`QueryReq`] |
//!
//! Server → client: one [`ResponseFrame`] per admitted or rejected query,
//! carrying the query's `request_id` and either results or a typed shed
//! status — the exactly-one-response contract the service enforces.
//!
//! [`PersistError::Corrupt`]: holistic_persist::PersistError

use std::io::{self, Read, Write};

use holistic_core::{HolisticError, QueryResult};
use holistic_persist::{Decoder, Encoder, PersistError};
use holistic_storage::{ColumnId, TableId};

/// Upper bound on a frame payload. A frame header claiming more than this
/// is treated as protocol corruption instead of an allocation request —
/// a garbage or hostile length prefix must not OOM the server.
pub const MAX_FRAME: usize = 1 << 26;

const TAG_HELLO: u8 = 1;
const TAG_QUERY: u8 = 2;
const TAG_RESPONSE: u8 = 3;

fn oversize(kind: io::ErrorKind) -> io::Error {
    io::Error::new(kind, "frame length exceeds MAX_FRAME")
}

/// Appends one length-prefixed frame to `wire`.
pub(crate) fn put_frame(wire: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(oversize(io::ErrorKind::InvalidInput));
    }
    wire.reserve(4 + payload.len());
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(payload);
    Ok(())
}

/// Writes one length-prefixed frame — header and payload in a single
/// write, so an unbuffered socket sends one segment — and flushes the
/// stream.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut wire = Vec::new();
    put_frame(&mut wire, payload)?;
    w.write_all(&wire)?;
    w.flush()
}

/// The payload of the frame at the start of `wire`, if all of it has
/// arrived; the frame occupies `4 + payload.len()` bytes. A header
/// claiming more than [`MAX_FRAME`] is an error before any of the payload
/// is waited for.
pub(crate) fn first_frame(wire: &[u8]) -> io::Result<Option<&[u8]>> {
    let Some((header, rest)) = wire.split_first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*header) as usize;
    if len > MAX_FRAME {
        return Err(oversize(io::ErrorKind::InvalidData));
    }
    Ok(rest.get(..len))
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); EOF *inside* a frame — a torn frame — surfaces as
/// [`io::ErrorKind::UnexpectedEof`] so callers can tell the two apart.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    // Read the first header byte by hand: EOF here is a clean close.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    len[0] = first[0];
    r.read_exact(&mut len[1..])?;
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(oversize(io::ErrorKind::InvalidData));
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// One query as submitted on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryReq {
    /// Client-chosen id echoed on the response; the client's correlation
    /// key for pipelined queries.
    pub request_id: u64,
    /// The queried column.
    pub column: ColumnId,
    /// Inclusive lower predicate bound.
    pub lo: i64,
    /// Exclusive upper predicate bound.
    pub hi: i64,
    /// Whether to return the qualifying values, not just count/sum.
    pub materialize: bool,
    /// Per-query deadline in milliseconds from admission; `0` means "use
    /// the server's configured default".
    pub deadline_ms: u32,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// The mandatory first message of a connection: who is asking.
    Hello {
        /// Tenant identity; admission fairness (token buckets, per-client
        /// queue bounds) is keyed by this id.
        client: u64,
    },
    /// A range query.
    Query(QueryReq),
}

impl Request {
    /// Encodes the request into a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Request::Hello { client } => {
                e.put_u8(TAG_HELLO);
                e.put_u64(*client);
            }
            Request::Query(q) => {
                e.put_u8(TAG_QUERY);
                e.put_u64(q.request_id);
                e.put_u32(q.column.table.0);
                e.put_u32(q.column.column);
                e.put_i64(q.lo);
                e.put_i64(q.hi);
                e.put_bool(q.materialize);
                e.put_u32(q.deadline_ms);
            }
        }
        e.into_bytes()
    }

    /// Decodes a frame payload into a request.
    pub fn decode(buf: &[u8]) -> Result<Request, PersistError> {
        let mut d = Decoder::new(buf);
        let req = match d.take_u8()? {
            TAG_HELLO => Request::Hello {
                client: d.take_u64()?,
            },
            TAG_QUERY => Request::Query(QueryReq {
                request_id: d.take_u64()?,
                column: ColumnId::new(TableId(d.take_u32()?), d.take_u32()?),
                lo: d.take_i64()?,
                hi: d.take_i64()?,
                materialize: d.take_bool()?,
                deadline_ms: d.take_u32()?,
            }),
            tag => {
                return Err(PersistError::Corrupt(format!(
                    "unknown request tag {tag:#x}"
                )))
            }
        };
        d.finish()?;
        Ok(req)
    }
}

/// The typed outcome of a query, as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RespStatus {
    /// The query executed; `count`/`sum`/`values` are valid.
    Ok = 0,
    /// Shed at admission: a bounded queue was full or a rate limit fired.
    /// `detail` names the rejecting queue (`"global"` or the client).
    Overloaded = 1,
    /// Shed because the deadline expired before execution.
    DeadlineExceeded = 2,
    /// Abandoned because the owning connection dropped.
    Cancelled = 3,
    /// Any other engine error; `detail` carries the display string.
    Error = 4,
}

impl RespStatus {
    fn from_u8(v: u8) -> Result<Self, PersistError> {
        match v {
            0 => Ok(RespStatus::Ok),
            1 => Ok(RespStatus::Overloaded),
            2 => Ok(RespStatus::DeadlineExceeded),
            3 => Ok(RespStatus::Cancelled),
            4 => Ok(RespStatus::Error),
            b => Err(PersistError::Corrupt(format!(
                "unknown response status {b:#x}"
            ))),
        }
    }

    /// Whether this status is a typed load shed (the query was never
    /// executed, not even partially, and is safe to retry).
    #[must_use]
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            RespStatus::Overloaded | RespStatus::DeadlineExceeded | RespStatus::Cancelled
        )
    }
}

/// A server → client message: the response to exactly one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFrame {
    /// Echo of the query's `request_id`.
    pub request_id: u64,
    /// The typed outcome.
    pub status: RespStatus,
    /// Number of qualifying rows (0 unless `status == Ok`).
    pub count: u64,
    /// Sum of qualifying values (0 unless `status == Ok`).
    pub sum: i128,
    /// Qualifying values, when the query asked for materialization.
    pub values: Option<Vec<i64>>,
    /// Human-readable detail for `Overloaded`/`Error` statuses.
    pub detail: String,
}

impl ResponseFrame {
    /// Builds the wire response for an engine-side result.
    #[must_use]
    pub fn from_result(request_id: u64, result: &Result<QueryResult, HolisticError>) -> Self {
        match result {
            Ok(r) => ResponseFrame {
                request_id,
                status: RespStatus::Ok,
                count: r.count,
                sum: r.sum,
                values: r.values.clone(),
                detail: String::new(),
            },
            Err(e) => {
                let status = match e {
                    HolisticError::Overloaded(_) => RespStatus::Overloaded,
                    HolisticError::DeadlineExceeded => RespStatus::DeadlineExceeded,
                    HolisticError::Cancelled => RespStatus::Cancelled,
                    _ => RespStatus::Error,
                };
                let detail = match e {
                    HolisticError::Overloaded(queue) => queue.clone(),
                    HolisticError::DeadlineExceeded | HolisticError::Cancelled => String::new(),
                    other => other.to_string(),
                };
                ResponseFrame {
                    request_id,
                    status,
                    count: 0,
                    sum: 0,
                    values: None,
                    detail,
                }
            }
        }
    }

    /// Encodes the response into a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(TAG_RESPONSE);
        e.put_u64(self.request_id);
        e.put_u8(self.status as u8);
        e.put_u64(self.count);
        e.put_i128(self.sum);
        match &self.values {
            Some(vs) => {
                e.put_bool(true);
                e.put_i64_slice(vs);
            }
            None => e.put_bool(false),
        }
        e.put_str(&self.detail);
        e.into_bytes()
    }

    /// Decodes a frame payload into a response.
    pub fn decode(buf: &[u8]) -> Result<ResponseFrame, PersistError> {
        let mut d = Decoder::new(buf);
        let tag = d.take_u8()?;
        if tag != TAG_RESPONSE {
            return Err(PersistError::Corrupt(format!(
                "unknown response tag {tag:#x}"
            )));
        }
        let resp = ResponseFrame {
            request_id: d.take_u64()?,
            status: RespStatus::from_u8(d.take_u8()?)?,
            count: d.take_u64()?,
            sum: d.take_i128()?,
            values: if d.take_bool()? {
                Some(d.take_i64_vec()?)
            } else {
                None
            },
            detail: d.take_str()?,
        };
        d.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> Request {
        Request::Query(QueryReq {
            request_id: 42,
            column: ColumnId::new(TableId(3), 1),
            lo: -100,
            hi: 250,
            materialize: true,
            deadline_ms: 75,
        })
    }

    #[test]
    fn requests_round_trip() {
        for req in [Request::Hello { client: 7 }, sample_query()] {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).expect("decode"), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let ok = ResponseFrame {
            request_id: 9,
            status: RespStatus::Ok,
            count: 3,
            sum: -12,
            values: Some(vec![1, -5, -8]),
            detail: String::new(),
        };
        let shed = ResponseFrame::from_result(10, &Err(HolisticError::Overloaded("global".into())));
        for resp in [ok, shed] {
            let bytes = resp.encode();
            assert_eq!(ResponseFrame::decode(&bytes).expect("decode"), resp);
        }
    }

    #[test]
    fn typed_errors_map_to_typed_statuses() {
        let cases: Vec<(HolisticError, RespStatus)> = vec![
            (
                HolisticError::Overloaded("client 3".into()),
                RespStatus::Overloaded,
            ),
            (
                HolisticError::DeadlineExceeded,
                RespStatus::DeadlineExceeded,
            ),
            (HolisticError::Cancelled, RespStatus::Cancelled),
            (HolisticError::Persist("disk".into()), RespStatus::Error),
        ];
        for (err, status) in cases {
            let frame = ResponseFrame::from_result(1, &Err(err));
            assert_eq!(frame.status, status);
            assert_eq!(frame.status.is_shed(), status != RespStatus::Error);
        }
    }

    #[test]
    fn truncated_payloads_decode_to_typed_corruption() {
        let bytes = sample_query().encode();
        for cut in 0..bytes.len() {
            let err = Request::decode(&bytes[..cut]);
            assert!(err.is_err(), "truncation at {cut} must not decode");
        }
        // Trailing garbage is corruption too, not silently ignored.
        let mut padded = bytes.clone();
        padded.push(0xff);
        assert!(Request::decode(&padded).is_err());
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").expect("write");
        write_frame(&mut wire, b"").expect("write");
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).expect("frame 1"), Some(b"abc".to_vec()));
        assert_eq!(read_frame(&mut r).expect("frame 2"), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).expect("eof"), None);

        // A torn frame (header promises more than the stream holds) is an
        // UnexpectedEof error, not a clean None.
        let mut torn = Vec::new();
        write_frame(&mut torn, b"hello world").expect("write");
        torn.truncate(7);
        let mut r = &torn[..];
        let err = read_frame(&mut r).expect_err("torn frame");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // A hostile length prefix is rejected before allocation.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
        assert!(first_frame(&huge).is_err());
    }

    #[test]
    fn a_frame_is_one_write_and_parses_back_from_a_buffer() {
        struct CountingWriter(Vec<Vec<u8>>);
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountingWriter(Vec::new());
        write_frame(&mut w, b"abc").expect("write");
        assert_eq!(
            w.0,
            vec![b"\x03\0\0\0abc".to_vec()],
            "header and payload together"
        );

        // Two frames and half of a third in one buffer: the complete ones
        // come out in order, the partial one waits for more bytes.
        let mut wire = Vec::new();
        for payload in [&b"abc"[..], b"", b"hello world"] {
            put_frame(&mut wire, payload).expect("frame");
        }
        wire.truncate(wire.len() - 6);
        let mut at = 0;
        let mut seen = Vec::new();
        while let Some(payload) = first_frame(&wire[at..]).expect("well-formed") {
            seen.push(payload.to_vec());
            at += 4 + payload.len();
        }
        assert_eq!(seen, vec![b"abc".to_vec(), Vec::new()]);
        assert_eq!(first_frame(&wire[..2]).expect("short header"), None);
    }
}
