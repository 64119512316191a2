//! The rockserve wire protocol: length-prefixed, versioned JSON frames.
//!
//! Every frame is `[u32 LE payload length][u16 LE protocol version][payload]`,
//! where the payload is the JSON rendering of one [`Request`] or [`Response`].
//! The length is bounded by [`MAX_PAYLOAD_BYTES`] and checked *before* any
//! allocation, so a hostile length prefix cannot balloon memory; a version
//! other than [`PROTOCOL_VERSION`] is rejected before the payload is parsed.
//! Decoding never panics: truncated, oversized, and garbage frames all come
//! back as typed [`WireError`]s, which the server answers with
//! `Response::Error` frames (see [`codes`]) instead of dropping the socket
//! silently.

use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

use pipeline::DashboardCounters;
use serde::{Deserialize, Serialize};

use crate::metrics::MetricsSnapshot;

/// The one protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard payload bound; larger length prefixes are rejected before allocation.
pub const MAX_PAYLOAD_BYTES: u32 = 1 << 20;

/// Frame header: 4 length bytes + 2 version bytes.
pub const HEADER_BYTES: usize = 6;

/// How long a frame may take to arrive once its first byte has. A peer that
/// stalls mid-frame past it gets [`WireError::Truncated`], so the server
/// closes the connection and gives back the frame's share of its budget.
pub const FRAME_DEADLINE: Duration = Duration::from_secs(2);

/// Error codes carried in `Response::Error` frames.
pub mod codes {
    /// The client spoke a protocol version this server does not.
    pub const VERSION_MISMATCH: &str = "version-mismatch";
    /// The payload was not a well-formed request.
    pub const MALFORMED_FRAME: &str = "malformed-frame";
    /// The length prefix exceeded [`super::MAX_PAYLOAD_BYTES`].
    pub const OVERSIZED_FRAME: &str = "oversized-frame";
    /// The connection closed mid-frame.
    pub const TRUNCATED_FRAME: &str = "truncated-frame";
}

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The peer closed the connection, or stalled past [`FRAME_DEADLINE`],
    /// mid-frame.
    Truncated {
        /// Bytes the frame section needed.
        expected: usize,
        /// Bytes actually received before EOF.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD_BYTES`].
    Oversized {
        /// The claimed payload length.
        len: u32,
        /// The enforced bound.
        max: u32,
    },
    /// The frame's version field does not match [`PROTOCOL_VERSION`].
    VersionMismatch {
        /// The version the peer sent.
        got: u16,
        /// The version this build speaks.
        want: u16,
    },
    /// The payload parsed as neither a request nor a response.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            WireError::Oversized { len, max } => {
                write!(
                    f,
                    "oversized frame: {len} bytes exceeds the {max}-byte bound"
                )
            }
            WireError::VersionMismatch { got, want } => {
                write!(
                    f,
                    "protocol version mismatch: peer spoke v{got}, this build speaks v{want}"
                )
            }
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl WireError {
    /// The `Response::Error` code this error is reported under.
    pub fn code(&self) -> &'static str {
        match self {
            WireError::Io(_) | WireError::Truncated { .. } => codes::TRUNCATED_FRAME,
            WireError::Oversized { .. } => codes::OVERSIZED_FRAME,
            WireError::VersionMismatch { .. } => codes::VERSION_MISMATCH,
            WireError::Malformed(_) => codes::MALFORMED_FRAME,
        }
    }
}

/// Client-to-server frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Ask for a query-level configuration at job-submission time. Carries the
    /// flattened [`optimizers::tuner::TuningContext`] fields so the frame is
    /// self-describing on the wire.
    Suggest {
        /// Tenant the suggestion is scoped to.
        user: String,
        /// Query signature (plan hash).
        signature: u64,
        /// Plan embedding.
        embedding: Vec<f64>,
        /// Expected input data size.
        expected_data_size: f64,
        /// Client-side iteration counter.
        iteration: u32,
    },
    /// Ship a completed application's event log (JSON lines) for ingestion.
    Report {
        /// Tenant the events belong to.
        user: String,
        /// Application id the event file is stored under.
        app_id: String,
        /// The raw JSONL event document; corrupt lines are quarantined
        /// backend-side, never fatal.
        jsonl: String,
    },
    /// Liveness probe.
    Health,
    /// Snapshot serving metrics and the pipeline dashboard counters.
    Metrics,
    /// Drain the server: stop accepting, finish queued work, join everything.
    Shutdown,
}

/// Server-to-client frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A configuration point, possibly a degraded-mode default.
    Suggestion {
        /// The suggested query-level point.
        point: Vec<f64>,
        /// `Some(reason)` when the backend fell back to the default
        /// configuration (dead or wedged backend) instead of tuning.
        fallback: Option<String>,
        /// Where the point came from: `"transferred"` when it was served
        /// from the retrieval corpus on a cold signature, `"explored"` when
        /// the tuner's own loop produced it. `None` on frames from builds
        /// predating the retrieval subsystem — absent decodes as `None`, so
        /// v3 clients and servers interoperate unchanged
        /// (see [`rockindex::Provenance::from_wire`]).
        provenance: Option<String>,
    },
    /// The report was accepted for ingestion (fire-and-forget backend-side).
    Reported,
    /// Liveness reply.
    Healthy {
        /// Whether the server is draining (no new connections).
        draining: bool,
        /// The protocol version this server speaks.
        protocol_version: u16,
    },
    /// Serving metrics plus the pipeline dashboard counters, both as the
    /// structured structs and as a rendered `/metrics`-style text page.
    MetricsReport {
        /// Rendered text exposition (one `name value` pair per line).
        text: String,
        /// Serving-layer counters and latency percentiles.
        serving: MetricsSnapshot,
        /// The `pipeline::monitor` dashboard counters, exported verbatim.
        dashboard: DashboardCounters,
    },
    /// Admission control shed this request; retry later or elsewhere.
    Overloaded {
        /// Suggests in flight on the shard, open connections, or frame
        /// payload bytes in flight, at the cap.
        inflight: u64,
        /// The configured cap that was exceeded.
        capacity: u64,
    },
    /// The server acknowledged a shutdown request and is draining.
    ShuttingDown,
    /// The request could not be served; `code` is one of [`codes`].
    Error {
        /// Machine-readable error class.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

/// Read exactly `buf.len()` bytes, stopping early on EOF or once `deadline`
/// passes; returns the byte count actually read. The first byte of a frame
/// sets its deadline. An idle-poll timeout (`WouldBlock`/`TimedOut`) before
/// that surfaces as `Io` so callers can keep polling; after it, timeouts
/// retry until the frame completes or the deadline passes.
fn read_full<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    deadline: &mut Option<Instant>,
) -> Result<usize, WireError> {
    let mut got = 0;
    while got < buf.len() && deadline.is_none_or(|d| Instant::now() < d) {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => {
                got += n;
                deadline.get_or_insert_with(|| Instant::now() + FRAME_DEADLINE);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if deadline.is_some()
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(got)
}

/// Read one frame's payload. `Ok(None)` on a clean close (EOF before any
/// header byte); all other short reads are [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    match read_header(r)? {
        Some((len, deadline)) => read_payload(r, len, deadline).map(Some),
        None => Ok(None),
    }
}

/// Read one frame header and return its payload length, checked against
/// [`MAX_PAYLOAD_BYTES`] and [`PROTOCOL_VERSION`] before anything is
/// allocated, with the frame's deadline. `Ok(None)` on a clean close.
pub fn read_header<R: Read>(r: &mut R) -> Result<Option<(u32, Instant)>, WireError> {
    let mut header = [0u8; HEADER_BYTES];
    let mut deadline = None;
    let got = read_full(r, &mut header, &mut deadline)?;
    let Some(deadline) = deadline else {
        return Ok(None);
    };
    if got < HEADER_BYTES {
        return Err(WireError::Truncated {
            expected: HEADER_BYTES,
            got,
        });
    }
    let [l0, l1, l2, l3, v0, v1] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    let version = u16::from_le_bytes([v0, v1]);
    if len > MAX_PAYLOAD_BYTES {
        return Err(WireError::Oversized {
            len,
            max: MAX_PAYLOAD_BYTES,
        });
    }
    if version != PROTOCOL_VERSION {
        return Err(WireError::VersionMismatch {
            got: version,
            want: PROTOCOL_VERSION,
        });
    }
    Ok(Some((len, deadline)))
}

/// Read the `len`-byte payload that follows a [`read_header`], by the
/// frame's `deadline`.
pub fn read_payload<R: Read>(r: &mut R, len: u32, deadline: Instant) -> Result<Vec<u8>, WireError> {
    let mut payload = vec![0u8; len.min(MAX_PAYLOAD_BYTES) as usize];
    let got = read_full(r, &mut payload, &mut Some(deadline))?;
    if got < payload.len() {
        return Err(WireError::Truncated {
            expected: payload.len(),
            got,
        });
    }
    Ok(payload)
}

/// Write one frame under [`PROTOCOL_VERSION`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    write_frame_versioned(w, PROTOCOL_VERSION, payload)
}

/// Write one frame under an explicit version — how the version-mismatch tests
/// speak a deliberately wrong dialect.
// rhlint:hot — header encode on every frame; stack bytes only, no alloc
pub fn write_frame_versioned<W: Write>(
    w: &mut W,
    version: u16,
    payload: &[u8],
) -> Result<(), WireError> {
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    if len > MAX_PAYLOAD_BYTES {
        return Err(WireError::Oversized {
            len,
            max: MAX_PAYLOAD_BYTES,
        });
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&version.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Encode a request payload.
pub fn encode_request(req: &Request) -> Result<Vec<u8>, WireError> {
    serde_json::to_vec(req).map_err(|e| WireError::Malformed(format!("{e:?}")))
}

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    serde_json::from_slice(payload).map_err(|e| WireError::Malformed(format!("{e:?}")))
}

/// Encode a response payload.
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, WireError> {
    serde_json::to_vec(resp).map_err(|e| WireError::Malformed(format!("{e:?}")))
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    serde_json::from_slice(payload).map_err(|e| WireError::Malformed(format!("{e:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let req = Request::Suggest {
            user: "alice".into(),
            signature: 7,
            embedding: vec![0.5, 1.5],
            expected_data_size: 2.0,
            iteration: 3,
        };
        let payload = encode_request(&req).expect("encodes");
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).expect("writes");
        let back = read_frame(&mut wire.as_slice())
            .expect("reads")
            .expect("non-empty");
        assert_eq!(decode_request(&back).expect("decodes"), req);
    }

    #[test]
    fn clean_eof_is_none_and_partial_header_is_truncated() {
        assert!(matches!(read_frame(&mut [].as_slice()), Ok(None)));
        let half_header = [1u8, 0, 0];
        assert!(matches!(
            read_frame(&mut half_header.as_slice()),
            Err(WireError::Truncated {
                expected: 6,
                got: 3
            })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(WireError::Oversized { len: u32::MAX, .. })
        ));
    }

    #[test]
    fn wrong_version_is_rejected_before_payload_parse() {
        let mut wire = Vec::new();
        write_frame_versioned(&mut wire, 99, b"{}").expect("writes");
        match read_frame(&mut wire.as_slice()) {
            Err(WireError::VersionMismatch { got: 99, want }) => {
                assert_eq!(want, PROTOCOL_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn error_codes_map_one_to_one() {
        assert_eq!(
            WireError::Oversized { len: 9, max: 1 }.code(),
            codes::OVERSIZED_FRAME
        );
        assert_eq!(
            WireError::VersionMismatch { got: 0, want: 1 }.code(),
            codes::VERSION_MISMATCH
        );
        assert_eq!(
            WireError::Malformed("x".into()).code(),
            codes::MALFORMED_FRAME
        );
        assert_eq!(
            WireError::Truncated {
                expected: 1,
                got: 0
            }
            .code(),
            codes::TRUNCATED_FRAME
        );
    }
}
