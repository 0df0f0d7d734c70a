//! The strict wire codec: length-prefixed JSON frames and typed decode
//! errors.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. The codec layer is deliberately separate from the
//! command handler: framing violations (oversized or truncated frames)
//! and payload violations (garbage JSON, unknown command tags, `null` or
//! non-finite floats smuggled into solver inputs) are rejected *here*,
//! with typed errors, before any command reaches the service.

use fedfl_service::Command;
use serde::Value;
use std::fmt;
use std::io::{self, Read, Write};

/// Default hard cap on one frame's payload, in bytes. Generous enough
/// for a full 1M-client snapshot reply, small enough that a hostile
/// length prefix cannot make the server allocate unbounded memory.
pub const DEFAULT_MAX_FRAME: usize = 64 * 1024 * 1024;

/// Bytes of the frame length prefix.
pub const LENGTH_PREFIX: usize = 4;

/// Payload buffer capacity reserved before any payload byte arrives. The
/// buffer grows with the bytes actually received, so a length prefix
/// alone never allocates more than this.
const INITIAL_PAYLOAD_CAPACITY: usize = 8 * 1024;

/// A framing violation — the byte stream itself broke the protocol.
#[derive(Debug)]
pub enum FrameError {
    /// The declared payload length exceeds the configured cap. The
    /// stream cannot be resynchronised past an unread payload this
    /// large, so the connection must close after reporting it.
    TooLarge {
        /// Length the prefix declared.
        declared: usize,
        /// The configured cap it exceeded.
        max: usize,
    },
    /// The stream ended in the middle of a frame.
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually read before EOF.
        got: usize,
    },
    /// The underlying transport failed.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte cap")
            }
            FrameError::Truncated { expected, got } => {
                write!(f, "stream ended mid-frame: got {got} of {expected} bytes")
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// A payload violation — the frame arrived intact but its JSON cannot
/// become a solver-safe [`Command`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload is not valid UTF-8 or not valid JSON.
    Malformed {
        /// What the parser reported.
        detail: String,
    },
    /// The JSON parsed but does not decode as a `Command` (unknown
    /// command tag, missing field, wrong type).
    Decode {
        /// What the decoder reported.
        detail: String,
    },
    /// The payload carries a JSON `null` — the serializer's encoding of
    /// a non-finite float, which must never smuggle a NaN into the
    /// solver.
    NullValue {
        /// Path of the offending value inside the payload.
        path: String,
    },
    /// The payload carries a float that parsed to a non-finite value
    /// (e.g. an out-of-range literal like `1e999`).
    NonFinite {
        /// Path of the offending value inside the payload.
        path: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Malformed { detail } => write!(f, "malformed payload: {detail}"),
            CodecError::Decode { detail } => write!(f, "undecodable command: {detail}"),
            CodecError::NullValue { path } => {
                write!(f, "null value at {path}: non-finite floats are rejected")
            }
            CodecError::NonFinite { path } => {
                write!(f, "non-finite float at {path}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Write one frame: big-endian length prefix, then the payload.
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] for a payload over `max` (nothing is
/// written) and [`FrameError::Io`] for transport failures.
pub fn write_frame(writer: &mut impl Write, payload: &[u8], max: usize) -> Result<(), FrameError> {
    if payload.len() > max {
        return Err(FrameError::TooLarge {
            declared: payload.len(),
            max,
        });
    }
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::TooLarge {
        declared: payload.len(),
        max,
    })?;
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

/// Read one frame's payload. `Ok(None)` is a clean EOF *between* frames
/// (the peer closed an idle connection).
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] without consuming the payload (the
/// stream is unrecoverable past it), [`FrameError::Truncated`] for EOF
/// inside a frame, and [`FrameError::Io`] for transport failures.
pub fn read_frame(reader: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; LENGTH_PREFIX];
    match read_exact_or_eof(reader, &mut prefix)? {
        0 => return Ok(None),
        n if n < LENGTH_PREFIX => {
            return Err(FrameError::Truncated {
                expected: LENGTH_PREFIX,
                got: n,
            })
        }
        _ => {}
    }
    let declared = u32::from_be_bytes(prefix) as usize;
    if declared > max {
        return Err(FrameError::TooLarge { declared, max });
    }
    let mut payload = Vec::with_capacity(declared.min(INITIAL_PAYLOAD_CAPACITY));
    let got = reader.take(declared as u64).read_to_end(&mut payload)?;
    if got < declared {
        return Err(FrameError::Truncated {
            expected: declared,
            got,
        });
    }
    Ok(Some(payload))
}

/// Fill `buf` as far as the stream allows, returning the bytes read
/// (short only at EOF).
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(filled)
}

/// Decode a frame payload into a [`Command`], enforcing the solver-safety
/// gate: the parsed JSON tree must contain no `null` and no non-finite
/// float anywhere. (The serializer encodes non-finite floats as `null`,
/// and the parser accepts out-of-range literals as infinities — both are
/// rejected here so `UpdateBudget(NaN)` can never reach the service,
/// which would reject it anyway, let alone the solver.)
///
/// # Errors
///
/// Returns a typed [`CodecError`] naming the violation; the connection
/// remains usable, since the framing itself was intact.
pub fn decode_command(payload: &[u8]) -> Result<Command, CodecError> {
    let text = std::str::from_utf8(payload).map_err(|e| CodecError::Malformed {
        detail: format!("invalid utf-8: {e}"),
    })?;
    let value: Value = serde_json::from_str(text).map_err(|e| CodecError::Malformed {
        detail: e.to_string(),
    })?;
    check_solver_safe(&value, &mut String::from("$"))?;
    value
        .deserialize_into::<Command>()
        .map_err(|e| CodecError::Decode {
            detail: e.to_string(),
        })
}

/// Recursively reject `null` and non-finite floats, tracking a JSONPath
/// to the offending value.
fn check_solver_safe(value: &Value, path: &mut String) -> Result<(), CodecError> {
    match value {
        Value::Null => Err(CodecError::NullValue { path: path.clone() }),
        Value::F64(x) if !x.is_finite() => Err(CodecError::NonFinite { path: path.clone() }),
        Value::Seq(items) => {
            for (i, item) in items.iter().enumerate() {
                let len = path.len();
                path.push_str(&format!("[{i}]"));
                check_solver_safe(item, path)?;
                path.truncate(len);
            }
            Ok(())
        }
        Value::Map(entries) => {
            for (key, item) in entries {
                let len = path.len();
                path.push_str(&format!(".{key}"));
                check_solver_safe(item, path)?;
                path.truncate(len);
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedfl_service::ClientId;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"a\":1}", 1024).unwrap();
        write_frame(&mut buf, b"", 1024).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap().as_deref(),
            Some(&b"{\"a\":1}"[..])
        );
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap().as_deref(),
            Some(&b""[..])
        );
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_and_truncated_frames_are_typed() {
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &[0u8; 32], 16),
            Err(FrameError::TooLarge {
                declared: 32,
                max: 16
            })
        ));
        // A hostile prefix declaring more than the cap.
        let hostile = 0xFFFF_FFFFu32.to_be_bytes();
        let mut cursor = io::Cursor::new(hostile.to_vec());
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::TooLarge { .. })
        ));
        // A frame cut off mid-payload.
        let mut cut = 8u32.to_be_bytes().to_vec();
        cut.extend_from_slice(b"abc");
        let mut cursor = io::Cursor::new(cut);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Truncated {
                expected: 8,
                got: 3
            })
        ));
        // A prefix declaring the cap, then only 16 bytes before EOF.
        let max = DEFAULT_MAX_FRAME;
        let mut short = (max as u32).to_be_bytes().to_vec();
        short.extend_from_slice(&[b'x'; 16]);
        let mut cursor = io::Cursor::new(short);
        assert!(matches!(
            read_frame(&mut cursor, max),
            Err(FrameError::Truncated { expected, got: 16 }) if expected == max
        ));
        // A prefix cut off mid-length.
        let mut cursor = io::Cursor::new(vec![0u8, 0u8]);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Truncated {
                expected: 4,
                got: 2
            })
        ));
    }

    /// A reader that hands out one byte per `read` call.
    struct Trickle(io::Cursor<Vec<u8>>);

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let end = buf.len().min(1);
            self.0.read(&mut buf[..end])
        }
    }

    #[test]
    fn frames_fed_one_byte_per_read_round_trip() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(20_000).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload, DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, b"{}", DEFAULT_MAX_FRAME).unwrap();
        let mut reader = Trickle(io::Cursor::new(buf));
        assert_eq!(
            read_frame(&mut reader, DEFAULT_MAX_FRAME).unwrap(),
            Some(payload)
        );
        assert_eq!(
            read_frame(&mut reader, DEFAULT_MAX_FRAME)
                .unwrap()
                .as_deref(),
            Some(&b"{}"[..])
        );
        assert!(read_frame(&mut reader, DEFAULT_MAX_FRAME)
            .unwrap()
            .is_none());
    }

    #[test]
    fn commands_round_trip_through_the_codec() {
        let commands = [
            Command::GetPrices(vec![ClientId(3), ClientId(1)]),
            Command::Snapshot,
            Command::Reprice,
            Command::UpdateBudget(42.5),
            Command::RemoveClients(vec![ClientId(9)]),
        ];
        for command in commands {
            let payload = serde_json::to_string(&command).unwrap();
            let decoded = decode_command(payload.as_bytes()).unwrap();
            assert_eq!(decoded, command);
        }
    }

    #[test]
    fn garbage_and_unknown_tags_are_typed_errors() {
        assert!(matches!(
            decode_command(&[0xFF, 0xFE]),
            Err(CodecError::Malformed { .. })
        ));
        assert!(matches!(
            decode_command(b"{\"not json"),
            Err(CodecError::Malformed { .. })
        ));
        let err = decode_command(b"{\"LaunchMissiles\":[]}").unwrap_err();
        match err {
            CodecError::Decode { detail } => assert!(
                detail.contains("LaunchMissiles"),
                "error should name the unknown tag: {detail}"
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn null_and_non_finite_floats_are_rejected_with_paths() {
        // NaN budgets serialize as null — the codec names the path.
        let payload = serde_json::to_string(&Command::UpdateBudget(f64::NAN)).unwrap();
        assert_eq!(payload, "{\"UpdateBudget\":null}");
        assert_eq!(
            decode_command(payload.as_bytes()),
            Err(CodecError::NullValue {
                path: "$.UpdateBudget".into()
            })
        );
        // Out-of-range literals parse to infinity — also rejected.
        assert_eq!(
            decode_command(b"{\"UpdateBudget\":1e999}"),
            Err(CodecError::NonFinite {
                path: "$.UpdateBudget".into()
            })
        );
        // Nested positions are named too.
        assert_eq!(
            decode_command(b"{\"AddClients\":[{\"data_size\":null}]}"),
            Err(CodecError::NullValue {
                path: "$.AddClients[0].data_size".into()
            })
        );
    }
}
