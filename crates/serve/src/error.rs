//! Typed errors for the wire protocol and the transport beneath it.
//!
//! The decoder never panics on adversarial input: every malformed byte
//! stream maps to a [`ProtocolError`] variant (the protocol fuzz battery in
//! `tests/protocol_fuzz.rs` pins this), and transport failures stay separate
//! in [`WireError::Io`] so connection handlers can distinguish "the client
//! sent garbage" (answer with a protocol reject) from "the socket died"
//! (drop the connection).

use std::error::Error;
use std::fmt;
use std::io;

/// A malformed frame or payload. Every variant is a *client* fault: the
/// daemon stays up, counts the error and answers with a protocol reject
/// where the stream is still in sync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A frame declared a zero-length payload (every message carries at
    /// least an opcode byte).
    EmptyFrame,
    /// A frame declared a payload larger than [`MAX_FRAME_LEN`].
    ///
    /// [`MAX_FRAME_LEN`]: crate::wire::MAX_FRAME_LEN
    FrameTooLarge {
        /// The declared payload length.
        len: usize,
    },
    /// The payload ended before a fixed-size field was complete.
    Truncated {
        /// Bytes the field needed.
        expected: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// The payload carried bytes past the end of a fully decoded message.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// The first payload byte is not a known request/response opcode.
    UnknownOpcode(u8),
    /// An enum tag inside a payload (reject code, lookup outcome) is out of
    /// range.
    UnknownTag {
        /// Which tagged field was being decoded.
        field: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A declared element count cannot fit in the bytes that follow it —
    /// rejected before any allocation, so a hostile length prefix cannot
    /// balloon memory.
    CountTooLarge {
        /// The declared count (elements or bytes).
        declared: usize,
        /// The maximum the remaining payload could hold.
        budget: usize,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A swap path exceeds the protocol's path-length cap — rejected at
    /// decode time, before the path ever reaches the filesystem.
    PathTooLong {
        /// The declared path length, bytes.
        len: usize,
        /// The protocol cap ([`MAX_SWAP_PATH`]).
        ///
        /// [`MAX_SWAP_PATH`]: crate::wire::MAX_SWAP_PATH
        max: usize,
    },
    /// A swap path carries an embedded NUL byte — never a valid file name,
    /// and historically the classic way to smuggle a truncated path past a
    /// validating layer into a C API. Rejected at decode time.
    NulInPath,
    /// A `Hello` requested a protocol version the daemon does not speak.
    UnsupportedVersion {
        /// The version the client asked for.
        requested: u32,
        /// The version the daemon serves.
        supported: u32,
    },
    /// The first frame of a connection was not a `Hello`; the daemon
    /// answers once and closes the connection.
    HandshakeRequired,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::EmptyFrame => write!(f, "frame with an empty payload"),
            ProtocolError::FrameTooLarge { len } => {
                write!(f, "declared payload of {len} bytes exceeds the frame cap")
            }
            ProtocolError::Truncated { expected, have } => {
                write!(
                    f,
                    "payload truncated: field needs {expected} bytes, {have} left"
                )
            }
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete message")
            }
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtocolError::UnknownTag { field, tag } => {
                write!(f, "unknown {field} tag {tag:#04x}")
            }
            ProtocolError::CountTooLarge { declared, budget } => {
                write!(
                    f,
                    "declared count {declared} exceeds the remaining-bytes budget {budget}"
                )
            }
            ProtocolError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtocolError::PathTooLong { len, max } => {
                write!(f, "swap path of {len} bytes exceeds the {max}-byte cap")
            }
            ProtocolError::NulInPath => write!(f, "swap path carries an embedded NUL byte"),
            ProtocolError::UnsupportedVersion {
                requested,
                supported,
            } => {
                write!(
                    f,
                    "protocol version {requested} is not served (daemon speaks {supported})"
                )
            }
            ProtocolError::HandshakeRequired => {
                write!(f, "the first frame of a connection must be a Hello")
            }
        }
    }
}

impl Error for ProtocolError {}

/// A failure while reading or writing frames on a transport.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket/stream failed (includes read timeouts, which
    /// connection handlers treat as "poll again").
    Io(io::Error),
    /// The peer sent a malformed frame.
    Protocol(ProtocolError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl Error for WireError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Protocol(e) => Some(e),
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<ProtocolError> for WireError {
    fn from(e: ProtocolError) -> Self {
        WireError::Protocol(e)
    }
}

/// A failure while building a serving session (daemon boot or hot swap).
#[derive(Debug)]
pub enum SetupError {
    /// The snapshot file failed open-time or load-time validation.
    Snapshot(diststore::SnapshotError),
    /// The initial coloring run failed.
    Coloring(edgecolor::ColoringError),
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
            SetupError::Coloring(e) => write!(f, "initial coloring failed: {e}"),
        }
    }
}

impl Error for SetupError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SetupError::Snapshot(e) => Some(e),
            SetupError::Coloring(e) => Some(e),
        }
    }
}

impl From<diststore::SnapshotError> for SetupError {
    fn from(e: diststore::SnapshotError) -> Self {
        SetupError::Snapshot(e)
    }
}

impl From<edgecolor::ColoringError> for SetupError {
    fn from(e: edgecolor::ColoringError) -> Self {
        SetupError::Coloring(e)
    }
}

/// A typed failure surfaced by the [`Client`](crate::client::Client) API:
/// each method decodes the response into the type it promises and maps
/// everything else to one of these variants.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or codec failed beneath the request.
    Wire(WireError),
    /// The daemon rejected a submission with a typed admission code.
    Rejected(crate::client::Rejection),
    /// The daemon refused a snapshot hot-swap; the old generation is still
    /// serving.
    SwapRejected {
        /// Why the snapshot was refused.
        detail: String,
    },
    /// The daemon hit an internal failure handling a well-formed request.
    Server {
        /// Human-readable detail from the daemon.
        detail: String,
    },
    /// The daemon answered `ProtocolRejected` — it considered our frame
    /// malformed.
    ProtocolRejected {
        /// The daemon's echo of its decode error.
        detail: String,
    },
    /// The connection handshake failed (bad `Welcome`, version mismatch).
    Handshake {
        /// What went wrong.
        detail: String,
    },
    /// The daemon answered with a response kind the request cannot produce.
    Unexpected {
        /// The response kind the method expected.
        expected: &'static str,
        /// Debug form of what actually arrived.
        got: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Rejected(r) => write!(f, "submission rejected: {r}"),
            ClientError::SwapRejected { detail } => write!(f, "swap rejected: {detail}"),
            ClientError::Server { detail } => write!(f, "server error: {detail}"),
            ClientError::ProtocolRejected { detail } => {
                write!(f, "daemon rejected our frame: {detail}")
            }
            ClientError::Handshake { detail } => write!(f, "handshake failed: {detail}"),
            ClientError::Unexpected { expected, got } => {
                write!(f, "expected {expected}, daemon answered {got}")
            }
        }
    }
}

impl Error for ClientError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Wire(WireError::Protocol(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_fault() {
        assert!(ProtocolError::EmptyFrame.to_string().contains("empty"));
        assert!(ProtocolError::FrameTooLarge { len: 99 }
            .to_string()
            .contains("99"));
        assert!(ProtocolError::Truncated {
            expected: 8,
            have: 3
        }
        .to_string()
        .contains('8'));
        assert!(ProtocolError::TrailingBytes { extra: 2 }
            .to_string()
            .contains('2'));
        assert!(ProtocolError::UnknownOpcode(0xfe)
            .to_string()
            .contains("0xfe"));
        assert!(ProtocolError::UnknownTag {
            field: "outcome",
            tag: 9
        }
        .to_string()
        .contains("outcome"));
        assert!(ProtocolError::CountTooLarge {
            declared: 7,
            budget: 1
        }
        .to_string()
        .contains('7'));
        assert!(ProtocolError::BadUtf8.to_string().contains("UTF-8"));
        let wrapped = WireError::from(ProtocolError::BadUtf8);
        assert!(wrapped.to_string().contains("protocol"));
        assert!(Error::source(&wrapped).is_some());
        let io_err = WireError::from(io::Error::other("boom"));
        assert!(io_err.to_string().contains("boom"));
    }
}
