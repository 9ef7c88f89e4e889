//! The hand-rolled, length-prefixed wire protocol (v2).
//!
//! A message on the wire is one *frame*:
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 LE    | payload: len bytes  |
//! +----------------+---------------------+
//! ```
//!
//! with `1 ≤ len ≤` [`MAX_FRAME_LEN`]. A *message payload* is a **u8
//! opcode** plus a little-endian body (strings and vectors as a `u32` count
//! followed by the elements). Requests use
//! opcodes `0x01..=0x10`, responses `0x81..=0x90`.
//!
//! **Protocol v2** wraps message payloads in a routing header. A
//! connection opens by sending [`Request::Hello`] as its first frame; the
//! daemon answers [`Response::Welcome`] with the served-graph catalog, and
//! every subsequent frame carries the header:
//!
//! ```text
//! v2 request  payload: request_id u64 | graph_id u32 | opcode + body
//! v2 response payload: request_id u64 |               opcode + body
//! ```
//!
//! `request_id` is client-chosen and echoed verbatim on the response, so
//! a pipelined connection can match answers that complete out of order
//! across graphs. A connection whose first frame is *not* a `Hello` gets
//! one [`Response::ProtocolRejected`] and is closed.
//!
//! [`Request::decode`] / [`Response::decode`] and the v2 header codecs are
//! pure functions over a payload slice — the protocol fuzz battery drives
//! them with arbitrary bytes and they must never panic, only return
//! [`ProtocolError`]. Every declared count is checked against the bytes
//! actually remaining *before* any allocation, so a hostile length prefix
//! cannot balloon memory, and `Swap` paths are validated at decode time
//! (length cap, no embedded NUL) so hostile paths never reach the
//! filesystem layer.

use crate::error::{ProtocolError, WireError};
use crate::hist::{LatencyHistogram, HIST_BUCKETS};
use std::io::{Read, Write};

/// Hard cap on a frame payload (16 MiB) — comfortably above the largest
/// legitimate message (a multi-thousand-op batch is ~100 KiB) and small
/// enough that a hostile length prefix cannot exhaust memory.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// The protocol version this build speaks in a [`Request::Hello`] /
/// [`Response::Welcome`] handshake.
pub const PROTOCOL_VERSION: u32 = 2;

/// Hard cap on a `Swap` path, bytes. Enforced at decode time with a typed
/// [`ProtocolError::PathTooLong`] — longer than any legitimate filesystem
/// path and far below anything that could stress an allocator.
pub const MAX_SWAP_PATH: usize = 4096;

/// Size of the v2 request header (`request_id: u64` + `graph_id: u32`).
pub const V2_REQUEST_HEADER: usize = 12;

/// Size of the v2 response header (`request_id: u64`).
pub const V2_RESPONSE_HEADER: usize = 8;

/// Why a submission was turned away. Carried by [`Response::Rejected`];
/// every code mirrors one admission-control rule documented in
/// `docs/SERVE.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// The bounded pending queue is full — back off and retry.
    QueueFull = 0,
    /// A delete names a stable id that is not live (or is already pending
    /// deletion).
    UnknownEdge = 1,
    /// An insert names an endpoint pair that is already live (and not
    /// pending deletion) or already pending insertion.
    DuplicateEdge = 2,
    /// An insert endpoint is `≥ n`.
    NodeOutOfRange = 3,
    /// An insert pairs a node with itself.
    SelfLoop = 4,
    /// A snapshot hot-swap is in progress; mutations are quiesced.
    SwapInProgress = 5,
    /// The frame's `graph_id` names no served graph (v2 routing).
    UnknownGraph = 6,
}

impl RejectCode {
    fn from_tag(tag: u8) -> Result<Self, ProtocolError> {
        Ok(match tag {
            0 => RejectCode::QueueFull,
            1 => RejectCode::UnknownEdge,
            2 => RejectCode::DuplicateEdge,
            3 => RejectCode::NodeOutOfRange,
            4 => RejectCode::SelfLoop,
            5 => RejectCode::SwapInProgress,
            6 => RejectCode::UnknownGraph,
            t => {
                return Err(ProtocolError::UnknownTag {
                    field: "reject code",
                    tag: t,
                })
            }
        })
    }
}

/// What a color lookup found, relative to the answering epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The stable id is not live in the current epoch.
    Unknown,
    /// The edge is live and colored.
    Colored {
        /// Its color (`< palette`).
        color: u64,
        /// One endpoint (internal node id).
        u: u64,
        /// The other endpoint.
        v: u64,
    },
    /// The edge is live but not yet colored (its batch has been applied but
    /// the repair that colors it has not published — never observable
    /// through the server, which publishes apply+repair atomically; kept so
    /// the wire format does not rule it out).
    Uncolored {
        /// One endpoint (internal node id).
        u: u64,
        /// The other endpoint.
        v: u64,
    },
}

/// One served graph in the [`Response::Welcome`] catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphInfo {
    /// The routing id v2 frames name in their header.
    pub id: u32,
    /// Human-readable tenant name (snapshot stem or boot label).
    pub name: String,
    /// Nodes at answer time.
    pub n: u64,
    /// Edges at answer time.
    pub m: u64,
}

/// Server-side counters and latency distributions for **one served
/// graph**, snapshotted at answer time.
///
/// All counter fields are totals since daemon start. The latency fields
/// are full log-scale [`LatencyHistogram`]s (per-tick repair wall time and
/// per-lookup service time), shipped whole so any quantile — p50 through
/// p99.9 — is derivable client-side; `protocol_errors` is connection-level
/// and therefore identical across every graph's report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsReport {
    /// Current snapshot epoch (bumped only by hot swaps).
    pub epoch: u64,
    /// Applied-batch version within the epoch (bumped every tick).
    pub version: u64,
    /// Nodes in the current graph.
    pub n: u64,
    /// Edges in the current graph.
    pub m: u64,
    /// Maximum degree of the current graph.
    pub max_degree: u64,
    /// Palette budget of the live recoloring session.
    pub palette: u64,
    /// Batches admitted but not yet applied.
    pub queue_depth: u64,
    /// Lookup requests served.
    pub lookups: u64,
    /// Lookups that found a live edge.
    pub lookup_hits: u64,
    /// Submissions admitted.
    pub accepted: u64,
    /// Submissions rejected (all codes).
    pub rejected: u64,
    /// Ticks that applied at least one batch.
    pub ticks: u64,
    /// Admitted batches coalesced into those ticks.
    pub coalesced_batches: u64,
    /// Edges (re)colored by repairs.
    pub repaired_edges: u64,
    /// Repairs that fell back to a full recolor.
    pub full_recolors: u64,
    /// Self-stabilization passes run after repairs.
    pub stabilizations: u64,
    /// Conflicts those passes found (0 on a healthy daemon).
    pub conflicts_found: u64,
    /// Snapshot hot-swaps that succeeded.
    pub swaps: u64,
    /// Snapshot hot-swaps rejected (unreadable/corrupt snapshot).
    pub swaps_rejected: u64,
    /// Malformed frames/payloads received.
    pub protocol_errors: u64,
    /// Per-tick repair wall-time distribution.
    pub repair: LatencyHistogram,
    /// Per-lookup service-time distribution.
    pub lookup: LatencyHistogram,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Color lookup by stable edge id (`0x01`).
    Lookup {
        /// The stable id to resolve.
        stable: u64,
    },
    /// Submit a mutation batch for admission (`0x02`). Deletes are stable
    /// ids; inserts are endpoint pairs.
    Submit {
        /// Stable ids to delete.
        delete: Vec<u64>,
        /// Endpoint pairs to insert.
        insert: Vec<(u32, u32)>,
    },
    /// Fetch the metrics snapshot (`0x03`).
    Metrics,
    /// Fetch palette/coloring introspection (`0x04`).
    Palette,
    /// Hot-swap the served snapshot to the file at `path` (`0x06`).
    Swap {
        /// Path of the snapshot file, UTF-8.
        path: String,
    },
    /// Apply every pending batch before answering (`0x07`).
    Flush,
    /// Stop the daemon (`0x08`).
    Shutdown,
    /// Open a v2 connection (`0x10`). Must be the **first** frame; any
    /// other first frame is rejected and closes the connection.
    Hello {
        /// Protocol version the client speaks ([`PROTOCOL_VERSION`]).
        version: u32,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Lookup answer, pinned to the epoch that served it (`0x81`).
    Color {
        /// Epoch the lookup ran against.
        epoch: u64,
        /// Version within that epoch.
        version: u64,
        /// What the lookup found.
        outcome: LookupOutcome,
    },
    /// The batch was admitted (`0x82`).
    Submitted {
        /// Admission ticket (1-based, dense per daemon lifetime).
        ticket: u64,
        /// Queue depth after admission.
        queued: u32,
    },
    /// The batch was turned away (`0x83`).
    Rejected {
        /// Which admission rule fired.
        code: RejectCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Metrics snapshot (`0x84`).
    Metrics(Box<MetricsReport>),
    /// Palette introspection (`0x85`).
    Palette {
        /// Current epoch.
        epoch: u64,
        /// Palette budget `P`.
        palette: u64,
        /// Current maximum degree Δ.
        max_degree: u64,
        /// Distinct colors actually used.
        colors_used: u64,
    },
    /// Hot swap succeeded (`0x87`).
    Swapped {
        /// The new epoch.
        epoch: u64,
        /// Nodes in the new graph.
        n: u64,
        /// Edges in the new graph.
        m: u64,
    },
    /// Hot swap rejected; the old snapshot is still being served (`0x88`).
    SwapRejected {
        /// Why the snapshot was refused.
        detail: String,
    },
    /// All pending batches are applied (`0x89`).
    Flushed {
        /// Current epoch.
        epoch: u64,
        /// Version after the flush.
        version: u64,
        /// Ticks run since daemon start.
        ticks: u64,
    },
    /// The daemon acknowledges shutdown (`0x8A`).
    ShuttingDown,
    /// An internal failure while handling a well-formed request (`0x8B`).
    ServerError {
        /// Human-readable detail.
        detail: String,
    },
    /// The request payload was malformed; echoes the decode error (`0x8C`).
    ProtocolRejected {
        /// Display form of the [`ProtocolError`].
        detail: String,
    },
    /// Handshake answer to [`Request::Hello`] (`0x90`).
    Welcome {
        /// Protocol version the daemon will speak on this connection.
        version: u32,
        /// Per-connection in-flight request cap the daemon enforces.
        max_inflight: u32,
        /// The served-graph catalog, in `graph_id` order.
        graphs: Vec<GraphInfo>,
    },
}

// ---------------------------------------------------------------------------
// payload reader/writer
// ---------------------------------------------------------------------------

struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < len {
            return Err(ProtocolError::Truncated {
                expected: len,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u32` element count and proves `count * elem_size` bytes are
    /// actually present before the caller allocates anything.
    fn count(&mut self, elem_size: usize) -> Result<usize, ProtocolError> {
        let declared = self.u32()? as usize;
        let budget = self.remaining() / elem_size.max(1);
        if declared > budget {
            return Err(ProtocolError::CountTooLarge { declared, budget });
        }
        Ok(declared)
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    /// A `Swap` path: a string with the filesystem-hostile shapes rejected
    /// at decode time, before the daemon ever forms a `Path` from it.
    fn swap_path(&mut self) -> Result<String, ProtocolError> {
        let len = self.count(1)?;
        if len > MAX_SWAP_PATH {
            return Err(ProtocolError::PathTooLong {
                len,
                max: MAX_SWAP_PATH,
            });
        }
        let bytes = self.take(len)?;
        if bytes.contains(&0) {
            return Err(ProtocolError::NulInPath);
        }
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    fn hist(&mut self) -> Result<LatencyHistogram, ProtocolError> {
        let count = self.u64()?;
        let sum_us = self.u64()?;
        let max_us = self.u64()?;
        let mut buckets = [0u64; HIST_BUCKETS];
        for b in buckets.iter_mut() {
            *b = self.u64()?;
        }
        Ok(LatencyHistogram::from_parts(count, sum_us, max_us, buckets))
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(ProtocolError::TrailingBytes { extra }),
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_hist(out: &mut Vec<u8>, h: &LatencyHistogram) {
    put_u64(out, h.count());
    put_u64(out, h.sum_us());
    put_u64(out, h.max_us());
    for &b in h.buckets() {
        put_u64(out, b);
    }
}

// ---------------------------------------------------------------------------
// message codecs
// ---------------------------------------------------------------------------

impl Request {
    /// Encodes the request into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Lookup { stable } => {
                out.push(0x01);
                put_u64(&mut out, *stable);
            }
            Request::Submit { delete, insert } => {
                out.push(0x02);
                put_u32(&mut out, delete.len() as u32);
                for d in delete {
                    put_u64(&mut out, *d);
                }
                put_u32(&mut out, insert.len() as u32);
                for (u, v) in insert {
                    put_u32(&mut out, *u);
                    put_u32(&mut out, *v);
                }
            }
            Request::Metrics => out.push(0x03),
            Request::Palette => out.push(0x04),
            Request::Swap { path } => {
                out.push(0x06);
                put_string(&mut out, path);
            }
            Request::Flush => out.push(0x07),
            Request::Shutdown => out.push(0x08),
            Request::Hello { version } => {
                out.push(0x10);
                put_u32(&mut out, *version);
            }
        }
        out
    }

    /// Decodes a frame payload. Total (never panics) on arbitrary bytes.
    ///
    /// # Errors
    ///
    /// A [`ProtocolError`] describing the first malformation encountered.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = PayloadReader::new(payload);
        let op = match r.u8() {
            Ok(op) => op,
            Err(_) => return Err(ProtocolError::EmptyFrame),
        };
        let req = match op {
            0x01 => Request::Lookup { stable: r.u64()? },
            0x02 => {
                let nd = r.count(8)?;
                let mut delete = Vec::with_capacity(nd);
                for _ in 0..nd {
                    delete.push(r.u64()?);
                }
                let ni = r.count(8)?;
                let mut insert = Vec::with_capacity(ni);
                for _ in 0..ni {
                    let u = r.u32()?;
                    let v = r.u32()?;
                    insert.push((u, v));
                }
                Request::Submit { delete, insert }
            }
            0x03 => Request::Metrics,
            0x04 => Request::Palette,
            0x06 => Request::Swap {
                path: r.swap_path()?,
            },
            0x07 => Request::Flush,
            0x08 => Request::Shutdown,
            0x10 => Request::Hello { version: r.u32()? },
            op => return Err(ProtocolError::UnknownOpcode(op)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Color {
                epoch,
                version,
                outcome,
            } => {
                out.push(0x81);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *version);
                match outcome {
                    LookupOutcome::Unknown => out.push(0),
                    LookupOutcome::Colored { color, u, v } => {
                        out.push(1);
                        put_u64(&mut out, *color);
                        put_u64(&mut out, *u);
                        put_u64(&mut out, *v);
                    }
                    LookupOutcome::Uncolored { u, v } => {
                        out.push(2);
                        put_u64(&mut out, *u);
                        put_u64(&mut out, *v);
                    }
                }
            }
            Response::Submitted { ticket, queued } => {
                out.push(0x82);
                put_u64(&mut out, *ticket);
                put_u32(&mut out, *queued);
            }
            Response::Rejected { code, detail } => {
                out.push(0x83);
                out.push(*code as u8);
                put_string(&mut out, detail);
            }
            Response::Metrics(report) => {
                out.push(0x84);
                for v in [
                    report.epoch,
                    report.version,
                    report.n,
                    report.m,
                    report.max_degree,
                    report.palette,
                    report.queue_depth,
                    report.lookups,
                    report.lookup_hits,
                    report.accepted,
                    report.rejected,
                    report.ticks,
                    report.coalesced_batches,
                    report.repaired_edges,
                    report.full_recolors,
                    report.stabilizations,
                    report.conflicts_found,
                    report.swaps,
                    report.swaps_rejected,
                    report.protocol_errors,
                ] {
                    put_u64(&mut out, v);
                }
                put_hist(&mut out, &report.repair);
                put_hist(&mut out, &report.lookup);
            }
            Response::Palette {
                epoch,
                palette,
                max_degree,
                colors_used,
            } => {
                out.push(0x85);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *palette);
                put_u64(&mut out, *max_degree);
                put_u64(&mut out, *colors_used);
            }
            Response::Swapped { epoch, n, m } => {
                out.push(0x87);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *n);
                put_u64(&mut out, *m);
            }
            Response::SwapRejected { detail } => {
                out.push(0x88);
                put_string(&mut out, detail);
            }
            Response::Flushed {
                epoch,
                version,
                ticks,
            } => {
                out.push(0x89);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *version);
                put_u64(&mut out, *ticks);
            }
            Response::ShuttingDown => out.push(0x8A),
            Response::ServerError { detail } => {
                out.push(0x8B);
                put_string(&mut out, detail);
            }
            Response::ProtocolRejected { detail } => {
                out.push(0x8C);
                put_string(&mut out, detail);
            }
            Response::Welcome {
                version,
                max_inflight,
                graphs,
            } => {
                out.push(0x90);
                put_u32(&mut out, *version);
                put_u32(&mut out, *max_inflight);
                put_u32(&mut out, graphs.len() as u32);
                for g in graphs {
                    put_u32(&mut out, g.id);
                    put_string(&mut out, &g.name);
                    put_u64(&mut out, g.n);
                    put_u64(&mut out, g.m);
                }
            }
        }
        out
    }

    /// Decodes a frame payload. Total (never panics) on arbitrary bytes.
    ///
    /// # Errors
    ///
    /// A [`ProtocolError`] describing the first malformation encountered.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = PayloadReader::new(payload);
        let op = match r.u8() {
            Ok(op) => op,
            Err(_) => return Err(ProtocolError::EmptyFrame),
        };
        let resp = match op {
            0x81 => {
                let epoch = r.u64()?;
                let version = r.u64()?;
                let outcome = match r.u8()? {
                    0 => LookupOutcome::Unknown,
                    1 => LookupOutcome::Colored {
                        color: r.u64()?,
                        u: r.u64()?,
                        v: r.u64()?,
                    },
                    2 => LookupOutcome::Uncolored {
                        u: r.u64()?,
                        v: r.u64()?,
                    },
                    tag => {
                        return Err(ProtocolError::UnknownTag {
                            field: "lookup outcome",
                            tag,
                        })
                    }
                };
                Response::Color {
                    epoch,
                    version,
                    outcome,
                }
            }
            0x82 => Response::Submitted {
                ticket: r.u64()?,
                queued: r.u32()?,
            },
            0x83 => {
                let code = RejectCode::from_tag(r.u8()?)?;
                Response::Rejected {
                    code,
                    detail: r.string()?,
                }
            }
            0x84 => {
                let mut vals = [0u64; 20];
                for v in vals.iter_mut() {
                    *v = r.u64()?;
                }
                Response::Metrics(Box::new(MetricsReport {
                    epoch: vals[0],
                    version: vals[1],
                    n: vals[2],
                    m: vals[3],
                    max_degree: vals[4],
                    palette: vals[5],
                    queue_depth: vals[6],
                    lookups: vals[7],
                    lookup_hits: vals[8],
                    accepted: vals[9],
                    rejected: vals[10],
                    ticks: vals[11],
                    coalesced_batches: vals[12],
                    repaired_edges: vals[13],
                    full_recolors: vals[14],
                    stabilizations: vals[15],
                    conflicts_found: vals[16],
                    swaps: vals[17],
                    swaps_rejected: vals[18],
                    protocol_errors: vals[19],
                    repair: r.hist()?,
                    lookup: r.hist()?,
                }))
            }
            0x85 => Response::Palette {
                epoch: r.u64()?,
                palette: r.u64()?,
                max_degree: r.u64()?,
                colors_used: r.u64()?,
            },
            0x87 => Response::Swapped {
                epoch: r.u64()?,
                n: r.u64()?,
                m: r.u64()?,
            },
            0x88 => Response::SwapRejected {
                detail: r.string()?,
            },
            0x89 => Response::Flushed {
                epoch: r.u64()?,
                version: r.u64()?,
                ticks: r.u64()?,
            },
            0x8A => Response::ShuttingDown,
            0x8B => Response::ServerError {
                detail: r.string()?,
            },
            0x8C => Response::ProtocolRejected {
                detail: r.string()?,
            },
            0x90 => {
                let version = r.u32()?;
                let max_inflight = r.u32()?;
                // Each catalog entry is ≥ 24 bytes (id + name count + n + m).
                let ng = r.count(24)?;
                let mut graphs = Vec::with_capacity(ng);
                for _ in 0..ng {
                    graphs.push(GraphInfo {
                        id: r.u32()?,
                        name: r.string()?,
                        n: r.u64()?,
                        m: r.u64()?,
                    });
                }
                Response::Welcome {
                    version,
                    max_inflight,
                    graphs,
                }
            }
            op => return Err(ProtocolError::UnknownOpcode(op)),
        };
        r.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// v2 routing headers
// ---------------------------------------------------------------------------

/// Encodes a v2 request payload: `request_id | graph_id | opcode + body`.
pub fn encode_v2_request(request_id: u64, graph_id: u32, req: &Request) -> Vec<u8> {
    let body = req.encode();
    let mut out = Vec::with_capacity(V2_REQUEST_HEADER + body.len());
    put_u64(&mut out, request_id);
    put_u32(&mut out, graph_id);
    out.extend_from_slice(&body);
    out
}

/// Splits a v2 request payload into `(request_id, graph_id, message bytes)`
/// without decoding the message — the daemon routes on the header first so
/// it can echo `request_id` even when the body turns out malformed.
///
/// # Errors
///
/// [`ProtocolError::Truncated`] when the payload is shorter than the header.
pub fn decode_v2_request_header(payload: &[u8]) -> Result<(u64, u32, &[u8]), ProtocolError> {
    if payload.len() < V2_REQUEST_HEADER {
        return Err(ProtocolError::Truncated {
            expected: V2_REQUEST_HEADER,
            have: payload.len(),
        });
    }
    let request_id = u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice"));
    let graph_id = u32::from_le_bytes(payload[8..12].try_into().expect("4-byte slice"));
    Ok((request_id, graph_id, &payload[V2_REQUEST_HEADER..]))
}

/// Decodes a full v2 request payload into `(request_id, graph_id, Request)`.
///
/// # Errors
///
/// A [`ProtocolError`] from the header split or the message decode.
pub fn decode_v2_request(payload: &[u8]) -> Result<(u64, u32, Request), ProtocolError> {
    let (request_id, graph_id, body) = decode_v2_request_header(payload)?;
    Ok((request_id, graph_id, Request::decode(body)?))
}

/// Encodes a v2 response payload: `request_id | opcode + body`.
pub fn encode_v2_response(request_id: u64, resp: &Response) -> Vec<u8> {
    let body = resp.encode();
    let mut out = Vec::with_capacity(V2_RESPONSE_HEADER + body.len());
    put_u64(&mut out, request_id);
    out.extend_from_slice(&body);
    out
}

/// Decodes a v2 response payload into `(request_id, Response)`.
///
/// # Errors
///
/// [`ProtocolError::Truncated`] when shorter than the header, else whatever
/// the message decode reports.
pub fn decode_v2_response(payload: &[u8]) -> Result<(u64, Response), ProtocolError> {
    if payload.len() < V2_RESPONSE_HEADER {
        return Err(ProtocolError::Truncated {
            expected: V2_RESPONSE_HEADER,
            have: payload.len(),
        });
    }
    let request_id = u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice"));
    let resp = Response::decode(&payload[V2_RESPONSE_HEADER..])?;
    Ok((request_id, resp))
}

// ---------------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------------

/// Reads one frame payload. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); EOF *inside* a frame is
/// [`ProtocolError::Truncated`].
///
/// # Errors
///
/// [`WireError::Io`] for transport failures (including read timeouts) and
/// [`WireError::Protocol`] for malformed framing.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    if !read_full(reader, &mut len_buf)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Err(ProtocolError::EmptyFrame.into());
    }
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge { len }.into());
    }
    let mut payload = vec![0u8; len];
    if !read_full(reader, &mut payload)? {
        return Err(ProtocolError::Truncated {
            expected: len,
            have: 0,
        }
        .into());
    }
    Ok(Some(payload))
}

/// Writes one frame (length prefix + payload) and flushes.
///
/// # Errors
///
/// [`WireError::Protocol`] if the payload exceeds [`MAX_FRAME_LEN`] or is
/// empty, [`WireError::Io`] on transport failure.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<(), WireError> {
    if payload.is_empty() {
        return Err(ProtocolError::EmptyFrame.into());
    }
    if payload.len() > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge { len: payload.len() }.into());
    }
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

/// Fills `buf` completely. `Ok(false)` means EOF before the first byte;
/// EOF after a partial read is [`ProtocolError::Truncated`].
fn read_full<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(ProtocolError::Truncated {
                    expected: buf.len(),
                    have: filled,
                }
                .into());
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let payload = req.encode();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Lookup { stable: u64::MAX });
        round_trip_request(Request::Submit {
            delete: vec![0, 1, 99],
            insert: vec![(0, 7), (12, 3)],
        });
        round_trip_request(Request::Submit {
            delete: vec![],
            insert: vec![],
        });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Palette);
        round_trip_request(Request::Swap {
            path: "/tmp/snap.bin".into(),
        });
        round_trip_request(Request::Flush);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Hello {
            version: PROTOCOL_VERSION,
        });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Color {
            epoch: 3,
            version: 77,
            outcome: LookupOutcome::Colored {
                color: 5,
                u: 1,
                v: 2,
            },
        });
        round_trip_response(Response::Color {
            epoch: 0,
            version: 0,
            outcome: LookupOutcome::Unknown,
        });
        round_trip_response(Response::Color {
            epoch: 1,
            version: 2,
            outcome: LookupOutcome::Uncolored { u: 4, v: 9 },
        });
        round_trip_response(Response::Submitted {
            ticket: 12,
            queued: 3,
        });
        round_trip_response(Response::Rejected {
            code: RejectCode::QueueFull,
            detail: "queue full".into(),
        });
        let mut repair = LatencyHistogram::new();
        repair.record_us(1500);
        repair.record_us(80_000);
        let mut lookup = LatencyHistogram::new();
        lookup.record_us(3);
        round_trip_response(Response::Metrics(Box::new(MetricsReport {
            epoch: 2,
            repair,
            lookup,
            ..MetricsReport::default()
        })));
        round_trip_response(Response::Palette {
            epoch: 1,
            palette: 7,
            max_degree: 4,
            colors_used: 6,
        });
        round_trip_response(Response::Swapped {
            epoch: 2,
            n: 100,
            m: 200,
        });
        round_trip_response(Response::SwapRejected {
            detail: "bad magic".into(),
        });
        round_trip_response(Response::Flushed {
            epoch: 1,
            version: 9,
            ticks: 4,
        });
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::ServerError {
            detail: "oops".into(),
        });
        round_trip_response(Response::ProtocolRejected {
            detail: "unknown opcode".into(),
        });
        round_trip_response(Response::Welcome {
            version: PROTOCOL_VERSION,
            max_inflight: 32,
            graphs: vec![
                GraphInfo {
                    id: 0,
                    name: "torus-30x30".into(),
                    n: 900,
                    m: 1800,
                },
                GraphInfo {
                    id: 1,
                    name: "snap".into(),
                    n: 10,
                    m: 9,
                },
            ],
        });
        round_trip_response(Response::Welcome {
            version: PROTOCOL_VERSION,
            max_inflight: 1,
            graphs: vec![],
        });
    }

    #[test]
    fn v2_headers_round_trip_and_reject_short_payloads() {
        let req = Request::Lookup { stable: 42 };
        let payload = encode_v2_request(u64::MAX, 7, &req);
        let (rid, gid, body) = decode_v2_request_header(&payload).unwrap();
        assert_eq!((rid, gid), (u64::MAX, 7));
        assert_eq!(Request::decode(body).unwrap(), req);
        assert_eq!(decode_v2_request(&payload).unwrap(), (u64::MAX, 7, req));

        let resp = Response::ShuttingDown;
        let payload = encode_v2_response(99, &resp);
        assert_eq!(decode_v2_response(&payload).unwrap(), (99, resp));

        // Payloads shorter than the headers are typed Truncated errors.
        assert!(matches!(
            decode_v2_request_header(&[0u8; 11]),
            Err(ProtocolError::Truncated {
                expected: V2_REQUEST_HEADER,
                ..
            })
        ));
        assert!(matches!(
            decode_v2_response(&[0u8; 7]),
            Err(ProtocolError::Truncated {
                expected: V2_RESPONSE_HEADER,
                ..
            })
        ));
        // A well-formed header over a garbage body still surfaces the id,
        // so the daemon can tag its ProtocolRejected answer.
        let mut evil = Vec::new();
        evil.extend_from_slice(&5u64.to_le_bytes());
        evil.extend_from_slice(&0u32.to_le_bytes());
        evil.push(0xfe);
        let (rid, _gid, body) = decode_v2_request_header(&evil).unwrap();
        assert_eq!(rid, 5);
        assert_eq!(
            Request::decode(body),
            Err(ProtocolError::UnknownOpcode(0xfe))
        );
    }

    #[test]
    fn hostile_swap_paths_are_rejected_at_decode_time() {
        // Embedded NUL: classic truncation smuggling. Typed reject.
        let evil = Request::Swap {
            path: "/tmp/ok.bin\0/etc/shadow".into(),
        };
        assert_eq!(
            Request::decode(&evil.encode()),
            Err(ProtocolError::NulInPath)
        );

        // Over-long path: rejected by the protocol cap, not the filesystem.
        let long = Request::Swap {
            path: "x".repeat(MAX_SWAP_PATH + 1),
        };
        assert_eq!(
            Request::decode(&long.encode()),
            Err(ProtocolError::PathTooLong {
                len: MAX_SWAP_PATH + 1,
                max: MAX_SWAP_PATH,
            })
        );
        // Exactly at the cap is fine.
        let max = Request::Swap {
            path: "x".repeat(MAX_SWAP_PATH),
        };
        assert_eq!(Request::decode(&max.encode()).unwrap(), max);
    }

    #[test]
    fn malformed_payloads_yield_typed_errors() {
        assert_eq!(Request::decode(&[]), Err(ProtocolError::EmptyFrame));
        // 0xff was never assigned; 0x05 and 0x86 (the retired shard
        // introspection pair) decode like any other unknown opcode.
        for op in [0xff, 0x05] {
            assert_eq!(
                Request::decode(&[op]),
                Err(ProtocolError::UnknownOpcode(op))
            );
        }
        for op in [0xff, 0x86] {
            assert_eq!(
                Response::decode(&[op]),
                Err(ProtocolError::UnknownOpcode(op))
            );
        }
        // Truncated lookup body.
        assert!(matches!(
            Request::decode(&[0x01, 1, 2]),
            Err(ProtocolError::Truncated { .. })
        ));
        // Trailing garbage after a complete message.
        assert_eq!(
            Request::decode(&[0x03, 0x00]),
            Err(ProtocolError::TrailingBytes { extra: 1 })
        );
        // A count prefix that cannot fit in the remaining bytes is refused
        // before allocation.
        let mut huge = vec![0x02];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Request::decode(&huge),
            Err(ProtocolError::CountTooLarge { .. })
        ));
        // Invalid UTF-8 in a swap path.
        let mut bad = vec![0x06];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Request::decode(&bad), Err(ProtocolError::BadUtf8));
        // Unknown tags inside response bodies.
        let mut resp = vec![0x81];
        resp.extend_from_slice(&[0u8; 16]);
        resp.push(9);
        assert!(matches!(
            Response::decode(&resp),
            Err(ProtocolError::UnknownTag { .. })
        ));
    }

    #[test]
    fn framing_round_trips_and_rejects_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0x03]).unwrap();
        write_frame(&mut buf, &[0x04]).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(vec![0x03]));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(vec![0x04]));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);

        // Oversize and zero-length declarations are protocol errors.
        let mut oversize = Vec::new();
        oversize.extend_from_slice(&((MAX_FRAME_LEN + 1) as u32).to_le_bytes());
        let mut cursor = std::io::Cursor::new(oversize);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Protocol(ProtocolError::FrameTooLarge { .. }))
        ));
        let mut cursor = std::io::Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Protocol(ProtocolError::EmptyFrame))
        ));
        // EOF inside a declared frame is Truncated, not a clean close.
        let mut partial = Vec::new();
        partial.extend_from_slice(&8u32.to_le_bytes());
        partial.extend_from_slice(&[1, 2, 3]);
        let mut cursor = std::io::Cursor::new(partial);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Protocol(ProtocolError::Truncated { .. }))
        ));
        assert!(matches!(
            write_frame(&mut Vec::new(), &[]),
            Err(WireError::Protocol(ProtocolError::EmptyFrame))
        ));
    }
}
