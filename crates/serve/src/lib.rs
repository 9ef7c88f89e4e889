//! Edge-coloring as a service: a long-lived daemon over live snapshots.
//!
//! This crate is the front door of the reproduction's serving story. It
//! owns a loaded snapshot ([`diststore`]) materialized into a
//! [`distgraph::DynamicGraph`], maintains a live
//! [`edgecolor::Recoloring`] session wrapped in
//! [`edgecolor::SelfStabilizing`], and speaks a hand-rolled,
//! length-prefixed TCP protocol over `std::net` — no async runtime, no
//! network dependencies, offline-friendly.
//!
//! The pipeline is **request → admit → coalesce → repair → respond**:
//!
//! * **Lookups** (color by stable [`distgraph::EdgeId`]) are answered off an
//!   epoch-pinned immutable state — readers never block writers and never
//!   observe torn state ([`state`] module docs).
//! * **Submissions** pass bounded-queue admission control with typed
//!   rejects ([`wire::RejectCode`]); each tick coalesces every admitted
//!   batch into *one* [`distgraph::UpdateBatch`] and one local repair —
//!   the paper's Theorem 1.1 machinery recoloring only the dirty subgraph,
//!   which is what makes low-latency online serving plausible at all.
//! * **Multi-graph serving** (protocol v2): one daemon hosts a registry of
//!   independent tenants, each with its own admission queue, tick loop,
//!   epoch chain and swap contract, routed by the `graph_id` field in the
//!   v2 frame header. A connection that does not open with the
//!   [`wire::Request::Hello`] handshake is rejected and closed.
//! * **Pipelined connections**: a v2 connection decouples reads from
//!   writes (reader → per-graph executors → bounded response queue →
//!   writer), so a slow repair on one graph never stalls lookups on
//!   another; responses carry the originating `request_id` and may
//!   complete out of order across graphs.
//! * **Hot swap** replaces a served snapshot under an epoch bump;
//!   in-flight reads finish on the old epoch, and a corrupt snapshot is
//!   rejected with the old one still serving.
//! * **Introspection** (metrics with full latency [`hist`]ograms and
//!   palette) and a deterministic [`loadgen`] close the loop for the bench
//!   layer's `SERVE` experiment.
//!
//! See `docs/SERVE.md` for the frame format, handshake, admission
//! semantics and the hot-swap epoch contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod error;
pub mod hist;
pub mod loadgen;
pub mod state;
pub mod wire;

pub use client::{Admitted, Client, ClientBuilder, PipelinedClient, Rejection, Ticket};
pub use daemon::DaemonHandle;
pub use error::{ClientError, ProtocolError, SetupError, WireError};
pub use hist::{LatencyHistogram, HIST_BUCKETS};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use state::{EpochState, ServeConfig, ServerCore, Tenant};
pub use wire::{
    GraphInfo, LookupOutcome, MetricsReport, RejectCode, Request, Response, MAX_FRAME_LEN,
    MAX_SWAP_PATH, PROTOCOL_VERSION,
};
