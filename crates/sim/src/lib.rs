//! # distsim
//!
//! A synchronous-round simulator for the LOCAL and CONGEST models of
//! distributed computing (Section 2 of *Distributed Edge Coloring in Time
//! Polylogarithmic in Δ*, PODC 2022).
//!
//! Two execution layers are provided:
//!
//! * [`Network`] — the orchestrated layer: algorithms call
//!   [`Network::exchange`]/[`Network::broadcast`] once per communication
//!   round; the network delivers messages, charges rounds and accounts
//!   message sizes (flagging CONGEST violations). The composed coloring
//!   algorithms of the `edgecolor` crate run on this layer.
//! * [`NodeProgram`]/[`run_program`] — the strict layer: one state machine
//!   per node, seeing only its own port-numbered neighborhood, its unique
//!   identifier, `n` and `Δ`. Unit algorithms (flooding, BFS, the token
//!   dropping phases) are implemented against this layer to demonstrate
//!   locality.
//!
//! Both layers execute rounds under an [`ExecutionPolicy`]: the default
//! `Sequential` walks all nodes on one thread, while `Parallel { threads }`
//! runs each round's per-node work on a scoped worker pool over contiguous
//! node chunks ([`Network::with_policy`], [`run_program_with`]). Because a
//! node's round action depends only on its own state and inbox, the parallel
//! engine merges per-chunk messages and metrics deterministically and its
//! results are bit-identical to the sequential path at any thread count.
//!
//! Both layers can additionally run under a seed-driven **fault adversary**
//! ([`faults`]): message drops/duplicates/delays with per-edge rates, node
//! crash/restart windows, and shard-link partitions that heal, plus the
//! [`AsyncScheduler`]'s adversarial message reordering. Same seed + same
//! [`FaultPlan`] ⇒ bit-identical run under every execution policy
//! ([`Network::install_faults`], [`run_program_under_faults`]).
//!
//! # Examples
//!
//! ```
//! use distgraph::generators;
//! use distsim::{Model, Network};
//!
//! let g = generators::cycle(6);
//! let mut net = Network::new(&g, Model::Local);
//! // One round in which every node tells its neighbors its degree.
//! let mail = net.broadcast(|v| g.degree(v) as u64);
//! assert_eq!(net.rounds(), 1);
//! assert_eq!(mail.inbox(distgraph::NodeId::new(0)).len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
pub mod faults;
mod identifiers;
mod ledger;
mod metrics;
mod model;
mod network;
mod payload;
mod program;

pub use executor::{
    for_each_chunk_mut, for_each_chunk_mut_in, host_parallelism, map_chunks, map_chunks_with,
    Chunks, ExecutionPolicy,
};
pub use faults::{AsyncScheduler, CrashWindow, FaultPlan, FaultRates, FaultStats, LinkPartition};
pub use identifiers::IdAssignment;
pub use ledger::{LedgerEntry, LedgerSummaryRow, RoundLedger};
pub use metrics::Metrics;
pub use model::Model;
pub use network::{Incoming, Mailboxes, Network};
pub use payload::{bits_for, Payload};
pub use program::{
    run_program, run_program_under_faults, run_program_with, NodeCtx, NodeProgram, ProgramRun, Step,
};
