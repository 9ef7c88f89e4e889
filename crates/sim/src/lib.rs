//! # distsim
//!
//! A synchronous-round simulator for the LOCAL and CONGEST models of
//! distributed computing (Section 2 of *Distributed Edge Coloring in Time
//! Polylogarithmic in Δ*, PODC 2022).
//!
//! Every algorithm runs on one round engine, [`Network`]: it calls
//! [`Network::exchange`], [`Network::exchange_sync`] or
//! [`Network::broadcast`] once per communication round, and the network
//! delivers the messages, charges the round and accounts message sizes
//! (flagging CONGEST violations). The composed coloring algorithms of the
//! `edgecolor` crate and the experiment workloads run on it; stages that
//! are simulated in shared memory (the token dropping game among them)
//! charge their rounds to it ([`Network::charge_rounds`]).
//!
//! Rounds execute under an [`ExecutionPolicy`]: the default `Sequential`
//! walks all nodes on one thread, while `Parallel { threads }` runs each
//! round's per-node send closures on a scoped worker pool over contiguous
//! node chunks ([`Network::with_policy`]). Because a node's messages depend
//! only on its own state, the engine merges per-chunk messages and metrics
//! deterministically and its results are bit-identical to the sequential
//! path at any thread count.
//!
//! A network can additionally run under a seed-driven **fault adversary**
//! ([`faults`]): message drops/duplicates/delays with per-edge rates, node
//! crash/restart windows, shard-link partitions that heal and adversarial
//! message reordering ([`FaultPlan::with_reordering`]). Same seed + same
//! [`FaultPlan`] ⇒ bit-identical run under every execution policy
//! ([`Network::install_faults`]).
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

pub use executor::{
    for_each_chunk_mut, for_each_chunk_mut_in, host_parallelism, map_chunks, map_chunks_with,
    Chunks, ExecutionPolicy,
};
pub use faults::{CrashWindow, FaultPlan, FaultRates, FaultStats, LinkPartition};
pub use identifiers::IdAssignment;
pub use ledger::{LedgerEntry, LedgerSummaryRow, RoundLedger};
pub use metrics::Metrics;
pub use model::Model;
pub use network::{Incoming, Mailboxes, Network};
pub use payload::{bits_for, Payload};
