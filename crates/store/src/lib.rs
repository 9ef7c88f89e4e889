//! # diststore
//!
//! Out-of-core graph substrate for the reproduction of *Distributed Edge
//! Coloring in Time Polylogarithmic in Δ* (PODC 2022): versioned binary
//! snapshots of graphs, colorings, stable-id tables and node permutations,
//! with a zero-copy read path.
//!
//! Three ways to get a graph off disk, from slowest to fastest:
//!
//! 1. **Text parse** — [`read_edge_list`] through
//!    [`distgraph::Graph::from_edges`] (integer parsing, hashing, sorting);
//! 2. **Binary decode** — [`Snapshot::open`] + [`LoadedSnapshot::load`]
//!    through [`distgraph::Graph::from_csr_parts`] (validated `memcpy`-level
//!    decoding, no hashing or sorting);
//! 3. **Zero-copy open** — [`Snapshot::open`] + [`Snapshot::view`]: serve
//!    `degree`/`neighbors`/`endpoints`/`color` straight from the file bytes
//!    without materializing anything.
//!
//! The format (magic + version + checksummed section table, see
//! `docs/SNAPSHOTS.md`) is hand-rolled over `std`; every corruption mode
//! returns a typed [`SnapshotError`], never a panic — property-tested by the
//! corruption battery in `tests/`.
//!
//! # Examples
//!
//! ```
//! use diststore::{LoadedSnapshot, Snapshot, SnapshotSource};
//! use distgraph::{generators, reorder_permutation, ReorderStrategy};
//! use distsim::Model;
//!
//! // Reorder for locality, snapshot with the permutation attached.
//! let g = generators::grid_torus(8, 8);
//! let perm = reorder_permutation(&g, ReorderStrategy::Rcm);
//! let reordered = g.renumber_nodes(&perm);
//! let bytes = SnapshotSource::graph(&reordered)
//!     .with_permutation(&perm)
//!     .encode()?;
//!
//! // Zero-copy: query without materializing.
//! let snap = Snapshot::from_bytes(bytes)?;
//! assert_eq!(snap.view().n(), 64);
//!
//! // Materialize and drive a simulator round.
//! let loaded = LoadedSnapshot::load(&snap)?;
//! let mut net = loaded.network(Model::Local);
//! net.broadcast(|v| loaded.graph().degree(v) as u64);
//! assert_eq!(net.rounds(), 1);
//! # Ok::<(), diststore::SnapshotError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod format;
mod load;
mod text;
mod view;

pub use error::SnapshotError;
pub use format::{SnapshotSource, MAGIC, VERSION};
pub use load::{load_graph, LoadedSnapshot};
pub use text::{parse_edge_list, read_edge_list, write_edge_list};
pub use view::{Snapshot, SnapshotView, U32s};
