//! # edgecolor
//!
//! A reproduction of the algorithms of *Distributed Edge Coloring in Time
//! Polylogarithmic in Δ* (Balliu, Brandt, Kuhn, Olivetti; PODC 2022).
//!
//! The crate implements, on top of the [`distgraph`] graph substrate and the
//! [`distsim`] LOCAL/CONGEST round simulator:
//!
//! * the **generalized token dropping game** and its distributed solver
//!   (Section 4, Theorem 4.3) — [`token_dropping`];
//! * **generalized balanced edge orientations** (Definition 5.2, Theorem 5.6)
//!   — [`balanced_orientation`];
//! * **generalized defective 2-edge coloring** (Definition 5.1,
//!   Corollary 5.7) — [`defective_edge`];
//! * the **Linial-style `O(Δ²)`-coloring** in `O(log* n)` rounds and the
//!   **defective vertex coloring** substrate of \[11\] — [`linial`],
//!   [`defective_vertex`];
//! * the **`(2+ε)Δ`-edge coloring of 2-colored bipartite graphs**
//!   (Lemma 6.1) — [`bipartite_coloring`];
//! * the **`(8+ε)Δ`-edge coloring in CONGEST** (Theorem 1.2) —
//!   [`congest_coloring`];
//! * the **`(degree+1)`-list edge coloring in LOCAL** (Theorem 1.1) —
//!   [`list_coloring`];
//! * the **dynamic recoloring subsystem** — local repair of a maintained
//!   coloring after edge insert/delete batches, reusing the Theorem 1.1
//!   machinery on the affected subgraph only — [`recolor`];
//! * the **self-stabilizing repair layer** — detection of post-fault
//!   conflicts (stale colors after crashes, drops or severed shard links of
//!   a `distsim` fault plan) via the incremental `check_delta` certificate
//!   and healing through the same dirty-subgraph machinery — [`stabilize`].
//!
//! # Quick start
//!
//! ```
//! use distgraph::generators;
//! use distsim::IdAssignment;
//! use edgecolor::{color_edges_local, ColoringParams, ParamProfile};
//!
//! // A random 6-regular graph on 40 nodes.
//! let graph = generators::random_regular(40, 6, 7).unwrap();
//! let ids = IdAssignment::scattered(graph.n(), 1);
//! let outcome = color_edges_local(&graph, &ids, &ColoringParams::new(0.5))?;
//! assert!(outcome.coloring.is_complete());
//! assert!(outcome.coloring.palette_size() <= 2 * graph.max_degree() - 1);
//!
//! // The same run with the practical-profile parameters spelled out. Runs
//! // are deterministic: colorings, metrics and ledgers are bit-identical.
//! let params = ColoringParams {
//!     profile: ParamProfile::Practical,
//!     ..ColoringParams::new(0.5)
//! };
//! let again = color_edges_local(&graph, &ids, &params)?;
//! assert_eq!(again.coloring, outcome.coloring);
//! assert_eq!(again.metrics, outcome.metrics);
//! # Ok::<(), edgecolor::ColoringError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balanced_orientation;
pub mod bipartite_coloring;
pub mod congest_coloring;
pub mod defective_edge;
pub mod defective_vertex;
pub mod error;
pub mod greedy_finish;
pub mod linial;
pub mod list_coloring;
pub mod params;
pub mod recolor;
pub mod stabilize;
pub mod token_dropping;

pub use congest_coloring::{color_congest, CongestColoringResult};
pub use error::ColoringError;
pub use list_coloring::{
    color_edges_local, default_palette, list_edge_coloring, ListColoringOutcome,
};
pub use params::{ColoringParams, OrientationParams, ParamProfile};
pub use recolor::{Recoloring, RepairReport};
pub use stabilize::{SelfStabilizing, StabilizationReport};
