//! Materializing snapshots into workspace types and wiring them into the
//! round simulator.
//!
//! [`LoadedSnapshot::load`] turns an opened [`Snapshot`] into owned
//! [`distgraph`] values via [`Graph::from_csr_parts`] — the fast decode path
//! that skips the hashing and per-node sorting of `Graph::from_edges` — and
//! [`LoadedSnapshot::network`] hands the graph to [`distsim::Network`] so a
//! snapshot goes from file to first runnable round in one call chain.

use crate::error::SnapshotError;
use crate::view::Snapshot;
use distgraph::{DynamicGraph, EdgeColoring, EdgeId, Graph, Neighbor, NodeId, NodePermutation};
use distsim::{Model, Network};
use std::path::Path;

/// Decodes the snapshot's structure sections into an owned [`Graph`].
///
/// Streams the raw section arrays into vectors and hands them to
/// [`Graph::from_csr_parts_trusted`]: [`Snapshot::open`] already proved
/// every invariant `Graph::from_csr_parts` would check on the file bytes
/// themselves, so materialization is a plain `O(n + m)` copy with no second
/// validation walk — this is most of the gap between the `binary_decode`
/// and `zero_copy_open` rows of the IO benchmark.
///
/// # Errors
///
/// None today (the signature keeps `Result` so decode-time validation can
/// return if the format ever grows sections the open path cannot fully
/// prove).
pub fn load_graph(snapshot: &Snapshot) -> Result<Graph, SnapshotError> {
    let view = snapshot.view();
    let offsets: Vec<usize> = view.csr_offsets().iter().map(|o| o as usize).collect();
    let (adjn, adje) = view.adj_arrays();
    let adj: Vec<Neighbor> = adjn
        .iter()
        .zip(adje.iter())
        .map(|(node, edge)| Neighbor {
            node: NodeId(node),
            edge: EdgeId(edge),
        })
        .collect();
    let endpoints: Vec<(NodeId, NodeId)> = view
        .endpoint_array()
        .iter_pairs()
        .map(|(u, v)| (NodeId(u), NodeId(v)))
        .collect();
    Ok(Graph::from_csr_parts_trusted(offsets, adj, endpoints))
}

/// A fully materialized snapshot: the graph plus whatever optional payloads
/// the file carried, ready to drive algorithms and the simulator.
#[derive(Debug, Clone)]
pub struct LoadedSnapshot {
    graph: Graph,
    coloring: Option<EdgeColoring>,
    stable: Option<(Vec<EdgeId>, usize)>,
    permutation: Option<NodePermutation>,
}

impl LoadedSnapshot {
    /// Materializes every section of an opened snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Graph`] if any decoded structure fails the graph
    /// crate's validation.
    pub fn load(snapshot: &Snapshot) -> Result<Self, SnapshotError> {
        let view = snapshot.view();
        let graph = load_graph(snapshot)?;
        let coloring = view.has_coloring().then(|| {
            EdgeColoring::from_vec((0..graph.m()).map(|e| view.color(EdgeId::new(e))).collect())
        });
        let stable = view.has_stable_ids().then(|| {
            let table: Vec<EdgeId> = (0..graph.m())
                .map(|e| view.stable_id(EdgeId::new(e)).expect("table present"))
                .collect();
            (table, view.next_stable_id())
        });
        let permutation = match view.has_permutation() {
            true => Some(NodePermutation::from_old_of_new(
                (0..graph.n())
                    .map(|v| {
                        view.original_id(NodeId::new(v))
                            .expect("permutation present")
                            .0
                    })
                    .collect(),
            )?),
            false => None,
        };
        Ok(LoadedSnapshot {
            graph,
            coloring,
            stable,
            permutation,
        })
    }

    /// Opens, validates and materializes the snapshot file at `path`.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from opening or materialization.
    pub fn load_path(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::load(&Snapshot::open(path)?)
    }

    /// The materialized graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The stored edge coloring, if the snapshot carried one.
    pub fn coloring(&self) -> Option<&EdgeColoring> {
        self.coloring.as_ref()
    }

    /// The stored node permutation, if the snapshot carried one.
    pub fn permutation(&self) -> Option<&NodePermutation> {
        self.permutation.as_ref()
    }

    /// Returns `true` if the snapshot carried a stable-id table.
    pub fn has_stable_ids(&self) -> bool {
        self.stable.is_some()
    }

    /// Rebuilds the [`DynamicGraph`] this snapshot was taken from,
    /// consuming the loaded state. Snapshots without a stable-id table
    /// resume with the identity table (stable id = current id), exactly
    /// what `DynamicGraph::new` would assign.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Graph`] if the stable table is inconsistent
    /// (repeated ids — open-time checks already bounded them).
    pub fn into_dynamic(self) -> Result<DynamicGraph, SnapshotError> {
        match self.stable {
            Some((table, next)) => Ok(DynamicGraph::from_saved(self.graph, table, next)?),
            None => {
                let m = self.graph.m();
                let table: Vec<EdgeId> = (0..m).map(EdgeId::new).collect();
                Ok(DynamicGraph::from_saved(self.graph, table, m)?)
            }
        }
    }

    /// A simulator network over the loaded graph — the "first runnable
    /// round" endpoint of the cold-start path measured by the IO benchmark.
    pub fn network(&self, model: Model) -> Network<'_> {
        Network::new(&self.graph, model)
    }
}
