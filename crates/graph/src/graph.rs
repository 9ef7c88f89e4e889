//! The core undirected simple graph type used by every other crate.
//!
//! The representation is a compressed adjacency list (CSR): for each node a
//! contiguous slice of [`Neighbor`] entries, each carrying the neighbor's
//! [`NodeId`] and the [`EdgeId`] of the connecting edge. Edge endpoints are
//! stored separately so that edge-centric algorithms (everything in the
//! reproduced paper operates on the line graph) can go from an edge to its
//! endpoints in O(1).

use crate::error::GraphError;
use crate::ids::{EdgeId, NodeId};
use std::collections::HashSet;

/// One adjacency entry: the neighboring node and the edge connecting to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Neighbor {
    /// The neighboring node.
    pub node: NodeId,
    /// The undirected edge connecting to that node.
    pub edge: EdgeId,
}

/// An undirected simple graph with dense node and edge identifiers.
///
/// # Examples
///
/// ```
/// use distgraph::Graph;
///
/// // A path on four nodes: 0 - 1 - 2 - 3
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.max_degree(), 2);
/// // The middle edge is adjacent to two other edges in the line graph.
/// let e = g.edge_between(1.into(), 2.into()).unwrap();
/// assert_eq!(g.edge_degree(e), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets, length `n + 1`.
    offsets: Vec<usize>,
    /// Concatenated adjacency lists, length `2 m`, sorted by neighbor id
    /// within each node's slice.
    adj: Vec<Neighbor>,
    /// Endpoints of every edge; the pair is stored with the smaller node first.
    endpoints: Vec<(NodeId, NodeId)>,
}

impl Graph {
    /// Builds a graph with `n` nodes from a list of undirected edges.
    ///
    /// Edge identifiers are assigned in the order the edges appear in
    /// `edges`.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, an edge is a self
    /// loop, the same edge appears twice, or the node/edge counts exceed the
    /// `u32` identifier space ([`GraphError::IndexOverflow`] — checked up
    /// front, before any allocation is sized from the counts).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        // Guard the identifier space before sizing any allocation from the
        // counts: a corrupt header asking for u32::MAX + 2 nodes must
        // surface as a typed error, not as an `expect` panic (or a huge
        // allocation) deep inside CSR construction.
        if n > u32::MAX as usize + 1 {
            return Err(GraphError::IndexOverflow {
                what: "node count",
                index: n as u64,
            });
        }
        if edges.len() > u32::MAX as usize + 1 {
            return Err(GraphError::IndexOverflow {
                what: "edge count",
                index: edges.len() as u64,
            });
        }
        let mut seen: HashSet<(usize, usize)> = HashSet::with_capacity(edges.len());
        let mut endpoints = Vec::with_capacity(edges.len());
        let mut degree = vec![0usize; n];
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            let key = (u.min(v), u.max(v));
            if !seen.insert(key) {
                return Err(GraphError::DuplicateEdge { u, v });
            }
            degree[u] += 1;
            degree[v] += 1;
            endpoints.push((NodeId::new(key.0), NodeId::new(key.1)));
        }

        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![
            Neighbor {
                node: NodeId::new(0),
                edge: EdgeId::new(0)
            };
            offsets[n]
        ];
        for (idx, &(a, b)) in endpoints.iter().enumerate() {
            let e = EdgeId::new(idx);
            adj[cursor[a.index()]] = Neighbor { node: b, edge: e };
            cursor[a.index()] += 1;
            adj[cursor[b.index()]] = Neighbor { node: a, edge: e };
            cursor[b.index()] += 1;
        }
        // Sort each node's adjacency slice by neighbor id for deterministic
        // iteration order and O(log deg) edge lookup.
        for v in 0..n {
            adj[offsets[v]..offsets[v + 1]].sort_by_key(|nb| nb.node);
        }
        Ok(Graph {
            offsets,
            adj,
            endpoints,
        })
    }

    /// Builds a graph from edges given as `NodeId` pairs.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Graph::from_edges`].
    pub fn from_node_id_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let raw: Vec<(usize, usize)> = edges.iter().map(|&(u, v)| (u.index(), v.index())).collect();
        Self::from_edges(n, &raw)
    }

    /// Rebuilds a graph directly from already-materialized CSR parts — the
    /// fast path for binary snapshot decoding, which skips the hashing and
    /// per-node sorting of [`Graph::from_edges`] but still validates every
    /// structural invariant the rest of the workspace relies on.
    ///
    /// Expected shape (exactly what [`Graph::from_edges`] produces):
    /// `offsets` has length `n + 1`, starts at 0, is monotone and ends at
    /// `adj.len() == 2 * endpoints.len()`; each node's adjacency slice is
    /// strictly sorted by neighbor id; every endpoint pair is stored smaller
    /// node first; and each adjacency entry `(w, e)` at node `v` agrees with
    /// `endpoints[e] == (min(v, w), max(v, w))`, with every edge appearing
    /// exactly twice.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCsr`] describing the first violated
    /// invariant, or [`GraphError::IndexOverflow`] if the counts exceed the
    /// `u32` identifier space. The input is validated in `O(n + m)` without
    /// panicking, so corrupt snapshot payloads surface as typed errors.
    pub fn from_csr_parts(
        offsets: Vec<usize>,
        adj: Vec<Neighbor>,
        endpoints: Vec<(NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        let invalid = |detail: String| GraphError::InvalidCsr { detail };
        if offsets.is_empty() {
            return Err(invalid("offsets array is empty".to_string()));
        }
        let n = offsets.len() - 1;
        let m = endpoints.len();
        if n > u32::MAX as usize + 1 {
            return Err(GraphError::IndexOverflow {
                what: "node count",
                index: n as u64,
            });
        }
        if m > u32::MAX as usize + 1 {
            return Err(GraphError::IndexOverflow {
                what: "edge count",
                index: m as u64,
            });
        }
        if offsets[0] != 0 {
            return Err(invalid(format!("offsets[0] is {}, expected 0", offsets[0])));
        }
        if adj.len() != 2 * m {
            return Err(invalid(format!(
                "adjacency has {} entries, expected 2m = {}",
                adj.len(),
                2 * m
            )));
        }
        if offsets[n] != adj.len() {
            return Err(invalid(format!(
                "offsets end at {}, expected adjacency length {}",
                offsets[n],
                adj.len()
            )));
        }
        for (u, v) in &endpoints {
            if u.index() >= n || v.index() >= n {
                return Err(invalid(format!("endpoint pair ({u}, {v}) out of range")));
            }
            if u >= v {
                return Err(invalid(format!(
                    "endpoint pair ({u}, {v}) not stored smaller-first (or self loop)"
                )));
            }
        }
        // Each edge must appear exactly twice in the adjacency, once per
        // endpoint; `seen` counts appearances without hashing.
        let mut seen = vec![0u8; m];
        for v in 0..n {
            let (start, end) = (offsets[v], offsets[v + 1]);
            if start > end {
                return Err(invalid(format!("offsets not monotone at node {v}")));
            }
            let slice = &adj[start..end];
            for (i, nb) in slice.iter().enumerate() {
                if i > 0 && slice[i - 1].node >= nb.node {
                    return Err(invalid(format!(
                        "adjacency of node {v} not strictly sorted by neighbor id"
                    )));
                }
                let e = nb.edge.index();
                if e >= m {
                    return Err(invalid(format!("adjacency edge {} out of range", nb.edge)));
                }
                let (a, b) = endpoints[e];
                let (lo, hi) = if v < nb.node.index() {
                    (NodeId::new(v), nb.node)
                } else {
                    (nb.node, NodeId::new(v))
                };
                if (a, b) != (lo, hi) {
                    return Err(invalid(format!(
                        "adjacency entry ({}, {}) at node {v} disagrees with endpoints[{e}] = ({a}, {b})",
                        nb.node, nb.edge
                    )));
                }
                if seen[e] >= 2 {
                    return Err(invalid(format!("edge {} appears more than twice", nb.edge)));
                }
                seen[e] += 1;
            }
        }
        // Counts line up: adjacency length is 2m and no edge exceeded two
        // appearances, so every edge appeared exactly twice.
        Ok(Graph {
            offsets,
            adj,
            endpoints,
        })
    }

    /// Builds a graph from CSR parts the caller has *already validated* to
    /// satisfy every invariant [`Graph::from_csr_parts`] checks, skipping
    /// the second `O(n + m)` walk. The binary snapshot decoder uses this:
    /// open-time validation proves the same invariants on the raw file
    /// bytes, so materialization becomes a plain copy.
    ///
    /// This is a safe function — handing it inconsistent parts can only
    /// produce a structurally inconsistent `Graph` (wrong answers or
    /// panics from *later* accessor calls), never memory unsafety. Debug
    /// builds re-run the full validation and panic on a violation, so test
    /// suites catch any caller that breaks the contract.
    pub fn from_csr_parts_trusted(
        offsets: Vec<usize>,
        adj: Vec<Neighbor>,
        endpoints: Vec<(NodeId, NodeId)>,
    ) -> Self {
        #[cfg(debug_assertions)]
        if let Err(e) = Self::from_csr_parts(offsets.clone(), adj.clone(), endpoints.clone()) {
            panic!("from_csr_parts_trusted called with invalid CSR parts: {e}");
        }
        Graph {
            offsets,
            adj,
            endpoints,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.endpoints.len()
    }

    /// Iterator over all node identifiers `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n()).map(NodeId::new)
    }

    /// Iterator over all edge identifiers `0..m`.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.m()).map(EdgeId::new)
    }

    /// The CSR adjacency offsets (length `n + 1`): node `v`'s neighbor
    /// slice is indexed by `offsets[v]..offsets[v + 1]`, so `offsets` is
    /// also the prefix sum of the degree sequence. Exposed for
    /// degree-weighted work partitioning.
    #[inline]
    pub fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// The adjacency list of node `v` (sorted by neighbor id).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[Neighbor] {
        &self.adj[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Iterator over the edges incident to `v`.
    pub fn incident_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.neighbors(v).iter().map(|nb| nb.edge)
    }

    /// The two endpoints of edge `e` (smaller node id first).
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.endpoints[e.index()]
    }

    /// The endpoint of `e` different from `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints(e);
        if a == v {
            b
        } else if b == v {
            a
        } else {
            panic!("{v} is not an endpoint of {e}");
        }
    }

    /// Returns `true` if `v` is an endpoint of `e`.
    #[inline]
    pub fn is_endpoint(&self, e: EdgeId, v: NodeId) -> bool {
        let (a, b) = self.endpoints(e);
        a == v || b == v
    }

    /// The degree of edge `e` in the line graph of the graph,
    /// i.e. `deg(u) + deg(v) - 2` for `e = {u, v}` (Section 2 of the paper).
    #[inline]
    pub fn edge_degree(&self, e: EdgeId) -> usize {
        let (u, v) = self.endpoints(e);
        self.degree(u) + self.degree(v) - 2
    }

    /// Maximum node degree Δ (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n())
            .map(|v| self.degree(NodeId::new(v)))
            .max()
            .unwrap_or(0)
    }

    /// Maximum edge degree Δ̄ over all edges (0 for an edgeless graph).
    ///
    /// The paper writes Δ̄ for this quantity and uses the bound Δ̄ ≤ 2Δ − 2.
    pub fn max_edge_degree(&self) -> usize {
        (0..self.m())
            .map(|e| self.edge_degree(EdgeId::new(e)))
            .max()
            .unwrap_or(0)
    }

    /// Looks up the edge between `u` and `v`, if it exists.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (probe, target) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let slice = self.neighbors(probe);
        slice
            .binary_search_by_key(&target, |nb| nb.node)
            .ok()
            .map(|i| slice[i].edge)
    }

    /// Returns `true` if an edge between `u` and `v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// All edges adjacent to `e` in the line graph (sharing an endpoint),
    /// excluding `e` itself.
    pub fn adjacent_edges(&self, e: EdgeId) -> Vec<EdgeId> {
        let (u, v) = self.endpoints(e);
        let mut out = Vec::with_capacity(self.edge_degree(e));
        for nb in self.neighbors(u).iter().chain(self.neighbors(v)) {
            if nb.edge != e {
                out.push(nb.edge);
            }
        }
        out
    }

    /// All edges as `(EdgeId, u, v)` triples.
    pub fn edge_list(&self) -> Vec<(EdgeId, NodeId, NodeId)> {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (EdgeId::new(i), u, v))
            .collect()
    }

    /// Attempts to 2-color the nodes by BFS; returns the side of every node or
    /// `None` if the graph contains an odd cycle.
    ///
    /// Isolated components are colored starting from their smallest node id on
    /// side `U`, which makes the result deterministic.
    pub fn bipartition(&self) -> Option<Vec<crate::ids::Side>> {
        use crate::ids::Side;
        let n = self.n();
        let mut side: Vec<Option<Side>> = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n {
            if side[start].is_some() {
                continue;
            }
            side[start] = Some(Side::U);
            queue.push_back(NodeId::new(start));
            while let Some(v) = queue.pop_front() {
                let sv = side[v.index()].expect("queued nodes have a side");
                for nb in self.neighbors(v) {
                    match side[nb.node.index()] {
                        None => {
                            side[nb.node.index()] = Some(sv.opposite());
                            queue.push_back(nb.node);
                        }
                        Some(s) if s == sv => return None,
                        Some(_) => {}
                    }
                }
            }
        }
        Some(
            side.into_iter()
                .map(|s| s.expect("all nodes visited"))
                .collect(),
        )
    }

    /// Number of connected components.
    pub fn connected_components(&self) -> usize {
        let n = self.n();
        let mut visited = vec![false; n];
        let mut components = 0;
        let mut stack = Vec::new();
        for start in 0..n {
            if visited[start] {
                continue;
            }
            components += 1;
            visited[start] = true;
            stack.push(NodeId::new(start));
            while let Some(v) = stack.pop() {
                for nb in self.neighbors(v) {
                    if !visited[nb.node.index()] {
                        visited[nb.node.index()] = true;
                        stack.push(nb.node);
                    }
                }
            }
        }
        components
    }

    /// Builds the subgraph induced by keeping only the edges for which `keep`
    /// returns `true`. The node set is unchanged; a mapping from new edge ids
    /// to original edge ids is returned alongside the subgraph.
    ///
    /// Kept edges are renumbered in increasing original id, and the result
    /// equals [`Graph::from_edges`] on the kept endpoint pairs. It is built
    /// by filtering this graph's CSR directly: every adjacency slice is
    /// already sorted by neighbor id and free of duplicates, so a filtered
    /// slice is too, and no hashing or sorting is needed.
    pub fn edge_subgraph(&self, keep: impl Fn(EdgeId) -> bool) -> (Graph, Vec<EdgeId>) {
        // New ids are edge ids, so one `u32` each; `u32::MAX` marks a
        // dropped edge (a kept edge could carry it only in a subgraph of
        // 2^32 edges).
        const DROPPED: u32 = u32::MAX;
        let mut new_id = vec![DROPPED; self.m()];
        let mut kept_edges = Vec::new();
        let mut endpoints = Vec::new();
        for e in self.edges() {
            if keep(e) {
                new_id[e.index()] = kept_edges.len() as u32;
                kept_edges.push(e);
                endpoints.push(self.endpoints(e));
            }
        }
        let mut offsets = Vec::with_capacity(self.n() + 1);
        let mut adj = Vec::with_capacity(2 * kept_edges.len());
        offsets.push(0);
        for v in self.nodes() {
            adj.extend(self.neighbors(v).iter().filter_map(|nb| {
                let id = new_id[nb.edge.index()];
                (id != DROPPED).then_some(Neighbor {
                    node: nb.node,
                    edge: EdgeId(id),
                })
            }));
            offsets.push(adj.len());
        }
        let sub = Graph {
            offsets,
            adj,
            endpoints,
        };
        (sub, kept_edges)
    }

    /// Sum of all node degrees; equals `2 m` (handshake lemma).
    pub fn degree_sum(&self) -> usize {
        (0..self.n()).map(|v| self.degree(NodeId::new(v))).sum()
    }

    /// Builds the line graph: one node per edge of `self`, with two line-graph
    /// nodes adjacent whenever the corresponding edges share an endpoint.
    ///
    /// The line-graph node with index `i` corresponds to the edge `EdgeId(i)`
    /// of the original graph, and the maximum degree of the line graph is the
    /// maximum edge degree Δ̄ of `self`.
    pub fn line_graph(&self) -> Graph {
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for v in self.nodes() {
            let incident = self.neighbors(v);
            for i in 0..incident.len() {
                for j in (i + 1)..incident.len() {
                    let a = incident[i].edge.index();
                    let b = incident[j].edge.index();
                    edges.push((a.min(b), a.max(b)));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        Graph::from_edges(self.m(), &edges).expect("line graph edges are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Side;

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.max_edge_degree(), 0);
        assert_eq!(g.connected_components(), 0);
    }

    #[test]
    fn single_edge() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.edge_degree(EdgeId::new(0)), 0);
        assert_eq!(
            g.endpoints(EdgeId::new(0)),
            (NodeId::new(0), NodeId::new(1))
        );
        assert_eq!(
            g.other_endpoint(EdgeId::new(0), NodeId::new(0)),
            NodeId::new(1)
        );
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(3, &[(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(3, &[(0, 5)]),
            Err(GraphError::NodeOutOfRange { node: 5, n: 3 })
        );
    }

    #[test]
    fn rejects_duplicate_edge_in_either_order() {
        assert!(Graph::from_edges(3, &[(0, 1), (1, 0)]).is_err());
        assert!(Graph::from_edges(3, &[(0, 1), (0, 1)]).is_err());
    }

    #[test]
    fn path_degrees_and_edge_degrees() {
        let g = path(5);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(2)), 2);
        // middle edge (1,2): deg 1 side has degree 2, other side degree 2 => 2+2-2=2
        let e = g.edge_between(NodeId::new(1), NodeId::new(2)).unwrap();
        assert_eq!(g.edge_degree(e), 2);
        let first = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        assert_eq!(g.edge_degree(first), 1);
        assert_eq!(g.max_edge_degree(), 2);
    }

    #[test]
    fn triangle_line_graph_degrees() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        for e in g.edges() {
            assert_eq!(g.edge_degree(e), 2);
            assert_eq!(g.adjacent_edges(e).len(), 2);
        }
        assert_eq!(g.max_edge_degree(), 2);
    }

    #[test]
    fn handshake_lemma() {
        let g = path(10);
        assert_eq!(g.degree_sum(), 2 * g.m());
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
        let order: Vec<usize> = g
            .neighbors(NodeId::new(2))
            .iter()
            .map(|nb| nb.node.index())
            .collect();
        assert_eq!(order, vec![0, 1, 3, 4]);
    }

    #[test]
    fn edge_between_and_has_edge() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(1), NodeId::new(0)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert_eq!(
            g.edge_between(NodeId::new(2), NodeId::new(3)),
            Some(EdgeId::new(1))
        );
    }

    #[test]
    fn bipartition_of_even_cycle() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let sides = g.bipartition().unwrap();
        assert_eq!(sides[0], Side::U);
        assert_eq!(sides[1], Side::V);
        assert_eq!(sides[2], Side::U);
        assert_eq!(sides[3], Side::V);
    }

    #[test]
    fn bipartition_rejects_odd_cycle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(g.bipartition().is_none());
    }

    #[test]
    fn connected_components_counts() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        assert_eq!(g.connected_components(), 3); // {0,1,2}, {3,4}, {5}
    }

    #[test]
    fn edge_subgraph_keeps_mapping() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let (sub, map) = g.edge_subgraph(|e| e.index() != 1);
        assert_eq!(sub.m(), 2);
        assert_eq!(map, vec![EdgeId::new(0), EdgeId::new(2)]);
        assert_eq!(sub.n(), 4);
        assert!(sub.has_edge(NodeId::new(2), NodeId::new(3)));
        assert!(!sub.has_edge(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn adjacent_edges_star() {
        // star with center 0 and leaves 1..=4
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let e0 = EdgeId::new(0);
        let adj = g.adjacent_edges(e0);
        assert_eq!(adj.len(), 3);
        assert!(!adj.contains(&e0));
        assert_eq!(g.edge_degree(e0), 3);
    }

    #[test]
    #[should_panic(expected = "is not an endpoint")]
    fn other_endpoint_panics_for_non_endpoint() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        g.other_endpoint(EdgeId::new(0), NodeId::new(2));
    }

    #[test]
    fn line_graph_of_path_is_a_path() {
        let g = path(5); // 4 edges in a row
        let lg = g.line_graph();
        assert_eq!(lg.n(), 4);
        assert_eq!(lg.m(), 3);
        assert_eq!(lg.max_degree(), 2);
    }

    #[test]
    fn line_graph_of_star_is_complete() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let lg = g.line_graph();
        assert_eq!(lg.n(), 4);
        assert_eq!(lg.m(), 6); // K4
        assert_eq!(lg.max_degree(), g.max_edge_degree());
    }

    #[test]
    fn line_graph_degree_matches_edge_degree() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
            .unwrap();
        let lg = g.line_graph();
        for e in g.edges() {
            assert_eq!(lg.degree(NodeId::new(e.index())), g.edge_degree(e));
        }
    }

    #[test]
    fn from_edges_rejects_oversized_counts_without_allocating() {
        // Regression: a corrupt snapshot header used to reach the
        // `NodeId::new` expect-panic (after attempting a count-sized
        // allocation); now both counts fail fast with a typed error.
        let n = u32::MAX as usize + 2;
        assert_eq!(
            Graph::from_edges(n, &[]),
            Err(GraphError::IndexOverflow {
                what: "node count",
                index: n as u64,
            })
        );
    }

    #[test]
    fn from_csr_parts_roundtrips_from_edges_output() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]).unwrap();
        let rebuilt =
            Graph::from_csr_parts(g.offsets.clone(), g.adj.clone(), g.endpoints.clone()).unwrap();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn from_csr_parts_rejects_structural_corruption() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let corrupt = |detail: &str, r: Result<Graph, GraphError>| match r {
            Err(GraphError::InvalidCsr { .. }) => {}
            other => panic!("{detail}: expected InvalidCsr, got {other:?}"),
        };

        // Non-monotone offsets.
        let mut offsets = g.offsets.clone();
        offsets[2] = 6;
        corrupt(
            "offsets",
            Graph::from_csr_parts(offsets, g.adj.clone(), g.endpoints.clone()),
        );

        // Adjacency slice out of sorted order.
        let mut adj = g.adj.clone();
        adj.swap(1, 2); // node 1's two neighbors, reversed
        corrupt(
            "sorting",
            Graph::from_csr_parts(g.offsets.clone(), adj, g.endpoints.clone()),
        );

        // Endpoint pair stored larger-first.
        let mut endpoints = g.endpoints.clone();
        endpoints[0] = (endpoints[0].1, endpoints[0].0);
        corrupt(
            "endpoints",
            Graph::from_csr_parts(g.offsets.clone(), g.adj.clone(), endpoints),
        );

        // Adjacency edge id pointing at the wrong endpoint pair.
        let mut adj = g.adj.clone();
        adj[0].edge = EdgeId::new(2);
        corrupt(
            "edge ids",
            Graph::from_csr_parts(g.offsets.clone(), adj, g.endpoints.clone()),
        );

        // Truncated endpoints table.
        let endpoints = g.endpoints[..2].to_vec();
        corrupt(
            "truncation",
            Graph::from_csr_parts(g.offsets.clone(), g.adj.clone(), endpoints),
        );
    }

    #[test]
    fn from_node_id_edges_equivalent() {
        let a = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let b = Graph::from_node_id_edges(
            3,
            &[
                (NodeId::new(0), NodeId::new(1)),
                (NodeId::new(1), NodeId::new(2)),
            ],
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
