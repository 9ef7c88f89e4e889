//! 2-colored bipartite graphs.
//!
//! The core algorithms of Section 5 of the paper (balanced edge orientations
//! and generalized defective 2-edge coloring) are defined on bipartite graphs
//! `G = (U ∪ V, E)` in which every node knows its side. [`BipartiteGraph`]
//! couples a [`Graph`] with that side information and exposes edge endpoints
//! in `(u ∈ U, v ∈ V)` order, which is the orientation convention the paper
//! uses ("red" edges are oriented from `U` to `V`).

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::{EdgeId, NodeId, Side};

/// A graph together with a valid bipartition of its nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    graph: Graph,
    sides: Vec<Side>,
}

impl BipartiteGraph {
    /// Wraps a graph with an explicitly provided bipartition.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidBipartition`] if some edge has both
    /// endpoints on the same side, and [`GraphError::NodeOutOfRange`] if the
    /// side vector has the wrong length.
    pub fn new(graph: Graph, sides: Vec<Side>) -> Result<Self, GraphError> {
        if sides.len() != graph.n() {
            return Err(GraphError::NodeOutOfRange {
                node: sides.len(),
                n: graph.n(),
            });
        }
        for e in graph.edges() {
            let (a, b) = graph.endpoints(e);
            if sides[a.index()] == sides[b.index()] {
                return Err(GraphError::InvalidBipartition {
                    u: a.index(),
                    v: b.index(),
                });
            }
        }
        Ok(BipartiteGraph { graph, sides })
    }

    /// Wraps a graph, computing a bipartition by breadth-first search.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotBipartite`] if the graph contains an odd cycle.
    pub fn from_graph(graph: Graph) -> Result<Self, GraphError> {
        let sides = graph.bipartition().ok_or(GraphError::NotBipartite)?;
        Ok(BipartiteGraph { graph, sides })
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes the wrapper and returns the underlying graph and the sides.
    pub fn into_parts(self) -> (Graph, Vec<Side>) {
        (self.graph, self.sides)
    }

    /// The side of node `v`.
    #[inline]
    pub fn side(&self, v: NodeId) -> Side {
        self.sides[v.index()]
    }

    /// The side vector, indexed by node.
    #[inline]
    pub fn sides(&self) -> &[Side] {
        &self.sides
    }

    /// Endpoints of edge `e` returned as `(u, v)` with `u ∈ U` and `v ∈ V`.
    #[inline]
    pub fn endpoints_uv(&self, e: EdgeId) -> (NodeId, NodeId) {
        let (a, b) = self.graph.endpoints(e);
        if self.sides[a.index()] == Side::U {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Nodes on side `U`.
    pub fn u_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes().filter(move |v| self.side(*v) == Side::U)
    }

    /// Nodes on side `V`.
    pub fn v_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes().filter(move |v| self.side(*v) == Side::V)
    }

    /// Number of nodes on side `U`.
    pub fn u_count(&self) -> usize {
        self.sides.iter().filter(|s| **s == Side::U).count()
    }

    /// Number of nodes on side `V`.
    pub fn v_count(&self) -> usize {
        self.sides.len() - self.u_count()
    }

    /// Builds the bipartite subgraph induced by keeping only edges selected by
    /// `keep`, preserving the side labels. Returns the subgraph and the map
    /// from new edge ids to original edge ids.
    pub fn edge_subgraph(&self, keep: impl Fn(EdgeId) -> bool) -> (BipartiteGraph, Vec<EdgeId>) {
        // Every kept edge crosses the sides already, so there is nothing to
        // validate.
        let (graph, map) = self.graph.edge_subgraph(keep);
        let sides = self.sides.clone();
        (BipartiteGraph { graph, sides }, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn even_cycle(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn from_graph_even_cycle() {
        let bg = BipartiteGraph::from_graph(even_cycle(6)).unwrap();
        assert_eq!(bg.u_count(), 3);
        assert_eq!(bg.v_count(), 3);
        for e in bg.graph().edges() {
            let (u, v) = bg.endpoints_uv(e);
            assert_eq!(bg.side(u), Side::U);
            assert_eq!(bg.side(v), Side::V);
        }
    }

    #[test]
    fn from_graph_rejects_odd_cycle() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        assert_eq!(BipartiteGraph::from_graph(g), Err(GraphError::NotBipartite));
    }

    #[test]
    fn explicit_sides_validated() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        assert!(BipartiteGraph::new(g.clone(), vec![Side::U, Side::V]).is_ok());
        assert_eq!(
            BipartiteGraph::new(g.clone(), vec![Side::U, Side::U]),
            Err(GraphError::InvalidBipartition { u: 0, v: 1 })
        );
        assert!(BipartiteGraph::new(g, vec![Side::U]).is_err());
    }

    #[test]
    fn u_and_v_node_iterators() {
        let g = Graph::from_edges(4, &[(0, 2), (0, 3), (1, 2)]).unwrap();
        let bg = BipartiteGraph::new(g, vec![Side::U, Side::U, Side::V, Side::V]).unwrap();
        let us: Vec<usize> = bg.u_nodes().map(|v| v.index()).collect();
        let vs: Vec<usize> = bg.v_nodes().map(|v| v.index()).collect();
        assert_eq!(us, vec![0, 1]);
        assert_eq!(vs, vec![2, 3]);
    }

    #[test]
    fn edge_subgraph_preserves_sides() {
        let g = Graph::from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
        let bg = BipartiteGraph::new(g, vec![Side::U, Side::U, Side::V, Side::V]).unwrap();
        let (sub, map) = bg.edge_subgraph(|e| e.index() % 2 == 0);
        assert_eq!(sub.graph().m(), 2);
        assert_eq!(map.len(), 2);
        assert_eq!(sub.side(NodeId::new(0)), Side::U);
        assert_eq!(sub.side(NodeId::new(2)), Side::V);
    }

    #[test]
    fn into_parts_roundtrip() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let bg = BipartiteGraph::from_graph(g.clone()).unwrap();
        let (g2, sides) = bg.into_parts();
        assert_eq!(g, g2);
        assert_eq!(sides.len(), 2);
    }
}
