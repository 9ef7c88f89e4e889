//! Edge orientations.
//!
//! Section 5 of the paper computes *generalized balanced edge orientations*
//! (Definition 5.2): every edge gets a direction and the quantity `x_w`, the
//! number of edges oriented *towards* a node `w`, must satisfy per-edge
//! inequalities. [`Orientation`] stores a (possibly partial) orientation of a
//! graph's edges and maintains the `x_w` counters incrementally, because the
//! phase algorithm of Section 5 re-orients edges when tokens move over them.

use crate::graph::Graph;
use crate::ids::{EdgeId, NodeId};

/// A partial orientation of the edges of a graph.
///
/// Each edge is either unoriented or oriented towards one of its endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Orientation {
    /// For each edge, the node it is oriented towards (its "head"), if any.
    head: Vec<Option<NodeId>>,
    /// For each node `w`, the number of edges currently oriented towards `w`
    /// (the paper's `x_w`).
    indegree: Vec<usize>,
}

impl Orientation {
    /// Creates an all-unoriented orientation for `graph`.
    pub fn new(graph: &Graph) -> Self {
        Orientation {
            head: vec![None; graph.m()],
            indegree: vec![0; graph.n()],
        }
    }

    /// Number of edges this orientation was created for.
    pub fn num_edges(&self) -> usize {
        self.head.len()
    }

    /// Returns the head (the node the edge points to) of `e`, or `None` if the
    /// edge is unoriented.
    #[inline]
    pub fn head(&self, e: EdgeId) -> Option<NodeId> {
        self.head[e.index()]
    }

    /// Returns `true` if `e` has been assigned a direction.
    #[inline]
    pub fn is_oriented(&self, e: EdgeId) -> bool {
        self.head[e.index()].is_some()
    }

    /// The number of edges oriented towards `w` — the paper's `x_w`.
    #[inline]
    pub fn indegree(&self, w: NodeId) -> usize {
        self.indegree[w.index()]
    }

    /// Orients edge `e` of `graph` towards `towards`.
    ///
    /// If the edge was already oriented, the previous head's indegree is
    /// decremented first, so this can also be used to flip an edge.
    ///
    /// # Panics
    ///
    /// Panics if `towards` is not an endpoint of `e`.
    pub fn orient(&mut self, graph: &Graph, e: EdgeId, towards: NodeId) {
        assert!(
            graph.is_endpoint(e, towards),
            "{towards} is not an endpoint of {e}"
        );
        if let Some(prev) = self.head[e.index()] {
            self.indegree[prev.index()] -= 1;
        }
        self.head[e.index()] = Some(towards);
        self.indegree[towards.index()] += 1;
    }

    /// Reverses the direction of an oriented edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge is unoriented.
    pub fn flip(&mut self, graph: &Graph, e: EdgeId) {
        let head = self.head[e.index()].expect("cannot flip an unoriented edge");
        let tail = graph.other_endpoint(e, head);
        self.orient(graph, e, tail);
    }

    /// Removes the direction of `e` (used only in tests and tooling; the
    /// paper's algorithm never un-orients an edge).
    pub fn clear(&mut self, e: EdgeId) {
        if let Some(prev) = self.head[e.index()].take() {
            self.indegree[prev.index()] -= 1;
        }
    }

    /// Number of edges that currently have a direction.
    pub fn oriented_count(&self) -> usize {
        self.head.iter().filter(|h| h.is_some()).count()
    }

    /// Iterator over `(edge, head)` pairs of all oriented edges.
    pub fn oriented_edges(&self) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.head
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.map(|head| (EdgeId::new(i), head)))
    }

    /// Recomputes the indegrees from scratch and checks they match the
    /// incrementally maintained counters. Intended for tests / debugging.
    pub fn check_consistency(&self, graph: &Graph) -> bool {
        let mut fresh = vec![0usize; graph.n()];
        for (e, head) in self.oriented_edges() {
            if !graph.is_endpoint(e, head) {
                return false;
            }
            fresh[head.index()] += 1;
        }
        fresh == self.indegree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn new_is_unoriented() {
        let g = path4();
        let o = Orientation::new(&g);
        assert_eq!(o.oriented_count(), 0);
        for e in g.edges() {
            assert!(!o.is_oriented(e));
            assert_eq!(o.head(e), None);
        }
        for v in g.nodes() {
            assert_eq!(o.indegree(v), 0);
        }
    }

    #[test]
    fn orient_and_indegree() {
        let g = path4();
        let mut o = Orientation::new(&g);
        o.orient(&g, EdgeId::new(0), NodeId::new(1));
        o.orient(&g, EdgeId::new(1), NodeId::new(1));
        assert_eq!(o.indegree(NodeId::new(1)), 2);
        assert_eq!(o.indegree(NodeId::new(0)), 0);
        assert_eq!(o.oriented_count(), 2);
        assert!(o.check_consistency(&g));
    }

    #[test]
    fn reorient_updates_counters() {
        let g = path4();
        let mut o = Orientation::new(&g);
        o.orient(&g, EdgeId::new(0), NodeId::new(1));
        o.orient(&g, EdgeId::new(0), NodeId::new(0));
        assert_eq!(o.indegree(NodeId::new(1)), 0);
        assert_eq!(o.indegree(NodeId::new(0)), 1);
        assert!(o.check_consistency(&g));
    }

    #[test]
    fn flip_reverses_direction() {
        let g = path4();
        let mut o = Orientation::new(&g);
        o.orient(&g, EdgeId::new(2), NodeId::new(3));
        o.flip(&g, EdgeId::new(2));
        assert_eq!(o.head(EdgeId::new(2)), Some(NodeId::new(2)));
        assert_eq!(o.indegree(NodeId::new(3)), 0);
        assert_eq!(o.indegree(NodeId::new(2)), 1);
    }

    #[test]
    #[should_panic(expected = "cannot flip")]
    fn flip_unoriented_panics() {
        let g = path4();
        let mut o = Orientation::new(&g);
        o.flip(&g, EdgeId::new(0));
    }

    #[test]
    #[should_panic(expected = "is not an endpoint")]
    fn orient_towards_non_endpoint_panics() {
        let g = path4();
        let mut o = Orientation::new(&g);
        o.orient(&g, EdgeId::new(0), NodeId::new(3));
    }

    #[test]
    fn clear_removes_direction() {
        let g = path4();
        let mut o = Orientation::new(&g);
        o.orient(&g, EdgeId::new(0), NodeId::new(1));
        o.clear(EdgeId::new(0));
        assert!(!o.is_oriented(EdgeId::new(0)));
        assert_eq!(o.indegree(NodeId::new(1)), 0);
        assert_eq!(o.oriented_count(), 0);
    }

    #[test]
    fn oriented_edges_iterates_pairs() {
        let g = path4();
        let mut o = Orientation::new(&g);
        o.orient(&g, EdgeId::new(1), NodeId::new(2));
        let pairs: Vec<_> = o.oriented_edges().collect();
        assert_eq!(pairs, vec![(EdgeId::new(1), NodeId::new(2))]);
    }
}
