//! Vertex and edge colorings, together with properness and defect measures.
//!
//! The paper works with several coloring notions:
//!
//! * proper vertex colorings (used as distributed symmetry-breaking input,
//!   e.g. the `O(Δ²)`-coloring computed à la Linial),
//! * *d-defective c-colorings* of the nodes: each color class induces a graph
//!   of maximum degree at most `d` (Section 2),
//! * proper edge colorings, possibly partial (the recursions color some edges
//!   now and the rest later),
//! * defective *edge* colorings: a defective coloring of the line graph.

use crate::graph::Graph;
use crate::ids::{Color, EdgeId, NodeId};

/// A total assignment of colors to nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexColoring {
    colors: Vec<Color>,
}

impl VertexColoring {
    /// Creates a vertex coloring from an explicit color vector (one entry per node).
    pub fn from_vec(colors: Vec<Color>) -> Self {
        VertexColoring { colors }
    }

    /// Creates the all-zero coloring on `n` nodes.
    pub fn uniform(n: usize) -> Self {
        VertexColoring { colors: vec![0; n] }
    }

    /// Number of nodes colored.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Returns `true` if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// The color of node `v`.
    #[inline]
    pub fn color(&self, v: NodeId) -> Color {
        self.colors[v.index()]
    }

    /// Sets the color of node `v`.
    #[inline]
    pub fn set(&mut self, v: NodeId, c: Color) {
        self.colors[v.index()] = c;
    }

    /// The underlying color vector.
    pub fn as_slice(&self) -> &[Color] {
        &self.colors
    }

    /// Number of distinct colors used.
    pub fn colors_used(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.colors.iter().for_each(|c| {
            seen.insert(*c);
        });
        seen.len()
    }

    /// The largest color value used plus one (the size of the smallest
    /// zero-based color space containing the coloring), 0 if empty.
    pub fn palette_size(&self) -> usize {
        self.colors.iter().copied().max().map_or(0, |c| c + 1)
    }

    /// Returns `true` if no edge of `graph` is monochromatic.
    pub fn is_proper(&self, graph: &Graph) -> bool {
        graph.edges().all(|e| {
            let (u, v) = graph.endpoints(e);
            self.color(u) != self.color(v)
        })
    }

    /// The *defect* of node `v`: the number of neighbors sharing `v`'s color.
    pub fn defect(&self, graph: &Graph, v: NodeId) -> usize {
        let cv = self.color(v);
        graph
            .neighbors(v)
            .iter()
            .filter(|nb| self.color(nb.node) == cv)
            .count()
    }

    /// The maximum defect over all nodes (0 for an edgeless graph).
    pub fn max_defect(&self, graph: &Graph) -> usize {
        graph
            .nodes()
            .map(|v| self.defect(graph, v))
            .max()
            .unwrap_or(0)
    }
}

/// A *partial* assignment of colors to edges.
///
/// Every algorithm in the reproduction colors edges in stages, so the natural
/// representation is `Option<Color>` per edge; [`EdgeColoring::is_complete`]
/// distinguishes finished colorings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeColoring {
    colors: Vec<Option<Color>>,
}

impl EdgeColoring {
    /// Creates an empty (entirely uncolored) edge coloring for `m` edges.
    pub fn empty(m: usize) -> Self {
        EdgeColoring {
            colors: vec![None; m],
        }
    }

    /// Creates an edge coloring from an explicit vector.
    pub fn from_vec(colors: Vec<Option<Color>>) -> Self {
        EdgeColoring { colors }
    }

    /// Number of edges (colored or not).
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Returns `true` if there are no edges.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// The color of edge `e`, if assigned.
    #[inline]
    pub fn color(&self, e: EdgeId) -> Option<Color> {
        self.colors[e.index()]
    }

    /// Returns `true` if edge `e` has a color.
    #[inline]
    pub fn is_colored(&self, e: EdgeId) -> bool {
        self.colors[e.index()].is_some()
    }

    /// Assigns color `c` to edge `e`.
    #[inline]
    pub fn set(&mut self, e: EdgeId, c: Color) {
        self.colors[e.index()] = Some(c);
    }

    /// Removes the color of edge `e`.
    #[inline]
    pub fn unset(&mut self, e: EdgeId) {
        self.colors[e.index()] = None;
    }

    /// Number of edges that have a color.
    pub fn colored_count(&self) -> usize {
        self.colors.iter().filter(|c| c.is_some()).count()
    }

    /// Returns `true` if every edge has a color.
    pub fn is_complete(&self) -> bool {
        self.colors.iter().all(|c| c.is_some())
    }

    /// Number of distinct colors used by colored edges.
    pub fn colors_used(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.colors.iter().flatten().for_each(|c| {
            seen.insert(*c);
        });
        seen.len()
    }

    /// The largest color value used plus one, 0 if nothing is colored.
    pub fn palette_size(&self) -> usize {
        self.colors
            .iter()
            .flatten()
            .copied()
            .max()
            .map_or(0, |c| c + 1)
    }

    /// Returns `true` if no two *colored* adjacent edges share a color.
    ///
    /// Uncolored edges never create conflicts, so a partial coloring can be
    /// proper; combine with [`EdgeColoring::is_complete`] for the full check.
    pub fn is_proper(&self, graph: &Graph) -> bool {
        // Check around each node: all colored incident edges must have
        // pairwise distinct colors.
        for v in graph.nodes() {
            let mut seen = std::collections::HashSet::new();
            for nb in graph.neighbors(v) {
                if let Some(c) = self.color(nb.edge) {
                    if !seen.insert(c) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The defect of edge `e`: the number of adjacent edges (in the line
    /// graph) carrying the same color as `e`. Returns 0 for uncolored edges.
    pub fn defect(&self, graph: &Graph, e: EdgeId) -> usize {
        match self.color(e) {
            None => 0,
            Some(c) => graph
                .adjacent_edges(e)
                .into_iter()
                .filter(|&f| self.color(f) == Some(c))
                .count(),
        }
    }

    /// The maximum edge defect over all edges.
    pub fn max_defect(&self, graph: &Graph) -> usize {
        graph
            .edges()
            .map(|e| self.defect(graph, e))
            .max()
            .unwrap_or(0)
    }

    /// The set of colors used by colored edges adjacent to `e`.
    pub fn colors_around(&self, graph: &Graph, e: EdgeId) -> std::collections::HashSet<Color> {
        graph
            .adjacent_edges(e)
            .into_iter()
            .filter_map(|f| self.color(f))
            .collect()
    }

    /// The number of *uncolored* edges adjacent to `e` (its uncolored degree).
    pub fn uncolored_degree(&self, graph: &Graph, e: EdgeId) -> usize {
        graph
            .adjacent_edges(e)
            .into_iter()
            .filter(|&f| !self.is_colored(f))
            .count()
    }

    /// Merges another partial coloring into this one via an edge-id mapping:
    /// color of edge `i` in `other` is written to edge `map[i]` of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `map` is shorter than `other` or if a mapped edge already has
    /// a different color (the recursions must color disjoint edge sets).
    pub fn merge_mapped(&mut self, other: &EdgeColoring, map: &[EdgeId]) {
        assert!(
            map.len() >= other.len(),
            "edge map shorter than sub-coloring"
        );
        for (i, &target) in map.iter().enumerate().take(other.len()) {
            if let Some(c) = other.colors[i] {
                match self.colors[target.index()] {
                    None => self.colors[target.index()] = Some(c),
                    Some(existing) => {
                        assert_eq!(existing, c, "conflicting colors merged for {target}");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn vertex_coloring_proper_and_defect() {
        let g = triangle();
        let c = VertexColoring::from_vec(vec![0, 1, 2]);
        assert!(c.is_proper(&g));
        assert_eq!(c.max_defect(&g), 0);
        assert_eq!(c.colors_used(), 3);
        assert_eq!(c.palette_size(), 3);

        let mono = VertexColoring::uniform(3);
        assert!(!mono.is_proper(&g));
        assert_eq!(mono.max_defect(&g), 2);
        assert_eq!(mono.defect(&g, NodeId::new(0)), 2);
    }

    #[test]
    fn vertex_coloring_set_and_get() {
        let mut c = VertexColoring::uniform(2);
        c.set(NodeId::new(1), 5);
        assert_eq!(c.color(NodeId::new(1)), 5);
        assert_eq!(c.as_slice(), &[0, 5]);
        assert!(!c.is_empty());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn edge_coloring_partial_properness() {
        let g = triangle();
        let mut c = EdgeColoring::empty(g.m());
        assert!(c.is_proper(&g));
        assert!(!c.is_complete());
        c.set(EdgeId::new(0), 0);
        c.set(EdgeId::new(1), 1);
        assert!(c.is_proper(&g));
        c.set(EdgeId::new(2), 1); // edge (0,2) conflicts with edge (1,2)
        assert!(!c.is_proper(&g));
        assert_eq!(c.defect(&g, EdgeId::new(2)), 1);
        assert_eq!(c.max_defect(&g), 1);
    }

    #[test]
    fn edge_coloring_counts() {
        let g = triangle();
        let mut c = EdgeColoring::empty(g.m());
        c.set(EdgeId::new(0), 3);
        c.set(EdgeId::new(1), 4);
        assert_eq!(c.colored_count(), 2);
        assert_eq!(c.colors_used(), 2);
        assert_eq!(c.palette_size(), 5);
        c.unset(EdgeId::new(1));
        assert_eq!(c.colored_count(), 1);
        assert!(!c.is_complete());
    }

    #[test]
    fn uncolored_degree_and_colors_around() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut c = EdgeColoring::empty(g.m());
        let mid = EdgeId::new(1);
        assert_eq!(c.uncolored_degree(&g, mid), 2);
        c.set(EdgeId::new(0), 7);
        assert_eq!(c.uncolored_degree(&g, mid), 1);
        let around = c.colors_around(&g, mid);
        assert!(around.contains(&7));
        assert_eq!(around.len(), 1);
    }

    #[test]
    fn merge_mapped_copies_colors() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let (sub, map) = g.edge_subgraph(|e| e.index() != 1);
        let mut sub_coloring = EdgeColoring::empty(sub.m());
        sub_coloring.set(EdgeId::new(0), 9);
        sub_coloring.set(EdgeId::new(1), 2);
        let mut full = EdgeColoring::empty(g.m());
        full.merge_mapped(&sub_coloring, &map);
        assert_eq!(full.color(EdgeId::new(0)), Some(9));
        assert_eq!(full.color(EdgeId::new(1)), None);
        assert_eq!(full.color(EdgeId::new(2)), Some(2));
    }

    #[test]
    #[should_panic(expected = "conflicting colors")]
    fn merge_mapped_detects_conflicts() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let (sub, map) = g.edge_subgraph(|_| true);
        let mut sub_coloring = EdgeColoring::empty(sub.m());
        sub_coloring.set(EdgeId::new(0), 1);
        let mut full = EdgeColoring::empty(g.m());
        full.set(EdgeId::new(0), 2);
        full.merge_mapped(&sub_coloring, &map);
    }

    #[test]
    fn empty_collections() {
        let c = EdgeColoring::empty(0);
        assert!(c.is_empty());
        assert!(c.is_complete());
        assert_eq!(c.palette_size(), 0);
        let vc = VertexColoring::from_vec(vec![]);
        assert!(vc.is_empty());
        assert_eq!(vc.colors_used(), 0);
    }
}
