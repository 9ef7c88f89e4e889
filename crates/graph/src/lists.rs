//! Color lists for list edge coloring instances.
//!
//! Section 2 of the paper defines the list edge coloring problem: every edge
//! `e` has a list `L_e ⊆ C = {1, ..., |C|}` and must output a color from its
//! list such that adjacent edges get distinct colors. The
//! *(degree+1)-list edge coloring* problem requires `|L_e| ≥ deg_G(e) + 1`,
//! and an instance has *slack* `S` if `|L_e| > S · deg(e)` for every edge
//! (the family `P(Δ̄, S, C)` of the paper).

use crate::graph::Graph;
use crate::ids::{Color, EdgeId};
use std::ops::Range;

/// Per-edge color lists over a common color space `{0, ..., space_size - 1}`.
///
/// # The pool
///
/// Every list is a span (a range of positions) into one shared, read-only
/// pool of colors, so lists that coincide are stored once. The two standard
/// instances store a single palette: [`ListAssignment::full_palette`] points
/// every edge at the whole pool `{0, ..., k-1}`, and
/// [`ListAssignment::degree_plus_one`] points edge `e` at the prefix
/// `{0, ..., deg_G(e)}` of the pool `{0, ..., Δ̄}`. Explicit lists
/// ([`ListAssignment::new`]) are concatenated into the pool one after the
/// other. Memory is therefore one span per edge plus the distinct colors,
/// instead of one heap list per edge.
///
/// The pool layout is an implementation detail: equality compares the
/// color space and the lists themselves, so two assignments with the same
/// lists are equal however they were built.
#[derive(Debug, Clone)]
pub struct ListAssignment {
    space_size: usize,
    /// The shared color pool; every span below indexes into it.
    pool: Vec<Color>,
    /// Per-edge list: `pool[spans[e]]` is sorted and duplicate-free.
    spans: Vec<Range<usize>>,
}

impl PartialEq for ListAssignment {
    fn eq(&self, other: &Self) -> bool {
        self.space_size == other.space_size
            && self.len() == other.len()
            && (0..self.len()).all(|i| self.list(EdgeId::new(i)) == other.list(EdgeId::new(i)))
    }
}

impl Eq for ListAssignment {}

impl ListAssignment {
    /// Creates a list assignment from explicit per-edge lists.
    ///
    /// Lists are deduplicated and sorted; colors outside the color space are
    /// discarded.
    pub fn new(space_size: usize, lists: Vec<Vec<Color>>) -> Self {
        let mut pool = Vec::new();
        let spans = lists
            .into_iter()
            .map(|mut l| {
                l.retain(|c| *c < space_size);
                l.sort_unstable();
                l.dedup();
                let start = pool.len();
                pool.extend_from_slice(&l);
                start..pool.len()
            })
            .collect();
        ListAssignment {
            space_size,
            pool,
            spans,
        }
    }

    /// The standard `K`-edge-coloring instance: every edge gets the full list
    /// `{0, ..., k-1}` (Section 2: "the standard K-edge coloring is a special
    /// case of the list edge coloring problem").
    pub fn full_palette(graph: &Graph, k: usize) -> Self {
        ListAssignment {
            space_size: k,
            pool: (0..k).collect(),
            spans: vec![0..k; graph.m()],
        }
    }

    /// The `(degree+1)`-list instance with the canonical lists
    /// `{0, ..., deg_G(e)}` for every edge, over the color space of size `Δ̄+1`.
    pub fn degree_plus_one(graph: &Graph) -> Self {
        let space = graph.max_edge_degree() + 1;
        ListAssignment {
            space_size: space,
            pool: (0..space).collect(),
            spans: graph.edges().map(|e| 0..graph.edge_degree(e) + 1).collect(),
        }
    }

    /// Size of the global color space `|C|`.
    #[inline]
    pub fn space_size(&self) -> usize {
        self.space_size
    }

    /// Number of edges with a list.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns `true` if there are no lists.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The list of edge `e` (sorted, deduplicated).
    #[inline]
    pub fn list(&self, e: EdgeId) -> &[Color] {
        &self.pool[self.spans[e.index()].clone()]
    }

    /// The size of the list of edge `e`.
    #[inline]
    pub fn list_size(&self, e: EdgeId) -> usize {
        self.spans[e.index()].len()
    }

    /// Returns `true` if `c` is in the list of `e`.
    pub fn contains(&self, e: EdgeId, c: Color) -> bool {
        self.list(e).binary_search(&c).is_ok()
    }

    /// The fraction `λ_e` of the list of `e` that falls in the first half of
    /// the color range `[lo, hi)` split at `mid`, i.e.
    /// `|L_e ∩ [lo, mid)| / |L_e ∩ [lo, hi)|`. Returns 0.5 for empty lists.
    ///
    /// This is the quantity the LOCAL algorithm of Section 7 uses to decide
    /// how to split each edge between the two halves of the color space.
    pub fn red_fraction(&self, e: EdgeId, lo: Color, mid: Color, hi: Color) -> f64 {
        let list = self.list(e);
        let total = list.iter().filter(|c| **c >= lo && **c < hi).count();
        if total == 0 {
            return 0.5;
        }
        let red = list.iter().filter(|c| **c >= lo && **c < mid).count();
        red as f64 / total as f64
    }

    /// Number of colors of `e`'s list inside `[lo, hi)`.
    pub fn count_in_range(&self, e: EdgeId, lo: Color, hi: Color) -> usize {
        self.list(e)
            .iter()
            .filter(|c| **c >= lo && **c < hi)
            .count()
    }

    /// The slack of edge `e` relative to a degree `deg`: `|L_e| / max(deg, 1)`.
    pub fn slack(&self, e: EdgeId, deg: usize) -> f64 {
        self.list_size(e) as f64 / deg.max(1) as f64
    }

    /// The minimum slack `min_e |L_e| / deg_G(e)` over all edges with positive
    /// degree; `f64::INFINITY` if every edge has degree 0.
    pub fn min_slack(&self, graph: &Graph) -> f64 {
        let mut best = f64::INFINITY;
        for e in graph.edges() {
            let d = graph.edge_degree(e);
            if d > 0 {
                best = best.min(self.list_size(e) as f64 / d as f64);
            }
        }
        best
    }

    /// Returns `true` if the instance satisfies the `(degree+1)` condition
    /// `|L_e| ≥ deg_G(e) + 1` for every edge.
    pub fn is_degree_plus_one(&self, graph: &Graph) -> bool {
        graph
            .edges()
            .all(|e| self.list_size(e) > graph.edge_degree(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn full_palette_lists() {
        let g = path4();
        let lists = ListAssignment::full_palette(&g, 5);
        assert_eq!(lists.space_size(), 5);
        for e in g.edges() {
            assert_eq!(lists.list_size(e), 5);
            assert!(lists.contains(e, 0));
            assert!(lists.contains(e, 4));
            assert!(!lists.contains(e, 5));
        }
    }

    #[test]
    fn degree_plus_one_instance() {
        let g = path4();
        let lists = ListAssignment::degree_plus_one(&g);
        assert!(lists.is_degree_plus_one(&g));
        // middle edge has edge degree 2 so its list must have >= 3 colors
        assert_eq!(lists.list_size(EdgeId::new(1)), 3);
        assert_eq!(lists.space_size(), g.max_edge_degree() + 1);
    }

    #[test]
    fn new_deduplicates_sorts_and_clips() {
        let lists = ListAssignment::new(4, vec![vec![3, 1, 3, 0, 9]]);
        assert_eq!(lists.list(EdgeId::new(0)), &[0, 1, 3]);
    }

    #[test]
    fn red_fraction_and_range_counts() {
        let lists = ListAssignment::new(10, vec![vec![0, 1, 2, 7, 8, 9]]);
        let e = EdgeId::new(0);
        assert_eq!(lists.count_in_range(e, 0, 5), 3);
        assert_eq!(lists.count_in_range(e, 5, 10), 3);
        let lambda = lists.red_fraction(e, 0, 5, 10);
        assert!((lambda - 0.5).abs() < 1e-12);
        // skewed range
        let lambda_low = lists.red_fraction(e, 0, 2, 10);
        assert!((lambda_low - 2.0 / 6.0).abs() < 1e-12);
        // empty range defaults to 0.5
        let lists2 = ListAssignment::new(10, vec![vec![]]);
        assert_eq!(lists2.red_fraction(e, 0, 5, 10), 0.5);
    }

    #[test]
    fn slack_computations() {
        let g = path4();
        let lists = ListAssignment::full_palette(&g, 6);
        // middle edge has degree 2, end edges degree 1
        assert!((lists.slack(EdgeId::new(1), 2) - 3.0).abs() < 1e-12);
        assert!((lists.min_slack(&g) - 3.0).abs() < 1e-12);
        let single = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let l2 = ListAssignment::full_palette(&single, 1);
        assert_eq!(l2.min_slack(&single), f64::INFINITY);
    }

    #[test]
    fn pooled_instances_equal_their_explicit_lists() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)]).unwrap();
        let explicit = |lists: Vec<Vec<Color>>, space| ListAssignment::new(space, lists);
        let full = ListAssignment::full_palette(&g, 4);
        assert_eq!(full, explicit(vec![(0..4).collect(); g.m()], 4));
        let dp1 = ListAssignment::degree_plus_one(&g);
        let lists = g
            .edges()
            .map(|e| (0..=g.edge_degree(e)).collect())
            .collect();
        assert_eq!(dp1, explicit(lists, g.max_edge_degree() + 1));
        // Equality is semantic: a different list or color space differs.
        assert_ne!(full, ListAssignment::full_palette(&g, 5));
        let mut lists: Vec<Vec<Color>> = vec![(0..4).collect(); g.m()];
        lists[2] = vec![0, 1, 3];
        assert_ne!(full, explicit(lists, 4));
        assert_ne!(full, explicit(vec![(0..4).collect(); g.m() - 1], 4));
        assert_ne!(explicit(vec![vec![0, 1]], 4), explicit(vec![vec![0, 2]], 4));
    }
}
