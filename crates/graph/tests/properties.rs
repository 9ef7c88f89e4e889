//! Property-based tests for the graph substrate.

use distgraph::{
    generators, EdgeColoring, Graph, GraphError, ListAssignment, Side, VertexColoring,
};
use proptest::prelude::*;

/// Strategy producing a random simple graph as (n, edge list).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n), 0..max_edges.min(120)).prop_map(move |pairs| {
            let mut seen = std::collections::HashSet::new();
            let mut edges = Vec::new();
            for (u, v) in pairs {
                if u == v {
                    continue;
                }
                let key = (u.min(v), u.max(v));
                if seen.insert(key) {
                    edges.push(key);
                }
            }
            Graph::from_edges(n, &edges).expect("sanitized edges are valid")
        })
    })
}

proptest! {
    #[test]
    fn handshake_lemma(g in arb_graph()) {
        prop_assert_eq!(g.degree_sum(), 2 * g.m());
    }

    #[test]
    fn edge_degree_formula(g in arb_graph()) {
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            prop_assert_eq!(g.edge_degree(e), g.degree(u) + g.degree(v) - 2);
            prop_assert_eq!(g.adjacent_edges(e).len(), g.edge_degree(e));
        }
    }

    #[test]
    fn max_edge_degree_bound(g in arb_graph()) {
        // Δ̄ ≤ 2Δ − 2 whenever the graph has an edge (Section 2 of the paper).
        if g.m() > 0 {
            prop_assert!(g.max_edge_degree() <= 2 * g.max_degree() - 2);
        }
    }

    #[test]
    fn edge_between_is_symmetric_and_consistent(g in arb_graph()) {
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            prop_assert_eq!(g.edge_between(u, v), Some(e));
            prop_assert_eq!(g.edge_between(v, u), Some(e));
            prop_assert_eq!(g.other_endpoint(e, u), v);
            prop_assert_eq!(g.other_endpoint(e, v), u);
        }
    }

    #[test]
    fn bipartition_is_proper_when_found(g in arb_graph()) {
        if let Some(sides) = g.bipartition() {
            for e in g.edges() {
                let (u, v) = g.endpoints(e);
                prop_assert_ne!(sides[u.index()], sides[v.index()]);
            }
        }
    }

    #[test]
    fn subgraph_degrees_never_increase(g in arb_graph()) {
        let (sub, map) = g.edge_subgraph(|e| e.index() % 2 == 0);
        prop_assert_eq!(sub.n(), g.n());
        prop_assert!(sub.m() <= g.m());
        for v in sub.nodes() {
            prop_assert!(sub.degree(v) <= g.degree(v));
        }
        for (new_idx, orig) in map.iter().enumerate() {
            let (a, b) = sub.endpoints(distgraph::EdgeId::new(new_idx));
            let (oa, ob) = g.endpoints(*orig);
            prop_assert_eq!((a, b), (oa, ob));
        }
    }

    #[test]
    fn edge_subgraph_equals_from_edges_on_the_kept_pairs(
        (g, mask, density) in arb_graph().prop_flat_map(|g| {
            let m = g.m();
            (Just(g), collection::vec(0u8..4, m), 0u8..5)
        })
    ) {
        // The CSR filter must build exactly the graph `from_edges` builds
        // from the kept endpoint pairs in edge order, with the same map.
        let keep = |e: distgraph::EdgeId| mask[e.index()] < density;
        let (sub, map) = g.edge_subgraph(keep);
        let kept: Vec<distgraph::EdgeId> = g.edges().filter(|&e| keep(e)).collect();
        let pairs: Vec<(usize, usize)> = kept
            .iter()
            .map(|&e| {
                let (u, v) = g.endpoints(e);
                (u.index(), v.index())
            })
            .collect();
        let expected = Graph::from_edges(g.n(), &pairs).expect("kept pairs are valid");
        prop_assert_eq!(sub, expected);
        prop_assert_eq!(map, kept);
    }

    #[test]
    fn degree_plus_one_lists_always_satisfy_invariant(g in arb_graph()) {
        let lists = ListAssignment::degree_plus_one(&g);
        prop_assert!(lists.is_degree_plus_one(&g));
        for e in g.edges() {
            prop_assert!(lists.list_size(e) > g.edge_degree(e));
        }
    }

    #[test]
    fn identity_vertex_coloring_is_proper(g in arb_graph()) {
        let coloring = VertexColoring::from_vec((0..g.n()).collect());
        prop_assert!(coloring.is_proper(&g));
        prop_assert_eq!(coloring.max_defect(&g), 0);
    }

    #[test]
    fn monochromatic_edge_coloring_defect_equals_edge_degree(g in arb_graph()) {
        let mut coloring = EdgeColoring::empty(g.m());
        for e in g.edges() {
            coloring.set(e, 0);
        }
        for e in g.edges() {
            prop_assert_eq!(coloring.defect(&g, e), g.edge_degree(e));
        }
    }
}

/// A valid sanitized edge list for `n` nodes (helper for the error-path
/// properties below).
fn sanitized_edges(pairs: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    let mut seen = std::collections::HashSet::new();
    let mut edges = Vec::new();
    for (u, v) in pairs {
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            edges.push(key);
        }
    }
    edges
}

proptest! {
    // ---- `Graph::from_edges` error paths -----------------------------------

    #[test]
    fn from_edges_rejects_out_of_range_endpoints(
        (n, pairs, bad_pos, overshoot, flip) in (2usize..24).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n), 0..40),
                0usize..64,
                0usize..10,
                0u8..2,
            )
        })
    ) {
        let mut edges = sanitized_edges(pairs);
        let bad_node = n + overshoot;
        let bad_edge = if flip == 0 { (0, bad_node) } else { (bad_node, 0) };
        let pos = bad_pos.min(edges.len());
        edges.insert(pos, bad_edge);
        prop_assert_eq!(
            Graph::from_edges(n, &edges),
            Err(GraphError::NodeOutOfRange { node: bad_node, n })
        );
    }

    #[test]
    fn from_edges_rejects_self_loops(
        (n, pairs, bad_pos, loop_node) in (2usize..24).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n), 0..40),
                0usize..64,
                0usize..n,
            )
        })
    ) {
        let mut edges = sanitized_edges(pairs);
        let pos = bad_pos.min(edges.len());
        edges.insert(pos, (loop_node, loop_node));
        prop_assert_eq!(
            Graph::from_edges(n, &edges),
            Err(GraphError::SelfLoop { node: loop_node })
        );
    }

    #[test]
    fn from_edges_rejects_duplicates_in_either_orientation(
        (n, pairs, dup_pick, flip) in (2usize..24).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0..n), 1..40),
                0usize..64,
                0u8..2,
            )
        })
    ) {
        let mut edges = sanitized_edges(pairs);
        if edges.is_empty() {
            return Ok(());
        }
        let (u, v) = edges[dup_pick % edges.len()];
        let dup = if flip == 0 { (u, v) } else { (v, u) };
        edges.push(dup);
        let err = Graph::from_edges(n, &edges).unwrap_err();
        prop_assert_eq!(err, GraphError::DuplicateEdge { u: dup.0, v: dup.1 });
    }

    // ---- CSR representation invariants -------------------------------------

    #[test]
    fn csr_offsets_are_monotone_and_consistent(g in arb_graph()) {
        // The per-node adjacency slices partition 2m entries: their lengths
        // (the degrees, i.e. consecutive offset differences) are non-negative
        // and sum to the handshake total.
        let mut total = 0usize;
        for v in g.nodes() {
            let slice = g.neighbors(v);
            prop_assert_eq!(slice.len(), g.degree(v));
            total += slice.len();
        }
        prop_assert_eq!(total, 2 * g.m());
    }

    #[test]
    fn csr_adjacency_is_sorted_and_self_consistent(g in arb_graph()) {
        for v in g.nodes() {
            let slice = g.neighbors(v);
            for pair in slice.windows(2) {
                // Strictly increasing: sorted and no parallel edges.
                prop_assert!(pair[0].node < pair[1].node);
            }
            for nb in slice {
                prop_assert!(g.is_endpoint(nb.edge, v));
                prop_assert_eq!(g.other_endpoint(nb.edge, v), nb.node);
                prop_assert_eq!(g.edge_between(v, nb.node), Some(nb.edge));
            }
        }
    }

    #[test]
    fn edge_degree_is_consistent_with_csr_views(g in arb_graph()) {
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            prop_assert!(u < v, "endpoints stored smaller-first");
            prop_assert_eq!(
                g.edge_degree(e),
                g.neighbors(u).len() + g.neighbors(v).len() - 2
            );
            prop_assert_eq!(g.adjacent_edges(e).len(), g.edge_degree(e));
        }
        if g.m() > 0 {
            let max_by_scan = g.edges().map(|e| g.edge_degree(e)).max().unwrap();
            prop_assert_eq!(g.max_edge_degree(), max_by_scan);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grid_torus_generator_is_four_regular(rows in 3usize..12, cols in 3usize..12) {
        let g = generators::grid_torus(rows, cols);
        prop_assert_eq!(g.n(), rows * cols);
        prop_assert_eq!(g.m(), 2 * rows * cols);
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v), 4);
        }
        prop_assert_eq!(g.connected_components(), 1);
    }

    #[test]
    fn power_law_generator_is_deterministic(n in 10usize..200, seed in 0u64..500) {
        let a = generators::power_law(n, 2.5, 16, seed);
        let b = generators::power_law(n, 2.5, 16, seed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn regular_bipartite_generator_is_regular(n in 4usize..24, d in 1usize..6, seed in 0u64..1000) {
        let d = d.min(n);
        let bg = generators::regular_bipartite(n, d, seed).unwrap();
        let g = bg.graph();
        prop_assert_eq!(g.n(), 2 * n);
        prop_assert_eq!(g.m(), n * d);
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v), d);
        }
        for e in g.edges() {
            let (u, v) = bg.endpoints_uv(e);
            prop_assert_eq!(bg.side(u), Side::U);
            prop_assert_eq!(bg.side(v), Side::V);
        }
    }

    #[test]
    fn random_regular_generator_respects_degree_bound(n in 6usize..40, d in 2usize..6, seed in 0u64..1000) {
        let d = d.min(n - 1);
        if n * d % 2 == 1 {
            return Ok(());
        }
        let g = generators::random_regular(n, d, seed).unwrap();
        prop_assert!(g.max_degree() <= d);
    }

    #[test]
    fn trees_are_connected_and_acyclic(n in 2usize..128, seed in 0u64..1000) {
        let g = generators::random_tree(n, seed);
        prop_assert_eq!(g.m(), n - 1);
        prop_assert_eq!(g.connected_components(), 1);
    }
}
