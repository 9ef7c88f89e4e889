//! Property-based tests for the core algorithmic invariants of the paper:
//! the token dropping game (Section 4), balanced orientations (Section 5),
//! defective 2-edge colorings (Corollary 5.7) and the Linial coloring.

use distgraph::{BipartiteGraph, Graph, NodeId};
use distsim::{IdAssignment, Model, Network};
use edgecolor::balanced_orientation::{compute_balanced_orientation, measure_required_beta};
use edgecolor::defective_edge::{defective_two_edge_coloring, measure_defect_ratio};
use edgecolor::linial::linial_coloring;
use edgecolor::token_dropping::{
    check_invariants, check_theorem_4_3, solve_distributed, solve_sequential, TokenGame,
    TokenGameParams,
};
use edgecolor::{OrientationParams, ParamProfile};
use edgecolor_verify::{check_balanced_orientation, check_proper_vertex_coloring};
use proptest::prelude::*;

/// A random directed graph together with a token capacity and initial tokens.
fn arb_token_game() -> impl Strategy<Value = (TokenGame, usize)> {
    (4usize..24, 1usize..12, 1usize..5).prop_flat_map(|(n, k, delta)| {
        let arcs = proptest::collection::vec((0..n, 0..n), 0..(4 * n));
        let tokens = proptest::collection::vec(0..=k, n);
        (arcs, tokens).prop_map(move |(raw_arcs, tokens)| {
            let mut seen = std::collections::HashSet::new();
            let mut arcs = Vec::new();
            for (a, b) in raw_arcs {
                if a != b && seen.insert((a, b)) {
                    arcs.push((NodeId::new(a), NodeId::new(b)));
                }
            }
            (TokenGame::new(n, arcs, k, tokens), delta.min(k))
        })
    })
}

/// A random bipartite graph (possibly irregular).
fn arb_bipartite() -> impl Strategy<Value = BipartiteGraph> {
    (3usize..14, 3usize..14).prop_flat_map(|(a, b)| {
        proptest::collection::vec((0..a, 0..b), 1..(2 * (a + b))).prop_map(move |pairs| {
            let mut seen = std::collections::HashSet::new();
            let mut edges = Vec::new();
            for (u, v) in pairs {
                if seen.insert((u, v)) {
                    edges.push((u, a + v));
                }
            }
            let g = Graph::from_edges(a + b, &edges).expect("valid bipartite edges");
            BipartiteGraph::from_graph(g).expect("bipartite by construction")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Section 4: the distributed token dropping solver conserves tokens,
    /// never exceeds the capacity, moves at most one token per arc, and
    /// every surviving active arc satisfies the Theorem 4.3 inequality —
    /// on arbitrary directed graphs, including ones with cycles.
    #[test]
    fn token_dropping_invariants_hold_on_arbitrary_digraphs((game, delta) in arb_token_game()) {
        let params = TokenGameParams { alpha: vec![delta.max(1); game.n], delta: delta.max(1) };
        let result = solve_distributed(&game, &params);
        prop_assert!(check_invariants(&game, &result));
        prop_assert!(check_theorem_4_3(&game, &params, &result).is_empty());
        prop_assert_eq!(result.rounds, 3 * result.phases);
    }

    /// The sequential reference play reaches a stable state: every arc that
    /// kept its token-capacity headroom satisfies the slack condition.
    #[test]
    fn sequential_token_dropping_reaches_stability((game, _delta) in arb_token_game()) {
        let sigma = 1.0;
        let result = solve_sequential(&game, |_, _| sigma);
        prop_assert!(check_invariants(&game, &result));
        for (i, &(u, v)) in game.arcs.iter().enumerate() {
            if !result.moved[i] {
                let tu = result.tokens[u.index()] as f64;
                let tv = result.tokens[v.index()] as f64;
                prop_assert!(tu == 0.0 || tv as usize == game.k || tu <= tv + sigma);
            }
        }
    }

    /// Section 5: the orientation algorithm orients every edge and satisfies
    /// Definition 5.2 with the profile's β (η = 0).
    #[test]
    fn balanced_orientation_satisfies_definition_5_2(bg in arb_bipartite()) {
        let graph = bg.graph();
        let params = OrientationParams::new(0.5, ParamProfile::Practical);
        let eta = vec![0.0; graph.m()];
        let mut net = Network::new(graph, Model::Local);
        let result = compute_balanced_orientation(&bg, &eta, &params, &mut net);
        prop_assert_eq!(result.orientation.oriented_count(), graph.m());
        prop_assert!(result.orientation.check_consistency(graph));
        check_balanced_orientation(&bg, &result.orientation, |_| 0.0, result.eps, result.beta, true)
            .assert_ok();
        // The slack the orientation actually needs stays within the
        // profile's β.
        let measured = measure_required_beta(&bg, &result.orientation, &eta, result.eps);
        prop_assert!(measured >= 0.0);
        prop_assert!(measured <= result.beta + 1e-9);
    }

    /// Corollary 5.7: the defective 2-edge coloring respects the
    /// Definition 5.1 bound for uniform λ = 1/2 on arbitrary bipartite graphs.
    #[test]
    fn defective_two_coloring_respects_definition_5_1(bg in arb_bipartite()) {
        let graph = bg.graph();
        let lambda = vec![0.5; graph.m()];
        let params = OrientationParams::new(0.5, ParamProfile::Practical);
        let mut net = Network::new(graph, Model::Local);
        let split = defective_two_edge_coloring(&bg, &lambda, &params, &mut net);
        prop_assert_eq!(split.red_count() + split.blue_count(), graph.m());
        let ratio = measure_defect_ratio(&bg, &split, &lambda);
        prop_assert!(ratio <= 1.0 + 1e-9, "defect ratio {} exceeds the Corollary 5.7 bound", ratio);
    }

    /// The Linial coloring is proper with an O(Δ²)-sized palette regardless of
    /// how adversarial the identifier assignment is.
    #[test]
    fn linial_coloring_is_proper_with_small_palette(bg in arb_bipartite(), seed in 0u64..1000) {
        let graph = bg.graph();
        let ids = IdAssignment::scattered(graph.n(), seed);
        let mut net = Network::new(graph, Model::Local);
        let result = linial_coloring(graph, &ids, &mut net);
        check_proper_vertex_coloring(graph, &result.coloring).assert_ok();
        let delta = graph.max_degree().max(1);
        prop_assert!(result.palette <= 16 * delta * delta + 64);
        // One round per reduction iteration.
        prop_assert_eq!(net.rounds(), u64::from(result.iterations));
    }
}
