//! `(8+ε)Δ`-edge coloring of general graphs in the CONGEST model
//! (Theorem 6.3 / Theorem 1.2).
//!
//! The algorithm computes an `O(Δ²)`-vertex coloring (Linial, `O(log* n)`
//! rounds), then repeatedly:
//!
//! 1. computes an `(ε₁Δ + ⌊Δ/2⌋)`-defective 4-coloring of the nodes with
//!    respect to the still-uncolored edges (Lemma 6.2),
//! 2. colors the two bipartite graphs induced by edges crossing the class
//!    pairs `{1,2}–{3,4}` and `{1,3}–{2,4}` with `(2+ε₂)Δᵢ` fresh colors each
//!    (Lemma 6.1),
//! 3. recurses on the remaining (monochromatic) edges, whose maximum degree
//!    has dropped to `(1/2 + ε₁)Δᵢ`.
//!
//! After `O(log Δ)` levels the remaining graph has constant degree and is
//! finished greedily. Summing the geometric series gives `(8 + O(ε))Δ`
//! colors in `poly log Δ + O(log* n)` rounds, with `O(log n)`-bit messages.

use crate::bipartite_coloring::color_bipartite;
use crate::defective_vertex::defective_four_coloring;
use crate::greedy_finish::greedy_palette_coloring_by_schedule;
use crate::linial::{linial_coloring, linial_edge_coloring};
use crate::params::ColoringParams;
use distgraph::{BipartiteGraph, EdgeColoring, Graph, Side, VertexColoring};
use distsim::{IdAssignment, LedgerEntry, Metrics, Model, Network, RoundLedger};

/// Result of the CONGEST `(8+ε)Δ`-edge coloring.
#[derive(Debug, Clone)]
pub struct CongestColoringResult {
    /// The complete proper edge coloring.
    pub coloring: EdgeColoring,
    /// Number of colors used (palette size).
    pub colors_used: usize,
    /// Number of degree-halving levels executed.
    pub levels: u32,
    /// Cost of the whole execution (rounds, messages, bandwidth violations).
    pub metrics: Metrics,
    /// Rounds spent in the initial `O(Δ²)`-coloring (the `O(log* n)` part).
    pub initial_coloring_rounds: u64,
    /// Per-stage round ledger (defective levels, bipartite splits, finish).
    pub ledger: RoundLedger,
}

/// The two ways of pairing the four defective color classes into a
/// bipartition (Theorem 6.3 colors both of them per level).
const CLASS_PAIRINGS: [[usize; 2]; 2] = [
    // U side = classes {0, 1}, V side = classes {2, 3}
    [0, 1],
    // U side = classes {0, 2}, V side = classes {1, 3}
    [0, 2],
];

/// Computes an `(8+ε)Δ`-edge coloring of `graph` in the CONGEST model
/// (Theorem 1.2). The network model is `CONGEST(O(log n))`; bandwidth
/// violations (there should be none) are reported in the returned metrics.
pub fn color_congest(
    graph: &Graph,
    ids: &IdAssignment,
    params: &ColoringParams,
) -> CongestColoringResult {
    let mut net = Network::new(graph, Model::congest_for(graph.n()));
    let mut coloring = EdgeColoring::empty(graph.m());
    if graph.m() == 0 {
        return CongestColoringResult {
            coloring,
            colors_used: 0,
            levels: 0,
            metrics: net.metrics(),
            initial_coloring_rounds: 0,
            ledger: RoundLedger::new(),
        };
    }

    // Initial O(Δ²)-vertex coloring in O(log* n) rounds.
    let linial = linial_coloring(graph, ids, &mut net);
    let initial_coloring_rounds = net.rounds();
    net.record_ledger(LedgerEntry {
        depth: 0,
        stage: "linial",
        delta_level: graph.max_degree(),
        edges: graph.m(),
        rounds: initial_coloring_rounds,
        defect_ratio: f64::NAN,
        fallback: false,
    });
    let base_coloring = linial.coloring;
    let base_palette = linial.palette;

    let delta = graph.max_degree();
    let k = ((delta.max(2) as f64).log2().floor() as u32).max(1);
    // ε₁ drives the *defective* levels and is deliberately independent of the
    // user's ε: the per-level degree contraction (1/2 + ε₁) must stay below 1
    // no matter how loose a palette the caller asked for.
    let eps1 = (1.0 / (2.0 * k as f64)).max(0.05);
    // ε₂ = the user's ε is spent in the bipartite coloring, where it buys a
    // smaller palette at a poly(1/ε) round cost (Lemma 6.1). This is the
    // intended Theorem 6.3 trade: rounds = poly(log Δ / ε) + O(log* n), so
    // tightening ε raises the measured round count whenever Δ̄ exceeds the
    // split cutoff, and has no round effect below it (pinned by
    // `congest_rounds_eps_dependence_is_intended`).
    let eps2 = params.eps;
    let bipartite_params = ColoringParams {
        eps: eps2,
        ..*params
    };

    let mut next_color = 0usize;
    let mut levels = 0u32;
    let finish_degree_cutoff = 4usize;

    for _level in 0..=params.max_outer_iterations.min(k + 2) {
        // The graph induced by the uncolored edges.
        let (uncolored, edge_map) = graph.edge_subgraph(|e| !coloring.is_colored(e));
        if uncolored.m() == 0 || uncolored.max_degree() <= finish_degree_cutoff {
            break;
        }
        levels += 1;

        // Lemma 6.2: defective 4-coloring of the uncolored graph.
        let restricted = VertexColoring::from_vec(base_coloring.as_slice().to_vec());
        let d4_rounds_before = net.rounds();
        let four = defective_four_coloring(&uncolored, &restricted, base_palette, eps1, &mut net);
        net.record_ledger(LedgerEntry {
            depth: levels,
            stage: "defective4",
            delta_level: uncolored.max_degree(),
            edges: uncolored.m(),
            rounds: net.rounds() - d4_rounds_before,
            defect_ratio: f64::NAN,
            fallback: false,
        });

        // Color the two bipartite class pairings with fresh color ranges.
        for pairing in CLASS_PAIRINGS {
            let side_of = |class: usize| -> Side {
                if pairing.contains(&class) {
                    Side::U
                } else {
                    Side::V
                }
            };
            let (piece, piece_map) = uncolored.edge_subgraph(|e| {
                if coloring.is_colored(edge_map[e.index()]) {
                    return false;
                }
                let (a, b) = uncolored.endpoints(e);
                side_of(four.color(a)) != side_of(four.color(b))
            });
            if piece.m() == 0 {
                continue;
            }
            let sides: Vec<Side> = piece.nodes().map(|v| side_of(four.color(v))).collect();
            let bipartite = BipartiteGraph::new(piece, sides)
                .expect("edges cross the bipartition by construction");
            let mut child_net = net.child(bipartite.graph());
            let result = color_bipartite(&bipartite, &bipartite_params, &mut child_net);
            net.absorb_sequential(&child_net.metrics());
            net.record_ledger(LedgerEntry {
                depth: levels,
                stage: "bipartite",
                delta_level: bipartite.graph().max_edge_degree(),
                edges: bipartite.graph().m(),
                rounds: child_net.rounds(),
                defect_ratio: f64::NAN,
                fallback: false,
            });
            net.absorb_ledger(child_net.take_ledger(), levels);
            for e in bipartite.graph().edges() {
                if let Some(c) = result.coloring.color(e) {
                    let original = edge_map[piece_map[e.index()].index()];
                    coloring.set(original, c + next_color);
                }
            }
            next_color += result.colors_used;
        }
    }

    // Finish the remaining constant-degree graph with 2d−1 fresh colors.
    let (rest, rest_map) = graph.edge_subgraph(|e| !coloring.is_colored(e));
    if rest.m() > 0 {
        let rest_ids = IdAssignment::from_vec(rest.nodes().map(|v| ids.id(v)).collect());
        let mut child_net = net.child(&rest);
        let schedule = linial_edge_coloring(&rest, &rest_ids, &mut child_net);
        let palette = (2 * rest.max_degree()).saturating_sub(1).max(1);
        let mut rest_coloring = EdgeColoring::empty(rest.m());
        let outcome = greedy_palette_coloring_by_schedule(
            &rest,
            &schedule,
            palette,
            &mut rest_coloring,
            &mut child_net,
        );
        debug_assert!(outcome.uncolorable.is_empty());
        net.absorb_sequential(&child_net.metrics());
        net.record_ledger(LedgerEntry {
            depth: 0,
            stage: "greedy-finish",
            delta_level: rest.max_edge_degree(),
            edges: rest.m(),
            rounds: child_net.rounds(),
            defect_ratio: f64::NAN,
            fallback: false,
        });
        for e in rest.edges() {
            if let Some(c) = rest_coloring.color(e) {
                coloring.set(rest_map[e.index()], c + next_color);
            }
        }
    }

    CongestColoringResult {
        colors_used: coloring.palette_size(),
        coloring,
        levels,
        metrics: net.metrics(),
        initial_coloring_rounds,
        ledger: net.take_ledger(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgraph::generators;
    use edgecolor_verify::{check_complete, check_proper_edge_coloring};

    fn run(graph: &Graph, eps: f64) -> CongestColoringResult {
        let ids = IdAssignment::scattered(graph.n(), 7);
        let params = ColoringParams::new(eps);
        color_congest(graph, &ids, &params)
    }

    fn check(graph: &Graph, result: &CongestColoringResult) {
        check_proper_edge_coloring(graph, &result.coloring).assert_ok();
        check_complete(graph, &result.coloring).assert_ok();
    }

    #[test]
    fn colors_small_regular_graph_properly() {
        let g = generators::random_regular(60, 6, 3).unwrap();
        let result = run(&g, 0.5);
        check(&g, &result);
        // (8+ε)Δ budget plus the constant-degree tail allowance.
        let budget = ((8.5) * g.max_degree() as f64).ceil() as usize + 8;
        assert!(
            result.colors_used <= budget,
            "colors {} exceed (8+ε)Δ budget {budget}",
            result.colors_used
        );
    }

    #[test]
    fn colors_erdos_renyi_graph() {
        let g = generators::erdos_renyi(80, 0.15, 5);
        let result = run(&g, 0.5);
        check(&g, &result);
        assert!(result.colors_used <= 9 * g.max_degree().max(1) + 8);
    }

    #[test]
    fn respects_congest_bandwidth() {
        let g = generators::random_regular(64, 8, 9).unwrap();
        let result = run(&g, 0.5);
        check(&g, &result);
        assert_eq!(
            result.metrics.congest_violations, 0,
            "CONGEST bandwidth exceeded: max message {} bits",
            result.metrics.max_message_bits
        );
    }

    #[test]
    fn low_degree_graphs_are_finished_greedily() {
        let g = generators::cycle(20);
        let result = run(&g, 0.5);
        check(&g, &result);
        assert_eq!(result.levels, 0);
        assert!(result.colors_used <= 3);
    }

    #[test]
    fn trees_and_paths() {
        for g in [generators::random_tree(50, 3), generators::path(30)] {
            let result = run(&g, 0.25);
            check(&g, &result);
            assert!(result.colors_used <= 2 * g.max_degree().max(1));
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let empty = Graph::from_edges(0, &[]).unwrap();
        let result = run(&empty, 0.5);
        assert_eq!(result.colors_used, 0);
        let edgeless = Graph::from_edges(7, &[]).unwrap();
        let result = run(&edgeless, 0.5);
        assert_eq!(result.colors_used, 0);
        assert_eq!(result.coloring.len(), 0);
    }

    #[test]
    fn initial_coloring_rounds_scale_like_log_star() {
        let small = generators::random_regular(32, 4, 1).unwrap();
        let large = generators::random_regular(512, 4, 1).unwrap();
        let r_small = run(&small, 0.5);
        let r_large = run(&large, 0.5);
        check(&large, &r_large);
        // log* growth: going from 32 to 512 nodes adds at most a couple of
        // Linial iterations.
        assert!(r_large.initial_coloring_rounds <= r_small.initial_coloring_rounds + 3);
    }

    /// Pins the intended ε ↔ rounds trade of Theorem 6.3 (observed in the E3
    /// bench as rounds varying with ε at Δ=16 but not at Δ=8).
    ///
    /// ε is spent in `color_bipartite`: χ = Θ(ε/ln Δ̄) controls the split
    /// schedule and the orientation runs Θ(ln Δ̄/χ) phases, so a *smaller* ε
    /// (fewer colors) buys *more* rounds — poly(1/ε)·polylog(Δ), not a bug.
    /// Below the split cutoff (Δ̄ ≤ 16) no split level runs and the round
    /// count is exactly ε-invariant.
    #[test]
    fn congest_rounds_eps_dependence_is_intended() {
        // Δ=16: the bipartite pieces exceed the split cutoff, so tightening
        // ε must never lower the round count.
        let g = generators::random_regular(96, 16, 11).unwrap();
        let ids = IdAssignment::scattered(g.n(), 5);
        let rounds = |eps: f64| {
            let result = color_congest(&g, &ids, &ColoringParams::new(eps));
            check(&g, &result);
            result.metrics.rounds
        };
        let (tight, mid, loose) = (rounds(0.25), rounds(0.5), rounds(1.0));
        assert!(
            tight >= mid && mid >= loose,
            "rounds must be monotone non-increasing in ε: {tight} (ε=.25) \
             {mid} (ε=.5) {loose} (ε=1)"
        );

        // Δ=8: every piece stays below the split cutoff, no orientation runs,
        // and the round count is bit-identical across ε.
        let small = generators::random_regular(96, 8, 11).unwrap();
        let small_ids = IdAssignment::scattered(small.n(), 5);
        let per_eps: Vec<u64> = [0.25, 0.5, 1.0]
            .iter()
            .map(|&eps| {
                color_congest(&small, &small_ids, &ColoringParams::new(eps))
                    .metrics
                    .rounds
            })
            .collect();
        assert_eq!(per_eps[0], per_eps[1]);
        assert_eq!(per_eps[1], per_eps[2]);
    }
}
