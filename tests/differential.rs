//! Differential test battery: independent implementations must agree with
//! the audited checkers, and the dynamic recoloring subsystem must be
//! checker-equivalent to recoloring from scratch.
//!
//! Two layers of cross-checking:
//!
//! 1. On a seeded generator matrix, the paper's LOCAL algorithm and every
//!    baseline (sequential greedy, Misra–Gries, distributed
//!    greedy-by-classes) are funneled through the *same*
//!    `edgecolor_verify` checkers with their respective palette bounds — a
//!    disagreement means either an algorithm or a checker regressed.
//! 2. After N random mutation batches, the locally repaired coloring and a
//!    from-scratch `color_edges_local` run on the final graph must pass the
//!    identical checker suite (properness, completeness, palette budget),
//!    and a replayed session must repair **bit-identically**.

use distgraph::generators::{self, Family, UpdateScenario, UpdateStream};
use distgraph::{DynamicGraph, Graph};
use distsim::{IdAssignment, Model};
use edgecolor::{color_edges_local, default_palette, ColoringParams, Recoloring};
use edgecolor_baselines as baselines;
use edgecolor_verify::{
    check_complete, check_delta, check_palette_size, check_proper_edge_coloring,
};
use proptest::prelude::*;

/// The seeded generator matrix shared by the differential properties.
fn matrix() -> Vec<(String, Graph)> {
    let mut graphs = Vec::new();
    for family in [
        Family::RegularBipartite,
        Family::ErdosRenyi,
        Family::PowerLaw,
        Family::GridTorus,
        Family::RandomTree,
    ] {
        for seed in [3u64, 17] {
            let g = family.generate(96, 6, seed);
            if g.m() > 0 {
                graphs.push((format!("{}(seed {seed})", family.name()), g));
            }
        }
    }
    graphs
}

#[test]
fn all_implementations_pass_the_same_checkers() {
    let params = ColoringParams::new(0.5);
    for (name, g) in matrix() {
        let ids = IdAssignment::scattered(g.n(), 5);
        let delta = g.max_degree();
        let two_delta = default_palette(delta);

        let ours = color_edges_local(&g, &ids, &params)
            .unwrap_or_else(|e| panic!("{name}: LOCAL coloring failed: {e}"));
        let greedy = baselines::greedy_sequential(&g);
        let vizing = baselines::misra_gries(&g);
        let classes = baselines::greedy_by_classes(&g, &ids, Model::Local);

        // The same checker suite judges every implementation.
        for (algo, coloring, palette) in [
            ("ours-local", &ours.coloring, two_delta),
            ("greedy-sequential", &greedy, two_delta),
            ("misra-gries", &vizing, delta + 1),
            ("greedy-by-classes", &classes.coloring, two_delta),
        ] {
            let proper = check_proper_edge_coloring(&g, coloring);
            assert!(proper.is_ok(), "{name}/{algo}: improper: {proper}");
            let complete = check_complete(&g, coloring);
            assert!(complete.is_ok(), "{name}/{algo}: incomplete: {complete}");
            let budget = check_palette_size(coloring, palette);
            assert!(budget.is_ok(), "{name}/{algo}: palette: {budget}");
        }
    }
}

/// Runs a whole dynamic session (initial coloring + `batches` repairs) and
/// returns the final state.
fn run_dynamic_session(
    initial: &Graph,
    scenario: UpdateScenario,
    stream_seed: u64,
    batches: usize,
) -> (DynamicGraph, Recoloring, usize) {
    let params = ColoringParams::new(0.5);
    let ids = IdAssignment::scattered(initial.n(), 9);
    let mut dg = DynamicGraph::from_graph(initial.clone());
    let (mut rec, _) = Recoloring::color_initial(&dg, &ids, &params).expect("valid instance");
    let mut stream = UpdateStream::new(initial.clone(), scenario, stream_seed);
    let mut repaired_total = 0usize;
    for _ in 0..batches {
        let batch = stream.next_batch();
        let diff = dg.apply(&batch).expect("stream batches are valid");
        let report = rec.repair(&dg, &diff, &ids, &params).expect("repairable");
        repaired_total += report.repaired_edges;
        // Every repair is incrementally certified before the next batch.
        check_delta(dg.graph(), rec.coloring(), &report.touched, rec.palette()).assert_ok();
    }
    assert_eq!(dg.graph(), stream.graph(), "consumer diverged from stream");
    (dg, rec, repaired_total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn dynamic_repair_is_checker_equivalent_to_from_scratch(
        (rows, cols, kind, batches, seed) in (
            4usize..7,
            4usize..7,
            0u8..3,
            3usize..8,
            0u64..1000,
        )
    ) {
        let initial = generators::grid_torus(rows, cols);
        let window = initial.m();
        let scenario = match kind {
            0 => UpdateScenario::Churn { inserts: 4, deletes: 4 },
            1 => UpdateScenario::SlidingWindow { window, rate: 5 },
            _ => UpdateScenario::HubAttack { hub: 0, burst: 3, deletes: 1 },
        };

        let (dg, rec, _) = run_dynamic_session(&initial, scenario, seed, batches);
        let graph = dg.graph();

        // The maintained coloring passes the full checker suite...
        check_proper_edge_coloring(graph, rec.coloring()).assert_ok();
        check_complete(graph, rec.coloring()).assert_ok();
        check_palette_size(rec.coloring(), rec.palette()).assert_ok();

        // ...exactly like a from-scratch recoloring of the final graph
        // (checker equivalence, not color-for-color equality: the budgets
        // differ only in that repair may still hold pre-mutation headroom).
        let params = ColoringParams::new(0.5);
        let ids = IdAssignment::scattered(graph.n(), 9);
        let scratch = color_edges_local(graph, &ids, &params).expect("valid instance");
        let scratch_palette = default_palette(graph.max_degree());
        check_proper_edge_coloring(graph, &scratch.coloring).assert_ok();
        check_complete(graph, &scratch.coloring).assert_ok();
        check_palette_size(&scratch.coloring, scratch_palette).assert_ok();
        // The dynamic budget is never looser than the historical maximum Δ
        // would justify, and never tighter than the from-scratch budget.
        prop_assert!(rec.palette() >= scratch_palette);
    }

    #[test]
    fn dynamic_repair_replays_bit_identically(
        (rows, cols, kind, seed) in (4usize..6, 4usize..7, 0u8..2, 0u64..1000)
    ) {
        let initial = generators::grid_torus(rows, cols);
        let scenario = match kind {
            0 => UpdateScenario::Churn { inserts: 3, deletes: 3 },
            _ => UpdateScenario::HubAttack { hub: 0, burst: 3, deletes: 0 },
        };
        let batches = 4;
        let (_, reference, repaired) = run_dynamic_session(&initial, scenario, seed, batches);
        let (_, replay, replay_repaired) = run_dynamic_session(&initial, scenario, seed, batches);
        prop_assert_eq!(replay.coloring(), reference.coloring());
        prop_assert_eq!(replay.palette(), reference.palette());
        prop_assert_eq!(replay_repaired, repaired);
    }
}
