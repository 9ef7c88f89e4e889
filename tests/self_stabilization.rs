//! The self-stabilization battery: post-fault repair must be
//! checker-equivalent to a from-scratch coloring.
//!
//! Closes the loop between the fault adversary (`distsim::faults`) and the
//! coloring layer (`edgecolor::stabilize`): after seed-driven corruption —
//! the stale-color state crashes, drops and severed shard links leave
//! behind — [`SelfStabilizing`] must detect every conflict in the suspect
//! neighborhood and heal the coloring to the *same guarantees* a
//! from-scratch `color_edges_local` run gives on the identical graph
//! (proper, complete, within the `2Δ − 1` budget), across the whole seeded
//! generator matrix, and a replayed corruption must heal bit-identically.

use distgraph::generators::{self, Family, UpdateScenario, UpdateStream};
use distgraph::{DynamicGraph, Graph};
use distsim::IdAssignment;
use edgecolor::{color_edges_local, default_palette, ColoringParams, Recoloring, SelfStabilizing};
use edgecolor_verify::{
    check_complete, check_delta, check_palette_size, check_proper_edge_coloring,
};

/// The seeded generator matrix (mirrors `tests/differential.rs`).
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
fn stabilized_colorings_are_checker_equivalent_to_from_scratch() {
    let params = ColoringParams::new(0.5);
    for (name, g) in matrix() {
        let ids = IdAssignment::scattered(g.n(), 7);
        let dg = DynamicGraph::from_graph(g.clone());
        let (rec, _) = Recoloring::color_initial(&dg, &ids, &params)
            .unwrap_or_else(|e| panic!("{name}: initial coloring failed: {e}"));
        let palette = rec.palette();
        let mut session = SelfStabilizing::new(rec);

        // Adversarial corruption proportional to the graph (≥ 4 edges).
        let count = (g.m() / 10).max(4);
        let touched = session.inject_corruption(dg.graph(), 0xFA_017 ^ g.m() as u64, count);
        assert!(!touched.is_empty(), "{name}: nothing corrupted");
        let report = session
            .stabilize(&dg, &touched, &ids, &params)
            .unwrap_or_else(|e| panic!("{name}: stabilize failed: {e}"));
        assert!(
            report.conflicts_found > 0,
            "{name}: corruption of {count} edges produced no detectable conflict"
        );

        // The healed coloring passes the exact checker suite a
        // from-scratch run passes, with the same palette bound.
        let scratch = color_edges_local(&g, &ids, &params)
            .unwrap_or_else(|e| panic!("{name}: from-scratch failed: {e}"));
        for (which, coloring) in [
            ("stabilized", session.coloring()),
            ("from-scratch", &scratch.coloring),
        ] {
            let proper = check_proper_edge_coloring(&g, coloring);
            assert!(proper.is_ok(), "{name}/{which}: improper: {proper}");
            let complete = check_complete(&g, coloring);
            assert!(complete.is_ok(), "{name}/{which}: incomplete: {complete}");
            let budget = check_palette_size(coloring, palette);
            assert!(budget.is_ok(), "{name}/{which}: palette: {budget}");
        }

        // The repair's own incremental certificate is clean.
        check_delta(&g, session.coloring(), &report.touched, palette).assert_ok();
    }
}

#[test]
fn stabilization_replays_bit_identically() {
    let g = generators::grid_torus(10, 10);
    let seeds = (0xBAD_5EED, 14usize);
    let run = || {
        let params = ColoringParams::new(0.5);
        let ids = IdAssignment::scattered(g.n(), 9);
        let dg = DynamicGraph::from_graph(g.clone());
        let (rec, _) = Recoloring::color_initial(&dg, &ids, &params).unwrap();
        let mut session = SelfStabilizing::new(rec);
        let touched = session.inject_corruption(dg.graph(), seeds.0, seeds.1);
        let report = session.stabilize(&dg, &touched, &ids, &params).unwrap();
        (session.coloring().clone(), touched, report)
    };
    let (reference, reference_touched, reference_report) = run();
    assert!(reference_report.conflicts_found > 0);
    let (coloring, touched, report) = run();
    assert_eq!(touched, reference_touched, "corruption diverged on replay");
    assert_eq!(coloring, reference, "healed coloring diverged on replay");
    assert_eq!(report.repaired_edges, reference_report.repaired_edges);
    assert_eq!(report.metrics, reference_report.metrics);
}

#[test]
fn stabilization_composes_with_dynamic_repair() {
    // Faults and churn interleave: mutate → repair → corrupt → stabilize,
    // repeatedly; the maintained coloring must stay checker-clean after
    // every cycle against the *current* graph.
    let g = generators::grid_torus(8, 8);
    let params = ColoringParams::new(0.5);
    let ids = IdAssignment::scattered(g.n(), 3);
    let mut dg = DynamicGraph::from_graph(g.clone());
    let budget = default_palette(g.max_degree() + 2);
    let (rec, _) = Recoloring::with_budget(&dg, &ids, &params, budget).unwrap();
    let mut session = SelfStabilizing::new(rec);
    let mut stream = UpdateStream::new(
        g,
        UpdateScenario::Churn {
            inserts: 4,
            deletes: 4,
        },
        21,
    );
    let mut stabilized_any = false;
    for cycle in 0..6u64 {
        // Churn batch + local repair (the PR 3 pipeline) — via the wrapped
        // session's recoloring by rebuilding the wrapper around it.
        let batch = stream.next_batch();
        let diff = dg.apply(&batch).expect("stream batches are valid");
        let mut rec = session.recoloring().clone();
        rec.repair(&dg, &diff, &ids, &params).expect("repairable");
        session = SelfStabilizing::new(rec);
        // Fault corruption + stabilization.
        let touched = session.inject_corruption(dg.graph(), 1000 + cycle, 6);
        let report = session.stabilize(&dg, &touched, &ids, &params).unwrap();
        stabilized_any |= report.conflicts_found > 0;
        check_proper_edge_coloring(dg.graph(), session.coloring()).assert_ok();
        check_complete(dg.graph(), session.coloring()).assert_ok();
        check_palette_size(session.coloring(), session.palette()).assert_ok();
    }
    assert!(stabilized_any, "six corruption cycles never conflicted");
    assert_eq!(dg.graph(), stream.graph());
}
