//! Reordering must not break the correctness contract: a BFS/RCM/degree-
//! renumbered graph (round-tripped through a binary snapshot) colors to a
//! checker-clean coloring, and — because `renumber_nodes` preserves
//! `EdgeId`s — that coloring is proper on the original graph too.

use distgraph::{generators, reorder_permutation, Graph, ReorderStrategy};
use distsim::IdAssignment;
use diststore::{LoadedSnapshot, Snapshot, SnapshotSource};
use edgecolor::{color_edges_local, ColoringParams};
use edgecolor_verify::{check_complete, check_palette_size, check_proper_edge_coloring};

fn assert_reordered_coloring_contract(g: &Graph, strategy: ReorderStrategy) {
    let perm = reorder_permutation(g, strategy);
    let reordered = g.renumber_nodes(&perm);

    // Round-trip the reordered graph (permutation attached) through the
    // binary format before coloring: what the bench and any out-of-core
    // pipeline would actually execute on.
    let bytes = SnapshotSource::graph(&reordered)
        .with_permutation(&perm)
        .encode()
        .expect("encodes");
    let snapshot = Snapshot::from_bytes(bytes).expect("opens");
    let loaded = LoadedSnapshot::load(&snapshot).expect("materializes");
    assert_eq!(
        loaded.graph(),
        &reordered,
        "{}: lossy round-trip",
        strategy.name()
    );

    let ids = IdAssignment::scattered(loaded.graph().n(), 1);
    let coloring = color_edges_local(loaded.graph(), &ids, &ColoringParams::new(0.5))
        .unwrap_or_else(|e| panic!("{}: coloring failed: {e}", strategy.name()))
        .coloring;
    check_proper_edge_coloring(loaded.graph(), &coloring).assert_ok();
    check_complete(loaded.graph(), &coloring).assert_ok();
    check_palette_size(&coloring, 2 * loaded.graph().max_degree() - 1).assert_ok();

    // EdgeIds survived the renumbering, so the very same color vector must
    // be proper and complete on the *original* graph as well.
    check_proper_edge_coloring(g, &coloring).assert_ok();
    check_complete(g, &coloring).assert_ok();
}

#[test]
fn torus_colorings_survive_reordering() {
    let g = generators::grid_torus(12, 9);
    for strategy in [
        ReorderStrategy::Degree,
        ReorderStrategy::Bfs,
        ReorderStrategy::Rcm,
    ] {
        assert_reordered_coloring_contract(&g, strategy);
    }
}

#[test]
fn power_law_colorings_survive_reordering() {
    let g = generators::power_law(300, 2.5, 24, 7);
    for strategy in [
        ReorderStrategy::Degree,
        ReorderStrategy::Bfs,
        ReorderStrategy::Rcm,
    ] {
        assert_reordered_coloring_contract(&g, strategy);
    }
}

#[test]
fn random_regular_colorings_survive_reordering() {
    let g = generators::random_regular(128, 6, 42).expect("generator succeeds");
    for strategy in [ReorderStrategy::Bfs, ReorderStrategy::Rcm] {
        assert_reordered_coloring_contract(&g, strategy);
    }
}
