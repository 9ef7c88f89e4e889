//! Out-of-core snapshot walkthrough: the three load paths side by side.
//!
//! Generates a torus, writes it as a text edge list and as a binary
//! snapshot (with an RCM reordering permutation attached), then times the
//! three ways of getting it back:
//!
//! 1. text parse (`read_edge_list` → `Graph::from_edges`),
//! 2. binary decode (`Snapshot::open` → `LoadedSnapshot` → `Graph`),
//! 3. zero-copy open (`Snapshot::open` → `SnapshotView`, no materialization),
//!
//! and finishes by driving a simulator round from the materialized
//! snapshot. Run with:
//!
//! ```text
//! cargo run --release --example snapshot_io            # 100×50 torus
//! cargo run --release --example snapshot_io 1000 500   # the bench's million-edge torus
//! ```

use distgraph::{generators, reorder_permutation, NodeId, ReorderStrategy};
use distsim::Model;
use diststore::{read_edge_list, write_edge_list, LoadedSnapshot, Snapshot, SnapshotSource};
use std::time::Instant;

fn main() -> Result<(), diststore::SnapshotError> {
    let mut args = std::env::args().skip(1);
    let rows: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);
    let cols: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(50);

    let graph = generators::grid_torus(rows, cols);
    println!(
        "grid_torus({rows}x{cols}): n = {}, m = {}, Δ = {}",
        graph.n(),
        graph.m(),
        graph.max_degree()
    );

    // Reorder for locality and keep the permutation in the snapshot, so the
    // original node ids stay recoverable (`SnapshotView::original_id`).
    let perm = reorder_permutation(&graph, ReorderStrategy::Rcm);
    let reordered = graph.renumber_nodes(&perm);

    let dir = std::env::temp_dir();
    let txt = dir.join(format!("snapshot_io_{}.txt", std::process::id()));
    let snap = dir.join(format!("snapshot_io_{}.snap", std::process::id()));
    write_edge_list(&reordered, &txt)?;
    SnapshotSource::graph(&reordered)
        .with_permutation(&perm)
        .write_to(&snap)?;
    let size = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    println!(
        "on disk: text {:.2} MiB, snapshot {:.2} MiB",
        size(&txt) as f64 / 1048576.0,
        size(&snap) as f64 / 1048576.0
    );

    // Path 1: text parse.
    let started = Instant::now();
    let parsed = read_edge_list(&txt)?;
    let text_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(parsed, reordered);
    println!("text parse:     {text_ms:8.1} ms");

    // Path 2: binary decode (open + validate + materialize a Graph).
    let started = Instant::now();
    let snapshot = Snapshot::open(&snap)?;
    let open_ms = started.elapsed().as_secs_f64() * 1e3;
    let loaded = LoadedSnapshot::load(&snapshot)?;
    let decode_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(loaded.graph(), &reordered);
    println!(
        "binary decode:  {decode_ms:8.1} ms   ({text_ms:.0} ms / {decode_ms:.0} ms = {:.1}x)",
        text_ms / decode_ms
    );

    // Path 3: zero-copy open — the view serves point queries straight from
    // the file bytes; nothing was deserialized.
    let view = snapshot.view();
    let probe = NodeId::new(0);
    assert_eq!(view.degree(probe), reordered.degree(probe));
    assert_eq!(view.original_id(probe), Some(perm.old_id(probe)));
    println!(
        "zero-copy open: {open_ms:8.1} ms   ({text_ms:.0} ms / {open_ms:.0} ms = {:.1}x)",
        text_ms / open_ms
    );

    // The materialized snapshot drives the simulator directly.
    let mut net = loaded.network(Model::Local);
    net.broadcast(|v| loaded.graph().degree(v) as u64);
    println!(
        "one broadcast round from the snapshot: rounds = {}",
        net.rounds()
    );

    std::fs::remove_file(&txt).ok();
    std::fs::remove_file(&snap).ok();
    Ok(())
}
