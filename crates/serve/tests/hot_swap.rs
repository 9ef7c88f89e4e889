//! Hot-swap battery: epoch coherence under concurrent reads, and corrupt
//! snapshots that must be rejected with the old generation still serving.
//!
//! The tear detector: the daemon boots on an 8×8 torus (m = 128) and swaps
//! to a 6×6 snapshot (m = 72). Stable id 100 is live-and-colored in the
//! old generation and unknown in the new one, so every concurrent lookup
//! of it must answer `(epoch 1, Colored)` or `(epoch 2, Unknown)` — any
//! other pairing is a torn read across the swap.

use distgraph::{generators, DynamicGraph, EdgeColoring};
use distserve::wire::{LookupOutcome, RejectCode};
use distserve::{Client, ClientError, DaemonHandle, Rejection, ServeConfig, ServerCore};
use distsim::IdAssignment;
use diststore::SnapshotSource;
use edgecolor::{ColoringParams, Recoloring};
use edgecolor_verify::{check_complete, check_proper_edge_coloring};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Encodes a snapshot of a properly colored torus (exercising the
/// daemon's adopt-the-stored-coloring boot path on swap).
fn colored_torus_snapshot(rows: usize, cols: usize) -> Vec<u8> {
    let dg = DynamicGraph::from_graph(generators::grid_torus(rows, cols));
    let ids = IdAssignment::scattered(dg.n(), 7);
    let params = ColoringParams::new(0.5);
    let (rec, _) = Recoloring::color_initial(&dg, &ids, &params).expect("colorable");
    let coloring: EdgeColoring = rec.coloring().clone();
    SnapshotSource::dynamic(&dg)
        .with_coloring(&coloring)
        .encode()
        .expect("encodes")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "distserve_hot_swap_{name}_{}.snap",
        std::process::id()
    ))
}

#[test]
fn concurrent_reads_observe_a_consistent_epoch_across_a_swap() {
    let snap_path = temp_path("target");
    std::fs::write(&snap_path, colored_torus_snapshot(6, 6)).expect("write snapshot");

    // Old generation: 8×8 torus, m = 128 — stable id 100 is live in the
    // old epoch and beyond the new snapshot's id range.
    let config = ServeConfig {
        tick_interval_ms: None,
        ..ServeConfig::default()
    };
    let core = ServerCore::new(generators::grid_torus(8, 8), config).expect("boot");
    let daemon = DaemonHandle::spawn(core).expect("bind");
    let addr = daemon.addr();
    const PROBE: u64 = 100;

    let swapped = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..3usize {
            s.spawn(|| {
                let mut client = Client::connect(addr).expect("connect");
                // Keep reading until the swap lands, then a little longer so
                // post-swap answers are exercised too.
                let mut post_swap = 0usize;
                while post_swap < 50 {
                    let (outcome, epoch, _) = client.lookup(PROBE).expect("lookup");
                    match epoch {
                        1 => assert!(
                            matches!(outcome, LookupOutcome::Colored { .. }),
                            "epoch 1 must still serve the old graph, got {outcome:?}"
                        ),
                        2 => {
                            assert!(
                                matches!(outcome, LookupOutcome::Unknown),
                                "epoch 2 must serve the new graph, got {outcome:?}"
                            );
                            post_swap += 1;
                        }
                        other => panic!("torn or invalid epoch {other}: {outcome:?}"),
                    }
                    if swapped.load(Ordering::SeqCst) {
                        post_swap += 1; // bounded exit even if epoch-2 reads lag
                    }
                }
            });
        }
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(5));
            let mut client = Client::connect(addr).expect("connect");
            let sw = client.swap(&snap_path.to_string_lossy()).expect("swap rpc");
            assert_eq!((sw.epoch, sw.n, sw.m), (2, 36, 72));
            swapped.store(true, Ordering::SeqCst);
        });
    });

    // The new generation is fully serving: coloring adopted and valid,
    // mutations admissible on the 6×6 node range.
    let tenant = daemon.core().default_tenant().clone();
    let st = tenant.state_snapshot();
    assert_eq!(st.epoch(), 2);
    assert_eq!(st.dynamic().graph().m(), 72);
    check_proper_edge_coloring(st.dynamic().graph(), st.coloring()).assert_ok();
    check_complete(st.dynamic().graph(), st.coloring()).assert_ok();
    let mut client = Client::connect(addr).expect("connect");
    client
        .submit(vec![], vec![(0, 7)])
        .expect("submit")
        .expect("admissible on the 6x6 range");
    match client.submit(vec![], vec![(0, 40)]).expect("submit") {
        Err(Rejection {
            code: RejectCode::NodeOutOfRange,
            ..
        }) => {}
        other => panic!("epoch-2 admission used stale bounds: {other:?}"),
    }
    daemon.shutdown();
    let _ = std::fs::remove_file(&snap_path);
}

#[test]
fn corrupt_snapshot_swaps_are_rejected_and_the_old_generation_keeps_serving() {
    let config = ServeConfig {
        tick_interval_ms: None,
        ..ServeConfig::default()
    };
    let core = ServerCore::new(generators::grid_torus(6, 6), config).expect("boot");
    let daemon = DaemonHandle::spawn(core).expect("bind");
    let mut client = Client::connect(daemon.addr()).expect("connect");

    // A nonexistent path, raw garbage, and a valid snapshot with its magic
    // flipped: all three must answer SwapRejected, never kill the daemon.
    let missing = temp_path("missing");
    let garbage = temp_path("garbage");
    std::fs::write(&garbage, b"definitely not a snapshot").expect("write");
    let flipped = temp_path("flipped");
    let mut bytes = colored_torus_snapshot(6, 6);
    bytes[0] ^= 0xFF;
    std::fs::write(&flipped, bytes).expect("write");

    for path in [&missing, &garbage, &flipped] {
        match client.swap(&path.to_string_lossy()) {
            Err(ClientError::SwapRejected { .. }) => {}
            other => panic!("corrupt swap answered {:?}", other.map(|_| ())),
        }
    }

    // Old generation intact: epoch still 1, reads and writes still served.
    match client.lookup(0).expect("lookup") {
        (LookupOutcome::Colored { .. }, 1, _) => {}
        other => panic!("old generation stopped serving: {other:?}"),
    }
    client
        .submit(vec![], vec![(0, 7)])
        .expect("submit")
        .expect("admissible");
    assert_eq!(client.flush().expect("flush").epoch, 1);
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.swaps, 0);
    assert_eq!(metrics.swaps_rejected, 3);
    assert_eq!(metrics.epoch, 1);

    let tenant = daemon.core().default_tenant().clone();
    let st = tenant.state_snapshot();
    check_proper_edge_coloring(st.dynamic().graph(), st.coloring()).assert_ok();
    check_complete(st.dynamic().graph(), st.coloring()).assert_ok();
    daemon.shutdown();
    let _ = std::fs::remove_file(&garbage);
    let _ = std::fs::remove_file(&flipped);
}

/// Admitted-but-unapplied batches are flushed into the *old* generation
/// before the swap publishes, so nothing admitted is ever dropped.
#[test]
fn pending_admissions_drain_into_the_old_epoch_before_the_swap() {
    let snap_path = temp_path("drain_target");
    std::fs::write(&snap_path, colored_torus_snapshot(6, 6)).expect("write snapshot");

    let config = ServeConfig {
        tick_interval_ms: None,
        ..ServeConfig::default()
    };
    let core = ServerCore::new(generators::grid_torus(8, 8), config).expect("boot");
    let daemon = DaemonHandle::spawn(core).expect("bind");
    let tenant = daemon.core().default_tenant().clone();
    let mut client = Client::connect(daemon.addr()).expect("connect");

    // Admit two batches; no ticker runs, so they sit in the queue.
    client
        .submit(vec![], vec![(0, 9)])
        .expect("submit")
        .expect("admissible");
    client
        .submit(vec![3], vec![])
        .expect("submit")
        .expect("admissible");
    assert_eq!(tenant.queue_depth(), 2);

    assert_eq!(
        client
            .swap(&snap_path.to_string_lossy())
            .expect("swap rpc")
            .epoch,
        2
    );
    assert_eq!(
        tenant.queue_depth(),
        0,
        "swap published with admissions still queued"
    );
    // The drained batches were applied to epoch 1 — the log proves it.
    let log = tenant.batch_log();
    let epoch1_ops: usize = log
        .iter()
        .filter(|(epoch, _)| *epoch == 1)
        .map(|(_, b)| b.delete.len() + b.insert.len())
        .sum();
    assert_eq!(epoch1_ops, 2);
    daemon.shutdown();
    let _ = std::fs::remove_file(&snap_path);
}
