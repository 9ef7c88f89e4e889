//! Concurrency correctness battery for the serving daemon.
//!
//! N client threads submit interleaved mutation batches and lookups over
//! real TCP connections against one daemon whose background ticker
//! coalesces admissions into repairs. Afterwards the final coloring must
//! be checker-valid, and — the strong property — **bit-identical** to a
//! sequential replay of the coalesced batch log through a fresh
//! [`Recoloring`] session with the same ids, parameters and palette
//! budget. Coalescing and thread interleavings may change *which* batches
//! form, but the log the daemon actually applied must be replayable.
//!
//! The write workload uses the loadgen's disjoint-anchor scheme: client
//! `k` of `K` inserts diagonal pairs `(a, diag(a))` for anchors
//! `a ≡ k (mod K)` (never torus edges, distinct per anchor) and deletes
//! initial stable ids `≡ k (mod K)` — so every submission is admissible
//! regardless of interleaving and the expected op count is exact.

use distgraph::{generators, DynamicGraph};
use distserve::wire::{LookupOutcome, RejectCode, Request, Response};
use distserve::{Client, DaemonHandle, Rejection, ServeConfig, ServerCore};
use edgecolor::Recoloring;
use edgecolor_verify::{check_complete, check_delta, check_proper_edge_coloring};
use std::time::Duration;

const ROWS: usize = 12;
const COLS: usize = 12;
const CLIENTS: usize = 6;
const OPS_PER_CLIENT: usize = 48;

/// The diagonal neighbor `((r+1) % ROWS, (c+1) % COLS)` — never a torus
/// edge, and `diag(diag(a)) != a` for 12×12, so pairs are distinct.
fn diag(a: usize) -> usize {
    let (r, c) = (a / COLS, a % COLS);
    ((r + 1) % ROWS) * COLS + (c + 1) % COLS
}

/// Submits until admitted, retrying transient backpressure rejects.
fn submit_admitted(client: &mut Client, delete: &[u64], insert: &[(u32, u32)]) {
    loop {
        match client
            .submit(delete.to_vec(), insert.to_vec())
            .expect("transport stays up")
        {
            Ok(_) => return,
            Err(Rejection {
                code: RejectCode::QueueFull | RejectCode::SwapInProgress,
                ..
            }) => std::thread::sleep(Duration::from_micros(200)),
            Err(r) => panic!("admissible batch rejected: {r}"),
        }
    }
}

#[test]
fn interleaved_clients_converge_to_a_replayable_coloring() {
    let graph = generators::grid_torus(ROWS, COLS);
    let (n, m0, max_deg0) = (graph.n(), graph.m(), graph.max_degree());
    let config = ServeConfig {
        tick_interval_ms: Some(1),
        ..ServeConfig::default()
    };
    let headroom = config.headroom;
    let core = ServerCore::new(graph, config).expect("boot");
    let daemon = DaemonHandle::spawn(core).expect("bind");
    let addr = daemon.addr();

    // Interleaved clients: every op alternates a lookup with a write, so
    // the read path runs concurrently with admission and ticks throughout.
    let per_client: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let (mut anchor, mut dead, mut writes) = (k, k, 0u64);
                    for i in 0..OPS_PER_CLIENT {
                        let probe = ((k * 31 + i * 7) % m0) as u64;
                        let _ = client.lookup(probe).expect("lookup");
                        if i % 2 == 0 && anchor < n {
                            submit_admitted(
                                &mut client,
                                &[],
                                &[(anchor as u32, diag(anchor) as u32)],
                            );
                            anchor += CLIENTS;
                            writes += 1;
                        } else if dead < m0 {
                            submit_admitted(&mut client, &[dead as u64], &[]);
                            dead += CLIENTS;
                            writes += 1;
                        }
                    }
                    writes
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let total_writes: u64 = per_client.iter().sum();
    assert!(total_writes > 0, "workload produced no writes");

    // Drain everything that was admitted, then stop the daemon.
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.flush().expect("flush").epoch, 1);
    let tenant = daemon.core().default_tenant().clone();
    daemon.shutdown();
    assert_eq!(tenant.internal_errors(), 0, "ticks hit internal errors");
    assert_eq!(
        tenant.queue_depth(),
        0,
        "flush left admitted batches behind"
    );

    // The final coloring is checker-valid.
    let st = tenant.state_snapshot();
    check_proper_edge_coloring(st.dynamic().graph(), st.coloring()).assert_ok();
    check_complete(st.dynamic().graph(), st.coloring()).assert_ok();

    // Every admitted op landed in the coalesced log, all on epoch 1.
    let log = tenant.batch_log();
    let logged_ops: u64 = log
        .iter()
        .map(|(_, b)| (b.delete.len() + b.insert.len()) as u64)
        .sum();
    assert_eq!(
        logged_ops, total_writes,
        "coalesced log lost or duplicated ops"
    );
    assert!(log.iter().all(|(epoch, _)| *epoch == 1));

    // The strong property: sequential replay of the coalesced batch log
    // through a fresh session reproduces the served coloring bit for bit.
    // (The daemon's post-repair stabilize pass is a certify-only no-op on a
    // clean coloring, so plain repair replay must agree exactly.)
    let mut dg = DynamicGraph::from_graph(generators::grid_torus(ROWS, COLS));
    let ids = st.ids().clone();
    let params = *tenant.params();
    let budget = edgecolor::default_palette(max_deg0 + headroom);
    let (mut rec, _) = Recoloring::with_budget(&dg, &ids, &params, budget).expect("replay boot");
    for (_, batch) in &log {
        let diff = dg.apply(batch).expect("logged batches replay cleanly");
        let report = rec
            .repair(&dg, &diff, &ids, &params)
            .expect("replay repair");
        check_delta(dg.graph(), rec.coloring(), &report.touched, rec.palette()).assert_ok();
    }
    assert_eq!(dg.graph().m(), st.dynamic().graph().m());
    assert_eq!(
        rec.coloring(),
        st.coloring(),
        "concurrent serving diverged from sequential replay of its own batch log"
    );
}

/// Lookups racing a manual tick loop always see a coherent answer: the
/// reported epoch stays 1 (no swaps here) and the reader never errors,
/// even while the writer republishes state every few microseconds.
#[test]
fn readers_race_ticks_without_torn_answers() {
    let graph = generators::grid_torus(ROWS, COLS);
    let m0 = graph.m();
    let config = ServeConfig {
        tick_interval_ms: None,
        ..ServeConfig::default()
    };
    let core = ServerCore::new(graph, config).expect("boot");
    let daemon = DaemonHandle::spawn(core).expect("bind");
    let addr = daemon.addr();
    let tenant = daemon.core().default_tenant().clone();

    std::thread::scope(|s| {
        // Writer: one submission per tick, ticked manually and hotly.
        s.spawn(|| {
            let mut client = Client::connect(addr).expect("connect");
            for (i, a) in (0..ROWS * COLS).step_by(3).enumerate() {
                submit_admitted(&mut client, &[], &[(a as u32, diag(a) as u32)]);
                tenant.tick();
                if i % 8 == 0 {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        });
        for r in 0..3usize {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..200usize {
                    let probe = ((r * 13 + i) % m0) as u64;
                    let (outcome, epoch, _) = client.lookup(probe).expect("lookup");
                    assert_eq!(epoch, 1, "no swaps here, epoch must stay 1");
                    // Initial edges stay live and colored throughout.
                    assert!(
                        matches!(outcome, LookupOutcome::Colored { .. }),
                        "live edge answered {outcome:?}"
                    );
                }
            });
        }
    });

    let mut client = Client::connect(addr).expect("connect");
    match client.request(&Request::Flush).expect("flush") {
        Response::Flushed { epoch: 1, .. } => {}
        other => panic!("flush answered {other:?}"),
    }
    let st = tenant.state_snapshot();
    check_proper_edge_coloring(st.dynamic().graph(), st.coloring()).assert_ok();
    check_complete(st.dynamic().graph(), st.coloring()).assert_ok();
    daemon.shutdown();
}
