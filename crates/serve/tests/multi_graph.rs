//! Multi-graph serving battery: one daemon, several tenants, pipelined
//! connections.
//!
//! Three properties pin the v2 registry design:
//!
//! 1. **Isolation + determinism**: clients spread across two tenants
//!    mutate concurrently; afterwards each tenant's coloring is
//!    checker-valid and **bit-identical** to a sequential replay of *its
//!    own* coalesced batch log — tenant logs never bleed into each other.
//! 2. **Out-of-order completion**: on one pipelined connection, a slow
//!    flush on graph 0 and a fast lookup on graph 1 complete out of
//!    submission order, proven by request-id tagging. (Each round's flush
//!    repairs a freshly admitted batch pile — milliseconds of work against
//!    a microsecond lookup — so even on one CPU at least one of the rounds
//!    must invert; we assert exactly that, not a race-y all-of-them.)
//! 3. **Handshake first**: a connection whose first frame is not a `Hello`
//!    gets one typed reject and is closed; no tenant sees the frame.

use distgraph::{generators, DynamicGraph};
use distserve::wire::{read_frame, write_frame, LookupOutcome, RejectCode, Request, Response};
use distserve::{
    Client, DaemonHandle, PipelinedClient, Rejection, ServeConfig, ServerCore, Tenant,
};
use edgecolor::Recoloring;
use edgecolor_verify::{check_complete, check_delta, check_proper_edge_coloring};
use std::net::TcpStream;
use std::time::Duration;

/// Diagonal neighbor on an `rows × cols` torus — never a torus edge, so
/// inserting `(a, diag(a))` is always admissible exactly once.
fn diag(a: usize, rows: usize, cols: usize) -> usize {
    let (r, c) = (a / cols, a % cols);
    ((r + 1) % rows) * cols + (c + 1) % cols
}

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

/// Replays a tenant's coalesced batch log sequentially through a fresh
/// session and asserts the final coloring matches the served one bit for
/// bit (the same strong property `tests/concurrency.rs` pins for the
/// single-graph daemon).
fn assert_replay_bit_identical(tenant: &Tenant, rows: usize, cols: usize) {
    let st = tenant.state_snapshot();
    check_proper_edge_coloring(st.dynamic().graph(), st.coloring()).assert_ok();
    check_complete(st.dynamic().graph(), st.coloring()).assert_ok();

    let mut dg = DynamicGraph::from_graph(generators::grid_torus(rows, cols));
    let max_deg0 = dg.graph().max_degree();
    let ids = st.ids().clone();
    let params = *tenant.params();
    let budget = edgecolor::default_palette(max_deg0 + tenant.config().headroom);
    let (mut rec, _) = Recoloring::with_budget(&dg, &ids, &params, budget).expect("replay boot");
    for (epoch, batch) in &tenant.batch_log() {
        assert_eq!(*epoch, 1, "no swaps in this battery");
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
        "tenant diverged from sequential replay of its own batch log"
    );
}

fn spawn_two_tenants(dims: [(usize, usize); 2], tick_interval_ms: Option<u64>) -> DaemonHandle {
    let config = ServeConfig {
        tick_interval_ms,
        ..ServeConfig::default()
    };
    let tenants = dims
        .iter()
        .enumerate()
        .map(|(k, &(r, c))| {
            Tenant::new(
                format!("t{k}"),
                generators::grid_torus(r, c),
                config.clone(),
            )
            .expect("boot tenant")
        })
        .collect();
    DaemonHandle::spawn(ServerCore::from_tenants(tenants)).expect("bind")
}

/// Property 1: concurrent clients across two tenants; each tenant's final
/// coloring is checker-valid and bit-identical to a sequential replay of
/// its own batch log.
#[test]
fn tenants_isolate_and_replay_bit_identically() {
    const DIMS: [(usize, usize); 2] = [(10, 10), (8, 8)];
    const CLIENTS_PER_GRAPH: usize = 2;
    const OPS: usize = 30;
    let daemon = spawn_two_tenants(DIMS, Some(1));
    let addr = daemon.addr();

    std::thread::scope(|s| {
        for (gid, &(rows, cols)) in DIMS.iter().enumerate() {
            for slot in 0..CLIENTS_PER_GRAPH {
                s.spawn(move || {
                    let (n, m0) = (rows * cols, 2 * rows * cols);
                    let mut client = Client::connect(addr).expect("connect");
                    client.set_graph(gid as u32);
                    let (mut anchor, mut dead) = (slot, slot);
                    for i in 0..OPS {
                        let probe = ((slot * 31 + i * 7) % m0) as u64;
                        let _ = client.lookup(probe).expect("lookup");
                        if i % 2 == 0 && anchor < n {
                            submit_admitted(
                                &mut client,
                                &[],
                                &[(anchor as u32, diag(anchor, rows, cols) as u32)],
                            );
                            anchor += CLIENTS_PER_GRAPH;
                        } else if dead < m0 {
                            submit_admitted(&mut client, &[dead as u64], &[]);
                            dead += CLIENTS_PER_GRAPH;
                        }
                    }
                });
            }
        }
    });

    // Drain both tenants, then audit each independently.
    let mut client = Client::connect(addr).expect("connect");
    for gid in 0..DIMS.len() {
        client.set_graph(gid as u32);
        assert_eq!(client.flush().expect("flush").epoch, 1);
    }
    let core = daemon.core().clone();
    daemon.shutdown();
    assert_eq!(core.internal_errors(), 0);
    for (gid, &(rows, cols)) in DIMS.iter().enumerate() {
        let tenant = &core.tenants()[gid];
        assert_eq!(tenant.queue_depth(), 0, "flush left tenant {gid} behind");
        assert!(
            !tenant.batch_log().is_empty(),
            "tenant {gid} saw no writes at all"
        );
        assert_replay_bit_identical(tenant, rows, cols);
    }
}

/// Property 2: out-of-order completion across graphs on one pipelined
/// connection, demonstrated by request-id tagging.
#[test]
fn pipelined_responses_complete_out_of_order_across_graphs() {
    const ROUNDS: usize = 5;
    const INSERTS_PER_ROUND: usize = 20;
    // Manual ticks only: admissions pile up until the flush repairs them
    // all at once, making the graph-0 flush reliably slower than a
    // graph-1 lookup.
    let daemon = spawn_two_tenants([(12, 12), (6, 6)], None);
    let mut admitter = Client::connect(daemon.addr()).expect("connect");
    let mut conn = PipelinedClient::connect(daemon.addr()).expect("connect pipelined");

    let (rows, cols, n) = (12usize, 12usize, 144usize);
    let mut anchor = 0usize;
    let mut inversions = 0usize;
    for _ in 0..ROUNDS {
        for _ in 0..INSERTS_PER_ROUND {
            assert!(anchor < n, "anchor budget exhausted");
            submit_admitted(
                &mut admitter,
                &[],
                &[(anchor as u32, diag(anchor, rows, cols) as u32)],
            );
            anchor += 1;
        }
        let slow = conn.send(0, &Request::Flush).expect("send flush");
        let fast = conn
            .send(1, &Request::Lookup { stable: 3 })
            .expect("send lookup");
        let (first_rid, first) = conn.recv_any().expect("first completion");
        let (second_rid, second) = conn.recv_any().expect("second completion");
        assert_eq!(
            [first_rid, second_rid]
                .iter()
                .collect::<std::collections::BTreeSet<_>>(),
            [slow.id(), fast.id()].iter().collect(),
            "both tickets answered exactly once"
        );
        for (rid, resp) in [(first_rid, &first), (second_rid, &second)] {
            if rid == slow.id() {
                assert!(matches!(resp, Response::Flushed { .. }), "got {resp:?}");
            } else {
                assert!(matches!(resp, Response::Color { .. }), "got {resp:?}");
            }
        }
        if first_rid == fast.id() {
            inversions += 1; // the later-submitted lookup finished first
        }
    }
    assert!(
        inversions >= 1,
        "no out-of-order completion in {ROUNDS} rounds: pipelining is not \
         actually decoupling the graphs"
    );
    daemon.shutdown();
}

/// Property 3: a handshake-less first frame — a read, a write or a
/// `Shutdown` — is answered with exactly one `ProtocolRejected`, then EOF.
/// It is counted as a protocol error, moves no tenant's counters or epoch,
/// and the daemon keeps serving v2 clients.
#[test]
fn handshake_less_first_frames_are_rejected_and_closed() {
    let daemon = spawn_two_tenants([(6, 6), (5, 5)], None);
    let core = daemon.core();
    let metrics = || -> Vec<_> { core.tenants().iter().map(|t| t.metrics(0)).collect() };
    let before = metrics();
    let errors_before = core.protocol_errors();

    let first_frames = [
        Request::Lookup { stable: 0 },
        Request::Submit {
            delete: vec![],
            insert: vec![(0, 7)],
        },
        Request::Shutdown,
    ];
    for req in &first_frames {
        let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        write_frame(&mut stream, &req.encode()).expect("send first frame");
        let payload = read_frame(&mut stream)
            .expect("one answer")
            .expect("an answer before EOF");
        match Response::decode(&payload) {
            Ok(Response::ProtocolRejected { .. }) => {}
            other => panic!("handshake-less {req:?} answered {other:?}"),
        }
        assert!(
            matches!(read_frame(&mut stream), Ok(None)),
            "connection stayed open after rejecting {req:?}"
        );
    }

    assert_eq!(core.protocol_errors(), errors_before + 3);
    assert_eq!(metrics(), before, "a rejected frame reached a tenant");
    let mut client = Client::connect(daemon.addr()).expect("v2 connect after the rejects");
    assert_eq!(client.catalog().len(), 2);
    client.set_graph(1);
    match client.lookup(0).expect("lookup") {
        (LookupOutcome::Colored { .. }, 1, 0) => {}
        other => panic!("v2 lookup answered {other:?}"),
    }
    daemon.shutdown();
}
