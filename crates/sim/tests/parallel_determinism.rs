//! The determinism battery for the parallel round-execution engine.
//!
//! The engine's contract is sharp: for any graph, seed and model,
//! `Parallel { threads }` must produce results **bit-identical** to
//! `Sequential` — same [`Mailboxes`], same [`Metrics`], same program outputs,
//! same final colorings — at every thread count. These property tests sweep
//! random graphs/seeds/models over thread counts {2, 3, 8} and compare
//! against the sequential reference at every layer of the stack:
//!
//! 1. `Network::exchange_sync` / `Network::broadcast` (mailboxes + metrics),
//! 2. `run_program_with` (outputs + metrics),
//! 3. the full coloring algorithms `color_edges_local` and `color_congest`
//!    (colorings + metrics).

use distgraph::{generators, EdgeId, Graph, NodeId};
use distsim::{
    run_program, run_program_with, ExecutionPolicy, IdAssignment, Incoming, Model, Network,
    NodeCtx, NodeProgram, Step,
};
use edgecolor::{color_congest, color_edges_local, ColoringParams};
use edgecolor_verify::{check_complete, check_proper_edge_coloring};
use proptest::prelude::*;

const THREAD_MATRIX: [usize; 3] = [2, 3, 8];

/// Random simple graph strategy: node count plus a sanitized edge list.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..32).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n), 0..max_edges.min(96)).prop_map(move |pairs| {
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

fn arb_model() -> impl Strategy<Value = Model> {
    (0u64..3).prop_map(|pick| match pick {
        0 => Model::Local,
        1 => Model::Congest { bandwidth_bits: 8 },
        _ => Model::Congest { bandwidth_bits: 64 },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `broadcast` gathers inboxes from adjacency slices instead of pushing
    /// sends, so its reference is the equivalent push-based `exchange_sync`
    /// round (every node sends its message over every incident edge) under
    /// `Sequential`. Payload sizes vary per node, so bit totals, the size
    /// maximum and congest violations are all exercised; isolated nodes
    /// send nothing.
    #[test]
    fn broadcast_mailboxes_are_bit_identical((g, model, seed) in
        (arb_graph(), arb_model(), 0u64..1000))
    {
        let ids = IdAssignment::scattered(g.n(), seed);
        let msg_of = |v: NodeId| vec![ids.id(v) * 3 + v.index() as u64; v.index() % 4 + 1];
        let mut reference_net = Network::new(&g, model);
        let reference = reference_net.exchange_sync(|v| {
            g.neighbors(v).iter().map(|nb| (nb.edge, msg_of(v))).collect()
        });
        let policies = std::iter::once(ExecutionPolicy::Sequential)
            .chain(THREAD_MATRIX.map(ExecutionPolicy::parallel));
        for policy in policies {
            let mut net = Network::with_policy(&g, model, policy);
            let mail = net.broadcast(msg_of);
            prop_assert_eq!(&mail, &reference, "mailboxes at {}", policy);
            prop_assert_eq!(net.metrics(), reference_net.metrics(), "metrics at {}", policy);
        }
    }

    #[test]
    fn exchange_sync_is_bit_identical((g, model, seed) in
        (arb_graph(), arb_model(), 0u64..1000))
    {
        // A send pattern with per-edge payload sizes and skipped edges, so
        // message counts, bit totals and congest violations all vary.
        let send = |v: NodeId| -> Vec<(EdgeId, Vec<u64>)> {
            g.neighbors(v)
                .iter()
                .filter(|nb| !(v.index() * 7 + nb.edge.index() + seed as usize).is_multiple_of(4))
                .map(|nb| {
                    let len = (nb.edge.index() + v.index()) % 3 + 1;
                    (nb.edge, vec![seed.wrapping_mul(v.index() as u64 + 1); len])
                })
                .collect()
        };
        let mut seq_net = Network::new(&g, model);
        let seq_mail = seq_net.exchange_sync(send);
        for threads in THREAD_MATRIX {
            let mut par_net =
                Network::with_policy(&g, model, ExecutionPolicy::parallel(threads));
            let par_mail = par_net.exchange_sync(send);
            prop_assert_eq!(&seq_mail, &par_mail);
            prop_assert_eq!(seq_net.metrics(), par_net.metrics());
        }
    }
}

/// Flooding with a per-round halting schedule: nodes halt at different
/// rounds, which stresses the halted-node bookkeeping of the parallel path.
struct StaggeredFlood {
    best: u64,
    budget: u32,
}

impl NodeProgram for StaggeredFlood {
    type Msg = u64;
    type Output = (u64, u32);

    fn init(&mut self, ctx: &NodeCtx) -> Vec<(EdgeId, u64)> {
        self.best = ctx.id;
        ctx.ports.iter().map(|p| (p.edge, self.best)).collect()
    }

    fn round(&mut self, ctx: &NodeCtx, inbox: &[Incoming<u64>]) -> Step<u64, (u64, u32)> {
        for m in inbox {
            self.best = self.best.max(m.msg);
        }
        if self.budget == 0 {
            return Step::Halt((self.best, ctx.degree as u32));
        }
        self.budget -= 1;
        Step::Send(ctx.ports.iter().map(|p| (p.edge, self.best)).collect())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn run_program_outputs_and_metrics_are_bit_identical((g, model, seed) in
        (arb_graph(), arb_model(), 0u64..1000))
    {
        let ids = IdAssignment::scattered(g.n(), seed);
        let budget_of = |v: NodeId| (v.index() as u32 + seed as u32) % 5;
        let reference = run_program(&g, &ids, model, 16, |v| StaggeredFlood {
            best: 0,
            budget: budget_of(v),
        });
        for threads in THREAD_MATRIX {
            let run = run_program_with(
                &g,
                &ids,
                model,
                ExecutionPolicy::parallel(threads),
                16,
                |v| StaggeredFlood {
                    best: 0,
                    budget: budget_of(v),
                },
            );
            prop_assert_eq!(&reference.outputs, &run.outputs);
            prop_assert_eq!(reference.metrics, run.metrics);
        }
    }
}

proptest! {
    // The full algorithms are expensive; fewer cases still cover a healthy
    // spread of graphs and seeds.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn color_edges_local_is_policy_invariant((g, seed) in (arb_graph(), 0u64..1000)) {
        let ids = IdAssignment::scattered(g.n(), seed);
        let params = ColoringParams::new(0.5);
        let reference = color_edges_local(&g, &ids, &params).expect("valid instance");
        if g.m() > 0 {
            check_proper_edge_coloring(&g, &reference.coloring).assert_ok();
            check_complete(&g, &reference.coloring).assert_ok();
        }
        for threads in THREAD_MATRIX {
            let par_params = params.with_policy(ExecutionPolicy::parallel(threads));
            let outcome = color_edges_local(&g, &ids, &par_params).expect("valid instance");
            prop_assert_eq!(&reference.coloring, &outcome.coloring);
            prop_assert_eq!(reference.metrics, outcome.metrics);
            prop_assert_eq!(reference.colors_used, outcome.colors_used);
            prop_assert_eq!(reference.outer_iterations, outcome.outer_iterations);
            prop_assert_eq!(reference.solver_calls, outcome.solver_calls);
        }
    }

    #[test]
    fn color_congest_is_policy_invariant((g, seed) in (arb_graph(), 0u64..1000)) {
        let ids = IdAssignment::scattered(g.n(), seed);
        let params = ColoringParams::new(0.5);
        let reference = color_congest(&g, &ids, &params);
        if g.m() > 0 {
            check_proper_edge_coloring(&g, &reference.coloring).assert_ok();
            check_complete(&g, &reference.coloring).assert_ok();
        }
        for threads in THREAD_MATRIX {
            let par_params = params.with_policy(ExecutionPolicy::parallel(threads));
            let outcome = color_congest(&g, &ids, &par_params);
            prop_assert_eq!(&reference.coloring, &outcome.coloring);
            prop_assert_eq!(reference.metrics, outcome.metrics);
            prop_assert_eq!(reference.colors_used, outcome.colors_used);
            prop_assert_eq!(reference.levels, outcome.levels);
        }
    }
}

/// Non-property check on a denser, structured instance: the bit-identity
/// holds on a graph large enough for the coloring machinery's outer loop to
/// engage.
#[test]
fn structured_instances_are_policy_invariant() {
    let bg = generators::regular_bipartite(24, 10, 3).expect("feasible");
    let g = bg.graph().clone();
    let ids = IdAssignment::scattered(g.n(), 9);
    let params = ColoringParams::new(0.5);
    let local_ref = color_edges_local(&g, &ids, &params).expect("valid instance");
    let congest_ref = color_congest(&g, &ids, &params);
    for threads in THREAD_MATRIX {
        let par = params.with_policy(ExecutionPolicy::parallel(threads));
        let local = color_edges_local(&g, &ids, &par).expect("valid instance");
        assert_eq!(local_ref.coloring, local.coloring, "{threads} threads");
        assert_eq!(local_ref.metrics, local.metrics, "{threads} threads");
        let congest = color_congest(&g, &ids, &par);
        assert_eq!(congest_ref.coloring, congest.coloring, "{threads} threads");
        assert_eq!(congest_ref.metrics, congest.metrics, "{threads} threads");
    }
}
