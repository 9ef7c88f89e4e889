//! The strict per-node state-machine execution layer.
//!
//! In the LOCAL/CONGEST models every node runs the *same* algorithm with
//! access only to its own state and the messages it receives. The
//! [`NodeProgram`] trait captures exactly that: a node gets a [`NodeCtx`]
//! describing its local view of the topology (its port-numbered neighbor
//! list, its unique identifier, `n` and `Δ`) and produces, in each round, the
//! messages to send, until it halts with an output.
//!
//! The orchestrated layer ([`crate::Network`]) is more convenient for the
//! composed algorithms of the paper; this layer exists to demonstrate and
//! test that the building blocks are genuinely local, and all unit algorithms
//! that fit in a page (flooding, BFS, proposal/accept steps, token dropping)
//! have strict implementations running on it.

use crate::executor::{for_each_chunk_mut_in, map_chunks_with, Chunks, ExecutionPolicy};
use crate::faults::{FaultPlan, FaultState, FaultStats};
use crate::identifiers::IdAssignment;
use crate::ledger::{LedgerEntry, RoundLedger};
use crate::metrics::Metrics;
use crate::model::Model;
use crate::network::Incoming;
use crate::payload::Payload;
use distgraph::{EdgeId, Graph, Neighbor, NodeId};

/// A node's local view of the network, available in every round.
#[derive(Debug, Clone)]
pub struct NodeCtx {
    /// The node's (dense) index; only used for bookkeeping, the algorithmic
    /// symmetry breaking must use [`NodeCtx::id`].
    pub node: NodeId,
    /// The node's unique identifier from `{1, ..., poly n}`.
    pub id: u64,
    /// The node's degree.
    pub degree: usize,
    /// Port-numbered adjacency: `ports[i]` is the neighbor reachable through
    /// port `i` together with the connecting edge.
    pub ports: Vec<Neighbor>,
    /// The number of nodes `n`, known to all nodes (Section 2).
    pub n: usize,
    /// The maximum degree Δ, known to all nodes (Section 2).
    pub max_degree: usize,
}

/// What a node does at the end of a round.
#[derive(Debug, Clone)]
pub enum Step<M, O> {
    /// Keep running and send these messages (over incident edges).
    Send(Vec<(EdgeId, M)>),
    /// Halt with an output. A halted node sends nothing and ignores later
    /// messages.
    Halt(O),
}

/// A distributed algorithm, instantiated once per node.
pub trait NodeProgram {
    /// Message type exchanged between neighbors.
    type Msg: Payload;
    /// Per-node output when the node halts.
    type Output: Clone;

    /// Called once before the first round; returns the messages for round 1.
    fn init(&mut self, ctx: &NodeCtx) -> Vec<(EdgeId, Self::Msg)>;

    /// Called once per round with the messages received in that round.
    fn round(
        &mut self,
        ctx: &NodeCtx,
        inbox: &[Incoming<Self::Msg>],
    ) -> Step<Self::Msg, Self::Output>;
}

/// The result of running a [`NodeProgram`] on every node of a graph.
#[derive(Debug, Clone)]
pub struct ProgramRun<O> {
    /// Per-node outputs (`None` for nodes that did not halt before the round limit).
    pub outputs: Vec<Option<O>>,
    /// Cost of the execution.
    pub metrics: Metrics,
    /// What the fault adversary did when the run executed under a
    /// [`FaultPlan`] (see [`run_program_under_faults`]); `None` for
    /// fault-free runs.
    pub faults: Option<FaultStats>,
    /// The per-level round ledger of the run. The strict layer records one
    /// top-level `"program"` entry summarizing the execution; composed
    /// drivers running on the orchestrated layer attach their recursion's
    /// full ledger here.
    pub ledger: RoundLedger,
}

impl<O> ProgramRun<O> {
    /// Returns `true` if every node halted.
    pub fn all_halted(&self) -> bool {
        self.outputs.iter().all(Option::is_some)
    }

    /// Unwraps the outputs, panicking if some node did not halt.
    pub fn expect_outputs(self) -> Vec<O> {
        self.outputs
            .into_iter()
            .map(|o| o.expect("node did not halt within the round limit"))
            .collect()
    }
}

/// Runs one instance of `make_program` per node until every node halts or
/// `max_rounds` is reached.
///
/// The per-round semantics match the synchronous models: all `round` calls of
/// round `t` observe exactly the messages sent at the end of round `t − 1`.
pub fn run_program<P, F>(
    graph: &Graph,
    ids: &IdAssignment,
    model: Model,
    max_rounds: u64,
    make_program: F,
) -> ProgramRun<P::Output>
where
    P: NodeProgram,
    P::Msg: Send,
    F: FnMut(NodeId) -> P,
{
    run_program_inner(graph, ids, model, max_rounds, make_program, None)
}

/// The single top-level ledger entry of a strict-layer run: one `"program"`
/// record summarizing the whole execution.
fn program_ledger(graph: &Graph, metrics: &Metrics) -> RoundLedger {
    let mut ledger = RoundLedger::new();
    ledger.record(LedgerEntry {
        depth: 0,
        stage: "program",
        delta_level: graph.max_degree(),
        edges: graph.m(),
        rounds: metrics.rounds,
        defect_ratio: f64::NAN,
        fallback: false,
    });
    ledger
}

/// The sequential execution path, optionally filtered through a fault
/// adversary (the reference semantics every other path is bit-identical to).
fn run_program_inner<P, F>(
    graph: &Graph,
    ids: &IdAssignment,
    model: Model,
    max_rounds: u64,
    mut make_program: F,
    mut faults: Option<&mut FaultState>,
) -> ProgramRun<P::Output>
where
    P: NodeProgram,
    P::Msg: Send,
    F: FnMut(NodeId) -> P,
{
    let n = graph.n();
    let max_degree = graph.max_degree();
    let mut metrics = Metrics::new();
    let limit = model.bandwidth_limit();

    let contexts: Vec<NodeCtx> = graph
        .nodes()
        .map(|v| NodeCtx {
            node: v,
            id: ids.id(v),
            degree: graph.degree(v),
            ports: graph.neighbors(v).to_vec(),
            n,
            max_degree,
        })
        .collect();

    let mut programs: Vec<P> = graph.nodes().map(&mut make_program).collect();
    let mut outputs: Vec<Option<P::Output>> = vec![None; n];

    // Round 0: init.
    let mut pending: Vec<Vec<Incoming<P::Msg>>> = vec![Vec::new(); n];
    for v in graph.nodes() {
        let sends = programs[v.index()].init(&contexts[v.index()]);
        for (edge, msg) in sends {
            assert!(
                graph.is_endpoint(edge, v),
                "{v} sent over non-incident edge {edge}"
            );
            metrics.record_message(msg.encoded_bits() as u64, limit);
            let target = graph.other_endpoint(edge, v);
            pending[target.index()].push(Incoming { from: v, edge, msg });
        }
    }

    // The inbox double buffer: each round swaps `pending` (the messages to
    // deliver) into `inboxes` and clears the previous round's consumed
    // inboxes in place, so the steady-state loop allocates nothing.
    let mut inboxes: Vec<Vec<Incoming<P::Msg>>> = vec![Vec::new(); n];
    for _round in 0..max_rounds {
        if outputs.iter().all(Option::is_some) {
            break;
        }
        metrics.rounds += 1;
        let crash_mask = apply_round_faults(&mut faults, graph, metrics.rounds, &mut pending);
        std::mem::swap(&mut pending, &mut inboxes);
        for inbox in pending.iter_mut() {
            inbox.clear();
        }
        for v in graph.nodes() {
            if outputs[v.index()].is_some() {
                continue;
            }
            if crash_mask.as_ref().is_some_and(|mask| mask[v.index()]) {
                continue;
            }
            match programs[v.index()].round(&contexts[v.index()], &inboxes[v.index()]) {
                Step::Halt(out) => outputs[v.index()] = Some(out),
                Step::Send(sends) => {
                    for (edge, msg) in sends {
                        assert!(
                            graph.is_endpoint(edge, v),
                            "{v} sent over non-incident edge {edge}"
                        );
                        metrics.record_message(msg.encoded_bits() as u64, limit);
                        let target = graph.other_endpoint(edge, v);
                        pending[target.index()].push(Incoming { from: v, edge, msg });
                    }
                }
            }
        }
        note_crashed_steps(&mut faults, &crash_mask, &outputs);
    }

    ProgramRun {
        outputs,
        metrics,
        faults: None,
        ledger: program_ledger(graph, &metrics),
    }
}

/// Filters the round's pending messages through the fault adversary (if
/// any) and returns the round's crash mask. Shared by both execution
/// paths, *after* each has produced the canonical sequential delivery
/// order, so the adversary's decisions are identical across policies.
fn apply_round_faults<M: Payload + Send>(
    faults: &mut Option<&mut FaultState>,
    graph: &Graph,
    round: u64,
    pending: &mut [Vec<Incoming<M>>],
) -> Option<Vec<bool>> {
    let state = faults.as_deref_mut()?;
    state.apply(graph, round, pending);
    state.crash_mask(graph.n(), round)
}

/// Accounts the node steps suppressed by this round's crash mask. A crashed
/// node can neither step nor halt, so its output is still `None` exactly
/// when the crash suppressed a live step.
fn note_crashed_steps<O>(
    faults: &mut Option<&mut FaultState>,
    crash_mask: &Option<Vec<bool>>,
    outputs: &[Option<O>],
) {
    let (Some(state), Some(mask)) = (faults.as_deref_mut(), crash_mask) else {
        return;
    };
    let suppressed = mask
        .iter()
        .zip(outputs)
        .filter(|(&crashed, output)| crashed && output.is_none())
        .count() as u64;
    state.note_crashed_steps(suppressed);
}

/// Like [`run_program`], but executes each round's node actions under the
/// given [`ExecutionPolicy`].
///
/// Under `Parallel { threads }` the still-running programs are split into
/// contiguous node chunks, one scoped worker per chunk calls
/// [`NodeProgram::round`] against a read-only snapshot of the round's
/// inboxes, and the outgoing messages and metrics are merged in chunk order
/// (i.e. global node order). The produced outputs, pending messages and
/// [`Metrics`] are therefore **byte-identical** to the sequential execution
/// at every thread count; only wall-clock time changes.
pub fn run_program_with<P, F>(
    graph: &Graph,
    ids: &IdAssignment,
    model: Model,
    policy: ExecutionPolicy,
    max_rounds: u64,
    make_program: F,
) -> ProgramRun<P::Output>
where
    P: NodeProgram + Send,
    P::Msg: Send + Sync,
    P::Output: Send,
    F: FnMut(NodeId) -> P,
{
    run_program_with_inner(graph, ids, model, policy, max_rounds, make_program, None)
}

/// Like [`run_program_with`], but executes every round under the
/// seed-driven fault adversary described by `plan` (drops, duplicates,
/// delays, crash windows, severed shard links — see [`crate::faults`]).
///
/// The determinism contract extends to faults: the same `plan` produces
/// bit-identical outputs, metrics and [`FaultStats`] under every execution
/// policy, because every adversary decision is a pure hash of
/// `(seed, round, edge, sender)` applied to the canonically ordered
/// mailboxes. The adversary's effect is returned in
/// [`ProgramRun::faults`].
pub fn run_program_under_faults<P, F>(
    graph: &Graph,
    ids: &IdAssignment,
    model: Model,
    policy: ExecutionPolicy,
    max_rounds: u64,
    plan: FaultPlan,
    make_program: F,
) -> ProgramRun<P::Output>
where
    P: NodeProgram + Send,
    P::Msg: Send + Sync,
    P::Output: Send,
    F: FnMut(NodeId) -> P,
{
    let mut state = FaultState::new(plan);
    let mut run = run_program_with_inner(
        graph,
        ids,
        model,
        policy,
        max_rounds,
        make_program,
        Some(&mut state),
    );
    run.faults = Some(state.stats());
    run
}

/// Policy dispatch shared by [`run_program_with`] and
/// [`run_program_under_faults`].
fn run_program_with_inner<P, F>(
    graph: &Graph,
    ids: &IdAssignment,
    model: Model,
    policy: ExecutionPolicy,
    max_rounds: u64,
    make_program: F,
    faults: Option<&mut FaultState>,
) -> ProgramRun<P::Output>
where
    P: NodeProgram + Send,
    P::Msg: Send + Sync,
    P::Output: Send,
    F: FnMut(NodeId) -> P,
{
    // `spawning_pays_off` also routes oversubscribed policies (more threads
    // than the host has hardware slots for) to the inline runner, whose
    // output is bit-identical.
    if !policy.spawning_pays_off() {
        return run_program_inner(graph, ids, model, max_rounds, make_program, faults);
    }
    let mut faults = faults;
    let mut make_program = make_program;
    let n = graph.n();
    let max_degree = graph.max_degree();
    let mut metrics = Metrics::new();
    let limit = model.bandwidth_limit();
    // Degree-weighted chunks: a pure function of the graph and the policy's
    // thread count, so the chunk order (and with it the delivery order)
    // matches every other policy bit for bit, while hub-heavy chunks stop
    // serializing the round on one worker.
    let chunks = Chunks::degree_weighted(n, graph.csr_offsets(), policy.threads());
    let chunk_count = chunks.count();

    let contexts: Vec<NodeCtx> = graph
        .nodes()
        .map(|v| NodeCtx {
            node: v,
            id: ids.id(v),
            degree: graph.degree(v),
            ports: graph.neighbors(v).to_vec(),
            n,
            max_degree,
        })
        .collect();

    let mut programs: Vec<P> = graph.nodes().map(&mut make_program).collect();
    let mut outputs: Vec<Option<P::Output>> = Vec::with_capacity(n);
    outputs.resize_with(n, || None);

    // Round 0: init (sequential — one pass, identical to `run_program`).
    let mut pending: Vec<Vec<Incoming<P::Msg>>> = vec![Vec::new(); n];
    for v in graph.nodes() {
        let sends = programs[v.index()].init(&contexts[v.index()]);
        for (edge, msg) in sends {
            assert!(
                graph.is_endpoint(edge, v),
                "{v} sent over non-incident edge {edge}"
            );
            metrics.record_message(msg.encoded_bits() as u64, limit);
            let target = graph.other_endpoint(edge, v);
            pending[target.index()].push(Incoming { from: v, edge, msg });
        }
    }

    /// One undelivered message: destination node index plus inbox entry.
    type Targeted<M> = (usize, Incoming<M>);

    /// Per-chunk result of one parallel round.
    struct RoundOut<M> {
        buckets: Vec<Vec<Targeted<M>>>,
        metrics: Metrics,
    }

    // The inbox double buffer (see `run_program_inner`).
    let mut inboxes: Vec<Vec<Incoming<P::Msg>>> = vec![Vec::new(); n];
    for _round in 0..max_rounds {
        if outputs.iter().all(Option::is_some) {
            break;
        }
        metrics.rounds += 1;
        let crash_mask = apply_round_faults(&mut faults, graph, metrics.rounds, &mut pending);
        std::mem::swap(&mut pending, &mut inboxes);
        for inbox in pending.iter_mut() {
            inbox.clear();
        }

        // Split programs and outputs into disjoint per-chunk mutable slices.
        let mut slices = Vec::with_capacity(chunk_count);
        let mut prog_rest: &mut [P] = &mut programs;
        let mut out_rest: &mut [Option<P::Output>] = &mut outputs;
        for c in 0..chunk_count {
            let len = chunks.range(c).len();
            let (ph, pt) = prog_rest.split_at_mut(len);
            let (oh, ot) = out_rest.split_at_mut(len);
            slices.push((ph, oh));
            prog_rest = pt;
            out_rest = ot;
        }

        let crash_mask_view = crash_mask.as_deref();
        let outs: Vec<RoundOut<P::Msg>> =
            map_chunks_with(&chunks, policy, slices, |range, (progs, outs)| {
                let mut chunk_metrics = Metrics::new();
                let mut buckets: Vec<Vec<Targeted<P::Msg>>> = Vec::new();
                buckets.resize_with(chunk_count, Vec::new);
                for (offset, (program, output)) in progs.iter_mut().zip(outs.iter_mut()).enumerate()
                {
                    if output.is_some() {
                        continue;
                    }
                    let raw_v = range.start + offset;
                    if crash_mask_view.is_some_and(|mask| mask[raw_v]) {
                        continue;
                    }
                    let v = NodeId::new(raw_v);
                    match program.round(&contexts[raw_v], &inboxes[raw_v]) {
                        Step::Halt(out) => *output = Some(out),
                        Step::Send(sends) => {
                            for (edge, msg) in sends {
                                assert!(
                                    graph.is_endpoint(edge, v),
                                    "{v} sent over non-incident edge {edge}"
                                );
                                chunk_metrics.record_message(msg.encoded_bits() as u64, limit);
                                let target = graph.other_endpoint(edge, v).index();
                                buckets[chunks.chunk_of(target)]
                                    .push((target, Incoming { from: v, edge, msg }));
                            }
                        }
                    }
                }
                RoundOut {
                    buckets,
                    metrics: chunk_metrics,
                }
            });

        // Merge the per-chunk metrics in chunk order (order-independent,
        // see `Metrics::fold_costs`; the round itself was charged above).
        for out in &outs {
            metrics.fold_costs(&out.metrics);
        }

        // Deliver: per target chunk, drain the sender-chunk buckets in order,
        // which reproduces the sequential (global sender order) delivery.
        let mut per_target: Vec<Vec<Vec<Targeted<P::Msg>>>> = Vec::new();
        per_target.resize_with(chunk_count, Vec::new);
        for out in outs {
            for (tc, bucket) in out.buckets.into_iter().enumerate() {
                per_target[tc].push(bucket);
            }
        }
        for_each_chunk_mut_in(
            &chunks,
            &mut pending,
            policy,
            per_target,
            |range, slice, lists| {
                for bucket in lists {
                    for (target, incoming) in bucket {
                        slice[target - range.start].push(incoming);
                    }
                }
            },
        );
        note_crashed_steps(&mut faults, &crash_mask, &outputs);
    }

    ProgramRun {
        outputs,
        metrics,
        faults: None,
        ledger: program_ledger(graph, &metrics),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgraph::generators;

    /// Flooding: every node learns the maximum identifier in the graph after
    /// `diameter` rounds of re-broadcasting the largest value seen.
    struct MaxIdFlood {
        best: u64,
        rounds_left: u32,
    }

    impl NodeProgram for MaxIdFlood {
        type Msg = u64;
        type Output = u64;

        fn init(&mut self, ctx: &NodeCtx) -> Vec<(EdgeId, u64)> {
            self.best = ctx.id;
            ctx.ports.iter().map(|p| (p.edge, self.best)).collect()
        }

        fn round(&mut self, ctx: &NodeCtx, inbox: &[Incoming<u64>]) -> Step<u64, u64> {
            for m in inbox {
                self.best = self.best.max(m.msg);
            }
            if self.rounds_left == 0 {
                return Step::Halt(self.best);
            }
            self.rounds_left -= 1;
            Step::Send(ctx.ports.iter().map(|p| (p.edge, self.best)).collect())
        }
    }

    #[test]
    fn flooding_finds_global_maximum() {
        let g = generators::cycle(12);
        let ids = IdAssignment::scattered(12, 3);
        let expected = (0..12).map(|v| ids.id(NodeId::new(v))).max().unwrap();
        let run = run_program(&g, &ids, Model::Local, 64, |_| MaxIdFlood {
            best: 0,
            rounds_left: 12,
        });
        assert!(run.all_halted());
        for out in run.expect_outputs() {
            assert_eq!(out, expected);
        }
    }

    /// BFS layer computation from the node with identifier 1.
    struct Bfs {
        dist: Option<u64>,
        announced: bool,
    }

    impl NodeProgram for Bfs {
        type Msg = u64;
        type Output = u64;

        fn init(&mut self, ctx: &NodeCtx) -> Vec<(EdgeId, u64)> {
            if ctx.id == 1 {
                self.dist = Some(0);
                self.announced = true;
                ctx.ports.iter().map(|p| (p.edge, 0u64)).collect()
            } else {
                vec![]
            }
        }

        fn round(&mut self, ctx: &NodeCtx, inbox: &[Incoming<u64>]) -> Step<u64, u64> {
            if let Some(d) = self.dist {
                // Already has a distance; wait one round after announcing so
                // neighbors receive it, then halt.
                if self.announced {
                    return Step::Halt(d);
                }
            }
            if self.dist.is_none() {
                if let Some(min_in) = inbox.iter().map(|m| m.msg).min() {
                    self.dist = Some(min_in + 1);
                    self.announced = true;
                    return Step::Send(ctx.ports.iter().map(|p| (p.edge, min_in + 1)).collect());
                }
            }
            Step::Send(vec![])
        }
    }

    #[test]
    fn bfs_computes_distances_on_a_path() {
        let g = generators::path(6);
        let ids = IdAssignment::contiguous(6); // node 0 has id 1
        let run = run_program(&g, &ids, Model::Local, 32, |_| Bfs {
            dist: None,
            announced: false,
        });
        assert!(run.all_halted());
        let outs = run.expect_outputs();
        for (v, d) in outs.iter().enumerate() {
            assert_eq!(*d, v as u64);
        }
    }

    #[test]
    fn round_limit_leaves_nodes_unhalted() {
        let g = generators::path(50);
        let ids = IdAssignment::contiguous(50);
        let run = run_program(&g, &ids, Model::Local, 3, |_| Bfs {
            dist: None,
            announced: false,
        });
        assert!(!run.all_halted());
        assert_eq!(run.metrics.rounds, 3);
    }

    #[test]
    fn parallel_program_run_matches_sequential_bit_for_bit() {
        let g = generators::random_regular(64, 6, 9).unwrap();
        let ids = IdAssignment::scattered(64, 5);
        let reference = run_program(&g, &ids, Model::Local, 48, |_| MaxIdFlood {
            best: 0,
            rounds_left: 20,
        });
        for threads in [2usize, 3, 8] {
            let run = run_program_with(
                &g,
                &ids,
                Model::Local,
                ExecutionPolicy::parallel(threads),
                48,
                |_| MaxIdFlood {
                    best: 0,
                    rounds_left: 20,
                },
            );
            assert_eq!(run.outputs, reference.outputs, "{threads} threads");
            assert_eq!(run.metrics, reference.metrics, "{threads} threads");
        }
    }

    #[test]
    fn parallel_bfs_matches_sequential_with_halting() {
        // BFS halts nodes at different rounds, exercising the halted-node
        // skip logic of the parallel round loop.
        let g = generators::path(37);
        let ids = IdAssignment::contiguous(37);
        let reference = run_program(&g, &ids, Model::Local, 64, |_| Bfs {
            dist: None,
            announced: false,
        });
        let run = run_program_with(
            &g,
            &ids,
            Model::Local,
            ExecutionPolicy::parallel(4),
            64,
            |_| Bfs {
                dist: None,
                announced: false,
            },
        );
        assert_eq!(run.outputs, reference.outputs);
        assert_eq!(run.metrics, reference.metrics);
    }

    #[test]
    fn run_program_with_sequential_policy_is_run_program() {
        let g = generators::cycle(10);
        let ids = IdAssignment::contiguous(10);
        let a = run_program(&g, &ids, Model::Local, 16, |_| MaxIdFlood {
            best: 0,
            rounds_left: 10,
        });
        let b = run_program_with(
            &g,
            &ids,
            Model::Local,
            ExecutionPolicy::Sequential,
            16,
            |_| MaxIdFlood {
                best: 0,
                rounds_left: 10,
            },
        );
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn congest_accounting_in_program_runner() {
        let g = generators::cycle(8);
        let ids = IdAssignment::contiguous(8);
        let run = run_program(&g, &ids, Model::Congest { bandwidth_bits: 2 }, 16, |_| {
            MaxIdFlood {
                best: 0,
                rounds_left: 8,
            }
        });
        // identifiers up to 8 need 4 bits > 2, so violations must be flagged
        assert!(run.metrics.congest_violations > 0);
        assert!(run.metrics.messages > 0);
        assert!(run.metrics.max_message_bits >= 4);
    }
}
