//! The synchronous-round network: the round engine every algorithm runs on.
//!
//! A [`Network`] wraps a graph and provides the primitive the LOCAL/CONGEST
//! models are built on: one synchronous round in which every node sends one
//! message along each incident edge it chooses and receives the messages sent
//! to it. The network charges rounds, counts messages and bits, and checks
//! the CONGEST bandwidth limit.
//!
//! Algorithms written against this layer express each communication round
//! explicitly (via [`Network::exchange`] or [`Network::broadcast`]), so the
//! round counts reported in the experiments are exactly the number of
//! `exchange`/`broadcast` calls plus explicitly charged sub-protocol rounds.
//!
//! # Execution policies
//!
//! Every network carries an [`ExecutionPolicy`]. Rounds issued through
//! [`Network::exchange_sync`] or [`Network::broadcast`] honor it: under
//! `Parallel { threads }` the per-node closures run on a scoped worker
//! pool over degree-weighted contiguous node chunks and the per-chunk
//! results and metrics are merged in chunk order, which makes the result
//! **byte-identical** to the sequential execution at any thread count.
//! [`Network::exchange`] takes a stateful `FnMut` closure and therefore
//! always runs sequentially.
//!
//! # The flat-arena delivery path
//!
//! Delivery is allocation-free in steady state. Each worker appends packed
//! `(target, Incoming { from, edge, msg })` rows to a reusable arena buffer
//! owned by the network (pooled per message type); the sealed round counts
//! rows per target, prefix-sums the counts into CSR offsets, and permutes
//! the concatenated rows in place into target-major order — yielding the
//! structure-of-arrays [`Mailboxes`] without ever materializing per-node
//! `Vec`s. Because workers are visited in chunk order and the permutation
//! is stable per target, every inbox reads in global sender order, exactly
//! what the sequential reference loop produces. When a fault plan is
//! installed the round falls back to materialized per-node boxes (the
//! adversary mutates inboxes in place), so fault-free hot paths never pay
//! for that generality.
//!
//! # The pull-based broadcast
//!
//! [`Network::broadcast`] does not push at all: every node's message is
//! built once, and each inbox is gathered by reading the node's adjacency
//! slice. Adjacency slices are sorted by neighbor id, so the gathered inbox
//! is in ascending sender order — the order the arena path delivers — and
//! the mailbox offsets are the graph's CSR offsets, with no count or
//! permute stage.

use crate::executor::{map_chunks, map_chunks_with, Chunks, ExecutionPolicy};
use crate::faults::{FaultPlan, FaultState, FaultStats};
use crate::ledger::{LedgerEntry, RoundLedger};
use crate::metrics::Metrics;
use crate::model::Model;
use crate::payload::Payload;
use distgraph::{EdgeId, Graph, NodeId};
use std::any::{Any, TypeId};
use std::collections::HashMap;

/// One undelivered message: the destination node index paired with the
/// [`Incoming`] entry its inbox will receive.
type Targeted<M> = (usize, Incoming<M>);

/// A message received by a node in a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incoming<M> {
    /// The node that sent the message.
    pub from: NodeId,
    /// The edge over which it arrived.
    pub edge: EdgeId,
    /// The payload.
    pub msg: M,
}

/// Per-node inboxes produced by one round of communication, stored as a
/// structure-of-arrays CSR: one flat target-major entry array plus `n + 1`
/// offsets, so a round delivers all inboxes in two allocations regardless of
/// the node count.
///
/// Equality compares the logical content; two mailboxes with identical
/// inboxes have identical representations no matter which delivery path
/// built them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mailboxes<M> {
    /// CSR offsets (length `n + 1`): node `v`'s inbox is
    /// `entries[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    /// All delivered messages, target-major; each inbox slice is in global
    /// sender order.
    entries: Vec<Incoming<M>>,
}

impl<M> Mailboxes<M> {
    /// Flattens per-node inboxes into the CSR layout (the slow-path
    /// constructor used by the fault-injection adversary, which mutates
    /// materialized boxes in place).
    pub(crate) fn from_boxes(boxes: Vec<Vec<Incoming<M>>>) -> Self {
        let mut offsets = Vec::with_capacity(boxes.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for inbox in &boxes {
            acc += inbox.len();
            offsets.push(acc);
        }
        let mut entries = Vec::with_capacity(acc);
        for inbox in boxes {
            entries.extend(inbox);
        }
        Mailboxes { offsets, entries }
    }

    /// The messages received by node `v` this round.
    #[inline]
    pub fn inbox(&self, v: NodeId) -> &[Incoming<M>] {
        &self.entries[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Total number of messages delivered (O(1): the flat entry count).
    pub fn total(&self) -> usize {
        self.entries.len()
    }

    /// Consumes the mailboxes and returns per-node vectors (allocates one
    /// `Vec` per node — an off-hot-path convenience, not a delivery step).
    pub fn into_inner(self) -> Vec<Vec<Incoming<M>>> {
        let Mailboxes { offsets, entries } = self;
        let mut out = Vec::with_capacity(offsets.len().saturating_sub(1));
        let mut entries = entries.into_iter();
        for pair in offsets.windows(2) {
            out.push(entries.by_ref().take(pair[1] - pair[0]).collect());
        }
        out
    }
}

/// The reusable per-round delivery scratch owned by a [`Network`].
///
/// `exchange*`/`broadcast` are generic over the message type but the network
/// is not, so the per-worker arena buffers are stored type-erased, keyed by
/// the message's `TypeId` (the same pattern the fault layer uses for its
/// delay queues). The untyped count/slot buffers are shared across all
/// message types. Everything here is capacity that
/// survives between rounds; none of it affects delivery semantics.
#[derive(Default)]
struct RoundScratch {
    /// Per message type: the per-worker arena row buffers
    /// (`Vec<Vec<Targeted<M>>>`).
    arenas: HashMap<TypeId, Box<dyn Any + Send>>,
    /// Per-node message counts, reused as delivery cursors.
    counts: Vec<usize>,
    /// Row-to-CSR-slot permutation buffer.
    slots: Vec<usize>,
}

impl RoundScratch {
    /// Takes (or creates) the per-worker arena buffers for message type `M`,
    /// cleared and sized to `workers` buffers with capacity retained.
    fn take_arena<M: Payload + Send>(&mut self, workers: usize) -> Vec<Vec<Targeted<M>>> {
        let mut arena: Vec<Vec<Targeted<M>>> = self
            .arenas
            .remove(&TypeId::of::<M>())
            .and_then(|boxed| boxed.downcast::<Vec<Vec<Targeted<M>>>>().ok())
            .map(|boxed| *boxed)
            .unwrap_or_default();
        arena.truncate(workers);
        for buffer in &mut arena {
            buffer.clear();
        }
        arena.resize_with(workers, Vec::new);
        arena
    }

    /// Returns drained arena buffers to the pool for the next round.
    fn put_arena<M: Payload + Send>(&mut self, arena: Vec<Vec<Targeted<M>>>) {
        self.arenas.insert(TypeId::of::<M>(), Box::new(arena));
    }
}

impl std::fmt::Debug for RoundScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundScratch")
            .field("arena_types", &self.arenas.len())
            .field("counts", &self.counts.len())
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// A worker's view of the send phase: validates each send, accounts metrics,
/// and appends the packed `(target, Incoming)` row to the worker's arena
/// buffer.
struct SendSink<'a, M> {
    graph: &'a Graph,
    limit: Option<u64>,
    rows: &'a mut Vec<Targeted<M>>,
    /// Edges the current node already sent over (cleared per node).
    used: Vec<EdgeId>,
    metrics: Metrics,
}

impl<M: Payload> SendSink<'_, M> {
    /// Resets the per-node duplicate-edge guard.
    #[inline]
    fn begin_node(&mut self) {
        self.used.clear();
    }

    /// Validates and enqueues one send from `from` over `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not incident to `from` or was already used by
    /// `from` this round (the [`Network::exchange`] contract).
    #[inline]
    fn send(&mut self, from: NodeId, edge: EdgeId, msg: M) {
        assert!(
            self.graph.is_endpoint(edge, from),
            "{from} attempted to send over non-incident edge {edge}"
        );
        assert!(
            !self.used.contains(&edge),
            "{from} sent two messages over {edge} in a single round"
        );
        self.used.push(edge);
        self.metrics
            .record_message(msg.encoded_bits() as u64, self.limit);
        let target = self.graph.other_endpoint(edge, from).index();
        self.rows.push((target, Incoming { from, edge, msg }));
    }
}

/// A synchronous-round communication network over a graph.
#[derive(Debug)]
pub struct Network<'g> {
    graph: &'g Graph,
    model: Model,
    policy: ExecutionPolicy,
    metrics: Metrics,
    faults: Option<FaultState>,
    ledger: RoundLedger,
    scratch: RoundScratch,
}

impl<'g> Network<'g> {
    /// Creates a network over `graph` under the given model, executing rounds
    /// sequentially.
    pub fn new(graph: &'g Graph, model: Model) -> Self {
        Self::with_policy(graph, model, ExecutionPolicy::Sequential)
    }

    /// Creates a network over `graph` under the given model and execution
    /// policy.
    pub fn with_policy(graph: &'g Graph, model: Model, policy: ExecutionPolicy) -> Self {
        Network {
            graph,
            model,
            policy,
            metrics: Metrics::new(),
            faults: None,
            ledger: RoundLedger::new(),
            scratch: RoundScratch::default(),
        }
    }

    /// A fresh network over `child_graph` inheriting this network's model and
    /// execution policy. Used by composed algorithms that recurse on
    /// subgraphs; absorb the child's metrics afterwards with
    /// [`Network::absorb_sequential`] or [`Network::absorb_parallel`].
    ///
    /// Installed fault plans are **not** inherited: a [`FaultPlan`] is
    /// defined against one graph's edges and rounds, and child networks run
    /// on subgraphs with their own edge ids.
    pub fn child<'h>(&self, child_graph: &'h Graph) -> Network<'h> {
        Network::with_policy(child_graph, self.model, self.policy)
    }

    /// Installs a fault plan: every subsequent round is filtered through the
    /// seed-driven adversary (drops, duplicates, delays, crash windows,
    /// shard-link partitions — see [`crate::faults`]). Replaces any
    /// previously installed plan, resetting its state.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultState::new(plan));
    }

    /// What the installed adversary did so far; `None` when no plan is
    /// installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(FaultState::stats)
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(FaultState::plan)
    }

    /// Filters freshly delivered mailboxes through the installed fault
    /// plan (no-op without one). Called by every delivery path *after* the
    /// canonical sender-order merge, so the adversary sees identical input
    /// under every execution policy.
    fn apply_faults<M: Payload + Send>(&mut self, boxes: &mut [Vec<Incoming<M>>]) {
        if let Some(state) = &mut self.faults {
            state.apply(self.graph, self.metrics.rounds, boxes);
        }
    }

    /// The underlying graph (borrowed for the network's whole lifetime, so
    /// callers can keep it across rounds).
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The communication model.
    pub fn model(&self) -> Model {
        self.model
    }

    /// The execution policy rounds are run under.
    pub fn policy(&self) -> ExecutionPolicy {
        self.policy
    }

    /// Replaces the execution policy (subsequent rounds use it).
    pub fn set_policy(&mut self, policy: ExecutionPolicy) {
        self.policy = policy;
    }

    /// Number of rounds charged so far.
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// The accumulated metrics.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Executes one synchronous round with a *stateful* send closure: for
    /// every node, `outgoing` returns the list of `(edge, message)` pairs the
    /// node sends; each message is delivered to the other endpoint of the
    /// edge. Because `outgoing` may mutate shared state between nodes, this
    /// entry point always runs sequentially regardless of the policy; use
    /// [`Network::exchange_sync`] for policy-aware execution.
    ///
    /// # Panics
    ///
    /// Panics if a node sends over an edge it is not incident to, or sends two
    /// messages over the same edge in one round.
    pub fn exchange<M: Payload + Send>(
        &mut self,
        mut outgoing: impl FnMut(NodeId) -> Vec<(EdgeId, M)>,
    ) -> Mailboxes<M> {
        self.metrics.rounds += 1;
        let limit = self.model.bandwidth_limit();
        let mut arena = self.scratch.take_arena::<M>(1);
        let mut rows = arena.pop().expect("one arena buffer");
        let metrics = {
            let mut sink = SendSink {
                graph: self.graph,
                limit,
                rows: &mut rows,
                used: Vec::new(),
                metrics: Metrics::new(),
            };
            for v in self.graph.nodes() {
                sink.begin_node();
                for (edge, msg) in outgoing(v) {
                    sink.send(v, edge, msg);
                }
            }
            sink.metrics
        };
        self.metrics.fold_costs(&metrics);
        arena.push(rows);
        self.seal(arena)
    }

    /// Executes one synchronous round with a *pure* per-node send function,
    /// honoring the network's [`ExecutionPolicy`]: under a parallel policy
    /// the closure is evaluated on a worker pool over contiguous node chunks
    /// and the mailboxes/metrics are merged deterministically, producing
    /// results byte-identical to the sequential path.
    ///
    /// # Panics
    ///
    /// Same contract as [`Network::exchange`].
    pub fn exchange_sync<M>(
        &mut self,
        outgoing: impl Fn(NodeId) -> Vec<(EdgeId, M)> + Sync,
    ) -> Mailboxes<M>
    where
        M: Payload + Send,
    {
        // Sender chunks are degree-weighted (a pure function of the graph
        // and the policy's thread count, never of the workers actually
        // spawned), so a power-law hub does not serialize the round on one
        // worker while the result stays bit-identical to the sequential
        // pass. On hosts where spawning does not pay off the same chunk
        // geometry runs inline on the calling thread.
        self.metrics.rounds += 1;
        let limit = self.model.bandwidth_limit();
        let graph = self.graph;
        let chunks = Chunks::degree_weighted(graph.n(), graph.csr_offsets(), self.policy.threads());
        let mut arena = self.scratch.take_arena::<M>(chunks.count());
        // Phase A (parallel over sender chunks): evaluate the send closures,
        // validate, account metrics, and append packed rows to the worker's
        // arena buffer in sender order.
        let buffers: Vec<&mut Vec<Targeted<M>>> = arena.iter_mut().collect();
        let per_chunk = map_chunks_with(&chunks, self.policy, buffers, |range, rows| {
            let mut sink = SendSink {
                graph,
                limit,
                rows,
                used: Vec::new(),
                metrics: Metrics::new(),
            };
            for raw_v in range {
                let v = NodeId::new(raw_v);
                sink.begin_node();
                for (edge, msg) in outgoing(v) {
                    sink.send(v, edge, msg);
                }
            }
            sink.metrics
        });
        // Merge metrics in chunk order (order-independent, see
        // `Metrics::fold_costs`; the round itself was charged above).
        for metrics in &per_chunk {
            self.metrics.fold_costs(metrics);
        }
        self.seal(arena)
    }

    /// Phase B of a chunked round: turns per-worker arena rows (in chunk
    /// order, i.e. concatenated in global sender order) into the CSR
    /// [`Mailboxes`] by counting rows per target, prefix-summing the offsets
    /// and applying the row→slot permutation in place. Steady-state cost:
    /// two allocations (the offsets and entries that escape in the
    /// `Mailboxes`), everything else reuses network-owned scratch.
    fn seal<M: Payload + Send>(&mut self, mut arena: Vec<Vec<Targeted<M>>>) -> Mailboxes<M> {
        let n = self.graph.n();
        let total: usize = arena.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        {
            let counts = &mut self.scratch.counts;
            counts.clear();
            counts.resize(n, 0);
            for rows in &arena {
                for &(target, _) in rows.iter() {
                    counts[target] += 1;
                }
            }
            let mut acc = 0usize;
            offsets.push(0);
            for &count in counts.iter() {
                acc += count;
                offsets.push(acc);
            }
        }
        if self.faults.is_some() {
            // Slow path: the adversary mutates per-node inboxes in place, so
            // materialize them (it sees the same canonical sender order the
            // fast path produces, keeping faulty runs policy-identical).
            let mut boxes: Vec<Vec<Incoming<M>>> = self
                .scratch
                .counts
                .iter()
                .map(|&count| Vec::with_capacity(count))
                .collect();
            for rows in &mut arena {
                for (target, incoming) in rows.drain(..) {
                    boxes[target].push(incoming);
                }
            }
            self.scratch.put_arena(arena);
            self.apply_faults(&mut boxes);
            return Mailboxes::from_boxes(boxes);
        }
        let mut entries: Vec<Incoming<M>> = Vec::with_capacity(total);
        {
            let RoundScratch { counts, slots, .. } = &mut self.scratch;
            // Reuse the counts as per-target write cursors.
            for (v, cursor) in counts.iter_mut().enumerate() {
                *cursor = offsets[v];
            }
            slots.clear();
            slots.reserve(total);
            for rows in &mut arena {
                for (target, incoming) in rows.drain(..) {
                    slots.push(counts[target]);
                    counts[target] += 1;
                    entries.push(incoming);
                }
            }
            // Apply the permutation in place (cycle chasing): row `i` moves
            // to CSR slot `slots[i]`. Per-target slots increase with the row
            // index, so each inbox keeps global sender order.
            for i in 0..total {
                while slots[i] != i {
                    let j = slots[i];
                    entries.swap(i, j);
                    slots.swap(i, j);
                }
            }
        }
        self.scratch.put_arena(arena);
        Mailboxes { offsets, entries }
    }

    /// One round in which every node sends the same message to all neighbors.
    /// Honors the network's execution policy (see [`Network::exchange_sync`]).
    ///
    /// The round is a pull-based gather: `msg_of` is evaluated once per node
    /// (over the policy's degree-weighted chunks), and node `v`'s inbox is its
    /// adjacency slice read in order, one clone of each neighbor's message
    /// per entry. The
    /// graph's adjacency slices are sorted by neighbor id and a simple graph
    /// has one edge per neighbor, so that slice order is ascending sender
    /// order — exactly the order the push-based [`Network::exchange_sync`]
    /// round delivers — and the mailbox offsets are the graph's own CSR
    /// offsets. Metrics record `deg(v)` messages of
    /// `msg_of(v).encoded_bits()` bits for every node `v`, as the equivalent
    /// push round does. With a fault plan installed the gathered inboxes
    /// pass through the same adversary.
    pub fn broadcast<M>(&mut self, msg_of: impl Fn(NodeId) -> M + Sync) -> Mailboxes<M>
    where
        M: Payload + Send,
    {
        let graph = self.graph;
        self.metrics.rounds += 1;
        let limit = self.model.bandwidth_limit();
        let chunks = Chunks::degree_weighted(graph.n(), graph.csr_offsets(), self.policy.threads());
        let per_chunk = map_chunks(&chunks, self.policy, |range| {
            let mut metrics = Metrics::new();
            let msgs: Vec<M> = range
                .map(|raw_v| {
                    let v = NodeId::new(raw_v);
                    let msg = msg_of(v);
                    metrics.record_messages(
                        graph.degree(v) as u64,
                        msg.encoded_bits() as u64,
                        limit,
                    );
                    msg
                })
                .collect();
            (msgs, metrics)
        });
        let mut msgs: Vec<M> = Vec::with_capacity(graph.n());
        for (mut chunk_msgs, metrics) in per_chunk {
            self.metrics.fold_costs(&metrics);
            msgs.append(&mut chunk_msgs);
        }
        let offsets = graph.csr_offsets().to_vec();
        let mut entries: Vec<Incoming<M>> = Vec::with_capacity(offsets[graph.n()]);
        for v in graph.nodes() {
            entries.extend(graph.neighbors(v).iter().map(|nb| Incoming {
                from: nb.node,
                edge: nb.edge,
                msg: msgs[nb.node.index()].clone(),
            }));
        }
        let mail = Mailboxes { offsets, entries };
        if self.faults.is_none() {
            return mail;
        }
        let mut boxes = mail.into_inner();
        self.apply_faults(&mut boxes);
        Mailboxes::from_boxes(boxes)
    }

    /// Charges `r` additional rounds without moving data. Used by composed
    /// algorithms to account for sub-protocols whose messages are simulated
    /// analytically (the accompanying message/bit counts can be added with
    /// [`Network::absorb_sequential`] or [`Network::charge_messages`]).
    pub fn charge_rounds(&mut self, r: u64) {
        self.metrics.rounds += r;
    }

    /// Records `count` messages of `bits_each` bits without delivering data.
    /// Used by composed algorithms whose inner sub-protocols are simulated
    /// analytically but whose bandwidth should still be accounted (and checked
    /// against the CONGEST limit).
    pub fn charge_messages(&mut self, count: u64, bits_each: u64) {
        self.metrics
            .record_messages(count, bits_each, self.model.bandwidth_limit());
    }

    /// Adds the cost of a sub-execution that ran sequentially after the work
    /// recorded so far (e.g. a recursive call on a subgraph).
    pub fn absorb_sequential(&mut self, child: &Metrics) {
        self.metrics.absorb_sequential(child);
    }

    /// Adds the cost of sub-executions that ran in parallel with each other
    /// (rounds advance by the maximum of the children).
    pub fn absorb_parallel(&mut self, children: &[Metrics]) {
        self.metrics.absorb_parallel(children);
    }

    /// The per-level round ledger recorded on this network so far.
    pub fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }

    /// Consumes the network's ledger, leaving an empty one behind. Drivers
    /// call this at the end of a run to move the ledger into their outcome.
    pub fn take_ledger(&mut self) -> RoundLedger {
        std::mem::take(&mut self.ledger)
    }

    /// Records one ledger entry (a stage of the recursion and the rounds it
    /// charged). Purely observational: no effect on metrics or delivery.
    pub fn record_ledger(&mut self, entry: LedgerEntry) {
        self.ledger.record(entry);
    }

    /// Absorbs a child network's ledger, shifting the absorbed entries
    /// `depth_shift` recursion levels deeper (pass 0 when the child ran at
    /// the same conceptual level, e.g. a per-group helper network). Call
    /// alongside [`Network::absorb_sequential`]/[`Network::absorb_parallel`]
    /// when the child recorded entries of its own.
    pub fn absorb_ledger(&mut self, child: RoundLedger, depth_shift: u32) {
        self.ledger.absorb(child, depth_shift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgraph::generators;

    #[test]
    fn broadcast_delivers_to_all_neighbors() {
        let g = generators::cycle(5);
        let mut net = Network::new(&g, Model::Local);
        let mail = net.broadcast(|v| v.index() as u64);
        assert_eq!(net.rounds(), 1);
        assert_eq!(mail.total(), 2 * g.m());
        for v in g.nodes() {
            let inbox = mail.inbox(v);
            assert_eq!(inbox.len(), 2);
            for incoming in inbox {
                assert_eq!(incoming.msg, incoming.from.index() as u64);
                assert!(g.is_endpoint(incoming.edge, v));
            }
        }
    }

    #[test]
    fn exchange_counts_bits_and_rounds() {
        let g = generators::path(3);
        let mut net = Network::new(&g, Model::Local);
        // only node 0 sends, over its single incident edge
        let mail = net.exchange(|v| {
            if v.index() == 0 {
                vec![(g.incident_edges(v).next().unwrap(), 255u64)]
            } else {
                vec![]
            }
        });
        assert_eq!(net.rounds(), 1);
        assert_eq!(mail.total(), 1);
        let metrics = net.metrics();
        assert_eq!(metrics.messages, 1);
        assert_eq!(metrics.total_bits, 8);
        assert_eq!(metrics.max_message_bits, 8);
        assert_eq!(mail.inbox(NodeId::new(1)).len(), 1);
        assert_eq!(mail.inbox(NodeId::new(2)).len(), 0);
    }

    #[test]
    fn congest_violations_are_flagged() {
        let g = generators::path(2);
        let mut net = Network::new(&g, Model::Congest { bandwidth_bits: 4 });
        net.broadcast(|_| vec![1u64; 10]); // far more than 4 bits
        assert!(net.metrics().congest_violations > 0);
    }

    #[test]
    fn local_never_flags_violations() {
        let g = generators::path(2);
        let mut net = Network::new(&g, Model::Local);
        net.broadcast(|_| vec![1u64; 1000]);
        assert_eq!(net.metrics().congest_violations, 0);
    }

    #[test]
    #[should_panic(expected = "non-incident")]
    fn sending_over_foreign_edge_panics() {
        let g = generators::path(4);
        let mut net = Network::new(&g, Model::Local);
        // node 0 tries to send over edge 2 = (2,3)
        net.exchange(|v| {
            if v.index() == 0 {
                vec![(EdgeId::new(2), 1u32)]
            } else {
                vec![]
            }
        });
    }

    #[test]
    #[should_panic(expected = "non-incident")]
    fn parallel_sending_over_foreign_edge_panics() {
        let g = generators::path(4);
        let mut net = Network::with_policy(&g, Model::Local, ExecutionPolicy::parallel(3));
        net.exchange_sync(|v| {
            if v.index() == 0 {
                vec![(EdgeId::new(2), 1u32)]
            } else {
                vec![]
            }
        });
    }

    #[test]
    #[should_panic(expected = "two messages")]
    fn sending_twice_over_same_edge_panics() {
        let g = generators::path(2);
        let mut net = Network::new(&g, Model::Local);
        net.exchange(|v| {
            if v.index() == 0 {
                vec![(EdgeId::new(0), 1u32), (EdgeId::new(0), 2u32)]
            } else {
                vec![]
            }
        });
    }

    #[test]
    #[should_panic(expected = "two messages")]
    fn parallel_sending_twice_over_same_edge_panics() {
        let g = generators::path(2);
        let mut net = Network::with_policy(&g, Model::Local, ExecutionPolicy::parallel(2));
        net.exchange_sync(|v| {
            if v.index() == 0 {
                vec![(EdgeId::new(0), 1u32), (EdgeId::new(0), 2u32)]
            } else {
                vec![]
            }
        });
    }

    #[test]
    fn parallel_exchange_is_bit_identical_to_sequential() {
        let g = generators::random_regular(48, 6, 11).unwrap();
        let send = |v: NodeId| -> Vec<(EdgeId, u64)> {
            g.neighbors(v)
                .iter()
                .filter(|nb| !(v.index() + nb.node.index()).is_multiple_of(3))
                .map(|nb| (nb.edge, (v.index() * 31 + nb.edge.index()) as u64))
                .collect()
        };
        let mut seq_net = Network::new(&g, Model::Congest { bandwidth_bits: 8 });
        let seq_mail = seq_net.exchange_sync(send);
        for threads in [2usize, 3, 8, 64] {
            let mut par_net = Network::with_policy(
                &g,
                Model::Congest { bandwidth_bits: 8 },
                ExecutionPolicy::parallel(threads),
            );
            let par_mail = par_net.exchange_sync(send);
            assert_eq!(seq_mail, par_mail, "mailboxes differ at {threads} threads");
            assert_eq!(
                seq_net.metrics(),
                par_net.metrics(),
                "metrics differ at {threads} threads"
            );
        }
    }

    #[test]
    fn child_network_inherits_model_and_policy() {
        let g = generators::path(4);
        let sub = generators::path(3);
        let net = Network::with_policy(
            &g,
            Model::Congest { bandwidth_bits: 9 },
            ExecutionPolicy::parallel(4),
        );
        let child = net.child(&sub);
        assert_eq!(child.model(), net.model());
        assert_eq!(child.policy(), net.policy());
        assert_eq!(child.rounds(), 0);
    }

    #[test]
    fn set_policy_switches_execution() {
        let g = generators::cycle(6);
        let mut net = Network::new(&g, Model::Local);
        assert_eq!(net.policy(), ExecutionPolicy::Sequential);
        net.set_policy(ExecutionPolicy::parallel(2));
        assert!(net.policy().is_parallel());
        let mail = net.broadcast(|v| v.index() as u32);
        assert_eq!(mail.total(), 2 * g.m());
    }

    #[test]
    fn charge_and_absorb() {
        let g = generators::path(2);
        let mut net = Network::new(&g, Model::Local);
        net.charge_rounds(5);
        let child = Metrics {
            rounds: 3,
            messages: 2,
            total_bits: 10,
            max_message_bits: 6,
            congest_violations: 0,
        };
        net.absorb_sequential(&child);
        net.absorb_parallel(&[
            child,
            Metrics {
                rounds: 9,
                ..Metrics::default()
            },
        ]);
        assert_eq!(net.rounds(), 5 + 3 + 9);
        assert_eq!(net.metrics().messages, 4);
    }
}
