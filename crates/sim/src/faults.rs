//! The fault-injection and asynchrony adversary layer.
//!
//! Every guarantee proved in the paper is stated against the *synchronous*,
//! lossless LOCAL/CONGEST models, but the related line of work
//! (Balliu–Kuhn–Olivetti's quasi-polylog edge coloring, Bernshteyn's
//! `(Δ+1)`-edge coloring) frames round complexity against worst-case message
//! timing. This module provides the adversary the simulator runs those
//! stress scenarios under, installed on the round engine with
//! [`Network::install_faults`](crate::Network::install_faults):
//!
//! * [`FaultPlan`] — a deterministic, seed-driven fault schedule: per-message
//!   drop / duplicate / delay-by-`k`-rounds decisions (global rates with
//!   per-edge overrides), node crash/restart windows, shard-link
//!   partitions that heal after a configured number of rounds, and optional
//!   adversarial per-inbox message reordering
//!   ([`FaultPlan::with_reordering`], the asynchrony adversary);
//! * [`FaultStats`] — what the adversary actually did to a run, surfaced
//!   through [`Network::fault_stats`](crate::Network::fault_stats).
//!
//! # Determinism contract
//!
//! Same seed + same plan ⇒ **bit-identical** run. Two design rules make
//! that hold:
//!
//! 1. every per-message decision is a pure hash of
//!    `(seed, round, edge, sender)` — never of execution order — so the same
//!    message gets the same fate whichever delivery path carried it;
//! 2. faults are applied to the *canonically ordered* mailboxes the delivery
//!    paths already produce (ascending sender order per inbox), so the
//!    fault layer's input is the same for `exchange` and `broadcast`.
//!
//! Shard-link partitions sever messages between shards of a *reference
//! partition*: a deterministic BFS-grown, edge-balanced partition of the
//! run's graph at the plan's own granularity (every shard owns at most
//! `⌈m/k⌉ + Δ` edges). It depends only on the graph and the plan, so a
//! replay loses exactly the same messages.
//!
//! # Fault semantics
//!
//! Rounds are numbered as charged by the engine (the first delivered round
//! is round 1). For a message delivered (consumed) at round `r`:
//!
//! * **drop** — the message is lost;
//! * **duplicate** — a second copy arrives in the same round, adjacent to
//!   the original;
//! * **delay** — the message arrives `k ∈ {1, …, max}` rounds later,
//!   ordered after the fresh messages of its sender in the arrival round;
//! * **crash window `[at, restart)`** — every message from or to the node
//!   is lost while it is crashed. The network only filters delivery: the
//!   algorithm running on it asks [`FaultPlan::is_crashed`] which nodes are
//!   down and keeps them from stepping, so on `restart` a node resumes with
//!   the state it crashed with (crash-recovery, not reset);
//! * **link partition `[at, at + heal_after)`** — messages between the two
//!   shards are lost while the window is open and flow again once it heals.
//!
//! The base [`Metrics`](crate::Metrics) keep accounting *attempted* traffic
//! (what the algorithm sent), so metrics stay those of the fault-free run
//! even though fewer messages arrive; the adversary's effect is reported
//! separately in [`FaultStats`].

use crate::network::Incoming;
use crate::payload::Payload;
use distgraph::{EdgeId, Graph, NodeId};
use partition::{bfs_partition, Partition};
use std::any::Any;

mod partition;

/// Per-message fault rates, stored in permille (0..=1000) so decisions are
/// exact integer comparisons with no float-ordering hazards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultRates {
    /// Probability (in permille) that a message is dropped.
    pub drop_permille: u32,
    /// Probability (in permille) that a message is duplicated.
    pub duplicate_permille: u32,
    /// Probability (in permille) that a message is delayed.
    pub delay_permille: u32,
}

impl FaultRates {
    /// Builds rates from probabilities in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the rates sum to more than 1 (the three fates are mutually
    /// exclusive per message).
    pub fn new(drop: f64, duplicate: f64, delay: f64) -> Self {
        let rates = FaultRates {
            drop_permille: permille(drop),
            duplicate_permille: permille(duplicate),
            delay_permille: permille(delay),
        };
        assert!(
            rates.drop_permille + rates.duplicate_permille + rates.delay_permille <= 1000,
            "drop + duplicate + delay rates must sum to at most 1.0"
        );
        rates
    }

    fn total(&self) -> u32 {
        self.drop_permille + self.duplicate_permille + self.delay_permille
    }
}

/// Converts a probability in `[0, 1]` to permille.
fn permille(rate: f64) -> u32 {
    assert!(
        (0.0..=1.0).contains(&rate),
        "fault rate {rate} outside [0, 1]"
    );
    (rate * 1000.0).round() as u32
}

/// A node crash/restart window: the node is down for rounds
/// `at <= r < restart`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed node.
    pub node: NodeId,
    /// First round the node is down.
    pub at: u64,
    /// First round the node is back up (`u64::MAX` = never restarts).
    pub restart: u64,
}

/// A severed shard link: messages between shards `a` and `b` of the plan's
/// reference partition are lost for rounds `at <= r < at + heal_after`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkPartition {
    /// One side of the severed link.
    pub a: usize,
    /// The other side.
    pub b: usize,
    /// First round the link is down.
    pub at: u64,
    /// The link heals after this many rounds (`u64::MAX` = never heals).
    pub heal_after: u64,
}

impl LinkPartition {
    /// Returns `true` if this window severs the (unordered) shard pair
    /// `(x, y)` at `round`.
    fn severs(&self, x: usize, y: usize, round: u64) -> bool {
        let pair_match = (self.a == x && self.b == y) || (self.a == y && self.b == x);
        pair_match && round >= self.at && round - self.at < self.heal_after
    }
}

/// A deterministic, seed-driven fault schedule. See the [module
/// docs](self) for the adversary model and the determinism contract.
///
/// # Examples
///
/// ```
/// use distsim::FaultPlan;
///
/// // 5% drops, 2% duplicates, 3% delays of up to 3 rounds; node 0 crashes
/// // during rounds 2..4; the link between reference shards 0 and 1 is down
/// // for rounds 1..3.
/// let plan = FaultPlan::new(42)
///     .with_drop_rate(0.05)
///     .with_duplicate_rate(0.02)
///     .with_delay_rate(0.03, 3)
///     .with_crash(0usize.into(), 2, 4)
///     .with_partition_granularity(2)
///     .with_link_cut(0, 1, 1, 2);
/// assert_eq!(plan.seed(), 42);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
    max_delay_rounds: u64,
    per_edge: Vec<(EdgeId, FaultRates)>,
    crashes: Vec<CrashWindow>,
    partitions: Vec<LinkPartition>,
    partition_shards: usize,
    reorder: bool,
}

impl FaultPlan {
    /// A fault-free plan carrying only the seed; compose faults with the
    /// `with_*` builders.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: FaultRates::default(),
            max_delay_rounds: 1,
            per_edge: Vec::new(),
            crashes: Vec::new(),
            partitions: Vec::new(),
            partition_shards: 0,
            reorder: false,
        }
    }

    /// Sets the global per-message drop probability.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.rates = FaultRates {
            drop_permille: permille(rate),
            ..self.rates
        };
        assert!(self.rates.total() <= 1000, "fault rates sum to more than 1");
        self
    }

    /// Sets the global per-message duplication probability.
    pub fn with_duplicate_rate(mut self, rate: f64) -> Self {
        self.rates = FaultRates {
            duplicate_permille: permille(rate),
            ..self.rates
        };
        assert!(self.rates.total() <= 1000, "fault rates sum to more than 1");
        self
    }

    /// Sets the global per-message delay probability; a delayed message
    /// arrives `k` rounds late with `k` drawn uniformly (and
    /// deterministically) from `1..=max_rounds`.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds` is 0.
    pub fn with_delay_rate(mut self, rate: f64, max_rounds: u64) -> Self {
        assert!(max_rounds >= 1, "a delay must be at least one round");
        self.rates = FaultRates {
            delay_permille: permille(rate),
            ..self.rates
        };
        assert!(self.rates.total() <= 1000, "fault rates sum to more than 1");
        self.max_delay_rounds = max_rounds;
        self
    }

    /// Overrides the fault rates for one specific edge (both directions).
    pub fn with_edge_rates(mut self, edge: EdgeId, rates: FaultRates) -> Self {
        self.per_edge.retain(|(e, _)| *e != edge);
        self.per_edge.push((edge, rates));
        self
    }

    /// Crashes `node` for rounds `at <= r < restart`.
    ///
    /// # Panics
    ///
    /// Panics if `restart <= at` (an empty window).
    pub fn with_crash(mut self, node: NodeId, at: u64, restart: u64) -> Self {
        assert!(restart > at, "crash window must cover at least one round");
        self.crashes.push(CrashWindow { node, at, restart });
        self
    }

    /// Sets the granularity of the reference partition link cuts are defined
    /// against: the plan severs links of a deterministic BFS-grown,
    /// edge-balanced partition of the run's graph into `shards` shards (see
    /// the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn with_partition_granularity(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "reference partition needs at least one shard");
        self.partition_shards = shards;
        self
    }

    /// Severs the link between reference shards `a` and `b` for rounds
    /// `at <= r < at + heal_after`. Requires
    /// [`FaultPlan::with_partition_granularity`] to have been set.
    ///
    /// # Panics
    ///
    /// Panics if the granularity is unset, a shard index is out of range, or
    /// `heal_after` is 0.
    pub fn with_link_cut(mut self, a: usize, b: usize, at: u64, heal_after: u64) -> Self {
        assert!(
            self.partition_shards > 0,
            "set with_partition_granularity before cutting links"
        );
        assert!(
            a < self.partition_shards && b < self.partition_shards,
            "link cut ({a}, {b}) outside the {}-shard reference partition",
            self.partition_shards
        );
        assert!(heal_after >= 1, "a link cut must cover at least one round");
        self.partitions.push(LinkPartition {
            a,
            b,
            at,
            heal_after,
        });
        self
    }

    /// Enables adversarial per-inbox message reordering: each inbox is
    /// permuted by a seeded Fisher–Yates, so message arrival order within a
    /// round carries no information, as in an asynchronous execution that
    /// has been normalized round by round.
    pub fn with_reordering(mut self) -> Self {
        self.reorder = true;
        self
    }

    /// The adversary seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns `true` if `node` is inside a crash window at `round`.
    pub fn is_crashed(&self, node: NodeId, round: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.node == node && round >= c.at && round < c.restart)
    }

    /// The plan's crash windows.
    pub fn crashes(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// The plan's global per-message fault rates.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// The plan's shard-link cuts.
    pub fn link_cuts(&self) -> &[LinkPartition] {
        &self.partitions
    }

    /// Returns `true` if the plan severs any shard links (and therefore
    /// needs a reference partition).
    pub fn has_link_cuts(&self) -> bool {
        self.partition_shards > 0 && !self.partitions.is_empty()
    }

    /// The fate of the message sent by `from` over `edge` and consumed at
    /// `round`: a pure hash of `(seed, round, edge, from)` so the decision
    /// is independent of execution order.
    fn fate(&self, round: u64, edge: EdgeId, from: NodeId) -> Fate {
        let rates = self
            .per_edge
            .iter()
            .find(|(e, _)| *e == edge)
            .map_or(self.rates, |(_, r)| *r);
        if rates.total() == 0 {
            return Fate::Deliver;
        }
        let h = mix(self.seed, round, edge.index() as u64, from.index() as u64);
        let roll = (h % 1000) as u32;
        if roll < rates.drop_permille {
            Fate::Drop
        } else if roll < rates.drop_permille + rates.duplicate_permille {
            Fate::Duplicate
        } else if roll < rates.total() {
            // An independent hash stream picks the delay length.
            let h2 = mix(
                self.seed ^ DELAY_SALT,
                round,
                edge.index() as u64,
                from.index() as u64,
            );
            Fate::Delay(1 + h2 % self.max_delay_rounds)
        } else {
            Fate::Deliver
        }
    }
}

/// What happens to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Deliver,
    Drop,
    Duplicate,
    Delay(u64),
}

const DELAY_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 finalizer: a full-avalanche bijection on `u64`. This is
/// the one hashing primitive every deterministic adversary decision in the
/// workspace derives from (message fates, reorder permutations, the
/// corruption injector of `edgecolor::stabilize`) — pure and
/// order-independent, the root of the determinism-under-faults contract.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Avalanche over the four-part decision key `(seed, round, edge, from)`.
fn mix(seed: u64, round: u64, edge: u64, from: u64) -> u64 {
    splitmix64(
        seed.wrapping_add(round.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(edge.wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add(from.wrapping_mul(0x2545_f491_4f6c_dd1d)),
    )
}

/// What the adversary actually did to a run. All counters are message
/// counts except [`FaultStats::reordered_inboxes`] (inboxes permuted by
/// the reordering adversary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages that arrived (including duplicates and released delays).
    pub delivered: u64,
    /// Messages dropped by the rate adversary.
    pub dropped: u64,
    /// Extra copies injected by the duplication adversary.
    pub duplicated: u64,
    /// Messages held back by the delay adversary.
    pub delayed: u64,
    /// Delayed messages that later arrived.
    pub released: u64,
    /// Messages lost because an endpoint was inside a crash window.
    pub crash_dropped: u64,
    /// Messages lost on severed shard links.
    pub partition_dropped: u64,
    /// Inboxes (with ≥ 2 messages) permuted by the reordering adversary.
    pub reordered_inboxes: u64,
}

/// A message held back by the delay adversary.
struct Delayed<M> {
    due: u64,
    target: usize,
    incoming: Incoming<M>,
}

/// The mutable state of an installed [`FaultPlan`]: the delay queue, the
/// lazily built reference partition and the accumulated [`FaultStats`].
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    stats: FaultStats,
    partition: Option<Partition>,
    /// The delay queue, type-erased because consecutive rounds may exchange
    /// different message types. A round whose message type differs from the
    /// queued one flushes the queue (counted as dropped): a delayed message
    /// can only be delivered into an inbox of its own type. The flush is
    /// deterministic because the sequence of exchanged types is.
    delayed: Option<Box<dyn Any + Send>>,
}

impl FaultState {
    /// Fresh state for a plan.
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            stats: FaultStats::default(),
            partition: None,
            delayed: None,
        }
    }

    /// The installed plan.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The accumulated adversary effect.
    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Applies the plan to the canonically ordered mailboxes of the round
    /// consumed at `round`, in place. See the [module docs](self) for the
    /// per-message semantics and the ordering rules.
    ///
    /// The adversary works on materialized per-node inboxes. The fault-free
    /// delivery path never builds those (it seals rounds straight into flat
    /// CSR mailboxes); when a plan is installed, delivery materializes the
    /// boxes from the identical canonical sender order first, so every
    /// adversary decision is independent of the delivery path and the
    /// allocation cost of this generality is only paid under faults.
    pub(crate) fn apply<M: Payload + Send>(
        &mut self,
        graph: &Graph,
        round: u64,
        boxes: &mut [Vec<Incoming<M>>],
    ) {
        // Build the reference partition on first use if link cuts exist.
        if self.plan.has_link_cuts() && self.partition.is_none() {
            self.partition = Some(bfs_partition(graph, self.plan.partition_shards));
        }

        // Reclaim the (type-erased) delay queue; a message-type switch
        // flushes undeliverable entries. Empty queues are never stored (see
        // the end of this function), so a failing downcast means at least
        // one in-flight message of another type was genuinely lost; its
        // element count is unrecoverable through `Any`, so the flush is
        // counted as one drop event — still deterministic, because the
        // sequence of exchanged message types is.
        let mut queue: Vec<Delayed<M>> = match self.delayed.take() {
            None => Vec::new(),
            Some(boxed) => match boxed.downcast::<Vec<Delayed<M>>>() {
                Ok(q) => *q,
                Err(_stale) => {
                    self.stats.dropped += 1;
                    Vec::new()
                }
            },
        };

        // Release the entries due this round, preserving queue order (the
        // order they were delayed in, which is deterministic).
        let (released, keep): (Vec<Delayed<M>>, Vec<Delayed<M>>) =
            queue.drain(..).partition(|d| d.due <= round);
        queue = keep;

        for (target, inbox) in boxes.iter_mut().enumerate() {
            let target_node = NodeId::new(target);
            let fresh = std::mem::take(inbox);
            for incoming in fresh {
                if lost_in_transit(
                    &self.plan,
                    &self.partition,
                    &mut self.stats,
                    incoming.from,
                    target_node,
                    round,
                ) {
                    continue;
                }
                match self.plan.fate(round, incoming.edge, incoming.from) {
                    Fate::Deliver => {
                        self.stats.delivered += 1;
                        inbox.push(incoming);
                    }
                    Fate::Drop => self.stats.dropped += 1,
                    Fate::Duplicate => {
                        self.stats.delivered += 2;
                        self.stats.duplicated += 1;
                        inbox.push(incoming.clone());
                        inbox.push(incoming);
                    }
                    Fate::Delay(k) => {
                        self.stats.delayed += 1;
                        queue.push(Delayed {
                            due: round + k,
                            target,
                            incoming,
                        });
                    }
                }
            }
        }

        // Inject the released messages (after the fresh ones), then restore
        // the canonical per-inbox sender order: a stable sort keeps fresh
        // messages ahead of released ones from the same sender, and
        // duplicate copies adjacent.
        for d in released {
            // A released message still respects crash windows and severed
            // shard links at its *actual* arrival round: a delay into an
            // open crash/cut window loses the message, exactly like a fresh
            // one would be lost (same filter, same counters).
            if lost_in_transit(
                &self.plan,
                &self.partition,
                &mut self.stats,
                d.incoming.from,
                NodeId::new(d.target),
                round,
            ) {
                continue;
            }
            self.stats.released += 1;
            self.stats.delivered += 1;
            boxes[d.target].push(d.incoming);
        }
        for inbox in boxes.iter_mut() {
            inbox.sort_by_key(|incoming| incoming.from);
        }

        // Adversarial reordering: a seeded permutation per inbox, keyed by
        // (seed, round, target) — identical on every replay.
        if self.plan.reorder {
            for (target, inbox) in boxes.iter_mut().enumerate() {
                if inbox.len() < 2 {
                    continue;
                }
                self.stats.reordered_inboxes += 1;
                // Fisher–Yates with hash-derived indices.
                for j in (1..inbox.len()).rev() {
                    let h = mix(
                        self.plan.seed ^ REORDER_SALT,
                        round,
                        target as u64,
                        j as u64,
                    );
                    inbox.swap(j, (h % (j as u64 + 1)) as usize);
                }
            }
        }

        // Never store an empty queue: a later round of a *different*
        // message type would fail the downcast and count a phantom drop.
        self.delayed = if queue.is_empty() {
            None
        } else {
            Some(Box::new(queue))
        };
    }
}

const REORDER_SALT: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// The transit-loss filter applied to every message — fresh or released
/// from the delay queue — at its delivery round: crash windows on either
/// endpoint, then severed shard links of the reference partition. Returns
/// `true` (and counts the loss) when the message must not arrive. One
/// function for both delivery loops, so fresh and delayed messages can
/// never diverge in loss semantics.
fn lost_in_transit(
    plan: &FaultPlan,
    partition: &Option<Partition>,
    stats: &mut FaultStats,
    from: NodeId,
    target: NodeId,
    round: u64,
) -> bool {
    if plan.is_crashed(target, round) || plan.is_crashed(from, round) {
        stats.crash_dropped += 1;
        return true;
    }
    if let Some(partition) = partition {
        let (sf, st) = (partition.shard_of(from), partition.shard_of(target));
        if plan.partitions.iter().any(|p| p.severs(sf, st, round)) {
            stats.partition_dropped += 1;
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_validate_and_convert() {
        let r = FaultRates::new(0.05, 0.02, 0.03);
        assert_eq!(r.drop_permille, 50);
        assert_eq!(r.duplicate_permille, 20);
        assert_eq!(r.delay_permille, 30);
        assert_eq!(r.total(), 100);
        assert!(std::panic::catch_unwind(|| FaultRates::new(0.6, 0.3, 0.2)).is_err());
        assert!(std::panic::catch_unwind(|| FaultRates::new(-0.1, 0.0, 0.0)).is_err());
    }

    #[test]
    fn plan_builder_composes() {
        let plan = FaultPlan::new(9)
            .with_drop_rate(0.1)
            .with_duplicate_rate(0.1)
            .with_delay_rate(0.1, 4)
            .with_crash(NodeId::new(3), 2, 5)
            .with_partition_granularity(4)
            .with_link_cut(0, 3, 1, 2)
            .with_reordering();
        assert_eq!(plan.seed(), 9);
        assert!(plan.is_crashed(NodeId::new(3), 2));
        assert!(plan.is_crashed(NodeId::new(3), 4));
        assert!(!plan.is_crashed(NodeId::new(3), 5));
        assert!(!plan.is_crashed(NodeId::new(2), 3));
        assert!(plan.has_link_cuts());
        assert_eq!(plan.crashes().len(), 1);
    }

    #[test]
    fn builder_rejects_invalid_windows() {
        assert!(std::panic::catch_unwind(|| {
            FaultPlan::new(0).with_crash(NodeId::new(0), 3, 3)
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| FaultPlan::new(0).with_link_cut(0, 1, 0, 1)).is_err());
        assert!(std::panic::catch_unwind(|| {
            FaultPlan::new(0)
                .with_partition_granularity(2)
                .with_link_cut(0, 2, 0, 1)
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| FaultPlan::new(0).with_delay_rate(0.1, 0)).is_err());
    }

    #[test]
    fn link_partition_windows_heal() {
        let p = LinkPartition {
            a: 0,
            b: 2,
            at: 3,
            heal_after: 2,
        };
        assert!(!p.severs(0, 2, 2));
        assert!(p.severs(0, 2, 3));
        assert!(p.severs(2, 0, 4)); // symmetric
        assert!(!p.severs(0, 2, 5)); // healed
        assert!(!p.severs(0, 1, 3)); // different pair
    }

    #[test]
    fn fate_is_pure_and_spreads() {
        let plan = FaultPlan::new(1)
            .with_drop_rate(0.3)
            .with_duplicate_rate(0.1)
            .with_delay_rate(0.1, 3);
        let mut counts = [0usize; 4];
        for e in 0..500 {
            for r in 1..5u64 {
                let fate = plan.fate(r, EdgeId::new(e), NodeId::new(e % 7));
                // Purity: the same key re-evaluates to the same fate.
                assert_eq!(fate, plan.fate(r, EdgeId::new(e), NodeId::new(e % 7)));
                match fate {
                    Fate::Deliver => counts[0] += 1,
                    Fate::Drop => counts[1] += 1,
                    Fate::Duplicate => counts[2] += 1,
                    Fate::Delay(k) => {
                        assert!((1..=3).contains(&k));
                        counts[3] += 1;
                    }
                }
            }
        }
        // 2000 samples at 30/10/10% rates: each bucket must be populated
        // and roughly proportioned (very loose bounds, no flakiness).
        assert!(counts[0] > 800, "deliver {counts:?}");
        assert!(counts[1] > 400, "drop {counts:?}");
        assert!(counts[2] > 100, "duplicate {counts:?}");
        assert!(counts[3] > 100, "delay {counts:?}");
    }

    #[test]
    fn per_edge_overrides_take_precedence() {
        let plan =
            FaultPlan::new(5).with_edge_rates(EdgeId::new(7), FaultRates::new(1.0, 0.0, 0.0));
        // Edge 7 always drops; any other edge always delivers.
        for r in 1..20 {
            assert_eq!(plan.fate(r, EdgeId::new(7), NodeId::new(0)), Fate::Drop);
            assert_eq!(plan.fate(r, EdgeId::new(8), NodeId::new(0)), Fate::Deliver);
        }
    }

    #[test]
    fn zero_rate_plan_is_transparent() {
        let plan = FaultPlan::new(123);
        for r in 0..50 {
            assert_eq!(
                plan.fate(r, EdgeId::new(r as usize), NodeId::new(1)),
                Fate::Deliver
            );
        }
    }
}
