//! `(degree+1)`-list edge coloring in the LOCAL model
//! (Section 7 / Appendix D, Theorem D.4 — the paper's Theorem 1.1).
//!
//! The driver follows Appendix D:
//!
//! 1. compute an `O(Δ²)`-vertex coloring (Linial, `O(log* n)` rounds);
//! 2. repeat `O(log Δ)` times: compute a constant-class defective coloring of
//!    the nodes with respect to the uncolored edges, and for every pair of
//!    classes partially color the induced bipartite graph via slack
//!    amplification (Lemma D.3) on top of the slack-`S` solver (Lemma D.2),
//!    reducing the uncolored degree by a constant factor;
//! 3. finish the remaining low-degree graph greedily.
//!
//! The slack-`S` solver recursively halves the global color space, using the
//! generalized defective 2-edge coloring of Corollary 5.7 with `λ_e` equal to
//! the fraction of the edge's list falling in the lower half (Lemma D.1), and
//! parks edges whose degree has become small ("passive") to be colored
//! greedily at the end in reverse order (Lemma D.2).
//!
//! Every single color assignment double-checks the colors already used by
//! adjacent edges, so the produced coloring is proper and list-compliant by
//! construction; the slack bookkeeping determines the round complexity and is
//! reported in the outcome for the experiments.
//!
//! # The used-color invariant
//!
//! The driver keeps one used-color bitset per node of the host graph next to
//! the partial coloring: bit `c` of node `v`'s row is set exactly when a
//! colored edge incident to `v` has color `c` (one 64-bit word per node when
//! every listed color is below 64, more words otherwise). Every assignment
//! — the slack-solve finish, the amplify fallback and the final greedy —
//! updates both endpoints' rows together with the coloring. The available
//! list of an uncolored edge `e = (u, v)` is therefore `L_e` minus
//! `used[u] | used[v]`: the same colors, in the same order, as `L_e` minus
//! [`EdgeColoring::colors_around`], without building a set or an adjacency
//! list per query. Used sets only ever grow during a run, so a slack-`S`
//! instance reads its edges' available lists through the masks instead of
//! snapshotting them. When `L_e` is a contiguous range of colors, as in
//! [`ListAssignment::full_palette`] and
//! [`ListAssignment::degree_plus_one`], the number of available colors in
//! a range and the first of them are read a word at a time (a masked
//! popcount and `trailing_zeros`) instead of walking the list.

use crate::defective_edge::defective_two_edge_coloring;
use crate::defective_vertex::defective_four_coloring;
use crate::error::ColoringError;
use crate::greedy_finish::{port_pair_edge_coloring, EdgeClasses};
use crate::linial::{linial_coloring, linial_edge_coloring};
use crate::params::ColoringParams;
use distgraph::{
    BipartiteGraph, Color, EdgeColoring, EdgeId, Graph, ListAssignment, Side, VertexColoring,
};
use distsim::{IdAssignment, LedgerEntry, Metrics, Model, Network, RoundLedger};
use std::collections::BTreeMap;

/// Statistics and output of a (degree+1)-list edge coloring run.
#[derive(Debug, Clone)]
pub struct ListColoringOutcome {
    /// The complete, proper, list-compliant edge coloring.
    pub coloring: EdgeColoring,
    /// Number of distinct colors used.
    pub colors_used: usize,
    /// Execution cost.
    pub metrics: Metrics,
    /// Outer degree-reduction iterations executed (the `O(log Δ)` loop).
    pub outer_iterations: u32,
    /// Number of slack-`S` solver invocations (Lemma D.2 calls).
    pub solver_calls: u64,
    /// Rounds spent in the greedy fallback that enforces the Lemma D.3
    /// degree-reduction contract when the iterative amplification hits its
    /// cap (0 means the contract was met without any fallback).
    pub fallback_rounds: u64,
    /// Rounds spent in the initial Linial coloring (the `O(log* n)` term).
    pub initial_coloring_rounds: u64,
    /// Per-level round ledger: which stage of the recursion charged which
    /// rounds at which residual degree (the polylog(Δ) regression witness).
    pub ledger: RoundLedger,
}

/// The slack constant `S = e²` used by Theorem D.4.
pub const SLACK_S: f64 = std::f64::consts::E * std::f64::consts::E;

/// The degree-reduction factor `k` used when invoking Lemma D.3
/// (the paper uses `k = 16c` for the `c`-class defective coloring; we use
/// 4 classes).
pub const AMPLIFY_K: usize = 32;

/// The partial coloring under construction, paired with one used-color
/// bitset per node of the host graph (the used-color invariant of the
/// module docs). Every assignment goes through [`PartialColoring::set`], so
/// the masks never drift from the coloring.
struct PartialColoring<'a> {
    graph: &'a Graph,
    lists: &'a ListAssignment,
    coloring: EdgeColoring,
    /// 64-bit words per node row: enough for the largest listed color.
    words: usize,
    /// Row-major per-node bitsets: bit `c` of node `v`'s row is set iff a
    /// colored edge incident to `v` has color `c`.
    used: Vec<u64>,
}

impl<'a> PartialColoring<'a> {
    /// An empty coloring of `graph` with all masks clear.
    fn new(graph: &'a Graph, lists: &'a ListAssignment) -> Self {
        let width = graph
            .edges()
            .filter_map(|e| lists.list(e).last())
            .max()
            .map_or(1, |&c| c + 1);
        let words = width.div_ceil(64);
        PartialColoring {
            graph,
            lists,
            coloring: EdgeColoring::empty(graph.m()),
            words,
            used: vec![0; graph.n() * words],
        }
    }

    fn is_colored(&self, e: EdgeId) -> bool {
        self.coloring.is_colored(e)
    }

    /// Colors `e` with `c` and marks `c` used at both endpoints.
    fn set(&mut self, e: EdgeId, c: Color) {
        self.coloring.set(e, c);
        let (u, v) = self.graph.endpoints(e);
        let (word, bit) = (c / 64, 1u64 << (c % 64));
        self.used[u.index() * self.words + word] |= bit;
        self.used[v.index() * self.words + word] |= bit;
    }

    /// The available list of the uncolored edge `e = (u, v)`: the colors of
    /// `L_e`, in list order, that are in neither `used[u]` nor `used[v]`.
    fn available(&self, e: EdgeId) -> impl Iterator<Item = Color> + '_ {
        let (u, v) = self.graph.endpoints(e);
        let row_u = &self.used[u.index() * self.words..][..self.words];
        let row_v = &self.used[v.index() * self.words..][..self.words];
        self.lists
            .list(e)
            .iter()
            .copied()
            .filter(move |&c| ((row_u[c / 64] | row_v[c / 64]) >> (c % 64)) & 1 == 0)
    }

    /// The colors `[lo, hi)` clipped to `L_e` when `L_e` is a contiguous
    /// range (as in [`ListAssignment::full_palette`] and
    /// [`ListAssignment::degree_plus_one`]); `None` for a list with gaps.
    fn contiguous_span(&self, e: EdgeId, lo: Color, hi: Color) -> Option<(Color, Color)> {
        let list = self.lists.list(e);
        let (&first, &last) = (list.first()?, list.last()?);
        (last - first + 1 == list.len()).then(|| (lo.max(first), hi.min(last + 1)))
    }

    /// The free-color words of `e = (u, v)` over the colors `[a, b)`:
    /// `!(used[u] | used[v])` word by word, masked to the range, as
    /// `(word index, word)` pairs in increasing order. Empty when `a ≥ b`.
    fn free_words(&self, e: EdgeId, a: Color, b: Color) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (u, v) = self.graph.endpoints(e);
        let row_u = &self.used[u.index() * self.words..][..self.words];
        let row_v = &self.used[v.index() * self.words..][..self.words];
        let words = if a < b {
            a / 64..(b - 1) / 64 + 1
        } else {
            0..0
        };
        words.map(move |w| {
            let mut free = !(row_u[w] | row_v[w]);
            if w == a / 64 {
                free &= u64::MAX << (a % 64);
            }
            if w == (b - 1) / 64 {
                free &= u64::MAX >> (63 - (b - 1) % 64);
            }
            (w, free)
        })
    }

    /// The number of available colors of `e` in `[lo, hi)`: a masked
    /// popcount over the used rows for a contiguous list, the
    /// [`PartialColoring::available`] walk otherwise.
    fn count_available(&self, e: EdgeId, lo: Color, hi: Color) -> usize {
        match self.contiguous_span(e, lo, hi) {
            Some((a, b)) => self
                .free_words(e, a, b)
                .map(|(_, free)| free.count_ones() as usize)
                .sum(),
            None => self.available(e).filter(|&c| lo <= c && c < hi).count(),
        }
    }

    /// The smallest available color of `e` in `[lo, hi)`: the first set bit
    /// of the free words for a contiguous list, the
    /// [`PartialColoring::available`] walk otherwise.
    fn first_available(&self, e: EdgeId, lo: Color, hi: Color) -> Option<Color> {
        match self.contiguous_span(e, lo, hi) {
            Some((a, b)) => self
                .free_words(e, a, b)
                .find(|&(_, free)| free != 0)
                .map(|(w, free)| 64 * w + free.trailing_zeros() as usize),
            None => self.available(e).find(|&c| lo <= c && c < hi),
        }
    }
}

/// Sets `degree[e]`, for every edge `e` of `bucket`, to the number of other
/// edges of `bucket` that share an endpoint with `e`.
///
/// Each node counts the bucket edges that meet it; `e = (u, v)` then meets
/// `count[u] − 1` others at `u` and `count[v] − 1` at `v`. No edge is
/// counted at both ends because every [`Graph`] is simple (no parallel
/// edges). `count` must be all zero on entry and is all zero again on exit.
fn bucket_degrees(graph: &Graph, bucket: &[EdgeId], count: &mut [u32], degree: &mut [usize]) {
    for &e in bucket {
        let (u, v) = graph.endpoints(e);
        count[u.index()] += 1;
        count[v.index()] += 1;
    }
    for &e in bucket {
        let (u, v) = graph.endpoints(e);
        degree[e.index()] = (count[u.index()] + count[v.index()] - 2) as usize;
    }
    for &e in bucket {
        let (u, v) = graph.endpoints(e);
        count[u.index()] = 0;
        count[v.index()] = 0;
    }
}

/// Solves a slack-`S` list edge coloring instance `P(Δ̄, S, C)` on a 2-colored
/// bipartite graph (Lemma D.2): every edge of `bg` gets a color from its
/// available list, written into `state` (which refers to the *host* graph via
/// `edge_map`). Adjacency conflicts are checked against the host graph so the
/// global coloring stays proper.
///
/// The instance's lists are its edges' available lists; they are read
/// through the host masks rather than snapshotted, which is the same thing
/// because used sets only grow (`L_e ∖ U₀ ∖ U = L_e ∖ U` for `U₀ ⊆ U`).
fn solve_slack_instance(
    state: &mut PartialColoring<'_>,
    bg: &BipartiteGraph,
    edge_map: &[EdgeId],
    params: &ColoringParams,
    net: &mut Network<'_>,
    depth: u32,
) -> u64 {
    let piece = bg.graph();
    let m = piece.m();
    if m == 0 {
        return 0;
    }
    let space = state.lists.space_size().max(2);
    let levels = (space as f64).log2().floor() as u32;
    let eps_level = (1.0 / (space as f64).log2().max(1.0)).clamp(1e-3, 1.0);
    let piece_degree = piece.max_edge_degree();
    let passive_threshold = params.split_cutoff(piece_degree.max(1), eps_level);

    // Per-edge color interval [lo, hi) over the global color space, and the
    // phase at which the edge became passive (None = still active).
    let mut interval: Vec<(Color, Color)> = vec![(0, space); m];
    let mut passive_at: Vec<Option<u32>> = vec![None; m];
    let mut count = vec![0u32; piece.n()];
    let rounds_before = net.rounds();

    for phase in 1..=levels {
        let phase_rounds_before = net.rounds();
        // Degree of each edge among still-active, same-interval edges.
        let active_edges: Vec<EdgeId> = piece
            .edges()
            .filter(|&e| passive_at[e.index()].is_none() && !state.is_colored(edge_map[e.index()]))
            .collect();
        if active_edges.is_empty() {
            break;
        }
        let mut groups: BTreeMap<(Color, Color), Vec<EdgeId>> = BTreeMap::new();
        for &e in &active_edges {
            groups.entry(interval[e.index()]).or_default().push(e);
        }
        let mut active_degree = vec![0usize; m];
        for edges in groups.values() {
            bucket_degrees(piece, edges, &mut count, &mut active_degree);
        }
        // Edges whose active degree fell below the threshold become passive.
        for &e in &active_edges {
            if active_degree[e.index()] < passive_threshold {
                passive_at[e.index()] = Some(phase);
            }
        }
        // Split each interval's remaining active edges.
        let mut group_metrics: Vec<Metrics> = Vec::new();
        for ((lo, hi), mut edges) in groups {
            edges.retain(|e| passive_at[e.index()].is_none());
            if hi - lo <= 1 || edges.is_empty() {
                continue;
            }
            let mid = lo + (hi - lo) / 2;
            let in_group: Vec<bool> = {
                let mut flags = vec![false; m];
                for &e in &edges {
                    flags[e.index()] = true;
                }
                flags
            };
            let (sub, sub_map) = bg.edge_subgraph(|e| in_group[e.index()]);
            if sub.graph().m() == 0 {
                continue;
            }
            // λ_e: fraction of the edge's *available* list in [lo, hi) that
            // falls in the lower half [lo, mid) (0.5 when none does).
            let lambda: Vec<f64> = sub_map
                .iter()
                .map(|piece_edge| {
                    let host_edge = edge_map[piece_edge.index()];
                    let total = state.count_available(host_edge, lo, hi);
                    if total == 0 {
                        return 0.5;
                    }
                    let red = state.count_available(host_edge, lo, mid);
                    red as f64 / total as f64
                })
                .collect();
            let orientation_params = params.orientation(eps_level);
            let mut child_net = net.child(sub.graph());
            let split =
                defective_two_edge_coloring(&sub, &lambda, &orientation_params, &mut child_net);
            group_metrics.push(child_net.metrics());
            net.absorb_ledger(child_net.take_ledger(), depth);
            for e in sub.graph().edges() {
                let piece_edge = sub_map[e.index()];
                interval[piece_edge.index()] = if split.is_red(e) {
                    (lo, mid)
                } else {
                    (mid, hi)
                };
            }
        }
        net.absorb_parallel(&group_metrics);
        net.record_ledger(LedgerEntry {
            depth,
            stage: "solve-split",
            delta_level: active_degree.iter().copied().max().unwrap_or(0),
            edges: active_edges.len(),
            rounds: net.rounds() - phase_rounds_before,
            defect_ratio: f64::NAN,
            fallback: false,
        });
    }

    let finish_rounds_before = net.rounds();
    // Greedy finishing, scheduled by the one-round port-pair coloring of the
    // piece: first the edges that stayed active to the end, then the passive
    // edges in reverse order of passivation (Lemma D.2's ordering). Colors
    // are preferentially taken from the edge's final interval; correctness is
    // guaranteed by always checking the host graph's adjacent colors.
    let schedule = port_pair_edge_coloring(bg, net);
    let mut order: Vec<(u32, EdgeId)> = piece
        .edges()
        .map(|e| {
            (
                levels + 1 - passive_at[e.index()].unwrap_or(levels + 1).min(levels + 1),
                e,
            )
        })
        .collect();
    // Sort: active edges (key 0) first, then passive in reverse phase order.
    order.sort_by_key(|&(key, e)| (key, e));
    for class in EdgeClasses::by_schedule(&schedule, order.into_iter().map(|(_, e)| e)).iter() {
        let mut any = false;
        for &e in class {
            let host_edge = edge_map[e.index()];
            if state.is_colored(host_edge) {
                continue;
            }
            let (lo, hi) = interval[e.index()];
            let chosen = state
                .first_available(host_edge, lo, hi)
                .or_else(|| state.first_available(host_edge, 0, Color::MAX));
            // An empty list is left for the outer fallback; it cannot happen
            // when the slack invariant holds.
            if let Some(chosen) = chosen {
                state.set(host_edge, chosen);
                any = true;
            }
        }
        if any {
            net.charge_rounds(1);
        }
    }
    net.record_ledger(LedgerEntry {
        depth,
        stage: "solve-finish",
        delta_level: piece_degree,
        edges: m,
        rounds: net.rounds() - finish_rounds_before,
        defect_ratio: f64::NAN,
        fallback: false,
    });
    net.rounds() - rounds_before
}

/// Outcome of one slack-amplification pass (our Lemma D.3 substitute).
struct AmplifyOutcome {
    solver_calls: u64,
    fallback_rounds: u64,
}

/// Partially colors the bipartite piece `bg` so that the edge degree of the
/// graph induced by its uncolored edges drops to at most
/// `Δ̄(piece)/AMPLIFY_K` (Lemma D.3).
///
/// The amplification splits the piece's *edges* into `2^t` groups by `t`
/// levels of the generalized defective 2-edge coloring with `λ_e = 1/2`
/// (Corollary 5.7), so that an edge's degree *within its own group* is about
/// a `2^{-t}` fraction of its degree while its list is untouched — i.e. each
/// group is a slack-`S` instance. The groups are then handed to the slack-`S`
/// solver one after the other (their colored edges shrink the lists of later
/// groups by at most as much as they shrink the degrees, preserving slack).
/// A greedy pass enforces the degree-reduction contract if some edges did not
/// qualify (this is recorded as `fallback_rounds`).
fn amplify_slack(
    state: &mut PartialColoring<'_>,
    bg: &BipartiteGraph,
    edge_map: &[EdgeId],
    params: &ColoringParams,
    net: &mut Network<'_>,
    depth: u32,
) -> AmplifyOutcome {
    let piece = bg.graph();
    let mut solver_calls = 0u64;
    let mut fallback_rounds = 0u64;
    if piece.m() == 0 {
        return AmplifyOutcome {
            solver_calls,
            fallback_rounds,
        };
    }
    let piece_degree = piece.max_edge_degree();
    let target_degree = (piece_degree / AMPLIFY_K).max(2);

    // Number of edge-splitting levels: enough that an edge's in-group degree
    // drops below |L_e| / S ≈ deg(e) / S. Three levels (8 groups) suffice:
    // an edge with in-group degree ≈ deg(e)/8 qualifies as slack-S since
    // deg(e) + 1 > S·deg(e)/8 ≈ 0.92·deg(e); each extra level would double
    // the number of per-level orientation calls charged to the round count
    // without being needed for qualification.
    let levels = (SLACK_S.log2().ceil() as usize).max(3);
    // The uniform λ = 1/2 split only feeds the *measured* slack-S
    // qualification below, so a loose multiplicative guarantee is fine; a
    // large ε makes the orientation's per-phase threshold decay (1−ε/8)^φ
    // geometric instead of near-flat, which batches the degree range into
    // O(log Δ̄) productive phases rather than Θ(Δ̄) of them.
    let split_eps = (2.0 * params.eps).clamp(1e-3, 1.0);

    // An uncolored edge qualifies as slack-S in its group when its available
    // list is S times larger than its uncolored in-group degree, which
    // `bucket_degrees` writes into `degree` for the uncolored edges of each
    // group.
    let mut count = vec![0u32; piece.n()];
    let mut degree = vec![0usize; piece.m()];
    // The splits color nothing, so the piece's uncolored edges stay the same
    // until the first group is solved: they are read from the host
    // coloring once.
    let is_uncolored: Vec<bool> = piece
        .edges()
        .map(|e| !state.is_colored(edge_map[e.index()]))
        .collect();
    let uncolored_by_group = |group: &[usize]| {
        EdgeClasses::new(
            piece
                .edges()
                .filter(|e| is_uncolored[e.index()])
                .map(|e| (group[e.index()], e)),
        )
    };
    let qualifies = |state: &PartialColoring<'_>, degree: &[usize], e: EdgeId| -> bool {
        state.count_available(edge_map[e.index()], 0, Color::MAX) as f64
            > SLACK_S * degree[e.index()] as f64
    };

    // Level-by-level defective splitting of the still-uncolored piece edges.
    // Splitting stops early once every uncolored edge already qualifies as
    // slack-S in its current group: further levels would charge orientation
    // rounds without changing which edges the solver accepts. With full
    // `2Δ−1` palettes this typically takes 2 levels instead of the
    // worst-case 3.
    let mut group: Vec<usize> = vec![0; piece.m()];
    for _level in 0..levels {
        let level_rounds_before = net.rounds();
        let groups = uncolored_by_group(&group);
        for edges in groups.iter() {
            bucket_degrees(piece, edges, &mut count, &mut degree);
        }
        if groups
            .iter()
            .flatten()
            .all(|&e| qualifies(state, &degree, e))
        {
            break;
        }
        let uncolored = groups.iter().map(<[EdgeId]>::len).sum::<usize>();
        // The groups present at the start of the level, in increasing order.
        // Each split reads the live labels, so a group can take in edges
        // that a smaller group's split just relabelled into it.
        let groups_present: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter(|(_, edges)| !edges.is_empty())
            .map(|(g, _)| g)
            .collect();
        let mut level_metrics: Vec<Metrics> = Vec::new();
        for g in groups_present {
            let (sub, sub_map) =
                bg.edge_subgraph(|e| group[e.index()] == g && is_uncolored[e.index()]);
            if sub.graph().m() == 0 {
                continue;
            }
            let lambda = vec![0.5; sub.graph().m()];
            let orientation_params = params.orientation(split_eps);
            let mut child_net = net.child(sub.graph());
            let split =
                defective_two_edge_coloring(&sub, &lambda, &orientation_params, &mut child_net);
            level_metrics.push(child_net.metrics());
            net.absorb_ledger(child_net.take_ledger(), depth);
            for e in sub.graph().edges() {
                let piece_edge = sub_map[e.index()];
                group[piece_edge.index()] = 2 * g + if split.is_red(e) { 0 } else { 1 };
            }
        }
        net.absorb_parallel(&level_metrics);
        net.record_ledger(LedgerEntry {
            depth,
            stage: "amplify-split",
            delta_level: piece_degree,
            edges: uncolored,
            rounds: net.rounds() - level_rounds_before,
            defect_ratio: f64::NAN,
            fallback: false,
        });
    }

    // Process the groups sequentially; within each group, the qualifying
    // edges form a slack-S instance for Lemma D.2. A group's solve colors
    // only its own edges, so the later groups' edges stay uncolored and
    // their in-group degrees are unchanged; their available lists are read
    // when their turn comes.
    for edges in uncolored_by_group(&group).iter() {
        bucket_degrees(piece, edges, &mut count, &mut degree);
        let selected: Vec<EdgeId> = edges
            .iter()
            .copied()
            .filter(|&e| qualifies(state, &degree, e))
            .collect();
        if selected.is_empty() {
            continue;
        }
        let mut flags = vec![false; piece.m()];
        for &e in &selected {
            flags[e.index()] = true;
        }
        let (sub, sub_map) = bg.edge_subgraph(|e| flags[e.index()]);
        let sub_to_host: Vec<EdgeId> = sub_map.iter().map(|pe| edge_map[pe.index()]).collect();
        let mut child_net = net.child(sub.graph());
        solve_slack_instance(state, &sub, &sub_to_host, params, &mut child_net, depth);
        solver_calls += 1;
        net.record_ledger(LedgerEntry {
            depth,
            stage: "slack-solve",
            delta_level: sub.graph().max_edge_degree(),
            edges: sub.graph().m(),
            rounds: child_net.metrics().rounds,
            defect_ratio: f64::NAN,
            fallback: false,
        });
        net.absorb_ledger(child_net.take_ledger(), 0);
        net.absorb_sequential(&child_net.metrics());
    }

    // Fallback: if the degree target is still not met, greedily color every
    // edge whose uncolored degree exceeds the target (their lists always have
    // a free color thanks to the degree+1 invariant).
    let uncolored: Vec<EdgeId> = piece
        .edges()
        .filter(|&e| !state.is_colored(edge_map[e.index()]))
        .collect();
    bucket_degrees(piece, &uncolored, &mut count, &mut degree);
    let heavy: Vec<EdgeId> = uncolored
        .into_iter()
        .filter(|e| degree[e.index()] > target_degree)
        .collect();
    if !heavy.is_empty() {
        let rounds_before = net.rounds();
        let schedule = port_pair_edge_coloring(bg, net);
        let edges = heavy.len();
        for class in EdgeClasses::by_schedule(&schedule, heavy).iter() {
            let mut any = false;
            for &e in class {
                let host_edge = edge_map[e.index()];
                if state.is_colored(host_edge) {
                    continue;
                }
                if let Some(c) = state.first_available(host_edge, 0, Color::MAX) {
                    state.set(host_edge, c);
                    any = true;
                }
            }
            if any {
                net.charge_rounds(1);
            }
        }
        fallback_rounds = net.rounds() - rounds_before;
        net.record_ledger(LedgerEntry {
            depth,
            stage: "amplify-fallback",
            delta_level: piece_degree,
            edges,
            rounds: fallback_rounds,
            defect_ratio: f64::NAN,
            fallback: true,
        });
    }

    AmplifyOutcome {
        solver_calls,
        fallback_rounds,
    }
}

/// Computes a `(degree+1)`-list edge coloring of `graph` in the LOCAL model
/// (Theorem 1.1 / Theorem D.4).
///
/// # Errors
///
/// Returns an error if some list is smaller than `deg_G(e) + 1` or the color
/// space is larger than `poly(Δ)` (the theorem's assumption).
pub fn list_edge_coloring(
    graph: &Graph,
    lists: &ListAssignment,
    ids: &IdAssignment,
    params: &ColoringParams,
) -> Result<ListColoringOutcome, ColoringError> {
    // Validate the (degree+1) requirement.
    for e in graph.edges() {
        let need = graph.edge_degree(e) + 1;
        if lists.list_size(e) < need {
            return Err(ColoringError::ListTooSmall {
                edge: e.index(),
                list_size: lists.list_size(e),
                degree: graph.edge_degree(e),
            });
        }
    }
    let dbar = graph.max_edge_degree().max(1);
    let allowed_space = (dbar * dbar * dbar * dbar).max(4096);
    if lists.space_size() > allowed_space {
        return Err(ColoringError::ColorSpaceTooLarge {
            space: lists.space_size(),
            allowed: allowed_space,
        });
    }

    let mut net = Network::new(graph, Model::Local);
    let mut state = PartialColoring::new(graph, lists);
    let mut solver_calls = 0u64;
    let mut fallback_rounds = 0u64;
    let mut outer_iterations = 0u32;

    if graph.m() == 0 {
        return Ok(ListColoringOutcome {
            coloring: state.coloring,
            colors_used: 0,
            metrics: net.metrics(),
            outer_iterations,
            solver_calls,
            fallback_rounds,
            initial_coloring_rounds: 0,
            ledger: RoundLedger::new(),
        });
    }

    // Step 1: O(Δ²)-vertex coloring in O(log* n) rounds.
    let linial = linial_coloring(graph, ids, &mut net);
    let initial_coloring_rounds = net.rounds();
    net.record_ledger(LedgerEntry {
        depth: 0,
        stage: "linial",
        delta_level: dbar,
        edges: graph.m(),
        rounds: initial_coloring_rounds,
        defect_ratio: f64::NAN,
        fallback: false,
    });
    let finish_cutoff = params.low_degree_cutoff.max(4);

    // Step 2: O(log Δ) degree-reduction iterations. Each iteration's residual
    // uncolored subgraph is the next iteration's input, and the last one is
    // the remainder of Step 3.
    let mut uncolored_subgraph = graph.edge_subgraph(|e| !state.is_colored(e));
    for _ in 0..params.max_outer_iterations {
        let (uncolored, edge_map) = &uncolored_subgraph;
        let degree_before = uncolored.max_edge_degree();
        if uncolored.m() == 0 || degree_before <= finish_cutoff {
            break;
        }
        outer_iterations += 1;
        let depth = outer_iterations;
        let iter_rounds_before = net.rounds();

        // Constant-class defective coloring of the uncolored graph
        // (4 classes, monochromatic degree ≈ Δ/2; see docs/ROUNDS.md).
        let base = VertexColoring::from_vec(linial.coloring.as_slice().to_vec());
        let d4_rounds_before = net.rounds();
        let classes = defective_four_coloring(uncolored, &base, linial.palette, 0.25, &mut net);
        net.record_ledger(LedgerEntry {
            depth,
            stage: "defective4",
            delta_level: degree_before,
            edges: uncolored.m(),
            rounds: net.rounds() - d4_rounds_before,
            defect_ratio: f64::NAN,
            fallback: false,
        });

        // For every unordered pair of distinct classes, color the bipartite
        // graph of uncolored edges crossing that pair. The 6 pairs of K₄
        // decompose into 3 perfect matchings; the two pairs of a matching
        // touch disjoint class sets, so their pieces are vertex-disjoint and
        // can be processed as one union bipartite piece in a single pass —
        // simultaneous color choices cannot conflict across disjoint nodes.
        // This makes each outer iteration cost 3 amplification passes
        // instead of 6 without weakening the Lemma D.3 contract.
        const PAIR_MATCHINGS: [[(usize, usize); 2]; 3] =
            [[(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]];
        for matching in PAIR_MATCHINGS {
            let crosses = |e: EdgeId| {
                let (x, y) = uncolored.endpoints(e);
                let (cx, cy) = (classes.color(x), classes.color(y));
                matching
                    .iter()
                    .any(|&(a, b)| (cx == a && cy == b) || (cx == b && cy == a))
            };
            {
                let (piece, piece_map) = uncolored
                    .edge_subgraph(|e| !state.is_colored(edge_map[e.index()]) && crosses(e));
                if piece.m() == 0 {
                    continue;
                }
                // U = the first class of each matched pair, V = the second.
                let sides: Vec<Side> = piece
                    .nodes()
                    .map(|v| {
                        let c = classes.color(v);
                        if matching.iter().any(|&(a, _)| c == a) {
                            Side::U
                        } else {
                            Side::V
                        }
                    })
                    .collect();
                let bipartite = BipartiteGraph::new(piece, sides)
                    .expect("piece edges cross the (a, b) class pair");
                // Map piece edges to host edges.
                let to_host: Vec<EdgeId> =
                    piece_map.iter().map(|ue| edge_map[ue.index()]).collect();
                let outcome =
                    amplify_slack(&mut state, &bipartite, &to_host, params, &mut net, depth);
                solver_calls += outcome.solver_calls;
                fallback_rounds += outcome.fallback_rounds;
            }
        }

        // Record the iteration's degree-reduction contract: the residual
        // uncolored degree must shrink by a constant factor per level for the
        // outer loop to stay O(log Δ).
        let (residual, residual_map) = graph.edge_subgraph(|e| !state.is_colored(e));
        let degree_after = residual.max_edge_degree();
        // Stall guard: the pipeline is deterministic, so an iteration that
        // colors no edge would recompute the identical defective coloring on
        // the identical residual forever, burning max_outer_iterations ×
        // (defective-coloring cost) rounds for nothing. Break to the greedy
        // finisher instead and mark the iteration as a fallback in the
        // ledger.
        let stalled = residual.m() == uncolored.m();
        net.record_ledger(LedgerEntry {
            depth,
            stage: "outer-iter",
            delta_level: degree_before,
            edges: residual.m(),
            rounds: net.rounds() - iter_rounds_before,
            defect_ratio: degree_after as f64 / degree_before.max(1) as f64,
            fallback: stalled,
        });
        uncolored_subgraph = (residual, residual_map);
        if stalled {
            break;
        }
    }

    // Step 3: finish the low-degree remainder greedily from the lists.
    let (rest, rest_map) = uncolored_subgraph;
    let finish_rounds_before = net.rounds();
    if rest.m() > 0 {
        let rest_ids = IdAssignment::from_vec(rest.nodes().map(|v| ids.id(v)).collect());
        let schedule = linial_edge_coloring(&rest, &rest_ids, &mut net);
        // Schedule classes on the remainder, choosing from the available lists.
        for class in EdgeClasses::by_schedule(&schedule, rest.edges()).iter() {
            let mut any = false;
            for &e in class {
                let host_edge = rest_map[e.index()];
                if state.is_colored(host_edge) {
                    continue;
                }
                let c = state
                    .first_available(host_edge, 0, Color::MAX)
                    .expect("the degree+1 invariant guarantees a free color");
                state.set(host_edge, c);
                any = true;
            }
            if any {
                net.charge_rounds(1);
            }
        }
        net.record_ledger(LedgerEntry {
            depth: 0,
            stage: "greedy-finish",
            delta_level: rest.max_edge_degree(),
            edges: rest.m(),
            rounds: net.rounds() - finish_rounds_before,
            defect_ratio: f64::NAN,
            fallback: false,
        });
    }

    Ok(ListColoringOutcome {
        colors_used: state.coloring.colors_used(),
        coloring: state.coloring,
        metrics: net.metrics(),
        outer_iterations,
        solver_calls,
        fallback_rounds,
        initial_coloring_rounds,
        ledger: net.take_ledger(),
    })
}

/// The default palette budget for a graph of maximum degree `delta`:
/// `max(2Δ − 1, 1)`, the classical bound of Theorem 1.1's special case.
///
/// [`color_edges_local`] and every layer of the dynamic recoloring subsystem
/// (repair, benches, differential tests) derive their budgets from this one
/// function so they cannot drift apart.
pub fn default_palette(delta: usize) -> usize {
    (2 * delta).saturating_sub(1).max(1)
}

/// Computes a `(2Δ−1)`-edge coloring of `graph` in the LOCAL model
/// (the classical special case of Theorem 1.1: every edge's list is the full
/// palette `{0, ..., 2Δ−2}`).
///
/// # Examples
///
/// ```
/// use distgraph::generators;
/// use distsim::IdAssignment;
/// use edgecolor::{color_edges_local, ColoringParams};
///
/// let graph = generators::grid_torus(8, 8); // Δ = 4
/// let ids = IdAssignment::scattered(graph.n(), 1);
/// let outcome = color_edges_local(&graph, &ids, &ColoringParams::new(0.5))?;
/// assert!(outcome.coloring.is_complete());
/// assert!(outcome.coloring.palette_size() <= 2 * graph.max_degree() - 1);
/// # Ok::<(), edgecolor::ColoringError>(())
/// ```
pub fn color_edges_local(
    graph: &Graph,
    ids: &IdAssignment,
    params: &ColoringParams,
) -> Result<ListColoringOutcome, ColoringError> {
    let palette = default_palette(graph.max_degree());
    let lists = ListAssignment::full_palette(graph, palette);
    list_edge_coloring(graph, &lists, ids, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgraph::generators;
    use edgecolor_verify::{
        check_complete, check_list_compliance, check_palette_size, check_proper_edge_coloring,
    };
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check_outcome(graph: &Graph, lists: &ListAssignment, outcome: &ListColoringOutcome) {
        check_proper_edge_coloring(graph, &outcome.coloring).assert_ok();
        check_complete(graph, &outcome.coloring).assert_ok();
        check_list_compliance(graph, lists, &outcome.coloring).assert_ok();
    }

    #[test]
    fn two_delta_minus_one_coloring_on_regular_graph() {
        let g = generators::random_regular(60, 6, 1).unwrap();
        let ids = IdAssignment::scattered(g.n(), 3);
        let params = ColoringParams::new(0.5);
        let outcome = color_edges_local(&g, &ids, &params).unwrap();
        let lists = ListAssignment::full_palette(&g, 2 * g.max_degree() - 1);
        check_outcome(&g, &lists, &outcome);
        check_palette_size(&outcome.coloring, 2 * g.max_degree() - 1).assert_ok();
    }

    #[test]
    fn degree_plus_one_lists_are_respected() {
        let g = generators::random_regular(50, 5, 9).unwrap();
        let lists = ListAssignment::degree_plus_one(&g);
        let ids = IdAssignment::contiguous(g.n());
        let params = ColoringParams::new(0.5);
        let outcome = list_edge_coloring(&g, &lists, &ids, &params).unwrap();
        check_outcome(&g, &lists, &outcome);
        check_palette_size(&outcome.coloring, g.max_edge_degree() + 1).assert_ok();
    }

    #[test]
    fn adversarial_random_lists() {
        // Random lists of size deg(e)+1 drawn from a larger color space:
        // list coloring proper, every color from the list.
        let g = generators::random_regular(40, 6, 4).unwrap();
        let space = 4 * g.max_degree();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let lists = ListAssignment::new(
            space,
            g.edges()
                .map(|e| {
                    let need = g.edge_degree(e) + 1;
                    let mut list = std::collections::HashSet::new();
                    while list.len() < need {
                        list.insert(rng.gen_range(0..space));
                    }
                    list.into_iter().collect()
                })
                .collect(),
        );
        let ids = IdAssignment::scattered(g.n(), 11);
        let params = ColoringParams::new(0.5);
        let outcome = list_edge_coloring(&g, &lists, &ids, &params).unwrap();
        check_outcome(&g, &lists, &outcome);
    }

    #[test]
    fn larger_degree_graph_exercises_the_outer_loop() {
        let bg = generators::regular_bipartite(40, 24, 5).unwrap();
        let g = bg.graph().clone();
        let ids = IdAssignment::contiguous(g.n());
        let params = ColoringParams::new(0.5);
        let outcome = color_edges_local(&g, &ids, &params).unwrap();
        let lists = ListAssignment::full_palette(&g, 2 * g.max_degree() - 1);
        check_outcome(&g, &lists, &outcome);
        assert!(
            outcome.outer_iterations >= 1,
            "expected the degree-reduction loop to run"
        );
        assert!(
            outcome.solver_calls >= 1,
            "expected at least one Lemma D.2 call"
        );
    }

    #[test]
    fn rejects_too_small_lists() {
        let g = generators::star(4);
        let lists = ListAssignment::new(2, vec![vec![0, 1]; g.m()]);
        let ids = IdAssignment::contiguous(g.n());
        let params = ColoringParams::new(0.5);
        let err = list_edge_coloring(&g, &lists, &ids, &params).unwrap_err();
        assert!(matches!(err, ColoringError::ListTooSmall { .. }));
    }

    #[test]
    fn rejects_oversized_color_space() {
        let g = generators::path(4);
        let lists = ListAssignment::new(1 << 20, vec![(0..10).collect(); g.m()]);
        let ids = IdAssignment::contiguous(g.n());
        let params = ColoringParams::new(0.5);
        let err = list_edge_coloring(&g, &lists, &ids, &params).unwrap_err();
        assert!(matches!(err, ColoringError::ColorSpaceTooLarge { .. }));
    }

    #[test]
    fn handles_paths_trees_and_empty_graphs() {
        let params = ColoringParams::new(0.5);
        for g in [
            generators::path(10),
            generators::random_tree(30, 2),
            Graph::from_edges(5, &[]).unwrap(),
        ] {
            let ids = IdAssignment::contiguous(g.n());
            let outcome = color_edges_local(&g, &ids, &params).unwrap();
            if g.m() > 0 {
                let lists = ListAssignment::full_palette(&g, (2 * g.max_degree()).max(1) - 1);
                check_outcome(&g, &lists, &outcome);
            } else {
                assert_eq!(outcome.colors_used, 0);
            }
        }
    }

    #[test]
    fn paper_profile_still_produces_valid_colorings() {
        let g = generators::random_regular(40, 8, 2).unwrap();
        let ids = IdAssignment::contiguous(g.n());
        let params = ColoringParams::paper(0.5);
        let outcome = color_edges_local(&g, &ids, &params).unwrap();
        let lists = ListAssignment::full_palette(&g, 2 * g.max_degree() - 1);
        check_outcome(&g, &lists, &outcome);
    }
    /// A random simple graph on `n` nodes (from raw node pairs), random lists
    /// over `space` colors (gapped, or contiguous ranges when `contiguous`),
    /// and a random proper partial coloring drawn from the lists with
    /// [`EdgeColoring::colors_around`] as the reference, mirrored into a
    /// [`PartialColoring`] through its own `set`. The mask-derived available
    /// lists must equal the reference, and the word-parallel queries
    /// `count_available` and `first_available` must equal the
    /// [`PartialColoring::available`] walk on random color ranges.
    fn masks_against_reference(
        n: usize,
        pairs: &[(usize, usize)],
        space: usize,
        contiguous: bool,
        seed: u64,
    ) {
        let mut edges: Vec<(usize, usize)> = pairs
            .iter()
            .filter(|&&(u, v)| u < n && v < n && u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let graph = Graph::from_edges(n, &edges).expect("simple graph");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let lists = ListAssignment::new(
            space,
            graph
                .edges()
                .map(|_| {
                    let size = rng.gen_range(1..24usize);
                    if contiguous {
                        let first = rng.gen_range(0..space - size);
                        (first..first + size).collect()
                    } else {
                        (0..size).map(|_| rng.gen_range(0..space)).collect()
                    }
                })
                .collect(),
        );
        let mut reference = EdgeColoring::empty(graph.m());
        let mut state = PartialColoring::new(&graph, &lists);
        for e in graph.edges() {
            if !rng.gen_bool(0.6) {
                continue;
            }
            let around = reference.colors_around(&graph, e);
            let free: Vec<Color> = lists
                .list(e)
                .iter()
                .copied()
                .filter(|c| !around.contains(c))
                .collect();
            if !free.is_empty() {
                let c = free[rng.gen_range(0..free.len())];
                reference.set(e, c);
                state.set(e, c);
            }
        }
        assert!(reference.is_proper(&graph));
        assert_eq!(state.coloring, reference);
        for e in graph.edges().filter(|&e| !reference.is_colored(e)) {
            let around = reference.colors_around(&graph, e);
            let expected: Vec<Color> = lists
                .list(e)
                .iter()
                .copied()
                .filter(|c| !around.contains(c))
                .collect();
            let got: Vec<Color> = state.available(e).collect();
            assert_eq!(got, expected, "available list of {e} (space {space})");
            let mut ranges = vec![(0, Color::MAX), (0, space), (space, Color::MAX)];
            for _ in 0..6 {
                ranges.push((rng.gen_range(0..space + 70), rng.gen_range(0..space + 70)));
            }
            for (lo, hi) in ranges {
                let in_range = |c: &Color| lo <= *c && *c < hi;
                assert_eq!(
                    state.count_available(e, lo, hi),
                    expected.iter().filter(|c| in_range(c)).count(),
                    "count of {e} in [{lo}, {hi}) (space {space}, contiguous {contiguous})"
                );
                assert_eq!(
                    state.first_available(e, lo, hi),
                    expected.iter().copied().find(in_range),
                    "first of {e} in [{lo}, {hi}) (space {space}, contiguous {contiguous})"
                );
            }
        }
    }

    /// Reference degree, per edge: the edges adjacent to `e` in `graph`
    /// that satisfy `keep`, counted over both endpoints' adjacency.
    fn adjacent_count(graph: &Graph, e: EdgeId, keep: impl Fn(EdgeId) -> bool) -> usize {
        let (u, v) = graph.endpoints(e);
        graph
            .neighbors(u)
            .iter()
            .chain(graph.neighbors(v))
            .filter(|nb| nb.edge != e && keep(nb.edge))
            .count()
    }

    /// A random simple graph with a random uncolored mask and random bucket
    /// labels: the counter degree of every uncolored edge equals the number
    /// of adjacent uncolored edges with its label.
    fn bucket_degrees_against_reference(
        n: usize,
        pairs: &[(usize, usize)],
        buckets: usize,
        seed: u64,
    ) {
        let mut edges: Vec<(usize, usize)> = pairs
            .iter()
            .filter(|&&(u, v)| u < n && v < n && u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let graph = Graph::from_edges(n, &edges).expect("simple graph");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let uncolored: Vec<bool> = graph.edges().map(|_| rng.gen_bool(0.7)).collect();
        let label: Vec<usize> = graph.edges().map(|_| rng.gen_range(0..buckets)).collect();
        let classes = EdgeClasses::new(
            graph
                .edges()
                .filter(|e| uncolored[e.index()])
                .map(|e| (label[e.index()], e)),
        );
        let mut count = vec![0u32; graph.n()];
        let mut degree = vec![usize::MAX; graph.m()];
        for bucket in classes.iter() {
            bucket_degrees(&graph, bucket, &mut count, &mut degree);
        }
        assert!(count.iter().all(|&c| c == 0), "counters not reset");
        for e in graph.edges() {
            if !uncolored[e.index()] {
                assert_eq!(degree[e.index()], usize::MAX, "{e} is not in a bucket");
                continue;
            }
            let expected = adjacent_count(&graph, e, |f| {
                uncolored[f.index()] && label[f.index()] == label[e.index()]
            });
            assert_eq!(degree[e.index()], expected, "degree of {e}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Per-node counters give every uncolored edge its degree among the
        /// uncolored edges of its own bucket, as the adjacency scan does.
        #[test]
        fn bucket_degrees_match_adjacency_scan(
            n in 2usize..24,
            pairs in proptest::collection::vec((0usize..24, 0usize..24), 0..120),
            buckets in 1usize..5,
            seed in 0u64..1 << 48,
        ) {
            bucket_degrees_against_reference(n, &pairs, buckets, seed);
        }

        /// The mask-derived available list equals `L_e` minus the colors
        /// around `e`, and the word-parallel list queries equal the walk
        /// over it, for gapped and contiguous lists over list spaces below
        /// 64 colors (one word per node) and above it (four words per node).
        #[test]
        fn used_color_masks_match_colors_around(
            n in 2usize..24,
            pairs in proptest::collection::vec((0usize..24, 0usize..24), 0..80),
            wide in 0usize..2,
            contiguous in 0usize..2,
            seed in 0u64..1 << 48,
        ) {
            let space = if wide == 1 { 200 } else { 40 };
            masks_against_reference(n, &pairs, space, contiguous == 1, seed);
        }
    }
}
