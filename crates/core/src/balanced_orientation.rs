//! Generalized balanced edge orientations (Section 5, Definition 5.2).
//!
//! Given a 2-colored bipartite graph `G = (U ∪ V, E)` and per-edge parameters
//! `η_e`, the phase algorithm of Section 5 orients every edge so that for each
//! edge `e = (u, v)` with `u ∈ U`, `v ∈ V`:
//!
//! * oriented from `u` to `v`:  `x_v − x_u ≤ η_e + (1+ε)/2 · deg(e) + β`,
//! * oriented from `v` to `u`:  `x_u − x_v ≤ −η_e + (1+ε)/2 · deg(e) + β`,
//!
//! where `x_w` is the number of edges oriented towards `w` (Theorem 5.6, with
//! `β = O(log³ Δ̄ / ε⁵)` for the paper's constants).
//!
//! Each phase orients a batch of so-far-unoriented high-degree edges
//! (proposal/acceptance with budget `k_φ`), and then repairs the imbalance
//! this creates on the already-oriented edges by playing one instance of the
//! generalized token dropping game of Section 4 and flipping the edges over
//! which tokens moved.
//!
//! # Incremental phase state
//!
//! A phase costs its work, not `O(n + m)` passes over recomputed state. The
//! phase state is kept across phases instead of being recomputed from the
//! orientation:
//!
//! * the set of unoriented edges, one bit per edge;
//! * every node's unoriented degree, and an upper bound on the largest
//!   unoriented edge degree: the largest one the last pass saw, which
//!   step 4 can only lower;
//! * every node's `d⁻`, the smallest degree among its already oriented
//!   edges (the input of `α_w(φ)`).
//!
//! A phase visits every edge at most once, in edge order, reading the
//! previous phase's `x` values: the live indegrees, read before step 4
//! orients the accepted edges. One pass over the unoriented edges finds
//! `E_φ`, its acceptances (each node takes its `k_φ` smallest edge ids) and
//! the largest unoriented edge degree; when `E_φ` is not empty, one pass
//! over the oriented edges finds the violating edges `F'_{<φ}`. Acceptance
//! reads only `E_φ` and the violation test only oriented edges, so neither
//! pass depends on the other. Three shortcuts follow, and all are exact:
//!
//! * A phase whose threshold `(1−ν)^φ·Δ̄` is at least the degree bound is
//!   skipped in `O(1)`, and a phase whose pass over the unoriented edges
//!   finds `E_φ` empty is skipped the same way, before the oriented edges
//!   are read. Its `E_φ` is empty, so nothing is proposed, accepted or
//!   moved, and the schedule `(threshold, k_φ, δ_φ)` depends only on `φ`.
//! * An inert repair game is not built. A game runs `⌊k_φ/δ_φ⌋ − 1` phases,
//!   and in its first only a node holding at least `α_w + δ_φ` tokens acts,
//!   so when no phase runs or no acceptor holds that many tokens, the game
//!   moves no token and charges no round. Its violating edges still count
//!   towards the `orient-game` ledger entry.
//! * A live repair game is played on its *players* only: the endpoints of
//!   violating edges and the nodes that accepted tokens, numbered in host
//!   order so every id tie-break of the solver is unchanged. Any other node
//!   has `x = 0 < α + δ` and no arcs, so it never acts.

use crate::params::OrientationParams;
use crate::token_dropping::{solve_distributed, TokenGame, TokenGameParams};
use distgraph::{BipartiteGraph, EdgeId, NodeId, Orientation, Side};
use distsim::{bits_for, LedgerEntry, Network};

/// The outcome of the Section 5 phase algorithm.
#[derive(Debug, Clone)]
pub struct BalancedOrientationResult {
    /// The computed orientation (every edge is oriented).
    pub orientation: Orientation,
    /// The `ε` of the Definition 5.2 guarantee (`= 8ν`).
    pub eps: f64,
    /// The additive slack `β` guaranteed for the chosen parameter profile.
    pub beta: f64,
    /// Number of phases executed.
    pub phases: u32,
    /// Rounds charged to the enclosing network for this computation.
    pub rounds: u64,
}

/// The per-edge threshold `η_e` of Lemma 5.3 (Equation (3)):
///
/// `η_e = 1 − 2λ_e − (1−λ_e)·deg(u) + λ_e·deg(v) + ε·(λ_e − ½)·deg(e) + (2λ_e − 1)·β`.
pub fn eta_for_lambda(
    deg_u: usize,
    deg_v: usize,
    edge_degree: usize,
    lambda: f64,
    eps: f64,
    beta: f64,
) -> f64 {
    1.0 - 2.0 * lambda - (1.0 - lambda) * deg_u as f64
        + lambda * deg_v as f64
        + eps * (lambda - 0.5) * edge_degree as f64
        + (2.0 * lambda - 1.0) * beta
}

/// Computes a generalized `(ε, β)`-balanced edge orientation of `bg` with
/// respect to the per-edge parameters `eta` (Theorem 5.6).
///
/// The number of rounds used is charged to `net` (the per-phase proposal and
/// acceptance exchanges plus the rounds of the embedded token dropping
/// games); the messages are counters of `O(log n + log Δ)` bits each and are
/// accounted as such.
///
/// # Panics
///
/// Panics if `eta.len()` differs from the number of edges of the graph.
pub fn compute_balanced_orientation(
    bg: &BipartiteGraph,
    eta: &[f64],
    params: &OrientationParams,
    net: &mut Network<'_>,
) -> BalancedOrientationResult {
    let graph = bg.graph();
    assert_eq!(eta.len(), graph.m(), "one eta value per edge");

    let mut orientation = Orientation::new(graph);
    let max_edge_degree = graph.max_edge_degree();
    let dbar = max_edge_degree.max(1);
    let nu = params.nu;
    let message_bits = bits_for(graph.n().max(dbar) as u64) as u64 + 4;
    let max_phases = params.phase_count(dbar);
    let rounds_before = net.rounds();
    let mut phases_run = 0u32;
    let mut total_game_rounds = 0u64;
    let mut total_violating = 0usize;

    // Phase state carried across phases (see the module docs).
    let mut unoriented_left = graph.m();
    // Bit `e` is set while edge `e` is unoriented.
    let mut unoriented: Vec<u64> = (0..graph.m().div_ceil(64))
        .map(|i| word_mask(graph.m(), i))
        .collect();
    let mut unoriented_deg: Vec<u32> = graph.nodes().map(|w| graph.degree(w) as u32).collect();
    let mut d_minus = vec![usize::MAX; graph.n()];
    let mut max_unoriented_degree = max_edge_degree;
    // Scratch for numbering a game's players: a bitset marking them, and
    // the local id of each (meaningful only for the current game's players).
    let mut is_player = vec![0u64; graph.n().div_ceil(64)];
    let mut player_id = vec![0usize; graph.n()];
    let mut accepted_count = vec![0usize; graph.n()];

    for phi in 1..=max_phases {
        if unoriented_left == 0 {
            break;
        }
        let threshold = (1.0 - nu).powi(phi as i32) * dbar as f64;

        // A phase with E_φ = ∅ cannot change any state: no proposals means
        // no acceptances, and the repair game's tokens come exclusively from
        // this phase's acceptances, so it starts empty and moves nothing.
        // The phase schedule (threshold, k_φ, δ_φ) depends only on φ, so
        // skipping the phase without charging rounds is semantically exact.
        // E_φ is empty when the largest unoriented edge degree is at most
        // the threshold, and `max_unoriented_degree` bounds it from above.
        if max_unoriented_degree as f64 <= threshold {
            continue;
        }

        // Steps 1–3 in one pass over the unoriented edges in edge order,
        // reading the x values of the previous phase (the live indegrees,
        // which step 4 has not touched yet): an edge whose unoriented edge
        // degree exceeds (1 − ν)^φ · Δ̄ is in E_φ and proposes to one of its
        // endpoints, and each node accepts at most k_φ proposals,
        // deterministically the ones with the smallest edge identifiers. The
        // same pass finds the exact largest unoriented edge degree.
        let k_phi = params.k_phi(phi, dbar);
        // An integer degree exceeds the threshold exactly when it exceeds
        // its floor.
        let cutoff = threshold.floor() as usize;
        let x = |w: NodeId| orientation.indegree(w) as i64;
        let mut e_phi_len = 0usize;
        let mut largest = 0usize;
        let mut accepted: Vec<(EdgeId, NodeId)> = Vec::new();
        for e in set_edges(unoriented.iter().copied()) {
            let (a, b) = graph.endpoints(e);
            let degree = (unoriented_deg[a.index()] + unoriented_deg[b.index()]) as usize - 2;
            largest = largest.max(degree);
            if degree <= cutoff {
                continue;
            }
            e_phi_len += 1;
            let (u, v) = if bg.side(a) == Side::U {
                (a, b)
            } else {
                (b, a)
            };
            let target = if x(v) - x(u) <= eta[e.index()] as i64 {
                v
            } else {
                u
            };
            if accepted_count[target.index()] < k_phi {
                accepted_count[target.index()] += 1;
                accepted.push((e, target));
            }
        }
        max_unoriented_degree = largest;
        if e_phi_len == 0 {
            continue;
        }
        phases_run += 1;

        // Step 5, in one pass over the oriented edges in edge order: F'_{<φ}
        // = the edges currently violating the η condition (with the same x
        // values), i.e. x_head − x_tail exceeds η_e (head in V) or −η_e
        // (head in U).
        let oriented = unoriented
            .iter()
            .enumerate()
            .map(|(i, &word)| !word & word_mask(graph.m(), i));
        let violating: Vec<EdgeId> = set_edges(oriented)
            .filter(|&e| {
                let head = orientation.head(e).expect("the edge is oriented");
                let tail = graph.other_endpoint(e, head);
                let he = eta[e.index()];
                let bound = if bg.side(head) == Side::V { he } else { -he };
                (x(head) - x(tail)) as f64 > bound
            })
            .collect();

        // Step 4: newly accepted edges get oriented towards the acceptor.
        for &(e, head) in &accepted {
            orientation.orient(graph, e, head);
            unoriented[e.index() / 64] &= !(1 << (e.index() % 64));
            let (a, b) = graph.endpoints(e);
            unoriented_deg[a.index()] -= 1;
            unoriented_deg[b.index()] -= 1;
        }
        unoriented_left -= accepted.len();

        // Step 6: one token dropping game on the violating edges. The game
        // arc of an edge points *against* the current orientation (from the
        // edge's head to its tail); moving a token over the arc corresponds
        // to flipping the edge. The game is played on its players only — the
        // endpoints of violating edges and the nodes holding tokens — with
        // player ids in host order, so every id tie-break is unchanged; any
        // other node has no arcs and no tokens and never acts. An inert game
        // (it runs no phase, or no acceptor starts active) moves nothing and
        // charges nothing, so it is not built.
        let mut game_rounds = 0u64;
        let delta_phi = params.delta_phi(phi, dbar);
        let alpha = |w: NodeId| {
            let d = d_minus[w.index()];
            params
                .alpha(if d == usize::MAX { 0 } else { d }, dbar)
                .max(delta_phi)
        };
        let live = !violating.is_empty()
            && k_phi / delta_phi >= 2
            && accepted
                .iter()
                .any(|&(_, w)| accepted_count[w.index()] >= alpha(w) + delta_phi);
        if live {
            let mut mark = |w: NodeId| is_player[w.index() / 64] |= 1 << (w.index() % 64);
            for &(_, w) in &accepted {
                mark(w);
            }
            for &e in &violating {
                let (a, b) = graph.endpoints(e);
                mark(a);
                mark(b);
            }
            // Draining the bitset word by word lists the players in host
            // order and leaves it clear for the next game.
            let mut players: Vec<NodeId> = Vec::new();
            for (i, word) in is_player.iter_mut().enumerate() {
                while *word != 0 {
                    let w = NodeId::new(64 * i + word.trailing_zeros() as usize);
                    player_id[w.index()] = players.len();
                    players.push(w);
                    *word &= *word - 1;
                }
            }
            let arcs: Vec<(NodeId, NodeId)> = violating
                .iter()
                .map(|&e| {
                    let head = orientation.head(e).expect("violating edges are oriented");
                    let tail = graph.other_endpoint(e, head);
                    (
                        NodeId::new(player_id[head.index()]),
                        NodeId::new(player_id[tail.index()]),
                    )
                })
                .collect();
            let initial_tokens: Vec<usize> =
                players.iter().map(|w| accepted_count[w.index()]).collect();
            let game = TokenGame::new(players.len(), arcs, k_phi, initial_tokens);
            let tg_params = TokenGameParams {
                alpha: players.iter().map(|&w| alpha(w)).collect(),
                delta: delta_phi,
            };
            let result = solve_distributed(&game, &tg_params);
            game_rounds = result.rounds;
            // Step 7: flip every edge over which a token moved.
            for (i, &e) in violating.iter().enumerate() {
                if result.moved[i] {
                    orientation.flip(graph, e);
                }
            }
            // Bandwidth: each game round moves one counter per participating
            // edge in the worst case.
            net.charge_messages(result.rounds * violating.len() as u64, message_bits);
        }

        // Carry the phase state over to the next phase: the accepted edges
        // now count towards d⁻ at both ends.
        for &(e, head) in &accepted {
            accepted_count[head.index()] = 0;
            let (a, b) = graph.endpoints(e);
            let deg_e = graph.edge_degree(e);
            d_minus[a.index()] = d_minus[a.index()].min(deg_e);
            d_minus[b.index()] = d_minus[b.index()].min(deg_e);
        }

        // Round accounting for the phase: one round to exchange x values, one
        // for the proposals, one for the acceptances, plus the game.
        net.charge_rounds(3 + game_rounds);
        net.charge_messages(2 * e_phi_len as u64 + graph.m() as u64, message_bits);
        total_game_rounds += game_rounds;
        total_violating += violating.len();
    }

    // Any edge still unoriented after the phases has only O(1) unoriented
    // neighbors (Lemma 5.4); orient it arbitrarily (towards its V endpoint).
    if unoriented_left > 0 {
        for e in set_edges(unoriented.iter().copied()) {
            let (_, v) = bg.endpoints_uv(e);
            orientation.orient(graph, e, v);
        }
        net.charge_rounds(1);
        net.charge_messages(unoriented_left as u64, message_bits);
    }

    let eps = 8.0 * nu;
    let beta = params.beta_bound(dbar);
    net.record_ledger(LedgerEntry {
        depth: 0,
        stage: "orientation",
        delta_level: dbar,
        edges: graph.m(),
        rounds: net.rounds() - rounds_before,
        defect_ratio: phases_run as f64,
        fallback: false,
    });
    if total_game_rounds > 0 {
        net.record_ledger(LedgerEntry {
            depth: 0,
            stage: "orient-game",
            delta_level: dbar,
            edges: total_violating,
            rounds: total_game_rounds,
            defect_ratio: f64::NAN,
            fallback: false,
        });
    }

    BalancedOrientationResult {
        orientation,
        eps,
        beta,
        phases: phases_run,
        rounds: net.rounds() - rounds_before,
    }
}

/// The edges of a bitset over edge ids (bit `e % 64` of word `e / 64`), in
/// increasing order.
fn set_edges(words: impl Iterator<Item = u64>) -> impl Iterator<Item = EdgeId> {
    let mut words = words.enumerate();
    let (mut base, mut word) = (0, 0u64);
    std::iter::from_fn(move || {
        while word == 0 {
            let (i, next) = words.next()?;
            (base, word) = (64 * i, next);
        }
        let e = EdgeId::new(base + word.trailing_zeros() as usize);
        word &= word - 1;
        Some(e)
    })
}

/// The bits of word `i` of an `m`-bit set that stand for edges: all of
/// them except in the last, partial word.
fn word_mask(m: usize, i: usize) -> u64 {
    match m - 64 * i {
        r if r >= 64 => u64::MAX,
        r => (1 << r) - 1,
    }
}

/// Computes the smallest additive `β` for which the produced orientation
/// satisfies Definition 5.2 with the given `ε`, i.e.
/// `max_e (±(x_head − x_tail) − η_e − (1+ε)/2 · deg(e))` clamped at 0: the
/// additive slack an orientation actually needs, which for the paper profile
/// is at most [`BalancedOrientationResult::beta`]. The coloring path never
/// reads it; experiments and tests measure it.
pub fn measure_required_beta(
    bg: &BipartiteGraph,
    orientation: &Orientation,
    eta: &[f64],
    eps: f64,
) -> f64 {
    let graph = bg.graph();
    let mut worst: f64 = 0.0;
    for e in graph.edges() {
        let Some(head) = orientation.head(e) else {
            continue;
        };
        let (u, v) = bg.endpoints_uv(e);
        let xu = orientation.indegree(u) as f64;
        let xv = orientation.indegree(v) as f64;
        let base = (1.0 + eps) / 2.0 * graph.edge_degree(e) as f64;
        let needed = if head == v {
            (xv - xu) - eta[e.index()] - base
        } else {
            (xu - xv) + eta[e.index()] - base
        };
        worst = worst.max(needed);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{OrientationParams, ParamProfile};
    use distgraph::generators;
    use distsim::Model;
    use edgecolor_verify::check_balanced_orientation;

    fn run(
        bg: &BipartiteGraph,
        eps: f64,
        profile: ParamProfile,
    ) -> (BalancedOrientationResult, u64) {
        let params = OrientationParams::new(eps, profile);
        let graph = bg.graph();
        let eta = vec![0.0; graph.m()];
        let mut net = Network::new(graph, Model::Local);
        let result = compute_balanced_orientation(bg, &eta, &params, &mut net);
        (result, net.rounds())
    }

    #[test]
    fn every_edge_gets_oriented() {
        let bg = generators::regular_bipartite(16, 6, 1).unwrap();
        let (result, _) = run(&bg, 0.5, ParamProfile::Practical);
        assert_eq!(result.orientation.oriented_count(), bg.graph().m());
        assert!(result.orientation.check_consistency(bg.graph()));
    }

    #[test]
    fn regular_graph_orientation_is_balanced_with_zero_eta() {
        // On a Δ-regular bipartite graph with η = 0 a perfectly balanced
        // orientation has |x_v − x_u| small; the guarantee of Theorem 5.6
        // allows slack (1+ε)/2·deg(e) + β, which the checker validates.
        let bg = generators::regular_bipartite(32, 8, 7).unwrap();
        let (result, _) = run(&bg, 0.5, ParamProfile::Practical);
        let report = check_balanced_orientation(
            &bg,
            &result.orientation,
            |_| 0.0,
            result.eps,
            result.beta,
            true,
        );
        report.assert_ok();
    }

    #[test]
    fn paper_profile_also_satisfies_its_bound() {
        let bg = generators::regular_bipartite(24, 6, 3).unwrap();
        let (result, _) = run(&bg, 1.0, ParamProfile::Paper);
        let report = check_balanced_orientation(
            &bg,
            &result.orientation,
            |_| 0.0,
            result.eps,
            result.beta,
            true,
        );
        report.assert_ok();
        // The paper-profile β at this scale is enormous; the measured slack
        // must be far smaller.
        let eta = vec![0.0; bg.graph().m()];
        assert!(measure_required_beta(&bg, &result.orientation, &eta, result.eps) <= result.beta);
    }

    #[test]
    fn measured_beta_is_reasonable_on_regular_graphs() {
        let bg = generators::regular_bipartite(64, 16, 5).unwrap();
        let (result, _) = run(&bg, 0.5, ParamProfile::Practical);
        // On a regular graph with η = 0 the imbalance should stay well below
        // the edge degree (2·16 − 2 = 30).
        let eta = vec![0.0; bg.graph().m()];
        let measured = measure_required_beta(&bg, &result.orientation, &eta, result.eps);
        assert!(
            measured <= bg.graph().max_edge_degree() as f64,
            "measured beta {measured} too large"
        );
    }

    #[test]
    fn rounds_are_charged_to_the_network() {
        let bg = generators::regular_bipartite(16, 4, 2).unwrap();
        let (result, rounds) = run(&bg, 0.5, ParamProfile::Practical);
        assert!(rounds > 0);
        assert_eq!(result.rounds, rounds);
        assert!(result.phases >= 1);
    }

    #[test]
    fn irregular_bipartite_graphs_are_handled() {
        let bg = generators::random_bipartite(30, 30, 0.3, 11);
        if bg.graph().m() == 0 {
            return;
        }
        let params = OrientationParams::new(0.5, ParamProfile::Practical);
        let graph = bg.graph();
        // Use η values corresponding to λ = 1/2 and β = the profile bound.
        let beta = params.beta_bound(graph.max_edge_degree().max(1));
        let eta: Vec<f64> = graph
            .edges()
            .map(|e| {
                let (u, v) = bg.endpoints_uv(e);
                eta_for_lambda(
                    graph.degree(u),
                    graph.degree(v),
                    graph.edge_degree(e),
                    0.5,
                    params.eps,
                    beta,
                )
            })
            .collect();
        let mut net = Network::new(graph, Model::Local);
        let result = compute_balanced_orientation(&bg, &eta, &params, &mut net);
        assert_eq!(result.orientation.oriented_count(), graph.m());
        let report = check_balanced_orientation(
            &bg,
            &result.orientation,
            |e| eta[e.index()],
            result.eps,
            result.beta,
            true,
        );
        report.assert_ok();
    }

    #[test]
    fn eta_formula_is_zero_for_symmetric_regular_case() {
        // λ = 1/2 on a Δ-regular graph: Equation (3) reduces to 0.
        let value = eta_for_lambda(8, 8, 14, 0.5, 0.3, 100.0);
        assert!(value.abs() < 1e-9);
        // λ = 1 pushes the threshold up by deg(v) + β-ish amounts.
        let red_heavy = eta_for_lambda(8, 8, 14, 1.0, 0.0, 10.0);
        assert!(red_heavy > 0.0);
        // λ = 0 is the mirror image.
        let blue_heavy = eta_for_lambda(8, 8, 14, 0.0, 0.0, 10.0);
        assert!(
            (red_heavy + blue_heavy - 2.0 * (1.0 - 2.0 * 0.5)).abs() < 1e-9 || blue_heavy < 0.0
        );
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = distgraph::Graph::from_edges(4, &[]).unwrap();
        let bg = BipartiteGraph::from_graph(g).unwrap();
        let params = OrientationParams::new(0.5, ParamProfile::Practical);
        let mut net = Network::new(bg.graph(), Model::Local);
        let result = compute_balanced_orientation(&bg, &[], &params, &mut net);
        assert_eq!(result.orientation.oriented_count(), 0);
        assert_eq!(
            measure_required_beta(&bg, &result.orientation, &[], result.eps),
            0.0
        );
    }
}
