//! The generalized token dropping game (Section 4 of the paper).
//!
//! The game is played on a directed graph. Every node starts with at most `k`
//! tokens, every arc is initially *active*, and a token may move over an
//! active arc `(u, v)` if `u` has a token and `v` has fewer than `k` tokens;
//! the arc then becomes passive. The game ends in a state where every node
//! has at most `k` tokens and every still-active arc `(u, v)` satisfies
//! `τ(u) ≤ τ(v) + σ(u, v)` for the tolerated slack `σ`.
//!
//! Two solvers are provided:
//!
//! * [`solve_sequential`] — the simple sequential reference: repeatedly move a
//!   token over an arc that still violates the slack condition. It is used to
//!   validate the distributed solver and in tests.
//! * [`solve_distributed`] — the distributed algorithm of Section 4.1 with
//!   parameters `δ` and per-node `α_v`. It runs `⌊k/δ⌋ − 1` phases of `O(1)`
//!   rounds each and guarantees the bound of Theorem 4.3 on every active arc.

use distgraph::NodeId;

/// Index of an arc of a [`TokenGame`].
pub type ArcId = usize;

/// A generalized token dropping game instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenGame {
    /// Number of nodes (nodes are `0..n`, reusing the host graph's ids).
    pub n: usize,
    /// Directed arcs `(tail, head)`: a token can move from the tail to the head.
    pub arcs: Vec<(NodeId, NodeId)>,
    /// The per-node token capacity `k ≥ 1`.
    pub k: usize,
    /// Initial number of tokens per node (each at most `k`).
    pub initial_tokens: Vec<usize>,
}

/// Per-node parameters of the distributed solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenGameParams {
    /// Per-node slack-control values `α_v ≥ δ ≥ 1`.
    pub alpha: Vec<usize>,
    /// Phase granularity `δ ≥ 1`: each phase converts `δ` active tokens of
    /// every active node into passive tokens.
    pub delta: usize,
}

/// The outcome of playing the game.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenGameResult {
    /// Final number of tokens per node.
    pub tokens: Vec<usize>,
    /// For each arc, whether a token was moved over it (it is then passive).
    pub moved: Vec<bool>,
    /// Number of phases executed (distributed solver) or moves performed
    /// (sequential solver).
    pub phases: u64,
    /// Number of synchronous communication rounds charged
    /// (3 per phase for the distributed solver, see Section 4.1).
    pub rounds: u64,
}

impl TokenGame {
    /// Creates a game instance, checking basic well-formedness.
    ///
    /// # Panics
    ///
    /// Panics if an arc endpoint is out of range, a node starts with more than
    /// `k` tokens, or `k = 0` while some node has a token.
    pub fn new(
        n: usize,
        arcs: Vec<(NodeId, NodeId)>,
        k: usize,
        initial_tokens: Vec<usize>,
    ) -> Self {
        assert_eq!(initial_tokens.len(), n, "one initial token count per node");
        for &(u, v) in &arcs {
            assert!(u.index() < n && v.index() < n, "arc endpoint out of range");
            assert_ne!(u, v, "self-loop arcs are not allowed");
        }
        for (v, &t) in initial_tokens.iter().enumerate() {
            assert!(
                t <= k,
                "node {v} starts with {t} tokens, above the capacity k = {k}"
            );
        }
        TokenGame {
            n,
            arcs,
            k,
            initial_tokens,
        }
    }

    /// Number of arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// The total number of tokens in the instance (invariant under play).
    pub fn total_tokens(&self) -> usize {
        self.initial_tokens.iter().sum()
    }

    /// The degree of a node in the *undirected version* of the game graph
    /// (the paper's `deg_G(v)` in Section 4.1).
    pub fn degree(&self, v: NodeId) -> usize {
        self.arcs.iter().filter(|(a, b)| *a == v || *b == v).count()
    }
}

/// The slack bound of Theorem 4.3 for an arc `(u, v)`:
///
/// `τ(u) − τ(v) ≤ 2(α_u + α_v) + (deg(u)·deg(v)/(α_u·α_v) + deg(u)/α_u + deg(v)/α_v) · δ`.
pub fn theorem_4_3_bound(game: &TokenGame, params: &TokenGameParams, u: NodeId, v: NodeId) -> f64 {
    let du = game.degree(u) as f64;
    let dv = game.degree(v) as f64;
    let au = params.alpha[u.index()] as f64;
    let av = params.alpha[v.index()] as f64;
    let delta = params.delta as f64;
    2.0 * (au + av) + (du * dv / (au * av) + du / au + dv / av) * delta
}

/// Plays the game sequentially: repeatedly picks an active arc `(u, v)` with
/// `τ(u) ≥ 1`, `τ(v) < k` and `τ(u) > τ(v) + σ(u, v)` and moves one token.
///
/// Terminates after at most `|arcs|` moves with a state in which every active
/// arc satisfies the slack condition `τ(u) ≤ τ(v) + σ(u, v)`.
pub fn solve_sequential(
    game: &TokenGame,
    sigma: impl Fn(NodeId, NodeId) -> f64,
) -> TokenGameResult {
    let mut tokens = game.initial_tokens.clone();
    let mut moved = vec![false; game.num_arcs()];
    let mut total_moves = 0u64;
    loop {
        let mut progressed = false;
        for (i, &(u, v)) in game.arcs.iter().enumerate() {
            if moved[i] {
                continue;
            }
            let tu = tokens[u.index()];
            let tv = tokens[v.index()];
            if tu >= 1 && tv < game.k && (tu as f64) > tv as f64 + sigma(u, v) {
                tokens[u.index()] -= 1;
                tokens[v.index()] += 1;
                moved[i] = true;
                total_moves += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    TokenGameResult {
        tokens,
        moved,
        phases: total_moves,
        rounds: 0,
    }
}

/// The game digraph's in-arcs as one flat CSR table, with the proposal
/// priority of every node.
struct InArcs {
    /// The arcs into `v` are `arcs[start[v]..start[v + 1]]`.
    start: Vec<usize>,
    /// `(arc, tail)` pairs grouped by head, in arc order within a head.
    arcs: Vec<(ArcId, NodeId)>,
    /// The proposal priority `deg(w)/α_w` of every node (smaller first).
    ratio: Vec<f64>,
}

impl InArcs {
    fn new(game: &TokenGame, params: &TokenGameParams) -> Self {
        let n = game.n;
        let mut degree: Vec<usize> = vec![0; n];
        let mut start: Vec<usize> = vec![0; n + 1];
        for &(tail, head) in &game.arcs {
            degree[tail.index()] += 1;
            degree[head.index()] += 1;
            start[head.index() + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut arcs: Vec<(ArcId, NodeId)> = vec![(0, NodeId::new(0)); game.num_arcs()];
        let mut cursor = start.clone();
        for (i, &(tail, head)) in game.arcs.iter().enumerate() {
            arcs[cursor[head.index()]] = (i, tail);
            cursor[head.index()] += 1;
        }
        let ratio = (0..n)
            .map(|w| degree[w] as f64 / params.alpha[w] as f64)
            .collect();
        InArcs { start, arcs, ratio }
    }

    /// The `(arc, tail)` pairs of the arcs into `v`, in arc order.
    fn arcs_into(&self, v: usize) -> &[(ArcId, NodeId)] {
        &self.arcs[self.start[v]..self.start[v + 1]]
    }
}

/// Runs the distributed algorithm of Section 4.1 sequentially.
///
/// Each of the `⌊k/δ⌋ − 1` phases costs three communication rounds (state
/// announcement, proposals, token transfers); the returned
/// [`TokenGameResult::rounds`] accounts them so callers can charge the
/// enclosing [`distsim::Network`].
///
/// # Panics
///
/// Panics if `params.alpha` has the wrong length or `δ = 0`.
pub fn solve_distributed(game: &TokenGame, params: &TokenGameParams) -> TokenGameResult {
    assert_eq!(params.alpha.len(), game.n, "one alpha per node");
    assert!(params.delta >= 1, "delta must be at least 1");
    let delta = params.delta;
    let k = game.k;
    let n = game.n;

    // Active (x) and passive (y) token counts, Section 4.1 notation.
    let mut x: Vec<usize> = game.initial_tokens.clone();
    let mut y: Vec<usize> = vec![0; n];
    let mut arc_active: Vec<bool> = vec![true; game.num_arcs()];
    let mut moved: Vec<bool> = vec![false; game.num_arcs()];

    let total_phases = (k / delta).saturating_sub(1) as u64;
    let mut phases_run = 0u64;
    let mut active: Vec<bool> = vec![false; n];
    let mut senders: Vec<(ArcId, NodeId)> = Vec::new();
    let mut proposals: Vec<(NodeId, ArcId)> = Vec::new();
    let mut received: Vec<usize> = vec![0; n];
    let mut sent: Vec<usize> = vec![0; n];
    // Built by the first phase that has an active node, so a game that is
    // inert from the start costs only its activity test.
    let mut in_arcs: Option<InArcs> = None;

    for t in 1..=total_phases {
        // Step 1: active nodes A(t).
        for v in 0..n {
            active[v] = x[v] >= params.alpha[v] + delta;
        }
        // Once no node is active the play has reached a fixpoint: conversions
        // happen only at active nodes and proposals go only to active
        // in-neighbors, so every remaining phase would leave the state
        // untouched. Halting here produces the exact same outcome without
        // charging rounds for provably inert phases.
        if !active.contains(&true) {
            break;
        }
        phases_run += 1;
        let in_arcs = in_arcs.get_or_insert_with(|| InArcs::new(game, params));
        // Step 2: move δ tokens from active to passive at active nodes
        // (x now holds the paper's x').
        for v in 0..n {
            if active[v] {
                x[v] -= delta;
                y[v] += delta;
            }
        }
        // Step 3 + 4: every node v with spare capacity sends proposals to the
        // active in-neighbors over still-active arcs, preferring in-neighbors
        // with the smallest deg(w)/α_w ratio (ties: smaller node id).
        let t_delta = t as usize * delta;
        proposals.clear();
        for (v, &xv) in x.iter().enumerate() {
            let capacity_bound = k as i64 - t_delta as i64 - params.alpha[v] as i64;
            if (xv as i64) > capacity_bound {
                continue;
            }
            senders.clear();
            senders.extend(
                in_arcs
                    .arcs_into(v)
                    .iter()
                    .filter(|(arc, w)| arc_active[*arc] && active[w.index()]),
            );
            let ratio = &in_arcs.ratio;
            senders.sort_by(|(_, a), (_, b)| {
                ratio[a.index()]
                    .partial_cmp(&ratio[b.index()])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(b))
            });
            let budget = (k as i64 - t_delta as i64 - xv as i64).max(0) as usize;
            proposals.extend(senders.iter().take(budget).map(|&(arc, w)| (w, arc)));
        }
        // Step 5: each proposed-to node w accepts q_w = min(p_w, x'_w)
        // proposals (deterministically the smallest arc ids) and sends a
        // token over those arcs.
        proposals.sort_unstable();
        for group in proposals.chunk_by(|a, b| a.0 == b.0) {
            let w = group[0].0.index();
            for &(_, arc) in group.iter().take(x[w]) {
                arc_active[arc] = false;
                moved[arc] = true;
                received[game.arcs[arc].1.index()] += 1;
                sent[w] += 1;
            }
        }
        // Step 6: update active token counts.
        for v in 0..n {
            x[v] = x[v] + received[v] - sent[v];
            received[v] = 0;
            sent[v] = 0;
        }
    }

    let tokens: Vec<usize> = (0..n).map(|v| x[v] + y[v]).collect();
    TokenGameResult {
        tokens,
        moved,
        phases: phases_run,
        rounds: 3 * phases_run,
    }
}

/// Checks the fundamental invariants of a play of the game:
/// token conservation, per-node capacity, and at most one move per arc.
pub fn check_invariants(game: &TokenGame, result: &TokenGameResult) -> bool {
    let conserved = result.tokens.iter().sum::<usize>() == game.total_tokens();
    let capacity = result.tokens.iter().all(|&t| t <= game.k);
    let arcs_ok = result.moved.len() == game.num_arcs();
    conserved && capacity && arcs_ok
}

/// Checks that every arc over which no token moved satisfies the bound of
/// Theorem 4.3; returns the list of violating arcs (empty = all good).
pub fn check_theorem_4_3(
    game: &TokenGame,
    params: &TokenGameParams,
    result: &TokenGameResult,
) -> Vec<ArcId> {
    let mut violations = Vec::new();
    for (i, &(u, v)) in game.arcs.iter().enumerate() {
        if result.moved[i] {
            continue;
        }
        let tu = result.tokens[u.index()] as f64;
        let tv = result.tokens[v.index()] as f64;
        if tu - tv > theorem_4_3_bound(game, params, u, v) + 1e-9 {
            violations.push(i);
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn node(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// A layered "waterfall" instance: tokens at the top layer, arcs pointing
    /// downwards, exactly the original token dropping setting of [14].
    fn layered_game(layers: usize, width: usize, k: usize) -> TokenGame {
        let n = layers * width;
        let mut arcs = Vec::new();
        for l in 0..layers - 1 {
            for a in 0..width {
                for b in 0..width {
                    arcs.push((node(l * width + a), node((l + 1) * width + b)));
                }
            }
        }
        let mut tokens = vec![0usize; n];
        tokens[..width].fill(k);
        TokenGame::new(n, arcs, k, tokens)
    }

    fn uniform_params(game: &TokenGame, alpha: usize, delta: usize) -> TokenGameParams {
        TokenGameParams {
            alpha: vec![alpha; game.n],
            delta,
        }
    }

    #[test]
    fn game_construction_validates() {
        let game = TokenGame::new(3, vec![(node(0), node(1))], 2, vec![2, 0, 1]);
        assert_eq!(game.num_arcs(), 1);
        assert_eq!(game.total_tokens(), 3);
        assert_eq!(game.degree(node(0)), 1);
        assert_eq!(game.degree(node(2)), 0);
    }

    #[test]
    #[should_panic(expected = "above the capacity")]
    fn too_many_initial_tokens_panics() {
        TokenGame::new(2, vec![], 1, vec![2, 0]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_arc_panics() {
        TokenGame::new(2, vec![(node(1), node(1))], 1, vec![0, 0]);
    }

    #[test]
    fn sequential_solver_reaches_stability() {
        let game = layered_game(4, 3, 2);
        let result = solve_sequential(&game, |_, _| 0.0);
        assert!(check_invariants(&game, &result));
        // stability: every active arc (u,v) has τ(u) ≤ τ(v) or τ(v) = k or τ(u) = 0
        for (i, &(u, v)) in game.arcs.iter().enumerate() {
            if !result.moved[i] {
                let tu = result.tokens[u.index()];
                let tv = result.tokens[v.index()];
                assert!(tu == 0 || tv == game.k || tu <= tv);
            }
        }
    }

    #[test]
    fn sequential_solver_respects_slack() {
        let game = layered_game(3, 4, 8);
        let sigma = 3.0;
        let result = solve_sequential(&game, |_, _| sigma);
        assert!(check_invariants(&game, &result));
        for (i, &(u, v)) in game.arcs.iter().enumerate() {
            if !result.moved[i] {
                let tu = result.tokens[u.index()] as f64;
                let tv = result.tokens[v.index()] as f64;
                assert!(tu == 0.0 || tv == game.k as f64 || tu <= tv + sigma);
            }
        }
    }

    #[test]
    fn distributed_solver_phase_count_matches_k_over_delta() {
        let game = layered_game(4, 4, 32);
        let params = uniform_params(&game, 2, 2);
        let result = solve_distributed(&game, &params);
        // The schedule is k/δ − 1 phases; the solver may halt earlier once no
        // node is active (the play is then at a fixpoint and every remaining
        // phase would be a no-op), so the scheduled count is an upper bound.
        assert!(result.phases <= (32 / 2 - 1) as u64);
        assert!(result.phases > 0);
        assert_eq!(result.rounds, 3 * result.phases);
        assert!(check_invariants(&game, &result));
    }

    #[test]
    fn distributed_solver_satisfies_theorem_4_3_on_layered_games() {
        for (layers, width, k, delta) in [(3, 3, 8, 1), (4, 5, 16, 2), (5, 4, 64, 4)] {
            let game = layered_game(layers, width, k);
            let params = uniform_params(&game, delta.max(1), delta);
            let result = solve_distributed(&game, &params);
            assert!(check_invariants(&game, &result), "invariants violated");
            let violations = check_theorem_4_3(&game, &params, &result);
            assert!(
                violations.is_empty(),
                "Theorem 4.3 violated on {} arcs for layers={layers} width={width}",
                violations.len()
            );
        }
    }

    #[test]
    fn distributed_solver_on_random_digraphs_with_cycles() {
        // The generalization of the paper explicitly allows general directed
        // graphs (with cycles); check Theorem 4.3 holds there as well.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for trial in 0..10 {
            let n = 30;
            let k = 16;
            let mut arcs = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.08) {
                        arcs.push((node(u), node(v)));
                    }
                }
            }
            let tokens: Vec<usize> = (0..n).map(|_| rng.gen_range(0..=k)).collect();
            let game = TokenGame::new(n, arcs, k, tokens);
            let delta = 1 + trial % 3;
            let params = uniform_params(&game, delta + 1, delta);
            let result = solve_distributed(&game, &params);
            assert!(
                check_invariants(&game, &result),
                "invariants violated in trial {trial}"
            );
            let violations = check_theorem_4_3(&game, &params, &result);
            assert!(
                violations.is_empty(),
                "Theorem 4.3 violated in trial {trial}"
            );
        }
    }

    #[test]
    fn tokens_flow_downhill_in_simple_chain() {
        // 0 -> 1 -> 2, k = 1, one token at node 0: it should be able to reach
        // an empty node; after the game no active arc may have a large
        // imbalance.
        let game = TokenGame::new(
            3,
            vec![(node(0), node(1)), (node(1), node(2))],
            1,
            vec![1, 0, 0],
        );
        let params = uniform_params(&game, 1, 1);
        // k/δ − 1 = 0 phases: the distributed solver is allowed to do nothing
        // because with k = 1 and δ = 1 the bound of Theorem 4.3 is ≥ k anyway.
        let result = solve_distributed(&game, &params);
        assert!(check_invariants(&game, &result));
        assert!(check_theorem_4_3(&game, &params, &result).is_empty());
        // The sequential solver with zero slack does move the token.
        let seq = solve_sequential(&game, |_, _| 0.0);
        assert_eq!(seq.tokens, vec![0, 0, 1]);
        assert_eq!(seq.phases, 2);
    }

    #[test]
    fn no_arcs_means_nothing_happens() {
        let game = TokenGame::new(4, vec![], 3, vec![3, 1, 0, 2]);
        let params = uniform_params(&game, 1, 1);
        let result = solve_distributed(&game, &params);
        assert_eq!(result.tokens, vec![3, 1, 0, 2]);
        assert!(result.moved.is_empty());
        assert!(check_invariants(&game, &result));
    }

    #[test]
    fn isolated_zero_token_nodes_never_act() {
        // A node with no arcs and no tokens has x = 0 < α + δ, so it is never
        // active, never proposes (it has no in-arcs) and is never proposed
        // to. Interleaving such pads between the nodes of a game (keeping the
        // real nodes in the same relative order, so every id tie-break is
        // unchanged) must leave the play exactly as it was.
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut moves = 0;
        for trial in 0..8 {
            let n = 30;
            let k = 16;
            let mut arcs = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.2) {
                        arcs.push((node(u), node(v)));
                    }
                }
            }
            let tokens: Vec<usize> = (0..n).map(|_| rng.gen_range(0..=k)).collect();
            let delta = 1 + trial % 3;
            let alpha: Vec<usize> = (0..n).map(|_| rng.gen_range(delta..=delta + 3)).collect();
            let game = TokenGame::new(n, arcs.clone(), k, tokens.clone());
            let params = TokenGameParams {
                alpha: alpha.clone(),
                delta,
            };
            let reference = solve_distributed(&game, &params);

            // Padded instance: a random run of pads before every real node
            // and after the last one.
            let mut position = Vec::with_capacity(n);
            let (mut padded_tokens, mut padded_alpha) = (Vec::new(), Vec::new());
            for v in 0..=n {
                for _ in 0..rng.gen_range(0..3) {
                    padded_tokens.push(0);
                    padded_alpha.push(rng.gen_range(delta..=delta + 3));
                }
                if v < n {
                    position.push(padded_tokens.len());
                    padded_tokens.push(tokens[v]);
                    padded_alpha.push(alpha[v]);
                }
            }
            let padded_arcs = arcs
                .iter()
                .map(|&(a, b)| (node(position[a.index()]), node(position[b.index()])))
                .collect();
            let padded = TokenGame::new(padded_tokens.len(), padded_arcs, k, padded_tokens);
            let padded_params = TokenGameParams {
                alpha: padded_alpha,
                delta,
            };
            let result = solve_distributed(&padded, &padded_params);

            moves += reference.moved.iter().filter(|&&m| m).count();
            assert_eq!(result.moved, reference.moved, "trial {trial}");
            assert_eq!(result.phases, reference.phases, "trial {trial}");
            assert_eq!(result.rounds, reference.rounds, "trial {trial}");
            for (w, &t) in result.tokens.iter().enumerate() {
                match position.iter().position(|&p| p == w) {
                    Some(v) => assert_eq!(t, reference.tokens[v], "trial {trial}"),
                    None => assert_eq!(t, 0, "trial {trial}: pad {w} holds tokens"),
                }
            }
        }
        assert!(moves > 0, "the games must move tokens to test anything");
    }

    #[test]
    fn capacity_is_never_exceeded_during_play() {
        // Many arcs into a single sink with tiny capacity.
        let width = 10;
        let mut arcs = Vec::new();
        for i in 0..width {
            arcs.push((node(i), node(width)));
        }
        let k = 4;
        let mut tokens = vec![k; width];
        tokens.push(0);
        let game = TokenGame::new(width + 1, arcs, k, tokens);
        let params = uniform_params(&game, 1, 1);
        let result = solve_distributed(&game, &params);
        assert!(check_invariants(&game, &result));
        assert!(result.tokens[width] <= k);
    }
}
