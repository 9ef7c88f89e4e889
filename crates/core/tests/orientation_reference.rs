//! Differential test of the Section 5 phase algorithm against a test-only
//! reference copy of its earlier loop: three passes per phase (the `E_φ`
//! filter over an ascending unoriented list, the violation scan and the
//! `retain` plus max), and a token game built for every phase with a
//! violating edge. The production loop makes one pass per phase and builds
//! no game that would run zero phases; the two must agree on every head,
//! the rounds, the phases, the metrics and the ledger.

use distgraph::{generators, BipartiteGraph, EdgeId, NodeId, Orientation};
use distsim::{bits_for, LedgerEntry, Model, Network};
use edgecolor::balanced_orientation::{
    compute_balanced_orientation, eta_for_lambda, BalancedOrientationResult,
};
use edgecolor::token_dropping::{solve_distributed, TokenGame, TokenGameParams};
use edgecolor::{OrientationParams, ParamProfile};

/// How many token games the reference built that ran zero phases (inert)
/// and how many ran at least one (live).
#[derive(Debug, Default, Clone, Copy)]
struct GameCounts {
    inert: usize,
    live: usize,
}

/// The reference copy of the phase algorithm (see the module docs).
fn reference_orientation(
    bg: &BipartiteGraph,
    eta: &[f64],
    params: &OrientationParams,
    net: &mut Network<'_>,
) -> (BalancedOrientationResult, GameCounts) {
    let graph = bg.graph();
    assert_eq!(eta.len(), graph.m(), "one eta value per edge");

    let mut orientation = Orientation::new(graph);
    let dbar = graph.max_edge_degree().max(1);
    let nu = params.nu;
    let message_bits = bits_for(graph.n().max(dbar) as u64) as u64 + 4;
    let max_phases = params.phase_count(dbar);
    let rounds_before = net.rounds();
    let mut phases_run = 0u32;
    let mut total_game_rounds = 0u64;
    let mut total_violating = 0usize;
    let mut games = GameCounts::default();

    // Phase state carried across phases (see the module docs).
    let mut unoriented: Vec<EdgeId> = graph.edges().collect();
    let mut unoriented_deg: Vec<usize> = graph.nodes().map(|w| graph.degree(w)).collect();
    let mut d_minus = vec![usize::MAX; graph.n()];
    let unoriented_edge_degree = |deg: &[usize], e: EdgeId| {
        let (a, b) = graph.endpoints(e);
        deg[a.index()] + deg[b.index()] - 2
    };
    let mut max_unoriented_degree = graph.max_edge_degree();
    // Scratch for numbering a game's players: a bitset marking them, and
    // the local id of each (meaningful only for the current game's players).
    let mut is_player = vec![0u64; graph.n().div_ceil(64)];
    let mut player_id = vec![0usize; graph.n()];
    let mut accepted_count = vec![0usize; graph.n()];

    for phi in 1..=max_phases {
        if unoriented.is_empty() {
            break;
        }
        let threshold = (1.0 - nu).powi(phi as i32) * dbar as f64;

        // Step 1: E_φ = unoriented edges whose unoriented edge degree exceeds
        // (1 − ν)^φ · Δ̄. A phase with E_φ = ∅ cannot change any state: no
        // proposals means no acceptances, and the repair game's tokens come
        // exclusively from this phase's acceptances, so it starts empty and
        // moves nothing. The phase schedule (threshold, k_φ, δ_φ) depends
        // only on φ, so skipping the phase without charging rounds is
        // semantically exact. E_φ is empty exactly when the largest
        // unoriented edge degree is at most the threshold.
        if max_unoriented_degree as f64 <= threshold {
            continue;
        }
        let e_phi: Vec<EdgeId> = unoriented
            .iter()
            .copied()
            .filter(|&e| unoriented_edge_degree(&unoriented_deg, e) as f64 > threshold)
            .collect();
        phases_run += 1;

        // Steps 2 + 3: every edge in E_φ proposes to one of its endpoints
        // (by the x values of the previous phase, i.e. the live indegrees,
        // which step 4 has not touched yet), and each node accepts at most
        // k_φ proposals, deterministically the ones with the smallest edge
        // identifiers — which a single pass in edge order yields.
        let k_phi = params.k_phi(phi, dbar);
        let mut accepted: Vec<(EdgeId, NodeId)> = Vec::new();
        for &e in &e_phi {
            let (u, v) = bg.endpoints_uv(e);
            let (xu, xv) = (
                orientation.indegree(u) as i64,
                orientation.indegree(v) as i64,
            );
            let target = if xv - xu <= eta[e.index()] as i64 {
                v
            } else {
                u
            };
            if accepted_count[target.index()] < k_phi {
                accepted_count[target.index()] += 1;
                accepted.push((e, target));
            }
        }

        // Step 5: F'_{<φ} = previously oriented edges currently violating the
        // η condition (evaluated with the x values of the previous phase).
        let violating: Vec<EdgeId> = orientation
            .oriented_edges()
            .filter(|&(e, head)| {
                let (u, v) = bg.endpoints_uv(e);
                let (xu, xv) = (
                    orientation.indegree(u) as i64,
                    orientation.indegree(v) as i64,
                );
                let he = eta[e.index()];
                if head == v {
                    (xv - xu) as f64 > he
                } else {
                    (xu - xv) as f64 > -he
                }
            })
            .map(|(e, _)| e)
            .collect();

        // Step 4: newly accepted edges get oriented towards the acceptor.
        for &(e, head) in &accepted {
            orientation.orient(graph, e, head);
            let (a, b) = graph.endpoints(e);
            unoriented_deg[a.index()] -= 1;
            unoriented_deg[b.index()] -= 1;
        }

        // Step 6: one token dropping game on the violating edges. The game
        // arc of an edge points *against* the current orientation (from the
        // edge's head to its tail); moving a token over the arc corresponds
        // to flipping the edge. The game is played on its players only — the
        // endpoints of violating edges and the nodes holding tokens — with
        // player ids in host order, so every id tie-break is unchanged; any
        // other node has no arcs and no tokens and never acts.
        let mut game_rounds = 0u64;
        if !violating.is_empty() && k_phi >= 1 {
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
            let delta_phi = params.delta_phi(phi, dbar);
            let alpha: Vec<usize> = players
                .iter()
                .map(|w| {
                    let d = d_minus[w.index()];
                    params
                        .alpha(if d == usize::MAX { 0 } else { d }, dbar)
                        .max(delta_phi)
                })
                .collect();
            let tg_params = TokenGameParams {
                alpha,
                delta: delta_phi,
            };
            let result = solve_distributed(&game, &tg_params);
            game_rounds = result.rounds;
            if result.phases == 0 {
                games.inert += 1;
            } else {
                games.live += 1;
            }
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
        // leave the unoriented list and now count towards d⁻ at both ends.
        for &(e, head) in &accepted {
            accepted_count[head.index()] = 0;
            let (a, b) = graph.endpoints(e);
            let deg_e = graph.edge_degree(e);
            d_minus[a.index()] = d_minus[a.index()].min(deg_e);
            d_minus[b.index()] = d_minus[b.index()].min(deg_e);
        }
        unoriented.retain(|&e| !orientation.is_oriented(e));
        max_unoriented_degree = unoriented
            .iter()
            .map(|&e| unoriented_edge_degree(&unoriented_deg, e))
            .max()
            .unwrap_or(0);

        // Round accounting for the phase: one round to exchange x values, one
        // for the proposals, one for the acceptances, plus the game.
        net.charge_rounds(3 + game_rounds);
        net.charge_messages(2 * e_phi.len() as u64 + graph.m() as u64, message_bits);
        total_game_rounds += game_rounds;
        total_violating += violating.len();
    }

    // Any edge still unoriented after the phases has only O(1) unoriented
    // neighbors (Lemma 5.4); orient it arbitrarily (towards its V endpoint).
    let leftover = unoriented.len() as u64;
    for e in unoriented {
        let (_, v) = bg.endpoints_uv(e);
        orientation.orient(graph, e, v);
    }
    if leftover > 0 {
        net.charge_rounds(1);
        net.charge_messages(leftover, message_bits);
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

    let result = BalancedOrientationResult {
        orientation,
        eps,
        beta,
        phases: phases_run,
        rounds: net.rounds() - rounds_before,
    };
    (result, games)
}

/// The η values of Lemma 5.3 for `λ_e` drawn per edge from `lambdas`
/// (cycling in edge order, offset by `shift`).
fn eta_of(
    bg: &BipartiteGraph,
    params: &OrientationParams,
    lambdas: &[f64],
    shift: usize,
) -> Vec<f64> {
    let graph = bg.graph();
    let beta = params.beta_bound(graph.max_edge_degree().max(1));
    graph
        .edges()
        .map(|e| {
            let (u, v) = bg.endpoints_uv(e);
            eta_for_lambda(
                graph.degree(u),
                graph.degree(v),
                graph.edge_degree(e),
                lambdas[(e.index() + shift) % lambdas.len()],
                params.eps,
                beta,
            )
        })
        .collect()
}

/// Runs both loops on one instance, asserts they agree and returns the
/// reference's game counts.
fn compare(name: &str, bg: &BipartiteGraph, eta: &[f64], params: &OrientationParams) -> GameCounts {
    let graph = bg.graph();
    let mut net = Network::new(graph, Model::Local);
    let got = compute_balanced_orientation(bg, eta, params, &mut net);
    let mut reference_net = Network::new(graph, Model::Local);
    let (expected, games) = reference_orientation(bg, eta, params, &mut reference_net);
    for e in graph.edges() {
        assert_eq!(
            got.orientation.head(e),
            expected.orientation.head(e),
            "{name}: head of {e}"
        );
    }
    assert_eq!(got.rounds, expected.rounds, "{name}: rounds");
    assert_eq!(got.phases, expected.phases, "{name}: phases");
    assert_eq!(got.eps.to_bits(), expected.eps.to_bits(), "{name}: eps");
    assert_eq!(got.beta.to_bits(), expected.beta.to_bits(), "{name}: beta");
    assert_eq!(net.metrics(), reference_net.metrics(), "{name}: metrics");
    assert_eq!(
        net.take_ledger(),
        reference_net.take_ledger(),
        "{name}: ledger"
    );
    games
}

/// Random and regular bipartite instances under λ ∈ {0.25, 0.5, 0.75}
/// (uniform and mixed per edge), three ε values and both profiles. The
/// battery must contain both inert and live games, so the inert-game
/// shortcut and the game itself are each exercised against the reference.
#[test]
fn one_pass_phases_match_the_reference_loop() {
    let mut instances: Vec<(String, BipartiteGraph)> = Vec::new();
    for seed in 0..6u64 {
        let (a, b, p) = (
            20 + 7 * seed as usize,
            30 + 5 * seed as usize,
            0.15 + 0.05 * seed as f64,
        );
        instances.push((
            format!("random_bipartite({a},{b},{p:.2},{seed})"),
            generators::random_bipartite(a, b, p, seed),
        ));
    }
    for (n, d, seed) in [(24, 6, 1), (40, 12, 2), (64, 16, 3), (48, 24, 4)] {
        instances.push((
            format!("regular_bipartite({n},{d},{seed})"),
            generators::regular_bipartite(n, d, seed).expect("feasible"),
        ));
    }
    let lambda_sets: [&[f64]; 4] = [&[0.25], &[0.5], &[0.75], &[0.25, 0.5, 0.75]];
    let mut total = GameCounts::default();
    for (name, bg) in &instances {
        for profile in [ParamProfile::Practical, ParamProfile::Paper] {
            for eps in [0.25, 0.5, 1.0] {
                let params = OrientationParams::new(eps, profile);
                for (i, lambdas) in lambda_sets.iter().enumerate() {
                    let eta = eta_of(bg, &params, lambdas, i);
                    let label = format!("{name} {profile:?} ε={eps} λ∈{lambdas:?}");
                    let games = compare(&label, bg, &eta, &params);
                    total.inert += games.inert;
                    total.live += games.live;
                }
                // η = 0, the E6 setting.
                let zero = vec![0.0; bg.graph().m()];
                let games = compare(
                    &format!("{name} {profile:?} ε={eps} η=0"),
                    bg,
                    &zero,
                    &params,
                );
                total.inert += games.inert;
                total.live += games.live;
            }
        }
    }
    assert!(total.inert > 0, "no inert game in the battery: {total:?}");
    assert!(total.live > 0, "no live game in the battery: {total:?}");
}
