//! Defective vertex colorings (the substrate imported from \[11\],
//! Barenboim–Elkin–Kuhn, used by Lemma 6.2 and Theorem D.4).
//!
//! A *d-defective c-coloring* assigns one of `c` colors to every node so that
//! each node has at most `d` neighbors of its own color. The paper uses two
//! instances of this substrate:
//!
//! * Lemma 6.2: an `(εΔ + ⌊Δ/2⌋)`-defective **4**-coloring, used to carve the
//!   graph into bipartite pieces for the CONGEST algorithm (Theorem 6.3);
//! * Theorem D.4: a `Δ/2`-defective `O(1)`-coloring, used to carve the graph
//!   into bipartite pieces for the LOCAL list coloring algorithm.
//!
//! Both are built from the same one-round *defective reduction step*: given a
//! (possibly already defective) coloring, every node re-interprets its color
//! as a low-degree polynomial over a prime field and picks the evaluation
//! point minimizing collisions with its neighbors, which adds at most
//! `t·Δ/q ≤ d_step` to its defect while shrinking the palette to `q²`.
//! This greedy choice of evaluation point substitutes for the exact
//! procedure of \[11\]; docs/ROUNDS.md (§"The fix") explains the step
//! budget `d_step` and the descent schedule built on it.
//!
//! A step evaluates every node's polynomial at every point of `F_q` once,
//! into an `n × q` table ([`crate::linial`]'s `poly_table`), and each node
//! counts its collisions one neighbor at a time by comparing that
//! neighbor's row with its own. A message reads its sender's row only when
//! it carries the sender's current color, which always holds without a
//! fault plan. A delayed or duplicated message from an earlier round can
//! carry another color; the step then evaluates the color it received, so
//! the chosen point is the one the per-point evaluation of every received
//! color would pick, with or without faults.

use crate::linial::{eval_poly, next_prime, poly_table};
use distgraph::{Graph, NodeId, VertexColoring};
use distsim::{LedgerEntry, Network};

/// Result of an iterated defective coloring computation.
#[derive(Debug, Clone)]
pub struct DefectiveColoringResult {
    /// The defective coloring.
    pub coloring: VertexColoring,
    /// The palette size of the coloring.
    pub palette: usize,
    /// The analytic bound on the defect accumulated by the reduction steps.
    pub defect_bound: f64,
    /// Rounds charged.
    pub rounds: u64,
}

/// Chooses `(t, q)` for one defective reduction step: the smallest `t ≥ 1`
/// such that `q = nextprime(⌈t·Δ/d⌉ + 1)` satisfies `q^{t+1} ≥ palette`.
fn choose_defective_parameters(palette: u64, max_degree: usize, d_step: usize) -> (u32, u64) {
    let delta = max_degree.max(1) as u64;
    let d = d_step.max(1) as u64;
    for t in 1..=64u32 {
        let base = (t as u64 * delta).div_ceil(d) + 1;
        let q = next_prime(base.max(2));
        let mut power: u128 = 1;
        let mut enough = false;
        for _ in 0..=t {
            power = power.saturating_mul(q as u128);
            if power >= palette as u128 {
                enough = true;
                break;
            }
        }
        if enough {
            return (t, q);
        }
    }
    (64, next_prime(64 * delta.max(2)))
}

/// One defective reduction step (one communication round): shrinks the
/// palette to `q²` while adding at most `t·Δ/q ≤ d_step` to every node's
/// defect.
pub fn defective_step(
    graph: &Graph,
    colors: &[u64],
    palette: u64,
    d_step: usize,
    net: &mut Network<'_>,
) -> (Vec<u64>, u64, f64) {
    let max_degree = graph.max_degree();
    let (t, q) = choose_defective_parameters(palette, max_degree, d_step);
    let new_palette = q * q;
    if new_palette >= palette {
        return (colors.to_vec(), palette, 0.0);
    }
    let mail = net.broadcast(|v| colors[v.index()]);
    let table = poly_table(colors, t, q);
    let width = q as usize;
    let row = |v: usize| &table[v * width..][..width];
    let mut collisions = vec![0u32; width];
    let mut next = vec![0u64; graph.n()];
    for v in graph.nodes() {
        let my_color = colors[v.index()];
        let mine = row(v.index());
        // Count, per evaluation point, the collisions with neighbors of a
        // *different* color (same-colored neighbors collide everywhere and are
        // already accounted in the incoming defect), one neighbor at a time.
        collisions.fill(0);
        for m in mail.inbox(v).iter().filter(|m| m.msg != my_color) {
            if m.msg == colors[m.from.index()] {
                for ((count, &theirs), &own) in
                    collisions.iter_mut().zip(row(m.from.index())).zip(mine)
                {
                    *count += u32::from(theirs == own);
                }
            } else {
                // A faulty round delivered some other color (a delayed or
                // stale message): evaluate what was actually received.
                for ((count, &own), a) in collisions.iter_mut().zip(mine).zip(0u64..) {
                    *count += u32::from(eval_poly(m.msg, t, q, a) == u64::from(own));
                }
            }
        }
        // The first point with the fewest collisions.
        let best = (0..width)
            .min_by_key(|&a| collisions[a])
            .expect("F_q has at least two points");
        next[v.index()] = best as u64 * q + u64::from(mine[best]);
    }
    let added_defect = t as f64 * max_degree as f64 / q as f64;
    (next, new_palette, added_defect)
}

/// Iterates [`defective_step`] until the palette stops shrinking, spreading a
/// total defect budget across the steps.
///
/// Starting from a *proper* coloring with the given palette, the result is a
/// coloring with `O((Δ/defect_budget)²·polylog)` colors whose defect is at
/// most `defect_budget`. The budget is allotted geometrically (half of the
/// remaining budget per step) so that the first, most palette-reducing steps
/// get the most room; when the half-budget step stalls (its `q²` would not
/// shrink the palette), the step is retried once committing the *full*
/// remaining budget, which reaches the `O((Δ/d)²)` fixpoint instead of
/// stopping a constant factor short of it. A stalled probe costs zero rounds
/// ([`defective_step`] bails before communicating), so the retry never
/// charges for the failed attempt.
pub fn iterated_defective_coloring(
    graph: &Graph,
    coloring: &VertexColoring,
    palette: usize,
    defect_budget: f64,
    net: &mut Network<'_>,
) -> DefectiveColoringResult {
    let max_steps = 6u32;
    let mut remaining_budget = defect_budget.max(1.0);
    let mut colors: Vec<u64> = coloring.as_slice().iter().map(|&c| c as u64).collect();
    let mut current_palette = palette.max(coloring.palette_size()).max(1) as u64;
    let mut defect_bound = 0.0;
    let rounds_before = net.rounds();
    if graph.max_degree() == 0 {
        return DefectiveColoringResult {
            coloring: VertexColoring::from_vec(vec![0; graph.n()]),
            palette: 1,
            defect_bound: 0.0,
            rounds: 0,
        };
    }
    for _ in 0..max_steps {
        if remaining_budget < 1.0 {
            break;
        }
        let per_step = (remaining_budget / 2.0).max(1.0);
        let (mut next, mut next_palette, mut added) =
            defective_step(graph, &colors, current_palette, per_step as usize, net);
        if next_palette >= current_palette && remaining_budget >= per_step + 1.0 {
            // The half-budget step stalled; commit the full remaining budget
            // in one step (larger d ⇒ smaller q ⇒ smaller q² target).
            (next, next_palette, added) = defective_step(
                graph,
                &colors,
                current_palette,
                remaining_budget as usize,
                net,
            );
        }
        if next_palette >= current_palette {
            break;
        }
        colors = next;
        current_palette = next_palette;
        defect_bound += added;
        remaining_budget -= added;
    }
    DefectiveColoringResult {
        coloring: VertexColoring::from_vec(colors.iter().map(|&c| c as usize).collect()),
        palette: current_palette as usize,
        defect_bound,
        rounds: net.rounds() - rounds_before,
    }
}

/// A `Δ/2`-defective `O(1)`-coloring from a proper `poly(Δ)`-coloring
/// (the substrate used by Theorem D.4).
pub fn low_defect_constant_coloring(
    graph: &Graph,
    proper: &VertexColoring,
    palette: usize,
    net: &mut Network<'_>,
) -> DefectiveColoringResult {
    let budget = (graph.max_degree() as f64 / 2.0).max(1.0);
    iterated_defective_coloring(graph, proper, palette, budget, net)
}

/// Lemma 6.2: an `(εΔ + ⌊Δ/2⌋)`-defective 4-coloring computed from a proper
/// `O(Δ²)`-coloring in `poly(1/ε) + O(1)` rounds.
///
/// The implementation first shrinks the palette with defect budget `εΔ/2`
/// (the faithful \[11\]-style step) and then folds the classes into 4 groups by
/// a threshold local search processed class-by-class (our substitute for the
/// Refine procedure of \[11\]; docs/ROUNDS.md, §"The fix", explains its mover
/// gating and move threshold). The returned coloring always has
/// palette ≤ 4; the defect bound is verified by the caller/tests via
/// `edgecolor-verify`.
pub fn defective_four_coloring(
    graph: &Graph,
    proper: &VertexColoring,
    palette: usize,
    eps: f64,
    net: &mut Network<'_>,
) -> VertexColoring {
    let n = graph.n();
    if n == 0 {
        return VertexColoring::from_vec(vec![]);
    }
    let delta = graph.max_degree();
    if delta == 0 {
        return VertexColoring::from_vec(vec![0; n]);
    }
    let eps = eps.clamp(1e-3, 1.0);
    // Step 1: descend to an O(1) palette with per-step defect Θ(Δ). The step
    // budget must be Θ(Δ): Steps 2 and 3 below charge one broadcast round
    // per class per pass, so the palette this descent stalls at — roughly
    // (Δ/d_step)² — multiplies directly into the round count. A budget of
    // o(Δ) (the old εΔ/2, split geometrically across steps) stalls at ω(1)
    // classes and makes each outer degree-reduction iteration of Theorem D.4
    // cost ω(polylog Δ) rounds. With d_step = (1+ε)Δ/2 the fixpoint is a
    // Δ-independent constant (q = nextprime(⌈tΔ/d⌉+1) depends only on
    // t/(1+ε)). Unlike `iterated_defective_coloring` this descent does not
    // cap the *accumulated* analytic defect — the final Lemma 6.2 bound is
    // enforced by the threshold local search of Step 3, not by Step 1.
    let d_step = ((1.0 + eps) * delta as f64 / 2.0).max(1.0) as usize;
    let step1_rounds_before = net.rounds();
    let mut colors: Vec<u64> = proper.as_slice().iter().map(|&c| c as u64).collect();
    let mut current_palette = palette.max(proper.palette_size()).max(1) as u64;
    for _ in 0..6 {
        let (next, next_palette, _added) =
            defective_step(graph, &colors, current_palette, d_step, net);
        if next_palette >= current_palette {
            break;
        }
        colors = next;
        current_palette = next_palette;
    }
    let base = DefectiveColoringResult {
        coloring: VertexColoring::from_vec(colors.iter().map(|&c| c as usize).collect()),
        palette: current_palette as usize,
        defect_bound: f64::NAN,
        rounds: net.rounds() - step1_rounds_before,
    };
    let classes = base.palette.max(1);
    net.record_ledger(LedgerEntry {
        depth: 0,
        stage: "d4-reduce",
        delta_level: classes,
        edges: graph.m(),
        rounds: net.rounds() - step1_rounds_before,
        defect_ratio: base.coloring.max_defect(graph) as f64 / delta as f64,
        fallback: false,
    });

    // Step 2: fold the classes into 4 groups, class by class; each node picks
    // the group with the fewest already-assigned neighbors.
    let fold_rounds_before = net.rounds();
    let mut group: Vec<Option<usize>> = vec![None; n];
    for class in 0..classes {
        // One round: nodes of this class learn their neighbors' groups.
        let mail = net.broadcast(|v| group[v.index()].map(|g| g as u64 + 1).unwrap_or(0));
        for v in graph.nodes() {
            if base.coloring.color(v) != class {
                continue;
            }
            let mut counts = [0usize; 4];
            for m in mail.inbox(v) {
                if m.msg > 0 {
                    counts[(m.msg - 1) as usize] += 1;
                }
            }
            let best = (0..4).min_by_key(|&g| counts[g]).unwrap_or(0);
            group[v.index()] = Some(best);
        }
    }
    net.record_ledger(LedgerEntry {
        depth: 0,
        stage: "d4-fold",
        delta_level: classes,
        edges: graph.m(),
        rounds: net.rounds() - fold_rounds_before,
        defect_ratio: f64::NAN,
        fallback: false,
    });

    // Step 3: threshold local-search sweeps. A node is unhappy if it has more
    // than (1/4 + ε)Δ neighbors in its own group; unhappy nodes move to the
    // group with the fewest neighbors. Every node already knows its
    // neighbors' groups from the last broadcast it heard, so a class with no
    // unhappy node can be skipped without a round: only classes that still
    // contain an unhappy node broadcast and move.
    //
    // The target is stronger than the (1/2 + ε)Δ defect promised by
    // Lemma 6.2: a local optimum of the 4-group partition has own-group
    // degree ≤ Δ/4 (moving to the minority group improves any node above
    // that), and the tighter bound is what makes the outer degree-reduction
    // loop contract by a constant factor ≈ 1/4 + ε < 1/2 per iteration
    // instead of plateauing at Δ/2. If the sweep budget runs out before the
    // local search converges the result still satisfies every caller that
    // only relies on the Lemma 6.2 bound, and the driver's stall guard
    // covers the (deterministic) non-contracting case.
    let sweep_rounds_before = net.rounds();
    let threshold = (delta as f64 / 4.0).floor() + eps * delta as f64;
    let sweeps = ((2.0 / eps).ceil() as usize).clamp(1, 8);
    let unhappy_classes = |group: &[Option<usize>]| -> Vec<bool> {
        let mut unhappy = vec![false; classes];
        for v in graph.nodes() {
            let own = group[v.index()].unwrap_or(0);
            let same = graph
                .neighbors(v)
                .iter()
                .filter(|nb| group[nb.node.index()].unwrap_or(0) == own)
                .count();
            if same as f64 > threshold {
                unhappy[base.coloring.color(v)] = true;
            }
        }
        unhappy
    };
    for _sweep in 0..sweeps {
        let mut any_moved = false;
        let unhappy = unhappy_classes(&group);
        if !unhappy.iter().any(|&u| u) {
            break;
        }
        for (class, &class_unhappy) in unhappy.iter().enumerate() {
            if !class_unhappy {
                continue;
            }
            // One broadcast carries (group, unhappy-bit); both are derived
            // from the group state at broadcast time, so neighbors can apply
            // the mover gate below without a second round.
            let mail = net.broadcast(|v| group[v.index()].map(|g| g as u64).unwrap_or(0));
            let snapshot: Vec<usize> = group.iter().map(|g| g.unwrap_or(0)).collect();
            let own_count = |v: NodeId| -> usize {
                let own = snapshot[v.index()];
                mail.inbox(v)
                    .iter()
                    .filter(|m| m.msg as usize == own)
                    .count()
            };
            // The merged base classes can have intra-class defect close to Δ,
            // so simultaneous best-response moves of a whole class oscillate
            // (two adjacent unhappy nodes keep jumping into each other's
            // group) and the sweep can exhaust its budget without reaching
            // the Lemma 6.2 defect bound. Gate the movers: an unhappy node
            // moves only if no *adjacent* same-class neighbor with a larger
            // index is also unhappy. Movers are then pairwise non-adjacent,
            // every move strictly decreases the monochromatic-edge count,
            // and the locally largest unhappy node is never blocked, so each
            // processed class makes progress.
            for v in graph.nodes() {
                if base.coloring.color(v) != class {
                    continue;
                }
                let mut counts = [0usize; 4];
                for m in mail.inbox(v) {
                    counts[m.msg as usize] += 1;
                }
                let own = snapshot[v.index()];
                if counts[own] as f64 > threshold {
                    let blocked = graph.neighbors(v).iter().any(|nb| {
                        nb.node.index() > v.index()
                            && base.coloring.color(nb.node) == class
                            && own_count(nb.node) as f64 > threshold
                    });
                    if blocked {
                        continue;
                    }
                    let best = (0..4).min_by_key(|&g| counts[g]).unwrap_or(own);
                    if best != own {
                        group[v.index()] = Some(best);
                        any_moved = true;
                    }
                }
            }
        }
        if !any_moved {
            break;
        }
    }
    net.record_ledger(LedgerEntry {
        depth: 0,
        stage: "d4-sweep",
        delta_level: classes,
        edges: graph.m(),
        rounds: net.rounds() - sweep_rounds_before,
        defect_ratio: f64::NAN,
        fallback: false,
    });

    VertexColoring::from_vec(group.into_iter().map(|g| g.unwrap_or(0)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linial::linial_coloring;
    use distgraph::generators;
    use distsim::{FaultPlan, IdAssignment, Model};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn proper_coloring(graph: &Graph) -> (VertexColoring, usize) {
        let ids = IdAssignment::contiguous(graph.n());
        let mut net = Network::new(graph, Model::Local);
        let result = linial_coloring(graph, &ids, &mut net);
        (result.coloring, result.palette)
    }

    #[test]
    fn defective_parameters_respect_constraints() {
        let (t, q) = choose_defective_parameters(10_000, 64, 8);
        assert!(q as usize > (t as usize * 64) / 8);
        assert!((q as u128).pow(t + 1) >= 10_000);
    }

    #[test]
    fn defective_step_reduces_palette_and_bounds_defect() {
        let g = generators::random_regular(120, 8, 3).unwrap();
        let (proper, palette) = proper_coloring(&g);
        let colors: Vec<u64> = proper.as_slice().iter().map(|&c| c as u64).collect();
        let mut net = Network::new(&g, Model::Local);
        let d_step = 4;
        let (next, new_palette, added) =
            defective_step(&g, &colors, palette as u64, d_step, &mut net);
        assert!(new_palette < palette as u64);
        assert!(added <= d_step as f64 + 1e-9);
        let coloring = VertexColoring::from_vec(next.iter().map(|&c| c as usize).collect());
        // measured defect must respect the analytic bound (input was proper)
        assert!(coloring.max_defect(&g) as f64 <= added + 1e-9);
        assert_eq!(net.rounds(), 1);
    }

    #[test]
    fn iterated_defective_coloring_respects_budget() {
        let g = generators::random_regular(150, 10, 7).unwrap();
        let (proper, palette) = proper_coloring(&g);
        let mut net = Network::new(&g, Model::Local);
        let budget = g.max_degree() as f64 / 2.0;
        let result = iterated_defective_coloring(&g, &proper, palette, budget, &mut net);
        assert!(result.defect_bound <= budget + 1e-9);
        assert!(result.coloring.max_defect(&g) as f64 <= result.defect_bound + 1e-9);
        assert!(result.palette < palette);
        assert!(
            result.palette <= 600,
            "palette {} not O(1)-ish",
            result.palette
        );
    }

    #[test]
    fn low_defect_constant_coloring_has_small_palette_and_half_defect() {
        let g = generators::random_regular(200, 12, 1).unwrap();
        let (proper, palette) = proper_coloring(&g);
        let mut net = Network::new(&g, Model::Local);
        let result = low_defect_constant_coloring(&g, &proper, palette, &mut net);
        assert!(result.coloring.max_defect(&g) <= g.max_degree() / 2 + 1);
        assert!(result.palette <= 600);
    }

    #[test]
    fn defective_four_coloring_meets_lemma_6_2_bound() {
        for (n, d, seed) in [(100, 8, 1u64), (150, 12, 2), (80, 6, 3)] {
            let g = generators::random_regular(n, d, seed).unwrap();
            let (proper, palette) = proper_coloring(&g);
            let mut net = Network::new(&g, Model::Local);
            let eps = 0.25;
            let four = defective_four_coloring(&g, &proper, palette, eps, &mut net);
            assert!(four.palette_size() <= 4);
            let delta = g.max_degree();
            let bound = (eps * delta as f64) + (delta / 2) as f64;
            let defect = four.max_defect(&g);
            assert!(
                defect as f64 <= bound + 1e-9,
                "defect {defect} exceeds Lemma 6.2 bound {bound} (n={n}, d={d})"
            );
        }
    }

    #[test]
    fn defective_four_coloring_on_dense_graph() {
        let g = generators::complete_graph(40);
        let (proper, palette) = proper_coloring(&g);
        let mut net = Network::new(&g, Model::Local);
        let eps = 0.2;
        let four = defective_four_coloring(&g, &proper, palette, eps, &mut net);
        let delta = g.max_degree();
        let bound = (eps * delta as f64) + (delta / 2) as f64;
        assert!(four.max_defect(&g) as f64 <= bound + 1e-9);
    }

    #[test]
    fn edge_cases_empty_and_edgeless() {
        let empty = Graph::from_edges(0, &[]).unwrap();
        let mut net = Network::new(&empty, Model::Local);
        let coloring =
            defective_four_coloring(&empty, &VertexColoring::from_vec(vec![]), 1, 0.5, &mut net);
        assert!(coloring.is_empty());

        let edgeless = Graph::from_edges(5, &[]).unwrap();
        let mut net = Network::new(&edgeless, Model::Local);
        let proper = VertexColoring::from_vec(vec![0, 1, 2, 3, 4]);
        let coloring = defective_four_coloring(&edgeless, &proper, 5, 0.5, &mut net);
        assert_eq!(coloring.palette_size(), 1);
        let result = iterated_defective_coloring(&edgeless, &proper, 5, 1.0, &mut net);
        assert_eq!(result.palette, 1);
    }

    #[test]
    fn congest_compliance_of_defective_steps() {
        let g = generators::random_regular(100, 6, 9).unwrap();
        let (proper, palette) = proper_coloring(&g);
        let mut net = Network::new(&g, Model::congest_for(g.n()));
        let result = low_defect_constant_coloring(&g, &proper, palette, &mut net);
        assert_eq!(net.metrics().congest_violations, 0);
        assert!(result.palette > 0);
    }

    /// Reference reduction step, point-major: for every point, every
    /// receiver evaluates the polynomial of every color it received.
    fn point_major_step(
        graph: &Graph,
        colors: &[u64],
        palette: u64,
        d_step: usize,
        net: &mut Network<'_>,
    ) -> (Vec<u64>, u64, f64) {
        let max_degree = graph.max_degree();
        let (t, q) = choose_defective_parameters(palette, max_degree, d_step);
        let new_palette = q * q;
        if new_palette >= palette {
            return (colors.to_vec(), palette, 0.0);
        }
        let mail = net.broadcast(|v| colors[v.index()]);
        let mut next = vec![0u64; graph.n()];
        for v in graph.nodes() {
            let my_color = colors[v.index()];
            let inbox = mail.inbox(v);
            let mut best = (usize::MAX, 0u64, 0u64);
            for a in 0..q {
                let mine = eval_poly(my_color, t, q, a);
                let collisions = inbox
                    .iter()
                    .filter(|m| m.msg != my_color && eval_poly(m.msg, t, q, a) == mine)
                    .count();
                if collisions < best.0 {
                    best = (collisions, a, mine);
                }
            }
            next[v.index()] = best.1 * q + best.2;
        }
        let added_defect = t as f64 * max_degree as f64 / q as f64;
        (next, new_palette, added_defect)
    }

    /// A fault plan that delays and duplicates messages, so some inboxes of
    /// a round hold colors sent in the round before.
    fn delaying_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .with_duplicate_rate(0.2)
            .with_delay_rate(0.3, 1)
    }

    /// Runs [`defective_step`] and [`point_major_step`] on twin networks
    /// (with the same fault plan and a stale warm-up round when `faulty`)
    /// and asserts equal colors, palettes, defects and metrics.
    fn step_matches_point_major(
        graph: &Graph,
        colors: &[u64],
        palette: u64,
        d_step: usize,
        faulty: bool,
    ) {
        let mut nets = [
            Network::new(graph, Model::Local),
            Network::new(graph, Model::Local),
        ];
        if faulty {
            for net in &mut nets {
                net.install_faults(delaying_plan(palette));
                net.broadcast(|v| colors[v.index()] ^ 1);
            }
        }
        let [table_net, point_net] = &mut nets;
        let got = defective_step(graph, colors, palette, d_step, table_net);
        let expected = point_major_step(graph, colors, palette, d_step, point_net);
        assert_eq!(got, expected, "palette {palette}, d_step {d_step}");
        assert_eq!(table_net.metrics(), point_net.metrics());
    }

    /// A random graph with a random (not necessarily proper) coloring.
    fn random_instance(n: usize, p: f64, palette: u64, seed: u64) -> (Graph, Vec<u64>) {
        let graph = generators::erdos_renyi(n, p, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let colors = (0..n).map(|_| rng.gen_range(0..palette)).collect();
        (graph, colors)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every table entry is the polynomial's value at its point.
        #[test]
        fn poly_table_matches_eval_poly(
            colors in proptest::collection::vec(0u64..u64::MAX, 0..6),
            t in 1u32..6,
            q in 2u64..300,
        ) {
            let table = poly_table(&colors, t, q);
            prop_assert_eq!(table.len(), colors.len() * q as usize);
            for (i, &color) in colors.iter().enumerate() {
                for a in 0..q {
                    let entry = u64::from(table[i * q as usize + a as usize]);
                    prop_assert_eq!(entry, eval_poly(color, t, q, a));
                }
            }
        }

        /// The neighbor-major step picks the same point, with the same
        /// tie-break, as the point-major loop.
        #[test]
        fn defective_step_matches_point_major_loop(
            n in 2usize..60,
            p in 0.05f64..0.6,
            palette in 2u64..100_000,
            d_step in 1usize..12,
            seed in 0u64..1 << 32,
        ) {
            let (graph, colors) = random_instance(n, p, palette, seed);
            step_matches_point_major(&graph, &colors, palette, d_step, false);
        }
    }

    #[test]
    fn defective_step_matches_point_major_loop_under_faults() {
        for seed in 0..12u64 {
            let palette = 5_000 + 997 * seed;
            let (graph, colors) = random_instance(40, 0.3, palette, seed);
            // The same plan and warm-up round on a third network deliver
            // stale colors in the step's round, so the step's `eval_poly`
            // branch runs.
            let mut probe = Network::new(&graph, Model::Local);
            probe.install_faults(delaying_plan(palette));
            probe.broadcast(|v| colors[v.index()] ^ 1);
            let mail = probe.broadcast(|v| colors[v.index()]);
            let stale = graph
                .nodes()
                .flat_map(|v| mail.inbox(v))
                .filter(|m| m.msg != colors[m.from.index()])
                .count();
            assert!(stale > 0, "seed {seed}: no stale message delivered");
            for d_step in [2, 5, 9] {
                step_matches_point_major(&graph, &colors, palette, d_step, true);
            }
        }
    }
}
