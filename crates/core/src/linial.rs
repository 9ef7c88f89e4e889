//! Linial-style `O(Δ²)`-coloring in `O(log* n)` rounds.
//!
//! Every algorithm in the paper starts from a proper vertex coloring with
//! `poly(Δ)` colors computed in `O(log* n)` rounds from the unique
//! identifiers — this is the only place the `O(log* n)` term comes from.
//!
//! The color-reduction step is the classical polynomial construction: a
//! proper `m`-coloring is interpreted per node as a polynomial of degree at
//! most `t` over a prime field `F_q` with `q ≥ tΔ + 1` and `q^{t+1} ≥ m`; a
//! node picks an evaluation point on which it differs from all neighbors
//! (possible because two distinct degree-`t` polynomials agree on at most `t`
//! points, so at most `tΔ < q` points are blocked) and its new color is the
//! pair (point, value) from a palette of `q²` colors. Iterating `O(log* n)`
//! times brings the palette from `poly(n)` down to `O(Δ²)`.

use distgraph::{Graph, NodeId, VertexColoring};
use distsim::{IdAssignment, Network};

/// Result of the Linial coloring procedure.
#[derive(Debug, Clone)]
pub struct LinialResult {
    /// The proper vertex coloring produced.
    pub coloring: VertexColoring,
    /// The size of the final palette (`O(Δ²)`).
    pub palette: usize,
    /// Number of color-reduction iterations (each costs one round).
    pub iterations: u32,
}

/// Returns the smallest prime `≥ value`.
pub(crate) fn next_prime(value: u64) -> u64 {
    let mut candidate = value.max(2);
    loop {
        if is_prime(candidate) {
            return candidate;
        }
        candidate += 1;
    }
}

pub(crate) fn is_prime(value: u64) -> bool {
    if value < 2 {
        return false;
    }
    if value.is_multiple_of(2) {
        return value == 2;
    }
    let mut d = 3u64;
    while d * d <= value {
        if value.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// Chooses the polynomial degree `t` and field size `q` for reducing an
/// `m`-coloring on a graph of maximum degree `max_degree`:
/// the smallest `t ≥ 1` such that `q = nextprime(t·Δ + 1)` satisfies
/// `q^{t+1} ≥ m`.
fn choose_parameters(m: u64, max_degree: usize) -> (u32, u64) {
    let delta = max_degree.max(1) as u64;
    for t in 1..=64u32 {
        let q = next_prime(t as u64 * delta + 1);
        // q^{t+1} ≥ m, computed carefully to avoid overflow.
        let mut power: u128 = 1;
        let mut enough = false;
        for _ in 0..=t {
            power = power.saturating_mul(q as u128);
            if power >= m as u128 {
                enough = true;
                break;
            }
        }
        if enough {
            return (t, q);
        }
    }
    // Unreachable for any realistic m, but keep a safe fallback.
    (64, next_prime(64 * delta + 1))
}

/// Evaluates the polynomial whose coefficients are the base-`q` digits of
/// `color` (degree ≤ `t`) at the point `a`, modulo `q`.
///
/// Sums `d_i · a^i` from the lowest digit up with a running power of `a`,
/// which equals Horner's rule mod `q` without buffering the digits.
pub(crate) fn eval_poly(color: u64, t: u32, q: u64, a: u64) -> u64 {
    let (mut rest, mut power, mut acc) = (color, 1u64, 0u64);
    for _ in 0..=t {
        acc = (acc + rest % q * power) % q;
        power = power * a % q;
        rest /= q;
    }
    acc
}

/// Every color's polynomial at every point of `F_q`, row-major: entry
/// `i·q + a` is `eval_poly(colors[i], t, q, a)`.
///
/// Each row splits its color into digits once and runs Horner's rule per
/// point, so a step that compares one node's polynomial against many
/// neighbors reads a row instead of re-evaluating it per neighbor.
pub(crate) fn poly_table(colors: &[u64], t: u32, q: u64) -> Vec<u32> {
    assert!(
        q <= u64::from(u32::MAX),
        "field size {q} does not fit a u32"
    );
    let width = q as usize;
    let mut table = vec![0u32; colors.len() * width];
    let mut digits = vec![0u64; t as usize + 1];
    for (row, &color) in table.chunks_exact_mut(width).zip(colors) {
        let mut rest = color;
        for digit in digits.iter_mut() {
            *digit = rest % q;
            rest /= q;
        }
        for (a, slot) in (0u64..).zip(row.iter_mut()) {
            let value = digits.iter().rev().fold(0, |acc, &d| (acc * a + d) % q);
            *slot = value as u32;
        }
    }
    table
}

/// One Linial color-reduction step: from a proper coloring with palette `m`
/// to a proper coloring with palette `q²` where `q = nextprime(tΔ + 1)`.
/// Costs one communication round (each node broadcasts its current color).
pub fn reduction_step(
    graph: &Graph,
    colors: &[u64],
    palette: u64,
    net: &mut Network<'_>,
) -> (Vec<u64>, u64) {
    let max_degree = graph.max_degree();
    let (t, q) = choose_parameters(palette, max_degree);
    let new_palette = q * q;
    if new_palette >= palette {
        return (colors.to_vec(), palette);
    }
    // One round: everyone announces its current color.
    let mail = net.broadcast(|v| colors[v.index()]);
    let mut next = vec![0u64; graph.n()];
    for v in graph.nodes() {
        let my_color = colors[v.index()];
        let inbox = mail.inbox(v);
        // Find an evaluation point where v differs from every neighbor.
        let mut chosen = None;
        for a in 0..q {
            let mine = eval_poly(my_color, t, q, a);
            let clash = inbox
                .iter()
                .any(|m| m.msg != my_color && eval_poly(m.msg, t, q, a) == mine);
            if !clash {
                chosen = Some((a, mine));
                break;
            }
        }
        let (a, value) = chosen.expect("a collision-free evaluation point exists because tΔ < q");
        next[v.index()] = a * q + value;
    }
    (next, new_palette)
}

/// Computes a proper `O(Δ²)`-coloring from the unique identifiers in
/// `O(log* n)` rounds (one round per reduction step).
pub fn linial_coloring(graph: &Graph, ids: &IdAssignment, net: &mut Network<'_>) -> LinialResult {
    let n = graph.n();
    if n == 0 {
        return LinialResult {
            coloring: VertexColoring::from_vec(vec![]),
            palette: 0,
            iterations: 0,
        };
    }
    let mut colors: Vec<u64> = graph.nodes().map(|v| ids.id(v) - 1).collect();
    let mut palette: u64 = ids.space().max(n as u64);
    if graph.max_degree() == 0 {
        // No edges: a single color suffices.
        return LinialResult {
            coloring: VertexColoring::from_vec(vec![0; n]),
            palette: 1,
            iterations: 0,
        };
    }
    let mut iterations = 0u32;
    for _ in 0..64 {
        let (next, next_palette) = reduction_step(graph, &colors, palette, net);
        if next_palette >= palette {
            break;
        }
        colors = next;
        palette = next_palette;
        iterations += 1;
    }
    let coloring = VertexColoring::from_vec(colors.iter().map(|&c| c as usize).collect());
    LinialResult {
        coloring,
        palette: palette as usize,
        iterations,
    }
}

/// Computes a proper edge coloring with `O(Δ̄²)` colors in `O(log* n)` rounds
/// by running the Linial procedure on the line graph.
///
/// Each line-graph round is simulated with two rounds of the original graph
/// (an edge's color is held by its endpoints, which relay adjacent edges'
/// colors); the relayed messages carry up to `deg` colors, which is fine in
/// the LOCAL model (and accounted, so CONGEST runs expose the violation
/// rather than hiding it).
pub fn linial_edge_coloring(
    graph: &Graph,
    ids: &IdAssignment,
    net: &mut Network<'_>,
) -> distgraph::EdgeColoring {
    if graph.m() == 0 {
        return distgraph::EdgeColoring::empty(0);
    }
    let line = graph.line_graph();
    // Unique edge identifiers from the endpoint identifiers.
    let space = ids.space();
    let edge_ids: Vec<u64> = graph
        .edges()
        .map(|e| {
            let (u, v) = graph.endpoints(e);
            let (a, b) = (ids.id(u).min(ids.id(v)), ids.id(u).max(ids.id(v)));
            (a - 1) * space + (b - 1) + 1
        })
        .collect();
    let line_ids = IdAssignment::from_vec(edge_ids);
    let mut line_net = net.child(&line);
    let result = linial_coloring(&line, &line_ids, &mut line_net);
    // Each line-graph round costs two rounds on the host graph; message sizes
    // are whatever the line-graph nodes sent (relayed by the endpoints).
    let line_metrics = line_net.metrics();
    net.charge_rounds(line_metrics.rounds);
    net.absorb_sequential(&distsim::Metrics {
        rounds: line_metrics.rounds,
        ..line_metrics
    });
    let mut coloring = distgraph::EdgeColoring::empty(graph.m());
    for e in graph.edges() {
        coloring.set(e, result.coloring.color(NodeId::new(e.index())));
    }
    coloring
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgraph::generators;
    use distsim::{IdAssignment, Model};
    use edgecolor_verify::{check_proper_edge_coloring, check_proper_vertex_coloring};

    #[test]
    fn prime_helper() {
        assert_eq!(next_prime(10), 11);
        assert_eq!(next_prime(11), 11);
        assert!(is_prime(101));
        assert!(!is_prime(100));
    }

    #[test]
    fn parameters_satisfy_constraints() {
        let (t, q) = choose_parameters(1_000_000, 10);
        assert!(q > t as u64 * 10);
        assert!((q as u128).pow(t + 1) >= 1_000_000);
        // Small palettes use t = 1.
        let (t1, q1) = choose_parameters(100, 10);
        assert_eq!(t1, 1);
        assert!(q1 * q1 >= 100);
    }

    #[test]
    fn eval_poly_is_consistent() {
        // color 5 with q = 3, t = 1: digits [2, 1] => polynomial 1·a + 2
        assert_eq!(eval_poly(5, 1, 3, 0), 2);
        assert_eq!(eval_poly(5, 1, 3, 1), 0);
        assert_eq!(eval_poly(5, 1, 3, 2), 1);
    }

    #[test]
    fn eval_poly_matches_horner_over_the_digits() {
        let horner = |color: u64, t: u32, q: u64, a: u64| {
            let digits: Vec<u64> = (0..=t).map(|i| color / q.pow(i) % q).collect();
            digits.iter().rev().fold(0, |acc, &d| (acc * a + d) % q)
        };
        for (t, q) in [(1u32, 2u64), (1, 7), (2, 11), (3, 5), (4, 13)] {
            for color in (0..q.pow(t + 1)).step_by(3) {
                for a in 0..q {
                    assert_eq!(eval_poly(color, t, q, a), horner(color, t, q, a));
                }
            }
        }
    }

    #[test]
    fn linial_produces_proper_coloring_with_small_palette() {
        let g = generators::random_regular(200, 6, 3).unwrap();
        let ids = IdAssignment::scattered(g.n(), 9);
        let mut net = Network::new(&g, Model::Local);
        let result = linial_coloring(&g, &ids, &mut net);
        check_proper_vertex_coloring(&g, &result.coloring).assert_ok();
        let delta = g.max_degree();
        assert!(
            result.palette <= 16 * delta * delta + 64,
            "palette {} too large for Δ = {delta}",
            result.palette
        );
        assert!(result.iterations >= 1);
        assert_eq!(net.rounds(), result.iterations as u64);
    }

    #[test]
    fn linial_on_large_id_space_still_terminates_quickly() {
        let g = generators::cycle(64);
        let ids = IdAssignment::scattered(64, 123);
        let mut net = Network::new(&g, Model::Local);
        let result = linial_coloring(&g, &ids, &mut net);
        check_proper_vertex_coloring(&g, &result.coloring).assert_ok();
        // Degree 2: palette should come down to O(1)-ish (≤ 49 with q ≤ 7).
        assert!(result.palette <= 64);
        // log* of n³ is tiny.
        assert!(result.iterations <= 8);
    }

    #[test]
    fn linial_handles_edgeless_and_empty_graphs() {
        let g = distgraph::Graph::from_edges(5, &[]).unwrap();
        let ids = IdAssignment::contiguous(5);
        let mut net = Network::new(&g, Model::Local);
        let result = linial_coloring(&g, &ids, &mut net);
        assert_eq!(result.palette, 1);
        assert_eq!(net.rounds(), 0);

        let empty = distgraph::Graph::from_edges(0, &[]).unwrap();
        let ids = IdAssignment::contiguous(0);
        let mut net = Network::new(&empty, Model::Local);
        let result = linial_coloring(&empty, &ids, &mut net);
        assert_eq!(result.palette, 0);
    }

    #[test]
    fn linial_in_congest_respects_bandwidth() {
        // Colors shrink towards O(Δ²), so messages stay small; the initial
        // identifier broadcast is within O(log n) bits as well.
        let g = generators::random_regular(128, 4, 1).unwrap();
        let ids = IdAssignment::scattered(g.n(), 2);
        let mut net = Network::new(&g, Model::congest_for(g.n()));
        let result = linial_coloring(&g, &ids, &mut net);
        check_proper_vertex_coloring(&g, &result.coloring).assert_ok();
        assert_eq!(net.metrics().congest_violations, 0);
    }

    #[test]
    fn linial_edge_coloring_is_proper_with_polynomial_palette() {
        let g = generators::random_regular(60, 5, 7).unwrap();
        let ids = IdAssignment::scattered(g.n(), 5);
        let mut net = Network::new(&g, Model::Local);
        let coloring = linial_edge_coloring(&g, &ids, &mut net);
        check_proper_edge_coloring(&g, &coloring).assert_ok();
        assert!(coloring.is_complete());
        let dbar = g.max_edge_degree();
        assert!(coloring.palette_size() <= 16 * dbar * dbar + 64);
        assert!(net.rounds() > 0);
    }
}
