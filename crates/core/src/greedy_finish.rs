//! Greedy finishing steps: coloring low-degree (sub)graphs by iterating over
//! the classes of an initial `O(d²)`-edge coloring.
//!
//! Every recursion in the paper bottoms out in a graph of small degree that is
//! colored "greedily by a standard edge coloring algorithm" (\[10\] is cited for
//! an `O(d)`-round version). We implement the classic schedule-based greedy:
//! given a proper auxiliary edge coloring (the *schedule*), iterate over its
//! color classes; in each class all uncolored edges simultaneously pick a free
//! color from their lists — edges of one class are pairwise non-adjacent, so
//! no conflicts can arise. The number of rounds is the size of the schedule
//! palette, i.e. `O(d²)` instead of \[10\]'s `O(d)`. This is a deliberate
//! substitution for \[10\]'s algorithm; it only affects the low-degree tail
//! of every run, whose rounds the round ledger books as the `greedy-finish`
//! stage (the ledger is described in docs/ROUNDS.md).

use distgraph::{BipartiteGraph, Color, EdgeColoring, EdgeId, Graph, ListAssignment};
use distsim::{bits_for, Network};

/// Outcome of a greedy schedule-based coloring pass.
#[derive(Debug, Clone)]
pub struct GreedyOutcome {
    /// Number of edges colored by the pass.
    pub colored: usize,
    /// Edges that had no free color left in their list (empty when the
    /// `|L_e| > uncolored degree` invariant holds, as it does in all the
    /// paper's uses).
    pub uncolorable: Vec<EdgeId>,
    /// Rounds charged for the pass.
    pub rounds: u64,
}

/// Edges grouped by a class label in one counting pass: the edges of class
/// `c` are `edges[offsets[c]..offsets[c + 1]]`, in the order they were
/// given.
///
/// A schedule-based pass visits its classes in increasing order and, within
/// a class, its edges in a fixed order; grouping them once makes the pass
/// O(edges + classes) instead of one scan of every edge per class.
pub(crate) struct EdgeClasses {
    offsets: Vec<usize>,
    edges: Vec<EdgeId>,
}

impl EdgeClasses {
    /// Groups `(class, edge)` pairs by class, keeping the pairs' order
    /// within each class.
    pub(crate) fn new(labelled: impl IntoIterator<Item = (usize, EdgeId)>) -> Self {
        let pairs: Vec<(usize, EdgeId)> = labelled.into_iter().collect();
        let classes = pairs.iter().map(|&(c, _)| c + 1).max().unwrap_or(0);
        let mut offsets = vec![0usize; classes + 1];
        for &(c, _) in &pairs {
            offsets[c + 1] += 1;
        }
        for c in 0..classes {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets[..classes].to_vec();
        let mut edges = vec![EdgeId::new(0); pairs.len()];
        for (c, e) in pairs {
            edges[cursor[c]] = e;
            cursor[c] += 1;
        }
        EdgeClasses { offsets, edges }
    }

    /// Groups `edges` by their color in `schedule`, skipping uncolored ones.
    pub(crate) fn by_schedule(
        schedule: &EdgeColoring,
        edges: impl IntoIterator<Item = EdgeId>,
    ) -> Self {
        Self::new(
            edges
                .into_iter()
                .filter_map(|e| schedule.color(e).map(|c| (c, e))),
        )
    }

    /// The classes in increasing order, each with its edges (empty classes
    /// below the largest one included).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[EdgeId]> + '_ {
        self.offsets.windows(2).map(|w| &self.edges[w[0]..w[1]])
    }
}

/// An `O(Δ²)`-edge coloring of a 2-colored bipartite graph computed in one
/// round: the color of an edge is the pair (port index at its `U` endpoint,
/// port index at its `V` endpoint).
///
/// Two edges sharing their `U` endpoint differ in the first component, two
/// edges sharing their `V` endpoint differ in the second, so the coloring is
/// proper. This is the `O(1)`-round initial edge coloring the paper's
/// Appendix C relies on ("which can be done in O(1) rounds if we are given a
/// 2-vertex coloring").
pub fn port_pair_edge_coloring(bg: &BipartiteGraph, net: &mut Network<'_>) -> EdgeColoring {
    let graph = bg.graph();
    let delta = graph.max_degree().max(1);
    let mut coloring = EdgeColoring::empty(graph.m());
    // Each endpoint announces to the other the port index it assigned to the
    // edge: one round, O(log Δ) bits per message.
    net.charge_rounds(1);
    net.charge_messages(2 * graph.m() as u64, bits_for(delta as u64) as u64);
    for v in graph.nodes() {
        for (port, nb) in graph.neighbors(v).iter().enumerate() {
            let (u_side, _) = bg.endpoints_uv(nb.edge);
            if v == u_side {
                // this node is the U endpoint: contribute the first component
                let existing = coloring.color(nb.edge).unwrap_or(0);
                coloring.set(nb.edge, existing + port * delta);
            } else {
                let existing = coloring.color(nb.edge).unwrap_or(0);
                coloring.set(nb.edge, existing + port);
            }
        }
    }
    coloring
}

/// Greedily colors the `eligible` uncolored edges of `graph` from their
/// `lists`, scheduled by the color classes of the proper edge coloring
/// `schedule`.
///
/// In the class-`c` step (one round), every eligible uncolored edge whose
/// schedule color is `c` picks the smallest color of its list that is not
/// used by any adjacent colored edge. Properness is preserved because edges
/// within one schedule class are pairwise non-adjacent.
///
/// # Panics
///
/// Panics if `schedule` is not a complete proper edge coloring of `graph`.
pub fn greedy_list_coloring_by_schedule(
    graph: &Graph,
    schedule: &EdgeColoring,
    lists: &ListAssignment,
    coloring: &mut EdgeColoring,
    eligible: impl Fn(EdgeId) -> bool,
    net: &mut Network<'_>,
) -> GreedyOutcome {
    assert!(schedule.is_complete(), "the schedule must color every edge");
    assert!(
        schedule.is_proper(graph),
        "the schedule must be a proper edge coloring"
    );

    let mut colored = 0usize;
    let mut uncolorable = Vec::new();
    let rounds_before = net.rounds();
    let message_bits = bits_for(lists.space_size().max(2) as u64) as u64;

    for class in EdgeClasses::by_schedule(schedule, graph.edges()).iter() {
        let class_edges: Vec<EdgeId> = class
            .iter()
            .copied()
            .filter(|&e| !coloring.is_colored(e) && eligible(e))
            .collect();
        if class_edges.is_empty() {
            continue;
        }
        // One round: each picking edge learns the colors currently held by its
        // adjacent edges (its endpoints already know them locally; the round
        // is the announcement of the newly picked color).
        net.charge_rounds(1);
        net.charge_messages(2 * class_edges.len() as u64, message_bits);
        for e in class_edges {
            let used = coloring.colors_around(graph, e);
            match lists.list(e).iter().copied().find(|c| !used.contains(c)) {
                Some(c) => {
                    coloring.set(e, c);
                    colored += 1;
                }
                None => uncolorable.push(e),
            }
        }
    }

    GreedyOutcome {
        colored,
        uncolorable,
        rounds: net.rounds() - rounds_before,
    }
}

/// Colors *all* uncolored edges of `graph` greedily from the standard palette
/// `{0, ..., palette-1}` using `schedule`; a convenience wrapper around
/// [`greedy_list_coloring_by_schedule`].
pub fn greedy_palette_coloring_by_schedule(
    graph: &Graph,
    schedule: &EdgeColoring,
    palette: usize,
    coloring: &mut EdgeColoring,
    net: &mut Network<'_>,
) -> GreedyOutcome {
    let lists = ListAssignment::full_palette(graph, palette);
    greedy_list_coloring_by_schedule(graph, schedule, &lists, coloring, |_| true, net)
}

/// The smallest color not used by the colored edges adjacent to `e`
/// (the "first-fit" color); exposed for tests and for the baselines crate.
pub fn first_free_color(graph: &Graph, coloring: &EdgeColoring, e: EdgeId) -> Color {
    let used = coloring.colors_around(graph, e);
    (0..)
        .find(|c| !used.contains(c))
        .expect("some color below deg+1 is free")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linial::linial_edge_coloring;
    use distgraph::generators;
    use distsim::{IdAssignment, Model};
    use edgecolor_verify::{
        check_complete, check_list_compliance, check_palette_size, check_proper_edge_coloring,
    };

    #[test]
    fn port_pair_coloring_is_proper_with_delta_squared_palette() {
        let bg = generators::regular_bipartite(20, 6, 4).unwrap();
        let mut net = Network::new(bg.graph(), Model::Local);
        let coloring = port_pair_edge_coloring(&bg, &mut net);
        check_proper_edge_coloring(bg.graph(), &coloring).assert_ok();
        check_complete(bg.graph(), &coloring).assert_ok();
        let delta = bg.graph().max_degree();
        check_palette_size(&coloring, delta * delta).assert_ok();
        assert_eq!(net.rounds(), 1);
    }

    #[test]
    fn port_pair_coloring_on_irregular_bipartite() {
        let bg = generators::random_bipartite(15, 25, 0.3, 2);
        let mut net = Network::new(bg.graph(), Model::Local);
        let coloring = port_pair_edge_coloring(&bg, &mut net);
        check_proper_edge_coloring(bg.graph(), &coloring).assert_ok();
        check_complete(bg.graph(), &coloring).assert_ok();
    }

    #[test]
    fn greedy_by_schedule_colors_everything_with_degree_plus_one_lists() {
        let g = generators::random_regular(80, 6, 11).unwrap();
        let ids = IdAssignment::contiguous(g.n());
        let mut net = Network::new(&g, Model::Local);
        let schedule = linial_edge_coloring(&g, &ids, &mut net);
        let lists = ListAssignment::degree_plus_one(&g);
        let mut coloring = EdgeColoring::empty(g.m());
        let outcome = greedy_list_coloring_by_schedule(
            &g,
            &schedule,
            &lists,
            &mut coloring,
            |_| true,
            &mut net,
        );
        assert!(outcome.uncolorable.is_empty());
        assert_eq!(outcome.colored, g.m());
        check_proper_edge_coloring(&g, &coloring).assert_ok();
        check_complete(&g, &coloring).assert_ok();
        check_list_compliance(&g, &lists, &coloring).assert_ok();
        // (degree+1)-list coloring never exceeds Δ̄+1 colors.
        check_palette_size(&coloring, g.max_edge_degree() + 1).assert_ok();
        assert!(outcome.rounds > 0);
    }

    #[test]
    fn greedy_palette_coloring_uses_at_most_two_delta_minus_one_colors() {
        let bg = generators::regular_bipartite(16, 5, 8).unwrap();
        let g = bg.graph();
        let mut net = Network::new(g, Model::Local);
        let schedule = port_pair_edge_coloring(&bg, &mut net);
        let mut coloring = EdgeColoring::empty(g.m());
        let palette = 2 * g.max_degree() - 1;
        let outcome =
            greedy_palette_coloring_by_schedule(g, &schedule, palette, &mut coloring, &mut net);
        assert!(outcome.uncolorable.is_empty());
        check_proper_edge_coloring(g, &coloring).assert_ok();
        check_complete(g, &coloring).assert_ok();
        check_palette_size(&coloring, palette).assert_ok();
    }

    #[test]
    fn greedy_respects_eligibility_filter() {
        let g = generators::path(6);
        let ids = IdAssignment::contiguous(g.n());
        let mut net = Network::new(&g, Model::Local);
        let schedule = linial_edge_coloring(&g, &ids, &mut net);
        let lists = ListAssignment::full_palette(&g, 4);
        let mut coloring = EdgeColoring::empty(g.m());
        let outcome = greedy_list_coloring_by_schedule(
            &g,
            &schedule,
            &lists,
            &mut coloring,
            |e| e.index() % 2 == 0,
            &mut net,
        );
        assert_eq!(
            outcome.colored,
            g.edges().filter(|e| e.index() % 2 == 0).count()
        );
        for e in g.edges() {
            assert_eq!(coloring.is_colored(e), e.index() % 2 == 0);
        }
    }

    #[test]
    fn greedy_preserves_existing_partial_coloring() {
        let g = generators::cycle(6);
        let ids = IdAssignment::contiguous(g.n());
        let mut net = Network::new(&g, Model::Local);
        let schedule = linial_edge_coloring(&g, &ids, &mut net);
        let mut coloring = EdgeColoring::empty(g.m());
        coloring.set(EdgeId::new(0), 7);
        let lists = ListAssignment::full_palette(&g, 8);
        greedy_list_coloring_by_schedule(&g, &schedule, &lists, &mut coloring, |_| true, &mut net);
        assert_eq!(coloring.color(EdgeId::new(0)), Some(7));
        check_proper_edge_coloring(&g, &coloring).assert_ok();
        check_complete(&g, &coloring).assert_ok();
    }

    #[test]
    fn uncolorable_edges_are_reported_not_panicked() {
        // A star with 3 leaves but only 2 colors available: one edge must fail.
        let g = generators::star(3);
        let ids = IdAssignment::contiguous(g.n());
        let mut net = Network::new(&g, Model::Local);
        let schedule = linial_edge_coloring(&g, &ids, &mut net);
        let lists = ListAssignment::full_palette(&g, 2);
        let mut coloring = EdgeColoring::empty(g.m());
        let outcome = greedy_list_coloring_by_schedule(
            &g,
            &schedule,
            &lists,
            &mut coloring,
            |_| true,
            &mut net,
        );
        assert_eq!(outcome.colored, 2);
        assert_eq!(outcome.uncolorable.len(), 1);
        check_proper_edge_coloring(&g, &coloring).assert_ok();
    }

    #[test]
    fn edge_classes_keep_input_order_within_each_class() {
        let labelled = [(2, 5), (0, 9), (2, 1), (0, 3), (4, 7), (2, 8)];
        let classes = EdgeClasses::new(labelled.map(|(c, e)| (c, EdgeId::new(e))));
        let got: Vec<Vec<usize>> = classes
            .iter()
            .map(|class| class.iter().map(|e| e.index()).collect())
            .collect();
        assert_eq!(got, [vec![9, 3], vec![], vec![5, 1, 8], vec![], vec![7]]);
        assert_eq!(EdgeClasses::new([]).iter().count(), 0);
    }

    #[test]
    fn first_free_color_skips_used_colors() {
        let g = generators::star(3);
        let mut coloring = EdgeColoring::empty(g.m());
        coloring.set(EdgeId::new(0), 0);
        coloring.set(EdgeId::new(1), 1);
        assert_eq!(first_free_color(&g, &coloring, EdgeId::new(2)), 2);
    }

    #[test]
    #[should_panic(expected = "schedule must color every edge")]
    fn incomplete_schedule_panics() {
        let g = generators::path(4);
        let schedule = EdgeColoring::empty(g.m());
        let lists = ListAssignment::full_palette(&g, 4);
        let mut coloring = EdgeColoring::empty(g.m());
        let mut net = Network::new(&g, Model::Local);
        greedy_list_coloring_by_schedule(&g, &schedule, &lists, &mut coloring, |_| true, &mut net);
    }
}
