//! Dynamic recoloring: local repair of an edge coloring after a mutation
//! batch.
//!
//! The paper colors a static graph, but a `(degree+1)`-list coloring is
//! exactly the primitive that makes *local repair* cheap in a dynamic
//! setting. After a batch of edge insertions/deletions:
//!
//! * deletions never break properness — surviving edges keep their colors;
//! * each inserted (uncolored) edge `e` has at most `deg_G(e) ≤ 2Δ − 2`
//!   adjacent edges, so against a palette of `P = 2Δ − 1` colors its list of
//!   *available* colors (palette minus the colors of adjacent already-colored
//!   edges) has size at least `deg_H(e) + 1`, where `H` is the subgraph
//!   induced by the uncolored edges.
//!
//! That last inequality is the `(degree+1)`-list condition of Theorem 1.1 /
//! Theorem D.4 **on the dirty subgraph `H`**: the repair therefore runs the
//! paper's own LOCAL machinery ([`list_edge_coloring`], i.e. the Lemma D.2
//! slack solver + Lemma D.3 slack amplification pipeline) on `H` with the
//! residual lists, in `polylog(Δ) + O(log* n)` simulated rounds, touching
//! only the `O(|batch|)` dirty edges instead of the whole graph. This is the
//! same argument Lemma D.1 uses to seed the recursion: residual lists shrink
//! at most as fast as residual degrees.
//!
//! The palette budget `P` is fixed when the coloring is created. When a
//! mutation drives Δ past the budget (`2Δ − 1 > P`), the `(degree+1)`
//! inequality above no longer holds and the subsystem falls back to one full
//! [`color_edges_local`] pass, re-establishing `P = 2Δ − 1` for the new Δ —
//! the same "recompute when the instance family changes" escape hatch the
//! paper's recursion uses when slack is exhausted. When Δ *shrinks*, the
//! coloring remains proper and within `P`; call
//! [`Recoloring::refresh`] to re-tighten the budget explicitly.
//!
//! Repairs are deterministic: replaying the same batches gives a
//! bit-identical coloring (`tests/differential.rs`).

use crate::error::ColoringError;
use crate::list_coloring::{color_edges_local, list_edge_coloring};
use crate::params::ColoringParams;
use distgraph::{BatchDiff, Color, DynamicGraph, EdgeColoring, EdgeId, Graph, ListAssignment};
use distsim::{IdAssignment, Metrics};

pub use crate::list_coloring::default_palette;

/// What one [`Recoloring::repair`] call did.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// Number of edges the repair (re)colored. For a local repair this is the
    /// number of dirty (inserted/uncolored) edges; for a full-recolor
    /// fallback it is the full edge count.
    pub repaired_edges: usize,
    /// `true` if the palette budget was exceeded and a full
    /// [`color_edges_local`] pass ran instead of a local repair.
    pub full_recolor: bool,
    /// Internal (dense, post-batch) ids of the edges whose colors changed or
    /// were assigned — the `touched` set to hand to
    /// `edgecolor_verify::check_delta`.
    pub touched: Vec<EdgeId>,
    /// Simulated execution cost of the repair pass.
    pub metrics: Metrics,
}

/// A maintained `2Δ−1`-style edge coloring of a [`DynamicGraph`], repaired
/// locally after every mutation batch.
///
/// See the [module docs](self) for the repair contract; `tests/differential.rs`
/// asserts that a repaired coloring is checker-equivalent to a from-scratch
/// recoloring of the final graph.
#[derive(Debug, Clone)]
pub struct Recoloring {
    coloring: EdgeColoring,
    palette: usize,
    /// Extra colors above the tight `2Δ − 1` requirement at the time the
    /// budget was last (re)established; re-applied after every full-recolor
    /// fallback so the capacity-planning knob of [`Recoloring::with_budget`]
    /// keeps working instead of silently degrading to zero headroom.
    headroom: usize,
}

impl Recoloring {
    /// Colors the current state of `dg` from scratch with
    /// [`color_edges_local`] and fixes the palette budget at
    /// `max(2Δ − 1, 1)`.
    ///
    /// # Errors
    ///
    /// Propagates any error of the underlying coloring algorithm.
    pub fn color_initial(
        dg: &DynamicGraph,
        ids: &IdAssignment,
        params: &ColoringParams,
    ) -> Result<(Self, RepairReport), ColoringError> {
        let graph = dg.graph();
        let outcome = color_edges_local(graph, ids, params)?;
        let palette = default_palette(graph.max_degree());
        let report = RepairReport {
            repaired_edges: graph.m(),
            full_recolor: true,
            touched: graph.edges().collect(),
            metrics: outcome.metrics,
        };
        Ok((
            Recoloring {
                coloring: outcome.coloring,
                palette,
                headroom: 0,
            },
            report,
        ))
    }

    /// Like [`Recoloring::color_initial`] but provisions a larger palette
    /// budget up front: `palette` colors are reserved even though the initial
    /// coloring uses at most `2Δ − 1 ≤ palette` of them.
    ///
    /// Headroom is the repair layer's capacity-planning knob: a budget of
    /// `2(Δ + h) − 1` tolerates Δ growing by `h` under churn before any full
    /// recolor is forced, at the price of a proportionally larger color
    /// space. The slack `palette − (2Δ − 1)` is remembered and re-applied
    /// whenever a fallback re-establishes the budget, so one Δ spike does not
    /// permanently degrade the session to a zero-headroom budget. This is
    /// the palette-budget trade-off the small-palette line of work
    /// (Bernshteyn '20; Ghaffari–Kuhn–Maus–Uitto '18) fights on the static
    /// side.
    ///
    /// # Errors
    ///
    /// Returns [`ColoringError::InvalidParameter`] if `palette < 2Δ − 1`, and
    /// propagates errors of the underlying coloring algorithm.
    pub fn with_budget(
        dg: &DynamicGraph,
        ids: &IdAssignment,
        params: &ColoringParams,
        palette: usize,
    ) -> Result<(Self, RepairReport), ColoringError> {
        let needed = default_palette(dg.graph().max_degree());
        if palette < needed {
            return Err(ColoringError::InvalidParameter {
                name: "palette",
                reason: format!("budget {palette} is below the required 2Δ−1 = {needed}"),
            });
        }
        let (mut rec, report) = Recoloring::color_initial(dg, ids, params)?;
        rec.palette = palette;
        rec.headroom = palette - needed;
        Ok((rec, report))
    }

    /// Adopts an existing proper, complete coloring of `dg`'s current graph
    /// — for example one carried by a `diststore` snapshot — instead of
    /// recoloring from scratch. The coloring is audited (proper, complete,
    /// within `palette`) in one `O(m · Δ)` pass, so resuming a serving
    /// session from a snapshot costs validation, not a fresh
    /// `polylog(Δ) + O(log* n)` coloring run. Headroom above the tight
    /// `2Δ − 1` requirement is remembered exactly as in
    /// [`Recoloring::with_budget`].
    ///
    /// # Errors
    ///
    /// [`ColoringError::InvalidParameter`] if the coloring does not cover
    /// exactly the graph's edges, if `palette < 2Δ − 1`, or if the coloring
    /// fails the proper/complete/palette audit.
    pub fn adopt(
        dg: &DynamicGraph,
        coloring: EdgeColoring,
        palette: usize,
    ) -> Result<Self, ColoringError> {
        let graph = dg.graph();
        if coloring.len() != graph.m() {
            return Err(ColoringError::InvalidParameter {
                name: "coloring",
                reason: format!(
                    "coloring covers {} edges but the graph has {}",
                    coloring.len(),
                    graph.m()
                ),
            });
        }
        let needed = default_palette(graph.max_degree());
        if palette < needed {
            return Err(ColoringError::InvalidParameter {
                name: "palette",
                reason: format!("budget {palette} is below the required 2Δ−1 = {needed}"),
            });
        }
        let mut audit = edgecolor_verify::check_proper_edge_coloring(graph, &coloring);
        audit.merge(edgecolor_verify::check_complete(graph, &coloring));
        audit.merge(edgecolor_verify::check_palette_size(&coloring, palette));
        if !audit.is_ok() {
            return Err(ColoringError::InvalidParameter {
                name: "coloring",
                reason: format!(
                    "adopted coloring fails the audit with {} violation(s), first: {:?}",
                    audit.violations().len(),
                    audit.violations().first()
                ),
            });
        }
        Ok(Recoloring {
            coloring,
            palette,
            headroom: palette - needed,
        })
    }

    /// The maintained coloring, indexed by the *current* internal ids of the
    /// dynamic graph it was last repaired against.
    pub fn coloring(&self) -> &EdgeColoring {
        &self.coloring
    }

    /// Mutable access for the self-stabilization layer ([`crate::stabilize`]):
    /// corruption injection and conflict repair rewrite colors in place.
    pub(crate) fn coloring_mut(&mut self) -> &mut EdgeColoring {
        &mut self.coloring
    }

    /// Replaces the maintained coloring (self-stabilization repair result).
    pub(crate) fn replace_coloring(&mut self, coloring: EdgeColoring) {
        self.coloring = coloring;
    }

    /// The palette budget `P`: every assigned color is `< P`.
    pub fn palette(&self) -> usize {
        self.palette
    }

    /// Repairs the coloring after `diff` was applied to `dg`.
    ///
    /// `dg` must be the dynamic graph *after* the batch and `diff` the value
    /// returned by that [`DynamicGraph::apply`] call; repairs must be applied
    /// for every batch, in order.
    ///
    /// # Errors
    ///
    /// Propagates errors of the underlying coloring machinery.
    ///
    /// # Examples
    ///
    /// ```
    /// use distgraph::{generators, DynamicGraph, UpdateBatch};
    /// use distsim::IdAssignment;
    /// use edgecolor::{default_palette, ColoringParams, Recoloring};
    /// use edgecolor_verify::check_delta;
    ///
    /// let mut dg = DynamicGraph::from_graph(generators::grid_torus(6, 6)); // Δ = 4
    /// let ids = IdAssignment::scattered(dg.n(), 1);
    /// let params = ColoringParams::new(0.5);
    /// // Provision headroom for Δ growing by 2 before any full recolor.
    /// let budget = default_palette(dg.graph().max_degree() + 2);
    /// let (mut rec, _) = Recoloring::with_budget(&dg, &ids, &params, budget)?;
    ///
    /// // Mutate, then repair: only the dirty neighborhood is recolored.
    /// let diff = dg.apply(&UpdateBatch {
    ///     delete: vec![0usize.into(), 7usize.into()],
    ///     insert: vec![(0, 14)],
    /// }).expect("valid batch");
    /// let report = rec.repair(&dg, &diff, &ids, &params)?;
    /// assert!(!report.full_recolor, "headroom absorbs the Δ growth");
    /// assert!(report.repaired_edges <= 1); // at most the inserted edge
    /// // O(batch·Δ) certification of exactly what the repair changed:
    /// check_delta(dg.graph(), rec.coloring(), &report.touched, rec.palette()).assert_ok();
    /// # Ok::<(), edgecolor::ColoringError>(())
    /// ```
    pub fn repair(
        &mut self,
        dg: &DynamicGraph,
        diff: &BatchDiff,
        ids: &IdAssignment,
        params: &ColoringParams,
    ) -> Result<RepairReport, ColoringError> {
        let graph = dg.graph();
        let carried = diff.carry_coloring(&self.coloring);
        let needed = default_palette(graph.max_degree());

        if needed > self.palette {
            // Δ outgrew the budget: the (degree+1) repair inequality no longer
            // holds, so re-establish the invariant with one full pass,
            // re-provisioning the originally requested headroom on top.
            let outcome = color_edges_local(graph, ids, params)?;
            self.coloring = outcome.coloring;
            self.palette = needed + self.headroom;
            return Ok(RepairReport {
                repaired_edges: graph.m(),
                full_recolor: true,
                touched: graph.edges().collect(),
                metrics: outcome.metrics,
            });
        }

        let report = repair_within_palette(graph, carried, self.palette, ids, params)?;
        self.coloring = report.0;
        Ok(report.1)
    }

    /// Re-tightens the palette budget to `2Δ − 1` of the current graph by
    /// recoloring from scratch (any provisioned headroom is dropped; use
    /// [`Recoloring::with_budget`] on a fresh session to re-provision).
    /// Useful after heavy deletions shrank Δ.
    ///
    /// # Errors
    ///
    /// Propagates any error of the underlying coloring algorithm.
    pub fn refresh(
        &mut self,
        dg: &DynamicGraph,
        ids: &IdAssignment,
        params: &ColoringParams,
    ) -> Result<RepairReport, ColoringError> {
        let (fresh, report) = Recoloring::color_initial(dg, ids, params)?;
        *self = fresh;
        Ok(report)
    }
}

/// Colors the uncolored edges of `carried` within the palette `{0, ..., P-1}`
/// by running the paper's LOCAL list-coloring machinery on the dirty
/// subgraph, and returns the completed coloring plus the repair report.
///
/// Invariant required of the caller: `P ≥ 2Δ(graph) − 1`, so that every
/// uncolored edge has at least `deg_H(e) + 1` available colors.
///
/// Shared with the self-stabilization layer ([`crate::stabilize`]), whose
/// dirty set is the post-fault conflict set instead of a mutation batch.
pub(crate) fn repair_within_palette(
    graph: &Graph,
    mut carried: EdgeColoring,
    palette: usize,
    ids: &IdAssignment,
    params: &ColoringParams,
) -> Result<(EdgeColoring, RepairReport), ColoringError> {
    let dirty: Vec<EdgeId> = graph.edges().filter(|&e| !carried.is_colored(e)).collect();
    if dirty.is_empty() {
        return Ok((
            carried,
            RepairReport {
                repaired_edges: 0,
                full_recolor: false,
                touched: Vec::new(),
                metrics: Metrics::new(),
            },
        ));
    }

    let (sub, sub_map) = graph.edge_subgraph(|e| !carried.is_colored(e));

    // Residual lists: palette minus the colors of adjacent clean edges in the
    // host graph. |L_e| ≥ P − (deg_G(e) − deg_H(e)) ≥ deg_H(e) + 1.
    let lists = ListAssignment::new(
        palette,
        sub.edges()
            .map(|e| {
                let host_edge = sub_map[e.index()];
                let used = carried.colors_around(graph, host_edge);
                (0..palette).filter(|c| !used.contains(c)).collect()
            })
            .collect(),
    );

    // Theorem 1.1 assumes a poly(Δ̄)-sized color space relative to the dirty
    // subgraph; tiny batches on huge-Δ hosts can violate it, in which case we
    // fall back to a deterministic greedy patch (still proper and within the
    // palette, by the same counting argument — it just skips the polylog
    // round bookkeeping).
    let sub_dbar = sub.max_edge_degree().max(1);
    let space_ok = palette <= (sub_dbar * sub_dbar * sub_dbar * sub_dbar).max(4096);

    let metrics = if space_ok {
        let outcome = list_edge_coloring(&sub, &lists, ids, params)?;
        carried.merge_mapped(&outcome.coloring, &sub_map);
        outcome.metrics
    } else {
        for e in sub.edges() {
            let host_edge = sub_map[e.index()];
            let used = carried.colors_around(graph, host_edge);
            let c: Color = (0..palette)
                .find(|c| !used.contains(c))
                .expect("P >= 2Δ−1 guarantees a free color");
            carried.set(host_edge, c);
        }
        Metrics::new()
    };

    Ok((
        carried,
        RepairReport {
            repaired_edges: dirty.len(),
            full_recolor: false,
            touched: dirty,
            metrics,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgraph::generators::{self, UpdateScenario, UpdateStream};
    use distgraph::UpdateBatch;
    use edgecolor_verify::{check_complete, check_palette_size, check_proper_edge_coloring};

    fn assert_valid(graph: &Graph, recoloring: &Recoloring) {
        check_proper_edge_coloring(graph, recoloring.coloring()).assert_ok();
        check_complete(graph, recoloring.coloring()).assert_ok();
        check_palette_size(recoloring.coloring(), recoloring.palette()).assert_ok();
    }

    #[test]
    fn initial_coloring_is_valid_and_budgeted() {
        let g = generators::grid_torus(6, 6);
        let mut dg = DynamicGraph::from_graph(g);
        let ids = IdAssignment::scattered(dg.n(), 1);
        let params = ColoringParams::new(0.5);
        let (rec, report) = Recoloring::color_initial(&dg, &ids, &params).unwrap();
        assert!(report.full_recolor);
        assert_eq!(report.repaired_edges, dg.m());
        assert_valid(dg.graph(), &rec);
        assert_eq!(rec.palette(), 2 * dg.graph().max_degree() - 1);
        // An empty batch repairs nothing.
        let mut rec = rec;
        let diff = dg.apply(&UpdateBatch::empty()).unwrap();
        let report = rec.repair(&dg, &diff, &ids, &params).unwrap();
        assert_eq!(report.repaired_edges, 0);
        assert!(!report.full_recolor);
    }

    #[test]
    fn local_repair_touches_only_the_batch() {
        let g = generators::grid_torus(8, 8);
        let mut dg = DynamicGraph::from_graph(g.clone());
        let ids = IdAssignment::scattered(dg.n(), 5);
        let params = ColoringParams::new(0.5);
        let (mut rec, _) = Recoloring::color_initial(&dg, &ids, &params).unwrap();
        let mut stream = UpdateStream::new(
            g,
            UpdateScenario::Churn {
                inserts: 3,
                deletes: 3,
            },
            9,
        );
        let mut local_repairs = 0;
        for _ in 0..8 {
            let batch = stream.next_batch();
            let diff = dg.apply(&batch).unwrap();
            // A full recolor happens exactly when Δ outgrew the budget.
            let expect_full = 2 * dg.graph().max_degree() - 1 > rec.palette();
            let report = rec.repair(&dg, &diff, &ids, &params).unwrap();
            assert_eq!(report.full_recolor, expect_full);
            if !report.full_recolor {
                local_repairs += 1;
                assert!(report.repaired_edges <= batch.insert.len());
            }
            assert_eq!(report.touched.len(), report.repaired_edges);
            assert_valid(dg.graph(), &rec);
        }
        assert!(local_repairs >= 4, "churn should mostly repair locally");
        assert_eq!(dg.graph(), stream.graph());
    }

    #[test]
    fn hub_attack_forces_full_recolor_when_palette_breaks() {
        let g = generators::grid_torus(6, 6); // Δ = 4, palette 7
        let mut dg = DynamicGraph::from_graph(g.clone());
        let ids = IdAssignment::scattered(dg.n(), 2);
        let params = ColoringParams::new(0.5);
        let (mut rec, _) = Recoloring::color_initial(&dg, &ids, &params).unwrap();
        let initial_palette = rec.palette();
        let mut stream = UpdateStream::new(
            g,
            UpdateScenario::HubAttack {
                hub: 0,
                burst: 4,
                deletes: 0,
            },
            4,
        );
        let mut full_recolors = 0;
        for _ in 0..6 {
            let batch = stream.next_batch();
            let diff = dg.apply(&batch).unwrap();
            let report = rec.repair(&dg, &diff, &ids, &params).unwrap();
            if report.full_recolor {
                full_recolors += 1;
            }
            assert_valid(dg.graph(), &rec);
        }
        assert!(
            full_recolors >= 1,
            "Δ grew past the budget, expected a fallback"
        );
        assert!(rec.palette() > initial_palette);
    }

    #[test]
    fn budget_headroom_absorbs_delta_growth() {
        let g = generators::grid_torus(6, 6); // Δ = 4
        let mut dg = DynamicGraph::from_graph(g);
        let ids = IdAssignment::contiguous(dg.n());
        let params = ColoringParams::new(0.5);
        // Reserve room for Δ up to 6.
        let (mut rec, _) = Recoloring::with_budget(&dg, &ids, &params, 11).unwrap();
        assert_eq!(rec.palette(), 11);
        let diff = dg
            .apply(&UpdateBatch {
                delete: vec![],
                insert: vec![(0, 2), (0, 7)], // node 0 reaches degree 6
            })
            .unwrap();
        let report = rec.repair(&dg, &diff, &ids, &params).unwrap();
        assert!(!report.full_recolor, "headroom should absorb the growth");
        assert_valid(dg.graph(), &rec);
        // Push Δ past the budget: the fallback must re-provision the same
        // slack (headroom 11 − 7 = 4) instead of degrading to a tight budget.
        let diff = dg
            .apply(&UpdateBatch {
                delete: vec![],
                insert: vec![(0, 8), (0, 9)], // node 0 reaches degree 8
            })
            .unwrap();
        let report = rec.repair(&dg, &diff, &ids, &params).unwrap();
        assert!(report.full_recolor);
        assert_eq!(rec.palette(), default_palette(8) + 4);
        assert_valid(dg.graph(), &rec);
        // An undersized budget is rejected up front.
        let err = Recoloring::with_budget(&dg, &ids, &params, 3).unwrap_err();
        assert!(matches!(err, ColoringError::InvalidParameter { .. }));
    }

    #[test]
    fn refresh_retightens_the_palette_after_deletions() {
        let g = generators::star(12); // Δ = 12, palette 23
        let mut dg = DynamicGraph::from_graph(g);
        let ids = IdAssignment::contiguous(dg.n());
        let params = ColoringParams::new(0.5);
        let (mut rec, _) = Recoloring::color_initial(&dg, &ids, &params).unwrap();
        assert_eq!(rec.palette(), 23);
        // Delete most of the star: Δ drops to 2.
        let doomed: Vec<EdgeId> = (0..10).map(EdgeId::new).collect();
        let diff = dg
            .apply(&UpdateBatch {
                delete: doomed,
                insert: vec![],
            })
            .unwrap();
        rec.repair(&dg, &diff, &ids, &params).unwrap();
        assert_eq!(rec.palette(), 23, "repair never shrinks the budget");
        assert_valid(dg.graph(), &rec);
        let report = rec.refresh(&dg, &ids, &params).unwrap();
        assert!(report.full_recolor);
        assert_eq!(rec.palette(), 2 * dg.graph().max_degree() - 1);
        assert_valid(dg.graph(), &rec);
    }

    #[test]
    fn greedy_patch_handles_tiny_batches_on_oversized_palettes() {
        // A palette larger than the poly(Δ̄) space bound of Theorem 1.1 (as
        // happens when a tiny batch lands on a huge-Δ host) must take the
        // deterministic greedy-patch path and still produce a proper,
        // in-palette completion.
        let g = generators::grid_torus(5, 5);
        let ids = IdAssignment::contiguous(g.n());
        let params = ColoringParams::new(0.5);
        let mut carried = EdgeColoring::empty(g.m());
        // Color everything except three edges with a proper baseline.
        let full = color_edges_local(&g, &ids, &params).unwrap().coloring;
        for e in g.edges() {
            if e.index() >= 3 {
                carried.set(e, full.color(e).unwrap());
            }
        }
        let palette = 5000; // > 4096 space cap, sub graph Δ̄ is tiny
        let (completed, report) =
            repair_within_palette(&g, carried, palette, &ids, &params).unwrap();
        assert_eq!(report.repaired_edges, 3);
        assert!(!report.full_recolor);
        assert_eq!(
            report.metrics,
            Metrics::new(),
            "greedy patch charges no rounds"
        );
        check_proper_edge_coloring(&g, &completed).assert_ok();
        check_complete(&g, &completed).assert_ok();
        check_palette_size(&completed, palette).assert_ok();
    }
}
