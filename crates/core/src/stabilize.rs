//! Self-stabilizing repair: detecting and healing post-fault conflicts in a
//! maintained edge coloring.
//!
//! The fault adversary of `distsim` ([`distsim::FaultPlan`]) can leave a
//! distributed coloring session in an inconsistent state: a node that
//! crashed or sat behind a severed shard link missed recoloring messages and
//! still holds a *stale* color, so two adjacent edges may now disagree with
//! the proper-coloring invariant. [`SelfStabilizing`] closes the loop:
//!
//! 1. **detect** — run [`edgecolor_verify::check_delta`] over the set of
//!    edges the faults may have touched (`O(|touched| · Δ)`, not `O(m)`);
//! 2. **uncolor** — strip the color of every edge implicated in a violation
//!    (both sides of a conflict, uncolored edges, out-of-palette edges);
//! 3. **repair** — rerun the paper's Theorem 1.1 list-coloring machinery on
//!    the dirty subgraph only, with residual lists, exactly like a dynamic
//!    repair batch ([`Recoloring::repair`]); the Lemma D.1 argument
//!    (`|L_e| ≥ deg_H(e) + 1` against a `2Δ − 1` palette) applies verbatim,
//!    because uncoloring edges only ever *grows* residual lists.
//!
//! The result is checker-equivalent to a from-scratch coloring of the same
//! graph — same proper/complete/palette guarantees — while touching only the
//! conflict neighborhood (`tests/self_stabilization.rs` pins this on the
//! generator matrix).
//!
//! Like everything else in the repair pipeline, stabilization is
//! deterministic: the same corruption (same [`distsim::FaultPlan`]-style
//! seed) heals to the same coloring on every replay.

use crate::error::ColoringError;
use crate::params::ColoringParams;
use crate::recolor::{repair_within_palette, Recoloring};
use distgraph::{Color, DynamicGraph, EdgeId, Graph};
use distsim::{IdAssignment, Metrics};
use edgecolor_verify::{check_delta, Violation};

/// What one [`SelfStabilizing::stabilize`] call found and did.
#[derive(Debug, Clone)]
pub struct StabilizationReport {
    /// Violations found by the incremental detector over the suspect set.
    pub conflicts_found: usize,
    /// Edges whose colors were stripped and recomputed.
    pub repaired_edges: usize,
    /// Simulated execution cost of the repair pass (zero when the suspect
    /// set was clean).
    pub metrics: Metrics,
    /// The edges the stabilization rewrote — hand these to
    /// [`edgecolor_verify::check_delta`] to certify the result.
    pub touched: Vec<EdgeId>,
    /// `true` when this call widened detection to every edge of the graph
    /// (the [`SelfStabilizing::with_full_sweep_every`] escape hatch fired).
    pub full_sweep: bool,
}

impl StabilizationReport {
    /// `true` when the suspect set was already consistent and nothing was
    /// rewritten.
    pub fn was_clean(&self) -> bool {
        self.conflicts_found == 0
    }
}

/// A [`Recoloring`] session wrapped with fault detection and repair; see the
/// [module docs](self).
///
/// # Examples
///
/// ```
/// use distgraph::{generators, DynamicGraph};
/// use distsim::IdAssignment;
/// use edgecolor::{ColoringParams, Recoloring, SelfStabilizing};
/// use edgecolor_verify::{check_complete, check_proper_edge_coloring};
///
/// let dg = DynamicGraph::from_graph(generators::grid_torus(6, 6));
/// let ids = IdAssignment::scattered(dg.n(), 1);
/// let params = ColoringParams::new(0.5);
/// let (rec, _) = Recoloring::color_initial(&dg, &ids, &params)?;
/// let mut session = SelfStabilizing::new(rec);
///
/// // An adversary corrupts 5 seed-chosen edges (stale colors after faults).
/// let touched = session.inject_corruption(dg.graph(), 42, 5);
/// assert!(!touched.is_empty());
///
/// // Detect on the touched set only, then repair the dirty subgraph.
/// let report = session.stabilize(&dg, &touched, &ids, &params)?;
/// assert!(report.conflicts_found > 0);
/// check_proper_edge_coloring(dg.graph(), session.coloring()).assert_ok();
/// check_complete(dg.graph(), session.coloring()).assert_ok();
/// # Ok::<(), edgecolor::ColoringError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SelfStabilizing {
    rec: Recoloring,
    stabilizations: u64,
    conflicts_total: u64,
    repaired_total: u64,
    full_sweep_every: Option<u64>,
}

impl SelfStabilizing {
    /// Wraps an existing recoloring session.
    pub fn new(rec: Recoloring) -> Self {
        SelfStabilizing {
            rec,
            stabilizations: 0,
            conflicts_total: 0,
            repaired_total: 0,
            full_sweep_every: None,
        }
    }

    /// Enables the periodic full-sweep escape hatch: every `period`-th
    /// [`stabilize`](SelfStabilizing::stabilize) call widens the suspect set
    /// to *all* edges of the graph, so a stale conflict strictly outside the
    /// reported fault neighborhood (the documented out-of-contract case of
    /// [`check_delta`]) is still detected and healed within `period` calls.
    ///
    /// The sweep costs one `O(m · Δ)` detection pass; the repair itself
    /// stays proportional to the conflicts actually found. Off by default —
    /// sessions that trust their suspect sets keep the incremental
    /// `O(|touched| · Δ)` bound on every call.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_full_sweep_every(mut self, period: u64) -> Self {
        assert!(period > 0, "full-sweep period must be positive");
        self.full_sweep_every = Some(period);
        self
    }

    /// The wrapped session.
    pub fn recoloring(&self) -> &Recoloring {
        &self.rec
    }

    /// The maintained coloring.
    pub fn coloring(&self) -> &distgraph::EdgeColoring {
        self.rec.coloring()
    }

    /// The palette budget of the wrapped session.
    pub fn palette(&self) -> usize {
        self.rec.palette()
    }

    /// `(stabilize calls, conflicts found, edges repaired)` over the
    /// session's lifetime.
    pub fn lifetime_stats(&self) -> (u64, u64, u64) {
        (
            self.stabilizations,
            self.conflicts_total,
            self.repaired_total,
        )
    }

    /// Deterministically corrupts exactly `min(count, m)` seed-chosen
    /// edges — the
    /// adversarial post-fault state where nodes hold stale colors: each
    /// picked edge's color is shifted within the palette (guaranteeing a
    /// *changed* color), and every third one is uncolored instead (a node
    /// that crashed before committing any color). Returns the corrupted
    /// edge set — the `suspects` input of [`SelfStabilizing::stabilize`].
    ///
    /// The same `(seed, count)` always corrupts the same edges the same
    /// way, so fault scenarios replay bit-identically.
    pub fn inject_corruption(&mut self, graph: &Graph, seed: u64, count: usize) -> Vec<EdgeId> {
        let m = graph.m();
        if m == 0 || count == 0 {
            return Vec::new();
        }
        let wanted = count.min(m);
        let palette = self.rec.palette();
        let coloring = self.rec.coloring_mut();
        let mut touched = Vec::with_capacity(wanted);
        let mut state = seed;
        let mut picked = std::collections::HashSet::new();
        let mut corrupt_one = |e: EdgeId, z: u64, picked_len: usize| {
            if picked_len.is_multiple_of(3) {
                coloring.unset(e);
            } else {
                let old = coloring.color(e).unwrap_or(0);
                let shift = 1 + (z >> 32) as usize % (palette.max(2) - 1);
                let stale: Color = (old + shift) % palette.max(1);
                coloring.set(e, stale);
            }
        };
        // SplitMix64 stream over the seed (the same primitive the fault
        // adversary's decisions hash with); already-picked edges are
        // skipped, and a bounded attempt budget keeps the draw cheap.
        for _ in 0..wanted * 4 {
            if touched.len() >= wanted {
                break;
            }
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = distsim::faults::splitmix64(state);
            let e = EdgeId::new((z % m as u64) as usize);
            if !picked.insert(e) {
                continue;
            }
            corrupt_one(e, z, picked.len());
            touched.push(e);
        }
        // Collision fallback (relevant when `count` approaches `m`, where
        // the bounded stream cannot cover every edge): walk the remaining
        // edges in index order — still a pure function of `(seed, count)`,
        // and now guaranteed to corrupt exactly `min(count, m)` edges.
        let mut next = 0usize;
        while touched.len() < wanted {
            let e = EdgeId::new(next);
            next += 1;
            if !picked.insert(e) {
                continue;
            }
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            corrupt_one(e, distsim::faults::splitmix64(state), picked.len());
            touched.push(e);
        }
        touched
    }

    /// Applies a mutation-batch repair to the wrapped session — a
    /// passthrough to [`Recoloring::repair`], so a long-lived owner (for
    /// example the serving daemon of `crates/serve`) can drive the whole
    /// maintain–detect–heal lifecycle through one handle: `repair` after
    /// every [`DynamicGraph::apply`], `stabilize` whenever faults are
    /// suspected.
    ///
    /// # Errors
    ///
    /// Propagates errors of the underlying coloring machinery.
    pub fn repair(
        &mut self,
        dg: &DynamicGraph,
        diff: &distgraph::BatchDiff,
        ids: &IdAssignment,
        params: &ColoringParams,
    ) -> Result<crate::recolor::RepairReport, ColoringError> {
        self.rec.repair(dg, diff, ids, params)
    }

    /// Detects conflicts in the `suspects` neighborhood and repairs them.
    ///
    /// `suspects` is the set of edges faults may have corrupted (for an
    /// injected corruption, the return value of
    /// [`SelfStabilizing::inject_corruption`]; for a faulty distributed run,
    /// the edges incident to crashed nodes or severed links). Per the
    /// [`check_delta`] contract, conflicts entirely *outside* the suspect
    /// neighborhood are out of scope — run the `O(m)` checkers for a full
    /// audit, or enable [`SelfStabilizing::with_full_sweep_every`] to fold
    /// that audit into the stabilization loop periodically.
    ///
    /// # Errors
    ///
    /// Propagates errors of the underlying coloring machinery.
    pub fn stabilize(
        &mut self,
        dg: &DynamicGraph,
        suspects: &[EdgeId],
        ids: &IdAssignment,
        params: &ColoringParams,
    ) -> Result<StabilizationReport, ColoringError> {
        let graph = dg.graph();
        self.stabilizations += 1;
        // The escape hatch: on every `period`-th call, detection runs over
        // the whole edge set so conflicts the caller's suspect set missed
        // cannot survive indefinitely.
        let full_sweep = self
            .full_sweep_every
            .is_some_and(|period| self.stabilizations.is_multiple_of(period));
        let swept: Vec<EdgeId>;
        let suspects: &[EdgeId] = if full_sweep {
            swept = graph.edges().collect();
            &swept
        } else {
            suspects
        };
        let detection = check_delta(graph, self.rec.coloring(), suspects, self.rec.palette());
        if detection.is_ok() {
            return Ok(StabilizationReport {
                conflicts_found: 0,
                repaired_edges: 0,
                metrics: Metrics::new(),
                touched: Vec::new(),
                full_sweep,
            });
        }

        // Uncolor every edge implicated in a violation. Stripping both sides
        // of a conflict keeps the repair symmetric (no arbitrary winner) and
        // only grows the residual lists the Lemma D.1 argument needs.
        let mut dirty: Vec<EdgeId> = Vec::new();
        for violation in detection.violations() {
            match violation {
                Violation::AdjacentEdgesShareColor { a, b, .. } => {
                    dirty.push(*a);
                    dirty.push(*b);
                }
                Violation::EdgeUncolored { edge } => dirty.push(*edge),
                Violation::TooManyColors { .. } => {}
                _ => {}
            }
        }
        // Out-of-palette colors carry no edge in the violation; strip every
        // suspect whose color breaks the budget.
        for &e in suspects {
            if self
                .rec
                .coloring()
                .color(e)
                .is_some_and(|c| c >= self.rec.palette())
            {
                dirty.push(e);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();

        let mut carried = self.rec.coloring().clone();
        for &e in &dirty {
            carried.unset(e);
        }

        let palette = self.rec.palette();
        let (healed, repair) = repair_within_palette(graph, carried, palette, ids, params)?;
        self.rec.replace_coloring(healed);
        self.conflicts_total += detection.violations().len() as u64;
        self.repaired_total += repair.repaired_edges as u64;
        Ok(StabilizationReport {
            conflicts_found: detection.violations().len(),
            repaired_edges: repair.repaired_edges,
            metrics: repair.metrics,
            touched: repair.touched,
            full_sweep,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgraph::generators;
    use edgecolor_verify::{check_complete, check_palette_size, check_proper_edge_coloring};

    fn session(seed: u64) -> (DynamicGraph, IdAssignment, ColoringParams, SelfStabilizing) {
        let dg = DynamicGraph::from_graph(generators::grid_torus(8, 8));
        let ids = IdAssignment::scattered(dg.n(), seed);
        let params = ColoringParams::new(0.5);
        let (rec, _) = Recoloring::color_initial(&dg, &ids, &params).unwrap();
        (dg, ids, params, SelfStabilizing::new(rec))
    }

    #[test]
    fn clean_suspect_set_is_a_no_op() {
        let (dg, ids, params, mut session) = session(1);
        let before = session.coloring().clone();
        let suspects: Vec<EdgeId> = dg.graph().edges().take(10).collect();
        let report = session.stabilize(&dg, &suspects, &ids, &params).unwrap();
        assert!(report.was_clean());
        assert_eq!(report.repaired_edges, 0);
        assert_eq!(session.coloring(), &before);
    }

    #[test]
    fn corruption_is_detected_and_healed() {
        let (dg, ids, params, mut session) = session(3);
        let touched = session.inject_corruption(dg.graph(), 99, 12);
        assert_eq!(touched.len(), 12);
        // The corruption genuinely breaks the coloring.
        assert!(
            !check_proper_edge_coloring(dg.graph(), session.coloring()).is_ok()
                || !check_complete(dg.graph(), session.coloring()).is_ok()
        );
        let report = session.stabilize(&dg, &touched, &ids, &params).unwrap();
        assert!(report.conflicts_found > 0);
        assert!(report.repaired_edges >= report.conflicts_found.min(1));
        // Fully healed, within the original budget.
        check_proper_edge_coloring(dg.graph(), session.coloring()).assert_ok();
        check_complete(dg.graph(), session.coloring()).assert_ok();
        check_palette_size(session.coloring(), session.palette()).assert_ok();
        // The repair's own delta certificate is clean.
        check_delta(
            dg.graph(),
            session.coloring(),
            &report.touched,
            session.palette(),
        )
        .assert_ok();
        let (calls, conflicts, repaired) = session.lifetime_stats();
        assert_eq!(calls, 1);
        assert!(conflicts > 0 && repaired > 0);
    }

    #[test]
    fn corruption_is_deterministic() {
        let (dg, ids, params, mut a) = session(5);
        let (_, _, _, mut b) = session(5);
        let ta = a.inject_corruption(dg.graph(), 7, 9);
        let tb = b.inject_corruption(dg.graph(), 7, 9);
        assert_eq!(ta, tb);
        assert_eq!(a.coloring(), b.coloring());
        let ra = a.stabilize(&dg, &ta, &ids, &params).unwrap();
        let rb = b.stabilize(&dg, &tb, &ids, &params).unwrap();
        assert_eq!(a.coloring(), b.coloring());
        assert_eq!(ra.touched, rb.touched);
        assert_eq!(ra.conflicts_found, rb.conflicts_found);
    }

    #[test]
    fn repeated_stabilization_converges_to_clean() {
        let (dg, ids, params, mut session) = session(11);
        let touched = session.inject_corruption(dg.graph(), 1, 20);
        session.stabilize(&dg, &touched, &ids, &params).unwrap();
        // Second pass over the same suspects: nothing left to do.
        let second = session.stabilize(&dg, &touched, &ids, &params).unwrap();
        assert!(second.was_clean());
    }

    #[test]
    fn full_graph_corruption_is_exact_and_heals() {
        // `count == m` forces the collision fallback: exactly m distinct
        // edges must be corrupted, and the session must still heal.
        let (dg, ids, params, mut session) = session(13);
        let m = dg.m();
        let touched = session.inject_corruption(dg.graph(), 4, m);
        assert_eq!(touched.len(), m, "every edge corrupted exactly once");
        let mut unique: Vec<EdgeId> = touched.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), m);
        let report = session.stabilize(&dg, &touched, &ids, &params).unwrap();
        assert!(report.conflicts_found > 0);
        check_proper_edge_coloring(dg.graph(), session.coloring()).assert_ok();
        check_complete(dg.graph(), session.coloring()).assert_ok();
        check_palette_size(session.coloring(), session.palette()).assert_ok();
    }

    /// The promoted stale-conflict case: `crates/verify/tests/adversarial.rs`
    /// documents that a conflict strictly outside the touched neighborhood is
    /// invisible to `check_delta` — out of contract for the incremental
    /// checker. With the full-sweep escape hatch enabled, the stabilization
    /// loop *does* contract to catch it: within one period, the sweep call
    /// widens detection to every edge, finds the stale pair, and heals it.
    #[test]
    fn full_sweep_escape_hatch_heals_stale_conflicts_outside_the_suspect_set() {
        let (dg, ids, params, session) = session(17);
        let mut session = session.with_full_sweep_every(2);
        let graph = dg.graph();
        let corrupted = session.inject_corruption(graph, 23, 4);

        // Build a suspect set strictly outside the corrupted neighborhood:
        // no corrupted edge, and no edge adjacent to one, so `check_delta`
        // over it cannot see any of the injected conflicts.
        let mut hot = std::collections::HashSet::new();
        for &e in &corrupted {
            hot.insert(e);
            let (u, v) = graph.endpoints(e);
            for nb in graph.neighbors(u).iter().chain(graph.neighbors(v)) {
                hot.insert(nb.edge);
            }
        }
        let far: Vec<EdgeId> = graph.edges().filter(|e| !hot.contains(e)).take(8).collect();
        assert_eq!(far.len(), 8, "grid torus leaves plenty of far edges");

        // Call 1 (no sweep): the stale corruption is outside the suspect
        // neighborhood, so the incremental detector reports clean — the
        // documented out-of-contract behavior...
        let first = session.stabilize(&dg, &far, &ids, &params).unwrap();
        assert!(first.was_clean());
        assert!(!first.full_sweep);
        assert!(
            !check_proper_edge_coloring(graph, session.coloring()).is_ok()
                || !check_complete(graph, session.coloring()).is_ok()
        );

        // ...call 2 (the period-th call) sweeps the full edge set, catches
        // the stale conflicts, and heals them within the palette budget.
        let second = session.stabilize(&dg, &far, &ids, &params).unwrap();
        assert!(second.full_sweep);
        assert!(second.conflicts_found > 0);
        check_proper_edge_coloring(graph, session.coloring()).assert_ok();
        check_complete(graph, session.coloring()).assert_ok();
        check_palette_size(session.coloring(), session.palette()).assert_ok();
    }

    #[test]
    fn full_sweep_period_one_sweeps_every_call() {
        let (dg, ids, params, session) = session(19);
        let mut session = session.with_full_sweep_every(1);
        let report = session.stabilize(&dg, &[], &ids, &params).unwrap();
        assert!(report.full_sweep);
        assert!(report.was_clean());
    }

    #[test]
    #[should_panic(expected = "full-sweep period must be positive")]
    fn full_sweep_period_zero_is_rejected() {
        let (_, _, _, session) = session(21);
        let _ = session.with_full_sweep_every(0);
    }

    #[test]
    fn empty_graph_and_zero_count_are_safe() {
        let dg = DynamicGraph::from_graph(generators::path(1));
        let ids = IdAssignment::contiguous(1);
        let params = ColoringParams::new(0.5);
        let (rec, _) = Recoloring::color_initial(&dg, &ids, &params).unwrap();
        let mut session = SelfStabilizing::new(rec);
        assert!(session.inject_corruption(dg.graph(), 3, 0).is_empty());
        assert!(session.inject_corruption(dg.graph(), 3, 5).is_empty());
        let report = session.stabilize(&dg, &[], &ids, &params).unwrap();
        assert!(report.was_clean());
    }
}
