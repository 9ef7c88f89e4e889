//! Replays a tenant's batch log through the same public calls a tick makes.
//!
//! The plain replay is the correctness gate's reference: it must reproduce
//! the served graph and coloring bit for bit. The timed replay runs each
//! batch the way a tick does — pin the published state, clone it, apply,
//! repair, stabilize, publish the successor behind a `RwLock<Arc<_>>` and
//! drop the old state — and times every phase. It also calls
//! `carry_coloring`, `edge_subgraph` and `list_edge_coloring` once more on
//! their own, exactly as the repair does internally, to time them apart and
//! read their round ledger.

use crate::alloc;
use crate::stats::median;
use distgraph::{DynamicGraph, ListAssignment, UpdateBatch};
use distsim::IdAssignment;
use diststore::LoadedSnapshot;
use edgecolor::{
    default_palette, list_edge_coloring, ColoringParams, Recoloring, RepairReport, SelfStabilizing,
    StabilizationReport,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::Instant;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-batch phase times (ms) and totals of the timed replay.
#[derive(Debug, Default)]
pub struct Phases {
    /// `DynamicGraph` + `SelfStabilizing` clone.
    pub clone_ms: Vec<f64>,
    /// `DynamicGraph::apply`.
    pub apply_ms: Vec<f64>,
    /// `BatchDiff::carry_coloring`.
    pub carry_ms: Vec<f64>,
    /// `Graph::edge_subgraph` over the uncolored edges.
    pub subgraph_ms: Vec<f64>,
    /// `SelfStabilizing::repair` (carry, subgraph and rounds included).
    pub repair_ms: Vec<f64>,
    /// `SelfStabilizing::stabilize`.
    pub stabilize_ms: Vec<f64>,
    /// Publishing the successor state and dropping the old one.
    pub publish_ms: Vec<f64>,
    /// Wall time of the standalone `list_edge_coloring` calls.
    pub rounds_ms: f64,
    /// Allocations of the standalone `list_edge_coloring` calls.
    pub rounds_allocs: alloc::Counts,
    /// Rounds of the standalone calls (equal to the repairs' rounds).
    pub list_rounds: u64,
    /// Outer iterations summed over the standalone calls.
    pub outer_iterations: u64,
    /// Slack-solver calls summed over the standalone calls.
    pub solver_calls: u64,
    /// Fallback rounds summed over the standalone calls.
    pub fallback_rounds: u64,
    /// Ledger rounds per stage summed over the standalone calls.
    pub stage_rounds: BTreeMap<&'static str, u64>,
}

impl Phases {
    /// Median per-batch time of every phase, `(name, ms)`.
    pub fn medians(&self) -> Vec<(&'static str, f64)> {
        let m = |v: &Vec<f64>| if v.is_empty() { 0.0 } else { median(v) };
        vec![
            ("graph.dynamic.clone_ms", m(&self.clone_ms)),
            ("graph.dynamic.apply_ms", m(&self.apply_ms)),
            ("graph.dynamic.carry_ms", m(&self.carry_ms)),
            ("graph.edge_subgraph_ms", m(&self.subgraph_ms)),
            ("core.recolor.repair_ms", m(&self.repair_ms)),
            ("core.stabilize.ms", m(&self.stabilize_ms)),
            ("serve.tick.other_ms", m(&self.publish_ms)),
        ]
    }
}

/// The outcome of a replay.
#[derive(Debug)]
pub struct Replayed {
    /// The replayed graph.
    pub dg: DynamicGraph,
    /// The replayed coloring session.
    pub stab: SelfStabilizing,
    /// `Recoloring::adopt` of the snapshot's coloring, ms.
    pub adopt_ms: f64,
    /// Work counts summed over every replayed batch.
    pub totals: Totals,
    /// Phase times, for a timed replay.
    pub phases: Option<Phases>,
}

/// Exact work counts of the replayed repairs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Edges the repairs colored.
    pub dirty_edges: u64,
    /// Rounds of the repairs.
    pub rounds: u64,
    /// Messages of the repairs.
    pub messages: u64,
    /// Bits of the repairs' messages.
    pub total_bits: u64,
    /// Repairs that fell back to a full recolor.
    pub full_recolors: u64,
    /// Conflicts `stabilize` found.
    pub conflicts: u64,
}

impl Totals {
    fn add(&mut self, report: &RepairReport, srep: &StabilizationReport) {
        self.dirty_edges += report.repaired_edges as u64;
        self.rounds += report.metrics.rounds;
        self.messages += report.metrics.messages;
        self.total_bits += report.metrics.total_bits;
        self.full_recolors += u64::from(report.full_recolor);
        self.conflicts += srep.conflicts_found as u64;
    }
}

/// Boots the session a tenant boots from the snapshot at `path`: the
/// stored coloring adopted under the tenant's palette budget.
///
/// # Errors
///
/// If the snapshot fails to load, carries no coloring, or the coloring
/// fails the adoption audit.
pub fn boot_session(
    path: &Path,
    headroom: usize,
) -> Result<(DynamicGraph, SelfStabilizing, f64), String> {
    let loaded = LoadedSnapshot::load_path(path).map_err(err)?;
    let coloring = loaded
        .coloring()
        .cloned()
        .ok_or("the snapshot carries no coloring")?;
    let dg = loaded.into_dynamic().map_err(err)?;
    let budget = default_palette(dg.graph().max_degree() + headroom).max(coloring.palette_size());
    let t = Instant::now();
    let rec = Recoloring::adopt(&dg, coloring, budget).map_err(err)?;
    Ok((dg, SelfStabilizing::new(rec), ms_since(t)))
}

/// Replays `log` from the snapshot at `path`; `timed` selects the timed
/// replay.
///
/// # Errors
///
/// If booting fails or any logged batch fails to apply or repair.
pub fn replay(
    path: &Path,
    log: &[(u64, UpdateBatch)],
    headroom: usize,
    ids: &IdAssignment,
    params: &ColoringParams,
    timed: bool,
) -> Result<Replayed, String> {
    let (mut dg, mut stab, adopt_ms) = boot_session(path, headroom)?;
    let mut totals = Totals::default();
    if !timed {
        for (_, batch) in log {
            let diff = dg.apply(batch).map_err(err)?;
            let report = stab.repair(&dg, &diff, ids, params).map_err(err)?;
            let srep = stab
                .stabilize(&dg, &report.touched, ids, params)
                .map_err(err)?;
            totals.add(&report, &srep);
        }
        return Ok(Replayed {
            dg,
            stab,
            adopt_ms,
            totals,
            phases: None,
        });
    }

    let mut ph = Phases::default();
    let published = RwLock::new(Arc::new((dg, stab)));
    for (_, batch) in log {
        let cur = Arc::clone(&published.read().expect("replay lock"));
        let t = Instant::now();
        let (mut dg, mut stab) = (cur.0.clone(), cur.1.clone());
        ph.clone_ms.push(ms_since(t));

        let t = Instant::now();
        let diff = dg.apply(batch).map_err(err)?;
        ph.apply_ms.push(ms_since(t));

        time_standalone(&mut ph, &dg, &diff, &stab, ids, params)?;

        let t = Instant::now();
        let report = stab.repair(&dg, &diff, ids, params).map_err(err)?;
        ph.repair_ms.push(ms_since(t));

        let t = Instant::now();
        let srep = stab
            .stabilize(&dg, &report.touched, ids, params)
            .map_err(err)?;
        ph.stabilize_ms.push(ms_since(t));
        totals.add(&report, &srep);

        let t = Instant::now();
        *published.write().expect("replay lock") = Arc::new((dg, stab));
        drop(cur);
        ph.publish_ms.push(ms_since(t));
    }
    let (dg, stab) = Arc::into_inner(published.into_inner().expect("replay lock"))
        .expect("the replay holds the only reference");
    Ok(Replayed {
        dg,
        stab,
        adopt_ms,
        totals,
        phases: Some(ph),
    })
}

/// Times `carry_coloring`, `edge_subgraph` and the repair's
/// `list_edge_coloring` call on their own, rebuilding the residual lists
/// exactly as the repair does.
fn time_standalone(
    ph: &mut Phases,
    dg: &DynamicGraph,
    diff: &distgraph::BatchDiff,
    stab: &SelfStabilizing,
    ids: &IdAssignment,
    params: &ColoringParams,
) -> Result<(), String> {
    let graph = dg.graph();
    let t = Instant::now();
    let carried = diff.carry_coloring(stab.coloring());
    ph.carry_ms.push(ms_since(t));

    let t = Instant::now();
    let (sub, map) = graph.edge_subgraph(|e| !carried.is_colored(e));
    ph.subgraph_ms.push(ms_since(t));
    if sub.m() == 0 {
        return Ok(());
    }

    let palette = stab.palette();
    let lists = ListAssignment::new(
        palette,
        sub.edges()
            .map(|e| {
                let used = carried.colors_around(graph, map[e.index()]);
                (0..palette).filter(|c| !used.contains(c)).collect()
            })
            .collect(),
    );
    let t = Instant::now();
    let (outcome, counts) = alloc::counted(|| list_edge_coloring(&sub, &lists, ids, params));
    ph.rounds_ms += ms_since(t);
    let outcome = outcome.map_err(err)?;
    ph.rounds_allocs.allocs += counts.allocs;
    ph.rounds_allocs.bytes += counts.bytes;
    ph.list_rounds += outcome.metrics.rounds;
    ph.outer_iterations += u64::from(outcome.outer_iterations);
    ph.solver_calls += outcome.solver_calls;
    ph.fallback_rounds += outcome.fallback_rounds;
    for stage in crate::report::LEDGER_STAGES {
        *ph.stage_rounds.entry(stage).or_default() += outcome.ledger.rounds_for(stage);
    }
    Ok(())
}
