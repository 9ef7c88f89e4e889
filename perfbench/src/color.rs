//! The color workload: `color_edges_local` on a random regular graph
//! decoded from a snapshot. No daemon runs; the recursion and the round
//! engine do all the work.

use crate::report::{Report, LEDGER_STAGES};
use crate::stats::{self, median, median_of_sorted};
use crate::{alloc, peak_rss_mb};
use distsim::IdAssignment;
use diststore::{load_graph, Snapshot};
use edgecolor::{color_edges_local, default_palette, ColoringParams, ListColoringOutcome};
use edgecolor_verify::{check_complete, check_palette_size, check_proper_edge_coloring};
use std::path::Path;
use std::time::Instant;

/// One color workload.
#[derive(Debug, Clone)]
pub struct ColorSpec {
    /// Nodes.
    pub n: usize,
    /// Degree.
    pub d: usize,
}

/// Decodes `setup_s` takes its median over.
const SETUPS: usize = 9;

/// Colors the graph of the snapshot at `path` repeatedly until `seconds`
/// have passed (at least once) and returns the report. Every coloring must
/// be proper, complete, within `2Δ − 1` colors and identical to the first.
///
/// # Errors
///
/// If the snapshot cannot be decoded or a coloring run fails.
pub fn run(path: &Path, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut r = Report::default();
    let (mut setups, mut open, mut load) = (Vec::new(), Vec::new(), Vec::new());
    let mut graph = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let snap = Snapshot::open(path).map_err(|e| e.to_string())?;
        open.push(t0.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let g = load_graph(&snap).map_err(|e| e.to_string())?;
        load.push(t.elapsed().as_secs_f64() * 1e3);
        setups.push(t0.elapsed().as_secs_f64());
        r.set("store.file_mb", snap.file_len() as f64 / 1e6);
        graph = Some(g);
    }
    let graph = graph.expect("at least one decode");
    r.set("setup_s", median(&setups));
    r.set("store.open_ms", median(&open));
    r.set("store.load_ms", median(&load));

    let ids = IdAssignment::scattered(graph.n(), 1);
    let params = ColoringParams::new(0.5);
    let mut times = Vec::new();
    let mut first: Option<ListColoringOutcome> = None;
    let before = alloc::counts();
    alloc::set_counting(trace);
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let outcome = color_edges_local(&graph, &ids, &params).map_err(|e| e.to_string());
        times.push(t.elapsed().as_secs_f64());
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                alloc::set_counting(false);
                return Err(e);
            }
        };
        match &first {
            None => first = Some(outcome),
            Some(f) => r.check(
                f.coloring == outcome.coloring && f.metrics == outcome.metrics,
                || "two colorings of the same input differ".into(),
            ),
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    alloc::set_counting(false);
    let counts = alloc::counts().since(before);
    r.set("peak_rss_mb", peak_rss_mb()?);
    let out = first.expect("at least one coloring");

    let budget = default_palette(graph.max_degree());
    r.check(
        check_proper_edge_coloring(&graph, &out.coloring).is_ok(),
        || "the coloring is not proper".into(),
    );
    r.check(check_complete(&graph, &out.coloring).is_ok(), || {
        "the coloring is not complete".into()
    });
    r.check(check_palette_size(&out.coloring, budget).is_ok(), || {
        format!("the coloring uses more than 2Δ−1 = {budget} colors")
    });

    let runs = times.len();
    r.attempted = runs as u64;
    let sorted_ms = stats::sorted(&times.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let tail = stats::tail(&sorted_ms);
    r.set("op_p50_ms", median_of_sorted(&sorted_ms));
    r.set("op_tail_ms", tail.value);
    r.set("ops_s", runs as f64 / times.iter().sum::<f64>());
    r.notes.push(format!(
        "op tail is p{} of {} colorings",
        tail.percentile, tail.samples
    ));
    let color_s = median(&times);
    let rounds = out.metrics.rounds as f64;
    r.set("color_s", color_s);
    r.set("rounds", rounds);
    r.set("colors_used", out.colors_used as f64);
    r.set("loadgen.attempted", runs as f64);
    r.set("failed_share", 0.0);
    r.set("sim.network.round_ms", color_s * 1e3 / rounds.max(1.0));
    r.set("sim.network.messages", out.metrics.messages as f64);
    r.set("sim.network.total_bits", out.metrics.total_bits as f64);
    r.set(
        "core.list_coloring.outer_iterations",
        f64::from(out.outer_iterations),
    );
    r.set("core.list_coloring.solver_calls", out.solver_calls as f64);
    r.set(
        "sim.ledger.fallback_share",
        out.fallback_rounds as f64 / rounds.max(1.0),
    );
    for stage in LEDGER_STAGES {
        r.set(
            &format!("sim.ledger.rounds.{stage}"),
            out.ledger.rounds_for(stage) as f64,
        );
    }
    if trace {
        let per_round = (runs as f64 * rounds).max(1.0);
        r.set("traced.op_p50_ms", median_of_sorted(&sorted_ms));
        r.set(
            "sim.network.allocs_per_round",
            counts.allocs as f64 / per_round,
        );
        r.set(
            "sim.network.alloc_mb_per_round",
            counts.bytes as f64 / 1e6 / per_round,
        );
    }
    Ok(r)
}
