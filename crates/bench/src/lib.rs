//! # edgecolor-bench
//!
//! The experiment harness regenerating the evaluation suite E1–E11 and the
//! DYN, FAULT, IO and SERVE experiments. Each `run_*` function
//! returns one or more [`Table`]s; the `experiments` binary prints them, and
//! `make bench` records a reference run in `BENCH_1.json` (schema:
//! docs/BENCH_SCHEMA.md; the paper result each experiment measures:
//! docs/PAPER_MAP.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use distgraph::{
    generators::{self, UpdateScenario, UpdateStream},
    DynamicGraph, Graph, ListAssignment, NodeId,
};
use distsim::{FaultPlan, IdAssignment, Model, Network};
use edgecolor::balanced_orientation::{compute_balanced_orientation, measure_required_beta};
use edgecolor::defective_edge::{
    defective_two_edge_coloring, measure_defect_ratio, uniform_lambda,
};
use edgecolor::token_dropping::{
    check_theorem_4_3, solve_distributed, theorem_4_3_bound, TokenGame, TokenGameParams,
};
use edgecolor::{
    color_congest, color_edges_local, ColoringParams, OrientationParams, ParamProfile, Recoloring,
    SelfStabilizing,
};
use edgecolor_baselines as baselines;
use edgecolor_verify::{check_complete, check_delta, check_proper_edge_coloring};
use std::time::Instant;

pub mod json;
pub mod regression;

/// A printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier (e.g. "E1").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "## {} — {}", self.id, self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

fn ids_for(graph: &Graph, seed: u64) -> IdAssignment {
    IdAssignment::scattered(graph.n(), seed)
}

fn regular_graph(delta: usize, seed: u64) -> Graph {
    let n = (4 * delta).max(96);
    let n = if n % 2 == 1 { n + 1 } else { n };
    generators::random_regular(n, delta, seed).expect("feasible regular graph")
}

/// E1 — rounds versus Δ for (2Δ−1)-edge coloring in the LOCAL model,
/// compared with the baselines.
pub fn run_e1(deltas: &[usize]) -> Table {
    let mut table = Table::new(
        "E1",
        "LOCAL rounds vs Δ: this paper vs baselines (random Δ-regular graphs)",
        &[
            "Δ",
            "n",
            "ours rounds",
            "ours colors",
            "greedy-classes rounds",
            "kw rounds",
            "randomized rounds",
            "ours log*-part",
            "rounds ×/doubling",
            "polylog fit c",
            "dominant stage",
            "fallback levels",
        ],
    );
    let params = ColoringParams::new(0.5);
    let mut first: Option<(usize, u64)> = None;
    let mut prev_rounds: Option<u64> = None;
    for &delta in deltas {
        let graph = regular_graph(delta, 7);
        let ids = ids_for(&graph, 3);
        let ours = color_edges_local(&graph, &ids, &params).expect("valid instance");
        check_proper_edge_coloring(&graph, &ours.coloring).assert_ok();
        check_complete(&graph, &ours.coloring).assert_ok();
        let classes = baselines::greedy_by_classes(&graph, &ids, Model::Local);
        let kw = baselines::kw_reduction(&graph, &ids, Model::Local);
        let random = baselines::randomized_coloring(&graph, 5, Model::Local);
        let rounds = ours.metrics.rounds;
        // Scaling-fit columns (the polylog(Δ) regression contract): the
        // rounds ratio against the previous Δ in the sweep, and the exponent
        // c solving rounds/rounds₀ = (log Δ / log Δ₀)^c anchored at the
        // sweep's first row. Polylog scaling means a bounded ratio per
        // doubling and a small, stable c; the Δ ≥ 16 blowup this column was
        // added for showed ratios of 160× and a c that grew with Δ.
        let ratio = prev_rounds
            .map(|p| format!("{:.2}", rounds as f64 / p.max(1) as f64))
            .unwrap_or_else(|| "-".into());
        let fit = first
            .map(|(d0, r0)| {
                let log_ratio = (delta.max(2) as f64).log2().ln() - (d0.max(2) as f64).log2().ln();
                if log_ratio.abs() < 1e-12 {
                    "-".to_string()
                } else {
                    format!("{:.2}", (rounds as f64 / r0.max(1) as f64).ln() / log_ratio)
                }
            })
            .unwrap_or_else(|| "-".into());
        first = first.or(Some((delta, rounds)));
        prev_rounds = Some(rounds);
        let fallbacks = ours.ledger.entries().iter().filter(|e| e.fallback).count();
        table.push_row(vec![
            delta.to_string(),
            graph.n().to_string(),
            rounds.to_string(),
            ours.coloring.palette_size().to_string(),
            classes.metrics.rounds.to_string(),
            kw.metrics.rounds.to_string(),
            random.metrics.rounds.to_string(),
            ours.initial_coloring_rounds.to_string(),
            ratio,
            fit,
            ours.ledger.dominant_stage().to_string(),
            fallbacks.to_string(),
        ]);
    }
    table
}

/// E2 — rounds versus n at fixed Δ (the locality / log* n claim).
pub fn run_e2(ns: &[usize]) -> Table {
    let mut table = Table::new(
        "E2",
        "LOCAL rounds vs n at fixed Δ = 8 (only the O(log* n) part may grow)",
        &[
            "n",
            "total rounds",
            "initial O(Δ²)-coloring rounds",
            "colors",
        ],
    );
    let params = ColoringParams::new(0.5);
    for &n in ns {
        let n = if n % 2 == 1 { n + 1 } else { n };
        let graph = generators::random_regular(n, 8, 11).expect("feasible");
        let ids = ids_for(&graph, 1);
        let ours = color_edges_local(&graph, &ids, &params).expect("valid instance");
        table.push_row(vec![
            n.to_string(),
            ours.metrics.rounds.to_string(),
            ours.initial_coloring_rounds.to_string(),
            ours.coloring.palette_size().to_string(),
        ]);
    }
    table
}

/// E3 — CONGEST colors used versus Δ and ε (Theorem 1.2's (8+ε)Δ bound).
pub fn run_e3(deltas: &[usize], epsilons: &[f64]) -> Table {
    let mut table = Table::new(
        "E3",
        "CONGEST (8+ε)Δ coloring: colors used vs Δ and ε",
        &[
            "Δ",
            "ε",
            "colors",
            "colors/Δ",
            "rounds",
            "levels",
            "violations",
            "rounds ×/doubling",
            "dominant stage",
        ],
    );
    // Previous-Δ rounds per ε (the scaling-fit ratio is taken at fixed ε).
    let mut prev_rounds: Vec<Option<u64>> = vec![None; epsilons.len()];
    for &delta in deltas {
        for (ei, &eps) in epsilons.iter().enumerate() {
            let graph = regular_graph(delta, 13);
            let ids = ids_for(&graph, 5);
            let params = ColoringParams::new(eps);
            let result = color_congest(&graph, &ids, &params);
            check_proper_edge_coloring(&graph, &result.coloring).assert_ok();
            check_complete(&graph, &result.coloring).assert_ok();
            let rounds = result.metrics.rounds;
            let ratio = prev_rounds[ei]
                .map(|p| format!("{:.2}", rounds as f64 / p.max(1) as f64))
                .unwrap_or_else(|| "-".into());
            prev_rounds[ei] = Some(rounds);
            table.push_row(vec![
                delta.to_string(),
                format!("{eps:.2}"),
                result.colors_used.to_string(),
                format!("{:.2}", result.colors_used as f64 / delta as f64),
                rounds.to_string(),
                result.levels.to_string(),
                result.metrics.congest_violations.to_string(),
                ratio,
                result.ledger.dominant_stage().to_string(),
            ]);
        }
    }
    table
}

/// Builds the layered token dropping instance used by E4/E8.
pub fn layered_token_game(layers: usize, width: usize, k: usize) -> TokenGame {
    let n = layers * width;
    let mut arcs = Vec::new();
    for l in 0..layers - 1 {
        for a in 0..width {
            for b in 0..width {
                arcs.push((NodeId::new(l * width + a), NodeId::new((l + 1) * width + b)));
            }
        }
    }
    let mut tokens = vec![0usize; n];
    for t in tokens.iter_mut().take(width) {
        *t = k;
    }
    TokenGame::new(n, arcs, k, tokens)
}

/// E4 / E8 — token dropping: phases, rounds and slack versus k and δ
/// (Theorem 4.3 and the δ trade-off of Section 4.1).
pub fn run_e4(ks: &[usize], deltas: &[usize]) -> Table {
    let mut table = Table::new(
        "E4/E8",
        "Generalized token dropping: k/δ trade-off (layered game, 6 layers × 8 nodes)",
        &[
            "k",
            "δ",
            "phases",
            "rounds",
            "max slack measured",
            "max slack bound",
            "violations",
        ],
    );
    for &k in ks {
        for &delta in deltas {
            if delta > k {
                continue;
            }
            let game = layered_token_game(6, 8, k);
            let params = TokenGameParams {
                alpha: vec![delta; game.n],
                delta,
            };
            let result = solve_distributed(&game, &params);
            let violations = check_theorem_4_3(&game, &params, &result);
            let mut max_measured = 0i64;
            let mut max_bound = 0f64;
            for (i, &(u, v)) in game.arcs.iter().enumerate() {
                if result.moved[i] {
                    continue;
                }
                max_measured = max_measured
                    .max(result.tokens[u.index()] as i64 - result.tokens[v.index()] as i64);
                max_bound = max_bound.max(theorem_4_3_bound(&game, &params, u, v));
            }
            table.push_row(vec![
                k.to_string(),
                delta.to_string(),
                result.phases.to_string(),
                result.rounds.to_string(),
                max_measured.to_string(),
                format!("{max_bound:.0}"),
                violations.len().to_string(),
            ]);
        }
    }
    table
}

/// E5 — generalized defective 2-edge coloring quality versus ε
/// (Corollary 5.7): the measured defect divided by the allowed bound.
pub fn run_e5(deltas: &[usize], epsilons: &[f64]) -> Table {
    let mut table = Table::new(
        "E5",
        "Defective 2-edge coloring (λ = 1/2): defect ratio and rounds vs Δ and ε",
        &[
            "Δ",
            "ε",
            "max defect ratio",
            "rounds",
            "phases",
            "red share",
        ],
    );
    for &delta in deltas {
        for &eps in epsilons {
            let bg = generators::regular_bipartite(2 * delta, delta, 3).expect("feasible");
            let lambda = uniform_lambda(bg.graph().m());
            let params = OrientationParams::new(eps, ParamProfile::Practical);
            let mut net = Network::new(bg.graph(), Model::Local);
            let split = defective_two_edge_coloring(&bg, &lambda, &params, &mut net);
            let ratio = measure_defect_ratio(&bg, &split, &lambda);
            table.push_row(vec![
                delta.to_string(),
                format!("{eps:.2}"),
                format!("{ratio:.3}"),
                net.rounds().to_string(),
                split.phases.to_string(),
                format!("{:.2}", split.red_count() as f64 / bg.graph().m() as f64),
            ]);
        }
    }
    table
}

/// E6 — balanced orientation: measured additive slack versus the Theorem 5.6
/// bound (Definition 5.2 must hold, i.e. zero violations).
pub fn run_e6(deltas: &[usize]) -> Table {
    let mut table = Table::new(
        "E6",
        "Balanced edge orientation (η = 0): measured β vs guaranteed β",
        &["Δ", "ε", "measured β", "guaranteed β", "phases", "rounds"],
    );
    for &delta in deltas {
        let bg = generators::regular_bipartite(2 * delta, delta, 9).expect("feasible");
        let eps = 0.5;
        let params = OrientationParams::new(eps, ParamProfile::Practical);
        let eta = vec![0.0; bg.graph().m()];
        let mut net = Network::new(bg.graph(), Model::Local);
        let result = compute_balanced_orientation(&bg, &eta, &params, &mut net);
        table.push_row(vec![
            delta.to_string(),
            format!("{:.2}", result.eps),
            format!(
                "{:.1}",
                measure_required_beta(&bg, &result.orientation, &eta, result.eps)
            ),
            format!("{:.1}", result.beta),
            result.phases.to_string(),
            result.rounds.to_string(),
        ]);
    }
    table
}

/// E7 — CONGEST bandwidth audit: maximum message size versus the O(log n)
/// limit as n grows.
pub fn run_e7(ns: &[usize]) -> Table {
    let mut table = Table::new(
        "E7",
        "CONGEST bandwidth audit (Δ = 16): max message bits vs the model limit",
        &[
            "n",
            "bandwidth limit (bits)",
            "max message (bits)",
            "violations",
            "total messages",
        ],
    );
    for &n in ns {
        let n = if n % 2 == 1 { n + 1 } else { n };
        let graph = generators::random_regular(n, 16, 17).expect("feasible");
        let ids = ids_for(&graph, 23);
        let params = ColoringParams::new(0.5);
        let result = color_congest(&graph, &ids, &params);
        let limit = Model::congest_for(n).bandwidth_limit().unwrap_or(0);
        table.push_row(vec![
            n.to_string(),
            limit.to_string(),
            result.metrics.max_message_bits.to_string(),
            result.metrics.congest_violations.to_string(),
            result.metrics.messages.to_string(),
        ]);
    }
    table
}

/// E9 — summary across graph families (LOCAL and CONGEST).
pub fn run_e9() -> Table {
    let mut table = Table::new(
        "E9",
        "Graph-family summary (target Δ ≈ 16, n ≈ 256)",
        &[
            "family",
            "n",
            "m",
            "Δ",
            "LOCAL colors",
            "LOCAL rounds",
            "CONGEST colors",
            "CONGEST rounds",
            "valid",
        ],
    );
    let params = ColoringParams::new(0.5);
    for family in generators::Family::all() {
        let graph = family.generate(256, 16, 31);
        if graph.m() == 0 {
            continue;
        }
        let ids = ids_for(&graph, 3);
        let local = color_edges_local(&graph, &ids, &params).expect("valid instance");
        let congest = color_congest(&graph, &ids, &params);
        let valid = check_proper_edge_coloring(&graph, &local.coloring).is_ok()
            && check_complete(&graph, &local.coloring).is_ok()
            && check_proper_edge_coloring(&graph, &congest.coloring).is_ok()
            && check_complete(&graph, &congest.coloring).is_ok();
        table.push_row(vec![
            family.name().to_string(),
            graph.n().to_string(),
            graph.m().to_string(),
            graph.max_degree().to_string(),
            local.coloring.palette_size().to_string(),
            local.metrics.rounds.to_string(),
            congest.colors_used.to_string(),
            congest.metrics.rounds.to_string(),
            valid.to_string(),
        ]);
    }
    table
}

/// E10 — list edge coloring with skewed lists: solver activity and validity.
pub fn run_e10() -> Table {
    let mut table = Table::new(
        "E10",
        "(degree+1)-list edge coloring with skewed lists (Δ = 16 regular bipartite)",
        &[
            "list shape",
            "colors used",
            "rounds",
            "solver calls",
            "fallback rounds",
            "outer iters",
        ],
    );
    let bg = generators::regular_bipartite(48, 16, 7).expect("feasible");
    let graph = bg.graph().clone();
    let space = 4 * graph.max_edge_degree();
    let ids = ids_for(&graph, 9);
    let params = ColoringParams::new(0.5);

    let shapes: Vec<(&str, ListAssignment)> = vec![
        (
            "uniform (degree+1)",
            ListAssignment::degree_plus_one(&graph),
        ),
        (
            "skewed low/high halves",
            ListAssignment::new(
                space,
                graph
                    .edges()
                    .map(|e| {
                        let need = graph.edge_degree(e) + 1;
                        if e.index() % 2 == 0 {
                            (0..need).collect()
                        } else {
                            (space - need..space).collect()
                        }
                    })
                    .collect(),
            ),
        ),
        (
            "full 2Δ−1 palette",
            ListAssignment::full_palette(&graph, 2 * graph.max_degree() - 1),
        ),
    ];
    for (name, lists) in shapes {
        let outcome =
            edgecolor::list_edge_coloring(&graph, &lists, &ids, &params).expect("valid lists");
        check_proper_edge_coloring(&graph, &outcome.coloring).assert_ok();
        check_complete(&graph, &outcome.coloring).assert_ok();
        table.push_row(vec![
            name.to_string(),
            outcome.colors_used.to_string(),
            outcome.metrics.rounds.to_string(),
            outcome.solver_calls.to_string(),
            outcome.fallback_rounds.to_string(),
            outcome.outer_iterations.to_string(),
        ]);
    }
    table
}

/// The workload of the FAULT and IO experiments: max-identifier
/// flooding on `net`. Every node starts from its identifier; each round
/// it keeps the largest identifier it has received and sends it to all
/// neighbors, for `rounds` steps after the first round, then halts with
/// it. Each round's work is proportional to the node's degree — the same
/// profile as the paper's proposal/accept building blocks.
///
/// A node sends only if in the previous round it was live, had not halted
/// and was outside a crash window of the installed fault plan
/// ([`FaultPlan::is_crashed`]); a crashed node resumes with its state at
/// restart. Runs until every node halted or `max_rounds` rounds were
/// charged, and returns each node's output (`None` if it was still
/// running).
fn flood(
    net: &mut Network<'_>,
    ids: &IdAssignment,
    rounds: u32,
    max_rounds: u64,
) -> Vec<Option<u64>> {
    let graph = net.graph();
    let mut best: Vec<u64> = graph.nodes().map(|v| ids.id(v)).collect();
    let mut rounds_left = vec![rounds; graph.n()];
    let mut sending = vec![true; graph.n()];
    let mut outputs = vec![None; graph.n()];
    while net.rounds() < max_rounds && outputs.iter().any(Option::is_none) {
        let mail = net.exchange(|v| {
            if !sending[v.index()] {
                return Vec::new();
            }
            let msg = best[v.index()];
            graph.neighbors(v).iter().map(|nb| (nb.edge, msg)).collect()
        });
        let round = net.rounds();
        let plan = net.fault_plan();
        for v in graph.nodes() {
            let i = v.index();
            sending[i] = false;
            if outputs[i].is_some() || plan.is_some_and(|p| p.is_crashed(v, round)) {
                continue;
            }
            best[i] = mail.inbox(v).iter().fold(best[i], |b, m| b.max(m.msg));
            if rounds_left[i] == 0 {
                outputs[i] = Some(best[i]);
            } else {
                rounds_left[i] -= 1;
                sending[i] = true;
            }
        }
    }
    outputs
}

/// DYN — dynamic recoloring: per-batch local repair cost versus what a
/// recolor-from-scratch-per-batch policy would touch.
///
/// For each mutation scenario the harness colors the initial graph once
/// (`Recoloring::color_initial`), then plays `batches` update batches from a
/// seeded [`UpdateStream`], repairing after each one. Every repair is
/// re-validated incrementally (`check_delta` over the repair's touched set)
/// and the final coloring passes the full `O(m)` checkers. The `touched
/// frac` column is `repaired edges / (batches · m)` — the fraction of the
/// work a naive full-recolor-per-batch policy would have done; on the
/// million-edge churn stream it is ~10⁻⁵.
pub fn run_dyn(million: bool) -> Table {
    let mut table = Table::new(
        "DYN",
        "Dynamic recoloring: local repair vs full recolor per batch",
        &[
            "scenario",
            "n",
            "m",
            "batches",
            "repaired edges",
            "full recolors",
            "full-recolor edges",
            "touched frac",
            "repair wall ms",
            "initial color ms",
        ],
    );
    let params = ColoringParams::new(0.5);
    type Config = (&'static str, Graph, UpdateScenario, usize, u64);
    let configs: Vec<Config> = if million {
        let torus = generators::grid_torus(1000, 500); // exactly 10⁶ edges
        let window = torus.m();
        vec![
            (
                "churn",
                torus.clone(),
                UpdateScenario::Churn {
                    inserts: 64,
                    deletes: 64,
                },
                16,
                17,
            ),
            (
                "sliding-window",
                torus,
                UpdateScenario::SlidingWindow { window, rate: 96 },
                16,
                19,
            ),
            (
                "hub-attack",
                generators::grid_torus(40, 40),
                UpdateScenario::HubAttack {
                    hub: 0,
                    burst: 6,
                    deletes: 2,
                },
                12,
                23,
            ),
        ]
    } else {
        vec![
            (
                "churn",
                generators::grid_torus(40, 40),
                UpdateScenario::Churn {
                    inserts: 8,
                    deletes: 8,
                },
                12,
                17,
            ),
            (
                "sliding-window",
                generators::grid_torus(40, 40),
                UpdateScenario::SlidingWindow {
                    window: 3200,
                    rate: 12,
                },
                12,
                19,
            ),
            (
                "hub-attack",
                generators::grid_torus(12, 12),
                UpdateScenario::HubAttack {
                    hub: 0,
                    burst: 5,
                    deletes: 1,
                },
                8,
                23,
            ),
        ]
    };
    for (name, graph, scenario, batches, seed) in configs {
        let ids = IdAssignment::scattered(graph.n(), 3);
        let mut dg = DynamicGraph::from_graph(graph.clone());
        let started = Instant::now();
        // Steady-state scenarios provision palette headroom for Δ + 2 (the
        // capacity-planning knob); the hub attack deliberately runs with the
        // tight 2Δ−1 budget so the full-recolor fallback is exercised.
        let budget = match scenario {
            UpdateScenario::HubAttack { .. } => edgecolor::default_palette(graph.max_degree()),
            _ => edgecolor::default_palette(graph.max_degree() + 2),
        };
        let (mut rec, _) =
            Recoloring::with_budget(&dg, &ids, &params, budget).expect("valid initial instance");
        let initial_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut stream = UpdateStream::new(graph, scenario, seed);
        let mut repaired: u64 = 0;
        let mut full_recolors: u64 = 0;
        let mut full_equivalent: u64 = 0;
        let mut repair_ms = 0.0;
        for _ in 0..batches {
            let batch = stream.next_batch();
            let diff = dg.apply(&batch).expect("stream batches are valid");
            let started = Instant::now();
            let report = rec.repair(&dg, &diff, &ids, &params).expect("repairable");
            repair_ms += started.elapsed().as_secs_f64() * 1e3;
            repaired += report.repaired_edges as u64;
            full_equivalent += dg.m() as u64;
            if report.full_recolor {
                full_recolors += 1;
            }
            check_delta(dg.graph(), rec.coloring(), &report.touched, rec.palette()).assert_ok();
        }
        check_proper_edge_coloring(dg.graph(), rec.coloring()).assert_ok();
        check_complete(dg.graph(), rec.coloring()).assert_ok();
        let frac = repaired as f64 / (full_equivalent.max(1)) as f64;
        table.push_row(vec![
            name.to_string(),
            dg.n().to_string(),
            dg.m().to_string(),
            batches.to_string(),
            repaired.to_string(),
            full_recolors.to_string(),
            full_equivalent.to_string(),
            format!("{frac:.6}"),
            format!("{repair_ms:.1}"),
            format!("{initial_ms:.1}"),
        ]);
    }
    table
}

/// Peak resident set size (`VmHWM`) of the current process in bytes, read
/// from `/proc/self/status`; `None` on hosts without procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// One measured configuration of the [`run_fault`] experiment (one row of
/// the `fault` array of the `edgecolor-bench/v1` JSON document; field
/// semantics in `docs/BENCH_SCHEMA.md`).
///
/// Every field except [`FaultMeasurement::wall_ms`] is deterministic —
/// seed-driven adversary, seed-driven graphs — so the `bench-regression`
/// CI job diffs these rows *exactly* against the committed baseline.
#[derive(Debug, Clone)]
pub struct FaultMeasurement {
    /// `"flood"` (the max-identifier flood run under the adversary) or
    /// `"recovery"` (corruption + self-stabilizing repair of a coloring).
    pub workload: String,
    /// Graph description.
    pub graph: String,
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// The adversary seed.
    pub seed: u64,
    /// Configured drop rate, in permille.
    pub drop_permille: u32,
    /// Configured duplicate rate, in permille.
    pub duplicate_permille: u32,
    /// Configured delay rate, in permille.
    pub delay_permille: u32,
    /// Number of crash windows in the plan.
    pub crashes: usize,
    /// Number of shard-link cuts in the plan.
    pub link_cuts: usize,
    /// Rounds charged by the measured execution (flood) or by the repair
    /// pass (recovery).
    pub rounds: u64,
    /// Messages that arrived (flood rows; 0 for recovery).
    pub delivered: u64,
    /// Messages dropped by the rate adversary.
    pub dropped: u64,
    /// Extra copies injected by the duplication adversary.
    pub duplicated: u64,
    /// Messages held back by the delay adversary.
    pub delayed: u64,
    /// Messages lost to crash windows.
    pub crash_dropped: u64,
    /// Messages lost on severed shard links.
    pub partition_dropped: u64,
    /// Edges corrupted by the adversary (recovery rows).
    pub corrupted_edges: Option<u64>,
    /// Conflicts the incremental detector found (recovery rows).
    pub conflicts_found: Option<u64>,
    /// Edges the self-stabilizing repair recolored (recovery rows).
    pub repaired_edges: Option<u64>,
    /// Wall-clock milliseconds of the measured execution.
    pub wall_ms: f64,
}

/// The fault adversary configurations of the FAULT experiment. Shared by
/// `quick` and `smoke` runs (the graphs are modest either way), so the rows
/// the CI smoke run emits are key-comparable to the committed baseline.
fn fault_configs() -> Vec<(String, Graph, FaultPlan)> {
    let torus = generators::grid_torus(24, 24);
    let regular = generators::random_regular(512, 8, 42).expect("feasible");
    let mut configs = Vec::new();
    for (name, graph, seed) in [
        ("grid_torus(24x24)", torus, 1017u64),
        ("random_regular(512,8)", regular, 2029),
    ] {
        // A rates-only adversary and a full adversary (rates + crashes +
        // healing link partitions) per graph.
        let rates = FaultPlan::new(seed)
            .with_drop_rate(0.05)
            .with_duplicate_rate(0.02)
            .with_delay_rate(0.04, 3);
        let full = FaultPlan::new(seed ^ 0xF417)
            .with_drop_rate(0.08)
            .with_duplicate_rate(0.03)
            .with_delay_rate(0.05, 3)
            .with_crash(NodeId::new(3), 2, 5)
            .with_crash(NodeId::new(17), 3, 6)
            .with_partition_granularity(4)
            .with_link_cut(0, 1, 2, 3)
            .with_link_cut(2, 3, 4, 2);
        configs.push((format!("{name}/rates"), graph.clone(), rates));
        configs.push((format!("{name}/full"), graph, full));
    }
    configs
}

/// FAULT — the adversary experiment: flooding under seed-driven faults
/// (drops, duplicates, delays, crashes, healing link partitions) plus
/// corruption-recovery through the self-stabilizing repair pipeline.
///
/// Per configuration the harness (a) runs the flood program under the plan,
/// and (b) corrupts a fraction of a maintained coloring with the plan's
/// seed, stabilizes, and re-validates through the full checkers.
/// All recorded quantities except wall-clock are deterministic, which is
/// what makes the rows a CI regression contract (see
/// [`crate::regression`]).
pub fn run_fault() -> (Table, Vec<FaultMeasurement>) {
    const FLOOD_ROUNDS: u32 = 8;
    let mut table = Table::new(
        "FAULT",
        "Fault adversary: delivery losses and recovery cost",
        &[
            "workload",
            "graph",
            "m",
            "seed",
            "rounds",
            "delivered",
            "dropped",
            "dup",
            "delayed",
            "crash drop",
            "cut drop",
            "conflicts",
            "repaired",
            "wall ms",
        ],
    );
    let mut measurements = Vec::new();
    let params = ColoringParams::new(0.5);
    for (name, graph, plan) in fault_configs() {
        let ids = IdAssignment::scattered(graph.n(), 7);
        let started = Instant::now();
        let mut net = Network::new(&graph, Model::Local);
        net.install_faults(plan.clone());
        flood(&mut net, &ids, FLOOD_ROUNDS, u64::from(FLOOD_ROUNDS) + 6);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let metrics = net.metrics();
        let stats = net.fault_stats().expect("faulty run carries stats");
        table.push_row(vec![
            "flood".to_string(),
            name.clone(),
            graph.m().to_string(),
            plan.seed().to_string(),
            metrics.rounds.to_string(),
            stats.delivered.to_string(),
            stats.dropped.to_string(),
            stats.duplicated.to_string(),
            stats.delayed.to_string(),
            stats.crash_dropped.to_string(),
            stats.partition_dropped.to_string(),
            "-".to_string(),
            "-".to_string(),
            format!("{wall_ms:.1}"),
        ]);
        let (drop_pm, dup_pm, delay_pm, crashes, cuts) = plan_shape(&plan);
        measurements.push(FaultMeasurement {
            workload: "flood".to_string(),
            graph: name.clone(),
            n: graph.n(),
            m: graph.m(),
            seed: plan.seed(),
            drop_permille: drop_pm,
            duplicate_permille: dup_pm,
            delay_permille: delay_pm,
            crashes,
            link_cuts: cuts,
            rounds: metrics.rounds,
            delivered: stats.delivered,
            dropped: stats.dropped,
            duplicated: stats.duplicated,
            delayed: stats.delayed,
            crash_dropped: stats.crash_dropped,
            partition_dropped: stats.partition_dropped,
            corrupted_edges: None,
            conflicts_found: None,
            repaired_edges: None,
            wall_ms,
        });

        // Recovery: corrupt ~5% of the coloring with the plan's seed, then
        // self-stabilize and fully re-validate.
        let dg = DynamicGraph::from_graph(graph.clone());
        let (rec, _) =
            Recoloring::color_initial(&dg, &ids, &params).expect("valid initial instance");
        let palette = rec.palette();
        let mut session = SelfStabilizing::new(rec);
        let corrupt = (graph.m() / 20).max(8);
        let started = Instant::now();
        let touched = session.inject_corruption(dg.graph(), plan.seed(), corrupt);
        let report = session
            .stabilize(&dg, &touched, &ids, &params)
            .expect("stabilizable");
        let recovery_ms = started.elapsed().as_secs_f64() * 1e3;
        check_proper_edge_coloring(dg.graph(), session.coloring()).assert_ok();
        check_complete(dg.graph(), session.coloring()).assert_ok();
        check_delta(dg.graph(), session.coloring(), &report.touched, palette).assert_ok();
        table.push_row(vec![
            "recovery".to_string(),
            name.clone(),
            graph.m().to_string(),
            plan.seed().to_string(),
            report.metrics.rounds.to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            report.conflicts_found.to_string(),
            report.repaired_edges.to_string(),
            format!("{recovery_ms:.1}"),
        ]);
        measurements.push(FaultMeasurement {
            workload: "recovery".to_string(),
            graph: name,
            n: graph.n(),
            m: graph.m(),
            seed: plan.seed(),
            drop_permille: drop_pm,
            duplicate_permille: dup_pm,
            delay_permille: delay_pm,
            crashes,
            link_cuts: cuts,
            rounds: report.metrics.rounds,
            delivered: 0,
            dropped: 0,
            duplicated: 0,
            delayed: 0,
            crash_dropped: 0,
            partition_dropped: 0,
            corrupted_edges: Some(touched.len() as u64),
            conflicts_found: Some(report.conflicts_found as u64),
            repaired_edges: Some(report.repaired_edges as u64),
            wall_ms: recovery_ms,
        });
    }
    (table, measurements)
}

/// The configured shape of a plan, for the measurement record.
fn plan_shape(plan: &FaultPlan) -> (u32, u32, u32, usize, usize) {
    let rates = plan.rates();
    (
        rates.drop_permille,
        rates.duplicate_permille,
        rates.delay_permille,
        plan.crashes().len(),
        plan.link_cuts().len(),
    )
}

/// One measured row of the IO experiment: a (graph, load-method) pair.
///
/// The load methods (`text_parse` / `binary_decode` / `zero_copy_open`)
/// measure cold-start cost from a file on disk to a queryable graph; the
/// reorder rows (`reorder_off` / `reorder_rcm`) measure the locality pass
/// and its effect on round throughput through the flat-arena engine. All
/// wall-clock fields are host noise ([`Rule::Ignore`]); the structural
/// fields (`file_bytes`, `adjacency_checksum`, `mean_edge_span`) are
/// deterministic and diffed by the regression contract, and
/// `gated_speedup_vs_text` carries the ≥ 10× cold-start floor on the
/// million-edge torus `zero_copy_open` row.
///
/// [`Rule::Ignore`]: crate::regression::Rule::Ignore
#[derive(Debug, Clone)]
pub struct IoMeasurement {
    /// Graph description, e.g. `grid_torus(1000x500)`.
    pub graph: String,
    /// `text_parse`, `binary_decode`, `zero_copy_open`, `reorder_off` or
    /// `reorder_rcm`.
    pub method: String,
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// On-disk size of the artifact this method loads (text edge list or
    /// binary snapshot); `None` for the reorder rows. Deterministic.
    pub file_bytes: Option<u64>,
    /// Load methods: wall-clock ms from the file on disk to a queryable
    /// graph (text: parse + CSR build; binary: validate + materialize;
    /// zero-copy: open-time validation only). Reorder rows: the cost of the
    /// reordering pass itself (permutation + renumber; 0 for `reorder_off`).
    pub cold_start_ms: f64,
    /// Wall-clock ms from the file on disk through one executed flooding
    /// round (cold start + `Network` build + init + 1 round). `None` for
    /// `zero_copy_open` (the view serves point queries without
    /// materializing) and the reorder rows.
    pub first_round_ms: Option<f64>,
    /// Process peak RSS (`VmHWM`) observed after this measurement; a
    /// monotone high-water mark, so informational only.
    pub peak_rss_bytes: Option<u64>,
    /// Order-sensitive digest of the adjacency this method serves
    /// (folded to 32 bits). Identical across the three load methods by
    /// construction — the regression contract diffs it exactly.
    pub adjacency_checksum: u64,
    /// `text cold-start / this cold-start`; `None` on the text row itself
    /// and the reorder rows. Host-dependent, never diffed.
    pub speedup_vs_text: Option<f64>,
    /// Same ratio, populated only where the acceptance floor applies (the
    /// zero-copy open path on the million-edge torus); the regression
    /// contract requires the fresh value to stay ≥ 10.
    pub gated_speedup_vs_text: Option<f64>,
    /// Flooding rounds per wall-clock second on this row's node order
    /// (reorder rows only). Host-dependent.
    pub rounds_per_sec: Option<f64>,
    /// Mean `|u − v|` over all edges in this row's node order (reorder rows
    /// only): the locality metric the reordering pass optimizes.
    /// Deterministic, diffed within float tolerance.
    pub mean_edge_span: Option<f64>,
}

/// Order-sensitive adjacency digest (FNV-1a over every `(neighbor, edge)`
/// pair in CSR order, folded to 32 bits so it survives the JSON `i64`
/// round-trip). The zero-copy twin below must mirror any change here.
fn adjacency_checksum_graph(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for v in g.nodes() {
        for nb in g.neighbors(v) {
            mix(nb.node.index() as u64);
            mix(nb.edge.index() as u64);
        }
    }
    (h ^ (h >> 32)) & 0xffff_ffff
}

/// [`adjacency_checksum_graph`] served through the zero-copy view instead
/// of a materialized [`Graph`] — same digest on the same snapshot.
fn adjacency_checksum_view(view: &diststore::SnapshotView) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for v in 0..view.n() {
        for nb in view.neighbors(NodeId::new(v)) {
            mix(nb.node.index() as u64);
            mix(nb.edge.index() as u64);
        }
    }
    (h ^ (h >> 32)) & 0xffff_ffff
}

/// Mean `|u − v|` over all edges: the bandwidth-style locality metric the
/// reordering pass optimizes. Deterministic for a fixed graph.
fn mean_edge_span(g: &Graph) -> f64 {
    if g.m() == 0 {
        return 0.0;
    }
    let total: u64 = g
        .edges()
        .map(|e| {
            let (u, v) = g.endpoints(e);
            u.index().abs_diff(v.index()) as u64
        })
        .sum();
    total as f64 / g.m() as f64
}

/// The graph suite of the IO experiment. Like FAULT, the configurations are
/// shared by every selector size so the rows a CI smoke run emits stay
/// key-comparable to the committed baseline — which is what lets the
/// regression contract hold the million-edge torus cold-start floor
/// (`gated` = true) on every run.
fn io_configs() -> Vec<(String, Graph, bool)> {
    vec![
        (
            "grid_torus(1000x500)".to_string(),
            generators::grid_torus(1000, 500),
            true,
        ),
        (
            "power_law(120000,2.5,64)".to_string(),
            generators::power_law(120_000, 2.5, 64, 7),
            false,
        ),
    ]
}

/// IO — the out-of-core substrate experiment: cold-start cost of the three
/// load paths (text edge-list parse, validated binary decode, zero-copy
/// snapshot open) plus the locality-reordering pass, per graph.
///
/// Per configuration the harness writes a text edge list and a binary
/// snapshot to the temp directory, then measures best-of-`reps` wall clock
/// from the file to (a) a queryable graph and (b) one executed flooding
/// round, asserting all three paths serve the bit-identical adjacency (the
/// digest lands in the regression contract). The reorder rows run the same
/// flooding program on the original and the RCM-renumbered node order and
/// record the deterministic `mean_edge_span` shift alongside the
/// host-dependent throughput. The ≥ 10× cold-start acceptance floor is
/// carried by `gated_speedup_vs_text` on the million-edge torus
/// `zero_copy_open` row (see [`crate::regression::IO_FIELDS`]).
pub fn run_io() -> (Table, Vec<IoMeasurement>) {
    use distgraph::{reorder_permutation, ReorderStrategy};
    use diststore::{read_edge_list, write_edge_list, LoadedSnapshot, Snapshot, SnapshotSource};

    const REPS: usize = 2;
    const REORDER_FLOOD_ROUNDS: u32 = 4;
    let mut table = Table::new(
        "IO",
        "Out-of-core load paths: cold start, zero-copy open and locality reordering",
        &[
            "graph",
            "method",
            "n",
            "m",
            "file MB",
            "cold ms",
            "round ms",
            "vs text",
            "gate",
            "rounds/s",
            "edge span",
            "rss MB",
            "checksum",
        ],
    );
    let mut measurements = Vec::new();
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    for (name, graph, gated) in io_configs() {
        let txt_path = tmp.join(format!("edgecolor_io_{pid}_{}.txt", measurements.len()));
        let snap_path = tmp.join(format!("edgecolor_io_{pid}_{}.snap", measurements.len()));
        write_edge_list(&graph, &txt_path).expect("text edge list writes");
        SnapshotSource::graph(&graph)
            .write_to(&snap_path)
            .expect("snapshot writes");
        let file_len = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len()).ok();
        let (txt_bytes, snap_bytes) = (file_len(&txt_path), file_len(&snap_path));
        let ids = IdAssignment::scattered(graph.n(), 1);
        // Zero steps after the first round: every node sends once, folds its
        // inbox and halts, so exactly one round executes.
        let one_round = |g: &Graph| {
            let mut net = Network::new(g, Model::Local);
            let outputs = flood(&mut net, &ids, 0, 1);
            assert_eq!(net.rounds(), 1, "first_round_ms times exactly one round");
            outputs
        };
        let reference_checksum = adjacency_checksum_graph(&graph);

        // The three load paths: best-of-REPS cold start (file → queryable)
        // and first-round (file → one executed flooding round) per method.
        // `zero_copy_open` stops at the validated view — its whole point is
        // serving point queries without materializing — so its first-round
        // column is empty and its cold start is held to the same digest via
        // the view accessors.
        // (method, file_bytes, cold_ms, first_round_ms, adjacency digest)
        type LoadRow = (String, Option<u64>, f64, Option<f64>, u64);
        let mut rows: Vec<LoadRow> = Vec::new();
        {
            let mut cold = f64::INFINITY;
            let mut first = f64::INFINITY;
            let mut checksum = 0;
            for _ in 0..REPS {
                let started = Instant::now();
                let g = read_edge_list(&txt_path).expect("text edge list parses");
                cold = cold.min(started.elapsed().as_secs_f64() * 1e3);
                let _run = one_round(&g);
                first = first.min(started.elapsed().as_secs_f64() * 1e3);
                checksum = adjacency_checksum_graph(&g);
            }
            rows.push((
                "text_parse".to_string(),
                txt_bytes,
                cold,
                Some(first),
                checksum,
            ));
        }
        {
            let mut cold = f64::INFINITY;
            let mut first = f64::INFINITY;
            let mut checksum = 0;
            for _ in 0..REPS {
                let started = Instant::now();
                let snapshot = Snapshot::open(&snap_path).expect("snapshot opens");
                let loaded = LoadedSnapshot::load(&snapshot).expect("snapshot materializes");
                cold = cold.min(started.elapsed().as_secs_f64() * 1e3);
                let _run = one_round(loaded.graph());
                first = first.min(started.elapsed().as_secs_f64() * 1e3);
                checksum = adjacency_checksum_graph(loaded.graph());
            }
            rows.push((
                "binary_decode".to_string(),
                snap_bytes,
                cold,
                Some(first),
                checksum,
            ));
        }
        {
            let mut cold = f64::INFINITY;
            let mut checksum = 0;
            for _ in 0..REPS {
                let started = Instant::now();
                let snapshot = Snapshot::open(&snap_path).expect("snapshot opens");
                std::hint::black_box(snapshot.view().degree(NodeId::new(0)));
                cold = cold.min(started.elapsed().as_secs_f64() * 1e3);
                checksum = adjacency_checksum_view(&snapshot.view());
            }
            rows.push((
                "zero_copy_open".to_string(),
                snap_bytes,
                cold,
                None,
                checksum,
            ));
        }
        let text_cold = rows[0].2;
        for (method, file_bytes, cold, first, checksum) in rows {
            assert_eq!(
                checksum, reference_checksum,
                "{name}/{method}: served adjacency diverged from the generated graph"
            );
            let speedup = (method != "text_parse").then(|| text_cold / cold);
            // Only the zero-copy open row carries the hard floor: it is the
            // "open → first round runnable" path the acceptance criterion
            // names, and it clears 10× with margin on every host we measure.
            // `binary_decode` pays an extra O(n + m) materialization copy
            // that leaves it straddling the floor on slow-memory hosts, so
            // its ratio stays informational (`speedup_vs_text`).
            let gated_speedup = (gated && method == "zero_copy_open").then(|| text_cold / cold);
            push_io_row(
                &mut table,
                &mut measurements,
                IoMeasurement {
                    graph: name.clone(),
                    method,
                    n: graph.n(),
                    m: graph.m(),
                    file_bytes,
                    cold_start_ms: cold,
                    first_round_ms: first,
                    peak_rss_bytes: peak_rss_bytes(),
                    adjacency_checksum: checksum,
                    speedup_vs_text: speedup,
                    gated_speedup_vs_text: gated_speedup,
                    rounds_per_sec: None,
                    mean_edge_span: None,
                },
            );
        }
        std::fs::remove_file(&txt_path).ok();
        std::fs::remove_file(&snap_path).ok();

        // Reorder on/off: the same flooding program on the original and the
        // RCM-renumbered node order. `mean_edge_span` is the deterministic
        // effect; rounds/s is the host-dependent one.
        let started = Instant::now();
        let perm = reorder_permutation(&graph, ReorderStrategy::Rcm);
        let reordered = graph.renumber_nodes(&perm);
        let reorder_ms = started.elapsed().as_secs_f64() * 1e3;
        for (method, g, cold) in [
            ("reorder_off", &graph, 0.0),
            ("reorder_rcm", &reordered, reorder_ms),
        ] {
            let g_ids = IdAssignment::scattered(g.n(), 1);
            let mut wall_ms = f64::INFINITY;
            let mut rounds = 0;
            for _ in 0..REPS {
                let started = Instant::now();
                let mut net = Network::new(g, Model::Local);
                flood(
                    &mut net,
                    &g_ids,
                    REORDER_FLOOD_ROUNDS,
                    u64::from(REORDER_FLOOD_ROUNDS) + 2,
                );
                wall_ms = wall_ms.min(started.elapsed().as_secs_f64() * 1e3);
                rounds = net.rounds();
            }
            push_io_row(
                &mut table,
                &mut measurements,
                IoMeasurement {
                    graph: name.clone(),
                    method: method.to_string(),
                    n: g.n(),
                    m: g.m(),
                    file_bytes: None,
                    cold_start_ms: cold,
                    first_round_ms: None,
                    peak_rss_bytes: peak_rss_bytes(),
                    adjacency_checksum: adjacency_checksum_graph(g),
                    speedup_vs_text: None,
                    gated_speedup_vs_text: None,
                    rounds_per_sec: Some(rounds as f64 / (wall_ms / 1e3).max(1e-9)),
                    mean_edge_span: Some(mean_edge_span(g)),
                },
            );
        }
    }
    (table, measurements)
}

/// Formats one [`IoMeasurement`] into the IO table and the measurement
/// array (single source for both, so they cannot drift apart).
fn push_io_row(table: &mut Table, measurements: &mut Vec<IoMeasurement>, m: IoMeasurement) {
    let opt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}"));
    table.push_row(vec![
        m.graph.clone(),
        m.method.clone(),
        m.n.to_string(),
        m.m.to_string(),
        m.file_bytes
            .map_or("-".to_string(), |b| format!("{:.2}", b as f64 / 1048576.0)),
        format!("{:.1}", m.cold_start_ms),
        opt(m.first_round_ms),
        opt(m.speedup_vs_text),
        opt(m.gated_speedup_vs_text),
        opt(m.rounds_per_sec),
        opt(m.mean_edge_span),
        m.peak_rss_bytes
            .map_or("-".to_string(), |b| format!("{:.0}", b as f64 / 1048576.0)),
        format!("{:08x}", m.adjacency_checksum),
    ]);
    measurements.push(m);
}

/// E11 — baseline color-count comparison.
pub fn run_e11(deltas: &[usize]) -> Table {
    let mut table = Table::new(
        "E11",
        "Colors used: baselines vs this paper (random Δ-regular graphs)",
        &[
            "Δ",
            "Misra–Gries (Δ+1)",
            "greedy seq",
            "greedy classes",
            "randomized",
            "ours LOCAL",
            "ours CONGEST",
        ],
    );
    for &delta in deltas {
        let graph = regular_graph(delta, 19);
        let ids = ids_for(&graph, 7);
        let params = ColoringParams::new(0.5);
        let ours_local = color_edges_local(&graph, &ids, &params).expect("valid instance");
        let ours_congest = color_congest(&graph, &ids, &params);
        table.push_row(vec![
            delta.to_string(),
            baselines::misra_gries(&graph).palette_size().to_string(),
            baselines::greedy_sequential(&graph)
                .palette_size()
                .to_string(),
            baselines::greedy_by_classes(&graph, &ids, Model::Local)
                .colors_used
                .to_string(),
            baselines::randomized_coloring(&graph, 3, Model::Local)
                .colors_used
                .to_string(),
            ours_local.coloring.palette_size().to_string(),
            ours_congest.colors_used.to_string(),
        ]);
    }
    table
}

/// One SERVE row: the serving daemon under the deterministic loadgen mix.
/// Keyed by `(graph, clients, read_permille, graphs, inflight)`. Every
/// count except `retries`, `ticks` and the wall-clock-derived fields is
/// deterministic: the loadgen's disjoint-anchor workload admits the same
/// operations regardless of thread interleaving, pipelining depth and
/// client→graph spread, and coalescing only changes *which* tick repairs
/// an insert, never how many edges get repaired in total. Multi-tenant
/// rows sum the per-tenant counters and merge the latency histograms;
/// `n`/`m0`/`final_m` stay per-tenant (every tenant serves the same torus
/// and receives the same per-tenant workload shape).
#[derive(Debug, Clone)]
pub struct ServeMeasurement {
    /// Graph description, e.g. `grid_torus(80x80)`.
    pub graph: String,
    /// Concurrent loadgen clients.
    pub clients: usize,
    /// Reads per 1000 operations in the seeded mix.
    pub read_permille: u32,
    /// Tenants served by the daemon (loadgen spreads clients across them).
    pub graphs: usize,
    /// Requests each loadgen connection keeps in flight (1 = strict
    /// request-reply).
    pub inflight: usize,
    /// Number of nodes (per tenant).
    pub n: usize,
    /// Edge count before the run (per tenant).
    pub m0: usize,
    /// Edge count after every admitted batch applied (summed over
    /// tenants).
    pub final_m: usize,
    /// Total operations the loadgen issued (reads + admitted writes).
    pub ops: u64,
    /// Lookup operations issued.
    pub reads: u64,
    /// Admitted mutation batches (client-side count — deterministic,
    /// unlike the server's rejected counter which sees backpressure
    /// retries).
    pub accepted: u64,
    /// Deliberate duplicate submissions rejected (exactly one per client).
    pub rejected: u64,
    /// Backpressure retries (QueueFull/SwapInProgress) — timing-dependent.
    pub retries: u64,
    /// Wire-level protocol errors the daemon observed. Must stay 0.
    pub protocol_errors: u64,
    /// Edges (re)colored across all coalesced repairs — equals the number
    /// of admitted inserts while the palette budget holds.
    pub repaired_edges: u64,
    /// Full-recolor fallbacks — stays 0 while the headroom provisioning
    /// absorbs the workload's degree growth.
    pub full_recolors: u64,
    /// Final coloring passed `check_proper_edge_coloring` + `check_complete`.
    pub checker_valid: bool,
    /// Final coloring is bit-identical to a sequential replay of the
    /// daemon's coalesced batch log through a fresh repair session.
    pub replay_equivalent: bool,
    /// Operations per second over the loadgen wall clock.
    pub qps: f64,
    /// Repair latency percentiles from the daemon's log-bucket histogram,
    /// merged across tenants (ms).
    pub p50_ms: f64,
    /// 95th percentile repair latency (ms).
    pub p95_ms: f64,
    /// 99th percentile repair latency (ms).
    pub p99_ms: f64,
    /// 99.9th percentile repair latency (ms) — the SLO tail the histogram
    /// buckets exist to expose.
    pub repair_p999_ms: f64,
    /// Ticks that applied at least one coalesced batch (summed over
    /// tenants).
    pub ticks: u64,
    /// Loadgen wall clock (ms).
    pub wall_ms: f64,
}

/// SERVE: the edge-coloring daemon under a concurrent seeded read/write
/// mix (experiment behind `make serve-smoke` at CI scale and the
/// million-edge torus row on full runs).
///
/// Each configuration boots an in-process daemon ([`distserve::ServerCore`]
/// plus the TCP front door), replays the deterministic loadgen mix against
/// it over real sockets, then audits the outcome in-harness: the final
/// coloring
/// must be checker-valid and bit-identical to a sequential replay of the
/// coalesced batch log (the daemon's post-repair stabilize pass is a
/// certify-only no-op on a clean coloring, so plain repair replay must
/// agree exactly).
pub fn run_serve(full_size: bool) -> (Table, Vec<ServeMeasurement>) {
    use distserve::loadgen::{run_against, LoadgenConfig};
    use distserve::{Client, DaemonHandle, LatencyHistogram, ServeConfig, ServerCore, Tenant};

    let mut table = Table::new(
        "SERVE",
        "Serving daemon: concurrent seeded read/write mix, coalesced repairs, replay audit",
        &[
            "graph",
            "clients",
            "read‰",
            "graphs",
            "inflight",
            "n",
            "m0",
            "final m",
            "ops",
            "reads",
            "accepted",
            "rejected",
            "proto errs",
            "repaired",
            "full recolors",
            "checker",
            "replay",
            "qps",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "p99.9 ms",
            "ticks",
            "wall ms",
        ],
    );
    let mut measurements = Vec::new();

    // The small toruses run at every selector size so the rows stay
    // key-comparable to the committed baseline — one strict
    // request-reply single-tenant row and one pipelined two-tenant row;
    // the million-edge torus (the ISSUE's serving target) only on full
    // runs.
    let mut configs: Vec<(usize, usize, usize, usize, usize)> =
        vec![(80, 80, 1500, 1, 1), (48, 48, 600, 2, 8)];
    if full_size {
        configs.push((1000, 500, 2000, 1, 1));
    }
    for (rows, cols, ops_per_client, graphs, inflight) in configs {
        let graph_label = format!("grid_torus({rows}x{cols})");
        let config = ServeConfig::default();
        let headroom = config.headroom;
        let tenants: Vec<Tenant> = (0..graphs)
            .map(|g| {
                Tenant::new(
                    format!("t{g}"),
                    generators::grid_torus(rows, cols),
                    config.clone(),
                )
                .expect("daemon boots")
            })
            .collect();
        let (n, m0) = (rows * cols, 2 * rows * cols);
        let max_deg0 = 4;
        let daemon = DaemonHandle::spawn(ServerCore::from_tenants(tenants)).expect("daemon binds");
        let lg = LoadgenConfig {
            rows,
            cols,
            clients: 4,
            ops_per_client,
            read_permille: 700,
            seed: 42,
            graphs,
            inflight,
        };
        let report = run_against(daemon.addr(), &lg).expect("loadgen completes");

        // Drain every tenant, then fold its counters and histograms into
        // the row.
        let mut client = Client::connect(daemon.addr()).expect("connect");
        let mut final_m = 0usize;
        let mut repaired_edges = 0u64;
        let mut full_recolors = 0u64;
        let mut ticks = 0u64;
        let mut repair_hist = LatencyHistogram::default();
        let mut protocol_errors = 0u64;
        for g in 0..graphs {
            client.set_graph(g as u32);
            client.flush().expect("flush");
            let metrics = client.metrics().expect("metrics");
            repaired_edges += metrics.repaired_edges;
            full_recolors += metrics.full_recolors;
            ticks += metrics.ticks;
            repair_hist.merge(&metrics.repair);
            protocol_errors = metrics.protocol_errors; // connection-level, same everywhere
        }
        let core = daemon.core().clone();
        daemon.shutdown();
        assert_eq!(
            core.internal_errors(),
            0,
            "{graph_label}: daemon hit internal errors"
        );

        // In-harness audit per tenant: checker validity and batch-log
        // replay equivalence are part of the regression contract, not
        // just test suite properties.
        let mut checker_valid = true;
        let mut replay_equivalent = true;
        for tenant in core.tenants() {
            let st = tenant.state_snapshot();
            let served = st.dynamic().graph();
            final_m += served.m();
            checker_valid = checker_valid
                && check_proper_edge_coloring(served, st.coloring()).is_ok()
                && check_complete(served, st.coloring()).is_ok();
            let log = tenant.batch_log();
            let ids = st.ids().clone();
            let params = *tenant.params();
            let budget = edgecolor::default_palette(max_deg0 + headroom);
            let mut dg = DynamicGraph::from_graph(generators::grid_torus(rows, cols));
            let (mut rec, _) =
                Recoloring::with_budget(&dg, &ids, &params, budget).expect("replay boots");
            let mut tenant_ok = true;
            for (_, batch) in &log {
                let diff = dg.apply(batch).expect("logged batches replay cleanly");
                if rec.repair(&dg, &diff, &ids, &params).is_err() {
                    tenant_ok = false;
                    break;
                }
            }
            replay_equivalent = replay_equivalent
                && tenant_ok
                && dg.graph().m() == served.m()
                && rec.coloring() == st.coloring();
        }

        let m = ServeMeasurement {
            graph: graph_label,
            clients: lg.clients,
            read_permille: lg.read_permille,
            graphs,
            inflight,
            n,
            m0,
            final_m,
            ops: report.ops,
            reads: report.reads,
            accepted: report.accepted,
            rejected: report.rejected,
            retries: report.retries,
            protocol_errors,
            repaired_edges,
            full_recolors,
            checker_valid,
            replay_equivalent,
            qps: report.qps,
            p50_ms: repair_hist.p50_ms(),
            p95_ms: repair_hist.p95_ms(),
            p99_ms: repair_hist.p99_ms(),
            repair_p999_ms: repair_hist.p999_ms(),
            ticks,
            wall_ms: report.wall_ms,
        };
        table.push_row(vec![
            m.graph.clone(),
            m.clients.to_string(),
            m.read_permille.to_string(),
            m.graphs.to_string(),
            m.inflight.to_string(),
            m.n.to_string(),
            m.m0.to_string(),
            m.final_m.to_string(),
            m.ops.to_string(),
            m.reads.to_string(),
            m.accepted.to_string(),
            m.rejected.to_string(),
            m.protocol_errors.to_string(),
            m.repaired_edges.to_string(),
            m.full_recolors.to_string(),
            m.checker_valid.to_string(),
            m.replay_equivalent.to_string(),
            format!("{:.0}", m.qps),
            format!("{:.2}", m.p50_ms),
            format!("{:.2}", m.p95_ms),
            format!("{:.2}", m.p99_ms),
            format!("{:.2}", m.repair_p999_ms),
            m.ticks.to_string(),
            format!("{:.1}", m.wall_ms),
        ]);
        measurements.push(m);
    }
    (table, measurements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_is_stable() {
        let mut t = Table::new("T", "test", &["a", "bbbb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("## T — test"));
        assert!(s.contains("bbbb"));
    }

    #[test]
    fn small_experiments_run_quickly_and_validate() {
        // Smoke-test the harness with tiny sizes so `cargo test` stays fast.
        let e1 = run_e1(&[4]);
        assert_eq!(e1.rows.len(), 1);
        let e4 = run_e4(&[32], &[1, 4]);
        assert_eq!(e4.rows.len(), 2);
        let e5 = run_e5(&[8], &[0.5]);
        assert_eq!(e5.rows.len(), 1);
        // Defect ratio must be within the Corollary 5.7 bound.
        let ratio: f64 = e5.rows[0][2].parse().unwrap();
        assert!(ratio <= 1.0 + 1e-9);
        let e6 = run_e6(&[8]);
        assert_eq!(e6.rows.len(), 1);
        let e7 = run_e7(&[64]);
        assert_eq!(e7.rows[0][3], "0");
    }

    #[test]
    fn dyn_experiment_repairs_far_less_than_full_recolor() {
        let table = run_dyn(false);
        assert_eq!(table.rows.len(), 3);
        // Steady-state scenarios (churn, sliding window) repair locally:
        // orders of magnitude fewer edges than recoloring per batch, and no
        // full-recolor fallback thanks to the provisioned headroom.
        for row in table.rows.iter().take(2) {
            let repaired: u64 = row[4].parse().unwrap();
            let full_recolors: u64 = row[5].parse().unwrap();
            let full_equivalent: u64 = row[6].parse().unwrap();
            let frac: f64 = row[7].parse().unwrap();
            assert!(
                repaired < full_equivalent / 10,
                "{}: repair touched {repaired} of {full_equivalent} edges",
                row[0]
            );
            assert!(frac < 0.1);
            assert_eq!(full_recolors, 0, "{}: fell back to a full recolor", row[0]);
        }
        // The hub attack runs with the tight budget and keeps breaking it:
        // the fallback accounting must show up.
        let hub = &table.rows[2];
        assert!(
            hub[5].parse::<u64>().unwrap() >= 1,
            "hub attack never broke the palette"
        );
    }

    #[test]
    fn fault_experiment_is_deterministic_and_validates() {
        let (table, measurements) = run_fault();
        // 2 graphs × 2 plans × 2 workloads.
        assert_eq!(measurements.len(), 8);
        assert_eq!(table.rows.len(), 8);
        let (again, repeat) = run_fault();
        assert_eq!(again.headers, table.headers);
        for (a, b) in measurements.iter().zip(&repeat) {
            // Everything except wall-clock replays exactly.
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.graph, b.graph);
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.delivered, b.delivered);
            assert_eq!(a.dropped, b.dropped);
            assert_eq!(a.conflicts_found, b.conflicts_found);
            assert_eq!(a.repaired_edges, b.repaired_edges);
        }
        for m in &measurements {
            match m.workload.as_str() {
                "flood" => {
                    assert!(m.dropped > 0, "{}: adversary idle", m.graph);
                    assert!(m.delivered > 0, "{}: everything lost", m.graph);
                    assert!(m.conflicts_found.is_none());
                    if m.crashes > 0 {
                        assert!(m.crash_dropped > 0, "{}: crashes idle", m.graph);
                    }
                    if m.link_cuts > 0 {
                        assert!(m.partition_dropped > 0, "{}: cuts idle", m.graph);
                    }
                }
                "recovery" => {
                    assert!(m.corrupted_edges.unwrap() > 0);
                    assert!(m.conflicts_found.unwrap() > 0, "{}: clean", m.graph);
                    assert!(m.repaired_edges.unwrap() > 0);
                }
                other => panic!("unexpected workload {other}"),
            }
        }
    }

    #[test]
    fn layered_game_builder_matches_expectations() {
        let game = layered_token_game(3, 4, 8);
        assert_eq!(game.n, 12);
        assert_eq!(game.num_arcs(), 2 * 16);
        assert_eq!(game.total_tokens(), 4 * 8);
    }
}
