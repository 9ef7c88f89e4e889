//! Prints the evaluation suite E1–E11 plus the DYN/FAULT/IO/SERVE experiments
//! (see docs/PAPER_MAP.md) and optionally serializes everything —
//! tables and per-experiment wall-clock timings — to a machine-readable
//! JSON file (the `BENCH_*.json` schema documented in docs/BENCH_SCHEMA.md).
//!
//! Usage:
//!   cargo run --release -p edgecolor-bench --bin experiments                # all experiments
//!   cargo run --release -p edgecolor-bench --bin experiments -- e1 e4      # a subset
//!   cargo run --release -p edgecolor-bench --bin experiments -- quick      # smaller E1–E11 sweeps only
//!   cargo run --release -p edgecolor-bench --bin experiments -- dyn        # million-edge dynamic recoloring
//!   cargo run --release -p edgecolor-bench --bin experiments -- fault      # fault adversary + self-stabilizing recovery
//!   cargo run --release -p edgecolor-bench --bin experiments -- io         # out-of-core load paths + locality reordering
//!   cargo run --release -p edgecolor-bench --bin experiments -- rounds     # round-complexity gate: E1/E2/E3 only, quick-size
//!   cargo run --release -p edgecolor-bench --bin experiments -- smoke dyn fault io serve  # CI: tiny sweeps + tiny DYN
//!   cargo run --release -p edgecolor-bench --bin experiments -- quick dyn fault io serve --emit-json BENCH_1.json
//!
//! An unknown selector prints a usage line and exits with status 2.
//!
//! The CI `bench-regression` job additionally passes
//! `--check-baseline BENCH_1.json --diff-out /tmp/diff.txt`: the freshly
//! built document is diffed against the committed baseline under the
//! tolerance table of `edgecolor_bench::regression`, the diff is written to
//! the given path, and any regression exits non-zero.

use edgecolor_bench as bench;
use edgecolor_bench::json::JsonValue;
use std::time::Instant;

struct TimedTable {
    table: bench::Table,
    wall_ms: f64,
}

/// Every selector the binary understands; anything else is rejected.
const SELECTORS: &[&str] = &[
    "all", "quick", "smoke", "rounds", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
    "e11", "dyn", "fault", "io", "serve",
];

const USAGE: &str = "usage: experiments [all|quick|smoke|rounds|e1..e11|dyn|fault|io|serve]... \
                     [--emit-json PATH] [--check-baseline PATH] [--diff-out PATH]";

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    emit_json: Option<String>,
    check_baseline: Option<String>,
    diff_out: Option<String>,
    /// Lower-cased experiment selectors, each one of [`SELECTORS`].
    selectors: Vec<String>,
}

/// Parses the arguments after the program name. An unknown selector or a
/// path flag without its path is an error, so a typo cannot silently run
/// nothing.
fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut iter = raw.into_iter();
    while let Some(arg) = iter.next() {
        let slot = match arg.as_str() {
            "--emit-json" => &mut args.emit_json,
            "--check-baseline" => &mut args.check_baseline,
            "--diff-out" => &mut args.diff_out,
            _ => {
                let selector = arg.to_lowercase();
                if !SELECTORS.contains(&selector.as_str()) {
                    return Err(format!("unknown selector `{arg}`"));
                }
                args.selectors.push(selector);
                continue;
            }
        };
        *slot = Some(
            iter.next()
                .ok_or_else(|| format!("{arg} requires a path argument"))?,
        );
    }
    Ok(args)
}

fn main() {
    let Args {
        emit_json,
        check_baseline,
        diff_out,
        selectors,
    } = parse_args(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("experiments: {err}\n{USAGE}");
        std::process::exit(2);
    });
    let quick = selectors.iter().any(|a| a == "quick");
    let smoke = selectors.iter().any(|a| a == "smoke");
    // `rounds` is the round-complexity gate (`make bench-rounds`): only the
    // experiments whose round counts the tolerance table pins exactly
    // (E1/E2/E3), at quick-size sweeps so the rows stay key-comparable to
    // the committed baseline.
    let rounds_only = selectors.iter().any(|a| a == "rounds");
    // `io` as the sole selector is the `make bench-io` gate: only the IO
    // experiment runs, and a baseline check prunes everything else.
    let io_only = selectors.len() == 1 && selectors[0] == "io";
    let small = quick || smoke || rounds_only;
    // An experiment runs when no selector is given or a broad selector
    // (all/quick/smoke) or its own id appears.
    let want = |id: &str| {
        if rounds_only {
            return matches!(id, "e1" | "e2" | "e3");
        }
        selectors.is_empty()
            || selectors
                .iter()
                .any(|a| a == id || a == "all" || a == "quick" || a == "smoke")
    };

    let deltas: &[usize] = if small {
        &[8, 16, 32]
    } else {
        &[8, 16, 32, 64]
    };
    let small_deltas: &[usize] = if small { &[8, 16] } else { &[8, 16, 32, 64] };
    let ns: &[usize] = if small {
        &[128, 256, 512]
    } else {
        &[128, 256, 512, 1024, 2048]
    };
    let congest_ns: &[usize] = if small {
        &[128, 256]
    } else {
        &[128, 256, 512, 1024]
    };
    let orientation_deltas: &[usize] = if small {
        &[16, 32, 64]
    } else {
        &[16, 32, 64, 128]
    };
    let orientation_eps: &[f64] = if small { &[0.5] } else { &[0.25, 0.5, 1.0] };

    let mut tables: Vec<TimedTable> = Vec::new();
    let mut timed = |run: &mut dyn FnMut() -> bench::Table| {
        let started = Instant::now();
        let table = run();
        tables.push(TimedTable {
            table,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        });
    };
    if want("e1") {
        timed(&mut || bench::run_e1(deltas));
    }
    if want("e2") {
        timed(&mut || bench::run_e2(ns));
    }
    if want("e3") {
        timed(&mut || bench::run_e3(small_deltas, &[0.25, 0.5, 1.0]));
    }
    if want("e4") || want("e8") {
        timed(&mut || bench::run_e4(&[64, 256, 1024], &[1, 4, 16, 64]));
    }
    if want("e5") {
        timed(&mut || bench::run_e5(orientation_deltas, orientation_eps));
    }
    if want("e6") {
        timed(&mut || bench::run_e6(orientation_deltas));
    }
    if want("e7") {
        timed(&mut || bench::run_e7(congest_ns));
    }
    if want("e9") {
        timed(&mut || bench::run_e9());
    }
    if want("e10") {
        timed(&mut || bench::run_e10());
    }
    if want("e11") {
        timed(&mut || bench::run_e11(small_deltas));
    }

    // The DYN experiment runs only when explicitly named (or on a bare full
    // run): its million-edge update streams would turn `quick`/`smoke`
    // sweeps into multi-minute runs. Graph sizes stay down-scaled under
    // `smoke`.
    let dyn_wanted = selectors.is_empty() || selectors.iter().any(|a| a == "dyn" || a == "all");
    if dyn_wanted {
        timed(&mut || bench::run_dyn(!smoke));
    }
    // FAULT runs the same modest-size configurations under every selector
    // size, so the rows a CI smoke run emits are key-comparable to the
    // committed baseline (the point of the bench-regression contract).
    let fault_wanted = selectors.is_empty() || selectors.iter().any(|a| a == "fault" || a == "all");
    let mut fault_measurements = Vec::new();
    if fault_wanted {
        timed(&mut || {
            let (table, measurements) = bench::run_fault();
            fault_measurements = measurements;
            table
        });
    }
    // IO runs the same configurations under every selector size (like
    // FAULT), so its rows — including the million-edge-torus cold-start
    // floor — stay key-comparable to the committed baseline.
    let io_wanted = selectors.is_empty() || selectors.iter().any(|a| a == "io" || a == "all");
    let mut io_measurements = Vec::new();
    if io_wanted {
        timed(&mut || {
            let (table, measurements) = bench::run_io();
            io_measurements = measurements;
            table
        });
    }
    // SERVE runs its small-torus row at every selector size (like FAULT
    // and IO, so the row stays key-comparable to the baseline); the
    // million-edge serving row joins on full-size runs only.
    let serve_wanted = selectors.is_empty() || selectors.iter().any(|a| a == "serve" || a == "all");
    let mut serve_measurements = Vec::new();
    if serve_wanted {
        timed(&mut || {
            let (table, measurements) = bench::run_serve(!smoke);
            serve_measurements = measurements;
            table
        });
    }

    for entry in &tables {
        println!("{}", entry.table);
        println!("(wall clock: {:.1} ms)\n", entry.wall_ms);
    }

    // The JSON document is only needed to emit or to diff; a plain
    // table-printing run skips assembling it.
    if emit_json.is_none() && check_baseline.is_none() {
        return;
    }
    let doc = build_json(
        &tables,
        &fault_measurements,
        &io_measurements,
        &serve_measurements,
    );
    if let Some(path) = emit_json {
        std::fs::write(&path, doc.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }

    if let Some(path) = check_baseline {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let mut baseline = JsonValue::parse(&text)
            .unwrap_or_else(|e| panic!("baseline {path} is not valid bench JSON: {e}"));
        if rounds_only {
            baseline = prune_baseline_for_rounds(baseline);
        }
        // `make bench-io` checks only the IO experiment against the
        // baseline: restrict the baseline to the `io` array (and the IO
        // table) so the deliberately skipped experiments don't read as
        // losses.
        if io_only {
            baseline = prune_baseline_for_io(baseline);
        }
        let report = bench::regression::compare(&baseline, &doc);
        let rendered = report.render();
        print!("{rendered}");
        if let Some(diff_path) = diff_out {
            std::fs::write(&diff_path, &rendered)
                .unwrap_or_else(|e| panic!("write {diff_path}: {e}"));
            println!("wrote {diff_path}");
        }
        // A vacuous comparison (nothing matched by key) is as much a
        // contract failure as a mismatch: it means the diff silently
        // stopped covering anything.
        const MIN_COMPARED_ROWS: usize = 10;
        if !report.is_ok(MIN_COMPARED_ROWS) {
            eprintln!(
                "bench-regression FAILED ({} mismatches, {} rows compared, {MIN_COMPARED_ROWS} required)",
                report.mismatches.len(),
                report.compared_rows
            );
            std::process::exit(1);
        }
    }
}

/// Restricts a parsed baseline document to the tables whose ids satisfy
/// `keep` and empties the measurement arrays named in `empty_arrays`. A
/// subset run would otherwise fail the diff on "experiment missing from
/// the fresh run" / "coverage lost" for every table it deliberately skips.
fn prune_baseline(doc: JsonValue, keep: &dyn Fn(&str) -> bool, empty_arrays: &[&str]) -> JsonValue {
    let JsonValue::Obj(fields) = doc else {
        return doc;
    };
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(key, value)| {
                let value = if key == "experiments" {
                    match value {
                        JsonValue::Arr(exp_tables) => JsonValue::Arr(
                            exp_tables
                                .into_iter()
                                .filter(|t| {
                                    t.get("id").and_then(JsonValue::as_str).is_some_and(keep)
                                })
                                .collect(),
                        ),
                        other => other,
                    }
                } else if empty_arrays.contains(&key.as_str()) {
                    JsonValue::Arr(Vec::new())
                } else {
                    value
                };
                (key, value)
            })
            .collect(),
    )
}

/// The `rounds` gate reproduces only E1/E2/E3; the round columns keep
/// their exact-match contract while everything else is pruned.
fn prune_baseline_for_rounds(doc: JsonValue) -> JsonValue {
    prune_baseline(
        doc,
        &|id| matches!(id, "E1" | "E2" | "E3"),
        &["fault", "io", "serve"],
    )
}

/// The `io` gate reproduces only the IO experiment: the IO table and the
/// `io` measurement array (with its cold-start floor) keep their contract.
fn prune_baseline_for_io(doc: JsonValue) -> JsonValue {
    prune_baseline(doc, &|id| id == "IO", &["fault", "serve"])
}

/// Assembles the `edgecolor-bench/v1` JSON document (schema in
/// `docs/BENCH_SCHEMA.md`).
fn build_json(
    tables: &[TimedTable],
    fault: &[bench::FaultMeasurement],
    io: &[bench::IoMeasurement],
    serve: &[bench::ServeMeasurement],
) -> JsonValue {
    let experiments = tables
        .iter()
        .map(|entry| {
            JsonValue::obj(vec![
                ("id", JsonValue::str(entry.table.id.clone())),
                ("title", JsonValue::str(entry.table.title.clone())),
                ("wall_ms", JsonValue::Num(entry.wall_ms)),
                (
                    "headers",
                    JsonValue::Arr(
                        entry
                            .table
                            .headers
                            .iter()
                            .map(|h| JsonValue::str(h.clone()))
                            .collect(),
                    ),
                ),
                (
                    "rows",
                    JsonValue::Arr(
                        entry
                            .table
                            .rows
                            .iter()
                            .map(|row| {
                                JsonValue::Arr(
                                    row.iter().map(|c| JsonValue::str(c.clone())).collect(),
                                )
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let opt_int = |v: Option<u64>| v.map_or(JsonValue::Null, |x| JsonValue::Int(x as i64));
    let fault_entries = fault
        .iter()
        .map(|m| {
            JsonValue::obj(vec![
                ("workload", JsonValue::str(m.workload.clone())),
                ("graph", JsonValue::str(m.graph.clone())),
                ("n", JsonValue::Int(m.n as i64)),
                ("m", JsonValue::Int(m.m as i64)),
                ("seed", JsonValue::Int(m.seed as i64)),
                ("drop_permille", JsonValue::Int(m.drop_permille as i64)),
                (
                    "duplicate_permille",
                    JsonValue::Int(m.duplicate_permille as i64),
                ),
                ("delay_permille", JsonValue::Int(m.delay_permille as i64)),
                ("crashes", JsonValue::Int(m.crashes as i64)),
                ("link_cuts", JsonValue::Int(m.link_cuts as i64)),
                ("rounds", JsonValue::Int(m.rounds as i64)),
                ("delivered", JsonValue::Int(m.delivered as i64)),
                ("dropped", JsonValue::Int(m.dropped as i64)),
                ("duplicated", JsonValue::Int(m.duplicated as i64)),
                ("delayed", JsonValue::Int(m.delayed as i64)),
                ("crash_dropped", JsonValue::Int(m.crash_dropped as i64)),
                (
                    "partition_dropped",
                    JsonValue::Int(m.partition_dropped as i64),
                ),
                ("corrupted_edges", opt_int(m.corrupted_edges)),
                ("conflicts_found", opt_int(m.conflicts_found)),
                ("repaired_edges", opt_int(m.repaired_edges)),
                ("wall_ms", JsonValue::Num(m.wall_ms)),
            ])
        })
        .collect();
    let opt_num = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::Num);
    let io_entries = io
        .iter()
        .map(|m| {
            JsonValue::obj(vec![
                ("graph", JsonValue::str(m.graph.clone())),
                ("method", JsonValue::str(m.method.clone())),
                ("n", JsonValue::Int(m.n as i64)),
                ("m", JsonValue::Int(m.m as i64)),
                ("file_bytes", opt_int(m.file_bytes)),
                ("cold_start_ms", JsonValue::Num(m.cold_start_ms)),
                ("first_round_ms", opt_num(m.first_round_ms)),
                ("peak_rss_bytes", opt_int(m.peak_rss_bytes)),
                (
                    "adjacency_checksum",
                    JsonValue::Int(m.adjacency_checksum as i64),
                ),
                ("speedup_vs_text", opt_num(m.speedup_vs_text)),
                ("gated_speedup_vs_text", opt_num(m.gated_speedup_vs_text)),
                ("rounds_per_sec", opt_num(m.rounds_per_sec)),
                ("mean_edge_span", opt_num(m.mean_edge_span)),
            ])
        })
        .collect();
    let serve_entries = serve
        .iter()
        .map(|m| {
            JsonValue::obj(vec![
                ("graph", JsonValue::str(m.graph.clone())),
                ("clients", JsonValue::Int(m.clients as i64)),
                ("read_permille", JsonValue::Int(m.read_permille as i64)),
                ("graphs", JsonValue::Int(m.graphs as i64)),
                ("inflight", JsonValue::Int(m.inflight as i64)),
                ("n", JsonValue::Int(m.n as i64)),
                ("m0", JsonValue::Int(m.m0 as i64)),
                ("final_m", JsonValue::Int(m.final_m as i64)),
                ("ops", JsonValue::Int(m.ops as i64)),
                ("reads", JsonValue::Int(m.reads as i64)),
                ("accepted", JsonValue::Int(m.accepted as i64)),
                ("rejected", JsonValue::Int(m.rejected as i64)),
                ("retries", JsonValue::Int(m.retries as i64)),
                ("protocol_errors", JsonValue::Int(m.protocol_errors as i64)),
                ("repaired_edges", JsonValue::Int(m.repaired_edges as i64)),
                ("full_recolors", JsonValue::Int(m.full_recolors as i64)),
                ("checker_valid", JsonValue::Bool(m.checker_valid)),
                ("replay_equivalent", JsonValue::Bool(m.replay_equivalent)),
                ("qps", JsonValue::Num(m.qps)),
                ("p50_ms", JsonValue::Num(m.p50_ms)),
                ("p95_ms", JsonValue::Num(m.p95_ms)),
                ("p99_ms", JsonValue::Num(m.p99_ms)),
                ("repair_p999_ms", JsonValue::Num(m.repair_p999_ms)),
                ("ticks", JsonValue::Int(m.ticks as i64)),
                ("wall_ms", JsonValue::Num(m.wall_ms)),
            ])
        })
        .collect();
    let available = std::thread::available_parallelism()
        .map(|p| p.get() as i64)
        .unwrap_or(1);
    JsonValue::obj(vec![
        ("schema", JsonValue::str("edgecolor-bench/v1")),
        (
            "host",
            JsonValue::obj(vec![
                ("available_parallelism", JsonValue::Int(available)),
                ("os", JsonValue::str(std::env::consts::OS)),
                ("arch", JsonValue::str(std::env::consts::ARCH)),
            ]),
        ),
        ("experiments", JsonValue::Arr(experiments)),
        ("fault", JsonValue::Arr(fault_entries)),
        ("io", JsonValue::Arr(io_entries)),
        ("serve", JsonValue::Arr(serve_entries)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parser_accepts_selectors_and_path_flags() {
        let args = parse(&["Quick", "dyn", "e8", "--emit-json", "out.json"]).unwrap();
        assert_eq!(args.selectors, ["quick", "dyn", "e8"]);
        assert_eq!(args.emit_json.as_deref(), Some("out.json"));
        assert_eq!(parse(&[]).unwrap(), Args::default());
        for selector in SELECTORS {
            assert!(parse(&[selector]).is_ok(), "{selector}");
        }
    }

    #[test]
    fn parser_rejects_unknown_selectors_and_missing_paths() {
        // Typos and retired selectors (`shard`, `scale`) are errors, not
        // silent no-op runs.
        for bad in ["shard", "scale", "e12", "fualt", "--emit"] {
            let err = parse(&["quick", bad]).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
        let err = parse(&["fault", "--diff-out"]).unwrap_err();
        assert!(err.contains("--diff-out requires a path"), "{err}");
    }
}
