//! The bench-regression contract: diffing a fresh `edgecolor-bench/v1`
//! document against the committed `BENCH_1.json` baseline.
//!
//! The experiment harness is deterministic wherever the simulation is:
//! round counts, colors used, message/traffic counters and the fault
//! adversary's effect replay exactly for a given seed. Wall-clock
//! fields are host noise. This module encodes that split as an explicit
//! **tolerance table** ([`column_rule`], [`FAULT_FIELDS`] & friends) and
//! compares the two documents row by row:
//!
//! * `experiments` tables are matched by experiment id, then row-keyed on
//!   their input columns ([`key_columns`]); rows present in only one
//!   document are *skipped* (the committed baseline carries full-size
//!   DYN rows a CI smoke run does not reproduce), rows present in
//!   both are compared cell-by-cell under the column rules;
//! * the `fault` / `io` / `serve` measurement arrays are keyed on
//!   their identity fields and compared field-by-field the same way.
//!
//! A non-empty mismatch list — or a suspiciously low compared-row count,
//! which would mean the contract silently stopped matching anything — fails
//! the build (`experiments --check-baseline`, CI job `bench-regression`).

use crate::json::JsonValue;

/// How one column/field is compared between baseline and fresh documents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Must match exactly (deterministic output).
    Exact,
    /// Numeric, must agree within the absolute tolerance (guards against
    /// float format round-trips, not against behavior change).
    AbsTol(f64),
    /// Host-dependent (wall clock, speedups, RSS): never compared.
    Ignore,
    /// Host-dependent, but the *fresh* value must be at least this floor;
    /// the baseline value is never compared. Used for throughput floors
    /// (`rounds_per_sec`, `qps`) and the IO cold-start speedup.
    MinFresh(f64),
}

/// The tolerance table for `experiments` table columns. Matching is by
/// column header; everything not listed here is compared [`Rule::Exact`].
const IGNORED_TABLE_COLUMNS: &[&str] = &[
    "wall ms",
    "repair wall ms",
    "initial color ms",
    // Wall-clock-derived throughput (IO's first-round rate).
    "rounds/s",
    // IO cold-start columns: wall clock and ratios thereof. The ≥ 10×
    // cold-start floor lives on the `io` measurement array
    // (`gated_speedup_vs_text`, [`IO_FIELDS`]), not on the table cells.
    "cold ms",
    "round ms",
    "vs text",
    "gate",
    "rss MB",
    // SERVE wall-clock-derived columns: throughput, repair latency
    // percentiles and tick counts depend on host timing and coalescing
    // luck. The qps floor lives on the `serve` measurement array
    // ([`SERVE_FIELDS`]); every admission/repair *count* stays Exact.
    "qps",
    "p50 ms",
    "p95 ms",
    "p99 ms",
    "p99.9 ms",
    "ticks",
];

/// Float-formatted but deterministic table columns: compared numerically
/// with a round-trip guard tolerance instead of string equality.
const FLOAT_TABLE_COLUMNS: &[&str] = &[
    "max defect ratio",
    "measured β",
    "guaranteed β",
    "touched frac",
    "colors/Δ",
    "ε",
    "red share",
    // E1/E3 scaling-fit columns: deterministic derivations of the (exactly
    // compared) round counts, formatted as floats.
    "rounds ×/doubling",
    "polylog fit c",
    // IO deterministic float columns: on-disk artifact size and the
    // locality metric of the reorder rows.
    "file MB",
    "edge span",
];

/// The comparison rule for a table column of experiment `id`.
pub fn column_rule(_id: &str, header: &str) -> Rule {
    if IGNORED_TABLE_COLUMNS.contains(&header) {
        Rule::Ignore
    } else if FLOAT_TABLE_COLUMNS.contains(&header) {
        Rule::AbsTol(1e-6)
    } else {
        Rule::Exact
    }
}

/// Whether an experiment table is *required* to match at least one
/// baseline row by key. The full-size DYN table legitimately shares no row
/// keys with a down-scaled smoke run; every other table (the E-sweeps,
/// FAULT, IO and SERVE, whose configurations are scale-invariant) matching
/// zero rows means its coverage silently evaporated — e.g. a selector
/// dropped from the CI command — and must fail the gate.
pub fn requires_matched_rows(id: &str) -> bool {
    id != "DYN"
}

/// The columns forming a row's identity per experiment id (input
/// parameters, not measurements). Rows whose key exists in only one
/// document are skipped. Unknown experiment ids key on their first column.
pub fn key_columns(id: &str) -> &'static [&'static str] {
    match id {
        "E1" | "E6" | "E11" => &["Δ"],
        "E2" | "E7" => &["n"],
        "E3" | "E5" => &["Δ", "ε"],
        "E4/E8" => &["k", "δ"],
        "E9" => &["family"],
        "E10" => &["list shape"],
        "DYN" => &["scenario", "n", "m"],
        "FAULT" => &["workload", "graph", "seed"],
        "IO" => &["graph", "method"],
        "SERVE" => &["graph", "clients", "read‰", "graphs", "inflight"],
        _ => &[],
    }
}

/// Identity fields and compared fields of the `fault` measurement array.
pub const FAULT_FIELDS: (&[&str], &[(&str, Rule)]) = (
    &["workload", "graph", "seed"],
    &[
        ("n", Rule::Exact),
        ("m", Rule::Exact),
        ("drop_permille", Rule::Exact),
        ("duplicate_permille", Rule::Exact),
        ("delay_permille", Rule::Exact),
        ("crashes", Rule::Exact),
        ("link_cuts", Rule::Exact),
        ("rounds", Rule::Exact),
        ("delivered", Rule::Exact),
        ("dropped", Rule::Exact),
        ("duplicated", Rule::Exact),
        ("delayed", Rule::Exact),
        ("crash_dropped", Rule::Exact),
        ("partition_dropped", Rule::Exact),
        ("corrupted_edges", Rule::Exact),
        ("conflicts_found", Rule::Exact),
        ("repaired_edges", Rule::Exact),
    ],
);

/// Identity fields and compared fields of the `io` measurement array. The
/// IO configurations are scale-invariant (the same graphs at every selector
/// size, like FAULT), so the structural fields are part of the contract on
/// every run: the on-disk artifact sizes, the served-adjacency digest and
/// the reorder locality metric are deterministic, and the snapshot-backed
/// cold-start paths on the million-edge torus must stay ≥ 10× faster than
/// the text parse (`gated_speedup_vs_text`; `Null` on rows the floor does
/// not apply to, which [`Rule::MinFresh`] passes).
pub const IO_FIELDS: (&[&str], &[(&str, Rule)]) = (
    &["graph", "method"],
    &[
        ("n", Rule::Exact),
        ("m", Rule::Exact),
        ("file_bytes", Rule::Exact),
        ("adjacency_checksum", Rule::Exact),
        ("mean_edge_span", Rule::AbsTol(1e-6)),
        ("gated_speedup_vs_text", Rule::MinFresh(10.0)),
    ],
);

/// Identity fields and compared fields of the `serve` measurement array.
/// The loadgen's disjoint-anchor workload makes every admission count
/// deterministic (client-side `accepted`/`rejected`, not the server's
/// retry-inflated counters), coalescing-invariance makes the repair totals
/// deterministic, and the in-harness audits (`checker_valid`,
/// `replay_equivalent`) are hard booleans. Throughput is held to a
/// lenient qps floor — the real floor is "the daemon still serves", an
/// order of magnitude below any plausible host — while latency
/// percentiles, tick counts and backpressure retries are wall-clock noise
/// and deliberately not listed.
pub const SERVE_FIELDS: (&[&str], &[(&str, Rule)]) = (
    &["graph", "clients", "read_permille", "graphs", "inflight"],
    &[
        ("n", Rule::Exact),
        ("m0", Rule::Exact),
        ("final_m", Rule::Exact),
        ("ops", Rule::Exact),
        ("reads", Rule::Exact),
        ("accepted", Rule::Exact),
        ("rejected", Rule::Exact),
        ("protocol_errors", Rule::Exact),
        ("repaired_edges", Rule::Exact),
        ("full_recolors", Rule::Exact),
        ("checker_valid", Rule::Exact),
        ("replay_equivalent", Rule::Exact),
        ("qps", Rule::MinFresh(10.0)),
    ],
);

/// The outcome of a baseline comparison.
#[derive(Debug, Clone, Default)]
pub struct RegressionReport {
    /// Rows whose key matched and whose cells were compared.
    pub compared_rows: usize,
    /// Rows present in only one document (different run scale).
    pub skipped_rows: usize,
    /// Human-readable mismatch descriptions (empty = no regression).
    pub mismatches: Vec<String>,
}

impl RegressionReport {
    /// `true` when no mismatch was found *and* the comparison was
    /// non-vacuous (at least `min_rows` rows actually matched by key).
    pub fn is_ok(&self, min_rows: usize) -> bool {
        self.mismatches.is_empty() && self.compared_rows >= min_rows
    }

    /// Renders the report as the diff artifact CI uploads.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bench-regression: {} rows compared, {} skipped (scale mismatch), {} mismatches\n",
            self.compared_rows,
            self.skipped_rows,
            self.mismatches.len()
        ));
        for m in &self.mismatches {
            out.push_str("REGRESSION: ");
            out.push_str(m);
            out.push('\n');
        }
        if self.mismatches.is_empty() {
            out.push_str("no regressions\n");
        }
        out
    }
}

/// Compares a freshly emitted document against the committed baseline.
/// Both must be `edgecolor-bench/v1` documents (see `docs/BENCH_SCHEMA.md`).
pub fn compare(baseline: &JsonValue, fresh: &JsonValue) -> RegressionReport {
    let mut report = RegressionReport::default();
    for (doc, which) in [(baseline, "baseline"), (fresh, "fresh")] {
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some("edgecolor-bench/v1") => {}
            other => report.mismatches.push(format!(
                "{which} document schema is {other:?}, expected edgecolor-bench/v1"
            )),
        }
    }
    compare_experiment_tables(baseline, fresh, &mut report);
    // The measurement arrays are scale-invariant (identical configurations
    // in baseline and smoke runs), so each must match at least one row.
    for (array, (keys, fields)) in [
        ("fault", FAULT_FIELDS),
        ("io", IO_FIELDS),
        ("serve", SERVE_FIELDS),
    ] {
        compare_measurement_array(baseline, fresh, array, keys, fields, &mut report);
    }
    report
}

fn empty() -> Vec<JsonValue> {
    Vec::new()
}

fn compare_experiment_tables(
    baseline: &JsonValue,
    fresh: &JsonValue,
    report: &mut RegressionReport,
) {
    let base_tables = baseline
        .get("experiments")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .unwrap_or_else(empty);
    let fresh_tables = fresh
        .get("experiments")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .unwrap_or_else(empty);
    for base in &base_tables {
        let Some(id) = base.get("id").and_then(JsonValue::as_str) else {
            continue;
        };
        let Some(new) = fresh_tables
            .iter()
            .find(|t| t.get("id").and_then(JsonValue::as_str) == Some(id))
        else {
            report
                .mismatches
                .push(format!("experiment {id} missing from the fresh run"));
            continue;
        };
        let headers = string_array(base.get("headers"));
        let fresh_headers = string_array(new.get("headers"));
        if headers != fresh_headers {
            report.mismatches.push(format!(
                "experiment {id} headers changed (regenerate the baseline): {headers:?} vs {fresh_headers:?}"
            ));
            continue;
        }
        let key_idx: Vec<usize> = {
            let wanted = key_columns(id);
            if wanted.is_empty() {
                vec![0]
            } else {
                wanted
                    .iter()
                    .filter_map(|k| headers.iter().position(|h| h == k))
                    .collect()
            }
        };
        let row_key = |row: &[String]| -> String {
            key_idx
                .iter()
                .map(|&i| row.get(i).cloned().unwrap_or_default())
                .collect::<Vec<_>>()
                .join("|")
        };
        let base_rows = table_rows(base);
        let fresh_rows = table_rows(new);
        // When a round count drifts, the diff artifact names the recursion
        // level that charged the most rounds (the ledger's dominant stage),
        // so a super-polylog regression points at the offending stage
        // instead of just a bad total.
        let stage_idx = headers.iter().position(|h| h == "dominant stage");
        let mut matched = 0usize;
        for brow in &base_rows {
            let key = row_key(brow);
            let Some(frow) = fresh_rows.iter().find(|r| row_key(r) == key) else {
                report.skipped_rows += 1;
                continue;
            };
            report.compared_rows += 1;
            matched += 1;
            let stage_hint = |header: &str| -> String {
                if !header.contains("rounds") {
                    return String::new();
                }
                stage_idx
                    .and_then(|i| frow.get(i))
                    .map(|s| format!(" (fresh dominant stage: {s})"))
                    .unwrap_or_default()
            };
            for (i, header) in headers.iter().enumerate() {
                let (Some(b), Some(f)) = (brow.get(i), frow.get(i)) else {
                    continue;
                };
                match column_rule(id, header) {
                    Rule::Ignore => {}
                    Rule::Exact => {
                        if b != f {
                            report.mismatches.push(format!(
                                "{id}[{key}].{header}: baseline `{b}` vs fresh `{f}`{}",
                                stage_hint(header)
                            ));
                        }
                    }
                    Rule::AbsTol(tol) => {
                        let (pb, pf) = (b.parse::<f64>(), f.parse::<f64>());
                        match (pb, pf) {
                            (Ok(x), Ok(y)) if (x - y).abs() <= tol => {}
                            _ if b == f => {} // non-numeric but identical (e.g. "-")
                            _ => report.mismatches.push(format!(
                                "{id}[{key}].{header}: baseline `{b}` vs fresh `{f}` (tol {tol})"
                            )),
                        }
                    }
                    Rule::MinFresh(floor) => {
                        if f.parse::<f64>().is_ok_and(|y| y < floor) {
                            report.mismatches.push(format!(
                                "{id}[{key}].{header}: fresh `{f}` below floor {floor}"
                            ));
                        }
                    }
                }
            }
        }
        for frow in &fresh_rows {
            if !base_rows.iter().any(|b| row_key(b) == row_key(frow)) {
                report.skipped_rows += 1;
            }
        }
        // A scale-invariant table that matched nothing lost its coverage
        // (e.g. a selector dropped from the CI command) — that is a gate
        // failure, not a skip.
        if matched == 0 && !base_rows.is_empty() && requires_matched_rows(id) {
            report.mismatches.push(format!(
                "experiment {id}: no fresh row matched any of the {} baseline rows — coverage lost",
                base_rows.len()
            ));
        }
    }
    // A table present only in the fresh run means the baseline predates an
    // experiment: regenerate it so the new rows become part of the contract.
    for new in &fresh_tables {
        let Some(id) = new.get("id").and_then(JsonValue::as_str) else {
            continue;
        };
        if !base_tables
            .iter()
            .any(|t| t.get("id").and_then(JsonValue::as_str) == Some(id))
        {
            report.mismatches.push(format!(
                "experiment {id} exists in the fresh run but not in the baseline (regenerate BENCH_1.json)"
            ));
        }
    }
}

fn compare_measurement_array(
    baseline: &JsonValue,
    fresh: &JsonValue,
    array: &str,
    keys: &[&str],
    fields: &[(&str, Rule)],
    report: &mut RegressionReport,
) {
    let base_rows = baseline
        .get(array)
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .unwrap_or_else(empty);
    let fresh_rows = fresh
        .get(array)
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .unwrap_or_else(empty);
    let key_of = |row: &JsonValue| -> String {
        keys.iter()
            .map(|k| match row.get(k) {
                Some(JsonValue::Str(s)) => s.clone(),
                Some(other) => other.render().trim().to_string(),
                None => String::new(),
            })
            .collect::<Vec<_>>()
            .join("|")
    };
    let mut matched = 0usize;
    for brow in &base_rows {
        let key = key_of(brow);
        let Some(frow) = fresh_rows.iter().find(|r| key_of(r) == key) else {
            report.skipped_rows += 1;
            continue;
        };
        report.compared_rows += 1;
        matched += 1;
        for (field, rule) in fields {
            let (b, f) = (brow.get(field), frow.get(field));
            let mismatch = match rule {
                Rule::Ignore => false,
                Rule::Exact => b != f,
                Rule::AbsTol(tol) => {
                    match (b.and_then(JsonValue::as_f64), f.and_then(JsonValue::as_f64)) {
                        (Some(x), Some(y)) => (x - y).abs() > *tol,
                        _ => b != f, // both Null (or both absent) is fine
                    }
                }
                // The baseline value is never consulted; only the fresh
                // value is held to the floor (absent/null passes — e.g. a
                // baseline recorded before the field existed).
                Rule::MinFresh(floor) => f.and_then(JsonValue::as_f64).is_some_and(|y| y < *floor),
            };
            if mismatch {
                let fresh_cell =
                    f.map_or("<absent>".to_string(), |v| v.render().trim().to_string());
                let detail = match rule {
                    Rule::MinFresh(floor) => format!("fresh {fresh_cell} below floor {floor}"),
                    _ => format!(
                        "baseline {} vs fresh {fresh_cell}",
                        b.map_or("<absent>".to_string(), |v| v.render().trim().to_string()),
                    ),
                };
                report
                    .mismatches
                    .push(format!("{array}[{key}].{field}: {detail}"));
            }
        }
    }
    for frow in &fresh_rows {
        if !base_rows.iter().any(|b| key_of(b) == key_of(frow)) {
            report.skipped_rows += 1;
        }
    }
    if matched == 0 && !base_rows.is_empty() {
        report.mismatches.push(format!(
            "{array}: no fresh row matched any of the {} baseline rows — coverage lost",
            base_rows.len()
        ));
    }
}

fn string_array(value: Option<&JsonValue>) -> Vec<String> {
    value
        .and_then(JsonValue::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

fn table_rows(table: &JsonValue) -> Vec<Vec<String>> {
    table
        .get("rows")
        .and_then(JsonValue::as_array)
        .map(|rows| {
            rows.iter()
                .map(|row| {
                    row.as_array()
                        .map(|cells| {
                            cells
                                .iter()
                                .filter_map(|c| c.as_str().map(str::to_string))
                                .collect()
                        })
                        .unwrap_or_default()
                })
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rounds: &str, wall: &str, span: f64) -> JsonValue {
        JsonValue::obj(vec![
            ("schema", JsonValue::str("edgecolor-bench/v1")),
            (
                "experiments",
                JsonValue::Arr(vec![JsonValue::obj(vec![
                    ("id", JsonValue::str("E1")),
                    (
                        "headers",
                        JsonValue::Arr(vec![
                            JsonValue::str("Δ"),
                            JsonValue::str("ours rounds"),
                            JsonValue::str("wall ms"),
                        ]),
                    ),
                    (
                        "rows",
                        JsonValue::Arr(vec![JsonValue::Arr(vec![
                            JsonValue::str("8"),
                            JsonValue::str(rounds),
                            JsonValue::str(wall),
                        ])]),
                    ),
                ])]),
            ),
            (
                "io",
                JsonValue::Arr(vec![JsonValue::obj(vec![
                    ("graph", JsonValue::str("g")),
                    ("method", JsonValue::str("reorder")),
                    ("n", JsonValue::Int(10)),
                    ("m", JsonValue::Int(20)),
                    ("mean_edge_span", JsonValue::Num(span)),
                    ("cold_start_ms", JsonValue::Num(1.25)),
                ])]),
            ),
        ])
    }

    /// `doc` with one more experiment table appended.
    fn with_table(mut doc: JsonValue, table: JsonValue) -> JsonValue {
        if let JsonValue::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if let ("experiments", JsonValue::Arr(tables)) = (k.as_str(), v) {
                    tables.push(table.clone());
                }
            }
        }
        doc
    }

    #[test]
    fn identical_documents_pass() {
        let a = doc("41", "3.5", 0.25);
        let report = compare(&a, &a);
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
        assert_eq!(report.compared_rows, 2);
        assert!(report.is_ok(2));
        assert!(report.render().contains("no regressions"));
    }

    #[test]
    fn wall_clock_differences_are_ignored() {
        let report = compare(&doc("41", "3.5", 0.25), &doc("41", "99.9", 0.25));
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
    }

    #[test]
    fn round_count_regressions_fail() {
        let report = compare(&doc("41", "3.5", 0.25), &doc("42", "3.5", 0.25));
        assert_eq!(report.mismatches.len(), 1);
        assert!(report.mismatches[0].contains("ours rounds"), "{report:?}");
        assert!(!report.is_ok(1));
        assert!(report.render().contains("REGRESSION"));
    }

    #[test]
    fn float_drift_beyond_tolerance_fails() {
        let report = compare(&doc("41", "3.5", 0.25), &doc("41", "3.5", 0.35));
        assert_eq!(report.mismatches.len(), 1);
        assert!(report.mismatches[0].contains("mean_edge_span"));
        // Within tolerance passes.
        let report = compare(&doc("41", "3.5", 0.25), &doc("41", "3.5", 0.25 + 1e-12));
        assert!(report.mismatches.is_empty());
    }

    #[test]
    fn missing_experiments_and_bad_schema_fail() {
        let a = doc("41", "3.5", 0.25);
        let mut b = doc("41", "3.5", 0.25);
        if let JsonValue::Obj(fields) = &mut b {
            fields.retain(|(k, _)| k != "experiments");
            fields.push(("experiments".into(), JsonValue::Arr(vec![])));
        }
        let report = compare(&a, &b);
        assert!(report
            .mismatches
            .iter()
            .any(|m| m.contains("missing from the fresh run")));

        let plain = JsonValue::obj(vec![("schema", JsonValue::str("something/else"))]);
        let report = compare(&plain, &plain);
        assert_eq!(report.mismatches.len(), 2);
    }

    #[test]
    fn scale_mismatched_rows_are_skipped_not_failed() {
        // The full-size DYN row of the baseline and the down-scaled row of
        // a smoke run share no key: both are skipped, neither fails.
        let dyn_table = |n: &str| {
            JsonValue::obj(vec![
                ("id", JsonValue::str("DYN")),
                (
                    "headers",
                    JsonValue::Arr(vec![
                        JsonValue::str("scenario"),
                        JsonValue::str("n"),
                        JsonValue::str("m"),
                    ]),
                ),
                (
                    "rows",
                    JsonValue::Arr(vec![JsonValue::Arr(vec![
                        JsonValue::str("churn"),
                        JsonValue::str(n),
                        JsonValue::str("2000"),
                    ])]),
                ),
            ])
        };
        let a = with_table(doc("41", "3.5", 0.25), dyn_table("1000000"));
        let b = with_table(doc("41", "3.5", 0.25), dyn_table("1000"));
        let report = compare(&a, &b);
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
        assert_eq!(report.compared_rows, 2); // the E1 and io rows
        assert_eq!(report.skipped_rows, 2); // baseline + fresh DYN rows
    }

    #[test]
    fn lost_coverage_is_a_failure_not_a_skip() {
        let a = doc("41", "3.5", 0.25);
        // Fresh run lost the E1 rows entirely (e.g. a dropped selector):
        // keys match nothing, which must fail rather than silently skip.
        let mut b = doc("41", "3.5", 0.25);
        if let JsonValue::Obj(fields) = &mut b {
            for (k, v) in fields.iter_mut() {
                if k == "experiments" {
                    if let JsonValue::Arr(tables) = v {
                        if let JsonValue::Obj(table) = &mut tables[0] {
                            for (tk, tv) in table.iter_mut() {
                                if tk == "rows" {
                                    *tv = JsonValue::Arr(vec![]);
                                }
                            }
                        }
                    }
                }
            }
        }
        let report = compare(&a, &b);
        assert!(
            report
                .mismatches
                .iter()
                .any(|m| m.contains("E1") && m.contains("coverage lost")),
            "{:?}",
            report.mismatches
        );
    }

    #[test]
    fn fresh_only_experiments_require_a_baseline_regen() {
        let a = doc("41", "3.5", 0.25);
        let b = with_table(
            doc("41", "3.5", 0.25),
            JsonValue::obj(vec![
                ("id", JsonValue::str("BRAND_NEW")),
                ("headers", JsonValue::Arr(vec![])),
                ("rows", JsonValue::Arr(vec![])),
            ]),
        );
        let report = compare(&a, &b);
        assert!(
            report
                .mismatches
                .iter()
                .any(|m| m.contains("BRAND_NEW") && m.contains("regenerate")),
            "{:?}",
            report.mismatches
        );
    }

    #[test]
    fn required_match_arrays_fail_when_emptied() {
        // A baseline with one fault row and a fresh doc with none.
        let fault_row = JsonValue::obj(vec![
            ("workload", JsonValue::str("flood")),
            ("graph", JsonValue::str("g/full")),
            ("seed", JsonValue::Int(7)),
            ("rounds", JsonValue::Int(5)),
        ]);
        let with_fault = |rows: Vec<JsonValue>| {
            JsonValue::obj(vec![
                ("schema", JsonValue::str("edgecolor-bench/v1")),
                ("experiments", JsonValue::Arr(vec![])),
                ("fault", JsonValue::Arr(rows)),
            ])
        };
        let report = compare(&with_fault(vec![fault_row.clone()]), &with_fault(vec![]));
        assert!(
            report
                .mismatches
                .iter()
                .any(|m| m.contains("fault") && m.contains("coverage lost")),
            "{:?}",
            report.mismatches
        );
        // Identical fault rows match.
        let report = compare(
            &with_fault(vec![fault_row.clone()]),
            &with_fault(vec![fault_row]),
        );
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
    }

    #[test]
    fn tolerance_table_classifies_columns() {
        assert_eq!(column_rule("E1", "wall ms"), Rule::Ignore);
        assert_eq!(column_rule("E9", "colors/Δ"), Rule::AbsTol(1e-6));
        // The round-complexity contract: E1/E3 round counts are exact-match.
        assert_eq!(column_rule("E1", "ours rounds"), Rule::Exact);
        assert_eq!(column_rule("E3", "rounds"), Rule::Exact);
        assert_eq!(column_rule("E1", "dominant stage"), Rule::Exact);
        // The derived scaling-fit columns are float-compared.
        assert_eq!(column_rule("E1", "rounds ×/doubling"), Rule::AbsTol(1e-6));
        assert_eq!(column_rule("E1", "polylog fit c"), Rule::AbsTol(1e-6));
        assert_eq!(column_rule("FAULT", "dropped"), Rule::Exact);
        assert_eq!(key_columns("E3"), &["Δ", "ε"]);
        assert_eq!(key_columns("FAULT"), &["workload", "graph", "seed"]);
        assert!(key_columns("E999").is_empty());
        // Only the full-size DYN table may match no smoke row.
        assert!(!requires_matched_rows("DYN"));
        assert!(requires_matched_rows("FAULT"));
        // The IO experiment: wall-clock columns ignored, structural columns
        // compared, the cold-start floor on the measurement array.
        assert_eq!(key_columns("IO"), &["graph", "method"]);
        assert_eq!(column_rule("IO", "cold ms"), Rule::Ignore);
        assert_eq!(column_rule("IO", "vs text"), Rule::Ignore);
        assert_eq!(column_rule("IO", "rounds/s"), Rule::Ignore);
        assert_eq!(column_rule("IO", "file MB"), Rule::AbsTol(1e-6));
        assert_eq!(column_rule("IO", "edge span"), Rule::AbsTol(1e-6));
        assert_eq!(column_rule("IO", "checksum"), Rule::Exact);
        assert!(requires_matched_rows("IO"));
        assert!(IO_FIELDS
            .1
            .iter()
            .any(|&(f, r)| f == "gated_speedup_vs_text" && r == Rule::MinFresh(10.0)));
        assert!(IO_FIELDS
            .1
            .iter()
            .any(|&(f, r)| f == "adjacency_checksum" && r == Rule::Exact));
    }

    fn io_doc(gated: JsonValue, checksum: i64) -> JsonValue {
        JsonValue::obj(vec![
            ("schema", JsonValue::str("edgecolor-bench/v1")),
            ("experiments", JsonValue::Arr(vec![])),
            ("fault", JsonValue::Arr(vec![])),
            (
                "io",
                JsonValue::Arr(vec![JsonValue::obj(vec![
                    ("graph", JsonValue::str("grid_torus(1000x500)")),
                    ("method", JsonValue::str("zero_copy_open")),
                    ("n", JsonValue::Int(500000)),
                    ("m", JsonValue::Int(1000000)),
                    ("file_bytes", JsonValue::Int(18000204)),
                    ("adjacency_checksum", JsonValue::Int(checksum)),
                    ("mean_edge_span", JsonValue::Null),
                    ("gated_speedup_vs_text", gated),
                    ("cold_start_ms", JsonValue::Num(12.0)),
                ])]),
            ),
        ])
    }

    #[test]
    fn io_cold_start_floor_gates_fresh_values_only() {
        // Baseline below floor, fresh above: passes (only fresh counts).
        let report = compare(
            &io_doc(JsonValue::Num(4.0), 7),
            &io_doc(JsonValue::Num(31.0), 7),
        );
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
        // Fresh below the 10× floor: fails.
        let report = compare(
            &io_doc(JsonValue::Num(31.0), 7),
            &io_doc(JsonValue::Num(8.5), 7),
        );
        assert!(
            report
                .mismatches
                .iter()
                .any(|m| m.contains("gated_speedup_vs_text") && m.contains("below floor 10")),
            "{:?}",
            report.mismatches
        );
        // Null (a row the floor does not apply to) passes the gate, but a
        // drifted adjacency digest is an exact-match failure.
        let report = compare(&io_doc(JsonValue::Null, 7), &io_doc(JsonValue::Null, 8));
        assert_eq!(report.mismatches.len(), 1, "{:?}", report.mismatches);
        assert!(report.mismatches[0].contains("adjacency_checksum"));
        // An emptied fresh `io` array is lost coverage, not a skip.
        let report = compare(&io_doc(JsonValue::Null, 7), &{
            let mut d = io_doc(JsonValue::Null, 7);
            if let JsonValue::Obj(fields) = &mut d {
                for (k, v) in fields.iter_mut() {
                    if k == "io" {
                        *v = JsonValue::Arr(vec![]);
                    }
                }
            }
            d
        });
        assert!(
            report
                .mismatches
                .iter()
                .any(|m| m.contains("io") && m.contains("coverage lost")),
            "{:?}",
            report.mismatches
        );
    }

    #[test]
    fn round_regressions_name_the_dominant_stage() {
        let with_stage = |rounds: &str, stage: &str| {
            JsonValue::obj(vec![
                ("schema", JsonValue::str("edgecolor-bench/v1")),
                (
                    "experiments",
                    JsonValue::Arr(vec![JsonValue::obj(vec![
                        ("id", JsonValue::str("E1")),
                        (
                            "headers",
                            JsonValue::Arr(vec![
                                JsonValue::str("Δ"),
                                JsonValue::str("ours rounds"),
                                JsonValue::str("dominant stage"),
                            ]),
                        ),
                        (
                            "rows",
                            JsonValue::Arr(vec![JsonValue::Arr(vec![
                                JsonValue::str("16"),
                                JsonValue::str(rounds),
                                JsonValue::str(stage),
                            ])]),
                        ),
                    ])]),
                ),
                ("fault", JsonValue::Arr(vec![])),
            ])
        };
        let report = compare(
            &with_stage("447", "orientation"),
            &with_stage("13566", "d4-sweep"),
        );
        assert!(
            report
                .mismatches
                .iter()
                .any(|m| m.contains("ours rounds") && m.contains("dominant stage: d4-sweep")),
            "{:?}",
            report.mismatches
        );
    }
}
