//! The metric catalog and the result line.
//!
//! Every workload reports every end-to-end metric. A per-layer metric a
//! workload's layers do no work for reads 0 on that workload. See
//! `perfbench/README.md` for what each metric measures and what it should
//! move.

use std::collections::BTreeMap;

/// The end-to-end metrics, `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_s", "1/s"),
];

/// The ledger stages reported as `sim.ledger.rounds.<stage>`.
pub const LEDGER_STAGES: [&str; 8] = [
    "outer-iter",
    "amplify-split",
    "amplify-fallback",
    "slack-solve",
    "linial",
    "defective4",
    "orientation",
    "greedy-finish",
];

/// The per-layer metrics, `(name, unit)`, reported by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Client-observed numbers by the names the serving story uses.
    ("lookup_p50_us", "us"),
    ("lookup_tail_us", "us"),
    ("lookup_samples", "count"),
    ("lookup_ops_s", "1/s"),
    ("commit_p50_ms", "ms"),
    ("commit_tail_ms", "ms"),
    ("commit_samples", "count"),
    ("failed_share", "share"),
    ("color_s", "s"),
    ("rounds", "count"),
    ("colors_used", "count"),
    ("traced.op_p50_ms", "ms"),
    // serve.wire / serve.daemon and serve.state.
    ("serve.transport_us", "us"),
    ("serve.state.lookup_us", "us"),
    ("serve.state.submit_us", "us"),
    ("serve.state.tick_ms", "ms"),
    ("serve.state.batches_per_tick", "count"),
    ("serve.tick.allocs", "count"),
    ("serve.tick.other_ms", "ms"),
    // Tick phases, replayed from the batch log.
    ("graph.dynamic.clone_ms", "ms"),
    ("graph.dynamic.apply_ms", "ms"),
    ("graph.dynamic.carry_ms", "ms"),
    ("graph.edge_subgraph_ms", "ms"),
    ("core.recolor.repair_ms", "ms"),
    ("core.stabilize.ms", "ms"),
    ("core.recolor.dirty_edges", "count"),
    ("core.recolor.rounds", "count"),
    ("core.recolor.messages", "count"),
    ("core.recolor.full_recolors", "count"),
    ("core.stabilize.conflicts", "count"),
    // sim.network and the coloring recursion.
    ("sim.network.round_ms", "ms"),
    ("sim.network.messages", "count"),
    ("sim.network.total_bits", "bits"),
    ("sim.network.allocs_per_round", "count"),
    ("sim.network.alloc_mb_per_round", "MB"),
    ("core.list_coloring.outer_iterations", "count"),
    ("core.list_coloring.solver_calls", "count"),
    ("sim.ledger.fallback_share", "share"),
    ("sim.ledger.rounds.outer-iter", "count"),
    ("sim.ledger.rounds.amplify-split", "count"),
    ("sim.ledger.rounds.amplify-fallback", "count"),
    ("sim.ledger.rounds.slack-solve", "count"),
    ("sim.ledger.rounds.linial", "count"),
    ("sim.ledger.rounds.defective4", "count"),
    ("sim.ledger.rounds.orientation", "count"),
    ("sim.ledger.rounds.greedy-finish", "count"),
    // store and set-up.
    ("store.open_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.into_dynamic_ms", "ms"),
    ("store.file_mb", "MB"),
    ("core.recolor.adopt_ms", "ms"),
    // The benchmark's own generator.
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.attempted", "count"),
    ("loadgen.refused", "count"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// What one workload run measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// Correctness checks that failed; empty means the run is correct.
    pub violations: Vec<String>,
    /// Free-form lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Report {
    /// Records `value` under the catalog metric `name`.
    ///
    /// # Panics
    ///
    /// If `name` is not in the catalog.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "{name} is not a catalog metric");
        self.values.insert(name.to_string(), value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records a failed correctness check.
    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    /// Fails the run with `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violation(what());
        }
    }

    /// `true` when every correctness check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable lines: every recorded metric with its unit.
    pub fn human(&self) -> Vec<String> {
        let mut lines = self.notes.clone();
        for (name, value) in &self.values {
            let unit = unit_of(name).unwrap_or("");
            lines.push(format!("{name:<38} {value:>16.4} {unit}"));
        }
        for v in &self.violations {
            lines.push(format!("CHECK FAILED: {v}"));
        }
        lines
    }

    /// The result line. A correct run reports the end-to-end metrics
    /// (`trace = false`) or the per-layer metrics (`trace = true`); an
    /// incorrect run reports no numbers.
    ///
    /// # Errors
    ///
    /// If a correct run is missing an end-to-end metric or recorded a
    /// non-finite value — a bug in the workload, not in the program.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        if self.correct() {
            let catalog = if trace { PER_LAYER } else { END_TO_END };
            for (name, unit) in catalog {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if trace => 0.0,
                    None => return Err(format!("end-to-end metric {name} was not measured")),
                };
                if !value.is_finite() {
                    return Err(format!("metric {name} is not finite: {value}"));
                }
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ));
            }
        }
        let failed = if self.correct() {
            self.failed
        } else {
            self.attempted
        };
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            failed.max(u64::from(!self.correct())),
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} repeats");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for stage in LEDGER_STAGES {
            assert!(unit_of(&format!("sim.ledger.rounds.{stage}")).is_some());
        }
    }

    #[test]
    fn json_lists_the_requested_catalog() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let e2e = r.json(false).unwrap();
        assert!(e2e.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(e2e.contains("\"op_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(!e2e.contains("rounds"));
        let layers = r.json(true).unwrap();
        assert!(
            layers.contains("\"sim.ledger.rounds.linial\": {\"value\": 0, \"unit\": \"count\"}")
        );

        r.violation("replay differs");
        let failed = r.json(false).unwrap();
        assert!(failed.contains("\"correct\": false") && failed.ends_with("\"metrics\": {}}"));
        assert!(failed.contains("\"failed\": 10"));
    }

    #[test]
    fn json_refuses_a_missing_end_to_end_metric() {
        assert!(Report::default().json(false).is_err());
    }
}
