//! The per-level round ledger: structured accounting of *where* an
//! algorithm's rounds went.
//!
//! [`Metrics`](crate::Metrics) answers "how many rounds did the run charge";
//! the [`RoundLedger`] answers "which stage of which recursion level charged
//! them". Every [`Network`](crate::Network) carries a ledger; the coloring
//! recursions record one [`LedgerEntry`] per stage (Linial bootstrap,
//! defective split, slack-solver invocation, greedy finish, fallback, …)
//! with the recursion depth, the maximum edge degree of the instance the
//! stage ran on, the measured degree-reduction ratio and whether the stage
//! was a fallback path.
//!
//! The ledger is what turned the Δ ≥ 16 round blowup from a mystery into a
//! one-line diagnosis (see `docs/ROUNDS.md`), and it now feeds the
//! `bench-rounds` regression columns so a super-polylog regression names the
//! offending level instead of just a bad total.
//!
//! Recording is deterministic: entries depend only on the algorithm's input,
//! never on the execution policy, so ledgers are bit-identical across
//! `Sequential` and `Parallel` runs just like mailboxes and metrics.

/// One recorded stage of a recursion: who charged how many rounds at which
/// level of the recursion, and what it did to the degree.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Recursion depth of the stage (0 = top-level driver).
    pub depth: u32,
    /// Stage label, e.g. `"linial"`, `"defective4"`, `"amplify-split"`,
    /// `"slack-solve"`, `"greedy-finish"`.
    pub stage: &'static str,
    /// Maximum edge degree of the (sub)graph the stage ran on.
    pub delta_level: usize,
    /// Number of edges of the (sub)graph the stage ran on.
    pub edges: usize,
    /// Rounds charged by the stage (including its children).
    pub rounds: u64,
    /// Measured degree-reduction (or defect) ratio of the stage: the relevant
    /// degree *after* divided by the degree *before*; `NaN` when the stage
    /// has no reduction semantics.
    pub defect_ratio: f64,
    /// `true` when the stage was a fallback path (greedy rescue instead of
    /// the recursion's main route).
    pub fallback: bool,
}

/// An append-only log of [`LedgerEntry`] records, carried by every
/// [`Network`](crate::Network) and surfaced by the coloring outcomes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundLedger {
    entries: Vec<LedgerEntry>,
}

impl RoundLedger {
    /// A fresh, empty ledger.
    pub fn new() -> Self {
        RoundLedger::default()
    }

    /// Appends one entry.
    pub fn record(&mut self, entry: LedgerEntry) {
        self.entries.push(entry);
    }

    /// The recorded entries, in recording order.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Absorbs a child ledger (a sub-computation's records), shifting every
    /// absorbed entry's depth by `depth_shift`.
    pub fn absorb(&mut self, child: RoundLedger, depth_shift: u32) {
        for mut entry in child.entries {
            entry.depth += depth_shift;
            self.entries.push(entry);
        }
    }

    /// Sums the charged rounds of all entries carrying `stage`.
    pub fn rounds_for(&self, stage: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.stage == stage)
            .map(|e| e.rounds)
            .sum()
    }

    /// Total rounds over all recorded entries. This can exceed the enclosing
    /// run's round count when parents record spans that include their
    /// children; compare per-stage numbers, not the grand total.
    pub fn total_rounds(&self) -> u64 {
        self.entries.iter().map(|e| e.rounds).sum()
    }

    /// Aggregates the ledger per `(stage, depth)`: `(stage, depth, calls,
    /// rounds, max delta_level, any fallback)`, sorted by descending rounds.
    /// This is the summary the `bench-rounds` columns and `docs/ROUNDS.md`
    /// tables are built from.
    pub fn summary(&self) -> Vec<LedgerSummaryRow> {
        let mut rows: Vec<LedgerSummaryRow> = Vec::new();
        for e in &self.entries {
            if let Some(row) = rows
                .iter_mut()
                .find(|r| r.stage == e.stage && r.depth == e.depth)
            {
                row.calls += 1;
                row.rounds += e.rounds;
                row.max_delta = row.max_delta.max(e.delta_level);
                row.fallback |= e.fallback;
            } else {
                rows.push(LedgerSummaryRow {
                    stage: e.stage,
                    depth: e.depth,
                    calls: 1,
                    rounds: e.rounds,
                    max_delta: e.delta_level,
                    fallback: e.fallback,
                });
            }
        }
        rows.sort_by(|a, b| b.rounds.cmp(&a.rounds).then(a.depth.cmp(&b.depth)));
        rows
    }

    /// The stage label charging the most rounds (ties broken by recording
    /// order), or `"-"` for an empty ledger. Used by the bench regression
    /// diff to *name* the offending level when a round count drifts.
    pub fn dominant_stage(&self) -> &'static str {
        self.summary().first().map(|r| r.stage).unwrap_or("-")
    }
}

/// One aggregated row of [`RoundLedger::summary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerSummaryRow {
    /// Stage label.
    pub stage: &'static str,
    /// Recursion depth the rounds were charged at.
    pub depth: u32,
    /// Number of entries aggregated into this row.
    pub calls: usize,
    /// Total rounds charged by those entries.
    pub rounds: u64,
    /// Largest `delta_level` among them.
    pub max_delta: usize,
    /// Whether any of them took a fallback path.
    pub fallback: bool,
}

impl std::fmt::Display for RoundLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "stage                 depth  calls  rounds  maxΔ̄  fallback"
        )?;
        for row in self.summary() {
            writeln!(
                f,
                "{:<22}{:>5}{:>7}{:>8}{:>6}  {}",
                row.stage,
                row.depth,
                row.calls,
                row.rounds,
                row.max_delta,
                if row.fallback { "yes" } else { "-" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(stage: &'static str, depth: u32, rounds: u64) -> LedgerEntry {
        LedgerEntry {
            depth,
            stage,
            delta_level: 8,
            edges: 100,
            rounds,
            defect_ratio: 0.5,
            fallback: false,
        }
    }

    #[test]
    fn record_and_query() {
        let mut ledger = RoundLedger::new();
        assert!(ledger.is_empty());
        ledger.record(entry("linial", 0, 2));
        ledger.record(entry("slack-solve", 1, 40));
        ledger.record(entry("slack-solve", 1, 30));
        assert_eq!(ledger.len(), 3);
        assert_eq!(ledger.rounds_for("slack-solve"), 70);
        assert_eq!(ledger.rounds_for("linial"), 2);
        assert_eq!(ledger.total_rounds(), 72);
        assert_eq!(ledger.dominant_stage(), "slack-solve");
    }

    #[test]
    fn absorb_shifts_depth() {
        let mut parent = RoundLedger::new();
        parent.record(entry("defective4", 0, 5));
        let mut child = RoundLedger::new();
        child.record(entry("orientation", 0, 7));
        parent.absorb(child, 2);
        assert_eq!(parent.entries()[1].depth, 2);
        assert_eq!(parent.entries()[1].stage, "orientation");
    }

    #[test]
    fn summary_aggregates_and_sorts() {
        let mut ledger = RoundLedger::new();
        ledger.record(entry("a", 0, 1));
        ledger.record(entry("b", 1, 10));
        ledger.record(entry("b", 1, 20));
        let summary = ledger.summary();
        assert_eq!(summary[0].stage, "b");
        assert_eq!(summary[0].calls, 2);
        assert_eq!(summary[0].rounds, 30);
        assert_eq!(summary[1].stage, "a");
        let rendered = format!("{ledger}");
        assert!(rendered.contains("b"));
        assert!(rendered.contains("30"));
    }

    #[test]
    fn empty_ledger_dominant_stage_is_dash() {
        assert_eq!(RoundLedger::new().dominant_stage(), "-");
    }
}
