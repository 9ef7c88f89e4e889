//! Round, message and bandwidth accounting.
//!
//! Every quantitative claim of the paper is about the number of synchronous
//! communication rounds (and, in the CONGEST model, the size of the messages).
//! [`Metrics`] is the single place where those quantities are accumulated.

/// Accumulated cost of a (partial) distributed execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of synchronous communication rounds.
    pub rounds: u64,
    /// Total number of messages sent over all rounds.
    pub messages: u64,
    /// Total number of bits sent over all rounds.
    pub total_bits: u64,
    /// The largest single message, in bits.
    pub max_message_bits: u64,
    /// Number of messages that exceeded the CONGEST bandwidth limit
    /// (always 0 in the LOCAL model).
    pub congest_violations: u64,
}

impl Metrics {
    /// A fresh, all-zero metrics record.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one message of the given size.
    pub fn record_message(&mut self, bits: u64, bandwidth_limit: Option<u64>) {
        self.record_messages(1, bits, bandwidth_limit);
    }

    /// Records `count` messages of `bits` bits each: the same totals as
    /// `count` calls of [`Metrics::record_message`] (none for `count = 0`).
    pub(crate) fn record_messages(&mut self, count: u64, bits: u64, bandwidth_limit: Option<u64>) {
        if count == 0 {
            return;
        }
        self.messages += count;
        self.total_bits += count * bits;
        self.max_message_bits = self.max_message_bits.max(bits);
        if bandwidth_limit.is_some_and(|limit| bits > limit) {
            self.congest_violations += count;
        }
    }

    /// Folds another metrics block's per-message costs (messages, bits,
    /// size maximum, violations) into this one **without touching rounds**;
    /// the two composition rules below differ only in how rounds combine.
    fn fold_costs(&mut self, other: &Metrics) {
        self.messages += other.messages;
        self.total_bits += other.total_bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.congest_violations += other.congest_violations;
    }

    /// Adds the cost of another execution that ran *after* this one
    /// (sequential composition): rounds add up.
    pub fn absorb_sequential(&mut self, other: &Metrics) {
        self.rounds += other.rounds;
        self.fold_costs(other);
    }

    /// Adds the cost of several executions that ran *in parallel* with each
    /// other (parallel composition, e.g. recursively coloring edge-disjoint
    /// subgraphs): rounds increase by the maximum of the children, messages
    /// and bits by the sum.
    pub fn absorb_parallel(&mut self, children: &[Metrics]) {
        let max_rounds = children.iter().map(|c| c.rounds).max().unwrap_or(0);
        self.rounds += max_rounds;
        for c in children {
            self.fold_costs(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_message_tracks_totals_and_max() {
        let mut m = Metrics::new();
        m.record_message(10, None);
        m.record_message(4, None);
        assert_eq!(m.messages, 2);
        assert_eq!(m.total_bits, 14);
        assert_eq!(m.max_message_bits, 10);
        assert_eq!(m.congest_violations, 0);
    }

    #[test]
    fn record_message_flags_congest_violations() {
        let mut m = Metrics::new();
        m.record_message(10, Some(8));
        m.record_message(8, Some(8));
        assert_eq!(m.congest_violations, 1);
    }

    #[test]
    fn sequential_composition_adds_rounds() {
        let mut a = Metrics {
            rounds: 3,
            messages: 5,
            total_bits: 50,
            max_message_bits: 20,
            congest_violations: 1,
        };
        let b = Metrics {
            rounds: 2,
            messages: 1,
            total_bits: 30,
            max_message_bits: 30,
            congest_violations: 0,
        };
        a.absorb_sequential(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.messages, 6);
        assert_eq!(a.total_bits, 80);
        assert_eq!(a.max_message_bits, 30);
        assert_eq!(a.congest_violations, 1);
    }

    #[test]
    fn parallel_composition_takes_max_rounds() {
        let mut base = Metrics::new();
        let children = [
            Metrics {
                rounds: 7,
                messages: 10,
                total_bits: 100,
                max_message_bits: 12,
                congest_violations: 0,
            },
            Metrics {
                rounds: 3,
                messages: 20,
                total_bits: 200,
                max_message_bits: 16,
                congest_violations: 2,
            },
        ];
        base.absorb_parallel(&children);
        assert_eq!(base.rounds, 7);
        assert_eq!(base.messages, 30);
        assert_eq!(base.total_bits, 300);
        assert_eq!(base.max_message_bits, 16);
        assert_eq!(base.congest_violations, 2);
    }

    #[test]
    fn parallel_composition_with_no_children_is_noop() {
        let mut base = Metrics {
            rounds: 1,
            ..Metrics::new()
        };
        base.absorb_parallel(&[]);
        assert_eq!(base.rounds, 1);
        assert_eq!(base.messages, 0);
    }
}
