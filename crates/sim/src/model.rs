//! The LOCAL and CONGEST models (Section 2 of the paper).

/// The communication model under which an execution is accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Model {
    /// The LOCAL model: unbounded message size and local computation.
    #[default]
    Local,
    /// The CONGEST model: every message is limited to `bandwidth_bits` bits.
    ///
    /// The paper (and the literature) use `O(log n)`; use
    /// [`Model::congest_for`] to get the conventional `c · ⌈log₂ n⌉` limit.
    Congest {
        /// Maximum message size in bits.
        bandwidth_bits: u64,
    },
}

impl Model {
    /// The conventional CONGEST model for an `n`-node network:
    /// messages of at most `c · ⌈log₂(n+1)⌉` bits with `c = 32`
    /// (a message can carry a constant number of identifiers/counters).
    pub fn congest_for(n: usize) -> Model {
        let log_n = (usize::BITS - n.max(1).leading_zeros()) as u64;
        Model::Congest {
            bandwidth_bits: 32 * log_n.max(1),
        }
    }

    /// The per-message bandwidth limit, if any.
    pub fn bandwidth_limit(&self) -> Option<u64> {
        match self {
            Model::Local => None,
            Model::Congest { bandwidth_bits } => Some(*bandwidth_bits),
        }
    }

    /// Returns `true` for the CONGEST model.
    pub fn is_congest(&self) -> bool {
        matches!(self, Model::Congest { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_has_no_limit() {
        assert_eq!(Model::Local.bandwidth_limit(), None);
        assert!(!Model::Local.is_congest());
        assert_eq!(Model::default(), Model::Local);
    }

    #[test]
    fn congest_for_scales_with_log_n() {
        let small = Model::congest_for(16);
        let large = Model::congest_for(1 << 20);
        let (Some(s), Some(l)) = (small.bandwidth_limit(), large.bandwidth_limit()) else {
            panic!("congest models must have limits");
        };
        assert!(l > s);
        assert_eq!(s, 32 * 5); // ⌈log₂ 17⌉ = 5
        assert!(Model::congest_for(0).bandwidth_limit().unwrap() >= 32);
    }

    #[test]
    fn explicit_bandwidth_is_respected() {
        let m = Model::Congest { bandwidth_bits: 7 };
        assert_eq!(m.bandwidth_limit(), Some(7));
        assert!(m.is_congest());
    }
}
