//! Unique node identifiers from `{1, ..., poly n}`.
//!
//! The LOCAL model (Section 2) equips every node with a unique identifier
//! chosen from a polynomially sized space. The identifiers are the *only*
//! initial symmetry-breaking information, and the `O(log* n)` terms in the
//! paper's bounds come exclusively from reducing this identifier space to a
//! `poly(Δ)`-sized coloring (à la Linial).

use distgraph::NodeId;

/// An assignment of unique identifiers to the nodes of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdAssignment {
    ids: Vec<u64>,
    space: u64,
}

impl IdAssignment {
    /// Identifiers `1, ..., n` in node order (the simplest valid assignment).
    pub fn contiguous(n: usize) -> Self {
        IdAssignment {
            ids: (1..=n as u64).collect(),
            space: (n as u64).max(1),
        }
    }

    /// Unique identifiers drawn deterministically (from `seed`) from the space
    /// `{1, ..., n³}`, exercising the "identifiers are arbitrary poly(n)
    /// values" aspect of the model.
    pub fn scattered(n: usize, seed: u64) -> Self {
        // Use a multiplicative permutation of {0, ..., n³-1}: i -> (a·i + b) mod p
        // for a prime p ≥ n³, retaining uniqueness, then add 1.
        let space = ((n as u64).pow(3)).max(1);
        let p = next_prime(space.max(2));
        let a = (seed.wrapping_mul(6364136223846793005).wrapping_add(1)) % (p - 1) + 1;
        let b = seed.wrapping_mul(1442695040888963407) % p;
        let mut ids = Vec::with_capacity(n);
        let mut produced = std::collections::HashSet::with_capacity(n);
        let mut i = 0u64;
        while ids.len() < n {
            let candidate = (a.wrapping_mul(i) + b) % p;
            i += 1;
            if candidate < space && produced.insert(candidate) {
                ids.push(candidate + 1);
            }
        }
        IdAssignment {
            ids,
            space: space.max(n as u64),
        }
    }

    /// Creates an assignment from explicit identifiers.
    ///
    /// # Panics
    ///
    /// Panics if the identifiers are not unique or contain 0.
    pub fn from_vec(ids: Vec<u64>) -> Self {
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "identifiers must be unique");
        assert!(ids.iter().all(|&id| id > 0), "identifiers must be positive");
        let space = ids.iter().copied().max().unwrap_or(1);
        IdAssignment { ids, space }
    }

    /// The identifier of node `v`.
    #[inline]
    pub fn id(&self, v: NodeId) -> u64 {
        self.ids[v.index()]
    }

    /// Size of the identifier space (an upper bound on every identifier).
    #[inline]
    pub fn space(&self) -> u64 {
        self.space
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the assignment covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The smallest prime `≥ value` (trial division; identifier spaces are small).
fn next_prime(value: u64) -> u64 {
    let mut candidate = value.max(2);
    loop {
        if is_prime(candidate) {
            return candidate;
        }
        candidate += 1;
    }
}

fn is_prime(value: u64) -> bool {
    if value < 2 {
        return false;
    }
    if value.is_multiple_of(2) {
        return value == 2;
    }
    let mut d = 3u64;
    while d * d <= value {
        if value.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_ids() {
        let ids = IdAssignment::contiguous(5);
        assert_eq!(ids.len(), 5);
        assert_eq!(ids.id(NodeId::new(0)), 1);
        assert_eq!(ids.id(NodeId::new(4)), 5);
        assert_eq!(ids.space(), 5);
        assert!(!ids.is_empty());
    }

    #[test]
    fn scattered_ids_are_unique_and_in_range() {
        let n = 200;
        let ids = IdAssignment::scattered(n, 7);
        let mut seen = std::collections::HashSet::new();
        for v in 0..n {
            let id = ids.id(NodeId::new(v));
            assert!(id >= 1);
            assert!(id <= (n as u64).pow(3));
            assert!(seen.insert(id), "duplicate identifier {id}");
        }
    }

    #[test]
    fn scattered_ids_depend_on_seed() {
        let a = IdAssignment::scattered(50, 1);
        let b = IdAssignment::scattered(50, 2);
        assert_ne!(a, b);
        let a2 = IdAssignment::scattered(50, 1);
        assert_eq!(a, a2);
    }

    #[test]
    fn from_vec_accepts_unique_positive() {
        let ids = IdAssignment::from_vec(vec![10, 3, 99]);
        assert_eq!(ids.id(NodeId::new(2)), 99);
        assert_eq!(ids.space(), 99);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn from_vec_rejects_duplicates() {
        IdAssignment::from_vec(vec![5, 5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn from_vec_rejects_zero() {
        IdAssignment::from_vec(vec![0, 1]);
    }

    #[test]
    fn prime_helpers() {
        assert!(is_prime(2));
        assert!(is_prime(97));
        assert!(!is_prime(1));
        assert!(!is_prime(91));
        assert_eq!(next_prime(90), 97);
        assert_eq!(next_prime(2), 2);
    }
}
