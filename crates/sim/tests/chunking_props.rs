//! Property tests for the degree-weighted chunk geometry and the delivery
//! contract built on top of it.
//!
//! The flat-arena delivery path cuts every round's per-node work into
//! [`Chunks::degree_weighted`] ranges, so two families of properties guard
//! it:
//!
//! 1. **Geometry** — for any degree sequence the chunks partition `0..n`
//!    exactly (no gaps, no overlaps, no empty chunks), and `chunk_of` is the
//!    exact inverse of `range`.
//! 2. **Bit-identity** — on skewed power-law graphs (the workload the
//!    degree-weighted cut exists for) `Parallel { threads }` produces
//!    mailboxes, metrics and multi-round flood outputs bit-identical to
//!    `Sequential`, chunk geometry notwithstanding.

use distgraph::{generators, EdgeId, Graph, NodeId};
use distsim::{Chunks, ExecutionPolicy, IdAssignment, Model, Network};
use proptest::prelude::*;

mod common;

/// CSR offsets for a synthetic degree sequence.
fn offsets_of(degrees: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(degrees.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &d in degrees {
        acc += d;
        offsets.push(acc);
    }
    offsets
}

/// Degree sequences with heavy skew mixed in: most nodes small, roughly one
/// in five a hub two orders of magnitude heavier.
fn arb_degrees() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec((0u8..5, 0usize..8, 64usize..2048), 0..96).prop_map(|items| {
        items
            .into_iter()
            .map(|(pick, small, hub)| if pick == 0 { hub } else { small })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The degree-weighted geometry partitions `0..n` exactly: ranges are
    /// contiguous, disjoint, in order, never empty (for `n > 0`), and their
    /// concatenation is precisely `0..n`.
    #[test]
    fn degree_weighted_chunks_cover_the_range_exactly(
        (degrees, requested) in (arb_degrees(), 1usize..12)
    ) {
        let n = degrees.len();
        let offsets = offsets_of(&degrees);
        let chunks = Chunks::degree_weighted(n, &offsets, requested);
        prop_assert_eq!(chunks.count(), requested.min(n.max(1)));
        prop_assert_eq!(chunks.len(), n);
        let mut next = 0usize;
        for c in 0..chunks.count() {
            let range = chunks.range(c);
            prop_assert_eq!(range.start, next, "chunk {} is contiguous", c);
            if n > 0 {
                prop_assert!(!range.is_empty(), "chunk {} must not be empty", c);
            }
            next = range.end;
        }
        prop_assert_eq!(next, n, "chunks end exactly at n");
    }

    /// `chunk_of` inverts `range`: every item of every chunk's range maps
    /// back to that chunk, for both geometries.
    #[test]
    fn chunk_of_inverts_range(
        (degrees, requested) in (arb_degrees(), 1usize..12)
    ) {
        let n = degrees.len();
        let offsets = offsets_of(&degrees);
        for chunks in [
            Chunks::degree_weighted(n, &offsets, requested),
            Chunks::new(n, requested),
        ] {
            for c in 0..chunks.count() {
                for item in chunks.range(c) {
                    prop_assert_eq!(chunks.chunk_of(item), c);
                }
            }
        }
    }

    /// On a real graph the geometry cut from `Graph::csr_offsets` matches the
    /// one cut from a hand-built prefix sum of the degree sequence — the
    /// graph accessor is exactly the CSR the chunker documents.
    #[test]
    fn graph_offsets_agree_with_the_degree_sequence(
        (n, gamma_mil, seed, requested) in (2usize..64, 1500u64..3200, 0u64..500, 1usize..8)
    ) {
        let g = generators::power_law(n, gamma_mil as f64 / 1000.0, n, seed);
        let degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
        let from_graph = Chunks::degree_weighted(g.n(), g.csr_offsets(), requested);
        let from_degrees = Chunks::degree_weighted(g.n(), &offsets_of(&degrees), requested);
        prop_assert_eq!(from_graph.count(), from_degrees.count());
        for c in 0..from_graph.count() {
            prop_assert_eq!(from_graph.range(c), from_degrees.range(c));
        }
    }
}

/// Skewed graphs for the bit-identity battery: power-law degree sequences
/// whose hubs make count-balanced chunks maximally unbalanced.
fn arb_power_law() -> impl Strategy<Value = Graph> {
    (6usize..48, 1500u64..3000, 0u64..1000).prop_map(|(n, gamma_mil, seed)| {
        generators::power_law(n, gamma_mil as f64 / 1000.0, n, seed)
    })
}

const POLICY_MATRIX: [ExecutionPolicy; 3] = [
    ExecutionPolicy::Parallel { threads: 2 },
    ExecutionPolicy::Parallel { threads: 3 },
    ExecutionPolicy::Parallel { threads: 8 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Broadcast and a skewed-payload `exchange_sync` on power-law graphs:
    /// mailboxes and metrics are bit-identical to sequential under every
    /// parallel policy.
    #[test]
    fn power_law_exchanges_are_bit_identical((g, seed) in (arb_power_law(), 0u64..1000)) {
        let ids = IdAssignment::scattered(g.n(), seed);
        let send = |v: NodeId| -> Vec<(EdgeId, Vec<u64>)> {
            g.neighbors(v)
                .iter()
                .filter(|nb| !(v.index() * 5 + nb.edge.index() + seed as usize).is_multiple_of(3))
                .map(|nb| {
                    let len = (nb.edge.index() + v.index()) % 4 + 1;
                    (nb.edge, vec![seed.wrapping_mul(v.index() as u64 + 1); len])
                })
                .collect()
        };
        let mut seq_net = Network::new(&g, Model::Local);
        let seq_bcast = seq_net.broadcast(|v| ids.id(v) ^ v.index() as u64);
        let seq_mail = seq_net.exchange_sync(send);
        for policy in POLICY_MATRIX {
            let mut net = Network::with_policy(&g, Model::Local, policy);
            let bcast = net.broadcast(|v| ids.id(v) ^ v.index() as u64);
            let mail = net.exchange_sync(send);
            prop_assert_eq!(&seq_bcast, &bcast, "{} broadcast", policy);
            prop_assert_eq!(&seq_mail, &mail, "{} exchange", policy);
            prop_assert_eq!(seq_net.metrics(), net.metrics(), "{} metrics", policy);
        }
    }

    /// A multi-round flood with staggered halting on power-law graphs:
    /// outputs and metrics are bit-identical to sequential under every
    /// parallel policy.
    #[test]
    fn power_law_programs_are_bit_identical((g, seed) in (arb_power_law(), 0u64..1000)) {
        let ids = IdAssignment::scattered(g.n(), seed);
        let budget_of = |v: NodeId| (v.index() as u32 + seed as u32) % 5;
        let run = |policy| {
            let mut net = Network::with_policy(&g, Model::Local, policy);
            let outputs = common::flood(&mut net, &ids, budget_of, 16);
            (outputs, net.metrics())
        };
        let reference = run(ExecutionPolicy::Sequential);
        for policy in POLICY_MATRIX {
            prop_assert_eq!(&reference, &run(policy), "{} outputs and metrics", policy);
        }
    }
}
