//! Bit-identity pins for the Theorem 1.1 driver.
//!
//! Every case colors a seeded instance with [`color_edges_local`] or
//! [`list_edge_coloring`] and compares an FNV-1a fingerprint of the full
//! per-edge coloring, plus rounds, messages, total bits and colors used,
//! against values recorded before the hot path was made allocation-free.
//! Any change to the chosen colors, the schedule or the message accounting
//! moves at least one pinned value. Each case runs under the sequential
//! and parallel policies, which must both reproduce the same pins.

use distgraph::{generators, EdgeColoring, Graph, ListAssignment};
use distsim::IdAssignment;
use edgecolor::{color_edges_local, list_edge_coloring, ColoringParams, ExecutionPolicy};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The pinned observables of one coloring run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    fingerprint: u64,
    rounds: u64,
    messages: u64,
    total_bits: u64,
    colors_used: usize,
}

/// FNV-1a 64 over every edge's color in edge order (uncolored edges hash as
/// `u64::MAX`, which a complete coloring never contains).
fn fingerprint(coloring: &EdgeColoring) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..coloring.len() {
        let color = coloring
            .color(distgraph::EdgeId::new(i))
            .map_or(u64::MAX, |c| c as u64);
        for byte in color.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Random `(degree+1)`-lists drawn from a color space of `space` colors.
fn random_lists(graph: &Graph, space: usize, seed: u64) -> ListAssignment {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let lists = graph
        .edges()
        .map(|e| {
            let need = graph.edge_degree(e) + 1;
            let mut list = Vec::with_capacity(need);
            while list.len() < need {
                let c = rng.gen_range(0..space);
                if !list.contains(&c) {
                    list.push(c);
                }
            }
            list
        })
        .collect();
    ListAssignment::new(space, lists)
}

/// One pinned instance: a graph, optional explicit lists (full `2Δ−1`
/// palette otherwise) and the values recorded for it.
struct Case {
    name: &'static str,
    graph: Graph,
    lists: Option<ListAssignment>,
    expected: Pin,
}

fn cases() -> Vec<Case> {
    let rr8 = generators::random_regular(512, 8, 1).expect("feasible regular instance");
    let rr16 = generators::random_regular(256, 16, 2).expect("feasible regular instance");
    let torus = generators::grid_torus(24, 20);
    // Edge degree 22 > the greedy cutoff, so the recursion runs; the color
    // space of 150 colors spans three 64-bit words per node.
    let rr12 = generators::random_regular(200, 12, 3).expect("feasible regular instance");
    let wide_lists = random_lists(&rr12, 150, 7);
    vec![
        Case {
            name: "random_regular(512,8,1)",
            graph: rr8,
            lists: None,
            expected: Pin {
                fingerprint: 0xb4738b05a779716a,
                rounds: 128,
                messages: 65536,
                total_bits: 1802440,
                colors_used: 11,
            },
        },
        Case {
            name: "random_regular(256,16,2)",
            graph: rr16,
            lists: None,
            expected: Pin {
                fingerprint: 0x4bf3f9d370a8f81c,
                rounds: 510,
                messages: 196898,
                total_bits: 1283877,
                colors_used: 20,
            },
        },
        Case {
            name: "grid_torus(24,20)",
            graph: torus,
            lists: None,
            expected: Pin {
                fingerprint: 0x071ff53c46611f20,
                rounds: 39,
                messages: 21120,
                total_bits: 405132,
                colors_used: 6,
            },
        },
        Case {
            name: "random_regular(200,12,3)+lists(150)",
            graph: rr12,
            lists: Some(wide_lists),
            expected: Pin {
                fingerprint: 0x7ca98c3eaa231146,
                rounds: 394,
                messages: 110044,
                total_bits: 643807,
                colors_used: 45,
            },
        },
    ]
}

fn run(case: &Case, policy: ExecutionPolicy) -> Pin {
    let ids = IdAssignment::scattered(case.graph.n(), 5);
    let params = ColoringParams::new(0.5).with_policy(policy);
    let outcome = match &case.lists {
        Some(lists) => list_edge_coloring(&case.graph, lists, &ids, &params),
        None => color_edges_local(&case.graph, &ids, &params),
    }
    .expect("valid instance");
    assert!(outcome.coloring.is_complete(), "{}: incomplete", case.name);
    Pin {
        fingerprint: fingerprint(&outcome.coloring),
        rounds: outcome.metrics.rounds,
        messages: outcome.metrics.messages,
        total_bits: outcome.metrics.total_bits,
        colors_used: outcome.colors_used,
    }
}

#[test]
fn theorem_1_1_colorings_are_pinned_under_every_policy() {
    for case in cases() {
        for policy in [ExecutionPolicy::Sequential, ExecutionPolicy::parallel(2)] {
            let got = run(&case, policy);
            assert_eq!(got, case.expected, "{} under {policy}", case.name);
        }
    }
}

/// The benchmark instance: `color_edges_local` on `random_regular(65536,16,1)`
/// with scattered ids (seed 1) and `ColoringParams::new(0.5)`, as the
/// `color_rr16` workload runs it. Too slow for a debug build, so it is
/// ignored by default; `make pin-rr16` runs it in release mode.
#[test]
#[ignore = "release-mode pin of the benchmark instance; run with `make pin-rr16`"]
fn benchmark_instance_rr16_is_pinned() {
    let graph = generators::random_regular(65_536, 16, 1).expect("feasible regular instance");
    let ids = IdAssignment::scattered(graph.n(), 1);
    let outcome = color_edges_local(&graph, &ids, &ColoringParams::new(0.5)).expect("valid");
    assert!(outcome.coloring.is_complete(), "incomplete coloring");
    let got = Pin {
        fingerprint: fingerprint(&outcome.coloring),
        rounds: outcome.metrics.rounds,
        messages: outcome.metrics.messages,
        total_bits: outcome.metrics.total_bits,
        colors_used: outcome.colors_used,
    };
    let expected = Pin {
        fingerprint: 0xe1ffa65933bc3435,
        rounds: 985,
        messages: 53576603,
        total_bits: 565913188,
        colors_used: 21,
    };
    assert_eq!(got, expected, "fingerprint {:#018x}", got.fingerprint);
}
