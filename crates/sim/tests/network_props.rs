//! Property-based tests for the round simulator's accounting: message
//! conservation, round charging, the CONGEST bandwidth cap driven by
//! `Payload` size accounting, and the equivalence of the pull-based
//! `broadcast` with the push-based `exchange` round.

use distgraph::{Graph, NodeId};
use distsim::{bits_for, IdAssignment, Model, Network, Payload};
use proptest::prelude::*;

/// A random simple graph as `(n, sanitized edge list)`.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..24).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(3 * n)).prop_map(move |pairs| {
            let mut seen = std::collections::HashSet::new();
            let mut edges = Vec::new();
            for (u, v) in pairs {
                if u == v {
                    continue;
                }
                let key = (u.min(v), u.max(v));
                if seen.insert(key) {
                    edges.push(key);
                }
            }
            Graph::from_edges(n, &edges).expect("sanitized edges are valid")
        })
    })
}

/// LOCAL, or CONGEST with a cap some payloads exceed, or one none do.
fn arb_model() -> impl Strategy<Value = Model> {
    (0u64..3).prop_map(|pick| match pick {
        0 => Model::Local,
        1 => Model::Congest { bandwidth_bits: 8 },
        _ => Model::Congest { bandwidth_bits: 64 },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every message handed to `exchange` is delivered exactly once, to the
    /// other endpoint of the edge it was sent over, and the metrics count
    /// exactly the sent messages.
    #[test]
    fn exchange_conserves_messages((g, mask) in arb_graph().prop_flat_map(|g| {
        let m = g.m();
        proptest::collection::vec(0u8..=1, m.max(1)).prop_map(move |mask| (g.clone(), mask))
    })) {
        let mut net = Network::new(&g, Model::Local);
        // Each node sends over each incident edge whose mask bit is set,
        // tagging the message with (sender, edge) so delivery can be audited.
        let mut sent = 0u64;
        for e in g.edges() {
            if mask[e.index()] == 1 {
                sent += 2; // both endpoints send over the edge
            }
        }
        let mail = net.exchange(|v| {
            g.neighbors(v)
                .iter()
                .filter(|nb| mask[nb.edge.index()] == 1)
                .map(|nb| (nb.edge, (v.index() as u64, nb.edge.index() as u64)))
                .collect()
        });
        prop_assert_eq!(mail.total() as u64, sent);
        prop_assert_eq!(net.metrics().messages, sent);
        // Every delivery is addressed correctly: the message's sender tag is
        // a neighbor, the edge tag matches, and it crossed its own edge.
        for v in g.nodes() {
            for incoming in mail.inbox(v) {
                let (from_tag, edge_tag) = incoming.msg;
                prop_assert_eq!(from_tag as usize, incoming.from.index());
                prop_assert_eq!(edge_tag as usize, incoming.edge.index());
                prop_assert_eq!(g.other_endpoint(incoming.edge, incoming.from), v);
            }
        }
    }

    /// `broadcast` delivers one message per edge direction: 2m in total, and
    /// `deg(v)` into each node `v`.
    #[test]
    fn broadcast_conserves_messages(g in arb_graph()) {
        let mut net = Network::new(&g, Model::Local);
        let mail = net.broadcast(|v| v.index() as u64);
        prop_assert_eq!(mail.total(), 2 * g.m());
        prop_assert_eq!(net.metrics().messages, 2 * g.m() as u64);
        for v in g.nodes() {
            prop_assert_eq!(mail.inbox(v).len(), g.degree(v));
        }
    }

    /// Every `exchange`/`broadcast` call charges exactly one round, no matter
    /// how many (or few) messages move.
    #[test]
    fn one_round_per_call(g in arb_graph(), exchanges in 0usize..6, broadcasts in 0usize..6) {
        let mut net = Network::new(&g, Model::Local);
        for _ in 0..exchanges {
            net.exchange(|_| Vec::<(distgraph::EdgeId, u64)>::new());
        }
        for _ in 0..broadcasts {
            net.broadcast(|_| 1u8);
        }
        prop_assert_eq!(net.rounds(), (exchanges + broadcasts) as u64);
    }

    /// The CONGEST cap is enforced via `Payload::encoded_bits`: a broadcast
    /// of per-node values flags exactly the messages whose encoded size
    /// exceeds the bandwidth, and total bits equal the sum of encoded sizes.
    #[test]
    fn congest_cap_counts_oversized_payloads(
        (g, values) in arb_graph().prop_flat_map(|g| {
            let n = g.n();
            proptest::collection::vec(0u64..(1 << 20), n).prop_map(move |values| (g.clone(), values))
        }),
        bandwidth in 1u64..24,
    ) {
        let mut net = Network::new(&g, Model::Congest { bandwidth_bits: bandwidth });
        net.broadcast(|v: NodeId| values[v.index()]);
        let mut expected_violations = 0u64;
        let mut expected_bits = 0u64;
        let mut max_bits = 0u64;
        for v in g.nodes() {
            let bits = values[v.index()].encoded_bits() as u64;
            prop_assert_eq!(bits, bits_for(values[v.index()]) as u64);
            let degree = g.degree(v) as u64;
            expected_bits += bits * degree;
            if degree > 0 {
                max_bits = max_bits.max(bits);
            }
            if bits > bandwidth {
                expected_violations += degree;
            }
        }
        let metrics = net.metrics();
        prop_assert_eq!(metrics.congest_violations, expected_violations);
        prop_assert_eq!(metrics.total_bits, expected_bits);
        prop_assert_eq!(metrics.max_message_bits, max_bits);
    }

    /// `broadcast` gathers inboxes from adjacency slices instead of pushing
    /// sends, so its reference is the equivalent push-based `exchange`
    /// round (every node sends its message over every incident edge).
    /// Mailboxes — inbox order included — and metrics must be bit-identical.
    /// Payload sizes vary per node, so bit totals, the size maximum and
    /// congest violations are all exercised; isolated nodes send nothing.
    #[test]
    fn broadcast_mailboxes_are_bit_identical(
        g in arb_graph(),
        model in arb_model(),
        seed in 0u64..1000,
    ) {
        let ids = IdAssignment::scattered(g.n(), seed);
        let msg_of = |v: NodeId| vec![ids.id(v) * 3 + v.index() as u64; v.index() % 4 + 1];
        let mut reference_net = Network::new(&g, model);
        let reference = reference_net.exchange(|v| {
            g.neighbors(v).iter().map(|nb| (nb.edge, msg_of(v))).collect()
        });
        let mut net = Network::new(&g, model);
        let mail = net.broadcast(msg_of);
        prop_assert_eq!(&mail, &reference);
        prop_assert_eq!(net.metrics(), reference_net.metrics());
    }

    /// The same payloads under LOCAL never flag violations: the cap is a
    /// property of the model, not of the payload.
    #[test]
    fn local_model_never_flags(g in arb_graph(), value in 0u64..u64::MAX) {
        let mut net = Network::new(&g, Model::Local);
        net.broadcast(|_| value);
        prop_assert_eq!(net.metrics().congest_violations, 0);
    }
}
