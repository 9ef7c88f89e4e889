//! The determinism-under-faults battery.
//!
//! The contract of `distsim::faults`: same seed + same [`FaultPlan`] ⇒
//! **bit-identical** mailboxes, outputs, metrics and fault stats on every
//! replay. This suite pins that contract from raw `Network` exchanges up to
//! full multi-round flood runs, plus the individual adversary semantics
//! (drops, duplicates, delays, crash/restart windows, link partitions that
//! heal, and reordering).

use distgraph::{generators, EdgeId, Graph, NodeId};
use distsim::{FaultPlan, FaultRates, FaultStats, IdAssignment, Metrics, Model, Network};
use proptest::prelude::*;

mod common;

/// Everything a flood run exposes: outputs, metrics and fault stats.
#[derive(Debug, PartialEq)]
struct FloodRun {
    outputs: Vec<Option<u64>>,
    metrics: Metrics,
    faults: Option<FaultStats>,
}

/// A flood of `rounds` steps under `plan` (none: fault-free), capped at
/// `horizon` rounds.
fn flood_under(
    g: &Graph,
    ids: &IdAssignment,
    plan: Option<&FaultPlan>,
    rounds: u32,
    horizon: u64,
) -> FloodRun {
    let mut net = Network::new(g, Model::Local);
    if let Some(plan) = plan {
        net.install_faults(plan.clone());
    }
    let outputs = common::flood(&mut net, ids, |_| rounds, horizon);
    FloodRun {
        outputs,
        metrics: net.metrics(),
        faults: net.fault_stats(),
    }
}

fn flood_run(g: &Graph, ids: &IdAssignment, plan: &FaultPlan) -> FloodRun {
    flood_under(g, ids, Some(plan), 8, 24)
}

/// A mid-size adversary exercising every fault class at once.
fn full_plan(seed: u64, g: &Graph) -> FaultPlan {
    let mut plan = FaultPlan::new(seed)
        .with_drop_rate(0.08)
        .with_duplicate_rate(0.05)
        .with_delay_rate(0.07, 3)
        .with_partition_granularity(3)
        .with_link_cut(0, 1, 2, 3)
        .with_link_cut(1, 2, 4, 2);
    // Crash two seed-chosen nodes with overlapping windows.
    let a = NodeId::new((seed as usize * 7) % g.n());
    let b = NodeId::new((seed as usize * 13 + 1) % g.n());
    plan = plan.with_crash(a, 2, 5);
    if b != a {
        plan = plan.with_crash(b, 3, u64::MAX); // never restarts
    }
    plan
}

#[test]
fn faulty_program_runs_replay_bit_identically() {
    let g = generators::random_regular(96, 6, 5).unwrap();
    let ids = IdAssignment::scattered(96, 3);
    let plan = full_plan(17, &g);
    let reference = flood_run(&g, &ids, &plan);
    let stats = reference.faults.expect("faulty run carries stats");
    // The adversary genuinely acted.
    assert!(stats.dropped > 0, "{stats:?}");
    assert!(stats.duplicated > 0, "{stats:?}");
    assert!(stats.delayed > 0 && stats.released > 0, "{stats:?}");
    assert!(stats.crash_dropped > 0, "{stats:?}");
    assert!(stats.partition_dropped > 0, "{stats:?}");
    let replay = flood_run(&g, &ids, &plan);
    assert_eq!(
        replay.outputs, reference.outputs,
        "outputs differ on replay"
    );
    assert_eq!(
        replay.metrics, reference.metrics,
        "metrics differ on replay"
    );
    assert_eq!(replay.faults, reference.faults, "stats differ on replay");
}

#[test]
fn faulty_network_exchanges_replay_bit_identically() {
    let g = generators::random_regular(64, 6, 11).unwrap();
    let plan = full_plan(29, &g);
    let send = |v: NodeId| -> Vec<(EdgeId, u64)> {
        g.neighbors(v)
            .iter()
            .map(|nb| (nb.edge, (v.index() * 31 + nb.edge.index()) as u64))
            .collect()
    };
    let mut reference_net = Network::new(&g, Model::Local);
    reference_net.install_faults(plan.clone());
    // Several rounds so the delay queue spans rounds.
    let reference: Vec<_> = (0..6).map(|_| reference_net.exchange(send)).collect();
    assert!(reference_net.fault_stats().unwrap().delayed > 0);
    let mut net = Network::new(&g, Model::Local);
    net.install_faults(plan.clone());
    for (round, expected) in reference.iter().enumerate() {
        let mail = net.exchange(send);
        assert_eq!(&mail, expected, "round {round} differs on replay");
    }
    assert_eq!(net.metrics(), reference_net.metrics());
    assert_eq!(net.fault_stats(), reference_net.fault_stats());
}

#[test]
fn faulty_broadcasts_equal_the_equivalent_exchange_rounds() {
    // The pull-based broadcast hands the adversary the same canonical
    // inboxes the push-based exchange does, so a faulty broadcast round
    // equals the equivalent exchange round: mailboxes, metrics and fault
    // stats.
    let g = generators::random_regular(64, 6, 11).unwrap();
    let plan = full_plan(29, &g);
    let msg_of = |v: NodeId| (v.index() * 31) as u64;
    let mut reference_net = Network::new(&g, Model::Local);
    reference_net.install_faults(plan.clone());
    let reference: Vec<_> = (0..6)
        .map(|_| {
            reference_net.exchange(|v| {
                g.neighbors(v)
                    .iter()
                    .map(|nb| (nb.edge, msg_of(v)))
                    .collect()
            })
        })
        .collect();
    let stats = reference_net.fault_stats().unwrap();
    assert!(stats.dropped > 0 && stats.delayed > 0, "{stats:?}");
    let mut net = Network::new(&g, Model::Local);
    net.install_faults(plan.clone());
    for (round, expected) in reference.iter().enumerate() {
        let mail = net.broadcast(msg_of);
        assert_eq!(&mail, expected, "round {round} differs");
    }
    assert_eq!(net.metrics(), reference_net.metrics());
    assert_eq!(net.fault_stats(), reference_net.fault_stats());
}

#[test]
fn drop_everything_delivers_nothing() {
    let g = generators::cycle(10);
    let mut net = Network::new(&g, Model::Local);
    net.install_faults(FaultPlan::new(1).with_drop_rate(1.0));
    let mail = net.broadcast(|v| v.index() as u64);
    assert_eq!(mail.total(), 0);
    let stats = net.fault_stats().unwrap();
    assert_eq!(stats.dropped, 2 * g.m() as u64);
    assert_eq!(stats.delivered, 0);
    // The base metrics still account the attempted traffic.
    assert_eq!(net.metrics().messages, 2 * g.m() as u64);
}

#[test]
fn duplicates_arrive_adjacent_and_are_counted() {
    let g = generators::path(2);
    let mut net = Network::new(&g, Model::Local);
    net.install_faults(FaultPlan::new(4).with_duplicate_rate(1.0));
    let mail = net.broadcast(|v| v.index() as u32);
    // Each endpoint's single message is duplicated.
    assert_eq!(mail.total(), 4);
    for v in g.nodes() {
        let inbox = mail.inbox(v);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox[0], inbox[1], "duplicate copies are adjacent");
    }
    let stats = net.fault_stats().unwrap();
    assert_eq!(stats.duplicated, 2);
    assert_eq!(stats.delivered, 4);
}

#[test]
fn delays_shift_messages_by_k_rounds() {
    let g = generators::path(2);
    let mut net = Network::new(&g, Model::Local);
    // Delay every message by exactly one round.
    net.install_faults(FaultPlan::new(9).with_delay_rate(1.0, 1));
    let r1 = net.broadcast(|_| 7u32);
    assert_eq!(r1.total(), 0, "round 1 traffic is held back");
    let r2 = net.broadcast(|_| 8u32);
    // Round 2 delivers the delayed round-1 messages (k = 1) but holds its own.
    assert_eq!(r2.total(), 2);
    for v in g.nodes() {
        assert_eq!(r2.inbox(v)[0].msg, 7);
    }
    let stats = net.fault_stats().unwrap();
    assert_eq!(stats.delayed, 4);
    assert_eq!(stats.released, 2);
}

#[test]
fn message_type_switches_cost_nothing_without_in_flight_delays() {
    // Regression: storing an *empty* typed delay queue used to make the
    // next round of a different message type count a phantom drop.
    let g = generators::path(2);
    let mut net = Network::new(&g, Model::Local);
    net.install_faults(FaultPlan::new(3)); // fault-free plan
    net.broadcast(|_| 1u32);
    net.broadcast(|_| 2u64); // type switch, no delayed traffic
    net.broadcast(|_| 3u32); // and back
    let stats = net.fault_stats().unwrap();
    assert_eq!(stats.dropped, 0, "phantom drop on type switch: {stats:?}");
    assert_eq!(stats.delivered, 6);
}

#[test]
fn delays_into_an_open_link_cut_are_lost() {
    // Two triangles joined by a bridge; every message is delayed by one
    // round, and the bridge is cut exactly for round 2. The cut applies at
    // the *delivery* round on fresh and released messages alike: the
    // bridge traffic of round 1 (link healthy when sent) releases into the
    // open cut at round 2 and is lost, round 2's fresh bridge traffic is
    // cut on the spot, and round 3's bridge traffic (cut healed) is merely
    // delayed into round 4.
    let g =
        Graph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]).unwrap();
    let mut net = Network::new(&g, Model::Local);
    net.install_faults(
        FaultPlan::new(6)
            .with_delay_rate(1.0, 1)
            .with_partition_granularity(2)
            .with_link_cut(0, 1, 2, 1), // open exactly at round 2
    );
    let full = 2 * g.m();
    let r1 = net.broadcast(|v| v.index() as u64);
    assert_eq!(r1.total(), 0, "everything is delayed by one round");
    let r2 = net.broadcast(|v| v.index() as u64);
    // Round 1's traffic releases at round 2, minus the two bridge messages
    // arriving into the open cut.
    assert_eq!(r2.total(), full - 2);
    let r3 = net.broadcast(|v| v.index() as u64);
    // Round 2's bridge messages were cut on arrival (never delayed), so
    // round 3 releases only the other twelve.
    assert_eq!(r3.total(), full - 2);
    let r4 = net.broadcast(|v| v.index() as u64);
    // The cut healed before round 3's delivery: everything flows again.
    assert_eq!(r4.total(), full);
    let stats = net.fault_stats().unwrap();
    // Two released + two fresh bridge messages died on the open cut.
    assert_eq!(stats.partition_dropped, 4, "{stats:?}");
}

#[test]
fn crash_windows_suppress_and_restart_restores() {
    let g = generators::path(3);
    let ids = IdAssignment::contiguous(3);
    // Node 1 (the middle) is down for rounds 1..3, restarts at round 3.
    let plan = FaultPlan::new(2).with_crash(NodeId::new(1), 1, 3);
    let run = flood_under(&g, &ids, Some(&plan), 6, 16);
    // Everyone still halts (the window closed before the horizon) and the
    // global max eventually floods through the restarted node.
    assert_eq!(run.outputs, vec![Some(3), Some(3), Some(3)]);
    let stats = run.faults.unwrap();
    assert!(stats.crash_dropped > 0, "in-flight messages were lost");
}

#[test]
fn permanent_crash_leaves_node_unhalted() {
    let g = generators::path(3);
    let ids = IdAssignment::contiguous(3);
    let plan = FaultPlan::new(2).with_crash(NodeId::new(0), 1, u64::MAX);
    let run = flood_under(&g, &ids, Some(&plan), 4, 10);
    assert!(run.outputs[0].is_none(), "crashed node never halts");
    assert!(run.outputs[1].is_some() && run.outputs[2].is_some());
}

#[test]
fn link_partitions_sever_then_heal() {
    // Two cliques joined by a bridge: the reference 2-partition puts the
    // cliques in different shards, so a (0,1) link cut severs the bridge.
    let g =
        Graph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]).unwrap();
    let bridge_plan = FaultPlan::new(5)
        .with_partition_granularity(2)
        .with_link_cut(0, 1, 1, 2); // severed for rounds 1..3
    let mut net = Network::new(&g, Model::Local);
    net.install_faults(bridge_plan);
    let full = 2 * g.m();
    let r1 = net.broadcast(|v| v.index() as u64);
    let r2 = net.broadcast(|v| v.index() as u64);
    let r3 = net.broadcast(|v| v.index() as u64);
    // While severed, exactly the two bridge-crossing messages are lost.
    assert_eq!(r1.total(), full - 2);
    assert_eq!(r2.total(), full - 2);
    // Healed: everything flows again.
    assert_eq!(r3.total(), full);
    let stats = net.fault_stats().unwrap();
    assert_eq!(stats.partition_dropped, 4);
}

#[test]
fn async_scheduler_reorders_inboxes_as_a_permutation() {
    let g = generators::star(6);
    let ids = IdAssignment::contiguous(7);
    // Fault-free plan with reordering: the adversary only reorders.
    let plan = FaultPlan::new(123).with_reordering();
    let run = flood_under(&g, &ids, Some(&plan), 3, 8);
    let clean = flood_under(&g, &ids, None, 3, 8);
    // Flooding is order-oblivious, so outputs and metrics are untouched by
    // pure reordering — and the center's 6-message inbox was permuted.
    assert_eq!(run.outputs, clean.outputs);
    assert_eq!(run.metrics, clean.metrics);
    let stats = run.faults.unwrap();
    assert!(stats.reordered_inboxes > 0);
    assert_eq!(stats.dropped + stats.duplicated + stats.delayed, 0);
}

#[test]
fn reordering_is_observable_and_deterministic() {
    let g = generators::star(8);
    let mut plain = Network::new(&g, Model::Local);
    let plain_mail = plain.broadcast(|v| v.index() as u64);
    let run_reordered = || {
        let mut net = Network::new(&g, Model::Local);
        net.install_faults(FaultPlan::new(77).with_reordering());
        net.broadcast(|v| v.index() as u64)
    };
    let a = run_reordered();
    let b = run_reordered();
    assert_eq!(a, b, "same seed ⇒ same permutation");
    let center = NodeId::new(0);
    let mut sorted = a.inbox(center).to_vec();
    sorted.sort_by_key(|inc| inc.from);
    assert_eq!(
        sorted,
        plain_mail.inbox(center).to_vec(),
        "reordered inbox is a permutation of the clean one"
    );
    assert_ne!(
        a.inbox(center),
        plain_mail.inbox(center),
        "an 8-message inbox under seed 77 is actually permuted"
    );
}

#[test]
fn per_edge_overrides_sever_one_edge_only() {
    let g = generators::path(3); // edges 0=(0,1), 1=(1,2)
    let mut net = Network::new(&g, Model::Local);
    net.install_faults(
        FaultPlan::new(8).with_edge_rates(EdgeId::new(0), FaultRates::new(1.0, 0.0, 0.0)),
    );
    let mail = net.broadcast(|v| v.index() as u32);
    // Edge 0's two messages are gone; edge 1's two survive.
    assert_eq!(mail.total(), 2);
    assert_eq!(mail.inbox(NodeId::new(0)).len(), 0);
    assert_eq!(mail.inbox(NodeId::new(2)).len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full contract under a randomized adversary: any plan, any graph —
    /// a twin run replays bit-identical outputs, metrics and fault stats.
    #[test]
    fn random_plans_replay_bit_identically(
        (n, deg, seed, drop, dup, delay) in (
            12usize..48,
            2usize..5,
            0u64..1000,
            0u32..300,
            0u32..200,
            0u32..200,
        )
    ) {
        let n = if (n * deg) % 2 == 1 { n + 1 } else { n };
        let g = generators::random_regular(n, deg, seed ^ 0x5eed).unwrap();
        let ids = IdAssignment::scattered(n, seed);
        let mut plan = FaultPlan::new(seed)
            .with_drop_rate(drop as f64 / 1000.0)
            .with_duplicate_rate(dup as f64 / 1000.0)
            .with_delay_rate(delay as f64 / 1000.0, 1 + seed % 3)
            .with_partition_granularity(2)
            .with_link_cut(0, 1, 1 + seed % 3, 1 + seed % 4);
        if seed % 2 == 0 {
            plan = plan.with_crash(NodeId::new((seed % n as u64) as usize), 1 + seed % 2, 4);
        }
        if seed % 3 == 0 {
            plan = plan.with_reordering();
        }
        let reference = flood_run(&g, &ids, &plan);
        let replay = flood_run(&g, &ids, &plan);
        prop_assert_eq!(replay.outputs, reference.outputs);
        prop_assert_eq!(replay.metrics, reference.metrics);
        prop_assert_eq!(replay.faults, reference.faults);
    }
}
