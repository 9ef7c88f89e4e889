//! The multi-round workload the sim test batteries share.

use distgraph::NodeId;
use distsim::{IdAssignment, Network};

/// Max-id flooding on `net`: every node starts from its identifier, keeps
/// the largest identifier it has received and sends it to all neighbors for
/// `budget(v)` steps after the first round, then halts with it. A node
/// sends only if in the previous round it was live, had not halted and was
/// outside a crash window of the installed fault plan. Runs until every
/// node halted or `horizon` rounds were charged; `None` marks a node still
/// running at the horizon.
///
/// Flooding tolerates lost messages (the output is whatever maximum made it
/// through), so every lost, delayed or duplicated message shows up in the
/// outputs, and staggered budgets exercise silent and halted nodes across
/// chunk boundaries.
pub fn flood(
    net: &mut Network<'_>,
    ids: &IdAssignment,
    budget: impl Fn(NodeId) -> u32,
    horizon: u64,
) -> Vec<Option<u64>> {
    let g = net.graph();
    let mut best: Vec<u64> = g.nodes().map(|v| ids.id(v)).collect();
    let mut rounds_left: Vec<u32> = g.nodes().map(budget).collect();
    let mut sending = vec![true; g.n()];
    let mut outputs = vec![None; g.n()];
    while net.rounds() < horizon && outputs.iter().any(Option::is_none) {
        let mail = net.exchange_sync(|v| {
            if !sending[v.index()] {
                return Vec::new();
            }
            let msg = best[v.index()];
            g.neighbors(v).iter().map(|nb| (nb.edge, msg)).collect()
        });
        let round = net.rounds();
        let plan = net.fault_plan();
        for v in g.nodes() {
            let i = v.index();
            sending[i] = false;
            if outputs[i].is_some() || plan.is_some_and(|p| p.is_crashed(v, round)) {
                continue;
            }
            best[i] = mail.inbox(v).iter().fold(best[i], |b, m| b.max(m.msg));
            if rounds_left[i] == 0 {
                outputs[i] = Some(best[i]);
            } else {
                rounds_left[i] -= 1;
                sending[i] = true;
            }
        }
    }
    outputs
}
