//! The reference partition shard-link cuts are defined against.
//!
//! A greedy BFS-grown, edge-balanced edge-cut partitioner: every node goes to
//! one of `k` shards, and an edge belongs to the *smaller* of its two
//! endpoint shards, so the owned-edge sets of the shards partition the edge
//! set.
//!
//! Shards are grown one at a time by breadth-first search from the smallest
//! still-unassigned node, which keeps each shard connected (per component)
//! and the cut small on mesh-like topologies. Balance is controlled on the
//! *edge* mass: shard `s` stops growing once it owns
//! `⌈remaining edges / remaining shards⌉` edges, so every shard owns at most
//! `⌈m/k⌉ + Δ` edges — closing a shard can overshoot its target by at most
//! the unassigned-degree of the final node, and the adaptive targets are
//! non-increasing across shards.

use distgraph::{Graph, NodeId};

/// An assignment of every node of a graph to one of `k` shards.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct Partition {
    /// `shard_of[v]` is the shard of node `v`; every value is `< k`.
    shard_of: Vec<u32>,
}

impl Partition {
    /// The trivial balanced partition: contiguous node ranges of near-equal
    /// size, in index order (the fallback for edgeless graphs).
    fn contiguous(n: usize, shards: usize) -> Self {
        let base = n / shards;
        let long = n % shards;
        let mut shard_of = Vec::with_capacity(n);
        for s in 0..shards {
            let len = base + usize::from(s < long);
            shard_of.extend(std::iter::repeat_n(s as u32, len));
        }
        Partition { shard_of }
    }

    /// The shard of node `v`.
    #[inline]
    pub(super) fn shard_of(&self, v: NodeId) -> usize {
        self.shard_of[v.index()] as usize
    }
}

/// Partitions `graph` into `shards` edge-balanced shards by greedy BFS growth
/// (see the module docs for the balance guarantee).
///
/// Deterministic: seeds are the smallest unassigned nodes, BFS visits
/// neighbors in the graph's sorted adjacency order, and isolated nodes are
/// distributed round-robin at the end. Edgeless graphs fall back to
/// contiguous node ranges.
pub(super) fn bfs_partition(graph: &Graph, shards: usize) -> Partition {
    let shards = shards.max(1);
    let n = graph.n();
    let m = graph.m();
    if m == 0 || shards == 1 {
        return Partition::contiguous(n, shards);
    }

    const UNASSIGNED: u32 = u32::MAX;
    let mut shard_of = vec![UNASSIGNED; n];
    let mut remaining_edges = m;
    // Rotating cursor over node ids: every node left of it with positive
    // degree is already assigned, making reseeding O(n) total.
    let mut seed_cursor = 0usize;
    let mut queue = std::collections::VecDeque::new();

    for s in 0..shards {
        let remaining_shards = shards - s;
        // Adaptive edge target: never above ⌈m/k⌉ because earlier shards
        // meet (or exceed) their own targets.
        let target = remaining_edges.div_ceil(remaining_shards);
        let mut owned = 0usize;
        let last = s + 1 == shards;
        queue.clear();

        while last || owned < target {
            let v = match queue.pop_front() {
                Some(v) => v,
                None => {
                    // Reseed from the smallest unassigned node that has
                    // degree > 0 (isolated nodes are placed afterwards).
                    while seed_cursor < n
                        && (shard_of[seed_cursor] != UNASSIGNED
                            || graph.degree(NodeId::new(seed_cursor)) == 0)
                    {
                        seed_cursor += 1;
                    }
                    if seed_cursor == n {
                        break;
                    }
                    NodeId::new(seed_cursor)
                }
            };
            if shard_of[v.index()] != UNASSIGNED {
                continue;
            }
            shard_of[v.index()] = s as u32;
            for nb in graph.neighbors(v) {
                if shard_of[nb.node.index()] == UNASSIGNED {
                    // `v` is the first-assigned endpoint, so shard `s` owns
                    // this edge (the neighbor's shard can only be ≥ s).
                    owned += 1;
                    queue.push_back(nb.node);
                }
            }
        }
        remaining_edges -= owned.min(remaining_edges);
    }

    // Isolated nodes (and nothing else) are still unassigned: spread them
    // round-robin in index order.
    let mut next = 0u32;
    for slot in shard_of.iter_mut() {
        if *slot == UNASSIGNED {
            *slot = next;
            next = (next + 1) % shards as u32;
        }
    }
    Partition { shard_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgraph::generators;

    fn graphs() -> Vec<(Graph, usize)> {
        vec![
            (generators::grid_torus(10, 10), 4),
            (generators::grid_torus(7, 9), 3),
            (generators::random_regular(64, 6, 11).unwrap(), 8),
            (generators::power_law(200, 2.5, 16, 3), 5),
            (generators::cycle(12), 1),
            (generators::path(3), 8),
            (
                Graph::from_edges(9, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap(),
                3,
            ),
            (Graph::from_edges(9, &[]).unwrap(), 3),
            (Graph::from_edges(2, &[]).unwrap(), 5),
        ]
    }

    #[test]
    fn partition_is_deterministic() {
        for (g, k) in graphs() {
            assert_eq!(bfs_partition(&g, k), bfs_partition(&g, k), "k={k}");
        }
    }

    #[test]
    fn every_node_gets_a_shard_below_k() {
        // Covers the edgeless fallback and more shards than nodes.
        for (g, k) in graphs() {
            let p = bfs_partition(&g, k);
            assert_eq!(p.shard_of.len(), g.n());
            for v in g.nodes() {
                assert!(
                    p.shard_of(v) < k,
                    "node {v} in shard {} ≥ {k}",
                    p.shard_of(v)
                );
            }
        }
    }

    #[test]
    fn owned_edges_per_shard_respect_the_balance_bound() {
        for (g, k) in graphs() {
            let p = bfs_partition(&g, k);
            let mut owned = vec![0usize; k];
            for e in g.edges() {
                let (u, v) = g.endpoints(e);
                owned[p.shard_of(u).min(p.shard_of(v))] += 1;
            }
            let bound = g.m().div_ceil(k) + g.max_degree();
            let max_owned = owned.iter().copied().max().unwrap();
            assert!(
                max_owned <= bound,
                "max owned {max_owned} > bound {bound} for k={k}"
            );
        }
    }
}
