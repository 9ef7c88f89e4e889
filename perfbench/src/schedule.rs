//! Seeded operation schedules over a `rows × cols` grid torus.
//!
//! Writes follow the partition `distserve::loadgen` uses, so every write is
//! admissible on a correct daemon no matter how it interleaves with others:
//!
//! * inserts are diagonal pairs `(a, diag(a))`, `diag(r, c) = (r+1, c+1)`
//!   mod the torus, which are never torus edges and never repeat;
//! * deletes name original stable ids (`< 2·rows·cols`), each once;
//! * writer slot `s` of `stride` uses only anchors and ids `≡ s (mod
//!   stride)`, so two slots never collide.
//!
//! A node gains at most two diagonals (once as anchor, once as target), so
//! Δ stays ≤ 6 and a daemon with Δ-headroom 2 never recolors from scratch.
//!
//! Lookups name odd stable ids, which writer slot 0 of stride 2 never
//! deletes, so every lookup of a run whose writer is slot 0 hits a live
//! edge whose color never changes.

use distsim::faults::splitmix64;

/// One single-edge write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Write {
    /// Delete the edge with this stable id.
    Delete(u64),
    /// Insert the edge between these nodes.
    Insert(u32, u32),
}

/// The torus node one row down and one column right of `a`.
pub fn diag(rows: usize, cols: usize, a: usize) -> usize {
    let (r, c) = (a / cols, a % cols);
    ((r + 1) % rows) * cols + (c + 1) % cols
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A seeded bijection of `0..k`: `i ↦ (offset + i·step) mod k` with `step`
/// coprime to `k`.
fn walk(seed: u64, k: usize) -> impl Fn(usize) -> usize {
    let offset = (splitmix64(seed) % k as u64) as usize;
    let mut step = (splitmix64(seed ^ 0x5eed) % k as u64) as usize | 1;
    while gcd(step, k) != 1 {
        step += 1;
    }
    move |i| (offset + i * step) % k
}

/// The first `count` writes of writer `slot` of `stride` on the torus,
/// alternating deletes of original edges with inserts of diagonals.
///
/// # Panics
///
/// If the torus is smaller than 3×3, `slot >= stride`, or the slot's
/// share of anchors or ids cannot supply `count` writes.
pub fn writes(
    rows: usize,
    cols: usize,
    slot: usize,
    stride: usize,
    seed: u64,
    count: usize,
) -> Vec<Write> {
    assert!(rows >= 3 && cols >= 3, "the schedule needs a ≥3×≥3 torus");
    assert!(slot < stride, "slot {slot} out of stride {stride}");
    let n = rows * cols;
    let anchors = (n - slot).div_ceil(stride);
    let ids = (2 * n - slot).div_ceil(stride);
    assert!(
        count.div_ceil(2) <= anchors.min(ids),
        "{count} writes exceed the slot's share of the torus"
    );
    let seed = splitmix64(seed ^ ((slot as u64) << 32));
    let pick_anchor = walk(seed, anchors);
    let pick_id = walk(seed ^ 0xde1e7e, ids);
    (0..count)
        .map(|i| {
            if i % 2 == 0 {
                Write::Delete((slot + pick_id(i / 2) * stride) as u64)
            } else {
                let a = slot + pick_anchor(i / 2) * stride;
                Write::Insert(a as u32, diag(rows, cols, a) as u32)
            }
        })
        .collect()
}

/// The stable id the `j`-th lookup of a run names: a seeded odd id among
/// the torus's original `m0` edges.
pub fn lookup_id(seed: u64, j: u64, m0: u64) -> u64 {
    2 * (splitmix64(seed ^ j.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % (m0 / 2)) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgraph::{generators, DynamicGraph, EdgeId, UpdateBatch};
    use std::collections::HashSet;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        assert_eq!(writes(30, 20, 0, 2, 7, 200), writes(30, 20, 0, 2, 7, 200));
        assert_ne!(writes(30, 20, 0, 2, 7, 200), writes(30, 20, 0, 2, 8, 200));
        let ids = |seed| {
            (0..500)
                .map(|j| lookup_id(seed, j, 1200))
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(3), ids(3));
        assert_ne!(ids(3), ids(4));
    }

    #[test]
    fn writers_never_collide_and_lookups_stay_live() {
        let (rows, cols) = (30, 20);
        let m0 = (2 * rows * cols) as u64;
        let a = writes(rows, cols, 0, 2, 11, 600);
        let b = writes(rows, cols, 1, 2, 11, 600);
        let mut seen = HashSet::new();
        for w in a.iter().chain(&b) {
            let key = match *w {
                Write::Delete(id) => (u64::MAX, id),
                Write::Insert(u, v) => (u64::from(u.min(v)), u64::from(u.max(v))),
            };
            assert!(seen.insert(key), "{w:?} repeats");
        }
        let deleted: HashSet<u64> = a
            .iter()
            .filter_map(|w| match *w {
                Write::Delete(id) => Some(id),
                Write::Insert(..) => None,
            })
            .collect();
        for j in 0..5000 {
            let id = lookup_id(11, j, m0);
            assert!(id < m0 && !deleted.contains(&id));
        }

        // Both slots together apply as one batch and keep Δ ≤ 6.
        let mut dg = DynamicGraph::from_graph(generators::grid_torus(rows, cols));
        let mut batch = UpdateBatch::empty();
        for w in a.iter().chain(&b) {
            match *w {
                Write::Delete(id) => batch.delete.push(EdgeId::new(id as usize)),
                Write::Insert(u, v) => batch.insert.push((u as usize, v as usize)),
            }
        }
        dg.apply(&batch).expect("the schedule is admissible");
        assert!(dg.graph().max_degree() <= 6);
    }
}
