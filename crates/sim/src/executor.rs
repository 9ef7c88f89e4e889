//! The parallel round-execution engine.
//!
//! A node's action in one synchronous round of the LOCAL/CONGEST models is a
//! pure function of its own state and its inbox (Section 2 of the paper), so
//! executing a round over all nodes is embarrassingly parallel. This module
//! provides the machinery the simulator uses to exploit that:
//!
//! * [`ExecutionPolicy`] — the knob selecting sequential or multi-threaded
//!   round execution; carried by [`Network`](crate::Network).
//! * [`map_chunks`] — the chunked fork/join primitive: the node range
//!   `0..n` is split into contiguous chunks, run on at most
//!   [`ExecutionPolicy::effective_threads`] `std::thread::scope` workers
//!   (each draining consecutive chunks), and the per-chunk results are
//!   returned **in chunk order** so callers can merge them deterministically.
//! * [`Chunks`] — the deterministic chunk geometry, including the inverse
//!   `chunk_of` map used to bucket outgoing messages by destination chunk.
//!
//! Determinism contract: for a fixed input, the sequential path and the
//! parallel path at *any* thread count produce byte-identical mailboxes,
//! metrics and outputs. The engine guarantees this by (a) giving every worker
//! a read-only snapshot of the round's inputs, (b) merging per-chunk message
//! lists in global sender order (chunk order × in-chunk order), and
//! (c) folding per-chunk [`Metrics`](crate::Metrics) with the same
//! commutative/associative operations the sequential loop applies.

use std::ops::Range;

/// How the simulator executes the per-node work of one synchronous round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionPolicy {
    /// One thread walks all nodes in index order (the reference semantics).
    #[default]
    Sequential,
    /// A `std::thread::scope` worker pool over contiguous node chunks.
    ///
    /// Results are bit-identical to [`ExecutionPolicy::Sequential`] for every
    /// thread count; only wall-clock time changes.
    Parallel {
        /// Number of worker threads (clamped to at least 1).
        threads: usize,
    },
}

impl ExecutionPolicy {
    /// A parallel policy with the given number of worker threads.
    pub fn parallel(threads: usize) -> Self {
        ExecutionPolicy::Parallel {
            threads: threads.max(1),
        }
    }

    /// A parallel policy sized to the host's available parallelism
    /// (1 thread when the host does not report it).
    ///
    /// Uses the same once-per-process [`host_parallelism`] probe as
    /// [`Self::spawning_pays_off`] and [`Self::effective_threads`], so the
    /// three can never disagree mid-process (a fresh
    /// `available_parallelism()` call can change its answer under cgroup or
    /// affinity updates).
    pub fn auto() -> Self {
        ExecutionPolicy::parallel(host_parallelism())
    }

    /// The number of worker threads this policy uses (1 for sequential).
    pub fn threads(&self) -> usize {
        match self {
            ExecutionPolicy::Sequential => 1,
            ExecutionPolicy::Parallel { threads } => (*threads).max(1),
        }
    }

    /// Returns `true` if this policy actually spawns workers.
    pub fn is_parallel(&self) -> bool {
        self.threads() > 1
    }

    /// Returns `true` if spawning workers can actually overlap execution on
    /// this host. On a single-hardware-thread machine a `Parallel { 8 }`
    /// policy gets no concurrency — the spawned workers just time-slice one
    /// core and the spawn/join overhead shows up as a speedup *below* 1.0 —
    /// so the chunked primitives fall back to running the (identical) chunk
    /// geometry inline on the calling thread. The result is bit-identical
    /// either way; only wall-clock changes.
    pub fn spawning_pays_off(&self) -> bool {
        self.is_parallel() && host_parallelism() > 1
    }

    /// The number of workers worth spawning on this host: the policy's
    /// thread count capped at the available hardware parallelism (but never
    /// below 1). Chunk *geometry* always follows [`Self::threads`] so
    /// results stay bit-identical; only the worker count adapts.
    pub fn effective_threads(&self) -> usize {
        self.threads().min(host_parallelism()).max(1)
    }
}

/// The host's available parallelism, probed once per process.
///
/// Every parallelism decision in the engine ([`ExecutionPolicy::auto`],
/// [`ExecutionPolicy::spawning_pays_off`],
/// [`ExecutionPolicy::effective_threads`]) reads this cached probe so they
/// stay mutually consistent for the lifetime of the process.
pub fn host_parallelism() -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

impl std::fmt::Display for ExecutionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionPolicy::Sequential => write!(f, "sequential"),
            ExecutionPolicy::Parallel { threads } => write!(f, "parallel({threads})"),
        }
    }
}

/// The deterministic chunk geometry for `n` items split into (at most)
/// `chunks` contiguous ranges.
///
/// [`Chunks::new`] splits by item count: the first `n % chunks` ranges have
/// `⌈n/chunks⌉` items, the rest `⌊n/chunks⌋`. [`Chunks::degree_weighted`]
/// splits by work instead, cutting a CSR prefix sum into near-equal weight
/// shares so a power-law hub does not serialize a parallel round on one
/// chunk. Either way the geometry is a pure function of its inputs — never
/// of the worker count that actually runs — so every policy replays the same
/// chunk order and stays bit-identical to sequential execution. Empty ranges
/// are never produced (for `n < chunks` there are exactly `n` singleton
/// ranges); `n = 0` yields one empty chunk.
#[derive(Debug, Clone)]
pub struct Chunks {
    /// Chunk boundaries: chunk `c` covers `bounds[c]..bounds[c + 1]`.
    /// Strictly increasing except for the single empty chunk of `n = 0`.
    bounds: Vec<usize>,
}

impl Chunks {
    /// Count-balanced chunk geometry for `n` items and the requested chunk
    /// count.
    pub fn new(n: usize, chunks: usize) -> Self {
        let count = chunks.max(1).min(n.max(1));
        let (base, long) = (n / count, n % count);
        let mut bounds = Vec::with_capacity(count + 1);
        let mut next = 0usize;
        bounds.push(next);
        for c in 0..count {
            next += if c < long { base + 1 } else { base };
            bounds.push(next);
        }
        Chunks { bounds }
    }

    /// Degree-weighted chunk geometry for `n` nodes whose adjacency is
    /// described by the CSR prefix-sum `offsets` (`offsets.len() == n + 1`,
    /// `offsets[v]..offsets[v + 1]` indexing node `v`'s neighbor slice).
    ///
    /// Node `v` is weighted `1 + degree(v)` — the `1` keeps isolated nodes
    /// from collapsing into one chunk — and cut points are the smallest
    /// nodes reaching each of the `count` equal weight shares, clamped so no
    /// chunk is empty. The geometry depends only on `(offsets, chunks)`, so
    /// all execution policies derive identical chunk boundaries.
    pub fn degree_weighted(n: usize, offsets: &[usize], chunks: usize) -> Self {
        assert_eq!(offsets.len(), n + 1, "CSR offsets must have n + 1 entries");
        let count = chunks.max(1).min(n.max(1));
        // prefix(v) = Σ_{u < v} (1 + deg(u)) = v + offsets[v].
        let total = n + offsets[n];
        let mut bounds = Vec::with_capacity(count + 1);
        bounds.push(0usize);
        for c in 1..count {
            let share = total / count * c + total % count * c / count;
            // Smallest v with prefix(v) ≥ share, found by binary search over
            // the monotone prefix; clamped to keep every chunk non-empty.
            let (mut lo, mut hi) = (0usize, n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if mid + offsets[mid] < share {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            bounds.push(lo.clamp(bounds[c - 1] + 1, n - (count - c)));
        }
        bounds.push(n);
        Chunks { bounds }
    }

    /// Number of chunks (0 items still yield one empty chunk).
    pub fn count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total number of items covered (`bounds` end).
    pub fn len(&self) -> usize {
        *self.bounds.last().expect("bounds are never empty")
    }

    /// Returns `true` if the geometry covers zero items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The half-open item range of chunk `c`.
    pub fn range(&self, c: usize) -> Range<usize> {
        debug_assert!(c < self.count());
        self.bounds[c]..self.bounds[c + 1]
    }

    /// All chunk ranges in order.
    pub fn ranges(&self) -> Vec<Range<usize>> {
        (0..self.count()).map(|c| self.range(c)).collect()
    }

    /// The chunk an item index belongs to (inverse of [`Chunks::range`]).
    pub fn chunk_of(&self, item: usize) -> usize {
        debug_assert!(item < self.len().max(1));
        (self.bounds.partition_point(|&b| b <= item) - 1).min(self.count() - 1)
    }
}

/// Applies `f` to every chunk of `chunks` (e.g. a degree-weighted
/// geometry) and returns the results in chunk order.
///
/// With a sequential policy (or a single chunk) `f` runs on the calling
/// thread; otherwise the chunks run concurrently on at most
/// [`ExecutionPolicy::effective_threads`] scoped workers. A panic inside a
/// worker is re-raised on the calling thread with its original payload (the
/// first panicking chunk in chunk order wins), so assertion messages match
/// the sequential path.
pub fn map_chunks<T, F>(chunks: &Chunks, policy: ExecutionPolicy, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    run_jobs(policy, chunks.ranges(), f)
}

/// Runs `f` over `jobs` and returns the results in job order.
///
/// Jobs run inline on the calling thread unless spawning pays off; then at
/// most [`ExecutionPolicy::effective_threads`] scoped workers run, each
/// draining a run of consecutive jobs in order. The jobs (the chunks) are
/// the same whatever the worker count, so results are bit-identical; only
/// the number of threads spawned per call adapts to the host. A panic
/// re-raises on the calling thread with the payload of the first panicking
/// job in job order.
fn run_jobs<J, T, F>(policy: ExecutionPolicy, jobs: Vec<J>, f: F) -> Vec<T>
where
    J: Send,
    T: Send,
    F: Fn(J) -> T + Sync,
{
    let workers = policy.effective_threads().min(jobs.len());
    if !policy.spawning_pays_off() || workers <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    let groups = Chunks::new(jobs.len(), workers);
    let mut jobs = jobs.into_iter();
    let batches: Vec<Vec<J>> = (0..groups.count())
        .map(|g| jobs.by_ref().take(groups.range(g).len()).collect())
        .collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| scope.spawn(move || batch.into_iter().map(f).collect::<Vec<T>>()))
            .collect();
        let mut out = Vec::with_capacity(groups.len());
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Applies `f` to every chunk range of an explicit geometry paired with its
/// (moved) per-chunk payload, returning the results in chunk order.
///
/// The send phase of an allocation-free round uses this to hand each worker
/// its own reusable arena buffer (`U = &mut Vec<_>`) while collecting the
/// per-chunk [`Metrics`](crate::Metrics) for the deterministic in-order fold.
pub fn map_chunks_with<T, U, F>(
    chunks: &Chunks,
    policy: ExecutionPolicy,
    payloads: Vec<U>,
    f: F,
) -> Vec<T>
where
    T: Send,
    U: Send,
    F: Fn(Range<usize>, U) -> T + Sync,
{
    assert_eq!(
        payloads.len(),
        chunks.count(),
        "one payload per chunk required"
    );
    let paired: Vec<(Range<usize>, U)> = chunks.ranges().into_iter().zip(payloads).collect();
    run_jobs(policy, paired, |(range, u)| f(range, u))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_thread_counts() {
        assert_eq!(ExecutionPolicy::Sequential.threads(), 1);
        assert_eq!(ExecutionPolicy::parallel(0).threads(), 1);
        assert_eq!(ExecutionPolicy::parallel(4).threads(), 4);
        assert!(!ExecutionPolicy::Sequential.is_parallel());
        assert!(!ExecutionPolicy::parallel(1).is_parallel());
        assert!(ExecutionPolicy::parallel(2).is_parallel());
        assert!(ExecutionPolicy::auto().threads() >= 1);
        // `auto()` reads the same cached probe as the rest of the engine.
        assert_eq!(
            ExecutionPolicy::auto(),
            ExecutionPolicy::parallel(host_parallelism())
        );
        assert_eq!(ExecutionPolicy::default(), ExecutionPolicy::Sequential);
        assert_eq!(format!("{}", ExecutionPolicy::parallel(3)), "parallel(3)");
        assert_eq!(format!("{}", ExecutionPolicy::Sequential), "sequential");
    }

    #[test]
    fn chunk_geometry_covers_range_exactly() {
        for n in [0usize, 1, 2, 3, 7, 16, 100, 101] {
            for c in [1usize, 2, 3, 4, 8, 64] {
                let chunks = Chunks::new(n, c);
                let ranges = chunks.ranges();
                assert_eq!(ranges.len(), chunks.count());
                let mut expected = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, expected, "contiguous chunks for n={n} c={c}");
                    assert!(r.end > r.start || n == 0, "no empty chunks for n={n} c={c}");
                    expected = r.end;
                }
                assert_eq!(expected, n, "chunks cover 0..{n} for c={c}");
            }
        }
    }

    #[test]
    fn chunk_of_inverts_range() {
        for n in [1usize, 2, 5, 17, 64, 100] {
            for c in [1usize, 2, 3, 7, 200] {
                let chunks = Chunks::new(n, c);
                for chunk in 0..chunks.count() {
                    for item in chunks.range(chunk) {
                        assert_eq!(
                            chunks.chunk_of(item),
                            chunk,
                            "chunk_of({item}) for n={n} c={c}"
                        );
                    }
                }
            }
        }
    }

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

    #[test]
    fn degree_weighted_chunks_cover_range_exactly() {
        let cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![5, 0, 0, 0, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 0, 0, 0, 99],
            vec![1000, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            (0..100).map(|v| v % 7).collect(),
        ];
        for degrees in &cases {
            let n = degrees.len();
            let offsets = offsets_of(degrees);
            for c in [1usize, 2, 3, 4, 8, 64] {
                let chunks = Chunks::degree_weighted(n, &offsets, c);
                let mut expected = 0usize;
                for r in chunks.ranges() {
                    assert_eq!(r.start, expected, "contiguous for n={n} c={c}");
                    assert!(r.end > r.start || n == 0, "no empty chunks n={n} c={c}");
                    expected = r.end;
                }
                assert_eq!(expected, n, "covers 0..{n} for c={c}");
                assert_eq!(chunks.len(), n);
            }
        }
    }

    #[test]
    fn degree_weighted_chunk_of_inverts_range() {
        let degrees: Vec<usize> = (0..64).map(|v| if v == 10 { 500 } else { v % 5 }).collect();
        let offsets = offsets_of(&degrees);
        for c in [1usize, 2, 3, 7, 64, 200] {
            let chunks = Chunks::degree_weighted(degrees.len(), &offsets, c);
            for chunk in 0..chunks.count() {
                for item in chunks.range(chunk) {
                    assert_eq!(chunks.chunk_of(item), chunk, "item {item} c={c}");
                }
            }
        }
    }

    #[test]
    fn degree_weighted_chunks_balance_a_hub_heavy_graph() {
        // One hub holding almost all the work: the hub's chunk should stay
        // small in node count while the remaining nodes spread over the
        // other chunks, instead of ⌈n/4⌉ nodes (hub included) in chunk 0.
        let mut degrees = vec![0usize; 64];
        degrees[0] = 1000;
        let offsets = offsets_of(&degrees);
        let chunks = Chunks::degree_weighted(64, &offsets, 4);
        assert_eq!(chunks.count(), 4);
        assert_eq!(chunks.range(0), 0..1, "the hub is isolated in chunk 0");
    }

    #[test]
    #[should_panic(expected = "boom 3")]
    fn worker_panics_propagate_with_payload() {
        let policy = ExecutionPolicy::parallel(4);
        map_chunks(&Chunks::new(8, policy.threads()), policy, |range| {
            if range.contains(&3) {
                panic!("boom 3");
            }
            range.len()
        });
    }
}
