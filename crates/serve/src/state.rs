//! The daemon's state machine: a registry of independent per-graph
//! **tenants**, each with epoch-published graph + coloring, admission
//! control, per-tick batch coalescing and snapshot hot-swap.
//!
//! # Multi-graph registry (protocol v2)
//!
//! [`ServerCore`] owns a fixed, boot-time vector of [`Tenant`]s. The
//! `graph_id` in a v2 frame header is a dense index into that vector;
//! tenant 0 is the **default graph**, whose config sets the per-connection
//! in-flight cap the handshake advertises. Tenants share nothing but the
//! connection-level `protocol_errors` counter: each has its own admission
//! queue, epoch chain, batch log, latency histograms and swap quiesce flag,
//! so a slow repair tick on one graph never blocks admissions or reads on
//! another.
//! An out-of-range `graph_id` answers a typed
//! [`RejectCode::UnknownGraph`] reject — routing faults are not admission
//! faults and are not charged to any tenant's counters.
//!
//! # Concurrency contract (per tenant)
//!
//! The served state lives in an immutable [`EpochState`] behind
//! `RwLock<Arc<EpochState>>`. Readers clone the `Arc` under a briefly held
//! read lock and then answer entirely off that pinned state — an in-flight
//! read always observes one consistent `(epoch, version)` pair, never a torn
//! mix, even while a tick or hot swap publishes a successor. Writers
//! (`tick`, `swap`) serialize on a dedicated mutex, build the successor
//! state *off to the side* on clones, and publish it with one pointer swap.
//!
//! # Admission control (per tenant)
//!
//! Submissions pass through a bounded queue with full validation at the
//! door: every delete must name a live stable id not already spoken for,
//! every insert a non-loop, in-range endpoint pair that is neither live
//! (unless its live edge is pending deletion) nor already pending. The
//! rules exactly mirror [`DynamicGraph::apply`]'s batch validation, so the
//! per-tick coalesced batch — all admitted deletes, then all admitted
//! inserts, in admission order — is always accepted by `apply`, and
//! admission order equals application order. Overflow and quiesced states
//! answer with typed [`RejectCode`]s instead of errors.
//!
//! # Lock order (per tenant)
//!
//! `writer → pending → state`. Admission takes `pending → state(read)`,
//! reads take `state(read)` only; no path acquires them in the opposite
//! order, so the hierarchy is deadlock-free. No code path holds locks of
//! two tenants at once.

use crate::error::SetupError;
use crate::hist::LatencyHistogram;
use crate::wire::{GraphInfo, LookupOutcome, MetricsReport, RejectCode, Request, Response};
use distgraph::{DynamicGraph, EdgeColoring, EdgeId, Graph, NodeId, UpdateBatch};
use distsim::IdAssignment;
use diststore::{LoadedSnapshot, Snapshot};
use edgecolor::{default_palette, ColoringParams, Recoloring, SelfStabilizing};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

/// Tuning knobs for one serving tenant.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum admitted-but-unapplied batches before submissions are
    /// rejected with [`RejectCode::QueueFull`].
    pub queue_capacity: usize,
    /// Background tick period. `None` runs no tick thread — batches apply
    /// on `Flush` requests or explicit [`Tenant::tick`] calls (the mode
    /// the deterministic tests drive).
    pub tick_interval_ms: Option<u64>,
    /// Δ-growth headroom provisioned into the palette budget
    /// ([`Recoloring::with_budget`] semantics): the initial budget is
    /// `2(Δ + headroom) − 1`.
    pub headroom: usize,
    /// Target ε of the coloring parameters.
    pub eps: f64,
    /// Seed of the scattered node-id assignment.
    pub id_seed: u64,
    /// Optional full-sweep period for the self-stabilization layer
    /// ([`SelfStabilizing::with_full_sweep_every`]).
    pub full_sweep_every: Option<u64>,
    /// Per-connection in-flight request cap advertised in the v2
    /// [`Response::Welcome`] and enforced by the pipelined connection
    /// worker.
    pub max_inflight: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            tick_interval_ms: Some(2),
            headroom: 2,
            eps: 0.5,
            id_seed: 1,
            full_sweep_every: None,
            max_inflight: 32,
        }
    }
}

/// One immutable published generation of served state. Everything a read
/// needs — graph, coloring, ids — is reachable from one `Arc`, so a reader
/// holding it observes a single consistent generation.
#[derive(Debug, Clone)]
pub struct EpochState {
    epoch: u64,
    version: u64,
    dg: DynamicGraph,
    stab: SelfStabilizing,
    ids: Arc<IdAssignment>,
}

impl EpochState {
    /// The snapshot epoch (bumped only by hot swaps).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The applied-batch version within the epoch (bumped every tick).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The dynamic graph of this generation.
    pub fn dynamic(&self) -> &DynamicGraph {
        &self.dg
    }

    /// The self-stabilizing session of this generation.
    pub fn stabilizer(&self) -> &SelfStabilizing {
        &self.stab
    }

    /// The maintained coloring of this generation.
    pub fn coloring(&self) -> &EdgeColoring {
        self.stab.coloring()
    }

    /// The node-id assignment repairs run under.
    pub fn ids(&self) -> &IdAssignment {
        &self.ids
    }
}

/// Pending (admitted, unapplied) work plus the bookkeeping sets admission
/// validates against.
#[derive(Debug, Default)]
struct Pending {
    batches: Vec<UpdateBatch>,
    /// Stable ids pending deletion (admitted, not yet drained).
    deletes: HashSet<EdgeId>,
    /// Normalized endpoint pairs pending insertion.
    pairs: HashSet<(usize, usize)>,
    /// Drained into a tick but not yet published.
    in_flight_deletes: HashSet<EdgeId>,
    /// Drained into a tick but not yet published.
    in_flight_pairs: HashSet<(usize, usize)>,
    admitted: u64,
    applied: u64,
}

#[derive(Debug, Default)]
struct Counters {
    lookups: AtomicU64,
    lookup_hits: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    ticks: AtomicU64,
    coalesced_batches: AtomicU64,
    repaired_edges: AtomicU64,
    full_recolors: AtomicU64,
    stabilizations: AtomicU64,
    conflicts_found: AtomicU64,
    swaps: AtomicU64,
    swaps_rejected: AtomicU64,
    internal_errors: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One independently served graph: published state, admission queue,
/// counters, latency histograms and batch log. The whole per-graph state
/// machine lives here; [`ServerCore`] is the registry that routes v2
/// frames to the right tenant.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    state: RwLock<Arc<EpochState>>,
    pending: Mutex<Pending>,
    drained: Condvar,
    /// Serializes state writers (`tick` vs `swap`).
    writer: Mutex<()>,
    swapping: AtomicBool,
    config: ServeConfig,
    params: ColoringParams,
    counters: Counters,
    repair_hist: Mutex<LatencyHistogram>,
    lookup_hist: Mutex<LatencyHistogram>,
    batch_log: Mutex<Vec<(u64, UpdateBatch)>>,
}

impl Tenant {
    /// Builds a tenant over `graph`, coloring it from scratch with the
    /// configured budget.
    ///
    /// # Errors
    ///
    /// Propagates errors of the initial coloring run.
    pub fn new(
        name: impl Into<String>,
        graph: Graph,
        config: ServeConfig,
    ) -> Result<Self, SetupError> {
        Self::from_dynamic(name, DynamicGraph::from_graph(graph), None, config)
    }

    /// Builds a tenant over an existing dynamic graph, adopting `coloring`
    /// if one is supplied and it passes the audit (falling back to a fresh
    /// coloring run if it does not).
    ///
    /// # Errors
    ///
    /// Propagates errors of the initial coloring run.
    pub fn from_dynamic(
        name: impl Into<String>,
        dg: DynamicGraph,
        coloring: Option<EdgeColoring>,
        config: ServeConfig,
    ) -> Result<Self, SetupError> {
        let ids = Arc::new(IdAssignment::scattered(dg.n(), config.id_seed));
        let params = ColoringParams::new(config.eps);
        let (rec, _) = session_for(&dg, coloring, &ids, &params, config.headroom)?;
        let mut stab = SelfStabilizing::new(rec);
        if let Some(period) = config.full_sweep_every {
            stab = stab.with_full_sweep_every(period);
        }
        let state = EpochState {
            epoch: 1,
            version: 0,
            dg,
            stab,
            ids,
        };
        Ok(Tenant {
            name: name.into(),
            state: RwLock::new(Arc::new(state)),
            pending: Mutex::new(Pending::default()),
            drained: Condvar::new(),
            writer: Mutex::new(()),
            swapping: AtomicBool::new(false),
            config,
            params,
            counters: Counters::default(),
            repair_hist: Mutex::new(LatencyHistogram::new()),
            lookup_hist: Mutex::new(LatencyHistogram::new()),
            batch_log: Mutex::new(Vec::new()),
        })
    }

    /// Builds a tenant from a snapshot file (the daemon's boot path):
    /// open + validate, materialize, adopt the stored coloring if present.
    ///
    /// # Errors
    ///
    /// [`SetupError::Snapshot`] if the file fails validation,
    /// [`SetupError::Coloring`] if the initial coloring run fails.
    pub fn from_snapshot_path(
        name: impl Into<String>,
        path: impl AsRef<Path>,
        config: ServeConfig,
    ) -> Result<Self, SetupError> {
        let loaded = LoadedSnapshot::load_path(path)?;
        let coloring = loaded.coloring().cloned();
        let dg = loaded.into_dynamic()?;
        Self::from_dynamic(name, dg, coloring, config)
    }

    /// The tenant's human-readable name (snapshot stem or boot label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The coloring parameters repairs run under.
    pub fn params(&self) -> &ColoringParams {
        &self.params
    }

    /// Pins and returns the current published generation.
    pub fn state_snapshot(&self) -> Arc<EpochState> {
        self.state.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The coalesced batches applied so far, tagged with the epoch each was
    /// applied in — the sequential-replay log the concurrency battery and
    /// the bench harness certify against. Per tenant: replaying tenant `g`'s
    /// log against tenant `g`'s boot graph reproduces its coloring exactly.
    pub fn batch_log(&self) -> Vec<(u64, UpdateBatch)> {
        lock(&self.batch_log).clone()
    }

    /// Admitted-but-unapplied batch count.
    pub fn queue_depth(&self) -> usize {
        lock(&self.pending).batches.len()
    }

    /// Ticks that dropped a batch to an internal apply/repair failure —
    /// admission control makes this unreachable; nonzero values mean a bug.
    pub fn internal_errors(&self) -> u64 {
        self.counters.internal_errors.load(Ordering::Relaxed)
    }

    /// This tenant's row in the [`Response::Welcome`] catalog.
    pub fn info(&self, id: u32) -> GraphInfo {
        let st = self.state_snapshot();
        GraphInfo {
            id,
            name: self.name.clone(),
            n: st.dg.n() as u64,
            m: st.dg.m() as u64,
        }
    }

    // -- request handlers ---------------------------------------------------

    /// Dispatches one decoded request against this tenant. `Shutdown` only
    /// answers [`Response::ShuttingDown`] (stopping the daemon is the
    /// transport layer's job); `Hello` needs the registry catalog, so the
    /// core answers it before routing.
    pub fn handle(&self, req: &Request, protocol_errors: u64) -> Response {
        match req {
            Request::Lookup { stable } => self.lookup(*stable),
            Request::Submit { delete, insert } => self.submit(delete, insert),
            Request::Metrics => Response::Metrics(Box::new(self.metrics(protocol_errors))),
            Request::Palette => self.palette(),
            Request::Swap { path } => self.swap(path),
            Request::Flush => self.flush(),
            Request::Shutdown => Response::ShuttingDown,
            Request::Hello { .. } => Response::ServerError {
                detail: "Hello is handled by the registry, not a tenant".into(),
            },
        }
    }

    /// Answers a color lookup off the pinned current generation.
    pub fn lookup(&self, stable: u64) -> Response {
        let started = Instant::now();
        let st = self.state_snapshot();
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        // Stable ids beyond the id space are simply unknown, not a fault.
        let sid = EdgeId::try_new(stable as usize).ok();
        let outcome = match sid.and_then(|sid| st.dg.internal_id(sid)) {
            None => LookupOutcome::Unknown,
            Some(e) => {
                self.counters.lookup_hits.fetch_add(1, Ordering::Relaxed);
                let (u, v) = st.dg.graph().endpoints(e);
                match st.coloring().color(e) {
                    Some(c) => LookupOutcome::Colored {
                        color: c as u64,
                        u: u.index() as u64,
                        v: v.index() as u64,
                    },
                    None => LookupOutcome::Uncolored {
                        u: u.index() as u64,
                        v: v.index() as u64,
                    },
                }
            }
        };
        lock(&self.lookup_hist).record(started.elapsed());
        Response::Color {
            epoch: st.epoch,
            version: st.version,
            outcome,
        }
    }

    /// Validates and admits one mutation batch, or rejects it with a typed
    /// code. Admission is atomic: the first violating operation rejects the
    /// whole batch and nothing is queued.
    pub fn submit(&self, delete: &[u64], insert: &[(u32, u32)]) -> Response {
        let mut p = lock(&self.pending);
        // Checked under the pending lock so no admission can slip past a
        // swap's quiesce barrier (`swap` raises the flag, then drains).
        if self.swapping.load(Ordering::SeqCst) {
            return self.reject(
                RejectCode::SwapInProgress,
                "snapshot swap in progress".into(),
            );
        }
        if p.batches.len() >= self.config.queue_capacity {
            return self.reject(
                RejectCode::QueueFull,
                format!("queue at capacity {}", self.config.queue_capacity),
            );
        }
        let st = self.state_snapshot();
        let n = st.dg.n();

        let mut batch_deletes: HashSet<EdgeId> = HashSet::new();
        for &d in delete {
            let Ok(sid) = EdgeId::try_new(d as usize) else {
                return self.reject(
                    RejectCode::UnknownEdge,
                    format!("stable id {d} exceeds the id space"),
                );
            };
            let spoken_for = p.deletes.contains(&sid)
                || p.in_flight_deletes.contains(&sid)
                || batch_deletes.contains(&sid);
            if spoken_for || st.dg.internal_id(sid).is_none() {
                return self.reject(
                    RejectCode::UnknownEdge,
                    format!("stable id {d} is not live (or already pending deletion)"),
                );
            }
            batch_deletes.insert(sid);
        }

        let mut batch_pairs: HashSet<(usize, usize)> = HashSet::new();
        for &(u, v) in insert {
            let (u, v) = (u as usize, v as usize);
            if u >= n || v >= n {
                return self.reject(
                    RejectCode::NodeOutOfRange,
                    format!("endpoint out of range: ({u}, {v}) with n = {n}"),
                );
            }
            if u == v {
                return self.reject(RejectCode::SelfLoop, format!("self-loop at node {u}"));
            }
            let key = (u.min(v), u.max(v));
            if p.pairs.contains(&key)
                || p.in_flight_pairs.contains(&key)
                || batch_pairs.contains(&key)
            {
                return self.reject(
                    RejectCode::DuplicateEdge,
                    format!("pair ({u}, {v}) is already pending insertion"),
                );
            }
            // A live edge blocks the insert unless that edge is pending
            // deletion (deletes apply before inserts within a tick).
            let live = st
                .dg
                .graph()
                .neighbors(NodeId::new(u))
                .iter()
                .find(|nb| nb.node.index() == v);
            if let Some(nb) = live {
                let sid = st.dg.stable_id(nb.edge);
                let dying = p.deletes.contains(&sid)
                    || p.in_flight_deletes.contains(&sid)
                    || batch_deletes.contains(&sid);
                if !dying {
                    return self.reject(
                        RejectCode::DuplicateEdge,
                        format!(
                            "pair ({u}, {v}) is already live as stable id {}",
                            sid.index()
                        ),
                    );
                }
            }
            batch_pairs.insert(key);
        }

        p.deletes.extend(batch_deletes);
        p.pairs.extend(batch_pairs);
        p.batches.push(UpdateBatch {
            delete: delete.iter().map(|&d| EdgeId::new(d as usize)).collect(),
            insert: insert
                .iter()
                .map(|&(u, v)| (u as usize, v as usize))
                .collect(),
        });
        p.admitted += 1;
        let ticket = p.admitted;
        let queued = p.batches.len() as u32;
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        Response::Submitted { ticket, queued }
    }

    fn reject(&self, code: RejectCode, detail: String) -> Response {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        Response::Rejected { code, detail }
    }

    /// Applies every admitted batch as one coalesced repair. Returns `true`
    /// if a tick ran (there was pending work).
    pub fn tick(&self) -> bool {
        let _w = lock(&self.writer);
        self.tick_locked()
    }

    /// Tick body; caller holds the writer mutex.
    fn tick_locked(&self) -> bool {
        let (batch, count) = {
            let mut p = lock(&self.pending);
            if p.batches.is_empty() {
                return false;
            }
            let mut delete = Vec::new();
            let mut insert = Vec::new();
            let count = p.batches.len();
            for b in p.batches.drain(..) {
                delete.extend(b.delete);
                insert.extend(b.insert);
            }
            let deletes = std::mem::take(&mut p.deletes);
            p.in_flight_deletes.extend(deletes);
            let pairs = std::mem::take(&mut p.pairs);
            p.in_flight_pairs.extend(pairs);
            (UpdateBatch { delete, insert }, count)
        };

        let cur = self.state_snapshot();
        let mut dg = cur.dg.clone();
        let mut stab = cur.stab.clone();
        let started = Instant::now();
        let repaired = dg
            .apply(&batch)
            .map_err(|e| e.to_string())
            .and_then(|diff| {
                stab.repair(&dg, &diff, &cur.ids, &self.params)
                    .map_err(|e| e.to_string())
            });
        match repaired {
            Ok(report) => {
                // Certify (and, if anything were ever inconsistent, heal)
                // through the self-stabilization layer before publishing.
                let stabilized = stab.stabilize(&dg, &report.touched, &cur.ids, &self.params);
                let elapsed = started.elapsed();
                self.counters.ticks.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .coalesced_batches
                    .fetch_add(count as u64, Ordering::Relaxed);
                self.counters
                    .repaired_edges
                    .fetch_add(report.repaired_edges as u64, Ordering::Relaxed);
                self.counters
                    .full_recolors
                    .fetch_add(u64::from(report.full_recolor), Ordering::Relaxed);
                match stabilized {
                    Ok(srep) => {
                        self.counters.stabilizations.fetch_add(1, Ordering::Relaxed);
                        self.counters
                            .conflicts_found
                            .fetch_add(srep.conflicts_found as u64, Ordering::Relaxed);
                    }
                    Err(_) => {
                        self.counters
                            .internal_errors
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                lock(&self.repair_hist).record(elapsed);
                lock(&self.batch_log).push((cur.epoch, batch));
                let next = Arc::new(EpochState {
                    epoch: cur.epoch,
                    version: cur.version + 1,
                    dg,
                    stab,
                    ids: cur.ids.clone(),
                });
                self.publish(next, count as u64);
            }
            Err(_) => {
                // Admission control makes this unreachable; account for the
                // dropped batch so flushes still terminate and the failure
                // is visible in `internal_errors`.
                self.counters
                    .internal_errors
                    .fetch_add(1, Ordering::Relaxed);
                self.publish(cur, count as u64);
            }
        }
        true
    }

    /// Publishes `next` as the current generation and clears in-flight
    /// bookkeeping, under the pending lock so admissions never observe a
    /// half-updated (state, in-flight) pair.
    fn publish(&self, next: Arc<EpochState>, applied: u64) {
        {
            let mut p = lock(&self.pending);
            let mut st = self.state.write().unwrap_or_else(|e| e.into_inner());
            *st = next;
            p.in_flight_deletes.clear();
            p.in_flight_pairs.clear();
            p.applied += applied;
        }
        self.drained.notify_all();
    }

    /// Applies every batch admitted before this call, then reports the
    /// resulting version. Concurrent ticks count toward the target.
    pub fn flush(&self) -> Response {
        let target = lock(&self.pending).admitted;
        loop {
            {
                let p = lock(&self.pending);
                if p.applied >= target {
                    break;
                }
            }
            if !self.tick() {
                // Another writer holds the in-flight work; wait for its
                // publish instead of spinning.
                let p = lock(&self.pending);
                if p.applied >= target {
                    break;
                }
                let _ = self
                    .drained
                    .wait_timeout(p, Duration::from_millis(10))
                    .map(|(_, _)| ());
            }
        }
        let st = self.state_snapshot();
        Response::Flushed {
            epoch: st.epoch,
            version: st.version,
            ticks: self.counters.ticks.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of this tenant's counters and latency histograms.
    /// `protocol_errors` is connection-level state owned by the registry
    /// and is passed in for the report.
    pub fn metrics(&self, protocol_errors: u64) -> MetricsReport {
        let st = self.state_snapshot();
        let queue_depth = self.queue_depth() as u64;
        let c = &self.counters;
        MetricsReport {
            epoch: st.epoch,
            version: st.version,
            n: st.dg.n() as u64,
            m: st.dg.m() as u64,
            max_degree: st.dg.graph().max_degree() as u64,
            palette: st.stab.palette() as u64,
            queue_depth,
            lookups: c.lookups.load(Ordering::Relaxed),
            lookup_hits: c.lookup_hits.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            ticks: c.ticks.load(Ordering::Relaxed),
            coalesced_batches: c.coalesced_batches.load(Ordering::Relaxed),
            repaired_edges: c.repaired_edges.load(Ordering::Relaxed),
            full_recolors: c.full_recolors.load(Ordering::Relaxed),
            stabilizations: c.stabilizations.load(Ordering::Relaxed),
            conflicts_found: c.conflicts_found.load(Ordering::Relaxed),
            swaps: c.swaps.load(Ordering::Relaxed),
            swaps_rejected: c.swaps_rejected.load(Ordering::Relaxed),
            protocol_errors,
            repair: *lock(&self.repair_hist),
            lookup: *lock(&self.lookup_hist),
        }
    }

    /// Palette introspection off the pinned current generation.
    pub fn palette(&self) -> Response {
        let st = self.state_snapshot();
        Response::Palette {
            epoch: st.epoch,
            palette: st.stab.palette() as u64,
            max_degree: st.dg.graph().max_degree() as u64,
            colors_used: st.coloring().colors_used() as u64,
        }
    }

    /// Hot-swaps the served snapshot: quiesce admissions, apply what was
    /// already admitted, open + validate the new snapshot, publish it under
    /// `epoch + 1`. Any failure leaves the old generation serving. Scoped
    /// to this tenant — other graphs keep serving throughout.
    pub fn swap(&self, path: &str) -> Response {
        if self.swapping.swap(true, Ordering::SeqCst) {
            self.counters.swaps_rejected.fetch_add(1, Ordering::Relaxed);
            return Response::SwapRejected {
                detail: "another swap is in progress".into(),
            };
        }
        let resp = self.swap_quiesced(path);
        self.swapping.store(false, Ordering::SeqCst);
        resp
    }

    fn swap_quiesced(&self, path: &str) -> Response {
        let _w = lock(&self.writer);
        // Drain everything admitted before the flag went up; the flag stops
        // new admissions, so this terminates.
        while self.tick_locked() {}

        let rejected = |detail: String| {
            self.counters.swaps_rejected.fetch_add(1, Ordering::Relaxed);
            Response::SwapRejected { detail }
        };
        let loaded = match Snapshot::open(path).and_then(|s| LoadedSnapshot::load(&s)) {
            Ok(l) => l,
            Err(e) => return rejected(e.to_string()),
        };
        let coloring = loaded.coloring().cloned();
        let dg = match loaded.into_dynamic() {
            Ok(d) => d,
            Err(e) => return rejected(e.to_string()),
        };
        let ids = Arc::new(IdAssignment::scattered(dg.n(), self.config.id_seed));
        let session = session_for(&dg, coloring, &ids, &self.params, self.config.headroom);
        let (rec, _) = match session {
            Ok(s) => s,
            Err(e) => return rejected(e.to_string()),
        };
        let mut stab = SelfStabilizing::new(rec);
        if let Some(period) = self.config.full_sweep_every {
            stab = stab.with_full_sweep_every(period);
        }

        let cur = self.state_snapshot();
        let (epoch, n, m) = (cur.epoch + 1, dg.n() as u64, dg.m() as u64);
        let next = Arc::new(EpochState {
            epoch,
            version: 0,
            dg,
            stab,
            ids,
        });
        self.publish(next, 0);
        self.counters.swaps.fetch_add(1, Ordering::Relaxed);
        Response::Swapped { epoch, n, m }
    }
}

/// The shared serving core: a boot-time registry of [`Tenant`]s routed by
/// the dense `graph_id` of the v2 frame header, plus the connection-level
/// `protocol_errors` counter.
/// [`DaemonHandle`](crate::daemon::DaemonHandle) wraps it in an `Arc` and
/// drives it from connection threads; tests can drive it directly without
/// any sockets.
#[derive(Debug)]
pub struct ServerCore {
    tenants: Vec<Arc<Tenant>>,
    protocol_errors: AtomicU64,
}

impl ServerCore {
    /// Builds a single-tenant core over `graph` (named `default`).
    ///
    /// # Errors
    ///
    /// Propagates errors of the initial coloring run.
    pub fn new(graph: Graph, config: ServeConfig) -> Result<Self, SetupError> {
        Ok(Self::from_tenants(vec![Tenant::new(
            "default", graph, config,
        )?]))
    }

    /// Builds a multi-tenant core. Tenant order fixes the `graph_id`
    /// assignment: `tenants[g]` answers frames routed to graph `g`, and
    /// tenant 0 is the default graph.
    ///
    /// # Panics
    ///
    /// If `tenants` is empty — a daemon with no default graph has no
    /// in-flight cap to advertise in its handshake.
    pub fn from_tenants(tenants: Vec<Tenant>) -> Self {
        assert!(
            !tenants.is_empty(),
            "a ServerCore needs at least one tenant"
        );
        ServerCore {
            tenants: tenants.into_iter().map(Arc::new).collect(),
            protocol_errors: AtomicU64::new(0),
        }
    }

    /// The tenant registry, in `graph_id` order.
    pub fn tenants(&self) -> &[Arc<Tenant>] {
        &self.tenants
    }

    /// The tenant serving `graph_id`, if it exists.
    pub fn tenant(&self, graph_id: u32) -> Option<&Arc<Tenant>> {
        self.tenants.get(graph_id as usize)
    }

    /// The default graph (id 0), whose config sets the connection-level
    /// knobs ([`ServeConfig::max_inflight`]).
    pub fn default_tenant(&self) -> &Arc<Tenant> {
        &self.tenants[0]
    }

    /// The served-graph catalog, in `graph_id` order.
    pub fn catalog(&self) -> Vec<GraphInfo> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(id, t)| t.info(id as u32))
            .collect()
    }

    /// The handshake answer: protocol version, the in-flight cap of the
    /// default tenant's config, and the catalog.
    pub fn welcome(&self) -> Response {
        Response::Welcome {
            version: crate::wire::PROTOCOL_VERSION,
            max_inflight: self.default_tenant().config().max_inflight,
            graphs: self.catalog(),
        }
    }

    /// Counts a malformed frame/payload (called by the transport layer).
    pub fn note_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Malformed frames/payloads received, daemon-wide.
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed)
    }

    /// Internal apply/repair failures summed over every tenant (nonzero
    /// values mean a bug, never load).
    pub fn internal_errors(&self) -> u64 {
        self.tenants.iter().map(|t| t.internal_errors()).sum()
    }

    /// Routes one decoded request to the tenant serving `graph_id`.
    /// `Hello` answers the catalog regardless of the routing id; an
    /// out-of-range id answers a typed [`RejectCode::UnknownGraph`].
    pub fn handle_on(&self, graph_id: u32, req: &Request) -> Response {
        if let Request::Hello { version } = req {
            if *version != crate::wire::PROTOCOL_VERSION {
                return Response::ProtocolRejected {
                    detail: crate::error::ProtocolError::UnsupportedVersion {
                        requested: *version,
                        supported: crate::wire::PROTOCOL_VERSION,
                    }
                    .to_string(),
                };
            }
            return self.welcome();
        }
        match self.tenant(graph_id) {
            Some(t) => t.handle(req, self.protocol_errors()),
            None => Response::Rejected {
                code: RejectCode::UnknownGraph,
                detail: format!(
                    "graph id {graph_id} names no served graph ({} served)",
                    self.tenants.len()
                ),
            },
        }
    }
}

/// Builds the recoloring session for a (possibly snapshot-carried) coloring:
/// adopt it when it passes the audit, otherwise color from scratch with the
/// configured headroom.
fn session_for(
    dg: &DynamicGraph,
    coloring: Option<EdgeColoring>,
    ids: &IdAssignment,
    params: &ColoringParams,
    headroom: usize,
) -> Result<(Recoloring, bool), SetupError> {
    let budget = default_palette(dg.graph().max_degree() + headroom);
    if let Some(col) = coloring {
        // A stored coloring may use more colors than the tight budget if it
        // was maintained with its own headroom; widen the audit budget to
        // whatever it actually uses (never below ours).
        let audit_budget = budget.max(col.palette_size());
        if let Ok(rec) = Recoloring::adopt(dg, col, audit_budget) {
            return Ok((rec, true));
        }
    }
    let (rec, _) = Recoloring::with_budget(dg, ids, params, budget)?;
    Ok((rec, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgraph::generators;
    use edgecolor_verify::{check_complete, check_proper_edge_coloring};

    fn small_tenant() -> Tenant {
        let config = ServeConfig {
            tick_interval_ms: None,
            ..ServeConfig::default()
        };
        Tenant::new("default", generators::grid_torus(6, 6), config).unwrap()
    }

    #[test]
    fn lookup_hits_and_misses() {
        let tenant = small_tenant();
        match tenant.lookup(0) {
            Response::Color {
                epoch: 1,
                version: 0,
                outcome,
            } => {
                assert!(matches!(outcome, LookupOutcome::Colored { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        match tenant.lookup(1 << 40) {
            Response::Color {
                outcome: LookupOutcome::Unknown,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        let metrics = tenant.metrics(0);
        assert_eq!(metrics.lookups, 2);
        assert_eq!(metrics.lookup_hits, 1);
        // Both lookups were timed into the service-time histogram.
        assert_eq!(metrics.lookup.count(), 2);
    }

    #[test]
    fn admission_rules_reject_typed() {
        let tenant = small_tenant();
        let reject_code = |resp: Response| match resp {
            Response::Rejected { code, .. } => code,
            other => panic!("expected a reject, got {other:?}"),
        };
        // Unknown stable id.
        assert_eq!(
            reject_code(tenant.submit(&[1 << 40], &[])),
            RejectCode::UnknownEdge
        );
        // Duplicate delete across submissions.
        assert!(matches!(
            tenant.submit(&[0], &[]),
            Response::Submitted { .. }
        ));
        assert_eq!(
            reject_code(tenant.submit(&[0], &[])),
            RejectCode::UnknownEdge
        );
        // Out-of-range and self-loop inserts.
        assert_eq!(
            reject_code(tenant.submit(&[], &[(0, 999)])),
            RejectCode::NodeOutOfRange
        );
        assert_eq!(
            reject_code(tenant.submit(&[], &[(3, 3)])),
            RejectCode::SelfLoop
        );
        // Inserting the pair of a live edge (one NOT pending deletion) is a
        // duplicate. Query stable id 2's endpoints so the pair can't collide
        // with the delete of stable id 0 queued above.
        let st = tenant.state_snapshot();
        let live = st.dynamic().internal_id(EdgeId::new(2)).unwrap();
        let (lu, lv) = st.dynamic().graph().endpoints(live);
        assert_eq!(
            reject_code(tenant.submit(&[], &[(lu.index() as u32, lv.index() as u32)])),
            RejectCode::DuplicateEdge
        );
        // (0,7) is not a torus edge of the 6×6 grid torus: admitted once,
        // duplicate the second time.
        assert!(matches!(
            tenant.submit(&[], &[(0, 7)]),
            Response::Submitted { .. }
        ));
        assert_eq!(
            reject_code(tenant.submit(&[], &[(0, 7)])),
            RejectCode::DuplicateEdge
        );
        // Deleting a live edge frees its pair for reinsertion in the same
        // coalesced tick.
        let live_pair_sid = 1u64; // stable id 1 exists; find its endpoints
        let st = tenant.state_snapshot();
        let e = st
            .dynamic()
            .internal_id(EdgeId::new(live_pair_sid as usize))
            .unwrap();
        let (u, v) = st.dynamic().graph().endpoints(e);
        assert!(matches!(
            tenant.submit(&[live_pair_sid], &[(u.index() as u32, v.index() as u32)]),
            Response::Submitted { .. }
        ));
        assert!(tenant.tick());
        let st = tenant.state_snapshot();
        check_proper_edge_coloring(st.dynamic().graph(), st.coloring()).assert_ok();
        check_complete(st.dynamic().graph(), st.coloring()).assert_ok();
        assert_eq!(tenant.internal_errors(), 0);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let config = ServeConfig {
            tick_interval_ms: None,
            queue_capacity: 2,
            ..ServeConfig::default()
        };
        let tenant = Tenant::new("default", generators::grid_torus(6, 6), config).unwrap();
        assert!(matches!(
            tenant.submit(&[], &[(0, 7)]),
            Response::Submitted { .. }
        ));
        assert!(matches!(
            tenant.submit(&[], &[(1, 8)]),
            Response::Submitted { .. }
        ));
        match tenant.submit(&[], &[(2, 9)]) {
            Response::Rejected {
                code: RejectCode::QueueFull,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        // A tick drains the queue and capacity frees up.
        assert!(tenant.tick());
        assert!(matches!(
            tenant.submit(&[], &[(2, 9)]),
            Response::Submitted { .. }
        ));
        match tenant.flush() {
            Response::Flushed {
                epoch: 1,
                version: 2,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn metrics_and_introspection_track_work() {
        let tenant = small_tenant();
        assert!(matches!(
            tenant.submit(&[0, 1], &[(0, 7), (1, 8)]),
            Response::Submitted { .. }
        ));
        tenant.flush();
        let m = tenant.metrics(0);
        assert_eq!(m.epoch, 1);
        assert_eq!(m.version, 1);
        assert_eq!(m.ticks, 1);
        assert_eq!(m.coalesced_batches, 1);
        assert_eq!(m.accepted, 1);
        assert_eq!(m.repaired_edges, 2);
        assert_eq!(m.full_recolors, 0);
        assert_eq!(m.conflicts_found, 0);
        assert_eq!(m.m, 72);
        // One tick → one repair histogram sample, with ordered quantiles.
        assert_eq!(m.repair.count(), 1);
        assert!(m.repair.p50_ms() >= 0.0 && m.repair.p95_ms() >= m.repair.p50_ms());
        assert!(m.repair.p999_ms() >= m.repair.p99_ms());
        match tenant.palette() {
            Response::Palette {
                palette,
                max_degree,
                colors_used,
                ..
            } => {
                // The mutation shifted degrees; Δ stays within the diagonal
                // bound the loadgen documents.
                assert!((4..=6).contains(&max_degree));
                assert!(palette >= 2 * max_degree - 1);
                assert!(colors_used <= palette);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(tenant.batch_log().len(), 1);
    }

    #[test]
    fn registry_routes_by_graph_id_with_typed_unknown_graph() {
        let config = ServeConfig {
            tick_interval_ms: None,
            ..ServeConfig::default()
        };
        let core = ServerCore::from_tenants(vec![
            Tenant::new("alpha", generators::grid_torus(6, 6), config.clone()).unwrap(),
            Tenant::new("beta", generators::grid_torus(4, 4), config).unwrap(),
        ]);
        // Independent admission: the same non-edge pair is admitted on both.
        assert!(matches!(
            core.handle_on(
                0,
                &Request::Submit {
                    delete: vec![],
                    insert: vec![(0, 7)]
                }
            ),
            Response::Submitted { .. }
        ));
        assert!(matches!(
            core.handle_on(
                1,
                &Request::Submit {
                    delete: vec![],
                    insert: vec![(0, 6)]
                }
            ),
            Response::Submitted { .. }
        ));
        // Flushing graph 1 leaves graph 0's queue untouched.
        assert!(matches!(
            core.handle_on(1, &Request::Flush),
            Response::Flushed { version: 1, .. }
        ));
        assert_eq!(core.tenants()[0].queue_depth(), 1);
        // Out-of-range graph ids reject typed, charging no tenant.
        match core.handle_on(9, &Request::Metrics) {
            Response::Rejected {
                code: RejectCode::UnknownGraph,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(core.tenants()[0].metrics(0).rejected, 0);
        assert_eq!(core.tenants()[1].metrics(0).rejected, 0);
        // The catalog names both tenants in graph-id order.
        match core.welcome() {
            Response::Welcome {
                version, graphs, ..
            } => {
                assert_eq!(version, crate::wire::PROTOCOL_VERSION);
                assert_eq!(graphs.len(), 2);
                assert_eq!((graphs[0].id, graphs[0].name.as_str()), (0, "alpha"));
                assert_eq!((graphs[1].id, graphs[1].name.as_str()), (1, "beta"));
                assert_eq!(graphs[1].n, 16);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A Hello for a version we don't speak is a typed protocol reject.
        match core.handle_on(0, &Request::Hello { version: 99 }) {
            Response::ProtocolRejected { detail } => assert!(detail.contains("99")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn adopting_a_stored_coloring_skips_the_initial_run() {
        let g = generators::grid_torus(6, 6);
        let dg = DynamicGraph::from_graph(g);
        let ids = Arc::new(IdAssignment::scattered(dg.n(), 1));
        let params = ColoringParams::new(0.5);
        let (rec, _) = Recoloring::color_initial(&dg, &ids, &params).unwrap();
        let stored = rec.coloring().clone();
        let (adopted, was_adopted) =
            session_for(&dg, Some(stored.clone()), &ids, &params, 2).unwrap();
        assert!(was_adopted);
        assert_eq!(adopted.coloring(), &stored);
        // A corrupt coloring fails the audit and falls back to a fresh run.
        let mut corrupt = stored;
        corrupt.unset(EdgeId::new(0));
        let (fresh, was_adopted) = session_for(&dg, Some(corrupt), &ids, &params, 2).unwrap();
        assert!(!was_adopted);
        check_complete(dg.graph(), fresh.coloring()).assert_ok();
    }
}
