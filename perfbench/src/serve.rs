//! The serve workloads: the daemon booted from a torus snapshot under two
//! client connections, one writing and one looking up.
//!
//! * The writer connection sends single-edge writes open loop at a fixed
//!   rate, each timed from when it was due, and polls `Metrics` until the
//!   tenant's `coalesced_batches` reaches the write's admission ticket:
//!   that is the write's commit. Refusals (`QueueFull`, `SwapInProgress`)
//!   are failures, never retried.
//! * The lookup connection is open loop at a fixed rate (timed from when
//!   each lookup was due) or closed loop with a fixed in-flight window
//!   (timed from each send). Every answer is checked against the boot
//!   coloring: looked-up edges are never deleted, and a surviving edge
//!   never changes color.
//!
//! The run ends with a flush and the correctness gate (see [`run`]).

use crate::replay::{self, Phases};
use crate::report::Report;
use crate::schedule::{self, Write};
use crate::stats::{self, median, median_of_sorted, percentile};
use crate::{alloc, peak_rss_mb};
use distserve::{
    Client, DaemonHandle, LookupOutcome, MetricsReport, PipelinedClient, RejectCode, Request,
    Response, ServeConfig, ServerCore, Tenant,
};
use diststore::{LoadedSnapshot, Snapshot};
use edgecolor::default_palette;
use edgecolor_verify::{check_complete, check_palette_size, check_proper_edge_coloring};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How the lookup connection drives load.
#[derive(Debug, Clone, Copy)]
pub enum Lookups {
    /// Open loop: one lookup due every `1/rate` seconds.
    Open {
        /// Lookups per second.
        rate: f64,
    },
    /// Closed loop: `window` lookups always in flight.
    Closed {
        /// Requests in flight.
        window: usize,
    },
}

/// One serve workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Torus rows.
    pub rows: usize,
    /// Torus columns.
    pub cols: usize,
    /// Writes per second.
    pub write_rate: f64,
    /// The lookup connection's load.
    pub lookups: Lookups,
    /// Boots timed for `setup_s`; the last one serves the load.
    pub boots: usize,
    /// Seconds both connections run their load, untimed, before the
    /// measured window opens: the first ticks after a boot grow the heap
    /// and run slower than the rest.
    pub warmup_s: f64,
}

/// Interval between the writer's commit polls. Answering `Metrics` scans
/// every node for the maximum degree, so on the 10⁶-edge torus polling
/// every millisecond kept a core busy beside the tick it waits on; 10 ms
/// is about 1% of a commit there.
const POLL: Duration = Duration::from_millis(10);
/// How long the writer waits for outstanding commits after its last write.
const DRAIN: Duration = Duration::from_secs(30);
/// Closed-loop lookups per second the sample buffer is reserved for.
const CLOSED_LOOP_MAX_RATE: f64 = 200_000.0;
/// Seed offset of the in-process probes' inputs.
const PROBE_SEED: u64 = 0x9b0be;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Set-up phase times of one boot.
struct BootTimes {
    total_s: f64,
    open_ms: f64,
    load_ms: f64,
    into_dynamic_ms: f64,
    file_bytes: usize,
}

/// Boots the daemon from the snapshot at `path` the way
/// `Tenant::from_snapshot_path` does, timing each store call, and waits
/// for the first answered lookup.
fn boot(path: &Path, config: &ServeConfig) -> Result<(DaemonHandle, BootTimes), String> {
    let t0 = Instant::now();
    let snap = Snapshot::open(path).map_err(err)?;
    let open_ms = ms(t0.elapsed());
    let file_bytes = snap.file_len();
    let t = Instant::now();
    let loaded = LoadedSnapshot::load(&snap).map_err(err)?;
    drop(snap);
    let load_ms = ms(t.elapsed());
    let coloring = loaded.coloring().cloned();
    let t = Instant::now();
    let dg = loaded.into_dynamic().map_err(err)?;
    let into_dynamic_ms = ms(t.elapsed());
    let tenant = Tenant::from_dynamic("torus", dg, coloring, config.clone()).map_err(err)?;
    let daemon = DaemonHandle::spawn(ServerCore::from_tenants(vec![tenant])).map_err(err)?;
    let (outcome, _, _) = Client::connect(daemon.addr())
        .and_then(|mut c| c.lookup(1))
        .map_err(err)?;
    if !matches!(outcome, LookupOutcome::Colored { .. }) {
        return Err(format!("first lookup answered {outcome:?}"));
    }
    let times = BootTimes {
        total_s: t0.elapsed().as_secs_f64(),
        open_ms,
        load_ms,
        into_dynamic_ms,
        file_bytes,
    };
    Ok((daemon, times))
}

/// When the load starts, when the measured window opens and when it ends.
#[derive(Debug, Clone, Copy)]
struct Window {
    t0: Instant,
    open: Instant,
    end: Instant,
}

impl Window {
    /// Starts the load now: `warmup_s` untimed, then `seconds` measured.
    fn start(warmup_s: f64, seconds: f64) -> Window {
        let t0 = Instant::now();
        let open = t0 + Duration::from_secs_f64(warmup_s);
        Window {
            t0,
            open,
            end: open + Duration::from_secs_f64(seconds),
        }
    }
}

/// What the writer connection observed.
#[derive(Debug, Default)]
struct WriterOut {
    sent: u64,
    refused: u64,
    errors: u64,
    uncommitted: u64,
    /// Due → commit observed, ms, per committed write due in the window,
    /// in due order.
    commits: Vec<f64>,
    /// How late each write was sent, ms.
    late: Vec<f64>,
    /// The tenant's metrics after the closing flush.
    last: Option<MetricsReport>,
}

/// What the lookup connection observed.
#[derive(Debug, Default)]
struct ReaderOut {
    sent: u64,
    wrong: u64,
    /// Latency of each answered lookup sent in the window, ns.
    latency_ns: Vec<u32>,
    /// Lookups answered inside the window.
    in_window: u64,
    late: Vec<f64>,
}

fn write_request(w: Write) -> Request {
    match w {
        Write::Delete(id) => Request::Submit {
            delete: vec![id],
            insert: vec![],
        },
        Write::Insert(u, v) => Request::Submit {
            delete: vec![],
            insert: vec![(u, v)],
        },
    }
}

/// Sleeps until `at`, if it is in the future.
fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// The writer connection: open-loop writes, commit polling, then a flush.
fn writer(
    addr: SocketAddr,
    writes: &[Write],
    rate: f64,
    (warmup_s, seconds): (f64, f64),
    start: &Barrier,
) -> Result<WriterOut, String> {
    let mut conn = PipelinedClient::connect(addr).map_err(err)?;
    let mut out = WriterOut::default();
    start.wait();
    let win = Window::start(warmup_s, seconds);
    let t0 = win.t0;
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let mut next = 0usize;
    let mut inflight: HashMap<u64, usize> = HashMap::new();
    let mut poll: Option<u64> = None;
    let mut next_poll = t0;
    // Admitted writes not yet seen applied: (ticket, due), ticket order.
    let mut waiting: VecDeque<(u64, Instant)> = VecDeque::new();
    loop {
        let now = Instant::now();
        if next < writes.len() && now >= due(next) {
            out.late.push(ms(now - due(next)));
            let t = conn.send(0, &write_request(writes[next])).map_err(err)?;
            inflight.insert(t.id(), next);
            out.sent += 1;
            next += 1;
            continue;
        }
        if !waiting.is_empty() && poll.is_none() && now >= next_poll {
            poll = Some(conn.send(0, &Request::Metrics).map_err(err)?.id());
            continue;
        }
        if !inflight.is_empty() || poll.is_some() {
            let (id, resp) = conn.recv_any().map_err(err)?;
            let now = Instant::now();
            if poll == Some(id) {
                poll = None;
                next_poll = now + POLL;
                let Response::Metrics(m) = resp else {
                    out.errors += 1;
                    continue;
                };
                while waiting
                    .front()
                    .is_some_and(|&(ticket, _)| ticket <= m.coalesced_batches)
                {
                    let (_, due_at) = waiting.pop_front().expect("front checked");
                    if due_at >= win.open {
                        out.commits.push(ms(now - due_at));
                    }
                }
            } else if let Some(i) = inflight.remove(&id) {
                match resp {
                    Response::Submitted { ticket, .. } => waiting.push_back((ticket, due(i))),
                    Response::Rejected {
                        code: RejectCode::QueueFull | RejectCode::SwapInProgress,
                        ..
                    } => out.refused += 1,
                    _ => out.errors += 1,
                }
            } else {
                out.errors += 1;
            }
            continue;
        }
        if next >= writes.len() {
            if waiting.is_empty() {
                break;
            }
            if now >= win.end + DRAIN {
                out.uncommitted = waiting.len() as u64;
                break;
            }
        }
        let mut wake = if next < writes.len() {
            due(next)
        } else {
            now + POLL
        };
        if !waiting.is_empty() {
            wake = wake.min(next_poll);
        }
        sleep_until(wake);
    }
    // The closing flush, then the tenant's final counters.
    let t = conn.send(0, &Request::Flush).map_err(err)?;
    if !matches!(conn.recv_any().map_err(err)?, (id, Response::Flushed { .. }) if id == t.id()) {
        return Err("the closing flush was not answered".into());
    }
    let t = conn.send(0, &Request::Metrics).map_err(err)?;
    match conn.recv_any().map_err(err)? {
        (id, Response::Metrics(m)) if id == t.id() => out.last = Some(*m),
        other => return Err(format!("closing metrics answered {other:?}")),
    }
    Ok(out)
}

/// `true` when `resp` is the boot coloring's answer for stable id `sid`.
fn lookup_ok(resp: &Response, expected: &[u8], sid: u64) -> bool {
    matches!(resp, Response::Color {
        outcome: LookupOutcome::Colored { color, .. }, ..
    } if u64::from(expected[sid as usize]) == *color)
}

/// The lookup connection.
fn reader(
    addr: SocketAddr,
    lookups: Lookups,
    seed: u64,
    (warmup_s, seconds): (f64, f64),
    expected: &[u8],
    start: &Barrier,
) -> Result<ReaderOut, String> {
    let m0 = expected.len() as u64;
    let mut conn = PipelinedClient::connect(addr).map_err(err)?;
    let mut out = ReaderOut::default();
    // Reserved up front so the sample buffer never regrows: untouched
    // capacity costs no resident memory, a regrowth would jump it.
    let expected_samples = match lookups {
        Lookups::Open { rate } => rate * seconds,
        Lookups::Closed { .. } => CLOSED_LOOP_MAX_RATE * seconds,
    };
    out.latency_ns.reserve(expected_samples as usize + 1);
    start.wait();
    let win = Window::start(warmup_s, seconds);
    // Request id → (timing origin, stable id).
    let mut inflight: HashMap<u64, (Instant, u64)> = HashMap::new();
    let mut j = 0u64;
    let mut send = |conn: &mut PipelinedClient,
                    inflight: &mut HashMap<u64, (Instant, u64)>,
                    origin: Instant|
     -> Result<(), String> {
        let sid = schedule::lookup_id(seed, j, m0);
        j += 1;
        let t = conn
            .send(0, &Request::Lookup { stable: sid })
            .map_err(err)?;
        inflight.insert(t.id(), (origin, sid));
        Ok(())
    };
    let receive = |conn: &mut PipelinedClient,
                   inflight: &mut HashMap<u64, (Instant, u64)>,
                   out: &mut ReaderOut|
     -> Result<(), String> {
        let (id, resp) = conn.recv_any().map_err(err)?;
        let now = Instant::now();
        let (origin, sid) = inflight.remove(&id).ok_or("answer to no lookup")?;
        if origin >= win.open {
            let ns = u32::try_from((now - origin).as_nanos()).unwrap_or(u32::MAX);
            out.latency_ns.push(ns);
            out.in_window += u64::from(now <= win.end);
        }
        out.wrong += u64::from(!lookup_ok(&resp, expected, sid));
        Ok(())
    };
    match lookups {
        Lookups::Open { rate } => {
            let count = (rate * (warmup_s + seconds)) as u64;
            let due = |k: u64| win.t0 + Duration::from_secs_f64(k as f64 / rate);
            let mut next = 0u64;
            while next < count || !inflight.is_empty() {
                let now = Instant::now();
                if next < count && now >= due(next) {
                    out.late.push(ms(now - due(next)));
                    send(&mut conn, &mut inflight, due(next))?;
                    out.sent += 1;
                    next += 1;
                } else if !inflight.is_empty() {
                    receive(&mut conn, &mut inflight, &mut out)?;
                } else {
                    sleep_until(due(next));
                }
            }
        }
        Lookups::Closed { window } => {
            for _ in 0..window {
                send(&mut conn, &mut inflight, Instant::now())?;
                out.sent += 1;
            }
            while !inflight.is_empty() {
                receive(&mut conn, &mut inflight, &mut out)?;
                if Instant::now() < win.end {
                    send(&mut conn, &mut inflight, Instant::now())?;
                    out.sent += 1;
                }
            }
        }
    }
    Ok(out)
}

/// Runs the workload for `seconds` and returns its report.
///
/// The correctness gate, after the closing flush: the served coloring is
/// proper, complete and within the palette budget; it is bit-identical to
/// a replay of the tenant's batch log from the boot snapshot; the daemon
/// counted no internal or protocol errors, no full recolor and no
/// stabilization conflict; every admitted write was applied; every lookup
/// answered the boot color of its edge.
///
/// # Errors
///
/// If the daemon cannot boot or a connection fails: the run measured
/// nothing.
pub fn run(
    spec: &ServeSpec,
    path: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let mut r = Report::default();
    let config = ServeConfig::default();
    let m0 = 2 * spec.rows * spec.cols;

    // The first boot serves the load. The other boots `setup_s` takes its
    // median over run after the window, so their freed memory is not in
    // the heap the measured ticks allocate from.
    let (daemon, first_boot) = boot(path, &config)?;
    let mut boots = vec![first_boot];

    let core = daemon.core().clone();
    let tenant = core.default_tenant().clone();
    let expected: Vec<u8> = {
        let st = tenant.state_snapshot();
        (0..m0)
            .map(|sid| {
                let e = st.dynamic().internal_id(distgraph::EdgeId::new(sid));
                e.and_then(|e| st.coloring().color(e))
                    .map_or(u8::MAX, |c| c as u8)
            })
            .collect()
    };

    // The measured window: two connections on two client threads.
    let writes = schedule::writes(
        spec.rows,
        spec.cols,
        0,
        2,
        seed,
        (spec.write_rate * (spec.warmup_s + seconds)) as usize,
    );
    let start = Barrier::new(2);
    let minflt0 = proc_minflt();
    let span = (spec.warmup_s, seconds);
    let (w, rd) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(daemon.addr(), &writes, spec.write_rate, span, &start));
        let rd = s.spawn(|| reader(daemon.addr(), spec.lookups, seed, span, &expected, &start));
        (
            w.join().expect("writer thread panicked"),
            rd.join().expect("reader thread panicked"),
        )
    });
    let peak = peak_rss_mb()?;
    daemon.shutdown();
    r.notes.push(format!(
        "warm-up and window: {} minor page faults",
        proc_minflt().saturating_sub(minflt0)
    ));
    let (w, rd) = (w?, rd?);
    let last = w.last.expect("the writer reads the closing metrics");

    // Client-side numbers.
    r.set("peak_rss_mb", peak);
    r.attempted = w.sent + rd.sent;
    r.failed = w.refused + w.errors + w.uncommitted + rd.wrong;
    r.set("failed_share", r.failed as f64 / r.attempted.max(1) as f64);
    r.set("loadgen.attempted", r.attempted as f64);
    r.set("loadgen.refused", w.refused as f64);
    let late: Vec<f64> = w.late.iter().chain(&rd.late).copied().collect();
    if !late.is_empty() {
        r.set(
            "loadgen.late_p99_ms",
            percentile(&stats::sorted(&late), 99.0),
        );
    }
    let lookup_us: Vec<f64> = rd.latency_ns.iter().map(|&n| f64::from(n) / 1e3).collect();
    let lookup_us = stats::sorted(&lookup_us);
    let commits = stats::sorted(&w.commits);
    if !lookup_us.is_empty() {
        let tail = stats::tail(&lookup_us);
        r.set("lookup_p50_us", median_of_sorted(&lookup_us));
        r.set("lookup_tail_us", tail.value);
        r.set("lookup_samples", lookup_us.len() as f64);
        r.set("lookup_ops_s", rd.in_window as f64 / seconds);
        r.notes.push(format!(
            "lookup tail is p{} of {} samples",
            tail.percentile, tail.samples
        ));
    }
    if !commits.is_empty() {
        let tail = stats::tail(&commits);
        r.set("commit_p50_ms", median_of_sorted(&commits));
        r.set("commit_tail_ms", tail.value);
        r.set("commit_samples", commits.len() as f64);
        r.notes.push(format!(
            "commit tail is p{} of {} samples",
            tail.percentile, tail.samples
        ));
    }
    // The end-to-end op is the lookup round trip. On a shared 2-vCPU host,
    // commit latency on the 10^6-edge torus (ticks that clone and rebuild
    // hundreds of MB) moved by up to 2x between runs minutes apart, past
    // any bound, so it is reported per layer.
    let op_ms: Vec<f64> = lookup_us.iter().map(|us| us / 1e3).collect();
    if !op_ms.is_empty() {
        r.set("op_p50_ms", median_of_sorted(&op_ms));
        r.set("op_tail_ms", stats::tail(&op_ms).value);
        r.set("ops_s", rd.in_window as f64 / seconds);
        if trace {
            r.set("traced.op_p50_ms", median_of_sorted(&op_ms));
        }
    }
    r.set(
        "serve.state.batches_per_tick",
        last.coalesced_batches as f64 / last.ticks.max(1) as f64,
    );

    // The correctness gate.
    r.check(core.internal_errors() == 0, || {
        format!("{} internal errors", core.internal_errors())
    });
    r.check(core.protocol_errors() == 0, || {
        format!("{} protocol errors", core.protocol_errors())
    });
    r.check(last.full_recolors == 0, || {
        format!("{} full recolors", last.full_recolors)
    });
    r.check(last.conflicts_found == 0, || {
        format!("{} stabilization conflicts", last.conflicts_found)
    });
    r.check(last.coalesced_batches == last.accepted, || {
        format!(
            "{} of {} admitted writes applied after the flush",
            last.coalesced_batches, last.accepted
        )
    });
    r.check(rd.wrong == 0, || {
        format!("{} wrong lookup answers", rd.wrong)
    });
    let st = tenant.state_snapshot();
    let log = tenant.batch_log();
    let (graph, coloring) = (st.dynamic().graph(), st.coloring());
    let palette = st.stabilizer().palette();
    r.check(check_proper_edge_coloring(graph, coloring).is_ok(), || {
        "the served coloring is not proper".into()
    });
    r.check(check_complete(graph, coloring).is_ok(), || {
        "the served coloring is not complete".into()
    });
    r.check(
        check_palette_size(coloring, palette).is_ok()
            && palette == default_palette(4 + config.headroom),
        || format!("palette {palette} breaks the budget"),
    );
    let rp = replay::replay(
        path,
        &log,
        config.headroom,
        st.ids(),
        tenant.params(),
        trace,
    )?;
    r.check(
        rp.stab.coloring() == coloring
            && rp.dg.stable_table() == st.dynamic().stable_table()
            && rp.dg.next_stable_id() == st.dynamic().next_stable_id(),
        || "the served state differs from the batch-log replay".into(),
    );
    drop(rp.dg);
    drop(rp.stab);
    let t = rp.totals;
    r.check(t.full_recolors == 0 && t.conflicts == 0, || {
        "the replay recolored from scratch or found conflicts".into()
    });
    r.set("core.recolor.dirty_edges", t.dirty_edges as f64);
    r.set("core.recolor.rounds", t.rounds as f64);
    r.set("core.recolor.messages", t.messages as f64);
    r.set("core.recolor.full_recolors", t.full_recolors as f64);
    r.set("core.stabilize.conflicts", t.conflicts as f64);
    r.set("sim.network.messages", t.messages as f64);
    r.set("sim.network.total_bits", t.total_bits as f64);
    r.set("core.recolor.adopt_ms", rp.adopt_ms);

    // The remaining set-up boots, now that the replay's state is freed.
    for _ in 1..spec.boots {
        let (extra, times) = boot(path, &config)?;
        extra.shutdown();
        boots.push(times);
    }
    let boot_median = |f: fn(&BootTimes) -> f64| median(&boots.iter().map(f).collect::<Vec<_>>());
    r.set("setup_s", boot_median(|b| b.total_s));
    r.set("store.open_ms", boot_median(|b| b.open_ms));
    r.set("store.load_ms", boot_median(|b| b.load_ms));
    r.set("store.into_dynamic_ms", boot_median(|b| b.into_dynamic_ms));
    r.set("store.file_mb", boots[0].file_bytes as f64 / 1e6);

    if let Some(ph) = rp.phases {
        probe_tenant(&mut r, &tenant, spec, seed);
        drop((core, tenant));
        report_phases(&mut r, &ph);
        let replayed = replay_ticks(path, &log, &config, &mut r)?;
        r.check(replayed == *coloring, || {
            "the tenant replay differs from the served state".into()
        });
        if let (Some(lookup), Some(state)) =
            (r.get("lookup_p50_us"), r.get("serve.state.lookup_us"))
        {
            r.set("serve.transport_us", lookup - state);
        }
    }
    Ok(r)
}

/// Minor page faults of this process so far (`/proc/self/stat`).
fn proc_minflt() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let after_name = s.rsplit_once(')')?.1;
            after_name.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Times in-process `Tenant::lookup` and `Tenant::submit` on the served
/// tenant, after the gate. The submits come from writer slot 1, which the
/// measured writer (slot 0) never collides with.
fn probe_tenant(r: &mut Report, tenant: &Tenant, spec: &ServeSpec, seed: u64) {
    let m0 = (2 * spec.rows * spec.cols) as u64;
    let mut per_lookup = Vec::new();
    for batch in 0..200u64 {
        let t = Instant::now();
        for j in 0..100 {
            let sid = schedule::lookup_id(seed ^ PROBE_SEED, batch * 100 + j, m0);
            std::hint::black_box(tenant.lookup(sid));
        }
        per_lookup.push(t.elapsed().as_secs_f64() * 1e6 / 100.0);
    }
    r.set("serve.state.lookup_us", median(&per_lookup));

    let probe = schedule::writes(spec.rows, spec.cols, 1, 2, seed, 48);
    let mut per_submit = Vec::new();
    for w in probe {
        let (delete, insert) = match w {
            Write::Delete(id) => (vec![id], vec![]),
            Write::Insert(u, v) => (vec![], vec![(u, v)]),
        };
        let t = Instant::now();
        let resp = tenant.submit(&delete, &insert);
        per_submit.push(t.elapsed().as_secs_f64() * 1e6);
        r.check(matches!(resp, Response::Submitted { .. }), || {
            format!("probe submit answered {resp:?}")
        });
    }
    r.set("serve.state.submit_us", median(&per_submit));
}

fn report_phases(r: &mut Report, ph: &Phases) {
    for (name, value) in ph.medians() {
        r.set(name, value);
    }
    if ph.list_rounds > 0 {
        let rounds = ph.list_rounds as f64;
        r.set("sim.network.round_ms", ph.rounds_ms / rounds);
        r.set(
            "sim.network.allocs_per_round",
            ph.rounds_allocs.allocs as f64 / rounds,
        );
        r.set(
            "sim.network.alloc_mb_per_round",
            ph.rounds_allocs.bytes as f64 / 1e6 / rounds,
        );
        r.set(
            "sim.ledger.fallback_share",
            ph.fallback_rounds as f64 / rounds,
        );
    }
    r.set(
        "core.list_coloring.outer_iterations",
        ph.outer_iterations as f64,
    );
    r.set("core.list_coloring.solver_calls", ph.solver_calls as f64);
    for (stage, rounds) in &ph.stage_rounds {
        r.set(&format!("sim.ledger.rounds.{stage}"), *rounds as f64);
    }
}

/// Replays the batch log through a fresh tenant booted from the same
/// snapshot, submitting each logged batch and timing `Tenant::tick` with
/// allocations counted. Returns the replayed coloring.
fn replay_ticks(
    path: &Path,
    log: &[(u64, distgraph::UpdateBatch)],
    config: &ServeConfig,
    r: &mut Report,
) -> Result<distgraph::EdgeColoring, String> {
    let config = ServeConfig {
        tick_interval_ms: None,
        ..config.clone()
    };
    let tenant = Tenant::from_snapshot_path("replay", path, config).map_err(err)?;
    let mut tick_ms = Vec::with_capacity(log.len());
    let mut allocs = Vec::with_capacity(log.len());
    for (_, batch) in log {
        let delete: Vec<u64> = batch.delete.iter().map(|e| e.index() as u64).collect();
        let insert: Vec<(u32, u32)> = batch
            .insert
            .iter()
            .map(|&(u, v)| (u as u32, v as u32))
            .collect();
        let resp = tenant.submit(&delete, &insert);
        r.check(matches!(resp, Response::Submitted { .. }), || {
            format!("a logged batch was refused on replay: {resp:?}")
        });
        let t = Instant::now();
        let (ran, counts) = alloc::counted(|| tenant.tick());
        tick_ms.push(ms(t.elapsed()));
        allocs.push(counts.allocs as f64);
        r.check(ran, || "a replayed tick found no work".into());
    }
    if !tick_ms.is_empty() {
        r.set("serve.state.tick_ms", median(&tick_ms));
        r.set("serve.tick.allocs", median(&allocs));
    }
    Ok(tenant.state_snapshot().coloring().clone())
}
