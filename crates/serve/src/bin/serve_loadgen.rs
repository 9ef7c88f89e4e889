//! `serve-loadgen`: replay a seeded read/write mix against a daemon.
//!
//! ```text
//! serve-loadgen --smoke
//!     Spawn an in-process daemon on a small torus, drive it, and fail
//!     unless qps is nonzero, no protocol errors occurred and the final
//!     coloring passes the checkers (the `make serve-smoke` CI gate).
//!
//! serve-loadgen --pipeline-smoke
//!     Spawn an in-process daemon serving TWO toruses, drive it with
//!     pipelined connections spread across both graphs, and fail unless
//!     every tenant's admission counts match the deterministic expectation
//!     exactly and both final colorings pass the checkers (the
//!     `make serve-pipeline-smoke` CI gate).
//!
//! serve-loadgen --addr HOST:PORT --rows R --cols C
//!               [--clients N] [--ops K] [--read-permille P] [--seed S]
//!               [--graphs G] [--inflight W]
//!     Replay against an externally started daemon whose graphs 0..G are
//!     all RxC toruses (e.g. `serve-daemon --torus RxC --torus RxC`).
//! ```

use distgraph::generators;
use distserve::loadgen::{expected_counts, run_against, summary, LoadgenConfig};
use distserve::{Client, DaemonHandle, ServeConfig, ServerCore, Tenant};
use edgecolor_verify::{check_complete, check_proper_edge_coloring};
use std::net::SocketAddr;
use std::process::ExitCode;

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        return smoke();
    }
    if args.iter().any(|a| a == "--pipeline-smoke") {
        return pipeline_smoke();
    }
    let Some(addr) = parse_flag(&args, "--addr").and_then(|a| a.parse::<SocketAddr>().ok()) else {
        eprintln!(
            "usage: serve-loadgen --smoke | --pipeline-smoke | --addr HOST:PORT --rows R --cols C \
             [--clients N] [--ops K] [--read-permille P] [--seed S] [--graphs G] [--inflight W]"
        );
        return ExitCode::FAILURE;
    };
    let dim = |flag: &str| parse_flag(&args, flag).and_then(|v| v.parse::<usize>().ok());
    let (Some(rows), Some(cols)) = (dim("--rows"), dim("--cols")) else {
        eprintln!("serve-loadgen: --rows and --cols are required (the daemon's torus dimensions)");
        return ExitCode::FAILURE;
    };
    let cfg = LoadgenConfig {
        rows,
        cols,
        clients: dim("--clients").unwrap_or(4),
        ops_per_client: dim("--ops").unwrap_or(500),
        read_permille: dim("--read-permille").unwrap_or(700) as u32,
        seed: parse_flag(&args, "--seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(42),
        graphs: dim("--graphs").unwrap_or(1),
        inflight: dim("--inflight").unwrap_or(1),
    };
    match run_against(addr, &cfg) {
        Ok(report) => {
            let metrics = Client::connect(addr)
                .ok()
                .and_then(|mut c| c.metrics().ok())
                .unwrap_or_default();
            println!("{}", summary(&report, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve-loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `make serve-smoke` gate: in-process daemon + loadgen on a small
/// torus, with hard assertions on the things that must never regress.
fn smoke() -> ExitCode {
    let (rows, cols) = (30, 30);
    let config = ServeConfig::default();
    let core = match ServerCore::new(generators::grid_torus(rows, cols), config) {
        Ok(core) => core,
        Err(e) => {
            eprintln!("serve-smoke: boot failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let daemon = match DaemonHandle::spawn(core) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("serve-smoke: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = LoadgenConfig {
        rows,
        cols,
        clients: 4,
        ops_per_client: 300,
        ..LoadgenConfig::default()
    };
    let report = match run_against(daemon.addr(), &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve-smoke: loadgen failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(daemon.addr()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve-smoke: connect failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if client.flush().is_err() {
        eprintln!("serve-smoke: flush failed");
        return ExitCode::FAILURE;
    }
    let metrics = match client.metrics() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("serve-smoke: metrics failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", summary(&report, &metrics));

    let core = daemon.core().clone();
    let state = core.default_tenant().state_snapshot();
    let mut failures = Vec::new();
    if report.qps <= 0.0 {
        failures.push("qps is zero".to_string());
    }
    if metrics.protocol_errors != 0 {
        failures.push(format!("{} protocol errors", metrics.protocol_errors));
    }
    if report.errors != 0 {
        failures.push(format!("{} unexpected responses", report.errors));
    }
    if core.internal_errors() != 0 {
        failures.push(format!("{} internal errors", core.internal_errors()));
    }
    if report.rejected != cfg.clients as u64 {
        failures.push(format!(
            "expected {} deliberate duplicate rejects, saw {}",
            cfg.clients, report.rejected
        ));
    }
    let graph = state.dynamic().graph();
    if !check_proper_edge_coloring(graph, state.coloring()).is_ok()
        || !check_complete(graph, state.coloring()).is_ok()
    {
        failures.push("final coloring fails the checkers".to_string());
    }
    daemon.shutdown();
    finish("serve-smoke", failures)
}

/// The `make serve-pipeline-smoke` gate: one daemon, two torus tenants,
/// pipelined connections spread across both — every tenant's admission
/// counters must match the deterministic expectation *exactly*, and both
/// final colorings must pass the checkers.
fn pipeline_smoke() -> ExitCode {
    let (rows, cols) = (24, 24);
    let config = ServeConfig::default();
    let tenant = |k: usize| {
        Tenant::new(
            format!("t{k}"),
            generators::grid_torus(rows, cols),
            config.clone(),
        )
    };
    let core = match tenant(0).and_then(|a| Ok(ServerCore::from_tenants(vec![a, tenant(1)?]))) {
        Ok(core) => core,
        Err(e) => {
            eprintln!("serve-pipeline-smoke: boot failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let daemon = match DaemonHandle::spawn(core) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("serve-pipeline-smoke: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = LoadgenConfig {
        rows,
        cols,
        clients: 6,
        ops_per_client: 250,
        graphs: 2,
        inflight: 8,
        ..LoadgenConfig::default()
    };
    let report = match run_against(daemon.addr(), &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve-pipeline-smoke: loadgen failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failures = Vec::new();
    let mut client = match Client::connect(daemon.addr()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve-pipeline-smoke: connect failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected = expected_counts(&cfg);
    for (gid, &(accepted, dup_rejects, inserts)) in expected.iter().enumerate() {
        client.set_graph(gid as u32);
        if client.flush().is_err() {
            failures.push(format!("graph {gid}: flush failed"));
            continue;
        }
        let metrics = match client.metrics() {
            Ok(m) => m,
            Err(e) => {
                failures.push(format!("graph {gid}: metrics failed: {e}"));
                continue;
            }
        };
        println!("graph {gid}: {}", summary(&report, &metrics));
        if metrics.accepted != accepted {
            failures.push(format!(
                "graph {gid}: expected exactly {accepted} admissions, saw {}",
                metrics.accepted
            ));
        }
        // Server-side `rejected` also counts host-dependent backpressure
        // rejects, so only its floor is deterministic; the exact duplicate
        // total is asserted client-side below.
        if metrics.rejected < dup_rejects {
            failures.push(format!(
                "graph {gid}: expected at least {dup_rejects} duplicate rejects, saw {}",
                metrics.rejected
            ));
        }
        if metrics.repaired_edges != inserts {
            failures.push(format!(
                "graph {gid}: expected exactly {inserts} repaired edges, saw {}",
                metrics.repaired_edges
            ));
        }
        if metrics.full_recolors != 0 {
            failures.push(format!(
                "graph {gid}: {} unexpected full recolors",
                metrics.full_recolors
            ));
        }
        let tenant = &daemon.core().tenants()[gid];
        let state = tenant.state_snapshot();
        let graph = state.dynamic().graph();
        if !check_proper_edge_coloring(graph, state.coloring()).is_ok()
            || !check_complete(graph, state.coloring()).is_ok()
        {
            failures.push(format!("graph {gid}: final coloring fails the checkers"));
        }
    }
    if report.errors != 0 {
        failures.push(format!("{} unexpected responses", report.errors));
    }
    if daemon.core().internal_errors() != 0 {
        failures.push(format!(
            "{} internal errors",
            daemon.core().internal_errors()
        ));
    }
    let expected_rejects: u64 = expected.iter().map(|e| e.1).sum();
    if report.rejected != expected_rejects {
        failures.push(format!(
            "client side: expected {expected_rejects} duplicate rejects, saw {}",
            report.rejected
        ));
    }
    daemon.shutdown();
    finish("serve-pipeline-smoke", failures)
}

fn finish(gate: &str, failures: Vec<String>) -> ExitCode {
    if failures.is_empty() {
        println!("{gate}: OK");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("{gate}: FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
