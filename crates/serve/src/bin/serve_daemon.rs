//! `serve-daemon`: boot a serving daemon from snapshot files and/or
//! generated toruses and print the bound address.
//!
//! ```text
//! serve-daemon --snapshot PATH          # boot from a diststore snapshot
//! serve-daemon --torus ROWSxCOLS        # boot from a generated grid torus
//! ```
//!
//! Both flags are repeatable; each occurrence adds one served graph, in
//! order, so the first becomes graph 0 (the default tenant).
//! Torus tenants are named `torus-ROWSxCOLS-K` (`K` = position among the
//! tenants), snapshot tenants after their file stem.
//!
//! The process serves until a client sends the `Shutdown` request.

use distgraph::generators;
use distserve::{DaemonHandle, ServeConfig, ServerCore, Tenant};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: serve-daemon (--snapshot PATH | --torus ROWSxCOLS)...");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = ServeConfig::default();
    let mut tenants = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--snapshot" => {
                match Tenant::from_snapshot_path(
                    snapshot_name(value, tenants.len()),
                    value,
                    config.clone(),
                ) {
                    Ok(t) => tenants.push(t),
                    Err(e) => {
                        eprintln!("serve-daemon: cannot boot from {value}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--torus" => {
                let Some((rows, cols)) = value
                    .split_once('x')
                    .and_then(|(r, c)| Some((r.parse::<usize>().ok()?, c.parse::<usize>().ok()?)))
                else {
                    return usage();
                };
                if rows < 3 || cols < 3 {
                    eprintln!("serve-daemon: torus dimensions must be at least 3x3");
                    return ExitCode::FAILURE;
                }
                let name = format!("torus-{rows}x{cols}-{}", tenants.len());
                match Tenant::new(name, generators::grid_torus(rows, cols), config.clone()) {
                    Ok(t) => tenants.push(t),
                    Err(e) => {
                        eprintln!("serve-daemon: initial coloring failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            _ => return usage(),
        }
    }
    if tenants.is_empty() {
        return usage();
    }
    let core = ServerCore::from_tenants(tenants);

    let daemon = match DaemonHandle::spawn(core) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("serve-daemon: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("serve-daemon listening on {}", daemon.addr());
    for (gid, tenant) in daemon.core().tenants().iter().enumerate() {
        let info = tenant.info(gid as u32);
        println!("  graph {gid}: {} (n={}, m={})", info.name, info.n, info.m);
    }

    // Serve until a Shutdown request flips the running flag; the handle's
    // threads do all the work, so this thread just waits for them.
    daemon.wait();
    ExitCode::SUCCESS
}

fn snapshot_name(path: &str, position: usize) -> String {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .map(str::to_owned)
        .unwrap_or_else(|| format!("snapshot-{position}"))
}
