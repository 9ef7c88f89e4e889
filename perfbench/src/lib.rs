//! The repository's performance benchmark: three workloads over the
//! serving daemon and the Theorem 1.1 coloring path, each reporting
//! client-observed end-to-end metrics and, in a traced run, per-layer
//! metrics timed around calls into each layer's public functions.
//!
//! `perfbench/README.md` documents every workload and metric.

pub mod alloc;
pub mod color;
pub mod replay;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod stats;

use distgraph::{generators, DynamicGraph};
use distsim::IdAssignment;
use diststore::SnapshotSource;
use edgecolor::{ColoringParams, Recoloring};
use std::path::{Path, PathBuf};

/// A named workload.
#[derive(Debug, Clone)]
pub enum Workload {
    /// The daemon under client load.
    Serve(serve::ServeSpec),
    /// `color_edges_local` on a random regular graph.
    Color(color::ColorSpec),
}

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "serve_churn_1m" => Workload::Serve(serve::ServeSpec {
            rows: 1000,
            cols: 500,
            write_rate: 25.0,
            lookups: serve::Lookups::Open { rate: 2000.0 },
            boots: 3,
            warmup_s: 5.0,
        }),
        "serve_reads_40k" => Workload::Serve(serve::ServeSpec {
            rows: 200,
            cols: 100,
            write_rate: 10.0,
            lookups: serve::Lookups::Closed { window: 4 },
            boots: 9,
            warmup_s: 2.0,
        }),
        "color_rr16" => Workload::Color(color::ColorSpec { n: 65_536, d: 16 }),
        _ => return None,
    })
}

impl Workload {
    /// The snapshot file the workload boots from, under `data_dir`. The
    /// torus snapshots do not depend on the seed and are kept between runs.
    pub fn snapshot_path(&self, data_dir: &Path) -> PathBuf {
        match self {
            Workload::Serve(s) => data_dir.join(format!("torus-{}x{}.snap", s.rows, s.cols)),
            Workload::Color(c) => data_dir.join(format!("rr-{}-{}.snap", c.n, c.d)),
        }
    }

    /// `true` when a snapshot already at the path can be reused.
    pub fn snapshot_reusable(&self) -> bool {
        matches!(self, Workload::Serve(_))
    }

    /// Builds the workload's input and writes it as a snapshot to `out`:
    /// the torus with the coloring the daemon adopts at boot, or the
    /// seed's random regular graph.
    ///
    /// # Errors
    ///
    /// If generation, coloring or the write fails.
    pub fn prepare(&self, seed: u64, out: &Path) -> Result<(), String> {
        match self {
            Workload::Serve(s) => {
                let dg = DynamicGraph::from_graph(generators::grid_torus(s.rows, s.cols));
                let ids = IdAssignment::scattered(dg.n(), 1);
                let (rec, _) = Recoloring::color_initial(&dg, &ids, &ColoringParams::new(0.5))
                    .map_err(|e| e.to_string())?;
                SnapshotSource::graph(dg.graph())
                    .with_coloring(rec.coloring())
                    .write_to(out)
            }
            Workload::Color(c) => {
                let g = generators::random_regular(c.n, c.d, seed).map_err(|e| e.to_string())?;
                SnapshotSource::graph(&g).write_to(out)
            }
        }
        .map_err(|e| e.to_string())
    }
}

/// Peak resident memory of this process so far, MB (`VmHWM`).
///
/// # Errors
///
/// If `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
