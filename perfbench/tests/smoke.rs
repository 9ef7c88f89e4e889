//! Down-scaled runs of every workload through the correctness gate, and a
//! check that the gate's replay reference notices a dropped batch.

use distserve::{Response, ServeConfig, Tenant};
use perfbench::color::{self, ColorSpec};
use perfbench::replay;
use perfbench::schedule::{self, Write};
use perfbench::serve::{self, Lookups, ServeSpec};
use perfbench::Workload;
use std::path::PathBuf;

fn input(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn small_torus(lookups: Lookups) -> ServeSpec {
    ServeSpec {
        rows: 30,
        cols: 20,
        write_rate: 100.0,
        lookups,
        boots: 2,
        warmup_s: 0.2,
    }
}

#[test]
fn serve_workloads_pass_the_gate() {
    let specs = [
        small_torus(Lookups::Open { rate: 1000.0 }),
        small_torus(Lookups::Closed { window: 4 }),
    ];
    let path = input("smoke-torus.snap");
    Workload::Serve(specs[0].clone())
        .prepare(1, &path)
        .expect("the torus snapshot is written");
    for spec in &specs {
        for trace in [false, true] {
            let r = serve::run(spec, &path, 5, 0.5, trace).expect("the run measures");
            assert!(r.correct(), "{:?}", r.violations);
            assert_eq!(r.failed, 0);
            assert!(r.attempted > 50);
            let line = r.json(trace).expect("every metric is reported");
            assert!(line.starts_with("{\"correct\": true"));
            if trace {
                for name in [
                    "serve.state.tick_ms",
                    "graph.dynamic.apply_ms",
                    "core.recolor.repair_ms",
                    "sim.network.round_ms",
                    "core.recolor.dirty_edges",
                ] {
                    assert!(r.get(name).is_some_and(|v| v > 0.0), "{name}");
                }
            }
        }
    }
}

#[test]
fn color_workload_passes_the_gate() {
    let path = input("smoke-rr.snap");
    Workload::Color(ColorSpec { n: 512, d: 16 })
        .prepare(3, &path)
        .expect("the graph snapshot is written");
    let r = color::run(&path, 0.01, true).expect("the run measures");
    assert!(r.correct(), "{:?}", r.violations);
    assert!(r.get("rounds").is_some_and(|v| v > 0.0));
    assert!(r.get("colors_used").is_some_and(|v| v <= 31.0));
    r.json(false).expect("every end-to-end metric is reported");
}

#[test]
fn replay_reference_catches_a_dropped_batch() {
    let spec = small_torus(Lookups::Closed { window: 1 });
    let path = input("replay-torus.snap");
    Workload::Serve(spec.clone())
        .prepare(1, &path)
        .expect("the torus snapshot is written");
    let config = ServeConfig {
        tick_interval_ms: None,
        ..ServeConfig::default()
    };
    let tenant = Tenant::from_snapshot_path("t", &path, config.clone()).expect("boots");
    for chunk in schedule::writes(spec.rows, spec.cols, 0, 2, 9, 12).chunks(4) {
        for w in chunk {
            let resp = match *w {
                Write::Delete(id) => tenant.submit(&[id], &[]),
                Write::Insert(u, v) => tenant.submit(&[], &[(u, v)]),
            };
            assert!(matches!(resp, Response::Submitted { .. }), "{resp:?}");
        }
        assert!(tenant.tick());
    }
    let st = tenant.state_snapshot();
    let log = tenant.batch_log();
    assert_eq!(log.len(), 3);
    let (ids, params) = (st.ids(), tenant.params());
    for timed in [false, true] {
        let full = replay::replay(&path, &log, config.headroom, ids, params, timed).unwrap();
        assert_eq!(full.stab.coloring(), st.coloring());
        assert_eq!(full.dg.stable_table(), st.dynamic().stable_table());
        assert_eq!(full.phases.is_some(), timed);
    }
    let short = replay::replay(&path, &log[..2], config.headroom, ids, params, false).unwrap();
    assert_ne!(short.dg.stable_table(), st.dynamic().stable_table());
}
