//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints a human-readable report
//! followed by one JSON result line. Exits 1 when a correctness check
//! fails and 2 when the run could not measure at all.

use perfbench::alloc::CountingAlloc;
use perfbench::{color, serve, workload, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: write the workload's input snapshot here and exit.
    prepare: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        prepare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--prepare" => args.prepare = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Where inputs are kept between runs: beside the build output.
fn data_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    Path::new(&target).join("perfbench-data")
}

/// Makes sure the workload's input snapshot exists, building it in a
/// child process so that generation does not count toward this process's
/// peak memory.
fn ensure_input(w: &Workload, args: &Args) -> Result<PathBuf, String> {
    let path = w.snapshot_path(&data_dir());
    if path.exists() && w.snapshot_reusable() {
        return Ok(path);
    }
    std::fs::create_dir_all(data_dir()).map_err(|e| e.to_string())?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--prepare")
        .arg(&tmp)
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!("preparing the input failed: {status}"));
    }
    std::fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
    Ok(path)
}

fn run(w: &Workload, args: &Args) -> Result<perfbench::report::Report, String> {
    let path = ensure_input(w, args)?;
    match w {
        Workload::Serve(spec) => serve::run(spec, &path, args.seed, args.seconds, args.trace),
        Workload::Color(_) => color::run(&path, args.seconds, args.trace),
    }
}

fn main() -> ExitCode {
    let parsed = parse_args().and_then(|a| {
        let w = workload(&a.workload).ok_or(format!("unknown workload {:?}", a.workload))?;
        Ok((a, w))
    });
    let (args, w) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(out) = &args.prepare {
        return match w.prepare(args.seed, out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: preparing {}: {e}", args.workload);
                ExitCode::from(2)
            }
        };
    }
    let report = match run(&w, &args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in report.human() {
        println!("  {line}");
    }
    match report.json(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
