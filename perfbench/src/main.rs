//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints one line per metric (value, unit and
//! sample count), then, as the last line, a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when an answer was
//! wrong and 2 when the run could not be made.

use std::path::PathBuf;

use perfbench::{RunConfig, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload serve-hot|serve-miss|batch-paper \
[--seed N] [--seconds S] [--trace 0|1] [--hg PATH] [--work-dir DIR] [--corrupt-expected]";

fn parse_args() -> Result<RunConfig, String> {
    let exe_dir = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable: {e}"))?
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf();
    let mut cfg = RunConfig {
        workload: Workload::ServeHot,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        // `hg` is built into the same target directory.
        hg: exe_dir.join("hg"),
        work_dir: exe_dir.join("perfbench-work"),
        corrupt_expected: false,
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--corrupt-expected" {
            cfg.corrupt_expected = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--hg" => cfg.hg = PathBuf::from(&value),
            "--work-dir" => cfg.work_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = match perfbench::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            std::process::exit(2);
        }
    };
    println!(
        "# {} seed={} seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for (name, m) in &out.metrics {
        println!(
            "{name:<28} {:>16.3} {:<6} samples={}",
            m.value, m.unit, m.samples
        );
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for f in &out.failures {
        println!("# FAILED: {f}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if !out.correct() {
        std::process::exit(1);
    }
}
