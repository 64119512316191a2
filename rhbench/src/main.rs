//! `rhbench` — the repository benchmark: open-loop load against an
//! in-process rockserve server, checked for correctness and measured end to
//! end and, in a traced run, layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path rhbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! ```
//!
//! Every metric prints as `workload metric value unit`; the last line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` carrying the
//! end-to-end metrics, or with `--trace 1` the per-layer ones (a traced run
//! also writes its spans to `DIR/spans-<workload>.jsonl`). Without
//! `--workload` every workload runs in a child process of its own, so peak
//! memory and threads stay per workload. The exit code is non-zero when any
//! correctness check fails.

mod driver;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use suite::{Options, Workload};

/// Load-phase length when `--seconds` is not given (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        smoke: false,
        out: PathBuf::from(".rhbench"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Run every workload, each in a child process of this binary.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("rhbench: cannot locate its own executable");
        return ExitCode::from(2);
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()]);
        cmd.args(["--trace", if args.traced { "1" } else { "0" }]);
        cmd.arg("--out").arg(&args.out);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("rhbench: {} exited with {status}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("rhbench: cannot start {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rhbench: {e}");
            eprintln!(
                "usage: rhbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { DEFAULT_SECONDS });
    let opts = Options {
        workload,
        seed: args.seed,
        seconds,
        traced: args.traced,
        smoke: args.smoke,
        spans_out: args.out.join(format!("spans-{}.jsonl", workload.name())),
        work_dir: args
            .out
            .join(format!("work-{}-{}", workload.name(), std::process::id())),
    };
    let result = suite::run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rhbench: {}: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    for m in &report.metrics {
        println!("{} {} {} {}", workload.name(), m.name, m.value, m.unit);
    }
    for p in &report.problems {
        eprintln!("rhbench: {}: {p}", workload.name());
    }
    let fields: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| m.per_layer == args.traced)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = report.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
