//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <paper_batch|dag_layered|server_stream|sim_stream>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints diagnostics, a `host` line and, last, one JSON result line.
//! Exits 0 when the run completed (the result line says whether every
//! check passed), 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run, Opts, Scale, Workload};

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::PaperBatch,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        trace_dir: Some(PathBuf::from("perfbench/out")),
        corrupt_first: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = run(&opts);
    for note in &report.notes {
        println!("# {note}");
    }
    for msg in &report.tally.messages {
        eprintln!("perfbench: check failed: {msg}");
    }
    let result = report.result_json(opts.trace);
    println!("host: {}", report.host);
    println!("{result}");
    ExitCode::SUCCESS
}
