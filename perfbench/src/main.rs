//! `perfbench` — the repository benchmark's measuring program.
//!
//! ```text
//! perfbench gen --workload W --seed N --dir DIR
//!     Write the seeded inputs of workload W into DIR.
//! perfbench measure --workload W --seed N --seconds S --trace 0|1 --dir DIR --awrap BIN
//!     Measure W on the inputs in DIR for about S seconds. Serving
//!     workloads drive `BIN serve` as a child process over HTTP; the
//!     learn workload calls the `Engine` stages in this process and
//!     ignores `--awrap`. Prints
//!     every metric by name and unit, then one JSON result line.
//! ```
//!
//! `run.py` builds this program and `awrap`, then runs `gen` and
//! `measure` as two processes, so the measured process never holds the
//! generator's memory.

mod calib;
mod gen;
mod http;
mod learn;
mod report;
mod serve;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

fn flag(args: &[String], name: &str) -> Result<String, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .ok_or_else(|| format!("missing {name}"))
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)?
        .parse()
        .map_err(|_| format!("{name}: not a valid value"))
}

fn run(args: &[String]) -> Result<(), String> {
    let workload = Workload::parse(&flag(args, "--workload")?)?;
    let seed: u64 = parsed(args, "--seed")?;
    let dir = PathBuf::from(flag(args, "--dir")?);
    match args.first().map(String::as_str) {
        Some("gen") => gen::generate(workload, seed, &dir),
        Some("measure") => {
            let seconds: f64 = parsed(args, "--seconds")?;
            let trace = match flag(args, "--trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
            };
            let result = match workload.open_rate() {
                Some(open_rate) => {
                    let awrap = PathBuf::from(flag(args, "--awrap")?);
                    serve::measure(workload, open_rate, &dir, &awrap, seconds, trace)?
                }
                None => learn::measure(&dir, seconds, trace)?,
            };
            result.print(trace);
            Ok(())
        }
        _ => Err("usage: perfbench <gen|measure> --workload W --seed N --dir DIR ...".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
