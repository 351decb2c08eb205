//! In-process half of the repository benchmark (`perfbench/run.py`
//! drives it):
//!
//! * `probe kernels` — prints the kernel names, one per line;
//! * `probe reference` — reads grids from stdin and prints reference
//!   answers (see [`reference`]);
//! * `probe trace --input FILE --setup N --dir DIR --spans FILE`
//!   — the traced run (see [`trace`]).

mod reference;
mod spans;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use aurora_workloads::{FpBenchmark, IntBenchmark};

fn flag(args: &[String], name: &str) -> Result<String, String> {
    args.windows(2)
        .find(|p| p[0] == name)
        .map(|p| p[1].clone())
        .ok_or_else(|| format!("missing {name}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("kernels") => {
            for name in IntBenchmark::ALL.iter().map(|b| b.name()) {
                println!("{name}");
            }
            for name in FpBenchmark::ALL.iter().map(|b| b.name()) {
                println!("{name}");
            }
            Ok(())
        }
        Some("reference") => reference::run(),
        Some("trace") => (|| {
            let setup = flag(&args, "--setup")?
                .parse()
                .map_err(|e| format!("--setup: {e}"))?;
            trace::run(
                &PathBuf::from(flag(&args, "--input")?),
                setup,
                &PathBuf::from(flag(&args, "--dir")?),
                &PathBuf::from(flag(&args, "--spans")?),
            )
        })(),
        _ => Err("usage: probe kernels | reference | trace ...".to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("probe: {e}");
            ExitCode::FAILURE
        }
    }
}
