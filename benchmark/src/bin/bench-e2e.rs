//! `bench-e2e`: runs one workload (or all four) and prints its metrics; the
//! last line of standard output is the driver's JSON object.
//!
//! ```text
//! bench-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```

use proauth_benchmark::cli::{self, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bench-e2e: {msg}");
            eprintln!("{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match cli::run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            ExitCode::from(3)
        }
    }
}
