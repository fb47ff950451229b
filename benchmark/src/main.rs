//! Command line of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload lookup|analytic|adhoc|txn_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints the run context and every metric with its unit, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. Exits 1
//! when an output check fails and 2 on a usage error.

use std::process::ExitCode;

use udbms_perfbench::{run, Config, Workload};

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| bad("one of lookup, analytic, adhoc, txn_mix"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("a non-negative number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Config::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("udbms-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(outcome) => {
            print!("{}", outcome.report);
            println!("{}", outcome.json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("udbms-perfbench: output check failed");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("udbms-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
