//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a report line, then the result line.

use perfbench::report::{report_line, result_line};
use perfbench::run::{run, RunConfig};
use perfbench::workload::{Sizes, Workload};
use std::process::ExitCode;

/// Engine settings read from the environment. They are cleared so every
/// run measures the defaults: serial execution, the cost-based planner,
/// spilling on, default batch size, no injected faults and no simulated
/// fsync latency.
const ENGINE_ENV: [&str; 6] = [
    "RDBMS_PARALLELISM",
    "RDBMS_COST_PLANNER",
    "RDBMS_SPILL",
    "RDBMS_BATCH_SIZE",
    "RDBMS_FAULT_PROFILE",
    "RDBMS_FSYNC_MICROS",
];

fn parse_args() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes: Sizes::FULL,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> \
                 --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    for var in ENGINE_ENV {
        std::env::remove_var(var);
    }
    match run(&cfg) {
        Ok(result) => {
            println!("{}", report_line(&cfg, &result));
            println!("{}", result_line(&result));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}
