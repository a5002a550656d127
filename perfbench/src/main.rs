//! `accrel-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload and prints every metric by name with its unit, then,
//! as the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits 2 on a usage error and 1 when a check failed.

use std::path::PathBuf;
use std::process::ExitCode;

use accrel_perfbench::workloads::{self, RunConfig, Workload};

const USAGE: &str = "usage: accrel-perfbench --workload <guided-mix|flood-chain|serving-e5> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

/// Whether this process runs with address-space randomization switched off
/// (`ADDR_NO_RANDOMIZE` in its personality), as `BENCHMARK.json`'s command
/// asks through `setarch -R`, so that memory layout does not vary from run to
/// run.
fn aslr_disabled() -> Option<bool> {
    const ADDR_NO_RANDOMIZE: u32 = 0x0040000;
    let personality = std::fs::read_to_string("/proc/self/personality").ok()?;
    let flags = u32::from_str_radix(personality.trim(), 16).ok()?;
    Some(flags & ADDR_NO_RANDOMIZE != 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = workloads::run(&config);
    println!(
        "workload {} seed {} trace {}; address-space randomization {}",
        config.workload.name(),
        config.seed,
        u8::from(config.trace),
        match aslr_disabled() {
            Some(true) => "off",
            Some(false) => "on (run under `setarch -R` for steadier timings)",
            None => "unknown",
        }
    );
    for note in &result.notes {
        println!("{note}");
    }
    println!(
        "checked {} runs against the Exhaustive reference, {} mismatched",
        result.attempted, result.failed
    );
    for m in &result.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result.json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
