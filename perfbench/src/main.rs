//! The repository's benchmark: three fixed-work workloads against the
//! public APIs, every answer checked, end-to-end metrics calibrated against
//! a reference kernel, and a traced mode that times each layer from the
//! outside in. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload solve_warm|mcmf|served_mix --seed N --seconds S
//!           --trace 0|1 [--served-bin PATH]
//! ```
//!
//! The last line of standard output is the result object.

mod gen;
mod machine;
mod mcmf;
mod meter;
mod probe;
mod report;
mod served_mix;
mod solve_warm;
mod stats;
mod trace;
mod verify;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::Outcome;
use trace::Trace;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    served_bin: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload solve_warm|mcmf|served_mix --seed N \
                     --seconds S --trace 0|1 [--served-bin PATH]";

/// Where traces, the daemon's config and its socket go, relative to the
/// checkout the benchmark runs in. The socket path stays short this way.
const OUT_DIR: &str = ".bench_build/perfbench";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut served_bin = PathBuf::from(".bench_build/release/bcc-served");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => traced = Some(number(&value)? != 0),
            "--served-bin" => served_bin = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?,
        traced: traced.ok_or(USAGE)?,
        served_bin,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    machine::mark_start();
    let mut trace = Trace::new(Instant::now());
    let mut outcome: Outcome = match args.workload.as_str() {
        "solve_warm" => solve_warm::run(args.seed, args.seconds, args.traced, &mut trace),
        "mcmf" => mcmf::run(args.seed, args.seconds, args.traced, &mut trace),
        "served_mix" => {
            match served_mix::run(
                &args.served_bin,
                Path::new(OUT_DIR),
                args.seed,
                args.seconds,
                args.traced,
                &mut trace,
            ) {
                Ok(outcome) => outcome,
                Err(message) => {
                    eprintln!("served_mix: {message}");
                    return ExitCode::FAILURE;
                }
            }
        }
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let f = &outcome.figures;
    println!(
        "{}: {} requests checked, {} failed; {} light samples (tail p{:.0} {:.4} ms raw), {} heavy samples",
        args.workload,
        outcome.attempted,
        outcome.failed,
        f.light_samples,
        f.tail_quantile * 100.0,
        f.latency_tail_ms,
        f.heavy_samples,
    );
    for problem in &outcome.problems {
        println!("check failed: {problem}");
    }
    for (name, unit, calibrated, raw) in outcome.end_to_end() {
        match raw {
            Some(raw) => println!("  {name:<22} {calibrated:>14.4} {unit:<6} (raw {raw:.4})"),
            None => println!("  {name:<22} {calibrated:>14.4} {unit}"),
        }
    }

    let metrics: Vec<(String, &str, f64)> = if args.traced {
        outcome.raw_layer_metrics();
        // One file per workload, overwritten by its next traced run.
        let path = Path::new(OUT_DIR).join(format!("trace-{}.json", args.workload));
        if let Err(e) = trace.write_json(&path) {
            outcome.problem(format!("cannot write {}: {e}", path.display()));
        }
        println!(
            "  spans: {} written to {}",
            trace.spans().len(),
            path.display()
        );
        report::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = outcome.layers.get(&name).copied().unwrap_or(0.0);
                println!("  {name:<36} {value:>14.4} {unit}");
                (name, unit, value)
            })
            .collect()
    } else {
        outcome
            .end_to_end()
            .into_iter()
            .map(|(name, unit, value, _)| (name.to_string(), unit, value))
            .collect()
    };
    println!("{}", report::result_line(&outcome, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_streams_are_a_function_of_the_seed() {
        let streams: [fn(u64, u64) -> Vec<u8>; 3] = [
            solve_warm::stream_bytes,
            mcmf::stream_bytes,
            served_mix::stream_bytes,
        ];
        for stream in streams {
            let first = stream(1, 2);
            assert!(!first.is_empty());
            assert_eq!(first, stream(1, 2));
            assert_ne!(first, stream(2, 2));
        }
    }
}
