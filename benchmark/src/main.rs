//! Outside-in benchmark of the eyeWnder weekly round.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and prints one JSON result as its last line. Without
//! `--workload` every workload runs, each in a process of its own;
//! `--selfcheck` does that twice and compares, `--smoke` does it at toy
//! sizes. See `README.md` beside this package.

mod check;
mod json;
mod layers;
mod probes;
mod rss;
mod run;
mod spec;
mod stages;
mod stats;
mod suite;
mod timed;
mod trace;
mod traced;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: ew-benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--out <dir>] [--selfcheck | --smoke]";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    detail: bool,
    selfcheck: bool,
    smoke: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        detail: false,
        selfcheck: false,
        smoke: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--detail" => args.detail = true,
            "--selfcheck" => args.selfcheck = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let Some(name) = &args.workload else {
        let result = if args.selfcheck {
            suite::selfcheck(args.seed, args.seconds, &args.out_dir)
        } else {
            // `--smoke` always traces: the layer run is half the schema.
            let trace = args.trace || args.smoke;
            suite::run_all(args.seed, args.seconds, trace, args.smoke, &args.out_dir)
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    };

    let Some(shape) = world::shape_by_name(name) else {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!("unknown workload {name}; one of {names:?}");
        return ExitCode::from(2);
    };
    let outcome = run::run(&run::Options {
        shape,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        out_dir: args.out_dir,
    });
    print!("{}", outcome.table());
    println!("{}", outcome.json(args.detail));
    if outcome.tally.failed == 0 && outcome.tally.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} checked outputs did not match their reference",
            outcome.tally.failed, outcome.tally.attempted
        );
        ExitCode::FAILURE
    }
}
