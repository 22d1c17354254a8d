//! `perfbench gen --workload W --seed N --dir D` writes the inputs;
//! `perfbench run --workload W --seed N --dir D --seconds S --trace 0|1`
//! measures them and prints the result line last. Exits 1 when any
//! operation failed or an output check did not hold.

use std::path::PathBuf;
use std::process::ExitCode;

use cgsim_perfbench::inputs::{self, WORKLOADS};
use cgsim_perfbench::spans::Spans;
use cgsim_perfbench::{grid, peak_rss_mb, serve};

struct Args {
    command: String,
    workload: String,
    seed: u64,
    dir: PathBuf,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or(
        "usage: perfbench gen|run --workload W --seed N --dir D [--seconds S --trace 0|1]",
    )?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 0,
        dir: PathBuf::new(),
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} '{value}' is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value,
            "--workload" => {
                return Err(format!("unknown workload '{value}'; one of {WORKLOADS:?}"))
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--dir" => args.dir = PathBuf::from(value),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number of seconds"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() || args.dir.as_os_str().is_empty() {
        return Err("--workload and --dir are required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.command.as_str() {
        "gen" => match inputs::generate(&args.workload, args.seed, &args.dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench gen: {e}");
                ExitCode::FAILURE
            }
        },
        "run" => {
            let mut spans = Spans::new(args.trace);
            let mut outcome = if args.workload == "whatif_serve" {
                serve::run(args.seed, &args.dir, args.seconds, &mut spans)
            } else {
                grid::run(
                    &args.workload,
                    args.seed,
                    &args.dir,
                    args.seconds,
                    &mut spans,
                )
            };
            if !outcome.values.contains_key("peak_rss_mb") {
                match peak_rss_mb() {
                    Ok(mb) => outcome.set("peak_rss_mb", mb),
                    Err(e) => outcome.check(Err(e)),
                }
            }
            if args.trace {
                let path = args.dir.join("spans.jsonl");
                if let Err(e) = spans.write_jsonl(&path) {
                    outcome.check(Err(format!("{}: {e}", path.display())));
                }
            }
            for problem in &outcome.problems {
                eprintln!("perfbench: FAILED: {problem}");
            }
            for note in &outcome.notes {
                println!("# {note}");
            }
            println!(
                "# fail_ratio {} ({} of {} operations failed)",
                outcome.failed as f64 / outcome.attempted.max(1) as f64,
                outcome.failed,
                outcome.attempted
            );
            let line = outcome.result_line(args.trace);
            println!("{line}");
            if line.starts_with("{\"correct\": true") {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!("perfbench: unknown command '{other}'");
            ExitCode::from(2)
        }
    }
}
