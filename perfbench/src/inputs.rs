//! Seeded input generation, run in its own process before any timed set-up.
//!
//! Each workload's program inputs are files, as a `cgsim simulate` or
//! `cgsim serve` user would hand them over: `platform.json`,
//! `execution.json`, and a JSONL trace (`trace.jsonl`) or the generator
//! configuration of a streamed workload (`stream.json`); `faults.txt` holds
//! a `--faults` spec and its seed; `prime.jsonl` and `traffic.jsonl` hold
//! the what-if request lines. The same seed writes the same bytes.

use std::path::Path;

use cgsim_core::{CheckpointConfig, CheckpointTarget, ExecutionConfig, RepairConfig};
use cgsim_monitor::MonitoringConfig;
use cgsim_platform::presets::wlcg_platform;
use cgsim_workload::{TraceConfig, TraceGenerator};

use crate::mix;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["churn_ckpt", "wide_stream", "whatif_serve"];

/// Sites of the `churn_ckpt` platform.
const CHURN_SITES: usize = 12;
/// Jobs in the `churn_ckpt` trace.
const CHURN_JOBS: usize = 30_000;
/// The `churn_ckpt` fault spec (CLI `--faults` grammar).
const CHURN_FAULTS: &str = "outage:site=all,mttf=2h,mttr=20m;diskloss:site=all,mttf=6h;\
degrade:link=all,factor=0.3,mttf=4h,mttr=30m;kill:rate=2";
/// Sites of the `wide_stream` platform.
const WIDE_SITES: usize = 200;
/// Jobs streamed by `wide_stream`.
const WIDE_JOBS: usize = 100_000;
/// Sites of the `whatif_serve` base.
const SERVE_SITES: usize = 20;
/// Jobs of the `whatif_serve` base trace.
const SERVE_JOBS: usize = 2_000;
/// Request lines written for `whatif_serve`; a run stops early when its
/// time is up and never wraps around (a wrapped fresh line would hit).
const SERVE_LINES: usize = 40_000;

fn io(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn write(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::write(dir.join(name), text).map_err(|e| format!("{name}: {e}"))
}

/// `churn_ckpt` execution: least-loaded, async incremental checkpoints to
/// the main server, re-replication on, bounded monitoring (the scale-probe
/// configuration).
fn churn_execution() -> ExecutionConfig {
    ExecutionConfig {
        checkpoint: CheckpointConfig {
            interval_s: 1_200.0,
            base_bytes: 1_000_000_000,
            bytes_per_core: 0,
            target: CheckpointTarget::MainServer,
            overlap: true,
            delta_bytes_per_s: 10_000_000,
        },
        repair: RepairConfig {
            target_factor: 2,
            max_concurrent: 4,
            ..RepairConfig::enabled()
        },
        monitoring: MonitoringConfig {
            enabled: true,
            sample_stride: 100,
            max_events: 10_000,
            window_s: 3_600.0,
            max_windows: 512,
        },
        ..ExecutionConfig::with_policy("least-loaded")
    }
}

/// The seed of the pinned platforms, traces and fault plans.
///
/// Only `wide_stream` draws its platform and trace from the benchmark seed.
/// `churn_ckpt`'s host cost is chaotic in every input: at 30k jobs, seeds
/// 1-6 ran at 3.3k-7.8k jobs/s, and the execution seed alone (the repair RNG
/// stream) moved one scenario between 4.0k and 5.6k jobs/s, so no seeded
/// churn scenario can be steady across seeds. `whatif_serve` serves a pinned
/// base and takes its request mix from the seed: its base's cost and result
/// sizes vary with the seed by more than the host noise it is measured in.
const PINNED_SEED: u64 = 1;

/// The seed a workload's platform, trace and fault plan are drawn from.
fn scenario_seed(workload: &str, seed: u64) -> u64 {
    if workload == "wide_stream" {
        seed
    } else {
        PINNED_SEED
    }
}

/// Writes the inputs of `workload` for benchmark seed `seed` into `dir`.
pub fn generate(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    let (mix_seed, seed) = (seed, scenario_seed(workload, seed));
    std::fs::create_dir_all(dir).map_err(io)?;
    let (sites, execution) = match workload {
        "churn_ckpt" => (CHURN_SITES, churn_execution()),
        "wide_stream" => (WIDE_SITES, ExecutionConfig::with_policy("data-aware")),
        "whatif_serve" => (SERVE_SITES, ExecutionConfig::with_policy("least-loaded")),
        other => return Err(format!("unknown workload '{other}'")),
    };
    let platform = wlcg_platform(sites, seed);
    platform.save(dir.join("platform.json")).map_err(io)?;
    write(dir, "execution.json", &execution.to_json())?;
    match workload {
        "wide_stream" => {
            let config = TraceConfig::with_jobs(WIDE_JOBS, seed);
            write(
                dir,
                "stream.json",
                &serde_json::to_string_pretty(&config).map_err(io)?,
            )?;
        }
        _ => {
            let jobs = if workload == "churn_ckpt" {
                CHURN_JOBS
            } else {
                SERVE_JOBS
            };
            TraceGenerator::new(TraceConfig::with_jobs(jobs, seed))
                .generate(&platform)
                .save_jsonl(dir.join("trace.jsonl"))
                .map_err(io)?;
        }
    }
    if workload == "churn_ckpt" {
        write(dir, "faults.txt", &format!("{CHURN_FAULTS}\n{seed}\n"))?;
    }
    if workload == "whatif_serve" {
        write(dir, "prime.jsonl", &(mix::prime_line() + "\n"))?;
        write(
            dir,
            "traffic.jsonl",
            &(mix::traffic(mix_seed, SERVE_LINES).join("\n") + "\n"),
        )?;
    }
    Ok(())
}
