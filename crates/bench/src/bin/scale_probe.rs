//! Scale-campaign probe: one streamed scenario per **subprocess**,
//! recording wall-clock and peak RSS. The rows land in `BENCH_scale.json`.
//!
//! Each case re-executes this binary with `--case <name>` so the peak-RSS
//! reading (`VmHWM` in `/proc/self/status`, the kernel's high-water mark)
//! belongs to that case alone — a shared process would report the maximum
//! across cases. Two scenarios:
//!
//! * `churn` — the scale-campaign configuration the README documents on 12
//!   sites: streamed generation (no materialised trace), least-loaded, site
//!   churn with WAN degradation and job kills, asynchronous incremental
//!   checkpoints, and bounded monitoring (`max_events` ring + windowed
//!   aggregator);
//! * `wide` — hundreds of sites: 200 sites, data-aware placement, streamed
//!   generation, full monitoring, no faults — the regime where the broker's
//!   per-dispatch grid snapshot and the all-pairs route precompute cost the
//!   most.
//!
//! Run all rows:  `cargo run --release -p cgsim-bench --bin scale_probe`
//! Run one row:   `cargo run --release -p cgsim-bench --bin scale_probe -- --case 100k_jobs_wide_streamed`

use std::time::Instant;

use cgsim_core::{CheckpointConfig, CheckpointTarget, ExecutionConfig, Simulation};
use cgsim_faults::{parse_fault_spec, FaultPlan, FaultTopology};
use cgsim_monitor::MonitoringConfig;
use cgsim_platform::presets::wlcg_platform;
use cgsim_platform::{Platform, PlatformSpec};
use cgsim_workload::{TraceConfig, TraceGenerator};

/// The scenario of one row.
#[derive(Clone, Copy)]
enum Scenario {
    Churn,
    Wide,
}

/// `(row name, jobs, scenario)`, in the order the rows are committed.
const CASES: [(&str, usize, Scenario); 3] = [
    ("100k_jobs_churn_streamed", 100_000, Scenario::Churn),
    ("1m_jobs_churn_streamed", 1_000_000, Scenario::Churn),
    ("100k_jobs_wide_streamed", 100_000, Scenario::Wide),
];

fn churn_plan(spec: &PlatformSpec, jobs: usize) -> FaultPlan {
    let config = parse_fault_spec(
        "outage:site=all,mttf=2h,mttr=20m;degrade:link=all,factor=0.3,mttf=4h,mttr=30m;kill:rate=2",
    )
    .expect("spec parses");
    let platform = Platform::build(spec).expect("platform builds");
    FaultPlan::generate(&config, &FaultTopology::for_platform(&platform, jobs), 7)
}

fn scale_exec() -> ExecutionConfig {
    ExecutionConfig {
        checkpoint: CheckpointConfig {
            interval_s: 1_200.0,
            base_bytes: 1_000_000_000,
            bytes_per_core: 0,
            target: CheckpointTarget::MainServer,
            overlap: true,
            delta_bytes_per_s: 10_000_000,
        },
        monitoring: MonitoringConfig {
            enabled: true,
            sample_stride: 100,
            max_events: 10_000,
            window_s: 3_600.0,
            max_windows: 512,
        },
        ..ExecutionConfig::default()
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0.0 when `/proc` is
/// unavailable (non-Linux).
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Runs one case in-process and prints its row as a single JSON line.
fn run_case(name: &str, jobs: usize, scenario: Scenario) {
    let (spec, policy, execution, plan) = match scenario {
        Scenario::Churn => {
            let spec = wlcg_platform(12, 42);
            let plan = churn_plan(&spec, jobs);
            (spec, "least-loaded", scale_exec(), Some(plan))
        }
        Scenario::Wide => (
            wlcg_platform(200, 42),
            "data-aware",
            ExecutionConfig::default(),
            None,
        ),
    };
    let generator = TraceGenerator::new(TraceConfig::with_jobs(jobs, 42));
    let started = Instant::now();
    let mut builder = Simulation::builder()
        .platform_spec(&spec)
        .expect("platform builds")
        .trace_stream(generator.stream(&spec))
        .policy_name(policy)
        .execution(execution);
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    let results = builder.run().expect("simulation runs");
    let wall_s = started.elapsed().as_secs_f64();
    assert_eq!(results.outcomes.len(), jobs, "every job must account");
    println!(
        "{{\"case\": \"{name}\", \"jobs\": {}, \"wall_clock_s\": {:.3}, \
         \"peak_rss_mb\": {:.1}, \"engine_events\": {}, \"makespan_s\": {:.1}}}",
        jobs,
        wall_s,
        peak_rss_mb(),
        results.engine_events,
        results.makespan_s,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--case") {
        let wanted = args.get(pos + 1).expect("--case takes a row name");
        let &(name, jobs, scenario) = CASES
            .iter()
            .find(|(name, ..)| name == wanted)
            .unwrap_or_else(|| panic!("unknown case '{wanted}'"));
        run_case(name, jobs, scenario);
        return;
    }

    // Orchestrator: one subprocess per case so each VmHWM is case-local.
    let exe = std::env::current_exe().expect("own path");
    let mut rows = Vec::new();
    for (name, ..) in CASES {
        eprintln!("scale_probe: running {name}…");
        let out = std::process::Command::new(&exe)
            .args(["--case", name])
            .output()
            .expect("subprocess runs");
        assert!(out.status.success(), "case {name} failed");
        let line = String::from_utf8(out.stdout).expect("utf-8 row");
        let row = line.trim().to_string();
        eprintln!("  {row}");
        rows.push(row);
    }
    println!("[\n  {}\n]", rows.join(",\n  "));
}
