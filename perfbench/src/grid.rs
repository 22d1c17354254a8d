//! The grid workloads (`churn_ckpt`, `wide_stream`): set up from the input
//! files, then simulate and export repeatedly until the time is up.
//!
//! One code path serves both; the inputs decide what runs. A `trace.jsonl`
//! is loaded with `Trace::load_jsonl` and shared by every run, a
//! `stream.json` is re-streamed through `TraceGenerator::stream` on every
//! run, and a `faults.txt` adds a fault plan.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cgsim_core::{ExecutionConfig, Simulation, SimulationResults};
use cgsim_faults::{parse_fault_spec, FaultPlan, FaultTopology};
use cgsim_monitor::mldataset;
use cgsim_obs::ProfileReport;
use cgsim_platform::{Platform, PlatformSpec};
use cgsim_workload::{Trace, TraceConfig, TraceGenerator};

use crate::pins;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{fnv1a, median};
use crate::{cpu_seconds, peak_rss_mb};

/// Simulations per run at least, however long they take.
const MIN_RUNS: usize = 2;

/// The job source of a grid workload.
enum Jobs {
    Loaded(Arc<Trace>),
    Streamed(TraceConfig),
}

impl Jobs {
    fn len(&self) -> usize {
        match self {
            Jobs::Loaded(trace) => trace.len(),
            Jobs::Streamed(config) => config.job_count,
        }
    }
}

/// Everything built before the first simulated event.
struct Setup {
    spec: PlatformSpec,
    platform: Platform,
    execution: ExecutionConfig,
    jobs: Jobs,
    plan: Option<FaultPlan>,
}

fn read(dir: &Path, name: &str) -> Result<String, String> {
    std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"))
}

fn set_up(dir: &Path, spans: &mut Spans) -> Result<Setup, String> {
    let spec = PlatformSpec::load(dir.join("platform.json")).map_err(|e| e.to_string())?;
    let platform = spans
        .time("platform.build", || Platform::build(&spec))
        .map_err(|e| e.to_string())?;
    let execution =
        ExecutionConfig::from_json(&read(dir, "execution.json")?).map_err(|e| e.to_string())?;
    let jobs = if dir.join("trace.jsonl").exists() {
        let trace = spans
            .time("workload.load", || {
                Trace::load_jsonl(dir.join("trace.jsonl"))
            })
            .map_err(|e| format!("trace.jsonl: {e}"))?;
        Jobs::Loaded(Arc::new(trace))
    } else {
        Jobs::Streamed(serde_json::from_str(&read(dir, "stream.json")?).map_err(|e| e.to_string())?)
    };
    let plan = if dir.join("faults.txt").exists() {
        let text = read(dir, "faults.txt")?;
        let mut lines = text.lines();
        let spec_text = lines.next().unwrap_or_default();
        let seed: u64 = lines
            .next()
            .and_then(|s| s.trim().parse().ok())
            .ok_or("faults.txt: second line must be the fault seed")?;
        let plan = spans.time("faults.plan", || {
            parse_fault_spec(spec_text).map(|config| {
                let topology = FaultTopology::for_platform(&platform, jobs.len());
                FaultPlan::generate(&config, &topology, seed)
            })
        })?;
        Some(plan)
    } else {
        None
    };
    Ok(Setup {
        spec,
        platform,
        execution,
        jobs,
        plan,
    })
}

/// Deletes the previous repetition's export, so its dirty pages are dropped
/// instead of being written back while the next export runs.
fn discard(out: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(out) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("removing {}: {e}", out.display()))
        }
        _ => Ok(()),
    }
}

/// Sets up `count` times, pushing each one's CPU seconds to `times`, and
/// returns the last set-up (each one is dropped before the next starts).
fn set_up_timed(
    dir: &Path,
    spans: &mut Spans,
    count: usize,
    times: &mut Vec<f64>,
) -> Result<Setup, String> {
    let mut last = None;
    for _ in 0..count {
        drop(last.take());
        let started = cpu_seconds();
        last = Some(set_up(dir, spans)?);
        times.push(cpu_seconds() - started);
    }
    last.ok_or_else(|| "no set-up requested".to_string())
}

/// Writes what `cgsim simulate --output` writes: the table-store CSVs, the
/// ML dataset and `results.json`. Returns the bytes written.
fn export(results: &SimulationResults, out: &Path, spans: &mut Spans) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("export to {}: {e}", out.display());
    spans
        .time("monitor.table_store", || {
            results.to_table_store().save_csv_dir(out)
        })
        .map_err(io)?;
    spans
        .time("monitor.mldataset", || {
            let examples = mldataset::build_examples(&results.outcomes, &results.events);
            std::fs::write(out.join("ml_dataset.csv"), mldataset::to_csv(&examples))
        })
        .map_err(io)?;
    spans
        .time("core.results_json", || {
            std::fs::write(out.join("results.json"), results.deterministic_json())
        })
        .map_err(io)?;
    let mut bytes = 0;
    for entry in std::fs::read_dir(out).map_err(io)? {
        bytes += entry.map_err(io)?.metadata().map_err(io)?.len();
    }
    Ok(bytes)
}

/// The deterministic fingerprint of a run's simulated outputs.
pub fn fingerprint(results: &SimulationResults) -> String {
    format!(
        "events={}/makespan={:016x}/results={:016x}",
        results.engine_events,
        results.makespan_s.to_bits(),
        fnv1a(results.deterministic_json().as_bytes())
    )
}

/// Invariants every run must satisfy.
fn check_run(results: &SimulationResults, jobs: usize) -> Result<(), String> {
    if results.outcomes.len() != jobs {
        return Err(format!(
            "{} of {jobs} jobs accounted for",
            results.outcomes.len()
        ));
    }
    let c = &results.grid_counters;
    if c.repairs_started != c.repairs_completed + c.repairs_cancelled {
        return Err(format!(
            "repair ledger open: {} started, {} completed, {} cancelled",
            c.repairs_started, c.repairs_completed, c.repairs_cancelled
        ));
    }
    Ok(())
}

fn bucket(report: &ProfileReport, case: &str) -> f64 {
    report
        .results
        .iter()
        .find(|r| r.case == case)
        .map_or(0.0, |r| r.wall_s)
}

fn counter(report: &ProfileReport, name: &str) -> f64 {
    report
        .counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0.0, |c| c.value as f64)
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Runs a grid workload from the inputs in `dir` for `seconds`: each
/// repetition sets up from the files and simulates, as one `cgsim simulate`
/// invocation does, so the set-up samples spread over the whole run like
/// the others. The first repetition, and every one of a traced run, also
/// exports what `--output` writes. A repetition starts only if one as
/// long as the last still fits in the time left.
pub fn run(workload: &str, seed: u64, dir: &Path, seconds: f64, spans: &mut Spans) -> Outcome {
    let mut outcome = Outcome::default();
    let out = dir.join("out");
    let traced = spans.enabled();
    let budget = Duration::from_secs_f64(seconds);
    let mut first_fingerprint: Option<String> = None;
    let (mut setup_s, mut jobs_per_cpu_s, mut wall_jobs_per_s) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut profiled_s, mut unprofiled_s) = (Vec::new(), Vec::new());
    let mut profiles: Vec<ProfileReport> = Vec::new();
    let (mut jobs, mut plan_events) = (0, None);
    // A set-up that only loads files (~0.1 s) is repeated so `setup_s` rests
    // on several samples per repetition; a streamed workload's set-up is its
    // ~1 s platform build, already a quarter of its repetition.
    let setups = if dir.join("trace.jsonl").exists() {
        3
    } else {
        1
    };
    let loop_started = Instant::now();
    let mut run_index = 0;
    let mut last_repetition = Duration::ZERO;
    while run_index < MIN_RUNS || loop_started.elapsed() + last_repetition <= budget {
        let repetition_started = Instant::now();
        spans.set_op(run_index as u64);
        run_index += 1;
        let repetition = spans.open("bench.repetition");
        let setup = match set_up_timed(dir, spans, setups, &mut setup_s) {
            Ok(s) => s,
            Err(e) => {
                spans.close(repetition);
                outcome.check(Err(format!("set-up: {e}")));
                break;
            }
        };
        jobs = setup.jobs.len();
        plan_events = setup.plan.as_ref().map(|p| p.events.len());

        // A traced run alternates profiled and plain simulations so the
        // profiler's own cost can be read off (`obs.profile_overhead_pct`).
        let profiled = traced && run_index % 2 == 1;
        let mut builder = Simulation::builder()
            .platform(setup.platform)
            .execution(setup.execution)
            .profile(profiled);
        builder = match setup.jobs {
            Jobs::Loaded(trace) => builder.trace(trace),
            Jobs::Streamed(config) => {
                let generator = TraceGenerator::new(config);
                if traced {
                    spans.time("workload.stream", || generator.stream(&setup.spec).count());
                }
                builder.trace_stream(generator.stream(&setup.spec))
            }
        };
        if let Some(plan) = setup.plan {
            builder = builder.fault_plan(plan);
        }
        let span = spans.open(if profiled {
            "core.run"
        } else {
            "core.run_unprofiled"
        });
        let (started, cpu_started) = (Instant::now(), cpu_seconds());
        let ran = builder.run();
        let run_cpu_s = cpu_seconds() - cpu_started;
        let run_s = started.elapsed().as_secs_f64();
        spans.close(span);
        let results = match ran {
            Ok(r) => r,
            Err(e) => {
                spans.close(repetition);
                outcome.check(Err(format!("run {run_index}: {e}")));
                last_repetition = repetition_started.elapsed();
                continue;
            }
        };
        if profiled {
            profiled_s.push(run_s);
        } else {
            unprofiled_s.push(run_s);
        }
        jobs_per_cpu_s.push(jobs as f64 / run_cpu_s);
        wall_jobs_per_s.push(jobs as f64 / run_s);
        if let Some(profile) = &results.profile {
            profiles.push(profile.clone());
        }

        let fp = fingerprint(&results);
        let verdict = check_run(&results, jobs)
            .and_then(|()| match &first_fingerprint {
                Some(first) if *first != fp => Err(format!(
                    "run {run_index} fingerprint {fp} differs from {first}"
                )),
                _ => Ok(()),
            })
            .and_then(|()| pins::check_pin(pins::PINS, workload, seed, &fp));
        first_fingerprint.get_or_insert(fp);
        outcome.check(verdict);

        // The export is checked once; a traced run times it every time.
        if run_index == 1 || traced {
            let exported = discard(&out).and_then(|()| export(&results, &out, spans));
            match exported {
                Ok(bytes) => {
                    outcome.set("monitor.export_bytes", bytes as f64);
                    outcome.check(Ok(()));
                }
                Err(e) => outcome.check(Err(e)),
            }
        }
        if traced {
            record_counters(&mut outcome, &results);
        }
        spans.close(repetition);
        last_repetition = repetition_started.elapsed();
        if run_index == 1 {
            // The high-water mark of one `cgsim simulate --output`-like
            // repetition; later ones in this process only add allocator
            // fragmentation, which varies with how many fit in the run.
            match peak_rss_mb() {
                Ok(mb) => outcome.set("peak_rss_mb", mb),
                Err(e) => outcome.check(Err(e)),
            }
        }
    }

    if jobs_per_cpu_s.is_empty() {
        return outcome;
    }
    outcome.set("setup_s", median(&setup_s));
    outcome.set("jobs_per_cpu_s", median(&jobs_per_cpu_s));
    outcome.notes.push(format!(
        "{workload}: {jobs} jobs, {} simulations at {:.0?} jobs/cpu-s ({:.0?} jobs/s of wall time), \
         set-ups {:.3?} cpu-s, fingerprint {}",
        jobs_per_cpu_s.len(),
        jobs_per_cpu_s,
        wall_jobs_per_s,
        setup_s,
        first_fingerprint.unwrap_or_default()
    ));
    if traced {
        if let Some(events) = plan_events {
            outcome.set("faults.plan_events", events as f64);
        }
        per_layer(&mut outcome, spans, &profiles);
        if !profiled_s.is_empty() && !unprofiled_s.is_empty() {
            let (on, off) = (median(&profiled_s), median(&unprofiled_s));
            outcome.set("core.run_s", on);
            outcome.set("obs.profile_overhead_pct", (on - off) / off * 100.0);
        }
    }
    outcome
}

/// Records a run's deterministic layer counters (equal for every run).
fn record_counters(outcome: &mut Outcome, r: &SimulationResults) {
    let c = &r.grid_counters;
    outcome.set("core.engine_events", r.engine_events as f64);
    outcome.set("core.job_interruptions", c.job_interruptions as f64);
    outcome.set("core.fault_retries", c.fault_retries as f64);
    outcome.set("core.checkpoints_written", c.checkpoints_written as f64);
    outcome.set("core.ckpt_stalls", c.ckpt_stalls as f64);
    outcome.set(
        "core.ckpt_overlap_ratio",
        ratio(c.ckpt_overlapped, c.ckpt_overlapped + c.ckpt_stalls),
    );
    outcome.set("core.repairs_started", c.repairs_started as f64);
    outcome.set("core.repairs_completed", c.repairs_completed as f64);
    outcome.set(
        "core.repair_success_ratio",
        ratio(c.repairs_completed, c.repairs_started),
    );
    outcome.set("data.staged_bytes", r.metrics.staged_bytes as f64);
    outcome.set("monitor.events_recorded", r.events.len() as f64);
}

/// Fills the timed per-layer metrics of a traced grid run.
fn per_layer(outcome: &mut Outcome, spans: &Spans, profiles: &[ProfileReport]) {
    for (metric, span) in [
        ("platform.build_s", "platform.build"),
        ("workload.load_s", "workload.load"),
        ("workload.stream_s", "workload.stream"),
        ("faults.plan_s", "faults.plan"),
        ("monitor.table_store_s", "monitor.table_store"),
        ("monitor.mldataset_s", "monitor.mldataset"),
        ("core.results_json_s", "core.results_json"),
    ] {
        let d = spans.durations(span);
        if !d.is_empty() {
            outcome.set(metric, median(&d));
        }
    }
    let run_s = spans.durations("core.run");
    if let (Some(&events), false) = (outcome.values.get("core.engine_events"), run_s.is_empty()) {
        outcome.set(
            "core.host_us_per_event",
            median(&run_s) * 1e6 / events.max(1.0),
        );
    }
    if profiles.is_empty() {
        return;
    }
    let med =
        |f: &dyn Fn(&ProfileReport) -> f64| median(&profiles.iter().map(f).collect::<Vec<_>>());
    let event_loop = med(&|p| bucket(p, "event_loop"));
    let fluid = med(&|p| bucket(p, "fluid"));
    let checkpoint = med(&|p| bucket(p, "checkpoint"));
    outcome.set("core.event_loop_s", event_loop);
    outcome.set("des.fluid_s", fluid);
    outcome.set("faults.replay_s", med(&|p| bucket(p, "fault_replay")));
    outcome.set("core.checkpoint_s", checkpoint);
    outcome.set("core.repair_s", med(&|p| bucket(p, "repair")));
    // Broker, policies, data catalog and monitor collector: the loop minus
    // the buckets nested in it. Fault replay and repair are not subtracted
    // (they overlap fluid), so this is a clean attribution only where they
    // are absent (`wide_stream`).
    outcome.set("core.dispatch_s", event_loop - fluid - checkpoint);
    let fast = counter(&profiles[0], "fluid_fast_solves");
    let slow = counter(&profiles[0], "fluid_slow_solves");
    outcome.set("des.fluid_fast_solves", fast);
    outcome.set("des.fluid_slow_solves", slow);
    outcome.set(
        "des.fluid_fast_ratio",
        ratio(fast as u64, (fast + slow) as u64),
    );
}
