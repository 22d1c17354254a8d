//! The `whatif_serve` workload: one client in a closed loop against
//! `serve_loop`, over a base loaded from the input files.
//!
//! Set-up loads the base, hashes it (`ScenarioBase::shared`) and primes the
//! hot scenarios with one batch line. The client then sends each request
//! line only after the previous response arrived, until the time is up
//! (and at least [`MIN_LINES`] lines).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cgsim_core::{
    serve_loop, ExecutionConfig, ScenarioBase, ScenarioEngine, ScenarioSpec, ServeRequest,
    Simulation,
};
use cgsim_platform::PlatformSpec;
use cgsim_workload::Trace;

use crate::mix::{hot_lines, LineKind, BLOCK_LINES, HOT_SCENARIOS};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{median, percentile, Fnv};
use crate::{cpu_seconds, pins};

/// Request lines served at least, however long they take. The cache
/// counters and the fingerprint cover exactly these first lines, so they
/// repeat exactly for a seed.
const MIN_LINES: usize = 1_000;
/// Request lines between two cold set-ups; a whole number of mix blocks, so
/// no block straddles one.
const COLD_SET_UP_EVERY: usize = 15 * BLOCK_LINES;

struct Setup {
    base: Arc<ScenarioBase>,
    execution: ExecutionConfig,
    engine: ScenarioEngine,
    /// The priming line's response lines, in hot-scenario order.
    primed: Vec<String>,
}

fn read(dir: &Path, name: &str) -> Result<String, String> {
    std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"))
}

/// Sends one line through `serve_loop` and returns its response lines.
fn serve(
    engine: &ScenarioEngine,
    base: &Arc<ScenarioBase>,
    execution: &ExecutionConfig,
    line: &str,
) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    serve_loop(engine, base, execution, line.as_bytes(), &mut out).map_err(|e| e.to_string())?;
    let text = String::from_utf8(out).map_err(|e| e.to_string())?;
    Ok(text.lines().map(str::to_string).collect())
}

fn start_server(dir: &Path, spans: &mut Spans) -> Result<Setup, String> {
    let spec = PlatformSpec::load(dir.join("platform.json")).map_err(|e| e.to_string())?;
    let execution =
        ExecutionConfig::from_json(&read(dir, "execution.json")?).map_err(|e| e.to_string())?;
    let trace = spans
        .time("workload.load", || {
            Trace::load_jsonl(dir.join("trace.jsonl"))
        })
        .map_err(|e| format!("trace.jsonl: {e}"))?;
    let base = spans.time("scenario.base_hash", || ScenarioBase::shared(spec, trace));
    let engine = ScenarioEngine::new();
    let prime = read(dir, "prime.jsonl")?;
    let primed = spans.time("scenario.prime", || {
        serve(&engine, &base, &execution, prime.trim())
    })?;
    if primed.len() != HOT_SCENARIOS || !primed.iter().all(|l| is_ok(l)) {
        return Err(format!(
            "priming answered {} lines, not {HOT_SCENARIOS} ok ones",
            primed.len()
        ));
    }
    Ok(Setup {
        base,
        execution,
        engine,
        primed,
    })
}

fn is_ok(response: &str) -> bool {
    response.contains("\"ok\":true")
}

/// The hot scenario a hit line repeats (`{"id":"h<i>",…}`).
fn hot_index(line: &str) -> Option<usize> {
    line.strip_prefix("{\"id\":\"h")?
        .split('"')
        .next()?
        .parse()
        .ok()
}

/// Checks one line's responses: all ok, and a hit answers byte-identically
/// to the primed response of its scenario.
fn check_line(
    line: &str,
    kind: LineKind,
    responses: &[String],
    primed: &[String],
) -> Result<(), String> {
    if let Some(bad) = responses.iter().find(|r| !is_ok(r)) {
        return Err(format!("request {line} failed: {bad}"));
    }
    if kind == LineKind::Hit {
        let i = hot_index(line).ok_or_else(|| format!("hit line without a hot id: {line}"))?;
        if responses.len() != 1 || Some(&responses[0]) != primed.get(i) {
            return Err(format!(
                "hit {line} answered differently from its primed response"
            ));
        }
    }
    Ok(())
}

/// The scenario a hot request line asks for.
fn hot_spec(setup: &Setup, line: &str) -> Result<ScenarioSpec, String> {
    let request: ServeRequest = serde_json::from_str(line).map_err(|e| e.to_string())?;
    Ok(request.delta().resolve(&setup.base, &setup.execution))
}

/// A hot scenario's results must equal a direct, uncached simulation of the
/// same scenario: the cache serves what the simulator computes.
fn check_cache_against_direct(setup: &Setup) -> Result<(), String> {
    let spec = hot_spec(setup, &hot_lines()[0])?;
    let cached = setup.engine.evaluate(&spec).map_err(|e| e.to_string())?;
    let direct = Simulation::builder()
        .platform_spec(setup.base.platform())
        .map_err(|e| e.to_string())?
        .trace(setup.base.trace().clone())
        .execution(spec.execution.clone())
        .run()
        .map_err(|e| e.to_string())?;
    if !cached.cached || cached.results.deterministic_json() != direct.deterministic_json() {
        return Err("cached hot scenario differs from a direct simulation".to_string());
    }
    Ok(())
}

/// Runs `whatif_serve` from the inputs in `dir` for `seconds`.
///
/// Every [`COLD_SET_UP_EVERY`] lines the client pauses the loop for a cold
/// set-up of a second server (dropped again), timed apart from the request
/// lines, so the set-up samples spread over the whole run instead of one
/// burst at its start.
pub fn run(seed: u64, dir: &Path, seconds: f64, spans: &mut Spans) -> Outcome {
    let mut outcome = Outcome::default();
    let traffic = match read(dir, "traffic.jsonl") {
        Ok(t) => t,
        Err(e) => {
            outcome.check(Err(e));
            return outcome;
        }
    };
    let lines: Vec<&str> = traffic.lines().filter(|l| !l.is_empty()).collect();
    let mut setup_s = Vec::new();
    let started = cpu_seconds();
    let setup = match start_server(dir, spans) {
        Ok(s) => s,
        Err(e) => {
            outcome.check(Err(format!("set-up: {e}")));
            return outcome;
        }
    };
    setup_s.push(cpu_seconds() - started);

    let jobs = setup.base.trace().len() as f64;
    let mut fingerprint = Fnv::default();
    for response in &setup.primed {
        fingerprint.write(response.as_bytes());
    }
    let budget = Duration::from_secs_f64(seconds);
    let sims_before = setup.engine.simulations_run();
    let mut snapshot = None;
    let mut served = 0;
    // Simulated jobs per CPU second in each block of the mix: every block
    // holds the same share of misses, so its median is robust to bursts.
    let mut block_jobs_per_cpu_s = Vec::new();
    let mut block_start = (cpu_seconds(), sims_before);
    let (started, mut cold_s) = (Instant::now(), 0.0);
    for (i, line) in lines.iter().enumerate() {
        if i >= MIN_LINES && started.elapsed() >= budget {
            break;
        }
        if i > 0 && i % COLD_SET_UP_EVERY == 0 {
            spans.set_op(i as u64);
            let span = spans.open("bench.cold_set_up");
            let (cold_started, cold_cpu) = (Instant::now(), cpu_seconds());
            let cold = start_server(dir, spans).map(drop);
            setup_s.push(cpu_seconds() - cold_cpu);
            cold_s += cold_started.elapsed().as_secs_f64();
            spans.close(span);
            outcome.check(cold.map_err(|e| format!("set-up: {e}")));
            block_start = (cpu_seconds(), setup.engine.simulations_run());
        }
        spans.set_op(i as u64);
        let kind = LineKind::of(line);
        let span = spans.open(match kind {
            LineKind::Hit => "serve.hit",
            LineKind::Miss => "serve.miss",
            LineKind::Batch => "serve.batch",
        });
        let answered = serve(&setup.engine, &setup.base, &setup.execution, line);
        spans.close(span);
        served += 1;
        let verdict = answered.and_then(|responses| {
            if i < MIN_LINES {
                for r in &responses {
                    fingerprint.write(r.as_bytes());
                }
            }
            check_line(line, kind, &responses, &setup.primed)
        });
        outcome.check(verdict);
        if i + 1 == MIN_LINES {
            snapshot = Some((
                setup.engine.cache_counters(),
                setup.engine.simulations_run(),
            ));
        }
        if (i + 1) % BLOCK_LINES == 0 {
            let (now, sims) = (cpu_seconds(), setup.engine.simulations_run());
            block_jobs_per_cpu_s.push((sims - block_start.1) as f64 * jobs / (now - block_start.0));
            block_start = (now, sims);
        }
    }
    let lines_s = started.elapsed().as_secs_f64() - cold_s;
    let simulated = setup.engine.simulations_run() - sims_before;
    outcome.set("setup_s", median(&setup_s));
    outcome.set("jobs_per_cpu_s", median(&block_jobs_per_cpu_s));

    let fp = format!("responses={:016x}", fingerprint.finish());
    outcome.check(pins::check_pin(pins::PINS, "whatif_serve", seed, &fp));
    outcome.check(check_cache_against_direct(&setup));
    outcome.notes.push(format!(
        "whatif_serve: {served} request lines in {lines_s:.2} s, {simulated} simulations, \
         {} set-ups (median {:.4} cpu-s), fingerprint {fp}",
        setup_s.len(),
        median(&setup_s),
    ));

    if spans.enabled() {
        per_layer(&mut outcome, spans, snapshot, served as f64 / lines_s);
    }
    outcome
}

fn per_layer(
    outcome: &mut Outcome,
    spans: &Spans,
    snapshot: Option<(cgsim_monitor::CacheCounters, u64)>,
    lines_per_s: f64,
) {
    for (metric, span) in [
        ("workload.load_s", "workload.load"),
        ("scenario.base_hash_s", "scenario.base_hash"),
        ("scenario.prime_s", "scenario.prime"),
    ] {
        let d = spans.durations(span);
        if !d.is_empty() {
            outcome.set(metric, median(&d));
        }
    }
    let ms = |name: &str| -> Vec<f64> { spans.durations(name).iter().map(|s| s * 1e3).collect() };
    let mut all = Vec::new();
    for (metric, span) in [
        ("scenario.hit_ms_p50", "serve.hit"),
        ("scenario.miss_ms_p50", "serve.miss"),
        ("scenario.batch_ms_p50", "serve.batch"),
    ] {
        let samples = ms(span);
        match percentile(&samples, 50.0) {
            Ok(v) => outcome.set(metric, v),
            Err(e) => outcome.check(Err(format!("{metric}: {e}"))),
        }
        all.extend(samples);
    }
    for (metric, p) in [("serve.req_p50_ms", 50.0), ("serve.req_p99_ms", 99.0)] {
        match percentile(&all, p) {
            Ok(v) => outcome.set(metric, v),
            Err(e) => outcome.check(Err(format!("{metric}: {e}"))),
        }
    }
    outcome.set("serve.req_per_s", lines_per_s);
    outcome.notes.push(format!(
        "whatif_serve latency samples: {} lines ({} hit, {} miss, {} batch)",
        all.len(),
        spans.durations("serve.hit").len(),
        spans.durations("serve.miss").len(),
        spans.durations("serve.batch").len()
    ));
    if let Some((c, sims)) = snapshot {
        outcome.set("scenario.cache_hits", c.hits as f64);
        outcome.set("scenario.cache_misses", c.misses as f64);
        outcome.set("scenario.cache_evictions", c.evictions as f64);
        outcome.set("scenario.cache_entries", c.entries as f64);
        outcome.set(
            "scenario.hit_ratio",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        );
        outcome.set("scenario.simulations_run", sims as f64);
    }
}
