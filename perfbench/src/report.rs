//! Metric names, units and the result line the benchmark prints last.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced run), `(name, unit)`. Every workload
/// reports every one of them. Their timings are CPU seconds of the measuring
/// process (`crate::cpu_seconds`); the per-layer timings are wall time.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("jobs_per_cpu_s", "jobs/cpu-s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), `(name, unit)`. A workload that bypasses
/// a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("platform.build_s", "s"),
    ("workload.load_s", "s"),
    ("workload.stream_s", "s"),
    ("faults.plan_s", "s"),
    ("faults.plan_events", "count"),
    ("core.run_s", "s"),
    ("core.engine_events", "count"),
    ("core.host_us_per_event", "us"),
    ("core.job_interruptions", "count"),
    ("core.fault_retries", "count"),
    ("core.checkpoints_written", "count"),
    ("core.ckpt_stalls", "count"),
    ("core.ckpt_overlap_ratio", "ratio"),
    ("core.repairs_started", "count"),
    ("core.repairs_completed", "count"),
    ("core.repair_success_ratio", "ratio"),
    ("core.event_loop_s", "s"),
    ("des.fluid_s", "s"),
    ("des.fluid_fast_solves", "count"),
    ("des.fluid_slow_solves", "count"),
    ("des.fluid_fast_ratio", "ratio"),
    ("faults.replay_s", "s"),
    ("core.checkpoint_s", "s"),
    ("core.repair_s", "s"),
    ("core.dispatch_s", "s"),
    ("data.staged_bytes", "bytes"),
    ("monitor.events_recorded", "count"),
    ("monitor.table_store_s", "s"),
    ("monitor.mldataset_s", "s"),
    ("core.results_json_s", "s"),
    ("monitor.export_bytes", "bytes"),
    ("scenario.base_hash_s", "s"),
    ("scenario.prime_s", "s"),
    ("scenario.hit_ms_p50", "ms"),
    ("scenario.miss_ms_p50", "ms"),
    ("scenario.batch_ms_p50", "ms"),
    ("scenario.cache_hits", "count"),
    ("scenario.cache_misses", "count"),
    ("scenario.cache_evictions", "count"),
    ("scenario.hit_ratio", "ratio"),
    ("scenario.simulations_run", "count"),
    ("scenario.cache_entries", "count"),
    ("serve.req_p50_ms", "ms"),
    ("serve.req_p99_ms", "ms"),
    ("serve.req_per_s", "lines/s"),
    ("obs.profile_overhead_pct", "%"),
];

/// What one workload run attempted, what failed, and what it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulation runs, request lines, exports).
    pub attempted: u64,
    /// Operations that failed: errors, `ok:false` responses, fingerprint
    /// mismatches or broken invariants.
    pub failed: u64,
    /// One message per failure.
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one attempted operation and its failure, if any.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = result {
            self.failed += 1;
            self.problems.push(problem);
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: every end-to-end metric (`traced = false`) or every
    /// per-layer metric (`traced = true`). An end-to-end metric the run did
    /// not measure, or any non-finite value, makes the run incorrect.
    pub fn result_line(&self, traced: bool) -> String {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ if traced && !self.values.contains_key(name) => 0.0,
                _ => {
                    correct = false;
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Formats a finite float with all its digits (integral values print
/// without a fraction).
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}
