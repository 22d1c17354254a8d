//! Tests of the benchmark harness itself: the seeded request mix, the
//! percentile helper, fingerprint checks and the metric table.

use cgsim_core::{ExecutionConfig, Simulation};
use cgsim_perfbench::mix::{self, LineKind, BATCH_SIZE, BLOCK_LINES, HOT_SCENARIOS};
use cgsim_perfbench::pins::check_pin;
use cgsim_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use cgsim_perfbench::spans::Spans;
use cgsim_perfbench::stats::{median, percentile};
use cgsim_perfbench::{grid, inputs};
use cgsim_platform::presets::example_platform;
use cgsim_workload::{TraceConfig, TraceGenerator};

#[test]
fn same_seed_gives_the_same_lines_and_other_seeds_differ() {
    assert_eq!(mix::traffic(7, 500), mix::traffic(7, 500));
    assert_ne!(mix::traffic(7, 500), mix::traffic(8, 500));
    // A shorter request is a prefix of a longer one.
    assert_eq!(mix::traffic(7, 500)[..120], mix::traffic(7, 120)[..]);
}

#[test]
fn every_block_splits_60_35_5() {
    let lines = mix::traffic(3, 40 * BLOCK_LINES);
    for block in lines.chunks(BLOCK_LINES) {
        let count = |kind| block.iter().filter(|l| LineKind::of(l) == kind).count();
        assert_eq!(count(LineKind::Hit), 12);
        assert_eq!(count(LineKind::Miss), 7);
        assert_eq!(count(LineKind::Batch), 1);
    }
}

#[test]
fn fresh_scenarios_are_unique_and_hits_repeat_primed_ones() {
    let lines = mix::traffic(11, 2_000);
    let hot = mix::hot_lines();
    assert_eq!(hot.len(), HOT_SCENARIOS);
    assert_eq!(mix::prime_line(), format!("[{}]", hot.join(",")));
    let mut fresh = Vec::new();
    for line in &lines {
        match LineKind::of(line) {
            LineKind::Hit => assert!(hot.contains(line), "{line} is not a hot scenario"),
            LineKind::Miss => fresh.push(line.clone()),
            LineKind::Batch => {
                let members: Vec<&str> = line[1..line.len() - 1].split("},{").collect();
                assert_eq!(members.len(), BATCH_SIZE);
                fresh.extend(
                    members
                        .iter()
                        .map(|m| m.trim_matches(['{', '}']).to_string()),
                );
            }
        }
    }
    let seeds: std::collections::BTreeSet<&str> = fresh
        .iter()
        .map(|l| l.rsplit("\"seed\":").next().unwrap())
        .collect();
    assert_eq!(seeds.len(), fresh.len(), "a fresh scenario repeats");
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
    let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    assert!(percentile(&samples(999), 99.0).is_err());
    assert_eq!(percentile(&samples(1_000), 99.0), Ok(990.0));
    assert!(percentile(&samples(19), 50.0).is_err());
    assert_eq!(percentile(&samples(20), 50.0), Ok(10.0));
    assert!(percentile(&[], 50.0).is_err());
    assert!(percentile(&samples(100), 100.0).is_err());
    // Order of the input does not matter.
    let mut shuffled = samples(1_000);
    shuffled.reverse();
    assert_eq!(percentile(&shuffled, 99.0), Ok(990.0));
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
}

fn small_run(policy: &str) -> cgsim_core::SimulationResults {
    let platform = example_platform();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(60, 5)).generate(&platform);
    Simulation::builder()
        .platform_spec(&platform)
        .unwrap()
        .trace(trace)
        .execution(ExecutionConfig::with_policy(policy))
        .run()
        .unwrap()
}

#[test]
fn fingerprint_mismatch_is_detected() {
    let pinned = grid::fingerprint(&small_run("least-loaded"));
    assert_eq!(grid::fingerprint(&small_run("least-loaded")), pinned);
    let changed = grid::fingerprint(&small_run("round-robin"));
    assert_ne!(changed, pinned);

    let pins = format!("# comment\nchurn_ckpt 1 {pinned}\n");
    assert_eq!(check_pin(&pins, "churn_ckpt", 1, &pinned), Ok(()));
    let err = check_pin(&pins, "churn_ckpt", 1, &changed).unwrap_err();
    assert!(err.contains("fingerprint mismatch"), "{err}");
    // Unpinned seeds and workloads pass; a `*` pin holds for every seed.
    assert_eq!(check_pin(&pins, "churn_ckpt", 2, &changed), Ok(()));
    assert_eq!(check_pin(&pins, "wide_stream", 1, &changed), Ok(()));
    let any_seed = format!("wide_stream * {pinned}\n");
    assert_eq!(check_pin(&any_seed, "wide_stream", 9, &pinned), Ok(()));
    assert!(check_pin(&any_seed, "wide_stream", 9, &changed).is_err());

    // A mismatch fails the run's result line.
    let mut outcome = Outcome::default();
    for (name, _) in END_TO_END {
        outcome.set(name, 1.5);
    }
    outcome.check(Ok(()));
    assert!(outcome
        .result_line(false)
        .starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    outcome.check(check_pin(&pins, "churn_ckpt", 1, &changed));
    assert!(outcome
        .result_line(false)
        .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
}

#[test]
fn a_missing_end_to_end_metric_makes_the_run_incorrect() {
    let mut outcome = Outcome::default();
    outcome.check(Ok(()));
    outcome.set("setup_s", 0.2);
    assert!(outcome
        .result_line(false)
        .starts_with("{\"correct\": false"));
    // Per-layer metrics of a bypassed layer read 0.
    assert!(outcome
        .result_line(true)
        .contains("\"faults.plan_s\": {\"value\": 0, \"unit\": \"s\"}"));
}

#[test]
fn untraced_spans_record_nothing_and_traced_ones_nest() {
    let mut off = Spans::new(false);
    assert_eq!(off.time("a", || 1), 1);
    assert!(off.durations("a").is_empty());

    let mut on = Spans::new(true);
    let outer = on.open("outer");
    on.time("inner", || std::hint::black_box(0));
    on.close(outer);
    assert_eq!(on.durations("outer").len(), 1);
    assert_eq!(on.durations("inner").len(), 1);
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans.jsonl");
    on.write_jsonl(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text
        .lines()
        .nth(1)
        .unwrap()
        .contains("\"name\":\"inner\",\"op\":0,\"parent\":0"));
}

#[test]
fn benchmark_json_matches_the_metric_table() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to perfbench/");
    let json: serde_json::Value = serde_json::from_str(&text).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), table(&END_TO_END));
    assert_eq!(names("per_layer"), table(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, inputs::WORKLOADS);
}

#[test]
fn process_cpu_time_advances_with_work() {
    let started = cgsim_perfbench::cpu_seconds();
    let mut x = 0u64;
    for i in 0..20_000_000u64 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    let used = cgsim_perfbench::cpu_seconds() - started;
    assert!(used > 0.0 && used < 60.0, "{used} cpu-s for a busy loop");
}
