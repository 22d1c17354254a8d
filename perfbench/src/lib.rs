//! End-to-end and per-layer benchmark of the cgsim public API.
//!
//! `perfbench gen` writes a workload's seeded inputs; `perfbench run`
//! measures it in a process of its own, so its peak RSS is the workload's
//! alone, and prints the result line `BENCHMARK.json` describes.
//! `perfbench/run.py` builds the package and runs both for one workload.

pub mod grid;
pub mod inputs;
pub mod mix;
pub mod pins;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

/// `clockid_t` of the CPU time used by all threads of the calling process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds this process has used so far, over all its threads, live or
/// ended (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The end-to-end timings are CPU time, not wall time: on a shared virtual
/// machine, wall time also counts the time the process waited for a CPU,
/// preempted by other tasks or with its virtual CPU stolen by the host (the
/// kernel leaves steal out of task run time when it accounts for steal), and
/// that waiting moved the wall-time medians of identical runs by a quarter.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
