//! Output fingerprints pinned per workload and seed.
//!
//! A fingerprint summarises a run's simulated outputs (engine events,
//! makespan bits and the FNV-1a of `deterministic_json()`, or of the served
//! response lines). A change that alters any simulated statistic changes
//! it, so a "perf" change that is really a behaviour change fails the
//! benchmark instead of passing as a speed-up.

/// The pinned fingerprints: one `<workload> <seed> <fingerprint>` per line,
/// where a seed of `*` pins every seed (a workload whose inputs do not
/// depend on the seed).
pub const PINS: &str = include_str!("../pins.txt");

/// Checks `fingerprint` against the pin for `workload` at `seed` in `pins`.
/// Seeds without a pin pass; a pinned seed must match exactly.
pub fn check_pin(pins: &str, workload: &str, seed: u64, fingerprint: &str) -> Result<(), String> {
    let pinned = pins
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(w), Some(s), Some(f))
                    if w == workload && (s == "*" || s.parse() == Ok(seed)) =>
                {
                    Some(f)
                }
                _ => None,
            }
        })
        .next();
    match pinned {
        Some(expected) if expected != fingerprint => Err(format!(
            "fingerprint mismatch for {workload} seed {seed}: got {fingerprint}, pinned {expected}"
        )),
        _ => Ok(()),
    }
}
