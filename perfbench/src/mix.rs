//! The seeded request mix of the `whatif_serve` workload.
//!
//! Every block of 20 lines holds exactly 12 repeats of a hot scenario
//! (cache hits), 7 fresh single scenarios (misses) and 1 batch of
//! [`BATCH_SIZE`] fresh scenarios (the worker pool), shuffled by the seed.
//! The 60/35/5 split therefore holds at every block boundary, wherever the
//! measured run stops, and keeps each latency percentile inside one mode.

use cgsim_des::rng::Rng;

/// Scenarios primed into the cache during set-up and repeated by hit lines.
pub const HOT_SCENARIOS: usize = 16;
/// Fresh scenarios per batch line.
pub const BATCH_SIZE: usize = 4;
/// The count of each kind in one shuffled block.
const BLOCK: [(LineKind, usize); 3] = [
    (LineKind::Hit, 12),
    (LineKind::Miss, 7),
    (LineKind::Batch, 1),
];
/// Lines per block.
pub const BLOCK_LINES: usize = 20;
/// Policies the scenarios pick from.
const POLICIES: [&str; 4] = [
    "least-loaded",
    "round-robin",
    "data-aware",
    "fastest-available",
];
/// Fresh scenarios take seeds from here up, so they never equal a hot one.
const FRESH_SEED_BASE: u64 = 1_000_000;
/// Separates the mix's RNG stream from the input generators' streams.
const MIX_SALT: u64 = 0x5e7e_11ce;

/// What a request line is expected to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    /// A repeat of a primed hot scenario: answered from the cache.
    Hit,
    /// One fresh scenario: a cache miss and one simulation.
    Miss,
    /// A batch of fresh scenarios: misses evaluated over the worker pool.
    Batch,
}

impl LineKind {
    /// Classifies a request line produced by [`traffic`].
    pub fn of(line: &str) -> LineKind {
        if line.starts_with('[') {
            LineKind::Batch
        } else if line.starts_with("{\"id\":\"h") {
            LineKind::Hit
        } else {
            LineKind::Miss
        }
    }
}

fn request(id: &str, policy: &str, seed: u64) -> String {
    format!("{{\"id\":\"{id}\",\"policy\":\"{policy}\",\"seed\":{seed}}}")
}

fn hot_request(i: usize) -> String {
    request(&format!("h{i}"), POLICIES[i % POLICIES.len()], i as u64 + 1)
}

fn fresh_request(rng: &mut Rng, next: &mut u64) -> String {
    let n = *next;
    *next += 1;
    let policy = POLICIES[rng.index(POLICIES.len())];
    request(&format!("f{n}"), policy, FRESH_SEED_BASE + n)
}

/// The hot scenarios' single-request lines, in hot-index order.
pub fn hot_lines() -> Vec<String> {
    (0..HOT_SCENARIOS).map(hot_request).collect()
}

/// The priming line: every hot scenario in one batch.
pub fn prime_line() -> String {
    format!("[{}]", hot_lines().join(","))
}

/// `lines` request lines drawn from `seed`; the same seed gives the same
/// lines.
pub fn traffic(seed: u64, lines: usize) -> Vec<String> {
    let mut rng = Rng::new(seed ^ MIX_SALT);
    let mut next_fresh = 0;
    let mut out = Vec::with_capacity(lines);
    while out.len() < lines {
        let mut block: Vec<LineKind> = BLOCK
            .iter()
            .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count))
            .collect();
        rng.shuffle(&mut block);
        for kind in block.into_iter().take(lines - out.len()) {
            out.push(match kind {
                LineKind::Hit => hot_request(rng.index(HOT_SCENARIOS)),
                LineKind::Miss => fresh_request(&mut rng, &mut next_fresh),
                LineKind::Batch => {
                    let members: Vec<String> = (0..BATCH_SIZE)
                        .map(|_| fresh_request(&mut rng, &mut next_fresh))
                        .collect();
                    format!("[{}]", members.join(","))
                }
            });
        }
    }
    out
}
