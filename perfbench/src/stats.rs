//! Order statistics and deterministic fingerprints.

/// Samples that must lie strictly beyond a reported percentile. A p99 thus
/// needs at least 1,000 samples and a p50 at least 20.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values`: the middle value, or the mean of the two middle
/// values for an even count.
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile (0 < p < 100) of `values`.
///
/// Refuses (returns `Err`) when fewer than [`MIN_TAIL_SAMPLES`] samples lie
/// beyond the percentile's rank: such a tail percentile would rest on a
/// handful of samples and read as noise.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} is outside (0, 100)"));
    }
    let n = values.len();
    // `p * n` first keeps the product exact for integral p and n.
    let rank = ((p * n as f64) / 100.0).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{p} over {n} samples leaves {beyond} beyond it; at least {MIN_TAIL_SAMPLES} needed"
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Incremental 64-bit FNV-1a hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of `bytes` in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}
