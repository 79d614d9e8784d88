//! Order statistics, fits and process probes used by every workload.

/// Nearest-rank percentile `p` (0–100) of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Samples strictly above the nearest-rank percentile `p` — the rule
/// is to trust a tail percentile only with at least ten beyond it.
pub fn beyond(xs: &[f64], p: f64) -> usize {
    let cut = percentile(xs, p);
    xs.iter().filter(|&&x| x > cut).count()
}

/// The tail percentile to report: `p` itself when at least ten samples
/// lie beyond it, otherwise the highest whole percentile below `p` that
/// has ten beyond, and never below the median. Returns the value and
/// the percentile used.
pub fn tail(xs: &[f64], p: f64) -> (f64, f64) {
    let mut q = p;
    while q > 50.0 && beyond(xs, q) < 10 {
        q = (q - 1.0).max(50.0);
    }
    (percentile(xs, q), q)
}

/// The median of the per-window values of `f` over `windows`
/// consecutive, equal slices of `xs`: a statistic that one disturbed
/// stretch of a run cannot move.
pub fn windowed(xs: &[f64], windows: usize, f: impl Fn(&[f64]) -> f64) -> f64 {
    let per = (xs.len() / windows.max(1)).max(1);
    let vals: Vec<f64> = xs.chunks(per).filter(|c| c.len() == per).map(f).collect();
    median(&vals)
}

/// Least-squares slope of `ln y` on `ln x` over the points with both
/// coordinates positive: the growth exponent of a cost with input
/// size. `0.0` when fewer than three usable points or no spread in x.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 3 {
        return 0.0;
    }
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx < 1e-12 {
        0.0
    } else {
        sxy / sxx
    }
}

/// FNV-1a over a byte stream: the corpus fingerprint. Kept local so a
/// change to the program's own hashing cannot change the fingerprint.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The process's resident high-water mark in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_mem_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A small deterministic generator for benchmark-side draws (sizes,
/// request classes, delta shapes), independent of the program's RNG.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(beyond(&xs, 90.0), 10);
        assert_eq!(tail(&xs, 99.0), (90.0, 90.0));
        assert_eq!(tail(&xs[..15], 99.0).1, 50.0);
        assert_eq!(windowed(&xs, 4, median), 38.0);
    }

    #[test]
    fn slope_of_a_power_law() {
        let pts: Vec<(f64, f64)> = (1..10)
            .map(|i| (f64::from(i), f64::from(i).powi(3)))
            .collect();
        assert!((loglog_slope(&pts) - 3.0).abs() < 1e-9);
    }
}
