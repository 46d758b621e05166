//! Small numeric and process helpers shared by the workloads.

use std::collections::BTreeMap;

/// Median of `values` (mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 for an empty
/// slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Largest value; 0 for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of process `pid` (`"self"` for this one), in
/// MiB, from `/proc/<pid>/status` (`VmHWM`). 0 where unavailable.
pub fn rss_peak_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
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
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time, user plus system, that process `pid` and its threads,
/// live and exited, have used so far, in seconds, from
/// `/proc/<pid>/stat` (clock ticks of 1/100 s). 0 where unavailable.
pub fn cpu_s(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesized command name start at field 3;
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => 0.0,
    }
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic stream of pseudo-random numbers for building
/// workload inputs (request mixes, samples).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0x5EED)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle of `v`.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for k in (1..v.len()).rev() {
            v.swap(k, self.below(k + 1));
        }
    }
}

/// Per-site span totals `(count, sum_ns)` from the process registry.
pub type SpanTotals = BTreeMap<String, (u64, u64)>;

/// Snapshot of every span histogram (`adi_span_<site>_ns`) in this
/// process, keyed by site name with dots folded to underscores.
pub fn span_totals() -> SpanTotals {
    adi_obs::registry()
        .histogram_snapshots()
        .into_iter()
        .filter_map(|(name, s)| {
            let site = name.strip_prefix("adi_span_")?.strip_suffix("_ns")?;
            Some((site.to_string(), (s.count, s.sum)))
        })
        .collect()
}

/// `after - before`, per site.
pub fn span_delta(before: &SpanTotals, after: &SpanTotals) -> SpanTotals {
    after
        .iter()
        .map(|(k, &(c, s))| {
            let (c0, s0) = before.get(k).copied().unwrap_or((0, 0));
            (k.clone(), (c - c0, s - s0))
        })
        .filter(|(_, (c, _))| *c > 0)
        .collect()
}

/// Seconds recorded at `site` in `totals` (0 when absent).
pub fn span_s(totals: &SpanTotals, site: &str) -> f64 {
    totals.get(site).map_or(0.0, |&(_, ns)| ns as f64 * 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn cpu_time_of_this_process_grows() {
        let before = cpu_s("self");
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 100 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s("self") > before);
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 1));
        let mut r = Rng::new(7);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }
}
