//! Order statistics and process-level measurements.

/// Median of `v` (0 for an empty slice); the mean of the middle pair for
/// an even count.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Exact nearest-rank percentile over a sorted slice, in tenths of a
/// percent (`p10 = 990` is p99). The same rank rule as the serving
/// harness's modeled percentiles, so host and modeled figures line up.
pub fn percentile_sorted(sorted: &[u64], p10: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (p10 * (sorted.len() as u64 - 1)) / 1000;
    sorted[idx as usize]
}

/// Peak resident set size of this process in MiB, from `VmHWM` in
/// `/proc/self/status` (0 where that file does not exist).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
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
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 500), 500);
        assert_eq!(percentile_sorted(&v, 990), 990);
        assert_eq!(percentile_sorted(&v, 999), 999);
        assert_eq!(percentile_sorted(&[], 500), 0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
