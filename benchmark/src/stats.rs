//! Order statistics: percentiles of samples, medians and quartiles of
//! sub-window values.

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts in place and returns the nearest-rank percentile.
pub fn percentile_of(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile(samples, p)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// `agree` and `compare` compute the spread the way the driver does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Quartiles of `values` (any order). One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let cut = |k: usize| {
        // Python: j = k*(n+1) // 4, clamped to 1..n-1; delta = k*(n+1) - 4j.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Splits `[start, start + n_windows * width)` into equal sub-windows and
/// returns, per sub-window, the samples whose timestamp falls in it.
/// Samples are `(timestamp_ns, value)`; those outside are dropped.
pub fn sub_windows(
    samples: &[(u64, f64)],
    start_ns: u64,
    width_ns: u64,
    n_windows: usize,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); n_windows];
    for &(t, v) in samples {
        if t < start_ns {
            continue;
        }
        let w = ((t - start_ns) / width_ns) as usize;
        if w < n_windows {
            out[w].push(v);
        }
    }
    out
}

/// Sub-windows the measured window is cut into; a windowed metric is the
/// median of their values, which a stall of the host has to cover half of
/// before it moves.
pub const SUB_WINDOWS: usize = 20;
/// Sub-windows for the 99th percentile, which needs more samples each.
pub const P99_WINDOWS: usize = 5;

/// `(warm_ns, sub_ns)` of a measured window of `seconds`: the warm-up
/// before it (two sub-windows, 0.2 s at least) and a sub-window's length.
pub fn window_plan(seconds: f64) -> (u64, u64) {
    let sub_ns = (seconds * 1e9) as u64 / SUB_WINDOWS as u64;
    ((2 * sub_ns).max(200_000_000), sub_ns)
}

/// Per sub-window between consecutive `boundaries`: completions per
/// second, and CPU milliseconds (sampled at the boundaries) per completion.
/// `samples` are `(completion time, value)`.
pub fn rates(
    boundaries: &[u64],
    cpu_ms: &[f64],
    samples: &[(u64, f64)],
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut per_s = Vec::new();
    let mut cpu_ms_each = Vec::new();
    for (i, (span, cpu)) in boundaries.windows(2).zip(cpu_ms.windows(2)).enumerate() {
        let n = samples
            .iter()
            .filter(|(t, _)| *t >= span[0] && *t < span[1])
            .count();
        if n == 0 {
            return Err(format!("nothing completed in sub-window {i}"));
        }
        per_s.push(n as f64 / ((span[1] - span[0]) as f64 / 1e9));
        cpu_ms_each.push((cpu[1] - cpu[0]) / n as f64);
    }
    Ok((per_s, cpu_ms_each))
}

/// The `p`th percentile of `samples` inside each of `windows` equal
/// sub-windows of `[start, end)`. A sub-window without a sample has no
/// percentile and is left out (acknowledgements come in batches, and a
/// `--smoke` sub-window is 50 ms); [`rates`] is what notices a stall.
pub fn windowed_percentile(
    samples: &[(u64, f64)],
    (start, end): (u64, u64),
    windows: usize,
    p: f64,
) -> Result<Vec<f64>, String> {
    let each: Vec<f64> = sub_windows(samples, start, (end - start) / windows as u64, windows)
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|mut s| percentile_of(&mut s, p))
        .collect();
    if each.is_empty() {
        return Err("no sample in the window".to_string());
    }
    Ok(each)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let mut unsorted = vec![5.0, 1.0, 3.0];
        assert_eq!(percentile_of(&mut unsorted, 50.0), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = quartiles(&[10.0, 20.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        assert!((quartiles(&v).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rates_and_percentiles_per_sub_window() {
        let boundaries = [0, 1_000_000_000, 3_000_000_000];
        let cpu = [10.0, 14.0, 20.0];
        let samples = [
            (5, 1.0),
            (999_999_999, 3.0),
            (1_000_000_000, 5.0),
            (3_000_000_000, 9.0),
        ];
        let (per_s, cpu_each) = rates(&boundaries, &cpu, &samples).unwrap();
        assert_eq!(per_s, vec![2.0, 0.5]);
        assert_eq!(cpu_each, vec![2.0, 6.0]);
        assert!(rates(&boundaries, &cpu, &samples[..2]).is_err());
        let p50 = windowed_percentile(&samples, (0, 2_000_000_000), 2, 50.0).unwrap();
        assert_eq!(p50, vec![1.0, 5.0]);
        // An empty sub-window is left out; an empty window is an error.
        let p50 = windowed_percentile(&samples, (0, 4_000_000_000), 4, 50.0).unwrap();
        assert_eq!(p50, vec![1.0, 5.0, 9.0]);
        assert!(windowed_percentile(&samples, (4_000_000_000, 5_000_000_000), 2, 50.0).is_err());
        assert_eq!(window_plan(20.0), (2_000_000_000, 1_000_000_000));
        assert_eq!(window_plan(1.0), (200_000_000, 50_000_000));
    }

    #[test]
    fn sub_window_median_and_quartiles() {
        // Three 10 ns windows from t=100; one sample early, one late.
        let samples = [
            (90, 9.0),
            (100, 1.0),
            (109, 3.0),
            (110, 5.0),
            (125, 7.0),
            (130, 9.0),
        ];
        let w = sub_windows(&samples, 100, 10, 3);
        assert_eq!(w, vec![vec![1.0, 3.0], vec![5.0], vec![7.0]]);
        let per_window: Vec<f64> = w.iter().map(|s| median(s)).collect();
        assert_eq!(per_window, vec![2.0, 5.0, 7.0]);
        assert_eq!(median(&per_window), 5.0);
    }
}
