//! Summary statistics: medians, quantiles, tail percentiles with their
//! sample support, and the paper's seconds-per-simulated-day conversion.

/// Median of `values` (mean of the two middle values for an even
/// count). `NaN` for an empty slice, where `agcm_bench::history::median`
/// gives 0: a metric with no samples then fails the catalogue check
/// instead of reading as a measured 0.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` (`q` in `[0, 1]`), linearly interpolated
/// between the two closest ranks of the sorted sample. `NaN` for an
/// empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest of the usual reporting percentiles (50, 90, 99, 99.9)
/// that leaves at least ten samples beyond it, so a tail figure is never
/// read off a handful of points. `None` below 20 samples.
pub fn highest_supported_percentile(count: usize) -> Option<f64> {
    // In tenths of a percent, so the count test is exact.
    [999, 990, 900, 500]
        .into_iter()
        .find(|&p| count * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Whether `count` samples leave at least ten beyond the `q`-quantile.
fn supports(count: usize, q: f64) -> bool {
    count as f64 * (1.0 - q) >= 10.0 - 1e-9
}

/// Group `(time, value)` samples into `n` equal time windows over
/// `[0, span)`; later samples fall in the last window.
pub fn windows<T: Copy>(samples: &[(f64, T)], span: f64, n: usize) -> Vec<Vec<T>> {
    let mut out = vec![Vec::new(); n];
    for &(t, v) in samples {
        let w = ((t / span * n as f64).max(0.0) as usize).min(n - 1);
        out[w].push(v);
    }
    out
}

/// Rate of `(time, weight)` completions in `[0, span)`: in each of `n`
/// equal windows, the weight completed after the window's first
/// completion up to its last, per second between the two; the median
/// across windows with at least two completions. Weight 1 gives
/// completions per second.
pub fn windowed_rate(done: &[(f64, f64)], span: f64, n: usize) -> f64 {
    let in_span: Vec<(f64, (f64, f64))> = done
        .iter()
        .filter(|&&(t, _)| t < span)
        .map(|&(t, w)| (t, (t, w)))
        .collect();
    let rates: Vec<f64> = windows(&in_span, span, n)
        .into_iter()
        .filter(|w| w.len() >= 2)
        .map(|mut w| {
            w.sort_by(|a, b| a.0.total_cmp(&b.0));
            let after_first: f64 = w[1..].iter().map(|&(_, weight)| weight).sum();
            after_first / (w[w.len() - 1].0 - w[0].0)
        })
        .collect();
    median(&rates)
}

/// The `q`-quantile taken in each window that holds enough samples for
/// it (ten beyond the quantile), summarized by the median across those
/// windows; the pooled quantile when no window qualifies. A host
/// slowdown that covers part of a run moves this less than it moves
/// the pooled quantile. Returns the estimate and the windows used.
pub fn windowed_quantile(windows: &[Vec<f64>], q: f64) -> (f64, usize) {
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| supports(w.len(), q))
        .map(|w| quantile(w, q))
        .collect();
    if per_window.is_empty() {
        (quantile(&windows.concat(), q), 0)
    } else {
        (median(&per_window), per_window.len())
    }
}

/// Median and 90th percentile of a latency sample, each estimated per
/// time window, with the sample count and the highest percentile the
/// pooled count supports.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Highest percentile with at least ten samples beyond it.
    pub supported: Option<f64>,
    /// Windows that contributed to `p50` and `p90` (0: pooled).
    pub windows: (usize, usize),
}

impl Latency {
    /// Summarize windowed samples.
    pub fn of(windows: &[Vec<f64>]) -> Latency {
        let (p50, w50) = windowed_quantile(windows, 0.5);
        let (p90, w90) = windowed_quantile(windows, 0.9);
        let count = windows.iter().map(Vec::len).sum();
        Latency {
            count,
            p50,
            p90,
            supported: highest_supported_percentile(count),
            windows: (w50, w90),
        }
    }

    /// One human-readable line for the run log.
    pub fn describe(&self, name: &str) -> String {
        let supported = self
            .supported
            .map_or("none".to_string(), |p| format!("p{p}"));
        format!(
            "{name}: n={} p50={:.4} ({} windows) p90={:.4} ({} windows); highest supported percentile {supported}",
            self.count, self.p50, self.windows.0, self.p90, self.windows.1
        )
    }
}

/// Wall seconds per simulated day from the per-step wall time: the
/// paper's headline unit (Tables 4–11).
pub fn sim_day_seconds(step_seconds: f64, steps_per_day: f64) -> f64 {
    step_seconds * steps_per_day
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert!((quantile(&v, 0.25) - 2.5).abs() < 1e-12);
        assert!((quantile(&[1.0, 2.0], 0.75) - 1.75).abs() < 1e-12);
        // Out-of-range q clamps instead of indexing past the ends.
        assert_eq!(quantile(&v, 1.5), 10.0);
        assert_eq!(quantile(&v, -1.0), 0.0);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let v = [5.0, 0.1, 3.3, 9.9, 2.2, 7.7, 1.1];
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let x = quantile(&v, i as f64 / 20.0);
            assert!(x >= prev);
            prev = x;
        }
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn latency_summary_reports_count_and_support() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = Latency::of(&[v]);
        assert_eq!(l.count, 100);
        assert!((l.p50 - 50.5).abs() < 1e-12);
        assert!((l.p90 - 90.1).abs() < 1e-12);
        assert_eq!(l.supported, Some(90.0));
        assert_eq!(l.windows, (1, 1));
    }

    #[test]
    fn windows_split_by_time() {
        let samples = [(0.0, 1.0), (0.9, 2.0), (1.0, 3.0), (2.5, 4.0), (7.0, 5.0)];
        let w = windows(&samples, 3.0, 3);
        assert_eq!(w, vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0]]);
    }

    #[test]
    fn windowed_rate_counts_weight_after_each_windows_first_completion() {
        // Window [0, 5): completions at 1, 2, 3 -> 2 per 2 s. Window
        // [5, 10): 5, 9 with weight 4 at 9 -> 4 per 4 s. Median 1.
        let done = [
            (1.0, 1.0),
            (2.0, 1.0),
            (3.0, 1.0),
            (5.0, 1.0),
            (9.0, 4.0),
            (12.0, 1.0),
        ];
        assert_eq!(windowed_rate(&done, 10.0, 2), 1.0);
        assert_eq!(windowed_rate(&done[..3], 10.0, 2), 1.0);
        assert!(windowed_rate(&done[..1], 10.0, 2).is_nan());
    }

    #[test]
    fn windowed_quantile_resists_a_slow_window() {
        // Four steady windows and one where everything took 3x longer.
        let steady: Vec<f64> = (0..200).map(|i| 1.0 + i as f64 / 200.0).collect();
        let slow: Vec<f64> = steady.iter().map(|v| v * 3.0).collect();
        let w = vec![
            steady.clone(),
            steady.clone(),
            slow,
            steady.clone(),
            steady.clone(),
        ];
        let (p90, used) = windowed_quantile(&w, 0.9);
        assert_eq!(used, 5);
        assert!((p90 - quantile(&steady, 0.9)).abs() < 1e-12);
        assert!(quantile(&w.concat(), 0.9) > 2.0 * p90);
        // Too few samples per window for a p90: fall back to pooling.
        let thin = vec![vec![1.0; 50], vec![2.0; 50]];
        assert_eq!(windowed_quantile(&thin, 0.9), (2.0, 0));
        assert_eq!(windowed_quantile(&thin, 0.5).1, 2);
    }

    #[test]
    fn sim_day_conversion() {
        // 10 ms per step at the paper grid's ~401 steps per day.
        let cfg = agcm_core::AgcmConfig::paper(1, 2, agcm_filtering::driver::FilterVariant::LbFft);
        let spd = cfg.steps_per_day();
        assert!((spd - 86_400.0 / cfg.dt).abs() < 1e-9);
        assert!(spd > 390.0 && spd < 410.0, "steps per day {spd}");
        assert!((sim_day_seconds(0.010, spd) - 0.010 * spd).abs() < 1e-12);
        assert_eq!(sim_day_seconds(0.5, 48.0), 24.0);
        assert_eq!(sim_day_seconds(0.0, 401.0), 0.0);
    }
}
