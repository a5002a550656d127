//! Metrics, summary statistics and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// No run returned an unsound answer, every traced run matched its
    /// untraced twin, the layer sum held and every non-vacuity assertion
    /// held.
    pub correct: bool,
    /// Query runs (or sessions) checked against their Exhaustive reference.
    pub attempted: usize,
    /// Of those, the runs whose `certain` flag or answers differ from the
    /// reference.
    pub failed: usize,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line: sample counts,
    /// failures and the reason a check failed.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed check: the run is not correct, and `why` says why.
    pub fn fail_check(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no NaN or infinity: a non-finite value (which also
            // fails the run's checks) is written as null.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The nearest-rank `p`-quantile of `samples` (0 for no samples): the
/// smallest sample at sorted rank `⌈p·n⌉`.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The linearly interpolated `p`-quantile of `samples` (0 for no samples):
/// the value at position `p·(n − 1)` of the sorted samples, between the two
/// samples around it. With few samples it moves less than a nearest-rank
/// quantile, which jumps from one sample to the next (the p90 of four
/// samples would be their maximum).
pub fn interpolated_quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process, in MiB, from `/proc`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.9), 5.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn interpolated_quantiles() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(interpolated_quantile(&s, 0.5), 2.5);
        assert!((interpolated_quantile(&s, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(interpolated_quantile(&s, 0.0), 1.0);
        assert_eq!(interpolated_quantile(&s, 1.0), 4.0);
        assert_eq!(interpolated_quantile(&[7.0], 0.9), 7.0);
        assert_eq!(interpolated_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = RunResult {
            correct: true,
            attempted: 2,
            ..RunResult::default()
        };
        r.metric("setup_s", 0.5, "s");
        r.metric("query_ms_p50", 1.25, "ms");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"query_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn non_finite_values_are_written_as_null() {
        let mut r = RunResult::default();
        r.metric("peak_rss_mb", f64::NAN, "MiB");
        r.metric("trace.overhead_frac", f64::INFINITY, "ratio");
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 0, \"failed\": 0, \"metrics\": \
             {\"peak_rss_mb\": {\"value\": null, \"unit\": \"MiB\"}, \
             \"trace.overhead_frac\": {\"value\": null, \"unit\": \"ratio\"}}}"
        );
    }
}
