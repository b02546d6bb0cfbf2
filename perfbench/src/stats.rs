//! Order statistics over latency samples and the run's result line.

use std::collections::BTreeMap;
use std::time::Duration;

/// Milliseconds in `d`, with full precision.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`p` in 0..=100) of `samples`; 0 when empty.
/// With `n` samples, the p99 leaves `n / 100` samples above it, so a p99
/// is only reported from runs with at least 1,000 samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank) of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Operation counts and named metrics of one run; renders the final
/// result line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed self-checks (counters that did not repeat, a cache hit rate
    /// off its expected value). Any makes the run incorrect.
    pub check_failures: Vec<String>,
    metrics: BTreeMap<String, f64>,
}

impl Report {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    pub fn fail_check(&mut self, what: String) {
        eprintln!("self-check failed: {what}");
        self.check_failures.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// metrics named in `keep` (in that order), each with its unit.
    pub fn to_json(&self, keep: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = keep
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name);
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_ten_samples_above_p99_of_1000() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), 990.0);
        assert_eq!(percentile(&samples, 50.0), 500.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
