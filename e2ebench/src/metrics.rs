//! Metric helpers: percentiles with their tail sample counts, metric names
//! and units, peak memory, and the one-line JSON result.

use std::fmt::Write as _;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// Nearest-rank index of quantile `q` in `n` sorted samples (`n > 0`).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile `q` (in `(0, 1]`) of `sorted`; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank quantile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The smallest sample count that reports quantile `q` with
/// [`MIN_TAIL_SAMPLES`] beyond it.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= MIN_TAIL_SAMPLES)
        .expect("some sample count always suffices")
}

/// A set of latency samples, sorted once.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn p(&self, q: f64) -> f64 {
        percentile(&self.0, q)
    }

    pub fn median(&self) -> f64 {
        self.p(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// A one-line account of the sample count behind quantile `q`, for
    /// the human-readable report.
    pub fn tail_note(&self, what: &str, q: f64) -> String {
        let beyond = samples_beyond(self.len(), q);
        let flag = if beyond >= MIN_TAIL_SAMPLES {
            ""
        } else {
            " (too few for this percentile)"
        };
        format!(
            "{what}: {} samples, {beyond} beyond p{}{flag}",
            self.len(),
            q * 100.0
        )
    }
}

/// Median of a small set (e.g. repeated set-up timings).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metric names are `[A-Za-z0-9_.-]+`, at most 64 characters, starting
/// with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units are at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// the platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    /// A non-finite value is written as 0 and marks the run incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// A table of every metric with its unit, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.p(0.99), 99.0);
        assert_eq!(s.p(1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(Samples::new(vec![3.0]).p(0.99), 3.0);
    }

    #[test]
    fn tail_counts_follow_the_ten_sample_rule() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.999), 10_000);
        let s = Samples::new(vec![1.0; 1000]);
        assert!(s.tail_note("job wall", 0.99).contains("10 beyond p99"));
        let s = Samples::new(vec![1.0; 500]);
        assert!(s.tail_note("job wall", 0.99).contains("too few"));
    }

    #[test]
    fn names_and_units_are_checked() {
        assert!(valid_name("metadata.lookup_ms"));
        assert!(valid_name("9-lives"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("net/lookup"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit("ops per s"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric::new("latency_ms", "ms", 1.25),
                Metric::new("setup_s", "s", 2.0),
            ],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        let bad = RunResult {
            metrics: vec![Metric::new("x", "s", f64::NAN)],
            ..r
        };
        assert!(bad.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_mb() > 0.0);
    }
}
