//! Metric names, sample statistics, and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by every workload when tracing is off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_share", "ratio"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("nodes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload when tracing is on. Times
/// are medians per call of the named public function; counts are medians
/// per operation.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("views.refine.ms", "ms"),
    ("views.sharded.levels_ms", "ms"),
    ("graph.canon.ms", "ms"),
    ("election.advice_build.ms", "ms"),
    ("election.advice_build.decode_ms", "ms"),
    ("election.elect.ms", "ms"),
    ("election.verify.ms", "ms"),
    ("election.instance.ecc_ms", "ms"),
    ("service.protocol.parse_ms", "ms"),
    ("service.engine.hit_ms", "ms"),
    ("service.engine.miss_ms", "ms"),
    ("service.server.io_ms", "ms"),
    ("election.advice_build.bits", "count"),
    ("sim.com.messages", "count"),
    ("sim.com.message_words", "count"),
    ("views.sharded.distinct_views", "count"),
    ("views.refine.stable_depth", "count"),
    ("graph.canon.classes", "count"),
    ("service.cache.evictions", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("election.instance.analyses_per_session", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `v` (mean of the two middle samples for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The tail sample: p99 when at least ten samples lie beyond it, otherwise
/// the sample with exactly ten above it, but never below the median (so
/// the maximum when there are fewer than eleven). Returns the value and
/// the quantile it sits at.
pub fn tail(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "tail of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let p99 = (0.99 * n as f64).ceil() as usize - 1;
    let rank = if n < 11 {
        n - 1
    } else {
        p99.min(n - 11).max(n / 2)
    };
    (s[rank], (rank + 1) as f64 / n as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Samples per layer, filled by the traced runs.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Times `f` and records its wall time in ms under `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.push(name, ms_since(t));
        out
    }

    /// Records one sample under `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Sum of the samples under `name` (0 when none).
    pub fn sum(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// Moves every layer's median into `report`, and notes it as `label`
    /// with its sample count.
    pub fn publish(&self, label: &str, report: &mut Report) {
        for (name, v) in &self.samples {
            if v.is_empty() {
                continue;
            }
            report.set(name, median(v));
            report.note(format!(
                "{label} {name}: median {:.4} over {} sample(s), total {:.1}",
                median(v),
                v.len(),
                v.iter().sum::<f64>()
            ));
        }
    }
}

/// What one run found: operation counts, metric values and notes.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (elections, analyses, jobs, checks).
    pub attempted: u64,
    /// Operations whose output failed its correctness check.
    pub failed: u64,
    /// Set when the run cannot be trusted (e.g. the load generator fell
    /// behind its schedule).
    pub invalid: Option<String>,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Adds a human-readable line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one checked operation; a failed check is noted with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                let line = format!("FAILED: {}", why());
                self.note(line);
            }
        }
    }

    /// The notes, in order.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Sets `ok_share` from the check counts.
    pub fn set_ok_share(&mut self) {
        let share = if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        };
        self.set("ok_share", share);
    }

    /// The result line: the metrics of `names`, or an error naming the
    /// first one missing or not finite.
    pub fn result_line(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.failed == 0 && self.invalid.is_none() && self.attempted > 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few), (5.0, 1.0));
        let some: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&some).0, 40.0, "ten samples above the tail");
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many).0, 1980.0, "p99 once it has ten beyond it");
    }

    #[test]
    fn a_missing_metric_refuses_the_result_line() {
        let mut r = Report::default();
        r.set("a", 1.5);
        assert!(r.result_line(&[("a", "ms")]).is_ok());
        assert!(r.result_line(&[("a", "ms"), ("b", "ms")]).is_err());
    }
}
