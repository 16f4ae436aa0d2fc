//! Percentiles, `/proc/self` readers and the result line.

use std::fmt::Write as _;

/// The `q`-quantile of `sorted`, interpolated between neighbours.
///
/// # Panics
///
/// Panics when `sorted` is empty: every metric is backed by samples.
pub fn quantile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let (a, b): (f64, f64) = (sorted[lo].into(), sorted[hi].into());
    a + (b - a) * (pos - lo as f64)
}

/// Sorts `samples` and returns their `q`-quantile.
pub fn quantile_of<T: Copy + Into<f64> + PartialOrd>(samples: &mut [T], q: f64) -> f64 {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN among samples"));
    quantile(samples, q)
}

pub fn median_of<T: Copy + Into<f64> + PartialOrd>(samples: &mut [T]) -> f64 {
    quantile_of(samples, 0.5)
}

/// The mean of the `k` best of `values`: the highest when
/// `higher_is_better`, else the lowest.
pub fn best_mean(values: &[f64], k: usize, higher_is_better: bool) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN among samples"));
    if higher_is_better {
        sorted.reverse();
    }
    let best = &sorted[..k.min(sorted.len())];
    best.iter().sum::<f64>() / best.len() as f64
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn rss_peak_mb() -> f64 {
    status_field("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Voluntary plus involuntary context switches of the whole process.
pub fn context_switches() -> u64 {
    let mut total = 0;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
                for line in status.lines() {
                    if line.starts_with("voluntary_ctxt_switches:")
                        || line.starts_with("nonvoluntary_ctxt_switches:")
                    {
                        total += line
                            .split_whitespace()
                            .nth(1)
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(0);
                    }
                }
            }
        }
    }
    total
}

/// CPU time of every thread of the process, in milliseconds, from the
/// scheduler's nanosecond run-time counters (`/proc/self/stat` counts
/// in 10 ms ticks, too coarse for a two-second window).
pub fn cpu_ms() -> f64 {
    let mut nanos = 0u64;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return f64::NAN;
    };
    for task in tasks.flatten() {
        if let Ok(schedstat) = std::fs::read_to_string(task.path().join("schedstat")) {
            nanos += schedstat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    nanos as f64 / 1e6
}

/// How the table marks a count that repeats exactly for a seed.
pub const EXACT: &str = "= exact for a seed";

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Shown beside the value in the table, e.g. a sample count.
    pub note: String,
}

/// Named metrics in report order.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

/// What a run hands back: its metrics and its operation counts.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (the first few).
    pub messages: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push_noted(name, value, unit, String::new());
    }

    pub fn push_noted(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// A count that must repeat exactly for a given seed; the table
    /// marks it, and the crate's test holds it to that.
    pub fn push_exact(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push_noted(name, value, unit, EXACT.to_string());
    }

    /// The table a person reads.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<36} {:>16.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        out
    }

    /// The one-line JSON result the driver reads.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (k, m) in self.metrics.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            // JSON has no NaN or infinity; a metric that could not be
            // measured must not pass for a number.
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
