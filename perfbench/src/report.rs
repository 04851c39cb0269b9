//! Run outcome bookkeeping, summary statistics, fingerprints and the
//! result line.

use crate::schema::{self, MetricDecl};
use autopilot_obs::json::Value;
use std::collections::BTreeMap;

/// Counts of operations and checks a run attempted and how many failed,
/// plus the metric values it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable notes printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one attempted operation or check; `ok == false` counts it
    /// as failed and prints `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let message = what();
            eprintln!("perfbench: FAILED {message}");
            self.notes.push(format!("FAILED {message}"));
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line: every declared metric for this kind of run, in
    /// declaration order. A metric the run did not produce is a failure.
    pub fn result_json(&mut self, trace: bool) -> String {
        let mut metrics = Vec::new();
        for MetricDecl { name, unit, .. } in schema::declared(trace) {
            let value = self.metrics.get(name).copied();
            let finite = value.is_some_and(f64::is_finite);
            self.check(finite, || format!("metric {name} missing or not finite"));
            metrics.push((
                (*name).to_owned(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(value.filter(|v| v.is_finite()).unwrap_or(0.0))),
                    ("unit".into(), Value::Str((*unit).to_owned())),
                ]),
            ));
        }
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), Value::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
        .to_json()
    }
}

/// The median of `values` (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (0 for an empty slice).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The interquartile mean: the mean of the middle half of `values` once
/// sorted, dropping the lowest and highest `n / 4`. Unlike the median it
/// does not jump when the values fall on a few discrete steps, and unlike
/// the mean one slow outlier barely moves it.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// The arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// FNV-1a over 64-bit words: a cheap order-sensitive fingerprint of a
/// run's evaluation history and selections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn bytes(&mut self, s: &[u8]) {
        self.word(s.len() as u64);
        for &b in s {
            self.word(u64::from(b));
        }
    }
}

/// Peak resident set size of this process in MiB so far, from `VmHWM`
/// (NaN, which fails the run, where `/proc` does not report it).
pub fn peak_rss_mb() -> f64 {
    let read = || -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse::<f64>().ok()
    };
    read().map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(interquartile_mean(&[9.0, 1.0, 2.0, 3.0, 100.0, 2.0, 3.0, 2.0]), 2.5);
        assert_eq!(interquartile_mean(&[4.0, 2.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn missing_metrics_fail_the_run() {
        let mut out = Outcome::default();
        let line = out.result_json(false);
        assert!(line.contains("\"correct\":false"));
        assert_eq!(out.failed as usize, schema::END_TO_END.len());
    }
}
