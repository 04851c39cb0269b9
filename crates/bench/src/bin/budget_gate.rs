//! Perf-budget regression gate for `scripts/verify.sh`.
//!
//! ```text
//! budget_gate [<budgets.json>]
//! ```
//!
//! Reads the checked-in budget file (default
//! `results/BASELINE_budgets.json`) and evaluates each rule against the
//! freshly generated benchmark / telemetry JSON it names. A rule is
//!
//! ```text
//! { "name":   "human-readable label",
//!   "source": "timings_phase2_scale.json",           // under results/
//!   "metric": "exact_acquisition_ms_per_iteration",  // field of that file
//!   "max": 3.0 }                                     // and/or "min"
//! ```
//!
//! A rule with any other key, a non-string `name`/`source`/`metric`, a
//! non-numeric bound or no bound at all fails the load: a typo such as
//! `"mx"` must not quietly leave a bound ungated.
//!
//! Sources are the flat `BENCH_*.json` and `timings_*.json` objects
//! written by the probes; a `telemetry_*.json` source is read through the
//! snapshot schema, with the metric addressed as `counter:<name>`,
//! `gauge:<name>`, or `span_total:<name>`. Prints a PASS/FAIL table with the measured value
//! next to its bound and exits non-zero when any budget is breached —
//! the readable diff a perf regression should fail CI with.

use autopilot_obs as obs;
use obs::json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Pulls `metric` out of one results file, loading and caching it.
fn lookup(
    cache: &mut BTreeMap<String, Option<Value>>,
    source: &str,
    metric: &str,
) -> Result<f64, String> {
    let doc = cache
        .entry(source.to_owned())
        .or_insert_with(|| {
            let path = autopilot_bench::results_dir().join(source);
            std::fs::read_to_string(&path).ok().and_then(|t| Value::parse(&t).ok())
        })
        .as_ref()
        .ok_or_else(|| format!("source {source} missing or unparsable under results/"))?;

    if let Some(name) = metric.strip_prefix("counter:") {
        let snap = snapshot_of(doc, source)?;
        return Ok(snap.counter(name) as f64);
    }
    if let Some(name) = metric.strip_prefix("gauge:") {
        let snap = snapshot_of(doc, source)?;
        return snap
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("gauge {name} missing from {source}"));
    }
    if let Some(name) = metric.strip_prefix("span_total:") {
        let snap = snapshot_of(doc, source)?;
        return Ok(snap.span_total_s(name));
    }
    doc.get(metric)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("field {metric} missing from {source}"))
}

fn snapshot_of(doc: &Value, source: &str) -> Result<obs::Snapshot, String> {
    obs::Snapshot::from_json(&doc.to_json())
        .map_err(|e| format!("{source} is not a telemetry snapshot: {e}"))
}

/// One budget rule, validated at load.
#[derive(Debug)]
struct Rule<'a> {
    name: &'a str,
    source: &'a str,
    metric: &'a str,
    min: Option<f64>,
    max: Option<f64>,
}

impl<'a> Rule<'a> {
    const KEYS: [&'static str; 5] = ["name", "source", "metric", "min", "max"];

    fn parse(rule: &'a Value) -> Result<Rule<'a>, String> {
        let fields = rule.as_obj().ok_or("a rule must be a JSON object")?;
        if let Some((key, _)) = fields.iter().find(|(k, _)| !Self::KEYS.contains(&k.as_str())) {
            return Err(format!("unknown key \"{key}\" (allowed: {})", Self::KEYS.join(", ")));
        }
        let text = |key: &str| {
            rule.get(key).and_then(Value::as_str).ok_or(format!("needs a string \"{key}\""))
        };
        let bound = |key: &str| match rule.get(key) {
            None => Ok(None),
            Some(v) => v.as_f64().map(Some).ok_or(format!("\"{key}\" must be a number")),
        };
        let (min, max) = (bound("min")?, bound("max")?);
        if min.is_none() && max.is_none() {
            return Err("sets neither min nor max".into());
        }
        Ok(Rule { name: text("name")?, source: text("source")?, metric: text("metric")?, min, max })
    }

    fn admits(&self, v: f64) -> bool {
        self.min.is_none_or(|lo| v >= lo) && self.max.is_none_or(|hi| v <= hi)
    }

    fn bound(&self) -> String {
        match (self.min, self.max) {
            (Some(lo), Some(hi)) => format!("[{lo}, {hi}]"),
            (Some(lo), None) => format!(">= {lo}"),
            (None, Some(hi)) => format!("<= {hi}"),
            (None, None) => unreachable!("Rule::parse rejects a rule without bounds"),
        }
    }
}

fn main() -> ExitCode {
    let path =
        std::env::args().nth(1).unwrap_or_else(|| "results/BASELINE_budgets.json".to_owned());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("budget_gate: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Value::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("budget_gate: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rules = match doc.get("rules").and_then(Value::as_arr) {
        Some(r) if !r.is_empty() => r,
        _ => {
            eprintln!("budget_gate: {path} holds no rules");
            return ExitCode::FAILURE;
        }
    };
    // Every rule is validated before any is evaluated.
    let rules = match rules
        .iter()
        .enumerate()
        .map(|(i, r)| Rule::parse(r).map_err(|e| format!("rule #{i}: {e}")))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("budget_gate: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut cache: BTreeMap<String, Option<Value>> = BTreeMap::new();
    let mut table = autopilot_bench::TextTable::new(vec!["budget", "value", "bound", "status"]);
    let mut breaches = 0usize;
    for rule in &rules {
        let (value, ok) = match lookup(&mut cache, rule.source, rule.metric) {
            Ok(v) => (format!("{v:.4}"), rule.admits(v)),
            Err(e) => (format!("error: {e}"), false),
        };
        if !ok {
            breaches += 1;
        }
        let status = if ok { "PASS" } else { "FAIL" };
        table.row(vec![rule.name.to_owned(), value, rule.bound(), status.to_owned()]);
    }

    println!("perf budgets ({path}):\n{}", table.render());
    if breaches == 0 {
        println!("budget gate OK: {} budgets within bounds", rules.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("budget gate FAILED: {breaches} of {} budgets breached", rules.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<(String, Option<f64>, Option<f64>), String> {
        let doc = Value::parse(text).expect("test rule is JSON");
        Rule::parse(&doc).map(|r| (r.metric.to_owned(), r.min, r.max))
    }

    #[test]
    fn well_formed_rule_loads() {
        let rule =
            r#"{"name": "n", "source": "BENCH_phase2.json", "metric": "m", "min": 1, "max": 2}"#;
        assert_eq!(parse(rule), Ok(("m".to_owned(), Some(1.0), Some(2.0))));
        let doc = Value::parse(rule).expect("JSON");
        let rule = Rule::parse(&doc).expect("loads");
        assert!(rule.admits(1.5) && !rule.admits(0.5) && !rule.admits(2.5));
        assert_eq!(rule.bound(), "[1, 2]");
    }

    #[test]
    fn typo_key_is_a_load_error() {
        let err = parse(r#"{"name": "n", "source": "s", "metric": "m", "min": 1, "mx": 2}"#)
            .expect_err("a misspelled bound must not load");
        assert!(err.contains("\"mx\""), "{err}");
        let err =
            parse(r#"{"name": "n", "source": "s", "metric": "m", "denominator": "d", "min": 1}"#)
                .expect_err("denominator is no longer a rule key");
        assert!(err.contains("\"denominator\""), "{err}");
    }

    #[test]
    fn string_bound_is_a_load_error() {
        let err = parse(r#"{"name": "n", "source": "s", "metric": "m", "min": "1.0"}"#)
            .expect_err("a string bound must not load");
        assert!(err.contains("\"min\" must be a number"), "{err}");
    }

    #[test]
    fn missing_bound_or_field_is_a_load_error() {
        assert!(parse(r#"{"name": "n", "source": "s", "metric": "m"}"#).is_err());
        assert!(parse(r#"{"name": "n", "source": "s", "min": 1}"#).is_err());
        assert!(parse(r#"["not", "an", "object"]"#).is_err());
    }
}
