//! Telemetry smoke check for `scripts/verify.sh`: runs a small
//! fig5-style scenario (two UAVs sharing one pipeline cache) with
//! metrics forced on, writes the telemetry snapshot, parses it back with
//! the zero-dep JSON reader, and asserts the schema carries non-zero
//! span and cache-counter data. Exits non-zero on any violation.

use air_sim::ObstacleDensity;
use autopilot::{AutoPilot, AutopilotConfig, OptimizerChoice, PipelineCache, TaskSpec};
use autopilot_obs as obs;
use std::sync::Arc;
use uav_dynamics::UavSpec;

fn main() {
    obs::force_metrics(true);
    obs::reset();

    let task = TaskSpec::navigation(ObstacleDensity::Dense);
    let cache = Arc::new(PipelineCache::new());
    let config = AutopilotConfig::fast(5).with_optimizer(OptimizerChoice::Random).with_budget(16);
    let pilot = AutoPilot::new(config).with_cache(Arc::clone(&cache));
    // Two UAVs, one scenario: the second run must hit the phase-2 cache.
    let nano = pilot.run(&UavSpec::nano(), &task).expect("nano pipeline runs");
    let micro = pilot.run(&UavSpec::micro(), &task).expect("micro pipeline runs");
    assert_eq!(nano.phase2.candidates, micro.phase2.candidates, "shared-cache runs must agree");

    let path = autopilot_bench::write_telemetry("obs_smoke").expect("telemetry written");
    let text = std::fs::read_to_string(&path).expect("telemetry readable");
    let snap = obs::Snapshot::from_json(&text).expect("telemetry parses");

    assert!(snap.span("pipeline.run").is_some(), "pipeline.run span missing");
    assert!(snap.span_total_s("pipeline.run") > 0.0, "pipeline.run span has no time");
    assert!(
        snap.span("pipeline.run/phase2.run").is_some(),
        "nested pipeline.run/phase2.run span missing"
    );
    assert!(snap.counter("pipeline.phase2_cache.hits") > 0, "phase2 pipeline cache never hit");
    assert!(snap.counter("systolic.layers") > 0, "systolic simulator not instrumented");
    let hist = snap.histogram("systolic.cycles_per_layer").expect("cycle histogram missing");

    // Derived quantiles: monotone, inside the observed extremes, and
    // present in the serialized telemetry.
    let (p50, p95, p99) = (hist.quantile(0.50), hist.quantile(0.95), hist.quantile(0.99));
    assert!(hist.min <= p50, "p50 {p50} below histogram min {}", hist.min);
    assert!(p50 <= p95 && p95 <= p99, "quantiles not monotone: {p50} {p95} {p99}");
    assert!(p99 <= hist.max, "p99 {p99} above histogram max {}", hist.max);
    for key in ["\"p50\":", "\"p95\":", "\"p99\":"] {
        assert!(text.contains(key), "telemetry JSON missing {key} field");
    }

    // The snapshot must survive a JSON round-trip bit-for-bit.
    assert_eq!(text, snap.to_json(), "telemetry JSON round-trip mismatch");

    println!(
        "obs smoke OK: {} ({} spans, {} counters)",
        path.display(),
        snap.spans.len(),
        snap.counters.len()
    );
}
