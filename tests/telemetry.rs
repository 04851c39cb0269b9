//! Telemetry regression tests: the obs instrumentation wired through the
//! pipeline must record real cache traffic and span timings, and the
//! snapshot schema must survive a JSON round-trip.
//!
//! These tests mutate the process-global obs registry, so they serialize
//! on one lock and assert on snapshot *deltas*, never absolute counts.

use air_sim::{AirLearningDatabase, ObstacleDensity};
use autopilot::{
    AutoPilot, AutopilotConfig, CandidateCache, DssocEvaluator, JobConfig, OptimizerChoice, Phase1,
    Phase2, PipelineCache, SuccessModel, TaskSpec,
};
use autopilot_obs as obs;
use dse_opt::Evaluator;
use std::sync::{Arc, Mutex, MutexGuard};
use uav_dynamics::UavSpec;

/// Serializes tests that toggle the global metrics gate.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn evaluator() -> DssocEvaluator {
    let mut db = AirLearningDatabase::new();
    Phase1::new(SuccessModel::Surrogate, 1).populate(ObstacleDensity::Dense, &mut db);
    DssocEvaluator::new(db, ObstacleDensity::Dense)
}

#[test]
fn repeated_scenario_run_records_candidate_cache_hits() {
    let _guard = guard();
    obs::force_metrics(true);
    let before = obs::snapshot();

    // Fig5-style repetition: the same scenario DSE twice against one
    // shared candidate cache — the second run must be pure hits, and the
    // obs counters must see that traffic.
    let ev = evaluator();
    let cache = CandidateCache::new();
    let phase2 = Phase2::new(OptimizerChoice::Random, 12, 4);
    let first = phase2.run_with_cache(&ev, &cache).expect("phase 2 runs");
    let second = phase2.run_with_cache(&ev, &cache).expect("phase 2 runs");
    assert_eq!(first.candidates, second.candidates);

    let after = obs::snapshot();
    let hits = after.counter("phase2.candidate_cache.hits")
        - before.counter("phase2.candidate_cache.hits");
    let misses = after.counter("phase2.candidate_cache.misses")
        - before.counter("phase2.candidate_cache.misses");
    assert!(hits > 0, "repeat run produced no candidate-cache hits");
    assert!(misses > 0, "first run produced no candidate-cache misses");
    assert_eq!(hits, second.cache_stats.hits, "obs delta must match cache stats");
    assert!(
        after.span_total_s("phase2.run") > before.span_total_s("phase2.run"),
        "phase2.run span recorded no time"
    );
}

#[test]
fn pipeline_cache_hits_are_counted_across_uavs() {
    let _guard = guard();
    obs::force_metrics(true);
    let before = obs::snapshot();

    let task = TaskSpec::navigation(ObstacleDensity::Medium);
    let cache = Arc::new(PipelineCache::new());
    let config = AutopilotConfig::fast(5).with_optimizer(OptimizerChoice::Random).with_budget(16);
    let pilot = AutoPilot::new(config).with_cache(Arc::clone(&cache));
    pilot.run(&UavSpec::nano(), &task).expect("pipeline runs");
    pilot.run(&UavSpec::micro(), &task).expect("pipeline runs");

    let after = obs::snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(delta("pipeline.phase2_cache.misses"), 1, "phase 2 must run once");
    assert_eq!(delta("pipeline.phase2_cache.hits"), 1, "second UAV must hit the phase-2 cache");
    assert_eq!(delta("pipeline.phase1_cache.hits"), 1, "second UAV must hit the phase-1 cache");
}

#[test]
fn obs_cache_counters_match_per_run_stats_exactly() {
    let _guard = guard();
    obs::force_metrics(true);

    // Regression: the obs cache counters used to read double the per-run
    // `cache_stats` in the timing probe because one snapshot spanned two
    // runs. Within a single run, every lookup must be counted exactly
    // once on exactly one of the hit/miss paths.
    let ev = evaluator();
    let phase2 = Phase2::new(OptimizerChoice::Random, 12, 9);
    let before = obs::snapshot();
    let out = phase2.run(&ev).expect("phase 2 runs");
    let after = obs::snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert_eq!(
        delta("phase2.candidate_cache.misses"),
        out.cache_stats.misses,
        "each cache miss must increment the obs counter exactly once"
    );
    assert_eq!(
        delta("phase2.candidate_cache.hits"),
        out.cache_stats.hits,
        "each cache hit must increment the obs counter exactly once"
    );
    assert_eq!(out.cache_stats.misses, out.result.evaluation_count() as u64);
}

#[test]
fn layer_memo_traffic_reaches_obs() {
    let _guard = guard();
    obs::force_metrics(true);

    let ev = evaluator();
    let before = obs::snapshot();
    let point = vec![5, 2, 3, 3, 3, 3, 3];
    ev.evaluate(&point).expect("legal point evaluates");
    ev.evaluate(&point).expect("legal point evaluates");
    let after = obs::snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let stats = ev.layer_memo_stats();
    if stats.hits == 0 {
        // Memo disabled via AUTOPILOT_LAYER_MEMO: nothing to check.
        return;
    }
    assert_eq!(delta("systolic.memo.misses"), stats.misses);
    assert_eq!(delta("systolic.memo.hits"), stats.hits);
    assert_eq!(
        delta("systolic.layers"),
        stats.misses,
        "the simulation counter must only count actual (memo-miss) simulations"
    );
}

#[test]
fn phase2_layers_simulated_equal_memo_misses() {
    let _guard = guard();
    obs::force_metrics(true);

    // Regression: `systolic_layers_simulated` used to read 0 against a
    // warm memo while the memo reported nonzero misses, because the obs
    // counter window and the cumulative memo stats covered different
    // intervals. Over the lifetime of a *fresh* evaluator the two views
    // must agree exactly: every actual simulation is a memo miss.
    let ev = evaluator();
    if !ev.layer_memo_enabled() {
        // Memo disabled via AUTOPILOT_LAYER_MEMO: invariant vacuous.
        return;
    }
    let before = obs::snapshot();
    let phase2 = Phase2::new(OptimizerChoice::Random, 24, 11);
    phase2.run(&ev).expect("phase 2 runs");
    let after = obs::snapshot();
    let layers = after.counter("systolic.layers") - before.counter("systolic.layers");
    let stats = ev.layer_memo_stats();
    assert!(stats.hits > 0, "a 24-point DSE must produce memo hits");
    assert_eq!(
        layers, stats.misses,
        "layers actually simulated must equal memo misses when the memo is on"
    );
}

#[test]
fn gp_window_plumbs_through_and_records_downdates() {
    let _guard = guard();
    obs::force_metrics(true);

    // Regression: the default exact-GP window equalled the sparse
    // threshold, so the window never slid and `bo.gp.downdate` stayed 0
    // forever. With an explicit window smaller than the budget the
    // incremental Cholesky downdate path must actually fire.
    let ev = evaluator();
    let before = obs::snapshot();
    let phase2 = Phase2::new(OptimizerChoice::SmsEgo, 24, 5).with_job_config(
        JobConfig::default().with_gp_window(10).with_surrogate(dse_opt::SurrogateMode::Exact),
    );
    phase2.run(&ev).expect("phase 2 runs");
    let after = obs::snapshot();
    let downdates = after.counter("bo.gp.downdate") - before.counter("bo.gp.downdate");
    assert!(
        downdates > 0,
        "a budget-24 SMS-EGO run with a 10-point GP window must slide the window"
    );
}

#[test]
fn sms_ego_run_records_column_cache_hits() {
    let _guard = guard();
    obs::force_metrics(true);

    // Front neighbours recur from one candidate pool to the next, so a
    // default SMS-EGO run must find some of their surrogate columns in
    // the cross-iteration cache (and miss on every random draw).
    let ev = evaluator();
    let before = obs::snapshot();
    Phase2::new(OptimizerChoice::SmsEgo, 32, 5).run(&ev).expect("phase 2 runs");
    let after = obs::snapshot();
    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert!(delta("bo.acquisition.column_cache.hit") > 0, "no column-cache hits");
    assert!(delta("bo.acquisition.column_cache.miss") > 0, "no column-cache misses");
}

#[test]
fn every_kernel_panel_is_timed_under_the_assembly_span() {
    let _guard = guard();
    obs::force_metrics(true);

    // Every panel the engine builds — fits, extends, candidate scoring —
    // runs under one `bo.gp.panel.assemble` span, so the span count and
    // the call counter move together, whatever span the panel nests in.
    let panel_spans = |snap: &obs::Snapshot| -> u64 {
        snap.spans
            .iter()
            .filter(|s| s.path.rsplit('/').next() == Some("bo.gp.panel.assemble"))
            .map(|s| s.count)
            .sum()
    };
    let ev = evaluator();
    let before = obs::snapshot();
    Phase2::new(OptimizerChoice::SmsEgo, 32, 5).run(&ev).expect("phase 2 runs");
    let after = obs::snapshot();
    let calls = after.counter("bo.gp.panel.calls") - before.counter("bo.gp.panel.calls");
    assert!(calls > 0, "an SMS-EGO run must assemble kernel panels");
    assert_eq!(panel_spans(&after) - panel_spans(&before), calls);
}

#[test]
fn telemetry_snapshot_round_trips_through_json() {
    let _guard = guard();
    obs::force_metrics(true);
    // Make sure there is real data of every kind in the registry.
    let ev = evaluator();
    ev.evaluate(&[5, 2, 3, 3, 3, 3, 3]).expect("legal point evaluates");
    obs::observe("telemetry.test_seconds", 0.125);
    obs::gauge_set("telemetry.test_gauge", -3.5);

    let snap = obs::snapshot();
    assert!(snap.counter("systolic.layers") > 0);
    let json = snap.to_json();
    let restored = obs::Snapshot::from_json(&json).expect("snapshot JSON parses");
    assert_eq!(restored.version, snap.version);
    assert_eq!(json, restored.to_json(), "round-trip must be lossless");
}

#[test]
fn disabled_metrics_record_nothing() {
    let _guard = guard();
    obs::force_metrics(false);
    let before = obs::snapshot();
    let ev = evaluator();
    ev.evaluate(&[5, 2, 2, 2, 2, 2, 2]).expect("legal point evaluates");
    let after = obs::snapshot();
    assert_eq!(
        before.counter("systolic.layers"),
        after.counter("systolic.layers"),
        "gated-off instrumentation must not record"
    );
    obs::force_metrics(true);
}
