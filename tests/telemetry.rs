//! Telemetry regression tests: the obs instrumentation wired through the
//! pipeline must record real cache traffic and span timings, and the
//! snapshot schema must survive a JSON round-trip.
//!
//! These tests mutate the process-global obs registry, so they serialize
//! on one lock and assert on snapshot *deltas*, never absolute counts.

use air_sim::{AirLearningDatabase, ObstacleDensity};
use autopilot::{
    AutoPilot, AutopilotConfig, DssocEvaluator, OptimizerChoice, Phase1, Phase2, PipelineCache,
    SuccessModel, TaskSpec,
};
use autopilot_obs as obs;
use dse_opt::Evaluator;
use policy_nn::PolicyModel;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};
use systolic_sim::{ArrayConfig, Layer, LayerMemo, Simulator};
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
fn phase2_simulates_every_evaluated_layer_exactly_once() {
    let _guard = guard();
    obs::force_metrics(true);

    // No layer simulation is cached or repeated: over a Phase-2 run, the
    // cycle model sees each evaluated candidate's network layer by layer,
    // once per evaluation.
    let ev = evaluator();
    let before = obs::snapshot();
    let out = Phase2::new(OptimizerChoice::Random, 24, 11).run(&ev).expect("phase 2 runs");
    let after = obs::snapshot();
    let layers = after.counter("systolic.layers") - before.counter("systolic.layers");
    let expected: usize =
        out.candidates.iter().map(|c| PolicyModel::build(c.policy).layers().len()).sum();
    assert_eq!(out.candidates.len(), 24);
    assert_eq!(layers, expected as u64, "every evaluation simulates every layer exactly once");
}

#[test]
fn layer_memo_traffic_reaches_obs() {
    let _guard = guard();
    obs::force_metrics(true);

    // The memo's misses reach the simulation counter and its hits do not;
    // a disabled memo sends every layer to the simulator.
    let sim = Simulator::new(ArrayConfig::builder().rows(16).cols(16).build().unwrap());
    let net =
        [Layer::conv2d(32, 32, 3, 16, 3, 2, 1), Layer::dense(1024, 25), Layer::dense(1024, 25)];
    let layers = || obs::snapshot().counter("systolic.layers");
    let plain = sim.simulate_network(&net);

    let memo = LayerMemo::with_enabled(true);
    let start = layers();
    assert_eq!(memo.simulate_network(&sim, &net), plain);
    assert_eq!(layers() - start, 2, "a cold memo simulates each distinct layer once");
    let warm = layers();
    assert_eq!(memo.simulate_network(&sim, &net), plain);
    assert_eq!(layers() - warm, 0, "a warm memo simulates nothing");

    let off = LayerMemo::with_enabled(false);
    let start = layers();
    assert_eq!(off.simulate_network(&sim, &net), plain);
    assert_eq!(off.simulate_network(&sim, &net), plain);
    assert_eq!(layers() - start, 2 * net.len() as u64, "a disabled memo simulates every layer");
}

#[test]
fn phase2_layers_simulated_equal_memo_misses() {
    let _guard = guard();
    obs::force_metrics(true);

    // Replaying a Phase-2 run's evaluated networks through a fresh memo,
    // as the benchmark's memo replay does, simulates exactly one layer per
    // distinct (configuration minus clock, layer) key: one per memo miss.
    let ev = evaluator();
    let out = Phase2::new(OptimizerChoice::Random, 24, 11).run(&ev).expect("phase 2 runs");
    let memo = LayerMemo::with_enabled(true);
    let mut keys = HashSet::new();
    let before = obs::snapshot().counter("systolic.layers");
    for c in &out.candidates {
        let model = PolicyModel::build(c.policy);
        let sim = Simulator::new(c.config.clone());
        assert_eq!(
            memo.simulate_network(&sim, model.layers()),
            sim.simulate_network(model.layers())
        );
        let k = &c.config;
        for layer in model.layers() {
            keys.insert((
                k.rows(),
                k.cols(),
                k.ifmap_sram_bytes(),
                k.filter_sram_bytes(),
                k.ofmap_sram_bytes(),
                k.dataflow(),
                k.dram_bandwidth_bytes_per_cycle().to_bits(),
                k.word_bytes(),
                *layer,
            ));
        }
    }
    let total: usize =
        out.candidates.iter().map(|c| PolicyModel::build(c.policy).layers().len()).sum();
    // Each candidate is also simulated once directly in the loop above.
    let replayed = obs::snapshot().counter("systolic.layers") - before - total as u64;
    assert_eq!(replayed, keys.len() as u64, "layers simulated must equal memo misses");
    assert!(replayed < total as u64, "a 24-point DSE must produce memo hits");
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
