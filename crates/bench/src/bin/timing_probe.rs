//! Counting probe for the Phase-2 evaluation engine, built on the
//! `autopilot-obs` telemetry substrate. It answers "does the engine
//! still do the work it should": it counts that work and asserts its
//! invariants, and `budget_gate` checks the counts against
//! `results/BASELINE_budgets.json`. How fast the engine runs is the
//! question of the repo benchmark (`perfbench`, see `BENCHMARK.json`).
//!
//! One invocation, no knobs, runs two legs:
//!
//! Each leg writes its counts, which repeat exactly run to run, to a
//! tracked `results/BENCH_*.json`, and its span timings (and the host's
//! worker count) to an untracked `results/timings_*.json`, so a re-run
//! on unchanged code leaves the tracked files as they were.
//!
//! 1. The *paper leg*: the paper-configuration dense-scenario search
//!    (`AutopilotConfig::paper(7)`, budget 200), emitting
//!    `results/BENCH_phase2.json`, `results/timings_phase2.json`,
//!    `results/telemetry_timing_probe.json` and
//!    `results/trace_timing_probe.json` (the flamegraph gate's input).
//!    In order it makes
//!    - the *counted run*: sequential, metrics on, traced, so every
//!      counter and span in the file, the telemetry snapshot and the
//!      trace cover exactly this one search;
//!    - one metrics-off sequential run, which must repeat the counted
//!      run's result bit for bit (sequential runs are deterministic and
//!      metrics gating changes no result), and whose heap allocations per
//!      BO iteration the probe counts (`sms_ego_allocations_per_iteration`,
//!      see [`CountingAlloc`]);
//!    - one untraced metrics-on sequential run, which must repeat it too,
//!      and whose allocations per BO iteration are counted the same way
//!      (`sms_ego_allocations_per_iteration_metrics_on`): the counted run
//!      has registered every metric name, so what this adds over the
//!      metrics-off count is what recording itself allocates;
//!    - one run at the default worker count, bit-identical to both.
//!
//!    `acquisition_pruned_fraction` / `acquisition_solved_fraction` are
//!    the shares of the exact acquisition's bounded candidates pruned
//!    without a triangular solve and solved. Every pool candidate is
//!    bounded, cache hit or miss; the paper leg's surrogates are all
//!    exact, so the probe asserts that the bounded count is the cache
//!    hits plus misses. `acquisition_score_pruned` /
//!    `acquisition_subset_pruned` split the pruned ones by the ladder
//!    tier they fell at.
//!    `hv_boxes_per_front_point` is the counted run's boxes partitioning
//!    the non-dominated region (counter `bo.hv.boxes`), less each
//!    partition's first box, per front point scored against (counter
//!    `bo.hv.front_points`): at most 2 while every partition keeps to
//!    its `2·|front| + 1` boxes.
//!    `systolic_layers_per_network_layer` is the counted run's layers
//!    through the cycle model (counter `systolic.layers`) per layer of
//!    the networks it evaluated: exactly 1 while every evaluation
//!    simulates each of its layers once, neither serving one from a
//!    cache nor simulating it twice.
//!    `acquisition_forward_solves_per_solved` is the counted run's
//!    columns through the blocked triangular solve
//!    (`Matrix::solve_lower_columns`, counter `bo.gp.forward_solves`) per
//!    solved candidate. The paper leg's surrogates are all exact, so each
//!    is an `n`-row forward solve against the exact pack's factor: the
//!    ratio is 1 while the pack shares one factor across its objectives,
//!    and 3 when every objective solves against a factor of its own.
//!
//! 2. The *scale leg*: one instrumented, untraced sequential search at
//!    budget 2000 (large enough to engage the sparse surrogate), emitting
//!    `results/BENCH_phase2_scale.json` with the kernel rows a sparse
//!    prediction correlates each candidate against
//!    (`gp_sparse_rows_per_candidate`: the inducing count, not the
//!    archive size), the kernel panel counters and the
//!    incremental-surrogate counters, and `results/timings_phase2_scale.json`
//!    with the exact-pack acquisition's time per iteration.

use air_sim::{AirLearningDatabase, ObstacleDensity};
use autopilot::{AutopilotConfig, DssocEvaluator, JobConfig, Phase1, Phase2};
use autopilot_obs as obs;
use autopilot_obs::json::Value;
use policy_nn::PolicyModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The probe's global allocator: the system allocator, plus a count of
/// the calls that hand out a block (`alloc`, `alloc_zeroed`, `realloc`).
/// The count is a number the code controls, unlike a timing: a run with
/// pinned inputs, one thread and metrics off makes the same allocations
/// every time, however loaded the machine is.
struct CountingAlloc;

/// Blocks handed out by [`CountingAlloc`] since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is the one this impl promises; the only
// addition is a relaxed atomic increment, which neither allocates nor
// unwinds. The counter publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was handed out by this allocator, hence by
        // `System`, with `layout`; the caller meets the rest of
        // `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was handed out by this allocator, hence by
        // `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// [`CountingAlloc`]'s count so far.
fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn main() {
    paper_leg();
    scale_leg();
}

/// The paper-configuration search: counters and invariants, written to
/// `BENCH_phase2.json`, and its span timings, to `timings_phase2.json`.
fn paper_leg() {
    let config = AutopilotConfig::paper(7);
    let density = ObstacleDensity::Dense;
    let budget = config.phase2_budget;

    // Phase-1 database once; the probe isolates Phase-2 work.
    let mut db = AirLearningDatabase::new();
    Phase1::new(config.success_model, config.seed).populate(density, &mut db);

    // The probe runs through the same explicit JobConfig path the
    // server uses: the default knobs, with the sequential runs pinning
    // threads=1 per job.
    let job = JobConfig::default();
    let evaluator = DssocEvaluator::new(db, density);

    let workers = job.effective_threads();
    let phase2 = Phase2::new(config.optimizer, budget, config.seed).with_job_config(job);
    let phase2_seq =
        Phase2::new(config.optimizer, budget, config.seed).with_job_config(job.with_threads(1));

    // The counted run goes first. The trace covers the same one search
    // as the obs counters reset before it (`trace_report`'s JSON parse
    // time grows with the file, so the other runs stay untraced).
    obs::force_metrics(true);
    obs::reset();
    obs::trace::force_enabled(true);
    let seq_out = phase2_seq.run(&evaluator).expect("phase 2 runs");
    let seq_snap = obs::snapshot();
    autopilot_bench::write_trace("timing_probe");
    autopilot_bench::write_telemetry("timing_probe");
    obs::trace::force_enabled(false);
    obs::force_metrics(false);

    let allocations_before = allocations();
    let off_out = phase2_seq.run(&evaluator).expect("phase 2 runs");
    let off_allocations = allocations() - allocations_before;
    assert_eq!(
        seq_out.result, off_out.result,
        "sequential runs must be deterministic, and metrics gating must not change results"
    );
    obs::force_metrics(true);
    let allocations_before = allocations();
    let on_out = phase2_seq.run(&evaluator).expect("phase 2 runs");
    let on_allocations = allocations() - allocations_before;
    obs::force_metrics(false);
    assert_eq!(on_out.result, off_out.result, "metrics gating must not change results");

    let gp_full_refits = seq_snap.counter("dse.gp.full_refit");
    let gp_rank1_extends = seq_snap.counter("dse.gp.rank1_extend");
    let gp_retargets = seq_snap.counter("bo.gp.retarget");
    let hv_incremental_scores = seq_snap.counter("bo.hv.incremental");
    let column_cache_hits = seq_snap.counter("bo.acquisition.column_cache.hit");
    let column_cache_misses = seq_snap.counter("bo.acquisition.column_cache.miss");
    let acquisition_bounded = seq_snap.counter("bo.acquisition.bounded");
    let acquisition_solved = seq_snap.counter("bo.acquisition.solved");
    let acquisition_pruned = seq_snap.counter("bo.acquisition.pruned");
    let acquisition_score_pruned = seq_snap.counter("bo.acquisition.score_pruned");
    let acquisition_subset_pruned = seq_snap.counter("bo.acquisition.subset_pruned");
    let acquisition_forward_solves = seq_snap.counter("bo.gp.forward_solves");
    assert_eq!(
        acquisition_score_pruned + acquisition_subset_pruned,
        acquisition_pruned,
        "the per-tier pruned counts are a split of the pruned ones"
    );
    // One partition of the non-dominated region per acquisition.
    let hv_partitions: u64 = seq_snap
        .spans
        .iter()
        .filter(|s| s.path.ends_with("/bo.acquisition"))
        .map(|s| s.count)
        .sum();
    let bo_iterations: u64 =
        seq_snap.spans.iter().filter(|s| s.path.ends_with("/bo.iteration")).map(|s| s.count).sum();
    let hv_boxes = seq_snap.counter("bo.hv.boxes");
    let hv_front_points = seq_snap.counter("bo.hv.front_points");
    assert_eq!(
        acquisition_bounded,
        acquisition_solved + acquisition_pruned,
        "every bounded acquisition candidate is either solved or pruned"
    );
    assert_eq!(
        acquisition_bounded,
        column_cache_hits + column_cache_misses,
        "every pool candidate of an exact acquisition is bounded"
    );
    let systolic_layers = seq_snap.counter("systolic.layers");
    let network_layers: usize =
        seq_out.candidates.iter().map(|c| PolicyModel::build(c.policy).layers().len()).sum();

    let par_out = phase2.run(&evaluator).expect("phase 2 runs");
    assert_eq!(
        par_out.result, seq_out.result,
        "optimizer output must be bit-identical across thread counts"
    );

    let report = Value::Obj(vec![
        ("budget".into(), num(budget as f64)),
        ("optimizer".into(), Value::Str(format!("{:?}", config.optimizer))),
        ("gp_full_refits".into(), num(gp_full_refits as f64)),
        ("gp_rank1_extends".into(), num(gp_rank1_extends as f64)),
        ("gp_retargets".into(), num(gp_retargets as f64)),
        ("hv_incremental_scores".into(), num(hv_incremental_scores as f64)),
        ("hv_partitions".into(), num(hv_partitions as f64)),
        ("hv_boxes".into(), num(hv_boxes as f64)),
        ("hv_front_points".into(), num(hv_front_points as f64)),
        (
            "hv_boxes_per_front_point".into(),
            num(hv_boxes.saturating_sub(hv_partitions) as f64 / hv_front_points.max(1) as f64),
        ),
        ("acquisition_column_cache_hits".into(), num(column_cache_hits as f64)),
        ("acquisition_column_cache_misses".into(), num(column_cache_misses as f64)),
        (
            "acquisition_column_cache_hit_rate".into(),
            num(column_cache_hits as f64 / (column_cache_hits + column_cache_misses).max(1) as f64),
        ),
        ("acquisition_bounded".into(), num(acquisition_bounded as f64)),
        ("acquisition_solved".into(), num(acquisition_solved as f64)),
        ("acquisition_pruned".into(), num(acquisition_pruned as f64)),
        ("acquisition_score_pruned".into(), num(acquisition_score_pruned as f64)),
        ("acquisition_subset_pruned".into(), num(acquisition_subset_pruned as f64)),
        ("acquisition_forward_solves".into(), num(acquisition_forward_solves as f64)),
        (
            "acquisition_forward_solves_per_solved".into(),
            num(acquisition_forward_solves as f64 / acquisition_solved.max(1) as f64),
        ),
        (
            "acquisition_pruned_fraction".into(),
            num(acquisition_pruned as f64 / acquisition_bounded.max(1) as f64),
        ),
        (
            "acquisition_solved_fraction".into(),
            num(acquisition_solved as f64 / acquisition_bounded.max(1) as f64),
        ),
        ("bo_iterations".into(), num(bo_iterations as f64)),
        ("sms_ego_allocations".into(), num(off_allocations as f64)),
        (
            "sms_ego_allocations_per_iteration".into(),
            num(off_allocations as f64 / bo_iterations.max(1) as f64),
        ),
        (
            "sms_ego_allocations_per_iteration_metrics_on".into(),
            num(on_allocations as f64 / bo_iterations.max(1) as f64),
        ),
        ("systolic_layers_simulated".into(), num(systolic_layers as f64)),
        ("network_layers_evaluated".into(), num(network_layers as f64)),
        (
            "systolic_layers_per_network_layer".into(),
            num(systolic_layers as f64 / network_layers.max(1) as f64),
        ),
        ("bit_identical_across_threads".into(), Value::Bool(true)),
    ]);
    autopilot_bench::emit("BENCH_phase2.json", &report.to_json_pretty());
    let timings = Value::Obj(vec![
        ("workers".into(), num(workers as f64)),
        ("span_phase2_run_s".into(), num(seq_snap.span_total_s("phase2.run"))),
        ("span_bo_acquisition_s".into(), num(seq_snap.span_total_s("bo.acquisition"))),
        ("span_bo_acquisition_score_s".into(), num(seq_snap.span_total_s("bo.acquisition.score"))),
        ("span_bo_front_sync_s".into(), num(seq_snap.span_total_s("bo.acquisition.front_sync"))),
        ("span_bo_surrogate_update_s".into(), num(seq_snap.span_total_s("bo.surrogate_update"))),
    ]);
    autopilot_bench::emit("timings_phase2.json", &timings.to_json_pretty());
}

/// The scale leg: one instrumented sequential Phase-2 run at budget
/// 2000 and the default surrogate settings, plus a count of the kernel
/// rows one sparse prediction over the resulting archive correlates each
/// candidate against, written to `BENCH_phase2_scale.json`; its timings
/// go to `timings_phase2_scale.json`.
///
/// Past the sparse threshold the optimizer engages the low-rank sparse
/// surrogates automatically, so this run exercises the
/// scalable-inference path end-to-end; the budget gate caps the
/// exact-pack acquisition's time per iteration.
fn scale_leg() {
    const BUDGET: usize = 2000;
    let surrogate = dse_opt::SurrogateMode::default_sparse();
    let dse_opt::SurrogateMode::Sparse { threshold, inducing } = surrogate;
    let config = AutopilotConfig::paper(7);
    let density = ObstacleDensity::Dense;
    let mut db = AirLearningDatabase::new();
    Phase1::new(config.success_model, config.seed).populate(density, &mut db);
    let job = JobConfig::default().with_threads(1);
    let evaluator = DssocEvaluator::new(db, density);
    let phase2 = Phase2::new(config.optimizer, BUDGET, config.seed).with_job_config(job);

    obs::force_metrics(true);
    obs::reset();
    let t0 = Instant::now();
    let out = phase2.run(&evaluator).expect("phase 2 runs");
    let wall_s = t0.elapsed().as_secs_f64();
    let snap = obs::snapshot();
    let span_phase2_run_s = snap.span_total_s("phase2.run");
    let span_score_s = snap.span_total_s("bo.acquisition.score");
    let score_ratio = span_score_s / span_phase2_run_s.max(1e-12);
    // The exact-pack acquisitions: one `bo.acquisition.exact` span per
    // SMS-EGO iteration scored on the exact pack.
    let exact_iterations: u64 = snap
        .spans
        .iter()
        .filter(|s| s.path.ends_with("/bo.acquisition.exact"))
        .map(|s| s.count)
        .sum();
    let exact_ms_per_iteration =
        1e3 * snap.span_total_s("bo.acquisition.exact") / exact_iterations.max(1) as f64;

    // The kernel rows one sparse prediction correlates each pool
    // candidate against: the inducing count, however large the archive.
    let space = autopilot::JointSpace::design_space();
    let xs: Vec<Vec<f64>> = out.result.evaluations.iter().map(|e| space.encode(&e.point)).collect();
    let ys: Vec<f64> = out.result.evaluations.iter().map(|e| e.objectives[0]).collect();
    let sparse = dse_opt::SparseGaussianProcess::fit(&xs, &ys, inducing).expect("sparse GP fits");
    let pool = &xs[..xs.len().min(512)];
    obs::reset();
    let _ = std::hint::black_box(sparse.cross_correlations(pool));
    let gp_sparse_rows_per_candidate =
        obs::snapshot().counter("bo.gp.panel.entries") as f64 / pool.len().max(1) as f64;

    let report = Value::Obj(vec![
        ("budget".into(), num(BUDGET as f64)),
        ("optimizer".into(), Value::Str(format!("{:?}", config.optimizer))),
        ("gp_sparse_threshold".into(), num(threshold as f64)),
        ("gp_sparse_inducing".into(), num(inducing as f64)),
        ("exact_acquisition_iterations".into(), num(exact_iterations as f64)),
        ("gp_sparse_rows_per_candidate".into(), num(gp_sparse_rows_per_candidate)),
        ("gp_sparse_fits".into(), num(snap.counter("bo.gp.sparse.fit") as f64)),
        ("gp_sparse_extends".into(), num(snap.counter("bo.gp.sparse.extend") as f64)),
        ("gp_sparse_predicts".into(), num(snap.counter("bo.gp.sparse.predict") as f64)),
        ("gp_full_refits".into(), num(snap.counter("dse.gp.full_refit") as f64)),
        ("gp_rank1_extends".into(), num(snap.counter("dse.gp.rank1_extend") as f64)),
        ("gp_retargets".into(), num(snap.counter("bo.gp.retarget") as f64)),
        ("hv_incremental_scores".into(), num(snap.counter("bo.hv.incremental") as f64)),
        ("gp_panel_calls".into(), num(snap.counter("bo.gp.panel.calls") as f64)),
        ("gp_panel_entries".into(), num(snap.counter("bo.gp.panel.entries") as f64)),
        (
            "acquisition_column_cache_hits".into(),
            num(snap.counter("bo.acquisition.column_cache.hit") as f64),
        ),
        (
            "acquisition_column_cache_misses".into(),
            num(snap.counter("bo.acquisition.column_cache.miss") as f64),
        ),
    ]);
    autopilot_bench::emit("BENCH_phase2_scale.json", &report.to_json_pretty());
    let timings = Value::Obj(vec![
        ("wall_s".into(), num(wall_s)),
        ("span_phase2_run_s".into(), num(span_phase2_run_s)),
        ("span_bo_acquisition_score_s".into(), num(span_score_s)),
        (
            "span_bo_acquisition_gp_predict_s".into(),
            num(snap.span_total_s("bo.acquisition.gp_predict")),
        ),
        (
            "span_bo_acquisition_hv_score_s".into(),
            num(snap.span_total_s("bo.acquisition.hv_score")),
        ),
        ("acquisition_score_ratio".into(), num(score_ratio)),
        ("exact_acquisition_ms_per_iteration".into(), num(exact_ms_per_iteration)),
    ]);
    autopilot_bench::emit("timings_phase2_scale.json", &timings.to_json_pretty());
}
