//! Timing probe for the Phase-2 evaluation engine (not part of the
//! experiment set; used to budget the reproduction binaries and to track
//! the cache and acquisition counters), built on the `autopilot-obs`
//! telemetry substrate.
//!
//! Every measurement is the minimum of three timed repetitions after a
//! discarded warmup pass, so single-run scheduler noise cannot leak into
//! the derived ratios (`obs_overhead_pct` is additionally floored at
//! zero: the instrumentation cannot have negative cost).
//!
//! Emits `BENCH_phase2.json` (under `results/`, the tracked canonical
//! location) with wall-clock numbers for the paper-configuration
//! dense-scenario DSE:
//!
//! - `phase2_sequential_obs_off_s` / `phase2_sequential_obs_on_s` — the
//!   same single-worker run with metrics gated off (the default, every
//!   probe a single untaken branch) and forced on, alternated; their
//!   difference is the full cost of the instrumentation, reported as
//!   `obs_overhead_pct`,
//! - `phase2_parallel_s` — default worker count, metrics on,
//! - `acquisition_scalar_s` / `acquisition_batched_s` /
//!   `acquisition_batch_speedup` — per-point solves
//!   (`ExactColumn::solve`, one forward substitution per objective) vs
//!   the shipping batched route (`ExactColumn::solve_batch`: one shared
//!   kernel cross-matrix with blocked triangular solves), over the run
//!   history as the candidate pool,
//!
//! - `acquisition_pruned_fraction` / `acquisition_solved_fraction` —
//!   the shares of the exact acquisition's bounded candidates (cache
//!   misses and pending columns) pruned without a triangular solve and
//!   solved, with `acquisition_box_pruned` / `acquisition_subset_pruned`
//!   counting the candidates pruned at the ladder's box and subset tiers
//!   (the rest of the pruned ones fell at the optimistic-score tier),
//!
//! plus counters read back from the obs registry for exactly one
//! instrumented sequential run (the snapshot is taken before the
//! parallel runs, so per-run cache counters match `cache_stats` instead
//! of double-counting across runs), and the layer-memo hit rate from
//! the systolic simulation memo. A full telemetry snapshot lands in
//! `results/telemetry_timing_probe.json`.
//!
//! Set `AUTOPILOT_BENCH_FAST=1` to run at a reduced budget and skip the
//! end-to-end pipeline run — the mode the `scripts/verify.sh`
//! perf-regression guard uses.
//!
//! Set `AUTOPILOT_BENCH_BUDGET=<n>` to switch to the *scale probe*: one
//! instrumented sequential Phase-2 run at the given budget (large enough
//! to engage the sparse surrogate), emitting `BENCH_phase2_scale.json`
//! with the acquisition-to-run span ratio, the exact-pack acquisition's
//! time per iteration (`exact_acquisition_ms_per_iteration`), the
//! sparse-vs-exact inference speedup (`gp_sparse_speedup`), and the
//! incremental-surrogate counters. The verify-script scale guard runs
//! this at budget 2000.
//!
//! Cache-counter naming: the within-run `CandidateCache` hit counters are
//! suffixed `_within_run` because continuous candidate keys are raw f64
//! bit patterns — an optimizer that never revisits a design point cannot
//! hit within a single run, and a bare `cache_hits: 0` used to read as
//! "cache broken" instead of "cache keyed for cross-run reuse". The
//! `cache_hits_cross_run` fields measure the cache doing its actual job:
//! a repeated run against a shared cache must be pure hits.

use air_sim::{AirLearningDatabase, ObstacleDensity};
use autopilot::{
    AutoPilot, AutopilotConfig, CandidateCache, DssocEvaluator, JobConfig, Phase1, Phase2, TaskSpec,
};
use autopilot_obs as obs;
use autopilot_obs::json::Value;
use std::time::Instant;
use uav_dynamics::UavSpec;

fn num(v: f64) -> Value {
    Value::Num(v)
}

/// Minimum of `reps` timed repetitions of `f`, after one discarded
/// warmup invocation.
fn min_time(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    // Scale mode: a budget override switches to the single-run scale
    // probe (the full overhead/replay battery would multiply a
    // multi-thousand-point run seven-fold for no extra information).
    if let Some(budget) =
        std::env::var("AUTOPILOT_BENCH_BUDGET").ok().and_then(|v| v.parse::<usize>().ok())
    {
        scale_probe(budget);
        return;
    }
    let fast = matches!(std::env::var("AUTOPILOT_BENCH_FAST"), Ok(v) if v != "0");
    let config = AutopilotConfig::paper(7);
    let density = ObstacleDensity::Dense;
    let budget = if fast { 60 } else { config.phase2_budget };

    // Phase-1 database once; the probe isolates Phase-2 cost.
    let mut db = AirLearningDatabase::new();
    Phase1::new(config.success_model, config.seed).populate(density, &mut db);

    // The probe runs through the same explicit JobConfig path the
    // server uses: startup-captured environment defaults, with the
    // sequential legs pinning threads=1 per job rather than via env.
    let job = JobConfig::from_env();
    let evaluator = DssocEvaluator::new(db.clone(), density).with_layer_memo(job.layer_memo);

    let workers = job.effective_threads();
    let phase2 = Phase2::new(config.optimizer, budget, config.seed).with_job_config(job);
    let phase2_seq =
        Phase2::new(config.optimizer, budget, config.seed).with_job_config(job.with_threads(1));

    // Obs overhead: identical sequential runs with metrics gated off and
    // forced on, alternated (after a warmup pass) and reduced with min —
    // the noise-robust estimator for a multi-second benchmark on a
    // shared core. Every recording site is behind the same gate, so the
    // difference is the whole cost of the instrumentation.
    const OVERHEAD_REPS: usize = 3;
    obs::force_metrics(false);
    let warm_out = phase2_seq.clone().run(&evaluator).expect("phase 2 runs");
    let mut phase2_obs_off_s = f64::INFINITY;
    let mut phase2_sequential_s = f64::INFINITY;
    let mut last_on = None;
    let mut memo_window = evaluator.layer_memo_stats();
    for rep in 0..OVERHEAD_REPS {
        obs::force_metrics(false);
        let t = Instant::now();
        let off_out = phase2_seq.clone().run(&evaluator).expect("phase 2 runs");
        phase2_obs_off_s = phase2_obs_off_s.min(t.elapsed().as_secs_f64());
        assert_eq!(warm_out.result, off_out.result, "sequential runs must be deterministic");

        obs::force_metrics(true);
        let counted = rep == OVERHEAD_REPS - 1;
        let memo_before = if counted {
            // The counters read back below should reflect exactly one
            // instrumented sequential run. The layer-memo counters are
            // cumulative per evaluator, so the same window is carved out
            // of them by differencing around this run.
            obs::reset();
            evaluator.layer_memo_stats()
        } else {
            memo_window
        };
        let t = Instant::now();
        let on_out = phase2_seq.clone().run(&evaluator).expect("phase 2 runs");
        phase2_sequential_s = phase2_sequential_s.min(t.elapsed().as_secs_f64());
        assert_eq!(off_out.result, on_out.result, "metrics gating must not change results");
        if counted {
            let after = evaluator.layer_memo_stats();
            memo_window = autopilot::CacheStats {
                hits: after.hits - memo_before.hits,
                misses: after.misses - memo_before.misses,
                ..after
            };
        }
        last_on = Some(on_out);
    }
    let seq_out = last_on.expect("overhead loop ran");
    // Min-of-reps makes a negative difference noise by construction; the
    // raw signed value is reported alongside so negative-noise runs are
    // visible instead of silently clamped to zero.
    let obs_overhead_pct_raw = (phase2_sequential_s - phase2_obs_off_s) / phase2_obs_off_s * 100.0;
    let obs_overhead_pct = obs_overhead_pct_raw.max(0.0);

    // Snapshot *before* the parallel runs: these counters and spans
    // cover exactly one sequential run, so the obs cache counters must
    // equal the per-run `cache_stats` (each lookup counted once).
    let seq_snap = obs::snapshot();
    let cache_hits = seq_snap.counter("phase2.candidate_cache.hits");
    let cache_misses = seq_snap.counter("phase2.candidate_cache.misses");
    let stats = &seq_out.cache_stats;
    assert_eq!(
        (cache_hits, cache_misses),
        (stats.hits, stats.misses),
        "obs cache counters must match the per-run cache stats exactly"
    );
    let gp_full_refits = seq_snap.counter("dse.gp.full_refit");
    let gp_rank1_extends = seq_snap.counter("dse.gp.rank1_extend");
    let gp_retargets = seq_snap.counter("bo.gp.retarget");
    let gp_downdates = seq_snap.counter("bo.gp.downdate");
    let hv_incremental_scores = seq_snap.counter("bo.hv.incremental");
    let column_cache_hits = seq_snap.counter("bo.acquisition.column_cache.hit");
    let column_cache_misses = seq_snap.counter("bo.acquisition.column_cache.miss");
    let acquisition_bounded = seq_snap.counter("bo.acquisition.bounded");
    let acquisition_solved = seq_snap.counter("bo.acquisition.solved");
    let acquisition_pruned = seq_snap.counter("bo.acquisition.pruned");
    let acquisition_box_pruned = seq_snap.counter("bo.acquisition.box_pruned");
    let acquisition_subset_pruned = seq_snap.counter("bo.acquisition.subset_pruned");
    assert!(
        acquisition_box_pruned + acquisition_subset_pruned <= acquisition_pruned,
        "the per-tier pruned counts are a split of the pruned ones"
    );
    assert_eq!(
        acquisition_bounded,
        acquisition_solved + acquisition_pruned,
        "every bounded acquisition candidate is either solved or pruned"
    );
    let systolic_layers = seq_snap.counter("systolic.layers");
    let span_phase2_run_s = seq_snap.span_total_s("phase2.run");
    let span_acquisition_s = seq_snap.span_total_s("bo.acquisition");
    let span_acquisition_score_s = seq_snap.span_total_s("bo.acquisition.score");
    let span_front_sync_s = seq_snap.span_total_s("bo.acquisition.front_sync");
    let span_surrogate_s = seq_snap.span_total_s("bo.surrogate_update");
    // Cumulative memo counters cover every run this evaluator served
    // (warmup + overhead reps); `memo_window` carved out the counted run,
    // the same window the obs counters were reset around. A layer only
    // reaches the cycle model on a memo miss, so within the shared window
    // the two must agree exactly.
    let memo_total = evaluator.layer_memo_stats();
    if evaluator.layer_memo_enabled() {
        assert_eq!(
            systolic_layers, memo_window.misses,
            "layers actually simulated must equal memo misses over the same run window"
        );
    }

    let phase2_parallel_s = min_time(OVERHEAD_REPS, || {
        let par_out = phase2.run(&evaluator).expect("phase 2 runs");
        assert_eq!(
            par_out.result, seq_out.result,
            "optimizer output must be bit-identical across thread counts"
        );
    });

    // Cross-run cache traffic: within one run every continuous candidate
    // key is unique, so the within-run hit counters are structurally zero
    // at paper budgets; the cache earns its keep across repeated runs
    // (Fig5-style scenario repetition), where the second pass must be
    // pure hits.
    let (cross_run_hits, cross_run_misses) = {
        let shared = CandidateCache::new();
        let first = phase2.run_with_cache(&evaluator, &shared).expect("phase 2 runs");
        let second = phase2.run_with_cache(&evaluator, &shared).expect("phase 2 runs");
        assert_eq!(first.result, second.result, "shared-cache rerun must be deterministic");
        assert_eq!(second.cache_stats.misses, 0, "repeat run must be pure cache hits");
        (second.cache_stats.hits, first.cache_stats.misses)
    };

    let space = autopilot::JointSpace::design_space();
    let xs: Vec<Vec<f64>> =
        seq_out.result.evaluations.iter().map(|e| space.encode(&e.point)).collect();
    let ys: Vec<Vec<f64>> = (0..3)
        .map(|k| seq_out.result.evaluations.iter().map(|e| e.objectives[k]).collect())
        .collect();
    // Batched vs per-point acquisition prediction: the surrogate pack the
    // optimizer actually uses — one GP per objective sharing inputs and
    // lengthscale — queried over the run history as the candidate pool.
    // The batched side is the route SMS-EGO solves its unpruned
    // candidates through (a kernel panel, then
    // `ExactColumn::solve_correlations` + `predict`, here together as
    // `ExactColumn::solve_batch`). The per-point side solves
    // each candidate on its own (`ExactColumn::solve`: one forward
    // substitution per objective, the `Matrix::solve_lower` loop, and an
    // ascending dot for the mean), so it shares neither the kernel panel
    // nor the blocked solve with the batched side it checks and is timed
    // against.
    let gp0 = dse_opt::GaussianProcess::fit(&xs, &ys[0]).expect("objective 0 GP fits");
    let ls = gp0.lengthscale_sq();
    let gps: Vec<dse_opt::GaussianProcess> = ys
        .iter()
        .map(|y| {
            dse_opt::GaussianProcess::fit_with_lengthscale(
                &xs,
                y,
                ls,
                dse_opt::KernelExpMode::Exact,
            )
            .expect("GP fits")
        })
        .collect();
    let pool = &xs;
    // Bit-identity spot check before timing anything.
    for (p, batched) in pool.iter().zip(dse_opt::ExactColumn::solve_batch(&gps, pool)) {
        let per_point = dse_opt::ExactColumn::solve(&gps, p);
        assert!(
            per_point.predict(&gps).eq(batched.predict(&gps)),
            "batched prediction diverged from per-point"
        );
    }
    let acquisition_scalar_s = min_time(OVERHEAD_REPS, || {
        for p in pool {
            let column = dse_opt::ExactColumn::solve(&gps, p);
            for pred in column.predict(&gps) {
                let _ = std::hint::black_box(pred);
            }
        }
    });
    let acquisition_batched_s = min_time(OVERHEAD_REPS, || {
        for column in dse_opt::ExactColumn::solve_batch(&gps, pool) {
            for pred in column.predict(&gps) {
                let _ = std::hint::black_box(pred);
            }
        }
    });
    let acquisition_batch_speedup = acquisition_scalar_s / acquisition_batched_s.max(1e-12);

    let total = (cache_hits + cache_misses).max(1);
    let report = Value::Obj(vec![
        ("budget".into(), num(budget as f64)),
        ("optimizer".into(), Value::Str(format!("{:?}", config.optimizer))),
        ("workers".into(), num(workers as f64)),
        ("phase2_parallel_s".into(), num(phase2_parallel_s)),
        ("phase2_sequential_s".into(), num(phase2_sequential_s)),
        ("phase2_sequential_obs_off_s".into(), num(phase2_obs_off_s)),
        ("phase2_sequential_obs_on_s".into(), num(phase2_sequential_s)),
        ("obs_overhead_pct".into(), num(obs_overhead_pct)),
        ("obs_overhead_pct_raw".into(), num(obs_overhead_pct_raw)),
        ("acquisition_scalar_s".into(), num(acquisition_scalar_s)),
        ("acquisition_batched_s".into(), num(acquisition_batched_s)),
        ("acquisition_batch_speedup".into(), num(acquisition_batch_speedup)),
        (
            "cache_note".into(),
            Value::Str(
                "within-run hit counters are structurally 0: candidate keys are exact design \
                 points and the optimizer never revisits one; cross-run fields show the cache \
                 serving repeated scenario runs"
                    .into(),
            ),
        ),
        ("cache_hits_within_run".into(), num(stats.hits as f64)),
        ("cache_misses_within_run".into(), num(stats.misses as f64)),
        ("cache_hit_rate_within_run".into(), num(stats.hit_rate())),
        ("cache_hits_cross_run".into(), num(cross_run_hits as f64)),
        ("cache_misses_cross_run".into(), num(cross_run_misses as f64)),
        ("obs_cache_hits_within_run".into(), num(cache_hits as f64)),
        ("obs_cache_misses_within_run".into(), num(cache_misses as f64)),
        ("obs_cache_hit_rate_within_run".into(), num(cache_hits as f64 / total as f64)),
        ("gp_full_refits".into(), num(gp_full_refits as f64)),
        ("gp_rank1_extends".into(), num(gp_rank1_extends as f64)),
        ("gp_retargets".into(), num(gp_retargets as f64)),
        ("gp_downdates".into(), num(gp_downdates as f64)),
        ("hv_incremental_scores".into(), num(hv_incremental_scores as f64)),
        ("acquisition_column_cache_hits".into(), num(column_cache_hits as f64)),
        ("acquisition_column_cache_misses".into(), num(column_cache_misses as f64)),
        (
            "acquisition_column_cache_hit_rate".into(),
            num(column_cache_hits as f64 / (column_cache_hits + column_cache_misses).max(1) as f64),
        ),
        ("acquisition_bounded".into(), num(acquisition_bounded as f64)),
        ("acquisition_solved".into(), num(acquisition_solved as f64)),
        ("acquisition_pruned".into(), num(acquisition_pruned as f64)),
        ("acquisition_box_pruned".into(), num(acquisition_box_pruned as f64)),
        ("acquisition_subset_pruned".into(), num(acquisition_subset_pruned as f64)),
        (
            "acquisition_pruned_fraction".into(),
            num(acquisition_pruned as f64 / acquisition_bounded.max(1) as f64),
        ),
        (
            "acquisition_solved_fraction".into(),
            num(acquisition_solved as f64 / acquisition_bounded.max(1) as f64),
        ),
        (
            "systolic_memo_note".into(),
            Value::Str(
                "run-window fields cover the one counted instrumented run (warm memo: repeats of \
                 the same deterministic run are pure hits, so layers_simulated == memo_misses == \
                 0 is the memo working); _total fields are cumulative across every probe run on \
                 this evaluator"
                    .into(),
            ),
        ),
        ("systolic_layers_simulated".into(), num(systolic_layers as f64)),
        ("systolic_memo_hits".into(), num(memo_window.hits as f64)),
        ("systolic_memo_misses".into(), num(memo_window.misses as f64)),
        ("systolic_memo_hit_rate".into(), num(memo_window.hit_rate())),
        ("systolic_memo_hits_total".into(), num(memo_total.hits as f64)),
        ("systolic_memo_misses_total".into(), num(memo_total.misses as f64)),
        ("systolic_memo_hit_rate_total".into(), num(memo_total.hit_rate())),
        ("systolic_memo_entries".into(), num(memo_total.entries as f64)),
        ("span_phase2_run_s".into(), num(span_phase2_run_s)),
        ("span_bo_acquisition_s".into(), num(span_acquisition_s)),
        ("span_bo_acquisition_score_s".into(), num(span_acquisition_score_s)),
        ("span_bo_front_sync_s".into(), num(span_front_sync_s)),
        ("span_bo_surrogate_update_s".into(), num(span_surrogate_s)),
        ("kernel_exp_mode".into(), Value::Str(job.exp_mode.unwrap_or_default().id().into())),
        ("bit_identical_across_threads".into(), Value::Bool(true)),
    ]);
    let json = report.to_json_pretty();
    autopilot_bench::emit("BENCH_phase2.json", &json);

    // End-to-end sanity run (full pipeline, nano UAV) — skipped in fast
    // mode, where the probe exists only to gate perf regressions.
    if !fast {
        let t0 = Instant::now();
        let pilot = AutoPilot::new(config).with_job_config(job);
        let result =
            pilot.run(&UavSpec::nano(), &TaskSpec::navigation(density)).expect("pipeline runs");
        let sel = result.selection.expect("selection");
        println!(
            "paper-config run: {:?} | {} evals | selected {} {}x{} @ {:.0} MHz -> {:.1} FPS, {:.2} W tdp, {:.1} g, {:.1} missions (knee {:?})",
            t0.elapsed(),
            result.phase2.candidates.len(),
            sel.candidate.policy.id(),
            sel.candidate.config.rows(),
            sel.candidate.config.cols(),
            sel.candidate.config.clock_mhz(),
            sel.candidate.fps,
            sel.candidate.tdp_w,
            sel.candidate.payload_g,
            sel.missions.missions,
            sel.knee_fps.map(|k| k.round()),
        );
    }
    autopilot_bench::write_telemetry("timing_probe");
    autopilot_bench::write_trace("timing_probe");
}

/// Scale probe (`AUTOPILOT_BENCH_BUDGET=<n>`): one instrumented
/// sequential Phase-2 run at an arbitrary budget, plus a sparse-vs-exact
/// inference benchmark over the resulting archive. Emits
/// `BENCH_phase2_scale.json` under `results/`; never touches the tracked
/// full-probe numbers.
///
/// Past the default [`dse_opt::SurrogateMode`] threshold (256 points)
/// the optimizer engages the low-rank sparse surrogates automatically,
/// so a budget-2000 run here exercises the scalable-inference path
/// end-to-end; the budget gate caps the exact-pack acquisition's time
/// per iteration.
fn scale_probe(budget: usize) {
    // Exact-GP window band (ROADMAP, PR 6 handoff): with the default
    // window cap (256) equal to the sparse threshold (256) the exact
    // window never slides — the sparse pack takes over at exactly the
    // point the window would first move — so the rank-1 downdate path
    // sat dormant and `gp_downdates` was structurally zero. Opening a
    // band between the window cap and the sparse threshold makes the
    // exact window slide (one downdate per objective-pack slide) for
    // every archive size in (window, threshold].
    const GP_WINDOW: usize = 192;
    const GP_SPARSE_THRESHOLD: usize = 320;
    const GP_SPARSE_INDUCING: usize = 64;
    let config = AutopilotConfig::paper(7);
    let density = ObstacleDensity::Dense;
    let mut db = AirLearningDatabase::new();
    Phase1::new(config.success_model, config.seed).populate(density, &mut db);
    let job = JobConfig::from_env().with_threads(1).with_gp_window(GP_WINDOW).with_surrogate(
        dse_opt::SurrogateMode::Sparse {
            threshold: GP_SPARSE_THRESHOLD,
            inducing: GP_SPARSE_INDUCING,
        },
    );
    let evaluator = DssocEvaluator::new(db, density).with_layer_memo(job.layer_memo);
    let phase2 = Phase2::new(config.optimizer, budget, config.seed).with_job_config(job);

    obs::force_metrics(true);
    obs::reset();
    let t0 = Instant::now();
    let out = phase2.run(&evaluator).expect("phase 2 runs");
    let wall_s = t0.elapsed().as_secs_f64();
    let snap = obs::snapshot();
    let span_phase2_run_s = snap.span_total_s("phase2.run");
    let span_score_s = snap.span_total_s("bo.acquisition.score");
    let span_gp_predict_s = snap.span_total_s("bo.acquisition.gp_predict");
    let span_hv_score_s = snap.span_total_s("bo.acquisition.hv_score");
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

    // Sparse-vs-exact batched inference over this run's archive, same
    // query pool for both packs. The exact pack's training size is
    // capped: its O(n³) fit and O(n·pool) prediction are precisely what
    // stops scaling, and the cap keeps the baseline measurable instead
    // of dominating the probe.
    let space = autopilot::JointSpace::design_space();
    let xs: Vec<Vec<f64>> = out.result.evaluations.iter().map(|e| space.encode(&e.point)).collect();
    let ys: Vec<Vec<f64>> =
        (0..3).map(|k| out.result.evaluations.iter().map(|e| e.objectives[k]).collect()).collect();
    let n_exact = xs.len().min(768);
    let exact0 =
        dse_opt::GaussianProcess::fit(&xs[..n_exact], &ys[0][..n_exact]).expect("exact GP fits");
    let ls = exact0.lengthscale_sq();
    let exact: Vec<dse_opt::GaussianProcess> = ys
        .iter()
        .map(|y| {
            dse_opt::GaussianProcess::fit_with_lengthscale(
                &xs[..n_exact],
                &y[..n_exact],
                ls,
                dse_opt::KernelExpMode::Exact,
            )
            .expect("exact GP fits")
        })
        .collect();
    let sparse: Vec<dse_opt::SparseGaussianProcess> = ys
        .iter()
        .map(|y| {
            dse_opt::SparseGaussianProcess::fit_with_lengthscale(
                &xs,
                y,
                ls,
                64,
                dse_opt::KernelExpMode::Exact,
            )
            .expect("sparse GP fits")
        })
        .collect();
    let pool: Vec<Vec<f64>> = xs.iter().take(512).cloned().collect();
    let exact_batch_s = min_time(3, || {
        for column in dse_opt::ExactColumn::solve_batch(&exact, &pool) {
            for pred in column.predict(&exact) {
                let _ = std::hint::black_box(pred);
            }
        }
    });
    let sparse_batch_s = min_time(3, || {
        let corr = sparse[0].cross_correlations(&pool);
        for gp in &sparse {
            let _ = std::hint::black_box(gp.predict_batch_from_correlations(&corr));
        }
    });
    let gp_sparse_speedup = exact_batch_s / sparse_batch_s.max(1e-12);

    // Panel-parallel probe: the same archive-sized kernel panel
    // assembled single-stripe and column-striped across forced workers.
    // The outputs must be bitwise identical (each entry's arithmetic
    // never sees the stripe boundaries); the speedup is a structural
    // floor, honest about the host — on a single-core box two forced
    // workers time-slice one CPU, so ~1.0 is the expected reading there,
    // and the budget-gate floor below 1.0 only catches the engine
    // pessimizing parallel assembly outright.
    let exp_mode = job.exp_mode.unwrap_or_default();
    let panel_rows: Vec<Vec<f64>> = xs.iter().take(512).cloned().collect();
    let panel_scale = -0.5 / ls;
    let panel_workers = dse_opt::par::worker_count().max(2);
    let panel_1_s = min_time(3, || {
        let _ = std::hint::black_box(dse_opt::correlation_panel_with(
            1,
            &panel_rows,
            &pool,
            panel_scale,
            exp_mode,
        ));
    });
    let panel_n_s = min_time(3, || {
        let _ = std::hint::black_box(dse_opt::correlation_panel_with(
            panel_workers,
            &panel_rows,
            &pool,
            panel_scale,
            exp_mode,
        ));
    });
    let gp_panel_parallel_speedup = panel_1_s / panel_n_s.max(1e-12);
    let single = dse_opt::correlation_panel_with(1, &panel_rows, &pool, panel_scale, exp_mode);
    let striped =
        dse_opt::correlation_panel_with(panel_workers, &panel_rows, &pool, panel_scale, exp_mode);
    assert!(
        (0..single.rows()).all(|i| single
            .row(i)
            .iter()
            .zip(striped.row(i))
            .all(|(a, b)| a.to_bits() == b.to_bits())),
        "striped panel assembly must be bit-identical to single-stripe assembly"
    );

    // The band is only exercised once the archive outgrows the window;
    // any budget comfortably past it must have slid the exact window and
    // fired downdates (the counter this probe exists to keep alive).
    let gp_downdates = snap.counter("bo.gp.downdate");
    if budget > GP_WINDOW + 16 {
        assert!(
            gp_downdates > 0,
            "budget {budget} exceeds the exact-GP window ({GP_WINDOW}); the window must have \
             slid and recorded downdates"
        );
    }

    let report = Value::Obj(vec![
        ("budget".into(), num(budget as f64)),
        ("optimizer".into(), Value::Str(format!("{:?}", config.optimizer))),
        ("gp_window".into(), num(GP_WINDOW as f64)),
        ("gp_sparse_threshold".into(), num(GP_SPARSE_THRESHOLD as f64)),
        ("gp_sparse_inducing".into(), num(GP_SPARSE_INDUCING as f64)),
        ("wall_s".into(), num(wall_s)),
        ("span_phase2_run_s".into(), num(span_phase2_run_s)),
        ("span_bo_acquisition_score_s".into(), num(span_score_s)),
        ("span_bo_acquisition_gp_predict_s".into(), num(span_gp_predict_s)),
        ("span_bo_acquisition_hv_score_s".into(), num(span_hv_score_s)),
        ("acquisition_score_ratio".into(), num(score_ratio)),
        ("exact_acquisition_iterations".into(), num(exact_iterations as f64)),
        ("exact_acquisition_ms_per_iteration".into(), num(exact_ms_per_iteration)),
        ("gp_sparse_speedup".into(), num(gp_sparse_speedup)),
        ("gp_sparse_speedup_exact_n".into(), num(n_exact as f64)),
        ("gp_sparse_speedup_pool".into(), num(pool.len() as f64)),
        ("gp_sparse_fits".into(), num(snap.counter("bo.gp.sparse.fit") as f64)),
        ("gp_sparse_extends".into(), num(snap.counter("bo.gp.sparse.extend") as f64)),
        ("gp_sparse_predicts".into(), num(snap.counter("bo.gp.sparse.predict") as f64)),
        ("gp_full_refits".into(), num(snap.counter("dse.gp.full_refit") as f64)),
        ("gp_rank1_extends".into(), num(snap.counter("dse.gp.rank1_extend") as f64)),
        ("gp_retargets".into(), num(snap.counter("bo.gp.retarget") as f64)),
        ("gp_downdates".into(), num(gp_downdates as f64)),
        ("hv_incremental_scores".into(), num(snap.counter("bo.hv.incremental") as f64)),
        ("kernel_exp_mode".into(), Value::Str(exp_mode.id().into())),
        ("gp_panel_parallel_speedup".into(), num(gp_panel_parallel_speedup)),
        ("gp_panel_parallel_workers".into(), num(panel_workers as f64)),
        ("gp_panel_calls".into(), num(snap.counter("bo.gp.panel.calls") as f64)),
        ("gp_panel_entries".into(), num(snap.counter("bo.gp.panel.entries") as f64)),
        ("gp_panel_inline".into(), num(snap.counter("bo.gp.panel.inline") as f64)),
        ("gp_panel_parallel".into(), num(snap.counter("bo.gp.panel.parallel") as f64)),
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
    autopilot_bench::write_trace("timing_probe_scale");
    println!(
        "scale probe: budget {budget} in {wall_s:.2}s | score span {span_score_s:.3}s / run span \
         {span_phase2_run_s:.3}s (ratio {score_ratio:.3}) | gp {span_gp_predict_s:.3}s / hv \
         {span_hv_score_s:.3}s | exact acquisition {exact_ms_per_iteration:.3} ms x \
         {exact_iterations} | sparse speedup {gp_sparse_speedup:.1}x (exact n={n_exact})"
    );
}
