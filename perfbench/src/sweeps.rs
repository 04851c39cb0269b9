//! The in-process workload, `dse-scale`. One operation is one
//! [`SweepSpec`] run on the user's path with fresh caches and a fresh
//! configuration seed.

use crate::layers::{self, ReplayGroup};
use crate::pipeline::{self, phase_sweep, run_sweep, PhaseTimes, SweepResult, SweepSpec};
use crate::report::{interquartile_mean, mean, median, percentile, Outcome};
use crate::{op_seed, timed, ATTRIBUTION_BOUND, WARMUP};
use air_sim::ObstacleDensity;
use autopilot::OptimizerChoice;
use autopilot_obs as obs;
use dse_opt::OptimizationResult;
use std::time::{Duration, Instant};

/// A sweep workload: what one operation runs, and how many operations a
/// run makes at least. The deterministic quality metrics average over
/// exactly the first `min_ops` operations, so they repeat at a fixed
/// workload seed whatever the machine's speed.
pub struct SweepWorkload {
    pub spec: SweepSpec,
    pub min_ops: usize,
    /// Operations the traced run makes.
    pub traced_ops: usize,
    /// How long operations run untimed before the window opens.
    pub warmup: Duration,
}

impl SweepWorkload {
    pub fn new(name: &str) -> Option<SweepWorkload> {
        let (optimizer, budget, densities, min_ops, traced_ops) = match name {
            // One dense search well past the 256-point sparse threshold.
            "dse-scale" => (OptimizerChoice::SmsEgo, 384, vec![ObstacleDensity::Dense], 3, 1),
            _ => return None,
        };
        Some(SweepWorkload {
            spec: SweepSpec { optimizer, budget, densities },
            min_ops,
            traced_ops,
            warmup: WARMUP,
        })
    }

    /// The set-up a user pays before the first operation: the optimizer
    /// registry, the Phase-1 databases and the evaluators.
    fn setup(&self, seed: u64) -> Duration {
        let start = Instant::now();
        let config = self.spec.config(seed);
        let registered = autopilot::registered_optimizers();
        std::hint::black_box(registered.contains(&config.optimizer.name().to_owned()));
        for &d in &self.spec.densities {
            let db = pipeline::phase1_database(seed, d);
            std::hint::black_box(autopilot::DssocEvaluator::new(db, d));
        }
        start.elapsed()
    }

    /// The untraced run: sweeps untimed for `warmup`, then timed until
    /// `seconds` have passed and at least `min_ops` were made in all, then
    /// checks the first against an independent recomputation.
    pub fn timed(&self, seed: u64, seconds: f64, out: &mut Outcome) {
        // Set-up repeats before the first operation and again before
        // every operation, so its median samples the machine across the
        // whole run rather than at one instant.
        let mut setups = Vec::new();
        let set_up = |n: usize, setups: &mut Vec<f64>| {
            for _ in 0..n {
                setups.push(self.setup(op_seed(seed, setups.len() as u64)).as_secs_f64());
            }
        };
        set_up(SETUP_FIRST, &mut setups);
        let mut latencies = Vec::new();
        let mut quality: Vec<SweepResult> = Vec::new();
        let warm_until = Instant::now() + self.warmup;
        // The window opens with the first operation that starts after the
        // warm-up. Throughput counts the operations that ended inside it,
        // over the time the last of them ended.
        let mut window: Option<Instant> = None;
        let (mut done_in_window, mut last_end) = (0usize, 0.0);
        let mut i = 0;
        while i < self.min_ops || window.is_none_or(|w| w.elapsed().as_secs_f64() < seconds) {
            set_up(SETUP_PER_OP, &mut setups);
            let op_start = Instant::now();
            let result = run_sweep(&self.spec, op_seed(seed, i as u64));
            if op_start >= warm_until {
                latencies.push(op_start.elapsed().as_secs_f64());
                let end = window.get_or_insert(op_start).elapsed().as_secs_f64();
                if end <= seconds || done_in_window == 0 {
                    (done_in_window, last_end) = (done_in_window + 1, end);
                }
            }
            match result {
                Ok(r) => {
                    out.check(r.defect().is_none(), || format!("op {i}: {:?}", r.defect()));
                    if i < self.min_ops {
                        quality.push(r);
                    }
                }
                Err(e) => out.check(false, || format!("op {i}: {e}")),
            }
            i += 1;
        }
        // Before the checks below, so the peak is the workload's own.
        out.set("peak_rss_mb", crate::report::peak_rss_mb());
        out.set("setup_s", median(&setups));
        out.note(format!(
            "setup: {} repetitions, min {:.6} s, median {:.6} s, max {:.6} s",
            setups.len(),
            percentile(&setups, 0.0),
            median(&setups),
            percentile(&setups, 1.0)
        ));
        out.set("op_iqm_s", interquartile_mean(&latencies));
        out.set("ops_per_s", done_in_window as f64 / last_end);
        out.note(format!(
            "{} operations (sweeps of {} pipelines) after {i} in all, in a {:.1} s window; \
             median {:.3} s, p90 {:.3} s; latencies {:.3?}",
            latencies.len(),
            self.spec.pairs().len(),
            last_end,
            median(&latencies),
            percentile(&latencies, 0.9),
            latencies
        ));

        // Outside the window: the first operation must equal an
        // independent phase-by-phase recomputation at the same seed.
        if let Some(first) = quality.first() {
            let name = self.spec.optimizer.name();
            match phase_sweep(&self.spec, op_seed(seed, 0), name, &mut PhaseTimes::default()) {
                Ok((reference, _)) => out
                    .check(reference.fingerprint() == first.fingerprint(), || {
                        "op 0 differs from its Phase2::run + Phase3::select recomputation".into()
                    }),
                Err(e) => out.check(false, || format!("reference recomputation: {e}")),
            }
        }
        self.quality(&quality, out);
    }

    fn quality(&self, results: &[SweepResult], out: &mut Outcome) {
        out.check(results.len() == self.min_ops, || {
            format!("{} of {} quality operations succeeded", results.len(), self.min_ops)
        });
        out.set("hv_final", mean(&results.iter().map(SweepResult::hv_final).collect::<Vec<_>>()));
        out.set(
            "evals_to_95hv",
            mean(&results.iter().map(SweepResult::evals_to_95hv).collect::<Vec<_>>()),
        );
        let missions: Vec<f64> =
            results.iter().filter_map(SweepResult::missions).flatten().collect();
        out.set("missions_mean", mean(&missions));
    }

    /// The traced run: the first `traced_ops` operations phase by phase,
    /// once untraced with the built-in optimizer and once traced with its
    /// timed wrapper; both must agree bit for bit.
    pub fn traced(&self, seed: u64, out: &mut Outcome) {
        timed::register();
        let builtin = self.spec.optimizer.name();
        let wrapped = timed::name(self.spec.optimizer);
        let seeds: Vec<u64> = (0..self.traced_ops as u64).map(|i| op_seed(seed, i)).collect();

        obs::force_metrics(false);
        obs::trace::force_enabled(false);
        let start = Instant::now();
        let untraced: Vec<Result<(SweepResult, _), String>> = seeds
            .iter()
            .map(|&s| phase_sweep(&self.spec, s, builtin, &mut PhaseTimes::default()))
            .collect();
        let wall_untraced = start.elapsed().as_secs_f64();

        obs::reset();
        obs::trace::clear();
        timed::take();
        obs::force_metrics(true);
        obs::trace::force_enabled(true);
        let mut times = PhaseTimes::default();
        let start = Instant::now();
        let traced: Vec<Result<(SweepResult, _), String>> =
            seeds.iter().map(|&s| phase_sweep(&self.spec, s, &wrapped, &mut times)).collect();
        let wall = start.elapsed().as_secs_f64();
        obs::trace::force_enabled(false);
        obs::force_metrics(false);
        let snap = obs::snapshot();
        let trace = obs::trace::take();
        let totals = timed::take();

        out.check(!trace.is_empty(), || "the traced run recorded no trace events".into());
        out.set("traced_wall_s", wall);
        out.set("obs.trace_overhead_pct", 100.0 * (wall - wall_untraced) / wall_untraced);
        let mut groups = Vec::new();
        for (i, (u, t)) in untraced.iter().zip(&traced).enumerate() {
            let (u, (t, recorded)) = match (u, t) {
                (Ok((u, _)), Ok(t)) => (u, t),
                (u, t) => {
                    let err = u.as_ref().err().or(t.as_ref().err());
                    out.check(false, || format!("op {i}: {err:?}"));
                    continue;
                }
            };
            out.check(t.defect().is_none(), || format!("op {i}: {:?}", t.defect()));
            out.check(u.searches == t.searches, || {
                format!("op {i}: the timed-wrapper Phase 2 differs from Phase2::run")
            });
            out.check(u.fingerprint() == t.fingerprint(), || {
                format!("op {i}: traced and untraced fingerprints differ")
            });
            for r in &t.searches {
                let rebuilt = OptimizationResult::from_history(
                    r.algorithm.clone(),
                    r.evaluations.clone(),
                    r.reference_point.clone(),
                );
                out.check(rebuilt == *r, || format!("op {i}: from_history replay differs"));
            }
            groups.extend(
                recorded.iter().map(|r| (r.evaluator.clone(), r.output.candidates.clone())),
            );
        }

        let spans = layers::span_self_times(&snap);
        let span_sum: f64 = spans.iter().map(|(_, s)| s).sum();
        let (run, eval, tail) =
            (totals.run.as_secs_f64(), totals.eval.as_secs_f64(), totals.tail.as_secs_f64());
        out.set("core.phase2_run_s", run);
        out.set("core.eval_calls", totals.eval_calls as f64);
        let mut parts = vec![
            ("core.phase1_populate_s", times.phase1_populate.as_secs_f64()),
            ("core.eval_busy_s", eval),
            ("dse.hv_trace_s", tail),
            ("dse.optimizer_self_s", run - eval - tail - span_sum),
            ("core.phase3_select_s", times.phase3_select.as_secs_f64()),
        ];
        parts.extend(spans);
        layers::balance(out, wall, &parts, ATTRIBUTION_BOUND);
        layers::counters(&snap, out);
        let groups: Vec<ReplayGroup<'_>> = groups
            .iter()
            .map(|(evaluator, candidates)| ReplayGroup { evaluator, candidates })
            .collect();
        layers::replay(&groups, out);
        for name in SERVE_ONLY {
            out.set(name, 0.0);
        }
    }
}

/// Set-up repetitions before the first operation and before each
/// operation; `setup_s` is the median of all of them.
const SETUP_FIRST: usize = 21;
const SETUP_PER_OP: usize = 5;

/// Per-layer metrics of the server legs, which the in-process sweeps do
/// not exercise.
const SERVE_ONLY: [&str; 7] = [
    "serve.admit_s",
    "serve.queue_wait_s",
    "serve.run_s",
    "serve.result_fetch_s",
    "serve.rejected",
    "serve.job_p90_s",
    "serve.jobs",
];
