//! The three-phase pipeline, driven three ways through the public API:
//!
//! * [`run_sweep`] — the user's path: `PipelineCache` + `AutoPilot`, as
//!   the paper's exhibit binaries run it, on one worker.
//! * [`phase_sweep`] with a built-in optimizer — an independent
//!   recomputation through `Phase1::populate`, `Phase2::run` and
//!   `Phase3::select`, used to check the timed results.
//! * [`phase_sweep`] with a timed optimizer (see [`crate::timed`]) — the
//!   traced path, where `Phase2::run` drives the wrapper through
//!   `registry::build_optimizer` + `run_controlled`, so evaluator time
//!   separates from optimizer time. Its results must equal the other two
//!   bit for bit.

use crate::report::{mean, Fingerprint};
use air_sim::{AirLearningDatabase, ObstacleDensity};
use autopilot::{
    AutoPilot, AutopilotConfig, DssocEvaluator, OptimizerChoice, Phase1, Phase2, Phase2Output,
    Phase3, Phase3Selection, PipelineCache, SuccessModel, TaskSpec,
};
use dse_opt::OptimizationResult;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uav_dynamics::UavSpec;

/// What one sweep operation runs: an optimizer and budget over a set of
/// scenarios, with Phase 3 for each Table-IV UAV on each scenario.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    pub optimizer: OptimizerChoice,
    pub budget: usize,
    pub densities: Vec<ObstacleDensity>,
}

impl SweepSpec {
    pub fn config(&self, seed: u64) -> AutopilotConfig {
        AutopilotConfig::paper(seed).with_optimizer(self.optimizer).with_budget(self.budget)
    }

    /// Every (UAV, scenario) pipeline of one operation, UAV-major.
    pub fn pairs(&self) -> Vec<(UavSpec, ObstacleDensity)> {
        UavSpec::all()
            .into_iter()
            .flat_map(|u| self.densities.iter().map(move |&d| (u.clone(), d)))
            .collect()
    }
}

/// The outputs of one sweep that correctness checks compare.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One Phase-2 result per scenario, in `SweepSpec::densities` order.
    pub searches: Vec<OptimizationResult>,
    /// One Phase-3 selection per pipeline, in `SweepSpec::pairs` order.
    pub selections: Vec<Option<Phase3Selection>>,
}

impl SweepResult {
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::default();
        for r in &self.searches {
            fp.word(r.evaluations.len() as u64);
            for e in &r.evaluations {
                e.point.iter().for_each(|&p| fp.word(p as u64));
                e.objectives.iter().for_each(|&o| fp.float(o));
            }
        }
        for s in &self.selections {
            match s {
                None => fp.word(u64::MAX),
                Some(s) => {
                    s.candidate.point.iter().for_each(|&p| fp.word(p as u64));
                    fp.float(s.candidate.fps);
                    fp.float(s.candidate.config.clock_mhz());
                    fp.float(s.missions.missions);
                }
            }
        }
        fp
    }

    /// Mean final hypervolume over the searches.
    pub fn hv_final(&self) -> f64 {
        mean(&self.searches.iter().map(OptimizationResult::final_hypervolume).collect::<Vec<_>>())
    }

    /// Mean evaluations to reach 95 % of each search's final
    /// hypervolume.
    pub fn evals_to_95hv(&self) -> f64 {
        let counts: Vec<f64> = self
            .searches
            .iter()
            .map(|r| r.evaluations_to_fraction(0.95).unwrap_or(r.evaluation_count()) as f64)
            .collect();
        mean(&counts)
    }

    /// Missions per charge of every selection; `None` when a pipeline
    /// selected nothing flyable.
    pub fn missions(&self) -> Option<Vec<f64>> {
        self.selections.iter().map(|s| s.as_ref().map(|s| s.missions.missions)).collect()
    }

    /// Describes why the sweep's outputs are unusable, if they are.
    pub fn defect(&self) -> Option<String> {
        if let Some(r) = self
            .searches
            .iter()
            .find(|r| r.final_hypervolume().is_nan() || r.final_hypervolume() <= 0.0)
        {
            return Some(format!(
                "{} search has hypervolume {}",
                r.algorithm,
                r.final_hypervolume()
            ));
        }
        match self.missions() {
            None => Some("a pipeline selected no design".into()),
            Some(m) if m.iter().any(|x| !(x.is_finite() && *x > 0.0)) => {
                Some(format!("non-positive missions {m:?}"))
            }
            Some(_) => None,
        }
    }
}

/// One sweep on the user's path, with fresh caches.
///
/// # Errors
///
/// The first pipeline error, rendered.
pub fn run_sweep(spec: &SweepSpec, seed: u64) -> Result<SweepResult, String> {
    let cache = Arc::new(PipelineCache::new());
    let config = spec.config(seed);
    // Run the distinct Phase-2 problems first, as the exhibit binaries
    // do; the pipelines then read them from the cache.
    let mut searches = Vec::new();
    for &d in &spec.densities {
        let evaluator = DssocEvaluator::new(cache.phase1_database(&config, d), d);
        let out = cache.phase2_output(&config, &evaluator, Some(1)).map_err(|e| e.to_string())?;
        searches.push(out.result);
    }
    let pilot = AutoPilot::new(config).with_cache(cache).with_threads(1);
    let mut selections = Vec::new();
    for (uav, d) in spec.pairs() {
        let run = pilot.run(&uav, &TaskSpec::navigation(d)).map_err(|e| e.to_string())?;
        selections.push(run.selection);
    }
    Ok(SweepResult { searches, selections })
}

/// The Phase-1 database of one scenario.
pub fn phase1_database(seed: u64, density: ObstacleDensity) -> AirLearningDatabase {
    let mut db = AirLearningDatabase::new();
    Phase1::new(SuccessModel::Surrogate, seed).populate(density, &mut db);
    db
}

/// Wall time [`phase_sweep`] spent in each phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimes {
    pub phase1_populate: Duration,
    pub phase3_select: Duration,
}

/// What a phase-by-phase sweep hands to the per-layer replays.
pub struct Recorded {
    pub evaluator: DssocEvaluator,
    pub output: Phase2Output,
}

/// One sweep computed phase by phase, sequentially on one worker and
/// without the pipeline cache: `Phase1::populate`, then `Phase2::run`
/// with the registry optimizer `optimizer`, then `Phase3::select` for
/// every pipeline. With a built-in optimizer name this is the
/// independent reference for the user's path; with a timed wrapper name
/// it is the traced path, whose layer times add up to its wall time.
///
/// # Errors
///
/// The first Phase-2 error, rendered.
pub fn phase_sweep(
    spec: &SweepSpec,
    seed: u64,
    optimizer: &str,
    times: &mut PhaseTimes,
) -> Result<(SweepResult, Vec<Recorded>), String> {
    let mut recorded = Vec::new();
    for &d in &spec.densities {
        let start = Instant::now();
        let db = phase1_database(seed, d);
        times.phase1_populate += start.elapsed();
        let evaluator = DssocEvaluator::new(db, d);
        let output = Phase2::new(optimizer, spec.budget, seed)
            .with_threads(1)
            .run(&evaluator)
            .map_err(|e| e.to_string())?;
        recorded.push(Recorded { evaluator, output });
    }
    let start = Instant::now();
    let selections = spec
        .pairs()
        .iter()
        .map(|(uav, d)| {
            let r = &recorded[spec.densities.iter().position(|x| x == d).unwrap_or(0)];
            Phase3::new().select(uav, &TaskSpec::navigation(*d), &r.output, &r.evaluator).ok()
        })
        .collect();
    times.phase3_select += start.elapsed();
    let searches = recorded.iter().map(|r| r.output.result.clone()).collect();
    Ok((SweepResult { searches, selections }, recorded))
}
