//! The end-to-end AutoPilot pipeline (Fig. 1).

use air_sim::{AirLearningDatabase, ObstacleDensity};
use autopilot_obs as obs;
use autopilot_shard::{CacheStats, ShardedMap};
use std::sync::Arc;
use uav_dynamics::UavSpec;

use crate::config::JobConfig;
use crate::error::AutopilotError;
use crate::phase1::{Phase1, SuccessModel};
use crate::phase2::{DssocEvaluator, OptimizerChoice, Phase2, Phase2Output};
use crate::phase3::{Phase3, Phase3Selection};
use crate::spec::TaskSpec;
use uav_dynamics::Airframe;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutopilotConfig {
    /// Deterministic seed for every stochastic component.
    pub seed: u64,
    /// Phase-2 evaluation budget.
    pub phase2_budget: usize,
    /// Phase-2 optimizer.
    pub optimizer: OptimizerChoice,
    /// Phase-1 success model.
    pub success_model: SuccessModel,
    /// Whether Phase 3 may fine-tune clock/node toward the knee.
    pub fine_tuning: bool,
}

impl AutopilotConfig {
    /// A fast configuration (surrogate success model, modest DSE budget)
    /// suitable for tests and examples.
    pub fn fast(seed: u64) -> AutopilotConfig {
        AutopilotConfig {
            seed,
            phase2_budget: 60,
            optimizer: OptimizerChoice::SmsEgo,
            success_model: SuccessModel::Surrogate,
            fine_tuning: true,
        }
    }

    /// The configuration used for the paper-reproduction experiments:
    /// larger DSE budget, surrogate success model (the Q-learning
    /// substrate is exercised by its own experiments).
    pub fn paper(seed: u64) -> AutopilotConfig {
        AutopilotConfig { phase2_budget: 200, ..AutopilotConfig::fast(seed) }
    }

    /// Overrides the Phase-2 optimizer.
    pub fn with_optimizer(mut self, optimizer: OptimizerChoice) -> AutopilotConfig {
        self.optimizer = optimizer;
        self
    }

    /// Overrides the Phase-2 budget.
    pub fn with_budget(mut self, budget: usize) -> AutopilotConfig {
        self.phase2_budget = budget;
        self
    }
}

/// Most Phase-1 databases a [`PipelineCache`] holds. The co-design
/// server keys them by request seed, which is untrusted input, so the
/// map clock-evicts past this many scenario keys (one shard: the bound
/// is exact). A Fig. 5 sweep needs 3.
const PHASE1_KEYS: usize = 16;

/// Cross-run memoization of the UAV-independent pipeline stages.
///
/// Phases 1 and 2 depend only on the deployment scenario and the
/// configuration — not on the UAV — so a sweep over several airframes at
/// the same obstacle densities (the fig5/table5 pattern: 3 UAVs × 3
/// densities but only 3 distinct Phase-2 problems) re-runs the DSE once
/// per scenario instead of once per (UAV, scenario) pair. The cache is
/// `Sync`; scenario runs may fan out across threads against one shared
/// instance. Both maps count their traffic under
/// `pipeline.phase{1,2}_cache.*`.
#[derive(Debug)]
pub struct PipelineCache {
    phase1: ShardedMap<String, AirLearningDatabase>,
    phase2: ShardedMap<String, Phase2Output>,
}

impl Default for PipelineCache {
    fn default() -> PipelineCache {
        PipelineCache::new()
    }
}

impl PipelineCache {
    /// Creates an empty cache.
    pub fn new() -> PipelineCache {
        PipelineCache {
            phase1: ShardedMap::new(1, PHASE1_KEYS).with_obs_prefix("pipeline.phase1_cache"),
            phase2: ShardedMap::new(1, 0).with_obs_prefix("pipeline.phase2_cache"),
        }
    }

    fn phase1_key(config: &AutopilotConfig, density: ObstacleDensity) -> String {
        format!("{:?}|{:?}|{}", density, config.success_model, config.seed)
    }

    fn phase2_key(config: &AutopilotConfig, density: ObstacleDensity) -> String {
        // Thread counts are excluded: optimizer output is bit-identical
        // at any worker count, so it must not split the cache.
        format!(
            "{:?}|{:?}|{}|{}|{:?}",
            density, config.success_model, config.seed, config.phase2_budget, config.optimizer
        )
    }

    /// The Phase-1 database for a scenario, populated on first request.
    pub fn phase1_database(
        &self,
        config: &AutopilotConfig,
        density: ObstacleDensity,
    ) -> AirLearningDatabase {
        let key = PipelineCache::phase1_key(config, density);
        let populate = || {
            let mut db = AirLearningDatabase::new();
            Phase1::new(config.success_model, config.seed).populate(density, &mut db);
            db
        };
        self.phase1.get_or_insert_with(key, populate).0
    }

    /// The Phase-2 output for a scenario, running the DSE on first
    /// request. Failed runs are returned, not cached, so a transient
    /// failure is retried on the next request.
    ///
    /// # Errors
    ///
    /// Propagates [`AutopilotError`] from [`Phase2::run`].
    pub fn phase2_output(
        &self,
        config: &AutopilotConfig,
        evaluator: &DssocEvaluator,
        threads: Option<usize>,
    ) -> Result<Phase2Output, AutopilotError> {
        let key = PipelineCache::phase2_key(config, evaluator.density());
        let run = || {
            let mut phase2 = Phase2::new(config.optimizer, config.phase2_budget, config.seed);
            if let Some(t) = threads {
                phase2 = phase2.with_threads(t);
            }
            phase2.run(evaluator)
        };
        Ok(self.phase2.get_or_try_insert_with(key, run)?.0)
    }

    /// Hit/miss/entry counters for the Phase-1 database cache.
    pub fn phase1_stats(&self) -> CacheStats {
        self.phase1.stats()
    }

    /// Hit/miss/entry counters for the Phase-2 cache.
    pub fn phase2_stats(&self) -> CacheStats {
        self.phase2.stats()
    }
}

/// The AutoPilot methodology, ready to run on (UAV, task) pairs.
#[derive(Debug, Clone)]
pub struct AutoPilot {
    config: AutopilotConfig,
    cache: Option<Arc<PipelineCache>>,
    job: JobConfig,
}

impl AutoPilot {
    /// Creates a pipeline with `config` and the engine's default knobs
    /// ([`JobConfig::default`]; the environment is not read).
    pub fn new(config: AutopilotConfig) -> AutoPilot {
        AutoPilot { config, cache: None, job: JobConfig::default() }
    }

    /// Shares phase-1/phase-2 results with other runs through `cache`.
    /// Results are unchanged; only repeated work is skipped.
    pub fn with_cache(mut self, cache: Arc<PipelineCache>) -> AutoPilot {
        self.cache = Some(cache);
        self
    }

    /// Pins the Phase-2 worker count (default: the engine-wide default).
    pub fn with_threads(mut self, n: usize) -> AutoPilot {
        self.job = self.job.with_threads(n);
        self
    }

    /// Runs with `job`'s engine knobs — worker count, GP window,
    /// surrogate and exponential modes and SWaP mode —
    /// replacing every knob set so far (the thread count included). A
    /// job that [searches differently](JobConfig::searches_differently)
    /// from the defaults bypasses the scenario-keyed pipeline cache.
    pub fn with_job_config(mut self, job: JobConfig) -> AutoPilot {
        self.job = job;
        self
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &AutopilotConfig {
        &self.config
    }

    /// Applies the SWaP constraint to an evaluator for `uav`: in
    /// constraint mode the check runs against the UAV's own airframe
    /// when one was built, else the default build of its class.
    fn apply_swap(&self, ev: DssocEvaluator, uav: &UavSpec) -> DssocEvaluator {
        let swap = self.job.swap;
        if swap.is_on() {
            let airframe = uav.airframe.clone().unwrap_or_else(|| Airframe::default_for(uav.class));
            ev.with_swap(swap, airframe)
        } else {
            ev
        }
    }

    /// Runs all three phases for one (UAV, task) pair.
    ///
    /// `selection` is `None` when Phase 3 found no flyable design (see
    /// [`AutoPilot::select`] for the error detail).
    ///
    /// # Errors
    ///
    /// Returns [`AutopilotError`] when Phase 2 itself fails (unknown
    /// optimizer name, or an evaluation/surrogate failure mid-search).
    /// Phase-3 selection failures are *not* errors at this level: they
    /// are recorded in [`AutopilotResult::selection_error`] so sweeps
    /// over many (UAV, task) pairs keep the partial result.
    pub fn run(&self, uav: &UavSpec, task: &TaskSpec) -> Result<AutopilotResult, AutopilotError> {
        let _span = obs::span("pipeline.run");
        // Phase 1: front end.
        let db = match &self.cache {
            Some(cache) => cache.phase1_database(&self.config, task.density),
            None => {
                let mut db = AirLearningDatabase::new();
                Phase1::new(self.config.success_model, self.config.seed)
                    .populate(task.density, &mut db);
                db
            }
        };

        // Phase 2: multi-objective DSE.
        let evaluator = self.apply_swap(DssocEvaluator::new(db.clone(), task.density), uav);
        let phase2 = match &self.cache {
            Some(cache) if !self.job.searches_differently() => {
                cache.phase2_output(&self.config, &evaluator, self.job.threads)?
            }
            _ => Phase2::new(self.config.optimizer, self.config.phase2_budget, self.config.seed)
                .with_job_config(self.job)
                .run(&evaluator)?,
        };

        // Phase 3: full-system back end.
        let phase3 =
            if self.config.fine_tuning { Phase3::new() } else { Phase3::without_fine_tuning() };
        let selection = phase3.select(uav, task, &phase2, &evaluator);

        Ok(AutopilotResult {
            uav: uav.clone(),
            task: task.clone(),
            database: db,
            phase2,
            selection_error: selection.as_ref().err().map(|e| e.to_string()),
            selection: selection.ok(),
        })
    }

    /// Like [`AutoPilot::run`] but surfacing the Phase-3 error.
    ///
    /// # Errors
    ///
    /// Propagates [`AutopilotError`] from any phase — including Phase 3's
    /// selection errors (no candidate meets the success threshold, or no
    /// design can fly the UAV), which [`AutoPilot::run`] only records.
    pub fn select(
        &self,
        uav: &UavSpec,
        task: &TaskSpec,
    ) -> Result<Phase3Selection, AutopilotError> {
        let result = self.run(uav, task)?;
        match result.selection {
            Some(s) => Ok(s),
            None => {
                // Re-derive the typed error (run() keeps only its text).
                let evaluator =
                    self.apply_swap(DssocEvaluator::new(result.database, task.density), uav);
                let phase3 = if self.config.fine_tuning {
                    Phase3::new()
                } else {
                    Phase3::without_fine_tuning()
                };
                // Selection is deterministic, so this re-selection fails
                // exactly as the one inside run() did; if it somehow
                // succeeds, the selection is simply returned.
                phase3.select(uav, task, &result.phase2, &evaluator)
            }
        }
    }
}

/// Everything one pipeline run produced.
#[derive(Debug, Clone)]
pub struct AutopilotResult {
    /// The UAV the run targeted.
    pub uav: UavSpec,
    /// The task specification.
    pub task: TaskSpec,
    /// Phase-1 database (policy success rates).
    pub database: AirLearningDatabase,
    /// Phase-2 output (all candidates, Pareto frontier, optimizer
    /// history).
    pub phase2: Phase2Output,
    /// Phase-3 selection, when one exists.
    pub selection: Option<Phase3Selection>,
    /// Human-readable reason when `selection` is `None`.
    pub selection_error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swap::SwapMode;
    use air_sim::ObstacleDensity;
    use dse_opt::SurrogateMode;

    fn fast_pilot(seed: u64) -> AutoPilot {
        AutoPilot::new(
            AutopilotConfig::fast(seed).with_optimizer(OptimizerChoice::Random).with_budget(24),
        )
    }

    #[test]
    fn full_pipeline_selects_for_nano() {
        let result = fast_pilot(3)
            .run(&UavSpec::nano(), &TaskSpec::navigation(ObstacleDensity::Dense))
            .expect("pipeline runs");
        let sel = result.selection.expect("nano selection");
        assert!(sel.missions.missions > 0.0);
        assert_eq!(result.database.len(), 27);
        assert!(!result.phase2.candidates.is_empty());
    }

    #[test]
    fn pipeline_is_deterministic() {
        let task = TaskSpec::navigation(ObstacleDensity::Medium);
        let a = fast_pilot(9).run(&UavSpec::micro(), &task).expect("pipeline runs");
        let b = fast_pilot(9).run(&UavSpec::micro(), &task).expect("pipeline runs");
        assert_eq!(a.selection, b.selection);
        assert_eq!(a.phase2.candidates.len(), b.phase2.candidates.len());
    }

    #[test]
    fn select_surfaces_errors() {
        let mut weak = UavSpec::nano();
        weak.base_thrust_to_weight = 1.01;
        let err =
            fast_pilot(1).select(&weak, &TaskSpec::navigation(ObstacleDensity::Low)).unwrap_err();
        assert!(matches!(err, AutopilotError::NoFlyableDesign { .. }));
    }

    #[test]
    fn unknown_optimizer_surfaces_from_run() {
        // A config whose optimizer name is not registered must error,
        // not panic. AutopilotConfig only names builtins, so drive
        // Phase2 directly through the cache layer.
        let cache = PipelineCache::new();
        let config = AutopilotConfig::fast(1).with_budget(8);
        let db = cache.phase1_database(&config, ObstacleDensity::Low);
        let ev = DssocEvaluator::new(db, ObstacleDensity::Low);
        let err = Phase2::new("not-registered", 8, 1).run(&ev).unwrap_err();
        assert!(matches!(err, AutopilotError::UnknownOptimizer { .. }));
    }

    #[test]
    fn config_presets() {
        assert!(AutopilotConfig::paper(0).phase2_budget > AutopilotConfig::fast(0).phase2_budget);
    }

    #[test]
    fn shared_cache_reuses_phase2_across_uavs() {
        let task = TaskSpec::navigation(ObstacleDensity::Dense);
        let cache = Arc::new(PipelineCache::new());
        let config =
            AutopilotConfig::fast(5).with_optimizer(OptimizerChoice::Random).with_budget(16);
        let pilot = AutoPilot::new(config).with_cache(Arc::clone(&cache));
        let nano = pilot.run(&UavSpec::nano(), &task).expect("pipeline runs");
        let micro = pilot.run(&UavSpec::micro(), &task).expect("pipeline runs");
        let stats = cache.phase2_stats();
        assert_eq!(stats.misses, 1, "phase 2 must run once for a shared scenario");
        assert_eq!(stats.hits, 1);
        assert_eq!(nano.phase2.candidates, micro.phase2.candidates);
    }

    #[test]
    fn swap_job_produces_feasible_selection_and_bypasses_cache() {
        let task = TaskSpec::navigation(ObstacleDensity::Dense);
        let cache = Arc::new(PipelineCache::new());
        let config =
            AutopilotConfig::fast(5).with_optimizer(OptimizerChoice::Random).with_budget(24);
        let job = JobConfig::default().with_swap(SwapMode::Constraint);
        let pilot = AutoPilot::new(config).with_cache(Arc::clone(&cache)).with_job_config(job);
        let uav = UavSpec::nano().with_airframe(Airframe::nano());
        let result = pilot.run(&uav, &task).expect("pipeline runs");
        let sel = result.selection.expect("swap-mode selection");
        let swap = sel.swap.expect("constraint mode records feasibility");
        assert!(swap.feasible());
        assert!(sel.candidate.payload_g <= 50.0, "payload must fit the 100 g nano cap");
        // The UAV-agnostic scenario cache must not serve swap-mode runs.
        assert_eq!(cache.phase2_stats().hits + cache.phase2_stats().misses, 0);
        // An explicit Off job stays on the legacy path and caches.
        let legacy_job = JobConfig::default().with_swap(SwapMode::Off);
        let legacy = AutoPilot::new(config)
            .with_cache(Arc::clone(&cache))
            .with_job_config(legacy_job)
            .run(&UavSpec::nano(), &task)
            .expect("pipeline runs");
        assert!(legacy.selection.expect("legacy selection").swap.is_none());
        assert_eq!(cache.phase2_stats().misses, 1);
    }

    #[test]
    fn search_changing_jobs_miss_the_phase2_cache() {
        let task = TaskSpec::navigation(ObstacleDensity::Dense);
        let cache = Arc::new(PipelineCache::new());
        let config =
            AutopilotConfig::fast(5).with_optimizer(OptimizerChoice::Random).with_budget(12);
        let run = |job: JobConfig| {
            AutoPilot::new(config)
                .with_cache(Arc::clone(&cache))
                .with_job_config(job)
                .run(&UavSpec::nano(), &task)
                .expect("pipeline runs");
            cache.phase2_stats().hits
        };
        assert_eq!(run(JobConfig::default()), 0, "the default run warms the cache");
        assert_eq!(cache.phase2_stats().misses, 1);
        let job = JobConfig::default()
            .with_surrogate(SurrogateMode::Sparse { threshold: 48, inducing: 16 });
        assert_eq!(run(job), 0, "{job:?} must not be served the default search");
        // Threads never change results, so a job that only pins them is
        // served the warmed default search.
        assert_eq!(run(JobConfig::default().with_threads(1)), 1);
        let job = JobConfig::default().with_swap(SwapMode::Constraint);
        assert_eq!(run(job), 1, "{job:?} must not be served the default search");
    }

    #[test]
    fn cached_pipeline_matches_uncached() {
        let task = TaskSpec::navigation(ObstacleDensity::Medium);
        let config =
            AutopilotConfig::fast(7).with_optimizer(OptimizerChoice::Random).with_budget(16);
        let plain = AutoPilot::new(config).run(&UavSpec::nano(), &task).expect("pipeline runs");
        let cached = AutoPilot::new(config)
            .with_cache(Arc::new(PipelineCache::new()))
            .run(&UavSpec::nano(), &task)
            .expect("pipeline runs");
        assert_eq!(plain.selection, cached.selection);
        assert_eq!(plain.phase2.candidates, cached.phase2.candidates);
        assert_eq!(plain.phase2.result, cached.phase2.result);
    }
}
