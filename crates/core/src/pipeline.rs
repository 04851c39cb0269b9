//! The end-to-end AutoPilot pipeline (Fig. 1).

use air_sim::{AirLearningDatabase, ObstacleDensity};
use autopilot_obs as obs;
use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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
/// map evicts its oldest key past this many scenario keys. A Fig. 5
/// sweep needs 3.
const PHASE1_KEYS: usize = 16;

/// Hit/miss/eviction counters of one [`PipelineCache`] map, captured at
/// a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that computed the value.
    pub misses: u64,
    /// Entries evicted to keep the map within its key bound.
    pub evictions: u64,
    /// Live entries at snapshot time.
    pub entries: usize,
}

/// A get-or-compute map from string keys to cloned values. A bounded
/// map evicts its oldest insertion (FIFO) to make room for a new key.
/// Every counted lookup bumps its [`CacheStats`] and the obs counter of
/// the same outcome.
#[derive(Debug)]
struct FifoMap<V> {
    state: Mutex<FifoState<V>>,
    /// Most keys held; `None` = unbounded.
    bound: Option<usize>,
    /// Obs counter names of hits, misses and evictions.
    counters: [String; 3],
}

#[derive(Debug)]
struct FifoState<V> {
    entries: HashMap<String, V>,
    /// The keys of `entries`, oldest insertion first.
    order: VecDeque<String>,
    /// Counters; `entries` is filled in at snapshot time.
    stats: CacheStats,
}

impl<V: Clone> FifoMap<V> {
    /// An empty map counting under `{prefix}.hits`, `.misses` and
    /// `.evictions`.
    fn new(bound: Option<usize>, prefix: &str) -> FifoMap<V> {
        FifoMap {
            state: Mutex::new(FifoState {
                entries: HashMap::new(),
                order: VecDeque::new(),
                stats: CacheStats::default(),
            }),
            bound,
            counters: ["hits", "misses", "evictions"].map(|outcome| format!("{prefix}.{outcome}")),
        }
    }

    /// The map's state. Under the lock only cloning a value can panic,
    /// and it happens before any entry changes, so a poisoned lock still
    /// guards consistent entries and order, and is recovered.
    fn lock(&self) -> MutexGuard<'_, FifoState<V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the value cached under `key`, or runs `compute` outside
    /// the lock, so distinct keys fill concurrently, and caches its `Ok`
    /// value. When a racing writer stored `key` first, its entry is kept
    /// and returned; the miss still counts, since this caller computed.
    /// An `Err` is returned uncached and uncounted, so the next request
    /// retries.
    fn get_or_try_insert_with<E>(
        &self,
        key: String,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let [hits, misses, evictions] = &self.counters;
        {
            let mut state = self.lock();
            if let Some(value) = state.entries.get(&key).cloned() {
                state.stats.hits += 1;
                obs::add(hits, 1);
                return Ok(value);
            }
        }
        let value = compute()?;
        let mut state = self.lock();
        state.stats.misses += 1;
        obs::add(misses, 1);
        if let Some(held) = state.entries.get(&key) {
            return Ok(held.clone());
        }
        let stored = value.clone();
        if self.bound.is_some_and(|bound| state.entries.len() >= bound) {
            if let Some(oldest) = state.order.pop_front() {
                state.entries.remove(&oldest);
                state.stats.evictions += 1;
                obs::add(evictions, 1);
            }
        }
        state.order.push_back(key.clone());
        state.entries.insert(key, stored);
        Ok(value)
    }

    fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats { entries: state.entries.len(), ..state.stats }
    }
}

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
    phase1: FifoMap<AirLearningDatabase>,
    phase2: FifoMap<Phase2Output>,
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
            phase1: FifoMap::new(Some(PHASE1_KEYS), "pipeline.phase1_cache"),
            phase2: FifoMap::new(None, "pipeline.phase2_cache"),
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
        let Ok(db) = self.phase1.get_or_try_insert_with(key, || Ok::<_, Infallible>(populate()));
        db
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
        self.phase2.get_or_try_insert_with(key, run)
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

    /// Runs with `job`'s engine knobs — worker count and SWaP mode —
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

    /// Obs counter prefix for maps built by the tests below, apart from
    /// the pipeline's own.
    const TEST_COUNTERS: &str = "pipeline_test.map";

    /// Caches `value` under `key` unless already present.
    fn put(map: &FifoMap<u64>, key: u64, value: u64) -> u64 {
        let Ok(held) = map.get_or_try_insert_with(key.to_string(), || Ok::<_, Infallible>(value));
        held
    }

    #[test]
    fn racing_writer_keeps_the_first_entry() {
        let map = FifoMap::new(None, TEST_COUNTERS);
        // The compute closure stands in for a racing writer: it stores
        // the key while this caller is still computing.
        let value = map.get_or_try_insert_with("5".to_owned(), || {
            put(&map, 5, 50);
            Ok::<_, Infallible>(51)
        });
        assert_eq!(value, Ok(50), "the stored entry must win");
        assert_eq!(put(&map, 5, 0), 50);
        let st = map.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 2, 1), "both writers computed");
    }

    #[test]
    fn unbounded_map_never_evicts() {
        let map = FifoMap::new(None, TEST_COUNTERS);
        for k in 0..1_000 {
            put(&map, k, k);
        }
        let st = map.stats();
        assert_eq!((st.entries, st.evictions), (1_000, 0));
    }

    #[test]
    fn errors_are_neither_cached_nor_counted() {
        let map = FifoMap::new(Some(2), TEST_COUNTERS);
        assert_eq!(
            map.get_or_try_insert_with("1".to_owned(), || Err("transient")),
            Err("transient")
        );
        assert_eq!(map.stats(), CacheStats::default());
        // The next request retries and caches.
        assert_eq!(map.get_or_try_insert_with("1".to_owned(), || Ok::<_, ()>(10)), Ok(10));
        assert_eq!(put(&map, 1, 0), 10);
        let st = map.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
    }

    #[test]
    fn phase1_keys_are_bounded_and_evictions_counted() {
        obs::force_metrics(true);
        let before = obs::snapshot().counter("pipeline.phase1_cache.evictions");
        let cache = PipelineCache::new();
        let fetch =
            |seed: u64| cache.phase1_database(&AutopilotConfig::fast(seed), ObstacleDensity::Low);
        for seed in 0..20 {
            fetch(seed);
        }
        let st = cache.phase1_stats();
        assert_eq!((st.misses, st.evictions, st.entries), (20, 4, PHASE1_KEYS));
        assert_eq!(obs::snapshot().counter("pipeline.phase1_cache.evictions") - before, 4);
        // Insertion order decides: seed 4 is the oldest key still held,
        // and seeds 0-3 are gone.
        let held = fetch(4);
        assert_eq!(cache.phase1_stats().hits, 1);
        assert_eq!(held, fetch(4));
        fetch(0);
        assert_eq!(cache.phase1_stats().misses, 21, "evicted seed 0 is recomputed");
    }

    #[test]
    fn concurrent_counters_equal_the_outcomes_callers_saw() {
        // Every lookup is counted exactly once, on the outcome its caller
        // saw (a miss runs `compute`), under contention on a bounded map.
        let map: FifoMap<usize> = FifoMap::new(Some(16), TEST_COUNTERS);
        let (threads, per_thread) = (4, 2_000);
        let misses: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let map = &map;
                    scope.spawn(move || {
                        let (mut rng, mut computed) = (autopilot_rng::Rng::seed_from_u64(t), 0);
                        for _ in 0..per_thread {
                            let key = rng.below(32);
                            let value = map.get_or_try_insert_with(key.to_string(), || {
                                computed += 1;
                                Ok::<_, Infallible>(key)
                            });
                            assert_eq!(value, Ok(key));
                        }
                        computed
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker")).sum()
        });
        let st = map.stats();
        assert_eq!(st.hits + st.misses, threads * per_thread);
        assert_eq!(st.misses, misses as u64);
        assert!(st.hits > 0, "2,000 draws from 32 keys must hit a 16-key map");
        assert!(st.entries <= 16, "key bound violated: {}", st.entries);
        // Each insert either adds an entry or displaces one; a racing
        // writer's miss inserts nothing.
        assert!(st.entries as u64 + st.evictions <= st.misses);
    }
}
