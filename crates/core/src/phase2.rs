//! Phase 2: domain-agnostic multi-objective HW-SW co-design.

use air_sim::{AirLearningDatabase, ObstacleDensity, SuccessSurrogate};
use autopilot_obs as obs;
use autopilot_shard::{CacheStats, Lookup, LookupCounters, ShardedMap};
use dse_opt::{EvalError, Evaluator, OptimizationResult, RunControl};
use policy_nn::{PolicyHyperparams, PolicyModel};
use soc_power::SocPowerModel;
use std::sync::Arc;
use systolic_sim::{ArrayConfig, Simulator};

use crate::config::JobConfig;
use crate::error::AutopilotError;
use crate::registry::{self, OptimizerContext};
use crate::space::JointSpace;
use crate::swap::SwapMode;
use uav_dynamics::Airframe;

/// Which optimizer drives the DSE (the paper uses Bayesian optimization
/// and lists the others as drop-in replacements).
///
/// This enum names the built-in registry entries; [`Phase2::new`] also
/// accepts any string registered through
/// [`registry::register_optimizer`], so downstream crates are not
/// limited to these variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptimizerChoice {
    /// Multi-objective Bayesian optimization with SMS-EGO (the paper's
    /// choice).
    #[default]
    SmsEgo,
    /// NSGA-II genetic algorithm.
    Nsga2,
    /// Simulated annealing.
    Annealing,
    /// Uniform random search.
    Random,
}

impl OptimizerChoice {
    /// All selectable optimizers.
    pub const ALL: [OptimizerChoice; 4] = [
        OptimizerChoice::SmsEgo,
        OptimizerChoice::Nsga2,
        OptimizerChoice::Annealing,
        OptimizerChoice::Random,
    ];

    /// The registry name of this optimizer.
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerChoice::SmsEgo => "sms-ego-bo",
            OptimizerChoice::Nsga2 => "nsga-ii",
            OptimizerChoice::Annealing => "simulated-annealing",
            OptimizerChoice::Random => "random-search",
        }
    }
}

impl From<OptimizerChoice> for String {
    fn from(choice: OptimizerChoice) -> String {
        choice.name().to_owned()
    }
}

/// The Phase-2 black box: maps a joint design point to
/// `(1 - success rate, average SoC power W, inference latency s)`.
///
/// Success rates come from the Phase-1 database (falling back to the
/// calibrated surrogate for unpopulated entries); power and latency come
/// from the cycle-accurate simulator and the SoC power models.
#[derive(Debug, Clone)]
pub struct DssocEvaluator {
    db: AirLearningDatabase,
    density: ObstacleDensity,
    power_model: SocPowerModel,
    /// Owner tag (job id) stamped on candidate-cache entries this
    /// evaluator inserts; hits on entries another owner inserted count
    /// as cross-run hits. Zero for the single-run CLI path.
    owner: u64,
    /// Whether compute weight is enforced as an airframe feasibility
    /// constraint ([`SwapMode::Constraint`]) or ignored (legacy mode).
    swap: SwapMode,
    /// The airframe the SWaP constraint checks against; `None` outside
    /// [`SwapMode::Constraint`].
    airframe: Option<Arc<Airframe>>,
}

impl DssocEvaluator {
    /// Creates an evaluator for one deployment scenario.
    pub fn new(db: AirLearningDatabase, density: ObstacleDensity) -> DssocEvaluator {
        DssocEvaluator {
            db,
            density,
            power_model: SocPowerModel::new(),
            owner: 0,
            swap: SwapMode::Off,
            airframe: None,
        }
    }

    /// Returns a copy of this evaluator with the SWaP constraint set. In
    /// [`SwapMode::Constraint`] every candidate whose compute payload is
    /// structurally infeasible on `airframe` (weight-class cap or static
    /// margin) is death-penalized: its objectives are replaced by the
    /// reference point, so it never enters the Pareto front. In
    /// [`SwapMode::Off`] the airframe is dropped and objectives are the
    /// legacy bit-identical values.
    pub fn with_swap(mut self, mode: SwapMode, airframe: Airframe) -> DssocEvaluator {
        self.swap = mode;
        self.airframe = mode.is_on().then(|| Arc::new(airframe));
        self
    }

    /// The configured SWaP mode.
    pub fn swap_mode(&self) -> SwapMode {
        self.swap
    }

    /// The airframe the SWaP constraint checks against, when one is set.
    pub fn airframe(&self) -> Option<&Airframe> {
        self.airframe.as_deref()
    }

    /// The objective vector of an evaluated candidate:
    /// `(1 - success rate, average SoC power W, inference latency s)`,
    /// death-penalized to the reference point when the SWaP constraint
    /// is on and the candidate's payload is structurally infeasible.
    pub fn objectives(&self, c: &DesignCandidate) -> Vec<f64> {
        if let Some(airframe) = self.airframe.as_deref() {
            let feasible =
                airframe.check_payload(c.payload_g).map(|f| f.feasible()).unwrap_or(false);
            if !feasible {
                obs::add("phase2.swap.penalized", 1);
                return self.reference_point();
            }
        }
        vec![1.0 - c.success_rate, c.soc_avg_w, c.latency_s]
    }

    /// The scenario this evaluator scores against.
    pub fn density(&self) -> ObstacleDensity {
        self.density
    }

    /// The owner tag stamped on cache entries this evaluator inserts.
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// Returns a copy of this evaluator that stamps the candidate-cache
    /// entries it inserts with `owner` (a job id), so a hit another
    /// job's evaluator gets on them counts as a cross-run hit. Owners
    /// only attribute traffic; they never change results.
    pub fn with_owner(mut self, owner: u64) -> DssocEvaluator {
        self.owner = owner;
        self
    }

    /// Success rate for a policy, preferring Phase-1 records.
    pub fn success_rate(&self, hyper: PolicyHyperparams) -> f64 {
        self.db.success_rate(hyper, self.density).unwrap_or_else(|| {
            SuccessSurrogate::paper_calibrated()
                .success_rate(&PolicyModel::build(hyper), self.density)
        })
    }

    /// The policy with the highest Phase-1 success rate for this
    /// scenario. Each policy's success rate is computed once, not once
    /// per pairwise comparison.
    pub fn best_policy(&self) -> PolicyHyperparams {
        PolicyHyperparams::enumerate()
            .into_iter()
            .map(|h| (h, self.success_rate(h)))
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(h, _)| h)
            // The Table II space is never empty; the fallback keeps this
            // panic-free regardless.
            .unwrap_or_else(PolicyHyperparams::smallest)
    }

    /// Full evaluation of one joint design point.
    ///
    /// # Errors
    ///
    /// Returns [`AutopilotError::InvalidDesignPoint`] when `point` does
    /// not decode to a Table II design.
    pub fn evaluate_design(&self, point: &[usize]) -> Result<DesignCandidate, AutopilotError> {
        let (hyper, config) = JointSpace::decode(point)?;
        Ok(self.evaluate_config(point.to_vec(), hyper, config, soc_power::TechNode::N28))
    }

    /// Full evaluation of an explicit (policy, configuration) pair at a
    /// technology node; used by Phase 3's architectural fine-tuning,
    /// where clock and node leave the Table II grid.
    pub fn evaluate_config(
        &self,
        point: Vec<usize>,
        hyper: PolicyHyperparams,
        config: ArrayConfig,
        node: soc_power::TechNode,
    ) -> DesignCandidate {
        let model = PolicyModel::build(hyper);
        let stats = {
            let _span = obs::span("systolic.network");
            Simulator::new(config.clone()).simulate_network(model.layers())
        };
        let power_model = if node == self.power_model.node() {
            self.power_model
        } else {
            SocPowerModel::at_node(node)
        };
        let power = power_model.evaluate(&config, &stats);
        DesignCandidate {
            point,
            policy: hyper,
            config,
            success_rate: self.success_rate(hyper),
            latency_s: stats.latency_s(),
            fps: stats.fps(),
            soc_avg_w: power.total_avg_w(),
            tdp_w: power.tdp_w(),
            payload_g: power.compute_payload_grams(),
            efficiency_fps_per_w: power.efficiency_fps_per_w(),
        }
    }
}

/// Maps a pipeline error to the evaluator-layer error the optimizers
/// understand, preserving the invalid-point detail when there is one.
fn to_eval_error(e: AutopilotError) -> EvalError {
    match e {
        AutopilotError::InvalidDesignPoint { point, reason } => {
            EvalError::InvalidPoint { point, reason }
        }
        other => EvalError::Failed { message: other.to_string() },
    }
}

impl Evaluator for DssocEvaluator {
    fn num_objectives(&self) -> usize {
        3
    }

    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
        let c = self.evaluate_design(point).map_err(to_eval_error)?;
        Ok(self.objectives(&c))
    }

    fn reference_point(&self) -> Vec<f64> {
        // Success term <= 1; SoC power stays below ~200 W even for the
        // largest Table II arrays; latency below 2 s.
        vec![1.1, 200.0, 2.0]
    }
}

/// One fully evaluated DSSoC design candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignCandidate {
    /// Joint design-space point.
    pub point: Vec<usize>,
    /// Policy hyperparameters.
    pub policy: PolicyHyperparams,
    /// Accelerator configuration.
    pub config: ArrayConfig,
    /// Validated task success rate.
    pub success_rate: f64,
    /// Inference latency, seconds.
    pub latency_s: f64,
    /// Inference throughput, FPS.
    pub fps: f64,
    /// Average whole-SoC power, watts.
    pub soc_avg_w: f64,
    /// Accelerator TDP, watts (sizes the heatsink).
    pub tdp_w: f64,
    /// Compute payload weight, grams.
    pub payload_g: f64,
    /// Compute efficiency, FPS per watt.
    pub efficiency_fps_per_w: f64,
}

/// Number of shards in a [`CandidateCache`].
const CACHE_SHARDS: usize = 8;

/// Thread-safe memoization of full design-point evaluations
/// (point → [`DesignCandidate`]), sharded for multi-tenant sharing.
///
/// A candidate is a deterministic function of the point for a fixed
/// evaluator (database, scenario, power model), so one cache must only
/// ever be fed by evaluators of the same scenario — [`Phase2::run`]
/// creates a private cache, the pipeline-level cache keys by scenario,
/// and the co-design server keeps one process-lifetime cache per
/// scenario key. Storage and counting are a [`ShardedMap`]: per-shard
/// locks (with poisoned-lock recovery) so concurrent jobs contend only
/// on shard collisions, entries tagged with the evaluator's owner so a
/// hit served from another job's work is a *cross-run* hit, and
/// optional clock eviction when constructed with
/// [`CandidateCache::bounded`]. No lock is held across simulator runs,
/// so parallel optimizer workers evaluate distinct points concurrently;
/// failed evaluations are never cached.
#[derive(Debug)]
pub struct CandidateCache {
    map: ShardedMap<Vec<usize>, DesignCandidate>,
}

impl Default for CandidateCache {
    fn default() -> CandidateCache {
        CandidateCache::new()
    }
}

impl CandidateCache {
    /// Creates an empty, unbounded cache (the per-run semantics).
    pub fn new() -> CandidateCache {
        CandidateCache::with_capacity(0)
    }

    /// Creates a cache bounded at roughly `capacity` entries (spread
    /// across shards), evicting cold entries clock-style once full —
    /// the process-lifetime configuration the server uses.
    pub fn bounded(capacity: usize) -> CandidateCache {
        CandidateCache::with_capacity(capacity.max(1))
    }

    fn with_capacity(capacity: usize) -> CandidateCache {
        CandidateCache {
            map: ShardedMap::new(CACHE_SHARDS, capacity).with_obs_prefix("phase2.candidate_cache"),
        }
    }

    /// Returns the candidate for `point` and how the lookup was
    /// answered, running the full evaluation (systolic simulation +
    /// power models + success lookup) only on the first request. New
    /// entries carry `evaluator`'s owner tag, so a hit on an entry
    /// another owner inserted is a [`Lookup::CrossRunHit`]. Failures
    /// are returned, not cached, so a transient failure is retried on
    /// the next request.
    ///
    /// # Errors
    ///
    /// Propagates [`AutopilotError`] from
    /// [`DssocEvaluator::evaluate_design`].
    pub fn evaluate(
        &self,
        evaluator: &DssocEvaluator,
        point: &[usize],
    ) -> Result<(DesignCandidate, Lookup), AutopilotError> {
        self.map.get_or_try_insert_with(point.to_vec(), evaluator.owner(), || {
            evaluator.evaluate_design(point)
        })
    }

    /// The cached candidate for `point`, if any (does not count toward
    /// hit/miss statistics).
    pub fn get(&self, point: &[usize]) -> Option<DesignCandidate> {
        self.map.peek(&point.to_vec())
    }

    /// Snapshots hit/miss/entry counters, summed over every run that
    /// used this cache.
    pub fn stats(&self) -> CacheStats {
        self.map.stats()
    }
}

/// Adapter exposing a [`CandidateCache`]-backed [`DssocEvaluator`] to the
/// optimizers: objective vectors are derived from cached candidates, so
/// the simulator runs at most once per design point. It counts its own
/// run's lookups, so a run's statistics stay exact while other runs
/// share the cache.
struct CachingEvaluator<'a> {
    inner: &'a DssocEvaluator,
    cache: &'a CandidateCache,
    counters: LookupCounters,
}

impl CachingEvaluator<'_> {
    fn candidate(&self, point: &[usize]) -> Result<DesignCandidate, AutopilotError> {
        let (c, lookup) = self.cache.evaluate(self.inner, point)?;
        self.counters.record(lookup);
        Ok(c)
    }
}

impl Evaluator for CachingEvaluator<'_> {
    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
        let c = self.candidate(point).map_err(to_eval_error)?;
        Ok(self.inner.objectives(&c))
    }

    fn reference_point(&self) -> Vec<f64> {
        self.inner.reference_point()
    }
}

/// Phase-2 configuration and runner.
///
/// The optimizer is selected *by name* through the
/// [`registry`](crate::registry): the built-in choices are covered by
/// [`OptimizerChoice`] (which converts into its registry name), and any
/// optimizer registered at runtime is equally selectable. Engine knobs
/// come from one [`JobConfig`] (constant defaults unless
/// [`Phase2::with_job_config`] sets one); the optimizer sees its worker
/// count, GP window, surrogate and exponential modes, while SWaP gating
/// belongs to the evaluator.
#[derive(Debug, Clone)]
pub struct Phase2 {
    optimizer: String,
    budget: usize,
    seed: u64,
    job: JobConfig,
}

impl Phase2 {
    /// Creates a Phase-2 runner. `optimizer` is a registry name (or an
    /// [`OptimizerChoice`], which converts to one).
    pub fn new(optimizer: impl Into<String>, budget: usize, seed: u64) -> Phase2 {
        Phase2 {
            optimizer: optimizer.into(),
            budget: budget.max(4),
            seed,
            job: JobConfig::default(),
        }
    }

    /// The registry name of the configured optimizer.
    pub fn optimizer(&self) -> &str {
        &self.optimizer
    }

    /// Pins the optimizer worker count (default: the engine-wide default,
    /// see `dse_opt::par::worker_count`). Results are bit-identical at
    /// any thread count.
    pub fn with_threads(mut self, n: usize) -> Phase2 {
        self.job = self.job.with_threads(n);
        self
    }

    /// Runs with `job`'s engine knobs, replacing every knob set so far
    /// (the thread count included).
    pub fn with_job_config(mut self, job: JobConfig) -> Phase2 {
        self.job = job;
        self
    }

    /// Runs the DSE with a private candidate cache.
    ///
    /// # Errors
    ///
    /// See [`Phase2::run_with_cache`].
    pub fn run(&self, evaluator: &DssocEvaluator) -> Result<Phase2Output, AutopilotError> {
        self.run_with_cache(evaluator, &CandidateCache::new())
    }

    /// Runs the DSE against a shared candidate cache, so repeated runs on
    /// the same scenario (e.g. the fig5/table5 sweep) skip the simulator
    /// for already-evaluated points.
    ///
    /// The cache must only hold candidates produced by an evaluator of
    /// the same scenario as `evaluator`.
    ///
    /// # Errors
    ///
    /// * [`AutopilotError::UnknownOptimizer`] when the configured name is
    ///   not registered.
    /// * [`AutopilotError::Dse`] when the optimizer or an evaluation
    ///   fails mid-run.
    pub fn run_with_cache(
        &self,
        evaluator: &DssocEvaluator,
        cache: &CandidateCache,
    ) -> Result<Phase2Output, AutopilotError> {
        self.run_with_cache_controlled(evaluator, cache, &RunControl::none())
    }

    /// Like [`Phase2::run_with_cache`], threading a [`RunControl`] token
    /// through the optimizer so the run can be cancelled cooperatively
    /// (`DELETE /jobs/:id` on the co-design server) and its progress
    /// polled mid-flight. A never-cancelled token yields bit-identical
    /// results to [`Phase2::run_with_cache`].
    ///
    /// # Errors
    ///
    /// As [`Phase2::run_with_cache`], plus [`AutopilotError::Dse`]
    /// wrapping [`dse_opt::DseError::Cancelled`] when `control` is
    /// cancelled mid-run.
    pub fn run_with_cache_controlled(
        &self,
        evaluator: &DssocEvaluator,
        cache: &CandidateCache,
        control: &RunControl,
    ) -> Result<Phase2Output, AutopilotError> {
        let _span = obs::span("phase2.run");
        let cached =
            CachingEvaluator { inner: evaluator, cache, counters: LookupCounters::default() };
        let mut opt = registry::build_optimizer(&self.optimizer, &self.context(evaluator))?;
        let result =
            opt.run_controlled(&JointSpace::design_space(), &cached, self.budget, control)?;
        // Every history point went through the cache, so assembling the
        // candidate list is a lookup, not a re-simulation (this used to
        // re-run the simulator once per history point).
        let mut candidates: Vec<DesignCandidate> = Vec::with_capacity(result.evaluations.len());
        for e in &result.evaluations {
            let c = match cache.get(&e.point) {
                Some(c) => c,
                None => cached.candidate(&e.point)?,
            };
            candidates.push(c);
        }
        let pareto = result.pareto_indices();
        let totals = cache.stats();
        let cache_stats = CacheStats {
            evictions: totals.evictions,
            entries: totals.entries,
            ..cached.counters.snapshot()
        };
        obs::gauge_set("phase2.final_hypervolume", result.final_hypervolume());
        Ok(Phase2Output { result, candidates, pareto_indices: pareto, cache_stats })
    }

    /// The optimizer context for a run against `evaluator`, with
    /// domain-informed seeding (Section III-A): the search starts at the
    /// best-validated policy across a spread of array sizes.
    fn context(&self, evaluator: &DssocEvaluator) -> OptimizerContext {
        let best = evaluator.best_policy();
        let seed_points = [16usize, 64, 256]
            .iter()
            .filter_map(|&pe| JointSpace::encode(best, pe, pe, 64, 64, 64))
            .collect();
        OptimizerContext { seed: self.seed, budget: self.budget, seed_points, job: self.job }
    }
}

/// Everything Phase 2 produced.
#[derive(Debug, Clone)]
pub struct Phase2Output {
    /// Raw optimizer history (objectives, hypervolume trace).
    pub result: OptimizationResult,
    /// Fully evaluated candidates, in evaluation order.
    pub candidates: Vec<DesignCandidate>,
    /// Indices into `candidates` forming the Pareto frontier.
    pub pareto_indices: Vec<usize>,
    /// Candidate-cache lookups this run made, counted by the run itself
    /// so they stay exact on a cache other runs share (`evictions` and
    /// `entries` are the cache's totals).
    pub cache_stats: CacheStats,
}

impl Phase2Output {
    /// The Pareto-frontier candidates.
    pub fn pareto_candidates(&self) -> Vec<&DesignCandidate> {
        self.pareto_indices.iter().map(|&i| &self.candidates[i]).collect()
    }

    /// Highest success rate observed.
    pub fn best_success(&self) -> f64 {
        self.candidates.iter().map(|c| c.success_rate).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1::{Phase1, SuccessModel};

    fn evaluator() -> DssocEvaluator {
        let mut db = AirLearningDatabase::new();
        Phase1::new(SuccessModel::Surrogate, 1).populate(ObstacleDensity::Dense, &mut db);
        DssocEvaluator::new(db, ObstacleDensity::Dense)
    }

    #[test]
    fn objectives_are_well_scaled() {
        let ev = evaluator();
        let objs = ev.evaluate(&[5, 2, 3, 3, 3, 3, 3]).unwrap();
        assert_eq!(objs.len(), 3);
        let reference = ev.reference_point();
        for (o, r) in objs.iter().zip(&reference) {
            assert!(*o >= 0.0 && o < r, "objective {o} outside [0, {r})");
        }
    }

    #[test]
    fn bigger_array_faster_but_hotter() {
        let ev = evaluator();
        let small = ev.evaluate_design(&[5, 2, 0, 0, 3, 3, 3]).unwrap();
        let large = ev.evaluate_design(&[5, 2, 5, 5, 3, 3, 3]).unwrap();
        assert!(large.fps > small.fps);
        assert!(large.tdp_w > small.tdp_w);
        assert!(large.payload_g > small.payload_g);
    }

    #[test]
    fn invalid_point_is_a_typed_error() {
        let ev = evaluator();
        let err = ev.evaluate_design(&[0, 0, 0]).unwrap_err();
        assert!(matches!(err, AutopilotError::InvalidDesignPoint { .. }));
        let err = ev.evaluate(&[0, 0, 0]).unwrap_err();
        assert!(matches!(err, EvalError::InvalidPoint { .. }));
    }

    #[test]
    fn success_comes_from_database() {
        let ev = evaluator();
        let hyper = PolicyHyperparams::new(7, 48).unwrap();
        let direct = ev.success_rate(hyper);
        let surrogate = SuccessSurrogate::paper_calibrated()
            .success_rate(&PolicyModel::build(hyper), ObstacleDensity::Dense);
        assert!((direct - surrogate).abs() < 1e-12); // phase 1 used the surrogate
    }

    #[test]
    fn random_phase2_produces_pareto_candidates() {
        let ev = evaluator();
        let out = Phase2::new(OptimizerChoice::Random, 12, 3).run(&ev).unwrap();
        assert_eq!(out.candidates.len(), out.result.evaluation_count());
        assert!(!out.pareto_candidates().is_empty());
        assert!(out.best_success() > 0.5);
    }

    #[test]
    fn unknown_optimizer_is_a_typed_error() {
        let ev = evaluator();
        let err = Phase2::new("no-such-optimizer", 8, 1).run(&ev).unwrap_err();
        assert!(matches!(err, AutopilotError::UnknownOptimizer { .. }));
        assert!(err.to_string().contains("sms-ego-bo"));
    }

    #[test]
    fn optimizer_names() {
        assert_eq!(OptimizerChoice::SmsEgo.name(), "sms-ego-bo");
        assert_eq!(OptimizerChoice::default(), OptimizerChoice::SmsEgo);
        assert_eq!(String::from(OptimizerChoice::Nsga2), "nsga-ii");
        assert_eq!(
            Phase2::new(OptimizerChoice::Annealing, 8, 0).optimizer(),
            "simulated-annealing"
        );
    }

    #[test]
    fn shared_cache_makes_repeat_runs_pure_hits() {
        let ev = evaluator();
        let cache = CandidateCache::new();
        let phase2 = Phase2::new(OptimizerChoice::Random, 10, 4);
        let first = phase2.run_with_cache(&ev, &cache).unwrap();
        assert_eq!(first.cache_stats.misses, first.result.evaluation_count() as u64);
        let second = phase2.run_with_cache(&ev, &cache).unwrap();
        assert_eq!(second.cache_stats.misses, 0, "second run must re-simulate nothing");
        assert_eq!(second.cache_stats.hits, second.result.evaluation_count() as u64);
        assert_eq!(first.candidates, second.candidates);
        assert_eq!(first.result, second.result);
    }

    #[test]
    fn cached_and_uncached_runs_agree() {
        let ev = evaluator();
        let uncached = Phase2::new(OptimizerChoice::Random, 10, 8).run(&ev).unwrap();
        let cache = CandidateCache::new();
        let cached =
            Phase2::new(OptimizerChoice::Random, 10, 8).run_with_cache(&ev, &cache).unwrap();
        assert_eq!(uncached.result, cached.result);
        assert_eq!(uncached.candidates, cached.candidates);
        assert_eq!(uncached.pareto_indices, cached.pareto_indices);
    }

    #[test]
    fn candidate_cache_counts_hits() {
        let ev = evaluator();
        let cache = CandidateCache::new();
        let point = vec![5, 2, 3, 3, 3, 3, 3];
        let (a, first) = cache.evaluate(&ev, &point).unwrap();
        let (b, second) = cache.evaluate(&ev, &point).unwrap();
        assert_eq!(a, b);
        assert_eq!((first, second), (Lookup::Miss, Lookup::Hit));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(cache.get(&point), Some(a));
        assert_eq!(cache.get(&[0, 0, 0, 0, 0, 0, 0]), None);
    }

    #[test]
    fn candidate_cache_counts_cross_run_hits_by_owner() {
        let job1 = evaluator().with_owner(1);
        let job2 = evaluator().with_owner(2);
        let cache = CandidateCache::new();
        let point = vec![5, 2, 3, 3, 3, 3, 3];
        let lookup = |ev: &DssocEvaluator| cache.evaluate(ev, &point).unwrap().1;
        assert_eq!(lookup(&job1), Lookup::Miss, "owner 1 inserts");
        assert_eq!(lookup(&job1), Lookup::Hit, "same-owner hit");
        assert_eq!(lookup(&job2), Lookup::CrossRunHit, "owner-2 hit on an owner-1 entry");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.cross_run_hits), (2, 1, 1));
    }

    #[test]
    fn bounded_candidate_cache_evicts() {
        let ev = evaluator();
        let cache = CandidateCache::bounded(8);
        for pe in 0..6usize {
            for act in 0..4usize {
                let point = vec![5, 2, pe, pe, act, 3, 3];
                if ev.evaluate_design(&point).is_ok() {
                    let _ = cache.evaluate(&ev, &point);
                }
            }
        }
        let stats = cache.stats();
        assert!(stats.entries <= 8, "bound violated: {} entries", stats.entries);
        assert!(stats.evictions > 0, "streaming past capacity must evict");
    }

    #[test]
    fn phase2_cancellation_is_a_typed_error() {
        let ev = evaluator();
        let control = RunControl::new();
        control.cancel();
        let err = Phase2::new(OptimizerChoice::Random, 12, 3)
            .run_with_cache_controlled(&ev, &CandidateCache::new(), &control)
            .unwrap_err();
        assert!(err.to_string().contains("cancelled"), "unexpected error: {err}");
    }

    #[test]
    fn controlled_run_with_inert_token_matches_run() {
        let ev = evaluator();
        let plain = Phase2::new(OptimizerChoice::Random, 10, 4).run(&ev).unwrap();
        let control = RunControl::new();
        let controlled = Phase2::new(OptimizerChoice::Random, 10, 4)
            .run_with_cache_controlled(&ev, &CandidateCache::new(), &control)
            .unwrap();
        assert_eq!(plain.result, controlled.result);
        assert_eq!(plain.candidates, controlled.candidates);
        assert!(control.evaluations() > 0, "checkpoints must publish progress");
    }

    #[test]
    fn swap_constraint_death_penalizes_infeasible_payloads() {
        let legacy = evaluator();
        let swapped = evaluator().with_swap(SwapMode::Constraint, Airframe::nano());
        assert_eq!(swapped.swap_mode(), SwapMode::Constraint);
        assert!(swapped.airframe().is_some());
        // Large array: payload far above the 50 g headroom of the 100 g
        // nano cap -> penalized to the reference point.
        let heavy = swapped.evaluate_design(&[5, 2, 5, 5, 3, 3, 3]).unwrap();
        assert!(heavy.payload_g > 50.0, "test premise: payload {}", heavy.payload_g);
        assert_eq!(swapped.objectives(&heavy), swapped.reference_point());
        // The legacy evaluator reports the true objectives for the same
        // candidate, and a feasible candidate is untouched in swap mode.
        assert_ne!(legacy.objectives(&heavy), legacy.reference_point());
        let light = swapped.evaluate_design(&[5, 2, 0, 0, 3, 3, 3]).unwrap();
        assert!(light.payload_g < 50.0, "test premise: payload {}", light.payload_g);
        assert_eq!(swapped.objectives(&light), legacy.objectives(&light));
    }

    #[test]
    fn swap_off_drops_airframe_and_is_legacy_identical() {
        let legacy = evaluator();
        let off = evaluator().with_swap(SwapMode::Off, Airframe::nano());
        assert!(off.airframe().is_none());
        let c = off.evaluate_design(&[5, 2, 5, 5, 3, 3, 3]).unwrap();
        assert_eq!(off.objectives(&c), legacy.objectives(&c));
        assert_eq!(off.evaluate(&[5, 2, 5, 5, 3, 3, 3]), legacy.evaluate(&[5, 2, 5, 5, 3, 3, 3]));
    }

    #[test]
    fn candidate_cache_is_transparent_to_the_trajectory() {
        // The same optimizer driven straight by the evaluator, with no
        // cache in between, walks the trajectory Phase 2 walks through
        // its candidate cache.
        let ev = evaluator();
        for choice in [OptimizerChoice::SmsEgo, OptimizerChoice::Nsga2, OptimizerChoice::Random] {
            let phase2 = Phase2::new(choice, 24, 5);
            let cached = phase2.run(&ev).unwrap();
            let mut opt = registry::build_optimizer(choice.name(), &phase2.context(&ev)).unwrap();
            let direct = opt.run(&JointSpace::design_space(), &ev, 24).unwrap();
            assert_eq!(cached.result, direct, "{choice:?}");
        }
    }

    #[test]
    fn candidate_cache_entries_never_go_stale() {
        let ev = evaluator();
        let cache = CandidateCache::new();
        let out = Phase2::new(OptimizerChoice::Nsga2, 24, 17).run_with_cache(&ev, &cache).unwrap();
        let mut points: Vec<&Vec<usize>> =
            out.result.evaluations.iter().map(|e| &e.point).collect();
        points.sort();
        points.dedup();
        assert_eq!(cache.stats().entries, points.len());
        // Every stored entry, and every hit served from it, equals a
        // fresh evaluation of its point.
        for point in points {
            let fresh = ev.evaluate_design(point).unwrap();
            assert_eq!(cache.get(point).as_ref(), Some(&fresh), "stale entry for {point:?}");
            assert_eq!(cache.evaluate(&ev, point).unwrap().0, fresh);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, stats.entries as u64, "revisits must all be hits");
    }

    #[test]
    fn candidate_cache_does_not_cache_failures() {
        let ev = evaluator();
        let cache = CandidateCache::new();
        assert!(cache.evaluate(&ev, &[99, 99, 99, 99, 99, 99, 99]).is_err());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    /// Random search between two waits at a barrier both runs of
    /// `overlapping_runs_count_only_their_own_lookups` share, so each
    /// run's lookups fall inside the other run's span.
    struct Overlapping(registry::BoxedOptimizer);

    static OVERLAP: std::sync::Barrier = std::sync::Barrier::new(2);

    impl dse_opt::MultiObjectiveOptimizer for Overlapping {
        fn name(&self) -> &str {
            "test-overlapping"
        }

        fn run_controlled(
            &mut self,
            space: &dse_opt::DesignSpace,
            evaluator: &dyn Evaluator,
            budget: usize,
            control: &RunControl,
        ) -> Result<OptimizationResult, dse_opt::DseError> {
            OVERLAP.wait();
            let result = self.0.run_controlled(space, evaluator, budget, control);
            OVERLAP.wait();
            result
        }
    }

    #[test]
    fn overlapping_runs_count_only_their_own_lookups() {
        registry::register_optimizer("test-overlapping", |ctx: &OptimizerContext| {
            Box::new(Overlapping(registry::build_optimizer("random-search", ctx).unwrap()))
        });
        let ev = evaluator();
        let cache = CandidateCache::new();
        let phase2 = Phase2::new("test-overlapping", 8, 1);
        let runs: Vec<Phase2Output> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..2).map(|_| scope.spawn(|| phase2.run_with_cache(&ev, &cache))).collect();
            handles.into_iter().map(|h| h.join().unwrap().unwrap()).collect()
        });
        for out in &runs {
            let st = out.cache_stats;
            assert_eq!(
                st.hits + st.misses,
                out.result.evaluation_count() as u64,
                "a run must count its own lookups, not the concurrent run's"
            );
        }
        assert_eq!(cache.stats().hits + cache.stats().misses, 16);
        assert_eq!(runs[0].candidates, runs[1].candidates);
    }
}
