//! Phase 2: domain-agnostic multi-objective HW-SW co-design.

use air_sim::{AirLearningDatabase, ObstacleDensity, SuccessSurrogate};
use autopilot_obs as obs;
use dse_opt::{EvalError, Evaluator, OptimizationResult, RunControl};
use policy_nn::{PolicyHyperparams, PolicyModel};
use soc_power::SocPowerModel;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
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

/// Adapter exposing a [`DssocEvaluator`] to the optimizers that keeps
/// each evaluated [`DesignCandidate`] by point, so
/// [`Phase2Output::candidates`] is assembled from the run's own
/// evaluations instead of re-simulating its history. The record lives
/// for one run and is shared by that run's workers only.
struct RecordingEvaluator<'a> {
    inner: &'a DssocEvaluator,
    record: Mutex<HashMap<Vec<usize>, DesignCandidate>>,
}

impl Evaluator for RecordingEvaluator<'_> {
    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
        let c = self.inner.evaluate_design(point).map_err(to_eval_error)?;
        let objectives = self.inner.objectives(&c);
        self.record.lock().unwrap_or_else(PoisonError::into_inner).insert(c.point.clone(), c);
        Ok(objectives)
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
/// count, while SWaP gating belongs to the evaluator.
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

    /// Runs the DSE.
    ///
    /// # Errors
    ///
    /// * [`AutopilotError::UnknownOptimizer`] when the configured name is
    ///   not registered.
    /// * [`AutopilotError::Dse`] when the optimizer or an evaluation
    ///   fails mid-run.
    pub fn run(&self, evaluator: &DssocEvaluator) -> Result<Phase2Output, AutopilotError> {
        self.run_controlled(evaluator, &RunControl::none())
    }

    /// Like [`Phase2::run`], threading a [`RunControl`] token through the
    /// optimizer so the run can be cancelled cooperatively
    /// (`DELETE /jobs/:id` on the co-design server) and its progress
    /// polled mid-flight. A never-cancelled token yields bit-identical
    /// results to [`Phase2::run`].
    ///
    /// # Errors
    ///
    /// As [`Phase2::run`], plus [`AutopilotError::Dse`] wrapping
    /// [`dse_opt::DseError::Cancelled`] when `control` is cancelled
    /// mid-run.
    pub fn run_controlled(
        &self,
        evaluator: &DssocEvaluator,
        control: &RunControl,
    ) -> Result<Phase2Output, AutopilotError> {
        let _span = obs::span("phase2.run");
        let recording = RecordingEvaluator { inner: evaluator, record: Mutex::new(HashMap::new()) };
        let mut opt = registry::build_optimizer(&self.optimizer, &self.context(evaluator))?;
        let result =
            opt.run_controlled(&JointSpace::design_space(), &recording, self.budget, control)?;
        // Every history point was evaluated through the recorder, so the
        // candidate list takes its entries instead of re-simulating; only
        // a point the history repeats is evaluated again.
        let mut record = recording.record.into_inner().unwrap_or_else(PoisonError::into_inner);
        let candidates = result
            .evaluations
            .iter()
            .map(|e| match record.remove(e.point.as_slice()) {
                Some(c) => Ok(c),
                None => evaluator.evaluate_design(&e.point),
            })
            .collect::<Result<Vec<DesignCandidate>, AutopilotError>>()?;
        let pareto = result.pareto_indices();
        obs::gauge_set("phase2.final_hypervolume", result.final_hypervolume());
        Ok(Phase2Output { result, candidates, pareto_indices: pareto })
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
    fn phase2_cancellation_is_a_typed_error() {
        let ev = evaluator();
        let control = RunControl::new();
        control.cancel();
        let err =
            Phase2::new(OptimizerChoice::Random, 12, 3).run_controlled(&ev, &control).unwrap_err();
        assert!(err.to_string().contains("cancelled"), "unexpected error: {err}");
    }

    #[test]
    fn controlled_run_with_inert_token_matches_run() {
        let ev = evaluator();
        let plain = Phase2::new(OptimizerChoice::Random, 10, 4).run(&ev).unwrap();
        let control = RunControl::new();
        let controlled =
            Phase2::new(OptimizerChoice::Random, 10, 4).run_controlled(&ev, &control).unwrap();
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
    fn per_run_record_is_transparent_to_the_trajectory() {
        // The same optimizer driven straight by the evaluator, with no
        // record in between, walks the trajectory Phase 2 walks, and every
        // candidate Phase 2 reports equals a fresh evaluation of its point.
        let ev = evaluator();
        for choice in [OptimizerChoice::SmsEgo, OptimizerChoice::Nsga2, OptimizerChoice::Random] {
            let phase2 = Phase2::new(choice, 24, 5);
            let recorded = phase2.run(&ev).unwrap();
            let mut opt = registry::build_optimizer(choice.name(), &phase2.context(&ev)).unwrap();
            let direct = opt.run(&JointSpace::design_space(), &ev, 24).unwrap();
            assert_eq!(recorded.result, direct, "{choice:?}");
            for (c, e) in recorded.candidates.iter().zip(&direct.evaluations) {
                assert_eq!(c, &ev.evaluate_design(&e.point).unwrap(), "{choice:?}");
            }
        }
    }

    /// Evaluates one point through the evaluator, then reports a history
    /// that lists it twice and adds a point it never evaluated.
    struct Repeats;

    impl dse_opt::MultiObjectiveOptimizer for Repeats {
        fn name(&self) -> &str {
            "test-repeats"
        }

        fn run_controlled(
            &mut self,
            _space: &dse_opt::DesignSpace,
            evaluator: &dyn Evaluator,
            _budget: usize,
            _control: &RunControl,
        ) -> Result<OptimizationResult, dse_opt::DseError> {
            let seen = vec![5, 2, 3, 3, 3, 3, 3];
            let unseen = vec![5, 2, 0, 0, 3, 3, 3];
            let objectives = evaluator.evaluate(&seen).unwrap();
            let history = [&seen, &seen, &unseen]
                .iter()
                .enumerate()
                .map(|(iteration, &point)| dse_opt::EvaluationRecord {
                    iteration,
                    point: point.clone(),
                    objectives: objectives.clone(),
                })
                .collect();
            Ok(OptimizationResult::from_history(
                "test-repeats",
                history,
                evaluator.reference_point(),
            ))
        }
    }

    #[test]
    fn history_points_outside_the_record_are_evaluated_afresh() {
        registry::register_optimizer("test-repeats", |_: &OptimizerContext| Box::new(Repeats));
        let ev = evaluator();
        let out = Phase2::new("test-repeats", 8, 1).run(&ev).unwrap();
        let fresh: Vec<DesignCandidate> =
            out.result.evaluations.iter().map(|e| ev.evaluate_design(&e.point).unwrap()).collect();
        assert_eq!(out.candidates, fresh);
    }
}
