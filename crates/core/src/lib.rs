//! # autopilot
//!
//! The AutoPilot methodology (Krishnan et al., MICRO 2022): automatic
//! domain-specific SoC (DSSoC) design for autonomous UAVs.
//!
//! Given a high-level task specification (deployment scenario, success
//! threshold, mission profile) and a UAV platform, AutoPilot produces a
//! *combination* of an E2E autonomy algorithm and a systolic-array
//! accelerator configuration that maximizes the number of missions the
//! UAV can fly per battery charge. The flow has three phases:
//!
//! 1. [`Phase1`] — *domain-specific front end*: train/validate candidate
//!    policies for the scenario and record their success rates in the
//!    Air Learning database.
//! 2. [`Phase2`] — *domain-agnostic multi-objective DSE*: search the joint
//!    (algorithm x accelerator) space of Table II with Bayesian
//!    optimization (or a drop-in alternative) for designs Pareto-optimal
//!    in task success, SoC power, and inference latency.
//! 3. [`Phase3`] — *domain-specific back end*: evaluate the candidates
//!    against the full UAV system (compute weight -> thrust-to-weight ->
//!    F-1 roofline -> missions) and select the balanced design, optionally
//!    fine-tuning clock and technology node toward the knee-point.
//!
//! # Example
//!
//! ```no_run
//! use air_sim::ObstacleDensity;
//! use autopilot::{AutoPilot, AutopilotConfig, AutopilotError, TaskSpec};
//! use uav_dynamics::UavSpec;
//!
//! # fn main() -> Result<(), AutopilotError> {
//! let pilot = AutoPilot::new(AutopilotConfig::fast(7));
//! let result =
//!     pilot.run(&UavSpec::nano(), &TaskSpec::navigation(ObstacleDensity::Dense))?;
//! if let Some(sel) = result.selection {
//!     println!("selected {} at {:.0} FPS -> {:.0} missions",
//!              sel.candidate.policy, sel.candidate.fps, sel.missions.missions);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod baselines;
mod config;
mod error;
mod phase1;
mod phase2;
mod phase3;
mod pipeline;
pub mod registry;
mod report;
mod space;
mod spec;
mod swap;
pub mod taxonomy;

pub use baselines::{BaselineBoard, BaselineEvaluation};
pub use config::JobConfig;
pub use error::AutopilotError;
pub use phase1::{Phase1, SuccessModel};
pub use phase2::{DesignCandidate, DssocEvaluator, OptimizerChoice, Phase2, Phase2Output};
pub use phase3::{FineTuning, Phase3, Phase3Selection};
pub use pipeline::{AutoPilot, AutopilotConfig, AutopilotResult, CacheStats, PipelineCache};
pub use registry::{
    build_optimizer, register_optimizer, registered_optimizers, BoxedOptimizer, OptimizerContext,
};
pub use report::{CandidateSummary, RunSummary};
pub use space::{JointSpace, PE_CHOICES, SRAM_KB_CHOICES};
pub use spec::TaskSpec;
pub use swap::SwapMode;
