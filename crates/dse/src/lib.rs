//! # dse-opt
//!
//! Domain-agnostic multi-objective design-space exploration, the engine of
//! AutoPilot's Phase 2.
//!
//! The crate provides:
//!
//! * a discrete, mixed-cardinality [`DesignSpace`] abstraction with
//!   normalized encodings,
//! * exact Gaussian-process regression ([`GaussianProcess`]) with a
//!   squared-exponential kernel (the paper's choice),
//! * multi-objective Bayesian optimization driven by the *S-Metric
//!   Selection* acquisition (SMS-EGO, Ponweiser et al. 2008) —
//!   [`SmsEgoOptimizer`],
//! * the alternative optimizers the paper lists as drop-in replacements:
//!   [`Nsga2Optimizer`] (genetic), [`AnnealingOptimizer`] (simulated
//!   annealing), and [`RandomSearch`],
//! * Pareto-front utilities and exact hypervolume computation for up to
//!   three objectives ([`pareto`]).
//!
//! All objectives are **minimized**; wrap maximization objectives as
//! negations (AutoPilot minimizes `1 - success_rate`).
//!
//! Evaluation and optimization are **fallible**: [`Evaluator::evaluate`]
//! returns `Result<Vec<f64>, EvalError>` and
//! [`MultiObjectiveOptimizer::run`] returns
//! `Result<OptimizationResult, DseError>`, with the optimizer trait
//! object-safe so backends can be registered and selected at runtime.
//!
//! # Example
//!
//! ```
//! use dse_opt::{DesignSpace, EvalError, Evaluator, MultiObjectiveOptimizer, RandomSearch};
//!
//! struct Toy;
//! impl Evaluator for Toy {
//!     fn num_objectives(&self) -> usize { 2 }
//!     fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
//!         let x = point[0] as f64 / 9.0;
//!         Ok(vec![x, (1.0 - x).powi(2)])
//!     }
//! }
//!
//! # fn main() -> Result<(), dse_opt::DseError> {
//! let space = DesignSpace::new(vec![10])?;
//! let mut opt = RandomSearch::new(7);
//! let result = opt.run(&space, &Toy, 20)?;
//! assert!(!result.pareto_front().is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod anneal;
mod archive;
mod bayesopt;
mod control;
mod error;
mod evaluator;
mod exhaustive;
mod fastexp;
mod ga;
mod gp;
pub mod linalg;
pub mod par;
pub mod pareto;
mod random;
mod result;
mod space;

pub use anneal::AnnealingOptimizer;
pub use bayesopt::{ExactAcquisition, ExactSlot, SmsEgoOptimizer, SparseAcquisition};
pub use control::RunControl;
pub use error::{DseError, EvalError, GpError};
pub use evaluator::{Evaluator, MultiObjectiveOptimizer};
pub use exhaustive::ExhaustiveSearch;
pub use fastexp::{exp_slice, fast_exp, ulp_distance, KernelExpMode, GP_FASTEXP_ENV};
pub use ga::Nsga2Optimizer;
pub use gp::{
    correlation_panel, ExactColumn, GaussianProcess, SparseGaussianProcess, SurrogateMode,
    GP_SPARSE_ENV,
};
pub use random::RandomSearch;
pub use result::{EvaluationRecord, OptimizationResult};
pub use space::{DesignSpace, SpaceError};
