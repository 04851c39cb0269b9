//! The evaluator and optimizer abstractions shared by all DSE algorithms.

use crate::control::RunControl;
use crate::error::{DseError, EvalError};
use crate::result::OptimizationResult;
use crate::space::DesignSpace;

/// A black-box, multi-objective function over a discrete design space.
///
/// All objectives are minimized. Implementations should be deterministic
/// for a given point (AutoPilot's evaluations — simulator runs and
/// database lookups — are).
///
/// Evaluation is fallible: a bad design point, a simulator failure, or a
/// non-finite objective is reported as an [`EvalError`] rather than a
/// panic, and optimizers propagate it out of their `run` loop.
///
/// The `Sync` supertrait lets optimizers fan evaluations out across
/// worker threads (see [`crate::par`]); evaluators take `&self`, so a
/// shared-state implementation must use interior synchronization (as
/// the core crate's Phase-2 recording adapter does).
pub trait Evaluator: Sync {
    /// Number of objectives returned by [`Evaluator::evaluate`].
    fn num_objectives(&self) -> usize;

    /// Evaluates the objectives at `point` (a design-space index vector).
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] when the point cannot be evaluated —
    /// implementations must not panic on bad input.
    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError>;

    /// Reference point for hypervolume bookkeeping: a vector that every
    /// attainable objective vector dominates. The default is a generous
    /// constant; evaluators with known objective scales should override
    /// it.
    fn reference_point(&self) -> Vec<f64> {
        vec![1.0e9; self.num_objectives()]
    }
}

impl<E: Evaluator + ?Sized> Evaluator for &E {
    fn num_objectives(&self) -> usize {
        (**self).num_objectives()
    }
    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
        (**self).evaluate(point)
    }
    fn reference_point(&self) -> Vec<f64> {
        (**self).reference_point()
    }
}

/// A budgeted multi-objective optimizer.
///
/// Implementations are seeded at construction; `run` may be called
/// repeatedly (each call restarts the optimization).
///
/// The trait is **object-safe**: optimizers are driven through
/// `&dyn Evaluator`, so registries can hold `Box<dyn
/// MultiObjectiveOptimizer>` factories and select a backend at runtime
/// by name (see the `autopilot` core's optimizer registry).
pub trait MultiObjectiveOptimizer {
    /// Human-readable algorithm name for reports.
    fn name(&self) -> &str;

    /// Runs the optimizer for at most `budget` objective evaluations.
    ///
    /// Equivalent to [`MultiObjectiveOptimizer::run_controlled`] with
    /// the inert [`RunControl::none`] token — bit-identical results,
    /// nothing to cancel.
    ///
    /// # Errors
    ///
    /// Returns a [`DseError`] when an evaluation fails or the search
    /// cannot proceed; optimizers never panic on evaluator failures.
    fn run(
        &mut self,
        space: &DesignSpace,
        evaluator: &dyn Evaluator,
        budget: usize,
    ) -> Result<OptimizationResult, DseError> {
        self.run_controlled(space, evaluator, budget, &RunControl::none())
    }

    /// Runs the optimizer under a [`RunControl`] token: the inner loop
    /// polls [`RunControl::check`] and publishes progress via
    /// [`RunControl::checkpoint`].
    ///
    /// Cancellation must not perturb the search: a token that is never
    /// cancelled yields results bit-identical to [`run`]
    /// (the determinism goldens hold either way).
    ///
    /// [`run`]: MultiObjectiveOptimizer::run
    ///
    /// # Errors
    ///
    /// [`DseError::Cancelled`] once the token is cancelled, or any
    /// [`DseError`] an uncontrolled run could return.
    fn run_controlled(
        &mut self,
        space: &DesignSpace,
        evaluator: &dyn Evaluator,
        budget: usize,
        control: &RunControl,
    ) -> Result<OptimizationResult, DseError>;
}

#[cfg(test)]
pub(crate) mod test_problems {
    use super::{EvalError, Evaluator};

    /// A tiny bi-objective trade-off problem over a 32-level dimension:
    /// f0 = x, f1 = (1 - x)^2, whose Pareto front is the whole axis.
    pub struct Tradeoff;

    impl Evaluator for Tradeoff {
        fn num_objectives(&self) -> usize {
            2
        }
        fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
            let x = point[0] as f64 / 31.0;
            Ok(vec![x, (1.0 - x) * (1.0 - x)])
        }
        fn reference_point(&self) -> Vec<f64> {
            vec![1.1, 1.1]
        }
    }

    /// A 3-dimensional, 3-objective problem with a known optimal region:
    /// a discretized DTLZ2-like bowl.
    pub struct Bowl3;

    impl Evaluator for Bowl3 {
        fn num_objectives(&self) -> usize {
            3
        }
        fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
            let x: Vec<f64> = point.iter().map(|&p| p as f64 / 7.0).collect();
            let g = (x[2] - 0.5) * (x[2] - 0.5);
            let a = 0.5 * std::f64::consts::PI * x[0];
            let b = 0.5 * std::f64::consts::PI * x[1];
            Ok(vec![
                (1.0 + g) * a.cos() * b.cos(),
                (1.0 + g) * a.cos() * b.sin(),
                (1.0 + g) * a.sin(),
            ])
        }
        fn reference_point(&self) -> Vec<f64> {
            vec![2.0, 2.0, 2.0]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_problems::Tradeoff;
    use super::*;

    #[test]
    fn evaluator_impl_for_references() {
        fn takes_eval<E: Evaluator>(e: &E) -> usize {
            e.num_objectives()
        }
        let t = Tradeoff;
        assert_eq!(takes_eval(&t), 2);
        assert_eq!(takes_eval(&&t), 2);
        // And through a trait object, which the optimizer registry relies
        // on.
        let d: &dyn Evaluator = &t;
        assert_eq!(d.num_objectives(), 2);
        assert_eq!(takes_eval(&d), 2);
    }

    #[test]
    fn default_reference_point_is_per_objective() {
        struct One;
        impl Evaluator for One {
            fn num_objectives(&self) -> usize {
                4
            }
            fn evaluate(&self, _: &[usize]) -> Result<Vec<f64>, EvalError> {
                Ok(vec![0.0; 4])
            }
        }
        assert_eq!(One.reference_point().len(), 4);
    }

    #[test]
    fn optimizer_trait_is_object_safe() {
        fn assert_object_safe(_: Option<&dyn MultiObjectiveOptimizer>) {}
        assert_object_safe(None);
    }
}
