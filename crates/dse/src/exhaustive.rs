//! Exhaustive enumeration, the ground-truth baseline for small spaces.

use crate::archive::Archive;
use crate::control::RunControl;
use crate::error::DseError;
use crate::evaluator::{Evaluator, MultiObjectiveOptimizer};
use crate::result::OptimizationResult;
use crate::space::DesignSpace;

/// Enumerates the design space in lexicographic order until the budget
/// (or the space) is exhausted.
///
/// On spaces small enough to cover fully this recovers the exact Pareto
/// frontier, making it the reference against which sampling optimizers
/// are validated.
#[derive(Debug, Clone, Default)]
pub struct ExhaustiveSearch;

impl ExhaustiveSearch {
    /// Creates the optimizer.
    pub fn new() -> ExhaustiveSearch {
        ExhaustiveSearch
    }
}

impl MultiObjectiveOptimizer for ExhaustiveSearch {
    fn name(&self) -> &str {
        "exhaustive"
    }

    fn run_controlled(
        &mut self,
        space: &DesignSpace,
        evaluator: &dyn Evaluator,
        budget: usize,
        control: &RunControl,
    ) -> Result<OptimizationResult, DseError> {
        let mut archive = Archive::new(space, evaluator, budget, None, control);
        // As in random search, chunks only bound how much work a
        // cancelled run still performs.
        const CHUNK: usize = 32;
        let mut points = space.iter_points();
        while !archive.is_full() {
            control.check()?;
            let len = CHUNK.min(archive.budget() - archive.len());
            archive.evaluate(points.by_ref().take(len))?;
        }
        Ok(archive.into_result(self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::test_problems::Tradeoff;
    use crate::pareto::hypervolume;
    use crate::random::RandomSearch;

    #[test]
    fn covers_small_space_exactly() {
        let space = DesignSpace::new(vec![32]).unwrap();
        let res = ExhaustiveSearch::new().run(&space, &Tradeoff, 1000).unwrap();
        assert_eq!(res.evaluation_count(), 32);
    }

    #[test]
    fn recovers_ground_truth_hypervolume() {
        let space = DesignSpace::new(vec![32]).unwrap();
        let truth = ExhaustiveSearch::new().run(&space, &Tradeoff, 1000).unwrap();
        let sampled = RandomSearch::new(1).run(&space, &Tradeoff, 16).unwrap();
        let r = Tradeoff.reference_point();
        let truth_hv = hypervolume(
            &truth.evaluations.iter().map(|e| e.objectives.clone()).collect::<Vec<_>>(),
            &r,
        );
        assert!(truth_hv >= sampled.final_hypervolume());
        assert!((truth.final_hypervolume() - truth_hv).abs() < 1e-12);
    }

    #[test]
    fn respects_budget_on_large_space() {
        let space = DesignSpace::new(vec![100, 100]).unwrap();
        let res = ExhaustiveSearch::new().run(&space, &Tradeoff, 50).unwrap();
        assert_eq!(res.evaluation_count(), 50);
    }
}
