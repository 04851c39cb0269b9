//! Random-search baseline.

use autopilot_obs as obs;
use autopilot_rng::Rng;

use crate::archive::Archive;
use crate::control::RunControl;
use crate::error::DseError;
use crate::evaluator::{Evaluator, MultiObjectiveOptimizer};
use crate::result::OptimizationResult;
use crate::space::DesignSpace;

/// Uniform random search without replacement (up to a retry bound).
///
/// The weakest sensible baseline for Phase-2 DSE comparisons. The point
/// sequence depends only on the seed, never on objective values, so each
/// chunk of draws fans out across worker threads while the result stays
/// bit-identical to a sequential run.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    seed: u64,
    threads: Option<usize>,
}

impl RandomSearch {
    /// Creates a random search with a deterministic seed.
    pub fn new(seed: u64) -> RandomSearch {
        RandomSearch { seed, threads: None }
    }

    /// Pins the evaluation worker count (default: [`crate::par::worker_count`]).
    pub fn with_threads(mut self, n: usize) -> RandomSearch {
        self.threads = Some(n.max(1));
        self
    }
}

impl MultiObjectiveOptimizer for RandomSearch {
    fn name(&self) -> &str {
        "random-search"
    }

    fn run_controlled(
        &mut self,
        space: &DesignSpace,
        evaluator: &dyn Evaluator,
        budget: usize,
        control: &RunControl,
    ) -> Result<OptimizationResult, DseError> {
        let _span = obs::span("random_search.run");
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut archive = Archive::new(space, evaluator, budget, self.threads, control);
        // The point sequence depends only on the seed, so evaluating it
        // in chunks with a cancellation check between chunks changes
        // nothing about the result; it only bounds how much work a
        // cancelled run still performs.
        const CHUNK: usize = 32;
        let mut retries = archive.budget().saturating_mul(20);
        let mut chunk: Vec<Vec<usize>> = Vec::with_capacity(CHUNK);
        loop {
            control.check()?;
            let len = CHUNK.min(archive.budget() - archive.len());
            archive.draw_fresh(&mut rng, &mut chunk, len, &mut retries);
            if chunk.is_empty() {
                break;
            }
            archive.evaluate(chunk.drain(..))?;
        }
        Ok(archive.into_result(self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::test_problems::Tradeoff;

    #[test]
    fn respects_budget_and_dedupes() {
        let space = DesignSpace::new(vec![32]).unwrap();
        let mut rs = RandomSearch::new(1);
        let res = rs.run(&space, &Tradeoff, 16).unwrap();
        assert!(res.evaluation_count() <= 16);
        let mut pts: Vec<_> = res.evaluations.iter().map(|e| e.point.clone()).collect();
        pts.sort();
        pts.dedup();
        assert_eq!(pts.len(), res.evaluation_count());
    }

    #[test]
    fn deterministic_given_seed() {
        let space = DesignSpace::new(vec![32]).unwrap();
        let a = RandomSearch::new(9).run(&space, &Tradeoff, 10).unwrap();
        let b = RandomSearch::new(9).run(&space, &Tradeoff, 10).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn exhausts_small_space() {
        let space = DesignSpace::new(vec![4]).unwrap();
        let res = RandomSearch::new(2).run(&space, &Tradeoff, 100).unwrap();
        assert_eq!(res.evaluation_count(), 4);
    }

    #[test]
    fn identical_across_thread_counts() {
        let space = DesignSpace::new(vec![16, 16]).unwrap();
        let base = RandomSearch::new(5).with_threads(1).run(&space, &Tradeoff, 24).unwrap();
        for t in [2, 4, 7] {
            let r = RandomSearch::new(5).with_threads(t).run(&space, &Tradeoff, 24).unwrap();
            assert_eq!(base, r, "threads = {t}");
        }
    }
}
