//! Multi-objective simulated annealing with random Chebyshev
//! scalarizations, an alternative Phase-2 optimizer.

use autopilot_rng::Rng;

use crate::archive::Archive;
use crate::control::RunControl;
use crate::error::{DseError, EvalError};
use crate::evaluator::{Evaluator, MultiObjectiveOptimizer};
use crate::result::OptimizationResult;
use crate::space::DesignSpace;

/// Simulated annealing over the discrete space: a random ordinal
/// neighbour is proposed each step and accepted by the Metropolis rule on
/// an augmented-Chebyshev scalarization whose weight vector is resampled
/// periodically, so the archive spreads along the Pareto front.
#[derive(Debug, Clone)]
pub struct AnnealingOptimizer {
    seed: u64,
}

/// Initial Metropolis temperature (on the `[0, 1]`-normalized
/// Chebyshev scale).
const INITIAL_TEMPERATURE: f64 = 1.0;
/// Geometric cooling factor applied after every proposal.
const COOLING: f64 = 0.97;
/// Proposals between resampled scalarization weight vectors.
const REWEIGHT_EVERY: usize = 10;

impl AnnealingOptimizer {
    /// Creates an optimizer with conventional defaults.
    pub fn new(seed: u64) -> AnnealingOptimizer {
        AnnealingOptimizer { seed }
    }
}

impl MultiObjectiveOptimizer for AnnealingOptimizer {
    fn name(&self) -> &str {
        "simulated-annealing"
    }

    fn run_controlled(
        &mut self,
        space: &DesignSpace,
        evaluator: &dyn Evaluator,
        budget: usize,
        control: &RunControl,
    ) -> Result<OptimizationResult, DseError> {
        control.check()?;
        let mut rng = Rng::seed_from_u64(self.seed);
        let n_obj = evaluator.num_objectives();
        let mut archive = Archive::new(space, evaluator, budget, None, control);
        let stale_limit = archive.budget().saturating_mul(20).saturating_add(500);
        let mut stale_steps = 0usize;

        let mut current = space.random_point(&mut rng);
        let Some(mut current_objs) = objectives(&mut archive, &current)? else {
            return Ok(archive.into_result(self.name()));
        };
        let mut temperature = INITIAL_TEMPERATURE;
        let mut weights = random_weights(n_obj, &mut rng);
        // Running objective ranges for normalization: the first point
        // and every proposal, but not the restarts, so they are not the
        // archive's ranges.
        let mut mins = current_objs.clone();
        let mut maxs = current_objs.clone();

        let mut step = 0usize;
        while !archive.is_full() {
            control.check()?;
            step += 1;
            if step.is_multiple_of(REWEIGHT_EVERY) {
                weights = random_weights(n_obj, &mut rng);
                // Occasional restart from a random point keeps the
                // archive exploring distant regions of the front.
                if rng.chance(0.15) {
                    current = space.random_point(&mut rng);
                    let Some(objs) = objectives(&mut archive, &current)? else { break };
                    current_objs = objs;
                    if archive.is_full() {
                        break;
                    }
                }
            }
            let neighbors = space.neighbors(&current);
            if neighbors.is_empty() {
                break;
            }
            let proposal = neighbors[rng.below(neighbors.len())].clone();
            let was_cached = archive.objectives(&proposal).is_some();
            let Some(proposal_objs) = objectives(&mut archive, &proposal)? else { break };
            if was_cached {
                stale_steps += 1;
                if stale_steps > stale_limit {
                    break; // converged: the walk revisits known points only
                }
            } else {
                stale_steps = 0;
            }
            for i in 0..n_obj {
                mins[i] = mins[i].min(proposal_objs[i]);
                maxs[i] = maxs[i].max(proposal_objs[i]);
            }
            let e_cur = chebyshev(&current_objs, &weights, &mins, &maxs);
            let e_new = chebyshev(&proposal_objs, &weights, &mins, &maxs);
            let accept = e_new <= e_cur
                || rng.chance(((e_cur - e_new) / temperature.max(1e-9)).exp().min(1.0));
            if accept {
                current = proposal;
                current_objs = proposal_objs;
            }
            temperature *= COOLING;
        }

        Ok(archive.into_result(self.name()))
    }
}

/// `point`'s objectives, evaluated through the archive when new; `None`
/// once the budget is spent.
fn objectives(archive: &mut Archive<'_>, point: &[usize]) -> Result<Option<Vec<f64>>, EvalError> {
    archive.evaluate([point])?;
    Ok(archive.objectives(point).map(<[f64]>::to_vec))
}

fn random_weights(n: usize, rng: &mut Rng) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|_| rng.range_f64(0.05, 1.0)).collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / sum).collect()
}

/// Augmented Chebyshev scalarization on normalized objectives.
fn chebyshev(objs: &[f64], weights: &[f64], mins: &[f64], maxs: &[f64]) -> f64 {
    let norm = |v: f64, i: usize| {
        if maxs[i] > mins[i] {
            (v - mins[i]) / (maxs[i] - mins[i])
        } else {
            0.5
        }
    };
    let mut max_term: f64 = 0.0;
    let mut sum_term = 0.0;
    for (i, (&v, &w)) in objs.iter().zip(weights).enumerate() {
        let n = norm(v, i) * w;
        max_term = max_term.max(n);
        sum_term += n;
    }
    max_term + 0.05 * sum_term
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::test_problems::{Bowl3, Tradeoff};

    #[test]
    fn respects_budget() {
        let space = DesignSpace::new(vec![32]).unwrap();
        let mut sa = AnnealingOptimizer::new(2);
        let res = sa.run(&space, &Tradeoff, 25).unwrap();
        assert!(res.evaluation_count() <= 25);
        assert!(res.evaluation_count() > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let space = DesignSpace::new(vec![8, 8, 8]).unwrap();
        let a = AnnealingOptimizer::new(4).run(&space, &Bowl3, 40).unwrap();
        let b = AnnealingOptimizer::new(4).run(&space, &Bowl3, 40).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn improves_over_first_sample() {
        let space = DesignSpace::new(vec![32]).unwrap();
        let res = AnnealingOptimizer::new(8).run(&space, &Tradeoff, 60).unwrap();
        assert!(res.final_hypervolume() >= res.hypervolume_trace[0]);
        assert!(!res.pareto_front().is_empty());
    }

    #[test]
    fn explores_multiple_points() {
        let space = DesignSpace::new(vec![16, 16]).unwrap();
        let res = AnnealingOptimizer::new(5).run(&space, &Tradeoff, 30).unwrap();
        let mut pts: Vec<_> = res.evaluations.iter().map(|e| e.point.clone()).collect();
        pts.sort();
        pts.dedup();
        assert!(pts.len() > 5, "only {} unique points", pts.len());
    }
}
