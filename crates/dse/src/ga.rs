//! NSGA-II genetic algorithm (Deb et al.), one of the alternative
//! optimizers the paper lists for Phase 2.

use autopilot_obs as obs;
use autopilot_rng::Rng;

use crate::archive::Archive;
use crate::control::RunControl;
use crate::error::DseError;
use crate::evaluator::{Evaluator, MultiObjectiveOptimizer};
use crate::pareto::{crowding_distance, non_dominated_sort};
use crate::result::OptimizationResult;
use crate::space::DesignSpace;

/// Elitist non-dominated-sorting genetic algorithm over discrete index
/// vectors. Uniform crossover, per-dimension random-reset mutation, and
/// binary tournament selection by (rank, crowding distance).
///
/// Objective evaluations are memoized: only *new* points consume budget,
/// matching how expensive DSE evaluations are accounted in practice.
/// Each generation's offspring are drawn before any of them is evaluated
/// and go to the run's archive as one parallel batch, so results are
/// bit-identical to a sequential run for a fixed seed, at any thread
/// count.
#[derive(Debug, Clone)]
pub struct Nsga2Optimizer {
    seed: u64,
    population: usize,
    crossover_prob: f64,
    mutation_scale: f64,
    threads: Option<usize>,
}

impl Nsga2Optimizer {
    /// Creates an optimizer with conventional defaults (population 24).
    pub fn new(seed: u64) -> Nsga2Optimizer {
        Nsga2Optimizer {
            seed,
            population: 24,
            crossover_prob: 0.9,
            mutation_scale: 1.0,
            threads: None,
        }
    }

    /// Overrides the population size.
    pub fn with_population(mut self, n: usize) -> Nsga2Optimizer {
        self.population = n.max(4);
        self
    }

    /// Pins the evaluation worker count (default: [`crate::par::worker_count`]).
    pub fn with_threads(mut self, n: usize) -> Nsga2Optimizer {
        self.threads = Some(n.max(1));
        self
    }
}

impl MultiObjectiveOptimizer for Nsga2Optimizer {
    fn name(&self) -> &str {
        "nsga-ii"
    }

    fn run_controlled(
        &mut self,
        space: &DesignSpace,
        evaluator: &dyn Evaluator,
        budget: usize,
        control: &RunControl,
    ) -> Result<OptimizationResult, DseError> {
        let _span = obs::span("nsga2.run");
        control.check()?;
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut archive = Archive::new(space, evaluator, budget, self.threads, control);
        let mut stale_generations = 0usize;

        // Initial population. A budget below the population size is spent
        // on its first members, and the search ends there.
        let mut pop: Vec<Vec<usize>> =
            (0..self.population).map(|_| space.random_point(&mut rng)).collect();
        archive.evaluate(pop.iter().map(Vec::as_slice))?;
        let pop_objs: Option<Vec<Vec<f64>>> =
            pop.iter().map(|p| archive.objectives(p).map(<[f64]>::to_vec)).collect();
        let Some(mut pop_objs) = pop_objs else {
            return Ok(archive.into_result(self.name()));
        };

        while !archive.is_full() {
            control.check()?;
            let _gen = obs::span("nsga2.generation");
            obs::add("dse.nsga2.generations", 1);
            let archived_before = archive.len();
            // Ranks and crowding for parent selection.
            let fronts = non_dominated_sort(&pop_objs);
            let mut rank = vec![0usize; pop.len()];
            let mut crowd = vec![0.0f64; pop.len()];
            for (r, front) in fronts.iter().enumerate() {
                let d = crowding_distance(&pop_objs, front);
                for (k, &i) in front.iter().enumerate() {
                    rank[i] = r;
                    crowd[i] = d[k];
                }
            }
            let tournament = |rng: &mut Rng| -> usize {
                // The population is never empty (population >= 4).
                let a = rng.below(pop.len());
                let b = rng.below(pop.len());
                if rank[a] < rank[b] || (rank[a] == rank[b] && crowd[a] > crowd[b]) {
                    a
                } else {
                    b
                }
            };

            // Offspring generation.
            let mut offspring: Vec<Vec<usize>> = Vec::with_capacity(self.population);
            while offspring.len() < self.population {
                let p1 = &pop[tournament(&mut rng)];
                let p2 = &pop[tournament(&mut rng)];
                let mut child: Vec<usize> = if rng.chance(self.crossover_prob) {
                    p1.iter().zip(p2).map(|(&a, &b)| if rng.chance(0.5) { a } else { b }).collect()
                } else {
                    p1.clone()
                };
                // Random-reset mutation with expected `mutation_scale`
                // genes flipped.
                let pm = (self.mutation_scale / space.dims() as f64).min(1.0);
                for (d, gene) in child.iter_mut().enumerate() {
                    if rng.chance(pm) {
                        *gene = rng.below(space.cardinality(d));
                    }
                }
                offspring.push(child);
            }

            // The archive evaluates the new offspring that fit the
            // budget; the rest stand in as copies of the first parent so
            // the arrays stay aligned.
            archive.evaluate(offspring.iter().map(Vec::as_slice))?;
            let off_objs: Vec<Vec<f64>> = offspring
                .iter()
                .map(|p| archive.objectives(p).map_or_else(|| pop_objs[0].clone(), <[f64]>::to_vec))
                .collect();

            // Environmental selection over parents + offspring.
            let mut union = pop.clone();
            union.extend(offspring);
            let mut union_objs = pop_objs.clone();
            union_objs.extend(off_objs);
            let fronts = non_dominated_sort(&union_objs);
            let mut next: Vec<usize> = Vec::with_capacity(self.population);
            for front in fronts {
                if next.len() + front.len() <= self.population {
                    next.extend(front);
                } else {
                    let d = crowding_distance(&union_objs, &front);
                    let mut order: Vec<usize> = (0..front.len()).collect();
                    order.sort_by(|&a, &b| d[b].total_cmp(&d[a]));
                    for &k in order.iter().take(self.population - next.len()) {
                        next.push(front[k]);
                    }
                    break;
                }
            }
            pop = next.iter().map(|&i| union[i].clone()).collect();
            pop_objs = next.iter().map(|&i| union_objs[i].clone()).collect();

            // Terminate on convergence: generations that discover no new
            // point cannot make progress toward the budget.
            if archive.len() == archived_before {
                stale_generations += 1;
                if stale_generations >= 30 {
                    break;
                }
            } else {
                stale_generations = 0;
            }
            if archive.is_full() {
                break;
            }
        }

        Ok(archive.into_result(self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::test_problems::{Bowl3, Tradeoff};
    use crate::random::RandomSearch;

    #[test]
    fn respects_budget() {
        let space = DesignSpace::new(vec![32]).unwrap();
        let mut ga = Nsga2Optimizer::new(11).with_population(8);
        let res = ga.run(&space, &Tradeoff, 30).unwrap();
        assert!(res.evaluation_count() <= 30);
        assert!(res.evaluation_count() >= 8);
    }

    #[test]
    fn deterministic_given_seed() {
        let space = DesignSpace::new(vec![8, 8, 8]).unwrap();
        let a = Nsga2Optimizer::new(7).with_population(8).run(&space, &Bowl3, 40).unwrap();
        let b = Nsga2Optimizer::new(7).with_population(8).run(&space, &Bowl3, 40).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn identical_across_thread_counts() {
        let space = DesignSpace::new(vec![8, 8, 8]).unwrap();
        let base = Nsga2Optimizer::new(9)
            .with_population(8)
            .with_threads(1)
            .run(&space, &Bowl3, 40)
            .unwrap();
        for t in [2, 4, 6] {
            let r = Nsga2Optimizer::new(9)
                .with_population(8)
                .with_threads(t)
                .run(&space, &Bowl3, 40)
                .unwrap();
            assert_eq!(base, r, "threads = {t}");
        }
    }

    #[test]
    fn competitive_with_random_search() {
        let space = DesignSpace::new(vec![8, 8, 8]).unwrap();
        let budget = 60;
        let mut ga_total = 0.0;
        let mut rs_total = 0.0;
        for seed in 0..3 {
            ga_total += Nsga2Optimizer::new(seed)
                .with_population(12)
                .run(&space, &Bowl3, budget)
                .unwrap()
                .final_hypervolume();
            rs_total +=
                RandomSearch::new(seed).run(&space, &Bowl3, budget).unwrap().final_hypervolume();
        }
        assert!(ga_total >= rs_total * 0.95, "GA {ga_total:.4} vs RS {rs_total:.4}");
    }

    #[test]
    fn finds_tradeoff_extremes() {
        let space = DesignSpace::new(vec![32]).unwrap();
        let res = Nsga2Optimizer::new(3).with_population(12).run(&space, &Tradeoff, 64).unwrap();
        let front = res.pareto_front();
        // Both ends of the trade-off should be on the front.
        let min_f0 = front.iter().map(|e| e.objectives[0]).fold(f64::INFINITY, f64::min);
        let min_f1 = front.iter().map(|e| e.objectives[1]).fold(f64::INFINITY, f64::min);
        assert!(min_f0 < 0.1, "min f0 {min_f0}");
        assert!(min_f1 < 0.1, "min f1 {min_f1}");
    }
}
