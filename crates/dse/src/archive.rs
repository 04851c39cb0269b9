//! The evaluation archive every Phase-2 sampler records into.

use autopilot_rng::Rng;
use std::collections::hash_map::Entry;

use crate::error::EvalError;
use crate::evaluator::Evaluator;
use crate::par;
use crate::result::{EvaluationRecord, OptimizationResult};
use crate::space::{DesignSpace, RankMap};

/// One run's evaluations in evaluation order, keyed by point rank
/// ([`DesignSpace::rank`]).
///
/// It is the run's memo and its budget: a point is evaluated at most
/// once, and at most `min(budget, |space|)` points are, capped here
/// before anything is allocated. It keeps the running per-objective min
/// and max. [`Archive::evaluate`] is the one place evaluations fan out
/// over worker threads; a batch commits in batch order whatever the
/// worker count, so a run is bit-identical to a sequential one.
pub(crate) struct Archive<'a> {
    space: &'a DesignSpace,
    evaluator: &'a dyn Evaluator,
    workers: usize,
    budget: usize,
    history: Vec<EvaluationRecord>,
    /// History index by rank: the memo.
    index: RankMap<usize>,
    mins: Vec<f64>,
    maxs: Vec<f64>,
    /// The points the current batch evaluates, kept for its buffer.
    fresh: Vec<Vec<usize>>,
}

/// Records reserved up front. A larger budget grows the history and memo
/// on demand instead of reserving what its space could hold.
const MAX_RESERVED: usize = 1 << 16;

impl<'a> Archive<'a> {
    /// An empty archive for a run of `budget` evaluations of `evaluator`
    /// over `space`, fanning batches out over `threads` workers (default:
    /// [`par::worker_count`]).
    pub(crate) fn new(
        space: &'a DesignSpace,
        evaluator: &'a dyn Evaluator,
        budget: usize,
        threads: Option<usize>,
    ) -> Archive<'a> {
        let budget = (budget as u128).min(space.len()) as usize;
        let reserved = budget.min(MAX_RESERVED);
        let n_obj = evaluator.num_objectives();
        Archive {
            space,
            evaluator,
            workers: threads.unwrap_or_else(par::worker_count),
            budget,
            history: Vec::with_capacity(reserved),
            index: RankMap::with_capacity_and_hasher(reserved, Default::default()),
            mins: vec![f64::INFINITY; n_obj],
            maxs: vec![f64::NEG_INFINITY; n_obj],
            fresh: Vec::new(),
        }
    }

    /// The evaluation budget, capped at the space's point count.
    pub(crate) fn budget(&self) -> usize {
        self.budget
    }

    /// Number of evaluations.
    pub(crate) fn len(&self) -> usize {
        self.history.len()
    }

    /// Whether the budget is spent.
    pub(crate) fn is_full(&self) -> bool {
        self.history.len() >= self.budget
    }

    /// The evaluations, in evaluation order.
    pub(crate) fn history(&self) -> &[EvaluationRecord] {
        &self.history
    }

    /// Per objective, the least value evaluated so far.
    pub(crate) fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Per objective, the greatest value evaluated so far.
    pub(crate) fn maxs(&self) -> &[f64] {
        &self.maxs
    }

    /// Whether the point of rank `rank` has been evaluated.
    pub(crate) fn contains(&self, rank: u64) -> bool {
        self.index.contains_key(&rank)
    }

    /// The objectives of `point`, if it has been evaluated.
    pub(crate) fn objectives(&self, point: &[usize]) -> Option<&[f64]> {
        let &i = self.index.get(&self.space.rank(point))?;
        Some(&self.history[i].objectives)
    }

    /// Evaluates the points of `batch` that are neither archived nor a
    /// repeat of an earlier point of `batch`, in first-occurrence order
    /// and as far as the budget reaches. They are evaluated as one
    /// parallel map and join the history in batch order (a point is
    /// copied only when it is evaluated). On an evaluation error the
    /// points before the failed one stay committed.
    ///
    /// # Panics
    ///
    /// Panics if a point is outside the space.
    pub(crate) fn evaluate<P: AsRef<[usize]> + Into<Vec<usize>>>(
        &mut self,
        batch: impl IntoIterator<Item = P>,
    ) -> Result<(), EvalError> {
        let mut fresh = std::mem::take(&mut self.fresh);
        for point in batch {
            if self.history.len() + fresh.len() >= self.budget {
                break;
            }
            // Fresh points commit in batch order, so each one's history
            // index is known before it is evaluated.
            if let Entry::Vacant(slot) = self.index.entry(self.space.rank(point.as_ref())) {
                slot.insert(self.history.len() + fresh.len());
                fresh.push(point.into());
            }
        }
        let evaluator = self.evaluator;
        let objectives = par::parallel_map_with(self.workers, &fresh, |_, p| evaluator.evaluate(p));
        if let Some(failed) = objectives.iter().position(Result::is_err) {
            for point in &fresh[failed..] {
                self.index.remove(&self.space.rank(point));
            }
        }
        for (point, objectives) in fresh.drain(..).zip(objectives) {
            let objectives = objectives?;
            for ((min, max), &v) in self.mins.iter_mut().zip(&mut self.maxs).zip(&objectives) {
                *min = min.min(v);
                *max = max.max(v);
            }
            let iteration = self.history.len();
            self.history.push(EvaluationRecord { iteration, point, objectives });
        }
        self.fresh = fresh;
        Ok(())
    }

    /// Draws uniform random points into `batch` until it holds `len`
    /// points. A draw that is archived or already in `batch` is rejected
    /// and counts `retries` down; at zero the drawing stops.
    pub(crate) fn draw_fresh(
        &self,
        rng: &mut Rng,
        batch: &mut Vec<Vec<usize>>,
        len: usize,
        retries: &mut usize,
    ) {
        while batch.len() < len && *retries > 0 {
            let p = self.space.random_point(rng);
            if self.contains(self.space.rank(&p)) || batch.contains(&p) {
                *retries -= 1;
            } else {
                batch.push(p);
            }
        }
    }

    /// The run's result under the name `algorithm`.
    pub(crate) fn into_result(self, algorithm: &str) -> OptimizationResult {
        OptimizationResult::from_history(algorithm, self.history, self.evaluator.reference_point())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::test_problems::Tradeoff;

    #[test]
    fn evaluates_each_point_once_in_first_occurrence_order() {
        let space = DesignSpace::new(vec![8]).unwrap();
        let mut archive = Archive::new(&space, &Tradeoff, 100, Some(3));
        archive.evaluate([vec![3], vec![1], vec![3]]).unwrap();
        archive.evaluate([vec![1], vec![5], vec![5], vec![0]]).unwrap();
        let points: Vec<usize> = archive.history().iter().map(|e| e.point[0]).collect();
        assert_eq!(points, [3, 1, 5, 0]);
        assert_eq!(archive.objectives(&[5]), Some(&archive.history()[2].objectives[..]));
        assert_eq!(archive.objectives(&[2]), None);
    }

    #[test]
    fn caps_the_budget_at_the_space() {
        let space = DesignSpace::new(vec![3, 2]).unwrap();
        let mut archive = Archive::new(&space, &Tradeoff, usize::MAX, Some(2));
        assert_eq!(archive.budget(), 6);
        let all: Vec<Vec<usize>> = space.iter_points().collect();
        archive.evaluate(all[..4].iter().chain(&all).map(Vec::as_slice)).unwrap();
        assert!(archive.is_full());
        assert_eq!(archive.len(), 6);

        let mut archive = Archive::new(&space, &Tradeoff, 2, Some(2));
        archive.evaluate(all.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(archive.len(), 2);
        assert_eq!(archive.objectives(&all[2]), None, "past the budget");

        // 10^15 points: the budget is capped at the space, but only
        // `MAX_RESERVED` records are reserved for it.
        let huge = DesignSpace::new(vec![1000; 5]).unwrap();
        let archive = Archive::new(&huge, &Tradeoff, usize::MAX, None);
        assert_eq!(archive.budget(), 1_000_000_000_000_000);
        assert!(archive.history.capacity() < 2 * MAX_RESERVED);
    }

    #[test]
    fn tracks_objective_ranges() {
        let space = DesignSpace::new(vec![32]).unwrap();
        let mut archive = Archive::new(&space, &Tradeoff, 10, Some(1));
        archive.evaluate([vec![4], vec![20], vec![9]]).unwrap();
        for (obj, (&min, &max)) in archive.mins().iter().zip(archive.maxs()).enumerate() {
            let values = archive.history().iter().map(|e| e.objectives[obj]);
            assert_eq!(min, values.clone().fold(f64::INFINITY, f64::min));
            assert_eq!(max, values.fold(f64::NEG_INFINITY, f64::max));
        }
    }

    /// [`Tradeoff`], failing at level 2.
    struct FailsAtTwo;

    impl Evaluator for FailsAtTwo {
        fn num_objectives(&self) -> usize {
            2
        }
        fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
            if point[0] == 2 {
                return Err(EvalError::Failed { message: "level 2".into() });
            }
            Tradeoff.evaluate(point)
        }
    }

    #[test]
    fn a_failed_batch_keeps_only_the_points_before_the_failure() {
        let space = DesignSpace::new(vec![8]).unwrap();
        let mut archive = Archive::new(&space, &FailsAtTwo, 100, Some(2));
        assert!(archive.evaluate([[1], [2], [3]]).is_err());
        let points: Vec<usize> = archive.history().iter().map(|e| e.point[0]).collect();
        assert_eq!(points, [1]);
        assert!(!archive.contains(space.rank(&[2])) && !archive.contains(space.rank(&[3])));
        archive.evaluate([[3], [1]]).unwrap();
        let points: Vec<usize> = archive.history().iter().map(|e| e.point[0]).collect();
        assert_eq!(points, [1, 3]);
    }
}
