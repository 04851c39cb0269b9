//! Optimization histories and results.

use autopilot_obs as obs;

use crate::pareto::{hypervolume, IncrementalFront};

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationRecord {
    /// Evaluation index (0-based order of evaluation).
    pub iteration: usize,
    /// Design-space index vector.
    pub point: Vec<usize>,
    /// Objective values (minimized).
    pub objectives: Vec<f64>,
}

/// The outcome of one optimizer run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationResult {
    /// Algorithm name.
    pub algorithm: String,
    /// Every evaluation in order.
    pub evaluations: Vec<EvaluationRecord>,
    /// Reference point used for the hypervolume trace.
    pub reference_point: Vec<f64>,
    /// Hypervolume of the archive after each evaluation.
    pub hypervolume_trace: Vec<f64>,
}

impl OptimizationResult {
    /// Builds a result from an evaluation history, computing the
    /// hypervolume trace.
    ///
    /// The trace keeps one [`IncrementalFront`] over the evaluations that
    /// strictly dominate the reference point and recomputes the
    /// hypervolume only when a point joins that front; otherwise the
    /// previous value repeats. Every entry is bit-identical to
    /// `hypervolume` over the whole prefix: a point outside the
    /// reference never dominates one inside it, and the incremental
    /// front holds exactly the prefix's `pareto_indices` members in the
    /// same order.
    pub fn from_history(
        algorithm: impl Into<String>,
        evaluations: Vec<EvaluationRecord>,
        reference_point: Vec<f64>,
    ) -> OptimizationResult {
        let (trace, updates) = obs::time("dse.hv_trace", || {
            let mut trace = Vec::with_capacity(evaluations.len());
            let mut front = IncrementalFront::new();
            let mut hv = 0.0;
            let mut updates = 0u64;
            for (i, ev) in evaluations.iter().enumerate() {
                let inside = ev.objectives.iter().zip(&reference_point).all(|(x, r)| x < r);
                if inside && front.push(i, ev.objectives.clone()) {
                    hv = hypervolume(front.points(), &reference_point);
                    updates += 1;
                }
                trace.push(hv);
            }
            (trace, updates)
        });
        let result = OptimizationResult {
            algorithm: algorithm.into(),
            evaluations,
            reference_point,
            hypervolume_trace: trace,
        };
        if obs::metrics_enabled() {
            obs::add("dse.evaluations", result.evaluations.len() as u64);
            obs::add("dse.hv_trace.front_updates", updates);
            obs::gauge_set("dse.final_hypervolume", result.final_hypervolume());
        }
        result
    }

    /// Indices of the non-dominated evaluations, ascending (the first of
    /// equal objective vectors is kept), as `pareto_indices` over all
    /// objectives would return them, in O(n·|front|).
    pub fn pareto_indices(&self) -> Vec<usize> {
        let mut front = IncrementalFront::new();
        for (i, e) in self.evaluations.iter().enumerate() {
            front.push(i, e.objectives.clone());
        }
        front.indices().to_vec()
    }

    /// The non-dominated subset of all evaluations.
    pub fn pareto_front(&self) -> Vec<&EvaluationRecord> {
        self.pareto_indices().into_iter().map(|i| &self.evaluations[i]).collect()
    }

    /// Final hypervolume of the archive.
    pub fn final_hypervolume(&self) -> f64 {
        self.hypervolume_trace.last().copied().unwrap_or(0.0)
    }

    /// Number of evaluations consumed.
    pub fn evaluation_count(&self) -> usize {
        self.evaluations.len()
    }

    /// Evaluations needed to first reach `fraction` of the final
    /// hypervolume (a convergence-speed metric), or `None` if never.
    pub fn evaluations_to_fraction(&self, fraction: f64) -> Option<usize> {
        let target = self.final_hypervolume() * fraction;
        if target <= 0.0 {
            return Some(0);
        }
        self.hypervolume_trace.iter().position(|&h| h >= target).map(|i| i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: usize, objs: Vec<f64>) -> EvaluationRecord {
        EvaluationRecord { iteration: i, point: vec![i], objectives: objs }
    }

    fn result() -> OptimizationResult {
        OptimizationResult::from_history(
            "test",
            vec![
                record(0, vec![3.0, 3.0]),
                record(1, vec![1.0, 4.0]),
                record(2, vec![2.0, 2.0]),
                record(3, vec![5.0, 5.0]),
            ],
            vec![6.0, 6.0],
        )
    }

    #[test]
    fn hypervolume_trace_is_monotone() {
        let r = result();
        for w in r.hypervolume_trace.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(r.hypervolume_trace.len(), 4);
    }

    #[test]
    fn pareto_front_excludes_dominated() {
        let r = result();
        let front: Vec<usize> = r.pareto_front().iter().map(|e| e.iteration).collect();
        assert_eq!(front, vec![1, 2]);
    }

    #[test]
    fn convergence_metric() {
        let r = result();
        let n = r.evaluations_to_fraction(0.99).unwrap();
        assert!(n <= 3, "converged after {n}");
        assert_eq!(r.evaluation_count(), 4);
    }

    #[test]
    fn empty_history_is_safe() {
        let r = OptimizationResult::from_history("empty", vec![], vec![1.0]);
        assert_eq!(r.final_hypervolume(), 0.0);
        assert!(r.pareto_front().is_empty());
        assert_eq!(r.evaluations_to_fraction(0.9), Some(0));
    }
}
