//! Error-path coverage: a failing evaluator must surface as `Err` from
//! every optimizer — never a panic.

// Helpers shared across #[test] fns fall outside `allow-unwrap-in-tests`.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dse_opt::{
    AnnealingOptimizer, DesignSpace, DseError, EvalError, Evaluator, ExhaustiveSearch,
    MultiObjectiveOptimizer, Nsga2Optimizer, RandomSearch, SmsEgoOptimizer,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fails every evaluation with a typed error.
struct FailingEvaluator {
    calls: AtomicUsize,
}

impl FailingEvaluator {
    fn new() -> FailingEvaluator {
        FailingEvaluator { calls: AtomicUsize::new(0) }
    }
}

impl Evaluator for FailingEvaluator {
    fn num_objectives(&self) -> usize {
        2
    }
    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Err(EvalError::Failed { message: format!("simulator crashed at {point:?}") })
    }
    fn reference_point(&self) -> Vec<f64> {
        vec![1.0, 1.0]
    }
}

/// Succeeds for the first `ok_budget` distinct calls, then fails — so
/// optimizers get far enough to exercise their mid-run evaluation paths.
struct EventuallyFailing {
    ok_budget: usize,
    calls: AtomicUsize,
}

impl Evaluator for EventuallyFailing {
    fn num_objectives(&self) -> usize {
        2
    }
    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if n >= self.ok_budget {
            return Err(EvalError::Failed { message: format!("budget {n} exceeded at {point:?}") });
        }
        let x = point[0] as f64 / 15.0;
        Ok(vec![x, 1.0 - x])
    }
    fn reference_point(&self) -> Vec<f64> {
        vec![1.1, 1.1]
    }
}

fn space() -> DesignSpace {
    DesignSpace::new(vec![16, 16]).expect("valid space")
}

fn all_optimizers(seed: u64) -> Vec<Box<dyn MultiObjectiveOptimizer>> {
    vec![
        Box::new(SmsEgoOptimizer::new(seed).with_init_samples(4).with_candidate_pool(16)),
        Box::new(Nsga2Optimizer::new(seed).with_population(6)),
        Box::new(AnnealingOptimizer::new(seed)),
        Box::new(RandomSearch::new(seed)),
        Box::new(ExhaustiveSearch::new()),
    ]
}

#[test]
fn every_optimizer_returns_err_not_panic() {
    let space = space();
    for mut opt in all_optimizers(3) {
        let failing = FailingEvaluator::new();
        let name = opt.name().to_string();
        let result = opt.run(&space, &failing, 16);
        let err = match result {
            Err(e) => e,
            Ok(_) => panic!("{name} swallowed the evaluation failure"),
        };
        assert!(matches!(err, DseError::Eval(EvalError::Failed { .. })), "{name}: {err}");
        assert!(failing.calls.load(Ordering::Relaxed) >= 1, "{name} never called the evaluator");
        // The error formats with the failing point's context.
        assert!(err.to_string().contains("simulator crashed"), "{name}: {err}");
    }
}

#[test]
fn mid_run_failures_also_propagate() {
    let space = space();
    for mut opt in all_optimizers(5) {
        let name = opt.name().to_string();
        let flaky = EventuallyFailing { ok_budget: 6, calls: AtomicUsize::new(0) };
        let result = opt.run(&space, &flaky, 32);
        assert!(result.is_err(), "{name} ignored a mid-run failure");
    }
}
