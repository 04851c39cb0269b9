//! Cooperative-cancellation regressions: every optimizer must notice a
//! cancelled [`RunControl`] in its inner loop and return
//! [`DseError::Cancelled`] cleanly — no partial front, no panic — and
//! an active-but-never-cancelled token must not perturb results.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dse_opt::{
    AnnealingOptimizer, DseError, EvalError, Evaluator, ExhaustiveSearch, MultiObjectiveOptimizer,
    Nsga2Optimizer, RandomSearch, RunControl, SmsEgoOptimizer,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bi-objective trade-off whose evaluator cancels the shared token
/// after `limit` evaluations — models a tenant hitting DELETE while
/// the job is mid-search.
struct CancelAfter {
    limit: usize,
    count: AtomicUsize,
    control: RunControl,
}

impl CancelAfter {
    fn new(limit: usize, control: RunControl) -> CancelAfter {
        CancelAfter { limit, count: AtomicUsize::new(0), control }
    }
}

impl Evaluator for CancelAfter {
    fn num_objectives(&self) -> usize {
        2
    }

    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
        if self.count.fetch_add(1, Ordering::SeqCst) + 1 >= self.limit {
            self.control.cancel();
        }
        let x = point[0] as f64 / 15.0;
        Ok(vec![x, (1.0 - x) * (1.0 - x)])
    }

    fn reference_point(&self) -> Vec<f64> {
        vec![1.1, 1.1]
    }
}

fn space() -> dse_opt::DesignSpace {
    dse_opt::DesignSpace::new(vec![16, 16]).expect("valid space")
}

fn assert_cancels(name: &str, opt: &mut dyn MultiObjectiveOptimizer) {
    // Pre-cancelled token: the run must bail out before burning budget.
    let pre = RunControl::new();
    pre.cancel();
    let eval = CancelAfter::new(usize::MAX, pre.clone());
    let res = opt.run_controlled(&space(), &eval, 64, &pre);
    assert_eq!(res.err(), Some(DseError::Cancelled), "{name}: pre-cancelled");
    assert_eq!(eval.count.load(Ordering::SeqCst), 0, "{name}: evaluated after pre-cancel");

    // Mid-run cancellation from inside the evaluator: the inner loop
    // must notice at its next check and return cleanly.
    let control = RunControl::new();
    let eval = CancelAfter::new(6, control.clone());
    let res = opt.run_controlled(&space(), &eval, 200, &control);
    assert_eq!(res.err(), Some(DseError::Cancelled), "{name}: mid-run");
    let evaluated = eval.count.load(Ordering::SeqCst);
    assert!(evaluated >= 6, "{name}: cancelled before the trigger ({evaluated})");
    assert!(evaluated < 200, "{name}: burned the whole budget ({evaluated})");
}

#[test]
fn sms_ego_cancels_cleanly() {
    assert_cancels("sms-ego-bo", &mut SmsEgoOptimizer::new(3).with_init_samples(4));
}

#[test]
fn nsga2_cancels_cleanly() {
    assert_cancels("nsga-ii", &mut Nsga2Optimizer::new(3).with_population(4));
}

#[test]
fn random_search_cancels_cleanly() {
    assert_cancels("random-search", &mut RandomSearch::new(3));
}

#[test]
fn annealing_cancels_cleanly() {
    assert_cancels("simulated-annealing", &mut AnnealingOptimizer::new(3));
}

#[test]
fn exhaustive_cancels_cleanly() {
    assert_cancels("exhaustive", &mut ExhaustiveSearch::new());
}

/// An objective evaluator that never cancels, for determinism checks.
struct Quiet;

impl Evaluator for Quiet {
    fn num_objectives(&self) -> usize {
        2
    }
    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
        let x = point[0] as f64 / 15.0;
        let y = point[1] as f64 / 15.0;
        Ok(vec![x + y * 0.25, (1.0 - x) * (1.0 - x) + 0.1 * y])
    }
    fn reference_point(&self) -> Vec<f64> {
        vec![2.0, 2.0]
    }
}

#[test]
fn active_token_is_bit_identical_to_uncontrolled_run() {
    let budget = 32;
    let plain = SmsEgoOptimizer::new(7).with_init_samples(6).run(&space(), &Quiet, budget);
    let controlled = SmsEgoOptimizer::new(7).with_init_samples(6).run_controlled(
        &space(),
        &Quiet,
        budget,
        &RunControl::new(),
    );
    assert_eq!(plain, controlled);

    let plain = Nsga2Optimizer::new(7).with_population(6).run(&space(), &Quiet, budget);
    let controlled = Nsga2Optimizer::new(7).with_population(6).run_controlled(
        &space(),
        &Quiet,
        budget,
        &RunControl::new(),
    );
    assert_eq!(plain, controlled);

    let plain = RandomSearch::new(7).run(&space(), &Quiet, budget);
    let controlled =
        RandomSearch::new(7).run_controlled(&space(), &Quiet, budget, &RunControl::new());
    assert_eq!(plain, controlled);
}

/// The progress a finished run leaves on its token is its result's:
/// every evaluation counted, and the front size of the whole history.
#[test]
fn progress_checkpoints_are_published() {
    let optimizers: Vec<Box<dyn MultiObjectiveOptimizer>> = vec![
        Box::new(SmsEgoOptimizer::new(13).with_init_samples(6)),
        Box::new(Nsga2Optimizer::new(13).with_population(8)),
        Box::new(RandomSearch::new(13)),
        Box::new(AnnealingOptimizer::new(13)),
        Box::new(ExhaustiveSearch::new()),
    ];
    let mut stale = Vec::new();
    for mut opt in optimizers {
        let control = RunControl::new();
        let res = opt.run_controlled(&space(), &Quiet, 40, &control).unwrap();
        let published = (control.evaluations(), control.front_size());
        let record = (res.evaluations.len() as u64, res.pareto_indices().len() as u64);
        if published != record {
            stale.push(format!("{}: published {published:?}, result {record:?}", opt.name()));
        }
    }
    assert!(stale.is_empty(), "{stale:#?}");
}
