//! Timed optimizers: registry entries that wrap a built-in optimizer and
//! the evaluator it is handed, so a traced run separates evaluator time
//! from optimizer time without touching the program. Phase 2 (and the
//! co-design server) select them by name like any registered optimizer;
//! the wrapped optimizer's results are unchanged.

use autopilot::OptimizerChoice;
use dse_opt::{
    DesignSpace, DseError, EvalError, Evaluator, MultiObjectiveOptimizer, OptimizationResult,
    RunControl,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once, PoisonError};
use std::time::{Duration, Instant};

/// Process-wide totals over every timed optimizer run.
#[derive(Debug, Default)]
struct Ledger {
    run_ns: AtomicU64,
    eval_ns: AtomicU64,
    eval_calls: AtomicU64,
    tail_ns: AtomicU64,
}

static LEDGER: Ledger = Ledger {
    run_ns: AtomicU64::new(0),
    eval_ns: AtomicU64::new(0),
    eval_calls: AtomicU64::new(0),
    tail_ns: AtomicU64::new(0),
};

/// A snapshot of the ledger.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Wall time inside `run_controlled`, summed over runs.
    pub run: Duration,
    /// Time inside evaluator calls.
    pub eval: Duration,
    pub eval_calls: u64,
    /// From each run's last evaluation to its return: the
    /// hypervolume-trace rebuild in `OptimizationResult::from_history`.
    pub tail: Duration,
}

/// Reads and zeroes the ledger.
pub fn take() -> Totals {
    let ns = |a: &AtomicU64| Duration::from_nanos(a.swap(0, Ordering::Relaxed));
    Totals {
        run: ns(&LEDGER.run_ns),
        eval: ns(&LEDGER.eval_ns),
        eval_calls: LEDGER.eval_calls.swap(0, Ordering::Relaxed),
        tail: ns(&LEDGER.tail_ns),
    }
}

/// The registry name of the timed wrapper around `choice`.
pub fn name(choice: OptimizerChoice) -> String {
    format!("perfbench.{}", choice.name())
}

/// Registers the timed wrappers (idempotent).
pub fn register() {
    static REGISTER: Once = Once::new();
    REGISTER.call_once(|| {
        for choice in [OptimizerChoice::SmsEgo, OptimizerChoice::Nsga2] {
            autopilot::register_optimizer(name(choice), move |ctx| {
                let inner = autopilot::build_optimizer(choice.name(), ctx)
                    .expect("built-in optimizers are always registered");
                Box::new(TimedOptimizer { inner })
            });
        }
    });
}

struct TimedOptimizer {
    inner: autopilot::BoxedOptimizer,
}

impl MultiObjectiveOptimizer for TimedOptimizer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run_controlled(
        &mut self,
        space: &DesignSpace,
        evaluator: &dyn Evaluator,
        budget: usize,
        control: &RunControl,
    ) -> Result<OptimizationResult, DseError> {
        let timing = TimingEvaluator {
            inner: evaluator,
            busy_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            last_end: Mutex::new(None),
        };
        let start = Instant::now();
        let result = self.inner.run_controlled(space, &timing, budget, control);
        let end = Instant::now();
        let last = timing.last_end.lock().unwrap_or_else(PoisonError::into_inner).unwrap_or(start);
        LEDGER.run_ns.fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        LEDGER.eval_ns.fetch_add(timing.busy_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        LEDGER.eval_calls.fetch_add(timing.calls.load(Ordering::Relaxed), Ordering::Relaxed);
        LEDGER
            .tail_ns
            .fetch_add(end.saturating_duration_since(last).as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

struct TimingEvaluator<'a> {
    inner: &'a dyn Evaluator,
    busy_ns: AtomicU64,
    calls: AtomicU64,
    last_end: Mutex<Option<Instant>>,
}

impl Evaluator for TimingEvaluator<'_> {
    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
        let start = Instant::now();
        let result = self.inner.evaluate(point);
        let end = Instant::now();
        self.busy_ns.fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        *self.last_end.lock().unwrap_or_else(PoisonError::into_inner) = Some(end);
        result
    }

    fn reference_point(&self) -> Vec<f64> {
        self.inner.reference_point()
    }
}
