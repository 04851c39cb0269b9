//! Runtime optimizer registry: Phase 2 looks its optimizer up by name,
//! so new search backends plug in without touching the core crate.
//!
//! The registry maps a name (e.g. `"sms-ego-bo"`) to a factory closure
//! that builds a boxed [`MultiObjectiveOptimizer`] from an
//! [`OptimizerContext`] (seed, budget, domain-informed seed points, and
//! the job's engine knobs). The built-in optimizers register themselves
//! on first access; downstream crates add their own with
//! [`register_optimizer`]:
//!
//! ```
//! use autopilot::registry::{self, OptimizerContext};
//! use dse_opt::RandomSearch;
//!
//! registry::register_optimizer("my-random", |ctx: &OptimizerContext| {
//!     Box::new(RandomSearch::new(ctx.seed))
//! });
//! assert!(registry::registered_optimizers().contains(&"my-random".to_string()));
//! ```

use dse_opt::{
    AnnealingOptimizer, ExhaustiveSearch, MultiObjectiveOptimizer, Nsga2Optimizer, RandomSearch,
    SmsEgoOptimizer,
};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use crate::config::JobConfig;
use crate::error::AutopilotError;

/// Everything a factory may use to parameterize an optimizer. Budgets
/// and seeds come from the Phase-2 configuration; `seed_points` carry
/// the domain-informed warm starts (Section III-A); `job` carries the
/// engine knobs (worker count, GP window, surrogate and kernel
/// exponential modes), which factories for non-GP optimizers partly
/// ignore.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct OptimizerContext {
    /// Deterministic seed.
    pub seed: u64,
    /// Evaluation budget the optimizer will be run with.
    pub budget: usize,
    /// Warm-start design points (may be empty).
    pub seed_points: Vec<Vec<usize>>,
    /// The job's engine knobs.
    pub job: JobConfig,
}

impl OptimizerContext {
    /// A context with no warm starts and the engine's default knobs.
    pub fn new(seed: u64, budget: usize) -> OptimizerContext {
        OptimizerContext { seed, budget, seed_points: Vec::new(), job: JobConfig::default() }
    }
}

/// A ready-to-run optimizer built by a registry factory.
pub type BoxedOptimizer = Box<dyn MultiObjectiveOptimizer + Send>;

type Factory = dyn Fn(&OptimizerContext) -> BoxedOptimizer + Send + Sync;

fn registry() -> &'static RwLock<HashMap<String, Arc<Factory>>> {
    static REGISTRY: OnceLock<RwLock<HashMap<String, Arc<Factory>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(builtin_factories()))
}

fn builtin_factories() -> HashMap<String, Arc<Factory>> {
    let mut map: HashMap<String, Arc<Factory>> = HashMap::new();
    map.insert(
        "sms-ego-bo".to_owned(),
        Arc::new(|ctx: &OptimizerContext| {
            let job = &ctx.job;
            let mut opt = SmsEgoOptimizer::new(ctx.seed)
                .with_init_samples((ctx.budget / 4).clamp(8, 32))
                .with_candidate_pool(128)
                .with_seed_points(ctx.seed_points.clone());
            if let Some(t) = job.threads {
                opt = opt.with_threads(t);
            }
            if let Some(w) = job.gp_window {
                opt = opt.with_max_gp_points(w);
            }
            if let Some(mode) = job.surrogate {
                opt = opt.with_surrogate_mode(mode);
            }
            if let Some(mode) = job.exp_mode {
                opt = opt.with_exp_mode(mode);
            }
            Box::new(opt)
        }),
    );
    map.insert(
        "nsga-ii".to_owned(),
        Arc::new(|ctx: &OptimizerContext| {
            let mut opt =
                Nsga2Optimizer::new(ctx.seed).with_population((ctx.budget / 6).clamp(8, 32));
            if let Some(t) = ctx.job.threads {
                opt = opt.with_threads(t);
            }
            Box::new(opt)
        }),
    );
    map.insert(
        "simulated-annealing".to_owned(),
        Arc::new(|ctx: &OptimizerContext| Box::new(AnnealingOptimizer::new(ctx.seed))),
    );
    map.insert(
        "random-search".to_owned(),
        Arc::new(|ctx: &OptimizerContext| {
            let mut opt = RandomSearch::new(ctx.seed);
            if let Some(t) = ctx.job.threads {
                opt = opt.with_threads(t);
            }
            Box::new(opt)
        }),
    );
    map.insert(
        "exhaustive".to_owned(),
        Arc::new(|_ctx: &OptimizerContext| Box::new(ExhaustiveSearch::new())),
    );
    map
}

/// Registers (or replaces) the factory for `name`. Registration is
/// process-wide: every [`crate::Phase2`] created afterwards can select
/// the optimizer by name.
pub fn register_optimizer<F>(name: impl Into<String>, factory: F)
where
    F: Fn(&OptimizerContext) -> BoxedOptimizer + Send + Sync + 'static,
{
    registry()
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(name.into(), Arc::new(factory));
}

/// The names currently registered, sorted.
pub fn registered_optimizers() -> Vec<String> {
    let mut names: Vec<String> =
        registry().read().unwrap_or_else(PoisonError::into_inner).keys().cloned().collect();
    names.sort();
    names
}

/// Builds the optimizer registered under `name`.
///
/// # Errors
///
/// Returns [`AutopilotError::UnknownOptimizer`] (listing the registered
/// names) when no factory matches.
pub fn build_optimizer(
    name: &str,
    ctx: &OptimizerContext,
) -> Result<BoxedOptimizer, AutopilotError> {
    let factory =
        registry().read().unwrap_or_else(PoisonError::into_inner).get(name).cloned().ok_or_else(
            || AutopilotError::UnknownOptimizer {
                name: name.to_owned(),
                available: registered_optimizers(),
            },
        )?;
    Ok(factory(ctx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_registered() {
        let names = registered_optimizers();
        for builtin in
            ["sms-ego-bo", "nsga-ii", "simulated-annealing", "random-search", "exhaustive"]
        {
            assert!(names.contains(&builtin.to_string()), "{builtin} missing from {names:?}");
        }
    }

    #[test]
    fn unknown_name_lists_alternatives() {
        let err = match build_optimizer("does-not-exist", &OptimizerContext::new(1, 10)) {
            Err(e) => e,
            Ok(_) => panic!("unregistered name must not build"),
        };
        match err {
            AutopilotError::UnknownOptimizer { name, available } => {
                assert_eq!(name, "does-not-exist");
                assert!(available.contains(&"sms-ego-bo".to_string()));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn built_optimizers_carry_their_names() {
        let ctx = OptimizerContext::new(3, 24);
        for name in ["sms-ego-bo", "nsga-ii", "simulated-annealing", "random-search", "exhaustive"]
        {
            let opt = build_optimizer(name, &ctx).unwrap();
            assert_eq!(opt.name(), name);
        }
    }

    #[test]
    fn custom_registration_round_trips() {
        register_optimizer("test-registry-random", |ctx: &OptimizerContext| {
            Box::new(RandomSearch::new(ctx.seed))
        });
        let opt = build_optimizer("test-registry-random", &OptimizerContext::new(7, 8)).unwrap();
        assert_eq!(opt.name(), "random-search");
    }
}
