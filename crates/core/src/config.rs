//! Per-job engine configuration.
//!
//! [`JobConfig`] is the one carrier of the engine's knobs from the edge
//! (CLI, server, probes) down to the optimizer: [`crate::AutoPilot`],
//! [`crate::Phase2`] and [`crate::registry::OptimizerContext`] each hold
//! one. No environment variable sets a knob that changes results:
//! binaries start from [`JobConfig::default`] and apply their own flags
//! or job fields through the `with_*` builders, so two jobs in one
//! process can carry different knobs.

use crate::swap::SwapMode;
use dse_opt::{KernelExpMode, SurrogateMode};

/// Explicit per-job engine knobs: thread count and the SWaP constraint.
///
/// [`JobConfig::default`] is the engine's constant defaults.
/// Results are bit-identical across `threads` values; the SWaP
/// constraint legitimately changes the objectives (see
/// [`JobConfig::searches_differently`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobConfig {
    /// Optimizer worker-pool size. `None` = the engine-wide default
    /// (`dse_opt::par::worker_count`: startup `AUTOPILOT_THREADS`, else
    /// hardware parallelism).
    pub threads: Option<usize>,
    /// Always `None`, and nothing reads it: the exact GP trains on the
    /// whole archive up to `dse_opt::MAX_EXACT_POINTS`, with no window.
    /// The field stays only so that the benchmark package, which prints
    /// it, keeps compiling until it stops naming it.
    pub gp_window: Option<usize>,
    /// Always `None`, and nothing reads it: SMS-EGO runs its built-in
    /// [`SurrogateMode::default_sparse`]. The field stays only so that
    /// the benchmark package, which prints it, keeps compiling until it
    /// stops naming it.
    pub surrogate: Option<SurrogateMode>,
    /// Always `None`, and nothing reads it: every kernel entry is one
    /// `f64::exp`. The field stays only so that the benchmark package,
    /// which prints it, keeps compiling until it stops naming it.
    pub exp_mode: Option<KernelExpMode>,
    /// Always `false`, and nothing reads it: no search path memoizes
    /// layer simulations. The field stays only so that the benchmark
    /// package, which prints it, keeps compiling until it stops naming
    /// it.
    pub layer_memo: bool,
    /// Whether compute weight is enforced as an airframe SWaP constraint
    /// ([`SwapMode::Constraint`]) or ignored (legacy scalar-payload
    /// mode, the default).
    pub swap: SwapMode,
}

impl JobConfig {
    /// [`JobConfig::default`]; reads no environment. Kept only so the
    /// benchmark package compiles until it stops naming it.
    pub fn from_env() -> JobConfig {
        JobConfig::default()
    }

    /// Pins the optimizer worker count (bit-identical results at any
    /// value).
    pub fn with_threads(mut self, n: usize) -> JobConfig {
        self.threads = Some(n.max(1));
        self
    }

    /// Sets the SWaP-constraint mode.
    pub fn with_swap(mut self, mode: SwapMode) -> JobConfig {
        self.swap = mode;
        self
    }

    /// The effective worker count this job runs with.
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(dse_opt::par::worker_count)
    }

    /// True when a Phase-2 run under this job can differ from one at
    /// [`JobConfig::default`] — the run a [`crate::PipelineCache`]
    /// holds, keyed by scenario alone: true when the SWaP constraint
    /// makes objectives depend on the UAV's airframe. Threads never
    /// change results.
    pub fn searches_differently(&self) -> bool {
        // Destructured so that a new knob cannot be added without
        // deciding here whether it changes results.
        let JobConfig { threads: _, gp_window: _, surrogate: _, exp_mode: _, layer_memo: _, swap } =
            *self;
        swap.is_on()
    }
}

impl Default for JobConfig {
    /// The engine's constant defaults: optimizer-default threads; the
    /// SWaP constraint off.
    /// Reads no environment.
    fn default() -> JobConfig {
        JobConfig {
            threads: None,
            gp_window: None,
            surrogate: None,
            exp_mode: None,
            layer_memo: false,
            swap: SwapMode::Off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_override_defaults() {
        let cfg = JobConfig::default().with_threads(3).with_swap(SwapMode::Constraint);
        assert_eq!(cfg.threads, Some(3));
        assert_eq!(cfg.effective_threads(), 3);
        assert_eq!(cfg.swap, SwapMode::Constraint);
        assert_eq!((cfg.gp_window, cfg.surrogate, cfg.exp_mode), (None, None, None));
    }

    #[test]
    fn thread_count_is_floored_at_one() {
        assert_eq!(JobConfig::default().with_threads(0).threads, Some(1));
        assert!(JobConfig::default().effective_threads() >= 1);
    }

    #[test]
    fn defaults_search_like_the_pipeline_cache() {
        assert!(!JobConfig::default().searches_differently());
        // Pinning a knob to its default value keeps the cached search;
        // threads never change results.
        let same = JobConfig::default().with_threads(3).with_swap(SwapMode::Off);
        assert!(!same.searches_differently());
        let job = JobConfig::default().with_swap(SwapMode::Constraint);
        assert!(job.searches_differently(), "{job:?}");
    }
}
