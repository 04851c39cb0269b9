//! Per-job engine configuration.
//!
//! [`JobConfig`] is the one carrier of the engine's knobs from the edge
//! (CLI, server, probes) down to the optimizer: [`crate::AutoPilot`],
//! [`crate::Phase2`] and [`crate::registry::OptimizerContext`] each hold
//! one, and nothing below them reads the environment. The environment
//! is read in exactly one place, [`JobConfig::from_env`], which captures
//! it **once per process** (via [`autopilot_obs::env_once`], which warns
//! if the live environment later diverges). Library defaults
//! ([`JobConfig::default`]) are constants, so two jobs in one process
//! can carry different knobs without mutating the environment.

use crate::swap::SwapMode;
use dse_opt::{KernelExpMode, SurrogateMode};
use systolic_sim::LayerMemo;

/// Explicit per-job engine knobs: thread count, GP history window,
/// surrogate mode, kernel exponential mode, layer-memo gating and the
/// SWaP constraint.
///
/// [`JobConfig::default`] is the engine's constant defaults;
/// [`JobConfig::from_env`] layers the startup environment on top.
/// Results are bit-identical across `threads` and `layer_memo` values;
/// the other knobs legitimately change the search or its objectives
/// (see [`JobConfig::searches_differently`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobConfig {
    /// Optimizer worker-pool size. `None` = the engine-wide default
    /// (`dse_opt::par::worker_count`: startup `AUTOPILOT_THREADS`, else
    /// hardware parallelism).
    pub threads: Option<usize>,
    /// Exact-GP history window cap for GP-based optimizers; `None` =
    /// the optimizer's built-in default.
    pub gp_window: Option<usize>,
    /// Surrogate mode for GP-based optimizers; `None` = the optimizer's
    /// built-in default ([`SurrogateMode::default_sparse`]).
    pub surrogate: Option<SurrogateMode>,
    /// Kernel exponential mode for GP-based optimizers; `None` = the
    /// optimizer's built-in default ([`KernelExpMode::Exact`]).
    pub exp_mode: Option<KernelExpMode>,
    /// Whether layer simulations go through the layer memo.
    pub layer_memo: bool,
    /// Whether compute weight is enforced as an airframe SWaP constraint
    /// ([`SwapMode::Constraint`]) or ignored (legacy scalar-payload
    /// mode, the default).
    pub swap: SwapMode,
}

impl JobConfig {
    /// The startup-environment knobs: `AUTOPILOT_GP_SPARSE`,
    /// `AUTOPILOT_GP_FASTEXP`, `AUTOPILOT_LAYER_MEMO` and
    /// `AUTOPILOT_SWAP` as captured on first read (later mutations
    /// of the live environment warn once and are ignored). This is the
    /// only library function that reads them; call it at the edge and
    /// pass the result down.
    pub fn from_env() -> JobConfig {
        JobConfig {
            surrogate: Some(SurrogateMode::from_env()),
            exp_mode: Some(KernelExpMode::from_env()),
            layer_memo: LayerMemo::env_default_enabled(),
            swap: SwapMode::from_env(),
            ..JobConfig::default()
        }
    }

    /// Pins the optimizer worker count (bit-identical results at any
    /// value).
    pub fn with_threads(mut self, n: usize) -> JobConfig {
        self.threads = Some(n.max(1));
        self
    }

    /// Caps the exact-GP history window.
    pub fn with_gp_window(mut self, n: usize) -> JobConfig {
        self.gp_window = Some(n);
        self
    }

    /// Pins the surrogate mode.
    pub fn with_surrogate(mut self, mode: SurrogateMode) -> JobConfig {
        self.surrogate = Some(mode);
        self
    }

    /// Pins the kernel exponential mode.
    pub fn with_exp_mode(mut self, mode: KernelExpMode) -> JobConfig {
        self.exp_mode = Some(mode);
        self
    }

    /// Switches the layer memo on or off for this job.
    pub fn with_layer_memo(mut self, enabled: bool) -> JobConfig {
        self.layer_memo = enabled;
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
    /// holds, keyed by scenario alone. Every result-changing knob
    /// counts: the GP window, surrogate and kernel exponential modes
    /// steer the search, and the SWaP constraint makes objectives depend
    /// on the UAV's airframe. Threads and the memo never change
    /// results.
    pub fn searches_differently(&self) -> bool {
        // Destructured so that a new knob cannot be added without
        // deciding here whether it changes results.
        let JobConfig { threads: _, gp_window, surrogate, exp_mode, layer_memo: _, swap } = *self;
        gp_window.is_some()
            || surrogate.is_some_and(|m| m != SurrogateMode::default_sparse())
            || exp_mode.is_some_and(|m| m != KernelExpMode::default())
            || swap.is_on()
    }
}

impl Default for JobConfig {
    /// The engine's constant defaults: optimizer-default threads, GP
    /// window, surrogate and exponential modes; layer memo on; the SWaP
    /// constraint off. Reads no environment.
    fn default() -> JobConfig {
        JobConfig {
            threads: None,
            gp_window: None,
            surrogate: None,
            exp_mode: None,
            layer_memo: true,
            swap: SwapMode::Off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_override_env_defaults() {
        let cfg = JobConfig::from_env()
            .with_threads(3)
            .with_gp_window(128)
            .with_surrogate(SurrogateMode::Exact)
            .with_exp_mode(KernelExpMode::Fast)
            .with_layer_memo(false)
            .with_swap(SwapMode::Constraint);
        assert_eq!(cfg.threads, Some(3));
        assert_eq!(cfg.effective_threads(), 3);
        assert_eq!(cfg.gp_window, Some(128));
        assert_eq!(cfg.surrogate, Some(SurrogateMode::Exact));
        assert_eq!(cfg.exp_mode, Some(KernelExpMode::Fast));
        assert!(!cfg.layer_memo);
        assert_eq!(cfg.swap, SwapMode::Constraint);
    }

    #[test]
    fn thread_count_is_floored_at_one() {
        assert_eq!(JobConfig::from_env().with_threads(0).threads, Some(1));
        assert!(JobConfig::from_env().effective_threads() >= 1);
    }

    #[test]
    fn defaults_search_like_the_pipeline_cache() {
        assert!(!JobConfig::default().searches_differently());
        // Pinning a knob to its default value keeps the cached search;
        // threads and the memo never change results.
        let same = JobConfig::default()
            .with_threads(3)
            .with_surrogate(SurrogateMode::default_sparse())
            .with_exp_mode(KernelExpMode::Exact)
            .with_layer_memo(false)
            .with_swap(SwapMode::Off);
        assert!(!same.searches_differently());
        for job in [
            JobConfig::default().with_gp_window(128),
            JobConfig::default().with_surrogate(SurrogateMode::Exact),
            JobConfig::default().with_exp_mode(KernelExpMode::Fast),
            JobConfig::default().with_swap(SwapMode::Constraint),
        ] {
            assert!(job.searches_differently(), "{job:?}");
        }
    }
}
