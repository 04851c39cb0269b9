//! One module per table/figure of the paper's evaluation, each exposing a
//! deterministic `run()` that regenerates the exhibit's rows/series as a
//! text report. The `src/bin` binaries are thin wrappers; `repro_all`
//! executes the full set.

pub mod ablations;
pub mod fig11;
pub mod fig2b;
pub mod fig3b;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod frontiers;
pub mod pitfalls;
pub mod table2;
pub mod table3;
pub mod table5;

use air_sim::ObstacleDensity;
use autopilot::{
    AutoPilot, AutopilotConfig, AutopilotResult, DssocEvaluator, JobConfig, PipelineCache, TaskSpec,
};
use std::sync::{Arc, OnceLock};
use uav_dynamics::UavSpec;

/// The seed used by every reproduction experiment.
pub const SEED: u64 = 7;

/// The process-wide pipeline cache shared by every experiment.
///
/// Phases 1 and 2 are UAV-independent and every experiment uses
/// [`AutopilotConfig::paper`]`(`[`SEED`]`)`, so the fig5/table5 sweep
/// (3 UAVs x 3 densities plus 3 more mini-UAV runs) only contains three
/// distinct Phase-2 problems; sharing one cache runs each DSE once.
pub fn shared_cache() -> Arc<PipelineCache> {
    static CACHE: OnceLock<Arc<PipelineCache>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(|| Arc::new(PipelineCache::new())))
}

/// Runs the full AutoPilot pipeline in the paper configuration for one
/// (UAV, scenario) pair with the default job knobs
/// ([`JobConfig::default`]), reusing Phase-1/Phase-2 results through
/// [`shared_cache`].
pub fn run_scenario(uav: &UavSpec, density: ObstacleDensity) -> AutopilotResult {
    let pilot = AutoPilot::new(AutopilotConfig::paper(SEED))
        .with_cache(shared_cache())
        .with_job_config(JobConfig::default());
    pilot.run(uav, &TaskSpec::navigation(density)).expect("paper pipeline runs")
}

/// Runs several (UAV, density) scenarios, fanning the work out across the
/// evaluation engine's worker threads. Results come back in input order
/// and are bit-identical to calling [`run_scenario`] sequentially.
///
/// The distinct densities are warmed first (in parallel) so the per-pair
/// fan-out below never races two copies of the same Phase-2 problem.
pub fn run_scenarios(pairs: &[(UavSpec, ObstacleDensity)]) -> Vec<AutopilotResult> {
    let cache = shared_cache();
    let config = AutopilotConfig::paper(SEED);
    let mut densities: Vec<ObstacleDensity> = Vec::new();
    for (_, d) in pairs {
        if !densities.contains(d) {
            densities.push(*d);
        }
    }
    dse_opt::par::parallel_map(&densities, |_, &density| {
        let db = cache.phase1_database(&config, density);
        let evaluator = DssocEvaluator::new(db, density);
        cache.phase2_output(&config, &evaluator, None).expect("phase 2 warms");
    });
    dse_opt::par::parallel_map(pairs, |_, (uav, density)| run_scenario(uav, *density))
}

/// Short scenario label like `"nano-UAV/dense"`.
pub fn scenario_label(uav: &UavSpec, density: ObstacleDensity) -> String {
    format!("{}/{}", uav.class, density)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_labels() {
        assert_eq!(scenario_label(&UavSpec::nano(), ObstacleDensity::Dense), "nano-UAV/dense");
    }
}
