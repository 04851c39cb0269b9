//! Command-line front end for the AutoPilot pipeline.
//!
//! ```sh
//! autopilot --uav nano --scenario dense --budget 200 --optimizer bo --seed 7 --json out.json
//! autopilot --list
//! ```

use air_sim::ObstacleDensity;
use autopilot::{
    registry, AutoPilot, AutopilotConfig, JobConfig, JointSpace, OptimizerChoice, RunSummary,
    TaskSpec,
};
use autopilot_obs::{obs_error, obs_info, obs_warn};
use std::process::ExitCode;
use uav_dynamics::UavSpec;

struct Args {
    uav: UavSpec,
    density: ObstacleDensity,
    budget: usize,
    optimizer: OptimizerChoice,
    seed: u64,
    sensor_fps: f64,
    json_path: Option<String>,
}

/// Resolves an `--optimizer` argument: short aliases first, then any
/// name in the runtime optimizer registry (only built-in registry names
/// map onto [`OptimizerChoice`]; others are rejected with the registered
/// list).
fn parse_optimizer(arg: &str) -> Result<OptimizerChoice, String> {
    let resolved = match arg {
        "bo" | "sms-ego" => "sms-ego-bo",
        "ga" | "nsga2" => "nsga-ii",
        "sa" | "annealing" => "simulated-annealing",
        "random" => "random-search",
        other => other,
    };
    OptimizerChoice::ALL.into_iter().find(|c| c.name() == resolved).ok_or_else(|| {
        format!(
            "unknown optimizer '{arg}' (registered: {})",
            registry::registered_optimizers().join(", ")
        )
    })
}

const USAGE: &str = "\
autopilot - automatic domain-specific SoC design for autonomous UAVs

USAGE:
    autopilot [OPTIONS]

OPTIONS:
    --uav <mini|micro|nano>        target platform        [default: nano]
    --scenario <low|medium|dense>  deployment scenario    [default: dense]
    --budget <N>                   phase-2 evaluations, at most the
                                   joint space's size     [default: 200]
    --optimizer <NAME>             phase-2 optimizer by registry name
                                   (bo|ga|sa|random aliases) [default: bo]
    --seed <N>                     deterministic seed     [default: 7]
    --sensor-fps <30|60|...>       camera frame rate      [default: 60]
    --json <PATH>                  also write a JSON run summary
    --list                         list platforms and scenarios, then exit
    --help                         show this help
";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        uav: UavSpec::nano(),
        density: ObstacleDensity::Dense,
        budget: 200,
        optimizer: OptimizerChoice::SmsEgo,
        seed: 7,
        sensor_fps: 60.0,
        json_path: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--list" => {
                for spec in UavSpec::all() {
                    println!(
                        "{:<10} {} ({} mAh, {} g base, TWR {:.1})",
                        format!("{}", spec.class),
                        spec.name,
                        spec.battery_mah,
                        spec.base_weight_g,
                        spec.base_thrust_to_weight
                    );
                }
                println!("scenarios: low, medium, dense");
                return Ok(None);
            }
            "--uav" => {
                args.uav = match value("--uav")?.as_str() {
                    "mini" => UavSpec::mini(),
                    "micro" => UavSpec::micro(),
                    "nano" => UavSpec::nano(),
                    other => return Err(format!("unknown UAV '{other}'")),
                }
            }
            "--scenario" => {
                args.density = match value("--scenario")?.as_str() {
                    "low" => ObstacleDensity::Low,
                    "medium" => ObstacleDensity::Medium,
                    "dense" => ObstacleDensity::Dense,
                    other => return Err(format!("unknown scenario '{other}'")),
                }
            }
            "--budget" => {
                args.budget =
                    value("--budget")?.parse().map_err(|e| format!("bad --budget: {e}"))?;
                let points = JointSpace::size();
                if args.budget as u128 > points {
                    return Err(format!(
                        "--budget {} exceeds the joint design space ({points} points)",
                        args.budget
                    ));
                }
            }
            "--optimizer" => args.optimizer = parse_optimizer(&value("--optimizer")?)?,
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?
            }
            "--sensor-fps" => {
                args.sensor_fps =
                    value("--sensor-fps")?.parse().map_err(|e| format!("bad --sensor-fps: {e}"))?
            }
            "--json" => args.json_path = Some(value("--json")?),
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            obs_error!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let config = AutopilotConfig {
        seed: args.seed,
        phase2_budget: args.budget,
        optimizer: args.optimizer,
        success_model: autopilot::SuccessModel::Surrogate,
        fine_tuning: true,
    };
    let task = TaskSpec::navigation(args.density).with_sensor_fps(args.sensor_fps);
    obs_info!(
        "designing for {} / {} obstacles ({} evaluations, {})...",
        args.uav.name,
        args.density,
        args.budget,
        args.optimizer.name()
    );
    let pilot = AutoPilot::new(config).with_job_config(JobConfig::from_env());
    let result = match pilot.run(&args.uav, &task) {
        Ok(r) => r,
        Err(e) => {
            obs_error!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let summary = RunSummary::from_result(&result);

    match &result.selection {
        Some(sel) => {
            let c = &sel.candidate;
            println!("policy:      {} (success {:.0}%)", c.policy, c.success_rate * 100.0);
            println!(
                "accelerator: {}x{} PEs, {}/{}/{} KB @ {:.0} MHz",
                c.config.rows(),
                c.config.cols(),
                c.config.ifmap_sram_bytes() / 1024,
                c.config.filter_sram_bytes() / 1024,
                c.config.ofmap_sram_bytes() / 1024,
                c.config.clock_mhz()
            );
            println!(
                "compute:     {:.0} FPS, {:.2} W avg / {:.2} W TDP, {:.1} g payload",
                c.fps, c.soc_avg_w, c.tdp_w, c.payload_g
            );
            println!(
                "mission:     {:.2} m/s safe velocity, {:.0} missions per charge ({:?})",
                sel.missions.v_safe_ms, sel.missions.missions, sel.provisioning
            );
        }
        None => {
            obs_warn!(
                "no flyable design: {}",
                result.selection_error.as_deref().unwrap_or("unknown")
            );
        }
    }

    if let Some(path) = args.json_path {
        let json = match summary.to_json() {
            Ok(j) => j,
            Err(e) => {
                obs_error!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        match std::fs::write(&path, json) {
            Ok(()) => obs_info!("wrote {path}"),
            Err(e) => {
                obs_error!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if autopilot_obs::metrics_enabled() {
        let path = std::path::Path::new("results").join("telemetry_autopilot.json");
        match autopilot_obs::snapshot().write_json(&path) {
            Ok(()) => obs_info!("telemetry: {}", path.display()),
            Err(e) => obs_warn!("telemetry write failed: {e}"),
        }
    }
    if result.selection.is_some() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
