//! The `autopilot` binary's argument checks.

#![allow(clippy::expect_used)]

use std::process::Command;

/// A budget past the joint design space is refused before any work,
/// with exit code 1, instead of sizing buffers by it.
#[test]
fn budget_past_the_joint_space_is_rejected() {
    let points = autopilot::JointSpace::size();
    for budget in [points + 1, 1_000_000_000_000] {
        let out = Command::new(env!("CARGO_BIN_EXE_autopilot"))
            .args(["--uav", "nano", "--scenario", "dense", "--budget", &budget.to_string()])
            .output()
            .expect("autopilot runs");
        assert_eq!(out.status.code(), Some(1), "budget {budget}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("exceeds the joint design space"), "budget {budget}: {stderr}");
    }
}

/// An unrecognized `--swap` value is refused with exit code 1 and an
/// error naming the flag.
#[test]
fn bad_swap_value_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_autopilot"))
        .args(["--swap", "sideways"])
        .output()
        .expect("autopilot runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--swap"), "{stderr}");
}

/// `--swap constraint` runs the same job as a library caller that sets
/// the SWaP mode through `JobConfig`.
#[test]
fn swap_flag_matches_a_library_run() {
    use air_sim::ObstacleDensity;
    use autopilot::{
        AutoPilot, AutopilotConfig, JobConfig, OptimizerChoice, RunSummary, SuccessModel, SwapMode,
        TaskSpec,
    };

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_swap_constraint.json");
    let out = Command::new(env!("CARGO_BIN_EXE_autopilot"))
        .args(["--uav", "nano", "--scenario", "low", "--budget", "40", "--seed", "3"])
        .args(["--swap", "constraint", "--json"])
        .arg(&path)
        .output()
        .expect("autopilot runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let written = std::fs::read_to_string(&path).expect("summary written");

    let config = AutopilotConfig {
        seed: 3,
        phase2_budget: 40,
        optimizer: OptimizerChoice::SmsEgo,
        success_model: SuccessModel::Surrogate,
        fine_tuning: true,
    };
    let result = AutoPilot::new(config)
        .with_job_config(JobConfig::default().with_swap(SwapMode::Constraint))
        .run(&uav_dynamics::UavSpec::nano(), &TaskSpec::navigation(ObstacleDensity::Low))
        .expect("pipeline runs");
    let expected = RunSummary::from_result(&result).to_json().expect("serializes");
    assert_eq!(written, expected);
}
