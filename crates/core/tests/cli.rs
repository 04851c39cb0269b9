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
