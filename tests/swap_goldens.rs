//! Golden-frontier regression tests for the SWaP-constrained pipeline.
//!
//! For each regulatory weight class on its default catalog airframe, the
//! full pipeline runs in [`SwapMode::Constraint`] at a fixed seed and the
//! Phase-2 evaluation stream is fingerprinted (FNV-1a over every point
//! index and the exact bit pattern of every objective, as in
//! `crates/dse/tests/determinism.rs`). The fingerprints are pinned at 1,
//! 2, and 8 optimizer threads, so any change to the sampling stream, the
//! death-penalty arithmetic, or the airframe catalog fails loudly at
//! every thread count. A separate legacy golden pins scalar-payload mode
//! (swap pinned [`SwapMode::Off`] regardless of the environment): the
//! SWaP machinery must leave existing behaviour bit-identical.

// Helpers shared across #[test] fns fall outside `allow-unwrap-in-tests`.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use air_sim::ObstacleDensity;
use autopilot::{
    AutoPilot, AutopilotConfig, AutopilotResult, JobConfig, OptimizerChoice, SwapMode, TaskSpec,
};
use uav_dynamics::{Airframe, UavSpec};

const SEED: u64 = 7;
const BUDGET: usize = 48;

/// The four weight classes on their default catalog airframes (sub-250
/// flies the micro-UAV Table IV spec on the lighter airframe).
fn platforms() -> Vec<(&'static str, UavSpec)> {
    vec![
        ("nano", UavSpec::nano().with_airframe(Airframe::nano())),
        ("sub250", UavSpec::micro().with_airframe(Airframe::sub250())),
        ("micro", UavSpec::micro().with_airframe(Airframe::micro())),
        ("mini", UavSpec::mini().with_airframe(Airframe::mini())),
    ]
}

/// Runs the pipeline with the swap mode and thread count pinned
/// explicitly, so neither depends on the test environment.
fn run(uav: &UavSpec, swap: SwapMode, threads: usize) -> AutopilotResult {
    let config =
        AutopilotConfig::fast(SEED).with_optimizer(OptimizerChoice::Random).with_budget(BUDGET);
    let pilot = AutoPilot::new(config)
        .with_job_config(JobConfig::default().with_swap(swap).with_threads(threads));
    pilot.run(uav, &TaskSpec::navigation(ObstacleDensity::Low)).expect("pipeline runs")
}

/// FNV-1a over a byte slice, for order-sensitive run fingerprints.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Order-sensitive digest of the Phase-2 evaluation stream: every point
/// index and the exact bit pattern of every objective value.
fn fingerprint(result: &AutopilotResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for ev in &result.phase2.result.evaluations {
        for &idx in &ev.point {
            h = fnv(h, &(idx as u64).to_le_bytes());
        }
        for &obj in &ev.objectives {
            h = fnv(h, &obj.to_bits().to_le_bytes());
        }
    }
    h
}

/// Baked goldens: `(class, evaluation-stream fingerprint, final
/// hypervolume bits)` per weight class in constraint mode, plus the
/// legacy scalar-payload stream (which is UAV-independent, so one row
/// pins it for every platform).
/// To regenerate after an intentional change, set a fingerprint to `0`
/// and rerun with `-- --nocapture`: the test prints the replacement rows
/// instead of asserting.
const SWAP_GOLDENS: [(&str, u64, u64); 4] = [
    ("nano", 0xa224_f8ac_cf63_d6e3, 0x4078_de25_32d3_7ce9),
    ("sub250", 0x482f_f5fa_d0fa_dcec, 0x4078_deb2_f8e6_f928),
    // The micro and mini airframes reject nothing at this budget, so
    // their streams coincide with the legacy golden — the death penalty
    // is a no-op when every sampled payload fits.
    ("micro", 0xe341_f4a5_5b75_becb, 0x4078_deb2_f8e6_f928),
    ("mini", 0xe341_f4a5_5b75_becb, 0x4078_deb2_f8e6_f928),
];
const LEGACY_GOLDEN: (u64, u64) = (0xe341_f4a5_5b75_becb, 0x4078_deb2_f8e6_f928);

#[test]
fn swap_frontier_goldens_hold_at_every_thread_count() {
    for threads in [1usize, 2, 8] {
        for ((class, uav), (golden_class, fp, hv_bits)) in platforms().iter().zip(SWAP_GOLDENS) {
            assert_eq!(*class, golden_class, "weight-class order changed");
            let result = run(uav, SwapMode::Constraint, threads);
            if fp == 0 {
                eprintln!(
                    "golden: (\"{}\", 0x{:016x}, 0x{:016x}),",
                    class,
                    fingerprint(&result),
                    result.phase2.result.final_hypervolume().to_bits()
                );
                continue;
            }
            assert_eq!(
                fingerprint(&result),
                fp,
                "{class} SWaP evaluation stream diverged from golden at {threads} threads"
            );
            assert_eq!(
                result.phase2.result.final_hypervolume().to_bits(),
                hv_bits,
                "{class} final hypervolume diverged from golden at {threads} threads"
            );
            let selection = result.selection.as_ref().expect("swap run selects a design");
            let swap = selection.swap.as_ref().expect("constraint mode reports feasibility");
            assert!(swap.feasible(), "{class} selected design must satisfy the SWaP check");
        }
    }
}

#[test]
fn legacy_golden_holds_at_every_thread_count() {
    let (fp, hv_bits) = LEGACY_GOLDEN;
    for threads in [1usize, 2, 8] {
        for (class, uav) in platforms() {
            let result = run(&uav, SwapMode::Off, threads);
            if fp == 0 {
                if threads == 1 && class == "nano" {
                    eprintln!(
                        "golden: (0x{:016x}, 0x{:016x}),",
                        fingerprint(&result),
                        result.phase2.result.final_hypervolume().to_bits()
                    );
                }
                continue;
            }
            // Legacy Phase 2 is UAV-independent: one golden pins all four
            // platforms, proving the airframe cannot leak into scalar mode.
            assert_eq!(
                fingerprint(&result),
                fp,
                "legacy evaluation stream diverged on {class} at {threads} threads"
            );
            assert_eq!(
                result.phase2.result.final_hypervolume().to_bits(),
                hv_bits,
                "legacy hypervolume diverged on {class} at {threads} threads"
            );
            assert!(
                result.selection.as_ref().is_none_or(|s| s.swap.is_none()),
                "legacy mode must not report SWaP feasibility"
            );
        }
    }
}

#[test]
fn swap_penalty_changes_objectives_only_where_infeasible() {
    // Same seed, same optimizer: the sampled point stream is identical in
    // both modes; the death penalty may only rewrite objective values.
    let legacy = run(&platforms()[0].1, SwapMode::Off, 1);
    let swap = run(&platforms()[0].1, SwapMode::Constraint, 1);
    let (le, se) = (&legacy.phase2.result.evaluations, &swap.phase2.result.evaluations);
    assert_eq!(le.len(), se.len());
    let mut penalized = 0usize;
    for (l, s) in le.iter().zip(se) {
        assert_eq!(l.point, s.point, "swap mode must not alter the sampling stream");
        if l.objectives != s.objectives {
            penalized += 1;
        }
    }
    assert!(penalized > 0, "the nano airframe must penalize some heavy candidates");
    assert_ne!(fingerprint(&legacy), fingerprint(&swap));
}
