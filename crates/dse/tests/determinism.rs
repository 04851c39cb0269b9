//! Cross-cutting guarantees of the parallel evaluation engine: for a
//! fixed seed, every optimizer produces bit-identical results at any
//! worker count.

// Helpers shared across #[test] fns fall outside `allow-unwrap-in-tests`.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use autopilot_obs as obs;
use dse_opt::{
    AnnealingOptimizer, DesignSpace, EvalError, Evaluator, MultiObjectiveOptimizer, Nsga2Optimizer,
    OptimizationResult, RandomSearch, SmsEgoOptimizer,
};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes this file's tests: the acquisition-counter test reads
/// process-global obs counters, which a concurrent run would bump.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A three-objective bowl with competing minima — enough structure that
/// the optimizers actually take different trajectories if anything about
/// evaluation order or caching leaks into their decisions.
struct Bowl;

impl Evaluator for Bowl {
    fn num_objectives(&self) -> usize {
        3
    }
    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
        let x = point[0] as f64 / 7.0;
        let y = point[1] as f64 / 7.0;
        let z = point[2] as f64 / 7.0;
        Ok(vec![
            (x - 0.2).powi(2) + 0.3 * y,
            (y - 0.8).powi(2) + 0.1 * z,
            (z - 0.5).powi(2) + 0.2 * x,
        ])
    }
    fn reference_point(&self) -> Vec<f64> {
        vec![2.0, 2.0, 2.0]
    }
}

fn space() -> DesignSpace {
    DesignSpace::new(vec![8, 8, 8]).expect("valid space")
}

fn run_all(threads: usize) -> [OptimizationResult; 4] {
    let space = space();
    [
        SmsEgoOptimizer::new(13).with_threads(threads).run(&space, &Bowl, 28).unwrap(),
        Nsga2Optimizer::new(13)
            .with_population(8)
            .with_threads(threads)
            .run(&space, &Bowl, 40)
            .unwrap(),
        RandomSearch::new(13).with_threads(threads).run(&space, &Bowl, 32).unwrap(),
        // Annealing evaluates one point per step and has no thread
        // builder; it is pinned here so a change to its memo, its
        // restarts or its acceptance ranges fails a golden.
        AnnealingOptimizer::new(13).run(&space, &Bowl, 40).unwrap(),
    ]
}

/// FNV-1a over a byte slice, for order-sensitive run fingerprints.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// An order-sensitive digest of every evaluated point and the exact bit
/// patterns of every objective value, so any change to the sampling
/// stream, the evaluation order, or the arithmetic shows up.
fn fingerprint(result: &OptimizationResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for ev in &result.evaluations {
        for &idx in &ev.point {
            h = fnv(h, &(idx as u64).to_le_bytes());
        }
        for &obj in &ev.objectives {
            h = fnv(h, &obj.to_bits().to_le_bytes());
        }
    }
    h
}

/// Baked golden values for the Phase-2 optimizer runs above, generated
/// with the in-repo `autopilot-rng` (ChaCha12) streams. These pin the
/// exact sampling sequences: a change to the RNG, to stream derivation,
/// or to any optimizer's draw order fails this test at every thread
/// count, not just relative to another thread count.
/// To regenerate after an intentional RNG or optimizer change, set any
/// fingerprint to `0` and rerun with `-- --nocapture`: the test prints
/// the replacement rows instead of asserting.
const GOLDENS: [(&str, u64, u64); 4] = [
    ("sms-ego-bo", 0x9234_da32_9078_1113, 0x401f_24ba_93dc_2ddc),
    ("nsga-ii", 0x01ac_3198_a68a_222a, 0x401e_e2ea_2006_43fa),
    ("random-search", 0x6a7a_3d2f_7d74_b561, 0x401e_ac8f_9339_88eb),
    ("simulated-annealing", 0x57d3_5e34_dc29_d72e, 0x401e_31e1_c028_ed00),
];

#[test]
fn phase2_goldens_hold_at_every_thread_count() {
    let _serial = serial();
    for threads in [1usize, 2, 8] {
        let results = run_all(threads);
        for (r, (algorithm, fp, hv_bits)) in results.iter().zip(GOLDENS) {
            if fp == 0 {
                eprintln!(
                    "golden: (\"{}\", 0x{:016x}, 0x{:016x}),",
                    r.algorithm,
                    fingerprint(r),
                    r.final_hypervolume().to_bits()
                );
                continue;
            }
            assert_eq!(r.algorithm, algorithm, "optimizer order changed");
            assert_eq!(
                fingerprint(r),
                fp,
                "{algorithm} evaluation stream diverged from golden at {threads} threads"
            );
            assert_eq!(
                r.final_hypervolume().to_bits(),
                hv_bits,
                "{algorithm} final hypervolume diverged from golden at {threads} threads"
            );
        }
    }
}

#[test]
fn optimizers_bit_identical_across_thread_counts() {
    let _serial = serial();
    let base = run_all(1);
    for threads in [2, 3, 8] {
        let got = run_all(threads);
        for (b, g) in base.iter().zip(&got) {
            assert_eq!(b, g, "{} diverged at {threads} threads", b.algorithm);
        }
    }
}

/// A two-objective trade-off over a 16-level cube, with values in
/// `[0, 1.5]`, except at points that adjoin no point evaluated before
/// them: there both objectives read 1000. A walk that moves one step at a
/// time lands on such a point only by a restart, so every restart that
/// lands away from the walk lands far outside its objective ranges.
struct Jumps {
    /// Points evaluated so far, and how many of them were far.
    seen: Mutex<(Vec<Vec<usize>>, usize)>,
}

impl Evaluator for Jumps {
    fn num_objectives(&self) -> usize {
        2
    }
    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
        let mut seen = self.seen.lock().unwrap();
        let adjoins =
            |p: &Vec<usize>| p.iter().zip(point).map(|(&a, &b)| a.abs_diff(b)).sum::<usize>() <= 1;
        let far = !seen.0.is_empty() && !seen.0.iter().any(adjoins);
        seen.0.push(point.to_vec());
        if far {
            seen.1 += 1;
            return Ok(vec![1000.0; 2]);
        }
        let [x, y, z] = [0, 1, 2].map(|d| point[d] as f64 / 15.0);
        Ok(vec![x + 0.5 * (z - 0.5) * (z - 0.5), (1.0 - x) * (1.0 - x) + 0.5 * y])
    }
    fn reference_point(&self) -> Vec<f64> {
        vec![2000.0; 2]
    }
}

/// Golden over annealing runs on [`Jumps`] at seeds 0–7, budget 80: one
/// order-sensitive digest of every run's evaluation stream. Annealing
/// normalizes its Chebyshev energies by ranges that the first point and
/// the proposals widen, but not the restarts; a restart that also
/// widened them would squash every later energy difference on this
/// problem and steer the walk, failing here. Regenerate like
/// [`GOLDENS`]: set the digest to `0` and rerun with `-- --nocapture`.
const ANNEALING_JUMPS_GOLDEN: u64 = 0x0c01_644a_a022_df42;

#[test]
fn annealing_restarts_leave_the_acceptance_ranges_alone() {
    let space = DesignSpace::new(vec![16, 16, 16]).unwrap();
    let (mut digest, mut far) = (0xcbf2_9ce4_8422_2325u64, 0);
    for seed in 0..8 {
        let problem = Jumps { seen: Mutex::new((Vec::new(), 0)) };
        let r = AnnealingOptimizer::new(seed).run(&space, &problem, 80).unwrap();
        digest = fnv(digest, &fingerprint(&r).to_le_bytes());
        far += problem.seen.lock().unwrap().1;
    }
    assert!(far > 0, "no restart landed away from the walk");
    if ANNEALING_JUMPS_GOLDEN == 0 {
        eprintln!("golden: 0x{digest:016x}");
        return;
    }
    assert_eq!(digest, ANNEALING_JUMPS_GOLDEN, "annealing evaluation streams diverged");
}

/// A longer SMS-EGO run that exercises every surrogate-maintenance path
/// the acquisition side caches against: rank-1 extends and retargets
/// across several milestone refits, and the exact-to-sparse switch
/// (sparse past 48 points, 16 inducing). The fingerprint was generated
/// before the cross-iteration column cache existed, so it pins that the
/// cache reproduces uncached scoring bit for bit. Regenerate like
/// [`GOLDENS`]: set the fingerprint to `0` and rerun with
/// `-- --nocapture`.
const CACHE_GOLDENS: [(&str, u64, u64); 1] =
    [("sparse-switch", 0xa8e2_6b9b_1e0e_951a, 0x401f_3bce_2218_522d)];

fn cache_golden_runs(threads: usize) -> [OptimizationResult; 1] {
    [SmsEgoOptimizer::new(21)
        .with_surrogate_mode(dse_opt::SurrogateMode::Sparse { threshold: 48, inducing: 16 })
        .with_threads(threads)
        .run(&space(), &Bowl, 96)
        .unwrap()]
}

#[test]
fn column_cache_goldens_hold_at_every_thread_count() {
    let _serial = serial();
    for threads in [1usize, 2, 8] {
        let results = cache_golden_runs(threads);
        for (r, (label, fp, hv_bits)) in results.iter().zip(CACHE_GOLDENS) {
            if fp == 0 {
                eprintln!(
                    "golden: (\"{label}\", 0x{:016x}, 0x{:016x}),",
                    fingerprint(r),
                    r.final_hypervolume().to_bits()
                );
                continue;
            }
            assert_eq!(
                fingerprint(r),
                fp,
                "{label} evaluation stream diverged from golden at {threads} threads"
            );
            assert_eq!(
                r.final_hypervolume().to_bits(),
                hv_bits,
                "{label} final hypervolume diverged from golden at {threads} threads"
            );
        }
    }
}

/// The bounded exact acquisition's counters: candidates bounded, solved
/// and pruned, and exact scores.
const ACQUISITION_COUNTERS: [&str; 6] = [
    "bo.acquisition.bounded",
    "bo.acquisition.solved",
    "bo.acquisition.pruned",
    "bo.acquisition.score_pruned",
    "bo.acquisition.subset_pruned",
    "bo.hv.incremental",
];

/// Which candidates the exact acquisition bounds, solves and prunes, and
/// at which tier, does not depend on the worker count: the counters of
/// the golden SMS-EGO run and of the sparse-switch cache-golden run are
/// identical at 1, 2 and 8 threads, and the ladder prunes something.
#[test]
fn acquisition_counters_hold_at_every_thread_count() {
    let _serial = serial();
    obs::force_metrics(true);
    let counts = |threads: usize| {
        let before = obs::snapshot();
        SmsEgoOptimizer::new(13).with_threads(threads).run(&space(), &Bowl, 28).unwrap();
        cache_golden_runs(threads);
        let after = obs::snapshot();
        ACQUISITION_COUNTERS.map(|name| after.counter(name) - before.counter(name))
    };
    let base = counts(1);
    let [bounded, solved, pruned, ..] = base;
    assert_eq!(bounded, solved + pruned, "every bounded candidate is solved or pruned");
    assert!(pruned > 0, "the bound prunes nothing: {base:?}");
    for threads in [2, 8] {
        assert_eq!(counts(threads), base, "acquisition counters diverged at {threads} threads");
    }
}
