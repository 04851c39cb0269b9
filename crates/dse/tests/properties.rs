//! Property-based tests for the DSE machinery, driven by seeded
//! `autopilot_rng` case generation (deterministic, no external harness).

// Helpers shared across #[test] fns fall outside `allow-unwrap-in-tests`.
#![allow(clippy::expect_used)]

use autopilot_obs as obs;
use autopilot_rng::Rng;
use dse_opt::linalg::{sq_dist, Matrix};
use dse_opt::pareto::{
    crowding_distance, dominates, hypervolume, hypervolume_contribution,
    inverted_generational_distance, non_dominated_sort, pareto_indices, ContributionScorer,
    IncrementalFront,
};
use dse_opt::{
    AnnealingOptimizer, DesignSpace, EvalError, EvaluationRecord, Evaluator, ExactAcquisition,
    ExhaustiveSearch, GaussianProcess, MultiObjectiveOptimizer, Nsga2Optimizer, OptimizationResult,
    RandomSearch, SmsEgoOptimizer, SparseAcquisition, SparseGaussianProcess,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

const CASES: u64 = 64;

/// Serializes the tests that read process-global obs counters.
static OBS: Mutex<()> = Mutex::new(());

/// 1 to `max_n - 1` points in `[0, 10)^d`.
fn random_points(rng: &mut Rng, max_n: usize, d: usize) -> Vec<Vec<f64>> {
    let n = rng.range_usize(1, max_n);
    (0..n).map(|_| (0..d).map(|_| rng.range_f64(0.0, 10.0)).collect()).collect()
}

struct Weighted;

impl Evaluator for Weighted {
    fn num_objectives(&self) -> usize {
        2
    }
    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
        let x = point[0] as f64 / 15.0;
        let y = point.get(1).copied().unwrap_or(0) as f64 / 15.0;
        Ok(vec![x + 0.2 * y, (1.0 - x) + 0.3 * (1.0 - y)])
    }
    fn reference_point(&self) -> Vec<f64> {
        vec![2.0, 2.0]
    }
}

/// No point on the Pareto front is dominated by any other point.
#[test]
fn pareto_front_is_mutually_nondominated() {
    for case in 0..CASES {
        let mut rng = Rng::seed_stream(0xd5e_0001, case);
        let points = random_points(&mut rng, 24, 3);
        let front = pareto_indices(&points);
        for &i in &front {
            for (j, q) in points.iter().enumerate() {
                if i != j {
                    assert!(!dominates(q, &points[i]) || points[i] == *q, "case {case}");
                }
            }
        }
    }
}

/// Every point belongs to exactly one front of the non-dominated sort,
/// and front ranks respect dominance.
#[test]
fn nds_partitions_points() {
    for case in 0..CASES {
        let mut rng = Rng::seed_stream(0xd5e_0002, case);
        let points = random_points(&mut rng, 20, 2);
        let fronts = non_dominated_sort(&points);
        let mut seen = vec![false; points.len()];
        for front in &fronts {
            for &i in front {
                assert!(!seen[i], "case {case}: point {i} appears twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "case {case}");
        // A point in front k+1 must be dominated by someone in front k.
        for w in fronts.windows(2) {
            for &j in &w[1] {
                assert!(
                    w[0].iter().any(|&i| dominates(&points[i], &points[j])),
                    "case {case}: front ordering violated"
                );
            }
        }
    }
}

/// Hypervolume never decreases when a point is added.
#[test]
fn hypervolume_monotone_in_points() {
    for case in 0..CASES {
        let mut rng = Rng::seed_stream(0xd5e_0003, case);
        let points = random_points(&mut rng, 16, 3);
        let extra: Vec<f64> = (0..3).map(|_| rng.range_f64(0.0, 10.0)).collect();
        let reference = [11.0, 11.0, 11.0];
        let base = hypervolume(&points, &reference);
        let mut more = points.clone();
        more.push(extra);
        assert!(hypervolume(&more, &reference) >= base - 1e-9, "case {case}");
    }
}

/// Hypervolume is bounded by the reference box volume.
#[test]
fn hypervolume_bounded_by_box() {
    for case in 0..CASES {
        let mut rng = Rng::seed_stream(0xd5e_0004, case);
        let points = random_points(&mut rng, 16, 2);
        let reference = [10.5, 10.5];
        let hv = hypervolume(&points, &reference);
        assert!(hv <= 10.5 * 10.5 + 1e-9, "case {case}");
        assert!(hv >= 0.0, "case {case}");
    }
}

/// Crowding distances are non-negative and boundary points infinite.
#[test]
fn crowding_distances_well_formed() {
    for case in 0..CASES {
        let mut rng = Rng::seed_stream(0xd5e_0005, case);
        let points = random_points(&mut rng, 12, 2);
        let idx: Vec<usize> = (0..points.len()).collect();
        let d = crowding_distance(&points, &idx);
        assert_eq!(d.len(), points.len(), "case {case}");
        assert!(d.iter().all(|&x| x >= 0.0), "case {case}");
        if points.len() >= 2 {
            assert!(d.iter().filter(|x| x.is_infinite()).count() >= 2, "case {case}");
        }
    }
}

/// IGD of the exhaustive front against itself is zero; any sampled
/// subset has non-negative IGD.
#[test]
fn igd_properties() {
    let space = DesignSpace::new(vec![16, 16]).unwrap();
    let truth = ExhaustiveSearch::new().run(&space, &Weighted, 10_000).unwrap();
    let truth_front: Vec<Vec<f64>> =
        truth.pareto_front().iter().map(|e| e.objectives.clone()).collect();
    assert_eq!(inverted_generational_distance(&truth_front, &truth_front), 0.0);
    for seed in 0..CASES {
        let sampled = RandomSearch::new(seed).run(&space, &Weighted, 20).unwrap();
        let approx: Vec<Vec<f64>> =
            sampled.pareto_front().iter().map(|e| e.objectives.clone()).collect();
        assert!(inverted_generational_distance(&approx, &truth_front) >= 0.0, "seed {seed}");
    }
}

/// All optimizers respect the budget and never report points outside
/// the space.
#[test]
fn optimizers_respect_budget_and_space() {
    for case in 0..32 {
        let mut rng = Rng::seed_stream(0xd5e_0006, case);
        let seed = rng.next_u64();
        let budget = rng.range_usize(4, 40);
        let space = DesignSpace::new(vec![16, 16]).unwrap();
        let results = [
            RandomSearch::new(seed).run(&space, &Weighted, budget).unwrap(),
            Nsga2Optimizer::new(seed).with_population(6).run(&space, &Weighted, budget).unwrap(),
            AnnealingOptimizer::new(seed).run(&space, &Weighted, budget).unwrap(),
        ];
        for r in results {
            assert!(r.evaluation_count() <= budget, "case {case}: {} over budget", r.algorithm);
            for e in &r.evaluations {
                assert!(space.contains(&e.point), "case {case}");
            }
            // Hypervolume trace is monotone.
            for w in r.hypervolume_trace.windows(2) {
                assert!(w[1] >= w[0] - 1e-12, "case {case}");
            }
        }
    }
}

/// Ascending dot product from `0.0`.
/// [`Weighted`], counting its calls.
#[derive(Default)]
struct Counting(AtomicUsize);

impl Evaluator for Counting {
    fn num_objectives(&self) -> usize {
        2
    }
    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
        self.0.fetch_add(1, Ordering::Relaxed);
        Weighted.evaluate(point)
    }
    fn reference_point(&self) -> Vec<f64> {
        Weighted.reference_point()
    }
}

/// Each of the four samplers at `threads` workers (annealing has no
/// worker knob).
fn samplers(seed: u64, threads: usize) -> [Box<dyn MultiObjectiveOptimizer>; 4] {
    [
        Box::new(SmsEgoOptimizer::new(seed).with_init_samples(4).with_threads(threads)),
        Box::new(Nsga2Optimizer::new(seed).with_population(6).with_threads(threads)),
        Box::new(AnnealingOptimizer::new(seed)),
        Box::new(RandomSearch::new(seed).with_threads(threads)),
    ]
}

/// Every sampler calls the evaluator once per history record, never
/// repeats a point, stays within `min(budget, |space|)`, including at
/// budgets past the space, and records the same history at 1 and 3
/// workers.
#[test]
fn samplers_evaluate_each_point_once_within_the_capped_budget() {
    // SMS-EGO records acquisition counters that other tests read.
    let _obs = OBS.lock().unwrap_or_else(PoisonError::into_inner);
    for case in 0..24 {
        let mut rng = Rng::seed_stream(0xd5e_0015, case);
        let seed = rng.next_u64();
        let dims = rng.range_usize(1, 4);
        let space = DesignSpace::new((0..dims).map(|_| rng.range_usize(1, 6)).collect()).unwrap();
        let size = space.len() as usize;
        // Budgets below a population, within the space and past it.
        let budget = match case % 3 {
            0 => rng.range_usize(1, 8),
            1 => rng.range_usize(1, size + 1),
            _ => rng.range_usize(size, 2 * size + 8),
        };
        let runs = |threads| {
            samplers(seed, threads).map(|mut sampler| {
                let evaluator = Counting::default();
                let result = sampler.run(&space, &evaluator, budget).unwrap();
                (result, evaluator.0.into_inner())
            })
        };
        for ((result, calls), (again, _)) in runs(1).into_iter().zip(runs(3)) {
            let context = format!("case {case}: {} at budget {budget} of {size}", result.algorithm);
            assert_eq!(calls, result.evaluation_count(), "{context}: calls");
            assert!(result.evaluation_count() <= budget.min(size), "{context}: over budget");
            let mut points: Vec<&[usize]> =
                result.evaluations.iter().map(|e| e.point.as_slice()).collect();
            points.sort_unstable();
            points.dedup();
            assert_eq!(points.len(), result.evaluation_count(), "{context}: repeats");
            assert_eq!(result, again, "{context}: 1 vs 3 workers");
        }
    }
}

/// A `usize::MAX` budget is capped at the space: every sampler and
/// exhaustive search return normally on a 12-point space.
#[test]
fn unbounded_budgets_stop_at_the_space() {
    let _obs = OBS.lock().unwrap_or_else(PoisonError::into_inner);
    let space = DesignSpace::new(vec![3, 4]).unwrap();
    let mut optimizers: Vec<Box<dyn MultiObjectiveOptimizer>> = samplers(5, 2).into();
    optimizers.push(Box::new(ExhaustiveSearch::new()));
    for mut optimizer in optimizers {
        let result = optimizer.run(&space, &Weighted, usize::MAX).unwrap();
        assert!(result.evaluation_count() <= 12, "{}", result.algorithm);
        assert!(result.evaluation_count() > 0, "{}", result.algorithm);
    }
}

fn ascending_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
}

/// Squares summed in ascending order from `0.0`.
fn ascending_sumsq(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |acc, w| acc + w * w)
}

/// Sample mean and the floored variance-about-the-mean of `y`, in the
/// GP's documented order.
fn moments(y: &[f64]) -> (f64, f64) {
    let n = y.len() as f64;
    let mean = y.iter().sum::<f64>() / n;
    let centred: Vec<f64> = y.iter().map(|v| v - mean).collect();
    (mean, (centred.iter().map(|v| v * v).sum::<f64>() / n).max(1e-12))
}

/// The squared-exponential kernel.
fn kernel(a: &[f64], b: &[f64], lengthscale_sq: f64) -> f64 {
    (sq_dist(a, b) * (-0.5 / lengthscale_sq)).exp()
}

/// Kernel vector of `point` against `rows`.
fn kernel_column(rows: &[Vec<f64>], point: &[f64], lengthscale_sq: f64) -> Vec<f64> {
    rows.iter().map(|r| kernel(r, point, lengthscale_sq)).collect()
}

/// A test-side exact GP built from the public linear algebra alone: the
/// correlation-form fit, bordered-Cholesky extends, and per-point
/// prediction through one `Matrix::solve_lower` and ascending dots. It
/// shares no prediction code with [`GaussianProcess`].
struct ReferenceGp {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    lengthscale_sq: f64,
    jitter: f64,
    chol: Matrix,
    alpha: Vec<f64>,
    mean_y: f64,
    signal_var: f64,
}

impl ReferenceGp {
    fn fit(x: &[Vec<f64>], y: &[f64], lengthscale_sq: f64) -> ReferenceGp {
        // The relative jitter every GP pins, whatever the targets.
        let jitter = 1e-4;
        let n = x.len();
        let c = Matrix::from_fn(n, n, |i, j| {
            kernel(&x[i], &x[j], lengthscale_sq) + if i == j { jitter } else { 0.0 }
        });
        let chol = c.cholesky().expect("reference factor exists");
        let mut gp = ReferenceGp {
            x: x.to_vec(),
            y: y.to_vec(),
            lengthscale_sq,
            jitter,
            chol,
            alpha: Vec::new(),
            mean_y: 0.0,
            signal_var: 0.0,
        };
        gp.solve_targets();
        gp
    }

    fn extend(&mut self, x_new: &[f64], y_new: f64) {
        let c = kernel_column(&self.x, x_new, self.lengthscale_sq);
        let w = self.chol.solve_lower(&c);
        let d2 = 1.0 + self.jitter - w.iter().map(|v| v * v).sum::<f64>();
        self.chol.extend_lower(&w, d2.sqrt());
        self.x.push(x_new.to_vec());
        self.y.push(y_new);
        self.solve_targets();
    }

    fn solve_targets(&mut self) {
        (self.mean_y, self.signal_var) = moments(&self.y);
        let centred: Vec<f64> = self.y.iter().map(|v| v - self.mean_y).collect();
        self.alpha = self.chol.solve_lower_transpose(&self.chol.solve_lower(&centred));
    }

    fn predict(&self, point: &[f64]) -> (f64, f64) {
        let c = kernel_column(&self.x, point, self.lengthscale_sq);
        let v = self.chol.solve_lower(&c);
        (
            self.mean_y + ascending_dot(&c, &self.alpha),
            (self.signal_var * (1.0 - ascending_sumsq(&v))).max(0.0),
        )
    }
}

/// Batched GP prediction is bit-for-bit identical to an independent
/// per-point reference — means and variances — across random fits,
/// including incrementally extended GPs and pools containing training
/// points.
#[test]
fn predict_batch_bit_identical_to_scalar() {
    for case in 0..CASES {
        let mut rng = Rng::seed_stream(0xd5e_0008, case);
        let d = rng.range_usize(1, 5);
        let n = rng.range_usize(3, 25);
        let xs: Vec<Vec<f64>> =
            (0..n).map(|_| (0..d).map(|_| rng.range_f64(0.0, 1.0)).collect()).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.range_f64(-5.0, 5.0)).collect();
        // Fit on a prefix, then extend point by point: the optimizer
        // predicts from extended GPs, so the extended Cholesky path must
        // be covered too.
        let split = rng.range_usize(2, n + 1).min(n);
        let mut gp = GaussianProcess::fit(&xs[..split], &ys[..split]).expect("fit succeeds");
        let mut reference = ReferenceGp::fit(&xs[..split], &ys[..split], gp.lengthscale_sq());
        for i in split..n {
            assert!(gp.extend(&xs[i], &[ys[i]]), "case {case}: extend rejected point {i}");
            reference.extend(&xs[i], ys[i]);
        }
        // Pool: random queries plus exact training points (variance ~ 0
        // there, exercising the clamp path identically in both code paths).
        let mut pool: Vec<Vec<f64>> = (0..rng.range_usize(1, 40))
            .map(|_| (0..d).map(|_| rng.range_f64(-0.5, 1.5)).collect())
            .collect();
        pool.push(xs[0].clone());
        pool.push(xs[n - 1].clone());
        let batch = gp.predict_batch(&pool);
        assert_eq!(batch.len(), pool.len(), "case {case}");
        for (j, (p, b)) in pool.iter().zip(&batch).enumerate() {
            let b = b[0];
            let (sm, sv) = reference.predict(p);
            assert_eq!(sm.to_bits(), b.0.to_bits(), "case {case}: mean differs at pool[{j}]");
            assert_eq!(sv.to_bits(), b.1.to_bits(), "case {case}: variance differs at pool[{j}]");
        }
    }
}

/// Pushing points in ascending index order into an `IncrementalFront`
/// reproduces `pareto_indices` exactly at every step — membership,
/// order, and the stored points.
#[test]
fn incremental_front_tracks_batch_pareto_indices() {
    for case in 0..CASES {
        let mut rng = Rng::seed_stream(0xd5e_0009, case);
        let d = rng.range_usize(2, 4);
        // Quantize to quarter-steps so duplicates actually occur.
        let points: Vec<Vec<f64>> = (0..rng.range_usize(1, 32))
            .map(|_| (0..d).map(|_| (rng.range_f64(0.0, 4.0) * 4.0).floor() / 4.0).collect())
            .collect();
        let mut front = IncrementalFront::new();
        for (i, p) in points.iter().enumerate() {
            front.push(i, p.clone());
            let expected = pareto_indices(&points[..=i]);
            assert_eq!(front.indices(), &expected[..], "case {case}: after push {i}");
            for (&idx, stored) in front.indices().iter().zip(front.points()) {
                assert_eq!(stored, &points[idx], "case {case}: stored point mismatch");
            }
        }
    }
}

/// Reference hypervolume: batch Pareto filter, then a 2-D sweep or a
/// 3-D slab sweep that re-filters every slab's points from scratch.
/// Slow by design; it is the oracle the production code must match
/// bit for bit.
fn oracle_hypervolume(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    let inside: Vec<Vec<f64>> =
        points.iter().filter(|p| p.iter().zip(reference).all(|(x, r)| x < r)).cloned().collect();
    if inside.is_empty() {
        return 0.0;
    }
    let front: Vec<Vec<f64>> =
        pareto_indices(&inside).into_iter().map(|i| inside[i].clone()).collect();
    match reference.len() {
        1 => reference[0] - front.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min),
        2 => oracle_hv2d(&front, reference),
        _ => oracle_hv3d(&front, reference),
    }
}

fn oracle_hv2d(front: &[Vec<f64>], reference: &[f64]) -> f64 {
    let mut pts: Vec<(f64, f64)> = front.iter().map(|p| (p[0], p[1])).collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut hv = 0.0;
    let mut prev_y = reference[1];
    for (x, y) in pts {
        if y < prev_y {
            hv += (reference[0] - x) * (prev_y - y);
            prev_y = y;
        }
    }
    hv
}

fn oracle_hv3d(front: &[Vec<f64>], reference: &[f64]) -> f64 {
    let mut order: Vec<usize> = (0..front.len()).collect();
    order.sort_by(|&a, &b| front[a][2].total_cmp(&front[b][2]));
    let mut hv = 0.0;
    let mut active: Vec<Vec<f64>> = Vec::new();
    for (rank, &i) in order.iter().enumerate() {
        let z_lo = front[i][2];
        let z_hi = if rank + 1 < order.len() { front[order[rank + 1]][2] } else { reference[2] };
        active.push(vec![front[i][0], front[i][1]]);
        if z_hi > z_lo {
            let ref2 = [reference[0], reference[1]];
            let front2: Vec<Vec<f64>> =
                pareto_indices(&active).into_iter().map(|j| active[j].clone()).collect();
            hv += oracle_hv2d(&front2, &ref2) * (z_hi - z_lo);
        }
    }
    hv
}

/// Reference trace: the hypervolume of every history prefix, rebuilt
/// from scratch.
fn oracle_trace(history: &[Vec<f64>], reference: &[f64]) -> Vec<f64> {
    (1..=history.len()).map(|k| oracle_hypervolume(&history[..k], reference)).collect()
}

/// A seeded history in `d` objectives that exercises every edge of the
/// incremental trace: coordinates quantized to quarter steps (so ties in
/// each coordinate and exact duplicates occur) or left continuous,
/// repeats of earlier points, and points on or beyond the reference
/// (which sits at 3.0 inside the 0..4 sampling range).
fn edge_case_history(rng: &mut Rng, d: usize) -> Vec<Vec<f64>> {
    let quantized = rng.below(4) != 0;
    let mut history: Vec<Vec<f64>> = Vec::new();
    for _ in 0..rng.range_usize(1, 48) {
        let point = if !history.is_empty() && rng.below(6) == 0 {
            history[rng.below(history.len())].clone()
        } else {
            (0..d)
                .map(|_| {
                    let x = rng.range_f64(0.0, 4.0);
                    if quantized {
                        (x * 4.0).floor() / 4.0
                    } else {
                        x
                    }
                })
                .collect()
        };
        history.push(point);
    }
    history
}

/// `hypervolume` (incremental 2-D front per z-slab) is bit-identical to
/// the per-slab batch rebuild in 1, 2 and 3 objectives.
#[test]
fn hypervolume_bit_identical_to_per_slab_rebuild() {
    for case in 0..4 * CASES {
        let mut rng = Rng::seed_stream(0xd5e_000a, case);
        let d = rng.range_usize(1, 4);
        let points = edge_case_history(&mut rng, d);
        let reference = vec![3.0; d];
        let (got, want) =
            (hypervolume(&points, &reference), oracle_hypervolume(&points, &reference));
        assert_eq!(got.to_bits(), want.to_bits(), "case {case} (d={d}): {got} vs {want}");
    }
}

/// `OptimizationResult::from_history` (one incremental front, a
/// hypervolume recomputed only on admission) reproduces the per-prefix
/// rebuild bit for bit at every step, and its Pareto front matches the
/// batch `pareto_indices`.
#[test]
fn from_history_trace_bit_identical_to_per_prefix_rebuild() {
    for case in 0..4 * CASES {
        let mut rng = Rng::seed_stream(0xd5e_000b, case);
        let d = rng.range_usize(1, 4);
        let history = edge_case_history(&mut rng, d);
        let reference = vec![3.0; d];
        let records: Vec<EvaluationRecord> = history
            .iter()
            .enumerate()
            .map(|(i, o)| EvaluationRecord { iteration: i, point: vec![i], objectives: o.clone() })
            .collect();
        let result = OptimizationResult::from_history("oracle", records, reference.clone());
        let want = oracle_trace(&history, &reference);
        assert_eq!(result.hypervolume_trace.len(), want.len(), "case {case}");
        for (i, (got, want)) in result.hypervolume_trace.iter().zip(&want).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "case {case} (d={d}) step {i}: {got} vs {want}"
            );
        }
        assert_eq!(result.pareto_indices(), pareto_indices(&history), "case {case}");
    }
}

/// A smooth synthetic target over the unit cube.
fn smooth_target(p: &[f64]) -> f64 {
    p.iter().enumerate().map(|(i, v)| (v * (1.3 + i as f64 * 0.4)).sin()).sum()
}

/// With the inducing set covering every training input (`m = n`), the
/// DTC sparse posterior coincides with the exact GP posterior at the
/// same lengthscale — means and variances within 1e-5 across random
/// archives and query points.
#[test]
fn sparse_gp_with_full_inducing_matches_exact() {
    for case in 0..CASES {
        let mut rng = Rng::seed_stream(0xd5e_000a, case);
        let n = rng.range_usize(24, 56);
        let d = rng.range_usize(2, 6);
        let x: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| rng.next_f64()).collect()).collect();
        let y: Vec<f64> = x.iter().map(|p| smooth_target(p)).collect();
        let exact = GaussianProcess::fit(&x, &y).expect("exact GP fits");
        let sparse = SparseGaussianProcess::fit_with_lengthscale(&x, &y, exact.lengthscale_sq(), n)
            .expect("sparse GP fits");
        assert_eq!(sparse.inducing_count(), n, "case {case}");
        for _ in 0..8 {
            let q: Vec<f64> = (0..d).map(|_| rng.next_f64()).collect();
            let (em, ev) = exact.predict(&q)[0];
            let (sm, sv) = sparse.predict(&q)[0];
            assert!((em - sm).abs() < 1e-5, "case {case}: mean {em} vs {sm}");
            assert!((ev - sv).abs() < 1e-5, "case {case}: var {ev} vs {sv}");
        }
    }
}

/// A test-side sparse (DTC) GP from the public linear algebra alone:
/// greedy farthest-point inducing selection, the `A = C_mm + λ⁻¹C_nmᵀC_nm`
/// fit, and per-point prediction through the variance form `‖L_Dᵀc‖²`
/// (each entry an ascending sum over `k ≥ i`) or, when `D` does not
/// factor, per-column solves against `L_mm` and `L_A`.
struct ReferenceSparseGp {
    inducing: Vec<Vec<f64>>,
    lengthscale_sq: f64,
    l_mm: Matrix,
    l_a: Matrix,
    l_d: Option<Matrix>,
    w: Vec<f64>,
    mean_y: f64,
    signal_var: f64,
}

impl ReferenceSparseGp {
    fn fit(x: &[Vec<f64>], y: &[f64], lengthscale_sq: f64, m: usize) -> ReferenceSparseGp {
        const RIDGE: f64 = 1e-8;
        let (mean_y, signal_var) = moments(y);
        // The relative noise every GP pins, whatever the targets.
        let noise = 1e-4;
        let mut chosen = vec![0usize];
        let mut min_d: Vec<f64> = x.iter().map(|p| sq_dist(p, &x[0])).collect();
        while chosen.len() < m.clamp(2, x.len()) {
            let (best, best_d) =
                min_d
                    .iter()
                    .enumerate()
                    .fold((0, -1.0), |b, (i, &d)| if d > b.1 { (i, d) } else { b });
            if best_d <= 0.0 {
                break;
            }
            chosen.push(best);
            for (d, p) in min_d.iter_mut().zip(x) {
                *d = d.min(sq_dist(p, &x[best]));
            }
        }
        let inducing: Vec<Vec<f64>> = chosen.iter().map(|&i| x[i].clone()).collect();
        let m = inducing.len();
        let cnm = Matrix::from_fn(x.len(), m, |i, j| kernel(&x[i], &inducing[j], lengthscale_sq));
        let cmm = Matrix::from_fn(m, m, |i, j| {
            kernel(&inducing[i], &inducing[j], lengthscale_sq) + if i == j { RIDGE } else { 0.0 }
        });
        let l_mm = cmm.cholesky().expect("C_mm factors");
        let b = cnm.gram();
        let l_a = Matrix::from_fn(m, m, |i, j| cmm[(i, j)] + b[(i, j)] / noise)
            .cholesky()
            .expect("A factors");
        let gx = l_mm.invert_lower().gram();
        let gy = l_a.invert_lower().gram();
        let l_d = Matrix::from_fn(m, m, |i, j| {
            gx[(i, j)] - gy[(i, j)] + if i == j { RIDGE } else { 0.0 }
        })
        .cholesky();
        let centred: Vec<f64> = y.iter().map(|v| v - mean_y).collect();
        let t = cnm.transpose_mul_vec(&centred);
        let w = l_a
            .solve_lower_transpose(&l_a.solve_lower(&t))
            .into_iter()
            .map(|v| v / noise)
            .collect();
        ReferenceSparseGp { inducing, lengthscale_sq, l_mm, l_a, l_d, w, mean_y, signal_var }
    }

    fn predict(&self, point: &[f64]) -> (f64, f64) {
        let c = kernel_column(&self.inducing, point, self.lengthscale_sq);
        let mean = ascending_dot(&c, &self.w) + self.mean_y;
        let var = match &self.l_d {
            Some(ld) => {
                let t: Vec<f64> = (0..c.len())
                    .map(|i| (i..c.len()).fold(0.0, |acc, k| acc + ld[(k, i)] * c[k]))
                    .collect();
                self.signal_var * (1.0 - ascending_sumsq(&t))
            }
            None => {
                let q = ascending_sumsq(&self.l_mm.solve_lower(&c));
                let s = ascending_sumsq(&self.l_a.solve_lower(&c));
                self.signal_var * (1.0 - q + s)
            }
        };
        (mean, var.max(0.0))
    }
}

/// A genuinely low-rank sparse posterior (`m < n`) stays well-formed on
/// random archives: finite means, variances in `[0, signal cap]`, and
/// the batched path bit-identical to an independent per-point
/// reference.
#[test]
fn sparse_gp_low_rank_is_well_formed_and_batch_consistent() {
    for case in 0..CASES {
        let mut rng = Rng::seed_stream(0xd5e_000b, case);
        let n = rng.range_usize(32, 72);
        let d = rng.range_usize(2, 6);
        let m = rng.range_usize(8, 24);
        let x: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| rng.next_f64()).collect()).collect();
        let y: Vec<f64> = x.iter().map(|p| smooth_target(p)).collect();
        let sparse = SparseGaussianProcess::fit(&x, &y, m).expect("sparse GP fits");
        assert!(sparse.inducing_count() <= m, "case {case}");
        let reference = ReferenceSparseGp::fit(&x, &y, sparse.lengthscale_sq(), m);
        assert_eq!(reference.inducing.len(), sparse.inducing_count(), "case {case}");
        let pool: Vec<Vec<f64>> =
            (0..16).map(|_| (0..d).map(|_| rng.next_f64()).collect()).collect();
        let batch = sparse.predict_batch(&pool);
        let spread = y.iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v))
            - y.iter().fold(f64::INFINITY, |a, &v| a.min(v));
        for (q, preds) in pool.iter().zip(&batch) {
            let (bm, bv) = preds[0];
            let (sm, sv) = reference.predict(q);
            assert_eq!(sm.to_bits(), bm.to_bits(), "case {case}: batched mean differs");
            assert_eq!(sv.to_bits(), bv.to_bits(), "case {case}: batched var differs");
            assert!(sm.is_finite(), "case {case}");
            assert!(sv >= 0.0 && sv.is_finite(), "case {case}");
            // Posterior mean stays within the observed target range
            // padded by its spread — the prior mean is the average
            // target, so a sane posterior cannot run away from it.
            let lo = y.iter().fold(f64::INFINITY, |a, &v| a.min(v)) - spread;
            let hi = y.iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v)) + spread;
            assert!(sm >= lo && sm <= hi, "case {case}: mean {sm} outside [{lo}, {hi}]");
        }
    }
}

/// Single-point prediction tracks the batched prediction through any
/// sequence of extends and retargets: after every step each pool point,
/// predicted alone, gets exactly what `predict_batch` over the whole
/// pool gives it.
///
/// Beside the shared-factor pack runs one separately fitted
/// single-objective GP per objective, and after every step the pack
/// predicts bit for bit what its members do; a sparse pack and its
/// members then run the same way through extends and retargets. The
/// relative noise depends on no target, so every member's factor equals
/// the pack's, and sharing it changes no result.
#[test]
fn predictions_track_predict_batch_through_extends_and_retargets() {
    for case in 0..CASES / 2 {
        let mut rng = Rng::seed_stream(0xd5e_000d, case);
        let d = rng.range_usize(2, 5);
        let n_obj = rng.range_usize(1, 4);
        let n0 = rng.range_usize(3, 12);
        let draw = |rng: &mut Rng| -> Vec<f64> { (0..d).map(|_| rng.next_f64()).collect() };
        let mut xs: Vec<Vec<f64>> = (0..n0).map(|_| draw(&mut rng)).collect();
        let target = |rng: &mut Rng, xs: &[Vec<f64>]| -> Vec<f64> {
            let shift = rng.range_f64(-1.0, 1.0);
            xs.iter().map(|p| smooth_target(p) + shift * p[0]).collect()
        };
        let ls = rng.range_f64(0.05, 0.8);
        let mut ys: Vec<Vec<f64>> = (0..n_obj).map(|_| target(&mut rng, &xs)).collect();
        let mut pack = GaussianProcess::fit_pack(&xs, &ys, ls).expect("fits");
        let mut members: Vec<GaussianProcess> = ys
            .iter()
            .map(|y| GaussianProcess::fit_with_lengthscale(&xs, y, ls).expect("fits"))
            .collect();
        let mut pool: Vec<Vec<f64>> = (0..rng.range_usize(1, 70)).map(|_| draw(&mut rng)).collect();
        pool.push(xs[0].clone());
        let alone: Vec<_> = members.iter().map(|gp| gp.predict_batch(&pool)).collect();
        assert_pack_matches_members(
            &pack.predict_batch(&pool),
            &alone,
            &format!("case {case} exact fit"),
        );
        for step in 0..rng.range_usize(1, 10) {
            let context = format!("case {case} step {step}");
            if rng.next_f64() < 0.6 {
                let x = draw(&mut rng);
                let new: Vec<f64> = ys.iter().map(|y| y[0] + x[1]).collect();
                let accepted = pack.extend(&x, &new);
                for (gp, &y) in members.iter_mut().zip(&new) {
                    assert_eq!(gp.extend(&x, &[y]), accepted, "{context}: member extend");
                }
                if !accepted {
                    continue;
                }
                for (y, v) in ys.iter_mut().zip(new) {
                    y.push(v);
                }
                xs.push(x);
            } else {
                let obj = rng.range_usize(0, n_obj);
                ys[obj] = target(&mut rng, &xs);
                assert!(pack.retarget(&ys), "{context}: retarget");
                let y = std::slice::from_ref(&ys[obj]);
                assert!(members[obj].retarget(y), "{context}: member retarget");
            }
            if rng.next_f64() < 0.3 {
                pool.push(draw(&mut rng));
            }
            let want = pack.predict_batch(&pool);
            for (j, p) in pool.iter().enumerate() {
                for (o, (m, v)) in pack.predict(p).into_iter().enumerate() {
                    let (wm, wv) = want[j][o];
                    assert_eq!(
                        (m.to_bits(), v.to_bits()),
                        (wm.to_bits(), wv.to_bits()),
                        "{context}: objective {o}, pool[{j}]"
                    );
                }
            }
            let alone: Vec<_> = members.iter().map(|gp| gp.predict_batch(&pool)).collect();
            assert_pack_matches_members(&want, &alone, &context);
        }

        let m = rng.range_usize(3, 12);
        let mut sparse =
            SparseGaussianProcess::fit_pack(&xs, &ys, ls, m).expect("sparse pack fits");
        let mut members: Vec<SparseGaussianProcess> = ys
            .iter()
            .map(|y| SparseGaussianProcess::fit_with_lengthscale(&xs, y, ls, m).expect("fits"))
            .collect();
        let alone: Vec<_> = members.iter().map(|gp| gp.predict_batch(&pool)).collect();
        assert_pack_matches_members(
            &sparse.predict_batch(&pool),
            &alone,
            &format!("case {case} sparse fit"),
        );
        for step in 0..rng.range_usize(1, 10) {
            let context = format!("case {case} sparse step {step}");
            if rng.next_f64() < 0.6 {
                let x = draw(&mut rng);
                let new: Vec<f64> = ys.iter().map(|y| y[0] + x[1]).collect();
                let accepted = sparse.extend(&x, &new);
                for (gp, &y) in members.iter_mut().zip(&new) {
                    assert_eq!(gp.extend(&x, &[y]), accepted, "{context}: member extend");
                }
                if accepted {
                    for (y, v) in ys.iter_mut().zip(new) {
                        y.push(v);
                    }
                    xs.push(x);
                }
            } else {
                let obj = rng.range_usize(0, n_obj);
                ys[obj] = target(&mut rng, &xs);
                assert!(sparse.retarget(&ys), "{context}: retarget");
                let y = std::slice::from_ref(&ys[obj]);
                assert!(members[obj].retarget(y), "{context}: member retarget");
            }
            let alone: Vec<_> = members.iter().map(|gp| gp.predict_batch(&pool)).collect();
            assert_pack_matches_members(&sparse.predict_batch(&pool), &alone, &context);
        }
    }
}

/// A pack's batched predictions against those of one separately fitted
/// single-objective GP per objective (`members[o][j]` is member `o`'s
/// prediction at `pool[j]`), bit for bit.
fn assert_pack_matches_members(
    pack: &[Vec<(f64, f64)>],
    members: &[Vec<Vec<(f64, f64)>>],
    context: &str,
) {
    for (j, point) in pack.iter().enumerate() {
        assert_eq!(point.len(), members.len(), "{context}: objectives at pool[{j}]");
        for (o, (m, v)) in point.iter().enumerate() {
            let (wm, wv) = members[o][j][0];
            assert_eq!(
                (m.to_bits(), v.to_bits()),
                (wm.to_bits(), wv.to_bits()),
                "{context}: pack vs member {o}, pool[{j}]"
            );
        }
    }
}

/// A random exact surrogate pack over `[0, 1)^d` with targets normalized
/// to `[0, 1]` per objective (as the optimizer trains them), and its
/// training inputs.
fn random_pack(
    rng: &mut Rng,
    d: usize,
    n_obj: usize,
    n: usize,
) -> (GaussianProcess, Vec<Vec<f64>>) {
    let xs: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| rng.next_f64()).collect()).collect();
    let ls = rng.range_f64(0.02, 0.8);
    let ys: Vec<Vec<f64>> = (0..n_obj)
        .map(|_| {
            let shift = rng.range_f64(-1.0, 1.0);
            let raw: Vec<f64> = xs.iter().map(|p| smooth_target(p) + shift * p[0]).collect();
            let (lo, hi) = raw
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            raw.iter().map(|v| (v - lo) / (hi - lo).max(1e-12)).collect()
        })
        .collect();
    let pack = GaussianProcess::fit_pack(&xs, &ys, ls).expect("fits");
    (pack, xs)
}

/// A candidate pool whose scores crowd together: random draws, training
/// points nudged by up to `1e-2` (where the variance bound is nearly
/// tight), and a tight cluster around one random centre.
fn crowded_pool(rng: &mut Rng, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let d = xs[0].len();
    let nudge = |rng: &mut Rng, p: &[f64], r: f64| -> Vec<f64> {
        p.iter().map(|v| v + rng.range_f64(-r, r)).collect()
    };
    let mut pool: Vec<Vec<f64>> =
        (0..rng.range_usize(1, 50)).map(|_| (0..d).map(|_| rng.next_f64()).collect()).collect();
    for _ in 0..rng.range_usize(0, 50) {
        let base = &xs[rng.range_usize(0, xs.len())];
        pool.push(nudge(rng, base, 1e-2));
    }
    let centre: Vec<f64> = (0..d).map(|_| rng.next_f64()).collect();
    for _ in 0..rng.range_usize(0, 30) {
        pool.push(nudge(rng, &centre, 1e-3));
    }
    pool
}

/// A random normalized Pareto front on a coarse grid, so coordinate ties
/// are common; empty in about one case in eight.
fn random_front(rng: &mut Rng, n_obj: usize) -> Vec<Vec<f64>> {
    if rng.next_f64() < 0.125 {
        return Vec::new();
    }
    let grid = |rng: &mut Rng| rng.range_usize(0, 12) as f64 / 10.0;
    let points: Vec<Vec<f64>> =
        (0..rng.range_usize(1, 24)).map(|_| (0..n_obj).map(|_| grid(rng)).collect()).collect();
    pareto_indices(&points).into_iter().map(|i| points[i].clone()).collect()
}

/// The SMS-EGO score of `point` through a fresh per-point prediction:
/// the test-side full-scoring reference for [`ExactAcquisition`].
fn reference_score(pack: &GaussianProcess, scorer: &ContributionScorer, point: &[f64]) -> f64 {
    let lcb: Vec<f64> = pack.predict(point).into_iter().map(|(m, v)| m - v.sqrt()).collect();
    scorer.score(&lcb, 1e-3)
}

/// First maximum in pool order, as full scoring picks it.
fn reference_pick(pack: &GaussianProcess, scorer: &ContributionScorer, pool: &[Vec<f64>]) -> usize {
    let mut best: Option<(f64, usize)> = None;
    for (j, p) in pool.iter().enumerate() {
        let score = reference_score(pack, scorer, p);
        if best.is_none_or(|(s, _)| score > s) {
            best = Some((score, j));
        }
    }
    best.expect("non-empty pool").1
}

/// Both tiers of the acquisition's bound ladder — optimistic score and
/// subset, each with exact means and no `n`-row solve — are never below
/// the exact score, and the subset tier is at most the score tier, for random
/// packs, fronts (with coordinate ties, and empty) and candidates
/// (including training points, where the variance bounds are tightest).
#[test]
fn acquisition_bound_is_at_least_the_exact_score() {
    for case in 0..4 * CASES {
        let mut rng = Rng::seed_stream(0xd5e_0010, case);
        let (d, n_obj) = (rng.range_usize(2, 5), rng.range_usize(1, 4));
        let n = rng.range_usize(3, 20);
        let (pack, xs) = random_pack(&mut rng, d, n_obj, n);
        let front = random_front(&mut rng, n_obj);
        let scorer = ContributionScorer::new(&front, &vec![1.2; n_obj]);
        let acquisition = ExactAcquisition::new(&pack, &scorer);
        let mut pool = crowded_pool(&mut rng, &xs);
        pool.extend(xs.iter().cloned());
        let corr = pack.cross_correlations(&pool);
        for (j, p) in pool.iter().enumerate() {
            let column: Vec<f64> = (0..corr.rows()).map(|i| corr[(i, j)]).collect();
            let exact = reference_score(&pack, &scorer, p);
            let slack = 1e-12 * exact.abs().max(1.0);
            let bounds = acquisition.bounds(&column);
            assert_eq!(acquisition.bound(&column).to_bits(), bounds[0].to_bits());
            for (tier, &bound) in bounds.iter().enumerate() {
                assert!(
                    bound >= exact - slack,
                    "case {case}, pool[{j}]: tier {tier} bound {bound} < exact {exact}"
                );
            }
            assert!(
                bounds[0] >= bounds[1] - slack,
                "case {case}, pool[{j}]: tiers {bounds:?} do not tighten"
            );
        }
    }
}

/// The scorer's contribution, summed over its partition of the
/// non-dominated region, matches `hypervolume_contribution` (the
/// clip-and-sweep definition) within 1e-12 of the candidate's box volume,
/// the scale both compute at, in one, two and three objectives. Fronts
/// are Pareto-filtered or raw (dominated members included), on a coarse
/// grid (coordinate ties) or continuous, with members on and past the
/// reference. Candidates lie on the grid, between it, below the front's
/// ideal point, on front members and outside the reference. A weakly
/// dominated or outside-reference candidate scores exactly `0`, and
/// every partition has at most `2·|front| + 1` boxes.
#[test]
fn partition_contribution_matches_the_clipped_sweep() {
    for case in 0..4 * CASES {
        let mut rng = Rng::seed_stream(0xd5e_0012, case);
        let n_obj = 1 + (case % 3) as usize;
        let reference = vec![1.2; n_obj];
        let grid = case % 2 == 0;
        let coord = |rng: &mut Rng| {
            if grid {
                rng.range_usize(0, 14) as f64 / 10.0
            } else {
                rng.range_f64(0.0, 1.4)
            }
        };
        let raw: Vec<Vec<f64>> = (0..rng.range_usize(0, 32))
            .map(|_| (0..n_obj).map(|_| coord(&mut rng)).collect())
            .collect();
        let front: Vec<Vec<f64>> = if case % 4 < 2 {
            pareto_indices(&raw).into_iter().map(|i| raw[i].clone()).collect()
        } else {
            raw
        };
        let scorer = ContributionScorer::new(&front, &reference);
        assert!(
            scorer.box_count() <= 2 * front.len() + 1,
            "case {case}: {} boxes for {} front points",
            scorer.box_count(),
            front.len()
        );
        let ideal: Vec<f64> =
            (0..n_obj).map(|i| front.iter().map(|f| f[i]).fold(1.0, f64::min)).collect();
        for k in 0..48 {
            let candidate: Vec<f64> = match (k % 4, front.is_empty()) {
                (0, _) => (0..n_obj).map(|_| coord(&mut rng)).collect(),
                (1, _) => (0..n_obj).map(|_| rng.range_f64(-0.2, 1.4)).collect(),
                (2, _) => ideal.iter().map(|v| v - rng.range_f64(0.0, 0.3)).collect(),
                (_, true) => vec![0.5; n_obj],
                (_, false) => front[rng.range_usize(0, front.len())].clone(),
            };
            let want = hypervolume_contribution(&front, &candidate, &reference);
            let got = scorer.contribution(&candidate);
            let volume: f64 =
                candidate.iter().zip(&reference).map(|(c, r)| (r - c).max(0.0)).product();
            assert!(
                (got - want).abs() <= 1e-12 * volume,
                "case {case}: {got} vs {want} for {candidate:?}"
            );
            let dominated = front.iter().any(|f| f.iter().zip(&candidate).all(|(a, c)| a <= c));
            let outside = candidate.iter().zip(&reference).any(|(c, r)| c >= r);
            if dominated || outside {
                assert_eq!(got.to_bits(), 0.0f64.to_bits(), "case {case}: {candidate:?}");
            }
        }
    }
}

/// The subset variance bound is at least every member's exact variance
/// (`p < n`, `p ≥ n`, and training sets with near-duplicate rows), and
/// equals it up to its slack when the subset is every row (targets lie
/// in `[0, 1]`, so `σ² ≤ 1/4`). Where the Cauchy–Schwarz cap is the
/// bound and tight (an isolated training point), it can undercut the
/// solved variance by roundoff, about `1e-16·σ²`.
#[test]
fn subset_variance_bound_is_at_least_the_exact_variance() {
    for case in 0..4 * CASES {
        let mut rng = Rng::seed_stream(0xd5e_0013, case);
        let (d, n_obj) = (rng.range_usize(2, 5), rng.range_usize(1, 4));
        let n = rng.range_usize(3, 40);
        let (mut pack, mut xs) = random_pack(&mut rng, d, n_obj, n);
        if case % 2 == 1 {
            // Near-duplicate rows: nudged copies of training points.
            for _ in 0..rng.range_usize(1, 6) {
                let base = xs[rng.range_usize(0, xs.len())].clone();
                let x: Vec<f64> = base.iter().map(|v| v + rng.range_f64(-1e-4, 1e-4)).collect();
                let y = rng.next_f64();
                if pack.extend(&x, &vec![y; n_obj]) {
                    xs.push(x);
                }
            }
        }
        let mut pool = crowded_pool(&mut rng, &xs);
        pool.extend(xs.iter().cloned());
        let corr = pack.cross_correlations(&pool);
        for (j, p) in pool.iter().enumerate() {
            let column: Vec<f64> = (0..corr.rows()).map(|i| corr[(i, j)]).collect();
            let bounds = pack.subset_variance_bounds(&column);
            let exact = pack.predict(p);
            for (o, (bound, (_, var))) in bounds.into_iter().zip(exact).enumerate() {
                assert!(
                    bound >= var - 1e-14,
                    "case {case}, pool[{j}], member {o}: {bound} < {var}"
                );
                if xs.len() <= 8 {
                    assert!(
                        bound - var <= 1e-8,
                        "case {case}, pool[{j}], member {o}: every row, {bound} vs {var}"
                    );
                }
            }
        }
    }
}

/// The pruned selection picks exactly what full scoring picks, over 256
/// seeds of crowded pools, with a cold column cache and then warm
/// (correlations carried across pack extends and a new front). Kept
/// columns are exactly the `keep`-flagged ones. Often more than eight
/// candidates' bounds reach
/// the best exact score, so stopping after one round would be caught,
/// and both the score and the subset tier prune candidates.
#[test]
fn pruned_selection_matches_full_scoring() {
    // Only the tests holding `OBS` run the acquisitions, so these
    // counters move only here.
    let _obs = OBS.lock().unwrap_or_else(PoisonError::into_inner);
    obs::force_metrics(true);
    let before = obs::snapshot();
    let mut past_first_round = 0;
    for case in 0..256 {
        let mut rng = Rng::seed_stream(0xd5e_0011, case);
        let (d, n_obj) = (rng.range_usize(2, 5), rng.range_usize(1, 4));
        let draw = |rng: &mut Rng| -> Vec<f64> { (0..d).map(|_| rng.next_f64()).collect() };
        let n = rng.range_usize(3, 24);
        let (mut pack, xs) = random_pack(&mut rng, d, n_obj, n);
        let mut pool = crowded_pool(&mut rng, &xs);
        let mut slots: Vec<Option<Vec<f64>>> = vec![None; pool.len()];
        for round in ["cold", "warm", "warmer"] {
            let front = random_front(&mut rng, n_obj);
            let scorer = ContributionScorer::new(&front, &vec![1.2; n_obj]);
            let keep: Vec<bool> = pool.iter().map(|_| rng.next_f64() < 0.6).collect();
            let want = reference_pick(&pack, &scorer, &pool);
            let acquisition = ExactAcquisition::new(&pack, &scorer);
            if round == "cold" {
                let corr = pack.cross_correlations(&pool);
                let bound = |j: usize| {
                    acquisition.bound(&(0..corr.rows()).map(|i| corr[(i, j)]).collect::<Vec<_>>())
                };
                let best = reference_score(&pack, &scorer, &pool[want]);
                let unprunable = (0..pool.len()).filter(|&j| bound(j) >= best).count();
                past_first_round += usize::from(unprunable > 8);
            }
            let pick = acquisition.select(&pool, &mut slots, &keep);
            assert_eq!(pick, Some(want), "case {case} ({round})");
            for (j, (slot, &k)) in slots.iter().zip(&keep).enumerate() {
                assert_eq!(slot.is_some(), k, "case {case} ({round}): slot {j}");
            }
            // Next iteration: the pack grows, some candidates recur with
            // their slots, new ones arrive cold.
            for _ in 0..rng.range_usize(0, 4) {
                let x = draw(&mut rng);
                let y = rng.next_f64();
                pack.extend(&x, &vec![y; n_obj]);
            }
            let (mut next_pool, mut next_slots) = (Vec::new(), Vec::new());
            for (p, slot) in pool.into_iter().zip(slots) {
                if rng.next_f64() < 0.7 {
                    next_pool.push(p);
                    next_slots.push(slot);
                }
            }
            for _ in 0..rng.range_usize(1, 40) {
                next_pool.push(draw(&mut rng));
                next_slots.push(None);
            }
            (pool, slots) = (next_pool, next_slots);
        }
    }
    assert!(past_first_round >= 10, "only {past_first_round} cold pools needed a second round");
    let after = obs::snapshot();
    let count = |name: &str| after.counter(name) - before.counter(name);
    let (scored, subset) =
        (count("bo.acquisition.score_pruned"), count("bo.acquisition.subset_pruned"));
    assert_eq!(scored + subset, count("bo.acquisition.pruned"), "the tiers split the pruned");
    assert!(scored > 0 && subset > 0, "a tier prunes nothing: {scored}/{subset}");
}

/// One exact selection over a cold pool of more than 64 candidates
/// correlates every candidate through a single kernel panel, and picks
/// what full scoring picks. Panels are counted through their assembly
/// span under a parent span only this test opens, since other tests in
/// this binary build panels concurrently and would move the global
/// `bo.gp.panel.calls` counter; every panel opens exactly one such span.
#[test]
fn exact_selection_correlates_a_cold_pool_in_one_panel() {
    let _obs = OBS.lock().unwrap_or_else(PoisonError::into_inner);
    obs::force_metrics(true);
    let panels = || -> u64 {
        obs::snapshot()
            .spans
            .iter()
            .filter(|s| s.path.starts_with("cold_pool_select/"))
            .filter(|s| s.path.ends_with("/bo.gp.panel.assemble"))
            .map(|s| s.count)
            .sum()
    };
    for case in 0..8 {
        let mut rng = Rng::seed_stream(0xd5e_0015, case);
        let (d, n_obj) = (rng.range_usize(2, 5), rng.range_usize(1, 4));
        let n = rng.range_usize(3, 24);
        let (pack, _) = random_pack(&mut rng, d, n_obj, n);
        let pool: Vec<Vec<f64>> = (0..rng.range_usize(65, 300))
            .map(|_| (0..d).map(|_| rng.next_f64()).collect())
            .collect();
        let front = random_front(&mut rng, n_obj);
        let scorer = ContributionScorer::new(&front, &vec![1.2; n_obj]);
        let want = reference_pick(&pack, &scorer, &pool);
        let keep: Vec<bool> = pool.iter().map(|_| rng.next_f64() < 0.6).collect();
        let mut slots: Vec<Option<Vec<f64>>> = vec![None; pool.len()];
        let before = panels();
        let pick = {
            let _parent = obs::span("cold_pool_select");
            ExactAcquisition::new(&pack, &scorer).select(&pool, &mut slots, &keep)
        };
        assert_eq!(panels() - before, 1, "case {case}: {} candidates", pool.len());
        assert_eq!(pick, Some(want), "case {case}");
        for (j, (slot, &k)) in slots.iter().zip(&keep).enumerate() {
            assert_eq!(slot.is_some(), k, "case {case}: slot {j}");
        }
    }
}

/// The sparse-pack selection picks exactly what per-candidate full
/// scoring picks, over random sparse packs, crowded pools and fronts
/// (with ties, and empty), with cold and then warm columns; kept columns
/// are exactly the `keep`-flagged ones; and every candidate is scored.
#[test]
fn sparse_selection_matches_full_scoring() {
    let _obs = OBS.lock().unwrap_or_else(PoisonError::into_inner);
    obs::force_metrics(true);
    let before = obs::snapshot().counter("bo.hv.incremental");
    let mut candidates = 0;
    for case in 0..CASES {
        let mut rng = Rng::seed_stream(0xd5e_0014, case);
        let (d, n_obj) = (rng.range_usize(2, 5), rng.range_usize(1, 4));
        let n = rng.range_usize(12, 48);
        let m = rng.range_usize(4, 12);
        let xs: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| rng.next_f64()).collect()).collect();
        let ls = rng.range_f64(0.02, 0.8);
        let ys: Vec<Vec<f64>> = (0..n_obj)
            .map(|_| {
                let shift = rng.range_f64(-1.0, 1.0);
                xs.iter().map(|p| smooth_target(p) + shift * p[0]).collect()
            })
            .collect();
        let pack = SparseGaussianProcess::fit_pack(&xs, &ys, ls, m).expect("sparse GP fits");
        let pool = crowded_pool(&mut rng, &xs);
        let mut columns: Vec<Option<Vec<f64>>> = vec![None; pool.len()];
        for round in ["cold", "warm"] {
            let front = random_front(&mut rng, n_obj);
            let scorer = ContributionScorer::new(&front, &vec![1.2; n_obj]);
            let mut want: Option<(f64, usize)> = None;
            for (j, p) in pool.iter().enumerate() {
                let lcb: Vec<f64> =
                    pack.predict(p).into_iter().map(|(mean, var)| mean - var.sqrt()).collect();
                let score = scorer.score(&lcb, 1e-3);
                if want.is_none_or(|(s, _)| score > s) {
                    want = Some((score, j));
                }
            }
            let keep: Vec<bool> = pool.iter().map(|_| rng.next_f64() < 0.6).collect();
            let acquisition = SparseAcquisition::new(&pack, &scorer);
            let pick = acquisition.select(&pool, &mut columns, &keep);
            candidates += pool.len() as u64;
            assert_eq!(pick, want.map(|(_, j)| j), "case {case} ({round})");
            for (j, (column, &k)) in columns.iter().zip(&keep).enumerate() {
                assert_eq!(column.is_some(), k, "case {case} ({round}): column {j}");
            }
        }
    }
    let scored = obs::snapshot().counter("bo.hv.incremental") - before;
    assert_eq!(scored, candidates, "every candidate is scored");
}
