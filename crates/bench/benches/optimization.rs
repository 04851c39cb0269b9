//! Micro-benchmarks for the DSE machinery: GP regression, hypervolume
//! computation and the hypervolume trace, and full optimizer runs on a
//! synthetic problem.

use autopilot_bench::tinybench::{BenchmarkId, Criterion};
use autopilot_bench::{bench_group, bench_main};
use autopilot_rng::Rng;
use dse_opt::pareto::{hypervolume, ContributionScorer};
use dse_opt::{
    DesignSpace, EvalError, EvaluationRecord, Evaluator, GaussianProcess, MultiObjectiveOptimizer,
    Nsga2Optimizer, OptimizationResult, RandomSearch, SmsEgoOptimizer, SparseGaussianProcess,
};
use std::hint::black_box;

struct Synthetic;

impl Evaluator for Synthetic {
    fn num_objectives(&self) -> usize {
        3
    }
    fn evaluate(&self, point: &[usize]) -> Result<Vec<f64>, EvalError> {
        let x: Vec<f64> = point.iter().map(|&p| p as f64 / 7.0).collect();
        Ok(vec![
            x[0] + 0.1 * x[2],
            (1.0 - x[0]).powi(2) + x[1],
            (x[1] - 0.5).abs() + (x[2] - 0.3).powi(2),
        ])
    }
    fn reference_point(&self) -> Vec<f64> {
        vec![3.0, 3.0, 3.0]
    }
}

fn bench_gp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gaussian_process");
    for n in [32usize, 128, 256] {
        let mut rng = Rng::seed_from_u64(1);
        let x: Vec<Vec<f64>> = (0..n).map(|_| (0..7).map(|_| rng.next_f64()).collect()).collect();
        let y: Vec<f64> = x.iter().map(|p| p.iter().sum::<f64>().sin()).collect();
        group.bench_with_input(BenchmarkId::new("fit", n), &n, |b, _| {
            b.iter(|| black_box(GaussianProcess::fit(black_box(&x), black_box(&y))))
        });
        let gp = GaussianProcess::fit(&x, &y).expect("GP fits the synthetic sample");
        let q = vec![0.4; 7];
        group.bench_with_input(BenchmarkId::new("predict", n), &n, |b, _| {
            b.iter(|| black_box(gp.predict(black_box(&q))))
        });
    }
    group.finish();
}

fn bench_batch_predict(c: &mut Criterion) {
    // The Phase-2 acquisition hot path: scoring a whole candidate pool
    // against one fitted GP, with one kernel cross-matrix and blocked
    // multi-RHS triangular solves.
    let mut group = c.benchmark_group("gp_pool_scoring");
    let mut rng = Rng::seed_from_u64(4);
    let x: Vec<Vec<f64>> = (0..128).map(|_| (0..7).map(|_| rng.next_f64()).collect()).collect();
    let y: Vec<f64> = x.iter().map(|p| p.iter().sum::<f64>().sin()).collect();
    let gp = GaussianProcess::fit(&x, &y).expect("GP fits the synthetic sample");
    for pool_size in [64usize, 256] {
        let pool: Vec<Vec<f64>> =
            (0..pool_size).map(|_| (0..7).map(|_| rng.next_f64()).collect()).collect();
        group.bench_with_input(BenchmarkId::new("predict_batch", pool_size), &pool, |b, pool| {
            b.iter(|| black_box(gp.predict_batch(black_box(pool))))
        });
    }
    group.finish();
}

fn bench_kernel_assembly(c: &mut Criterion) {
    // Fused, cache-blocked kernel cross-matrix assembly
    // (`cross_correlations`, shared by the exact and sparse GP paths).
    let mut group = c.benchmark_group("gp_kernel_assembly");
    let mut rng = Rng::seed_from_u64(6);
    for n in [128usize, 512] {
        let x: Vec<Vec<f64>> = (0..n).map(|_| (0..7).map(|_| rng.next_f64()).collect()).collect();
        let y: Vec<f64> = x.iter().map(|p| p.iter().sum::<f64>().sin()).collect();
        let gp = GaussianProcess::fit(&x, &y).expect("GP fits the synthetic sample");
        let pool: Vec<Vec<f64>> =
            (0..256).map(|_| (0..7).map(|_| rng.next_f64()).collect()).collect();
        group.bench_with_input(BenchmarkId::new("blocked", n), &pool, |b, pool| {
            b.iter(|| black_box(gp.cross_correlations(black_box(pool))))
        });
    }
    group.finish();
}

fn bench_hv_incremental(c: &mut Criterion) {
    // SMS-EGO candidate scoring: the per-iteration ContributionScorer
    // (obj-0 penalty prefix + incremental staircase union).
    let mut group = c.benchmark_group("hv_incremental");
    let mut rng = Rng::seed_from_u64(7);
    let reference = vec![1.2, 1.2, 1.2];
    for n in [64usize, 256] {
        let front: Vec<Vec<f64>> =
            (0..n).map(|_| (0..3).map(|_| rng.next_f64()).collect()).collect();
        let pool: Vec<Vec<f64>> =
            (0..64).map(|_| (0..3).map(|_| rng.next_f64()).collect()).collect();
        group.bench_with_input(BenchmarkId::new("scorer", n), &pool, |b, pool| {
            b.iter(|| {
                let scorer = ContributionScorer::new(&front, &reference);
                let mut scratch = scorer.scratch();
                let mut acc = 0.0;
                for cand in pool {
                    acc += scorer.score_with(&mut scratch, cand, 1e-3);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_sparse_inference(c: &mut Criterion) {
    // Exact vs sparse batched inference at an archive size past the
    // SurrogateMode threshold — the tentpole trade: O(n·pool) exact
    // prediction against O(m·pool) sparse with m = 64 inducing points.
    let mut group = c.benchmark_group("gp_sparse_inference");
    group.sample_size(10);
    let mut rng = Rng::seed_from_u64(8);
    let n = 512;
    let x: Vec<Vec<f64>> = (0..n).map(|_| (0..7).map(|_| rng.next_f64()).collect()).collect();
    let y: Vec<f64> = x.iter().map(|p| p.iter().sum::<f64>().sin()).collect();
    let exact = GaussianProcess::fit(&x, &y).expect("GP fits the synthetic sample");
    let sparse = SparseGaussianProcess::fit(&x, &y, 64).expect("sparse GP fits");
    let pool: Vec<Vec<f64>> = (0..256).map(|_| (0..7).map(|_| rng.next_f64()).collect()).collect();
    group.bench_with_input(BenchmarkId::new("exact", n), &pool, |b, pool| {
        b.iter(|| black_box(exact.predict_batch(black_box(pool))))
    });
    group.bench_with_input(BenchmarkId::new("sparse", n), &pool, |b, pool| {
        b.iter(|| black_box(sparse.predict_batch(black_box(pool))))
    });
    group.finish();
}

fn bench_fastexp(c: &mut Criterion) {
    // The kernel-panel exponential over panel-sized slices: scalar
    // `f64::exp` per element (what `KernelExpMode::Exact` runs) against
    // the batched Cody–Waite polynomial (`KernelExpMode::Fast`, ≤4 ULP).
    // Inputs mirror real panel arguments: non-positive scaled squared
    // distances in roughly [-40, 0].
    let mut group = c.benchmark_group("gp_fastexp");
    let mut rng = Rng::seed_from_u64(9);
    for len in [4096usize, 16384] {
        let args: Vec<f64> = (0..len).map(|_| -40.0 * rng.next_f64()).collect();
        group.bench_with_input(BenchmarkId::new("exp_scalar", len), &args, |b, args| {
            let mut buf = args.clone();
            b.iter(|| {
                buf.copy_from_slice(args);
                for v in &mut buf {
                    *v = v.exp();
                }
                black_box(buf[len / 2])
            })
        });
        group.bench_with_input(BenchmarkId::new("exp_slice_exact", len), &args, |b, args| {
            let mut buf = args.clone();
            b.iter(|| {
                buf.copy_from_slice(args);
                dse_opt::exp_slice(&mut buf, dse_opt::KernelExpMode::Exact);
                black_box(buf[len / 2])
            })
        });
        group.bench_with_input(BenchmarkId::new("exp_slice_fast", len), &args, |b, args| {
            let mut buf = args.clone();
            b.iter(|| {
                buf.copy_from_slice(args);
                dse_opt::exp_slice(&mut buf, dse_opt::KernelExpMode::Fast);
                black_box(buf[len / 2])
            })
        });
    }
    group.finish();
}

fn bench_hypervolume(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypervolume");
    let mut rng = Rng::seed_from_u64(2);
    for n in [32usize, 128] {
        let pts3: Vec<Vec<f64>> =
            (0..n).map(|_| (0..3).map(|_| rng.next_f64()).collect()).collect();
        let r3 = [1.5, 1.5, 1.5];
        group.bench_with_input(BenchmarkId::new("3d", n), &n, |b, _| {
            b.iter(|| black_box(hypervolume(black_box(&pts3), black_box(&r3))))
        });
    }
    group.finish();
}

fn bench_hv_trace(c: &mut Criterion) {
    // The convergence curve every optimizer result carries: the
    // hypervolume after each of 840 evaluations, as `from_history`
    // builds it from one incremental front.
    let mut group = c.benchmark_group("hv_trace");
    let mut rng = Rng::seed_from_u64(5);
    let history: Vec<EvaluationRecord> = (0..840)
        .map(|i| EvaluationRecord {
            iteration: i,
            point: vec![i],
            objectives: (0..3).map(|_| rng.next_f64()).collect(),
        })
        .collect();
    group.bench_with_input(BenchmarkId::new("from_history", 840), &history, |b, history| {
        b.iter(|| {
            black_box(OptimizationResult::from_history(
                "bench",
                black_box(history.clone()),
                vec![1.5, 1.5, 1.5],
            ))
        })
    });
    group.finish();
}

fn bench_optimizers(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer_run_budget40");
    group.sample_size(10);
    let space = DesignSpace::new(vec![8; 7]).expect("non-empty design space");
    group.bench_function("sms_ego", |b| {
        b.iter(|| {
            black_box(
                SmsEgoOptimizer::new(3)
                    .with_init_samples(10)
                    .with_candidate_pool(64)
                    .run(&space, &Synthetic, 40),
            )
        })
    });
    group.bench_function("nsga2", |b| {
        b.iter(|| black_box(Nsga2Optimizer::new(3).with_population(12).run(&space, &Synthetic, 40)))
    });
    group.bench_function("random", |b| {
        b.iter(|| black_box(RandomSearch::new(3).run(&space, &Synthetic, 40)))
    });
    group.finish();
}

bench_group!(
    benches,
    bench_gp,
    bench_batch_predict,
    bench_kernel_assembly,
    bench_hv_incremental,
    bench_sparse_inference,
    bench_fastexp,
    bench_hypervolume,
    bench_hv_trace,
    bench_optimizers
);
bench_main!(benches);
