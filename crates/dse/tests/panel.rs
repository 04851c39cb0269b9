//! Contract tests for the kernel-panel engine: degenerate shapes and
//! bitwise agreement with the scalar kernel formula, across tile
//! boundaries.

// Helpers shared across #[test] fns fall outside `allow-unwrap-in-tests`.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use autopilot_rng::Rng;
use dse_opt::linalg::sq_dist;
use dse_opt::{correlation_panel, KernelExpMode};

/// Seeded random point set, `n` points of dimension `d` in `[0, 1)^d`.
fn points(rng: &mut Rng, n: usize, d: usize) -> Vec<Vec<f64>> {
    (0..n).map(|_| (0..d).map(|_| rng.next_f64()).collect()).collect()
}

#[test]
fn empty_rows_give_zero_by_m_panel() {
    let mut rng = Rng::seed_from_u64(41);
    let cols = points(&mut rng, 5, 3);
    for mode in [KernelExpMode::Exact, KernelExpMode::Fast] {
        let p = correlation_panel(&[] as &[Vec<f64>], &cols, -0.5, mode);
        assert_eq!((p.rows(), p.cols()), (0, 5));
    }
}

#[test]
fn empty_cols_give_n_by_zero_panel() {
    let mut rng = Rng::seed_from_u64(42);
    let rows = points(&mut rng, 4, 3);
    for mode in [KernelExpMode::Exact, KernelExpMode::Fast] {
        let p = correlation_panel(&rows, &[] as &[Vec<f64>], -0.5, mode);
        assert_eq!((p.rows(), p.cols()), (4, 0));
    }
}

#[test]
fn zero_dimensional_points_give_unit_correlations() {
    // With d = 0 every squared distance is the empty sum, so every
    // entry is exp(0 · scale) = 1 exactly, in both modes.
    let rows: Vec<Vec<f64>> = vec![vec![]; 3];
    let cols: Vec<Vec<f64>> = vec![vec![]; 7];
    for mode in [KernelExpMode::Exact, KernelExpMode::Fast] {
        let p = correlation_panel(&rows, &cols, -2.5, mode);
        assert_eq!((p.rows(), p.cols()), (3, 7));
        for i in 0..3 {
            for j in 0..7 {
                assert_eq!(p[(i, j)].to_bits(), 1.0f64.to_bits());
            }
        }
    }
}

#[test]
fn single_point_panel_matches_scalar_kernel() {
    let mut rng = Rng::seed_from_u64(43);
    let rows = points(&mut rng, 1, 7);
    let cols = points(&mut rng, 1, 7);
    let scale = -0.5 / 1.3;
    let p = correlation_panel(&rows, &cols, scale, KernelExpMode::Exact);
    assert_eq!((p.rows(), p.cols()), (1, 1));
    let want = (sq_dist(&rows[0], &cols[0]) * scale).exp();
    assert_eq!(p[(0, 0)].to_bits(), want.to_bits());
    // A point against itself sits exactly on the kernel diagonal.
    let diag = correlation_panel(&rows, &rows, scale, KernelExpMode::Exact);
    assert_eq!(diag[(0, 0)].to_bits(), 1.0f64.to_bits());
}

#[test]
fn exact_panel_matches_scalar_formula_entrywise() {
    let mut rng = Rng::seed_from_u64(44);
    // Wide enough that several PANEL_TILE tiles are exercised; 1021
    // columns leave a partial last tile.
    for (n, m, d, lengthscale_sq) in [(9, 301, 7, 0.7), (96, 1021, 5, 0.9)] {
        let rows = points(&mut rng, n, d);
        let cols = points(&mut rng, m, d);
        let scale = -0.5 / lengthscale_sq;
        let p = correlation_panel(&rows, &cols, scale, KernelExpMode::Exact);
        assert_eq!((p.rows(), p.cols()), (n, m));
        for (i, xi) in rows.iter().enumerate() {
            for (j, cj) in cols.iter().enumerate() {
                let want = (sq_dist(xi, cj) * scale).exp();
                assert_eq!(p[(i, j)].to_bits(), want.to_bits(), "{n}x{m}: entry ({i}, {j})");
            }
        }
    }
}
