//! Gaussian-process regression with a squared-exponential kernel:
//! an exact GP supporting incremental O(n²) updates, a low-rank
//! Nyström/DTC sparse GP for large archives ([`SparseGaussianProcess`]),
//! and the [`SurrogateMode`] threshold that switches between them. Both
//! GPs carry one posterior per objective over one shared factorization:
//! a surrogate pack. The mode reaches an optimizer only through
//! [`SmsEgoOptimizer::with_surrogate_mode`](crate::SmsEgoOptimizer::with_surrogate_mode).

use crate::error::GpError;
use crate::linalg::{sq_dist, Matrix};
use autopilot_obs as obs;
use std::cell::RefCell;

/// The largest archive an exact surrogate pack trains on. Exact GP
/// inference is O(n³) per refit and O(n²) memory, so a larger archive
/// always switches to the sparse pack, whatever its threshold.
pub const MAX_EXACT_POINTS: usize = 256;

/// When the Bayesian-optimization loop switches from the exact surrogate
/// pack to the sparse one as the archive grows. Exact GP inference is
/// O(n³) per refit and O(n²) per candidate batch row; the sparse pack
/// caps both at the inducing-point count `m`, trading a bounded
/// approximation error for archive-scale budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurrogateMode {
    /// Exact while the archive holds at most
    /// `min(threshold, MAX_EXACT_POINTS)` points; past that, a
    /// [`SparseGaussianProcess`] with `inducing` inducing points trained
    /// on the full archive.
    Sparse {
        /// Training-set size past which the sparse path engages (at most
        /// [`MAX_EXACT_POINTS`] in effect).
        threshold: usize,
        /// Number of inducing points (clamped to the training size).
        inducing: usize,
    },
}

impl SurrogateMode {
    /// The default threshold/inducing configuration: exact below n≈256,
    /// 64 inducing points above.
    pub const fn default_sparse() -> SurrogateMode {
        SurrogateMode::Sparse { threshold: 256, inducing: 64 }
    }

    /// [`SurrogateMode::default_sparse`]; reads no environment. Kept
    /// only so the benchmark package compiles until it stops naming it.
    pub fn from_env() -> SurrogateMode {
        SurrogateMode::default_sparse()
    }
}

/// The kernel exponent coefficient with the lengthscale division hoisted
/// out of the inner loops: every kernel entry is
/// `exp(sq_dist · scale)` with `scale = -0.5/ℓ²`. All kernel paths —
/// fit, extend, scalar predict, and the blocked panel — go through this
/// one formula, so they stay bit-identical to each other.
#[inline]
fn kernel_scale(lengthscale_sq: f64) -> f64 {
    -0.5 / lengthscale_sq
}

/// Tile width: a d×TILE transposed query block plus the TILE-wide
/// segment of each output row stays L1/L2-resident for the small d used
/// here.
const PANEL_TILE: usize = 128;

std::thread_local! {
    /// Reusable per-thread dimension-major transposed query tile; it
    /// persists across calls, so steady-state chunk scoring allocates
    /// nothing for panel scratch.
    static PANEL_TRANSPOSE: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Reusable kernel/solve vectors for the extend paths (`c` and
    /// `L⁻¹·c`); steady-state extends allocate nothing for them.
    static VECTOR_SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` with the thread's reusable kernel-vector scratch pair. Do
/// not call GP query methods from inside `f` — they borrow the same
/// thread-local pair.
fn with_kernel_scratch<R>(f: impl FnOnce(&mut Vec<f64>, &mut Vec<f64>) -> R) -> R {
    VECTOR_SCRATCH.with(|cell| {
        let (a, b) = &mut *cell.borrow_mut();
        f(a, b)
    })
}

/// Kernel correlation vector of one query `point` against `xs`, written
/// into a reusable buffer: element `i` is
/// `(sq_dist(&xs[i], point) * scale).exp()`.
fn kernel_vector_into(xs: &[Vec<f64>], point: &[f64], scale: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend(xs.iter().map(|xi| (sq_dist(xi, point) * scale).exp()));
}

/// Cache-blocked, fused distance+exp kernel panel: entry `(i, j)` is
/// `exp(‖rows[i] − cols[j]‖² · scale)`, bit-identical to the scalar
/// `(sq_dist(&rows[i], &cols[j]) * scale).exp()`.
///
/// Every entry's arithmetic — ascending-dimension accumulation in the
/// same order as [`sq_dist`], one multiply by `scale`, one exponential —
/// depends only on its `(row, col)` pair; tile boundaries never enter it.
/// The panel is built tile by tile straight into the row-major output:
/// each tile of query points is transposed into dimension-major scratch
/// rows, so the inner loop over the tile reads both operands contiguously
/// and autovectorizes, and the exponential pass runs over each finished
/// row segment while it is still cache-resident.
///
/// Rows and columns are any point slices (`Vec<f64>`s, or `&[f64]`
/// views into one flat buffer), so callers need not copy them.
pub fn correlation_panel(
    rows: &[impl AsRef<[f64]>],
    cols: &[impl AsRef<[f64]>],
    scale: f64,
) -> Matrix {
    let n = rows.len();
    let m = cols.len();
    let mut out = Matrix::zeros(n, m);
    if n == 0 || m == 0 {
        return out;
    }
    obs::add("bo.gp.panel.calls", 1);
    obs::add("bo.gp.panel.entries", (n * m) as u64);
    let _span = obs::span("bo.gp.panel.assemble");
    let d = rows[0].as_ref().len();
    PANEL_TRANSPOSE.with(|cell| {
        let transpose = &mut *cell.borrow_mut();
        for t0 in (0..m).step_by(PANEL_TILE) {
            let t1 = (t0 + PANEL_TILE).min(m);
            let w = t1 - t0;
            transpose.clear();
            transpose.resize(d * w, 0.0);
            for (k, trow) in transpose.chunks_exact_mut(w).enumerate() {
                for (slot, col) in trow.iter_mut().zip(&cols[t0..t1]) {
                    *slot = col.as_ref()[k];
                }
            }
            for (i, xi) in rows.iter().enumerate() {
                let orow = &mut out.row_mut(i)[t0..t1];
                for (k, &xik) in xi.as_ref().iter().enumerate() {
                    let qs = &transpose[k * w..k * w + w];
                    for (acc, &q) in orow.iter_mut().zip(qs) {
                        let t = xik - q;
                        *acc += t * t;
                    }
                }
                for v in orow.iter_mut() {
                    *v = (*v * scale).exp();
                }
            }
        }
    });
    out
}

/// Shared input validation for the exact and sparse fits.
fn validate_training(x: &[Vec<f64>], y: &[f64]) -> Result<(), GpError> {
    if x.len() != y.len() {
        return Err(GpError::DimensionMismatch {
            detail: format!("{} inputs vs {} targets", x.len(), y.len()),
        });
    }
    let n = x.len();
    if n < 2 {
        return Err(GpError::TooFewPoints { got: n });
    }
    let dim = x[0].len();
    if let Some(bad) = x.iter().find(|p| p.len() != dim) {
        return Err(GpError::DimensionMismatch {
            detail: format!("input dims {} vs {}", bad.len(), dim),
        });
    }
    if x.iter().flatten().chain(y).any(|v| !v.is_finite()) {
        return Err(GpError::NonFiniteInput);
    }
    Ok(())
}

/// Relative noise of every surrogate: the exact GP's diagonal jitter and
/// the sparse GP's observation noise λ, both relative to the signal
/// variance (the correlation form divides `K` by `σ²`). It depends on no
/// objective, so the members of a surrogate pack — one objective each,
/// on shared inputs and lengthscale — share one factorization.
const RELATIVE_NOISE: f64 = 1e-4;

/// One objective's training targets and the posterior state they fix
/// against a pack's shared factorization: the mean `ȳ`, the signal
/// variance `σ²` and the weights (`α = C_j⁻¹(y − ȳ)` for the exact GP,
/// `w = λ⁻¹·A⁻¹·C_nmᵀ(y − ȳ)` for the sparse one).
#[derive(Debug, Clone)]
struct Targets {
    y: Vec<f64>,
    mean_y: f64,
    signal_var: f64,
    weights: Vec<f64>,
}

impl Targets {
    /// Targets whose moments and weights the owning GP's target refresh
    /// has yet to compute.
    fn new(y: Vec<f64>) -> Targets {
        Targets { y, mean_y: 0.0, signal_var: 0.0, weights: Vec::new() }
    }

    /// Recomputes `ȳ` and `σ²` (floored at `1e-12`) and returns the
    /// centred targets `y − ȳ`.
    fn centre(&mut self) -> Vec<f64> {
        let n = self.y.len();
        self.mean_y = self.y.iter().sum::<f64>() / n as f64;
        let centred: Vec<f64> = self.y.iter().map(|v| v - self.mean_y).collect();
        self.signal_var = (centred.iter().map(|v| v * v).sum::<f64>() / n as f64).max(1e-12);
        centred
    }

    /// `ȳ + Σ cᵢ·weightᵢ`, accumulated in ascending `i` from `0.0`.
    fn mean(&self, corr: &[f64]) -> f64 {
        assert_eq!(corr.len(), self.weights.len(), "column is not current with its pack");
        self.mean_y + corr.iter().zip(&self.weights).fold(0.0, |acc, (c, w)| acc + c * w)
    }

    /// `σ²·fraction`, clamped at zero: the posterior variance from the
    /// share of the prior variance the query keeps, which the whole pack
    /// shares.
    fn variance(&self, fraction: f64) -> f64 {
        (self.signal_var * fraction).max(0.0)
    }
}

/// Validates a pack's training data: at least one objective, every
/// target vector checked against the inputs.
fn validate_pack(x: &[Vec<f64>], ys: &[Vec<f64>]) -> Result<(), GpError> {
    if ys.is_empty() {
        return Err(GpError::DimensionMismatch { detail: "no objectives".into() });
    }
    ys.iter().try_for_each(|y| validate_training(x, y))
}

/// True when `values` holds exactly `len` values, all finite.
fn all_finite(values: &[f64], len: usize) -> bool {
    values.len() == len && values.iter().all(|v| v.is_finite())
}

/// Replaces each objective's targets by its vector in `ys` — or, unless
/// `ys` holds one finite vector of `n` targets per objective, changes
/// nothing and returns `false`. Every vector is checked before any
/// objective changes.
fn replace_targets(objectives: &mut [Targets], ys: &[Vec<f64>], n: usize) -> bool {
    if ys.len() != objectives.len() || ys.iter().any(|y| !all_finite(y, n)) {
        return false;
    }
    for (targets, y) in objectives.iter_mut().zip(ys) {
        targets.y.clone_from(y);
    }
    true
}

/// A fitted exact Gaussian process over normalized inputs in `[0, 1]^d`,
/// with one posterior per objective: a surrogate *pack*.
///
/// The paper uses GP surrogates with the squared-exponential (SE) kernel
/// for each objective; this implementation follows the standard
/// Rasmussen & Williams recipe (Cholesky of the kernel matrix, `alpha =
/// K^-1 y`). Hyperparameters are set by simple, robust heuristics: signal
/// variance from each objective's sample variance, a shared isotropic
/// lengthscale from the median pairwise distance, and a fixed relative
/// noise floor for numerical stability.
///
/// # One factor per pack
///
/// The kernel matrix is held in *correlation form*: `K = σ²·C_j` where
/// `C_j = C + RELATIVE_NOISE·I` has unit diagonal plus the relative
/// jitter. `C_j` depends only on the inputs and the lengthscale — not on
/// any objective's targets or signal variance — so every objective
/// trained on the same inputs shares its one Cholesky factor `L`. Each
/// objective keeps only `ȳ`, `σ²` and `α`; the posterior means are
/// `ȳ + cᵀα` per objective and the variances `σ²(1 − ‖L⁻¹c‖²)` share
/// one solve. A pack with one objective is a single-objective GP.
///
/// # Incremental updates
///
/// When a new observation arrives with the lengthscale held fixed,
/// [`GaussianProcess::extend`] borders the factor with one triangular
/// solve (O(n²)) instead of refactorizing (O(n³)). Callers refresh the
/// lengthscale periodically with a full fit; between refits the frozen
/// lengthscale is a valid (slightly stale) hyperparameter choice, not an
/// approximation of the math: predictions from an extended GP are
/// identical to a fresh fit at the same lengthscale up to floating-point
/// roundoff.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    x: Vec<Vec<f64>>,
    /// Cholesky factor of the jittered correlation matrix `C_j`, shared
    /// by every objective.
    chol: Matrix,
    /// Per objective: targets, `ȳ`, `σ²` and `α = C_j⁻¹(y − ȳ)` — note
    /// the σ² cancellation in the posterior mean:
    /// `k*ᵀK⁻¹(y-ȳ) = c*ᵀC_j⁻¹(y-ȳ)`.
    objectives: Vec<Targets>,
    lengthscale_sq: f64,
}

impl GaussianProcess {
    /// Fits a single-objective GP to `(x, y)` observations.
    ///
    /// Inputs should be normalized to roughly the unit cube; outputs are
    /// centred internally.
    ///
    /// # Errors
    ///
    /// * [`GpError::TooFewPoints`] with fewer than two observations,
    /// * [`GpError::DimensionMismatch`] when `x` and `y` lengths differ or
    ///   input dimensions are inconsistent,
    /// * [`GpError::NonFiniteInput`] on a non-finite input or target,
    /// * [`GpError::NotPositiveDefinite`] when the kernel matrix cannot be
    ///   factorized (singular or non-finite).
    pub fn fit(x: &[Vec<f64>], y: &[f64]) -> Result<GaussianProcess, GpError> {
        validate_training(x, y)?;
        GaussianProcess::fit_with_lengthscale(x, y, median_sq_dist(x))
    }

    /// Fits a single-objective GP at an explicitly chosen squared
    /// lengthscale: a one-objective [`GaussianProcess::fit_pack`].
    ///
    /// # Errors
    ///
    /// Same taxonomy as [`GaussianProcess::fit`].
    pub fn fit_with_lengthscale(
        x: &[Vec<f64>],
        y: &[f64],
        lengthscale_sq: f64,
    ) -> Result<GaussianProcess, GpError> {
        GaussianProcess::fit_pack(x, &[y.to_vec()], lengthscale_sq)
    }

    /// Fits a surrogate pack: one posterior per target vector in `ys`,
    /// all on inputs `x` at one squared lengthscale, sharing one Cholesky
    /// factorization.
    ///
    /// # Errors
    ///
    /// Same taxonomy as [`GaussianProcess::fit`], checked for every
    /// target vector; [`GpError::DimensionMismatch`] when `ys` is empty.
    pub fn fit_pack(
        x: &[Vec<f64>],
        ys: &[Vec<f64>],
        lengthscale_sq: f64,
    ) -> Result<GaussianProcess, GpError> {
        validate_pack(x, ys)?;
        let n = x.len();
        let lengthscale_sq = lengthscale_sq.max(1e-6);
        let mut c = correlation_panel(x, x, kernel_scale(lengthscale_sq));
        for i in 0..n {
            c[(i, i)] += RELATIVE_NOISE;
        }
        let chol = c.cholesky().ok_or(GpError::NotPositiveDefinite)?;
        let mut gp = GaussianProcess {
            x: x.to_vec(),
            chol,
            objectives: ys.iter().map(|y| Targets::new(y.clone())).collect(),
            lengthscale_sq,
        };
        gp.solve_targets();
        Ok(gp)
    }

    /// Appends one observation — `x_new` with one target per objective —
    /// in O(n²) by bordering the shared Cholesky factor, keeping the
    /// current lengthscale frozen.
    ///
    /// Returns `false` — leaving the GP unchanged — when `ys` does not
    /// hold one finite target per objective or the extension is
    /// numerically unsafe (the bordered matrix loses positive
    /// definiteness, e.g. for a near-duplicate input); the caller should
    /// fall back to a full fit.
    ///
    /// # Panics
    ///
    /// Panics if `x_new` has the wrong dimension.
    pub fn extend(&mut self, x_new: &[f64], ys: &[f64]) -> bool {
        assert_eq!(x_new.len(), self.x[0].len(), "dimension mismatch");
        if !all_finite(ys, self.objectives.len()) {
            return false;
        }
        let scale = kernel_scale(self.lengthscale_sq);
        let ok = with_kernel_scratch(|c, w| {
            kernel_vector_into(&self.x, x_new, scale, c);
            self.chol.solve_lower_into(c, w);
            let d2 = 1.0 + RELATIVE_NOISE - w.iter().map(|v| v * v).sum::<f64>();
            // Guard well above zero: a tiny pivot makes the factor
            // ill-conditioned even when it technically exists.
            if !d2.is_finite() || d2 <= 1e-10 {
                return false;
            }
            self.chol.extend_lower(w, d2.sqrt());
            true
        });
        if !ok {
            return false;
        }
        self.x.push(x_new.to_vec());
        for (targets, &y) in self.objectives.iter_mut().zip(ys) {
            targets.y.push(y);
        }
        self.solve_targets();
        true
    }

    /// Replaces every objective's training targets in place, reusing the
    /// Cholesky factorization — O(n²) per objective instead of the O(n³)
    /// refit.
    ///
    /// The factor depends only on the inputs and the lengthscale, so a
    /// wholesale target change (the BO loop renormalizes all targets
    /// when the archive's objective ranges move) only needs the
    /// target-dependent state recomputed, and the result is bit-identical
    /// to a fresh fit on the new targets.
    ///
    /// Returns `false` — leaving the GP unchanged — when `ys` does not
    /// hold one target vector per objective of the training size, or
    /// holds a non-finite value.
    pub fn retarget(&mut self, ys: &[Vec<f64>]) -> bool {
        if !replace_targets(&mut self.objectives, ys, self.x.len()) {
            return false;
        }
        self.solve_targets();
        true
    }

    /// Recomputes every objective's target-dependent state (mean, signal
    /// variance, `α`) against the shared factorization — O(n²) each.
    fn solve_targets(&mut self) {
        for targets in &mut self.objectives {
            let centred = targets.centre();
            let tmp = self.chol.solve_lower(&centred);
            targets.weights = self.chol.solve_lower_transpose(&tmp);
        }
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when the GP has no training points (never constructed this
    /// way, but part of the `len`/`is_empty` contract).
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Number of objectives (posteriors) the pack carries.
    pub fn objective_count(&self) -> usize {
        self.objectives.len()
    }

    /// The squared lengthscale currently in effect (frozen between fits).
    pub fn lengthscale_sq(&self) -> f64 {
        self.lengthscale_sq
    }

    /// Posterior mean and variance at `point`, one pair per objective: a
    /// batch of one through [`GaussianProcess::predict_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `point` has the wrong dimension.
    pub fn predict(&self, point: &[f64]) -> Vec<(f64, f64)> {
        self.predict_batch(&[point.to_vec()]).swap_remove(0)
    }

    /// Kernel cross-correlation matrix between the training inputs and a
    /// batch of query points: entry `(i, j)` is
    /// `exp(-0.5·‖x_i − p_j‖²/ℓ²)`, bit-identical to the scalar
    /// `(sq_dist(x_i, p_j) · scale).exp()` (see [`correlation_panel`]).
    /// Every objective of the pack predicts from it.
    ///
    /// # Panics
    ///
    /// Panics if any query point has the wrong dimension.
    pub fn cross_correlations(&self, points: &[impl AsRef<[f64]>]) -> Matrix {
        self.check_query_dims(points);
        correlation_panel(&self.x, points, kernel_scale(self.lengthscale_sq))
    }

    /// [`GaussianProcess::cross_correlations`] transposed: row `j` holds
    /// query point `j`'s correlations with the training inputs, so each
    /// query's correlations are contiguous. Entry for entry bit-identical
    /// to it: a squared difference does not depend on its operands'
    /// order, and the dimensions accumulate in the same order.
    ///
    /// # Panics
    ///
    /// Panics if any query point has the wrong dimension.
    pub(crate) fn query_correlations(&self, points: &[impl AsRef<[f64]>]) -> Matrix {
        self.check_query_dims(points);
        correlation_panel(points, &self.x, kernel_scale(self.lengthscale_sq))
    }

    fn check_query_dims(&self, points: &[impl AsRef<[f64]>]) {
        let dim = self.x[0].len();
        for p in points {
            assert_eq!(p.as_ref().len(), dim, "dimension mismatch");
        }
    }

    /// Batched posterior mean and variance for a pool of query points,
    /// one pair per objective for each point, through the acquisition
    /// loop's own arithmetic: one kernel panel
    /// ([`GaussianProcess::cross_correlations`]), one blocked triangular
    /// solve whose columns are bit-identical to per-column
    /// [`Matrix::solve_lower`] (`forward_sumsq`), and `exact_moments`.
    /// The means are `Σ cᵢαᵢ` and the variances use `Σ vᵢ²`, both
    /// accumulated in ascending `i` from `0.0`. Each output depends only
    /// on its own point, so it is bit-identical to `predict(&points[j])`.
    ///
    /// # Panics
    ///
    /// Panics if any query point has the wrong dimension.
    pub fn predict_batch(&self, points: &[Vec<f64>]) -> Vec<Vec<(f64, f64)>> {
        let corr = self.cross_correlations(points);
        let mut column = Vec::with_capacity(corr.rows());
        self.forward_sumsq(&corr)
            .into_iter()
            .enumerate()
            .map(|(j, sumsq)| {
                column.clear();
                column.extend((0..corr.rows()).map(|i| corr[(i, j)]));
                self.exact_moments(&column, sumsq).collect()
            })
            .collect()
    }

    /// Per objective, the posterior mean and an upper bound on the
    /// posterior variance from a query's training correlations `corr`
    /// alone, with no triangular solve.
    ///
    /// The means are bit-identical to [`GaussianProcess::predict_batch`]'s.
    /// The variance is `σ²(1 − cᵀC_j⁻¹c)`, and Cauchy–Schwarz in the
    /// `C_j`-inner product gives `cᵀC_j⁻¹c ≥ cᵢ²/(C_j)ᵢᵢ` for every `i`.
    /// Every diagonal entry of `C_j` is `1 + RELATIVE_NOISE` (fit and
    /// extend both keep it), so `σ²(1 − max cᵢ²/(1 + RELATIVE_NOISE))`
    /// is at least the true variance.
    ///
    /// # Panics
    ///
    /// Panics if `corr` does not have one entry per training point.
    pub(crate) fn optimistic_moments<'a>(
        &'a self,
        corr: &'a [f64],
    ) -> impl Iterator<Item = (f64, f64)> + 'a {
        let fraction = cauchy_schwarz_fraction(corr.iter().fold(0.0f64, |m, c| m.max(c * c)));
        self.objectives.iter().map(move |t| (t.mean(corr), t.variance(fraction)))
    }

    /// Per objective, the exact posterior `(mean, variance)` at the query
    /// whose training correlations are `corr` and whose forward solve
    /// `v = L⁻¹c` has `Σv² = sumsq` (see
    /// [`GaussianProcess::forward_sumsq`]): the means `ȳ + Σ cᵢαᵢ` and
    /// the variances `σ²(1 − Σv²)`, clamped at zero.
    ///
    /// # Panics
    ///
    /// Panics if `corr` does not have one entry per training point.
    pub(crate) fn exact_moments<'a>(
        &'a self,
        corr: &'a [f64],
        sumsq: f64,
    ) -> impl Iterator<Item = (f64, f64)> + 'a {
        self.objectives.iter().map(move |t| (t.mean(corr), t.variance(1.0 - sumsq)))
    }

    /// `Σv²` for every column `v = L⁻¹c` of the `n × k` correlation
    /// panel `corr` (one column per query): one blocked triangular solve
    /// ([`Matrix::solve_lower_columns`]) against the pack's one factor,
    /// each sum accumulated in ascending row order from `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `corr` does not have one row per training point.
    pub(crate) fn forward_sumsq(&self, corr: &Matrix) -> Vec<f64> {
        let v = self.chol.solve_lower_columns(corr);
        (0..v.cols()).map(|j| (0..v.rows()).fold(0.0, |s, i| s + v[(i, j)] * v[(i, j)])).collect()
    }

    /// Upper bounds on every objective's posterior variance at the query
    /// whose training correlations are `corr`, from the `SUBSET_ROWS` (8)
    /// training rows `S` most correlated with it and no `n`-row solve:
    /// `σ²(1 − c_Sᵀ(C_SS + RELATIVE_NOISE·I)⁻¹c_S)`, capped by the
    /// Cauchy–Schwarz variance bound of `optimistic_moments`. The
    /// quadratic form depends only on the inputs, so one `p × p`
    /// factorization serves the whole pack.
    ///
    /// `(C_SS + RELATIVE_NOISE·I)` is the `S × S` principal block of the
    /// jittered training matrix `C_j`, and for any SPD `C_j` the Schur
    /// complement gives `cᵀC_j⁻¹c ≥ c_Sᵀ((C_j)_SS)⁻¹c_S`, so the subset
    /// variance is at least the exact one. Its eigenvalues are at least
    /// the jitter, so the `p × p` solve is well conditioned; a small
    /// relative slack (`SUBSET_SLACK`) keeps the bound above the computed
    /// exact variance despite the roundoff of both solves.
    ///
    /// # Panics
    ///
    /// Panics if `corr` does not have one entry per training point.
    pub fn subset_variance_bounds(&self, corr: &[f64]) -> Vec<f64> {
        const P: usize = SUBSET_ROWS;
        assert_eq!(corr.len(), self.x.len(), "column is not current with its pack");
        let mut rows = [0usize; P];
        let p = most_correlated(corr, &mut rows);
        // The strictly lower triangle of C_SS, row by row.
        let mut kernel = [0.0f64; P * (P - 1) / 2];
        let scale = kernel_scale(self.lengthscale_sq);
        let mut at = 0;
        for a in 0..p {
            for b in 0..a {
                kernel[at] = (sq_dist(&self.x[rows[b]], &self.x[rows[a]]) * scale).exp();
                at += 1;
            }
        }
        // Row-by-row Cholesky of C_SS + RELATIVE_NOISE·I fused with the
        // forward solve w = L⁻¹c_S, accumulating q = Σw².
        let (mut l, mut w, mut q) = ([[0.0f64; P]; P], [0.0f64; P], 0.0);
        let mut at = 0;
        let mut factored = true;
        for a in 0..p {
            for b in 0..a {
                let dot = (0..b).fold(0.0, |s, k| s + l[a][k] * l[b][k]);
                l[a][b] = (kernel[at] - dot) / l[b][b];
                at += 1;
            }
            let pivot = 1.0 + RELATIVE_NOISE - (0..a).fold(0.0, |s, k| s + l[a][k] * l[a][k]);
            if pivot.is_nan() || pivot <= 0.0 {
                factored = false;
                break;
            }
            l[a][a] = pivot.sqrt();
            w[a] = (corr[rows[a]] - (0..a).fold(0.0, |s, k| s + l[a][k] * w[k])) / l[a][a];
            q += w[a] * w[a];
        }
        let cauchy_schwarz = cauchy_schwarz_fraction(corr[rows[0]] * corr[rows[0]]);
        self.objectives
            .iter()
            .map(|t| {
                let bound = t.variance(cauchy_schwarz);
                if !factored {
                    return bound;
                }
                (t.signal_var * (1.0 - q + SUBSET_SLACK)).min(bound).max(0.0)
            })
            .collect()
    }

    /// Appends `point`'s correlations with the training rows past
    /// `corr.len()`, so a correlation vector taken before some extends
    /// becomes current — each entry bit-identical to
    /// [`GaussianProcess::cross_correlations`]'.
    ///
    /// # Panics
    ///
    /// Panics if `corr` has more entries than there are training rows or
    /// `point` has the wrong dimension.
    pub(crate) fn extend_correlations(&self, point: &[f64], corr: &mut Vec<f64>) {
        let (old, n) = (corr.len(), self.x.len());
        assert!(old <= n, "correlations taken against a larger training set");
        assert_eq!(point.len(), self.x[0].len(), "dimension mismatch");
        let scale = kernel_scale(self.lengthscale_sq);
        corr.extend(self.x[old..].iter().map(|xi| (sq_dist(xi, point) * scale).exp()));
    }
}

/// The variance fraction `1 − max cᵢ²/(1 + RELATIVE_NOISE)` of
/// [`GaussianProcess::optimistic_moments`]' Cauchy–Schwarz bound.
fn cauchy_schwarz_fraction(max_corr_sq: f64) -> f64 {
    1.0 - max_corr_sq / (1.0 + RELATIVE_NOISE)
}

/// Training rows in the subset of
/// [`GaussianProcess::subset_variance_bounds`]: enough to capture the
/// few rows that dominate a query's variance, few enough that the
/// `p × p` factorization costs far less than one `n`-row solve.
const SUBSET_ROWS: usize = 8;

/// Slack on the variance fraction
/// `1 − c_Sᵀ(C_SS + RELATIVE_NOISE·I)⁻¹c_S` of
/// [`GaussianProcess::subset_variance_bounds`]. Both that quadratic form
/// and the exact path's `Σv²` have condition numbers bounded by
/// `(n + RELATIVE_NOISE)/RELATIVE_NOISE`, so their roundoff is of
/// order `κ·ε`, about `3e-10` at `n = 256`, well below the slack. The
/// slack loosens the bound's standard deviation by a relative
/// `1e-8/(2(1 − q))`, negligible unless the query nearly coincides with
/// training rows.
const SUBSET_SLACK: f64 = 1e-8;

/// Fills `rows` with the indices of the largest entries of `corr`,
/// largest first, ties by lower index, and returns how many it filled
/// (`min(rows.len(), corr.len())`).
fn most_correlated(corr: &[f64], rows: &mut [usize]) -> usize {
    let mut len = 0;
    for (i, &c) in corr.iter().enumerate() {
        if len == rows.len() && c <= corr[rows[len - 1]] {
            continue;
        }
        let at = rows[..len].partition_point(|&t| corr[t] >= c);
        len = (len + 1).min(rows.len());
        rows.copy_within(at..len - 1, at + 1);
        rows[at] = i;
    }
    len
}

/// Ridge added to the inducing correlation matrix `C_mm` before
/// factorization — far below the observation noise, just enough to keep
/// near-duplicate inducing points factorizable.
const INDUCING_RIDGE: f64 = 1e-8;

/// A low-rank sparse Gaussian process (Nyström / inducing-point, the DTC
/// approximation of Quiñonero-Candela & Rasmussen 2005) over normalized
/// inputs, held in the same correlation form as [`GaussianProcess`] and,
/// like it, carrying one posterior per objective.
///
/// With `m` inducing points `Z` chosen deterministically from the `n`
/// training inputs (greedy farthest-point, see
/// [`SparseGaussianProcess::fit_pack`]), the training correlations
/// `C_nm` enter only through the `m×m` system
/// `A = C_mm + λ⁻¹·C_nmᵀC_nm` (λ is the relative noise, playing the
/// exact GP's jitter role). Predictions then cost O(m) dot products and
/// two O(m²) triangular solves per query:
///
/// * mean: `ȳ + k_xᵀ·w` with `w = λ⁻¹·A⁻¹·C_nmᵀ(y − ȳ)`,
/// * variance: `σ²·(1 − ‖L_mm⁻¹k_x‖² + ‖L_A⁻¹k_x‖²)`, clamped at zero,
///
/// where `k_x` is the query's correlation vector against `Z`. Fitting is
/// O(n·m²), appending one observation is O(m²) (a rank-1 Cholesky
/// update of `L_A`) plus an O(n·m) weight refresh per objective, and a
/// wholesale target change ([`SparseGaussianProcess::retarget`]) is
/// O(n·m) per objective. With `Z` equal to the full training set the
/// approximation is exact: DTC then reproduces the exact GP's noisy
/// posterior identically (up to the tiny `C_mm` ridge), which is the
/// accuracy contract the property tests pin down.
///
/// λ is the fixed `RELATIVE_NOISE`, so `A`, its factor `L_A` and the
/// variance form `L_D` depend only on the inputs, the inducing set and
/// the lengthscale: the pack's objectives share them, along with `C_nm`
/// and the candidate correlation panel against `Z`, and keep only their
/// own `ȳ`, `σ²` and `w`. One quadratic form per query serves every
/// objective's variance.
#[derive(Debug, Clone)]
pub struct SparseGaussianProcess {
    /// Inducing inputs `Z` (clones of selected training points).
    inducing: Vec<Vec<f64>>,
    /// Training-to-inducing correlations `C_nm` (kept for retargeting).
    cnm: Matrix,
    /// Cholesky factor of `C_mm + INDUCING_RIDGE·I`.
    l_mm: Matrix,
    /// `C_mm⁻¹ = L_mm⁻ᵀL_mm⁻¹`, frozen with `L_mm` between fits, so an
    /// extend rebuilds [`variance_form`] without re-inverting it.
    cmm_inv: Matrix,
    /// Cholesky factor of `A = C_mm + ridge·I + λ⁻¹·C_nmᵀC_nm`.
    l_a: Matrix,
    /// Cholesky factor `L_D` of the PSD variance form
    /// `D = C_mm⁻¹ − A⁻¹` (plus [`INDUCING_RIDGE`]·I), so the posterior
    /// variance is `σ²(1 − ‖L_Dᵀc‖²)` — one dependency-free triangular
    /// product per query instead of two triangular solves. `None` when
    /// `D` is too close to singular to factor; batched predictions then
    /// fall back to the solve-based form.
    var_form_l: Option<Matrix>,
    /// Per objective: targets, `ȳ`, `σ²` and the posterior mean weights
    /// `w = λ⁻¹·A⁻¹·C_nmᵀ(y − ȳ)`.
    objectives: Vec<Targets>,
    lengthscale_sq: f64,
}

impl SparseGaussianProcess {
    /// Fits a single-objective sparse GP with at most `inducing` inducing
    /// points, using the same median-pairwise-distance lengthscale
    /// heuristic as [`GaussianProcess::fit`].
    ///
    /// # Errors
    ///
    /// Same taxonomy as [`GaussianProcess::fit`].
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        inducing: usize,
    ) -> Result<SparseGaussianProcess, GpError> {
        validate_training(x, y)?;
        SparseGaussianProcess::fit_with_lengthscale(x, y, median_sq_dist(x), inducing)
    }

    /// Fits a single-objective sparse GP at an explicitly chosen squared
    /// lengthscale: a one-objective [`SparseGaussianProcess::fit_pack`].
    ///
    /// # Errors
    ///
    /// Same taxonomy as [`GaussianProcess::fit`].
    pub fn fit_with_lengthscale(
        x: &[Vec<f64>],
        y: &[f64],
        lengthscale_sq: f64,
        inducing: usize,
    ) -> Result<SparseGaussianProcess, GpError> {
        SparseGaussianProcess::fit_pack(x, &[y.to_vec()], lengthscale_sq, inducing)
    }

    /// Fits a sparse surrogate pack: one posterior per target vector in
    /// `ys`, all on inputs `x` at one squared lengthscale and inducing
    /// set, sharing every factorization.
    ///
    /// Inducing points are selected deterministically from the training
    /// inputs by greedy farthest-point traversal: start from index 0,
    /// repeatedly take the point with the largest squared distance to
    /// the chosen set (first maximum wins on ties), and stop early when
    /// every remaining point duplicates a chosen one. The selection
    /// depends only on the training inputs, so refits over the same
    /// archive are reproducible bit-for-bit.
    ///
    /// # Errors
    ///
    /// Same taxonomy as [`GaussianProcess::fit_pack`].
    pub fn fit_pack(
        x: &[Vec<f64>],
        ys: &[Vec<f64>],
        lengthscale_sq: f64,
        inducing: usize,
    ) -> Result<SparseGaussianProcess, GpError> {
        validate_pack(x, ys)?;
        let n = x.len();
        let lengthscale_sq = lengthscale_sq.max(1e-6);
        let scale = kernel_scale(lengthscale_sq);

        let inducing = select_inducing(x, inducing.clamp(2, n));
        let m = inducing.len();
        let cnm = correlation_panel(x, &inducing, scale);
        let mut cmm = correlation_panel(&inducing, &inducing, scale);
        for i in 0..m {
            cmm[(i, i)] += INDUCING_RIDGE;
        }
        let l_mm = cmm.cholesky().ok_or(GpError::NotPositiveDefinite)?;
        let b = cnm.gram();
        let a = Matrix::from_fn(m, m, |i, j| cmm[(i, j)] + b[(i, j)] / RELATIVE_NOISE);
        let l_a = a.cholesky().ok_or(GpError::NotPositiveDefinite)?;
        let cmm_inv = l_mm.invert_lower().gram_of_lower();
        let var_form_l = variance_form(&cmm_inv, &l_a);

        let mut gp = SparseGaussianProcess {
            inducing,
            cnm,
            l_mm,
            cmm_inv,
            l_a,
            var_form_l,
            objectives: ys.iter().map(|y| Targets::new(y.clone())).collect(),
            lengthscale_sq,
        };
        gp.solve_targets();
        Ok(gp)
    }

    /// Recomputes every objective's target-dependent state (mean, signal
    /// variance, and the posterior weights `w`) against the shared
    /// factorizations — O(n·m + m²) each.
    fn solve_targets(&mut self) {
        for targets in &mut self.objectives {
            let centred = targets.centre();
            let t = self.cnm.transpose_mul_vec(&centred);
            let u = self.l_a.solve_lower(&t);
            let v = self.l_a.solve_lower_transpose(&u);
            targets.weights = v.into_iter().map(|wi| wi / RELATIVE_NOISE).collect();
        }
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.cnm.rows()
    }

    /// True when the GP has no training points (never constructed this
    /// way, but part of the `len`/`is_empty` contract).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of objectives (posteriors) the pack carries.
    pub fn objective_count(&self) -> usize {
        self.objectives.len()
    }

    /// Number of inducing points actually in use.
    pub fn inducing_count(&self) -> usize {
        self.inducing.len()
    }

    /// The squared lengthscale currently in effect (frozen between fits).
    pub fn lengthscale_sq(&self) -> f64 {
        self.lengthscale_sq
    }

    /// Posterior mean and variance at `point`, one pair per objective: a
    /// batch of one through [`SparseGaussianProcess::predict_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `point` has the wrong dimension.
    pub fn predict(&self, point: &[f64]) -> Vec<(f64, f64)> {
        self.predict_batch(&[point.to_vec()]).swap_remove(0)
    }

    /// Kernel correlation matrix between the *inducing* inputs and a
    /// batch of query points (`m` inducing rows × query columns) — the
    /// sparse analogue of [`GaussianProcess::cross_correlations`].
    ///
    /// # Panics
    ///
    /// Panics if any query point has the wrong dimension.
    pub fn cross_correlations(&self, points: &[impl AsRef<[f64]>]) -> Matrix {
        let dim = self.inducing[0].len();
        for p in points {
            assert_eq!(p.as_ref().len(), dim, "dimension mismatch");
        }
        correlation_panel(&self.inducing, points, kernel_scale(self.lengthscale_sq))
    }

    /// Batched posterior `(mean, variance)` per query column of a
    /// precomputed inducing-correlation matrix, one pair per objective.
    /// Each objective's means are column `j`'s ascending dot with its
    /// weights `w`. The variances share one quadratic form per column:
    /// `σ²(1 − ‖L_Dᵀc_j‖²)` through the variance form, or
    /// `σ²(1 − ‖L_mm⁻¹c_j‖² + ‖L_A⁻¹c_j‖²)` when it failed to factor.
    ///
    /// # Panics
    ///
    /// Panics if `corr.rows()` differs from the inducing count.
    pub fn predict_batch_from_correlations(&self, corr: &Matrix) -> Vec<Vec<(f64, f64)>> {
        let m = self.inducing.len();
        assert_eq!(corr.rows(), m, "correlation matrix has wrong row count");
        let cols = corr.cols();
        let means: Vec<Vec<f64>> = self
            .objectives
            .iter()
            .map(|t| {
                let mut means = vec![0.0f64; cols];
                for (i, &wi) in t.weights.iter().enumerate() {
                    for (mean, &c) in means.iter_mut().zip(corr.row(i)) {
                        *mean += c * wi;
                    }
                }
                means.into_iter().map(|mean| mean + t.mean_y).collect()
            })
            .collect();
        let fractions: Vec<f64> = match &self.var_form_l {
            // One fused triangular product against the precomputed PSD
            // form instead of two triangular solves — half the flops, no
            // sequential dependency between rows, and no intermediate
            // `m×cols` matrix (the quadratic form is squared into the
            // output as each product row is produced).
            Some(ld) => {
                ld.transpose_mul_sumsq_columns(corr).into_iter().map(|qv| 1.0 - qv).collect()
            }
            None => {
                let q = self.l_mm.solve_lower_columns(corr);
                let s = self.l_a.solve_lower_columns(corr);
                let mut qss = vec![0.0f64; cols];
                let mut sss = vec![0.0f64; cols];
                for i in 0..m {
                    for (acc, &v) in qss.iter_mut().zip(q.row(i)) {
                        *acc += v * v;
                    }
                    for (acc, &v) in sss.iter_mut().zip(s.row(i)) {
                        *acc += v * v;
                    }
                }
                qss.into_iter().zip(sss).map(|(qv, sv)| 1.0 - qv + sv).collect()
            }
        };
        fractions
            .into_iter()
            .enumerate()
            .map(|(j, fraction)| {
                self.objectives
                    .iter()
                    .zip(&means)
                    .map(|(t, means)| (means[j], t.variance(fraction)))
                    .collect()
            })
            .collect()
    }

    /// Batched posterior mean and variance for a pool of query points,
    /// one pair per objective for each point; each output depends only
    /// on its own point, so it is bit-identical to `predict(&points[j])`.
    ///
    /// # Panics
    ///
    /// Panics if any query point has the wrong dimension.
    pub fn predict_batch(&self, points: &[Vec<f64>]) -> Vec<Vec<(f64, f64)>> {
        self.predict_batch_from_correlations(&self.cross_correlations(points))
    }

    /// Appends one observation — `x_new` with one target per objective —
    /// in O(m³) once plus O(n·m) per objective: the new point's inducing
    /// correlations `c` enter `A` as the rank-1 term `λ⁻¹·c·cᵀ` (an
    /// *additive* Cholesky update of `L_A`, so positive definiteness is
    /// preserved unconditionally), the variance form is rebuilt, and each
    /// objective's weights are refreshed against the stored `C_nm`. The
    /// inducing set and lengthscale stay frozen until the next milestone
    /// refit.
    ///
    /// Returns `false` — leaving the GP unchanged — unless `ys` holds one
    /// finite target per objective and `x_new` is finite, or on a
    /// numerically degenerate update.
    ///
    /// # Panics
    ///
    /// Panics if `x_new` has the wrong dimension.
    pub fn extend(&mut self, x_new: &[f64], ys: &[f64]) -> bool {
        assert_eq!(x_new.len(), self.inducing[0].len(), "dimension mismatch");
        if !all_finite(ys, self.objectives.len()) || x_new.iter().any(|v| !v.is_finite()) {
            return false;
        }
        let scale = kernel_scale(self.lengthscale_sq);
        let inv_sqrt_noise = 1.0 / RELATIVE_NOISE.sqrt();
        let ok = with_kernel_scratch(|c, v| {
            kernel_vector_into(&self.inducing, x_new, scale, c);
            v.clear();
            v.extend(c.iter().map(|ci| ci * inv_sqrt_noise));
            if !self.l_a.rank1_update_lower(v) {
                return false;
            }
            self.cnm.push_row(c);
            true
        });
        if !ok {
            return false;
        }
        for (targets, &y) in self.objectives.iter_mut().zip(ys) {
            targets.y.push(y);
        }
        self.var_form_l = variance_form(&self.cmm_inv, &self.l_a);
        self.solve_targets();
        true
    }

    /// Replaces every objective's training targets in place, reusing the
    /// factorizations — O(n·m) per objective instead of the O(n·m²)
    /// refit. The sparse analogue of [`GaussianProcess::retarget`].
    ///
    /// Returns `false` — leaving the GP unchanged — when `ys` does not
    /// hold one target vector per objective of the training size, or
    /// holds a non-finite value.
    pub fn retarget(&mut self, ys: &[Vec<f64>]) -> bool {
        if !replace_targets(&mut self.objectives, ys, self.cnm.rows()) {
            return false;
        }
        self.solve_targets();
        true
    }
}

/// Cholesky factor of the sparse posterior's variance form
/// `D = C_mm⁻¹ − A⁻¹` (ridged by [`INDUCING_RIDGE`]). `A ⪰ C_mm` makes
/// `D` PSD, so the factorization exists up to roundoff; `None` signals
/// the caller to fall back to the solve-based variance. O(m³) — paid
/// once per fit/extend, amortized over every subsequent batched query.
/// `cmm_inv` is `C_mm⁻¹`, computed once per fit (`L_mm` only changes
/// there).
fn variance_form(cmm_inv: &Matrix, l_a: &Matrix) -> Option<Matrix> {
    let m = cmm_inv.rows();
    // A⁻¹ = YᵀY for Y = L_A⁻¹.
    let gy = l_a.invert_lower().gram_of_lower();
    let d = Matrix::from_fn(m, m, |i, j| {
        cmm_inv[(i, j)] - gy[(i, j)] + if i == j { INDUCING_RIDGE } else { 0.0 }
    });
    d.cholesky()
}

/// Greedy farthest-point inducing selection: deterministic, O(n·m·d),
/// first maximum wins on ties, stops early when every remaining point
/// duplicates a chosen one.
fn select_inducing(x: &[Vec<f64>], m: usize) -> Vec<Vec<f64>> {
    let mut chosen: Vec<usize> = Vec::with_capacity(m);
    chosen.push(0);
    let mut min_d: Vec<f64> = x.iter().map(|p| sq_dist(p, &x[0])).collect();
    while chosen.len() < m {
        let mut best = 0usize;
        let mut best_d = -1.0f64;
        for (i, &dv) in min_d.iter().enumerate() {
            if dv > best_d {
                best_d = dv;
                best = i;
            }
        }
        if best_d <= 0.0 {
            break;
        }
        chosen.push(best);
        for (i, dv) in min_d.iter_mut().enumerate() {
            let d = sq_dist(&x[i], &x[best]);
            if d < *dv {
                *dv = d;
            }
        }
    }
    chosen.into_iter().map(|i| x[i].clone()).collect()
}

/// The median-pairwise-distance lengthscale heuristic: the median
/// squared distance over all pairs of `x` (via selection, matching the
/// sorted-middle convention), floored at `1e-6`; 1.0 with fewer than two
/// points.
pub(crate) fn median_sq_dist(x: &[Vec<f64>]) -> f64 {
    let n = x.len();
    let mut dists: Vec<f64> = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            dists.push(sq_dist(&x[i], &x[j]));
        }
    }
    if dists.is_empty() {
        return 1.0;
    }
    let mid = dists.len() / 2;
    let (_, m, _) = dists.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    (*m).max(1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points() {
        let x = grid1d(8);
        let y: Vec<f64> = x.iter().map(|p| (4.0 * p[0]).sin()).collect();
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let (m, v) = gp.predict(xi)[0];
            assert!((m - yi).abs() < 1e-2, "mean {m} vs {yi}");
            assert!(v < 1e-2, "variance {v} at training point");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let x = vec![vec![0.0], vec![0.1], vec![0.2]];
        let y = vec![0.0, 0.1, 0.2];
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        let (_, v_near) = gp.predict(&[0.1])[0];
        let (_, v_far) = gp.predict(&[5.0])[0];
        assert!(v_far > v_near);
    }

    #[test]
    fn prediction_reasonable_between_points() {
        let x = grid1d(16);
        let y: Vec<f64> = x.iter().map(|p| p[0] * p[0]).collect();
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        let (m, _) = gp.predict(&[0.5])[0];
        assert!((m - 0.25).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn too_few_points_is_an_error() {
        assert!(matches!(
            GaussianProcess::fit(&[vec![0.0]], &[1.0]),
            Err(GpError::TooFewPoints { got: 1 })
        ));
        assert!(matches!(GaussianProcess::fit(&[], &[]), Err(GpError::TooFewPoints { got: 0 })));
    }

    #[test]
    fn mismatched_lengths_are_an_error() {
        let r = GaussianProcess::fit(&[vec![0.0], vec![1.0]], &[1.0]);
        assert!(matches!(r, Err(GpError::DimensionMismatch { .. })));
        let r =
            GaussianProcess::fit_with_lengthscale(&[vec![0.0], vec![1.0, 2.0]], &[1.0, 2.0], 0.5);
        assert!(matches!(r, Err(GpError::DimensionMismatch { .. })));
    }

    #[test]
    fn non_finite_training_data_is_an_error() {
        let x = vec![vec![0.0], vec![0.5], vec![1.0]];
        let y = vec![0.0, f64::NAN, 1.0];
        assert!(matches!(GaussianProcess::fit(&x, &y), Err(GpError::NonFiniteInput)));
        let x = vec![vec![0.0], vec![f64::INFINITY]];
        assert!(matches!(GaussianProcess::fit(&x, &[0.0, 1.0]), Err(GpError::NonFiniteInput)));
    }

    #[test]
    fn constant_targets_are_handled() {
        let x = grid1d(5);
        let y = vec![3.0; 5];
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        let (m, _) = gp.predict(&[0.5])[0];
        assert!((m - 3.0).abs() < 1e-6);
    }

    #[test]
    fn len_reports_training_size() {
        let x = grid1d(5);
        let y = vec![0.0; 5];
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        assert_eq!(gp.len(), 5);
        assert!(!gp.is_empty());
    }

    #[test]
    fn extend_matches_full_refit_at_same_lengthscale() {
        let x = grid1d(10);
        let y: Vec<f64> = x.iter().map(|p| (3.0 * p[0]).cos() + 0.5 * p[0]).collect();
        // Fit on the first 6 points, extend with the remaining 4.
        let mut inc = GaussianProcess::fit(&x[..6], &y[..6]).unwrap();
        let ls = inc.lengthscale_sq();
        for i in 6..10 {
            assert!(inc.extend(&x[i], &[y[i]]), "extension failed at {i}");
        }
        let full = GaussianProcess::fit_with_lengthscale(&x, &y, ls).unwrap();
        for q in [0.05, 0.33, 0.61, 0.97] {
            let (mi, vi) = inc.predict(&[q])[0];
            let (mf, vf) = full.predict(&[q])[0];
            assert!((mi - mf).abs() < 1e-8, "mean {mi} vs {mf} at {q}");
            assert!((vi - vf).abs() < 1e-8, "var {vi} vs {vf} at {q}");
        }
        assert_eq!(inc.len(), 10);
    }

    #[test]
    fn extend_rejects_near_duplicate_without_corruption() {
        let x = vec![vec![0.0], vec![0.5], vec![1.0]];
        let y = vec![0.0, 1.0, 0.0];
        let mut gp = GaussianProcess::fit(&x, &y).unwrap();
        let before = gp.predict(&[0.25])[0];
        // A near-exact duplicate may be rejected; the GP must be unchanged
        // in that case.
        if !gp.extend(&[0.5 + 1e-15], &[1.0]) {
            let after = gp.predict(&[0.25])[0];
            assert_eq!(before, after);
            assert_eq!(gp.len(), 3);
        }
    }

    /// Ascending dot product from `0.0` — the accumulation order every
    /// batched mean promises.
    fn ascending_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
    }

    /// Squares summed in ascending order from `0.0`.
    fn ascending_sumsq(v: &[f64]) -> f64 {
        v.iter().fold(0.0, |acc, w| acc + w * w)
    }

    /// Per-point kernel vector, entry by entry through `f64::exp`.
    fn kernel_column(rows: &[Vec<f64>], point: &[f64], lengthscale_sq: f64) -> Vec<f64> {
        rows.iter().map(|r| (sq_dist(r, point) * kernel_scale(lengthscale_sq)).exp()).collect()
    }

    /// Exact-GP posterior of every objective for one point from the GP's
    /// own state: a per-column `Matrix::solve_lower` and ascending dots.
    fn exact_reference(gp: &GaussianProcess, point: &[f64]) -> Vec<(f64, f64)> {
        let c = kernel_column(&gp.x, point, gp.lengthscale_sq);
        let v = gp.chol.solve_lower(&c);
        gp.objectives
            .iter()
            .map(|t| {
                (
                    t.mean_y + ascending_dot(&c, &t.weights),
                    (t.signal_var * (1.0 - ascending_sumsq(&v))).max(0.0),
                )
            })
            .collect()
    }

    #[test]
    fn predict_batch_matches_scalar_predict_bitwise() {
        let x: Vec<Vec<f64>> =
            (0..9).map(|i| vec![i as f64 / 8.0, (i * i % 5) as f64 / 4.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (3.0 * p[0]).sin() + p[1] * p[1]).collect();
        let mut gp = GaussianProcess::fit(&x[..6], &y[..6]).unwrap();
        for i in 6..9 {
            assert!(gp.extend(&x[i], &[y[i]]));
        }
        // Pool larger than the solve's column block, including exact
        // training points (variance clamp at 0) and far-away queries.
        let pool: Vec<Vec<f64>> = (0..70)
            .map(|j| vec![(j as f64 * 0.37) % 1.3, (j as f64 * 0.51) % 1.1 - 0.2])
            .chain(x.iter().cloned())
            .collect();
        let batch = gp.predict_batch(&pool);
        assert_eq!(batch.len(), pool.len());
        for (p, preds) in pool.iter().zip(&batch) {
            let (bm, bv) = preds[0];
            let (m, v) = exact_reference(&gp, p)[0];
            assert_eq!(bm.to_bits(), m.to_bits(), "mean at {p:?}");
            assert_eq!(bv.to_bits(), v.to_bits(), "variance at {p:?}");
            assert_eq!(&gp.predict(p), preds, "batch of one at {p:?}");
        }
    }

    #[test]
    fn pack_predicts_what_each_objective_alone_predicts() {
        // Two objectives on the same inputs and lengthscale — the
        // surrogate-pack invariant. One factor, cross-correlation matrix
        // and solve serve both, bit-identically to a GP fitted to each
        // objective alone.
        let x = grid1d(7);
        let y1: Vec<f64> = x.iter().map(|p| p[0] * p[0]).collect();
        let y2: Vec<f64> = x.iter().map(|p| (5.0 * p[0]).cos()).collect();
        let ls = median_sq_dist(&x);
        let pack = GaussianProcess::fit_pack(&x, &[y1.clone(), y2.clone()], ls).unwrap();
        let alone = [y1, y2].map(|y| GaussianProcess::fit_with_lengthscale(&x, &y, ls).unwrap());
        let pool: Vec<Vec<f64>> = (0..11).map(|j| vec![j as f64 * 0.09 - 0.05]).collect();
        for (p, preds) in pool.iter().zip(pack.predict_batch(&pool)) {
            for (gp, got) in alone.iter().zip(preds) {
                let (m, v) = exact_reference(gp, p)[0];
                assert_eq!(got.0.to_bits(), m.to_bits());
                assert_eq!(got.1.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn query_correlations_transpose_cross_correlations_bitwise() {
        // Wider and taller than one panel tile, with negative and
        // repeated coordinates.
        let x: Vec<Vec<f64>> = (0..150)
            .map(|i| vec![(i as f64 * 0.29) % 1.1 - 0.3, (i * i % 13) as f64 / 6.0, 0.5])
            .collect();
        let y: Vec<f64> = x.iter().map(|p| p[0] - p[1]).collect();
        let pool: Vec<Vec<f64>> = (0..140)
            .map(|j| vec![(j as f64 * 0.43) % 1.7 - 0.5, (j % 7) as f64 / 3.0, -0.25])
            .chain(x.iter().take(5).cloned())
            .collect();
        let gp = GaussianProcess::fit_with_lengthscale(&x, &y, 0.3).unwrap();
        let (cross, query) = (gp.cross_correlations(&pool), gp.query_correlations(&pool));
        assert_eq!((query.rows(), query.cols()), (pool.len(), x.len()));
        for j in 0..pool.len() {
            for i in 0..x.len() {
                assert_eq!(query[(j, i)].to_bits(), cross[(i, j)].to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn predict_batch_empty_pool_is_empty() {
        let x = grid1d(4);
        let y = vec![0.0, 1.0, 0.5, 0.25];
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        assert!(gp.predict_batch(&[]).is_empty());
    }

    #[test]
    fn median_sq_dist_matches_sorted_middle() {
        let pts: Vec<Vec<f64>> =
            (0..9).map(|i| vec![(i * i % 7) as f64 * 0.13, i as f64 * 0.1]).collect();
        // Direct computation, seed convention: sort all pairs, take mid.
        let mut dists = Vec::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                dists.push(sq_dist(&pts[i], &pts[j]));
            }
        }
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect = dists[dists.len() / 2].max(1e-6);
        assert_eq!(median_sq_dist(&pts), expect);
        assert_eq!(median_sq_dist(&pts[..1]), 1.0);
        assert_eq!(median_sq_dist(&[]), 1.0);
    }

    #[test]
    fn fit_uses_median_heuristic() {
        let x = grid1d(7);
        let y: Vec<f64> = x.iter().map(|p| p[0]).collect();
        let gp = GaussianProcess::fit(&x, &y).unwrap();
        assert_eq!(gp.lengthscale_sq(), median_sq_dist(&x));
        let sparse = SparseGaussianProcess::fit(&x, &y, 4).unwrap();
        assert_eq!(sparse.lengthscale_sq(), median_sq_dist(&x));
    }

    #[test]
    fn sparse_with_all_inducing_matches_exact() {
        // DTC with the inducing set equal to the full training set is the
        // exact noisy GP posterior, up to the tiny C_mm ridge. This is the
        // strongest accuracy anchor the sparse path has.
        let x: Vec<Vec<f64>> =
            (0..24).map(|i| vec![(i * 7 % 24) as f64 / 23.0, (i * 5 % 24) as f64 / 23.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (4.0 * p[0]).sin() - p[1] * p[1]).collect();
        let exact = GaussianProcess::fit(&x, &y).unwrap();
        let sparse =
            SparseGaussianProcess::fit_with_lengthscale(&x, &y, exact.lengthscale_sq(), x.len())
                .unwrap();
        assert_eq!(sparse.inducing_count(), x.len());
        for q in [[0.1, 0.9], [0.45, 0.2], [0.77, 0.61], [1.3, -0.2]] {
            let (me, ve) = exact.predict(&q)[0];
            let (ms, vs) = sparse.predict(&q)[0];
            assert!((me - ms).abs() < 1e-5, "mean {me} vs {ms} at {q:?}");
            assert!((ve - vs).abs() < 1e-5, "var {ve} vs {vs} at {q:?}");
        }
    }

    #[test]
    fn sparse_low_rank_tracks_exact_closely() {
        // Under-complete inducing set on a smooth function: predictions
        // must stay close to exact even at m = n/4.
        let x = grid1d(32);
        let y: Vec<f64> = x.iter().map(|p| (2.0 * p[0]).sin()).collect();
        let exact = GaussianProcess::fit(&x, &y).unwrap();
        let sparse =
            SparseGaussianProcess::fit_with_lengthscale(&x, &y, exact.lengthscale_sq(), 8).unwrap();
        assert_eq!(sparse.inducing_count(), 8);
        for q in [0.05, 0.31, 0.62, 0.94] {
            let (me, _) = exact.predict(&[q])[0];
            let (ms, _) = sparse.predict(&[q])[0];
            assert!((me - ms).abs() < 1e-2, "mean {me} vs {ms} at {q}");
        }
    }

    /// Sparse posterior for one point from the GP's own state: an
    /// ascending dot for the mean, and for the variance either the
    /// variance form `‖L_Dᵀc‖²` (each entry an ascending sum over
    /// `k ≥ i`) or, without one, per-column solves against `L_mm` and
    /// `L_A`.
    fn sparse_reference(gp: &SparseGaussianProcess, point: &[f64]) -> (f64, f64) {
        let c = kernel_column(&gp.inducing, point, gp.lengthscale_sq);
        let t = &gp.objectives[0];
        let mean = ascending_dot(&c, &t.weights) + t.mean_y;
        let var = match &gp.var_form_l {
            Some(ld) => {
                let u: Vec<f64> = (0..c.len())
                    .map(|i| (i..c.len()).fold(0.0, |acc, k| acc + ld[(k, i)] * c[k]))
                    .collect();
                t.signal_var * (1.0 - ascending_sumsq(&u))
            }
            None => {
                let q = ascending_sumsq(&gp.l_mm.solve_lower(&c));
                let s = ascending_sumsq(&gp.l_a.solve_lower(&c));
                t.signal_var * (1.0 - q + s)
            }
        };
        (mean, var.max(0.0))
    }

    #[test]
    fn sparse_batch_matches_scalar_bitwise() {
        let x: Vec<Vec<f64>> =
            (0..20).map(|i| vec![i as f64 / 19.0, (i * 3 % 7) as f64 / 6.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| p[0] - p[1] * p[1]).collect();
        let mut gp = SparseGaussianProcess::fit(&x, &y, 6).unwrap();
        let pool: Vec<Vec<f64>> = (0..70)
            .map(|j| vec![(j as f64 * 0.41) % 1.2, (j as f64 * 0.23) % 1.0])
            .chain(x.iter().cloned())
            .collect();
        assert!(gp.var_form_l.is_some());
        for form in ["variance form", "two-solve form"] {
            let batch = gp.predict_batch(&pool);
            assert_eq!(batch.len(), pool.len());
            for (p, preds) in pool.iter().zip(&batch) {
                let (bm, bv) = preds[0];
                let (m, v) = sparse_reference(&gp, p);
                assert_eq!(bm.to_bits(), m.to_bits(), "{form}: mean at {p:?}");
                assert_eq!(bv.to_bits(), v.to_bits(), "{form}: variance at {p:?}");
                assert_eq!(&gp.predict(p), preds, "{form}: batch of one at {p:?}");
            }
            // The second pass covers the fallback taken when the
            // variance form fails to factor.
            gp.var_form_l = None;
        }
    }

    #[test]
    fn sparse_extend_matches_full_sparse_refit() {
        let x = grid1d(16);
        let y: Vec<f64> = x.iter().map(|p| (3.0 * p[0]).cos()).collect();
        let mut inc = SparseGaussianProcess::fit(&x[..12], &y[..12], 5).unwrap();
        let ls = inc.lengthscale_sq();
        for i in 12..16 {
            assert!(inc.extend(&x[i], &[y[i]]), "sparse extension failed at {i}");
        }
        assert_eq!(inc.len(), 16);
        // A refit over all 16 points selects its own inducing set, so
        // compare against a refit that reuses the incremental GP's frozen
        // lengthscale and (via the first 12 points) inducing selection.
        let refit = SparseGaussianProcess::fit_with_lengthscale(&x, &y, ls, 5).unwrap();
        for q in [0.08, 0.37, 0.66, 0.91] {
            let (mi, _) = inc.predict(&[q])[0];
            let (mr, _) = refit.predict(&[q])[0];
            assert!((mi - mr).abs() < 5e-2, "mean {mi} vs refit {mr} at {q}");
        }
    }

    #[test]
    fn sparse_extend_rejects_non_finite_unchanged() {
        let x = grid1d(8);
        let y: Vec<f64> = x.iter().map(|p| p[0]).collect();
        let mut gp = SparseGaussianProcess::fit(&x, &y, 4).unwrap();
        let before = gp.predict(&[0.4]);
        assert!(!gp.extend(&[f64::NAN], &[0.0]));
        assert!(!gp.extend(&[0.3], &[f64::INFINITY]));
        assert!(!gp.extend(&[0.3], &[0.1, 0.2]), "one target per objective");
        assert_eq!(gp.predict(&[0.4]), before);
        assert_eq!(gp.len(), 8);
    }

    #[test]
    fn sparse_retarget_matches_fresh_weights() {
        // Retargeting replaces y and refreshes the weights against the
        // frozen factorizations, which depend on no target, so it
        // predicts exactly what a fresh fit at the same lengthscale and
        // inducing set predicts.
        let x = grid1d(12);
        let y1: Vec<f64> = x.iter().map(|p| p[0]).collect();
        let y2: Vec<f64> = x.iter().map(|p| (6.0 * p[0]).sin()).collect();
        let mut gp = SparseGaussianProcess::fit(&x, &y1, x.len()).unwrap();
        assert!(gp.retarget(std::slice::from_ref(&y2)));
        let fresh =
            SparseGaussianProcess::fit_with_lengthscale(&x, &y2, gp.lengthscale_sq(), x.len())
                .unwrap();
        for q in [0.11, 0.48, 0.83] {
            assert_eq!(gp.predict(&[q]), fresh.predict(&[q]), "at {q}");
        }
        // Bad inputs leave the GP untouched.
        let before = gp.predict(&[0.4]);
        assert!(!gp.retarget(&[y2[..5].to_vec()]));
        assert!(!gp.retarget(&[vec![f64::NAN; 12]]));
        assert!(!gp.retarget(&[y2.clone(), y2]), "one target vector per objective");
        assert_eq!(gp.predict(&[0.4]), before);
    }

    #[test]
    fn inducing_selection_collapses_duplicates() {
        let mut x = grid1d(4);
        x.push(x[1].clone());
        x.push(x[2].clone());
        let y = vec![0.0, 1.0, 2.0, 3.0, 1.0, 2.0];
        let gp = SparseGaussianProcess::fit(&x, &y, 6).unwrap();
        // Only 4 distinct locations exist, so farthest-point selection
        // stops early instead of ridging duplicate inducing rows.
        assert_eq!(gp.inducing_count(), 4);
        let (m, _) = gp.predict(&[x[1][0]])[0];
        assert!((m - 1.0).abs() < 0.2, "mean {m} at duplicated point");
    }

    #[test]
    fn exact_retarget_reuses_factorization() {
        let x = grid1d(9);
        let y1: Vec<f64> = x.iter().map(|p| p[0]).collect();
        let y2: Vec<f64> = x.iter().map(|p| (4.0 * p[0]).cos()).collect();
        let mut gp = GaussianProcess::fit(&x, &y1).unwrap();
        assert!(gp.retarget(std::slice::from_ref(&y2)));
        // Same factorization, new targets: the factor depends on no
        // target, so the result is exactly a fresh fit's.
        let fresh = GaussianProcess::fit_with_lengthscale(&x, &y2, gp.lengthscale_sq()).unwrap();
        for q in [0.15, 0.52, 0.88] {
            let (mr, vr) = gp.predict(&[q])[0];
            let (mf, vf) = fresh.predict(&[q])[0];
            assert_eq!((mr.to_bits(), vr.to_bits()), (mf.to_bits(), vf.to_bits()), "at {q}");
        }
        let before = gp.predict(&[0.3]);
        assert!(!gp.retarget(&[y2[..4].to_vec()]));
        assert!(!gp.retarget(&[vec![f64::NAN; 9]]));
        assert!(!gp.retarget(&[y2.clone(), y2]), "one target vector per objective");
        assert_eq!(gp.predict(&[0.3]), before);
    }
}
