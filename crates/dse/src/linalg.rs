//! Minimal dense linear algebra for Gaussian-process regression.
//!
//! Implements exactly what the GP needs: symmetric positive-definite
//! Cholesky factorization and triangular solves. Matrices are small (the
//! number of DSE evaluations, typically a few hundred), so a
//! straightforward `O(n^3)` implementation is appropriate.

use autopilot_obs as obs;

/// A dense, row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cholesky factorization `A = L L^T` of a symmetric positive-definite
    /// matrix, returning lower-triangular `L`.
    ///
    /// Returns `None` when the matrix is not (numerically) positive
    /// definite.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn cholesky(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// Solves `L x = b` for lower-triangular `L` (forward substitution).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        self.solve_lower_into(b, &mut x);
        x
    }

    /// [`Matrix::solve_lower`] into a caller-provided buffer (cleared and
    /// resized), so steady-state predict paths reuse scratch instead of
    /// allocating per call. The result is bit-identical to
    /// [`Matrix::solve_lower`] — it *is* the implementation.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn solve_lower_into(&self, b: &[f64], x: &mut Vec<f64>) {
        assert_eq!(self.rows, self.cols);
        assert_eq!(self.rows, b.len());
        x.clear();
        x.reserve(self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            let mut sum = b[i];
            for (l, xk) in row[..i].iter().zip(x.iter()) {
                sum -= l * xk;
            }
            x.push(sum / row[i]);
        }
    }

    /// Solves `L^T x = b` for lower-triangular `L` (backward substitution
    /// on the transpose).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn solve_lower_transpose(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, self.cols);
        assert_eq!(self.rows, b.len());
        let n = self.rows;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = b[i];
            for k in (i + 1)..n {
                sum -= self[(k, i)] * x[k];
            }
            x[i] = sum / self[(i, i)];
        }
        x
    }

    /// Solves `L X = B` for lower-triangular `L` and a multi-column
    /// right-hand side `B` (`n×m`, one column per system), returning `X`
    /// with the same shape.
    ///
    /// Column `j` of the result is **bit-identical** to
    /// `self.solve_lower(column j of B)`: the per-element operation
    /// sequence (initialize from `B`, subtract `L[i][k]·X[k][j]` for
    /// ascending `k`, divide by the diagonal) is unchanged — only the
    /// loop nesting differs. Columns are processed in cache-sized blocks
    /// so the triangular factor streams through the cache once per block
    /// instead of once per column, which is where the batched GP
    /// predictor gets its throughput. Every column counts as one forward
    /// solve in the `bo.gp.forward_solves` counter.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square or `b.rows() != self.rows()`.
    pub fn solve_lower_columns(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.rows, self.cols, "solve_lower_columns requires a square matrix");
        assert_eq!(self.rows, b.rows, "right-hand side has wrong row count");
        let m = b.cols;
        obs::add("bo.gp.forward_solves", m as u64);
        let mut x = Matrix::zeros(self.rows, m);
        // Block width tuned so a block of X (n rows × BLOCK columns of
        // f64) stays resident while the factor streams past it.
        const BLOCK: usize = 64;
        // Narrow panels (the acquisition's solve rounds hold one to eight
        // columns) go in blocks of at most four columns whose width is a
        // constant, so the per-column inner loops unroll instead of
        // running a loop of one to eight.
        const NARROW: usize = 8;
        let block = if m <= NARROW { 4 } else { BLOCK };
        for c0 in (0..m).step_by(block) {
            match block.min(m - c0) {
                1 => self.solve_lower_block::<1>(b, &mut x, c0, 1),
                2 => self.solve_lower_block::<2>(b, &mut x, c0, 2),
                3 => self.solve_lower_block::<3>(b, &mut x, c0, 3),
                4 => self.solve_lower_block::<4>(b, &mut x, c0, 4),
                w => self.solve_lower_block::<BLOCK>(b, &mut x, c0, w),
            }
        }
        x
    }

    /// [`Matrix::solve_lower_columns`] over the `w ≤ W` columns of `b`
    /// from `c0`, into the same columns of `x`.
    #[inline(always)]
    fn solve_lower_block<const W: usize>(&self, b: &Matrix, x: &mut Matrix, c0: usize, w: usize) {
        // Output rows resolved per sweep over the already-solved rows.
        // Forward substitution re-reads every solved row per output row,
        // so resolving RBLK outputs per sweep divides that traffic by
        // RBLK; the accumulators live in stack buffers the whole time.
        const RBLK: usize = 4;
        let (n, m) = (self.rows, b.cols);
        let c1 = c0 + w;
        let mut i0 = 0;
        while i0 < n {
            let r = RBLK.min(n - i0);
            let mut acc = [[0.0f64; W]; RBLK];
            for (ri, a) in acc.iter_mut().enumerate().take(r) {
                let row = (i0 + ri) * m;
                a[..w].copy_from_slice(&b.data[row + c0..row + c1]);
            }
            // Uniform sweep: contributions of the rows solved before
            // this row block, one pass over X for all r outputs.
            // Each output's subtractions still run in ascending k.
            for k in 0..i0 {
                let row_k = &x.data[k * m + c0..k * m + c1];
                for (ri, a) in acc.iter_mut().enumerate().take(r) {
                    let lik = self.data[(i0 + ri) * self.cols + k];
                    for (av, &xv) in a[..w].iter_mut().zip(row_k) {
                        *av -= lik * xv;
                    }
                }
            }
            // Triangular tail among the block's own rows: row ri
            // subtracts the block rows solved just before it (still
            // ascending k), then divides by its diagonal.
            for ri in 0..r {
                let (solved, tail) = acc.split_at_mut(ri);
                let a = &mut tail[0];
                for (kj, row_k) in solved.iter().enumerate() {
                    let lik = self.data[(i0 + ri) * self.cols + (i0 + kj)];
                    for (av, &xv) in a[..w].iter_mut().zip(&row_k[..w]) {
                        *av -= lik * xv;
                    }
                }
                let lii = self.data[(i0 + ri) * self.cols + (i0 + ri)];
                for av in &mut a[..w] {
                    *av /= lii;
                }
            }
            for (ri, a) in acc.iter().enumerate().take(r) {
                let row = (i0 + ri) * m;
                x.data[row + c0..row + c1].copy_from_slice(&a[..w]);
            }
            i0 += r;
        }
    }

    /// Explicit inverse of a lower-triangular matrix by forward
    /// substitution per column — O(n³/6). Used to precompute quadratic
    /// forms (`C⁻¹ = L⁻ᵀL⁻¹`) that turn per-query triangular solves into
    /// dense, dependency-free products.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn invert_lower(&self) -> Matrix {
        assert_eq!(self.rows, self.cols, "invert_lower requires a square matrix");
        let n = self.rows;
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            inv[(j, j)] = 1.0 / self[(j, j)];
            for i in (j + 1)..n {
                let mut sum = 0.0;
                for k in j..i {
                    sum += self[(i, k)] * inv[(k, j)];
                }
                inv[(i, j)] = -sum / self[(i, i)];
            }
        }
        inv
    }

    /// Per-column sum of squares of `Lᵀ·B` for lower-triangular `self`
    /// and a multi-column `B` (`n×m`) — the batched sparse-GP variance
    /// quadratic form.
    ///
    /// Output `j` is `Σᵢ tᵢⱼ²` with `tᵢⱼ = Σₖ L[k][i]·B[k][j]`. Each `tᵢⱼ`
    /// is accumulated from `0.0` over ascending `k ≥ i`, and its square is
    /// added to the column's sum, itself from `0.0`, in ascending `i`.
    /// Product rows live only in a reused block-width buffer (`RBLK` rows
    /// × `BLOCK` columns at a time), so the `n×m` product is never
    /// materialized; the blocking changes no element's accumulation
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square or `b.rows() != self.rows()`.
    pub fn transpose_mul_sumsq_columns(&self, b: &Matrix) -> Vec<f64> {
        assert_eq!(self.rows, self.cols, "transpose_mul_sumsq_columns requires a square matrix");
        assert_eq!(self.rows, b.rows, "operand has wrong row count");
        let n = self.rows;
        let m = b.cols;
        let mut sumsq = vec![0.0f64; m];
        const BLOCK: usize = 64;
        // Product rows accumulated per sweep over B (see
        // [`Matrix::solve_lower_columns`] for the traffic argument).
        const RBLK: usize = 4;
        let mut c0 = 0;
        while c0 < m {
            let c1 = (c0 + BLOCK).min(m);
            let w = c1 - c0;
            let mut i0 = 0;
            while i0 < n {
                let r = RBLK.min(n - i0);
                let mut acc = [[0.0f64; BLOCK]; RBLK];
                // Triangular head: rows k inside the block contribute
                // only to product rows i ≤ k, in ascending k.
                for k in i0..i0 + r {
                    let row_k = &b.data[k * m + c0..k * m + c1];
                    for (ri, a) in acc.iter_mut().enumerate().take(k - i0 + 1) {
                        let lki = self.data[k * self.cols + (i0 + ri)];
                        for (av, &bv) in a[..w].iter_mut().zip(row_k) {
                            *av += lki * bv;
                        }
                    }
                }
                // Uniform sweep: every later row of B feeds all r
                // product rows, one pass over B for the whole block.
                for k in i0 + r..n {
                    let row_k = &b.data[k * m + c0..k * m + c1];
                    for (ri, a) in acc.iter_mut().enumerate().take(r) {
                        let lki = self.data[k * self.cols + (i0 + ri)];
                        for (av, &bv) in a[..w].iter_mut().zip(row_k) {
                            *av += lki * bv;
                        }
                    }
                }
                for a in acc.iter().take(r) {
                    for (ss, &t) in sumsq[c0..c1].iter_mut().zip(&a[..w]) {
                        *ss += t * t;
                    }
                }
                i0 += r;
            }
            c0 = c1;
        }
        sumsq
    }

    /// Grows a lower-triangular `n×n` matrix to `(n+1)×(n+1)` by
    /// appending `[row, diag]` as the last row (the entries above the new
    /// diagonal stay zero). This is the rank-1 Cholesky extension step:
    /// with `row = L⁻¹c` and `diag = sqrt(a − |row|²)`, the result
    /// factorizes the original matrix bordered by column `c` and corner
    /// `a` — in O(n) once the triangular solve for `row` is done.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `row.len() != self.rows()`.
    pub fn extend_lower(&mut self, row: &[f64], diag: f64) {
        assert_eq!(self.rows, self.cols, "extend_lower requires a square matrix");
        assert_eq!(self.rows, row.len(), "border row has wrong length");
        let n = self.rows;
        let mut data = Vec::with_capacity((n + 1) * (n + 1));
        for r in 0..n {
            data.extend_from_slice(&self.data[r * n..(r + 1) * n]);
            data.push(0.0);
        }
        data.extend_from_slice(row);
        data.push(diag);
        self.rows = n + 1;
        self.cols = n + 1;
        self.data = data;
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len());
        (0..self.rows).map(|r| (0..self.cols).map(|c| self[(r, c)] * v[c]).sum()).collect()
    }

    /// Row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Appends a row, growing the matrix from `n×m` to `(n+1)×m`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(self.cols, row.len(), "appended row has wrong length");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Rank-1 *update* of a lower-triangular Cholesky factor: replaces
    /// `L` with the factor of `L·Lᵀ + v·vᵀ`, in place, in O(n²) using
    /// the classic Givens-style recurrence (`r = √(L_kk² + w_k²)`,
    /// `c = r/L_kk`, `s = w_k/L_kk`, then column-`k` row updates).
    ///
    /// Adding `v·vᵀ` keeps the matrix positive definite, so the update
    /// cannot fail mathematically; `false` is returned — with `self`
    /// untouched — only when the recurrence degenerates numerically
    /// (a non-finite or non-positive pivot), in which case the caller
    /// should refactorize from scratch.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `v.len() != self.rows()`.
    pub fn rank1_update_lower(&mut self, v: &[f64]) -> bool {
        assert_eq!(self.rows, self.cols, "rank1_update_lower requires a square matrix");
        assert_eq!(self.rows, v.len(), "update vector has wrong length");
        let n = self.rows;
        let mut data = self.data.clone();
        let mut work = v.to_vec();
        for k in 0..n {
            let lkk = data[k * n + k];
            let r = (lkk * lkk + work[k] * work[k]).sqrt();
            if !r.is_finite() || r <= 0.0 || lkk <= 0.0 {
                return false;
            }
            let c = r / lkk;
            let s = work[k] / lkk;
            data[k * n + k] = r;
            for i in (k + 1)..n {
                let lik = (data[i * n + k] + s * work[i]) / c;
                work[i] = c * work[i] - s * lik;
                data[i * n + k] = lik;
            }
        }
        self.data = data;
        true
    }

    /// Gram matrix `AᵀA` of this `n×m` matrix (an `m×m` symmetric
    /// result), accumulated row-by-row so the `n`-long dimension streams
    /// through the cache once — the `CₙₘᵀCₙₘ` product of the sparse-GP
    /// fit.
    ///
    /// Entry `(i, j)` is `Σᵣ a_ri·a_rj` accumulated from `0.0` in
    /// ascending `r`. Only the lower half is accumulated; the upper half
    /// is its mirror, which is exact because `a·b == b·a` in floating
    /// point.
    pub fn gram(&self) -> Matrix {
        self.gram_of_row_prefixes(|_| self.cols)
    }

    /// [`Matrix::gram`] of a square lower-triangular matrix (such as
    /// [`Matrix::invert_lower`]'s output), skipping the exactly-zero
    /// upper triangle: row `r` contributes only its first `r + 1`
    /// entries. For finite entries the result is bit-identical to
    /// `gram()`: every skipped term is a `±0.0` product, each sum starts
    /// at `+0.0` (so it is never `-0.0`), and adding `±0.0` to such a sum
    /// leaves it unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn gram_of_lower(&self) -> Matrix {
        assert_eq!(self.rows, self.cols, "gram_of_lower requires a square matrix");
        self.gram_of_row_prefixes(|r| r + 1)
    }

    /// The Gram matrix when row `r` has nonzero entries only among its
    /// first `width(r)` columns.
    fn gram_of_row_prefixes(&self, width: impl Fn(usize) -> usize) -> Matrix {
        let m = self.cols;
        let mut g = Matrix::zeros(m, m);
        for r in 0..self.rows {
            let row = &self.data[r * m..r * m + width(r).min(m)];
            for (i, &ai) in row.iter().enumerate() {
                let gi = &mut g.data[i * m..i * m + i + 1];
                for (gij, &aj) in gi.iter_mut().zip(row) {
                    *gij += ai * aj;
                }
            }
        }
        for i in 0..m {
            for j in 0..i {
                g.data[j * m + i] = g.data[i * m + j];
            }
        }
        g
    }

    /// Transposed matrix-vector product `Aᵀv` (length `m` for an `n×m`
    /// matrix), accumulated over rows in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn transpose_mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len());
        let m = self.cols;
        let mut out = vec![0.0; m];
        for (r, &vr) in v.iter().enumerate() {
            let row = &self.data[r * m..(r + 1) * m];
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * vr;
            }
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = M M^T + I for a fixed M, guaranteed SPD.
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64 * 0.1 + 1.0);
        Matrix::from_fn(3, 3, |r, c| {
            let mut s = if r == c { 1.0 } else { 0.0 };
            for k in 0..3 {
                s += m[(r, k)] * m[(c, k)];
            }
            s
        })
    }

    #[test]
    fn invert_lower_times_original_is_identity() {
        let l = spd3().cholesky().expect("SPD");
        let inv = l.invert_lower();
        for r in 0..3 {
            for c in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += inv[(r, k)] * l[(k, c)];
                }
                let want = if r == c { 1.0 } else { 0.0 };
                assert!((s - want).abs() < 1e-12, "inv*L[{r}][{c}] = {s}");
            }
        }
    }

    #[test]
    fn transpose_mul_sumsq_columns_matches_ascending_reference_bitwise() {
        // n = 11 leaves a partial 4-row block; m = 70 spans two 64-column
        // blocks, the second partial.
        let (n, m) = (11, 70);
        let l = spd(n, 2.0).cholesky().expect("SPD");
        let b = Matrix::from_fn(n, m, |r, c| ((r * 7 + c * 5) % 19) as f64 * 0.17 - 1.4);
        let got = l.transpose_mul_sumsq_columns(&b);
        assert_eq!(got.len(), m);
        for (j, g) in got.iter().enumerate() {
            let mut want = 0.0;
            for i in 0..n {
                let mut t = 0.0;
                for k in i..n {
                    t += l[(k, i)] * b[(k, j)];
                }
                want += t * t;
            }
            assert_eq!(g.to_bits(), want.to_bits(), "column {j}");
        }
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        let a = spd3();
        let l = a.cholesky().expect("SPD");
        for r in 0..3 {
            for c in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += l[(r, k)] * l[(c, k)];
                }
                assert!((s - a[(r, c)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_fn(2, 2, |r, c| if r == c { -1.0 } else { 0.0 });
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn triangular_solves_invert_cholesky() {
        let a = spd3();
        let l = a.cholesky().unwrap();
        let b = vec![1.0, -2.0, 0.5];
        // Solve A x = b via L then L^T.
        let y = l.solve_lower(&b);
        let x = l.solve_lower_transpose(&y);
        let back = a.mul_vec(&x);
        for (bi, yi) in b.iter().zip(&back) {
            assert!((bi - yi).abs() < 1e-9);
        }
    }

    #[test]
    fn extend_lower_matches_direct_cholesky() {
        // Factorize the 3×3 leading block, extend with the last
        // row/column, and compare against factorizing all of 4×4 at once.
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64 * 0.07 + 0.4);
        let a = Matrix::from_fn(4, 4, |r, c| {
            let mut s = if r == c { 2.0 } else { 0.0 };
            for k in 0..4 {
                s += m[(r, k)] * m[(c, k)];
            }
            s
        });
        let block = Matrix::from_fn(3, 3, |r, c| a[(r, c)]);
        let mut l = block.cholesky().expect("SPD block");
        let border: Vec<f64> = (0..3).map(|r| a[(r, 3)]).collect();
        let w = l.solve_lower(&border);
        let d2 = a[(3, 3)] - w.iter().map(|x| x * x).sum::<f64>();
        assert!(d2 > 0.0);
        l.extend_lower(&w, d2.sqrt());
        let full = a.cholesky().expect("SPD");
        for r in 0..4 {
            for c in 0..4 {
                assert!((l[(r, c)] - full[(r, c)]).abs() < 1e-10, "({r},{c})");
            }
        }
    }

    #[test]
    fn solve_lower_columns_matches_per_column_solve_bitwise() {
        let a = spd3();
        let l = a.cholesky().unwrap();
        // Wider panels are exercised below via a bigger factor.
        let b = Matrix::from_fn(3, 5, |r, c| (r as f64 + 1.0) * 0.3 - c as f64 * 0.7);
        let x = l.solve_lower_columns(&b);
        for c in 0..5 {
            let col: Vec<f64> = (0..3).map(|r| b[(r, c)]).collect();
            let expect = l.solve_lower(&col);
            for r in 0..3 {
                assert_eq!(x[(r, c)].to_bits(), expect[r].to_bits(), "({r},{c})");
            }
        }
        // A factor large enough to span multiple column blocks.
        let m = Matrix::from_fn(12, 12, |r, c| ((r * 13 + c * 7) % 11) as f64 * 0.09 + 0.2);
        let big = Matrix::from_fn(12, 12, |r, c| {
            let mut s = if r == c { 3.0 } else { 0.0 };
            for k in 0..12 {
                s += m[(r, k)] * m[(c, k)];
            }
            s
        });
        let l = big.cholesky().unwrap();
        // Every narrow width (blocks of at most four), and widths around
        // the 64-column block.
        for width in [1, 2, 3, 4, 5, 6, 7, 8, 9, 40, 63, 64, 65, 130] {
            let b = Matrix::from_fn(12, width, |r, c| ((r * 5 + c * 3) % 17) as f64 * 0.21 - 1.0);
            let x = l.solve_lower_columns(&b);
            for c in 0..width {
                let col: Vec<f64> = (0..12).map(|r| b[(r, c)]).collect();
                let expect = l.solve_lower(&col);
                for r in 0..12 {
                    assert_eq!(x[(r, c)].to_bits(), expect[r].to_bits(), "width {width} ({r},{c})");
                }
            }
        }
    }

    /// SPD matrix `M Mᵀ + d·I` from a deterministic dense seed.
    fn spd(n: usize, d: f64) -> Matrix {
        let m = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 13) as f64 * 0.11 + 0.3);
        Matrix::from_fn(n, n, |r, c| {
            let mut s = if r == c { d } else { 0.0 };
            for k in 0..n {
                s += m[(r, k)] * m[(c, k)];
            }
            s
        })
    }

    #[test]
    fn rank1_update_matches_refactorization() {
        let a = spd(6, 2.0);
        let mut l = a.cholesky().expect("SPD");
        let v: Vec<f64> = (0..6).map(|i| (i as f64 * 0.7 - 1.3).sin()).collect();
        assert!(l.rank1_update_lower(&v));
        let updated = Matrix::from_fn(6, 6, |r, c| a[(r, c)] + v[r] * v[c]);
        let direct = updated.cholesky().expect("still SPD");
        for r in 0..6 {
            for c in 0..=r {
                assert!((l[(r, c)] - direct[(r, c)]).abs() < 1e-10, "({r},{c})");
            }
        }
    }

    #[test]
    fn gram_and_transpose_mul_vec() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64 * 0.5 - 2.0);
        let g = a.gram();
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for r in 0..4 {
                    s += a[(r, i)] * a[(r, j)];
                }
                assert!((g[(i, j)] - s).abs() < 1e-12, "({i},{j})");
            }
        }
        let v = vec![1.0, -0.5, 2.0, 0.25];
        let got = a.transpose_mul_vec(&v);
        for (j, gj) in got.iter().enumerate() {
            let mut s = 0.0;
            for r in 0..4 {
                s += a[(r, j)] * v[r];
            }
            assert!((gj - s).abs() < 1e-12, "{j}");
        }
    }

    #[test]
    fn gram_matches_the_full_triple_loop_bitwise() {
        // The full row-by-row accumulation over every (i, j) pair, as
        // `gram` computed it before it kept only the lower half.
        fn full(a: &Matrix) -> Matrix {
            let m = a.cols;
            let mut g = Matrix::zeros(m, m);
            for r in 0..a.rows {
                let row = a.row(r);
                for (i, &ai) in row.iter().enumerate() {
                    for (j, &aj) in row.iter().enumerate() {
                        g.data[i * m + j] += ai * aj;
                    }
                }
            }
            g
        }
        let bits = |g: &Matrix| g.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let dense = Matrix::from_fn(9, 5, |r, c| ((r * 7 + c * 3) % 11) as f64 * 0.37 - 1.9);
        assert_eq!(bits(&dense.gram()), bits(&full(&dense)));
        // Lower-triangular inputs with negative entries: an inverted
        // Cholesky factor (as both sparse-GP call sites pass) and a
        // hand-made one with negative zeros and negative diagonals.
        let inverted = spd(13, 1.5).cholesky().expect("SPD").invert_lower();
        assert!(inverted.data.iter().any(|&v| v < 0.0));
        let signed = Matrix::from_fn(12, 12, |r, c| match (r.cmp(&c), (r * 5 + c) % 4) {
            (std::cmp::Ordering::Less, _) => 0.0,
            (_, 0) => -0.0,
            _ => ((r * 13 + c * 7) % 17) as f64 * 0.29 - 2.3,
        });
        for l in [inverted, signed] {
            let want = bits(&full(&l));
            assert_eq!(bits(&l.gram()), want);
            assert_eq!(bits(&l.gram_of_lower()), want);
        }
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = Matrix::from_fn(2, 3, |r, c| (r + c) as f64);
        m.push_row(&[7.0, 8.0, 9.0]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.row(2), &[7.0, 8.0, 9.0]);
        m.row_mut(0)[1] = -1.0;
        assert_eq!(m[(0, 1)], -1.0);
    }

    #[test]
    fn dot_and_sq_dist() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn indexing_round_trip() {
        let mut m = Matrix::zeros(2, 3);
        m[(1, 2)] = 7.0;
        assert_eq!(m[(1, 2)], 7.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }
}
