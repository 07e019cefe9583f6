//! Recursive LU factorization with partial pivoting — the LINPACK/HPL
//! workload the paper names as DGEMM's raison d'être ("as the core part
//! of the LINPACK benchmark, DGEMM has been an important kernel for
//! measuring the potential performance of a HPC platform").
//!
//! Toledo's recursive, left/right column-split LU (LAPACK `dgetrf2`),
//! in place on the factor's column-major storage. For an `m×n` panel
//! split into column halves `[A₁ A₂]` of widths `n₁` and `n₂`:
//!
//! 1. factor the left half `A₁ = P₁·[L₁₁; L₂₁]·U₁₁` recursively;
//! 2. apply its row swaps to the right half (`laswp`, column by
//!    column);
//! 3. `U₁₂ ← L₁₁⁻¹·A₁₂` via the recursive [`crate::level3::dtrsm`];
//! 4. `A₂₂ ← A₂₂ − L₂₁·U₁₂` with one [`crate::gemm::try_gemm`] of depth
//!    `k = n₁` (768 at the top of a 1536 factorization) — where ~all
//!    the `2n³/3` flops go, through the paper's GEBP engine;
//! 5. factor `A₂₂` recursively;
//! 6. apply its row swaps back to the left half's `L₂₁`.
//!
//! Panels at most `LEAF` (16) columns wide run an unblocked,
//! column-oriented kernel (pivot search, scale, axpy on contiguous
//! columns). The only copy is `U₁₂`, into one reused scratch buffer,
//! because it shares columns with `A₂₂`. All non-GEMM work is serial
//! and deterministic, so the factors are bit-identical across runtimes.

#![forbid(unsafe_code)]

use crate::gemm::{try_gemm, GemmConfig};
use crate::level3::{dtrsm, Diag, UpLo};
use crate::matrix::{Matrix, MatrixView, MatrixViewMut};
use crate::{GemmError, Transpose};

/// The factorization result: `P·A = L·U` stored compactly in `lu`
/// (unit-lower L below the diagonal, U on and above), with the pivot row
/// chosen at each step in `pivots`.
#[derive(Clone, Debug)]
pub struct LuFactors {
    /// Packed L\U matrix.
    pub lu: Matrix,
    /// `pivots[k] = r` means rows `k` and `r` were swapped at step `k`.
    pub pivots: Vec<usize>,
}

/// Numerical failure of the factorization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Singular {
    /// Column at which no usable pivot was found.
    pub column: usize,
}

impl core::fmt::Display for Singular {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for Singular {}

/// Any failure of the factorization: numerical (no usable
/// pivot) or a GEMM runtime fault propagated from the update.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LuError {
    /// No usable pivot at some column.
    Singular(Singular),
    /// The trailing GEMM/TRSM update reported a runtime fault.
    Gemm(GemmError),
}

impl core::fmt::Display for LuError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LuError::Singular(s) => s.fmt(f),
            LuError::Gemm(e) => write!(f, "LU update failed: {e}"),
        }
    }
}

impl std::error::Error for LuError {}

impl From<Singular> for LuError {
    fn from(s: Singular) -> Self {
        LuError::Singular(s)
    }
}

impl From<GemmError> for LuError {
    fn from(e: GemmError) -> Self {
        LuError::Gemm(e)
    }
}

impl LuError {
    /// The column of a singular failure, if that is what this is.
    #[must_use]
    pub fn singular_column(&self) -> Option<usize> {
        match self {
            LuError::Singular(s) => Some(s.column),
            LuError::Gemm(_) => None,
        }
    }
}

/// Widest panel the unblocked kernel factors; wider panels split in
/// half. Any width is correct: at 16 the kernel's repeated passes over
/// its panel stay in L2 (192 KiB at 1536 rows) and its flops are a
/// small share, while every level above hands the GEMM `k ≥ 8`.
const LEAF: usize = 16;

/// Factor a square matrix: `P·A = L·U` with partial pivoting.
pub fn lu_factor(a: &Matrix, cfg: &GemmConfig) -> Result<LuFactors, LuError> {
    assert_eq!(a.rows(), a.cols(), "LU needs a square matrix");
    let mut lu = a.clone();
    let mut pivots = vec![0usize; a.rows()];
    let mut scratch = Vec::new();
    factor(&mut lu.view_mut(), 0, &mut pivots, &mut scratch, cfg)?;
    Ok(LuFactors { lu, pivots })
}

/// Recursive LU of the `m×n` panel `a` (`m ≥ n`) whose first column is
/// column `col0` of the whole matrix. `pivots[k]` receives the row,
/// relative to the panel, swapped with row `k`; `u12` is the reused
/// scratch for the copy of `U₁₂`.
fn factor(
    a: &mut MatrixViewMut<'_>,
    col0: usize,
    pivots: &mut [usize],
    u12: &mut Vec<f64>,
    cfg: &GemmConfig,
) -> Result<(), LuError> {
    let (m, n) = (a.rows(), a.cols());
    if n <= LEAF {
        return factor_leaf(a, col0, pivots).map_err(LuError::from);
    }
    let n1 = n / 2;
    let n2 = n - n1;
    let (mut left, mut right) = a.split_cols_mut(n1);
    let (piv1, piv2) = pivots.split_at_mut(n1);

    factor(&mut left, col0, piv1, u12, cfg)?;
    laswp(&mut right, piv1, false);
    let l = left.as_view();
    dtrsm(
        UpLo::Lower,
        Transpose::No,
        Diag::Unit,
        1.0,
        &l.sub(0, 0, n1, n1),
        &mut right.sub_mut(0, 0, n1, n2),
        cfg,
    )?;
    u12.clear();
    for j in 0..n2 {
        u12.extend_from_slice(&right.col_mut(j)[..n1]);
    }
    try_gemm(
        Transpose::No,
        Transpose::No,
        -1.0,
        &l.sub(n1, 0, m - n1, n1),
        &MatrixView::from_slice(n1, n2, n1, u12),
        1.0,
        &mut right.sub_mut(n1, 0, m - n1, n2),
        cfg,
    )?;

    factor(
        &mut right.sub_mut(n1, 0, m - n1, n2),
        col0 + n1,
        piv2,
        u12,
        cfg,
    )?;
    laswp(&mut left.sub_mut(n1, 0, m - n1, n1), piv2, false);
    for p in piv2.iter_mut() {
        *p += n1;
    }
    Ok(())
}

/// Unblocked right-looking LU of a panel at most [`LEAF`] columns wide,
/// one contiguous column at a time.
fn factor_leaf(
    a: &mut MatrixViewMut<'_>,
    col0: usize,
    pivots: &mut [usize],
) -> Result<(), Singular> {
    let (m, n) = (a.rows(), a.cols());
    for (k, pivot) in pivots.iter_mut().enumerate() {
        let col = a.col_mut(k);
        let mut p = k;
        let mut best = col[k].abs();
        for (r, v) in col.iter().enumerate().skip(k + 1) {
            if v.abs() > best {
                best = v.abs();
                p = r;
            }
        }
        if best == 0.0 {
            return Err(Singular { column: col0 + k });
        }
        *pivot = p;
        laswp(&mut a.sub_mut(k, 0, m - k, n), &[p - k], false);
        let (mut done, mut rest) = a.split_cols_mut(k + 1);
        let lk = &mut done.col_mut(k)[k..];
        let d = lk[0];
        for l in &mut lk[1..] {
            *l /= d;
        }
        let lk = &lk[1..];
        for j in 0..rest.cols() {
            let col = &mut rest.col_mut(j)[k..];
            let u = col[0];
            for (x, &l) in col[1..].iter_mut().zip(lk) {
                *x -= l * u;
            }
        }
    }
    Ok(())
}

/// Row interchanges on `b`, column by column (LAPACK `laswp`):
/// `pivots[k] = r` swaps rows `k` and `r` for `k` ascending, or for `k`
/// descending with `reverse`, which undoes the ascending pass.
fn laswp(b: &mut MatrixViewMut<'_>, pivots: &[usize], reverse: bool) {
    for j in 0..b.cols() {
        let col = b.col_mut(j);
        if reverse {
            for (k, &p) in pivots.iter().enumerate().rev() {
                col.swap(k, p);
            }
        } else {
            for (k, &p) in pivots.iter().enumerate() {
                col.swap(k, p);
            }
        }
    }
}

impl LuFactors {
    /// Matrix order.
    #[must_use]
    pub fn n(&self) -> usize {
        self.lu.rows()
    }

    /// Apply the pivot permutation to a right-hand-side matrix in place
    /// (forward order, as in LAPACK `laswp`).
    pub fn apply_pivots(&self, b: &mut Matrix) {
        laswp(&mut b.view_mut(), &self.pivots, false);
    }

    /// Solve `A·X = B` using the factorization (B has one column per
    /// right-hand side). `Err` propagates a GEMM runtime fault from the
    /// triangular solves.
    pub fn solve(&self, b: &Matrix, cfg: &GemmConfig) -> Result<Matrix, GemmError> {
        assert_eq!(b.rows(), self.n(), "rhs rows must match");
        let mut x = b.clone();
        self.apply_pivots(&mut x);
        // L y = Pb (unit lower), then U x = y
        dtrsm(
            UpLo::Lower,
            Transpose::No,
            Diag::Unit,
            1.0,
            &self.lu.view(),
            &mut x.view_mut(),
            cfg,
        )?;
        dtrsm(
            UpLo::Upper,
            Transpose::No,
            Diag::NonUnit,
            1.0,
            &self.lu.view(),
            &mut x.view_mut(),
            cfg,
        )?;
        Ok(x)
    }

    /// Reconstruct `P⁻¹·L·U` (which must equal the original A).
    #[must_use]
    pub fn reconstruct(&self) -> Matrix {
        let n = self.n();
        let l = Matrix::from_fn(n, n, |i, j| {
            use core::cmp::Ordering;
            match i.cmp(&j) {
                Ordering::Greater => self.lu.get(i, j),
                Ordering::Equal => 1.0,
                Ordering::Less => 0.0,
            }
        });
        let u = Matrix::from_fn(n, n, |i, j| if i <= j { self.lu.get(i, j) } else { 0.0 });
        let mut pa = Matrix::zeros(n, n);
        crate::reference::naive_gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &l.view(),
            &u.view(),
            0.0,
            &mut pa.view_mut(),
        );
        // undo the pivoting: apply swaps in reverse
        laswp(&mut pa.view_mut(), &self.pivots, true);
        pa
    }
}

/// Flops of an LU factorization (`2n³/3`, the LINPACK convention).
#[must_use]
pub fn lu_flops(n: usize) -> f64 {
    2.0 * (n as f64).powi(3) / 3.0
}

/// The HPL-style scaled residual `‖Ax − b‖∞ / (ε·‖A‖∞·n)`; a solve is
/// conventionally accepted when this is O(10) or less.
#[must_use]
pub fn hpl_residual(a: &Matrix, x: &Matrix, b: &Matrix) -> f64 {
    let n = a.rows();
    let mut ax = Matrix::zeros(n, x.cols());
    crate::reference::naive_gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a.view(),
        &x.view(),
        0.0,
        &mut ax.view_mut(),
    );
    let resid = ax.max_abs_diff(b);
    let norm_a = (0..n)
        .map(|i| (0..n).map(|j| a.get(i, j).abs()).sum::<f64>())
        .fold(0.0f64, f64::max);
    resid / (f64::EPSILON * norm_a * n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_conditioned(n: usize, seed: u64) -> Matrix {
        let r = Matrix::random(n, n, seed);
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                n as f64 + r.get(i, j)
            } else {
                r.get(i, j)
            }
        })
    }

    #[test]
    fn reconstruct_small() {
        let a = well_conditioned(17, 1);
        let f = lu_factor(&a, &GemmConfig::default()).unwrap();
        let pa = f.reconstruct();
        assert!(pa.max_abs_diff(&a) < 1e-10, "{}", pa.max_abs_diff(&a));
    }

    #[test]
    fn reconstruct_crosses_panels() {
        // n > LEAF exercises the recursion's trsm + gemm updates
        for n in [49, 96, 130] {
            let a = well_conditioned(n, n as u64);
            let f = lu_factor(&a, &GemmConfig::default()).unwrap();
            assert!(f.reconstruct().max_abs_diff(&a) < 1e-9);
        }
    }

    #[test]
    fn pivoting_actually_pivots() {
        // a matrix needing row exchanges (zero leading pivot)
        let mut a = well_conditioned(8, 3);
        a.set(0, 0, 0.0);
        let f = lu_factor(&a, &GemmConfig::default()).unwrap();
        assert!(f.pivots[0] != 0, "must pivot away from the zero");
        assert!(f.reconstruct().max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::zeros(5, 5);
        let err = lu_factor(&a, &GemmConfig::default()).unwrap_err();
        assert_eq!(err.singular_column(), Some(0));
        // rank-1 matrix fails at the second column
        let r1 = Matrix::from_fn(6, 6, |i, j| ((i + 1) * (j + 1)) as f64);
        let err = lu_factor(&r1, &GemmConfig::default()).unwrap_err();
        assert!(err.singular_column().expect("numerical failure") >= 1);
    }

    #[test]
    fn solve_recovers_solution() {
        let n = 120;
        let a = well_conditioned(n, 7);
        let x_true = Matrix::random(n, 3, 8);
        let mut b = Matrix::zeros(n, 3);
        crate::reference::naive_gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &x_true.view(),
            0.0,
            &mut b.view_mut(),
        );
        let f = lu_factor(&a, &GemmConfig::default()).unwrap();
        let x = f.solve(&b, &GemmConfig::default()).unwrap();
        assert!(
            x.max_abs_diff(&x_true) < 1e-8,
            "{}",
            x.max_abs_diff(&x_true)
        );
        assert!(hpl_residual(&a, &x, &b) < 10.0);
    }

    #[test]
    fn solve_with_threads_matches() {
        let n = 100;
        let a = well_conditioned(n, 9);
        let b = Matrix::random(n, 2, 10);
        let serial = lu_factor(&a, &GemmConfig::default())
            .unwrap()
            .solve(&b, &GemmConfig::default())
            .unwrap();
        let cfg = GemmConfig::default().with_parallelism(crate::pool::Parallelism::from_threads(4));
        let parallel = lu_factor(&a, &cfg).unwrap().solve(&b, &cfg).unwrap();
        assert_eq!(serial, parallel, "runtimes must agree exactly");
    }

    #[test]
    fn flops_convention() {
        assert!((lu_flops(1000) - 2.0e9 / 3.0).abs() < 1.0);
    }
}
