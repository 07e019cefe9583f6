//! Additional Level-3 routines built on the GEBP engine.
//!
//! Section II of the paper notes that "the most commonly used
//! matrix-matrix computations can be implemented as a general matrix
//! multiplication"; this module demonstrates that claim for the two most
//! common symmetric cases:
//!
//! - [`dsyrk`] — symmetric rank-k update `C := α·op(A)·op(A)ᵀ + β·C`,
//!   blocked so the strictly-triangular part is computed by plain GEMM
//!   calls (no redundant flops outside diagonal blocks).
//! - [`dsymm`] — symmetric multiply `C := α·A·B + β·C` (left side), with
//!   the symmetric operand expanded once and fed to GEMM.
//! - [`dtrsm`] — triangular solve `op(A)·X = α·B` (left side), recursive
//!   so all but the ≤ 32-row substitution leaves run through GEMM with
//!   `k` up to `m/2` — the routine LINPACK pairs with DGEMM in the LU
//!   update, which is the paper's motivating workload.
//!
//! Because every routine here bottoms out in [`try_gemm`] with the
//! caller's [`GemmConfig`], they inherit the pre-packed-B cache when
//! `cfg.pack_cache` is enabled — with the same coherence contract (see
//! [`crate::prepack`]): the interior GEMM operands are sub-views of the
//! caller's matrices (or of short-lived scratch like `dsymm`'s expanded
//! operand), so in-place mutation between calls requires invalidation.
//! They likewise inherit `cfg.dispatch` (DESIGN.md §13): under
//! [`crate::dispatch::DispatchMode::Auto`] each interior GEMM is
//! dispatched by its own sub-block shape, so e.g. the small updates
//! near the leaves of the recursive `dtrsm` can run serially while the
//! large ones at its top use the pool's 2-D task grid.

#![forbid(unsafe_code)]

use crate::gemm::{try_gemm, GemmConfig};
use crate::matrix::{Matrix, MatrixView, MatrixViewMut};
use crate::{GemmError, Transpose};

/// Which triangle of a symmetric matrix is stored/updated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpLo {
    /// Upper triangle.
    Upper,
    /// Lower triangle.
    Lower,
}

/// Symmetric rank-k update: `C := α·op(A)·op(A)ᵀ + β·C`, touching only the
/// `uplo` triangle of the `n×n` matrix C.
///
/// `trans = No` takes `A` as `n×k` (`C = αAAᵀ+βC`); `trans = Yes` takes
/// `A` as `k×n` (`C = αAᵀA+βC`).
pub fn dsyrk(
    uplo: UpLo,
    trans: Transpose,
    alpha: f64,
    a: &MatrixView<'_>,
    beta: f64,
    c: &mut MatrixViewMut<'_>,
    cfg: &GemmConfig,
) -> Result<(), GemmError> {
    let (n, _k) = trans.apply_dims(a.rows(), a.cols());
    if c.rows() != n || c.cols() != n {
        return Err(GemmError::OutputDimMismatch {
            expected: (n, n),
            actual: (c.rows(), c.cols()),
        });
    }

    // β on the referenced triangle only.
    scale_triangle(c, uplo, beta);
    if alpha == 0.0 || n == 0 {
        return Ok(());
    }

    // Block over diagonal panels; panel width tied to the blocking's nr
    // granularity (any width is correct; this keeps GEMM calls chunky).
    let nb = cfg.blocks.nc.min(256).max(cfg.blocks.nr);
    let mut j0 = 0usize;
    while j0 < n {
        let w = nb.min(n - j0);
        // Diagonal block: compute fully into a temp, add the triangle.
        let mut diag = Matrix::zeros(w, w);
        gemm_syrk_block(trans, alpha, a, j0, w, j0, w, &mut diag.view_mut(), cfg)?;
        // Scalar triangle accumulate: w·(w+1)/2 adds (GEMM flops inside
        // gemm_syrk_block are already counted at the gebp choke point).
        crate::telemetry::add_flops((w as u64) * (w as u64 + 1) / 2);
        for j in 0..w {
            match uplo {
                UpLo::Lower => {
                    for i in j..w {
                        let v = c.get(j0 + i, j0 + j) + diag.get(i, j);
                        c.set(j0 + i, j0 + j, v);
                    }
                }
                UpLo::Upper => {
                    for i in 0..=j {
                        let v = c.get(j0 + i, j0 + j) + diag.get(i, j);
                        c.set(j0 + i, j0 + j, v);
                    }
                }
            }
        }
        // Off-diagonal part of this panel: one plain GEMM.
        match uplo {
            UpLo::Lower if j0 + w < n => {
                let rows = n - (j0 + w);
                let mut sub = c.sub_mut(j0 + w, j0, rows, w);
                gemm_syrk_block(trans, alpha, a, j0 + w, rows, j0, w, &mut sub, cfg)?;
            }
            UpLo::Upper if j0 > 0 => {
                let mut sub = c.sub_mut(0, j0, j0, w);
                gemm_syrk_block(trans, alpha, a, 0, j0, j0, w, &mut sub, cfg)?;
            }
            _ => {}
        }
        j0 += w;
    }
    Ok(())
}

/// `out += α · op(A)[i0..i0+mi, :] · op(A)[j0..j0+nj, :]ᵀ` — the GEMM at
/// the heart of DSYRK (out must already hold its β·C part).
#[allow(clippy::too_many_arguments)]
fn gemm_syrk_block(
    trans: Transpose,
    alpha: f64,
    a: &MatrixView<'_>,
    i0: usize,
    mi: usize,
    j0: usize,
    nj: usize,
    out: &mut MatrixViewMut<'_>,
    cfg: &GemmConfig,
) -> Result<(), GemmError> {
    match trans {
        Transpose::No => {
            // rows of A
            let k = a.cols();
            let left = a.sub(i0, 0, mi, k);
            let right = a.sub(j0, 0, nj, k);
            try_gemm(
                Transpose::No,
                Transpose::Yes,
                alpha,
                &left,
                &right,
                1.0,
                out,
                cfg,
            )
        }
        Transpose::Yes => {
            // columns of A
            let k = a.rows();
            let left = a.sub(0, i0, k, mi);
            let right = a.sub(0, j0, k, nj);
            try_gemm(
                Transpose::Yes,
                Transpose::No,
                alpha,
                &left,
                &right,
                1.0,
                out,
                cfg,
            )
        }
    }
}

fn scale_triangle(c: &mut MatrixViewMut<'_>, uplo: UpLo, beta: f64) {
    if beta == 1.0 {
        return;
    }
    let n = c.rows();
    for j in 0..n {
        let (lo, hi) = match uplo {
            UpLo::Lower => (j, n),
            UpLo::Upper => (0, j + 1),
        };
        for i in lo..hi {
            let v = if beta == 0.0 { 0.0 } else { beta * c.get(i, j) };
            c.set(i, j, v);
        }
    }
}

/// Symmetric multiply (left side): `C := α·A·B + β·C` where `A` is `m×m`
/// symmetric with only its `uplo` triangle stored (the other triangle of
/// the argument is ignored).
pub fn dsymm(
    uplo: UpLo,
    alpha: f64,
    a: &MatrixView<'_>,
    b: &MatrixView<'_>,
    beta: f64,
    c: &mut MatrixViewMut<'_>,
    cfg: &GemmConfig,
) -> Result<(), GemmError> {
    let m = a.rows();
    if a.cols() != m {
        return Err(GemmError::BadConfig("symmetric operand must be square"));
    }
    if b.rows() != m {
        return Err(GemmError::InnerDimMismatch {
            a_cols: m,
            b_rows: b.rows(),
        });
    }
    if (c.rows(), c.cols()) != (m, b.cols()) {
        return Err(GemmError::OutputDimMismatch {
            expected: (m, b.cols()),
            actual: (c.rows(), c.cols()),
        });
    }
    // Mirror the stored triangle once (O(m²), negligible next to the
    // 2m²n flops of the multiply), then one plain GEMM.
    let full = Matrix::from_fn(m, m, |i, j| {
        let stored = match uplo {
            UpLo::Lower => i >= j,
            UpLo::Upper => i <= j,
        };
        if stored {
            a.get(i, j)
        } else {
            a.get(j, i)
        }
    });
    try_gemm(
        Transpose::No,
        Transpose::No,
        alpha,
        &full.view(),
        b,
        beta,
        c,
        cfg,
    )
}

/// Whether the triangular operand has an implicit unit diagonal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Diag {
    /// Diagonal entries are read from the matrix.
    NonUnit,
    /// Diagonal entries are taken as 1 (stored values ignored), as in
    /// the L factor of an LU decomposition.
    Unit,
}

/// Triangular solve (left side): overwrite `B` with `X` solving
/// `op(A)·X = α·B`, where `A` is `m×m` triangular (`uplo`, `diag`) and
/// `B` is `m×n`.
///
/// Recursive algorithm: split op(A) into halves, solve the first half of
/// the rows, update the other half of B with one GEMM of depth `m/2`
/// (`B₂ −= T₂₁·X₁` for op(A) lower, `B₁ −= T₁₂·X₂` for upper), then solve
/// the second half. Blocks of at most 32 rows are solved by
/// substitution on contiguous columns, so ~all the flops go through the
/// same GEBP engine the paper optimizes — exactly how LINPACK spends its
/// time.
pub fn dtrsm(
    uplo: UpLo,
    trans: Transpose,
    diag: Diag,
    alpha: f64,
    a: &MatrixView<'_>,
    b: &mut MatrixViewMut<'_>,
    cfg: &GemmConfig,
) -> Result<(), GemmError> {
    let m = a.rows();
    if a.cols() != m {
        return Err(GemmError::BadConfig("triangular operand must be square"));
    }
    if b.rows() != m {
        return Err(GemmError::InnerDimMismatch {
            a_cols: m,
            b_rows: b.rows(),
        });
    }
    b.scale(alpha);
    if m == 0 || b.cols() == 0 {
        return Ok(());
    }
    // op(A) lower-triangular  <=>  (A lower, NoTrans) or (A upper, Trans)
    let lower = matches!(
        (uplo, trans),
        (UpLo::Lower, Transpose::No) | (UpLo::Upper, Transpose::Yes)
    );
    trsm_rec(lower, trans, diag, a, b, &mut Vec::new(), cfg)
}

/// Largest triangle [`dtrsm`] solves by substitution.
const TRSM_LEAF: usize = 32;

/// Recursive step of [`dtrsm`] (`alpha` already applied); `x` is the
/// reused scratch holding the solved half while it updates the other.
fn trsm_rec(
    lower: bool,
    trans: Transpose,
    diag: Diag,
    a: &MatrixView<'_>,
    b: &mut MatrixViewMut<'_>,
    x: &mut Vec<f64>,
    cfg: &GemmConfig,
) -> Result<(), GemmError> {
    let m = a.rows();
    if m <= TRSM_LEAF {
        solve_leaf(lower, trans, diag, a, b);
        return Ok(());
    }
    let n = b.cols();
    let m1 = m / 2;
    // (start, len) of the half solved first and of the one it updates
    let (first, second) = if lower {
        ((0, m1), (m1, m - m1))
    } else {
        ((m1, m - m1), (0, m1))
    };
    let diag_block = |(i, w): (usize, usize)| a.sub(i, i, w, w);
    trsm_rec(
        lower,
        trans,
        diag,
        &diag_block(first),
        &mut b.sub_mut(first.0, 0, first.1, n),
        x,
        cfg,
    )?;
    x.clear();
    for j in 0..n {
        x.extend_from_slice(&b.col_mut(j)[first.0..first.0 + first.1]);
    }
    // op(A)[second, first], read in place with the caller's transpose
    let coupling = match trans {
        Transpose::No => a.sub(second.0, first.0, second.1, first.1),
        Transpose::Yes => a.sub(first.0, second.0, first.1, second.1),
    };
    try_gemm(
        trans,
        Transpose::No,
        -1.0,
        &coupling,
        &MatrixView::from_slice(first.1, n, first.1, x),
        1.0,
        &mut b.sub_mut(second.0, 0, second.1, n),
        cfg,
    )?;
    trsm_rec(
        lower,
        trans,
        diag,
        &diag_block(second),
        &mut b.sub_mut(second.0, 0, second.1, n),
        x,
        cfg,
    )
}

/// Substitution for a triangle of at most [`TRSM_LEAF`] rows, one
/// contiguous column of B at a time: an axpy down A's column for
/// `NoTrans`, a dot product with it for `Trans`.
fn solve_leaf(
    lower: bool,
    trans: Transpose,
    diag: Diag,
    a: &MatrixView<'_>,
    b: &mut MatrixViewMut<'_>,
) {
    let (m, n) = (a.rows(), b.cols());
    // Closed-form count: each column does m·(m−1) multiply/subtract
    // flops over the triangle plus m divides when the diagonal is
    // stored.
    let per_col = (m * (m - 1)) as u64 + if diag == Diag::NonUnit { m as u64 } else { 0 };
    crate::telemetry::add_flops(n as u64 * per_col);
    let unit = diag == Diag::Unit;
    for c in 0..n {
        let x = b.col_mut(c);
        match (trans, lower) {
            (Transpose::No, true) => {
                for j in 0..m {
                    let aj = a.col(j);
                    if !unit {
                        x[j] /= aj[j];
                    }
                    let xj = x[j];
                    for (xi, &aij) in x[j + 1..].iter_mut().zip(&aj[j + 1..]) {
                        *xi -= aij * xj;
                    }
                }
            }
            (Transpose::No, false) => {
                for j in (0..m).rev() {
                    let aj = a.col(j);
                    if !unit {
                        x[j] /= aj[j];
                    }
                    let xj = x[j];
                    for (xi, &aij) in x[..j].iter_mut().zip(aj) {
                        *xi -= aij * xj;
                    }
                }
            }
            (Transpose::Yes, true) => {
                for i in 0..m {
                    let ai = a.col(i);
                    let mut v = x[i];
                    for (&xk, &aki) in x[..i].iter().zip(ai) {
                        v -= aki * xk;
                    }
                    x[i] = if unit { v } else { v / ai[i] };
                }
            }
            (Transpose::Yes, false) => {
                for i in (0..m).rev() {
                    let ai = a.col(i);
                    let mut v = x[i];
                    for (&xk, &aki) in x[i + 1..].iter().zip(&ai[i + 1..]) {
                        v -= aki * xk;
                    }
                    x[i] = if unit { v } else { v / ai[i] };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::reference::naive_gemm;
    use crate::util::gemm_tolerance;

    fn naive_syrk(
        uplo: UpLo,
        trans: Transpose,
        alpha: f64,
        a: &Matrix,
        beta: f64,
        c0: &Matrix,
    ) -> Matrix {
        // full product, then keep only the triangle
        let mut full = Matrix::zeros(c0.rows(), c0.cols());
        naive_gemm(
            trans,
            match trans {
                Transpose::No => Transpose::Yes,
                Transpose::Yes => Transpose::No,
            },
            alpha,
            &a.view(),
            &a.view(),
            0.0,
            &mut full.view_mut(),
        );
        Matrix::from_fn(c0.rows(), c0.cols(), |i, j| {
            let in_tri = match uplo {
                UpLo::Lower => i >= j,
                UpLo::Upper => i <= j,
            };
            if in_tri {
                beta * c0.get(i, j) + full.get(i, j)
            } else {
                c0.get(i, j)
            }
        })
    }

    fn check_syrk(uplo: UpLo, trans: Transpose, n: usize, k: usize, alpha: f64, beta: f64) {
        let a = match trans {
            Transpose::No => Matrix::random(n, k, 31),
            Transpose::Yes => Matrix::random(k, n, 31),
        };
        let c0 = Matrix::random(n, n, 32);
        let expected = naive_syrk(uplo, trans, alpha, &a, beta, &c0);
        let mut got = c0.clone();
        dsyrk(
            uplo,
            trans,
            alpha,
            &a.view(),
            beta,
            &mut got.view_mut(),
            &GemmConfig::default(),
        )
        .unwrap();
        assert!(
            got.max_abs_diff(&expected) < gemm_tolerance(k, 1.0),
            "syrk {uplo:?} {trans:?} n={n} k={k}: {}",
            got.max_abs_diff(&expected)
        );
    }

    #[test]
    fn syrk_lower_no_trans() {
        check_syrk(UpLo::Lower, Transpose::No, 37, 19, 1.0, 0.0);
        check_syrk(UpLo::Lower, Transpose::No, 64, 32, 2.0, 1.0);
    }

    #[test]
    fn syrk_upper_no_trans() {
        check_syrk(UpLo::Upper, Transpose::No, 37, 19, 1.0, 0.5);
    }

    #[test]
    fn syrk_trans_variants() {
        check_syrk(UpLo::Lower, Transpose::Yes, 29, 41, -1.0, 1.0);
        check_syrk(UpLo::Upper, Transpose::Yes, 29, 41, 1.5, 0.0);
    }

    #[test]
    fn syrk_leaves_other_triangle_untouched() {
        let a = Matrix::random(10, 5, 1);
        let c0 = Matrix::random(10, 10, 2);
        let mut got = c0.clone();
        dsyrk(
            UpLo::Lower,
            Transpose::No,
            1.0,
            &a.view(),
            0.0,
            &mut got.view_mut(),
            &GemmConfig::default(),
        )
        .unwrap();
        for j in 1..10 {
            for i in 0..j {
                assert_eq!(got.get(i, j), c0.get(i, j), "({i},{j}) modified");
            }
        }
    }

    #[test]
    fn syrk_result_is_symmetric_when_both_triangles_computed() {
        let a = Matrix::random(16, 8, 3);
        let mut lower = Matrix::zeros(16, 16);
        let mut upper = Matrix::zeros(16, 16);
        dsyrk(
            UpLo::Lower,
            Transpose::No,
            1.0,
            &a.view(),
            0.0,
            &mut lower.view_mut(),
            &GemmConfig::default(),
        )
        .unwrap();
        dsyrk(
            UpLo::Upper,
            Transpose::No,
            1.0,
            &a.view(),
            0.0,
            &mut upper.view_mut(),
            &GemmConfig::default(),
        )
        .unwrap();
        for i in 0..16 {
            for j in 0..=i {
                assert!((lower.get(i, j) - upper.get(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn syrk_shape_checked() {
        let a = Matrix::zeros(4, 3);
        let mut c = Matrix::zeros(5, 5);
        let err = dsyrk(
            UpLo::Lower,
            Transpose::No,
            1.0,
            &a.view(),
            0.0,
            &mut c.view_mut(),
            &GemmConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, GemmError::OutputDimMismatch { .. }));
    }

    fn check_symm(uplo: UpLo, m: usize, n: usize, alpha: f64, beta: f64) {
        let a = Matrix::random(m, m, 41);
        let b = Matrix::random(m, n, 42);
        let c0 = Matrix::random(m, n, 43);
        // naive: mirror then multiply
        let full = Matrix::from_fn(m, m, |i, j| {
            let stored = match uplo {
                UpLo::Lower => i >= j,
                UpLo::Upper => i <= j,
            };
            if stored {
                a.get(i, j)
            } else {
                a.get(j, i)
            }
        });
        let mut expected = c0.clone();
        naive_gemm(
            Transpose::No,
            Transpose::No,
            alpha,
            &full.view(),
            &b.view(),
            beta,
            &mut expected.view_mut(),
        );
        let mut got = c0.clone();
        dsymm(
            uplo,
            alpha,
            &a.view(),
            &b.view(),
            beta,
            &mut got.view_mut(),
            &GemmConfig::default(),
        )
        .unwrap();
        assert!(got.max_abs_diff(&expected) < gemm_tolerance(m, 1.0));
    }

    #[test]
    fn symm_both_triangles() {
        check_symm(UpLo::Lower, 33, 17, 1.0, 0.0);
        check_symm(UpLo::Upper, 24, 40, -0.5, 2.0);
    }

    /// One `op(A)·X = α·B` solve with A and B as strided sub-views of
    /// larger storage (garbage in A's unreferenced triangle, and on its
    /// diagonal when `Unit`), checked componentwise: the computed X
    /// satisfies `|op(A)·X − α·B| ≤ γₘ·|op(A)|·|X|` (Higham Thm 8.5, any
    /// summation order), the residual evaluated with Dot2 (whose own
    /// error `u·|r| + γ²ₘ₊₁·Σ|terms|` is added to the bound). Storage
    /// outside B's view must be untouched.
    fn check_trsm(uplo: UpLo, trans: Transpose, diag: Diag, m: usize, n: usize, alpha: f64) {
        use crate::util::{dot2, gamma};
        let (ai, aj, bi, bj) = (2, 1, 3, 1);
        let lower = uplo == UpLo::Lower;
        let r: Matrix = Matrix::random(m + 3, m + 2, (m * 31 + n) as u64);
        let mut big_a = Matrix::from_fn(m + 3, m + 2, |i, j| 1e3 * r.get(i, j));
        for j in 0..m {
            for i in 0..m {
                let v = r.get(ai + i, aj + j);
                if i == j && diag == Diag::NonUnit {
                    big_a.set(ai + i, aj + j, 2.0 + v.abs());
                } else if i != j && (i > j) == lower {
                    big_a.set(ai + i, aj + j, 0.5 * v);
                }
            }
        }
        let a = big_a.view().sub(ai, aj, m, m);
        // op(A) as the solve must see it: the referenced triangle only,
        // with ones on a unit diagonal
        let op_lower = lower != (trans == Transpose::Yes);
        let op_a = Matrix::from_fn(m, m, |i, k| {
            let v = match trans {
                Transpose::No => a.get(i, k),
                Transpose::Yes => a.get(k, i),
            };
            match (i == k, diag) {
                (true, Diag::Unit) => 1.0,
                (true, Diag::NonUnit) => v,
                (false, _) if (i > k) == op_lower => v,
                _ => 0.0,
            }
        });
        let big_b0: Matrix = Matrix::random(m + 5, n + 2, (m * 17 + n) as u64);
        let mut big_b = big_b0.clone();
        dtrsm(
            uplo,
            trans,
            diag,
            alpha,
            &a,
            &mut big_b.view_mut().sub_mut(bi, bj, m, n),
            &GemmConfig::default(),
        )
        .unwrap();
        let what = format!("trsm {uplo:?} {trans:?} {diag:?} m={m} n={n} alpha={alpha}");
        let (g, g2) = (gamma(m), gamma(m + 1).powi(2));
        for c in 0..n {
            for i in 0..m {
                let x = |k: usize| big_b.get(bi + k, bj + c);
                let ab = alpha * big_b0.get(bi + i, bj + c);
                let terms = (0..m).map(|k| (op_a.get(i, k), x(k)));
                let mag: f64 = terms.clone().map(|(p, q)| (p * q).abs()).sum();
                let res = dot2(terms.chain([(-1.0, ab)]));
                let bound = g * mag + g2 * (mag + ab.abs()) + f64::EPSILON * res.abs();
                assert!(
                    res.abs() <= bound,
                    "{what} ({i},{c}): residual {res:e} > {bound:e}"
                );
            }
        }
        for j in 0..n + 2 {
            for i in 0..m + 5 {
                if !(bi..bi + m).contains(&i) || !(bj..bj + n).contains(&j) {
                    assert_eq!(big_b.get(i, j), big_b0.get(i, j), "{what}: wrote ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn trsm_all_variants_componentwise_on_strided_views() {
        // m crosses the substitution leaf (32) and the recursion splits
        for uplo in [UpLo::Lower, UpLo::Upper] {
            for trans in [Transpose::No, Transpose::Yes] {
                for diag in [Diag::NonUnit, Diag::Unit] {
                    for m in [1, 31, 32, 33, 64, 65, 200] {
                        for n in [1, 17] {
                            for alpha in [1.0, -0.5] {
                                check_trsm(uplo, trans, diag, m, n, alpha);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trsm_identity_is_scaling() {
        let a = Matrix::identity(8);
        let b0 = Matrix::random(8, 5, 9);
        let mut b = b0.clone();
        dtrsm(
            UpLo::Lower,
            Transpose::No,
            Diag::NonUnit,
            3.0,
            &a.view(),
            &mut b.view_mut(),
            &GemmConfig::default(),
        )
        .unwrap();
        for i in 0..8 {
            for j in 0..5 {
                assert!((b.get(i, j) - 3.0 * b0.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trsm_shape_errors() {
        let a = Matrix::zeros(4, 3);
        let mut b = Matrix::zeros(4, 2);
        assert!(matches!(
            dtrsm(
                UpLo::Lower,
                Transpose::No,
                Diag::NonUnit,
                1.0,
                &a.view(),
                &mut b.view_mut(),
                &GemmConfig::default()
            ),
            Err(GemmError::BadConfig(_))
        ));
        let a = Matrix::zeros(4, 4);
        let mut b = Matrix::zeros(5, 2);
        assert!(matches!(
            dtrsm(
                UpLo::Lower,
                Transpose::No,
                Diag::NonUnit,
                1.0,
                &a.view(),
                &mut b.view_mut(),
                &GemmConfig::default()
            ),
            Err(GemmError::InnerDimMismatch { .. })
        ));
    }

    #[test]
    fn trsm_empty_dims() {
        let a = Matrix::identity(3);
        let mut b = Matrix::zeros(3, 0);
        dtrsm(
            UpLo::Lower,
            Transpose::No,
            Diag::NonUnit,
            1.0,
            &a.view(),
            &mut b.view_mut(),
            &GemmConfig::default(),
        )
        .unwrap();
    }

    #[test]
    fn symm_shape_errors() {
        let a = Matrix::zeros(4, 3);
        let b = Matrix::zeros(4, 2);
        let mut c = Matrix::zeros(4, 2);
        assert!(matches!(
            dsymm(
                UpLo::Lower,
                1.0,
                &a.view(),
                &b.view(),
                0.0,
                &mut c.view_mut(),
                &GemmConfig::default()
            ),
            Err(GemmError::BadConfig(_))
        ));
        let a = Matrix::zeros(4, 4);
        let b = Matrix::zeros(5, 2);
        assert!(matches!(
            dsymm(
                UpLo::Lower,
                1.0,
                &a.view(),
                &b.view(),
                0.0,
                &mut c.view_mut(),
                &GemmConfig::default()
            ),
            Err(GemmError::InnerDimMismatch { .. })
        ));
    }

    /// The level-3 routines inherit the pack cache through their interior
    /// `try_gemm` calls; caching must not change a single bit of the
    /// result (the cached tiles are packed by the same code).
    #[test]
    fn level3_routines_bit_identical_with_pack_cache() {
        use crate::pool::PoolScalar;

        let n = 43;
        let k = 21;
        let a_syrk = Matrix::random(n, k, 301);
        let sym = {
            let s: Matrix = Matrix::random(n, n, 302);
            // symmetrize so dsymm's contract holds
            Matrix::from_fn(n, n, |i, j| s.get(i, j) + s.get(j, i))
        };
        let b_mat = Matrix::random(n, 17, 303);
        let c0 = Matrix::random(n, n, 304);

        let base = GemmConfig::default().with_blocks(16, 16, 12);
        let cached_cfg = base.with_pack_cache(true);
        // Clear any aliased stale entries other tests may have left for
        // these freshly allocated operands.
        f64::pack_cache().invalidate(&a_syrk.view());
        f64::pack_cache().invalidate(&sym.view());
        f64::pack_cache().invalidate(&b_mat.view());

        let mut baseline: Option<(Matrix, Matrix)> = None;
        for cfg in [base, cached_cfg, cached_cfg] {
            // third pass exercises warm cache hits
            let mut c_syrk = c0.clone();
            dsyrk(
                UpLo::Lower,
                Transpose::No,
                1.5,
                &a_syrk.view(),
                -0.5,
                &mut c_syrk.view_mut(),
                &cfg,
            )
            .unwrap();
            let mut c_symm = Matrix::zeros(n, 17);
            dsymm(
                UpLo::Lower,
                2.0,
                &sym.view(),
                &b_mat.view(),
                0.0,
                &mut c_symm.view_mut(),
                &cfg,
            )
            .unwrap();
            match &baseline {
                None => baseline = Some((c_syrk, c_symm)),
                Some((want_syrk, want_symm)) => {
                    assert_eq!(c_syrk.view().data(), want_syrk.view().data());
                    assert_eq!(c_symm.view().data(), want_symm.view().data());
                }
            }
        }

        // Coherence contract: drop our entries before the operands are
        // freed so a later allocation at the same address can't alias.
        f64::pack_cache().invalidate(&a_syrk.view());
        f64::pack_cache().invalidate(&sym.view());
        f64::pack_cache().invalidate(&b_mat.view());
    }
}
