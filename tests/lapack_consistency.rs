//! Cross-routine consistency of the Level-3 / factorization stack: the
//! algebraic identities that tie DGEMM, DSYRK, DSYMM, DTRSM, LU and
//! Cholesky together must hold across kernels and thread counts.

use dgemm_core::cholesky::{cholesky, cholesky_solve};
use dgemm_core::gemm::{gemm, GemmConfig};
use dgemm_core::level3::{dsymm, dsyrk, dtrsm, Diag, UpLo};
use dgemm_core::lu::{hpl_residual, lu_factor, LuError, Singular};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::MicroKernelKind;
use dgemm_core::reference::naive_gemm;
use dgemm_core::util::{dot2, gamma};
use dgemm_core::{Parallelism, Transpose};

fn spd(n: usize, seed: u64) -> Matrix {
    let g = Matrix::random(n, n, seed);
    let mut ggt = Matrix::zeros(n, n);
    naive_gemm(
        Transpose::No,
        Transpose::Yes,
        1.0,
        &g.view(),
        &g.view(),
        0.0,
        &mut ggt.view_mut(),
    );
    Matrix::from_fn(n, n, |i, j| {
        ggt.get(i, j) + if i == j { n as f64 } else { 0.0 }
    })
}

/// `dsyrk(A) == tril(A·Aᵀ)` computed through plain gemm, for every
/// kernel.
#[test]
fn syrk_equals_gemm_triangle_across_kernels() {
    let n = 60;
    let k = 33;
    let a = Matrix::random(n, k, 1);
    let mut full = Matrix::zeros(n, n);
    naive_gemm(
        Transpose::No,
        Transpose::Yes,
        1.0,
        &a.view(),
        &a.view(),
        0.0,
        &mut full.view_mut(),
    );
    for kind in MicroKernelKind::ALL {
        let cfg = GemmConfig::for_kernel(kind, 1);
        let mut c = Matrix::zeros(n, n);
        dsyrk(
            UpLo::Lower,
            Transpose::No,
            1.0,
            &a.view(),
            0.0,
            &mut c.view_mut(),
            &cfg,
        )
        .unwrap();
        for i in 0..n {
            for j in 0..=i {
                assert!(
                    (c.get(i, j) - full.get(i, j)).abs() < 1e-9,
                    "{} ({i},{j})",
                    kind.label()
                );
            }
        }
    }
}

/// Cholesky of `A` then `dsymm` with the reconstructed `L·Lᵀ` round-trips
/// through the symmetric multiply.
#[test]
fn cholesky_dsymm_roundtrip() {
    let n = 72;
    let cfg = GemmConfig::default();
    let a = spd(n, 2);
    let l = cholesky(&a, &cfg).unwrap();
    // reconstruct A's lower triangle via dsyrk on L
    let mut llt = Matrix::zeros(n, n);
    dsyrk(
        UpLo::Lower,
        Transpose::No,
        1.0,
        &l.view(),
        0.0,
        &mut llt.view_mut(),
        &cfg,
    )
    .unwrap();
    // dsymm reads only the stored triangle, so feeding llt (garbage upper
    // = zeros) must act like full A
    let x = Matrix::random(n, 5, 3);
    let mut want = Matrix::zeros(n, 5);
    naive_gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a.view(),
        &x.view(),
        0.0,
        &mut want.view_mut(),
    );
    let mut got = Matrix::zeros(n, 5);
    dsymm(
        UpLo::Lower,
        1.0,
        &llt.view(),
        &x.view(),
        0.0,
        &mut got.view_mut(),
        &cfg,
    )
    .unwrap();
    assert!(
        got.max_abs_diff(&want) < 1e-8,
        "{}",
        got.max_abs_diff(&want)
    );
}

/// LU and Cholesky must agree on the solution of an SPD system.
#[test]
fn lu_and_cholesky_agree_on_spd_systems() {
    let n = 90;
    let cfg = GemmConfig::default();
    let a = spd(n, 4);
    let b = Matrix::random(n, 2, 5);
    let x_lu = lu_factor(&a, &cfg).unwrap().solve(&b, &cfg).unwrap();
    let l = cholesky(&a, &cfg).unwrap();
    let x_chol = cholesky_solve(&l, &b, &cfg).unwrap();
    assert!(
        x_lu.max_abs_diff(&x_chol) < 1e-8,
        "{}",
        x_lu.max_abs_diff(&x_chol)
    );
    assert!(hpl_residual(&a, &x_lu, &b) < 10.0);
}

/// `dtrsm` inverts the multiplication it is defined against:
/// `trsm(L, L·X) == X` for every uplo/trans/diag combination.
#[test]
fn trsm_inverts_triangular_multiply() {
    let m = 70;
    let n = 9;
    let cfg = GemmConfig::default();
    let base: Matrix = Matrix::random(m, m, 6);
    for uplo in [UpLo::Lower, UpLo::Upper] {
        for trans in [Transpose::No, Transpose::Yes] {
            for diag in [Diag::NonUnit, Diag::Unit] {
                let tri = Matrix::from_fn(m, m, |i, j| {
                    let stored = match uplo {
                        UpLo::Lower => i >= j,
                        UpLo::Upper => i <= j,
                    };
                    if i == j {
                        if diag == Diag::Unit {
                            1.0
                        } else {
                            2.0 + base.get(i, j).abs()
                        }
                    } else if stored {
                        0.4 * base.get(i, j)
                    } else {
                        0.0
                    }
                });
                let x = Matrix::random(m, n, 7);
                let mut b = Matrix::zeros(m, n);
                naive_gemm(
                    trans,
                    Transpose::No,
                    1.0,
                    &tri.view(),
                    &x.view(),
                    0.0,
                    &mut b.view_mut(),
                );
                dtrsm(uplo, trans, diag, 1.0, &tri.view(), &mut b.view_mut(), &cfg).unwrap();
                assert!(
                    b.max_abs_diff(&x) < 1e-8,
                    "{uplo:?}/{trans:?}/{diag:?}: {}",
                    b.max_abs_diff(&x)
                );
            }
        }
    }
}

/// Every bit of `m`, so `-0.0` vs `0.0` and NaN payloads count.
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Serial, `Pool(2)` and `Pool(4)` over the portable and the host kernel.
fn runtime_configs() -> Vec<GemmConfig> {
    [MicroKernelKind::Mk8x6, MicroKernelKind::host()]
        .into_iter()
        .flat_map(|kind| {
            [1, 2, 4].map(|t| {
                GemmConfig::for_kernel(kind, 1).with_parallelism(Parallelism::from_threads(t))
            })
        })
        .collect()
}

/// Threaded factorizations must match serial ones bit for
/// bit: the GEMM runtimes are bit-identical, and all non-GEMM work is
/// serial and deterministic.
#[test]
fn threaded_factorizations_match_serial() {
    let spd_a = spd(150, 8);
    let general = Matrix::random(257, 257, 9);
    let configs = runtime_configs();
    for serial in configs.iter().filter(|c| c.threads() == 1) {
        let same_kernel = configs.iter().filter(|c| c.kernel == serial.kernel);
        let l1 = cholesky(&spd_a, serial).unwrap();
        let f1 = lu_factor(&general, serial).unwrap();
        for threaded in same_kernel {
            let l2 = cholesky(&spd_a, threaded).unwrap();
            assert_eq!(bits(&l1), bits(&l2), "cholesky {:?}", threaded.parallelism);
            let f2 = lu_factor(&general, threaded).unwrap();
            assert_eq!(f1.pivots, f2.pivots, "lu pivots {:?}", threaded.parallelism);
            assert_eq!(bits(&f1.lu), bits(&f2.lu), "lu {:?}", threaded.parallelism);
        }
    }
}

/// `dtrsm` is bit-identical across runtimes for every variant.
#[test]
fn threaded_trsm_matches_serial() {
    let (m, n) = (200, 65);
    let r: Matrix = Matrix::random(m, m, 11);
    let a = Matrix::from_fn(m, m, |i, j| {
        if i == j {
            2.0 + r.get(i, j).abs()
        } else {
            0.5 * r.get(i, j)
        }
    });
    let b0 = Matrix::random(m, n, 10);
    let configs = runtime_configs();
    for uplo in [UpLo::Lower, UpLo::Upper] {
        for trans in [Transpose::No, Transpose::Yes] {
            for diag in [Diag::NonUnit, Diag::Unit] {
                let solve = |cfg: &GemmConfig| {
                    let mut b = b0.clone();
                    dtrsm(uplo, trans, diag, -0.5, &a.view(), &mut b.view_mut(), cfg).unwrap();
                    bits(&b)
                };
                for serial in configs.iter().filter(|c| c.threads() == 1) {
                    let want = solve(serial);
                    for threaded in configs.iter().filter(|c| c.kernel == serial.kernel) {
                        assert_eq!(
                            solve(threaded),
                            want,
                            "{uplo:?}/{trans:?}/{diag:?} {:?}",
                            threaded.parallelism
                        );
                    }
                }
            }
        }
    }
}

/// Higham Thm 9.3: the computed factors satisfy `P·A + ΔA = L·U` with
/// `|ΔA| ≤ γₙ·|L|·|U|` entrywise, whatever order the recursion, the
/// trsm and the GEMM sum in. The residual `(L·U − P·A)ᵢⱼ` is evaluated
/// with Dot2, whose own error (`u·|r| + γ²ₙ₊₁·Σ|terms|`) is added to
/// the bound.
fn assert_backward_stable(a: &Matrix, cfg: &GemmConfig, what: &str) {
    let n = a.rows();
    let f = lu_factor(a, cfg).unwrap_or_else(|e| panic!("{what} n={n}: {e}"));
    let mut pa = a.clone();
    f.apply_pivots(&mut pa);
    let g = gamma(n);
    let g2 = gamma(n + 1).powi(2);
    let lu = f.lu.view();
    for j in 0..n {
        let u_j = lu.col(j);
        for i in 0..n {
            // (L·U)ᵢⱼ = Σ_{k ≤ min(i, j)} Lᵢₖ·Uₖⱼ with Lᵢᵢ = 1
            let terms = (0..=i.min(j)).map(|k| {
                let l_ik = if k == i { 1.0 } else { lu.get(i, k) };
                (l_ik, u_j[k])
            });
            let lu_abs: f64 = terms.clone().map(|(l, u)| (l * u).abs()).sum();
            let r = dot2(terms.chain([(-1.0, pa.get(i, j))]));
            let bound = g * lu_abs + g2 * (lu_abs + pa.get(i, j).abs()) + f64::EPSILON * r.abs();
            assert!(
                r.abs() <= bound,
                "{what} n={n} ({i},{j}): |PA - LU| = {:e} > {bound:e}",
                r.abs()
            );
        }
    }
}

/// Sizes crossing every recursion and leaf boundary of `lu_factor`.
const LU_SIZES: [usize; 12] = [0, 1, 2, 15, 16, 17, 31, 33, 64, 97, 130, 257];

#[test]
fn lu_componentwise_backward_error() {
    let serial = GemmConfig::default();
    let host_pool =
        GemmConfig::for_kernel(MicroKernelKind::host(), 1).with_parallelism(Parallelism::Pool(2));
    for n in LU_SIZES {
        let random = Matrix::random(n, n, n as u64);
        let mut zero_pivot = Matrix::random(n, n, 1000 + n as u64);
        if n > 1 {
            zero_pivot.set(0, 0, 0.0);
        }
        // rows scaled by 2^e, e in [-100, 100]: exact, and pivoting has
        // to pick across 200 binary orders of magnitude
        let exps: Matrix = Matrix::random(n, 1, 2000 + n as u64);
        let scaled = Matrix::from_fn(n, n, |i, j| {
            random.get(i, j) * 2f64.powi((exps.get(i, 0) * 100.0).round() as i32)
        });
        for (a, what) in [
            (&random, "random"),
            (&zero_pivot, "zero leading pivot"),
            (&scaled, "row-scaled"),
        ] {
            assert_backward_stable(a, &serial, what);
            if n >= 130 {
                assert_backward_stable(a, &host_pool, what);
            }
        }
    }
}

/// A matrix whose column `k` has no nonzero entry on or below the
/// diagonal once columns `..k` are eliminated (rows `k..` are zero in
/// columns `..=k`) fails exactly at `k`.
#[test]
fn lu_reports_the_singular_column() {
    for n in LU_SIZES.into_iter().filter(|&n| n > 0) {
        let mut ks = vec![0, n / 2, n - 1];
        ks.extend([15, 16, 17, 32, 64].into_iter().filter(|&k| k < n));
        for k in ks {
            let r: Matrix = Matrix::random(n, n, 3000 + n as u64);
            let a = Matrix::from_fn(
                n,
                n,
                |i, j| if i >= k && j <= k { 0.0 } else { r.get(i, j) },
            );
            let err = lu_factor(&a, &GemmConfig::default()).unwrap_err();
            assert_eq!(
                err,
                LuError::Singular(Singular { column: k }),
                "n={n} k={k}"
            );
        }
    }
}

/// Batched GEMM with a shared B equals per-element GEMM calls.
#[test]
fn batch_equals_loop_of_gemms() {
    use dgemm_core::batch::gemm_batch_shared_b;
    let (m, n, k, batch) = (40, 35, 30, 5);
    let a_mats: Vec<Matrix> = (0..batch)
        .map(|i| Matrix::random(m, k, 10 + i as u64))
        .collect();
    let b = Matrix::random(k, n, 20);
    let cfg = GemmConfig::default();

    let mut want: Vec<Matrix> = (0..batch).map(|_| Matrix::zeros(m, n)).collect();
    for (a, c) in a_mats.iter().zip(want.iter_mut()) {
        gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &b.view(),
            0.0,
            &mut c.view_mut(),
            &cfg,
        );
    }

    let mut got: Vec<Matrix> = (0..batch).map(|_| Matrix::zeros(m, n)).collect();
    let a_views: Vec<_> = a_mats.iter().map(Matrix::view).collect();
    let mut c_views: Vec<_> = got.iter_mut().map(Matrix::view_mut).collect();
    gemm_batch_shared_b(
        1.0,
        &a_views,
        Transpose::No,
        &b.view(),
        0.0,
        &mut c_views,
        &cfg,
    )
    .unwrap();
    drop(c_views);

    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            g.max_abs_diff(w),
            0.0,
            "identical code path, identical bits"
        );
    }
}
