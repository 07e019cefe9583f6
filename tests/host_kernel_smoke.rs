//! The host kernel end to end: `GemmConfig::auto()` (which runs
//! `MicroKernelKind::host()`, the best SIMD kernel the CPU supports)
//! over ragged shapes, both transposes and several β. Results must meet
//! a componentwise error bound against the naive oracle, match bit for
//! bit between the serial and pooled runtimes, and match bit for bit
//! when B comes from a weight-store blob instead of a live pack.

use dgemm_core::dispatch::DispatchMode;
use dgemm_core::gemm::{try_gemm, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::MicroKernelKind;
use dgemm_core::pool::PoolScalar;
use dgemm_core::prepack::PrepackedB;
use dgemm_core::reference::naive_gemm;
use dgemm_core::util::gamma;
use dgemm_core::{store, Parallelism, Transpose};

/// `(m, n, k)`: none a multiple of the host kernel's `mr` or `nr`, and
/// `k` on both sides of `kc`, so edge tiles and several rank-`kc`
/// updates both occur; the first spans several `mc` blocks so the pool
/// splits it.
const SHAPES: [(usize, usize, usize); 4] = [(151, 45, 397), (29, 67, 803), (73, 9, 41), (1, 5, 7)];

const BETAS: [f64; 3] = [0.0, 1.0, -0.25];

const ALPHA: f64 = -1.5;

/// The auto configuration with an explicit runtime and no pack cache.
fn host_config(par: Parallelism) -> GemmConfig {
    GemmConfig::auto()
        .expect("auto config")
        .with_dispatch(DispatchMode::Fixed)
        .with_parallelism(par)
        .with_pack_cache(false)
}

/// Stored dimensions of an operand used as `op(X)` of shape `rows × cols`.
fn stored(t: Transpose, rows: usize, cols: usize) -> (usize, usize) {
    t.apply_dims(rows, cols)
}

fn gemm(
    ta: Transpose,
    tb: Transpose,
    beta: f64,
    a: &Matrix,
    b: &Matrix,
    c0: &Matrix,
    cfg: &GemmConfig,
) -> Matrix {
    let mut c = c0.clone();
    try_gemm(
        ta,
        tb,
        ALPHA,
        &a.view(),
        &b.view(),
        beta,
        &mut c.view_mut(),
        cfg,
    )
    .expect("gemm must succeed");
    c
}

/// Assert `|got − want| ≤ 2·γ_d·(|α|·|A||B| + |β|·|C₀|)` entrywise,
/// where `want` is the naive oracle. Each of the two results is within
/// `γ_d·(…)` of the exact value, `d` bounding the roundings one term
/// passes through: `k` in the sums, one for α and one per rank-`kc`
/// update in the write-backs, one for β.
#[allow(clippy::too_many_arguments)]
fn assert_componentwise(
    ta: Transpose,
    tb: Transpose,
    beta: f64,
    a: &Matrix,
    b: &Matrix,
    c0: &Matrix,
    got: &Matrix,
    kc: usize,
) {
    let (m, k) = ta.apply_dims(a.rows(), a.cols());
    let n = c0.cols();
    let mut want = c0.clone();
    naive_gemm(
        ta,
        tb,
        ALPHA,
        &a.view(),
        &b.view(),
        beta,
        &mut want.view_mut(),
    );
    let abs = |x: &Matrix| Matrix::from_fn(x.rows(), x.cols(), |i, j| x.get(i, j).abs());
    let mut mag = Matrix::zeros(m, n);
    naive_gemm(
        ta,
        tb,
        1.0,
        &abs(a).view(),
        &abs(b).view(),
        0.0,
        &mut mag.view_mut(),
    );
    let depth = k + 2 * k.div_ceil(kc) + 2;
    for j in 0..n {
        for i in 0..m {
            let bound = 2.0
                * gamma(depth)
                * (ALPHA.abs() * mag.get(i, j) + beta.abs() * c0.get(i, j).abs());
            let err = (got.get(i, j) - want.get(i, j)).abs();
            assert!(
                err <= bound,
                "({i},{j}) of {m}x{n}x{k} {ta:?}{tb:?} beta={beta}: err {err:e} > bound {bound:e}"
            );
        }
    }
}

#[test]
fn auto_runs_the_host_kernel() {
    let cfg = GemmConfig::auto().expect("auto config");
    assert_eq!(cfg.kernel, MicroKernelKind::host());
    assert!(cfg.kernel.is_native());
    assert_eq!(GemmConfig::default().kernel, MicroKernelKind::Mk8x6);
}

#[test]
fn host_kernel_meets_bound_and_is_runtime_identical() {
    let serial = host_config(Parallelism::Serial);
    let pooled = host_config(Parallelism::Pool(2));
    let mut seed = 0xC0FFEE;
    for (m, n, k) in SHAPES {
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                for beta in BETAS {
                    seed += 3;
                    let (ar, ac) = stored(ta, m, k);
                    let (br, bc) = stored(tb, k, n);
                    let a = Matrix::random(ar, ac, seed);
                    let b = Matrix::random(br, bc, seed + 1);
                    let c0 = Matrix::random(m, n, seed + 2);
                    let got = gemm(ta, tb, beta, &a, &b, &c0, &serial);
                    assert_componentwise(ta, tb, beta, &a, &b, &c0, &got, serial.blocks.kc);
                    let pool = gemm(ta, tb, beta, &a, &b, &c0, &pooled);
                    assert!(
                        got.as_slice()
                            .iter()
                            .zip(pool.as_slice())
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{m}x{n}x{k} {ta:?}{tb:?} beta={beta}: Serial and Pool(2) differ"
                    );
                }
            }
        }
    }
}

#[test]
fn stored_blob_multiplies_like_a_live_pack() {
    let dir = std::env::temp_dir().join(format!("dgemm-host-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let live_cfg = host_config(Parallelism::Serial);
    let (m, n, k) = SHAPES[0];
    for (idx, tb) in [Transpose::No, Transpose::Yes].into_iter().enumerate() {
        let a = Matrix::random(m, k, 71 + idx as u64);
        let (br, bc) = stored(tb, k, n);
        let b = Matrix::random(br, bc, 81 + idx as u64);
        let c0 = Matrix::random(m, n, 91 + idx as u64);
        let want = gemm(Transpose::No, tb, 0.5, &a, &b, &c0, &live_cfg);

        let packed = PrepackedB::from_matrix_op(&live_cfg, tb, &b.view()).expect("prepack");
        let path = dir.join(format!("w{idx}.dgemm"));
        store::save(&path, &packed).expect("save blob");
        let blob = store::load::<f64>(&path).expect("load blob");
        assert!(blob.verify_source(&b.view(), tb));
        assert_eq!(blob.panels.nr(), live_cfg.kernel.nr());
        f64::pack_cache()
            .insert_prepacked(&b.view(), tb, blob.panels)
            .expect("attach blob");
        let (nr, kc, nc) = (live_cfg.kernel.nr(), live_cfg.blocks.kc, live_cfg.blocks.nc);
        assert!(f64::pack_cache().contains(&b.view(), tb, nr, kc, nc));
        for par in [Parallelism::Serial, Parallelism::Pool(2)] {
            let cfg = live_cfg.with_parallelism(par).with_pack_cache(true);
            let got = gemm(Transpose::No, tb, 0.5, &a, &b, &c0, &cfg);
            assert!(
                got.as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{tb:?} {par:?}: stored panels differ from a live pack"
            );
        }
        f64::pack_cache().invalidate(&b.view());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
