//! LINPACK-style driver — the workload the paper's introduction names as
//! DGEMM's purpose: factor a random dense system with recursive,
//! partially-pivoted LU (whose flops flow through the GEBP engine) and
//! validate the solve with the HPL residual test.
//!
//! ```sh
//! cargo run --release --example linpack [n]
//! ```

use armv8_dgemm::prelude::*;
use dgemm_core::lu::{hpl_residual, lu_factor, lu_flops};
use dgemm_core::matrix::Matrix;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);
    println!("LINPACK-style solve of a {n}x{n} dense system");

    // HPL-style random system with a well-conditioned twist on the
    // diagonal so the residual test is about the solver, not the matrix
    let r = Matrix::random(n, n, 42);
    let a = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            r.get(i, j) + 4.0
        } else {
            r.get(i, j)
        }
    });
    let x_true = Matrix::random(n, 1, 43);
    let mut b = Matrix::zeros(n, 1);
    dgemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a.view(),
        &x_true.view(),
        0.0,
        &mut b.view_mut(),
        &GemmConfig::default(),
    )
    .unwrap();

    let cfg = GemmConfig::default();
    println!(
        "factoring with kernel {}, blocking {}",
        cfg.kernel.label(),
        cfg.blocks.label()
    );
    let t0 = Instant::now();
    let factors = lu_factor(&a, &cfg).expect("matrix is nonsingular");
    let t_factor = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let x = factors.solve(&b, &cfg).expect("solve succeeds");
    let t_solve = t0.elapsed().as_secs_f64();

    let gflops = lu_flops(n) / t_factor / 1e9;
    println!(
        "factor: {:.1} ms  ({gflops:.2} Gflops at 2n³/3)",
        t_factor * 1e3
    );
    println!("solve:  {:.2} ms", t_solve * 1e3);

    let resid = hpl_residual(&a, &x, &b);
    println!("HPL scaled residual ‖Ax−b‖/(ε‖A‖n) = {resid:.3}  (accept < 16)");
    assert!(resid < 16.0, "residual check failed");
    let err = x.max_abs_diff(&x_true);
    println!("max |x − x_true| = {err:.3e}");
    println!("PASSED");
}
