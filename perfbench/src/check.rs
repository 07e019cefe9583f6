//! Output checks with a componentwise error bound.
//!
//! A computed entry `ĉ = Σ_p a_p·b_p` of a length-`k` product passes
//! when `|ĉ − c| ≤ γ_k·Σ_p |a_p|·|b_p|`, with `γ_k = k·u/(1 − k·u)` and
//! `u = 2⁻⁵³` (Higham, *Accuracy and Stability*, §3.1): the bound every
//! summation order satisfies, so a correct GEMM can never fail it. The
//! reference `c` is a compensated (Dot2) dot product, accurate to about
//! `u·|c|`, so the check does not inherit the reference's own rounding.

use crate::stats::Rng;
use dgemm_core::matrix::Matrix;

/// Entries sampled from every checked C.
pub const SAMPLES: usize = 64;

const U: f64 = f64::EPSILON / 2.0;

pub fn gamma(k: usize) -> f64 {
    let ku = k as f64 * U;
    ku / (1.0 - ku)
}

/// Error-free `a·b = p + e` (Dekker's product, no FMA needed).
fn two_prod(a: f64, b: f64) -> (f64, f64) {
    fn split(x: f64) -> (f64, f64) {
        let c = 134_217_729.0 * x; // 2^27 + 1
        let hi = c - (c - x);
        (hi, x - hi)
    }
    let p = a * b;
    let (ah, al) = split(a);
    let (bh, bl) = split(b);
    (p, al * bl - (((p - ah * bh) - al * bh) - ah * bl))
}

/// Error-free `a + b = s + e` (Knuth's two-sum).
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let z = s - a;
    (s, (a - (s - z)) + (b - z))
}

/// Dot2 reference of `Σ a(p)·b(p)` over `0..k`, with `Σ|a(p)·b(p)|`.
pub fn reference_dot(k: usize, a: impl Fn(usize) -> f64, b: impl Fn(usize) -> f64) -> (f64, f64) {
    let (mut s, mut comp, mut abs) = (0.0, 0.0, 0.0);
    for p in 0..k {
        let (x, y) = (a(p), b(p));
        let (prod, pe) = two_prod(x, y);
        let (sum, se) = two_sum(s, prod);
        s = sum;
        comp += pe + se;
        abs += (x * y).abs();
    }
    (s + comp, abs)
}

/// Whether `computed` is within the componentwise bound of `A(i,:)·B(:,j)`.
pub fn entry_ok(computed: f64, a: &Matrix, b: &Matrix, i: usize, j: usize) -> bool {
    let k = a.cols();
    let (exact, abs) = reference_dot(k, |p| a.get(i, p), |p| b.get(p, j));
    (computed - exact).abs() <= gamma(k) * abs
}

/// `SAMPLES` seeded positions of an `m×n` result.
pub fn positions(rng: &mut Rng, m: usize, n: usize) -> Vec<(usize, usize)> {
    (0..SAMPLES).map(|_| (rng.below(m), rng.below(n))).collect()
}

/// Check `SAMPLES` seeded entries of `c = a·b`; returns the misses.
pub fn sampled_misses(rng: &mut Rng, a: &Matrix, b: &Matrix, c: &Matrix) -> usize {
    positions(rng, c.rows(), c.cols())
        .into_iter()
        .filter(|&(i, j)| !entry_ok(c.get(i, j), a, b, i, j))
        .count()
}
