//! `lu`: `lu_factor` + `solve` of a 1536×1536 system with one
//! right-hand side; a solve is accepted when `hpl_residual` < 16. The
//! same GEMM layers run as ~32 trailing updates with k = 48, shrinking
//! m and n and β = 1, next to the unblocked panel factorization.

use crate::layers::{self, Delta, GemmAcc};
use crate::stats::{median, quantile, Rng};
use crate::Ctx;
use dgemm_core::gemm::GemmConfig;
use dgemm_core::lu::{hpl_residual, lu_factor, lu_flops};
use dgemm_core::matrix::Matrix;
use dgemm_core::telemetry::{self, Phase};
use std::time::Instant;

const N: usize = 1536;
const SETUP_PROBES: usize = 5;
/// HPL's acceptance threshold for the scaled residual.
const RESIDUAL_LIMIT: f64 = 16.0;

fn inputs(seed: u64) -> (Matrix, Matrix) {
    let mut rng = Rng::fork(seed, 11);
    let a = Matrix::from_fn(N, N, |_, _| rng.signed());
    let b = Matrix::from_fn(N, 1, |_, _| rng.signed());
    (a, b)
}

/// Factor + two triangular solves (HPL's count).
fn flops() -> f64 {
    lu_flops(N) + 2.0 * (N * N) as f64
}

/// One factor + solve; the scaled residual, or an error message.
fn solve(a: &Matrix, b: &Matrix, cfg: &GemmConfig) -> Result<f64, String> {
    let f = lu_factor(a, cfg).map_err(|e| e.to_string())?;
    let x = f.solve(b, cfg).map_err(|e| e.to_string())?;
    Ok(hpl_residual(a, &x, b))
}

/// Set-up sample: the first factor + solve of a fresh process.
pub fn probe(seed: u64) -> Result<f64, String> {
    let (a, b) = inputs(seed);
    let t = Instant::now();
    let cfg = GemmConfig::auto().map_err(|e| e.to_string())?;
    let f = lu_factor(&a, &cfg).map_err(|e| e.to_string())?;
    let x = f.solve(&b, &cfg).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(x);
    Ok(secs)
}

#[derive(Default)]
struct Pass {
    plain: Vec<f64>,
    traced: Vec<f64>,
    acc: GemmAcc,
    /// Factor wall and caller-lane GEMM phase time of traced solves.
    factor_ns: u64,
    factor_gemm_ns: u64,
}

impl Pass {
    /// The solve times the run's figures come from: the traced ones
    /// when any were traced, else the plain ones.
    fn timed(&mut self) -> &mut [f64] {
        if self.traced.is_empty() {
            &mut self.plain
        } else {
            &mut self.traced
        }
    }
}

/// Solves until `budget` seconds have gone (at least 3). Every
/// `trace_every`-th solve is traced (0: none). Failed or rejected
/// solves count as failures and are not timed.
fn pass(
    ctx: &mut Ctx,
    ab: (&Matrix, &Matrix),
    cfg: &GemmConfig,
    budget: f64,
    trace_every: usize,
) -> Pass {
    let (a, b) = ab;
    let name = if cfg.threads() > 1 {
        "lu.nproc"
    } else {
        "lu.1t"
    };
    let phase = (trace_every > 0).then(|| {
        let t = ctx.rec.now();
        ctx.rec.push(name, t, t, None, 0)
    });
    let lane = layers::caller_lane();
    let mut p = Pass::default();
    let start = Instant::now();
    let mut i = 0;
    while i < 3 || start.elapsed().as_secs_f64() < budget {
        let traced = trace_every > 0 && i % trace_every == trace_every - 1;
        i += 1;
        ctx.attempted += 1;
        let result = if traced {
            let before = telemetry::snapshot();
            let t0 = ctx.rec.now();
            let t = Instant::now();
            let factored = lu_factor(a, cfg);
            let t1 = ctx.rec.now();
            let mid = Delta::since(before);
            let x = factored
                .map_err(|e| e.to_string())
                .and_then(|f| f.solve(b, cfg).map_err(|e| e.to_string()));
            let secs = t.elapsed().as_secs_f64();
            let t2 = ctx.rec.now();
            let all = Delta::since(mid.before.clone());
            p.acc.add(&all, t2 - t0);
            p.factor_ns += t1 - t0;
            p.factor_gemm_ns += mid.phase_ns_on(
                &[Phase::PackA, Phase::PackB, Phase::Compute, Phase::Barrier],
                &lane,
            );
            let top = ctx.rec.push("lu", t0, t2, phase, 0);
            let f = ctx.rec.push("lu.factor", t0, t1, Some(top), 0);
            let s = ctx.rec.push("lu.solve", t1, t2, Some(top), 0);
            mid.child_spans(&mut ctx.rec, f, t0, t1);
            all.child_spans(&mut ctx.rec, s, t1, t2);
            x.map(|x| (hpl_residual(a, &x, b), secs))
        } else {
            let t = Instant::now();
            solve(a, b, cfg).map(|r| (r, t.elapsed().as_secs_f64()))
        };
        ctx.pace.sample();
        match result {
            Ok((resid, secs)) if resid < RESIDUAL_LIMIT => {
                if traced {
                    p.traced.push(secs)
                } else {
                    p.plain.push(secs)
                }
            }
            Ok((resid, _)) => {
                ctx.failed += 1;
                ctx.note(format!("lu: rejected solve, hpl_residual = {resid}"));
            }
            Err(e) => {
                ctx.failed += 1;
                ctx.note(format!("lu: solve failed: {e}"));
            }
        }
    }
    if let Some(id) = phase {
        ctx.rec.spans[id].end_ns = ctx.rec.now();
    }
    p
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let setup = crate::setup_median("lu", ctx.seed, SETUP_PROBES)?;
    let (a, b) = inputs(ctx.seed);
    let (cfg, cfg1) = (ctx.cfg, ctx.cfg1);
    let micro = ctx.traced.then(|| layers::micro_pass(ctx, &cfg));

    // The gated latency is the nproc-thread solve, so an untraced run
    // gives it the whole run. The one-thread pass feeds only the
    // per-layer ratios and runs only when traced.
    let before = telemetry::snapshot();
    let mut pn = pass(
        ctx,
        (&a, &b),
        &cfg,
        ctx.seconds * if ctx.traced { 0.5 } else { 1.0 },
        if ctx.traced { 2 } else { 0 },
    );
    let mut p1 = if ctx.traced {
        pass(ctx, (&a, &b), &cfg1, ctx.seconds * 0.5, 1)
    } else {
        Pass::default()
    };
    let all = Delta::since(before);

    let t_n = median(pn.timed());
    let t_low = quantile(pn.timed(), crate::LATENCY_QUANTILE);
    let solves = pn.plain.len() + pn.traced.len() + p1.plain.len() + p1.traced.len();
    ctx.note(format!(
        "lu: n={N}, {solves} accepted solves; at {} threads median {:.3} s, lower quartile {:.3} s",
        cfg.threads(),
        t_n,
        t_low,
    ));
    let gflops = flops() / t_n / 1e9;
    ctx.e2e("setup_raw_s", setup, "s");
    ctx.e2e("latency_raw_ms", t_low * 1e3, "ms");
    ctx.e2e("latency_p50_ms", t_n * 1e3, "ms");
    ctx.e2e("solve_s", t_n, "s");
    ctx.e2e("gflops", gflops, "GFLOP/s");

    if let Some(m) = micro {
        let t_1 = median(p1.timed());
        let gflops_1t = flops() / t_1 / 1e9;
        ctx.note(format!("lu: median {t_1:.3} s at 1 thread"));
        ctx.e2e("gflops_1t", gflops_1t, "GFLOP/s");
        layers::report(ctx, &m, &pn.acc, &p1.acc, &all, (gflops, gflops_1t));
        // Entry-point calls: lu_factor and solve per attempted solve.
        ctx.layer("gemm.calls", 2.0 * ctx.attempted as f64);
        let non_gemm = 1.0 - pn.factor_gemm_ns as f64 / pn.factor_ns as f64;
        ctx.layer("lu.non_gemm_share", non_gemm);
        ctx.layer("bench.trace_overhead", t_n / median(&mut pn.plain) - 1.0);
    }
    Ok(())
}
