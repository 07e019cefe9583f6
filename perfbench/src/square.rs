//! `square`: repeated `C := A·B` on 1024×1024 column-major operands,
//! one pass at `nproc` threads, then the same problem at one thread.
//! Compute-bound: micro-kernel and GEBP do the work, the pool is the
//! only other cost; prepack, batch, service, store and dispatch are
//! bypassed.

use crate::check;
use crate::layers::{self, Delta, GemmAcc};
use crate::stats::{median, quantile, Rng};
use crate::Ctx;
use dgemm_core::gemm::{gemm, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::telemetry;
use dgemm_core::Transpose;
use std::time::Instant;

const N: usize = 1024;
const SETUP_PROBES: usize = 5;

fn inputs(seed: u64) -> (Matrix, Matrix) {
    let mut rng = Rng::fork(seed, 1);
    let a = Matrix::from_fn(N, N, |_, _| rng.signed());
    let b = Matrix::from_fn(N, N, |_, _| rng.signed());
    (a, b)
}

fn call(a: &Matrix, b: &Matrix, c: &mut Matrix, cfg: &GemmConfig) {
    gemm(
        Transpose::No,
        Transpose::No,
        1.0,
        &a.view(),
        &b.view(),
        0.0,
        &mut c.view_mut(),
        cfg,
    );
}

fn flops() -> f64 {
    2.0 * (N as f64).powi(3)
}

/// Set-up sample: the first `gemm` of a fresh process.
pub fn probe(seed: u64) -> Result<f64, String> {
    let (a, b) = inputs(seed);
    let mut c = Matrix::zeros(N, N);
    let t = Instant::now();
    let cfg = GemmConfig::auto().map_err(|e| e.to_string())?;
    call(&a, &b, &mut c, &cfg);
    Ok(t.elapsed().as_secs_f64())
}

/// Call times of one pass, split by whether the call was traced.
#[derive(Default)]
struct Pass {
    plain: Vec<f64>,
    traced: Vec<f64>,
    acc: GemmAcc,
}

impl Pass {
    /// The call times the run's figures come from: the traced ones
    /// when any were traced, else the plain ones.
    fn timed(&mut self) -> &mut [f64] {
        if self.traced.is_empty() {
            &mut self.plain
        } else {
            &mut self.traced
        }
    }
}

/// Calls until `budget` seconds have gone (at least 3), checking every
/// C. Every `trace_every`-th call is traced (0: none).
fn pass(
    ctx: &mut Ctx,
    ab: (&Matrix, &Matrix),
    c: &mut Matrix,
    cfg: &GemmConfig,
    budget: f64,
    trace_every: usize,
) -> Pass {
    let (a, b) = ab;
    let mut rng = Rng::fork(ctx.seed, 2 + cfg.threads() as u64);
    let name = if cfg.threads() > 1 {
        "square.nproc"
    } else {
        "square.1t"
    };
    let phase = (trace_every > 0).then(|| {
        let t = ctx.rec.now();
        ctx.rec.push(name, t, t, None, 0)
    });
    let mut p = Pass::default();
    let start = Instant::now();
    let mut i = 0;
    while i < 3 || start.elapsed().as_secs_f64() < budget {
        let traced = trace_every > 0 && i % trace_every == trace_every - 1;
        let before = traced.then(telemetry::snapshot);
        let t0 = ctx.rec.now();
        let t = Instant::now();
        call(a, b, c, cfg);
        let secs = t.elapsed().as_secs_f64();
        let t1 = ctx.rec.now();
        if let Some(before) = before {
            let d = Delta::since(before);
            p.acc.add(&d, t1 - t0);
            let span = ctx.rec.push("gemm", t0, t1, phase, 0);
            d.child_spans(&mut ctx.rec, span, t0, t1);
            p.traced.push(secs);
        } else {
            p.plain.push(secs);
        }
        ctx.attempted += 1;
        if check::sampled_misses(&mut rng, a, b, c) > 0 {
            ctx.failed += 1;
        }
        ctx.pace.sample();
        i += 1;
    }
    if let Some(id) = phase {
        ctx.rec.spans[id].end_ns = ctx.rec.now();
    }
    p
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let setup = crate::setup_median("square", ctx.seed, SETUP_PROBES)?;
    let (a, b) = inputs(ctx.seed);
    let mut c = Matrix::zeros(N, N);
    let (cfg, cfg1) = (ctx.cfg, ctx.cfg1);
    call(&a, &b, &mut c, &cfg); // warm-up: pool and arenas exist from here on
    let micro = ctx.traced.then(|| layers::micro_pass(ctx, &cfg));

    let before = telemetry::snapshot();
    // Traced runs trace every other call at nproc threads (the rest
    // measure the tracing overhead) and every call at one thread (for
    // gemm.residual_frac). The gated latency comes from the nproc
    // pass, so it gets most of the run.
    let secs = ctx.seconds;
    let mut pn = pass(
        ctx,
        (&a, &b),
        &mut c,
        &cfg,
        secs * 0.75,
        if ctx.traced { 2 } else { 0 },
    );
    let mut p1 = pass(
        ctx,
        (&a, &b),
        &mut c,
        &cfg1,
        secs * 0.25,
        usize::from(ctx.traced),
    );
    let all = Delta::since(before);

    let (t_n, t_1) = (median(pn.timed()), median(p1.timed()));
    let t_low = quantile(pn.timed(), crate::LATENCY_QUANTILE);
    let calls = pn.plain.len() + pn.traced.len() + p1.plain.len() + p1.traced.len();
    ctx.note(format!(
        "square: n={N}, {calls} calls; at {} threads median {:.3} ms, lower quartile {:.3} ms; median {:.3} ms at 1 thread",
        cfg.threads(),
        t_n * 1e3,
        t_low * 1e3,
        t_1 * 1e3,
    ));
    let (gflops, gflops_1t) = (flops() / t_n / 1e9, flops() / t_1 / 1e9);
    ctx.e2e("setup_raw_s", setup, "s");
    ctx.e2e("latency_raw_ms", t_low * 1e3, "ms");
    ctx.e2e("latency_p50_ms", t_n * 1e3, "ms");
    ctx.e2e("gflops", gflops, "GFLOP/s");
    ctx.e2e("gflops_1t", gflops_1t, "GFLOP/s");

    if let Some(m) = micro {
        layers::report(ctx, &m, &pn.acc, &p1.acc, &all, (gflops, gflops_1t));
        ctx.layer("gemm.calls", ctx.attempted as f64);
        ctx.layer("bench.trace_overhead", t_n / median(&mut pn.plain) - 1.0);
    }
    Ok(())
}
