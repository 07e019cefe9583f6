//! `serve`: an open loop of Poisson arrivals from four independent
//! tenants into one `GemmService`. Each tenant owns 12 weights
//! (k = n = 512), each request draws its weight from a Zipf law and its
//! activation height m from a skewed law over 1..=64. Twelve weights
//! exceed the per-tenant cache's default 8 entries, so hits, misses and
//! evictions all occur; half the weights are pre-packed into the store
//! the service boots from. One sender thread submits on schedule, one
//! collector thread waits on tickets in submission order; a request is
//! timed from its scheduled send time to when its result is observed.
//!
//! The run measures a fixed rate (`RATE_FIXED`), then climbs a fixed
//! geometric rate ladder and stops at the first rung that fails.

use crate::check;
use crate::layers::{self, Delta, GemmAcc};
use crate::stats::{median, quantile, ratio, Rng};
use crate::Ctx;
use dgemm_core::gemm::{gemm, GemmConfig};
use dgemm_core::matrix::Matrix;
use dgemm_core::prepack::PrepackedB;
use dgemm_core::service::{GemmService, ServiceError, Ticket};
use dgemm_core::store;
use dgemm_core::telemetry;
use dgemm_core::trace::{TraceEventRec, TraceKind};
use dgemm_core::Transpose;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 4;
const WEIGHTS: usize = 12;
const K: usize = 512;
const N: usize = 512;
const M_MAX: usize = 64;
/// Distinct activation matrices per height m.
const VARIANTS: usize = 3;
/// Zipf exponent of the weight popularity law.
const ZIPF_S: f64 = 1.0;
/// The fixed rate latency is reported at: about a sixth of the goodput
/// on the reference host, so that queueing stays short and does not
/// amplify the shared host's speed swings (see the README).
pub const RATE_FIXED: f64 = 20.0;
/// The geometric rate ladder (ratio √2).
pub const LADDER: [f64; 5] = [60.0, 85.0, 120.0, 170.0, 240.0];
/// A rung passes when p99 latency stays within this limit (about 10×
/// the unloaded p50)...
pub const LATENCY_LIMIT_MS: f64 = 30.0;
/// ...the queue stays below this depth (a growing backlog crosses it;
/// the sender stops there, well below the service's admission bound,
/// so an overloaded rung never sheds)...
const BACKLOG_LIMIT: usize = 48;
/// ...and no request fails. A rung whose sender ran later than this
/// at p99 measured the generator, not the service: it is invalid.
const LAG_LIMIT_MS: f64 = LATENCY_LIMIT_MS / 2.0;
const SETUP_REPS: usize = 9;
/// Slices of the fixed-rate phase (see `sliced_p50`).
const FIXED_SLICES: usize = 9;
/// How long before each send time the sender stops sleeping and spins.
const SPIN: Duration = Duration::from_millis(2);
/// Host pace samples taken before each slice and after the last.
const PACE_SAMPLES: usize = 3;
/// Requests replayed through direct `gemm` for the baseline.
const DIRECT_REQS: usize = 128;

struct World {
    tenants: Vec<String>,
    /// `weights[tenant][w]`; index `w` is also the popularity rank.
    weights: Vec<Vec<Arc<Matrix>>>,
    /// `acts[m - 1][variant]`.
    acts: Vec<Vec<Arc<Matrix>>>,
}

#[derive(Clone, Copy)]
struct Req {
    due_s: f64,
    tenant: usize,
    weight: usize,
    m: usize,
    variant: usize,
}

impl World {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::fork(seed, 21);
        let mut random = |r: usize, c: usize| Arc::new(Matrix::from_fn(r, c, |_, _| rng.signed()));
        let weights = (0..TENANTS)
            .map(|_| (0..WEIGHTS).map(|_| random(K, N)).collect())
            .collect();
        let acts = (1..=M_MAX)
            .map(|m| (0..VARIANTS).map(|_| random(m, K)).collect())
            .collect();
        World {
            tenants: (0..TENANTS).map(|t| format!("tenant{t}")).collect(),
            weights,
            acts,
        }
    }

    fn a(&self, r: &Req) -> &Arc<Matrix> {
        &self.acts[r.m - 1][r.variant]
    }

    fn w(&self, r: &Req) -> &Arc<Matrix> {
        &self.weights[r.tenant][r.weight]
    }
}

/// `count` quantile points of a law given by its inverse CDF, in a
/// seeded order: stratified sampling, so every phase of every seed
/// draws the same mix and only its order and values vary.
fn deck<T>(rng: &mut Rng, count: usize, inverse_cdf: impl Fn(f64) -> T) -> Vec<T> {
    let mut v: Vec<T> = (0..count)
        .map(|i| inverse_cdf((i as f64 + 0.5) / count as f64))
        .collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// Open-loop arrivals at `rate` for `secs` from stream `tag`: the
/// Poisson process given its count (uniform times, sorted), tenants
/// equally likely, weights by Zipf rank, m skewed toward small heights.
fn schedule(seed: u64, tag: u64, rate: f64, secs: f64) -> Vec<Req> {
    let mut rng = Rng::fork(seed, tag);
    let count = (rate * secs).round().max(1.0) as usize;
    let zipf: Vec<f64> = (1..=WEIGHTS)
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = zipf.iter().sum();
    let weights = deck(&mut rng, count, |u| {
        let mut left = u * total;
        zipf.iter()
            .position(|&p| {
                left -= p;
                left < 0.0
            })
            .unwrap_or(WEIGHTS - 1)
    });
    let heights = deck(&mut rng, count, |u| {
        (1 + (M_MAX as f64 * u * u) as usize).min(M_MAX)
    });
    let tenants = deck(&mut rng, count, |u| {
        ((u * TENANTS as f64) as usize).min(TENANTS - 1)
    });
    let mut times: Vec<f64> = (0..count).map(|_| rng.unit() * secs).collect();
    times.sort_by(f64::total_cmp);
    (0..count)
        .map(|i| Req {
            due_s: times[i],
            tenant: tenants[i],
            weight: weights[i],
            m: heights[i],
            variant: rng.below(VARIANTS),
        })
        .collect()
}

fn flops(r: &Req) -> f64 {
    2.0 * (r.m * K * N) as f64
}

/// What the collector saw of one request.
struct Seen {
    idx: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    observed: Instant,
    /// `None` when the request failed (shed, rejected, deadline).
    samples: Option<Vec<(usize, usize, f64)>>,
    id: u64,
    events: Vec<TraceEventRec>,
}

struct Drive {
    reqs: Vec<Req>,
    seen: Vec<Seen>,
    lags_ms: Vec<f64>,
    max_depth: usize,
    aborted: bool,
    wall_ns: u64,
}

impl Drive {
    /// Latency from the scheduled send time; failures are infinite.
    fn latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .seen
            .iter()
            .map(|s| {
                if s.samples.is_some() {
                    s.observed.duration_since(s.due).as_secs_f64() * 1e3
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        // Requests never sent (the sender stopped on backlog) miss too.
        v.resize(self.reqs.len(), f64::INFINITY);
        v
    }

    fn errors(&self) -> usize {
        self.seen.iter().filter(|s| s.samples.is_none()).count()
    }
}

type Msg = (
    usize,
    Instant,
    Instant,
    Instant,
    Result<Ticket, ServiceError>,
);

/// Run `reqs` open-loop against `svc`: this thread collects, a scoped
/// sender thread submits on schedule.
fn drive(svc: &GemmService, world: &World, reqs: Vec<Req>, seed: u64, traced: bool) -> Drive {
    let (tx, rx) = mpsc::channel::<Msg>();
    let t_start = Instant::now() + Duration::from_millis(2);
    let mut seen = Vec::with_capacity(reqs.len());
    let (lags_ms, max_depth, aborted) = std::thread::scope(|s| {
        let reqs = &reqs;
        let sender = s.spawn(move || {
            let (mut lags, mut max_depth) = (Vec::with_capacity(reqs.len()), 0);
            for (idx, r) in reqs.iter().enumerate() {
                let due = t_start + Duration::from_secs_f64(r.due_s);
                // Sleep to just short of the send time, then spin: a
                // sleeping thread wakes late by milliseconds on a busy
                // virtual CPU.
                let now = Instant::now();
                if due > now + SPIN {
                    std::thread::sleep(due - now - SPIN);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let sent = Instant::now();
                let res = svc.submit(
                    &world.tenants[r.tenant],
                    1.0,
                    Arc::clone(world.a(r)),
                    Transpose::No,
                    Arc::clone(world.w(r)),
                );
                let submitted = Instant::now();
                lags.push(sent.duration_since(due).as_secs_f64() * 1e3);
                let depth = svc.queue_depth();
                max_depth = max_depth.max(depth);
                if tx.send((idx, due, sent, submitted, res)).is_err() || depth > BACKLOG_LIMIT {
                    return (lags, max_depth, true);
                }
            }
            (lags, max_depth, false)
        });
        for (idx, due, sent, submitted, res) in rx {
            let r = reqs[idx];
            let (id, result) = match res {
                Ok(ticket) => {
                    let id = ticket.id();
                    (id, ticket.wait())
                }
                Err(e) => (0, Err(e)),
            };
            let observed = Instant::now();
            let samples = result.ok().map(|c| {
                let mut rng = Rng::fork(
                    seed,
                    0x5e7e_0000_0000 ^ ((idx as u64) << 8) ^ r.due_s.to_bits(),
                );
                check::positions(&mut rng, c.rows(), c.cols())
                    .into_iter()
                    .map(|(i, j)| (i, j, c.get(i, j)))
                    .collect()
            });
            let events = if traced && id != 0 {
                svc.trace_of(id)
            } else {
                Vec::new()
            };
            seen.push(Seen {
                idx,
                due,
                sent,
                submitted,
                observed,
                samples,
                id,
                events,
            });
        }
        sender.join().expect("sender thread panicked")
    });
    let wall_ns = t_start.elapsed().as_nanos() as u64;
    Drive {
        reqs,
        seen,
        lags_ms,
        max_depth,
        aborted,
        wall_ns,
    }
}

/// Check every sampled entry; count attempts and failures.
fn account(ctx: &mut Ctx, world: &World, d: &Drive) {
    ctx.attempted += d.reqs.len().min(d.seen.len()) as u64;
    for s in &d.seen {
        let r = d.reqs[s.idx];
        let ok = s.samples.as_ref().is_some_and(|samples| {
            samples
                .iter()
                .all(|&(i, j, v)| check::entry_ok(v, world.a(&r), world.w(&r), i, j))
        });
        if !ok {
            ctx.failed += 1;
        }
    }
}

/// The slices' p50 latencies, in slice order.
fn slice_p50s(slices: &[Drive]) -> Vec<f64> {
    slices
        .iter()
        .map(|d| quantile(&mut d.latencies_ms(), 0.5))
        .collect()
}

/// The lower quartile of the slices' p50 latencies: the p50 the
/// service gives in the faster quarter of the run. Slow spells of the
/// shared host last seconds and can double a slice's p50; one that
/// covers fewer than three quarters of the slices cannot move this,
/// where it would shift the p50 of the pooled samples.
fn sliced_p50(slices: &[Drive]) -> f64 {
    quantile(&mut slice_p50s(slices), crate::LATENCY_QUANTILE)
}

/// One ladder rung's verdict.
fn rung_verdict(d: &Drive) -> (&'static str, f64, f64) {
    let p99 = quantile(&mut d.latencies_ms(), 0.99);
    let lag99 = quantile(&mut d.lags_ms.clone(), 0.99);
    let verdict = if lag99 > LAG_LIMIT_MS {
        "invalid"
    } else if p99 <= LATENCY_LIMIT_MS && !d.aborted && d.errors() == 0 {
        "pass"
    } else {
        "fail"
    };
    (verdict, p99, lag99)
}

/// Host pace samples between the fixed-rate slices, while the service
/// is idle: the slices are seconds long and the host's speed drifts
/// over tens of seconds.
fn pace_samples(ctx: &mut Ctx) {
    for _ in 0..PACE_SAMPLES {
        ctx.pace.sample();
    }
}

/// Pre-pack every even-ranked weight into the store directory the
/// service boots from (untimed set-up of the inputs).
fn prepack(ctx: &Ctx, world: &World) -> Result<Vec<std::path::PathBuf>, String> {
    let mut paths = Vec::new();
    for (t, ws) in world.weights.iter().enumerate() {
        for (w, b) in ws.iter().enumerate().filter(|(w, _)| w % 2 == 0) {
            let packed =
                PrepackedB::from_matrix(&ctx.svc_cfg.gemm, &b.view()).map_err(|e| e.to_string())?;
            let path = ctx.store_dir.join(format!("t{t}-w{w:02}.pb"));
            store::save(&path, &packed).map_err(|e| format!("store::save: {e}"))?;
            paths.push(path);
        }
    }
    // Flush the blobs now, so their write-back cannot land inside a
    // measured phase.
    for path in paths.iter().chain([&ctx.store_dir]) {
        std::fs::File::open(path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("syncing the store: {e}"))?;
    }
    Ok(paths)
}

/// One pass of `reqs` through direct `gemm` (no service, no pack
/// cache), each into an output touched before the clock starts;
/// returns its GFLOP/s. When traced, `acc` gets each call's telemetry
/// deltas.
fn direct_pass(
    ctx: &mut Ctx,
    world: &World,
    reqs: &[Req],
    cfg: &GemmConfig,
    acc: &mut GemmAcc,
) -> f64 {
    let mut rng = Rng::fork(ctx.seed, 31 + cfg.threads() as u64);
    let (mut work, mut secs) = (0.0, 0.0);
    for r in reqs {
        let (a, w) = (world.a(r), world.w(r));
        let mut c = Matrix::from_fn(r.m, N, |_, _| 1.0);
        let before = ctx.traced.then(telemetry::snapshot);
        let t = Instant::now();
        gemm(
            Transpose::No,
            Transpose::No,
            1.0,
            &a.view(),
            &w.view(),
            0.0,
            &mut c.view_mut(),
            cfg,
        );
        let dt = t.elapsed();
        if let Some(before) = before {
            acc.add(&Delta::since(before), dt.as_nanos() as u64);
        }
        secs += dt.as_secs_f64();
        work += flops(r);
        ctx.attempted += 1;
        if check::sampled_misses(&mut rng, a, w, &c) > 0 {
            ctx.failed += 1;
        }
    }
    work / secs / 1e9
}

fn trace_layer(kind: TraceKind) -> Option<&'static str> {
    Some(match kind {
        TraceKind::Queued => "service.queue",
        TraceKind::Executed => "service.execute",
        TraceKind::PackA => "pack.a",
        TraceKind::PackB => "pack.b",
        TraceKind::Compute => "gebp",
        TraceKind::Barrier => "pool.barrier",
        TraceKind::Watchdog | TraceKind::Recovery => "pool.recovery",
        _ => return None,
    })
}

/// Turn the traced phase into spans: one `request` span per request
/// (scheduled send → observed), its `service.submit` call, and the
/// lifecycle and phase spans the service recorded for it.
fn record_spans(ctx: &mut Ctx, d: &Drive, parent: usize) {
    for s in &d.seen {
        let (due, observed) = (ctx.rec.ns(s.due), ctx.rec.ns(s.observed));
        let req = ctx
            .rec
            .push("serve.request", due, observed, Some(parent), s.id);
        let (sent, submitted) = (ctx.rec.ns(s.sent), ctx.rec.ns(s.submitted));
        ctx.rec
            .push("service.submit", sent, submitted, Some(req), s.id);
        let mut exec = None;
        for e in s.events.iter().filter(|e| e.dur_ns > 0) {
            let Some(name) = trace_layer(e.kind) else {
                continue;
            };
            let start = ctx.rec.lib_time(e.start_ns);
            let under = if name.starts_with("service.") {
                Some(req)
            } else {
                exec.or(Some(req))
            };
            let id = ctx.rec.push(name, start, start + e.dur_ns, under, s.id);
            if e.kind == TraceKind::Executed {
                exec = Some(id);
            }
        }
    }
}

/// Per-request queue wait (submitted → dispatched) and compute
/// (dispatched → resolved) from the service's own trace chain.
fn lifecycle_ms(d: &Drive) -> (Vec<f64>, Vec<f64>) {
    let (mut queue, mut compute) = (Vec::new(), Vec::new());
    for s in &d.seen {
        let at = |k: TraceKind| {
            s.events
                .iter()
                .find(|e| e.kind == k)
                .map(|e| e.start_ns as f64)
        };
        if let (Some(sub), Some(dis), Some(res)) = (
            at(TraceKind::Submitted),
            at(TraceKind::Dispatched),
            at(TraceKind::Resolved),
        ) {
            queue.push((dis - sub) / 1e6);
            compute.push((res - dis) / 1e6);
        }
    }
    (queue, compute)
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let world = World::new(ctx.seed);
    let blobs = prepack(ctx, &world)?;
    ctx.note(format!(
        "serve: service {{queue_limit={} tenant_quota={} shards={} coalesce={} cache_entries={} deadline={:?} weight_store={} blobs}}",
        ctx.svc_cfg.queue_limit,
        ctx.svc_cfg.tenant_quota,
        ctx.svc_cfg.shards,
        ctx.svc_cfg.coalesce,
        ctx.svc_cfg.cache_entries,
        ctx.svc_cfg.deadline,
        blobs.len(),
    ));

    // Set-up: boot (shelf load) through the first resolved request,
    // several times; the last instance serves the run.
    let first = Req {
        due_s: 0.0,
        tenant: 0,
        weight: 0,
        m: 8,
        variant: 0,
    };
    let mut setups = Vec::new();
    let mut svc = None;
    for _ in 0..SETUP_REPS {
        drop(svc.take());
        let t = Instant::now();
        let s = GemmService::new(ctx.svc_cfg.clone());
        let c = s
            .submit(
                &world.tenants[0],
                1.0,
                Arc::clone(world.a(&first)),
                Transpose::No,
                Arc::clone(world.w(&first)),
            )
            .and_then(Ticket::wait);
        setups.push(t.elapsed().as_secs_f64());
        ctx.attempted += 1;
        let ok = c.is_ok_and(|c| {
            check::sampled_misses(
                &mut Rng::fork(ctx.seed, 41),
                world.a(&first),
                world.w(&first),
                &c,
            ) == 0
        });
        if !ok {
            ctx.failed += 1;
        }
        svc = Some(s);
    }
    let svc = svc.expect("SETUP_REPS > 0");
    let seed = ctx.seed;

    let warm = drive(
        &svc,
        &world,
        schedule(seed, 50, RATE_FIXED, 0.5),
        seed,
        false,
    );
    account(ctx, &world, &warm);

    // Fixed rate, in slices (see `sliced_p50`). A traced run gives half
    // of it to one traced drive.
    let fixed_secs = ctx.seconds * if ctx.traced { 0.375 } else { 0.75 };
    // The direct-gemm baseline of the same request mix, without the
    // service: one pass after each slice, so it spans the phase too.
    let base = schedule(seed, 70, DIRECT_REQS as f64, 1.0);
    let (cfg, cfg1) = (ctx.cfg, ctx.cfg1);
    let mut acc_1 = GemmAcc::default();
    let mut fixed = Vec::new();
    let mut rates_1t = Vec::new();
    for i in 0..FIXED_SLICES as u64 {
        pace_samples(ctx);
        let d = drive(
            &svc,
            &world,
            schedule(
                seed,
                51 + 100 * i,
                RATE_FIXED,
                fixed_secs / FIXED_SLICES as f64,
            ),
            seed,
            false,
        );
        account(ctx, &world, &d);
        fixed.push(d);
        rates_1t.push(direct_pass(ctx, &world, &base, &cfg1, &mut acc_1));
    }
    pace_samples(ctx);
    let gflops_1t = median(&mut rates_1t);
    let traced_half = if ctx.traced {
        let before = telemetry::snapshot();
        let t0 = ctx.rec.now();
        let traced = drive(
            &svc,
            &world,
            schedule(seed, 52, RATE_FIXED, fixed_secs),
            seed,
            true,
        );
        account(ctx, &world, &traced);
        let t1 = ctx.rec.now();
        let delta = Delta::since(before);
        let phase = ctx.rec.push("serve.fixed", t0, t1, None, 0);
        record_spans(ctx, &traced, phase);
        Some((traced, delta))
    } else {
        None
    };

    // The ladder: stop at the first rung that fails or is invalid.
    let mut goodput = 0.0;
    for (i, &rate) in LADDER.iter().enumerate() {
        let d = drive(
            &svc,
            &world,
            schedule(seed, 60 + i as u64, rate, ctx.seconds * 0.035),
            seed,
            false,
        );
        account(ctx, &world, &d);
        let (verdict, p99, lag99) = rung_verdict(&d);
        let p50 = quantile(&mut d.latencies_ms(), 0.5);
        ctx.note(format!(
            "serve rung {rate} req/s: {verdict} (p50 {p50:.2} p99 {p99:.2} ms, backlog max {}, lag p99 {lag99:.3} ms, {} sent)",
            d.max_depth,
            d.seen.len()
        ));
        if verdict != "pass" {
            break;
        }
        goodput = rate;
    }

    let untraced_p50 = sliced_p50(&fixed);
    let mut untraced_lat: Vec<f64> = fixed.iter().flat_map(Drive::latencies_ms).collect();
    let untraced_pooled_p50 = median(&mut untraced_lat);
    ctx.note(format!("serve: slice p50s {:.3?} ms", slice_p50s(&fixed)));
    let (p50, mut lat, mut lags, max_depth) = match &traced_half {
        Some((d, _)) => (
            quantile(&mut d.latencies_ms(), 0.5),
            d.latencies_ms(),
            d.lags_ms.clone(),
            d.max_depth,
        ),
        None => (
            untraced_p50,
            untraced_lat,
            fixed
                .iter()
                .flat_map(|d| d.lags_ms.iter().copied())
                .collect(),
            fixed.iter().map(|d| d.max_depth).max().unwrap_or(0),
        ),
    };
    let p99 = quantile(&mut lat, 0.99);
    ctx.note(format!(
        "serve: {} requests at {RATE_FIXED} req/s (limit {LATENCY_LIMIT_MS} ms); p99 has {} samples beyond it; \
         generator lag p50 {:.3} p99 {:.3} max {:.3} ms; backlog max {}",
        lat.len(),
        lat.len() / 100,
        quantile(&mut lags, 0.5),
        quantile(&mut lags, 0.99),
        quantile(&mut lags, 1.0),
        max_depth,
    ));
    ctx.e2e("setup_raw_s", median(&mut setups), "s");
    ctx.e2e("latency_raw_ms", p50, "ms");
    ctx.e2e("latency_p50_ms", quantile(&mut lat, 0.5), "ms");
    ctx.e2e("latency_p99_ms", p99, "ms");
    ctx.e2e("goodput_rps", goodput, "req/s");
    ctx.e2e("rate_fixed", RATE_FIXED, "req/s");
    ctx.e2e("gflops_1t", gflops_1t, "GFLOP/s");

    if let Some((d, delta)) = traced_half {
        let gflops = direct_pass(ctx, &world, &base, &cfg, &mut GemmAcc::default());
        let m = layers::micro_pass(ctx, &cfg);
        let completed = (delta.after.service.completed - delta.before.service.completed).max(1);
        let mut acc = GemmAcc::default();
        acc.add(&delta, d.wall_ns);
        acc.calls = completed;
        layers::report(ctx, &m, &acc, &acc_1, &delta, (gflops, gflops_1t));
        // Every request sent plus every direct baseline call.
        ctx.layer("gemm.calls", ctx.attempted as f64);
        let (mut queue, mut compute) = lifecycle_ms(&d);
        ctx.layer("service.queue_p50_ms", median(&mut queue));
        ctx.layer("service.compute_p50_ms", median(&mut compute));
        ctx.layer("service.backlog_max", d.max_depth as f64);
        ctx.layer(
            "generator.lag_p99_ms",
            quantile(&mut d.lags_ms.clone(), 0.99),
        );
        let t0 = ctx.rec.now();
        let mut loads = Vec::new();
        for path in &blobs {
            let t = Instant::now();
            let blob = store::load::<f64>(path).map_err(|e| e.to_string())?;
            loads.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(blob);
        }
        let t1 = ctx.rec.now();
        ctx.rec.push("store", t0, t1, None, 0);
        ctx.layer("store.load_ms", median(&mut loads));
        ctx.layer(
            "bench.trace_overhead",
            ratio(p50, untraced_pooled_p50) - 1.0,
        );
    }
    Ok(())
}
