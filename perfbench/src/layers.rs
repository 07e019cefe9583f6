//! Per-layer measurements for the traced run: telemetry counter deltas
//! around a workload's calls, child spans rebuilt from the telemetry
//! phase rings, and the layer micro-timings (micro-kernel, packing,
//! GEBP, store load) against bounds measured in the same run.

use crate::spans::Recorder;
use crate::stats::{ratio, Rng};
use dgemm_core::gebp::gebp;
use dgemm_core::gemm::GemmConfig;
use dgemm_core::matrix::Matrix;
use dgemm_core::microkernel::run_microkernel;
use dgemm_core::pack::{PackedA, PackedB};
use dgemm_core::telemetry::{self, Phase, Snapshot, ThreadSnapshot};
use dgemm_core::tile::TileMut;
use dgemm_core::Transpose;
use std::hint::black_box;
use std::time::Instant;

/// The layer a telemetry phase belongs to, as a span name.
pub fn phase_layer(p: Phase) -> &'static str {
    match p {
        Phase::PackA => "pack.a",
        Phase::PackB => "pack.b",
        Phase::Compute => "gebp",
        Phase::Barrier => "pool.barrier",
        Phase::Watchdog | Phase::Recovery => "pool.recovery",
    }
}

/// Counter difference between two telemetry snapshots.
pub struct Delta {
    pub before: Snapshot,
    pub after: Snapshot,
}

impl Delta {
    pub fn since(before: Snapshot) -> Self {
        Delta {
            before,
            after: telemetry::snapshot(),
        }
    }

    /// Sum of `f` over lanes (matched by index; lanes are never
    /// removed) whose name passes `keep`.
    fn lanes(&self, f: impl Fn(&ThreadSnapshot) -> u64, keep: impl Fn(&str) -> bool) -> u64 {
        self.after
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| keep(&t.name))
            .map(|(i, t)| f(t).saturating_sub(self.before.threads.get(i).map_or(0, &f)))
            .sum()
    }

    pub fn phase_ns(&self, phases: &[Phase]) -> u64 {
        self.lanes(|t| phases.iter().map(|&p| t.phase_time(p)).sum(), |_| true)
    }

    /// Phase time on the lane(s) of the thread named `lane`.
    pub fn phase_ns_on(&self, phases: &[Phase], lane: &str) -> u64 {
        self.lanes(
            |t| phases.iter().map(|&p| t.phase_time(p)).sum(),
            |n| n == lane,
        )
    }

    pub fn packed_b_bytes(&self) -> u64 {
        self.lanes(|t| t.packed_b_bytes, |_| true)
    }

    /// Rebuild the telemetry phase spans that started inside
    /// `[t0, t1]` (recorder clock) as children of `parent`. Rings hold
    /// the newest 1024 spans per lane, so a call with more loses its
    /// oldest children.
    pub fn child_spans(&self, rec: &mut Recorder, parent: usize, t0: u64, t1: u64) {
        for (lane, t) in self.after.threads.iter().enumerate() {
            for e in &t.trace {
                let s = rec.lib_time(e.start_ns);
                if s >= t0 && s <= t1 {
                    let end = s + e.dur_ns;
                    rec.push_on(
                        phase_layer(e.phase),
                        s,
                        end.min(t1),
                        Some(parent),
                        0,
                        lane as u64 + 1,
                    );
                }
            }
        }
    }
}

pub fn caller_lane() -> String {
    std::thread::current().name().unwrap_or("main").to_string()
}

/// Accumulated GEMM-layer deltas over a set of traced calls.
#[derive(Default)]
pub struct GemmAcc {
    pub calls: u64,
    pub wall_ns: u64,
    pub pack_ns: u64,
    pub compute_ns: u64,
    pub barrier_ns: u64,
    /// Pack + compute on the calling thread's lane.
    pub caller_pack_compute_ns: u64,
    pub epochs: u64,
}

impl GemmAcc {
    pub fn add(&mut self, d: &Delta, wall_ns: u64) {
        let lane = caller_lane();
        self.calls += 1;
        self.wall_ns += wall_ns;
        self.pack_ns += d.phase_ns(&[Phase::PackA, Phase::PackB]);
        self.compute_ns += d.phase_ns(&[Phase::Compute]);
        self.barrier_ns += d.phase_ns(&[Phase::Barrier]);
        self.caller_pack_compute_ns +=
            d.phase_ns_on(&[Phase::PackA, Phase::PackB, Phase::Compute], &lane);
        self.epochs += d.after.runtime.epochs_served() - d.before.runtime.epochs_served();
    }
}

/// The layer micro-timings and the bounds they are read against.
pub struct Micro {
    pub microkernel_gflops: f64,
    /// Computed γ/8: flops per byte of packed operand the kernel loads.
    pub flops_per_byte: f64,
    pub pack_a_gbps: f64,
    pub pack_b_gbps: f64,
    pub copy_gbps: f64,
    pub gebp_gflops: f64,
}

/// `work / seconds` of one call of `f`, recorded as a span.
fn trial(
    rec: &mut Recorder,
    name: &'static str,
    parent: usize,
    work: f64,
    f: impl FnOnce(),
) -> f64 {
    let (secs, _) = rec.time(name, Some(parent), || {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    });
    work / secs
}

fn random(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.signed())
}

/// Trials of each layer micro-timing, interleaved so every layer sees
/// the same host conditions.
const TRIALS: usize = 9;

/// Time each layer in isolation at the configuration's kernel and
/// blocking, recording one span per trial under `parent`. Each figure
/// is the best of `TRIALS` interleaved trials: the layer's capability
/// in isolation, which is what a bound has to be.
pub fn micro(rec: &mut Recorder, parent: usize, cfg: &GemmConfig, seed: u64) -> Micro {
    let mut rng = Rng::fork(seed, 0x1a7e);
    let kind = cfg.kernel;
    let (mr, nr) = (kind.mr(), kind.nr());
    let (kc, mc, nc) = (cfg.blocks.kc, cfg.blocks.mc, cfg.blocks.nc);

    // Layer 7: kernel calls at the config's kc on one packed A and B
    // sliver, operands in cache.
    let a: Vec<f64> = (0..mr * kc).map(|_| rng.signed()).collect();
    let b: Vec<f64> = (0..nr * kc).map(|_| rng.signed()).collect();
    let mut c = vec![0.0; mr * nr];
    const KERNEL_REPS: usize = 512;
    // Layer 4: packing an mc×kc block of A (from a tall panel, as a
    // GEMM's A) and a kc×nc panel of B, against a plain copy of the
    // packed-B bytes.
    let a_src = random(mc.max(1024), kc, &mut rng);
    let b_src = random(kc, nc, &mut rng);
    let mut pa = PackedA::new(mr);
    let mut pb = PackedB::new(nr);
    pa.pack(&a_src.view(), Transpose::No, 0, 0, mc, kc);
    pb.pack(&b_src.view(), Transpose::No, 0, 0, kc, nc);
    let a_gb = (pa.buf().len() * 8) as f64 / 1e9;
    let b_gb = (pb.buf().len() * 8) as f64 / 1e9;
    const PACK_A_REPS: usize = 16;
    let copy_src: Vec<f64> = (0..pb.buf().len()).map(|_| rng.signed()).collect();
    let mut copy_dst = vec![0.0; copy_src.len()];
    // Layers 4–6: one GEBP of the packed block and panel.
    let mut cbuf = vec![0.0; mc * nc];

    let mut best = [0.0f64; 5];
    for _ in 0..TRIALS {
        let rates = [
            trial(
                rec,
                "microkernel",
                parent,
                (2 * mr * nr * kc * KERNEL_REPS) as f64 / 1e9,
                || {
                    let mut tile = TileMut::from_slice(mr, nr, mr, &mut c);
                    for _ in 0..KERNEL_REPS {
                        run_microkernel(
                            kind,
                            kc,
                            black_box(&a),
                            black_box(&b),
                            1e-3,
                            &mut tile,
                            mr,
                            nr,
                        );
                    }
                },
            ),
            trial(rec, "pack.a", parent, PACK_A_REPS as f64 * a_gb, || {
                for _ in 0..PACK_A_REPS {
                    pa.pack(black_box(&a_src.view()), Transpose::No, 0, 0, mc, kc);
                }
            }),
            trial(rec, "pack.b", parent, b_gb, || {
                pb.pack(black_box(&b_src.view()), Transpose::No, 0, 0, kc, nc)
            }),
            trial(rec, "copy", parent, b_gb, || {
                copy_dst.copy_from_slice(black_box(&copy_src))
            }),
            trial(rec, "gebp", parent, (2 * mc * nc * kc) as f64 / 1e9, || {
                let mut tile = TileMut::from_slice(mc, nc, mc, &mut cbuf);
                gebp(kind, 1e-3, &pa, &pb, &mut tile);
            }),
        ];
        black_box((&c, &copy_dst, &cbuf));
        for (b, r) in best.iter_mut().zip(rates) {
            *b = b.max(r);
        }
    }
    let [microkernel_gflops, pack_a_gbps, pack_b_gbps, copy_gbps, gebp_gflops] = best;

    Micro {
        microkernel_gflops,
        flops_per_byte: kind.gamma() / 8.0,
        pack_a_gbps,
        pack_b_gbps,
        copy_gbps,
        gebp_gflops,
    }
}

/// Run the micro-timings under one `bench.micro` span.
pub fn micro_pass(ctx: &mut crate::Ctx, cfg: &GemmConfig) -> Micro {
    let t0 = ctx.rec.now();
    let id = ctx.rec.push("bench.micro", t0, t0, None, 0);
    let m = micro(&mut ctx.rec, id, cfg, ctx.seed);
    ctx.rec.spans[id].end_ns = ctx.rec.now();
    m
}

/// Report the layer metrics every workload shares. `acc_n` covers the
/// workload's traced calls at `nproc` threads, `acc_1` its traced
/// one-thread calls, `all` the whole measured phase; `rates` are the
/// workload's (nproc, one-thread) GFLOP/s.
pub fn report(
    ctx: &mut crate::Ctx,
    m: &Micro,
    acc_n: &GemmAcc,
    acc_1: &GemmAcc,
    all: &Delta,
    rates: (f64, f64),
) {
    let nproc = ctx.nproc as f64;
    ctx.layer("microkernel.gflops", m.microkernel_gflops);
    ctx.layer("microkernel.flops_per_byte", m.flops_per_byte);
    ctx.layer("pack.a_gbps", m.pack_a_gbps);
    ctx.layer("pack.b_gbps", m.pack_b_gbps);
    let b_vs_copy = m.pack_b_gbps / m.copy_gbps;
    ctx.layer("pack.b_vs_copy", b_vs_copy);
    ctx.bound_check("pack.b_vs_copy", b_vs_copy);
    ctx.note(format!(
        "bound: copy_from_slice of the packed-B bytes = {:.3} GB/s (same run)",
        m.copy_gbps
    ));
    let pack = acc_n.pack_ns as f64;
    ctx.layer("pack.share", ratio(pack, pack + acc_n.compute_ns as f64));
    ctx.layer("gebp.gflops", m.gebp_gflops);
    let gebp_vs_mk = m.gebp_gflops / m.microkernel_gflops;
    ctx.layer("gebp.vs_microkernel", gebp_vs_mk);
    ctx.bound_check("gebp.vs_microkernel", gebp_vs_mk);
    let wall_1 = acc_1.wall_ns as f64;
    ctx.layer(
        "gemm.residual_frac",
        ratio(wall_1 - acc_1.caller_pack_compute_ns as f64, wall_1),
    );
    let eff = ratio(rates.0, nproc * rates.1);
    ctx.layer("pool.parallel_eff", eff);
    ctx.bound_check("pool.parallel_eff", eff);
    ctx.layer(
        "pool.barrier_frac",
        ratio(acc_n.barrier_ns as f64, nproc * acc_n.wall_ns as f64),
    );
    ctx.layer(
        "pool.epochs",
        ratio(acc_n.epochs as f64, acc_n.calls as f64),
    );
    let (rb, ra) = (&all.before.runtime, &all.after.runtime);
    let (serial, pool) = (
        (ra.dispatch_serial - rb.dispatch_serial) as f64,
        (ra.dispatch_pool - rb.dispatch_pool) as f64,
    );
    ctx.layer("dispatch.pool_share", ratio(pool, serial + pool));
    let (cb, ca) = (&all.before.cache, &all.after.cache);
    let (hits, misses) = ((ca.hits - cb.hits) as f64, (ca.misses - cb.misses) as f64);
    ctx.layer("prepack.hit_ratio", ratio(hits, hits + misses));
    let evicted = (ca.evictions + ca.invalidations) - (cb.evictions + cb.invalidations);
    ctx.layer("prepack.evictions", evicted as f64);
    let (sb, sa) = (&all.before.service, &all.after.service);
    let completed = (sa.completed - sb.completed) as f64;
    ctx.layer(
        "prepack.packed_b_mb_per_req",
        ratio(all.packed_b_bytes() as f64 / 1e6, completed),
    );
    let coalesced = (sa.coalesced_requests - sb.coalesced_requests) as f64;
    ctx.layer("batch.coalesced_share", ratio(coalesced, completed));
    ctx.layer(
        "batch.mean_size",
        ratio(
            coalesced,
            (sa.coalesced_batches - sb.coalesced_batches) as f64,
        ),
    );
    let (tb, ta) = (&all.before.store, &all.after.store);
    ctx.layer("store.attaches", (ta.attaches - tb.attaches) as f64);
    ctx.layer(
        "store.verify_failures",
        (ta.verify_failures - tb.verify_failures) as f64,
    );
}
