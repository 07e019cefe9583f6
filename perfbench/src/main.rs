//! The DGEMM stack's benchmark: one process per workload run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload square|lu|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload calls the library only through its public entry
//! points (`gemm`, `lu_factor`/`solve`, `GemmService`) in the default
//! host configuration (`GemmConfig::auto`, `ServiceConfig::from_env`)
//! after scrubbing every `DGEMM_*` variable: the benchmark sets only
//! the thread count and its own temporary paths. Outputs are checked;
//! the last stdout line is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! See `perfbench/README.md` for the metric definitions.

mod check;
mod host;
mod layers;
mod lu;
mod pace;
mod serve;
mod spans;
mod square;
mod stats;

use dgemm_core::gemm::GemmConfig;
use dgemm_core::service::ServiceConfig;
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One run: its settings, the library configuration it measures, the
/// span recorder and the results gathered so far.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub nproc: usize,
    /// `GemmConfig::auto()` at `nproc` threads and at one thread.
    pub cfg: GemmConfig,
    pub cfg1: GemmConfig,
    pub svc_cfg: ServiceConfig,
    pub store_dir: PathBuf,
    pub rec: Recorder,
    /// Host pace, sampled between the workload's calls.
    pub pace: pace::Pace,
    /// Human-readable result lines, printed before the JSON line.
    pub lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    pub layer: Vec<(&'static str, f64)>,
}

impl Ctx {
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push((name, value, unit));
    }

    /// Record a per-layer metric; its unit comes from `LAYER_METRICS`.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|m| m.0 == name),
            "{name} is not in LAYER_METRICS"
        );
        self.layer.push((name, value));
    }

    /// Flag a measured/bound ratio above 1: the bound is wrong, not
    /// the layer fast.
    pub fn bound_check(&mut self, name: &str, ratio: f64) {
        if ratio > 1.0 {
            self.note(format!(
                "MODEL BUG: {name} = {ratio:.3} exceeds its measured bound (1.0)"
            ));
        }
    }
}

/// The per-layer metrics a traced run reports, in output order. Each
/// workload reports all of them; a layer a workload bypasses reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("microkernel.gflops", "GFLOP/s"),
    ("microkernel.flops_per_byte", "flop/B"),
    ("pack.a_gbps", "GB/s"),
    ("pack.b_gbps", "GB/s"),
    ("pack.b_vs_copy", "ratio"),
    ("pack.share", "ratio"),
    ("gebp.gflops", "GFLOP/s"),
    ("gebp.vs_microkernel", "ratio"),
    ("gemm.residual_frac", "ratio"),
    ("gemm.calls", "count"),
    ("pool.parallel_eff", "ratio"),
    ("pool.barrier_frac", "ratio"),
    ("pool.epochs", "count"),
    ("dispatch.pool_share", "ratio"),
    ("prepack.hit_ratio", "ratio"),
    ("prepack.evictions", "count"),
    ("prepack.packed_b_mb_per_req", "MB"),
    ("batch.coalesced_share", "ratio"),
    ("batch.mean_size", "count"),
    ("service.queue_p50_ms", "ms"),
    ("service.compute_p50_ms", "ms"),
    ("service.backlog_max", "count"),
    ("generator.lag_p99_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.attaches", "count"),
    ("store.verify_failures", "count"),
    ("lu.non_gemm_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// The end-to-end metrics every untraced run reports in its JSON line:
/// those defined on every workload and steady enough on a shared host
/// to bound. The rest are printed by name above it. `setup_s` and
/// `latency_ms` are the workload's `setup_raw_s` and `latency_raw_ms`
/// divided by the run's host pace (see `pace`).
pub const E2E_METRICS: &[&str] = &["setup_s", "latency_ms", "peak_rss_mb"];

/// The quantile over time that `latency_ms` reports: of the call times
/// on `square` and `lu`, of the fixed-rate slices' p50 latencies on
/// `serve`. The calls (and the slices' request mixes) repeat the same
/// work, so the spread of their times is the shared host's
/// interference; the lower quartile needs only a quarter of the run to
/// be free of it, where the median needs half.
pub const LATENCY_QUANTILE: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut probe) =
        (None, None, None, false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            // Internal: time one fresh-process set-up (see `setup_median`).
            "--probe-setup" => probe = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["square", "lu", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (square, lu, serve)"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        traced,
        probe,
    })
}

/// Remove every `DGEMM_*` variable, then set only the thread count and
/// the benchmark's own store and tuning-DB paths. Runs before the
/// library is touched, while the process has a single thread.
fn scrub_env(threads: usize, tmp: &Path) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DGEMM_") {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("DGEMM_NUM_THREADS", threads.to_string());
    std::env::set_var("DGEMM_WEIGHT_STORE", tmp.join("store"));
    std::env::set_var("DGEMM_TUNE_DB", tmp.join("tune-db-empty.json"));
}

fn auto_config(threads: usize) -> Result<GemmConfig, String> {
    std::env::set_var("DGEMM_NUM_THREADS", threads.to_string());
    GemmConfig::auto().map_err(|e| format!("GemmConfig::auto: {e}"))
}

fn describe(cfg: &GemmConfig) -> String {
    format!(
        "kernel={} mr×nr={}x{} kc={} mc={} nc={} runtime={:?} degree={} dispatch={:?} autotune={:?} pack_cache={}",
        cfg.kernel.label(),
        cfg.kernel.mr(),
        cfg.kernel.nr(),
        cfg.blocks.kc,
        cfg.blocks.mc,
        cfg.blocks.nc,
        cfg.parallelism,
        cfg.threads(),
        cfg.dispatch,
        cfg.autotune,
        cfg.pack_cache,
    )
}

/// Removes the run's temporary directory on every exit path.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tmp = TmpDir(PathBuf::from("perfbench-tmp").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    scrub_env(nproc, &tmp.0);
    if args.probe {
        return match probe_child(&args.workload, args.seed) {
            Ok(s) => {
                println!("setup_s={s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args, nproc, &tmp.0) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One fresh-process set-up sample, run as a child of the benchmark:
/// the library's first call, including pool spawn and arena growth.
fn probe_child(workload: &str, seed: u64) -> Result<f64, String> {
    match workload {
        "square" => square::probe(seed),
        "lu" => lu::probe(seed),
        _ => Err(format!("no set-up probe for {workload}")),
    }
}

/// Median of `n` set-up samples, each a fresh child process.
pub fn setup_median(workload: &str, seed: u64, n: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::new();
    for i in 0..n {
        let out = std::process::Command::new(&exe)
            .args(["--probe-setup", "--workload", workload, "--seed"])
            .arg((seed + i as u64).to_string())
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let v = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_s=")?.trim().parse::<f64>().ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        samples.push(v);
    }
    Ok(stats::median(&mut samples))
}

fn run(args: &Args, nproc: usize, tmp: &Path) -> Result<ExitCode, String> {
    std::fs::create_dir_all(tmp.join("store")).map_err(|e| format!("temp dir: {e}"))?;
    let cfg1 = auto_config(1)?;
    let cfg = auto_config(nproc)?;
    let svc_cfg = ServiceConfig::from_env().map_err(|e| format!("ServiceConfig::from_env: {e}"))?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        nproc,
        cfg,
        cfg1,
        svc_cfg,
        store_dir: tmp.join("store"),
        rec: Recorder::new(),
        pace: pace::Pace::new(),
        lines: Vec::new(),
        attempted: 0,
        failed: 0,
        e2e: Vec::new(),
        layer: Vec::new(),
    };
    for line in host::describe() {
        println!("# host: {line}");
    }
    println!("# config: {}", describe(&ctx.cfg));
    println!("# config 1t: {}", describe(&ctx.cfg1));
    if args.workload == "serve" {
        println!("# config service: {}", describe(&ctx.svc_cfg.gemm));
    }
    if ctx.traced {
        ctx.rec.calibrate();
    }
    match args.workload.as_str() {
        "square" => square::run(&mut ctx)?,
        "lu" => lu::run(&mut ctx)?,
        _ => serve::run(&mut ctx)?,
    }
    // The gated times, stated at the reference host's speed.
    let pace = ctx.pace.factor();
    ctx.note(format!(
        "host pace = {pace:.4} (reference host at its usual speed = 1): {} samples, median stream {:.0} ns",
        ctx.pace.samples(),
        ctx.pace.median_ns()
    ));
    for (adjusted, raw) in [("setup_s", "setup_raw_s"), ("latency_ms", "latency_raw_ms")] {
        if let Some(&(_, v, unit)) = ctx.e2e.iter().find(|m| m.0 == raw) {
            ctx.e2e(adjusted, v / pace, unit);
        }
    }
    let rss = host::peak_rss_mb();
    ctx.e2e("peak_rss_mb", rss, "MB");
    let failed_frac = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    ctx.note(format!(
        "failed_frac = {failed_frac} ratio ({} of {})",
        ctx.failed, ctx.attempted
    ));
    for line in &ctx.lines {
        println!("{line}");
    }
    for (name, v, unit) in &ctx.e2e {
        println!("{name} = {v:.6} {unit}");
    }
    let chosen: Vec<(&str, f64, &str)> = if ctx.traced {
        let table = write_trace(&ctx, &args.workload)?;
        print!("{table}");
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let v = ctx.layer.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
                (name, v, unit)
            })
            .collect()
    } else {
        E2E_METRICS
            .iter()
            .map(|&name| {
                let m = ctx.e2e.iter().find(|m| m.0 == name).copied();
                m.map_or((name, f64::NAN, ""), |(_, v, u)| (name, v, u))
            })
            .collect()
    };
    let correct = ctx.failed == 0 && ctx.attempted > 0 && chosen.iter().all(|m| m.1.is_finite());
    let metrics: Vec<String> = chosen
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.attempted.max(1),
        ctx.failed,
        metrics.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Write the traced run's spans (Chrome-trace JSON) and per-layer
/// table under `perfbench-out/`; returns the table.
fn write_trace(ctx: &Ctx, workload: &str) -> Result<String, String> {
    let dir = Path::new("perfbench-out");
    std::fs::create_dir_all(dir).map_err(|e| format!("perfbench-out: {e}"))?;
    let stem = format!("{workload}-seed{}", ctx.seed);
    let mut table = format!(
        "# layer table ({} spans): name count total_ms self_ms self_share\n",
        ctx.rec.spans.len()
    );
    let rows = ctx.rec.layer_table();
    let self_total: u64 = rows.values().map(|r| r.2).sum();
    for (name, (count, total, selft)) in &rows {
        table.push_str(&format!(
            "{name:<22} {count:>8} {:>12.3} {:>12.3} {:>8.4}\n",
            *total as f64 / 1e6,
            *selft as f64 / 1e6,
            stats::ratio(*selft as f64, self_total as f64)
        ));
    }
    table.push_str("# per-layer metric = value unit (0: layer not on this workload's path)\n");
    for &(name, unit) in LAYER_METRICS {
        let v = ctx.layer.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
        table.push_str(&format!("{name} = {v} {unit}\n"));
    }
    std::fs::write(
        dir.join(format!("{stem}.trace.json")),
        ctx.rec.chrome_json(),
    )
    .and_then(|()| std::fs::write(dir.join(format!("{stem}.layers.txt")), &table))
    .map_err(|e| format!("writing trace: {e}"))?;
    Ok(table)
}
