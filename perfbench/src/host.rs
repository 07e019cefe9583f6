//! The host a result was measured on, recorded with every run.

use std::fs;

fn read(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name") || l.starts_with("CPU part"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn caches() -> String {
    let mut out = Vec::new();
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read(&format!("{base}/level")),
            read(&format!("{base}/type")),
            read(&format!("{base}/size")),
        ) else {
            break;
        };
        let ways = read(&format!("{base}/ways_of_associativity")).unwrap_or_default();
        out.push(format!(
            "L{level}{}={size}/{ways}-way",
            &kind[..1].to_lowercase()
        ));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(" ")
    }
}

/// The checkout's git revision, read from `.git` without running git;
/// "none" when the checkout is not a repository.
fn git_rev() -> String {
    let head = match read(".git/HEAD") {
        Some(h) => h,
        None => return "none".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn describe() -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        format!("cpu={} nproc={nproc}", cpu_model()),
        format!("caches {}", caches()),
        format!("rustc={} git={}", env!("PERFBENCH_RUSTC"), git_rev()),
    ]
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}
