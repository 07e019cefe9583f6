//! Host pace: a fixed kernel of the benchmark's own, timed between the
//! library's calls, so that a run can state its times at the reference
//! host's speed.
//!
//! The reference host is a shared VM whose speed drifts by up to 1.6×
//! between periods minutes apart. Two runs of the same code there
//! differ by that much, and no amount of work in one run removes it.
//! The kernel streams 8 MiB, beyond the L2, and slows down with the
//! host: over 30 s windows of a five-minute run, the window medians of
//! `gemm` call times correlated with it at 0.90 (one thread) and 0.95
//! (`nproc` threads). It is benchmark code, so no change to the library
//! moves it. See the README ("Host pace") for the ten-seed evidence and
//! for the compute kernel that was tried and dropped.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The kernel streams 8 MiB of `f64`.
const STREAM_WORDS: usize = 1 << 20;
/// The kernel's time on the reference host at its usual speed (ns).
/// Only its scale matters: a run on that host reads a pace near 1.
const STREAM_NS: f64 = 900_000.0;

pub struct Pace {
    samples: Vec<f64>,
    stream: Vec<f64>,
}

impl Pace {
    pub fn new() -> Self {
        Pace {
            samples: Vec::new(),
            stream: vec![1.0; STREAM_WORDS],
        }
    }

    /// One sum over the stream (ns).
    fn stream_ns(&self) -> f64 {
        let t = Instant::now();
        black_box(black_box(&self.stream).iter().sum::<f64>());
        t.elapsed().as_nanos() as f64
    }

    /// Time the kernel, best of 3 (about 3 ms).
    pub fn sample(&mut self) {
        let best = (0..3)
            .map(|_| self.stream_ns())
            .fold(f64::INFINITY, f64::min);
        self.samples.push(best);
    }

    /// The kernel's median time (ns; NaN when nothing was sampled).
    pub fn median_ns(&self) -> f64 {
        median(&mut self.samples.clone())
    }

    /// How much slower than its usual speed the host ran this run: the
    /// kernel's median time over its reference time (1 when nothing
    /// was sampled).
    pub fn factor(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            self.median_ns() / STREAM_NS
        }
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}
