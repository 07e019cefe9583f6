//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! library's public functions, plus child spans rebuilt from the events
//! the library already exports (telemetry phase rings, service trace
//! chains). They stay in memory and are written at exit as Chrome-trace
//! JSON, with a per-layer table of counts, total and self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request (ticket) id, or 0 outside the service.
    pub req: u64,
    /// Display row: telemetry lane for GEMM phases, else 0.
    pub lane: u64,
}

pub struct Recorder {
    epoch: Instant,
    /// Library clock minus benchmark clock, in ns (see `calibrate`).
    lib_offset_ns: i64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            lib_offset_ns: 0,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn now(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Align the library's monotonic clock (telemetry and trace
    /// timestamps) with this recorder's: pack a tiny block, which
    /// records one PackA phase span, and bracket the call.
    pub fn calibrate(&mut self) {
        use dgemm_core::matrix::Matrix;
        use dgemm_core::pack::PackedA;
        use dgemm_core::telemetry::{self, Phase};
        let a: Matrix = Matrix::zeros(4, 4);
        let mut best: Option<(u64, i64)> = None;
        for _ in 0..16 {
            let mut pa = PackedA::new(4);
            let t0 = self.now();
            pa.pack(&a.view(), dgemm_core::Transpose::No, 0, 0, 4, 4);
            let t1 = self.now();
            let lib_start = telemetry::snapshot()
                .threads
                .iter()
                .flat_map(|t| t.trace.iter())
                .filter(|e| e.phase == Phase::PackA)
                .map(|e| e.start_ns)
                .max();
            if let Some(ls) = lib_start {
                let width = t1 - t0;
                if best.is_none_or(|(w, _)| width < w) {
                    best = Some((width, ls as i64 - (t0 + width / 2) as i64));
                }
            }
        }
        self.lib_offset_ns = best.map_or(0, |(_, off)| off);
    }

    /// A library timestamp on this recorder's clock.
    pub fn lib_time(&self, lib_ns: u64) -> u64 {
        (lib_ns as i64 - self.lib_offset_ns).max(0) as u64
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.push_on(name, start_ns, end_ns, parent, req, 0)
    }

    pub fn push_on(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: u64,
        lane: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            req,
            lane,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let t0 = self.now();
        let r = f();
        let t1 = self.now();
        (r, self.push(name, t0, t1, parent, 0))
    }

    /// Per-name `(count, total ns, self ns)`. Self time is a span's
    /// duration minus the part of it its children cover.
    pub fn layer_table(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut table = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let kids = &mut children[i];
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let row = table.entry(s.name).or_insert((0, 0, 0));
            row.0 += 1;
            row.1 += dur;
            row.2 += dur - covered.min(dur);
        }
        table
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) JSON of every span.
    /// Service spans use the request id as the row, GEMM phases the
    /// telemetry lane.
    pub fn chrome_json(&self) -> String {
        let mut s = String::with_capacity(64 + self.spans.len() * 128);
        s.push_str("{\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let tid = if sp.req != 0 { sp.req } else { sp.lane };
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.req,
            );
        }
        s.push_str("]}");
        s
    }
}
