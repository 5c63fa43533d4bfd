//! A minimal, dependency-free micro-benchmark harness with a Criterion-shaped
//! API, so the `benches/` files keep their structure while building offline.
//!
//! Methodology: each benchmark is warmed up, then timed for a fixed number of
//! samples of batched iterations; the report prints the per-iteration median,
//! min and max. This is intentionally simpler than Criterion (no outlier
//! analysis, no HTML reports) — the numbers are for tracking relative
//! regressions between PRs, not publication.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export-shaped `black_box` (std's, which is a true optimization barrier).
pub use std::hint::black_box;

/// Harness configuration and entry point (mirrors `criterion::Criterion`).
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n== {name}");
        BenchmarkGroup {
            criterion: self,
            throughput: None,
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function(&mut self, id: impl Display, f: impl FnMut(&mut Bencher)) {
        run_one(self.sample_size, &id.to_string(), None, f);
    }
}

/// Throughput annotation (elements per iteration).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
}

/// A group of benchmarks sharing a prefix and a throughput annotation.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    pub fn bench_function(&mut self, id: impl Display, f: impl FnMut(&mut Bencher)) {
        run_one(
            self.criterion.sample_size,
            &id.to_string(),
            self.throughput,
            f,
        );
    }

    pub fn finish(self) {}
}

/// Benchmark identifier (mirrors `criterion::BenchmarkId`).
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchmarkId(format!("{name}/{param}"))
    }

    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId(param.to_string())
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Wall times of repeated runs of one payload (see [`repeat`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    /// Per-run wall times in milliseconds, ascending.
    pub ms: Vec<f64>,
}

impl Samples {
    /// Samples from unordered wall times in milliseconds (at least one).
    pub fn new(mut ms: Vec<f64>) -> Self {
        assert!(!ms.is_empty(), "samples need at least one run");
        ms.sort_by(|a, b| a.total_cmp(b));
        Samples { ms }
    }

    /// Fastest run.
    pub fn min(&self) -> f64 {
        self.ms[0]
    }

    /// Median run (the upper median for an even count).
    pub fn median(&self) -> f64 {
        self.ms[self.ms.len() / 2]
    }

    /// Relative spread `(max − min) / median`: how far apart the runs
    /// landed, so a reader can tell a speed-up from host noise.
    pub fn spread(&self) -> f64 {
        (self.ms[self.ms.len() - 1] - self.ms[0]) / self.median().max(1e-12)
    }
}

/// Time `k ≥ 1` runs of `payload` one by one (no batching: each run is a
/// whole workload, not a nanosecond kernel). Returns the sorted wall times
/// and the last run's value.
pub fn repeat<R>(k: usize, mut payload: impl FnMut() -> R) -> (Samples, R) {
    assert!(k >= 1, "repeat needs at least one run");
    let mut ms = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k {
        let start = Instant::now();
        last = Some(black_box(payload()));
        ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (Samples::new(ms), last.expect("k >= 1"))
}

/// Passed to the benchmark closure; `iter` times the payload.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<R>(&mut self, mut payload: impl FnMut() -> R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(payload());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_one(
    samples: usize,
    id: &str,
    throughput: Option<Throughput>,
    mut f: impl FnMut(&mut Bencher),
) {
    // Calibrate the batch size so one sample takes ~10 ms.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let per_iter = b.elapsed.max(Duration::from_nanos(1));
    let iters =
        (Duration::from_millis(10).as_nanos() / per_iter.as_nanos()).clamp(1, 1 << 20) as u64;

    let mut per_iter_ns: Vec<f64> = (0..samples)
        .map(|_| {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            b.elapsed.as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter_ns[per_iter_ns.len() / 2];
    let min = per_iter_ns[0];
    let max = per_iter_ns[per_iter_ns.len() - 1];
    let rate = throughput
        .map(|Throughput::Elements(n)| format!("  {:>10.1} Melem/s", n as f64 * 1e3 / median))
        .unwrap_or_default();
    println!(
        "{id:<42} {:>12} median  [{} .. {}]{rate}",
        fmt_ns(median),
        fmt_ns(min),
        fmt_ns(max)
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Mirrors `criterion_group!`: collects targets into a named runner.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),* $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)*
        }
    };
    ($name:ident, $($target:path),* $(,)?) => {
        $crate::criterion_group!(name = $name;
                                 config = $crate::micro::Criterion::default();
                                 targets = $($target),*);
    };
}

/// Mirrors `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),* $(,)?) => {
        fn main() {
            $($group();)*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_reports_order_statistics() {
        let mut n = 0;
        let (s, last) = repeat(3, || {
            n += 1;
            n
        });
        assert_eq!(last, 3);
        assert_eq!(s.ms.len(), 3);
        assert!(s.ms.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(s.min(), s.ms[0]);
        assert_eq!(s.median(), s.ms[1]);
        let fixed = Samples {
            ms: vec![1.0, 2.0, 4.0],
        };
        assert_eq!(fixed.spread(), 1.5);
    }
}
