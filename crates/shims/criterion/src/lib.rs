#![forbid(unsafe_code)]
//! Offline stand-in for the subset of the `criterion` API this workspace
//! uses. The build environment has no crates.io access, so this path
//! crate supplies a small, source-compatible benchmark harness:
//! adaptive warm-up, batched wall-clock timing via [`std::time::Instant`],
//! and a plain-text report (median ns/iter plus throughput when
//! declared). No statistics machinery, plots or baselines — the numbers
//! are honest medians, good enough to track hot-path speedups in CI logs
//! and the ROADMAP.
//!
//! Tuning: `EW_BENCH_MS` (default 300) bounds the measurement time per
//! benchmark in milliseconds. If `EW_BENCH_JSON` names a file, every
//! benchmark also appends one JSON line `{"name": …, "ns_per_iter": …}`
//! to it — the machine-readable perf trajectory CI records per PR.

use std::io::Write as _;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declared work per iteration, for derived throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// How batched inputs are grouped (accepted for compatibility; the shim
/// times per-batch regardless).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small inputs: many per batch.
    SmallInput,
    /// Large inputs: few per batch.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// The benchmark driver.
pub struct Criterion {
    measure: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        let ms = std::env::var("EW_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300u64);
        Criterion {
            measure: Duration::from_millis(ms),
        }
    }
}

impl Criterion {
    /// Runs one benchmark under `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::new(self.measure);
        f(&mut bencher);
        bencher.report(&id.into(), None);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }
}

/// A named group of benchmarks sharing throughput settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for compatibility (the shim sizes adaptively).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Declares per-iteration work for derived throughput lines.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::new(self.criterion.measure);
        f(&mut bencher);
        bencher.report(&format!("{}/{}", self.name, id.into()), self.throughput);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Timing engine handed to each benchmark closure.
pub struct Bencher {
    measure: Duration,
    /// Median nanoseconds per iteration over measured rounds.
    ns_per_iter: f64,
}

impl Bencher {
    fn new(measure: Duration) -> Self {
        Bencher {
            measure,
            ns_per_iter: f64::NAN,
        }
    }

    /// Times `routine` over adaptively sized batches.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up and batch sizing: grow until one batch takes >= 1/20th
        // of the budget, so timer overhead is negligible.
        let mut batch: u64 = 1;
        let batch_floor = self.measure / 20;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = t.elapsed();
            if elapsed >= batch_floor || batch >= 1 << 30 {
                break;
            }
            batch = if elapsed.is_zero() {
                batch * 8
            } else {
                // Aim directly for the floor, with headroom.
                (batch * 2).max(
                    (batch as u128 * batch_floor.as_nanos() / elapsed.as_nanos().max(1)) as u64,
                )
            };
        }
        // Measured rounds within the time budget.
        let mut samples = Vec::new();
        let start = Instant::now();
        while start.elapsed() < self.measure || samples.len() < 3 {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
            if samples.len() >= 200 {
                break;
            }
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        self.ns_per_iter = samples[samples.len() / 2];
    }

    /// Times `routine` over inputs produced by `setup` (setup excluded
    /// from timing).
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let mut samples = Vec::new();
        let start = Instant::now();
        while start.elapsed() < self.measure || samples.len() < 3 {
            // Batch of inputs prepared outside the timed section.
            let inputs: Vec<I> = (0..32).map(|_| setup()).collect();
            let n = inputs.len();
            let t = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            samples.push(t.elapsed().as_nanos() as f64 / n as f64);
            if samples.len() >= 200 {
                break;
            }
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        self.ns_per_iter = samples[samples.len() / 2];
    }

    fn report(&self, name: &str, throughput: Option<Throughput>) {
        if self.ns_per_iter.is_nan() {
            println!("{name:<48} (no measurement — closure never called iter)");
            return;
        }
        if let Some(path) = std::env::var_os("EW_BENCH_JSON") {
            // One JSON object per line, appended: independent bench
            // binaries in one run share the file. Failures to record
            // are reported but never fail the benchmark itself.
            let line = format!(
                "{{\"name\": \"{}\", \"ns_per_iter\": {:.1}}}\n",
                name.replace('"', "'"),
                self.ns_per_iter
            );
            let written = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| f.write_all(line.as_bytes()));
            if let Err(e) = written {
                eprintln!("EW_BENCH_JSON: could not record {name}: {e}");
            }
        }
        let per_iter = format_ns(self.ns_per_iter);
        match throughput {
            Some(Throughput::Bytes(bytes)) => {
                let mib_s = bytes as f64 / (1 << 20) as f64 / (self.ns_per_iter * 1e-9);
                println!("{name:<48} {per_iter:>14}/iter   {mib_s:>10.1} MiB/s");
            }
            Some(Throughput::Elements(elems)) => {
                let elem_s = elems as f64 / (self.ns_per_iter * 1e-9);
                println!("{name:<48} {per_iter:>14}/iter   {elem_s:>10.0} elem/s");
            }
            None => println!("{name:<48} {per_iter:>14}/iter"),
        }
    }
}

fn format_ns(ns: f64) -> String {
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

/// Bundles benchmark functions under one group entry point.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something() {
        std::env::set_var("EW_BENCH_MS", "20");
        let mut c = Criterion::default();
        c.bench_function("spin", |b| {
            b.iter(|| (0..100u64).map(black_box).sum::<u64>())
        });
        let mut group = c.benchmark_group("group");
        group.sample_size(10);
        group.throughput(Throughput::Bytes(1024));
        group.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u8; 64],
                |v| v.iter().map(|&x| x as u64).sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        group.finish();
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(format_ns(12.34), "12.3 ns");
        assert_eq!(format_ns(1_500.0), "1.500 µs");
        assert_eq!(format_ns(2_000_000.0), "2.000 ms");
        assert_eq!(format_ns(3.2e9), "3.200 s");
    }
}
