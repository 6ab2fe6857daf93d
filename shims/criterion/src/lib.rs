//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! Implements the subset of the criterion API the `bench` crate uses —
//! benchmark groups, `bench_function` / `bench_with_input`, `Bencher::iter`,
//! `BenchmarkId` and the `criterion_group!` / `criterion_main!` macros — with
//! a simple median-of-samples timer instead of criterion's statistical engine.
//! A benchmark's first `iter` call runs the body once untimed, as a warm-up;
//! each sample then times a batch of calls, doubled until the batch lasts at
//! least 1 ms, so microsecond-scale bodies are not measured
//! against the timer's own resolution and overhead. Each benchmark prints
//! `group/id: <median> per iteration over <n> iterations`: the median of the
//! samples' mean times per call, which one stalled sample cannot move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

/// Opaque value barrier: prevents the optimizer from deleting benchmark work.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter, rendered `name/param`.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(id: &str) -> Self {
        BenchmarkId { id: id.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// The shortest batch of calls a sample times.
const MIN_SAMPLE_TIME: Duration = Duration::from_millis(1);

/// Measures one benchmark body.
#[derive(Debug, Default)]
pub struct Bencher {
    total: Duration,
    iterations: u64,
    /// A sample times `2^doublings` calls. The count only grows, so the
    /// first sample finds the batch size and later samples reuse it.
    doublings: u32,
    warmed_up: bool,
    /// Each recorded sample's mean time per call.
    sample_means: Vec<Duration>,
}

impl Bencher {
    /// Times one sample of `body`: a batch of calls lasting at least 1 ms (a
    /// shorter batch is discarded and retried at twice the size). The
    /// benchmark's first call also runs `body` once untimed beforehand.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        if !self.warmed_up {
            black_box(body());
            self.warmed_up = true;
        }
        loop {
            let batch = 1u64 << self.doublings;
            let start = Instant::now();
            for _ in 0..batch {
                black_box(body());
            }
            let elapsed = start.elapsed();
            if elapsed >= MIN_SAMPLE_TIME {
                self.total += elapsed;
                self.iterations += batch;
                self.sample_means.push(elapsed.div_f64(batch as f64));
                return;
            }
            self.doublings += 1;
        }
    }

    /// The median of the samples' mean times per call (of the middle two
    /// for an even count), or `None` before any sample.
    fn median(&self) -> Option<Duration> {
        let mut means = self.sample_means.clone();
        means.sort_unstable();
        let middle = means.len() / 2;
        match means.len() {
            0 => None,
            len if len % 2 == 1 => Some(means[middle]),
            _ => Some((means[middle - 1] + means[middle]) / 2),
        }
    }
}

/// The benchmark driver (a drastically simplified `criterion::Criterion`).
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of samples collected per benchmark.
    pub fn sample_size(mut self, samples: usize) -> Self {
        self.sample_size = samples.max(1);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _criterion: self,
        }
    }

    /// Runs a standalone benchmark (no group).
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let sample_size = self.sample_size;
        run_benchmark("", &id.into(), sample_size, f);
        self
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples collected per benchmark in this group.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples.max(1);
        self
    }

    /// Runs a benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        run_benchmark(&self.name, &id.into(), self.sample_size, f);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_benchmark(&self.name, &id.into(), self.sample_size, |b| f(b, input));
        self
    }

    /// Finishes the group (printing is per-benchmark; nothing to flush).
    pub fn finish(self) {}
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    group: &str,
    id: &BenchmarkId,
    sample_size: usize,
    mut f: F,
) {
    let mut bencher = Bencher::default();
    for _ in 0..sample_size {
        f(&mut bencher);
    }
    let label = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    let Some(median) = bencher.median() else {
        println!("{label}: no iterations recorded");
        return;
    };
    println!(
        "{label}: {median:?} per iteration over {} iterations",
        bencher.iterations
    );
}

/// Declares a function that runs a list of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares a `main` that runs the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_ids_render() {
        assert_eq!(BenchmarkId::new("f", 32).to_string(), "f/32");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
    }

    #[test]
    fn groups_run_their_benchmarks() {
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("g");
        let mut runs = 0;
        group.sample_size(3);
        group.bench_function("count", |b| {
            runs += 1;
            b.iter(|| black_box(2 + 2));
        });
        group.finish();
        assert_eq!(runs, 3);
    }

    #[test]
    fn warm_up_is_untimed_and_short_bodies_run_in_batches() {
        use std::cell::Cell;

        // A body that outlasts a sample on its own: one warm-up call, then
        // one timed call per sample, and only those count as iterations.
        let calls = Cell::new(0u64);
        let mut bencher = Bencher::default();
        for _ in 0..3 {
            bencher.iter(|| {
                calls.set(calls.get() + 1);
                std::thread::sleep(2 * MIN_SAMPLE_TIME);
            });
        }
        assert_eq!(bencher.iterations, 3);
        assert_eq!(calls.get(), 4);

        // A trivial body runs many times per sample.
        let calls = Cell::new(0u64);
        let mut bencher = Bencher::default();
        for _ in 0..3 {
            bencher.iter(|| calls.set(calls.get() + 1));
        }
        assert!(bencher.iterations > 3, "{}", bencher.iterations);
        assert!(
            calls.get() > bencher.iterations,
            "the warm-up is not counted"
        );
        assert!(bencher.total >= 3 * MIN_SAMPLE_TIME);
    }

    #[test]
    fn one_slow_sample_does_not_move_the_reported_time() {
        // Five samples of a 2 ms body, one call each, the third stalled to
        // 40 ms: the mean reads above 9 ms, the median stays near 2 ms.
        let mut bencher = Bencher::default();
        for sample in 0..5 {
            let pause = if sample == 2 { 40 } else { 2 } * MIN_SAMPLE_TIME;
            bencher.iter(|| std::thread::sleep(pause));
        }
        assert_eq!(bencher.sample_means.len(), 5);
        let mean = bencher.total.div_f64(bencher.iterations as f64);
        let median = bencher.median().expect("five samples");
        assert!(mean >= 9 * MIN_SAMPLE_TIME, "mean {mean:?}");
        assert!(median < 10 * MIN_SAMPLE_TIME, "median {median:?}");
        assert_eq!(Bencher::default().median(), None);
    }

    #[test]
    fn bench_with_input_passes_the_input() {
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("g");
        group.sample_size(2);
        let mut seen = 0;
        group.bench_with_input(BenchmarkId::from_parameter(5), &5usize, |b, &n| {
            seen = n;
            b.iter(|| black_box(n * 2));
        });
        group.finish();
        assert_eq!(seen, 5);
    }
}
