//! Chunked timing of a measured pass.
//!
//! A pass is split into chunks of load. Before each chunk, and once after
//! the last, the reference kernel runs while the system under test is idle,
//! so a run's reference samples span its load. Figures here are raw; the
//! median of the run's reference samples calibrates them in
//! [`crate::report`]. Single samples are not used one by one: next to a
//! single request or chunk they are noisier than the load they would
//! correct.

use std::time::{Duration, Instant};

use crate::machine::{Reference, Sut};
use crate::stats;

/// Latency classes a workload reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The light class: `latency_p50_ms` and the tail.
    Light,
    /// The heavy class: `heavy_latency_p50_ms`.
    Heavy,
    /// Light requests that miss a cache: in the tail, not in the median.
    Miss,
}

/// A pass's chunks and latencies.
pub struct Meter {
    sut: Sut,
    /// Per chunk: its kind, wall time and completed requests.
    chunks: Vec<(Class, Duration, u64)>,
    samples: Vec<(Class, f64)>,
}

/// Raw figures of one pass.
#[derive(Debug, Clone, Default)]
pub struct PassFigures {
    /// Requests completed in the timed chunks.
    pub requests: u64,
    /// Sum of the chunks' wall times, s.
    pub wall_s: f64,
    /// Completed requests per second, with every chunk taking its kind's
    /// median time per request, so a passing stall does not move it.
    pub throughput_rps: f64,
    /// Light-class median, ms.
    pub latency_p50_ms: f64,
    /// Tail of the light class with its misses, ms, at `tail_quantile`.
    pub latency_tail_ms: f64,
    /// The quantile `latency_tail_ms` is taken at.
    pub tail_quantile: f64,
    /// Light-class samples, misses included.
    pub light_samples: usize,
    /// Heavy-class median, ms.
    pub heavy_latency_p50_ms: f64,
    /// Heavy-class samples.
    pub heavy_samples: usize,
}

impl Meter {
    /// A meter whose reference samples check that `sut` is idle.
    pub fn new(sut: Sut) -> Self {
        Meter {
            sut,
            chunks: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Takes the reference sample before a chunk; the chunk starts now.
    pub fn begin_chunk(&mut self, reference: &mut Reference) -> Instant {
        reference.sample(self.sut);
        Instant::now()
    }

    /// Ends a chunk of `kind` that completed `requests`.
    pub fn end_chunk(&mut self, kind: Class, started: Instant, requests: u64) {
        self.chunks.push((kind, started.elapsed(), requests));
    }

    /// Records one request's latency.
    pub fn latency(&mut self, class: Class, raw: Duration) {
        self.samples.push((class, raw.as_secs_f64() * 1e3));
    }

    /// Takes the closing reference sample.
    pub fn finish(&mut self, reference: &mut Reference) {
        reference.sample(self.sut);
    }

    /// The pass's raw figures.
    pub fn figures(&self) -> PassFigures {
        let of = |classes: &[Class]| -> Vec<f64> {
            self.samples
                .iter()
                .filter(|s| classes.contains(&s.0))
                .map(|s| s.1)
                .collect()
        };
        let light = of(&[Class::Light]);
        let tail = of(&[Class::Light, Class::Miss]);
        let heavy = of(&[Class::Heavy]);
        let tail_quantile = stats::tail_quantile(tail.len()).unwrap_or(0.5);
        let at = |samples: &[f64], q: f64| stats::percentile(samples, q).unwrap_or(0.0);
        let mut median_time_s = 0.0;
        for kind in [Class::Light, Class::Heavy, Class::Miss] {
            let chunks: Vec<&(Class, Duration, u64)> =
                self.chunks.iter().filter(|c| c.0 == kind).collect();
            let per_request: Vec<f64> = chunks
                .iter()
                .map(|c| c.1.as_secs_f64() / c.2.max(1) as f64)
                .collect();
            let requests: u64 = chunks.iter().map(|c| c.2).sum();
            median_time_s += requests as f64 * stats::median(&per_request).unwrap_or(0.0);
        }
        let requests: u64 = self.chunks.iter().map(|c| c.2).sum();
        PassFigures {
            requests,
            wall_s: self.chunks.iter().map(|c| c.1.as_secs_f64()).sum(),
            throughput_rps: requests as f64 / median_time_s,
            latency_p50_ms: at(&light, 0.5),
            latency_tail_ms: at(&tail, tail_quantile),
            tail_quantile,
            light_samples: tail.len(),
            heavy_latency_p50_ms: at(&heavy, 0.5),
            heavy_samples: heavy.len(),
        }
    }
}

/// Times `setups` repetitions of a set-up, each after a reference sample,
/// and returns the median in seconds with the value of the last set-up.
pub fn timed_setups<T>(
    setups: usize,
    reference: &mut Reference,
    sut: Sut,
    mut setup: impl FnMut() -> T,
) -> (f64, T) {
    let mut seconds = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups {
        // The previous set-up's value is dropped before the next one is
        // measured, so set-ups never overlap.
        drop(last.take());
        reference.sample(sut);
        let started = Instant::now();
        last = Some(setup());
        seconds.push(started.elapsed().as_secs_f64());
    }
    (
        stats::median(&seconds).unwrap_or(0.0),
        last.expect("at least one set-up"),
    )
}
