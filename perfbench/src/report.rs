//! Metric names, units and the result line.

use std::collections::BTreeMap;

use crate::machine::{Reference, NOMINAL_REF_MS};
use crate::meter::PassFigures;
use crate::stats;

/// The most CPU the system under test may use while the reference kernel
/// runs, in percent of the kernel's wall time.
const MAX_SUT_CPU_IN_REF_PCT: f64 = 5.0;

/// End-to-end metrics, printed with `--trace 0`, in `BENCHMARK.json` order.
/// The light-class tail is not among them: on `solve_warm` it does not
/// repeat within a tenth between runs, so it is reported, raw, by the
/// traced run only (`machine.raw.latency_tail_ms`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("heavy_latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rounds_per_request", "count"),
];

/// Round-ledger phases reported as `runtime.rounds.<snake_case name>`;
/// rounds of any other phase are reported as `runtime.rounds.other`.
pub const PHASES: [&str; 4] = [
    "laplacian solve",
    "leverage scores",
    "path following",
    "sdd solve (gremban)",
];

/// Per-layer metrics, printed with `--trace 1`, in `BENCHMARK.json` order.
/// A workload that does not exercise a layer reports 0 for it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 38] = [
        ("machine.ref_ms", "ms"),
        ("machine.steal_pct", "%"),
        ("machine.sut_cpu_in_ref_pct", "%"),
        ("machine.trace_overhead_pct", "%"),
        ("machine.raw.throughput_rps", "1/s"),
        ("machine.raw.latency_p50_ms", "ms"),
        ("machine.raw.latency_tail_ms", "ms"),
        ("machine.raw.heavy_latency_p50_ms", "ms"),
        ("machine.raw.setup_s", "s"),
        ("laplacian.solve_ms", "ms"),
        ("laplacian.heavy_solve_ms", "ms"),
        ("laplacian.iterations", "count"),
        ("laplacian.preprocess_ms", "ms"),
        ("laplacian.sdd_assemble_ms", "ms"),
        ("laplacian.sdd_precondition_ms", "ms"),
        ("laplacian.sdd_chebyshev_ms", "ms"),
        ("sparsifier.ms", "ms"),
        ("lp.gram_solve_ms", "ms"),
        ("lp.other_ms", "ms"),
        ("lp.gram_solves", "count"),
        ("lp.path_iterations", "count"),
        ("stream.submit_us", "us"),
        ("stream.overhead_ms", "ms"),
        ("cache.hit_ratio", "ratio"),
        ("cache.misses", "count"),
        ("cache.evictions", "count"),
        ("client.connect_ms", "ms"),
        ("client.submit_ms", "ms"),
        ("client.wait_ms", "ms"),
        ("client.wire_overhead_ms", "ms"),
        ("client.encode_us", "us"),
        ("client.decode_us", "us"),
        ("client.request_bytes", "bytes"),
        ("client.response_bytes", "bytes"),
        ("served.cpu_ms_per_request", "ms"),
        ("served.threads", "count"),
        ("runtime.rounds.total", "count"),
        ("runtime.rounds.other", "count"),
    ];
    let mut all: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.extend(PHASES.iter().map(|p| (phase_metric(p), "count")));
    all
}

/// `runtime.rounds.<phase>` with the phase name in snake case, e.g.
/// `sdd solve (gremban)` → `runtime.rounds.sdd_solve_gremban`.
pub fn phase_metric(phase: &str) -> String {
    let words: Vec<String> = phase
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_ascii_lowercase)
        .collect();
    format!("runtime.rounds.{}", words.join("_"))
}

/// Exact rounds charged by the requests of a pass, in total and per phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rounds {
    /// Completed requests.
    pub requests: u64,
    /// Rounds over all phases.
    pub total: u64,
    /// Rounds per phase name.
    pub phases: BTreeMap<String, u64>,
}

impl Rounds {
    /// Adds one completed request's report.
    pub fn add(&mut self, report: &bcc_core::RoundReport) {
        self.requests += 1;
        self.total += report.total_rounds;
        for (name, stats) in &report.breakdown {
            *self.phases.entry(name.clone()).or_default() += stats.rounds;
        }
    }

    /// Rounds per completed request.
    pub fn per_request(&self) -> f64 {
        self.total as f64 / self.requests.max(1) as f64
    }

    /// `runtime.rounds.*` per-layer metrics: rounds per request by phase.
    pub fn layer_metrics(&self, layers: &mut BTreeMap<String, f64>) {
        let per = |rounds: u64| rounds as f64 / self.requests.max(1) as f64;
        layers.insert("runtime.rounds.total".into(), self.per_request());
        let mut other = 0;
        for (name, &rounds) in &self.phases {
            if PHASES.contains(&name.as_str()) {
                layers.insert(phase_metric(name), per(rounds));
            } else {
                other += rounds;
            }
        }
        layers.insert("runtime.rounds.other".into(), per(other));
    }
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests sent and checked.
    pub attempted: u64,
    /// Requests that failed or returned a wrong answer.
    pub failed: u64,
    /// Whether every other check passed (fixed work, idle reference, trace
    /// decomposition).
    pub checks_ok: bool,
    /// Messages explaining failed checks.
    pub problems: Vec<String>,
    /// The untraced pass, raw.
    pub figures: PassFigures,
    /// Median set-up time, s, raw.
    pub setup_s: f64,
    /// The run's reference time, ms: the median of its samples.
    pub ref_ms: f64,
    /// Peak RSS of the system under test, MiB.
    pub peak_rss_mb: f64,
    /// Rounds of the untraced pass.
    pub rounds: Rounds,
    /// Per-layer metrics measured so far.
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    /// Counts one checked request.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a failed check that is not a single request.
    pub fn problem(&mut self, message: String) {
        self.checks_ok = false;
        self.problems.push(message);
    }

    /// Takes the run's reference time from its samples, checks that the
    /// system under test stayed idle while they were taken, and records
    /// the `machine.*` reference metrics.
    pub fn reference(&mut self, reference: &Reference) {
        let busy = reference.sut_cpu_in_ref_pct();
        if busy > MAX_SUT_CPU_IN_REF_PCT {
            self.problem(format!(
                "the system under test used {busy:.1}% CPU during reference samples"
            ));
        }
        self.ref_ms = reference.ref_ms();
        self.layers.insert("machine.ref_ms".into(), self.ref_ms);
        self.layers
            .insert("machine.sut_cpu_in_ref_pct".into(), busy);
    }

    /// The end-to-end metrics, calibrated by the run's reference time, with
    /// the raw forms of the timings.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64, Option<f64>)> {
        let f = &self.figures;
        let time = |raw: f64| {
            (
                stats::calibrate_latency(raw, self.ref_ms, NOMINAL_REF_MS),
                Some(raw),
            )
        };
        let value = |name: &str| -> (f64, Option<f64>) {
            match name {
                "throughput_rps" => (
                    stats::calibrate_throughput(f.throughput_rps, self.ref_ms, NOMINAL_REF_MS),
                    Some(f.throughput_rps),
                ),
                "latency_p50_ms" => time(f.latency_p50_ms),
                "heavy_latency_p50_ms" => time(f.heavy_latency_p50_ms),
                // Gated raw: in the steadiness runs calibration widened its
                // spread. A set-up is one short span, partly the daemon's
                // accept-poll sleeps, which machine speed does not scale.
                "setup_s" => (self.setup_s, Some(self.setup_s)),
                "peak_rss_mb" => (self.peak_rss_mb, None),
                "rounds_per_request" => (self.rounds.per_request(), None),
                _ => unreachable!("unknown end-to-end metric {name}"),
            }
        };
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let (calibrated, raw) = value(name);
                (name, unit, calibrated, raw)
            })
            .collect()
    }

    /// Adds the raw forms of the timing metrics, and the light-class tail,
    /// as `machine.raw.*`.
    pub fn raw_layer_metrics(&mut self) {
        let raw: Vec<(String, f64)> = self
            .end_to_end()
            .into_iter()
            .filter_map(|(name, _, _, raw)| Some((format!("machine.raw.{name}"), raw?)))
            .collect();
        self.layers.extend(raw);
        self.layers.insert(
            "machine.raw.latency_tail_ms".into(),
            self.figures.latency_tail_ms,
        );
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, metrics: &[(String, &str, f64)]) -> String {
    let correct = outcome.failed == 0
        && outcome.checks_ok
        && outcome.attempted > 0
        && metrics.iter().all(|(_, _, v)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_become_snake_case_metrics() {
        assert_eq!(
            phase_metric("sdd solve (gremban)"),
            "runtime.rounds.sdd_solve_gremban"
        );
        assert_eq!(
            phase_metric("laplacian solve"),
            "runtime.rounds.laplacian_solve"
        );
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let mut outcome = Outcome {
            checks_ok: true,
            ..Outcome::default()
        };
        outcome.check(true);
        let line = result_line(&outcome, &[("setup_s".into(), "s", 0.8127)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        outcome.check(false);
        assert!(result_line(&outcome, &[]).starts_with("{\"correct\": false"));
    }
}
