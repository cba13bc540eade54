//! End-to-end and per-layer benchmark of the two TSAJS paths.
//!
//! * **Solve path** (spec → materialized scenario → decision): the `paper`
//!   workload (monolithic single-chain [`tsajs::TsajsSolver`] at the
//!   paper's scale).
//! * **Service path** (request → micro-batch → solve → published
//!   snapshot): the `service` workload (the tempered `Tier::Full` warm
//!   refresh) and the `service_city` workload (warm `Tier::CityScale`
//!   sharded re-solves over a 20k standing population).
//!
//! Every layer is timed by wrapping its public call from this package;
//! the program under test is not changed. The untimed checks behind the
//! `correct` flag are described on each workload module.

pub mod service;
pub mod solve;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The benchmark's workloads, in the order `--workload all` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper scale (S=9, U=30/90), monolithic single-chain TTSA.
    Paper,
    /// Scheduler service, paper parameters at S=36, 300 Hz open loop.
    Service,
    /// Scheduler service over a 20k standing city population.
    ServiceCity,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Service, Workload::ServiceCity];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Service => "service",
            Workload::ServiceCity => "service_city",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Per-layer metrics of the layers this workload bypasses, by name or
    /// name prefix. The traced run reports them as 0; every other
    /// per-layer metric must be measured, or the run is incorrect.
    pub fn bypasses(self) -> &'static [&'static str] {
        match self {
            Workload::Paper => &["shard.", "service.", "loadgen."],
            Workload::Service => &["scenario_spec.", "tsajs.", "shard."],
            Workload::ServiceCity => &["scenario_spec.", "tsajs."],
        }
    }

    /// Whether this workload bypasses the layer of per-layer `metric`.
    pub fn bypassed(self, metric: &str) -> bool {
        self.bypasses().iter().any(|p| metric.starts_with(p))
    }
}

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::toy`] runs the
/// same code paths in seconds for the package's own test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `paper`: seeds derived per population size.
    pub paper_seeds: usize,
    /// `paper`: the population sizes solved for every seed.
    pub paper_users: [usize; 2],
    /// `service`: Poisson arrival rate (Hz).
    pub service_rate_hz: f64,
    /// `service_city`: standing population prefilled in one batch.
    pub city_population: usize,
    /// `service_city`: Poisson arrival rate (Hz); sojourns are sized so
    /// departures balance it.
    pub city_rate_hz: f64,
    /// Service workloads: repetitions of the core set-up (construction
    /// and prefill); `setup_s` is their median.
    pub setup_reps: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Self {
            paper_seeds: 64,
            paper_users: [30, 90],
            service_rate_hz: 300.0,
            city_population: 20_000,
            city_rate_hz: 100.0,
            setup_reps: 5,
        }
    }

    /// Toy sizes for the package test: same paths, seconds of work.
    pub fn toy() -> Self {
        Self {
            paper_seeds: 2,
            paper_users: [8, 16],
            service_rate_hz: 60.0,
            city_population: 800,
            city_rate_hz: 16.0,
            setup_reps: 2,
        }
    }
}

/// Worker cap of the sharded solver pools (the benchmark host has two
/// cores and the bench thread itself is the load generator).
pub const WORKERS: usize = 2;

/// A metric definition: what `BENCHMARK.json` records about it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of the untraced run (`--trace 0`), reported by every workload.
///
/// For the solve workloads one request is one solve, so `latency_ms_*`
/// and `decision_ms_*` time the same spec → decision interval (quantiles
/// over instances, each at the fastest of its repeats); for the
/// service workloads `decision_ms_*` times one `close_batch` (cut →
/// published snapshot) and `latency_ms_*` one request (due time →
/// publication of the batch that decided it).
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("decision_ms_p50", "ms", "lower"),
    def("latency_ms_p50", "ms", "lower"),
    def("latency_ms_p99", "ms", "lower"),
    def("goodput_hz", "Hz", "higher"),
    def("utility_mean", "utility", "higher"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// Metrics of the traced run (`--trace 1`), reported by every workload;
/// a layer the workload bypasses ([`Workload::bypasses`]) reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("scenario_spec.materialize_ms", "ms", "lower"),
    def("tsajs.proposals", "count", "lower"),
    def("tsajs.ns_per_proposal", "ns", "lower"),
    def("shard.partition_ms", "ms", "lower"),
    def("shard.cold_ms", "ms", "lower"),
    def("shard.warm_ms", "ms", "lower"),
    def("shard.sweeps", "count", "lower"),
    def("shard.sweep_ms", "ms", "lower"),
    def("shard.epoch_ms_max", "ms", "lower"),
    def("shard.proposals", "count", "lower"),
    def("shard.sweep_residual", "ratio", "lower"),
    def("shard.unconverged", "count", "lower"),
    def("shard.finish_ms", "ms", "lower"),
    def("service.submit_us", "us", "lower"),
    def("service.wait_ms_p50", "ms", "lower"),
    def("service.close_batch_ms_p50", "ms", "lower"),
    def("service.close_batch_ms_p99", "ms", "lower"),
    def("service.busy_share", "ratio", "lower"),
    def("service.cut_latency_ms_p99", "ms", "lower"),
    def("service.batch_requests_mean", "count", "higher"),
    def("service.proposals_per_batch", "count", "lower"),
    def("service.reassignments_per_batch", "count", "lower"),
    def("service.warm_share", "ratio", "higher"),
    def("service.tier_share.full", "ratio", "higher"),
    def("service.tier_share.shortened", "ratio", "lower"),
    def("service.tier_share.greedy_admit", "ratio", "lower"),
    def("service.tier_share.city_scale", "ratio", "higher"),
    def("service.admission_rejections", "count", "lower"),
    def("service.regen_ms", "ms", "lower"),
    def("service.solve_ms", "ms", "lower"),
    def("service.evaluate_ms", "ms", "lower"),
    def("service.bookkeeping_ms", "ms", "lower"),
    def("loadgen.late_ms_p99", "ms", "lower"),
    def("trace.overhead_decision_ms_p50", "ms", "lower"),
    def("trace.overhead_latency_ms_p50", "ms", "lower"),
    def("trace.spans", "count", "lower"),
];

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured window (solves or requests).
    pub attempted: u64,
    /// Of those, operations that failed: a solve that errored or ended
    /// unconverged, or a request refused at admission or decided past
    /// the workload's latency limit.
    pub failed: u64,
    /// Correctness-check failures; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Metric values by name (units come from the definitions).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Untraced runs: values printed in the table but kept out of the
    /// result line (`decision_ms_p95`, which the host's varying CPU speed
    /// sets on the service workloads' few or millisecond-short batches).
    pub extra: BTreeMap<&'static str, (f64, &'static str)>,
    /// Traced runs only: per span name, (count, total ms, self ms).
    pub span_table: BTreeMap<&'static str, (usize, f64, f64)>,
}

impl Report {
    /// Records a correctness violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Whether every correctness check passed and every reported metric
    /// is finite.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.metrics.values().all(|v| v.is_finite())
    }
}

/// Runs one workload. `trace` selects the traced run, which reports the
/// per-layer metrics instead of the end-to-end ones.
///
/// # Errors
///
/// Returns a description of the first operation that errored.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
) -> Result<Report, String> {
    let mut report = match workload {
        Workload::Paper => solve::paper(seed, seconds, trace, scale),
        Workload::Service => service::paper_service(seed, seconds, trace, scale),
        Workload::ServiceCity => service::city_service(seed, seconds, trace, scale),
    }?;
    if !trace {
        report.metrics.insert("peak_rss_mb", peak_rss_mb());
    }
    let defs = if trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        if trace && workload.bypassed(d.name) {
            report.metrics.entry(d.name).or_insert(0.0);
        }
    }
    let missing: Vec<&str> = defs
        .iter()
        .filter(|d| !report.metrics.contains_key(d.name))
        .map(|d| d.name)
        .collect();
    report.check(missing.is_empty(), || {
        format!("metrics not measured: {missing:?}")
    });
    let non_finite: Vec<&str> = report
        .metrics
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(k, _)| *k)
        .collect();
    report.check(non_finite.is_empty(), || {
        format!("metrics not finite: {non_finite:?}")
    });
    let unknown: Vec<&str> = report
        .metrics
        .keys()
        .filter(|k| !defs.iter().any(|d| d.name == **k))
        .copied()
        .collect();
    report.check(unknown.is_empty(), || {
        format!("metrics without a definition: {unknown:?}")
    });
    Ok(report)
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit.
pub fn result_json(report: &Report, trace: bool) -> String {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = report.metrics.get(d.name).copied().unwrap_or(f64::NAN);
            // JSON has no NaN/inf; a non-finite value already makes the
            // run incorrect, so print it as null.
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The repository's `scenarios/` directory.
pub fn scenarios_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../scenarios"))
}

/// SplitMix64: derives independent seeds from the workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Quantile `q` of `values` by linear interpolation. NaN when empty, so a
/// statistic over spans that were never recorded fails the run's
/// finiteness check instead of reading 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (NaN when empty, as for [`quantile`]).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Relative gap between two objective values.
pub fn rel_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// Tolerance for "the reported objective matches the re-scored one" and
/// for the sharded engine's halo-accounting residual: the drift bound
/// `IncrementalObjective` documents (`|J − J_ref| ≤ 1e-9 · max(|J_ref|, 1)`)
/// and the suite-wide tolerance of the sharded engine.
pub const OBJECTIVE_TOL: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
