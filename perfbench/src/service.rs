//! The service path: request → micro-batch → solve → published snapshot.
//!
//! The bench thread is the load generator and drives [`SchedulerCore`]
//! synchronously in an open loop: each request is submitted when it is
//! due (or as soon as the previous call returns, if that is later), and
//! every request is timed from its due time to the return of the
//! `close_batch` that published its decision. Batch cuts follow the
//! core's own policy on the *scheduled* stream: a batch is cut when
//! [`SchedulerCore::ready`] trips at a request's due time (size) or when
//! the oldest pending request reaches the policy's `max_age` (age). Cut
//! times are therefore functions of the seed, not of how late the bench
//! ran, so every decision — and `utility_mean` — is a pure function of
//! the seed, and lateness shows in the latency rather than in the batches.
//!
//! Checks: repeated set-ups publish bit-identical snapshots; the final
//! population is exactly the admitted arrivals minus the departures; the
//! traced run publishes the same batch reports and final snapshot as the
//! untraced run; replaying the untraced run's ingestion log through
//! [`SchedulerCore::replay`] reproduces its final snapshot bit for bit;
//! and every re-timed solve re-scores (`Evaluator`) to the objective the
//! solver reported, with a near-zero halo residual on sharded solves.

use crate::trace::{traced, Tracer};
use crate::{
    derive_seed, mean, quantile, rel_gap, scenarios_dir, Report, Scale, OBJECTIVE_TOL, WORKERS,
};
use mec_scenario_spec::ScenarioSpec;
use mec_service::{
    BatchPolicy, BatchReport, RequestKind, SchedulerCore, ServiceConfig, ServiceMetrics,
    ServiceRequest, ServiceSnapshot, Tier, TierPolicy,
};
use mec_system::{Assignment, Evaluator};
use mec_topology::{place_users_uniform, Point2};
use mec_types::{Seconds, UserId};

use mec_workloads::{ExperimentParams, ScenarioGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsajs::{
    anneal_from, temper_from, InitialTemperature, NeighborhoodKernel, ShardOutcome, ShardRun,
};

/// A service workload: the core's configuration and the whole scheduled
/// request stream. Requests due before time 0 are the set-up prefix
/// (driven as fast as possible); the measured window starts at 0.
struct Shape {
    config: ServiceConfig,
    requests: Vec<ServiceRequest>,
    limit_s: f64,
}

/// The `service` workload: production defaults (`ServiceConfig::new`)
/// over paper parameters at S=36 (admission cap 432), Poisson arrivals at
/// `scale.service_rate_hz` (conditioned on their count) with exponential
/// 1 s sojourns, latency limit
/// 250 ms. Set-up runs 3 s of the same traffic to reach the standing
/// population (≈ rate × 1 s) before the window opens.
///
/// # Errors
///
/// Returns the first scheduler error.
pub fn paper_service(
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
) -> Result<Report, String> {
    let params = ExperimentParams::paper_default().with_servers(36);
    // One worker: at U≈300 spawning the tempered ladder's second thread
    // every batch costs more than it saves.
    let config = ServiceConfig::new(params, seed).with_threads(Some(1));
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x5E));
    let requests = poisson(&mut rng, scale.service_rate_hz, 1.0, -3.0, seconds, 0);
    run(
        Shape {
            config,
            requests,
            limit_s: 0.25,
        },
        seed,
        trace,
        scale,
    )
}

/// The `service_city` workload: `scenarios/city_scale.toml` parameters
/// with a standing population of `scale.city_population` prefilled in
/// one batch, then Poisson arrivals at `scale.city_rate_hz` balanced by
/// as many departures of uniformly chosen present users (mean sojourn =
/// population / rate). Batches are cut by age
/// at 1% churn (`max_age` = 0.01 × population / rate, and `max_size`
/// above the prefill), every batch is served at `Tier::CityScale`, and
/// `max_users` sits above the population. Latency limit 5 s.
///
/// # Errors
///
/// Returns the first spec or scheduler error.
pub fn city_service(seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Result<Report, String> {
    let path = scenarios_dir().join("city_scale.toml");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let params = ScenarioSpec::from_toml_str(&text)
        .and_then(|spec| spec.to_experiment_params())
        .map_err(|e| format!("city_scale.toml: {e}"))?;
    let population = scale.city_population;
    let rate = scale.city_rate_hz;
    let max_age = 0.01 * population as f64 / rate;
    let max_size = 2 * population;
    let mut config = ServiceConfig::new(params, seed)
        .with_threads(Some(WORKERS))
        .with_city_scale_threshold(population / 2)
        .with_batch(BatchPolicy {
            max_size,
            max_age: Seconds::new(max_age),
        })
        .with_tiers(TierPolicy {
            shorten_depth: max_size,
            greedy_depth: 3 * max_size,
            ..TierPolicy::default_production()
        });
    config.max_users = population + population / 4;

    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0xC1));
    // The prefill is due one batch age before the window, so its age cut
    // (the cold city-scale solve) lands in the set-up.
    let prefill_s = -(max_age + 1e-3);
    let mut requests: Vec<ServiceRequest> = (0..population as u64)
        .map(|user| ServiceRequest::arrival(user, prefill_s))
        .collect();
    // Balanced churn: as many departures as arrivals, each taking a
    // uniformly chosen present user (exponential sojourns of mean
    // population / rate).
    let count = (rate * seconds).round() as usize;
    let arrivals = arrival_times(&mut rng, count, 0.0, seconds);
    let departures = arrival_times(&mut rng, count, 0.0, seconds);
    let mut present: Vec<u64> = (0..population as u64).collect();
    let mut next_user = population as u64;
    let (mut a, mut d) = (0, 0);
    while a < count || d < count {
        if a < count && (d == count || arrivals[a] <= departures[d]) {
            requests.push(ServiceRequest::arrival(next_user, arrivals[a]));
            present.push(next_user);
            next_user += 1;
            a += 1;
        } else {
            let user = present.swap_remove(rng.gen_range(0..present.len()));
            requests.push(ServiceRequest::departure(user, departures[d]));
            d += 1;
        }
    }
    run(
        Shape {
            config,
            requests,
            limit_s: 5.0,
        },
        seed,
        trace,
        scale,
    )
}

fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    -(1.0 - rng.gen::<f64>()).ln() * mean
}

/// `count` arrival times of a Poisson process over `[start, end)`
/// conditioned on its count: independent uniform times, sorted. Fixing
/// the count keeps the offered load identical across seeds.
fn arrival_times(rng: &mut StdRng, count: usize, start: f64, end: f64) -> Vec<f64> {
    let mut times: Vec<f64> = (0..count)
        .map(|_| start + (end - start) * rng.gen::<f64>())
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

/// Arrivals at `rate` over `[start, end)`, ids from `first_id`, each
/// followed by its departure after an exponential sojourn (when that
/// falls before `end`). Sorted by due time; a departure always follows
/// its arrival.
fn poisson(
    rng: &mut StdRng,
    rate: f64,
    mean_sojourn: f64,
    start: f64,
    end: f64,
    first_id: u64,
) -> Vec<ServiceRequest> {
    let count = (rate * (end - start)).round() as usize;
    let mut requests = Vec::new();
    for (user, t) in (first_id..).zip(arrival_times(rng, count, start, end)) {
        requests.push(ServiceRequest::arrival(user, t));
        let leave = t + exp_sample(rng, mean_sojourn);
        if leave < end {
            requests.push(ServiceRequest::departure(user, leave));
        }
    }
    requests.sort_by(|a, b| a.submitted_s.total_cmp(&b.submitted_s));
    requests
}

/// What the window of one open-loop run observed.
#[derive(Default)]
struct Window {
    reports: Vec<BatchReport>,
    /// Traced runs: snapshot published by each window batch; and the
    /// set-up's last snapshot.
    snapshots: Vec<Arc<ServiceSnapshot>>,
    setup_snapshot: Option<Arc<ServiceSnapshot>>,
    close_ms: Vec<f64>,
    latency_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    good: u64,
    wall_s: f64,
    cut_p99_ms: f64,
}

/// The open-loop load generator: walks the scheduled stream, mirroring the
/// batcher's queue so age cuts can be scheduled.
struct LoadGen<'a> {
    shape: &'a Shape,
    core: SchedulerCore,
    next: usize,
    pending: VecDeque<usize>,
}

enum Action {
    Submit,
    Cut,
}

impl<'a> LoadGen<'a> {
    fn new(shape: &'a Shape) -> Result<Self, String> {
        Ok(Self {
            shape,
            core: SchedulerCore::new(shape.config.clone()).map_err(|e| e.to_string())?,
            next: 0,
            pending: VecDeque::new(),
        })
    }

    /// The next action on the schedule: an age cut when the oldest
    /// pending request expires no later than the next request is due.
    fn next_action(&self) -> Option<(f64, Action)> {
        let requests = &self.shape.requests;
        let max_age = self.shape.config.batch.max_age.as_secs();
        let age_cut = self
            .pending
            .front()
            .map(|&i| requests[i].submitted_s + max_age);
        match (age_cut, requests.get(self.next).map(|r| r.submitted_s)) {
            (Some(c), Some(r)) if c <= r => Some((c, Action::Cut)),
            (_, Some(r)) => Some((r, Action::Submit)),
            (Some(c), None) => Some((c, Action::Cut)),
            (None, None) => None,
        }
    }

    /// Drives every action due before `end`. With `clock` (the window's
    /// wall origin) actions wait for their due time and are observed into
    /// `window`; without it (set-up) they run back to back.
    fn drive(
        &mut self,
        end: f64,
        clock: Option<Instant>,
        tracer: &mut Option<Tracer>,
        window: &mut Window,
    ) -> Result<(), String> {
        while let Some((mut t, action)) = self.next_action() {
            if t >= end {
                break;
            }
            if let Some(origin) = clock {
                let due = origin + Duration::from_secs_f64(t.max(0.0));
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            match action {
                Action::Submit => {
                    let i = self.next;
                    self.next += 1;
                    let request = self.shape.requests[i];
                    let core = &mut self.core;
                    traced(tracer, "service.submit", i as u64, |_| core.submit(request));
                    if let Some(origin) = clock {
                        window.late_ms.push(since_due_ms(
                            origin,
                            request.submitted_s,
                            Instant::now(),
                        ));
                        window.attempted += 1;
                    }
                    self.pending.push_back(i);
                }
                Action::Cut => {
                    // The schedule's float sum may land a hair before the
                    // policy's threshold; step to the first instant the
                    // core agrees the batch is due.
                    while !self.core.ready(t) {
                        t = t.next_up();
                    }
                }
            }
            while self.core.ready(t) {
                self.cut(t, clock, tracer, window)?;
            }
        }
        Ok(())
    }

    fn cut(
        &mut self,
        t: f64,
        clock: Option<Instant>,
        tracer: &mut Option<Tracer>,
        window: &mut Window,
    ) -> Result<(), String> {
        let start = Instant::now();
        let core = &mut self.core;
        let batch = core.metrics().batches;
        let report = traced(tracer, "service.close_batch", batch, |_| {
            core.close_batch(t)
        })
        .map_err(|e| e.to_string())?
        .ok_or("a due batch has requests")?;
        let taken: Vec<usize> = self.pending.drain(..report.requests).collect();
        let Some(origin) = clock else {
            return Ok(());
        };
        let end = Instant::now();
        window.close_ms.push((end - start).as_secs_f64() * 1e3);
        for i in taken {
            let due = self.shape.requests[i].submitted_s;
            if due < 0.0 {
                continue; // set-up traffic still in flight
            }
            let latency = since_due_ms(origin, due, end);
            window.wait_ms.push(since_due_ms(origin, due, start));
            window.latency_ms.push(latency);
            if latency <= self.shape.limit_s * 1e3 {
                window.good += 1;
            } else {
                window.failed += 1;
            }
        }
        window.failed += report.rejected as u64;
        window.good = window.good.saturating_sub(report.rejected as u64);
        if tracer.is_some() {
            window.snapshots.push(self.core.snapshot()); // for the re-timing
        }
        window.reports.push(report);
        Ok(())
    }
}

fn since_due_ms(origin: Instant, due: f64, at: Instant) -> f64 {
    (at - origin).as_secs_f64() * 1e3 - due * 1e3
}

fn same_snapshot(a: &ServiceSnapshot, b: &ServiceSnapshot) -> bool {
    a.version == b.version
        && a.time_s.to_bits() == b.time_s.to_bits()
        && a.tier == b.tier
        && a.users == b.users
        && a.assignment == b.assignment
        && a.utility.to_bits() == b.utility.to_bits()
}

/// Builds a core and drives the set-up prefix `reps` times; returns the
/// median set-up time and the last generator. Every repetition must publish
/// the same snapshot.
fn setup<'a>(
    shape: &'a Shape,
    reps: usize,
    report: &mut Report,
) -> Result<(f64, LoadGen<'a>), String> {
    let mut times = Vec::new();
    let mut first: Option<Arc<ServiceSnapshot>> = None;
    let mut last: Option<LoadGen<'a>> = None;
    for rep in 0..reps.max(1) {
        drop(last.take()); // free the previous core before building the next
        let t = Instant::now();
        let mut load = LoadGen::new(shape)?;
        load.drive(0.0, None, &mut None, &mut Window::default())?;
        times.push(t.elapsed().as_secs_f64());
        let snap = load.core.snapshot();
        if let Some(f) = &first {
            report.check(same_snapshot(f, &snap), || {
                format!("set-up {rep} published a different snapshot than set-up 0")
            });
        } else {
            first = Some(snap);
        }
        last = Some(load);
    }
    // Measure the window only: the core's cut-latency histogram restarts.
    let mut load = last.expect("at least one set-up");
    *load.core.metrics_mut() = ServiceMetrics::default();
    Ok((quantile(&times, 0.5), load))
}

/// Runs the window on a set-up generator; returns the observations and
/// the generator (for its core's final state and ingestion log).
fn window<'a>(
    mut load: LoadGen<'a>,
    tracer: &mut Option<Tracer>,
) -> Result<(Window, LoadGen<'a>), String> {
    let mut w = Window {
        setup_snapshot: Some(load.core.snapshot()),
        ..Window::default()
    };
    let origin = Instant::now();
    load.drive(f64::INFINITY, Some(origin), tracer, &mut w)?;
    w.wall_s = origin.elapsed().as_secs_f64();
    w.cut_p99_ms = load.core.metrics().decision_latency.quantile_s(0.99) * 1e3;
    Ok((w, load))
}

/// The population the schedule implies: every arrival minus every
/// departure (valid when nothing was refused).
fn expected_population(requests: &[ServiceRequest]) -> HashSet<u64> {
    let mut users = HashSet::new();
    for r in requests {
        match r.kind {
            RequestKind::Arrival { user } => users.insert(user),
            RequestKind::Departure { user } => users.remove(&user),
        };
    }
    users
}

fn run(shape: Shape, seed: u64, trace: bool, scale: &Scale) -> Result<Report, String> {
    let mut report = Report::default();
    let reps = if trace { 1 } else { scale.setup_reps };
    let (setup_s, load) = setup(&shape, reps, &mut report)?;
    let (w, load) = window(load, &mut None)?;

    let rejected: usize = w.reports.iter().map(|r| r.rejected).sum();
    let last = load.core.snapshot();
    report.check(last.assignment.num_users() == last.users.len(), || {
        "final snapshot: users and assignment disagree".into()
    });
    if rejected == 0 {
        let live: HashSet<u64> = last.users.iter().copied().collect();
        report.check(live == expected_population(&shape.requests), || {
            "final population differs from arrivals minus departures".into()
        });
    }
    for r in &w.reports {
        report.check(r.utility.is_finite(), || {
            format!("batch {}: non-finite utility", r.batch)
        });
    }

    if !trace {
        let m = &mut report.metrics;
        m.insert("setup_s", setup_s);
        m.insert("decision_ms_p50", quantile(&w.close_ms, 0.5));
        m.insert("latency_ms_p50", quantile(&w.latency_ms, 0.5));
        m.insert("latency_ms_p99", quantile(&w.latency_ms, 0.99));
        m.insert("goodput_hz", w.good as f64 / w.wall_s);
        let utilities: Vec<f64> = w.reports.iter().map(|r| r.utility).collect();
        m.insert("utility_mean", mean(&utilities));
        report
            .extra
            .insert("decision_ms_p95", (quantile(&w.close_ms, 0.95), "ms"));
        report.attempted = w.attempted;
        report.failed = w.failed;
        return Ok(report);
    }

    // Traced run: a fresh set-up and the same window with spans on.
    let mut on = Some(Tracer::new());
    let (_, traced_load) = setup(&shape, 1, &mut report)?;
    let (tw, traced_load) = window(traced_load, &mut on)?;
    report.check(tw.reports == w.reports, || {
        "traced run's batch reports differ from the untraced run's".into()
    });
    report.check(same_snapshot(&traced_load.core.snapshot(), &last), || {
        "traced run's final snapshot differs from the untraced run's".into()
    });
    drop(traced_load);
    let replayed = SchedulerCore::replay(shape.config.clone(), load.core.ingestion_log())
        .map_err(|e| e.to_string())?;
    report.check(same_snapshot(&replayed.snapshot(), &last), || {
        "replaying the ingestion log gives a different final snapshot".into()
    });
    drop(replayed);
    drop(load);

    report.attempted = tw.attempted;
    report.failed = tw.failed;
    let tracer = on.as_mut().expect("traced run keeps its tracer");
    let n = tw.reports.len() as f64;
    let tier_share = |tier: Tier| {
        tw.reports
            .iter()
            .filter(|r| r.tier == tier.as_str())
            .count() as f64
            / n
    };
    let m = &mut report.metrics;
    m.insert(
        "service.submit_us",
        mean(&tracer.durations_ms("service.submit")) * 1e3,
    );
    m.insert("service.wait_ms_p50", quantile(&tw.wait_ms, 0.5));
    m.insert("service.close_batch_ms_p50", quantile(&tw.close_ms, 0.5));
    m.insert("service.close_batch_ms_p99", quantile(&tw.close_ms, 0.99));
    m.insert(
        "service.busy_share",
        tw.close_ms.iter().sum::<f64>() / 1e3 / tw.wall_s,
    );
    m.insert("service.cut_latency_ms_p99", tw.cut_p99_ms);
    m.insert(
        "service.batch_requests_mean",
        tw.reports.iter().map(|r| r.requests as f64).sum::<f64>() / n,
    );
    m.insert(
        "service.proposals_per_batch",
        tw.reports.iter().map(|r| r.proposals as f64).sum::<f64>() / n,
    );
    m.insert(
        "service.reassignments_per_batch",
        tw.reports
            .iter()
            .map(|r| r.reassignments as f64)
            .sum::<f64>()
            / n,
    );
    m.insert(
        "service.warm_share",
        tw.reports.iter().filter(|r| r.warm_started).count() as f64 / n,
    );
    m.insert("service.tier_share.full", tier_share(Tier::Full));
    m.insert("service.tier_share.shortened", tier_share(Tier::Shortened));
    m.insert(
        "service.tier_share.greedy_admit",
        tier_share(Tier::GreedyAdmit),
    );
    m.insert("service.tier_share.city_scale", tier_share(Tier::CityScale));
    m.insert(
        "service.admission_rejections",
        tw.reports.iter().map(|r| r.rejected as f64).sum(),
    );
    m.insert("loadgen.late_ms_p99", quantile(&tw.late_ms, 0.99));
    m.insert(
        "trace.overhead_decision_ms_p50",
        quantile(&tw.close_ms, 0.5) - quantile(&w.close_ms, 0.5),
    );
    m.insert(
        "trace.overhead_latency_ms_p50",
        quantile(&tw.latency_ms, 0.5) - quantile(&w.latency_ms, 0.5),
    );

    retime(&shape, seed, &tw, &mut on, &mut report)?;
    let tracer = on.expect("traced run keeps its tracer");
    let close_mean = mean(&tw.close_ms);
    let m = &mut report.metrics;
    let parts = [
        "service.regen_ms",
        "service.solve_ms",
        "service.evaluate_ms",
    ];
    let accounted: f64 = parts
        .iter()
        .map(|p| m.get(p).copied().unwrap_or(f64::NAN))
        .sum();
    m.insert("service.bookkeeping_ms", close_mean - accounted);
    m.insert("trace.spans", tracer.spans().len() as f64);
    report.span_table = tracer.self_times();
    Ok(report)
}

/// Re-times the layers inside each window batch's `close_batch` from
/// outside: for every batch, at its published population, `generate_at`,
/// the tier's solve call warm-started from the previous decision, and
/// `Evaluator::evaluate`. Positions are drawn once per user id from the
/// same uniform placement the core uses; sharded solves chain their own
/// warm priors from one cold solve of the set-up population. Fills the
/// `service.{regen,solve,evaluate}_ms` means and, for city-scale
/// batches, the `shard.*` metrics.
fn retime(
    shape: &Shape,
    seed: u64,
    w: &Window,
    tracer: &mut Option<Tracer>,
    report: &mut Report,
) -> Result<(), String> {
    let config = &shape.config;
    let layout = ScenarioGenerator::new(config.params)
        .layout()
        .map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x7E));
    let mut positions: HashMap<u64, Point2> = HashMap::new();
    let mut place = |ids: &[u64], rng: &mut StdRng| -> Vec<Point2> {
        ids.iter()
            .map(|id| {
                *positions.entry(*id).or_insert_with(|| {
                    place_users_uniform(&layout, 1, rng)
                        .pop()
                        .expect("one position requested")
                })
            })
            .collect()
    };
    let generate = |n: usize, at: &[Point2], key: u64| {
        ScenarioGenerator::new(config.params.with_users(n))
            .generate_at(at, derive_seed(seed ^ 0x1000, key))
            .map_err(|e| e.to_string())
    };
    let workers = config.threads.unwrap_or(WORKERS);
    let kernel = NeighborhoodKernel::new();
    let refresh = |budget: u64| {
        config
            .base
            .with_proposal_budget(budget)
            .with_initial_temperature(InitialTemperature::Fixed(config.refresh_temperature))
    };

    let setup_snapshot = w.setup_snapshot.as_ref().expect("window records its start");
    let mut prev_ids = setup_snapshot.users.clone();
    let mut prev = setup_snapshot.assignment.clone();
    let mut prior: Option<ShardOutcome> = None;
    let city = w.reports.iter().any(|r| r.tier == Tier::CityScale.as_str());
    if city && !prev_ids.is_empty() {
        // The set-up's cold city-scale solve, re-timed once (key MAX keeps
        // it apart from the window's warm solves).
        let key = u64::MAX;
        let at = place(&prev_ids, &mut rng);
        let scenario = generate(prev_ids.len(), &at, key)?;
        let cfg = config.shard.with_seed(derive_seed(seed, key));
        let outcome = traced(tracer, "service.setup_solve", key, |tr| {
            traced(tr, "shard.partition", key, |_| {
                tsajs::Partition::build(&scenario, cfg.cluster_size, cfg.seed)
            })?;
            let run = traced(tr, "shard.new", key, |_| {
                ShardRun::new(&scenario, cfg, workers)
            })?;
            finish_shard(tr, run, cfg.max_sweeps, key)
        })
        .map_err(|e| e.to_string())?;
        prev = outcome.assignment.clone();
        prior = Some(outcome);
    }

    let mut shard_runs: Vec<ShardOutcome> = Vec::new();
    for (b, snap) in w.snapshots.iter().enumerate() {
        let key = b as u64;
        let ids = &snap.users;
        let n = ids.len();
        if n == 0 {
            continue;
        }
        let at = place(ids, &mut rng);
        let scenario = traced(tracer, "service.regen", key, |_| generate(n, &at, key))?;
        let index: HashMap<u64, usize> = prev_ids
            .iter()
            .enumerate()
            .map(|(i, id)| (*id, i))
            .collect();
        let map: Vec<Option<UserId>> = ids
            .iter()
            .map(|id| index.get(id).map(|&i| UserId::new(i)))
            .collect();
        let warm = prev.patched(&map).map_err(|e| e.to_string())?;
        let mut chain = StdRng::seed_from_u64(derive_seed(seed ^ 0x2000, key));
        let solved: Result<(Assignment, Option<f64>), String> =
            traced(tracer, "service.solve", key, |tr| match snap.tier {
                Tier::Full => {
                    let o = temper_from(
                        &scenario,
                        &config.tempering,
                        &refresh(config.full_budget),
                        &kernel,
                        &mut chain,
                        workers,
                        warm,
                    );
                    Ok((o.assignment, Some(o.objective)))
                }
                Tier::Shortened => {
                    let o = anneal_from(
                        &scenario,
                        &refresh(config.short_budget),
                        &kernel,
                        &mut chain,
                        warm,
                    );
                    Ok((o.assignment, Some(o.objective)))
                }
                // Greedy admission runs no solver: nothing to time.
                Tier::GreedyAdmit => Ok((warm, None)),
                Tier::CityScale => {
                    let cfg = config.shard.with_seed(derive_seed(seed ^ 0x3000, key));
                    let run = match &prior {
                        Some(p) => traced(tr, "shard.warm", key, |_| {
                            ShardRun::warm(&scenario, cfg, workers, p, &map)
                        }),
                        None => traced(tr, "shard.new", key, |_| {
                            ShardRun::new(&scenario, cfg, workers)
                        }),
                    }
                    .map_err(|e| e.to_string())?;
                    let outcome =
                        finish_shard(tr, run, cfg.max_sweeps, key).map_err(|e| e.to_string())?;
                    let result = (outcome.assignment.clone(), Some(outcome.objective));
                    report.check(
                        outcome.halo_residual.is_finite() && outcome.halo_residual <= OBJECTIVE_TOL,
                        || format!("batch {b}: halo_residual {}", outcome.halo_residual),
                    );
                    prior = Some(outcome.clone());
                    shard_runs.push(outcome);
                    Ok(result)
                }
            });
        let (assignment, objective) = solved?;
        let eval = traced(tracer, "service.evaluate", key, |_| {
            Evaluator::new(&scenario).evaluate(&assignment)
        })
        .map_err(|e| e.to_string())?;
        if let Some(j) = objective {
            report.check(rel_gap(j, eval.system_utility) <= OBJECTIVE_TOL, || {
                format!(
                    "batch {b}: solver reported J {j}, Evaluator gives {}",
                    eval.system_utility
                )
            });
        }
        prev_ids = ids.clone();
        prev = assignment;
    }

    let t = tracer.as_ref().expect("re-timing runs traced");
    let window_spans = |name: &str| -> Vec<f64> {
        t.spans()
            .iter()
            .filter(|s| s.name == name && s.key != u64::MAX)
            .map(|s| s.ms())
            .collect()
    };
    let m = &mut report.metrics;
    m.insert("service.regen_ms", mean(&t.durations_ms("service.regen")));
    m.insert("service.solve_ms", mean(&t.durations_ms("service.solve")));
    m.insert(
        "service.evaluate_ms",
        mean(&t.durations_ms("service.evaluate")),
    );
    if !shard_runs.is_empty() {
        let partition = t.durations_ms("shard.partition");
        let cold: Vec<f64> = t
            .durations_ms("shard.new")
            .iter()
            .zip(&partition)
            .map(|(new, p)| new - p)
            .collect();
        let sweeps = window_spans("shard.sweep");
        let count = shard_runs.len() as f64;
        m.insert("shard.partition_ms", quantile(&partition, 0.5));
        m.insert("shard.cold_ms", quantile(&cold, 0.5));
        m.insert("shard.warm_ms", quantile(&window_spans("shard.warm"), 0.5));
        m.insert(
            "shard.sweeps",
            shard_runs.iter().map(|o| o.sweeps as f64).sum::<f64>() / count,
        );
        m.insert("shard.sweep_ms", quantile(&sweeps, 0.5));
        m.insert("shard.epoch_ms_max", quantile(&sweeps, 1.0));
        m.insert(
            "shard.proposals",
            shard_runs.iter().map(|o| o.proposals as f64).sum::<f64>() / count,
        );
        m.insert(
            "shard.sweep_residual",
            shard_runs
                .iter()
                .map(|o| o.sweep_residual)
                .fold(0.0, f64::max),
        );
        m.insert(
            "shard.unconverged",
            shard_runs.iter().filter(|o| !o.converged).count() as f64,
        );
        m.insert(
            "shard.finish_ms",
            quantile(&window_spans("shard.finish"), 0.5),
        );
    }
    Ok(())
}

/// Sweeps a sharded run to convergence or its cap and finishes it, as
/// `solve_sharded` / `resolve_sharded` do, one span per call.
fn finish_shard(
    tracer: &mut Option<Tracer>,
    mut run: ShardRun<'_>,
    max_sweeps: usize,
    key: u64,
) -> Result<ShardOutcome, mec_types::Error> {
    while run.sweeps() < max_sweeps {
        if !traced(tracer, "shard.sweep", key, |_| run.sweep())? {
            break;
        }
    }
    traced(tracer, "shard.finish", key, |_| run.finish())
}
