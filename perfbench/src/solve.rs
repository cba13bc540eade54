//! The solve path: spec → materialized scenario → decision.
//!
//! The `paper` workload cycles through a fixed list of instances derived
//! from the workload seed, one decision at a time (a closed loop of one
//! caller), until `--seconds` have passed and every instance has been
//! solved at least twice. Checks, outside the timed interval, on every
//! decision:
//!
//! * the assignment is feasible and `Evaluator` re-scores it to the
//!   objective the solver reported (relative gap ≤ [`OBJECTIVE_TOL`]);
//! * every repeated solve of an instance is bit-identical to its first,
//!   so `utility_mean` (taken over the first solve of each instance) is a
//!   pure function of the seed;
//! * the traced run's decisions are bit-identical to the untraced run's.

use crate::trace::{traced, Tracer};
use crate::{derive_seed, mean, quantile, rel_gap, scenarios_dir, Report, Scale, OBJECTIVE_TOL};
use mec_scenario_spec::{ScenarioSpec, SpecMode};
use mec_system::{Assignment, Evaluator, Scenario, Solver};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;
use tsajs::TsajsSolver;

/// One decision as a solve returns it.
struct Decision {
    /// Spec → decision wall time (materialization included), seconds.
    seconds: f64,
    assignment: Assignment,
    utility: f64,
    /// Proposals the solver reports.
    proposals: u64,
}

/// What the run keeps of a checked decision: the assignment is reduced
/// to a fingerprint so memory does not grow with the number of solves.
struct Solved {
    seconds: f64,
    fingerprint: u64,
    utility: f64,
    proposals: u64,
}

impl Solved {
    fn same_decision(&self, other: &Solved) -> bool {
        self.fingerprint == other.fingerprint && self.utility.to_bits() == other.utility.to_bits()
    }
}

/// One solve-path instance: which of the workload's specs, and the
/// materialization / solver seed.
#[derive(Debug, Clone, Copy)]
struct Instance {
    spec: usize,
    seed: u64,
}

/// Reads and validates a scenario spec from the repository's corpus.
fn load_spec(file: &str) -> Result<ScenarioSpec, String> {
    let path = scenarios_dir().join(file);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let spec = ScenarioSpec::from_toml_str(&text).map_err(|e| format!("{file}: {e}"))?;
    spec.validate().map_err(|e| format!("{file}: {e}"))?;
    Ok(spec)
}

fn with_users(spec: &ScenarioSpec, users: usize) -> ScenarioSpec {
    let mut spec = spec.clone();
    if let SpecMode::Generated(g) = &mut spec.mode {
        g.population.users = users;
    }
    spec
}

/// The `paper` workload's spec; loading it is the solve path's set-up.
const SPEC_FILE: &str = "paper_default.toml";

/// Times one load of `file`; returns its seconds and the spec.
fn timed_load(file: &str) -> Result<(f64, ScenarioSpec), String> {
    let t = Instant::now();
    let spec = load_spec(file)?;
    Ok((t.elapsed().as_secs_f64(), spec))
}

/// When [`drive`] stops.
enum Until {
    /// Once `seconds` have passed and at least `min_solves` were made.
    Time { seconds: f64, min_solves: usize },
    /// After exactly this many solves (the traced replay of an untraced
    /// run).
    Count(usize),
}

/// Drives `solve` over `instances` round-robin in a closed loop until
/// `until`. The first `instances.len()` decisions are each instance's
/// first solve.
fn drive(
    instances: &[Instance],
    until: Until,
    report: &mut Report,
    mut solve: impl FnMut(usize, Instance) -> Result<(Decision, Scenario), String>,
) -> Result<Vec<Solved>, String> {
    let start = Instant::now();
    let mut solved: Vec<Solved> = Vec::new();
    loop {
        let n = solved.len();
        let done = match until {
            Until::Count(c) => n >= c,
            Until::Time {
                seconds,
                min_solves,
            } => n >= min_solves && start.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            return Ok(solved);
        }
        let i = n % instances.len();
        let (d, scenario) = solve(n, instances[i])?;
        check_decision(report, &d, &scenario, n, instances[i]);
        let mut hasher = DefaultHasher::new();
        d.assignment.hash(&mut hasher);
        let s = Solved {
            seconds: d.seconds,
            fingerprint: hasher.finish(),
            utility: d.utility,
            proposals: d.proposals,
        };
        if let Some(first) = solved.get(i).filter(|_| n >= instances.len()) {
            report.check(first.same_decision(&s), || {
                format!("solve {n}: differs from the first solve of instance {i}")
            });
        }
        solved.push(s);
    }
}

fn check_decision(
    report: &mut Report,
    d: &Decision,
    scenario: &Scenario,
    n: usize,
    inst: Instance,
) {
    let what = || format!("solve {n} (seed {}, U={})", inst.seed, scenario.num_users());
    let feasible = d.assignment.verify_feasible(scenario);
    report.check(feasible.is_ok(), || {
        format!("{}: infeasible assignment: {feasible:?}", what())
    });
    match Evaluator::new(scenario).evaluate(&d.assignment) {
        Ok(eval) => {
            let gap = rel_gap(eval.system_utility, d.utility);
            report.check(gap <= OBJECTIVE_TOL, || {
                format!(
                    "{}: reported J {} but Evaluator gives {} (relative gap {gap:e})",
                    what(),
                    d.utility,
                    eval.system_utility
                )
            })
        }
        Err(e) => report.check(false, || format!("{}: evaluate failed: {e}", what())),
    }
}

/// Each instance's decision time (ms): the fastest of its repeats.
/// Round-robin order puts solve `n` on instance `n % instances`, so the
/// repeats are spread over the run, and the fastest of them is the
/// instance's cost with host interruptions and slow host phases left out.
fn instance_ms(decisions: &[Solved], instances: usize) -> Vec<f64> {
    (0..instances.min(decisions.len()))
        .map(|i| {
            let times: Vec<f64> = decisions
                .iter()
                .skip(i)
                .step_by(instances)
                .map(|d| d.seconds * 1e3)
                .collect();
            quantile(&times, 0.0)
        })
        .collect()
}

/// End-to-end metrics of a solve run. Decision-time quantiles are taken
/// over instances (each at the fastest of its repeats); `goodput_hz` is
/// the decision rate of one caller solving every instance once at those
/// times (the wall rate would also count the checks between solves);
/// `utility_mean` averages the first solve of each instance.
fn end_to_end(report: &mut Report, decisions: &[Solved], instances: usize) {
    let times = instance_ms(decisions, instances);
    let p50 = quantile(&times, 0.5);
    let m = &mut report.metrics;
    m.insert("decision_ms_p50", p50);
    m.insert("latency_ms_p50", p50);
    m.insert("latency_ms_p99", quantile(&times, 0.99));
    m.insert("goodput_hz", 1e3 / mean(&times));
    let utilities: Vec<f64> = decisions[..instances].iter().map(|d| d.utility).collect();
    m.insert("utility_mean", mean(&utilities));
    report
        .extra
        .insert("decision_ms_p95", (quantile(&times, 0.95), "ms"));
}

/// Compares the traced run's decisions with the untraced run's, solve by
/// solve, and reports the tracing overhead on the decision time.
fn compare_traced(report: &mut Report, untraced: &[Solved], traced_run: &[Solved]) {
    report.check(untraced.len() == traced_run.len(), || {
        format!(
            "traced run made {} decisions, untraced {}",
            traced_run.len(),
            untraced.len()
        )
    });
    for (i, (a, b)) in untraced.iter().zip(traced_run).enumerate() {
        report.check(a.same_decision(b), || {
            format!("decision {i}: traced run differs from the untraced run")
        });
    }
    let ms = |d: &[Solved]| quantile(&d.iter().map(|d| d.seconds * 1e3).collect::<Vec<_>>(), 0.5);
    let overhead = ms(traced_run) - ms(untraced);
    report
        .metrics
        .insert("trace.overhead_decision_ms_p50", overhead);
    report
        .metrics
        .insert("trace.overhead_latency_ms_p50", overhead);
}

/// The `paper` workload: `scenarios/paper_default.toml` at U=30 and U=90,
/// `scale.paper_seeds` derived seeds each, one monolithic single-chain
/// `TsajsSolver` solve per instance. A solve that errors ends the run;
/// `TsajsSolver` has no unconverged outcome, so `failed` is 0.
///
/// # Errors
///
/// Returns the first spec, materialization or solver error.
pub fn paper(seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Result<Report, String> {
    let mut report = Report::default();
    let (first_load_s, spec) = timed_load(SPEC_FILE)?;
    let specs: Vec<ScenarioSpec> = scale
        .paper_users
        .iter()
        .map(|&u| with_users(&spec, u))
        .collect();
    let instances: Vec<Instance> = (0..scale.paper_seeds)
        .flat_map(|k| {
            let s = derive_seed(seed, k as u64);
            [0, 1].map(|spec| Instance { spec, seed: s })
        })
        .collect();

    let solve = |tracer: &mut Option<Tracer>, n: usize, inst: Instance| {
        let spec = &specs[inst.spec];
        let t = Instant::now();
        let scenario = traced(tracer, "scenario_spec.materialize", n as u64, |_| {
            spec.materialize(inst.seed)
        })
        .map_err(|e| e.to_string())?;
        let solution = traced(tracer, "tsajs.solve", n as u64, |_| {
            TsajsSolver::with_seed(derive_seed(inst.seed, 1)).solve(&scenario)
        })
        .map_err(|e| e.to_string())?;
        let seconds = t.elapsed().as_secs_f64();
        Ok((
            Decision {
                seconds,
                assignment: solution.assignment,
                utility: solution.utility,
                proposals: solution.stats.iterations,
            },
            scenario,
        ))
    };

    let mut off = None;
    // Every instance twice: each is checked against a repeat of itself,
    // and its time is the fastest of two or more.
    let min_solves = 2 * instances.len();
    let until = Until::Time {
        seconds,
        min_solves,
    };
    // The set-up is timed again after every solve: a load takes ~10 µs,
    // and back to back a set of them falls into one ~3 ms stretch of the
    // host's varying speed, so their median moved 1.5× from run to run;
    // one load per solve samples the whole run. The load right after a
    // solve runs with the solve's data in the caches, so the second of two
    // is the one timed.
    let mut setup_times = vec![first_load_s];
    let decisions = drive(&instances, until, &mut report, |n, i| {
        let decision = solve(&mut off, n, i)?;
        timed_load(SPEC_FILE)?;
        setup_times.push(timed_load(SPEC_FILE)?.0);
        Ok(decision)
    })?;
    report.attempted = decisions.len() as u64;
    if !trace {
        end_to_end(&mut report, &decisions, instances.len());
        report
            .metrics
            .insert("setup_s", quantile(&setup_times, 0.5));
        return Ok(report);
    }

    let mut on = Some(Tracer::new());
    let traced_decisions = drive(
        &instances,
        Until::Count(decisions.len()),
        &mut report,
        |n, i| solve(&mut on, n, i),
    )?;
    compare_traced(&mut report, &decisions, &traced_decisions);
    let tracer = on.expect("traced run keeps its tracer");
    let solve_ms: f64 = tracer.durations_ms("tsajs.solve").iter().sum();
    let proposals: u64 = traced_decisions.iter().map(|d| d.proposals).sum();
    let m = &mut report.metrics;
    m.insert(
        "scenario_spec.materialize_ms",
        quantile(&tracer.durations_ms("scenario_spec.materialize"), 0.5),
    );
    m.insert(
        "tsajs.proposals",
        proposals as f64 / traced_decisions.len() as f64,
    );
    m.insert(
        "tsajs.ns_per_proposal",
        solve_ms * 1e6 / proposals.max(1) as f64,
    );
    m.insert("trace.spans", tracer.spans().len() as f64);
    report.span_table = tracer.self_times();
    Ok(report)
}
