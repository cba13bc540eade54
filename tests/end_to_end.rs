//! End-to-end integration tests: parameters → scenario → every solver →
//! consistent, feasible, correctly-ordered solutions.

use tsajs_mec::prelude::*;

fn quick_tsajs(seed: u64) -> TsajsSolver {
    TsajsSolver::new(
        TtsaConfig::paper_default()
            .with_min_temperature(1e-3)
            .with_seed(seed),
    )
}

fn all_solvers(seed: u64) -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(quick_tsajs(seed)),
        Box::new(HJtoraSolver::new()),
        Box::new(LocalSearchSolver::with_seed(seed)),
        Box::new(GreedySolver::new()),
        Box::new(RandomSolver::with_seed(seed)),
        Box::new(AllLocalSolver::new()),
    ]
}

#[test]
fn every_solver_produces_feasible_consistent_solutions() {
    let params = ExperimentParams::paper_default().with_users(12);
    for seed in 0..3 {
        let scenario = ScenarioGenerator::new(params).generate(seed).unwrap();
        let evaluator = Evaluator::new(&scenario);
        for solver in &mut all_solvers(seed) {
            let solution = solver.solve(&scenario).unwrap();
            solution
                .assignment
                .verify_feasible(&scenario)
                .unwrap_or_else(|e| panic!("{} emitted infeasible X: {e}", solver.name()));
            let recomputed = evaluator.objective(&solution.assignment);
            assert!(
                (solution.utility - recomputed).abs() < 1e-9,
                "{} reported utility {} but objective is {}",
                solver.name(),
                solution.utility,
                recomputed
            );
            // The full evaluation must agree with the closed form too.
            let eval = solution.evaluate(&scenario).unwrap();
            assert!((eval.system_utility - recomputed).abs() < 1e-9);
        }
    }
}

#[test]
fn exhaustive_dominates_every_heuristic_on_small_instances() {
    let params = ExperimentParams::paper_default()
        .with_users(5)
        .with_servers(3)
        .with_subchannels(2);
    for seed in 0..3 {
        let scenario = ScenarioGenerator::new(params).generate(seed).unwrap();
        let optimum = ExhaustiveSolver::new().solve(&scenario).unwrap().utility;
        for solver in &mut all_solvers(seed) {
            let got = solver.solve(&scenario).unwrap().utility;
            assert!(
                got <= optimum + 1e-9,
                "{} beat the exhaustive optimum ({got} > {optimum})",
                solver.name()
            );
        }
    }
}

#[test]
fn tsajs_is_near_optimal_on_the_fig3_network() {
    // The headline claim: TSAJS ≈ Exhaustive. Averaged over a few seeds on
    // the confined network, TSAJS should reach ≥ 95 % of the optimum.
    // Heavier tasks make offloading clearly worthwhile, so the optimum is
    // bounded away from zero on every realization.
    let params = ExperimentParams::small_network().with_workload(Cycles::from_mega(3000.0));
    let mut ratio_sum = 0.0;
    let mut counted = 0usize;
    for seed in 0..4 {
        let scenario = ScenarioGenerator::new(params).generate(seed).unwrap();
        let optimum = ExhaustiveSolver::new().solve(&scenario).unwrap().utility;
        let got = quick_tsajs(seed).solve(&scenario).unwrap().utility;
        if optimum <= 0.0 {
            // Degenerate draw (nobody should offload); TSAJS must agree.
            assert_eq!(got, 0.0);
            continue;
        }
        ratio_sum += got / optimum;
        counted += 1;
    }
    assert!(
        counted >= 2,
        "too many degenerate draws to conclude anything"
    );
    let avg_ratio = ratio_sum / counted as f64;
    assert!(
        avg_ratio >= 0.95,
        "TSAJS achieved only {:.1}% of optimal on average",
        avg_ratio * 100.0
    );
}

#[test]
fn tsajs_beats_or_matches_the_weak_baselines_on_average() {
    let params = ExperimentParams::paper_default().with_users(20);
    let seeds = 4;
    let mut tsajs_total = 0.0;
    let mut greedy_total = 0.0;
    let mut random_total = 0.0;
    for seed in 0..seeds {
        let scenario = ScenarioGenerator::new(params).generate(seed).unwrap();
        tsajs_total += quick_tsajs(seed).solve(&scenario).unwrap().utility;
        greedy_total += GreedySolver::new().solve(&scenario).unwrap().utility;
        random_total += RandomSolver::with_seed(seed)
            .solve(&scenario)
            .unwrap()
            .utility;
    }
    assert!(
        tsajs_total >= greedy_total,
        "TSAJS ({tsajs_total}) lost to Greedy ({greedy_total}) on average"
    );
    assert!(
        tsajs_total > random_total,
        "TSAJS ({tsajs_total}) lost to Random ({random_total}) on average"
    );
}

#[test]
fn pipeline_is_reproducible_end_to_end() {
    let params = ExperimentParams::paper_default().with_users(15);
    let run = |seed: u64| {
        let scenario = ScenarioGenerator::new(params).generate(seed).unwrap();
        quick_tsajs(seed).solve(&scenario).unwrap()
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.utility, b.utility);
    let c = run(6);
    // Different seed → different realization (utility differs almost
    // surely; allow equality of assignments but not of channel draws).
    assert!(a.utility != c.utility || a.assignment != c.assignment);
}

#[test]
fn solutions_report_operational_metrics() {
    let params = ExperimentParams::paper_default().with_users(10);
    let scenario = ScenarioGenerator::new(params).generate(1).unwrap();
    let solution = quick_tsajs(1).solve(&scenario).unwrap();
    let eval = solution.evaluate(&scenario).unwrap();
    assert_eq!(eval.users.len(), 10);
    assert_eq!(eval.num_offloaded, solution.assignment.num_offloaded());
    for (u, m) in scenario.user_ids().zip(&eval.users) {
        if m.offloaded {
            assert!(m.sinr > 0.0);
            assert!(m.rate.as_bps() > 0.0);
            assert!(m.completion_time.as_secs() > 0.0);
        } else {
            // Local users pay exactly the local cost.
            let lc = scenario.local_cost(u);
            assert_eq!(m.completion_time, lc.time);
            assert_eq!(m.energy, lc.energy);
            assert_eq!(m.utility, 0.0);
        }
    }
}

/// The reported utility is the returned decision's objective re-scored
/// from scratch, not the search's incrementally drifted running value:
/// over 200 paper-default U=90 instances the single-chain solver's
/// utility equals a fresh [`Evaluator::objective`] within 1e-12
/// relative.
#[test]
fn reported_utility_is_the_rescored_objective() {
    let params = ExperimentParams::paper_default().with_users(90);
    let generator = ScenarioGenerator::new(params);
    for seed in 0..200u64 {
        let sc = generator.generate(seed).unwrap();
        let solution = quick_tsajs(seed).solve(&sc).unwrap();
        let fresh = Evaluator::new(&sc).objective(&solution.assignment);
        assert!(
            (solution.utility - fresh).abs() <= 1e-12 * fresh.abs().max(1.0),
            "seed {seed}: reported {} vs re-scored {fresh}",
            solution.utility
        );
    }
}
