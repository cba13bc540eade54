//! Properties of the Metropolis screen in [`run_epoch`]: it is
//! bit-identical to the unscreened epoch (kept verbatim below as
//! [`oracle_run_epoch`]), and its [`entry_bound`] never falls below the
//! scored change of an entry move.
//!
//! Both properties run 64 cases, or `PROPTEST_CASES` when it is set.

use super::*;
use crate::config::{TemperingConfig, DEFAULT_REFRESH_TEMPERATURE};
use crate::tempering;
use mec_radio::{ChannelGains, OfdmaConfig};
use mec_system::UserSpec;
use mec_types::{constants, BitsPerSecond, Cycles, ServerProfile, SubchannelId};
use proptest::prelude::*;
use rand::SeedableRng;

/// Case count of the screen properties: `PROPTEST_CASES` when set (the
/// nightly sweep widens them), 64 otherwise.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(64)
}

/// The epoch as it stood before the Metropolis screen, verbatim but for
/// its score scratch, which the screened loop no longer keeps: score
/// every candidate, then select. The bit-identity reference of
/// [`run_epoch`].
fn oracle_run_epoch<R: Rng + ?Sized>(
    scenario: &Scenario,
    config: &TtsaConfig,
    kernel: &NeighborhoodKernel,
    temperature: f64,
    state: &mut ChainState<'_>,
    rng: &mut R,
) -> EpochStats {
    let mut stats = EpochStats::default();
    let k = config.batch_width.max(1);
    let mut scores: Vec<f64> = Vec::with_capacity(k);
    for _ in 0..config.inner_iterations {
        // Phase 1: fixed draw order, all K candidates against the same
        // incumbent.
        kernel.propose_batch(scenario, state.inc.assignment(), k, &mut state.batch, rng);
        // Phase 2: speculative scoring — no state mutation.
        scores.clear();
        for mv in &state.batch {
            scores.push(state.inc.score(mv));
        }
        state.proposals += k as u64;
        // Phase 3: sequential Metropolis selection; first acceptance
        // wins, the rest of the batch is discarded.
        for (mv, &candidate_obj) in state.batch.iter().zip(scores.iter()) {
            let delta = candidate_obj - state.current_obj;
            if delta > 0.0 {
                state.inc.apply(mv);
                state.inc.commit();
                state.current_obj = candidate_obj;
                stats.accepted_better += 1;
                if state.current_obj > state.best_obj {
                    state.best.clone_from(state.inc.assignment());
                    state.best_obj = state.current_obj;
                }
                break;
            } else if (delta / temperature).exp() > rng.gen::<f64>() {
                // Metropolis acceptance of a worsening move (line 20-22).
                state.inc.apply(mv);
                state.inc.commit();
                state.current_obj = candidate_obj;
                state.count += 1;
                stats.accepted_worse += 1;
                break;
            }
        }
    }

    if state.proposals - state.last_resync >= RESYNC_INTERVAL {
        state.inc.resync();
        state.current_obj = state.inc.current();
        state.last_resync = state.proposals;
    }
    stats
}

/// Strategy: a cluster-shaped instance — random dense or
/// subchannel-shared gains with log10 values drawn from `log_gain`
/// (near-dead links at the low end, extreme SNR at the high end),
/// heterogeneous workloads, an optional downlink, a random
/// `external_rx` halo, and an all-local or a dense random start.
fn arb_case(log_gain: std::ops::Range<f64>) -> impl Strategy<Value = (Scenario, Assignment)> {
    (3usize..=12, 1usize..=3, 1usize..=3, 0u64..100_000, 0u32..8).prop_map(
        move |(u, s, n, seed, mode)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draw = || 10.0_f64.powf(rng.gen_range(log_gain.clone()));
            let gains = if mode & 4 != 0 {
                ChannelGains::shared_from_fn(u, s, n, |_, _| draw())
            } else {
                ChannelGains::from_fn(u, s, n, |_, _, _| draw())
            }
            .unwrap();
            let users = (0..u)
                .map(|_| {
                    UserSpec::paper_default_with_workload(Cycles::from_mega(
                        rng.gen_range(300.0..5000.0),
                    ))
                    .unwrap()
                })
                .collect();
            let mut scenario = Scenario::new(
                users,
                vec![ServerProfile::paper_default(); s],
                OfdmaConfig::new(constants::DEFAULT_BANDWIDTH, n).unwrap(),
                gains,
                constants::DEFAULT_NOISE.to_watts(),
            )
            .unwrap();
            if mode & 2 != 0 {
                scenario = scenario
                    .with_downlink(BitsPerSecond::new(rng.gen_range(5e6..5e7)))
                    .unwrap();
            }
            let external: Vec<f64> = (0..s * n)
                .map(|_| {
                    if rng.gen_range(0.0..1.0) < 0.2 {
                        0.0
                    } else {
                        10.0_f64.powf(rng.gen_range(-15.0..-9.0))
                    }
                })
                .collect();
            scenario.set_external_rx(Some(external)).unwrap();
            let mut x = Assignment::all_local(&scenario);
            if mode & 1 != 0 {
                for sid in scenario.server_ids() {
                    for j in SubchannelId::all(n) {
                        let v = UserId::new(rng.gen_range(0..u));
                        if rng.gen_range(0.0..1.0) < 0.8 && !x.is_offloaded(v) {
                            x.assign(v, sid, j).unwrap();
                        }
                    }
                }
            }
            (scenario, x)
        },
    )
}

/// Ordinary and near-dead links.
fn arb_ordinary_case() -> impl Strategy<Value = (Scenario, Assignment)> {
    arb_case(-16.0..-8.5)
}

/// Received signals up to seven orders above the noise floor.
fn arb_extreme_snr_case() -> impl Strategy<Value = (Scenario, Assignment)> {
    arb_case(-11.0..-6.0)
}

/// Steps one chain through `epochs` epochs of both loops from the same
/// start and stream, cooling geometrically from `t0` to `t_end`, and
/// checks after every epoch that the two agree on everything a later
/// epoch can read: decision, objective bits, best, counters, acceptance
/// statistics and the RNG's next draw.
fn assert_epochs_match(
    scenario: &Scenario,
    start: Assignment,
    config: &TtsaConfig,
    (t0, t_end): (f64, f64),
    epochs: u32,
    seed: u64,
) {
    let kernel = NeighborhoodKernel::new();
    let k = config.batch_width;
    let mut oracle = ChainState::from_initial(scenario, start.clone(), k);
    let mut screened = ChainState::from_initial(scenario, start, k);
    let mut oracle_rng = StdRng::seed_from_u64(seed);
    let mut screened_rng = oracle_rng.clone();
    let alpha = (t_end / t0).powf(1.0 / f64::from(epochs.max(2) - 1));
    let mut temperature = t0;
    for e in 0..epochs {
        let a = oracle_run_epoch(
            scenario,
            config,
            &kernel,
            temperature,
            &mut oracle,
            &mut oracle_rng,
        );
        let b = run_epoch(
            scenario,
            config,
            &kernel,
            temperature,
            &mut screened,
            &mut screened_rng,
        );
        assert_eq!(
            screened.inc.assignment(),
            oracle.inc.assignment(),
            "epoch {e}"
        );
        assert_eq!(
            screened.current_obj.to_bits(),
            oracle.current_obj.to_bits(),
            "epoch {e}"
        );
        assert_eq!(screened.best, oracle.best, "epoch {e}");
        assert_eq!(
            screened.best_obj.to_bits(),
            oracle.best_obj.to_bits(),
            "epoch {e}"
        );
        assert_eq!(
            (screened.proposals, screened.count, screened.last_resync),
            (oracle.proposals, oracle.count, oracle.last_resync),
            "epoch {e}"
        );
        assert_eq!(
            (b.accepted_worse, b.accepted_better),
            (a.accepted_worse, a.accepted_better),
            "epoch {e}"
        );
        assert_eq!(
            screened_rng.clone().gen::<u64>(),
            oracle_rng.clone().gen::<u64>(),
            "epoch {e}: the streams diverged"
        );
        assert!(screened.scored <= screened.proposals);
        temperature *= alpha;
    }
}

/// Audits [`entry_bound`] on every entry move of `inc`'s current state
/// (every local user onto every slot, evicting the occupant when taken):
/// the scored change never exceeds the bound. NaN bounds screen nothing
/// and are skipped.
fn audit_entry_bounds(inc: &mut IncrementalObjective<'_>, what: &str) {
    let scenario = inc.scenario();
    let n = scenario.num_subchannels();
    let current = inc.current();
    for u in scenario.user_ids() {
        if inc.assignment().is_offloaded(u) {
            continue;
        }
        for p in 0..scenario.num_servers() * n {
            let (s, j) = (ServerId::new(p / n), SubchannelId::new(p % n));
            let mv = MoveDesc::relocate_evicting(inc.assignment(), u, s, j);
            let bound = entry_bound(inc, &mv).expect("a local user's relocation is an entry move");
            let delta = inc.score(&mv) - current;
            assert!(
                bound.is_nan() || delta.is_nan() || delta <= bound,
                "{what}: u{} slot {p}: delta {delta} above the bound {bound} (J = {current})",
                u.index()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The screened epoch makes exactly the unscreened epoch's decisions
    /// and draws, at K ∈ {1, 4}, from hot to cold, on dense and shared
    /// gains with downlink and halo, at ordinary and extreme SNR, from
    /// cold (all-local or dense random) and warm (an annealed decision)
    /// starts.
    #[test]
    fn screened_epochs_are_bit_identical_to_the_unscreened_loop(
        case in arb_ordinary_case(),
        extreme in arb_extreme_snr_case(),
        wide in 0u32..2,
        warm in 0u32..2,
        seed in 0u64..1_000_000,
    ) {
        let config = TtsaConfig::paper_default()
            .with_batch_width(if wide == 1 { 4 } else { 1 });
        for (scenario, start) in [case, extreme] {
            let (start, temperatures) = if warm == 1 {
                let quick = TtsaConfig::paper_default().with_min_temperature(1e-2);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                let warm_start =
                    anneal_from(&scenario, &quick, &NeighborhoodKernel::new(), &mut rng, start)
                        .assignment;
                (warm_start, (DEFAULT_REFRESH_TEMPERATURE, 1e-9))
            } else {
                (start, (scenario.num_subchannels() as f64, 1e-9))
            };
            assert_epochs_match(&scenario, start, &config, temperatures, 40, seed);
        }
    }

    /// The tempering ladder — exchanges, elite migration and the quench
    /// included — is bit-identical under the screened and the unscreened
    /// epoch, cold and warm, at 1 and 2 workers, and `scored` never
    /// exceeds `proposals`.
    #[test]
    fn screened_ladders_are_bit_identical_to_the_unscreened_ladder(
        case in arb_ordinary_case(),
        wide in 0u32..2,
        warm in 0u32..2,
        seed in 0u64..1_000_000,
    ) {
        let (scenario, start) = case;
        let base = TtsaConfig::paper_default()
            .with_min_temperature(1e-2)
            .with_batch_width(if wide == 1 { 4 } else { 1 })
            .with_trace();
        let tcfg = TemperingConfig::paper_default().with_replicas(3).with_rounds(4);
        let kernel = NeighborhoodKernel::new();
        let warm = (warm == 1).then_some(start);
        let solve = |workers: usize, epoch: EpochFn| {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = tempering::run(
                &scenario, &tcfg, &base, &kernel, &mut rng, workers, warm.clone(), epoch,
            );
            (out, rng.gen::<u64>())
        };
        let (oracle, oracle_next) = solve(1, oracle_run_epoch::<StdRng>);
        for workers in [1, 2] {
            let (got, next) = solve(workers, run_epoch::<StdRng>);
            prop_assert_eq!(&got.assignment, &oracle.assignment);
            prop_assert_eq!(got.objective.to_bits(), oracle.objective.to_bits());
            prop_assert_eq!((got.proposals, got.epochs), (oracle.proposals, oracle.epochs));
            prop_assert!(got.scored <= got.proposals);
            prop_assert_eq!(next, oracle_next);
            let counters = |t: &SearchTrace| -> Vec<_> {
                t.epochs
                    .iter()
                    .map(|e| (
                        e.accepted_worse,
                        e.accepted_better,
                        e.trigger_fired,
                        e.current_objective.to_bits(),
                        e.best_objective.to_bits(),
                    ))
                    .collect()
            };
            prop_assert_eq!(
                counters(got.trace.as_ref().unwrap()),
                counters(oracle.trace.as_ref().unwrap())
            );
        }
    }

    /// `Δ ≤ B` on every entry move: on states drifted by long
    /// un-resynced walks (accepting about half of the kernel's moves, so
    /// the cached marginals must follow every accepted one), then on the
    /// resynced state, with ordinary, near-dead and extreme-SNR links.
    #[test]
    fn entry_bound_covers_every_entry_move(
        case in arb_ordinary_case(),
        extreme in arb_extreme_snr_case(),
        walk in 1u32..200,
        seed in 0u64..1_000_000,
    ) {
        let kernel = NeighborhoodKernel::new();
        for (scenario, start) in [case, extreme] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut inc = IncrementalObjective::new(&scenario, start).unwrap();
            audit_entry_bounds(&mut inc, "start");
            for leg in 0..4 {
                for _ in 0..walk {
                    let (mv, _) = kernel.propose_move(&scenario, inc.assignment(), &mut rng);
                    if rng.gen_bool(0.5) {
                        inc.apply(&mv);
                        inc.commit();
                    }
                }
                audit_entry_bounds(&mut inc, &format!("drifted leg {leg}"));
            }
            inc.resync();
            audit_entry_bounds(&mut inc, "resynced");
        }
    }
}

#[test]
fn entry_moves_are_screened_on_a_crowded_instance() {
    // A crowded paper-like cell: most proposals attach a local user to a
    // slot it cannot win, so a paper-schedule run prunes a large share
    // of them and still lands where the unscreened loop does.
    let users = 24;
    let scenario = Scenario::new(
        vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); users],
        vec![ServerProfile::paper_default(); 3],
        OfdmaConfig::new(constants::DEFAULT_BANDWIDTH, 2).unwrap(),
        ChannelGains::from_fn(users, 3, 2, |u, s, j| {
            let spread = (u.index() * 7 + s.index() * 3 + j.index()) % 11;
            10f64.powf(-13.0 + 0.3 * spread as f64)
        })
        .unwrap(),
        constants::DEFAULT_NOISE.to_watts(),
    )
    .unwrap();
    let config = TtsaConfig::paper_default();
    let out = anneal(
        &scenario,
        &config,
        &NeighborhoodKernel::new(),
        &mut StdRng::seed_from_u64(11),
    );
    assert!(
        out.scored < out.proposals / 2,
        "scored {} of {}",
        out.scored,
        out.proposals
    );
    assert_epochs_match(
        &scenario,
        Assignment::all_local(&scenario),
        &config,
        (2.0, 1e-9),
        200,
        11,
    );
}
