//! Property-based tests for the sharded engine's decomposition layer:
//! the seeded partitioner, the halo (cross-cluster per-`(subchannel,
//! server)` power totals) accounting, and worker-count independence.
//!
//! These are the trust anchors of `--solver shard`: if every entity lands
//! in exactly one cluster, the halos always re-derive from a fresh global
//! recomputation, and the result is bit-identical at any pool width, then
//! the decomposition can only differ from the monolith through search
//! quality — never through physics.
//!
//! The descent's screen gets three properties of its own: the screened
//! [`descent`] is bit-identical to the unscreened loop (kept verbatim
//! below as [`oracle_descent`]), and no relocation of a local user ever
//! gains more than its ceiling minus the evicted occupant's marginal —
//! for the [`SlotScreen`]'s interference-free ceiling and for the
//! state-aware [`IncrementalObjective::entry_ceiling`] alike. They run
//! 64 cases, or `PROPTEST_CASES` when it is set.

use mec_system::{IncrementalObjective, MoveDesc};
use proptest::prelude::*;
use tsajs::shard::{
    cluster_external, descent, halo_totals, solve_sharded, Descent, Partition, ShardRun,
    SlotScreen, DESCENT_IMPROVEMENT_FLOOR, SCREEN_SLACK,
};
use tsajs::{ShardConfig, TemperingConfig, TtsaConfig};
use tsajs_mec::prelude::*;

/// Strategy: a random scenario geometry with log-uniform shared-layout
/// gains (the city-scale storage path) and mildly skewed workloads.
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (4usize..=10, 2usize..=6, 1usize..=3, 0u64..1000).prop_map(|(u, s, n, seed)| {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draws = vec![0.0f64; u * s];
        for g in draws.iter_mut() {
            *g = 10.0_f64.powf(rng.gen_range(-13.0..-9.0));
        }
        let gains =
            ChannelGains::shared_from_fn(u, s, n, |uu, ss| draws[uu.index() * s + ss.index()])
                .unwrap();
        Scenario::new(
            vec![
                mec_system::UserSpec::paper_default_with_workload(Cycles::from_mega(
                    rng.gen_range(500.0..4000.0)
                ))
                .unwrap();
                u
            ],
            vec![ServerProfile::paper_default(); s],
            OfdmaConfig::new(constants::DEFAULT_BANDWIDTH, n).unwrap(),
            gains,
            constants::DEFAULT_NOISE.to_watts(),
        )
        .unwrap()
    })
}

/// Strategy: a cluster-shaped descent instance — random dense or
/// subchannel-shared gains (including near-dead links), heterogeneous
/// workloads, an optional downlink, a random `external_rx` halo (zero
/// entries allowed), and either an all-local or a dense random start.
fn arb_descent_case() -> impl Strategy<Value = (Scenario, Assignment)> {
    arb_descent_case_with(-16.0..-8.5)
}

/// [`arb_descent_case`] at extreme SNR: gains up to `1e-6` put received
/// signals some seven orders above the noise floor, where the
/// `totals − signal` interference of a slot cancels worst.
fn arb_extreme_snr_case() -> impl Strategy<Value = (Scenario, Assignment)> {
    arb_descent_case_with(-11.0..-6.0)
}

/// [`arb_descent_case`] with log10 channel gains drawn from `log_gain`.
fn arb_descent_case_with(
    log_gain: std::ops::Range<f64>,
) -> impl Strategy<Value = (Scenario, Assignment)> {
    (4usize..=14, 1usize..=3, 1usize..=3, 0u64..100_000, 0u32..8).prop_map(
        move |(u, s, n, seed, mode)| {
            use rand::{rngs::StdRng, Rng, SeedableRng};
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
                    .with_downlink(mec_types::BitsPerSecond::new(rng.gen_range(5e6..5e7)))
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
                // Dense random start: most slots taken by random users.
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

/// The unscreened descent, verbatim as it stood before the [`SlotScreen`]
/// landed: the bit-identity reference of the screened loop.
fn oracle_descent(inc: &mut IncrementalObjective<'_>, budget: u64, floor: f64) -> Descent {
    let scenario = inc.scenario();
    let mut current = inc.current();
    let mut spent: u64 = 0;
    let mut changed = false;
    let mut exhausted = false;
    let mut improved = true;
    let n = scenario.num_subchannels();
    let total_slots = scenario.num_servers() * n;
    let slot = |p: usize| (ServerId::new(p / n), SubchannelId::new(p % n));
    'descent: while improved && spent < budget {
        improved = false;
        for u in scenario.user_ids() {
            let slots = scenario
                .server_ids()
                .flat_map(|s| SubchannelId::all(n).map(move |j| Some((s, j))));
            for target in std::iter::once(None).chain(slots) {
                if spent >= budget {
                    exhausted = true;
                    break 'descent;
                }
                let mv = match target {
                    None => MoveDesc::relocate(inc.assignment(), u, None),
                    Some((s, j)) => MoveDesc::relocate_evicting(inc.assignment(), u, s, j),
                };
                if mv.is_noop() {
                    continue;
                }
                let candidate = inc.score(&mv);
                spent += 1;
                if candidate - current > floor * current.abs().max(1.0) {
                    inc.apply(&mv);
                    inc.commit();
                    current = candidate;
                    improved = true;
                    changed = true;
                }
            }
        }
        for p in 0..total_slots {
            for q in (p + 1)..total_slots {
                if spent >= budget {
                    exhausted = true;
                    break 'descent;
                }
                let (s1, j1) = slot(p);
                let (s2, j2) = slot(q);
                let (Some(a), Some(b)) = (
                    inc.assignment().occupant(s1, j1),
                    inc.assignment().occupant(s2, j2),
                ) else {
                    continue;
                };
                let mv = MoveDesc::swap(inc.assignment(), a, b);
                if mv.is_noop() {
                    continue;
                }
                let candidate = inc.score(&mv);
                spent += 1;
                if candidate - current > floor * current.abs().max(1.0) {
                    inc.apply(&mv);
                    inc.commit();
                    current = candidate;
                    improved = true;
                    changed = true;
                }
            }
        }
    }
    Descent {
        changed,
        spent,
        scored: spent,
        exhausted: exhausted || (improved && spent >= budget),
    }
}

/// Audits [`IncrementalObjective::entry_ceiling`] move by move on one
/// state: walked `walk·10` proposals towards a local optimum (`0` = the
/// raw start, `u64::MAX` = all the way to the fixed point). For every
/// local user and every slot, the scored gain of the evicting relocation
/// stays below the ceiling minus the occupant's marginal (within
/// rounding of the compared values), the ceiling stays below the static
/// one, and every move the ceiling prunes would have been rejected by
/// the descent.
fn audit_entry_ceiling(scenario: &Scenario, start: Assignment, floor: f64, walk: u64) {
    let mut screen = SlotScreen::new(scenario);
    let mut inc = IncrementalObjective::new(scenario, start).unwrap();
    if walk > 0 {
        descent(&mut inc, &mut screen, walk.saturating_mul(10), floor);
    }
    // Audit the state, not the walk's drift: accepted moves leave ulps
    // of their largest transient Γ terms in the running sums, and a
    // marginal whose release empties the decision is priced against
    // `score`'s exact all-local zero.
    inc.resync();
    let current = inc.current();
    if !current.is_finite() {
        // A dead link offloaded by a random start: nothing is accepted
        // at J = −∞ and every cut-off is NaN, so nothing is pruned.
        return;
    }
    screen.refresh(&mut inc, current, floor);
    let n = scenario.num_subchannels();
    let scale = current.abs().max(1.0);
    for u in scenario.user_ids() {
        if inc.assignment().is_offloaded(u) {
            continue;
        }
        for p in 0..scenario.num_servers() * n {
            let (s, j) = (ServerId::new(p / n), SubchannelId::new(p % n));
            let marginal = match inc.assignment().occupant(s, j) {
                None => 0.0,
                Some(o) => current - inc.score(&MoveDesc::relocate(inc.assignment(), o, None)),
            };
            let ceiling = inc.entry_ceiling(u, s, j);
            let delta =
                inc.score(&MoveDesc::relocate_evicting(inc.assignment(), u, s, j)) - current;
            // Rounding is relative to the largest finite quantity
            // compared: near-dead links price Γ terms far above `|J|`.
            let magnitude = [delta, ceiling, marginal]
                .into_iter()
                .filter(|x| x.is_finite())
                .fold(scale, |m, x| m.max(x.abs()));
            assert!(
                delta <= ceiling - marginal + 1e-12 * magnitude,
                "u{} slot {p}: delta {delta} above ceiling {ceiling} - marginal {marginal}",
                u.index()
            );
            let bound = screen.bound(u, p);
            assert!(
                ceiling <= bound
                    || ceiling <= bound + 1e-12 * bound.abs().max(1.0)
                    || bound.is_nan(),
                "u{} slot {p}: live ceiling {ceiling} above the static {bound}",
                u.index()
            );
            if ceiling <= screen.cutoff(p) {
                assert!(
                    delta <= floor * scale - 0.5 * SCREEN_SLACK * scale,
                    "u{} slot {p}: move pruned by the live ceiling gains {delta}",
                    u.index()
                );
            }
        }
    }
}

/// A shard configuration small enough for property-sized instances.
fn quick_shard(seed: u64, cluster_size: usize) -> ShardConfig {
    ShardConfig::paper_default()
        .with_seed(seed)
        .with_cluster_size(cluster_size)
        .with_max_sweeps(4)
        .with_ttsa(TtsaConfig::paper_default().with_min_temperature(1e-1))
        .with_tempering(
            TemperingConfig::paper_default()
                .with_replicas(2)
                .with_rounds(2),
        )
}

/// Fresh recomputation of the halo contribution of one cluster's users.
fn own_contribution(
    scenario: &Scenario,
    partition: &Partition,
    c: usize,
    x: &Assignment,
) -> Vec<f64> {
    let s_count = scenario.num_servers();
    let powers = scenario.tx_powers_watts();
    let mut totals = vec![0.0; scenario.num_subchannels() * s_count];
    for (u, _s, j) in x.offloaded() {
        if partition.cluster_of_user(u) != c {
            continue;
        }
        for s in scenario.server_ids() {
            totals[j.index() * s_count + s.index()] +=
                powers[u.index()] * scenario.gains().gain(u, s, j);
        }
    }
    totals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every server and every user belongs to exactly one cluster, and no
    /// cluster exceeds the configured size.
    #[test]
    fn partition_is_an_exact_cover(
        scenario in arb_scenario(),
        cluster_size in 1usize..=4,
        seed in 0u64..1000,
    ) {
        let p = Partition::build(&scenario, cluster_size, seed).unwrap();
        let mut server_seen = vec![0usize; scenario.num_servers()];
        let mut user_seen = vec![0usize; scenario.num_users()];
        for (c, members) in p.clusters().iter().enumerate() {
            prop_assert!(members.servers.len() <= cluster_size);
            for &s in &members.servers {
                server_seen[s.index()] += 1;
                prop_assert_eq!(p.cluster_of_server(s), c);
            }
            for &u in &members.users {
                user_seen[u.index()] += 1;
                prop_assert_eq!(p.cluster_of_user(u), c);
            }
        }
        prop_assert!(server_seen.iter().all(|&n| n == 1), "servers covered once");
        prop_assert!(user_seen.iter().all(|&n| n == 1), "users covered once");
        // The partition is a pure function of (geometry, size, seed).
        prop_assert_eq!(&p, &Partition::build(&scenario, cluster_size, seed).unwrap());
    }

    /// After every Gauss–Seidel sweep, the halo each cluster saw plus the
    /// contribution its own users emit re-derives the global totals of a
    /// fresh recomputation, per (subchannel, server) entry.
    #[test]
    fn halos_rederive_from_fresh_global_recomputation(
        scenario in arb_scenario(),
        seed in 0u64..1000,
    ) {
        let cfg = quick_shard(seed, 2);
        let mut run = ShardRun::new(&scenario, cfg, 1).unwrap();
        for _ in 0..cfg.max_sweeps {
            let changed = run.sweep().unwrap();
            let totals = halo_totals(&scenario, run.assignment());
            for c in 0..run.partition().num_clusters() {
                let ext = cluster_external(&scenario, run.partition(), c, run.assignment());
                let own = own_contribution(&scenario, run.partition(), c, run.assignment());
                for ((t, e), o) in totals.iter().zip(ext.iter()).zip(own.iter()) {
                    prop_assert!(
                        (t - (e + o)).abs() <= 1e-12 * t.abs().max(1e-300),
                        "halo accounting broke: total {t} vs external {e} + own {o}"
                    );
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Same seed + same cluster size ⇒ bit-identical outcome at 1, 2 and
    /// 8 workers: the pool only changes when a cluster is solved, never
    /// what it computes.
    #[test]
    fn shard_solve_is_bit_identical_across_worker_counts(
        scenario in arb_scenario(),
        seed in 0u64..1000,
    ) {
        let cfg = quick_shard(seed, 2);
        let base = solve_sharded(&scenario, &cfg, 1).unwrap();
        base.assignment.verify_feasible(&scenario).unwrap();
        prop_assert!(base.halo_residual <= 1e-9, "residual {}", base.halo_residual);
        for workers in [2usize, 8] {
            let other = solve_sharded(&scenario, &cfg, workers).unwrap();
            prop_assert_eq!(&base.assignment, &other.assignment, "workers {}", workers);
            prop_assert_eq!(base.objective.to_bits(), other.objective.to_bits());
            prop_assert_eq!(base.proposals, other.proposals);
            prop_assert_eq!(base.sweeps, other.sweeps);
        }
    }
}

/// Case count of the screen properties below: `PROPTEST_CASES` when set
/// (the nightly sweep widens them), 64 otherwise.
fn screen_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(screen_cases()))]

    /// The screened descent makes exactly the unscreened loop's
    /// decisions: same final assignment, same objective bits, same
    /// `spent`/`changed`/`exhausted` — under the default and a raised
    /// floor, with budgets that cut passes short as well as ample ones.
    /// The screen only ever lowers `scored`.
    #[test]
    fn screened_descent_is_bit_identical_to_the_unscreened_loop(
        case in arb_descent_case(),
        raised_floor in 0u32..2,
        budget in 1u64..4000,
        ample in 0u32..2,
    ) {
        let (scenario, start) = case;
        let floor = if raised_floor == 1 { 1e-6 } else { DESCENT_IMPROVEMENT_FLOOR };
        let budget = if ample == 1 { 1_000_000 } else { budget };
        let mut oracle = IncrementalObjective::new(&scenario, start.clone()).unwrap();
        let expected = oracle_descent(&mut oracle, budget, floor);
        let mut screen = SlotScreen::new(&scenario);
        let mut inc = IncrementalObjective::new(&scenario, start).unwrap();
        let got = descent(&mut inc, &mut screen, budget, floor);
        prop_assert_eq!(inc.assignment(), oracle.assignment());
        prop_assert_eq!(inc.current().to_bits(), oracle.current().to_bits());
        prop_assert_eq!(got.spent, expected.spent);
        prop_assert_eq!(got.changed, expected.changed);
        prop_assert_eq!(got.exhausted, expected.exhausted);
        prop_assert!(got.scored <= got.spent);
        // A second call from the fixed point (or the budget's cut) stays
        // in lockstep too.
        let expected = oracle_descent(&mut oracle, budget, floor);
        let got = descent(&mut inc, &mut screen, budget, floor);
        prop_assert_eq!(inc.assignment(), oracle.assignment());
        prop_assert_eq!(inc.current().to_bits(), oracle.current().to_bits());
        prop_assert_eq!((got.spent, got.changed, got.exhausted),
            (expected.spent, expected.changed, expected.exhausted));
    }

    /// The screen's soundness, checked move by move: for every local user
    /// and every slot, the scored gain of the evicting relocation stays
    /// below the interference-free ceiling minus the occupant's marginal
    /// (within rounding), and every move the screen prunes would have
    /// been rejected by the descent's acceptance test.
    #[test]
    fn pruned_moves_never_beat_the_bound_minus_the_marginal(
        case in arb_descent_case(),
        raised_floor in 0u32..2,
        warm_steps in 0u64..60,
    ) {
        let (scenario, start) = case;
        let floor = if raised_floor == 1 { 1e-6 } else { DESCENT_IMPROVEMENT_FLOOR };
        let mut screen = SlotScreen::new(&scenario);
        let mut inc = IncrementalObjective::new(&scenario, start).unwrap();
        // Walk part of the way to a local optimum so the audit sees
        // intermediate, fixed-point and raw random states alike.
        if warm_steps > 0 {
            descent(&mut inc, &mut screen, warm_steps * 10, floor);
        }
        // Audit the state, not the walk's drift: the marginal of the last
        // offloaded user is priced against `score`'s exact all-local
        // zero, so it carries whatever the walk left in the running sums.
        inc.resync();
        let current = inc.current();
        if !current.is_finite() {
            // A dead link offloaded by a random start: the descent never
            // accepts anything at J = −∞ and the screen prunes nothing,
            // so there is no bound to audit.
            continue;
        }
        screen.refresh(&mut inc, current, floor);
        let n = scenario.num_subchannels();
        let scale = current.abs().max(1.0);
        for u in scenario.user_ids() {
            if inc.assignment().is_offloaded(u) {
                continue;
            }
            for p in 0..scenario.num_servers() * n {
                let (s, j) = (ServerId::new(p / n), SubchannelId::new(p % n));
                let marginal = match inc.assignment().occupant(s, j) {
                    None => 0.0,
                    Some(o) => current - inc.score(&MoveDesc::relocate(inc.assignment(), o, None)),
                };
                let mv = MoveDesc::relocate_evicting(inc.assignment(), u, s, j);
                let delta = inc.score(&mv) - current;
                let bound = screen.bound(u, p);
                // Rounding is relative to the largest finite quantity
                // compared, as in `audit_entry_ceiling`.
                let magnitude = [delta, bound, marginal]
                    .into_iter()
                    .filter(|x| x.is_finite())
                    .fold(scale, |m, x| m.max(x.abs()));
                prop_assert!(
                    delta <= bound - marginal + 1e-12 * magnitude,
                    "u{} slot {}: delta {} above bound {} - marginal {}",
                    u.index(), p, delta, bound, marginal
                );
                if screen.prunes(u, p) {
                    prop_assert!(
                        delta <= floor * scale - 0.5 * SCREEN_SLACK * scale,
                        "u{} slot {}: pruned move gains {}", u.index(), p, delta
                    );
                }
            }
        }
    }

    /// The state-aware ceiling is sound on every local relocation, at
    /// ordinary and at extreme SNR, on raw, part-walked and fixed-point
    /// states.
    #[test]
    fn entry_ceiling_bounds_every_local_relocation(
        case in arb_descent_case(),
        extreme in arb_extreme_snr_case(),
        raised_floor in 0u32..2,
        walk in 0u64..64,
    ) {
        let floor = if raised_floor == 1 { 1e-6 } else { DESCENT_IMPROVEMENT_FLOOR };
        // The top of the range walks all the way to the fixed point.
        let walk = if walk == 63 { u64::MAX } else { walk };
        for (scenario, start) in [case, extreme] {
            audit_entry_ceiling(&scenario, start, floor, walk);
        }
    }
}
