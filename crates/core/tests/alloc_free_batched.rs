//! Heap-allocation regression gate for the batched speculative path.
//!
//! The batched proposal step (draw K candidates, then judge them in
//! order: screen entry moves against their bound, score the rest without
//! mutating, Metropolis-select) is the hot loop of every annealing solver
//! at `batch_width > 1`. Candidate scratch is drawn from a reusable
//! `Vec`, the occupant marginals live in a cache sized at construction,
//! and `score()` replays the apply-path arithmetic against borrowed
//! state, so after warm-up the whole draw/screen/score/select cycle must
//! not touch the heap at all.
//!
//! It must stay the only `#[test]` in this binary: the libtest harness
//! runs tests on worker threads whose setup allocates, so a sibling
//! test running concurrently would leak its allocations into our count.

use mec_radio::{ChannelGains, OfdmaConfig};
use mec_system::{IncrementalObjective, MoveDesc, Scenario, UserSpec};
use mec_types::{Cycles, Hertz, ServerProfile, Watts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tsajs::shard::SCREEN_SLACK;
use tsajs::NeighborhoodKernel;

/// Pass-through allocator that counts every acquisition path
/// (fresh allocations, zeroed allocations and reallocations).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn scenario(users: usize, servers: usize, subchannels: usize) -> Scenario {
    Scenario::new(
        vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); users],
        vec![ServerProfile::paper_default(); servers],
        OfdmaConfig::new(Hertz::from_mega(20.0), subchannels).unwrap(),
        // Spread gains, so that some users cannot beat some occupants and
        // the screen rejects their entry moves unscored.
        ChannelGains::from_fn(users, servers, subchannels, |u, s, j| {
            1e-6 * 10f64.powi(-(((u.index() * 7 + s.index() * 3 + j.index()) % 5) as i32))
        })
        .unwrap(),
        Watts::new(1e-13),
    )
    .unwrap()
}

/// One batched proposal step, shaped exactly like the solver's lazy
/// draw/screen/score/select cycle: K candidates against the same
/// incumbent, judged in draw order; an entry move whose bound
/// (`entry_ceiling − occupant_marginal + slack`) already loses to a
/// pre-drawn uniform is rejected unscored, the rest are scored
/// speculatively, and the first Metropolis acceptance is applied.
#[allow(clippy::too_many_arguments)]
fn batched_step(
    scenario: &Scenario,
    kernel: &NeighborhoodKernel,
    inc: &mut IncrementalObjective<'_>,
    current_obj: &mut f64,
    batch: &mut Vec<MoveDesc>,
    k: usize,
    rng: &mut StdRng,
    pruned: &mut u64,
) {
    kernel.propose_batch(scenario, inc.assignment(), k, batch, rng);
    for mv in batch.iter() {
        let mut uniform = None;
        if let Some((u, s, j)) = mv.entry(inc.assignment()) {
            let bound = inc.entry_ceiling(u, s, j) - inc.occupant_marginal(s, j)
                + SCREEN_SLACK * current_obj.abs().max(1.0);
            if bound < 0.0 {
                let r = rng.gen::<f64>();
                if (bound * 2.0).exp() <= r {
                    *pruned += 1;
                    continue;
                }
                uniform = Some(r);
            }
        }
        let candidate = inc.score(mv);
        let delta = candidate - *current_obj;
        if delta > 0.0 || (delta * 2.0).exp() > uniform.unwrap_or_else(|| rng.gen::<f64>()) {
            inc.apply(mv);
            inc.commit();
            *current_obj = candidate;
            break;
        }
    }
}

#[test]
fn the_batched_score_path_performs_zero_heap_allocations() {
    let scenario = scenario(12, 3, 4);
    let kernel = NeighborhoodKernel::new();
    let mut rng = StdRng::seed_from_u64(11);
    let initial = mec_system::Assignment::all_local(&scenario);
    let mut inc = IncrementalObjective::new(&scenario, initial).unwrap();
    let mut current_obj = inc.current();
    let mut pruned = 0;
    const K: usize = 8;
    let mut batch: Vec<MoveDesc> = Vec::with_capacity(K);

    // Warm-up: let the pending-move machinery and the candidate scratch
    // reach their steady-state capacities.
    for _ in 0..1_000 {
        batched_step(
            &scenario,
            &kernel,
            &mut inc,
            &mut current_obj,
            &mut batch,
            K,
            &mut rng,
            &mut pruned,
        );
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    pruned = 0;
    for _ in 0..5_000 {
        batched_step(
            &scenario,
            &kernel,
            &mut inc,
            &mut current_obj,
            &mut batch,
            K,
            &mut rng,
            &mut pruned,
        );
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "the batched draw/screen/score/select loop heap-allocated {delta} times \
         over 5000 steps of width {K}; the hot loop must be allocation-free"
    );
    assert!(
        pruned > 0,
        "the measured window never took the screen's skip"
    );
}
