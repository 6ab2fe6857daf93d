//! Counting-allocator guard for the warm solve path: after one cold solve has
//! grown the [`ScratchArena`] and the output buffer, every further
//! `try_solve_into` on the same solver must perform **zero** heap allocations.
//! This is the property the serving engines' per-worker arenas rely on — a
//! regression here silently reintroduces per-request allocator traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bcc_graph::generators;
use bcc_laplacian::{LaplacianSolver, ScratchArena};
use bcc_linalg::vector;
use bcc_runtime::{ModelConfig, Network};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Delegates to the system allocator, counting `alloc`/`realloc` calls on the
/// current thread. Const-initialised thread-local state keeps the counter
/// itself allocation-free, so counting never recurses into the allocator.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn mean_zero_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let raw: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    vector::remove_mean(&raw)
}

#[test]
fn warm_solve_performs_zero_heap_allocations() {
    let g = generators::random_connected(24, 0.3, 8, &mut ChaCha8Rng::seed_from_u64(11));
    let solver = LaplacianSolver::try_exact_preconditioner(&g).expect("a connected graph");
    let mut net = Network::clique(ModelConfig::bcc(), g.n());
    let b = mean_zero_rhs(g.n(), 7);

    let mut arena = ScratchArena::new();
    let mut out = Vec::new();
    // Cold solve: grows the arena and the output buffer (and pins the ledger
    // phase), paying all one-time allocations up front.
    let cold = solver
        .try_solve_into(&mut net, &b, 0.25, &mut arena, &mut out)
        .expect("solve succeeds");
    let cold_solution = out.clone();

    let before = allocations();
    let warm = solver
        .try_solve_into(&mut net, &b, 0.25, &mut arena, &mut out)
        .expect("solve succeeds");
    let allocated = allocations() - before;

    assert_eq!(
        allocated, 0,
        "a warm try_solve_into must not touch the heap, performed {allocated} allocations"
    );
    // The warm run is still the same computation, bit for bit.
    assert_eq!(out, cold_solution);
    assert_eq!(warm.iterations, cold.iterations);
}

#[test]
fn warm_solves_stay_allocation_free_across_distinct_right_hand_sides() {
    let g = generators::grid(5, 5);
    let solver = LaplacianSolver::try_exact_preconditioner(&g).expect("a connected graph");
    let mut net = Network::clique(ModelConfig::bcc(), g.n());

    let mut arena = ScratchArena::new();
    let mut out = Vec::new();
    let warmup = mean_zero_rhs(g.n(), 1);
    solver
        .try_solve_into(&mut net, &warmup, 0.25, &mut arena, &mut out)
        .expect("solve succeeds");

    for seed in 2..6 {
        let b = mean_zero_rhs(g.n(), seed);
        let expected = solver
            .try_solve(&mut net, &b, 0.25)
            .expect("solve succeeds")
            .solution;
        let before = allocations();
        solver
            .try_solve_into(&mut net, &b, 0.25, &mut arena, &mut out)
            .expect("solve succeeds");
        let allocated = allocations() - before;
        assert_eq!(allocated, 0, "rhs seed {seed} allocated on the warm path");
        assert_eq!(out, expected, "warm path diverged on rhs seed {seed}");
    }
}

#[test]
fn a_warm_block_solve_performs_zero_heap_allocations() {
    let g = generators::random_connected(16, 0.3, 8, &mut ChaCha8Rng::seed_from_u64(13));
    let solver = LaplacianSolver::try_exact_preconditioner(&g).expect("a connected graph");
    // One lane, one lockstep group, and four groups staged in the arena.
    for lanes in [1, 10, 40] {
        let mut net = Network::clique(ModelConfig::bcc(), g.n());
        let block = mean_zero_rhs(g.n() * lanes, lanes as u64);
        let mut arena = ScratchArena::new();
        let (mut out, mut stats) = (Vec::new(), Vec::new());
        // Cold solve: grows the arena and both output buffers.
        solver
            .try_solve_block_into(
                &mut net, &block, lanes, 0.25, &mut arena, &mut out, &mut stats,
            )
            .expect("solve succeeds");
        let (cold_solution, cold_stats) = (out.clone(), stats.clone());

        let before = allocations();
        solver
            .try_solve_block_into(
                &mut net, &block, lanes, 0.25, &mut arena, &mut out, &mut stats,
            )
            .expect("solve succeeds");
        let allocated = allocations() - before;

        assert_eq!(
            allocated, 0,
            "a warm {lanes}-lane try_solve_block_into performed {allocated} allocations"
        );
        assert_eq!(out, cold_solution);
        assert_eq!(stats, cold_stats);
        assert_eq!(stats.len(), lanes);
    }
}
