//! Counting-allocator guard for the Gram oracle of the flow LP: after one
//! cold system has grown `SddGramSolver`'s workspace, a warm system
//! allocates only the vectors it returns: `k + 1` for a batch of `k`
//! right-hand sides (the outer vector and one per solution), one for a
//! single solve. Every system is still assembled, reduced and
//! preconditioned anew, from a `D` it has not seen.
//!
//! The same counter bounds a whole min-cost max-flow request on the
//! benchmark's light pool, the body of `Session::min_cost_max_flow`: the
//! implementation that built every system from scratch and expanded every
//! JL sketch anew made the `FROM_SCRATCH` allocations per request below, and a
//! request may now make at most 40% of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bcc_flow::{build_flow_lp, try_min_cost_max_flow_bcc, FlowLpConfig, McmfOptions};
use bcc_flow::{FlowLp, SddGramSolver};
use bcc_graph::{generators, FlowInstance};
use bcc_lp::GramSolver;
use bcc_runtime::{splitmix64, ModelConfig, Network};
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

/// The first `count` instances of the benchmark's pool on `n` vertices.
fn pool(n: usize, count: usize) -> Vec<FlowInstance> {
    let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(0x5EED_BE4C ^ (1000 + n as u64)));
    (0..count)
        .map(|_| generators::random_flow_instance(n, 0.3, 3, &mut rng))
        .collect()
}

/// A log-uniform `D` in `1e±6`, one entry per row of the flow LP.
fn diagonal(flow_lp: &FlowLp, rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..flow_lp.lp.m())
        .map(|_| 10f64.powf(12.0 * rng.gen::<f64>() - 6.0))
        .collect()
}

#[test]
fn a_warm_gram_system_allocates_only_its_solutions() {
    const K: usize = 10;
    for (index, instance) in pool(4, 5).iter().chain(&pool(5, 3)).enumerate() {
        let flow_lp = build_flow_lp(instance, &FlowLpConfig::default());
        let (a, n) = (&flow_lp.lp.a, flow_lp.lp.n());
        let mut rng = ChaCha8Rng::seed_from_u64(index as u64);
        let ys: Vec<Vec<f64>> = (0..K)
            .map(|_| (0..n).map(|_| rng.gen::<f64>() - 0.5).collect())
            .collect();
        let solver = SddGramSolver::new(1e-8);
        let mut net = Network::clique(ModelConfig::bcc(), instance.graph.n());

        // Cold: grows every buffer of the workspace to this LP's size.
        let d = diagonal(&flow_lp, &mut rng);
        solver
            .solve_many(&mut net, a, &d, &ys)
            .expect("an SDD system");

        let d = diagonal(&flow_lp, &mut rng);
        let before = allocations();
        let solved = solver
            .solve_many(&mut net, a, &d, &ys)
            .expect("an SDD system");
        let allocated = allocations() - before;
        assert_eq!(solved.len(), K);
        assert!(
            allocated <= K as u64 + 1,
            "instance {index}: a warm solve_many of {K} allocated {allocated} times"
        );

        let d = diagonal(&flow_lp, &mut rng);
        let before = allocations();
        let x = solver
            .solve(&mut net, a, &d, &ys[0])
            .expect("an SDD system");
        let allocated = allocations() - before;
        assert_eq!(x.len(), n);
        assert!(
            allocated <= 1,
            "instance {index}: a warm solve allocated {allocated} times"
        );
    }
}

#[test]
fn a_light_mcmf_request_makes_at_most_two_fifths_of_the_allocations_from_scratch() {
    const FROM_SCRATCH: [u64; 5] = [161_245, 160_929, 146_978, 156_056, 164_099];
    for (index, instance) in pool(4, FROM_SCRATCH.len()).iter().enumerate() {
        let options = McmfOptions {
            seed: 2022,
            ..McmfOptions::default()
        };
        let before = allocations();
        let mut net = Network::clique(ModelConfig::bcc(), instance.graph.n());
        let result = try_min_cost_max_flow_bcc(&mut net, instance, &options);
        let allocated = allocations() - before;
        assert!(result.is_ok(), "instance {index}");
        assert!(
            5 * allocated <= 2 * FROM_SCRATCH[index],
            "instance {index}: {allocated} allocations, from scratch {}",
            FROM_SCRATCH[index]
        );
    }
}
