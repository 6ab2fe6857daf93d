//! Ablation example: Lewis-weight versus uniform-weight path following,
//! served through the `Session` API.
//!
//! Run with `cargo run --example lp_ablation --release`.
//!
//! Theorem 1.4's `Õ(√n)` iteration count hinges on re-weighting the barrier
//! with regularized Lewis weights; with uniform weights the same interior
//! point method needs `Õ(√m)` iterations. This example solves the same
//! min-cost-flow LPs with both weight functions and reports the iteration
//! counts side by side (experiment A2, `cargo run -p bench --release --bin
//! expts -- a2`, runs the full sweep).

use bcc_core::prelude::*;
use bcc_flow::{build_flow_lp, FlowLpConfig};
use bcc_lp::WeightStrategy;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut session = Session::builder().seed(3).build();
    println!(
        "{:<10} {:>6} {:>6} {:>18} {:>18}",
        "instance", "n", "m", "iters (Lewis)", "iters (uniform)"
    );
    for (label, vertices) in [("tiny", 5usize), ("small", 6), ("medium", 7)] {
        let instance =
            bcc_core::graph::generators::random_flow_instance(vertices, 0.25, 3, &mut rng);
        let flow_lp = build_flow_lp(&instance, &FlowLpConfig::default());

        let mut iterations = Vec::new();
        for uniform in [false, true] {
            let mut options = LpOptions::new(1e-2, flow_lp.lp.m(), 3);
            if uniform {
                options = options.with_uniform_weights();
            } else {
                let mut lewis = bcc_core::lp::lewis::LewisOptions::laboratory(flow_lp.lp.m(), 3);
                lewis.iterations = 6;
                lewis.max_sketch_dimension = Some(10);
                options.strategy = WeightStrategy::RegularizedLewis { options: lewis };
                options.path.weight_refresh_sweeps = 1;
            }
            let request =
                LpRequest::new(flow_lp.interior_point.clone(), options).with_sdd_gram(1e-8);
            let solution = session
                .lp(&flow_lp.lp, &request)
                .expect("the flow LP ships a valid interior point");
            iterations.push(solution.value.path_iterations());
        }
        println!(
            "{:<10} {:>6} {:>6} {:>18} {:>18}",
            label,
            flow_lp.lp.n(),
            flow_lp.lp.m(),
            iterations[0],
            iterations[1]
        );
    }
    println!(
        "\nLewis weights track Θ(√n) while uniform weights track Θ(√m): the gap widens with density."
    );
    println!("cumulative session cost:\n{}", session.cumulative_report());
}
