//! Experiment runner: prints the tables of the experiments in
//! `bench::run_experiment` and writes the machine-readable `BENCH_*.json`
//! cost trajectories.
//!
//! Usage:
//!   `cargo run -p bench --release --bin expts -- [e1|e2|...|e11|a1|a2|all] [--full]`
//!   `cargo run -p bench --release --bin expts -- --quick-json`  (CI)
//!   `cargo run -p bench --release --bin expts -- --full-json`
//!
//! The `--*-json` modes write `BENCH_pipelines.json`, `BENCH_batch.json`,
//! `BENCH_stream.json`, `BENCH_load.json` and `BENCH_load_metrics.json` to
//! the repository root (schema documented in `bench::trajectory` and
//! `bench::load`) and print the written paths.
//!
//! Load scenarios run through the `load` binary
//! (`cargo run -p bench --release --bin load -- scenarios/smoke.json`).
//!
//! CI runs `--quick-json`, then fails unless all five files are tracked by
//! git and match the committed bytes in everything but `wall_ns` values
//! (`git diff --exit-code -I '"wall_ns": [0-9]+,?$'`); see the `bench` job
//! in `.github/workflows/ci.yml`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick_json = args.iter().any(|a| a == "--quick-json");
    let full_json = args.iter().any(|a| a == "--full-json");
    if quick_json || full_json {
        let root = bench::trajectory::repo_root();
        let written = bench::trajectory::write_bench_json(&root, 2022, quick_json)
            .unwrap_or_else(|e| panic!("writing BENCH_*.json failed: {e}"));
        for path in written {
            println!("wrote {}", path.display());
        }
        // One-line cost-model calibration summary for the CI job log, read
        // back from the artifact just written (no second trajectory run).
        let stream: bench::trajectory::StreamTrajectory = serde_json::from_str(
            &std::fs::read_to_string(root.join("BENCH_stream.json"))
                .expect("BENCH_stream.json was just written"),
        )
        .expect("BENCH_stream.json parses back");
        println!("{}", bench::trajectory::estimation_summary(&stream));
        return;
    }
    let quick = !args.iter().any(|a| a == "--full");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let ids = if ids.is_empty() { vec!["all"] } else { ids };
    for id in ids {
        for table in bench::run_experiment(id, quick) {
            println!("{table}");
        }
    }
}
