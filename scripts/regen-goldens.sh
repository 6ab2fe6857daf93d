#!/usr/bin/env bash
# Regenerates every committed artifact the CI guards compare against:
#
#   * tests/golden/*.json      — the report JSON schema snapshots
#                                (golden-freshness guard in the `test` job)
#   * BENCH_*.json             — the quick cost trajectories, the
#                                scenario-library load replay BENCH_load.json
#                                and its per-scenario telemetry snapshots
#                                BENCH_load_metrics.json
#                                (the `bench` job requires all five to be
#                                tracked and committed byte-for-byte as this
#                                script writes them, `wall_ns` values aside)
#
# Run this after any intentional change to the report schemas, to a
# pipeline's communication cost, or to the committed scenarios/*.json load
# library, then commit the result. A schema change that removes or
# reinterprets a key bumps the tag of the document it changes
# (STREAM_REPORT_SCHEMA = bcc-stream-report/v2, ENGINE_CONFIG_SCHEMA =
# bcc-engine-config/v2, or bcc-bench/v1); a purely additive one keeps it.
#
# BENCH_pipelines.json points also carry a `wall_ns` wall-clock field (the
# median of WALL_CLOCK_REPEATS deterministic repeats, see
# docs/PERFORMANCE.md). Those values are a fingerprint of the machine that
# ran this script — CI's diff skips them and a unit test checks only that
# they are positive, so regenerating on a slower box is fine. When nothing
# but `wall_ns` moved, the script restores the committed file.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== regenerating tests/golden/*.json =="
UPDATE_GOLDEN=1 cargo test -q --test stream --test config golden

echo "== regenerating BENCH_*.json (quick trajectories + load scenarios) =="
cargo run -p bench --release --bin expts -- --quick-json
if git diff --quiet -I '"wall_ns": [0-9]+,?$' -- BENCH_pipelines.json; then
  git checkout -- BENCH_pipelines.json
fi

echo "== done; review and commit the diff =="
git --no-pager diff --stat -- tests/golden 'BENCH_*.json' || true
