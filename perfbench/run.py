#!/usr/bin/env python3
"""Build the benchmark and the bcc-served daemon from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload solve_warm --seed 1 --seconds 10 --trace 0

Workloads are solve_warm, mcmf and served_mix (see perfbench/README.md).
Build output goes to standard error and the binaries to $CARGO_TARGET_DIR
(default .bench_build). The last line of standard output is the result object.
The exit code is not 0 when the build or the run fails, and then no result
line is printed.
"""

import os
import signal
import subprocess
import sys

# Files of the repository the build needs besides perfbench/ itself.
NEEDED = ["Cargo.toml", "crates/core/Cargo.toml", "crates/bcc-served/Cargo.toml"]
BUILDS = [
    ["--manifest-path", "perfbench/Cargo.toml"],
    ["--manifest-path", "Cargo.toml", "-p", "bcc-served"],
]
# A run is killed, daemon included, when it takes longer than this.
RUN_TIMEOUT_S = 170


def main():
    missing = [p for p in NEEDED + ["perfbench/Cargo.toml"] if not os.path.isfile(p)]
    if missing:
        print(
            "perfbench: run from the root of a full checkout (missing %s)" % ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for build in BUILDS:
        command = ["cargo", "build", "--release", "--offline", "--quiet"] + build
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: %s" % " ".join(command), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--served-bin",
        os.path.join(release, "bcc-served"),
    ]
    # A session of its own, so a timeout can stop the daemon with it.
    process = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print("perfbench: the run took longer than %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
