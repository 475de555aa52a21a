#!/usr/bin/env python3
"""Build and run the rdfref benchmark.

    python3 perfbench/run.py --workload <hot_mix|cold_mix|churn> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into `$CARGO_TARGET_DIR`, or `.bench_build` when unset, then runs
it with the same arguments. The last line of standard output is the JSON
result; the exit code is the benchmark's own.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([str(target / "release" / "perfbench"), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
