#!/usr/bin/env python3
"""Build and run the CaRDS host-time benchmark.

    python3 perfbench/run.py --workload <run-starved|serve>
                             --seed N --seconds S --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml, which depends on the
workspace crates by path) in release mode into $CARGO_TARGET_DIR (default
.bench_build at the repository root), then runs it. The binary prints one
line per metric and, as its last line of standard output, one JSON object
with `correct`, `attempted`, `failed` and `metrics`. A traced run also
writes its spans to perfbench/out/<workload>.spans.jsonl.

Exits with the binary's code: 0 when every correctness check passed, 1 when
one failed. Exits 1 without printing a result when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main(argv):
    root = Path(__file__).resolve().parent.parent
    manifest = root / "perfbench" / "Cargo.toml"
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(manifest)],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        args += ["--spans-out", str(root / "perfbench" / "out" / f"{workload}.spans.jsonl")]
    try:
        run = subprocess.run([str(target / "release" / "perfbench"), *args],
                             cwd=root, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark did not finish: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
