#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the benchmark package
in this directory (release profile, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs it with the given arguments, checks that
the metrics it reports are exactly the ones BENCHMARK.json declares for
that trace mode, with the declared units, and passes its output through.
The last line of stdout is the result object. The exit code is non-zero,
and no result is printed, if the build, the run or the check fails.
"""

import json
import os
import subprocess
import sys


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed")

    args = sys.argv[1:]
    run = subprocess.run(
        [os.path.join(target, "release", "e10-perfbench"), *args],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        return fail(f"benchmark exited with code {run.returncode}")

    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        result = json.loads(lines[-1])
    except (OSError, ValueError) as e:
        return fail(f"cannot read the spec or the result: {e}")
    traced = "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != declared:
        missing = sorted(declared.keys() - reported.keys())
        extra = sorted(reported.keys() - declared.keys())
        units = sorted(k for k in declared.keys() & reported.keys() if declared[k] != reported[k])
        return fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
                    f"undeclared {extra}, unit mismatch {units}")
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
