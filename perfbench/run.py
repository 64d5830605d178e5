#!/usr/bin/env python3
"""End-to-end OCD pipeline benchmark.

Builds perfbench/ (Release, from the library sources in src/) into
.bench_build/ and runs one workload:

    python3 perfbench/run.py --workload dense-broadcast --seed 1 \
        --seconds 20 --trace 0

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones and writes a Chrome trace to
.bench_build/trace-<workload>-<seed>.json.  --workload all runs every
workload, each in its own process, and prints a summary table.
Run from the repository root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["dense-broadcast", "sparse-broadcast", "lossy-swarm"]
BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench", "pipeline_bench")


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; output goes to a log."""
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        fail("run from the repository root")
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("library sources (src/) not found")
    tree = os.path.join(BUILD_DIR, "perfbench")
    os.makedirs(tree, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    configure = ["cmake", "-S", "perfbench", "-B", tree,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", tree, "--target", "pipeline_bench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed; see " + log_path)


def commit_id():
    """The checkout's commit when it is a git work tree, else unknown."""
    env = dict(os.environ)
    # Never let git search above the checkout for a repository.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.getcwd())
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, env=env,
                             check=False, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(workload, args, commit):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD_DIR, f"trace-{workload}-{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    commit = commit_id()

    if args.workload != "all":
        code, lines, result = run_workload(args.workload, args, commit)
        for line in lines:
            print(line)
        if result is None or code != 0:
            sys.exit(code or 1)
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    rows = []
    for workload in WORKLOADS:
        code, lines, result = run_workload(workload, args, commit)
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if result is None:
            worst = max(worst, code or 1)
            combined["correct"] = False
            continue
        worst = max(worst, code)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        rate = result["failed"] / result["attempted"]
        rows.append((workload, "failure_rate", rate, "ratio"))
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
            rows.append((workload, name, metric["value"], metric["unit"]))
    print(f"{'workload':<20} {'metric':<44} {'value':>16} unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<20} {name:<44} {value:>16.6g} {unit}")
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
