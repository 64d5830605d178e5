#!/usr/bin/env python3
"""Self-check for the compare_bench.py snapshot-hygiene gates.

Runs compare_bench.py against synthetic Google-Benchmark JSON pairs
and asserts the behaviors the CI gates rely on:

  1. a /threads:8 comparison against a snapshot whose recorded core
     count is 1 is refused (exit != 0, error names the benchmark);
  2. --allow-undersized-host downgrades that refusal to warn-and-skip,
     the single-threaded rows still compare, and --require patterns
     naming the skipped family still match (the benchmarks exist at
     parity; only the vacuous comparison is dropped);
  3. rows recorded via SkipWithError (error_occurred) are excluded, so
     a --require pattern that only an errored row matches fails;
  4. the undersized-host rule covers /shards:N names exactly like
     /threads:N ones;
  5. --require-any fails on a genuinely absent family, is waived with
     a warning when every match was undersized-skipped, and is
     enforced (regression fails) when the matches survive.

Exits 0 when every check passes.  No inputs; safe to run anywhere
python3 is available.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "compare_bench.py"


def snapshot(cores: str, ips_scale: float) -> dict:
    def row(name: str, ips: float, error: bool = False) -> dict:
        out = {"name": name, "run_type": "iteration", "real_time": 1.0,
               "items_per_second": ips * ips_scale}
        if error:
            out["error_occurred"] = True
            out["error_message"] = "simd level unsupported on this host"
            del out["items_per_second"]
        return out

    return {
        "context": {"ocd_build_type": "release",
                    "hardware_concurrency": cores},
        "benchmarks": [
            row("BM_PlannerStepsPerSec/global/threads:8", 8000.0),
            row("BM_ShardStep/round_robin/1000/512/shards:4", 4000.0),
            row("BM_TokenKernel/count_intersection_scalar/512", 1e9),
            row("BM_TokenKernel/count_intersection_avx2/512", 0.0,
                error=True),
        ],
    }


def run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *argv],
                          capture_output=True, text=True)


def check(ok: bool, label: str, proc: subprocess.CompletedProcess) -> None:
    if ok:
        print(f"ok: {label}")
        return
    sys.exit(f"FAIL: {label}\n--- stdout ---\n{proc.stdout}"
             f"\n--- stderr ---\n{proc.stderr}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base.json"
        curr = Path(tmp) / "curr.json"
        # The baseline claims 8-thread parity but was recorded on one
        # core; the current run is from a real 8-core host.
        base.write_text(json.dumps(snapshot(cores="1", ips_scale=1.0)))
        curr.write_text(json.dumps(snapshot(cores="8", ips_scale=1.0)))

        proc = run(str(base), str(curr))
        check(
            proc.returncode != 0
            and "BM_PlannerStepsPerSec/global/threads:8" in proc.stderr
            and "1 core" in proc.stderr,
            "undersized-host /threads:8 gate is refused", proc)
        check(
            "BM_ShardStep/round_robin/1000/512/shards:4" in proc.stderr,
            "undersized-host rule covers /shards:N names", proc)

        proc = run(str(base), str(curr), "--allow-undersized-host",
                   "--require", r"BM_PlannerStepsPerSec/.*/threads:8",
                   "--require", r"BM_TokenKernel/count_intersection_scalar")
        check(
            proc.returncode == 0
            and "--allow-undersized-host" in proc.stderr
            and "count_intersection_scalar" in proc.stdout
            and "threads:8" not in proc.stdout.splitlines()[-1],
            "--allow-undersized-host warns, skips, and keeps --require",
            proc)

        proc = run(str(base), str(curr), "--allow-undersized-host",
                   "--require", r"count_intersection_avx2")
        check(
            proc.returncode != 0
            and "count_intersection_avx2" in (proc.stderr + proc.stdout),
            "errored (SkipWithError) rows cannot satisfy --require", proc)

        # Sanity: an actual regression in the surviving rows still fails.
        slow = Path(tmp) / "slow.json"
        slow.write_text(json.dumps(snapshot(cores="8", ips_scale=0.5)))
        proc = run(str(base), str(slow), "--allow-undersized-host")
        check(proc.returncode != 0 and "REGRESSION" in proc.stdout,
              "regressions still fail after undersized-host skips", proc)

        # --require-any: absent families still fail the rename guard.
        proc = run(str(base), str(curr), "--allow-undersized-host",
                   "--require-any", r"BM_DoesNotExist")
        check(proc.returncode != 0 and "BM_DoesNotExist" in proc.stderr,
              "--require-any fails on an absent family", proc)

        # --require-any: waived (warn + pass) when every match was
        # captured on an undersized host.
        proc = run(str(base), str(curr), "--allow-undersized-host",
                   "--require-any", r"BM_ShardStep/.*/shards:4")
        check(
            proc.returncode == 0 and "waived" in proc.stderr
            and "BM_ShardStep" in proc.stderr,
            "--require-any is waived when all matches are undersized",
            proc)

        # --require-any: enforced when the matches survive — a shard
        # regression between two big-host snapshots still fails.
        big_base = Path(tmp) / "big_base.json"
        big_slow = Path(tmp) / "big_slow.json"
        big_base.write_text(json.dumps(snapshot(cores="8", ips_scale=1.0)))
        big_slow.write_text(json.dumps(snapshot(cores="8", ips_scale=0.5)))
        proc = run(str(big_base), str(big_slow),
                   "--require-any", r"BM_ShardStep/.*/shards:4")
        check(
            proc.returncode != 0 and "REGRESSION" in proc.stdout
            and "waived" not in proc.stderr,
            "--require-any is enforced on a big-enough host", proc)

    print("compare_bench_selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
