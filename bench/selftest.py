"""Self-test of the benchmark harness, run from the root of a source checkout.

    python3 bench/selftest.py

It checks three things and exits non-zero if any fails:

1. A calibrate pass whose fit raises FitError (calib_frames=20,
   calib_rate=0.05) is counted as failed ops and does not crash the harness.
2. Two traced runs of each workload with the same seed report identical exact
   counts (pairs, counts, file bytes, profile calls, model evaluations, grid
   points).  This takes a few minutes: every traced run makes one untraced
   and one traced pass.
3. In a directory that holds only BENCHMARK.json and bench/, run.py exits
   with a non-zero code and prints no result.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 20240811


def _require(ok: bool, message) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def _run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180)


def check_failure_counting() -> None:
    import workloads

    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        workload = workloads.Calibrate(str(work), SEED, {"calib_frames": 20, "calib_rate": 0.05})
        checks = workload.run_pass(workloads.Stopwatch())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _require([c.name for c in checks] == ["sigma_minus", "sigma_plus"], checks)
    _require(not any(c.ok for c in checks), checks)
    _require(all(c.detail.startswith("FitError") for c in checks), checks)
    print(f"ok: FitError counted as {len(checks)} failed ops of {len(checks)}")


def check_exact_counts(workload: str) -> None:
    runs = []
    for _ in range(2):
        proc = _run(["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", "1"])
        _require(proc.returncode == 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        _require(result["correct"] and result["failed"] == 0, proc.stderr)
        runs.append(json.loads(lines[-2])["samples"]["exact_counts"])
    _require(runs[0] == runs[1], runs)
    print(f"ok: {workload} exact counts repeat: {runs[0]}")


def check_refuses_without_program() -> None:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        proc = _run(["--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _require(proc.returncode != 0, proc)
    _require('"correct"' not in proc.stdout, proc.stdout)
    print(f"ok: exit code {proc.returncode} and no result without the program")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    check_failure_counting()
    check_refuses_without_program()
    for workload in workloads.WORKLOADS:
        check_exact_counts(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
