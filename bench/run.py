"""purephase benchmark: one workload, one fresh single-threaded process.

    python3 bench/run.py --workload {sweep,calibrate,oracle} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from ./src).
Everything a run does, set-up included, counts against its S seconds; a run
makes at least one pass (one untraced and one traced with --trace 1) and
starts no pass it expects to end after S seconds.
With --trace 0 it repeats the workload's pass in a closed loop and reports the
end-to-end metrics: the median time of the program's calls in a checked pass,
the process's peak RSS after its first pass, and the median set-up time of
fresh processes.
With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics taken from the spans.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; lines
before it record the machine and the raw samples.  Every metric's unit is the
one BENCHMARK.json declares for it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("PUREPHASE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "calibrate", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _prepare_process() -> None:
    """Pin every thread pool to one thread before numpy loads, and find the program."""
    if not (ROOT / "src" / "purephase" / "__init__.py").is_file():
        raise SystemExit(f"bench: no purephase sources under {ROOT / 'src'}; run from a source checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def _set_up(args, work_dir: Path):
    """Everything before the first timed call: imports, config generation and parsing."""
    import workloads

    return workloads.WORKLOADS[args.workload](str(work_dir), args.seed)


def _setup_seconds(args) -> list[float]:
    """Wall time of fresh processes that start, set up this workload and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        samples.append(time.perf_counter() - start)
    return samples


def _machine() -> dict:
    import numpy
    import scipy

    blas = getattr(numpy, "__config__", None)
    blas = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _timed_pass(workload):
    """Run one checked pass; return the time of its program calls and its checks."""
    import workloads

    shutil.rmtree(getattr(workload, "out_dir", ""), ignore_errors=True)
    clock = workloads.Stopwatch()
    checks = workload.run_pass(clock)
    return clock.seconds, checks


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload, begin: float, seconds: float):
    """Closed loop: repeat checked passes until the next one would end after ``seconds``.

    Peak RSS is read after the first pass, when the process has done what one
    ``purephase`` invocation does.  Later passes only add heap fragmentation,
    which moved the peak by up to 16 MB from run to run of the same seed.
    """
    walls, lengths, checks = [], [], []
    while True:
        start = time.perf_counter()
        wall, result = _timed_pass(workload)
        lengths.append(time.perf_counter() - start)
        walls.append(wall)
        checks.extend(result)
        if len(walls) == 1:
            peak_rss_mb = _peak_rss_mb()
        if time.perf_counter() - begin + statistics.median(lengths) > seconds:
            return walls, lengths, checks, peak_rss_mb


def _trace(workload, begin: float, seconds: float):
    """Alternate untraced and traced passes; per-layer metrics come from the traced ones."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced, per_pass, checks = [], [], [], []
    while True:
        start = time.perf_counter()
        wall, result = _timed_pass(workload)
        plain.append(wall)
        checks.extend(result)
        pass_id = len(traced)
        with tracer.tracing(pass_id):
            wall, result = _timed_pass(workload)
        traced.append(wall)
        checks.extend(result)
        per_pass.append(tracing.pass_metrics(tracer, pass_id, wall))
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            break
    metrics, unstable = tracing.combine(per_pass)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    samples = {"untraced_wall_s": plain, "traced_wall_s": traced, "computed": list(tracing.COMPUTED),
               "exact_counts": {k: metrics[k] for k in tracing.EXACT_COUNTS}, "unstable_counts": unstable}
    return metrics, samples, checks, unstable


def _units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


def main(argv=None) -> int:
    begin = time.perf_counter()
    args = _parse(argv)
    _prepare_process()
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            _set_up(args, work_dir)
            return 0
        setup = [] if args.trace else _setup_seconds(args)
        workload = _set_up(args, work_dir)
        if args.trace:
            metrics, samples, checks, unstable = _trace(workload, begin, args.seconds)
        else:
            walls, lengths, checks, peak_rss_mb = _measure(workload, begin, args.seconds)
            unstable = []
            metrics = {
                "wall_s": statistics.median(walls),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setup),
            }
            samples = {"wall_s": walls, "pass_s": lengths, "setup_s": setup}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [c for c in checks if not c.ok]
    for check in failed:
        print(f"bench: {args.workload} op {check.name} failed: {check.detail}", file=sys.stderr)
    for name in unstable:
        print(f"bench: exact count {name} differs between traced passes", file=sys.stderr)
    units = _units()
    print(json.dumps({"machine": _machine()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "samples": samples}))
    print(json.dumps({
        "correct": not failed and not unstable,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
