"""Benchmark of the rzero package: one run of one workload.

    python3 bench/run.py --workload eval-sweep --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout that holds ``src/rzero``.  With ``--trace 0``
the run times set-up in fresh processes, then repeats cold jobs (one fresh
single-threaded process each, closed loop) until ``--seconds`` have been
measured, checks every job's output and reports the end-to-end metrics.
With ``--trace 1`` it runs job 0 untraced and then traced, requires both to
give the same output digest and reports the per-layer metrics.  The last
line of standard output is the result object; the full record, with
provenance and digests, goes to ``.bench_out/`` in the checkout.

``--smoke`` runs every workload at a tiny size, traced and untraced, and
checks that every metric of BENCHMARK.json is emitted with its unit.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import PER_LAYER, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"

WORKLOADS = ("eval-sweep", "count-table", "zero-survey")
DEFAULT_SEED = 0
SETUP_REPS = {False: 10, True: 2}
RUN_BUDGET_S = 170.0  # a run must end well within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit of every end-to-end metric, in report order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "point_ms_p50": "ms",
    "point_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    """A worker process failed, timed out or printed no result."""


def _worker_cmd(*args) -> list[str]:
    return [sys.executable, str(WORKER), *map(str, args)]


def time_setup(deadline: float) -> float:
    """Seconds from starting a fresh process until it has imported rzero and
    finished its first R evaluation, at nominal speed (calibration kernels
    run right before and after the probe)."""
    import calibrate  # numpy: only after main() has pinned its threads

    before = calibrate.bracket_factor()
    start = time.perf_counter()
    proc = subprocess.Popen(_worker_cmd("setup"), cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    _, err = _finish(proc, deadline)
    if line.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"set-up probe failed: {err.strip()[-500:]}")
    return elapsed * 0.5 * (before + calibrate.bracket_factor())


def _finish(proc: subprocess.Popen, deadline: float) -> tuple[str, str]:
    try:
        return proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker exceeded the run budget") from None


def run_job(workload, seed, job, trace, tiny, deadline, spans=None) -> dict:
    args = [workload, seed, job, int(trace), int(tiny)]
    if spans is not None:
        args.append(spans)
    proc = subprocess.Popen(_worker_cmd("job", *args), cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = _finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"{workload} job {job} exited with "
                          f"{proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = done.stdout.strip() or None
    return {
        "seed": seed,
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups: list[float], jobs: list[dict]) -> dict:
    walls = [j["wall_s"] for j in jobs]
    op_ms = [ms for j in jobs for ms in j["op_ms"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": sum(j["ops"] for j in jobs) / sum(walls),
        "point_ms_p50": percentile(op_ms, 50),
        "point_ms_p99": percentile(op_ms, 99),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, full record)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    problems = []
    setups = []
    if trace:
        spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
        plain = run_job(workload, seed, 0, False, tiny, deadline)
        traced = run_job(workload, seed, 0, True, tiny, deadline, spans)
        jobs = [plain, traced]
        if plain["digest"] != traced["digest"]:
            problems.append("traced output differs from the untraced output")
        layers = dict(traced["layers"],
                      **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
        metrics = {name: _metric(layers[name], unit)
                   for name, unit in PER_LAYER.items()}
    else:
        setups = [time_setup(deadline) for _ in range(SETUP_REPS[tiny])]
        jobs = []
        started = time.monotonic()
        while not jobs or time.monotonic() - started < seconds:
            if jobs and time.monotonic() + 2 * jobs[-1]["raw_wall_s"] > deadline:
                break
            jobs.append(run_job(workload, seed, len(jobs), False, tiny, deadline))
        metrics = end_to_end(setups, jobs)
    failed_ops = []
    for j in jobs:
        problems += j["problems"]
        failed_ops += j["failed_ops"]
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "trace": int(trace), "tiny": tiny,
        "seconds": seconds, "provenance": provenance(seed),
        "setup_s": setups,
        "jobs": [{k: v for k, v in j.items() if k != "op_ms"} for j in jobs],
        "problems": problems, "failed_ops": failed_ops, "result": result,
    }
    return result, record


def smoke() -> int:
    """Tiny run of every workload, untraced and traced: every metric of
    BENCHMARK.json must be emitted with its unit, finite, and correct."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, _ = run(workload, DEFAULT_SEED, 1, bool(trace), tiny=True)
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            bad = [k for k, m in result["metrics"].items()
                   if not math.isfinite(m["value"])]
            tag = f"{workload} trace={trace}"
            if units != wanted[trace]:
                failures.append(f"{tag}: metric names or units differ from "
                                f"BENCHMARK.json: {sorted(units.items() ^ wanted[trace].items())}")
            if bad or not result["correct"]:
                failures.append(f"{tag}: correct={result['correct']} "
                                f"non-finite={bad}")
            print(f"{tag}: correct={result['correct']} attempted "
                  f"{result['attempted']}, failed {result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for line in failures:
        print("SMOKE FAIL " + line)
    print("smoke " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload; checks metric names")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "rzero" / "__init__.py").is_file():
        print(f"no rzero sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, record = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in record["problems"]:
        print(f"# problem: {line}")
    for line in record["failed_ops"]:
        print(f"failed op: {line}", file=sys.stderr)
    print("# provenance: " + json.dumps(record["provenance"]))
    print("# digests: " + " ".join(j["digest"][:16] for j in record["jobs"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
