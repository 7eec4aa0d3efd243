"""Workload inputs, job bodies and output checks of the rzero benchmark.

A job is one closed-loop pass of a workload in a cold process: its inputs
come from (workload, seed, job index), its output is checked after the
timed region, and the SHA-256 of its canonical output text is recorded.

Imported by worker.py with the checkout's ``src`` on sys.path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import resource
import time
from pathlib import Path

from rzero import auxiliary, cli, counting
from rzero.special_functions import chi

from calibrate import Sampler
from tracing import Tracer

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

# eval-sweep: four height bands (ROADMAP's layer heights), sigma in [-2, 3].
BANDS = (20.0, 100.0, 500.0, 2000.0)
POINTS_PER_BAND = {False: 500, True: 4}
IDENTITY_TOL = 1e-8  # scaled deviation allowed against zeta_reference

# count-table: heights 100..800 step 100 shifted by one seeded offset; the
# offset window is zero-free at every height (see reference.json), so the
# stored counts hold for every seed.
TABLE_SHIFT = 0.2
# zero-survey: box [-12, 2] x [10, top]; the top window lies between the
# zeros at gamma ~ 147.04 and ~ 150.98, so the stored zero list holds for
# every seed.
SURVEY_TOP, SURVEY_SHIFT = 149.0, 0.5
ZERO_TOL = 1e-10


def job_rng(workload: str, seed: int, job: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{job}")


def eval_points(rng: random.Random, tiny: bool) -> list[complex]:
    per_band = POINTS_PER_BAND[tiny]
    points = [complex(rng.uniform(-2.0, 3.0), band * rng.uniform(0.95, 1.05))
              for band in BANDS for _ in range(per_band)]
    rng.shuffle(points)
    return points


def table_argv(rng: random.Random, tiny: bool) -> list[str]:
    shift = rng.uniform(-TABLE_SHIFT, TABLE_SHIFT)
    lo, hi, step = (20.0, 60.0, 20.0) if tiny else (100.0, 800.0, 100.0)
    return ["--command", "table", "--t-min", repr(lo + shift),
            "--t-max", repr(hi + shift), "--t-step", repr(step)]


def survey_argv(rng: random.Random, tiny: bool) -> list[str]:
    top = (30.0 if tiny else SURVEY_TOP) + rng.uniform(-SURVEY_SHIFT, SURVEY_SHIFT)
    return ["--command", "zeros", "--t-min", "10", "--t-max", repr(top),
            "--box-left", "-6" if tiny else "-12"]


def assert_cold() -> None:
    """The job must not inherit cached R values or base counts."""
    size = auxiliary._r_eval_cached.cache_info().currsize
    if size != 0 or counting._BASE_COUNT_CACHE:
        raise RuntimeError(f"job is not cold: {size} cached R values, "
                           f"{len(counting._BASE_COUNT_CACHE)} base counts")


# ---------------------------------------------------------------------------
# checks: each returns one verdict per op, plus job-level problems
# ---------------------------------------------------------------------------


def check_eval(points, values) -> tuple[list[bool], list[str]]:
    """zeta_from_r against zeta_reference, with the deviation scaled by
    |R(s)| + |chi(s) R(1 - conj s)| so cancellation near a zero of zeta does
    not read as error.  Returns the verdicts and one line per failed point,
    with the relative error estimates of both R values."""
    verdicts, failures = [], []
    for s, value in zip(points, values):
        first = auxiliary.r_eval(s)
        second = auxiliary.r_eval(1.0 - s.conjugate())
        scale = abs(first.value) + abs(chi(s) * second.value)
        dev = abs(value - auxiliary.zeta_reference(s)) / scale
        ok = math.isfinite(dev) and dev <= IDENTITY_TOL
        verdicts.append(ok)
        if not ok:
            failures.append(
                f"zeta_from_r({s!r}): scaled deviation {dev:.3e} > "
                f"{IDENTITY_TOL:g}; relative error estimates "
                f"R(s) {first.error_estimate / abs(first.value):.2e}, "
                f"R(1 - conj s) {second.error_estimate / abs(second.value):.2e}")
    return verdicts, failures


def _footer(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, val = line.lstrip("# ").partition(" = ")
        if line.startswith("# ") and sep:
            out[key] = val
    return out


def check_table(text: str, tiny: bool) -> tuple[list[bool], list[str]]:
    """Counts non-decreasing, inside acceptance criterion 3's envelope
    |N - main| <= 5 T^(2/5), and equal to the stored counts."""
    rows = cli.parse_rows(text)
    expected = None if tiny else REFERENCE["count_table"]["counts"]
    problems = []
    if expected is not None and len(rows) != len(expected):
        problems.append(f"{len(rows)} table rows, expected {len(expected)}")
    verdicts = []
    previous = 0
    for k, row in enumerate(rows):
        big_t, count = float(row["big_t"]), int(row["count"])
        ok = count >= previous
        ok &= abs(count - float(row["main_value"])) <= 5.0 * big_t ** 0.4
        if expected is not None:
            ok &= k < len(expected) and count == expected[k]
        verdicts.append(ok)
        previous = count
    if "sqrt_fit_coefficient" not in _footer(text):
        problems.append("table footer lacks sqrt_fit_coefficient")
    return verdicts, problems


def check_survey(text: str, tiny: bool) -> tuple[list[bool], list[str]]:
    """No clusters, winding-1 certificates, and the stored zero list to
    ZERO_TOL in beta and gamma."""
    rows = cli.parse_rows(text)
    expected = None if tiny else REFERENCE["zero_survey"]["zeros"]
    problems = []
    if _footer(text).get("unresolved_clusters") != "0":
        problems.append("unresolved clusters reported")
    if expected is not None and len(rows) != len(expected):
        problems.append(f"{len(rows)} zeros, expected {len(expected)}")
    verdicts = []
    for k, row in enumerate(rows):
        beta, gamma = float(row["beta"]), float(row["gamma"])
        ok = row["winding_certificate"] == "1"
        if expected is not None:
            ok &= (k < len(expected)
                   and abs(beta - expected[k][0]) <= ZERO_TOL
                   and abs(gamma - expected[k][1]) <= ZERO_TOL)
        verdicts.append(ok)
    return verdicts, problems


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def _eval_job(points, tracer, sampler):
    """Per-point times exclude calibration kernels run during the point;
    ``ends`` are the points' completion instants."""
    zeta = auxiliary.zeta_from_r
    if tracer is not None:
        zeta = tracer.wrap("auxiliary.zeta", zeta)
    clock = time.perf_counter_ns
    values, op_ns, ends = [], [], []
    start = clock()
    for s in points:
        cal0, t0 = sampler.total_ns, clock()
        values.append(zeta(s))
        ends.append(clock())
        op_ns.append(ends[-1] - t0 - (sampler.total_ns - cal0))
    return values, op_ns, ends, (clock() - start) / 1e9


def _cli_job(argv, tracer):
    main = cli.main
    if tracer is not None:
        main = tracer.wrap("cli.main", main)
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue(), time.perf_counter() - start


def run_job(workload: str, seed: int, job: int, trace: bool, tiny: bool,
            spans_path: str | None = None) -> dict:
    """One cold job; returns timings, verdicts, digest and (traced) layer
    metrics as a JSON-ready dict.  ``wall_s`` and ``op_ms`` are normalised
    to the nominal machine speed (calibrate.py); ``raw_wall_s`` is not."""
    rng = job_rng(workload, seed, job)
    tracer = Tracer() if trace else None
    sampler = Sampler(tracer.innermost if tracer else None)
    assert_cold()
    problems: list[str] = []
    failed_ops: list[str] = []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        stack.enter_context(sampler.active())
        if workload == "eval-sweep":
            points = eval_points(rng, tiny)
            values, op_ns, ends, raw_wall = _eval_job(points, tracer, sampler)
        else:
            argv = (table_argv if workload == "count-table" else survey_argv)(rng, tiny)
            code, text, raw_wall = _cli_job(argv, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = sampler.factor()
    wall = (raw_wall - sampler.total_ns / 1e9) * speed

    if workload == "eval-sweep":
        text = "".join(f"{s.real!r},{s.imag!r},{v.real!r},{v.imag!r}\n"
                       for s, v in zip(points, values))
        verdicts, failed_ops = check_eval(points, values)
        op_ms = [ns / 1e6 * f
                 for ns, f in zip(op_ns, sampler.local_factors(ends))]
    else:
        if code != 0:
            problems.append(f"rzero {' '.join(argv)} exited with {code}")
        check = check_table if workload == "count-table" else check_survey
        verdicts, found = check(text, tiny)
        problems += found
        op_ms = [wall * 1e3 / len(verdicts)] if verdicts else []

    result = {
        "ops": len(verdicts),
        "attempted": max(len(verdicts), 1),
        "failed": len(verdicts) - sum(verdicts),
        "problems": problems,
        "failed_ops": failed_ops,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "speed_factor": speed,
        "calibrations": len(sampler.samples),
        "op_ms": op_ms,
        "peak_rss_mb": peak_rss_mb,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }
    if problems:
        result["failed"] = result["attempted"]
    if tracer is not None:
        tracer.charge_calibration(sampler.samples)
        result["layers"] = tracer.layer_metrics(speed)
        if spans_path:
            tracer.write_spans(spans_path)
    return result
