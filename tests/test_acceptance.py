"""Acceptance suite: one test per criterion, each printing a PASS line with
the realised figures (run with -s or -rA to see them).

The heavy shared artefacts (the zero survey to height 500 and the counting
table to height 2000) are session fixtures; their build times are charged to
the criteria that first request them.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from rzero import validation
from rzero.auxiliary import r_eval, r_value
from rzero.counting import (
    Box,
    PathSegment,
    arg_variation,
    base_count,
    rectangle_count,
    residual_table,
    sqrt_fit,
    unit_params,
)
from rzero.special_functions import TWO_PI
from rzero.validation import SURVEY_BOX, TABLE_GRID
from rzero.zeros import locate_zeros

# Zeros of SURVEY_BOX and N(T) on TABLE_GRID at 17 digits, written by
# scripts/make_golden.py; the fixtures must keep reproducing them.
GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "golden.json")
                    .read_text(encoding="utf-8"))
GOLDEN_ZERO_TOL = 1e-10

_timings: dict[str, float] = {}
# echoed in the terminal summary; wall times go on lines of their own, so
# the ACCEPTANCE lines read the same from run to run
ACCEPTANCE_LINES: list[str] = []
TIMING_LINES: list[str] = []


@pytest.fixture(scope="session")
def zero_survey():
    t0 = time.perf_counter()
    zeros, clusters = locate_zeros(SURVEY_BOX)
    # emptiness further left of the survey box
    strip, _ = rectangle_count(r_value, Box(SURVEY_BOX.sigma_lo - 20.0,
                                            SURVEY_BOX.sigma_lo,
                                            SURVEY_BOX.t_lo, SURVEY_BOX.t_hi))
    _timings["survey"] = time.perf_counter() - t0
    assert strip == 0, "survey box too narrow"
    assert clusters == []
    return zeros


@pytest.fixture(scope="session")
def count_table():
    t0 = time.perf_counter()
    table = residual_table(TABLE_GRID, box_left=-6.0)
    _timings["table"] = time.perf_counter() - t0
    return table


def report(criterion: str, detail: str):
    line = f"ACCEPTANCE {criterion}: PASS ({detail})"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)


def report_time(criterion: str, detail: str):
    line = f"TIME {criterion}: {detail}"
    TIMING_LINES.append(line)
    print("\n" + line)


def test_criterion_1_identity_suite():
    started = time.perf_counter()
    worst, where = validation.identity(None, 20)
    elapsed = time.perf_counter() - started
    assert worst <= 1e-8, f"worst {worst:.3e} at {where}"
    assert elapsed < 120.0
    report("1 (identity suite)",
           f"max rel deviation {worst:.3e} <= 1e-8 at {where}")
    report_time("1 (identity suite)", f"{elapsed:.1f}s < 120s")


def test_criterion_2_counting_consistency(zero_survey):
    started = time.perf_counter()
    heights = [50.0, 100.0, 200.0, 400.0]
    table = residual_table(heights, box_left=SURVEY_BOX.sigma_lo)
    base = base_count(SURVEY_BOX.sigma_lo)
    lines = []
    for res in table:
        hi = res.window[1]
        counted = res.count - base
        enumerated = sum(1 for z in zero_survey if z.gamma < hi)
        assert counted == enumerated, (
            f"T={res.big_t}: winding count {counted} != "
            f"enumeration {enumerated}"
        )
        lines.append(f"T={res.big_t:.0f}: {counted}")
    elapsed = time.perf_counter() - started + _timings.get("survey", 0.0)
    assert elapsed < 600.0
    report("2 (counting consistency)", "; ".join(lines))
    report_time("2 (counting consistency)",
                f"{elapsed:.1f}s incl. survey < 600s")


def test_criterion_3_sqrt_term(count_table):
    ts = np.array([r.big_t for r in count_table])
    counts = np.array([float(r.count) for r in count_table])
    smooth = np.array([r.smooth_term for r in count_table])
    assert np.all(np.diff(counts) >= 0), "count not monotone in T"
    x = np.sqrt(ts / TWO_PI)
    y = counts - smooth

    # Single-term projection is biased by the O(1) constant of the counting
    # function (the data sit on -x/2 + const); the coefficient of
    # sqrt(T/2pi) is estimated with an intercept absorbing that constant.
    c_plain = float(np.sum(x * y) / np.sum(x * x))
    c_fit, intercept = sqrt_fit(count_table)
    assert -0.55 <= c_fit <= -0.45, f"sqrt coefficient {c_fit:.4f}"

    main = smooth - 0.5 * x
    resid = np.abs(counts - main)
    envelope = 5.0 * ts ** 0.4
    assert np.all(resid <= envelope), "residual escaped the 5 T^{2/5} envelope"

    # report-only: compare residual magnitudes against log^2 T
    log_ratio = resid / np.log(ts) ** 2
    report("3 (sqrt-term validation)",
           f"fit c = {c_fit:.4f} in [-0.55,-0.45] (intercept {intercept:.3f}; "
           f"single-term projection {c_plain:.4f}); max |N-main| = "
           f"{resid.max():.2f} vs envelope min {envelope.min():.1f}; "
           f"|resid|/log^2 T in [{log_ratio.min():.4f}, {log_ratio.max():.4f}]")


def test_criterion_4_backlund_property():
    (worst,) = validation.backlund(np.random.default_rng(20250809), 1000)
    assert worst <= 0.0, f"measured variation exceeds the bound by {worst:.4f}"
    report("4 (Backlund property)",
           f"1000/1000 cases bounded; smallest margin {-worst:.4f} turns")


def test_criterion_5_left_region_surrogate():
    worst, high_t_worst = validation.left_region(np.random.default_rng(1913), 50)
    assert worst < 1.0, f"u = {worst}"
    report("5 (left-region surrogate)",
           f"max |R/surrogate - 1| = {worst:.4f} < 1 over 50 points; "
           f"t >= 500 max {high_t_worst:.4f} (expectation <= 0.5: "
           f"{'met' if high_t_worst <= 0.5 else 'not met, report only'})")


def test_criterion_6_functional_identities():
    rng = np.random.default_rng(271828)
    n = 1_000_000
    (worst_chi,) = validation.functional_equation(rng, n)
    assert worst_chi <= 1e-10, f"chi(s)chi(1-s) deviation {worst_chi:.3e}"
    _, worst_eta, worst_exp = validation.eta_branch(rng, n)
    assert worst_eta <= 1e-12, f"eta branch deviation {worst_eta:.3e}"
    assert worst_exp <= 1e-12, f"Im(-i pi eta^2) deviation {worst_exp:.3e}"
    report("6 (functional identities)",
           f"chi identity {worst_chi:.2e} <= 1e-10, eta branch "
           f"{worst_eta:.2e} <= 1e-12, exponent {worst_exp:.2e} <= 1e-12 "
           f"at 1e6 points each")


def test_criterion_7_zero_free_band():
    rng = np.random.default_rng(424242)
    worst_offset = 0.0
    for _ in range(20):
        lo = float(rng.uniform(2.0, 7.0))
        hi = float(rng.uniform(lo + 0.2, 8.0))
        t_lo = float(rng.uniform(10.0, 900.0))
        t_hi = float(rng.uniform(t_lo + 5.0, 1000.0))
        # counterclockwise from the bottom, 128 equispaced seeds per edge
        corners = [complex(lo, t_lo), complex(hi, t_lo), complex(hi, t_hi),
                   complex(lo, t_hi)]
        total = 0.0
        for a, b in zip(corners, corners[1:] + corners[:1]):
            total += arg_variation(r_value, PathSegment(a, b),
                                   unit_params(128)).total_variation
        raw = total / TWO_PI
        assert abs(raw) < 0.02, f"winding {raw:.4f} on [{lo},{hi}]x[{t_lo},{t_hi}]"
        worst_offset = max(worst_offset, abs(raw))

    worst_dev = 0.0
    sigma = rng.uniform(2.0, 6.0, 1000)
    t = rng.uniform(10.0, 1000.0, 1000)
    for sg, tt in zip(sigma, t):
        dev = abs(r_eval(complex(sg, tt)).value - 1.0)
        worst_dev = max(worst_dev, dev)
    assert worst_dev <= 0.75
    report("7 (sigma >= 2 zero-free band)",
           f"20 rectangles wind to 0 (max |raw| {worst_offset:.4f}); "
           f"max |R-1| = {worst_dev:.3f} <= 3/4 at 1000 points")


def test_criterion_8_right_fraction(zero_survey):
    in_range = [z for z in zero_survey if 10.0 < z.gamma <= 500.0]
    right = sum(1 for z in in_range if z.beta > 0.5)
    fraction = right / len(in_range)
    assert 0.20 <= fraction <= 0.45, f"fraction {fraction:.3f}"
    report("8 (right-of-critical-line fraction)",
           f"{right}/{len(in_range)} zeros with beta > 1/2 -> "
           f"fraction {fraction:.3f} in [0.20, 0.45]")


def test_survey_matches_golden(zero_survey):
    assert GOLDEN["survey_box"] == [SURVEY_BOX.sigma_lo, SURVEY_BOX.sigma_hi,
                                    SURVEY_BOX.t_lo, SURVEY_BOX.t_hi]
    expected = [(float(b), float(g)) for b, g in GOLDEN["zeros"]]
    assert len(zero_survey) == len(expected)
    worst = max(max(abs(z.beta - b), abs(z.gamma - g))
                for z, (b, g) in zip(zero_survey, expected))
    assert worst <= GOLDEN_ZERO_TOL, f"zero moved by {worst:.3e}"


def test_counts_match_golden(count_table):
    assert [[r.big_t, r.count] for r in count_table] == GOLDEN["counts"]
