"""The property suites behind ``rzero --command validate`` and acceptance
criteria 1 and 4-6, and the acceptance survey box and counting grid.

Each suite takes a numpy ``Generator`` and a sample count and returns a
tuple whose first entry is its worst figure; the entries after it are the
details the acceptance report prints.  The command and the criteria call
the same functions, with their own seeds, counts and bounds.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .auxiliary import (
    curve_sigma,
    r_asymptotic,
    r_eval,
    zeta_from_r,
    zeta_reference,
)
from .counting import (
    Box,
    PathSegment,
    arg_variation,
    backlund_bound,
    unit_params,
)
from .special_functions import TWO_PI, _chi_batch, eta_batch

# The zero survey and the counting grid of the acceptance criteria; the
# golden file (scripts/make_golden.py) pins their results.
SURVEY_BOX = Box(-12.0, 2.0, 10.0, 500.0)
TABLE_GRID = [100.0 * k for k in range(1, 21)]


def identity(rng, samples: int) -> tuple[float, complex | None]:
    """Worst relative deviation of zeta_from_r from zeta_reference on the
    grid sigma in {-1, 0, 1/2, 1, 2} x ``samples`` heights in [5, 100], and
    the point where it occurs.  The grid is fixed; ``rng`` is not drawn."""
    worst, where = 0.0, None
    for sigma in (-1.0, 0.0, 0.5, 1.0, 2.0):
        for t in np.linspace(5.0, 100.0, samples):
            s = complex(sigma, float(t))
            ref = zeta_reference(s)
            dev = abs(zeta_from_r(s) - ref) / abs(ref)
            if dev > worst:
                worst, where = dev, s
    return worst, where


def functional_equation(rng, samples: int) -> tuple[float]:
    """Worst |chi(s) chi(1-s) - 1| at uniform sigma in [-3, 4], t in
    [1, 100]; chi(1-s) is taken as the conjugate of chi at 1 - conj(s)."""
    sigma = rng.uniform(-3.0, 4.0, samples)
    t = rng.uniform(1.0, 100.0, samples)
    prod = _chi_batch(sigma + 1j * t) * np.conj(_chi_batch(1.0 - sigma + 1j * t))
    return (float(np.max(np.abs(prod - 1.0))),)


def eta_branch(rng, samples: int) -> tuple[float, float, float]:
    """eta at uniform sigma in [-3, 4] and log-uniform t in [0.1, 1e5]:
    returns the worst of the two checks, the worst relative deviation of
    eta^2 from (s-1)/(2 pi i), and the worst relative deviation of
    Im(-i pi eta^2) from -t/2.  All three are inf if a value leaves the
    branch Re(eta) + Im(eta) > 0."""
    sigma = rng.uniform(-3.0, 4.0, samples)
    t = np.exp(rng.uniform(math.log(0.1), math.log(1e5), samples))
    values = eta_batch(sigma, t)
    if not np.all(values.real + values.imag > 0.0):
        return math.inf, math.inf, math.inf
    squares = (sigma - 1.0 + 1j * t) / (2j * math.pi)
    worst_eta = float(np.max(np.abs(values * values - squares)
                             / np.maximum(1.0, np.abs(squares))))
    exponent_im = (-1j * math.pi * values * values).imag
    worst_exp = float(np.max(np.abs(exponent_im + t / 2.0)
                             / np.maximum(1.0, t / 2.0)))
    return max(worst_eta, worst_exp), worst_eta, worst_exp


def backlund(rng, samples: int) -> tuple[float]:
    """Backlund's lemma on ``samples`` random polynomials with up to 12
    roots in [-1.5, 1.5]^2: the largest measured argument variation (in
    turns) along a segment of the disc minus the bound; a positive value is
    a violation.  Segments passing within 1e-2 of a root, and discs whose
    centre modulus exceeds the sampled supremum, are drawn again."""
    worst = -math.inf
    checked = 0
    while checked < samples:
        degree = int(rng.integers(1, 13))
        roots = rng.uniform(-1.5, 1.5, degree) + 1j * rng.uniform(-1.5, 1.5, degree)
        reach = float(rng.uniform(0.1, 0.8))
        radius = float(rng.uniform(reach + 0.1, 2.0))
        angle = float(rng.uniform(0.0, TWO_PI))
        b = reach * complex(math.cos(angle), math.sin(angle))
        line = [b * u for u in np.linspace(0.0, 1.0, 256)]
        if min(abs(p - r) for r in roots for p in line) < 1e-2:
            continue

        def poly(z):
            out = 1.0 + 0.0j
            for r in roots:
                out *= z - r
            return out

        f0 = abs(poly(0.0))
        theta = np.linspace(0.0, TWO_PI, 720, endpoint=False)
        sup = max(abs(poly(radius * complex(math.cos(a), math.sin(a))))
                  for a in theta) * 1.01
        if f0 == 0.0 or f0 > sup:
            continue
        seg = PathSegment(0.0 + 0.0j, b)
        trace = arg_variation(poly, seg, unit_params(64))
        measured = abs(trace.total_variation) / TWO_PI
        bound = backlund_bound(math.log(sup), math.log(f0), radius, reach)
        worst = max(worst, measured - bound)
        checked += 1
    return (worst,)


def left_region(rng, samples: int) -> tuple[float, float]:
    """u = |R/surrogate - 1| on the curve sigma = 1 - t^{2/5} log t at
    log-uniform heights in [50, 2000], formed from the logarithms of the
    quadrature value and of r_asymptotic: returns the worst u and the worst
    u at t >= 500."""
    worst = high_t_worst = 0.0
    for t in np.exp(rng.uniform(math.log(50.0), math.log(2000.0), samples)):
        t = float(t)
        s = complex(curve_sigma(t), t)
        log_r = r_eval(s).log_value
        u = 1.0 if log_r is None else abs(
            cmath.exp(log_r - r_asymptotic(s).log_value) - 1.0)
        worst = max(worst, u)
        if t >= 500.0:
            high_t_worst = max(high_t_worst, u)
    return worst, high_t_worst


# (name, suite, default sample count, bound) of rzero --command validate
SUITES = (
    ("identity", identity, 20, 1e-8),
    ("functional_equation", functional_equation, 2000, 1e-10),
    ("eta_branch", eta_branch, 200_000, 1e-12),
    ("backlund", backlund, 200, 0.0),
    ("left_region_surrogate", left_region, 12, 1.0),
)
