"""Evaluation of the auxiliary function

    R(s) = integral over the line 0\\swarrow1 of x^{-s} e^{i pi x^2} /
           (e^{i pi x} - e^{-i pi x}) dx,

by trapezoidal quadrature on a slope-one line through q + 1/2 (collecting the
residues n^{-s} of the poles crossed while sliding the line right), by the
asymptotic factorisation valid far left of the critical strip, and by
cross-checks against an Euler-Maclaurin zeta evaluator through the identity

    zeta(s) = R(s) + chi(s) * conj(R(1 - conj(s))).

The quadrature is organised around three kinds of reuse.  On the line
x = q + 1/2 + v e^{i pi/4} the terms log x and
i pi x^2 - log(e^{i pi x} - e^{-i pi x}) do not depend on s; they are kept
per (crossing, dyadic step, extent) in a bounded memo, so a pass reduces to
one complex multiply-add and one exp per node.  The trapezoid grids at
steps 1/4, 1/8, 1/16, ... over a fixed extent nest, so automatic evaluation
fixes the extent to a multiple of 1/2 and each halving of the step computes
only the new odd nodes, adding them to the sums of the previous pass.
Nearly every pass reaches step 1/16, so its first round takes the base grid
and the odd nodes of steps 1/8 and 1/16 in one kernel, each level summed
apart.  And points that share a crossing and an extent share every node
row, so one step-halving loop (_step_halve) works on blocks of them: a round
is one numpy kernel over a (points x nodes) block, -s_j log x_i plus the
shared kernel row, and each point then takes its own stopping decisions at
each step its sums reach.  The samples of a horizontal contour edge share t
and form one block; those of a vertical edge fall into a few.  A single
r_eval is a block of one.  One routine (_sum_level) sums every level, and
r_eval, r_eval_many and r_derivative all reach it through _step_halve; the
fixed pass _quadrature, the tests' reference, sums through it too.  R'(s)
comes from the same grids: differentiating under the integral multiplies
each node by -log x, and the Dirichlet part by -log n, so a derivative
request follows each point's row of R terms by a row of R' terms from the
same exponentials, and the same kernels sum both channels.

The stopping rule follows the trapezoid error model on a strip of
analyticity, error(h) ~ C e^{-2 pi d/h}: each halving squares the error
(Trefethen & Weideman, SIAM Rev. 56, 2014).  The discrepancy between the
grids at h and 2h measures the error of the 2h value, so a point whose
discrepancy reaches EPS_TARGET stops with a grid that only confirms the
previous one.  Once the discrepancies shrink and are small, the model
fitted to the last two of them predicts the error of the h value itself,
and the point stops when that prediction is below PRED_TARGET, a thousand
times under EPS_TARGET.  A point whose discrepancy and tail are at or below
the rounding floor of its pass stops too: no finer grid can do better.  A
point whose discrepancies grow is pre-asymptotic and keeps halving.  The
reported error_estimate is the model's error with an allowance for
discrepancies that fall more slowly than it assumes (see _estimate), or the
discrepancy, plus the truncation tails and a rounding floor.

Everything here is a pure function; repeated evaluations at the same point
are served from one cache, and neither the reuse nor the batching changes a
bit of any result.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    NearZeroDenominatorError,
    PoleOfGammaError,
    RegionError,
    ZeroOnPathError,
)
from .special_functions import (
    TWO_PI,
    _BERNOULLI_2K,
    as_complex,
    chi,
    eta,
    log_chi,
    log_sin_pi,
)

EPS_TARGET = 1e-9          # relative accuracy goal of automatic evaluation
PRED_TARGET = 1e-3 * EPS_TARGET  # model-predicted error that accepts a grid
_EPS = 2.0 ** -52          # double precision machine epsilon
# half-length at which the Gaussian factor of the integrand falls below
# EPS_TARGET
_MIN_HALF = math.sqrt(math.log(1.0 / EPS_TARGET) / math.pi)

# Direction of traversal of the integration line.  The line has slope one
# (direction e^{i pi/4}); the sign fixes the down-left traversal and was
# calibrated once against the zeta identity at s = 2.
_LINE_DIR = cmath.exp(1j * math.pi / 4.0)
_ORIENTATION = -1.0


@dataclass(frozen=True)
class EvaluationResult:
    """Value of R(s) (or of its asymptotic surrogate) with error metadata.

    ``log_value`` is a logarithm of ``value`` (any branch); it stays finite
    and meaningful even when ``value`` itself overflows the double range,
    which happens deep in the left half-plane.  ``derivative`` (R'(s)), its
    absolute ``derivative_error`` and the logarithmic derivative
    ``log_derivative`` (R'/R, formed as exp(log R' - log R), so it stays
    meaningful where both values saturate) are only set when the derivative
    was requested (see r_derivative).
    """

    value: complex
    method: str
    error_estimate: float
    log_value: complex | None = None
    derivative: complex | None = None
    derivative_error: float | None = None
    log_derivative: complex | None = None


def _log_kernel(x: np.ndarray) -> np.ndarray:
    """Pointwise log of e^{i pi x^2} / (e^{i pi x} - e^{-i pi x}).

    Logs are principal per point; the results are only ever exponentiated, so
    no branch tracking is needed.  The denominator log factors out whichever
    exponential dominates to avoid overflow off the real axis.
    """
    den = np.empty_like(x)
    up = x.imag >= 0.0
    xu = x[up]
    # e^{i pi x} - e^{-i pi x} = e^{-i pi x} (e^{2 i pi x} - 1), |e^{2 i pi x}| <= 1
    den[up] = -1j * math.pi * xu + np.log(np.exp(2j * math.pi * xu) - 1.0)
    xd = x[~up]
    # ... = e^{i pi x} (1 - e^{-2 i pi x}), |e^{-2 i pi x}| < 1
    den[~up] = 1j * math.pi * xd + np.log(1.0 - np.exp(-2j * math.pi * xd))
    return 1j * math.pi * x * x - den


def _build_rows(q: int, step: float, n: int, depth: int | None):
    """(log x, log kernel, peak) at x = q + 1/2 + step k e^{i pi/4}: with
    depth None at the odd |k| < n, with peak None; else at the base grid
    |k| <= n, then the odd nodes of each of its first ``depth`` halvings,
    with peak (max |log x|, max |log kernel|) over the base grid, the scales
    of the rounding floor (see _pass_figures)."""
    if depth:
        logx, rest, peaks = zip(*[
            _build_rows(q, step / 2 ** j, n << j, None if j else 0)
            for j in range(depth + 1)])
        return np.concatenate(logx), np.concatenate(rest), peaks[0]
    k = np.arange(-n, n + 1) if depth == 0 else np.arange(1 - n, n, 2)
    # The path stays clear of the branch cut of log x (negative reals):
    # Im x = step k / sqrt(2) vanishes only at k = 0, where x = q + 1/2 > 0.
    x = (q + 0.5) + (step * k) * _LINE_DIR
    logx, rest = np.log(x), _log_kernel(x)
    peak = None
    if depth == 0:
        peak = tuple(np.maximum.reduce(np.abs(np.stack([logx, rest])),
                                       axis=1).tolist())
    return logx, rest, peak


# Nesting: a pass at a dyadic step h <= _BASE_STEP starts from the grid of
# step _BASE_STEP (its nodes also fix the exponent scale) and adds the odd
# nodes of each halving down to h.
_BASE_STEP = 0.25
# The first round of a pass also sums this many halvings: the model rule
# needs two discrepancies, so nearly every pass reaches step 1/16.
_FIRST_HALVINGS = 2
# The rows of dyadic levels from _BASE_STEP down to LATTICE_FINEST_STEP are
# memoised per (q, step, n, depth), least recently used first out; finer
# levels are built on every pass.  Every level is dyadic and starts from
# _BASE_STEP, so the step alone decides.  The largest memoised row is 9 KiB
# (the odd nodes of step 1/64 over half-length 4.5) on seeded points with t
# up to 10^7 and sigma far left, so a full memo holds about 2.3 MiB.
LATTICE_FINEST_STEP = 1.0 / 64.0
LATTICE_MAX_ENTRIES = 256
_lattice_rows = lru_cache(maxsize=LATTICE_MAX_ENTRIES)(_build_rows)


def _line_rows(q: int, step: float, n: int, depth: int | None):
    """_build_rows of nesting levels, from the memo _lattice_rows where it
    keeps them.  The rows are shared and must not be written to."""
    if step >= LATTICE_FINEST_STEP:
        return _lattice_rows(q, step, n, depth)
    return _build_rows(q, step, n, depth)


# A round of _step_halve sums one nesting level for a block of points that
# share a crossing and a half-length, so they share every integrand row; a
# block holds at most this many (point, node) pairs, which bounds the
# temporaries of one round (a complex block is 512 KiB, twice that with R').
BATCH_MAX_NODES = 1 << 15
_MAX_PASSES = 16
_FINEST_STEP = 1.0 / 1024.0
_DIRECTION = _ORIENTATION * _LINE_DIR


def _reduced(value: complex, m: float) -> complex:
    """value * e^{-m}; zero when negligible against the integral at e^m."""
    if value == 0.0 or m >= math.log(abs(value)) + 650.0:
        return 0.0 + 0.0j
    return cmath.exp(cmath.log(value) - m)


_sum_rows = np.add.reduce  # row sums of a block: np.sum's pairwise order


def _channels(terms: np.ndarray, logs: np.ndarray,
              derivative: bool) -> np.ndarray:
    """The block ``terms``, a row of R terms per point, as the kernels sum
    it: with ``derivative`` each row is followed by the point's row of R'
    terms, which carry the factor -log x (nodes) or -log n (residues)."""
    if not derivative:
        return terms
    return np.concatenate((terms, terms * -logs), axis=1).reshape(
        2 * len(terms), terms.shape[1])


def _first_sums(q: int, step: float, n: int, depth: int, zs: list[complex],
                derivative: bool = False):
    """Sums of a block of points over the base grid |k| <= n of ``step``
    and the odd nodes of its first ``depth`` halvings, from one exp.

    Returns (m, phase, sums, halvings): per point the exponent scale m (the
    largest real part of the log integrand on the base grid; everything
    else is in units of e^m) and the phase scale max |log kernel| +
    |s| max |log x| of the rounding floor, per channel of each point (see
    _channels) the base grid's [total, coarse, abs_total, ends, sum_red,
    res_phase] that _pass_figures reads, and per halving the node sums and
    the modulus sums of each channel of each point over its own columns.
    Each row, and each level, gets the bits of a kernel over it alone.

    The largest residue n^{-s} has modulus e^{mr}, mr = -sigma log q, and a
    channel sums at most q residues, each at most log q times that (R').  A
    point whose sums could pass e^700, mr > 700 - log(q log q), forms its
    residues in units of e^{mr}, so each is at most 1 and no sum exceeds
    q log q; every other point sums in units of 1.  The block is scaled
    only when some point needs it, so every other row keeps its bits.

    Left of sigma = 0 the residues grow with n, each by about e^{-sigma/n}
    over the one before, so far left only the last few reach a double: from
    q = _RESIDUE_CUT_MIN_Q on, a row sums only the residues within
    e^{-_RESIDUE_CUT} of its largest (see _residue_cuts), and the d it
    drops, at most d e^{-_RESIDUE_CUT} of the largest term of each channel,
    enter its res_phase (divided by eps, so that _pass_figures adds them to
    the floor).  The block's exp runs over the widest suffix any of its
    rows keeps, and each row sums its own suffix (_kept_sums), so a row
    that drops nothing, every row with sigma >= 0 included, keeps its bits,
    and a row that drops some gets the bits it gets alone.
    """
    logx, rest, (peak_logx, peak_rest) = _line_rows(q, step, n, depth)
    s = np.array(zs)[:, None]
    lg = rest - s * logx
    nb = 2 * n + 1  # the base grid's columns
    m = np.maximum.reduce(lg[:, :nb].real, axis=1)
    # complex operands throughout: a float operand would be cast through
    # numpy's buffered path; the bits are the same
    lg -= m.astype(complex)[:, None]  # in place: fewer temporaries
    w = _channels(np.exp(lg, out=lg), logx, derivative)
    del lg
    abs_w = np.abs(w)
    halvings = []
    for level in range(1, depth + 1):
        cols = slice(nb + (n << level) - 2 * n, nb + (n << level + 1) - 2 * n)
        halvings.append((_sum_rows(w[:, cols], axis=1).tolist(),
                         _sum_rows(abs_w[:, cols], axis=1).tolist()))
    m = m.tolist()
    log_q = math.log(q) if q > 1 else 0.0
    limit = 700.0 - math.log(q * log_q) if q > 1 else math.inf
    mr = [-z.real * log_q if -z.real * log_q > limit else 0.0 for z in zs]
    c = 1 + derivative  # channels per point
    cuts = _residue_cuts(zs, q)
    log_n = _log_n(q)
    if cuts:
        lo = min(cuts)
        log_n = log_n[lo:]
    exponents = -s * log_n
    if any(mr):
        exponents -= np.array(mr, dtype=complex)[:, None]
    res = _channels(np.exp(exponents), log_n, derivative)
    # per channel row, m - mr: the residue sums are in units e^mr, and
    # _reduced brings them to the nodes' e^m
    scales = _per_channel([mp - rp for mp, rp in zip(m, mr)], c)
    if cuts:
        res_sums, abs_res = _kept_sums(res, cuts, lo, c)
        largest = res[:, -1].tolist()
    else:
        res_sums = _sum_rows(res, axis=1).tolist()
        if q > 1:
            abs_res = _sum_rows(np.abs(res), axis=1).tolist()
    res_phases = [0.0] * len(res)
    if q > 1:
        # the phase s log n of a residue is good to about eps |s| log q; its
        # scale is formed from logs, as the residues' moduli may lie beyond
        # the double range
        log_phases = _per_channel([math.log(abs(z) * log_q) for z in zs], c)
        res_phases = [math.exp(math.log(a) + log_phase - mi)
                      for a, log_phase, mi in zip(abs_res, log_phases, scales)]
        if cuts:
            for i, cut in enumerate(_per_channel(cuts, c)):
                if cut:
                    # logs: the product overflows past a cut of 17 700
                    # (t ~ 2e9)
                    res_phases[i] += math.exp(
                        math.log(cut) + math.log(abs(largest[i]))
                        - _RESIDUE_CUT - math.log(_EPS) - scales[i])
    # abs() of single elements: np.abs of an array may take a vector path
    # that differs in the last bit.
    sums = [[total, coarse, abs_total, abs(first) + abs(last),
             _reduced(res_sum, mi), res_phase]
            for total, coarse, abs_total, first, last, res_sum, mi, res_phase
            in zip(_sum_rows(w[:, :nb], axis=1).tolist(),
                   _sum_rows(w[:, :nb:2], axis=1).tolist(),
                   _sum_rows(abs_w[:, :nb], axis=1).tolist(),
                   w[:, 0].tolist(), w[:, nb - 1].tolist(), res_sums, scales,
                   res_phases)]
    return m, [peak_rest + abs(z) * peak_logx for z in zs], sums, halvings


def _per_channel(values: list, c: int) -> list:
    """A list of per-point ``values`` for the rows of a block of c channels
    per point (see _channels): each value c times."""
    return values if c == 1 else [v for v in values for _ in range(c)]


# A row with sigma < 0 drops the residues n with
# |sigma| (log q - log n) > _RESIDUE_CUT, each below e^{-46} = 1.1e-20 of the
# largest, q^{-s}.  With q <= 4000 (t up to 10^8) all of them together stay
# under eps/5 of it, while the phase floor charges eps |s| log q > 46 eps
# times it, so the estimate hardly moves; at the curve corner of T = 10^8
# (sigma = -29 194) a row keeps 7 of the 3989 residues.  Below
# _RESIDUE_CUT_MIN_Q residues the cut's bookkeeping, about 60 us a block,
# costs more than the exps it saves, about 20 ns each, so there every row
# keeps them all.
_RESIDUE_CUT = 46.0
_RESIDUE_CUT_MIN_Q = 100


def _residue_cuts(zs: list[complex], q: int) -> list[int] | None:
    """Per point, the number of leading residues n = 1, 2, ... it drops:
    those with |sigma| (log q - log n) > _RESIDUE_CUT, the n below
    q e^{-_RESIDUE_CUT/|sigma|}.  None when no point drops any, as at
    sigma >= 0 and at q < _RESIDUE_CUT_MIN_Q."""
    if q < _RESIDUE_CUT_MIN_Q:
        return None
    log_q = math.log(q)
    cuts = [math.ceil(q * math.exp(_RESIDUE_CUT / z.real)) - 1
            if z.real * log_q < -_RESIDUE_CUT else 0 for z in zs]
    return cuts if any(cuts) else None


def _kept_sums(res: np.ndarray, cuts: list[int], lo: int, c: int):
    """Per row of ``res`` (the residues n = lo + 1 .. q of each of the c
    channels of each point), the sum of the residues the point keeps and
    the sum of their moduli, as lists.  A row that drops none is summed
    pairwise, as every row sum is; a row that drops some is summed as a
    running sum from n = q down, whose value at its cut depends on its own
    residues alone, so either way a row gets the bits it gets alone."""
    row_cuts = np.repeat(np.array(cuts), c)
    dropping = row_cuts > 0
    abs_res = np.abs(res)
    sums, abs_sums = np.empty(len(res), dtype=complex), np.empty(len(res))
    if not dropping.all():
        sums[~dropping] = _sum_rows(res[~dropping], axis=1)
        abs_sums[~dropping] = _sum_rows(abs_res[~dropping], axis=1)
    # the column of n = cut + 1 from the end of each dropping row
    at = (np.arange(dropping.sum()), lo - 1 - row_cuts[dropping])
    sums[dropping] = np.cumsum(res[dropping, ::-1], axis=1)[at]
    abs_sums[dropping] = np.cumsum(abs_res[dropping, ::-1], axis=1)[at]
    return sums.tolist(), abs_sums.tolist()


@lru_cache(maxsize=LATTICE_MAX_ENTRIES)
def _log_n(q: int) -> np.ndarray:
    """log n for n = 1..q, as complex numbers; memoised for as many
    crossings as the integrand rows hold entries."""
    return np.log(np.arange(1, q + 1, dtype=float)).astype(complex)


def _sum_level(block: list, q: int, base_n: int, level: int,
               derivative: bool, depth: int) -> list:
    """Sum nesting levels into the rows of ``block``, points that share the
    crossing q and the base grid |k| <= base_n of step _BASE_STEP: level 0
    sets each row's scales m and phase and its sums, a list per channel,
    and returns the sums of its first ``depth`` halvings for _add_level (see
    _first_sums); level l adds the odd nodes of the l-th halving.  Every R
    value is summed here by the step-halving loop (_step_halve), a block and
    a round at a time; the tests' fixed pass (_quadrature) sums one level a
    call."""
    zs = [row.z for row in block]
    if level == 0:
        ms, phases, sums, halvings = _first_sums(q, _BASE_STEP, base_n,
                                                 depth, zs, derivative)
        c = 1 + derivative  # channels per point
        for i, row in enumerate(block):
            row.m, row.phase, row.sums = ms[i], phases[i], sums[c * i:c * i + c]
        return halvings
    logx, rest, _ = _line_rows(q, _BASE_STEP / 2 ** level, base_n << level,
                               None)
    ms = np.array([row.m for row in block], dtype=complex)[:, None]
    w = _channels(np.exp(rest - np.array(zs)[:, None] * logx - ms), logx,
                  derivative)
    _add_level([sums for row in block for sums in row.sums],
               _sum_rows(w, axis=1).tolist(),
               _sum_rows(np.abs(w), axis=1).tolist())
    return []


def _add_level(channel_sums: list, parts: list, abs_parts: list) -> None:
    """Add a halving's node and modulus sums to the sums of each channel
    (per point, see _channels); the total before them becomes the coarse
    sum."""
    for sums, part, abs_part in zip(channel_sums, parts, abs_parts):
        sums[1] = sums[0]
        sums[0] += part
        sums[2] += abs_part


def _pass_figures(h: float, half: float, m: float, phase: float, sums: list):
    """(log_total | None, rel_disc, rel_tail, floor_rel) of a pass at step h
    over [-half, half] from one channel's sums in units of e^m (see
    _first_sums): log_total is a log of the combined value (residue sum plus
    line integral) and the relative figures are against that value.

    floor_rel is the rounding floor, the one allowance for rounding of the
    stopping rules and of the reported estimate: a node's exponent
    rest - s log x carries an absolute error of about
    eps (|rest| + |s log x|), at most eps * phase, which is the node's
    relative error; a residue's phase s log n carries eps |s| log q at most
    (res_phase is |s| log q times the sum of the residues' moduli); and the
    value itself, exp(log_total), is good to about eps (3 + |log_total|).
    It also covers the rounding of the sums, about 1e-16 (h sum |node| +
    |residue sum|): max |log kernel| >= 32 on every base grid (q <= 4000,
    half-length 2.5 to 6), so eps * phase * h sum |node| is at least 70
    times the nodes' share, and for q >= 2 (|s| >= 25) eps |s| log q
    sum |n^-s| at least 38 times the residues' (q = 1 has 1^-s = 1, exact).
    """
    total, coarse, abs_total, ends, sum_red, res_phase = sums
    t_h = h * total
    t_2h = 2.0 * h * coarse
    total_red = _DIRECTION * t_h + sum_red

    disc = abs(t_h - t_2h)
    tail = ends * (h + 1.0 / (TWO_PI * half)) * 2.0
    floor = _EPS * (phase * h * abs_total + res_phase)

    scale_red = abs(total_red)
    if scale_red < 5e-324:  # max(scale_red, 5e-324), NaN kept as max keeps it
        scale_red = 5e-324
    rel_floor = floor / scale_red
    log_total = None
    if total_red != 0.0:
        log_total = m + cmath.log(total_red)
        rel_floor += _EPS * (3.0 + abs(log_total))
    return log_total, disc / scale_red, tail / scale_red, rel_floor


def _predicted(rel_disc: float, prev_disc: float | None) -> float | None:
    """Relative error of the finer grid of a pass as the trapezoid model
    predicts it, or None while the grids are pre-asymptotic.

    On a strip of analyticity the error at step h is about C e^{-2 pi d/h},
    so each halving squares it (Trefethen & Weideman, SIAM Rev. 56, 2014).
    The discrepancies rel_disc at h and prev_disc at 2h measure the errors
    of the grids at 2h and 4h; fitting C to them predicts
    rel_disc^3 / prev_disc^2 at h.  The fit is trusted only once the
    discrepancy shrinks to at most 1e-3 from at most 1e-2: a coarser grid
    that misses the integrand (a discrepancy of order one, as for
    sigma << 0 at t < 10) makes the next ratio look like squaring when it
    is not.
    """
    if prev_disc is None or not (rel_disc < prev_disc <= 1e-2
                                 and rel_disc <= 1e-3):
        return None
    return rel_disc ** 3 / prev_disc ** 2


def _estimate(figures: tuple, prev_disc: float | None):
    """(log_total, relative estimate) of one channel's pass from its
    _pass_figures and the discrepancy of the pass at twice its step over the
    same extent (None if there was none): the model's error of the pass
    when the grids are asymptotic (see _predicted), else its discrepancy,
    plus the tails and the rounding floor.

    The model has the log of the discrepancy fall twice as far at each
    halving as at the one before; at s = 4.797 + 505.609i it fell 1.79
    times as far, and the prediction d_h^3 / d_2h^2 was 2.8 times below the
    error.  So the report assumes 3/2 times, d_h (d_h / d_2h)^(3/2).  A pass
    is still accepted on the prediction; the report is never below it, and
    after such an acceptance (d_h <= 1e-3) it stays below 2e-10.
    """
    log_total, rel_disc, rel_tail, rel_floor = figures
    if _predicted(rel_disc, prev_disc) is not None:
        rel_disc *= (rel_disc / prev_disc) ** 1.5
    return log_total, rel_disc + rel_tail + rel_floor


class _Row:
    """Step-halving state of one point: its crossing, the extent and step of
    its current pass, the nesting level its sums have reached, the scales m
    and phase and the sums of each channel (R, and R' for a derivative
    request; see _sum_level), the figures the stopping rules compare and
    ``best``, (figures, prev_disc) of its last pass that did not widen (the
    pass it stops on): the _pass_figures of each channel and their
    discrepancies at the previous step (see _estimate)."""

    __slots__ = ("z", "q", "half", "step", "target", "level", "passes",
                 "prev_disc", "best", "m", "phase", "sums")

    def __init__(self, z: complex, q: int, half: float):
        self.z, self.q, self.half = z, q, half
        self.step = _BASE_STEP
        self.target = 0    # nesting level of self.step
        self.level = -1    # finest level summed over the current extent
        self.passes = 0
        self.prev_disc = None  # per channel, at the previous step, same extent
        self.best = None

    def judge(self) -> bool:
        """Apply the stopping rules to the pass at the current step: widen
        the extent, stop, or halve the step.  True when the point is done.

        A pass whose discrepancy and tail are at or below its rounding floor
        (floor_rel of _pass_figures) is accepted: a finer step cannot take
        the value below that floor, and its estimate already carries it.
        Next to a zero of R, where the value is a cancellation, and at
        height, where the phases s log x lose eps t log q, the floor is
        above EPS_TARGET; the EPS_TARGET rule alone would halve such a
        point down to step 1/1024 without gaining a digit.  The tail rule
        allows for the same floor; a floor that is not finite allows
        nothing, so such a pass halves.

        Each rule compares its figure with its bounds one by one, which
        decides as the comparison with their max() does: only the
        discrepancy's bound can be NaN, and no figure exceeds a NaN bound
        or a NaN max().  A pass that widens forms no R' figures: it is
        judged on R's alone and kept by none."""
        h = self.step
        sums = self.sums
        first = _pass_figures(h, self.half, self.m, self.phase, sums[0])
        _, rel_disc, rel_tail, floor_rel = first
        if not math.isfinite(floor_rel):
            floor_rel = 0.0
        self.passes += 1
        if (rel_tail > floor_rel and rel_tail > 0.25 * rel_disc
                and rel_tail > 0.1 * EPS_TARGET):
            self.half = math.ceil(3.0 * self.half) / 2.0  # 1.5x, a multiple of 1/2
            self.level = -1
            self.prev_disc = None
            return self.passes == _MAX_PASSES
        figures = [first]
        if len(sums) > 1:  # the R' channel of a derivative request
            figures.append(_pass_figures(h, self.half, self.m, self.phase,
                                         sums[1]))
        prev_disc = self.prev_disc
        self.best = (figures, prev_disc)
        rel_err = rel_disc + rel_tail
        if rel_err <= EPS_TARGET or rel_err <= floor_rel:
            return True
        # The h grid is accepted without a confirming halving once the model
        # predicts its error below PRED_TARGET.
        if prev_disc is not None:
            predicted = _predicted(rel_disc, prev_disc[0])
            if predicted is not None and predicted + rel_tail <= PRED_TARGET:
                return True
        if h <= _FINEST_STEP:
            return True
        self.prev_disc = ([rel_disc] if len(figures) == 1
                          else [rel_disc, figures[1][1]])
        self.step = h * 0.5
        self.target += 1
        return self.passes == _MAX_PASSES


def _step_halve(points: list[complex], derivative: bool = False) -> list[_Row]:
    """Step-halve R at every point, in rounds over blocks of points.

    Each pass starts at step 1/4 over the extent of _half_length rounded up
    to a multiple of 1/2; a pass at h/2 adds only the odd nodes to the sums
    at h.  A round groups the points by (crossing, half-length, next level),
    sums that level for each block of the group in one numpy kernel
    (_sum_level), the first round of an extent down to step 1/16, and then
    applies the stopping rules (_Row.judge) at each step its points reach,
    adding each halving to every row of the block: a point that is done
    keeps the pass it stopped on.  A point stops at the latest where its
    discrepancy and tail reach its rounding floor, so a value that cancels
    (next to a zero of R) or whose phases lose eps t log q (at height) takes
    no finer step than its floor allows; far left, the first round sums only
    the residues that reach a double against the largest (see _first_sums).
    A point whose tail is too large widens its extent, regroups under it and
    sums its levels again from the base grid, keeping its own step (the
    model is fitted again on the new extent).  With ``derivative`` every
    level also sums the R' channel from the same exponentials.  Rows of a
    block never mix, so each point gets the bits it gets alone, and the R
    channel the bits it gets without ``derivative``.
    """
    rows = []
    extents: dict[float, tuple[int, float]] = {}  # (crossing, half) per t
    for z in points:
        extent = extents.get(z.imag)
        if extent is None:
            q = default_crossing(z.imag)
            # a multiple of 1/2, so every dyadic grid with step <= 1/4 nests
            extent = extents[z.imag] = (
                q, math.ceil(2.0 * _half_length(z.imag, q)) / 2.0)
        rows.append(_Row(z, *extent))
    pending = rows
    while pending:
        groups: dict[tuple[int, float, int], list[_Row]] = {}
        for row in pending:
            key = (row.q, row.half, row.level + 1)
            if key in groups:
                groups[key].append(row)
            else:
                groups[key] = [row]
        pending = []
        for (q, half, level), group in groups.items():
            base_n = int(4.0 * half)
            nodes = ((base_n << level) if level
                     else (2 * base_n << _FIRST_HALVINGS) + 1)
            size = max(1, BATCH_MAX_NODES // nodes)
            for lo in range(0, len(group), size):
                block = group[lo:lo + size] if len(group) > size else group
                halvings = _sum_level(block, q, base_n, level, derivative,
                                      _FIRST_HALVINGS)
                channel_sums = halvings and [sums for row in block
                                             for sums in row.sums]
                live = block
                for j, parts in enumerate([None, *halvings]):
                    if parts:
                        _add_level(channel_sums, *parts)
                    going = []
                    for row in live:
                        row.level = level + j
                        if row.level < row.target or not row.judge():
                            # a widened row (level -1) starts a new round
                            (going if row.level >= 0 else pending).append(row)
                    live = going
                pending += live
    return rows


def _quadrature(s: complex, q: int, half: float, step: float,
                derivative: bool = False) -> _Row:
    """A _Row holding the sums of one fixed pass at s, on the layout of
    _step_halve: crossing q, extent half a multiple of 1/2, and the base
    grid of step 1/4 followed by the odd nodes of each halving down to the
    dyadic step in [_FINEST_STEP, _BASE_STEP].  Each level is summed by its
    own _sum_level call, apart from the fused first round of _step_halve;
    the tests compare that loop, and r_eval, with this pass."""
    row = _Row(s, q, half)
    row.step = step
    row.target = int(math.log2(_BASE_STEP / step))
    for level in range(row.target + 1):
        _sum_level([row], q, int(4.0 * half), level, derivative, 0)
    return row


def _absolute(log_total: complex | None, rel_err: float):
    """(value, absolute error) from a log of the value and a relative
    error."""
    value = _value_from_log(log_total)
    size = abs(value)
    return value, rel_err * (size if size < 1e300 else 1e300)


def _value_from_log(log_total: complex | None) -> complex:
    if log_total is None:
        return 0.0 + 0.0j
    if log_total.real > 709.0:
        # out of double range; saturate (log_value stays exact)
        return cmath.rect(1.7e308, log_total.imag)
    return cmath.exp(log_total)


def _checked(s) -> complex:
    """s as a point at which R is evaluated: DomainError unless both parts
    are finite (as_complex says which is not) and Im(s) >= 0."""
    z = complex(s)
    if cmath.isfinite(z) and z.imag >= 0.0:
        return z
    z = as_complex(s)
    raise DomainError(f"evaluation requires Im(s) >= 0, got {z}")


def default_crossing(t: float) -> int:
    """q placing the crossing near the integrand saddle sqrt(t/2pi)."""
    return max(0, int(math.floor(math.sqrt(max(t, 0.0) / TWO_PI))))


def _half_length(t: float, q: int) -> float:
    """Half-length at which _step_halve starts at height t and crossing q
    (rounded up to a multiple of 1/2).

    With the crossing at the saddle sqrt(t/2pi) the real part of the log
    integrand falls like -2 pi v^2 along the line (-pi v^2 from e^{i pi x^2},
    -pi v^2 from the phase of x^{-s}), the same hump at every height; so the
    extent is the Gaussian's _MIN_HALF plus the crossing's offset from the
    saddle along the line and one unit of slack.  Where the hump is wider
    or shifted (far left at small t) the tail rule of _Row.judge widens it.
    """
    saddle = math.sqrt(max(t, 0.0) / TWO_PI)
    return _MIN_HALF + math.sqrt(2.0) * abs(q + 0.5 - saddle) + 1.0


def _evaluate(pairs: list[tuple[float, float]],
              derivative: bool) -> list[EvaluationResult]:
    """Results for (sigma, t) pairs from one step-halving run; with
    ``derivative`` R'(s) comes from the R' channel of each accepted grid,
    and the value is computed the same way either way."""
    out = []
    for row in _step_halve([complex(sigma, t) for sigma, t in pairs],
                           derivative):
        # No raise here: at a zero of R the value is pure cancellation and
        # the relative figure is meaningless.  The absolute error_estimate
        # is honest and downstream integrality guards fail loudly on bad
        # phases.
        figures, prev_disc = row.best
        log_total, rel_est = _estimate(figures[0],
                                       prev_disc and prev_disc[0])
        value, err = _absolute(log_total, rel_est)
        if not derivative:
            # positional fields: EvaluationResult(value, method,
            # error_estimate, log_value), a third of the keyword call's cost
            out.append(EvaluationResult(value, "quadrature", err, log_total))
            continue
        d_log, d_rel = _estimate(figures[1], prev_disc and prev_disc[1])
        d_value, d_error = _absolute(d_log, d_rel)
        log_ratio = None
        if log_total is not None:
            log_ratio = 0.0j if d_log is None else cmath.exp(d_log - log_total)
        out.append(EvaluationResult(value, "quadrature", err, log_total,
                                    d_value, d_error, log_ratio))
    return out


class _CacheInfo(NamedTuple):
    """cache_info() of _RCache, as functools.lru_cache reports it."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class _RCache:
    """The one bounded cache of R results, keyed by (sigma, t, derivative)
    and evicting the least recently used entry.

    Called as ``_r_eval_cached(sigma, t, derivative)`` it serves one point
    (r_eval, r_derivative); ``keyed`` serves a list of keys
    (sigma, t, derivative) (r_eval_many).  Misses of one call are
    step-halved together.  Each key is served only by its own entry: a
    value request at a point held only as a derivative entry computes a
    value entry.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._store: OrderedDict = OrderedDict()
        self._hits = self._misses = 0

    def _fill(self, pairs: list[tuple[float, float]],
              derivative: bool) -> list[EvaluationResult]:
        """Compute and store the results of distinct missing pairs."""
        self._misses += len(pairs)
        results = _evaluate(pairs, derivative)
        store = self._store
        for (sigma, t), res in zip(pairs, results):
            store[(sigma, t, derivative)] = res
            if len(store) > self.maxsize:
                store.popitem(last=False)
        return results

    def __call__(self, sigma: float, t: float,
                 derivative: bool) -> EvaluationResult:
        return self.keyed([(sigma, t, derivative)], derivative)[0]

    def keyed(self, keys: list[tuple[float, float, bool]],
              derivative: bool) -> list[EvaluationResult]:
        """The results for keys (sigma, t, derivative), in order, every key
        with the ``derivative`` given; a hit moves its entry to the most
        recent end, and the misses are computed together (_fill)."""
        store = self._store
        get, to_end = store.get, store.move_to_end
        out, missing = [], {}  # missing: the distinct pairs, in order
        for key in keys:
            res = get(key)
            if res is None:
                missing[key[:2]] = None
            else:
                to_end(key)
            out.append(res)
        self._hits += len(keys) - len(missing)
        if not missing:
            return out
        computed = dict(zip(missing, self._fill(list(missing), derivative)))
        return [computed[key[:2]] if res is None else res
                for key, res in zip(keys, out)]

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self.maxsize,
                         len(self._store))

    def cache_clear(self) -> None:
        self._store.clear()
        self._hits = self._misses = 0


# r_eval and r_derivative call the cache through the module attribute
# _r_eval_cached; r_eval_many uses _R_CACHE, the same object.
_R_CACHE = _r_eval_cached = _RCache(maxsize=400_000)


def r_eval(s) -> EvaluationResult:
    """R(s) with automatic crossing choice and step/length refinement.

    The crossing is q = floor(sqrt(t/2pi)); the step is halved from 1/4 (and
    the half-length widened while the tails dominate) until two successive
    grids agree to EPS_TARGET relative (or to the rounding floor of the
    pass, whichever is larger), or until the trapezoid model, fitted to the
    discrepancies of the last two grids, predicts the error of the finer one
    below PRED_TARGET.  error_estimate is that prediction (the discrepancy
    while the grids are pre-asymptotic) plus the tails and a rounding
    floor.  Zero counting and isolation sample R through this route on
    every edge they walk.  Above counting.CURVE_T0 the left side of the
    counting contour follows curve_sigma, where the argument of R comes from
    the asymptotic surrogate r_asymptotic; this route gives R at the side's
    two ends only, where it checks the surrogate.
    """
    z = _checked(s)
    return _r_eval_cached(z.real, z.imag, False)


def r_eval_many(points, derivative: bool = False) -> list[EvaluationResult]:
    """r_eval at each point, in order; with ``derivative``, r_derivative's
    results, which also carry R'/R as ``log_derivative``.

    The points missing from the cache are step-halved together
    (_step_halve): points that share a crossing and an extent, such as the
    samples of a horizontal contour edge, share every integrand row, so one
    numpy kernel serves the block.  Every result has the same bits as
    r_eval (or r_derivative) would give, and lands in the same cache.
    """
    return _R_CACHE.keyed([(z.real, z.imag, derivative)
                           for z in map(_checked, points)], derivative)


def r_value(s) -> complex:
    """Convenience accessor: the complex value of r_eval(s)."""
    return r_eval(s).value


def values_at(f, points) -> list:
    """[f(z) for z in points], in one r_eval_many call when f is r_value."""
    if f is r_value:
        return [res.value for res in r_eval_many(points)]
    return [f(z) for z in points]


def logs_at(f, points) -> list[complex]:
    """A log of f at each point: the log_value of one r_eval_many call when
    f is r_value (finite where the value saturates), else cmath.log(f(z)).
    ZeroOnPathError at a point where f is exactly 0."""
    if f is r_value:
        logs = [res.log_value for res in r_eval_many(points)]
    else:
        logs = [None if v == 0 else cmath.log(v) for v in map(f, points)]
    if None in logs:
        raise ZeroOnPathError("exact zero at a sample node",
                              where=points[logs.index(None)])
    return logs


# Caches built from R values in modules that import this one (counting's
# base counts and edge walks), emptied with the values they come from.
_DERIVED_CACHES: list[dict] = []


def cleared_with_r_values(cache: dict) -> dict:
    """Register ``cache`` to be emptied by r_eval_cache_clear; returns it."""
    _DERIVED_CACHES.append(cache)
    return cache


def r_eval_cache_clear() -> None:
    """Drop every cached R value, the memoised integrand rows, the
    memoised log n rows of the residues and every cache registered by
    cleared_with_r_values."""
    _R_CACHE.cache_clear()
    _lattice_rows.cache_clear()
    _log_n.cache_clear()
    for cache in _DERIVED_CACHES:
        cache.clear()


SURROGATE_T_MIN = 50.0  # lowest height at which r_asymptotic is admissible


def curve_sigma(t: float) -> float:
    """1 - t^{2/5} log t: r_asymptotic is admissible left of this abscissa
    at height t >= SURROGATE_T_MIN, and the counting contour above
    counting.CURVE_T0 runs along it."""
    return 1.0 - t ** 0.4 * math.log(t)


def r_asymptotic(s) -> EvaluationResult:
    """Left-region surrogate for R(s):

        -chi(s) eta^{s-1} e^{-i pi eta^2} sqrt(2) e^{3 i pi/8}
            sin(pi eta) / (2 cos(2 pi eta)),

    admissible for t >= SURROGATE_T_MIN and sigma <= 1 - t^{2/5} log t.  All
    factors are combined in the log domain (the value can exceed the double
    range; ``log_value`` is then the meaningful field).
    """
    z = as_complex(s)
    t = z.imag
    if t < SURROGATE_T_MIN:
        raise RegionError(f"surrogate requires t >= {SURROGATE_T_MIN}, got {t}")
    sigma_max = curve_sigma(t)
    if z.real > sigma_max:
        raise RegionError(
            f"surrogate requires sigma <= {sigma_max:.3f} at t = {t}, got {z.real}"
        )
    ev = eta(z)
    log_eta = cmath.log(ev)  # principal; Re(ev) > 0 in the region
    log_sin = log_sin_pi(ev)  # Im(eta) > 0 in the region
    # 2 cos(2 pi eta) = e^{-2 i pi eta} (1 + e^{4 i pi eta})
    log_cos2 = -2j * math.pi * ev + cmath.log(1.0 + cmath.exp(4j * math.pi * ev))
    if log_cos2.real - math.log(2.0) < math.log(1e-8):
        raise NearZeroDenominatorError(f"|cos 2 pi eta| below tolerance at s = {z}")
    log_total = (
        log_chi(z)
        + (z - 1.0) * log_eta
        - 1j * math.pi * ev * ev
        + 0.5 * math.log(2.0)
        + 3j * math.pi / 8.0
        + log_sin
        - log_cos2
    ) + 1j * math.pi  # overall minus sign
    return EvaluationResult(
        value=_value_from_log(log_total), method="asymptotic",
        error_estimate=0.0, log_value=log_total,
    )


def r_derivative(s) -> complex:
    """R'(s) from the grid that r_eval accepts at s.

    R(s) is step-halved exactly as by r_eval(s), and every level also sums
    R' from the same node exponentials, each weighted by -log x (see
    _step_halve), so its value fields have r_eval's bits; the result is
    cached as its own entry, apart from r_eval's.  That entry's
    ``derivative_error`` (r_eval_many(..., derivative=True)) is formed from
    R''s own level discrepancies as r_eval's estimate is from R's.
    """
    z = _checked(s)
    return _r_eval_cached(z.real, z.imag, True).derivative


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta reference
# ---------------------------------------------------------------------------

_ZETA_BERNOULLI_TERMS = 10


def zeta_reference(s) -> complex:
    """Independent Euler-Maclaurin evaluation of zeta(s), s != 1.

    Shift point N = max(20, 4 ceil(|t|/2pi)) with 10 Bernoulli corrections;
    good to ~1e-12 relative for sigma >= -2 and |t| <= 1e4.
    """
    z = as_complex(s)
    if z == 1.0:
        raise PoleOfGammaError("zeta pole at s = 1")
    big_n = max(20, 4 * int(math.ceil(abs(z.imag) / TWO_PI)))
    n = np.arange(1, big_n, dtype=float)
    total = complex(np.sum(np.exp(-z * np.log(n))))
    ninv = 1.0 / big_n
    npow = cmath.exp(-z * math.log(big_n))  # N^{-s}
    total += big_n * npow / (z - 1.0) + 0.5 * npow
    poch = z  # s (s+1) ... running product
    scale = npow * ninv  # N^{-s-1}
    fact = 2.0
    for k in range(1, _ZETA_BERNOULLI_TERMS + 1):
        total += _BERNOULLI_2K[k - 1] / fact * poch * scale
        poch *= (z + (2 * k - 1)) * (z + 2 * k)
        scale *= ninv * ninv
        fact *= (2 * k + 1) * (2 * k + 2)
    return total


def zeta_from_r(s) -> complex:
    """zeta reconstructed from the auxiliary function:

        zeta(s) = R(s) + chi(s) * conj(R(1 - conj(s))).

    This identity is the principal correctness oracle of the evaluator.
    For Im(s) < 0 it is applied at the conjugate point (zeta commutes with
    conjugation; R itself is not conjugate-symmetric).
    """
    z = as_complex(s)
    if z == 1.0:
        raise PoleOfGammaError("zeta pole at s = 1")
    if z.imag < 0.0:
        return zeta_from_r(z.conjugate()).conjugate()
    # Im(1 - conj(z)) = Im(z) >= 0, so both evaluations stay in the domain;
    # the two points share t, so they are step-halved as one block.
    first, second = r_eval_many((z, 1.0 - z.conjugate()))
    return first.value + chi(z) * second.value.conjugate()
