"""Argument-principle machinery: adaptive argument variation along any
path with a ``point(u)`` method, the Backlund argument bound with the log
modulus bound of the auxiliary function behind the top-edge certificate,
zero counting on rectangles with the main-term decomposition

    N(T) ~ T/(4 pi) log(T/(2 pi)) - T/(4 pi) - (1/2) sqrt(T/(2 pi)),

and the least-squares fit of its square-root coefficient.

This is the one winding engine: ``_rectangle_winding`` sums the edge
variations of ``arg_variation`` around a rectangle, and ``integer_winding``
is the one integrality guard, also used by the circle certificates of
``zeros``.  Every rectangle is a ``Box``, whose constructor is the one
rectangle check: the strips, the base box, ``adequate_box_left``'s strips
and every isolation piece of ``zeros`` are counted as Boxes, and
``rectangle_count`` returns the Box it realised.
Every contour edge (the sides of a Box and the curve contour's horizontal
edges) is an ``AxisEdge`` that carries its lattice, k/m between its ends,
and runs upward; a rectangle counts its top and left edges negatively
(_EDGE_SIGNS).  One rule sets m (_lattice_m): it reads the edge's height
and, on a vertical edge, its line's sigma, and the edge's length only
where a floor of 7 intervals binds.  Edges of a line that share m share
their samples bit for bit, so a child box reads most of its edges from
its parent's cache and a cut is computed once.  For R each lattice
interval of a line is also walked once per R-cache lifetime: _edge_walk
keeps one record of each walk, its ArgTrace, per line and lattice
(_LINE_WALKS).  An edge met again reads its variation and its moments of
order 0 to 3 (ArgTrace.moments) there, and an edge inside a walked one on
the same lattice, such as a split child's side, is built from that walk
(_inner_walk): such a side walks only its interval at the cut, so where
the sides keep their parent's lattice, as most do, a split's children
walk only the cut.
r_eval_cache_clear empties these walks and the base counts with the R
values they come from.  The moments around a rectangle (_rectangle_sums)
give the power sums from which zeros places the zeros of a small piece
(zeros._power_sum_roots).
``residual_table`` is the one place where N(T) is assembled.  Up to
CURVE_T0 it counts on desk-scale rectangles [box_left, 2] x [t_lo, t_hi]:
the base count below DESK_T0 plus one strip per height, the region further
left certified empty by an adjacent strip of winding zero.  Above CURVE_T0
it counts on the paper's contour, whose left side follows the curve
sigma = 1 - t^{2/5} log t where R is close to the asymptotic surrogate S;
only its top edge is sampled, so a height costs O(T^{2/5} log^2 T) values
of R instead of O(T log T).  That edge is walked (_walk_edge) on a subset
of its line's lattice, at the step its phase needs, read from R'/R: 958
values of R at T = 10^4 and 5854 at 10^7, against 3070 and 91 051 at the
seed rate, each requested once (the strips below CURVE_T0 take 380 of
each).  Three sampled facts carry that contour, each checked where a row
already has the values: |R/S - 1| < 1 along the curve (|u| <= U_LIMIT at
its ends), |R - 1| < 1 on sigma = 2 (below RIGHT_LIMIT at each height)
and the continuity of Im log S along the curve (tested on a grid of step
1/4 to T = 10^4).  Each top edge's variation is
checked against ``backlund_bound``, the one Backlund formula, which
acceptance criterion 4 also validates.  Only a top edge moves to escape a
zero on a contour, by the t-steps of the constant PERTURB_STEP
(_on_ladder); a zero on a side or on a bottom edge, the curve contour's
included, raises ContourZeroError.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass, field, replace

from .auxiliary import (
    cleared_with_r_values,
    curve_sigma,
    logs_at,
    r_asymptotic,
    r_eval_many,
    r_value,
)
from .errors import (
    BacklundError,
    ContourZeroError,
    DomainError,
    NonIntegerWindingError,
    RegionError,
    ZeroOnPathError,
)
from .special_functions import TWO_PI

DESK_T0 = 10.0            # desk-scale counting base height
# Heights above CURVE_T0 are counted on the curve contour; its left side
# needs r_asymptotic, so CURVE_T0 >= SURROGATE_T_MIN.
CURVE_T0 = 100.0
U_LIMIT = 0.5      # largest |R/S - 1| accepted at an end of the curve side
RIGHT_LIMIT = 0.75  # |R(2 + it) - 1| must stay below this on sigma = 2
PHASE_LIMIT = 0.5 * math.pi
MAX_REFINE_DEPTH = 24
MAX_WIDENINGS = 4
WINDING_GUARD = 0.1
# log|f| more than log(1/DETECT_TOL) below the line through two nearby nodes
# flags a zero on the path (_check_dip).  Kept well under PERTURB_STEP so
# that a retry actually escapes the detection radius.
DETECT_TOL = 1e-6
_LOG_DETECT_TOL = math.log(DETECT_TOL)
PERTURB_STEP = 1e-3  # step of rectangle_count's contour perturbation ladder
# The walk of a curve contour's horizontal edge (_walk_edge): the length of
# its first round's steps, and the largest predicted phase step (rad) and
# gap between the measured step and its trapezoid prediction it leaves
# unsplit.
WALK_STEP = 2.0
WALK_PHASE = 0.5
WALK_BRANCH = 0.1


@dataclass(frozen=True)
class PathSegment:
    """Oriented straight segment from ``start`` to ``end``."""

    start: complex
    end: complex

    def __post_init__(self):
        if self.start == self.end:
            raise DomainError("degenerate straight segment")

    def point(self, u: float) -> complex:
        """Point at parameter u in [0, 1] from start to end."""
        return self.start + u * (self.end - self.start)


@dataclass(frozen=True)
class AxisEdge:
    """Edge of a rectangle on the line t = ``level`` (horizontal) or
    sigma = ``level`` (vertical), from ``start`` up to ``end`` of the moving
    coordinate x, its parameter: a point is complex(x, level) or
    complex(level, x).  DomainError unless start < end; a contour that
    takes an edge the other way counts its variation negatively
    (_EDGE_SIGNS).  It carries the lattice of its line of density ``m``
    (_lattice_m): its lattice points, seed_params(), are start, then k/m
    for k in ``ks``, then end.  k/m is correctly rounded, so every edge of
    the line with the same m samples the same bits, as does a midpoint
    0.5 (x1 + x2)."""

    level: float
    start: float
    end: float
    vertical: bool
    m: int
    ks: range = field(init=False, repr=False)

    def __post_init__(self):
        lo, hi, m = self.start, self.end, self.m
        if not lo < hi:
            raise DomainError(f"axis-parallel edge from {lo} to {hi} does "
                              f"not run upward")
        # lo * m and hi * m are rounded: step in to the k with lo < k/m < hi
        first, last = math.floor(lo * m), math.ceil(hi * m)
        while not lo < first / m:
            first += 1
        while not last / m < hi:
            last -= 1
        object.__setattr__(self, "ks", range(first, last + 1))

    def point(self, x: float) -> complex:
        if self.vertical:
            return complex(self.level, x)
        return complex(x, self.level)

    def seed_params(self) -> list[float]:
        """Every lattice point, from start to end."""
        m = self.m
        return [self.start, *[k / m for k in self.ks], self.end]


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle [sigma_lo, sigma_hi] x [t_lo, t_hi], the one
    rectangle type: counting winds around it and zeros splits it.
    DomainError ("degenerate box ...") unless its sides are finite, with
    sigma_lo < sigma_hi and t_lo < t_hi."""

    sigma_lo: float
    sigma_hi: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        sides = (self.sigma_lo, self.sigma_hi, self.t_lo, self.t_hi)
        if not (self.sigma_lo < self.sigma_hi and self.t_lo < self.t_hi
                and all(map(math.isfinite, sides))):
            raise DomainError(f"degenerate box {self}")

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.sigma_lo + self.sigma_hi),
                       0.5 * (self.t_lo + self.t_hi))

    @property
    def width(self) -> float:
        return self.sigma_hi - self.sigma_lo

    @property
    def height(self) -> float:
        return self.t_hi - self.t_lo

    @property
    def max_side(self) -> float:
        return max(self.width, self.height)

    def split(self, offset: float = 0.0) -> tuple["Box", "Box"]:
        """Bisect across the longer side (ties split vertically, i.e. cut
        along a horizontal line); ``offset`` nudges the cut as a fraction of
        the split side."""
        if self.width > self.height:
            mid = 0.5 * (self.sigma_lo + self.sigma_hi) + offset * self.width
            return (Box(self.sigma_lo, mid, self.t_lo, self.t_hi),
                    Box(mid, self.sigma_hi, self.t_lo, self.t_hi))
        mid = 0.5 * (self.t_lo + self.t_hi) + offset * self.height
        return (Box(self.sigma_lo, self.sigma_hi, self.t_lo, mid),
                Box(self.sigma_lo, self.sigma_hi, mid, self.t_hi))

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return (self.sigma_lo - margin <= z.real <= self.sigma_hi + margin
                and self.t_lo - margin <= z.imag <= self.t_hi + margin)

    def dilated(self, factor: float) -> "Box":
        cs, ct = self.center.real, self.center.imag
        hw, hh = 0.5 * self.width * factor, 0.5 * self.height * factor
        return Box(cs - hw, cs + hw, ct - hh, ct + hh)


def unit_params(seeds: int) -> list[float]:
    """k / (seeds - 1) for k = 0 .. seeds - 1: equispaced seeds on [0, 1]."""
    return [k / (seeds - 1) for k in range(seeds)]


@dataclass(frozen=True)
class ArgTrace:
    """Realised argument of f along a path: the sampled nodes, between which
    each nearest-branch phase step is below pi/2 by construction, the total
    variation, the sum of those steps, and the path's moments about its
    first node a, moments[k] the integral of (z - a)^k d log f for
    k = 0 .. 3.  moments[0] is log|f| at the last node less at the first,
    plus i times the total variation; the others are summed over the nodes
    as

        sum_i (1/2) ((z_i - a)^k + (z_{i+1} - a)^k)
                    (log|f|_{i+1} - log|f|_i + i dphi_i),

    dphi_i the nearest-branch phase step.  Around a closed contour the
    moments of its paths, moved to one point c (_rectangle_sums), sum to
    2 pi i times the power sums of (rho - c)^k over the zeros rho inside
    (less those of the poles), up to the quadrature error of the nodes.
    Moments about the path's own first point keep every term as small as
    the path; about 0 they would cancel badly at z ~ 10^6 i.

    ``params`` and ``logs`` hold each node's parameter and log of f, and
    steps[i] is log f at node i + 1 less at node i with dphi_i as its
    imaginary part: _edge_walk builds a walk of R along an edge from these
    of a walk that contains it."""

    nodes: tuple[complex, ...]
    total_variation: float
    moments: tuple[complex, complex, complex, complex]
    params: tuple[float, ...]
    logs: tuple[complex, ...]
    steps: tuple[complex, ...]


def _check_dip(point_fn, u, log_f, ua, log_a, ub, log_b) -> None:
    """The one zero-on-path rule: ZeroOnPathError when log|f| at parameter u
    falls more than log(1/DETECT_TOL) below the line through log|f| at ua
    and ub (the level of log|f| at ua when ua == ub).  On steady
    exponential growth log|f| is linear along the path, so no node dips."""
    slope = 0.0 if ua == ub else (log_b.real - log_a.real) / (ub - ua)
    line = log_a.real + slope * (u - ua)
    if log_f.real < line + _LOG_DETECT_TOL:
        raise ZeroOnPathError(
            f"log|f| = {log_f.real:.3f} more than log(1/{DETECT_TOL}) below "
            f"{line:.3f}, the line through its neighbours",
            where=point_fn(u),
        )


def _check_seeds(point_fn, params, logs, seeds) -> None:
    """_check_dip at each seed index of ``seeds``, in order, against its
    two nearest seeds: an interior seed's neighbours, the next two of an end
    seed (its one neighbour, twice, on a two-node path).  The test is
    inline, and _check_dip is called only to raise."""
    last = len(params) - 1
    for k in seeds:
        a = k - 1 if k else min(2, last)
        b = k + 1 if k < last else max(last - 2, 0)
        ua, ub, la, lb = params[a], params[b], logs[a].real, logs[b].real
        slope = 0.0 if ua == ub else (lb - la) / (ub - ua)
        if logs[k].real < la + slope * (params[k] - ua) + _LOG_DETECT_TOL:
            _check_dip(point_fn, params[k], logs[k], ua, logs[a], ub, logs[b])


def _walked(f, point_fn, params, points, logs):
    """The nodes of a walk through the seeds ``params``, whose points and
    logs of f are given: lists of their parameters, points and logs, and of
    the steps between them (ArgTrace).  Each seed interval whose
    nearest-branch step of Im log f is not below pi/2 is bisected at
    0.5 (u1 + u2), depth first and left half first, each midpoint checked
    against its ends (_check_dip); ZeroOnPathError when MAX_REFINE_DEPTH
    levels cannot satisfy the contract."""
    us, zs, ls, steps = [params[0]], [points[0]], [logs[0]], []
    for i in range(len(params) - 1):
        l1, l2 = logs[i], logs[i + 1]
        delta = math.remainder(l2.imag - l1.imag, TWO_PI)
        if abs(delta) < PHASE_LIMIT:
            us.append(params[i + 1])
            zs.append(points[i + 1])
            ls.append(l2)
            steps.append(complex(l2.real - l1.real, delta))
            continue
        # from a list rather than a recursive closure, which would hold the
        # walk in a reference cycle
        todo = [(params[i], l1, params[i + 1], points[i + 1], l2, 0)]
        while todo:
            p1, l1, p2, z2, l2, depth = todo.pop()
            delta = math.remainder(l2.imag - l1.imag, TWO_PI)
            if abs(delta) < PHASE_LIMIT:
                us.append(p2)
                zs.append(z2)
                ls.append(l2)
                steps.append(complex(l2.real - l1.real, delta))
                continue
            pm = 0.5 * (p1 + p2)
            if depth >= MAX_REFINE_DEPTH:
                raise ZeroOnPathError(
                    f"phase step {delta:.3f} rad not resolvable near "
                    f"parameter {pm:.6g}; zero on or very near the path",
                    where=point_fn(pm),
                )
            zm = point_fn(pm)
            lm, = logs_at(f, [zm])
            _check_dip(point_fn, pm, lm, p1, l1, p2, l2)
            todo.append((pm, lm, p2, z2, l2, depth + 1))
            todo.append((p1, l1, pm, zm, lm, depth + 1))
    return us, zs, ls, steps


def _trace(params, nodes, logs, steps) -> ArgTrace:
    """The ArgTrace of a walk's nodes: the unwrapped phase summed step by
    step from the first principal one, and twice the moments k = 1 .. 3
    about the first node, summed node by node from the powers of
    z - anchor at each step's two ends (a, b)."""
    first = phase = math.remainder(logs[0].imag, TWO_PI)
    anchor = nodes[0]
    m1 = m2 = m3 = a1 = a2 = a3 = 0j
    for z, step in zip(itertools.islice(nodes, 1, None), steps):
        phase += step.imag
        b1 = z - anchor
        b2 = b1 * b1
        b3 = b2 * b1
        m1 += (a1 + b1) * step
        m2 += (a2 + b2) * step
        m3 += (a3 + b3) * step
        a1, a2, a3 = b1, b2, b3
    variation = phase - first
    return ArgTrace(tuple(nodes), variation,
                    (complex(logs[-1].real - logs[0].real, variation),
                     0.5 * m1, 0.5 * m2, 0.5 * m3),
                    tuple(params), tuple(logs), tuple(steps))


def arg_variation(f, path, params) -> ArgTrace:
    """Unwrapped argument change of f along a path, any object whose
    ``point(u)`` gives the point at parameter u, walked through the seed
    parameters ``params`` in the order given: unit_params(n) for a
    PathSegment or a circle, or the lattice of an AxisEdge's line
    (AxisEdge.seed_params).  _walk_edge walks a subset of such a lattice by
    the same steps (_check_seeds, _walked, _trace) from the logs it holds.

    Reads a log of f (logs_at) at the seeds, then bisects parameter
    intervals at 0.5 (u1 + u2) until each consecutive nearest-branch step
    of Im log f is below pi/2 (_walked).  DomainError for fewer than two
    seeds.  Raises ZeroOnPathError at an exact zero of f at a node, where a
    node dips (_check_dip: a seed against its two nearest nodes, a
    bisection midpoint against its ends; no modulus is compared, so the
    test holds where |f| saturates) or when MAX_REFINE_DEPTH bisection
    levels cannot satisfy the phase contract.  Each point is formed once.
    """
    point_fn = path.point
    if len(params) < 2:
        raise DomainError(f"arg_variation needs two seeds, got {len(params)}")
    points = [point_fn(u) for u in params]
    logs = logs_at(f, points)
    _check_seeds(point_fn, params, logs, range(len(params)))
    return _trace(*_walked(f, point_fn, params, points, logs))


def integer_winding(raw: float, where: str = "") -> int:
    """The integrality guard: ``raw`` (a winding before rounding) rounded
    to the nearest integer; NonIntegerWindingError when it lies farther
    than WINDING_GUARD from one.  ``where`` is appended to the message."""
    nearest = round(raw)
    if abs(raw - nearest) > WINDING_GUARD:
        raise NonIntegerWindingError(
            f"winding value {raw:.4f} too far from an integer{where}"
        )
    return int(nearest)


def backlund_bound(log_m: float, log_f_center: float, radius: float,
                   reach: float) -> float:
    """Upper bound (in winding turns) for |Re (1/2πi) ∫ f'/f| along a
    segment from the centre a of a disc of radius ``radius`` on which
    log|f| <= ``log_m``, with log|f(a)| = ``log_f_center`` and ``reach`` the
    segment's farthest distance from a:

        (1/2) (log M - log|f(a)|) / log(radius/reach).

    Logs are taken because M may lie beyond the double range.  The same
    bound applies with ``reach`` the maximum of |z - a| over any segment of
    a line through the centre.  DomainError unless both logs are finite,
    log|f(a)| <= log M and 0 < reach < radius.
    """
    if not (math.isfinite(log_m) and math.isfinite(log_f_center)):
        raise DomainError("log_m and log_f_center must be finite")
    if log_f_center > log_m:
        raise DomainError("f at the centre exceeds the disc supremum")
    if not 0.0 < reach < radius:
        raise DomainError("need 0 < reach < radius")
    return 0.5 * (log_m - log_f_center) / math.log(radius / reach)


def log_modulus_bound(sigma: float, t: float) -> float:
    """log of the explicit upper bound for |R(sigma + i t)|, t > 16 pi:

        sqrt(t/2pi)                                     for sigma > 0,
        19 t / (2pi)^{1-sigma} ((1-sigma)^2 + t^2)^{1/4 - sigma/2}   otherwise.

    The log form is needed because the bound exceeds the double range on
    the large discs used by the top-edge certificate.
    """
    if t <= 16.0 * math.pi:
        raise DomainError(f"modulus bound requires t > 16 pi, got {t}")
    if sigma > 0.0:
        return 0.5 * math.log(t / TWO_PI)
    return (
        math.log(19.0 * t)
        - (1.0 - sigma) * math.log(TWO_PI)
        + (0.25 - 0.5 * sigma) * math.log((1.0 - sigma) ** 2 + t * t)
    )


def top_edge_certificate(big_t: float, box_left: float) -> float | None:
    """Backlund bound (in turns) for the argument variation of R along the
    top edge [box_left + iT, 2 + iT], from backlund_bound on a disc about
    2 + iT; None when no disc reaches the edge above t = 16 pi.

    The disc's radius is 2 + 2 T^{2/5} log T, or T - 16 pi - 1 where that
    disc would dip to t <= 16 pi (below T of about 115.9).  The disc
    supremum M = exp(c T^{2/5} log^2 T) is far beyond the double range, so
    the bound is formed from logs.  The modulus bound grows with t, and for
    t > 16 pi it falls as sigma rises on sigma <= 0 and is smaller still for
    sigma > 0, so over the disc it is largest at its leftmost top point,
    2 - radius + i(T + radius).
    """
    radius = 2.0 + 2.0 * big_t ** 0.4 * math.log(big_t)
    if big_t - radius <= 16.0 * math.pi:
        radius = big_t - 16.0 * math.pi - 1.0
    reach = 2.0 - box_left
    if reach >= radius:
        return None
    log_m = log_modulus_bound(2.0 - radius, big_t + radius)
    # |R| > 1/4 at the centre 2 + iT
    return backlund_bound(log_m, math.log(0.25), radius, reach)


def main_term(big_t: float) -> tuple[float, float]:
    """Smooth and square-root components of the counting main term.

    Returns (T/4pi log(T/2pi) - T/4pi, (1/2) sqrt(T/2pi)); the full main
    value is their difference.
    """
    if big_t <= 0.0:
        raise DomainError(f"main term requires T > 0, got {big_t}")
    smooth = big_t / (2.0 * TWO_PI) * math.log(big_t / TWO_PI) - big_t / (2.0 * TWO_PI)
    return smooth, 0.5 * math.sqrt(big_t / TWO_PI)


@dataclass(frozen=True)
class CountResult:
    """Zero count up to height big_t with the main-term decomposition.

    count      -- N(big_t) as residual_table assembles it: the base count
                  below DESK_T0 plus the windings of the stacked strips, and
                  above CURVE_T0 the winding of the curve contour
    main_value -- smooth_term - sqrt_term
    residual   -- count - main_value
    top_bound  -- Backlund bound (turns) on the argument variation along the
                  curve contour's top edge, from top_edge_certificate; None
                  for a strip row
    window     -- (t_lo, t_hi) of the strip rectangle_count evaluated for
                  this row, or (t0, T) of the curve contour above CURVE_T0,
                  after zero-on-contour perturbation
    top_turns  -- measured variation (turns) along the curve contour's top
                  edge, from sigma = 2 to the curve, checked against
                  top_bound; None for a strip row
    """

    big_t: float
    count: int
    main_value: float
    sqrt_term: float
    residual: float
    top_bound: float | None = None
    window: tuple[float, float] = (0.0, 0.0)
    top_turns: float | None = None

    @property
    def smooth_term(self) -> float:
        return self.main_value + self.sqrt_term


def sqrt_fit(results: list[CountResult]) -> tuple[float, float]:
    """Least-squares fit of N - smooth_term against sqrt(T/2pi) with an
    intercept: returns (coefficient, intercept), the coefficient being the
    counting formula's -1/2.  Both are nan for fewer than two heights."""
    x = [math.sqrt(r.big_t / TWO_PI) for r in results]
    y = [r.count - r.smooth_term for r in results]
    n = len(x)
    sx, sy = sum(x), sum(y)
    sxx, sxy = sum(a * a for a in x), sum(a * b for a, b in zip(x, y))
    denom = n * sxx - sx * sx
    if not denom:
        return float("nan"), float("nan")
    slope = (n * sxy - sx * sy) / denom
    return slope, (sy - slope * sx) / n


def _lattice_m(t_level: float, length: float,
               sigma: float | None = None) -> int:
    """The one lattice rule: the density m of an AxisEdge of this length
    on its line, the lattice k/m that keeps expected phase steps of R well
    under pi/2; the curve contour's horizontal edges sample a subset of it
    (_walk_edge).  m = max(ceil(rate / 1.2), ceil(7 / length)) states the
    two guarantees the walks rely on: a spacing never coarser than
    1.2 / rate, over which R's phase moves by about 1.2 |R'/R| / rate (the
    trend _zero_on_cut assumes), and at least 7 intervals on every edge
    (its window argument).  Only that floor reads the length, so edges of a
    line longer than 7 / ceil(rate / 1.2) share m.

    A horizontal edge (``sigma`` None) takes the rate (1/2) log(t/2pi) +
    3.5: it crosses the zeros and picks up the chi-argument drift.  A
    vertical edge takes the rate of its line sigma, each piece above the
    largest |R'/R| measured on it, over 801 points of t in [T - 100, T] at
    T = 149, 500 and 10^4, and of [10^6, 10^6 + 20]:

    - sigma >= 2: 1.0, where R stays near 1 (|R'/R| at most 0.50, 0.43,
      0.42 and 0.43 on sigma = 2);
    - sigma <= -6: (1/2) log(t/2pi) + 0.5 (2.08, 2.69, 4.19 and 6.49), as
      |R'/R| is about (1/2) log(t/2pi) far left (at most 1.66, 2.40, 3.79
      and 6.02 on sigma = -100, -30, -12 and -6);
    - in between: (1/2) log(t/2pi) + 1.5, where the zeros and the cut
      scans are.

    So |R'/R| h, h = 1/m <= 1.2 / rate the spacing, stays under the 1.2 a
    step that _zero_on_cut assumes on these lines too: at most 1.00 at
    h = 1/m (sigma = -100 at 10^6, m = 6) and 1.11 at h = 1.2 / rate."""
    log_t = 0.5 * math.log(max(t_level, 7.0) / TWO_PI)
    if sigma is None:
        rate = log_t + 3.5
    elif sigma >= 2.0:
        rate = 1.0
    elif sigma <= -6.0:
        rate = log_t + 0.5
    else:
        rate = log_t + 1.5
    return max(math.ceil(rate / 1.2), math.ceil(7.0 / length))


def _rectangle_edges(box: Box) -> dict[str, AxisEdge]:
    """The AxisEdges of a box, keyed "bottom", "right", "top", "left" in
    counterclockwise order, each running upward on the lattice of
    _lattice_m.  Two boxes that share a side sample it on the same
    lattice: m of a horizontal edge depends on its line, that of a
    vertical edge on its line and the box's top, and either on its length
    only below the 7-interval floor."""
    lo, hi, t_lo, t_hi = box.sigma_lo, box.sigma_hi, box.t_lo, box.t_hi
    width, height = box.width, box.height
    return {
        "bottom": AxisEdge(t_lo, lo, hi, False, _lattice_m(t_lo, width)),
        "right": AxisEdge(hi, t_lo, t_hi, True, _lattice_m(t_hi, height, hi)),
        "top": AxisEdge(t_hi, lo, hi, False, _lattice_m(t_hi, width)),
        "left": AxisEdge(lo, t_lo, t_hi, True, _lattice_m(t_hi, height, lo)),
    }


# The sign of each edge of _rectangle_edges in the counterclockwise sum:
# the top and left edges run against the contour.
_EDGE_SIGNS = {"bottom": 1, "right": 1, "top": -1, "left": -1}

# The walks of R since the R cache was last cleared, per line and lattice
# (vertical, level, m): (start, end) -> (edge, ArgTrace), in the order walked
_LINE_WALKS: dict = cleared_with_r_values({})


def _edge_walk(f, edge: AxisEdge) -> ArgTrace:
    """The ArgTrace of f along an edge, from its start to its end, walked
    by arg_variation on the lattice of its line; its moments are about the
    edge's first point.  A caller's f is walked every time.  For
    f = r_value the walk is kept in _LINE_WALKS until r_eval_cache_clear,
    so an edge is walked once per R-cache lifetime, and an edge that lies
    inside an edge already walked on its line and lattice, such as a split
    child's side inside its parent's, is built from that walk (_inner_walk)
    and walks only the lattice intervals it lacks, so each lattice interval
    of a line is walked once.  A walk that raises keeps nothing.

    The key (vertical, level, m, start, end) is safe: seed_params() reads
    only start, end and m, so edges with equal keys walk the same seeds."""
    if f is not r_value:
        return arg_variation(f, edge, edge.seed_params())
    line = _LINE_WALKS.setdefault((edge.vertical, edge.level, edge.m), {})
    walk = line.get((edge.start, edge.end))
    if walk is None:
        outer = next((pair for pair in reversed(line.values())
                      if pair[0].start <= edge.start
                      and edge.end <= pair[0].end), None)
        trace = (arg_variation(r_value, edge, edge.seed_params())
                 if outer is None else _inner_walk(edge, *outer))
        walk = line[edge.start, edge.end] = edge, trace
    return walk[1]


def _inner_walk(edge: AxisEdge, outer: AxisEdge, walked: ArgTrace
                ) -> ArgTrace:
    """The ArgTrace of R along ``edge`` from ``walked``, that of ``outer``,
    an edge of the same line and lattice that contains it, with the bits of
    arg_variation(r_value, edge, edge.seed_params()).

    The interior lattice points of ``edge`` are consecutive seeds of
    ``outer``, so every seed interval of ``edge`` is one of ``outer``'s,
    with the same nodes and steps, except where an end of ``edge`` is new:
    neither an end of ``outer`` nor a lattice point k/m, which ``outer``
    holds as a seed.  Only the interval at such a new end is walked
    (_walked), after a log of R at the new end seed, from one logs_at call,
    and the dip test (_check_seeds) runs at the two seeds of each end, the
    only ones whose two nearest seeds can differ from those they had in
    ``outer``.  The phase and moments are then summed over the edge's own
    nodes (_trace)."""
    params = edge.seed_params()
    last = len(params) - 1
    point_fn = edge.point
    m = edge.m
    ends = {k: point_fn(params[k])
            for k, own in ((0, outer.start), (last, outer.end))
            if params[k] != own and round(params[k] * m) / m != params[k]}
    # the node index in ``walked`` of each seed near an end that it holds
    index = {k: bisect.bisect_left(walked.params, params[k])
             for k in {0, 1, 2, last - 2, last - 1, last} if k not in ends}
    logs = {k: walked.logs[at] for k, at in index.items()}
    logs.update(zip(ends, logs_at(r_value, list(ends.values()))))
    _check_seeds(point_fn, params, logs, sorted({0, 1, last - 1, last}))
    head, tail = 0 in ends, last in ends
    a = index[1] if head else index[0]
    b = index[last - 1] if tail else index[last]
    us, zs, ls, steps = (walked.params[a:b + 1], walked.nodes[a:b + 1],
                         walked.logs[a:b + 1], walked.steps[a:b])
    if head:
        hu, hz, hl, hs = _walked(r_value, point_fn, params[:2],
                                 [ends[0], zs[0]], [logs[0], logs[1]])
        us, zs, ls = (*hu[:-1], *us), (*hz[:-1], *zs), (*hl[:-1], *ls)
        steps = (*hs, *steps)
    if tail:
        tu, tz, tl, ts = _walked(r_value, point_fn, params[-2:],
                                 [zs[-1], ends[last]],
                                 [logs[last - 1], logs[last]])
        us, zs, ls = (*us, *tu[1:]), (*zs, *tz[1:]), (*ls, *tl[1:])
        steps = (*steps, *ts)
    return _trace(us, zs, ls, steps)


def _rectangle_winding(f, box: Box) -> float:
    """Raw winding value around a box: the variations of its edges
    (_rectangle_edges, _edge_walk) summed with their _EDGE_SIGNS, over
    2 pi.  For f = r_value the walks are memoised (_edge_walk), so a
    split's children read their parent's two edges parallel to the cut,
    build their sides from the parent's, and the second child reads the cut
    the first one walked."""
    return sum(_EDGE_SIGNS[name] * _edge_walk(f, edge).total_variation
               for name, edge in _rectangle_edges(box).items()) / TWO_PI


def _rectangle_sums(f, box: Box) -> list[complex]:
    """The integrals of (z - c)^k d log f counterclockwise around a box,
    k = 0 .. 3, c = box.center: 2 pi i times the power sums of (rho - c)^k
    over the zeros rho inside, up to the quadrature error of the edges'
    nodes.  Each edge's moments about its first point a (_edge_walk,
    memoised for R) move to c by the binomial shift
    (z - c)^k = sum_j C(k, j) (a - c)^(k - j) (z - a)^j, over distances no
    larger than the box."""
    centre = box.center
    sums = [0j] * 4
    for name, edge in _rectangle_edges(box).items():
        moments = _edge_walk(f, edge).moments
        shift = edge.point(edge.start) - centre
        for k in range(4):
            sums[k] += _EDGE_SIGNS[name] * sum(
                math.comb(k, j) * shift ** (k - j) * moments[j]
                for j in range(k + 1))
    return sums


def _t_steps(rungs: int):
    """Offsets of a contour's top edge on the perturbation ladder."""
    yield 0.0
    for k in range(1, rungs + 1):
        yield k * PERTURB_STEP
        yield -k * PERTURB_STEP


def _on_ladder(measure, t: float, floor: float, where: str, rungs: int = 5):
    """measure(t + dt), t the height of a contour's top edge, for the first
    of its t-steps dt (_t_steps) with t + dt > floor at which measure meets
    no zero on the contour: the one retry loop of rectangle_count and the
    curve contour.  ContourZeroError, naming ``where``, when all do."""
    last: ZeroOnPathError | None = None
    for dt in _t_steps(rungs):
        if t + dt > floor:
            try:
                return measure(t + dt)
            except ZeroOnPathError as exc:
                last = exc
    raise ContourZeroError(f"zero persists on {where}: {last}")


def rectangle_count(f, box: Box) -> tuple[int, Box]:
    """Integer winding of f around ``box``, moving its top edge by the
    ladder's t-steps (_on_ladder) when a zero sits on the contour.  Only
    the top moves, so a zero on a side or on the bottom edge raises
    ContourZeroError.

    Returns (count, the realised box): ``box`` with the top that was
    counted.
    """
    where = f"[{box.sigma_lo},{box.sigma_hi}]x[{box.t_lo},"

    def winding(hi):
        realised = replace(box, t_hi=hi)
        return integer_winding(_rectangle_winding(f, realised),
                               f" on {where}{hi}]"), realised

    return _on_ladder(winding, box.t_hi, box.t_lo,
                      f"the contour of {where}{box.t_hi}]")


_BASE_COUNT_CACHE: dict = cleared_with_r_values({})
_BASE_FLOOR = 0.05  # bottom edge of the base-count box; gamma below is ignored


def base_count(box_left: float = -6.0) -> int:
    """Number of zeros with 0 < gamma <= DESK_T0, by direct winding
    enumeration on [box_left, 2] x (0, DESK_T0] (bottom edge placed just
    above the real axis)."""
    if box_left not in _BASE_COUNT_CACHE:
        count, _ = rectangle_count(r_value,
                                   Box(box_left, 2.0, _BASE_FLOOR, DESK_T0))
        _BASE_COUNT_CACHE[box_left] = count
    return _BASE_COUNT_CACHE[box_left]


def adequate_box_left(t_hi: float, box_left: float = -6.0) -> float:
    """Left box edge certified to have no zeros further left on
    DESK_T0 <= t <= t_hi (residual_table asks up to CURVE_T0 at most).

    Starting from ``box_left``, the adjacent strip of width 20 is checked
    for winding zero; the edge moves left (at most MAX_WIDENINGS times)
    until the certificate holds.  The zeros drift slowly leftwards with
    height (beta ~ -8 near t = 2000), so one or two widenings suffice at
    desk scale.
    """
    left = box_left
    for _ in range(MAX_WIDENINGS):
        strip, _ = rectangle_count(r_value,
                                   Box(left - 20.0, left, DESK_T0, t_hi))
        if strip == 0:
            return left
        left -= 20.0
    raise ContourZeroError(
        f"zeros persist left of sigma = {left} up to t = {t_hi}"
    )


def _walk_edge(edge: AxisEdge) -> ArgTrace:
    """The ArgTrace of R along a horizontal edge through the points of its
    lattice (edge.seed_params) that batched rounds pick, with the bits of
    arg_variation(r_value, edge, trace.params).  A pick is formed from its
    index alone, so the lattice, 907 521 points at T = 10^9, is never built.

    Round 0 takes every index that is a multiple of the largest stride
    whose step is at most WALK_STEP long (at the lattice's mean spacing),
    plus the last.  Each round requests R with R'/R at its new points in
    one r_eval_many call, then bisects (at the integer midpoint) every
    interval longer than one lattice step that fails one of two tests on
    its step h and the rates omega = R'/R at its ends, omega h being a
    predicted step of log R:

    - max |Im omega h| > WALK_PHASE, a predicted phase step too large;
    - the nearest-branch step of Im log R differs by more than WALK_BRANCH
      from the trapezoid Im (omega_a + omega_b) h / 2, which catches a turn
      hidden between the ends.

    The modulus step is not bounded: the zero-on-path test compares log|R|
    with the line through nearby nodes, so steady growth of |R| (about
    (1/2) log(t / 2 pi) per unit of sigma far left) is no zero.  The picks
    are walked as by arg_variation (_check_seeds, _walked, _trace) from the
    logs the rounds read; below the lattice spacing its bisection stays the
    guard.  An exact zero of R at a pick raises ZeroOnPathError, as
    logs_at does.
    """
    m, lattice_ks = edge.m, edge.ks
    last = len(lattice_ks) + 1
    stride = max(1, int(WALK_STEP * last / (edge.end - edge.start)))
    rates = {}  # k -> (parameter, point, log R, R'/R) at lattice point k

    def sample(ks):
        # lattice point k of edge.seed_params(), formed from k alone
        params = [edge.start if k == 0 else edge.end if k == last
                  else lattice_ks[k - 1] / m for k in ks]
        points = [edge.point(u) for u in params]
        results = r_eval_many(points, derivative=True)
        for k, u, z, res in zip(ks, params, points, results):
            rates[k] = (u, z, res.log_value, res.log_derivative)

    ks = [*range(0, last, stride), last]
    sample(ks)
    todo = list(zip(ks, ks[1:]))
    while todo:
        split = [(a, b) for a, b in todo if b - a > 1 and _too_coarse(
            rates[b][1] - rates[a][1], *rates[a][2:], *rates[b][2:])]
        mids = [(a + b) // 2 for a, b in split]
        sample(mids)
        todo = [half for (a, b), mid in zip(split, mids)
                for half in ((a, mid), (mid, b))]
    params, points, logs, _ = zip(*(rates[k] for k in sorted(rates)))
    if None in logs:
        raise ZeroOnPathError("exact zero at a sample node",
                              where=points[logs.index(None)])
    _check_seeds(edge.point, params, logs, range(len(params)))
    return _trace(*_walked(r_value, edge.point, params, points, logs))


def _too_coarse(h: complex, log_a, rate_a, log_b, rate_b) -> bool:
    """Whether _walk_edge bisects an interval of step h with log R and R'/R
    at its ends (see there)."""
    if log_a is None or log_b is None:
        return False
    step_a, step_b = rate_a * h, rate_b * h
    if max(abs(step_a.imag), abs(step_b.imag)) > WALK_PHASE:
        return True
    step = math.remainder(log_b.imag - log_a.imag, TWO_PI)
    return abs(step - 0.5 * (step_a.imag + step_b.imag)) > WALK_BRANCH


def _curve_turns(t: float) -> tuple[float, float, float, float]:
    """(t, phi(t) / 2 pi, top_turns, top_bound) at height t of the curve
    contour.

    The top edge [curve_sigma(t), 2] + it is walked by _walk_edge, with the
    bisection, zero-on-path test and phase contract of every edge;
    top_turns is its variation from sigma = 2 to the curve, in turns.  The
    walk also gives log R at the corner, trace.logs[0], and R(2 + it),
    exp(trace.logs[-1]): r_eval's bits, as |R(2 + it)| is far below e^709.
    phi(t) is Arg R(2 + it) plus that variation minus the argument of R at
    the curve point taken as Im log S + Arg(1 + u), S = r_asymptotic and
    u = R/S - 1.  Both are determinations of one argument, so the winding of
    the contour between heights t0 < t is (phi(t) - phi(t0)) / 2 pi, while
    Arg R stays principal on sigma = 2 and Im log S + Arg(1 + u) continuous
    along the curve.  The values at hand are checked for that: RegionError
    unless |R(2 + it) - 1| < RIGHT_LIMIT and |u| <= U_LIMIT.  BacklundError
    when the edge has no top_edge_certificate or |top_turns| exceeds it.
    """
    left = curve_sigma(t)
    corner = complex(left, t)
    edge = AxisEdge(t, left, 2.0, False, _lattice_m(t, 2.0 - left))
    trace = _walk_edge(edge)
    top_turns = -trace.total_variation / TWO_PI
    bound = top_edge_certificate(t, left)
    if bound is None or abs(top_turns) > bound:
        raise BacklundError(f"top edge at t = {t} turns {top_turns:.4f} "
                            f"times; its Backlund bound is {bound}")
    right = cmath.exp(trace.logs[-1])
    if not abs(right - 1.0) < RIGHT_LIMIT:
        raise RegionError(f"|R - 1| = {abs(right - 1.0):.3f} at 2 + {t}i, "
                          f"not below {RIGHT_LIMIT}")
    log_s = r_asymptotic(corner).log_value
    ratio = cmath.exp(trace.logs[0] - log_s)
    if not abs(ratio - 1.0) <= U_LIMIT:
        raise RegionError(f"|R/S - 1| = {abs(ratio - 1.0):.3f} at {corner}, "
                          f"above {U_LIMIT}")
    phi = (cmath.phase(right) + TWO_PI * top_turns
           - log_s.imag - cmath.phase(ratio))
    return t, phi / TWO_PI, top_turns, bound


def _result(big_t: float, count: int, window: tuple[float, float],
            top_bound: float | None = None,
            top_turns: float | None = None) -> CountResult:
    smooth, sqrt_term = main_term(big_t)
    main_value = smooth - sqrt_term
    return CountResult(
        big_t=big_t, count=count, main_value=main_value, sqrt_term=sqrt_term,
        residual=count - main_value, top_bound=top_bound, window=window,
        top_turns=top_turns,
    )


def residual_table(ts, box_left: float = -6.0) -> list[CountResult]:
    """CountResult per T over an increasing grid of heights above DESK_T0.

    This is where N(T) is assembled.  Up to CURVE_T0 it is the base count
    below DESK_T0 plus the winding of R around [left, 2] x [t_prev, T] for
    each height in turn, t_prev being the top of the previous strip (DESK_T0
    for the first).  The box uses one left edge, from ``box_left`` widened
    by adequate_box_left until the strip further left is certified empty up
    to min(max(ts), CURVE_T0).  A zero on the contour moves a strip's top by
    a multiple of PERTURB_STEP; the next strip starts there.  Strip rows
    carry no top_bound.

    Above CURVE_T0 the count is N(t0), t0 the realised top of the strip
    ending at CURVE_T0 (counted once more when the grid has none), plus the
    winding of the paper's contour: the bottom edge [curve_sigma(t0), 2] +
    it0, walked once for all rows; sigma = 2 from t0 to T, taken as the
    difference of principal Args of R; the top edge [curve_sigma(T), 2] +
    iT, walked by _walk_edge and checked against its Backlund bound; and
    the curve sigma = curve_sigma(t) from T down to t0, where the argument
    of R is that of the asymptotic surrogate S times 1 + u, u = R/S - 1, so
    R is needed only at its ends (see _curve_turns).  Only the top edge
    grows with T, as T^{2/5} log T.  A zero on a top edge moves it
    (_on_ladder), and ``window`` is the realised (t0, T).
    """
    ts = list(ts)
    if box_left > -2.0:
        raise DomainError(f"box_left must be <= -2, got {box_left}")
    if not ts:
        return []
    if not all(map(math.isfinite, ts)):
        raise DomainError("heights must be finite")
    if ts[0] <= DESK_T0:
        raise DomainError(f"heights must rise above DESK_T0 = {DESK_T0:g}, "
                          f"got {ts[0]:g}")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError("heights must be strictly increasing")
    left = adequate_box_left(min(ts[-1], CURVE_T0), box_left)
    running = base_count(left)
    prev_hi = DESK_T0
    results = []
    stacked = [t for t in ts if t <= CURVE_T0]
    for big_t in stacked:
        strip, window = rectangle_count(r_value,
                                        Box(left, 2.0, prev_hi, big_t))
        running += strip
        prev_hi = window.t_hi
        results.append(_result(big_t, running, (window.t_lo, prev_hi)))
    if len(stacked) == len(ts):
        return results
    if prev_hi < CURVE_T0:
        strip, window = rectangle_count(r_value,
                                        Box(left, 2.0, prev_hi, CURVE_T0))
        running += strip
        prev_hi = window.t_hi
    t0, turns0, _, _ = _on_ladder(  # the bottom edge: one rung, no move
        _curve_turns, prev_hi, DESK_T0,
        f"the curve contour's bottom edge at t = {prev_hi}", 0)
    for big_t in ts[len(stacked):]:
        hi, turns, top_turns, bound = _on_ladder(
            _curve_turns, big_t, t0,
            f"the curve contour's top edge at t = {big_t}")
        count = running + integer_winding(
            turns - turns0, f" on the curve contour [{t0}, {hi}]")
        results.append(_result(big_t, count, (t0, hi), bound, top_turns))
    return results
