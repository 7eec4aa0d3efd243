"""Argument-principle machinery: adaptive argument variation along any
path with a ``point(u)`` method, the Backlund argument bound with the log
modulus bound of the auxiliary function behind the top-edge certificate,
zero counting on rectangles with the main-term decomposition

    N(T) ~ T/(4 pi) log(T/(2 pi)) - T/(4 pi) - (1/2) sqrt(T/(2 pi)),

and the least-squares fit of its square-root coefficient.

This is the one winding engine: ``_rectangle_winding`` sums the edge
variations of ``arg_variation`` around a rectangle, and ``integer_winding``
is the one integrality guard, also used by the circle certificates of
``zeros``.
Every contour edge (strips, the base box, ``adequate_box_left``, every
isolation piece of ``zeros`` and the curve contour's horizontal edges) is
an ``AxisEdge`` that carries its lattice, k/m between its ends, and runs
upward; a rectangle counts its top and left edges negatively
(_EDGE_SIGNS).  Edges of a line that share m share their samples bit for
bit, so a child box reads most of its edges from its parent's cache and a
cut is computed once.  For R an edge is also walked once per R-cache
lifetime: _edge_walk keeps each edge's variation and first moment
(ArgTrace.moment), an edge met again reads them, and r_eval_cache_clear
empties that memo and the base counts with the R values they come from.
The moments around a rectangle (_rectangle_sums) locate the zero of a
winding-1 piece (zeros._winding_mean).
``residual_table`` is the one place where N(T) is assembled.  Up to
CURVE_T0 it counts on desk-scale rectangles [box_left, 2] x [t_lo, t_hi]:
the base count below DESK_T0 plus one strip per height, the region further
left certified empty by an adjacent strip of winding zero.  Above CURVE_T0
it counts on the paper's contour, whose left side follows the curve
sigma = 1 - t^{2/5} log t where R is close to the asymptotic surrogate S;
only its top edge is sampled, so a height costs O(T^{2/5} log^2 T) values
of R instead of O(T log T).  That edge is walked (_walk_edge) on a subset
of its line's lattice, at the step its phase needs, read from R'/R: 1338
values of R at T = 10^4 and 6234 at 10^7, against 3450 and 91 431 at the
seed rate.  Three sampled facts carry that contour, each checked where a
row already has the values: |R/S - 1| < 1 along the curve (|u| <= U_LIMIT
at its ends), |R - 1| < 1 on sigma = 2 (below RIGHT_LIMIT at each height)
and the continuity of Im log S along the curve (tested on a grid of step
1/4 to T = 10^4).  Each top edge's variation is checked against
``backlund_bound``, the one Backlund formula, which acceptance criterion 4
also validates.  Only a top edge moves to escape a zero on a contour, by
the t-steps of the constant PERTURB_STEP (_on_ladder); a zero on a side or
on a bottom edge, the curve contour's included, raises ContourZeroError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .auxiliary import (
    cleared_with_r_values,
    curve_sigma,
    logs_at,
    r_asymptotic,
    r_eval,
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
    (_EDGE_SIGNS).  It carries the lattice of its line that ``seeds``
    fixes, m = ceil((seeds - 1) / length), a spacing never coarser than
    length / (seeds - 1): lattice point i = 0 .. len(ks) + 1, param(i), is
    start, then k/m for k in ``ks``, then end.  k/m is correctly rounded,
    so every edge of the line with the same m samples the same bits, as
    does a midpoint 0.5 (x1 + x2)."""

    level: float
    start: float
    end: float
    vertical: bool
    seeds: int
    m: int = field(init=False, repr=False)
    ks: range = field(init=False, repr=False)

    def __post_init__(self):
        lo, hi = self.start, self.end
        if not lo < hi:
            raise DomainError(f"axis-parallel edge from {lo} to {hi} does "
                              f"not run upward")
        m = math.ceil((self.seeds - 1) / (hi - lo))
        # lo * m and hi * m are rounded: step in to the k with lo < k/m < hi
        first, last = math.floor(lo * m), math.ceil(hi * m)
        while not lo < first / m:
            first += 1
        while not last / m < hi:
            last -= 1
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "ks", range(first, last + 1))

    def point(self, x: float) -> complex:
        if self.vertical:
            return complex(self.level, x)
        return complex(x, self.level)

    def param(self, i: int) -> float:
        """Lattice point i, 0 <= i <= len(ks) + 1."""
        if 0 < i <= len(self.ks):
            return self.ks[i - 1] / self.m
        return self.end if i else self.start

    def seed_params(self) -> list[float]:
        """Every lattice point, from start to end."""
        m = self.m
        return [self.start, *[k / m for k in self.ks], self.end]


def unit_params(seeds: int) -> list[float]:
    """k / (seeds - 1) for k = 0 .. seeds - 1: equispaced seeds on [0, 1]."""
    return [k / (seeds - 1) for k in range(seeds)]


@dataclass(frozen=True)
class ArgTrace:
    """Realised argument of f along a path: the sampled nodes, between which
    each nearest-branch phase step is below pi/2 by construction, the total
    variation, the sum of those steps, and the path's first moment, the
    integral of z d log f, summed over the nodes as

        sum_i (1/2) (z_i + z_{i+1}) (log|f|_{i+1} - log|f|_i + i dphi_i),

    dphi_i the nearest-branch phase step.  Around a closed contour the
    moments of its paths sum to 2 pi i times the sum of the zeros inside
    (less that of the poles), up to the quadrature error of the nodes."""

    nodes: tuple[complex, ...]
    total_variation: float
    moment: complex


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


def arg_variation(f, path, params) -> ArgTrace:
    """Unwrapped argument change of f along a path, any object whose
    ``point(u)`` gives the point at parameter u, walked through the seed
    parameters ``params`` in the order given: unit_params(n) for a
    PathSegment or a circle, the lattice of an AxisEdge's line
    (AxisEdge.seed_params), or a subset of it picked by _walk_edge.

    Reads a log of f (logs_at) at the seeds, then bisects parameter
    intervals at 0.5 (u1 + u2) until each consecutive nearest-branch step
    of Im log f is below pi/2.  DomainError for fewer than two seeds.
    Raises ZeroOnPathError at an exact zero of f at a node, where a node
    dips (_check_dip: a seed against its two nearest nodes, a bisection
    midpoint against its ends; no modulus is compared, so the test holds
    where |f| saturates) or when MAX_REFINE_DEPTH bisection levels cannot
    satisfy the phase contract.  Each point is formed once.
    """
    point_fn = path.point
    if len(params) < 2:
        raise DomainError(f"arg_variation needs two seeds, got {len(params)}")
    points = [point_fn(u) for u in params]
    logs = logs_at(f, points)
    moduli = [log.real for log in logs]
    last = len(params) - 1
    for k, u in enumerate(params):
        # the two nearest nodes: an interior seed's neighbours, the next two
        # of an end seed (its one neighbour, twice, on a two-node path);
        # _check_dip's test, inline, and the call only to raise
        a = k - 1 if k else min(2, last)
        b = k + 1 if k < last else max(last - 2, 0)
        ua, ub = params[a], params[b]
        slope = 0.0 if ua == ub else (moduli[b] - moduli[a]) / (ub - ua)
        line = moduli[a] + slope * (u - ua)
        if moduli[k] < line + _LOG_DETECT_TOL:
            _check_dip(point_fn, u, logs[k], ua, logs[a], ub, logs[b])
    nodes = [points[0]]
    # the unwrapped phase, summed step by step from the first principal one
    first = phase = math.remainder(logs[0].imag, TWO_PI)
    moment = 0.0j  # twice the path's first moment, summed node by node
    for i in range(last):
        delta = math.remainder(logs[i + 1].imag - logs[i].imag, TWO_PI)
        if abs(delta) < PHASE_LIMIT:
            moment += (nodes[-1] + points[i + 1]) * complex(
                logs[i + 1].real - logs[i].real, delta)
            nodes.append(points[i + 1])
            phase += delta
            continue
        # bisect depth first, left half first, from a list rather than a
        # recursive closure, which would hold the walk in a reference cycle
        todo = [(params[i], logs[i], params[i + 1], points[i + 1],
                 logs[i + 1], 0)]
        while todo:
            p1, l1, p2, z2, l2, depth = todo.pop()
            delta = math.remainder(l2.imag - l1.imag, TWO_PI)
            if abs(delta) < PHASE_LIMIT:
                moment += (nodes[-1] + z2) * complex(l2.real - l1.real, delta)
                nodes.append(z2)
                phase += delta
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
    return ArgTrace(nodes=tuple(nodes), total_variation=phase - first,
                    moment=0.5 * moment)


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


def _edge_seeds(t_level: float, length: float, vertical: bool) -> int:
    """Seed count keeping expected phase steps of R well under pi/2: the
    ``seeds`` of an AxisEdge of this length, which fix the lattice it is
    sampled on; the curve contour's horizontal edges sample a subset of
    that lattice (_walk_edge)."""
    rate = 0.5 * math.log(max(t_level, 7.0) / TWO_PI) + 1.5
    if not vertical:
        rate += 2.0  # horizontal edges pick up the chi-argument drift
    return max(8, int(math.ceil(length * rate / 1.2)) + 1)


def _rectangle_edges(sigma_lo: float, sigma_hi: float, t_lo: float,
                     t_hi: float) -> dict[str, AxisEdge]:
    """The AxisEdges of a rectangle, keyed "bottom", "right", "top", "left"
    in counterclockwise order, each running upward with its seeds from
    _edge_seeds.  Two rectangles that share a side sample it on the same
    lattice: the seeds of a horizontal edge depend on its line and width,
    those of a vertical edge on the rectangle's top and height."""
    width = sigma_hi - sigma_lo
    side = _edge_seeds(t_hi, t_hi - t_lo, True)
    return {
        "bottom": AxisEdge(t_lo, sigma_lo, sigma_hi, False,
                           _edge_seeds(t_lo, width, False)),
        "right": AxisEdge(sigma_hi, t_lo, t_hi, True, side),
        "top": AxisEdge(t_hi, sigma_lo, sigma_hi, False,
                        _edge_seeds(t_hi, width, False)),
        "left": AxisEdge(sigma_lo, t_lo, t_hi, True, side),
    }


# The sign of each edge of _rectangle_edges in the counterclockwise sum:
# the top and left edges run against the contour.
_EDGE_SIGNS = {"bottom": 1, "right": 1, "top": -1, "left": -1}

# (total_variation, moment) of R along each AxisEdge walked since the R
# cache was last cleared, keyed by (vertical, level, start, end, seeds)
_EDGE_VARIATIONS: dict = cleared_with_r_values({})


def _edge_walk(f, edge: AxisEdge) -> tuple[float, complex]:
    """(total_variation, moment) of f along an edge, from its start to its
    end, walked by arg_variation on the lattice of its line.  For
    f = r_value the pair is kept in _EDGE_VARIATIONS until
    r_eval_cache_clear, so an edge is walked once per R-cache lifetime; a
    walk that raises keeps nothing.  A caller's f is walked every time."""
    key = (edge.vertical, edge.level, edge.start, edge.end, edge.seeds)
    if f is r_value and key in _EDGE_VARIATIONS:
        return _EDGE_VARIATIONS[key]
    trace = arg_variation(f, edge, edge.seed_params())
    walk = trace.total_variation, trace.moment
    if f is r_value:
        _EDGE_VARIATIONS[key] = walk
    return walk


def _rectangle_sums(f, sigma_lo: float, sigma_hi: float, t_lo: float,
                    t_hi: float) -> tuple[float, complex]:
    """(variation, moment) of f counterclockwise around a rectangle: the
    walks of its edges (_rectangle_edges, _edge_walk) summed with their
    _EDGE_SIGNS.  For f = r_value the walks are memoised, so a split's
    children read their parent's two edges parallel to the cut, and the
    second child reads the cut the first one walked."""
    variation, moment = 0, 0
    for name, edge in _rectangle_edges(sigma_lo, sigma_hi, t_lo,
                                       t_hi).items():
        edge_variation, edge_moment = _edge_walk(f, edge)
        variation += _EDGE_SIGNS[name] * edge_variation
        moment += _EDGE_SIGNS[name] * edge_moment
    return variation, moment


def _rectangle_winding(f, sigma_lo: float, sigma_hi: float, t_lo: float,
                       t_hi: float) -> float:
    """Raw winding value around a rectangle: its _rectangle_sums variation
    over 2 pi."""
    return _rectangle_sums(f, sigma_lo, sigma_hi, t_lo, t_hi)[0] / TWO_PI


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


def rectangle_count(f, sigma_lo: float, sigma_hi: float, t_lo: float,
                    t_hi: float):
    """Integer winding of f around the rectangle [sigma_lo, sigma_hi] x
    [t_lo, t_hi], moving its top edge by the ladder's t-steps (_on_ladder)
    when a zero sits on the contour.  Only the top moves, so a zero on a
    side or on the bottom edge raises ContourZeroError.  DomainError unless
    the rectangle is finite, with sigma_lo < sigma_hi and t_lo < t_hi.

    Returns (count, realised (t_lo, t_hi)).
    """
    where = f"[{sigma_lo},{sigma_hi}]x[{t_lo},{t_hi}]"
    if not (sigma_lo < sigma_hi and t_lo < t_hi and all(
            map(math.isfinite, (sigma_lo, sigma_hi, t_lo, t_hi)))):
        raise DomainError(f"rectangle {where} is not finite and proper")

    def winding(hi):
        raw = _rectangle_winding(f, sigma_lo, sigma_hi, t_lo, hi)
        return integer_winding(
            raw, f" on [{sigma_lo},{sigma_hi}]x[{t_lo},{hi}]"), (t_lo, hi)

    return _on_ladder(winding, t_hi, t_lo, f"the contour of {where}")


_BASE_COUNT_CACHE: dict = cleared_with_r_values({})
_BASE_FLOOR = 0.05  # bottom edge of the base-count box; gamma below is ignored


def base_count(box_left: float = -6.0) -> int:
    """Number of zeros with 0 < gamma <= DESK_T0, by direct winding
    enumeration on [box_left, 2] x (0, DESK_T0] (bottom edge placed just
    above the real axis)."""
    if box_left not in _BASE_COUNT_CACHE:
        count, _ = rectangle_count(r_value, box_left, 2.0, _BASE_FLOOR,
                                   DESK_T0)
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
        strip, _ = rectangle_count(r_value, left - 20.0, left, DESK_T0, t_hi)
        if strip == 0:
            return left
        left -= 20.0
    raise ContourZeroError(
        f"zeros persist left of sigma = {left} up to t = {t_hi}"
    )


def _walk_edge(edge: AxisEdge) -> list[float]:
    """Sample parameters of a horizontal edge, from a walk of R in batched
    rounds on its lattice by index (edge.param), forming only those picked.

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

    The modulus step is not bounded: arg_variation's zero-on-path test
    compares log|R| with the line through nearby nodes, so steady growth of
    |R| (about (1/2) log(t / 2 pi) per unit of sigma far left) is no zero.
    The walk is never denser than the lattice; below its spacing
    arg_variation's bisection stays the guard.  An interval with an exact
    zero of R at an end is left as it is; arg_variation rejects it.
    """
    last = len(edge.ks) + 1
    stride = max(1, int(WALK_STEP * last / (edge.end - edge.start)))
    rates = {}  # k -> (log R, R'/R) at edge.param(k)

    def sample(ks):
        points = [edge.point(edge.param(k)) for k in ks]
        for k, res in zip(ks, r_eval_many(points, derivative=True)):
            rates[k] = (res.log_value, res.log_derivative)

    ks = [*range(0, last, stride), last]
    sample(ks)
    todo = list(zip(ks, ks[1:]))
    while todo:
        split = [(a, b) for a, b in todo if b - a > 1 and _too_coarse(
            edge.point(edge.param(b)) - edge.point(edge.param(a)),
            *rates[a], *rates[b])]
        mids = [(a + b) // 2 for a, b in split]
        sample(mids)
        todo = [half for (a, b), m in zip(split, mids)
                for half in ((a, m), (m, b))]
    return [edge.param(k) for k in sorted(rates)]


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

    The top edge [curve_sigma(t), 2] + it is sampled by _walk_edge, on a
    subset of its line's lattice chosen from the rates R'/R, and those
    samples are walked by arg_variation, whose bisection, zero-on-path test
    and phase contract are those of every edge; top_turns is its variation
    from sigma = 2 to the curve, in turns.  phi(t)
    is Arg R(2 + it) plus that variation minus the argument of R at the
    curve point taken as Im log S + Arg(1 + u), S = r_asymptotic and
    u = R/S - 1.  Both are determinations of one argument, so the winding of
    the contour between heights t0 < t is (phi(t) - phi(t0)) / 2 pi, while
    Arg R stays principal on sigma = 2 and Im log S + Arg(1 + u) continuous
    along the curve.  The values at hand are checked for that: RegionError
    unless |R(2 + it) - 1| < RIGHT_LIMIT and |u| <= U_LIMIT.  BacklundError
    when the edge has no top_edge_certificate or |top_turns| exceeds it.
    """
    left = curve_sigma(t)
    corner = complex(left, t)
    edge = AxisEdge(t, left, 2.0, False, _edge_seeds(t, 2.0 - left, False))
    top_turns = -arg_variation(r_value, edge,
                               _walk_edge(edge)).total_variation / TWO_PI
    bound = top_edge_certificate(t, left)
    if bound is None or abs(top_turns) > bound:
        raise BacklundError(f"top edge at t = {t} turns {top_turns:.4f} "
                            f"times; its Backlund bound is {bound}")
    right = r_eval(complex(2.0, t)).value
    if not abs(right - 1.0) < RIGHT_LIMIT:
        raise RegionError(f"|R - 1| = {abs(right - 1.0):.3f} at 2 + {t}i, "
                          f"not below {RIGHT_LIMIT}")
    log_s = r_asymptotic(corner).log_value
    ratio = cmath.exp(r_eval(corner).log_value - log_s)
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
    iT, walked by arg_variation and checked against its Backlund bound; and
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
        strip, window = rectangle_count(r_value, left, 2.0, prev_hi, big_t)
        running += strip
        results.append(_result(big_t, running, window))
        prev_hi = window[1]
    if len(stacked) == len(ts):
        return results
    if prev_hi < CURVE_T0:
        strip, (_, prev_hi) = rectangle_count(r_value, left, 2.0, prev_hi,
                                              CURVE_T0)
        running += strip
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
