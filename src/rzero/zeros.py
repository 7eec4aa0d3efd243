"""Isolation and refinement of individual zeros inside a box.

Winding-driven quad-tree subdivision splits a rectangle until every piece
encloses exactly one zero or, for R, a few zeros that its power sums
place; Newton iteration refines each zero to a point, and every returned
zero carries an independent winding-1 certificate on a small circle
around it.  Subdivision is also the one recovery: locate_zeros splits a
seed whose refinement fails and isolates its children again.  The power
sums of a box are s_k = (1/2 pi i) times the integral of (z - c)^k d log R
around it, c its centre; the edge walks of isolation already hold the
moments they come from (ArgTrace.moments, to order 3), so they cost no R
value.  A piece of winding m <= GROUP_CAP = 3 stops splitting when the m
roots of the polynomial that Newton's identities build from s_1 .. s_m lie
inside it and pairwise apart (a Group); its m Newton runs start at those
roots, and it is accepted only when their m certificate circles are
pairwise disjoint and lie inside it, so all m of its zeros are found.  A
winding-1 piece's run starts at its root for m = 1, its argument-principle
mean c + s_1.  Windings come from the engine in ``counting``, all through
one integrality guard: the caller's box by ``rectangle_count``, each piece
and a cut scan's window on its own contour by ``_rectangle_winding``,
circles by ``arg_variation``.
Boxes, pieces and windows are ``counting.Box`` (also ``zeros.Box``), the
one rectangle type: they are split here and passed to counting whole.
By default R is evaluated through the same cached quadrature as counting,
the samples of a contour edge and of a cut scan's lattice row are
evaluated in one batch (r_eval_many), and all runs are refined in
lockstep: each Newton round takes R(s) and R'(s) at every live iterate
from one r_eval_many(..., derivative=True) call, and the residuals of all
refined points are one more call.  Piece edges lie on counting's per-line
sample lattice, so the two children of a split read the cut's samples from
one set of cache entries and the edges parallel to the cut from the
parent's walks, and a side that keeps its parent's lattice, as most do, is
built from the parent's side and walks only its interval at the cut
(counting._edge_walk).
The scan of a split's cut for a zero of even multiplicity starts from
those same lattice samples.  It ends there when their minimum is interior
and too large against its neighbours for a double zero to lie beside it,
or, for R, lies at an end of the row where |R'/R| is too small for one (R'
at that one point is the only R it computes); otherwise it winds f around
one small window rectangle about that minimum.  A caller's f forms no
groups: its pieces split down to winding 1 and start at their centres.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .auxiliary import r_eval_many, r_value, values_at
from .auxiliary import r_derivative  # noqa: F401  (bench/tracing.py wraps it here)
from .counting import (
    Box,
    _rectangle_edges,
    _rectangle_sums,
    _rectangle_winding,
    arg_variation,
    integer_winding,
    rectangle_count,
    unit_params,
)
from .errors import (
    ContourZeroError,
    DomainError,
    NewtonError,
    NonIntegerWindingError,
    ZeroOnPathError,
)
from .special_functions import TWO_PI

MIN_SIZE_DEFAULT = 1e-3
NEWTON_STEP_TOL = 1e-10
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class Zero:
    """An isolated zero beta + i gamma with its certification metadata."""

    beta: float
    gamma: float
    enclosure_radius: float
    winding_certificate: int
    residual_modulus: float

    def __post_init__(self):
        if self.enclosure_radius <= 0.0:
            raise DomainError("enclosure radius must be positive")


class Group(NamedTuple):
    """A box of winding len(starts), 2 .. GROUP_CAP, with one Newton start
    per zero: the roots of its power-sum polynomial (_power_sum_roots)."""

    box: Box
    starts: tuple[complex, ...]


class IsolationResult(NamedTuple):
    """Winding-1 rectangles, any clusters unresolved at min_size, and for R
    the groups of a few zeros that refinement resolves from their starts."""

    isolated: list[Box]
    clusters: list[tuple[Box, int]]
    groups: list[Group]


# A box of R whose winding is at most this many stops splitting when its
# power-sum roots lie inside it and pairwise farther apart than
# _GROUP_SEPARATION times its longer side.  The moments of an edge go to
# order 3 (ArgTrace.moments), so the cap cannot exceed 3.
GROUP_CAP = 3
_GROUP_SEPARATION = 0.05

_SPLIT_OFFSETS = (0.0, 0.11, -0.13, 0.23, -0.27)

# |f| ~ |c| (x - p)^2 holds only to leading order near a double zero p, so
# a lattice row rules a zero out only when its minimum exceeds the model's
# bound on minimum / local scale (1/9 on a uniform lattice) by this factor.
_CUT_MODEL_MARGIN = 2.0

# A double zero that the window must find, beside an end minimum of a cut's
# lattice row, leaves |f'/f| h at least this there while the modulus
# trend stays under R's estimated 1.2 a step (see _zero_on_cut).
_END_SLOPE_BOUND = 1.64


def _zero_on_cut(f, box: Box, child: Box) -> bool:
    """Detect a zero sitting on, or just beside, the shared cut line of a
    split: ``box`` is the Box split and ``child`` its first child.

    An even-multiplicity zero exactly on the cut does not disturb the phase
    along it (f keeps a constant argument there), so the winding of both
    children looks consistent; a double zero a fraction of a lattice step
    off the cut turns f by nearly 2 pi between two of the cut's samples,
    which the children's walk reads as a small step, so both wind 1.

    The scan reads the cut's own lattice samples, the points at which both
    children's windings sampled their shared edge (``child``'s top edge for
    a horizontal cut, its right edge for a vertical one), so for r_value
    the row is read from the cache.  Unless that row rules a double zero
    out (below), the scan winds f around one window Box
    (_rectangle_winding): along the cut it spans [x_{k-1}, x_{k+1}] around
    the row's minimum x_k, clipped at the row's ends, and across it +-d, d
    half the larger lattice spacing h beside x_k.  The cut holds a zero
    when that integer winding is 2 or more, or when the window's walk meets
    a zero or a non-integer winding.

    The window covers both hazards.  A double zero p on the cut lies in
    [x_{k-1}, x_{k+1}], and one the children's walk misreads lies less
    than h / (2 tan(3 pi / 8)) = h / 4.83 off the cut: between the two
    lattice samples that straddle it f turns by up to 4 atan(h / 2e), e
    its distance from the cut, and the walk's nearest-branch rule misreads
    turns above 3 pi / 2.  h / 4.83 < d, so such a p lies inside the
    window.  The window's own walk reads it correctly: its long edges
    (_lattice_m gives every edge at least 7 intervals) have samples at most
    2h / 7 apart, and p stays at least d - h / 4.83 ~ 0.29 h from them,
    far more than (2h / 7) / 4.83.  The rule is conservative: a close pair
    of simple zeros in the window also winds 2, and the split then moves
    its cut to the next offset.  A zero at one of the row's samples never
    reaches the scan: both children walked those samples, and a walk
    raises at an exact zero, which moves the cut.

    The lattice row alone can rule a double zero out.  Let x_k be interior,
    with h1 = x_k - x_{k-1} and h2 = x_{k+1} - x_k.  Near p,
    |f(x)| ~ |c| (x - p)^2.  If p lies right of x_k at distance a, then
    a <= h2/2 (x_k is nearer p than x_{k+1} is) and the left neighbour is
    h1 + a from p, so minimum / local, local the larger neighbour,
    <= a^2 / (h1 + a)^2 <= (h2/2)^2 / (h1 + h2/2)^2 = (h2 / (2 h1 + h2))^2;
    p left of x_k gives the same with h1 and h2 swapped.  On a uniform
    stretch of the lattice that is 1/9; the row's end intervals are
    partial, so the bound is formed from the actual spacings.  A row whose
    ratio exceeds _CUT_MODEL_MARGIN times it ends the scan with no window.
    A double zero at distance e off the cut raises the ratio by at most
    e^2 / (h1 + a)^2, to under 0.13 on a uniform stretch for the e the
    window guards, below the exit's 2/9.

    A minimum at an end x_e of the row has one neighbour and no such
    bound.  For r_value the scan reads R'/R at x_e instead, the
    log_derivative of one r_eval_many call (finite where |R| saturates),
    h being the row's end interval.  Near a double zero p,
    f = (z - p)^2 g and f'/f = 2 / (z - p) + g'/g.  The window guards p on
    the cut in the end interval and p less than h / 4.83 off it.  With no
    modulus trend p lies nearer x_e than the interval's other end, so
    |x_e - p| <= h (1/4 + 1/4.83^2)^(1/2) = 0.541 h.  A trend moves the
    minimum: with k >= |g'/g| h, the change of log|g| over the interval,
    |f(x_e)| <= |f(x_e +- h)| gives |x_e - p| <= e^(k/2) |x_e +- h - p|,
    and with p at most h / 4.83 off the cut and k = 1.2 that keeps
    |x_e - p| <= 0.704 h.  Such a p leaves |f'/f| h >= 2 / 0.704 - 1.2
    = 1.64 (_END_SLOPE_BOUND), and a row whose end reads |R'/R| h below
    _END_SLOPE_BOUND / _CUT_MODEL_MARGIN = 0.82 ends the scan with no
    window.  The same derivation gives 0.82 at k = 1.75 and 0.46 at k = 2.

    k = 1.2 is an estimate for R, not a bound: _lattice_m spaces each
    line's lattice at a rate above the |R'/R| measured there, so that R's
    phase moves by about 1.2 a step at most.  The rate reads log t and, on
    a vertical line, its sigma: (1/2) log(t/2pi) + 1.5 between sigma = -6
    and 2, where the zeros are, + 0.5 on sigma <= -6, where |R'/R| is about
    (1/2) log(t/2pi), and 1.0 on sigma >= 2; nothing bounds |R'/R|.  At an
    end sample with no zero beside it |R'/R| h is R's own trend; the
    readings are 0.07 or less below t = 300, at most 0.89 at -6 + 10010 i
    and 0.99 at -49 + 10^6 i (both on sigma <= -6, and both scans wind
    their windows), and the tests keep every cut end of the windows at
    10^4 and 10^6, and every lattice point of the far-left and sigma = 2
    sides of boxes to 10^6, under 1.2.  Higher windows are unchecked.  A
    caller's f has no such estimate, and its end minimum always takes the
    window: (z - p)^2 e^(8z) on the cut t = 10 of [0, 2] x [9, 11], with
    p at 0.18 + 10 i (0.72 h from the end), has k = 2 and reads 0.78 there.
    """
    edge = _rectangle_edges(child)[
        "top" if child.t_hi < box.t_hi else "right"]
    us = edge.seed_params()
    mags = [abs(v) for v in values_at(f, [edge.point(u) for u in us])]
    k_min = mags.index(min(mags))
    minimum = mags[k_min]
    last = len(us) - 1
    lo, hi = max(0, k_min - 1), min(last, k_min + 1)
    if 0 < k_min < last:
        local_scale = max(mags[lo], mags[hi], 1e-12 * max(mags))
        h1, h2 = us[k_min] - us[lo], us[hi] - us[k_min]
        bound = max(h2 / (2.0 * h1 + h2), h1 / (2.0 * h2 + h1)) ** 2
        if minimum > _CUT_MODEL_MARGIN * bound * local_scale:
            return False
    elif f is r_value:  # an end minimum: |R'/R| h, h its interval
        z = edge.point(us[k_min])
        slope = r_eval_many([z], derivative=True)[0].log_derivative
        if (abs(slope) * (us[hi] - us[lo])
                < _END_SLOPE_BOUND / _CUT_MODEL_MARGIN):
            return False
    d = 0.5 * max(us[k_min] - us[lo], us[hi] - us[k_min])
    if edge.vertical:
        window = Box(edge.level - d, edge.level + d, us[lo], us[hi])
    else:
        window = Box(us[lo], us[hi], edge.level - d, edge.level + d)
    try:
        return integer_winding(_rectangle_winding(f, window)) >= 2
    except (ZeroOnPathError, NonIntegerWindingError):
        return True


def _split_conserving(f, box: Box, parent_w: int):
    """Split the box into two children whose windings sum to the parent's,
    each counted on its own rectangle as the cut scan's window is; the cut
    moves along _SPLIT_OFFSETS when a zero lies on a child's contour or on
    the cut, or a winding is off an integer or off the parent's."""
    last: Exception | None = None
    for off in _SPLIT_OFFSETS:
        b1, b2 = box.split(off)
        try:
            w1, w2 = (integer_winding(_rectangle_winding(f, b))
                      for b in (b1, b2))
        except (ZeroOnPathError, NonIntegerWindingError) as exc:
            last = exc
            continue
        if w1 + w2 != parent_w:
            continue
        if w1 != 0 and w2 != 0 and _zero_on_cut(f, box, b1):
            continue
        return (b1, w1), (b2, w2)
    raise ContourZeroError(
        f"could not split {box} while conserving winding {parent_w}"
    ) from last


def isolate_zeros(box: Box, min_size: float = MIN_SIZE_DEFAULT,
                  f: Callable[[complex], complex] | None = None,
                  ) -> IsolationResult:
    """Subdivide ``box`` into disjoint winding-1 rectangles and, for R,
    groups of a few zeros.

    ``box`` is counted by rectangle_count, whose ladder may move its top
    edge, and the realised rectangle is split, so the pieces tile what was
    counted.  Pieces with winding zero are discarded; pieces with winding
    >= 2 are split (longer side first) until their side drops below
    ``min_size``, at which point they are reported as unresolved clusters
    rather than being silently merged.  For f = R a piece of winding
    m <= GROUP_CAP that is not yet a cluster stops splitting when the m
    roots of its power-sum polynomial (_power_sum_roots) lie inside it and
    are pairwise farther apart than _GROUP_SEPARATION times its longer
    side: it becomes a Group whose roots start refine_zeros' Newton runs,
    and locate_zeros splits it on if refinement does not resolve its
    zeros.  A caller's f forms no groups.  The winding numbers of the
    output (a group's is len(starts)) always sum to the winding of the
    realised box.  A ``min_size`` that is not positive is refused: no
    piece would ever be small enough to report as a cluster.
    """
    if not min_size > 0.0:
        raise DomainError(f"min_size must be positive, got {min_size}")
    if f is None:
        f = r_value
    total, realised = rectangle_count(f, box)
    return _isolate([(realised, total)], min_size, f)


def _isolate(stack: list[tuple[Box, int]], min_size: float,
             f) -> IsolationResult:
    """isolate_zeros' subdivision of the (piece, winding) pairs of
    ``stack``, which tile the region counted."""
    isolated: list[Box] = []
    clusters: list[tuple[Box, int]] = []
    groups: list[Group] = []
    while stack:
        piece, w = stack.pop()
        if w == 0:
            continue
        if w == 1:
            isolated.append(piece)
            continue
        if piece.max_side < min_size:
            clusters.append((piece, w))
            continue
        if f is r_value and w <= GROUP_CAP:
            roots = _power_sum_roots(piece, w)
            gap = _GROUP_SEPARATION * piece.max_side
            if roots is not None and all(map(piece.contains, roots)) and all(
                    abs(a - b) > gap
                    for a, b in itertools.combinations(roots, 2)):
                groups.append(Group(piece, tuple(roots)))
                continue
        stack.extend(_split_conserving(f, piece, w))
    isolated.sort(key=lambda b: (b.t_lo, b.sigma_lo))
    clusters.sort(key=lambda bw: (bw[0].t_lo, bw[0].sigma_lo))
    groups.sort(key=lambda g: (g.box.t_lo, g.box.sigma_lo))
    return IsolationResult(isolated=isolated, clusters=clusters,
                           groups=groups)


def _numeric_derivative(f, z: complex, scale: float) -> complex:
    h = 1e-6 * max(1.0, scale)
    return (f(z + h) - f(z - h)) / (2.0 * h)


@dataclass(frozen=True)
class _Circle:
    """Counterclockwise circle, as a path for arg_variation."""

    center: complex
    radius: float

    def point(self, u: float) -> complex:
        return self.center + self.radius * complex(math.cos(TWO_PI * u),
                                                   math.sin(TWO_PI * u))


# A certificate circle is walked from this many equispaced seeds, 8
# intervals of pi/4 about its zero (the margin to the walk's pi/2 contract
# is under _CERT_NOISE_FACTOR); arg_variation bisects any larger step.
_CIRCLE_SEEDS = 9


def _circle_points(center: complex, radius: float) -> list[complex]:
    """The seed points of the walk of _circle_winding."""
    circle = _Circle(center, radius)
    return [circle.point(u) for u in unit_params(_CIRCLE_SEEDS)]


def _circle_winding(f, center: complex, radius: float) -> int:
    trace = arg_variation(f, _Circle(center, radius),
                          unit_params(_CIRCLE_SEEDS))
    return integer_winding(trace.total_variation / TWO_PI)


def _power_sum_roots(box: Box, m: int) -> list[complex] | None:
    """The m roots of the power-sum polynomial of R in ``box``, ordered by
    (imag, real), or None when a walk meets a zero.

    The power sums s_k = (1/2 pi i) times the integral of (z - c)^k d log R
    around the box, c its centre, k = 1 .. m, come from
    counting._rectangle_sums, that is from the edges' moments that the
    windings of isolation left in counting's memo (an edge missing from it
    is walked here).  Newton's identities turn them into the elementary
    symmetric functions e_k of the zeros' offsets from c, and the roots of
    w^m - e_1 w^(m-1) + ... + (-1)^m e_m, moved back by c, are the box's m
    zeros, up to the quadrature error of the edges' nodes (Delves and
    Lyness, Math. Comp. 21, 1967).  For m = 1 the root is c + s_1, the
    box's argument-principle mean."""
    try:
        sums = _rectangle_sums(r_value, box)
    except ZeroOnPathError:
        return None
    c = box.center
    s = [v / complex(0.0, TWO_PI) for v in sums]
    if m == 1:
        return [c + s[1]]
    e = [1.0 + 0.0j]
    for k in range(1, m + 1):
        e.append(sum((-1) ** (j - 1) * e[k - j] * s[j]
                     for j in range(1, k + 1)) / k)
    roots = np.roots([(-1) ** k * e[k] for k in range(m + 1)])
    return sorted((c + complex(w) for w in roots),
                  key=lambda z: (z.imag, z.real))


# The certificate circle starts no smaller than this many times the
# distance over which R's noise can move a zero, error_estimate / |R'|
# (see refine_zeros): the noise then moves each sample's phase by under
# 0.1 rad, so a step of the 8-interval walk, pi/4 about the zero, reads
# under pi/4 + 0.2 rad, inside the walk's pi/2 contract.
_CERT_NOISE_FACTOR = 10.0


class _Newton:
    """One Newton run from ``z`` in ``box``: the current iterate, the last
    step and the iterations taken."""

    def __init__(self, box: Box, z: complex):
        self.box = box
        self.guard = box.dilated(2.0)
        self.z = z
        self.step = math.inf
        self.iters = 0

    def advance(self, fz: complex, dz: complex, noise: float = 0.0
                ) -> bool | None:
        """Take one Newton step from f and f' at the iterate, f known to
        within ``noise``: None while the run goes on, then True when it
        ends at a point that its box contains within the final step, and
        False when it fails.  A step under NEWTON_STEP_TOL, or under
        noise / |f'|, the distance over which the noise can move a zero,
        ends the run."""
        if dz == 0.0:
            return False
        nz = self.z - fz / dz
        self.step = abs(nz - self.z)
        self.z = nz
        self.iters += 1
        if not self.guard.contains(nz):
            return False
        if self.step >= max(NEWTON_STEP_TOL, noise / abs(dz)):
            if self.iters < NEWTON_MAX_ITER:
                return None
            if self.step >= 1e-6:
                return False
        return self.box.contains(nz, margin=self.step)


def refine_zeros(seeds: list[Box | Group],
                 f: Callable[[complex], complex] | None = None,
                 df: Callable[[complex], complex] | None = None) -> list[Zero]:
    """Refine winding-1 seed rectangles and Groups to certified Zeros, in
    input order, a group's zeros in the order of its starts.

    Per run, Newton iterates until the step is below 1e-10 (or 50
    iterations) and accepts a point its seed box contains within that
    step.  A winding-1 seed has one run; for f = R it starts at the box's
    argument-principle mean (_power_sum_roots with m = 1), from the edge
    moments that isolation's windings left in counting's memo, when that
    lies inside the box, and otherwise at the centre; a caller's f starts
    at the centre.  A Group has one run from each of its starts.  A run
    fails when f' vanishes, when an iterate leaves its box dilated twice
    about its centre, or when 50 iterations end on a step of 1e-6 or more.
    The final point is re-certified by a winding-1 circle of radius
    10 * (final step + 1e-12), doubled, tripled and quadrupled while that
    circle fails, each walked from _CIRCLE_SEEDS = 9 seeds, 8 intervals;
    for R the samples of every first circle are read in one r_eval_many
    call.  A group resolves only
    when each of its runs ends so and its circles are pairwise disjoint
    and lie inside its box: then the m zeros it winds are all found.  The
    runs go in lockstep, one Newton step each per round; each round and the
    residuals of all final points read (f, f', noise) from one row call:
    for f = R, passed or by default, and no df, one
    r_eval_many(..., derivative=True) call, and for a caller's f its f and
    df (or a central difference) point by point, noise 0.  Each seed's
    iterates, and so its Zeros, are those of refining it alone.  The seeds
    are refined as given: a failure raises for the first failing seed in
    input order, and only locate_zeros splits a failed seed on.

    For R, whose values carry an error_estimate e, a step under e / |R'|
    also ends a run: a zero is located no better than that.  The circle
    then starts at no less than _CERT_NOISE_FACTOR = 10 times e / |R'| at
    the final point, from its residual call.  On that circle
    |R| ~ |R'| r is at least 10 e, so the noise moves each sample's phase
    by under asin(0.1) ~ 0.1 rad.  About the zero each of the circle's 8
    intervals turns the phase by pi/4, so a step reads under
    pi/4 + 0.2 rad, inside the walk's pi/2 contract (a larger step is
    bisected), and the noise stays far inside the integrality guard's 0.1
    turn.
    """
    found, errors = _refine(seeds, f, df)
    if errors:
        raise errors[min(errors)]
    return [zero for k in range(len(seeds)) for zero in found[k]]


def _refine(seeds: list[Box | Group], f, df
            ) -> tuple[dict[int, list[Zero]], dict[int, Exception]]:
    """refine_zeros' runs: the Zeros of each seed that resolved and the
    error of each that failed, both keyed by the seed's index."""
    if f is None:
        f = r_value
    batched = f is r_value and df is None

    def start(box: Box) -> complex:
        mean = _power_sum_roots(box, 1) if f is r_value else None
        if mean is not None and box.contains(mean[0]):
            return mean[0]
        return box.center

    def rows(indices: list[int]) -> list[tuple[complex, complex, float]]:
        zs = [runs[i].z for i in indices]
        if batched:
            return [(res.value, res.derivative, res.error_estimate)
                    for res in r_eval_many(zs, derivative=True)]
        return [(f(z), df(z) if df is not None else
                 _numeric_derivative(f, z, runs[i].box.max_side), 0.0)
                for i, z in zip(indices, zs)]

    pairs = [(seed.box, seed.starts) if isinstance(seed, Group)
             else (seed, (start(seed),)) for seed in seeds]
    runs: list[_Newton] = []
    owner: list[int] = []  # the index of each run's seed
    for k, (box, starts) in enumerate(pairs):
        runs += [_Newton(box, z) for z in starts]
        owner += [k] * len(starts)
    steps: dict[int, float] = {}
    errors: dict[int, Exception] = {}
    live = list(range(len(runs)))
    while live:
        still = []
        for i, row in zip(live, rows(live)):
            verdict = runs[i].advance(*row)
            if verdict is None:
                still.append(i)
            elif verdict:
                steps[i] = runs[i].step
            else:
                errors[owner[i]] = NewtonError(
                    f"Newton failed to converge inside {runs[i].box}")
        live = [i for i in still if owner[i] not in errors]

    done = sorted(i for i in steps if owner[i] not in errors)
    finals = rows(done)
    radii = [max(10.0 * (steps[i] + 1e-12),
                 _CERT_NOISE_FACTOR * noise / abs(slope) if slope else 0.0)
             for i, (_, slope, noise) in zip(done, finals)]
    if f is r_value:
        # the samples of every first circle in one batch; the walks read
        # them from the cache
        r_eval_many([z for i, radius in zip(done, radii)
                     for z in _circle_points(runs[i].z, radius)])
    zeros: dict[int, Zero] = {}
    for i, (value, _, _), radius in zip(done, finals, radii):
        if owner[i] in errors:  # a circle of its group failed
            continue
        z = runs[i].z
        for bump in range(4):
            try:
                cert = _circle_winding(f, z, radius * (1.0 + bump))
            except (ZeroOnPathError, NonIntegerWindingError):
                continue
            if cert == 1:
                zeros[i] = Zero(beta=z.real, gamma=z.imag,
                                enclosure_radius=radius * (1.0 + bump),
                                winding_certificate=cert,
                                residual_modulus=abs(value))
                break
        else:
            errors[owner[i]] = NewtonError(
                f"refined point {z} failed the winding-1 circle certificate")
    found: dict[int, list[Zero]] = {}
    for i, k in enumerate(owner):
        if k not in errors:
            found.setdefault(k, []).append(zeros[i])
    for k, (box, starts) in enumerate(pairs):
        if len(starts) > 1 and k in found and not _resolved(box, found[k]):
            del found[k]
            errors[k] = NewtonError(
                f"the circles of the group in {box} overlap or leave it")
    return found, errors


def _resolved(box: Box, zeros: list[Zero]) -> bool:
    """The certificate circles of ``zeros`` lie inside ``box`` and are
    pairwise disjoint."""
    discs = [(complex(z.beta, z.gamma), z.enclosure_radius) for z in zeros]
    return (all(box.contains(c, margin=-r) for c, r in discs)
            and all(abs(c1 - c2) > r1 + r2 for (c1, r1), (c2, r2)
                    in itertools.combinations(discs, 2)))


def refine_zero(seed: Box, f: Callable[[complex], complex] | None = None,
                df: Callable[[complex], complex] | None = None) -> Zero:
    """Refine one winding-1 seed rectangle to a certified Zero: the
    one-seed call of refine_zeros."""
    return refine_zeros([seed], f, df)[0]


def locate_zeros(box: Box, min_size: float = MIN_SIZE_DEFAULT,
                 f: Callable[[complex], complex] | None = None,
                 df: Callable[[complex], complex] | None = None,
                 ) -> tuple[list[Zero], list[tuple[Box, int]]]:
    """Isolate and refine all zeros in the box; returns (zeros, clusters).

    A seed that refine_zeros cannot resolve, a winding-1 piece or a group,
    for R or for a caller's f, is split (_split_conserving) and its
    children go back to isolation; the seeds they give are refined in the
    next round.  A failed seed under 64 * NEWTON_STEP_TOL raises its
    error instead.  Output is ordered by gamma then beta, independent of
    the subdivision execution order.
    """
    if f is None:
        f = r_value
    iso = isolate_zeros(box, min_size=min_size, f=f)
    seeds: list[Box | Group] = [*iso.isolated, *iso.groups]
    clusters = list(iso.clusters)
    zeros: list[Zero] = []
    while seeds:
        found, errors = _refine(seeds, f, df)
        zeros += [zero for group in found.values() for zero in group]
        retry: list[Box | Group] = []
        for k in sorted(errors):
            seed = seeds[k]
            piece, m = ((seed, 1) if isinstance(seed, Box)
                        else (seed.box, len(seed.starts)))
            if piece.max_side < 64.0 * NEWTON_STEP_TOL:
                raise errors[k]
            rest = _isolate(list(_split_conserving(f, piece, m)),
                            min_size, f)
            retry += [*rest.isolated, *rest.groups]
            clusters += rest.clusters
        seeds = retry
    zeros.sort(key=lambda z: (z.gamma, z.beta))
    clusters.sort(key=lambda bw: (bw[0].t_lo, bw[0].sigma_lo))
    return zeros, clusters


@dataclass(frozen=True)
class ZeroStatistics:
    count: int
    fraction_right: float     # share with beta > 1/2
    min_beta: float
    max_beta: float
    mean_gap: float           # mean spacing of ordered gammas (0 for n < 2)


def zero_statistics(zeros: list[Zero]) -> ZeroStatistics:
    """Summary statistics of a zero list (non-empty)."""
    if not zeros:
        raise DomainError("zero_statistics requires a non-empty list")
    betas = [z.beta for z in zeros]
    gammas = sorted(z.gamma for z in zeros)
    right = sum(1 for b in betas if b > 0.5)
    gaps = [b - a for a, b in zip(gammas, gammas[1:])]
    return ZeroStatistics(
        count=len(zeros),
        fraction_right=right / len(zeros),
        min_beta=min(betas),
        max_beta=max(betas),
        mean_gap=sum(gaps) / len(gaps) if gaps else 0.0,
    )
