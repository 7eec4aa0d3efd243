"""Isolation and refinement of individual zeros inside a box.

Winding-driven quad-tree subdivision splits a rectangle until every piece
encloses exactly one zero; Newton iteration (with bisection-style fallback)
refines each piece to a point, and every returned zero carries an
independent winding-1 certificate on a small circle around it.  For R a
run starts at its piece's argument-principle mean, (1/2 pi i) times the
integral of z d log R around it, which is the zero up to the quadrature
error of the edges; the edge walks of isolation already hold those
integrals (ArgTrace.moment), so the start costs no R value.  Windings
come from the engine in ``counting``: pieces are counted by
``rectangle_count``, a cut scan's window by ``_rectangle_winding`` and
circles by ``arg_variation``, all through the same integrality guard.  By
default R is evaluated through the same cached quadrature as counting, the
samples of a contour edge and of a cut scan's lattice row are evaluated in
one batch (r_eval_many), and the pieces of a box are refined in lockstep:
each Newton round takes R(s) and R'(s) at every live iterate from one
r_eval_many(..., derivative=True) call, and the residuals of all refined
points are one more call.  Piece edges lie on counting's per-line sample
lattice, so the two children of a split read the cut's samples from one
set of cache entries and most of their outer edges from the parent's.  The
scan of a split's cut for a zero of even multiplicity starts from those
same lattice samples.  It ends there when their minimum is interior and
too large against its neighbours for a double zero to lie beside it, or,
for R, lies at an end of the row where |R'/R| is too small for one (R' at
that one point is the only R it computes); otherwise it winds f around one
small window rectangle about that minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .auxiliary import r_eval_many, r_value, values_at
from .auxiliary import r_derivative  # noqa: F401  (bench/tracing.py wraps it here)
from .counting import (
    PERTURB_STEP,
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
class Box:
    """Axis-aligned rectangle [sigma_lo, sigma_hi] x [t_lo, t_hi]."""

    sigma_lo: float
    sigma_hi: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not (self.sigma_lo < self.sigma_hi and self.t_lo < self.t_hi):
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


class IsolationResult(NamedTuple):
    """Winding-1 rectangles plus any clusters unresolved at min_size."""

    isolated: list[Box]
    clusters: list[tuple[Box, int]]


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
    split.

    An even-multiplicity zero exactly on the cut does not disturb the phase
    along it (f keeps a constant argument there), so the winding of both
    children looks consistent; a double zero a fraction of a lattice step
    off the cut turns f by nearly 2 pi between two of the cut's samples,
    which the children's walk reads as a small step, so both wind 1.

    The scan reads the cut's own lattice samples, the points at which both
    children's windings sampled their shared edge (``child``'s top edge for
    a horizontal cut, its right edge for a vertical one), so for r_value
    the row is read from the cache.  Unless that row rules a double zero
    out (below), the scan winds f around one window rectangle: along the
    cut it spans [x_{k-1}, x_{k+1}] around the row's minimum x_k, clipped
    at the row's ends, and across it +-d, d half the larger lattice spacing
    h beside x_k.  The cut holds a zero when that integer winding is 2 or
    more, or when the window's walk meets a zero or a non-integer winding.

    The window covers both hazards.  A double zero p on the cut lies in
    [x_{k-1}, x_{k+1}], and one the children's walk misreads lies less
    than h / (2 tan(3 pi / 8)) = h / 4.83 off the cut: between the two
    lattice samples that straddle it f turns by up to 4 atan(h / 2e), e
    its distance from the cut, and the walk's nearest-branch rule misreads
    turns above 3 pi / 2.  h / 4.83 < d, so such a p lies inside the
    window.  The window's own walk reads it correctly: its long edges
    (_edge_seeds gives every edge at least 8 seeds) have samples at most
    2h / 7 apart, and p stays at least d - h / 4.83 ~ 0.29 h from them,
    far more than (2h / 7) / 4.83.  The rule is conservative: a close pair
    of simple zeros in the window also winds 2, and the split then moves
    its cut to the next offset.  The window's walk does not use
    rectangle_count, whose ladder moves the top edge by PERTURB_STEP, far
    more than a window at a fine min_size.

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

    k = 1.2 is an estimate for R, not a bound: _edge_seeds spaces the
    lattice from log t so that R's phase moves by about 1.2 a step, and
    nothing bounds |R'/R|.  At an end sample with no zero beside it
    |R'/R| h is R's own trend; the readings are 0.07 or less below
    t = 300, at most 0.71 in [10^4, 10^4 + 10] and 0.85 at -49 + 10^6 i
    (that scan winds its window), and the tests keep every cut end of the
    windows at 10^4 and 10^6 under 1.2.  Higher windows are unchecked.  A
    caller's f has no such estimate, and its end minimum always takes the
    window: (z - p)^2 e^(8z) on the cut t = 10 of [0, 2] x [9, 11], with
    p at 0.18 + 10 i (0.72 h from the end), has k = 2 and reads 0.78 there.
    """
    edges = _rectangle_edges(child.sigma_lo, child.sigma_hi, child.t_lo,
                             child.t_hi)
    edge = edges["top" if child.t_hi < box.t_hi else "right"]
    us = edge.seed_params()
    mags = [abs(v) for v in values_at(f, [edge.point(u) for u in us])]
    k_min = mags.index(min(mags))
    minimum = mags[k_min]
    if minimum == 0.0:
        return True
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
        window = (edge.level - d, edge.level + d, us[lo], us[hi])
    else:
        window = (us[lo], us[hi], edge.level - d, edge.level + d)
    try:
        return integer_winding(_rectangle_winding(f, *window)) >= 2
    except (ZeroOnPathError, NonIntegerWindingError):
        return True


def _split_conserving(f, box: Box, parent_w: int):
    """Split the box into two children whose windings sum to the parent's,
    nudging the cut (deterministic ladder) when a zero lands on it or the
    children disagree with the parent."""
    last: Exception | None = None
    for off in _SPLIT_OFFSETS:
        b1, b2 = box.split(off)
        try:
            w1, w2 = (rectangle_count(f, b.sigma_lo, b.sigma_hi, b.t_lo,
                                      b.t_hi)[0] for b in (b1, b2))
        except (ZeroOnPathError, ContourZeroError, NonIntegerWindingError) as exc:
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
    """Subdivide ``box`` into disjoint winding-1 rectangles.

    Pieces with winding zero are discarded; pieces with winding >= 2 are
    split (longer side first) until their side drops below ``min_size``, at
    which point they are reported as unresolved clusters rather than being
    silently merged.  The winding numbers of the output always sum to the
    winding of the input box.  A ``min_size`` that is not positive is
    refused: no piece would ever be small enough to report as a cluster.
    """
    if not min_size > 0.0:
        raise DomainError(f"min_size must be positive, got {min_size}")
    if f is None:
        f = r_value
    total, _ = rectangle_count(f, box.sigma_lo, box.sigma_hi, box.t_lo,
                               box.t_hi)
    isolated: list[Box] = []
    clusters: list[tuple[Box, int]] = []
    stack = [(box, total)]
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
        (b1, w1), (b2, w2) = _split_conserving(f, piece, w)
        stack.append((b1, w1))
        stack.append((b2, w2))
    isolated.sort(key=lambda b: (b.t_lo, b.sigma_lo))
    clusters.sort(key=lambda bw: (bw[0].t_lo, bw[0].sigma_lo))
    return IsolationResult(isolated=isolated, clusters=clusters)


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


def _circle_winding(f, center: complex, radius: float) -> int:
    trace = arg_variation(f, _Circle(center, radius), unit_params(17))
    return integer_winding(trace.total_variation / TWO_PI)


def _winding_mean(box: Box) -> complex | None:
    """(1/2 pi i) times the integral of z d log R around ``box``, its
    counting._rectangle_sums moment: the edges' first moments
    (ArgTrace.moment), which the windings of isolation left in counting's
    memo; an edge missing from it is walked here.  For a winding-1 box this
    is its zero, up to the quadrature error of the edges' nodes (Delves and
    Lyness, Math. Comp. 21, 1967).  None when a walk meets a zero."""
    try:
        _, moment = _rectangle_sums(r_value, box.sigma_lo, box.sigma_hi,
                                    box.t_lo, box.t_hi)
    except ZeroOnPathError:
        return None
    return moment / complex(0.0, TWO_PI)


# The refined point must land in the seed box (slightly extended: the
# winding windows may have been perturbed by a few PERTURB_STEPs).
_ACCEPT_MARGIN = 6.0 * PERTURB_STEP
_MAX_STARTS = 48

# The certificate circle starts no smaller than this many times the
# distance over which R's noise can move a zero, error_estimate / |R'|
# (see refine_zeros).
_CERT_NOISE_FACTOR = 10.0


class _Newton:
    """One seed's Newton run from ``z`` in ``box``, a winding-1 piece of
    ``seed``: the current iterate, the last step and the iterations taken,
    and the runs started so far."""

    def __init__(self, seed: Box, z: complex):
        self.seed = seed
        self.starts = 0
        self.restart(seed, z)

    def restart(self, box: Box, z: complex) -> None:
        self.box = box
        self.guard = box.dilated(2.0)
        self.z = z
        self.step = math.inf
        self.iters = 0
        self.starts += 1

    def advance(self, fz: complex, dz: complex, noise: float = 0.0
                ) -> bool | None:
        """Take one Newton step from f and f' at the iterate, f known to
        within ``noise``: None while the run goes on, then True when it
        ends at an accepted point and False when it fails.  A step under
        NEWTON_STEP_TOL, or under noise / |f'|, the distance over which the
        noise can move a zero, ends the run."""
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
        return self.seed.contains(nz, margin=_ACCEPT_MARGIN)


def refine_zeros(seeds: list[Box],
                 f: Callable[[complex], complex] | None = None,
                 df: Callable[[complex], complex] | None = None) -> list[Zero]:
    """Refine winding-1 seed rectangles to certified Zeros, in input order.

    Per seed, Newton iterates until the step is below 1e-10 (or 50
    iterations); an iterate escaping twice the seed triggers a
    bisection-style re-subdivision of the seed and a restart in its
    winding-1 child.  For f = R a run starts at its box's argument-principle
    mean (_winding_mean), from the edge moments that isolation's windings
    left in counting's memo, when that lies inside the box, and otherwise at
    the centre; a caller's f starts at the centre.  The final point is
    re-certified by a winding-1 circle of radius 10 * (final step + 1e-12),
    doubled, tripled and quadrupled while that circle fails.  The seeds run
    in lockstep, one Newton step each per round: for f = R, passed or by
    default, and no df, every round takes R and R' at all live iterates
    from one r_eval_many(..., derivative=True) call, and the residuals of
    all final points are one more such call; a caller's f or df is called
    point by point.  Each seed's iterates, and so its Zero, are those of refining it
    alone.  A failure raises for the first failing seed in input order.

    For R, whose values carry an error_estimate e, a step under e / |R'|
    also ends a run: a zero is located no better than that.  The circle
    then starts at no less than _CERT_NOISE_FACTOR = 10 times e / |R'| at
    the final point, from its residual call.  On that circle
    |R| ~ |R'| r is at least 10 e, so the noise moves each sample's phase
    by under asin(0.1) ~ 0.1 rad, far inside the walk's pi/2 contract and
    the integrality guard's 0.1 turn.
    """
    if f is None:
        f = r_value
    batched = f is r_value and df is None

    def start(box: Box) -> complex:
        mean = _winding_mean(box) if f is r_value else None
        return mean if mean is not None and box.contains(mean) else box.center

    runs = [_Newton(seed, start(seed)) for seed in seeds]
    ends: dict[int, tuple[complex, float]] = {}
    errors: dict[int, Exception] = {}
    live = list(range(len(runs)))
    while live:
        zs = [runs[i].z for i in live]
        if batched:
            rows = [(res.value, res.derivative, res.error_estimate)
                    for res in r_eval_many(zs, derivative=True)]
        else:
            rows = [(f(z), df(z) if df is not None else
                     _numeric_derivative(f, z, runs[i].box.max_side), 0.0)
                    for i, z in zip(live, zs)]
        still = []
        for i, row in zip(live, rows):
            run = runs[i]
            verdict = run.advance(*row)
            if verdict is None:
                still.append(i)
            elif verdict:
                ends[i] = run.z, run.step
            else:
                try:
                    split = (run.box.max_side >= 64.0 * NEWTON_STEP_TOL
                             and _split_conserving(f, run.box, 1))
                except ContourZeroError as exc:
                    errors[i] = exc
                    continue
                if not split or run.starts == _MAX_STARTS:
                    errors[i] = NewtonError(
                        f"Newton failed to converge inside {run.seed}")
                    continue
                (b1, w1), (b2, w2) = split
                child = b1 if w1 == 1 else b2
                run.restart(child, start(child))
                still.append(i)
        live = still

    done = sorted(ends)
    points = [ends[i][0] for i in done]
    if batched:
        residuals = [(res.value, _CERT_NOISE_FACTOR * res.error_estimate
                      / abs(res.derivative) if res.derivative else 0.0)
                     for res in r_eval_many(points, derivative=True)]
    else:
        residuals = [(value, 0.0) for value in values_at(f, points)]
    zeros: dict[int, Zero] = {}
    for i, (value, least) in zip(done, residuals):
        z, step = ends[i]
        radius = max(10.0 * (step + 1e-12), least)
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
            errors[i] = NewtonError(
                f"refined point {z} failed the winding-1 circle certificate")
    if errors:
        raise errors[min(errors)]
    return [zeros[i] for i in range(len(runs))]


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

    Output is ordered by gamma then beta, independent of the subdivision
    execution order.
    """
    iso = isolate_zeros(box, min_size=min_size, f=f)
    zeros = refine_zeros(iso.isolated, f, df)
    zeros.sort(key=lambda z: (z.gamma, z.beta))
    return zeros, iso.clusters


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
