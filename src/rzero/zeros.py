"""Isolation and refinement of individual zeros inside a box.

Winding-driven quad-tree subdivision splits a rectangle until every piece
encloses exactly one zero; Newton iteration (with bisection-style fallback)
refines each piece to a point, and every returned zero carries an
independent winding-1 certificate on a small circle around it.  Windings
come from the engine in ``counting``: pieces are counted by
``rectangle_count`` and circles by ``arg_variation`` through the same
integrality guard.  By default R is evaluated through the same cached
quadrature as counting, the samples of a contour edge and of each row of a
cut scan are evaluated in one batch (r_eval_many), and each Newton step
takes R(s) and R'(s) from one derivative entry (r_derivative).  Piece edges
lie on counting's per-line sample lattice, so the two children of a split
read the cut's samples from one set of cache entries and most of their
outer edges from the parent's.  The scan of a split's cut for a zero of
even multiplicity starts from those same lattice samples and adds two
33-point zoom rows, so only the zoom rows compute R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .auxiliary import r_derivative, r_value, values_at
from .counting import (
    PERTURB_STEP,
    _rectangle_edges,
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


def _zero_on_cut(f, box: Box, child: Box) -> bool:
    """Detect a zero sitting on the shared cut line of a split.

    An even-multiplicity zero exactly on the cut does not disturb the phase
    along it (f keeps a constant argument there), so the winding of both
    children looks consistent; a zoomed modulus scan of the cut exposes it.

    The first row is the cut's own lattice samples, the points at which
    both children's windings sampled their shared edge (``child``'s top
    edge for a horizontal cut, its right edge for a vertical one), so for
    r_value it is read from the cache.  Two zoom rows follow, each 33
    points over [x_{k-1}, x_{k+1}] around the previous row's minimum x_k
    and each one values_at call.  The zoomed minimum is judged against the
    local scale, the larger neighbour of the first row's minimum (|f|
    legitimately spans many orders of magnitude along long cuts).

    Two zoom rows suffice.  Near a double zero p on the cut,
    |f(x)| ~ |c| (x - p)^2, and p lies in [x_{k-1}, x_{k+1}], of width w
    (2h on a lattice of spacing h); one of the two neighbours is at least
    w/2 from p, so the local scale is at least |c| (w/2)^2 = |c| h^2.  The
    first zoom row has spacing w/32 and the second w/512, so a sample lies
    within w/1024 = h/512 of p and minimum / local <= (1/512)^2 ~ 4e-6,
    25 times under the threshold 1e-4.
    """
    edges = _rectangle_edges(child.sigma_lo, child.sigma_hi, child.t_lo,
                             child.t_hi)
    edge, seeds = edges["top" if child.t_hi < box.t_hi else "right"]
    us = sorted(edge.seed_params(seeds))
    local_scale = None
    for _ in range(3):  # the lattice row, then two zoom rows
        mags = [abs(v) for v in values_at(f, [edge.point(u) for u in us])]
        k_min = mags.index(min(mags))
        if local_scale is None:
            neighbours = [mags[k] for k in (k_min - 1, k_min + 1)
                          if 0 <= k < len(us)]
            local_scale = max(max(neighbours), 1e-12 * max(mags))
        minimum = mags[k_min]
        if minimum == 0.0:
            return True
        lo = us[max(0, k_min - 1)]
        hi = us[min(len(us) - 1, k_min + 1)]
        us = [lo + (hi - lo) * k / 32.0 for k in range(33)]
    return minimum < 1e-4 * local_scale


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

    def seed_params(self, seeds: int) -> list[float]:
        return unit_params(seeds)


def _circle_winding(f, center: complex, radius: float) -> int:
    trace = arg_variation(f, _Circle(center, radius), seeds=17)
    return integer_winding(trace.total_variation / TWO_PI)


def refine_zero(seed: Box, f: Callable[[complex], complex] | None = None,
                df: Callable[[complex], complex] | None = None) -> Zero:
    """Refine a winding-1 seed rectangle to a certified Zero.

    Newton iterates from the seed centre until the step is below 1e-10 (or
    50 iterations); an iterate escaping twice the seed triggers a
    bisection-style re-subdivision of the seed and a restart.  The final
    point is re-certified by a winding-1 circle of radius
    10 * (final step + 1e-12).
    """
    if f is None:
        f = r_value
        if df is None:
            df = r_derivative

    # The refined point must land in the seed box (slightly extended: the
    # winding windows may have been perturbed by a few PERTURB_STEPs).
    accept_margin = 6.0 * PERTURB_STEP

    def newton_from(z0: complex, box: Box):
        z = z0
        guard = box.dilated(2.0)
        step = math.inf
        for _ in range(NEWTON_MAX_ITER):
            # R' first: with the default f and df, f(z) is then served from
            # the derivative entry, so each iterate step-halves R once.
            dz = df(z) if df is not None else _numeric_derivative(f, z, box.max_side)
            fz = f(z)
            if dz == 0.0:
                return None, step
            nz = z - fz / dz
            step = abs(nz - z)
            z = nz
            if not guard.contains(z):
                return None, step
            if step < NEWTON_STEP_TOL:
                break
        else:
            if step >= 1e-6:
                return None, step
        if not seed.contains(z, margin=accept_margin):
            return None, step
        return z, step

    box = seed
    for _ in range(48):
        z, step = newton_from(box.center, box)
        if z is not None:
            radius = 10.0 * (step + 1e-12)
            residual = abs(f(z))
            for bump in range(4):
                try:
                    cert = _circle_winding(f, z, radius * (1.0 + bump))
                except (ZeroOnPathError, NonIntegerWindingError):
                    continue
                if cert == 1:
                    return Zero(beta=z.real, gamma=z.imag,
                                enclosure_radius=radius * (1.0 + bump),
                                winding_certificate=cert,
                                residual_modulus=residual)
            raise NewtonError(
                f"refined point {z} failed the winding-1 circle certificate"
            )
        # bisection-style fallback: shrink to the winding-1 child and retry
        if box.max_side < 64.0 * NEWTON_STEP_TOL:
            break
        (b1, w1), (b2, w2) = _split_conserving(f, box, 1)
        box = b1 if w1 == 1 else b2
    raise NewtonError(f"Newton failed to converge inside {seed}")


def locate_zeros(box: Box, min_size: float = MIN_SIZE_DEFAULT,
                 f: Callable[[complex], complex] | None = None,
                 df: Callable[[complex], complex] | None = None,
                 ) -> tuple[list[Zero], list[tuple[Box, int]]]:
    """Isolate and refine all zeros in the box; returns (zeros, clusters).

    Output is ordered by gamma then beta, independent of the subdivision
    execution order.
    """
    iso = isolate_zeros(box, min_size=min_size, f=f)
    zeros = [refine_zero(piece, f=f, df=df) for piece in iso.isolated]
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
