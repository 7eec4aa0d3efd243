"""Complex special functions used by the auxiliary-function machinery.

Provides a principal-branch log-gamma (Stirling with Bernoulli corrections
after an upward recurrence shift, or by reflection far left), a log of
sin(pi z) continuous on the upper half-plane, the functional-equation factor
chi(s) = (2*pi)^s / (2*Gamma(s)*cos(pi*s/2)) together with a branch of
log chi that is continuous on vertical lines, and the square-root variable
eta = sqrt((s-1)/(2*pi*i)) with the branch Re(eta) + Im(eta) > 0.  chi and
eta also have vectorised forms for the property suites of rzero.validation.

All functions are pure; inputs are ordinary ``complex`` numbers with finite
components.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    DegeneratePointError,
    DomainError,
    PoleOfGammaError,
    SingularPointError,
)

TWO_PI = 2.0 * math.pi
LOG_TWO_PI = math.log(TWO_PI)
LOG_PI = math.log(math.pi)
_LOG_HALF_I = complex(-math.log(2.0), 0.5 * math.pi)  # log(i/2)

# B_{2k} for k = 1..10; Stirling correction uses B_{2k}/((2k)(2k-1) w^{2k-1}).
_BERNOULLI_2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
)
_STIRLING_COEFFS = tuple(
    b / ((2 * k) * (2 * k - 1)) for k, b in enumerate(_BERNOULLI_2K, start=1)
)
_SHIFT_REAL = 10.0


def as_complex(s) -> complex:
    """Coerce to ``complex`` and reject non-finite components."""
    z = complex(s)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite point {z!r}")
    return z


def _stirling(w: complex) -> complex:
    # valid for Re(w) >= _SHIFT_REAL
    res = (w - 0.5) * cmath.log(w) - w + 0.5 * LOG_TWO_PI
    w2 = w * w
    p = w
    for c in _STIRLING_COEFFS:
        res += c / p
        p *= w2
    return res


def log_sin_pi(z: complex) -> complex:
    """log sin(pi z) for Im z > 0, continuous there and 0 at z = 1/2:

        -i pi z + log(1 - e^{2 i pi z}) + log(i/2),

    the principal log being safe since |e^{2 i pi z}| < 1."""
    return (-1j * math.pi * z + cmath.log(1.0 - cmath.exp(2j * math.pi * z))
            + _LOG_HALF_I)


def log_gamma(s) -> complex:
    """Principal branch of log Gamma(s).

    The imaginary part is continuous on any path in the plane cut along the
    negative real axis, normalised to be real on the positive real axis.
    Points on the negative real axis are treated as limits from above.
    """
    z = as_complex(s)
    if z.real <= 0.5:
        n = round(z.real)
        if n <= 0 and abs(z - n) <= 1e-14:
            raise PoleOfGammaError(f"gamma pole at {z}")
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    if z.imag > 0.0 and z.real <= -_SHIFT_REAL:
        # Reflection, O(1) in sigma.  Both sides are continuous on Im z > 0
        # and agree as z -> 1/2, so the result is the principal branch.
        return LOG_PI - log_sin_pi(z) - log_gamma(1.0 - z)
    # Upward recurrence keeps every intermediate point in the cut plane for
    # Im(z) >= 0, so principal logs compose to the principal branch.
    acc = 0.0 + 0.0j
    while z.real < _SHIFT_REAL:
        acc += cmath.log(z)
        z += 1.0
    return _stirling(z) - acc


def _log_gamma_batch(z: np.ndarray) -> np.ndarray:
    """Vectorised principal log Gamma for arrays with Im(z) > 0."""
    z = np.asarray(z, dtype=complex).copy()
    acc = np.zeros_like(z)
    mask = z.real < _SHIFT_REAL
    while mask.any():
        acc[mask] += np.log(z[mask])
        z[mask] += 1.0
        mask = z.real < _SHIFT_REAL
    res = (z - 0.5) * np.log(z) - z + 0.5 * LOG_TWO_PI
    w2 = z * z
    p = z.copy()
    for c in _STIRLING_COEFFS:
        res += c / p
        p *= w2
    return res - acc


def log_chi(s) -> complex:
    """log of chi(s) = (2*pi)^s / (2*Gamma(s)*cos(pi*s/2)).

    The branch is continuous on every vertical line with t > 0 (and, by
    conjugation, t < 0); for t = 0 the principal logarithm of chi is used.
    """
    z = as_complex(s)
    if z.imag > 0.0:
        # cos(pi*s/2) = e^{-i pi s/2} (1 + e^{i pi s}) / 2 with |e^{i pi s}| < 1.
        return (
            z * LOG_TWO_PI
            - log_gamma(z)
            + 0.5j * math.pi * z
            - cmath.log(1.0 + cmath.exp(1j * math.pi * z))
        )
    if z.imag < 0.0:
        return log_chi(z.conjugate()).conjugate()
    return cmath.log(chi(z))


def chi(s) -> complex:
    """Functional-equation factor chi(s); satisfies chi(s)*chi(1-s) = 1.

    Evaluated through the log domain when |Im s| > 5 (the cosine factor grows
    like e^{pi|t|/2}); directly otherwise, using the reflected product
    2^s pi^{s-1} sin(pi*s/2) Gamma(1-s) on the left half-plane so that the
    trivial pole/zero cancellations at negative odd integers are exact.
    """
    z = as_complex(s)
    if abs(z.imag) > 5.0:
        return cmath.exp(log_chi(z))
    if z.real <= 0.5:
        return cmath.exp(
            z * math.log(2.0) + (z - 1.0) * math.log(math.pi) + log_gamma(1.0 - z)
        ) * cmath.sin(0.5 * math.pi * z)
    c = cmath.cos(0.5 * math.pi * z)
    if abs(c) < 1e-8:
        raise SingularPointError(f"chi pole near s = {z}")
    return cmath.exp(z * LOG_TWO_PI - math.log(2.0) - log_gamma(z)) / c


def _chi_batch(z: np.ndarray) -> np.ndarray:
    """Vectorised chi for arrays with Im(z) > 0 (log-domain throughout)."""
    z = np.asarray(z, dtype=complex)
    log_val = (
        z * LOG_TWO_PI
        - _log_gamma_batch(z)
        + 0.5j * math.pi * z
        - np.log(1.0 + np.exp(1j * math.pi * z))
    )
    return np.exp(log_val)


def eta(s) -> complex:
    """Square root of (s-1)/(2*pi*i) with the branch Re + Im > 0.

    On the (unreachable for t > 0) boundary Re + Im = 0 the tie is broken
    towards Re >= 0.
    """
    z = as_complex(s)
    if z == 1.0:
        raise DegeneratePointError("eta undefined at s = 1")
    w = cmath.sqrt((z - 1.0) / (2j * math.pi))
    sel = w.real + w.imag
    if sel < 0.0 or (sel == 0.0 and w.real < 0.0):
        w = -w
    return w


def eta_batch(sigma: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectorised eta values for the property suites."""
    square = (sigma - 1.0 + 1j * t) / (2j * math.pi)
    w = np.sqrt(square)
    flip = (w.real + w.imag < 0.0) | ((w.real + w.imag == 0.0) & (w.real < 0.0))
    w[flip] = -w[flip]
    return w
