import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rzero.errors import (
    DegeneratePointError,
    DomainError,
    PoleOfGammaError,
    SingularPointError,
)
from rzero.special_functions import (
    TWO_PI,
    chi,
    eta,
    eta_batch,
    log_chi,
    log_gamma,
    _chi_batch,
    _log_gamma_batch,
)

mp.mp.dps = 30


def stirling_loggamma_mp(s):
    """Independent oracle: recurrence-shifted Stirling sum at 30 digits."""
    z = mp.mpc(s)
    acc = mp.mpc(0)
    while z.real < 20:
        acc += mp.log(z)
        z += 1
    res = (z - mp.mpf(1) / 2) * mp.log(z) - z + mp.log(2 * mp.pi) / 2
    w2 = z * z
    p = z
    for k in range(1, 13):
        res += mp.bernoulli(2 * k) / ((2 * k) * (2 * k - 1)) / p
        p *= w2
    return res - acc


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    def test_oracle_2_plus_10i(self):
        # frozen from the 30-digit shifted Stirling oracle
        expected = complex(-11.330171929826640883, 15.274040648533635286)
        assert abs(log_gamma(2 + 10j) - expected) < 1e-12

    @pytest.mark.parametrize("s", [2 + 10j, 0.3 + 5j, -3 + 100j, 7.5 + 0.1j,
                                   -20 + 3j, 0.5 + 1000j])
    def test_against_oracle(self, s):
        ref = complex(stirling_loggamma_mp(s))
        assert abs(cmath.exp(log_gamma(s) - ref) - 1.0) < 1e-12

    def test_conjugate_symmetry(self):
        s = 1.3 + 7.2j
        assert log_gamma(s.conjugate()) == log_gamma(s).conjugate()

    @pytest.mark.parametrize("s", [0.0, -1.0, -7.0, -3 + 1e-15j])
    def test_pole_error(self, s):
        with pytest.raises(PoleOfGammaError):
            log_gamma(s)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            log_gamma(complex(float("nan"), 1.0))

    def test_far_left_against_mpmath(self):
        # left of -_SHIFT_REAL log_gamma reflects instead of recurring
        rng = np.random.default_rng(13)
        for sigma, t in zip(rng.uniform(-1260.0, -10.0, 200),
                            rng.uniform(0.3, 1e5, 200)):
            ref = complex(mp.loggamma(mp.mpc(sigma, t)))
            assert abs(log_gamma(complex(sigma, t)) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("t", [0.3, 7.0, 120.0, 1e4])
    def test_continuous_across_reflection_threshold(self, t):
        # same branch on both sides of sigma = -10
        left = log_gamma(complex(-10.0 - 1e-9, t))
        right = log_gamma(complex(-10.0 + 1e-9, t))
        assert abs(left - right) < 1e-6

    @given(st.floats(-5.0, 15.0), st.floats(0.1, 200.0))
    def test_recurrence(self, sigma, t):
        s = complex(sigma, t)
        lhs = log_gamma(s + 1.0)
        rhs = log_gamma(s) + cmath.log(s)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


class TestChi:
    def test_half(self):
        assert abs(chi(0.5) - 1.0) < 1e-12

    def test_at_two(self):
        assert chi(2.0) == pytest.approx(-2.0 * math.pi ** 2, rel=1e-12)

    def test_functional_identity_point(self):
        s = 0.3 + 5j
        assert abs(chi(s) * chi(1 - s) - 1.0) < 1e-10

    def test_functional_identity_grid(self):
        worst = 0.0
        for sigma in np.arange(-3.0, 4.01, 0.5):
            for t in np.arange(1.0, 100.01, 3.0):
                s = complex(sigma, t)
                worst = max(worst, abs(chi(s) * chi(1 - s) - 1.0))
        assert worst < 1e-10

    def test_critical_line_modulus(self):
        worst = max(abs(abs(chi(complex(0.5, t))) - 1.0)
                    for t in np.linspace(1.0, 1000.0, 400))
        assert worst < 1e-10

    def test_pole_raises(self):
        with pytest.raises(SingularPointError):
            chi(3.0)

    def test_trivial_cancellation_point(self):
        # chi(-3) = 2^-3 pi^-4 sin(-3pi/2) Gamma(4): the Gamma pole cancels
        expected = complex(mp.mpf(2) ** -3 * mp.pi ** -4 * 6)
        assert chi(-3.0) == pytest.approx(expected.real, rel=1e-12)

    def test_conjugate_symmetry(self):
        s = -1.2 + 40.0j
        assert chi(s.conjugate()) == pytest.approx(chi(s).conjugate(), rel=1e-12)

    def test_log_chi_continuity_on_vertical_line(self):
        # the branch must not jump anywhere along the line
        sigma = -2.3
        ts = np.linspace(0.5, 80.0, 1200)
        vals = [log_chi(complex(sigma, t)).imag for t in ts]
        steps = np.abs(np.diff(vals))
        assert steps.max() < 0.5 * math.pi


class TestEta:
    def test_unit_point(self):
        assert eta(1 + TWO_PI * 1j) == pytest.approx(1.0)

    def test_branch_below(self):
        assert eta(1 - TWO_PI * 1j) == pytest.approx(1j)

    def test_high_point(self):
        # frozen from the direct square root of (1000 + 0.5i)/(2 pi) at 40
        # digits, branch-checked
        v = eta(0.5 + 1000j)
        assert v == pytest.approx(12.615663004340226 + 0.0031539155539653467j,
                                  rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegeneratePointError):
            eta(1.0)

    @given(st.floats(-5.0, 5.0), st.floats(0.1, 1e5))
    def test_branch_and_square(self, sigma, t):
        s = complex(sigma, t)
        e = eta(s)
        square = (s - 1.0) / (2j * math.pi)
        assert e.real + e.imag > 0.0
        assert abs(e ** 2 - square) <= 1e-12 * max(1.0, abs(square))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(42)
        sigma = rng.uniform(-3, 4, 500)
        t = rng.uniform(0.1, 1e5, 500)
        batch = eta_batch(sigma, t)
        for k in range(500):
            scalar = eta(complex(sigma[k], t[k]))
            assert cmath.isclose(complex(batch[k]), scalar, rel_tol=1e-15)
        # validate and acceptance criterion 6 check the batch chi and
        # log Gamma, while R runs the scalar ones: they agree to about
        # 1.2e-13 relative on sigma in [-3, 4], t in [1, 100]
        z = rng.uniform(-3, 4, 2000) + 1j * rng.uniform(1, 100, 2000)
        for vectorised, scalar in ((_chi_batch, chi),
                                   (_log_gamma_batch, log_gamma)):
            batch = vectorised(z)
            for k in range(z.size):
                assert cmath.isclose(complex(batch[k]), scalar(complex(z[k])),
                                     rel_tol=1e-12)

    @given(st.floats(-5.0, 5.0), st.floats(0.1, 1e4))
    def test_exponential_argument_identity(self, sigma, t):
        # Im(-i pi eta^2) is exactly Im((1-s)/2) = -t/2
        e = eta(complex(sigma, t))
        lhs = (-1j * math.pi * e ** 2).imag
        assert abs(lhs + t / 2.0) <= 1e-12 * max(1.0, t / 2.0)


class TestExpansionChecks:
    def test_arg_eta_power_along_left_curve(self):
        # Im((s-1) log eta) - (t/2) log(t/2pi) stays below C t^{-1/5} log^2 t
        # along sigma = 1 - t^{2/5} log t; the fitted C is reported.
        worst_c = 0.0
        for t in np.geomspace(1e3, 1e5, 40):
            sigma = 1.0 - t ** 0.4 * math.log(t)
            s = complex(sigma, t)
            ev = eta(s)
            dev = ((s - 1.0) * cmath.log(ev)).imag \
                - 0.5 * t * math.log(t / TWO_PI)
            envelope = t ** -0.2 * math.log(t) ** 2
            worst_c = max(worst_c, abs(dev) / envelope)
        print(f"\nfitted envelope constant C = {worst_c:.3f}")
        assert worst_c < 1.0
