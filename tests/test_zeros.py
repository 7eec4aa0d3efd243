import cmath
import dataclasses
import math

import pytest

from rzero.counting import _rectangle_edges, rectangle_count
from rzero import auxiliary
from rzero.auxiliary import (
    r_eval_cache_clear,
    r_eval_many,
    r_value,
    values_at,
)
from rzero.errors import DomainError, NewtonError
from rzero.zeros import (
    Box,
    Zero,
    _circle_winding,
    _split_conserving,
    _winding_mean,
    isolate_zeros,
    locate_zeros,
    refine_zero,
    refine_zeros,
    zero_statistics,
)

# Lowest zero with gamma > 10, frozen from a 40-digit Newton polish of the
# subdivision seed (independent fine-step quadrature).
LOWEST_ZERO = complex(-1.572867000977607, 22.422892389329773)


def quadratic(z):
    return z * z - (2 + 2j)


QUADRATIC_ROOT = cmath.sqrt(2 + 2j)  # the root in the right half-plane


class TestBox:
    def test_split_longer_side(self):
        wide = Box(0.0, 4.0, 0.0, 1.0)
        b1, b2 = wide.split()
        assert b1.sigma_hi == pytest.approx(2.0)
        tall = Box(0.0, 1.0, 0.0, 4.0)
        b1, b2 = tall.split()
        assert b1.t_hi == pytest.approx(2.0)

    def test_tie_splits_in_t(self):
        square = Box(0.0, 2.0, 9.0, 11.0)
        b1, b2 = square.split()
        assert b1.t_hi == pytest.approx(10.0)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            Box(1.0, 1.0, 0.0, 1.0)

    def test_margin_containment(self):
        box = Box(0.0, 1.0, 0.0, 1.0)
        assert not box.contains(1.005 + 0.5j)
        assert box.contains(1.005 + 0.5j, margin=0.01)


class TestIsolateZeros:
    def test_empty_box(self):
        res = isolate_zeros(Box(3.0, 4.0, 9.0, 10.0), f=quadratic)
        assert res.isolated == [] and res.clusters == []

    def test_two_simple_zeros(self):
        f = lambda z: (z - (1 + 10j)) * (z - (1.2 + 10.5j))
        res = isolate_zeros(Box(0.0, 2.0, 9.0, 11.0), f=f)
        assert len(res.isolated) == 2
        assert res.clusters == []

    def test_partition_property(self):
        f = lambda z: (z - (1 + 10j)) * (z - (1.2 + 10.5j)) * (z - (0.3 + 9.4j))
        box = Box(0.0, 2.0, 9.0, 11.0)
        res = isolate_zeros(box, f=f)
        total, _ = rectangle_count(f, box.sigma_lo, box.sigma_hi,
                                   box.t_lo, box.t_hi)
        assert len(res.isolated) == total == 3

    def test_double_zero_reported_as_cluster(self):
        f = lambda z: (z - (1 + 10j)) ** 2
        res = isolate_zeros(Box(0.0, 2.0, 9.0, 11.0), min_size=1e-2, f=f)
        assert res.isolated == []
        assert len(res.clusters) == 1
        assert res.clusters[0][1] == 2

    @pytest.mark.parametrize("min_size", [0.0, -1e-3, math.nan])
    def test_min_size_must_be_positive(self, min_size):
        # a double zero could never be reported as a cluster; the box is
        # refused before any winding is computed
        calls = []

        def f(z):
            calls.append(z)
            return (z - (1 + 10j)) ** 2

        box = Box(0.0, 2.0, 9.0, 11.0)
        with pytest.raises(DomainError, match="min_size"):
            isolate_zeros(box, min_size=min_size, f=f)
        with pytest.raises(DomainError, match="min_size"):
            locate_zeros(box, min_size=min_size, f=f)
        assert calls == []


class TestCutScan:
    @staticmethod
    def assert_one_double_cluster(box, zero, min_size=1e-2, f=None):
        if f is None:
            f = lambda z: (z - zero) ** 2
        res = isolate_zeros(box, min_size=min_size, f=f)
        assert res.isolated == []
        assert len(res.clusters) == 1
        cluster, winding = res.clusters[0]
        assert winding == 2 and cluster.contains(zero)
        return res

    # 0.375 is mid-interval, where the lattice row's ratio is its bound
    # 1/9; 1.0625 is a quarter step right of a sample
    @pytest.mark.parametrize("sigma", [1.0 / 3.0, 0.7071, 0.375, 1.0625])
    def test_double_zero_between_lattice_samples(self, sigma):
        # the first split of the box cuts along t = 10, through the double
        # zero, whose sigma lies between the cut's lattice samples k/4
        self.assert_one_double_cluster(Box(0.0, 2.0, 9.0, 11.0),
                                       complex(sigma, 10.0))

    def test_double_zero_beside_a_partial_end_interval(self):
        # on [0.2, 2.2] the cut's row starts with the partial interval
        # [0.2, 0.25]; a zero midway between 0.25 and 0.5 leaves a ratio of
        # 0.51, the bound for those spacings and far above 1/9
        self.assert_one_double_cluster(Box(0.2, 2.2, 9.0, 11.0),
                                       complex(0.375, 10.0))

    # a double zero near an end of the cut t = 10's lattice row (end
    # interval h = 1/4), on the cut or h/5 off it (where the walk misreads
    # its 2 pi turn), times e^{-a z} with |a| h = 0, 2 or 3; the sign of a
    # makes |e^{-a z}| grow into the box, so g'/g = -a cancels part of
    # 2/(z - p) at the end sample and draws the row's minimum there.  At
    # 0.18 and 1.82 (0.72 h from the end) with |a| h = 2, |f'/f| h at the
    # end sample is 0.78, under the exit's 0.82 for R, yet p is there
    @pytest.mark.parametrize("trend", [0.0, 2.0, 3.0])
    @pytest.mark.parametrize("sigma, off", [
        (0.05, 0.0), (0.12, 0.0), (0.18, 0.0), (1.82, 0.0), (1.88, 0.0),
        (1.95, 0.0), (0.12, 0.05), (0.12, -0.05), (1.88, 0.05),
        (1.88, -0.05)])
    def test_double_zero_near_an_end_of_the_cut(self, monkeypatch, sigma,
                                                off, trend):
        # a caller's f has no bound on its trend, so the first scan reads
        # no f'/f at its end minimum: it evaluates f only at its 9-point
        # lattice row and in its window's walk, and the zero is one cluster
        import rzero.zeros as zeros_mod
        zero = complex(sigma, 10.0 + off)
        a = (trend if sigma > 1.0 else -trend) / 0.25
        calls = [0]

        def f(z):
            calls[0] += 1
            return (z - zero) ** 2 * cmath.exp(-a * z)

        scans = []  # per scan: its row reads, window walks and calls of f
        real_scan = zeros_mod._zero_on_cut
        real_rows = zeros_mod.values_at
        real_window = zeros_mod._rectangle_winding

        def scan(f, box, child):
            scans.append([])
            before = calls[0]
            out = real_scan(f, box, child)
            scans[-1].append(calls[0] - before)
            return out

        def rows(f, points):
            scans[-1].append(("row", len(points)))
            return real_rows(f, points)

        def window(f, *sides):
            before = calls[0]
            try:
                return real_window(f, *sides)
            finally:
                scans[-1].append(("window", calls[0] - before))

        monkeypatch.setattr(zeros_mod, "_zero_on_cut", scan)
        monkeypatch.setattr(zeros_mod, "values_at", rows)
        monkeypatch.setattr(zeros_mod, "_rectangle_winding", window)
        self.assert_one_double_cluster(Box(0.0, 2.0, 9.0, 11.0), zero, f=f)
        # the window [x_e, x_e -+ h] x [10 - h/2, 10 + h/2], h = 1/4: its
        # edges take 8, 9, 8 and 9 lattice points and none is bisected
        assert scans[0] == [("row", 9), ("window", 34), 43]

    # the windows at height that CI pins
    @pytest.mark.parametrize("t_lo, t_hi, left", [
        (10000.0, 10010.0, -30.0), (1000000.0, 1000003.0, -100.0),
        (10000000.0, 10000002.0, -300.0)])
    def test_trend_at_cut_ends_under_estimate(self, monkeypatch, t_lo, t_hi,
                                              left):
        # the end exit's bound assumes |g'/g| h <= 1.2 for R; at an end
        # sample with no zero beside it |R'/R| h is that trend, so every
        # end of every cut row the split scans reads under 1.2 (largest
        # 0.71 at -6 + 10010 i, 0.85 at -49 + 10^6 i and 0.39 in the one
        # scan at 10^7)
        import rzero.zeros as zeros_mod
        readings = []  # per end sample: |R'/R| h, and whether it is min
        real = zeros_mod._zero_on_cut

        def scan(f, box, child):
            edges = _rectangle_edges(child.sigma_lo, child.sigma_hi,
                                     child.t_lo, child.t_hi)
            edge = edges["top" if child.t_hi < box.t_hi else "right"]
            us = sorted(edge.seed_params())
            mags = [abs(v) for v in values_at(f, [edge.point(u) for u in us])]
            for k, j in ((0, 1), (-1, -2)):
                res = r_eval_many([edge.point(us[k])], derivative=True)[0]
                readings.append((abs(res.log_derivative) * abs(us[k] - us[j]),
                                 mags[k] == min(mags)))
            return real(f, box, child)

        monkeypatch.setattr(zeros_mod, "_zero_on_cut", scan)
        r_eval_cache_clear()
        locate_zeros(Box(left, 2.0, t_lo, t_hi), min_size=1e-3)
        assert any(at_min for _, at_min in readings)
        assert max(k for k, _ in readings) < 1.2

    def test_end_minimum_computes_one_derivative(self, monkeypatch):
        # the cut t = 27.5 of [-4, 2] x [20, 35] has its smallest |R| at
        # sigma = 2, an end of the row; R'/R there rules a double zero out,
        # so the scan computes one R value (R' at the end sample) and winds
        # no window
        import rzero.zeros as zeros_mod
        box = Box(-4.0, 2.0, 20.0, 35.0)
        r_eval_cache_clear()
        parent_w = rectangle_count(r_value, box.sigma_lo, box.sigma_hi,
                                   box.t_lo, box.t_hi)[0]
        computed = []
        real = zeros_mod._zero_on_cut

        def counted(f, box, child):
            before = auxiliary._R_CACHE.cache_info().misses
            out = real(f, box, child)
            computed.append(auxiliary._R_CACHE.cache_info().misses - before)
            return out

        monkeypatch.setattr(zeros_mod, "_zero_on_cut", counted)
        (b1, w1), (b2, w2) = _split_conserving(r_value, box, parent_w)
        assert (w1, w2) == (1, 1) and b1.t_hi == 27.5
        assert computed == [1]
        assert (2.0, 27.5, True) in auxiliary._R_CACHE._store

    def test_first_row_read_from_the_cache(self, monkeypatch):
        # two zeros, at t ~ 22.4 and ~ 32.2, one in each child of the cut
        # t = 27.5, so the split scans the cut; its row is the lattice row
        # both children sampled, so it computes no R (R'/R at the row's end
        # minimum then ends the scan before any window)
        import rzero.zeros as zeros_mod
        box = Box(-4.0, 2.0, 20.0, 35.0)
        r_eval_cache_clear()
        parent_w = rectangle_count(r_value, box.sigma_lo, box.sigma_hi,
                                   box.t_lo, box.t_hi)[0]
        rows = []  # (points, R values computed) of each scan row

        def counted(f, points):
            before = auxiliary._R_CACHE.cache_info().misses
            out = values_at(f, points)
            rows.append((len(points),
                         auxiliary._R_CACHE.cache_info().misses - before))
            return out

        monkeypatch.setattr(zeros_mod, "values_at", counted)
        (b1, w1), (b2, w2) = _split_conserving(r_value, box, parent_w)
        assert (w1, w2) == (1, 1) and b1.t_hi == 27.5
        assert rows and rows[0][0] > 8 and rows[0][1] == 0
        assert sum(computed for _, computed in rows) <= 66

    def test_lattice_row_rules_out_a_double_zero(self, monkeypatch):
        # the cut t = 22.5 of [-4, 2] x [10, 35] passes the zero at
        # t ~ 22.42; the lattice row's minimum is interior and too large
        # against its neighbours for a double zero beside it, so the scan
        # computes no R beyond that row
        import rzero.zeros as zeros_mod
        box = Box(-4.0, 2.0, 10.0, 35.0)
        r_eval_cache_clear()
        parent_w = rectangle_count(r_value, box.sigma_lo, box.sigma_hi,
                                   box.t_lo, box.t_hi)[0]
        rows = []  # (|R| along the row, R values computed) of each row

        def counted(f, points):
            before = auxiliary._R_CACHE.cache_info().misses
            out = values_at(f, points)
            rows.append(([abs(v) for v in out],
                         auxiliary._R_CACHE.cache_info().misses - before))
            return out

        monkeypatch.setattr(zeros_mod, "values_at", counted)
        (b1, w1), (b2, w2) = _split_conserving(r_value, box, parent_w)
        assert (w1, w2) == (1, 1) and b1.t_hi == 22.5
        assert len(rows) == 1 and rows[0][1] == 0
        mags = rows[0][0]
        assert 0 < mags.index(min(mags)) < len(mags) - 1

    def test_double_zero_beside_a_fine_cut(self, monkeypatch):
        # at min_size 1e-5 a cut runs 6e-7 from the double zero, where its
        # 8-sample lattice is 8.7e-6 apart: the winding walk reads the
        # 2 pi turn between two samples as a small step, so both children
        # wind 1; the scan's window, h/2 either side of the cut, holds the
        # zero and winds 2
        import rzero.zeros as zeros_mod
        zero = complex(1.0, 10.3)
        box = Box(0.0, 2.0, 9.0, 11.0)
        res = self.assert_one_double_cluster(box, zero, min_size=1e-5)
        # the lattice-row exit plays no part here
        monkeypatch.setattr(zeros_mod, "_CUT_MODEL_MARGIN", math.inf)
        assert self.assert_one_double_cluster(box, zero, min_size=1e-5) == res

    def test_window_computes_fewer_r_values_at_height(self, monkeypatch):
        # in the window at 10^6 one cold scan passes both exits (its end
        # reads |R'/R| h = 0.85) and winds its window: the scans compute 31
        # R values, where two 33-point zoom rows computed 63
        import rzero.zeros as zeros_mod
        computed, windows = [], []
        real_scan = zeros_mod._zero_on_cut
        real_window = zeros_mod._rectangle_winding

        def scan(f, box, child):
            before = auxiliary._R_CACHE.cache_info().misses
            out = real_scan(f, box, child)
            computed.append(auxiliary._R_CACHE.cache_info().misses - before)
            return out

        def window(f, *sides):
            windows.append(sides)
            return real_window(f, *sides)

        monkeypatch.setattr(zeros_mod, "_zero_on_cut", scan)
        monkeypatch.setattr(zeros_mod, "_rectangle_winding", window)
        r_eval_cache_clear()
        locate_zeros(Box(-100.0, 2.0, 1e6, 1e6 + 3.0))
        assert len(windows) == 1
        assert sum(computed) < 63

    def test_window_walk_meeting_a_zero_moves_the_cut(self, monkeypatch):
        # the first scan's window is [0.25, 0.75] x [9.875, 10.125]; its top
        # edge's lattice (k/14) samples the double zero at 0.5 + 10.125 i,
        # so the walk raises and the scan reports the cut, and the split
        # moves to offset 0.11 (the cut t = 10.22): the rule is
        # conservative, and the zero is still one cluster
        import rzero.zeros as zeros_mod
        zero = complex(0.5, 10.125)
        decisions = []
        real = zeros_mod._zero_on_cut

        def scan(f, box, child):
            decisions.append((child.t_hi, real(f, box, child)))
            return decisions[-1][1]

        monkeypatch.setattr(zeros_mod, "_zero_on_cut", scan)
        res = isolate_zeros(Box(0.0, 2.0, 9.0, 11.0), min_size=1e-2,
                            f=lambda z: (z - zero) ** 2 * (z - (1.5 + 9.5j)))
        assert decisions[:2] == [(10.0, True), (10.22, False)]
        assert len(res.isolated) == 1 and res.isolated[0].contains(1.5 + 9.5j)
        assert len(res.clusters) == 1
        cluster, winding = res.clusters[0]
        assert winding == 2 and cluster.contains(zero)

    @pytest.mark.xfail(strict=True, reason=(
        "the interior exit assumes the row's minimum is the sample nearest "
        "the double zero; a trend of one e-fold a step moves it away"))
    def test_double_zero_under_a_trend_of_one_a_step(self):
        # p = 1.1 + 10 i on the cut t = 10 (h = 1/4) times e^{-4z}: the
        # trend draws the row's minimum to 1.25, not the sample 1.0 nearest
        # p, and its ratio there, 0.382, clears the exit's 2/9, so the
        # split keeps two winding-1 children
        zero = complex(1.1, 10.0)
        self.assert_one_double_cluster(
            Box(0.0, 2.0, 9.0, 11.0), zero,
            f=lambda z: (z - zero) ** 2 * cmath.exp(-4.0 * z))


class TestRefineZero:
    def test_polynomial_root(self):
        seed = Box(1.0, 2.0, 0.2, 1.0)
        zero = refine_zero(seed, f=quadratic, df=lambda z: 2 * z)
        assert complex(zero.beta, zero.gamma) == pytest.approx(QUADRATIC_ROOT,
                                                               abs=1e-10)
        assert zero.winding_certificate == 1
        assert zero.residual_modulus < 1e-8

    def test_polynomial_root_numeric_derivative(self):
        seed = Box(1.0, 2.0, 0.2, 1.0)
        zero = refine_zero(seed, f=quadratic)
        assert complex(zero.beta, zero.gamma) == pytest.approx(QUADRATIC_ROOT,
                                                               abs=1e-9)

    def test_newton_quadratic_convergence(self):
        # e_{k+1}/e_k^2 stays bounded on a simple zero (pairs above the
        # rounding floor only)
        z = 1.2 + 0.4j
        errors = []
        for _ in range(6):
            errors.append(abs(z - QUADRATIC_ROOT))
            z = z - quadratic(z) / (2 * z)
        ratios = [errors[k + 1] / errors[k] ** 2
                  for k in range(len(errors) - 1) if errors[k] > 1e-6]
        assert len(ratios) >= 3
        assert all(r < 1.0 for r in ratios[-3:])

    def test_lowest_zero_fixture(self):
        seed = Box(-4.0, 2.0, 20.0, 25.0)
        zero = refine_zero(seed)
        assert complex(zero.beta, zero.gamma) == pytest.approx(LOWEST_ZERO,
                                                               abs=1e-8)
        assert zero.residual_modulus < 1e-8
        assert zero.gamma > 0

    def test_cold_runs_bit_identical(self):
        seed = Box(-4.0, 2.0, 20.0, 25.0)
        r_eval_cache_clear()
        first = refine_zero(seed)
        r_eval_cache_clear()
        assert refine_zero(seed) == first

    def test_cold_default_refinement_one_entry_per_iterate(self, monkeypatch):
        # each Newton round takes R and R' at its iterates from derivative
        # entries: no value entry is made at an iterate
        import rzero.zeros as zeros_mod
        iterates = []
        real = zeros_mod.r_eval_many

        def spy(points, derivative=False):
            if derivative:
                iterates.extend(points)
            return real(points, derivative)

        monkeypatch.setattr(zeros_mod, "r_eval_many", spy)
        r_eval_cache_clear()
        refine_zero(Box(-4.0, 2.0, 20.0, 25.0))
        keys = set(auxiliary._R_CACHE._store)
        assert len(iterates) >= 3
        assert {(z.real, z.imag, True) for z in iterates} <= keys
        assert not {(z.real, z.imag, False) for z in iterates} & keys

    def test_certificate_circle_independent(self):
        seed = Box(1.0, 2.0, 0.2, 1.0)
        zero = refine_zero(seed, f=quadratic, df=lambda z: 2 * z)
        # re-certify on a circle not used during refinement
        cert = _circle_winding(quadratic,
                               complex(zero.beta, zero.gamma),
                               1.7 * zero.enclosure_radius)
        assert cert == 1


    def test_off_integer_circle_tries_next_radius(self, monkeypatch):
        import rzero.zeros as zeros_mod
        seed = Box(1.0, 2.0, 0.2, 1.0)
        plain = refine_zero(seed, f=quadratic, df=lambda z: 2 * z)
        real = zeros_mod.arg_variation
        calls = []

        def off_integer_first(f, path, params):
            trace = real(f, path, params)
            calls.append(path.radius)
            if len(calls) > 1:
                return trace
            return dataclasses.replace(
                trace, total_variation=0.63 * 2.0 * math.pi)

        monkeypatch.setattr(zeros_mod, "arg_variation", off_integer_first)
        zero = refine_zero(seed, f=quadratic, df=lambda z: 2 * z)
        assert calls == [plain.enclosure_radius,
                         2.0 * plain.enclosure_radius]
        assert zero.enclosure_radius == 2.0 * plain.enclosure_radius
        assert (zero.beta, zero.gamma) == (plain.beta, plain.gamma)
        assert zero.winding_certificate == 1


class TestRefineZeros:
    ROOTS = (0.0, 2.0, 2.3)
    # Newton from the first seed's centre, 0.7, meets f' ~ 0.05 and leaves
    # the guard box, so that seed restarts from its winding-1 child
    SEEDS = [Box(-0.3, 1.7, -0.3, 0.3), Box(1.9, 2.1, -0.1, 0.1),
             Box(2.2, 2.4, -0.1, 0.1)]

    def cubic(self, z):
        a, b, c = self.ROOTS
        return (z - a) * (z - b) * (z - c)

    def cubic_prime(self, z):
        a, b, c = self.ROOTS
        return (z - b) * (z - c) + (z - a) * (z - c) + (z - a) * (z - b)

    def test_lockstep_equals_one_at_a_time(self):
        iso = isolate_zeros(Box(-4.0, 2.0, 10.0, 60.0))
        assert len(iso.isolated) == 6
        r_eval_cache_clear()
        together = refine_zeros(iso.isolated)
        alone = []
        for seed in iso.isolated:
            r_eval_cache_clear()
            alone.append(refine_zero(seed))
        assert together == alone

    def test_step_halve_calls(self, monkeypatch):
        # each Newton round of the six seeds, and their residuals, step-halve
        # as one block: from the pieces' argument-principle means 3 rounds
        # and the residuals, then the 6 certificate circles (10 calls); from
        # the centres it took 24, and one seed at a time 68
        iso = isolate_zeros(Box(-4.0, 2.0, 10.0, 60.0))
        calls = []
        real = auxiliary._step_halve
        monkeypatch.setattr(auxiliary, "_step_halve",
                            lambda points, derivative=False:
                            calls.append(len(points)) or real(points, derivative))
        refine_zeros(iso.isolated)
        assert len(calls) <= 12

    def test_runs_start_at_the_winding_mean(self, monkeypatch):
        # the mean of each winding-1 piece lies inside it and near its zero,
        # and that is where its Newton run starts
        import rzero.zeros as zeros_mod
        iso = isolate_zeros(Box(-4.0, 2.0, 10.0, 60.0))
        means = [_winding_mean(seed) for seed in iso.isolated]
        starts = []
        real = zeros_mod._Newton.restart

        def restart(run, box, z):
            starts.append(z)
            real(run, box, z)

        monkeypatch.setattr(zeros_mod._Newton, "restart", restart)
        zeros = refine_zeros(iso.isolated)
        assert starts == means
        for seed, mean, zero in zip(iso.isolated, means, zeros):
            assert seed.contains(mean)
            assert abs(mean - complex(zero.beta, zero.gamma)) < 1e-2

    def test_no_winding_mean_across_a_zero(self):
        # the right edge of this box runs through the lowest zero, so its
        # walk raises and the run would start at the centre
        assert _winding_mean(Box(-4.0, LOWEST_ZERO.real, 20.0, 25.0)) is None

    @pytest.mark.parametrize("numeric", [False, True])
    def test_caller_functions_per_seed(self, monkeypatch, numeric):
        import rzero.zeros as zeros_mod
        df = None if numeric else self.cubic_prime
        splits = []
        real = zeros_mod._split_conserving
        monkeypatch.setattr(zeros_mod, "_split_conserving",
                            lambda f, box, w: splits.append(box)
                            or real(f, box, w))
        together = refine_zeros(self.SEEDS, self.cubic, df)
        assert splits == [self.SEEDS[0]]
        alone = [refine_zero(seed, self.cubic, df) for seed in self.SEEDS]
        assert together == alone
        for zero, root in zip(together, self.ROOTS):
            assert complex(zero.beta, zero.gamma) == pytest.approx(root,
                                                                   abs=1e-9)
            assert zero.winding_certificate == 1

    def test_error_names_first_failing_seed(self, monkeypatch):
        import rzero.zeros as zeros_mod
        real = zeros_mod._circle_winding
        monkeypatch.setattr(zeros_mod, "_circle_winding",
                            lambda f, z, r: 0 if z.real > 1.0 else real(f, z, r))
        seeds = [self.SEEDS[0], self.SEEDS[2], self.SEEDS[1]]
        with pytest.raises(NewtonError, match=r"\(2\.3"):
            refine_zeros(seeds, self.cubic, self.cubic_prime)
        assert refine_zeros(seeds[:1], self.cubic, self.cubic_prime)


class TestLocateZeros:
    def test_box_10_60(self):
        zeros, clusters = locate_zeros(Box(-4.0, 2.0, 10.0, 60.0))
        assert clusters == []
        count, _ = rectangle_count(r_value, -4.0, 2.0, 10.0, 60.0)
        assert len(zeros) == count == 6
        gammas = [z.gamma for z in zeros]
        assert gammas == sorted(gammas)
        assert zeros[0].gamma == pytest.approx(LOWEST_ZERO.imag, abs=1e-8)

    def test_every_zero_certified(self):
        zeros, _ = locate_zeros(Box(-4.0, 2.0, 10.0, 60.0))
        for z in zeros:
            assert z.winding_certificate == 1
            assert z.residual_modulus <= 1e-8
            assert z.enclosure_radius > 0

    def test_determinism(self):
        a, _ = locate_zeros(Box(-4.0, 2.0, 10.0, 40.0))
        b, _ = locate_zeros(Box(-4.0, 2.0, 10.0, 40.0))
        assert a == b  # bit-for-bit

    def test_explicit_r_value_is_the_default(self):
        # R passed as f takes the default's batched route, with R's noise in
        # the Newton stop and the certificate circle: near 10^7 the
        # point-by-point route cannot certify the second zero
        box = Box(-300.0, 2.0, 1e7, 1e7 + 2.0)
        r_eval_cache_clear()
        explicit = locate_zeros(box, f=r_value)
        assert len(explicit[0]) == 2
        assert explicit == locate_zeros(box)

    def test_polynomial_cross_check(self):
        roots = (0.5 + 20j, -1.5 + 33j, 1.1 + 47.5j)

        def f(z):
            out = 1.0 + 0.0j
            for r in roots:
                out *= z - r
            return out

        def df(z):
            total = 0j
            for skip in range(len(roots)):
                term = 1.0 + 0.0j
                for k, r in enumerate(roots):
                    if k != skip:
                        term *= z - r
                total += term
            return total

        zeros, clusters = locate_zeros(Box(-4.0, 2.0, 10.0, 60.0), f=f, df=df)
        assert clusters == []
        found = [complex(z.beta, z.gamma) for z in zeros]
        for r, g in zip(sorted(roots, key=lambda w: w.imag), found):
            assert g == pytest.approx(r, abs=1e-9)


class TestZeroStatistics:
    def make(self, beta, gamma):
        return Zero(beta=beta, gamma=gamma, enclosure_radius=1e-10,
                    winding_certificate=1, residual_modulus=1e-12)

    def test_single_left_zero(self):
        stats = zero_statistics([self.make(0.0, 30.0)])
        assert stats.fraction_right == 0.0
        assert stats.count == 1
        assert stats.mean_gap == 0.0

    def test_synthetic_third(self):
        zs = [self.make(b, 10.0 + k) for k, b in
              enumerate((0.7, 0.3, 0.2, 0.9, 0.1, 0.4))]
        stats = zero_statistics(zs)
        assert stats.fraction_right == pytest.approx(1.0 / 3.0)
        assert stats.min_beta == pytest.approx(0.1)
        assert stats.max_beta == pytest.approx(0.9)
        assert stats.mean_gap == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            zero_statistics([])
