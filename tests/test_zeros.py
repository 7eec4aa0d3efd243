import cmath
import dataclasses
import itertools
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
from rzero.errors import ContourZeroError, DomainError, NewtonError
from rzero.counting import arg_variation, unit_params
from rzero.zeros import (
    NEWTON_STEP_TOL,
    _CIRCLE_SEEDS,
    Box,
    Zero,
    _Circle,
    _circle_points,
    _circle_winding,
    _power_sum_roots,
    _split_conserving,
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

    @pytest.mark.parametrize("sides", [
        (-math.inf, 2.0, 10.0, 20.0), (0.0, math.inf, 10.0, 20.0),
        (0.0, 2.0, 10.0, math.nan)])
    def test_not_finite_rejected(self, sides):
        # the constructor is the only check of a rectangle: rectangle_count
        # has none of its own
        with pytest.raises(DomainError, match="degenerate box"):
            Box(*sides)

    def test_one_rectangle_type(self):
        # counting winds around the Boxes that zeros splits
        import rzero
        from rzero import counting
        assert rzero.Box is Box is counting.Box

    def test_margin_containment(self):
        box = Box(0.0, 1.0, 0.0, 1.0)
        assert not box.contains(1.005 + 0.5j)
        assert box.contains(1.005 + 0.5j, margin=0.01)


class TestIsolateZeros:
    def test_empty_box(self):
        res = isolate_zeros(Box(3.0, 4.0, 9.0, 10.0), f=quadratic)
        assert res.isolated == [] and res.clusters == []

    def test_two_simple_zeros(self):
        # a caller's f forms no groups: the box splits to winding 1
        f = lambda z: (z - (1 + 10j)) * (z - (1.2 + 10.5j))
        res = isolate_zeros(Box(0.0, 2.0, 9.0, 11.0), f=f)
        assert len(res.isolated) == 2
        assert res.clusters == [] and res.groups == []

    def test_partition_property(self):
        f = lambda z: (z - (1 + 10j)) * (z - (1.2 + 10.5j)) * (z - (0.3 + 9.4j))
        box = Box(0.0, 2.0, 9.0, 11.0)
        res = isolate_zeros(box, f=f)
        total, _ = rectangle_count(f, box)
        assert len(res.isolated) == total == 3

    def test_double_zero_reported_as_cluster(self):
        f = lambda z: (z - (1 + 10j)) ** 2
        res = isolate_zeros(Box(0.0, 2.0, 9.0, 11.0), min_size=1e-2, f=f)
        assert res.isolated == []
        assert len(res.clusters) == 1
        assert res.clusters[0][1] == 2

    def test_zero_just_above_the_top_lies_in_its_piece(self):
        # the zero lies 1e-7 above the box's top, so rectangle_count's ladder
        # lifts the top to 10.001, and that realised box is the piece
        zero = complex(1.0, 10.0000001)
        f = lambda z: z - zero
        box = Box(0.0, 2.0, 9.0, 10.0)
        res = isolate_zeros(box, f=f)
        assert res.isolated == [Box(0.0, 2.0, 9.0, 10.0 + 1e-3)]
        assert res.isolated[0].contains(zero)
        found, _ = locate_zeros(box, f=f, df=lambda z: 1.0)
        assert [complex(z.beta, z.gamma) for z in found] == [zero]

    def test_children_counted_on_their_own_contours(self, monkeypatch):
        # the zero 0.5 + 10 i is a lattice sample of the cut t = 10, so the
        # children of the first cut meet it and the split moves its cut;
        # with no offset left it raises, and only the caller's box is ever
        # counted through rectangle_count
        import rzero.zeros as zeros_mod
        counted = []
        real = zeros_mod.rectangle_count
        monkeypatch.setattr(zeros_mod, "rectangle_count",
                            lambda f, box: counted.append(box)
                            or real(f, box))
        f = lambda z: (z - (0.5 + 10j)) * (z - (1.5 + 9.5j))
        box = Box(0.0, 2.0, 9.0, 11.0)
        res = isolate_zeros(box, f=f)
        assert [[piece.contains(zero) for zero in (0.5 + 10j, 1.5 + 9.5j)]
                for piece in res.isolated] == [[True, False], [False, True]]
        assert counted == [box]
        monkeypatch.setattr(zeros_mod, "_SPLIT_OFFSETS", (0.0,))
        with pytest.raises(ContourZeroError, match="could not split"):
            _split_conserving(f, box, 2)
        assert counted == [box]

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
        scanning = [False]  # the children's windings wind outside a scan
        real_scan = zeros_mod._zero_on_cut
        real_rows = zeros_mod.values_at
        real_window = zeros_mod._rectangle_winding

        def scan(f, box, child):
            scans.append([])
            before = calls[0]
            scanning[0] = True
            try:
                out = real_scan(f, box, child)
            finally:
                scanning[0] = False
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
                if scanning[0]:
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
        # 0.89 at -6 + 10010 i, 0.99 at -49 + 10^6 i and 0.17 in the one
        # scan at 10^7).  With GROUP_CAP = 1 isolation splits every box
        # down to winding-1 pieces, so the scans cover every cut of the
        # full split, the window at 10^7's end-minimum cut included
        import rzero.zeros as zeros_mod
        monkeypatch.setattr(zeros_mod, "GROUP_CAP", 1)
        readings = []  # per end sample: |R'/R| h, and whether it is min
        real = zeros_mod._zero_on_cut

        def scan(f, box, child):
            edge = _rectangle_edges(child)[
                "top" if child.t_hi < box.t_hi else "right"]
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

    @pytest.mark.parametrize("left, t_lo, t_hi", [
        (-12.0, 10.0, 149.0), (-30.0, 1e4, 1e4 + 10.0),
        (-100.0, 1e6, 1e6 + 3.0)], ids=["desk", "1e4", "1e6"])
    def test_trend_on_far_sides_under_estimate(self, left, t_lo, t_hi):
        # _lattice_m spaces the sides on sigma <= -6 and sigma >= 2 by
        # their own rates; at each of their lattice points R's trend
        # |R'/R| h, h the side's spacing 1/m, stays under the 1.2 a step
        # that the cut scan's end exit assumes (largest 0.78, 0.93 and 1.00
        # on the left sides, 0.49, 0.34 and 0.11 on sigma = 2)
        r_eval_cache_clear()
        box = Box(left, 2.0, t_lo, t_hi)
        for name, edge in _rectangle_edges(box).items():
            if edge.vertical:
                points = [edge.point(u) for u in edge.seed_params()]
                results = r_eval_many(points, derivative=True)
                assert max(abs(res.log_derivative)
                           for res in results) / edge.m <= 1.2, name

    def test_end_minimum_computes_one_derivative(self, monkeypatch):
        # the cut t = 27.5 of [-4, 2] x [20, 35] has its smallest |R| at
        # sigma = 2, an end of the row; R'/R there rules a double zero out,
        # so the scan computes one R value (R' at the end sample) and winds
        # no window
        import rzero.zeros as zeros_mod
        box = Box(-4.0, 2.0, 20.0, 35.0)
        r_eval_cache_clear()
        parent_w = rectangle_count(r_value, box)[0]
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
        parent_w = rectangle_count(r_value, box)[0]
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
        parent_w = rectangle_count(r_value, box)[0]
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
        scanning = [False]  # the children's windings wind outside a scan
        real_scan = zeros_mod._zero_on_cut
        real_window = zeros_mod._rectangle_winding

        def scan(f, box, child):
            before = auxiliary._R_CACHE.cache_info().misses
            scanning[0] = True
            try:
                out = real_scan(f, box, child)
            finally:
                scanning[0] = False
            computed.append(auxiliary._R_CACHE.cache_info().misses - before)
            return out

        def window(f, *sides):
            if scanning[0]:
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


class TestCertificateCircle:
    def test_first_circles_in_one_batch(self, monkeypatch):
        # one refine_zeros call over a winding-1 piece and groups of 2 and 3
        # reads the samples of every first circle in one r_eval_many call;
        # the walks compute no R value at them again
        import rzero.zeros as zeros_mod
        r_eval_cache_clear()
        iso = isolate_zeros(Box(-4.0, 2.0, 10.0, 60.0))
        assert iso.isolated and {len(g.starts) for g in iso.groups} == {2, 3}
        requests, computed = [], []
        real_many, real_fill = zeros_mod.r_eval_many, auxiliary._R_CACHE._fill

        def many(points, derivative=False):
            if not derivative:
                requests.append(list(points))
            return real_many(points, derivative)

        def fill(pairs, derivative):
            computed.append(set(pairs))
            return real_fill(pairs, derivative)

        monkeypatch.setattr(zeros_mod, "r_eval_many", many)
        monkeypatch.setattr(auxiliary._R_CACHE, "_fill", fill)
        found = refine_zeros([*iso.isolated, *iso.groups])
        assert len(found) == 6
        circles = [_circle_points(complex(z.beta, z.gamma), z.enclosure_radius)
                   for z in found]
        assert all(len(points) == _CIRCLE_SEEDS for points in circles)
        samples = {(p.real, p.imag) for points in circles for p in points}
        assert len(requests) == 1
        assert {(p.real, p.imag) for p in requests[0]} == samples
        assert [batch for batch in computed if batch & samples] == [samples]

    def test_circle_about_two_simple_zeros_winds_two(self):
        # a caller's f with two simple zeros inside one 8-interval circle:
        # the walk bisects its steps of about pi/2 and reads 2, not the 1 a
        # certificate needs
        center, radius = 1.0 + 1.0j, 1e-3
        a, b = center + 0.3 * radius, center - 0.25j * radius

        def f(z):
            return (z - a) * (z - b)

        assert _circle_winding(f, center, radius) == 2
        trace = arg_variation(f, _Circle(center, radius),
                              unit_params(_CIRCLE_SEEDS))
        assert len(trace.nodes) > _CIRCLE_SEEDS

    @pytest.mark.parametrize("angle", [0.0, math.pi / 8, 1.0])
    def test_zero_just_outside_winds_zero(self, angle):
        # the zero 5 % of the radius outside, at a seed (angle 0) or between
        # two (pi/8 and 1 rad); 5 % inside it winds once
        center, radius = 2.0 + 3.0j, 1e-6
        where = cmath.exp(1j * angle)
        outside = center + 1.05 * radius * where
        inside = center + 0.95 * radius * where
        assert _circle_winding(lambda z: z - outside, center, radius) == 0
        assert _circle_winding(lambda z: z - inside, center, radius) == 1


class TestRefineZeros:
    ROOTS = (0.0, 2.0, 2.3)
    # Newton from the first seed's centre, 0.7, meets f' ~ 0.05 and leaves
    # the guard box, so that seed fails; locate_zeros splits it and refines
    # its winding-1 child
    SEEDS = [Box(-0.3, 1.7, -0.3, 0.3), Box(1.9, 2.1, -0.1, 0.1),
             Box(2.2, 2.4, -0.1, 0.1)]

    def cubic(self, z):
        a, b, c = self.ROOTS
        return (z - a) * (z - b) * (z - c)

    def cubic_prime(self, z):
        a, b, c = self.ROOTS
        return (z - b) * (z - c) + (z - a) * (z - c) + (z - a) * (z - b)

    def test_lockstep_equals_one_at_a_time(self):
        # the seeds of [-4, 2] x [10, 60] are a winding-1 piece and groups
        # of 2 and 3; each seed refined alone gives the bits of the lockstep
        # run, the groups' zeros included
        iso = isolate_zeros(Box(-4.0, 2.0, 10.0, 60.0))
        seeds = [*iso.isolated, *iso.groups]
        assert len(iso.isolated) + sum(len(g.starts) for g in iso.groups) == 6
        assert iso.groups
        r_eval_cache_clear()
        together = refine_zeros(seeds)
        alone = []
        for seed in seeds:
            r_eval_cache_clear()
            alone += refine_zeros([seed])
        assert len(together) == 6
        assert together == alone

    def test_step_halve_calls(self, monkeypatch):
        # each Newton round of the six runs, and their residuals, step-halve
        # as one block: from the power-sum roots 3 rounds of six, one of a
        # single run and the residuals, then the samples of the 6
        # certificate circles as one more (6 calls; 11 with a call per
        # circle); from the centres of winding-1 pieces it took 24, and one
        # seed at a time 68
        iso = isolate_zeros(Box(-4.0, 2.0, 10.0, 60.0))
        calls = []
        real = auxiliary._step_halve
        monkeypatch.setattr(auxiliary, "_step_halve",
                            lambda points, derivative=False:
                            calls.append(len(points)) or real(points, derivative))
        refine_zeros([*iso.isolated, *iso.groups])
        assert len(calls) <= 6

    def test_runs_start_at_the_winding_mean(self, monkeypatch):
        # the mean of each winding-1 piece, the m = 1 root of its power
        # sums, lies inside it and near its zero, and that is where its
        # Newton run starts; with GROUP_CAP = 1 the box splits into six
        # such pieces
        import rzero.zeros as zeros_mod
        monkeypatch.setattr(zeros_mod, "GROUP_CAP", 1)
        iso = isolate_zeros(Box(-4.0, 2.0, 10.0, 60.0))
        assert len(iso.isolated) == 6
        means = [_power_sum_roots(seed, 1)[0] for seed in iso.isolated]
        starts = []
        real = zeros_mod._Newton.__init__

        def init(run, box, z):
            starts.append(z)
            real(run, box, z)

        monkeypatch.setattr(zeros_mod._Newton, "__init__", init)
        zeros = refine_zeros(iso.isolated)
        assert starts == means
        for seed, mean, zero in zip(iso.isolated, means, zeros):
            assert seed.contains(mean)
            assert abs(mean - complex(zero.beta, zero.gamma)) < 1e-2

    def test_no_winding_mean_across_a_zero(self):
        # the right edge of this box runs through the lowest zero, so its
        # walk raises and the run would start at the centre
        box = Box(-4.0, LOWEST_ZERO.real, 20.0, 25.0)
        assert _power_sum_roots(box, 1) is None

    @pytest.mark.parametrize("numeric", [False, True])
    def test_caller_functions_per_seed(self, monkeypatch, numeric):
        # the seeds whose runs converge give the same Zeros in lockstep and
        # one at a time; the first seed fails, and locate_zeros splits it
        # once and refines its winding-1 child as refine_zero would
        import rzero.zeros as zeros_mod
        df = None if numeric else self.cubic_prime
        together = refine_zeros(self.SEEDS[1:], self.cubic, df)
        alone = [refine_zero(seed, self.cubic, df) for seed in self.SEEDS[1:]]
        assert together == alone
        for zero, root in zip(together, self.ROOTS[1:]):
            assert complex(zero.beta, zero.gamma) == pytest.approx(root,
                                                                   abs=1e-9)
            assert zero.winding_certificate == 1
        splits = []
        real = zeros_mod._split_conserving
        monkeypatch.setattr(zeros_mod, "_split_conserving",
                            lambda f, box, w: splits.append((box, w))
                            or real(f, box, w))
        zeros, clusters = locate_zeros(self.SEEDS[0], f=self.cubic, df=df)
        assert splits == [(self.SEEDS[0], 1)] and clusters == []
        child = self.SEEDS[0].split(0.0)[0]
        assert zeros == [refine_zero(child, self.cubic, df)]
        assert complex(zeros[0].beta, zeros[0].gamma) == pytest.approx(
            self.ROOTS[0], abs=1e-9)

    def test_failing_seed_raises(self):
        # refine_zero refines the seed it is given and does not split it
        with pytest.raises(NewtonError, match="failed to converge"):
            refine_zero(self.SEEDS[0], self.cubic, self.cubic_prime)

    def test_restarts_end_at_the_size_floor(self, monkeypatch):
        # a run that never converges is split, in locate_zeros, into ever
        # smaller winding-1 pieces, each at most 0.77 of the piece two
        # splits before, and raises only once its piece is under
        # 64 NEWTON_STEP_TOL
        import rzero.zeros as zeros_mod
        sides = []

        def advance(run, fz, dz, noise=0.0):
            sides.append(run.box.max_side)
            return False

        monkeypatch.setattr(zeros_mod._Newton, "advance", advance)
        with pytest.raises(NewtonError, match="failed to converge"):
            locate_zeros(Box(1.0, 2.0, 0.2, 1.0), f=quadratic,
                         df=lambda z: 2 * z)
        assert sides[-1] < 64.0 * NEWTON_STEP_TOL <= min(sides[:-1])
        assert all(b <= 0.77 * a for a, b in zip(sides[::2], sides[2::2]))

    def test_error_names_first_failing_seed(self, monkeypatch):
        # every run converges; the certificates of the zeros at 2 and 2.3
        # fail, and the error names 2.3, the first failing seed in input
        # order
        import rzero.zeros as zeros_mod
        real = zeros_mod._circle_winding
        monkeypatch.setattr(zeros_mod, "_circle_winding",
                            lambda f, z, r: 0 if z.real > 1.0 else real(f, z, r))
        seeds = [self.SEEDS[0].split(0.0)[0], self.SEEDS[2], self.SEEDS[1]]
        with pytest.raises(NewtonError, match=r"\(2\.3"):
            refine_zeros(seeds, self.cubic, self.cubic_prime)
        assert refine_zeros(seeds[:1], self.cubic, self.cubic_prime)


class TestGroups:
    # the benchmark's zero survey
    SURVEY = Box(-12.0, 2.0, 10.0, 149.0)

    def test_roots_place_the_zeros_and_count_them_all(self):
        # each refined zero of a group lies within a quarter of the group's
        # closest separation from its root, and the multiplicities of the
        # isolation output sum to the count of the realised box
        r_eval_cache_clear()
        iso = isolate_zeros(self.SURVEY)
        total, window = rectangle_count(r_value, self.SURVEY)
        assert window == Box(-12.0, 2.0, 10.0, 149.0)
        assert (len(iso.isolated) + sum(len(g.starts) for g in iso.groups)
                + sum(w for _, w in iso.clusters)) == total == 24
        assert {len(g.starts) for g in iso.groups} == {2, 3}
        zeros = iter(refine_zeros(iso.groups))
        for group in iso.groups:
            found = [complex(z.beta, z.gamma)
                     for z in itertools.islice(zeros, len(group.starts))]
            closest = min(abs(a - b)
                          for a, b in itertools.combinations(found, 2))
            for root, zero in zip(group.starts, found):
                assert abs(root - zero) < 0.25 * closest
                assert group.box.contains(zero)

    @pytest.mark.parametrize("wrong", ["coincident", "outside"])
    def test_unresolved_group_splits_on(self, monkeypatch, wrong):
        # the starts of the first group are made wrong: all at its first
        # root, so its runs reach one zero, or one at a root of the next
        # group, a zero outside the box; the box splits on, nothing raises,
        # and the zeros are those of the full split within their radii
        import rzero.zeros as zeros_mod
        box = Box(-4.0, 2.0, 10.0, 60.0)
        monkeypatch.setattr(zeros_mod, "GROUP_CAP", 1)
        r_eval_cache_clear()
        full, _ = locate_zeros(box)
        monkeypatch.undo()
        real_isolate = zeros_mod.isolate_zeros
        real_split = zeros_mod._split_conserving
        broken, splits = [], []

        def isolate(*args, **kwargs):
            iso = real_isolate(*args, **kwargs)
            first, other = iso.groups[0], iso.groups[1]
            starts = list(first.starts)
            if wrong == "coincident":
                starts = [starts[0]] * len(starts)
            else:
                starts[0] = other.starts[0]
            broken.append(first)
            iso.groups[0] = first._replace(starts=tuple(starts))
            return iso

        def split(f, piece, w):
            splits.append((piece, w))
            return real_split(f, piece, w)

        monkeypatch.setattr(zeros_mod, "isolate_zeros", isolate)
        r_eval_cache_clear()
        monkeypatch.setattr(zeros_mod, "_split_conserving", split)
        zeros, clusters = locate_zeros(box)
        group = broken[0]
        assert (group.box, len(group.starts)) in splits
        assert (group.box, 1) not in splits  # no winding-1 restart
        assert clusters == []
        assert len(zeros) == len(full) == 6
        for mine, theirs in zip(zeros, full):
            assert abs(complex(mine.beta, mine.gamma)
                       - complex(theirs.beta, theirs.gamma)) \
                < theirs.enclosure_radius
            assert mine.winding_certificate == 1

    def test_failed_group_raises_in_refine_zeros(self):
        # refine_zeros refines the seeds it is given and raises for a group
        # that does not resolve; only locate_zeros splits it on
        iso = isolate_zeros(Box(-4.0, 2.0, 10.0, 60.0))
        group = iso.groups[0]
        twice = group._replace(starts=(group.starts[0],) * len(group.starts))
        with pytest.raises(NewtonError, match="overlap or leave"):
            refine_zeros([twice])


class TestLocateZeros:
    def test_box_10_60(self):
        zeros, clusters = locate_zeros(Box(-4.0, 2.0, 10.0, 60.0))
        assert clusters == []
        count, _ = rectangle_count(r_value, Box(-4.0, 2.0, 10.0, 60.0))
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

    # the winding-1 piece of [-4, 2] x [10, 60]; the others are groups
    PIECE = Box(-4.0, 2.0, 35.0, 47.5)

    def test_failed_certificate_splits_on(self, monkeypatch):
        # all 4 certificate circles of the piece's zero fail once: the piece
        # is split and its winding-1 child refined, and the zeros are those
        # of the unpatched run within their radii
        import rzero.zeros as zeros_mod
        box = Box(-4.0, 2.0, 10.0, 60.0)
        r_eval_cache_clear()
        plain, _ = locate_zeros(box)
        assert isolate_zeros(box).isolated == [self.PIECE]
        real_circle = zeros_mod._circle_winding
        real_split = zeros_mod._split_conserving
        failed, splits = [], []

        def circle(f, z, r):
            if self.PIECE.contains(z) and len(failed) < 4:
                failed.append(r)
                return 0
            return real_circle(f, z, r)

        monkeypatch.setattr(zeros_mod, "_circle_winding", circle)
        monkeypatch.setattr(zeros_mod, "_split_conserving",
                            lambda f, piece, w: splits.append((piece, w))
                            or real_split(f, piece, w))
        r_eval_cache_clear()
        zeros, clusters = locate_zeros(box)
        assert len(failed) == 4 and (self.PIECE, 1) in splits
        assert clusters == [] and len(zeros) == len(plain) == 6
        for mine, theirs in zip(zeros, plain):
            assert abs(complex(mine.beta, mine.gamma)
                       - complex(theirs.beta, theirs.gamma)) \
                < theirs.enclosure_radius
            assert mine.winding_certificate == 1

    def test_failed_run_splits_on(self, monkeypatch):
        # the Newton run of the winding-1 piece fails at its first step;
        # its child's run starts at the child's own winding mean and ends
        # within the unpatched zero's radius, and the groups' zeros keep
        # their bits
        import rzero.zeros as zeros_mod
        box = Box(-4.0, 2.0, 10.0, 60.0)
        r_eval_cache_clear()
        plain, _ = locate_zeros(box)
        real = zeros_mod._Newton.advance
        failed = []

        def advance(run, fz, dz, noise=0.0):
            if run.box == self.PIECE and not failed:
                failed.append(run.z)
                return False
            return real(run, fz, dz, noise)

        monkeypatch.setattr(zeros_mod._Newton, "advance", advance)
        r_eval_cache_clear()
        zeros, clusters = locate_zeros(box)
        assert len(failed) == 1 and clusters == []
        assert len(zeros) == len(plain) == 6
        for mine, theirs in zip(zeros, plain):
            where = complex(theirs.beta, theirs.gamma)
            if not self.PIECE.contains(where):
                assert mine == theirs
            assert abs(complex(mine.beta, mine.gamma) - where) \
                < theirs.enclosure_radius

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
