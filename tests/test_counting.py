import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rzero import auxiliary
from rzero import counting as counting_mod
from rzero.auxiliary import (
    SURROGATE_T_MIN,
    curve_sigma,
    r_asymptotic,
    r_eval_many,
    r_value,
)
import json
import pathlib
import random

from rzero.counting import (
    CURVE_T0,
    PERTURB_STEP,
    U_LIMIT,
    AxisEdge,
    Box,
    CountResult,
    PathSegment,
    adequate_box_left,
    arg_variation,
    backlund_bound,
    base_count,
    integer_winding,
    log_modulus_bound,
    main_term,
    rectangle_count,
    residual_table,
    sqrt_fit,
    top_edge_certificate,
    unit_params,
    _curve_turns,
    _EDGE_SIGNS,
    _lattice_m,
    _rectangle_edges,
    _rectangle_sums,
    _rectangle_winding,
    _too_coarse,
    _walk_edge,
)
from rzero.errors import (
    BacklundError,
    ContourZeroError,
    DomainError,
    NonIntegerWindingError,
    RegionError,
    ZeroOnPathError,
)
from rzero.special_functions import TWO_PI


class TestBacklundBound:
    def test_zero_when_flat(self):
        assert backlund_bound(math.log(3.0), math.log(3.0), 1.0, 0.5) == 0.0

    def test_unit_case(self):
        assert backlund_bound(2.0, 0.0, math.e, 1.0) == pytest.approx(
            1.0, rel=1e-12)

    def test_reference_value(self):
        # (1/2) log(400) / log(2), frozen from a 30-digit evaluation
        bound = backlund_bound(math.log(100.0), math.log(0.25), 2.0, 1.0)
        assert bound == pytest.approx(4.321928094887362, rel=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            backlund_bound(0.0, -math.inf, 1.0, 0.5)  # f(a) = 0
        with pytest.raises(DomainError):
            backlund_bound(0.0, math.log(0.5), 0.5, 0.5)
        with pytest.raises(DomainError):
            backlund_bound(0.0, math.log(2.0), 1.0, 0.5)


class TestPathSegment:
    def test_line_endpoints(self):
        seg = PathSegment(1.0, 1.0j)
        assert seg.point(0.0) == 1.0 and seg.point(1.0) == 1.0j

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            PathSegment(1.0, 1.0)


class TestArgVariation:
    def test_quarter_turn(self):
        trace = arg_variation(lambda z: z, PathSegment(1.0, 1.0j),
                              unit_params(16))
        assert trace.total_variation == pytest.approx(0.5 * math.pi, abs=1e-12)

    def test_exponential_vertical(self):
        h = 11.0
        seg = PathSegment(0.3, complex(0.3, h))
        trace = arg_variation(cmath.exp, seg, unit_params(16))
        assert trace.total_variation == pytest.approx(h, rel=1e-12)

    def test_trace_invariants(self):
        # arg exp(z) = Im z mod 2 pi: the nodes run from end to end, each
        # nearest-branch phase step between them is below pi/2, and the
        # steps sum to the variation
        seg = PathSegment(1.0, complex(1.0, 30.0))
        trace = arg_variation(cmath.exp, seg, unit_params(4))
        assert trace.nodes[0] == seg.start and trace.nodes[-1] == seg.end
        steps = [math.remainder(b.imag - a.imag, TWO_PI)
                 for a, b in zip(trace.nodes, trace.nodes[1:])]
        assert max(map(abs, steps)) < 0.5 * math.pi
        assert trace.total_variation == pytest.approx(sum(steps), rel=1e-12)

    @pytest.mark.parametrize("params", [[], [0.5]], ids=["none", "one"])
    def test_fewer_than_two_seeds_rejected(self, params):
        with pytest.raises(DomainError):
            arg_variation(lambda z: z, PathSegment(1.0, 1.0j), params)

    def test_zero_on_path(self):
        seg = PathSegment(-1.0, 1.0)
        with pytest.raises(ZeroOnPathError):
            arg_variation(lambda z: z, seg, unit_params(16))

    def test_steady_growth_is_no_zero(self):
        # |f| grows by e^20 between seeds: log |f| is linear along the path,
        # so no seed dips below the line through its neighbours
        trace = arg_variation(lambda z: cmath.exp(80 * z), PathSegment(0, 1),
                              unit_params(5))
        assert trace.total_variation == 0.0

    def test_zero_next_to_a_seed(self):
        # the seed at 1/4 sits 1e-8 from the zero of f
        with pytest.raises(ZeroOnPathError) as info:
            arg_variation(lambda z: z - 0.25000001, PathSegment(0, 1),
                          unit_params(5))
        assert info.value.where == 0.25

    def test_moment_locates_a_zero(self):
        # around a square holding one simple zero p of f the first moments,
        # each about its path's first point a and moved to 0 by adding a
        # times the zeroth, sum to 2 pi i p, to O(h^2) in the seed spacing
        # h; the factor e^{0.3 z} adds a telescoping sum, so it changes
        # nothing but rounding
        p = 0.7 + 1.3j
        corners = [0.0, 2.0, 2.0 + 2.0j, 2.0j, 0.0]

        def located(seeds):
            moment = 0j
            for a, b in zip(corners, corners[1:]):
                moments = arg_variation(
                    lambda z: (z - p) * cmath.exp(0.3 * z),
                    PathSegment(a, b), unit_params(seeds)).moments
                moment += moments[1] + a * moments[0]
            return abs(moment / (2j * math.pi) - p)

        coarse, fine = located(17), located(33)
        assert coarse < 5e-4
        assert 3.5 < coarse / fine < 4.5

    def test_zeroth_moment_is_the_change_of_log(self):
        # log|f| at the last node less at the first, plus i times the
        # variation
        f = lambda z: (z - (0.7 + 1.3j)) * cmath.exp(0.3 * z)
        trace = arg_variation(f, PathSegment(2.0, 2.0 + 2.0j), unit_params(9))
        change = math.log(abs(f(2.0 + 2.0j))) - math.log(abs(f(2.0)))
        assert trace.moments[0] == complex(change, trace.total_variation)

    ZEROS = (0.3 + 10.2j, 1.4 + 10.6j, 0.9 + 9.4j)

    @pytest.mark.parametrize("height", [0.0, 1e6])
    def test_rectangle_sums_are_the_power_sums(self, height):
        # around [0, 2] x [9, 11] + i height the sums of a cubic with three
        # zeros inside are 2 pi i sum (rho - c)^k, c the centre, k = 0 .. 3,
        # to the trapezoid error of the edge lattice: within 2 % of r^k, r
        # the half-diagonal (the largest error, 0.023 at k = 3 and height 0,
        # is 0.8 %).  Each edge's moments are about its own first point, so
        # at 10^6 i no term is larger than the box: about 0, (z - c)^3
        # would be formed from terms of 10^18
        zeros = [rho + complex(0.0, height) for rho in self.ZEROS]
        f = lambda z: (z - zeros[0]) * (z - zeros[1]) * (z - zeros[2])
        sums = _rectangle_sums(f, Box(0.0, 2.0, 9.0 + height, 11.0 + height))
        centre = complex(1.0, 10.0 + height)
        assert sums[0] == pytest.approx(complex(0.0, 3 * TWO_PI), abs=1e-12)
        for k in range(1, 4):
            want = sum((rho - centre) ** k for rho in zeros)
            assert abs(sums[k] / (2j * math.pi) - want) < 0.02 * 2 ** (k / 2)

    def test_right_edge_variation_below_pi(self):
        # |R - 1| < 3/4 on sigma = 2 pins the argument inside a half turn
        seg = PathSegment(complex(2.0, 10.0), complex(2.0, 100.0))
        trace = arg_variation(r_value, seg, unit_params(128))
        assert abs(trace.total_variation) <= math.pi


class TestSampleLattice:
    @staticmethod
    def _computed(monkeypatch):
        """Record the (sigma, t) pairs for which R is computed afresh."""
        computed = []
        evaluate = auxiliary._evaluate

        def record(pairs, derivative):
            computed.extend(pairs)
            return evaluate(pairs, derivative)

        monkeypatch.setattr(auxiliary, "_evaluate", record)
        return computed

    def test_child_box_reuses_parent_samples(self, monkeypatch):
        # the child [-6, 2] x [10, 45] shares its bottom edge and the lattice
        # points of its sides with the parent [-6, 2] x [10, 80]: only its
        # new top edge at t = 45 needs R
        auxiliary.r_eval_cache_clear()
        rectangle_count(r_value, Box(-6.0, 2.0, 10.0, 80.0))
        computed = self._computed(monkeypatch)
        misses = auxiliary._r_eval_cached.cache_info().misses
        _, window = rectangle_count(r_value, Box(-6.0, 2.0, 10.0, 45.0))
        assert window == Box(-6.0, 2.0, 10.0, 45.0)
        assert computed and {t for _, t in computed} == {45.0}
        assert auxiliary._r_eval_cached.cache_info().misses - misses == len(
            computed)

    def test_cut_is_sampled_once(self, monkeypatch):
        # the upper child's bottom edge is the lower child's top edge
        auxiliary.r_eval_cache_clear()
        rectangle_count(r_value, Box(-6.0, 2.0, 10.0, 45.0))
        computed = self._computed(monkeypatch)
        rectangle_count(r_value, Box(-6.0, 2.0, 45.0, 80.0))
        assert computed and all(t > 45.0 for _, t in computed)

    @staticmethod
    def _rate(t, sigma=None):
        """The documented rates of _lattice_m, pinned here."""
        log_t = 0.5 * math.log(max(t, 7.0) / TWO_PI)
        if sigma is None:
            return log_t + 3.5
        if sigma >= 2.0:
            return 1.0
        return log_t + (0.5 if sigma <= -6.0 else 1.5)

    @pytest.mark.parametrize("vertical", [False, True])
    def test_spacing_never_coarser(self, vertical):
        # a vertical edge's level is its sigma: -12, 0.5 and the rest take
        # the three pieces of the vertical rate; every edge's spacing is at
        # most 1.2 / rate, every edge has at least 7 intervals, and an
        # edge's half above that floor keeps its m
        for level in (-12.0, 0.5, 10.0, 45.3, 149.2):
            sigma = level if vertical else None
            base = math.ceil(self._rate(level, sigma) / 1.2)
            for start in (-12.0, -6.0, -0.37, 1.5):
                for length in (1e-3, 0.0371, 0.5, 2.0, 8.0, 20.0, 70.0):
                    end = start + length
                    m = _lattice_m(level, end - start, sigma)
                    edge = AxisEdge(level, start, end, vertical, m)
                    params = edge.seed_params()
                    assert params[0] == start and params[-1] == end
                    assert len(params) >= 8
                    gaps = np.diff(params)
                    assert np.all(gaps > 0.0)
                    # a difference of coordinates rounds to their ulp
                    slack = 4.0 * math.ulp(abs(start) + abs(end))
                    assert gaps.max() <= 1.0 / m + slack
                    assert 1.0 / m <= 1.2 / self._rate(level, sigma)
                    if 0.5 * length * base >= 7.0:
                        assert _lattice_m(level, 0.5 * length, sigma) == m
        if vertical:
            # the 15.3-long sides of a split of [-12, 2] x [10, 500]: the
            # halves of the side on sigma = -1 of [316.25, 331.5625] once
            # took m = 4 against its m = 3; now all three share m = 3, as
            # the sides on sigma = 2 share m = 1
            box = Box(-1.0, 2.0, 316.25, 331.5625)
            rects = [box, *box.split()]
            for name, m in (("left", 3), ("right", 1)):
                assert [_rectangle_edges(r)[name].m
                        for r in rects] == [m] * 3

    @pytest.mark.parametrize("start, end", [(2.0, -6.0), (2.0, 2.0)],
                             ids=["downward", "degenerate"])
    def test_edge_not_running_upward_rejected(self, start, end):
        with pytest.raises(DomainError):
            AxisEdge(45.0, start, end, False, 8)


class TestEdgeMemo:
    """The walks of R along rectangle edges are kept in _LINE_WALKS until
    r_eval_cache_clear; the rectangles are those of TestSampleLattice."""

    PARENT = Box(-6.0, 2.0, 10.0, 80.0)
    CHILDREN = (Box(-6.0, 2.0, 10.0, 45.0), Box(-6.0, 2.0, 45.0, 80.0))

    @staticmethod
    def _walked(monkeypatch):
        """Record the paths arg_variation walks."""
        walked = []
        walk = counting_mod.arg_variation

        def record(f, path, params):
            walked.append(path)
            return walk(f, path, params)

        monkeypatch.setattr(counting_mod, "arg_variation", record)
        return walked

    def test_split_walks_only_the_cut(self, monkeypatch):
        # the children's sides lie inside the parent's, on the same lattice,
        # and are built from its walks; the children read the parent's
        # bottom and top edges, and the upper child reads as its bottom the
        # cut the lower one walked as its top: of the children's 8 edges
        # only the cut is walked
        auxiliary.r_eval_cache_clear()
        rectangle_count(r_value, self.PARENT)
        walked = self._walked(monkeypatch)
        for child in self.CHILDREN:
            assert rectangle_count(r_value, child)[1] == child
        assert walked == [self.CUT]

    @pytest.mark.parametrize("first", [0, 1], ids=["lower", "upper"])
    def test_equals_unmemoised_sum(self, first):
        # the second child reads the cut, which counts positively in one
        # child and negatively in the other, from the first child's walk;
        # a memo read gives the bits of a fresh walk
        auxiliary.r_eval_cache_clear()
        for rect in (self.CHILDREN[first], self.CHILDREN[1 - first]):
            direct = 0
            for name, edge in _rectangle_edges(rect).items():
                trace = arg_variation(r_value, edge, edge.seed_params())
                direct += _EDGE_SIGNS[name] * trace.total_variation
            for _ in range(2):
                assert _rectangle_winding(r_value, rect) == direct / TWO_PI

    # the cut t = 45 of PARENT, shared by both children
    CUT = AxisEdge(45.0, -6.0, 2.0, False, _lattice_m(45.0, 8.0))

    @pytest.mark.parametrize("first", ["lower", "upper", "fresh"])
    def test_entry_has_the_same_bits_either_way(self, first):
        # the cut is the lower child's top and the upper child's bottom; its
        # line's store holds the same walk whichever came first, and that of
        # a fresh walk after a clear, in every field
        auxiliary.r_eval_cache_clear()
        if first == "fresh":
            counting_mod._edge_walk(r_value, self.CUT)
        else:
            rectangle_count(r_value, self.CHILDREN[first == "upper"])
        line = counting_mod._LINE_WALKS[(False, 45.0, self.CUT.m)]
        edge, trace = line[(-6.0, 2.0)]
        assert edge == self.CUT
        assert trace == arg_variation(r_value, self.CUT,
                                      self.CUT.seed_params())
        assert counting_mod._edge_walk(r_value, self.CUT) is trace

    def test_caller_function_is_walked_every_time(self):
        calls = [0]

        def poly(z):
            calls[0] += 1
            return (z - (1 + 10j)) * (z - (1.2 + 10.5j))

        made = []
        for _ in range(2):
            before = calls[0]
            assert rectangle_count(poly, TestWindingNumber.RECT)[0] == 2
            made.append(calls[0] - before)
        assert made[0] > 0 and made[0] == made[1]

    def test_clear_empties_the_memos(self, monkeypatch):
        # a base count after a clear computes its R values again
        auxiliary.r_eval_cache_clear()
        computed = TestSampleLattice._computed(monkeypatch)
        first = base_count(-6.0)
        cold = len(computed)
        assert counting_mod._BASE_COUNT_CACHE and counting_mod._LINE_WALKS
        auxiliary.r_eval_cache_clear()
        assert not counting_mod._BASE_COUNT_CACHE
        assert not counting_mod._LINE_WALKS
        assert base_count(-6.0) == first
        assert cold > 0 and len(computed) == 2 * cold


class TestInnerWalk:
    """An edge of R inside an edge walked on its line and lattice is built
    from that walk (_inner_walk) with the bits of a fresh walk."""

    PARENT = TestEdgeMemo.PARENT
    # a child whose top, t = 44.9, is off the lattice of its left side
    # (m = 2, as its parent's): a lattice point such as t = 45 is one of the
    # parent's seeds, whose log the built walk reads from the parent's walk
    CHILD = Box(-6.0, 2.0, 10.0, 44.9)

    @staticmethod
    def _inner(monkeypatch):
        """Record [edge, the walk it is built from, its ArgTrace] of each
        walk built from another; the trace stays None if the walk raises."""
        built = []
        inner = counting_mod._inner_walk

        def record(edge, outer, walked):
            entry = [edge, walked, None]
            built.append(entry)
            entry[2] = inner(edge, outer, walked)
            return entry[2]

        monkeypatch.setattr(counting_mod, "_inner_walk", record)
        return built

    # at 10^4 the sides on sigma = -30 keep their parent's lattice, m = 4;
    # on sigma = 2 the 10-long side has m = 1 and the 7-interval floor puts
    # its 5-long children on m = 2, so they are walked fresh
    @pytest.mark.parametrize("box, vertical, horizontal", [
        ((-12.0, 2.0, 10.0, 149.0), 36, 0),
        ((-30.0, 2.0, 1e4, 1e4 + 10.0), 2, 8),
    ], ids=["desk", "1e4"])
    def test_same_bits_as_a_fresh_walk(self, monkeypatch, box, vertical,
                                       horizontal):
        from rzero.zeros import locate_zeros
        auxiliary.r_eval_cache_clear()
        built = self._inner(monkeypatch)
        locate_zeros(Box(*box))
        assert sum(edge.vertical for edge, _, _ in built) == vertical
        assert sum(not edge.vertical for edge, _, _ in built) == horizontal
        stored = [(key, ends, *walk)
                  for key, line in counting_mod._LINE_WALKS.items()
                  for ends, walk in line.items()]
        # the built walks are among the stored ones, beside the fresh ones
        traces = [trace for _, _, _, trace in stored]
        assert all(any(trace is t for t in traces) for _, _, trace in built)
        assert len(stored) > len(built)
        for key, ends, edge, trace in stored:
            # every walk, fresh or built, under its edge's key, in every
            # field: the variation and moments, and each node's parameter,
            # point, log and step
            assert key == (edge.vertical, edge.level, edge.m)
            assert ends == (edge.start, edge.end)
            assert trace == arg_variation(r_value, edge, edge.seed_params())

    def test_split_requests_only_new_intervals(self, monkeypatch):
        # during a split of the box the children's sides request R only at
        # their new end seeds and the bisection nodes between those and the
        # nearest lattice point: the intervals read from the parent's walk
        # request nothing
        from rzero import zeros as zeros_mod
        from rzero.zeros import _split_conserving
        box = Box(-12.0, 2.0, 10.0, 149.0)
        auxiliary.r_eval_cache_clear()
        winding, _ = rectangle_count(r_value, box)
        built = self._inner(monkeypatch)
        requested, inside = [], [False]
        many, inner = auxiliary.r_eval_many, counting_mod._inner_walk

        def record_many(points, derivative=False):
            points = list(points)
            requested.extend((inside[0], z) for z in points)
            return many(points, derivative)

        def record_inner(*args):
            inside[0] = True
            try:
                return inner(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(auxiliary, "r_eval_many", record_many)
        monkeypatch.setattr(zeros_mod, "r_eval_many", record_many)
        monkeypatch.setattr(counting_mod, "_inner_walk", record_inner)
        _split_conserving(r_value, box, winding)
        assert len(built) == 4
        new = [z for _, walked, trace in built
               for u, z in zip(trace.params, trace.nodes)
               if u not in walked.params]
        assert [z for flag, z in requested if flag] == new
        assert 0 < len(new) < 20 and len(requested) > 100

    @pytest.mark.parametrize("shift", [complex(-30.0, 0.0),
                                       complex(0.0, math.pi)],
                             ids=["dip", "phase"])
    def test_raises_as_a_fresh_walk(self, monkeypatch, shift):
        # a log of R moved at the child's new end seed (its top): a dip
        # there, or a phase turn into the last interval, fails the fresh
        # walk of the child's side, and the walk built from the parent's
        # raises the same error and keeps nothing
        auxiliary.r_eval_cache_clear()
        rectangle_count(r_value, self.PARENT)
        outer = _rectangle_edges(self.PARENT)["left"]
        edge = _rectangle_edges(self.CHILD)["left"]
        assert edge.m == outer.m and edge.start == outer.start
        assert round(edge.end * edge.m) / edge.m != edge.end
        cut = edge.point(edge.end)
        logs_at = counting_mod.logs_at

        def moved(f, points):
            return [log + shift if z == cut else log
                    for z, log in zip(points, logs_at(f, points))]

        monkeypatch.setattr(counting_mod, "logs_at", moved)
        with pytest.raises(ZeroOnPathError) as fresh:
            arg_variation(r_value, edge, edge.seed_params())
        built = self._inner(monkeypatch)
        with pytest.raises(ZeroOnPathError) as reused:
            counting_mod._edge_walk(r_value, edge)
        assert [(e, trace) for e, _, trace in built] == [(edge, None)]
        assert str(reused.value) == str(fresh.value)
        assert reused.value.where == fresh.value.where
        line = counting_mod._LINE_WALKS[(True, edge.level, edge.m)]
        assert (edge.start, edge.end) not in line
        assert edge not in [e for e, _ in line.values()]


class TestWindingNumber:
    RECT = Box(0.0, 2.0, 9.0, 11.0)

    def test_single_zero(self):
        assert rectangle_count(lambda z: z - (1 + 10j), self.RECT)[0] == 1

    def test_multiplicity(self):
        f = lambda z: (z - (1 + 10j)) ** 2 * (z - (1.2 + 10.5j))
        assert rectangle_count(f, self.RECT)[0] == 3

    def test_no_zero(self):
        assert rectangle_count(lambda z: z - (5 + 10j), self.RECT)[0] == 0

    def test_branch_cut_rejected(self):
        # the principal-sqrt discontinuity crosses the contour: the phase
        # contract cannot be met there, on any rung of the ladder, and the
        # failure must be loud
        f = lambda z: cmath.sqrt(z - (1 + 10j))
        with pytest.raises(ContourZeroError):
            rectangle_count(f, self.RECT)

    def test_integrality_guard(self):
        assert integer_winding(0.93) == 1 and integer_winding(-0.02) == 0
        with pytest.raises(NonIntegerWindingError):
            integer_winding(0.63)

    def test_integrality_margin(self):
        raw = _rectangle_winding(lambda z: z - (1 + 10j), self.RECT)
        assert abs(raw - 1.0) < 0.02

    def test_double_zero_near_a_side(self):
        # 0.05 inside the right side (lattice step 1/4) the walk along
        # sigma = 2 reads the double zero's turn
        f = lambda z: (z - (1.95 + 10.02j)) ** 2
        assert rectangle_count(f, self.RECT)[0] == 2

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 9: 0.01 inside the right side the double zero turns f "
        "by +302 degrees between the samples 10.0 and 10.25, which the "
        "walk's nearest-branch rule reads as -58"))
    def test_double_zero_closer_to_a_side(self):
        f = lambda z: (z - (1.99 + 10.02j)) ** 2
        assert rectangle_count(f, self.RECT)[0] == 2


class TestModulusBound:
    def test_right_half(self):
        assert math.exp(log_modulus_bound(1.0, 100.0)) == pytest.approx(
            math.sqrt(100.0 / TWO_PI), rel=1e-12)

    def test_left_half(self):
        # 19 * 100/(2 pi) * (1 + 100^2)^(1/4), frozen from a 30-digit run
        assert math.exp(log_modulus_bound(0.0, 100.0)) == pytest.approx(
            3024.019515, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_modulus_bound(0.5, 16.0 * math.pi)

    def test_log_form_consistent(self):
        # the log form against the bound written as a product
        for sigma, t in ((-3.0, 120.0), (0.5, 70.0), (-40.0, 300.0)):
            if sigma > 0.0:
                direct = math.sqrt(t / TWO_PI)
            else:
                direct = (19.0 * t / TWO_PI ** (1.0 - sigma)
                          * ((1.0 - sigma) ** 2 + t * t) ** (0.25 - 0.5 * sigma))
            assert math.exp(log_modulus_bound(sigma, t)) == pytest.approx(
                direct, rel=1e-12)


class TestMainTerm:
    def test_at_two_pi(self):
        smooth, sqrt_term = main_term(TWO_PI)
        assert smooth == pytest.approx(-0.5, rel=1e-14)
        assert sqrt_term == pytest.approx(0.5, rel=1e-14)

    def test_at_two_pi_e_squared(self):
        smooth, sqrt_term = main_term(TWO_PI * math.e ** 2)
        assert smooth == pytest.approx(math.e ** 2 / 2.0, rel=1e-13)
        assert sqrt_term == pytest.approx(math.e / 2.0, rel=1e-13)
        assert smooth - sqrt_term == pytest.approx(2.3353871352358, rel=1e-12)

    def test_at_thousand(self):
        smooth, sqrt_term = main_term(1000.0)
        # frozen from a 30-digit evaluation of the closed form
        assert smooth - sqrt_term == pytest.approx(317.562786351433, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            main_term(0.0)

    @given(st.floats(1.0, 1e5))
    def test_sqrt_component(self, big_t):
        _, sqrt_term = main_term(big_t)
        assert sqrt_term == pytest.approx(0.5 * math.sqrt(big_t / TWO_PI))


class TestCountZeros:
    def test_empty_strip(self):
        # no zero below DESK_T0 and none in the strip up to 20
        res = residual_table([20.0])[0]
        assert res.count == 0
        assert res.residual == pytest.approx(res.count - res.main_value)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            residual_table([5.0, 50.0])
        with pytest.raises(DomainError):
            residual_table([10.0, 50.0])
        with pytest.raises(DomainError):
            residual_table([50.0], box_left=0.0)
        with pytest.raises(DomainError):
            residual_table([20.0, 10.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                residual_table([20.0, bad])
        for rect in ((0.0, 2.0, 20.0, 10.0), (0.0, 0.0, 10.0, 20.0),
                     (-math.inf, 2.0, 10.0, 20.0), (0.0, 2.0, 10.0, math.nan)):
            with pytest.raises(DomainError):
                rectangle_count(lambda z: z - 15j, Box(*rect))

    def test_strip_10_60(self):
        res = residual_table([60.0])[0]
        assert res.count == 6
        assert res.window[0] == pytest.approx(10.0, abs=0.01)
        assert res.residual == pytest.approx(res.count - res.main_value)
        assert res.top_bound is None  # strip rows carry no certificate

    def test_left_edge_widens_past_a_zero(self):
        # the zero -2.8217 + 54.2696i lies left of sigma = -2, so the box
        # must widen to -22 before the table counts it
        assert adequate_box_left(60.0, -2.0) == -22.0
        res = residual_table([60.0], box_left=-2.0)[0]
        assert res.count == 6
        assert res.count == residual_table([60.0])[0].count

    def test_additivity(self):
        lo, _ = rectangle_count(r_value, Box(-6.0, 2.0, 10.0, 45.0))
        hi, _ = rectangle_count(r_value, Box(-6.0, 2.0, 45.0, 80.0))
        full, _ = rectangle_count(r_value, Box(-6.0, 2.0, 10.0, 80.0))
        assert lo + hi == full
        table = residual_table([45.0, 80.0])
        assert table[0].count - base_count() == lo
        assert table[1].count - table[0].count == hi

    def test_off_integer_rectangle_rejected(self, monkeypatch):
        monkeypatch.setattr(counting_mod, "_rectangle_winding",
                            lambda *a, **k: 1.37)
        with pytest.raises(NonIntegerWindingError):
            counting_mod.rectangle_count(lambda z: z - (0.5 + 30j),
                                         Box(-6.0, 2.0, 10.0, 60.0))

    def test_ladder_moves_only_the_top(self):
        # a zero on the top edge is escaped by raising the top; the bottom
        # and the sides never move, so a zero on any of them stays on the
        # contour
        count, window = rectangle_count(lambda z: z - (0.5 + 20j),
                                        Box(-6.0, 2.0, 10.0, 20.0))
        assert count == 1
        assert window == Box(-6.0, 2.0, 10.0, 20.0 + 1e-3)
        for zero in (0.5 + 10j, 15j, 2.0 + 15j):  # bottom, left, right
            with pytest.raises(ContourZeroError):
                rectangle_count(lambda z: z - zero, Box(0.0, 2.0, 10.0, 20.0))

    def test_polynomial_rectangle(self):
        count, window = rectangle_count(
            lambda z: (z - (0.5 + 30j)) * (z - (-2 + 55j)),
            Box(-6.0, 2.0, 10.0, 60.0))
        assert count == 2 and window == Box(-6.0, 2.0, 10.0, 60.0)


class TestTopEdgeCertificate:
    def test_backlund_cap_on_realised_variation(self):
        # the realised top-edge argument variation must sit below 2 pi times
        # the bound built from the modulus bound over the certification disc
        big_t, box_left = 200.0, -6.0
        bound_turns = top_edge_certificate(big_t, box_left)
        assert bound_turns is not None
        seg = PathSegment(complex(2.0, big_t), complex(box_left, big_t))
        trace = arg_variation(r_value, seg, unit_params(64))
        assert abs(trace.total_variation) <= TWO_PI * bound_turns

    def test_low_heights_inadmissible(self):
        # the fallback disc of radius T - 16 pi - 1 = 3.7 cannot reach -6
        assert top_edge_certificate(55.0, -6.0) is None

    def test_every_curve_height_certified(self):
        heights = np.geomspace(CURVE_T0, 1e5, 400).tolist()
        assert all(math.isfinite(top_edge_certificate(t, curve_sigma(t)))
                   for t in heights)

    def test_matches_disc_scan(self):
        # reference: the supremum of the modulus bound over 401 sigma values
        # on the top of the disc about 2 + iT
        def scanned(big_t, box_left):
            radius = 2.0 + 2.0 * big_t ** 0.4 * math.log(big_t)
            if big_t - radius <= 16.0 * math.pi:
                radius = big_t - 16.0 * math.pi - 1.0
            log_m = max(
                log_modulus_bound(2.0 - radius + 2.0 * radius * k / 400,
                                  big_t + radius)
                for k in range(401))
            return (0.5 * (log_m - math.log(0.25))
                    / math.log(radius / (2.0 - box_left)))

        checked = 0
        for big_t in np.linspace(100.0, 4000.0, 300):
            for box_left in (-6.0, -12.0):
                bound = top_edge_certificate(float(big_t), box_left)
                if bound is not None:
                    assert bound == scanned(float(big_t), box_left)
                    checked += 1
        assert checked > 500


class TestResidualTable:
    def test_small_grid(self):
        table = residual_table([20.0, 40.0, 60.0])
        assert [r.big_t for r in table] == [20.0, 40.0, 60.0]
        counts = [r.count for r in table]
        assert counts == sorted(counts)
        assert counts[-1] == 6
        for r in table:
            assert r.residual == pytest.approx(r.count - r.main_value)
            assert r.smooth_term == pytest.approx(r.main_value + r.sqrt_term)

    def test_square_heights(self):
        k = 3
        table = residual_table([TWO_PI * k * k])
        assert table[0].sqrt_term == pytest.approx(k / 2.0, rel=1e-13)

    def test_monotone_grid_required(self):
        with pytest.raises(DomainError):
            residual_table([30.0, 30.0])

    def test_matches_direct_count(self):
        table = residual_table([30.0, 55.0])
        direct, _ = rectangle_count(r_value, Box(-6.0, 2.0, 10.0, 55.0))
        assert table[-1].count - base_count() == direct

    @staticmethod
    def _table_with_zero_on_strip(monkeypatch):
        """residual_table([20, 40, 60]) with a zero forced once onto the
        40 -> 60 strip; returns the table and the t-extents evaluated."""
        winding = counting_mod._rectangle_winding
        forced, evaluated = [], []

        def zero_once(f, box):
            if (box.t_lo, box.t_hi) == (40.0, 60.0) and not forced:
                forced.append(box.t_lo)
                raise ZeroOnPathError("forced", where=complex(0.0, box.t_lo))
            result = winding(f, box)
            evaluated.append((box.t_lo, box.t_hi))
            return result

        monkeypatch.setattr(counting_mod, "_rectangle_winding", zero_once)
        table = residual_table([20.0, 40.0, 60.0])
        assert forced == [40.0]
        return table, evaluated

    def test_window_is_evaluated_rectangle(self, monkeypatch):
        # the ladder moves the forced strip's top (to 40 -> 60.001); each row
        # reports the strip that was counted, not the requested one
        table, evaluated = self._table_with_zero_on_strip(monkeypatch)
        assert [row.window for row in table] == evaluated[-3:]
        assert table[0].window == (10.0, 20.0)
        assert table[1].window == (20.0, 40.0)
        assert table[2].window[1] == pytest.approx(60.001, abs=1e-12)

    def test_strips_are_contiguous(self, monkeypatch):
        table, _ = self._table_with_zero_on_strip(monkeypatch)
        assert table[2].window[0] == table[1].window[1]


class TestCurveContour:
    def test_t0_admits_the_surrogate(self):
        assert CURVE_T0 >= SURROGATE_T_MIN

    @pytest.mark.parametrize("big_t, expected", [(5000.0, 2247),
                                                 (10000.0, 5051)])
    def test_far_heights(self, big_t, expected):
        # 2247 is also the stacked-strip count of [-6, 2] x [10, 5000], which
        # takes 91 317 R computations; the curve contour samples only its
        # top edge, walked at the step its phase needs (794 R computations
        # from a cold cache at 10^4, 744 of them for the strips below
        # CURVE_T0; 3450 at the equispaced seed rate)
        before = auxiliary._R_CACHE.cache_info().misses
        (row,) = residual_table([big_t])
        assert auxiliary._R_CACHE.cache_info().misses - before <= 800
        assert row.count == expected
        assert row.window == (CURVE_T0, big_t)
        assert abs(row.top_turns) <= row.top_bound

    def test_count_at_1e9(self):
        # the top edge [curve_sigma(T), 2] + iT is 82 502 long; from a cold
        # cache the curve contour's two walked edges take 65 of the 809 R
        # values computed, the strips below CURVE_T0 the rest (41 291 of
        # 42 035 when round 0 stepped by 2)
        before = auxiliary._R_CACHE.cache_info().misses
        (row,) = residual_table([1e9])
        assert auxiliary._R_CACHE.cache_info().misses - before <= 850
        assert row.count == 1_423_267_708
        assert row.top_turns == pytest.approx(-0.760958, abs=1e-6)
        assert row.window == (CURVE_T0, 1e9)

    def test_walk_matches_equispaced_edge(self):
        # the walk against the same edge sampled at the seed rate it had
        # before (pinned here, so the reference does not move with the code)
        def pinned_seeds(t, length):
            rate = 0.5 * math.log(max(t, 7.0) / TWO_PI) + 3.5
            return max(8, int(math.ceil(length * rate / 1.2)) + 1)

        rng = random.Random(1600)
        for _ in range(40):
            t = rng.uniform(100.5, 3000.0)
            left = curve_sigma(t)
            seeds = pinned_seeds(t, 2.0 - left)
            dense = arg_variation(r_value, PathSegment(
                complex(left, t), complex(2.0, t)), unit_params(seeds))
            _, _, top_turns, _ = _curve_turns(t)
            assert top_turns == pytest.approx(
                -dense.total_variation / TWO_PI, abs=1e-9)

    @staticmethod
    def _top_edge(t):
        """The curve contour's horizontal edge at height t."""
        left = curve_sigma(t)
        return AxisEdge(t, left, 2.0, False, _lattice_m(t, 2.0 - left))

    def test_walk_on_the_seed_lattice(self):
        # a subset of the lattice of the edge's line, ends included, far
        # sparser than it is; no interval needs a bisection node
        t = 1e4
        left = curve_sigma(t)
        edge = self._top_edge(t)
        params = _walk_edge(edge).params
        lattice = edge.seed_params()
        assert params[0] == left and params[-1] == 2.0
        assert set(params) <= set(lattice)
        assert 3 * len(params) < len(lattice)

    @pytest.mark.parametrize("t", [CURVE_T0, 150.0, 1e4, 1e7],
                             ids=["bottom", "150", "1e4", "1e7"])
    def test_walk_is_arg_variation_on_its_samples(self, t):
        # the walk from the logs its rounds read has every field of
        # arg_variation's walk through the same seeds, bisection nodes
        # included
        edge = self._top_edge(t)
        trace = _walk_edge(edge)
        assert trace == arg_variation(r_value, edge, trace.params)

    def test_ends_read_from_the_walk(self):
        # R at the corner and at 2 + it comes from the walk's logs, with the
        # bits r_eval gives each as a value entry of its own
        t = 150.0
        auxiliary.r_eval_cache_clear()
        edge = self._top_edge(t)
        trace = _walk_edge(edge)
        corner = edge.point(edge.start)
        at_corner = auxiliary.r_eval(corner)
        right = auxiliary.r_eval(complex(2.0, t)).value
        assert trace.logs[0] == at_corner.log_value
        assert cmath.exp(trace.logs[-1]) == right
        log_s = r_asymptotic(corner).log_value
        ratio = cmath.exp(at_corner.log_value - log_s)
        top_turns = -trace.total_variation / TWO_PI
        phi = (cmath.phase(right) + TWO_PI * top_turns
               - log_s.imag - cmath.phase(ratio))
        assert _curve_turns(t)[:3] == (t, phi / TWO_PI, top_turns)

    def test_exact_zero_at_a_sample_raises(self, monkeypatch):
        # R exactly 0 at a picked sample (log None) raises as logs_at does,
        # naming that sample
        edge = self._top_edge(150.0)
        params = _walk_edge(edge).params
        zero = edge.point(params[len(params) // 2])
        many = counting_mod.r_eval_many

        def zero_there(points, derivative=False):
            return [auxiliary.EvaluationResult(0j, "quadrature", 0.0)
                    if z == zero else res
                    for z, res in zip(points, many(points, derivative))]

        monkeypatch.setattr(counting_mod, "r_eval_many", zero_there)
        with pytest.raises(ZeroOnPathError,
                           match="exact zero at a sample node") as info:
            _walk_edge(edge)
        assert info.value.where == zero

    def test_too_coarse(self):
        # each of the three tests alone splits an interval
        assert not _too_coarse(1.0, 0j, 0.3j, 0.3j, 0.3j)
        assert _too_coarse(2.0, 0j, 0.3j, 0.6j, 0.3j)  # phase step 0.6
        assert _too_coarse(1.0, 0j, 0.3j, 3.4j, 0.3j)  # a hidden half turn
        assert not _too_coarse(1.0, 0j, 0.3j, (0.3 + TWO_PI) * 1j, 0.3j)
        assert not _too_coarse(1.0, None, None, 3.4j, 0.3j)  # exact zero
        assert _too_coarse(1.0, 0j, 0.3j, 0.3j, 1.3 + 0.3j)  # a bend of 1.3

    @pytest.mark.parametrize("e", [0.003, 0.001])
    @pytest.mark.parametrize("side", [1, -1], ids=["one-side", "both-sides"])
    def test_too_coarse_on_a_close_pair(self, side, e):
        # an interval left unsplit reads its turn from the nearest branch.
        # Two zeros just above [0, 2] turn f by nearly a full turn, which
        # the nearest branch and the trapezoid both read as about 0 while
        # the predicted phase steps stay small; the bend, about 10.7,
        # splits it.  With one zero on either side f turns by nothing.
        zeros = (0.5 + e * 1j, 1.5 + side * e * 1j)

        def f(z):
            return math.prod(z - rho for rho in zeros)

        ends = []
        for z in (0j, 2 + 0j):
            ends += [cmath.log(f(z)), sum(1 / (z - rho) for rho in zeros)]
        dense = arg_variation(f, PathSegment(0j, 2 + 0j), unit_params(4001))
        turns = dense.total_variation / TWO_PI
        assert turns == pytest.approx(0.5 + 0.5 * side, abs=0.01)
        step = math.remainder(ends[2].imag - ends[0].imag, TWO_PI)
        assert _too_coarse(2.0, *ends) or abs(step - TWO_PI * turns) < 0.1

    @pytest.mark.parametrize("which", [0, -1], ids=["first", "last"])
    def test_top_edge_at_a_located_zero(self, which):
        # the top edge through a golden zero (the first above CURVE_T0 and
        # the highest): the ladder moves it by one step, and the count is
        # the number of golden zeros up to that height
        golden = json.loads((pathlib.Path(__file__).parent / "data"
                             / "golden.json").read_text())
        gammas = sorted(float(g) for _, g in golden["zeros"])
        gamma = [g for g in gammas if g > CURVE_T0][which]
        (row,) = residual_table([gamma])
        assert row.window == (CURVE_T0, gamma + PERTURB_STEP)
        assert row.count == sum(g <= gamma for g in gammas)

    def test_row_at_t0_is_a_strip_row(self):
        table = residual_table([60.0, CURVE_T0, 150.0])
        assert [r.big_t for r in table] == [60.0, CURVE_T0, 150.0]
        assert table[1].window == (60.0, CURVE_T0)
        assert table[1].count == 13 and table[1].top_turns is None
        assert table[2].window == (CURVE_T0, 150.0)
        strip, _ = rectangle_count(r_value, Box(-6.0, 2.0, CURVE_T0, 150.0))
        assert table[2].count == 13 + strip
        assert table[2].count == residual_table([150.0])[0].count

    @staticmethod
    def _force_zero_once(monkeypatch, height):
        """Make _walk_edge meet a zero once on the edge
        [curve_sigma(height), 2] + i height; returns the list of points
        where it did."""
        walk = counting_mod._walk_edge
        corner = complex(curve_sigma(height), height)
        forced = []

        def zero_once(edge):
            if edge.point(edge.start) == corner and not forced:
                forced.append(corner)
                raise ZeroOnPathError("forced", where=corner)
            return walk(edge)

        monkeypatch.setattr(counting_mod, "_walk_edge", zero_once)
        return forced

    @pytest.mark.parametrize("height, window", [
        (150.0, (CURVE_T0, 150.0 + PERTURB_STEP)),
    ], ids=["top"])
    def test_ladder_moves_a_curve_edge(self, monkeypatch, height, window):
        # a zero forced once onto the top edge moves it up by one ladder
        # step; the count holds
        expected = residual_table([150.0])[0].count
        forced = self._force_zero_once(monkeypatch, height)
        (row,) = residual_table([150.0])
        assert forced == [complex(curve_sigma(height), height)]
        assert row.window == window
        assert row.count == expected

    def test_zero_on_base_edge_raises(self, monkeypatch):
        # the bottom edge stays at CURVE_T0: a zero on it is not escaped
        forced = self._force_zero_once(monkeypatch, CURVE_T0)
        with pytest.raises(ContourZeroError):
            residual_table([150.0])
        assert forced == [complex(curve_sigma(CURVE_T0), CURVE_T0)]

    def test_backlund_check(self, monkeypatch):
        monkeypatch.setattr(counting_mod, "top_edge_certificate",
                            lambda t, left: 1e-3 if t > 120.0 else None)
        with pytest.raises(BacklundError):
            residual_table([150.0])

    def test_backlund_bound_exceeded(self, monkeypatch):
        # every edge has a bound here, so only the measured turns can fail
        monkeypatch.setattr(counting_mod, "top_edge_certificate",
                            lambda t, left: 1e-6)
        with pytest.raises(BacklundError, match="bound is 1e-06"):
            residual_table([150.0])

    @pytest.mark.parametrize("limit", ["U_LIMIT", "RIGHT_LIMIT"])
    def test_heuristic_checks_raise(self, monkeypatch, limit):
        monkeypatch.setattr(counting_mod, limit, 0.0)
        with pytest.raises(RegionError):
            residual_table([150.0])

    def test_log_surrogate_continuous_on_curve(self):
        # the curve side's argument is Im log S; summed principal increments
        # on a grid of step 1/4 must reproduce its direct difference
        ts = np.arange(100.0, 10000.0 + 0.125, 0.25)
        phases = [r_asymptotic(complex(curve_sigma(t), t)).log_value.imag
                  for t in ts.tolist()]
        summed = math.fsum(math.remainder(b - a, TWO_PI)
                           for a, b in zip(phases, phases[1:]))
        assert abs(summed - (phases[-1] - phases[0])) <= 1e-9

    @pytest.mark.parametrize("t0", [1e6, 1e8, 1e10])
    def test_log_surrogate_continuous_at_height(self, t0):
        # Im log S along 2000 steps of 1/20 of the curve side: every raw
        # increment is its own principal value and stays under pi/2 (the
        # largest are about 0.30, 0.42 and 0.53 at 10^6, 10^8 and 10^10)
        phases = [r_asymptotic(complex(curve_sigma(t), t)).log_value.imag
                  for t in (t0 + k / 20.0 for k in range(2001))]
        steps = [b - a for a, b in zip(phases, phases[1:])]
        assert all(math.remainder(d, TWO_PI) == d for d in steps)
        assert max(abs(d) for d in steps) < 0.5 * math.pi

    def test_surrogate_ratio_small_on_curve(self):
        # |u| = |R/S - 1| at dense heights of the curve side
        points = [complex(curve_sigma(t), t)
                  for t in np.linspace(100.0, 2000.0, 1901).tolist()]
        worst = max(
            abs(cmath.exp(res.log_value - r_asymptotic(s).log_value) - 1.0)
            for s, res in zip(points, r_eval_many(points)))
        assert worst < 0.1

    def test_surrogate_holds_on_the_curve_to_1e10(self):
        # the facts the curve side rests on, at the heights N(T) is counted
        # to: |u| <= U_LIMIT and a finite error estimate at 20 seeded
        # heights in each of [10^7, 10^8] and [10^9, 10^10]; above
        # t ~ 2e9 the far-left residue cut drops more than 17 700 residues,
        # where a rounding floor formed as a product overflowed
        for lo in (7, 9):
            rng = random.Random(10 ** (lo + 1))
            points = [complex(curve_sigma(t), t) for t in
                      (10.0 ** rng.uniform(lo, lo + 1) for _ in range(20))]
            for s, res in zip(points, r_eval_many(points)):
                u = abs(cmath.exp(res.log_value - r_asymptotic(s).log_value)
                        - 1.0)
                assert u <= U_LIMIT and math.isfinite(res.error_estimate), s


class TestSqrtFit:
    def test_exact_line(self):
        # N - smooth = -x/2 + 0.7 exactly, x = sqrt(T/2pi)
        results = []
        for big_t in (100.0, 250.0, 400.0, 900.0):
            y = -0.5 * math.sqrt(big_t / TWO_PI) + 0.7
            results.append(CountResult(big_t=big_t, count=0, main_value=-y,
                                       sqrt_term=0.0, residual=y))
        coefficient, intercept = sqrt_fit(results)
        assert coefficient == pytest.approx(-0.5, abs=1e-12)
        assert intercept == pytest.approx(0.7, abs=1e-12)

    def test_single_height_undetermined(self):
        single = CountResult(big_t=30.0, count=1, main_value=0.4,
                             sqrt_term=1.1, residual=0.6)
        assert all(math.isnan(v) for v in sqrt_fit([single]))

    def test_paper_coefficient_at_scale(self):
        # the counting formula's -1/2 from counts at 2 heights per decade
        # from 10^4 to 10^8; criterion 3 fits over TABLE_GRID (100 ... 2000)
        # and gets -0.4846
        rows = residual_table([10.0 ** (4 + k / 2) for k in range(9)])
        coefficient, _ = sqrt_fit(rows)
        assert abs(coefficient + 0.5) <= 1e-3
        assert all(abs(row.residual) <= 2.0 for row in rows)
