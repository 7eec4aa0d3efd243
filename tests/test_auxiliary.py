import cmath
import dataclasses
import functools
import hashlib
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.functions import rszeta

from rzero import auxiliary
from rzero.auxiliary import (
    EPS_TARGET,
    LATTICE_FINEST_STEP,
    LATTICE_MAX_ENTRIES,
    _quadrature,
    curve_sigma,
    default_crossing,
    r_asymptotic,
    r_derivative,
    r_eval,
    r_eval_cache_clear,
    r_eval_many,
    zeta_from_r,
    zeta_reference,
)
from rzero.errors import (
    DomainError,
    PoleOfGammaError,
    RegionError,
)
from rzero.counting import unit_params
from rzero.special_functions import TWO_PI, chi
from rzero.zeros import _CIRCLE_SEEDS, Box, _Circle, refine_zero

mp.mp.dps = 30

# Frozen reference values from an independent fine-step quadrature of the
# defining line integral at 40+ digits (step 1/32, half-length 18).
R_AT_2 = complex(-0.8224670334241132182, -1.5707963267948966192)
R_AT_HALF_50 = complex(0.4011369790593352350, 0.2745769763098370763)
R_AT_2_30 = complex(0.9614837009052613861, -0.1823303012141682685)


class TestZetaReference:
    def test_basel(self):
        assert zeta_reference(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-13)

    def test_at_zero(self):
        assert zeta_reference(0.0) == pytest.approx(-0.5, rel=1e-13)

    def test_at_minus_one(self):
        assert zeta_reference(-1.0) == pytest.approx(-1.0 / 12.0, rel=1e-10)

    def test_pole(self):
        with pytest.raises(PoleOfGammaError):
            zeta_reference(1.0)

    @pytest.mark.parametrize("s", [0.5 + 25j, -1 + 100j, 2 + 9.5j, 1 + 77j])
    def test_against_mpmath(self, s):
        ref = complex(mp.zeta(mp.mpc(s)))
        assert abs(zeta_reference(s) - ref) < 1e-11 * abs(ref)


def _start_half(s, q):
    """The extent at which _step_halve starts at s and crossing q."""
    return math.ceil(2 * auxiliary._half_length(s.imag, q)) / 2


def _figures(row):
    """_pass_figures of each channel of a row at its current step."""
    return [auxiliary._pass_figures(row.step, row.half, row.m, row.phase, sums)
            for sums in row.sums]


def _fixed(s, q, half, step):
    """(value, error_estimate) of R from the fixed pass at s: the
    discrepancy against step 2 * step, the tails and the rounding floor."""
    (figures,) = _figures(_quadrature(s, q, half, step))
    return auxiliary._absolute(*auxiliary._estimate(figures, None))


class TestRIntegral:
    """R(s) as the line integral itself, from the fixed pass _quadrature."""

    def test_value_at_two(self):
        value, _ = _fixed(2.0, 0, _start_half(2.0, 0), 1 / 32)
        assert abs(value - R_AT_2) < 1e-11
        # closed form of the same number
        assert value == pytest.approx(
            complex(-math.pi ** 2 / 12.0, -math.pi / 2.0), abs=1e-11)

    def test_crossing_invariance_at_two(self):
        vals = [_fixed(2.0, q, _start_half(2.0, q), 1 / 32) for q in (0, 1, 2)]
        for v, e in vals[1:]:
            assert abs(v - vals[0][0]) <= e + vals[0][1] + 1e-12

    def test_crossing_invariance_oscillatory(self):
        # moving the crossing off the saddle keeps the value (the Dirichlet
        # sum absorbs exactly the residues crossed); off-saddle grids hit a
        # cancellation noise floor near 1e-8 relative, reflected in their
        # error estimates
        s = 0.5 + 50j
        vals = [_fixed(s, q, _start_half(s, q), 1 / 64) for q in range(5)]
        ref = r_eval(s)
        for v, e in vals:
            assert abs(v - ref.value) <= 4.0 * (e + ref.error_estimate) + 1e-11

    def test_fine_step_oracle(self):
        res = r_eval(0.5 + 50j)
        assert abs(res.value - R_AT_HALF_50) < 1e-12

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError):
            r_eval(2.0 - 5.0j)

    def test_value_at_crossing_two(self):
        # the fixed pass through 2 + 1/2 at step 1/32 gives r_eval's value,
        # whose own crossing at t = 10 is 1
        value, _ = _fixed(2 + 10j, 2, 8.0, 1 / 32)
        assert abs(value - r_eval(2 + 10j).value) <= 1e-12

    def test_default_crossing(self):
        assert default_crossing(50.0) == 2
        assert default_crossing(0.0) == 0
        assert default_crossing(2500.0) == int(math.sqrt(2500.0 / TWO_PI))

    @pytest.mark.parametrize("s", [0.5 + 30j, -1 + 60j, 2 + 0j])
    def test_step_halving_convergence(self, s):
        # trapezoid on an analytic integrand: each halving must cut the
        # error estimate by at least 4x (actual decay is much faster)
        q = default_crossing(s.imag)
        errs = []
        for step in (0.25, 0.125, 0.0625):
            (figures,) = _figures(_quadrature(s, q, _start_half(s, q), step))
            _, rel_disc, rel_tail, *_ = figures
            errs.append(rel_disc + rel_tail)
        assert errs[1] <= errs[0] / 4.0
        assert errs[2] <= errs[1] / 4.0


class TestREval:
    def test_method_tag(self):
        assert r_eval(2 + 10j).method == "quadrature"

    def test_band_point(self):
        # sigma >= 2 at desk heights: R stays within 3/4 of 1
        assert abs(r_eval(2 + 10j).value - 1.0) <= 0.75

    def test_center_modulus(self):
        assert abs(r_eval(2 + 100j).value) > 0.25

    def test_near_first_zeta_zero(self):
        s = 0.5 + 14.134725j
        assert abs(zeta_from_r(s) - zeta_reference(s)) < 1e-8

    def test_oracle_2_30(self):
        assert abs(r_eval(2 + 30j).value - R_AT_2_30) < 1e-12

    def test_cache_stability(self):
        a = r_eval(0.25 + 33.3j)
        b = r_eval(0.25 + 33.3j)
        assert a is b

    def test_far_left_residues_in_range(self):
        # the largest residue n^{-s} is e^{300 log 28}, past the double
        # range; R there is finite in log form and agrees with the surrogate
        s = complex(-300.0, 5000.0)
        log_r = r_eval(s).log_value
        assert log_r is not None and cmath.isfinite(log_r)
        assert abs(cmath.exp(log_r - r_asymptotic(s).log_value) - 1.0) < 0.05

    @pytest.mark.parametrize("s", [complex(-365.7, 1e4), complex(-575.0, 1e5),
                                   complex(-100.0, 1e7)])
    def test_far_left_estimate_finite(self, s):
        # |R| is beyond the double range here (e^1345 at the first point, the
        # corner of the curve contour's top edge at T = 10^4), and so are the
        # residues whose phase errors enter the rounding floor
        res = r_eval(s)
        assert res.log_value.real > 709.0
        assert math.isfinite(res.error_estimate) and res.error_estimate > 0.0


# sigma in [-2, 3] at the four layer heights of the benchmark
REUSE_POINTS = [complex(-1.3, 20.4), complex(0.5, 101.7), complex(2.6, 493.2),
                complex(-0.4, 2017.9)]


def _eval_all(points):
    return [(r.value, r.error_estimate, r.log_value)
            for r in map(r_eval, points)]


class TestQuadratureReuse:
    @pytest.mark.parametrize("s", REUSE_POINTS)
    def test_halved_pass_reuses_bit_identically(self, s, monkeypatch):
        # the step-halving loop sums the base grid and its first two
        # halvings in one round and then only the odd nodes of each further
        # halving; its figures at the last step equal a cold one-point pass
        # over the whole grid
        r_eval_cache_clear()
        rows = []
        real_rows = auxiliary._line_rows
        monkeypatch.setattr(auxiliary, "_line_rows",
                            lambda *a: rows.append(a) or real_rows(*a))
        (row,) = auxiliary._step_halve([s])
        monkeypatch.undo()
        assert row.target >= 2 and row.level == row.target
        assert [(step, depth) for _, step, _, depth in rows] == [(0.25, 2)] + [
            (0.25 / 2 ** k, None) for k in range(3, row.target + 1)]
        (warm,) = _figures(row)
        r_eval_cache_clear()
        (cold,) = _figures(_quadrature(s, row.q, row.half, row.step))
        assert warm == cold

    @pytest.mark.parametrize("s", REUSE_POINTS)
    def test_matches_fine_step_oracle(self, s):
        oracle, _ = _oracle(s)
        assert abs(r_eval(s).value - oracle) <= 1e-12 * abs(oracle)

    def test_cold_runs_bit_identical(self):
        points = REUSE_POINTS + [1.0 - p.conjugate() for p in REUSE_POINTS]
        r_eval_cache_clear()
        first = _eval_all(points)
        r_eval_cache_clear()
        again = _eval_all(points)
        r_eval_cache_clear()
        backwards = _eval_all(points[::-1])[::-1]
        assert first == again == backwards

    def test_lattice_memory_bound(self, monkeypatch):
        # the memo keeps no level finer than LATTICE_FINEST_STEP, holds at
        # most LATTICE_MAX_ENTRIES entries, keeps the base grid and its first
        # two halvings as one entry, and the rows it builds for this job
        # stay within 2 MiB
        assert auxiliary._lattice_rows.cache_info().maxsize \
            == LATTICE_MAX_ENTRIES
        built = []

        def build(*key):
            rows = auxiliary._build_rows(*key)
            built.append((key, rows))
            return rows

        monkeypatch.setattr(auxiliary, "_lattice_rows",
                            functools.lru_cache(LATTICE_MAX_ENTRIES)(build))
        r_eval_cache_clear()
        _eval_all(REUSE_POINTS)
        halving = list(built)
        s = REUSE_POINTS[-1]
        q = default_crossing(s.imag)
        _quadrature(s, q, math.ceil(2 * _pinned_half(s.imag, q)) / 2, 1 / 1024)
        info = auxiliary._lattice_rows.cache_info()
        assert 0 < info.currsize <= LATTICE_MAX_ENTRIES
        assert min(step for (_, step, _, _), _ in built) == LATTICE_FINEST_STEP
        assert {(step, depth) for (_, step, _, depth), _ in halving
                if step >= 1 / 16} == {(0.25, 2)}
        nbytes = sum(logx.nbytes + rest.nbytes for _, (logx, rest, _) in built)
        assert 0 < nbytes <= 2 << 20

    def test_log_n_memo_bounded_and_cleared(self):
        # the log n columns of the residues, n = q down to 1, follow the
        # nodes of each first-round row, so they are bounded like the
        # integrand rows and dropped with them
        assert auxiliary._lattice_rows.cache_info().maxsize \
            == LATTICE_MAX_ENTRIES
        r_eval_cache_clear()
        _eval_all(REUSE_POINTS)
        s = REUSE_POINTS[-1]
        q = default_crossing(s.imag)
        n = int(4 * _start_half(s, q))
        neg_logs, rest, _ = auxiliary._lattice_rows(q, 0.25, n, 2)
        assert auxiliary._lattice_rows.cache_info().hits > 0
        assert q > 1 and len(neg_logs) == len(rest) + q
        assert neg_logs[len(rest):].tolist() == [
            complex(-math.log(k)) for k in range(q, 0, -1)]
        r_eval_cache_clear()
        assert auxiliary._lattice_rows.cache_info().currsize == 0

    def test_lattice_flush_keeps_results(self, monkeypatch):
        # each reflected point shares its crossing and extent with a point
        # evaluated four points earlier, which a memo of two entries forgets
        points = REUSE_POINTS + [1.0 - p.conjugate() for p in REUSE_POINTS]
        r_eval_cache_clear()
        reference = _eval_all(points)
        uncapped = auxiliary._lattice_rows.cache_info()
        assert uncapped.hits > 0
        monkeypatch.setattr(auxiliary, "_lattice_rows",
                            functools.lru_cache(2)(auxiliary._build_rows))
        r_eval_cache_clear()
        assert _eval_all(points) == reference
        info = auxiliary._lattice_rows.cache_info()
        assert info.currsize == 2 and info.misses > uncapped.misses

    def test_growing_discrepancy_reaches_target(self):
        # steps 0.25 and 0.125 disagree more than 0.25 and its halving did;
        # that is a pre-asymptotic grid, not a rounding plateau
        s = 1.3762232190598911 + 2092.8020024430552j
        res = r_eval(s)
        assert res.error_estimate <= EPS_TARGET * abs(res.value)
        z = 1.0 - s.conjugate()
        scale = abs(r_eval(z).value) + abs(chi(z) * res.value)
        assert abs(zeta_from_r(z) - zeta_reference(z)) <= 1e-8 * scale


# seeded points in the four bands with sigma in [-30, 2], sigma = -26 at
# each band, and a point whose tail widens the extent at step 1/32
_rng = random.Random(20240605)
BATCH_POINTS = [complex(_rng.uniform(-30.0, 2.0), band * _rng.uniform(0.95, 1.05))
                for band in (20.0, 100.0, 500.0, 2000.0) for _ in range(12)]
BATCH_POINTS += [complex(-26.0, band) for band in (20.3, 99.1, 502.7, 1996.4)]
WIDENING_POINT = complex(-26.244866515411786, 1.171470694917518)
BATCH_POINTS.append(WIDENING_POINT)


def _fields(results):
    return [(r.value, r.error_estimate, r.log_value) for r in results]


class TestEvalMany:
    def test_matches_one_at_a_time(self):
        r_eval_cache_clear()
        alone = _fields(r_eval(p) for p in BATCH_POINTS)
        r_eval_cache_clear()
        assert _fields(r_eval_many(BATCH_POINTS)) == alone

    def test_widening_row_regroups(self):
        # the tail widens the extent after the step has been halved; the
        # sums over the new extent start again from its base grid
        (row,) = auxiliary._step_halve([WIDENING_POINT])
        start = _start_half(WIDENING_POINT, row.q)
        assert row.half > start and row.best[0] == _figures(row)
        (warm,) = _figures(row)
        (cold,) = _figures(_quadrature(WIDENING_POINT, row.q, row.half,
                                       row.step))
        assert row.step < 0.25 and warm == cold

    def test_widening_row_restarts_derivative(self):
        # a derivative request sums R' over the widened extent from its base
        # grid as well, and its R figures are those of the value request
        (alone,) = auxiliary._step_halve([WIDENING_POINT])
        (row,) = auxiliary._step_halve([WIDENING_POINT], derivative=True)
        start = _start_half(WIDENING_POINT, row.q)
        assert row.half > start and row.step < 0.25
        assert (row.half, row.step) == (alone.half, alone.step)
        warm_r, warm_d = _figures(row)
        cold = _quadrature(WIDENING_POINT, row.q, row.half, row.step, True)
        assert warm_d == _figures(cold)[1]
        assert [warm_r] == _figures(alone)
        assert row.best[0][0] == alone.best[0][0]

    def test_cold_batch_bit_identical_in_both_orders(self):
        r_eval_cache_clear()
        forwards = _fields(r_eval_many(BATCH_POINTS))
        r_eval_cache_clear()
        backwards = _fields(r_eval_many(BATCH_POINTS[::-1]))[::-1]
        assert forwards == backwards

    def test_batch_entries_serve_r_eval(self):
        r_eval_cache_clear()
        points = BATCH_POINTS[:10] + BATCH_POINTS[:3]  # repeats are hits
        batch = r_eval_many(points)
        info = auxiliary._r_eval_cached.cache_info()
        assert (info.currsize, info.misses, info.hits) == (10, 10, 3)
        assert all(r_eval(p) is res for p, res in zip(points, batch))
        after = auxiliary._r_eval_cached.cache_info()
        assert (after.misses, after.hits) == (10, 3 + len(points))
        r_eval_cache_clear()
        assert auxiliary._r_eval_cached.cache_info() == (0, 0, info.maxsize, 0)

    def test_derivative_entries_untouched(self):
        r_eval_cache_clear()
        s = BATCH_POINTS[5]
        (entry,) = r_eval_many([s], derivative=True)
        batch = r_eval_many(BATCH_POINTS[:8])
        assert r_eval_many([s], derivative=True)[0] is entry
        assert all(res.derivative is None for res in batch)
        # each key serves only itself: the value at s, held only as a
        # derivative entry, is computed as its own entry, 1 + 8 entries,
        # with the same value bits
        info = auxiliary._r_eval_cached.cache_info()
        assert (info.currsize, info.misses) == (9, 9)
        assert r_eval_many([s])[0] is batch[5]
        assert _fields([batch[5]]) == _fields([entry])

    def test_block_size_within_cap(self, monkeypatch):
        r_eval_cache_clear()
        reference = _fields(r_eval_many(BATCH_POINTS))
        blocks = []  # (crossing, points, nodes, depth) per kernel call
        points = []  # the points of the block being summed
        real_sum, real_rows = auxiliary._sum_level, auxiliary._line_rows

        def sum_level(block, *rest):
            points[:] = [len(block)]
            return real_sum(block, *rest)

        def line_rows(q, step, n, depth):
            rows = real_rows(q, step, n, depth)
            # the log kernel has a column per node (-log x has the
            # residues' columns too)
            blocks.append((q, points[0], len(rows[1]), depth))
            return rows

        cap = 1 << 10
        monkeypatch.setattr(auxiliary, "BATCH_MAX_NODES", cap)
        monkeypatch.setattr(auxiliary, "_sum_level", sum_level)
        monkeypatch.setattr(auxiliary, "_line_rows", line_rows)
        r_eval_cache_clear()
        edge = [complex(0.05 * k, 500.0) for k in range(40)]  # one crossing
        assert _fields(r_eval_many(edge + BATCH_POINTS)[40:]) == reference
        assert all(rows == 1 or rows * nodes <= cap
                   for _, rows, nodes, _ in blocks)
        # the cap holds for the first round of an extent, which reads the
        # base grid and its first two halvings, and for the rounds after it
        assert {depth for *_, depth in blocks} == {2, None}
        first = [rows for q, rows, *_ in blocks if q == default_crossing(500.0)]
        assert max(first) > 1 and first[0] < len(edge)

    def test_cache_bounded_least_recently_used_out(self):
        cache = auxiliary._RCache(maxsize=3)
        a, b, c, d = [(0.5, t) for t in (20.0, 21.0, 22.0, 23.0)]
        cache.keyed([a, b, c], False)
        cache.keyed([a], False)  # a is now the most recently used
        cache.keyed([d], False)
        assert cache.cache_info().currsize == 3
        assert set(cache._store) == {(*p, False) for p in (a, c, d)}

    def test_negative_imaginary_part_rejected(self):
        r_eval_cache_clear()
        with pytest.raises(DomainError):
            r_eval_many([2.0 + 10.0j, 0.5 - 1.0j])
        assert auxiliary._r_eval_cached.cache_info().currsize == 0


# A point that stops at step 1/8, short of the third level of its first
# round, and one whose tail widens the extent at step 1/8, which then sums
# the new extent's first round unjudged up to 1/8; with the fields of
# r_eval_many(..., derivative=True) as one level a round gave them.
FUSED_CASES = {
    complex(0.11832227475606683, 480.01679897274346): (
        [(0.25, 4.0), (0.125, 4.0)],
        (5.1583516622645424+3.1304960392182073j), 9.580029783578101e-11,
        (1.7974024684752812+0.5454623466054431j),
        (-5.675308068620372-5.1207624254556405j), 3.734684684371899e-09,
        (-1.2443698640236434-0.2375308189572379j)),
    complex(-59.42806163036971, 1.869084747957661): (
        [(0.25, 4.0), (0.125, 4.0), (0.125, 6.0), (0.0625, 6.0)],
        (-4629515959682.265+43473449564426.805j), 13.886619350176083,
        (31.40880973289652+1.6768871512542256j),
        (40711099395173.625-42134318507795.06j), 17.50862973392781,
        (-1.056934782761899-0.8239052412197592j)),
}


class TestFirstRound:
    @pytest.mark.parametrize("derivative", [False, True])
    @pytest.mark.parametrize("s", list(FUSED_CASES))
    def test_judged_sums_match_cold_rows(self, s, derivative, monkeypatch):
        # every pass the stopping rules judge holds the sums of a cold pass
        # summed one level a round, also where its level came from the
        # first round unjudged
        judged = []
        real_judge = auxiliary._Row.judge

        def judge(row):
            judged.append((row.step, row.half, row.m, row.phase,
                           [list(sums) for sums in row.sums]))
            return real_judge(row)

        monkeypatch.setattr(auxiliary._Row, "judge", judge)
        (row,) = auxiliary._step_halve([s], derivative)
        monkeypatch.undo()
        assert [(step, half) for step, half, *_ in judged] == FUSED_CASES[s][0]
        for step, half, m, phase, sums in judged:
            cold = _quadrature(s, row.q, half, step, derivative)
            assert (m, phase, sums) == (cold.m, cold.phase, cold.sums)

    @pytest.mark.parametrize("derivative", [False, True])
    @pytest.mark.parametrize("s", list(FUSED_CASES))
    def test_each_level_matches_cold_row(self, s, derivative):
        # the first round's sums at steps 1/4, 1/8 and 1/16, judged or not
        q = default_crossing(s.imag)
        for half in {half for _, half in FUSED_CASES[s][0]}:
            row = auxiliary._Row(s, q, half)
            halvings = auxiliary._sum_level([row], q, int(4 * half), 0,
                                            derivative, 2)
            for level, step in enumerate((0.25, 0.125, 0.0625)):
                if level:
                    auxiliary._add_level(*halvings[level - 1])
                cold = _quadrature(s, q, half, step, derivative)
                assert (row.m, row.phase, row.sums) == (
                    cold.m, cold.phase, cold.sums)

    @pytest.mark.parametrize("s", list(FUSED_CASES))
    def test_results_unchanged(self, s):
        r_eval_cache_clear()
        value = r_eval(s)
        r_eval_cache_clear()
        (both,) = r_eval_many([s], derivative=True)
        expected = FUSED_CASES[s][1:]
        assert (value.value, value.error_estimate, value.log_value) \
            == expected[:3]
        assert (both.value, both.error_estimate, both.log_value,
                both.derivative, both.derivative_error,
                both.log_derivative) == expected


# Seeded points with sigma in [-40, 10] and t in [0, 3000], the two
# FUSED_CASES, a row at t = 10^5 that cuts residues (q = 126), and the 16
# points at angles k pi / 8 of a circle of radius 1e-11 about the zero
# -2.8217 + 54.2696i, the samples of its certificate circle.
_pin_rng = random.Random(34)
PINNED_POINTS = [complex(_pin_rng.uniform(-40.0, 10.0),
                         _pin_rng.uniform(0.0, 3000.0)) for _ in range(200)]
PINNED_POINTS += [*FUSED_CASES, complex(-30.0, 1e5)]
_PINNED_CIRCLE = _Circle(complex(-2.821691995946681, 54.26955210278159),
                         1.007588599744428e-11)
PINNED_POINTS += [_PINNED_CIRCLE.point(u) for u in unit_params(17)[:16]]


@pytest.mark.parametrize("derivative, digest", [
    (False, "82b107deeaa71873874f4e0f6ddc5b5ed8995796f76eb521c2c1b65008b8b918"),
    (True, "9b914746075d01a963cc1ab9dfc64a3f0058ede843b92d8907babb5ac1aeb606"),
])
def test_request_path_keeps_every_bit(derivative, digest):
    # SHA-256 of the repr of every field of every result, cold, through
    # r_eval_many: the bits of the step-halving loop's figures, of
    # _evaluate's estimates and of the residue cut, which a change to the
    # Python around each point must keep
    r_eval_cache_clear()
    results = r_eval_many(PINNED_POINTS, derivative)
    fields = repr([dataclasses.astuple(res) for res in results])
    assert hashlib.sha256(fields.encode()).hexdigest() == digest


def _fsum(terms):
    """The exactly rounded sum of complex terms."""
    return complex(math.fsum(z.real for z in terms),
                   math.fsum(z.imag for z in terms))


@pytest.mark.parametrize("derivative", [False, True])
def test_first_round_sums_within_their_floor_share(derivative, monkeypatch):
    # every run that the first round sums, and the total of each of its
    # levels, stays within its stated share of the rounding floor (see
    # _pass_figures) of the exactly rounded sum of the same terms: 3/8 of
    # eps * phase * sum |node| for the nodes, 1/16 of
    # eps |s| log q sum |n^-s| for the residues
    eps = 2.0 ** -52
    blocks = []
    real_terms = auxiliary._terms

    def terms(*args, **kwargs):
        blocks.append(real_terms(*args, **kwargs))
        return blocks[-1]

    monkeypatch.setattr(auxiliary, "_terms", terms)
    for s in PINNED_POINTS:
        q = default_crossing(s.imag)
        n = int(4 * _start_half(s, q))
        blocks.clear()
        (m,), (phase,), sums, halvings = auxiliary._first_sums(
            q, 0.25, n, 2, [s], derivative)
        cuts = auxiliary._residue_cuts([s], q)
        kept = q - (cuts[0] if cuts else 0)
        nodes = 8 * n + 1
        for channel, row in enumerate(blocks[0][0].tolist()[:1 + derivative]):
            runs = [row[:n + 1], row[n + 1:2 * n + 1], row[2 * n + 1:4 * n + 1],
                    row[4 * n + 1:nodes]]
            # the coarse sum and each halving's sum are runs as summed
            observed = [sums[channel][1]] + [parts[channel]
                                             for _, parts, _ in halvings]
            for got, run in zip(observed, runs[:1] + runs[2:]):
                bound = 3 / 8 * eps * phase * sum(map(abs, run))
                assert abs(got - _fsum(run)) <= bound, (s, channel)
            total = sums[channel][0]
            for level in range(3):
                if level:
                    total += halvings[level - 1][1][channel]
                level_terms = sum(runs[:level + 2], [])
                bound = 3 / 8 * eps * phase * sum(map(abs, level_terms))
                assert abs(total - _fsum(level_terms)) <= bound, (s, level)
            residues = row[nodes:nodes + kept]
            if not q:
                continue
            res_sum = np.add.reduceat(np.array(residues), [0])[0]
            # the residue run as _first_sums sums it (in units of 1 here)
            assert auxiliary._reduced(res_sum, m) == sums[channel][4], s
            bound = (1 / 16 * eps * abs(s) * math.log(q)
                     * sum(map(abs, residues)))
            assert abs(res_sum - _fsum(residues)) <= bound, s


def _pinned_half(t, q):
    """An extent pinned apart from the default sizing under test: the wider
    rule _MIN_HALF + sqrt(t)/4 + sqrt(2) |q + 1/2 - saddle| + 1."""
    saddle = math.sqrt(max(t, 0.0) / TWO_PI)
    return (auxiliary._MIN_HALF + 0.25 * math.sqrt(max(t, 0.0))
            + math.sqrt(2.0) * abs(q + 0.5 - saddle) + 1.0)


def _oracle(s):
    """(value, error_estimate) of the fixed pass at step 1/128 at the
    default crossing over the pinned extent plus 2, rounded up to a
    multiple of 1/2."""
    q = default_crossing(s.imag)
    return _fixed(s, q, math.ceil(2 * _pinned_half(s.imag, q) + 4.0) / 2,
                  1 / 128)


def _discrepancies(s, half, steps):
    """Relative discrepancy of each grid against the grid of twice its step,
    over one extent at the default crossing."""
    q = default_crossing(s.imag)
    return [_figures(_quadrature(s, q, half, h))[0][1] for h in steps]


class TestStoppingRule:
    def test_growing_discrepancy_keeps_halving(self):
        # the plateau point's discrepancy grows from step 1/4 to 1/8, so the
        # squaring model is not trusted there; it shrinks at 1/16, where the
        # model is fitted to the last two discrepancies
        s = 1.3762232190598911 + 2092.8020024430552j
        r_eval_cache_clear()
        (row,) = auxiliary._step_halve([s])
        d4, d8, d16 = _discrepancies(s, row.half, (0.25, 0.125, 0.0625))
        assert d4 < d8 and auxiliary._predicted(d8, d4) is None
        assert auxiliary._predicted(d16, d8) == d16 ** 3 / d8 ** 2
        assert row.step <= 0.0625
        oracle, _ = _oracle(s)
        assert abs(r_eval(s).value - oracle) <= 1e-12 * abs(oracle)

    def test_first_grid_missing_integrand_is_not_fitted(self):
        # far left at small t the step-1/2 grid misses the integrand (the
        # first discrepancy is of order one), so the drop to step 1/8 is no
        # squaring; a model fitted there predicted 1e-12 for a value 1e-8 off
        s = -25.072654647427967 + 0.35333344359005814j
        r_eval_cache_clear()
        (row,) = auxiliary._step_halve([s])
        d4, d8 = _discrepancies(s, row.half, (0.25, 0.125))
        assert d4 > 1.0 and d8 < 1e-3 and auxiliary._predicted(d8, d4) is None
        assert row.step <= 0.0625
        oracle, _ = _oracle(s)
        assert abs(r_eval(s).value - oracle) <= 1e-12 * abs(oracle)

    def test_slow_decrement_estimate_covers_oracle(self):
        # the discrepancies 1.4e-6, 1.0e-8, 1.4e-12 at steps 1/4, 1/8, 1/16
        # fall 1.8 times as far at each halving where the model assumes 2;
        # step 1/8 is accepted on the model's prediction of 5e-13, short of
        # its 1.39e-12 deviation, which the reported estimate must cover
        s = 4.79684058150567 + 505.6091186702189j
        r_eval_cache_clear()
        (row,) = auxiliary._step_halve([s])
        assert row.step == 0.125 and row.best[0][0][1] > EPS_TARGET
        res, (oracle, oracle_err) = r_eval(s), _oracle(s)
        assert abs(res.value - oracle) <= res.error_estimate + oracle_err

    def test_early_rows_match_oracle(self):
        # rows accepted on the model's prediction, before their discrepancy
        # reached EPS_TARGET, in each of the four bands
        r_eval_cache_clear()
        rows = auxiliary._step_halve(BATCH_POINTS)
        early = [row.z for row in rows if row.best[0][0][1] > EPS_TARGET]
        bands = {min((20.0, 100.0, 500.0, 2000.0), key=lambda b: abs(b - s.imag))
                 for s in early}
        assert bands == {20.0, 100.0, 500.0, 2000.0}
        for s in early:
            oracle, _ = _oracle(s)
            assert abs(r_eval(s).value - oracle) <= 1e-12 * abs(oracle)


# 750 seeded points per band at t ~ 20/100/500/2000 with sigma in [-30, 2]
_est_rng = random.Random(7)
ESTIMATE_POINTS = [complex(_est_rng.uniform(-30.0, 2.0),
                           band * _est_rng.uniform(0.95, 1.05))
                   for band in (20.0, 100.0, 500.0, 2000.0) for _ in range(750)]


def test_error_estimate_covers_oracle_deviation():
    # the reported estimates include the rounding floor of the phases of
    # nodes and residues, which dominates once the grids agree
    r_eval_cache_clear()
    for s, res in zip(ESTIMATE_POINTS, r_eval_many(ESTIMATE_POINTS)):
        oracle, oracle_err = _oracle(s)
        assert abs(res.value - oracle) <= res.error_estimate + oracle_err, s


# 200 seeded points far left at small t, where the integrand's hump is
# widest and the tail rule widens the extent
_left_rng = random.Random(15)
FAR_LEFT_POINTS = [complex(_left_rng.uniform(-60.0, -20.0),
                           _left_rng.uniform(0.0, 8.0)) for _ in range(200)]


def test_far_left_estimate_covers_oracle_deviation():
    r_eval_cache_clear()
    for s, res in zip(FAR_LEFT_POINTS, r_eval_many(FAR_LEFT_POINTS)):
        oracle, oracle_err = _oracle(s)
        deviation = abs(res.value - oracle)
        assert deviation <= res.error_estimate + oracle_err, s
        assert deviation <= EPS_TARGET * abs(oracle), s


def test_circle_about_a_zero_stops_at_the_rounding_floor():
    # the samples of the winding-1 certificate circle about a zero of R, as
    # its walk seeds them (the last seed closes the circle at the first):
    # |R| there is about 1e-11 of the integrand's scale, so the rounding
    # floor is far above EPS_TARGET and a finer step than 1/32 cannot help
    # (the EPS_TARGET rule alone halves them to steps 1/64 and 1/128); each
    # estimate still covers the deviation from a fixed pass at step 1/1024
    zero = refine_zero(Box(-2.9, -2.7, 54.2, 54.35))
    circle = _Circle(complex(zero.beta, zero.gamma), zero.enclosure_radius)
    points = [circle.point(u) for u in unit_params(_CIRCLE_SEEDS)[:-1]]
    r_eval_cache_clear()
    rows = auxiliary._step_halve(points)
    assert min(row.step for row in rows) == 1 / 32
    for row, res in zip(rows, r_eval_many(points)):
        ref, ref_err = _fixed(row.z, row.q, row.half, 1 / 1024)
        assert abs(res.value - ref) <= res.error_estimate + ref_err, row.z


# R(s) by the Riemann-Siegel expansion of Arias de Reyna (Math. Comp. 80,
# 2011), which shares no code with the quadrature
ORACLE_POINTS = [complex(2.0, 1e4), complex(-5.0, 1e4), complex(0.5, 1e5),
                 complex(-5.0, 1e6), complex(2.0, 1e7), complex(0.5, 1e8),
                 complex(2.0, 1e9), complex(-5.0, 1e9), complex(0.5, 1e10),
                 complex(-3.0, 1e10)]


def test_estimates_cover_riemann_siegel_oracle():
    # at t = 10^9 and 10^10 the deviations stay over 100 times under the
    # estimates
    r_eval_cache_clear()
    with mp.workdps(20):
        for s, res in zip(ORACLE_POINTS, r_eval_many(ORACLE_POINTS)):
            oracle = complex(rszeta.Rzeta_set(mp.mp, mp.mpc(s.real, s.imag),
                                              [0])[0])
            assert abs(res.value - oracle) <= res.error_estimate, s


def _relative_estimate(res):
    """error_estimate relative to the value, also where it saturates."""
    return res.error_estimate / min(abs(res.value), 1e300)


# 20 seeded points from sigma = -50 down to the counting contour's curve
# at t in [10^6, 10^8], where the residues of a row far outnumber those
# within e^{-_RESIDUE_CUT} of its largest
_cut_rng = random.Random(21)
CUT_POINTS = [complex(_cut_rng.uniform(curve_sigma(t), -50.0), t)
              for t in (10 ** _cut_rng.uniform(6.0, 8.0) for _ in range(20))]


# one block at t = 10^6 whose rows cut their residues at different n, and
# rows that cut none
MIXED_CUT_POINTS = [complex(sigma, 1e6) for sigma in
                    (-400.0, 2.0, -7.0, -30.0, -400.0, -3000.0, 0.5, -30.0)]


class TestResidueCut:
    def test_every_point_drops_residues(self):
        for s in CUT_POINTS:
            q = default_crossing(s.imag)
            (dropped,) = auxiliary._residue_cuts([s], q)
            assert 0 < dropped < q, s

    def test_matches_every_residue(self, monkeypatch):
        r_eval_cache_clear()
        cut = r_eval_many(CUT_POINTS)
        monkeypatch.setattr(auxiliary, "_RESIDUE_CUT", math.inf)
        r_eval_cache_clear()
        full = r_eval_many(CUT_POINTS)
        r_eval_cache_clear()
        for s, a, b in zip(CUT_POINTS, cut, full):
            deviation = abs(cmath.exp(a.log_value - b.log_value) - 1.0)
            assert deviation <= _relative_estimate(a) + _relative_estimate(b), s

    def test_block_rows_keep_their_bits(self):
        # rows with different cuts, and rows that drop nothing, share one
        # block at t = 10^6 and get the bits each gets alone
        points = MIXED_CUT_POINTS
        cuts = auxiliary._residue_cuts(points, default_crossing(1e6))
        assert cuts[1] == cuts[2] == cuts[6] == 0
        assert 0 < cuts[3] < cuts[0] < cuts[5]
        r_eval_cache_clear()
        batched = _fields(r_eval_many(points))
        r_eval_cache_clear()
        assert _fields(r_eval(p) for p in points) == batched

    def test_block_rows_keep_their_derivative_bits(self):
        # the same block with R': each row's cut ends its residue run in
        # both channels, and every field is what the point gets alone
        r_eval_cache_clear()
        batched = r_eval_many(MIXED_CUT_POINTS, derivative=True)
        for s, res in zip(MIXED_CUT_POINTS, batched):
            r_eval_cache_clear()
            assert r_eval_many([s], derivative=True) == [res], s
        r_eval_cache_clear()

    @pytest.mark.parametrize("sigma", [-60.0, -70.0, -80.0])
    def test_far_left_derivative_sums_stay_finite(self, sigma):
        # at t = 10^11 the kept residues of R' would sum past the double
        # range in units of 1; such a row sums them in units of its largest
        # residue, so its sums stay finite, the values keep the bits they
        # get without R', and a point sharing the block keeps the bits it
        # gets alone
        points = [complex(sigma, 1e11), complex(-5.0, 1e11)]
        r_eval_cache_clear()
        far, near = r_eval_many(points, derivative=True)
        assert math.isfinite(far.derivative_error)
        assert far.derivative_error < 1e-8 * abs(far.derivative)
        r_eval_cache_clear()
        assert _fields([far, near]) == _fields(r_eval_many(points))
        r_eval_cache_clear()
        assert near == r_eval_many(points[1:], derivative=True)[0]
        r_eval_cache_clear()


def test_default_extent_same_at_every_height(monkeypatch):
    # at the saddle crossing the log integrand falls like -2 pi v^2 along
    # the line at every height, so a pass starts from the same extent
    bases = []
    real_rows = auxiliary._line_rows
    monkeypatch.setattr(auxiliary, "_line_rows",
                        lambda q, step, n, depth: (depth is not None
                                                   and bases.append(n))
                        or real_rows(q, step, n, depth))
    starts = []
    for t in (100.0, 2000.0, 1e4, 1e5):
        r_eval_cache_clear()
        bases.clear()
        auxiliary._step_halve([complex(0.5, t)])
        starts.append(bases[0] / 4.0)  # base grid |k| <= n at step 1/4
    assert len(set(starts)) == 1 and starts[0] <= 5.0, starts


class TestZetaFromR:
    def test_basel(self):
        assert zeta_from_r(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-8)

    def test_at_critical_point(self):
        s = 0.5 + 25j
        ref = zeta_reference(s)
        assert abs(zeta_from_r(s) - ref) < 1e-8 * abs(ref)

    def test_identity_grid(self):
        worst = 0.0
        for sigma in (-1.0, 0.0, 0.5, 1.0, 2.0):
            for t in range(5, 101, 5):
                s = complex(sigma, t)
                ref = zeta_reference(s)
                worst = max(worst, abs(zeta_from_r(s) - ref) / abs(ref))
        assert worst <= 1e-8

    def test_functional_equation_inherited(self):
        s = -0.7 + 36.0j
        lhs = zeta_from_r(s)
        rhs = chi(s) * zeta_from_r(1.0 - s.conjugate()).conjugate()
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_pole_rejected(self):
        with pytest.raises(PoleOfGammaError):
            zeta_from_r(1.0)

    def test_bits_of_two_single_evaluations(self):
        # R(s) and R(1 - conj s) are step-halved as one block, with the
        # bits each gets alone
        s = -1.3 + 101.7j
        r_eval_cache_clear()
        zeta = zeta_from_r(s)
        r_eval_cache_clear()
        first = r_eval(s).value
        second = r_eval(1.0 - s.conjugate()).value
        assert zeta == first + chi(s) * second.conjugate()

    def test_lower_half_plane(self):
        s = 0.5 - 25j
        ref = zeta_reference(s)
        assert abs(zeta_from_r(s) - ref) < 1e-8 * abs(ref)
        assert zeta_from_r(s) == zeta_from_r(s.conjugate()).conjugate()


DERIVATIVE_POINTS = REUSE_POINTS + [complex(-10.0, 120.0)]


class TestRDerivative:
    def test_against_central_difference(self):
        s = 2 + 30j
        h = 1e-4
        fd = (r_eval(s + h).value - r_eval(s - h).value) / (2 * h)
        d = r_derivative(s)
        assert abs(d - fd) <= 1e-5 * abs(d)

    @pytest.mark.parametrize("s", DERIVATIVE_POINTS)
    def test_matches_cauchy_ring(self, s):
        # R' as the mean of R(s + r w) / (r w) over 16 roots of unity w; at
        # r = 1/4 the ring's aliasing term (r |log x|)^16 / 17! is negligible
        radius = 0.25
        ring, ring_err = 0.0, 0.0
        for k in range(16):
            w = cmath.exp(2j * math.pi * k / 16)
            res = r_eval(s + radius * w)
            ring += res.value / w
            ring_err += res.error_estimate
        ring, ring_err = ring / (16 * radius), ring_err / (16 * radius)
        (res,) = r_eval_many([s], derivative=True)
        d, err = res.derivative, res.derivative_error
        assert abs(d - ring) <= 1e-9 * abs(d)
        assert abs(d - ring) <= err + ring_err

    @pytest.mark.parametrize("s", DERIVATIVE_POINTS)
    def test_value_independent_of_derivative(self, s):
        r_eval_cache_clear()
        alone = r_eval(s)
        r_eval_cache_clear()
        (with_d,) = r_eval_many([s], derivative=True)
        after = r_eval(s)
        fields = lambda r: (r.value, r.error_estimate, r.log_value)
        assert fields(alone) == fields(with_d) == fields(after)
        assert alone.derivative is None and after.derivative is None
        assert with_d.derivative == r_derivative(s)

    @pytest.mark.parametrize("s", DERIVATIVE_POINTS + [complex(-365.7, 1e4)])
    def test_log_derivative(self, s):
        # R'/R from logs: the ratio of the values where they are in range,
        # and finite where both saturate (the last point, |R| = e^1345)
        r_eval_cache_clear()
        (res,) = r_eval_many([s], derivative=True)
        assert res.value == r_eval(s).value
        assert r_eval(s).log_derivative is None
        assert cmath.isfinite(res.log_derivative)
        if res.log_value.real < 700.0:
            assert res.log_derivative == pytest.approx(
                res.derivative / res.value, rel=1e-13)

    def test_cold_derivative_computes_one_entry(self):
        s = DERIVATIVE_POINTS[1]
        r_eval_cache_clear()
        r_eval_many([s], derivative=True)
        r_derivative(s)
        info = auxiliary._r_eval_cached.cache_info()
        assert (info.currsize, info.misses) == (1, 1)

    def test_cold_derivative_reads_each_level_once(self, monkeypatch):
        # R' is summed from the exponentials of the step halving itself
        s = DERIVATIVE_POINTS[-1]
        r_eval_cache_clear()
        asked = []
        real_rows = auxiliary._line_rows
        monkeypatch.setattr(auxiliary, "_line_rows",
                            lambda *a: asked.append(a[1:]) or real_rows(*a))
        r_derivative(s)
        monkeypatch.undo()
        (row,) = auxiliary._step_halve([s])
        half_n = int(4 * row.half)
        assert asked == [(0.25, half_n, 2)] + [
            (0.25 / 2 ** k, half_n << k, None) for k in range(3, row.target + 1)]


class TestRAsymptotic:
    def _curve_point(self, t):
        return complex(1.0 - t ** 0.4 * math.log(t), t)

    def test_region_error_low_t(self):
        with pytest.raises(RegionError):
            r_asymptotic(complex(-50.0, 10.0))

    def test_region_error_sigma(self):
        with pytest.raises(RegionError):
            r_asymptotic(complex(0.5, 100.0))

    def test_region_error_negative_t(self):
        with pytest.raises((RegionError, DomainError)):
            r_asymptotic(complex(1.0, -40.0))

    def test_nonzero_in_region(self):
        for t in (60.0, 200.0, 700.0):
            res = r_asymptotic(self._curve_point(t))
            assert res.log_value is not None
            assert math.isfinite(res.log_value.real)

    def test_method_tag(self):
        assert r_asymptotic(self._curve_point(80.0)).method == "asymptotic"


@given(st.floats(-1.0, 2.0), st.floats(5.0, 80.0))
def test_identity_random(sigma, t):
    s = complex(sigma, t)
    if abs(s - 1.0) < 1e-6:
        return
    ref = zeta_reference(s)
    assert abs(zeta_from_r(s) - ref) <= 1e-8 * max(1.0, abs(ref))
