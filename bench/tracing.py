"""Span tracing of one rzero job, built from wrappers installed from outside.

The wrappers replace module attributes that the package looks up at call
time (``auxiliary._r_eval_cached``, the names ``zeros.py`` and ``counting.py``
bound at import, ...), record one span per call at each layer boundary and
count what the numerics return.  They never change an argument or a value,
so a traced job produces the same output as an untraced one.

Spans are kept in memory as (name, start_ns, end_ns, parent) and written out
when the job ends.  A layer is the module prefix of a span name; its self
time is the time of its spans minus the time their direct children cover.
Calibration kernels (calibrate.py) that ran inside a span are taken out of
its time.

This module does not import rzero at import time, so the runner can read
PER_LAYER without loading the package.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("auxiliary", "special_functions", "counting", "zeros", "cli")
TIME_UNITS = ("s", "ms", "ns")

# name -> unit of every per-layer metric, in report order.
PER_LAYER = {
    "auxiliary.r_requests": "count",
    "auxiliary.r_computed": "count",
    "auxiliary.cache_hit_ratio": "ratio",
    "auxiliary.quad_passes": "count",
    "auxiliary.passes_per_point": "pass/point",
    "auxiliary.nodes": "count",
    "auxiliary.ns_per_node": "ns",
    "auxiliary.point_ms_p50": "ms",
    "auxiliary.point_ms_p99": "ms",
    "auxiliary.nonconverged": "count",
    "auxiliary.deriv_calls": "count",
    "auxiliary.deriv_s": "s",
    "auxiliary.self_s": "s",
    "special_functions.chi_calls": "count",
    "special_functions.self_s": "s",
    "counting.rect_calls": "count",
    "counting.rect_attempts": "count",
    "counting.ladder_retries": "count",
    "counting.edges": "count",
    "counting.edge_seeds": "count",
    "counting.edge_nodes": "count",
    "counting.nodes_per_seed": "ratio",
    "counting.strip_certs": "count",
    "counting.strip_widenings": "count",
    "counting.self_s": "s",
    "zeros.isolate_s": "s",
    "zeros.split_calls": "count",
    "zeros.split_attempts": "count",
    "zeros.split_retries": "count",
    "zeros.cut_scans": "count",
    "zeros.cut_scan_s": "s",
    "zeros.refine_calls": "count",
    "zeros.refine_ms_p50": "ms",
    "zeros.refine_ms_max": "ms",
    "zeros.newton_fallbacks": "count",
    "zeros.circle_certs": "count",
    "zeros.self_s": "s",
    "cli.emit_s": "s",
    "cli.rows": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) with linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quadrature_nodes(spec) -> int:
    """Integrand nodes of one trapezoid pass, as ``auxiliary._quadrature``
    lays them out for this spec."""
    m_half = 2 * int(math.ceil(spec.half_length / (2.0 * spec.step)))
    return 2 * m_half + 1


class Tracer:
    """In-memory span recorder with the rzero wrappers it installs."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.computed: list[int] = []  # spans of R requests that missed the cache
        self.cal_within: list[int] = []  # calibration ns inside each span

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; ``after(idx, args, kwargs, result)`` runs on
        normal return, outside the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return wrapper

    def innermost(self) -> int:
        """Index of the innermost open span, -1 outside every span."""
        return self._stack[-1] if self._stack else -1

    def parent_name(self, idx: int) -> str | None:
        parent = self.parents[idx]
        return self.names[parent] if parent >= 0 else None

    def charge_calibration(self, samples) -> None:
        """Charge each (start_ns, end_ns, innermost span) kernel sample to the
        spans whose interval contains it.  The span read by the signal
        handler may have just closed or not started yet, so walk up until
        the interval really contains the sample."""
        self.cal_within = [0] * len(self.names)
        for start, end, idx in samples:
            while idx >= 0 and not (self.starts[idx] <= start
                                    and end <= self.ends[idx]):
                idx = self.parents[idx]
            while idx >= 0:
                self.cal_within[idx] += end - start
                idx = self.parents[idx]

    def span_ns(self, idx: int) -> int:
        """Span time without the calibration kernels inside it."""
        return self.ends[idx] - self.starts[idx] - self.cal_within[idx]

    def durations(self, name: str) -> list[int]:
        return [self.span_ns(i) for i, n in enumerate(self.names) if n == name]

    # -- wrappers ------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        from rzero import auxiliary, cli, counting, zeros

        patches = []

        def patch(owner, attr, value):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        cached = auxiliary._r_eval_cached
        cache_info = cached.cache_info
        eps = auxiliary.EPS_TARGET

        def r_request(sigma, t, mode):
            misses = cache_info().misses
            idx = self._open("auxiliary.r")
            try:
                result = cached(sigma, t, mode)
            finally:
                self._close(idx)
            if cache_info().misses != misses:
                self.computed.append(idx)
                if result.error_estimate > eps * abs(result.value):
                    self.counts["nonconverged"] += 1
            return result

        r_request.cache_info = cached.cache_info
        r_request.cache_clear = cached.cache_clear
        patch(auxiliary, "_r_eval_cached", r_request)

        quadrature = auxiliary._quadrature

        def quad_pass(s, spec):
            self.counts["quad_passes"] += 1
            self.counts["nodes"] += quadrature_nodes(spec)
            return quadrature(s, spec)

        patch(auxiliary, "_quadrature", quad_pass)
        patch(auxiliary, "chi", self.wrap("special_functions.chi", auxiliary.chi))
        patch(zeros, "r_derivative",
              self.wrap("auxiliary.deriv", zeros.r_derivative))

        def edge_done(idx, args, kwargs, trace):
            seeds = kwargs.get("seeds", args[3] if len(args) > 3 else 16)
            self.counts["edge_seeds"] += max(2, seeds)
            self.counts["edge_nodes"] += len(trace.nodes)

        rect = self.wrap("counting.rect", counting.rectangle_count)
        patch(counting, "rectangle_count", rect)
        patch(zeros, "rectangle_count", rect)
        patch(counting, "_rectangle_winding",
              self.wrap("counting.attempt", counting._rectangle_winding))
        patch(counting, "arg_variation",
              self.wrap("counting.edge", counting.arg_variation, edge_done))
        patch(counting, "adequate_box_left",
              self.wrap("counting.left_cert", counting.adequate_box_left))
        patch(cli, "residual_table",
              self.wrap("counting.table", cli.residual_table))

        split = zeros.Box.split

        def box_split(box, offset=0.0):
            self.counts["split_attempts"] += 1
            return split(box, offset)

        patch(zeros.Box, "split", box_split)
        patch(cli, "locate_zeros", self.wrap("zeros.locate", cli.locate_zeros))
        patch(zeros, "isolate_zeros",
              self.wrap("zeros.isolate", zeros.isolate_zeros))
        patch(zeros, "_split_conserving",
              self.wrap("zeros.split", zeros._split_conserving))
        patch(zeros, "_zero_on_cut",
              self.wrap("zeros.cut_scan", zeros._zero_on_cut))
        patch(zeros, "refine_zero", self.wrap("zeros.refine", zeros.refine_zero))
        patch(zeros, "_circle_winding",
              self.wrap("zeros.circle", zeros._circle_winding))

        def rows_done(idx, args, kwargs, text):
            self.counts["rows"] += len(args[0])

        patch(cli, "emit_rows", self.wrap("cli.emit", cli.emit_rows, rows_done))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- report --------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        child = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.span_ns(idx)
        out = dict.fromkeys(LAYERS, 0)
        for idx, name in enumerate(self.names):
            out[name.partition(".")[0]] += self.span_ns(idx) - child[idx]
        return {layer: ns / 1e9 for layer, ns in out.items()}

    def layer_metrics(self, speed: float) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_s, which needs the
        untraced job.  Times are scaled by ``speed`` to nominal machine
        speed; call charge_calibration first."""
        c = self.counts
        n = Counter(self.names)
        requests = n["auxiliary.r"]
        computed_ns = [self.span_ns(i) for i in self.computed]
        computed = len(computed_ns)
        strip_certs = sum(1 for i, name in enumerate(self.names)
                          if name == "counting.rect"
                          and self.parent_name(i) == "counting.left_cert")
        fallbacks = sum(1 for i, name in enumerate(self.names)
                        if name == "zeros.split"
                        and self.parent_name(i) == "zeros.refine")
        refine_ms = [d / 1e6 for d in self.durations("zeros.refine")]
        self_s = self.self_seconds()
        metrics = {
            "auxiliary.r_requests": requests,
            "auxiliary.r_computed": computed,
            "auxiliary.cache_hit_ratio":
                (requests - computed) / requests if requests else 0.0,
            "auxiliary.quad_passes": c["quad_passes"],
            "auxiliary.passes_per_point":
                c["quad_passes"] / computed if computed else 0.0,
            "auxiliary.nodes": c["nodes"],
            "auxiliary.ns_per_node":
                sum(computed_ns) / c["nodes"] if c["nodes"] else 0.0,
            "auxiliary.point_ms_p50": percentile(computed_ns, 50) / 1e6,
            "auxiliary.point_ms_p99": percentile(computed_ns, 99) / 1e6,
            "auxiliary.nonconverged": c["nonconverged"],
            "auxiliary.deriv_calls": n["auxiliary.deriv"],
            "auxiliary.deriv_s": sum(self.durations("auxiliary.deriv")) / 1e9,
            "auxiliary.self_s": self_s["auxiliary"],
            "special_functions.chi_calls": n["special_functions.chi"],
            "special_functions.self_s": self_s["special_functions"],
            "counting.rect_calls": n["counting.rect"],
            "counting.rect_attempts": n["counting.attempt"],
            "counting.ladder_retries": n["counting.attempt"] - n["counting.rect"],
            "counting.edges": n["counting.edge"],
            "counting.edge_seeds": c["edge_seeds"],
            "counting.edge_nodes": c["edge_nodes"],
            "counting.nodes_per_seed":
                c["edge_nodes"] / c["edge_seeds"] if c["edge_seeds"] else 0.0,
            "counting.strip_certs": strip_certs,
            "counting.strip_widenings": strip_certs - n["counting.left_cert"],
            "counting.self_s": self_s["counting"],
            "zeros.isolate_s": sum(self.durations("zeros.isolate")) / 1e9,
            "zeros.split_calls": n["zeros.split"],
            "zeros.split_attempts": c["split_attempts"],
            "zeros.split_retries": c["split_attempts"] - n["zeros.split"],
            "zeros.cut_scans": n["zeros.cut_scan"],
            "zeros.cut_scan_s": sum(self.durations("zeros.cut_scan")) / 1e9,
            "zeros.refine_calls": n["zeros.refine"],
            "zeros.refine_ms_p50": percentile(refine_ms, 50),
            "zeros.refine_ms_max": max(refine_ms, default=0.0),
            "zeros.newton_fallbacks": fallbacks,
            "zeros.circle_certs": n["zeros.circle"],
            "zeros.self_s": self_s["zeros"],
            "cli.emit_s": sum(self.durations("cli.emit")) / 1e9,
            "cli.rows": c["rows"],
            "cli.self_s": self_s["cli"],
        }
        return {name: value * speed if PER_LAYER[name] in TIME_UNITS else value
                for name, value in metrics.items()}

    def write_spans(self, path) -> None:
        """One JSON object per line: name, start_ns, end_ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, name in enumerate(self.names):
                fh.write(json.dumps({"name": name, "start_ns": self.starts[idx],
                                     "end_ns": self.ends[idx],
                                     "parent": self.parents[idx]}) + "\n")
