"""Command-line front end: evaluate R(s), count zeros, locate zeros, run the
validation suites of rzero.validation, and emit machine-readable tables.

Output is CSV (versioned header comment ``# rzero v1``) or JSON mirroring the
CSV field names; reals carry 17 significant digits so files round-trip
exactly.  Exit codes: 0 success, 1 failed validation suites, 2 argument
errors and any other rzero error, 3 persistent zero-on-contour, 4 winding
integrality failure, 5 unresolved clusters in strict mode.  Errors are
mapped to exit codes in one place, ``main``.  Count and table move a
contour's top edge by the fixed ``counting.PERTURB_STEP``, zeros only its
outer box's top; a zero on a piece's contour moves the split's cut.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import counting, validation
from .auxiliary import r_eval_many
from .counting import Box, residual_table, sqrt_fit
from .errors import (
    ContourZeroError,
    DomainError,
    NonIntegerWindingError,
    RZeroError,
)
from .zeros import MIN_SIZE_DEFAULT, locate_zeros, zero_statistics

SCHEMA_TAG = "# rzero v1"

EXIT_OK = 0
EXIT_VALIDATE_FAIL = 1
EXIT_EVAL_FAIL = 2
EXIT_CONTOUR_ZERO = 3
EXIT_WINDING = 4
EXIT_CLUSTERS = 5

@dataclass
class RunConfig:
    """Parsed invocation; numeric parameters are finite, t range ordered,
    t step, grid step and min size positive, grid size odd and samples not
    negative.  An unset t_min is 10, or for count and table the first grid
    height above DESK_T0, DESK_T0 + t_step."""

    command: str
    t_min: float | None = None
    t_max: float = 100.0
    t_step: float = 10.0
    box_left: float = -6.0
    point: complex | None = None
    grid_n: int = 1
    grid_step: float = 0.5
    min_size: float = MIN_SIZE_DEFAULT
    output_format: str = "csv"
    output_path: str | None = None
    seed: int = 12345
    strict: bool = False
    samples: int = 0  # 0 = suite defaults

    def __post_init__(self):
        if self.t_min is None:
            self.t_min = (counting.DESK_T0 + self.t_step
                          if self.command in ("count", "table") else 10.0)
        for name in ("t_step", "t_min", "t_max", "box_left", "grid_step",
                     "min_size"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.t_max < self.t_min:
            raise ValueError("t-max below t-min")
        if self.t_step <= 0.0:
            raise ValueError("--t-step must be positive")
        if self.grid_n < 1 or self.grid_n % 2 == 0:
            raise ValueError("--grid-n must be an odd size of at least 1")
        if self.grid_step <= 0.0:
            raise ValueError("--grid-step must be positive")
        if self.min_size <= 0.0:
            raise ValueError("--min-size must be positive")
        if self.samples < 0:
            raise ValueError("--samples must be at least 0 (0 = suite "
                             "defaults)")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.output_format}")


def _format_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _json_value(v):
    """v as JSON writes it: None (null) for a non-finite float, since
    RFC 8259 has no NaN or Infinity."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def emit_rows(rows: list[dict], columns: list[str], config: RunConfig,
              footer: dict | None = None) -> str:
    """Render rows to CSV or JSON text and write it to the --out file if
    given, else to stdout."""
    if config.output_format == "csv":
        buf = io.StringIO()
        buf.write(SCHEMA_TAG + "\n")
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_value(row[c]) for c in columns])
        if footer:
            for key, val in footer.items():
                buf.write(f"# {key} = {_format_value(val)}\n")
        text = buf.getvalue()
    else:
        doc = {"schema": SCHEMA_TAG.lstrip("# "), "columns": columns,
               "rows": [{k: _json_value(v) for k, v in row.items()}
                        for row in rows]}
        if footer:
            doc["summary"] = {k: _json_value(v) for k, v in footer.items()}
        text = json.dumps(doc, indent=1, default=_format_value,
                          allow_nan=False) + "\n"
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def parse_rows(text: str) -> list[dict]:
    """Inverse of emit_rows for CSV text: list of column->string dicts."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


def parse_complex(text: str) -> complex:
    """Parse a complex literal; accepts 'i' or 'j' for the imaginary unit."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    return complex(cleaned)


EVAL_COLUMNS = ["sigma", "t", "re", "im", "abs", "method", "error_estimate"]


def cmd_eval(config: RunConfig) -> int:
    if config.point is None:
        raise DomainError("eval requires --point")
    offsets = range(-(config.grid_n // 2), config.grid_n // 2 + 1)
    points = sorted(
        (config.point + complex(i * config.grid_step, j * config.grid_step)
         for i in offsets for j in offsets),
        key=lambda z: (z.imag, z.real),
    )
    rows = []
    for s, res in zip(points, r_eval_many(points)):
        if res.log_value is not None and res.log_value.real > 709.0:
            raise DomainError(f"|R(s)| beyond the double range at s = {s}: "
                              f"log R = {res.log_value:.6g}")
        rows.append({
            "sigma": s.real, "t": s.imag,
            "re": res.value.real, "im": res.value.imag,
            "abs": abs(res.value), "method": res.method,
            "error_estimate": res.error_estimate,
        })
    emit_rows(rows, EVAL_COLUMNS, config)
    return EXIT_OK


COUNT_COLUMNS = ["big_t", "count", "smooth_term", "sqrt_term", "main_value",
                 "residual", "certificates"]


def _certificates(r: counting.CountResult) -> str:
    """``top:<bound>``, plus ``;turns:<top_turns>`` for a curve row."""
    cell = "top:" + ("-" if r.top_bound is None else format(r.top_bound, ".6g"))
    if r.top_turns is not None:
        cell += ";turns:" + format(r.top_turns, ".6g")
    return cell


def _count_rows(results: list[counting.CountResult]) -> list[dict]:
    return [{
        "big_t": r.big_t, "count": r.count, "smooth_term": r.smooth_term,
        "sqrt_term": r.sqrt_term, "main_value": r.main_value,
        "residual": r.residual, "certificates": _certificates(r),
    } for r in results]


def _t_grid(config: RunConfig) -> list[float]:
    ts = []
    t = config.t_min
    while t <= config.t_max + 1e-9:
        ts.append(round(t, 12))
        t += config.t_step
    return ts


def _count_results(config: RunConfig) -> list[counting.CountResult]:
    """residual_table over the T grid, every height of which must lie above
    the base height DESK_T0 (residual_table refuses a lower height, it does
    not drop it)."""
    return residual_table(_t_grid(config), box_left=config.box_left)


def cmd_count(config: RunConfig) -> int:
    emit_rows(_count_rows(_count_results(config)), COUNT_COLUMNS, config)
    return EXIT_OK


TABLE_COLUMNS = COUNT_COLUMNS[:-1] + ["r_smooth", "r_plus_sqrt"]


def cmd_table(config: RunConfig) -> int:
    """Like count, with the square-root correction made explicit:
    r_smooth = N - smooth and r_plus_sqrt = r_smooth + sqrt_term; the
    footer holds the fitted coefficient of sqrt(T/2pi)."""
    results = _count_results(config)
    rows = _count_rows(results)
    for row, r in zip(rows, results):
        del row["certificates"]
        row["r_smooth"] = r.count - r.smooth_term
        row["r_plus_sqrt"] = row["r_smooth"] + r.sqrt_term
    coefficient, _ = sqrt_fit(results)
    emit_rows(rows, TABLE_COLUMNS, config,
              footer={"sqrt_fit_coefficient": coefficient})
    return EXIT_OK


ZERO_COLUMNS = ["beta", "gamma", "enclosure_radius", "winding_certificate",
                "residual_modulus"]


def cmd_zeros(config: RunConfig) -> int:
    box = Box(config.box_left, 2.0, config.t_min, config.t_max)
    found, clusters = locate_zeros(box, min_size=config.min_size)
    rows = [{
        "beta": z.beta, "gamma": z.gamma,
        "enclosure_radius": z.enclosure_radius,
        "winding_certificate": z.winding_certificate,
        "residual_modulus": z.residual_modulus,
    } for z in found]
    footer = {"unresolved_clusters": len(clusters)}
    if found:
        stats = zero_statistics(found)
        footer["fraction_beta_gt_half"] = stats.fraction_right
        footer["mean_gamma_gap"] = stats.mean_gap
    emit_rows(rows, ZERO_COLUMNS, config, footer=footer)
    if clusters and config.strict:
        print(f"{len(clusters)} unresolved clusters", file=sys.stderr)
        return EXIT_CLUSTERS
    return EXIT_OK


VALIDATE_COLUMNS = ["suite", "status", "worst", "bound"]


def cmd_validate(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    rows = []
    for name, suite, samples, bound in validation.SUITES:
        worst = suite(rng, config.samples or samples)[0]
        passed = worst <= bound if bound == 0.0 else worst < bound
        rows.append({"suite": name, "status": "PASS" if passed else "FAIL",
                     "worst": worst, "bound": bound})
    emit_rows(rows, VALIDATE_COLUMNS, config)
    failures = [row["suite"] for row in rows if row["status"] == "FAIL"]
    if failures:
        print("failed suites: " + ", ".join(failures), file=sys.stderr)
        return EXIT_VALIDATE_FAIL
    return EXIT_OK


_COMMANDS = {
    "eval": cmd_eval,
    "count": cmd_count,
    "zeros": cmd_zeros,
    "validate": cmd_validate,
    "table": cmd_table,
}


def build_parser() -> argparse.ArgumentParser:
    """The command line; an option left out is left out of the namespace,
    so RunConfig's defaults are the only ones."""
    p = argparse.ArgumentParser(
        prog="rzero",
        description="Evaluate the auxiliary function R(s), count and locate "
                    "its zeros, and validate the counting formula.",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--command", required=True, choices=sorted(_COMMANDS))
    p.add_argument("--point", type=str,
                   help="complex evaluation point, e.g. '0.5+25j'")
    p.add_argument("--grid-n", type=int,
                   help="odd grid size n for an n x n grid around --point")
    p.add_argument("--grid-step", type=float)
    p.add_argument("--t-min", type=float,
                   help="first T (default 10; for count and table "
                        "DESK_T0 + t-step, the first height above DESK_T0)")
    p.add_argument("--t-max", type=float)
    p.add_argument("--t-step", type=float)
    p.add_argument("--box-left", type=float)
    p.add_argument("--min-size", type=float)
    p.add_argument("--format", choices=("csv", "json"), dest="output_format")
    p.add_argument("--out", type=str, dest="output_path")
    p.add_argument("--seed", type=int)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--samples", type=int,
                   help="sample-count override for validate suites")
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = dict(vars(args))
    if "point" in fields:
        fields["point"] = parse_complex(fields["point"])
    return RunConfig(**fields)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_EVAL_FAIL
    try:
        return _COMMANDS[config.command](config)
    except ContourZeroError as exc:
        print(f"persistent zero on contour: {exc}", file=sys.stderr)
        return EXIT_CONTOUR_ZERO
    except NonIntegerWindingError as exc:
        print(f"winding integrality failure: {exc}", file=sys.stderr)
        return EXIT_WINDING
    except RZeroError as exc:
        print(f"{config.command} failed: {exc}", file=sys.stderr)
        return EXIT_EVAL_FAIL


if __name__ == "__main__":
    sys.exit(main())
