"""Write tests/data/golden.json: the zeros of the acceptance survey box and
N(T) on the acceptance counting grid, at 17 significant digits.

The acceptance tests compare their session fixtures with this file, so it
pins the zero list and the counts across changes to the numerics, and CI
checks that the committed file is byte for byte what this script writes.
Run it on the tree whose results are to become the reference:

    PYTHONPATH=src python scripts/make_golden.py [--out tests/data/golden.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib

from rzero.counting import residual_table
from rzero.validation import SURVEY_BOX, TABLE_GRID
from rzero.zeros import locate_zeros

DEFAULT_OUT = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data" / "golden.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    zeros, clusters = locate_zeros(SURVEY_BOX)
    if clusters:
        raise SystemExit(f"unresolved clusters: {clusters}")
    table = residual_table(TABLE_GRID, box_left=-6.0)
    box = [SURVEY_BOX.sigma_lo, SURVEY_BOX.sigma_hi, SURVEY_BOX.t_lo,
           SURVEY_BOX.t_hi]
    # One zero (beta, gamma) or count (T, N(T)) per line, as 17-digit strings
    # for the zeros so no reader rounds them.
    def rows(items) -> str:
        return ",\n".join("  " + json.dumps(item) for item in items)

    text = (f'{{\n "survey_box": {json.dumps(box)},\n "zeros": [\n'
            + rows([f"{z.beta:.17g}", f"{z.gamma:.17g}"] for z in zeros)
            + '\n ],\n "counts": [\n'
            + rows([res.big_t, res.count] for res in table)
            + "\n ]\n}\n")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text, encoding="utf-8")
    print(f"{len(zeros)} zeros, {len(table)} counts -> {args.out}")


if __name__ == "__main__":
    main()
