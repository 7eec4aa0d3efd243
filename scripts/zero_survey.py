#!/usr/bin/env python3
"""Locate every zero of R(s) up to a given height with
``rzero --command zeros`` and warn when the strip of width 20 left of the
box holds zeros (the box would then miss them).

Options other than the three below are passed on to the CLI.

Example:
    python scripts/zero_survey.py --t-max 200 --out zeros.csv
"""

import argparse
import sys

from rzero import cli
from rzero.auxiliary import r_value
from rzero.counting import Box, rectangle_count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-min", type=float, default=10.0)
    ap.add_argument("--t-max", type=float, default=200.0)
    ap.add_argument("--box-left", type=float, default=-12.0)
    args, rest = ap.parse_known_args(argv)

    code = cli.main(["--command", "zeros", "--t-min", repr(args.t_min),
                     "--t-max", repr(args.t_max),
                     "--box-left", repr(args.box_left), *rest])
    if code != cli.EXIT_OK:
        return code
    left = Box(args.box_left - 20.0, args.box_left, args.t_min, args.t_max)
    strip, _ = rectangle_count(r_value, left)
    if strip != 0:
        print(f"# warning: {strip} zeros left of sigma = {args.box_left}; "
              "widen --box-left", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
