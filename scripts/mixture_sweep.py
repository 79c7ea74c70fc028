#!/usr/bin/env python3
"""Sweep the resource mixing parameter and tabulate Bell values.

Runs the worked post-quantum example alongside seeded quantum controls across
a grid of mixing parameters r.  The example activates (goes negative) only
near r = 1; the quantum controls stay nonnegative everywhere, which is the
no-false-positive behaviour the certification relies on.

Usage: python scripts/mixture_sweep.py [--steps 11] [--controls 20] [--csv out.csv]
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from eprkit import catalog
from eprkit.assemblages import SPECS, sample_quantum
from eprkit.cli import _in_range
from eprkit.functionals import evaluate_bell
from eprkit.protocol import bwi_slices, make_resource, simulate_bwi


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=_in_range(int, 1), default=11)
    parser.add_argument("--controls", type=_in_range(int, 1), default=20)
    parser.add_argument("--csv", help="optional CSV output path")
    args = parser.parse_args()

    xi = catalog.ptp_bell_coefficients()
    ptp = catalog.ptp_assemblage()
    labels, controls, _ = sample_quantum("bwi", range(args.controls))

    rows = []
    for r in np.linspace(0.0, 1.0, args.steps):
        resource = make_resource(1, float(r))
        example = evaluate_bell(xi, simulate_bwi(ptp, resource))
        # Every control's slice in one contraction, then one Bell value per control.
        slice_labels, p = bwi_slices(labels, controls, resource)
        coefficients = xi.xi.subgrid(slice_labels, SPECS["bwi"].slice_axes,
                                     "Bell coefficients have no entry for")
        values = p.reshape(len(p), -1) @ coefficients.grid.ravel()
        rows.append((float(r), example, float(values.min())))

    print(f"{'r':>6}  {'example':>12}  {'min control':>12}")
    for r, example, worst in rows:
        marker = "  <-- activation" if example < -0.05 else ""
        print(f"{r:6.3f}  {example:12.6f}  {worst:12.6f}{marker}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "example_value", "min_control_value"])
            writer.writerows(rows)
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
