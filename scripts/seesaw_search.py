#!/usr/bin/env python3
"""Seesaw search over quantum strategies for the worked example functional.

Each restart alternates exact state and measurement updates with Bob's
processing pinned to the identity, so every value is quantum achievable.
The best value over restarts upper-bounds the quantum minimum; together with
the published almost-quantum constant this brackets it.

Usage: python scripts/seesaw_search.py [--restarts 50] [--seed 0]
"""

from __future__ import annotations

import argparse
import sys

from eprkit import catalog
from eprkit.bounds import classical_bound, ns_lower_bound, seesaw_quantum
from eprkit.cli import _in_range


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--restarts", type=_in_range(int, 1), default=50)
    parser.add_argument("--seed", type=_in_range(int, 0), default=0)
    args = parser.parse_args()

    functional = catalog.ptp_functional(normalized=True)
    classical = classical_bound(functional)
    ns = ns_lower_bound(functional)
    seesaw = seesaw_quantum(functional, seed=args.seed, restarts=args.restarts)

    shift = catalog.PTP.almost_quantum
    print("normalized functional (almost-quantum bound at zero):")
    print(f"  classical bound        {classical.value:.10f}")
    print(f"  ns certificate         {ns.value:.10f}")
    print(f"  seesaw best            {seesaw.value:.10f}  "
          f"({seesaw.restarts} restarts, {seesaw.iterations} iterations)")
    print(f"  final trace            {[round(v, 8) for v in seesaw.trace]}")
    print("raw scale (add the almost-quantum constant):")
    lo, hi = shift, classical.value + shift
    print(f"  quantum minimum within [{lo:.4f}, {hi:.4f}];"
          f" seesaw point {seesaw.value + shift:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
