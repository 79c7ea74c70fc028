"""Record the reference outputs of every pool case of every workload.

Run once, at the commit whose outputs are the reference, from the repository
root:

    python3 bench/record_reference.py

It writes ``bench/reference.json``.  Every benchmark op is later compared with
the entry of its case within ``workloads.REF_TOL``.  A case whose outputs
break an invariant at the recording commit is reported and the script exits 1.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

ROOT = run.ROOT
run.pinned_env()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=build)
    out = {"recorded_with": {"eprkit_commit": commit, "python": sys.version.split()[0],
                             "numpy": np.__version__},
           "tolerance": workloads.REF_TOL, "workloads": {}}
    broken = 0
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(tmp)
            indices = list(range(wl.pool_size))
            if name == "bounds":
                indices.append(wl.PTP)
            table = {}
            for i in indices:
                case = wl.case(i)
                values, bad = wl.outputs(case, wl.run(case))
                if bad:
                    broken += 1
                    print(f"{name} case {i}: {'; '.join(bad)}", file=sys.stderr)
                table[str(i)] = values
            out["workloads"][name] = table
            print(f"{name}: {len(table)} cases", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(Path(__file__).with_name("reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
