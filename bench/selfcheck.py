"""Self-check of the benchmark itself.

Usage, from the repository root:

    python3 bench/selfcheck.py

It checks that:

* a one-second run of every workload completes, with and without tracing,
  with every output check passing and exactly the metrics BENCHMARK.json names;
* the ``demo-ptp --debug-beta-aq 0`` negative control (exit code 1) is counted
  as a failed op;
* the tracer sees calls made through ``from``-imported names and package
  re-exports, and on real ops every span's self time is non-negative and each
  op's self times sum to the op's duration;
* without eprkit's sources the benchmark exits non-zero and prints no result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402

run.pinned_env()

import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        FAILURES.append(message)


def reference(name: str) -> dict:
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"][name]


def tiny_runs() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"tiny {workload} run, trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0 (got {proc.returncode}: {proc.stderr[-300:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
                   f"{label} passes its output checks ({result['attempted']} attempted)")
            expect(set(result["metrics"]) == names[trace],
                   f"{label} reports exactly the BENCHMARK.json metrics")


def negative_control() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        demo = workloads.Demo(tmp)
        runner = worker.Runner(demo, 7, reference("demo"))
        runner.op(0)
        expect(runner.attempted == 1 and not runner.failures,
               "demo op passes without the negative control")
        demo.debug_args = ("--debug-beta-aq", "0")
        runner.op(0)
        expect(runner.attempted == 2 and len(runner.failures) == 1
               and "exit code 1" in runner.failures[0],
               "demo-ptp --debug-beta-aq 0 is counted as a failed op")


def tracing() -> None:
    ek = workloads.ek
    original = ek.cli.evaluate_bell
    tracer = Tracer()
    tracer.install(ek)
    try:
        expect(ek.cli.evaluate_bell is ek.functionals.evaluate_bell is ek.evaluate_bell
               is not original, "from-imports and re-exports are rebound to one wrapper")
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
            for name, cls in workloads.WORKLOADS.items():
                runner = worker.Runner(cls(tmp), 7, reference(name))
                for j in range(2):
                    runner.op(j, call=tracer.run_op)
                expect(not runner.failures, f"traced {name} ops pass their checks")
    finally:
        tracer.uninstall()
    expect(ek.cli.evaluate_bell is original, "uninstall restores the original functions")
    roots = sum(1 for span in tracer.spans if span[0] == "op")
    expect(roots == 8 and len(tracer.spans) > roots, f"{len(tracer.spans)} spans over 8 ops")
    parents = {span[3] for span in tracer.spans}
    expect(any(tracer.spans[p][0] == "cli.cmd_demo_ptp" for p in parents if p >= 0),
           "calls made inside cli are nested under the cli span")
    bad = tracer.check_spans()
    expect(not bad, "self times are non-negative and sum to op time" + (f": {bad[:2]}" if bad else ""))


def bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "demo", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    negative_control()
    tracing()
    bare_directory()
    tiny_runs()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
