"""One workload process: set up, report READY, then run the closed loop on request.

Started by ``run.py`` in a fresh interpreter.  Set-up is everything before the
first timed op: importing numpy and eprkit, generating the inputs and one
untimed, checked warm-up op.  The worker then writes ``READY`` and the warm-up
outcome on stdout and reads one line from stdin: ``go`` runs the measurement
and prints one JSON result line, anything else (or end of input) exits.

One client, one thread, closed loop: the next op starts when the previous one
has returned.  Only the eprkit calls are timed; output checks and calibration
samples (``calibrate.py``) run between ops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibrate
import workloads
from workloads import compare

ROOT = Path(__file__).resolve().parent.parent
SCHEDULE_LENGTH = 10_000
CALIBRATE_EVERY_S = 0.2
# The warm-up op runs the same case whatever the seed, so set-up time does not
# depend on which case a seed happens to schedule first.
WARMUP_CASE = 0


class Runner:
    """The workload's inputs and its checked ops."""

    def __init__(self, workload, seed: int, reference: dict):
        self.wl = workload
        self.schedule = workload.schedule(seed, SCHEDULE_LENGTH)
        self.cases = {i: workload.case(i) for i in sorted(set(self.schedule) | {WARMUP_CASE})}
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def input_digest(self) -> str:
        h = hashlib.sha256(repr(self.schedule).encode())
        for i, case in self.cases.items():
            h.update(repr(i).encode() + self.wl.describe(case))
        return h.hexdigest()

    def op(self, i: int, call=None) -> float:
        """Run the op of case ``i``, check it, and return its wall time in seconds.

        ``call(fn, case)``, when given, makes the call (the tracer's root span).
        """
        case = self.cases[i]
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call(self.wl.run, case) if call else self.wl.run(case)
        except Exception:
            elapsed = time.perf_counter() - start
            self.failures.append(f"case {i} raised: {traceback.format_exc(limit=3)}")
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            values, bad = self.wl.outputs(case, result)
            expected = self.reference.get(str(i))
            bad += compare(values, expected) if expected else [f"no reference for case {i}"]
        except Exception:
            bad = [f"output check raised: {traceback.format_exc(limit=3)}"]
        if bad:
            self.failures.append(f"case {i}: " + "; ".join(bad))
        return elapsed

    def loop(self, seconds: float, call=None) -> dict:
        """Closed loop over the schedule for ``seconds``; op times raw and scaled."""
        raw, scaled, pending = [], [], []
        before = calibrate.sample()
        last = time.perf_counter()
        deadline = last + seconds
        j = 0
        while True:
            now = time.perf_counter()
            if pending and (now - last >= CALIBRATE_EVERY_S or now >= deadline):
                after = calibrate.sample()
                factor = calibrate.scale(before, after)
                raw += pending
                scaled += [t * factor for t in pending]
                pending, before, last = [], after, time.perf_counter()
            if now >= deadline:
                break
            pending.append(self.op(self.schedule[j % len(self.schedule)], call))
            j += 1
        return {"ops": len(raw), "raw_s": sum(raw), "op_time_s": sum(scaled),
                "latencies_ms": [1e3 * t for t in scaled]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", help="where to write the traced spans (gzip CSV)")
    args = parser.parse_args()
    expected = ROOT / "src" / "eprkit"
    if Path(workloads.ek.__file__).resolve().parent != expected:
        print(f"eprkit was imported from {workloads.ek.__file__}, not {expected}", file=sys.stderr)
        return 2

    with open(Path(__file__).with_name("reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"][args.workload]
    runner = Runner(workloads.WORKLOADS[args.workload](args.tmp), args.seed, reference)
    runner.op(WARMUP_CASE)  # untimed, but checked and counted
    warmup = {"attempted": runner.attempted, "failed": len(runner.failures),
              "failures": runner.failures[:5]}
    runner.attempted, runner.failures = 0, []
    print("READY " + json.dumps(warmup), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    result = {"numpy": np.__version__, "input_digest": runner.input_digest()}
    if args.trace:
        from tracer import Tracer

        result["plain"] = runner.loop(args.seconds / 2)
        tracer = Tracer()
        result["wrapped_functions"] = tracer.install(workloads.ek)
        try:
            result["traced"] = runner.loop(args.seconds / 2, call=tracer.run_op)
        finally:
            tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["span_errors"] = tracer.check_spans()[:5]
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    else:
        result.update(runner.loop(args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["attempted"] = runner.attempted
    result["failed"] = len(runner.failures)
    result["failures"] = runner.failures[:5]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
