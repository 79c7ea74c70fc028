"""eprkit benchmark: one seeded workload, measured end to end or traced per layer.

Usage, from the repository root:

    python3 bench/run.py --workload demo --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``demo``, ``controls``,
``bounds``, ``files``.  Each is a closed loop with one client in a single
worker process; BLAS and OpenMP are pinned to one thread.

``--trace 0`` prints the end-to-end metrics: ``ops_per_s``, ``op_ms.p50``,
``op_ms.p90``, ``setup_s`` (median of several fresh worker start-ups),
``peak_rss_mb`` and ``cold_cli_s.p50`` (fresh ``python -m eprkit demo-ptp``
subprocesses).  Every time among them is scaled by the machine's current
speed (``calibrate.py``); the raw wall times are in the detail record.
``--trace 1`` runs the loop untraced for half the time and traced for the
other half and prints the per-layer metrics of ``tracer.py`` plus
``trace_overhead``, the traced ``ops_per_s`` over the untraced one.

Every op's outputs are checked (``workloads.py``).  The second-to-last line
of stdout is a JSON record of where the result came from (commit, versions,
machine, input digest, sample counts, failures); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
WORKLOADS = ("demo", "controls", "bounds", "files")
SETUPS = 5  # fresh worker start-ups per run; setup_s is their median
COLD_RUNS = 15  # cold demo-ptp subprocesses per run; cold_cli_s.p50 is their median
START_TIMEOUT_S = 60
ROADMAP_NOTE = ("The ROADMAP baseline table (demo-ptp 166 ms in-process) was measured on "
                "another machine; compare only with baseline.json from the same machine.")


def pinned_env() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


class Worker:
    """A worker process, started and waited for with time limits.

    ``setup_s`` is the wall time from spawning it to its READY line.
    """

    def __init__(self, args, tmp: str, env: dict, spans: str | None = None):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--tmp", tmp]
        if spans:
            cmd += ["--spans", spans]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT, env=env)
        timer = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        self.setup_s = time.perf_counter() - start
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"worker did not start (exit code {self.proc.returncode})")
        self.warmup = json.loads(line[len("READY "):])

    def finish(self, command: str, timeout: float) -> str:
        try:
            out, _ = self.proc.communicate(command + "\n", timeout=timeout)
        finally:
            self.stop()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def startup_series(n: int, action, env: dict) -> tuple[list[float], list[float]]:
    """Run ``action(k)`` for k < n; each returns a wall time of starting a process.

    A start-up reference (``calibrate.startup_sample``) is taken before the
    first run and after every run; each time is scaled by the two references
    around it.  Returns the raw and the scaled times.
    """
    import calibrate

    references, raw = [calibrate.startup_sample(env)], []
    for k in range(n):
        raw.append(action(k))
        references.append(calibrate.startup_sample(env))
    scaled = [t * calibrate.startup_scale(references[k], references[k + 1])
              for k, t in enumerate(raw)]
    return raw, scaled


def cold_cli(seed: int, env: dict) -> tuple[list[float], list[float], int, list[str]]:
    """Time fresh ``python -m eprkit demo-ptp`` runs on seeded demo cases.

    Returns raw and calibration-scaled wall times, the runs attempted and failures.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads

    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"]["demo"]
    demo = workloads.Demo(tmpdir="")
    picks = np.random.default_rng([workloads.POOL_SEED, 97, seed]).choice(
        demo.pool_size, COLD_RUNS, replace=False)
    failures = []

    def cold_run(k: int) -> float:
        i = int(picks[k])
        argv = [sys.executable, "-m", "eprkit", *demo.argv(demo.case(i))]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=START_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        try:
            values, bad = workloads.report_outputs(proc.returncode, proc.stdout)
            bad += workloads.compare(values, reference[str(i)])
        except (ValueError, KeyError) as exc:
            bad = [f"unreadable report: {exc!r}"]
        if bad:
            failures.append(f"cold demo-ptp case {i}: " + "; ".join(bad))
        return elapsed

    times, scaled = startup_series(COLD_RUNS, cold_run, env)
    return times, scaled, COLD_RUNS, failures


def provenance() -> dict:
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True) if (ROOT / ".git").exists() else None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eprkit").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    baseline = {}
    if (BENCH / "baseline.json").exists():
        with open(BENCH / "baseline.json", encoding="utf-8") as fh:
            baseline = json.load(fh)
    return {
        "eprkit_commit": git.stdout.strip() if git and git.returncode == 0 else None,
        "eprkit_src_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "pinned_threads": {var: os.environ[var] for var in THREAD_VARS},
        "baseline": baseline,
        "baseline_note": ROADMAP_NOTE,
    }


def end_to_end(args, tmp, env, detail) -> tuple[dict, int, int]:
    workers = []

    def start_worker(k: int) -> float:
        workers.append(Worker(args, tmp, env))
        if k < SETUPS - 1:
            workers[-1].finish("quit", START_TIMEOUT_S)
        return workers[-1].setup_s

    setups_raw, setups = startup_series(SETUPS, start_worker, env)
    result = json.loads(workers[-1].finish("go", args.seconds + START_TIMEOUT_S))
    cold_raw, cold, cold_attempted, cold_failures = cold_cli(args.seed, env)
    latencies = result["latencies_ms"]
    ok = result["ops"] - result["failed"]
    p90 = quantile(latencies, 90)
    detail.update(
        numpy=result["numpy"], input_digest=result["input_digest"], samples=result["ops"],
        samples_above_p90=sum(t > p90 for t in latencies),
        raw={"ops_per_s": ok / result["raw_s"],
             "setup_runs_s": setups_raw, "cold_cli_runs_s": cold_raw},
        scaled={"setup_runs_s": setups, "cold_cli_runs_s": cold})
    metrics = {
        "ops_per_s": (ok / result["op_time_s"], "1/s"),
        "op_ms.p50": (statistics.median(latencies), "ms"),
        "op_ms.p90": (p90, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "cold_cli_s.p50": (statistics.median(cold), "s"),
    }
    warmups = [w.warmup for w in workers]
    attempted = sum(w["attempted"] for w in warmups) + result["attempted"] + cold_attempted
    failures = [f for w in warmups for f in w["failures"]] + result["failures"] + cold_failures
    failed = sum(w["failed"] for w in warmups) + result["failed"] + len(cold_failures)
    detail["failures"] = failures[:5]
    return metrics, attempted, failed


def per_layer(args, tmp, env, detail) -> tuple[dict, int, int]:
    spans = ROOT / ".bench_build" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    worker = Worker(args, tmp, env, spans=str(spans))
    result = json.loads(worker.finish("go", args.seconds + START_TIMEOUT_S))
    from tracer import metric_units

    plain, traced = result["plain"], result["traced"]
    overhead = (traced["ops"] / traced["op_time_s"]) / (plain["ops"] / plain["op_time_s"])
    units = metric_units()
    metrics = {name: (value, units[name]) for name, value in result["layers"].items()}
    metrics["trace_overhead"] = (overhead, "ratio")
    detail.update(numpy=result["numpy"], input_digest=result["input_digest"],
                  samples={"untraced": plain["ops"], "traced": traced["ops"]},
                  spans=result["spans"], spans_file=str(spans.relative_to(ROOT)),
                  wrapped_functions=result["wrapped_functions"],
                  span_errors=result["span_errors"])
    failures = worker.warmup["failures"] + result["failures"] + result["span_errors"]
    detail["failures"] = failures[:5]
    return (metrics, worker.warmup["attempted"] + result["attempted"],
            worker.warmup["failed"] + result["failed"] + len(result["span_errors"]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "eprkit" / "__init__.py").is_file():
        print(f"error: no eprkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = pinned_env()
    sys.path.insert(0, str(BENCH))
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=build)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(args, tmp, env, detail)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    detail["error_ratio"] = failed / attempted
    detail["provenance"] = provenance()
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
