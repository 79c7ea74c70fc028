"""Outside-in tracer: spans around every public function of every eprkit module.

Nothing in eprkit changes.  ``Tracer.install`` replaces each public function
of the eight modules with a wrapper that records a span, and rebinds every
other name bound to the same function object as well: the ``from``-imports
(``evaluate_bell`` in ``protocol`` and ``cli``, ``random_quantum`` in ``cli``)
and the package re-exports in ``eprkit/__init__``.  Calls between private
helpers are not spans; their time is self time of the public caller.

Spans stay in memory as ``(name, start, end, parent, op, raised)`` tuples and
are written out once, at the end of a run.  A span's self time is its
duration minus the durations of its direct children; calls are nested and
single-threaded, so the children never overlap and that is exactly the time
their intervals cover.  The benchmark wraps every op in a root span ``op``, so
the self times of an op's spans sum to the op's duration.
"""

from __future__ import annotations

import functools
import gzip
import os
import time
import types
from collections import defaultdict

MODULES = ("linalg", "catalog", "assemblages", "functionals", "protocol", "bounds",
           "serialize", "cli")
ROOT = "op"

# Per-layer metrics, each normalised per op.  Function names are module.function.
CALLS = ("linalg.tensor", "linalg.eig_hermitian", "linalg.min_eigenvalue",
         "linalg.partial_trace", "linalg.apply_choi", "linalg.hermitian",
         "catalog.canonical_selftest_marginal", "assemblages.validate",
         "functionals.decompose", "protocol.simulate_bwi", "cli.main")
SELF_MS = ("linalg.tensor",
           "assemblages.random_quantum", "assemblages.realize_bwi", "assemblages.realize_mdi",
           "assemblages.realize_channel", "assemblages.validate",
           "functionals.bell_from_epr", "functionals.evaluate_bell", "functionals.evaluate_epr",
           "protocol.make_resource", "protocol.simulate_bwi", "protocol.simulate_mdi",
           "protocol.simulate_channel",
           "bounds.classical_bound", "bounds.ns_lower_bound", "bounds.seesaw_quantum",
           "bounds.selftest_value")
SERIALIZE_LOAD = ("serialize.load_path", "serialize.matrix_from_json",
                  "serialize.assemblage_from_json", "serialize.functional_from_json",
                  "serialize.table_from_json")
SERIALIZE_DUMP = ("serialize.matrix_to_json", "serialize.assemblage_to_json",
                  "serialize.functional_to_json", "serialize.table_to_json",
                  "serialize.bound_report_to_json", "serialize.dumps")


def _strategies(args, kwargs, result):
    keys = args[0].operators
    return len({k[0] for k in keys}) ** len({k[1] for k in keys})


# Counts taken at a layer boundary: function -> (counter, f(args, kwargs, result)).
PROBES = {
    "bounds.classical_bound": ("bounds.classical_bound.strategies", _strategies),
    "bounds.seesaw_quantum": ("bounds.seesaw_quantum.iterations",
                              lambda args, kwargs, result: result.iterations),
    "serialize.load_path": ("serialize.bytes_read",
                            lambda args, kwargs, result: os.path.getsize(args[0])),
    "serialize.dumps": ("serialize.bytes_written",
                        lambda args, kwargs, result: len(result.encode("utf-8"))),
}

UNITS = {"calls": "count/op", "self_ms": "ms/op", "share": "ratio", "errors": "count/op"}


def metric_units() -> dict:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {f"{name}.calls": UNITS["calls"] for name in CALLS}
    units.update({f"{name}.self_ms": UNITS["self_ms"] for name in SELF_MS})
    units.update({"serialize.load.self_ms": "ms/op", "serialize.dump.self_ms": "ms/op",
                  "serialize.bytes_read": "B/op", "serialize.bytes_written": "B/op",
                  "bounds.classical_bound.strategies": "count/op",
                  "bounds.seesaw_quantum.iterations": "count/op"})
    for module in MODULES:
        for kind in ("self_ms", "share", "errors"):
            units[f"{module}.{kind}"] = UNITS[kind]
    return units


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict = defaultdict(int)
        self.op = -1  # the current op's number; spans outside ops get -1 and are ignored
        self.ops = 0
        self._rebound: list = []

    def install(self, package) -> int:
        """Wrap the public functions of each module; returns the number wrapped."""
        wrapped = {}
        for module_name in MODULES:
            module = getattr(package, module_name)
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and isinstance(fn, types.FunctionType)
                        and fn.__module__ == module.__name__):
                    wrapped[id(fn)] = (fn, self._wrap(f"{module_name}.{attr}", fn))
        for module in [package] + [getattr(package, m) for m in MODULES]:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return len(wrapped)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        probe = PROBES.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            parent = stack[-2] if len(stack) > 1 else -1
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, raised)
            if probe is not None and self.op >= 0:
                self.counters[probe[0]] += probe[1](args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def run_op(self, fn, *args):
        """Call ``fn(*args)`` inside the root span of a new op."""
        self.op = self.ops
        self.ops += 1
        index = self._open(ROOT)
        raised = True
        start = time.perf_counter()
        try:
            result = fn(*args)
            raised = False
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (ROOT, start, end, -1, self.op, raised)
            self.op = -1
        return result

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        """All spans, one per line: op, index, parent, name, start, end, raised."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,index,parent,name,start,end,raised\n")
            for index, (name, start, end, parent, op, raised) in enumerate(self.spans):
                fh.write(f"{op},{index},{parent},{name},{start!r},{end!r},{int(raised)}\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics, each divided by the number of traced ops."""
        own = self.self_times()
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        module_self: dict = defaultdict(float)
        errors: dict = defaultdict(int)
        op_time, n_ops = 0.0, 0
        for (name, start, end, parent, op, raised), t in zip(self.spans, own):
            if op < 0:
                continue
            if name == ROOT:
                op_time += end - start
                n_ops += 1
                continue
            module = name.split(".", 1)[0]
            calls[name] += 1
            self_s[name] += t
            module_self[module] += t
            # An exception leaves the layer when the caller is another layer.
            if raised and (parent < 0 or not self.spans[parent][0].startswith(module + ".")):
                errors[module] += 1
        n = max(n_ops, 1)
        out = {f"{name}.calls": calls[name] / n for name in CALLS}
        out.update({f"{name}.self_ms": 1e3 * self_s[name] / n for name in SELF_MS})
        out["serialize.load.self_ms"] = 1e3 * sum(self_s[k] for k in SERIALIZE_LOAD) / n
        out["serialize.dump.self_ms"] = 1e3 * sum(self_s[k] for k in SERIALIZE_DUMP) / n
        for counter, _ in PROBES.values():
            out[counter] = self.counters[counter] / n
        for module in MODULES:
            out[f"{module}.self_ms"] = 1e3 * module_self[module] / n
            out[f"{module}.share"] = module_self[module] / op_time if op_time else 0.0
            out[f"{module}.errors"] = errors[module] / n
        return out

    def check_spans(self) -> list[str]:
        """Self times are non-negative and each op's self times sum to its duration."""
        own = self.self_times()
        bad = [f"span {i} ({self.spans[i][0]}) has negative self time {t!r}"
               for i, t in enumerate(own) if t < -1e-12]
        per_op: dict = defaultdict(float)
        duration = {}
        for (name, start, end, _, op, _), t in zip(self.spans, own):
            if op < 0:
                continue
            per_op[op] += t
            if name == ROOT:
                duration[op] = end - start
        for op, total in per_op.items():
            if op not in duration or abs(total - duration[op]) > 1e-9 * max(1.0, duration[op]):
                bad.append(f"op {op}: self times sum to {total!r}, op took {duration.get(op)!r}")
        return bad
