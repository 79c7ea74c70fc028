"""The four benchmark workloads: their inputs, one op each, and the op's checks.

Every workload draws its inputs from a fixed pool of cases.  Case ``i`` of a
pool is generated from ``(POOL_SEED, pool tag, i)`` and never changes, so the
outputs of every case could be recorded once (``reference.json``, written by
``record_reference.py``) and every later op is compared against them.  The
workload seed only chooses which cases run and in what order.

An op is split in two:

* ``run(case)`` calls eprkit and is the only part that is timed;
* ``outputs(case, result)`` turns the result into a flat list of numbers and
  booleans (compared with the reference within ``REF_TOL``) and a list of
  violated invariants.

eprkit is always reached through module attributes (``ek.cli.main``, never a
name imported into this file), so the tracer, which rebinds those attributes,
sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os

import numpy as np

import eprkit as ek
import eprkit.assemblages
import eprkit.bounds
import eprkit.catalog
import eprkit.cli
import eprkit.functionals
import eprkit.linalg
import eprkit.protocol
import eprkit.serialize

POOL_SEED = 2406_10697
REF_TOL = 1e-12
# Invariant tolerances: quantum controls may not go below zero by more than
# the CLI's own quantum-controls tolerance; the seesaw bracket is criterion 10's.
CONTROL_TOL = 1e-7
BRACKET_TOL = 1e-4
MONOTONE_TOL = 1e-9
R_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _pool_rng(tag: int, i: int) -> np.random.Generator:
    return np.random.default_rng([POOL_SEED, tag, i])


def _cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ek.cli.main(argv)
    return code, out.getvalue()


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _random_hermitian_functional(rng, scenario, keys, dim=2, psd=False):
    ops = {}
    for key in keys:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ops[key] = g @ g.conj().T / 2 if psd else (g + g.conj().T) / 2
    return ek.functionals.EPRFunctional(scenario, ops)


MDI_KEYS = list(itertools.product((0, 1), (0, 1), (1, 2, 3)))


class Workload:
    """A pool of cases, a schedule over it, and one op per scheduled case."""

    name = ""
    pool_size = 0
    classes = 1  # case i belongs to class i % classes; the schedule round-robins them

    def __init__(self, tmpdir: str):
        self.tmpdir = tmpdir
        self.fixtures()

    def fixtures(self) -> None:
        """Constant objects shared by all cases."""

    def case(self, i: int):
        raise NotImplementedError

    def schedule(self, seed: int, length: int) -> list[int]:
        """Seeded op sequence of case indices.

        Classes are visited round-robin and the cases of each class in a
        seeded permutation, so every run has the same mix of case classes.
        """
        rng = np.random.default_rng([POOL_SEED, 99, seed])
        per_class = self.pool_size // self.classes
        perms = [rng.permutation(per_class) for _ in range(self.classes)]
        return [int(perms[j % self.classes][(j // self.classes) % per_class]) * self.classes
                + j % self.classes for j in range(length)]

    def describe(self, case) -> bytes:
        """Bytes that identify the generated input, for the input digest."""
        return repr(case).encode()

    def run(self, case):
        raise NotImplementedError

    def outputs(self, case, result) -> tuple[list, list[str]]:
        raise NotImplementedError


class Demo(Workload):
    """``eprkit demo-ptp``: the paper's whole checked activation pipeline."""

    name = "demo"
    pool_size = 256
    debug_args: tuple = ()  # extra CLI arguments; the self-check's negative control

    def case(self, i):
        rng = _pool_rng(1, i)
        return int(rng.integers(0, 1_000_000)), float(rng.uniform(0.0, 1.0))

    def argv(self, case):
        s, r = case
        return ["demo-ptp", "--seed", str(s), "--r", repr(r)]

    def run(self, case):
        out = os.path.join(self.tmpdir, "demo-report.json")
        return _cli(self.argv(case) + ["--out", out, *self.debug_args]) + (out,)

    def outputs(self, case, result):
        code, stdout, out = result
        with open(out, encoding="utf-8") as fh:
            written = fh.read()
        return report_outputs(code, stdout, written)


def report_outputs(code: int, stdout: str, written: str | None = None):
    """Check values of one demo-ptp run report (in-process or cold CLI)."""
    bad = []
    if code != 0:
        bad.append(f"exit code {code}")
    if written is not None and written != stdout:
        bad.append("--out file differs from stdout")
    report = json.loads(stdout)
    if not report.get("passed"):
        bad.append(f"failed stage {report.get('failed_stage')}")
    checks = {c["name"]: c for c in report["checks"]}
    values = [bool(report["passed"])]
    for name, fields in DEMO_CHECK_FIELDS:
        values.append(bool(checks[name]["passed"]))
        values += [checks[name][f] for f in fields]
    return values, bad


DEMO_CHECK_FIELDS = (
    ("validate", ("max_residual",)),
    ("classical-bound", ("value",)),
    ("ns-certificate", ("value", "achieved_by_catalog")),
    ("self-test", ("value",)),
    ("bell-evaluation", ("value",)),
    ("quantum-controls", ("worst_value",)),
)


class Controls(Workload):
    """Seeded random quantum controls, round-robin over MDI, channel, two-qubit BwI."""

    name = "controls"
    pool_size = 768
    classes = 3
    SCENARIOS = ("mdi", "channel", "bwi2")

    def fixtures(self):
        self.mdi_psd = _random_hermitian_functional(_pool_rng(20, 0), "mdi", MDI_KEYS, psd=True)
        self.mdi_any = _random_hermitian_functional(_pool_rng(20, 1), "mdi", MDI_KEYS)
        self.channel = ek.catalog.embedded_ptp_channel()[1]
        f_norm = ek.catalog.ptp_functional(normalized=True)
        self.bwi2 = ek.functionals.EPRFunctional("bwi", {
            k: np.kron(op, np.eye(2) / 2) for k, op in f_norm.operators.items()})

    def case(self, i):
        rng = _pool_rng(2, i)
        return self.SCENARIOS[i % 3], int(rng.integers(0, 2**31)), R_GRID[rng.integers(5)]

    def run(self, case):
        scenario, seed, r = case
        A, P, F = ek.assemblages, ek.protocol, ek.functionals
        if scenario == "mdi":
            control, _ = A.random_quantum("mdi", seed)
            verdict = A.validate(control)
            table = P.simulate_mdi(control, P.make_resource(1, r))
            bell = F.evaluate_bell(F.bell_from_epr(self.mdi_psd), table)
            gap = (F.evaluate_bell(F.bell_from_epr(self.mdi_any), table)
                   - F.evaluate_epr(self.mdi_any, control))
            return verdict, bell, gap
        if scenario == "channel":
            control, _ = A.random_quantum("channel", seed)
            verdict = A.validate(control)
            res = P.make_resource(1, r)
            table = P.simulate_channel(control, res, res)
            return verdict, F.evaluate_bell(F.bell_from_epr(self.channel), table), None
        control, _ = A.random_quantum("bwi", seed, n=2)
        verdict = A.validate(control)
        table = P.simulate_bwi(control, P.make_resource(2, r))
        return verdict, F.evaluate_bell(F.bell_from_epr(self.bwi2), table), None

    def outputs(self, case, result):
        verdict, bell, gap = result
        bad = []
        if not verdict.passed:
            bad.append(f"quantum control fails validation: {verdict.failures()}")
        if bell < -CONTROL_TOL:
            bad.append(f"quantum control violates the Bell bound: {bell:.3e}")
        values = [bool(verdict.passed), float(verdict.max_residual), float(bell)]
        if gap is not None:
            # At r = 1 the MDI Bell value equals the EPR value exactly.
            if case[2] == 1.0 and abs(gap) > 1e-9:
                bad.append(f"MDI Bell/EPR gap {gap:.3e} at r = 1")
            values.append(float(gap))
        return values, bad


class Bounds(Workload):
    """Classical, NS-certificate and seesaw bounds of random BwI functionals.

    Alice's alphabet ``n_x`` runs over 3..10 (2**n_x strategies); each block of
    nine ops visits every ``n_x`` once, in seeded order, plus the PTP
    functional.  Each functional has a fixed seesaw seed, so its cost is fixed
    and the seed only changes which functionals a run reaches and in what order.
    """

    name = "bounds"
    N_X = tuple(range(3, 11))
    # 16 functionals per n_x, so that a run (about 120 to 200 ops, with the
    # machine's speed) visits most of them and the seed mostly changes their
    # order.  With 32 per n_x, which half of them a run reached spread
    # op_ms.p50 across seeds by about a tenth.
    pool_size = 128
    classes = len(N_X)
    RESTARTS = 3
    PTP_RESTARTS = 10
    # Caps the rare restarts that never converge (500 iterations by default):
    # one such functional took a tenth of the whole pool's time, so whether a
    # run reached it decided its ops_per_s.
    MAX_ITERATIONS = 100
    PTP = pool_size  # case index of the PTP functional, after the random ones

    def fixtures(self):
        self.ptp = ek.catalog.ptp_functional()

    def case(self, i):
        """A functional and the seed of its seesaw."""
        rng = _pool_rng(3, i)
        if i == self.PTP:
            return self.ptp, int(rng.integers(0, 2**31))
        n_x = self.N_X[i % self.classes]
        keys = itertools.product((0, 1), range(1, n_x + 1), (0, 1))
        return _random_hermitian_functional(rng, "bwi", keys), int(rng.integers(0, 2**31))

    def schedule(self, seed, length):
        base = iter(super().schedule(seed, length + self.classes))
        rng = np.random.default_rng([POOL_SEED, 98, seed])
        out = []
        while len(out) < length:
            block = [next(base) for _ in range(self.classes)]
            out += [block[k] for k in rng.permutation(self.classes)] + [self.PTP]
        return out[:length]

    def describe(self, case):
        f, seed = case
        return repr(seed).encode() + b"".join(
            np.ascontiguousarray(m).tobytes() for _, m in sorted(f.operators.items()))

    def run(self, case):
        f, seed = case
        restarts = self.PTP_RESTARTS if f is self.ptp else self.RESTARTS
        return (ek.bounds.classical_bound(f), ek.bounds.ns_lower_bound(f),
                ek.bounds.seesaw_quantum(f, seed=seed, restarts=restarts,
                                         max_iterations=self.MAX_ITERATIONS))

    def outputs(self, case, result):
        classical, ns, seesaw = result
        bad = []
        trace = seesaw.trace
        for prev, cur in zip(trace, trace[1:]):
            if cur > prev + MONOTONE_TOL * max(1.0, abs(prev)):
                bad.append(f"seesaw trace rises from {prev!r} to {cur!r}")
                break
        if ns.value > seesaw.value + MONOTONE_TOL:
            bad.append(f"NS certificate {ns.value} above seesaw {seesaw.value}")
        # A local search may stop above the classical value on a random
        # functional; only the PTP bracket (criterion 10) is a requirement.
        if case[0] is self.ptp and seesaw.value > classical.value + BRACKET_TOL:
            bad.append(f"PTP seesaw {seesaw.value} above classical {classical.value}")
        return [float(classical.value), float(ns.value)], bad


class Files(Workload):
    """CLI file round-trips: write an assemblage and catalog dumps, read them back."""

    name = "files"
    pool_size = 96
    classes = 3
    SCENARIOS = ("bwi", "mdi", "channel")

    def fixtures(self):
        self.mdi_functional = _random_hermitian_functional(_pool_rng(40, 0), "mdi", MDI_KEYS)

    def case(self, i):
        rng = _pool_rng(4, i)
        seed, r = int(rng.integers(0, 2**31)), R_GRID[rng.integers(5)]
        scenario = self.SCENARIOS[i % 3]
        return scenario, ek.assemblages.random_quantum(scenario, seed)[0], r

    def describe(self, case):
        scenario, assemblage, r = case
        return (scenario + repr(r)).encode() + b"".join(
            np.ascontiguousarray(m).tobytes() for _, m in sorted(assemblage.elements.items()))

    def path(self, name):
        return os.path.join(self.tmpdir, name)

    def run(self, case):
        S = ek.serialize
        scenario, assemblage, r = case
        a, f, g, t = (self.path(n) for n in ("assemblage.json", "functional.json",
                                               "normalized.json", "table.json"))
        with open(a, "w", encoding="utf-8") as fh:
            fh.write(S.dumps(S.assemblage_to_json(assemblage)))
        calls = []
        if scenario == "bwi":
            calls += [["dump", "ptp-functional-raw", "--out", f],
                      ["dump", "ptp-functional-normalized", "--out", g]]
        elif scenario == "mdi":
            with open(f, "w", encoding="utf-8") as fh:
                fh.write(S.dumps(S.functional_to_json(self.mdi_functional)))
            g = f
        else:
            calls.append(["dump", "embedded-channel-functional", "--out", f])
            g = f
        calls += [["validate", a, "--scenario", scenario],
                  ["eval", "--functional", f, "--assemblage", a]]
        if scenario == "bwi":
            calls.append(["bound", "classical", "--functional", f])
        calls += [["simulate", scenario, "--assemblage", a, "--r", repr(r), "--out", t],
                  ["eval", "--functional", g, "--correlations", t],
                  ["selftest", "--correlations", t]]
        return [(argv, *_cli(argv)) for argv in calls]

    def outputs(self, case, result):
        values, bad = [], []
        for argv, code, stdout in result:
            report = json.loads(stdout)
            command = argv[0]
            if code != 0:
                bad.append(f"{command} exit code {code}")
            for path, digest in report.get("inputs", {}).items():
                if digest != _sha256(path):
                    bad.append(f"{command}: digest of {path} does not match the file")
            if command == "validate":
                values.append(bool(report["passed"]))
                values += [c["residual"] for c in report["checks"]]
            elif command in ("eval", "selftest"):
                values.append(report["value"])
                if command == "selftest":
                    values.append(bool(report["passed"]))
            elif command == "bound":
                values.append(report["bound"]["value"])
            elif command == "simulate":
                values.append(report["entries"])
                values += [v for _, v in sorted(report["slice_mass"].items())]
        return values, bad


WORKLOADS = {w.name: w for w in (Demo, Controls, Bounds, Files)}


def compare(values: list, expected: list) -> list[str]:
    """Differences between an op's outputs and its recorded reference."""
    if len(values) != len(expected):
        return [f"{len(values)} outputs, reference has {len(expected)}"]
    bad = []
    for k, (v, e) in enumerate(zip(values, expected)):
        if isinstance(e, bool) or isinstance(v, bool):
            if v is not e:
                bad.append(f"output {k}: {v!r} != reference {e!r}")
        elif not abs(v - e) <= REF_TOL:
            bad.append(f"output {k}: {v!r} differs from reference {e!r} by more than {REF_TOL}")
    return bad
