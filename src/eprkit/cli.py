"""Command-line interface: validation, evaluation, bounds, simulation, demo.

Exit codes: 0 success, 1 domain failure (validation, guard, or assertion),
2 I/O, parse, schema, or argument failure, with one JSON error line on
stderr.  Every command prints a JSON run report to stdout: command echo,
sha256 digests of the input bytes it read, numeric results, per-check
pass/fail, the tolerances actually used, and the duration on a monotonic clock.
All randomness sits behind ``--seed`` (default 0).

``EPRKIT_TOL`` overrides the default validation residual tolerance 1e-9;
it affects validation verdicts only, never report formatting.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import string
import sys
import time

from . import bounds as bd
from . import catalog
from . import protocol
from . import serialize as ser
from .assemblages import DEFAULT_TOL, SPECS, Assemblage, sample_quantum, validate
from .functionals import (SCENARIOS, BellCoefficients, EPRFunctional, bell_from_epr,
                          evaluate_bell, evaluate_epr)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one JSON line and exit 2, like any other
        raise CliError(2, f"{self.prog}: {message}")


def _in_range(kind, lo, hi=math.inf):
    """The argparse type of a ``kind`` value in [lo, hi]; any other text is a usage error."""
    def parse(text: str):
        value = kind(text)
        if not lo <= value <= hi:  # NaN fails too
            raise argparse.ArgumentTypeError(f"{text!r} is not in [{lo}, {hi}]")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid <name> value"
    return parse


# Each demo check's tolerance, named as in its report's "tolerances" block, which omits "ns";
# a seesaw bracket allows the "bell" one too, as both meet constants given to 4 decimals.
_TOL = {"bell": 1e-4, "selftest": 1e-9, "classical": 1e-10, "quantum_controls": 1e-7, "ns": 1e-12}


def _validation_tol() -> float:
    raw = os.environ.get("EPRKIT_TOL")
    try:
        tol = DEFAULT_TOL if raw is None else float(raw)
    except ValueError as exc:
        raise CliError(2, f"EPRKIT_TOL is not a number: {raw!r}") from exc
    if not 0 <= tol < math.inf:  # NaN fails too
        raise CliError(2, f"EPRKIT_TOL is not a finite non-negative number: {raw!r}")
    return tol


class _Read(str):
    """The sha256 hex digest of an input's bytes, holding those bytes as ``data`` and the
    ``path`` they were read from: as a key of ``_loaded`` it hashes and compares as the
    digest alone."""

    def __new__(cls, digest: str, data: bytes, path: str):
        read = super().__new__(cls, digest)
        read.data, read.path = data, path
        return read


# How many loaded inputs a process keeps: a command reads at most three, and a chain of
# commands on shared files (dump, validate, eval, simulate, eval, selftest) at most four.
# Every loader builds a frozen record or a read-only array, so a kept one is safe to share.
_LOADED = 8


@functools.lru_cache(maxsize=_LOADED)
def _loaded(loader, types, read: _Read):
    """``loader`` applied to the JSON document in ``read.data``, built once per loader, types
    and digest; a failure is exit 2, and is not kept."""
    try:  # the kept key holds the digest, not the bytes
        doc = json.loads(vars(read).pop("data").decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CliError(2, f"{read.path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, types):
        raise CliError(2, f"{read.path}: the top-level JSON value is a {type(doc).__name__}")
    try:
        return loader(doc)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise CliError(2, f"{read.path}: {exc}") from exc


def _load(loader, path: str, types=dict):
    """``loader`` applied to the JSON document at ``path``, with the sha256 digest of the
    bytes read; any failure is exit 2.  Every input is read and digested, but bytes that
    this process has loaded before with the same loader give the object built then."""
    try:
        return ser.load_path(path, lambda data, digest: _loaded(
            loader, types, _Read(digest, data, path)))
    except OSError as exc:
        raise CliError(2, f"cannot read {path}: {exc}") from exc


def _domain(compute, *args):
    """``compute(*args)``; a ValueError it raises is a domain failure, exit 1."""
    try:
        return compute(*args)
    except ValueError as exc:
        raise CliError(1, str(exc)) from exc


def _write(path: str, text: str) -> None:
    """Write UTF-8 ``text`` over ``path``'s old bytes and cut any longer rest: truncating
    first (``"w"``) frees the blocks and starts write-back on ext4, ~1 ms a file."""
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if os.fstat(fh.fileno()).st_size > len(data):  # never for pipes and devices
            fh.truncate()


def cmd_validate(args):
    assemblage, digest = _load(ser.assemblage_from_json, args.path)
    if args.scenario and args.scenario != assemblage.scenario:
        raise CliError(2, f"file declares scenario {assemblage.scenario!r}, not {args.scenario!r}")
    tol = _validation_tol()
    rep = validate(assemblage, tol=tol)
    return {args.path: digest}, 0 if rep.passed else 1, dict(
        scenario=assemblage.scenario,
        checks=[{"name": c.name, "residual": c.residual, "passed": c.passes(tol)}
                for c in rep.conditions],
        structural_errors=list(rep.structural_errors),
        passed=rep.passed,
        tolerances={"validation": tol},
    )


def cmd_eval(args):
    functional, digest = _load(ser.functional_from_json, args.functional)
    inputs = {args.functional: digest}
    if args.assemblage:
        if not isinstance(functional, EPRFunctional):
            raise CliError(1, "assemblage evaluation needs an operator-form functional")
        evaluate, loader, path = evaluate_epr, ser.assemblage_from_json, args.assemblage
    elif args.correlations:
        if isinstance(functional, EPRFunctional):
            functional = bell_from_epr(functional)
        evaluate, loader, path = evaluate_bell, ser.table_from_json, args.correlations
    else:
        raise CliError(2, "pass --assemblage or --correlations")
    other, inputs[path] = _load(loader, path)
    value = _domain(evaluate, functional, other)
    return inputs, 0, dict(
        value=value,
        value_text=f"{value:.17g}",
        sign="negative" if value < 0 else ("zero" if value == 0 else "positive"),
    )


def cmd_bound(args):
    functional, digest = _load(ser.functional_from_json, args.functional)
    if not isinstance(functional, EPRFunctional):
        raise CliError(1, "bounds take an operator-form functional")
    seesaw = functools.partial(bd.seesaw_quantum, seed=args.seed, restarts=args.restarts)
    bound = {"classical": bd.classical_bound, "ns-cert": bd.ns_lower_bound, "seesaw": seesaw}
    report = _domain(bound[args.kind], functional)
    fields = {"bound": ser.bound_report_to_json(report)}
    stored_key = {"classical": "classical", "ns-cert": "no_signalling"}.get(args.kind)
    if stored_key and stored_key in functional.bounds:
        fields["stored_bound"] = functional.bounds[stored_key]
        fields["stored_bound_gap"] = report.value - functional.bounds[stored_key]
    if args.kind == "ns-cert":
        fields["note"] = report.note
    if args.kind == "seesaw" and functional.bounds:
        lo, hi = functional.bounds.get("almost_quantum"), functional.bounds.get("classical")
        bracket = {key: v for key, v in (("lower", lo), ("upper", hi)) if v is not None}
        value, slack = report.value, _TOL["bell"]
        fields["bracket_check"] = {**bracket, "tolerance": slack, "passed": (
            lo is None or value >= lo - slack) and (hi is None or value <= hi + slack)}
    return {args.functional: digest}, 0, fields


def cmd_simulate(args):
    assemblage, digest = _load(ser.assemblage_from_json, args.assemblage)
    if assemblage.scenario != args.scenario:
        raise CliError(1, f"assemblage is {assemblage.scenario!r}, not {args.scenario!r}")
    inputs, measurement = {args.assemblage: digest}, None  # None: the protocol's phi_plus
    if args.measurement != "phi-plus":  # an effect in a matrix JSON file, digested too
        measurement, inputs[args.measurement] = _load(ser.matrix_from_json, args.measurement,
                                                      (dict, list))
    table = _domain(protocol.simulate, assemblage, args.r, measurement)
    if args.out:
        _write(args.out, _csv_text(table.scenario, "p", table.slice) if args.format == "csv"
               else ser.dumps(ser.table_to_json(table)))
    masses = table.slice_mass()
    names = string.ascii_letters[:len(masses.labels)]  # any letters: a key joins its labels
    fields = dict(
        scenario=args.scenario,
        r=args.r,
        slice_mass=dict(zip(ser.key_texts(masses.labels, ",".join(names), names),
                            masses.grid.ravel().tolist())),
        entries=len(table.slice),
        tolerances={"effect": protocol.EFFECT_TOL},
    )
    if not args.out:
        fields["table"] = ser.table_to_json(table)
    return inputs, 0, fields


def _csv_text(scenario: str, value_name: str, grid) -> str:
    """CSV of a slice grid: one column per slice label, then the value; no field needs quotes."""
    names, layout = SPECS[scenario].slice_axes, ",".join(SPECS[scenario].slice_axes)
    rows = zip(ser.key_texts(grid.labels, layout, names), grid.grid.ravel().tolist())
    return "".join([f"{layout},{value_name}\r\n", *(f"{key},{v:.17g}\r\n" for key, v in rows)])


def cmd_selftest(args):
    table, digest = _load(ser.table_from_json, args.correlations)
    value = _domain(lambda: bd.selftest_value(protocol.selftest_marginal(table)))
    threshold = bd.SELFTEST_MAX - args.epsilon
    passed = value >= threshold
    return {args.correlations: digest}, 0 if passed else 1, dict(
        value=value,
        value_text=f"{value:.17g}",
        threshold=threshold,
        epsilon=args.epsilon,
        passed=bool(passed),
    )


def cmd_demo_ptp(args):
    """The full pipeline on the partial-transpose example, staged and checked; ``main``
    writes its report to ``--out`` as well."""
    checks = []

    def stage(name: str, passed: bool, **info):
        checks.append({"name": name, "passed": bool(passed), **info})

    assemblage = catalog.ptp_assemblage()
    f_raw = catalog.ptp_functional()
    xi = (catalog.ptp_epr_coefficients() if args.debug_beta_aq is None  # a tampered one per call
          else bell_from_epr(catalog.ptp_functional(normalized=True, beta_aq=args.debug_beta_aq)))

    tol = _validation_tol()
    rep = validate(assemblage, tol=tol)
    stage("validate", rep.passed, max_residual=rep.max_residual)

    classical, exact = bd.classical_bound(f_raw), catalog.PTP.classical_exact
    stage("classical-bound", abs(classical.value - exact) <= _TOL["classical"],
          value=classical.value, expected=exact, tolerance=_TOL["classical"])

    ns = bd.ns_lower_bound(f_raw)
    saturation = evaluate_epr(f_raw, assemblage)
    stage("ns-certificate", abs(ns.value) <= _TOL["ns"] and abs(saturation) <= _TOL["ns"],
          value=ns.value, achieved_by_catalog=saturation, tolerance=_TOL["ns"])

    resource = protocol.make_resource(1, args.r)
    table = protocol.simulate_bwi(assemblage, resource)

    ie = bd.selftest_value(protocol.selftest_marginal(table))
    stage("self-test", abs(ie - bd.SELFTEST_MAX) <= _TOL["selftest"],
          value=ie, expected=bd.SELFTEST_MAX, tolerance=_TOL["selftest"])

    bell = evaluate_bell(xi, table)
    # Expected value is affine in r between the transposed and canonical runs.
    aq = catalog.PTP.almost_quantum
    expected = args.r * (-aq / 4) + (1 - args.r) * ((2 - aq) / 4)
    bell_ok = abs(bell - expected) <= _TOL["bell"]
    if args.r == 1.0:
        bell_ok = bell_ok and bell < -0.05
    stage("bell-evaluation", bell_ok, value=bell, functional_scale_value=4 * bell,
          expected=expected, tolerance=_TOL["bell"], strictly_negative=bell < -0.05)

    # Bell values of 50 seeded quantum controls, drawn and simulated as one stack.
    labels, controls, _ = sample_quantum("bwi", range(args.seed, args.seed + 50))
    slice_labels, p = protocol.bwi_slices(labels, controls, resource)
    coefficients = xi.xi.subgrid(slice_labels, SPECS["bwi"].slice_axes,
                                 "Bell coefficients have no entry for")
    values = p.reshape(len(p), -1) @ coefficients.grid.ravel()
    worst = float(values.min())
    slack = _TOL["quantum_controls"]
    stage("quantum-controls", worst >= -slack, worst_value=worst, seeds=50, tolerance=slack,
          worst_seed=args.seed + int(values.argmin()), margin=worst + slack)

    failed_stage = next((check["name"] for check in checks if not check["passed"]), None)
    return {}, 0 if failed_stage is None else 1, dict(
        r=args.r,
        seed=args.seed,
        checks=checks,
        passed=failed_stage is None,
        failed_stage=failed_stage,
        tolerances={"validation": tol, **{name: t for name, t in _TOL.items() if name != "ns"}},
    )


_CATALOG_DUMPS = {
    "ptp-assemblage": catalog.ptp_assemblage,
    "ptp-functional-raw": catalog.ptp_functional,
    "ptp-functional-normalized": functools.partial(catalog.ptp_functional, normalized=True),
    "ptp-bell-coefficients": catalog.ptp_bell_coefficients,
    "canonical-resource": catalog.canonical_resource_assemblage,
    "embedded-channel-assemblage": lambda: catalog.embedded_ptp_channel()[0],
    "embedded-channel-functional": lambda: catalog.embedded_ptp_channel()[1],
}


def cmd_dump(args):
    if args.name not in _CATALOG_DUMPS:
        raise CliError(2, f"unknown object {args.name!r}; one of {sorted(_CATALOG_DUMPS)}")
    obj = _CATALOG_DUMPS[args.name]()
    if args.format == "csv":
        if not isinstance(obj, BellCoefficients):
            raise CliError(2, "csv export is defined for coefficient tables")
        text = _csv_text(obj.scenario, "xi", obj.xi)
    else:
        text = ser.dumps(ser.assemblage_to_json(obj) if isinstance(obj, Assemblage)
                         else ser.functional_to_json(obj))
    if not args.out:
        print(text, end="")
        return None
    _write(args.out, text)
    return {}, 0, dict(name=args.name, written=args.out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every ``main`` call."""
    parser = _Parser(prog="eprkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    mixing, seed = _in_range(float, 0.0, 1.0), _in_range(int, 0)

    p = sub.add_parser("validate", help="check the no-signalling conditions of an assemblage")
    p.add_argument("path")
    p.add_argument("--scenario", choices=list(SPECS))

    p = sub.add_parser("eval", help="evaluate a functional on an assemblage or correlations")
    p.add_argument("--functional", required=True)
    other = p.add_mutually_exclusive_group()  # neither: cmd_eval asks for one
    other.add_argument("--assemblage")
    other.add_argument("--correlations")

    p = sub.add_parser("bound", help="classical, no-signalling certificate, or seesaw bound")
    p.add_argument("kind", choices=["classical", "ns-cert", "seesaw"])
    p.add_argument("--functional", required=True)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--restarts", type=_in_range(int, 1), default=10)

    p = sub.add_parser("simulate", help="run an activation protocol")
    p.add_argument("scenario", choices=list(SCENARIOS))
    p.add_argument("--assemblage", required=True,
                   help="an assemblage JSON; a bwi resource takes its qubit count")
    p.add_argument("--r", type=mixing, default=1.0,
                   help="mixing parameter in [0, 1] of the resource r sigma + (1 - r) sigma^T")
    p.add_argument("--measurement", default="phi-plus",
                   help="'phi-plus' or a path to a matrix JSON")
    p.add_argument("--out", help="write the correlation table there (JSON, or CSV with "
                                 "--format csv) instead of into the printed report")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("selftest", help="threshold check of the self-test functional")
    p.add_argument("--correlations", required=True)
    p.add_argument("--epsilon", type=_in_range(float, 0, sys.float_info.max), default=1e-6)

    p = sub.add_parser("demo-ptp", help="end-to-end run of the worked example")
    p.add_argument("--out", help="also write a copy of the printed run report there")
    p.add_argument("--r", type=mixing, default=1.0,
                   help="mixing parameter in [0, 1] of the resource r sigma + (1 - r) sigma^T")
    p.add_argument("--seed", type=seed, default=0,
                   help="first seed of the 50 quantum-control draws")
    p.add_argument("--debug-beta-aq", type=float, default=None,
                   help="tamper with the almost-quantum constant (negative control)")

    p = sub.add_parser("dump", help="export a catalog object to the JSON schema")
    p.add_argument("name")
    p.add_argument("--out", help="write the object there (JSON, or CSV with --format csv) "
                                 "and print a run report instead of the object")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    return parser


def _bounded(msg: str) -> str:
    """``msg``, or, if its JSON text is over 600 characters (an echoed input value can make
    it any length), its ends of at most 200 escaped characters each around the count of the
    characters cut: an error line stays under 1 KB whatever the message escapes to."""
    if len(json.dumps(msg)) <= 602:
        return msg

    def kept(end):  # how many characters of ``end``, in order, escape to at most 200
        return sum(n <= 200 for n in itertools.accumulate(len(json.dumps(c)) - 2 for c in end))

    head, tail = kept(msg[:200]), kept(msg[:-201:-1])
    return f"{msg[:head]} ... [{len(msg) - head - tail} characters cut] ... {msg[len(msg) - tail:]}"


def main(argv=None) -> int:
    """Run one command.  A ``cmd_*`` returns the digests of the inputs it read, its exit
    code and its report fields, or None once it has printed its own text; ``main`` alone
    times it, emits its run report and turns each error into an exit code and JSON line."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        # "demo-ptp" runs cmd_demo_ptp, looked up per call rather than held by the shared
        # parser, so a rebound command (such as a tracer's wrapper) is the one that runs.
        ran = globals()["cmd_" + args.command.replace("-", "_")](args)
        if ran is None:  # the command printed its own text
            return 0
        inputs, code, fields = ran
        text = ser.dumps({"command": argv, "inputs": inputs, **fields,
                          "duration_s": time.perf_counter() - started})
        if args.command == "demo-ptp" and args.out:  # the one --out that takes the report
            _write(args.out, text)
        print(text, end="")
        return code
    except (CliError, ValueError, OSError, MemoryError) as exc:
        # A ValueError that reaches here is an out-of-range argument or a non-finite
        # value in a report, an OSError a failed write, a MemoryError an argument too
        # large for the run to allocate: exit 2.
        code, msg = exc.code if isinstance(exc, CliError) else 2, str(exc)
        print(json.dumps({"error": _bounded(msg), "exit_code": code}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
