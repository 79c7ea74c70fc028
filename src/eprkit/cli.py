"""Command-line interface: validation, evaluation, bounds, simulation, demo.

Exit codes: 0 success, 1 domain failure (validation, guard, or assertion),
2 I/O, parse, schema, or argument failure, with one JSON error line on
stderr.  Every command prints a JSON run report to stdout: command echo,
sha256 digests of the input bytes it parsed, numeric results, per-check
pass/fail, the tolerances actually used, and the duration on a monotonic clock.
All randomness sits behind ``--seed`` (default 0).

``EPRKIT_TOL`` overrides the default validation residual tolerance 1e-9;
it affects validation verdicts only, never report formatting.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time

from . import bounds as bd
from . import catalog
from . import protocol
from . import serialize as ser
from .assemblages import DEFAULT_TOL, SPECS, sample_quantum, validate
from .functionals import SCENARIOS, EPRFunctional, bell_from_epr, evaluate_bell, evaluate_epr


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


def _validation_tol() -> float:
    raw = os.environ.get("EPRKIT_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError as exc:
        raise CliError(2, f"EPRKIT_TOL is not a number: {raw!r}") from exc


def _load(loader, path: str, types=dict):
    """``loader`` applied to the JSON document at ``path``, with the sha256 digest of the
    bytes it was parsed from; any failure is exit 2."""
    try:
        doc, digest = ser.load_path(path)
    except OSError as exc:
        raise CliError(2, f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise CliError(2, f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, types):
        raise CliError(2, f"{path}: the top-level JSON value is a {type(doc).__name__}")
    try:
        return loader(doc), digest
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise CliError(2, f"{path}: {exc}") from exc


def _report(args, inputs: dict, started: float, **fields) -> dict:
    """The run report; ``inputs`` maps each input path to the digest ``_load`` gave it."""
    report = {"command": list(args), "inputs": inputs}
    report.update(fields)
    report["duration_s"] = time.perf_counter() - started
    return report


def _write(path: str, text: str) -> None:
    """Write UTF-8 ``text`` over ``path``'s old bytes and cut any longer rest: truncating
    first (``"w"``) frees the blocks and starts write-back on ext4, ~1 ms a file."""
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if os.fstat(fh.fileno()).st_size > len(data):  # never for pipes and devices
            fh.truncate()


def _emit(report: dict, out: str | None = None) -> None:
    text = ser.dumps(report)
    if out:
        _write(out, text)
    print(text, end="")


def cmd_validate(args, argv) -> int:
    started = time.perf_counter()
    assemblage, digest = _load(ser.assemblage_from_json, args.path)
    if args.scenario and args.scenario != assemblage.scenario:
        raise CliError(2, f"file declares scenario {assemblage.scenario!r}, not {args.scenario!r}")
    tol = _validation_tol()
    rep = validate(assemblage, tol=tol)
    _emit(_report(
        argv, {args.path: digest}, started,
        scenario=assemblage.scenario,
        checks=[{"name": c.name, "residual": c.residual, "passed": c.passes(tol)}
                for c in rep.conditions],
        structural_errors=list(rep.structural_errors),
        passed=rep.passed,
        tolerances={"validation": tol},
    ))
    return 0 if rep.passed else 1


def cmd_eval(args, argv) -> int:
    started = time.perf_counter()
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
    try:
        value = evaluate(functional, other)
    except ValueError as exc:
        raise CliError(1, str(exc)) from exc
    _emit(_report(
        argv, inputs, started,
        value=value,
        value_text=f"{value:.17g}",
        sign="negative" if value < 0 else ("zero" if value == 0 else "positive"),
    ))
    return 0


def cmd_bound(args, argv) -> int:
    started = time.perf_counter()
    functional, digest = _load(ser.functional_from_json, args.functional)
    if not isinstance(functional, EPRFunctional):
        raise CliError(1, "bounds take an operator-form functional")
    try:
        if args.kind == "classical":
            report = bd.classical_bound(functional)
        elif args.kind == "ns-cert":
            report = bd.ns_lower_bound(functional)
        else:
            report = bd.seesaw_quantum(functional, seed=args.seed, restarts=args.restarts)
    except ValueError as exc:
        raise CliError(1, str(exc)) from exc
    fields = {"bound": ser.bound_report_to_json(report)}
    stored_key = {"classical": "classical", "ns-cert": "no_signalling"}.get(args.kind)
    if stored_key and stored_key in functional.bounds:
        fields["stored_bound"] = functional.bounds[stored_key]
        fields["stored_bound_gap"] = report.value - functional.bounds[stored_key]
    if args.kind == "ns-cert":
        fields["note"] = report.note
    if args.kind == "seesaw" and functional.bounds:
        lo = functional.bounds.get("almost_quantum")
        hi = functional.bounds.get("classical")
        bracket = {"tolerance": 1e-4}
        if lo is not None:
            bracket["lower"] = lo
        if hi is not None:
            bracket["upper"] = hi
        ok = (lo is None or report.value >= lo - 1e-4) and (
            hi is None or report.value <= hi + 1e-4
        )
        bracket["passed"] = ok
        fields["bracket_check"] = bracket
    _emit(_report(argv, {args.functional: digest}, started, **fields))
    return 0


def cmd_simulate(args, argv) -> int:
    started = time.perf_counter()
    assemblage, digest = _load(ser.assemblage_from_json, args.assemblage)
    if assemblage.scenario != args.scenario:
        raise CliError(1, f"assemblage is {assemblage.scenario!r}, not {args.scenario!r}")
    inputs, measurement = {args.assemblage: digest}, None  # None: the protocol's phi_plus
    if args.measurement != "phi-plus":  # an effect in a matrix JSON file, digested too
        measurement, inputs[args.measurement] = _load(
            lambda doc: ser.matrix_from_json(doc["matrix"] if isinstance(doc, dict) else doc),
            args.measurement, (dict, list))
    try:
        table = protocol.simulate(assemblage, args.r, measurement, args.n)
    except ValueError as exc:
        raise CliError(1, str(exc)) from exc
    doc = ser.table_to_json(table)
    if args.out:
        if args.format == "csv":
            _write(args.out, _csv_text(table.scenario, "p", table.slice))
        else:
            _write(args.out, ser.dumps(doc))
    masses = table.slice_mass()
    report = _report(
        argv, inputs, started,
        scenario=args.scenario,
        r=args.r,
        slice_mass={",".join(map(str, k)): v for k, v in sorted(masses.items())},
        entries=len(table.slice),
        tolerances={"effect": protocol.EFFECT_TOL},
    )
    if not args.out:
        report["table"] = doc
    _emit(report)
    return 0


def _csv_text(scenario: str, value_name: str, grid) -> str:
    """CSV of a slice grid: one column per slice label, then the value."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([*SPECS[scenario].slice_axes, value_name])
    writer.writerows([*key, f"{v:.17g}"]
                     for key, v in zip(ser.label_texts(grid), grid.grid.ravel().tolist()))
    return buf.getvalue()


def cmd_selftest(args, argv) -> int:
    started = time.perf_counter()
    table, digest = _load(ser.table_from_json, args.correlations)
    try:
        marginal = protocol.selftest_marginal(table)
        value = bd.selftest_value(marginal)
    except ValueError as exc:
        raise CliError(1, str(exc)) from exc
    threshold = bd.SELFTEST_MAX - args.epsilon
    passed = value >= threshold
    _emit(_report(
        argv, {args.correlations: digest}, started,
        value=value,
        value_text=f"{value:.17g}",
        threshold=threshold,
        epsilon=args.epsilon,
        passed=bool(passed),
    ))
    return 0 if passed else 1


def cmd_demo_ptp(args, argv) -> int:
    """The full pipeline on the partial-transpose example, staged and checked."""
    started = time.perf_counter()
    beta_aq = args.debug_beta_aq if args.debug_beta_aq is not None else catalog.PTP.almost_quantum
    checks = []
    failed_stage = None

    def stage(name: str, passed: bool, **info):
        nonlocal failed_stage
        checks.append({"name": name, "passed": bool(passed), **info})
        if not passed and failed_stage is None:
            failed_stage = name

    assemblage = catalog.ptp_assemblage()
    f_raw = catalog.ptp_functional()
    f_norm = catalog.ptp_functional(normalized=True, beta_aq=beta_aq)
    xi = bell_from_epr(f_norm)

    rep = validate(assemblage, tol=_validation_tol())
    stage("validate", rep.passed, max_residual=rep.max_residual)

    classical = bd.classical_bound(f_raw)
    stage("classical-bound", abs(classical.value - catalog.PTP.classical_exact) <= 1e-10,
          value=classical.value, expected=catalog.PTP.classical_exact, tolerance=1e-10)

    ns = bd.ns_lower_bound(f_raw)
    saturation = evaluate_epr(f_raw, assemblage)
    stage("ns-certificate", abs(ns.value) <= 1e-12 and abs(saturation) <= 1e-12,
          value=ns.value, achieved_by_catalog=saturation, tolerance=1e-12)

    resource = protocol.make_resource(1, args.r)
    table = protocol.simulate_bwi(assemblage, resource)

    ie = bd.selftest_value(protocol.selftest_marginal(table))
    stage("self-test", abs(ie - bd.SELFTEST_MAX) <= 1e-9,
          value=ie, expected=bd.SELFTEST_MAX, tolerance=1e-9)

    bell = evaluate_bell(xi, table)
    # Expected value is affine in r between the transposed and canonical runs.
    at_r1 = -catalog.PTP.almost_quantum / 4
    at_r0 = (2 - catalog.PTP.almost_quantum) / 4
    expected = args.r * at_r1 + (1 - args.r) * at_r0
    bell_ok = abs(bell - expected) <= 1e-4
    if args.r == 1.0:
        bell_ok = bell_ok and bell < -0.05
    stage("bell-evaluation", bell_ok, value=bell, functional_scale_value=4 * bell,
          expected=expected, tolerance=1e-4, strictly_negative=bell < -0.05)

    # Bell values of 50 seeded quantum controls, drawn and simulated as one stack.
    labels, controls, _ = sample_quantum("bwi", range(args.seed, args.seed + 50))
    slice_labels, p = protocol.bwi_slices(labels, controls, resource)
    coefficients = xi.xi.subgrid(slice_labels, SPECS["bwi"].slice_axes,
                                 "Bell coefficients have no entry for")
    values = p.reshape(len(p), -1) @ coefficients.grid.ravel()
    worst = float(values.min())
    stage("quantum-controls", worst >= -1e-7, worst_value=worst, seeds=50, tolerance=1e-7,
          worst_seed=args.seed + int(values.argmin()), margin=worst + 1e-7)

    report = _report(
        argv, {}, started,
        r=args.r,
        seed=args.seed,
        checks=checks,
        passed=failed_stage is None,
        failed_stage=failed_stage,
        tolerances={"validation": _validation_tol(), "bell": 1e-4,
                    "selftest": 1e-9, "classical": 1e-10, "quantum_controls": 1e-7},
    )
    _emit(report, args.out)
    return 0 if failed_stage is None else 1


_CATALOG_DUMPS = {
    "ptp-assemblage": lambda: ser.assemblage_to_json(catalog.ptp_assemblage()),
    "ptp-functional-raw": lambda: ser.functional_to_json(catalog.ptp_functional()),
    "ptp-functional-normalized": lambda: ser.functional_to_json(
        catalog.ptp_functional(normalized=True)),
    "ptp-bell-coefficients": lambda: ser.functional_to_json(catalog.ptp_bell_coefficients()),
    "canonical-resource": lambda: ser.assemblage_to_json(catalog.canonical_resource_assemblage()),
    "embedded-channel-assemblage": lambda: ser.assemblage_to_json(
        catalog.embedded_ptp_channel()[0]),
    "embedded-channel-functional": lambda: ser.functional_to_json(
        catalog.embedded_ptp_channel()[1]),
}


def cmd_dump(args, argv) -> int:
    started = time.perf_counter()
    if args.name not in _CATALOG_DUMPS:
        raise CliError(2, f"unknown object {args.name!r}; one of {sorted(_CATALOG_DUMPS)}")
    doc = _CATALOG_DUMPS[args.name]()
    if args.format == "csv":
        if doc.get("form") != "bell":
            raise CliError(2, "csv export is defined for coefficient tables")
        text = _csv_text(doc["scenario"], "xi", ser.functional_from_json(doc).xi)
    else:
        text = ser.dumps(doc)
    if args.out:
        _write(args.out, text)
        _emit(_report(argv, {}, started, name=args.name, written=args.out))
    else:
        print(text, end="")
    return 0


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
    p.add_argument("--assemblage")
    p.add_argument("--correlations")

    p = sub.add_parser("bound", help="classical, no-signalling certificate, or seesaw bound")
    p.add_argument("kind", choices=["classical", "ns-cert", "seesaw"])
    p.add_argument("--functional", required=True)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--restarts", type=_in_range(int, 1), default=10)

    p = sub.add_parser("simulate", help="run an activation protocol")
    p.add_argument("scenario", choices=list(SCENARIOS))
    p.add_argument("--assemblage", required=True)
    p.add_argument("--r", type=mixing, default=1.0)
    p.add_argument("--measurement", default="phi-plus",
                   help="'phi-plus' or a path to a matrix JSON")
    p.add_argument("--n", type=_in_range(int, 0, 2), default=0,
                   help="resource qubit count (bwi only; 0: the assemblage's own)")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("selftest", help="threshold check of the self-test functional")
    p.add_argument("--correlations", required=True)
    p.add_argument("--epsilon", type=float, default=1e-6)

    p = sub.add_parser("demo-ptp", help="end-to-end run of the worked example")
    p.add_argument("--out")
    p.add_argument("--r", type=mixing, default=1.0)
    p.add_argument("--seed", type=seed, default=0,
                   help="first seed of the 50 quantum-control draws")
    p.add_argument("--debug-beta-aq", type=float, default=None,
                   help="tamper with the almost-quantum constant (negative control)")

    p = sub.add_parser("dump", help="export a catalog object to the JSON schema")
    p.add_argument("name")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        # "demo-ptp" runs cmd_demo_ptp, looked up per call rather than held by the shared
        # parser, so a rebound command (such as a tracer's wrapper) is the one that runs.
        return globals()["cmd_" + args.command.replace("-", "_")](args, argv)
    except (CliError, ValueError, OSError) as exc:
        # A ValueError that reaches here is an out-of-range argument or a
        # non-finite value in a report, an OSError a failed write: exit 2.
        code = exc.code if isinstance(exc, CliError) else 2
        print(json.dumps({"error": str(exc), "exit_code": code}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
