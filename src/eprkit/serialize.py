"""JSON schemas for assemblages, functionals, correlation tables, reports.

Conventions: complex numbers are two-element arrays [re, im]; matrices are
row-major arrays of such pairs; floats use Python's shortest exact repr.
Index keys are comma-joined integers (settings 1-based, outcomes 0-based);
the protocol setting is written ``*``; multi-qubit c/w labels join their
components with ``.``.

Hermiticity and index completeness are enforced on load, so malformed files
fail at parse time rather than inside the numerics.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from operator import itemgetter

import numpy as np

from . import linalg as la
from .assemblages import CONTAINERS, SPECS, LabelGrid
from .bounds import BoundReport, DeterministicStrategy
from .functionals import SCENARIOS, BellCoefficients, EPRFunctional
from .protocol import CorrelationTable


class SchemaError(ValueError):
    """Raised when a JSON document does not match the expected schema."""


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_json(rows) -> np.ndarray:
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed matrix entry: {exc}") from exc
    try:
        return la.hermitian(m)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _label(value) -> str:
    if isinstance(value, tuple):
        return ".".join(str(v) for v in value)
    return str(value)


def _parse_label(text: str):
    if "." in text:
        return tuple(int(v) for v in text.split("."))
    return int(text)


def _key_to_str(key) -> str:
    return ",".join(_label(v) for v in key)


def label_texts(grid: LabelGrid):
    """The label texts of each key of ``grid``, in its key order."""
    return itertools.product(*[[_label(v) for v in axis] for axis in grid.labels])


def _key_from_str(text: str) -> tuple:
    return tuple(_parse_label(part) for part in text.split(","))


def _spec(scenario, known=SPECS):
    if scenario not in known:
        raise SchemaError(f"unknown scenario {scenario!r}")
    return SPECS[scenario]


def assemblage_to_json(assemblage) -> dict:
    return {
        "scenario": assemblage.scenario,
        "alphabets": assemblage.sizes,
        "elements": {
            _key_to_str(key): matrix_to_json(m) for key, m in sorted(assemblage.elements.items())
        },
    }


def assemblage_from_json(doc: dict):
    scenario = doc.get("scenario")
    axes = _spec(scenario).axes
    elements = {
        _key_from_str(key): matrix_from_json(rows)
        for key, rows in doc.get("elements", {}).items()
    }
    alphabets = doc.get("alphabets", {})
    kwargs = {f"n_{name}": alphabets[name] for name in axes if name in alphabets}
    return CONTAINERS[scenario](elements, **kwargs)


def functional_to_json(f) -> dict:
    if isinstance(f, EPRFunctional):
        return {
            "scenario": f.scenario,
            "form": "epr",
            "operators": {
                _key_to_str(k): matrix_to_json(m) for k, m in sorted(f.operators.items())
            },
            "bounds": dict(f.bounds),
        }
    if isinstance(f, BellCoefficients):
        return {
            "scenario": f.scenario,
            "form": "bell",
            "n": f.n,
            "coefficients": dict(zip(map(",".join, label_texts(f.xi)), f.xi.grid.ravel().tolist())),
        }
    raise TypeError(f"cannot serialise {type(f).__name__}")


def functional_from_json(doc: dict):
    form = doc.get("form")
    if form == "epr":
        operators = {
            _key_from_str(k): matrix_from_json(rows)
            for k, rows in doc.get("operators", {}).items()
        }
        return EPRFunctional(doc["scenario"], operators, dict(doc.get("bounds", {})))
    if form == "bell":
        xi = {_key_from_str(k): float(v) for k, v in doc.get("coefficients", {}).items()}
        return BellCoefficients(doc["scenario"], xi, doc.get("n", 1))
    raise SchemaError(f"unknown functional form {form!r}")


# Self-test marginal p(b, c | z, w): its key layout and label order.
_SELFTEST = ("b,c|z,w", "bczw")


def _block_to_json(block: LabelGrid, layout: str, names: str) -> dict:
    """The probabilities of ``block`` keyed by a layout such as ``"a,0,c|x,y,*,w"``.

    Each letter of the layout is the label text of that name in the entry's
    key; every other character is written as is.
    """
    template = "".join(f"{{{names.index(ch)}}}" if ch.isalpha() else ch for ch in layout)
    return {template.format(*key): p
            for key, p in zip(label_texts(block), block.grid.ravel().tolist())}


def _block_from_json(block: dict, layout: str, names: str) -> dict:
    pattern = layout.replace("|", ",|,").split(",")
    labels = itemgetter(*[pattern.index(name) for name in names])
    fixed = itemgetter(*[i for i, field in enumerate(pattern) if not field.isalpha()])
    out = {}
    for text, p in block.items():
        fields = text.replace("|", ",|,").split(",")
        if len(fields) != len(pattern) or fixed(fields) != fixed(pattern):
            raise SchemaError(f"key {text!r} does not match the layout {layout!r}")
        try:
            out[tuple(map(_parse_label, labels(fields)))] = float(p)
        except ValueError as exc:
            raise SchemaError(f"malformed key {text!r}: {exc}") from exc
    return out


def table_to_json(table: CorrelationTable) -> dict:
    spec = SPECS[table.scenario]
    return {
        "scenario": table.scenario,
        "slice": _block_to_json(table.slice, spec.layout, spec.slice_axes),
        "selftest": {name: _block_to_json(block, *_SELFTEST)
                     for name, block in table.selftest.items()},
        "meta": dict(table.meta),
    }


def table_from_json(doc: dict) -> CorrelationTable:
    spec = _spec(doc.get("scenario"), SCENARIOS)
    slc = _block_from_json(doc.get("slice", {}), spec.layout, spec.slice_axes)
    selftest = {name: _block_from_json(block, *_SELFTEST)
                for name, block in doc.get("selftest", {}).items()}
    return CorrelationTable(doc["scenario"], slc, selftest, dict(doc.get("meta", {})))


def bound_report_to_json(report: BoundReport) -> dict:
    doc = {
        "kind": report.kind,
        "value": float(report.value),
        "guaranteed_tight": report.guaranteed_tight,
        "note": report.note,
        "iterations": report.iterations,
        "restarts": report.restarts,
        "per_restart": [{"value": v, "iterations": n} for v, n in report.per_restart],
    }
    w = report.witness
    if isinstance(w, DeterministicStrategy):
        doc["witness"] = {
            "type": "deterministic-strategy",
            "response": {str(x): a for x, a in sorted(w.response.items())},
        }
    elif w is not None:
        witness = {
            "type": "quantum-realisation",
            "state": matrix_to_json(w.state),
            "povms": {
                str(x): [matrix_to_json(m) for m in effects]
                for x, effects in sorted(w.povms.items())
            },
        }
        if w.channels is not None:
            witness["channels"] = {
                str(y): [matrix_to_json(k) for k in kmap.kraus_ops]
                for y, kmap in sorted(w.channels.items())
            }
        doc["witness"] = witness
    return doc


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"object of type {type(obj).__name__} is not JSON serialisable")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=_json_default) + "\n"


def load_path(path) -> tuple:
    """The JSON document at ``path`` and the sha256 hex digest of the bytes it was parsed from."""
    with open(path, "rb") as fh:
        data = fh.read()
    return json.loads(data.decode("utf-8")), hashlib.sha256(data).hexdigest()
