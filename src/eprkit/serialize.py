"""JSON schemas for assemblages, functionals, correlation tables, reports.

Conventions: complex numbers are two-element arrays [re, im]; matrices are
row-major arrays of such pairs; floats use Python's shortest exact repr.
Index keys are comma-joined integers (settings 1-based, outcomes 0-based);
the protocol setting is written ``*``; multi-qubit c/w labels join their
components with ``.``.

Each document is read and written in one pass: ``dumps`` writes the text of
``json.dumps`` (indent 2, sorted keys, ASCII) byte for byte, and matrices are
checked Hermitian once, as a stack, by the container they are loaded into.
Malformed files fail at load rather than inside the numerics.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math

import numpy as np

from . import linalg as la
from .assemblages import CONTAINERS, SPECS, LabelGrid
from .bounds import BoundReport, DeterministicStrategy
from .functionals import SCENARIOS, BellCoefficients, EPRFunctional
from .protocol import CorrelationTable


class SchemaError(ValueError):
    """Raised when a JSON document does not match the expected schema."""


def matrix_to_json(m: np.ndarray) -> list:
    """Rows of [re, im] pairs: nested lists of floats, for a matrix or a stack of them."""
    return np.ascontiguousarray(m, dtype=complex).view(float).reshape(*np.shape(m), 2).tolist()


def _matrix(rows) -> np.ndarray:
    """The complex view of rows of [re, im] pairs of real numbers, not checked Hermitian."""
    try:
        m = np.array(rows)
        if m.dtype == object and set(map(type, m.flat)) <= {int, float, bool}:  # ints past 64 bits
            m = m.astype(float)  # OverflowError past the float range
        if m.dtype.kind not in "biuf" or m.ndim != 3 or m.shape[-1] != 2:
            raise ValueError(f"expected (d, d', 2) real numbers, got {m.dtype} of shape {m.shape}")
        return m.astype(float, copy=False).view(complex)[..., 0]  # no arithmetic: inf cannot warn
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed matrix entry: {exc}") from exc


def matrix_from_json(rows) -> np.ndarray:
    try:
        return la.hermitian(_matrix(rows))
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
    elements = zip(map(_key_to_str, assemblage.elements), matrix_to_json(assemblage.stack))
    return {"scenario": assemblage.scenario, "alphabets": assemblage.sizes,
            "elements": dict(elements)}


def assemblage_from_json(doc: dict):
    scenario = doc.get("scenario")
    axes = _spec(scenario).axes
    elements = {_key_from_str(key): _matrix(rows) for key, rows in doc.get("elements", {}).items()}
    alphabets = doc.get("alphabets", {})
    kwargs = {f"n_{name}": alphabets[name] for name in axes if name in alphabets}
    return CONTAINERS[scenario](elements, **kwargs)


def functional_to_json(f) -> dict:
    if isinstance(f, EPRFunctional):
        return {
            "scenario": f.scenario,
            "form": "epr",
            "operators": dict(zip(map(_key_to_str, f.operators), matrix_to_json(f.stack))),
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
        operators = {_key_from_str(k): _matrix(rows)
                     for k, rows in doc.get("operators", {}).items()}
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
    """The {label tuple: probability} entries of a block keyed by ``layout``: its keys split in
    one join and checked per column, each distinct label text parsed once."""
    values, keys = list(block.values()), list(block)
    if not keys:
        return {}
    pattern = layout.replace("|", ",|,").split(",") + ["\n"]  # each key's fields, then "\n"
    fields = (",\n,".join(keys) + ",\n").replace("|", ",|,").split(",")
    columns = [fields[i::len(pattern)] for i in range(len(pattern))]
    try:
        if len(fields) != len(pattern) * len(keys) or any(  # "\n" parses as no label
                set(column) != {field} for column, field in zip(columns, pattern)
                if not field.isalpha()):
            raise SchemaError(f"key {keys[0]!r} does not match the layout {layout!r}")
        try:
            values = list(map(float, values))
            parsed = [{text: _parse_label(text) for text in set(columns[pattern.index(name)])}
                      for name in names]
        except ValueError as exc:
            raise SchemaError(f"malformed key {keys[0]!r}: {exc}") from exc
        labels = [map(p.get, columns[pattern.index(name)]) for p, name in zip(parsed, names)]
        return dict(zip(zip(*labels), values))
    except (TypeError, ValueError, OverflowError):
        if len(keys) == 1:
            raise
    return {key: p for item in block.items()  # one key at a time, to name the first that fails
            for key, p in _block_from_json(dict([item]), layout, names).items()}


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
            "povms": {str(x): matrix_to_json(effects) for x, effects in sorted(w.povms.items())},
        }
        if w.channels is not None:
            witness["channels"] = {str(y): matrix_to_json(kmap.kraus_ops)
                                   for y, kmap in sorted(w.channels.items())}
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


_scalar = json.JSONEncoder(allow_nan=False, default=_json_default).encode


def _run(values) -> tuple | None:
    """The shape and leaves of nested lists of one length per level over finite floats, or None."""
    shape, leaves = [], [values]
    while set(map(type, leaves)) <= {list, tuple} and len(lengths := set(map(len, leaves))) == 1:
        shape.append(lengths.pop())
        leaves = list(itertools.chain.from_iterable(leaves))
    finite = set(map(type, leaves)) == {float} and all(map(math.isfinite, leaves))
    return (tuple(shape), leaves) if all(shape) and finite else None


@functools.lru_cache
def _template(shape: tuple, nl: str, keyed: bool) -> str:
    """A run's text on a line indented as ``nl``: a ``{}`` field per leaf, and per key if keyed."""
    inner = nl + "  "
    item = "{}: " * keyed + (_template(shape[1:], inner, False) if shape[1:] else "{}")
    items = f",{inner}".join([item] * shape[0])
    return f"{{{{{inner}{items}{nl}}}}}" if keyed else f"[{inner}{items}{nl}]"


def _encode(obj, nl: str) -> str:
    """``obj`` as ``dumps`` writes it on a line indented as ``nl``: runs in one format call, and
    each key of any other object as json.dumps writes it, before its value, or its exception."""
    if not isinstance(obj, (list, tuple, dict)) or not obj:
        return _scalar(obj)  # scalars and empty containers, as json.dumps writes them
    keyed, inner = isinstance(obj, dict), nl + "  "
    keys, values = zip(*sorted(obj.items())) if keyed else ((), obj)
    run = (not keyed or set(map(type, keys)) == {str}) and _run(values)
    if run:  # the fields in order: each key, if any, then the leaves of its value
        fields = zip(*[map(_scalar, keys)] * keyed,
                     *[map(float.__repr__, run[1])] * math.prod(run[0][1:]))
        return _template(run[0], nl, keyed).format(*itertools.chain.from_iterable(fields))
    texts = [f"{_scalar({k: 0})[1:-4]}: {_encode(v, inner)}" for k, v in zip(keys, values)]
    text = f",{inner}".join(texts if keyed else [_encode(v, inner) for v in obj])
    return f"{{{inner}{text}{nl}}}" if keyed else f"[{inner}{text}{nl}]"


def dumps(doc: dict) -> str:
    """The text of ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
    default=_json_default)`` and a newline, or the exception it raises."""
    return _encode(doc, "\n") + "\n"


def load_path(path) -> tuple:
    """The JSON document at ``path`` and the sha256 hex digest of the bytes it was parsed from."""
    with open(path, "rb") as fh:
        data = fh.read()
    return json.loads(data.decode("utf-8")), hashlib.sha256(data).hexdigest()
