"""JSON schemas for assemblages, functionals, correlation tables, reports.

Conventions: complex numbers are two-element arrays [re, im]; matrices are
row-major arrays of such pairs; floats use Python's shortest exact repr.
Index keys are comma-joined integers (settings 1-based, outcomes 0-based);
the protocol setting is written ``*``; multi-qubit c/w labels join their
components with ``.``.

Each document is read and written in one pass: ``dumps`` writes the text of
``json.dumps`` (indent 2, sorted keys, ASCII) byte for byte.  Every keyed block
(elements, operators, Bell coefficients, slices, self-test marginals) is written
with its labels' cached key texts, and read onto its grid if it is the full
product of its labels (its key list parsed once, its values in one array and its
matrices checked once, as a stack), else key by key, naming the first that fails.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from json.encoder import encode_basestring_ascii as _string
from types import MappingProxyType

import numpy as np

from . import linalg as la
from .assemblages import CONTAINERS, SPECS
from .bounds import BoundReport, DeterministicStrategy
from .functionals import SCENARIOS, BellCoefficients, EPRFunctional
from .protocol import CorrelationTable


class SchemaError(ValueError):
    """Raised when a JSON document does not match the expected schema."""


def matrix_to_json(m: np.ndarray) -> list:
    """Rows of [re, im] pairs: nested lists of floats, for a matrix or a stack of them."""
    return np.ascontiguousarray(m, dtype=complex).view(float).reshape(*np.shape(m), 2).tolist()


def _number(value) -> float:
    """A JSON number, an int or a float but no bool, as a float; TypeError for any other value."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, not {type(value).__name__}")
    return float(value)


def _numbers(values: list) -> np.ndarray:
    """``_number`` of each of ``values``, as one float array."""
    if not set(map(type, values)) <= {int, float}:
        raise TypeError("expected numbers")
    return np.array(values, dtype=float)


def _matrix(rows, ndim: int = 3) -> np.ndarray:
    """The complex view of rows of [re, im] pairs of JSON numbers (at ``ndim`` 4, of a list of
    such square matrices)."""
    try:
        m = np.array(rows, dtype=object)  # the parsed leaves: a bool or a text is no number
        kinds = set(map(type, m.flat))
        if m.ndim != ndim or m.shape[-1] != 2 or (ndim == 4 and m.shape[1] != m.shape[2]) or (
                not kinds <= {int, float}):
            names = "/".join(sorted(kind.__name__ for kind in kinds))
            raise ValueError(f"expected (d, d', 2) numbers, got {names} of shape {m.shape}")
        return m.astype(float).view(complex)[..., 0]  # OverflowError past the float range
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed matrix entry: {exc}") from exc


_matrices = functools.partial(_matrix, ndim=4)


def matrix_from_json(doc) -> np.ndarray:
    """A Hermitian matrix from rows of [re, im] pairs, or an object holding them as "matrix"."""
    if isinstance(doc, dict) and "matrix" not in doc:
        raise SchemaError("the matrix object has no 'matrix' entry")
    try:
        return la.hermitian(_matrix(doc["matrix"] if isinstance(doc, dict) else doc))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _label(value) -> str:
    return ".".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _parse_label(text: str):
    return tuple(map(int, text.split("."))) if "." in text else int(text)


@functools.lru_cache(maxsize=16)
def key_texts(labels: tuple, layout: str, names: str) -> MappingProxyType:
    """The read-only {key text: position} over the product of ``labels`` of ``names``, built
    once; in ``layout`` (such as ``"a,0,c|x,y,*,w"``) each letter is its label's text."""
    template = "".join(f"{{{names.index(ch)}}}" if ch.isalpha() else ch for ch in layout)
    texts = itertools.product(*[[_label(v) for v in axis] for axis in labels])
    return MappingProxyType(dict(zip(itertools.starmap(template.format, texts), itertools.count())))


def _split(keys: list, layout: str, names: str) -> list:
    """The label texts of each of ``names`` in ``keys`` laid out as ``layout``, one column per
    name: the keys split in one join and checked per column, or SchemaError naming keys[0]."""
    pattern = layout.replace("|", ",|,").split(",") + ["\n"]  # each key's fields, then "\n"
    fields = (",\n,".join(keys) + ",\n").replace("|", ",|,").split(",")
    columns = [fields[i::len(pattern)] for i in range(len(pattern))]
    if len(fields) != len(pattern) * len(keys) or any(  # "\n" parses as no label
            set(column) != {field} for column, field in zip(columns, pattern)
            if not field.isalpha()):
        raise SchemaError(f"key {keys[0]!r} does not match the layout {layout!r}")
    return [columns[pattern.index(name)] for name in names]


@functools.lru_cache(maxsize=64)
def _layout(keys: tuple, layout: str, names: str):
    """The sorted labels of each of ``names`` in ``keys`` and the read-only order that puts
    values in the order of ``keys`` into that of their ``key_texts``, if those texts are
    exactly ``keys``, else None: parsed once per key list, never holding a value."""
    labels = tuple(tuple(sorted({_parse_label(text) for text in set(column)}))
                   for column in _split(list(keys), layout, names))
    texts = math.prod(map(len, labels)) == len(keys) and key_texts(labels, layout, names)
    if not (texts and texts.keys() == set(keys)):
        return None
    order = np.array([texts[key] for key in keys]).argsort()  # the inverse permutation
    order.setflags(write=False)
    return labels, order


def _grid(block: dict, layout: str, names: str, read):
    """The ``_layout`` labels of the keys of ``block`` and ``read`` of its values in the order
    of their ``key_texts``, on their grid (*label counts, *value shape); else None."""
    try:
        labels, order = _layout(tuple(block), layout, names)
        values = read(list(block.values())).take(order, 0)
    except (TypeError, ValueError, OverflowError, IndexError, AttributeError):  # no keys, not a
        return None  # dict, no full product (None), labels that do not sort, a value that fails
    return labels, values.reshape(*map(len, labels), *values.shape[1:])


def _spec(scenario, known=SPECS):
    if scenario not in known:
        raise SchemaError(f"unknown scenario {scenario!r}")
    return SPECS[scenario]


def assemblage_to_json(assemblage) -> dict:
    axes, stack = assemblage.spec.axes, matrix_to_json(assemblage.stack)
    try:  # on the grid's key texts, or each key's own for keys that are no full product
        elements = _block_to_json(assemblage.grid[0], stack, ",".join(axes), axes)
    except ValueError:
        elements = {",".join(map(_label, key)): m for key, m in zip(assemblage.elements, stack)}
    return {"scenario": assemblage.scenario, "alphabets": assemblage.sizes, "elements": elements}


def assemblage_from_json(doc: dict):
    scenario = doc.get("scenario")
    axes = _spec(scenario).axes
    elements = _block(doc, "elements", ",".join(axes), axes, _matrices, _matrix, required=True)
    alphabets = doc.get("alphabets", {})
    if not isinstance(alphabets, dict) or not alphabets.keys() <= set(axes):
        raise SchemaError(f"alphabets must be an object over the axes {axes!r}, got {alphabets}")
    return CONTAINERS[scenario](elements, **{f"n_{name}": n for name, n in alphabets.items()})


def functional_to_json(f) -> dict:
    spec = SPECS[f.scenario]
    if isinstance(f, EPRFunctional):
        return {"scenario": f.scenario, "form": "epr", "bounds": dict(f.bounds), "operators":
                _block_to_json(f.labels, matrix_to_json(f.stack), ",".join(spec.axes), spec.axes)}
    if isinstance(f, BellCoefficients):
        return {"scenario": f.scenario, "form": "bell", "n": f.n, "coefficients": _block_to_json(
            f.xi.labels, f.xi.grid.ravel().tolist(), ",".join(spec.slice_axes), spec.slice_axes)}
    raise TypeError(f"cannot serialise {type(f).__name__}")


def functional_from_json(doc: dict):
    form = doc.get("form")
    if form not in ("epr", "bell"):
        raise SchemaError(f"unknown functional form {form!r}")
    spec = _spec(doc.get("scenario"), SCENARIOS)
    name, axes, reads = (("coefficients", spec.slice_axes, ()) if form == "bell"
                         else ("operators", spec.axes, (_matrices, _matrix)))
    block = _block(doc, name, ",".join(axes), axes, *reads, required=True)
    if not block:  # else a functional would read as zero on every input
        raise SchemaError(f"the {name!r} object is empty")
    if form == "bell":
        return BellCoefficients(doc["scenario"], block, doc.get("n", 1))
    bounds = doc.get("bounds", {})
    if not isinstance(bounds, dict):
        raise SchemaError(f"bounds must be an object of named constants, got {bounds}")
    return EPRFunctional(doc["scenario"], block, bounds)


# Self-test marginal p(b, c | z, w): its key layout and label order.
_SELFTEST = ("b,c|z,w", "bczw")


def _block_to_json(labels: tuple, values: list, layout: str, names: str) -> dict:
    """``values``, one per key of the product of ``labels`` in its order, keyed by a layout
    such as ``"a,0,c|x,y,*,w"``."""
    return dict(zip(key_texts(labels, layout, names), values))


def _object(doc: dict, name: str, required: bool = False) -> dict:
    """``doc[name]``, a JSON object; an absent one reads as {} unless it is ``required``."""
    if required and name not in doc:
        raise SchemaError(f"the document has no {name!r} object")
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise SchemaError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _block(doc: dict, name: str, layout: str, names: str, read=_numbers, read_one=_number,
           required: bool = False):
    """The keyed block ``doc[name]`` laid out as ``layout``: the ``_grid`` pair of a full
    product of its labels, else its {label tuple: ``read_one`` of its value} entries, read key
    by key in the file's order and naming the first key that fails."""
    block = _object(doc, name, required)
    grid = _grid(block, layout, names, read)
    if grid:
        return grid
    entries = {}
    for text, value in block.items():
        columns = _split([text], layout, names)
        try:
            entries[tuple(_parse_label(label) for label, in columns)] = read_one(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"malformed key {text!r}: {exc}") from exc
    return entries


def table_to_json(table: CorrelationTable) -> dict:
    spec = SPECS[table.scenario]
    slc = _block_to_json(table.slice.labels, table.slice.grid.ravel().tolist(), spec.layout,
                         spec.slice_axes)
    selftest = {name: _block_to_json(block.labels, block.grid.ravel().tolist(), *_SELFTEST)
                for name, block in table.selftest.items()}
    return {"scenario": table.scenario, "slice": slc, "selftest": selftest,
            "meta": dict(table.meta)}


def table_from_json(doc: dict) -> CorrelationTable:
    spec = _spec(doc.get("scenario"), SCENARIOS)
    slc = _block(doc, "slice", spec.layout, spec.slice_axes)
    selftest = _object(doc, "selftest")
    selftest = {name: _block(selftest, name, *_SELFTEST) for name in selftest}
    return CorrelationTable(doc["scenario"], slc, selftest, _object(doc, "meta"))


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
    for kind, cast in ((np.floating, float), (np.integer, int), (np.bool_, bool)):
        if isinstance(obj, kind):
            return cast(obj)
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


# The text of a value of each of these types as json.dumps writes it; _scalar writes the rest.
_SCALARS = {str: _string, int: int.__repr__, bool: {True: "true", False: "false"}.get,
            float: lambda x: float.__repr__(x) if math.isfinite(x) else _scalar(x),  # or raises
            type(None): lambda _: "null"}


@functools.lru_cache
def _flat(inner: str):
    """json's writer of a list or object of scalars, its items on lines indented as ``inner``."""
    return json.JSONEncoder(allow_nan=False, sort_keys=True, default=_json_default,
                            separators=("," + inner, ": ")).encode


def _encode(obj, nl: str) -> str:
    """``obj`` as ``dumps`` writes it on a line indented as ``nl``, or its exception: runs in one
    format call, lists and objects of scalars in one call of the stdlib writer, the items of
    any other list or object one by one."""
    scalar = _SCALARS.get(type(obj))
    if scalar or not isinstance(obj, (list, tuple, dict)) or not obj:
        return (scalar or _scalar)(obj)  # _scalar: other scalars and empty lists and objects
    keyed, inner = isinstance(obj, dict), nl + "  "
    if set(map(type, obj.values() if keyed else obj)) <= _SCALARS.keys():  # keys: json's too
        text = _flat(inner)(obj)
        return f"{text[0]}{inner}{text[1:-1]}{nl}{text[-1]}"
    keys, values = zip(*sorted(obj.items())) if keyed else ((), obj)
    strings = not keyed or set(map(type, keys)) == {str}
    run = strings and type(values[0]) in (list, tuple) and _run(values)
    if run:  # the fields in order: each key, if any, then the leaves of its value
        fields = zip(*[map(_string, keys)] * keyed,
                     *[map(float.__repr__, run[1])] * math.prod(run[0][1:]))
        return _template(run[0], nl, keyed).format(*itertools.chain.from_iterable(fields))
    texts = [f"{_string(k) if strings else _scalar({k: 0})[1:-4]}: {_encode(v, inner)}"
             for k, v in zip(keys, values)]  # each key, as json writes it, before its value
    text = f",{inner}".join(texts if keyed else [_encode(v, inner) for v in obj])
    return f"{{{inner}{text}{nl}}}" if keyed else f"[{inner}{text}{nl}]"


def dumps(doc: dict) -> str:
    """The text of ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
    default=_json_default)`` and a newline, or the exception it raises."""
    return _encode(doc, "\n") + "\n"


def load_path(path, parse) -> tuple:
    """``parse(data, digest)`` of the bytes ``data`` at ``path`` and their sha256 hex digest,
    and that digest: the file is read once, and parsing it is up to ``parse``."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    return parse(data, digest), digest
