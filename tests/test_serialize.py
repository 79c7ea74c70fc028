import contextlib
import copy
import io
import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from eprkit import assemblages, catalog, functionals
from eprkit import linalg as la
from eprkit import serialize as ser
from eprkit.assemblages import CONTAINERS, SPECS, Assemblage, random_quantum
from eprkit.cli import main
from eprkit.functionals import BellCoefficients, EPRFunctional, bell_from_epr
from eprkit.protocol import make_resource, simulate, simulate_bwi
from oracles import random_hermitian, random_slice_labels


def test_matrix_round_trip_exact():
    m = random_hermitian(np.random.default_rng(0), 4)
    back = ser.matrix_from_json(json.loads(json.dumps(ser.matrix_to_json(m))))
    assert np.array_equal(back, m)


def test_matrix_from_json_rejects_non_hermitian():
    with pytest.raises(ser.SchemaError):
        ser.matrix_from_json([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])


def test_assemblage_round_trip_all_scenarios():
    objects = [catalog.ptp_assemblage(), catalog.canonical_resource_assemblage()]
    objects += [random_quantum(name, 0, {"x": 2})[0]
                for name, spec in SPECS.items() if spec.sample]
    assert {a.scenario for a in objects} == set(SPECS)
    for assemblage in objects:
        doc = json.loads(ser.dumps(ser.assemblage_to_json(assemblage)))
        back = ser.assemblage_from_json(doc)
        assert type(back) is type(assemblage)
        assert back.sizes == assemblage.sizes
        assert back.elements.keys() == assemblage.elements.keys()
        for key in assemblage.elements:
            assert np.array_equal(back.elements[key], assemblage.elements[key])


def test_functional_round_trip_both_forms():
    f = catalog.ptp_functional(normalized=True)
    back = ser.functional_from_json(json.loads(ser.dumps(ser.functional_to_json(f))))
    for key in f.operators:
        assert np.array_equal(back.operators[key], f.operators[key])
    assert back.bounds == f.bounds

    xi = catalog.ptp_bell_coefficients()
    back = ser.functional_from_json(json.loads(ser.dumps(ser.functional_to_json(xi))))
    assert back.xi == xi.xi
    assert back.n == xi.n


def test_table_round_trip_per_scenario():
    tables = [simulate_bwi(catalog.ptp_assemblage(), make_resource(1, 0.5))]
    tables += [simulate(random_quantum(name, 1)[0], 1.0)
               for name, spec in SPECS.items() if spec.layout]
    assert {t.scenario for t in tables} == {name for name, spec in SPECS.items() if spec.layout}
    for table in tables:
        doc = json.loads(ser.dumps(ser.table_to_json(table)))
        layout = SPECS[table.scenario].layout
        assert all(len(key.split(",")) == len(layout.split(",")) for key in doc["slice"])
        back = ser.table_from_json(doc)
        assert back.scenario == table.scenario
        assert back.slice == table.slice
        assert back.selftest == table.selftest


def test_two_qubit_labels_round_trip():
    table = simulate_bwi(random_quantum("bwi", 0, n=2)[0], make_resource(2, 1.0))
    back = ser.table_from_json(json.loads(ser.dumps(ser.table_to_json(table))))
    assert back.slice == table.slice


def test_bell_coefficient_labels_round_trip_n2():
    f2 = catalog.ptp_functional(normalized=True)
    ops = {k: la.tensor(v, la.I2 / 2) for k, v in f2.operators.items()}
    xi = bell_from_epr(EPRFunctional("bwi", ops))
    back = ser.functional_from_json(json.loads(ser.dumps(ser.functional_to_json(xi))))
    assert back.xi == xi.xi
    assert back.n == 2


def test_dump_is_stable_under_reload():
    doc = ser.assemblage_to_json(catalog.ptp_assemblage())
    text = ser.dumps(doc)
    again = ser.dumps(json.loads(text))
    assert text == again


def test_unknown_scenario_rejected():
    with pytest.raises(ser.SchemaError):
        ser.assemblage_from_json({"scenario": "tripartite", "elements": {}})
    with pytest.raises(ser.SchemaError):
        ser.functional_from_json({"scenario": "bwi", "form": "matrix"})


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1e308, -1e308])
_LEAVES = st.one_of(
    st.text(max_size=6),
    st.text(st.characters(max_codepoint=0x1F) | st.characters(min_codepoint=0x7F), max_size=6),
    st.integers(-10**30, 10**30), _FLOATS, st.booleans(), st.none(),
    _FLOATS.map(np.float64), st.floats(allow_nan=False, width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_))
# Runs of floats: lists of them, lists of such lists (of one length or not), matrices of pairs.
_PAIRS = st.lists(_FLOATS, min_size=2, max_size=2)
_RUNS = st.one_of(
    st.lists(_FLOATS, min_size=1, max_size=5),
    st.lists(st.lists(_FLOATS, min_size=1, max_size=3), min_size=1, max_size=3),
    st.integers(1, 3).flatmap(lambda d: st.lists(st.lists(_PAIRS, min_size=d, max_size=d),
                                                 min_size=d, max_size=d)))
_DOCS = st.recursive(_LEAVES | _RUNS, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    *[st.dictionaries(keys, children, max_size=4)
      for keys in (st.text(max_size=5), st.integers(-3, 3), _FLOATS, st.booleans())]),
    max_leaves=24)
# Values json.dumps refuses: non-finite floats and objects it cannot encode.
_BAD = [math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("-inf"), object(), {1, 2},
        1j, b"x"]


def _written_alike(doc):
    """ser.dumps(doc) is the stdlib writer's text, or raises the exception type it raises."""
    try:
        expected = oracles.dumps(doc)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            ser.dumps(doc)
    else:
        assert ser.dumps(doc) == expected


@settings(max_examples=200)
@given(doc=_DOCS)
def test_dumps_matches_the_stdlib_writer(doc):
    _written_alike(doc)


@settings(max_examples=100)
@given(doc=_DOCS, bad=st.sampled_from(_BAD), where=st.sampled_from(["list", "dict", "run", "key"]))
def test_dumps_raises_like_the_stdlib_writer(doc, bad, where):
    if where == "key":  # a non-finite float key, or a tuple key
        _written_alike({"a": doc, bad if isinstance(bad, float) else (1,): 1.0})
    else:
        _written_alike({"list": [doc, bad], "dict": {"a": doc, "b": bad},
                        "run": [[0.5, 1.0], [bad, 0.0]]}[where])


def _block(rng, labels, layout, names):
    """{key text: probability} over the full product of ``labels``, in shuffled key order."""
    template = "".join(f"{{{names.index(ch)}}}" if ch.isalpha() else ch for ch in layout)
    table = oracles.shuffled_table(rng, labels, lambda: float(rng.random()))
    return {template.format(*map(ser._label, key)): p for key, p in table.items()}


_BAD_LABELS = ["x", "", "1.", ".1", "1.x", "0.1.1", " 2", "+1", "\u0661", "1\n"]
_BAD_VALUES = [None, "x", "0.25", True, 10**400, -10**400, [], {}, math.nan, 2**70]


@settings(max_examples=100)
@given(data=st.data())
def test_block_parse_matches_the_per_key_scan(data):
    scenario = data.draw(st.sampled_from([*[name for name, spec in SPECS.items() if spec.layout],
                                          "selftest"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if scenario == "selftest":
        (layout, names), labels = ser._SELFTEST, [(0, 1), (0, 1), (1, 2, 3), (1, 2, 3)]
    else:
        layout, names = SPECS[scenario].layout, SPECS[scenario].slice_axes
        labels = random_slice_labels(rng, scenario, data.draw(st.integers(1, 2)))
    block = _block(rng, labels, layout, names)
    for kind in data.draw(st.lists(st.sampled_from(
            ["field-count", "fixed-field", "label", "value"]), max_size=2)):
        key = data.draw(st.sampled_from(sorted(block)))
        fields = key.replace("|", ",|,").split(",")
        i = data.draw(st.integers(0, len(fields) - 1))
        if kind == "field-count":
            fields = data.draw(st.sampled_from([  # the last: two keys in one, split as one
                fields[:-1], fields + ["0"], fields + ["|", "1"], fields + ["\n"] + fields]))
        elif kind == "fixed-field" or kind == "label":
            fields[i] = data.draw(st.sampled_from(
                ["0", "1", "*", "|", "x", ""] if kind == "fixed-field" else _BAD_LABELS))
        if kind == "value":
            block[key] = data.draw(st.sampled_from(_BAD_VALUES))
        else:
            block[",".join(fields).replace(",|,", "|")] = block.pop(key)
    try:
        expected = oracles.block_from_json_per_key(block, layout, names)
    except Exception as exc:  # the same exception, naming the same key
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            ser._block({"slice": block}, "slice", layout, names)
    else:
        got = ser._block({"slice": block}, "slice", layout, names)
        if isinstance(got, tuple):  # a full product on its grid: the same entries, in its order
            labels, grid = got
            assert grid.shape == tuple(map(len, labels))
            entries = dict(zip(itertools.product(*labels), grid.ravel().tolist()))
            assert sorted(map(repr, entries.items())) == sorted(map(repr, expected.items()))
            assert len(entries) == len(expected)
        else:  # entries read one key at a time, in key order
            assert repr(list(got.items())) == repr(list(expected.items()))


def test_block_parse_reads_multi_qubit_labels_and_an_empty_block():
    block = {"0,0,0.1|1,2,*,3.1": 0.25, "1,0,1.1|1,2,*,3.1": 0.5}
    assert ser._block({"slice": block}, "slice", SPECS["bwi"].layout, "axycw") == {
        (0, 1, 2, (0, 1), (3, 1)): 0.25, (1, 1, 2, (1, 1), (3, 1)): 0.5}
    assert ser._block({"slice": {}}, "slice", SPECS["bwi"].layout, "axycw") == {}
    assert ser._block({}, "slice", SPECS["bwi"].layout, "axycw") == {}


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("matrix") / "assemblage.json")


_BAD_ENTRIES = [None, "x", "1", True, False, 10**400, -10**400, 10**25, 2**63, -1, math.inf,
                math.nan, [], {}, [1.0], [[1.0, 0.0]]]


@settings(max_examples=100)
@given(data=st.data())
def test_matrix_parse_matches_the_per_entry_parse(matrix_file, data):
    scenario = data.draw(st.sampled_from([name for name, spec in SPECS.items() if spec.sample]))
    doc = ser.assemblage_to_json(random_quantum(scenario, data.draw(st.integers(0, 99)))[0])
    rows = doc["elements"][data.draw(st.sampled_from(sorted(doc["elements"])))]
    i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows) - 1))
    kind = data.draw(st.sampled_from(["part", "entry", "row", "diagonal", "none"]))
    if kind == "diagonal":  # a Hermitian matrix whose big int makes numpy hold Python objects
        rows[0][0][0] = 10**25
        rows[-1][-1][0] = data.draw(st.sampled_from(["1", True, None, 2**70, 10**400]))
    elif kind == "part":
        rows[i][j][data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(_BAD_ENTRIES))
    elif kind == "entry":
        rows[i][j] = data.draw(st.sampled_from([rows[i][j][:1], rows[i][j] + [0.0], 0.5, "ab",
                                                ["1", 10**25], [10**25, None], [2**70, 0]]))
    elif kind == "row":
        rows[i] = data.draw(st.sampled_from([rows[i][:-1], rows[i] + rows[i][:1], [], 1.0]))
    try:
        elements = {tuple(map(ser._parse_label, key.split(","))):
                    oracles.matrix_from_json_per_entry(m) for key, m in doc["elements"].items()}
        sizes = {f"n_{axis}": n for axis, n in doc["alphabets"].items()}
        expected = CONTAINERS[scenario](elements, **sizes)
    except Exception:  # then the file is a schema error: exit 2 and one JSON line
        with open(matrix_file, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["validate", matrix_file]) == 2
        assert json.loads(err.getvalue())["exit_code"] == 2
    else:
        got = ser.assemblage_from_json(doc)
        assert got.elements.keys() == expected.elements.keys()
        assert got.stack.tobytes() == expected.stack.tobytes()


def _operator_block(rng, labels, dim):
    """{key text: rows} of random Hermitian matrices over the full product of ``labels``, in
    shuffled key order."""
    table = oracles.shuffled_table(rng, labels, lambda: random_hermitian(rng, dim))
    return {",".join(map(ser._label, key)): ser.matrix_to_json(m) for key, m in table.items()}


def _random_doc(data, rng, kinds=("assemblage", "epr", "bell", "table"), scenarios=tuple(SPECS)):
    """A document of one of ``kinds`` in one of ``scenarios``, its keyed blocks over drawn
    alphabets, and those blocks."""
    kind = data.draw(st.sampled_from(kinds))
    protocols = [name for name, spec in SPECS.items() if spec.layout]
    scenario = data.draw(st.sampled_from([name for name in (
        [*SPECS] if kind == "assemblage" else protocols) if name in scenarios]))
    spec, n = SPECS[scenario], data.draw(st.integers(1, 2))
    if kind in ("assemblage", "epr"):
        labels = random_slice_labels(rng, scenario, n)[:len(spec.axes)] if spec.layout else [
            (0, 1), (1, 2, 3, 4)]  # standard: four settings, not the default three
        dim = {"bwi": 2**n, "mdi": 2, "channel": 4, "standard": 2}[scenario]
        block = _operator_block(rng, labels, dim)
        if kind == "epr":
            return {"scenario": scenario, "form": "epr", "operators": block,
                    "bounds": {"classical": 1.5}}, [block]
        declared = {axis: len(axis_labels) + data.draw(st.integers(0, 1))  # oversized by one
                    for axis, axis_labels in zip(spec.axes, labels)}
        return {"scenario": scenario, "alphabets": declared, "elements": block}, [block]
    labels = random_slice_labels(rng, scenario, n)
    if kind == "bell":
        names = spec.slice_axes
        block = _block(rng, labels, ",".join(names), names)
        return {"scenario": scenario, "form": "bell", "n": n, "coefficients": block}, [block]
    selftest = {name: _block(rng, [(0, 1), (0, 1), (1, 2, 3, 4), (1, 2, 3)], *ser._SELFTEST)
                for name in data.draw(st.sampled_from([["bc"], ["bc", "bd"], []]))}
    block = _block(rng, labels, spec.layout, spec.slice_axes)
    return {"scenario": scenario, "slice": block, "selftest": selftest, "meta": {"r": 0.5}}, [
        block, *selftest.values()]


def _mutate_block(data, block):
    """One drawn change to a keyed block: a key dropped, renamed, aliased or broken, or a value,
    a matrix entry or a matrix shape broken."""
    kind = data.draw(st.sampled_from(["drop", "alias", "rename", "label", "field-count",
                                      "mixed-labels", "value", "entry", "shape"]))
    key = data.draw(st.sampled_from(list(block)))
    fields = key.replace("|", ",|,").split(",")
    i = data.draw(st.sampled_from([i for i, field in enumerate(fields) if field not in ("|", "*")]))
    value = block[key]
    if kind == "drop":
        del block[key]
    elif kind in ("alias", "rename", "label", "mixed-labels"):
        fields[i] = {"alias": "0" + fields[i], "rename": f" {fields[i]}",
                     "mixed-labels": fields[i] + ".1" if "." not in fields[i] else "1"}.get(
            kind) or data.draw(st.sampled_from(_BAD_LABELS))
        text = ",".join(fields).replace(",|,", "|")
        if kind != "alias":  # an alias is a second key text for the same key
            del block[key]
        block[text] = value
    elif kind == "field-count":
        del block[key]
        block[",".join(data.draw(st.sampled_from([fields[:-1], fields + ["0"]])))] = value
    elif not isinstance(value, list):  # a probability or a coefficient
        block[key] = data.draw(st.sampled_from([*_BAD_VALUES, -0.0, 1e-320, 1e300]))
    elif kind == "entry":
        row = data.draw(st.integers(0, len(value) - 1))
        value[row][data.draw(st.integers(0, len(value) - 1))] = data.draw(st.sampled_from(
            [[entry, 0.0] for entry in _BAD_ENTRIES] + [[1.0, 1.0], [True, 0.0], [10**25, 0]]))
    else:  # a matrix of another size, or every matrix of one non-square shape
        if data.draw(st.booleans()):
            block[key] = value[:-1] if len(value) > 1 else value + value
        else:
            for k in block:
                block[k] = [row[:-1] + [row[0]] * 2 for row in block[k]]


def _loaded(load, doc):
    """What ``load`` makes of ``doc``: every key order, label, array's bytes and read-only
    flag, or the type and message of the exception it raises."""
    try:
        obj = load(copy.deepcopy(doc))
    except Exception as exc:
        return type(exc), str(exc)
    out = [type(obj), obj.scenario]
    if isinstance(obj, Assemblage):
        out += [repr(list(obj.elements)), obj.sizes, obj.stack.tobytes()]  # elements: its rows
        try:  # the grid that validate and the simulators read
            labels, grid = obj.grid
            out += [repr(labels), grid.tobytes(), grid.flags.writeable]
        except Exception as exc:
            out.append((type(exc), str(exc)))
        return out
    if isinstance(obj, EPRFunctional):
        return out + [repr(list(obj.operators)), repr(obj.labels), obj.grid.tobytes(),
                      obj.stack.tobytes(), obj.grid.flags.writeable, repr(obj.bounds)]
    blocks = [obj.xi] if isinstance(obj, BellCoefficients) else [obj.slice, *obj.selftest.values()]
    out += [repr(getattr(obj, "n", None)), repr(getattr(obj, "meta", None)),
            list(getattr(obj, "selftest", {}))]
    return out + [(repr(b.labels), b.grid.tobytes(), b.grid.flags.writeable) for b in blocks]


_LOADERS = {"assemblage": (ser.assemblage_from_json, oracles.assemblage_from_json_per_key),
            "epr": (ser.functional_from_json, oracles.functional_from_json_per_key),
            "bell": (ser.functional_from_json, oracles.functional_from_json_per_key),
            "table": (ser.table_from_json, oracles.table_from_json_per_key)}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loaders_match_the_per_key_loaders(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    doc, blocks = _random_doc(data, rng)
    for _ in range(data.draw(st.integers(0, 2))):
        block = data.draw(st.sampled_from(blocks))
        if block:
            _mutate_block(data, block)
    kind = doc.get("form", "table" if "slice" in doc else "assemblage")
    load, per_key = _LOADERS[kind]
    assert _loaded(load, doc) == _loaded(per_key, doc)


def _grid_blocks(doc: dict) -> list:
    """Each block of ``doc`` that its loader reads onto a grid, with its layout, label names
    and reader: the arguments of ``ser._grid``."""
    spec = SPECS[doc["scenario"]]
    if "slice" in doc:
        return [(doc["slice"], spec.layout, spec.slice_axes, ser._numbers),
                *[(block, *ser._SELFTEST, ser._numbers) for block in doc["selftest"].values()]]
    if doc.get("form") == "bell":
        return [(doc["coefficients"], ",".join(spec.slice_axes), spec.slice_axes, ser._numbers)]
    block = doc["operators" if "form" in doc else "elements"]
    return [(block, ",".join(spec.axes), spec.axes, ser._matrices)]


def _grid_read(grid) -> tuple | None:
    """A ``_grid`` result as comparable values: its labels, and its values' shape and bytes."""
    return grid and (repr(grid[0]), grid[1].shape, grid[1].dtype, grid[1].tobytes())


def _other_values(value):
    """Another probability or coefficient 1 - p, or the negated matrix, which is as
    Hermitian."""
    if isinstance(value, float):
        return 1.0 - value
    return [[[-re, -im] for re, im in row] for row in value]


def _alter(data, block: dict, layout: str):
    """Drop one drawn key of ``block``, or alter one of its fixed fields (a ``0``, ``*`` or
    ``|`` of ``layout``)."""
    key = data.draw(st.sampled_from(sorted(block)))
    pattern = layout.replace("|", ",|,").split(",")
    fixed = [i for i, field in enumerate(pattern) if not field.isalpha()]
    value = block.pop(key)
    if fixed and data.draw(st.booleans()):  # altered, else dropped
        fields = key.replace("|", ",|,").split(",")
        i = data.draw(st.sampled_from(fixed))
        fields[i] = data.draw(st.sampled_from([field for field in ["0", "1", "*", "|", "x", ""]
                                               if field != pattern[i]]))
        block[",".join(fields).replace(",|,", "|")] = value


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_key_layouts_are_parsed_once_per_key_list(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    doc, _ = _random_doc(data, rng, ("assemblage", "epr", "bell", "table"),
                         ("bwi", "mdi", "channel"))
    other = copy.deepcopy(doc)  # the same keys, in the same order, with other values
    for block, *_ in _grid_blocks(other):
        block.update((key, _other_values(value)) for key, value in block.items())
    load, per_key = _LOADERS[doc.get("form", "table" if "slice" in doc else "assemblage")]
    assert _loaded(load, doc) == _loaded(per_key, doc)
    hits = ser._layout.cache_info().hits
    with mock.patch.object(assemblages, "product_grid", side_effect=AssertionError), \
            mock.patch.object(functionals, "product_grid", side_effect=AssertionError):
        loaded = _loaded(load, other)  # each block on its grid: no dict put on one again
    assert loaded == _loaded(per_key, other)
    assert ser._layout.cache_info().hits >= hits + len(_grid_blocks(other))  # none parsed again
    reads = [[_grid_read(ser._grid(*how)) for how in _grid_blocks(d)] for d in (doc, other)]
    for d, read in zip((doc, other), reads):
        assert read == [_grid_read(oracles.grid_parsed_per_read(*how)) for how in _grid_blocks(d)]
    assert None not in reads[0]
    assert all(a[:3] == b[:3] and a[3] != b[3] for a, b in zip(*reads))  # each its own values
    for i in range(len(reads[0])):  # a key dropped or a fixed field altered: read as uncached
        altered = copy.deepcopy(doc)
        block, layout, names, read = _grid_blocks(altered)[i]
        _alter(data, block, layout)
        assert _grid_read(ser._grid(block, layout, names, read)) == _grid_read(
            oracles.grid_parsed_per_read(block, layout, names, read))
        assert _loaded(load, altered) == _loaded(per_key, altered)
