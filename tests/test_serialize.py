import json

import numpy as np
import pytest

from eprkit import catalog
from eprkit import linalg as la
from eprkit import serialize as ser
from eprkit.assemblages import SPECS, random_quantum
from eprkit.functionals import bell_from_epr
from eprkit.protocol import make_resource, simulate, simulate_bwi
from oracles import random_hermitian


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
    from eprkit.functionals import EPRFunctional
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
