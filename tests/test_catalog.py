import copy
import itertools
import math

import numpy as np
import pytest

from eprkit import catalog
from eprkit import linalg as la
from eprkit.assemblages import BwIAssemblage, random_quantum, validate
from eprkit.bounds import SELFTEST_MAX, selftest_value
from eprkit.functionals import bell_from_epr, evaluate_epr
from oracles import (mdi_ptp_probabilities_per_key, partial_trace, selftest_marginal_per_entry,
                     steering_effect)


def test_constants_consistency():
    assert abs(catalog.PTP.classical_exact - catalog.PTP.classical) < 5e-5


def test_ptp_assemblage_spot_elements():
    ptp = catalog.ptp_assemblage()
    assert np.allclose(ptp.elements[(0, 1, 0)], (la.I2 + la.PAULI_X) / 4)
    assert np.allclose(ptp.elements[(0, 2, 1)], (la.I2 - la.PAULI_Y) / 4)
    assert np.allclose(ptp.elements[(0, 3, 1)], (la.I2 + la.PAULI_Z) / 4)


def test_ptp_elements_are_transposed_pairs():
    ptp = catalog.ptp_assemblage()
    for a, x in itertools.product((0, 1), (1, 2, 3)):
        assert np.allclose(ptp.elements[(a, x, 1)], ptp.elements[(a, x, 0)].T)


def test_ptp_functional_spot_operators():
    f = catalog.ptp_functional()
    assert np.allclose(f.operators[(0, 1, 0)], (la.I2 - la.PAULI_X) / 2)
    assert np.allclose(f.operators[(0, 2, 1)], (la.I2 + la.PAULI_Y) / 2)
    f_norm = catalog.ptp_functional(normalized=True)
    shift = catalog.PTP.almost_quantum / 6
    assert np.allclose(f_norm.operators[(0, 1, 0)], (la.I2 - la.PAULI_X) / 2 - shift * la.I2)
    assert abs(shift - 0.068917) < 1e-6


def test_ptp_functional_operators_are_transposed_pairs():
    f = catalog.ptp_functional()
    for a, x in itertools.product((0, 1), (1, 2, 3)):
        assert np.allclose(f.operators[(a, x, 1)], f.operators[(a, x, 0)].T)


def test_ptp_saturation_term_by_term():
    # Brute-force oracle: every single trace tr(F sigma) vanishes.
    ptp = catalog.ptp_assemblage()
    f = catalog.ptp_functional()
    for key in f.operators:
        term = np.trace(f.operators[key] @ ptp.elements[key])
        assert abs(term) < 1e-15
    assert abs(evaluate_epr(f, ptp)) < 1e-12


def test_additive_exponent_reading_gives_four():
    # The a + [x=2] + [y=1] reading of the sign exponent does not null the paired functional.
    elements = {(a, x, y): (la.I2 + (-1) ** (a + (x == 2) + (y == 1)) * catalog.ALICE_PAULI[x]) / 4
                for a, x, y in itertools.product(*catalog.PTP_LABELS)}
    value = evaluate_epr(catalog.ptp_functional(), BwIAssemblage(elements))
    assert abs(value - 4.0) < 1e-12


def test_normalized_functional_value():
    value = evaluate_epr(catalog.ptp_functional(normalized=True), catalog.ptp_assemblage())
    assert abs(value - (-catalog.PTP.almost_quantum)) < 1e-12


def test_bell_coefficients_spot_values():
    xi = catalog.ptp_bell_coefficients()
    assert abs(xi.xi[(0, 1, 0, 1, 2)] - 1.0) < 1e-12
    assert abs(xi.xi[(0, 1, 0, 0, 1)] - (-catalog.PTP.almost_quantum / 6)) < 1e-12
    assert abs(xi.xi[(0, 2, 1, 0, 3)] - 1.0) < 1e-12


def test_bell_coefficients_match_functional_decomposition():
    xi = catalog.ptp_bell_coefficients()
    derived = bell_from_epr(catalog.ptp_functional(normalized=True))
    assert set(xi.xi) == set(derived.xi)
    for key in xi.xi:
        assert abs(xi.xi[key] - derived.xi[key]) < 1e-12


def test_selftest_observables():
    obs = catalog.selftest_observables()
    sqrt3 = math.sqrt(3)
    assert np.allclose(obs[1], (la.PAULI_Z + la.PAULI_X - la.PAULI_Y) / sqrt3)
    assert np.allclose(obs[2], (la.PAULI_Z - la.PAULI_X + la.PAULI_Y) / sqrt3)
    assert np.allclose(obs[3], (-la.PAULI_Z + la.PAULI_X + la.PAULI_Y) / sqrt3)
    assert np.allclose(obs[4], (-la.PAULI_Z - la.PAULI_X - la.PAULI_Y) / sqrt3)
    for o in obs.values():
        assert np.allclose(o @ o, la.I2)  # unit Bloch vector


def test_canonical_strategy_correlator():
    marginal = catalog.canonical_selftest_marginal()
    c1b1 = sum((-1) ** (b + c) * marginal[(b, c, 1, 1)] for b in (0, 1) for c in (0, 1))
    assert abs(c1b1 - 1 / math.sqrt(3)) < 1e-12
    assert abs(c1b1 - 0.57735027) < 1e-8


def test_canonical_strategy_saturates():
    marginal = catalog.canonical_selftest_marginal()
    assert abs(selftest_value(marginal) - SELFTEST_MAX) < 1e-9
    # Conditional marginals are normalised per setting pair.
    for z, w in itertools.product((1, 2, 3, 4), (1, 2, 3)):
        total = sum(marginal[(b, c, z, w)] for b in (0, 1) for c in (0, 1))
        assert abs(total - 1) < 1e-12


def test_canonical_marginal_matches_the_per_entry_traces():
    marginal = catalog.canonical_selftest_marginal()
    assert marginal.labels == catalog.SELFTEST_LABELS
    assert marginal.grid.tobytes() == selftest_marginal_per_entry().tobytes()


def test_canonical_strategy_assemblage_validates():
    resource, observables = catalog.canonical_resource_assemblage(), catalog.selftest_observables()
    assert validate(resource).passed
    assert set(observables) == {1, 2, 3, 4}


def test_resource_effect_transpose_relation():
    # sigma_tilde = (steering effect)^T / 2 reconciles the two published forms.
    for c, w in itertools.product((0, 1), (1, 2, 3)):
        assert np.allclose(catalog.sigma_tilde(c, w), steering_effect(c, w).T / 2)


def test_mdi_ptp_spot_probabilities():
    table = catalog.mdi_ptp_probabilities()
    assert abs(table[(0, 0, 2, 0)]) < 1e-12
    assert abs(table[(1, 0, 2, 0)] - 1 / 3) < 1e-12


def test_mdi_ptp_normalisation():
    table = catalog.mdi_ptp_probabilities()
    for x, y in itertools.product((1, 2, 3), (0, 1)):
        total = sum(table[(a, b, x, y)] for a in (0, 1) for b in (0, 1))
        assert abs(total - 1) < 1e-12


def test_mdi_ptp_dual_form_equality():
    direct = catalog.mdi_ptp_probabilities(method="controlled-transpose")
    dual = catalog.mdi_ptp_probabilities(method="transposed-measurement")
    assert set(direct) == set(dual)
    for key in direct:
        assert abs(direct[key] - dual[key]) < 1e-12


def test_embedded_channel_assemblage_validates():
    assemblage, functional = catalog.embedded_ptp_channel()
    rep = validate(assemblage)
    assert rep.passed
    for j in assemblage.elements.values():
        reduced = partial_trace(j, [2, 2], 0)
        assert np.allclose(reduced, la.I2 / 4, atol=1e-12)


def test_embedded_channel_functional_value():
    assemblage, functional = catalog.embedded_ptp_channel()
    assert catalog.embedded_ptp_channel() is catalog.embedded_ptp_channel()  # built once
    value = evaluate_epr(functional, assemblage)
    assert abs(value - (-catalog.PTP.almost_quantum)) < 1e-4


def test_embedded_quantum_assemblage_stays_nonnegative():
    _, functional = catalog.embedded_ptp_channel()
    for seed in range(25):
        bwi, _ = random_quantum("bwi", seed)
        embedded = catalog.embed_bwi_in_channel(bwi)
        assert validate(embedded).passed
        assert evaluate_epr(functional, embedded) >= -1e-7


def test_ptp_catalog_objects_are_built_once_and_read_only():
    assemblage, f_raw = catalog.ptp_assemblage(), catalog.ptp_functional()
    f_norm = catalog.ptp_functional(normalized=True)
    assert catalog.ptp_assemblage() is assemblage
    assert catalog.ptp_functional(beta_aq=catalog.PTP.almost_quantum) is f_raw
    assert catalog.ptp_functional(True, catalog.PTP.almost_quantum) is f_norm
    fresh = catalog._ptp_functional.__wrapped__(True, catalog.PTP.almost_quantum)
    for mapping in (assemblage.elements, f_raw.operators, f_norm.operators, f_norm.bounds):
        key = next(iter(mapping))
        for write in (lambda: mapping.__setitem__(key, 0.0), lambda: mapping.__delitem__(key),
                      lambda: mapping.update({key: 0.0}), lambda: mapping.pop(key),
                      lambda: mapping.setdefault((9,), 0.0), mapping.popitem, mapping.clear):
            with pytest.raises(TypeError, match="read-only"):
                write()
    for array in (assemblage.stack, assemblage.grid[1], assemblage.elements[(0, 1, 0)],
                  f_norm.stack, f_norm.grid, f_norm.operators[(0, 1, 0)]):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    copied = copy.deepcopy(f_norm.bounds)  # a copy is built whole, not filled in
    assert type(copied) is type(f_norm.bounds) and copied == f_norm.bounds
    # Every write failed, so the shared objects still equal freshly built ones.
    assert catalog.ptp_functional(normalized=True).bounds == fresh.bounds
    assert np.array_equal(catalog.ptp_functional(normalized=True).stack, fresh.stack)
    assert len(assemblage.elements) == 12 and f_norm.operators.keys() == fresh.operators.keys()


def test_ptp_functionals_at_other_constants_are_not_kept():
    before = catalog._ptp_functional.cache_info().currsize
    for beta in (2.0, 0.5, -1.0):
        f = catalog.ptp_functional(normalized=True, beta_aq=beta)
        assert f is not catalog.ptp_functional(normalized=True, beta_aq=beta)
        assert f.bounds["almost_quantum"] == 0.0
        assert catalog.ptp_functional(beta_aq=beta).bounds["almost_quantum"] == beta
    assert catalog._ptp_functional.cache_info().currsize == before <= 2
    with pytest.raises(ValueError, match="finite"):
        catalog.ptp_functional(beta_aq=float("nan"))


@pytest.mark.parametrize("method", ["transposed-measurement", "controlled-transpose"])
def test_mdi_ptp_probabilities_match_the_per_key_loop(method):
    got, expected = catalog.mdi_ptp_probabilities(method), mdi_ptp_probabilities_per_key(method)
    assert list(got) == list(expected)
    assert max(abs(got[key] - p) for key, p in expected.items()) <= 1e-15
