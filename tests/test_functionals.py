import itertools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eprkit import linalg as la
from eprkit.functionals import (
    SCENARIOS,
    BellCoefficients,
    EPRFunctional,
    bell_from_epr,
    decompose,
    evaluate_bell,
    evaluate_epr,
    projector_strings,
    single_qubit_labels,
    sparse_single_qubit_coefficients,
)
from eprkit.assemblages import SPECS
from eprkit.protocol import CorrelationTable
from oracles import (
    bell_from_epr_per_key,
    evaluate_bell_per_key,
    evaluate_epr_per_key,
    proj,
    random_hermitian,
    random_slice_labels,
    reconstruct,
    shifted,
    shuffled_table,
)
import eprkit.catalog as catalog


def test_decompose_identity():
    table = decompose(la.I2)
    assert all(np.isclose(v, 1 / 3) for v in table.values())
    assert len(table) == 6


def test_decompose_projector():
    table = decompose(proj(0, 1))
    assert np.isclose(table[(0, 1)], 2 / 3)
    assert np.isclose(table[(1, 1)], -1 / 3)
    for w in (2, 3):
        assert np.isclose(table[(0, w)], 1 / 6)
        assert np.isclose(table[(1, w)], 1 / 6)


def test_decompose_ptp_operator():
    f = (la.I2 - la.PAULI_X) / 2
    table = decompose(f)
    # The dominant entry sits at the label the sparse table puts weight 1 on.
    dominant = max(table, key=lambda k: abs(table[k]))
    assert dominant == (1, 2)
    assert np.max(np.abs(reconstruct(table) - f)) < 1e-15


def test_reconstruct_uniform_and_zero():
    uniform = {(c, w): 1 / 3 for c in (0, 1) for w in (1, 2, 3)}
    assert np.allclose(reconstruct(uniform), la.I2)
    zero = {(c, w): 0.0 for c in (0, 1) for w in (1, 2, 3)}
    assert np.allclose(reconstruct(zero), 0)


def test_round_trip_two_qubits():
    zz = la.tensor(la.PAULI_Z, la.PAULI_Z)
    assert np.max(np.abs(reconstruct(decompose(zz), 2) - zz)) < 1e-10


def test_decompose_rejects_bad_dimension():
    with pytest.raises(ValueError):
        decompose(np.eye(3))


def test_reconstruct_rejects_missing_labels():
    with pytest.raises(ValueError):
        reconstruct({(0, 1): 1.0})


@pytest.mark.parametrize("n", [1, 2])
def test_round_trip_seeded_batch(n):
    for seed in range(500):
        f = random_hermitian(np.random.default_rng(seed), 2**n)
        assert np.max(np.abs(reconstruct(decompose(f), n) - f)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_decompose_matches_factorwise_rule(n):
    # xi[labels] = sum over Pauli strings s of tr[f P_s] / 2^n times, per qubit,
    # 1/3 for the identity and (-1)^c [w = s] otherwise.
    paulis = [la.I2, la.PAULI_Z, la.PAULI_X, la.PAULI_Y]
    for seed in range(20):
        f = random_hermitian(np.random.default_rng(seed), 2**n)
        table = decompose(f)
        for key, combo in projector_strings(n):
            expected = 0.0
            for string in itertools.product(range(4), repeat=n):
                coef = np.real(np.trace(f @ la.tensor(*(paulis[s] for s in string)))) / 2**n
                for (c, w), s in zip(combo, string):
                    coef *= 1 / 3 if s == 0 else (-1) ** c * (w == s)
                expected += coef
            assert abs(table[key] - expected) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_sparse_rule_reconstructs(seed):
    f = random_hermitian(np.random.default_rng(seed), 2)
    table = dict(zip(single_qubit_labels(), sparse_single_qubit_coefficients(f)))
    assert np.max(np.abs(reconstruct(table) - f)) < 1e-12


def test_bell_from_epr_zero_is_zero():
    zero = EPRFunctional("bwi", {(a, x, y): np.zeros((2, 2))
                                 for a in (0, 1) for x in (1, 2, 3) for y in (0, 1)})
    table = bell_from_epr(zero)
    assert all(v == 0.0 for v in table.xi.values())


def test_evaluate_epr_zero_functional():
    zero = EPRFunctional("bwi", {(a, x, y): np.zeros((2, 2))
                                 for a in (0, 1) for x in (1, 2, 3) for y in (0, 1)})
    assert evaluate_epr(zero, catalog.ptp_assemblage()) == 0.0


def test_evaluate_epr_scenario_mismatch():
    f = EPRFunctional("mdi", {(0, 0, 1): la.I2})
    with pytest.raises(ValueError):
        evaluate_epr(f, catalog.ptp_assemblage())


@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 2), n_x=st.integers(1, 3),
       n_y=st.integers(1, 2))
def test_evaluate_epr_on_a_sub_grid_matches_per_key_traces(seed, n_a, n_x, n_y):
    from eprkit.assemblages import random_quantum

    assemblage, _ = random_quantum("bwi", seed, {"x": 4, "y": 3})
    rng = np.random.default_rng(seed)
    # A functional on some of the assemblage's labels per axis, keys in shuffled order.
    labels = [sorted(rng.choice(axis, size=k, replace=False))
              for axis, k in zip(assemblage.labels(), (n_a, n_x, n_y))]
    keys = list(itertools.product(*labels))
    f = EPRFunctional("bwi", {keys[i]: random_hermitian(rng, 2)
                              for i in rng.permutation(len(keys))})
    expected = sum(float(np.real(np.trace(op @ assemblage.elements[key])))
                   for key, op in f.operators.items())
    assert abs(evaluate_epr(f, assemblage) - expected) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), scenario=st.sampled_from(["bwi", "mdi", "channel"]),
       data=st.data())
def test_evaluate_epr_takes_the_sub_grid_bit_for_bit_like_the_index_form(seed, scenario, data):
    from eprkit.assemblages import random_quantum

    alphabets = {"bwi": {"x": 4, "y": 3}, "mdi": {"b": 3, "x": 3}, "channel": {"x": 4}}[scenario]
    assemblage, _ = random_quantum(scenario, seed, alphabets)
    rng = np.random.default_rng(seed)
    # The functional's labels: a shuffled subset of each axis, its keys in shuffled order.
    labels = [rng.permutation(axis)[:data.draw(st.integers(1, len(axis)))].tolist()
              for axis in assemblage.labels()]
    keys = list(itertools.product(*labels))
    f = EPRFunctional(scenario, {keys[i]: random_hermitian(rng, assemblage.dim)
                                 for i in rng.permutation(len(keys))})
    assert evaluate_epr(f, assemblage) == evaluate_epr_per_key(f, assemblage)


def test_a_functional_puts_a_stack_in_key_order_on_the_grid_of_its_labels():
    f = catalog.ptp_functional(normalized=True)
    from_stack = EPRFunctional("bwi", (f.labels, f.stack), dict(f.bounds))
    assert from_stack.grid.shape == f.grid.shape and from_stack.grid.tobytes() == f.grid.tobytes()
    assert not from_stack.grid.flags.writeable and list(from_stack.operators) == list(f.operators)
    for labels, grid, counts in [(f.labels, f.stack[:5], (2, 3, 2)),  # too few operators,
                                 (((0, 0), *f.labels[1:]), f.grid, (1, 3, 2))]:  # a label twice
        with pytest.raises(ValueError, match=re.escape(
                f"grid of shape {grid.shape} does not hold one matrix per label tuple of the "
                f"label counts {counts}")):
            EPRFunctional("bwi", (labels, grid))


def test_evaluate_epr_rejects_missing_keys_and_other_dimensions():
    from eprkit.assemblages import random_quantum

    ptp = catalog.ptp_assemblage()
    beyond = EPRFunctional("bwi", {(a, 4, 0): la.I2 for a in (0, 1)})
    with pytest.raises(ValueError, match="no element"):
        evaluate_epr(beyond, ptp)
    two_qubit, _ = random_quantum("bwi", 0, n=2)
    with pytest.raises(ValueError, match="dimension"):
        evaluate_epr(catalog.ptp_functional(), two_qubit)


def test_evaluate_epr_linear_in_assemblage():
    from eprkit.assemblages import BwIAssemblage, random_quantum

    f = catalog.ptp_functional(normalized=True)
    a1 = catalog.ptp_assemblage()
    a2, _ = random_quantum("bwi", 6)
    mix = BwIAssemblage({k: 0.3 * a1.elements[k] + 0.7 * a2.elements[k]
                         for k in a1.elements})
    expected = 0.3 * evaluate_epr(f, a1) + 0.7 * evaluate_epr(f, a2)
    assert abs(evaluate_epr(f, mix) - expected) < 1e-12


def test_evaluate_epr_linear_in_functional():
    ptp = catalog.ptp_assemblage()
    f1 = catalog.ptp_functional()
    f2 = catalog.ptp_functional(normalized=True)
    mixed = EPRFunctional("bwi", {
        k: 0.3 * f1.operators[k] + 0.7 * f2.operators[k] for k in f1.operators
    })
    expected = 0.3 * evaluate_epr(f1, ptp) + 0.7 * evaluate_epr(f2, ptp)
    assert abs(evaluate_epr(mixed, ptp) - expected) < 1e-12


def _uniform_bwi_table(p: float) -> CorrelationTable:
    keys = [(a, x, y, c, w)
            for a in (0, 1) for x in (1, 2, 3) for y in (0, 1)
            for c in (0, 1) for w in (1, 2, 3)]
    return CorrelationTable("bwi", {k: p for k in keys})


def test_evaluate_bell_uniform_table():
    xi = catalog.ptp_bell_coefficients()
    value = evaluate_bell(xi, _uniform_bwi_table(1 / 16))
    assert abs(value - (12 - 4 * catalog.PTP.almost_quantum) / 16) < 1e-12


def test_evaluate_bell_zero_coefficients():
    zero = BellCoefficients("bwi", {k: 0.0 for k in _uniform_bwi_table(0.0).slice})
    assert evaluate_bell(zero, _uniform_bwi_table(0.25 / 6)) == 0.0


def test_evaluate_bell_linearity_in_table():
    xi = catalog.ptp_bell_coefficients()
    t1 = _uniform_bwi_table(1 / 16)
    t2 = _uniform_bwi_table(1 / 36)
    mix = CorrelationTable("bwi", {k: 0.25 * t1.slice[k] + 0.75 * t2.slice[k]
                                   for k in t1.slice})
    expected = 0.25 * evaluate_bell(xi, t1) + 0.75 * evaluate_bell(xi, t2)
    assert abs(evaluate_bell(xi, mix) - expected) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), scenario=st.sampled_from(SCENARIOS),
       n=st.integers(1, 2), xs=st.sets(st.integers(1, 3), min_size=1))
def test_evaluate_bell_matches_per_key_sum(seed, scenario, n, xs):
    rng = np.random.default_rng(seed)
    labels = random_slice_labels(rng, scenario, n)
    axis = SPECS[scenario].axes.index("x")
    labels[axis] = (1, 2, 3)
    table = shuffled_table(rng, labels, rng.uniform)
    # Coefficients on the sub-grid of Alice's settings xs.
    xi = shuffled_table(rng, [*labels[:axis], sorted(xs), *labels[axis + 1:]], rng.normal)
    value = evaluate_bell(BellCoefficients(scenario, xi, n), CorrelationTable(scenario, table))
    assert abs(value - evaluate_bell_per_key(xi, table)) <= 1e-12


def test_evaluate_bell_rejects_labels_the_table_lacks():
    xi = catalog.ptp_bell_coefficients()
    table = CorrelationTable("bwi", {k: p for k, p in _uniform_bwi_table(1 / 16).slice.items()
                                     if k[1] != 3})
    with pytest.raises(ValueError, match="no probability for x = 3"):
        evaluate_bell(xi, table)


def _pauli_sparse_operator(rng, dim):
    """A Hermitian operator whose single-qubit Pauli components are often exactly zero."""
    if dim != 2:
        return random_hermitian(rng, dim)
    weights = rng.normal(size=4) * (rng.uniform(size=4) < 0.6)
    return sum(c * p for c, p in zip(weights, (la.I2, la.PAULI_Z, la.PAULI_X, la.PAULI_Y)))


@given(seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from([("bwi", 2), ("bwi", 4), ("bwi", 8), ("mdi", 2), ("mdi", 4),
                             ("channel", 4)]))
def test_bell_from_epr_matches_per_operator_loop(seed, case):
    scenario, dim = case
    rng = np.random.default_rng(seed)
    labels = random_slice_labels(rng, scenario, 1)[:len(SPECS[scenario].axes)]
    f = EPRFunctional(scenario,
                      shuffled_table(rng, labels, lambda: _pauli_sparse_operator(rng, dim)))
    got, expected = dict(bell_from_epr(f).xi), bell_from_epr_per_key(f)
    assert list(got) == sorted(expected)
    assert max(abs(got[key] - v) for key, v in expected.items()) <= 1e-12


def test_evaluate_bell_missing_entries():
    xi = catalog.ptp_bell_coefficients()
    table = _uniform_bwi_table(1 / 16)
    partial = dict(table.slice)
    partial.popitem()
    with pytest.raises(ValueError):
        evaluate_bell(xi, CorrelationTable("bwi", partial))


def test_functional_rejects_non_hermitian_operator():
    with pytest.raises(ValueError):
        EPRFunctional("bwi", {(0, 1, 0): np.array([[0, 1], [0, 0]])})


def test_bell_coefficients_reject_non_finite():
    with pytest.raises(ValueError):
        BellCoefficients("bwi", {(0, 1, 0, 0, 1): np.inf})


@pytest.mark.parametrize("n", [0, -1, True, 1.0, np.inf, "1"])
def test_bell_coefficients_reject_non_positive_integer_qubit_counts(n):
    with pytest.raises(ValueError):
        BellCoefficients("bwi", {(0, 1, 0, 0, 1): 1.0}, n)


@pytest.mark.parametrize("scenario, key, n", [
    ("bwi", (0, 1, 0, 0, 1), 2),  # one-qubit c/w labels under n = 2
    ("bwi", (0, 1, 0, (0, 1), (1, 2)), 1),  # two-qubit labels under n = 1
    ("bwi", (0, 1, 0, (0, 1, 0), (1, 2, 3)), 2),
    ("mdi", (0, 1, 1, 0), 1),  # a label short
    ("channel", (0, 1, 0, 1, 2, 3, 1), 1),  # a label too many
])
def test_bell_coefficients_reject_keys_of_another_qubit_count(scenario, key, n):
    with pytest.raises(ValueError, match="qubit labels"):
        BellCoefficients(scenario, {key: 1.0}, n)


def test_bell_coefficients_accept_the_labels_bell_from_epr_writes():
    rng = np.random.default_rng(2)
    for dim, n in ((2, 1), (4, 2), (8, 3)):
        f = EPRFunctional("bwi", {(a, x, 0): random_hermitian(rng, dim)
                                  for a in (0, 1) for x in (1, 2)})
        assert bell_from_epr(f).n == n


def test_normalized_ptp_nonnegative_on_quantum_assemblages():
    from eprkit.assemblages import random_quantum

    f = catalog.ptp_functional(normalized=True)
    for seed in range(50):
        assemblage, _ = random_quantum("bwi", seed)
        assert evaluate_epr(f, assemblage) >= -1e-7


def test_shifted_adds_identity():
    f = catalog.ptp_functional()
    g = shifted(f, -0.5)
    for k in f.operators:
        assert np.allclose(g.operators[k], f.operators[k] - 0.5 * la.I2)
