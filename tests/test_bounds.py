import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eprkit import catalog
from eprkit import linalg as la
from eprkit.bounds import (
    SELFTEST_MAX,
    classical_bound,
    ns_lower_bound,
    seesaw_quantum,
    selftest_value,
)
from eprkit.functionals import EPRFunctional

EXACT_CLASSICAL = 3 - np.sqrt(3)


def _random_bwi_functional(seed: int, scale: float = 1.0) -> EPRFunctional:
    rng = np.random.default_rng(seed)
    return EPRFunctional("bwi", {
        (a, x, y): scale * la.random_hermitian(rng, 2)
        for a in (0, 1) for x in (1, 2, 3) for y in (0, 1)
    })


def _constant_functional(op) -> EPRFunctional:
    return EPRFunctional("bwi", {
        (a, x, y): op for a in (0, 1) for x in (1, 2, 3) for y in (0, 1)
    })


def test_classical_bound_ptp_raw():
    report = classical_bound(catalog.ptp_functional())
    assert abs(report.value - EXACT_CLASSICAL) < 1e-10
    assert abs(report.value - catalog.PTP.classical) < 5e-5
    witness_value = sum(la.min_eigenvalue(g) for g in report.witness.operators.values())
    assert abs(witness_value - report.value) < 1e-10


def test_classical_bound_ptp_normalized():
    report = classical_bound(catalog.ptp_functional(normalized=True))
    assert abs(report.value - (EXACT_CLASSICAL - catalog.PTP.almost_quantum)) < 1e-10


def test_classical_bound_zero_functional():
    report = classical_bound(_constant_functional(np.zeros((2, 2))))
    assert report.value == 0.0


def test_classical_bound_identity_shift_covariance():
    f = _random_bwi_functional(3)
    base = classical_bound(f).value
    for c in (-0.7, 0.31):
        shifted = classical_bound(f.shifted(c)).value
        assert abs(shifted - (base + c * 6)) < 1e-10  # |X| |Y| = 6


def test_classical_bound_enumeration_guard():
    ops = {(a, x, 0): la.I2 for a in (0, 1) for x in range(1, 22)}
    with pytest.raises(ValueError):
        classical_bound(EPRFunctional("bwi", ops))


def test_ns_lower_bound_ptp():
    report = ns_lower_bound(catalog.ptp_functional())
    assert abs(report.value) < 1e-12
    assert not report.guaranteed_tight


def test_ns_lower_bound_identity_family():
    report = ns_lower_bound(_constant_functional(la.I2))
    assert abs(report.value - 6) < 1e-12


def test_ns_lower_bound_negative_definite_operator():
    ops = {(a, x, y): la.proj(0, 1) for a in (0, 1) for x in (1, 2, 3) for y in (0, 1)}
    ops[(0, 1, 0)] = -np.eye(2)
    report = ns_lower_bound(EPRFunctional("bwi", ops))
    assert report.value < 0


def test_ns_below_classical_on_seeded_functionals():
    for seed in range(20):
        f = _random_bwi_functional(seed)
        assert ns_lower_bound(f).value <= classical_bound(f).value + 1e-12


def test_seesaw_bracket_on_normalized_ptp():
    report = seesaw_quantum(catalog.ptp_functional(normalized=True), seed=0, restarts=50)
    raw_scale = report.value + catalog.PTP.almost_quantum
    assert 0.4134 <= raw_scale <= 1.2680
    assert report.witness is not None


def test_seesaw_zero_functional():
    report = seesaw_quantum(_constant_functional(np.zeros((2, 2))), seed=0, restarts=2)
    assert abs(report.value) < 1e-12


def test_seesaw_identity_family():
    report = seesaw_quantum(_constant_functional(la.I2), seed=0, restarts=2)
    assert abs(report.value - 6) < 1e-10


def test_seesaw_trace_monotone_and_above_ns():
    for seed in range(5):
        f = _random_bwi_functional(seed)
        report = seesaw_quantum(f, seed=seed, restarts=3)
        trace = report.trace
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))
        assert report.value >= ns_lower_bound(f).value - 1e-9


def test_seesaw_rejects_non_binary_alice():
    ops = {(a, x, 0): la.I2 for a in (0, 1, 2) for x in (1, 2)}
    with pytest.raises(ValueError):
        seesaw_quantum(EPRFunctional("bwi", ops), restarts=1)


def test_seesaw_witness_reproduces_value():
    from eprkit.assemblages import realize_bwi
    from eprkit.functionals import evaluate_epr

    f = catalog.ptp_functional(normalized=True)
    report = seesaw_quantum(f, seed=1, restarts=10)
    achieved = evaluate_epr(f, realize_bwi(report.witness))
    assert abs(achieved - report.value) < 1e-9


def test_selftest_value_canonical():
    value = selftest_value(catalog.canonical_selftest_marginal())
    assert abs(value - SELFTEST_MAX) < 1e-9


def test_selftest_value_uniform_is_zero():
    uniform = {key: 0.25 for key in itertools.product((0, 1), (0, 1), (1, 2, 3, 4), (1, 2, 3))}
    assert selftest_value(uniform) == 0.0


def test_selftest_value_unsteered_resource_is_zero():
    # Product resource sigma_{c|w} = rho / 2: Charlie's outcome is a coin flip.
    rho = la.random_density(np.random.default_rng(5), 2)
    marginal = {}
    for z, obs in catalog.selftest_observables().items():
        projs = la.observable_projectors(obs)
        for w, b, c in itertools.product((1, 2, 3), (0, 1), (0, 1)):
            marginal[(b, c, z, w)] = float(np.real(np.trace(projs[b] @ rho / 2)))
    assert abs(selftest_value(marginal)) < 1e-12


def test_selftest_value_perfect_correlation_is_zero():
    # All correlators +1: each coefficient row sums to zero.
    table = {}
    for b, c, z, w in itertools.product((0, 1), (0, 1), (1, 2, 3, 4), (1, 2, 3)):
        table[(b, c, z, w)] = 0.5 if b == c else 0.0
    assert abs(selftest_value(table)) < 1e-12


def test_selftest_value_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        table = {}
        for z, w in itertools.product((1, 2, 3, 4), (1, 2, 3)):
            p = rng.dirichlet(np.ones(4))
            for i, (b, c) in enumerate(itertools.product((0, 1), (0, 1))):
                table[(b, c, z, w)] = p[i]
        assert -12 <= selftest_value(table) <= 12


def test_selftest_value_missing_entries():
    with pytest.raises(ValueError):
        selftest_value({(0, 0, 1, 1): 1.0})


def test_selftest_flipped_observable_drops_by_column():
    # Flipping the fourth observable flips its three correlators.
    marginal = dict(catalog.canonical_selftest_marginal())
    for b, c, w in itertools.product((0, 1), (0, 1), (1, 2, 3)):
        marginal[(b, c, 4, w)] = catalog.canonical_selftest_marginal()[(1 - b, c, 4, w)]
    value = selftest_value(marginal)
    assert abs(value - (SELFTEST_MAX - 2 * np.sqrt(3))) < 1e-9


def _reference_classical(f):
    """Value and response of the first minimising strategy, one operator at a time."""
    a_vals, x_vals, y_vals = f.labels()
    best_value, best = np.inf, None
    for choices in itertools.product(a_vals, repeat=len(x_vals)):
        response = dict(zip(x_vals, choices))
        value = sum(la.min_eigenvalue(sum(f.operators[(response[x], x, y)] for x in x_vals))
                    for y in y_vals)
        if value < best_value:
            best_value, best = value, response
    return best_value, best


def _reference_ns(f):
    a_vals, x_vals, y_vals = f.labels()
    return sum(min(la.min_eigenvalue(f.operators[(a, x, y)]) for a in a_vals)
               for x in x_vals for y in y_vals)


def _check_bounds_against_loops(f):
    report = classical_bound(f)
    value, response = _reference_classical(f)
    assert abs(report.value - value) <= 1e-12
    assert report.witness.response == response
    for y, g in report.witness.operators.items():
        expected = sum(f.operators[(a, x, y)] for x, a in response.items())
        assert np.max(np.abs(g - expected)) <= 1e-12
    assert abs(ns_lower_bound(f).value - _reference_ns(f)) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 3), n_x=st.integers(1, 5),
       n_y=st.integers(1, 3), dim=st.sampled_from([2, 4]))
def test_bounds_match_per_key_loops(seed, n_a, n_x, n_y, dim):
    rng = np.random.default_rng(seed)
    keys = list(itertools.product(range(n_a), range(1, n_x + 1), range(n_y)))
    ops = {keys[i]: la.random_hermitian(rng, dim) for i in rng.permutation(len(keys))}
    _check_bounds_against_loops(EPRFunctional("bwi", ops))


@pytest.mark.parametrize("normalized", [False, True])
def test_bounds_match_per_key_loops_on_ptp(normalized):
    _check_bounds_against_loops(catalog.ptp_functional(normalized=normalized))
