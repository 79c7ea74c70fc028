import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eprkit import catalog
from eprkit import linalg as la
from eprkit.bounds import (
    _CHUNK,
    _SCREENED,
    SELFTEST_MAX,
    _initial_effects,
    _nonpositive_projector,
    _strategy_chunks,
    classical_bound,
    ns_lower_bound,
    seesaw_quantum,
    selftest_value,
)
from eprkit.functionals import EPRFunctional
from oracles import (classical_bound_lapack, min_eigenvalue, nonpositive_projector, partial_trace,
                     proj, random_density, random_hermitian, random_projective_povm,
                     random_unitary, shifted)

EXACT_CLASSICAL = 3 - np.sqrt(3)


def _random_bwi_functional(seed: int, scale: float = 1.0) -> EPRFunctional:
    rng = np.random.default_rng(seed)
    return EPRFunctional("bwi", {
        (a, x, y): scale * random_hermitian(rng, 2)
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
    witness_value = sum(min_eigenvalue(g) for g in report.witness.operators.values())
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
        value = classical_bound(shifted(f, c)).value
        assert abs(value - (base + c * 6)) < 1e-10  # |X| |Y| = 6


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
    ops = {(a, x, y): proj(0, 1) for a in (0, 1) for x in (1, 2, 3) for y in (0, 1)}
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


def test_seesaw_ties_go_to_outcome_zero():
    # Every conditioned difference is exactly zero, so the whole space is a tie.
    report = seesaw_quantum(_constant_functional(np.zeros((2, 2))), seed=4, restarts=1)
    for effects in report.witness.povms.values():
        assert np.array_equal(effects[0], la.I2) and not np.any(effects[1])


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


@pytest.mark.parametrize("scale", [1e4, 1e6, 1e10])
def test_seesaw_is_scale_invariant(scale):
    # Rounding in the seesaw's Hamiltonians grows with the entries; the
    # Hermiticity check must grow with them.
    f = _random_bwi_functional(6)
    value = seesaw_quantum(f, seed=6, restarts=3).value
    scaled = seesaw_quantum(_random_bwi_functional(6, scale), seed=6, restarts=3).value
    assert abs(scaled - scale * value) <= 1e-12 * abs(scale * value)


def _measurement_step(g):
    """M_{0|x} of the closed-form step for conditioned differences g (..., 2, 2)."""
    return np.einsum("...k,kij->...ij", _nonpositive_projector(
        np.einsum("kji,...ij->...k", la.PAULIS, g).real), la.PAULIS)


@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]))
def test_closed_form_measurement_step_matches_eigendecomposition(seed, scale):
    g = scale * np.stack([random_hermitian(np.random.default_rng(seed), 2) for _ in range(8)])
    vals, vecs = la.eig_hermitian(g)
    kept = vecs * (vals <= 0)[..., None, :]  # the projector onto the nonpositive eigenspace
    assert np.max(np.abs(_measurement_step(g) - kept @ kept.conj().swapaxes(-2, -1))) <= 1e-12


@pytest.mark.parametrize("g, m0", [
    pytest.param(np.diag([0.0, 1.0]), proj(0, 1), id="zero-eigenvalue-to-outcome-0"),
    pytest.param((la.I2 + la.PAULI_X) / 2, proj(1, 2), id="zero-eigenvalue-off-axis"),
    pytest.param(np.diag([0.0, -1.0]), la.I2, id="zero-and-negative"),
    pytest.param(np.zeros((2, 2)), la.I2, id="zero"),
    pytest.param(np.array([[2, 1j], [-1j, 2]]), np.zeros((2, 2)), id="positive-definite"),
    pytest.param(-np.array([[2, 1j], [-1j, 2]]), la.I2, id="negative-definite"),
])
def test_closed_form_measurement_step_exact_cases(g, m0):
    assert np.array_equal(_measurement_step(g), m0)


def _assert_same_bits(e):
    step, formula = _nonpositive_projector(e), nonpositive_projector(e)
    assert (step.shape, step.dtype) == (formula.shape, formula.dtype) == (e.shape, float)
    assert step.tobytes() == formula.tobytes()  # signed zeros count


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -1.0, 1e300, -1e300]


@given(shape=st.sampled_from([(4,), (1, 4), (5, 4), (2, 3, 4)]), data=st.data())
def test_table_driven_step_matches_the_formula_to_the_bit(shape, data):
    size = int(np.prod(shape))
    entries = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    _assert_same_bits(np.array(data.draw(st.lists(entries, min_size=size, max_size=size)))
                      .reshape(shape))


# Exact ties e_0 = +-|e_vec| (one eigenvalue of G exactly 0) at three scales, and e = 0.
_TIES = [(sign * scale, *np.roll([scale, 0.0, 0.0], axis), c_0)
         for scale in (5e-324, 1.0, 2.0**1000) for axis in range(3)
         for sign, c_0 in ((1, 0.5), (-1, 1.0))] + [
    (0.0, 0.0, 0.0, 0.0, 1.0), (-0.0, -0.0, 0.0, -0.0, 1.0)]


@pytest.mark.parametrize("tie", _TIES)
def test_table_driven_step_matches_the_formula_at_exact_ties(tie):
    e = np.array(tie[:4])
    _assert_same_bits(e)
    assert _nonpositive_projector(e)[0] == tie[4]  # the projector's I coefficient


def test_table_driven_step_matches_the_formula_on_a_stack_of_ties():
    _assert_same_bits(np.array([tie[:4] for tie in _TIES]).reshape(-1, 2, 4))


@pytest.mark.parametrize("scale", [1e-320, 1e-310, 1e300])
def test_seesaw_at_extreme_scales(scale):
    f = catalog.ptp_functional(normalized=True)
    scaled = EPRFunctional("bwi", {key: scale * op for key, op in f.operators.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow or underflow warning fails the test
        value = seesaw_quantum(scaled, seed=0, restarts=10).value
    assert np.isfinite(value)
    if scale >= 1e-310:  # at 1e-320 the entries keep only a few significant digits
        assert abs(value / scale - seesaw_quantum(f, seed=0, restarts=10).value) <= 1e-9


def test_seesaw_takes_one_eigendecomposition_per_stacked_iteration(monkeypatch):
    calls = []
    real_eig_hermitian = la.eig_hermitian

    def counting_eig_hermitian(m):
        calls.append(len(m))
        return real_eig_hermitian(m)

    monkeypatch.setattr(la, "eig_hermitian", counting_eig_hermitian)
    report = seesaw_quantum(_random_bwi_functional(2), seed=2, restarts=4, max_iterations=10)
    monkeypatch.undo()
    assert len(calls) == max(n for _, n in report.per_restart)
    # Each call takes the restarts still iterating, as one stack.
    assert calls == [sum(n > i for _, n in report.per_restart) for i in range(len(calls))]


@pytest.mark.parametrize("n_x, restarts", [(1, 1), (3, 3), (10, 2)])
def test_seesaw_initial_effect_is_the_projective_povms_first(n_x, restarts):
    seeds = np.random.default_rng(n_x).integers(2**63, size=restarts)
    effects = _initial_effects(la.generators(seeds), n_x)
    g = la.ginibre_stacks(la.generators(seeds), (n_x, 2, 2))[0]  # the same draws afresh
    assert effects.shape == (restarts, n_x, 2, 2)
    assert np.abs(effects - la.projective_povm(g, 2)[..., 0, :, :]).max() <= 1e-15


def test_seesaw_witnesses_share_one_frozen_identity_channel():
    first = seesaw_quantum(_random_bwi_functional(0), restarts=1).witness
    second = seesaw_quantum(catalog.ptp_functional(), restarts=1).witness
    channel = first.channels[0]
    assert all(c is channel for w in (first, second) for c in w.channels.values())
    with pytest.raises(ValueError):
        channel.kraus_ops[0, 0, 0] = 2.0  # read-only
    with pytest.raises(AttributeError):
        channel.kraus_ops = np.zeros((1, 2, 2))  # frozen
    with pytest.raises(TypeError):
        first.channels[0] = channel
    for effects in first.povms.values():
        with pytest.raises(ValueError):
            effects[0, 0, 0] = 1.0  # read-only
    rho = random_density(np.random.default_rng(1), 2)
    assert np.array_equal(np.eye(2), second.channels[1].kraus_ops[0])
    assert np.allclose(second.channels[1](rho), rho, rtol=0, atol=1e-15)


def test_seesaw_rejects_non_binary_alice():
    ops = {(a, x, 0): la.I2 for a in (0, 1, 2) for x in (1, 2)}
    with pytest.raises(ValueError):
        seesaw_quantum(EPRFunctional("bwi", ops), restarts=1)


def test_seesaw_witness_reproduces_value():
    from eprkit.assemblages import realize
    from eprkit.functionals import evaluate_epr

    f = catalog.ptp_functional(normalized=True)
    report = seesaw_quantum(f, seed=1, restarts=10)
    achieved = evaluate_epr(f, realize(report.witness))
    assert abs(achieved - report.value) < 1e-9


def test_selftest_value_canonical():
    value = selftest_value(catalog.canonical_selftest_marginal())
    assert abs(value - SELFTEST_MAX) < 1e-9


def test_selftest_value_uniform_is_zero():
    uniform = {key: 0.25 for key in itertools.product((0, 1), (0, 1), (1, 2, 3, 4), (1, 2, 3))}
    assert selftest_value(uniform) == 0.0


def test_selftest_value_unsteered_resource_is_zero():
    # Product resource sigma_{c|w} = rho / 2: Charlie's outcome is a coin flip.
    rho = random_density(np.random.default_rng(5), 2)
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
    a_vals, x_vals, y_vals = f.labels
    best_value, best = np.inf, None
    for choices in itertools.product(a_vals, repeat=len(x_vals)):
        response = dict(zip(x_vals, choices))
        value = sum(min_eigenvalue(sum(f.operators[(response[x], x, y)] for x in x_vals))
                    for y in y_vals)
        if value < best_value:
            best_value, best = value, response
    return best_value, best


def _reference_ns(f):
    a_vals, x_vals, y_vals = f.labels
    return sum(min(min_eigenvalue(f.operators[(a, x, y)]) for a in a_vals)
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
    ops = {keys[i]: random_hermitian(rng, dim) for i in rng.permutation(len(keys))}
    _check_bounds_against_loops(EPRFunctional("bwi", ops))


@pytest.mark.parametrize("normalized", [False, True])
def test_bounds_match_per_key_loops_on_ptp(normalized):
    _check_bounds_against_loops(catalog.ptp_functional(normalized=normalized))


@pytest.mark.parametrize("n_a, n_x", [(2, 10), (3, 7)])
def test_bounds_match_per_key_loops_across_strategy_chunks(n_a, n_x):
    # 1024 and 2187 strategies; these seeds put the minimum at strategy 584 and 1824.
    rng = np.random.default_rng([n_a, n_x, 1])
    keys = itertools.product(range(n_a), range(1, n_x + 1), range(2))
    _check_bounds_against_loops(EPRFunctional("bwi", {key: random_hermitian(rng, 2)
                                                      for key in keys}))


def _levels_functional(seed: int, n_x: int, n_y: int, dim: int, rotated: bool,
                       n_a: int = 2) -> EPRFunctional:
    """Operators u diag(levels) u^dagger over a few levels and one common basis u: many
    strategies tie exactly, and rounding splits others by an ulp or two."""
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, dim) if rotated else np.eye(dim)
    return EPRFunctional("bwi", {
        key: (u * rng.choice([0.1, 0.2, 0.3, 0.7], dim)) @ u.conj().T
        for key in itertools.product(range(n_a), range(1, n_x + 1), range(n_y))})


def _assert_classical_bound_is_lapacks(f):
    value, response, operators = classical_bound_lapack(f)
    report = classical_bound(f)
    assert report.value.hex() == float(value).hex()
    assert report.witness.response == response
    assert np.array_equal(np.stack(list(report.witness.operators.values())), operators)


def _random_functional(seed: int, n_a: int, n_x: int, n_y: int, dim: int) -> EPRFunctional:
    rng = np.random.default_rng(seed)
    return EPRFunctional("bwi", {key: random_hermitian(rng, dim) for key in
                                 itertools.product(range(n_a), range(1, n_x + 1), range(n_y))})


# Binary alphabets up to 10 settings, and ternary up to 7, whose chunks hold 3**5 strategies.
@given(seed=st.integers(0, 2**32 - 1), alphabet=st.sampled_from([(2, 10), (3, 7)]),
       n_x=st.integers(1, 10), n_y=st.integers(1, 3), dim=st.sampled_from([2, 2, 4]),
       kind=st.sampled_from(["random", "levels", "rotated"]),
       scale=st.sampled_from([1e-320, 1.0, 1e300]))
def test_classical_bound_is_the_lapack_enumeration_to_the_bit(seed, alphabet, n_x, n_y, dim, kind,
                                                              scale):
    n_a, n_x = alphabet[0], min(n_x, alphabet[1])
    if kind == "random":
        f = _random_functional(seed, n_a, n_x, n_y, dim)
    else:
        f = _levels_functional(seed, n_x, n_y, dim, kind == "rotated", n_a)
    # Hermitian to the bit, so that no scale makes a rotated operator's rounding fail the check.
    f = EPRFunctional("bwi", (f.labels, scale * ((f.grid + f.grid.conj().swapaxes(-1, -2)) / 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_classical_bound_is_lapacks(f)


@pytest.mark.parametrize("n_a, n_x", [(17, 1), (17, 2), (300, 1), (300, 2)])
def test_classical_bound_over_large_alphabets_is_the_lapack_enumeration_to_the_bit(n_a, n_x):
    _assert_classical_bound_is_lapacks(_random_functional(n_a + n_x, n_a, n_x, 2, 2))


@pytest.mark.parametrize("n_a, n_x", [(1, 4), (2, 1), (2, 8), (2, 9), (2, 12), (3, 6), (3, 7),
                                      (5, 4), (17, 2), (17, 3), (23, 2), (255, 2), (256, 1),
                                      (257, 2), (300, 2), (600, 1), (1000, 2)])
def test_strategy_chunks_are_the_operator_sums_in_order_at_bounded_sizes(n_a, n_x):
    # One real entry per operator; chunks cover the enumeration in product order, stay below
    # 2 _CHUNK strategies whatever the alphabet, and hold at least _SCREENED where there are
    # several, so that each has its screen.
    rng = np.random.default_rng([n_a, n_x])
    grid = rng.standard_normal((n_a, n_x, 1, 1, 1))
    sizes = [len(ops) for ops in _strategy_chunks(grid)]
    assert sum(sizes) == n_a**n_x and max(sizes) < 2 * _CHUNK
    assert len(sizes) == 1 or min(sizes) >= _SCREENED
    if n_a**n_x <= 10**5:
        sums = np.concatenate(list(_strategy_chunks(grid)))
        choices = np.array(list(itertools.product(range(n_a), repeat=n_x)))
        expected = grid[choices[:, 0], 0]
        for j in range(1, n_x):
            expected = expected + grid[choices[:, j], j]  # left to right, as LAPACK's oracle
        assert np.array_equal(sums, expected)


@pytest.mark.parametrize("n_a, n_x, sizes", [
    *((2, n_x, [256] * 2**(n_x - 8)) for n_x in range(9, 13)),
    *((3, n_x, [243] * 3**(n_x - 5)) for n_x in (6, 7))])
def test_strategy_chunks_on_the_benchmarks_alphabets_are_full(n_a, n_x, sizes):
    # Each chunk answers the last 8 binary or 5 ternary settings freely, the rest once each.
    assert [len(ops) for ops in _strategy_chunks(np.zeros((n_a, n_x, 1, 1, 1)))] == sizes


@pytest.mark.parametrize("seed, n_x, rotated", [(38, 8, False), (41, 8, False), (1, 3, True),
                                                (2, 8, True)])
def test_classical_bound_keeps_lapacks_minimiser_where_the_screen_disagrees(seed, n_x, rotated):
    f = _levels_functional(seed, n_x, 2, 2, rotated)
    # The closed-form screen alone would pick another first minimiser on these functionals.
    screen = classical_bound_lapack(f, lambda m: la.min_eigenvalue(m)[..., None])
    assert screen[1] != classical_bound_lapack(f)[1]
    _assert_classical_bound_is_lapacks(f)


def test_classical_witness_is_frozen():
    witness = classical_bound(catalog.ptp_functional()).witness
    with pytest.raises(TypeError):
        witness.response[1] = 1
    with pytest.raises(TypeError):
        witness.operators[0] = np.eye(2)
    operators = list(witness.operators.values())
    for op in operators:
        with pytest.raises(ValueError):
            op[0, 0] = 0  # read-only
        assert op.base is operators[0].base and op.base.shape == (2, 2, 2)


def test_classical_bound_ties_keep_the_first_strategy_across_chunks():
    # All 3**6 strategies tie at 0; the first answers every setting with the first label.
    f = EPRFunctional("bwi", {(a, x, 0): np.zeros((2, 2)) for a in (4, 5, 6) for x in range(1, 7)})
    report = classical_bound(f)
    assert report.value == 0.0
    assert report.witness.response == {x: 4 for x in range(1, 7)}


def test_functional_whose_operator_sums_overflow_is_rejected():
    # Finite entries whose strategy sums would overflow inside the bounds: the
    # functional is rejected when it is built, without a warning.
    with pytest.raises(ValueError, match="total magnitude"):
        EPRFunctional("bwi", {(a, x, 0): (-1) ** a * 1e308 * np.eye(2)
                              for a in (0, 1) for x in (1, 2, 3)})


def test_classical_bound_ties_keep_the_first_strategy_in_product_order():
    # Every strategy answering x = 1 or x = 9 with a = 1 reaches -1; the first in
    # itertools.product order (last setting fastest) is strategy 1: a = 1 at x = 9 only.
    ops = {(a, x, 0): np.zeros((2, 2)) for a in (0, 1) for x in range(1, 10)}
    ops[(1, 1, 0)], ops[(1, 9, 0)] = -proj(0, 1), -proj(1, 1)
    report = classical_bound(EPRFunctional("bwi", ops))
    assert report.value == -1.0
    assert report.witness.response == {x: int(x == 9) for x in range(1, 10)}


def _reference_seesaw_once(f, rng, max_iterations, rel_tol):
    """One seesaw restart one (a, x) term at a time: a kron per term of the
    Hamiltonian and a kron plus a partial trace per conditioned operator.

    Returns the value trace, the final POVMs and state, the settings whose last
    measurement step met an eigenvalue within 1e-12 of zero (where the tie rule,
    outcome 0 on eigenvalues <= 0, is decided by rounding) and whether every
    earlier step was decided: a ground energy gap above 1e-6, and no such tie.
    """
    a_vals, x_vals, y_vals = f.labels
    db = f.dim
    summed = {(a, x): sum(f.operators[(a, x, y)] for y in y_vals) for a in a_vals for x in x_vals}
    povms = {x: random_projective_povm(rng, 2) for x in x_vals}

    def hamiltonian():
        return sum(la.tensor(povms[x][a], summed[(a, x)]) for a in a_vals for x in x_vals)

    trace, ties, decided = [], set(), True
    for _ in range(max_iterations):
        decided = decided and not ties
        vals, vecs = la.eig_hermitian(hamiltonian())
        decided = decided and vals[1] - vals[0] > 1e-6
        ground = vecs[:, 0:1]
        rho = ground @ ground.conj().T
        ties = set()
        for x in x_vals:
            g = {a: partial_trace(la.tensor(np.eye(2), summed[(a, x)]) @ rho, [2, db], 1)
                 for a in a_vals}
            dvals, dvecs = la.eig_hermitian(g[0] - g[1])
            m0 = np.zeros((2, 2), dtype=complex)
            for i, lam in enumerate(dvals):
                if lam <= 0:
                    m0 += dvecs[:, i : i + 1] @ dvecs[:, i : i + 1].conj().T
                if abs(lam) <= 1e-12:
                    ties.add(x)
            povms[x] = [m0, np.eye(2) - m0]
        trace.append(float(np.real(np.trace(hamiltonian() @ rho))))
        if len(trace) >= 2 and abs(trace[-2] - trace[-1]) <= rel_tol * max(1.0, abs(trace[-2])):
            break
    return trace, povms, rho, ties, decided


def _check_seesaw_against_reference(f, seed, restarts, max_iterations):
    """Returns whether the witness was compared, i.e. the reference path was decided."""
    report = seesaw_quantum(f, seed=seed, restarts=restarts, max_iterations=max_iterations)
    root = np.random.default_rng(seed)
    runs = [_reference_seesaw_once(f, np.random.default_rng(root.integers(2**63)),
                                   max_iterations, 1e-10) for _ in range(restarts)]
    assert len(report.per_restart) == restarts
    for (value, iterations), (trace, *_) in zip(report.per_restart, runs):
        assert iterations == len(trace)
        assert abs(value - trace[-1]) <= 1e-10
    assert report.iterations == sum(n for _, n in report.per_restart)
    # The report keeps the first restart within the stopping rule's relative tolerance of the
    # least final value, so that restarts tied to rounding do not pick the witness.
    values = [value for value, _ in report.per_restart]
    low = min(values)
    best = next(i for i, v in enumerate(values) if v - low <= 1e-10 * max(1.0, abs(low)))
    assert report.value == values[best]
    trace, povms, rho, ties, decided = runs[best]
    assert len(report.trace) == len(trace)
    assert np.max(np.abs(np.subtract(report.trace, trace))) <= 1e-10
    if not decided:  # a rounding-decided step: any of the equally good witnesses may come out
        return False
    witness = report.witness
    assert np.max(np.abs(witness.state - rho)) <= 1e-10
    rho_a = partial_trace(rho, [2, f.dim], 1)
    for x, effects in povms.items():
        diff = np.subtract(witness.povms[x], effects)
        # On a tie only the effects' action on Alice's state is determined.
        assert np.max(np.abs(diff @ rho_a if x in ties else diff)) <= 1e-10
    return True


@given(seed=st.integers(0, 2**32 - 1), n_x=st.integers(1, 10), n_y=st.integers(1, 2),
       dim=st.sampled_from([2, 4]), restarts=st.integers(1, 3))
def test_seesaw_matches_per_term_loop(seed, n_x, n_y, dim, restarts):
    rng = np.random.default_rng(seed)
    keys = list(itertools.product((0, 1), range(1, n_x + 1), range(n_y)))
    ops = {keys[i]: random_hermitian(rng, dim) for i in rng.permutation(len(keys))}
    _check_seesaw_against_reference(EPRFunctional("bwi", ops), seed, restarts, 100)


def test_seesaw_witness_matches_per_term_loop():
    for seed in range(10):
        assert _check_seesaw_against_reference(_random_bwi_functional(seed), seed, 3, 100)


def test_seesaw_matches_per_term_loop_on_ptp():
    _check_seesaw_against_reference(catalog.ptp_functional(normalized=True), 0, 50, 500)


def test_seesaw_restarts_leave_the_stack_at_different_iterations():
    f = _random_bwi_functional(2)
    _check_seesaw_against_reference(f, 2, 4, 10)
    report = seesaw_quantum(f, seed=2, restarts=4, max_iterations=10)
    assert [n for _, n in report.per_restart] == [10, 9, 8, 9]  # the first one hits the cap


def test_seesaw_keeps_the_first_of_restarts_tied_to_rounding():
    rng = np.random.default_rng(0)
    keys = list(itertools.product((0, 1), (1,), range(2)))
    f = EPRFunctional("bwi", {keys[i]: random_hermitian(rng, 4) for i in rng.permutation(4)})
    report = seesaw_quantum(f, seed=0, restarts=2)
    (first, _), (second, _) = report.per_restart
    assert second < first <= second + 1e-10 * abs(second)  # the later restart is lower by rounding
    alone = seesaw_quantum(f, seed=0, restarts=1)  # the first restart on its own
    assert report.value == first and report.trace[-1] == first
    assert np.allclose(report.trace, alone.trace, rtol=0, atol=1e-12)
    assert np.abs(report.witness.state - alone.witness.state).max() <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_seesaw_single_restart_matches_per_term_loop(seed):
    _check_seesaw_against_reference(_random_bwi_functional(seed), seed, 1, 100)


@pytest.mark.parametrize("max_iterations", [0, -1])
def test_seesaw_rejects_fewer_than_one_iteration(max_iterations):
    with pytest.raises(ValueError, match="at least one iteration"):
        seesaw_quantum(catalog.ptp_functional(), max_iterations=max_iterations)

