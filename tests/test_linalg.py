import math
import os
import pathlib
import pickle
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eprkit import linalg as la
from oracles import (
    apply_map_to_factors,
    choi,
    conjugation_map,
    ginibre,
    identity_map,
    masked_projective_effects,
    min_eigenvalue,
    observable_projectors_per_eigenvalue,
    partial_trace,
    partial_transpose,
    proj,
    random_channel,
    random_density,
    random_hermitian,
    random_povm_element,
    random_projective_povm,
    random_unitary,
    transpose_dual,
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def test_hermitian_accepts_and_freezes():
    m = la.hermitian([[1, 1j], [-1j, 0]])
    assert m.dtype == complex
    with pytest.raises(ValueError):
        m[0, 0] = 2.0


def test_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        la.hermitian([[0, 1e-6], [0, 0]])
    with pytest.raises(ValueError):
        la.hermitian(np.ones((2, 3)))


def test_hermitian_checks_a_stack_over_leading_axes():
    stack = la.hermitian([[la.I2, la.PAULI_Y], [la.PAULI_X, la.PAULI_Z]])
    assert stack.shape == (2, 2, 2, 2) and not stack.flags.writeable
    bad = np.array([la.I2, la.PAULI_Y, [[0, 1], [0, 0]]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        la.hermitian(bad)
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        la.hermitian(bad)
    with pytest.raises(ValueError, match="square"):
        la.hermitian(np.ones((3, 2, 3)))
    with pytest.raises(ValueError, match="square"):
        la.hermitian(np.ones(4))


def test_tensor_pauli_z_z():
    assert np.allclose(la.tensor(la.PAULI_Z, la.PAULI_Z), np.diag([1, -1, -1, 1]))


def test_tensor_identity():
    assert np.allclose(la.tensor(la.I2, la.I2), np.eye(4))


def test_tensor_of_projectors_is_rank_one():
    p = la.tensor(proj(0, 1), proj(0, 2))
    assert np.allclose(p @ p, p)
    assert np.isclose(np.trace(p).real, 1.0)
    assert np.linalg.matrix_rank(p) == 1


def test_partial_trace_entangled_marginal():
    assert np.allclose(partial_trace(la.phi_plus(), [2, 2], 1), la.I2 / 2)


def test_partial_trace_product_case():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    assert np.allclose(partial_trace(la.tensor(a, b), [2, 2], 0), np.trace(a) * b)


def test_partial_trace_swap():
    # Entrywise: diagonal blocks of SWAP/2 are [[.5,0],[0,0]] and [[0,0],[0,.5]].
    assert np.allclose(partial_trace(SWAP / 2, [2, 2], 1), la.I2 / 2)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 8)
    for idx, dims in [(0, [2, 4]), (1, [4, 2]), (2, [2, 2, 2])]:
        red = partial_trace(m, dims, idx)
        assert abs(np.trace(red) - np.trace(m)) < 1e-12


def test_partial_transpose_phi_plus_is_swap():
    assert np.allclose(partial_transpose(la.phi_plus(), [2, 2], 1), SWAP / 2)


def test_partial_transpose_min_eigenvalue():
    pt = partial_transpose(la.phi_plus(), [2, 2], 1)
    vals, _ = la.eig_hermitian(pt)
    assert np.isclose(vals[0], -0.5)


def test_partial_transpose_product_case():
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    got = partial_transpose(la.tensor(a, b), [2, 2], 1)
    assert np.allclose(got, la.tensor(a, b.T))


@given(st.integers(0, 2**32 - 1))
def test_partial_transpose_involutive(seed):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, 4)
    assert np.allclose(partial_transpose(partial_transpose(m, [2, 2], 0), [2, 2], 0), m)


def test_eig_pauli_z():
    vals, _ = la.eig_hermitian(la.PAULI_Z)
    assert np.allclose(vals, [-1, 1])


def test_eig_projector_spectrum():
    vals, _ = la.eig_hermitian((la.I2 + la.PAULI_X) / 2)
    assert np.allclose(vals, [0, 1])


def test_eig_kronecker_spectrum():
    vals, _ = la.eig_hermitian(la.tensor(la.PAULI_Z, la.PAULI_Z))
    assert np.allclose(vals, [-1, -1, 1, 1])


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        la.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_hermitian_decomposes_a_stack_over_leading_axes():
    rng = np.random.default_rng(4)
    stack = np.array([[random_hermitian(rng, 4) for _ in range(2)] for _ in range(3)])
    vals, vecs = la.eig_hermitian(stack)
    assert vals.shape == (3, 2, 4) and vecs.shape == (3, 2, 4, 4)
    for i, j in np.ndindex(3, 2):
        one_vals, one_vecs = la.eig_hermitian(stack[i, j])
        assert np.array_equal(vals[i, j], one_vals) and np.array_equal(vecs[i, j], one_vecs)
    bad = stack.copy()
    bad[2, 1, 0, 3] += 1e-6
    with pytest.raises(ValueError, match="eig_hermitian requires a Hermitian operator"):
        la.eig_hermitian(bad)


def test_eig_residual_on_seeded_batch():
    # 1000 draws split over dims 2, 4, 8, 16.
    for i in range(1000):
        dim = [2, 4, 8, 16][i % 4]
        m = random_hermitian(np.random.default_rng(i), dim)
        vals, vecs = la.eig_hermitian(m)
        assert np.max(np.abs(m @ vecs - vecs * vals)) <= 1e-9
        assert np.all(np.diff(vals) >= -1e-12)


@given(entries=st.lists(st.tuples(*[st.floats(-1, 1)] * 4), min_size=1, max_size=8),
       scale=st.sampled_from([1e-320, 1e-310, 1e-300, 1e-150, 1.0, 1e150, 1e300]))
def test_min_eigenvalue_closed_form_is_lapacks_within_ulps_of_the_norm(entries, scale):
    a, d, re, im = np.array(entries).T * scale
    m = np.zeros((len(entries), 2, 2), dtype=complex)
    m.real[:, 0, 0], m.real[:, 1, 1], m.real[:, 1, 0], m.real[:, 0, 1] = a, d, re, re
    m.imag[:, 1, 0], m.imag[:, 0, 1] = im, -im
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow or underflow warning fails the test
        least, lapack = la.min_eigenvalue(m), np.linalg.eigvalsh(m)
    norm = np.abs(lapack).max(1)
    assert np.all(np.abs(least - lapack[:, 0]) <= 16 * np.spacing(norm))


@given(entries=st.lists(st.tuples(*[st.floats(-1, 1)] * 4), min_size=1, max_size=8),
       scale=st.sampled_from([1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300]),
       shape=st.sampled_from([None, (-1,), (-1, 1), (1, -1)]))
def test_min_eigenvalue_is_the_closed_forms_lower_value_to_the_bit(entries, scale, shape):
    a, d, re, im = np.array(entries).T * scale
    m = np.zeros((len(entries), 2, 2), dtype=complex)
    m.real[:, 0, 0], m.real[:, 1, 1], m.real[:, 1, 0], m.real[:, 0, 1] = a, d, re, re
    m.imag[:, 1, 0], m.imag[:, 0, 1] = im, -im
    m = m[0] if shape is None else m.reshape(*shape, 2, 2)
    least = la.min_eigenvalue(m)
    assert least.shape == m.shape[:-2]
    # Both closed-form values as one broadcast product with the signs -1 and 1, read at the first.
    half = m.real.diagonal(0, -2, -1) / 2
    radius = np.hypot(half[..., 0] - half[..., 1], abs(m[..., 1, 0]))
    both = half.sum(-1)[..., None] + radius[..., None] * np.array([-1.0, 1.0])
    assert least.tobytes() == both[..., 0].tobytes()


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 3, 4, 8]),
       shape=st.sampled_from([(), (1,), (3,), (2, 3)]))
def test_min_eigenvalue_is_lapacks_beyond_2x2(seed, dim, shape):
    rng = np.random.default_rng(seed)
    m = np.reshape([random_hermitian(rng, dim) for _ in np.ndindex(shape)], (*shape, dim, dim))
    assert np.array_equal(la.min_eigenvalue(m), np.linalg.eigvalsh(m)[..., 0])


def test_choi_identity_is_phi_plus():
    assert np.allclose(choi(identity_map(2)), la.phi_plus())


def test_choi_discard_and_prepare():
    rho0 = np.diag([0.7, 0.3]).astype(complex)
    kraus = tuple(
        np.sqrt(rho0[i, i]) * np.outer(np.eye(2)[:, i], np.eye(2)[j])
        for i in range(2)
        for j in range(2)
    )
    j = choi(la.KrausMap(2, 2, kraus))
    assert np.allclose(j, la.tensor(rho0, la.I2 / 2))


def test_choi_of_x_conjugation():
    j = choi(conjugation_map(la.PAULI_X))
    xi = la.tensor(la.PAULI_X, la.I2)
    assert np.allclose(j, xi @ la.phi_plus() @ xi)


def test_apply_choi_identity_round_trip():
    rng = np.random.default_rng(5)
    sigma = random_density(rng, 2)
    assert np.allclose(la.apply_choi(la.phi_plus(), sigma), sigma)


def test_apply_choi_discard_and_prepare():
    rng = np.random.default_rng(6)
    rho0 = random_density(rng, 2)
    sigma = random_hermitian(rng, 2)
    got = la.apply_choi(la.tensor(rho0, la.I2 / 2), sigma)
    assert np.allclose(got, np.trace(sigma) * rho0)


def test_apply_choi_x_conjugation_on_z():
    j = choi(conjugation_map(la.PAULI_X))
    assert np.allclose(la.apply_choi(j, la.PAULI_Z), -la.PAULI_Z)


@given(st.integers(0, 2**32 - 1))
def test_apply_choi_matches_kraus_action(seed):
    rng = np.random.default_rng(seed)
    kmap = random_channel(rng, 2, 2)
    rho = random_density(rng, 2)
    assert np.max(np.abs(la.apply_choi(choi(kmap), rho) - kmap(rho))) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_choi_of_tp_map_is_state(seed):
    rng = np.random.default_rng(seed)
    kmap = random_channel(rng, 2, 2)
    j = choi(kmap)
    assert min_eigenvalue(j) >= -1e-10
    assert np.allclose(partial_trace(j, [2, 2], 0), la.I2 / 2, atol=1e-10)
    assert abs(np.trace(j) - 1) < 1e-10


def test_transpose_dual_identity_and_x():
    ident = transpose_dual(identity_map(2))
    assert np.allclose(ident.kraus_ops[0], la.I2)
    xdual = transpose_dual(conjugation_map(la.PAULI_X))
    assert np.allclose(xdual.kraus_ops[0], la.PAULI_X)
    rho = random_density(np.random.default_rng(0), 2)
    lhs = (la.PAULI_X @ rho @ la.PAULI_X).T
    assert np.allclose(lhs, xdual(rho.T))


def test_transpose_dual_diag_phase():
    u = np.diag([1, 1j]).astype(complex)
    dual = transpose_dual(conjugation_map(u))
    assert np.allclose(dual.kraus_ops[0], np.diag([1, -1j]))
    for seed in range(100):
        rho = random_density(np.random.default_rng(seed), 2)
        assert np.max(np.abs((u @ rho @ u.conj().T).T - dual(rho.T))) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_transpose_dual_property_and_involution(seed):
    rng = np.random.default_rng(seed)
    kmap = random_channel(rng, 2, 2)
    dual = transpose_dual(kmap)
    double = transpose_dual(dual)
    rho = random_density(rng, 2)
    assert np.max(np.abs(kmap(rho).T - dual(rho.T))) < 1e-10
    # Involution holds as action equality, not operator-list equality.
    assert np.max(np.abs(double(rho) - kmap(rho))) < 1e-12


def test_hermiticity_preserved_by_structural_ops():
    rng = np.random.default_rng(42)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 4)
    for m in (
        la.tensor(a, b),
        partial_trace(b, [2, 2], 0),
        partial_transpose(b, [2, 2], 1),
    ):
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_projector_basis_completeness():
    for w in (1, 2, 3):
        assert np.allclose(proj(0, w) + proj(1, w), la.I2)
        for c in (0, 1):
            p = proj(c, w)
            assert np.max(np.abs(p @ p - p)) < 1e-12


def test_apply_map_to_factors():
    rng = np.random.default_rng(9)
    kmap = random_channel(rng, 4, 2)
    state = random_density(rng, 16)
    out = apply_map_to_factors(kmap, state, [2, 2, 2, 2], [1, 2])
    assert out.shape == (8, 8)
    assert abs(np.trace(out) - 1) < 1e-10
    direct = sum(
        la.tensor(la.I2, k, la.I2) @ state @ la.tensor(la.I2, k, la.I2).conj().T
        for k in kmap.kraus_ops
    )
    assert np.allclose(out, direct)


def test_random_generators_deterministic():
    a = random_channel(np.random.default_rng(123), 2, 2)
    b = random_channel(np.random.default_rng(123), 2, 2)
    for ka, kb in zip(a.kraus_ops, b.kraus_ops):
        assert np.array_equal(ka, kb)


def test_random_projective_povm_is_projective():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        effects = random_projective_povm(rng, 4)
        total = sum(effects)
        assert np.allclose(total, np.eye(4), atol=1e-10)
        for e in effects:
            assert np.max(np.abs(e @ e - e)) < 1e-10


def test_random_draws_stack_over_the_generator_axes():
    # Each generator draws in turn, row-major: a (2, 3) array of generators with each
    # row one generator draws three POVMs per generator, in order.
    stacked = random_projective_povm([[np.random.default_rng(s)] * 3 for s in (4, 9)], 4, 3)
    assert stacked.shape == (2, 3, 3, 4, 4)
    for row, seed in enumerate((4, 9)):
        rng = np.random.default_rng(seed)
        for col in range(3):
            assert np.array_equal(stacked[row, col], random_projective_povm(rng, 4, 3))
    channels = random_channel([np.random.default_rng(s) for s in range(5)], 2, 2)
    assert channels.kraus_ops.shape == (5, 2, 2, 2)
    for seed in range(5):
        single = random_channel(np.random.default_rng(seed), 2, 2)
        assert np.array_equal(channels.kraus_ops[seed], single.kraus_ops)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4]), st.lists(st.integers(1, 3), max_size=2),
       st.sampled_from(["complex", "real", "imaginary"]))
def test_projective_effects_match_the_masked_contraction_to_the_byte(seed, dim, lead, kind):
    # Real or imaginary Ginibre matrices give exact zeros, so signed zeros are compared too.
    rng = np.random.default_rng(seed)
    g = ginibre([rng] * math.prod(lead), dim, dim).reshape(*lead, dim, dim)
    g = {"complex": g, "real": g.real + 0j, "imaginary": 1j * g.imag}[kind]
    u = la._isometry(g)
    for n_outcomes in range(1, dim + 1):
        cuts = rng.permuted(np.broadcast_to(np.arange(1, dim), (*lead, dim - 1)), axis=-1)
        cuts = cuts[..., :n_outcomes - 1]
        expected = masked_projective_effects(u, n_outcomes, np.sort(cuts, -1))
        assert la.projective_povm(g, n_outcomes, cuts).tobytes() == expected.tobytes()
    assert la.projective_povm(g, dim).tobytes() == masked_projective_effects(
        u, dim, np.arange(1, dim)).tobytes()


@pytest.mark.parametrize("cuts", [[1, 1, 2], [0, 2, 3], [1, 2, 4], [1, 2], [1.0, 2.0, 3.0]])
def test_projective_povm_rejects_cuts_that_are_no_split_into_nonempty_blocks(cuts):
    # The first three once returned an empty effect without a word; short or float cuts
    # are no valid split either.
    g = ginibre(np.random.default_rng(0), 4, 4)
    with pytest.raises(ValueError, match=re.escape(
            "a projective POVM with 4 outcomes on dimension 4 needs 3 distinct integer cuts "
            "in 1..3")):
        la.projective_povm(g, 4, cuts)


@pytest.mark.parametrize("n_outcomes", [0, 3])
def test_random_projective_povm_rejects_impossible_outcome_counts(n_outcomes):
    with pytest.raises(ValueError, match="cannot have"):
        random_projective_povm(np.random.default_rng(0), 2, n_outcomes)


def test_random_povm_element_is_valid_effect():
    for seed in range(50):
        m = random_povm_element(np.random.default_rng(seed), 4)
        vals = np.linalg.eigvalsh(m)
        assert vals[0] >= -1e-10
        assert vals[-1] <= 1 + 1e-10


@pytest.mark.parametrize("dim", [2, 4])
def test_observable_projectors_of_a_stack_match_the_per_eigenvalue_sum(dim):
    rng = np.random.default_rng(dim)
    observables = []
    for _ in range(6):
        u = random_unitary(rng, dim)
        observables.append((u * rng.choice([-1.0, 1.0], dim)) @ u.conj().T)
    projectors = la.observable_projectors(np.stack(observables))
    assert projectors.shape == (6, 2, dim, dim)
    for obs, got in zip(observables, projectors):
        expected = observable_projectors_per_eigenvalue(obs)
        assert np.max(np.abs(got - np.stack([expected[0], expected[1]]))) <= 1e-15
        assert np.allclose(got[0] - got[1], obs, atol=1e-12)


# Seeds of exactly 1 to 8 entropy words, mixed in one stack, and the word-count edges.
SEEDS = st.integers(1, 8).flatmap(lambda words: st.integers(2**(32 * words - 32) * (words > 1),
                                                            2**(32 * words) - 1))
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1, 2**128]


def _assert_default_rng_streams(seeds, generators):
    from numpy.random import SeedSequence

    assert generators.shape == np.shape(seeds) and generators.dtype == object
    for seed, gen in zip(np.ravel(seeds).tolist(), generators.flat):
        expected = np.random.default_rng(seed)
        assert np.array_equal(gen.bit_generator.seed_seq.generate_state(4, np.uint64),
                              SeedSequence(seed).generate_state(4, np.uint64))
        assert gen.bit_generator.state == expected.bit_generator.state
        assert np.array_equal(gen.standard_normal(9), expected.standard_normal(9))
        assert np.array_equal(gen.integers(2**63, size=3), expected.integers(2**63, size=3))


@given(st.lists(SEEDS, min_size=1, max_size=12))
def test_generators_are_default_rng_bit_for_bit(seeds):
    _assert_default_rng_streams(seeds, la.generators(seeds))


def test_generators_at_the_entropy_word_edges():
    _assert_default_rng_streams(EDGE_SEEDS, la.generators(EDGE_SEEDS))
    for seed in EDGE_SEEDS:  # each alone, and as a stack of one
        _assert_default_rng_streams(seed, la.generators(seed))
        _assert_default_rng_streams([seed], la.generators([seed]))
    grid = np.array(EDGE_SEEDS[:4], dtype=object).reshape(2, 2)
    _assert_default_rng_streams(grid, la.generators(grid))
    _assert_default_rng_streams(np.arange(5, 9), la.generators(np.arange(5, 9)))
    # Stacks of 1 to 4 seeds, and on either side of the lane hash's threshold: both paths.
    threshold = la._LANE_HASH_FROM
    for n in sorted({1, 2, 3, 4, threshold - 1, threshold, threshold + 1} - {0}):
        seeds = (EDGE_SEEDS * n)[-n:]
        _assert_default_rng_streams(seeds, la.generators(seeds))


def test_generators_pickle_as_default_rng():
    for seed, gen in zip(EDGE_SEEDS, la.generators(EDGE_SEEDS)):
        expected = np.random.default_rng(seed)
        assert np.array_equal(gen.standard_normal(3), expected.standard_normal(3))
        copied = pickle.loads(pickle.dumps(gen))
        assert copied.bit_generator.seed_seq.entropy == seed
        assert np.array_equal(copied.standard_normal(5), expected.standard_normal(5))


@pytest.mark.parametrize("bad, error", [(-1, ValueError), (-2**70, ValueError), (1.5, TypeError),
                                        (np.float64(3.0), TypeError), ("7", TypeError)])
def test_generators_reject_seeds_as_default_rng_does(bad, error):
    with pytest.raises(error):
        np.random.default_rng(bad)
    with pytest.raises(error):
        la.generators(bad)
    with pytest.raises(error):
        la.generators([3, bad, 2**130])


def test_an_empty_stack_of_generators_has_nothing_to_draw_from():
    assert la.generators([]).shape == (0,)
    with pytest.raises(ValueError, match="no generators to draw from"):
        la.ginibre_stacks(la.generators([]), (2, 2))


def test_numpy_random_is_imported_by_the_first_seeded_call_only():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, eprkit.cli; print('numpy.random' in sys.modules); "
            "eprkit.linalg.generators(3); print('numpy.random' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.nan)])
def test_kraus_map_rejects_non_finite_operators(value):
    # A NaN made the trace-preservation deviation NaN, which no comparison rejected.
    kraus = np.array([np.eye(2), np.zeros((2, 2))], dtype=complex)
    kraus[1, 0, 1] = value
    with pytest.raises(ValueError, match="^Kraus operators have non-finite entries$"):
        la.KrausMap(2, 2, kraus)
    with pytest.raises(ValueError, match="non-finite"):  # also one member of a stack
        la.KrausMap(2, 2, np.stack([np.array([np.eye(2), np.zeros((2, 2))]), kraus]))


def test_kraus_map_names_operators_without_their_axis_k():
    # It once said "Kraus operators of shape (2, 2) do not match (2, 2)".
    with pytest.raises(ValueError, match=re.escape(
            "Kraus operators of shape (2, 2) have no axis k: expected (..., k, 2, 2)")):
        la.KrausMap(2, 2, np.eye(2))
    with pytest.raises(ValueError, match=re.escape(
            "Kraus operators of shape (1, 2, 2) do not match (4, 2)")):
        la.KrausMap(2, 4, np.eye(2)[None])
