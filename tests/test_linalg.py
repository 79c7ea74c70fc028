import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eprkit import linalg as la
from oracles import (
    apply_map_to_factors,
    conjugation_map,
    partial_trace,
    partial_transpose,
    random_hermitian,
    random_povm_element,
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
    p = la.tensor(la.proj(0, 1), la.proj(0, 2))
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


def test_choi_identity_is_phi_plus():
    assert np.allclose(la.choi(la.identity_map(2)), la.phi_plus())


def test_choi_discard_and_prepare():
    rho0 = np.diag([0.7, 0.3]).astype(complex)
    kraus = tuple(
        np.sqrt(rho0[i, i]) * np.outer(np.eye(2)[:, i], np.eye(2)[j])
        for i in range(2)
        for j in range(2)
    )
    j = la.choi(la.KrausMap(2, 2, kraus))
    assert np.allclose(j, la.tensor(rho0, la.I2 / 2))


def test_choi_of_x_conjugation():
    j = la.choi(conjugation_map(la.PAULI_X))
    xi = la.tensor(la.PAULI_X, la.I2)
    assert np.allclose(j, xi @ la.phi_plus() @ xi)


def test_apply_choi_identity_round_trip():
    rng = np.random.default_rng(5)
    sigma = la.random_density(rng, 2)
    assert np.allclose(la.apply_choi(la.phi_plus(), sigma), sigma)


def test_apply_choi_discard_and_prepare():
    rng = np.random.default_rng(6)
    rho0 = la.random_density(rng, 2)
    sigma = random_hermitian(rng, 2)
    got = la.apply_choi(la.tensor(rho0, la.I2 / 2), sigma)
    assert np.allclose(got, np.trace(sigma) * rho0)


def test_apply_choi_x_conjugation_on_z():
    j = la.choi(conjugation_map(la.PAULI_X))
    assert np.allclose(la.apply_choi(j, la.PAULI_Z), -la.PAULI_Z)


@given(st.integers(0, 2**32 - 1))
def test_apply_choi_matches_kraus_action(seed):
    rng = np.random.default_rng(seed)
    kmap = la.random_channel(rng, 2, 2)
    rho = la.random_density(rng, 2)
    assert np.max(np.abs(la.apply_choi(la.choi(kmap), rho) - kmap(rho))) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_choi_of_tp_map_is_state(seed):
    rng = np.random.default_rng(seed)
    kmap = la.random_channel(rng, 2, 2)
    j = la.choi(kmap)
    assert la.min_eigenvalue(j) >= -1e-10
    assert np.allclose(partial_trace(j, [2, 2], 0), la.I2 / 2, atol=1e-10)
    assert abs(np.trace(j) - 1) < 1e-10


def test_transpose_dual_identity_and_x():
    ident = transpose_dual(la.identity_map(2))
    assert np.allclose(ident.kraus_ops[0], la.I2)
    xdual = transpose_dual(conjugation_map(la.PAULI_X))
    assert np.allclose(xdual.kraus_ops[0], la.PAULI_X)
    rho = la.random_density(np.random.default_rng(0), 2)
    lhs = (la.PAULI_X @ rho @ la.PAULI_X).T
    assert np.allclose(lhs, xdual(rho.T))


def test_transpose_dual_diag_phase():
    u = np.diag([1, 1j]).astype(complex)
    dual = transpose_dual(conjugation_map(u))
    assert np.allclose(dual.kraus_ops[0], np.diag([1, -1j]))
    for seed in range(100):
        rho = la.random_density(np.random.default_rng(seed), 2)
        assert np.max(np.abs((u @ rho @ u.conj().T).T - dual(rho.T))) < 1e-12


@given(st.integers(0, 2**32 - 1))
def test_transpose_dual_property_and_involution(seed):
    rng = np.random.default_rng(seed)
    kmap = la.random_channel(rng, 2, 2)
    dual = transpose_dual(kmap)
    double = transpose_dual(dual)
    rho = la.random_density(rng, 2)
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
        assert np.allclose(la.proj(0, w) + la.proj(1, w), la.I2)
        for c in (0, 1):
            p = la.proj(c, w)
            assert np.max(np.abs(p @ p - p)) < 1e-12


def test_apply_map_to_factors():
    rng = np.random.default_rng(9)
    kmap = la.random_channel(rng, 4, 2)
    state = la.random_density(rng, 16)
    out = apply_map_to_factors(kmap, state, [2, 2, 2, 2], [1, 2])
    assert out.shape == (8, 8)
    assert abs(np.trace(out) - 1) < 1e-10
    direct = sum(
        la.tensor(la.I2, k, la.I2) @ state @ la.tensor(la.I2, k, la.I2).conj().T
        for k in kmap.kraus_ops
    )
    assert np.allclose(out, direct)


def test_random_generators_deterministic():
    a = la.random_channel(np.random.default_rng(123), 2, 2)
    b = la.random_channel(np.random.default_rng(123), 2, 2)
    for ka, kb in zip(a.kraus_ops, b.kraus_ops):
        assert np.array_equal(ka, kb)


def test_random_projective_povm_is_projective():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        effects = la.random_projective_povm(rng, 4)
        total = sum(effects)
        assert np.allclose(total, np.eye(4), atol=1e-10)
        for e in effects:
            assert np.max(np.abs(e @ e - e)) < 1e-10


def test_random_povm_element_is_valid_effect():
    for seed in range(50):
        m = random_povm_element(np.random.default_rng(seed), 4)
        vals = np.linalg.eigvalsh(m)
        assert vals[0] >= -1e-10
        assert vals[-1] <= 1 + 1e-10
