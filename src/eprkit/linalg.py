"""Dense complex linear algebra for few-qubit operators.

Everything in here operates on plain complex ``numpy`` arrays.  Operators are
stored row-major; tensor factors are ordered so that factor 0 is the slowest
index (``numpy.kron`` convention).  Dimensions are powers of 2 up to 16.

Conventions fixed once, used package-wide:

* ``phi_plus(n)`` is the normalised maximally entangled state on n+n qubits,
  so Choi operators of trace-preserving maps have unit trace.
* ``apply_choi`` contracts with the factor ``in_dim`` (2 for a qubit input),
  i.e. ``apply_choi(J, rho) = in_dim * tr_in[(I_out (x) rho^T) J]``.
* Projector labels: ``w = 1 -> Z``, ``w = 2 -> X``, ``w = 3 -> Y``, with the
  projector ``(I + (-1)^c P_w) / 2`` labelled (c, w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_PRESERVING_TOL = 1e-10

I2 = np.eye(2, dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

# Setting label -> Pauli operator (w = 1, 2, 3).
PAULI_BY_SETTING = {1: PAULI_Z, 2: PAULI_X, 3: PAULI_Y}
PAULIS = np.stack([I2, PAULI_Z, PAULI_X, PAULI_Y])  # I, then the settings' Paulis in order
_SIGNS = np.array([-1.0, 1.0])


def hermitian(entries, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate and freeze a Hermitian operator, or a stack of them over leading axes.

    Rejects inputs with non-finite entries, or whose anti-Hermitian part
    exceeds ``tol`` entrywise instead of symmetrising them, so malformed data
    fails loudly.  Returns a read-only complex array.
    """
    m = np.asarray(entries, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"operator must be square, got shape {m.shape}")
    if not np.isfinite(m).all():  # checked first: inf - inf would warn on stderr
        raise ValueError("operator has non-finite entries")
    dev = np.max(np.abs(m - m.conj().swapaxes(-2, -1))) if m.size else 0.0
    if dev > tol:
        raise ValueError(f"operator is not Hermitian within {tol:g} (deviation {dev:.3e})")
    m = m.copy()
    m.setflags(write=False)
    return m


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator, or a stack of them over leading axes.

    Returns ascending eigenvalues and orthonormal eigenvector columns.
    Non-Hermitian input (beyond ``HERMITICITY_TOL`` relative to its largest
    entry, or absolute below 1) is rejected, so rounding that grows with the
    entries passes.
    """
    m = np.asarray(m, dtype=complex)
    dev = np.max(np.abs(m - m.conj().swapaxes(-2, -1)))
    if dev > HERMITICITY_TOL and dev > HERMITICITY_TOL * np.max(np.abs(m)):
        raise ValueError(f"eig_hermitian requires a Hermitian operator (deviation {dev:.3e})")
    return np.linalg.eigh(m)


def eigvalsh(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian operator or stack, read like ``np.linalg.eigvalsh``
    from the diagonal and lower triangle: LAPACK's, but at 2x2 the closed form
    ``a/2 + d/2 -+ hypot(a/2 - d/2, |b|)``, within a few ulps of the norm and free of LAPACK's
    per-matrix cost.  Compare or search with it; print LAPACK's bits."""
    m = np.asarray(m)
    if m.shape[-2:] != (2, 2):
        return np.linalg.eigvalsh(m)
    a, d = m[..., 0, 0].real / 2, m[..., 1, 1].real / 2
    radius = np.hypot(a - d, abs(m[..., 1, 0]))[..., None]
    return (a + d)[..., None] + radius * _SIGNS


def phi_plus(n: int = 1) -> np.ndarray:
    """Normalised maximally entangled state on two n-qubit registers."""
    v = np.eye(2**n, dtype=complex).ravel() / np.sqrt(2**n)
    return np.outer(v, v.conj())


def observable_projectors(obs: np.ndarray) -> np.ndarray:
    """Outcome projectors (..., b, d, d) of a two-outcome +/-1 observable, or of a stack of
    them: outcome b is eigenvalue (-1)^b, and eigenvalues are split by sign."""
    vals, vecs = eig_hermitian(obs)
    p_plus = np.einsum("...ik,...k,...jk->...ij", vecs, vals > 0, vecs.conj())
    return np.stack([p_plus, np.eye(obs.shape[-1]) - p_plus], -3)


@dataclass(frozen=True)
class KrausMap:
    """A channel given by trace-preserving Kraus operators (out_dim x in_dim each).

    ``kraus_ops`` is held as one read-only array (..., k, out_dim, in_dim); its
    leading axes, if any, make it a stack of channels, each checked.
    """

    in_dim: int
    out_dim: int
    kraus_ops: np.ndarray

    def __post_init__(self):
        ops = np.array(self.kraus_ops, dtype=complex, order="C")
        if ops.ndim < 3 or ops.shape[-2:] != (self.out_dim, self.in_dim):
            raise ValueError(
                f"Kraus operators of shape {ops.shape} do not match ({self.out_dim}, {self.in_dim})"
            )
        ops.setflags(write=False)
        object.__setattr__(self, "kraus_ops", ops)
        gram = np.einsum("...kji,...kjl->...il", ops.conj(), ops)
        dev = np.max(np.abs(gram - np.eye(self.in_dim)))
        if dev > TRACE_PRESERVING_TOL:
            raise ValueError(f"map is not trace preserving (deviation {dev:.3e})")

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape[-2:] != (self.in_dim, self.in_dim):
            raise ValueError(f"state of shape {rho.shape} does not match in_dim {self.in_dim}")
        k = self.kraus_ops
        return np.einsum("...koi,...ij,...kpj->...op", k, rho, k.conj())


def apply_choi(j: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Recover the map action from a Choi operator.

    ``j`` lives on out (x) in; the contraction is
    ``in_dim * tr_in[(I_out (x) rho^T) j]``, so that it acts as K on the Choi
    operator ``(K (x) id)(phi_plus)`` of a map K.  Leading axes of ``j`` and
    ``rho`` broadcast against each other, so stacks act in one contraction.
    """
    j, rho = np.asarray(j), np.asarray(rho, dtype=complex)
    in_dim = rho.shape[-1]
    if rho.ndim < 2 or rho.shape[-2] != in_dim or j.ndim < 2 or j.shape[-1] % in_dim:
        raise ValueError(f"Choi shape {j.shape} incompatible with input shape {rho.shape}")
    out_dim = j.shape[-1] // in_dim
    blocks = j.reshape(*j.shape[:-2], out_dim, in_dim, out_dim, in_dim)
    return in_dim * np.einsum("...olpk,...lk->...op", blocks, rho)


# --- random instance generators (deterministic in the passed Generators) ---


def ginibre_stacks(rngs, *shapes, then=None) -> list:
    """Complex Ginibre stacks (*np.shape(rngs), *shape), one per shape in turn, then the
    outputs of ``then(rng)``, stacked alike.  ``rngs`` is one numpy Generator or an
    array-like of them, which draw in turn in row-major order: each makes one
    ``standard_normal`` call (each matrix's real parts, then its imaginary parts), then
    ``then(rng)``.  Only the draws run per generator; the rest runs once over the stack."""
    rngs, sizes = np.asarray(rngs, dtype=object), [2 * math.prod(shape) for shape in shapes]
    if not rngs.size:
        raise ValueError("no generators to draw from")
    total = sum(sizes)
    draws = [(rng.standard_normal(total), *(then(rng) if then else ())) for rng in rngs.flat]
    z, *later = [np.array(part).reshape(rngs.shape + np.shape(part[0])) for part in zip(*draws)]
    out, start = [], 0
    for shape, size in zip(shapes, sizes):
        part = z[..., start:start + size].reshape(*rngs.shape, *shape[:-2], 2, *shape[-2:])
        out.append(part[..., 0, :, :] + 1j * part[..., 1, :, :])
        start += size
    return out + later


def density(g: np.ndarray) -> np.ndarray:
    """The state g g^dagger / tr[g g^dagger] of each matrix of a Ginibre stack."""
    rho = g @ g.conj().swapaxes(-2, -1)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _isometry(g: np.ndarray) -> np.ndarray:
    """The Q factor of the QR decomposition of each matrix of ``g``, with the phase
    ambiguity of QR fixed so that a Ginibre draw gives a well-defined Haar sample."""
    q, r = np.linalg.qr(g)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[..., None, :]


def cut_draw(dim: int, n_outcomes: int):
    """Each generator's draw after its normals for a random projective POVM on ``dim``: the
    n_outcomes - 1 cuts of its basis, or None on dim <= 2, with at most one candidate cut."""
    if not 1 <= n_outcomes <= dim:
        raise ValueError(f"a projective POVM on dimension {dim} cannot have {n_outcomes} outcomes")
    if dim > 2:
        return lambda rng: (rng.choice(np.arange(1, dim), size=n_outcomes - 1, replace=False),)


def projective_povm(g: np.ndarray, n_outcomes: int, cuts=None) -> np.ndarray:
    """Projective POVM effects (..., n_outcomes, dim, dim): the orthonormal basis of each
    Ginibre matrix of ``g`` split into blocks at ``cuts`` (default 1, ..., n_outcomes - 1)."""
    dim = g.shape[-1]
    cuts = np.arange(1, n_outcomes) if cuts is None else np.sort(cuts, -1)
    u = _isometry(g)
    # mask[..., o, j]: basis vector j lies in block o, the blocks split at the cuts.
    block = (np.arange(dim) >= cuts[..., None]).sum(-2)
    mask = block[..., None, :] == np.arange(n_outcomes)[:, None]
    return np.einsum("...ij,...oj,...kj->...oik", u, mask, u.conj())


def random_projective_povm(rngs, dim: int, n_outcomes: int = 2) -> np.ndarray:
    """Projective POVM effects (..., n_outcomes, dim, dim) from a random orthonormal
    basis split into outcome blocks at random cuts.

    Each generator draws a Ginibre matrix, then the n_outcomes - 1 cuts.
    """
    g, *cuts = ginibre_stacks(rngs, (dim, dim), then=cut_draw(dim, n_outcomes))
    return projective_povm(g, n_outcomes, *cuts)


def stinespring(g: np.ndarray, out_dim: int) -> np.ndarray:
    """Unchecked Kraus operators (..., env_dim, out_dim, in_dim) of the isometries of the
    Ginibre matrices ``g`` (..., out_dim * env_dim, in_dim)."""
    if g.shape[-2] < g.shape[-1]:
        raise ValueError("out_dim * env_dim must be at least in_dim for an isometry")
    v = _isometry(g)
    # Row out * env_dim + e of the isometry is row ``out`` of Kraus operator e.
    return v.reshape(*v.shape[:-2], out_dim, -1, v.shape[-1]).swapaxes(-3, -2)
