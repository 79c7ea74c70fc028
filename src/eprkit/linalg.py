"""Dense complex linear algebra for few-qubit operators.

Everything in here operates on plain complex ``numpy`` arrays.  Operators are
stored row-major; tensor factors are ordered so that factor 0 is the slowest
index (``numpy.kron`` convention).  Dimensions are powers of 2 up to 16.

Conventions fixed once, used package-wide:

* ``phi_plus(n)`` is the normalised maximally entangled state on n+n qubits,
  so Choi operators of trace-preserving maps have unit trace.
* ``apply_choi`` contracts with the factor ``in_dim`` (2 for a qubit input),
  i.e. ``apply_choi(J, rho) = in_dim * tr_in[(I_out (x) rho^T) J]``.
* Projector labels: ``w = 1 -> Z``, ``w = 2 -> X``, ``w = 3 -> Y``, with
  ``proj(c, w) = (I + (-1)^c P_w) / 2``.
"""

from __future__ import annotations

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


def min_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=complex))[0])


def proj(c: int, w: int) -> np.ndarray:
    """Eigenprojector of the Pauli labelled by ``w`` with eigenvalue (-1)^c."""
    if c not in (0, 1) or w not in (1, 2, 3):
        raise ValueError(f"projector labels out of range: c={c}, w={w}")
    return (I2 + (-1) ** c * PAULI_BY_SETTING[w]) / 2


def proj_string(cs, ws) -> np.ndarray:
    """Tensor product of single-qubit projectors, factor i labelled (cs[i], ws[i])."""
    return tensor(*(proj(c, w) for c, w in zip(cs, ws)))


def phi_plus(n: int = 1) -> np.ndarray:
    """Normalised maximally entangled state on two n-qubit registers."""
    d = 2**n
    v = np.zeros(d * d, dtype=complex)
    for k in range(d):
        v[k * d + k] = 1.0
    v /= np.sqrt(d)
    return np.outer(v, v.conj())


def observable_projectors(obs: np.ndarray) -> dict[int, np.ndarray]:
    """Outcome projectors {0, 1} of a two-outcome +/-1 observable.

    Outcome b corresponds to eigenvalue (-1)^b; eigenvalues are split by sign.
    """
    vals, vecs = eig_hermitian(obs)
    p_plus = np.zeros_like(obs, dtype=complex)
    for i, lam in enumerate(vals):
        if lam > 0:
            v = vecs[:, i : i + 1]
            p_plus += v @ v.conj().T
    return {0: p_plus, 1: np.eye(obs.shape[0], dtype=complex) - p_plus}


@dataclass(frozen=True)
class KrausMap:
    """A channel given by trace-preserving Kraus operators (out_dim x in_dim each)."""

    in_dim: int
    out_dim: int
    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        for k in ops:
            if k.shape != (self.out_dim, self.in_dim):
                raise ValueError(
                    f"Kraus operator shape {k.shape} does not match "
                    f"({self.out_dim}, {self.in_dim})"
                )
        object.__setattr__(self, "kraus_ops", ops)
        dev = np.max(np.abs(sum(k.conj().T @ k for k in ops) - np.eye(self.in_dim)))
        if dev > TRACE_PRESERVING_TOL:
            raise ValueError(f"map is not trace preserving (deviation {dev:.3e})")

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.in_dim, self.in_dim):
            raise ValueError(f"state of shape {rho.shape} does not match in_dim {self.in_dim}")
        out = np.zeros((self.out_dim, self.out_dim), dtype=complex)
        for k in self.kraus_ops:
            out += k @ rho @ k.conj().T
        return out


def identity_map(dim: int = 2) -> KrausMap:
    return KrausMap(dim, dim, (np.eye(dim, dtype=complex),))


def choi(kmap: KrausMap) -> np.ndarray:
    """Choi operator J = (K (x) id)(phi_plus) on out (x) in factors.

    Uses the normalised entangled state, so trace-preserving maps give
    unit-trace Choi operators and ``tr_out J = I / in_dim``.
    """
    d = kmap.in_dim
    n = int(np.log2(d))
    if 2**n != d:
        raise ValueError(f"in_dim must be a power of 2, got {d}")
    phi = phi_plus(n)
    ops = [tensor(k, np.eye(d)) for k in kmap.kraus_ops]
    out = np.zeros((kmap.out_dim * d, kmap.out_dim * d), dtype=complex)
    for f in ops:
        out += f @ phi @ f.conj().T
    return out


def apply_choi(j: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Recover the map action from a Choi operator.

    ``j`` lives on out (x) in; the contraction is
    ``in_dim * tr_in[(I_out (x) rho^T) j]`` so that
    ``apply_choi(choi(K), rho) == K(rho)``.  Leading axes of ``j`` and
    ``rho`` broadcast against each other, so stacks act in one contraction.
    """
    j, rho = np.asarray(j), np.asarray(rho, dtype=complex)
    in_dim = rho.shape[-1]
    if rho.ndim < 2 or rho.shape[-2] != in_dim or j.ndim < 2 or j.shape[-1] % in_dim:
        raise ValueError(f"Choi shape {j.shape} incompatible with input shape {rho.shape}")
    out_dim = j.shape[-1] // in_dim
    blocks = j.reshape(*j.shape[:-2], out_dim, in_dim, out_dim, in_dim)
    return in_dim * np.einsum("...olpk,...lk->...op", blocks, rho)


# --- random instance generators (deterministic in the passed Generator) ---


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = ginibre(rng, dim, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, dim, dim))
    # Fix the phase ambiguity of QR so the draw is a well-defined Haar sample.
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_projective_povm(rng: np.random.Generator, dim: int, n_outcomes: int = 2) -> list:
    """Projective POVM from a random orthonormal basis split into outcome blocks."""
    u = random_unitary(rng, dim)
    cuts = sorted(rng.choice(np.arange(1, dim), size=n_outcomes - 1, replace=False))
    blocks = np.split(np.arange(dim), cuts)
    effects = []
    for block in blocks:
        v = u[:, block]
        effects.append(v @ v.conj().T)
    return effects


def random_channel(rng: np.random.Generator, in_dim: int, out_dim: int, env_dim: int = 2) -> KrausMap:
    """Random isometry channel (Stinespring dilation with the given environment)."""
    if out_dim * env_dim < in_dim:
        raise ValueError("out_dim * env_dim must be at least in_dim for an isometry")
    g = ginibre(rng, out_dim * env_dim, in_dim)
    q, r = np.linalg.qr(g)
    v = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    kraus = []
    for e in range(env_dim):
        rows = [e + out * env_dim for out in range(out_dim)]
        kraus.append(v[rows, :])
    return KrausMap(in_dim, out_dim, tuple(kraus))
