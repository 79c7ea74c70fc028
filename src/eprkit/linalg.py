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

import functools
import math
import operator

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
    dev = abs(m - m.conj().swapaxes(-2, -1)).max() if m.size else 0.0
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
    dev = abs(m - m.conj().swapaxes(-2, -1)).max()
    if dev > HERMITICITY_TOL and dev > HERMITICITY_TOL * abs(m).max():
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
    centre, radius = _closed_form(m)
    return np.stack([centre - radius, centre + radius], -1)


def min_eigenvalue(m) -> np.ndarray:
    """The least eigenvalue of a Hermitian operator or of each of a stack, ``eigvalsh(m)[..., 0]``
    bit for bit: at 2x2 the closed form's lower value alone."""
    m = np.asarray(m)
    if m.shape[-2:] != (2, 2):
        return np.linalg.eigvalsh(m)[..., 0]
    centre, radius = _closed_form(m)
    return centre - radius


def _closed_form(m: np.ndarray) -> tuple:
    """The centre ``a/2 + d/2`` and radius ``hypot(a/2 - d/2, |b|)`` of a 2x2 stack's spectra."""
    a, d = m[..., 0, 0].real / 2, m[..., 1, 1].real / 2
    return a + d, np.hypot(a - d, abs(m[..., 1, 0]))


@functools.cache
def identity(n: int) -> np.ndarray:
    """The real n x n identity, one read-only array per dimension."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


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


class Frozen:
    """Attributes set once, through ``vars(self)`` in ``__init__``: as on a frozen
    dataclass, setting or deleting one afterwards raises ``FrozenInstanceError``."""

    def __setattr__(self, name, *value):
        from dataclasses import FrozenInstanceError  # only to raise: kept out of start-up
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class KrausMap(Frozen):
    """A channel given by trace-preserving Kraus operators (out_dim x in_dim each).

    ``kraus_ops`` is held as one read-only array (..., k, out_dim, in_dim); its
    leading axes, if any, make it a stack of channels, each checked.
    """

    def __init__(self, in_dim: int, out_dim: int, kraus_ops: np.ndarray):
        ops = np.array(kraus_ops, dtype=complex, order="C")
        if ops.ndim < 3 or ops.shape[-2:] != (out_dim, in_dim):
            raise ValueError(
                f"Kraus operators of shape {ops.shape} do not match ({out_dim}, {in_dim})")
        if not np.isfinite(ops).all():  # a NaN would pass the deviation check below
            raise ValueError("Kraus operators have non-finite entries")
        ops.setflags(write=False)
        vars(self).update(in_dim=in_dim, out_dim=out_dim, kraus_ops=ops)
        gram = np.einsum("...kji,...kjl->...il", ops.conj(), ops)
        dev = abs(gram - identity(in_dim)).max()
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

# numpy's SeedSequence hash (NEP 19): its constants do not depend on the seed.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_M32 = 0xFFFFFFFF
# mix(x, y) = L x - R y mod 2**32, taken as L x + (2**32 - R) y so that no lane borrows.
_MIX_L, _MIX_NEG_R = 0xCA01F9DD, -0x4973F715 & _M32


@functools.cache
def _hash_steps(const: int, mult: int, count: int) -> tuple:
    """The (xor, multiplier) pairs of the first ``count`` steps of one of SeedSequence's hashes."""
    return tuple((const, const := const * mult & _M32) for _ in range(count))


def _seed_states(seeds: list) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of each int s >= 0, as rows (len(seeds),
    4), in one pass.  Each 32-bit word of SeedSequence's pool is one Python int whose 64-bit
    lane i holds it for seed i, so a product with a 32-bit constant stays in its lane and
    masking each lane to its low 32 bits is the hash's mod 2**32.  A seed's entropy is its
    32-bit words, low first, which its lanes hold up to the widest seed's; the pool takes
    the first four (0 past a seed's last word, as SeedSequence pads), and each further word
    mixes in only the lanes of the seeds that have it."""
    if min(seeds) < 0:
        raise ValueError("expected non-negative integer")
    n, n_words = len(seeds), max(4, -(-max(seeds).bit_length() // 32))
    words = np.frombuffer(b"".join(s.to_bytes(4 * n_words, "little") for s in seeds),
                          "<u4").reshape(n, n_words).astype("<u8")
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * n, "little")
    low = _M32 * ones  # the low 32 bits of every lane, which hold the hash's words
    # Source words by index: the pool's four, then the entropy words past the fourth.
    pool = [int.from_bytes(column.tobytes(), "little") for column in words.T]
    # pool[dst] = mix(pool[dst], hashmix(pool[src])), in the lanes of ``has`` only: every
    # pool word into every other, then each further entropy word into every pool word.
    mixes = [(src, dst, low) for src in range(4) for dst in range(4) if src != dst] + [
        (i, dst, int.from_bytes((words[:, i:].any(1) * np.uint64(_M32)).tobytes(), "little"))
        for i in range(4, n_words) for dst in range(4)]
    steps = iter(_hash_steps(_INIT_A, _MULT_A, 4 * n_words))  # one pair per hashmix call
    for i, (xor, mult) in zip(range(4), steps):
        v = (pool[i] ^ xor * ones) * mult & low
        pool[i] = (v ^ v >> 16) & low
    for (src, dst, has), (xor, mult) in zip(mixes, steps):
        v = (pool[src] ^ xor * ones) * mult & low
        v = (_MIX_L * pool[dst] & low) + _MIX_NEG_R * ((v ^ v >> 16) & low) & low
        pool[dst] ^= (v ^ v >> 16 ^ pool[dst]) & has
    out = []  # generate_state's 32-bit words, each uint64's low half first
    for i, (xor, mult) in enumerate(_hash_steps(_INIT_B, _MULT_B, 8)):
        v = (pool[i % 4] ^ xor * ones) * mult & low
        out.append((v ^ v >> 16) & low)
    state = b"".join((out[k] | out[k + 1] << 32).to_bytes(8 * n, "little") for k in (0, 2, 4, 6))
    return np.frombuffer(state, "<u8").reshape(4, n).T.astype(np.uint64, order="C")


@functools.cache
def _pcg64():
    """numpy's Generator and PCG64, and a SeedSequence stand-in that hands PCG64 fixed state
    words; numpy.random is imported by the first seeded call."""
    from numpy.random import PCG64, Generator, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, seed, words):
            self.seed, self.words = seed, words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("only PCG64's four uint64 state words are stored")
            return self.words

        def __reduce__(self):  # pickled generators carry the SeedSequence it stands in for
            return SeedSequence, (self.seed,)

    return Generator, PCG64, StateWords, SeedSequence


# From this many seeds on, one lane hash over all of them (``_seed_states``, a fixed count of
# Python-level steps) seeds faster than numpy's SeedSequence run in C once per seed.
_LANE_HASH_FROM = 3


def generators(seeds) -> np.ndarray:
    """``np.random.default_rng(s)`` for every int s >= 0 of ``seeds``, an int or an
    array-like of them, as an object array of shape np.shape(seeds): the same streams bit
    for bit.  SeedSequence's hash runs per seed in numpy's C code, or, from
    ``_LANE_HASH_FROM`` seeds on, once over all seeds (``_seed_states``).  A negative seed
    raises ValueError and a non-integer TypeError, as ``default_rng`` does.  Their
    ``seed_seq`` holds only PCG64's state words, so they cannot ``spawn``, and pickles as
    ``SeedSequence(s)``."""
    seeds = np.asarray(seeds, dtype=object)
    out = np.empty(seeds.shape, dtype=object)
    if seeds.size:
        generator, pcg64, state_words, seed_sequence = _pcg64()
        flat = [operator.index(s) for s in seeds.flat]
        states = _seed_states(flat) if len(flat) >= _LANE_HASH_FROM else [
            seed_sequence(s).generate_state(4, np.uint64) for s in flat]
        out.flat = [generator(pcg64(state_words(*row))) for row in zip(flat, states)]
    return out


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
    z, *later = [(a := np.array(part)).reshape(rngs.shape + a.shape[1:]) for part in zip(*draws)]
    out, start = [], 0
    for shape, size in zip(shapes, sizes):
        part = z[..., start:start + size].reshape(*rngs.shape, *shape[:-2], 2, -1)
        # One copy interleaves each entry's real and imaginary part, numpy's complex layout.
        out.append(part.swapaxes(-1, -2).copy().view(complex).reshape(*rngs.shape, *shape))
        start += size
    return out + later


def density(g: np.ndarray) -> np.ndarray:
    """The state g g^dagger / tr[g g^dagger] of each matrix of a Ginibre stack."""
    rho = g @ g.conj().swapaxes(-2, -1)
    return rho / rho.trace(0, -2, -1).real[..., None, None]


def _isometry(g: np.ndarray) -> np.ndarray:
    """The Q factor of the QR decomposition of each matrix of ``g``, with the phase
    ambiguity of QR fixed so that a Ginibre draw gives a well-defined Haar sample."""
    q, r = np.linalg.qr(g)
    diagonal = r.diagonal(0, -2, -1)
    return q * (diagonal / abs(diagonal))[..., None, :]


def cut_draw(dim: int, n_outcomes: int):
    """Each generator's draw after its normals for a random projective POVM on ``dim``: the
    n_outcomes - 1 cuts of its basis, or None on dim <= 2, with at most one candidate cut."""
    if not 1 <= n_outcomes <= dim:
        raise ValueError(f"a projective POVM on dimension {dim} cannot have {n_outcomes} outcomes")
    if dim > 2:
        return lambda rng: (rng.choice(np.arange(1, dim), size=n_outcomes - 1, replace=False),)


def projective_povm(g: np.ndarray, n_outcomes: int, cuts=None) -> np.ndarray:
    """Projective POVM effects (..., n_outcomes, dim, dim): the orthonormal basis of each
    Ginibre matrix of ``g`` split into blocks at ``cuts`` (default 1, ..., n_outcomes - 1),
    n_outcomes - 1 distinct integers in 1..dim - 1 per matrix, or ValueError."""
    dim = g.shape[-1]
    if cuts is None:
        cuts = np.arange(1, n_outcomes)
    else:
        cuts = np.sort(cuts, -1)
        if (cuts.dtype.kind not in "iu" or cuts.shape[-1] != n_outcomes - 1 or cuts.size and (
                cuts.min() < 1 or cuts.max() >= dim or (cuts[..., 1:] == cuts[..., :-1]).any())):
            raise ValueError(f"a projective POVM with {n_outcomes} outcomes on dimension {dim} "
                             f"needs {n_outcomes - 1} distinct integer cuts in 1..{dim - 1}")
    u = _isometry(g)
    if n_outcomes == dim:  # one basis vector j per block: effect j is u_j u_j^dagger
        return np.einsum("...ij,...kj->...jik", u, u.conj())
    # mask[..., o, j]: basis vector j lies in block o, the blocks split at the cuts.
    block = (np.arange(dim) >= cuts[..., None]).sum(-2)
    mask = block[..., None, :] == np.arange(n_outcomes)[:, None]
    return np.einsum("...ij,...oj,...kj->...oik", u, mask, u.conj())


def stinespring(g: np.ndarray, out_dim: int) -> np.ndarray:
    """Unchecked Kraus operators (..., env_dim, out_dim, in_dim) of the isometries of the
    Ginibre matrices ``g`` (..., out_dim * env_dim, in_dim)."""
    if g.shape[-2] < g.shape[-1]:
        raise ValueError("out_dim * env_dim must be at least in_dim for an isometry")
    v = _isometry(g)
    # Row out * env_dim + e of the isometry is row ``out`` of Kraus operator e.
    return v.reshape(*v.shape[:-2], out_dim, -1, v.shape[-1]).swapaxes(-3, -2)
