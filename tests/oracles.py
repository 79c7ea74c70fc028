"""Reference implementations that the tests compare the library against, and the
random keyed inputs they are compared on."""

import itertools

import numpy as np

from eprkit import linalg as la
from eprkit.assemblages import SPECS
from eprkit.functionals import decompose


def apply_map_to_factors(kmap: la.KrausMap, state: np.ndarray, dims, targets) -> np.ndarray:
    """Apply ``kmap`` to contiguous tensor factors ``targets`` of ``state``, one
    Kraus operator at a time; the targeted factors become one factor of
    dimension ``kmap.out_dim`` in their position."""
    dims = list(dims)
    targets = sorted(targets)
    if targets != list(range(targets[0], targets[-1] + 1)):
        raise ValueError("target factors must be contiguous")
    d_target = int(np.prod([dims[i] for i in targets]))
    if d_target != kmap.in_dim:
        raise ValueError(f"target factors have dim {d_target}, map expects {kmap.in_dim}")
    d_left = int(np.prod(dims[: targets[0]]))
    d_right = int(np.prod(dims[targets[-1] + 1 :]))
    out = 0
    for k in kmap.kraus_ops:
        full = la.tensor(np.eye(d_left), k, np.eye(d_right))
        out = out + full @ state @ full.conj().T
    return out


def sparse_single_qubit_per_key(f: np.ndarray) -> dict:
    """The minimal-support rule one Pauli axis at a time, keyed (c, w)."""
    a0 = float(np.real(np.trace(f))) / 2
    xi = {(c, w): 0.0 for c in (0, 1) for w in (1, 2, 3)}
    consumed = 0.0
    for w in (1, 2, 3):
        b = float(np.real(np.trace(f @ la.PAULI_BY_SETTING[w]))) / 2
        if b != 0.0:
            xi[(0 if b > 0 else 1, w)] += 2 * abs(b)
            consumed += abs(b)
    for c in (0, 1):
        xi[(c, 1)] += a0 - consumed
    return xi


def bell_from_epr_per_key(f) -> dict:
    """Bell coefficients of an EPR functional one operator and one table entry at a time."""
    spec = SPECS[f.scenario]
    xi = {}
    for key, op in f.operators.items():
        table = sparse_single_qubit_per_key(op) if f.dim == 2 else decompose(op)
        for (cs, ws), v in table.items():
            if len(spec.resources) == 1:
                cs, ws = (cs,), (ws,)
            labels = {}
            for (c_name, w_name), c, w in zip(spec.resources, cs, ws, strict=True):
                labels[c_name], labels[w_name] = c, w
            xi[key + tuple(labels[name] for name in spec.slice_axes[len(spec.axes):])] = v
    return xi


def evaluate_bell_per_key(xi: dict, table: dict) -> float:
    """sum xi * p, one coefficient at a time."""
    total = 0.0
    for key, v in xi.items():
        if key not in table:
            raise ValueError(f"correlation table has no probability for {key}")
        total += v * table[key]
    return total


def slice_mass_per_key(scenario: str, table: dict) -> dict:
    """Slice probability per setting tuple, accumulated one entry at a time."""
    spec = SPECS[scenario]
    right = spec.layout.partition("|")[2]
    settings = [i for i, label in enumerate(spec.slice_axes) if label in right]
    masses: dict = {}
    for key, p in table.items():
        g = tuple(key[i] for i in settings)
        masses[g] = masses.get(g, 0.0) + p
    return masses


def random_slice_labels(rng, scenario: str, n: int) -> list:
    """Random alphabets (1 to 3 labels) for the element axes of ``scenario``, then the
    n-qubit labels of its resource axes: the label lists of a slice grid."""
    spec = SPECS[scenario]
    labels = [tuple(range(1, k + 1)) if axis in spec.settings else tuple(range(k))
              for axis, k in zip(spec.axes, rng.integers(1, 4, len(spec.axes)))]
    outcomes = {pair[0] for pair in spec.resources}
    for name in spec.slice_axes[len(spec.axes):]:
        single = (0, 1) if name in outcomes else (1, 2, 3)
        labels.append(single if n == 1 else tuple(itertools.product(single, repeat=n)))
    return labels


def shuffled_table(rng, labels, value) -> dict:
    """A {key: value()} table over the full product of ``labels``, in shuffled key order."""
    keys = list(itertools.product(*labels))
    return {keys[i]: value() for i in rng.permutation(len(keys))}


def _as_factors(m: np.ndarray, subsystem_dims) -> np.ndarray:
    dims = list(subsystem_dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"subsystem dims {dims} do not match operator of shape {m.shape}")
    return np.asarray(m, dtype=complex).reshape(dims + dims)


def partial_trace(m: np.ndarray, subsystem_dims, traced_index: int) -> np.ndarray:
    """Trace out one tensor factor; the remaining factors keep their order."""
    dims = list(subsystem_dims)
    t = _as_factors(m, dims)
    n = len(dims)
    t = np.trace(t, axis1=traced_index, axis2=n + traced_index)
    rest = int(np.prod([d for i, d in enumerate(dims) if i != traced_index]))
    return t.reshape(rest, rest)


def partial_transpose(m: np.ndarray, subsystem_dims, transposed_index: int) -> np.ndarray:
    """Transpose one tensor factor in place; involutive."""
    dims = list(subsystem_dims)
    t = _as_factors(m, dims)
    n = len(dims)
    axes = list(range(2 * n))
    axes[transposed_index], axes[n + transposed_index] = (
        axes[n + transposed_index],
        axes[transposed_index],
    )
    total = int(np.prod(dims))
    return t.transpose(axes).reshape(total, total)


def conjugation_map(u: np.ndarray) -> la.KrausMap:
    u = np.asarray(u, dtype=complex)
    return la.KrausMap(u.shape[1], u.shape[0], (u,))


def transpose_dual(kmap: la.KrausMap) -> la.KrausMap:
    """The trace-preserving map Psi with (Phi(rho))^T = Psi(rho^T).

    Kraus operators are the entrywise conjugates B_k = (A_k^dagger)^T.
    """
    return la.KrausMap(
        kmap.in_dim,
        kmap.out_dim,
        tuple(k.conj() for k in kmap.kraus_ops),
        trace_preserving=kmap.trace_preserving,
    )


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = la.ginibre(rng, dim, dim)
    return (g + g.conj().T) / 2


def random_povm_element(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random effect 0 <= M <= I (uniform spectrum in a Haar-random basis)."""
    u = la.random_unitary(rng, dim)
    vals = rng.uniform(0.0, 1.0, size=dim)
    return (u * vals) @ u.conj().T


def steering_effect(c: int, w: int) -> np.ndarray:
    """Charlie effect whose steering reproduces sigma_tilde: all plus signs."""
    return la.proj(c, w)
