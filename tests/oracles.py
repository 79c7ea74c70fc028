"""Reference implementations that the tests compare the library against, and the
random keyed inputs they are compared on."""

import itertools
import json
from operator import itemgetter

import numpy as np

from eprkit import linalg as la
from eprkit import serialize as ser
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
    )


def min_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(np.asarray(m, dtype=complex))[0])


def choi(kmap: la.KrausMap) -> np.ndarray:
    """Choi operator J = (K (x) id)(phi_plus) on out (x) in factors, one Kraus operator
    at a time.

    Uses the normalised entangled state, so trace-preserving maps give
    unit-trace Choi operators and ``tr_out J = I / in_dim``.
    """
    d = kmap.in_dim
    n = int(np.log2(d))
    if 2**n != d:
        raise ValueError(f"in_dim must be a power of 2, got {d}")
    phi = la.phi_plus(n)
    ops = [la.tensor(k, np.eye(d)) for k in kmap.kraus_ops]
    out = np.zeros((kmap.out_dim * d, kmap.out_dim * d), dtype=complex)
    for f in ops:
        out += f @ phi @ f.conj().T
    return out


def _random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """The Q factor of a Ginibre draw, QR's phases fixed."""
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random unitary."""
    return _random_isometry(rng, dim, dim)


def _per_seed_povm(rng, dim, n_outcomes):
    """A random orthonormal basis split into outcome blocks at random cuts, one block
    at a time."""
    u = random_unitary(rng, dim)
    cuts = sorted(rng.choice(np.arange(1, dim), size=n_outcomes - 1, replace=False))
    return [u[:, block] @ u[:, block].conj().T for block in np.split(np.arange(dim), cuts)]


def _per_seed_channel(rng, in_dim, out_dim, env_dim=2):
    """The Kraus operators of a random isometry, one environment state at a time."""
    v = _random_isometry(rng, out_dim * env_dim, in_dim)
    return [v[[e + out * env_dim for out in range(out_dim)], :] for e in range(env_dim)]


def random_quantum_per_seed(scenario: str, seed: int, alphabets=None, n: int = 1):
    """The seeded random quantum sampler one seed, one draw and one element at a time.

    Returns the realisation as a dict (state, Alice's effects per x, and Bob's
    Kraus operators per y, instrument effects or channel Kraus operators under
    ``bob``) and the elements keyed like the scenario's container.
    """
    rng = np.random.default_rng(seed)
    sizes = {**SPECS[scenario].default_sizes, **(alphabets or {})}
    db = 2**n
    g = rng.standard_normal((2 * db, 2 * db)) + 1j * rng.standard_normal((2 * db, 2 * db))
    state = g @ g.conj().T
    state = state / np.trace(state).real
    povms = {x: _per_seed_povm(rng, 2, sizes["a"]) for x in range(1, sizes["x"] + 1)}
    if scenario == "bwi":
        bob = {y: _per_seed_channel(rng, db, db) for y in range(sizes["y"])}
    elif scenario == "mdi":
        bob = _per_seed_povm(rng, 2 * db, sizes["b"])
    else:
        bob = _per_seed_channel(rng, 2 * db, 2)

    def sigma(a, x):
        return partial_trace(la.tensor(povms[x][a], np.eye(db)) @ state, [2, db], 0)

    elements = {}
    for a, x in itertools.product(range(sizes["a"]), povms):
        if scenario == "bwi":
            for y, kraus in bob.items():
                elements[(a, x, y)] = sum(k @ sigma(a, x) @ k.conj().T for k in kraus)
        elif scenario == "mdi":
            # J[i, k] = tr[E_b (sigma_{a|x} (x) |i><k|)] / 2 on Bob's qubit input B_in.
            units = np.eye(2)
            for b, effect in enumerate(bob):
                elements[(a, b, x)] = np.array(
                    [[np.trace(effect @ la.tensor(sigma(a, x), np.outer(units[i], units[k])))
                      for k in range(2)] for i in range(2)]) / 2
        else:
            gamma = la.KrausMap(2 * db, 2, tuple(bob))
            elements[(a, x)] = apply_map_to_factors(
                gamma, la.tensor(sigma(a, x), la.phi_plus(1)), [db, 2, 2], [0, 1])
    return {"state": state, "povms": povms, "bob": bob}, elements


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = la.ginibre(rng, dim, dim)
    return (g + g.conj().T) / 2


def random_povm_element(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random effect 0 <= M <= I (uniform spectrum in a Haar-random basis)."""
    u = random_unitary(rng, dim)
    vals = rng.uniform(0.0, 1.0, size=dim)
    return (u * vals) @ u.conj().T


def steering_effect(c: int, w: int) -> np.ndarray:
    """Charlie effect whose steering reproduces sigma_tilde: all plus signs."""
    return la.proj(c, w)


def dumps(doc) -> str:
    """The stdlib writer of the JSON documents: indent 2, sorted keys, ASCII, no NaN."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                      default=ser._json_default) + "\n"


def matrix_from_json_per_entry(rows) -> np.ndarray:
    """A matrix from rows of [re, im] pairs, one ``complex`` per entry, checked Hermitian."""
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise ser.SchemaError(f"malformed matrix entry: {exc}") from exc
    try:
        return la.hermitian(m)
    except ValueError as exc:
        raise ser.SchemaError(str(exc)) from exc


def block_from_json_per_key(block: dict, layout: str, names: str) -> dict:
    """The {label tuple: probability} entries of a probability block, one key at a time."""
    pattern = layout.replace("|", ",|,").split(",")
    labels = itemgetter(*[pattern.index(name) for name in names])
    fixed = itemgetter(*[i for i, field in enumerate(pattern) if not field.isalpha()])
    out = {}
    for text, p in block.items():
        fields = text.replace("|", ",|,").split(",")
        if len(fields) != len(pattern) or fixed(fields) != fixed(pattern):
            raise ser.SchemaError(f"key {text!r} does not match the layout {layout!r}")
        try:
            out[tuple(map(ser._parse_label, labels(fields)))] = float(p)
        except ValueError as exc:
            raise ser.SchemaError(f"malformed key {text!r}: {exc}") from exc
    return out
