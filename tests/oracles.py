"""Reference implementations that the tests compare the library against, and the
random keyed inputs they are compared on."""

import itertools
import json
import math
from operator import itemgetter

import numpy as np

from eprkit import catalog
from eprkit import linalg as la
from eprkit import serialize as ser
from eprkit.assemblages import CONTAINERS, SPECS, QuantumRealisation
from eprkit.functionals import (SCENARIOS, BellCoefficients, EPRFunctional, decompose,
                                projector_strings)
from eprkit.protocol import CorrelationTable


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


def identity_map(dim: int = 2) -> la.KrausMap:
    return la.KrausMap(dim, dim, (np.eye(dim, dtype=complex),))


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


def proj(c: int, w: int) -> np.ndarray:
    """Eigenprojector of the Pauli labelled by ``w`` with eigenvalue (-1)^c."""
    if c not in (0, 1) or w not in (1, 2, 3):
        raise ValueError(f"projector labels out of range: c={c}, w={w}")
    return (la.I2 + (-1) ** c * la.PAULI_BY_SETTING[w]) / 2


def reconstruct(xi: dict, n: int = 1) -> np.ndarray:
    """Inverse of a coefficient table: sum of weighted projector strings."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for key, combo in projector_strings(n):
        if key not in xi:
            raise ValueError(f"missing coefficient label {key}")
        out += xi[key] * la.tensor(*(proj(c, w) for c, w in combo))
    return out


def shifted(f: EPRFunctional, offset: float) -> EPRFunctional:
    """``f`` with ``offset * I`` added to every operator (bounds metadata dropped)."""
    return EPRFunctional(f.scenario, dict(zip(f.operators, f.stack + offset * np.eye(f.dim))))


def transpose_assemblage_per_key(assemblage):
    """Elementwise transpose, one key at a time, at the assemblage's alphabet sizes."""
    return type(assemblage)({key: m.T for key, m in assemblage.elements.items()},
                            **{f"n_{axis}": n for axis, n in assemblage.sizes.items()})


def evaluate_epr_per_key(f: EPRFunctional, assemblage) -> float:
    """tr sum_k F_k sigma_k, each element found by its key's row in the assemblage's stack."""
    index = {key: i for i, key in enumerate(assemblage.elements)}
    missing = [key for key in f.operators if key not in index]
    if missing:
        raise ValueError(f"assemblage has no element {missing[0]}")
    if f.dim != assemblage.dim:
        raise ValueError(f"dimension mismatch: operators {f.dim}, elements {assemblage.dim}")
    sigma = assemblage.stack[[index[key] for key in f.operators]]
    return float(np.einsum("kij,kji->", f.stack, sigma).real)


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


def ginibre(rngs, rows: int, cols: int) -> np.ndarray:
    """A complex Ginibre stack (*np.shape(rngs), rows, cols), one draw per generator."""
    return la.ginibre_stacks(rngs, (rows, cols))[0]


def random_density(rngs, dim: int) -> np.ndarray:
    """The state of one Ginibre draw per generator."""
    return la.density(ginibre(rngs, dim, dim))


def random_projective_povm(rngs, dim: int, n_outcomes: int = 2) -> np.ndarray:
    """Projective POVM effects (..., n_outcomes, dim, dim) from a random orthonormal
    basis split into outcome blocks at random cuts, one per generator.

    Each generator draws a Ginibre matrix, then the n_outcomes - 1 cuts.
    """
    g, *cuts = la.ginibre_stacks(rngs, (dim, dim), then=la.cut_draw(dim, n_outcomes))
    return la.projective_povm(g, n_outcomes, *cuts)


def masked_projective_effects(u: np.ndarray, n_outcomes: int, cuts) -> np.ndarray:
    """Projective effects (..., n_outcomes, dim, dim) of the orthonormal columns of ``u``
    split into blocks at the sorted ``cuts``: effect o is ``u diag(mask_o) u^dagger``, one
    three-operand contraction with the 0/1 mask of block o."""
    block = (np.arange(u.shape[-1]) >= np.asarray(cuts)[..., None]).sum(-2)
    mask = block[..., None, :] == np.arange(n_outcomes)[:, None]
    return np.einsum("...ij,...oj,...kj->...oik", u, mask, u.conj())


def random_channel(rngs, in_dim: int, out_dim: int, env_dim: int = 2) -> la.KrausMap:
    """A random isometry channel (Stinespring dilation with the given environment), one
    per generator."""
    g = ginibre(rngs, out_dim * env_dim, in_dim)
    return la.KrausMap(in_dim, out_dim, la.stinespring(g, out_dim))


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


def sample_per_call(scenario: str, seeds, alphabets=None, n: int = 1):
    """The stacked sampler with one generator call per drawn matrix: the state, Alice's
    POVMs for x = 1, 2, ..., then Bob's processing, each from the ``random_*``
    generators here, every generator drawing in turn.  Returns the labels, the unchecked
    grid and the realisation, like ``assemblages._sample``."""
    spec = SPECS[scenario]
    rngs = np.asarray(np.frompyfunc(np.random.default_rng, 1, 1)(seeds), dtype=object)
    sizes = {**spec.default_sizes, **(alphabets or {})}
    db = 2**n
    state = random_density(rngs, 2 * db)
    effects = random_projective_povm(rngs[..., None].repeat(sizes["x"], -1), 2, sizes["a"])
    povms = dict(zip(range(1, sizes["x"] + 1), np.moveaxis(effects, -4, 0)))
    if scenario == "bwi":
        kraus = random_channel(rngs[..., None].repeat(sizes["y"], -1), db, db).kraus_ops
        bob = {"channels": {y: la.KrausMap(db, db, k)
                            for y, k in enumerate(np.moveaxis(kraus, -4, 0))}}
    elif scenario == "mdi":
        bob = {"instrument": random_projective_povm(rngs, 2 * db, sizes["b"])}
    else:
        bob = {"channel": random_channel(rngs, 2 * db, 2)}
    qr = QuantumRealisation(scenario, state, povms, **bob)
    return (*spec.realize(qr), qr)


def realisation_arrays(qr) -> dict:
    """Every array of a realisation, by name."""
    arrays = {"state": qr.state, **{f"povm {x}": e for x, e in qr.povms.items()}}
    arrays.update({f"channel {y}": c.kraus_ops for y, c in (qr.channels or {}).items()})
    if qr.instrument is not None:
        arrays["instrument"] = np.asarray(qr.instrument)
    if qr.channel is not None:
        arrays["channel"] = qr.channel.kraus_ops
    return arrays


def conditional_states_einsum(qr) -> np.ndarray:
    """sigma_{a|x} on their (..., a, x) grid by one einsum over the full index form."""
    effects = np.stack([np.asarray(e) for e in qr.povms.values()], -4)
    da, db = effects.shape[-1], qr.bob_dim
    rho = qr.state.reshape(*qr.state.shape[:-2], da, db, da, db)
    return np.einsum("...xaji,...ikjl->...axkl", effects, rho)


def bwi_grid_einsum(qr) -> np.ndarray:
    """The BwI elements (..., a, x, y, d, d): per channel, its superoperator S_opij and
    one einsum of S with the conditional states."""
    sigma = conditional_states_einsum(qr)
    return np.stack([np.einsum("...axij,...opij->...axop", sigma,
                               np.einsum("...koi,...kpj->...opij", k, k.conj()))
                     for k in (c.kraus_ops for c in qr.channels.values())], -3)


def bwi_slices_einsum(sigma: np.ndarray, resource_stack: np.ndarray, m: np.ndarray) -> np.ndarray:
    """p[..., i, j] = tr[M (sigma_i (x) R_j)] for the elements sigma (..., i, d, d), by two
    einsums over the full index form."""
    d = sigma.shape[-1]
    half = np.einsum("pqrs,...irp->...iqs", m.reshape(d, d, d, d), sigma)
    return np.einsum("...iqs,jsq->...ij", half, resource_stack).real


def mdi_ptp_probabilities_per_key(method: str) -> dict:
    """p(a, b | x, y) of the MDI controlled-transpose example, one kron and trace per key."""
    n_effects = {0: (la.I2 + la.PAULI_Y) / 3, 1: (2 * la.I2 - la.PAULI_Y) / 3}
    phi = la.phi_plus()
    out = {}
    for a, x, y in itertools.product((0, 1), (1, 2, 3), (0, 1)):
        m = (la.I2 + (-1) ** a * catalog.ALICE_PAULI[x]) / 2
        for b, n_b in n_effects.items():
            if method == "transposed-measurement":
                p = np.trace(la.tensor(m, n_b.T if y == 1 else n_b) @ phi)
            else:  # the partial transpose of phi_plus on Bob's factor
                state = partial_transpose(phi, [2, 2], 1) if y else phi
                p = np.trace(la.tensor(m, n_b) @ state)
            out[(a, b, x, y)] = float(np.real(p))
    return out


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = ginibre(rng, dim, dim)
    return (g + g.conj().T) / 2


def classical_bound_lapack(f: EPRFunctional, eigvalsh=np.linalg.eigvalsh):
    """The value, response and (y, d, d) operators of the first minimising deterministic
    strategy in ``itertools.product`` order, every strategy's value from one ``eigvalsh``
    call (LAPACK's by default): each operator summed over x in order, each value over y."""
    (a_vals, x_vals, y_vals), grid = f.labels, f.grid
    choices = np.array(list(itertools.product(range(len(a_vals)), repeat=len(x_vals))))
    operators = grid[choices[:, 0], 0]
    for j in range(1, len(x_vals)):
        operators = operators + grid[choices[:, j], j]
    least = eigvalsh(operators)[..., 0]
    values = 0
    for y in range(len(y_vals)):
        values = values + least[:, y]
    i = int(np.argmin(values))  # the first minimum
    return values[i], {x: a_vals[c] for x, c in zip(x_vals, choices[i])}, operators[i]


def nonpositive_projector(e: np.ndarray) -> np.ndarray:
    """``bounds._nonpositive_projector`` from the two eigenvalue tests as bools: c_0 is
    ``lower / 2 + upper / 2`` and the factor of e_vec / |e_vec| is ``(lower != upper) / -2``,
    joined by ``concatenate``."""
    tiny = np.finfo(float).smallest_subnormal
    e = e / np.maximum(np.abs(e).max(-1, keepdims=True), tiny)
    norm = np.hypot.reduce(e[..., 1:], axis=-1, keepdims=True)
    lower, upper = e[..., :1] <= norm, e[..., :1] <= -norm
    unit = e[..., 1:] / np.maximum(norm, tiny)
    return np.concatenate([lower / 2 + upper / 2, unit * ((lower != upper) / -2)], -1)


def random_povm_element(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random effect 0 <= M <= I (uniform spectrum in a Haar-random basis)."""
    u = random_unitary(rng, dim)
    vals = rng.uniform(0.0, 1.0, size=dim)
    return (u * vals) @ u.conj().T


def resource_per_key(n: int, r: float) -> tuple[dict, tuple]:
    """The n-qubit resource one key at a time: r K + (1 - r) K^T for K the Kronecker
    product of sigma_tilde over the qubits of each key, keyed in the product order of
    the sorted (c, w) labels, and those labels."""
    elements = {}
    for key, combo in projector_strings(n):
        k = la.tensor(*(catalog.sigma_tilde(c, w) for c, w in combo))
        elements[key] = r * k + (1 - r) * k.T
    labels = tuple(tuple(sorted(set(axis))) for axis in zip(*elements))
    return {key: elements[key] for key in itertools.product(*labels)}, labels


def observable_projectors_per_eigenvalue(obs: np.ndarray) -> dict:
    """Outcome projectors {0, 1} of one +/-1 observable, one eigenvector at a time."""
    vals, vecs = la.eig_hermitian(obs)
    p_plus = np.zeros_like(obs, dtype=complex)
    for i, lam in enumerate(vals):
        if lam > 0:
            v = vecs[:, i : i + 1]
            p_plus += v @ v.conj().T
    return {0: p_plus, 1: np.eye(obs.shape[0], dtype=complex) - p_plus}


def selftest_marginal_per_entry() -> np.ndarray:
    """p(b, c | z, w) of the canonical strategy on its (b, c, z, w) grid, one trace each."""
    marginal = np.empty((2, 2, 4, 3))
    for z, obs in catalog.selftest_observables().items():
        projectors = observable_projectors_per_eigenvalue(obs)
        for b, c, w in itertools.product((0, 1), (0, 1), (1, 2, 3)):
            marginal[b, c, z - 1, w - 1] = np.real(np.trace(projectors[b] @ catalog.sigma_tilde(c, w)))
    return marginal


def channel_grid_einsum(qr) -> np.ndarray:
    """The channel realisation's elements (..., a, x, 2 out, 2 out), by one four-operand
    einsum of the Kraus operators, the conditional states and phi_plus."""
    sigma, db, out = qr.conditional_states(), qr.bob_dim, qr.channel.out_dim
    kraus = qr.channel.kraus_ops.reshape(*qr.channel.kraus_ops.shape[:-1], db, 2)
    phi = la.phi_plus(1).reshape(2, 2, 2, 2)
    j = np.einsum("...kosc,...axst,cdef,...kpte->...axodpf", kraus, sigma, phi, kraus.conj())
    return j.reshape(*sigma.shape[:-2], 2 * out, 2 * out)


def steering_effect(c: int, w: int) -> np.ndarray:
    """Charlie effect whose steering reproduces sigma_tilde: all plus signs."""
    return proj(c, w)


def dumps(doc) -> str:
    """The stdlib writer of the JSON documents: indent 2, sorted keys, ASCII, no NaN."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                      default=ser._json_default) + "\n"


def matrix_from_json_per_entry(rows) -> np.ndarray:
    """A matrix from rows of [re, im] pairs of JSON numbers (``ser._number``), one ``complex``
    per entry, checked Hermitian."""
    try:
        m = np.array([[complex(ser._number(re), ser._number(im)) for re, im in row]
                      for row in rows])
    except (TypeError, ValueError) as exc:
        raise ser.SchemaError(f"malformed matrix entry: {exc}") from exc
    try:
        return la.hermitian(m)
    except ValueError as exc:
        raise ser.SchemaError(str(exc)) from exc


def grid_parsed_per_read(block: dict, layout: str, names: str, read):
    """``ser._grid`` with every key split and every label parsed again on each read: the sorted
    labels and ``read`` of the values in ``key_texts`` order on their grid, or None."""
    try:
        labels = tuple(tuple(sorted({ser._parse_label(text) for text in set(column)}))
                       for column in ser._split(list(block), layout, names))
        keys = math.prod(map(len, labels)) == len(block) and ser.key_texts(labels, layout, names)
        if not (keys and keys.keys() == block.keys()):
            return None
        values = read(list(map(block.__getitem__, keys)))
    except (TypeError, ValueError, OverflowError, IndexError, AttributeError):
        return None
    return labels, values.reshape(*map(len, labels), *values.shape[1:])


def block_from_json_per_key(block: dict, layout: str, names: str, read=ser._number) -> dict:
    """The {label tuple: ``read`` of its value} entries of a keyed block, one key at a time:
    each key's fields checked against ``layout``, then its labels, then its value."""
    pattern = layout.replace("|", ",|,").split(",")
    labels = itemgetter(*[pattern.index(name) for name in names])
    fixed = [i for i, field in enumerate(pattern) if not field.isalpha()]
    out = {}
    for text, value in block.items():
        fields = text.replace("|", ",|,").split(",")
        if len(fields) != len(pattern) or any(fields[i] != pattern[i] for i in fixed):
            raise ser.SchemaError(f"key {text!r} does not match the layout {layout!r}")
        try:
            out[tuple(map(ser._parse_label, labels(fields)))] = read(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ser.SchemaError(f"malformed key {text!r}: {exc}") from exc
    return out


def assemblage_from_json_per_key(doc: dict):
    """An assemblage document read one element key and one matrix at a time (``ser._matrix``
    reads one matrix; its own reference is ``matrix_from_json_per_entry``)."""
    scenario = doc.get("scenario")
    axes = ser._spec(scenario).axes
    elements = block_from_json_per_key(doc.get("elements", {}), ",".join(axes), axes,
                                       ser._matrix)
    alphabets = doc.get("alphabets", {})
    kwargs = {f"n_{name}": alphabets[name] for name in axes if name in alphabets}
    return CONTAINERS[scenario](elements, **kwargs)


def functional_from_json_per_key(doc: dict):
    """A functional document read one operator or coefficient key at a time."""
    form = doc.get("form")
    if form not in ("epr", "bell"):
        raise ser.SchemaError(f"unknown functional form {form!r}")
    spec = ser._spec(doc["scenario"], SCENARIOS)
    if form == "epr":
        operators = block_from_json_per_key(doc.get("operators", {}), ",".join(spec.axes),
                                            spec.axes, ser._matrix)
        return EPRFunctional(doc["scenario"], operators, dict(doc.get("bounds", {})))
    xi = block_from_json_per_key(doc.get("coefficients", {}), ",".join(spec.slice_axes),
                                 spec.slice_axes)
    return BellCoefficients(doc["scenario"], xi, doc.get("n", 1))


def table_from_json_per_key(doc: dict) -> CorrelationTable:
    """A correlation table document read one probability key at a time."""
    spec = ser._spec(doc.get("scenario"), SCENARIOS)
    slc = block_from_json_per_key(doc.get("slice", {}), spec.layout, spec.slice_axes)
    selftest = {name: block_from_json_per_key(block, *ser._SELFTEST)
                for name, block in doc.get("selftest", {}).items()}
    return CorrelationTable(doc["scenario"], slc, selftest, dict(doc.get("meta", {})))
