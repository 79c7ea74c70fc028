"""EPR functionals, Bell coefficient tables, and the projector-basis bridge.

The six qubit eigenprojectors ``proj(c, w)`` are an overcomplete basis of the
2x2 Hermitian operators, so coefficient tables are not unique.  Two rules are
fixed here:

* ``decompose`` uses the canonical symmetric split: with
  ``F = a0 I + sum_w b_w P_w`` it returns ``xi[c, w] = a0/3 + (-1)^c b_w``
  (factorwise products of the analogous vectors for several qubits).
* ``bell_from_epr`` uses the minimal-support split for single-qubit
  operators: weight ``2|b_w|`` on the sign-matching projector of each axis,
  with the leftover identity weight spread over the two ``w = 1`` labels.
  On projector-plus-shift functionals this reproduces the sparse published
  coefficient tables entrywise.  Multi-qubit operators fall back to the
  canonical rule.

Both rules reconstruct exactly; every consumer of a coefficient table only
relies on reconstruction, so they are interchangeable up to entrywise layout.

Coefficient tables, like correlation slices, are ``LabelGrid`` values over the
slice axes: ``bell_from_epr`` decomposes a functional's operator grid at once,
and ``evaluate_bell`` is one contraction of two grids.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .assemblages import SPECS, LabelGrid, freeze_operators, product_grid

# The scenarios with an activation protocol, i.e. a slice layout.
SCENARIOS = tuple(name for name, spec in SPECS.items() if spec.layout)


@dataclass(frozen=True)
class EPRFunctional:
    """Hermitian operator coefficients of an EPR functional.

    Operator keys follow the scenario's axes: (a, x, y) for bwi, (a, b, x)
    for mdi, (a, x) for channel (dim-4 operators on output (x) Choi-input
    factors).  The keys must cover the full product of their labels per axis,
    and the total magnitude of the entries must be finite, so that no bound
    overflows.  ``bounds`` optionally carries known bound constants by name.
    The checked operators are held once, as the read-only ``grid`` (*label
    counts, d, d) over the sorted ``labels`` of each axis; ``stack`` is that
    grid as (keys, d, d) in key order, and ``operators`` maps each key to its
    view.
    """

    scenario: str
    operators: dict
    bounds: dict = field(default_factory=dict)
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    labels: tuple = field(init=False, repr=False, compare=False)
    grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        n_axes = len(SPECS[self.scenario].axes)
        labels, grid = product_grid(self.operators, freeze_operators(self.operators), n_axes,
                                    "functional has no operator for")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.abs(grid).sum()):
                raise ValueError("operator entries are too large: their total magnitude overflows")
        stack = grid.reshape(-1, *grid.shape[-2:])
        for name, value in (("stack", stack), ("labels", labels), ("grid", grid),
                            ("operators", dict(zip(itertools.product(*labels), stack)))):
            object.__setattr__(self, name, value)
        if not all(np.isfinite(v) for v in self.bounds.values()):
            raise ValueError(f"bound constants must be finite, got {self.bounds}")

    @property
    def dim(self) -> int:
        return self.stack.shape[-1]

    def shifted(self, offset: float) -> "EPRFunctional":
        """Add ``offset * I`` to every operator (bounds metadata dropped)."""
        return EPRFunctional(
            self.scenario, dict(zip(self.operators, self.stack + offset * np.eye(self.dim)))
        )


@dataclass(frozen=True)
class BellCoefficients:
    """Real Bell coefficients on the designated correlation slice.

    Keys: (a, x, y, c, w) for bwi, (a, b, x, c, z) for mdi and
    (a, x, c, d, w, u) for channel.  For an n-qubit resource the c/w entries
    are n-tuples; coefficients outside the designated slice are identically
    zero and never stored.  ``xi`` is a ``LabelGrid`` over the slice axes.
    """

    scenario: str
    xi: LabelGrid
    n: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"resource qubit count n must be a positive integer, got {self.n!r}")
        # c/w labels (plain for one qubit, n-tuples for n) are checked per axis, not per key.
        n_axes, names = len(SPECS[self.scenario].axes), SPECS[self.scenario].slice_axes
        if isinstance(self.xi, LabelGrid):
            lengths, axes = {len(self.xi.labels)}, self.xi.labels
        else:
            lengths, axes = set(map(len, self.xi)), tuple(map(set, zip(*self.xi)))
        qubits = {len(c) if isinstance(c, tuple) else 1 for labels in axes[n_axes:] for c in labels}
        if lengths - {len(names)} or qubits - {self.n}:
            raise ValueError(f"coefficient keys of {sorted(lengths)} labels on "
                             f"{sorted(qubits)} qubits are not {self.n}-qubit labels "
                             f"{names[n_axes:]!r} of the keys {names!r}")
        object.__setattr__(self, "xi", LabelGrid.keyed(self.xi, len(names),
                                                       "coefficient table has no entry for"))


# Row s: canonical projector coefficients of Pauli s (0 = I, then w = Z, X, Y), in
# single_qubit_labels() order: 1/3 everywhere for I, (-1)^c on the labels of axis s.
_PAULI_TO_PROJECTORS = np.array([[1 / 3] * 6] + [
    [float((-1) ** c) if w == s else 0.0 for c in (0, 1) for w in (1, 2, 3)] for s in (1, 2, 3)
])


@functools.cache
def _pauli_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 4^n Pauli strings stacked in kron order, and their projector coefficients."""
    strings = np.stack([la.tensor(*s) for s in itertools.product(
        (la.I2, la.PAULI_Z, la.PAULI_X, la.PAULI_Y), repeat=n)])
    to_projectors = functools.reduce(np.kron, [_PAULI_TO_PROJECTORS] * n)
    for shared in (strings, to_projectors):
        shared.setflags(write=False)
    return strings, to_projectors


def single_qubit_labels():
    return list(itertools.product((0, 1), (1, 2, 3)))


def projector_strings(n: int):
    """(key, labels) of each n-qubit projector string, ``labels`` one (c, w) per qubit.

    Coefficient tables and resource elements key a string by (c, w) for one
    qubit and by (c-tuple, w-tuple) for more.
    """
    for combo in itertools.product(single_qubit_labels(), repeat=n):
        yield (combo[0] if n == 1 else tuple(zip(*combo))), combo


def decompose(f: np.ndarray, n: int | None = None) -> dict:
    """Canonical projector-basis coefficients of a Hermitian operator.

    Keys are (c, w) for one qubit and (c-tuple, w-tuple) otherwise; the table
    is complete (zeros included) and reconstructs ``f`` exactly.
    """
    f = np.asarray(f, dtype=complex)
    dim = f.shape[0]
    if n is None:
        n = int(np.log2(dim))
    if 2**n != dim:
        raise ValueError(f"operator dimension {dim} is not 2**{n}")
    values = _pauli(f, n) @ _pauli_basis(n)[1]  # each Pauli string's projector expansion
    return dict(zip([key for key, _ in projector_strings(n)], values.tolist()))


def _pauli(ops: np.ndarray, n: int) -> np.ndarray:
    """Pauli coefficients tr[f P_s] / 2^n of a stack of n-qubit operators, (..., 4**n)."""
    return np.einsum("sij,...ji->...s", _pauli_basis(n)[0], ops).real / 2**n


def reconstruct(xi: dict, n: int = 1) -> np.ndarray:
    """Inverse of a coefficient table: sum of weighted projector strings."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for key, combo in projector_strings(n):
        if key not in xi:
            raise ValueError(f"missing coefficient label {key}")
        out += xi[key] * la.proj_string(*zip(*combo))
    return out


def sparse_single_qubit_coefficients(ops: np.ndarray) -> np.ndarray:
    """Minimal-support projector coefficients of single-qubit operators: a stack
    (..., 2, 2) gives (..., 6), in ``single_qubit_labels()`` order.

    Each Pauli component contributes twice its magnitude on the projector
    whose sign matches; the identity weight not consumed that way goes onto
    the two Z-axis labels.
    """
    ops = np.asarray(ops, dtype=complex)
    if ops.shape[-2:] != (2, 2):
        raise ValueError("sparse rule is defined for single-qubit operators")
    pauli = _pauli(ops, 1)
    b = pauli[..., 1:]  # the Z, X, Y components, w = 1, 2, 3
    xi = 2 * abs(b)[..., None, :] * np.stack([b > 0, b < 0], axis=-2)  # (..., c, w)
    xi[..., 0] += (pauli[..., 0] - abs(b).sum(-1))[..., None]
    return xi.reshape(*ops.shape[:-2], 6)


def bell_from_epr(f: EPRFunctional) -> BellCoefficients:
    """Bell coefficient table of an EPR functional.

    Each tensor factor of an operator is read out by one resource of the
    scenario's protocol; a Bob-with-input resource spans every factor of its
    operators.  The table evaluates on protocol correlations to 1/4 of the
    functional value for bwi and channel (4^-n for an n-qubit resource, since
    each transposed resource element is half a projector) and exactly the
    functional value for mdi.
    """
    spec = SPECS[f.scenario]
    qubits = int(np.log2(f.dim))
    n, rest = divmod(qubits, len(spec.resources))
    if 2**qubits != f.dim or rest or not n:
        raise ValueError(f"dimension {f.dim} does not split into {len(spec.resources)} "
                         f"equal qubit registers")
    ops = f.grid.reshape(-1, f.dim, f.dim)
    if f.dim == 2:
        table = sparse_single_qubit_coefficients(ops)
    else:  # the canonical rule, in projector_strings order
        table = _pauli(ops, qubits) @ _pauli_basis(qubits)[1]
    # Axes 1 + 2i and 2 + 2i of the table are the (c, w) labels of tensor factor i.
    # Resource r reads the n factors from r n on: its outcome label from their c
    # axes, its setting label from their w axes.
    axes, labels = {}, {}
    for r, pair in enumerate(spec.resources):
        for side, (name, single) in enumerate(zip(pair, ((0, 1), (1, 2, 3)))):
            axes[name] = [1 + side + 2 * i for i in range(r * n, r * n + n)]
            labels[name] = single if n == 1 else tuple(itertools.product(single, repeat=n))
    names = spec.slice_axes[len(spec.axes):]
    table = table.reshape(-1, *(2, 3) * qubits).transpose(0, *(i for k in names for i in axes[k]))
    grid = table.reshape(*f.grid.shape[:-2], *(len(labels[k]) for k in names))
    return BellCoefficients(f.scenario, LabelGrid((*f.labels, *map(labels.get, names)), grid), n)


def evaluate_epr(f: EPRFunctional, assemblage) -> float:
    """tr sum_k F_k sigma_k over the functional's keys."""
    if f.scenario != assemblage.scenario:
        raise ValueError(
            f"scenario mismatch: functional is {f.scenario!r}, "
            f"assemblage is {assemblage.scenario!r}"
        )
    index = {key: i for i, key in enumerate(assemblage.elements)}
    missing = [key for key in f.operators if key not in index]
    if missing:
        raise ValueError(f"assemblage has no element {missing[0]}")
    if f.dim != assemblage.dim:
        raise ValueError(f"dimension mismatch: operators {f.dim}, elements {assemblage.dim}")
    sigma = assemblage.stack[[index[key] for key in f.operators]]
    return float(np.einsum("kij,kji->", f.stack, sigma).real)


def evaluate_bell(xi: BellCoefficients, table) -> float:
    """sum xi * p over the designated slice of a correlation table."""
    if xi.scenario != table.scenario:
        raise ValueError(
            f"scenario mismatch: coefficients are {xi.scenario!r}, "
            f"table is {table.scenario!r}"
        )
    p = table.slice.subgrid(xi.xi.labels, SPECS[xi.scenario].slice_axes,
                            "correlation table has no probability for")
    return float(np.vdot(xi.xi.grid, p.grid))
