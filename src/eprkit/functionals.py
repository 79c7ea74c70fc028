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
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .assemblages import SPECS, freeze_operators

# The scenarios with an activation protocol, i.e. a slice layout.
SCENARIOS = tuple(name for name, spec in SPECS.items() if spec.layout)


@dataclass(frozen=True)
class EPRFunctional:
    """Hermitian operator coefficients of an EPR functional.

    Operator keys follow the scenario's axes: (a, x, y) for bwi, (a, b, x)
    for mdi, (a, x) for channel (dim-4 operators on output (x) Choi-input
    factors).  The keys must cover the full product of their labels per axis.
    ``bounds`` optionally carries known bound constants by name.  The checked
    operators are held as one read-only array ``stack`` in key order;
    ``operators`` maps each key to its view into that stack.
    """

    scenario: str
    operators: dict
    bounds: dict = field(default_factory=dict)
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        n_axes = len(SPECS[self.scenario].axes)
        stack = freeze_operators(self.operators, n_axes)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "operators", dict(zip(self.operators, stack)))
        missing = [key for key in itertools.product(*self.labels()) if key not in self.operators]
        if missing:
            raise ValueError(f"functional has no operator for {missing[0]}")
        if not all(np.isfinite(v) for v in self.bounds.values()):
            raise ValueError(f"bound constants must be finite, got {self.bounds}")

    def labels(self) -> list:
        """The sorted labels of each key axis."""
        return [sorted(set(axis)) for axis in zip(*self.operators)]

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
    zero and never stored.
    """

    scenario: str
    xi: dict
    n: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"resource qubit count n must be a positive integer, got {self.n!r}")
        for key, v in self.xi.items():
            if not math.isfinite(v):
                raise ValueError(f"non-finite coefficient at {key}")
        # c/w labels are plain labels for one qubit and n-tuples for n qubits.
        n_axes, names = len(SPECS[self.scenario].axes), SPECS[self.scenario].slice_axes
        for labels in {key[n_axes:] for key in self.xi}:
            qubits = {len(c) if isinstance(c, tuple) else 1 for c in labels}
            if len(labels) != len(names) - n_axes or qubits != {self.n}:
                raise ValueError(f"coefficient labels {labels} are not {self.n}-qubit labels "
                                 f"{names[n_axes:]!r} of the keys {names!r}")
        object.__setattr__(self, "xi", dict(self.xi))


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
    strings, to_projectors = _pauli_basis(n)
    # Pauli coefficients tr[f P_s] / 2^n, then each string's projector expansion.
    values = (np.einsum("sij,ji->s", strings, f).real / 2**n) @ to_projectors
    return {key: float(v) for (key, _), v in zip(projector_strings(n), values)}


def reconstruct(xi: dict, n: int = 1) -> np.ndarray:
    """Inverse of a coefficient table: sum of weighted projector strings."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for key, combo in projector_strings(n):
        if key not in xi:
            raise ValueError(f"missing coefficient label {key}")
        out += xi[key] * la.proj_string(*zip(*combo))
    return out


def sparse_single_qubit_coefficients(f: np.ndarray) -> dict:
    """Minimal-support projector coefficients of a single-qubit operator.

    Each Pauli component contributes twice its magnitude on the projector
    whose sign matches; the identity weight not consumed that way goes onto
    the two Z-axis labels.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (2, 2):
        raise ValueError("sparse rule is defined for single-qubit operators")
    a0 = float(np.real(np.trace(f))) / 2
    xi = {label: 0.0 for label in single_qubit_labels()}
    consumed = 0.0
    for w in (1, 2, 3):
        b = float(np.real(np.trace(f @ la.PAULI_BY_SETTING[w]))) / 2
        if b != 0.0:
            xi[(0 if b > 0 else 1, w)] += 2 * abs(b)
            consumed += abs(b)
    remainder = a0 - consumed
    xi[(0, 1)] += remainder
    xi[(1, 1)] += remainder
    return xi


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
    resource_labels = spec.slice_axes[len(spec.axes):]
    xi = {}
    for key, op in f.operators.items():
        table = sparse_single_qubit_coefficients(op) if f.dim == 2 else decompose(op)
        for (cs, ws), v in table.items():
            if len(spec.resources) == 1:
                cs, ws = (cs,), (ws,)
            labels = {}
            for (c_name, w_name), c, w in zip(spec.resources, cs, ws, strict=True):
                labels[c_name], labels[w_name] = c, w
            xi[key + tuple(labels[name] for name in resource_labels)] = v
    return BellCoefficients(f.scenario, xi, int(np.log2(f.dim)) // len(spec.resources))


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
    total = 0.0
    for key, v in xi.xi.items():
        if key not in table.slice:
            raise ValueError(f"correlation table has no probability for {key}")
        total += v * table.slice[key]
    return total
