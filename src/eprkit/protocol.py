"""End-to-end simulation of the three activation protocols.

Only the designated slice (Bob's outcome b = 0 at his protocol setting,
written ``*`` in the JSON schema) is materialised, together with the
self-test marginals.  The slice is a ``LabelGrid`` over the slice axes of
the Bell coefficient grids of :mod:`eprkit.functionals`: each simulator
contracts the assemblage and resource grids and reshapes the result into it.

Self-test marginals are synthetic: they are filled from the canonical
saturating strategy, standing in for the device of a real run.  Runs on
file-supplied correlation data are checked against the threshold instead
(see the CLI).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import catalog
from . import linalg as la
from .assemblages import SPECS, LabelGrid, product_grid
from .functionals import (
    BellCoefficients,
    EPRFunctional,
    bell_from_epr,
    evaluate_bell,
    projector_strings,
)

PROB_TOL = 1e-12
EFFECT_TOL = 1e-10


@dataclass(frozen=True)
class ResourceAssemblage:
    """The self-tested resource: mixture of the canonical assemblage and its transpose.

    Elements are r * prod(sigma_tilde) + (1 - r) * prod(sigma_tilde)^T, keyed
    (c, w) for one qubit and (c-tuple, w-tuple) for more; ``stack`` holds them
    in the key order of their grid over the sorted (c, w) ``labels``.
    """

    n: int
    r: float
    elements: dict
    stack: np.ndarray = field(repr=False, compare=False)
    labels: tuple = field(repr=False, compare=False)

    def element(self, c, w) -> np.ndarray:
        return self.elements[(c, w)]

    def keys(self):
        return self.elements.keys()


def make_resource(n: int, r: float) -> ResourceAssemblage:
    """Build the n-qubit resource at mixing parameter r."""
    if n not in (1, 2):
        raise ValueError(f"resource qubit count must be 1 or 2, got {n}")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {r}")
    keys, combos = zip(*projector_strings(n))
    pure = np.stack([la.tensor(*(catalog.sigma_tilde(c, w) for c, w in combo)) for combo in combos])
    labels, grid = product_grid(keys, r * pure + (1 - r) * pure.transpose(0, 2, 1), 2, "missing")
    stack = grid.reshape(-1, *grid.shape[2:])
    return ResourceAssemblage(n, float(r), dict(zip(itertools.product(*labels), stack)), stack,
                              labels)


@dataclass(frozen=True)
class CorrelationTable:
    """Designated-slice probabilities plus self-test marginals for one run.

    ``slice`` is a ``LabelGrid`` over the slice axes; a ``{key: p}`` slice must be the
    full product of its labels, or empty in a table of self-test marginals only.
    """

    scenario: str
    slice: LabelGrid
    selftest: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = LabelGrid.keyed(self.slice, len(SPECS[self.scenario].slice_axes),
                               "correlation table has no probability for")
        object.__setattr__(self, "slice", grid)
        blocks = self.selftest.values()
        p = np.concatenate([grid.grid.ravel(), *(np.fromiter(b.values(), float, len(b))
                                                 for b in blocks)])
        bad = ~((p >= -PROB_TOL) & (p <= 1 + PROB_TOL))  # NaN is out of range too
        if bad.any():
            key = next(itertools.compress(itertools.chain(grid, *blocks), bad))
            raise ValueError(f"probability out of range at {key}: {p[bad][0]}")

    def slice_mass(self) -> LabelGrid:
        """Total slice probability per setting tuple (outcome labels summed out)."""
        spec = SPECS[self.scenario]
        right = spec.layout.partition("|")[2]
        outcomes = tuple(i for i, label in enumerate(spec.slice_axes) if label not in right)
        settings = [labels for i, labels in enumerate(self.slice.labels) if i not in outcomes]
        return LabelGrid(settings, self.slice.grid.sum(outcomes))


def _check_effect(m: np.ndarray, dim: int) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"measurement element must be {dim}x{dim}, got {m.shape}")
    vals = np.linalg.eigvalsh(m)
    if vals[0] < -EFFECT_TOL or vals[-1] > 1 + EFFECT_TOL:
        raise ValueError("measurement element is not a valid effect (0 <= M <= I)")
    return m


# The canonical marginal is a constant: computed once, copied into each table.
_canonical_selftest = functools.cache(catalog.canonical_selftest_marginal)


def _grid(assemblage) -> tuple:
    """An assemblage's labels and its elements in grid order, (keys, d, d)."""
    labels, grid = product_grid(assemblage.elements, assemblage.stack,
                                len(assemblage.spec.axes), "missing element")
    return labels, grid.reshape(-1, *grid.shape[-2:])


def simulate_bwi(assemblage, resource: ResourceAssemblage, measurement=None) -> CorrelationTable:
    """Slice p(a, 0, c | x, y, *, w) = tr[M (sigma_{a|xy} (x) resource_{c|w})]."""
    if assemblage.scenario != "bwi":
        raise ValueError(f"expected a Bob-with-input assemblage, got {assemblage.scenario!r}")
    d = assemblage.dim
    if d != 2**resource.n:
        raise ValueError(f"assemblage dim {d} does not match resource on {resource.n} qubits")
    if measurement is None:
        measurement = la.phi_plus(resource.n)
    m = _check_effect(measurement, d * d).reshape(d, d, d, d)
    labels, sigma = _grid(assemblage)
    # One operand at a time: a single three-operand einsum loops over all six indices at once.
    half = np.einsum("pqrs,irp->iqs", m, sigma)
    p = np.einsum("iqs,jsq->ij", half, resource.stack).real
    return CorrelationTable(
        "bwi", LabelGrid(labels + resource.labels, p), {"bc": dict(_canonical_selftest())},
        {"r": resource.r, "n": resource.n},
    )


def simulate_mdi(assemblage, resource: ResourceAssemblage) -> CorrelationTable:
    """Slice p(a, b, c | x, *, z): the Choi elements contracted with the resource."""
    if assemblage.scenario != "mdi":
        raise ValueError(f"expected an MDI assemblage, got {assemblage.scenario!r}")
    if resource.n != 1:
        raise ValueError("the MDI protocol uses a single-qubit resource")
    labels, choi = _grid(assemblage)
    # 2 tr[R^T J] for every pair of elements J and resource elements R.
    p = 2 * np.einsum("ist,jst->ij", choi, resource.stack).real
    return CorrelationTable(
        "mdi", LabelGrid(labels + resource.labels, p), {"bc": dict(_canonical_selftest())},
        {"r": resource.r},
    )


def simulate_channel(
    assemblage,
    res_in: ResourceAssemblage,
    res_out: ResourceAssemblage,
    measurement=None,
    independent_mixtures: bool = False,
) -> CorrelationTable:
    """Slice p(a, 0, c, d | x, *, *, w, u) of the channel protocol.

    In the certifying mode the two resources must share one mixing parameter
    and the mixture is applied to the aligned pair, i.e. the table is
    r * T(res, res) + (1 - r) * T(res^T, res^T) over the canonical elements.
    ``independent_mixtures`` instead applies each resource's own mixture
    (the product formula); such tables are diagnostic only and are tagged so.
    """
    if assemblage.scenario != "channel":
        raise ValueError(f"expected a channel assemblage, got {assemblage.scenario!r}")
    if res_in.n != 1 or res_out.n != 1:
        raise ValueError("the channel protocol uses single-qubit resources")
    if measurement is None:
        measurement = la.phi_plus(1)
    m = _check_effect(measurement, 4).reshape(2, 2, 2, 2)
    (ax, choi), cw, du = _grid(assemblage), res_in.labels, res_out.labels

    def raw_table(inputs: np.ndarray, outputs: np.ndarray) -> np.ndarray:
        """p[i, j, k] = tr[M (Omega_ij (x) outputs_k)], Omega_ij = element i applied to input j."""
        omega = la.apply_choi(choi[:, None], inputs[None])
        return np.einsum("pqrs,ijrp,ksq->ijk", m, omega, outputs).real

    if independent_mixtures:
        p = raw_table(res_in.stack, res_out.stack)
        meta = {"r_in": res_in.r, "r_out": res_out.r, "diagnostic": True}
    else:
        if res_in.r != res_out.r:
            raise ValueError(
                "certifying runs need a single mixing parameter; "
                "pass independent_mixtures=True for diagnostics"
            )
        r = res_in.r
        pure = np.stack([catalog.sigma_tilde(*key) for key in res_in.keys()])
        flipped = pure.transpose(0, 2, 1)
        p = r * raw_table(pure, pure) + (1 - r) * raw_table(flipped, flipped)
        meta = {"r": r}
    # p[(a, x), (c, w), (d, u)] into the slice order (a, x, c, d, w, u).
    grid = p.reshape(*map(len, (*ax, *cw, *du))).transpose(0, 1, 2, 4, 3, 5)
    selftest = {block: dict(_canonical_selftest()) for block in ("bc", "bd")}
    return CorrelationTable("channel", LabelGrid((*ax, cw[0], du[0], cw[1], du[1]), grid),
                            selftest, meta)


_PROTOCOLS = {
    "bwi": lambda a, r, m, n: simulate_bwi(a, make_resource(n or int(np.log2(a.dim)), r), m),
    "mdi": lambda a, r, m, n: simulate_mdi(a, make_resource(1, r)),
    "channel": lambda a, r, m, n: simulate_channel(a, *[make_resource(1, r)] * 2, m),
}


def simulate(assemblage, r: float, measurement=None, n: int | None = None) -> CorrelationTable:
    """Run the protocol of the assemblage's scenario with the resource at mixing parameter r.

    ``measurement`` replaces the default phi_plus effect (the MDI protocol has
    none).  ``n`` is the resource qubit count of the Bob-with-input protocol
    and defaults to the assemblage's; the others use single-qubit resources.
    """
    if assemblage.scenario not in _PROTOCOLS:
        raise ValueError(f"scenario {assemblage.scenario!r} has no activation protocol")
    return _PROTOCOLS[assemblage.scenario](assemblage, r, measurement, n)


def selftest_marginal(table: CorrelationTable, block: str = "bc") -> dict:
    """The p(b, c | z, w) marginal feeding the self-test functional."""
    if block not in table.selftest:
        raise ValueError(f"correlation table has no self-test block {block!r}")
    marginal = table.selftest[block]
    needed = itertools.product((0, 1), (0, 1), (1, 2, 3, 4), (1, 2, 3))
    missing = [key for key in needed if key not in marginal]
    if missing:
        raise ValueError(f"self-test marginal is missing entries, e.g. {missing[0]}")
    return marginal


def r_sweep(assemblage, functional, r_values, measurement=None) -> list[float]:
    """Bell values across mixing parameters; affinity in r is asserted.

    The affine consistency check compares each value against interpolation
    between the r = 0 and r = 1 endpoints within 1e-10.
    """
    if isinstance(functional, EPRFunctional):
        functional = bell_from_epr(functional)
    if not isinstance(functional, BellCoefficients):
        raise TypeError("functional must be an EPRFunctional or BellCoefficients")

    def run(r: float) -> float:
        return evaluate_bell(functional, simulate(assemblage, r, measurement, functional.n))

    v0, v1 = run(0.0), run(1.0)
    values = []
    for r in r_values:
        v = run(float(r))
        predicted = r * v1 + (1 - r) * v0
        if abs(v - predicted) > 1e-10:
            raise AssertionError(
                f"Bell value is not affine in r at r={r}: {v} vs predicted {predicted}"
            )
        values.append(v)
    return values
