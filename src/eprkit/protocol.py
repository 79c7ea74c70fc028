"""End-to-end simulation of the three activation protocols.

Only the designated slice (Bob's outcome b = 0 at his protocol setting,
written ``*`` in the JSON schema) is materialised, together with the
self-test marginals.  The slice is a ``LabelGrid`` over the slice axes of
the Bell coefficient grids of :mod:`eprkit.functionals`: each simulator
contracts the assemblage's grid, built once per assemblage, with the
resource grids and reshapes the result into it.  Each self-test marginal is
a read-only ``LabelGrid`` over (b, c, z, w).

Self-test marginals are synthetic: every simulated table shares the one
read-only marginal of the canonical saturating strategy, standing in for
the device of a real run.  Runs on file-supplied correlation data are
checked against the threshold instead (see the CLI).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import catalog
from . import linalg as la
from .assemblages import SPECS, LabelGrid, ReadOnlyDict

PROB_TOL = 1e-12
EFFECT_TOL = 1e-10


class ResourceAssemblage(la.Frozen):
    """The self-tested resource: mixture of the canonical assemblage and its transpose.

    Elements are r * prod(sigma_tilde) + (1 - r) * prod(sigma_tilde)^T, keyed
    (c, w) for one qubit and (c-tuple, w-tuple) for more, on their read-only
    ``grid`` over the sorted (c, w) ``labels``; ``stack`` and ``elements`` view it.
    """

    stack = property(lambda self: self.grid.reshape(-1, *self.grid.shape[-2:]))
    elements = functools.cached_property(lambda self: ReadOnlyDict(zip(
        itertools.product(*self.labels), self.stack)))

    def __init__(self, n: int, r: float, labels: tuple, grid: np.ndarray):
        vars(self).update(n=n, r=r, labels=labels, grid=grid)


def make_resource(n: int, r: float) -> ResourceAssemblage:
    """Build the n-qubit resource at mixing parameter r."""
    if n not in (1, 2):
        raise ValueError(f"resource qubit count must be 1 or 2, got {n}")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {r}")
    labels, pure = catalog.canonical_resource_grid(n)
    grid = r * pure + (1 - r) * pure.swapaxes(-1, -2)
    grid.setflags(write=False)
    return ResourceAssemblage(n, float(r), labels, grid)


class CorrelationTable(la.Frozen):
    """Designated-slice probabilities plus self-test marginals for one run.

    ``slice`` is a ``LabelGrid`` over the slice axes, and each ``selftest`` block
    one over (b, c, z, w); a ``{key: p}`` block must be the full product of its
    labels, and only the slice may be empty, in a table of self-test marginals only.
    ``selftest`` and ``meta`` are held as read-only copies, empty by default.  Every block is
    range-checked but the canonical self-test marginal of ``catalog``, which lies in range.
    """

    def __init__(self, scenario: str, slice: LabelGrid, selftest: dict | None = None,
                 meta: dict | None = None):
        grid = LabelGrid.keyed(slice, len(SPECS[scenario].slice_axes),
                               "correlation table has no probability for")
        selftest = ReadOnlyDict({
            name: LabelGrid.keyed(block, 4, "self-test marginal has no probability for")
            for name, block in (selftest or {}).items()})
        vars(self).update(scenario=scenario, slice=grid, selftest=selftest,
                          meta=ReadOnlyDict(meta or {}))
        blocks = [block for block in selftest.values()
                  if block is not catalog.canonical_selftest_marginal()]
        _check_probabilities(
            np.concatenate([grid.grid.ravel(), *(block.grid.ravel() for block in blocks)]),
            itertools.chain(grid, *blocks))

    def slice_mass(self) -> LabelGrid:
        """Total slice probability per setting tuple (outcome labels summed out)."""
        spec = SPECS[self.scenario]
        right = spec.layout.partition("|")[2]
        outcomes = tuple(i for i, label in enumerate(spec.slice_axes) if label not in right)
        settings = [labels for i, labels in enumerate(self.slice.labels) if i not in outcomes]
        return LabelGrid(settings, self.slice.grid.sum(outcomes))


def _check_probabilities(p: np.ndarray, keys) -> None:
    """ValueError naming the first of ``keys`` (one per entry of ``p``, in order) whose
    probability lies outside [0, 1] by more than PROB_TOL; NaN is out of range too."""
    inside = (p >= -PROB_TOL) & (p <= 1 + PROB_TOL)
    if not inside.all():
        key = next(itertools.compress(keys, ~inside.ravel()))
        raise ValueError(f"probability out of range at {key}: {p[~inside][0]}")


def _check_effect(m, n: int) -> np.ndarray:
    """``m`` checked as an effect on two n-qubit registers; None is phi_plus, checked once."""
    if m is None:
        return _phi_plus_effect(n)
    m, dim = np.asarray(m, dtype=complex), 4**n
    if m.shape != (dim, dim):
        raise ValueError(f"measurement element must be {dim}x{dim}, got {m.shape}")
    vals = np.linalg.eigvalsh(m)
    if vals[0] < -EFFECT_TOL or vals[-1] > 1 + EFFECT_TOL:
        raise ValueError("measurement element is not a valid effect (0 <= M <= I)")
    return m


@functools.cache
def _phi_plus_effect(n: int) -> np.ndarray:
    return _check_effect(la.hermitian(la.phi_plus(n)), n)  # a read-only copy


def bwi_slices(labels, sigma, resource: ResourceAssemblage, measurement=None):
    """The slice labels and p(a, 0, c | x, y, *, w) = tr[M (sigma_{a|xy} (x) resource_{c|w})]
    on its grid, for BwI elements ``sigma`` on their grid (..., a, x, y, d, d) over
    ``labels``: one contraction and one range check for a whole stack of assemblages."""
    d = sigma.shape[-1]
    if d != 2**resource.n:
        raise ValueError(f"assemblage dim {d} does not match resource on {resource.n} qubits")
    lead = sigma.shape[:-5]
    # p_ij = sum M[(p, q), (r, s)] sigma_i[r, p] R_j[s, q]: a product over (r, p) with M's
    # axes ordered (r, p), (q, s), then one over (q, s), as einsums of the flattened operands
    # (``@`` would round differently in the last bits; see ``conditional_states``).
    m = _check_effect(measurement, resource.n).reshape(d, d, d, d).transpose(2, 0, 1, 3)
    half = np.einsum("in,nm->im", sigma.reshape(-1, d * d), m.reshape(d * d, d * d))
    p = np.einsum("im,jm->ij", half, resource.stack.swapaxes(-1, -2).reshape(-1, d * d)).real
    labels = (*map(tuple, labels), *resource.labels)
    p = p.reshape(*lead, *map(len, labels))
    _check_probabilities(p, itertools.product(*map(range, lead), *labels))
    return labels, p


def simulate_bwi(assemblage, resource: ResourceAssemblage, measurement=None) -> CorrelationTable:
    """Slice p(a, 0, c | x, y, *, w) = tr[M (sigma_{a|xy} (x) resource_{c|w})]."""
    if assemblage.scenario != "bwi":
        raise ValueError(f"expected a Bob-with-input assemblage, got {assemblage.scenario!r}")
    return CorrelationTable(
        "bwi", LabelGrid(*bwi_slices(*assemblage.grid, resource, measurement)),
        {"bc": catalog.canonical_selftest_marginal()}, {"r": resource.r, "n": resource.n})


def simulate_mdi(assemblage, resource: ResourceAssemblage) -> CorrelationTable:
    """Slice p(a, b, c | x, *, z): the Choi elements contracted with the resource."""
    if assemblage.scenario != "mdi":
        raise ValueError(f"expected an MDI assemblage, got {assemblage.scenario!r}")
    if resource.n != 1:
        raise ValueError("the MDI protocol uses a single-qubit resource")
    labels, choi = assemblage.grid
    # 2 tr[R^T J] for every pair of elements J and resource elements R.
    p = 2 * np.einsum("ist,jst->ij", choi.reshape(-1, *choi.shape[-2:]), resource.stack).real
    return CorrelationTable(
        "mdi", LabelGrid(labels + resource.labels, p),
        {"bc": catalog.canonical_selftest_marginal()}, {"r": resource.r},
    )


def simulate_channel(assemblage, res_in: ResourceAssemblage, res_out: ResourceAssemblage,
                     measurement=None) -> CorrelationTable:
    """Slice p(a, 0, c, d | x, *, *, w, u) of the channel protocol.

    The two resources must share one mixing parameter r, and the mixture is
    applied to the aligned pair, i.e. the table is
    r * T(res, res) + (1 - r) * T(res^T, res^T) over the canonical elements.
    """
    if assemblage.scenario != "channel":
        raise ValueError(f"expected a channel assemblage, got {assemblage.scenario!r}")
    if res_in.n != 1 or res_out.n != 1:
        raise ValueError("the channel protocol uses single-qubit resources")
    m = _check_effect(measurement, 1).reshape(2, 2, 2, 2)
    if res_in.r != res_out.r:
        raise ValueError("the channel protocol needs one mixing parameter for both resources")
    (ax, _), cw, du = assemblage.grid, res_in.labels, res_out.labels

    def raw_table(states: np.ndarray) -> np.ndarray:
        """p[i, j, k] = tr[M (Omega_ij (x) states_k)], Omega_ij = element i applied to states_j."""
        omega = la.apply_choi(assemblage.stack[:, None], states[None])
        return np.einsum("pqrs,ijrp,ksq->ijk", m, omega, states).real

    pure = catalog.canonical_resource_grid(1)[1].reshape(-1, 2, 2)
    p = res_in.r * raw_table(pure) + (1 - res_in.r) * raw_table(pure.transpose(0, 2, 1))
    # p[(a, x), (c, w), (d, u)] into the slice order (a, x, c, d, w, u).
    grid = p.reshape(*map(len, (*ax, *cw, *du))).transpose(0, 1, 2, 4, 3, 5)
    selftest = dict.fromkeys(("bc", "bd"), catalog.canonical_selftest_marginal())
    return CorrelationTable("channel", LabelGrid((*ax, cw[0], du[0], cw[1], du[1]), grid),
                            selftest, {"r": res_in.r})


_PROTOCOLS = {
    "bwi": lambda a, r, m: simulate_bwi(a, make_resource(int(np.log2(a.dim)), r), m),
    "mdi": lambda a, r, m: simulate_mdi(a, make_resource(1, r)),
    "channel": lambda a, r, m: simulate_channel(a, *[make_resource(1, r)] * 2, m),
}


def simulate(assemblage, r: float, measurement=None) -> CorrelationTable:
    """Run the protocol of the assemblage's scenario with the resource at mixing parameter r.

    ``measurement`` replaces the default phi_plus effect, whose outcome is the slice's
    fixed ``0``; the MDI slice has none, so its protocol rejects one.  The Bob-with-input
    resource takes the assemblage's qubit count; the others are single-qubit resources.
    """
    if assemblage.scenario not in _PROTOCOLS:
        raise ValueError(f"scenario {assemblage.scenario!r} has no activation protocol")
    if measurement is not None and "0" not in SPECS[assemblage.scenario].layout:
        raise ValueError(f"the {assemblage.scenario} protocol takes no measurement")
    return _PROTOCOLS[assemblage.scenario](assemblage, r, measurement)


def selftest_marginal(table: CorrelationTable) -> LabelGrid:
    """The p(b, c | z, w) marginal feeding the self-test functional, at its labels."""
    if "bc" not in table.selftest:
        raise ValueError("correlation table has no self-test block 'bc'")
    return table.selftest["bc"].subgrid(catalog.SELFTEST_LABELS, "bczw",
                                        "self-test marginal has no probability for")
