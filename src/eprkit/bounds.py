"""Bounds on Bob-with-input functionals and the self-test functional value.

The classical bound is exact: with a deterministic response f for Alice, the
hidden-variable states may be chosen per (strategy, Bob input) as minimal
eigenvectors, so the local minimum is
``min_f sum_y lambda_min(sum_x F_{f(x), x, y})`` and the enumeration over
responses is exhaustive.  It runs over chunks of strategies, one ``eigvalsh``
per chunk, keeping the first minimising strategy in ``itertools.product`` order.

The no-signalling number here is a certificate-style lower bound, not the
exact polytope minimum: ``sum_{x,y} min_a lambda_min(F_{axy})`` is valid for
every non-signalling assemblage but tight only for favourable spectra, and
the report says so.

The seesaw keeps Bob's processing fixed to the identity and alternates exact
state and measurement updates, so every iterate is a quantum-feasible value;
it brackets, never computes, the quantum bound.  All restarts advance as one
stack over a leading restart axis, which a restart leaves when it stops.

The self-test value I_E is one dot product of a marginal's (b, c, z, w)
grid with constant weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .assemblages import LabelGrid, QuantumRealisation
from .catalog import SELFTEST_LABELS, SELFTEST_SIGNS
from .functionals import EPRFunctional

ENUMERATION_GUARD = 10**6
_CHUNK = 256  # strategies per batched eigvalsh in classical_bound


@dataclass(frozen=True)
class DeterministicStrategy:
    """A deterministic Alice response x -> a with its per-input operators."""

    response: dict
    operators: dict  # y -> sum_x F_{response[x], x, y}


@dataclass(frozen=True)
class BoundReport:
    kind: str
    value: float
    witness: object = None
    guaranteed_tight: bool = True
    note: str = ""
    iterations: int = 0
    restarts: int = 0
    trace: tuple = field(default_factory=tuple)
    per_restart: tuple = field(default_factory=tuple)  # (final value, iterations) per restart


def _functional_grid(f: EPRFunctional):
    if f.scenario != "bwi":
        raise ValueError("bounds are implemented for Bob-with-input functionals")
    return f.labels, f.grid


def classical_bound(f: EPRFunctional) -> BoundReport:
    """Exact minimum over local-hidden-state models, by strategy enumeration."""
    (a_vals, x_vals, y_vals), grid = _functional_grid(f)
    n_a, n_x = len(a_vals), len(x_vals)
    n_strategies = n_a**n_x
    if n_strategies > ENUMERATION_GUARD:
        raise ValueError(f"{n_strategies} deterministic strategies exceed the enumeration guard")
    # Strategy i answers setting j with base-n_a digit j of i: itertools.product order.
    places = n_a ** np.arange(n_x - 1, -1, -1)
    best = np.inf, None, None  # value, choices, operators of the first minimising strategy
    for start in range(0, n_strategies, _CHUNK):
        choices = np.arange(start, min(start + _CHUNK, n_strategies))[:, None] // places % n_a
        operators = grid[choices[:, 0], 0]  # (chunk, y, d, d): sum_x F_{choice(x), x, y}
        for j in range(1, n_x):
            operators += grid[choices[:, j], j]
        values = sum(np.linalg.eigvalsh(operators)[..., 0].T)  # over y in order, per strategy
        i = values.argmin()  # the first minimum of the chunk
        if values[i] < best[0]:
            best = values[i], choices[i], operators[i]
    value, choices, operators = best
    witness = None if choices is None else DeterministicStrategy(
        {x: a_vals[c] for x, c in zip(x_vals, choices)}, dict(zip(y_vals, operators)))
    return BoundReport("classical", float(value), witness=witness)


def ns_lower_bound(f: EPRFunctional) -> BoundReport:
    """Certificate lower bound over all non-signalling assemblages.

    Per (x, y) the outcome traces are a subnormalised distribution, so the
    functional dominates sum_{x,y} min_a lambda_min(F_{axy}).
    """
    _, grid = _functional_grid(f)
    value = np.linalg.eigvalsh(grid)[..., 0].min(0).sum()
    return BoundReport(
        "ns_certificate",
        float(value),
        guaranteed_tight=False,
        note="lower bound only; tightness requires a matching assemblage",
    )


def seesaw_quantum(f: EPRFunctional, seed: int = 0, restarts: int = 10,
                   max_iterations: int = 500, rel_tol: float = 1e-10) -> BoundReport:
    """Alternating minimisation over (state, Alice POVMs); Bob channels identity.

    The value sequence of each restart is monotone non-increasing; the report
    keeps the best restart and its realisation as a quantum-achievable witness,
    and the final value and iteration count of every restart in order.
    """
    if restarts < 1:
        raise ValueError(f"the seesaw needs at least one restart, got {restarts}")
    if max_iterations < 1:
        raise ValueError(f"the seesaw needs at least one iteration, got {max_iterations}")
    (a_vals, x_vals, y_vals), grid = _functional_grid(f)
    if a_vals != (0, 1):
        raise ValueError("the seesaw measurement step needs a binary Alice alphabet")
    db = f.dim
    summed = grid.sum(2)  # (a, x, d, d): sum_y F_{axy}
    root = np.random.default_rng(seed)
    rngs = [np.random.default_rng(root.integers(2**63)) for _ in range(restarts)]
    # Every restart's POVMs (r, x, a, 2, 2), last ground vector and value trace.
    povms = la.random_projective_povm([[rng] * len(x_vals) for rng in rngs], 2)
    grounds = np.empty((restarts, 2 * db), dtype=complex)
    traces = [[] for _ in range(restarts)]
    active = np.arange(restarts)  # the restarts still iterating, stacked on the leading axis
    for iteration in range(max_iterations):
        # h_r = sum_{a,x} M_{a|x} (x) S_{ax}
        h = np.einsum("rxaij,axkl->rikjl", povms[active], summed).reshape(-1, 2 * db, 2 * db)
        ground = la.eig_hermitian(h)[1][..., 0]
        # With rho the ground projector and psi its vector as a (2, d) matrix,
        # every tr_B[(I (x) S_{ax}) rho] is psi S_{ax}^T psi^dagger.
        psi = ground.reshape(-1, 2, db)
        conditioned = np.einsum("rim,axkm,rjk->raxij", psi, summed, psi.conj())
        # Measurement step: per x, put outcome 0 on the nonpositive eigenspace
        # of the conditioned operator difference (ties go to outcome 0).
        dvals, dvecs = la.eig_hermitian(conditioned[:, 0] - conditioned[:, 1])
        kept = dvecs * (dvals <= 0)[..., None, :]
        m0 = kept @ kept.conj().swapaxes(-2, -1)
        povms[active] = step = np.stack([m0, np.eye(2) - m0], axis=2)
        grounds[active] = ground
        # tr[(M (x) S) rho] = tr[M tr_B((I (x) S) rho)], so the new value needs no new h.
        values = np.einsum("rxaij,raxji->r", step, conditioned).real
        for r, value in zip(active.tolist(), values.tolist()):
            traces[r].append(value)
        if iteration:  # a restart stops once its last two values agree within rel_tol
            previous = np.array([traces[r][-2] for r in active])
            converged = np.abs(previous - values) <= rel_tol * np.maximum(1.0, np.abs(previous))
            active = active[~converged]
            if not active.size:
                break
    per_restart = tuple((trace[-1], len(trace)) for trace in traces)
    best = min(range(restarts), key=lambda r: per_restart[r][0])  # the first minimum
    return BoundReport(
        "seesaw", per_restart[best][0], witness=QuantumRealisation(
            "bwi", np.outer(grounds[best], grounds[best].conj()),
            {x: tuple(m) for x, m in zip(x_vals, povms[best])},
            channels={y: la.identity_map(db) for y in y_vals}),
        guaranteed_tight=False,
        note="quantum-achievable value; upper bound on the quantum minimum",
        iterations=sum(n for _, n in per_restart), restarts=restarts,
        trace=tuple(traces[best]), per_restart=per_restart,
    )


# The weight (-1)^(b + c) SELFTEST_SIGNS[w][z - 1] of p(b, c | z, w) in I_E.
_SELFTEST_WEIGHTS = np.einsum("b,c,wz->bczw", (1, -1), (1, -1),
                              [SELFTEST_SIGNS[w] for w in SELFTEST_LABELS[3]])


def selftest_value(marginal) -> float:
    """The twelve-term correlator functional I_E on a p(b, c | z, w) marginal, a
    ``LabelGrid`` or {key: p} block whose labels include ``SELFTEST_LABELS``."""
    what = "self-test marginal has no probability for"
    p = LabelGrid.keyed(marginal, 4, what).subgrid(SELFTEST_LABELS, "bczw", what)
    return float(np.vdot(_SELFTEST_WEIGHTS, p.grid))


SELFTEST_MAX = 4 * np.sqrt(3)
