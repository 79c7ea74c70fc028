"""Bounds on Bob-with-input functionals and the self-test functional value.

The classical bound is exact: with a deterministic response f for Alice, the
hidden-variable states may be chosen per (strategy, Bob input) as minimal
eigenvectors, so the local minimum is
``min_f sum_y lambda_min(sum_x F_{f(x), x, y})`` and the enumeration over
responses is exhaustive.

The no-signalling number here is a certificate-style lower bound, not the
exact polytope minimum: ``sum_{x,y} min_a lambda_min(F_{axy})`` is valid for
every non-signalling assemblage but tight only for favourable spectra, and
the report says so.

The seesaw keeps Bob's processing fixed to the identity and alternates exact
state and measurement updates, so every iterate is a quantum-feasible value;
it brackets, never computes, the quantum bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .assemblages import QuantumRealisation
from .catalog import SELFTEST_SIGNS
from .functionals import EPRFunctional

ENUMERATION_GUARD = 10**6


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
    n_strategies = len(a_vals) ** len(x_vals)
    if n_strategies > ENUMERATION_GUARD:
        raise ValueError(
            f"{n_strategies} deterministic strategies exceed the enumeration guard"
        )
    columns = np.arange(len(x_vals))
    best_value = np.inf
    best: DeterministicStrategy | None = None
    for choices in itertools.product(range(len(a_vals)), repeat=len(x_vals)):
        operators = grid[choices, columns].sum(0)  # per y: sum_x F_{choice(x), x, y}
        value = sum(np.linalg.eigvalsh(operators)[:, 0])
        if value < best_value:
            best_value = value
            best = DeterministicStrategy({x: a_vals[c] for x, c in zip(x_vals, choices)},
                                         dict(zip(y_vals, operators)))
    return BoundReport("classical", float(best_value), witness=best)


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


def _seesaw_once(f: EPRFunctional, rng: np.random.Generator,
                 max_iterations: int, rel_tol: float):
    (a_vals, x_vals, y_vals), grid = _functional_grid(f)
    if a_vals != (0, 1):
        raise ValueError("the seesaw measurement step needs a binary Alice alphabet")
    db = f.dim
    summed = grid.sum(2)  # (a, x, d, d): sum_y F_{axy}
    povms = np.array([la.random_projective_povm(rng, 2) for _ in x_vals])  # (x, a, 2, 2)
    trace = []
    for _ in range(max_iterations):
        # h = sum_{a,x} M_{a|x} (x) S_{ax}
        h = np.einsum("xaij,axkl->ikjl", povms, summed).reshape(2 * db, 2 * db)
        ground = la.eig_hermitian(h)[1][:, 0]
        # With rho the ground projector and psi its vector as a (2, d) matrix,
        # every tr_B[(I (x) S_{ax}) rho] is psi S_{ax}^T psi^dagger.
        psi = ground.reshape(2, db)
        conditioned = np.einsum("im,axkm,jk->axij", psi, summed, psi.conj())
        # Measurement step: per x, put outcome 0 on the nonpositive eigenspace
        # of the conditioned operator difference (ties go to outcome 0).
        dvals, dvecs = la.eig_hermitian(conditioned[0] - conditioned[1])
        kept = dvecs * (dvals <= 0)[:, None, :]
        m0 = kept @ kept.conj().swapaxes(-2, -1)
        povms = np.stack([m0, np.eye(2) - m0], axis=1)
        # tr[(M (x) S) rho] = tr[M tr_B((I (x) S) rho)], so the new value needs no new h.
        trace.append(float(np.einsum("xaij,axji->", povms, conditioned).real))
        if len(trace) >= 2 and abs(trace[-2] - trace[-1]) <= rel_tol * max(1.0, abs(trace[-2])):
            break
    realisation = QuantumRealisation(
        "bwi", np.outer(ground, ground.conj()), {x: tuple(m) for x, m in zip(x_vals, povms)},
        channels={y: la.identity_map(db) for y in y_vals},
    )
    return trace[-1], trace, realisation


def seesaw_quantum(f: EPRFunctional, seed: int = 0, restarts: int = 10,
                   max_iterations: int = 500, rel_tol: float = 1e-10) -> BoundReport:
    """Alternating minimisation over (state, Alice POVMs); Bob channels identity.

    The value sequence of each restart is monotone non-increasing; the report
    keeps the best restart and its realisation as a quantum-achievable witness,
    and the final value and iteration count of every restart in order.
    """
    if restarts < 1:
        raise ValueError(f"the seesaw needs at least one restart, got {restarts}")
    root = np.random.default_rng(seed)
    best_value = np.inf
    best_trace: tuple = ()
    best_witness = None
    per_restart = []
    for _ in range(restarts):
        rng = np.random.default_rng(root.integers(2**63))
        value, trace, witness = _seesaw_once(f, rng, max_iterations, rel_tol)
        per_restart.append((value, len(trace)))
        if value < best_value:
            best_value = value
            best_trace = tuple(trace)
            best_witness = witness
    return BoundReport(
        "seesaw",
        float(best_value),
        witness=best_witness,
        guaranteed_tight=False,
        note="quantum-achievable value; upper bound on the quantum minimum",
        iterations=sum(n for _, n in per_restart),
        restarts=restarts,
        trace=best_trace,
        per_restart=tuple(per_restart),
    )


def selftest_value(marginal: dict) -> float:
    """The twelve-term correlator functional I_E on a p(b, c | z, w) marginal."""
    total = 0.0
    for w in (1, 2, 3):
        for z in (1, 2, 3, 4):
            correlator = 0.0
            for b, c in itertools.product((0, 1), (0, 1)):
                key = (b, c, z, w)
                if key not in marginal:
                    raise ValueError(f"marginal is missing entry {key}")
                correlator += (-1) ** (b + c) * marginal[key]
            total += SELFTEST_SIGNS[w][z - 1] * correlator
    return total


SELFTEST_MAX = 4 * np.sqrt(3)
