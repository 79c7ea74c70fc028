"""Bounds on Bob-with-input functionals and the self-test functional value.

The classical bound is exact: with a deterministic response f for Alice, the
hidden-variable states may be chosen per (strategy, Bob input) as minimal
eigenvectors, so the local minimum is
``min_f sum_y lambda_min(sum_x F_{f(x), x, y})`` and the enumeration over
responses is exhaustive.  Strategies come in chunks that share their leading answers: the
partial sum of those is added up once, and a chunk grows from it one setting at a time, in the
order of one sum per strategy, so in about one add per strategy.  ``la.eigvalsh`` screens each
chunk, LAPACK values those within its rounding of the least (or all of a chunk too small to
repay the screen): the value and first minimiser are LAPACK's, bit for bit.

The no-signalling number here is a certificate-style lower bound, not the
exact polytope minimum: ``sum_{x,y} min_a lambda_min(F_{axy})`` is valid for
every non-signalling assemblage but tight only for favourable spectra, and
the report says so.

The seesaw keeps Bob's processing fixed to the identity and alternates exact
state and measurement updates, so every iterate is a quantum-feasible value;
it brackets, never computes, the quantum bound.  Each restart is one row of
Alice's real Pauli coefficients, and the rows of the restarts still iterating
advance as one compact stack; a restart's row and ground vector are kept once,
when it leaves.  An iteration is one matrix product for the Hamiltonians, one
checked eigendecomposition and one product for the conditioned differences,
whence the measurement step, read per setting from a constant table by the count
of nonpositive eigenvalues, and the values, which the stopping rule compares as
the Python floats of the traces.  A restart starts from the first effects of random projective
POVMs, built alone; the witness takes Alice's effects as one read-only stack and every Bob input
the one identity channel per dimension, and is checked as any realisation is.

The self-test value I_E is one dot product of a marginal's (b, c, z, w)
grid with constant weights.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg as la
from .assemblages import LabelGrid, QuantumRealisation, ReadOnlyDict
from .catalog import SELFTEST_LABELS, SELFTEST_SIGNS
from .functionals import EPRFunctional

ENUMERATION_GUARD = 10**6
_CHUNK = 256  # strategies summed and screened at once in classical_bound
_SCREENED = 32  # a chunk of fewer strategies skips the screen: LAPACK values them all
_TINY = np.finfo(float).smallest_subnormal  # floors divisors that are 0 only with their dividends
_REL_TOL = 1e-10  # the seesaw's relative stopping tolerance
# Per count (0, 1, 2) of nonpositive eigenvalues, the projector's I coefficient c_0, then
# thrice the factor of e_vec / |e_vec|, signed zeros included.
_STEP = np.repeat([[0, -0.0], [0.5, -0.5], [1, -0.0]], [1, 3], axis=1)


class DeterministicStrategy(la.Frozen):
    """A deterministic Alice response x -> a with its per-input operators, both read-only."""

    def __init__(self, response: dict, operators: dict):  # y -> sum_x F_{response[x], x, y}
        vars(self).update(response=response, operators=operators)


class BoundReport(la.Frozen):
    """``per_restart`` holds the (final value, iterations) of each restart."""

    def __init__(self, kind: str, value: float, witness: object = None,
                 guaranteed_tight: bool = True, note: str = "", iterations: int = 0,
                 restarts: int = 0, trace: tuple = (), per_restart: tuple = ()):
        vars(self).update(kind=kind, value=value, witness=witness,
                          guaranteed_tight=guaranteed_tight, note=note, iterations=iterations,
                          restarts=restarts, trace=trace, per_restart=per_restart)


def _functional_grid(f: EPRFunctional):
    if f.scenario != "bwi":
        raise ValueError("bounds are implemented for Bob-with-input functionals")
    return f.labels, f.grid


def _strategy_chunks(grid: np.ndarray):
    """The operators (strategies, y, d, d) sum_x F_{choice(x), x, y} of every deterministic
    strategy, in ``itertools.product`` order (the last setting's answer fastest), in
    consecutive chunks of about ``_CHUNK``, each summed over x in order as one sum per
    strategy would be.  A chunk fixes the answers to all settings before ``split``, whose
    partial sum is shared with the chunks before it, and a run of answers to ``split``; it
    then grows by one setting at a time, every operator so far plus each answer's term."""
    n_a, n_x = grid.shape[:2]
    tail = max(m for m in range(n_x) if n_a**m <= _CHUNK)  # the settings every chunk grows
    split = n_x - 1 - tail
    per = _CHUNK // n_a**tail  # answers to ``split`` per chunk, or all n_a if split == 0
    runs = max(1, (2 * n_a + per) // (2 * per))  # n_a / per rounded: chunks below 2 _CHUNK
    cuts = [n_a * k // runs for k in range(runs + 1)]

    def prefixes(j, partial):  # the partial sum over the settings before split, per prefix
        if j == split:
            yield partial
            return
        for a in range(n_a):
            yield from prefixes(j + 1, grid[a, j] if partial is None else partial + grid[a, j])

    for partial in prefixes(0, None):
        for lo, hi in zip(cuts, cuts[1:]):
            ops = grid[lo:hi, split] if partial is None else partial + grid[lo:hi, split]
            for j in range(split + 1, n_x):
                ops = (ops[:, None] + grid[:, j]).reshape(-1, *grid.shape[2:])
            yield ops


def classical_bound(f: EPRFunctional) -> BoundReport:
    """Exact minimum over local-hidden-state models, by strategy enumeration."""
    (a_vals, x_vals, y_vals), grid = _functional_grid(f)
    n_a, n_x = len(a_vals), len(x_vals)
    n_strategies = n_a**n_x
    if n_strategies > ENUMERATION_GUARD:
        raise ValueError(f"{n_strategies} deterministic strategies exceed the enumeration guard")
    # A screened value lies within 4 n_y (n_y + 8) ulps of norm >= ||O_y|| of LAPACK's (32 per
    # eigenvalue, where LAPACK's 2x2 errors reach 9 and the closed form's 3, and 4 n_y per
    # summand), so a chunk's first LAPACK minimiser lies within twice that of its least.
    norm = f.dim * np.abs(grid).max((0, 2, 3, 4), initial=0).sum()
    window = 8 * len(y_vals) * (len(y_vals) + 8) * (np.finfo(float).eps * norm + _TINY)
    best = np.inf, 0, None  # value, index, operators of the first minimising strategy
    start = 0  # the index of the chunk's first strategy
    for operators in _strategy_chunks(grid):
        near = np.arange(len(operators))  # the strategies that LAPACK values
        if len(operators) >= _SCREENED:
            screened = sum(la.eigvalsh(operators)[..., 0].T)  # over y in order, per strategy
            # Every strategy whose LAPACK value may be the chunk's least gets that value.
            near = np.flatnonzero(screened <= screened.min() + window)
        values = sum(np.linalg.eigvalsh(operators[near])[..., 0].T)
        i = values.argmin()  # the first minimum of the chunk
        if values[i] < best[0]:
            best = values[i], start + near[i], operators[near[i]]
        start += len(operators)
    value, index, operators = best
    if operators is None:
        return BoundReport("classical", float(value))
    # Strategy i answers setting j with base-n_a digit j of i: itertools.product order.
    choices = index // n_a ** np.arange(n_x - 1, -1, -1) % n_a
    operators = operators.copy()  # the winner's own (y, d, d) array, not the chunk's
    operators.setflags(write=False)
    witness = DeterministicStrategy(ReadOnlyDict({x: a_vals[c] for x, c in zip(x_vals, choices)}),
                                    ReadOnlyDict(zip(y_vals, operators)))
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


def _nonpositive_projector(e: np.ndarray) -> np.ndarray:
    """Coefficients (..., 4) over sigma = ``la.PAULIS`` (I, Z, X, Y) of the projector onto
    the nonpositive eigenspace of G = e . sigma / 2, for real e (..., 4).  G's eigenvalues
    are (e_0 -+ |e_vec|) / 2: the projector is I if both are <= 0, (I - e_vec . sigma /
    |e_vec|) / 2 if only the lower one is, and 0 otherwise."""
    # G's positive multiples share the projector; at max_k |e_k| = 1 (or e = 0), |e_vec|
    # neither overflows nor loses digits to subnormal components.
    e = e / np.maximum(abs(e).max(-1, keepdims=True), _TINY)
    norm = np.hypot.reduce(e[..., 1:], axis=-1)
    # The count of G's eigenvalues <= 0 picks a row (int8: bool + bool is a logical or).
    code = (e[..., 0] <= norm).view(np.int8) + (e[..., 0] <= -norm).view(np.int8)
    out = _STEP.take(code, 0)
    out[..., 1:] *= e[..., 1:] / np.maximum(norm, _TINY)[..., None]  # |e_vec| = 0 only at 0
    return out


def _initial_effects(rngs: np.ndarray, n_x: int) -> np.ndarray:
    """Each generator's initial M_{0|x} (..., n_x, 2, 2) = |u_0><u_0| from its n_x Ginibre
    draws: ``la.projective_povm(g, 2)[..., 0, :, :]``, u_0 being the first column of the
    same phase-fixed QR factor, without the other effect."""
    u = la._isometry(la.ginibre_stacks(rngs, (n_x, 2, 2))[0])[..., 0]
    return u[..., :, None] * u.conj()[..., None, :]


@functools.cache
def _identity_channel(dim: int) -> la.KrausMap:
    """The identity channel on ``dim``, built once: a frozen map with read-only operators."""
    return la.KrausMap(dim, dim, np.eye(dim)[None])


def seesaw_quantum(f: EPRFunctional, seed: int = 0, restarts: int = 10,
                   max_iterations: int = 500) -> BoundReport:
    """Alternating minimisation over (state, Alice POVMs); Bob channels identity.

    The value sequence of each restart is monotone non-increasing; the report
    keeps the first restart within the stopping rule's ``1e-10 * max(1, |v|)``
    of the least final value v, and its realisation as a quantum-achievable
    witness, and the final value and iteration count of every restart in order.  Restart
    r starts from projective POVMs drawn by ``default_rng(s_r)``, bit for bit (``la.generators``,
    in one pass from three restarts on), where s_0, s_1, ... are ``default_rng(seed)``'s
    ``integers(2**63)``; each draws its n_x 2x2 Ginibre matrices in one call.
    """
    if restarts < 1:
        raise ValueError(f"the seesaw needs at least one restart, got {restarts}")
    if max_iterations < 1:
        raise ValueError(f"the seesaw needs at least one iteration, got {max_iterations}")
    (a_vals, x_vals, y_vals), grid = _functional_grid(f)
    if a_vals != (0, 1):
        raise ValueError("the seesaw measurement step needs a binary Alice alphabet")
    db, n_x = f.dim, len(x_vals)
    summed = grid.sum(2)  # (a, x, d, d): S_{ax} = sum_y F_{axy}
    # h = sum_{x,k} c_xk sigma_k (x) D_x + I (x) sum_x S_{1x} with D_x = S_{0x} - S_{1x}:
    # the row coef = (c_10, ..., c_{n_x}3, 1) times this basis.
    ops = np.concatenate([summed[0] - summed[1], summed[1].sum(0, keepdims=True)])
    basis = np.einsum("kij,xab->xkiajb", la.PAULIS, ops).reshape(-1, 4 * db * db)[:4 * n_x + 1]
    basis_t = basis.T.copy()
    rngs = la.generators(np.random.default_rng(seed).integers(2**63, size=restarts))
    # Every restart's row c_xk = tr[sigma_k M_{0|x}] / 2 and value trace.
    coef = np.ones((restarts, 4 * n_x + 1))  # the stack: the rows of the restarts iterating
    coef[:, :-1] = np.einsum("kji,rxij->rxk", la.PAULIS,
                             _initial_effects(rngs, n_x)).real.reshape(restarts, -1) / 2
    ends = {}  # each restart's last (row, ground vector), kept when it leaves the stack
    traces = [[] for _ in range(restarts)]
    active = list(range(restarts))  # the restarts in the stack, in order
    for iteration in range(max_iterations):
        psi = la.eig_hermitian((coef @ basis).reshape(-1, 2 * db, 2 * db))[1][..., 0]
        # e_n = <psi|basis_n|psi>, so e_xk = tr[sigma_k G_x] for G_x = tr_B[(I (x) D_x) rho].
        e = ((psi.conj()[:, :, None] * psi[:, None]).reshape(len(psi), -1) @ basis_t).real
        coef[:, :-1] = step = _nonpositive_projector(
            e[:, :-1].reshape(-1, n_x, 4)).reshape(len(psi), -1)
        values = (np.add.reduce(step * e[:, :-1], 1) + e[:, -1]).tolist()  # tr[h rho], new h
        # A restart stops at the cap or once its last two values agree within _REL_TOL.
        last, stops = iteration + 1 == max_iterations, []
        for r, value in zip(active, values):
            trace = traces[r]
            stops.append(last or iteration > 0 and abs(trace[-1] - value)
                         <= _REL_TOL * max(1.0, abs(trace[-1])))
            trace.append(value)
        if any(stops):
            ends.update((r, (coef[i], psi[i])) for i, r in enumerate(active) if stops[i])
            keep = [i for i, stop in enumerate(stops) if not stop]
            active, coef = [active[i] for i in keep], coef[keep]
            if not active:
                break
    per_restart = tuple((trace[-1], len(trace)) for trace in traces)
    low = min(value for value, _ in per_restart)  # restarts tied to rounding keep the first
    best = next(r for r, (v, _) in enumerate(per_restart) if v - low <= _REL_TOL * max(1, abs(low)))
    row, ground = ends[best]
    effects = (row[:-1].reshape(n_x, 4) @ la.PAULIS.reshape(4, 4)).reshape(n_x, 2, 2)
    povms = np.stack([effects, np.eye(2) - effects], 1)  # (x, a, 2, 2)
    povms.setflags(write=False)
    witness = QuantumRealisation("bwi", np.outer(ground, ground.conj()), dict(zip(x_vals, povms)),
                                 channels=dict.fromkeys(y_vals, _identity_channel(db)))
    return BoundReport("seesaw", per_restart[best][0], witness, guaranteed_tight=False,
                       note="quantum-achievable value; upper bound on the quantum minimum",
                       iterations=sum(n for _, n in per_restart), restarts=restarts,
                       trace=tuple(traces[best]), per_restart=per_restart)


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
