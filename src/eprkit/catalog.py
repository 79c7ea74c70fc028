"""Exact constructions of the worked example objects.

The partial-transpose (PTP) family: a Bob-with-input assemblage that is
post-quantum yet produces only quantum correlations bipartitely, the operator
functional that separates it, the published bound constants, the canonical
self-test strategy, an MDI controlled-transpose variant (basis-state control
inputs only), and a channel-scenario embedding derived in this repository.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import linalg as la
from .assemblages import BwIAssemblage, ChannelAssemblage, LabelGrid, StandardAssemblage
from .functionals import BellCoefficients, EPRFunctional, bell_from_epr, projector_strings

# Alice's measurement axes in the PTP example: x = 1, 2, 3 -> X, Y, Z.
ALICE_PAULI = {1: la.PAULI_X, 2: la.PAULI_Y, 3: la.PAULI_Z}


class PtpConstants(la.Frozen):
    """Published bound constants of the raw PTP functional, and the exact classical bound."""

    classical, almost_quantum, no_signalling = 1.2679, 0.4135, 0.0
    classical_exact = 3.0 - math.sqrt(3.0)


PTP = PtpConstants()


def sigma_tilde(c: int, w: int) -> np.ndarray:
    """Canonical resource element; note the flipped sign on the Y axis."""
    sign = -1 if w == 3 else 1
    return (la.I2 + sign * (-1) ** c * la.PAULI_BY_SETTING[w]) / 4


@functools.cache
def canonical_resource_grid(n: int) -> tuple[tuple, np.ndarray]:
    """The sorted (c, w) labels of the n-qubit canonical resource and its elements
    prod_i sigma_tilde(c_i, w_i) on their read-only grid (*label counts, 2**n, 2**n)."""
    combos = [combo for _, combo in projector_strings(n)]  # qubit by qubit, c before w
    pure = np.stack([la.tensor(*(sigma_tilde(c, w) for c, w in combo)) for combo in combos])
    grid = pure.reshape(*(2, 3) * n, 2**n, 2**n).transpose(
        *range(0, 2 * n, 2), *range(1, 2 * n, 2), 2 * n, 2 * n + 1).reshape(2**n, 3**n, 2**n, 2**n)
    grid.setflags(write=False)
    single = ((0, 1), (1, 2, 3))
    return single if n == 1 else tuple(tuple(itertools.product(s, repeat=n)) for s in single), grid


def canonical_resource_assemblage() -> StandardAssemblage:
    return StandardAssemblage(canonical_resource_grid(1))


# The (a, x, y) labels of the PTP assemblage and functional.
PTP_LABELS = ((0, 1), (1, 2, 3), (0, 1))


@functools.cache
def ptp_assemblage() -> BwIAssemblage:
    """The PTP assemblage: sigma_{a|x} partially transposed when y = 1.

    The sign exponent is a + [x=2][y=1]: the transpose flips only the Pauli-Y
    element.  It is built once and shared, read-only like every assemblage.
    """
    a, x, y = np.ix_(*PTP_LABELS)
    e = a + (x == 2) * (y == 1)
    paulis = np.stack(list(ALICE_PAULI.values()))[:, None]  # over (x, y)
    return BwIAssemblage((PTP_LABELS, (la.I2 + (-1) ** e[..., None, None] * paulis) / 4))


def ptp_functional(normalized: bool = False, beta_aq: float | None = None) -> EPRFunctional:
    """The separating functional: twelve projectors I - 2 sigma^PTP_{a|xy}, optionally shifted.

    The normalized form subtracts beta_aq / 6 from every operator so that the
    almost-quantum bound moves to zero; beta_aq defaults to the published
    constant and is overridable for negative controls, but must be finite.
    Both forms at the published constant are built once and shared, read-only
    like every functional.
    """
    if beta_aq is None or beta_aq == PTP.almost_quantum:
        return _ptp_functional(bool(normalized), PTP.almost_quantum)
    return _ptp_functional.__wrapped__(normalized, beta_aq)  # other constants are not kept


@functools.cache
def _ptp_functional(normalized: bool, beta_aq: float) -> EPRFunctional:
    if not math.isfinite(beta_aq):
        raise ValueError(f"beta_aq must be finite, got {beta_aq}")
    # The normalisation spreads beta_aq over the |X| |Y| = 6 operators: every bound moves by it.
    shift = beta_aq if normalized else 0.0
    operators = la.I2 - 2 * ptp_assemblage().grid[1] - shift / 6 * la.I2
    bounds = {"classical": PTP.classical_exact - shift, "almost_quantum": beta_aq - shift,
              "no_signalling": PTP.no_signalling - shift}
    return EPRFunctional("bwi", (PTP_LABELS, operators), bounds)


@functools.cache
def ptp_epr_coefficients() -> BellCoefficients:
    """``bell_from_epr`` of ``ptp_functional(normalized=True)``, built once and shared."""
    return bell_from_epr(ptp_functional(normalized=True))


def ptp_bell_coefficients() -> BellCoefficients:
    """Bell coefficients of the normalized PTP functional, in closed form.

    xi^{axy}_{cw} = [c = a (+) 1 (+) y[x=2]] [w = x (+)_3 1] - [w = 1] beta/6,
    with (+) and (+)_3 addition mod 2 and mod 3 and beta the published almost-quantum value.
    """
    labels = (*PTP_LABELS, (0, 1), (1, 2, 3))
    a, x, y, c, w = np.ix_(*labels)
    hit = (c == (a + 1 + y * (x == 2)) % 2) & (w == x % 3 + 1)
    return BellCoefficients("bwi", LabelGrid(labels, hit - (w == 1) * (PTP.almost_quantum / 6)))


# Sign pattern of the self-test functional: rows w = 1..3, columns z = 1..4.
SELFTEST_SIGNS = {
    1: (1, 1, -1, -1),
    2: (1, -1, 1, -1),
    3: (1, -1, -1, 1),
}


def selftest_observables() -> dict:
    """The four saturating observables, one per setting z.

    Bloch direction of B_z is (s1, s2, -s3)/sqrt(3) where s_w is column z of
    the sign pattern; only three of the four appear explicitly in the source
    list, the remaining one follows from the same sign-matching rule.
    """
    out = {}
    for z in (1, 2, 3, 4):
        s1, s2, s3 = (SELFTEST_SIGNS[w][z - 1] for w in (1, 2, 3))
        out[z] = (s1 * la.PAULI_Z + s2 * la.PAULI_X - s3 * la.PAULI_Y) / math.sqrt(3)
    return out


# The (b, c, z, w) labels of a self-test marginal p(b, c | z, w).
SELFTEST_LABELS = ((0, 1), (0, 1), (1, 2, 3, 4), (1, 2, 3))


@functools.cache
def canonical_selftest_marginal() -> LabelGrid:
    """The read-only p(b, c | z, w) of the canonical strategy; reaches I_E = 4 sqrt(3)."""
    projectors = la.observable_projectors(np.stack(list(selftest_observables().values())))
    p = np.trace(projectors[:, :, None, None] @ canonical_resource_grid(1)[1], axis1=-2, axis2=-1)
    return LabelGrid(SELFTEST_LABELS, p.real.transpose(1, 2, 0, 3))


def mdi_ptp_probabilities(method: str = "transposed-measurement") -> dict:
    """p(a, b | x, y) of the MDI controlled-transpose example.

    Only basis-state control inputs y in {0, 1} are defined; the control
    action on coherences is left unspecified by the construction.  Both
    evaluation routes are exposed and agree entrywise:

    * ``"transposed-measurement"``: transpose moved onto the measurement,
      p = tr[(M_{a|x} (x) N_b^{T^y}) phi_plus].
    * ``"controlled-transpose"``: transpose applied to Bob's half of the
      state, p = tr[(M_{a|x} (x) N_b) (id (x) T^y)(phi_plus)].
    """
    n_b = np.stack([la.I2 + la.PAULI_Y, 2 * la.I2 - la.PAULI_Y]) / 3
    phi = la.phi_plus().reshape(2, 2, 2, 2)  # rows (i, k) and columns (j, l): A, then B
    # Bob's effects E_{b|y} and the state S_y that they meet, per control input y.
    if method == "transposed-measurement":
        effects, states = np.stack([n_b, n_b.swapaxes(-1, -2)]), np.stack([phi, phi])
    elif method == "controlled-transpose":
        # (id (x) T)(phi_plus) is phi_plus with the row and column axes of a factor swapped.
        effects, states = np.stack([n_b, n_b]), np.stack([phi, phi.transpose(2, 1, 0, 3)])
    else:
        raise ValueError(f"unknown method {method!r}")
    m = (la.I2 + np.array([1, -1])[:, None, None, None] * np.stack(list(ALICE_PAULI.values()))) / 2
    # tr[(M_{a|x} (x) E_{b|y}) S_y] = sum M[i, j] E[k, l] S[j, l, i, k], on the (a, x, y, b) grid.
    p = np.einsum("axij,ybkl,yjlik->axyb", m, effects, states).real
    keys = itertools.product((0, 1), (1, 2, 3), (0, 1), (0, 1))
    return {(a, b, x, y): v for (a, x, y, b), v in zip(keys, p.ravel().tolist())}


def _embed(grid: np.ndarray) -> np.ndarray:
    """sum_y X_{axy} (x) |y><y| for X on its grid (a, x, y, d, d): the grid (a, x, d y, d y)."""
    n_a, n_x, n_y, d = grid.shape[:4]
    out = np.einsum("axyij,yz->axiyjz", grid, np.eye(n_y))
    return out.reshape(n_a, n_x, d * n_y, d * n_y)


@functools.cache
def embedded_ptp_channel() -> tuple[ChannelAssemblage, EPRFunctional]:
    """Channel-scenario witness derived here by embedding the PTP pair.

    The instrument reads Bob's classical input off the basis of the Choi
    input factor: J(I_{a|x}) = 1/2 sum_y sigma^PTP_{a|xy} (x) |y><y|.  The
    paired functional doubles the normalized PTP operators on the output
    factor, so its value reproduces the PTP functional value exactly and its
    quantum bound stays at zero.
    """
    f_norm = ptp_functional(normalized=True)
    operators = (f_norm.labels[:2], 2 * _embed(f_norm.grid))
    return embed_bwi_in_channel(ptp_assemblage()), EPRFunctional("channel", operators)


def embed_bwi_in_channel(bwi: BwIAssemblage) -> ChannelAssemblage:
    """Control-decohering embedding of a two-input BwI assemblage."""
    if bwi.sizes["y"] != 2 or bwi.dim != 2:
        raise ValueError("embedding expects a qubit assemblage with two Bob inputs")
    labels, grid = bwi.grid
    return ChannelAssemblage((labels[:2], _embed(grid) / 2))
