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
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .assemblages import BwIAssemblage, ChannelAssemblage, LabelGrid, StandardAssemblage
from .functionals import EPRFunctional, BellCoefficients

# Alice's measurement axes in the PTP example: x = 1, 2, 3 -> X, Y, Z.
ALICE_PAULI = {1: la.PAULI_X, 2: la.PAULI_Y, 3: la.PAULI_Z}


@dataclass(frozen=True)
class PtpConstants:
    """Published bound constants of the raw PTP functional."""

    classical: float = 1.2679
    almost_quantum: float = 0.4135
    no_signalling: float = 0.0

    @property
    def classical_exact(self) -> float:
        return 3.0 - math.sqrt(3.0)


PTP = PtpConstants()


def sigma_tilde(c: int, w: int) -> np.ndarray:
    """Canonical resource element; note the flipped sign on the Y axis."""
    sign = -1 if w == 3 else 1
    return (la.I2 + sign * (-1) ** c * la.PAULI_BY_SETTING[w]) / 4


def canonical_resource_assemblage() -> StandardAssemblage:
    return StandardAssemblage(
        {(c, w): sigma_tilde(c, w) for c in (0, 1) for w in (1, 2, 3)}
    )


def ptp_assemblage(additive_exponent: bool = False) -> BwIAssemblage:
    """The PTP assemblage: sigma_{a|x} partially transposed when y = 1.

    The sign exponent is a + [x=2][y=1]: the transpose flips only the Pauli-Y
    element.  ``additive_exponent`` switches to the a + [x=2] + [y=1] reading
    for comparison; that variant does not null the paired functional.
    """
    elements = {}
    for a, x, y in itertools.product((0, 1), (1, 2, 3), (0, 1)):
        if additive_exponent:
            e = a + (x == 2) + (y == 1)
        else:
            e = a + (x == 2) * (y == 1)
        elements[(a, x, y)] = (la.I2 + (-1) ** e * ALICE_PAULI[x]) / 4
    return BwIAssemblage(elements)


def ptp_functional(normalized: bool = False, beta_aq: float | None = None) -> EPRFunctional:
    """The separating functional: twelve projectors, optionally shifted.

    The normalized form subtracts beta_aq / 6 from every operator so that the
    almost-quantum bound moves to zero; beta_aq defaults to the published
    constant and is overridable for negative controls.
    """
    if beta_aq is None:
        beta_aq = PTP.almost_quantum
    shift = beta_aq / 6 if normalized else 0.0
    operators = {}
    for a, x, y in itertools.product((0, 1), (1, 2, 3), (0, 1)):
        e = a + (x == 2) * (y == 1)
        operators[(a, x, y)] = (la.I2 - (-1) ** e * ALICE_PAULI[x]) / 2 - shift * la.I2
    if normalized:
        bounds = {
            "classical": PTP.classical_exact - beta_aq,
            "almost_quantum": 0.0,
            "no_signalling": -beta_aq,
        }
    else:
        bounds = {
            "classical": PTP.classical_exact,
            "almost_quantum": beta_aq,
            "no_signalling": PTP.no_signalling,
        }
    return EPRFunctional("bwi", operators, bounds)


def ptp_bell_coefficients(beta_aq: float | None = None) -> BellCoefficients:
    """Bell coefficients of the normalized PTP functional, in closed form.

    xi^{axy}_{cw} = [c = a (+) 1 (+) y[x=2]] [w = x (+)_3 1] - [w = 1] beta/6,
    with (+) and (+)_3 addition mod 2 and mod 3.
    """
    if beta_aq is None:
        beta_aq = PTP.almost_quantum
    labels = ((0, 1), (1, 2, 3), (0, 1), (0, 1), (1, 2, 3))
    a, x, y, c, w = np.ix_(*labels)
    hit = (c == (a + 1 + y * (x == 2)) % 2) & (w == x % 3 + 1)
    return BellCoefficients("bwi", LabelGrid(labels, hit - (w == 1) * (beta_aq / 6)), n=1)


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
    observables = selftest_observables()
    marginal = np.empty(tuple(map(len, SELFTEST_LABELS)))
    for z, obs in observables.items():
        outcome_projs = la.observable_projectors(obs)
        for w in (1, 2, 3):
            for b, c in itertools.product((0, 1), (0, 1)):
                p = np.real(np.trace(outcome_projs[b] @ sigma_tilde(c, w)))
                marginal[b, c, z - 1, w - 1] = p
    return LabelGrid(SELFTEST_LABELS, marginal)


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
    n_effects = {
        0: (la.I2 + la.PAULI_Y) / 3,
        1: (2 * la.I2 - la.PAULI_Y) / 3,
    }
    phi = la.phi_plus()
    out = {}
    for a, x, y in itertools.product((0, 1), (1, 2, 3), (0, 1)):
        m = (la.I2 + (-1) ** a * ALICE_PAULI[x]) / 2
        for b, n_b in n_effects.items():
            if method == "transposed-measurement":
                eff = n_b.T if y == 1 else n_b
                p = np.trace(la.tensor(m, eff) @ phi)
            elif method == "controlled-transpose":
                # (id (x) T)(phi_plus) is phi_plus with the row and column axes of a factor swapped.
                state = phi.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4) if y else phi
                p = np.trace(la.tensor(m, n_b) @ state)
            else:
                raise ValueError(f"unknown method {method!r}")
            out[(a, b, x, y)] = float(np.real(p))
    return out


def embedded_ptp_channel() -> tuple[ChannelAssemblage, EPRFunctional]:
    """Channel-scenario witness derived here by embedding the PTP pair.

    The instrument reads Bob's classical input off the basis of the Choi
    input factor: J(I_{a|x}) = 1/2 sum_y sigma^PTP_{a|xy} (x) |y><y|.  The
    paired functional doubles the normalized PTP operators on the output
    factor, so its value reproduces the PTP functional value exactly and its
    quantum bound stays at zero.
    """
    bwi = ptp_assemblage()
    f_norm = ptp_functional(normalized=True)
    assemblage = embed_bwi_in_channel(bwi)
    operators = {}
    for a, x in itertools.product((0, 1), (1, 2, 3)):
        op = sum(
            la.tensor(f_norm.operators[(a, x, y)], la.proj(y, 1)) for y in (0, 1)
        )
        operators[(a, x)] = 2 * op
    return assemblage, EPRFunctional("channel", operators)


def embed_bwi_in_channel(bwi: BwIAssemblage) -> ChannelAssemblage:
    """Control-decohering embedding of a two-input BwI assemblage."""
    if bwi.n_y != 2 or bwi.dim != 2:
        raise ValueError("embedding expects a qubit assemblage with two Bob inputs")
    elements = {}
    for a, x in itertools.product(range(bwi.n_a), range(1, bwi.n_x + 1)):
        elements[(a, x)] = sum(
            la.tensor(bwi.elements[(a, x, y)], la.proj(y, 1)) for y in (0, 1)
        ) / 2
    return ChannelAssemblage(elements, n_a=bwi.n_a, n_x=bwi.n_x)
