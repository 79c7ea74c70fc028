"""The scenario table, assemblage containers, validators, and quantum realisations.

Index conventions, used consistently across the package and the JSON schemas:
measurement settings are 1-based (``x``, ``w``, ``z`` in ``1..n``), outcomes
and Bob's classical input are 0-based (``a``, ``b``, ``c``, ``y`` in ``0..n-1``).

The MDI and channel scenarios store Choi operators, never abstract maps:
``J(N_{ab|x})`` lives on the Choi-input factor (dim 2) and ``J(I_{a|x})`` on
output (x) Choi-input factors (dim 4).  Probabilities ``p(a|x)`` are always
extracted by trace, never stored.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from . import linalg as la

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class ConditionResult:
    name: str
    residual: float

    def passes(self, tol: float) -> bool:
        return self.residual <= tol


@dataclass(frozen=True)
class ValidationReport:
    scenario: str
    conditions: tuple[ConditionResult, ...]
    structural_errors: tuple[str, ...] = ()
    tol: float = DEFAULT_TOL

    @property
    def passed(self) -> bool:
        if self.structural_errors:
            return False
        return all(c.passes(self.tol) for c in self.conditions)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.conditions), default=0.0)

    def failures(self) -> list[str]:
        out = list(self.structural_errors)
        out += [f"{c.name} (residual {c.residual:.3e})" for c in self.conditions
                if not c.passes(self.tol)]
        return out


def _max_abs(m) -> float:
    return float(np.max(np.abs(m)))


def _psd_residual(ms) -> float:
    """How far below zero the least eigenvalue of a stack of operators lies, or 0."""
    return max(0.0, -float(np.linalg.eigvalsh(ms)[:, 0].min()))


def _standard_conditions(grid):
    totals = grid.sum(0)
    return [
        ("reduced-state-setting-independent", _max_abs(totals - totals[0])),
        ("reduced-state-unit-trace", _max_abs(np.einsum("...ii->...", totals) - 1)),
    ]


def _bwi_conditions(grid):
    traces, totals = np.einsum("...ii->...", grid), grid.sum(0)
    return [
        ("normalisation", _max_abs(traces.sum(0) - 1)),
        ("alice-marginal-bob-input-independent", _max_abs(traces - traces[..., :1])),
        ("bob-state-alice-setting-independent", _max_abs(totals - totals[0])),
    ]


def _alice_probabilities_valid(p) -> float:
    return max(_max_abs(p.sum(0) - 1), max(0.0, -float(p.min())))


def _mdi_conditions(grid):
    dim = grid.shape[-1]
    p, totals = np.einsum("...ii->...", grid).sum(1).real, grid.sum(0)
    return [
        ("alice-marginal-maximally-mixed",
         _max_abs(grid.sum(1) - p[..., None, None] * np.eye(dim) / dim)),
        ("alice-probabilities-valid", _alice_probabilities_valid(p)),
        ("bob-channel-alice-setting-independent", _max_abs(totals - totals[:, :1])),
    ]


def _channel_conditions(grid):
    in_dim = 2
    out_dim = grid.shape[-1] // in_dim
    p, totals = np.einsum("...ii->...", grid).real, grid.sum(0)
    # tr_out of each element: its (out, in, out, in) blocks traced over out.
    reduced = np.einsum("...oioj->...ij", grid.reshape(*p.shape, out_dim, in_dim, out_dim, in_dim))
    return [
        ("discarded-output-is-alice-marginal",
         _max_abs(reduced - p[..., None, None] * np.eye(in_dim) / in_dim)),
        ("alice-probabilities-valid", _alice_probabilities_valid(p)),
        ("bob-channel-alice-setting-independent", _max_abs(totals - totals[0])),
    ]


def _sample_bwi(rng, state, povms, sizes, db):
    channels = {y: la.random_channel(rng, db, db) for y in range(sizes["y"])}
    qr = QuantumRealisation("bwi", state, povms, channels=channels)
    return realize_bwi(qr), qr


def _sample_mdi(rng, state, povms, sizes, db):
    # Random joint measurement on B (x) B_in, split into outcome branches.
    d = 2 * db
    u = la.random_unitary(rng, d)
    cuts = sorted(rng.choice(np.arange(1, d), size=sizes["b"] - 1, replace=False))
    instrument = {
        b: la.KrausMap(d, 1, tuple(u[:, i].conj().reshape(1, d) for i in block),
                       trace_preserving=False)
        for b, block in enumerate(np.split(np.arange(d), cuts))
    }
    qr = QuantumRealisation("mdi", state, povms, instrument=instrument)
    return realize_mdi(qr), qr


def _sample_channel(rng, state, povms, sizes, db):
    qr = QuantumRealisation("channel", state, povms, channel=la.random_channel(rng, 2 * db, 2))
    return realize_channel(qr), qr


@dataclass(frozen=True)
class Scenario:
    """What tells one scenario apart; everything else reads it generically.

    Labels are single letters.  ``axes`` are the element-key labels in key
    order and ``settings`` the 1-based ones among them.  ``layout`` is the
    protocol slice key as written in JSON: letters are labels, ``0`` is Bob's
    fixed outcome and ``*`` his protocol setting; it is empty when the
    scenario has no protocol.  ``resources`` holds the (outcome, setting)
    labels that read out each tensor factor of a functional operator, in
    factor order.  ``conditions(grid)`` gives the no-signalling residuals
    after ``elements-psd`` as (name, residual) pairs, from the elements on
    their grid of shape (*alphabet sizes, d, d); ``sample(rng, state, povms,
    sizes, db)`` draws Bob's processing for a Bob system of dimension ``db``
    and realises the assemblage.
    """

    axes: str
    settings: str
    conditions: Callable
    layout: str = ""
    resources: tuple = ()
    sample: Callable | None = None

    @property
    def default_sizes(self) -> dict:
        return {axis: 3 if axis in self.settings else 2 for axis in self.axes}

    @cached_property
    def slice_axes(self) -> str:
        """Slice key labels: the element axes, then the resource labels in layout order."""
        return self.axes + "".join(ch for ch in self.layout if ch.isalpha() and ch not in self.axes)


SPECS = {
    "standard": Scenario("cw", "w", _standard_conditions),
    "bwi": Scenario("axy", "x", _bwi_conditions, "a,0,c|x,y,*,w", ("cw",), _sample_bwi),
    "mdi": Scenario("abx", "x", _mdi_conditions, "a,b,c|x,*,z", ("cz",), _sample_mdi),
    # Factor 0 of a channel operator is Bob's output, read out by the second
    # resource (d, u); factor 1 is the Choi input, read out by the first (c, w).
    "channel": Scenario("ax", "x", _channel_conditions, "a,0,c,d|x,*,*,w,u", ("du", "cw"),
                        _sample_channel),
}


def freeze_operators(operators: dict) -> np.ndarray:
    """One read-only Hermitian stack, in key order, of keyed operators."""
    shapes = {np.shape(m) for m in operators.values()}
    if len(shapes) != 1 or len(next(iter(shapes))) != 2:
        raise ValueError(f"expected square operators of one shape, got shapes {sorted(shapes)}")
    return la.hermitian(list(operators.values()))


def product_grid(keys, values, n_axes: int, what: str) -> tuple[tuple, np.ndarray]:
    """The sorted labels of each key axis and ``values`` (one per key, in key order) on
    their read-only grid (*label counts, *value shape).  The one rule for keyed blocks:
    the keys have ``n_axes`` labels each and are the full product of their labels per
    axis, or ValueError names the first missing key as "<what> <key>"."""
    keys, values = list(keys), np.asarray(values)
    lengths = set(map(len, keys)) - {n_axes}
    if lengths:
        raise ValueError(f"expected keys of {n_axes} labels, got keys of {min(lengths)}")
    labels = tuple(map(tuple, map(sorted, map(set, zip(*keys))))) if keys else ((),) * n_axes
    index = dict(zip(keys, range(len(keys))))
    try:  # stops at the first miss, so after at most len(keys) + 1 steps
        order = list(map(index.__getitem__, itertools.product(*labels)))
    except KeyError as exc:
        raise ValueError(f"{what} {exc.args[0]}") from None
    grid = values.take(order, 0).reshape(*map(len, labels), *values.shape[1:])
    grid.setflags(write=False)
    return labels, grid


class LabelGrid(Mapping):
    """Floats on the grid of their key axes: ``labels`` holds the sorted labels of each
    axis and ``grid`` the finite read-only values, reshaped to (*label counts,).  As a
    mapping it is the read-only view key -> float in key order, built on first use."""

    def __init__(self, labels, grid):
        self.labels = tuple(map(tuple, labels))
        self.grid = np.array(grid, dtype=float).reshape(tuple(map(len, self.labels)))
        self.grid.setflags(write=False)
        if not np.isfinite(self.grid).all():
            key = next(itertools.compress(self, ~np.isfinite(self.grid.ravel())))
            raise ValueError(f"non-finite value at {key}")

    @classmethod
    def keyed(cls, block, n_axes: int, what: str) -> LabelGrid:
        """``block`` if it is a LabelGrid, else its {key: float} entries by ``product_grid``."""
        if isinstance(block, cls):
            return block
        return cls(*product_grid(block, np.fromiter(block.values(), float, len(block)),
                                 n_axes, what))

    def subgrid(self, labels, names: str, what: str) -> LabelGrid:
        """The grid at ``labels``, which may select a sub-grid of its own: ValueError
        "<what> <name> = <label>" names the first label an axis lacks."""
        labels, grid = tuple(map(tuple, labels)), self.grid
        if labels == self.labels:
            return self
        for axis, (wanted, present) in enumerate(zip(labels, self.labels)):
            if not set(wanted) <= set(present):
                raise ValueError(f"{what} {names[axis]} = {min(set(wanted) - set(present))}")
            grid = grid.take([present.index(label) for label in wanted], axis)
        return LabelGrid(labels, grid)

    @cached_property
    def _view(self) -> dict:
        return dict(zip(self, self.grid.ravel().tolist()))

    def __getitem__(self, key):
        return self._view[key]

    def __iter__(self):
        return itertools.product(*self.labels)

    def __len__(self):
        return self.grid.size


@dataclass(frozen=True)
class Assemblage:
    """Elements of an assemblage, keyed by the axes of its scenario in ``SPECS``.

    Each subclass is one scenario and adds one alphabet size ``n_<axis>`` per
    axis, in axis order: ``BwIAssemblage(elements, n_a, n_x, n_y)``.  The
    checked elements are held as one read-only array ``stack`` in key order;
    ``elements`` maps each key to its view into that stack.  ``grid`` puts
    them on the grid of their labels once, when first read.
    """

    elements: dict
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    scenario: ClassVar[str] = ""

    def __init_subclass__(cls, scenario: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.scenario = scenario
        sizes = SPECS[scenario].default_sizes
        cls.__annotations__ = {f"n_{axis}": int for axis in sizes}
        for axis, size in sizes.items():
            setattr(cls, f"n_{axis}", size)
        dataclass(frozen=True)(cls)

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1
                   for n in self.sizes.values()):
            raise ValueError(f"alphabet sizes must be positive integers, got {self.sizes}")
        stack, labels = freeze_operators(self.elements), self.labels()
        outside = [k for k in self.elements
                   if len(k) != len(labels) or not all(i in axis for i, axis in zip(k, labels))]
        if outside:
            raise ValueError(f"element key {outside[0]} lies outside the alphabets {self.sizes}")
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "elements", dict(zip(self.elements, stack)))

    @property
    def spec(self) -> Scenario:
        return SPECS[self.scenario]

    @property
    def sizes(self) -> dict:
        return {axis: getattr(self, f"n_{axis}") for axis in self.spec.axes}

    def labels(self) -> list:
        """The label range of each axis, in axis order."""
        return [range(1, n + 1) if axis in self.spec.settings else range(n)
                for axis, n in self.sizes.items()]

    @property
    def dim(self) -> int:
        return self.stack.shape[-1]

    @cached_property
    def grid(self) -> tuple[tuple, np.ndarray]:
        """The sorted labels of each axis and the elements on their read-only grid
        (*label counts, d, d); ValueError names the first missing element."""
        return product_grid(self.elements, self.stack, len(self.spec.axes), "missing element")


class StandardAssemblage(Assemblage, scenario="standard"):
    """Subnormalised conditional states sigma_{c|w} of a standard EPR scenario."""


class BwIAssemblage(Assemblage, scenario="bwi"):
    """Elements sigma_{a|xy} of a Bob-with-input scenario, keyed (a, x, y)."""


class MDIAssemblage(Assemblage, scenario="mdi"):
    """Choi operators J(N_{ab|x}) on the Choi-input factor, keyed (a, b, x)."""


class ChannelAssemblage(Assemblage, scenario="channel"):
    """Choi operators J(I_{a|x}) on output (x) Choi-input factors, keyed (a, x)."""


CONTAINERS = {cls.scenario: cls for cls in Assemblage.__subclasses__()}


def validate(assemblage, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the no-signalling conditions of the assemblage's scenario.

    Returns one residual per condition; the report passes iff every residual
    is at most ``tol``.  Missing index combinations are one structural failure,
    which counts them, names the first and suppresses the numeric checks.
    """
    labels, elements = assemblage.labels(), assemblage.elements
    missing = math.prod(map(len, labels)) - len(elements)  # no key lies outside the alphabets
    if missing:
        first = next(key for key in itertools.product(*labels) if key not in elements)
        error = f"{missing} missing element{'s' * (missing > 1)}, the first {first}"
        return ValidationReport(assemblage.scenario, (), (error,), tol)
    conds = [("elements-psd", _psd_residual(assemblage.stack)),
             *assemblage.spec.conditions(assemblage.grid[1])]
    return ValidationReport(
        assemblage.scenario, tuple(ConditionResult(*c) for c in conds), (), tol)


STATE_TOL = 1e-10


@dataclass(frozen=True)
class QuantumRealisation:
    """A shared state, Alice POVMs, and Bob-side processing for one scenario.

    ``povms`` maps the setting x to a tuple of effects.  Bob's processing is
    scenario specific: ``channels[y]`` for Bob-with-input, ``instrument[b]``
    (jointly trace preserving over b) for MDI, ``channel`` for the channel
    scenario.
    """

    scenario: str
    state: np.ndarray
    povms: dict
    channels: dict | None = None
    instrument: dict | None = None
    channel: la.KrausMap | None = None

    def __post_init__(self):
        state = la.hermitian(self.state, tol=1e-10)
        object.__setattr__(self, "state", state)
        if la.min_eigenvalue(state) < -STATE_TOL:
            raise ValueError("shared state is not positive semidefinite")
        if abs(np.trace(state) - 1) > STATE_TOL:
            raise ValueError("shared state does not have unit trace")
        for x, effects in self.povms.items():
            total = sum(effects)
            if _max_abs(total - np.eye(total.shape[0])) > STATE_TOL:
                raise ValueError(f"POVM for setting {x} does not sum to identity")
            if _psd_residual(np.stack(effects)) > STATE_TOL:
                raise ValueError(f"POVM effect for setting {x} is not PSD")
        if self.instrument is not None:
            total = sum(
                sum(k.conj().T @ k for k in branch.kraus_ops)
                for branch in self.instrument.values()
            )
            if _max_abs(total - np.eye(total.shape[0])) > la.TRACE_PRESERVING_TOL:
                raise ValueError("instrument branches are not jointly trace preserving")

    @property
    def alice_dim(self) -> int:
        return next(iter(self.povms.values()))[0].shape[0]

    @property
    def bob_dim(self) -> int:
        return self.state.shape[0] // self.alice_dim

    def conditional_states(self) -> dict:
        """Alice-conditioned states sigma_{a|x} = tr_A[(M_{a|x} (x) I) rho]."""
        da, db = self.alice_dim, self.bob_dim
        keys = [(a, x) for x, povm in self.povms.items() for a in range(len(povm))]
        effects = np.stack([m for povm in self.povms.values() for m in povm])
        states = np.einsum("nji,ikjl->nkl", effects, self.state.reshape(da, db, da, db))
        return dict(zip(keys, states))


def _alphabets(qr: QuantumRealisation) -> dict:
    return {"n_a": len(next(iter(qr.povms.values()))), "n_x": len(qr.povms)}


def realize_bwi(qr: QuantumRealisation) -> BwIAssemblage:
    """Assemblage sigma_{a|xy} = E_y(tr_A[(M_{a|x} (x) I) rho])."""
    sigma = qr.conditional_states()
    states = np.stack(list(sigma.values()))
    # out[y][n] = sum_k K_k sigma_n K_k^dagger over the stacked Kraus operators K of channel y.
    out = [np.einsum("koi,nij,kpj->nop", k, states, k.conj())
           for k in (np.stack(channel.kraus_ops) for channel in qr.channels.values())]
    elements = {(a, x, y): out[i][n] for n, (a, x) in enumerate(sigma)
                for i, y in enumerate(qr.channels)}
    return BwIAssemblage(elements, n_y=len(qr.channels), **_alphabets(qr))


def realize_mdi(qr: QuantumRealisation) -> MDIAssemblage:
    """Choi operators J_{ab|x}[i, k] = tr[E_b (sigma_{a|x} (x) |i><k|)] / d_in, E_b per branch."""
    sigma = qr.conditional_states()
    db = qr.bob_dim
    d_in = next(iter(qr.instrument.values())).in_dim // db
    effects = np.stack([sum(k.conj().T @ k for k in branch.kraus_ops)
                        for branch in qr.instrument.values()])
    j = np.einsum("bpkqi,nqp->nbik", effects.reshape(-1, db, d_in, db, d_in),
                  np.stack(list(sigma.values()))) / d_in
    elements = {(a, b, x): j[n, i] for n, (a, x) in enumerate(sigma)
                for i, b in enumerate(qr.instrument)}
    return MDIAssemblage(elements, n_b=len(qr.instrument), **_alphabets(qr))


def realize_channel(qr: QuantumRealisation) -> ChannelAssemblage:
    """Choi operators J(I_{a|x}) = (Gamma (x) id)(sigma_{a|x} (x) phi_plus)."""
    sigma = qr.conditional_states()
    db = qr.bob_dim
    # Gamma acts on B (x) C with C the first half of phi_plus on C (x) D.
    kraus = np.stack(qr.channel.kraus_ops).reshape(-1, qr.channel.out_dim, db, 2)
    phi = la.phi_plus(1).reshape(2, 2, 2, 2)
    j = np.einsum("kosc,nst,cdef,kpte->nodpf", kraus, np.stack(list(sigma.values())), phi,
                  kraus.conj())
    dim = 2 * qr.channel.out_dim
    elements = {key: m.reshape(dim, dim) for key, m in zip(sigma, j)}
    return ChannelAssemblage(elements, **_alphabets(qr))


def transpose_assemblage(assemblage):
    """Elementwise transpose; involutive and scenario preserving."""
    return replace(assemblage, elements={key: m.T for key, m in assemblage.elements.items()})


def random_quantum(scenario: str, seed: int, alphabets: dict | None = None, n: int = 1):
    """Seeded random quantum assemblage plus the realisation that produced it.

    The state is a normalised Ginibre draw, Alice's POVMs are projective
    (random orthonormal basis, random rank split), and Bob's processing comes
    from random isometries with a dimension-2 environment.  ``n`` is the qubit
    count of Bob's system; Bob-with-input draws use it as the output system.
    """
    spec = SPECS.get(scenario)
    if spec is None or spec.sample is None:
        raise ValueError(f"no random quantum assemblages for scenario {scenario!r}")
    rng = np.random.default_rng(seed)
    sizes = {**spec.default_sizes, **(alphabets or {})}
    db = 2**n
    state = la.random_density(rng, 2 * db)
    povms = {x: tuple(la.random_projective_povm(rng, 2, sizes["a"]))
             for x in range(1, sizes["x"] + 1)}
    return spec.sample(rng, state, povms, sizes, db)
