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
    """How far below zero the least eigenvalue of an operator, or of a stack of them, lies, or 0."""
    return max(0.0, -float(np.linalg.eigvalsh(ms)[..., 0].min()))


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


def _bwi_grid(qr: QuantumRealisation):
    sigma, kraus = qr.conditional_states(), [c.kraus_ops for c in qr.channels.values()]
    # sum_k K_k sigma K_k^dagger through the superoperator S_opij = sum_k K_koi conj(K_kpj)
    # of each channel y: one product per channel instead of one per Kraus operator.
    out = np.stack([np.einsum("...axij,...opij->...axop", sigma,
                              np.einsum("...koi,...kpj->...opij", k, k.conj())) for k in kraus], -3)
    return (range(out.shape[-5]), list(qr.povms), list(qr.channels)), out


def _mdi_grid(qr: QuantumRealisation):
    sigma, db, effects = qr.conditional_states(), qr.bob_dim, np.asarray(qr.instrument)
    d_in = effects.shape[-1] // db
    blocks = effects.reshape(*effects.shape[:-2], db, d_in, db, d_in)
    j = np.einsum("...bpkqi,...axqp->...abxik", blocks, sigma) / d_in
    return (range(j.shape[-5]), range(effects.shape[-3]), list(qr.povms)), j


def _channel_grid(qr: QuantumRealisation):
    sigma, db, out = qr.conditional_states(), qr.bob_dim, qr.channel.out_dim
    # Gamma acts on B (x) C with C the first half of phi_plus on C (x) D.
    kraus = qr.channel.kraus_ops.reshape(*qr.channel.kraus_ops.shape[:-1], db, 2)
    phi = la.phi_plus(1).reshape(2, 2, 2, 2)
    j = np.einsum("...kosc,...axst,cdef,...kpte->...axodpf", kraus, sigma, phi, kraus.conj())
    return (range(j.shape[-6]), list(qr.povms)), j.reshape(*sigma.shape[:-2], 2 * out, 2 * out)


def _sample_bwi(rngs, sizes, db):
    # Each generator draws the isometries of Bob's channels y = 0, 1, ... in turn.
    kraus = la.random_channel(rngs[..., None].repeat(sizes["y"], -1), db, db).kraus_ops
    return {"channels": dict(enumerate(la.KrausMap(db, db, k) for k in np.moveaxis(kraus, -4, 0)))}


def _sample_mdi(rngs, sizes, db):
    # A random projective measurement on B (x) B_in, one effect per outcome b.
    return {"instrument": la.random_projective_povm(rngs, 2 * db, sizes["b"])}


def _sample_channel(rngs, sizes, db):
    return {"channel": la.random_channel(rngs, 2 * db, 2)}


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
    their grid of shape (*alphabet sizes, d, d).  ``sample(rngs, sizes, db)``
    draws Bob's processing, as ``QuantumRealisation`` keywords, for a Bob
    system of dimension ``db`` from the generators ``rngs``; ``realize(qr)``
    gives the labels and grid (..., *label counts, d, d) of the elements of a
    realisation or a stack of them.
    """

    axes: str
    settings: str
    conditions: Callable
    layout: str = ""
    resources: tuple = ()
    sample: Callable | None = None
    realize: Callable | None = None

    @property
    def default_sizes(self) -> dict:
        return {axis: 3 if axis in self.settings else 2 for axis in self.axes}

    @cached_property
    def slice_axes(self) -> str:
        """Slice key labels: the element axes, then the resource labels in layout order."""
        return self.axes + "".join(ch for ch in self.layout if ch.isalpha() and ch not in self.axes)


SPECS = {
    "standard": Scenario("cw", "w", _standard_conditions),
    "bwi": Scenario("axy", "x", _bwi_conditions, "a,0,c|x,y,*,w", ("cw",), _sample_bwi, _bwi_grid),
    "mdi": Scenario("abx", "x", _mdi_conditions, "a,b,c|x,*,z", ("cz",), _sample_mdi, _mdi_grid),
    # Factor 0 of a channel operator is Bob's output, read out by the second
    # resource (d, u); factor 1 is the Choi input, read out by the first (c, w).
    "channel": Scenario("ax", "x", _channel_conditions, "a,0,c,d|x,*,*,w,u", ("du", "cw"),
                        _sample_channel, _channel_grid),
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


def keyed_operators(labels, grid) -> dict:
    """The inverse of ``product_grid``: the operators ``grid`` (*label counts, d, d) keyed
    by the product of ``labels``, in key order, as views into the grid."""
    return dict(zip(itertools.product(*labels), grid.reshape(-1, *grid.shape[-2:])))


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
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and 1 <= n < 2**63
                   for n in self.sizes.values()):  # 2**63: the length of a range overflows
            raise ValueError(f"alphabet sizes must be integers in [1, 2**63), got {self.sizes}")
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

    @classmethod
    def from_grid(cls, labels, grid) -> Assemblage:
        """The assemblage of the elements ``grid`` (*label counts, d, d) keyed by
        ``keyed_operators``; each alphabet size is the length of its axis's ``labels``."""
        sizes = {f"n_{axis}": len(axis_labels)
                 for axis, axis_labels in zip(SPECS[cls.scenario].axes, labels)}
        return cls(keyed_operators(labels, grid), **sizes)


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

    ``povms`` maps the setting x to its effects, the same number for every x.
    Bob's processing is scenario specific and must act on Bob's system of
    dimension d_B: ``channels[y]`` (input d_B) for Bob-with-input,
    ``instrument`` (the POVM effects E_b on B (x) B_in, 2 d_B square) for MDI,
    ``channel`` (input B (x) C, 2 d_B) for the channel scenario.  Every array
    may carry the same leading axes, a stack of realisations that is checked
    and realised at once.
    """

    scenario: str
    state: np.ndarray
    povms: dict
    channels: dict | None = None
    instrument: tuple | np.ndarray | None = None
    channel: la.KrausMap | None = None

    def __post_init__(self):
        state = la.hermitian(self.state, tol=1e-10)
        object.__setattr__(self, "state", state)
        if _psd_residual(state) > STATE_TOL:
            raise ValueError("shared state is not positive semidefinite")
        if _max_abs(np.einsum("...ii->...", state) - 1) > STATE_TOL:
            raise ValueError("shared state does not have unit trace")
        counts = sorted({np.shape(effects)[-3] for effects in self.povms.values()})
        if len(counts) > 1:
            raise ValueError(f"Alice's POVMs have different outcome counts {counts}")
        povms = [([f"POVM for setting {x}" for x in self.povms],
                  np.stack([np.asarray(effects) for effects in self.povms.values()]))]
        if self.instrument is not None:
            povms.append((["instrument"], np.asarray(self.instrument)[None]))
        for names, effects in povms:  # one POVM check per stack: PSD effects summing to I
            n = len(names)
            sums = np.abs(effects.sum(-3) - np.eye(effects.shape[-1])).reshape(n, -1).max(1)
            least = np.linalg.eigvalsh(effects)[..., 0].reshape(n, -1).min(1)
            for what, deviation, eigenvalue in zip(names, sums, least):
                if deviation > STATE_TOL:
                    raise ValueError(f"{what} does not sum to identity")
                if -eigenvalue > STATE_TOL:
                    raise ValueError(f"{what} has an effect that is not PSD")
        db = self.bob_dim
        inputs = {f"channel for input {y}": (channel.in_dim, db)
                  for y, channel in (self.channels or {}).items()}
        if self.instrument is not None:
            inputs["instrument"] = (np.shape(self.instrument)[-1], 2 * db)
        if self.channel is not None:
            inputs["channel"] = (self.channel.in_dim, 2 * db)
        for what, (dim, expected) in inputs.items():
            if dim != expected:
                raise ValueError(f"{what} acts on dimension {dim}, not {expected} "
                                 f"for Bob's system of dimension {db}")

    @property
    def bob_dim(self) -> int:
        return self.state.shape[-1] // np.shape(next(iter(self.povms.values())))[-1]

    def conditional_states(self) -> np.ndarray:
        """Alice-conditioned states sigma_{a|x} = tr_A[(M_{a|x} (x) I) rho] on their
        (..., a, x) grid."""
        effects = np.stack([np.asarray(e) for e in self.povms.values()], -4)
        da, db = effects.shape[-1], self.bob_dim
        rho = self.state.reshape(*self.state.shape[:-2], da, db, da, db)
        return np.einsum("...xaji,...ikjl->...axkl", effects, rho)


def realize_bwi(qr: QuantumRealisation) -> BwIAssemblage:
    """Assemblage sigma_{a|xy} = E_y(tr_A[(M_{a|x} (x) I) rho])."""
    return BwIAssemblage.from_grid(*_bwi_grid(qr))


def realize_mdi(qr: QuantumRealisation) -> MDIAssemblage:
    """Choi operators J_{ab|x}[i, k] = tr[E_b (sigma_{a|x} (x) |i><k|)] / d_in."""
    return MDIAssemblage.from_grid(*_mdi_grid(qr))


def realize_channel(qr: QuantumRealisation) -> ChannelAssemblage:
    """Choi operators J(I_{a|x}) = (Gamma (x) id)(sigma_{a|x} (x) phi_plus)."""
    return ChannelAssemblage.from_grid(*_channel_grid(qr))


def transpose_assemblage(assemblage):
    """Elementwise transpose; involutive and scenario preserving."""
    return replace(assemblage, elements={key: m.T for key, m in assemblage.elements.items()})


def sample_quantum(scenario: str, seeds, alphabets: dict | None = None, n: int = 1):
    """``random_quantum`` for one seed or an array-like of them, drawn and realised as
    one stack: the labels of each element axis, the Hermitian-checked elements on their
    grid (*seed axes, *label counts, d, d) and the realisation stack."""
    spec = SPECS.get(scenario)
    if spec is None or spec.sample is None:
        raise ValueError(f"no random quantum assemblages for scenario {scenario!r}")
    rngs = np.asarray(np.frompyfunc(np.random.default_rng, 1, 1)(seeds), dtype=object)
    sizes = {**spec.default_sizes, **(alphabets or {})}
    db = 2**n
    state = la.random_density(rngs, 2 * db)
    # Each generator draws Alice's POVMs x = 1, 2, ... in turn.
    effects = la.random_projective_povm(rngs[..., None].repeat(sizes["x"], -1), 2, sizes["a"])
    povms = dict(zip(range(1, sizes["x"] + 1), np.moveaxis(effects, -4, 0)))
    qr = QuantumRealisation(scenario, state, povms, **spec.sample(rngs, sizes, db))
    labels, grid = spec.realize(qr)
    return labels, la.hermitian(grid), qr


def random_quantum(scenario: str, seed: int, alphabets: dict | None = None, n: int = 1):
    """Seeded random quantum assemblage plus the realisation that produced it.

    The state is a normalised Ginibre draw, Alice's POVMs are projective
    (random orthonormal basis, random rank split), and Bob's processing comes
    from random isometries with a dimension-2 environment.  ``n`` is the qubit
    count of Bob's system; Bob-with-input draws use it as the output system.
    The generator ``default_rng(seed)`` draws the state, Alice's POVMs for
    x = 1, 2, ..., then Bob's channels for y = 0, 1, ..., his instrument or
    his channel.  One seed is the stack of one of ``sample_quantum``.
    """
    labels, grid, qr = sample_quantum(scenario, seed, alphabets, n)
    return CONTAINERS[scenario].from_grid(labels, grid), qr
