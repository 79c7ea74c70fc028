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

import contextlib
import itertools
import math
import numbers
from collections.abc import Mapping
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from . import linalg as la

DEFAULT_TOL = 1e-9
_EPS = np.finfo(float).eps


class ConditionResult(la.Frozen):
    def __init__(self, name: str, residual: float):
        vars(self).update(name=name, residual=residual)

    def passes(self, tol: float) -> bool:
        return self.residual <= tol


class ValidationReport(la.Frozen):
    def __init__(self, scenario: str, conditions: tuple[ConditionResult, ...],
                 structural_errors: tuple[str, ...] = (), tol: float = DEFAULT_TOL):
        vars(self).update(scenario=scenario, conditions=conditions,
                          structural_errors=structural_errors, tol=tol)

    @property
    def passed(self) -> bool:
        return not self.structural_errors and all(c.passes(self.tol) for c in self.conditions)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.conditions), default=0.0)

    def failures(self) -> list[str]:
        return [*self.structural_errors, *(f"{c.name} (residual {c.residual:.3e})"
                                           for c in self.conditions if not c.passes(self.tol))]


def _max_abs(m) -> float:
    return float(abs(m).max())


def _psd_residual(ms) -> float:
    """How far below zero the least eigenvalue of an operator, or of a stack of them, lies, or 0."""
    return max(0.0, -float(np.linalg.eigvalsh(ms)[..., 0].min()))


def _psd_within(ms, tol: float, stacked: bool) -> bool:
    """Whether no eigenvalue of an operator, or of a stack, lies below -tol: in closed form
    at 2x2; for a ``stacked`` realisation, proved by a Cholesky factorisation of ms + tol/2 I
    if the diagonal bounds its rounding below tol/2; else, or if it fails, ``_psd_residual``."""
    n = ms.shape[-1]
    if n == 2:
        return la.min_eigenvalue(ms).min() >= -tol
    if stacked and ms.diagonal(0, -2, -1).real.max() * 8 * n * _EPS < tol / 2:
        with contextlib.suppress(np.linalg.LinAlgError):  # raised unless positive definite
            np.linalg.cholesky(ms + tol / 2 * la.identity(n))
            return True
    return _psd_residual(ms) <= tol


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
         _max_abs(grid.sum(1) - p[..., None, None] * la.identity(dim) / dim)),
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
         _max_abs(reduced - p[..., None, None] * la.identity(in_dim) / in_dim)),
        ("alice-probabilities-valid", _alice_probabilities_valid(p)),
        ("bob-channel-alice-setting-independent", _max_abs(totals - totals[0])),
    ]


def _bwi_grid(qr: QuantumRealisation):
    channels = list(qr.channels.values())
    sigma, d_in, d = qr.conditional_states(), qr.bob_dim, channels[0].out_dim
    # sum_k K_k sigma K_k^dagger = sum_ij sigma_ij S_ij, S_ij[o, p] = sum_k K_koi conj(K_kpj): one
    # product per channel for S, then one for all elements, with S over (i, j), (y, o, p).
    flat = [c.kraus_ops.reshape(*c.kraus_ops.shape[:-2], -1) for c in channels]
    s = np.stack([np.einsum("...kn,...km->...nm", k, k.conj()) for k in flat], -3)
    *lead, n_y = s.shape[:-2]
    s = s.reshape(*lead, n_y, d, d_in, d, d_in).transpose(*range(len(lead)), -3, -1, -5, -4, -2)
    out = np.einsum("...an,...nm->...am", sigma.reshape(*sigma.shape[:-4], -1, d_in * d_in),
                    s.reshape(*lead, d_in * d_in, -1))
    return (range(sigma.shape[-4]), list(qr.povms), list(qr.channels)), out.reshape(
        *sigma.shape[:-2], n_y, d, d)


def _mdi_grid(qr: QuantumRealisation):
    sigma, db, effects = qr.conditional_states(), qr.bob_dim, np.asarray(qr.instrument)
    d_in = effects.shape[-1] // db
    blocks = effects.reshape(*effects.shape[:-2], db, d_in, db, d_in)
    j = np.einsum("...bpkqi,...axqp->...abxik", blocks, sigma) / d_in
    return (range(j.shape[-5]), range(effects.shape[-3]), list(qr.povms)), j


def _channel_grid(qr: QuantumRealisation):
    sigma, db, out = qr.conditional_states(), qr.bob_dim, qr.channel.out_dim
    # Gamma acts on B (x) C; phi_plus on C (x) D is delta_cd delta_ef / 2, so C becomes D.
    kraus = qr.channel.kraus_ops.reshape(*qr.channel.kraus_ops.shape[:-1], db, 2)
    half = np.einsum("...axst,...kptf->...axkspf", sigma, kraus.conj())
    j = np.einsum("...kosd,...axkspf->...axodpf", kraus, half) / 2
    return (range(j.shape[-6]), list(qr.povms)), j.reshape(*sigma.shape[:-2], 2 * out, 2 * out)


def _leading(a):
    """``a`` with its axis -4 (Alice's setting or Bob's input) moved to the front."""
    return a.transpose(-4, *range(a.ndim - 4), -3, -2, -1)


def _sample_bwi(sizes, db):  # Bob's channels y = 0, 1, ..., each stack checked once
    return (sizes["y"], 2 * db, db), None, lambda g: {"channels": dict(enumerate(
        la.KrausMap(db, db, k) for k in _leading(la.stinespring(g, db))))}


def _sample_mdi(sizes, db):  # a projective measurement on B (x) B_in, its cuts drawn last
    return (2 * db, 2 * db), la.cut_draw(2 * db, sizes["b"]), lambda g, cuts: {
        "instrument": la.projective_povm(g, sizes["b"], cuts)}


def _sample_channel(sizes, db):
    return (4, 2 * db), None, lambda g: {"channel": la.KrausMap(2 * db, 2, la.stinespring(g, 2))}


class Scenario(la.Frozen):
    """What tells one scenario apart; everything else reads it generically.

    Labels are single letters.  ``axes`` are the element-key labels in key
    order and ``settings`` the 1-based ones among them.  ``layout`` is the
    protocol slice key as written in JSON: letters are labels, ``0`` is Bob's
    fixed outcome and ``*`` his protocol setting; it is empty when the
    scenario has no protocol.  ``resources`` holds the (outcome, setting)
    labels that read out each tensor factor of a functional operator, in
    factor order.  ``conditions(grid)`` gives the no-signalling residuals
    after ``elements-psd`` as (name, residual) pairs, from the elements on
    their grid of shape (*alphabet sizes, d, d).  ``sample(sizes, db)`` gives,
    for Bob's processing on a system of dimension ``db``, its Ginibre shape,
    the draw each generator makes after its normals (or None) and ``build``:
    its ``QuantumRealisation`` keywords from the Ginibre matrices and the
    outputs of that draw.  ``realize(qr)`` gives the labels and grid (...,
    *label counts, d, d) of the elements of a realisation or a stack of them;
    the module's ``realize`` hands that pair, for one realisation, to the
    container of the realisation's own scenario.
    """

    def __init__(self, axes: str, settings: str, conditions: Callable, layout: str = "",
                 resources: tuple = (), sample: Callable | None = None,
                 realize: Callable | None = None):
        vars(self).update(axes=axes, settings=settings, conditions=conditions, layout=layout,
                          resources=resources, sample=sample, realize=realize)

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


class ReadOnlyDict(dict):
    """A dict whose entries are fixed once it is built: every mutating method raises."""

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):  # copies and pickles rebuild it instead of filling an empty one
        return type(self), (dict(self),)


def operator_stack(operators) -> np.ndarray:
    """One read-only Hermitian stack, in order, of operators of one square shape."""
    shapes = {np.shape(m) for m in operators}
    if len(shapes) != 1 or len(next(iter(shapes))) != 2:
        raise ValueError(f"expected square operators of one shape, got shapes {sorted(shapes)}")
    return la.hermitian(list(operators))


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


def pair_grid(labels, grid) -> tuple[tuple, np.ndarray]:
    """The labels of a (labels, grid) pair as tuples and its Hermitian-checked grid, or a stack
    in key order, on the grid (*label counts, d, d) of each axis's distinct labels; ValueError
    names its shape and the label counts unless it holds one matrix per label tuple."""
    labels, grid = tuple(map(tuple, labels)), la.hermitian(grid)
    counts = tuple(map(len, map(set, labels)))
    try:  # the matrix shape is kept, so only a count of matrices that differs fails
        return labels, grid.reshape(*counts, *grid.shape[-2:])
    except ValueError:
        raise ValueError(f"grid of shape {grid.shape} does not hold one matrix per label "
                         f"tuple of the label counts {counts}") from None


class LabelGrid(la.Frozen, Mapping):
    """Floats on the grid of their key axes: ``labels`` holds the sorted labels of each
    axis and ``grid`` the finite read-only values, reshaped to (*label counts,).  As a
    mapping it is the read-only view key -> float in key order, built on first use."""

    def __init__(self, labels, grid):
        labels = tuple(map(tuple, labels))
        grid = np.array(grid, dtype=float).reshape(tuple(map(len, labels)))
        grid.setflags(write=False)
        vars(self).update(labels=labels, grid=grid)
        if not np.isfinite(grid).all():
            key = next(itertools.compress(self, ~np.isfinite(grid.ravel())))
            raise ValueError(f"non-finite value at {key}")

    @classmethod
    def keyed(cls, block, n_axes: int, what: str) -> LabelGrid:
        """``block`` if it is a LabelGrid, else that of a (labels, grid) pair or of its
        {key: float} entries by ``product_grid``."""
        if isinstance(block, cls):
            return block
        return cls(*block if isinstance(block, tuple) else product_grid(
            block, np.fromiter(block.values(), float, len(block)), n_axes, what))

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


def _inside(label, axis: range) -> bool:
    # int first: most labels are ints, and the check against the ABC alone is slow.
    return isinstance(label, (int, numbers.Integral)) and axis.start <= label < axis.stop


class Assemblage(la.Frozen):
    """Elements of an assemblage, keyed by the axes of its scenario in ``SPECS``.

    Each subclass is one scenario: ``BwIAssemblage(elements, n_a=2, n_x=3, n_y=2)``
    for a (labels, grid) pair, whose label counts are its default sizes, or a dict
    {key: matrix}, put on its grid by ``product_grid``.  The checked elements are
    held once, on the read-only ``grid`` (*label counts, d, d) over the alphabets'
    ``labels()`` (or the keys' own, if some are missing); ``stack`` is its (keys,
    d, d) view, ``elements`` a read-only dict of views built on first read.  Keys
    that are no full product of their labels keep their dict and stack instead.
    """

    scenario: ClassVar[str] = ""
    _missing: ClassVar[str | None] = None
    stack = cached_property(lambda self: self._grid.reshape(-1, *self._grid.shape[-2:]))
    elements = cached_property(lambda self: ReadOnlyDict(zip(itertools.product(*self._labels),
                                                             self.stack)))
    sizes = property(lambda self: dict(zip(self.spec.axes, self._sizes)))
    dim = property(lambda self: (self.stack if len(self.stack) else self.grid[1]).shape[-1])

    def __init_subclass__(cls, scenario: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.scenario, cls.spec = scenario, SPECS[scenario]

    def __init__(self, elements, **sizes):
        pair = isinstance(elements, tuple)
        defaults = map(len, elements[0]) if pair else self.spec.default_sizes.values()
        vars(self)["_sizes"] = tuple(sizes.pop(f"n_{axis}", n)
                                     for axis, n in zip(self.spec.axes, defaults))
        if sizes:
            raise TypeError(f"{type(self).__name__} has no alphabets {sorted(sizes)}")
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and 1 <= n < 2**63
                   for n in self._sizes):  # 2**63: the length of a range overflows
            raise ValueError(f"alphabet sizes must be integers in [1, 2**63), got {self.sizes}")
        ranges, keys = self.labels(), [] if pair else list(elements)
        labels = elements[0] if pair else list(map(set, zip(*keys)))
        # Each distinct label of an axis is checked once; the first key outside is named after.
        if ({len(labels)} if pair else set(map(len, keys))) - {len(ranges)} or not all(
                _inside(label, axis) for column, axis in zip(labels, ranges) for label in column):
            outside = next(key for key in keys or itertools.product(*labels)
                           if len(key) != len(ranges) or not all(map(_inside, key, ranges)))
            raise ValueError(f"element key {outside} lies outside the alphabets {self.sizes}")
        if pair:
            vars(self).update(zip(("_labels", "_grid"), pair_grid(*elements)))
            return
        stack = operator_stack(elements.values()) if keys else np.empty((0, 0, 0))
        try:  # on the grid of the keys' own labels if the keys are its full product
            vars(self).update(zip(("_labels", "_grid"), product_grid(
                keys, stack, len(ranges), "missing element")))
        except ValueError as exc:  # else ``grid`` names the first key of it that they miss
            vars(self).update(_missing=str(exc))
        if not keys or self._missing:
            vars(self).update(_grid=None, stack=stack, elements=ReadOnlyDict(zip(keys, stack)))

    def labels(self) -> list:
        """The label range of each axis, in axis order."""
        return [range(1, n + 1) if axis in self.spec.settings else range(n)
                for axis, n in zip(self.spec.axes, self._sizes)]

    @property
    def grid(self) -> tuple[tuple, np.ndarray]:
        """The labels of each axis and the elements on their read-only grid (*label counts,
        d, d); ValueError names the first missing element if there is no grid."""
        if self._grid is None:
            raise ValueError(self._missing or f"missing element {self.first_missing()}")
        return self._labels, self._grid

    def first_missing(self) -> tuple | None:
        """The first key of the alphabets' product without an element, or None."""
        n = len(self.stack) + 1  # the first n keys hold one, with labels in each axis's first n
        return next((key for key in itertools.product(*(axis[:n] for axis in self.labels()))
                     if key not in self.elements), None)


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
    n = math.prod(map(len, assemblage.labels())) - len(assemblage.stack)  # none lie outside
    if n:
        error = f"{n} missing element{'s' * (n > 1)}, the first {assemblage.first_missing()}"
        return ValidationReport(assemblage.scenario, (), (error,), tol)
    conds = [("elements-psd", _psd_residual(assemblage.stack)),
             *assemblage.spec.conditions(assemblage.grid[1])]
    return ValidationReport(assemblage.scenario, tuple(ConditionResult(*c) for c in conds), (), tol)


STATE_TOL = 1e-10
# The ``QuantumRealisation`` field that holds Bob's processing, per scenario with a ``realize``.
BOB_PROCESSING = {"bwi": "channels", "mdi": "instrument", "channel": "channel"}


class QuantumRealisation(la.Frozen):
    """A shared state, Alice POVMs, and Bob-side processing for one scenario.

    ``povms`` maps the setting x to its effects, the same number for every x, held as
    read-only views of the one stack that is checked; ``channels`` is held as a read-only copy.
    Bob's processing is scenario specific and must act on Bob's system of
    dimension d_B: ``channels[y]`` (input d_B) for Bob-with-input,
    ``instrument`` (the POVM effects E_b on B (x) B_in, 2 d_B square) for MDI,
    ``channel`` (input B (x) C, 2 d_B) for the channel scenario.  Every array
    may carry the same leading axes, a stack of realisations that is checked
    and realised at once.
    """

    def __init__(self, scenario: str, state: np.ndarray, povms: dict,
                 channels: dict | None = None, instrument: tuple | np.ndarray | None = None,
                 channel: la.KrausMap | None = None):
        vars(self).update(scenario=scenario, state=state, povms=ReadOnlyDict(povms),
                          channels=channels if channels is None else ReadOnlyDict(channels),
                          instrument=instrument, channel=channel)
        if self.scenario not in BOB_PROCESSING:
            raise ValueError(f"scenario {self.scenario!r} has no quantum realisation; "
                             f"one of {list(BOB_PROCESSING)}")
        held = [name for name, field in BOB_PROCESSING.items() if getattr(self, field) is not None]
        if self.scenario not in held:
            raise ValueError(f"a {self.scenario!r} realisation needs Bob's "
                             f"{BOB_PROCESSING[self.scenario]}; it holds the processing of {held}")
        state = vars(self)["state"] = la.hermitian(self.state, tol=1e-10)
        stacked = state.ndim > 2
        if not _psd_within(state, STATE_TOL, stacked):
            raise ValueError("shared state is not positive semidefinite")
        if _max_abs(state.trace(0, -2, -1) - 1) > STATE_TOL:
            raise ValueError("shared state does not have unit trace")
        arrays = list(map(np.asarray, self.povms.values()))
        for x, a in zip(self.povms, arrays):
            if a.ndim < 3:
                raise ValueError(f"POVM for setting {x} of shape {a.shape} is no stack of effects")
        for differ, axis in (("have different outcome counts", -3),
                             ("act on different dimensions", -1),
                             ("carry different leading stack axes", slice(-3))):
            values = sorted({a.shape[axis] for a in arrays})
            if len(values) > 1:
                raise ValueError(f"Alice's POVMs {differ} {values}")
        # The effects stacked by setting, (x, ..., a, d, d): held read-only for
        # ``conditional_states``, and ``povms`` holds their views, so both stay as checked.
        effects = vars(self)["_effects"] = np.stack(arrays)
        effects.setflags(write=False)
        vars(self)["povms"] = ReadOnlyDict(zip(self.povms, effects))
        povms = [("POVM for setting {}", list(self.povms), effects)]
        if self.instrument is not None:
            povms.append(("instrument", [None], np.asarray(self.instrument)[None]))
        for name, keys, effects in povms:  # one POVM check per stack: PSD effects summing to I
            finite = np.isfinite(effects)
            if not finite.all():  # first: a NaN would fail every later comparison silently
                key = keys[finite.reshape(len(keys), -1).all(1).argmin()]
                raise ValueError(f"{name.format(key)} has non-finite entries")
            deviation = abs(effects.sum(-3) - la.identity(effects.shape[-1]))
            psd = _psd_within(effects, STATE_TOL, stacked)
            if psd and deviation.max() <= STATE_TOL:
                continue  # else find the first failing POVM, in order
            for key, dev, each in zip(keys, deviation.reshape(len(keys), -1).max(1), effects):
                if dev > STATE_TOL:
                    raise ValueError(f"{name.format(key)} does not sum to identity")
                if not (psd or _psd_within(each, STATE_TOL, stacked)):
                    raise ValueError(f"{name.format(key)} has an effect that is not PSD")
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
        channels = (self.channels or {}).values()
        for differ, values in (("have different output dimensions", {c.out_dim for c in channels}),
                               ("carry different leading stack axes",
                                {c.kraus_ops.shape[:-3] for c in channels})):
            if len(values) > 1:
                raise ValueError(f"Bob's channels {differ} {sorted(values)}")

    @cached_property
    def bob_dim(self) -> int:
        return self.state.shape[-1] // self._effects.shape[-1]

    def conditional_states(self) -> np.ndarray:
        """Alice-conditioned states sigma_{a|x} = tr_A[(M_{a|x} (x) I) rho] on their
        (..., a, x) grid."""
        effects = self._effects  # (x, ..., a, da, da), with x moved to axis -4
        effects = effects.transpose(*range(1, effects.ndim - 3), 0, -3, -2, -1)
        da, db = effects.shape[-1], self.bob_dim
        # sigma_{a|x}[k, l] = sum_ij M_{a|x}[j, i] rho[(i, k), (j, l)]: one product over (i, j).
        # An einsum of flattened operands adds the terms in the order of the index form, so
        # the bits stay those of that form; ``@`` (BLAS) rounds differently in the last bit.
        rho = self.state.reshape(*self.state.shape[:-2], da, db, da, db).swapaxes(-3, -2)
        sigma = np.einsum("...xn,...nm->...xm",
                          effects.swapaxes(-1, -2).reshape(*effects.shape[:-4], -1, da * da),
                          rho.reshape(*rho.shape[:-4], da * da, db * db))
        return sigma.reshape(*effects.shape[:-2], db, db).swapaxes(-4, -3)


def realize(qr: QuantumRealisation) -> Assemblage:
    """The assemblage of a realisation in its scenario: sigma_{a|xy} = E_y(tr_A[(M_{a|x} (x)
    I) rho]) for bwi, J_{ab|x}[i, k] = tr[E_b (sigma_{a|x} (x) |i><k|)] / d_in for mdi and
    J(I_{a|x}) = (Gamma (x) id)(sigma_{a|x} (x) phi_plus) for channel."""
    return CONTAINERS[qr.scenario](SPECS[qr.scenario].realize(qr))


def transpose_assemblage(assemblage):
    """Elementwise transpose, one swap of the grid's axes; involutive and scenario preserving."""
    labels, grid = assemblage.grid
    return type(assemblage)((labels, grid.swapaxes(-1, -2)),
                            **{f"n_{axis}": n for axis, n in assemblage.sizes.items()})


def sample_quantum(scenario: str, seeds, alphabets: dict | None = None, n: int = 1):
    """``random_quantum`` for one seed or an array-like of them, drawn and realised as
    one stack: the labels of each element axis, the Hermitian-checked elements on their
    grid (*seed axes, *label counts, d, d) and the realisation stack.  Each seed's
    generator, ``default_rng(seed)`` bit for bit (``la.generators``, which seeds a stack of
    three or more in one pass), draws as in ``random_quantum``: one ``standard_normal`` call,
    then the cuts of an MDI instrument."""
    qr = _draw(scenario, seeds, alphabets, n)
    labels, grid = SPECS[scenario].realize(qr)
    return labels, la.hermitian(grid), qr


def _draw(scenario: str, seeds, alphabets: dict | None, n: int) -> QuantumRealisation:
    """The realisation, or stack of them, that ``sample_quantum`` realises."""
    spec = SPECS.get(scenario)
    if spec is None or spec.sample is None:
        raise ValueError(f"no random quantum assemblages for scenario {scenario!r}")
    rngs = la.generators(seeds)
    sizes = {**spec.default_sizes, **(alphabets or {})}
    db = 2**n
    la.cut_draw(2, sizes["a"])  # checks Alice's outcome count; her qubit POVMs draw no cuts
    shape, then, build = spec.sample(sizes, db)
    state, alice, *bob = la.ginibre_stacks(rngs, (2 * db, 2 * db), (sizes["x"], 2, 2), shape,
                                           then=then)
    effects = _leading(la.projective_povm(alice, sizes["a"]))
    povms = dict(zip(range(1, sizes["x"] + 1), effects))
    return QuantumRealisation(scenario, la.density(state), povms, **build(*bob))


def random_quantum(scenario: str, seed: int, alphabets: dict | None = None, n: int = 1):
    """Seeded random quantum assemblage plus the realisation that produced it.

    The state is a normalised Ginibre draw, Alice's POVMs are projective
    (random orthonormal basis, random rank split), and Bob's processing comes
    from random isometries with a dimension-2 environment.  ``n`` is the qubit
    count of Bob's system; Bob-with-input draws use it as the output system.
    The generator, ``default_rng(seed)`` bit for bit (``la.generators``),
    draws all its normals in one ``standard_normal`` call: the state's Ginibre
    matrix, those of Alice's POVMs for x = 1, 2, ..., then those of Bob's
    channels for y = 0, 1, ..., his instrument or his channel, each matrix's
    real parts before its imaginary parts; an MDI instrument's rank cuts are
    drawn last.  One seed is the stack of one of ``sample_quantum``.
    """
    qr = _draw(scenario, seed, alphabets, n)
    return realize(qr), qr  # the container checks its elements
