import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprkit import catalog
from eprkit import linalg as la
from eprkit import protocol
from eprkit.assemblages import (BwIAssemblage, MDIAssemblage, StandardAssemblage, random_quantum,
                                sample_quantum, validate)
from eprkit.bounds import SELFTEST_MAX, selftest_value
from eprkit.functionals import bell_from_epr, evaluate_bell, evaluate_epr
from eprkit.protocol import (
    CorrelationTable,
    make_resource,
    selftest_marginal,
    simulate_bwi,
    simulate_channel,
    simulate_mdi,
)
from oracles import (
    apply_map_to_factors,
    bwi_slices_einsum,
    partial_trace,
    random_hermitian,
    random_povm_element,
    random_slice_labels,
    resource_per_key,
    shuffled_table,
    slice_mass_per_key,
)


def test_make_resource_canonical_elements():
    res = make_resource(1, 1.0)
    assert np.allclose(res.elements[(0, 1)], (la.I2 + la.PAULI_Z) / 4)
    assert np.allclose(res.elements[(0, 3)], (la.I2 - la.PAULI_Y) / 4)


def test_make_resource_full_transpose():
    res = make_resource(1, 0.0)
    assert np.allclose(res.elements[(0, 3)], (la.I2 + la.PAULI_Y) / 4)
    assert np.allclose(res.elements[(0, 1)], (la.I2 + la.PAULI_Z) / 4)


def test_make_resource_two_qubit_product():
    res = make_resource(2, 1.0)
    expected = la.tensor((la.I2 + la.PAULI_Z) / 4, (la.I2 + la.PAULI_X) / 4)
    assert np.allclose(res.elements[((0, 0), (1, 2))], expected)


def test_make_resource_mixture_identity():
    for r in (0.0, 0.3, 1.0):
        res = make_resource(1, r)
        for (c, w), element in res.elements.items():
            pure = catalog.sigma_tilde(c, w)
            assert np.max(np.abs(element - (r * pure + (1 - r) * pure.T))) < 1e-12


def test_make_resource_is_valid_standard_assemblage():
    for r in (0.0, 0.5, 1.0):
        res = make_resource(1, r)
        assert validate(StandardAssemblage(dict(res.elements))).passed


@settings(max_examples=60)
@given(n=st.sampled_from([1, 2]), r=st.floats(0.0, 1.0))
def test_make_resource_matches_the_per_key_construction(n, r):
    res = make_resource(n, r)
    elements, labels = resource_per_key(n, r)
    assert list(res.elements) == list(elements) and res.labels == labels
    for got, expected in zip(res.elements.values(), elements.values()):
        assert got.tobytes() == expected.tobytes()
    assert res.stack.tobytes() == np.stack(list(elements.values())).tobytes()


def test_resource_grids_are_read_only_and_share_no_writable_memory():
    for n in (1, 2):
        _, pure = catalog.canonical_resource_grid(n)
        assert not pure.flags.writeable
        low, high = make_resource(n, 0.25), make_resource(n, 0.75)
        for res in (low, high):
            assert not res.stack.flags.writeable
            assert not any(m.flags.writeable for m in res.elements.values())
            assert not np.shares_memory(res.stack, pure)
            with pytest.raises(ValueError):
                res.stack[0, 0, 0] = 1.0
        assert not np.shares_memory(low.stack, high.stack)


def test_make_resource_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_resource(1, 1.5)
    with pytest.raises(ValueError):
        make_resource(3, 0.5)


def test_phi_plus_transpose_identity():
    # tr_1[(A (x) I) phi_plus] = A^T / 2 for arbitrary operators.
    for seed in range(50):
        a = random_hermitian(np.random.default_rng(seed), 2)
        lhs = partial_trace(la.tensor(a, la.I2) @ la.phi_plus(), [2, 2], 0)
        assert np.max(np.abs(lhs - a.T / 2)) < 1e-12


def test_simulate_bwi_reduces_to_transposed_overlap():
    ptp = catalog.ptp_assemblage()
    table = simulate_bwi(ptp, make_resource(1, 1.0))
    for (a, x, y, c, w), p in table.slice.items():
        expected = np.real(np.trace(catalog.sigma_tilde(c, w).T @ ptp.elements[(a, x, y)])) / 2
        assert abs(p - expected) < 1e-12


def test_simulate_bwi_maximally_mixed_assemblage():
    elements = {(a, x, y): np.eye(2, dtype=complex) / 4
                for a in (0, 1) for x in (1, 2, 3) for y in (0, 1)}
    table = simulate_bwi(BwIAssemblage(elements), make_resource(1, 1.0))
    for p in table.slice.values():
        assert abs(p - 1 / 16) < 1e-12


def test_simulate_bwi_zero_measurement():
    table = simulate_bwi(catalog.ptp_assemblage(), make_resource(1, 1.0), np.zeros((4, 4)))
    assert all(p == 0.0 for p in table.slice.values())


def test_simulate_bwi_rejects_invalid_effect():
    with pytest.raises(ValueError, match="not a valid effect"):
        simulate_bwi(catalog.ptp_assemblage(), make_resource(1, 1.0), 2 * np.eye(4))
    with pytest.raises(ValueError, match="not a valid effect"):
        simulate_bwi(catalog.ptp_assemblage(), make_resource(1, 1.0), -np.eye(4))
    with pytest.raises(ValueError, match="must be 4x4, got"):
        simulate_bwi(catalog.ptp_assemblage(), make_resource(1, 1.0), np.eye(2))


def _simulate(assemblage, resource, measurement=None):
    if assemblage.scenario == "bwi":
        return simulate_bwi(assemblage, resource, measurement)
    return simulate_channel(assemblage, resource, resource, measurement)


@pytest.mark.parametrize("scenario, n", [("bwi", 1), ("bwi", 2), ("channel", 1)])
def test_default_effect_is_built_and_checked_once(monkeypatch, scenario, n):
    assemblage, resource = random_quantum(scenario, 3, n=n)[0], make_resource(n, 0.5)
    phi_plus = la.phi_plus(n)
    _simulate(assemblage, resource)  # builds the default effect of n qubits, if not yet built
    calls = []
    for module, name in ((la, "phi_plus"), (np.linalg, "eigvalsh")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda m, real=real, name=name: (
            calls.append(name), real(m))[1])
    default = _simulate(assemblage, resource)
    assert calls == []  # neither rebuilt nor checked again
    explicit = _simulate(assemblage, resource, phi_plus)
    assert calls == ["eigvalsh"]  # an effect the caller passes is checked on every call
    assert np.array_equal(default.slice.grid, explicit.slice.grid)
    assert not protocol._check_effect(None, n).flags.writeable


def test_simulate_takes_a_measurement_only_where_the_protocol_has_one():
    for scenario in ("bwi", "channel"):
        assemblage = random_quantum(scenario, 1)[0]
        assert np.array_equal(protocol.simulate(assemblage, 0.5, la.phi_plus()).slice.grid,
                              protocol.simulate(assemblage, 0.5).slice.grid)
    with pytest.raises(ValueError, match="the mdi protocol takes no measurement"):
        protocol.simulate(random_quantum("mdi", 1)[0], 1.0, la.phi_plus())


def test_simulate_bwi_rejects_other_scenarios():
    for scenario in ("mdi", "channel"):
        with pytest.raises(ValueError):
            simulate_bwi(random_quantum(scenario, 1)[0], make_resource(1, 1.0))


def _overlap(m, *factors):
    return float(np.real(np.trace(m @ la.tensor(*factors))))


def _apply_choi_direct(j, rho):
    # 2 tr_in[(I (x) rho^T) J] on out (x) in factors of a qubit input.
    return 2 * partial_trace(la.tensor(la.I2, rho.T) @ j, [2, 2], 1)


def _direct_table(mode, assemblage, res, m):
    """The simulators' slices from their defining formulas, one trace per entry."""
    if mode.startswith("bwi"):
        return {key + rkey: _overlap(m, s, rho)
                for key, s in assemblage.elements.items() for rkey, rho in res.elements.items()}
    if mode == "mdi":
        return {key + rkey: 2 * float(np.real(np.trace(rho.T @ j)))
                for key, j in assemblage.elements.items() for rkey, rho in res.elements.items()}

    def raw(inputs, outputs):
        return {(a, x, c, d, w, u): _overlap(m, _apply_choi_direct(j, inputs[(c, w)]),
                                             outputs[(d, u)])
                for (a, x), j in assemblage.elements.items() for (c, w) in inputs
                for (d, u) in outputs}

    pure = {key: catalog.sigma_tilde(*key) for key in res.elements}
    top, bottom = raw(pure, pure), raw({k: v.T for k, v in pure.items()},
                                       {k: v.T for k, v in pure.items()})
    return {key: res.r * top[key] + (1 - res.r) * bottom[key] for key in top}


@pytest.mark.parametrize("mode", ["bwi-1", "bwi-2", "mdi", "channel"])
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_simulators_match_direct_formula(mode, seed, r):
    n = 2 if mode == "bwi-2" else 1
    assemblage, _ = random_quantum(mode.split("-")[0], seed, n=n)
    res = make_resource(n, r)
    m = random_povm_element(np.random.default_rng(seed), 4**n)
    if mode.startswith("bwi"):
        table = simulate_bwi(assemblage, res, m)
    elif mode == "mdi":
        table = simulate_mdi(assemblage, res)
    else:
        table = simulate_channel(assemblage, res, res, m)
    expected = _direct_table(mode, assemblage, res, m)
    assert list(table.slice) == sorted(expected)
    assert max(abs(table.slice[key] - p) for key, p in expected.items()) < 1e-12


def test_tables_do_not_share_selftest_marginals():
    # Tables share one canonical marginal, read-only, so no table can change another's.
    res = make_resource(1, 1.0)
    first = simulate_bwi(catalog.ptp_assemblage(), res)
    with pytest.raises(TypeError):
        first.selftest["bc"][(0, 0, 1, 1)] = 0.5
    assert not first.selftest["bc"].grid.flags.writeable
    second = simulate_bwi(catalog.ptp_assemblage(), res)
    assert second.selftest["bc"] == catalog.canonical_selftest_marginal()


def test_simulate_bwi_slice_mass_quarter():
    for seed in range(10):
        assemblage, _ = random_quantum("bwi", seed)
        table = simulate_bwi(assemblage, make_resource(1, 1.0))
        for mass in table.slice_mass().values():
            assert abs(mass - 0.25) < 1e-10


@given(seed=st.integers(0, 2**32 - 1), scenario=st.sampled_from(["bwi", "mdi", "channel"]),
       n=st.integers(1, 2))
def test_slice_mass_matches_per_key_accumulation(seed, scenario, n):
    rng = np.random.default_rng(seed)
    table = shuffled_table(rng, random_slice_labels(rng, scenario, n), rng.uniform)
    masses, expected = CorrelationTable(scenario, table).slice_mass(), slice_mass_per_key(
        scenario, table)
    assert list(masses) == sorted(expected)
    assert max(abs(masses[g] - m) for g, m in expected.items()) <= 1e-12


def test_simulate_mdi_uniform_assemblage():
    elements = {(a, b, x): np.eye(2, dtype=complex) / 8
                for a in (0, 1) for b in (0, 1) for x in (1, 2, 3)}
    table = simulate_mdi(MDIAssemblage(elements), make_resource(1, 1.0))
    for p in table.slice.values():
        assert abs(p - 1 / 8) < 1e-12


def test_simulate_mdi_chain_is_exact():
    # The coefficient-to-operator chain carries no prefactor in this scenario.
    rng = np.random.default_rng(12)
    ops = {(a, b, x): random_hermitian(rng, 2)
           for a in (0, 1) for b in (0, 1) for x in (1, 2, 3)}
    from eprkit.functionals import EPRFunctional
    f = EPRFunctional("mdi", ops)
    for seed in range(20):
        assemblage, _ = random_quantum("mdi", seed)
        table = simulate_mdi(assemblage, make_resource(1, 1.0))
        bell = evaluate_bell(bell_from_epr(f), table)
        assert abs(bell - evaluate_epr(f, assemblage)) < 1e-10


def test_simulate_channel_trivial_assemblage():
    # J(I_{a|x}) = p(a|x) phi_plus: the identity channel on the input.
    elements = {}
    probs = {1: 0.5, 2: 0.3, 3: 0.9}
    for x, p in probs.items():
        elements[(0, x)] = p * la.phi_plus()
        elements[(1, x)] = (1 - p) * la.phi_plus()
    from eprkit.assemblages import ChannelAssemblage
    assemblage = ChannelAssemblage(elements)
    res = make_resource(1, 1.0)
    table = simulate_channel(assemblage, res, res)
    for (a, x, c, d, w, u), p in table.slice.items():
        p_ax = probs[x] if a == 0 else 1 - probs[x]
        expected = p_ax * np.real(np.trace(
            la.phi_plus() @ la.tensor(catalog.sigma_tilde(c, w), catalog.sigma_tilde(d, u))
        ))
        assert abs(p - expected) < 1e-12
    masses = table.slice_mass()
    for (x, w, u), mass in masses.items():
        assert abs(mass - sum(
            table.slice[(a, x, c, d, w, u)]
            for a in (0, 1) for c in (0, 1) for d in (0, 1)
        )) < 1e-15


def test_simulate_channel_zero_measurement():
    assemblage, _ = random_quantum("channel", 0)
    res = make_resource(1, 1.0)
    table = simulate_channel(assemblage, res, res, np.zeros((4, 4)))
    assert all(p == 0.0 for p in table.slice.values())


def test_simulate_channel_embedded_ptp_value():
    assemblage, functional = catalog.embedded_ptp_channel()
    res = make_resource(1, 1.0)
    table = simulate_channel(assemblage, res, res)
    bell = evaluate_bell(bell_from_epr(functional), table)
    assert abs(bell - (-catalog.PTP.almost_quantum / 4)) < 1e-4


def test_simulate_channel_alignment_contract():
    assemblage, _ = random_quantum("channel", 3)
    with pytest.raises(ValueError):
        simulate_channel(assemblage, make_resource(1, 1.0), make_resource(1, 0.5))


def test_simulate_bwi_chain_quarter_factor():
    f = catalog.ptp_functional(normalized=True)
    xi = bell_from_epr(f)
    res = make_resource(1, 1.0)
    for seed in range(20):
        assemblage, _ = random_quantum("bwi", seed)
        bell = evaluate_bell(xi, simulate_bwi(assemblage, res))
        assert abs(bell - evaluate_epr(f, assemblage) / 4) < 1e-9


def test_simulate_channel_chain_quarter_factor():
    # Holds for arbitrary Hermitian operator families, not just witnesses.
    from eprkit.functionals import EPRFunctional
    rng = np.random.default_rng(77)
    f = EPRFunctional("channel", {
        (a, x): random_hermitian(rng, 4) for a in (0, 1) for x in (1, 2, 3)
    })
    xi = bell_from_epr(f)
    res = make_resource(1, 1.0)
    for seed in range(20):
        assemblage, _ = random_quantum("channel", seed)
        bell = evaluate_bell(xi, simulate_channel(assemblage, res, res))
        assert abs(bell - evaluate_epr(f, assemblage) / 4) < 1e-9


def test_simulate_mdi_matches_direct_physics():
    # Choi contraction vs measuring the actual realisation on the resource.
    res = make_resource(1, 0.37)
    for seed in range(10):
        assemblage, qr = random_quantum("mdi", seed)
        table = simulate_mdi(assemblage, res)
        for (a, b, x, c, z), p in table.slice.items():
            direct = np.real(np.trace(
                la.tensor(qr.povms[x][a], qr.instrument[b])
                @ la.tensor(qr.state, res.elements[(c, z)])
            ))
            assert abs(p - direct) < 1e-12


def test_simulate_channel_matches_direct_physics():
    res = make_resource(1, 1.0)
    phi = la.phi_plus()
    for seed in range(10):
        assemblage, qr = random_quantum("channel", seed)
        table = simulate_channel(assemblage, res, res)
        for (a, x, c, d, w, u), p in table.slice.items():
            state = la.tensor(qr.state, catalog.sigma_tilde(c, w), catalog.sigma_tilde(d, u))
            after = apply_map_to_factors(qr.channel, state, [2, 2, 2, 2], [1, 2])
            direct = np.real(np.trace(la.tensor(qr.povms[x][a], phi) @ after))
            assert abs(p - direct) < 1e-12


def test_correlation_table_range_checks_every_block_but_the_canonical_marginal(monkeypatch):
    checked = []
    check = protocol._check_probabilities
    monkeypatch.setattr(protocol, "_check_probabilities", lambda p, keys: (
        checked.append(p.size), check(p, keys)))
    table = simulate_bwi(catalog.ptp_assemblage(), make_resource(1, 1.0))
    # bwi_slices checks the slice, then the table checks it again, without the marginal.
    assert checked == [table.slice.grid.size] * 2
    with pytest.raises(TypeError):
        CorrelationTable("bwi", table.slice, checked=True)
    marginal = dict(catalog.canonical_selftest_marginal())
    marginal[(0, 0, 1, 1)] = 1.5  # a copy of the canonical marginal is checked
    with pytest.raises(ValueError, match=r"probability out of range at \(0, 0, 1, 1\): 1.5"):
        CorrelationTable("bwi", table.slice, {"bc": marginal})


def test_selftest_marginal_canonical_value():
    table = simulate_bwi(catalog.ptp_assemblage(), make_resource(1, 1.0))
    marginal = selftest_marginal(table)
    assert abs(selftest_value(marginal) - SELFTEST_MAX) < 1e-9


def test_selftest_marginal_missing_block():
    table = CorrelationTable("bwi", {}, {})
    with pytest.raises(ValueError):
        selftest_marginal(table)


def test_selftest_marginal_missing_settings():
    table = CorrelationTable("bwi", {}, {"bc": {(0, 0, 1, 1): 1.0}})
    with pytest.raises(ValueError):
        selftest_marginal(table)


@given(st.floats(0.0, 1.0))
def test_bell_value_affine_in_mixing_parameter(r):
    xi = catalog.ptp_bell_coefficients()
    ptp = catalog.ptp_assemblage()
    v0 = evaluate_bell(xi, simulate_bwi(ptp, make_resource(1, 0.0)))
    v1 = evaluate_bell(xi, simulate_bwi(ptp, make_resource(1, 1.0)))
    v = evaluate_bell(xi, simulate_bwi(ptp, make_resource(1, r)))
    assert abs(v - (r * v1 + (1 - r) * v0)) < 1e-10


@given(st.integers(0, 2**32 - 1))
def test_bwi_chain_factor_property(seed):
    f = catalog.ptp_functional(normalized=True)
    assemblage, _ = random_quantum("bwi", seed)
    bell = evaluate_bell(bell_from_epr(f), simulate_bwi(assemblage, make_resource(1, 1.0)))
    assert abs(bell - evaluate_epr(f, assemblage) / 4) < 1e-9
    assert bell >= -1e-7


def test_correlation_table_rejects_out_of_range():
    with pytest.raises(ValueError):
        CorrelationTable("bwi", {(0, 1, 0, 0, 1): 1.2})
    with pytest.raises(ValueError):
        CorrelationTable("bwi", {(0, 1, 0, 0, 1): -0.1})


def test_mixture_grid_no_false_positive():
    # Quantum controls stay nonnegative for every mixing parameter.
    xi = catalog.ptp_bell_coefficients()
    for seed in range(25):
        assemblage, _ = random_quantum("bwi", seed)
        for r in (0.0, 0.25, 0.5, 0.75, 1.0):
            table = simulate_bwi(assemblage, make_resource(1, r))
            assert evaluate_bell(xi, table) >= -1e-7


def test_arbitrary_measurement_no_false_positive():
    xi = catalog.ptp_bell_coefficients()
    res = make_resource(1, 1.0)
    for seed in range(25):
        assemblage, _ = random_quantum("bwi", seed)
        m = random_povm_element(np.random.default_rng(1000 + seed), 4)
        table = simulate_bwi(assemblage, res, m)
        assert evaluate_bell(xi, table) >= -1e-7


@pytest.mark.parametrize("n", [1, 2])
def test_bwi_slices_match_the_index_form_einsums(n):
    rng, d = np.random.default_rng(40 + n), 2**n
    labels, grid, _ = sample_quantum("bwi", range(20), n=n)
    for r in (0.0, 0.3, 1.0):
        resource = make_resource(n, r)
        for m in (None, random_povm_element(rng, d * d)):
            _, p = protocol.bwi_slices(labels, grid, resource, m)
            expected = bwi_slices_einsum(grid.reshape(20, -1, d, d), resource.stack,
                                         la.phi_plus(n) if m is None else m)
            assert np.max(np.abs(p.reshape(expected.shape) - expected)) <= 1e-15
