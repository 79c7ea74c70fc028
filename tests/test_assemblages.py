import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eprkit import catalog
from eprkit import linalg as la
from eprkit.assemblages import (
    CONTAINERS,
    BwIAssemblage,
    ChannelAssemblage,
    QuantumRealisation,
    StandardAssemblage,
    random_quantum,
    realize_bwi,
    realize_channel,
    realize_mdi,
    sample_quantum,
    transpose_assemblage,
    validate,
)
from oracles import (
    conjugation_map,
    min_eigenvalue,
    partial_trace,
    random_hermitian,
    random_quantum_per_seed,
    transpose_dual,
)


def test_ptp_assemblage_validates_tightly():
    rep = validate(catalog.ptp_assemblage())
    assert rep.passed
    assert rep.max_residual < 1e-15


def test_scaled_element_fails_normalisation():
    ptp = catalog.ptp_assemblage()
    broken = dict(ptp.elements)
    broken[(0, 1, 0)] = 1.1 * broken[(0, 1, 0)]
    rep = validate(BwIAssemblage(broken))
    assert not rep.passed
    assert any("normalisation" in f for f in rep.failures())


def test_canonical_resource_is_valid_standard_assemblage():
    rep = validate(catalog.canonical_resource_assemblage())
    assert rep.passed
    # Reduced state is I/2 for every setting.
    res = catalog.canonical_resource_assemblage()
    for w in (1, 2, 3):
        total = res.elements[(0, w)] + res.elements[(1, w)]
        assert np.allclose(total, la.I2 / 2)


def test_validate_reports_missing_keys_as_structural():
    ptp = catalog.ptp_assemblage()
    partial = dict(ptp.elements)
    del partial[(1, 3, 1)]
    rep = validate(BwIAssemblage(partial))
    assert not rep.passed
    assert rep.structural_errors


def _pauli_realisation(channels=None):
    povms = {x: (la.proj(0, w), la.proj(1, w)) for x, w in [(1, 2), (2, 3), (3, 1)]}
    if channels is None:
        channels = {0: la.identity_map(2), 1: la.identity_map(2)}
    return QuantumRealisation("bwi", la.phi_plus(), povms, channels=channels)


def test_realize_bwi_steering_identity():
    # Maximally entangled state steers to the transposed effect halves.
    assemblage = realize_bwi(_pauli_realisation())
    for (a, x, y), sigma in assemblage.elements.items():
        m = _pauli_realisation().povms[x][a]
        assert np.allclose(sigma, m.T / 2)
    assert validate(assemblage).passed


def test_realize_bwi_product_state_is_unsteerable():
    rng = np.random.default_rng(2)
    rho_a = la.random_density(rng, 2)
    rho_b = la.random_density(rng, 2)
    povms = {x: tuple(la.random_projective_povm(rng, 2)) for x in (1, 2, 3)}
    channels = {0: la.identity_map(2), 1: la.random_channel(rng, 2, 2)}
    qr = QuantumRealisation("bwi", la.tensor(rho_a, rho_b), povms, channels=channels)
    assemblage = realize_bwi(qr)
    for (a, x, y), sigma in assemblage.elements.items():
        p = np.real(np.trace(povms[x][a] @ rho_a))
        assert np.allclose(sigma, p * channels[y](rho_b), atol=1e-12)


def test_realize_bwi_z_conjugation_channel():
    channels = {0: la.identity_map(2), 1: conjugation_map(la.PAULI_Z)}
    assemblage = realize_bwi(_pauli_realisation(channels))
    for a in (0, 1):
        for x in (1, 2, 3):
            expected = la.PAULI_Z @ assemblage.elements[(a, x, 0)] @ la.PAULI_Z
            assert np.allclose(assemblage.elements[(a, x, 1)], expected)


def test_realize_bwi_alice_marginal_bob_input_independent():
    for seed in range(20):
        assemblage, _ = random_quantum("bwi", seed)
        for a in range(2):
            for x in (1, 2, 3):
                t0 = np.trace(assemblage.elements[(a, x, 0)])
                t1 = np.trace(assemblage.elements[(a, x, 1)])
                assert abs(t0 - t1) < 1e-10


def _discard_and_measure_instrument():
    # Trace out B, measure B_in in the Z basis: effects I (x) |b><b|.
    return tuple(la.tensor(la.I2, la.proj(b, 1)) for b in (0, 1))


def test_realize_mdi_discard_and_measure():
    rng = np.random.default_rng(4)
    rho_a = la.random_density(rng, 2)
    rho_b = la.random_density(rng, 2)
    povms = {x: tuple(la.random_projective_povm(rng, 2)) for x in (1, 2, 3)}
    qr = QuantumRealisation("mdi", la.tensor(rho_a, rho_b), povms,
                            instrument=_discard_and_measure_instrument())
    assemblage = realize_mdi(qr)
    assert validate(assemblage).passed
    for (a, b, x), j in assemblage.elements.items():
        p = np.real(np.trace(povms[x][a] @ rho_a))
        assert np.allclose(j, p * la.proj(b, 1).T / 2, atol=1e-12)


def test_realize_mdi_uniform_noise():
    # Uniform Alice outcome and uniform Bob outcome: every Choi element I/8.
    povms = {x: (la.I2 / 2, la.I2 / 2) for x in (1, 2, 3)}
    qr = QuantumRealisation("mdi", la.phi_plus(), povms, instrument=(np.eye(4) / 2,) * 2)
    assemblage = realize_mdi(qr)
    for j in assemblage.elements.values():
        assert np.allclose(j, np.eye(2) / 8)


def test_realize_mdi_bell_measurement():
    phi = la.phi_plus()
    instrument = (phi, np.eye(4) - phi)  # b = 0 on the maximally entangled direction
    povms = {x: (la.proj(0, x), la.proj(1, x)) for x in (1, 2, 3)}
    qr = QuantumRealisation("mdi", phi, povms, instrument=instrument)
    assemblage = realize_mdi(qr)
    rep = validate(assemblage)
    assert rep.passed
    for b in (0, 1):
        totals = [sum(assemblage.elements[(a, b, x)] for a in (0, 1)) for x in (1, 2, 3)]
        for t in totals[1:]:
            assert np.allclose(t, totals[0], atol=1e-10)


def _channel_realisation(gamma, seed=8):
    rng = np.random.default_rng(seed)
    povms = {x: tuple(la.random_projective_povm(rng, 2)) for x in (1, 2, 3)}
    return QuantumRealisation("channel", la.random_density(rng, 4), povms, channel=gamma)


def test_realize_channel_discard_bob_forward_input():
    # Gamma discards B and forwards B_in: J(I_{a|x}) = p(a|x) phi_plus.
    e = np.eye(2)
    ops = tuple(np.kron(e[i].reshape(1, 2), la.I2) for i in range(2))
    gamma = la.KrausMap(4, 2, ops)
    qr = _channel_realisation(gamma)
    assemblage = realize_channel(qr)
    sigma = qr.conditional_states()
    for (a, x), j in assemblage.elements.items():
        p = np.real(np.trace(sigma[a, x - 1]))
        assert np.allclose(j, p * la.phi_plus(), atol=1e-12)
    assert validate(assemblage).passed


def test_realize_channel_discard_input_forward_bob():
    # Gamma discards B_in and forwards B: J(I_{a|x}) = sigma_{a|x} (x) I/2.
    e = np.eye(2)
    ops = tuple(np.kron(la.I2, e[i].reshape(1, 2)) for i in range(2))
    gamma = la.KrausMap(4, 2, ops)
    qr = _channel_realisation(gamma)
    assemblage = realize_channel(qr)
    sigma = qr.conditional_states()
    for (a, x), j in assemblage.elements.items():
        assert np.allclose(j, la.tensor(sigma[a, x - 1], la.I2 / 2), atol=1e-12)


def test_realize_channel_output_trace_condition():
    for seed in range(20):
        assemblage, _ = random_quantum("channel", seed)
        for (a, x), j in assemblage.elements.items():
            reduced = partial_trace(j, [2, 2], 0)
            p = np.real(np.trace(j))
            assert np.max(np.abs(reduced - p * la.I2 / 2)) < 1e-10


@pytest.mark.parametrize("scenario", ["bwi", "mdi", "channel"])
def test_random_quantum_validates_batch(scenario):
    for seed in range(1000):
        assemblage, _ = random_quantum(scenario, seed)
        rep = validate(assemblage)
        assert rep.passed, (scenario, seed, rep.failures())


def test_random_quantum_deterministic():
    a1, _ = random_quantum("bwi", 0)
    a2, _ = random_quantum("bwi", 0)
    for key in a1.elements:
        assert np.array_equal(a1.elements[key], a2.elements[key])


def test_random_quantum_seed_sweep_distinct():
    seen = set()
    for seed in range(200):
        assemblage, _ = random_quantum("bwi", seed)
        seen.add(assemblage.elements[(0, 1, 0)].tobytes())
    assert len(seen) == 200


# MDI instruments on B (x) B_in (dimension 4) have two to four outcomes; with two and
# three their rank cuts are drawn at random.
SAMPLER_CASES = [("bwi", {}, 1), ("bwi", {}, 2), ("mdi", {}, 1), ("channel", {}, 1),
                 ("bwi", {"a": 1, "x": 4, "y": 3}, 1), ("mdi", {"b": 3, "x": 2}, 1),
                 ("mdi", {"a": 1, "b": 4}, 1), ("channel", {"x": 1}, 1)]


@pytest.mark.parametrize("scenario, alphabets, n", SAMPLER_CASES)
def test_stacked_draw_matches_per_seed_oracle(scenario, alphabets, n):
    seeds = [0, 7, 123456, 5, 2**40]
    labels, grid, qr = sample_quantum(scenario, seeds, alphabets, n)
    assert grid.shape[0] == len(seeds) and qr.state.shape[0] == len(seeds)
    for k, seed in enumerate(seeds):
        realisation, elements = random_quantum_per_seed(scenario, seed, alphabets, n)
        single, single_qr = random_quantum(scenario, seed, alphabets, n)
        for got in (CONTAINERS[scenario].from_grid(labels, grid[k]), single):
            assert got.elements.keys() == elements.keys()
            for key, m in elements.items():
                assert np.max(np.abs(got.elements[key] - m)) <= 1e-15
        assert np.max(np.abs(qr.state[k] - realisation["state"])) <= 1e-15
        assert np.max(np.abs(single_qr.state - realisation["state"])) <= 1e-15
        for x, effects in realisation["povms"].items():
            assert np.max(np.abs(qr.povms[x][k] - np.array(effects))) <= 1e-15
        if scenario == "mdi":
            assert np.max(np.abs(qr.instrument[k] - np.array(realisation["bob"]))) <= 1e-15
        elif scenario == "channel":
            assert np.max(np.abs(qr.channel.kraus_ops[k] - np.array(realisation["bob"]))) <= 1e-15
        else:
            for y, kraus in realisation["bob"].items():
                assert np.max(np.abs(qr.channels[y].kraus_ops[k] - np.array(kraus))) <= 1e-15


def test_stacked_realisation_with_one_bad_member_fails_its_check():
    _, _, qr = sample_quantum("bwi", range(6))
    kraus = np.array(qr.channels[0].kraus_ops)
    kraus[3] *= 1.001  # one isometry of the stack is no longer trace preserving
    with pytest.raises(ValueError, match="not trace preserving"):
        la.KrausMap(2, 2, kraus)
    state = np.array(qr.state)
    state[4] *= 1.001
    with pytest.raises(ValueError, match="unit trace"):
        QuantumRealisation("bwi", state, qr.povms, channels=qr.channels)


def test_stacked_grid_with_one_non_hermitian_element_fails_its_check():
    _, grid, _ = sample_quantum("bwi", range(6))
    grid = np.array(grid)
    grid[2, 1, 0, 1, 0, 1] += 1e-6  # one off-diagonal entry of one element of member 2
    with pytest.raises(ValueError, match="not Hermitian"):
        la.hermitian(grid)


def test_sample_quantum_rejects_scenarios_without_sampler_and_empty_seed_lists():
    with pytest.raises(ValueError, match="no random quantum assemblages"):
        sample_quantum("standard", [0, 1])
    with pytest.raises(ValueError, match="no generators to draw from"):
        sample_quantum("bwi", [])


def test_random_quantum_degenerate_alphabets():
    assemblage, _ = random_quantum("bwi", 0, {"a": 2, "x": 1, "y": 1})
    assert validate(assemblage).passed


def test_transpose_flips_only_y_axis_elements():
    ptp = catalog.ptp_assemblage()
    flipped = transpose_assemblage(ptp)
    for (a, x, y), sigma in ptp.elements.items():
        if x == 2:  # the Pauli-Y element
            assert not np.allclose(flipped.elements[(a, x, y)], sigma)
        else:
            assert np.allclose(flipped.elements[(a, x, y)], sigma)
    assert validate(flipped).passed


def test_transpose_of_real_assemblage_is_identity():
    # A diagonal (hence real-matrix) assemblage from a quantum realisation.
    diag_povms = {x: (np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex))
                  for x in (1, 2, 3)}
    qr = QuantumRealisation(
        "bwi", np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex), diag_povms,
        channels={0: la.identity_map(2), 1: la.identity_map(2)},
    )
    assemblage = realize_bwi(qr)
    flipped = transpose_assemblage(assemblage)
    for key in assemblage.elements:
        assert np.array_equal(flipped.elements[key], assemblage.elements[key])


def test_transpose_is_involutive():
    assemblage, _ = random_quantum("bwi", 17)
    double = transpose_assemblage(transpose_assemblage(assemblage))
    for key in assemblage.elements:
        assert np.array_equal(double.elements[key], assemblage.elements[key])


def test_bwi_transpose_closure():
    # The transposed assemblage is reproduced by transposed POVMs, the
    # transpose-dual channels, and the transposed state.
    for seed in range(100):
        assemblage, qr = random_quantum("bwi", seed)
        flipped = transpose_assemblage(assemblage)
        qr_t = QuantumRealisation(
            "bwi",
            qr.state.T,
            {x: tuple(m.T for m in effects) for x, effects in qr.povms.items()},
            channels={y: transpose_dual(k) for y, k in qr.channels.items()},
        )
        rebuilt = realize_bwi(qr_t)
        for key in flipped.elements:
            assert np.max(np.abs(flipped.elements[key] - rebuilt.elements[key])) <= 1e-9
        assert validate(flipped).passed


@pytest.mark.parametrize("scenario", ["mdi", "channel"])
def test_choi_transpose_closure_validates(scenario):
    for seed in range(100):
        assemblage, _ = random_quantum(scenario, seed)
        assert validate(transpose_assemblage(assemblage)).passed


def test_quantum_realisation_rejects_bad_povm():
    povms = {1: (la.I2, la.I2)}  # sums to 2I
    with pytest.raises(ValueError):
        QuantumRealisation("bwi", la.phi_plus(), povms,
                           channels={0: la.identity_map(2)})


@pytest.mark.parametrize("povms, message", [
    # Setting 2 has a negative effect, setting 3 does not sum to I: setting 2 is named.
    ({1: (la.proj(0, 1), la.proj(1, 1)), 2: (la.PAULI_Z, la.I2 - la.PAULI_Z), 3: (la.I2, la.I2)},
     "POVM for setting 2 has an effect that is not PSD"),
    ({1: (la.proj(0, 2), la.proj(1, 2)), 2: (la.I2, la.I2), 3: (la.PAULI_Z, la.I2 - la.PAULI_Z)},
     "POVM for setting 2 does not sum to identity"),
])
def test_quantum_realisation_names_the_first_failing_setting(povms, message):
    with pytest.raises(ValueError, match=message):
        QuantumRealisation("bwi", la.phi_plus(), povms, channels={0: la.identity_map(2)})


def test_alphabet_sizes_beyond_a_range_are_rejected():
    elements = catalog.ptp_assemblage().elements
    with pytest.raises(ValueError, match="alphabet sizes must be integers"):
        BwIAssemblage(elements, n_x=10**400)


def test_quantum_realisation_rejects_unnormalised_state():
    povms = {1: (la.proj(0, 1), la.proj(1, 1))}
    with pytest.raises(ValueError):
        QuantumRealisation("bwi", 2 * la.phi_plus(), povms,
                           channels={0: la.identity_map(2)})


def test_quantum_realisation_rejects_leaky_instrument():
    instrument = (la.tensor(la.proj(0, 1), la.proj(0, 1)),)
    with pytest.raises(ValueError, match="instrument does not sum to identity"):
        QuantumRealisation("mdi", la.phi_plus(),
                           {1: (la.proj(0, 1), la.proj(1, 1))}, instrument=instrument)


def test_quantum_realisation_rejects_instrument_effect_not_psd():
    # Z (x) I and its complement sum to the identity, but Z (x) I has eigenvalue -1.
    negative = la.tensor(la.PAULI_Z, la.I2)
    with pytest.raises(ValueError, match="instrument has an effect that is not PSD"):
        QuantumRealisation("mdi", la.phi_plus(), {1: (la.proj(0, 1), la.proj(1, 1))},
                           instrument=(negative, np.eye(4) - negative))


def test_quantum_realisation_rejects_povms_with_different_outcome_counts():
    povms = {1: (la.proj(0, 1), la.proj(1, 1)), 2: (la.I2,)}
    with pytest.raises(ValueError, match="different outcome counts"):
        QuantumRealisation("bwi", la.phi_plus(), povms, channels={0: la.identity_map(2)})


@pytest.mark.parametrize("scenario, processing, message", [
    # Effects on B alone, without B_in: they would realise 1x1 Choi operators.
    ("mdi", {"instrument": (la.proj(0, 1), la.proj(1, 1))}, "instrument acts on dimension 2"),
    ("bwi", {"channels": {0: la.identity_map(2), 1: la.identity_map(4)}},
     "channel for input 1 acts on dimension 4"),
    ("channel", {"channel": la.identity_map(2)}, "channel acts on dimension 2"),
])
def test_quantum_realisation_rejects_bob_processing_of_wrong_dimension(scenario, processing,
                                                                       message):
    with pytest.raises(ValueError, match=message):
        QuantumRealisation(scenario, la.phi_plus(), {1: (la.proj(0, 1), la.proj(1, 1))},
                           **processing)


def test_standard_assemblage_psd_check():
    # Element (0, 1) is Z/2, which has a negative eigenvalue.
    elements = {
        (0, w): la.PAULI_Z / 4 + la.I2 / 4 if w > 1 else la.PAULI_Z / 2
        for w in (1, 2, 3)
    }
    elements.update({(1, w): la.I2 / 2 - elements[(0, w)] for w in (1, 2, 3)})
    rep = validate(StandardAssemblage(elements))
    assert not rep.passed
    assert any("psd" in f for f in rep.failures())


def _max_abs(m):
    return float(np.max(np.abs(m)))


def _probabilities_residual(p, a_rng, x_rng):
    return max(max(abs(sum(p[(a, x)] for a in a_rng) - 1) for x in x_rng),
               max(max(0.0, -p[(a, x)]) for a in a_rng for x in x_rng))


def _reference_residuals(assemblage):
    """validate's residuals from the per-key formulas, one element at a time."""
    el, rngs = assemblage.elements, assemblage.labels()
    out = [("elements-psd", max(0.0, -min(min_eigenvalue(m) for m in el.values())))]
    if assemblage.scenario == "standard":
        c_rng, w_rng = rngs
        totals = {w: sum(el[(c, w)] for c in c_rng) for w in w_rng}
        return out + [
            ("reduced-state-setting-independent",
             max(_max_abs(t - totals[1]) for t in totals.values())),
            ("reduced-state-unit-trace", max(abs(np.trace(t) - 1) for t in totals.values())),
        ]
    if assemblage.scenario == "bwi":
        a_rng, x_rng, y_rng = rngs
        totals = {(x, y): sum(el[(a, x, y)] for a in a_rng) for x in x_rng for y in y_rng}
        return out + [
            ("normalisation", max(abs(sum(np.trace(el[(a, x, y)]) for a in a_rng) - 1)
                                  for x in x_rng for y in y_rng)),
            ("alice-marginal-bob-input-independent",
             max(abs(np.trace(el[(a, x, y)]) - np.trace(el[(a, x, 0)]))
                 for a in a_rng for x in x_rng for y in y_rng)),
            ("bob-state-alice-setting-independent",
             max(_max_abs(totals[(x, y)] - totals[(1, y)]) for x in x_rng for y in y_rng)),
        ]
    if assemblage.scenario == "mdi":
        a_rng, b_rng, x_rng = rngs
        eye = np.eye(assemblage.dim) / assemblage.dim
        p = {(a, x): float(np.real(sum(np.trace(el[(a, b, x)]) for b in b_rng)))
             for a in a_rng for x in x_rng}
        totals = {(b, x): sum(el[(a, b, x)] for a in a_rng) for b in b_rng for x in x_rng}
        return out + [
            ("alice-marginal-maximally-mixed",
             max(_max_abs(sum(el[(a, b, x)] for b in b_rng) - p[(a, x)] * eye)
                 for a in a_rng for x in x_rng)),
            ("alice-probabilities-valid", _probabilities_residual(p, a_rng, x_rng)),
            ("bob-channel-alice-setting-independent",
             max(_max_abs(totals[(b, x)] - totals[(b, 1)]) for b in b_rng for x in x_rng)),
        ]
    a_rng, x_rng = rngs
    out_dim = assemblage.dim // 2
    p = {(a, x): float(np.real(np.trace(el[(a, x)]))) for a in a_rng for x in x_rng}
    totals = {x: sum(el[(a, x)] for a in a_rng) for x in x_rng}
    return out + [
        ("discarded-output-is-alice-marginal",
         max(_max_abs(partial_trace(el[(a, x)], [out_dim, 2], 0) - p[(a, x)] * la.I2 / 2)
             for a in a_rng for x in x_rng)),
        ("alice-probabilities-valid", _probabilities_residual(p, a_rng, x_rng)),
        ("bob-channel-alice-setting-independent",
         max(_max_abs(totals[x] - totals[1]) for x in x_rng)),
    ]


def _random_assemblage(scenario, seed, n_a, n_x, n_other):
    """A seeded quantum assemblage of the scenario with non-default alphabets."""
    if scenario == "standard":  # Bob's states at his only input, relabelled (c, w)
        bwi, _ = random_quantum("bwi", seed, {"a": n_a, "x": n_x, "y": 1})
        elements = {(a, x): m for (a, x, _), m in bwi.elements.items()}
        return StandardAssemblage(elements, n_c=n_a, n_w=n_x)
    other = {"bwi": {"y": n_other}, "mdi": {"b": n_other + 1}, "channel": {}}[scenario]
    return random_quantum(scenario, seed, {"a": n_a, "x": n_x, **other})[0]


@pytest.mark.parametrize("scenario", ["standard", "bwi", "mdi", "channel"])
@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 2), n_x=st.integers(1, 4),
       n_other=st.integers(1, 3), noise=st.sampled_from([0.0, 1e-6, 0.05, 0.5]),
       n_noisy=st.integers(0, 3), shift=st.sampled_from([0.0, 2.0]))
def test_validate_matches_per_key_formulas(scenario, seed, n_a, n_x, n_other, noise, n_noisy,
                                           shift):
    assemblage = _random_assemblage(scenario, seed, n_a, n_x, n_other)
    # Hermitian noise on a few elements breaks every condition at once; the
    # elements then go back in a shuffled key order.
    rng = np.random.default_rng(seed)
    elements = dict(assemblage.elements)
    keys = list(elements)
    for i in rng.choice(len(keys), size=min(n_noisy, len(keys)), replace=False):
        elements[keys[i]] = elements[keys[i]] + noise * random_hermitian(rng, assemblage.dim)
    if n_a == 2:  # trace moved between the two outcomes: one p(a|x) < 0, sums kept
        eye = shift * np.eye(assemblage.dim) / assemblage.dim
        elements[keys[0]] = elements[keys[0]] - eye
        other = (1 - keys[0][0], *keys[0][1:])
        elements[other] = elements[other] + eye
    shuffled = {keys[i]: elements[keys[i]] for i in rng.permutation(len(keys))}
    broken = CONTAINERS[scenario](shuffled, **{f"n_{k}": n for k, n in assemblage.sizes.items()})
    got = [(c.name, c.residual) for c in validate(broken).conditions]
    expected = _reference_residuals(broken)
    assert [name for name, _ in got] == [name for name, _ in expected]
    assert max(abs(r - e) for (_, r), (_, e) in zip(got, expected)) <= 1e-12
    if noise >= 0.05 and n_noisy:
        assert not validate(broken).passed


def test_elements_are_read_only_views_of_one_stack():
    assemblage, _ = random_quantum("mdi", 3)
    assert isinstance(assemblage.elements, dict)
    assert assemblage.stack.shape == (len(assemblage.elements), 2, 2)
    for m, key in zip(assemblage.stack, assemblage.elements):
        assert np.shares_memory(assemblage.elements[key], assemblage.stack)
        assert np.array_equal(assemblage.elements[key], m)
    with pytest.raises(ValueError):
        assemblage.stack[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        assemblage.elements[(0, 0, 1)][0, 0] = 1.0


@pytest.mark.parametrize("key, sizes", [
    ((5, 1, 0), {}),  # outcome beyond n_a
    ((0, 0, 0), {}),  # settings are 1-based
    ((0, 1, 2), {}),  # Bob input beyond n_y
    ((0, 1, 0), {"n_a": True}),  # a bool is not an alphabet size
])
def test_construction_rejects_keys_outside_the_alphabets(key, sizes):
    elements = dict(catalog.ptp_assemblage().elements)
    elements[key] = la.I2 / 4
    with pytest.raises(ValueError):
        BwIAssemblage(elements, **sizes)


def test_construction_rejects_channel_keys_outside_the_alphabets():
    assemblage, _ = random_quantum("channel", 2)
    with pytest.raises(ValueError):
        ChannelAssemblage({**assemblage.elements, (2, 1): np.eye(4) / 8})
