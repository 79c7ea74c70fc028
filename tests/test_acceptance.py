"""Acceptance suite: the toolkit's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live) and asserts the criterion at its stated tolerance.
"""

import itertools
import time

import numpy as np

from eprkit import catalog
from eprkit import linalg as la
from eprkit.assemblages import (
    QuantumRealisation,
    random_quantum,
    realize,
    transpose_assemblage,
    validate,
)
from eprkit.bounds import (
    SELFTEST_MAX,
    classical_bound,
    ns_lower_bound,
    seesaw_quantum,
    selftest_value,
)
from eprkit.functionals import (
    EPRFunctional,
    bell_from_epr,
    decompose,
    evaluate_bell,
    evaluate_epr,
)
from eprkit.protocol import make_resource, selftest_marginal, simulate_bwi, simulate_channel, simulate_mdi
from oracles import (ginibre, random_channel, random_density, random_hermitian, random_povm_element,
                     reconstruct, transpose_dual)

EXACT_CLASSICAL = 3 - np.sqrt(3)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_classical_bound_reproduction():
    started = time.time()
    report = classical_bound(catalog.ptp_functional())
    elapsed = time.time() - started
    n_strategies = 2 ** 3
    ok = (
        abs(report.value - EXACT_CLASSICAL) < 1e-12
        and abs(report.value - catalog.PTP.classical) <= 5e-5
        and elapsed < 1.0
    )
    _verdict(1, ok, f"classical bound {report.value:.10f} vs 3-sqrt(3)="
             f"{EXACT_CLASSICAL:.10f}, {n_strategies} strategies, {elapsed:.3f}s")


def test_criterion_02_no_signalling_saturation():
    ns = ns_lower_bound(catalog.ptp_functional())
    saturation = evaluate_epr(catalog.ptp_functional(), catalog.ptp_assemblage())
    ok = abs(ns.value) <= 1e-12 and abs(saturation) <= 1e-12
    _verdict(2, ok, f"ns certificate {ns.value:.3e}, functional on the example "
             f"{saturation:.3e} (product-sign convention)")


def test_criterion_03_normalized_functional_value():
    value = evaluate_epr(catalog.ptp_functional(normalized=True), catalog.ptp_assemblage())
    ok = abs(value - (-0.4135)) <= 1e-4
    _verdict(3, ok, f"normalized functional on the example: {value:.6f} vs -0.4135")


def test_criterion_04_activation_demo_value():
    table = simulate_bwi(catalog.ptp_assemblage(), make_resource(1, 1.0))
    bell = evaluate_bell(catalog.ptp_bell_coefficients(), table)
    ok = abs(bell - (-0.103375)) <= 1e-4 and bell < -0.05
    _verdict(4, ok, f"activation value {bell:.6f} (x4 = {4 * bell:.6f}), "
             "strictly negative")


def test_criterion_05_selftest_maximum():
    table = simulate_bwi(catalog.ptp_assemblage(), make_resource(1, 1.0))
    value = selftest_value(selftest_marginal(table))
    ok = abs(value - SELFTEST_MAX) <= 1e-9
    _verdict(5, ok, f"self-test value {value:.9f} vs 4*sqrt(3) = {SELFTEST_MAX:.9f}")


def _random_psd_mdi_functional(seed: int) -> EPRFunctional:
    rng = np.random.default_rng(seed)
    ops = {}
    for a, b, x in itertools.product((0, 1), (0, 1), (1, 2, 3)):
        g = ginibre(rng, 2, 2)
        ops[(a, b, x)] = g @ g.conj().T / 2
    return EPRFunctional("mdi", ops)


def _random_hermitian_mdi_functional(seed: int) -> EPRFunctional:
    rng = np.random.default_rng(seed)
    return EPRFunctional("mdi", {
        (a, b, x): random_hermitian(rng, 2)
        for a, b, x in itertools.product((0, 1), (0, 1), (1, 2, 3))
    })


def test_criterion_06_quantum_no_violation_suite():
    res = make_resource(1, 1.0)

    xi_bwi = catalog.ptp_bell_coefficients()
    worst_bwi = min(
        evaluate_bell(xi_bwi, simulate_bwi(random_quantum("bwi", seed)[0], res))
        for seed in range(200)
    )

    # MDI: sign check with PSD families (quantum bound >= 0 by positivity),
    # exactness check with sign-indefinite Hermitian families.
    worst_mdi = np.inf
    worst_gap = 0.0
    for seed in range(100):
        assemblage, _ = random_quantum("mdi", seed)
        table = simulate_mdi(assemblage, res)
        f_psd = _random_psd_mdi_functional(seed)
        worst_mdi = min(worst_mdi, evaluate_bell(bell_from_epr(f_psd), table))
        f_any = _random_hermitian_mdi_functional(10_000 + seed)
        gap = abs(evaluate_bell(bell_from_epr(f_any), table) - evaluate_epr(f_any, assemblage))
        worst_gap = max(worst_gap, gap)

    _, f_channel = catalog.embedded_ptp_channel()
    xi_channel = bell_from_epr(f_channel)
    worst_channel = min(
        evaluate_bell(xi_channel,
                      simulate_channel(random_quantum("channel", seed)[0], res, res))
        for seed in range(100)
    )

    ok = (worst_bwi >= -1e-7 and worst_mdi >= -1e-7 and worst_channel >= -1e-7
          and worst_gap <= 1e-10)
    _verdict(6, ok, f"worst quantum values bwi {worst_bwi:.2e}, mdi {worst_mdi:.2e}, "
             f"channel {worst_channel:.2e}; mdi chain gap {worst_gap:.2e}")


def test_criterion_07_no_false_positive_suite():
    xi = catalog.ptp_bell_coefficients()
    worst = np.inf
    for seed in range(200):
        assemblage, _ = random_quantum("bwi", seed)
        for r in (0.0, 0.25, 0.5, 0.75, 1.0):
            value = evaluate_bell(xi, simulate_bwi(assemblage, make_resource(1, r)))
            worst = min(worst, value)

    res = make_resource(1, 1.0)
    worst_m = np.inf
    for seed in range(200):
        assemblage, _ = random_quantum("bwi", seed)
        effect = random_povm_element(np.random.default_rng(50_000 + seed), 4)
        worst_m = min(worst_m, evaluate_bell(xi, simulate_bwi(assemblage, res, effect)))

    closure_ok = True
    for seed in range(100):
        bwi, qr = random_quantum("bwi", seed)
        flipped = transpose_assemblage(bwi)
        rebuilt = realize(QuantumRealisation(
            "bwi", qr.state.T,
            {x: tuple(m.T for m in eff) for x, eff in qr.povms.items()},
            channels={y: transpose_dual(k) for y, k in qr.channels.items()},
        ))
        gap = max(np.max(np.abs(flipped.elements[k] - rebuilt.elements[k]))
                  for k in flipped.elements)
        closure_ok &= gap <= 1e-9 and validate(flipped).passed
        closure_ok &= validate(transpose_assemblage(random_quantum("mdi", seed)[0])).passed
        closure_ok &= validate(transpose_assemblage(random_quantum("channel", seed)[0])).passed

    ok = worst >= -1e-7 and worst_m >= -1e-7 and bool(closure_ok)
    _verdict(7, ok, f"worst over mixing grid {worst:.2e}, over random effects "
             f"{worst_m:.2e}, transpose closures {'ok' if closure_ok else 'failed'}")


def test_criterion_08_transpose_dual_oracle():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        phi = random_channel(rng, 2, 2)
        psi = transpose_dual(phi)
        rho = random_density(rng, 2)
        worst = max(worst, float(np.max(np.abs(phi(rho).T - psi(rho.T)))))
    ok = worst <= 1e-10
    _verdict(8, ok, f"transpose-dual identity worst deviation {worst:.2e} over 100 pairs")


def test_criterion_09_mdi_dual_form_equality():
    direct = catalog.mdi_ptp_probabilities(method="controlled-transpose")
    dual = catalog.mdi_ptp_probabilities(method="transposed-measurement")
    worst = max(abs(direct[k] - dual[k]) for k in direct)
    spot = abs(direct[(0, 0, 2, 0)]) <= 1e-12 and abs(direct[(1, 0, 2, 0)] - 1 / 3) <= 1e-12
    ok = worst <= 1e-12 and spot
    _verdict(9, ok, f"controlled-transpose vs transposed-measurement gap {worst:.2e}; "
             f"p(0,0|2,0) = {direct[(0, 0, 2, 0)]:.2e}, p(1,0|2,0) = {direct[(1, 0, 2, 0)]:.6f}")


def test_criterion_10_seesaw_bracket():
    report = seesaw_quantum(catalog.ptp_functional(normalized=True), seed=0, restarts=50)
    raw_scale = report.value + catalog.PTP.almost_quantum
    ok = 0.4134 <= raw_scale <= 1.2680
    _verdict(10, ok, f"seesaw best {report.value:.6f} (raw scale {raw_scale:.6f}) "
             "within [0.4134, 1.2680]")


def test_criterion_11_two_qubit_scaling():
    f_norm = catalog.ptp_functional(normalized=True)
    f2 = EPRFunctional("bwi", {
        k: la.tensor(op, la.I2 / 2) for k, op in f_norm.operators.items()
    })
    xi2 = bell_from_epr(f2)
    res2 = make_resource(2, 1.0)
    worst = min(
        evaluate_bell(xi2, simulate_bwi(random_quantum("bwi", seed, n=2)[0], res2))
        for seed in range(100)
    )
    round_trip = max(
        float(np.max(np.abs(reconstruct(decompose(
            random_hermitian(np.random.default_rng(seed), 4)), 2)
            - random_hermitian(np.random.default_rng(seed), 4))))
        for seed in range(50)
    )
    ok = worst >= -1e-7 and round_trip <= 1e-10
    _verdict(11, ok, f"two-qubit suite worst value {worst:.2e}, "
             f"decompose round-trip {round_trip:.2e}")
