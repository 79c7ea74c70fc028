import builtins
import contextlib
import copy
import hashlib
import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprkit import catalog
from eprkit import linalg as la
from eprkit import serialize as ser
from eprkit.assemblages import SPECS, BwIAssemblage, MDIAssemblage
from eprkit.cli import build_parser, main
from eprkit.functionals import bell_from_epr, evaluate_bell
from eprkit.protocol import CorrelationTable, make_resource, simulate_bwi
from oracles import random_quantum_per_seed


def run(capsys, *argv):
    capsys.readouterr()  # drop output from fixture-time invocations
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else {}
    return code, report


@pytest.fixture()
def ptp_files(tmp_path):
    paths = {}
    for name in ["ptp-assemblage", "ptp-functional-raw", "ptp-functional-normalized",
                 "ptp-bell-coefficients"]:
        path = tmp_path / f"{name}.json"
        assert main(["dump", name, "--out", str(path)]) == 0
        paths[name] = str(path)
    return paths


def test_validate_catalog_export(capsys, ptp_files):
    code, report = run(capsys, "validate", ptp_files["ptp-assemblage"], "--scenario", "bwi")
    assert code == 0
    assert report["passed"] is True
    assert report["tolerances"]["validation"] == 1e-9


def test_validate_corrupted_matrix_is_parse_error(capsys, tmp_path):
    doc = ser.assemblage_to_json(catalog.ptp_assemblage())
    doc["elements"]["0,1,0"][0][1] = [0.9, 0.0]  # breaks Hermiticity
    path = tmp_path / "bad.json"
    path.write_text(ser.dumps(doc))
    code, _ = run(capsys, "validate", str(path))
    assert code == 2


def test_validate_signalling_assemblage_names_condition(capsys, tmp_path):
    elements = dict(catalog.ptp_assemblage().elements)
    elements[(0, 1, 0)] = (la.I2 + 0.5 * la.PAULI_X) / 4  # breaks the x-independence
    doc = ser.assemblage_to_json(BwIAssemblage(elements))
    path = tmp_path / "signalling.json"
    path.write_text(ser.dumps(doc))
    code, report = run(capsys, "validate", str(path))
    assert code == 1
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    assert "bob-state-alice-setting-independent" in failing


def test_validate_reports_missing_elements_once_whatever_the_declared_sizes(capsys, tmp_path):
    doc = ser.assemblage_to_json(catalog.ptp_assemblage())
    doc["alphabets"]["x"] = 20000
    path = tmp_path / "wide.json"
    path.write_text(ser.dumps(doc))
    capsys.readouterr()
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 1 and report["passed"] is False
    assert report["structural_errors"] == [
        f"{2 * 20000 * 2 - 12} missing elements, the first (0, 4, 0)"]
    assert len(out.encode("utf-8")) < 2048


def test_validate_not_json(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json")
    code, _ = run(capsys, "validate", str(path))
    assert code == 2


def test_validate_tolerance_env_override(capsys, tmp_path, monkeypatch):
    elements = dict(catalog.ptp_assemblage().elements)
    elements[(0, 1, 0)] = (la.I2 + 0.5 * la.PAULI_X) / 4
    path = tmp_path / "signalling.json"
    path.write_text(ser.dumps(ser.assemblage_to_json(BwIAssemblage(elements))))
    monkeypatch.setenv("EPRKIT_TOL", "10")
    code, report = run(capsys, "validate", str(path))
    assert code == 0
    assert report["tolerances"]["validation"] == 10.0


def test_eval_epr_value(capsys, ptp_files):
    code, report = run(capsys, "eval",
                       "--functional", ptp_files["ptp-functional-normalized"],
                       "--assemblage", ptp_files["ptp-assemblage"])
    assert code == 0
    assert abs(report["value"] + 0.4135) < 1e-12
    assert report["sign"] == "negative"
    assert report["value_text"] == f"{report['value']:.17g}"


def test_eval_bell_value(capsys, tmp_path, ptp_files):
    table_path = tmp_path / "table.json"
    code, report = run(capsys, "simulate", "bwi",
                       "--assemblage", ptp_files["ptp-assemblage"],
                       "--r", "1", "--measurement", "phi-plus",
                       "--out", str(table_path))
    assert code == 0
    assert all(abs(v - 0.25) < 1e-10 for v in report["slice_mass"].values())
    code, report = run(capsys, "eval",
                       "--functional", ptp_files["ptp-bell-coefficients"],
                       "--correlations", str(table_path))
    assert code == 0
    assert abs(report["value"] + 0.103375) < 1e-4


def test_eval_zero_functional(capsys, tmp_path, ptp_files):
    zero_ops = {f"{a},{x},{y}": ser.matrix_to_json(np.zeros((2, 2)))
                for a in (0, 1) for x in (1, 2, 3) for y in (0, 1)}
    path = tmp_path / "zero.json"
    path.write_text(ser.dumps({"scenario": "bwi", "form": "epr", "operators": zero_ops}))
    code, report = run(capsys, "eval", "--functional", str(path),
                       "--assemblage", ptp_files["ptp-assemblage"])
    assert code == 0
    assert report["value"] == 0.0
    assert report["sign"] == "zero"


def test_eval_scenario_mismatch(capsys, tmp_path, ptp_files):
    elements = {(a, b, x): np.eye(2, dtype=complex) / 8
                for a in (0, 1) for b in (0, 1) for x in (1, 2, 3)}
    path = tmp_path / "mdi.json"
    path.write_text(ser.dumps(ser.assemblage_to_json(MDIAssemblage(elements))))
    code, _ = run(capsys, "eval", "--functional", ptp_files["ptp-functional-raw"],
                  "--assemblage", str(path))
    assert code == 1


def test_bound_classical(capsys, ptp_files):
    code, report = run(capsys, "bound", "classical",
                       "--functional", ptp_files["ptp-functional-raw"])
    assert code == 0
    assert abs(report["bound"]["value"] - 1.26794919) < 1e-7
    assert report["bound"]["witness"]["type"] == "deterministic-strategy"


def test_bound_ns_cert(capsys, ptp_files):
    code, report = run(capsys, "bound", "ns-cert",
                       "--functional", ptp_files["ptp-functional-raw"])
    assert code == 0
    assert report["bound"]["value"] == 0.0
    assert report["bound"]["guaranteed_tight"] is False
    assert "lower bound" in report["bound"]["note"]
    # The stored constant is reached here (the catalog example achieves it).
    assert report["stored_bound"] == 0.0
    assert report["stored_bound_gap"] == 0.0


def test_bound_seesaw_bracket(capsys, ptp_files):
    code, report = run(capsys, "bound", "seesaw",
                       "--functional", ptp_files["ptp-functional-normalized"],
                       "--restarts", "50")
    assert code == 0
    bracket = report["bracket_check"]
    assert bracket["passed"] is True
    raw_scale = report["bound"]["value"] + catalog.PTP.almost_quantum
    assert 0.4134 <= raw_scale <= 1.2680
    witness = report["bound"]["witness"]
    assert witness["type"] == "quantum-realisation"
    assert set(witness) >= {"state", "povms", "channels"}


def test_bound_seesaw_reports_every_restart(capsys, ptp_files):
    code, report = run(capsys, "bound", "seesaw",
                       "--functional", ptp_files["ptp-functional-normalized"],
                       "--seed", "2", "--restarts", "4")
    assert code == 0
    bound = report["bound"]
    assert [set(r) for r in bound["per_restart"]] == [{"value", "iterations"}] * 4
    assert min(r["value"] for r in bound["per_restart"]) == bound["value"]
    assert sum(r["iterations"] for r in bound["per_restart"]) == bound["iterations"]


def test_eval_reads_each_input_once_and_digests_those_bytes(capsys, ptp_files, monkeypatch):
    functional, assemblage = ptp_files["ptp-functional-raw"], ptp_files["ptp-assemblage"]
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, report = run(capsys, "eval", "--functional", functional, "--assemblage", assemblage)
    monkeypatch.undo()
    assert code == 0
    assert sorted(opened) == sorted([functional, assemblage])
    for path in (functional, assemblage):
        with open(path, "rb") as fh:
            assert report["inputs"][path] == hashlib.sha256(fh.read()).hexdigest()


def test_bound_guard_violation_exits_one(capsys, tmp_path):
    elements = {(a, b, x): np.eye(2, dtype=complex) / 8
                for a in (0, 1) for b in (0, 1) for x in (1, 2, 3)}
    ops = {f"{a},{b},{x}": ser.matrix_to_json(la.proj(0, 1))
           for a in (0, 1) for b in (0, 1) for x in (1, 2, 3)}
    path = tmp_path / "mdi_functional.json"
    path.write_text(ser.dumps({"scenario": "mdi", "form": "epr", "operators": ops}))
    code, _ = run(capsys, "bound", "classical", "--functional", str(path))
    assert code == 1


def test_bound_seesaw_deterministic_for_seed(capsys, ptp_files):
    _, first = run(capsys, "bound", "seesaw",
                   "--functional", ptp_files["ptp-functional-normalized"],
                   "--seed", "7", "--restarts", "3")
    _, second = run(capsys, "bound", "seesaw",
                    "--functional", ptp_files["ptp-functional-normalized"],
                    "--seed", "7", "--restarts", "3")
    first.pop("duration_s")
    second.pop("duration_s")
    assert first == second


def test_simulate_r_midpoint_is_affine(capsys, tmp_path, ptp_files):
    tables = {}
    for r in ("0", "0.5", "1"):
        path = tmp_path / f"t{r}.json"
        code, _ = run(capsys, "simulate", "bwi",
                      "--assemblage", ptp_files["ptp-assemblage"],
                      "--r", r, "--out", str(path))
        assert code == 0
        tables[r] = ser.table_from_json(json.loads(path.read_text()))
    for key in tables["0"].slice:
        mid = (tables["0"].slice[key] + tables["1"].slice[key]) / 2
        assert abs(tables["0.5"].slice[key] - mid) < 1e-12


def test_simulate_mdi_uniform(capsys, tmp_path):
    elements = {(a, b, x): np.eye(2, dtype=complex) / 8
                for a in (0, 1) for b in (0, 1) for x in (1, 2, 3)}
    path = tmp_path / "uniform.json"
    path.write_text(ser.dumps(ser.assemblage_to_json(MDIAssemblage(elements))))
    out = tmp_path / "table.json"
    code, _ = run(capsys, "simulate", "mdi", "--assemblage", str(path), "--out", str(out))
    assert code == 0
    table = ser.table_from_json(json.loads(out.read_text()))
    assert all(abs(p - 0.125) < 1e-12 for p in table.slice.values())


def test_simulate_invalid_measurement_file(capsys, tmp_path, ptp_files):
    bad = tmp_path / "effect.json"
    bad.write_text(ser.dumps({"matrix": ser.matrix_to_json(2 * np.eye(4))}))
    code, _ = run(capsys, "simulate", "bwi",
                  "--assemblage", ptp_files["ptp-assemblage"],
                  "--measurement", str(bad))
    assert code == 1


def test_simulate_digests_the_measurement_file(capsys, tmp_path, ptp_files):
    effect = tmp_path / "m.json"
    effect.write_text(ser.dumps({"matrix": ser.matrix_to_json(la.phi_plus())}))
    code, report = run(capsys, "simulate", "bwi", "--assemblage", ptp_files["ptp-assemblage"],
                       "--measurement", str(effect))
    assert code == 0
    assert report["inputs"][str(effect)] == hashlib.sha256(effect.read_bytes()).hexdigest()
    assert set(report["inputs"]) == {ptp_files["ptp-assemblage"], str(effect)}


def test_simulating_an_incomplete_assemblage_exits_one_naming_the_element(capsys, tmp_path):
    doc = ser.assemblage_to_json(catalog.ptp_assemblage())
    del doc["elements"]["1,2,0"]
    path = tmp_path / "partial.json"
    path.write_text(ser.dumps(doc))
    code = main(["simulate", "bwi", "--assemblage", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    error = json.loads(lines[0])
    assert error["exit_code"] == 1 and "(1, 2, 0)" in error["error"]


def test_simulate_csv_export(capsys, tmp_path, ptp_files):
    out = tmp_path / "table.csv"
    code, _ = run(capsys, "simulate", "bwi",
                  "--assemblage", ptp_files["ptp-assemblage"],
                  "--format", "csv", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,x,y,c,w,p"
    assert len(lines) == 1 + 2 * 3 * 2 * 2 * 3


def test_selftest_pass_and_fail(capsys, tmp_path, ptp_files):
    table_path = tmp_path / "table.json"
    run(capsys, "simulate", "bwi", "--assemblage", ptp_files["ptp-assemblage"],
        "--out", str(table_path))
    code, report = run(capsys, "selftest", "--correlations", str(table_path))
    assert code == 0
    assert abs(report["value"] - 6.92820323) < 1e-8

    uniform = {key: 0.25 for key in itertools.product((0, 1), (0, 1), (1, 2, 3, 4), (1, 2, 3))}
    flat = tmp_path / "uniform.json"
    flat.write_text(ser.dumps(ser.table_to_json(CorrelationTable("bwi", {}, {"bc": uniform}))))
    code, report = run(capsys, "selftest", "--correlations", str(flat))
    assert code == 1
    assert report["value"] == 0.0

    code, report = run(capsys, "selftest", "--correlations", str(flat), "--epsilon", "10")
    assert code == 0  # threshold 4 sqrt(3) - 10 < 0


def test_selftest_missing_settings(capsys, tmp_path):
    partial = {(0, 0, 1, 1): 1.0}
    path = tmp_path / "partial.json"
    path.write_text(ser.dumps(ser.table_to_json(CorrelationTable("bwi", {}, {"bc": partial}))))
    code, _ = run(capsys, "selftest", "--correlations", str(path))
    assert code == 1


def test_demo_default_passes(capsys):
    code, report = run(capsys, "demo-ptp")
    assert code == 0
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == ["validate", "classical-bound", "ns-certificate",
                     "self-test", "bell-evaluation", "quantum-controls"]
    bell = next(c for c in report["checks"] if c["name"] == "bell-evaluation")
    assert abs(bell["value"] + 0.103375) < 1e-4
    assert abs(bell["functional_scale_value"] + 0.4135) < 4e-4


def test_demo_transposed_resource_still_passes(capsys):
    code, report = run(capsys, "demo-ptp", "--r", "0")
    assert code == 0
    controls = next(c for c in report["checks"] if c["name"] == "quantum-controls")
    assert controls["passed"] is True


@pytest.mark.parametrize("seed, r", [(0, 1.0), (7, 0.3), (123456, 0.0), (31, 0.77)])
def test_demo_quantum_controls_match_the_per_seed_loop(capsys, seed, r):
    code, report = run(capsys, "demo-ptp", "--seed", str(seed), "--r", repr(r))
    assert code == 0
    controls = next(c for c in report["checks"] if c["name"] == "quantum-controls")
    xi = bell_from_epr(catalog.ptp_functional(normalized=True))
    resource = make_resource(1, r)
    values = {s: evaluate_bell(xi, simulate_bwi(
        BwIAssemblage(random_quantum_per_seed("bwi", s)[1]), resource))
        for s in range(seed, seed + 50)}
    worst_seed = min(values, key=values.get)
    assert abs(controls["worst_value"] - values[worst_seed]) <= 1e-12
    assert controls["worst_seed"] == worst_seed
    assert controls["margin"] == controls["worst_value"] + 1e-7
    assert controls["seeds"] == 50 and controls["passed"] is True


def test_demo_tampered_constant_fails_at_bell_stage(capsys):
    code, report = run(capsys, "demo-ptp", "--debug-beta-aq", "1.0")
    assert code == 1
    assert report["failed_stage"] == "bell-evaluation"


def test_channel_pipeline_end_to_end(capsys, tmp_path):
    a_path = tmp_path / "channel.json"
    f_path = tmp_path / "channel_f.json"
    t_path = tmp_path / "channel_t.json"
    assert main(["dump", "embedded-channel-assemblage", "--out", str(a_path)]) == 0
    assert main(["dump", "embedded-channel-functional", "--out", str(f_path)]) == 0
    code, _ = run(capsys, "validate", str(a_path), "--scenario", "channel")
    assert code == 0
    code, report = run(capsys, "simulate", "channel", "--assemblage", str(a_path),
                       "--out", str(t_path))
    assert code == 0
    code, report = run(capsys, "eval", "--functional", str(f_path),
                       "--correlations", str(t_path))
    assert code == 0
    assert abs(report["value"] + 0.103375) < 1e-4


def test_dump_round_trips_bit_identical(capsys, tmp_path):
    # sha256 of each dump's bytes: a rewrite of the catalog must keep them byte for byte.
    digests = {
        "ptp-assemblage": "4a0c1d9ff683ca63194a29e65c6d35f12d88825276cf7bc9eca4baa66b841bed",
        "ptp-functional-raw": "6eb0270079c083c9de6f2c8e5705cdfce7ff2cfe0d196b37a2ec1d0cfe2c2335",
        "ptp-functional-normalized":
            "e8120a1cb3975a10464b79cfcf6436e6b95210e7eed266b64275630374dde58c",
        "ptp-bell-coefficients":
            "63c48b696cf69026d7de5a59ff048a2b6c895ab0c3c6122cfbe7de5d2c166cfa",
        "canonical-resource": "49313fdc8add3ad5e5fb9ef06c28c3a9911d6833e4c59169d1dd8b915a78288b",
        "embedded-channel-assemblage":
            "658b5bcfbaad2d7adc3d657acded0e04c902ac7c2c4ade93205ff31893d3ae18",
        "embedded-channel-functional":
            "d1b8b53eed4325277cef381026fc35bdb9610943df50a2f0fad92abd7abd7b33",
    }
    for name, digest in digests.items():
        path = tmp_path / f"{name}.json"
        assert main(["dump", name, "--out", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text()
        assert ser.dumps(json.loads(text)) == text
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, name


def test_out_overwrites_existing_file_exactly(capsys, tmp_path):
    # --out writes over an existing file's bytes instead of truncating it first;
    # what is left must be the new document alone, whether the old file was
    # longer or shorter, and a symlinked path must write through to its target.
    expected = {}
    for name in ("ptp-assemblage", "ptp-bell-coefficients"):
        fresh = tmp_path / f"{name}.fresh.json"
        assert main(["dump", name, "--out", str(fresh)]) == 0
        expected[name] = fresh.read_bytes()
    out = tmp_path / "out.json"
    for old, new in (("ptp-assemblage", "ptp-bell-coefficients"),
                     ("ptp-bell-coefficients", "ptp-assemblage")):
        out.write_bytes(expected[old] + b"x" * 100)
        assert main(["dump", new, "--out", str(out)]) == 0
        assert out.read_bytes() == expected[new]
    link = tmp_path / "link.json"
    link.symlink_to(out)
    assert main(["dump", "ptp-bell-coefficients", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert out.read_bytes() == expected["ptp-bell-coefficients"]
    capsys.readouterr()


def test_dump_unknown_object(capsys):
    code, _ = run(capsys, "dump", "no-such-object")
    assert code == 2


def test_dump_csv_coefficients(capsys, tmp_path):
    out = tmp_path / "xi.csv"
    code, _ = run(capsys, "dump", "ptp-bell-coefficients", "--format", "csv",
                  "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,x,y,c,w,xi"
    assert len(lines) == 1 + 72


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _diagonal_operators(docs, scale=1e308):
    """Every functional operator set to (-1)^a scale I."""
    operators = docs["functional"]["operators"]
    for key in operators:
        s = (-1) ** int(key.split(",")[0]) * scale
        operators[key] = [[[s, 0.0], [0.0, 0.0]], [[0.0, 0.0], [s, 0.0]]]


def _add_element_outside_alphabets(docs):
    elements = docs["assemblage"]["elements"]
    elements["5,1,0"] = elements["0,1,0"]


_HUGE = (10**400, -10**400)


@pytest.mark.parametrize("mutate, argv", [
    pytest.param(lambda d: d["functional"]["operators"]["0,1,0"][0].__setitem__(0, [math.nan, 0]),
                 "eval --functional {functional} --assemblage {assemblage}",
                 id="nan-operator-entry"),
    pytest.param(lambda d: d["functional"].update(scenario="tripartite"),
                 "bound classical --functional {functional}", id="unknown-scenario"),
    pytest.param(lambda d: d.update(assemblage=[d["assemblage"]]),
                 "validate {assemblage}", id="top-level-array"),
    pytest.param(lambda d: d["correlations"]["slice"].update({"0,0,0|1,0,*,1": 2.0}),
                 "eval --functional {coefficients} --correlations {correlations}",
                 id="probability-above-one"),
    pytest.param(lambda d: d["functional"]["operators"].pop("0,1,0"),
                 "bound classical --functional {functional}", id="missing-operator"),
    pytest.param(lambda d: d["correlations"]["slice"].pop("0,0,0|1,0,*,1"),
                 "eval --functional {coefficients} --correlations {correlations}",
                 id="correlations-not-a-full-product"),
    pytest.param(lambda d: d["coefficients"]["coefficients"].pop("0,1,0,0,1"),
                 "eval --functional {coefficients} --correlations {correlations}",
                 id="coefficients-not-a-full-product"),
    pytest.param(lambda d: d["assemblage"]["elements"].update({"0,1,0": [[[0.25, 0.0]]]}),
                 "validate {assemblage}", id="one-by-one-element"),
    pytest.param(None, "demo-ptp --r 2", id="mixing-parameter-above-one"),
    pytest.param(None, "demo-ptp --debug-beta-aq inf", id="non-finite-beta-aq"),
    *[pytest.param(None, f"simulate bwi --assemblage {{assemblage}} {flags}", id=name)
      for flags, name in (("--r 2", "simulated-mixing-parameter-above-one"),
                          ("--r nan", "simulated-mixing-parameter-nan"),
                          ("--n 3", "resource-qubit-count-three"))],
    pytest.param(None, "bound seesaw --functional {functional} --seed -1", id="negative-seed"),
    pytest.param(None, "bound seesaw --functional {functional} --restarts 0", id="zero-restarts"),
    pytest.param(None, "selftest --correlations {correlations} --epsilon nan",
                 id="non-finite-epsilon"),
    pytest.param(None, "validate {directory}", id="directory-input"),
    pytest.param(None, "validate {deep}", id="deeply-nested-json"),
    pytest.param(None, "dump ptp-assemblage --out {unwritable}", id="unwritable-output"),
    pytest.param(None, "bound seesaw --functional {functional} --restarts abc",
                 id="non-integer-restarts"),
    pytest.param(None, "validate {assemblage} --bogus", id="unknown-flag"),
    pytest.param(None, "bound classical", id="missing-required-option"),
    pytest.param(None, "no-such-command", id="unknown-command"),
    pytest.param(_add_element_outside_alphabets, "validate {assemblage}",
                 id="element-key-outside-alphabets"),
    pytest.param(_add_element_outside_alphabets, "simulate bwi --assemblage {assemblage}",
                 id="simulated-key-outside-alphabets"),
    pytest.param(lambda d: d["assemblage"]["alphabets"].update(a=True),
                 "validate {assemblage}", id="bool-alphabet-size"),
    # json writes math.inf as Infinity, which parses to the same float as "n": 1e400.
    *[pytest.param(lambda d, n=n: d["coefficients"].update(n=n),
                   "eval --functional {coefficients} --correlations {correlations}",
                   id=f"qubit-count-{n}") for n in (math.inf, -1, 0, True)],
    pytest.param(lambda d: d["coefficients"].update(n=2),
                 "eval --functional {coefficients} --correlations {correlations}",
                 id="qubit-count-not-matching-the-keys"),
    *[pytest.param(_diagonal_operators, f"bound {kind} --functional {{functional}}",
                   id=f"overflowing-operators-{kind}") for kind in ("classical", "ns-cert", "seesaw")],
    pytest.param(lambda d: d["correlations"]["selftest"]["bc"].pop("0,0|1,1"),
                 "selftest --correlations {correlations}", id="selftest-block-not-a-full-product"),
    # Integers too large for a float, written as digits, wherever a number is read.
    *[pytest.param(lambda d, n=n: d["assemblage"]["elements"]["0,1,0"][0][0].__setitem__(0, n),
                   "validate {assemblage}", id=f"huge-matrix-entry-{n > 0}") for n in _HUGE],
    *[pytest.param(lambda d, n=n: d["assemblage"]["alphabets"].update(x=n),
                   "validate {assemblage}", id=f"huge-alphabet-size-{n > 0}") for n in _HUGE],
    *[pytest.param(lambda d, n=n: d["functional"]["operators"]["0,1,0"][1][1].__setitem__(0, n),
                   "bound classical --functional {functional}", id=f"huge-operator-entry-{n > 0}")
      for n in _HUGE],
    *[pytest.param(lambda d, n=n: d["correlations"]["slice"].update({"0,0,0|1,0,*,1": n}), argv,
                   id=f"huge-probability-{name}-{n > 0}") for n in _HUGE for name, argv in (
        ("selftest", "selftest --correlations {correlations}"),
        ("bell", "eval --functional {coefficients} --correlations {correlations}"),
        ("epr", "eval --functional {functional} --correlations {correlations}"))],
    *[pytest.param(lambda d, n=n: d["correlations"]["selftest"]["bc"].update({"0,0|1,1": n}),
                   "selftest --correlations {correlations}", id=f"huge-selftest-entry-{n > 0}")
      for n in _HUGE],
    *[pytest.param(lambda d, n=n: d["coefficients"]["coefficients"].update({"0,1,0,0,1": n}),
                   "eval --functional {coefficients} --correlations {correlations}",
                   id=f"huge-coefficient-{n > 0}") for n in _HUGE],
])
def test_rejected_input_exits_two_with_one_json_error_line(capsys, tmp_path, mutate, argv):
    table = simulate_bwi(catalog.ptp_assemblage(), make_resource(1, 1.0))
    docs = {"functional": ser.functional_to_json(catalog.ptp_functional()),
            "coefficients": ser.functional_to_json(catalog.ptp_bell_coefficients()),
            "assemblage": ser.assemblage_to_json(catalog.ptp_assemblage()),
            "correlations": ser.table_to_json(table)}
    if mutate:
        mutate(docs)
    paths = {"directory": str(tmp_path), "unwritable": str(tmp_path / "missing" / "out.json"),
             "deep": str(tmp_path / "deep.json")}
    with open(paths["deep"], "w") as fh:
        fh.write("[" * 100_000 + "]" * 100_000)
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)  # unlike ser.dumps, this writes a NaN
    code = main([token.format(**paths) for token in argv.split()])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    assert json.loads(lines[0])["exit_code"] == 2
    if captured.out.strip():
        json.loads(captured.out, parse_constant=_reject_constant)


def test_huge_finite_operators_bound_without_overflow(capsys, tmp_path):
    docs = {"functional": ser.functional_to_json(catalog.ptp_functional())}
    _diagonal_operators(docs, 1e300)
    path = tmp_path / "functional.json"
    path.write_text(json.dumps(docs["functional"]))
    for kind in ("classical", "ns-cert", "seesaw"):
        code = main(["bound", kind, "--functional", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert abs(json.loads(captured.out)["bound"]["value"] / -6e300 - 1) < 1e-12


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: eprkit bound")


def test_parser_is_built_once_and_keeps_its_defaults(capsys, ptp_files):
    assert build_parser() is build_parser()
    assert main(["bound", "seesaw", "--functional", ptp_files["ptp-functional-raw"],
                 "--seed", "3", "--restarts", "2"]) == 0
    args = build_parser().parse_args(["bound", "seesaw", "--functional", "f.json"])
    assert (args.seed, args.restarts) == (0, 10)


@pytest.fixture(scope="module")
def catalog_files(tmp_path_factory):
    """The dumped catalog documents the fuzz test mutates, and their intact files."""
    assemblage, functional = catalog.embedded_ptp_channel()
    table = simulate_bwi(catalog.ptp_assemblage(), make_resource(1, 1.0))
    docs = {"assemblage": ser.assemblage_to_json(catalog.ptp_assemblage()),
            "functional": ser.functional_to_json(catalog.ptp_functional()),
            "coefficients": ser.functional_to_json(catalog.ptp_bell_coefficients()),
            "correlations": ser.table_to_json(table),
            "channel-assemblage": ser.assemblage_to_json(assemblage),
            "channel-functional": ser.functional_to_json(functional)}
    directory = tmp_path_factory.mktemp("catalog")
    paths = {name: str(directory / f"{name}.json") for name in [*docs, "mutated"]}
    for name, doc in docs.items():
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    return docs, paths


# Commands reading each document kind; {mutated} is the mutated file, the rest intact.
_FUZZ_COMMANDS = {
    "assemblage": ["validate {mutated}", "simulate bwi --assemblage {mutated}",
                   "eval --functional {functional} --assemblage {mutated}"],
    "functional": ["eval --functional {mutated} --assemblage {assemblage}",
                   "bound classical --functional {mutated}", "bound ns-cert --functional {mutated}"],
    "coefficients": ["eval --functional {mutated} --correlations {correlations}"],
    "correlations": ["eval --functional {coefficients} --correlations {mutated}",
                     "selftest --correlations {mutated}"],
    "channel-assemblage": ["validate {mutated}", "simulate channel --assemblage {mutated}",
                           "eval --functional {channel-functional} --assemblage {mutated}"],
    "channel-functional": ["eval --functional {mutated} --assemblage {channel-assemblage}"],
}


def _nodes(doc, path=()):
    """The path of every value in a JSON document, the document itself first."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


def _mutate(doc, path, kind, value):
    """``doc`` with the value at ``path`` dropped, made non-finite, reshaped or retyped."""
    if kind == "wrong-scenario":
        return {**doc, "scenario": value}
    if not path:
        return {} if kind == "drop" else [doc] if kind == "reshape" else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "reshape":
        parent[path[-1]] = node[:-1] if isinstance(node, list) and node else [node]
    else:  # non-finite or wrong type
        parent[path[-1]] = value
    return doc


@settings(max_examples=150)
@given(data=st.data())
def test_mutated_catalog_documents_keep_the_cli_contract(catalog_files, data):
    docs, paths = catalog_files
    name = data.draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[name])
    path = data.draw(st.sampled_from(list(_nodes(doc))))
    kind = data.draw(st.sampled_from(["drop", "non-finite", "reshape", "wrong-type",
                                      "wrong-scenario"]))
    value = data.draw({
        "non-finite": st.sampled_from([math.nan, math.inf, -math.inf]),
        "wrong-type": st.sampled_from(["x", None, {}, [], True, 0, -1, 2.5, 10**400, -10**400]),
        "wrong-scenario": st.sampled_from([*SPECS, "tripartite", None, 7]),
    }.get(kind, st.none()))
    with open(paths["mutated"], "w") as fh:
        json.dump(_mutate(doc, path, kind, value), fh)  # unlike ser.dumps, this writes a NaN
    argv = data.draw(st.sampled_from(_FUZZ_COMMANDS[name]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        code = main([token.format(**paths) for token in argv.split()])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if lines:
        assert len(lines) == 1 and json.loads(lines[0])["exit_code"] == code != 0
    else:  # success, or a domain failure (exit 1) whose report is on stdout
        assert code == 0 or (code == 1 and out.getvalue().strip())
    if out.getvalue().strip():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
