import builtins
import contextlib
import copy
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import re
import string
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprkit import catalog, cli
from eprkit import linalg as la
from eprkit import serialize as ser
from eprkit.assemblages import SPECS, BwIAssemblage, MDIAssemblage, random_quantum
from eprkit.cli import build_parser, main
from eprkit.functionals import bell_from_epr, evaluate_bell
from eprkit.protocol import CorrelationTable, make_resource, simulate_bwi
from oracles import dumps as stdlib_dumps
from oracles import proj, random_quantum_per_seed


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


def test_an_empty_elements_block_is_missing_every_element(capsys, tmp_path, ptp_files):
    doc = ser.assemblage_to_json(catalog.ptp_assemblage())
    doc["elements"] = {}
    path = tmp_path / "empty.json"
    path.write_text(ser.dumps(doc))
    code, report = run(capsys, "validate", str(path))
    assert code == 1 and report["structural_errors"] == ["12 missing elements, the first (0, 1, 0)"]
    for argv, error in [
            (["eval", "--functional", ptp_files["ptp-functional-raw"], "--assemblage", str(path)],
             "assemblage has no element (0, 1, 0)"),
            (["simulate", "bwi", "--assemblage", str(path)], "missing element (0, 1, 0)")]:
        capsys.readouterr()
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err) == {"error": error, "exit_code": 1}


def test_eval_reads_only_the_functionals_keys_of_an_assemblage_off_any_grid(capsys, tmp_path):
    from eprkit.functionals import EPRFunctional
    from oracles import evaluate_epr_per_key, random_hermitian

    # No x = 1 element, nor (1, 3, 1): the keys are no full product of their labels.
    assemblage, _ = random_quantum("bwi", 5)
    partial = BwIAssemblage({key: m for key, m in assemblage.elements.items()
                             if key[1] != 1 and key != (1, 3, 1)})
    rng = np.random.default_rng(5)
    f = EPRFunctional("bwi", {(a, 2, y): random_hermitian(rng, 2) for a in (0, 1) for y in (0, 1)})
    paths = {name: tmp_path / f"{name}.json" for name in ("partial", "functional")}
    paths["partial"].write_text(ser.dumps(ser.assemblage_to_json(partial)))
    paths["functional"].write_text(ser.dumps(ser.functional_to_json(f)))
    code, report = run(capsys, "eval", "--functional", str(paths["functional"]),
                       "--assemblage", str(paths["partial"]))
    assert code == 0 and report["value"] == evaluate_epr_per_key(f, partial) != 0
    wider = EPRFunctional("bwi", {(a, x, 0): np.eye(2) for a in (0, 1) for x in (1, 3)})
    paths["functional"].write_text(ser.dumps(ser.functional_to_json(wider)))
    for argv, error in [
            (["eval", "--functional", str(paths["functional"]), "--assemblage",
              str(paths["partial"])], "assemblage has no element (0, 1, 0)"),
            (["simulate", "bwi", "--assemblage", str(paths["partial"])],
             "missing element (1, 3, 1)")]:  # the first missing from the keys' own labels
        capsys.readouterr()
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err) == {"error": error, "exit_code": 1}


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


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["validate", "demo-ptp"])
def test_validation_tolerance_must_be_finite_and_non_negative(capsys, monkeypatch, ptp_files,
                                                             command, value):
    monkeypatch.setenv("EPRKIT_TOL", value)
    argv = ["validate", ptp_files["ptp-assemblage"]] if command == "validate" else [command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": f"EPRKIT_TOL is not a finite non-negative number: {value!r}", "exit_code": 2}


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
    # The first restart within the stopping rule's relative tolerance of the least value.
    values = [r["value"] for r in bound["per_restart"]]
    low = min(values)
    assert bound["value"] == next(v for v in values if v - low <= 1e-10 * max(1.0, abs(low)))
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


@pytest.fixture()
def fresh_loads():
    """The CLI's cache of loaded inputs, emptied before and after the test."""
    cli._loaded.cache_clear()
    yield cli._loaded
    cli._loaded.cache_clear()


def _timeless(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "duration_s"}


def test_commands_on_the_same_bytes_share_one_loaded_input(capsys, tmp_path, ptp_files,
                                                            fresh_loads, monkeypatch):
    loaded, load = [], ser.assemblage_from_json
    monkeypatch.setattr(ser, "assemblage_from_json", lambda doc: loaded.append(load(doc)) or
                        loaded[-1])
    functional, assemblage = ptp_files["ptp-functional-raw"], ptp_files["ptp-assemblage"]
    same = tmp_path / "same-bytes.json"  # another path, the same bytes
    same.write_bytes(pathlib.Path(assemblage).read_bytes())
    commands = [("validate", assemblage),
                ("eval", "--functional", functional, "--assemblage", assemblage),
                ("validate", str(same))]
    cold = []
    for argv in commands:
        fresh_loads.cache_clear()
        cold.append(run(capsys, *argv))
    assert len(loaded) == 3
    loaded.clear()
    fresh_loads.cache_clear()
    for argv, (code, report) in zip(commands, cold):
        warm_code, warm = run(capsys, *argv)
        assert (warm_code, _timeless(warm)) == (code, _timeless(report))
    assert len(loaded) == 1  # the assemblage was parsed by the first command only
    assert fresh_loads.cache_info()[:2] == (2, 2)  # hits: the assemblage twice; misses: + f


def test_a_rewritten_input_is_parsed_again(capsys, tmp_path, ptp_files, fresh_loads):
    from eprkit.assemblages import transpose_assemblage

    functional, path = ptp_files["ptp-functional-raw"], tmp_path / "assemblage.json"
    ptp = catalog.ptp_assemblage()
    reports = []
    for assemblage in (ptp, transpose_assemblage(ptp), ptp):
        path.write_text(ser.dumps(ser.assemblage_to_json(assemblage)))
        code, report = run(capsys, "eval", "--functional", functional,
                           "--assemblage", str(path))
        assert code == 0
        assert report["inputs"][str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()
        reports.append(report)
    first, rewritten, restored = reports
    assert rewritten["inputs"] != first["inputs"] == restored["inputs"]
    assert rewritten["value"] != first["value"] == restored["value"]
    # Misses: the functional and both assemblages; hits: the functional twice, the first again.
    assert fresh_loads.cache_info()[:2] == (3, 3)


def test_a_rejected_input_fixed_in_place_loads_on_the_next_command(capsys, tmp_path,
                                                                   fresh_loads):
    path = tmp_path / "assemblage.json"
    good = ser.assemblage_to_json(catalog.ptp_assemblage())
    for text, message in [
            ("{", f"{path} is not valid JSON: Expecting property name enclosed in double "
                  "quotes: line 1 column 2 (char 1)"),
            ("[]", f"{path}: the top-level JSON value is a list"),
            (ser.dumps({**good, "scenario": "nope"}), f"{path}: unknown scenario 'nope'")]:
        path.write_text(text)
        for _ in range(2):  # a failed load is not kept: the same message every time
            assert main(["validate", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err) == {"error": message, "exit_code": 2}
    assert fresh_loads.cache_info().currsize == 0
    path.write_text(ser.dumps(good))
    code, report = run(capsys, "validate", str(path))
    assert (code, report["passed"], fresh_loads.cache_info().currsize) == (0, True, 1)


def test_loaded_inputs_past_the_cache_size_are_parsed_again(capsys, tmp_path, fresh_loads):
    paths = []
    for seed in range(cli._LOADED + 1):
        paths.append(str(tmp_path / f"assemblage-{seed}.json"))
        pathlib.Path(paths[-1]).write_text(
            ser.dumps(ser.assemblage_to_json(random_quantum("bwi", seed)[0])))
    for path in [*paths, paths[-1], paths[0]]:
        assert run(capsys, "validate", path)[0] == 0
    # The last one is still held; the first, the least recently used, was dropped.
    assert fresh_loads.cache_info()[:2] == (1, cli._LOADED + 2)


def test_the_files_round_trip_reports_the_same_in_one_process_and_in_many(capsys, tmp_path,
                                                                          fresh_loads):
    a, f, t = (str(tmp_path / name) for name in ("a.json", "f.json", "t.json"))
    pathlib.Path(a).write_text(ser.dumps(ser.assemblage_to_json(random_quantum("bwi", 5)[0])))
    chain = [["dump", "ptp-functional-raw", "--out", f],
             ["validate", a, "--scenario", "bwi"],
             ["eval", "--functional", f, "--assemblage", a],
             ["bound", "classical", "--functional", f],
             ["simulate", "bwi", "--assemblage", a, "--r", "0.5", "--out", t],
             ["eval", "--functional", f, "--correlations", t],
             ["selftest", "--correlations", t]]
    in_process = []
    for argv in chain:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, _timeless(json.loads(captured.out)), captured.err))
    # 8 reads: a, f and t are each parsed once, at their first read, and reused at the others.
    assert fresh_loads.cache_info()[:2] == (5, 3)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
    for argv, expected in zip(chain, in_process):
        result = subprocess.run([sys.executable, "-m", "eprkit", *argv], env=env,
                                capture_output=True, text=True, timeout=120)
        assert (result.returncode, _timeless(json.loads(result.stdout)),
                result.stderr) == expected


def test_bound_guard_violation_exits_one(capsys, tmp_path):
    elements = {(a, b, x): np.eye(2, dtype=complex) / 8
                for a in (0, 1) for b in (0, 1) for x in (1, 2, 3)}
    ops = {f"{a},{b},{x}": ser.matrix_to_json(proj(0, 1))
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


def test_simulate_keys_multi_qubit_slice_mass_by_the_schema_label_text(capsys, tmp_path):
    assemblage, _ = random_quantum("bwi", 3, n=2)
    path = tmp_path / "two-qubit.json"
    path.write_text(ser.dumps(ser.assemblage_to_json(assemblage)))
    code, report = run(capsys, "simulate", "bwi", "--assemblage", str(path))
    assert code == 0
    # Setting labels x, y, then w, the 2-qubit one written as in the table's own slice keys.
    w_texts = {key.split("|")[1].split(",")[3] for key in report["table"]["slice"]}
    assert len(w_texts) == 9 and all("." in text for text in w_texts)
    assert set(report["slice_mass"]) == {f"{x},{y},{w}" for x in (1, 2, 3) for y in (0, 1)
                                         for w in w_texts}
    assert report["slice_mass"]["1,0,1.1"] == pytest.approx(
        sum(v for key, v in report["table"]["slice"].items() if key.endswith("|1,0,*,1.1")))


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


# sha256 of the default demo-ptp report without its duration_s line, per (seed, r),
# recorded at commit c1e8726, before the catalog objects were shared and the controls
# drawn with one normal draw per generator.
DEMO_REPORT_DIGESTS = {
    (0, "0"): "68110c8ae4ce5224f4b5c95921ff45b4f657a8990dda7210b9d4e3416a85ff02",
    (0, "0.3"): "f1a51f98c9901f0fd8ba04538c3790398747dd398050a3ee34221724d78423bb",
    (0, "1"): "a2dde29d024a8836289ffefe75dcfa562f1991e215f62ff2d70f5b0d9790d57c",
    (17, "0"): "d73162994a6e318d3467bba4ce8afe99428c69d8bffb2b3a0713f261f239e95f",
    (17, "0.3"): "8c43c8c05da4eb09bf239c99a2414b7dffc3cfe1ea60c1013b281a55f1781b7e",
    (17, "1"): "482835eb55cdd460e69ef2f833d8ba31c6acd37542f29ed87a797f5514a3a23c",
}


@pytest.mark.parametrize("seed, r", list(DEMO_REPORT_DIGESTS))
def test_demo_reports_keep_their_bytes_around_a_tampered_run(capsys, monkeypatch, seed, r):
    monkeypatch.delenv("EPRKIT_TOL", raising=False)

    def digest(*extra):
        capsys.readouterr()
        code = main(["demo-ptp", "--seed", str(seed), "--r", r, *extra])
        text = re.sub(r'\n  "duration_s": [^\n]*', "", capsys.readouterr().out)
        return code, hashlib.sha256(text.encode()).hexdigest()

    assert digest() == (0, DEMO_REPORT_DIGESTS[seed, r])
    # A tampered constant builds its own functional and leaves the shared ones as they were.
    code, report = run(capsys, "demo-ptp", "--seed", str(seed), "--r", r, "--debug-beta-aq", "2.0")
    assert code == 1 and report["failed_stage"] == "bell-evaluation"
    assert digest() == (0, DEMO_REPORT_DIGESTS[seed, r])


@pytest.mark.parametrize("argv", [
    "validate {assemblage}",
    "eval --functional {raw} --assemblage {assemblage}",
    "eval --functional {normalized} --correlations {table}",
    "bound classical --functional {raw}",
    "bound ns-cert --functional {normalized}",
    "bound seesaw --functional {normalized} --restarts 3",
    "simulate bwi --assemblage {assemblage} --r 0.25",
    "simulate bwi --assemblage {assemblage} --r 0.75 --out {out}",
    "simulate channel --assemblage {channel} --out {out}",
    "selftest --correlations {table}",
    "dump ptp-functional-normalized",
    "dump embedded-channel-functional --out {out}",
    "demo-ptp --seed 3 --r 0.5",
    "demo-ptp --out {out}",
])
def test_reports_are_the_bytes_of_the_stdlib_writer(capsys, tmp_path, ptp_files, argv):
    paths = {"assemblage": ptp_files["ptp-assemblage"], "raw": ptp_files["ptp-functional-raw"],
             "normalized": ptp_files["ptp-functional-normalized"], "out": str(tmp_path / "out"),
             "table": str(tmp_path / "table.json"), "channel": str(tmp_path / "channel.json")}
    assert main(["simulate", "bwi", "--assemblage", paths["assemblage"],
                 "--out", paths["table"]]) == 0
    assert main(["dump", "embedded-channel-assemblage", "--out", paths["channel"]]) == 0
    capsys.readouterr()
    assert main([token.format(**paths) for token in argv.split()]) == 0
    texts = [capsys.readouterr().out]
    if "--out" in argv:
        with open(paths["out"], encoding="utf-8") as fh:
            texts.append(fh.read())
    for text in texts:
        assert text == stdlib_dumps(json.loads(text))


def test_demo_builds_its_bell_coefficients_once_unless_tampered(capsys, monkeypatch):
    import eprkit.catalog
    import eprkit.cli
    calls = []

    def counted(f):
        calls.append(catalog.PTP.classical_exact - f.bounds["classical"])  # its beta_aq
        return bell_from_epr(f)

    for module in (eprkit.catalog, eprkit.cli):
        monkeypatch.setattr(module, "bell_from_epr", counted)
    eprkit.catalog.ptp_epr_coefficients.cache_clear()
    for argv in (["demo-ptp"], ["demo-ptp", "--r", "0.5"], ["demo-ptp", "--debug-beta-aq", "2.0"],
                 ["demo-ptp", "--debug-beta-aq", "2.0"]):
        main(argv)
    capsys.readouterr()
    assert np.allclose(calls, [catalog.PTP.almost_quantum, 2.0, 2.0], rtol=0, atol=1e-12)
    eprkit.catalog.ptp_epr_coefficients.cache_clear()


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


def test_commands_return_their_fields_and_main_adds_the_envelope(capsys, tmp_path, ptp_files):
    path = ptp_files["ptp-assemblage"]
    inputs, code, fields = cli.cmd_validate(build_parser().parse_args(["validate", path]))
    assert (list(inputs), code, fields["passed"]) == ([path], 0, True)
    assert not {"command", "inputs", "duration_s"} & set(fields)
    capsys.readouterr()  # drop the fixture's reports
    assert cli.cmd_dump(build_parser().parse_args(["dump", "ptp-assemblage"])) is None
    assert json.loads(capsys.readouterr().out)["scenario"] == "bwi"  # printed as it ran
    out = tmp_path / "demo.json"
    assert main(["demo-ptp", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert (report["command"], report["inputs"]) == (["demo-ptp", "--out", str(out)], {})
    assert report["duration_s"] >= 0
    assert out.read_text() == text  # the one --out that takes the report


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


def _set_bound(docs, value):
    """Set the functional's classical bound constant; returns the name the error must give."""
    docs["functional"]["bounds"]["classical"] = value
    return "bound constant 'classical'"


def _set_probability(docs, block, key, value):
    """Set one probability of the correlation file; returns the key the error must name."""
    correlations = docs["correlations"]
    (correlations["slice"] if block == "slice" else correlations["selftest"][block])[key] = value
    return key


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
                          ("--n 1", "resource-qubit-count-option"))],
    pytest.param(None, "bound seesaw --functional {functional} --seed -1", id="negative-seed"),
    pytest.param(None, "bound seesaw --functional {functional} --restarts 0", id="zero-restarts"),
    # numpy refuses the 6.94 EiB of seeds at once, before anything is allocated.
    pytest.param(None, "bound seesaw --functional {functional} --restarts 1000000000000000000",
                 id="restarts-beyond-memory"),
    pytest.param(None, "selftest --correlations {correlations} --epsilon nan",
                 id="non-finite-epsilon"),
    pytest.param(lambda d: "'inf'", "selftest --correlations {correlations} --epsilon inf",
                 id="infinite-epsilon"),
    pytest.param(lambda d: "'-1'", "selftest --correlations {correlations} --epsilon -1",
                 id="negative-epsilon"),
    # A bound constant that is no finite real number, or a bounds block that is no object.
    *[pytest.param(lambda d, v=v: _set_bound(d, v), f"bound {kind} --functional {{functional}}",
                   id=f"bound-constant-{name}-{kind}")
      for v, name in (([1.0], "list"), (True, "bool"), ("x", "text"), (None, "null"),
                      (10**400, "huge-integer"))
      for kind in ("classical", "seesaw")],
    pytest.param(lambda d: d["functional"].update(bounds=[["classical", 1.0]]) or "bounds",
                 "bound classical --functional {functional}", id="bounds-as-pairs"),
    pytest.param(lambda d: d["assemblage"].update(alphabets=[2, 3, 2]) or "alphabets",
                 "validate {assemblage}", id="alphabets-as-a-list"),
    # A keyed block, the self-test blocks or the table's meta that is no object names it.
    *[pytest.param(lambda d, doc=doc, name=name, value=value: d[doc].update({name: value})
                   or f"{name} must be a JSON object, got {type(value).__name__}", argv,
                   id=f"{name}-as-{type(value).__name__}")
      for doc, name, value, argv in (
          ("assemblage", "elements", [[[1.0, 0.0]]], "validate {assemblage}"),
          ("coefficients", "coefficients", [0.5],
           "eval --functional {coefficients} --correlations {correlations}"),
          *[("correlations", name, value, "selftest --correlations {correlations}")
            for name, value in (("slice", [1, 2]), ("selftest", []),
                                ("meta", [["r", 1.0], ["n", 1]]), ("meta", "rn"))])],
    pytest.param(lambda d: d["assemblage"]["elements"].update({"0,1": [[[1.0, 0.0]]]})
                 or "key '0,1' does not match the layout 'a,x,y'", "validate {assemblage}",
                 id="element-key-of-two-labels"),
    pytest.param(lambda d: d["assemblage"]["alphabets"].update(q=5) or "'q'",
                 "validate {assemblage}", id="alphabet-of-an-axis-the-scenario-lacks"),
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
    # A probability that is no finite number names its key.
    *[pytest.param(lambda d, v=v, where=where: _set_probability(d, *where, v),
                   "selftest --correlations {correlations}", id=f"{name}-probability-{where[0]}")
      for v, name in ((None, "null"), (10**400, "huge-integer"))
      for where in (("slice", "0,0,0|1,0,*,1"), ("bc", "0,0|1,1"))],
    # Only JSON numbers are numbers: no numeric text and no true or false.
    pytest.param(lambda d: _set_probability(d, "slice", "0,0,0|1,0,*,1", "0.25"),
                 "eval --functional {coefficients} --correlations {correlations}",
                 id="probability-as-text"),
    pytest.param(lambda d: d["coefficients"]["coefficients"].update({"0,1,0,0,1": "0.5"})
                 or "malformed key '0,1,0,0,1': expected a number, not str",
                 "eval --functional {coefficients} --correlations {correlations}",
                 id="coefficient-as-text"),
    pytest.param(lambda d: _set_probability(d, "bc", "0,0|1,1", True),
                 "selftest --correlations {correlations}", id="selftest-entry-true"),
    pytest.param(lambda d: d["assemblage"]["elements"]["0,1,0"][0].__setitem__(0, [True, False]),
                 "eval --functional {functional} --assemblage {assemblage}",
                 id="matrix-entry-true-false"),
    # A matrix read key by key whose entry is no number names its key.
    pytest.param(lambda d: d["assemblage"]["elements"]["0,1,0"][0].__setitem__(0, [True, 0])
                 or "malformed key '0,1,0': malformed matrix entry", "validate {assemblage}",
                 id="matrix-entry-true-names-its-key"),
    pytest.param(None, "eval --functional {functional} --assemblage {assemblage} "
                 "--correlations {correlations}", id="assemblage-and-correlations"),
    pytest.param(lambda d: "pass --assemblage or --correlations", "eval --functional {functional}",
                 id="eval-without-an-input"),
    pytest.param(lambda d: "file declares scenario 'bwi', not 'mdi'",
                 "validate {assemblage} --scenario mdi", id="validate-as-another-scenario"),
    pytest.param(lambda d: "EPRKIT_TOL is not a number: 'abc'",
                 "EPRKIT_TOL=abc validate {assemblage}", id="non-numeric-validation-tolerance"),
    pytest.param(lambda d: "csv export is defined for coefficient tables",
                 "dump ptp-assemblage --format csv", id="csv-of-an-assemblage"),
    pytest.param(lambda d: d.update(functional={"form": "epr", "operators": {}})
                 or "unknown scenario None", "bound classical --functional {functional}",
                 id="functional-without-scenario"),
    pytest.param(lambda d: d.update(measurement={"foo": 1}) or "no 'matrix' entry",
                 "simulate bwi --assemblage {assemblage} --measurement {measurement}",
                 id="measurement-without-matrix"),
    # An input value echoed in the message is cut to its ends, which keep the field's name.
    pytest.param(lambda d: d["assemblage"].update(alphabets=[0] * 100_000) or "alphabets",
                 "validate {assemblage}", id="long-alphabets-list"),
    pytest.param(lambda d: _set_bound(d, [0] * 100_000),
                 "bound classical --functional {functional}", id="long-bound-constant"),
    pytest.param(lambda d: d["assemblage"]["elements"].update(
                     {"0,1," + "y" * 100_000: d["assemblage"]["elements"]["0,1,0"]})
                 or "malformed key '0,1,y", "validate {assemblage}", id="long-element-key"),
    # The cut is made on the escaped text, where each of these is six characters.
    pytest.param(lambda d: d["assemblage"]["elements"].update(
                     {"0,1," + "\u00e9" * 100_000: d["assemblage"]["elements"]["0,1,0"]})
                 or "malformed key '0,1,\u00e9", "validate {assemblage}",
                 id="long-non-ascii-element-key"),
])
def test_rejected_input_exits_two_with_one_json_error_line(capsys, tmp_path, monkeypatch, mutate,
                                                          argv):
    table = simulate_bwi(catalog.ptp_assemblage(), make_resource(1, 1.0))
    docs = {"functional": ser.functional_to_json(catalog.ptp_functional()),
            "coefficients": ser.functional_to_json(catalog.ptp_bell_coefficients()),
            "assemblage": ser.assemblage_to_json(catalog.ptp_assemblage()),
            "correlations": ser.table_to_json(table)}
    named = mutate(docs) if mutate else None  # a mutation may return a text the error names
    paths = {"directory": str(tmp_path), "unwritable": str(tmp_path / "missing" / "out.json"),
             "deep": str(tmp_path / "deep.json")}
    with open(paths["deep"], "w") as fh:
        fh.write("[" * 100_000 + "]" * 100_000)
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)  # unlike ser.dumps, this writes a NaN
    tokens = argv.split()
    while "=" in tokens[0]:  # leading NAME=value tokens set the environment
        monkeypatch.setenv(*tokens.pop(0).split("=", 1))
    code = main([token.format(**paths) for token in tokens])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 1024 and "Traceback" not in captured.err
    error = json.loads(lines[0])
    assert error["exit_code"] == 2
    if isinstance(named, str):
        assert named in error["error"]
    if captured.out.strip():
        json.loads(captured.out, parse_constant=_reject_constant)


@pytest.mark.parametrize("length", [0, 600, 601, 100_000])
def test_ascii_error_message_is_cut_to_its_ends_by_characters(capsys, monkeypatch, length):
    msg = "".join(itertools.islice(itertools.cycle(string.ascii_letters + " ,.:'()[]"), length))

    def fail(args):
        raise ValueError(msg)

    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert main(["validate", "x.json"]) == 2
    if length > 600:  # the first and last 200 characters around the count of the rest
        msg = f"{msg[:200]} ... [{length - 400} characters cut] ... {msg[-200:]}"
    assert capsys.readouterr().err == json.dumps({"error": msg, "exit_code": 2}) + "\n"


@given(st.lists(st.sampled_from(["y", "\u00e9", "\x01", "\\", '"', "\U0001f600", "\ud800"]),
                max_size=2000).map("".join))
@example("\u00e9" * 150)  # fewer than 600 characters, but 900 escaped
@example("\U0001f600" * 600)
@example("\\" * 301)
@example("y" * 599 + "\x01")
def test_error_line_stays_under_one_kib_for_any_message(msg):
    line = json.dumps({"error": cli._bounded(msg), "exit_code": 2})
    assert len(line.encode()) <= 1024
    if len(json.dumps(msg)) <= 602:
        assert cli._bounded(msg) == msg
    else:  # whole characters of both ends are kept, and the count of those cut is right
        head, rest = cli._bounded(msg).split(" ... [", 1)
        count, tail = rest.split(" characters cut] ... ", 1)
        assert msg.startswith(head) and msg.endswith(tail)
        assert len(head) + int(count) + len(tail) == len(msg)


@pytest.mark.parametrize("argv, message", [
    pytest.param("bound classical --functional {coefficients}",
                 "bounds take an operator-form functional", id="bound-of-bell-coefficients"),
    pytest.param("eval --functional {coefficients} --assemblage {assemblage}",
                 "assemblage evaluation needs an operator-form functional",
                 id="bell-coefficients-on-an-assemblage"),
    pytest.param("simulate mdi --assemblage {assemblage}", "assemblage is 'bwi', not 'mdi'",
                 id="simulate-as-another-scenario"),
    pytest.param("simulate mdi --assemblage {mdi} --measurement {measurement}",
                 "the mdi protocol takes no measurement", id="measurement-on-the-mdi-protocol"),
])
def test_domain_failure_exits_one_with_one_json_error_line(capsys, tmp_path, argv, message):
    docs = {"coefficients": ser.functional_to_json(catalog.ptp_bell_coefficients()),
            "assemblage": ser.assemblage_to_json(catalog.ptp_assemblage()),
            "mdi": ser.assemblage_to_json(random_quantum("mdi", 0)[0]),
            "measurement": {"matrix": ser.matrix_to_json(la.phi_plus())}}
    paths = {name: str(tmp_path / f"{name}.json") for name in docs}
    for name, doc in docs.items():
        pathlib.Path(paths[name]).write_text(ser.dumps(doc))
    code = main([token.format(**paths) for token in argv.split()])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert json.loads(captured.err) == {"error": message, "exit_code": 1}


def test_module_entry_point_runs_the_demo():
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-m", "eprkit", "demo-ptp"], env=env,
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["passed"] is True


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


def test_cli_import_leaves_dataclasses_out():
    """Every record is a plain ``Frozen`` class, so start-up never imports ``dataclasses``."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", "import sys, eprkit.cli; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: eprkit bound")


MIXING_HELP = "mixing parameter in [0, 1] of the resource r sigma + (1 - r) sigma^T"


@pytest.mark.parametrize("command, helps", [
    ("simulate", {"--r R": MIXING_HELP, "--out OUT": "write the correlation table there (JSON, "
                  "or CSV with --format csv) instead of into the printed report"}),
    ("demo-ptp", {"--r R": MIXING_HELP,
                  "--out OUT": "also write a copy of the printed run report there"}),
    ("dump", {"--out OUT": "write the object there (JSON, or CSV with --format csv) and "
              "print a run report instead of the object"}),
])
def test_help_says_what_out_and_r_mean_per_command(capsys, command, helps):
    # --out takes the document for simulate and dump, but a copy of the report for demo-ptp.
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = "".join(capsys.readouterr().out.split())  # argparse wraps it at the terminal width
    for option, help_text in helps.items():
        assert "".join(f"{option} {help_text}".split()) in text


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
                   "bound classical --functional {mutated}", "bound ns-cert --functional {mutated}",
                   "bound seesaw --functional {mutated} --restarts 2"],
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
        "wrong-type": st.sampled_from(["x", None, {}, [], [1.0], {"v": 1.0}, True, 0, -1, 2.5,
                                       10**400, -10**400]),
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
