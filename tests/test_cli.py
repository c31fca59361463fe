"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import ptcompat
from ptcompat import catalog, compat, model, qubit, serialize
from ptcompat.cli import RunConfig, execute, main

F = Fraction


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def write_observable(path, observable):
    path.write_text(serialize.dumps(serialize.observable_to_doc(observable)))
    return str(path)


def test_theory_list_and_show():
    res = invoke("theory", "list")
    assert res.exit_code == 0
    assert "gbit-square" in res.output

    res = invoke("theory", "show", "classical:2")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["dim"] == 2
    assert doc["extreme_points"] == [[1, 0], [0, 1]]


def test_theory_export_round_trip(tmp_path):
    out = tmp_path / "cube.json"
    res = invoke("theory", "export", "even-logic-cube", "--out", str(out))
    assert res.exit_code == 0
    text = out.read_text()
    theory = serialize.theory_from_doc(json.loads(text))
    assert theory == catalog.even_logic_cube()
    assert serialize.dumps(serialize.theory_to_doc(theory)) == text


def test_check_compatible_and_incompatible():
    res = invoke("check", "A@even-logic-cube", "B@even-logic-cube")
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] == "incompatible"

    res = invoke("check", "--theory", "gbit-square", "X", "X")
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] == "compatible"


def test_check_rejects_mismatched_theories():
    res = invoke("check", "A@even-logic-cube", "X@gbit-square")
    assert res.exit_code == 2


def test_check_from_files(tmp_path):
    t = catalog.classical_simplex(3)
    a = write_observable(tmp_path / "a.json", catalog.random_observable(t, 2, 1))
    b = write_observable(tmp_path / "b.json", catalog.random_observable(t, 2, 2))
    res = invoke("check", a, b)
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] == "compatible"


def test_index_on_classical_pair_is_one(tmp_path):
    t = catalog.classical_simplex(2)
    a = write_observable(tmp_path / "a.json", catalog.random_observable(t, 2, 3))
    b = write_observable(tmp_path / "b.json", catalog.random_observable(t, 2, 4))
    res = invoke("index", a, b)
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["lambda_star"] == 1
    assert doc["noise_witness"] is None


def test_interval_output():
    res = invoke("interval", "X@gbit-square", "D1@gbit-square")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["interval"]["lo"] == 0
    assert doc["closed"] is True


def test_region_csv_and_dump(tmp_path):
    out = tmp_path / "region.csv"
    dump = tmp_path / "programs.txt"
    res = invoke("region", "--theory", "even-logic-cube", "A", "B",
                 "--directions", "3", "--out", str(out), "--dump-lp", str(dump))
    assert res.exit_code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4  # header + 3 directions
    dump_text = dump.read_text()
    assert dump_text.count("# direction") == 3
    assert "maximize" in dump_text


def test_region_json_format():
    res = invoke("region", "--theory", "gbit-square", "X", "Y",
                 "--directions", "3", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert len(doc) == 3
    assert doc[0]["direction"] == [1, 0]
    assert doc[0]["reach"] == 1


def test_classify_state_outputs():
    res = invoke("classify-state", "0", "0", "0")
    assert res.exit_code == 0
    assert json.loads(res.output)["label"] == "nonclassical"

    res = invoke("classify-state", "1/2", "1/2", "1/2")
    assert res.exit_code == 0
    assert json.loads(res.output)["label"] == "classical"

    res = invoke("classify-state", "2", "0", "0")
    assert res.exit_code == 2


def test_estimate_index_runs():
    res = invoke("estimate-index", "classical:2", "--samples", "3", "--seed", "7")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["upper_bound"] == 1
    assert doc["pairs"] == 3


def test_qubit_disk_csv(tmp_path):
    out = tmp_path / "disk.csv"
    res = invoke("qubit", "disk", "--step", "1/4", "--out", str(out))
    assert res.exit_code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "lambda,mu,member"
    assert len(lines) == 26


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = invoke("check", str(bad), str(bad))
    assert res.exit_code == 2
    assert "line" in res.output or "line" in (res.stderr or "")


def test_oversized_json_integer_exits_2(tmp_path):
    # json.loads refuses integers longer than Python's digit limit with a
    # plain ValueError
    big = tmp_path / "big.json"
    big.write_text('{"name": "big", "dim": ' + "1" * 5000 + "}")
    for args in (("theory", "show", str(big)), ("check", str(big), "X@gbit-square")):
        res = invoke(*args)
        assert res.exit_code == 2, args
        assert "error:" in res.output


def test_oversized_rational_string_exits_2_with_a_short_message(tmp_path):
    doc = serialize.theory_to_doc(catalog.square_gbit())
    doc["unit"][0] = "1" * 5000
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    res = invoke("theory", "show", str(big))
    assert res.exit_code == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200, lines
    assert "exceeds the integer digit limit" in lines[0]


@pytest.mark.parametrize("field, value, message", [
    ("dim", "9" * 5000, "theory dim must be an integer"),
    ("name", list(range(3000)), "theory name must be a JSON string"),
], ids=["dim", "name"])
def test_malformed_theory_field_echo_is_clipped(tmp_path, field, value, message):
    doc = serialize.theory_to_doc(catalog.square_gbit())
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = invoke("theory", "show", str(bad))
    assert res.exit_code == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200, lines
    assert message in lines[0]


def test_theory_show_bloch_512_bytes_are_pinned():
    res = invoke("theory", "show", "bloch:512")
    assert res.exit_code == 0
    digest = hashlib.sha256(res.stdout.encode()).hexdigest()
    assert digest == "d1e93bce35b6406e5ea05be53d3fe311e4795f2e02d8c73c847488344de6cb07"


@pytest.mark.parametrize("args", [
    ("theory", "show", f"classical:{catalog.MAX_CLASSICAL_OUTCOMES + 1}"),
    ("theory", "show", f"bloch:{catalog.MAX_BLOCH_POINTS + 1}"),
    ("region", "--theory", "gbit-square", "X", "Y",
     "--directions", str(compat.MAX_DIRECTIONS + 1)),
    ("qubit", "disk", "--step", f"1/{qubit.MAX_GRID_SIDE}"),
])
def test_size_limits_exit_2(args):
    res = invoke(*args)
    assert res.exit_code == 2
    assert "at most" in res.stderr


@pytest.mark.parametrize("step, message", [
    ("1e400", "grid step must be at most 1"),
    ("3/2", "grid step must be at most 1"),
    ("1e-400", "grid step too small: at most 1001 values per axis"),
    ("0", "grid step must be positive"),
    ("-1/2", "grid step must be positive"),
], ids=["1e400", "3/2", "1e-400", "0", "-1/2"])
def test_qubit_disk_step_out_of_range_exit_2(step, message):
    res = invoke("qubit", "disk", "--step", step)
    assert res.exit_code == 2
    assert res.stderr == f"error: {message}\n"


def test_grid_size_limit_exit_2(monkeypatch):
    # small synthetic limits around the 4 cells of X Y
    def unbuilt(*args):
        raise AssertionError("a refused family must not be built")

    monkeypatch.setattr(compat, "MAX_GRID_CELLS", 4)
    assert invoke("check", "--theory", "gbit-square", "X", "Y").exit_code == 0
    monkeypatch.setattr(compat, "MAX_GRID_CELLS", 3)
    monkeypatch.setattr(compat, "_family_program", unbuilt)
    for command in ("check", "index", "interval", "region"):
        res = invoke(command, "--theory", "gbit-square", "X", "Y")
        assert res.exit_code == 2
        assert "outcome grid has at most 3 cells" in res.stderr


def test_theory_dim_must_be_a_json_integer(tmp_path):
    theory = catalog.square_gbit()
    obs = catalog.square_gbit_observables(theory)
    a = write_observable(tmp_path / "a.json", obs["D1"])
    b = write_observable(tmp_path / "b.json", obs["D2"])
    tfile = tmp_path / "theory.json"
    for dim in ("abc", 1.5, True, "3"):
        doc = serialize.theory_to_doc(theory)
        doc["dim"] = dim
        tfile.write_text(json.dumps(doc))
        res = invoke("check", "--theory", str(tfile), a, b)
        assert res.exit_code == 2, dim
        assert "theory dim must be an integer" in res.output


def test_observable_outcomes_must_be_a_list(tmp_path):
    obs = catalog.square_gbit_observables(catalog.square_gbit())
    doc = serialize.observable_to_doc(obs["D1"])
    doc["outcomes"] = "ab"
    a = tmp_path / "a.json"
    a.write_text(json.dumps(doc))
    res = invoke("check", str(a), "D2@gbit-square")
    assert res.exit_code == 2
    assert "observable outcomes must be a list" in res.output


def test_estimate_negative_samples_exits_2():
    res = invoke("estimate-index", "gbit-square", "--samples", "-3")
    assert res.exit_code == 2
    assert "at least 0" in res.output


def test_sample_limit_exit_2(monkeypatch):
    # a small synthetic limit around 3 samples
    def undrawn(*args):
        raise AssertionError("a refused estimate must not draw an observable")

    monkeypatch.setattr(compat, "MAX_SAMPLES", 3)
    assert invoke("estimate-index", "classical:2", "--samples", "3").exit_code == 0
    monkeypatch.setattr(catalog, "random_observable", undrawn)
    res = invoke("estimate-index", "classical:2", "--samples", "4")
    assert res.exit_code == 2
    assert "at most 3 sampled pairs" in res.stderr


def test_estimate_on_a_one_state_theory_exits_2():
    # run in a child with a timeout, so that a hang fails instead of stalling
    env = dict(os.environ, PYTHONPATH=str(Path(ptcompat.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "ptcompat.cli", "estimate-index",
                           "classical:1", "--samples", "2"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "'classical:1'" in done.stderr

    res = invoke("estimate-index", "classical:1", "--samples", "0")
    assert res.exit_code == 0
    assert json.loads(res.output)["upper_bound"] == 1


def test_unwritable_out_exits_2(tmp_path):
    target = tmp_path / "missing" / "out.json"
    res = invoke("check", "--theory", "gbit-square", "X", "Y", "--out", str(target))
    assert res.exit_code == 2
    assert f"error: cannot write {target}" in res.output


def test_unwritable_dump_lp_exits_2(tmp_path):
    target = tmp_path / "missing" / "program.lp"
    res = invoke("index", "--theory", "gbit-square", "X", "Y", "--dump-lp", str(target))
    assert res.exit_code == 2
    assert f"error: cannot write {target}" in res.output


def test_outcome_labels_must_be_strings(tmp_path):
    obs = catalog.square_gbit_observables(catalog.square_gbit())
    doc = serialize.observable_to_doc(obs["D1"])
    doc["outcomes"] = [1, {"a": 2}]
    a = tmp_path / "a.json"
    a.write_text(json.dumps(doc))
    res = invoke("check", str(a), "D2@gbit-square")
    assert res.exit_code == 2
    assert "outcome label must be a JSON string" in res.output


def test_theory_names_must_be_strings(tmp_path):
    # a theory file named "5" and an observable naming it by the number 5
    theory = model.TheorySpace.make("5", 2, [[1, 0], [0, 1]], [1, 1])
    tfile = tmp_path / "theory.json"
    tfile.write_text(serialize.dumps(serialize.theory_to_doc(theory)))
    obs = catalog.random_observable(theory, 2, 1)
    doc = serialize.observable_to_doc(obs)
    a = write_observable(tmp_path / "a.json", obs)
    doc["theory"] = 5
    b = tmp_path / "b.json"
    b.write_text(json.dumps(doc))
    res = invoke("check", "--theory", str(tfile), a, a)
    assert res.exit_code == 0
    res = invoke("check", "--theory", str(tfile), a, str(b))
    assert res.exit_code == 2
    assert "observable documents need a 'theory' string" in res.output

    tdoc = serialize.theory_to_doc(theory)
    tdoc["name"] = 5
    tfile.write_text(json.dumps(tdoc))
    res = invoke("check", "--theory", str(tfile), a, a)
    assert res.exit_code == 2
    assert "theory name must be a JSON string" in res.output


def test_region_reaches_dominate_disk_values(tmp_path):
    # small ball approximation so the CLI-level comparison stays quick
    out = tmp_path / "region.csv"
    res = invoke("region", "--theory", "bloch:32", "pauli-x", "pauli-y",
                 "--directions", "5", "--out", str(out))
    assert res.exit_code == 0

    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 5
    for row in rows:
        cols = row.split(",")
        w1, w2 = F(cols[0]), F(cols[1])
        reach = F(cols[2])
        assert float(reach) >= qubit.disk_reach(float(w1), float(w2)) - 1e-12


def test_observables_with_theory_file(tmp_path):
    theory = catalog.square_gbit()
    tfile = tmp_path / "theory.json"
    tfile.write_text(serialize.dumps(serialize.theory_to_doc(theory)))
    obs = catalog.square_gbit_observables(theory)
    a = write_observable(tmp_path / "a.json", obs["D1"])
    b = write_observable(tmp_path / "b.json", obs["D2"])
    res = invoke("check", "--theory", str(tfile), a, b)
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] == "compatible"


def test_execute_is_reproducible():
    config = RunConfig(command="region", inputs=("A", "B"),
                       theory="even-logic-cube", directions=4, fmt="csv")
    first = execute(config)
    second = execute(config)
    assert first == second

    check_cfg = RunConfig(command="check", inputs=("X@gbit-square", "Y@gbit-square"))
    assert execute(check_cfg) == execute(check_cfg)


def test_file_shadowing_a_catalog_theory_is_refused(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # a triangle under the square's name: X and Y would be compatible on it
    stray = model.TheorySpace.make("gbit-square", 3, [[1, 1, 1], [1, 1, -1], [1, -1, 1]],
                                   [1, 0, 0])
    (tmp_path / "gbit-square").write_text(serialize.dumps(serialize.theory_to_doc(stray)))
    res = invoke("index", "--theory", "gbit-square", "X", "Y")
    assert res.exit_code == 2
    assert "'gbit-square' names both a file and a builtin catalog theory" in res.output

    res = invoke("index", "--theory", "./gbit-square", "X", "Y")
    assert res.exit_code == 0
    assert json.loads(res.output)["lambda_star"] == 1


def test_file_shadowing_a_builtin_observable_is_refused(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    obs = catalog.square_gbit_observables(catalog.square_gbit())
    write_observable(tmp_path / "X", obs["D1"])
    res = invoke("check", "--theory", "gbit-square", "X", "D2")
    assert res.exit_code == 2
    assert "'X' names both a file and a builtin observable" in res.output
    # without --theory a bare X names no builtin, so the file is meant
    res = invoke("check", "X", "D2@gbit-square")
    assert res.exit_code == 0

    write_observable(tmp_path / "X@gbit-square", obs["D1"])
    res = invoke("check", "X@gbit-square", "D2@gbit-square")
    assert res.exit_code == 2
    res = invoke("check", "./X@gbit-square", "D2@gbit-square")
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] == "compatible"
