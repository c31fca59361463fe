"""Round-trip tests for the JSON/CSV encodings."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from ptcompat import catalog, compat, model, serialize
from ptcompat.errors import InputError

F = Fraction


def test_rational_codec_round_trip():
    values = [F(0), F(3), F(-2), F(1, 3), F(-7, 12), F(10**9, 7)]
    for v in values:
        encoded = serialize.rational_to_json(v)
        assert serialize.rational_from_json(encoded) == v
    assert serialize.rational_to_json(F(4, 2)) == 2
    assert serialize.rational_to_json(F(1, 3)) == "1/3"
    with pytest.raises(InputError):
        serialize.rational_from_json(0.5)


def test_theory_round_trip_bit_identical():
    for theory in (catalog.classical_simplex(3), catalog.square_gbit(),
                   catalog.bloch_polytope(16)):
        doc = serialize.theory_to_doc(theory)
        text = serialize.dumps(doc)
        again = serialize.theory_from_doc(json.loads(text))
        assert again == theory
        assert serialize.dumps(serialize.theory_to_doc(again)) == text


def test_observable_round_trip():
    t = catalog.even_logic_cube()
    m = catalog.random_observable(t, 3, 5)
    doc = serialize.observable_to_doc(m)
    again = serialize.observable_from_doc(json.loads(serialize.dumps(doc)), t)
    assert again == m


def test_observable_theory_name_mismatch():
    t = catalog.even_logic_cube()
    m = catalog.random_observable(t, 2, 5)
    doc = serialize.observable_to_doc(m)
    with pytest.raises(InputError):
        serialize.observable_from_doc(doc, catalog.square_gbit())


def test_labels_and_names_must_be_json_strings():
    t = catalog.even_logic_cube()
    doc = serialize.observable_to_doc(catalog.random_observable(t, 2, 5))
    for field, value in (("theory", 5), ("outcomes", [0, 1]), ("outcomes", ["0", None])):
        bad = dict(doc, **{field: value})
        with pytest.raises(InputError, match="must be a JSON string"):
            serialize.observable_from_doc(bad, t)
    tdoc = dict(serialize.theory_to_doc(t), name=["even-logic-cube"])
    with pytest.raises(InputError, match="theory name must be a JSON string"):
        serialize.theory_from_doc(tdoc)


def test_verdict_docs():
    t = catalog.even_logic_cube()
    obs = catalog.even_logic_observables(t)
    good = compat.check_compatible([obs["A"], model.uniform_trivial(t, obs["A"].outcomes)])
    doc = serialize.verdict_to_doc(good)
    assert doc["verdict"] == "compatible"
    assert doc["witness"]["theory"] == t.name

    bad = compat.check_compatible([obs["A"], obs["B"]])
    doc = serialize.verdict_to_doc(bad)
    assert doc["verdict"] == "incompatible"
    assert any(v != 0 for v in doc["certificate"]["farkas"])


def test_index_doc_carries_approximation():
    t = catalog.square_gbit()
    obs = catalog.square_gbit_observables(t)
    result = compat.compat_index(obs["X"], obs["D1"])
    doc = serialize.index_to_doc(result)
    assert doc["lambda_star"] == serialize.rational_to_json(result.lambda_star)
    assert doc["lambda_star_approx"] == round(float(result.lambda_star), 12)
    assert doc["interval"][0] == 0


def test_region_csv_shape():
    t = catalog.even_logic_cube()
    obs = catalog.even_logic_observables(t)
    samples = compat.region_boundary_scan(
        [obs["A"], obs["B"]], [(F(1), F(0)), (F(1, 2), F(1, 2))]
    )
    text = serialize.region_samples_to_csv(samples)
    lines = text.strip().split("\n")
    assert lines[0] == ("direction_1,direction_2,reach,boundary_1,boundary_2,"
                        "reach_approx,boundary_1_approx,boundary_2_approx")
    assert len(lines) == 3
    assert lines[1].startswith("1,0,1,1,0,")


def test_disk_csv_shape():
    from ptcompat import qubit

    text = serialize.disk_grid_to_csv(qubit.pauli_region(0.5))
    lines = text.strip().split("\n")
    assert lines[0] == "lambda,mu,member"
    assert len(lines) == 10
    assert lines[1] == "0,0,1"
    assert lines[-1] == "1,1,0"
