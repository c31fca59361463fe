"""Unit tests for the built-in theories and samplers."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ptcompat import catalog, compat, model
from ptcompat.errors import InputError
from oracles import dichotomic_pair_compatible

F = Fraction


def test_classical_simplex_shapes():
    one = catalog.classical_simplex(1)
    assert one.extreme_points == ((F(1),),)
    two = catalog.classical_simplex(2)
    assert len(two.extreme_points) == 2
    assert two.unit == (F(1), F(1))
    with pytest.raises(InputError):
        catalog.classical_simplex(0)


def test_classical_dichotomies_always_compatible():
    t = catalog.classical_simplex(2)
    for seed in range(6):
        M = catalog.random_observable(t, 2, seed)
        N = catalog.random_observable(t, 2, 100 + seed)
        assert isinstance(compat.check_compatible([M, N]), compat.Compatible)
        assert dichotomic_pair_compatible(M, N)


def test_square_gbit_geometry():
    t = catalog.square_gbit()
    assert len(t.extreme_points) == 4
    assert all(model.dot(t.unit, x) == 1 for x in t.extreme_points)


def test_square_gbit_reader_verdicts_match_oracle():
    t = catalog.square_gbit()
    obs = catalog.square_gbit_observables(t)
    names = list(obs)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            expected = dichotomic_pair_compatible(obs[a], obs[b])
            verdict = compat.check_compatible([obs[a], obs[b]])
            assert isinstance(verdict, compat.Compatible) == expected, (a, b)
    # the coordinate pair is maximally noise-sensitive: one-sided noise
    # never reconciles it (frozen from the oracle's interval arithmetic)
    assert not dichotomic_pair_compatible(obs["X"], obs["Y"])
    assert compat.compat_index(obs["X"], obs["Y"]).lambda_star == 0


def test_even_logic_cube_vertices():
    t = catalog.even_logic_cube()
    assert len(t.extreme_points) == 8
    states = catalog.cube_vertex_states()
    assert states["delta1"].lambdas == (1, 1, 1)
    assert states["gamma1"].lambdas == (0, 0, 0)
    for name, s in states.items():
        coords = (F(1),) + s.lambdas
        assert coords in t.extreme_points, name


def test_logic_state_classification():
    states = catalog.cube_vertex_states()
    for i in range(1, 5):
        assert catalog.is_classical_state(states[f"delta{i}"])
        assert not catalog.is_classical_state(states[f"gamma{i}"])
    uniform = catalog.LogicState.make(["1/2", "1/2", "1/2"])
    assert catalog.is_classical_state(uniform)


def test_logic_state_embeds_into_cube():
    t = catalog.even_logic_cube()
    s = model.validate_state(t, (1,) + catalog.LogicState.make(["1/2", "0", "1"]).lambdas)
    assert s.coords == (F(1), F(1, 2), F(0), F(1))
    assert s.weights is not None


def test_logic_state_marginals_in_unit_interval():
    with pytest.raises(InputError):
        catalog.LogicState.make([2, 0, 0])


def test_cube_coordinate_readers_are_incompatible():
    # a state space carrying only the three marginals cannot support a
    # joint for two sharp coordinate readers: frozen via the oracle
    t = catalog.even_logic_cube()
    obs = catalog.even_logic_observables(t)
    pairs = [("A", "B"), ("A", "C"), ("B", "C")]
    for a, b in pairs:
        verdict = compat.check_compatible([obs[a], obs[b]])
        assert isinstance(verdict, compat.Incompatible), (a, b)
    triple = compat.check_compatible([obs["A"], obs["B"], obs["C"]])
    assert isinstance(triple, compat.Incompatible)


def test_bloch_octahedron_and_paulis():
    t = catalog.bloch_octahedron()
    assert len(t.extreme_points) == 6
    mx, my = catalog.noisy_pauli_observables(t)
    assert mx.effects[0].coeffs == (F(1, 2), F(1, 2), 0, 0)
    assert my.effects[0].coeffs == (F(1, 2), 0, F(1, 2), 0)
    plus_x = model.validate_state(t, (1, 1, 0, 0))
    assert model.apply(mx, plus_x).probs == (F(1), F(0))
    plus_y = model.validate_state(t, (1, 0, 1, 0))
    assert model.apply(mx, plus_y).probs == (F(1, 2), F(1, 2))
    with pytest.raises(InputError):
        catalog.noisy_pauli_observables(catalog.square_gbit())


def test_bloch_polytope_points_inside_ball():
    t = catalog.bloch_polytope(64)
    assert len(t.extreme_points) == 64
    for x in t.extreme_points:
        assert sum(c * c for c in x[1:]) == 1
        assert all(c.denominator < 2**21 for c in x)
    with pytest.raises(InputError):
        catalog.bloch_polytope(3)


def test_sphere_sequence_is_pinned():
    assert catalog.sphere_sequence(6) == [
        (F(0), F(0), F(1)),
        (F(-346112, 419337), F(1183744, 2096685), F(467, 2096685)),
        (F(135168, 1397501), F(-1202176, 1397501), F(699651, 1397501)),
        (F(297984, 699241), F(527360, 699241), F(-349335, 699241)),
        (F(-774144, 1198685), F(-34816, 239737), F(898467, 1198685)),
        (F(294912, 335573), F(-681984, 1677865), F(-419287, 1677865)),
    ]


def test_bloch_sequences_are_nested_prefixes():
    small = catalog.bloch_polytope(32)
    large = catalog.bloch_polytope(64)
    assert large.extreme_points[:32] == small.extreme_points


def test_random_observable_contract():
    t = catalog.even_logic_cube()
    single = catalog.random_observable(t, 1, 0)
    assert single.effects[0].coeffs == t.unit

    a = catalog.random_observable(t, 2, 42)
    b = catalog.random_observable(t, 2, 42)
    assert a == b
    values = [a.effects[0].value(x) for x in t.extreme_points]
    assert min(values) == 0 and max(values) == 1

    multi = catalog.random_observable(t, 4, 7)
    assert len(multi) == 4  # validity is enforced by the constructors


def test_get_theory_resolver():
    assert catalog.get_theory("classical:3").dim == 3
    assert catalog.get_theory("gbit-square").name == "gbit-square"
    assert catalog.get_theory("even-logic-cube").dim == 4
    assert catalog.get_theory("bloch:16").name == "bloch:16"
    with pytest.raises(InputError):
        catalog.get_theory("nonsense")
    with pytest.raises(InputError):
        catalog.get_theory("classical:x")


@pytest.mark.parametrize("name", ["bloch:1_000", "bloch: 8", "bloch:08", "bloch:+8",
                                  "classical:\u0663", "classical:2 ", "classical:"])
def test_counts_are_plain_ascii_decimals(name):
    # each of these would otherwise resolve to a theory named differently
    with pytest.raises(InputError, match="bad count"):
        catalog.get_theory(name)


def test_size_limits_refuse_before_building(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("a refused theory must not be built")

    monkeypatch.setattr(catalog, "sphere_sequence", unbuilt)
    monkeypatch.setattr(catalog, "TheorySpace", unbuilt)
    for name, message in (
        (f"classical:{catalog.MAX_CLASSICAL_OUTCOMES + 1}", "at most"),
        (f"bloch:{catalog.MAX_BLOCH_POINTS + 1}", "at most"),
        ("bloch:" + "9" * 5000, "too large"),
    ):
        with pytest.raises(InputError, match=message):
            catalog.get_theory(name)


def test_named_observables():
    assert set(catalog.named_observables(catalog.square_gbit())) == {"X", "Y", "D1", "D2"}
    assert set(catalog.named_observables(catalog.even_logic_cube())) == {"A", "B", "C"}
    assert set(catalog.named_observables(catalog.bloch_octahedron())) == {"pauli-x", "pauli-y"}
    assert catalog.named_observables(catalog.classical_simplex(2)) == {}
