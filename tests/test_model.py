"""Unit tests for states, effects, and observable constructions."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from ptcompat import model
from ptcompat.errors import HullRejection, InputError

F = Fraction


def segment():
    return model.TheorySpace.make("segment", 2, [(1, 0), (0, 1)], (1, 1))


def three_cube():
    pts = [(1, a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    return model.TheorySpace.make("cube3", 4, pts, (1, 0, 0, 0))


def coordinate_observable(theory, coord):
    on = [F(0)] * theory.dim
    on[coord] = F(1)
    off = [u - c for u, c in zip(theory.unit, on)]
    return model.Observable(
        theory,
        ("hit", "miss"),
        (model.Effect(theory, tuple(on)), model.Effect(theory, tuple(off))),
    )


def vertex(theory, i):
    return model.validate_state(theory, theory.extreme_points[i])


def mixture(theory, i, j, w):
    """``w`` times vertex ``i`` plus ``1 - w`` times vertex ``j``."""
    pi, pj = theory.extreme_points[i], theory.extreme_points[j]
    return model.validate_state(theory, tuple(w * a + (1 - w) * b for a, b in zip(pi, pj)))


def test_theory_validation():
    with pytest.raises(InputError):
        model.TheorySpace.make("bad", 2, [(1, 0), (1, 0)], (1, 1))  # duplicates
    with pytest.raises(InputError):
        model.TheorySpace.make("bad", 2, [(1, 0)], (1, 1))  # no span
    with pytest.raises(InputError):
        model.TheorySpace.make("bad", 2, [(1, 1), (0, 1)], (1, 1))  # unit != 1


def test_apply_trivial_is_state_independent():
    t = segment()
    p = model.Distribution.make(["1/3", "2/3"])
    triv = model.make_trivial(t, p, ("a", "b"))
    for s in (vertex(t, 0), vertex(t, 1), mixture(t, 0, 1, F(1, 2))):
        assert model.apply(triv, s).probs == p.probs


def test_apply_cube_coordinate_reader():
    t = three_cube()
    obs = coordinate_observable(t, 1)
    s = model.validate_state(t, (1, 1, 0, 1))
    assert model.apply(obs, s).probs == (F(1), F(0))


def test_apply_is_affine():
    t = three_cube()
    obs = coordinate_observable(t, 2)
    rng = random.Random(3)
    for _ in range(20):
        i, j = rng.randrange(8), rng.randrange(8)
        w = F(rng.randint(0, 8), 8)
        left = model.apply(obs, mixture(t, i, j, w)).probs
        pi = model.apply(obs, vertex(t, i)).probs
        pj = model.apply(obs, vertex(t, j)).probs
        assert left == tuple(w * a + (1 - w) * b for a, b in zip(pi, pj))


def test_apply_rejects_theory_mismatch():
    with pytest.raises(InputError):
        model.apply(coordinate_observable(three_cube(), 1), vertex(segment(), 0))


def test_make_trivial_point_and_split():
    t = segment()
    single = model.make_trivial(t, model.Distribution.make([1]), ("only",))
    assert single.effects[0].coeffs == t.unit
    half = model.make_trivial(t, model.Distribution.make(["1/2", "1/2"]), ("a", "b"))
    assert half.effects[0].coeffs == tuple(F(1, 2) * u for u in t.unit)
    with pytest.raises(InputError):
        model.make_trivial(t, model.Distribution.make(["1/2", "1/2"]), ("a",))


def test_mixing_trivials_mixes_distributions():
    t = three_cube()
    p = model.Distribution.make(["1/4", "3/4"])
    q = model.Distribution.make(["2/3", "1/3"])
    lam = F(2, 5)
    mixed = model.mix(
        [model.make_trivial(t, p, ("a", "b")), model.make_trivial(t, q, ("a", "b"))],
        [lam, 1 - lam],
    )
    blended = model.Distribution(
        tuple(lam * x + (1 - lam) * y for x, y in zip(p.probs, q.probs))
    )
    assert mixed == model.make_trivial(t, blended, ("a", "b"))


def test_mix_identities():
    t = three_cube()
    obs = coordinate_observable(t, 1)
    assert model.mix([obs], [1]) == obs
    assert model.mix([obs, obs], ["1/3", "2/3"]) == obs
    relabeled = model.Observable(t, ("x", "y"), obs.effects)
    with pytest.raises(InputError):
        model.mix([obs, relabeled], ["1/2", "1/2"])


def test_noisy_endpoints_and_expansion():
    t = three_cube()
    obs = coordinate_observable(t, 3)
    triv = model.uniform_trivial(t, obs.outcomes)
    assert model.noisy(obs, 1, triv) == obs
    assert model.noisy(obs, 0, triv) == triv
    half = model.noisy(obs, F(1, 2), triv)
    f = obs.effects[0]
    expected_first = tuple(
        F(1, 2) * c + F(1, 4) * u for c, u in zip(f.coeffs, t.unit)
    )
    assert half.effects[0].coeffs == expected_first
    not_trivial = coordinate_observable(t, 1)
    with pytest.raises(InputError):
        model.noisy(obs, F(1, 2), not_trivial)


def test_post_process_identity_constant_merge():
    t = three_cube()
    obs = coordinate_observable(t, 1)
    ident = model.OutcomeMap.make({"hit": "hit", "miss": "miss"})
    assert model.post_process(obs, ident) == obs

    collapse = model.OutcomeMap.make({"hit": "any", "miss": "any"})
    collapsed = model.post_process(obs, collapse)
    assert collapsed.outcomes == ("any",)
    assert collapsed.effects[0].coeffs == t.unit

    three = model.Observable(
        t,
        ("a", "b", "c"),
        (
            model.Effect(t, (F(0), F(1, 2), 0, 0)),
            model.Effect(t, (F(0), F(1, 2), 0, 0)),
            model.Effect(t, (F(1), F(-1), 0, 0)),
        ),
    )
    merged = model.post_process(three, model.OutcomeMap.make({"a": "ab", "b": "ab", "c": "c"}))
    assert merged.outcomes == ("ab", "c")
    assert merged.effects[0].coeffs == (F(0), F(1), F(0), F(0))


def test_post_process_composes():
    t = three_cube()
    obs = model.Observable(
        t,
        ("a", "b", "c"),
        (
            model.Effect(t, (F(0), F(1, 2), 0, 0)),
            model.Effect(t, (F(0), F(1, 2), 0, 0)),
            model.Effect(t, (F(1), F(-1), 0, 0)),
        ),
    )
    g = model.OutcomeMap.make({"a": "x", "b": "y", "c": "y"})
    h = model.OutcomeMap.make({"x": "u", "y": "u"})
    h_after_g = model.OutcomeMap.make({"a": "u", "b": "u", "c": "u"})
    assert model.post_process(model.post_process(obs, g), h) == model.post_process(
        obs, h_after_g
    )


def test_validate_state_accepts_and_witnesses():
    t = three_cube()
    s = model.validate_state(t, t.extreme_points[5])
    expected = tuple(F(int(i == 5)) for i in range(8))
    assert s.weights == expected

    seg = segment()
    mid = model.validate_state(seg, ("1/2", "1/2"))
    assert mid.weights == (F(1, 2), F(1, 2))


def test_validate_state_rejects_with_separator():
    t = three_cube()
    bad = (F(1), F(2), F(0), F(0))
    with pytest.raises(HullRejection) as info:
        model.validate_state(t, bad)
    sep = info.value.separating
    for x in t.extreme_points:
        assert model.dot(sep, x) >= 0
    assert model.dot(sep, bad) < 0


def test_distribution_and_effect_invariants():
    with pytest.raises(InputError):
        model.Distribution.make(["1/2", "1/4"])
    with pytest.raises(InputError):
        model.Distribution.make(["3/2", "-1/2"])
    t = segment()
    with pytest.raises(InputError):
        model.Effect(t, (F(2), F(0)))


def test_effect_check_is_exact_at_a_40_bit_vertex():
    # the check runs in integers over each vertex's own denominator; a
    # miss by 2^-80 at the one vertex with a 40-bit denominator is refused
    p = F(2**39 + 5, 2**40 - 87)
    t = model.TheorySpace.make("wide", 2, [(1, 0), (1, p)], (1, 0))
    eps = F(1, 2**80)
    model.Effect(t, (F(0), 1 / p))  # exactly 1 there
    model.Effect(t, (F(0), (1 - eps) / p))
    for coeffs in [(F(0), (1 + eps) / p), (-eps, 1 / p), (eps, 1 / p), (F(0), -eps / p)]:
        with pytest.raises(InputError):
            model.Effect(t, coeffs)
    # the same verdict as the definition, 0 <= e.x <= 1 in Fractions
    rng = random.Random(7)
    for _ in range(200):
        coeffs = (F(rng.randint(-2, 2), 2**rng.randint(78, 82)),
                  (rng.choice([0, 1]) + F(rng.randint(-2, 2), 2**rng.randint(78, 82))) / p)
        inside = all(0 <= model.dot(coeffs, x) <= 1 for x in t.extreme_points)
        try:
            model.Effect(t, coeffs)
            accepted = True
        except InputError:
            accepted = False
        assert accepted == inside


def test_every_observable_yields_distributions_on_extremes():
    t = three_cube()
    rng = random.Random(11)
    for _ in range(15):
        coeffs = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(4)]
        values = [model.dot(coeffs, x) for x in t.extreme_points]
        lo, hi = min(values), max(values)
        if lo == hi:
            continue
        # rescale to touch 0 and 1 on the vertex set (shift rides on the
        # homogeneous coordinate, whose unit entry is 1 for this theory)
        first = model.Effect(t, tuple((c / (hi - lo)) if j else (c - lo) / (hi - lo)
                                      for j, c in enumerate(coeffs)))
        obs = model.Observable(
            t,
            ("0", "1"),
            (first, model.Effect(t, tuple(u - c for u, c in zip(t.unit, first.coeffs)))),
        )
        for i in range(8):
            dist = model.apply(obs, vertex(t, i))
            assert sum(dist.probs) == 1
            assert all(p >= 0 for p in dist.probs)


def test_frac_reads_decimal_exponents():
    assert model.frac("1e3") == 1000
    assert model.frac("1.5e-3") == F(3, 2000)
    assert model.frac("25E-1_0") == F(25, 10 ** 10)
    with pytest.raises(InputError, match="not a rational"):
        model.frac("1/2e99999")  # a "num/den" string takes no exponent


@pytest.mark.parametrize("text", ["1e1000000", "1E-1000000", "3.5e+1_000_000",
                                  "1e" + "9" * 5000, f"1e{sys.get_int_max_str_digits()}"],
                         ids=["large", "negative", "underscores", "long", "at-limit"])
def test_frac_refuses_a_decimal_exponent_past_the_digit_limit(text):
    # refused before the power of ten is built: 1e1000000 alone took a
    # quarter of a second, and every further exponent digit costs ~36x more
    with pytest.raises(InputError) as info:
        model.frac(text)
    message = str(info.value)
    assert "decimal exponent" in message and len(message) < 200
