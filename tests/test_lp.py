"""Unit tests for the exact LP engine."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from ptcompat import catalog, cli, compat, lp, model
from ptcompat.errors import HullRejection, InputError, InternalError
from oracles import (CondensedSimplex, TwoColumnSimplex, Unbounded, best_vertex_2var,
                     certificate_ok, dense_program, reduce_program, reduced_row_scan,
                     unbounded_ray, witness_marginals_ok)

F = Fraction


def simple_lp(constraints, objective=None, sense=None, num_vars=None, nonneg=True):
    n = num_vars if num_vars is not None else len(constraints[0][0])
    return lp.LinearProgram.create(n, constraints, objective=objective,
                                   sense=sense, nonneg=nonneg)


def solved(prog):
    """``lp.solve(prog)``, which must raise exactly when the oracle
    certifies a ray of ``prog``; then that ray, as the oracle's
    ``Unbounded``."""
    ray = unbounded_ray(prog)
    if ray is None:
        return lp.solve(prog)
    with pytest.raises(InternalError, match="the objective is unbounded"):
        lp.solve(prog)
    return ray


def test_single_variable_box():
    prog = simple_lp([((1,), "<=", 1)], objective=(1,), sense=lp.MAX)
    out = lp.solve(prog)
    assert isinstance(out, lp.Optimal)
    assert out.point == (F(1),)
    assert out.value == F(1)


def test_trivially_infeasible_pair():
    prog = simple_lp([((1,), ">=", 1), ((1,), "<=", 0)])
    out = lp.solve(prog)
    assert isinstance(out, lp.Infeasible)
    assert lp.verify(prog, out)
    # unit weights on both rows combine to 0.x <= -1, a contradiction
    assert out.farkas == (F(1), F(1))


def test_two_variable_polygon_matches_vertex_enumeration():
    rows = [((1, 2), 2), ((2, 1), 2)]
    oracle_value, oracle_point = best_vertex_2var(rows, (F(1), F(1)))
    assert oracle_value == F(4, 3)
    assert oracle_point == (F(2, 3), F(2, 3))

    prog = simple_lp([(r, "<=", b) for r, b in rows], objective=(1, 1), sense=lp.MAX)
    out = lp.solve(prog)
    assert isinstance(out, lp.Optimal)
    assert out.value == oracle_value
    assert out.point == oracle_point


def test_equality_and_free_variables():
    # x free, y >= 0:  x + y = 3, x <= 1, maximize x - y
    prog = lp.LinearProgram.create(
        2,
        [((1, 1), "=", 3), ((1, 0), "<=", 1)],
        objective=(1, -1),
        sense=lp.MAX,
        nonneg=(False, True),
    )
    out = lp.solve(prog)
    assert isinstance(out, lp.Optimal)
    assert out.point == (F(1), F(2))
    assert out.value == F(-1)


def test_negative_rhs_rows():
    # -x <= -2 means x >= 2; minimize x
    prog = simple_lp([((-1,), "<=", -2)], objective=(1,), sense=lp.MIN)
    out = lp.solve(prog)
    assert out == lp.Optimal((F(2),), F(2))


def test_unbounded_ray():
    # x - y <= 1 lets x grow along (1, 1), and -x falls without bound
    for objective, sense in (((1, 0), lp.MAX), ((-1, 0), lp.MIN)):
        prog = lp.LinearProgram.create(2, [((1, -1), "<=", 1)], objective=objective,
                                       sense=sense)
        with pytest.raises(InternalError, match="the objective is unbounded"):
            lp.solve(prog)
        found = unbounded_ray(prog)
        assert found is not None and certificate_ok(prog, found)


def test_feasibility_only_returns_zero_value():
    prog = simple_lp([((1, 1), "<=", 4), ((1, 0), ">=", 1)])
    out = lp.solve(prog)
    assert isinstance(out, lp.Optimal)
    assert out.value == 0


def test_zero_row_presolve():
    prog = simple_lp([((0, 0), "<=", 1), ((1, 1), "<=", 2)], objective=(1, 1), sense=lp.MAX)
    out = lp.solve(prog)
    assert isinstance(out, lp.Optimal)
    assert out.value == F(2)

    bad = simple_lp([((0, 0), ">=", 1), ((1, 1), "<=", 2)])
    out = lp.solve(bad)
    assert isinstance(out, lp.Infeasible)
    assert lp.verify(bad, out)


def test_verify_rejects_tampered_certificates():
    prog = simple_lp([((1,), ">=", 1), ((1,), "<=", 0)])
    out = lp.solve(prog)
    assert lp.verify(prog, out)
    flipped = lp.Infeasible((-out.farkas[0], out.farkas[1]))
    assert not lp.verify(prog, flipped)

    # every tampered point below keeps the optimal value and the true duals,
    # so only the point's own checks can refuse it
    box = simple_lp([((1, 0), "<=", 1), ((0, 1), "<=", 0)], objective=(1, 0), sense=lp.MAX)
    good = lp.solve(box)
    assert lp.verify(box, lp.Optimal(good.point, good.value, good.duals))
    assert lp.verify(box, lp.Optimal((F(1), F(0)), F(1), (F(1), F(0))))
    assert not lp.verify(box, lp.Optimal((F(1), F(1)), F(1), good.duals))  # breaks a row
    assert not lp.verify(box, lp.Optimal((F(1), F(-1)), F(1), good.duals))  # negative coordinate
    assert not lp.verify(box, lp.Optimal((F(0), F(0)), F(1), good.duals))  # value is not c.x
    assert not lp.verify(box, lp.Optimal((F(1),), F(1), good.duals))  # wrong length


def test_verify_refuses_numbers_that_are_not_ints_or_fractions():
    # each outcome below would pass if its numbers were read as rationals
    box = simple_lp([((1,), "<=", 1)], objective=(1,), sense=lp.MAX)
    out = lp.solve(box)
    assert out == lp.Optimal((F(1),), F(1)) and out.duals == (F(1),)
    assert lp.verify(box, lp.Optimal((1,), 1, (1,)))  # ints are rationals
    assert not lp.verify(box, lp.Optimal((1.0,), out.value, out.duals))
    assert not lp.verify(box, lp.Optimal(out.point, 1.0, out.duals))
    assert not lp.verify(box, lp.Optimal(out.point, out.value, ("1",)))
    half = simple_lp([((1,), "<=", 1)])
    assert lp.verify(half, lp.Optimal((F(1, 2),), F(0)))
    assert not lp.verify(half, lp.Optimal((0.5,), F(0)))
    below = simple_lp([((1,), "<=", -1)])  # x >= 0
    assert lp.verify(below, lp.Infeasible((F(1, 2),)))
    assert not lp.verify(below, lp.Infeasible((0.5,)))
    assert not lp.verify(below, lp.Infeasible(("1",)))


def test_programs_are_tuples_throughout():
    # a list anywhere would leave a checked program open to change and
    # unhashable: built from lists, this one used to solve after its
    # relation was changed to "<<"
    with pytest.raises(InputError):
        lp.LinearProgram(2, [True, True], [(((0, 1), (2, 1)), 1)], ["<="], None, "feasibility")
    good = lp.LinearProgram(2, (True, True), ((((0, 1), (2, 1)), 1),), ("<=",), None,
                            lp.FEASIBILITY)
    assert hash(good) == hash(dataclasses.replace(good))
    for bad in (dict(nonneg=[True, True]), dict(relations=["<="]),
                dict(entries=[(((0, 1), (2, 1)), 1)]), dict(entries=([((0, 1), (2, 1)), 1],)),
                dict(entries=(([(0, 1), (2, 1)], 1),)), dict(entries=((((0, 1), [2, 1]), 1),)),
                dict(entries=((((0, 1), (2, 1)), 1, 1),)), dict(entries=((((0, 1), (2, 1, 0)), 1),)),
                dict(objective=[F(1), F(1)], sense=lp.MAX)):
        with pytest.raises(InputError):
            dataclasses.replace(good, **bad)


def test_malformed_programs_rejected():
    with pytest.raises(InputError):
        lp.LinearProgram.create(2, [((1,), "<=", 1)])
    with pytest.raises(InputError):
        lp.LinearProgram.create(2, [((1, 0), "<<", 1)])
    with pytest.raises(InputError):
        lp.LinearProgram.create(0, [])
    with pytest.raises(InputError):
        lp.LinearProgram.create(1, [])


def _random_program(rng):
    n = rng.randint(1, 4)
    m = rng.randint(1, 6)
    rows = []
    for _ in range(m):
        coeffs = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        rel = rng.choice(["<=", ">=", "="])
        rhs = F(rng.randint(-6, 6), rng.randint(1, 2))
        rows.append((coeffs, rel, rhs))
    # box the variables so unbounded cases stay rare but possible
    if rng.random() < 0.8:
        for j in range(n):
            unit = tuple(F(int(j == k)) for k in range(n))
            rows.append((unit, "<=", F(rng.randint(1, 5))))
    objective = tuple(F(rng.randint(-3, 3)) for _ in range(n))
    sense = rng.choice([lp.MAX, lp.MIN])
    nonneg = tuple(rng.random() < 0.8 for _ in range(n))
    return lp.LinearProgram.create(n, rows, objective=objective, sense=sense, nonneg=nonneg)


def test_soundness_on_random_corpus():
    rng = random.Random(20240)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(250):
        prog = _random_program(rng)
        out = solved(prog)  # solve() would raise if verify failed
        assert isinstance(out, Unbounded) or lp.verify(prog, out)
        seen[type(out).__name__.lower()] += 1
    assert min(seen.values()) > 0, seen


def test_duality_spot_check():
    rng = random.Random(777)
    checked = 0
    for _ in range(200):
        prog = _random_program(rng)
        out = solved(prog)
        if not isinstance(out, lp.Optimal):
            continue
        assert len(out.duals) == len(prog.rows)
        assert certificate_ok(prog, out)
        checked += 1
    assert checked > 50


def test_verify_rejects_tampered_duals():
    # x free, y >= 0: x + y = 3, x <= 1, maximize x - y; the optimum (1, 2)
    # has the unique duals (-1, 2)
    prog = lp.LinearProgram.create(
        2, [((1, 1), "=", 3), ((1, 0), "<=", 1)], objective=(1, -1), sense=lp.MAX,
        nonneg=(False, True))
    out = lp.solve(prog)
    assert out.point == (F(1), F(2)) and out.duals == (F(-1), F(2))
    for i in range(len(prog.rows)):
        bumped = tuple(y + F(1, 7) * (k == i) for k, y in enumerate(out.duals))
        assert not lp.verify(prog, lp.Optimal(out.point, out.value, bumped))
    # (0, 3) is feasible but not optimal: its value is below b . y
    assert not lp.verify(prog, lp.Optimal((F(0), F(3)), F(-3), out.duals))
    # right value and signs, but A^T y misses the objective on the free x
    assert not lp.verify(prog, lp.Optimal(out.point, out.value, (F(-1, 2), F(1, 2))))
    assert not lp.verify(prog, lp.Optimal(out.point, out.value))  # no duals at all
    assert not lp.verify(prog, lp.Optimal(out.point, out.value, out.duals + (F(0),)))

    # x >= 0: x <= 1, -x <= 0, maximize x; (1, 1) has the right value and
    # signs but A^T y = 0 < 1 on x
    cap = simple_lp([((1,), "<=", 1), ((-1,), "<=", 0)], objective=(1,), sense=lp.MAX)
    out = lp.solve(cap)
    assert lp.verify(cap, out)
    assert not lp.verify(cap, lp.Optimal(out.point, out.value, (F(1), F(1))))

    # x free: x <= 1 and -x >= -1 state one cap twice; (2, 1) balances the
    # objective and the value but has the wrong sign on the >= row, and
    # minimizing -x mirrors every sign
    for objective, sense, wrong in (((1,), lp.MAX, (F(2), F(1))),
                                    ((-1,), lp.MIN, (F(-2), F(-1)))):
        twice = lp.LinearProgram.create(1, [((1,), "<=", 1), ((-1,), ">=", -1)],
                                        objective=objective, sense=sense, nonneg=False)
        out = lp.solve(twice)
        assert lp.verify(twice, out)
        assert not lp.verify(twice, lp.Optimal(out.point, out.value, wrong))

    feasibility = simple_lp([((1, 1), "<=", 4)])
    found = lp.solve(feasibility)
    assert found.duals is None
    assert not lp.verify(feasibility, lp.Optimal(found.point, found.value, (F(0),)))
    assert not lp.verify(feasibility, lp.Optimal(found.point, F(1)))  # value is not 0


def test_verify_rejects_tampered_farkas():
    # x >= 0, z free: x + z <= -1 and z >= 0 force x <= -1; the other two
    # rows only give the tampered certificates something to combine
    prog = lp.LinearProgram.create(
        2, [((1, 1), "<=", -1), ((0, 1), ">=", 0), ((1, -1), "=", 5), ((-1, 0), "<=", 3)],
        nonneg=(True, False))
    good = (F(1), F(1), F(0), F(0))
    assert lp.verify(prog, lp.Infeasible(good))
    # each tampered certificate below fails exactly one condition
    assert not lp.verify(prog, lp.Infeasible((F(0), F(0), F(0), F(-1))))  # negative on a <= row
    assert not lp.verify(prog, lp.Infeasible((F(1), F(0), F(0), F(0))))  # z keeps weight 1
    assert not lp.verify(prog, lp.Infeasible((F(0), F(1), F(-1), F(0))))  # x gets weight -1
    assert not lp.verify(prog, lp.Infeasible((F(0),) * 4))  # right side 0 is not negative
    assert not lp.verify(prog, lp.Infeasible(good + (F(0),)))
    assert not lp.verify(prog, lp.Infeasible(good[:3]))
    no_rows = simple_lp([], objective=(1,), sense=lp.MAX, num_vars=1)
    assert not lp.verify(no_rows, lp.Infeasible(()))


def test_verify_multiplies_out_mixed_denominators():
    # maximize x/6 subject to x/3 <= 0: the dual 1/2 meets the coefficient
    # 1/3.  Moved by -1/6 to 1/3, A^T y = 1/9 falls short of 1/6; read over
    # the lcm 3 of the single denominators instead of 3 * 3, it would pass
    cap = simple_lp([((F(1, 3),), "<=", 0)], objective=(F(1, 6),), sense=lp.MAX)
    out = lp.solve(cap)
    assert out.point == (F(0),) and out.duals == (F(1, 2),)
    assert lp.verify(cap, out) and certificate_ok(cap, out)
    low = lp.Optimal(out.point, out.value, (F(1, 2) - F(1, 6),))
    assert not lp.verify(cap, low) and not certificate_ok(cap, low)
    high = lp.Optimal(out.point, out.value, (F(1, 2) + F(1, 6),))  # 2/9 >= 1/6, b . y = 0
    assert lp.verify(cap, high) and certificate_ok(cap, high)

    # x >= 3 through the row x/3 >= 1, against x <= 2: weights 1/2 and 1/6
    clash = simple_lp([((F(1, 3),), ">=", 1), ((1,), "<=", 2)])
    good = lp.Infeasible((F(1, 2), F(1, 6)))
    assert lp.verify(clash, good) and certificate_ok(clash, good)
    tampered = lp.Infeasible((F(1, 2) + F(1, 6), F(1, 6)))
    assert not lp.verify(clash, tampered) and not certificate_ok(clash, tampered)


def test_certificate_ok_rejects_tampered_rays():
    # x, y, w >= 0 and z free: y - 2x <= 1, x - w >= 0, z - x = 0
    def ray_lp(objective, sense):
        return lp.LinearProgram.create(
            4, [((-2, 1, 0, 0), "<=", 1), ((1, 0, -1, 0), ">=", 0), ((-1, 0, 0, 1), "=", 0)],
            objective=objective, sense=sense, nonneg=(True, True, True, False))

    def is_ray(prog, ray):
        return certificate_ok(prog, Unbounded(tuple(map(F, ray))))

    # maximize x: solve raises, the oracle finds a ray, and each tampered
    # ray below fails exactly one condition
    prog = ray_lp((1, 0, 0, 0), lp.MAX)
    with pytest.raises(InternalError, match="the objective is unbounded"):
        lp.solve(prog)
    assert unbounded_ray(prog) is not None
    assert is_ray(prog, (1, 1, 1, 1))
    assert not is_ray(prog, (1, -1, 1, 1))  # negative y
    assert not is_ray(prog, (1, 3, 1, 1))  # drifts up through the <= row
    assert not is_ray(prog, (1, 1, 2, 1))  # drifts down through the >= row
    assert not is_ray(prog, (1, 1, 1, 2))  # drifts off the = row
    assert not is_ray(prog, (0, 0, 0, 0))  # no gain
    assert not is_ray(prog, (1, 1, 1, 1, 1))  # one entry too many
    assert not is_ray(ray_lp(None, lp.FEASIBILITY), (1, 1, 1, 1))

    # x - y can move either way along rays; min mirrors the gain's sign
    for sense, better, worse in ((lp.MAX, (1, 0, 0, 1), (1, 2, 1, 1)),
                                 (lp.MIN, (1, 2, 1, 1), (1, 0, 0, 1))):
        prog = ray_lp((1, -1, 0, 0), sense)
        assert is_ray(prog, better)
        assert not is_ray(prog, (1, 1, 1, 1))  # zero gain
        assert not is_ray(prog, worse)


def test_determinism_bit_identical():
    rng = random.Random(5)
    for _ in range(40):
        prog = _random_program(rng)
        assert solved(prog) == solved(prog)


def test_lazy_path_matches_direct_value():
    # many redundant cap rows, of which row generation takes in a few; the
    # instance is feasible by construction (the all-ones point works)
    rng = random.Random(99)
    n = 6
    rows = []
    for _ in range(400):
        coeffs = tuple(F(rng.randint(0, 3)) for _ in range(n))
        if not any(coeffs):
            coeffs = (F(1),) * n
        rows.append((coeffs, "<=", F(sum(coeffs) + rng.randint(0, 3))))
    rows.append((tuple(F(1) for _ in range(n)), ">=", F(2)))
    objective = tuple(F(1) for _ in range(n))
    prog = lp.LinearProgram.create(n, rows, objective=objective, sense=lp.MAX)
    out = lp.solve(prog)
    assert isinstance(out, lp.Optimal)
    assert lp.verify(prog, out)

    direct = lp._Simplex(lp._Elimination(prog).reduced, list(range(len(prog.rows)))).run()
    assert isinstance(direct, lp.Optimal)
    direct_value = sum(c * x for c, x in zip(objective, direct.point))
    assert direct_value == out.value


def test_pivot_sequence_is_pinned(monkeypatch):
    # the (row, entering column) sequences that Bland's rule makes on the
    # full tableau, and the bytes they lead to; a change of pricing, tie
    # breaking or tableau layout moves them
    pivots = []
    pivot = lp._Simplex._pivot

    def recorded(self, r, t):
        pivots.append((r, self.nonbasic[t]))
        pivot(self, r, t)

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    monkeypatch.setattr(lp._Simplex, "_pivot", recorded)
    named = catalog.named_observables(catalog.bloch_polytope(32))
    compat.region_boundary_scan([named["pauli-x"], named["pauli-y"]],
                                compat.angular_directions(8))
    assert len(pivots) == 230
    assert digest(repr(pivots)) == (
        "986c8d20620bc4aa07414b6ee73e80727986958819837a3ab95f5561a7e8e16b")
    pivots.clear()
    cube = catalog.named_observables(catalog.even_logic_cube())
    compat.compat_index(cube["A"], cube["B"])
    assert len(pivots) == 31
    assert digest(repr(pivots)) == (
        "e218a4ed6f15c0b6fed7e2acf7bb13208813bfa3d378334d21df2eaefd5428f6")
    # criterion 4's membership programs at a few corner-simplex points, and
    # an incompatible and a compatible plain check
    pivots.clear()
    for point in ((F(1, 8), F(5, 8)), (F(1, 2), F(1, 2)), (F(3, 8), F(1, 4)), (F(0), F(1)),
                  (F(3, 4), F(1, 8))):
        assert isinstance(compat.region_membership([cube["A"], cube["B"]], point),
                          compat.Compatible)
    assert len(pivots) == 9
    assert digest(repr(pivots)) == (
        "93034f9548f6711ee3c376ce2a7f5230f3a92f6a019358e2231a2c2c39396708")
    square = catalog.named_observables(catalog.square_gbit())
    for pair, verdict, count, expected in (
            ("X Y", compat.Incompatible, 9,
             "9f5ddaf22b231992bc2a1a1a2884b211b64149d690769b127003cb80a0075e85"),
            ("D1 D2", compat.Compatible, 6,
             "52467e1c4ddadd8d4c439b5b952482886012366a0ef844b1ac2ab0972d417ea7")):
        pivots.clear()
        assert isinstance(compat.check_compatible([square[k] for k in pair.split()]), verdict)
        assert len(pivots) == count
        assert digest(repr(pivots)) == expected

    res = CliRunner().invoke(cli.main, ["region", "--theory", "bloch:32", "pauli-x", "pauli-y",
                                        "--directions", "8"])
    assert res.exit_code == 0
    assert digest(res.stdout) == (
        "4771e873d8077d6a7f1e0a65a1a0b914a897b12b8b2d935e4c1879aefaa10966")


def test_reduced_programs_are_pinned():
    # the presolve's integers on three family programs, as the dense
    # Gauss-Jordan into every row left them
    def reduced(prog):
        return repr(dense_program(lp._Elimination(prog).reduced))

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    ball = catalog.named_observables(catalog.bloch_polytope(32))
    scans = "".join(reduced(compat.build_scan_lp([ball["pauli-x"], ball["pauli-y"]], w))
                    for w in compat.angular_directions(8))
    assert digest(scans) == (
        "bf6cc6cc422d9dba016a0ac4db7a59d2ece3ddc386de6f15be5ac79a31cc454c")
    cube = catalog.named_observables(catalog.even_logic_cube())
    assert digest(reduced(compat.build_index_lp(cube["A"], cube["B"]))) == (
        "a467658d941156297ad0ff1c03f09f78323e44f97e8b8f2725b92837df487c5d")
    square = catalog.named_observables(catalog.square_gbit())
    assert digest(reduced(compat.build_joint_lp([square["X"], square["Y"]]))) == (
        "3d4f8b8afc60a2e0d0ed340a587616ccd31482a92480e2beb256ce8083173560")


def test_lazy_infeasible_certificate_covers_full_rows():
    n = 3
    rows = [((F(1), F(1), F(1)), ">=", F(10))]
    for i in range(300):
        rows.append(((F(1), F(0), F(0)), "<=", F(1)))
        rows.append(((F(0), F(1), F(0)), "<=", F(1)))
        rows.append(((F(0), F(0), F(1)), "<=", F(1)))
    prog = lp.LinearProgram.create(n, rows)
    out = lp.solve(prog)
    assert isinstance(out, lp.Infeasible)
    assert len(out.farkas) == len(prog.rows)
    assert lp.verify(prog, out)


def test_dump_format_round_trips_by_eye():
    prog = lp.LinearProgram.create(
        2,
        [((F(1, 3), 2), "<=", F(5, 2)), ((1, -1), "=", 0)],
        objective=(1, 0),
        sense=lp.MIN,
        nonneg=(True, False),
    )
    text = lp.lp_to_text(prog)
    lines = text.strip().split("\n")
    assert lines[0] == "vars 2"
    assert lines[1] == "bounds nonneg free"
    assert lines[2] == "minimize 1 0"
    assert lines[3] == "row 1/3 2 <= 5/2"
    assert lines[4] == "row 1 -1 = 0"


# ---------------------------------------------------------------------------
# presolve: free variables eliminated through equality rows

EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True, database=None)
small = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def programs_with_equalities(draw):
    """Programs whose first variable is free and whose first row is an
    equality, so that the presolve has something to eliminate."""
    n = draw(st.integers(1, 4))
    nonneg = (False,) + tuple(draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))
    rows = []
    for k in range(draw(st.integers(1, 5))):
        coeffs = tuple(draw(st.lists(small, min_size=n, max_size=n)))
        rel = "=" if k == 0 else draw(st.sampled_from(["=", "<=", ">="]))
        rows.append((coeffs, rel, F(draw(st.integers(-4, 4)), draw(st.integers(1, 2)))))
    if draw(st.booleans()):  # a box makes optima common
        for j in range(n):
            unit = tuple(F(int(j == k)) for k in range(n))
            rows.append((unit, "<=", F(draw(st.integers(1, 4)))))
            if not nonneg[j]:
                rows.append((unit, ">=", F(-draw(st.integers(1, 4)))))
    sense = draw(st.sampled_from([lp.MAX, lp.MIN, lp.FEASIBILITY]))
    objective = None
    if sense != lp.FEASIBILITY:
        objective = tuple(draw(st.lists(small, min_size=n, max_size=n)))
    return lp.LinearProgram.create(n, rows, objective=objective, sense=sense, nonneg=nonneg)


def split_free_variables(prog):
    """The same program with every free x_j written as x_j+ - x_j-, both
    nonnegative (x_j- appended at the end): nothing is left to eliminate."""
    free = [j for j, nn in enumerate(prog.nonneg) if not nn]

    def widen(row):
        return tuple(row) + tuple(-row[j] for j in free)

    rows = [(widen(r), rel, b) for r, rel, b in zip(prog.rows, prog.relations, prog.rhs)]
    objective = None if prog.objective is None else widen(prog.objective)
    return lp.LinearProgram.create(prog.num_vars + len(free), rows, objective=objective,
                                   sense=prog.sense, nonneg=True)


@EXAMPLES
@given(programs_with_equalities())
def test_presolve_matches_the_split_program(prog):
    out = solved(prog)
    split = split_free_variables(prog)
    assert not lp._Elimination(split).pivots
    reference = solved(split)
    assert type(out) is type(reference)
    if isinstance(out, lp.Optimal):
        assert out.value == reference.value


@EXAMPLES
@given(st.integers(1, 3), st.lists(st.integers(0, 3), min_size=1, max_size=3),
       st.integers(-3, 3), st.integers(1, 4), st.booleans())
def test_presolve_infeasible_through_eliminated_rows(chain, weights, b, gap, ineq_first):
    # x_1 - x_2 = 1, ..., x_k + c.y = b with x free and c, y >= 0 force
    # x_1 <= (k - 1) + b, and the last row demands x_1 >= (k - 1) + b + gap
    k, m = chain, len(weights)
    n = k + m
    rows = []
    for i in range(k - 1):
        rows.append((tuple(F(int(j == i) - int(j == i + 1)) for j in range(n)), "=", F(1)))
    rows.append((tuple(F(int(j == k - 1)) for j in range(k)) + tuple(map(F, weights)), "=", F(b)))
    cut = (tuple(F(int(j == 0)) for j in range(n)), ">=", F(k - 1 + b + gap))
    rows = [cut] + rows if ineq_first else rows + [cut]
    prog = lp.LinearProgram.create(n, rows, nonneg=(False,) * k + (True,) * m)
    assert len(lp._Elimination(prog).pivots) == k
    out = lp.solve(prog)
    assert isinstance(out, lp.Infeasible) and lp.verify(prog, out)
    assert all(y != 0 for y in out.farkas)  # every eliminated row carries weight


def test_presolve_drops_redundant_and_refutes_inconsistent_rows():
    rows = [((1, 1), "=", 1), ((2, 2), "=", 2), ((0, 1), "<=", 3)]
    prog = lp.LinearProgram.create(2, rows, objective=(0, 1), nonneg=(False, True))
    out = lp.solve(prog)
    assert out == lp.Optimal((F(-2), F(3)), F(3)) and lp.verify(prog, out)
    assert len(lp._Elimination(prog).reduced.rows) == 2  # the 0 = 0 row and the cap

    bad = lp.LinearProgram.create(2, [((1, 1), "=", 1), ((2, 2), "=", 3)],
                                  nonneg=(False, True))
    out = lp.solve(bad)
    assert isinstance(out, lp.Infeasible) and lp.verify(bad, out)
    assert out.farkas[0] != 0 and out.farkas[1] != 0


def test_presolve_unbounded_ray_through_eliminated_variable():
    # x free, y >= 0: x - y = 0, maximize x; the reduced program has no row
    prog = lp.LinearProgram.create(2, [((1, -1), "=", 0)], objective=(1, 0),
                                   nonneg=(False, True))
    assert lp._Elimination(prog).pivots == [(0, 0)]
    with pytest.raises(InternalError, match="the objective is unbounded"):
        lp.solve(prog)
    found = unbounded_ray(prog)
    assert found is not None and found.ray[0] == found.ray[1] > 0


def test_presolve_eliminates_every_variable():
    square = [((1, 1), "=", 3), ((1, -1), "=", 1)]
    prog = lp.LinearProgram.create(2, square, objective=(1, 0), nonneg=False)
    assert lp._Elimination(prog).reduced.num_vars == 0
    out = lp.solve(prog)
    assert out == lp.Optimal((F(2), F(1)), F(2)) and lp.verify(prog, out)

    capped = lp.LinearProgram.create(2, square + [((1, 0), ">=", 3)], nonneg=False)
    out = lp.solve(capped)
    assert isinstance(out, lp.Infeasible) and lp.verify(capped, out)

    # a one-observable family: the marginal equalities pin every cell
    theory = catalog.even_logic_cube()
    M = catalog.random_observable(theory, 3, 5)
    prog = compat.build_joint_lp([M])
    assert lp._Elimination(prog).reduced.num_vars == 0
    verdict = compat.check_compatible([M])
    assert isinstance(verdict, compat.Compatible)
    cells = [e.coeffs for e in verdict.witness.effects]
    assert witness_marginals_ok(cells, [M], [F(1)], theory.extreme_points, theory.unit)


@EXAMPLES
@given(programs_with_equalities())
def test_presolve_is_deterministic(prog):
    first, second = solved(prog), solved(prog)
    assert first == second
    if isinstance(first, lp.Optimal):
        assert first.duals == second.duals


# ---------------------------------------------------------------------------
# metamorphic relations: each rewrites a program into an equivalent one, so
# the status and the optimal value must not move


def _rebuild(prog, rows, columns=None):
    """``prog`` with the (coeffs, relation, rhs) ``rows``; ``columns``
    reorders the variables (row entries, bounds and objective alike)."""
    columns = range(prog.num_vars) if columns is None else columns

    def pick(values):
        return tuple(values[j] for j in columns)

    objective = None if prog.objective is None else pick(prog.objective)
    return lp.LinearProgram.create(prog.num_vars, [(pick(a), rel, b) for a, rel, b in rows],
                                   objective=objective, sense=prog.sense,
                                   nonneg=pick(prog.nonneg))


def _rows(prog):
    return list(zip(prog.rows, prog.relations, prog.rhs))


def permute_rows(prog, data):
    rows = _rows(prog)
    return _rebuild(prog, data.draw(st.permutations(rows)))


def scale_row(prog, data):
    rows = _rows(prog)
    i = data.draw(st.integers(0, len(rows) - 1))
    factor = data.draw(st.builds(F, st.integers(1, 6), st.integers(1, 6)))
    a, rel, b = rows[i]
    rows[i] = (tuple(factor * c for c in a), rel, factor * b)
    return _rebuild(prog, rows)


def negate_equality_row(prog, data):
    rows = _rows(prog)
    i = data.draw(st.sampled_from([k for k, (_, rel, _) in enumerate(rows) if rel == "="]))
    a, rel, b = rows[i]
    rows[i] = (tuple(-c for c in a), rel, -b)
    return _rebuild(prog, rows)


def duplicate_row(prog, data):
    rows = _rows(prog)
    copy = rows[data.draw(st.integers(0, len(rows) - 1))]
    rows.insert(data.draw(st.integers(0, len(rows))), copy)
    return _rebuild(prog, rows)


def permute_variables(prog, data):
    columns = data.draw(st.permutations(range(prog.num_vars)))
    return _rebuild(prog, _rows(prog), columns)


@pytest.mark.parametrize("transform", [permute_rows, scale_row, negate_equality_row,
                                       duplicate_row, permute_variables])
@EXAMPLES
@given(programs_with_equalities(), st.data())
def test_equivalent_programs_keep_status_and_value(transform, prog, data):
    changed = transform(prog, data)
    out, moved = solved(prog), solved(changed)
    assert type(out) is type(moved)
    assert isinstance(moved, Unbounded) or lp.verify(changed, moved)
    if isinstance(out, lp.Optimal):
        assert out.value == moved.value


# ---------------------------------------------------------------------------
# verify against a plain-Fraction oracle


coprime = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 7]))


@st.composite
def coprime_programs(draw):
    """Small programs whose entries have denominators 1, 2, 3, 5 or 7, so
    that products of entries and multipliers need denominators that no
    single entry has."""
    n = draw(st.integers(1, 3))
    nonneg = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rows = [(tuple(draw(st.lists(coprime, min_size=n, max_size=n))),
             draw(st.sampled_from(["<=", "=", ">="])), draw(coprime))
            for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):  # a box makes optima common
        for j in range(n):
            unit = tuple(F(int(j == k)) for k in range(n))
            rows.append((unit, "<=", F(draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3])))))
            if not nonneg[j]:
                rows.append((unit, ">=", F(-draw(st.integers(1, 3)))))
    sense = draw(st.sampled_from([lp.MAX, lp.MIN, lp.FEASIBILITY]))
    objective = None
    if sense != lp.FEASIBILITY:
        objective = tuple(draw(st.lists(coprime, min_size=n, max_size=n)))
    return lp.LinearProgram.create(n, rows, objective=objective, sense=sense, nonneg=nonneg)


def _perturbed(prog, out, data):
    """``out`` with one entry of its certificate moved by a small rational;
    a moved point keeps its value or takes its new ``c . x``."""
    def bump(values):
        values = list(values)
        k = data.draw(st.integers(0, len(values) - 1))
        values[k] += data.draw(coprime.filter(bool))
        return tuple(values)

    if isinstance(out, lp.Infeasible):
        return lp.Infeasible(bump(out.farkas))
    if out.duals is not None and data.draw(st.booleans()):
        return lp.Optimal(out.point, out.value, bump(out.duals))
    point, value = bump(out.point), out.value
    if prog.objective is not None and data.draw(st.booleans()):
        value = sum(c * x for c, x in zip(prog.objective, point))
    return lp.Optimal(point, value, out.duals)


@EXAMPLES
@given(coprime_programs(), st.data())
def test_verify_agrees_with_the_fraction_oracle(prog, data):
    out = solved(prog)
    assert certificate_ok(prog, out)
    if isinstance(out, Unbounded):
        return  # verify checks no rays: solve returns none
    for _ in range(3):
        moved = _perturbed(prog, out, data)
        assert lp.verify(prog, moved) == certificate_ok(prog, moved)


# ---------------------------------------------------------------------------
# the elimination against a dense plain-Fraction Gauss-Jordan


@st.composite
def elimination_programs(draw):
    """Programs with free and nonnegative variables and mixed
    denominators, whose rows may be combinations of earlier rows, zero on
    every free variable or zero throughout, with or without an
    objective."""
    n = draw(st.integers(1, 5))
    nonneg = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["plain", "combination", "no free", "zero"]))
        rel = draw(st.sampled_from(["=", "=", "<=", ">="]))
        b = draw(coprime)
        if kind == "combination" and rows:
            (a1, _, b1), (a2, _, b2) = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f, g = draw(coprime), draw(coprime)
            coeffs = tuple(f * x + g * y for x, y in zip(a1, a2))
            b = f * b1 + g * b2
        elif kind == "no free":
            coeffs = tuple(draw(coprime) if nn else F(0) for nn in nonneg)
        elif kind == "zero":
            coeffs = (F(0),) * n
        else:
            coeffs = tuple(draw(st.lists(coprime, min_size=n, max_size=n)))
        rows.append((coeffs, rel, b))
    sense = draw(st.sampled_from([lp.MAX, lp.MIN, lp.FEASIBILITY]))
    objective = None
    if sense != lp.FEASIBILITY:
        objective = tuple(draw(st.lists(coprime, min_size=n, max_size=n)))
    return lp.LinearProgram.create(n, rows, objective=objective, sense=sense, nonneg=nonneg)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(elimination_programs())
def test_elimination_matches_the_dense_oracle(prog):
    elimination = lp._Elimination(prog)
    reduced, pivots, kept_vars, kept_rows = reduce_program(prog)
    assert tuple(dense_program(elimination.reduced)) == reduced
    # the dense form cannot show a stored zero: each sparse row holds only
    # nonzero integers, at columns up to the right side's, in lowest terms
    # over a positive denominator
    width = elimination.reduced.num_vars + 1
    for nums, den in elimination.reduced.rows:
        assert all(type(a) is int and a and j in range(width) for j, a in nums.items())
        assert type(den) is int and den > 0 and math.gcd(den, *nums.values()) == 1
    assert elimination.pivots == pivots
    assert elimination.kept_vars == kept_vars
    assert elimination.kept_rows == kept_rows


@st.composite
def scan_programs(draw):
    """Feasible programs with free variables, equality rows to eliminate
    them through and up to a dozen rows of small entries, each holding at
    a drawn point with a small slack, so that the rounds of row generation
    meet several violated rows, some of them tied."""
    n = draw(st.integers(1, 4))
    nonneg = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    small = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 1, 2]))
    # away from 0, where the first working set's point tends to sit
    point = [F(draw(st.integers(1, 3)) * (1 if nn or draw(st.booleans()) else -1))
             for nn in nonneg]
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        coeffs = tuple(draw(st.lists(small, min_size=n, max_size=n)))
        rel = draw(st.sampled_from(["=", "<=", ">="]))
        slack = 0 if rel == "=" else abs(draw(small))
        rows.append((coeffs, rel, sum(a * x for a, x in zip(coeffs, point))
                     + (slack if rel == "<=" else -slack)))
    for j in range(n):  # a box around the point keeps every objective bounded
        unit = tuple(F(int(j == k)) for k in range(n))
        rows += [(unit, "<=", point[j] + 2), (unit, ">=", point[j] - 2)]
    sense = draw(st.sampled_from([lp.MAX, lp.MIN, lp.FEASIBILITY]))
    objective = None
    if sense != lp.FEASIBILITY:
        objective = tuple(draw(st.lists(small, min_size=n, max_size=n)))
    return lp.LinearProgram.create(n, rows, objective=objective, sense=sense, nonneg=nonneg)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scan_programs(), st.integers(1, 3))
def test_stored_row_scan_matches_the_reduced_row_scan(prog, batch):
    # every round of row generation, with a batch small enough that ties
    # and the cut matter: the stored rows that the lifted point violates
    # are the reduced rows that the reduced point violates, in the same
    # order and with the same exact gaps, and the round takes in the rows
    # that the reduced-row scan picks
    elimination = lp._Elimination(prog)
    rounds, scans = [], []
    gaps = lp._gaps

    class Recorded(lp._Simplex):
        def run(self):
            out = super().run()
            rounds.append((self.row_indices, out))
            return out

    def recorded_gaps(program, ints, rows):
        found = list(gaps(program, ints, rows))
        scans.append((-ints[-1], found))
        return iter(found)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_Simplex", Recorded)
        patch.setattr(lp, "_gaps", recorded_gaps)
        patch.setattr(lp, "_LAZY_BATCH", batch)
        assert isinstance(lp._generate_rows(elimination), lp.Optimal)  # feasible and boxed
    scans = iter(scans)
    for r, (working, out) in enumerate(rounds):
        if not isinstance(out, lp.Optimal):
            continue
        den, found = next(scans)
        expected, picks = reduced_row_scan(elimination.reduced, out.point, set(working), batch)
        assert [(F(abs(gap), prog.entries[i][1] * den), i) for gap, i in found] == [
            (gap, elimination.kept_rows[k]) for gap, k in expected]
        if picks:
            assert rounds[r + 1][0] == sorted({*working, *picks})
        else:
            assert r == len(rounds) - 1
    assert next(scans, None) is None


# ---------------------------------------------------------------------------
# rows given as {column: value} mappings, and the one stored form


@st.composite
def rows_in_both_forms(draw):
    """A program's arguments to ``create`` with dense rows, and the same
    rows as mappings: nonzero entries in any order, some zeros listed."""
    n = draw(st.integers(1, 5))
    nonneg = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    dense, mapped = [], []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = tuple(draw(st.lists(coprime, min_size=n, max_size=n)))
        rel, b = draw(st.sampled_from(["<=", "=", ">="])), draw(coprime)
        listed = [j for j, c in enumerate(coeffs) if c or draw(st.booleans())]
        listed = draw(st.permutations(listed))
        dense.append((coeffs, rel, b))
        mapped.append(({j: coeffs[j] for j in listed}, rel, b))
    sense = draw(st.sampled_from([lp.MAX, lp.MIN, lp.FEASIBILITY]))
    objective = None
    if sense != lp.FEASIBILITY:
        objective = tuple(draw(st.lists(coprime, min_size=n, max_size=n)))
    return n, dense, mapped, dict(objective=objective, sense=sense, nonneg=nonneg)


def integer_row(coeffs, b):
    """A dense row and its right side as the stored integer row: the
    nonzero values over their least common denominator, the right side at
    the column after the last variable."""
    values = [F(c) for c in (*coeffs, b)]
    den = math.lcm(*(v.denominator for v in values))
    return tuple((j, int(v * den)) for j, v in enumerate(values) if v), den


@EXAMPLES
@given(rows_in_both_forms())
def test_mapping_rows_give_the_same_program(case):
    n, dense, mapped, options = case
    prog = lp.LinearProgram.create(n, dense, **options)
    same = lp.LinearProgram.create(n, mapped, **options)
    assert same == prog
    assert lp.lp_to_text(same) == lp.lp_to_text(prog)
    # each stored row holds the nonzeros of the dense row and its right
    # side as integers over one denominator in lowest terms, which the
    # derived views give back exactly, and a copy keeps them
    assert prog.entries == tuple(integer_row(coeffs, b) for coeffs, _, b in dense)
    for pairs, den in prog.entries:
        assert all(type(a) is int for _, a in pairs)
        assert type(den) is int and den > 0 and math.gcd(den, *(a for _, a in pairs)) == 1
    assert prog.rows == tuple(tuple(map(F, coeffs)) for coeffs, _, _ in dense)
    assert prog.rhs == tuple(F(b) for _, _, b in dense)
    assert same.entries == prog.entries == dataclasses.replace(same).entries
    out, again = solved(prog), solved(same)
    assert out == again
    if isinstance(out, lp.Optimal):
        assert out.duals == again.duals


def test_rows_read_back_the_given_right_sides():
    prog = lp.LinearProgram.create(2, [({0: 1}, "<=", F(7, 3)), ([F(1, 2), 0], "=", 0),
                                       ({1: "-2/5"}, ">=", "-4"), ((3, 6), "<=", "3/2")])
    assert prog.rhs == (F(7, 3), F(0), F(-4), F(3, 2))
    assert prog.entries == ((((0, 3), (2, 7)), 3), (((0, 1),), 2),
                            (((1, -2), (2, -20)), 5), (((0, 6), (1, 12), (2, 3)), 2))
    assert prog.rows == ((F(1), F(0)), (F(1, 2), F(0)), (F(0), F(-2, 5)), (F(3), F(6)))


def test_mapping_rows_refuse_columns_outside_the_program():
    # column 2 is where the right side is stored: with a right side of 0, a
    # stray entry there must still be refused, not read as the right side
    for coeffs in ({2: 1}, {0: 1, 2: 5}):
        with pytest.raises(InputError):
            lp.LinearProgram.create(2, [(coeffs, "<=", 0)])
    for coeffs in ({2: 1}, {-1: 1}, {"0": 1}, {0.0: 1}, {True: 1}, {2: 0}, {0: 1, 2: 0}):
        with pytest.raises(InputError):
            lp.LinearProgram.create(2, [(coeffs, "<=", 1)])
    # built directly or copied, a row's pairs are checked the same way:
    # unsorted, repeated, out of range, not an int column (a bool
    # included), zero-valued, a value that is not an int (the right side's
    # included), a denominator that is not a positive int, a row not in
    # lowest terms
    good = lp.LinearProgram.create(2, [({0: 1}, "<=", 1)])
    assert good.entries == ((((0, 1), (2, 1)), 1),)
    bad_rows = [((pairs, 1),) for pairs in (
        ((1, 1), (0, 1)), ((0, 1), (0, 2)), ((2, 1), (0, 1)), ((3, 1),), ((-1, 1),),
        (("0", 1),), ((True, 1),), ((0, 0),), ((0, 1), (1, 0)), ((0, 1), (2, 0)),
        ((0, 0.5),), ((0, "1/2"),), ((0, F(1)),), ((0, F(1, 2)),), ((0, True),),
        ((2, 0.5),), ((2, "1/2"),), ((2, F(1)),))]
    bad_rows += [((((0, 1),), den),) for den in (0, -1, -3, 1.0, F(1), True, "1", None)]
    bad_rows += [((((0, 2), (2, 4)), 2),), ((((0, 3),), 6),), ((((0, -2), (1, 4)), 2),)]
    for entries in bad_rows:
        with pytest.raises(InputError):
            lp.LinearProgram(2, (True, True), entries, ("<=",), None, lp.FEASIBILITY)
        with pytest.raises(InputError):
            dataclasses.replace(good, entries=entries)
    with pytest.raises(InputError):  # one relation per row
        dataclasses.replace(good, entries=good.entries * 2)
    for bad in (0.5, "1/2"):
        with pytest.raises(InputError):
            dataclasses.replace(good, objective=(F(1), bad), sense=lp.MAX)
    with pytest.raises(TypeError):  # the right sides live in the rows
        dataclasses.replace(good, rhs=(F(1),))
    # the variable count is an int, not a bool, and each bound a bool: one
    # variable whose right side sits at column 1 is a program, and True
    # counts it no more than a truthy string or 1 bounds it
    one = lp.LinearProgram(1, (True,), ((((0, 1), (1, 1)), 1),), ("<=",), None, lp.FEASIBILITY)
    for bad in (dict(num_vars=True), dict(nonneg=("no",)), dict(nonneg=(1,))):
        with pytest.raises(InputError):
            dataclasses.replace(one, **bad)
    with pytest.raises(InputError):
        dataclasses.replace(good, nonneg=("no", 0))


def test_rows_given_to_create_encoded_are_checked_like_every_row():
    # a family program hands create its positivity rows already encoded;
    # they follow the other rows and pass the same checks
    good = (((0, 1), (1, -2)), 3)
    prog = lp.LinearProgram.create(2, [({0: 1}, "<=", 1)], entries=(good,), relations=(">=",))
    assert prog.entries == ((((0, 1), (2, 1)), 1), good)
    assert prog.relations == ("<=", ">=")
    assert prog.rows[1] == (F(1, 3), F(-2, 3)) and prog.rhs[1] == 0
    for bad in ((((0, 0), (1, 1)), 1),  # a zero integer
                (((1, 1), (0, 1)), 1), (((0, 1), (0, 2)), 1),  # columns out of order
                (((0, 1), (3, 1)), 1),  # a column past num_vars
                (((0, 2), (1, 4)), 2), (((0, 3),), 6),  # not in lowest terms
                (((0, True), (1, 1)), 1), (((True, 1),), 1), (((0, 1),), True),  # bools
                (((0, 1),), 0), (((0, 1),), -1)):  # a denominator <= 0
        with pytest.raises(InputError):
            lp.LinearProgram.create(2, [({0: 1}, "<=", 1)], entries=(bad,), relations=(">=",))
    with pytest.raises(InputError):  # one relation per row
        lp.LinearProgram.create(2, [({0: 1}, "<=", 1)], entries=(good,))


def test_stage_two_reduces_only_the_rows_that_enter(monkeypatch):
    # a kept row is reduced the first time row generation takes it in:
    # counted by wrapping the substitution from outside, the way the pivot
    # pins wrap _Simplex._pivot
    substitute, start = lp._substitute, lp._Simplex.__init__
    reduced, taken = [], set()

    def counted(row, place):
        reduced.append(row)
        return substitute(row, place)

    def recorded(self, program, rows):
        taken.update(rows)
        start(self, program, rows)

    monkeypatch.setattr(lp, "_substitute", counted)
    monkeypatch.setattr(lp._Simplex, "__init__", recorded)
    named = catalog.named_observables(catalog.bloch_polytope(32))
    counts = []
    for w in compat.angular_directions(8):
        prog = compat.build_scan_lp([named["pauli-x"], named["pauli-y"]], w)
        kept = lp._Elimination(prog).reduced
        equalities = kept.relations.count("=")
        reduced.clear()
        taken.clear()
        lp.solve(prog)
        # the objective, then each kept equality row and each inequality
        # row ever taken in, once
        assert len(reduced) == 1 + len(taken)
        assert len({id(row) for row in reduced}) == len(reduced)
        assert equalities + len([k for k in taken if kept.relations[k] != "="]) == len(taken)
        assert len(taken) < len(kept.rows) == 134
        counts.append(len(taken))
    assert counts == [6, 37, 45, 55, 50, 30, 9, 6]


def test_verify_reads_the_rows_of_a_replaced_copy():
    prog = lp.LinearProgram.create(2, [({0: 1, 1: 1}, "<=", 4)], objective=(1, 1))
    out = lp.solve(prog)
    assert out.value == 4 and lp.verify(prog, out)
    assert prog.entries == ((((0, 1), (1, 1), (2, 4)), 1),)
    tighter = dataclasses.replace(prog, entries=((((0, 2), (1, 2), (2, 4)), 1),))
    assert tighter.rows == ((F(2), F(2)),) and tighter.rhs == (F(4),)
    assert not lp.verify(tighter, out)  # 2x + 2y = 8 > 4
    assert lp.verify(dataclasses.replace(tighter, entries=prog.entries), out)
    # the same row over 3: the point still holds, and the dual must be 3
    thirds = dataclasses.replace(prog, entries=((((0, 1), (1, 1), (2, 4)), 3),))
    assert thirds.rows == ((F(1, 3), F(1, 3)),) and thirds.rhs == (F(4, 3),)
    assert not lp.verify(thirds, out)
    again = lp.solve(thirds)
    assert again == out and again.duals == (F(3),) and lp.verify(thirds, again)
    assert not lp.verify(prog, again)  # b . y = 12


def test_solve_and_verify_never_read_the_dense_rows(monkeypatch):
    square = catalog.named_observables(catalog.square_gbit())
    cube = catalog.named_observables(catalog.even_logic_cube())
    ball = catalog.named_observables(catalog.bloch_polytope(8))
    xy = [square["X"], square["Y"]]
    programs = {
        "scan": compat.build_scan_lp([ball["pauli-x"], ball["pauli-y"]], (F(1, 3), F(2, 3))),
        "index": compat.build_index_lp(cube["A"], cube["B"]),
        "membership": compat.build_region_lp(xy, [F(1, 2)] * 2),
        "check": compat.build_joint_lp(xy),
    }

    def refuse(program):
        raise AssertionError("dense rows were read")

    monkeypatch.setattr(lp.LinearProgram, "rows", property(refuse))
    with pytest.raises(AssertionError):
        programs["check"].rows
    outcomes = {kind: lp.solve(prog) for kind, prog in programs.items()}
    assert {kind: type(out) for kind, out in outcomes.items()} == {
        "scan": lp.Optimal, "index": lp.Optimal, "membership": lp.Optimal,
        "check": lp.Infeasible}
    for kind, out in outcomes.items():
        assert lp.verify(programs[kind], out)
    # validate_state solves one program per call: a feasible one, an infeasible one
    theory = catalog.square_gbit()
    assert model.validate_state(theory, (1, 0, 0)).weights is not None
    with pytest.raises(HullRejection):
        model.validate_state(theory, (1, 2, 0))


# ---------------------------------------------------------------------------
# one stored column per free variable, against the two-column simplex


@st.composite
def reduced_programs(draw):
    """Programs in the solver's reduced form, sparse rows included, many of
    whose variables are free, with a subset of their rows as the working
    set."""
    n = draw(st.integers(1, 5))
    nonneg = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rows, relations = [], []
    for _ in range(draw(st.integers(1, 7))):
        nums = draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1))
        rows.append(({j: a for j, a in enumerate(nums) if a}, draw(st.integers(1, 3))))
        relations.append(draw(st.sampled_from(["<=", "=", ">="])))
    sense = draw(st.sampled_from([lp.MAX, lp.MIN, lp.FEASIBILITY]))
    objective = None
    if sense != lp.FEASIBILITY:
        objective = (draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                     draw(st.integers(1, 3)))
    working = sorted(draw(st.sets(st.integers(0, len(rows) - 1), min_size=1)))
    return lp._Program(n, nonneg, tuple(rows), tuple(relations), objective, sense), working


class _RecordedSimplex(lp._Simplex):
    def __init__(self, *args):
        super().__init__(*args)
        self.pivots = []

    def _pivot(self, r, t):
        self.pivots.append((r, self.nonbasic[t]))
        super()._pivot(r, t)


def _as_tuple(out):
    """An outcome as a tuple; the solver's run returns None exactly where
    the oracle returns its ray, and both read as ``("Unbounded",)``."""
    if isinstance(out, lp.Optimal):
        return ("Optimal", out.point, out.value, out.duals)
    if isinstance(out, lp.Infeasible):
        return ("Infeasible", out.farkas)
    assert out is None or isinstance(out, Unbounded), out
    return ("Unbounded",)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reduced_programs())
def test_folded_free_columns_pivot_like_the_two_column_simplex(case):
    prog, working = case
    simplex, reference = _RecordedSimplex(prog, working), TwoColumnSimplex(prog, working)
    out, expected = _as_tuple(simplex.run()), reference.run()
    assert out == (expected[:1] if expected[0] == "Unbounded" else expected)
    assert simplex.pivots == reference.pivots


# ---------------------------------------------------------------------------
# stored and derived rows, against the full condensed tableau


def _tableau(simplex, rows):
    """What a pivot leaves: delta, basis, slot labels, one row per position
    and the reduced costs, each copied."""
    obj1 = None if simplex.obj1 is None else list(simplex.obj1)
    return (simplex.delta, list(simplex.basis), list(simplex.nonbasic),
            [list(row) for row in rows], list(simplex.obj2), obj1)


class _FullTableauOracle(CondensedSimplex):
    def __init__(self, *args):
        super().__init__(*args)
        self.tableaux = [_tableau(self, self.rows)]

    def _pivot(self, r, t):
        super()._pivot(r, t)
        self.tableaux.append(_tableau(self, self.rows))


class _LockstepSimplex(lp._Simplex):
    """The solver's simplex, whose every tableau (after set-up, after each
    pivot and at the end) must equal the oracle's on the same rows: the
    stored row of each basic structural column, and the row of each basic
    slack or artificial built in full.  The oracle runs first, so a
    tableau that differs fails at once, before it can lead anywhere."""

    def __init__(self, *args):
        super().__init__(*args)
        oracle = _FullTableauOracle(self.lp, self.row_indices)
        self.expected = _as_tuple(oracle.run())
        self.tableaux = oracle.tableaux + [_tableau(oracle, oracle.rows)]
        self.step = 0
        self._compare()

    def _compare(self):
        structural = [c for c in self.basis if c < self.n_struct]
        assert sorted(self.rows) == sorted(structural)
        assert len(self.rows) <= self.lp.num_vars
        rows = [self.rows[c] if c < self.n_struct else self._derived(r)
                for r, c in enumerate(self.basis)]
        assert self.step < len(self.tableaux), "more pivots than the oracle"
        assert _tableau(self, rows) == self.tableaux[self.step], f"tableau {self.step} differs"
        self.step += 1

    def _pivot(self, r, t):
        super()._pivot(r, t)
        self._compare()

    def run(self):
        out = super().run()
        assert self.step == len(self.tableaux) - 1, "fewer pivots than the oracle"
        self._compare()
        assert _as_tuple(out) == self.expected
        return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reduced_programs())
def test_stored_and_derived_rows_equal_the_full_tableau(case):
    prog, working = case
    _LockstepSimplex(prog, working).run()


def test_family_programs_keep_the_full_tableau(monkeypatch):
    # every round of row generation on the programs whose pivots are
    # pinned above: a region scan and a cube index
    pivots = []

    class Counted(_LockstepSimplex):
        def run(self):
            out = super().run()
            pivots.append(len(self.tableaux) - 2)  # less set-up and end
            return out

    monkeypatch.setattr(lp, "_Simplex", Counted)
    named = catalog.named_observables(catalog.bloch_polytope(32))
    compat.region_boundary_scan([named["pauli-x"], named["pauli-y"]],
                                compat.angular_directions(8))
    assert sum(pivots) == 230
    pivots.clear()
    cube = catalog.named_observables(catalog.even_logic_cube())
    compat.compat_index(cube["A"], cube["B"])
    assert sum(pivots) == 31
