"""Unit and property tests for the joint-measurability analysis."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ptcompat import catalog, compat, lp, model
from ptcompat.errors import HullRejection, InputError, InternalError
from oracles import bisect_noise_threshold, dichotomic_pair_compatible, witness_marginals_ok

F = Fraction


def small_theories():
    return [
        catalog.classical_simplex(2),
        catalog.classical_simplex(3),
        catalog.square_gbit(),
        catalog.even_logic_cube(),
        catalog.bloch_octahedron(),
    ]


def rand_pair(theory, seed, outcomes=2):
    return (
        catalog.random_observable(theory, outcomes, compat.pair_seed(seed, 0, 0)),
        catalog.random_observable(theory, outcomes, compat.pair_seed(seed, 0, 1)),
    )


def rand_distribution(rng, size):
    cuts = sorted(rng.randint(0, 24) for _ in range(size - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(F(c - prev, 24))
        prev = c
    parts.append(F(24 - prev, 24))
    return model.Distribution(tuple(parts))


def membership_one_sided(M, N, t):
    verdict = compat.region_membership([M, N], (F(1), t))
    return isinstance(verdict, compat.Compatible)


# ---------------------------------------------------------------------------
# joint grid plumbing


def test_single_axis_program_pins_the_observable():
    t = catalog.square_gbit()
    M = catalog.square_gbit_observables(t)["D1"]
    prog = compat.build_joint_lp([M])
    out = lp.solve(prog)
    assert isinstance(out, lp.Optimal)
    d = t.dim
    cells = [tuple(out.point[i * d:(i + 1) * d]) for i in range(len(M))]
    assert cells == [e.coeffs for e in M.effects]


def test_product_joint_with_trivial_and_marginals():
    t = catalog.even_logic_cube()
    M = catalog.even_logic_observables(t)["A"]
    p = model.Distribution.make(["1/4", "3/4"])
    T = model.make_trivial(t, p, ("y", "n"))
    product = compat.JointObservable(
        t,
        (T.outcomes, M.outcomes),
        tuple(
            model.Effect(t, tuple(pi * c for c in eff.coeffs))
            for pi in p.probs
            for eff in M.effects
        ),
    )
    assert compat.marginal(product, 0) == T
    assert compat.marginal(product, 1) == M
    verdict = compat.check_compatible([M, T])
    assert isinstance(verdict, compat.Compatible)


def test_diagonal_self_joint():
    t = catalog.square_gbit()
    M = catalog.square_gbit_observables(t)["X"]
    zero = model.Effect(t, (F(0),) * t.dim)
    diag = compat.JointObservable(
        t,
        (M.outcomes, M.outcomes),
        tuple(
            M.effects[i] if i == j else zero
            for i in range(len(M))
            for j in range(len(M))
        ),
    )
    assert compat.marginal(diag, 0) == M
    assert compat.marginal(diag, 1) == M
    assert isinstance(compat.check_compatible([M, M]), compat.Compatible)



def _trit_pair():
    # two observables on a classical trit with vertices 2*e_r, so that the
    # unit is (1/2, 1/2, 1/2); their product joint is interior (strictly
    # between 0 and 1) at every vertex, and the denominators are mixed
    t = model.TheorySpace.make("trit", 3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)], ["1/2"] * 3)

    def dichotomy(labels, values):  # the first effect's values at the vertices
        first = tuple(v / 2 for v in values)
        second = tuple(u - c for u, c in zip(t.unit, first))
        return model.Observable(t, labels, (model.Effect(t, first), model.Effect(t, second)))

    M = dichotomy(("a", "b"), (F(1, 3), F(1, 2), F(1, 5)))
    N = dichotomy(("c", "d"), (F(1, 7), F(3, 4), F(1, 2)))
    # the joint cell (i, j) takes the value M_i * N_j at every vertex
    cells = [tuple(2 * a * b for a, b in zip(e.coeffs, f.coeffs))
             for e in M.effects for f in N.effects]
    return t, M, N, cells


def test_sums_to_the_unit_are_checked_exactly():
    t, M, N, cells = _trit_pair()
    joint = compat.JointObservable(t, (M.outcomes, N.outcomes),
                                   tuple(model.Effect(t, c) for c in cells))
    assert compat.marginal(joint, 0) == M and compat.marginal(joint, 1) == N
    tiny = F(1, 10**30)
    off = [cells[0]] + cells[1:]
    off[0] = (cells[0][0] + tiny,) + cells[0][1:]
    with pytest.raises(InputError, match="joint effects must sum exactly to the unit"):
        compat.JointObservable(t, (M.outcomes, N.outcomes), tuple(model.Effect(t, c) for c in off))
    short = model.Effect(t, (M.effects[1].coeffs[0] - tiny,) + M.effects[1].coeffs[1:])
    with pytest.raises(InputError, match="effects must sum exactly to the unit functional"):
        model.Observable(t, ("a", "b"), (M.effects[0], short))


def test_family_witness_checks_every_marginal():
    t, M, N, cells = _trit_pair()
    grid = compat._Grid([M, N])
    sharp = [compat._SHARP] * 2
    point = [c for cell in cells for c in cell]
    witness = compat._family_witness(grid, sharp, point)
    assert compat.marginal(witness.joint, 0) == M and compat.marginal(witness.joint, 1) == N
    # move a little weight between two cells: the cell sum stays the unit,
    # the marginal along the other axis breaks
    tiny = F(1, 10**30)
    for other in (1, 2):  # cell (0, 1) breaks axis 1, cell (1, 0) axis 0
        moved = list(point)
        moved[0] += tiny
        moved[other * t.dim] -= tiny
        with pytest.raises(InternalError, match="marginal equality"):
            compat._family_witness(grid, sharp, moved)
    # a noisy axis: a tampered sharpness s moves the noisy target
    out = lp.solve(compat.build_index_lp(M, N))
    _, scale, _ = grid.layout(compat._INDEX_AXES)
    witness = compat._family_witness(grid, compat._INDEX_AXES, out.point)
    assert witness.sharpness[1] == out.point[scale]
    tampered = list(out.point)
    tampered[scale] -= tiny
    with pytest.raises(InternalError, match="marginal equality"):
        compat._family_witness(grid, compat._INDEX_AXES, tampered)

def test_compatible_witness_marginals_every_axis():
    for theory in small_theories():
        M, N = rand_pair(theory, 5)
        verdict = compat.check_compatible([M, N])
        if isinstance(verdict, compat.Compatible):
            assert compat.marginal(verdict.witness, 0) == M
            assert compat.marginal(verdict.witness, 1) == N
        else:
            assert lp.verify(compat.build_joint_lp([M, N]), verdict.certificate)


def test_theory_mismatch_rejected():
    M = catalog.even_logic_observables(catalog.even_logic_cube())["A"]
    N = catalog.square_gbit_observables(catalog.square_gbit())["X"]
    with pytest.raises(InputError):
        compat.check_compatible([M, N])


def test_marginal_axis_out_of_range():
    t = catalog.square_gbit()
    M = catalog.square_gbit_observables(t)["X"]
    verdict = compat.check_compatible([M, M])
    with pytest.raises(InputError):
        compat.marginal(verdict.witness, 2)


# ---------------------------------------------------------------------------
# one family program behind every question

DATA = Path(__file__).parent / "data"
EXAMPLES = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def functions_of_one(theory, seed):
    M = catalog.random_observable(theory, 3, seed)
    f = model.OutcomeMap.make({"0": "p", "1": "q", "2": "q"})
    g = model.OutcomeMap.make({"0": "u", "1": "u", "2": "v"})
    return model.post_process(M, f), model.post_process(M, g)


# seeded random pairs (mostly incompatible off the simplices) and pairs
# of functions of one observable (always compatible)
seeded_pairs = st.builds(
    lambda make, theory, seed: make(theory, seed),
    st.sampled_from([rand_pair, functions_of_one]),
    st.sampled_from(small_theories()),
    st.integers(0, 10**6),
)
eighths = st.integers(0, 8).map(lambda i: F(i, 8))


def cells(joint):
    return tuple(c for e in joint.effects for c in e.coeffs)


@EXAMPLES
@given(seeded_pairs)
def test_plain_membership_and_index_agree_at_full_sharpness(pair):
    pair = list(pair)
    plain = isinstance(compat.check_compatible(pair), compat.Compatible)
    member = isinstance(compat.region_membership(pair, (1, 1)), compat.Compatible)
    assert plain == member == (compat.compat_index(*pair).lambda_star == 1)
    # sharp membership axes carry no noise block, so this is the same program
    assert compat.build_region_lp(pair, (1, 1)) == compat.build_joint_lp(pair)


@EXAMPLES
@given(seeded_pairs, st.tuples(eighths, eighths), eighths)
def test_every_question_is_the_solve_of_its_public_program(pair, point, w1):
    pair = list(pair)

    def same_verdict(verdict, out):
        if isinstance(out, lp.Infeasible):
            return verdict == compat.Incompatible(out)
        joint = cells(verdict.witness)
        return joint == out.point[:len(joint)]

    assert same_verdict(compat.check_compatible(pair), lp.solve(compat.build_joint_lp(pair)))
    assert same_verdict(compat.region_membership(pair, point),
                        lp.solve(compat.build_region_lp(pair, point)))

    result = compat.compat_index(*pair)
    out = lp.solve(compat.build_index_lp(*pair))
    joint = cells(result.joint)
    assert (result.lambda_star, joint) == (out.value, out.point[:len(joint)])

    direction = (w1, 1 - w1)
    (sample,) = compat.region_boundary_scan(pair, [direction])
    out = lp.solve(compat.build_scan_lp(pair, direction))
    joint = cells(sample.joint)
    assert (sample.reach, joint) == (out.value, out.point[:len(joint)])


def test_index_and_scan_program_layouts_are_pinned():
    # certificates index these rows and columns, so the layout must not drift
    square = catalog.square_gbit_observables(catalog.square_gbit())
    text = lp.lp_to_text(compat.build_index_lp(square["X"], square["D1"]))
    assert text == (DATA / "index_gbit_square_X_D1.lp").read_text()
    cube = catalog.even_logic_observables(catalog.even_logic_cube())
    text = lp.lp_to_text(compat.build_scan_lp([cube["A"], cube["B"]], (F(1, 3), F(2, 3))))
    assert text == (DATA / "scan_even_logic_cube_A_B.lp").read_text()


def test_positivity_blocks_are_cached_per_theory_and_cell_count(monkeypatch):
    # each family program appends its theory's cached positivity block for
    # its cell count: one object for every program of that shape
    blocks = []
    positivity = model.TheorySpace._positivity

    def recorded(theory, cells):
        blocks.append(positivity(theory, cells))
        return blocks[-1]

    monkeypatch.setattr(model.TheorySpace, "_positivity", recorded)
    theory = catalog.bloch_polytope(32)
    fresh = catalog.bloch_polytope(32)
    before = hash(theory)
    named = catalog.named_observables(theory)
    pair = [named["pauli-x"], named["pauli-y"]]
    scans = [compat.build_scan_lp(pair, w) for w in ((F(1), F(0)), (F(1, 3), F(2, 3)))]
    assert blocks[0] is blocks[1] and len(blocks[0]) == 32 * 4
    assert all(prog.entries[-len(blocks[0]):] == blocks[0] for prog in scans)
    three = catalog.random_observable(theory, 3, 7)
    wide = compat.build_joint_lp([named["pauli-x"], three])
    assert blocks[2] is not blocks[0] and len(blocks[2]) == 32 * 6
    assert wide.entries[-len(blocks[2]):] == blocks[2]
    # the cache is no part of the theory's value
    assert theory == fresh and hash(theory) == hash(fresh) == before
    # warm or cold, the programs keep their bytes
    square = catalog.square_gbit_observables(catalog.square_gbit())
    cube = catalog.even_logic_observables(catalog.even_logic_cube())
    for _ in range(2):
        text = lp.lp_to_text(compat.build_index_lp(square["X"], square["D1"]))
        assert text == (DATA / "index_gbit_square_X_D1.lp").read_text()
        text = lp.lp_to_text(compat.build_scan_lp([cube["A"], cube["B"]], (F(1, 3), F(2, 3))))
        assert text == (DATA / "scan_even_logic_cube_A_B.lp").read_text()


# ---------------------------------------------------------------------------
# noise thresholds


def test_index_against_trivial_is_one():
    t = catalog.even_logic_cube()
    M = catalog.even_logic_observables(t)["A"]
    T = model.make_trivial(t, model.Distribution.make(["1/3", "2/3"]), ("u", "v"))
    assert compat.compat_index(M, T).lambda_star == 1


def test_index_of_compatible_pair_is_one():
    t = catalog.even_logic_cube()
    M = catalog.random_observable(t, 3, 31)
    f = model.OutcomeMap.make({"0": "lo", "1": "lo", "2": "hi"})
    g = model.OutcomeMap.make({"0": "x", "1": "y", "2": "y"})
    A = model.post_process(M, f)
    B = model.post_process(M, g)
    assert isinstance(compat.check_compatible([A, B]), compat.Compatible)
    result = compat.compat_index(A, B)
    assert result.lambda_star == 1
    assert result.noise_witness is None


def test_index_bisection_cross_check_on_cube():
    t = catalog.even_logic_cube()
    rng = random.Random(2)
    for seed in range(4):
        M, N = rand_pair(t, 40 + seed)
        star = compat.compat_index(M, N).lambda_star
        lo, hi = bisect_noise_threshold(M, N, membership_one_sided)
        assert lo <= star <= hi
        assert membership_one_sided(M, N, star)
        probe = star + F(1, 1000)
        if probe <= 1:
            assert not membership_one_sided(M, N, probe)


def test_interval_is_closed_and_downward():
    t = catalog.square_gbit()
    obs = catalog.square_gbit_observables(t)
    lo, hi = compat.compat_interval(obs["X"], obs["D1"])
    assert lo == 0
    assert membership_one_sided(obs["X"], obs["D1"], hi)
    assert membership_one_sided(obs["X"], obs["D1"], hi / 2)


def test_index_result_noise_reconstruction():
    t = catalog.square_gbit()
    M, N = rand_pair(t, 77)
    res = compat.compat_index(M, N)
    if res.lambda_star < 1:
        rebuilt = model.noisy(
            N, res.lambda_star,
            model.make_trivial(t, res.noise_witness, N.outcomes),
        )
        assert rebuilt == res.noisy_partner
    assert compat.marginal(res.joint, 0) == M
    assert compat.marginal(res.joint, 1) == res.noisy_partner


# ---------------------------------------------------------------------------
# regions


def test_region_origin_axes_and_full_point():
    t = catalog.even_logic_cube()
    obs = catalog.even_logic_observables(t)
    pair = [obs["A"], obs["B"]]
    assert isinstance(compat.region_membership(pair, (0, 0)), compat.Compatible)
    assert isinstance(compat.region_membership(pair, (1, 0)), compat.Compatible)
    assert isinstance(compat.region_membership(pair, (0, 1)), compat.Compatible)

    M = catalog.random_observable(t, 2, 3)
    T = model.uniform_trivial(t, M.outcomes)
    assert isinstance(compat.region_membership([M, T], (1, 1)), compat.Compatible)


def test_region_rejects_bad_lambdas():
    t = catalog.even_logic_cube()
    obs = catalog.even_logic_observables(t)
    with pytest.raises(InputError):
        compat.region_membership([obs["A"], obs["B"]], (F(3, 2), F(0)))


def test_region_certificates_verify_against_builder():
    t = catalog.even_logic_cube()
    obs = catalog.even_logic_observables(t)
    point = (F(1), F(1, 2))
    verdict = compat.region_membership([obs["A"], obs["B"]], point)
    assert isinstance(verdict, compat.Incompatible)
    prog = compat.build_region_lp([obs["A"], obs["B"]], point)
    assert lp.verify(prog, verdict.certificate)


def test_region_swap_symmetry_at_implementation_level():
    # the swapped question has the same verdict, and its witness with the
    # axes transposed answers the forward question (witnesses need not be
    # unique, so the two solves may pick different ones)
    rng = random.Random(8)
    compatible = 0
    for seed in range(20):
        for theory in (catalog.square_gbit(), catalog.even_logic_cube()):
            M, N = rand_pair(theory, seed)
            a = F(rng.randint(0, 8), 8)
            b = F(rng.randint(0, 8), 8)
            forward = compat.region_membership([M, N], (a, b))
            backward = compat.region_membership([N, M], (b, a))
            assert isinstance(forward, compat.Compatible) == isinstance(backward, compat.Compatible)
            if not isinstance(forward, compat.Compatible):
                continue
            compatible += 1
            joint = backward.witness
            transposed = [joint.cell((j, i)).coeffs
                          for i in range(len(M)) for j in range(len(N))]
            for cells in (transposed, [e.coeffs for e in forward.witness.effects]):
                assert witness_marginals_ok(cells, [M, N], (a, b), theory.extreme_points,
                                            theory.unit)
    assert compatible >= 20


def test_scan_axis_direction_reaches_one():
    t = catalog.even_logic_cube()
    obs = catalog.even_logic_observables(t)
    (sample,) = compat.region_boundary_scan([obs["A"], obs["B"]], [(1, 0)])
    assert sample.reach == 1
    assert sample.boundary == (F(1), F(0))


def test_scan_compatible_pair_fills_the_square():
    t = catalog.even_logic_cube()
    M = catalog.random_observable(t, 2, 12)
    T = model.uniform_trivial(t, M.outcomes)
    directions = [(F(1, 3), F(2, 3)), (F(1, 2), F(1, 2)), (F(9, 10), F(1, 10))]
    for sample in compat.region_boundary_scan([M, T], directions):
        assert sample.reach == 1 / max(sample.direction)
        assert max(sample.boundary) == 1


def test_scan_boundary_is_member_and_maximal():
    t = catalog.square_gbit()
    obs = catalog.square_gbit_observables(t)
    pair = [obs["X"], obs["Y"]]
    (sample,) = compat.region_boundary_scan(pair, [(F(1, 2), F(1, 2))])
    assert isinstance(compat.region_membership(pair, sample.boundary), compat.Compatible)
    bumped = tuple(min(F(1), b + F(1, 1000)) for b in sample.boundary)
    if bumped != sample.boundary:
        assert isinstance(compat.region_membership(pair, bumped), compat.Incompatible)
    # frozen: the square's coordinate pair admits exactly the corner triangle
    assert sample.boundary == (F(1, 2), F(1, 2))


def test_scan_rejects_bad_directions():
    t = catalog.square_gbit()
    obs = catalog.square_gbit_observables(t)
    with pytest.raises(InputError):
        compat.region_boundary_scan([obs["X"], obs["Y"]], [(F(1, 2), F(1, 4))])


def test_angular_directions_grid():
    dirs = compat.angular_directions(9)
    assert len(dirs) == 9
    assert dirs[0] == (F(1), F(0))
    assert dirs[-1] == (F(0), F(1))
    assert dirs[4] == (F(1, 2), F(1, 2))
    for i, (a, b) in enumerate(dirs):
        assert a >= 0 and b >= 0 and a + b == 1
        assert dirs[i] == dirs[len(dirs) - 1 - i][::-1]
    assert compat.angular_directions(1) == [(F(1, 2), F(1, 2))]
    for count in (0, compat.MAX_DIRECTIONS + 1):
        with pytest.raises(InputError):
            compat.angular_directions(count)


# ---------------------------------------------------------------------------
# composition theorems (small seeded spot checks; the acceptance suite
# runs the full hundred-case sweeps)


def test_functions_of_one_observable_are_compatible():
    for theory in small_theories():
        verdict = compat.check_compatible(list(functions_of_one(theory, 17)))
        assert isinstance(verdict, compat.Compatible)


def test_post_processing_preserves_compatibility():
    t = catalog.even_logic_cube()
    M = catalog.random_observable(t, 2, 23)
    T = model.make_trivial(t, model.Distribution.make(["1/5", "4/5"]), M.outcomes)
    assert isinstance(compat.check_compatible([M, T]), compat.Compatible)
    g = model.OutcomeMap.make({"0": "m", "1": "m"})
    h = model.OutcomeMap.make({"0": "s", "1": "t"})
    verdict = compat.check_compatible(
        [model.post_process(M, g), model.post_process(T, h)]
    )
    assert isinstance(verdict, compat.Compatible)


def test_mixtures_of_compatible_rows_stay_compatible():
    t = catalog.square_gbit()
    rng = random.Random(4)
    rows = []
    for seed in (51, 52, 53):
        M = catalog.random_observable(t, 2, seed)
        T = model.make_trivial(t, rand_distribution(rng, 2), M.outcomes)
        rows.append((M, T))
    weights = [F(1, 2), F(1, 3), F(1, 6)]
    mixed_first = model.mix([r[0] for r in rows], weights)
    mixed_second = model.mix([r[1] for r in rows], weights)
    assert isinstance(compat.check_compatible([mixed_first, mixed_second]), compat.Compatible)


def test_compatibility_with_two_partners_extends_to_mixtures():
    t = catalog.even_logic_cube()
    M = catalog.random_observable(t, 2, 61)
    N = model.make_trivial(t, model.Distribution.make(["1/2", "1/2"]), M.outcomes)
    P = model.make_trivial(t, model.Distribution.make(["1/8", "7/8"]), M.outcomes)
    lam = F(2, 7)
    blend = model.mix([N, P], [lam, 1 - lam])
    assert isinstance(compat.check_compatible([M, blend]), compat.Compatible)


def test_complementary_noise_levels_are_compatible():
    t = catalog.square_gbit()
    obs = catalog.square_gbit_observables(t)
    rng = random.Random(6)
    for _ in range(4):
        lam = F(rng.randint(0, 12), 12)
        T = model.make_trivial(t, rand_distribution(rng, 2), obs["X"].outcomes)
        S = model.make_trivial(t, rand_distribution(rng, 2), obs["Y"].outcomes)
        noisy_x = model.noisy(obs["X"], lam, T)
        noisy_y = model.noisy(obs["Y"], 1 - lam, S)
        assert isinstance(compat.check_compatible([noisy_x, noisy_y]), compat.Compatible)


def test_midpoints_of_members_are_members():
    t = catalog.even_logic_cube()
    M, N = rand_pair(t, 33)
    pair = [M, N]
    samples = compat.region_boundary_scan(
        pair, [(F(1, 4), F(3, 4)), (F(2, 3), F(1, 3))]
    )
    p, q = samples[0].boundary, samples[1].boundary
    mid = tuple((a + b) / 2 for a, b in zip(p, q))
    assert isinstance(compat.region_membership(pair, mid), compat.Compatible)


def test_corner_simplex_grid_membership():
    t = catalog.square_gbit()
    M, N = rand_pair(t, 71)
    for i in range(5):
        for j in range(5 - i):
            point = (F(i, 4), F(j, 4))
            assert isinstance(compat.region_membership([M, N], point), compat.Compatible)


def test_effectwise_verdict_matches_distribution_oracle():
    for theory in (catalog.classical_simplex(4), catalog.square_gbit()):
        for seed in range(6):
            M, N = rand_pair(theory, 80 + seed)
            expected = dichotomic_pair_compatible(M, N)
            got = compat.check_compatible([M, N])
            assert isinstance(got, compat.Compatible) == expected


def test_interval_order_experiment_logs_only():
    # whether the interval is order-symmetric is an open experiment, so
    # the two orders are computed and reported without any assertion
    t = catalog.square_gbit()
    M, N = rand_pair(t, 90)
    forward = compat.compat_index(M, N).lambda_star
    backward = compat.compat_index(N, M).lambda_star
    print(f"interval order probe: forward={forward} backward={backward} "
          f"{'(asymmetric!)' if forward != backward else '(equal here)'}")
    for value in (forward, backward):
        assert 0 <= value <= 1


# ---------------------------------------------------------------------------
# theory-level estimate


def test_estimate_on_classical_theory_is_one():
    result = compat.theory_index_estimate(catalog.classical_simplex(3), 10, seed=0)
    assert result.upper_bound == 1
    assert result.values == (F(1),) * 10


def test_estimate_zero_budget_is_vacuous():
    result = compat.theory_index_estimate(catalog.even_logic_cube(), 0, seed=0)
    assert result.upper_bound == 1
    assert result.argmin_pair is None


def test_estimate_negative_budget_is_refused():
    with pytest.raises(InputError):
        compat.theory_index_estimate(catalog.even_logic_cube(), -1, seed=0)


def test_estimate_prefix_monotonicity():
    t = catalog.square_gbit()
    long = compat.theory_index_estimate(t, 8, seed=1)
    short = compat.theory_index_estimate(t, 4, seed=1)
    assert long.values[:4] == short.values
    assert long.upper_bound <= short.upper_bound


@pytest.mark.parametrize("name", ["gbit-square", "even-logic-cube", "bloch-octahedron", "bloch:8"])
def test_plavala_non_simplex_theory_has_an_incompatible_pair(name):
    # Plavala, PRA 94, 042108 (2016): all measurements of a theory are
    # compatible only if its state space is a simplex; none of these is one
    theory = catalog.get_theory(name)
    for i in range(10):
        pair = [catalog.random_observable(theory, 2, compat.pair_seed(0, i, half))
                for half in (0, 1)]
        verdict = compat.check_compatible(pair)
        if isinstance(verdict, compat.Incompatible):
            break
    else:
        pytest.fail(f"no incompatible pair among 10 sampled on {name}")
    assert lp.verify(compat.build_joint_lp(pair), verdict.certificate)


def _with_sharpness_caps(prog, caps):
    """``prog`` with one ``b*s <= 1`` row appended per ``b`` in ``caps``;
    ``s`` is the last variable, the one the program maximizes."""
    n = prog.num_vars
    assert prog.objective == (F(0),) * (n - 1) + (F(1),)
    rows = list(zip(prog.rows, prog.relations, prog.rhs))
    rows += [((F(0),) * (n - 1) + (b,), "<=", F(1)) for b in caps]
    return lp.LinearProgram.create(n, rows, objective=prog.objective, sense=prog.sense,
                                   nonneg=prog.nonneg)


@pytest.mark.parametrize("name", ["gbit-square", "even-logic-cube", "bloch-octahedron", "bloch:8"])
def test_sharpness_caps_are_implied(name):
    # the family program states no b_k*s <= 1 row: the noise totals with
    # nonnegative noise imply it, so adding the rows leaves every optimum
    theory = catalog.get_theory(name)
    directions = [(F(1), F(0)), (F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))]
    for i in range(10):
        pair = [catalog.random_observable(theory, 2, compat.pair_seed(0, i, half))
                for half in (0, 1)]
        programs = [(compat.build_index_lp(*pair), [F(1)])]
        programs += [(compat.build_scan_lp(pair, w), [c for c in w if c]) for w in directions]
        for prog, caps in programs:
            out = lp.solve(prog)
            capped = lp.solve(_with_sharpness_caps(prog, caps))
            assert isinstance(out, lp.Optimal) and isinstance(capped, lp.Optimal)
            assert out.value == capped.value, (name, i, caps)
        assert compat.compat_index(*pair).lambda_star <= 1
        for sample in compat.region_boundary_scan(pair, directions):
            assert all(c <= 1 for c in sample.boundary)


def test_no_package_program_leaves_a_working_set_unbounded(monkeypatch):
    # every program the package solves is a feasibility program or one that
    # maximizes s under its noise totals, which are equality rows and so in
    # every working set: no simplex run may meet an improving column that
    # no working row bounds, so row generation never takes in every row at
    # once.  The runs below are those of criteria 3 to 6 and 9, smaller,
    # and of validate_state and is_classical_state
    runs = []
    run = lp._Simplex.run

    def recorded(self):
        out = run(self)
        runs.append(out)
        return out

    monkeypatch.setattr(lp._Simplex, "run", recorded)
    ball = catalog.bloch_polytope(32)
    compat.region_boundary_scan(catalog.noisy_pauli_observables(ball),
                                compat.angular_directions(8) + [(F(1, 2), F(1, 2))])
    cube, square = catalog.even_logic_cube(), catalog.square_gbit()
    dirs = [(F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))]
    for seed, theory in enumerate([cube, square, catalog.bloch_octahedron()]):
        pair = rand_pair(theory, 100 + seed)
        for point in ((F(1, 2), F(1, 2)), (F(1), F(1, 8)), (F(1), F(1))):
            compat.region_membership(pair, point)
        first, second = compat.region_boundary_scan(pair, dirs)
        compat.region_membership(pair, [(a + b) / 2 for a, b in zip(first.boundary,
                                                                     second.boundary)])
        compat.check_compatible(list(pair))
        lam = F(1, 3)
        noise = [model.make_trivial(theory, model.Distribution((F(1, 4), F(3, 4))), m.outcomes)
                 for m in pair]
        compat.check_compatible([model.noisy(pair[0], lam, noise[0]),
                                 model.noisy(pair[1], 1 - lam, noise[1])])
    estimate = compat.theory_index_estimate(cube, 10, seed=0)
    compat.compat_index(*estimate.argmin_pair)
    compat.compat_interval(*estimate.argmin_pair)
    model.validate_state(square, (1, 0, 0))
    with pytest.raises(HullRejection):
        model.validate_state(square, (1, 2, 0))
    for state in catalog.cube_vertex_states().values():
        catalog.is_classical_state(state)
    unbounded = sum(out is None for out in runs)
    assert unbounded == 0, f"{unbounded} of {len(runs)} runs left the objective unbounded"
    assert {type(out) for out in runs} == {lp.Optimal, lp.Infeasible}
