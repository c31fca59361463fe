"""Seeded inputs and questions of the three benchmark workloads.

The benchmark builds every input itself from the seed; it never uses
``ptcompat.catalog``, so a change to the builtin catalog cannot change
what is measured.  The same seed always gives the same inputs, and
nothing here reads the clock.

``setup(name, seed)`` imports the package layers the workload calls and
generates its inputs; the benchmark times exactly this as ``setup_s``.
"""

from __future__ import annotations

import random
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)

# region-ball: 2 hemispheres x BALL_BANDS equal-area z bands x 8 octants,
# one point per cell.  The cell layout and the direction sequence are
# fixed; the seed moves every plane point and every direction by about
# 0.1%.  So each seed has its own exact coordinates and directions, while
# the work per run barely depends on the seed: with an independent point
# set per seed, the pivots of one direction block varied by a quarter.
BALL_BANDS = 4
BALL_POINTS = 2 * BALL_BANDS * 8
BALL_DENOM_BITS = 20
BALL_JITTER = 1 << (BALL_DENOM_BITS - 10)
DIRECTION_DENOM = 1 << 16
DIRECTION_STRATA = 4
DIRECTION_JITTER = DIRECTION_DENOM >> 10

# small-mix: observables per theory, corner-simplex grid resolution
MIX_POOL = 48
MIX_GRID = 8

# questions generated per small-mix stream; every run loop cycles its stream
MIX_STREAM = 1 << 14

WORKLOADS = {
    "region-ball": (
        f"{BALL_POINTS} exact points on the unit sphere (denominators near "
        f"2^{BALL_DENOM_BITS}), transverse readers; one question = one "
        "region_boundary_scan call for one direction",
        "criterion 3's shape: every program is solved by lazy row generation "
        "and the big-integer simplex does almost all of the work",
    ),
    "small-mix": (
        f"thirds of check / index / membership questions over classical:3, "
        f"gbit-square, even-logic-cube and bloch-octahedron, {MIX_POOL} seeded "
        "dichotomic observables per theory",
        "many tiny programs: program construction, LinearProgram.create, witness "
        "validation and verify carry a large share next to the simplex",
    ),
    "cli-cold": (
        "one fresh `python -m ptcompat.cli` process per question: check, index "
        "and interval on X Y, D1 D2 (gbit-square) and A B (even-logic-cube), "
        "and region A B --directions 16",
        "the wall time of a CLI command is the project's end-to-end time; the "
        "only workload that runs cli, serialize and the import",
    ),
}


def setup(name: str, seed: int) -> tuple:
    """The workload's question stream: (kind, payload, extra) tuples."""
    if name == "region-ball":
        return _setup_region_ball(seed)
    if name == "small-mix":
        return _setup_small_mix(seed)
    if name == "cli-cold":
        return _setup_cli_cold(seed)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# shared helpers


def dichotomy(theory, plus):
    """Two-outcome observable with the given '+' effect coefficients."""
    from ptcompat.model import Effect, Observable

    minus = tuple(u - c for u, c in zip(theory.unit, plus))
    return Observable(theory, ("+", "-"), (Effect(theory, tuple(plus)), Effect(theory, minus)))


def _theory(name, points, unit):
    from ptcompat.model import TheorySpace

    return TheorySpace(name, len(unit), tuple(tuple(Fraction(c) for c in p) for p in points),
                       tuple(Fraction(c) for c in unit))


# ---------------------------------------------------------------------------
# region-ball


def sphere_points(rng: random.Random):
    """One exact point on the unit sphere in each equal-area cell.

    A plane point (p, q)/d with d near 2^20 maps to the sphere by inverse
    stereographic projection (2p d, 2q d, +-(d^2 - p^2 - q^2))/(d^2 + p^2 + q^2).
    The base plane points are drawn uniformly from a fixed stream and
    kept with probability d^4/(d^2 + r^2)^2, which makes them uniform in
    area on the sphere; ``rng`` then moves each by up to BALL_JITTER.
    """
    base = random.Random("region-ball:points")
    points = []
    for hemi in (1, -1):
        for band in range(BALL_BANDS):
            for octant in _OCTANTS:
                d, p, q = _plane_point_in_cell(base, band)
                while True:
                    p2 = p + rng.randint(-BALL_JITTER, BALL_JITTER)
                    q2 = q + rng.randint(-BALL_JITTER, BALL_JITTER)
                    if 0 < q2 < p2 and p2 * p2 + q2 * q2 < d * d:
                        break
                a, b = octant(p2, q2)
                dd, den = d * d, d * d + p2 * p2 + q2 * q2
                points.append((Fraction(2 * a * d, den), Fraction(2 * b * d, den),
                               Fraction(hemi * (2 * dd - den), den)))
    return points


_ACCEPT_SCALE = 1 << 32


def _plane_point_in_cell(rng, band):
    """(d, p, q) with 0 < q < p and z = (d^2 - r^2)/(d^2 + r^2) in band."""
    while True:
        d = (1 << BALL_DENOM_BITS) + rng.randrange(1 << (BALL_DENOM_BITS - 4))
        p = rng.randrange(1, d)
        q = rng.randrange(1, d)
        if q >= p:  # keep the open wedge 0 < q < p (angle below 45 degrees)
            continue
        r2 = p * p + q * q
        dd = d * d
        if r2 >= dd:
            continue
        if rng.randrange(_ACCEPT_SCALE) * (dd + r2) ** 2 >= _ACCEPT_SCALE * dd * dd:
            continue
        # z must fall in [band/B, (band+1)/B)
        if BALL_BANDS * (dd - r2) < band * (dd + r2):
            continue
        if BALL_BANDS * (dd - r2) >= (band + 1) * (dd + r2):
            continue
        return d, p, q


# the eight symmetries of the square that carry the wedge 0 < q < p onto
# the eight open 45-degree sectors
_OCTANTS = (
    lambda p, q: (p, q),
    lambda p, q: (q, p),
    lambda p, q: (-q, p),
    lambda p, q: (-p, q),
    lambda p, q: (-p, -q),
    lambda p, q: (-q, -p),
    lambda p, q: (q, -p),
    lambda p, q: (p, -q),
)


def directions(rng: random.Random, count: int):
    """Unit-sum rational directions (a/D, 1 - a/D).

    A fixed block visits each of DIRECTION_STRATA angle strata once, in a
    fixed order; the block repeats, and ``rng`` moves every a by up to
    DIRECTION_JITTER.
    """
    base = random.Random("region-ball:directions")
    width = DIRECTION_DENOM // DIRECTION_STRATA
    block = [stratum * width + base.randrange(DIRECTION_JITTER + 1, width - DIRECTION_JITTER)
             for stratum in base.sample(range(DIRECTION_STRATA), DIRECTION_STRATA)]
    out = []
    while len(out) < count:
        for a in block:
            a += rng.randint(-DIRECTION_JITTER, DIRECTION_JITTER)
            out.append((Fraction(a, DIRECTION_DENOM), Fraction(DIRECTION_DENOM - a, DIRECTION_DENOM)))
    return out[:count]


def _setup_region_ball(seed):
    from ptcompat import compat, lp  # noqa: F401  (the layers a question calls)

    rng = random.Random(f"region-ball:{seed}")
    theory = _theory(f"ball:{BALL_POINTS}", [(1,) + p for p in sphere_points(rng)], (1, 0, 0, 0))
    readers = (dichotomy(theory, (_HALF, _HALF, _ZERO, _ZERO)),
               dichotomy(theory, (_HALF, _ZERO, _HALF, _ZERO)))
    return tuple(("scan", readers, w) for w in directions(rng, 256))


# ---------------------------------------------------------------------------
# small-mix


def mix_theories():
    square = [(1, x, y) for x in (1, -1) for y in (1, -1)]
    cube = [(1, a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    octahedron = []
    for axis in range(3):
        for sign in (1, -1):
            p = [1, 0, 0, 0]
            p[axis + 1] = sign
            octahedron.append(tuple(p))
    return (
        _theory("classical:3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 1, 1)),
        _theory("gbit-square", square, (1, 0, 0)),
        _theory("even-logic-cube", cube, (1, 0, 0, 0)),
        _theory("bloch-octahedron", octahedron, (1, 0, 0, 0)),
    )


def random_dichotomy(theory, rng):
    """An extremal dichotomic observable: its '+' effect takes both 0 and 1."""
    while True:
        f = [Fraction(rng.randint(-8, 8)) for _ in range(theory.dim)]
        values = [sum(c * x for c, x in zip(f, p)) for p in theory.extreme_points]
        lo, hi = min(values), max(values)
        if lo != hi:
            break
    return dichotomy(theory, tuple((c - lo * u) / (hi - lo) for c, u in zip(f, theory.unit)))


KINDS = ("check", "index", "membership")
BLOCK = [(kind, t) for kind in KINDS for t in range(4)]


def _setup_small_mix(seed):
    from ptcompat import compat, lp  # noqa: F401  (the layers a question calls)

    rng = random.Random(f"small-mix:{seed}")
    theories = mix_theories()
    pools = [[random_dichotomy(t, rng) for _ in range(MIX_POOL)] for t in theories]
    questions = []
    while len(questions) < MIX_STREAM:
        # each block asks every (kind, theory) pair once, in seeded order
        for kind, t in rng.sample(BLOCK, len(BLOCK)):
            pair = tuple(pools[t][i] for i in rng.sample(range(MIX_POOL), 2))
            point = None
            if kind == "membership":
                while True:
                    a, b = rng.randint(0, MIX_GRID), rng.randint(0, MIX_GRID)
                    if a + b <= MIX_GRID:
                        break
                point = (Fraction(a, MIX_GRID), Fraction(b, MIX_GRID))
            questions.append((kind, pair, point))
    return tuple(questions)


# ---------------------------------------------------------------------------
# cli-cold

# (arguments, expected answer) -- hand-written from the definitions: the
# sharp coordinate readers tolerate no one-sided noise (lambda* = 0), the
# square's diagonal readers are jointly measurable outright, and the
# cube's A, B region is exactly the corner simplex (reach 1 everywhere).
CLI_COMMANDS = (
    (("check", "--theory", "gbit-square", "X", "Y"), "incompatible"),
    (("check", "--theory", "gbit-square", "D1", "D2"), "compatible"),
    (("check", "--theory", "even-logic-cube", "A", "B"), "incompatible"),
    (("index", "--theory", "gbit-square", "X", "Y"), 0),
    (("index", "--theory", "gbit-square", "D1", "D2"), 1),
    (("index", "--theory", "even-logic-cube", "A", "B"), 0),
    (("interval", "--theory", "gbit-square", "X", "Y"), 0),
    (("interval", "--theory", "gbit-square", "D1", "D2"), 1),
    (("interval", "--theory", "even-logic-cube", "A", "B"), 0),
    (("region", "--theory", "even-logic-cube", "A", "B", "--directions", "16"), 16),
)

# region runs 3 times per block, so that its share (1/4) keeps the tail
# percentile (ten questions beyond it) inside the region answers for any
# run of 40 questions or more
CLI_BLOCK = list(range(len(CLI_COMMANDS))) + [len(CLI_COMMANDS) - 1] * 2


def cli_observables():
    """The builtin pairs the CLI commands name, written out by hand."""
    square, cube = mix_theories()[1:3]
    q = Fraction(1, 4)
    return {
        ("gbit-square", "X", "Y"): (dichotomy(square, (_HALF, _HALF, _ZERO)),
                                    dichotomy(square, (_HALF, _ZERO, _HALF))),
        ("gbit-square", "D1", "D2"): (dichotomy(square, (_HALF, q, q)),
                                      dichotomy(square, (_HALF, q, -q))),
        ("even-logic-cube", "A", "B"): (dichotomy(cube, (_ZERO, _ONE, _ZERO, _ZERO)),
                                        dichotomy(cube, (_ZERO, _ZERO, _ONE, _ZERO))),
    }


def _setup_cli_cold(seed):
    import ptcompat.cli  # noqa: F401  (what every child process imports)

    rng = random.Random(f"cli-cold:{seed}")
    order = []
    while len(order) < 1024:
        order += rng.sample(CLI_BLOCK, len(CLI_BLOCK))
    return tuple(("cli", CLI_COMMANDS[k][0], None) for k in order)


# questions per block: a block asks every kind of question of its workload
# (each direction stratum, each (kind, theory) pair, each command), and a
# run asks whole blocks, so its work mix does not depend on the host's speed
BLOCK_SIZE = {"region-ball": DIRECTION_STRATA, "small-mix": len(BLOCK),
              "cli-cold": len(CLI_BLOCK)}
