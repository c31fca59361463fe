"""Built-in theories and observables.

Catalog names understood by :func:`get_theory`:

* ``classical:<n>``   - probability simplex on n outcomes, 1 <= n <= 1024
* ``gbit-square``     - square state space (the simplest non-simplex)
* ``even-logic-cube`` - states of the even-cardinality event structure
  on a 4-point sample space; a cube of marginal triples
* ``bloch:<n>``       - inscribed rational polytope approximation of the
  unit ball with n points exactly on the unit sphere, 4 <= n <= 16384
* ``bloch-octahedron``- the six axis points of the ball, exact

Counts are plain ASCII decimals without leading zeros, so a resolved
theory carries exactly the name it was asked for.  Every constructor is
pure and deterministic.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .errors import InputError
from .model import (
    Effect,
    Observable,
    TheorySpace,
    clip_repr,
    dot,
    vec,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Size limits on catalog names, checked before anything is built.
MAX_CLASSICAL_OUTCOMES = 1024  # n^2 coordinates and an O(n^3) rank check
MAX_BLOCH_POINTS = 16384  # sphere_sequence points are checked distinct up to here


def classical_simplex(n: int) -> TheorySpace:
    """Probability simplex: standard basis states, all-ones unit."""
    if n < 1:
        raise InputError("a classical theory needs at least one outcome")
    if n > MAX_CLASSICAL_OUTCOMES:
        raise InputError(f"a classical theory has at most {MAX_CLASSICAL_OUTCOMES} outcomes")
    points = [tuple(_ONE if j == i else _ZERO for j in range(n)) for i in range(n)]
    return TheorySpace(f"classical:{n}", n, tuple(points), (_ONE,) * n)


def square_gbit() -> TheorySpace:
    """Square state space in coordinates (1, x, y) with corners (±1, ±1)."""
    points = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
    return TheorySpace.make("gbit-square", 3, points, (1, 0, 0))


def _dichotomy(theory: TheorySpace, labels, plus) -> Observable:
    """The two-outcome observable with effects ``plus`` and ``unit - plus``."""
    minus = tuple(u - c for u, c in zip(theory.unit, plus))
    return Observable(theory, labels, (Effect(theory, tuple(plus)), Effect(theory, minus)))


def square_gbit_observables(theory: TheorySpace) -> dict[str, Observable]:
    """Coordinate readers X, Y and the two diagonal readers D1, D2."""
    if theory.dim != 3 or theory.unit != (1, 0, 0):
        raise InputError("expected the square state space")
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    return {
        "X": _dichotomy(theory, ("+", "-"), (half, half, _ZERO)),
        "Y": _dichotomy(theory, ("+", "-"), (half, _ZERO, half)),
        "D1": _dichotomy(theory, ("+", "-"), (half, quarter, quarter)),
        "D2": _dichotomy(theory, ("+", "-"), (half, quarter, -quarter)),
    }


# ---------------------------------------------------------------------------
# even-cardinality event logic on four points


@dataclass(frozen=True)
class LogicState:
    """State of the even-cardinality logic, stored as the marginal triple."""

    lambdas: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        if len(self.lambdas) != 3:
            raise InputError("a logic state has three marginals")
        if any(l < 0 or l > 1 for l in self.lambdas):
            raise InputError("marginals must lie in [0, 1]")

    @classmethod
    def make(cls, values) -> "LogicState":
        return cls(tuple(vec(values)))


def even_logic_cube() -> TheorySpace:
    """The cube of marginal triples (1, l1, l2, l3), vertices 0/1."""
    points = [(1, a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    return TheorySpace.make("even-logic-cube", 4, points, (1, 0, 0, 0))


def even_logic_observables(theory: TheorySpace) -> dict[str, Observable]:
    """The three dichotomic coordinate readers A, B, C."""
    if theory.dim != 4 or theory.unit != (1, 0, 0, 0):
        raise InputError("expected the even-logic cube theory")
    out = {}
    for name, coord in (("A", 1), ("B", 2), ("C", 3)):
        plus = [_ZERO] * 4
        plus[coord] = _ONE
        out[name] = _dichotomy(theory, (name.lower(), name.lower() + "'"), plus)
    return out


def cube_vertex_states() -> dict[str, LogicState]:
    """The eight 0/1 states by their customary names.

    delta1..delta4 extend to measures on the four atoms; gamma_i is the
    complement of delta_i and does not.
    """
    deltas = {
        "delta1": (1, 1, 1),
        "delta2": (1, 0, 0),
        "delta3": (0, 1, 0),
        "delta4": (0, 0, 1),
    }
    out = {k: LogicState.make(v) for k, v in deltas.items()}
    for i, v in enumerate(deltas.values(), start=1):
        out[f"gamma{i}"] = LogicState.make(tuple(1 - x for x in v))
    return out


def is_classical_state(s: LogicState) -> bool:
    """Does the state extend to a measure on the four underlying atoms?

    Feasibility of weights mu >= 0 on the atoms {1,2,3,4} with total 1
    and mu{1,2} = s(a), mu{1,3} = s(b), mu{1,4} = s(c).
    """
    l1, l2, l3 = s.lambdas
    rows = [
        ((1, 1, 1, 1), "=", 1),
        ((1, 1, 0, 0), "=", l1),
        ((1, 0, 1, 0), "=", l2),
        ((1, 0, 0, 1), "=", l3),
    ]
    prog = lp.LinearProgram.create(4, rows)
    return isinstance(lp.solve(prog), lp.Optimal)


# ---------------------------------------------------------------------------
# ball approximations


_PLANE_SCALE = 2**10  # stereographic grid 1/d: denominators d^2 + p^2 + q^2 < 2^21


def sphere_sequence(count: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Deterministic well-spread points exactly on the unit sphere.

    Point i aims at height z = 1 - 2 v(i), v the van der Corput sequence,
    and azimuth i * 377/987 turns (a Fibonacci golden angle), the part
    inside each quarter turn given by its half-angle tangent t as
    (1 - t^2, 2t)/(1 + t^2).  Its stereographic plane point, scaled by
    d = 2^10, is rounded to integers (p, q) and mapped back exactly to
    (2pd, 2qd, +-(d^2 - p^2 - q^2))/(d^2 + p^2 + q^2).  Point i depends
    on i alone, so the first k points of a longer sequence are exactly
    the k-point sequence (prefixes are nested).
    """
    d = _PLANE_SCALE
    points = []
    for i in range(count):
        # van der Corput: the binary digits of i mirrored behind the point
        z = 1 - 2 * Fraction(int(bin(i)[:1:-1], 2), 1 << i.bit_length())
        quarter, t = divmod(4 * (i * 377 % 987), 987)
        t = Fraction(t, 987)
        c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        for _ in range(quarter):
            c, s = -s, c
        # plane radius d * sqrt((1 - |z|)/(1 + |z|)), projected from the far pole
        r = math.isqrt(int(d * d * (1 - abs(z)) / (1 + abs(z))))
        p, q = round(r * c), round(r * s)
        norm, height = d * d + p * p + q * q, d * d - p * p - q * q
        points.append((Fraction(2 * p * d, norm), Fraction(2 * q * d, norm),
                       Fraction(height if z >= 0 else -height, norm)))
    return points


def bloch_polytope(points: int) -> TheorySpace:
    """Inscribed rational polytope standing in for the unit-ball theory."""
    if points < 4:
        raise InputError("need at least 4 points to span the ball coordinates")
    if points > MAX_BLOCH_POINTS:
        raise InputError(f"a ball polytope has at most {MAX_BLOCH_POINTS} points")
    extremes = [(_ONE,) + p for p in sphere_sequence(points)]
    return TheorySpace(f"bloch:{points}", 4, tuple(extremes),
                       (_ONE, _ZERO, _ZERO, _ZERO))


def bloch_octahedron() -> TheorySpace:
    points = []
    for axis in range(3):
        for sign in (1, -1):
            coords = [0, 0, 0]
            coords[axis] = sign
            points.append((1, *coords))
    return TheorySpace.make("bloch-octahedron", 4, points, (1, 0, 0, 0))


def noisy_pauli_observables(theory: TheorySpace) -> tuple[Observable, Observable]:
    """The two transverse readers (unit ± coordinate)/2 on a ball theory."""
    if theory.dim != 4 or theory.unit != (_ONE, _ZERO, _ZERO, _ZERO):
        raise InputError("expected a ball-approximation theory")
    half = Fraction(1, 2)

    def reader(coord):
        plus = [half, _ZERO, _ZERO, _ZERO]
        plus[coord] = half
        return _dichotomy(theory, ("+", "-"), plus)

    return reader(1), reader(2)


# ---------------------------------------------------------------------------
# seeded observable sampling


def random_observable(theory: TheorySpace, outcomes: int, seed: int) -> Observable:
    """Deterministic sampled observable with boundary-touching effects.

    Dichotomies come from a random functional rescaled so its values on
    the extreme points touch both 0 and 1 (extremal effects expose the
    most incompatibility); more outcomes split the unit iteratively.
    """
    if outcomes < 1:
        raise InputError("an observable needs at least one outcome")
    labels = tuple(str(j) for j in range(outcomes))
    if outcomes == 1:
        return Observable(theory, labels, (Effect(theory, theory.unit),))
    if len(theory.extreme_points) < 2:
        # no functional can take two values on a single state
        raise InputError(f"theory {theory.name!r} has a single state, so it has no "
                         f"boundary-touching observable with {outcomes} outcomes")
    rng = random.Random(seed)
    if outcomes == 2:
        return _dichotomy(theory, labels, _boundary_touching(theory, rng))
    effects = []
    remaining = list(theory.unit)
    for _ in range(outcomes - 1):
        f = _boundary_touching(theory, rng)
        ratio = None
        for x in theory.extreme_points:
            fx = dot(f, x)
            if fx > 0:
                rx = dot(remaining, x) / fx
                if ratio is None or rx < ratio:
                    ratio = rx
        piece = tuple(ratio * c for c in f)
        effects.append(Effect(theory, piece))
        remaining = [r - c for r, c in zip(remaining, piece)]
    effects.append(Effect(theory, tuple(remaining)))
    return Observable(theory, labels, tuple(effects))


def _boundary_touching(theory: TheorySpace, rng: random.Random) -> tuple[Fraction, ...]:
    """Random functional affinely rescaled to min 0, max 1 on the vertices."""
    denom = 64
    while True:
        raw = [Fraction(rng.randint(-denom, denom), denom) for _ in range(theory.dim)]
        values = [dot(raw, x) for x in theory.extreme_points]
        lo, hi = min(values), max(values)
        if lo != hi:
            break
    span = hi - lo
    return tuple((c - lo * u) / span for c, u in zip(raw, theory.unit))


# ---------------------------------------------------------------------------
# name resolution


def catalog_names() -> list[str]:
    return ["classical:<n>", "gbit-square", "even-logic-cube",
            "bloch:<points>", "bloch-octahedron"]


def get_theory(name: str) -> TheorySpace:
    if name == "gbit-square":
        return square_gbit()
    if name == "even-logic-cube":
        return even_logic_cube()
    if name == "bloch-octahedron":
        return bloch_octahedron()
    if name.startswith("classical:"):
        return classical_simplex(_parse_count(name))
    if name.startswith("bloch:"):
        return bloch_polytope(_parse_count(name))
    raise InputError(f"unknown theory {clip_repr(name)}")


def _parse_count(name: str) -> int:
    count = name.split(":", 1)[1]
    if not re.fullmatch(r"0|[1-9][0-9]*", count):
        raise InputError(f"bad count in theory name {clip_repr(name)}")
    if len(count) > 9:  # past every catalog limit, and short of int's digit limit
        raise InputError(f"count in theory name {clip_repr(name)} is too large")
    return int(count)


def named_observables(theory: TheorySpace) -> dict[str, Observable]:
    """Builtin observables reachable by name for CLI arguments."""
    if theory.name == "gbit-square":
        return square_gbit_observables(theory)
    if theory.name == "even-logic-cube":
        return even_logic_observables(theory)
    if theory.name.startswith("bloch"):
        x, y = noisy_pauli_observables(theory)
        return {"pauli-x": x, "pauli-y": y}
    return {}
