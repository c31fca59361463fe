"""State spaces, effects, and observables over exact rational scalars.

A theory is a finite polytope of states, as vectors of the cone that it
spans: a list of extreme points together with a unit functional that
evaluates to 1 on every state.  Effects are plain linear functionals
(valued in [0, 1] on the polytope), an observable is a finite family of
effects summing to the unit, and all constructive operations here
(trivial, noisy, mixed, relabelled observables) are pure functions over
immutable values, so everything is safe to share between threads.

No floating point appears anywhere in this module.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import lp
from .errors import HullRejection, InputError

Vec = tuple[Fraction, ...]


def frac(value) -> Fraction:
    """Parse a rational from an int, Fraction, or a string like '2/3'."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        limit = sys.get_int_max_str_digits()
        exponent = _EXPONENT.search(value)
        if limit and exponent and _reaches(exponent.group(1), limit):
            # Fraction would build the power of ten first, at a cost that
            # grows steeply with the exponent
            raise InputError(f"rational {clip_repr(value)} has a decimal exponent past the "
                             f"integer digit limit ({limit} digits)")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, ValueError) and _rational_shape(value):
                raise InputError(f"rational {clip_repr(value)} exceeds the integer digit "
                                 f"limit ({limit} digits)") from exc
            raise InputError(f"not a rational: {clip_repr(value)}") from exc
    raise InputError(f"not a rational: {clip_repr(value)}")


def clip_repr(value) -> str:
    """repr of a value for an error message, cut after 40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


# the exponent of a decimal string such as "1.5e-3", as Fraction reads it
# (a "num/den" string takes none)
_EXPONENT = re.compile(r"\A[^/]*[eE][-+]?(\d[\d_]*)\s*\Z")


def _reaches(digits: str, limit: int) -> bool:
    """Is the decimal integer ``digits`` (underscores allowed) at least
    ``limit``, so that a power of ten with it as exponent has more than
    ``limit`` digits?  Decided without converting a long digit string."""
    digits = digits.replace("_", "").lstrip("0")
    return len(digits) > len(str(limit)) or int(digits or 0) >= limit


def _rational_shape(text: str) -> bool:
    """Does the text parse once every run of digits is cut to one digit?"""
    try:
        Fraction(re.sub(r"\d+", "1", text))
    except ValueError:
        return False
    return True


def vec(values) -> Vec:
    return tuple(frac(v) for v in values)


# the package's one exact dot product: one integer fraction, reduced once
dot = lp._dot


def _rank(vectors, dim) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(dim):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / lead[col]
                rows[r] = [v - f * w for v, w in zip(rows[r], lead)]
        rank += 1
    return rank


@dataclass(frozen=True)
class TheorySpace:
    """A finite-dimensional probabilistic theory with unit-normalized states."""

    name: str
    dim: int
    extreme_points: tuple[Vec, ...]
    unit: Vec

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("theory dimension must be positive")
        if len(self.unit) != self.dim:
            raise InputError("unit functional has wrong length")
        if not self.extreme_points:
            raise InputError("theory needs at least one extreme point")
        seen = set()
        for x in self.extreme_points:
            if len(x) != self.dim:
                raise InputError("extreme point has wrong length")
            if dot(self.unit, x) != 1:
                raise InputError("unit functional must equal 1 on every extreme point")
            if x in seen:
                raise InputError("extreme points must be pairwise distinct")
            seen.add(x)
        if _rank(self.extreme_points, self.dim) != self.dim:
            raise InputError("extreme points must span the full coordinate space")

    @classmethod
    def make(cls, name, dim, extreme_points, unit) -> "TheorySpace":
        return cls(str(name), int(dim), tuple(vec(x) for x in extreme_points), vec(unit))

    @cached_property
    def _integer_points(self) -> tuple[tuple[list[int], int], ...]:
        """Each extreme point as integers over its own least common
        denominator, computed once per theory for the effect checks."""
        return tuple(lp._integer_row(x) for x in self.extreme_points)

    @cached_property
    def _integer_unit(self) -> tuple[list[int], int]:
        """The unit functional as integers over its least common
        denominator, computed once per theory."""
        return lp._integer_row(self.unit)

    def _positivity(self, cells: int) -> tuple:
        """The rows ``cell . x >= 0`` of a program over ``cells`` cells of
        ``dim`` columns, by extreme point and then by cell, as stored in
        ``lp.LinearProgram.entries``; built once per theory and cell count."""
        blocks = self.__dict__.setdefault("_blocks", {})
        if cells not in blocks:
            blocks[cells] = tuple((tuple([(first + r, a) for r, a in enumerate(nums) if a]), den)
                                  for nums, den in self._integer_points
                                  for first in range(0, cells * self.dim, self.dim))
        return blocks[cells]


def _sums_to_unit(theory: TheorySpace, effects) -> bool:
    """Do the effects' coefficients add up exactly to the theory's unit?
    Checked in integers: their sum as ``S/L`` over the lcm ``L`` of all
    their denominators, and ``S*V == U*L`` with the unit as ``U/V``."""
    den = lcm(*(c.denominator for e in effects for c in e.coeffs))
    total = [0] * theory.dim
    for e in effects:
        for r, c in enumerate(e.coeffs):
            total[r] += c.numerator * (den // c.denominator)
    unit, unit_den = theory._integer_unit
    return all(s * unit_den == u * den for s, u in zip(total, unit))


@dataclass(frozen=True)
class State:
    """A validated point of the state polytope; create via validate_state."""

    theory: TheorySpace
    coords: Vec
    weights: tuple[Fraction, ...] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Effect:
    """A linear functional with values in [0, 1] on the whole polytope."""

    theory: TheorySpace
    coeffs: Vec

    def __post_init__(self):
        """Checks 0 <= e.x <= 1 at every extreme point in integers: with
        ``e`` as ``n/E`` and ``x`` as ``X/D``, ``0 <= n.X <= E*D``."""
        if len(self.coeffs) != self.theory.dim:
            raise InputError("effect coefficient vector has wrong length")
        nums, den = lp._integer_row(self.coeffs)
        support = [(r, a) for r, a in enumerate(nums) if a]
        for point, point_den in self.theory._integer_points:
            v = sum(a * point[r] for r, a in support)
            if v < 0 or v > den * point_den:
                raise InputError("effect leaves [0, 1] on an extreme point")

    def value(self, state) -> Fraction:
        coords = state.coords if isinstance(state, State) else state
        return dot(self.coeffs, coords)



@dataclass(frozen=True)
class Distribution:
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if any(p < 0 for p in self.probs):
            raise InputError("probabilities must be nonnegative")
        if sum(self.probs) != 1:
            raise InputError("probabilities must sum to exactly 1")

    @classmethod
    def make(cls, values) -> "Distribution":
        return cls(vec(values))

    def __len__(self):
        return len(self.probs)


@dataclass(frozen=True)
class OutcomeMap:
    """A total relabelling of outcomes (source label -> target label)."""

    pairs: tuple[tuple[str, str], ...]

    @classmethod
    def make(cls, mapping) -> "OutcomeMap":
        items = tuple((str(k), str(v)) for k, v in dict(mapping).items())
        return cls(items)

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self.pairs)


@dataclass(frozen=True)
class Observable:
    theory: TheorySpace
    outcomes: tuple[str, ...]
    effects: tuple[Effect, ...]

    def __post_init__(self):
        if not self.outcomes:
            raise InputError("an observable needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise InputError("outcome labels must be distinct")
        if len(self.effects) != len(self.outcomes):
            raise InputError("one effect per outcome required")
        if any(e.theory != self.theory for e in self.effects):
            raise InputError("effect belongs to a different theory")
        if not _sums_to_unit(self.theory, self.effects):
            raise InputError("effects must sum exactly to the unit functional")

    def __len__(self):
        return len(self.outcomes)


def apply(observable: Observable, state: State) -> Distribution:
    """Outcome distribution of an observable in a given state."""
    if state.theory != observable.theory:
        raise InputError("observable and state belong to different theories")
    return Distribution(tuple(e.value(state) for e in observable.effects))


def make_trivial(theory: TheorySpace, p: Distribution, labels) -> Observable:
    """The state-independent observable that always reports ``p``."""
    labels = tuple(str(s) for s in labels)
    if len(labels) != len(p):
        raise InputError("label count does not match the distribution length")
    effects = tuple(Effect(theory, tuple(pj * u for u in theory.unit)) for pj in p.probs)
    return Observable(theory, labels, effects)


def uniform_trivial(theory: TheorySpace, labels) -> Observable:
    labels = tuple(str(s) for s in labels)
    share = Fraction(1, len(labels))
    return make_trivial(theory, Distribution((share,) * len(labels)), labels)


def trivial_distribution(observable: Observable) -> Distribution | None:
    """The constant distribution of a trivial observable, else None."""
    probe = observable.theory.extreme_points[0]
    probs = []
    for e in observable.effects:
        pj = e.value(probe)
        if e.coeffs != tuple(pj * u for u in observable.theory.unit):
            return None
        probs.append(pj)
    return Distribution(tuple(probs))


def mix(observables, weights) -> Observable:
    """Effect-wise convex combination of observables with equal outcome lists."""
    observables = list(observables)
    weights = vec(weights)
    if not observables or len(observables) != len(weights):
        raise InputError("need one weight per observable")
    if any(w < 0 for w in weights) or sum(weights) != 1:
        raise InputError("weights must be nonnegative and sum to 1")
    first = observables[0]
    for m in observables[1:]:
        if m.theory != first.theory:
            raise InputError("mixed observables must share one theory")
        if m.outcomes != first.outcomes:
            raise InputError("mixed observables must share one outcome list")
    dim = first.theory.dim
    effects = []
    for j in range(len(first.outcomes)):
        coeffs = [Fraction(0)] * dim
        for m, w in zip(observables, weights):
            if not w:
                continue
            for k, c in enumerate(m.effects[j].coeffs):
                coeffs[k] += w * c
        effects.append(Effect(first.theory, tuple(coeffs)))
    return Observable(first.theory, first.outcomes, tuple(effects))


def noisy(observable: Observable, sharpness, trivial: Observable) -> Observable:
    """sharpness * observable + (1 - sharpness) * trivial.

    The remaining weight 1 - sharpness is the proportion of pure noise.
    """
    lam = frac(sharpness)
    if lam < 0 or lam > 1:
        raise InputError("sharpness must lie in [0, 1]")
    if trivial.outcomes != observable.outcomes:
        raise InputError("noise observable must share the outcome list")
    if trivial_distribution(trivial) is None:
        raise InputError("noise observable must be trivial")
    return mix([observable, trivial], [lam, 1 - lam])


def post_process(observable: Observable, g: OutcomeMap) -> Observable:
    """Relabel outcomes; merged labels get the sum of their fiber's effects."""
    mapping = g.mapping
    for label in observable.outcomes:
        if label not in mapping:
            raise InputError(f"outcome map is not defined on {label!r}")
    targets = []
    for label in observable.outcomes:
        t = mapping[label]
        if t not in targets:
            targets.append(t)
    dim = observable.theory.dim
    sums = {t: [Fraction(0)] * dim for t in targets}
    for label, e in zip(observable.outcomes, observable.effects):
        acc = sums[mapping[label]]
        for k, c in enumerate(e.coeffs):
            acc[k] += c
    effects = tuple(Effect(observable.theory, tuple(sums[t])) for t in targets)
    return Observable(observable.theory, tuple(targets), effects)


def validate_state(theory: TheorySpace, coords) -> State:
    """Accept a vector as a state iff it lies in the polytope.

    Returns the state with its convex-decomposition weights over the
    extreme points; otherwise raises :class:`HullRejection` carrying a
    functional that is nonnegative on every extreme point but negative
    on the rejected vector.
    """
    v = vec(coords)
    if len(v) != theory.dim:
        raise InputError("state vector has wrong length")
    points = theory.extreme_points
    k = len(points)
    constraints = []
    for r in range(theory.dim):
        constraints.append((tuple(x[r] for x in points), "=", v[r]))
    constraints.append(((Fraction(1),) * k, "=", Fraction(1)))
    prog = lp.LinearProgram.create(k, constraints)
    out = lp.solve(prog)
    if isinstance(out, lp.Optimal):
        return State(theory, v, out.point)
    y = out.farkas
    separating = tuple(y[r] + y[theory.dim] * theory.unit[r] for r in range(theory.dim))
    raise HullRejection(v, separating)
