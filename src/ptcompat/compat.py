"""Joint-measurability analysis: verdicts, noise thresholds, regions.

Every question asks whether the noisy versions
``lambda_k*M_k + (1 - lambda_k)*T_k`` of a family (``T_k`` trivial) admit
a joint observable, and is decided by one exact rational LP from
:func:`_family_program`.  Axis k has sharpness ``a_k + b_k*s``:

* plain verdict: (1, 0) on every axis;
* region membership: (lambda_k, 0);
* one-sided index: (1, 0) and (0, 1), maximizing s;
* boundary ray along w: (0, w_k), maximizing s.

The unknowns are the ``dim`` free coefficients of every outcome cell,
one nonnegative noise variable per outcome of each axis that is not
sharp (it stands for the bilinear noise-weight-times-noise term, which
keeps everything a single LP), and s.  The rows are the marginal
equalities, imposed coefficient-wise (the extreme points span the
coordinate space, so this equals state-by-state equality), the noise
totals, and nonnegativity of every cell at every extreme point;
docs/formats.md gives the exact order.

Every optimal point goes through :func:`_family_witness`, which decodes
the joint observable and compares each of its marginals exactly with
the noisy observable it must equal.  Incompatible verdicts carry the
Farkas certificate of the solved program, which is the program the
public builders (:func:`build_joint_lp`, :func:`build_region_lp`)
return.  All functions are pure and deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import lp
from .errors import InputError, InternalError
from .model import (
    Distribution,
    Effect,
    Observable,
    TheorySpace,
    _sums_to_unit,
    vec,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class JointObservable:
    """An observable over a product outcome grid, stored cell by cell.

    ``axes`` holds the outcome labels of each marginal axis; ``effects``
    is the row-major list over the product grid.
    """

    theory: TheorySpace
    axes: tuple[tuple[str, ...], ...]
    effects: tuple[Effect, ...]

    def __post_init__(self):
        sizes = self.shape
        if not sizes or any(m < 1 for m in sizes):
            raise InputError("every axis needs at least one outcome")
        if len(self.effects) != math.prod(sizes):
            raise InputError("effect count does not match the outcome grid")
        if any(e.theory != self.theory for e in self.effects):
            raise InputError("joint effect belongs to a different theory")
        if not _sums_to_unit(self.theory, self.effects):
            raise InputError("joint effects must sum exactly to the unit")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    def cell(self, index: tuple[int, ...]) -> Effect:
        flat = 0
        for size, i in zip(self.shape, index):
            if not 0 <= i < size:
                raise InputError("cell index out of range")
            flat = flat * size + i
        return self.effects[flat]


def marginal(joint: JointObservable, axis: int) -> Observable:
    """Sum the grid effects over all axes except ``axis``."""
    if not 0 <= axis < len(joint.shape):
        raise InputError("axis out of range")
    effects = tuple(Effect(joint.theory, s) for s in _marginal_sums(joint, axis))
    return Observable(joint.theory, joint.axes[axis], effects)


def _marginal_sums(joint, axis):
    """Coefficient tuples of the marginal along ``axis``, one per outcome."""
    sizes = joint.shape
    sums = [[_ZERO] * joint.theory.dim for _ in range(sizes[axis])]
    for cell, effect in zip(itertools.product(*(range(m) for m in sizes)), joint.effects):
        acc = sums[cell[axis]]
        for j, c in enumerate(effect.coeffs):
            acc[j] += c
    return [tuple(acc) for acc in sums]


@dataclass(frozen=True)
class Compatible:
    witness: JointObservable


@dataclass(frozen=True)
class Incompatible:
    certificate: lp.Infeasible


CompatVerdict = Compatible | Incompatible


@dataclass(frozen=True)
class IndexResult:
    """Largest sharpness at which the second observable stays jointly
    measurable with the first, plus the optimizing witnesses."""

    lambda_star: Fraction
    noise_witness: Distribution | None
    joint: JointObservable
    noisy_partner: Observable


@dataclass(frozen=True)
class RegionSample:
    direction: tuple[Fraction, ...]
    reach: Fraction
    boundary: tuple[Fraction, ...]
    joint: JointObservable
    noises: tuple[Distribution | None, ...]


@dataclass(frozen=True)
class EstimateResult:
    upper_bound: Fraction
    argmin_pair: tuple[Observable, Observable] | None
    argmin_index: int | None
    values: tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# the family program

_SHARP = (_ONE, _ZERO)
_INDEX_AXES = (_SHARP, (_ZERO, _ONE))

# each cell of the outcome grid brings dim free variables and one row per
# extreme point; a plain check of 64 cells on gbit-square takes about half
# a minute on a 2-core host, and each further doubling is many times that
MAX_GRID_CELLS = 64


class _Grid:
    """A family of observables over one theory, and its outcome grid."""

    def __init__(self, observables):
        observables = list(observables)
        if not observables:
            raise InputError("need at least one observable")
        theory = observables[0].theory
        for m in observables[1:]:
            if m.theory != theory:
                raise InputError("observables belong to different theories")
        if math.prod(len(m) for m in observables) > MAX_GRID_CELLS:
            raise InputError(f"a family's outcome grid has at most {MAX_GRID_CELLS} cells "
                             "(the product of the observables' outcome counts)")
        self.observables = observables
        self.theory = theory
        self.dim = theory.dim
        # cell i's coefficients are variables i*dim up to (i + 1)*dim
        self.cells = list(itertools.product(*(range(len(m)) for m in observables)))
        self.n_cell_vars = len(self.cells) * self.dim

    def layout(self, axes):
        """Variables of the program where axis k has sharpness a_k + b_k*s.

        Cell coefficients come first, then one noise block per axis that
        is not sharp ((a_k, b_k) != (1, 0)), then ``s`` if any b_k != 0.
        Returns the first noise variable of every axis (None when sharp),
        the index of ``s`` (None when absent) and the variable count.
        """
        noise = []
        pos = self.n_cell_vars
        for (a, b), m in zip(axes, self.observables):
            if (a, b) == _SHARP:
                noise.append(None)
            else:
                noise.append(pos)
                pos += len(m)
        if not any(b for _, b in axes):
            return noise, None, pos
        return noise, pos, pos + 1


def _family_program(grid, axes) -> lp.LinearProgram:
    """Do the noisy versions (a_k + b_k*s)*M_k + noise of the family admit
    a joint observable?  ``axes[k] = (a_k, b_k)``; maximizes ``s`` when
    the program has one, and is a feasibility program otherwise.

    Rows, in order: the marginal equalities
    ``cells - t_kj*unit - b_k*s*M_kj = a_k*M_kj`` per (axis, outcome,
    coordinate); the noise total ``sum_j t_kj + b_k*s = 1 - a_k`` per axis
    that is not sharp; and ``cell . x >= 0`` per extreme point x and cell.
    No row states ``b_k*s <= 1``: the noise total with t >= 0 implies it.
    Only the equalities are built here: the positivity rows are the
    theory's cached block for this many cells, already in stored form.
    """
    noise, scale, n = grid.layout(axes)
    unit, dim = grid.theory.unit, grid.dim
    rows = []  # each row as {column: value} over its nonzero entries
    for k, (m, (a, b)) in enumerate(zip(grid.observables, axes)):
        for j, effect in enumerate(m.effects):
            group = [i * dim for i, c in enumerate(grid.cells) if c[k] == j]
            for r, mr in enumerate(effect.coeffs):
                coeffs = {first + r: _ONE for first in group}
                if noise[k] is not None and unit[r]:
                    coeffs[noise[k] + j] = -unit[r]
                if b and mr:
                    coeffs[scale] = -b * mr
                rows.append((coeffs, "=", a * mr))
    for m, (a, b), first in zip(grid.observables, axes, noise):
        if first is not None:
            coeffs = {first + j: _ONE for j in range(len(m))}
            if b:
                coeffs[scale] = b
            rows.append((coeffs, "=", 1 - a))
    positivity = grid.theory._positivity(len(grid.cells))
    objective = None if scale is None else [_ONE if j == scale else _ZERO for j in range(n)]
    nonneg = [False] * grid.n_cell_vars + [True] * (n - grid.n_cell_vars)
    return lp.LinearProgram.create(n, rows, objective=objective, nonneg=nonneg,
                                   entries=positivity, relations=(">=",) * len(positivity))


class _Witness(NamedTuple):
    joint: JointObservable
    scale: Fraction  # s, or 0 when the program has none
    sharpness: tuple[Fraction, ...]  # a_k + b_k*s per axis
    noises: tuple[Distribution | None, ...]  # None at sharpness 1
    marginals: tuple[list[list[int]], ...]  # checked sums per axis and outcome, over den
    den: int  # the positive common denominator of the point and the marginals


def _family_witness(grid, axes, point) -> _Witness:
    """Decode the joint from an optimal point of :func:`_family_program`
    and check each marginal exactly against the noisy observable
    ``(a_k + b_k*s)*M_kj + t_kj*unit`` that it must equal.

    The check is made in integers: with the point as ``X/D``, outcome j's
    cells sum to ``S/D`` and ``t_kj`` is ``T/D``; with the sharpness as
    ``L/Q``, ``M_kj`` as ``C/E`` and the unit as ``U/V``, every coordinate
    must satisfy ``S*Q*E*V == L*D*V*C + T*Q*E*U``."""
    noise, scale, _ = grid.layout(axes)
    dim = grid.dim
    effects = tuple(Effect(grid.theory, point[i * dim:(i + 1) * dim])
                    for i in range(len(grid.cells)))
    joint = JointObservable(grid.theory, tuple(m.outcomes for m in grid.observables), effects)
    s = _ZERO if scale is None else point[scale]
    nums, den = lp._integer_row(point)
    unit, unit_den = grid.theory._integer_unit
    sharpness, noises, marginals = [], [], []
    for k, (m, (a, b), first) in enumerate(zip(grid.observables, axes, noise)):
        lam = a + b * s
        sums = [[0] * dim for _ in m.effects]
        for i, cell in enumerate(grid.cells):
            acc = sums[cell[k]]
            for r, x in enumerate(nums[i * dim:(i + 1) * dim]):
                acc[r] += x
        for j, (effect, total) in enumerate(zip(m.effects, sums)):
            coeffs, coeffs_den = lp._integer_row(effect.coeffs)
            left = lam.denominator * coeffs_den * unit_den
            sharp = lam.numerator * den * unit_den
            noisy = 0 if first is None else nums[first + j] * lam.denominator * coeffs_den
            if any(x * left != c * sharp + u * noisy for x, c, u in zip(total, coeffs, unit)):
                raise InternalError("joint witness fails exact marginal equality")
        t = (_ZERO,) * len(m) if first is None else point[first:first + len(m)]
        sharpness.append(lam)
        noises.append(Distribution(tuple(tj / (1 - lam) for tj in t)) if lam < 1 else None)
        marginals.append(sums)
    return _Witness(joint, s, tuple(sharpness), tuple(noises), tuple(marginals), den)


def _solve_family(grid, axes):
    """The solved program's Infeasible outcome, or its checked witness."""
    out = lp.solve(_family_program(grid, axes))
    if isinstance(out, lp.Optimal):
        return _family_witness(grid, axes, out.point)
    if any(b for _, b in axes):
        # s = 0 is always feasible: the scaled axes are pure noise there and
        # the others sharp
        raise InternalError("sharpness program must attain an optimum")
    return out


# ---------------------------------------------------------------------------
# plain compatibility


def build_joint_lp(observables) -> lp.LinearProgram:
    """Feasibility program for a joint observable of the given family."""
    grid = _Grid(observables)
    return _family_program(grid, [_SHARP] * len(grid.observables))


def check_compatible(observables) -> CompatVerdict:
    """Decide joint measurability with an exact witness or certificate."""
    grid = _Grid(observables)
    out = _solve_family(grid, [_SHARP] * len(grid.observables))
    return Incompatible(out) if isinstance(out, lp.Infeasible) else Compatible(out.joint)


# ---------------------------------------------------------------------------
# noise thresholds


def build_index_lp(first: Observable, second: Observable) -> lp.LinearProgram:
    """Program behind :func:`compat_index`: maximize the sharpness of
    the second observable subject to joint measurability with the first."""
    return _family_program(_Grid([first, second]), _INDEX_AXES)


def compat_index(first: Observable, second: Observable) -> IndexResult:
    """Maximize the sharpness of the second observable's noisy version
    that remains jointly measurable with the first (kept exact).

    The optimum is attained, so the compatibility interval is the
    closed segment [0, lambda_star].
    """
    w = _solve_family(_Grid([first, second]), _INDEX_AXES)
    theory = second.theory
    partner = Observable(theory, second.outcomes,
                         tuple(Effect(theory, tuple(Fraction(x, w.den) for x in total))
                               for total in w.marginals[1]))
    return IndexResult(w.sharpness[1], w.noises[1], w.joint, partner)


def compat_interval(first: Observable, second: Observable) -> tuple[Fraction, Fraction]:
    """Closed interval [0, lambda_star] of admissible sharpness values."""
    return (_ZERO, compat_index(first, second).lambda_star)


# ---------------------------------------------------------------------------
# compatibility regions


def _membership_axes(grid, lambdas):
    lambdas = vec(lambdas)
    if len(lambdas) != len(grid.observables):
        raise InputError("need one sharpness per observable")
    if any(l < 0 or l > 1 for l in lambdas):
        raise InputError("sharpness values must lie in [0, 1]^n")
    return [(l, _ZERO) for l in lambdas]


def _scan_axes(grid, direction):
    w = vec(direction)
    if len(w) != len(grid.observables):
        raise InputError("direction length does not match the family size")
    if any(c < 0 for c in w) or sum(w) != 1:
        raise InputError("directions must be nonnegative with unit sum")
    return [(_ZERO, c) for c in w]


def build_region_lp(observables, lambdas) -> lp.LinearProgram:
    """Feasibility program: do the lambda-sharp noisy versions admit a joint?"""
    grid = _Grid(observables)
    return _family_program(grid, _membership_axes(grid, lambdas))


def region_membership(observables, lambdas) -> CompatVerdict:
    """Exact membership of a sharpness point in the compatibility region."""
    grid = _Grid(observables)
    out = _solve_family(grid, _membership_axes(grid, lambdas))
    return Incompatible(out) if isinstance(out, lp.Infeasible) else Compatible(out.joint)


def build_scan_lp(observables, direction) -> lp.LinearProgram:
    """Program behind one boundary-scan direction: maximize the scaling
    of the direction subject to membership.  The noise totals keep the
    scaled point inside [0, 1]^n, so no clipping rows are needed."""
    grid = _Grid(observables)
    return _family_program(grid, _scan_axes(grid, direction))


def region_boundary_scan(observables, directions) -> list[RegionSample]:
    """Maximal scaling of each direction that stays inside the region.

    Convexity of the region and feasibility of the origin justify the
    ray scan; the scaled point stays in [0, 1]^n.  Directions are
    processed independently, so results do not depend on evaluation
    order.
    """
    grid = _Grid(observables)
    samples = []
    for direction in directions:
        axes = _scan_axes(grid, direction)
        w = _solve_family(grid, axes)
        samples.append(RegionSample(tuple(b for _, b in axes), w.scale, w.sharpness,
                                    w.joint, w.noises))
    return samples


MAX_DIRECTIONS = 1024  # each direction is one solved program


def angular_directions(count: int) -> list[tuple[Fraction, Fraction]]:
    """Evenly spaced unit-sum directions (1 - i/(n-1), i/(n-1)) from axis to axis."""
    if count < 1:
        raise InputError("need at least one direction")
    if count > MAX_DIRECTIONS:
        raise InputError(f"at most {MAX_DIRECTIONS} directions")
    if count == 1:
        return [(Fraction(1, 2), Fraction(1, 2))]
    return [(1 - Fraction(i, count - 1), Fraction(i, count - 1)) for i in range(count)]


# ---------------------------------------------------------------------------
# theory-level estimate


def pair_seed(seed: int, index: int, half: int) -> int:
    return seed * 1_000_003 + 2 * index + half


MAX_SAMPLES = 10_000  # each sampled pair is one solved program


def theory_index_estimate(theory: TheorySpace, pairs: int, seed: int = 0,
                          outcomes: int = 2) -> EstimateResult:
    """Upper bound on the theory's compatibility index from sampled pairs.

    The bound is the minimum of the pair indices over a deterministic
    sample, hence nonincreasing as the sample grows (prefix property).
    A sample budget of zero returns the vacuous bound 1; a negative one,
    or one past ``MAX_SAMPLES``, is refused.
    """
    from .catalog import random_observable

    if pairs < 0:
        raise InputError(f"the number of sampled pairs must be at least 0, got {pairs}")
    if pairs > MAX_SAMPLES:
        raise InputError(f"at most {MAX_SAMPLES} sampled pairs, got {pairs}")
    best = _ONE
    argmin = None
    argmin_index = None
    values = []
    for i in range(pairs):
        first = random_observable(theory, outcomes, pair_seed(seed, i, 0))
        second = random_observable(theory, outcomes, pair_seed(seed, i, 1))
        value = compat_index(first, second).lambda_star
        values.append(value)
        if value < best:
            best = value
            argmin = (first, second)
            argmin_index = i
    return EstimateResult(best, argmin, argmin_index, tuple(values))
