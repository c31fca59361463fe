"""Exact rational linear programming with verifiable certificates.

Problem form
------------
A program over ``n`` variables:

    optimize    c . x                 (maximize, minimize, or feasibility)
    subject to  a_i . x  REL_i  b_i   with REL_i in {<=, =, >=}
                x_j >= 0              for variables declared nonnegative
                x_j free              otherwise

All data are exact rationals, ``fractions.Fraction`` at the interface;
results are exact, never rounded.

Outcomes
--------
``Optimal(point, value, duals)``
    The point satisfies every constraint and bound exactly and
    ``value == c . point`` (0 for feasibility-only programs).  Programs
    with an objective also carry one dual per row, which proves that no
    feasible point does better.  For ``max``: ``y >= 0`` on ``<=``
    rows, ``y <= 0`` on ``>=`` rows, free on ``=`` rows, ``A^T y >= c``
    on nonnegative variables, ``A^T y == c`` on free ones, and
    ``b . y == value``; then ``c . x <= (A^T y) . x <= b . y`` for every
    feasible ``x``.  ``min`` mirrors every inequality.  Duals take no
    part in equality between outcomes; feasibility programs carry none.

``Infeasible(farkas)``
    One multiplier per constraint row proving the rows contradictory.
    Multipliers must be >= 0 on inequality rows (a ``>=`` row enters the
    combination negated, i.e. as ``-a.x <= -b``) and are free on
    equality rows.  With ``s_i = -1`` for ``>=`` rows and ``+1``
    otherwise, the combined row ``r = sum_i y_i s_i a_i`` and rhs
    ``beta = sum_i y_i s_i b_i`` must satisfy ``r_j >= 0`` on
    nonnegative variables, ``r_j == 0`` on free variables and
    ``beta < 0``; then ``r . x >= 0 > beta`` refutes every candidate.
    So ``verify`` checks it as a dual ray: the multipliers ``s_i y_i``
    must pass the ``max`` dual conditions above for the objective
    ``c = 0``, with bound ``beta < 0`` in place of ``beta == value``.

``verify`` re-checks any outcome against the program using exact
arithmetic only (no re-solve), in integers: it reads the program's
stored rows and encodes the outcome itself; ``solve`` never returns an
outcome that fails it.

Determinism
-----------
Two-phase primal simplex with Bland's anti-cycling rule and
smallest-index tie breaking, so repeated solves are bit-identical.
Internally the tableau is condensed and held as integers over one common
positive denominator, and pivots by fraction-free (Bareiss) steps whose
divisions are exact; ``_Simplex`` gives the layout (rows stored only for
basic structural columns, one slot for both halves of a free variable).
Its pivots are exactly those of the full tableau, whose integers it
compares, and the interface stays Fraction end to end.  Every program is
solved by row generation: the simplex first runs on the equality rows
alone, and each round adds the inequality rows that its point violates
most, ties broken by row index, until no row is violated.  The scan
lifts the point onto the program as given, in integers over one
denominator, and reads the stored rows there with the gap function of
``verify``: a presolved row is its stored row plus a combination of
equality rows, which all hold at the lifted point, so the gaps are the
same rationals.  So the rows taken in do not depend on where the
inequality rows sit, and certificates returned for the full program
remain exact (rows never taken in carry zero multipliers).  A working set
that leaves the objective unbounded takes in every row at once;
``solve`` raises ``InternalError`` if the full program is unbounded too,
since no program of the package can be.

Presolve
--------
A program stores each row once, as integers over one positive
denominator in lowest terms (``entries``): the ``(column, integer)``
pairs of its nonzero entries in increasing column order, the right side
as the pair at column ``num_vars``.  ``create`` converts each row once,
or takes it already in that form (a family program's positivity rows,
cached per theory).  The dense Fraction ``rows`` and ``rhs`` are derived
on each read, for dumps and outside checks; the presolve, the row scan,
the restoring of results and ``verify`` read the stored integers, so
they visit only nonzero entries and never build a dense row.

Free variables are eliminated through equality rows before the simplex
runs, in two stages.  Every row the stages build is sparse, ``{column:
integer}`` over one positive denominator in lowest terms, the right side
at the column after the last variable; the objective comes out as a
dense list of integers over one positive denominator, the start of the
simplex's cost row.

1. Gauss-Jordan on the equality rows alone, each a dict of its stored
   integers over its stored denominator.  They are taken in index
   order; each one pivots on its first free variable with a nonzero
   coefficient, and an exact, fraction-free step substitutes that
   variable into every other equality row that holds it, visiting the
   nonzero entries of the two rows only, and brings the result back to
   lowest terms.  The combination of original rows that each equality
   row has become is kept alongside, as integer weights over one
   positive denominator.  At the end each pivot row ``R_v`` is nonzero
   on its variable ``v`` (entry ``p_v``) and zero on every other
   eliminated variable.
2. Every other row ``a``, equality rows left without a free variable
   included, and the objective become ``a - sum_v a_v R_v / p_v`` in
   one pass over the nonzeros of ``a`` and of each ``R_v`` it meets, in
   integers over ``a``'s denominator times the lcm of the ``p_v`` it
   meets, brought to lowest terms once.  The objective is reduced at
   once, a row the first time it is read: an inequality row when row
   generation first takes it in, since the row scan reads stored rows.
   Most never enter, so they are never reduced; reading the reduced rows
   in full reduces them all.

The result is the row that Gauss-Jordan steps into every row would
leave: that row is ``a`` plus the one combination of the pivot rows that
is zero on every eliminated variable (there the ``R_v`` are diagonal),
and lowest terms over a positive denominator are unique.  The remaining
rows keep their order, and the objective drops the constant left in its
last place.  All-zero rows need no special case: phase 1 drops ``0 = 0``
and refutes ``0 = b != 0``, and one that holds is never taken in.

Results are mapped back onto the original program:

* points by substitution into the eliminated rows;
* multipliers (Farkas and duals) by keeping those of the remaining rows
  and giving each eliminated row the unique weight that cancels the
  combination on its eliminated variable (for duals: that matches the
  objective there), which is the combination its substitution
  contributed.

So certificates always index the rows of the program as given, and they
are verified against it.

Programs and outcomes are immutable values safe to share; each internal
solver instance is single-use and confined to its call, so distinct
solves may run concurrently.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import InputError, InternalError

RELATIONS = ("<=", "=", ">=")

MAX = "max"
MIN = "min"
FEASIBILITY = "feasibility"

# Rows added per round of row generation.  A tuning knob only; results
# do not depend on it.
_LAZY_BATCH = 24
_MAX_PIVOTS = 5_000_000

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LinearProgram:
    num_vars: int
    nonneg: tuple[bool, ...]
    entries: tuple[tuple[tuple[tuple[int, int], ...], int], ...]
    relations: tuple[str, ...]
    objective: tuple[Fraction, ...] | None
    sense: str

    def __post_init__(self):
        n = self.num_vars
        if type(n) is not int or n < 1:
            raise InputError(f"the variable count {n!r} is not a positive int")
        # tuples throughout, so that a checked program stays checked and hashes
        if not all(type(f) is tuple for f in (self.nonneg, self.entries, self.relations)):
            raise InputError("the bounds, rows and relations are not tuples")
        if len(self.nonneg) != n or any(type(nn) is not bool for nn in self.nonneg):
            raise InputError("the bounds are not one bool per variable")
        if len(self.entries) != len(self.relations):
            raise InputError("constraint lists have mismatched lengths")
        for row in self.entries:
            if type(row) is not tuple or len(row) != 2 or type(row[0]) is not tuple:
                raise InputError("a row is not a tuple of a tuple of pairs and a denominator")
            pairs, den = row
            if type(den) is not int or den < 1:
                raise InputError(f"a row's denominator {den!r} is not a positive int")
            last, g = -1, den
            for pair in pairs:
                if type(pair) is not tuple or len(pair) != 2:
                    raise InputError("a row entry is not a (column, integer) tuple")
                j, a = pair
                if not (type(j) is int and last < j <= n):
                    raise InputError(f"constraint column {j!r} is out of order or not one "
                                     f"of the {n} variables or the right side")
                if type(a) is not int or not a:
                    raise InputError(f"constraint column {j} holds {a!r}, not a nonzero int")
                if g != 1:
                    g = gcd(g, a)
                last = j
            if g != 1:
                raise InputError("a constraint row is not in lowest terms")
        for rel in self.relations:
            if rel not in RELATIONS:
                raise InputError(f"unknown relation {rel!r}")
        if self.sense not in (MAX, MIN, FEASIBILITY):
            raise InputError(f"unknown objective sense {self.sense!r}")
        if (self.objective is None) != (self.sense == FEASIBILITY):
            raise InputError("objective row must be present iff sense is not feasibility")
        if self.objective is not None:
            if type(self.objective) is not tuple or len(self.objective) != n:
                raise InputError("objective row is not a tuple of one value per variable")
            if not all(isinstance(c, Fraction) for c in self.objective):
                raise InputError("every objective value must be a Fraction")
        if not self.entries and self.objective is None:
            raise InputError("program has neither constraints nor objective")

    @classmethod
    def create(cls, num_vars, constraints, objective=None, sense=None, nonneg=True,
               entries=(), relations=()):
        """Normalizing constructor.

        ``constraints`` is an iterable of ``(coeffs, relation, rhs)``, where
        ``coeffs`` is either a sequence of ``num_vars`` entries or a mapping
        ``{column: value}`` that lists some of the columns (0-based) and
        leaves the others zero; both forms give the same program.
        ``nonneg`` is a single bool applied to all variables or one bool
        per variable.  Numeric entries may be ints, Fractions, or strings
        like ``"2/3"``.  Each row is stored as integers over one
        denominator, its right side at column ``num_vars``.  Rows already
        in that form may follow as ``entries``, with their ``relations``;
        they are checked like every row.
        """
        if isinstance(nonneg, bool):
            bounds = (nonneg,) * num_vars
        else:
            bounds = tuple(bool(b) for b in nonneg)
        columns = set(range(num_vars))
        stored, rels = [], []
        for coeffs, rel, b in constraints:
            if isinstance(coeffs, Mapping):
                # a stray column is refused, even at 0, and never read as the
                # right side
                if not coeffs.keys() <= columns:
                    raise InputError(f"a constraint column is not one of the {num_vars} variables")
                pairs = sorted(coeffs.items())
            elif len(coeffs) != num_vars:
                raise InputError("constraint row has wrong length")
            else:
                pairs = enumerate(coeffs)
            stored.append(_integer_pairs([*pairs, (num_vars, b)]))
            rels.append(rel)
        obj = None if objective is None else tuple(map(Fraction, objective))
        if sense is None:
            sense = FEASIBILITY if obj is None else MAX
        return cls(num_vars, bounds, (*stored, *entries), (*rels, *relations), obj, sense)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The constraint rows as dense Fraction tuples, built from
        ``entries`` on each read."""
        dense = []
        for pairs, den in self.entries:
            values = dict(pairs)
            dense.append(tuple(Fraction(values[j], den) if j in values else _ZERO
                               for j in range(self.num_vars)))
        return tuple(dense)

    @property
    def rhs(self) -> tuple[Fraction, ...]:
        """The right sides as Fractions, built from ``entries`` on each
        read."""
        return tuple(Fraction(dict(pairs).get(self.num_vars, 0), den)
                     for pairs, den in self.entries)


def _integer_pairs(pairs):
    """``(column, value)`` pairs as the ``(column, integer)`` pairs of their
    nonzero values over the least common denominator, which is the positive
    denominator that puts them in lowest terms.  Each value is read once."""
    terms = []
    den = 1
    for j, c in pairs:
        try:
            a, d = c.as_integer_ratio()
        except AttributeError:  # a string like "2/3"
            a, d = Fraction(c).as_integer_ratio()
        if a:
            terms.append((j, a, d))
            if den % d:
                den = lcm(den, d)
    return tuple([(j, a if d == den else a * (den // d)) for j, a, d in terms]), den


@dataclass(frozen=True)
class Optimal:
    point: tuple[Fraction, ...]
    value: Fraction
    duals: tuple[Fraction, ...] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Infeasible:
    farkas: tuple[Fraction, ...]


LpOutcome = Optimal | Infeasible


def verify(lp: LinearProgram, outcome: LpOutcome) -> bool:
    """Re-check an outcome's certificate with exact arithmetic only.

    The check reads the program's stored integer rows, and encodes the
    rest itself: a point is put over the least common denominator
    of its entries, and multipliers, each taken with its row's
    denominator, over the lcm of those products, so that every comparison
    is one between integers.  It reads no reduced row.  An outcome that
    holds a number other than an int or a Fraction fails.
    """
    if isinstance(outcome, Optimal):
        point, duals = outcome.point, outcome.duals
        if not _rationals((*point, outcome.value, *(duals or ()))) or len(point) != lp.num_vars:
            return False
        if any(nn and x < 0 for x, nn in zip(point, lp.nonneg)):
            return False
        den = lcm(*(x.denominator for x in point))
        ints = [x.numerator * (den // x.denominator) for x in point] + [-den]
        if any(_gaps(lp, ints, range(len(lp.relations)))):
            return False
        if lp.objective is None:
            return outcome.value == 0 and duals is None
        if outcome.value != _dot(lp.objective, point):
            return False
        if duals is None or len(duals) != len(lp.relations):
            return False
        y, c, value = duals, lp.objective, outcome.value
        if lp.sense == MIN:  # min mirrors every inequality
            y, c, value = [-v for v in y], [-a for a in c], -value
        bound = _dual_bound(lp, y, c)
        return bound is not None and bound == value
    if isinstance(outcome, Infeasible):
        # a dual ray for the objective c = 0, a >= row entering negated
        farkas = outcome.farkas
        if not _rationals(farkas) or len(farkas) != len(lp.relations):
            return False
        bound = _dual_bound(lp, [-y if rel == ">=" else y for y, rel in zip(farkas, lp.relations)],
                            [_ZERO] * lp.num_vars)
        return bound is not None and bound < 0
    return False


def _rationals(values):
    """Whether every value is an int or a Fraction, all that verify reads."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def _gaps(lp, ints, rows):
    """The ``(gap, row)`` pairs of the listed stored rows that a point
    violates, in the order listed.  With the point as integers ``X`` over
    ``D`` and ``-D`` at the right side's column (``ints``), a stored row's
    ``sum a X`` is its gap ``a.x - b`` times ``D`` and its denominator."""
    entries, relations = lp.entries, lp.relations
    for i in rows:
        gap = 0
        for j, a in entries[i][0]:
            x = ints[j]
            if x:
                gap += a * x
        rel = relations[i]
        if (rel == "<=" and gap > 0) or (rel == ">=" and gap < 0) or (rel == "=" and gap):
            yield gap, i


def _dual_bound(lp, y, c):
    """``b . y`` if the row multipliers ``y`` are dual feasible for
    maximizing ``c . x``, else None: ``y >= 0`` on ``<=`` rows, ``y <= 0``
    on ``>=`` rows, ``A^T y >= c`` on nonnegative variables and
    ``A^T y == c`` on free ones.  Then ``c . x <= b . y`` for every
    feasible ``x``.

    In integers: row i is its integers over ``den_i``, so it enters with
    the weight ``y_i / den_i``; over the lcm ``D`` of those weights'
    denominators, ``A^T y`` and ``b . y`` (the right side's column) are
    integers over ``D``."""
    used = []
    for v, (pairs, den), rel in zip(y, lp.entries, lp.relations):
        if (rel == "<=" and v < 0) or (rel == ">=" and v > 0):
            return None
        if v:
            used.append((v.numerator, v.denominator * den, pairs))
    scale = lcm(*(d for _, d, _ in used))
    combined = [0] * (lp.num_vars + 1)
    for u, d, pairs in used:
        w = u * (scale // d)
        for j, a in pairs:
            combined[j] += w * a
    bound = combined.pop()
    for r, cj, nn in zip(combined, c, lp.nonneg):
        r, target = r * cj.denominator, cj.numerator * scale
        if nn:
            if r < target:
                return None
        elif r != target:
            return None
    return Fraction(bound, scale)


def _dot(row, vec):
    """Exact dot product of rationals (ints allowed), summed as one integer
    fraction and reduced once."""
    num, den = 0, 1
    for a, x in zip(row, vec):
        an = a.numerator
        if an:
            xn = x.numerator
            if xn:
                d = a.denominator * x.denominator
                if den % d == 0:
                    num += an * xn * (den // d)
                else:
                    g = gcd(den, d)
                    num = num * (d // g) + an * xn * (den // g)
                    den = den // g * d
    return Fraction(num, den)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; the returned outcome always passes :func:`verify`."""
    elimination = _Elimination(lp)
    outcome = elimination.restore(_generate_rows(elimination))
    if not verify(lp, outcome):
        raise InternalError("solver produced an outcome that fails exact verification")
    return outcome


class _Program(NamedTuple):
    """A program after elimination, unvalidated (every variable may be
    gone).  Each row, reduced when first read (``_Rows``), is ``(nums,
    den)``: ``nums`` maps a column to a nonzero integer, the right side at
    column ``num_vars``, over one positive denominator ``den`` in lowest
    terms.  The objective is ``(nums, den)``, ``nums`` a dense list."""

    num_vars: int
    nonneg: tuple[bool, ...]
    rows: Sequence[tuple[dict[int, int], int]]
    relations: tuple[str, ...]
    objective: tuple[list[int], int] | None
    sense: str


class _Elimination:
    """Free variables eliminated through equality rows, and the way back
    (see "Presolve" in the module docstring)."""

    def __init__(self, lp):
        self.lp = lp
        self.pivots = []  # (row, variable) in elimination order
        n = lp.num_vars
        free = [j for j, nn in enumerate(lp.nonneg) if not nn]
        equalities = [i for i, rel in enumerate(lp.relations) if rel == "="]
        entries = lp.entries

        # stage 1: Gauss-Jordan on the equality rows alone, each as integers
        # over one common denominator, the right side at column n
        rows = {i: (dict(entries[i][0]), entries[i][1]) for i in equalities}
        # the combination of original rows that each equality row has become,
        # as integer weights over one positive denominator
        combos = {i: ({i: 1}, 1) for i in equalities}
        for i in equalities:
            nums, den = rows[i]
            v = next((j for j in free if j in nums), None)
            if v is None:
                continue
            free.remove(v)
            p = nums[v]
            for k, (other, other_den) in rows.items():
                f = other.get(v)
                if f is None or k == i:
                    continue
                # row k minus f*den / (other_den*p) times row i, over the
                # product of the two weightings' denominators
                (weights, w_den), (pivot, pivot_den) = combos[k], combos[i]
                combos[k] = _eliminate(weights, w_den, other_den * p * pivot_den, f * den * w_den,
                                       pivot)
                rows[k] = _eliminate(other, other_den, p, f, nums)
            self.pivots.append((i, v))

        gone = {v for _, v in self.pivots}
        pivot_rows = {i for i, _ in self.pivots}
        self.kept_vars = kept = [j for j in range(n) if j not in gone]
        self.kept_rows = [i for i in range(len(lp.relations)) if i not in pivot_rows]
        # each eliminated row R = nums/den, the combination of original rows
        # that gives it, and the factor den/nums[v] that scales it to 1 on v
        self.solved = {}
        for i, v in self.pivots:
            nums, den = rows[i]
            weights, weights_den = combos[i]
            self.solved[i] = (nums, weights, Fraction(den, weights_den * nums[v]))
        # the lcm of the p_v, which puts a lifted point over one denominator
        self.lift_scale = lcm(*(rows[i][0][v] for i, v in self.pivots))

        # stage 2: the objective now, every other row when first read.  With
        # place[j] = (p, sparse), an entry c in column j adds c/p times the
        # (position, integer) list sparse over the kept columns and the right
        # side: a kept column adds itself, and an eliminated variable v adds
        # -R_v/p_v, so a - sum_v a_v R_v / p_v comes out (R_v is zero on every
        # other eliminated variable, so each of its columns but v has one)
        position = {j: k for k, j in enumerate((*kept, n))}
        place = [None] * (n + 1)
        for j, k in position.items():
            place[j] = (1, [(k, 1)])
        for i, v in self.pivots:
            nums = rows[i][0]
            place[v] = (nums[v], [(position[j], -a) for j, a in nums.items() if j != v])
        objective = None
        if lp.objective is not None:
            # the substitution leaves a constant at the right side's position,
            # which the objective drops
            nums, den = _substitute(_integer_pairs(enumerate(lp.objective)), place)
            nums.pop(len(kept), None)
            nums, den = _lowest(nums, den)
            objective = [nums.get(k, 0) for k in range(len(kept))], den
        self.reduced = _Program(len(kept), tuple(lp.nonneg[j] for j in kept),
                                _Rows([entries[i] for i in self.kept_rows], place),
                                tuple(lp.relations[i] for i in self.kept_rows), objective, lp.sense)

    def restore(self, outcome):
        """Map an outcome of the reduced program onto the original one."""
        if isinstance(outcome, Infeasible):
            return Infeasible(self._multipliers(outcome.farkas, None, signed=True))
        lp = self.lp
        ints, den = self._lift(outcome.point)
        point = tuple(Fraction(x, den) for x in ints[:-1])
        value = _dot(lp.objective, point) if lp.objective is not None else _ZERO
        duals = None
        if outcome.duals is not None:
            duals = self._multipliers(outcome.duals, lp.objective, signed=False)
        return Optimal(point, value, duals)

    def _lift(self, values):
        """A point of the reduced program on the program as given, as
        integers ``X`` over one positive ``D``, ``-D`` appended at the right
        side's column (see ``_gaps``).  ``D`` is the kept values' least
        common denominator ``d`` times the lcm of the ``p``.  An eliminated
        variable fills in from its row as ``x_v = (b*D - sum_j a_j X_j) /
        (p*D)``: with ``X`` 0 off the kept variables, the row's ``sum a X``
        is minus that numerator, which is ``D/d`` times an integer."""
        n = self.lp.num_vars
        ints = [0] * (n + 1)
        den = lcm(*(value.denominator for value in values)) * self.lift_scale
        for j, value in zip(self.kept_vars, values):
            ints[j] = value.numerator * (den // value.denominator)
        ints[n] = -den
        for i, v in self.pivots:
            nums = self.solved[i][0]
            ints[v] = -sum(a * ints[j] for j, a in nums.items()) // nums[v]
        return ints, den

    def _multipliers(self, reduced, target, signed):
        """Row multipliers of the original program from those of the reduced
        one: kept rows keep theirs, and the eliminated rows get weights
        under which the combination equals ``target`` (zero when None) on
        every eliminated variable.  ``signed``: Farkas convention, where a
        ``>=`` row enters negated."""
        lp = self.lp
        y = [_ZERO] * len(lp.relations)
        # what the eliminated rows must still add on each eliminated variable
        missing = {v: _ZERO if target is None else target[v] for _, v in self.pivots}
        for i, value in zip(self.kept_rows, reduced):
            if value:
                y[i] = value
                pairs, den = lp.entries[i]
                weight = (-value if signed and lp.relations[i] == ">=" else value) / den
                for j, a in pairs:
                    if j in missing:
                        missing[j] -= weight * a
        for i, v in self.pivots:
            # the final row i is 1 on v and 0 on every other eliminated variable
            z = missing[v]
            if z:
                _, weights, factor = self.solved[i]
                z *= factor
                for l, t in weights.items():
                    y[l] += z * t
        return tuple(y)


class _Rows(Sequence):
    """The kept rows, each carried over by stage 2 of the presolve the
    first time it is read and kept for later reads."""

    def __init__(self, stored, place):
        self.stored, self.place, self.done = stored, place, [None] * len(stored)

    def __len__(self):
        return len(self.stored)

    def __getitem__(self, k):
        if self.done[k] is None:
            self.done[k] = _lowest(*_substitute(self.stored[k], self.place))
        return self.done[k]


def _integer_row(values):
    """Rationals as integers over their least common denominator, which
    is the positive denominator that puts them in lowest terms."""
    den = lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def _lowest(nums, den):
    """The row ``nums/den``, ``{column: integer}`` over a nonzero
    denominator, in lowest terms with a positive denominator and without
    zero entries."""
    g = gcd(den, *nums.values())
    if den < 0:
        g = -g
    if g != 1 or not all(nums.values()):
        nums = {j: a // g for j, a in nums.items() if a}
        den //= g
    return nums, den


def _substitute(row, place):
    """The integer row ``(pairs, den)`` carried over to new positions as
    ``{position: integer}`` over one positive denominator, not yet in
    lowest terms: each ``a`` at column j with ``place[j] = (p, sparse)``
    adds ``a/p * r`` at position k for every ``(k, r)`` in ``sparse``.  The
    denominator is ``den`` times the lcm of the ``p``, so every weight is
    an integer."""
    pairs, den = row
    scale = 1
    for j, _ in pairs:
        p = place[j][0]
        if scale % p:
            scale = lcm(scale, p)
    out = {}
    for j, a in pairs:
        p, sparse = place[j]
        w = a * (scale // p)
        for k, r in sparse:
            out[k] = out.get(k, 0) + w * r
    return out, den * scale


def _eliminate(nums, den, p, f, pivot):
    """The row ``nums/den``, whose numerator on the pivot variable is
    ``f``, minus the multiple of the pivot row that cancels that entry.
    ``pivot`` holds the pivot row's integer entries and ``p`` is the one on
    the pivot variable; the denominators cancel, so the result is
    ``(p*nums - f*pivot) / (p*den)``, returned in lowest terms."""
    out = {j: p * a for j, a in nums.items()}
    for j, a in pivot.items():
        out[j] = out.get(j, 0) - f * a
    return _lowest(out, den * p)


# ---------------------------------------------------------------------------
# row generation


def _generate_rows(elimination):
    """Run the simplex on a working set of the reduced program's rows that
    starts as the equality rows and grows by the inequality rows that the
    current point, lifted, violates most on their stored rows, until none
    is (see "Determinism"); a row is reduced when it first enters.  A
    working set that leaves the objective unbounded takes in every row."""
    lp, reduced = elimination.lp, elimination.reduced
    ineq_rows = [k for k, rel in enumerate(reduced.relations) if rel != "="]
    working = {k for k, rel in enumerate(reduced.relations) if rel == "="}
    for _ in range(len(ineq_rows) + 1):
        outcome = _Simplex(reduced, sorted(working)).run()
        if outcome is None:
            if len(working) == len(reduced.relations):
                raise InternalError("the objective is unbounded")
            working.update(ineq_rows)
            continue
        if isinstance(outcome, Infeasible):
            return outcome
        ints, den = elimination._lift(outcome.point)
        # reduced rows outside the working set by stored index (same order)
        outside = {elimination.kept_rows[k]: k for k in ineq_rows if k not in working}
        found = [(Fraction(abs(gap), lp.entries[i][1] * den), i)
                 for gap, i in _gaps(lp, ints, outside)]
        if not found:
            return outcome
        most = heapq.nsmallest(_LAZY_BATCH, found, key=lambda t: (-t[0], t[1]))
        working.update(outside[i] for _, i in most)
    raise InternalError("row generation failed to converge")


# ---------------------------------------------------------------------------
# integer-scaled two-phase simplex


class _Simplex:
    """Two-phase simplex on a subset of rows, over scaled integers.

    The working rows are read once, from the program's sparse rows, into
    the starting columns ``g`` below; the tableau built from them is
    dense.  It is condensed: a row holds one entry per stored nonbasic
    column, in the order of ``self.nonbasic`` (original column numbers),
    and the right side last; a basic column is implicit, ``self.delta``
    in its own row and 0 elsewhere, the reduced costs included.  The
    entries divided by ``self.delta`` (kept positive) are the exact
    rational tableau.  Pivots use the integer-preserving exchange
    ``t' = (p*t - f*s) / delta_previous``, whose division is exact, so no
    rounding can occur anywhere.

    Rows are kept only for the basic structural columns: ``self.rows[c]``
    is the row of basic column ``c``, so at most ``num_vars`` rows are
    stored, next to the two reduced-cost rows.  ``self.basis`` lists the
    basic column of every row position.  A row whose basic column ``l`` is
    the slack or artificial of constraint k is derived when it is read, as
    ``sigma*(delta*g - sum_c g_c*R_c)``: ``g`` is the constraint's
    starting row (its integers, its slack and artificial entries, its
    right side), ``sigma``, +1 or -1, is ``l``'s entry in ``g``, and
    ``R_c`` runs over the stored rows, ``g_c`` being ``g``'s entry at
    their basic column ``c``.  The constraint reads
    ``sigma*x_l + sum_c g_c*x_c + (nonbasic terms) = rhs``, and putting in
    each basic ``x_c`` from its row leaves exactly that row; every basic
    column but ``l`` that ``g`` meets is structural, since the slack and
    artificial of one constraint are never basic together.  So a derived
    row equals the row that the full tableau would hold, integer for
    integer.  ``g`` is kept unflipped and column by column:
    ``self.starts[t]`` holds every constraint's entry in the column of
    slot ``t`` (the right sides last), and ``self.struct_starts[c]`` those
    in structural column ``c``.  The flip that makes a right side
    nonnegative is folded into ``sigma``, which ``self.unit`` gives, with
    the constraint, for each slack and artificial.

    A pivot computes only the entering entry of each derived row, and its
    right side where that entry is positive; a derived row is built in
    full when it leaves, and when an artificial is evicted.  The exchange
    then updates the stored rows and the reduced costs alone.  A
    structural column that enters over a derived row adds a stored row,
    and a slack or artificial that enters drops the leaving one.

    A free variable is the pair of columns ``x+`` and ``x- = -x+``, and
    every tableau keeps that relation, so one slot serves both.  While
    both halves are nonbasic, the slot holds the column of the half it is
    labelled with and the other half's column is its negation; ``g``
    reads the minus half as the negated plus half.  While one half is
    basic, the other's column is ``-self.delta`` in that row and 0
    elsewhere, with reduced cost 0; it can never enter, so it is not
    stored.  A slot labelled with a half of a free variable therefore
    always stands for both halves.
    """

    def __init__(self, lp, row_indices):
        self.lp = lp
        self.row_indices = list(row_indices)
        n = lp.num_vars

        # the working rows column by column: columns[j][k] is constraint k's
        # integer at column j, its right side at column n; its tableau row
        # starts as flip times that row
        m = len(self.row_indices)
        columns = [[0] * m for _ in range(n + 1)]
        for k, i in enumerate(self.row_indices):
            for j, a in lp.rows[i][0].items():
                columns[j][k] = a

        # structural columns: one per nonnegative variable, a (+,-) pair
        # per free variable, each half the other's twin; struct_starts[c]
        # is column c of the (unflipped) starting rows
        self.var_cols = []
        self.twin = {}
        self.struct_starts = []
        for column, nn in zip(columns, lp.nonneg):
            c = len(self.struct_starts)
            if nn:
                self.var_cols.append((c,))
                self.struct_starts.append(column)
            else:
                self.var_cols.append((c, c + 1))
                self.twin[c], self.twin[c + 1] = c + 1, c
                self.struct_starts += (column, [-a for a in column])
        self.n_struct = ncols = len(self.struct_starts)

        self.scale = [0] * m  # signed integer g_k: internal row = g_k * a_k
        flips, slack_signs = [], []
        for k, i in enumerate(self.row_indices):
            rel = lp.relations[i]
            b = columns[n][k]
            if rel == "<=":
                flip = 1 if b >= 0 else -1
                slack_sign = flip
            elif rel == ">=":
                flip = -1 if b <= 0 else 1
                slack_sign = -flip
            else:
                flip = 1 if b >= 0 else -1
                slack_sign = 0
            self.scale[k] = flip * lp.rows[i][1]
            flips.append(flip)
            slack_signs.append(slack_sign)

        # unit[l] = (k, e): column l is the slack or artificial of
        # constraint k, with entry e in the unflipped row (the flip times
        # its entry sigma in the tableau row)
        self.slack_col = [-1] * m
        self.art_col = [-1] * m
        self.unit = {}
        for k in range(m):
            if slack_signs[k] != 0:
                self.slack_col[k] = ncols
                self.unit[ncols] = (k, flips[k] * slack_signs[k])
                ncols += 1
        for k in range(m):
            if slack_signs[k] != 1:  # slack missing or with -1 coefficient
                self.art_col[k] = ncols
                self.unit[ncols] = (k, flips[k])
                ncols += 1
        self.n_enter_phase2 = self.n_struct + sum(1 for s in self.slack_col if s >= 0)

        # the starting basis is each row's artificial if it has one, else
        # its slack, so no row is stored; the structural columns start
        # nonbasic, one slot per variable, and the -1 slacks of the other
        # rows are the only nonbasic columns past them
        self.basis = [a if a >= 0 else s for a, s in zip(self.art_col, self.slack_col)]
        surplus = [k for k in range(m) if slack_signs[k] == -1]
        self.nonbasic = [cols[0] for cols in self.var_cols] + [self.slack_col[k] for k in surplus]
        self.rows = {}
        self.delta = 1
        # starts[t][k]: constraint k's unflipped entry in the column of slot
        # t, the right side last
        self.starts = [*columns[:n], *(self._start_column(self.slack_col[k]) for k in surplus),
                       columns[n]]

        # phase-2 reduced costs (internal minimization)
        width = len(self.nonbasic) + 1
        if lp.objective is not None:
            nums, den = lp.objective
            sgn = -1 if lp.sense == MAX else 1
            self.obj_scale = sgn * den
            obj2 = [sgn * a for a in nums]
        else:
            self.obj_scale = 1
            obj2 = [0] * n
        self.obj2 = obj2 + [0] * (width - n)

        # phase-1 reduced costs for the starting basis: minus the sum of the
        # rows whose basic column is an artificial; every -1 slack is one
        # of them, with its own entry -1
        self.obj1 = None
        if any(a >= 0 for a in self.art_col):
            obj1 = [0] * n + [1] * len(surplus) + [0]
            for k, i in enumerate(self.row_indices):
                if self.art_col[k] >= 0:
                    flip = flips[k]
                    for j, a in lp.rows[i][0].items():
                        obj1[j if j < n else -1] -= flip * a
            self.obj1 = obj1

    # -- rows -------------------------------------------------------------

    def _start_column(self, col):
        """Column ``col`` of the starting rows, unflipped: one entry per
        constraint."""
        if col < self.n_struct:
            return self.struct_starts[col]
        k, e = self.unit[col]
        column = [0] * len(self.row_indices)
        column[k] = e
        return column

    def _derived(self, r):
        """The full row of position ``r``, whose basic column is a slack or
        an artificial: ``sigma*(delta*g - sum_c g_c*R_c)``."""
        k, sigma = self.unit[self.basis[r]]
        scale = sigma * self.delta
        row = [scale * column[k] for column in self.starts]
        struct_starts = self.struct_starts
        for c, stored in self.rows.items():
            f = struct_starts[c][k]
            if f:
                f *= sigma
                row = [x - f * y for x, y in zip(row, stored)]
        return row

    def _leaving(self, t):
        """The ratio test on the column in slot ``t``: the position of the
        row with the least ``b/a`` over the rows whose entry ``a`` there is
        positive, ties to the smaller basic column, else -1.  The entries
        ``a`` of the derived rows come out for every constraint at once, a
        right side ``b`` only where ``a`` is positive."""
        n_struct, rows, unit = self.n_struct, self.rows, self.unit
        d = self.delta
        # delta*g - sum_c g_c*R_c in slot t, for every constraint
        entry = [d * a for a in self.starts[t]]
        sides = []
        for c, stored in rows.items():
            column = self.struct_starts[c]
            f = stored[t]
            if f:
                entry = [x - f * a for x, a in zip(entry, column)]
            if stored[-1]:
                sides.append((column, stored[-1]))
        rhs = self.starts[-1]
        leave, basic = -1, -1
        lv_num = lv_den = 0
        for i, c in enumerate(self.basis):
            if c < n_struct:
                stored = rows[c]
                a = stored[t]
                if a <= 0:
                    continue
                b = stored[-1]
            else:
                k, sigma = unit[c]
                a = sigma * entry[k]
                if a <= 0:
                    continue
                b = d * rhs[k]
                for column, v in sides:
                    b -= column[k] * v
                b *= sigma
            if leave < 0 or b * lv_den < lv_num * a or (b * lv_den == lv_num * a and c < basic):
                leave, basic, lv_num, lv_den = i, c, b, a
        return leave

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r, t):
        """Exchange the basic column of row ``r`` with the nonbasic column
        in slot ``t``; the leaving column takes over the slot."""
        leaving = self.basis[r]
        prow = self.rows.pop(leaving) if leaving < self.n_struct else self._derived(r)
        p = prow[t]
        d = self.delta

        def update(row):
            f = row[t]
            if f == 0:
                if p == d:
                    return row
                return [(p * v) // d for v in row]
            row = [(p * v - f * w) // d for v, w in zip(row, prow)]
            row[t] = -f
            return row

        self.rows = {c: update(row) for c, row in self.rows.items()}
        self.obj2 = update(self.obj2)
        if self.obj1 is not None:
            self.obj1 = update(self.obj1)
        prow[t] = d
        entering = self.nonbasic[t]
        self.basis[r], self.nonbasic[t] = entering, leaving
        if entering < self.n_struct:
            self.rows[entering] = prow
        self.starts[t] = self._start_column(leaving)
        self.delta = p
        if self.delta < 0:
            self.delta = -self.delta
            self.rows = {c: [-v for v in row] for c, row in self.rows.items()}
            self.obj2 = [-v for v in self.obj2]
            if self.obj1 is not None:
                self.obj1 = [-v for v in self.obj1]

    # -- phases -----------------------------------------------------------

    def _entering(self, values, wanted):
        """Bland's rule: the slot of the smallest-numbered column that may
        enter and whose entry in the tableau row ``values`` is ``wanted``,
        else -1.  A slot that stands for both halves of a free variable
        offers its label with the entry ``v`` and the twin with ``-v``; when
        the twin is chosen, the slot is negated and relabelled with it, so
        that it holds the entering column."""
        slot, best = -1, self.n_enter_phase2
        twin = self.twin
        for t, (col, v) in enumerate(zip(self.nonbasic, values)):
            if col < best and wanted(v):
                slot, best = t, col
            other = twin.get(col)
            if other is not None and other < best and wanted(-v):
                slot, best = t, other
        if slot >= 0 and self.nonbasic[slot] != best:
            self.nonbasic[slot] = best
            for row in self.rows.values():
                row[slot] = -row[slot]
            self.starts[slot] = self.struct_starts[best]
            self.obj2[slot] = -self.obj2[slot]
            if self.obj1 is not None:
                self.obj1[slot] = -self.obj1[slot]
        return slot

    def _optimize(self, phase1):
        """Bland-rule pivots on the phase's reduced costs.  Returns True
        once no reduced cost is negative, False at an entering column that
        no row bounds (the working rows leave the objective unbounded)."""
        for _ in range(_MAX_PIVOTS):
            enter = self._entering(self.obj1 if phase1 else self.obj2, lambda v: v < 0)
            if enter < 0:
                return True
            leave = self._leaving(enter)
            if leave < 0:
                return False
            self._pivot(leave, enter)
        raise InternalError("pivot limit exceeded")

    def run(self) -> LpOutcome | None:
        """The outcome over all of the program's rows, those outside the
        working set carrying zero multipliers, or None when the working
        rows leave the objective unbounded."""
        if self.obj1 is not None:
            if not self._optimize(phase1=True):
                raise InternalError("phase-1 objective cannot be unbounded")
            if self.obj1[-1] < 0:  # minimum of artificial sum is positive
                return Infeasible(self._multipliers(self.obj1, phase1=True))
            self.obj1 = None
            self._evict_artificials()

        if not self._optimize(phase1=False):
            return None
        # only structural columns carry values of the variables, and those
        # rows are the stored ones
        point = self._variables({c: row[-1] for c, row in self.rows.items()})
        if self.lp.objective is None:
            return Optimal(point, _ZERO)
        nums, den = self.lp.objective
        return Optimal(point, _dot(nums, point) / den, self._multipliers(self.obj2, phase1=False))

    def _evict_artificials(self):
        """Pivot zero-level artificials out of the basis; drop redundant rows."""
        r = 0
        while r < len(self.basis):
            if self.basis[r] < self.n_enter_phase2:
                r += 1
                continue
            row = self._derived(r)
            if row[-1] != 0:
                raise InternalError("artificial variable stuck at a nonzero level")
            enter = self._entering(row, bool)
            if enter >= 0:
                self._pivot(r, enter)
                r += 1
            else:
                # the row reads 0 = 0 over every real column: redundant
                del self.basis[r]

    # -- extraction -------------------------------------------------------

    def _variables(self, columns):
        """Variable values from integer column values over ``self.delta``;
        a free variable is its + column minus its - column."""
        values = []
        for cols in self.var_cols:
            x = columns.get(cols[0], 0)
            if len(cols) == 2:
                x -= columns.get(cols[1], 0)
            values.append(Fraction(x, self.delta))
        return tuple(values)

    def _multipliers(self, obj, phase1):
        """One multiplier per program row, read off the reduced costs
        ``obj`` at the column that started as the row's unit column (its
        artificial if it has one, else its slack; 0 while that column is
        basic, or gone with its row): the artificial's phase-1 cost of 1
        (0 otherwise) minus that reduced cost, times the row's scale, all
        over ``self.delta``.  Phase 1 gives the Farkas multipliers, negated
        on every row that is not ``>=``; phase 2 gives the duals, divided
        by the objective's scale.  Rows outside the working set get zero."""
        slot = {col: t for t, col in enumerate(self.nonbasic)}
        relations = self.lp.relations
        y = [_ZERO] * len(relations)
        for k, i in enumerate(self.row_indices):
            art = self.art_col[k] >= 0
            col = self.art_col[k] if art else self.slack_col[k]
            cost = self.delta if phase1 and art else 0
            t = slot.get(col)
            if phase1:
                den = self.delta if relations[i] == ">=" else -self.delta
            else:
                den = self.delta * self.obj_scale
            y[i] = Fraction((cost - (0 if t is None else obj[t])) * self.scale[k], den)
        return tuple(y)


# ---------------------------------------------------------------------------
# plain-text dump (for offline cross-checking)


def lp_to_text(lp: LinearProgram) -> str:
    """Documented dump: header lines, then one constraint per line.

    Format:
        vars <n>
        bounds <nonneg|free> ... (n tokens)
        <maximize|minimize|feasibility> [c_1 ... c_n]
        row a_1 ... a_n <rel> b
    Rationals print as num/den (or a bare integer).
    """
    out = [f"vars {lp.num_vars}"]
    out.append("bounds " + " ".join("nonneg" if nn else "free" for nn in lp.nonneg))
    if lp.objective is None:
        out.append("feasibility")
    else:
        word = "maximize" if lp.sense == MAX else "minimize"
        out.append(word + " " + " ".join(str(c) for c in lp.objective))
    for row, rel, b in zip(lp.rows, lp.relations, lp.rhs):
        out.append("row " + " ".join(str(c) for c in row) + f" {rel} {b}")
    return "\n".join(out) + "\n"
