"""Independent oracles used to freeze expected values in the tests.

Nothing in here calls the code paths it is meant to check: the vertex
enumerator solves 2-variable programs geometrically, the joint-
distribution oracle decides dichotomic compatibility on tiny theories by
interval arithmetic over per-vertex outcome tables, and the bisection
oracle brackets the one-sided noise threshold through repeated
feasibility queries instead of the single maximizing program.  The
witness oracle checks a joint observable given as bare coefficient
tuples against the definition of a noisy family, and the certificate
oracle re-checks an LP outcome from the definitions with plain
``Fraction`` sums, row by row and column by column.  The elimination
oracle runs the presolve's Gauss-Jordan steps in plain ``Fraction``
arithmetic into every row, where the solver substitutes into the rows
that are not equalities only once, at the end.  The ray oracle decides
whether an objective is unbounded from two bounded programs whose
outcomes it checks with the certificate oracle.  The simplex oracle keeps
both columns ``x+`` and ``x- = -x+`` of every free variable in its
tableau, where the solver stores one slot per free variable.  The
condensed-tableau oracle keeps a row for every basic column, where the
solver stores only the rows of basic structural columns and derives the
others from their constraints' starting rows.  Both simplex oracles read
the presolve's sparse rows written out densely by ``dense_program``.  The
reduced-row scan reads each round's violated rows off the presolved rows
at the reduced point, where the solver reads the stored rows at the point
lifted onto the program as given.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from ptcompat.errors import InternalError
from ptcompat.lp import MAX, Infeasible, LinearProgram, LpOutcome, Optimal, solve

ZERO = Fraction(0)
ONE = Fraction(1)


def best_vertex_2var(constraints, objective):
    """Maximize c.x over {x >= 0, a.x <= b rows} by enumerating vertices.

    ``constraints`` is a list of ((a1, a2), b) rows.  Returns
    (value, point) over all feasible intersections of two of the lines
    {a.x = b, x1 = 0, x2 = 0}; valid only for bounded 2-variable
    programs, which is all this oracle is used for.
    """
    lines = [((Fraction(a1), Fraction(a2)), Fraction(b)) for (a1, a2), b in constraints]
    lines.append(((ONE, ZERO), ZERO))
    lines.append(((ZERO, ONE), ZERO))

    def feasible(pt):
        x, y = pt
        if x < 0 or y < 0:
            return False
        return all(a1 * x + a2 * y <= b for (a1, a2), b in lines[: len(constraints)])

    best = None
    for ((p1, p2), bp), ((q1, q2), bq) in itertools.combinations(lines, 2):
        det = p1 * q2 - p2 * q1
        if det == 0:
            continue
        x = (bp * q2 - p2 * bq) / det
        y = (p1 * bq - bp * q1) / det
        if not feasible((x, y)):
            continue
        value = objective[0] * x + objective[1] * y
        if best is None or value > best[0]:
            best = (value, (x, y))
    return best


def _frechet_box(p, q):
    return max(ZERO, p + q - 1), min(p, q)


def _affine_dependencies(points):
    """Nullspace basis of the homogeneous point matrix (rows = points)."""
    k = len(points)
    rows = [list(pt) + [ONE if i == j else ZERO for j in range(k)]
            for i, pt in enumerate(points)]
    d = len(points[0])
    pivot_row = 0
    for col in range(d):
        sel = next((r for r in range(pivot_row, k) if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        pr = rows[pivot_row]
        for r in range(k):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col] / pr[col]
                rows[r] = [v - f * w for v, w in zip(rows[r], pr)]
        pivot_row += 1
    deps = []
    for r in range(pivot_row, k):
        if all(v == 0 for v in rows[r][:d]):
            deps.append(tuple(rows[r][d:]))
    return deps


def dichotomic_pair_compatible(M, N):
    """Exact yes/no for two dichotomic observables on a tiny theory.

    Works directly with the outcome tables at the extreme points: any
    candidate joint is pinned down by the probability g_v of the (first,
    first) outcome pair at each extreme point v, constrained to the
    Frechet box of the marginals there, and by one linear consistency
    identity per affine dependency among the extreme points.  Supports
    at most one dependency, which covers every theory with <= 4 extreme
    points whose points span the coordinate space.
    """
    theory = M.theory
    points = theory.extreme_points
    deps = _affine_dependencies(points)
    if len(deps) > 1:
        raise ValueError("oracle supports at most one affine dependency")
    boxes = []
    for v in points:
        p = sum(c * x for c, x in zip(M.effects[0].coeffs, v))
        q = sum(c * x for c, x in zip(N.effects[0].coeffs, v))
        boxes.append(_frechet_box(p, q))
    if not deps:
        return True  # every box is nonempty, any selection extends affinely
    dep = deps[0]
    low = sum(c * (lo if c > 0 else hi) for c, (lo, hi) in zip(dep, boxes))
    high = sum(c * (hi if c > 0 else lo) for c, (lo, hi) in zip(dep, boxes))
    return low <= 0 <= high


def bisect_noise_threshold(M, N, membership, tol=Fraction(1, 1000)):
    """Bracket sup{t : membership(M, N, t)} by bisection.

    ``membership(M, N, t)`` must decide whether M stays jointly
    measurable with a t-sharp noisy version of N.  Returns (lo, hi) with
    membership true at lo, false at hi (or hi == 1 if true there), and
    hi - lo <= tol.
    """
    lo, hi = ZERO, ONE
    if membership(M, N, hi):
        return hi, hi
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if membership(M, N, mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def witness_marginals_ok(cells, observables, lambdas, vertices, unit):
    """Is ``cells`` a joint observable of the noisy family
    ``lambda_k*M_k + t_k*unit``?

    ``cells`` lists coefficient tuples row-major over the outcome grid of
    ``observables``.  Passes iff, on every axis k, the cells with index j
    sum to ``lambda_k*M_kj + t_kj*unit`` for numbers t_kj >= 0 with
    ``sum_j t_kj == 1 - lambda_k``, and every cell is >= 0 at every
    vertex.
    """
    shape = [len(m.effects) for m in observables]
    grid = list(itertools.product(*(range(size) for size in shape)))
    if len(cells) != len(grid):
        return False
    lead = next(r for r, u in enumerate(unit) if u)
    for k, (m, lam) in enumerate(zip(observables, lambdas)):
        noise = []
        for j, effect in enumerate(m.effects):
            total = [ZERO] * len(unit)
            for index, cell in zip(grid, cells):
                if index[k] == j:
                    total = [s + c for s, c in zip(total, cell)]
            rest = [s - lam * c for s, c in zip(total, effect.coeffs)]
            t = rest[lead] / unit[lead]
            if rest != [t * u for u in unit] or t < 0:
                return False
            noise.append(t)
        if sum(noise) != 1 - lam:
            return False
    return all(sum(c * x for c, x in zip(cell, v)) >= 0 for cell in cells for v in vertices)


def _row_holds(lhs, rel, rhs):
    return lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs


def _feasible(prog, vec, homogeneous):
    """Does ``vec`` keep the sign bounds and every row of ``prog`` (with
    zero right sides when ``homogeneous``, as for a ray)?"""
    if len(vec) != prog.num_vars:
        return False
    if any(nn and x < 0 for x, nn in zip(vec, prog.nonneg)):
        return False
    return all(_row_holds(sum((a * x for a, x in zip(row, vec)), ZERO), rel,
                          ZERO if homogeneous else b)
               for row, rel, b in zip(prog.rows, prog.relations, prog.rhs))


@dataclass(frozen=True)
class Unbounded:
    """A recession direction of a program's feasible set that strictly
    improves its objective.  ``ptcompat.lp`` returns no such outcome: it
    raises on an unbounded program, which these oracles certify."""

    ray: tuple[Fraction, ...]


def certificate_ok(prog, outcome):
    """Is ``outcome`` (an ``Optimal`` or ``Infeasible`` of ``lp``, or an
    ``Unbounded`` of this module, told apart by their fields) a valid
    certificate for ``prog``?  Written from the definitions in ``lp``'s
    module docstring, and for a ray from its definition above."""
    m, n = len(prog.rows), prog.num_vars
    maximize = prog.sense == "max"
    if hasattr(outcome, "farkas"):
        y = outcome.farkas
        if len(y) != m:
            return False
        if any(rel != "=" and v < 0 for v, rel in zip(y, prog.relations)):
            return False
        signed = [-v if rel == ">=" else v for v, rel in zip(y, prog.relations)]
        combined = [sum((s * row[j] for s, row in zip(signed, prog.rows)), ZERO)
                    for j in range(n)]
        if any(r < 0 if nn else r != 0 for r, nn in zip(combined, prog.nonneg)):
            return False
        return sum((s * b for s, b in zip(signed, prog.rhs)), ZERO) < 0
    if hasattr(outcome, "ray"):
        d = outcome.ray
        if prog.objective is None or not _feasible(prog, d, homogeneous=True):
            return False
        gain = sum((c * x for c, x in zip(prog.objective, d)), ZERO)
        return gain > 0 if maximize else gain < 0
    x, value, y = outcome.point, outcome.value, outcome.duals
    if not _feasible(prog, x, homogeneous=False):
        return False
    if prog.objective is None:
        return value == 0 and y is None
    if value != sum((c * v for c, v in zip(prog.objective, x)), ZERO):
        return False
    if y is None or len(y) != m:
        return False
    # max: y >= 0 on <= rows, y <= 0 on >= rows, A^T y >= c on nonnegative
    # variables and == c on free ones; min reverses every inequality
    flip = 1 if maximize else -1
    for v, rel in zip(y, prog.relations):
        if (rel == "<=" and flip * v < 0) or (rel == ">=" and flip * v > 0):
            return False
    for j, (c, nn) in enumerate(zip(prog.objective, prog.nonneg)):
        column = sum((v * row[j] for v, row in zip(y, prog.rows)), ZERO)
        if column != c and (not nn or flip * (column - c) < 0):
            return False
    return sum((v * b for v, b in zip(y, prog.rhs)), ZERO) == value


def unbounded_ray(prog):
    """An ``Unbounded`` ray of ``prog`` if its objective is unbounded,
    else None, decided by two bounded programs that ``ptcompat.lp``
    solves: the homogeneous program, which maximizes the gain ``g.d`` (``g``
    is the objective, negated for ``min``) over the rows with zero right
    sides, the same sign bounds and ``g.d <= 1``, and ``prog``'s rows under
    a zero objective.  Both outcomes must pass ``certificate_ok``, so a
    None is proven either by a Farkas certificate or by duals that bound
    the gain by 0, and a ray comes with a feasible point."""
    if prog.objective is None:
        return None
    n, nonneg = prog.num_vars, prog.nonneg
    gain = [c if prog.sense == MAX else -c for c in prog.objective]
    cone = LinearProgram.create(
        n, [(row, rel, ZERO) for row, rel in zip(prog.rows, prog.relations)] + [(gain, "<=", ONE)],
        objective=gain, sense=MAX, nonneg=nonneg)
    rows = LinearProgram.create(n, zip(prog.rows, prog.relations, prog.rhs),
                                objective=[ZERO] * n, sense=MAX, nonneg=nonneg)
    best, found = solve(cone), solve(rows)
    if not (certificate_ok(cone, best) and certificate_ok(rows, found)):
        raise AssertionError("a bounded program's outcome fails the certificate oracle")
    if best.value == 0 or isinstance(found, Infeasible):
        return None
    ray = Unbounded(best.point)
    if not certificate_ok(prog, ray):
        raise AssertionError("the homogeneous optimum is not a ray of the program")
    return ray


def _integers(values):
    """Rationals as integers over their least common denominator."""
    den = math.lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def dense_program(prog):
    """A reduced program of ``ptcompat.lp`` with each sparse row
    ``({column: integer}, den)`` written out as the dense ``(nums, den)``
    list of ``num_vars + 1`` integers, right side last."""
    width = prog.num_vars + 1
    return prog._replace(rows=tuple(([nums.get(j, 0) for j in range(width)], den)
                                    for nums, den in prog.rows))


def reduce_program(prog):
    """The presolve of ``ptcompat.lp`` by dense Gauss-Jordan in plain
    ``Fraction`` arithmetic: equality rows in index order, each pivoting
    on its first free variable with a nonzero coefficient, and each step
    clearing that variable from every other row and from the objective.

    Returns ``(reduced, pivots, kept_vars, kept_rows)``, where ``reduced``
    is ``(num_vars, nonneg, rows, relations, objective, sense)`` over the
    kept variables, each row (right side last) and the objective as
    integers over their least common denominator.
    """
    n = prog.num_vars
    rows = [list(row) + [b] for row, b in zip(prog.rows, prog.rhs)]
    objective = None if prog.objective is None else list(prog.objective) + [ZERO]
    free = [j for j in range(n) if not prog.nonneg[j]]
    pivots = []
    for i, rel in enumerate(prog.relations):
        if rel != "=":
            continue
        v = next((j for j in free if rows[i][j] != 0), None)
        if v is None:
            continue
        free.remove(v)
        pivot = rows[i]
        for k in range(len(rows)):
            if k != i and rows[k][v] != 0:
                f = rows[k][v] / pivot[v]
                rows[k] = [a - f * b for a, b in zip(rows[k], pivot)]
        if objective is not None and objective[v] != 0:
            f = objective[v] / pivot[v]
            objective = [a - f * b for a, b in zip(objective, pivot)]
        pivots.append((i, v))
    gone = {v for _, v in pivots}
    kept_vars = [j for j in range(n) if j not in gone]
    kept_rows = [i for i in range(len(rows)) if i not in {i for i, _ in pivots}]
    reduced = (
        len(kept_vars),
        tuple(prog.nonneg[j] for j in kept_vars),
        tuple(_integers([rows[i][j] for j in kept_vars] + [rows[i][n]]) for i in kept_rows),
        tuple(prog.relations[i] for i in kept_rows),
        None if objective is None else _integers([objective[j] for j in kept_vars]),
        prog.sense,
    )
    return reduced, pivots, kept_vars, kept_rows


def reduced_row_scan(program, point, working, batch):
    """The row scan that row generation made on the presolved rows: the
    inequality rows of the reduced program ``program`` (sparse rows
    ``({column: integer}, den)``, right side at column ``num_vars``)
    outside ``working`` that the reduced ``point`` violates, as
    ``(gap, row)`` pairs in row order, each gap ``|a.x - b|`` an exact
    Fraction read off the reduced row; and the rows that a round takes in,
    at most ``batch`` of them, most violated first, ties to the smaller
    row."""
    nums, den = _integers(point)
    nums.append(-den)
    found = []
    for i, ((sparse, row_den), rel) in enumerate(zip(program.rows, program.relations)):
        if i in working or rel == "=":
            continue
        gap = sum(a * nums[j] for j, a in sparse.items())
        if (rel == "<=" and gap > 0) or (rel == ">=" and gap < 0):
            found.append((Fraction(abs(gap), row_den * den), i))
    most = heapq.nsmallest(batch, found, key=lambda t: (-t[0], t[1]))
    return found, [i for _, i in most]


class TwoColumnSimplex:
    """The two-phase Bland's-rule simplex of ``ptcompat.lp`` with both
    structural columns of every free variable kept in the condensed
    integer tableau, where the solver stores one.  Takes the same reduced
    program and row subset, and reads its rows through ``dense_program``;
    ``pivots`` records each pivot as (row, entering original column), and
    ``run`` returns ``("Optimal", point, value, duals)``,
    ``("Infeasible", farkas)`` or ``("Unbounded", ray)``, where the
    solver's run returns None."""

    def __init__(self, lp, row_indices):
        self.lp = lp
        self.row_indices = list(row_indices)
        self.pivots = []
        self.var_cols = []
        ncols = 0
        for nn in lp.nonneg:
            if nn:
                self.var_cols.append((ncols,))
                ncols += 1
            else:
                self.var_cols.append((ncols, ncols + 1))
                ncols += 2
        self.n_struct = ncols

        m = len(self.row_indices)
        self.slack_col = [-1] * m
        self.art_col = [-1] * m
        self.scale = [0] * m
        structural, rhs, slack_signs = [], [], []
        dense = dense_program(lp).rows
        for k, i in enumerate(self.row_indices):
            nums, den = dense[i]
            rel = lp.relations[i]
            b = nums[-1]
            if rel == "<=":
                flip = 1 if b >= 0 else -1
                slack_sign = flip
            elif rel == ">=":
                flip = -1 if b <= 0 else 1
                slack_sign = -flip
            else:
                flip = 1 if b >= 0 else -1
                slack_sign = 0
            self.scale[k] = flip * den
            structural.append(self._structural(nums, flip))
            rhs.append(flip * b)
            slack_signs.append(slack_sign)
        for k in range(m):
            if slack_signs[k] != 0:
                self.slack_col[k] = ncols
                ncols += 1
        for k in range(m):
            if slack_signs[k] != 1:
                self.art_col[k] = ncols
                ncols += 1
        self.n_enter_phase2 = self.n_struct + sum(1 for s in self.slack_col if s >= 0)

        self.basis = [a if a >= 0 else s for a, s in zip(self.art_col, self.slack_col)]
        surplus = [k for k in range(m) if slack_signs[k] == -1]
        self.nonbasic = list(range(self.n_struct)) + [self.slack_col[k] for k in surplus]
        self.rows = [structural[k] + [-int(k == s) for s in surplus] + [rhs[k]]
                     for k in range(m)]
        self.delta = 1

        width = len(self.nonbasic) + 1
        if lp.objective is not None:
            nums, den = lp.objective
            sgn = -1 if lp.sense == "max" else 1
            self.obj_scale = sgn * den
            obj2 = self._structural(nums, sgn)
        else:
            self.obj_scale = 1
            obj2 = [0] * self.n_struct
        self.obj2 = obj2 + [0] * (width - self.n_struct)
        art_rows = [self.rows[k] for k in range(m) if self.art_col[k] >= 0]
        self.obj1 = [-sum(col) for col in zip(*art_rows)] if art_rows else None

    def _structural(self, nums, sign):
        row = [0] * self.n_struct
        for cols, a in zip(self.var_cols, nums):
            if a:
                row[cols[0]] = sign * a
                if len(cols) == 2:
                    row[cols[1]] = -sign * a
        return row

    def _pivot(self, r, t):
        self.pivots.append((r, self.nonbasic[t]))
        prow = self.rows[r]
        p = prow[t]
        d = self.delta

        def update(row):
            f = row[t]
            if f == 0:
                return row if p == d else [(p * v) // d for v in row]
            row = [(p * v - f * w) // d for v, w in zip(row, prow)]
            row[t] = -f
            return row

        for i in range(len(self.rows)):
            if i != r:
                self.rows[i] = update(self.rows[i])
        self.obj2 = update(self.obj2)
        if self.obj1 is not None:
            self.obj1 = update(self.obj1)
        prow[t] = d
        self.delta = p
        self.basis[r], self.nonbasic[t] = self.nonbasic[t], self.basis[r]
        if self.delta < 0:
            self.delta = -self.delta
            self.rows = [[-v for v in row] for row in self.rows]
            self.obj2 = [-v for v in self.obj2]
            if self.obj1 is not None:
                self.obj1 = [-v for v in self.obj1]

    def _entering(self, values, wanted):
        slot, best = -1, self.n_enter_phase2
        for t, (col, v) in enumerate(zip(self.nonbasic, values)):
            if col < best and wanted(v):
                slot, best = t, col
        return slot

    def _optimize(self, phase1):
        while True:
            enter = self._entering(self.obj1 if phase1 else self.obj2, lambda v: v < 0)
            if enter < 0:
                return -1
            leave, lv_num, lv_den = -1, 0, 0
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a <= 0:
                    continue
                b = row[-1]
                if leave < 0 or b * lv_den < lv_num * a or (
                        b * lv_den == lv_num * a and self.basis[i] < self.basis[leave]):
                    leave, lv_num, lv_den = i, b, a
            if leave < 0:
                return enter
            self._pivot(leave, enter)

    def run(self):
        if self.obj1 is not None:
            if self._optimize(phase1=True) >= 0:
                raise AssertionError("phase-1 objective cannot be unbounded")
            if self.obj1[-1] < 0:
                y = self._multipliers(self.obj1, phase1=True)
                return ("Infeasible", tuple(v if rel == ">=" else -v
                                            for v, rel in zip(y, self.lp.relations)))
            self.obj1 = None
            self._evict_artificials()
        slot = self._optimize(phase1=False)
        if slot >= 0:
            ray = {c: -row[slot] for c, row in zip(self.basis, self.rows)}
            ray[self.nonbasic[slot]] = self.delta
            return ("Unbounded", self._variables(ray))
        point = self._variables({c: row[-1] for c, row in zip(self.basis, self.rows)})
        if self.lp.objective is None:
            return ("Optimal", point, ZERO, None)
        nums, den = self.lp.objective
        y = self._multipliers(self.obj2, phase1=False)
        value = sum((Fraction(a, den) * x for a, x in zip(nums, point)), ZERO)
        return ("Optimal", point, value, tuple(v / self.obj_scale for v in y))

    def _evict_artificials(self):
        r = 0
        while r < len(self.rows):
            if self.basis[r] < self.n_enter_phase2:
                r += 1
                continue
            row = self.rows[r]
            if row[-1] != 0:
                raise AssertionError("artificial variable stuck at a nonzero level")
            enter = self._entering(row, bool)
            if enter >= 0:
                self._pivot(r, enter)
                r += 1
            else:
                del self.rows[r]
                del self.basis[r]

    def _variables(self, columns):
        values = []
        for cols in self.var_cols:
            x = columns.get(cols[0], 0)
            if len(cols) == 2:
                x -= columns.get(cols[1], 0)
            values.append(Fraction(x, self.delta))
        return tuple(values)

    def _multipliers(self, obj, phase1):
        slot = {col: t for t, col in enumerate(self.nonbasic)}
        y = [ZERO] * len(self.lp.rows)
        for k, i in enumerate(self.row_indices):
            art = self.art_col[k] >= 0
            col = self.art_col[k] if art else self.slack_col[k]
            cost = self.delta if phase1 and art else 0
            t = slot.get(col)
            y[i] = Fraction((cost - (0 if t is None else obj[t])) * self.scale[k], self.delta)
        return y


# the names that the condensed-tableau oracle below reads
_ZERO = ZERO
_MAX_PIVOTS = 5_000_000


def _dot(row, vec):
    return sum((Fraction(a) * x for a, x in zip(row, vec)), ZERO)


class CondensedSimplex:
    """The two-phase simplex of ``ptcompat.lp`` on the full condensed
    tableau: one stored row for every basic column, slacks and
    artificials included, each updated by every pivot.  It takes the same
    reduced program and row subset, reads the rows through
    ``dense_program``, and returns the same outcomes, but its own
    ``Unbounded`` ray where the solver's run returns None.  The rest of
    this docstring and the code are the solver's as they were before it
    derived the rows of basic slacks and artificials.

    Two-phase simplex on a subset of rows, over scaled integers.

    The tableau is condensed: ``self.rows`` holds one entry per stored
    nonbasic column, in the order of ``self.nonbasic`` (original column
    numbers), and the right side last; a basic column is implicit,
    ``self.delta`` in its own row and 0 elsewhere, the reduced costs
    included.  The entries divided by ``self.delta`` (kept positive) are
    the exact rational tableau.  Pivots use the integer-preserving
    exchange ``t' = (p*t - f*s) / delta_previous``, whose division is
    exact, so no rounding can occur anywhere.

    A free variable is the pair of columns ``x+`` and ``x- = -x+``, and
    every tableau keeps that relation, so one slot serves both.  While
    both halves are nonbasic, the slot holds the column of the half it is
    labelled with and the other half's column is its negation.  While one
    half is basic, the other's column is ``-self.delta`` in that row and 0
    elsewhere, with reduced cost 0; it can never enter, so it is not
    stored.  A slot labelled with a half of a free variable therefore
    always stands for both halves.
    """

    def __init__(self, lp, row_indices):
        self.lp = lp
        self.row_indices = list(row_indices)

        # structural columns: one per nonnegative variable, a (+,-) pair
        # per free variable, each half the other's twin
        self.var_cols = []
        self.twin = {}
        ncols = 0
        for nn in lp.nonneg:
            if nn:
                self.var_cols.append((ncols,))
                ncols += 1
            else:
                self.var_cols.append((ncols, ncols + 1))
                self.twin[ncols], self.twin[ncols + 1] = ncols + 1, ncols
                ncols += 2
        self.n_struct = ncols
        n = lp.num_vars

        m = len(self.row_indices)
        self.slack_col = [-1] * m
        self.art_col = [-1] * m
        self.scale = [0] * m  # signed integer g_i: internal row = g_i * a_i
        structural = []
        rhs = []
        slack_signs = []
        dense = dense_program(lp).rows
        for k, i in enumerate(self.row_indices):
            nums, den = dense[i]
            rel = lp.relations[i]
            b = nums[-1]
            if rel == "<=":
                flip = 1 if b >= 0 else -1
                slack_sign = flip
            elif rel == ">=":
                flip = -1 if b <= 0 else 1
                slack_sign = -flip
            else:
                flip = 1 if b >= 0 else -1
                slack_sign = 0
            self.scale[k] = flip * den
            structural.append([flip * a for a in nums[:n]])
            rhs.append(flip * b)
            slack_signs.append(slack_sign)

        for k in range(m):
            if slack_signs[k] != 0:
                self.slack_col[k] = ncols
                ncols += 1
        for k in range(m):
            if slack_signs[k] != 1:  # slack missing or with -1 coefficient
                self.art_col[k] = ncols
                ncols += 1
        self.n_enter_phase2 = self.n_struct + sum(1 for s in self.slack_col if s >= 0)

        # the starting basis is each row's artificial if it has one, else
        # its slack; the structural columns start nonbasic, one slot per
        # variable, and the -1 slacks of the other rows are the only
        # nonbasic columns past them
        self.basis = [a if a >= 0 else s for a, s in zip(self.art_col, self.slack_col)]
        surplus = [k for k in range(m) if slack_signs[k] == -1]
        self.nonbasic = [cols[0] for cols in self.var_cols] + [self.slack_col[k] for k in surplus]
        self.rows = [structural[k] + [-int(k == s) for s in surplus] + [rhs[k]]
                     for k in range(m)]
        self.delta = 1

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
        # rows whose basic column is an artificial
        art_rows = [self.rows[k] for k in range(m) if self.art_col[k] >= 0]
        self.obj1 = [-sum(col) for col in zip(*art_rows)] if art_rows else None

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r, t):
        """Exchange the basic column of row ``r`` with the nonbasic column
        in slot ``t``; the leaving column takes over the slot."""
        prow = self.rows[r]
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

        for i in range(len(self.rows)):
            if i != r:
                self.rows[i] = update(self.rows[i])
        self.obj2 = update(self.obj2)
        if self.obj1 is not None:
            self.obj1 = update(self.obj1)
        prow[t] = d
        self.delta = p
        self.basis[r], self.nonbasic[t] = self.nonbasic[t], self.basis[r]
        if self.delta < 0:
            self.delta = -self.delta
            self.rows = [[-v for v in row] for row in self.rows]
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
            for row in self.rows:
                row[slot] = -row[slot]
            self.obj2[slot] = -self.obj2[slot]
            if self.obj1 is not None:
                self.obj1[slot] = -self.obj1[slot]
        return slot

    def _optimize(self, phase1):
        """Bland-rule pivots on the phase's reduced costs.  Returns -1 once
        no reduced cost is negative, or the slot of the entering column that
        no row bounds (the program is unbounded along it)."""
        for _ in range(_MAX_PIVOTS):
            enter = self._entering(self.obj1 if phase1 else self.obj2, lambda v: v < 0)
            if enter < 0:
                return -1
            leave = -1
            lv_num = lv_den = 0
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a <= 0:
                    continue
                b = row[-1]
                if leave < 0 or b * lv_den < lv_num * a or (
                    b * lv_den == lv_num * a and self.basis[i] < self.basis[leave]
                ):
                    leave, lv_num, lv_den = i, b, a
            if leave < 0:
                return enter
            self._pivot(leave, enter)
        raise InternalError("pivot limit exceeded")

    def run(self) -> LpOutcome | Unbounded:
        """The outcome over all of the program's rows, those outside the
        working set carrying zero multipliers.  An unbounded outcome leaves
        its feasible point in ``self.point``, as an optimal one does."""
        if self.obj1 is not None:
            if self._optimize(phase1=True) >= 0:
                raise InternalError("phase-1 objective cannot be unbounded")
            if self.obj1[-1] < 0:  # minimum of artificial sum is positive
                return Infeasible(self._multipliers(self.obj1, phase1=True))
            self.obj1 = None
            self._evict_artificials()

        slot = self._optimize(phase1=False)
        self.point = self._variables({c: row[-1] for c, row in zip(self.basis, self.rows)})
        if slot >= 0:
            ray = {c: -row[slot] for c, row in zip(self.basis, self.rows)}
            ray[self.nonbasic[slot]] = self.delta
            return Unbounded(self._variables(ray))
        if self.lp.objective is None:
            return Optimal(self.point, _ZERO)
        nums, den = self.lp.objective
        return Optimal(self.point, _dot(nums, self.point) / den,
                       self._multipliers(self.obj2, phase1=False))

    def _evict_artificials(self):
        """Pivot zero-level artificials out of the basis; drop redundant rows."""
        r = 0
        while r < len(self.rows):
            if self.basis[r] < self.n_enter_phase2:
                r += 1
                continue
            row = self.rows[r]
            if row[-1] != 0:
                raise InternalError("artificial variable stuck at a nonzero level")
            enter = self._entering(row, bool)
            if enter >= 0:
                self._pivot(r, enter)
                r += 1
            else:
                # the row reads 0 = 0 over every real column: redundant
                del self.rows[r]
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
