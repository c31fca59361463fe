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
that are not equalities only once, at the end.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

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


def certificate_ok(prog, outcome):
    """Is ``outcome`` (an ``Optimal``, ``Infeasible`` or ``Unbounded`` of
    ``lp``, told apart by its fields) a valid certificate for ``prog``?
    Written from the definitions in ``lp``'s module docstring."""
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


def _integers(values):
    """Rationals as integers over their least common denominator."""
    den = math.lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


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
