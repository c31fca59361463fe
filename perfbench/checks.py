"""Answer checks that do not rely on the package's own ``verify``.

Exact checks work on plain coefficient tuples, never on validated model
objects, so a tampered witness reaches the check instead of being
refused by a constructor.  Optimal values are compared with scipy's
HiGHS on the benchmark's own float formulation, which eliminates the
joint's marginal equalities instead of stating them row by row.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction

HIGHS_TOLERANCE = 1e-7

# numpy and HiGHS load on the first optimum check; with one thread they
# leave nothing spinning on the other core when later probes are timed
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b) if x and y)


def marginals(cells, shape):
    """Exact sums of the cells over every axis: result[k][j] is a tuple."""
    grid = list(itertools.product(*(range(m) for m in shape)))
    dim = len(cells[0])
    sums = [[[Fraction(0)] * dim for _ in range(size)] for size in shape]
    for index, cell in zip(grid, cells):
        for k, j in enumerate(index):
            sums[k][j] = [t + c for t, c in zip(sums[k][j], cell)]
    return [[tuple(s) for s in axis] for axis in sums]


def witness_ok(cells, shape, vertices, targets) -> bool:
    """``cells`` is the row-major joint over the outcome grid ``shape``.

    Passes iff, for every axis k and outcome j, the cells with index j on
    axis k sum exactly to ``targets[k][j]``, and every cell is >= 0 at
    every vertex.
    """
    if len(cells) != math.prod(shape):
        return False
    expected = [[tuple(t) for t in axis] for axis in targets]
    if marginals(cells, shape) != expected:
        return False
    return all(_dot(cell, x) >= 0 for cell in cells for x in vertices)


def membership_targets(cells, observables, sharpness, vertices, unit):
    """Noisy observables that the witness's own marginals claim, or None.

    Each marginal minus sharpness_k * M_kj must be t_kj * unit with
    t_kj >= 0 and sum_j t_kj = 1 - sharpness_k; t_kj is read off at one
    vertex (the unit is 1 on every vertex) and witness_ok then confirms
    the whole vector.
    """
    targets = []
    for m, lam, sums in zip(observables, sharpness, marginals(cells, tuple(len(m) for m in observables))):
        noise = [_dot([s - lam * c for s, c in zip(total, e.coeffs)], vertices[0])
                 for total, e in zip(sums, m.effects)]
        if any(t < 0 for t in noise) or sum(noise) != 1 - lam:
            return None
        targets.append([tuple(lam * c + t * u for c, u in zip(e.coeffs, unit))
                        for e, t in zip(m.effects, noise)])
    return targets


def noisy_effects(observable, sharpness, noise, unit):
    """Coefficients of sharpness * M_j + (1 - sharpness) * noise_j * unit."""
    rest = 1 - sharpness
    return [
        tuple(sharpness * c + (rest * noise[j] if noise is not None else 0) * u
              for c, u in zip(e.coeffs, unit))
        for j, e in enumerate(observable.effects)
    ]


def farkas_ok(program, multipliers) -> bool:
    """Recompute the Farkas combination over ``program`` independently.

    Inequality multipliers must be >= 0 (a '>=' row enters negated); the
    combined row r must be 0 on free and >= 0 on nonnegative variables,
    and the combined right side beta must be < 0.
    """
    if len(multipliers) != len(program.rows) or not program.rows:
        return False
    r = [Fraction(0)] * program.num_vars
    beta = Fraction(0)
    for y, row, rel, b in zip(multipliers, program.rows, program.relations, program.rhs):
        if rel != "=" and y < 0:
            return False
        sy = -y if rel == ">=" else y
        if not sy:
            continue
        for j, a in enumerate(row):
            if a:
                r[j] += sy * a
        beta += sy * b
    for rj, nonneg in zip(r, program.nonneg):
        if rj < 0 or (not nonneg and rj != 0):
            return False
    return beta < 0


def highs_pair_optimum(first, second, vertices, unit, direction=None) -> float:
    """Float optimum of a dichotomic pair's sharpness program.

    With ``direction`` (w1, w2): maximize s with sharpness s*w_k on both
    observables (the region scan).  Without: the first stays sharp and
    the second's sharpness is maximized (the one-sided index).

    Variables are the '++' cell g (free), the '+' noise weights t1, t2 and
    the scale s.  The other cells are fixed by the marginals: E' - g,
    F' - g and unit - E' - F' + g, with E' = l1*E + t1*unit.
    """
    import numpy as np
    from scipy.optimize import linprog

    dim = len(unit)
    e = [float(c) for c in first.effects[0].coeffs]
    f = [float(c) for c in second.effects[0].coeffs]
    w1, w2 = (float(direction[0]), float(direction[1])) if direction else (None, 1.0)
    n = dim + 3
    t1, t2, s = dim, dim + 1, dim + 2
    rows, rhs = [], []  # A x <= b
    for vertex in vertices:
        x = [float(c) for c in vertex]
        ex, fx = sum(a * b for a, b in zip(e, x)), sum(a * b for a, b in zip(f, x))
        g = np.zeros(n)
        g[:dim] = x
        # '+' marginal of the first observable: l1*ex + t1 (l1 = 1 when sharp)
        p1 = np.zeros(n)
        c1 = 0.0
        if direction:
            p1[s], p1[t1] = w1 * ex, 1.0
        else:
            c1 = ex
        p2 = np.zeros(n)
        p2[s], p2[t2] = w2 * fx, 1.0
        for cell, const in ((g, 0.0), (p1 - g, c1), (p2 - g, 0.0), (g - p1 - p2, 1.0 - c1)):
            rows.append(-cell)  # cell . x + const >= 0
            rhs.append(const)
    for t, w in ((t1, w1), (t2, w2)):
        if w is None:
            continue
        cap = np.zeros(n)
        cap[t], cap[s] = 1.0, w
        rows.append(cap)
        rhs.append(1.0)
    bounds = [(None, None)] * dim + [(0, None) if direction else (0, 0), (0, None), (0, None)]
    objective = np.zeros(n)
    objective[s] = -1.0
    result = linprog(objective, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds,
                     method="highs-ds",
                     options={"primal_feasibility_tolerance": 1e-10,
                              "dual_feasibility_tolerance": 1e-10})
    if result.status != 0:
        raise ArithmeticError(f"HiGHS did not reach an optimum: {result.message}")
    return -result.fun


def verdict_ok(observables, cells=None, farkas=None) -> bool:
    """A compatible verdict's witness ``cells``, or an incompatible
    verdict's ``farkas`` multipliers over ``compat.build_joint_lp``."""
    from ptcompat import compat

    if cells is not None:
        targets = [[e.coeffs for e in m.effects] for m in observables]
        return witness_ok(cells, _shape(observables), observables[0].theory.extreme_points,
                          targets)
    return farkas_ok(compat.build_joint_lp(list(observables)), farkas)


def index_ok(pair, lam, noise, cells) -> bool:
    """One-sided index: the witness joins the sharp first observable with
    lam * second + (1 - lam) * noise, and lam matches HiGHS."""
    theory = pair[0].theory
    targets = [[e.coeffs for e in pair[0].effects],
               noisy_effects(pair[1], lam, noise, theory.unit)]
    return (0 <= lam <= 1 and (noise is not None or lam == 1)
            and witness_ok(cells, _shape(pair), theory.extreme_points, targets)
            and close_to_highs(lam, highs_pair_optimum(pair[0], pair[1], theory.extreme_points,
                                                       theory.unit)))


def scan_ok(pair, w, reach, boundary, noises, cells) -> bool:
    """Region scan: boundary = reach * w, the witness joins the noisy
    pair at the boundary, reach matches HiGHS and is >= the disk value."""
    theory = pair[0].theory
    targets = [noisy_effects(m, lam, noise, theory.unit)
               for m, lam, noise in zip(pair, boundary, noises)]
    return (boundary == tuple(reach * c for c in w)
            and witness_ok(cells, _shape(pair), theory.extreme_points, targets)
            and disk_bound_ok(reach, w)
            and close_to_highs(reach, highs_pair_optimum(pair[0], pair[1], theory.extreme_points,
                                                         theory.unit, direction=w)))


def membership_ok(observables, sharpness, cells) -> bool:
    theory = observables[0].theory
    targets = membership_targets(cells, observables, sharpness, theory.extreme_points,
                                 theory.unit)
    return targets is not None and witness_ok(cells, _shape(observables),
                                              theory.extreme_points, targets)


def _shape(observables):
    return tuple(len(m) for m in observables)


def close_to_highs(value, highs_value) -> bool:
    return abs(float(value) - highs_value) <= HIGHS_TOLERANCE


def disk_bound_ok(reach, direction) -> bool:
    """reach >= 1/|w|_2, the value for the exact ball, compared exactly."""
    return reach >= 0 and reach * reach * (direction[0] ** 2 + direction[1] ** 2) >= 1
