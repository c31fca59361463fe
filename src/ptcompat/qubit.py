"""Closed-form reference results for the transverse qubit readers.

This module computes in floating point throughout: it serves as a
bracketing oracle for the exact LP pipeline and never produces
certificates.  A dichotomic unbiased qubit effect pair is characterized
by its two ball vectors; the joint-measurability criterion
|a+b| + |a-b| <= 2 is the standard one for that unbiased case, which is
all that is needed to reproduce the transverse-reader numbers used
elsewhere (biased-noise optimality is not claimed here).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InputError

TOLERANCE = 1e-12
MAX_GRID_SIDE = 1001  # points per axis of pauli_region: step 1/1000, 10^6 rows


class BlochVector(NamedTuple):
    x: float
    y: float
    z: float


def _as_vector(v) -> BlochVector:
    vx, vy, vz = (float(c) for c in v)
    return BlochVector(vx, vy, vz)


def _norm(v: BlochVector) -> float:
    return math.hypot(v.x, v.y, v.z)


def unbiased_compatible(a, b, tol: float = TOLERANCE) -> bool:
    """Joint measurability of the dichotomic readers along a and b."""
    va, vb = _as_vector(a), _as_vector(b)
    if _norm(va) > 1 + tol or _norm(vb) > 1 + tol:
        raise InputError("ball vectors must have length at most 1")
    plus = BlochVector(va.x + vb.x, va.y + vb.y, va.z + vb.z)
    minus = BlochVector(va.x - vb.x, va.y - vb.y, va.z - vb.z)
    return _norm(plus) + _norm(minus) <= 2 + tol


def disk_member(lam: float, mu: float, tol: float = TOLERANCE) -> bool:
    """Membership of (lam, mu) in the quadrant-disk region."""
    return lam * lam + mu * mu <= 1 + tol


def pauli_region(step):
    """Grid evaluation of the quadrant disk over [0, 1]^2.

    Returns (lam, mu, member) rows, CSV-exportable, with both axes
    running over multiples of ``step`` up to 1, at most MAX_GRID_SIDE
    values each.  ``step`` is a float or an exact rational in (0, 1]; a
    rational's range is checked before it is rounded to a float.
    """
    if step <= 0:
        raise InputError("grid step must be positive")
    if step > 1:
        raise InputError("grid step must be at most 1")
    # the exact test comes first, so no step that reaches float() rounds to 0
    if step * MAX_GRID_SIDE < 1 or 1 / float(step) + 0.5 >= MAX_GRID_SIDE:
        raise InputError(f"grid step too small: at most {MAX_GRID_SIDE} values per axis")
    step = float(step)
    count = int(math.floor(1 / step + 0.5)) + 1
    rows = []
    for i in range(count):
        lam = min(1.0, i * step)
        for j in range(count):
            mu = min(1.0, j * step)
            rows.append((lam, mu, disk_member(lam, mu)))
    return rows


def pauli_index() -> float:
    """Largest sharpness keeping one transverse reader sharp: zero.

    At full sharpness of the first reader the region inequality reads
    1 + mu^2 <= 1, forcing mu = 0, so no positive sharpness survives.
    """
    return 0.0


def disk_reach(w1: float, w2: float) -> float:
    """Scaling of direction (w1, w2) to the disk boundary, clipped to the square."""
    if w1 < 0 or w2 < 0 or w1 + w2 <= 0:
        raise InputError("direction must be nonnegative and nonzero")
    radial = 1.0 / math.hypot(w1, w2)
    clip = 1.0 / max(w1, w2)
    return min(radial, clip)
