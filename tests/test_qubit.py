"""Tests for the floating-point reference module."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from ptcompat import qubit
from ptcompat.errors import InputError


def test_sharp_transverse_pair_incompatible():
    assert not qubit.unbiased_compatible((1, 0, 0), (0, 1, 0))


def test_zero_vector_always_compatible():
    for b in [(0, 0, 0), (1, 0, 0), (0.3, 0.4, 0.5)]:
        assert qubit.unbiased_compatible((0, 0, 0), b)


def test_parallel_vectors_compatible():
    for v in [(1, 0, 0), (0.6, 0.0, 0.8), (0.2, 0.3, 0.1)]:
        assert qubit.unbiased_compatible(v, v)


def test_out_of_ball_rejected():
    with pytest.raises(InputError):
        qubit.unbiased_compatible((1.5, 0, 0), (0, 1, 0))


def test_criterion_reduces_to_disk_inequality():
    # for a = (l, 0, 0), b = (0, m, 0) both |a+b| and |a-b| equal
    # sqrt(l^2 + m^2), so compatibility is exactly l^2 + m^2 <= 1
    steps = 160
    for i in range(steps + 1):
        for j in range(steps + 1):
            lam, mu = i / steps, j / steps
            left = qubit.unbiased_compatible((lam, 0, 0), (0, mu, 0))
            right = qubit.disk_member(lam, mu)
            assert left == right, (lam, mu)


def test_region_grid_membership_and_symmetry():
    rows = qubit.pauli_region(0.25)
    table = {(lam, mu): member for lam, mu, member in rows}
    assert len(rows) == 25
    assert table[(1.0, 0.0)] is True
    assert table[(0.5, 0.75)] is True
    assert table[(1.0, 0.25)] is False
    for (lam, mu), member in table.items():
        assert table[(mu, lam)] == member


def test_boundary_point_counts_as_member():
    r = 1 / math.sqrt(2)
    assert qubit.disk_member(r, r)


def test_full_sharpness_kills_the_partner():
    assert qubit.pauli_index() == 0.0
    for mu in [1e-3, 0.01, 0.2, 1.0]:
        assert not qubit.unbiased_compatible((1, 0, 0), (0, mu, 0))


def test_disk_convexity_on_members():
    pts = [(0.0, 1.0), (0.6, 0.8), (1 / math.sqrt(2), 1 / math.sqrt(2)), (0.3, 0.2)]
    for a in pts:
        for b in pts:
            mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
            assert qubit.disk_member(*mid)


def test_disk_reach():
    assert qubit.disk_reach(1.0, 0.0) == 1.0
    assert abs(qubit.disk_reach(0.5, 0.5) - math.sqrt(2)) < 1e-12
    with pytest.raises(InputError):
        qubit.disk_reach(-0.1, 0.5)


def test_region_step_validation():
    with pytest.raises(InputError):
        qubit.pauli_region(0)
    # one value past the limit per axis is refused before any row is built
    side = qubit.MAX_GRID_SIDE
    assert len(qubit.pauli_region(1 / (side - 1))) == side * side
    for step in (1 / side, 1e-5, 5e-324, Fraction(1, side), Fraction(1, 10**400)):
        with pytest.raises(InputError, match="grid step too small"):
            qubit.pauli_region(step)
    # an exact step is checked before it is rounded to a float
    for step in (Fraction(3, 2), Fraction(10**400), 1.5):
        with pytest.raises(InputError, match="grid step must be at most 1"):
            qubit.pauli_region(step)
    with pytest.raises(InputError, match="grid step must be positive"):
        qubit.pauli_region(Fraction(-1, 10**400))
    assert qubit.pauli_region(Fraction(1, 4)) == qubit.pauli_region(0.25)
