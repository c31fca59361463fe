"""The benchmark's tracer installed around one question of each kind.

``perfbench/tracing.py`` wraps package attributes from outside: ``lp.solve``
and ``compat.check_compatible`` become one-argument calls that log their
argument, and ``LinearProgram.create`` a wrapped classmethod.  A change of
call shape there fails every traced benchmark question, so each kind of
question is asked here under the tracer first.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from ptcompat import catalog, compat, lp

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _ball():
    named = catalog.named_observables(catalog.bloch_polytope(8))
    return [named["pauli-x"], named["pauli-y"]]


def _square():
    named = catalog.named_observables(catalog.square_gbit())
    return [named["X"], named["Y"]]


def _cube():
    named = catalog.named_observables(catalog.even_logic_cube())
    return [named["A"], named["B"]]


# (question through the module attribute, expected answer type, programs solved)
QUESTIONS = {
    "scan": (lambda: compat.region_boundary_scan(_ball(), compat.angular_directions(2)),
             list, 2),
    "check": (lambda: compat.check_compatible(_square()), compat.Incompatible, 1),
    "index": (lambda: compat.compat_index(*_cube()), compat.IndexResult, 1),
    "membership": (lambda: compat.region_membership(_square(), [Fraction(1, 2)] * 2),
                   compat.Compatible, 1),
}


@pytest.mark.parametrize("kind", sorted(QUESTIONS))
def test_traced_question_solves_each_program_once(kind):
    ask, answer_type, programs = QUESTIONS[kind]
    solve, create, check = lp.solve, lp.LinearProgram.__dict__["create"], compat.check_compatible
    tracer = _tracer()
    with tracer.installed():
        answer = ask()
    assert isinstance(answer, answer_type)
    assert len(tracer.programs) == programs
    assert all(isinstance(p, lp.LinearProgram) for p, _ in tracer.programs)
    names = [span[0] for span in tracer.spans]
    assert names.count("lp.solve") == names.count("lp.create") == programs
    assert len(tracer.verdicts) == (kind == "check")
    # the tracer puts every attribute back
    assert (lp.solve, lp.LinearProgram.__dict__["create"], compat.check_compatible) == (
        solve, create, check)
