"""Spans recorded around calls into the package's public functions.

The tracer wraps module attributes of ``lp``, ``compat``, ``model``,
``serialize`` and ``cli`` while it is installed and restores them on
exit; no source file changes.  A span is (name, start, end, parent,
question); spans stay in memory until the run ends.  A span's self time
is its duration minus the durations of its children, which never
overlap because everything runs on one thread.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# (compat attribute, span name); the lp calls, check_compatible,
# LinearProgram.create and the model constructors' __post_init__ hooks are
# listed in Tracer.installed
_COMPAT_CALLS = (
    ("compat_index", "compat.index"),
    ("compat_interval", "compat.interval"),
    ("region_membership", "compat.membership"),
    ("region_boundary_scan", "compat.scan"),
    ("build_joint_lp", "compat.build_joint_lp"),
    ("marginal", "compat.marginal"),
)
_SERIALIZE_CALLS = ("dumps", "verdict_to_doc", "index_to_doc", "joint_to_doc",
                    "region_samples_to_csv", "rational_to_json", "approx")

# counts that depend only on the questions asked, never on the machine
COUNT_KEYS = ("lp.solve.calls", "lp.verify.calls", "lp.create.calls",
              "compat.build_joint_lp.calls", "compat.marginal.calls",
              "model.construct.calls", "lp.rows_in.max", "lp.rows_in.mean",
              "lp.vars_in.max", "lp.input_bits.max", "lp.infeasible_share",
              "compat.check.incompatible_share")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, question]
        self.programs = []  # (program, outcome class name) per lp.solve call
        self.verdicts = []  # (theory name, verdict class name) per check_compatible call
        self.question = None
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.question]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def wrap_logged(self, name, fn, log, entry):
        """Like ``wrap`` for a one-argument call, and append
        ``entry(argument, result)`` to ``log`` after each call."""
        timed = self.wrap(name, fn)

        def traced(argument):
            result = timed(argument)
            log.append(entry(argument, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        from ptcompat import cli, compat, lp, model, serialize

        patches = [(lp, "solve", self.wrap_logged("lp.solve", lp.solve, self.programs,
                                                  lambda p, out: (p, type(out).__name__))),
                   (lp, "verify", self.wrap("lp.verify", lp.verify)),
                   (cli, "execute", self.wrap("cli.execute", cli.execute)),
                   (compat, "check_compatible", self.wrap_logged(
                       "compat.check", compat.check_compatible, self.verdicts,
                       lambda obs, verdict: (obs[0].theory.name, type(verdict).__name__)))]
        create = lp.LinearProgram.__dict__["create"]
        patches.append((lp.LinearProgram, "create",
                        classmethod(self.wrap("lp.create", create.__func__))))
        for attr, name in _COMPAT_CALLS:
            patches.append((compat, attr, self.wrap(name, getattr(compat, attr))))
        for attr in _SERIALIZE_CALLS:
            patches.append((serialize, attr, self.wrap("serialize." + attr, getattr(serialize, attr))))
        for cls in (model.Effect, model.Observable, model.Distribution, compat.JointObservable):
            patches.append((cls, "__post_init__", self.wrap("model.construct", cls.__post_init__)))

        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, value in patches:
                setattr(owner, attr, value)
            yield self
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self, questions: int) -> dict:
        """Per-layer metrics over ``questions`` traced questions.

        Times are milliseconds per question unless named ``*_p50``, which
        are medians of one call.  Counts are totals over the questions.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)  # inclusive seconds by span name
        own = defaultdict(float)  # self seconds by span name
        calls = defaultdict(int)
        durations = defaultdict(list)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            total[name] += end - start
            own[name] += end - start - children
            calls[name] += 1
            durations[name].append(end - start)

        def per_question(seconds):
            return 1000.0 * seconds / questions

        def p50_ms(name):
            return 1000.0 * statistics.median(durations[name]) if durations[name] else 0.0

        def layer_self(prefix):
            return per_question(sum(v for k, v in own.items() if k.startswith(prefix)))

        rows = [len(p.rows) for p, _ in self.programs]
        infeasible = sum(1 for _, kind in self.programs if kind == "Infeasible")
        incompatible = sum(1 for _, kind in self.verdicts if kind == "Incompatible")
        return {
            "lp.solve.self_ms": per_question(own["lp.solve"]),
            "lp.solve.calls": calls["lp.solve"],
            "lp.rows_in.max": max(rows, default=0),
            "lp.rows_in.mean": sum(rows) / len(rows) if rows else 0.0,
            "lp.vars_in.max": max((p.num_vars for p, _ in self.programs), default=0),
            "lp.input_bits.max": max((_program_bits(p) for p, _ in self.programs), default=0),
            "lp.verify.ms": per_question(total["lp.verify"]),
            "lp.verify.calls": calls["lp.verify"],
            "lp.infeasible_share": infeasible / len(rows) if rows else 0.0,
            "lp.create.ms": per_question(total["lp.create"]),
            "lp.create.calls": calls["lp.create"],
            "compat.self_ms": layer_self("compat."),
            "compat.build_joint_lp.calls": calls["compat.build_joint_lp"],
            "compat.marginal.ms": per_question(total["compat.marginal"]),
            "compat.marginal.calls": calls["compat.marginal"],
            "compat.check.ms_p50": p50_ms("compat.check"),
            "compat.check.incompatible_share": (incompatible / len(self.verdicts)
                                                if self.verdicts else 0.0),
            "compat.index.ms_p50": p50_ms("compat.index"),
            "compat.membership.ms_p50": p50_ms("compat.membership"),
            "model.construct.ms": per_question(own["model.construct"]),
            "model.construct.calls": calls["model.construct"],
            "serialize.ms": layer_self("serialize."),
            "cli.self_ms": per_question(own["cli.execute"]),
            "cli.execute.ms": p50_ms("cli.execute"),
        }

    def incompatible_by_theory(self) -> dict:
        """{theory: [incompatible verdicts, check_compatible calls]}"""
        out = {}
        for theory, kind in self.verdicts:
            counts = out.setdefault(theory, [0, 0])
            counts[0] += kind == "Incompatible"
            counts[1] += 1
        return out

    def dump(self, path, origin):
        import json

        rows = [[name, round(start - origin, 9), round(end - origin, 9), parent, question]
                for name, start, end, parent, question in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "question"],
                                    "spans": rows}, separators=(",", ":")) + "\n")


def _program_bits(program) -> int:
    """Largest numerator or denominator bit length in the program's data."""
    best = 0
    values = [c for row in program.rows for c in row]
    values += list(program.rhs) + list(program.objective or ())
    for c in values:
        best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best
