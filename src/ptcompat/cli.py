"""Batch command-line front end.

Every run is described by a :class:`RunConfig` and executed by
:func:`execute`, which returns the output text; identical configs
produce identical bytes.  Verdicts never drive the exit status: 0 means
the computation ran (scripts read the JSON), 2 flags malformed input,
and 1 flags an internal invariant failure.

Observable arguments are either JSON files (schema in docs/formats.md)
or builtin names: bare (``X``, ``pauli-x``, ...) when ``--theory``
names a catalog theory, or qualified as ``name@theory`` (for example
``pauli-x@bloch:512``).  A file named like a builtin theory or
observable is refused rather than silently shadowing it; ``./name``
passes the file.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from . import catalog, compat, lp, qubit, serialize
from .errors import InputError, InternalError
from .model import frac, vec


@dataclass(frozen=True)
class RunConfig:
    command: str
    inputs: tuple[str, ...] = ()
    theory: str | None = None
    seed: int = 0
    directions: int = 16
    samples: int = 50
    step: str = "1/200"
    out: str | None = None
    fmt: str = "json"
    dump_lp: str | None = None


# ---------------------------------------------------------------------------
# argument resolution


def _resolve_theory(spec: str):
    path = Path(spec)
    if not path.exists():
        return catalog.get_theory(spec)
    _refuse_shadowing(spec, "catalog theory", lambda: catalog.get_theory(spec))
    return serialize.theory_from_doc(_read_json(path))


def _refuse_shadowing(spec: str, kind: str, lookup) -> None:
    """An existing file named like a builtin must not silently replace it."""
    try:
        lookup()
    except InputError:
        return
    raise InputError(f"{spec!r} names both a file and a builtin {kind}; "
                     f"pass the file as ./{spec} or rename it")


def _read_json(path: Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer past Python's digit limit
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def _load_observables(config: RunConfig):
    base_theory = _resolve_theory(config.theory) if config.theory else None
    theory = base_theory
    observables = []
    for arg in config.inputs:
        path = Path(arg)
        if path.exists():
            _refuse_shadowing(arg, "observable", lambda: _builtin(arg, base_theory))
            doc = _read_json(path)
            if not isinstance(doc, dict) or not isinstance(doc.get("theory"), str):
                raise InputError(f"{path}: observable documents need a 'theory' string")
            doc_theory = theory if theory is not None else catalog.get_theory(doc["theory"])
            m = serialize.observable_from_doc(doc, doc_theory)
        else:
            m = _builtin(arg, base_theory)
        if theory is None:
            theory = m.theory
        elif m.theory != theory:
            raise InputError("observables do not share one theory")
        observables.append(m)
    if not observables:
        raise InputError("no observables given")
    return theory, observables


def _builtin(arg, base_theory):
    if "@" in arg:
        name, _, theory_name = arg.partition("@")
        return _named(catalog.get_theory(theory_name), name)
    if base_theory is not None:
        return _named(base_theory, arg)
    raise InputError(
        f"{arg!r} is neither a file nor a qualified builtin name "
        "(use name@theory or pass --theory)"
    )


def _named(theory, name):
    table = catalog.named_observables(theory)
    if name not in table:
        known = ", ".join(sorted(table)) or "none"
        raise InputError(f"theory {theory.name!r} has no builtin observable {name!r} "
                         f"(available: {known})")
    return table[name]


# ---------------------------------------------------------------------------
# execution


def execute(config: RunConfig) -> tuple[str, str | None]:
    """Run a config; returns (output text, optional LP dump text)."""
    handler = {
        "theory-list": _run_theory_list,
        "theory-show": _run_theory_show,
        "check": _run_check,
        "index": _run_index,
        "interval": _run_interval,
        "region": _run_region,
        "classify-state": _run_classify,
        "estimate-index": _run_estimate,
        "qubit-disk": _run_qubit_disk,
    }.get(config.command)
    if handler is None:
        raise InputError(f"unknown command {config.command!r}")
    return handler(config)


def _run_theory_list(config):
    lines = ["builtin theories (parameters in angle brackets):"]
    lines += [f"  {name}" for name in catalog.catalog_names()]
    return "\n".join(lines) + "\n", None


def _run_theory_show(config):
    (name,) = config.inputs
    theory = _resolve_theory(name)
    return serialize.dumps(serialize.theory_to_doc(theory)), None


def _run_check(config):
    _, observables = _load_observables(config)
    dump = lp.lp_to_text(compat.build_joint_lp(observables)) if config.dump_lp else None
    verdict = compat.check_compatible(observables)
    return serialize.dumps(serialize.verdict_to_doc(verdict)), dump


def _run_index(config):
    _, observables = _load_observables(config)
    if len(observables) != 2:
        raise InputError("index takes exactly two observables")
    first, second = observables
    dump = lp.lp_to_text(compat.build_index_lp(first, second)) if config.dump_lp else None
    result = compat.compat_index(first, second)
    return serialize.dumps(serialize.index_to_doc(result)), dump


def _run_interval(config):
    _, observables = _load_observables(config)
    if len(observables) != 2:
        raise InputError("interval takes exactly two observables")
    dump = lp.lp_to_text(compat.build_index_lp(*observables)) if config.dump_lp else None
    lo, hi = compat.compat_interval(*observables)
    doc = {
        "interval": {"lo": serialize.rational_to_json(lo),
                     "hi": serialize.rational_to_json(hi)},
        "hi_approx": serialize.approx(hi),
        "closed": True,
    }
    return serialize.dumps(doc), dump


def _run_region(config):
    directions = compat.angular_directions(config.directions)
    _, observables = _load_observables(config)
    if len(observables) != 2:
        raise InputError("the direction grid is two-dimensional; "
                         "pass exactly two observables")
    dump = None
    if config.dump_lp:
        parts = []
        for w in directions:
            parts.append(f"# direction {w[0]} {w[1]}")
            parts.append(lp.lp_to_text(compat.build_scan_lp(observables, w)))
        dump = "\n".join(parts)
    samples = compat.region_boundary_scan(observables, directions)
    if config.fmt == "csv":
        return serialize.region_samples_to_csv(samples), dump
    doc = [
        {
            "direction": [serialize.rational_to_json(c) for c in s.direction],
            "reach": serialize.rational_to_json(s.reach),
            "reach_approx": serialize.approx(s.reach),
            "boundary": [serialize.rational_to_json(c) for c in s.boundary],
        }
        for s in samples
    ]
    return serialize.dumps(doc), dump


def _run_classify(config):
    if len(config.inputs) != 3:
        raise InputError("classify-state takes the three marginals of the state")
    lambdas = vec(config.inputs)
    state = catalog.LogicState(tuple(lambdas))
    classical = catalog.is_classical_state(state)
    return serialize.dumps(serialize.classify_to_doc(lambdas, classical)), None


def _run_estimate(config):
    (name,) = config.inputs
    theory = _resolve_theory(name)
    result = compat.theory_index_estimate(theory, config.samples, seed=config.seed)
    doc = serialize.estimate_to_doc(theory, config.samples, config.seed, result)
    return serialize.dumps(doc), None


def _run_qubit_disk(config):
    rows = qubit.pauli_region(frac(config.step))
    return serialize.disk_grid_to_csv(rows), None


# ---------------------------------------------------------------------------
# click wiring


def _deliver(config: RunConfig) -> None:
    try:
        text, dump = execute(config)
        if config.dump_lp and dump is not None:
            _write(config.dump_lp, dump)
        if config.out:
            _write(config.out, text)
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except InternalError as exc:
        click.echo(f"internal error: {exc}", err=True)
        sys.exit(1)
    if config.out:
        click.echo(f"wrote {config.out}", err=True)
    else:
        click.echo(text, nl=False)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


@click.group()
def main():
    """Exact joint-measurability analysis for finite probabilistic theories."""


@main.group()
def theory():
    """Inspect and export the builtin theory catalog."""


@theory.command("list")
def theory_list():
    _deliver(RunConfig(command="theory-list"))


@theory.command("show")
@click.argument("name")
@click.option("--out", default=None, type=click.Path())
def theory_show(name, out):
    _deliver(RunConfig(command="theory-show", inputs=(name,), out=out))


@theory.command("export")
@click.argument("name")
@click.option("--out", required=True, type=click.Path())
def theory_export(name, out):
    _deliver(RunConfig(command="theory-show", inputs=(name,), out=out))


def _common_options(func):
    func = click.option("--theory", "theory_name", default=None,
                        help="Theory file or catalog name for bare observable names.")(func)
    func = click.option("--out", default=None, type=click.Path())(func)
    func = click.option("--dump-lp", default=None, type=click.Path(),
                        help="Write the solved program(s) in the documented text format.")(func)
    return func


@main.command()
@click.argument("observables", nargs=-1, required=True)
@_common_options
def check(observables, theory_name, out, dump_lp):
    """Joint-measurability verdict with witness or certificate."""
    _deliver(RunConfig(command="check", inputs=tuple(observables),
                       theory=theory_name, out=out, dump_lp=dump_lp))


@main.command()
@click.argument("observables", nargs=-1, required=True)
@_common_options
def index(observables, theory_name, out, dump_lp):
    """Largest sharpness of the second observable compatible with the first."""
    _deliver(RunConfig(command="index", inputs=tuple(observables),
                       theory=theory_name, out=out, dump_lp=dump_lp))


@main.command()
@click.argument("observables", nargs=-1, required=True)
@_common_options
def interval(observables, theory_name, out, dump_lp):
    """Closed sharpness interval [0, lambda*]."""
    _deliver(RunConfig(command="interval", inputs=tuple(observables),
                       theory=theory_name, out=out, dump_lp=dump_lp))


@main.command()
@click.argument("observables", nargs=-1, required=True)
@click.option("--directions", default=16, show_default=True,
              help="Number of evenly spaced unit-sum directions "
                   f"(at most {compat.MAX_DIRECTIONS}).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@_common_options
def region(observables, directions, fmt, theory_name, out, dump_lp):
    """Boundary scan of the two-observable compatibility region."""
    _deliver(RunConfig(command="region", inputs=tuple(observables),
                       theory=theory_name, directions=directions, fmt=fmt,
                       out=out, dump_lp=dump_lp))


@main.command("classify-state")
@click.argument("lambdas", nargs=3)
@click.option("--out", default=None, type=click.Path())
def classify_state(lambdas, out):
    """Classify an even-logic state (three rational marginals)."""
    _deliver(RunConfig(command="classify-state", inputs=tuple(lambdas), out=out))


@main.command("estimate-index")
@click.argument("theory_name")
@click.option("--samples", default=50, show_default=True,
              help=f"Number of sampled pairs (at most {compat.MAX_SAMPLES}).")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path())
def estimate_index(theory_name, samples, seed, out):
    """Sampled upper bound on a theory's compatibility index."""
    _deliver(RunConfig(command="estimate-index", inputs=(theory_name,),
                       samples=samples, seed=seed, out=out))


@main.group("qubit")
def qubit_group():
    """Closed-form qubit reference outputs."""


@qubit_group.command("disk")
@click.option("--step", default="1/200", show_default=True,
              help="Grid step as a rational (e.g. 1/200); "
                   f"at most {qubit.MAX_GRID_SIDE} values per axis.")
@click.option("--out", default=None, type=click.Path())
def qubit_disk(step, out):
    """Emit the quadrant-disk membership grid as CSV."""
    _deliver(RunConfig(command="qubit-disk", step=step, out=out))


if __name__ == "__main__":
    main()
