"""JSON and CSV encoding of theories, observables, and results.

Rationals are encoded as bare integers when possible and as
``"num/den"`` strings otherwise; decoding reverses this exactly, so
export/import round-trips are bit-identical.  Scalar results carry an
additional ``*_approx`` field rounded to 12 decimal places, which is a
display convenience only.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from . import compat
from .errors import InputError
from .model import Effect, Observable, TheorySpace, clip_repr, frac


def rational_to_json(value: Fraction):
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def rational_from_json(value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"rationals must be integers or 'num/den' strings, got {clip_repr(value)}")
    return frac(value)


def approx(value: Fraction) -> float:
    return round(float(value), 12)


def _vector_to_json(vec):
    return [rational_to_json(c) for c in vec]


def _vector_from_json(values):
    if not isinstance(values, list):
        raise InputError("expected a list of rationals")
    return tuple(rational_from_json(v) for v in values)


def dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# theories and observables


def theory_to_doc(theory: TheorySpace) -> dict:
    return {
        "name": theory.name,
        "dim": theory.dim,
        "unit": _vector_to_json(theory.unit),
        "extreme_points": [_vector_to_json(x) for x in theory.extreme_points],
    }


def _string(value, what):
    if not isinstance(value, str):
        raise InputError(f"{what} must be a JSON string, got {clip_repr(value)}")
    return value


def theory_from_doc(doc) -> TheorySpace:
    try:
        dim = doc["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise InputError(f"theory dim must be an integer, got {clip_repr(dim)}")
        return TheorySpace(
            _string(doc["name"], "theory name"),
            dim,
            tuple(_vector_from_json(x) for x in doc["extreme_points"]),
            _vector_from_json(doc["unit"]),
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed theory document: {exc}") from exc


def observable_to_doc(observable: Observable) -> dict:
    return {
        "theory": observable.theory.name,
        "outcomes": list(observable.outcomes),
        "effects": [_vector_to_json(e.coeffs) for e in observable.effects],
    }


def observable_from_doc(doc, theory: TheorySpace) -> Observable:
    try:
        name = _string(doc["theory"], "observable theory")
        outcomes = doc["outcomes"]
        if not isinstance(outcomes, list):
            raise InputError("observable outcomes must be a list of labels, "
                             f"got {clip_repr(outcomes)}")
        outcomes = tuple(_string(s, "outcome label") for s in outcomes)
        effects = tuple(Effect(theory, _vector_from_json(e)) for e in doc["effects"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed observable document: {exc}") from exc
    if name != theory.name:
        raise InputError(f"observable belongs to theory {clip_repr(name)}, "
                         f"not {clip_repr(theory.name)}")
    return Observable(theory, outcomes, effects)


def joint_to_doc(joint: compat.JointObservable) -> dict:
    return {
        "theory": joint.theory.name,
        "axes": [list(a) for a in joint.axes],
        "effects": [_vector_to_json(e.coeffs) for e in joint.effects],
    }


# ---------------------------------------------------------------------------
# results


def verdict_to_doc(verdict: compat.CompatVerdict) -> dict:
    if isinstance(verdict, compat.Compatible):
        return {"verdict": "compatible", "witness": joint_to_doc(verdict.witness)}
    return {
        "verdict": "incompatible",
        "certificate": {"farkas": _vector_to_json(verdict.certificate.farkas)},
    }


def index_to_doc(result: compat.IndexResult) -> dict:
    doc = {
        "lambda_star": rational_to_json(result.lambda_star),
        "lambda_star_approx": approx(result.lambda_star),
        "interval": [0, rational_to_json(result.lambda_star)],
        "noise_witness": None,
        "joint": joint_to_doc(result.joint),
    }
    if result.noise_witness is not None:
        doc["noise_witness"] = _vector_to_json(result.noise_witness.probs)
    return doc


def estimate_to_doc(theory: TheorySpace, pairs: int, seed: int,
                    result: compat.EstimateResult) -> dict:
    doc = {
        "theory": theory.name,
        "pairs": pairs,
        "seed": seed,
        "upper_bound": rational_to_json(result.upper_bound),
        "upper_bound_approx": approx(result.upper_bound),
        "argmin_index": result.argmin_index,
        "argmin_pair": None,
    }
    if result.argmin_pair is not None:
        first, second = result.argmin_pair
        doc["argmin_pair"] = {
            "first": observable_to_doc(first),
            "second": observable_to_doc(second),
        }
    return doc


def classify_to_doc(lambdas, classical: bool) -> dict:
    return {
        "lambdas": _vector_to_json(lambdas),
        "classical": classical,
        "label": "classical" if classical else "nonclassical",
    }


# ---------------------------------------------------------------------------
# CSV exports (columns documented in docs/formats.md)


def region_samples_to_csv(samples) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if not samples:
        return ""
    n = len(samples[0].direction)
    header = [f"direction_{k+1}" for k in range(n)]
    header += ["reach"] + [f"boundary_{k+1}" for k in range(n)]
    header += ["reach_approx"] + [f"boundary_{k+1}_approx" for k in range(n)]
    writer.writerow(header)
    for s in samples:
        row = [rational_to_json(c) for c in s.direction]
        row.append(rational_to_json(s.reach))
        row += [rational_to_json(c) for c in s.boundary]
        row.append(approx(s.reach))
        row += [approx(c) for c in s.boundary]
        writer.writerow(row)
    return buf.getvalue()


def disk_grid_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lambda", "mu", "member"])
    for lam, mu, member in rows:
        writer.writerow([f"{lam:.12g}", f"{mu:.12g}", int(member)])
    return buf.getvalue()
