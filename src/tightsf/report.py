"""Canonical JSON serialization: every rational is a {"num", "den"} pair.

Field order is fixed at construction time and json round-trips byte for byte;
no value in a report is ever a float.
"""
from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .classify import ClassificationResult
from .convex import LimitInfo, SlopeCoeffs
from .seifert import SeifertData
from .slopes import Slope

SCHEMA = "tightsf/1"


def rat(x) -> dict[str, int]:
    if isinstance(x, Slope):
        return {"num": x.num, "den": x.den}
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def encode(value: Any) -> Any:
    t = type(value)
    if t is int or t is str or t is bool or value is None:
        return value
    if (t is tuple or t is list) and set(map(type, value)) == {int}:
        return value
    if isinstance(value, (Slope, Fraction)):
        return rat(value)
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, SlopeCoeffs):
        return {"A": rat(value.A), "C": rat(value.C), "F": rat(value.F), "D": rat(value.D)}
    if isinstance(value, LimitInfo):
        return {
            "limit": rat(value.limit),
            "increasing": value.increasing,
            "threshold_ok": value.threshold_ok,
        }
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__}")


def manifold_json(sd: SeifertData) -> dict[str, Any]:
    return {
        "e0": sd.e0,
        "r": [rat(x) for x in sd.r],
        "p": [c.p for c in sd.conv],
        "q": [c.q for c in sd.conv],
        "u": [c.u for c in sd.conv],
        "v": [c.v for c in sd.conv],
    }


def classification_json(res: ClassificationResult) -> dict[str, Any]:
    out: dict[str, Any] = {
        "input": str(res.manifold),
        "normalized": manifold_json(res.manifold),
        "e0": res.manifold.e0,
        "sum": rat(res.manifold.invariant_sum),
        "status": res.status,
    }
    if res.count is not None:
        out["count"] = res.count
    fill = {"kind": res.fillability.kind}
    if res.fillability.stein_lower is not None:
        fill["stein_lower"] = res.fillability.stein_lower
    if res.fillability.non_stein_lower is not None:
        fill["non_stein_lower"] = res.fillability.non_stein_lower
    if res.fillability.all_strong is not None:
        fill["all_strong"] = res.fillability.all_strong
    if res.fillability.note:
        fill["note"] = res.fillability.note
    out["fillability"] = fill
    out["certificate"] = {"case": res.certificate.case, **encode(res.certificate.data)}
    return out


def _write(value: Any, pad: str, out: list[str]) -> None:
    """Append the text json.dumps(value, indent=2) gives, at indentation pad, to out.

    Keys must be strings and no value may be a float; a list of plain ints
    is written in one join.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"report keys must be str, not {type(k).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(k))
            out.append(": ")
            _write(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        if set(map(type, value)) == {int}:
            out.append("[\n" + inner + (",\n" + inner).join(map(int.__repr__, value)) + "\n" + pad + "]")
            return
        sep = "[\n" + inner
        for v in value:
            out.append(sep)
            _write(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"cannot write {type(value).__name__} into a report")


def report(command: str, result: dict[str, Any]) -> str:
    """The report document as json.dumps(doc, indent=2) writes it, in one pass."""
    out: list[str] = []
    _write({"schema": SCHEMA, "exact": True, "command": command, "result": result}, "", out)
    return "".join(out)
