"""Canonical JSON reports, written in one pass.

The writer renders library values itself: a `Slope` or `Fraction` is a
{"num", "den"} pair (the infinite slope is {"num": 1, "den": 0}), and a record,
a dataclass such as `SlopeCoeffs`, `LimitInfo` or `Fillability`, is an object
of its fields in declaration order, leaving out fields that are None.  Callers
pass these values into a report unchanged.  Field order is fixed at
construction time and json round-trips byte for byte; no value in a report is
ever a float.

The writer dispatches on the exact type of each value: str, int, bool, None,
`Slope`, `Fraction`, dict, `Expansion`, list and tuple, `MaxTwistTable`, and a
record is any other type with `__dataclass_fields__`.  An `Expansion` (a tuple
subclass) is the list of its entries, written one run of equal entries at a
time.  A `MaxTwistTable` is the list of its rows, each written as the object
{"k", "rounded", "boundary", "count"} from one template filled straight from
the table's columns, so no row object is built.  Other subclasses of the
plain types are not accepted, so no value pays for an isinstance test
(against `Fraction` that is an ABC check).
A record type's field names are read once and kept in a module dict keyed by
the type.  Any other value raises TypeError.
"""
from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .classify import ClassificationResult
from .contfrac import Expansion
from .convex import MaxTwistTable
from .seifert import SeifertData
from .slopes import Slope

SCHEMA = "tightsf/1"


def manifold_json(sd: SeifertData) -> dict[str, Any]:
    return {
        "e0": sd.e0,
        "r": sd.r,
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
        "sum": res.manifold.invariant_sum,
        "status": res.status,
    }
    if res.count is not None:
        out["count"] = res.count
    out["fillability"] = res.fillability
    out["certificate"] = {"case": res.certificate.case, **res.certificate.data}
    return out


def _write_object(items, pad: str, out: list[str]) -> None:
    inner = pad + "  "
    sep = "{\n" + inner
    for k, v in items:
        if not isinstance(k, str):
            raise TypeError(f"report keys must be str, not {type(k).__name__}")
        out.append(sep)
        out.append(encode_basestring_ascii(k))
        out.append(": ")
        _write(v, inner, out)
        sep = ",\n" + inner
    out.append("{}" if sep[0] == "{" else "\n" + pad + "}")


# The field names of each record type written so far, in declaration order.
_FIELDS: dict[type, tuple[str, ...]] = {}


def _write(value: Any, pad: str, out: list[str]) -> None:
    """Append the text json.dumps(value, indent=2) gives, at indentation pad, to
    out, with each slope, fraction and record in its JSON form.  Keys must be
    strings and no value may be a float; a list of plain ints is one join.
    """
    t = type(value)
    if t is str:
        out.append(encode_basestring_ascii(value))
    elif t is int:
        out.append(int.__repr__(value))
    elif t is Slope or t is Fraction:
        num, den = (value.num, value.den) if t is Slope else value.as_integer_ratio()
        inner = pad + "  "
        out.append(f'{{\n{inner}"num": {num},\n{inner}"den": {den}\n{pad}}}')
    elif t is bool:
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif t is dict:
        _write_object(value.items(), pad, out)
    elif t is Expansion:
        _write_expansion(value, pad, out)
    elif t is list or t is tuple:
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
        if t is MaxTwistTable:
            _write_max_twist_table(value, pad, out)
            return
        fields = _FIELDS.get(t)
        if fields is None:
            if not hasattr(t, "__dataclass_fields__"):
                raise TypeError(f"cannot write {t.__name__} into a report")
            fields = _FIELDS[t] = tuple(t.__dataclass_fields__)
        _write_object(((k, v) for k in fields if (v := getattr(value, k)) is not None), pad, out)


def _write_expansion(value: Expansion, pad: str, out: list[str]) -> None:
    """Append the JSON list of an expansion's entries, as _write does for a
    tuple of ints.  A run of m >= 2 equal entries is one string repetition,
    and the single entries between such runs are one join, so the Python
    steps are O(runs) however long the expansion is.
    """
    if not value:
        out.append("[]")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    out.append("[\n" + inner + int.__repr__(value[0]))
    done = 1  # entries before this index are written
    end = 0  # the end of the current run
    for a, m in value.runs:
        end += m
        if m > 1:
            start = end - m
            if done < start:
                out.append(sep + sep.join(map(int.__repr__, value[done:start])))
                done = start
            out.append((sep + int.__repr__(a)) * (end - done))
            done = end
    if done < end:
        out.append(sep + sep.join(map(int.__repr__, value[done:end])))
    out.append("\n" + pad + "]")


def _write_max_twist_table(value: MaxTwistTable, pad: str, out: list[str]) -> None:
    """Append the JSON list of a sphere-family table's rows, each the object
    {"k", "rounded", "boundary", "count"}, from one %-template filled from a
    zip of the table's columns.  The boundary's "den" is the literal 1, since
    max_twist_table checks that the V_3 image is proportional to (1, -n+k).
    """
    inner = pad + "  "
    i2 = inner + "  "
    i3 = i2 + "  "
    tmpl = (f'{{\n{i2}"k": %d,\n{i2}"rounded": {{\n{i3}"num": %d,\n{i3}"den": %d\n{i2}}},'
            f'\n{i2}"boundary": {{\n{i3}"num": %d,\n{i3}"den": 1\n{i2}}},\n{i2}"count": %d\n{inner}}}')
    rows = (",\n" + inner).join(map(tmpl.__mod__, value.tuples()))
    out.append("[\n" + inner + rows + "\n" + pad + "]" if rows else "[]")


def report(command: str, result: Any) -> str:
    """The report document as json.dumps(doc, indent=2) writes it, in one pass."""
    out: list[str] = []
    _write({"schema": SCHEMA, "exact": True, "command": command, "result": result}, "", out)
    return "".join(out)
