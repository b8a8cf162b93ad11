"""Canonical JSON reports, written in one pass or filled into a template.

The writer renders library values itself: a `Slope` or `Fraction` is a
{"num", "den"} pair (the infinite slope is {"num": 1, "den": 0}), and a record,
a dataclass such as `SlopeCoeffs`, `LimitInfo` or `Fillability`, is an object
of its fields in declaration order, leaving out fields that are None.  Callers
pass these values into a report unchanged.  Field order is fixed at
construction time and json round-trips byte for byte; no value in a report is
ever a float.

The writer dispatches on the exact type of each value: str, int, bool, None,
`Slope`, `Fraction`, dict, `Expansion`, list and tuple, `MaxTwistTable`, and a
record is any other type with `__dataclass_fields__`.  An `Expansion` (the
tuple of a leg's runs) is the list of its entries, written from the runs: the
single entries between long runs as one join, and each long run as one
string repetition, so no flat tuple of entries is built.  A `MaxTwistTable`
is the list of its rows, each written as the object {"k", "rounded",
"boundary", "count"} from one template filled straight from the table's
columns, so no row object is built.  Other subclasses of the
plain types are not accepted, so no value pays for an isinstance test
(against `Fraction` that is an ABC check).
A record type's field names are read once and kept in a module dict keyed by
the type.  Any other value raises TypeError.

report() fills a %-template per document shape instead of re-deriving the
layout of each document; the 16,215 classify reports of the q_i <= 12 sweep
come in 6 shapes.  _walk reads a document's shape key (each dict's keys, each
record's type and which fields are None, each list's length, each leaf's
type) and its leaves, each one %s slot: an escaped str, an int, a bool, the
num or the den of a slope or fraction, an int of a short list of ints, or the
entries of an Expansion of at most _MAX_ITEMS entries (its entry count,
not its number of runs, decides).  _template has _write write a placeholder
document of the shape, so _write stays the one place that knows the layout.
A shape is templated from its second sighting, so a one-shot process never
builds a template.  A longer Expansion and a MaxTwistTable are spliced in by
their own writers, never formatted through %.  A document with a dict, list or tuple of more than
_MAX_ITEMS items (floer's classes, a large seifert matrix) is written
directly, and so is one of a new shape once the cache holds _MAX_SHAPES.
Nothing is cached by value.
"""
from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator

from .classify import ClassificationResult
from .contfrac import Expansion
from .convex import MaxTwistTable
from .seifert import SeifertData
from .slopes import Slope

SCHEMA = "tightsf/1"


def manifold_json(sd: SeifertData) -> dict[str, Any]:
    p, q, u, v = map(list, zip(*sd.conv))
    return {"e0": sd.e0, "r": sd.r, "p": p, "q": q, "u": u, "v": v}


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


# The field names of each record type met so far, in declaration order.
_FIELDS: dict[type, tuple[str, ...]] = {}


def _record_fields(t: type) -> tuple[str, ...] | None:
    """The field names of record type t, read once into _FIELDS; None if t
    is not a dataclass."""
    fields = _FIELDS.get(t)
    if fields is None and hasattr(t, "__dataclass_fields__"):
        fields = _FIELDS[t] = tuple(t.__dataclass_fields__)
    return fields


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
        if t is _Slot:
            out.append(value)
            return
        if t is MaxTwistTable:
            _write_max_twist_table(value, pad, out)
            return
        fields = _record_fields(t)
        if fields is None:
            raise TypeError(f"cannot write {t.__name__} into a report")
        _write_object(((k, v) for k in fields if (v := getattr(value, k)) is not None), pad, out)


def _write_expansion(value: Expansion, pad: str, out: list[str]) -> None:
    """Append the JSON list of an expansion's entries, as _write does for a
    tuple of ints, from its runs.  The single entries between long runs are
    one join, and a run of m >= 2 entries is its first entry plus one string
    repetition of the rest, appended on its own, so the Python steps are
    O(runs) and each long run's text is copied once.
    """
    if not value:
        out.append("[]")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    head = "[\n" + inner  # what comes before the next entry
    singles: list[str] = []  # the single entries since the last long run
    for a, m in value:
        if m == 1:
            singles.append(int.__repr__(a))
            continue
        if singles:
            out.append(head + sep.join(singles))
            singles = []
            head = sep
        text = int.__repr__(a)
        out.append(head + text)
        out.append((sep + text) * (m - 1))
        head = sep
    if singles:
        out.append(head + sep.join(singles))
    out.append("\n" + pad + "]")


def _entries_text(value: Expansion, sep: str) -> str:
    """The entries of a short expansion joined by sep, from its runs."""
    return sep.join([text for a, m in value for text in (int.__repr__(a),) * m])


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


class _Slot(str):
    """A template's placeholder, which _write writes as itself: NUL for a
    leaf, SOH where a writer's text is spliced in.  No escaped string, number
    or layout text contains either character, and _write tells a _Slot from a
    str value by its exact type."""


_SLOT = _Slot("\0")
_SPLICE = _Slot("\1")


class _Direct(Exception):
    """Raised by _walk on a document that _write writes directly."""


# A dict, list or tuple of more items than this is not walked: its document
# is written directly.  A longer Expansion is spliced, not a leaf.
_MAX_ITEMS = 16
# The number of document shapes kept, templated or seen once.
_MAX_SHAPES = 64
# Each shape key seen so far, with its template once it has been seen twice:
# one %-template per stretch between splices.  A template depends on its key
# alone, so threads that race on it can only build one twice.
_TEMPLATES: dict[tuple, tuple[str, ...] | None] = {}


def _walk(values: Iterable, pad: str, key: list, leaves: list, splices: list) -> None:
    """Append the shape tokens and the leaves of each of values, written at
    indentation pad, to key and leaves, in the order _write visits them.

    Leaves: a str is its escaped text, an int the int and a bool its JSON
    word; a slope or fraction is two leaves, num and den; a list or tuple of
    at most _MAX_ITEMS plain ints is one leaf per int, and a non-empty
    Expansion of at most _MAX_ITEMS entries (counted from its runs) one
    leaf, the text of its entries.  A longer Expansion or a MaxTwistTable
    is a splice: splices gets (the number of leaves before it, its writer,
    value, pad), and its text is written straight into the report, never
    into a %-template.

    Tokens: the type of a str, int, bool, slope, fraction, None or splice; a
    dict's keys as a tuple, then its values; a record's type, then each
    field, None included; a list's or tuple's length n, then its items, or -n
    for n plain ints, or -1 for an Expansion leaf (0 for an empty one).
    Raises _Direct on a dict, list or tuple of more than _MAX_ITEMS items and
    on any other type, so that _write writes the document (or raises its
    TypeError).
    """
    for value in values:
        t = type(value)
        if t is str:
            leaves.append(encode_basestring_ascii(value))
        elif t is int:
            leaves.append(value)
        elif t is Slope:
            leaves.append(value.num)
            leaves.append(value.den)
        elif t is Fraction:
            leaves.extend(value.as_integer_ratio())
        elif t is bool:
            leaves.append("true" if value else "false")
        elif t is dict:
            if len(value) > _MAX_ITEMS:
                raise _Direct
            key.append(tuple(value))
            _walk(value.values(), pad + "  ", key, leaves, splices)
            continue
        elif t is Expansion:
            n = value.entry_count()
            if n > _MAX_ITEMS:
                splices.append((len(leaves), _write_expansion, value, pad))  # its token is t, below
            else:
                if n:
                    leaves.append(_entries_text(value, ",\n" + pad + "  "))
                key.append(-1 if n else 0)
                continue
        elif t is list or t is tuple:
            n = len(value)
            if n > _MAX_ITEMS:
                raise _Direct
            if n and set(map(type, value)) == {int}:
                leaves.extend(value)
                key.append(-n)
            else:
                key.append(n)
                _walk(value, pad + "  ", key, leaves, splices)
            continue
        elif t is MaxTwistTable:
            splices.append((len(leaves), _write_max_twist_table, value, pad))
        elif value is not None:
            fields = _FIELDS.get(t) or _record_fields(t)
            if fields is None:
                raise _Direct
            key.append(t)
            _walk(map(value.__getattribute__, fields), pad + "  ", key, leaves, splices)
            continue
        key.append(t)


def _blank(tokens: Iterator) -> Any:
    """The placeholder document of a shape key, read token by token: dicts,
    lists, None, one _SLOT per leaf and one _SPLICE per splice."""
    tok = next(tokens)
    if type(tok) is tuple:
        return {k: _blank(tokens) for k in tok}
    if type(tok) is int:
        return [_SLOT] * -tok if tok < 0 else [_blank(tokens) for _ in range(tok)]
    if tok is Slope or tok is Fraction:
        return {"num": _SLOT, "den": _SLOT}
    if tok is Expansion or tok is MaxTwistTable:
        return _SPLICE
    if tok in _FIELDS:
        return {k: v for k in _FIELDS[tok] if (v := _blank(tokens)) is not None}
    return None if tok is type(None) else _SLOT


def _template(shape: tuple, slots: int, splices: int) -> tuple[str, ...]:
    """The template of a shape key: _write's text of its placeholder
    document, cut at each splice, with each % doubled and each leaf's
    marker made %s."""
    out: list[str] = []
    _write(_blank(iter(shape)), "", out)
    text = "".join(out)
    if text.count("\0") != slots or text.count("\1") != splices:
        raise RuntimeError(f"a template of {text.count(chr(0))} slots and {text.count(chr(1))} splices "
                           f"for {slots} leaves and {splices} splices")
    return tuple(text.replace("%", "%%").replace("\0", "%s").split("\1"))


def report(command: str, result: Any) -> str:
    """The report document as json.dumps(doc, indent=2) writes it.

    From its second sighting on, a shape's document is its template filled
    with its leaves; any other document is written by _write in one pass.
    """
    doc = {"schema": SCHEMA, "exact": True, "command": command, "result": result}
    key: list = []
    leaves: list = []
    splices: list = []
    try:
        _walk((doc,), "", key, leaves, splices)
    except _Direct:
        pass
    else:
        shape = tuple(key)
        template = _TEMPLATES.get(shape)
        if template is None and shape in _TEMPLATES:
            template = _TEMPLATES[shape] = _template(shape, len(leaves), len(splices))
        if template is not None:
            if not splices:
                return template[0] % tuple(leaves)
            out: list[str] = []
            start = 0
            for part, (end, writer, value, pad) in zip(template, splices):
                out.append(part % tuple(leaves[start:end]))
                writer(value, pad, out)
                start = end
            out.append(template[-1] % tuple(leaves[start:]))
            return "".join(out)
        if len(_TEMPLATES) < _MAX_SHAPES:
            _TEMPLATES[shape] = None
    out = []
    _write(doc, "", out)
    return "".join(out)
