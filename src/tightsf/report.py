"""Canonical JSON reports, each its document's shape template filled with its leaves.

The writer renders library values itself: a `Slope`, a `Fraction` and each
integer pair (num, den) of `SlopeCoeffs` is a {"num", "den"} object (the
infinite slope is {"num": 1, "den": 0}), and a record, any other named tuple
such as `Fillability`, is an object of its `_fields` in order, leaving out
fields that are None.  A classify report is written from the
`ClassificationResult` itself, whose report fields lead with its manifold's.

Every document takes one path: _walk, the one dispatch on exact value types,
reads its shape key and its leaves, _layout, the one place that knows the JSON
layout, writes the shape's %-template from the key alone, and the leaves fill
it.  A value whose type fixes its shape (a slope, a fraction, a manifold's
normalized form, the named tuples `SlopeCoeffs` and `LimitInfo`) is one step:
its type alone goes into the key, and one function gives its leaves.  A
`Shortcut` row is one step around its entries.  A leaf is one %s slot: an
escaped str, an int, a bool's JSON word, a num or a den, an int of a short list
of ints, the joined ints of a longer one, or the entries of an `Expansion` of at
most _MAX_ITEMS entries.  A splice is text its own writer puts between two
stretches of a template: a longer `Expansion`, a `MaxTwistTable` from one row
template, and any other list or tuple of more than _MAX_ITEMS items, item by
item.  At most _MAX_SHAPES templates are kept; nothing is cached by value.
"""
from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Any, Iterable, Iterator

from .classify import ClassificationResult, Shortcut
from .contfrac import Expansion
from .convex import LimitInfo, MaxTwistTable, SlopeCoeffs
from .seifert import SeifertData
from .slopes import Slope

SCHEMA = "tightsf/1"


def classification_json(res: ClassificationResult) -> ClassificationResult:
    """The classify document: the result itself, which the report walks."""
    return res


def _write_expansion(value: Expansion, pad: str, out: list[str]) -> None:
    """Append the JSON list of a long expansion's entries, as _write does for a
    tuple of ints, from its runs.  The single entries between long runs are
    one join, and a run of m >= 2 entries is its first entry plus one string
    repetition of the rest, appended on its own, so the Python steps are
    O(runs) and each long run's text is copied once.
    """
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


# A list or tuple of more items than this, or a longer Expansion, is a splice,
# not walked into its document's shape.
_MAX_ITEMS = 16
# The number of document shapes whose templates are kept.
_MAX_SHAPES = 64
# The template of each shape key kept so far: one %-template per stretch
# between splices.  A template depends on its key alone, so threads that race
# on it can only build one twice.
_TEMPLATES: dict[tuple, tuple[str, ...]] = {}
# The shape tokens of a slope or fraction: the object {"num", "den"} of two leaves.
_NUM_DEN = (("num", "den"), "\0", "\0")
_WORDS = {False: "false", True: "true"}


def _manifold_leaves(sd: SeifertData) -> tuple[int, ...]:
    """e0, each r_i = p_i/q_i as num and den, then the p_i, q_i, u_i and v_i."""
    (p1, q1, u1, v1), (p2, q2, u2, v2), (p3, q3, u3, v3) = sd.conv
    return sd.e0, p1, q1, p2, q2, p3, q3, p1, p2, p3, q1, q2, q3, u1, u2, u3, v1, v2, v3


# Each type whose shape it fixes: the shape tokens _layout reads for it, and the function
# that gives its leaves.  _walk looks here first, so no named tuple here is a list or a record.
_FIXED = {
    Slope: (_NUM_DEN, attrgetter("num", "den")),
    Fraction: (_NUM_DEN, Fraction.as_integer_ratio),
    SeifertData: ((("e0", "r", "p", "q", "u", "v"), "\0", 3, Fraction, Fraction, Fraction, -3, -3, -3, -3),
                  _manifold_leaves),
    SlopeCoeffs: ((("A", "C", "F", "D"), Slope, Slope, Slope, Slope), lambda c: (*c.A, *c.C, *c.F, *c.D)),
    LimitInfo: ((("limit", "increasing", "threshold_ok"), Slope, "\0", "\0"),
                lambda lim: (lim.limit.num, lim.limit.den, _WORDS[lim.increasing], _WORDS[lim.threshold_ok])),
}
# The report field names of each record type whose fields are not its own
# _fields: a classify result's manifold text, normalized form, e0 and sum,
# then its own fields after the manifold.
_RECORDS = {ClassificationResult: ("input", "normalized", "e0", "sum", "status", "count", "fillability", "certificate")}


def _expansion(value: Expansion, pad: str, key: list, leaves: list, splices: list) -> None:
    """An Expansion's walk step: a leaf, its entries' text, or else a splice."""
    n = value.entry_count()
    if n > _MAX_ITEMS:
        splices.append((len(leaves), _write_expansion, value, pad))
        key.append("\1")
    elif n:
        sep = ",\n" + pad + "  "
        leaves.append(sep.join([int.__repr__(a) if m == 1 else sep.join((int.__repr__(a),) * m) for a, m in value]))
        key.append(-1)
    else:
        key.append(0)


def _walk(values: Iterable, pad: str, key: list, leaves: list, splices: list) -> None:
    """Append the shape tokens and leaves of values at indentation pad, in the
    order _layout visits them, and each splice as (leaves before it, writer,
    value, pad).  Tokens: "\0" a leaf, "\1" a splice, "null" None; a dict's
    keys, then its values; a _FIXED type alone; a record's type, then its
    fields; a list's length n, then its items, or -n for n plain ints, or -1
    for one leaf of ints or entries."""
    for value in values:
        t = type(value)
        if t is int:
            leaves.append(value)
        elif t is str:
            leaves.append(encode_basestring_ascii(value))
        elif t in _FIXED:
            key.append(t)
            leaves += _FIXED[t][1](value)
            continue
        elif t is dict:
            key.append(tuple(value))
            _walk(value.values(), pad + "  ", key, leaves, splices)
            continue
        elif t is list or t is tuple:
            n = len(value)
            if n and set(map(type, value)) == {int}:
                if n > _MAX_ITEMS:
                    leaves.append((",\n" + pad + "  ").join(map(int.__repr__, value)))
                    key.append(-1)
                else:
                    leaves.extend(value)
                    key.append(-n)
            elif n > _MAX_ITEMS:
                splices.append((len(leaves), _write_items, value, pad))
                key.append("\1")
            else:
                key.append(n)
                _walk(value, pad + "  ", key, leaves, splices)
            continue
        elif t is bool:
            leaves.append(_WORDS[value])
        elif value is None:
            key.append("null")
            continue
        elif t is Expansion:
            _expansion(value, pad, key, leaves, splices)
            continue
        elif t is Shortcut:
            # {"r", "entries", "boundary", "count"}: r = p/q and the boundary (p - q)/(v - u)
            # are in lowest terms, since (p - q) v + (v - u) q = p v - q u = 1 and v > u
            p, q, u, v = value.conv
            key += (("r", "entries", "boundary", "count"), Fraction)
            leaves += (p, q)
            _expansion(value.entries, pad + "  ", key, leaves, splices)
            key += (Slope, "\0")
            leaves += (p - q, v - u, value.count)
            continue
        elif t is MaxTwistTable:
            splices.append((len(leaves), _write_max_twist_table, value, pad))
            key.append("\1")
            continue
        elif t is ClassificationResult:
            sd = value.manifold
            key.append(t)
            _walk((str(sd), sd, sd.e0, sd.invariant_sum, *value[1:]), pad + "  ", key, leaves, splices)
            continue
        elif isinstance(value, tuple) and hasattr(t, "_fields"):
            key.append(t)
            _walk(value, pad + "  ", key, leaves, splices)
            continue
        else:
            raise TypeError(f"cannot write {t.__name__} into a report")
        key.append("\0")


def _layout(tokens: Iterator, pad: str) -> str:
    """The text json.dumps(value, indent=2) gives, at indentation pad, for a
    value whose shape is read token by token from tokens, with "\0" for each
    leaf and "\1" for each splice.  encode_basestring_ascii escapes NUL and
    SOH in a key, and raises TypeError on a non-str key."""
    tok = next(tokens)
    if type(tok) is str:
        return tok
    inner = pad + "  "
    if type(tok) is int:
        items = ["\0"] * -tok if tok < 0 else [_layout(tokens, inner) for _ in range(tok)]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]" if items else "[]"
    if type(tok) is tuple:
        items = [encode_basestring_ascii(k) + ": " + _layout(tokens, inner) for k in tok]
    elif tok in _FIXED:
        return _layout(iter(_FIXED[tok][0]), pad)
    else:
        items = [encode_basestring_ascii(k) + ": " + v
                 for k in _RECORDS.get(tok, tok._fields) if (v := _layout(tokens, inner)) != "null"]
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}" if items else "{}"


def _template(shape: tuple, slots: int, splices: int) -> tuple[str, ...]:
    """The template of a shape key, kept while _TEMPLATES has room: the
    layout of the shape, cut at each splice, with each % doubled and each
    leaf's marker made %s."""
    tokens = iter(shape)
    text = _layout(tokens, next(tokens))
    if text.count("\0") != slots or text.count("\1") != splices:
        raise ArithmeticError(f"a template of {text.count(chr(0))} slots and {text.count(chr(1))} splices "
                              f"for {slots} leaves and {splices} splices")
    template = tuple(text.replace("%", "%%").replace("\0", "%s").split("\1"))
    if len(_TEMPLATES) < _MAX_SHAPES:
        _TEMPLATES[shape] = template
    return template


def _write(value: Any, pad: str, out: list[str]) -> None:
    """Append the text json.dumps(value, indent=2) gives, at indentation pad, to
    out, with each slope, fraction and record in its JSON form: the template
    of value's shape filled with its leaves, each splice written in between.
    Keys must be strings and no value may be a float.
    """
    key: list = [pad]
    leaves: list = []
    splices: list = []
    _walk((value,), pad, key, leaves, splices)
    shape = tuple(key)
    template = _TEMPLATES.get(shape) or _template(shape, len(leaves), len(splices))
    if not splices:
        out.append(template[0] % tuple(leaves))
        return
    start = 0
    for part, (end, writer, item, item_pad) in zip(template, splices):
        out.append(part % tuple(leaves[start:end]))
        writer(item, item_pad, out)
        start = end
    out.append(template[-1] % tuple(leaves[start:]))


def _write_items(value: list | tuple, pad: str, out: list[str]) -> None:
    """Append the JSON list of a list or tuple of more than _MAX_ITEMS items
    that are not all plain ints, each item written by _write at the inner
    indentation."""
    inner = pad + "  "
    sep = ",\n" + inner
    head = "[\n" + inner
    for v in value:
        out.append(head)
        _write(v, inner, out)
        head = sep
    out.append("\n" + pad + "]")


def _write_max_twist_table(value: MaxTwistTable, pad: str, out: list[str]) -> None:
    """Append the JSON list of a sphere-family table's rows, each the object
    {"k", "rounded", "boundary", "count"}, from one row template filled from
    a zip of the table's columns.  The row's shape key gives the boundary's
    "den" as the literal token "1", since max_twist_table checks that the V_3
    image is proportional to (1, -n+k).
    """
    inner = pad + "  "
    shape = (inner, ("k", "rounded", "boundary", "count"), "\0", *_NUM_DEN, ("num", "den"), "\0", "1", "\0")
    row, = _TEMPLATES.get(shape) or _template(shape, 5, 0)
    rows = (",\n" + inner).join(map(row.__mod__, value.tuples()))
    # three pieces, so the joined rows are not copied into a fourth
    out.extend(("[\n" + inner, rows, "\n" + pad + "]") if rows else ("[]",))


def report(command: str, result: Any) -> str:
    """The report document as json.dumps(doc, indent=2) writes it."""
    out: list[str] = []
    _write({"schema": SCHEMA, "exact": True, "command": command, "result": result}, "", out)
    return "".join(out)
