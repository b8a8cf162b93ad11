"""Canonical JSON reports, each its document's shape template filled with its leaves.

The writer renders library values itself: a `Slope` or `Fraction` is a
{"num", "den"} pair (the infinite slope is {"num": 1, "den": 0}), and a record,
a dataclass such as `SlopeCoeffs`, `LimitInfo` or `Fillability`, is an object
of its fields in declaration order, leaving out fields that are None.  Callers
pass these values into a report unchanged.  Field order is fixed at
construction time and json round-trips byte for byte; no value in a report is
ever a float.

Every document takes one path: _walk reads its shape key and its leaves,
_layout writes the shape's %-template from the key alone, and the leaves fill
it.  _walk is the one dispatch on value types: str, int, bool, None, `Slope`,
`Fraction`, dict, `Expansion`, list and tuple, `MaxTwistTable`, and a record
is any other type with `__dataclass_fields__`; any other value raises
TypeError.  Other subclasses of the plain types are not accepted, so no value
pays for an isinstance test (against `Fraction` that is an ABC check).  A
record's fields are read from its type's `__dataclass_fields__`.  _layout is
the one place that knows the JSON layout.

A leaf is one %s slot: an escaped str, an int, a bool, the num or the den of
a slope or fraction, an int of a short list of ints, the joined ints of a
longer one, or the entries of an `Expansion` of at most _MAX_ITEMS entries
(its entry count, not its number of runs, decides).  A splice is text
written between two stretches of a template by its own writer, never
formatted through %: a longer `Expansion` run by run, a `MaxTwistTable` from
one row template, which _layout writes from the row's shape key like any
other, and any other list or tuple of more than _MAX_ITEMS items (floer's
classes, a large seifert matrix) item by item, each item walked and filled in
turn, so item shapes are templated too.  A dict of any size is laid out in its
document's shape.  The 16,215 classify reports of the q_i <= 12 sweep come in
6 document shapes; a sphere-family report adds its row shape.  A template is
kept while the cache holds fewer than _MAX_SHAPES shapes; past that, a new
shape's template serves its one document and is dropped.  Nothing is cached
by value.
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
    p, q, u, v = zip(*sd.conv)
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
    out["certificate"] = res.certificate
    return out


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


def _walk(values: Iterable, pad: str, key: list, leaves: list, splices: list) -> None:
    """Append the shape tokens and the leaves of each of values, written at
    indentation pad, to key and leaves, in the order _layout visits them.

    Leaves: a str is its escaped text, an int the int and a bool its JSON
    word; a slope or fraction is two leaves, num and den; a list or tuple of
    at most _MAX_ITEMS plain ints is one leaf per int, and a longer one, or
    a non-empty Expansion of at most _MAX_ITEMS entries (counted from its
    runs), one leaf, the text of its entries.  A longer Expansion, a
    MaxTwistTable and any other list or tuple of more than _MAX_ITEMS items
    is a splice: splices gets (the number of leaves before it, its
    writer, value, pad).

    Tokens: "\0" for a leaf, "\1" for a splice and "null" for None; a
    dict's keys as a tuple, then its values (a slope or fraction is the dict
    _NUM_DEN); a record's type, then each field, None included; a list's or
    tuple's length n, then its items, or -n for n plain ints, or -1 for a
    one-leaf list of ints or Expansion (0 for an empty one).  Raises
    TypeError on any other type.
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
            key += _NUM_DEN
            continue
        elif t is Fraction:
            leaves.extend(value.as_integer_ratio())
            key += _NUM_DEN
            continue
        elif t is bool:
            leaves.append("true" if value else "false")
        elif value is None:
            key.append("null")
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
        elif t is Expansion:
            n = value.entry_count()
            if n > _MAX_ITEMS:
                splices.append((len(leaves), _write_expansion, value, pad))
                key.append("\1")
            else:
                if n:
                    leaves.append(_entries_text(value, ",\n" + pad + "  "))
                key.append(-1 if n else 0)
            continue
        elif t is MaxTwistTable:
            splices.append((len(leaves), _write_max_twist_table, value, pad))
            key.append("\1")
            continue
        else:
            fields = getattr(t, "__dataclass_fields__", None)
            if fields is None:
                raise TypeError(f"cannot write {t.__name__} into a report")
            key.append(t)
            _walk(map(value.__getattribute__, fields), pad + "  ", key, leaves, splices)
            continue
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
    else:
        items = [encode_basestring_ascii(k) + ": " + v
                 for k in tok.__dataclass_fields__ if (v := _layout(tokens, inner)) != "null"]
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
