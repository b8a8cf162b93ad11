import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Any, NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightsf import report
from tightsf.classify import ClassificationResult, Fillability, classify
from tightsf.contfrac import MAX_EXPANSION, Expansion, read_leg
from tightsf.convex import LimitInfo, MaxTwistTable, SlopeCoeffs
from tightsf.seifert import SeifertData, parse_manifold
from tightsf.slopes import INF, Slope
from triples import FAMILY_TRIPLES, big_invariants, sorted_triples


class Tagged(NamedTuple):
    value: Any
    tag: str | None = None


class Retagged(NamedTuple):
    tag: str | None
    value: Any


@dataclass(frozen=True)
class Untagged:
    value: Any


def manifold_doc(sd):
    """The normalized form of a manifold as the seed's report.manifold_json
    built it: e0, the invariants, and the convergents transposed into lists."""
    return {"e0": sd.e0, "r": list(sd.r), "p": [c.p for c in sd.conv], "q": [c.q for c in sd.conv],
            "u": [c.u for c in sd.conv], "v": [c.v for c in sd.conv]}


def classification_doc(res):
    """The classify document as the seed's report.classification_json built
    it, a plain dict, with each shortcut row the dict the seed's classify
    built; the input text, the sum and each r come from the invariants."""
    sd = res.manifold
    out = {"input": f"M({sd.e0}; {', '.join(str(x) for x in sd.r)})", "normalized": manifold_doc(sd),
           "e0": sd.e0, "sum": sum(sd.r, Fraction(0)), "status": res.status}
    if res.count is not None:
        out["count"] = res.count
    out["fillability"] = res.fillability
    out["certificate"] = dict(res.certificate)
    if "shortcut" in res.certificate:
        out["certificate"]["shortcut"] = [
            {"r": r, "entries": row.entries, "boundary": Slope(p - q, v - u), "count": row.count}
            for r, row, (p, q, u, v) in zip(sd.r, res.certificate["shortcut"], sd.conv)]
    return out


def oracle(value):
    """json.dumps default: the JSON form of one library value, as the seed's
    report.rat and report.encode, classify and classification_json built it."""
    if isinstance(value, ClassificationResult):
        return spelled(classification_doc(value))
    if isinstance(value, SeifertData):
        return manifold_doc(value)
    if isinstance(value, Slope):
        return {"num": value.num, "den": value.den}
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, MaxTwistTable):
        return [{"k": k, "rounded": Slope(num, den), "boundary": Slope(boundary), "count": count}
                for k, num, den, boundary, count in value.tuples()]
    if isinstance(value, Fillability):
        fill = {"kind": value.kind}
        if value.stein_lower is not None:
            fill["stein_lower"] = value.stein_lower
        if value.non_stein_lower is not None:
            fill["non_stein_lower"] = value.non_stein_lower
        if value.all_strong is not None:
            fill["all_strong"] = value.all_strong
        if value.note:
            fill["note"] = value.note
        return fill
    if isinstance(value, Tagged):
        return {k: v for k, v in (("value", value.value), ("tag", value.tag)) if v is not None}
    if isinstance(value, Retagged):
        return {k: v for k, v in (("tag", value.tag), ("value", value.value)) if v is not None}
    raise TypeError(f"cannot encode {type(value).__name__}")


def spelled(value):
    """value with each Expansion, at any depth, replaced by the list of its
    entries, each SlopeCoeffs and LimitInfo by its dict, and each other named
    tuple by the oracle's form: json.dumps writes a tuple subclass as the list
    of its items, which for an Expansion are its runs, without asking the
    oracle."""
    t = type(value)
    if t is Expansion:
        return list(value.entries())
    if t is SlopeCoeffs:
        return {name: Fraction(*pair) for name, pair in zip("ACFD", value)}
    if t is LimitInfo:
        return {"limit": value.limit, "increasing": value.increasing, "threshold_ok": value.threshold_ok}
    if t is dict:
        return {k: spelled(v) for k, v in value.items()}
    if t is list or t is tuple:
        return t(map(spelled, value))
    if isinstance(value, tuple) and hasattr(t, "_fields"):
        return spelled(oracle(value))
    return value


def written(value) -> str:
    out = []
    report._write(value, "", out)
    return "".join(out)


# Values a report may hold: str (non-ASCII included), int (bigints
# included), bool, None, Fraction and Slope (the infinite one too), the
# Expansion of a leg, small sphere-family tables, nested in dicts, lists,
# tuples and records with an optional field, empty ones too.
leaves = st.one_of(
    st.text(max_size=8),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.booleans(),
    st.none(),
    st.fractions(),
    st.builds(Slope, st.integers(), st.integers(min_value=1)),
    st.just(INF),
    st.fractions(min_value=0, max_value=1, max_denominator=10**4).filter(lambda r: 0 < r < 1).map(
        lambda r: read_leg(r.numerator, r.denominator)[0]),
    st.just(Expansion([])),
    st.integers(min_value=1, max_value=20).map(MaxTwistTable),
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
        st.builds(Tagged, inner, st.none() | st.text(max_size=8)),
    ),
    max_leaves=20,
)


@settings(max_examples=120, deadline=None)
@given(values)
def test_writer_matches_json_dumps(value):
    assert written(value) == json.dumps(spelled(value), indent=2, default=oracle)


def dumped(command, result) -> str:
    """The oracle's text of a report document."""
    doc = {"schema": report.SCHEMA, "exact": True, "command": command, "result": result}
    return json.dumps(spelled(doc), indent=2, default=oracle)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.text(max_size=8), values, max_size=3), st.text(max_size=8))
def test_report_matches_json_dumps(result, command):
    # from an empty shape cache, a document's first sighting builds and keeps
    # its shape's template, and its second fills the kept template
    report._TEMPLATES.clear()
    want = dumped(command, result)
    assert report.report(command, result) == want
    assert report.report(command, result) == want


def test_cold_and_warm_paths_give_the_same_bytes(monkeypatch):
    # documents of one shape whose leaves look like %-directives, need
    # escaping or are huge, under a key holding %, NUL and SOH (the template's
    # own markers): each is written directly, then from the shape's template
    monkeypatch.setattr(report, "_TEMPLATES", {})

    def doc(text, big, slope):
        return {"100% %s %(x)d \0\1 key": text, "big": [big, -big], "slope": slope,
                "record": Tagged(Fraction(big, 3), text), "mixed": [text, slope, {"%": big}]}

    docs = [doc("%", 10**400, INF), doc("%s", -(10**400), Slope(-3, 7)), doc("%%", 1, INF),
            doc("%(x)d", 0, Slope(2)), doc("n\u00efv \u00e9 \u2713 \0 \"q\" \\ %", 10**400 + 1, Slope(5, 3))]
    for d in docs:
        want = dumped("%s", d)
        assert report.report("%s", d) == want
        assert report.report("%s", d) == want
    assert len(report._TEMPLATES) == 1 and None not in report._TEMPLATES.values()
    # a non-str key or a float raises TypeError on the first sighting and
    # again where the second would build a template; none is kept
    for bad in ({1: "a"}, {"%": {2: INF}}, {"x": [1.5]}):
        for _ in range(3):
            with pytest.raises(TypeError):
                report.report("c", bad)
    assert sum(t is not None for t in report._TEMPLATES.values()) == 1


def test_warm_report_builds_no_template(monkeypatch):
    # counted work, not timing: a sum_lt_2 document's first sighting builds
    # its shape's template and keeps it, and then that document again and
    # another sum_lt_2 document are that template filled, with no build; a
    # sphere-family document's first sighting builds and keeps two templates,
    # the document's and its table's row, and warm it builds none; with a
    # cache that keeps nothing, each sphere-family report builds both and
    # keeps neither
    monkeypatch.setattr(report, "_TEMPLATES", {})
    first, other, new = (report.classification_json(classify(parse_manifold(text)))
                         for text in ("-2;1/3,2/5,3/7", "-2;1/4,2/7,3/8", "-2;1/2,2/3,6/7"))
    assert first.certificate["case"] == other.certificate["case"] == "sum_lt_2" != new.certificate["case"]
    built = []
    template = report._template
    monkeypatch.setattr(report, "_template", lambda *args: built.append(args[0]) or template(*args))
    assert report.report("classify", first) == dumped("classify", first)
    assert len(built) == 1 and list(report._TEMPLATES) == built
    built.clear()
    for doc in (first, other):
        assert report.report("classify", doc) == dumped("classify", doc)
    assert built == [] and len(report._TEMPLATES) == 1
    for _ in range(2):
        assert report.report("classify", new) == dumped("classify", new)
    assert len(built) == 2 and list(report._TEMPLATES)[1:] == built
    monkeypatch.setattr(report, "_TEMPLATES", {})
    monkeypatch.setattr(report, "_MAX_SHAPES", 0)
    for _ in range(3):
        built.clear()
        assert report.report("classify", new) == dumped("classify", new)
        assert len(built) == 2 and report._TEMPLATES == {}


def test_sweep_shapes_are_few(monkeypatch):
    # every 10th triple of the q_i <= 12 sweep falls in at most 8 shapes
    monkeypatch.setattr(report, "_TEMPLATES", {})
    for triple in islice(sorted_triples(12), 0, None, 10):
        doc = report.classification_json(classify(parse_manifold("-2;" + ",".join(map(str, triple)))))
        assert report.report("classify", doc) == dumped("classify", doc)
    assert 0 < len(report._TEMPLATES) <= 8


def test_shape_cache_is_bounded(monkeypatch):
    # 10^4 documents of distinct shapes (distinct key names): the cache stops
    # at its bound, and each later shape's template is laid out and filled
    # but not kept
    monkeypatch.setattr(report, "_TEMPLATES", {})
    for i in range(10**4):
        result = {f"key {i}": i, "r": Fraction(1, i + 2)}
        want = dumped("bound", result)
        assert report.report("bound", result) == want
        assert report.report("bound", result) == want
    assert len(report._TEMPLATES) == report._MAX_SHAPES
    assert None not in report._TEMPLATES.values()


# Dicts, lists and tuples of more than _MAX_ITEMS items, which are spliced
# into a report item by item: mixed values, keys holding %, NUL, SOH and
# non-ASCII text, and plain ints.
long_containers = st.one_of(
    st.lists(values, min_size=17, max_size=40),
    st.lists(values, min_size=17, max_size=40).map(tuple),
    st.dictionaries(st.text(st.sampled_from("%\0\1k\u00e9\u2713"), max_size=5), values, min_size=17, max_size=24),
    st.lists(st.integers(min_value=-(10**400), max_value=10**400), min_size=17, max_size=40),
)


@settings(max_examples=40, deadline=None)
@given(long_containers)
def test_long_containers_match_json_dumps(value):
    # at each indentation, from an empty shape cache, then warm, and with a
    # cache that keeps nothing, the text is json.dumps's
    want = json.dumps(spelled(value), indent=2, default=oracle)
    for max_shapes in (report._MAX_SHAPES, 0):
        with mock.patch.object(report, "_TEMPLATES", {}), mock.patch.object(report, "_MAX_SHAPES", max_shapes):
            for _ in range(2):
                for pad in ("", "  ", "      "):
                    out = []
                    report._write(value, pad, out)
                    assert "".join(out) == want.replace("\n", "\n" + pad)
                assert report.report("long", value) == dumped("long", value)
            assert len(report._TEMPLATES) <= max_shapes


def test_long_dict_is_laid_out_in_its_shape():
    # a dict of more than _MAX_ITEMS keys is walked like any other dict: its
    # int values are leaves of the document's one template, not splices
    doc = {f"k{i}": i for i in range(17)}
    with mock.patch.object(report, "_TEMPLATES", {}):
        assert report.report("x", doc) == json.dumps(
            {"schema": report.SCHEMA, "exact": True, "command": "x", "result": doc}, indent=2)
        assert len(report._TEMPLATES) == 1


def test_classification_report_matches_json_dumps():
    for text in ("-2;1/2,2/3,6/7", "-2;1/2,2/3,11/13", "-2;7/9,7/9,7/9", "-2;1/2,2/3,5/6", "-2;1/2,3/4,4/5",
                 "-2;1/3,1/3,99/100", "-2;1/2,2/3,7/8"):
        doc = report.classification_json(classify(parse_manifold(text)))
        assert report.report("classify", doc) == json.dumps(
            {"schema": report.SCHEMA, "exact": True, "command": "classify", "result": spelled(doc)},
            indent=2, default=oracle,
        )


def manifold_text(e0, legs):
    return f"{e0};" + ",".join(f"{p}/{q}" for p, q in legs)


def test_classify_reports_match_the_seed_builder(monkeypatch):
    # report.report writes a ClassificationResult straight from its fields,
    # and classification_json hands it the result itself; byte for byte the
    # text is json.dumps of the seed's plain-dict document, on every 10th
    # triple with q_i <= 12 and on each family triple, cold and warm
    monkeypatch.setattr(report, "_TEMPLATES", {})
    texts = ["-2;" + ",".join(map(str, triple)) for triple in islice(sorted_triples(12), 0, None, 10)]
    texts += [manifold_text(-2, legs) for legs in FAMILY_TRIPLES]
    cases = set()
    for text in texts:
        res = classify(parse_manifold(text))
        want = dumped("classify", res)
        assert report.report("classify", res) == want
        assert report.report("classify", report.classification_json(res)) == want
        cases.add(res.certificate["case"])
    assert len(texts) == 1633 and len(cases) == 7


@settings(max_examples=60, deadline=None)
@given(big_invariants())
def test_big_leg_reports_match_the_seed_builder(drawn):
    # 64-512-bit legs, parsed from text, classified and reported: short and
    # long expansions, every regime the draws reach
    sd = parse_manifold(manifold_text(*drawn))
    try:
        res = classify(sd)
    except ValueError:
        assert max(leg.entry_count() for leg in sd.legs) > MAX_EXPANSION
        return
    assert report.report("classify", res) == dumped("classify", res)


def test_fixed_shape_values_are_one_walk_step(monkeypatch):
    # counted work, not timing: a sum_lt_2 report makes 7 walks (the
    # document, its envelope, the result, its fillability, the certificate,
    # the shortcut list and the imbalance) over a shape key of 44 tokens, for
    # 70 leaves; the manifold, the coefficients, the limit and each slope and
    # fraction are one step that puts its type alone in the key, so no
    # {"num", "den"} object is spelled out in it, and each shortcut row is one
    # step around one expansion step
    monkeypatch.setattr(report, "_TEMPLATES", {})
    res = classify(parse_manifold("-2;1/3,2/5,3/7"))
    assert res.certificate["case"] == "sum_lt_2"
    calls = {"_walk": 0, "_expansion": 0}
    for name in calls:
        def counted(*args, fn=getattr(report, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(report, name, counted)
    text = report.report("classify", res)
    (shape, template), = report._TEMPLATES.items()
    assert calls == {"_walk": 7, "_expansion": 3}
    assert len(shape) == 44 and template[0].count("%s") == 70
    assert {SeifertData, SlopeCoeffs, LimitInfo, Fraction, Slope} <= set(shape) and ("num", "den") not in shape
    assert text == dumped("classify", res)


def _fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def expansion_legs():
    """(p, q) of legs whose expansions are one long run, all single entries,
    or a mix: near-1 and 1/q legs, Fibonacci ratios, and random legs of 2^4 ..
    2^14 bits."""
    for q in (2, 3, 10, 10**3, 10**5):
        yield q - 1, q
        yield 1, q
    for k in (5, 60, 400, 1200):
        yield _fib(k - 1), _fib(k)
        yield _fib(k - 2), _fib(k)
        yield _fib(k), _fib(k + 2)
    rng = random.Random(14)
    for e in range(2, 15):
        for _ in range(3):
            q = rng.getrandbits(2**e) | (1 << (2**e - 1))
            p = rng.randrange(1, q)
            g = gcd(p, q)
            yield p // g, q // g


def test_expansion_writer_matches_json_dumps():
    # an Expansion is written run by run; at any nesting depth the text is
    # json.dumps of its entries
    for p, q in expansion_legs():
        e = read_leg(p, q)[0]
        want = json.dumps(list(e.entries()), indent=2)
        for pad in ("", "  ", "      "):
            out = []
            report._write(e, pad, out)
            assert "".join(out) == want.replace("\n", "\n" + pad)
    assert written(Expansion([])) == "[]"
    assert written({"e": Expansion([])}) == json.dumps({"e": []}, indent=2)


def test_max_twist_table_writer_matches_json_dumps(monkeypatch):
    # a table is written from one row template; at any nesting depth the text
    # is json.dumps of its row objects
    for n in [*range(1, 41), 799, 800, 10**4]:
        table = MaxTwistTable(n)
        want = json.dumps([
            {"k": k, "rounded": {"num": num, "den": den}, "boundary": {"num": boundary, "den": 1}, "count": count}
            for k, num, den, boundary, count in table.tuples()], indent=2)
        for pad in ("", "  ", "      "):
            out = []
            report._write(table, pad, out)
            assert "".join(out) == want.replace("\n", "\n" + pad)
    assert written(MaxTwistTable(0)) == "[]"
    # the row template is the layout of the row's shape key, the boundary's
    # den the literal token "1", and it is kept in the one shape cache
    for pad in ("", "  ", "      "):
        monkeypatch.setattr(report, "_TEMPLATES", {})
        report._write_max_twist_table(MaxTwistTable(3), pad, [])
        assert list(report._TEMPLATES) == [(pad + "  ", ("k", "rounded", "boundary", "count"), "\0",
                                            ("num", "den"), "\0", "\0", ("num", "den"), "\0", "1", "\0")]


def test_max_twist_table_rows_reach_out_unjoined():
    # a non-empty table appends each piece of its row template and each
    # column's digits as an item of out: no row is formatted or joined into a
    # copy, and the digits of k serve -k, the boundary -(n-k) and the count n-k
    for n in (1, 2, 800):
        for pad in ("", "    "):
            out = ["before"]
            report._write_max_twist_table(MaxTwistTable(n), pad, out)
            assert out[0] == "before" and len(out) == 10 * n + 2
            assert out[1].startswith("[\n" + pad + "  ") and out[-1].endswith("\n" + pad + "]")
            assert max(map(len, out)) < 100 and "".join(out[1:]).replace("\n" + pad, "\n") == written(MaxTwistTable(n))
            rows = out[1:-1]
            assert rows[1::10] == rows[3::10] == list(map(str, range(n)))
            assert rows[5::10] == list(map(str, range(1, 6 * n, 6)))
            assert rows[7::10] == rows[9::10] == list(map(str, range(n, 0, -1)))
            assert all(a is b for a, b in zip(rows[1::10], rows[3::10]))
            assert all(a is b for a, b in zip(rows[11::10], reversed(rows[9::10])))


def test_max_twist_table_holds_no_columns():
    # a table is its n alone, so the writer reads only n and has no column
    # to check: no table can be built with a column of its own
    table = MaxTwistTable(5)
    assert MaxTwistTable._fields == ("n",)
    for column in ("k", "rounded_num", "rounded_den", "boundary", "count"):
        with pytest.raises(ValueError):
            table._replace(**{column: range(5)})
    with pytest.raises(TypeError):
        MaxTwistTable(5, range(5))
    assert json.loads(report.report("classify", {"per_k": table}))["result"]["per_k"] == json.loads(written(table))


def test_writer_int_tuples_and_fractions():
    for value in ((-2, -2, -3), (True, 1), {"r": Fraction(1, 2), "e": ()}):
        assert written(value) == json.dumps(value, indent=2, default=oracle)
    assert json.loads(written((True, 1))) == [True, 1]
    assert json.loads(written({"r": Fraction(1, 2), "e": ()})) == {"r": {"num": 1, "den": 2}, "e": []}
    # two record types with the same field names in different orders, in one
    # list: each keeps its own declaration order
    pair = [Tagged(1, "a"), Retagged("b", 2), Tagged(Fraction(1, 3)), Retagged(None, INF)]
    assert written(pair) == json.dumps(spelled(pair), indent=2, default=oracle)
    assert [list(record) for record in json.loads(written(pair))] == [
        ["value", "tag"], ["tag", "value"], ["value"], ["value"]]
    for value in (1.5, object(), Tagged, {1: 2}, Tagged(1.5), [Retagged("t", [2.5])], Untagged(1)):
        with pytest.raises(TypeError):
            written(value)
