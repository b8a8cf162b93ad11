import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tightsf import report
from tightsf.classify import classify
from tightsf.seifert import parse_manifold

# Values a report may hold: str (non-ASCII included), int (bigints
# included), bool and None, nested in dicts, lists and tuples, empty ones too.
leaves = st.one_of(
    st.text(max_size=8),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.booleans(),
    st.none(),
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
    ),
    max_leaves=20,
)


@settings(max_examples=120, deadline=None)
@given(values)
def test_writer_matches_json_dumps(value):
    out = []
    report._write(value, "", out)
    assert "".join(out) == json.dumps(value, indent=2)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.text(max_size=8), values, max_size=3), st.text(max_size=8))
def test_report_matches_json_dumps(result, command):
    doc = {"schema": report.SCHEMA, "exact": True, "command": command, "result": result}
    assert report.report(command, result) == json.dumps(doc, indent=2)


def test_classification_report_matches_json_dumps():
    for text in ("-2;1/2,2/3,11/13", "-2;7/9,7/9,7/9", "-2;1/2,2/3,5/6", "-2;1/2,3/4,4/5",
                 "-2;1/3,1/3,99/100", "-2;1/2,2/3,7/8"):
        doc = report.classification_json(classify(parse_manifold(text)))
        assert report.report("classify", doc) == json.dumps(
            {"schema": report.SCHEMA, "exact": True, "command": "classify", "result": doc}, indent=2
        )


def test_encode_passes_int_tuples_through():
    entries = (-2, -2, -3)
    assert report.encode(entries) is entries
    assert report.encode((True, 1)) == [True, 1]
    assert report.encode({"r": Fraction(1, 2), "e": ()}) == {"r": {"num": 1, "den": 2}, "e": []}
