import json
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings

import tightsf.classify as classify_module
import tightsf.contfrac as contfrac
import tightsf.seifert as seifert

from tightsf import report
from tightsf.classify import ALL_STEIN, EXACT, INFINITE, MIXED, TORSION, UNKNOWN, _fiber_certificate, classify
from tightsf.contfrac import expand, shifted_product
from tightsf.convex import max_twist_table
from tightsf.floer import index_set
from tightsf.seifert import normalize, parse_manifold
from tightsf.slopes import Slope
from triples import big_invariants, sorted_triples


def test_sphere_family_example():
    res = classify(parse_manifold("-2;1/2,2/3,11/13"))
    assert res.status == EXACT and res.count == 3
    assert res.fillability.kind == MIXED
    assert res.fillability.stein_lower == 2
    assert res.fillability.non_stein_lower == 1
    assert res.fillability.all_strong
    assert res.certificate["case"] == "sphere_family"
    assert [count for *_, count in res.certificate["per_k"].tuples()] == [2, 1]


def test_overlap_example():
    res = classify(parse_manifold("-2;1/2,2/3,6/7"))
    assert res.status == EXACT and res.count == 1
    assert res.fillability.kind == ALL_STEIN
    assert res.certificate["also_k_over_k_plus_1"] == 6


def test_product_count_examples():
    res = classify(parse_manifold("-2;1/2,2/3,9/11"))
    assert res.status == EXACT and res.count == 2
    assert res.fillability.kind == ALL_STEIN
    assert res.certificate["case"] == "sum_lt_2"
    res2 = classify(parse_manifold("-2;7/9,7/9,7/9"))
    assert res2.status == EXACT and res2.count == 8
    assert res2.certificate["case"] == "sum_ge_9_4"
    assert res2.certificate["limit"].threshold_ok


def test_torus_bundle_example():
    res = classify(parse_manifold("-2;1/2,2/3,5/6"))
    assert res.status == INFINITE and res.count is None
    assert res.fillability.kind == TORSION
    assert res.fillability.stein_lower == 1


def test_unknown_examples():
    res = classify(parse_manifold("-2;1/2,3/4,4/5"))
    assert res.status == UNKNOWN
    assert res.certificate["case"] == "gap_other"
    res2 = classify(parse_manifold("-2;2/5,4/5,4/5"))
    assert res2.status == UNKNOWN
    assert res2.certificate["case"] == "degenerate_sum_2"
    res3 = classify(parse_manifold("0;1/2,2/3,6/7"))
    assert res3.status == UNKNOWN
    assert res3.certificate["case"] == "wrong_e0"


def test_three_counts_agree():
    for n in range(1, 21):
        res = classify(parse_manifold(f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}"))
        assert res.count == max_twist_table(res.manifold, n).total == len(index_set(n))


def test_permutation_invariance():
    rng = random.Random(13)
    for _ in range(60):
        rs = [Fraction(rng.randint(1, 11), 12) for _ in range(3)]
        rs = [r for r in rs]
        base = classify(normalize(rs, -2))
        perm = rs[:]
        rng.shuffle(perm)
        other = classify(normalize(perm, -2))
        assert base.status == other.status and base.count == other.count


def test_no_exact_zero():
    for q in range(2, 9):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            res = classify(normalize([Fraction(p, q)] * 3, -2))
            if res.status == EXACT:
                assert res.count >= 1


def test_each_leg_is_read_once(monkeypatch):
    # one read_leg pass per leg from text to report, in every regime: parse
    # stores each leg's runs and convergents, and classify, the certificate
    # (T is the shortcut's solid-torus count) and the report only read them
    read_leg, calls = contfrac.read_leg, []

    def counted(p, q):
        calls.append((p, q))
        return read_leg(p, q)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "tightsf":
            for attr, value in list(vars(module).items()):
                if value is read_leg:
                    monkeypatch.setattr(module, attr, counted)
    assert seifert.read_leg is counted
    texts = ("-2;1/3,2/5,3/7", "-2;1/3,1/3,99999/100000", "-2;3/4,5/6,7/8", "-2;1/2,2/3,7/8",
             "-2;1/2,2/3,11/13", "-2;1/2,3/4,3/4", "-2;1/2,3/4,4/5", "-2;1/3,5/6,5/6", "-1;1/2,2/3,6/7")
    cases = set()
    for text in texts:
        calls.clear()
        res = classify(parse_manifold(text))
        report.report("classify", report.classification_json(res))
        assert len(calls) == 3, text
        cases.add(res.certificate["case"])
        if "shortcut" in res.certificate:
            assert [row.count for row in res.certificate["shortcut"]] == list(res.certificate["t_values"])
    assert len(cases) == len(texts) - 1  # every regime, sum_lt_2 twice


def test_long_run_costs_one_step(monkeypatch):
    # r = (q-1)/q expands to q-1 entries -2, one run: T reads at most one item
    # per run, writing the entries calls int.__repr__ at most once per run
    # and appends the run's repetition as a piece of its own, and classify
    # allocates O(runs) memory (counted work, not timing)
    q = 10**5
    handed = []

    def counted_product(items):
        items = list(items)
        handed.append(len(items))
        return shifted_product(items)

    sd = parse_manifold(f"-2;1/3,2/5,{q - 1}/{q}")
    monkeypatch.setattr(classify_module, "shifted_product", counted_product)
    legs = [row.entries for row in _fiber_certificate(sd, "sum_lt_2")["shortcut"]]
    assert [leg.entry_count() for leg in legs] == [1, 2, q - 1] and legs[2] == ((-2, q - 1),)
    assert len(handed) == 3 and all(n <= len(leg) for n, leg in zip(handed, legs))
    monkeypatch.undo()

    tracemalloc.start()
    classify(sd)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 64 * 1024  # q - 1 flat entries would take 800 KB

    reprs = []

    class CountedInt:  # stands in for the builtin int that report reads int.__repr__ from
        @staticmethod
        def __repr__(a):
            reprs.append(a)
            return int.__repr__(a)

    monkeypatch.setattr(report, "int", CountedInt, raising=False)
    out = []
    report._write(legs[2], "  ", out)
    monkeypatch.undo()
    assert len(reprs) <= len(legs[2])
    assert "".join(out) == json.dumps(list(legs[2].entries()), indent=2).replace("\n", "\n  ")
    assert ",\n    -2" * (q - 2) in out


def test_report_path_builds_only_the_printed_fractions(monkeypatch):
    # text -> parse -> classify -> JSON -> report over every triple with
    # q_i <= 7 builds a Fraction only for the three r that a torus bundle's
    # certificate prints as its triple: the sum and the four coefficients are
    # reduced integer pairs, and the report reads each r = p/q off the
    # convergents
    texts = [f"-2;{a},{b},{c}" for a, b, c in sorted_triples(7)]
    new, built = Fraction.__new__, []

    def counted(cls, *args, **kwargs):
        built[-1] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    cases = []
    for text in texts:
        built.append(0)
        res = classify(parse_manifold(text))
        report.report("classify", report.classification_json(res))
        cases.append(res.certificate["case"])
    monkeypatch.undo()
    assert len(built) == 969 and {"sum_lt_2", "sum_ge_9_4", "gap_other", "sphere_family"} <= set(cases)
    assert built == [3 if case == "torus_bundle" else 0 for case in cases]


def test_report_path_sums_the_invariants_once(monkeypatch):
    # parse stores the reduced invariant_sum that detect_family reads and the
    # report prints, so text -> parse -> classify -> JSON -> report derives
    # the sum once, in a product regime (sum below 2 and at least 9/4) and in
    # the gap
    sum_ratio, calls = seifert._sum_ratio, []
    monkeypatch.setattr(seifert, "_sum_ratio", lambda conv: calls.append(conv) or sum_ratio(conv))
    for text, case in (("-2;1/2,1/3,1/5", "sum_lt_2"), ("-2;3/4,4/5,5/6", "sum_ge_9_4"),
                       ("-2;2/3,3/4,4/5", "gap_other")):
        calls.clear()
        res = classify(parse_manifold(text))
        doc = json.loads(report.report("classify", report.classification_json(res)))
        assert res.certificate["case"] == case and len(calls) == 1, text
        total = sum(res.manifold.r)
        assert doc["result"]["sum"] == {"num": total.numerator, "den": total.denominator}
        assert res.manifold.invariant_sum == Slope(total.numerator, total.denominator)


@settings(max_examples=200, deadline=None)
@given(big_invariants())
def test_fiber_certificate_matches_expand_on_big_legs(drawn):
    # each leg is expanded from its (p, q); the Fraction route -1/r agrees,
    # an expansion over MAX_EXPANSION entries included
    _, legs = drawn
    sd = normalize([Fraction(p, q) for p, q in legs], -2)
    try:
        want = [expand(-1 / r) for r in sd.r]
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _fiber_certificate(sd, "sum_lt_2")
        return
    data = _fiber_certificate(sd, "sum_lt_2")
    assert [row.entries for row in data["shortcut"]] == want
    assert list(data["t_values"]) == [shifted_product(e) for e in want]
