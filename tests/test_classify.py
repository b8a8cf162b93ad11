import random
from fractions import Fraction
from math import gcd

from tightsf.classify import ALL_STEIN, EXACT, INFINITE, MIXED, TORSION, UNKNOWN, classify
from tightsf.convex import max_twist_table
from tightsf.floer import index_set
from tightsf.seifert import normalize, parse_manifold


def test_sphere_family_example():
    res = classify(parse_manifold("-2;1/2,2/3,11/13"))
    assert res.status == EXACT and res.count == 3
    assert res.fillability.kind == MIXED
    assert res.fillability.stein_lower == 2
    assert res.fillability.non_stein_lower == 1
    assert res.fillability.all_strong
    assert res.certificate.case == "sphere_family"
    assert [row.count for row in res.certificate.data["per_k"]] == [2, 1]


def test_overlap_example():
    res = classify(parse_manifold("-2;1/2,2/3,6/7"))
    assert res.status == EXACT and res.count == 1
    assert res.fillability.kind == ALL_STEIN
    assert res.certificate.data["also_k_over_k_plus_1"] == 6


def test_product_count_examples():
    res = classify(parse_manifold("-2;1/2,2/3,9/11"))
    assert res.status == EXACT and res.count == 2
    assert res.fillability.kind == ALL_STEIN
    assert res.certificate.case == "sum_lt_2"
    res2 = classify(parse_manifold("-2;7/9,7/9,7/9"))
    assert res2.status == EXACT and res2.count == 8
    assert res2.certificate.case == "sum_ge_9_4"
    assert res2.certificate.data["limit"].threshold_ok


def test_torus_bundle_example():
    res = classify(parse_manifold("-2;1/2,2/3,5/6"))
    assert res.status == INFINITE and res.count is None
    assert res.fillability.kind == TORSION
    assert res.fillability.stein_lower == 1


def test_unknown_examples():
    res = classify(parse_manifold("-2;1/2,3/4,4/5"))
    assert res.status == UNKNOWN
    assert res.certificate.case == "gap_other"
    res2 = classify(parse_manifold("-2;2/5,4/5,4/5"))
    assert res2.status == UNKNOWN
    assert res2.certificate.case == "degenerate_sum_2"
    res3 = classify(parse_manifold("0;1/2,2/3,6/7"))
    assert res3.status == UNKNOWN
    assert res3.certificate.case == "wrong_e0"


def test_three_counts_agree():
    for n in range(1, 21):
        res = classify(parse_manifold(f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}"))
        assert res.count == max_twist_table(n).total == len(index_set(n))


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

