from fractions import Fraction
from math import gcd

import pytest

from tightsf.seifert import (
    DEGENERATE_SUM_2,
    GAP_OTHER,
    K_OVER_K1,
    SPHERE_FAMILY,
    SUM_GE_9_4,
    SUM_LT_2,
    TORUS_BUNDLE,
    WRONG_E0,
    SeifertData,
    detect_family,
    h1_order,
    linking_matrix,
    normalize,
    parse_manifold,
)


def fractions_upto(max_q):
    for q in range(2, max_q + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield Fraction(p, q)


def det_gauss(matrix):
    """Plain fraction Gaussian elimination, the determinant oracle."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def test_normalize_examples():
    sd = normalize([Fraction(1, 2), Fraction(-1, 3), Fraction(-1, 3)], 0)
    assert sd.e0 == -2
    assert sd.r == (Fraction(1, 2), Fraction(2, 3), Fraction(2, 3))
    sd2 = normalize([Fraction(1, 2), Fraction(2, 3), Fraction(6, 7)], -2)
    assert sd2.e0 == -2 and sd2.r == (Fraction(1, 2), Fraction(2, 3), Fraction(6, 7))
    for n in range(1, 8):
        sd3 = normalize([Fraction(1, 2), Fraction(-1, 3), Fraction(-n, 6 * n + 1)], 0)
        assert sd3.e0 == -2
        assert sd3.r == (Fraction(1, 2), Fraction(2, 3), Fraction(5 * n + 1, 6 * n + 1))


def test_normalize_rejects_integers():
    with pytest.raises(ValueError):
        normalize([Fraction(1), Fraction(1, 2), Fraction(1, 3)], 0)


def test_normalize_idempotent():
    sd = normalize([Fraction(9, 4), Fraction(-5, 7), Fraction(11, 13)], -3)
    again = normalize(sd.r, sd.e0)
    assert again == sd


def test_parse_manifold():
    sd = parse_manifold("-2;1/2,2/3,11/13")
    assert sd.e0 == -2 and sd.r[2] == Fraction(11, 13)
    sd2 = parse_manifold("1/2,-1/3,-1/3")
    assert sd2.e0 == -2
    with pytest.raises(ValueError):
        parse_manifold("1/2,2/3")


def test_attach_matrix_contract():
    sd = parse_manifold("-2;1/2,2/3,11/13")
    for i in (1, 2, 3):
        m = sd.attach_matrix(i)
        p, q, u, v = sd.conv[i - 1]
        assert (m.a, m.b, m.c, m.d) == (q, v, -p, -u)
        assert m.det == 1


def test_attach_determinant_exhaustive():
    for r in fractions_upto(100):
        sd = normalize([Fraction(1, 2), Fraction(1, 2), r], -2)
        assert all(sd.attach_matrix(i).det == 1 for i in (1, 2, 3))


def test_h1_examples():
    assert h1_order(parse_manifold("-2;1/2,2/3,5/6")) == 0
    for n in range(1, 6):
        sd = parse_manifold(f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}")
        assert h1_order(sd) == 1
    assert h1_order(parse_manifold("-2;1/2,1/2,1/2")) == 4


def test_linking_matrix_examples():
    sd = parse_manifold("-2;1/2,1/2,1/2")
    m = linking_matrix(sd)
    assert m == (
        (-2, 1, 1, 1),
        (1, -2, 0, 0),
        (1, 0, -2, 0),
        (1, 0, 0, -2),
    )
    assert abs(det_gauss(m)) == 4 == h1_order(sd)
    sd2 = parse_manifold("-2;1/2,2/3,6/7")
    assert abs(det_gauss(linking_matrix(sd2))) == 1 == h1_order(sd2)


def test_h1_matches_determinant_small():
    fracs = list(fractions_upto(8))
    for i, r1 in enumerate(fracs):
        for j in range(i, len(fracs)):
            for k in range(j, len(fracs)):
                sd = normalize([r1, fracs[j], fracs[k]], -2)
                assert h1_order(sd) == abs(det_gauss(linking_matrix(sd)))


def test_detect_family_examples():
    assert detect_family(parse_manifold("-2;1/2,3/4,3/4")).kind == TORUS_BUNDLE
    assert detect_family(parse_manifold("-2;1/2,2/3,5/6")).kind == TORUS_BUNDLE
    assert detect_family(parse_manifold("-2;2/3,2/3,2/3")).kind == TORUS_BUNDLE
    fam = detect_family(parse_manifold("-2;1/2,2/3,11/13"))
    assert fam.kind == SPHERE_FAMILY and fam.n == 2
    fam = detect_family(parse_manifold("-2;1/2,2/3,6/7"))
    assert fam.kind == SPHERE_FAMILY and fam.n == 1
    fam = detect_family(parse_manifold("-2;1/2,2/3,9/10"))
    assert fam.kind == K_OVER_K1 and fam.k == 9
    assert detect_family(parse_manifold("-2;1/2,3/4,4/5")).kind == GAP_OTHER
    assert detect_family(parse_manifold("-2;7/9,7/9,7/9")).kind == SUM_GE_9_4
    assert detect_family(parse_manifold("-2;1/2,2/3,9/11")).kind == SUM_LT_2
    assert detect_family(parse_manifold("-2;2/5,4/5,4/5")).kind == DEGENERATE_SUM_2
    assert detect_family(parse_manifold("0;1/2,2/3,6/7")).kind == WRONG_E0


def test_sphere_family_sits_in_gap():
    for n in range(1, 51):
        sd = parse_manifold(f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}")
        assert detect_family(sd).kind == SPHERE_FAMILY
        assert 2 < sd.invariant_sum < Fraction(9, 4)


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_manifold("-2;1/0,1/2,1/3")
