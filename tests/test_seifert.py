import random
import tracemalloc
from fractions import Fraction
from math import floor, gcd

import pytest
from hypothesis import given, settings

import tightsf.seifert as seifert

from tightsf.contfrac import Expansion, read_leg
from tightsf.seifert import (
    DEGENERATE_SUM_2,
    GAP_OTHER,
    K_OVER_K1,
    MAX_PLUMBING_VERTICES,
    SPHERE_FAMILY,
    SUM_GE_9_4,
    SUM_LT_2,
    TORUS_BUNDLE,
    WRONG_E0,
    Family,
    detect_family,
    h1_order,
    linking_matrix,
    parse_manifold,
)
from tightsf.selftest import normalize
from tightsf.slopes import Slope
from triples import big_invariants


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


def test_h1_examples():
    assert h1_order(parse_manifold("-2;1/2,2/3,5/6")) == 0
    for n in range(1, 6):
        sd = parse_manifold(f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}")
        assert h1_order(sd) == 1
    assert h1_order(parse_manifold("-2;1/2,1/2,1/2")) == 4


def test_h1_order_builds_no_fraction(monkeypatch):
    # |H_1| is read off _sum_ratio's integers: with Fraction made to raise
    # once every manifold is parsed, h1_order still gives each value, and on
    # three 4,000-digit legs the value of |q1 q2 q3 (e0 + r1 + r2 + r3)| in
    # Fractions
    zeros = [parse_manifold(f"-2;{triple}") for triple in ("1/2,3/4,3/4", "1/2,2/3,5/6", "2/3,2/3,2/3",
                                                           "2/5,4/5,4/5", "1/3,5/6,5/6")]
    spheres = [parse_manifold(f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}") for n in (1, 2, 7, 800, 10**5)]
    four = parse_manifold("-2;1/2,1/2,1/2")
    rng = random.Random(23)
    big = []
    for e0 in (-2, -1, -7):
        legs = []
        while len(legs) < 3:
            q = rng.randrange(10**3999, 10**4000)
            p = rng.randrange(1, q)
            if gcd(p, q) == 1:
                legs.append(f"{p}/{q}")
        big.append(parse_manifold(f"{e0};" + ",".join(legs)))
    want = [abs(sd.conv[0].q * sd.conv[1].q * sd.conv[2].q * (sd.e0 + sum(sd.r))) for sd in big]
    assert all(len(str(c.q)) == 4000 for sd in big for c in sd.conv) and 0 not in want

    def no_fraction(*args):
        raise AssertionError("h1_order built a Fraction")

    monkeypatch.setattr(seifert, "Fraction", no_fraction)
    assert [h1_order(sd) for sd in zeros] == [0] * 5
    assert [h1_order(sd) for sd in spheres] == [1] * 5
    assert h1_order(four) == 4
    assert [h1_order(sd) for sd in big] == want


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
    assert detect_family(parse_manifold("-2;3/4,3/4,3/4")).kind == SUM_GE_9_4  # sum exactly 9/4
    assert detect_family(parse_manifold("-2;1/2,2/3,9/11")).kind == SUM_LT_2
    assert detect_family(parse_manifold("-2;2/5,4/5,4/5")).kind == DEGENERATE_SUM_2
    assert detect_family(parse_manifold("0;1/2,2/3,6/7")).kind == WRONG_E0


def test_families_without_a_parameter_are_shared():
    # the six kinds that carry no n or k are one Family each, built at import
    for kind, texts in ((TORUS_BUNDLE, ("-2;1/2,3/4,3/4", "-2;2/3,2/3,2/3")),
                        (GAP_OTHER, ("-2;1/2,3/4,4/5", "-2;2/3,3/4,4/5")),
                        (SUM_GE_9_4, ("-2;7/9,7/9,7/9", "-2;3/4,3/4,3/4")),
                        (SUM_LT_2, ("-2;1/2,2/3,9/11", "-2;1/3,1/3,1/3")),
                        (DEGENERATE_SUM_2, ("-2;2/5,4/5,4/5", "-2;1/3,5/6,5/6")),
                        (WRONG_E0, ("0;1/2,2/3,6/7", "-1;1/3,1/3,1/3"))):
        first, second = (detect_family(parse_manifold(text)) for text in texts)
        assert first is second and first == Family(kind), kind


def test_family_str_names_kind_and_parameter():
    for text, want in (("-2;1/2,2/3,7/8", "k_over_k_plus_1(k=7)"),
                       ("-2;1/2,2/3,11/13", "sphere_family(n=2)"),
                       ("-2;1/2,3/4,3/4", "torus_bundle"),
                       ("-2;1/2,3/4,4/5", "gap_other"),
                       ("-2;7/9,7/9,7/9", "sum_ge_9_4"),
                       ("-2;1/2,2/3,9/11", "sum_lt_2"),
                       ("-2;2/5,4/5,4/5", "degenerate_sum_2"),
                       ("0;1/2,2/3,6/7", "wrong_e0")):
        assert str(detect_family(parse_manifold(text))) == want, text
    assert str(Family(K_OVER_K1, k=6)) == "k_over_k_plus_1(k=6)"
    assert str(Family(SPHERE_FAMILY, n=1)) == "sphere_family(n=1)"


def test_sphere_family_sits_in_gap():
    for n in range(1, 51):
        sd = parse_manifold(f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}")
        assert detect_family(sd).kind == SPHERE_FAMILY
        assert 2 < sd.invariant_sum.as_fraction() < Fraction(9, 4)


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_manifold("-2;1/0,1/2,1/3")


# The Fraction route normalize, detect_family and invariant_sum took before
# they ran on integer pairs, kept as their oracle.

TORUS_BUNDLE_TRIPLES = (
    (Fraction(1, 2), Fraction(3, 4), Fraction(3, 4)),
    (Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)),
    (Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)),
)


def normalize_fraction(raw, e0_raw):
    """(e0, r) with the integer parts moved into e0 and the parts sorted."""
    raw = [Fraction(x) for x in raw]
    return e0_raw + sum(floor(x) for x in raw), tuple(sorted(x - floor(x) for x in raw))


def detect_family_fraction(e0, r):
    if e0 != -2:
        return Family(WRONG_E0)
    if r in TORUS_BUNDLE_TRIPLES:
        return Family(TORUS_BUNDLE)
    if r[0] == Fraction(1, 2) and r[1] == Fraction(2, 3):
        p3, q3 = r[2].numerator, r[2].denominator
        if q3 % 6 == 1 and p3 == 5 * (q3 // 6) + 1 and q3 // 6 >= 1:
            return Family(SPHERE_FAMILY, n=q3 // 6)
        if q3 == p3 + 1 and p3 >= 6:
            return Family(K_OVER_K1, k=p3)
    total = sum(r, Fraction(0))
    if total >= Fraction(9, 4):
        return Family(SUM_GE_9_4)
    if total < 2:
        return Family(SUM_LT_2)
    if total == 2:
        return Family(DEGENERATE_SUM_2)
    return Family(GAP_OTHER)


@settings(max_examples=400, deadline=None)
@given(big_invariants())
def test_integer_route_matches_fraction_oracle_on_big_legs(drawn):
    # 64-512-bit legs, unreduced, with random signs and integer parts, read
    # both by normalize and by parse_manifold
    e0_raw, legs = drawn
    e0, r = normalize_fraction([Fraction(p, q) for p, q in legs], e0_raw)
    text = f"{e0_raw};" + ",".join(f"{p}/{q}" for p, q in legs)
    for sd in (normalize([Fraction(p, q) for p, q in legs], e0_raw), parse_manifold(text)):
        assert (sd.e0, sd.r) == (e0, r)
        assert all(type(x) is Fraction for x in sd.r)
        for x, (p, q, u, v) in zip(r, sd.conv):
            # v is the inverse of p modulo q in (0, q), which fixes u
            assert (p, q) == (x.numerator, x.denominator) and p * v - q * u == 1 and 0 < v < q
        total = sum(r, Fraction(0))
        assert (sd.invariant_sum.num, sd.invariant_sum.den) == total.as_integer_ratio()
        assert type(sd.invariant_sum) is Slope
        assert detect_family(sd) == detect_family_fraction(e0, r)


def test_h1_order_matches_sympy_determinant():
    # random legs, with e0 from -4 to 0 and some with e0 + r1 + r2 + r3 = 0, whose
    # plumbing fits MAX_PLUMBING_VERTICES; kept to at most 40 vertices so that
    # sympy's determinant stays fast
    sympy = pytest.importorskip("sympy")
    rng = random.Random(10)
    checked = zero = 0
    while checked < 60:
        legs = []
        for _ in range(3):
            q = rng.randint(2, 2 ** rng.randint(2, 14))
            legs.append(Fraction(rng.randint(1, q - 1), q))
        e0 = rng.randint(-4, 0)
        if rng.random() < 0.1:
            legs[2] = -e0 - legs[0] - legs[1]  # e0 + r1 + r2 + r3 = 0: a surface bundle
            if legs[2].denominator == 1:
                continue
        sd = normalize(legs, e0)
        vertices = 1 + sum(len(read_leg(c.p, c.q)[0].entries()) for c in sd.conv)
        if vertices > 40:
            continue
        assert vertices <= MAX_PLUMBING_VERTICES
        det = sympy.Matrix(linking_matrix(sd)).det(method="domain-ge")
        assert h1_order(sd) == abs(int(det))
        checked += 1
        zero += det == 0
    assert zero > 0


def test_plumbing_cap_is_read_off_the_runs(monkeypatch):
    # 1 + 1 + 1 + 99999 vertices: refused from the run lengths, before any
    # leg's entries are spelled out or any row is built
    sd = parse_manifold("-2;1/3,1/3,99999/100000")
    built = []
    monkeypatch.setattr(Expansion, "entries", lambda self: built.append(self))
    tracemalloc.start()
    with pytest.raises(ValueError, match=r"^plumbing has 100002 vertices, more than the limit 1000$"):
        linking_matrix(sd)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert built == []
    assert peak < 64 * 1024  # one row of 100002 zeros would take 800 KB
