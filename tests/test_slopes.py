import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tightsf.selftest import apply
from tightsf.slopes import INF, Slope


def test_reduction_and_normal_form():
    assert Slope(2, 4) == Slope(1, 2)
    assert Slope(-1, -2) == Slope(1, 2)
    assert Slope(7, -5) == Slope(-7, 5)
    assert Slope(-3, 0) == INF
    assert Slope(0, 5) == Slope(0, 1)
    with pytest.raises(ValueError):
        Slope(0, 0)


@given(st.integers(-200, 200), st.integers(1, 200), st.integers(1, 30))
def test_reduction_idempotent(p, q, k):
    assert Slope(k * p, k * q) == Slope(p, q)


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
def test_finite_slope_hashes_as_the_number_it_equals(p, q):
    # a slope equal to an int or a Fraction is found by it in a set, and finds it
    s, f = Slope(p, q), Fraction(p, q)
    assert s == f and hash(s) == hash(f)
    assert f in {s} and s in {f}
    assert Slope(p) == p and hash(Slope(p)) == hash(p) and p in {Slope(p)} and Slope(p) in {p}


def test_slope_set_membership():
    assert 1 in {Slope(1)} and Fraction(1, 2) in {Slope(1, 2)} and Slope(-3, 6) in {Fraction(-1, 2)}
    assert INF in {Slope(5, 0)} and INF not in {1, Fraction(1, 2), Slope(1), Slope(0)}


def test_slope_vec():
    assert Slope(1, 2).vec() == (2, 1)
    assert INF.vec() == (0, 1)
    assert Slope(-7, 5).vec() == (5, -7)


def test_parse_and_str():
    for text in ("inf", "-7/5", "3", "0", "-1"):
        assert str(Slope.parse(text)) == text
    assert Slope.parse("6/-4") == Slope(-3, 2)


def test_apply_mat_examples():
    a1 = (2, 1, -1, 0)
    assert apply(a1, Slope(-1)) == Slope(-1)
    assert apply((1, 0, 0, 1), Slope(-7, 5)) == Slope(-7, 5)
    # inverse attaching matrix of the n = 3 sphere family member applied to
    # the vector (6k+1, k) at k = 1 gives -n+k
    n, k = 3, 1
    a3inv = (1, -6, -n, 6 * n + 1)
    assert apply(a3inv, Slope(k, 6 * k + 1)) == Slope(-n + k)


def test_projective_sign_insensitivity():
    # negating the line vector yields the same slope
    assert Slope(-1, 0) == INF
    m = (3, 2, 1, 1)
    s = Slope(5, 7)
    assert apply(m, s) == apply(m, Slope(-5, -7))


def _random_unimodular(rng, bound=50):
    while True:
        a = rng.randint(-bound, bound)
        b = rng.randint(-bound, bound)
        c = rng.randint(-bound, bound)
        d = rng.randint(-bound, bound)
        if a * d - b * c in (1, -1):
            return a, b, c, d


def test_inverse_round_trip():
    # the adjugate scaled by the determinant +-1 is the inverse, and apply
    # carries every slope back through it
    rng = random.Random(5)
    for _ in range(300):
        m = a, b, c, d = _random_unimodular(rng)
        det = a * d - b * c
        inverse = (det * d, -det * b, -det * c, det * a)
        s = Slope(rng.randint(-50, 50), rng.randint(1, 50)) if rng.random() > 0.02 else INF
        assert apply(inverse, apply(m, s)) == s
