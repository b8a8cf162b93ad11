import random
import re

import pytest
from hypothesis import given, strategies as st

from tightsf.slopes import INF, Slope, UniMat


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


def test_slope_vec():
    assert Slope(1, 2).vec() == (2, 1)
    assert INF.vec() == (0, 1)
    assert Slope(-7, 5).vec() == (5, -7)


def test_parse_and_str():
    for text in ("inf", "-7/5", "3", "0", "-1"):
        assert str(Slope.parse(text)) == text
    assert Slope.parse("6/-4") == Slope(-3, 2)


def test_apply_mat_examples():
    a1 = UniMat(2, 1, -1, 0)
    assert a1.apply(Slope(-1)) == Slope(-1)
    assert UniMat(1, 0, 0, 1).apply(Slope(-7, 5)) == Slope(-7, 5)
    # inverse attaching matrix of the n = 3 sphere family member applied to
    # the vector (6k+1, k) at k = 1 gives -n+k
    n, k = 3, 1
    a3inv = UniMat(1, -6, -n, 6 * n + 1)
    assert a3inv.apply(Slope(k, 6 * k + 1)) == Slope(-n + k)


def test_projective_sign_insensitivity():
    # negating the line vector yields the same slope
    assert Slope(-1, 0) == INF
    m = UniMat(3, 2, 1, 1)
    s = Slope(5, 7)
    assert m.apply(s) == m.apply(Slope(-5, -7))


def _random_unimodular(rng, bound=50):
    while True:
        a = rng.randint(-bound, bound)
        b = rng.randint(-bound, bound)
        c = rng.randint(-bound, bound)
        d = rng.randint(-bound, bound)
        if a * d - b * c in (1, -1):
            return UniMat(a, b, c, d)


def test_inverse_round_trip():
    rng = random.Random(5)
    for _ in range(300):
        m = _random_unimodular(rng)
        s = Slope(rng.randint(-50, 50), rng.randint(1, 50)) if rng.random() > 0.02 else INF
        assert m.inverse().apply(m.apply(s)) == s


def test_unimodular_validation():
    with pytest.raises(ValueError):
        UniMat(2, 0, 0, 2)
    assert UniMat(0, 1, 1, 0).det == -1


def test_unimat_is_a_value():
    # equal matrices compare and hash equal, a matrix cannot be changed in
    # place, and the constructor keeps its unimodularity check
    m = UniMat(3, 2, 1, 1)
    assert m == UniMat(3, 2, 1, 1) and hash(m) == hash(UniMat(3, 2, 1, 1))
    assert m != UniMat(1, 0, 0, 1) and m.inverse() != m
    assert m.inverse().inverse() == m
    for field in ("a", "b", "c", "d"):
        with pytest.raises(AttributeError):
            setattr(m, field, 0)
    assert m == UniMat(3, 2, 1, 1)
    with pytest.raises(ValueError, match=re.escape("matrix [[2,0],[0,2]] is not unimodular")):
        UniMat(2, 0, 0, 2)
