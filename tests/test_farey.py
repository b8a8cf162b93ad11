import random
from math import gcd
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from tightsf.contfrac import expand
from tightsf.farey import BACK, FRONT, MAX_ORACLE_DEN, _ccw, bypass_attach, bypass_oracle
from tightsf.selftest import fractions_upto
from tightsf.slopes import INF, Slope

slopes_st = st.one_of(
    st.just(INF),
    st.builds(Slope, st.integers(-40, 40), st.integers(1, 25)),
)


def _cross_abs(a, b):
    (da, na), (db, nb) = a.vec(), b.vec()
    return abs(da * nb - db * na)


def farey_edge(a, b):
    """True when the line vectors of a and b span Z^2."""
    return _cross_abs(a, b) == 1


def arc_contains(start, end, x):
    """Whether x lies on the closed arc from start counterclockwise to end."""
    return x == start or x == end or _ccw(start.vec(), x.vec(), end.vec())


def test_farey_edge_examples():
    assert farey_edge(INF, Slope(0))
    assert farey_edge(Slope(-5, 2), Slope(-3))
    assert not farey_edge(Slope(-5, 2), INF)


@given(slopes_st, slopes_st)
def test_edge_symmetry(a, b):
    assert farey_edge(a, b) == farey_edge(b, a)


def test_arc_membership():
    assert arc_contains(INF, Slope(-5, 2), Slope(-3))
    assert not arc_contains(INF, Slope(-5, 2), Slope(0))
    assert arc_contains(INF, Slope(-5, 2), INF)
    assert arc_contains(INF, Slope(-5, 2), Slope(-5, 2))
    assert not arc_contains(Slope(-5, 2), INF, Slope(-3))
    assert arc_contains(Slope(-5, 2), INF, Slope(0))


def test_bypass_examples():
    # ruling already adjacent to the dividing slope: nothing moves past it
    assert bypass_attach(Slope(0), INF, FRONT) == INF
    assert bypass_attach(Slope(-5, 2), INF, FRONT) == Slope(-3)
    assert bypass_attach(Slope(-5, 2), INF, BACK) == Slope(-2)
    assert bypass_oracle(Slope(-5, 2), INF, FRONT) == Slope(-3)
    assert bypass_oracle(Slope(-5, 2), INF, BACK) == Slope(-2)


def test_bypass_result_is_neighbor_in_arc():
    rng = random.Random(3)
    for _ in range(400):
        s = Slope(rng.randint(-40, 40), rng.randint(1, 25))
        r = INF if rng.random() < 0.1 else Slope(rng.randint(-40, 40), rng.randint(1, 25))
        if s == r:
            continue
        for side in (FRONT, BACK):
            out = bypass_attach(s, r, side)
            assert farey_edge(out, s) or out == r
            assert arc_contains(r, s, out) if side == FRONT else arc_contains(s, r, out)


@settings(max_examples=150, deadline=None)
@given(slopes_st, slopes_st, st.sampled_from((FRONT, BACK)))
def test_oracle_equivalence_random(s, r, side):
    if s == r:
        return
    assert bypass_attach(s, r, side) == bypass_oracle(s, r, side)


def test_oracle_bound_cap():
    # a starting bound of MAX_ORACLE_DEN + 1 is refused before any neighbour is scanned
    d = MAX_ORACLE_DEN - 2
    for dividing, ruling in ((Slope(-d - 1, d), Slope(7, 3)), (INF, Slope(1, MAX_ORACLE_DEN + 1))):
        start = perf_counter()
        with pytest.raises(ValueError, match="limit"):
            bypass_oracle(dividing, ruling, BACK)
        assert perf_counter() - start < 0.1


def test_monotone_progress():
    # repeated front bypasses with a fixed ruling reach a neighbor of the
    # ruling; the pairing |cross(s, r)| strictly drops at every step
    for ruling in (INF, Slope(0), Slope(1, 2)):
        for q in range(1, 31):
            for p in range(-q, 1):
                if gcd(abs(p), q) != 1:
                    continue
                s = Slope(p, q)
                if s == ruling:
                    continue
                steps = 0
                d = _cross_abs(s, ruling)
                start_d = d
                while not (s == ruling or farey_edge(s, ruling)):
                    s = bypass_attach(s, ruling, FRONT)
                    nd = _cross_abs(s, ruling)
                    assert nd < d
                    d = nd
                    steps += 1
                assert steps <= max(1, start_d)


def test_front_bypass_truncates_expansions():
    # with vertical ruling, one front bypass drops the last expansion entry
    for p, q in fractions_upto(30):
        s = Slope(-q, p)
        entries = expand(s)
        if len(entries) == 1:
            continue
        out = bypass_attach(s, INF, FRONT)
        assert expand(out) == entries[:-1]
