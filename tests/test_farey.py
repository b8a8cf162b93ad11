import builtins
import random
from math import gcd
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from tightsf import farey
from tightsf.contfrac import expand
from tightsf.farey import BACK, FRONT, MAX_ORACLE_DEN, bypass_attach, bypass_oracle
from tightsf.selftest import fractions_upto
from tightsf.slopes import INF, Slope

slopes_st = st.one_of(
    st.just(INF),
    st.builds(Slope, st.integers(-40, 40), st.integers(1, 25)),
)


def _cross(p, q):
    return p[0] * q[1] - q[0] * p[1]


def _ccw(a, b, c):
    # Strictly counterclockwise triple: starting at a and moving in the
    # increasing direction we meet b before c.  Vectors are (den, num) with
    # den >= 0, so the sign test below realizes the stated cyclic order.
    return _cross(a, b) * _cross(b, c) * _cross(c, a) < 0


def _cross_abs(a, b):
    return abs(_cross(a.vec(), b.vec()))


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
        entries = expand(s).entries()
        if len(entries) == 1:
            continue
        out = bypass_attach(s, INF, FRONT)
        assert expand(out).entries() == entries[:-1]


def full_scan_oracle(dividing, ruling, side=FRONT):
    """The bypass oracle as a full scan: each doubling of the bound tests every
    denominator b = 1..bound for both signs, and ranks the in-arc neighbours by
    the counterclockwise triple.  Reference for farey.bypass_oracle, which steps
    through the two residue classes and scans only each doubling's new range."""
    xs, ys = dividing.vec()
    rvec = ruling.vec()
    dvec = (xs, ys)

    def in_arc(c):
        return c == rvec or (_ccw(rvec, c, dvec) if side == FRONT else _ccw(dvec, c, rvec))

    def better(c, best):
        return best is None or (_ccw(rvec, c, best) if side == FRONT else _ccw(best, c, rvec))

    def best_upto(bound):
        best = None
        if xs == 1:  # the infinite slope is a neighbour of any integer slope
            best = (0, 1) if in_arc((0, 1)) else None
        if xs == 0:  # neighbours of inf are the integers; scan those near the ruling
            center = rvec[1] // rvec[0] if rvec[0] else 0
            for a in range(center - bound, center + bound + 1):
                c = (1, a)
                if c == rvec:
                    return c
                if in_arc(c) and better(c, best):
                    best = c
            return best
        for b in range(1, bound + 1):
            for eps in (1, -1):
                t = b * ys - eps
                if t % xs == 0:
                    c = (b, t // xs)
                    if c == rvec:
                        return c
                    if in_arc(c) and better(c, best):
                        best = c
        return best

    bound = max(1, dividing.den + ruling.den)
    prev = best_upto(bound)
    for _ in range(40):
        bound *= 2
        cur = best_upto(bound)
        if cur is not None and cur == prev:
            return Slope(cur[1], cur[0])
        prev = cur
    raise ArithmeticError("full scan failed to stabilize")


def small_slopes(max_den):
    """INF and every p/q with 1 <= q <= max_den, |p| <= 3q, gcd(|p|, q) = 1."""
    return [INF] + [Slope(p, q) for q in range(1, max_den + 1) for p in range(-3 * q, 3 * q + 1)
                    if gcd(abs(p), q) == 1]


def candidates_examined(monkeypatch, oracle, *args):
    """The oracle's result and the number of values its `range` loops yield:
    the denominators (or, for inf, the integers) it examines."""
    count = 0

    def counted(*bounds):
        nonlocal count
        for value in builtins.range(*bounds):
            count += 1
            yield value

    with monkeypatch.context() as m:
        m.setattr(farey, "range", counted, raising=False)
        m.setitem(globals(), "range", counted)
        result = oracle(*args)
    return result, count


def test_oracle_matches_the_full_scan_on_every_pair(monkeypatch):
    # every ordered pair of small slopes, both sides; and the stepped oracle
    # never examines more candidates than the full scan
    slopes = small_slopes(7)
    for s in slopes:
        for r in slopes:
            if s == r:
                continue
            for side in (FRONT, BACK):
                fast, examined = candidates_examined(monkeypatch, bypass_oracle, s, r, side)
                slow, scanned = candidates_examined(monkeypatch, full_scan_oracle, s, r, side)
                assert fast == slow, (s, r, side)
                assert examined <= scanned, (s, r, side)


def test_oracle_matches_the_full_scan_up_to_den_30():
    # each slope of den <= 30 meets inf, 0, 1/2 and one seeded slope of
    # den <= 30, in both roles and on both sides
    slopes = small_slopes(30)
    rng = random.Random(30)
    for s in slopes:
        for r in (INF, Slope(0), Slope(1, 2), rng.choice(slopes)):
            if s == r:
                continue
            for side in (FRONT, BACK):
                assert bypass_oracle(s, r, side) == full_scan_oracle(s, r, side), (s, r, side)
                assert bypass_oracle(r, s, side) == full_scan_oracle(r, s, side), (r, s, side)


def test_oracle_matches_the_full_scan_on_the_sphere_family_shapes():
    # the dividing slopes that the sphere family's bypasses start from,
    # -k/(6k+1) and -n+k for k < 30 and n <= 800, against seeded rulings
    rng = random.Random(800)
    rulings = small_slopes(30)[1:]
    dividing = {Slope(-k, 6 * k + 1) for k in range(30)} | {Slope(-n + k) for n in range(1, 801) for k in range(30)}
    for s in sorted(dividing, key=lambda x: (x.den, x.num)):
        for r in rng.sample(rulings, 3):
            if s == r:
                continue
            side = rng.choice((FRONT, BACK))
            assert bypass_oracle(s, r, side) == full_scan_oracle(s, r, side), (s, r, side)


def test_oracle_steps_through_the_residue_classes(monkeypatch):
    # a den-175 dividing slope has 2 neighbours in every 175 denominators, so
    # stepping through them examines at least 10x fewer than the full scan
    for ruling in (Slope(7, 30), Slope(-89, 30), Slope(-1, 30)):
        for side in (FRONT, BACK):
            fast, examined = candidates_examined(monkeypatch, bypass_oracle, Slope(-29, 175), ruling, side)
            slow, scanned = candidates_examined(monkeypatch, full_scan_oracle, Slope(-29, 175), ruling, side)
            assert fast == slow
            assert 10 * examined <= scanned, (ruling, side, examined, scanned)
    # the full scan meets the ruling 0 at b = 1; the oracle must not do more
    for side in (FRONT, BACK):
        fast, examined = candidates_examined(monkeypatch, bypass_oracle, Slope(-1, 99991), Slope(0), side)
        slow, scanned = candidates_examined(monkeypatch, full_scan_oracle, Slope(-1, 99991), Slope(0), side)
        assert fast == slow == Slope(0)
        assert examined <= scanned
