import random
import tracemalloc
from fractions import Fraction
from math import floor, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightsf import report
import tightsf.contfrac as contfrac
from tightsf.classify import classify
from tightsf.contfrac import convergents
import tightsf.convex as convex
from tightsf.convex import (
    MAX_TWIST_ROWS,
    RISING_DEPTH,
    LimitInfo,
    MaxTwistTable,
    SlopeCoeffs,
    limit_regime,
    max_twist_table,
    measured_slope,
    rounded_slope,
    slope_coeffs,
    v3_slope,
    v3_slope_limit,
    v3_slope_stepwise,
)
from tightsf.seifert import normalize, parse_manifold
from tightsf.selftest import random_invariant, rounded_slope_fraction
from tightsf.slopes import INF, Slope, UniMat
from triples import big_invariants, sorted_triples


def sphere_family(n):
    return parse_manifold(f"-2;1/2,2/3,{5 * n + 1}/{6 * n + 1}")


def test_measured_slope_formulas():
    sd = sphere_family(2)
    for n in range(-8, 0):
        assert measured_slope(1, sd, n) == Slope(-n, 2 * n + 1)
        assert measured_slope(2, sd, n) == Slope(n + 1, 3 * n + 2)
        assert measured_slope(3, sd, n) == Slope(2 * n + 1, 13 * n + 6)
    with pytest.raises(ValueError):
        measured_slope(1, sd, 0)


def test_rounded_slope_theorem_instance():
    for k in range(0, 21):
        sd = sphere_family(max(k, 1))
        s1 = measured_slope(1, sd, -3 * k - 1)
        s2 = measured_slope(2, sd, -2 * k - 1)
        assert s1 == Slope(-(3 * k + 1), 6 * k + 1)
        assert s2 == Slope(2 * k, 6 * k + 1)
        assert rounded_slope(s1, s2, -(6 * k + 1)) == Slope(-k, 6 * k + 1)


def test_rounded_slope_arithmetic():
    assert rounded_slope(Slope(0), Slope(0), -1) == Slope(1)
    with pytest.raises(ValueError):
        rounded_slope(Slope(1, 3), Slope(1, 2), 4)  # 3 does not divide 4


def test_rounded_slope_matches_fraction_sum():
    rng = random.Random(23)
    for _ in range(2000):
        delta = rng.choice((-1, 1)) * rng.randint(1, 10**rng.randint(1, 30))
        divisors = [d for d in (1, 2, 3, 5, 6, 7, abs(delta)) if delta % d == 0]
        da, db = rng.choice(divisors), rng.choice(divisors)
        bound = 10**rng.randint(1, 30)
        s_a = Slope(rng.randint(-bound, bound), da)
        s_b = Slope(rng.randint(-bound, bound), db)
        assert rounded_slope(s_a, s_b, delta) == rounded_slope_fraction(s_a, s_b, delta)


def slope_coeffs_fraction_sum(sd):
    # oracle: the coefficients as sums of Fractions, term by term, each
    # written as its (numerator, denominator) pair
    r1, r2, r3 = sd.r
    (p1, q1, u1, v1), (p2, q2, u2, v2), (p3, q3, u3, v3) = sd.conv
    a = r1 + r2 + r3 - 2
    c = 2 - r1 - r2 - Fraction(u3, v3)
    edge_term = Fraction(u1 * q2 + q2 - 1, q1 * q2)
    f = (r3 + r2 - 2) * Fraction(v1, q1) + edge_term
    d = (2 - r2 - Fraction(u3, v3)) * Fraction(v1, q1) - edge_term
    return SlopeCoeffs(*(x.as_integer_ratio() for x in (a, c, f, d)))


def fractions_of(coeffs):
    # A, C, F and D as Fractions, from their integer pairs
    return tuple(Fraction(*pair) for pair in coeffs)


def integer_form(sd, coeffs):
    # integers (a, f, c, d) with the closed form equal to (a n + f)/(c n + d),
    # over the lcm of the denominators of A q3, F q3, C v3 and D v3
    q3, v3 = sd.conv[2].q, sd.conv[2].v
    A, C, F, D = fractions_of(coeffs)
    parts = (A * q3, F * q3, C * v3, D * v3)
    scale = lcm(*(x.denominator for x in parts))
    return tuple(x.numerator * (scale // x.denominator) for x in parts)


def test_slope_coeffs_matches_fraction_sum_sweep():
    # every sorted triple with q_i <= 12; the random big legs are in
    # test_increasing_matches_stepwise_windows_and_big_legs
    checked = 0
    for triple in sorted_triples(12):
        sd = normalize(triple, -2)
        c = slope_coeffs(sd)
        assert c == slope_coeffs_fraction_sum(sd)
        assert type(c) is SlopeCoeffs
        assert all(type(pair) is tuple and set(map(type, pair)) == {int} for pair in c)
        checked += 1
    assert checked == 16215


def test_slope_coeffs_example():
    sd = parse_manifold("-2;1/2,2/3,7/8")
    c = slope_coeffs(sd)
    assert (c.A, c.C, c.F, c.D) == ((1, 24), (-1, 42), (5, 48), (-2, 21))


def test_coeff_sum_identity():
    # A + C collapses to 1/(q3 v3) via the convergent determinant
    rng = random.Random(1)
    for _ in range(200):
        rs = sorted(random_invariant(rng) for _ in range(3))
        sd = normalize(rs, -2)
        A, C, _, _ = fractions_of(slope_coeffs(sd))
        q3, v3 = sd.conv[2].q, sd.conv[2].v
        assert A + C == Fraction(1, q3 * v3)
        assert A == sd.invariant_sum.as_fraction() - 2


def test_v3_slope_k_family():
    # (1/2, 2/3, k/(k+1)): closed form matches the displayed specialization;
    # where the specialization's denominator vanishes (k=7, n1=-4) the closed
    # form has a pole and the slope is infinite
    for k in range(6, 13):
        sd = parse_manifold(f"-2;1/2,2/3,{k}/{k + 1}")
        coeffs = slope_coeffs(sd)
        for n1 in range(-50, 0):
            den = (k - 6) * n1 + k - 3
            if den == 0:
                assert v3_slope(sd, n1, coeffs).is_inf
                if (2 * n1 - 1) % 3 == 0:  # a balanced annulus exists here
                    assert v3_slope(sd, n1, coeffs) == v3_slope_stepwise(sd, n1, (2 * n1 - 1) // 3)
                continue
            expected = Slope(-((k - 5) * n1 + k - 2), den)
            assert v3_slope(sd, n1, coeffs) == expected
    sd = parse_manifold("-2;1/2,2/3,7/8")
    assert v3_slope(sd, -1, slope_coeffs(sd)) == Slope(-1)


def test_v3_slope_guide_formula():
    # (1/2, 2/3, p/q): ((6p-5q)n + 3p-2q) / ((5v-6u)n + 2v-3u)
    rng = random.Random(9)
    seen = 0
    while seen < 20:
        q = rng.randint(6, 80)
        p_lo, p_hi = -(-4 * q // 5), (5 * q - 1) // 6  # ceil(4q/5), floor((5q-1)/6)
        if p_lo > p_hi:
            continue
        p = rng.randint(p_lo, p_hi)
        if gcd(p, q) != 1 or not Fraction(4, 5) <= Fraction(p, q) < Fraction(5, 6):
            continue
        sd = parse_manifold(f"-2;1/2,2/3,{p}/{q}")
        _, _, u, v = convergents(Fraction(-q, p))
        coeffs = slope_coeffs(sd)
        for n1 in range(-50, 0):
            expected = Slope((6 * p - 5 * q) * n1 + 3 * p - 2 * q,
                             (5 * v - 6 * u) * n1 + 2 * v - 3 * u)
            assert v3_slope(sd, n1, coeffs) == expected
        seen += 1


def test_stepwise_balance_precondition():
    sd = sphere_family(1)
    with pytest.raises(ValueError):
        v3_slope_stepwise(sd, -1, -2)


def limit_of(text):
    sd = parse_manifold(text)
    return v3_slope_limit(sd, slope_coeffs(sd))


def test_limit_examples():
    info = limit_of("-2;7/9,7/9,7/9")
    assert info.limit == Slope(-27, 11)
    assert info.increasing and info.threshold_ok
    info2 = limit_of("-2;1/3,1/3,1/2")
    assert info2.threshold_ok and info2.increasing
    with pytest.raises(ValueError):
        limit_of("-2;1/2,2/3,7/8")  # A = 1/24, gap region


def test_threshold_equivalence_exhaustive():
    # limit <= (p3-q3)/(v3-u3)  iff  r1+r2 <= 1 or (A > 0 and C < 0),
    # over all sorted triples with denominators <= 10 in the two regimes;
    # alongside it, the tail of the closed form is monotone toward the limit
    for triple in sorted_triples(10):
        sd = normalize(triple, -2)
        c = slope_coeffs(sd)
        if not limit_regime(c):
            continue
        info = v3_slope_limit(sd, c)
        rhs = sd.r[0] + sd.r[1] <= 1 or (c.A[0] > 0 and c.C[0] < 0)
        assert info.threshold_ok == rhs
        _check_tail_monotone(sd, c, info)


def _check_tail_monotone(sd, coeffs, info):
    # on the Moebius branch reaching -infinity, values strictly increase
    # toward the limit from below (constant branch when the map degenerates)
    a, f, c, d = integer_form(sd, coeffs)
    limit = Fraction(a, c)
    if a * d - f * c == 0:
        assert v3_slope(sd, -1, coeffs).as_fraction() == limit
        assert v3_slope(sd, -17, coeffs).as_fraction() == limit
        return
    start = -1
    pole = Fraction(-d, c)
    if pole < 0:
        start = min(-1, floor(pole) - (1 if pole == floor(pole) else 0))
    values = [v3_slope(sd, n, coeffs).as_fraction() for n in range(start, start - 30, -1)]
    assert all(x < y for x, y in zip(values, values[1:]))
    assert all(v < limit for v in values)


def increasing_stepwise(sd, coeffs):
    # the step-by-step check that the closed form in v3_slope_limit replaced:
    # the value strictly rises at each step n + 1 -> n down to -RISING_DEPTH
    a, f, c, d = integer_form(sd, coeffs)
    prev_num, prev_den = -a + f, -c + d
    if prev_den == 0:
        return False
    for n in range(-2, -RISING_DEPTH - 1, -1):
        num, den = a * n + f, c * n + d
        if den == 0 or (num * prev_den - prev_num * den) * (prev_den * den) <= 0:
            return False
        prev_num, prev_den = num, den
    return True


def test_increasing_matches_stepwise_sweep():
    # every sorted triple with q_i <= 12 in the two limit regimes, each field
    # also against the Fraction formulas
    checked = rising = 0
    for triple in sorted_triples(12):
        sd = normalize(triple, -2)
        c = slope_coeffs(sd)
        assert limit_regime(c) == limit_regime_fraction(c)
        if not limit_regime(c):
            continue
        info = v3_slope_limit(sd, c)
        assert info.increasing == increasing_stepwise(sd, c)
        assert info == v3_slope_limit_fraction(sd, c)
        checked += 1
        rising += info.increasing
    assert checked == 14686 and 0 < rising < checked


def test_increasing_matches_stepwise_windows_and_big_legs():
    rng = random.Random(256)
    cases = []
    for bits in (256, 512, 1024):
        while len(cases) < 8 * bits // 256:
            legs = []
            for _ in range(3):
                q = rng.getrandbits(bits) | (1 << (bits - 1))
                legs.append(Fraction(rng.randrange(1, q), q))
            sd = normalize(legs, -2)
            if limit_regime(slope_coeffs(sd)):
                cases.append(sd)
    # a constant form, poles at -22/19 and at -1, and two rising forms
    for text in ("-2;1/2,1/2,1/2", "-2;3/7,10/11,11/12", "-2;5/8,8/11,11/12",
                 "-2;1/12,1/12,1/12", "-2;7/9,7/9,7/9"):
        cases.append(parse_manifold(text))
    for sd in cases:
        c = slope_coeffs(sd)
        assert c == slope_coeffs_fraction_sum(sd)
        assert limit_regime(c)
        assert v3_slope_limit(sd, c).increasing == increasing_stepwise(sd, c)


# The Fraction formulas limit_regime and v3_slope_limit used before they
# cross-multiplied numerators and denominators, kept as their oracle.

def limit_regime_fraction(coeffs):
    A = Fraction(*coeffs.A)
    return A >= Fraction(1, 4) or A < 0


def v3_slope_limit_fraction(sd, coeffs):
    A, C, F, D = fractions_of(coeffs)
    p3, q3, u3, v3 = sd.conv[2]
    limit = A * q3 / (C * v3)
    increasing = A * D < F * C and not -RISING_DEPTH <= -D / C <= -1
    threshold_ok = limit <= Fraction(p3 - q3, v3 - u3)
    return LimitInfo(Slope.from_fraction(limit), increasing, threshold_ok)


def v3_slope_fraction(sd, n1, coeffs):
    # the closed form ((A n1 + F) q3)/((C n1 + D) v3) in Fractions, inf at a pole
    A, C, F, D = fractions_of(coeffs)
    _, q3, _, v3 = sd.conv[2]
    den = (C * n1 + D) * v3
    return INF if den == 0 else Slope.from_fraction((A * n1 + F) * q3 / den)


@settings(max_examples=300, deadline=None)
@given(big_invariants(), st.integers(-(2**80), -3))
def test_limit_matches_fraction_oracle_on_big_legs(drawn, n1):
    # 64-512-bit legs, random legs and scaled family triples alike; the
    # coefficients, the regime, the limit and the closed form at n1 = -1, -2,
    # a drawn n1 and the pole -D/C where that is a negative integer
    _, legs = drawn
    sd = normalize([Fraction(p, q) for p, q in legs], -2)
    c = slope_coeffs(sd)
    assert c == slope_coeffs_fraction_sum(sd)
    assert limit_regime(c) == limit_regime_fraction(c)
    _, C, _, D = fractions_of(c)
    twists = [-1, -2, n1]
    if C and (-D / C).denominator == 1 and -D / C < 0:
        twists.append(int(-D / C))
        assert v3_slope(sd, twists[-1], c) == INF
    for n in twists:
        assert v3_slope(sd, n, c) == v3_slope_fraction(sd, n, c), n
    if limit_regime(c):
        info = v3_slope_limit(sd, c)
        assert info == v3_slope_limit_fraction(sd, c) and type(info.limit) is Slope
    else:
        with pytest.raises(ValueError, match="gap region"):
            v3_slope_limit(sd, c)


def family_table(n):
    return max_twist_table(sphere_family(n), n)


def test_max_twist_table():
    t1 = family_table(1)
    assert [(k, Slope(b), count) for k, _, _, b, count in t1.tuples()] == [(0, Slope(-1), 1)]
    assert t1.total == 1
    t2 = family_table(2)
    assert [(k, Slope(b), count) for k, _, _, b, count in t2.tuples()] == [
        (0, Slope(-2), 2),
        (1, Slope(-1), 1),
    ]
    assert t2.total == 3
    assert family_table(5).total == 15
    # the table is its parameter: every column is read off n
    assert MaxTwistTable._fields == ("n",) and t2 == MaxTwistTable(2)


def test_max_twist_table_checks_each_boundary(monkeypatch):
    # a wrong V_3 transfer is caught by the row check, which -O keeps
    monkeypatch.setattr(convex, "fiber3_matrix", lambda sd: UniMat(1, 0, 0, 1))
    with pytest.raises(ArithmeticError, match="-n\\+k"):
        family_table(3)


def family_convergents(n):
    return tuple(convergents(Fraction(-q, p)) for p, q in ((1, 2), (2, 3), (5 * n + 1, 6 * n + 1)))


def test_family_convergents_closed_form():
    # p v - q u = 1 with 0 < v < q makes v the inverse of p modulo q, and
    # (5n+1) 6 - (6n+1) 5 = 1 with 6 < 6n+1 for n >= 1: parse reads these
    # convergents off the family's legs, which max_twist_table checks
    for n in [*range(1, 200), 10**5, 10**40]:
        closed = ((1, 2, 0, 1), (2, 3, 1, 2), (5 * n + 1, 6 * n + 1, 5, 6))
        assert sphere_family(n).conv == family_convergents(n) == closed


def doctored(n, leg, **shift):
    """The n-th family member with one leg's convergents shifted, e.g. v=1."""
    sd = sphere_family(n)
    conv = list(sd.conv)
    conv[leg] = conv[leg]._replace(**{name: getattr(conv[leg], name) + d for name, d in shift.items()})
    return sd._replace(conv=tuple(conv))


def test_max_twist_table_checks_the_balance():
    # dividing counts that fail to balance are caught by the row check, which -O keeps
    with pytest.raises(ArithmeticError, match="balance"):
        max_twist_table(doctored(3, 1, v=1), 3)


def test_max_twist_table_refuses_other_manifolds():
    # the checks read the convergents of the manifold they are given, so a
    # wrong n, a manifold outside the family or a doctored leg is refused
    for n in (1, 2, 3, 7, 800):
        sd = sphere_family(n)
        assert max_twist_table(sd, n) == MaxTwistTable(n)
        for wrong in {n - 1, n + 1, 2 * n} - {0}:
            with pytest.raises(ArithmeticError, match="-n\\+k"):
                max_twist_table(sd, wrong)
    for text, n in (("-2;1/2,2/3,7/8", 1), ("-2;1/2,2/3,12/13", 2), ("-2;1/2,2/3,10/13", 2),
                    ("-2;1/3,2/3,11/13", 2), ("-2;1/2,3/4,11/13", 2), ("-2;1/2,3/4,3/4", 1)):
        with pytest.raises(ArithmeticError):
            max_twist_table(parse_manifold(text), n)
    with pytest.raises(ValueError, match="e0"):
        max_twist_table(parse_manifold("-1;1/2,2/3,11/13"), 2)
    for leg, shift in ((0, {"u": 1, "p": 2}), (1, {"p": 2, "u": 1}), (2, {"p": 5, "q": 6})):
        with pytest.raises(ArithmeticError):
            max_twist_table(doctored(3, leg, **shift), 3)


def test_max_twist_table_builds_only_the_stored_slopes(monkeypatch):
    # the table derives its slopes in plain integers and stores them as
    # integer columns: it builds no Slope object, and the stepwise helpers
    # stay off its path
    calls = dict.fromkeys(("Slope", "apply", "measured_slope", "rounded_slope"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Slope, "__init__", counted("Slope", Slope.__init__))
    monkeypatch.setattr(UniMat, "apply", counted("apply", UniMat.apply))
    for name in ("measured_slope", "rounded_slope"):
        monkeypatch.setattr(convex, name, counted(name, getattr(convex, name)))
    for n in (1, 7, 300):
        sd = sphere_family(n)
        calls.update(dict.fromkeys(calls, 0))
        assert max_twist_table(sd, n).total == n * (n + 1) // 2
        assert calls["Slope"] == 0
        assert calls["apply"] == calls["measured_slope"] == calls["rounded_slope"] == 0


def test_sphere_family_work_per_table_is_constant(monkeypatch):
    # counted work, not timing: the table is its n, checked at three values
    # of k, so building it makes as many Slope constructions at
    # n = MAX_TWIST_ROWS as at n = 1 and no solid_torus_count call, and holds
    # no table-sized memory; writing its report builds as many templates at
    # n = 1000 as at n = 10
    calls = dict.fromkeys(("Slope", "solid_torus_count", "_template"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Slope, "__init__", counted("Slope", Slope.__init__))
    stc = counted("solid_torus_count", contfrac.solid_torus_count)
    monkeypatch.setattr(contfrac, "solid_torus_count", stc)
    monkeypatch.setattr(convex, "solid_torus_count", stc, raising=False)  # a name convex might import
    built = []
    for n in (1, 7, 300, MAX_TWIST_ROWS):
        sd = sphere_family(n)
        calls.update(dict.fromkeys(calls, 0))
        assert max_twist_table(sd, n).total == n * (n + 1) // 2
        built.append(calls["Slope"])
        assert calls["solid_torus_count"] == 0
    assert built[0] == built[1] == built[2] == built[3]

    tracemalloc.start()
    try:
        table = max_twist_table(sd, MAX_TWIST_ROWS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.n == MAX_TWIST_ROWS and peak < 16 * 1024

    # with a shape cache that keeps nothing, every report builds two
    # templates, its document's and its table's row; once both are kept,
    # its reports build none
    monkeypatch.setattr(report, "_template", counted("_template", report._template))
    monkeypatch.setattr(report, "_TEMPLATES", {})
    docs = [report.classification_json(classify(sphere_family(n))) for n in (10, 1000)]
    for max_shapes in (0, report._MAX_SHAPES):
        monkeypatch.setattr(report, "_MAX_SHAPES", max_shapes)
        if max_shapes:
            calls["_template"] = 0
            report.report("classify", docs[0])
            assert calls["_template"] == len(report._TEMPLATES) == 2
        templated = []
        for n, doc in zip((10, 1000), docs):
            calls["_template"] = 0
            assert len(report.report("classify", doc)) > 100 * n
            templated.append(calls["_template"])
        assert templated == ([0, 0] if max_shapes else [2, 2])
        assert len(report._TEMPLATES) == (2 if max_shapes else 0)


def test_max_twist_table_builds_one_transfer_matrix(monkeypatch):
    # the inverse V_3 transfer is UniMat.inverse of the one attaching matrix,
    # whose constructor keeps the unimodularity check: two builds per table
    built = []
    new = UniMat.__new__
    monkeypatch.setattr(UniMat, "__new__", lambda cls, *abcd: built.append(abcd) or new(cls, *abcd))
    for n in (1, 2, 7, 800):
        sd = sphere_family(n)
        built.clear()
        assert max_twist_table(sd, n).total == n * (n + 1) // 2
        assert len(built) == 2

    with pytest.raises(ValueError, match="unimodular"):
        max_twist_table(doctored(3, 2, u=1), 3)


def test_max_twist_rows_cap():
    with pytest.raises(ValueError, match="limit"):
        max_twist_table(sphere_family(MAX_TWIST_ROWS + 1), MAX_TWIST_ROWS + 1)
    with pytest.raises(ValueError):
        max_twist_table(sphere_family(1), 0)

