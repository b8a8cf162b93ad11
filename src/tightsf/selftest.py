"""Built-in consistency suites runnable from the command line, and the slow
routes they check the fast paths against.

Each suite is the one implementation of its check: `tightsf selftest` runs it
at the default sizes, and the test suite calls it at larger ones.  Each slow
route lives here once, beside the generators the tests share; the library
modules keep only what a command runs, and only cli imports this module, when
selftest runs.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from .contfrac import Convergents, convergents, expand, reverse_shift, solid_torus_count, tight_count
from .convex import MaxTwistTable, max_twist_table, measured_slope, slope_coeffs, v3_slope
from .farey import BACK, FRONT, checked_bypass
from .seifert import SeifertData, _normalize
from .slopes import INF, Slope


def _check(ok: bool, message: str) -> None:
    """Fail the running suite unless ok; an explicit raise, so -O keeps it."""
    if not ok:
        raise ArithmeticError(message)


def fractions_upto(max_q: int) -> Iterator[tuple[int, int]]:
    """Every reduced p/q with 0 < p < q <= max_q, as the pair (p, q)."""
    for q in range(2, max_q + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield p, q


def random_invariant(rng: random.Random) -> Fraction:
    q = rng.randint(2, 12)
    p = rng.randint(1, q - 1)
    return Fraction(p, q)


def random_slope(rng: random.Random, max_den: int) -> Slope:
    if rng.random() < 0.05:
        return INF
    q = rng.randint(1, max_den)
    p = rng.randint(-(max_den + 25), max_den + 25)
    return Slope(p, q)


def normalize(raw, e0_raw: int) -> SeifertData:
    """Normalized data from unnormalized invariants plus an integer part: the
    Fraction front door to seifert._normalize."""
    return _normalize([Fraction(x).as_integer_ratio() for x in raw], e0_raw)


def ncf_eval(entries) -> Slope:
    """Right-to-left evaluation of a sequence of entries (an Expansion's
    entries()); the empty sequence gives the infinite slope."""
    n, d = 1, 0  # the infinite slope: a first entry a gives (a, 1)
    for a in reversed(tuple(entries)):
        if n == 0:
            raise ValueError("intermediate zero denominator in evaluation")
        n, d = a * n - d, n
    return Slope(n, d)


def apply(m: tuple[int, int, int, int], s: Slope) -> Slope:
    """Image of the slope under m = (a, b, c, d), the column-vector action of
    [[a, b], [c, d]], with (x, y) read as y/x."""
    a, b, c, d = m
    den, num = s.vec()
    x = a * den + b * num
    y = c * den + d * num
    if x == 0 and y == 0:
        raise ArithmeticError(f"{m} kills the line of {s}, but a unimodular matrix kills none")
    return Slope(y, x)


def v3_transfer(conv3: Convergents) -> tuple[int, int, int, int]:
    """The inverse attaching matrix of V_3, [[v-u, -v], [p-q, q]] as a 4-tuple,
    from the convergents (p, q, u, v) of the third invariant: as p v - q u = 1,
    it inverts the attaching matrix [[q, v], [q-p, v-u]]."""
    p, q, u, v = conv3
    return (v - u, -v, p - q, q)


def rounded_slope(s_a: Slope, s_b: Slope, delta: int) -> Slope:
    """Slope after cutting along the balanced annulus and rounding, as the
    Fraction sum sA + sB - 1/delta."""
    return Slope(*(s_a.as_fraction() + s_b.as_fraction() - Fraction(1, delta)).as_integer_ratio())


def v3_slope_stepwise(sd: SeifertData, n1: int, n2: int) -> Slope:
    """Edge rounding between V_1 and V_2 followed by transfer to dV_3: oracle
    for convex.v3_slope.

    Requires the balance q_1 n_1 + v_1 = q_2 n_2 + v_2.  The transfer applies
    the inverse attaching matrix of V_3 to the negated rounded slope; lines
    are unoriented, so this matches the oriented bookkeeping projectively.
    """
    (p1, q1, u1, v1), (p2, q2, u2, v2) = sd.conv[0], sd.conv[1]
    delta = q1 * n1 + v1
    if delta != q2 * n2 + v2:
        raise ValueError("imbalanced dividing sets")
    rounded = rounded_slope(measured_slope(1, sd, n1), measured_slope(2, sd, n2), delta)
    return apply(v3_transfer(sd.conv[2]), -rounded)


def max_twist_rows(table: MaxTwistTable) -> Iterator[tuple[int, ...]]:
    """Row k < n of a sphere-family table as (k, -k, 6k+1, k-n, n-k): k, the
    rounded slope -k/(6k+1) as its num and den > 0, the dV_3 boundary slope
    -n+k as an integer, and the count n-k."""
    n = table.n
    return zip(range(n), range(0, -n, -1), range(1, 6 * n, 6), range(-n, 0), range(n, 0, -1))


def check_contfrac_identities(max_q: int = 100) -> str:
    n = 0
    for p, q in fractions_upto(max_q):
        x = Fraction(-q, p)
        entries = expand(x)
        _check(ncf_eval(entries.entries()) == Slope(-q, p), f"expansion of {x} does not evaluate back")
        cp, cq, u, v = convergents(x)
        _check((cp, cq) == (p, q) and p * v - q * u == 1, f"convergents of {x} break p*v - q*u = 1")
        _check(q >= v > 0 and p >= u >= 0, f"convergents of {x} break q >= v > 0 and p >= u >= 0")
        shifted = ncf_eval(reverse_shift(entries).entries())
        _check(shifted == Slope(p - q, v - u), f"reverse shift of {x} is not (p - q)/(v - u)")
        _check(solid_torus_count(shifted) == tight_count(Fraction(p, q)),
               f"solid torus count differs from T at r = {p}/{q}")
        n += 1
    return f"{n} expansions, q <= {max_q}"


def check_bypass_oracle(max_den: int = 12, samples: int = 300, seed: int = 7) -> str:
    slopes = [INF, Slope(0), Slope(-1)]
    for q in range(2, max_den + 1):
        for p in range(-q, 0):
            if gcd(-p, q) == 1:
                slopes.append(Slope(p, q))
    rng = random.Random(seed)
    drawn = ((random_slope(rng, 50), random_slope(rng, 50)) for _ in range(samples))
    cases = [(s, r, side) for s in slopes for r in slopes if s != r for side in (FRONT, BACK)]
    cases += [(s, r, rng.choice((FRONT, BACK))) for s, r in drawn if s != r]
    for case in cases:
        checked_bypass(*case)
    return f"{len(cases)} attachments agree with the oracle"


def check_closed_form(samples: int = 200, seed: int = 11, min_n1: int = -40) -> str:
    rng = random.Random(seed)
    done = 0
    while done < samples:
        rs = sorted(random_invariant(rng) for _ in range(3))
        sd = normalize(rs, -2)
        (p1, q1, u1, v1), (p2, q2, u2, v2) = sd.conv[0], sd.conv[1]
        n1 = -rng.randint(1, -min_n1)
        delta = q1 * n1 + v1
        if (delta - v2) % q2:
            continue
        n2 = (delta - v2) // q2
        _check(v3_slope(sd, n1, slope_coeffs(sd)) == v3_slope_stepwise(sd, n1, n2),
               f"closed form differs from stepwise rounding at {sd.r}, n1 = {n1}")
        done += 1
    return f"{done} random tuples, closed form = stepwise rounding"


def check_max_twist_chain(ns: Iterable[int] = range(1, 21)) -> str:
    """Each row against its own route: the dividing counts balanced, the
    measured slopes summed as Fractions and carried once to dV_3 by
    v3_transfer, and the count of the boundary slope from
    solid_torus_count; every row is a tuple of plain ints."""
    rows = top = 0
    for n in ns:
        sd = normalize((Fraction(1, 2), Fraction(2, 3), Fraction(5 * n + 1, 6 * n + 1)), -2)
        table = max_twist_table(sd, n)
        tuples = list(max_twist_rows(table))
        _check(table.n == n and len(tuples) == n, f"n = {n}: the table has {len(tuples)} rows, not n")
        (_, q1, _, v1), (_, q2, _, v2) = sd.conv[0], sd.conv[1]
        transfer = v3_transfer(sd.conv[2])
        for k, row in enumerate(tuples):
            n1, n2 = -3 * k - 1, -2 * k - 1
            delta = q1 * n1 + v1
            _check(delta == q2 * n2 + v2, f"n = {n}, k = {k}: dividing counts do not balance")
            rounded = rounded_slope(measured_slope(1, sd, n1), measured_slope(2, sd, n2), delta)
            _check(rounded == Slope(-k, 6 * k + 1), f"n = {n}, k = {k}: rounded is not -k/(6k+1)")
            boundary = apply(transfer, -rounded)
            _check(boundary == Slope(-n + k), f"n = {n}, k = {k}: boundary is not -n+k")
            count = solid_torus_count(boundary)
            _check(count == n - k, f"n = {n}, k = {k}: count is not n-k")
            _check(row == (k, rounded.num, rounded.den, boundary.num, count) and set(map(type, row)) == {int},
                   f"n = {n}, k = {k}: row {row} differs from the stepwise route")
            rows += 1
        top = max(top, n)
    return f"{rows} rows across n <= {top}"


SUITES = (
    ("continued fraction identities", check_contfrac_identities),
    ("bypass oracle agreement", check_bypass_oracle),
    ("closed form slope agreement", check_closed_form),
    ("maximal twisting tables", check_max_twist_chain),
)


def run_all() -> list[tuple[str, bool, str]]:
    """Run every suite; a failed check or a library error on its valid inputs is a FAIL."""
    results = []
    for name, fn in SUITES:
        try:
            detail = fn()
            results.append((name, True, detail))
        except (ArithmeticError, ValueError) as exc:
            results.append((name, False, str(exc)))
    return results
