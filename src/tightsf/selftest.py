"""Built-in consistency suites runnable from the command line.

Each suite is the one implementation of its check: `tightsf selftest` runs it
at the default sizes, and the test suite calls it at larger ones.  The
generators the tests share live here too.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from .contfrac import convergents, expand, ncf_eval, reverse_shift, solid_torus_count, tight_count
from .convex import (fiber3_matrix, max_twist_table, measured_slope, slope_coeffs, twist_count, v3_slope,
                     v3_slope_stepwise)
from .farey import BACK, FRONT, checked_bypass
from .seifert import normalize
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


def rounded_slope_fraction(s_a: Slope, s_b: Slope, delta: int) -> Slope:
    """The rounding as a Fraction sum, sA + sB - 1/delta: oracle for rounded_slope."""
    return Slope.from_fraction(s_a.as_fraction() + s_b.as_fraction() - Fraction(1, delta))


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
    """Each row against its own route: measured slopes summed as Fractions,
    carried to dV_3 by v3_slope_stepwise and by the inverse attaching matrix,
    and the count of the boundary slope from solid_torus_count; every row is a
    tuple of plain ints."""
    rows = top = 0
    for n in ns:
        table = max_twist_table(n)
        twist_count(table)
        tuples = list(table.tuples())
        _check(table.n == n and len(tuples) == n, f"n = {n}: the table has {len(tuples)} rows, not n")
        sd = normalize((Fraction(1, 2), Fraction(2, 3), Fraction(5 * n + 1, 6 * n + 1)), -2)
        q1, v1 = sd.conv[0].q, sd.conv[0].v
        transfer = fiber3_matrix(sd.conv[2]).inverse()
        for k, row in enumerate(tuples):
            n1, n2 = -3 * k - 1, -2 * k - 1
            rounded = rounded_slope_fraction(measured_slope(1, sd, n1), measured_slope(2, sd, n2), q1 * n1 + v1)
            _check(rounded == Slope(-k, 6 * k + 1), f"n = {n}, k = {k}: rounded is not -k/(6k+1)")
            boundary = v3_slope_stepwise(sd, n1, n2)
            _check(boundary == transfer.apply(-rounded) == Slope(-n + k), f"n = {n}, k = {k}: boundary is not -n+k")
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
