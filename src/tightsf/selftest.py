"""Built-in consistency suites runnable from the command line.

These repeat the heart of the test suite in a form a user can run without
pytest: the continued fraction identities, the bypass oracle agreement, and
the closed-form slope agreement.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .contfrac import convergents, expand, ncf_eval, reverse_shift, solid_torus_count, tight_count
from .convex import max_twist_table, v3_slope, v3_slope_stepwise
from .farey import BACK, FRONT, bypass_attach, bypass_oracle
from .seifert import normalize
from .slopes import INF, Slope


def _check(ok: bool, message: str) -> None:
    """Fail the running suite unless ok; an explicit raise, so -O keeps it."""
    if not ok:
        raise AssertionError(message)


def _fractions(max_q: int):
    for q in range(2, max_q + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield p, q


def check_contfrac_identities(max_q: int = 100) -> str:
    n = 0
    for p, q in _fractions(max_q):
        x = Fraction(-q, p)
        entries = expand(x)
        _check(ncf_eval(entries) == Slope(-q, p), f"expansion of {x} does not evaluate back")
        cp, cq, u, v = convergents(x)
        _check((cp, cq) == (p, q) and p * v - q * u == 1, f"convergents of {x} break p*v - q*u = 1")
        shifted = ncf_eval(reverse_shift(entries))
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
    checked = 0
    for s in slopes:
        for r in slopes:
            if s == r:
                continue
            for side in (FRONT, BACK):
                _check(bypass_attach(s, r, side) == bypass_oracle(s, r, side),
                       f"bypass on {s} along {r} ({side}) differs from the oracle")
                checked += 1
    rng = random.Random(seed)
    for _ in range(samples):
        s = _random_slope(rng, 50)
        r = _random_slope(rng, 50)
        if s == r:
            continue
        side = rng.choice((FRONT, BACK))
        _check(bypass_attach(s, r, side) == bypass_oracle(s, r, side),
               f"bypass on {s} along {r} ({side}) differs from the oracle")
        checked += 1
    return f"{checked} attachments agree with the oracle"


def _random_slope(rng: random.Random, max_den: int) -> Slope:
    if rng.random() < 0.05:
        return INF
    q = rng.randint(1, max_den)
    p = rng.randint(-(max_den + 25), max_den + 25)
    return Slope(p, q)


def check_closed_form(samples: int = 200, seed: int = 11) -> str:
    rng = random.Random(seed)
    done = 0
    while done < samples:
        rs = sorted(_random_invariant(rng) for _ in range(3))
        sd = normalize(rs, -2)
        (p1, q1, u1, v1), (p2, q2, u2, v2) = sd.conv[0], sd.conv[1]
        n1 = -rng.randint(1, 40)
        delta = q1 * n1 + v1
        if (delta - v2) % q2:
            continue
        n2 = (delta - v2) // q2
        if n2 >= 0:
            continue
        try:
            closed = v3_slope(sd, n1)
        except ValueError:  # a pole of the closed form, projectively infinite
            closed = INF
        _check(closed == v3_slope_stepwise(sd, n1, n2),
               f"closed form differs from stepwise rounding at {sd.r}, n1 = {n1}")
        done += 1
    return f"{done} random tuples, closed form = stepwise rounding"


def _random_invariant(rng: random.Random) -> Fraction:
    q = rng.randint(2, 12)
    p = rng.randint(1, q - 1)
    return Fraction(p, q)


def check_max_twist_chain(max_n: int = 20) -> str:
    rows = 0
    for n in range(1, max_n + 1):
        table = max_twist_table(n)
        _check(table.total == n * (n + 1) // 2, f"n = {n}: rows sum to {table.total}, not n(n+1)/2")
        for row in table.rows:
            _check(row.rounded == Slope(-row.k, 6 * row.k + 1), f"n = {n}, k = {row.k}: rounded is not -k/(6k+1)")
            _check(row.boundary == Slope(-n + row.k), f"n = {n}, k = {row.k}: boundary is not -n+k")
            _check(row.count == n - row.k, f"n = {n}, k = {row.k}: count is not n-k")
            rows += 1
    return f"{rows} rows across n <= {max_n}"


SUITES = (
    ("continued fraction identities", check_contfrac_identities),
    ("bypass oracle agreement", check_bypass_oracle),
    ("closed form slope agreement", check_closed_form),
    ("maximal twisting tables", check_max_twist_chain),
)


def run_all() -> list[tuple[str, bool, str]]:
    """Run every suite; a failed check or a broken library identity is a FAIL."""
    results = []
    for name, fn in SUITES:
        try:
            detail = fn()
            results.append((name, True, detail))
        except (AssertionError, ArithmeticError) as exc:
            results.append((name, False, str(exc) or "assertion failed"))
    return results
