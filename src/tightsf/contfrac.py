"""Negative continued fractions and the solid torus counting formulas.

A rational x < -1 has a unique expansion

    x = [a_0, a_1, ..., a_m] = a_0 - 1/(a_1 - 1/(... - 1/a_m))

with every a_k <= -2 (the canonical form).  The empty expansion evaluates to
the infinite slope.  reverse_shift produces the derived form
[a_m, ..., a_1, a_0 + 1], whose last entry may legitimately be -1.

For x = -q/p in lowest terms (q > p >= 1) the convergents (p, q, u, v) record
-v/u = [a_0, ..., a_{m-1}], with u = 0, v = 1 when the expansion has length
one; they always satisfy p*v - q*u = 1.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple

from .slopes import INF, Slope


class Convergents(NamedTuple):
    p: int
    q: int
    u: int
    v: int


# An expansion of -1/r with r = p/q has up to q - 1 entries; a longer one is
# refused before its tuple is built, so a short input cannot ask for an
# unbounded amount of memory.
MAX_EXPANSION = 10**6


def _below_minus_one(x: Slope | Fraction) -> tuple[int, int]:
    """(n, d) with x = -n/d in lowest terms, for a slope or rational x < -1."""
    if isinstance(x, Slope):
        n, d = -x.num, x.den
    else:
        n, d = -x.numerator, x.denominator
    if n <= d:  # x >= -1, or the infinite slope (n, d) = (-1, 0)
        raise ValueError("not of the form -1/r with r in (0,1)")
    return n, d


def _runs(n: int, d: int) -> list[tuple[int, int]]:
    """Runs (a, m) of m consecutive entries a in the canonical expansion of -n/d,
    for integers n > d >= 1.

    A step with n/d in (1, 2] starts a run of -2 entries whose length
    d // (n - d) is read off at once, so the loop runs once per regular
    partial quotient: O(log n) steps however long the expansion is.  Runs of
    -2 alternate with single entries <= -3.
    """
    runs = []
    while d:
        e = n - d
        if e <= d:
            m = d // e
            runs.append((-2, m))
            n, d = d - (m - 1) * e, d - m * e
        else:
            b = -(-n // d)  # ceiling
            runs.append((-b, 1))
            # remainder 1/(b - n/d) = d/(b*d - n)
            n, d = d, b * d - n
    return runs


class Expansion(tuple):
    """A canonical expansion: the tuple of its entries, built from `runs`, the
    (a, m) pairs of m consecutive entries a that _runs reads off.

    Code that needs one number per run (T, the JSON text of the entries) reads
    `runs` and makes O(runs) Python steps, however long the tuple is.
    """

    def __new__(cls, runs: list[tuple[int, int]]) -> Expansion:
        if len(runs) == 1:  # a leg such as 1/q or (q-1)/q: one repetition, no list
            (a, m), = runs
            flat = (a,) * m
        else:
            flat = []
            for a, m in runs:
                flat += (a,) * m
        self = tuple.__new__(cls, flat)
        self.runs = runs
        return self


def leg_runs(p: int, q: int) -> list[tuple[int, int]]:
    """Runs of the canonical expansion of -q/p = -1/r for the leg r = p/q,
    0 < p < q coprime, checked against the cap before any entry is built.

    Raises ValueError when the expansion would have more than MAX_EXPANSION
    entries.
    """
    runs = _runs(q, p)
    length = sum(m for _, m in runs)
    if length > MAX_EXPANSION:
        raise ValueError(f"expansion has {length} entries, more than the limit {MAX_EXPANSION}")
    return runs


def leg_expansion(p: int, q: int) -> Expansion:
    """Canonical expansion of -q/p = -1/r for the leg r = p/q, 0 < p < q coprime.

    Raises ValueError when it would have more than MAX_EXPANSION entries.
    """
    return Expansion(leg_runs(p, q))


def expand(x: Slope | Fraction) -> Expansion:
    """Canonical expansion of a rational x < -1, as a tuple of entries <= -2.

    Raises ValueError when it would have more than MAX_EXPANSION entries.
    """
    n, d = _below_minus_one(x)
    return leg_expansion(d, n)


def shifted_product(runs) -> int:
    """|prod (a_k + 1)| over the canonical entries that the runs (a, m) spell.

    A run of -2 adds only factors -1, and every other run is one entry, so
    the product is read off the run heads in O(runs) steps.
    """
    return abs(prod(a + 1 for a, _ in runs if a != -2))


def ncf_eval(entries) -> Slope:
    """Right-to-left evaluation; the empty sequence gives the infinite slope."""
    n = d = None
    for a in reversed(tuple(entries)):
        if n is None:
            n, d = a, 1
        else:
            if n == 0:
                raise ValueError("intermediate zero denominator in evaluation")
            n, d = a * n - d, n
    if n is None:
        return INF
    return Slope(n, d)


def leg_convergents(p: int, q: int) -> Convergents:
    """Convergents (p, q, u, v) of -q/p for the leg r = p/q, 0 < p < q coprime.

    -v/u is the expansion without its last entry, so v is the inverse of p
    modulo q with 0 < v < q (v = 1, u = 0 for p = 1), and u = (p*v - 1)/q.
    """
    v = pow(p, -1, q)
    return Convergents(p, q, (p * v - 1) // q, v)


def convergents(x: Slope | Fraction) -> Convergents:
    """Convergents (p, q, u, v) of x = -q/p < -1, with p*v - q*u = 1."""
    q, p = _below_minus_one(x)
    return leg_convergents(p, q)


def reverse_shift(entries) -> tuple[int, ...]:
    """[a_m, ..., a_1, a_0 + 1] (derived form; last entry may be -1)."""
    t = tuple(entries)
    if not t:
        raise ValueError("reverse_shift needs a non-empty expansion")
    if max(t) > -2:
        raise ValueError("reverse_shift needs a canonical expansion")
    return t[:0:-1] + (t[0] + 1,)


def tight_count(r: Fraction) -> int:
    """|prod (a_k + 1)| over the expansion of -1/r, for r in (0, 1).

    This is the number of tight contact structures contributed by a singular
    fiber with normalized invariant r.  It is read off the runs of the
    expansion, in O(log q) steps, without building the expansion.
    """
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("invariant must lie in (0, 1)")
    return shifted_product(_runs(r.denominator, r.numerator))


def solid_torus_count(s: Slope | Fraction) -> int:
    """Number of tight contact structures on a solid torus with boundary slope s.

    For rational s <= -1 with expansion [b_0, ..., b_m] the count is
    |(b_0 + 1) ... (b_{m-1} + 1) * b_m| (last factor unshifted).  An integer
    slope -m has the expansion [-m] and the count m, read off in O(1); m = 1
    is a standard neighborhood.  Otherwise, dropping one b_m = -2 from the
    runs drops a factor -1, so every run head but the last gives the shifted
    factors.
    """
    if isinstance(s, Slope):
        f = s.num if s.den == 1 else s.as_fraction()
    else:
        f = Fraction(s)
    if f > -1:
        raise ValueError("boundary slope must be <= -1 in these coordinates")
    if f.denominator == 1:
        return -f.numerator
    runs = _runs(-f.numerator, f.denominator)
    return abs(runs[-1][0]) * shifted_product(runs[:-1])
