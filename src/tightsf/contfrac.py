"""Negative continued fractions and the solid torus counting formulas.

A rational x < -1 has a unique expansion

    x = [a_0, a_1, ..., a_m] = a_0 - 1/(a_1 - 1/(... - 1/a_m))

with every a_k <= -2 (the canonical form).  The empty expansion evaluates to
the infinite slope.  reverse_shift produces the derived form
[a_m, ..., a_1, a_0 + 1], whose last entry may legitimately be -1.

For x = -q/p in lowest terms (q > p >= 1) the convergents (p, q, u, v) record
-v/u = [a_0, ..., a_{m-1}], with u = 0, v = 1 when the expansion has length
one; they always satisfy p*v - q*u = 1.

An expansion is kept as its runs: an `Expansion` is the tuple of its (a, m)
pairs, m consecutive entries a.  Runs of -2 come one per regular partial
quotient, so read_leg takes a leg's runs and its convergents from one Euclid
pass of O(log q) steps, however many entries the expansion has.  Everything
else reads the runs: the entry count, T, reverse_shift and the report
writer; only `Expansion.entries` spells the entries out.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import prod
from operator import itemgetter
from typing import NamedTuple

from .slopes import Slope


class Convergents(NamedTuple):
    p: int
    q: int
    u: int
    v: int


# An expansion of -1/r with r = p/q has up to q - 1 entries.  expand and the
# code that prints or plumbs a leg refuse a longer one from its run lengths,
# so a short input cannot ask for an unbounded amount of output or memory.
MAX_EXPANSION = 10**6


_LENGTH = itemgetter(1)


class Expansion(tuple):
    """An expansion as the tuple of its runs (a, m): m consecutive entries a,
    with runs of -2 maximal and every other run a single entry (the canonical
    form from read_leg, or the derived form from reverse_shift).

    Indexing, len and iteration are those of the runs; entry_count and
    entries give the entries' number and the entries themselves.
    """

    __slots__ = ()

    def entry_count(self) -> int:
        return sum(map(_LENGTH, self))

    def entries(self) -> tuple[int, ...]:
        """The flat tuple of entries, O(entries): for text output and oracles."""
        return tuple(chain.from_iterable(repeat(a, m) for a, m in self))


def leg_of(x: Slope | Fraction) -> tuple[int, int]:
    """The leg (p, q) of a slope or rational x = -q/p < -1, in lowest terms."""
    if isinstance(x, Slope):
        q, p = -x.num, x.den
    else:
        q, p = -x.numerator, x.denominator
    if q <= p:  # x >= -1, or the infinite slope (q, p) = (-1, 0)
        raise ValueError("not of the form -1/r with r in (0,1)")
    return p, q


def read_leg(p: int, q: int) -> tuple[Expansion, Convergents]:
    """The runs of the canonical expansion of -q/p and the convergents
    (p, q, u, v), for the leg r = p/q with 0 < p < q coprime, from one pass.

    The pass is Euclid's on (q, p).  A step with n/d in (1, 2] starts a run of
    -2 entries whose length d // (n - d) is read off at once; any other step
    is one entry -b, b = ceil(n/d).  Beside it runs the numerator continuant
    N_k of [a_0, ..., a_k] (N_{-2} = 0, N_{-1} = 1, N_k = -a_k N_{k-1} - N_{k-2}):
    an entry -b sets N <- b N_1 - N_0, and a run of m entries -2 is an
    arithmetic progression, m steps of N_1 - N_0 at once.  At the end N = q,
    so v = N_{m-1}, and u = (p v - 1)/q.  O(log q) steps, however long the
    expansion is.
    """
    runs = []
    n, d = q, p
    v, w = 0, 1  # the continuants N_{k-1}, N_k of the entries read so far
    while d:
        e = n - d
        if e <= d:
            m = d // e
            runs.append((-2, m))
            n, d = d - (m - 1) * e, d - m * e
            step = w - v
            v = w + (m - 1) * step
            w = v + step
        else:
            b = -(-n // d)  # ceiling
            runs.append((-b, 1))
            # remainder 1/(b - n/d) = d/(b*d - n)
            n, d = d, b * d - n
            v, w = w, b * w - v
    # tuple.__new__ types the convergents without the NamedTuple's Python-level __new__
    return Expansion(runs), tuple.__new__(Convergents, (p, q, (p * v - 1) // q, v))


def capped_count(leg: Expansion) -> int:
    """The entry count of leg, read off its runs.

    Raises ValueError when it is more than MAX_EXPANSION.
    """
    length = leg.entry_count()
    if length > MAX_EXPANSION:
        raise ValueError(f"expansion has {length} entries, more than the limit {MAX_EXPANSION}")
    return length


def expand(x: Slope | Fraction) -> Expansion:
    """Canonical expansion of a rational x < -1, as the runs of its entries <= -2.

    Raises ValueError when it would have more than MAX_EXPANSION entries.
    """
    leg = read_leg(*leg_of(x))[0]
    capped_count(leg)
    return leg


def convergents(x: Slope | Fraction) -> Convergents:
    """Convergents (p, q, u, v) of x = -q/p < -1, with p*v - q*u = 1."""
    return read_leg(*leg_of(x))[1]


def shifted_product(runs) -> int:
    """|prod (a_k + 1)| over the canonical entries that the runs (a, m) spell.

    A run of -2 adds only factors -1, and every other run is one entry, so
    the product is read off the run heads in O(runs) steps.
    """
    return abs(prod(a + 1 for a, _ in runs if a != -2))


def reverse_shift(leg: Expansion) -> Expansion:
    """The runs of [a_m, ..., a_1, a_0 + 1] (derived form; last entry may be
    -1), for the runs of a canonical expansion [a_0, ..., a_m]: the runs
    reversed, with the head entry shifted and moved to the end, in O(runs)
    steps.  Runs of -2 stay maximal: a shifted head -2 joins the run before
    it; every other entry stays a run of its own.
    """
    if not leg:
        raise ValueError("reverse_shift needs a non-empty expansion")
    if max(a for a, _ in leg) > -2:
        raise ValueError("reverse_shift needs a canonical expansion")
    (a, m), body = leg[0], leg[:0:-1]
    if m > 1:
        body += ((a, m - 1),)
    if a == -3 and body and body[-1][0] == -2:
        return Expansion(body[:-1] + ((-2, body[-1][1] + 1),))
    return Expansion(body + ((a + 1, 1),))


def tight_count(r: Fraction) -> int:
    """|prod (a_k + 1)| over the expansion of -1/r, for r in (0, 1).

    This is the number of tight contact structures contributed by a singular
    fiber with normalized invariant r.  It is read off the runs of the
    expansion, in O(log q) steps, without spelling out the entries.
    """
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("invariant must lie in (0, 1)")
    return shifted_product(read_leg(r.numerator, r.denominator)[0])


def solid_torus_count(s: Slope | Fraction) -> int:
    """Number of tight contact structures on a solid torus with boundary slope s.

    For rational s <= -1 with expansion [b_0, ..., b_m] the count is
    |(b_0 + 1) ... (b_{m-1} + 1) * b_m| (last factor unshifted); s = -1 is a
    standard neighborhood, with count 1.  Dropping one b_m = -2 from the runs
    drops a factor -1, so every run head but the last gives the shifted
    factors.
    """
    if s == -1:
        return 1
    runs = read_leg(*leg_of(s))[0]
    return abs(runs[-1][0]) * shifted_product(runs[:-1])
