"""Seifert invariants over S^2 with three singular fibers.

A manifold M(r1, r2, r3) with rational invariants is normalized to
M(e0; r1, r2, r3) with each ri in Q n (0, 1) by moving integer parts into the
integer Euler number e0; the tuple is kept sorted ascending, since the
invariants are unordered.  Each invariant ri = pi/qi carries its convergents
(pi, qi, ui, vi), with pi vi - qi ui = 1, and the runs of the expansion of
-1/ri, both from one contfrac.read_leg pass at parse.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .contfrac import Convergents, Expansion, capped_count, read_leg
from .slopes import Slope, parse_int


class SeifertData(NamedTuple):
    e0: int
    conv: tuple[Convergents, Convergents, Convergents]
    # the expansion of -1/ri, as runs, for each leg: derived from conv's (p, q)
    legs: tuple[Expansion, Expansion, Expansion]
    invariant_sum: Slope  # r_1 + r_2 + r_3, reduced once at parse

    @property
    def r(self) -> tuple[Fraction, Fraction, Fraction]:
        """The invariants ri = pi/qi, built from conv."""
        return tuple(Fraction(p, q) for p, q, _, _ in self.conv)

    def __str__(self) -> str:
        return "M(%d; %d/%d, %d/%d, %d/%d)" % (self.e0, *self.conv[0][:2], *self.conv[1][:2], *self.conv[2][:2])


def _sum_ratio(conv) -> tuple[int, int]:
    """(num, den) with r_1 + r_2 + r_3 = num/den and den = q_1 q_2 q_3, not reduced."""
    (p1, q1, _, _), (p2, q2, _, _), (p3, q3, _, _) = conv
    q12 = q1 * q2
    return (p1 * q2 + p2 * q1) * q3 + p3 * q12, q12 * q3


def _normalize(pairs, e0_raw: int) -> SeifertData:
    """Normalized data from three invariants, given as integer pairs (p, q)
    with q != 0, plus an integer part.

    Each p/q is reduced with gcd and split by divmod into its floor, which
    moves into e0, and a part p'/q with 0 < p' < q.  The parts are sorted by
    p' (Q/q) for Q = q_1 q_2 q_3, an exact integer key of p'/q.  One
    read_leg pass per leg gives its convergents and runs; no cap applies
    here, since the runs of any leg take O(log q) space.
    """
    if len(pairs) != 3:
        raise ValueError("expected exactly three Seifert invariants")
    e0 = e0_raw
    legs = []
    for p, q in pairs:
        if q < 0:
            p, q = -p, -q
        g = gcd(p, q)
        if g == q:
            raise ValueError("fewer than three singular fibers")
        k, p = divmod(p // g, q // g)
        e0 += k
        legs.append((p, q // g))
    scale = legs[0][1] * legs[1][1] * legs[2][1]
    legs.sort(key=lambda leg: leg[0] * (scale // leg[1]))
    expansions, conv = zip(*[read_leg(p, q) for p, q in legs])
    return SeifertData(e0, conv, expansions, Slope(*_sum_ratio(conv)))


def parse_manifold(text: str) -> SeifertData:
    """Parse 'e0;r1,r2,r3' (normalized) or 'r1,r2,r3' (unnormalized); each
    integer is read by slopes.parse_int, so under its MAX_INPUT_DIGITS cap."""
    t = text.strip()
    if ";" in t:
        head, tail = t.split(";", 1)
        e0 = parse_int(head.strip())
    else:
        e0, tail = 0, t
    items = [s.strip() for s in tail.split(",")]
    if len(items) != 3:
        raise ValueError("expected three invariants r1,r2,r3")
    return _normalize([_parse_fraction(s) for s in items], e0)


def _parse_fraction(text: str) -> tuple[int, int]:
    """'p/q' or an integer, as the pair (p, q) with q != 0."""
    if "/" in text:
        p, q = map(parse_int, text.split("/", 1))
        if q == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return p, q
    return parse_int(text), 1


def h1_order(sd: SeifertData) -> int:
    """Order of the first homology; 0 for the degenerate surface bundle case.

    |H_1| = |q1 q2 q3 (e0 + r1 + r2 + r3)|, in integers from _sum_ratio's
    unreduced sum; it vanishes exactly for the surface bundles.
    """
    num, den = _sum_ratio(sd.conv)
    return abs(sd.e0 * den + num)


# The linking matrix has n^2 entries for n vertices, so the plumbing size
# is capped, from the run lengths of the legs, before any row is built.
MAX_PLUMBING_VERTICES = 1000


def linking_matrix(sd: SeifertData) -> tuple[tuple[int, ...], ...]:
    """Star-shaped plumbing matrix: central vertex 0 framed e0, one leg per
    fiber carrying the entries of -1/ri, consecutive vertices linked once.

    Each leg's entry count is checked against MAX_EXPANSION, then the vertex
    count against MAX_PLUMBING_VERTICES; then a zero matrix is filled one
    vertex at a time, numbered from the centre outwards: its entry on the
    diagonal and a 1 on each side of the edge to the vertex before it.
    """
    n = 1 + sum(capped_count(leg) for leg in sd.legs)
    if n > MAX_PLUMBING_VERTICES:
        raise ValueError(f"plumbing has {n} vertices, more than the limit {MAX_PLUMBING_VERTICES}")
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = sd.e0
    v = 0
    for leg in sd.legs:
        prev = 0
        for a in leg.entries():
            v += 1
            rows[v][v] = a
            rows[prev][v] = rows[v][prev] = 1
            prev = v
    return tuple(map(tuple, rows))


# family tags for the classifier
WRONG_E0 = "wrong_e0"
TORUS_BUNDLE = "torus_bundle"
SPHERE_FAMILY = "sphere_family"  # (1/2, 2/3, (5n+1)/(6n+1)), integral homology spheres
K_OVER_K1 = "k_over_k_plus_1"  # (1/2, 2/3, k/(k+1)), k >= 6
SUM_GE_9_4 = "sum_ge_9_4"
SUM_LT_2 = "sum_lt_2"
DEGENERATE_SUM_2 = "degenerate_sum_2"
GAP_OTHER = "gap_other"

# the three torus-bundle triples, as the (p, q) of each sorted leg
TORUS_BUNDLE_LEGS = (
    ((1, 2), (3, 4), (3, 4)),
    ((1, 2), (2, 3), (5, 6)),
    ((2, 3), (2, 3), (2, 3)),
)


class Family(NamedTuple):
    kind: str
    n: int | None = None  # sphere family parameter
    k: int | None = None  # integer surgery parameter

    def __str__(self) -> str:
        extra = ""
        if self.n is not None:
            extra = f"(n={self.n})"
        elif self.k is not None:
            extra = f"(k={self.k})"
        return self.kind + extra


# the families that carry no parameter, one instance each
_WRONG_E0, _TORUS_BUNDLE, _SUM_GE_9_4, _SUM_LT_2, _DEGENERATE_SUM_2, _GAP_OTHER = map(Family, (
    WRONG_E0, TORUS_BUNDLE, SUM_GE_9_4, SUM_LT_2, DEGENERATE_SUM_2, GAP_OTHER))


def detect_family(sd: SeifertData) -> Family:
    """Which classification regime the (sorted) invariants fall into.

    Overlapping tags are resolved in this order: torus bundle, the
    (5n+1)/(6n+1) sphere family, the k/(k+1) integer surgery family, sum at
    least 9/4, sum below 2, degenerate sum 2, and the remaining gap.  The sum
    is compared as the two ints of the invariant_sum that parse stored.
    """
    if sd.e0 != -2:
        return _WRONG_E0
    (p1, q1, _, _), (p2, q2, _, _), (p3, q3, _, _) = sd.conv
    if ((p1, q1), (p2, q2), (p3, q3)) in TORUS_BUNDLE_LEGS:
        return _TORUS_BUNDLE
    if (p1, q1, p2, q2) == (1, 2, 2, 3):
        if q3 % 6 == 1 and p3 == 5 * (q3 // 6) + 1 and q3 // 6 >= 1:
            return Family(SPHERE_FAMILY, n=q3 // 6)
        if q3 == p3 + 1 and p3 >= 6:
            return Family(K_OVER_K1, k=p3)
    num, den = sd.invariant_sum.num, sd.invariant_sum.den
    if 4 * num >= 9 * den:
        return _SUM_GE_9_4
    if num < 2 * den:
        return _SUM_LT_2
    if num == 2 * den:
        return _DEGENERATE_SUM_2
    return _GAP_OTHER
