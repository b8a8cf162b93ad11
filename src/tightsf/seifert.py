"""Seifert invariants over S^2 with three singular fibers.

A manifold M(r1, r2, r3) with rational invariants is normalized to
M(e0; r1, r2, r3) with each ri in Q n (0, 1) by moving integer parts into the
integer Euler number e0; the tuple is kept sorted ascending, since the
invariants are unordered.  Each invariant ri = pi/qi carries its convergents
(pi, qi, ui, vi), with pi vi - qi ui = 1, and the runs of the expansion of
-1/ri, both from one contfrac.read_leg pass at parse.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

from .contfrac import Convergents, Expansion, capped_count, read_leg
from .slopes import parse_int


@dataclass(frozen=True)
class SeifertData:
    e0: int
    conv: tuple[Convergents, Convergents, Convergents]
    # the expansion of -1/ri, as runs, for each leg: derived from conv's (p, q)
    legs: tuple[Expansion, Expansion, Expansion] = field(compare=False, repr=False)
    # the invariants ri = pi/qi, built from conv when first read
    r = cached_property(lambda self: tuple(Fraction(p, q) for p, q, _, _ in self.conv))

    @cached_property
    def invariant_sum(self) -> Fraction:
        return Fraction(*_sum_ratio(self.conv))

    def __str__(self) -> str:
        return "M(%d; %d/%d, %d/%d, %d/%d)" % (self.e0, *self.conv[0][:2], *self.conv[1][:2], *self.conv[2][:2])


def _sum_ratio(conv) -> tuple[int, int]:
    """(num, den) with r_1 + r_2 + r_3 = num/den and den = q_1 q_2 q_3, not reduced."""
    (p1, q1, _, _), (p2, q2, _, _), (p3, q3, _, _) = conv
    q12 = q1 * q2
    return (p1 * q2 + p2 * q1) * q3 + p3 * q12, q12 * q3


def normalize(raw, e0_raw: int) -> SeifertData:
    """Normalized data from unnormalized invariants plus an integer part."""
    return _normalize([(x.numerator, x.denominator) for x in map(Fraction, raw)], e0_raw)


def _normalize(pairs, e0_raw: int) -> SeifertData:
    """normalize on invariants given as integer pairs (p, q) with q != 0.

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
    return SeifertData(e0, conv, expansions)


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
    """Star-shaped plumbing matrix: central vertex framed e0, one leg per
    fiber carrying the expansion of -1/ri, consecutive vertices linked once.

    Each leg's entry count is checked against MAX_EXPANSION, then the vertex
    count against MAX_PLUMBING_VERTICES; the rows are then built one by one
    from the runs stored in sd.
    """
    counts = [capped_count(leg) for leg in sd.legs]
    n = 1 + sum(counts)
    if n > MAX_PLUMBING_VERTICES:
        raise ValueError(f"plumbing has {n} vertices, more than the limit {MAX_PLUMBING_VERTICES}")
    center = [0] * n
    center[0] = sd.e0
    rows = [center]
    idx = 1
    for leg, count in zip(sd.legs, counts):
        center[idx] = 1
        last = idx + count - 1
        prev = 0
        for a, m in leg:
            for _ in range(m):
                row = [0] * n
                row[prev] = 1
                row[idx] = a
                if idx < last:
                    row[idx + 1] = 1
                rows.append(row)
                prev = idx
                idx += 1
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


@dataclass(frozen=True)
class Family:
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


def detect_family(sd: SeifertData) -> Family:
    """Which classification regime the (sorted) invariants fall into.

    Overlapping tags are resolved in this order: torus bundle, the
    (5n+1)/(6n+1) sphere family, the k/(k+1) integer surgery family, sum at
    least 9/4, sum below 2, degenerate sum 2, and the remaining gap.  The sum
    is the cached invariant_sum that the report prints, so it is derived once.
    """
    if sd.e0 != -2:
        return Family(WRONG_E0)
    (p1, q1, _, _), (p2, q2, _, _), (p3, q3, _, _) = sd.conv
    if ((p1, q1), (p2, q2), (p3, q3)) in TORUS_BUNDLE_LEGS:
        return Family(TORUS_BUNDLE)
    if (p1, q1, p2, q2) == (1, 2, 2, 3):
        if q3 % 6 == 1 and p3 == 5 * (q3 // 6) + 1 and q3 // 6 >= 1:
            return Family(SPHERE_FAMILY, n=q3 // 6)
        if q3 == p3 + 1 and p3 >= 6:
            return Family(K_OVER_K1, k=p3)
    num, den = sd.invariant_sum.as_integer_ratio()
    if 4 * num >= 9 * den:
        return Family(SUM_GE_9_4)
    if num < 2 * den:
        return Family(SUM_LT_2)
    if num == 2 * den:
        return Family(DEGENERATE_SUM_2)
    return Family(GAP_OTHER)
