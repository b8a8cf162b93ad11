"""Seifert invariants over S^2 with three singular fibers.

A manifold M(r1, r2, r3) with rational invariants is normalized to
M(e0; r1, r2, r3) with each ri in Q n (0, 1) by moving integer parts into the
integer Euler number e0; the tuple is kept sorted ascending, since the
invariants are unordered.  Each invariant ri = pi/qi carries its convergents
(pi, qi, ui, vi), with pi vi - qi ui = 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor

from .contfrac import Convergents, convergents, expand


@dataclass(frozen=True)
class SeifertData:
    e0: int
    r: tuple[Fraction, Fraction, Fraction]
    conv: tuple[Convergents, Convergents, Convergents]

    @cached_property
    def invariant_sum(self) -> Fraction:
        return sum(self.r, Fraction(0))

    def __str__(self) -> str:
        return f"M({self.e0}; {', '.join(str(x) for x in self.r)})"


def normalize(raw, e0_raw: int) -> SeifertData:
    """Normalized data from unnormalized invariants plus an integer part."""
    raw = [Fraction(x) for x in raw]
    if len(raw) != 3:
        raise ValueError("expected exactly three Seifert invariants")
    if any(x.denominator == 1 for x in raw):
        raise ValueError("fewer than three singular fibers")
    e0 = e0_raw + sum(floor(x) for x in raw)
    parts = sorted(x - floor(x) for x in raw)
    conv = tuple(convergents(-1 / x) for x in parts)
    return SeifertData(e0, tuple(parts), conv)


def parse_manifold(text: str) -> SeifertData:
    """Parse 'e0;r1,r2,r3' (normalized) or 'r1,r2,r3' (unnormalized)."""
    t = text.strip()
    if ";" in t:
        head, tail = t.split(";", 1)
        e0 = int(head.strip())
    else:
        e0, tail = 0, t
    items = [s.strip() for s in tail.split(",")]
    if len(items) != 3:
        raise ValueError("expected three invariants r1,r2,r3")
    return normalize([_parse_fraction(s) for s in items], e0)


def _parse_fraction(text: str) -> Fraction:
    if "/" in text:
        p, q = (int(s) for s in text.split("/", 1))
        if q == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(p, q)
    return Fraction(int(text))


def h1_order(sd: SeifertData) -> int:
    """Order of the first homology; 0 for the degenerate surface bundle case.

    The sum e0 + r1 + r2 + r3 vanishes exactly for the surface bundles, and
    otherwise |q1 q2 q3 (e0 + r1 + r2 + r3)| is the order of H_1.
    """
    total = sd.e0 + sd.invariant_sum
    if total == 0:
        return 0
    q1, q2, q3 = (c.q for c in sd.conv)
    val = q1 * q2 * q3 * total
    if val.denominator != 1:
        raise ArithmeticError(f"q1 q2 q3 (e0 + r1 + r2 + r3) = {val} is not an integer")
    return abs(val.numerator)


# The linking matrix has n^2 entries for n vertices, so the plumbing size
# is capped before the matrix is allocated.
MAX_PLUMBING_VERTICES = 1000


def linking_matrix(sd: SeifertData) -> tuple[tuple[int, ...], ...]:
    """Star-shaped plumbing matrix: central vertex framed e0, one leg per
    fiber carrying the expansion of -1/ri, consecutive vertices linked once."""
    legs = [expand(-1 / ri) for ri in sd.r]
    n = 1 + sum(len(l) for l in legs)
    if n > MAX_PLUMBING_VERTICES:
        raise ValueError(f"plumbing has {n} vertices, more than the limit {MAX_PLUMBING_VERTICES}")
    m = [[0] * n for _ in range(n)]
    m[0][0] = sd.e0
    idx = 1
    for leg in legs:
        prev = 0
        for a in leg:
            m[idx][idx] = a
            m[idx][prev] = m[prev][idx] = 1
            prev = idx
            idx += 1
    return tuple(tuple(row) for row in m)


# family tags for the classifier
WRONG_E0 = "wrong_e0"
TORUS_BUNDLE = "torus_bundle"
SPHERE_FAMILY = "sphere_family"  # (1/2, 2/3, (5n+1)/(6n+1)), integral homology spheres
K_OVER_K1 = "k_over_k_plus_1"  # (1/2, 2/3, k/(k+1)), k >= 6
SUM_GE_9_4 = "sum_ge_9_4"
SUM_LT_2 = "sum_lt_2"
DEGENERATE_SUM_2 = "degenerate_sum_2"
GAP_OTHER = "gap_other"

TORUS_BUNDLE_TRIPLES = (
    (Fraction(1, 2), Fraction(3, 4), Fraction(3, 4)),
    (Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)),
    (Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)),
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
    least 9/4, sum below 2, degenerate sum 2, and the remaining gap.
    """
    if sd.e0 != -2:
        return Family(WRONG_E0)
    r = sd.r
    if r in TORUS_BUNDLE_TRIPLES:
        return Family(TORUS_BUNDLE)
    if r[0] == Fraction(1, 2) and r[1] == Fraction(2, 3):
        p3, q3 = r[2].numerator, r[2].denominator
        if q3 % 6 == 1 and p3 == 5 * (q3 // 6) + 1 and q3 // 6 >= 1:
            return Family(SPHERE_FAMILY, n=q3 // 6)
        if q3 == p3 + 1 and p3 >= 6:
            return Family(K_OVER_K1, k=p3)
    total = sd.invariant_sum
    if total >= Fraction(9, 4):
        return Family(SUM_GE_9_4)
    if total < 2:
        return Family(SUM_LT_2)
    if total == 2:
        return Family(DEGENERATE_SUM_2)
    return Family(GAP_OTHER)
