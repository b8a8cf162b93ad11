"""Linear-algebra model of contact classes on the sphere family members.

The manifold with invariants (1/2, 2/3, (5n+1)/(6n+1)) carries candidate
tight structures indexed by pairs (i, j) with 0 <= i <= n-1, |j| <= n-i-1 and
j = n+1-i (mod 2).  Their classes live in a rank-n lattice spanned by the
i = 0 classes, and are modeled by half-integer Laurent polynomials

    t^(j/2) * (t^(1/2) - t^(-1/2))^i,

whose coefficient at t^(j'/2) is the coordinate of the class in the i = 0
basis.  All structures are homotopic, with plane-field invariant theta = 2,
so every class sits in degree -theta/4 - 1/2 = -1.

A word on signs: the product expansion puts (-1)^k binom(i, k) at
j' = j + i - 2k, which fixes the overall sign of each class so that the
one-step recursion  class(i+1, j) = shift(+1) - shift(-1)  holds on the nose.
Distinctness, conjugation symmetry, and the mod-2 fillability obstruction do
not depend on that overall choice.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class ContactIndex:
    n: int
    i: int
    j: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.i <= self.n - 1:
            raise ValueError("index i out of range")
        if abs(self.j) > self.n - self.i - 1:
            raise ValueError("index j out of range")
        if (self.j - (self.n + 1 - self.i)) % 2:
            raise ValueError("index j has the wrong parity")


# The table holds n(n+1)/2 classes of n coefficients, and its text grows about
# as n^3 (12 MB at n = 100), so a larger n is refused before any class is built.
MAX_N = 100


def _check_table_size(n: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_N:
        raise ValueError(f"n = {n} is more than the limit {MAX_N}")


def index_set(n: int) -> list[ContactIndex]:
    """All valid (i, j) for the given n; there are n(n+1)/2 of them."""
    _check_table_size(n)
    out = []
    for i in range(n):
        top = n - i - 1
        for j in range(-top, top + 1, 2):
            out.append(ContactIndex(n, i, j))
    return out


def grid(n: int) -> tuple[int, ...]:
    """Basis positions j' = -n+1, -n+3, ..., n-1."""
    return tuple(range(-n + 1, n, 2))


@dataclass(frozen=True)
class ExpansionVector:
    """Coordinates of a contact class in the i = 0 basis, indexed by grid(n)."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.n:
            raise ValueError("coefficient vector has wrong length")


def expansion(idx: ContactIndex) -> ExpansionVector:
    """Basis coordinates: (-1)^k binom(i, k) at j' = j + i - 2k, k = 0..i."""
    coeffs = [0] * idx.n
    for k in range(idx.i + 1):
        jp = idx.j + idx.i - 2 * k
        pos = (jp + idx.n - 1) // 2
        coeffs[pos] += (-1) ** k * comb(idx.i, k)
    return ExpansionVector(idx.n, tuple(coeffs))


class HalfLaurent:
    """Laurent polynomial in t^(1/2) with integer coefficients.

    Keys of the internal dict are twice the exponent, so t^(j/2) is stored at
    key j; within one element all keys share a parity.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        clean = {e: c for e, c in (terms or {}).items() if c != 0}
        parities = {e % 2 for e in clean}
        if len(parities) > 1:
            raise ValueError("mixed exponent parities in one element")
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("HalfLaurent is immutable")

    @classmethod
    def monomial(cls, twice_exp: int, coeff: int = 1) -> "HalfLaurent":
        return cls({twice_exp: coeff})

    def __mul__(self, other: "HalfLaurent") -> "HalfLaurent":
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return HalfLaurent(out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            exp = f"t^({e}/2)" if e % 2 else ("" if e == 0 else f"t^{e // 2}")
            if exp == "":
                parts.append(f"{c:+d}")
            elif c == 1:
                parts.append(f"+{exp}")
            elif c == -1:
                parts.append(f"-{exp}")
            else:
                parts.append(f"{c:+d}*{exp}")
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text


def laurent_image(idx: ContactIndex) -> HalfLaurent:
    """t^(j/2) (t^(1/2) - t^(-1/2))^i, the image of the class in the model."""
    out = HalfLaurent.monomial(idx.j)
    step = HalfLaurent({1: 1, -1: -1})
    for _ in range(idx.i):
        out = out * step
    return out


def stein_obstructed(idx: ContactIndex) -> bool:
    """Whether the mod-2 pairing argument rules out a Stein filling.

    Applies to conjugation-symmetric classes with j = 0 and i > 0: pairing a
    hypothetical filling against the class kills the paired j' and -j' terms
    mod 2, and the central coefficient is even, contradicting the fact that
    the pairing of a filling is a generator.  Every such class qualifies:
    (t^(1/2) - t^(-1/2))^i is conjugation-symmetric up to the sign (-1)^i;
    for odd n, i is even and the central coefficient +-binom(i, i/2) is even
    for i >= 2; for even n, position 0 is off the grid.  The i = 0 classes
    come with explicit Stein fillings, so they are never obstructed.
    """
    return idx.j == 0 and idx.i > 0


def pairwise_distinct(n: int) -> bool:
    """Whether the n(n+1)/2 classes of index_set(n) have distinct expansions.

    Always true, by reading the index back from the vector: class (i, j) has
    nonzero coefficients at exactly j' = j-i, j-i+2, ..., j+i, namely
    +-binom(i, k), and both end coefficients are +-1.  The two ends of the
    support give j - i and j + i, hence (i, j), so no two classes share a
    vector.  Raises ValueError for an n that index_set refuses.
    """
    _check_table_size(n)
    return True
