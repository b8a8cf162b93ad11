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

Both expansion and laurent_image read that signed binomial row, built in i
steps of one multiply and one exact division each, so a class costs O(i):
laurent_image writes the class's Laurent text straight from the row.  The
i-fold product of Laurent polynomials is kept only as the test oracle.
"""
from __future__ import annotations

from typing import NamedTuple


# The table holds n(n+1)/2 classes of n coefficients, and its text grows about
# as n^3 (12 MB at n = 100), so a larger n is refused before any class is built.
MAX_N = 100


def _check_table_size(n: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_N:
        raise ValueError(f"n = {n} is more than the limit {MAX_N}")


class ContactIndex(NamedTuple("ContactIndex", [("n", int), ("i", int), ("j", int)])):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace runs the check too

    def __new__(cls, n: int, i: int, j: int) -> "ContactIndex":
        _check_table_size(n)
        if not 0 <= i <= n - 1:
            raise ValueError("index i out of range")
        if abs(j) > n - i - 1:
            raise ValueError("index j out of range")
        if (j - (n + 1 - i)) % 2:
            raise ValueError("index j has the wrong parity")
        return tuple.__new__(cls, (n, i, j))


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


class ExpansionVector(NamedTuple("ExpansionVector", [("n", int), ("coeffs", tuple[int, ...])])):
    """Coordinates of a contact class in the i = 0 basis, indexed by grid(n)."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace runs the check too

    def __new__(cls, n: int, coeffs: tuple[int, ...]) -> "ExpansionVector":
        if len(coeffs) != n:
            raise ValueError("coefficient vector has wrong length")
        return tuple.__new__(cls, (n, tuple(coeffs)))


def _binomial_row(i: int) -> list[int]:
    """(-1)^k binom(i, k) for k = 0..i, each entry from the one before."""
    c = 1
    row = [c]
    for k in range(i):
        c = c * (k - i) // (k + 1)  # exact: binom(i, k) (i-k) = binom(i, k+1) (k+1)
        row.append(c)
    return row


def expansion(idx: ContactIndex) -> ExpansionVector:
    """Basis coordinates: (-1)^k binom(i, k) at j' = j + i - 2k, k = 0..i."""
    n, i = idx.n, idx.i
    low = (idx.j - i + n - 1) // 2  # the position of j' = j - i, where k = i
    row = _binomial_row(i)
    row.reverse()
    return ExpansionVector(n, (0,) * low + tuple(row) + (0,) * (n - 1 - low - i))


def laurent_image(idx: ContactIndex) -> str:
    """t^(j/2) (t^(1/2) - t^(-1/2))^i, the image of the class in the model, as
    text: (-1)^k binom(i, k) t^((j+i-2k)/2) for k = 0..i, highest power first.

    The exponents j+i, j+i-2, ... descend and share a parity, and no entry of
    the row is 0, so each term is written in the row's order.  A coefficient
    of +-1 is a bare sign, the constant term is its signed coefficient, and
    the leading "+" of the first term (whose coefficient is 1) is dropped.
    """
    i, j = idx.i, idx.j
    odd = (j + i) % 2
    terms = []
    for e, c in zip(range(j + i, j - i - 1, -2), _binomial_row(i)):
        if e == 0:
            terms.append("%+d" % c)
            continue
        power = "t^(%d/2)" % e if odd else "t^%d" % (e // 2)
        terms.append(("+" if c == 1 else "-" if c == -1 else "%+d*" % c) + power)
    return "".join(terms)[1:]


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
