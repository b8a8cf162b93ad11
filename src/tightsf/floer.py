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
steps of one multiply and one exact division each.  Each row is built once
per process, on first use, together with the text each entry puts before its
power of t and the reversed row with MAX_N - 1 - i zeros on each side; at
most MAX_N rows are kept, each padded row of at most 2 MAX_N - 1 ints.  So a
class costs one slice: expansion slices the padded row, and laurent_image
interleaves the row's texts with a slice of one table of power texts, also
built on first use.  The i-fold product of Laurent polynomials is kept only
as the test oracle.
"""
from __future__ import annotations

from functools import cache
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
    """All valid (i, j) for the given n; there are n(n+1)/2 of them.

    n is checked once, and each index is built past ContactIndex's check,
    which it passes by construction: 0 <= i <= n-1, j runs from -(n-i-1) to
    n-i-1, and j - (n+1-i) = j - (n-i-1) - 2 is even.
    """
    _check_table_size(n)
    return [tuple.__new__(ContactIndex, (n, i, j)) for i in range(n) for j in range(i + 1 - n, n - i, 2)]


def grid(n: int) -> tuple[int, ...]:
    """Basis positions j' = -n+1, -n+3, ..., n-1."""
    return tuple(range(-n + 1, n, 2))


class ExpansionVector(NamedTuple):
    """Coordinates of a contact class in the i = 0 basis, indexed by grid(n)."""
    coeffs: tuple[int, ...]


def _binomial_row(i: int) -> list[int]:
    """(-1)^k binom(i, k) for k = 0..i, each entry from the one before."""
    c = 1
    row = [c]
    for k in range(i):
        c = c * (k - i) // (k + 1)  # exact: binom(i, k) (i-k) = binom(i, k+1) (k+1)
        row.append(c)
    return row


@cache
def _row(i: int) -> tuple[tuple[int, ...], tuple[str, ...], tuple[int, ...]]:
    """The signed binomial row i as a tuple, the text each entry puts before
    its power of t (a bare sign for +-1, else the signed coefficient and "*"),
    and the reversed row with MAX_N - 1 - i zeros on each side, 2 MAX_N - 1 - i
    ints.  A ContactIndex has i < MAX_N, so at most MAX_N rows are kept."""
    row = tuple(_binomial_row(i))
    zeros = (0,) * (MAX_N - 1 - i)
    return row, tuple("+" if c == 1 else "-" if c == -1 else "%+d*" % c for c in row), zeros + row[::-1] + zeros


@cache
def _powers() -> tuple[str, ...]:
    """The text of t^(e/2) at index e + MAX_N, for |e| <= MAX_N, built on first use."""
    return tuple("t^(%d/2)" % e if e % 2 else "t^%d" % (e // 2) for e in range(-MAX_N, MAX_N + 1))


def expansion(idx: ContactIndex) -> ExpansionVector:
    """Basis coordinates: (-1)^k binom(i, k) at j' = j + i - 2k, k = 0..i.

    The top entry, k = 0, sits at grid position (n-1+i+j)/2, and in the padded
    row at MAX_N - 1, so the vector is the n entries of the padded row from
    MAX_N - 1 - (n-1+i+j)/2.  That start is at least MAX_N - n >= 0, since
    j <= n-i-1, and the slice ends at most MAX_N - 1 - i + n <= 2 MAX_N - 1 - i,
    since j >= i+1-n, so it stays inside the row.
    """
    n, i, j = idx
    start = MAX_N - 1 - (n - 1 + i + j) // 2
    return tuple.__new__(ExpansionVector, (_row(i)[2][start:start + n],))


def laurent_image(idx: ContactIndex) -> str:
    """t^(j/2) (t^(1/2) - t^(-1/2))^i, the image of the class in the model, as
    text: (-1)^k binom(i, k) t^((j+i-2k)/2) for k = 0..i, highest power first.

    The exponents j+i, j+i-2, ... descend and share a parity, and no entry of
    the row is 0, so the text is the row's prefixes interleaved with a slice
    of _powers() (|j| + i <= n - 1 < MAX_N keeps the slice inside), joined
    once.  The constant term is its signed coefficient alone, and the leading
    "+" of the first term (whose coefficient is 1) is dropped.
    """
    i, j = idx.i, idx.j
    row, prefixes, _ = _row(i)
    top = j + i + MAX_N  # the index of the highest power, t^((j+i)/2)
    parts = [""] * (2 * i + 2)
    parts[::2] = prefixes
    parts[1::2] = _powers()[top:top - 2 * i - 1:-2]
    if -i <= j <= i and (j + i) % 2 == 0:
        k = (j + i) // 2  # the constant term
        parts[2 * k] = "%+d" % row[k]
        parts[2 * k + 1] = ""
    parts[0] = parts[0][1:]
    return "".join(parts)


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
