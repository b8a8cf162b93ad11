from math import comb

import pytest

from tightsf import floer
from tightsf.floer import (
    MAX_N,
    ContactIndex,
    ExpansionVector,
    expansion,
    grid,
    index_set,
    laurent_image,
    pairwise_distinct,
    stein_obstructed,
)


def product_image(idx):
    """t^(j/2) (t^(1/2) - t^(-1/2))^i as the i-fold product of Laurent
    polynomials in t^(1/2), one factor at a time: the oracle for the classes.
    The dict maps twice the exponent to the coefficient, without zeros."""
    terms = {idx.j: 1}
    for _ in range(idx.i):
        product = {}
        for e, c in terms.items():
            product[e + 1] = product.get(e + 1, 0) + c
            product[e - 1] = product.get(e - 1, 0) - c
        terms = {e: c for e, c in product.items() if c}
    return terms


def laurent_text(terms):
    """A Laurent polynomial, keyed by twice the exponent, as text: terms from
    the highest power down, +-1 as a bare sign, and no leading "+".  The
    oracle for laurent_image's text."""
    parts = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
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


def test_index_validation():
    ContactIndex(2, 1, 0)
    with pytest.raises(ValueError):
        ContactIndex(2, 2, 0)
    with pytest.raises(ValueError):
        ContactIndex(2, 0, 0)  # wrong parity
    with pytest.raises(ValueError):
        ContactIndex(2, 0, 3)  # out of range
    with pytest.raises(ValueError, match="parity"):
        ContactIndex(2, 1, 0)._replace(i=0)
    for n, message in ((0, "n must be positive"), (MAX_N + 1, "limit")):
        with pytest.raises(ValueError, match=message):
            ContactIndex(n, 0, n - 1)  # refused before expansion builds n coefficients


def test_index_set_examples():
    assert [(i.i, i.j) for i in index_set(1)] == [(0, 0)]
    assert sorted((i.i, i.j) for i in index_set(2)) == [(0, -1), (0, 1), (1, 0)]
    for n in range(1, 31):
        assert len(index_set(n)) == n * (n + 1) // 2


def test_expansion_examples():
    v = expansion(ContactIndex(2, 1, 0))
    assert grid(2) == (-1, 1)
    assert v.coeffs == (-1, 1)  # -1 at j' = -1, +1 at j' = +1
    v2 = expansion(ContactIndex(3, 2, 0))
    assert grid(3) == (-2, 0, 2)
    assert v2.coeffs == (1, -2, 1)
    v3 = expansion(ContactIndex(5, 0, 4))
    assert v3.coeffs == (0, 0, 0, 0, 1)


def test_laurent_examples():
    assert product_image(ContactIndex(3, 2, 0)) == {2: 1, 0: -2, -2: 1}
    assert product_image(ContactIndex(5, 0, 4)) == {4: 1}
    examples = {(3, 2, 0): "t^1-2+t^-1", (5, 0, 4): "t^2", (2, 1, 0): "t^(1/2)-t^(-1/2)", (1, 0, 0): "1",
                (4, 3, 0): "t^(3/2)-3*t^(1/2)+3*t^(-1/2)-t^(-3/2)", (5, 2, -2): "1-2*t^-1+t^-2"}
    for (n, i, j), text in examples.items():
        idx = ContactIndex(n, i, j)
        assert laurent_image(idx) == laurent_text(product_image(idx)) == text


def test_laurent_image_matches_the_oracle_up_to_the_cap():
    # the text depends on (i, j) alone, and n = 99 and n = 100 between them
    # give every (i, j) of every n <= MAX_N
    for n in (MAX_N - 1, MAX_N):
        for idx in index_set(n):
            assert laurent_image(idx) == laurent_text(product_image(idx)), idx


class CountedIndex(int):
    """An int that counts the subtractions it takes part in."""

    uses = 0

    def __sub__(self, other):
        CountedIndex.uses += 1
        return int(self) - other

    def __rsub__(self, other):
        CountedIndex.uses += 1
        return other - int(self)


def test_each_class_is_one_row_and_one_object(monkeypatch):
    # the binomial row takes one step per entry after the first, and
    # laurent_image reads one row per class and returns its text
    for i in (0, 1, 7, 100, 1000):
        CountedIndex.uses = 0
        assert floer._binomial_row(CountedIndex(i)) == [(-1) ** k * comb(i, k) for k in range(i + 1)]
        assert CountedIndex.uses == i
    rows = 0
    binomial_row = floer._binomial_row

    def counting_row(i):
        nonlocal rows
        rows += 1
        return binomial_row(i)

    monkeypatch.setattr(floer, "_binomial_row", counting_row)
    for n in (30, 100):
        classes = index_set(n)
        rows = 0
        assert all(type(laurent_image(idx)) is str for idx in classes)
        assert rows == len(classes) == n * (n + 1) // 2


def test_expansion_recursion():
    # one more stabilization multiplies by (t^(1/2) - t^(-1/2)): on the wider
    # grid the new vector is the +1-shift minus the -1-shift of the old one
    for n in range(1, 15):
        for idx in index_set(n):
            bigger = expansion(ContactIndex(n + 1, idx.i + 1, idx.j))
            base = expansion(idx)
            shifted = [0] * (n + 1)
            for pos, c in enumerate(base.coeffs):
                shifted[pos + 1] += c
                shifted[pos] -= c
            assert bigger.coeffs == tuple(shifted)


def pairwise_distinct_oracle(n):
    # the distinctness computed: build every class and compare the vectors
    vectors = [expansion(idx).coeffs for idx in index_set(n)]
    return len(set(vectors)) == len(vectors)


def test_expansion_vectors_nonzero_and_distinct():
    for n in range(1, 16):
        assert all(any(expansion(idx).coeffs) for idx in index_set(n))
    for n in range(1, MAX_N + 1):
        assert pairwise_distinct(n) == pairwise_distinct_oracle(n)
    for n, message in ((0, "n must be positive"), (-3, "n must be positive"), (MAX_N + 1, "limit")):
        with pytest.raises(ValueError, match=message):
            pairwise_distinct(n)


def conjugate(coeffs):
    """Relabel the basis by j' -> -j'."""
    return coeffs[::-1]


def negate(coeffs):
    return tuple(-c for c in coeffs)


def test_conjugate():
    v = expansion(ContactIndex(5, 0, 2)).coeffs
    assert conjugate(v) == expansion(ContactIndex(5, 0, -2)).coeffs
    w = expansion(ContactIndex(5, 2, 0)).coeffs
    assert conjugate(w) == w
    odd = expansion(ContactIndex(4, 1, 0)).coeffs
    assert conjugate(odd) == negate(odd)
    for idx in index_set(6):
        vec = expansion(idx).coeffs
        assert conjugate(conjugate(vec)) == vec


def test_conjugation_pairs_match_up_to_sign():
    # conjugating (i, j) lands on (i, -j) up to the binomial sign flip
    for n in range(1, 13):
        for idx in index_set(n):
            if idx.j == 0:
                continue
            mirrored = expansion(ContactIndex(n, idx.i, -idx.j)).coeffs
            conj = conjugate(expansion(idx).coeffs)
            assert conj in (mirrored, negate(mirrored))
            assert sorted(map(abs, conj)) == sorted(map(abs, mirrored))


def stein_obstructed_oracle(idx):
    # the pairing argument computed: expand, conjugate, read the central parity
    if idx.j != 0 or idx.i == 0:
        return False
    v = expansion(idx).coeffs
    if conjugate(v) not in (v, negate(v)):
        return False
    central = v[len(v) // 2] if idx.n % 2 else 0  # j' = 0 is the middle position; off the grid for even n
    return central % 2 == 0


def test_stein_obstruction():
    assert stein_obstructed(ContactIndex(2, 1, 0))
    assert not stein_obstructed(ContactIndex(2, 0, 1))
    assert not stein_obstructed(ContactIndex(5, 0, 0))
    for n in range(1, MAX_N + 1):
        classes = index_set(n)
        assert all(stein_obstructed(idx) == stein_obstructed_oracle(idx) for idx in classes)
        assert sum(1 for idx in classes if idx.i == 0) == n


def test_vector_guards():
    with pytest.raises(ValueError):
        ExpansionVector(3, (1, 0))
    with pytest.raises(ValueError):
        ExpansionVector(2, (1, 0))._replace(n=3)
    # the vector keeps a tuple, so its length stays the one it was checked at
    coeffs = [1, 2, 3]
    vector = ExpansionVector(3, coeffs)
    coeffs.append(4)
    assert vector.coeffs == (1, 2, 3)
    with pytest.raises(AttributeError):
        vector.coeffs.append(4)
