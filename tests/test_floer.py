import pytest

from tightsf.floer import (
    MAX_N,
    ContactIndex,
    ExpansionVector,
    HalfLaurent,
    class_degree,
    conjugate,
    expansion,
    grid,
    index_set,
    laurent_image,
    pairwise_distinct,
    stein_obstructed,
)


def test_index_validation():
    ContactIndex(2, 1, 0)
    with pytest.raises(ValueError):
        ContactIndex(2, 2, 0)
    with pytest.raises(ValueError):
        ContactIndex(2, 0, 0)  # wrong parity
    with pytest.raises(ValueError):
        ContactIndex(2, 0, 3)  # out of range


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
    assert laurent_image(ContactIndex(3, 2, 0)) == HalfLaurent({2: 1, 0: -2, -2: 1})
    assert laurent_image(ContactIndex(5, 0, 4)) == HalfLaurent({4: 1})
    assert str(laurent_image(ContactIndex(2, 1, 0))) == "t^(1/2)-t^(-1/2)"


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


def test_expansion_vectors_nonzero_and_distinct():
    for n in range(1, 16):
        vectors = [expansion(idx) for idx in index_set(n)]
        assert all(any(v.coeffs) for v in vectors)
        assert pairwise_distinct(n)


def test_conjugate():
    v = expansion(ContactIndex(5, 0, 2))
    assert conjugate(v) == expansion(ContactIndex(5, 0, -2))
    w = expansion(ContactIndex(5, 2, 0))
    assert conjugate(w) == w
    odd = expansion(ContactIndex(4, 1, 0))
    assert conjugate(odd) == -odd
    for idx in index_set(6):
        vec = expansion(idx)
        assert conjugate(conjugate(vec)) == vec


def test_conjugation_pairs_match_up_to_sign():
    # conjugating (i, j) lands on (i, -j) up to the binomial sign flip
    for n in range(1, 13):
        for idx in index_set(n):
            if idx.j == 0:
                continue
            mirrored = expansion(ContactIndex(n, idx.i, -idx.j))
            conj = conjugate(expansion(idx))
            assert conj in (mirrored, -mirrored)
            assert sorted(map(abs, conj.coeffs)) == sorted(map(abs, mirrored.coeffs))


def stein_obstructed_oracle(idx):
    # the pairing argument computed: expand, conjugate, read the central parity
    if idx.j != 0 or idx.i == 0:
        return False
    v = expansion(idx)
    conj = conjugate(v)
    if conj != v and conj != -v:
        return False
    central = v.coeff(0) if idx.n % 2 else 0  # even n: position 0 is off the grid
    return central % 2 == 0


def test_stein_obstruction():
    assert stein_obstructed(ContactIndex(2, 1, 0))
    assert not stein_obstructed(ContactIndex(2, 0, 1))
    assert not stein_obstructed(ContactIndex(5, 0, 0))
    for n in range(1, MAX_N + 1):
        classes = index_set(n)
        assert all(stein_obstructed(idx) == stein_obstructed_oracle(idx) for idx in classes)
        assert sum(1 for idx in classes if idx.i == 0) == n


def test_degree_metadata():
    assert class_degree() == -1


def test_vector_guards():
    with pytest.raises(ValueError):
        ExpansionVector(3, (1, 0))
    v = expansion(ContactIndex(3, 0, 0))
    with pytest.raises(ValueError):
        v.coeff(1)  # off-grid parity
    with pytest.raises(ValueError):
        HalfLaurent({0: 1, 1: 1})
