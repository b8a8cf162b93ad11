import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tightsf.contfrac import (
    MAX_EXPANSION,
    Convergents,
    Expansion,
    convergents,
    expand,
    ncf_eval,
    read_leg,
    reverse_shift,
    shifted_product,
    solid_torus_count,
    tight_count,
)
from tightsf.selftest import fractions_upto
from tightsf.slopes import INF, Slope


def runs_of(entries) -> Expansion:
    """The Expansion of a sequence of entries: its maximal runs of -2, and
    every other entry a run of its own."""
    runs = []
    for a in entries:
        if a == -2 and runs and runs[-1][0] == -2:
            runs[-1] = (-2, runs[-1][1] + 1)
        else:
            runs.append((a, 1))
    return Expansion(runs)


def test_expand_examples():
    assert expand(Slope(-2)) == ((-2, 1),)
    assert expand(Fraction(-7, 5)) == ((-2, 2), (-3, 1))
    assert expand(Fraction(-7, 5)).entries() == (-2, -2, -3)
    assert expand(Fraction(-11, 9)).entries() == (-2, -2, -2, -2, -3)
    assert expand(Fraction(-11, 9)).entry_count() == 5
    assert type(expand(Slope(-2))) is Expansion and not hasattr(expand(Slope(-2)), "__dict__")


def test_expand_domain_errors():
    for bad in (Fraction(-1), Fraction(0), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            expand(bad)
    with pytest.raises(ValueError):
        expand(INF)


def test_eval_examples():
    assert ncf_eval((-2, -2, -3)) == Slope(-7, 5)
    assert ncf_eval(()) == INF
    assert ncf_eval((-3, -2, -1)) == Slope(-2)
    with pytest.raises(ValueError):
        ncf_eval((-3, 0))


def test_convergents_examples():
    assert tuple(convergents(Slope(-2))) == (1, 2, 0, 1)
    assert tuple(convergents(Fraction(-3, 2))) == (2, 3, 1, 2)
    assert tuple(convergents(Fraction(-13, 11))) == (11, 13, 5, 6)


def test_reverse_shift_examples():
    assert reverse_shift(runs_of((-2,))) == ((-1, 1),)
    assert ncf_eval((-1,)) == Slope(-1)
    assert reverse_shift(runs_of((-2, -2, -3))).entries() == (-3, -2, -1)
    assert reverse_shift(runs_of((-2, -2))).entries() == (-2, -1)
    assert ncf_eval((-2, -1)) == Slope(-1)
    # the shifted head joins a run of its value, so the runs stay maximal
    assert reverse_shift(runs_of((-3, -2, -2))) == ((-2, 3),)
    assert reverse_shift(runs_of((-4, -3, -2, -2))) == ((-2, 2), (-3, 1), (-3, 1))
    assert type(reverse_shift(runs_of((-2, -3)))) is Expansion
    with pytest.raises(ValueError):
        reverse_shift(Expansion())
    with pytest.raises(ValueError):
        reverse_shift(runs_of((-2, -1)))


def test_tight_count_examples():
    assert tight_count(Fraction(1, 2)) == 1
    assert tight_count(Fraction(9, 11)) == 2
    assert tight_count(Fraction(7, 9)) == 2
    with pytest.raises(ValueError):
        tight_count(Fraction(3, 2))


def test_solid_torus_count_examples():
    assert solid_torus_count(Slope(-1)) == 1
    for m in range(2, 12):
        assert solid_torus_count(Slope(-m)) == m
    r = Fraction(9, 11)
    boundary = ncf_eval(reverse_shift(expand(-1 / r)).entries())
    assert solid_torus_count(boundary) == tight_count(r) == 2
    with pytest.raises(ValueError):
        solid_torus_count(Fraction(-1, 2))


def test_family_expansion_pattern():
    # -(6n-1)/(5n-1) expands to four -2's, one -3, then n-2 more -2's
    for n in range(2, 31):
        expected = (-2, -2, -2, -2, -3) + (-2,) * (n - 2)
        assert expand(Fraction(-(6 * n - 1), 5 * n - 1)).entries() == expected


# Oracles for the fast paths: the one-entry-per-step expansion loop, the run
# loop without the continuant, the convergents read off by evaluating the
# expansion without its last entry, and v as the inverse of p modulo q.


def runs_oracle(n: int, d: int) -> list[tuple[int, int]]:
    """Runs (a, m) of the canonical expansion of -n/d, n > d >= 1, from
    Euclid's loop alone, taking each run of -2 entries in one step."""
    runs = []
    while d:
        e = n - d
        if e <= d:
            m = d // e
            runs.append((-2, m))
            n, d = d - (m - 1) * e, d - m * e
        else:
            b = -(-n // d)
            runs.append((-b, 1))
            n, d = d, b * d - n
    return runs


def convergents_via_pow(p: int, q: int) -> Convergents:
    v = pow(p, -1, q)
    return Convergents(p, q, (p * v - 1) // q, v)


def expand_stepwise(x: Fraction) -> tuple[int, ...]:
    n, d = x.numerator, x.denominator
    out = []
    while n % d:
        a = n // d  # floor
        out.append(a)
        n, d = -d, n - a * d
    out.append(n // d)
    return tuple(out)


def convergents_via_eval(x: Fraction, entries) -> Convergents:
    q, p = -x.numerator, x.denominator
    if len(entries) == 1:
        return Convergents(p, q, 0, 1)
    mvu = ncf_eval(entries[:-1]).as_fraction()  # equals -v/u
    return Convergents(p, q, mvu.denominator, -mvu.numerator)


def prod_shifted(entries) -> int:
    out = 1
    for a in entries:
        out *= a + 1
    return out


def unshifted_last_count(entries) -> int:
    prod = entries[-1]
    for b in entries[:-1]:
        prod *= b + 1
    return abs(prod)


def _oracle_legs():
    for p, q in fractions_upto(200):
        yield Fraction(p, q)
    for q in list(range(2, 10**4, 331)) + [10**4]:
        yield Fraction(q - 1, q)
        yield Fraction(1, q)
    rng = random.Random(512)
    for _ in range(40):
        q = rng.getrandbits(512) | (1 << 511)
        r = Fraction(rng.randrange(1, q), q)
        yield r
        yield 1 - r


def test_fast_paths_match_stepwise_oracles():
    for r in _oracle_legs():
        x = -1 / r
        entries = expand_stepwise(x)
        conv = convergents_via_eval(x, entries)
        runs = expand(x)
        assert runs.entries() == entries and runs.entry_count() == len(entries)
        # the runs spell the entries: maximal runs of -2, every other entry alone
        assert [a for a, m in runs for _ in range(m)] == list(entries)
        assert all(m >= 1 and (m == 1 or a == -2) for a, m in runs)
        assert not any(a == b == -2 for (a, _), (b, _) in zip(runs, runs[1:]))
        assert runs == runs_of(entries)
        assert reverse_shift(runs) == runs_of(entries[:0:-1] + (entries[0] + 1,))
        assert convergents(x) == conv
        assert tight_count(r) == shifted_product(runs) == abs(prod_shifted(entries))
        boundary = Fraction(conv.p - conv.q, conv.v - conv.u)
        assert solid_torus_count(boundary) == unshifted_last_count(expand_stepwise(boundary))


def test_integer_slope_count_matches_stepwise():
    rng = random.Random(200)
    ms = list(range(1, 10**4 + 1)) + [rng.getrandbits(200) | (1 << 199) for _ in range(5)]
    for m in ms:
        expected = unshifted_last_count(expand_stepwise(Fraction(-m)))
        assert solid_torus_count(Slope(-m)) == solid_torus_count(Fraction(-m)) == expected == m
    with pytest.raises(ValueError):
        solid_torus_count(Slope(0))
    with pytest.raises(ValueError):
        solid_torus_count(INF)


def test_expansion_cap():
    # r = (q-1)/q expands to q-1 entries -2
    q = MAX_EXPANSION + 1
    assert expand(Fraction(-q, q - 1)) == ((-2, MAX_EXPANSION),)
    assert expand(Fraction(-q, q - 1)).entries() == (-2,) * MAX_EXPANSION
    assert reverse_shift(expand(Fraction(-q, q - 1))) == ((-2, MAX_EXPANSION - 1), (-1, 1))
    with pytest.raises(ValueError, match="entries"):
        expand(Fraction(-(q + 1), q))
    # the counts and convergents never build the expansion, so they stay exact
    huge = Fraction(10**12 - 1, 10**12)
    with pytest.raises(ValueError):
        expand(-1 / huge)
    assert tight_count(huge) == 1
    assert convergents(-1 / huge) == (10**12 - 1, 10**12, 10**12 - 2, 10**12 - 1)
    assert solid_torus_count(Slope(-(10**12), 10**12 - 1)) == 2


@st.composite
def legs(draw):
    """(p, q) with 0 < p < q coprime and q of 1 to 4096 bits, p = 1 and
    p = q - 1 (one run, a single entry or q - 1 entries -2) among them."""
    bits = draw(st.integers(min_value=2, max_value=4096))
    q = draw(st.integers(min_value=max(2, 1 << (bits - 1)), max_value=(1 << bits) - 1))
    p = draw(st.one_of(st.just(1), st.just(q - 1), st.integers(min_value=1, max_value=q - 1)))
    g = gcd(p, q)
    return p // g, q // g


@settings(max_examples=300, deadline=None)
@given(legs())
@example((1, 2))
@example((1, 3))
@example((2, 3))
@example((1, (1 << 4096) - 1))
@example(((1 << 4096) - 2, (1 << 4096) - 1))
def test_one_pass_matches_pow_and_the_run_loop(leg):
    # one read_leg pass gives the runs of Euclid's loop and the convergents
    # of the modular inverse
    p, q = leg
    runs, conv = read_leg(p, q)
    assert type(runs) is Expansion and type(conv) is Convergents
    assert list(runs) == runs_oracle(q, p)
    assert conv == convergents_via_pow(p, q)
    assert p * conv.v - q * conv.u == 1
