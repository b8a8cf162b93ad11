"""The invariant triples the tests share: the paper's acceptance space, and
Hypothesis draws of big legs."""
from fractions import Fraction
from itertools import combinations_with_replacement

from hypothesis import strategies as st

from tightsf.selftest import fractions_upto


def sorted_triples(max_q):
    """Every r1 <= r2 <= r3 among the fractions of fractions_upto(max_q)."""
    return combinations_with_replacement(sorted(Fraction(p, q) for p, q in fractions_upto(max_q)), 3)


# Small triples in each named family and on each boundary: the three torus
# bundles, the sphere family at n = 1, 2, k/(k+1) at k = 9, 13, sum 2, a point
# of the gap, sum 9/4 and a sum above it.
FAMILY_TRIPLES = (
    ((1, 2), (3, 4), (3, 4)), ((1, 2), (2, 3), (5, 6)), ((2, 3), (2, 3), (2, 3)),
    ((1, 2), (2, 3), (6, 7)), ((1, 2), (2, 3), (11, 13)),
    ((1, 2), (2, 3), (9, 10)), ((1, 2), (2, 3), (13, 14)),
    ((2, 5), (4, 5), (4, 5)), ((1, 2), (3, 4), (4, 5)),
    ((3, 4), (3, 4), (3, 4)), ((7, 9), (7, 9), (7, 9)),
)


def _big(draw, small):
    """An unreduced pair (p, q), q != 0, of 64 to 512 bits with a random sign
    and integer part: a random leg, or the small leg (p, q) times a big factor."""
    bits = draw(st.integers(64, 512))
    if small is None:
        q = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
        p = draw(st.integers(1, q - 1))
    else:
        g = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
        p, q = small[0] * g, small[1] * g
    p += draw(st.integers(-3, 3)) * q
    return (-p, -q) if draw(st.booleans()) else (p, q)


@st.composite
def big_invariants(draw):
    """(e0_raw, three big legs in any order): random legs, or a family triple
    scaled leg by leg; e0_raw makes the normalized Euler number -2 in most draws."""
    smalls = draw(st.one_of(st.just((None,) * 3), st.sampled_from(FAMILY_TRIPLES).flatmap(st.permutations)))
    legs = [_big(draw, small) for small in smalls]
    floors = sum(p // q for p, q in legs)
    return -2 - floors + draw(st.sampled_from((0, 0, 0, 0, 1, -1))), legs
