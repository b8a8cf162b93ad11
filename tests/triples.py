"""The sorted triples of the paper's acceptance space, shared by the tests."""
from fractions import Fraction
from itertools import combinations_with_replacement

from tightsf.selftest import fractions_upto


def sorted_triples(max_q):
    """Every r1 <= r2 <= r3 among the fractions of fractions_upto(max_q)."""
    return combinations_with_replacement(sorted(Fraction(p, q) for p, q in fractions_upto(max_q)), 3)
