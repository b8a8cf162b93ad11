"""Slope calculus for convex neighborhoods of the singular fibers.

A standard neighborhood V_i of the i-th singular fiber with boundary slope
1/n_i (n_i < 0) has, measured in the product coordinates on -d(M \\ V_i),

    s_1 = (-p_1 n_1 - u_1) / (q_1 n_1 + v_1)
    s_i = ((q_i - p_i) n_i + (v_i - u_i)) / (q_i n_i + v_i)      (i = 2, 3).

Cutting along a vertical annulus between V_1 and V_2 whose two boundary
dividing counts balance (q_1 n_1 + v_1 = q_2 n_2 + v_2 = delta) and rounding
the edges gives a torus parallel to dV_3 of slope s_1 + s_2 - 1/delta; pushed
into the V_3 coordinates this is the closed form

    ((A n_1 + F) q_3) / ((C n_1 + D) v_3)

with the four rational coefficients computed by slope_coeffs.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .seifert import SeifertData
from .slopes import Slope


def measured_slope(i: int, sd: SeifertData, n: int) -> Slope:
    """Boundary slope of V_i at twisting n < 0, in -d(M \\ V_i) coordinates."""
    if n >= 0:
        raise ValueError("twisting must be negative")
    p, q, u, v = sd.conv[i - 1]
    den = q * n + v
    if den == 0:  # q >= v > 0 forces q*n + v < 0 for n < 0
        raise ArithmeticError(f"q*n + v = 0 for fiber {i} at twisting {n}, but q >= v > 0")
    if i == 1:
        return Slope(-p * n - u, den)
    if i in (2, 3):
        return Slope((q - p) * n + (v - u), den)
    raise ValueError("fiber index must be 1, 2 or 3")


class SlopeCoeffs(NamedTuple):  # each coefficient a reduced integer pair (num, den) with den > 0
    A: tuple[int, int]
    C: tuple[int, int]
    F: tuple[int, int]
    D: tuple[int, int]


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, for den > 0."""
    g = gcd(num, den)
    return num // g, den // g


def slope_coeffs(sd: SeifertData) -> SlopeCoeffs:
    """A, C, F, D: r_1 + r_2 + r_3 - 2, 2 - r_1 - r_2 - u_3/v_3,
    (r_2 + r_3 - 2) v_1/q_1 + e/q12 and (2 - r_2 - u_3/v_3) v_1/q_1 - e/q12, with
    q12 = q_1 q_2 and e = u_1 q_2 + q_2 - 1.  A is (S.num - 2 S.den, S.den) for
    the sum S = r_1 + r_2 + r_3 that parse stored reduced, so it is reduced too.
    C, F and D are each one integer numerator over q12 v_3 (C, D) or q12 q_3
    (F), read off the convergents and reduced once.
    """
    (p1, q1, u1, v1), (p2, q2, u2, v2), (p3, q3, u3, v3) = sd.conv
    q12 = q1 * q2
    e = u1 * q2 + q2 - 1
    s12 = p1 * q2 + p2 * q1 - 2 * q12  # q12 (r_1 + r_2 - 2)
    s = sd.invariant_sum
    return SlopeCoeffs(
        (s.num - 2 * s.den, s.den),
        _reduced(-s12 * v3 - u3 * q12, q12 * v3),
        _reduced((p3 * q2 + p2 * q3 - 2 * q2 * q3) * v1 + e * q3, q12 * q3),
        _reduced(((2 * q2 - p2) * v3 - u3 * q2) * v1 - e * v3, q12 * v3),
    )


def v3_slope(sd: SeifertData, n1: int, coeffs: SlopeCoeffs) -> Slope:
    """Closed form ((A n_1 + F) q_3)/((C n_1 + D) v_3) for the dV_3 slope after
    rounding, cross-multiplied from the integer pairs; at a pole of the form,
    where C n_1 + D = 0, the slope is inf."""
    if n1 >= 0:
        raise ValueError("twisting must be negative")
    (an, ad), (cn, cd), (fn, fd), (dn, dd) = coeffs
    _, q3, _, v3 = sd.conv[2]
    return Slope((an * fd * n1 + fn * ad) * q3 * cd * dd, (cn * dd * n1 + dn * cd) * v3 * ad * fd)


def limit_regime(coeffs: SlopeCoeffs) -> bool:
    """A >= 1/4 or A < 0: the two finite-count regimes, where v3_slope_limit applies."""
    an, ad = coeffs.A
    return 4 * an >= ad or an < 0


class LimitInfo(NamedTuple):
    limit: Slope
    increasing: bool
    threshold_ok: bool


# v3_slope_limit reports whether the closed form rises at every step of n_1
# from -1 down to -RISING_DEPTH.
RISING_DEPTH = 100


def v3_slope_limit(sd: SeifertData, coeffs: SlopeCoeffs) -> LimitInfo:
    """Limit A q_3 / (C v_3) of the closed form as n_1 -> -inf.

    Only meaningful under limit_regime (the two finite-count regimes with
    C of a definite sign).  "increasing" means the value strictly rises toward
    the limit as the twisting n_1 descends through -1, -2, ..., -RISING_DEPTH;
    threshold_ok records whether the limit stays on the attainable side of
    (p_3 - q_3)/(v_3 - u_3).

    The closed form is the Moebius function (a n + f)/(c n + d) of n_1 with
    (a, f, c, d) = (A q_3, F q_3, C v_3, D v_3), and one step from n + 1 down
    to n changes it by (f c - a d) divided by the product of the two
    denominators.  Away from the pole -d/c = -D/C that product is positive, so
    the values rise at every step exactly when a d - f c, of the sign of
    A D - F C, is negative and the pole lies outside [-RISING_DEPTH, -1].  The
    flag can therefore come back False for honest reasons near the -1 end: the
    form is constant whenever the first two invariants both make balanced
    standard neighborhoods (for example r_1 = r_2 = 1/2), and a pole between
    -2 and -1 puts n_1 = -1 on the far branch.  The tail toward -infinity is
    monotone in every case.

    A, C, F and D come as integer pairs with positive denominators, so each
    comparison cross-multiplies ints (threshold_ok uses v_3 > u_3) and the
    limit's Slope is the one rational built.
    """
    if not limit_regime(coeffs):
        raise ValueError("gap region")
    (an, ad), (cn, cd), (fn, fd), (dn, dd) = coeffs
    if cn == 0:
        raise ArithmeticError("coefficient C vanishes outside the gap region")
    p3, q3, u3, v3 = sd.conv[2]
    limit = Slope(an * q3 * cd, ad * cn * v3)
    pole_num, pole_den = (dn * cd, dd * cn) if cn > 0 else (-dn * cd, -dd * cn)  # = D/C, pole_den > 0
    increasing = an * dn * fd * cd < fn * cn * ad * dd and not pole_den <= pole_num <= RISING_DEPTH * pole_den
    threshold_ok = limit.num * (v3 - u3) <= (p3 - q3) * limit.den
    return LimitInfo(limit, increasing, threshold_ok)


# A report prints one sphere-family row per k < n; a larger n is refused up
# front, so a short input cannot ask for an unbounded amount of output.
MAX_TWIST_ROWS = 10**5


class MaxTwistTable(NamedTuple):
    """A sphere-family table, held as its parameter n: row k < n is k, the
    rounded slope -k/(6k+1), the dV_3 boundary slope -n+k and the count n-k
    of tight structures on V_3 rel boundary."""
    n: int


def max_twist_table(sd: SeifertData, n: int) -> MaxTwistTable:
    """Upper-bound bookkeeping for sd = M(-2; 1/2, 2/3, (5n+1)/(6n+1)), with the
    n that detect_family read off it.

    Maximal twisting forces n_1 = -3k-1, n_2 = -2k-1 for some 0 <= k <= n-1;
    rounding gives -k/(6k+1) and the V_3 boundary slope -n+k, a solid torus
    carrying n-k tight structures.  The rows sum to n(n+1)/2.

    The attaching matrix of V_3 is [[q_3, v_3], [q_3-p_3, v_3-u_3]] and its
    inverse, the V_3 transfer, is [[v_3-u_3, -v_3], [p_3-q_3, q_3]].  In plain
    integers from the convergents in sd.conv, at k = 0, 1, 2, along the
    route of selftest.v3_slope_stepwise, the dividing counts must balance at
    delta = -(6k+1), the rounded numerator must be num = k, and the transfer
    must carry (delta, -num) to an (x, y) with x != 0 and y = (k-n) x; each
    check raises ArithmeticError, so -O keeps it.  These prove every row:
    delta, num, x and y are affine in k, so y - (k-n) x, of degree 2,
    vanishes identically, which leaves x constant.  They also pin the legs:
    the balance and the rounding need r_1 = 1/2 and r_2 = 2/3, a constant x
    needs (u_3, v_3) = (5, 6), and then y = (k-n) x needs
    r_3 = (5n+1)/(6n+1), so any manifold but the n-th member of the family
    fails a check.  So the checks imply p_3 v_3 - q_3 u_3 = 1, and the
    transfer written from the convergents is the inverse.  As
    gcd(k, 6k+1) = 1 and n-k is solid_torus_count of -n+k, each row is read
    off n (selftest.check_max_twist_chain checks each row stepwise).  Raises
    ValueError above MAX_TWIST_ROWS rows or unless e0 = -2.
    """
    if n < 1:
        raise ValueError("family parameter must be positive")
    if n > MAX_TWIST_ROWS:
        raise ValueError(f"the table has {n} rows, more than the limit {MAX_TWIST_ROWS}")
    if sd.e0 != -2:
        raise ValueError(f"e0 = {sd.e0}, not -2")
    (p1, q1, u1, v1), (p2, q2, u2, v2), (p3, q3, u3, v3) = sd.conv
    for k in (0, 1, 2):
        n1, n2 = -3 * k - 1, -2 * k - 1
        delta = q1 * n1 + v1
        if delta != q2 * n2 + v2:
            raise ArithmeticError(f"row k = {k}: dividing counts {delta} and {q2 * n2 + v2} do not balance")
        # the rounded slope is num/delta; its negation is the line (delta, -num)
        num = (-p1 * n1 - u1) + ((q2 - p2) * n2 + (v2 - u2)) - 1
        if num != k or delta != -6 * k - 1:
            raise ArithmeticError(f"row k = {k}: rounded slope {num}/{delta} is not -k/(6k+1)")
        x = (v3 - u3) * delta + v3 * num
        y = (p3 - q3) * delta - q3 * num
        if x == 0 or y != (k - n) * x:
            raise ArithmeticError(f"row k = {k}: V_3 boundary slope {Slope(y, x)} is not -n+k = {k - n}")
    return MaxTwistTable(n)
